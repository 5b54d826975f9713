"""First-class simulation-engine registry.

Every component that selects a gate-level simulation engine -- the
evaluator, the spec, the CLI, the exact-enumeration shard workers, the
benchmarks -- resolves engine names through this module instead of
hard-coding strings.  An engine is a name bound to a simulator factory
plus capability flags:

``sliceable``
    the factory accepts ``keep_nets`` and executes only the sequential
    fan-in cone of those nets (:mod:`repro.netlist.slice`);
``schedulable``
    the engine can execute a *scheduled* cone (the per-cycle dispatch
    schedule that cuts the state-feedback loop on recirculating cores):
    given a control schedule, its factory builds its scheduled simulator,
    and an engine without the flag simulates the static cone instead;
``native``
    the engine compiles to machine code and needs a C toolchain at
    runtime;
``degrades_to``
    the next engine down the graceful-degradation ladder.  When an
    engine cannot be constructed (no C toolchain, injected
    ``engine.native_build`` / ``engine.compile`` chaos fault) callers
    walk the ladder and record the degradation in provenance and
    telemetry -- all registered engines are bit-identical, so degrading
    changes wall-clock only, never verdicts.

Factories import their simulator lazily so this module stays
import-light (:mod:`repro.spec` imports it for validation).
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "EngineError",
    "EngineInfo",
    "DEFAULT_ENGINE",
    "register_engine",
    "get_engine",
    "engine_names",
    "degradation_ladder",
    "engines_info",
    "build_simulator",
]


class EngineError(ValueError):
    """Unknown engine name or invalid registration."""


#: Factory signature: ``factory(netlist, n_lanes, keep_nets=None)`` returns
#: a simulator exposing ``run(stimulus, n_cycles, record_nets,
#: record_cycles)`` (and, for pipeline engines, ``run_pipeline(plan,
#: n_cycles, record_nets, record_cycles, specs, hash_bits)``).  Native
#: factories also take ``record_nets``, schedulable ones ``schedule``.
#: Factories for non-sliceable engines reject ``keep_nets``.
EngineFactory = Callable[..., object]


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: name, factory, and capability flags."""

    name: str
    factory: EngineFactory
    description: str
    sliceable: bool = False
    schedulable: bool = False
    native: bool = False
    #: the engine offers the fused in-kernel evaluation pipeline
    #: (``run_pipeline``: stimulus -> simulate -> extract -> histogram in
    #: one C pass); availability still depends on the runtime toolchain
    #: (``repro.netlist.native.pipeline_available``), and every consumer
    #: degrades to the bit-identical python stages when it is absent.
    pipeline: bool = False
    #: next engine down the degradation ladder (None = last resort).
    degrades_to: Optional[str] = None
    #: chaos-plane site probed before constructing this engine (None =
    #: construction cannot be fault-injected).
    chaos_site: Optional[str] = None

    def capabilities(self) -> dict:
        """JSON-friendly capability record (service ``/metrics``)."""
        return {
            "sliceable": self.sliceable,
            "schedulable": self.schedulable,
            "native": self.native,
            "pipeline": self.pipeline,
            "degrades_to": self.degrades_to,
            "description": self.description,
        }


_REGISTRY: "OrderedDict[str, EngineInfo]" = OrderedDict()

#: The engine used when a caller does not choose one.  Kept at
#: ``compiled`` so default flows never pay a C-toolchain probe or
#: kernel build; the native engine is opt-in per spec/CLI/benchmark.
DEFAULT_ENGINE = "compiled"


def register_engine(info: EngineInfo) -> None:
    """Register (or replace) an engine by name."""
    if not info.name or not info.name.isidentifier():
        raise EngineError(f"invalid engine name {info.name!r}")
    _REGISTRY[info.name] = info


def get_engine(name: str) -> EngineInfo:
    """Look up a registered engine; raises :class:`EngineError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}"
        ) from None


def engine_names() -> Tuple[str, ...]:
    """Registered engine names in registration order."""
    return tuple(_REGISTRY)


def degradation_ladder(name: str) -> Tuple[EngineInfo, ...]:
    """The engine followed by every fallback below it, in order.

    ``degradation_ladder("native")`` is ``(native, compiled, bitsliced)``.
    The chain is validated against cycles at walk time.
    """
    ladder = []
    seen = set()
    current: Optional[str] = name
    while current is not None:
        if current in seen:
            raise EngineError(
                f"degradation cycle through engine {current!r}"
            )
        seen.add(current)
        info = get_engine(current)
        ladder.append(info)
        current = info.degrades_to
    return tuple(ladder)


def engines_info() -> dict:
    """Name -> capability record for every registered engine."""
    return {name: info.capabilities() for name, info in _REGISTRY.items()}


def build_simulator(
    name: str,
    netlist,
    n_lanes: int,
    keep_nets=None,
    record_nets=None,
    schedule=None,
    decide: Optional[Callable[[str], bool]] = None,
    on_degrade: Optional[Callable[..., None]] = None,
):
    """Construct a simulator, walking the degradation ladder on failure.

    Tries ``name`` first, then each ``degrades_to`` fallback.  Before
    constructing an engine with a ``chaos_site``, ``decide(site)`` is
    consulted (the chaos fault plane); an injected fault raises the same
    :class:`~repro.netlist.simulate.SimulationError` a real construction
    failure would.  On every failed rung ``on_degrade(from_info,
    to_info, exc)`` is invoked so callers can record the degradation in
    provenance/telemetry.  Returns ``(simulator, info)`` where ``info``
    is the engine that actually constructed; raises the last rung's
    error when nothing on the ladder works.

    ``record_nets`` is a construction hint (which nets the caller will
    record) passed only to engines that benefit from it (``native``).
    ``schedule`` (a :class:`repro.netlist.slice.ControlSchedule`) asks
    for the scheduled cone of ``keep_nets``: a schedulable rung builds
    its scheduled simulator (``native``: ``NativeScheduledSimulator``,
    ``compiled``: ``ScheduledSimulator``), any other rung the static
    cone, which records the same words.
    """
    from repro.netlist.simulate import SimulationError

    ladder = degradation_ladder(name)
    for i, info in enumerate(ladder):
        try:
            if (
                info.chaos_site is not None
                and decide is not None
                and decide(info.chaos_site)
            ):
                raise SimulationError(
                    f"chaos: injected {info.chaos_site} fault"
                )
            options = {"keep_nets": keep_nets}
            if info.native:
                options["record_nets"] = record_nets
            if schedule is not None and info.schedulable:
                options["schedule"] = schedule
            return info.factory(netlist, n_lanes, **options), info
        except SimulationError as exc:
            if i + 1 >= len(ladder):
                raise
            if on_degrade is not None:
                on_degrade(info, ladder[i + 1], exc)
    raise EngineError(f"empty degradation ladder for {name!r}")


def _plan_ready(stimulus) -> bool:
    """True when a stimulus is a plan the kernel can execute.

    The plan must expose a fresh PCG64 snapshot (``rng_state`` raises
    once the python interpreter has consumed from the stream, or when
    the generator is not PCG64).
    """
    from repro.errors import SimulationError

    rng_state = getattr(stimulus, "rng_state", None)
    if rng_state is None:
        return False
    try:
        rng_state()
    except SimulationError:
        return False
    return True


class EngineOwner:
    """Engine choice and degradation provenance of an evaluator.

    The sampled, periodic and exact evaluators each own a simulation
    engine.  This base is the one copy of what they do with it: validate
    the name, walk the degradation ladder (warn, and record
    ``engine_<to>``), decide whether the in-kernel pipeline can count a
    block, and record every fall-back to a bit-identical slower path in
    :attr:`degradations`, which their reports carry as provenance.
    """

    def _init_engine(self, engine: str) -> None:
        """Validate ``engine`` (raises :class:`EngineError`) and adopt it."""
        get_engine(engine)
        self.engine = engine
        #: graceful-degradation provenance: one ``{"kind", "detail"}``
        #: entry per fall-back taken, copied into the reports.
        self.degradations: List[Dict[str, str]] = []

    def _degrade(self, kind: str, failure: str, exc, path: str) -> None:
        """Record one fall-back to the bit-identical ``path``."""
        self.degradations.append(
            {
                "kind": kind,
                "detail": (
                    f"{failure} ({exc}); continuing on the bit-identical "
                    f"{path}"
                ),
            }
        )

    def _on_degrade(self, from_info, to_info, exc) -> None:
        """:func:`build_simulator` callback: degrade permanently."""
        self.engine = to_info.name
        self._degrade(
            f"engine_{to_info.name}",
            f"{from_info.name} engine unavailable", exc,
            f"{to_info.name} engine",
        )
        warnings.warn(
            f"{from_info.name} simulation engine failed ({exc}); "
            f"degrading to the {to_info.name} engine with identical "
            "results",
            RuntimeWarning,
            stacklevel=4,
        )

    def _pipeline_ready(
        self, specs: Sequence, record_nets, plans: Sequence = ()
    ) -> bool:
        """True when the in-kernel pipeline can count ``specs``.

        It needs an engine offering the pipeline with its toolchain
        present, an explicit record-net list (sliced cones), count tables
        that fit the dense path and stimulus ``plans`` the kernel can
        execute.
        """
        if record_nets is None or not get_engine(self.engine).pipeline:
            return False
        from repro.leakage.gtest import DENSE_KEY_LIMIT

        if any(spec.n_bins > DENSE_KEY_LIMIT for spec in specs):
            return False
        if not all(_plan_ready(plan) for plan in plans):
            return False
        try:
            from repro.netlist.native import pipeline_available
        except ImportError:
            return False
        return pipeline_available()

    def _pipeline_failed(self, exc) -> None:
        """Record that the in-kernel pipeline fell back to python."""
        self._degrade(
            "pipeline_python", "in-kernel pipeline failed", exc,
            "python extraction path",
        )


# --------------------------------------------------------------- factories
# Lazy imports keep ``import repro.engines`` cheap (spec validation, CLI
# argument parsing) -- numpy-heavy simulator modules load on first use.


def _bitsliced_factory(netlist, n_lanes, keep_nets=None):
    from repro.netlist.simulate import BitslicedSimulator

    return BitslicedSimulator(netlist, n_lanes, keep_nets=keep_nets)


def _compiled_factory(netlist, n_lanes, keep_nets=None, schedule=None):
    if schedule is not None:
        from repro.netlist.slice import ScheduledSimulator

        return ScheduledSimulator(
            netlist, n_lanes, keep_nets, schedule.record_cycles,
            schedule.n_cycles, schedule.values,
        )
    from repro.netlist.compile import CompiledSimulator

    return CompiledSimulator(netlist, n_lanes, keep_nets=keep_nets)


def _native_factory(
    netlist, n_lanes, keep_nets=None, record_nets=None, schedule=None
):
    if schedule is not None:
        from repro.netlist.native import NativeScheduledSimulator

        return NativeScheduledSimulator(
            netlist, n_lanes, keep_nets, schedule.record_cycles,
            schedule.n_cycles, schedule.values,
        )
    from repro.netlist.native import NativeSimulator

    return NativeSimulator(
        netlist, n_lanes, keep_nets=keep_nets, record_nets=record_nets
    )


register_engine(
    EngineInfo(
        name="bitsliced",
        factory=_bitsliced_factory,
        description=(
            "interpreting numpy simulator, one dispatch per gate per "
            "cycle; the last-resort reference engine"
        ),
        sliceable=True,
    )
)
register_engine(
    EngineInfo(
        name="compiled",
        factory=_compiled_factory,
        description=(
            "levelized gate program, one numpy dispatch per cell type "
            "per level, cached by netlist content hash"
        ),
        sliceable=True,
        schedulable=True,
        degrades_to="bitsliced",
        chaos_site="engine.compile",
    )
)
register_engine(
    EngineInfo(
        name="native",
        factory=_native_factory,
        description=(
            "gate program fused into one generated-C kernel (cc + "
            "ffi.dlopen, content-hash cached) with an internal thread "
            "pool over lane words; offers the in-kernel evaluation "
            "pipeline and a scheduled-cone interpreter"
        ),
        sliceable=True,
        schedulable=True,
        native=True,
        pipeline=True,
        degrades_to="compiled",
        chaos_site="engine.native_build",
    )
)
