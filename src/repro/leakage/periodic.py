"""Fixed-vs-random evaluation of periodic (protocol-driven) designs.

The :class:`repro.leakage.evaluator.LeakageEvaluator` assumes a free-running
pipeline with i.i.d. per-cycle inputs.  A full cipher core instead executes
a *protocol*: control signals and round keys follow a fixed public schedule
with period P, and one plaintext is consumed per period.  Observations are
then comparable only at equal phase, so the fixed-vs-random test runs per
``(probe class, phase)`` pair across many periods.

This is how PROLEAD analyzes complete masked cipher implementations; the
E11 benchmark applies it to our gate-level masked AES-128 core.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro import engines as engine_registry
from repro.errors import SimulationError
from repro.leakage.evaluator import (
    _STAGES,
    _check_hash_bits,
    _checked_result,
    _count_block,
    _count_spec,
    _CountPlan,
    _observe,
)
from repro.leakage.gtest import (
    DEFAULT_THRESHOLD,
    DENSE_KEY_LIMIT,
    _histogram_counts,
    g_test_counts_batch,
)
from repro.leakage.model import ProbingModel
from repro.leakage.probes import extract_probe_classes
from repro.leakage.report import LeakageReport
from repro.netlist.core import Netlist
from repro.netlist.simulate import Trace
from repro.netlist.slice import ControlSchedule

Stimulus = Callable[[int], Dict[int, np.ndarray]]


class PeriodicLeakageEvaluator(engine_registry.EngineOwner):
    """Fixed-vs-random test for designs driven by a periodic protocol."""

    def __init__(
        self,
        netlist: Netlist,
        period: int,
        model: ProbingModel = ProbingModel.GLITCH,
        max_support_bits: int = 24,
        hash_bits: int = 10,
        probe_nets: Optional[Iterable[int]] = None,
        slice_cones: bool = True,
        control_schedule: Optional[Mapping[int, Sequence[int]]] = None,
        engine: str = engine_registry.DEFAULT_ENGINE,
    ):
        _check_hash_bits(hash_bits)
        self.netlist = netlist
        self.period = period
        self.model = model
        self.hash_bits = hash_bits
        # Resolved through repro.engines with the standard degradation
        # ladder, for static and scheduled cones alike.  All engines are
        # bit-identical.
        self._init_engine(engine)
        # Simulate only the fan-in cone of the probe supports
        # (bit-identical; see repro.netlist.slice).  A recirculating core
        # defeats the static cone -- its state registers feed themselves,
        # so the cone is the whole design -- but ``control_schedule``
        # (per-period scalar values of control-input nets, e.g. from
        # AesCoreHarness.control_net_schedule) lets the slicer cut the
        # feedback at the load/capture muxes and simulate only the
        # per-cycle cone of the observations: on the E11 whole-core
        # workload this skips ~99% of all cell evaluations.
        self.slice_cones = slice_cones
        self.control_schedule = (
            dict(control_schedule) if control_schedule else None
        )
        if self.control_schedule is not None:
            for net, bits in self.control_schedule.items():
                if len(bits) != period:
                    raise ValueError(
                        f"control schedule for net {net} has {len(bits)} "
                        f"entries, expected one period ({period})"
                    )
        #: filled by evaluate(): how the last run was sliced (telemetry).
        self.last_slice_info: Optional[Dict[str, object]] = None
        #: cumulative seconds per evaluation stage across every evaluate()
        #: (the G-test books as histogram).
        self.stage_seconds: Dict[str, float] = dict.fromkeys(_STAGES, 0.0)
        self.probe_classes, self.skipped_classes = extract_probe_classes(
            netlist, model, probe_nets=probe_nets,
            max_support_bits=max_support_bits,
        )

    def evaluate(
        self,
        stimulus_fixed: Stimulus,
        stimulus_random: Stimulus,
        n_lanes: int,
        phases: Sequence[int],
        n_periods: int = 1,
        warmup_periods: int = 1,
        threshold: float = DEFAULT_THRESHOLD,
        design_name: str = "periodic design",
    ) -> LeakageReport:
        """Run the test at the given phases of the protocol period.

        Samples per test = ``n_lanes * n_periods`` (periods are independent
        because each consumes fresh inputs and randomness).  ``phases`` are
        cycle offsets within a period (e.g. the cycles during which a
        particular pipeline stage processes round-1 data).  The report's
        ``degradations`` list every fall-back this evaluator has taken
        (provenance, left out of the default JSON).
        """
        periods = range(warmup_periods, warmup_periods + n_periods)
        phase_cycles = {
            phase: [p * self.period + phase for p in periods]
            for phase in phases
        }
        observe_cycles = [t for ts in phase_cycles.values() for t in ts]
        record = {
            t - back for t in observe_cycles for back in self.model.cycles_back
        }
        n_cycles = max(observe_cycles) + 1
        labels = [
            (probe_class, phase)
            for probe_class in self.probe_classes
            for phase in phases
        ]
        # One CountSpec per (probe class, phase) test; periods are its
        # segments.  Both groups and both executors count the same specs.
        specs = [
            _count_spec(probe_class, phase_cycles[phase], self.hash_bits)
            for probe_class, phase in labels
        ]

        keep_nets = None
        record_nets = None
        schedule = None
        if self.slice_cones:
            roots: set = set()
            for probe_class in self.probe_classes:
                roots.update(probe_class.support)
            if roots:
                keep_nets = sorted(roots)
                record_nets = keep_nets
                if self.control_schedule is not None:
                    values = {
                        net: [bits[t % self.period] for t in range(n_cycles)]
                        for net, bits in self.control_schedule.items()
                    }
                    schedule = ControlSchedule(
                        values, n_cycles, tuple(sorted(record))
                    )
        # run() is stateless on every engine, so one simulator serves
        # both stimulus streams.
        simulator, info = engine_registry.build_simulator(
            self.engine, self.netlist, n_lanes,
            keep_nets=keep_nets,
            record_nets=record_nets,
            schedule=schedule,
            on_degrade=self._on_degrade,
        )
        if keep_nets is None:
            self.last_slice_info = {"mode": "full", "engine": info.name}
        elif schedule is not None and info.schedulable:
            self.last_slice_info = {
                "mode": "scheduled", "engine": info.name, **simulator.stats()
            }
        else:
            cone = getattr(simulator, "_cone", None)
            self.last_slice_info = {
                "mode": "static",
                "engine": info.name,
                "cone_nets": len(cone) if cone is not None else None,
                "n_nets": self.netlist.n_nets,
            }

        # Every dense table of both groups comes from one block count: in
        # C when both stimuli are fresh StimulusPlans with a PCG64
        # snapshot, every key fits the dense path and the cones were
        # sliced (explicit record nets), else in numpy.  Tables too wide
        # for dense rows histogram their keys.  Either way the G-test
        # sees the same contingency tables.
        stimuli = (stimulus_fixed, stimulus_random)
        dense = [
            i for i, spec in enumerate(specs)
            if spec.n_bins <= DENSE_KEY_LIMIT
        ]
        plan = _CountPlan([specs[i] for i in dense])
        totals = np.zeros((2, plan.size), dtype=np.int64)
        traces = _count_block(
            self, simulator, stimuli, n_cycles, record_nets, record, plan,
            totals, self._pipeline_ready(specs, record_nets, stimuli),
            count=lambda trace, out: self._keys(trace, plan, out),
        )
        if traces is None:
            self.last_slice_info["pipeline"] = True
        stage = self.stage_seconds
        t0 = perf_counter()
        tables: List = [None] * len(specs)
        for i, (start, stop) in zip(dense, plan.bounds):
            tables[i] = (totals[0, start:stop], totals[1, start:stop])
        bit_caches = ({}, {})
        for i, spec in enumerate(specs):
            if tables[i] is None:
                tables[i] = _histogram_counts(*(
                    _observe(trace, spec, bit_cache)
                    for trace, bit_cache in zip(traces, bit_caches)
                ))
        stage["extract"] += perf_counter() - t0
        t0 = perf_counter()
        outcomes = g_test_counts_batch(tables)
        stage["histogram"] += perf_counter() - t0

        report = LeakageReport(
            design=design_name,
            model=self.model.description,
            fixed_secret=0,
            n_simulations=n_lanes * n_periods,
            threshold=threshold,
            skipped_probes=[
                pc.member_names(self.netlist) for pc in self.skipped_classes
            ],
        )
        # Every (class, phase) table holds one sample per lane and period
        # in each group; anything else is missing evidence, not a verdict.
        if len(outcomes) != len(labels):
            raise SimulationError(
                f"{len(outcomes)} tables tested for {len(labels)} "
                "(probe class, phase) pairs"
            )
        for (probe_class, phase), outcome in zip(labels, outcomes):
            probe_names = (
                probe_class.member_names(self.netlist) + f" @phase{phase}"
            )
            report.results.append(
                _checked_result(
                    probe_names,
                    outcome,
                    n_lanes * n_periods,
                    threshold,
                    probe_names,
                    tuple(probe_class.support_names(self.netlist)),
                )
            )
        report.degradations = list(self.degradations)
        return report

    def _keys(
        self, trace: Trace, plan: _CountPlan, out: np.ndarray
    ) -> np.ndarray:
        """Add the counts of ``plan``'s tables on one trace to ``out``."""
        return plan.count(trace, out)
