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
    _check_hash_bits,
    _check_samples,
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
from repro.leakage.report import LeakageReport, ProbeResult
from repro.netlist.core import Netlist
from repro.netlist.simulate import Trace

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
        # Engine for the unscheduled simulation path, resolved through
        # repro.engines with the standard degradation ladder; the
        # scheduled-cone path has its own dispatch machinery and ignores
        # it.  All engines are bit-identical.
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
        #: filled by evaluate(): seconds per evaluation stage
        #: (stimulus / simulate / extract / histogram) of the last run.
        self.last_stage_seconds: Optional[Dict[str, float]] = None
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
        if self.slice_cones:
            roots: set = set()
            for probe_class in self.probe_classes:
                roots.update(probe_class.support)
            if roots:
                keep_nets = sorted(roots)
                record_nets = keep_nets

        self.last_slice_info = None
        stage = {
            "stimulus": 0.0, "simulate": 0.0,
            "extract": 0.0, "histogram": 0.0,
        }
        self.last_stage_seconds = stage
        # The in-kernel pipeline (stimulus + simulate + extract +
        # histogram in one C pass per group) applies when both stimuli
        # are fresh StimulusPlans with a PCG64 snapshot, the keys fit
        # the dense bincount path, and the cones were sliced (so the
        # record-net list is explicit).  It is bit-identical to the
        # python path; anything missing degrades gracefully below.
        pipeline_ready = self._pipeline_ready(
            specs, record_nets, (stimulus_fixed, stimulus_random)
        )
        traces: List[Trace] = []
        scheduled = keep_nets is not None and self.control_schedule is not None
        if scheduled:
            from repro.netlist.slice import ScheduledSimulator

            schedule = {
                net: [bits[t % self.period] for t in range(n_cycles)]
                for net, bits in self.control_schedule.items()
            }
            # run() is stateless, so one compiled schedule serves both
            # stimulus streams.
            simulator = None
            sched_engine = "python"
            if self.engine == "native":
                try:
                    from repro.netlist.native import (
                        NativeScheduledSimulator,
                    )

                    simulator = NativeScheduledSimulator(
                        self.netlist, n_lanes, keep_nets,
                        record, n_cycles, schedule,
                    )
                    sched_engine = "native"
                except (ImportError, SimulationError) as exc:
                    self._degrade(
                        "scheduled_python",
                        "native scheduled kernel unavailable", exc,
                        "python scheduled path",
                    )
            if simulator is None:
                simulator = ScheduledSimulator(
                    self.netlist, n_lanes, keep_nets,
                    record, n_cycles, schedule,
                )

            def trace_runner(stimulus):
                return simulator.run(stimulus)

            self.last_slice_info = {
                "mode": "scheduled", "engine": sched_engine,
                **simulator.stats()
            }
        else:
            # run() is stateless on every engine, so one simulator
            # serves both stimulus streams.
            simulator, info = engine_registry.build_simulator(
                self.engine, self.netlist, n_lanes,
                keep_nets=keep_nets,
                record_nets=record_nets,
                on_degrade=self._on_degrade,
            )

            def trace_runner(stimulus):
                return simulator.run(
                    stimulus, n_cycles,
                    record_nets=record_nets, record_cycles=record,
                )

            if keep_nets is not None:
                cone = getattr(simulator, "_cone", None)
                self.last_slice_info = {
                    "mode": "static",
                    "engine": info.name,
                    "cone_nets": len(cone) if cone is not None else None,
                    "n_nets": self.netlist.n_nets,
                }
            else:
                self.last_slice_info = {"mode": "full", "engine": info.name}

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

        outcomes = None
        # Only the native simulators (static or scheduled) offer it.
        if pipeline_ready and hasattr(simulator, "run_pipeline"):
            try:
                group_counts = []
                for plan in (stimulus_fixed, stimulus_random):
                    if scheduled:
                        counts, timings = simulator.run_pipeline(
                            plan, record_nets, specs, self.hash_bits
                        )
                    else:
                        counts, timings = simulator.run_pipeline(
                            plan, n_cycles, record_nets, record,
                            specs, self.hash_bits,
                        )
                    group_counts.append(counts)
                    for name, seconds in timings.items():
                        stage[name] += seconds
                t0 = perf_counter()
                outcomes = g_test_counts_batch(
                    list(zip(group_counts[0], group_counts[1]))
                )
                stage["histogram"] += perf_counter() - t0
                self.last_slice_info["pipeline"] = True
            except SimulationError as exc:
                self._pipeline_failed(exc)
                outcomes = None

        if outcomes is None:
            for stimulus in (stimulus_fixed, stimulus_random):
                t0 = perf_counter()
                traces.append(trace_runner(stimulus))
                stage["simulate"] += perf_counter() - t0
            trace_fixed, trace_random = traces
            # Every dense table of both groups comes from one batched
            # count plan; tables too wide for dense rows histogram their
            # keys.  Either way the G-test sees the same contingency
            # tables as the pipeline's, so the statistics are identical.
            t0 = perf_counter()
            dense = [
                i for i, spec in enumerate(specs)
                if spec.n_bins <= DENSE_KEY_LIMIT
            ]
            plan = _CountPlan([specs[i] for i in dense])
            rows_fixed = self._keys(trace_fixed, plan)
            rows_random = self._keys(trace_random, plan)
            tables: List = [None] * len(specs)
            for i, (start, stop) in zip(dense, plan.bounds):
                tables[i] = (rows_fixed[start:stop], rows_random[start:stop])
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
            _check_samples(probe_names, outcome, n_lanes * n_periods)
            report.results.append(
                ProbeResult(
                    probe_names=probe_names,
                    support_names=tuple(
                        probe_class.support_names(self.netlist)
                    ),
                    n_samples=outcome.n_fixed + outcome.n_random,
                    g_statistic=outcome.g_statistic,
                    dof=outcome.dof,
                    mlog10p=outcome.mlog10p,
                    leaking=outcome.is_leaking(threshold),
                )
            )
        report.degradations = list(self.degradations)
        return report

    def _keys(self, trace: Trace, plan: _CountPlan) -> np.ndarray:
        """The count vector of ``plan``'s tables on one trace."""
        return plan.count(trace)
