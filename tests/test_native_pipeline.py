"""Cross-engine identity tests for the in-kernel evaluation pipeline.

The native engine's ``run_pipeline`` fuses stimulus generation,
simulation, bit-plane extraction and histogramming into one C pass.
Every stage claims bit-compatibility with the Python path it replaces:

* stimulus plans executed in C consume the PCG64 stream exactly as the
  Python interpreter does (``repro.leakage.stimplan``);
* the extraction kernel's three dispatch paths (popcount histogram,
  64x64 transpose, fused scalar) and the evaluators' two numpy
  executors of the same :class:`CountSpec` (batched and single-spec)
  all produce ``numpy.bincount`` of the reference observation keys;
* dense count tables fold into :class:`HistogramAccumulator` exactly
  like raw key arrays, and ``g_test_counts_batch`` is bit-identical to
  ``g_test_batch`` on equal tables.

These properties are what keep checkpoints, resumes and verdicts
byte-identical across the engine ladder, so they are tested here
directly, plus end-to-end through the periodic evaluator and a
checkpoint/resume campaign with the pipeline active.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.leakage.evaluator import (
    HistogramAccumulator,
    LeakageEvaluator,
    _CountPlan,
    _mix_hash,
    _observe,
)
from repro.leakage.gtest import g_test_batch, g_test_counts_batch
from repro.leakage.model import ProbingModel
from repro.leakage.stimplan import StimulusPlanBuilder
from repro.netlist.compile import CompiledSimulator
from repro.netlist.native import (
    CountSpec,
    build_pipeline_kernel,
    pipeline_available,
    _stimgen_dense,
)
from tests.strategies import build_plan, plan_programs, random_circuits

needs_pipeline = pytest.mark.skipif(
    not pipeline_available(),
    reason="no C toolchain for the native pipeline kernel",
)


# --------------------------------------------------------------- helpers


def _lane_bits(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """Per-lane bit column of a packed uint64 word row."""
    lanes = np.arange(n_lanes)
    return (
        words[lanes >> 6] >> (lanes & 63).astype(np.uint64)
    ) & np.uint64(1)


def _python_counts(trace, n_lanes, spec, hash_bits):
    """Reference extraction: keys via trace bit-planes, then bincount.

    Mirrors the contract documented on :class:`CountSpec`: each
    segment's per-lane key is the OR of ``bit << position`` sources,
    hashed segments bucket through ``_mix_hash``, and all segments of a
    test accumulate into one table.
    """
    total = np.zeros(spec.n_bins, dtype=np.int64)
    for segment in spec.segments:
        keys = np.zeros(n_lanes, dtype=np.uint64)
        for cycle, net, position in segment:
            bits = _lane_bits(trace.words(cycle, net), n_lanes)
            keys |= bits << np.uint64(position)
        if spec.hashed:
            keys = _mix_hash(keys) >> np.uint64(64 - hash_bits)
        total += np.bincount(keys.astype(np.int64), minlength=spec.n_bins)
    return total


def _executor_counts(trace, spec):
    """The evaluators' single-spec numpy executor, histogrammed."""
    keys = _observe(trace, spec, {})
    return np.bincount(keys.astype(np.int64), minlength=spec.n_bins)


def _batched_counts(trace, specs):
    """The evaluators' batched numpy executor: one row per spec."""
    plan = _CountPlan(specs)
    counts = plan.count(trace)
    return [counts[start:stop] for start, stop in plan.bounds]


def _input_plan(inputs, n_lanes, seed):
    """One DRAW per primary input -- the simplest full-coverage plan."""
    builder = StimulusPlanBuilder((n_lanes + 63) // 64)
    for net in inputs:
        builder.draw(net=net)
    return builder.build(np.random.default_rng(seed))


def _assert_identical_reports(report_a, report_b):
    assert len(report_a.results) == len(report_b.results)
    for a, b in zip(report_a.results, report_b.results):
        assert a.probe_names == b.probe_names
        assert a.g_statistic == b.g_statistic
        assert a.dof == b.dof
        assert a.mlog10p == b.mlog10p
        assert a.leaking == b.leaking


# ------------------------------------------------- in-kernel stimulus


@needs_pipeline
class TestInKernelStimulus:
    @settings(deadline=None, max_examples=40)
    @given(
        spec=plan_programs(),
        seed=st.integers(0, 2**32 - 1),
        n_cycles=st.integers(1, 9),
    )
    def test_stimgen_matches_python_interpreter(self, spec, seed, n_cycles):
        kernel = build_pipeline_kernel()
        native_plan = build_plan(spec, np.random.default_rng(seed))
        python_plan = build_plan(spec, np.random.default_rng(seed))
        nets = native_plan.nets
        slot_of_net = {net: slot for slot, net in enumerate(nets)}
        dense = _stimgen_dense(
            kernel, native_plan, slot_of_net, len(nets),
            n_cycles, native_plan.n_words,
        )
        for cycle in range(n_cycles):
            values = python_plan(cycle)
            for net in nets:
                assert np.array_equal(
                    dense[cycle, slot_of_net[net]], values[net]
                ), f"cycle {cycle} net {net}"

    def test_plan_has_a_single_executor(self):
        plan = build_plan(
            (1, 1, [[1]], [("draw", (), True)]), np.random.default_rng(3)
        )
        plan(0)  # python interpretation consumes the stream
        with pytest.raises(SimulationError, match="already interpreted"):
            plan.rng_state()


# ------------------------------------- in-kernel extraction + histogram


def _specs(sources, hash_bits):
    """Specs hitting all three extraction dispatch paths.

    Narrow contiguous (popcount histogram), wide contiguous (64x64
    transpose), non-contiguous positions and hashed keys (fused scalar),
    plus multi-segment accumulation.
    """
    specs = []
    narrow = sources[: min(3, len(sources))]
    segments = (
        tuple(
            (cycle, net, position)
            for position, (cycle, net) in enumerate(narrow)
        ),
        tuple(
            (cycle, net, position)
            for position, (cycle, net) in enumerate(reversed(narrow))
        ),
    )
    specs.append(CountSpec(segments, False, 1 << len(narrow)))
    if len(sources) >= 8:
        wide = sources[: min(12, len(sources))]
        specs.append(
            CountSpec(
                (
                    tuple(
                        (cycle, net, position)
                        for position, (cycle, net) in enumerate(wide)
                    ),
                ),
                False,
                1 << len(wide),
            )
        )
        specs.append(
            CountSpec(
                (
                    tuple(
                        (cycle, net, position)
                        for position, (cycle, net) in enumerate(wide)
                    ),
                ),
                True,
                1 << hash_bits,
            )
        )
    if len(sources) >= 2:
        gappy = sources[: min(4, len(sources))]
        positions = [0] + [i + 2 for i in range(1, len(gappy))]
        specs.append(
            CountSpec(
                (
                    tuple(
                        (cycle, net, position)
                        for (cycle, net), position in zip(
                            gappy, positions
                        )
                    ),
                ),
                False,
                1 << (positions[-1] + 1),
            )
        )
    return specs


class TestNumpyExecutor:
    """The evaluators' numpy executors == the independent reference.

    Runs without a C toolchain; the in-kernel tests below add
    ``repro_extract`` as the third executor of the same specs.
    """

    @settings(deadline=None, max_examples=10)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.sampled_from([64, 100, 192]),
    )
    def test_executor_matches_reference_counts(self, data, seed, n_lanes):
        nl, inputs, nets = data.draw(random_circuits())
        record = sorted(set(nets))
        n_cycles = data.draw(st.integers(2, 5))
        record_cycles = list(range(n_cycles))
        hash_bits = 6
        specs = _specs(
            [(cycle, net) for cycle in record_cycles for net in record],
            hash_bits,
        )
        trace = CompiledSimulator(nl, n_lanes, keep_nets=record).run(
            _input_plan(inputs, n_lanes, seed), n_cycles,
            record_nets=record, record_cycles=record_cycles,
        )
        for spec, batched in zip(specs, _batched_counts(trace, specs)):
            expected = _python_counts(trace, n_lanes, spec, hash_bits)
            assert np.array_equal(_executor_counts(trace, spec), expected)
            assert np.array_equal(batched, expected), spec


@needs_pipeline
class TestInKernelExtraction:
    """run_pipeline counts == bincount of the reference keys == the
    numpy executor's counts, on specs from :func:`_specs`."""

    @settings(deadline=None, max_examples=8)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.sampled_from([64, 100, 192]),
    )
    def test_counts_match_python_extraction(self, data, seed, n_lanes):
        from repro.netlist.native import NativeSimulator

        nl, inputs, nets = data.draw(random_circuits())
        record = sorted(set(nets))
        n_cycles = data.draw(st.integers(2, 5))
        record_cycles = list(range(n_cycles))
        hash_bits = 6
        sources = [
            (cycle, net) for cycle in record_cycles for net in record
        ]
        specs = _specs(sources, hash_bits)

        # same program, two executors, one PCG64 stream each
        native_plan = _input_plan(inputs, n_lanes, seed)
        python_plan = _input_plan(inputs, n_lanes, seed)

        sim = NativeSimulator(
            nl, n_lanes, keep_nets=record, record_nets=record
        )
        counts, timings = sim.run_pipeline(
            native_plan, n_cycles, record, record_cycles, specs, hash_bits
        )
        assert set(timings) == {"stimulus", "simulate", "extract"}

        trace = CompiledSimulator(nl, n_lanes, keep_nets=record).run(
            python_plan, n_cycles,
            record_nets=record, record_cycles=record_cycles,
        )
        for spec, table, batched in zip(
            specs, counts, _batched_counts(trace, specs)
        ):
            expected = _python_counts(trace, n_lanes, spec, hash_bits)
            assert np.array_equal(table, expected), spec
            assert np.array_equal(_executor_counts(trace, spec), expected)
            assert np.array_equal(batched, expected), spec
            assert int(table.sum()) == n_lanes * len(spec.segments)

    @settings(deadline=None, max_examples=6)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_scheduled_pipeline_matches_python(self, data, seed):
        from repro.netlist.native import NativeScheduledSimulator
        from repro.netlist.slice import ScheduledSimulator

        nl, inputs, nets = data.draw(random_circuits())
        n_lanes = 64
        roots = sorted({nets[-1], nets[len(nets) // 2]})
        n_cycles = data.draw(st.integers(2, 5))
        record_cycles = list(range(n_cycles))
        hash_bits = 6
        sources = [
            (cycle, net) for cycle in record_cycles for net in roots
        ]
        specs = _specs(sources, hash_bits)

        native_plan = _input_plan(inputs, n_lanes, seed)
        python_plan = _input_plan(inputs, n_lanes, seed)

        sim = NativeScheduledSimulator(
            nl, n_lanes, roots, record_cycles, n_cycles, {}
        )
        counts, _ = sim.run_pipeline(
            native_plan, n_cycles, roots, record_cycles, specs, hash_bits
        )

        trace = ScheduledSimulator(
            nl, n_lanes, roots, record_cycles, n_cycles, {}
        ).run(python_plan, n_cycles, record_nets=roots)
        for spec, table, batched in zip(
            specs, counts, _batched_counts(trace, specs)
        ):
            expected = _python_counts(trace, n_lanes, spec, hash_bits)
            assert np.array_equal(table, expected), spec
            assert np.array_equal(_executor_counts(trace, spec), expected)
            assert np.array_equal(batched, expected), spec

    def test_too_wide_segment_raises_not_garbage(self):
        """Keys beyond 64 bits have no dense table; the kernel reports
        status 5 and the caller degrades to the Python path."""
        from repro.core.kronecker import build_kronecker_delta
        from repro.core.optimizations import RandomnessScheme
        from repro.netlist.native import NativeSimulator

        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        nl = design.dut.netlist
        inputs = list(nl.inputs)
        net = inputs[0]
        spec = CountSpec(
            (tuple((0, net, position) for position in range(65)),),
            False,
            1 << 10,
        )
        plan = _input_plan(inputs, 64, seed=1)
        sim = NativeSimulator(
            nl, 64, keep_nets=[net], record_nets=[net]
        )
        with pytest.raises(SimulationError, match="status 5"):
            sim.run_pipeline(plan, 1, [net], [0], [spec], 10)


# ------------------------------------------------ histogram accumulation


class TestCountTableAccumulation:
    """add_counts folds dense tables exactly like add folds raw keys."""

    @settings(deadline=None, max_examples=60)
    @given(
        keys_fixed=st.lists(st.integers(0, 31), max_size=64),
        keys_random=st.lists(st.integers(0, 31), max_size=64),
        n_bins=st.sampled_from([32, 40]),
    )
    def test_add_counts_equals_add(self, keys_fixed, keys_random, n_bins):
        kf = np.asarray(keys_fixed, dtype=np.uint64)
        kr = np.asarray(keys_random, dtype=np.uint64)
        by_keys = HistogramAccumulator()
        by_keys.add("t", kf, HistogramAccumulator.GROUP_FIXED)
        by_keys.add("t", kr, HistogramAccumulator.GROUP_RANDOM)
        by_counts = HistogramAccumulator()
        by_counts.add_counts(
            "t",
            np.bincount(kf.astype(np.int64), minlength=n_bins),
            HistogramAccumulator.GROUP_FIXED,
        )
        by_counts.add_counts(
            "t",
            np.bincount(kr.astype(np.int64), minlength=n_bins),
            HistogramAccumulator.GROUP_RANDOM,
        )
        assert by_keys.table_ids() == by_counts.table_ids()
        for table_id in by_keys.table_ids():
            for a, b in zip(
                by_keys.counts(table_id), by_counts.counts(table_id)
            ):
                assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=40)
    @given(
        keys_fixed=st.lists(
            st.integers(0, 15), min_size=1, max_size=200
        ),
        keys_random=st.lists(
            st.integers(0, 15), min_size=1, max_size=200
        ),
    )
    def test_counts_batch_equals_keys_batch(self, keys_fixed, keys_random):
        """g_test_counts_batch == g_test_batch on equal tables, bit for
        bit -- the contract the pipeline's verdicts rest on."""
        kf = np.asarray(keys_fixed, dtype=np.uint64)
        kr = np.asarray(keys_random, dtype=np.uint64)
        from_keys = g_test_batch([(kf, kr)])
        from_counts = g_test_counts_batch([
            (
                np.bincount(kf.astype(np.int64), minlength=16),
                np.bincount(kr.astype(np.int64), minlength=16),
            )
        ])
        for a, b in zip(from_keys, from_counts):
            assert a.g_statistic == b.g_statistic
            assert a.dof == b.dof
            assert a.mlog10p == b.mlog10p
            assert a.n_categories == b.n_categories
            assert a.n_fixed == b.n_fixed
            assert a.n_random == b.n_random

    def test_counts_batch_empty_table_is_untestable(self):
        (result,) = g_test_counts_batch(
            [(np.zeros(8, np.int64), np.zeros(8, np.int64))]
        )
        assert result.dof == 0
        assert result.mlog10p == 0.0


# --------------------------------------------- end-to-end through blocks


@needs_pipeline
class TestEvaluatorPipelineIdentity:
    def test_first_order_report_identical_and_pipeline_engaged(
        self, kronecker_eq6
    ):
        compiled = LeakageEvaluator(
            kronecker_eq6.dut, seed=11, engine="compiled"
        ).evaluate(fixed_secret=0, n_simulations=6000)
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=11, engine="native"
        )
        native = evaluator.evaluate(fixed_secret=0, n_simulations=6000)
        _assert_identical_reports(compiled, native)
        assert evaluator._pipeline_ready(specs=(), record_nets=())
        assert not any(
            d["kind"] == "pipeline_python" for d in evaluator.degradations
        )
        # only the in-kernel stimulus stage can book stimulus time
        assert evaluator.stage_seconds["stimulus"] > 0.0

    def test_campaign_resume_across_chunk_boundary(
        self, kronecker_eq6, tmp_path
    ):
        """Kill-and-resume with the pipeline active: two blocks run,
        checkpoint, a fresh campaign resumes with a different chunking
        -- the verdict matches a single-pass compiled evaluation bit
        for bit."""
        from repro.leakage.campaign import CampaignConfig, EvaluationCampaign

        n_sims = 20_000
        path = str(tmp_path / "ck.npz")

        def native_evaluator():
            return LeakageEvaluator(
                kronecker_eq6.dut, ProbingModel.GLITCH, seed=7,
                engine="native",
            )

        first = EvaluationCampaign(
            native_evaluator(),
            CampaignConfig(
                n_simulations=n_sims, chunk_size=4_096, checkpoint=path
            ),
        )
        first.progress.blocks_total = first._blocks_total()
        first._run_chunk_with_retry(0, 2)
        first.progress.blocks_done = 2
        first._save_checkpoint(path, 2)

        resumed = EvaluationCampaign(
            native_evaluator(),
            CampaignConfig(
                n_simulations=n_sims, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert report.status == "complete"
        for campaign in (first, resumed):
            assert not any(
                d["kind"] == "pipeline_python"
                for d in campaign.evaluator.degradations
            )

        single = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=7,
            engine="compiled",
        ).evaluate(n_simulations=n_sims)
        _assert_identical_reports(single, report)


@pytest.fixture(scope="module")
def aes_core_setup():
    """A masked AES core plus a bounded probe set for fast identity runs."""
    from repro.core.aes_core import AesCoreHarness, build_masked_aes_core
    from repro.core.optimizations import RandomnessScheme

    core = build_masked_aes_core(RandomnessScheme.DEMEYER_EQ6)
    harness = AesCoreHarness(core)
    probes = [
        c.output for c in core.netlist.cells if c.name.startswith("sb0.")
    ][:64]
    return core, harness, probes


_AES_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def _periodic_report(core, harness, probes, engine, scheduled, n_lanes=512):
    from repro.core.aes_core import ENCRYPTION_CYCLES
    from repro.leakage.periodic import PeriodicLeakageEvaluator

    evaluator = PeriodicLeakageEvaluator(
        core.netlist,
        ENCRYPTION_CYCLES,
        ProbingModel.GLITCH,
        probe_nets=probes,
        slice_cones=True,
        control_schedule=(
            harness.control_net_schedule() if scheduled else None
        ),
        engine=engine,
    )
    n_words = (n_lanes + 63) // 64
    stim_fixed = harness.bitsliced_stimulus(
        np.random.default_rng(11), n_words, _AES_KEY, _AES_KEY
    )
    stim_random = harness.bitsliced_stimulus(
        np.random.default_rng(12), n_words, _AES_KEY, None
    )
    report = evaluator.evaluate(
        stim_fixed, stim_random, n_lanes,
        phases=[3], n_periods=1, design_name="aes_core_eq6",
    )
    return evaluator, report


@needs_pipeline
class TestPeriodicPipelineIdentity:
    def test_static_cone_report_identical(self, aes_core_setup):
        core, harness, probes = aes_core_setup
        _, compiled = _periodic_report(
            core, harness, probes, "compiled", scheduled=False
        )
        evaluator, native = _periodic_report(
            core, harness, probes, "native", scheduled=False
        )
        _assert_identical_reports(compiled, native)
        assert evaluator.last_slice_info.get("pipeline") is True
        assert not evaluator.degradations
        assert evaluator.stage_seconds["stimulus"] > 0.0

    def test_scheduled_cone_report_identical(self, aes_core_setup):
        core, harness, probes = aes_core_setup
        _, reference = _periodic_report(
            core, harness, probes, "compiled", scheduled=True
        )
        evaluator, native = _periodic_report(
            core, harness, probes, "native", scheduled=True
        )
        _assert_identical_reports(reference, native)
        assert evaluator.last_slice_info["engine"] == "native"
        assert evaluator.last_slice_info.get("pipeline") is True
        assert not evaluator.degradations


class TestPipelineDegradation:
    def test_pipeline_unsupported_when_native_disabled(
        self, kronecker_eq6, monkeypatch
    ):
        """No toolchain: engine=native degrades to compiled before any
        pipeline attempt, and the verdict is unchanged."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert not pipeline_available()
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=11, engine="native"
        )
        assert not evaluator._pipeline_ready(specs=(), record_nets=())
        with pytest.warns(RuntimeWarning, match="native"):
            degraded = evaluator.evaluate(fixed_secret=0, n_simulations=6000)
        assert evaluator.stage_seconds["stimulus"] == 0.0
        compiled = LeakageEvaluator(
            kronecker_eq6.dut, seed=11, engine="compiled"
        ).evaluate(fixed_secret=0, n_simulations=6000)
        _assert_identical_reports(compiled, degraded)

    def test_scheduled_periodic_degrades_bit_identically(
        self, aes_core_setup, monkeypatch
    ):
        """Scheduled periodic run under engine=native with no toolchain:
        the ladder records and warns about an engine_compiled
        degradation and the compiled scheduled cone produces the
        identical report -- the no-toolchain CI leg."""
        core, harness, probes = aes_core_setup
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with pytest.warns(RuntimeWarning, match="native"):
            evaluator, degraded = _periodic_report(
                core, harness, probes, "native", scheduled=True
            )
        kinds = [d["kind"] for d in evaluator.degradations]
        assert kinds == ["engine_compiled"]
        assert evaluator.last_slice_info["mode"] == "scheduled"
        assert evaluator.last_slice_info["engine"] == "compiled"
        assert evaluator.last_slice_info.get("pipeline") is None
        _, reference = _periodic_report(
            core, harness, probes, "compiled", scheduled=True
        )
        _assert_identical_reports(reference, degraded)

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_periodic_report_carries_degradations(
        self, aes_core_setup, monkeypatch, scheduled
    ):
        """The fall-back a periodic run took is its report's provenance:
        present in ``to_dict(provenance=True)`` and the summary, absent
        from the default JSON bytes."""
        core, harness, probes = aes_core_setup
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        kind = "engine_compiled"
        with pytest.warns(RuntimeWarning, match="native"):
            evaluator, degraded = _periodic_report(
                core, harness, probes, "native", scheduled=scheduled
            )
        assert kind in [d["kind"] for d in degraded.degradations]
        assert degraded.degradations == evaluator.degradations
        assert (
            degraded.to_dict(provenance=True)["degradations"]
            == evaluator.degradations
        )
        assert f"degraded:     {kind} -- " in degraded.format_summary()
        _, reference = _periodic_report(
            core, harness, probes, "compiled", scheduled=scheduled
        )
        assert reference.degradations == []
        assert degraded.to_json(top=None) == reference.to_json(top=None)


def _fail_call(monkeypatch, simulator_class, failing):
    """Make the ``failing``-th ``run_pipeline`` call of a class raise."""
    original = simulator_class.run_pipeline
    calls = []

    def run_pipeline(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == failing:
            raise SimulationError("injected pipeline failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(simulator_class, "run_pipeline", run_pipeline)


def _pipeline_failures(report):
    return [d["kind"] for d in report.degradations].count("pipeline_python")


@needs_pipeline
class TestPipelineFailure:
    """A ``run_pipeline`` failure on either group of a block reruns the
    whole block in numpy: the undisturbed report bytes plus one
    pipeline_python record, never a group counted twice."""

    @pytest.mark.parametrize("failing", [1, 2])
    def test_campaign(self, kronecker_eq6, monkeypatch, failing):
        from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
        from repro.netlist.native import NativeSimulator

        def report():
            return EvaluationCampaign(
                LeakageEvaluator(kronecker_eq6.dut, seed=11, engine="native"),
                CampaignConfig(n_simulations=16_384, chunk_size=8_192),
            ).run()

        reference = report()
        _fail_call(monkeypatch, NativeSimulator, failing)
        degraded = report()
        assert degraded.to_json(top=None) == reference.to_json(top=None)
        assert _pipeline_failures(degraded) == 1

    @pytest.mark.parametrize("failing", [1, 2])
    def test_evaluate(self, kronecker_eq6, monkeypatch, failing):
        from repro.netlist.native import NativeSimulator

        def report():
            return LeakageEvaluator(
                kronecker_eq6.dut, seed=11, engine="native"
            ).evaluate(n_simulations=8_192)

        reference = report()
        _fail_call(monkeypatch, NativeSimulator, failing)
        degraded = report()
        assert degraded.to_json(top=None) == reference.to_json(top=None)
        assert _pipeline_failures(degraded) == 1

    @pytest.mark.parametrize("failing", [1, 2])
    @pytest.mark.parametrize("scheduled", [False, True])
    def test_periodic(self, aes_core_setup, monkeypatch, scheduled, failing):
        from repro.netlist.native import (
            NativeScheduledSimulator,
            NativeSimulator,
        )

        core, harness, probes = aes_core_setup
        _, reference = _periodic_report(
            core, harness, probes, "native", scheduled
        )
        _fail_call(
            monkeypatch,
            NativeScheduledSimulator if scheduled else NativeSimulator,
            failing,
        )
        evaluator, degraded = _periodic_report(
            core, harness, probes, "native", scheduled
        )
        assert degraded.to_json(top=None) == reference.to_json(top=None)
        assert _pipeline_failures(degraded) == 1
        assert evaluator.last_slice_info.get("pipeline") is None
