"""The engine registry: the single path every component selects engines by.

Covers registry semantics (lookup, ordering, capability records, the
degradation ladder), the ladder-walking ``build_simulator`` constructor
with chaos-plane fault injection, toolchain-absent degradation telemetry
through the evaluator, the native kernel cache, record-set lazy rebuild,
and the dense pre-staged stimulus contract.
"""

import warnings

import numpy as np
import pytest

from repro import engines as engine_registry
from repro.engines import (
    DEFAULT_ENGINE,
    EngineError,
    EngineInfo,
    build_simulator,
    degradation_ladder,
    engine_names,
    engines_info,
    get_engine,
)
from repro.netlist.builder import CircuitBuilder
from repro.netlist.native import (
    NativeScheduledSimulator,
    NativeSimulator,
    clear_native_kernel_cache,
    native_available,
    native_kernel_cache_info,
    native_unavailable_reason,
    pipeline_available,
)
from repro.netlist.simulate import SimulationError, pack_lanes
from repro.netlist.slice import ControlSchedule, ScheduledSimulator

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain for the native engine"
)


def _toy_netlist():
    """in0/in1 -> xor -> reg -> out, plus an unregistered AND tap."""
    builder = CircuitBuilder("toy")
    a = builder.input("a")
    b = builder.input("b")
    x = builder.xor(a, b, name="x")
    t = builder.and_(a, x, name="tap")
    r = builder.reg(x, "r")
    builder.output(r, "out")
    return builder.build(), (a, b), {"x": x, "tap": t, "r": r}


def _stimulus(inputs, seed=0):
    rng = np.random.default_rng(seed)
    frames = [
        {net: np.array([rng.integers(0, 2 ** 63)], dtype=np.uint64)
         for net in inputs}
        for _ in range(4)
    ]
    return lambda cycle: frames[cycle]


class TestRegistrySemantics:
    def test_registered_names_in_ladder_order(self):
        assert engine_names() == ("bitsliced", "compiled", "native")

    def test_default_engine_is_registered_and_toolchain_free(self):
        info = get_engine(DEFAULT_ENGINE)
        assert not info.native

    def test_unknown_engine_raises_with_catalogue(self):
        with pytest.raises(EngineError, match="registered engines"):
            get_engine("verilated")

    def test_degradation_ladder_bottoms_out_at_bitsliced(self):
        names = [info.name for info in degradation_ladder("native")]
        assert names == ["native", "compiled", "bitsliced"]
        assert [i.name for i in degradation_ladder("bitsliced")] == [
            "bitsliced"
        ]

    def test_capability_records_are_json_friendly(self):
        info = engines_info()
        assert set(info) == set(engine_names())
        assert info["native"]["native"] is True
        assert info["native"]["degrades_to"] == "compiled"
        assert info["compiled"]["schedulable"] is True
        assert info["bitsliced"]["degrades_to"] is None
        for record in info.values():
            assert isinstance(record["description"], str)

    def test_registration_rejects_invalid_names(self):
        with pytest.raises(EngineError):
            engine_registry.register_engine(
                EngineInfo(name="not a name", factory=object, description="")
            )

    def test_degradation_cycle_detected(self):
        engine_registry.register_engine(
            EngineInfo(
                name="loop_a", factory=object, description="",
                degrades_to="loop_b",
            )
        )
        engine_registry.register_engine(
            EngineInfo(
                name="loop_b", factory=object, description="",
                degrades_to="loop_a",
            )
        )
        try:
            with pytest.raises(EngineError, match="cycle"):
                degradation_ladder("loop_a")
        finally:
            engine_registry._REGISTRY.pop("loop_a", None)
            engine_registry._REGISTRY.pop("loop_b", None)


class TestBuildSimulator:
    def test_builds_requested_engine(self):
        netlist, inputs, nets = _toy_netlist()
        sim, info = build_simulator("compiled", netlist, 64)
        assert info.name == "compiled"
        trace = sim.run(_stimulus(inputs), 4, record_nets=[nets["r"]])
        assert len(trace.values) == 4

    def test_chaos_fault_walks_the_ladder(self):
        netlist, inputs, nets = _toy_netlist()
        seen = []

        def on_degrade(from_info, to_info, exc):
            seen.append((from_info.name, to_info.name, str(exc)))

        sim, info = build_simulator(
            "compiled", netlist, 64,
            decide=lambda site: site == "engine.compile",
            on_degrade=on_degrade,
        )
        assert info.name == "bitsliced"
        assert seen == [
            ("compiled", "bitsliced", "chaos: injected engine.compile fault")
        ]

    def test_chaos_everywhere_still_lands_on_bitsliced(self):
        # The last-resort engine has no chaos site and no fallback: a
        # fault plane that fails every injectable site still evaluates.
        netlist, _, _ = _toy_netlist()
        sim, info = build_simulator(
            "native", netlist, 64, decide=lambda site: True
        )
        assert info.name == "bitsliced"

    def test_exhausted_ladder_raises_last_error(self):
        def broken(netlist, n_lanes, keep_nets=None):
            raise SimulationError("toolchain exploded")

        engine_registry.register_engine(
            EngineInfo(name="flaky", factory=broken, description="test")
        )
        try:
            netlist, _, _ = _toy_netlist()
            with pytest.raises(SimulationError, match="toolchain exploded"):
                build_simulator("flaky", netlist, 64)
        finally:
            engine_registry._REGISTRY.pop("flaky", None)

    def test_ladder_engines_are_bit_identical(self):
        netlist, inputs, nets = _toy_netlist()
        record = sorted(nets.values())
        words = []
        for name in engine_names():
            if name == "native" and not native_available():
                continue
            sim, info = build_simulator(name, netlist, 64)
            assert info.name == name
            trace = sim.run(_stimulus(inputs), 4, record_nets=record)
            words.append(
                [
                    [cycle[net].tobytes() for net in record]
                    for cycle in trace.values
                ]
            )
        assert all(w == words[0] for w in words[1:])


def _scheduled_toy():
    """The toy netlist with input ``a`` on a public per-cycle schedule,
    plus a stimulus holding ``a`` at it on every lane."""
    netlist, (a, b), nets = _toy_netlist()
    schedule = ControlSchedule({a: [1, 0, 1, 0]}, 4, (1, 3))
    rng = np.random.default_rng(7)
    frames = [
        {
            a: np.full(1, ~np.uint64(0) if bit else np.uint64(0)),
            b: rng.integers(0, 2 ** 63, size=1, dtype=np.uint64),
        }
        for bit in schedule.values[a]
    ]
    return netlist, nets, schedule, lambda cycle: frames[cycle]


class TestScheduledRungs:
    """Given a control schedule, every rung builds its scheduled cone."""

    @pytest.mark.skipif(
        not pipeline_available(), reason="no native pipeline kernel"
    )
    def test_native_builds_the_native_scheduled_simulator(self):
        netlist, nets, schedule, _ = _scheduled_toy()
        sim, info = build_simulator(
            "native", netlist, 64, keep_nets=[nets["r"]], schedule=schedule
        )
        assert info.name == "native"
        assert isinstance(sim, NativeScheduledSimulator)

    @pytest.mark.parametrize("cause", ["disabled", "fault"])
    def test_native_degrades_to_the_compiled_scheduled_cone(
        self, monkeypatch, cause
    ):
        if cause == "disabled":
            monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        netlist, nets, schedule, stimulus = _scheduled_toy()
        owner = engine_registry.EngineOwner()
        owner._init_engine("native")
        with pytest.warns(RuntimeWarning, match="native"):
            sim, info = build_simulator(
                "native", netlist, 64, keep_nets=[nets["r"]],
                schedule=schedule,
                decide=(
                    (lambda site: site == "engine.native_build")
                    if cause == "fault" else None
                ),
                on_degrade=owner._on_degrade,
            )
        assert info.name == "compiled"
        assert isinstance(sim, ScheduledSimulator)
        assert [d["kind"] for d in owner.degradations] == ["engine_compiled"]
        direct = ScheduledSimulator(
            netlist, 64, [nets["r"]], schedule.record_cycles,
            schedule.n_cycles, schedule.values,
        )
        traces = [
            simulator.run(
                stimulus, 4, record_nets=[nets["r"]],
                record_cycles=schedule.record_cycles,
            )
            for simulator in (sim, direct)
        ]
        for cycle in schedule.record_cycles:
            assert np.array_equal(
                traces[0].words(cycle, nets["r"]),
                traces[1].words(cycle, nets["r"]),
            )

    def test_bitsliced_simulates_the_static_cone_identically(self):
        """Bitsliced is not schedulable: it runs the static cone, and a
        scheduled periodic evaluation reports the same bytes."""
        from repro.leakage.periodic import PeriodicLeakageEvaluator

        netlist, (a, b), nets = _toy_netlist()
        rng = np.random.default_rng(3)
        frames = [
            {
                a: np.full(4, ~np.uint64(0) * (cycle % 4 == 0)),
                b: rng.integers(0, 2 ** 63, size=4, dtype=np.uint64),
            }
            for cycle in range(16)
        ]

        def evaluate(engine):
            evaluator = PeriodicLeakageEvaluator(
                netlist, 4, probe_nets=list(nets.values()),
                control_schedule={a: [1, 0, 0, 0]}, engine=engine,
            )
            report = evaluator.evaluate(
                lambda cycle: frames[cycle],
                lambda cycle: frames[cycle + 8],
                256, phases=[1, 2], n_periods=1,
            )
            return evaluator.last_slice_info["mode"], report.to_json(top=None)

        (static, bitsliced), (scheduled, compiled) = (
            evaluate("bitsliced"), evaluate("compiled")
        )
        assert (static, scheduled) == ("static", "scheduled")
        assert bitsliced == compiled


class TestToolchainAbsentDegradation:
    def test_native_degrades_to_compiled_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert native_unavailable_reason() is not None
        netlist, _, _ = _toy_netlist()
        seen = []
        sim, info = build_simulator(
            "native", netlist, 64,
            on_degrade=lambda f, t, e: seen.append((f.name, t.name)),
        )
        assert info.name == "compiled"
        assert seen == [("native", "compiled")]

    def test_evaluator_records_degradation_and_warns(self, monkeypatch):
        from repro.core.kronecker import build_kronecker_delta
        from repro.core.optimizations import RandomnessScheme
        from repro.leakage.evaluator import LeakageEvaluator

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        evaluator = LeakageEvaluator(design.dut, seed=5, engine="native")
        with pytest.warns(RuntimeWarning, match="native"):
            report = evaluator.evaluate(fixed_secret=0, n_simulations=640)
        assert report.results
        # Permanent degradation, recorded once in provenance.
        assert evaluator.engine == "compiled"
        kinds = [d["kind"] for d in evaluator.degradations]
        assert kinds == ["engine_compiled"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluator.evaluate(fixed_secret=0, n_simulations=640)
        assert [d["kind"] for d in evaluator.degradations] == [
            "engine_compiled"
        ]


class TestSpecIntegration:
    def test_spec_rejects_unknown_engine(self):
        from repro.errors import SpecError
        from repro.spec import EvaluationSpec

        spec = EvaluationSpec(
            design="kronecker", scheme="eq6", engine="verilated"
        )
        with pytest.raises(SpecError, match="engine"):
            spec.validate()

    def test_engine_is_an_execution_field_outside_the_cache_key(self):
        from repro.spec import EXECUTION_FIELDS, EvaluationSpec

        assert "engine" in EXECUTION_FIELDS
        a = EvaluationSpec(design="kronecker", scheme="eq6", engine="native")
        b = EvaluationSpec(
            design="kronecker", scheme="eq6", engine="bitsliced"
        )
        assert a.cache_key("feed") == b.cache_key("feed")


@needs_native
class TestNativeKernelLifecycle:
    def test_kernel_cache_grows_and_clears(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        netlist, inputs, nets = _toy_netlist()
        clear_native_kernel_cache()
        assert native_kernel_cache_info().entries == 0
        NativeSimulator(netlist, 64)
        info = native_kernel_cache_info()
        assert info.entries >= 1
        assert info.builds >= 1
        # The on-disk artifacts land in the configured cache directory.
        assert any(tmp_path.iterdir())
        clear_native_kernel_cache()
        assert native_kernel_cache_info().entries == 0
        # Rebuild after clearing still works (recompiles from source).
        sim = NativeSimulator(netlist, 64)
        trace = sim.run(_stimulus(inputs), 4, record_nets=[nets["r"]])
        assert len(trace.values) == 4

    def test_record_set_outside_pins_triggers_lazy_rebuild(self):
        from repro.netlist.compile import CompiledSimulator

        netlist, inputs, nets = _toy_netlist()
        record = [nets["tap"], nets["x"]]
        native = NativeSimulator(netlist, 64)
        reference = CompiledSimulator(netlist, 64).run(
            _stimulus(inputs), 4, record_nets=record
        )
        # ``tap`` is a dead combinational net the liveness plan may have
        # recycled; recording it must rebuild with a grown pin set, not
        # return stale words.
        trace = native.run(_stimulus(inputs), 4, record_nets=record)
        for cycle in range(4):
            for net in record:
                assert np.array_equal(
                    trace.words(cycle, net), reference.words(cycle, net)
                )

    def test_dense_stimulus_shape_is_validated(self):
        netlist, inputs, nets = _toy_netlist()
        sim = NativeSimulator(netlist, 64)
        dense = sim.expand_stimulus(_stimulus(inputs), 4)
        assert dense.shape == (4, len(sim.input_nets), 1)
        with pytest.raises(SimulationError, match="dense stimulus"):
            sim.run(dense[:3], 4, record_nets=[nets["r"]])
        with pytest.raises(SimulationError, match="dense stimulus"):
            sim.run(
                dense.astype(np.int64), 4, record_nets=[nets["r"]]
            )

    def test_input_nets_order_matches_dense_rows(self):
        netlist, inputs, nets = _toy_netlist()
        sim = NativeSimulator(netlist, 64)
        assert set(sim.input_nets) == set(inputs)
        lane_a = pack_lanes(np.array([1], dtype=np.uint8))
        frames = {
            inputs[0]: lane_a,
            inputs[1]: np.zeros(1, dtype=np.uint64),
        }
        dense = sim.expand_stimulus(lambda c: frames, 1)
        row = sim.input_nets.index(inputs[0])
        assert dense[0, row, 0] == lane_a[0]
