"""Cone-sliced simulation (:mod:`repro.netlist.slice`).

The whole feature rests on one invariant: simulating only the sequential
fan-in cone of the probed nets is **bit-identical** to simulating the full
netlist, for every net inside the cone, on every engine.  These tests pin
that invariant with random netlists and random probe subsets, pin the slice
plumbing (net-index remap, dead-net rejection, shared bounded cache), and
pin the campaign-level behaviour: sliced and unsliced campaigns accumulate
byte-identical tables, and an adaptive campaign killed and resumed across a
re-slice boundary finishes with the same tables as an uninterrupted run.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError, SimulationError
from repro.leakage.adaptive import AdaptiveConfig
from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.model import ProbingModel
from repro.leakage.traces import constant_words
from repro.netlist.builder import CircuitBuilder
from repro.netlist.cells import CellType
from repro.netlist.compile import (
    CompiledSimulator,
    clear_program_cache,
    compile_netlist,
    program_cache_info,
)
from repro.netlist.simulate import BitslicedSimulator
from repro.netlist.slice import (
    ScheduledSimulator,
    clear_cone_memo,
    scheduled_cone,
    sequential_cone,
    slice_key,
    slice_program,
    slice_stats,
)
from repro.service.runner import build_design

from tests.strategies import random_circuits


def _pipeline():
    """Two-stage pipeline plus a side branch outside the probe's cone.

    Returns (netlist, probe_net, cone_nets, dead_net): probing ``r2``
    requires crossing two registers back to the inputs, while the OR branch
    feeds only the unprobed output.
    """
    b = CircuitBuilder("pipe")
    a = b.input("a")
    c = b.input("b")
    d = b.input("c")
    x = b.xor(a, c)
    r1 = b.reg(x, "r1")
    y = b.and_(r1, d)
    r2 = b.reg(y, "r2")
    dead = b.or_(d, c)
    b.output(dead, "dead")
    b.output(r2, "out")
    cone = {a, c, d, x, r1, y, r2}
    return b.build(), r2, cone, dead


def _random_stimulus(netlist, n_words, seed):
    rng = np.random.default_rng(seed)
    inputs = list(netlist.inputs)

    def stimulus(cycle):
        return {
            pi: rng.integers(0, 2**63, size=n_words, dtype=np.uint64)
            for pi in inputs
        }

    return stimulus


class TestSequentialCone:
    def test_crosses_registers_and_drops_side_logic(self):
        nl, probe, cone, dead = _pipeline()
        result = sequential_cone(nl, [probe])
        assert result == frozenset(cone)
        assert dead not in result

    def test_closed_under_fanin(self):
        nl, _, _, _ = _pipeline()
        cone = sequential_cone(nl, [nl.outputs[-1]])
        for net in cone:
            driver = nl.driver(net)
            if driver is not None:
                assert set(driver.inputs) <= cone

    def test_out_of_range_rejected(self):
        nl, _, _, _ = _pipeline()
        with pytest.raises(NetlistError):
            sequential_cone(nl, [nl.n_nets])
        with pytest.raises(NetlistError):
            sequential_cone(nl, [-1])

    def test_memoized(self):
        clear_cone_memo()
        nl, probe, _, _ = _pipeline()
        first = sequential_cone(nl, [probe])
        assert sequential_cone(nl, [probe]) is first

    def test_slice_key_is_cone_identity(self):
        nl, probe, cone, dead = _pipeline()
        inner = next(iter(cone - set(nl.inputs) - {probe}))
        # Adding a net already inside the cone does not change the slice.
        assert slice_key(nl, [probe]) == slice_key(nl, [probe, inner])
        assert slice_key(nl, [probe]) != slice_key(nl, [probe, dead])


class TestSliceProgram:
    def test_dead_rows_compacted_and_rejected(self):
        nl, probe, cone, dead = _pipeline()
        full = compile_netlist(nl)
        sliced = slice_program(nl, [probe])
        assert sliced.is_sliced and not full.is_sliced
        assert sliced.n_state_rows == len(cone) < full.n_state_rows
        assert sliced.is_live(probe) and not sliced.is_live(dead)
        with pytest.raises(SimulationError):
            sliced.state_row(dead)

    def test_stats_ratios(self):
        nl, probe, cone, dead = _pipeline()
        stats = slice_stats(nl, [probe])
        assert stats.n_cells < stats.n_cells_full
        assert stats.cell_ratio > 1.0
        payload = stats.to_dict()
        assert payload["state"] == len(cone)
        assert payload["dffs"] == 2

    def test_slice_shares_bounded_cache(self):
        clear_program_cache()
        clear_cone_memo()
        nl, probe, _, _ = _pipeline()
        first = slice_program(nl, [probe])
        assert slice_program(nl, [probe]) is first
        assert first.content_hash == slice_key(nl, [probe])
        info = program_cache_info()
        assert info.entries == 2  # full program + its slice
        assert info.hits >= 1

    @pytest.mark.parametrize("engine", [CompiledSimulator, BitslicedSimulator])
    def test_recording_outside_slice_raises(self, engine):
        nl, probe, _, dead = _pipeline()
        sim = engine(nl, 64, keep_nets=[probe])
        with pytest.raises(SimulationError):
            sim.run(_random_stimulus(nl, 1, 0), 3, record_nets=[dead])

    @pytest.mark.parametrize("engine", [CompiledSimulator, BitslicedSimulator])
    def test_trace_keeps_original_net_ids(self, engine):
        nl, probe, cone, _ = _pipeline()
        stimulus = _random_stimulus(nl, 1, 1)
        trace = engine(nl, 64, keep_nets=[probe]).run(stimulus, 4)
        stable_cone = sorted(set(nl.stable_nets()) & cone)
        assert sorted(trace.recorded_nets) == stable_cone


class TestProgramCacheBounds:
    def test_capacity_evicts_and_counts(self, monkeypatch):
        from repro.netlist import compile as compile_mod

        clear_program_cache()
        monkeypatch.setattr(compile_mod._PROGRAM_CACHE, "capacity", 2)
        try:
            def chain(n):
                b = CircuitBuilder("t")
                net = b.input("x")
                for _ in range(n):
                    net = b.not_(net)
                b.output(net, "out")
                return b.build()

            for n in (1, 2, 3):
                compile_netlist(chain(n))
            info = program_cache_info()
            assert info.capacity == 2
            assert info.entries == 2
            assert info.misses == 3
            assert info.evictions == 1
            compile_netlist(chain(3))
            assert program_cache_info().hits == 1
        finally:
            clear_program_cache()


class TestSlicedBitIdentity:
    """Sliced == full, property-tested over random netlists and probes."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_random_netlists_random_probe_subsets(self, data):
        nl, inputs, nets = data.draw(random_circuits())
        n_probes = data.draw(st.integers(1, min(4, len(nets))))
        probes = sorted(
            set(
                data.draw(st.sampled_from(nets))
                for _ in range(n_probes)
            )
        )
        cone = sequential_cone(nl, probes)
        stimulus = _random_stimulus(nl, 2, data.draw(st.integers(0, 2**16)))
        cycles = [stimulus(c) for c in range(4)]
        replay = lambda c: cycles[c]

        full = CompiledSimulator(nl, 128).run(replay, 4, record_nets=probes)
        for engine in (CompiledSimulator, BitslicedSimulator):
            sliced = engine(nl, 128, keep_nets=probes).run(
                replay, 4, record_nets=probes
            )
            for cycle in range(4):
                for net in probes:
                    assert np.array_equal(
                        sliced.words(cycle, net), full.words(cycle, net)
                    ), (engine.__name__, cycle, nl.net_name(net))
                assert net in cone


@pytest.fixture(scope="module")
def kronecker_eq6():
    return build_design("kronecker", "eq6").dut


def _tables(acc):
    return {tid: acc.counts(tid) for tid in acc.table_ids()}


def _assert_tables_equal(a, b):
    assert a.keys() == b.keys()
    for tid in a:
        for x, y in zip(a[tid], b[tid]):
            assert np.array_equal(x, y), tid


class TestEvaluatorSliceIdentity:
    @pytest.mark.parametrize("engine", ["compiled", "bitsliced"])
    def test_accumulated_tables_identical(self, kronecker_eq6, engine):
        results = []
        for sliced in (True, False):
            ev = LeakageEvaluator(
                kronecker_eq6, ProbingModel.GLITCH, seed=11,
                engine=engine, slice_cones=sliced,
            )
            acc = HistogramAccumulator()
            ev.accumulate(acc, 0, 256, 2)
            results.append(_tables(acc))
        _assert_tables_equal(*results)

    def test_pairs_identical(self, kronecker_eq6):
        results = []
        for sliced in (True, False):
            ev = LeakageEvaluator(
                kronecker_eq6, seed=11, slice_cones=sliced
            )
            pairs = ev.select_pairs(5, 1)
            acc = HistogramAccumulator()
            ev.accumulate(
                acc, 0, 256, 1, classes=(), pairs=pairs, pair_offsets=(0, 1)
            )
            results.append(_tables(acc))
        _assert_tables_equal(*results)

    def test_empty_selection_skips_simulation(self, kronecker_eq6):
        ev = LeakageEvaluator(kronecker_eq6, seed=11, slice_cones=True)
        acc = HistogramAccumulator()
        ev.accumulate(acc, 0, 256, 1, classes=())
        assert acc.table_ids() == []

    def test_slice_info_reports_identity_and_stats(self, kronecker_eq6):
        ev = LeakageEvaluator(kronecker_eq6, seed=11)
        info = ev.slice_info()
        assert info["key"].split(":")[1] == "slice"
        assert info["stats"]["cell_ratio"] >= 1.0
        subset = ev.slice_info(class_indices=[0])
        assert subset["stats"]["cells"] <= info["stats"]["cells"]
        assert LeakageEvaluator(
            kronecker_eq6, seed=11, slice_cones=False
        ).slice_info() is None


class TestCampaignSliceIdentity:
    def _run(self, dut, sliced, hook=None, **cfg):
        ev = LeakageEvaluator(dut, seed=9, slice_cones=sliced)
        cfg.setdefault("n_simulations", 16_384)
        cfg.setdefault("chunk_size", 4_096)
        campaign = EvaluationCampaign(ev, CampaignConfig(**cfg), hook=hook)
        report = campaign.run()
        return campaign, report

    def test_sliced_campaign_bit_identical(self, kronecker_eq6):
        events = []
        sliced_c, sliced_r = self._run(
            kronecker_eq6, True, hook=lambda e, p: events.append((e, p))
        )
        full_c, full_r = self._run(kronecker_eq6, False)
        _assert_tables_equal(
            _tables(sliced_c.accumulator), _tables(full_c.accumulator)
        )
        assert sliced_r.to_dict() == full_r.to_dict()
        sliced_events = [p for e, p in events if e == "program_sliced"]
        assert len(sliced_events) == 1  # static selection: one slice only
        assert sliced_events[0]["resliced"] is False
        assert sliced_events[0]["cell_ratio"] >= 1.0

    def test_fingerprint_carries_slice_flag(self, kronecker_eq6):
        config = CampaignConfig(n_simulations=4_096)
        on = EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6, slice_cones=True), config
        )
        off = EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6, slice_cones=False), config
        )
        assert on.fingerprint()["slice"] is True
        assert "slice" not in off.fingerprint()

    def test_adaptive_reslices_and_resumes_across_boundary(
        self, kronecker_eq6, tmp_path
    ):
        """Kill right after the first adaptive re-slice, resume, compare."""
        checkpoint = str(tmp_path / "slice.npz")
        # Nulls decide (and are pruned) after one chunk while the strongly
        # leaking g7 probes stay undecided behind the high bar -- the union
        # support cone then shrinks to the g7 region, forcing a re-slice at
        # the second chunk boundary.
        adaptive = AdaptiveConfig(
            decide_threshold=50.0, decide_chunks=1, min_null_samples=1
        )

        def make(hook=None, should_stop=None, sliced=True):
            ev = LeakageEvaluator(kronecker_eq6, seed=9, slice_cones=sliced)
            config = CampaignConfig(
                n_simulations=16_384,
                chunk_size=2_048,
                checkpoint=checkpoint if sliced else None,
                adaptive=adaptive,
            )
            return EvaluationCampaign(
                ev, config, hook=hook, should_stop=should_stop
            )

        events = []

        def hook(event, payload):
            events.append((event, payload))

        def stop_after_reslice():
            return any(
                e == "program_sliced" and p["resliced"] for e, p in events
            )

        first = make(hook=hook, should_stop=stop_after_reslice)
        interrupted = first.run()
        reslices = [
            p for e, p in events if e == "program_sliced" and p["resliced"]
        ]
        assert reslices, "adaptive pruning never shrank the cone"
        assert interrupted.status == "truncated:cancelled"

        resumed = make().run(resume=True)
        assert resumed.status == "complete"

        # Reference: the same adaptive campaign, uninterrupted, unsliced.
        ref_campaign = make(sliced=False)
        reference = ref_campaign.run()
        final = make()
        final_report = final.run(resume=True)  # fully-done checkpoint
        _assert_tables_equal(
            _tables(final.accumulator), _tables(ref_campaign.accumulator)
        )
        assert resumed.to_dict() == reference.to_dict()
        assert final_report.status == "complete"

    def test_checkpoint_slice_mismatch_rejected(self, kronecker_eq6, tmp_path):
        from repro.errors import CheckpointError

        checkpoint = str(tmp_path / "mismatch.npz")
        sliced_campaign = EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6, seed=9, slice_cones=True),
            CampaignConfig(
                n_simulations=8_192, chunk_size=4_096, checkpoint=checkpoint
            ),
        )
        sliced_campaign.run()
        unsliced = EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6, seed=9, slice_cones=False),
            CampaignConfig(
                n_simulations=8_192, chunk_size=4_096, checkpoint=checkpoint
            ),
        )
        with pytest.raises(CheckpointError):
            unsliced.run(resume=True)


def _recirculating_core():
    """Tiny protocol-driven core: a state register recirculating through a
    load mux (``load ? init : state ^ fresh``), the shape that defeats the
    static sequential cone (it reaches the whole design through feedback)
    but that :func:`scheduled_cone` cuts exactly at the load cycles."""
    b = CircuitBuilder("recirc")
    load = b.input("load")
    init = b.input("init")
    fresh = b.input("fresh")
    netlist = b.netlist
    state = netlist.add_net("state")
    mixed = b.xor(state, fresh, "mixed")
    nxt = b.mux(load, mixed, init, "next")
    netlist.add_cell(CellType.DFF, (nxt,), state, "state$dff")
    out = b.xor(state, fresh, "obs")
    b.output(out, "out")
    nets = {
        "load": load, "init": init, "fresh": fresh,
        "state": state, "mixed": mixed, "next": nxt, "out": out,
    }
    return b.build(), nets


def _driven_stimulus(netlist, schedule, n_words, seed):
    """Random words on every input except the scheduled nets, which are
    driven all-lanes-constant per their declared schedule."""
    rng = np.random.default_rng(seed)
    inputs = list(netlist.inputs)

    def stimulus(cycle):
        values = {}
        for pi in inputs:
            if pi in schedule:
                values[pi] = constant_words(schedule[pi][cycle], n_words)
            else:
                values[pi] = rng.integers(
                    0, 2**63, size=n_words, dtype=np.uint64
                )
        return values

    return stimulus


class TestScheduledCone:
    def test_cuts_recirculation_at_load_cycle(self):
        nl, nets = _recirculating_core()
        schedule = {nets["load"]: [1, 0, 0, 0]}
        cones = scheduled_cone(nl, [nets["state"]], [3], 4, schedule)
        # The static cone cannot do better than the whole design.
        assert sequential_cone(nl, [nets["state"]]) >= {
            nets["init"], nets["mixed"], nets["fresh"]
        }
        # Scheduled: the load mux selects ``init`` only at cycle 0, so the
        # initial value is needed there and nowhere else -- and the
        # recirculating branch is dead at the load cycle.
        assert nets["init"] in cones[0]
        assert nets["mixed"] not in cones[0]
        # In between, the recirculating branch is live but the initial
        # value is not; at the record cycle only the register Q itself is
        # needed (its D input is needed one cycle earlier).
        for t in (1, 2):
            assert nets["init"] not in cones[t]
            assert nets["mixed"] in cones[t]
        assert cones[3] == {nets["state"]}

    def test_memoized_per_parameters(self):
        nl, nets = _recirculating_core()
        schedule = {nets["load"]: [1, 0, 0]}
        first = scheduled_cone(nl, [nets["out"]], [2], 3, schedule)
        again = scheduled_cone(nl, [nets["out"]], [2], 3, schedule)
        assert first is again
        other = scheduled_cone(
            nl, [nets["out"]], [2], 3, {nets["load"]: [1, 0, 1]}
        )
        assert other is not first

    def test_scheduled_net_must_be_primary_input(self):
        nl, nets = _recirculating_core()
        with pytest.raises(NetlistError, match="not a primary input"):
            scheduled_cone(
                nl, [nets["out"]], [1], 2, {nets["mixed"]: [0, 0]}
            )

    def test_short_schedule_rejected(self):
        nl, nets = _recirculating_core()
        with pytest.raises(NetlistError, match="covers 2 cycles"):
            scheduled_cone(
                nl, [nets["out"]], [3], 4, {nets["load"]: [1, 0]}
            )

    def test_non_bit_schedule_rejected(self):
        nl, nets = _recirculating_core()
        with pytest.raises(NetlistError, match="non-bit"):
            scheduled_cone(
                nl, [nets["out"]], [1], 2, {nets["load"]: [1, 2]}
            )

    def test_record_cycles_must_be_in_range(self):
        nl, nets = _recirculating_core()
        with pytest.raises(NetlistError, match="outside"):
            scheduled_cone(nl, [nets["out"]], [4], 4, {})
        with pytest.raises(NetlistError, match="positive"):
            scheduled_cone(nl, [nets["out"]], [0], 0, {})


class TestScheduledSimulator:
    N_CYCLES = 6
    LOAD = (1, 0, 0, 0, 1, 0)

    def _build(self, n_lanes=130, seed=3):
        nl, nets = _recirculating_core()
        schedule = {nets["load"]: list(self.LOAD)}
        roots = [nets["state"], nets["out"]]
        record = [2, 3, 5]
        simulator = ScheduledSimulator(
            nl, n_lanes, roots, record, self.N_CYCLES, schedule
        )
        n_words = simulator.n_words
        stimulus = _driven_stimulus(nl, schedule, n_words, seed)
        return nl, nets, schedule, roots, record, simulator, stimulus

    def test_bit_identical_to_full_simulation(self):
        nl, nets, schedule, roots, record, simulator, stimulus = (
            self._build()
        )
        replay = [stimulus(c) for c in range(self.N_CYCLES)]
        sliced = simulator.run(lambda c: replay[c], self.N_CYCLES)
        full = BitslicedSimulator(nl, 130).run(
            lambda c: replay[c], self.N_CYCLES, record_nets=roots
        )
        for t in record:
            for net in roots:
                assert np.array_equal(
                    sliced.words(t, net), full.words(t, net)
                ), (t, nl.net_name(net))

    def test_run_is_stateless_across_streams(self):
        nl, nets, schedule, roots, record, simulator, _ = self._build()
        for seed in (11, 12):
            stimulus = _driven_stimulus(nl, schedule, simulator.n_words, seed)
            replay = [stimulus(c) for c in range(self.N_CYCLES)]
            sliced = simulator.run(lambda c: replay[c], self.N_CYCLES)
            full = BitslicedSimulator(nl, 130).run(
                lambda c: replay[c], self.N_CYCLES, record_nets=roots
            )
            for t in record:
                for net in roots:
                    assert np.array_equal(
                        sliced.words(t, net), full.words(t, net)
                    )

    def test_wrong_schedule_value_raises(self):
        nl, nets, schedule, *_, simulator, stimulus = self._build()
        lying = {nets["load"]: [0] * self.N_CYCLES}
        bad = _driven_stimulus(nl, lying, simulator.n_words, 3)
        with pytest.raises(
            SimulationError, match="does not match its declared value"
        ):
            simulator.run(bad, self.N_CYCLES)

    def test_missing_input_raises(self):
        nl, nets, schedule, *_, simulator, stimulus = self._build()

        def broken(cycle):
            values = stimulus(cycle)
            values.pop(nets["fresh"], None)
            return values

        with pytest.raises(SimulationError, match="missing primary input"):
            simulator.run(broken, self.N_CYCLES)

    def test_record_net_must_be_a_root(self):
        nl, nets, *_ , simulator, stimulus = self._build()
        with pytest.raises(SimulationError, match="not a root"):
            simulator.run(
                stimulus, self.N_CYCLES, record_nets=[nets["mixed"]]
            )

    def test_run_must_fit_the_cone(self):
        *_, record, simulator, stimulus = self._build()
        with pytest.raises(SimulationError, match="covers 6 cycles"):
            simulator.run(stimulus, self.N_CYCLES + 1)
        with pytest.raises(SimulationError, match="not a record cycle"):
            simulator.run(stimulus, self.N_CYCLES, record_cycles=[4])
        trace = simulator.run(stimulus, self.N_CYCLES, record_cycles=[3])
        assert [bool(cycle) for cycle in trace.values] == [
            t == 3 for t in range(self.N_CYCLES)
        ]

    def test_stats_report_savings(self):
        *_, simulator, _ = self._build()
        stats = simulator.stats()
        assert stats["cell_cycles"] < stats["cell_cycles_full"]
        assert stats["cell_cycle_ratio"] > 1.0
        assert stats["n_cycles"] == self.N_CYCLES
        assert stats["record_cycles"] == 3


class TestScheduledBitIdentity:
    """Scheduled slicing == full, over random netlists and schedules."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_random_netlists_random_schedules(self, data):
        nl, inputs, nets = data.draw(random_circuits())
        n_cycles = data.draw(st.integers(1, 5))
        scheduled_net = data.draw(st.sampled_from(inputs))
        schedule = {
            scheduled_net: [
                data.draw(st.integers(0, 1)) for _ in range(n_cycles)
            ]
        }
        n_probes = data.draw(st.integers(1, min(4, len(nets))))
        probes = sorted(
            set(
                data.draw(st.sampled_from(nets))
                for _ in range(n_probes)
            )
        )
        record = sorted(
            set(
                data.draw(st.integers(0, n_cycles - 1))
                for _ in range(data.draw(st.integers(1, n_cycles)))
            )
        )
        stimulus = _driven_stimulus(
            nl, schedule, 2, data.draw(st.integers(0, 2**16))
        )
        replay = [stimulus(c) for c in range(n_cycles)]
        sliced = ScheduledSimulator(
            nl, 128, probes, record, n_cycles, schedule
        ).run(lambda c: replay[c], n_cycles)
        full = BitslicedSimulator(nl, 128).run(
            lambda c: replay[c], n_cycles, record_nets=probes
        )
        for t in record:
            for net in probes:
                assert np.array_equal(
                    sliced.words(t, net), full.words(t, net)
                ), (t, nl.net_name(net))
