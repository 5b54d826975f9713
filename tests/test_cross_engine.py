"""Cross-engine equivalence: scalar, bitsliced, compiled, and native.

The four engines implement the same synchronous semantics at different
dispatch granularities (per gate per lane, per gate per word, per cell
type per level, whole block in one fused C kernel).  Any divergence is a
simulator bug, so random netlists with random cell mixes, registers, and
multi-cycle stimuli must agree cycle-for-cycle on every net -- and the
leakage evaluator must produce bit-identical reports no matter which
engine backs it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.compile import CompiledSimulator
from repro.netlist.native import NativeSimulator, native_available
from repro.netlist.simulate import (
    BitslicedSimulator,
    ScalarSimulator,
    pack_lanes,
)

from tests.strategies import input_sequences, random_circuits

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain for the native engine"
)


class TestRandomNetlistEquivalence:
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_three_engines_agree_cycle_for_cycle(self, data):
        nl, inputs, nets = data.draw(random_circuits())
        n_lanes = data.draw(st.sampled_from([1, 7, 8, 64, 65]))
        sequence = data.draw(input_sequences(len(inputs) * n_lanes, (1, 5)))
        n_cycles = len(sequence)

        def stimulus(cycle):
            out = {}
            for i, net in enumerate(inputs):
                bits = np.array(
                    [
                        sequence[cycle][i * n_lanes + lane]
                        for lane in range(n_lanes)
                    ],
                    dtype=np.uint8,
                )
                out[net] = pack_lanes(bits)
            return out

        bitsliced = BitslicedSimulator(nl, n_lanes).run(
            stimulus, n_cycles, record_nets=nets
        )
        compiled = CompiledSimulator(nl, n_lanes).run(
            stimulus, n_cycles, record_nets=nets
        )

        # Bitsliced vs compiled: identical words, every net, every cycle.
        for cycle in range(n_cycles):
            for net in nets:
                assert np.array_equal(
                    bitsliced.words(cycle, net), compiled.words(cycle, net)
                ), f"cycle {cycle} net {nl.net_name(net)}"

        # Scalar reference on a random lane.
        lane = data.draw(st.integers(0, n_lanes - 1))
        scalar = ScalarSimulator(nl)
        for cycle in range(n_cycles):
            values = scalar.step(
                {
                    net: sequence[cycle][i * n_lanes + lane]
                    for i, net in enumerate(inputs)
                }
            )
            for net in nets:
                assert compiled.bits(cycle, net)[lane] == values[net], (
                    f"cycle {cycle} net {nl.net_name(net)} lane {lane}"
                )


@needs_native
class TestNativeEngineEquivalence:
    """The fused C kernel against the compiled engine on random netlists.

    Fewer examples than the pure-python matrix above: every distinct
    netlist costs one ``cc`` invocation (the on-disk kernel cache only
    helps across re-runs).
    """

    @staticmethod
    def _stimulus(inputs, sequence, n_lanes):
        def stimulus(cycle):
            out = {}
            for i, net in enumerate(inputs):
                bits = np.array(
                    [
                        sequence[cycle][i * n_lanes + lane]
                        for lane in range(n_lanes)
                    ],
                    dtype=np.uint8,
                )
                out[net] = pack_lanes(bits)
            return out

        return stimulus

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_native_agrees_with_compiled(self, data):
        nl, inputs, nets = data.draw(random_circuits())
        n_lanes = data.draw(st.sampled_from([1, 64, 65]))
        n_threads = data.draw(st.sampled_from([1, 2]))
        sequence = data.draw(input_sequences(len(inputs) * n_lanes, (1, 5)))
        n_cycles = len(sequence)
        stimulus = self._stimulus(inputs, sequence, n_lanes)

        compiled = CompiledSimulator(nl, n_lanes).run(
            stimulus, n_cycles, record_nets=nets
        )
        native_sim = NativeSimulator(nl, n_lanes, n_threads=n_threads)
        native = native_sim.run(stimulus, n_cycles, record_nets=nets)
        for cycle in range(n_cycles):
            for net in nets:
                assert np.array_equal(
                    compiled.words(cycle, net), native.words(cycle, net)
                ), f"cycle {cycle} net {nl.net_name(net)}"

        # The dense pre-staged stimulus path is the same computation.
        dense = native_sim.expand_stimulus(stimulus, n_cycles)
        replay = native_sim.run(dense, n_cycles, record_nets=nets)
        for cycle in range(n_cycles):
            for net in nets:
                assert np.array_equal(
                    native.words(cycle, net), replay.words(cycle, net)
                )

    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_native_agrees_on_sliced_cones(self, data):
        nl, inputs, nets = data.draw(random_circuits())
        n_lanes = data.draw(st.sampled_from([1, 64]))
        keep = sorted({
            nets[-1],
            nets[data.draw(st.integers(0, len(nets) - 1))],
        })
        sequence = data.draw(input_sequences(len(inputs) * n_lanes, (1, 4)))
        n_cycles = len(sequence)
        stimulus = self._stimulus(inputs, sequence, n_lanes)

        compiled = CompiledSimulator(nl, n_lanes, keep_nets=keep).run(
            stimulus, n_cycles, record_nets=keep
        )
        native = NativeSimulator(
            nl, n_lanes, keep_nets=keep, record_nets=keep
        ).run(stimulus, n_cycles, record_nets=keep)
        for cycle in range(n_cycles):
            for net in keep:
                assert np.array_equal(
                    compiled.words(cycle, net), native.words(cycle, net)
                ), f"cycle {cycle} net {nl.net_name(net)}"

    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_native_agrees_with_scheduled_cone(self, data):
        # The compiled engine's scheduled cone; with an empty schedule it
        # reduces to a cycle-aware static cone and must still match the
        # fused kernel at every recorded (root, cycle) pair.
        from repro.netlist.slice import ScheduledSimulator

        nl, inputs, nets = data.draw(random_circuits())
        n_lanes = 64
        roots = sorted({nets[-1]})
        sequence = data.draw(input_sequences(len(inputs) * n_lanes, (2, 4)))
        n_cycles = len(sequence)
        record_cycles = list(range(n_cycles))
        stimulus = self._stimulus(inputs, sequence, n_lanes)

        scheduled = ScheduledSimulator(
            nl, n_lanes, roots, record_cycles, n_cycles, {}
        ).run(stimulus, n_cycles, record_nets=roots)
        native = NativeSimulator(
            nl, n_lanes, keep_nets=roots, record_nets=roots
        ).run(
            stimulus, n_cycles,
            record_nets=roots, record_cycles=record_cycles,
        )
        for cycle in record_cycles:
            for net in roots:
                assert np.array_equal(
                    scheduled.words(cycle, net), native.words(cycle, net)
                ), f"cycle {cycle} net {nl.net_name(net)}"


class TestEvaluatorEngineIdentity:
    def _report(self, engine, pairs):
        from repro.core.kronecker import build_kronecker_delta
        from repro.core.optimizations import RandomnessScheme
        from repro.leakage.evaluator import LeakageEvaluator

        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        evaluator = LeakageEvaluator(design.dut, seed=11, engine=engine)
        if pairs:
            return evaluator.evaluate_pairs(
                fixed_secret=0, n_simulations=6000, max_pairs=15
            )
        return evaluator.evaluate(fixed_secret=0, n_simulations=6000)

    def test_first_order_reports_identical(self):
        a = self._report("bitsliced", pairs=False)
        b = self._report("compiled", pairs=False)
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            assert ra.probe_names == rb.probe_names
            assert ra.g_statistic == rb.g_statistic
            assert ra.dof == rb.dof
            assert ra.mlog10p == rb.mlog10p

    def test_pairs_reports_identical(self):
        a = self._report("bitsliced", pairs=True)
        b = self._report("compiled", pairs=True)
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            assert ra.g_statistic == rb.g_statistic
            assert ra.mlog10p == rb.mlog10p

    @needs_native
    def test_native_reports_identical(self):
        a = self._report("compiled", pairs=False)
        b = self._report("native", pairs=False)
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            assert ra.probe_names == rb.probe_names
            assert ra.g_statistic == rb.g_statistic
            assert ra.dof == rb.dof
            assert ra.mlog10p == rb.mlog10p
