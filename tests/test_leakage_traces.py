"""Tests for bitsliced stimulus generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.core.sbox import build_masked_sbox
from repro.errors import SimulationError
from repro.leakage.stimplan import OP_CONST, OP_COPY, OP_XOR, OP_XORC
from repro.leakage.traces import (
    StimulusGenerator,
    constant_words,
    random_nonzero_byte,
    random_words,
)
from repro.netlist.simulate import unpack_lanes
from tests.strategies import build_plan, plan_programs

N_LANES = 512
N_WORDS = N_LANES // 64


def lanes(words):
    return unpack_lanes(np.asarray(words), N_LANES)


class TestPrimitives:
    def test_constant_words(self):
        assert lanes(constant_words(1, N_WORDS)).min() == 1
        assert lanes(constant_words(0, N_WORDS)).max() == 0

    def test_random_words_are_balanced(self):
        rng = np.random.default_rng(0)
        bits = lanes(random_words(rng, N_WORDS))
        assert 0.35 < bits.mean() < 0.65

    def test_nonzero_byte_never_zero(self):
        rng = np.random.default_rng(1)
        planes = random_nonzero_byte(rng, N_WORDS)
        value = np.zeros(N_LANES, dtype=np.uint16)
        for i, plane in enumerate(planes):
            value |= lanes(plane).astype(np.uint16) << i
        assert (value != 0).all()
        assert value.max() <= 255

    def test_nonzero_byte_rejection_exhaustion(self):
        """An RNG that only ever returns zero can never fix the zero lanes;
        the sampler must give up with a SimulationError, not loop forever."""

        class AllZeroRng:
            def integers(self, low, high, size, dtype):
                return np.zeros(size, dtype=dtype)

        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            random_nonzero_byte(AllZeroRng(), N_WORDS)


def _reference_word_rows(rng, n_rows, n_words):
    return rng.integers(0, 1 << 64, size=(n_rows, n_words), dtype=np.uint64)


def _reference_nonzero_byte(rng, n_words):
    """The per-plane rejection loop the whole-array sampler replaced."""
    planes = list(_reference_word_rows(rng, 8, n_words))
    for _ in range(64):
        zero_mask = ~(
            planes[0] | planes[1] | planes[2] | planes[3]
            | planes[4] | planes[5] | planes[6] | planes[7]
        )
        if not np.any(zero_mask):
            return planes
        retry = _reference_word_rows(rng, 8, n_words)
        for i in range(8):
            planes[i] = planes[i] | (retry[i] & zero_mask)
    raise SimulationError("non-zero byte rejection sampling did not converge")


def _reference_call(plan, cycle):
    """The plan interpreter's row-by-row loop, kept as the reference."""
    step = cycle % plan.period
    rows = np.empty((max(plan.n_rows, 1), plan.n_words), dtype=np.uint64)
    for seg in plan._segments:
        if isinstance(seg, int):
            planes = _reference_nonzero_byte(plan.rng, plan.n_words)
            for i in range(8):
                rows[seg + i] = planes[i]
            continue
        if len(seg.draw_dsts):
            rows[seg.draw_dsts] = _reference_word_rows(
                plan.rng, len(seg.draw_dsts), plan.n_words
            )
        for g in seg.groups:
            if g.code == OP_CONST:
                rows[g.dst] = plan._broadcast(g.a, step)
            elif g.code == OP_COPY:
                rows[g.dst] = rows[g.a]
            elif g.code == OP_XOR:
                rows[g.dst] = rows[g.a] ^ rows[g.b]
            elif g.code == OP_XORC:
                rows[g.dst] = rows[g.a] ^ plan._broadcast(g.b, step)
    return {net: rows[row] for row, net in plan._bound}


_BIT_GENERATORS = pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937]
)


class TestWholeArrayInterpreter:
    """Raw PCG64 words, (8, n_words) non-zero bytes and the plan executor
    give the reference loop's words and leave its generator state; the
    MT19937 case runs the ``integers`` branch."""

    @_BIT_GENERATORS
    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_words=st.sampled_from([1, 2, 3, 94]),
    )
    def test_nonzero_byte_matches_reference(
        self, bit_generator, seed, n_words
    ):
        rng = np.random.Generator(bit_generator(seed))
        reference = np.random.Generator(bit_generator(seed))
        for _ in range(3):
            planes = random_nonzero_byte(rng, n_words)
            assert planes.shape == (8, n_words)
            assert planes.dtype == np.uint64
            np.testing.assert_array_equal(
                planes, _reference_nonzero_byte(reference, n_words)
            )
            np.testing.assert_equal(
                rng.bit_generator.state, reference.bit_generator.state
            )

    @_BIT_GENERATORS
    @settings(deadline=None, max_examples=40)
    @given(
        spec=plan_programs(n_words=st.sampled_from([1, 2, 3, 94])),
        seed=st.integers(0, 2**32 - 1),
        n_cycles=st.integers(1, 6),
    )
    def test_plan_matches_reference_loop(
        self, bit_generator, spec, seed, n_cycles
    ):
        plan = build_plan(spec, np.random.Generator(bit_generator(seed)))
        reference = build_plan(
            spec, np.random.Generator(bit_generator(seed))
        )
        for cycle in range(n_cycles):
            values = plan(cycle)
            expected = _reference_call(reference, cycle)
            assert list(values) == list(expected)
            for net, words in expected.items():
                np.testing.assert_array_equal(values[net], words)
            np.testing.assert_equal(
                plan.rng.bit_generator.state,
                reference.rng.bit_generator.state,
            )


class TestStimulus:
    def setup_method(self):
        self.design = build_kronecker_delta(RandomnessScheme.FULL)
        self.generator = StimulusGenerator(self.design.dut, N_WORDS)

    def _decode_secret(self, values):
        dut = self.design.dut
        secret = np.zeros(N_LANES, dtype=np.uint16)
        for bit in range(8):
            plane = np.zeros(N_LANES, dtype=np.uint8)
            for share in range(dut.n_shares):
                plane ^= lanes(values[dut.share_buses[share][bit]])
            secret |= plane.astype(np.uint16) << bit
        return secret

    def test_fixed_group_shares_recombine_to_secret(self):
        stim = self.generator.fixed(0xA7, np.random.default_rng(2))
        for cycle in range(3):
            secret = self._decode_secret(stim(cycle))
            assert (secret == 0xA7).all()

    def test_random_group_secret_varies(self):
        stim = self.generator.random(np.random.default_rng(3))
        secret = self._decode_secret(stim(0))
        assert len(np.unique(secret)) > 50

    def test_shares_are_randomised_in_fixed_group(self):
        stim = self.generator.fixed(0x00, np.random.default_rng(4))
        values = stim(0)
        share0 = lanes(values[self.design.dut.share_buses[0][0]])
        assert 0.3 < share0.mean() < 0.7

    def test_all_inputs_covered(self):
        stim = self.generator.fixed(0, np.random.default_rng(5))
        values = stim(0)
        assert set(values) == set(self.design.netlist.inputs)

    def test_mask_bits_balanced(self):
        stim = self.generator.fixed(0, np.random.default_rng(6))
        values = stim(0)
        for net in self.design.dut.mask_bits:
            assert 0.3 < lanes(values[net]).mean() < 0.7


class TestSboxStimulus:
    def test_nonzero_bus_respected(self):
        design = build_masked_sbox(RandomnessScheme.FULL)
        generator = StimulusGenerator(design.dut, N_WORDS)
        stim = generator.random(np.random.default_rng(7))
        values = stim(0)
        r_value = np.zeros(N_LANES, dtype=np.uint16)
        for i, net in enumerate(design.dut.nonzero_byte_buses[0]):
            r_value |= lanes(values[net]).astype(np.uint16) << i
        assert (r_value != 0).all()
