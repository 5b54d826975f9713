"""Bitsliced stimulus generation for fixed-vs-random evaluations.

Each simulation lane is one independent "trace": every cycle it receives a
fresh sharing of the secret (fixed byte or per-cycle uniform byte, per
group), fresh mask bits, and fresh mask bytes -- PROLEAD's fixed-vs-random
test harness.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import SimulationError
from repro.leakage.dut import DesignUnderTest

Stimulus = Callable[[int], Dict[int, np.ndarray]]

_WORD_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def random_words(rng: np.random.Generator, n_words: int) -> np.ndarray:
    """Uniform random uint64 words (64 independent fair bits each)."""
    return rng.integers(0, 1 << 64, size=n_words, dtype=np.uint64)


def random_word_rows(
    rng: np.random.Generator, n_rows: int, n_words: int
) -> np.ndarray:
    """``n_rows`` stacked :func:`random_words` draws as one RNG call.

    Full-range uint64 draws consume the PCG64 stream word-for-word, so a
    batched ``(n_rows, n_words)`` draw is *bit-identical* to ``n_rows``
    sequential :func:`random_words` calls -- callers can batch hot loops
    without perturbing any seeded evaluation verdict.

    On a PCG64 generator the words come straight from
    ``bit_generator.random_raw``: a full-range ``integers`` draw returns
    each raw 64-bit output unchanged, so both give the same words and
    leave the same generator state, and the raw call skips the bounded
    sampler's per-call overhead.  Any other generator, or an object with
    only ``integers``, draws through ``integers``.
    """
    bit_gen = getattr(rng, "bit_generator", None)
    if isinstance(bit_gen, np.random.PCG64):
        return bit_gen.random_raw(n_rows * n_words).reshape(n_rows, n_words)
    return rng.integers(0, 1 << 64, size=(n_rows, n_words), dtype=np.uint64)


def constant_words(bit: int, n_words: int) -> np.ndarray:
    """All-lanes-constant bit as a word array."""
    value = _WORD_MAX if bit else np.uint64(0)
    return np.full(n_words, value, dtype=np.uint64)


def random_nonzero_byte(
    rng: np.random.Generator, n_words: int
) -> np.ndarray:
    """Eight bit-planes of a per-lane uniform byte conditioned non-zero.

    Returns one ``(8, n_words)`` array, plane ``i`` holding bit ``i``.
    Rejection-samples the all-zero lanes (probability 1/256 per round), so a
    couple of rounds suffice.  Each round draws eight fresh rows and merges
    them into the lanes that are still zero; every bit of every word takes
    part, pad lanes included.  The draws and rounds are the stream contract
    that ``NZ8`` in :mod:`repro.leakage.stimplan` and the native
    ``repro_stimgen`` follow word for word.  Gives up with
    :class:`SimulationError` after 64 rounds.
    """
    planes = random_word_rows(rng, 8, n_words)
    for _ in range(64):
        zero = ~np.bitwise_or.reduce(planes, axis=0)
        if not zero.any():
            return planes
        retry = random_word_rows(rng, 8, n_words)
        retry &= zero
        planes |= retry
    raise SimulationError("non-zero byte rejection sampling did not converge")


class StimulusGenerator:
    """Builds per-cycle stimulus programs for a design under test.

    ``fixed``/``random`` return :class:`repro.leakage.stimplan.StimulusPlan`
    instances -- ordinary ``stimulus(cycle)`` callables (the python
    interpreter draws from ``rng`` exactly as the old closures did, so
    every seeded verdict is unchanged) that the native engine can also
    execute entirely in C from the same PCG64 stream position.
    """

    def __init__(self, dut: DesignUnderTest, n_words: int):
        self.dut = dut
        self.n_words = n_words

    def _drive(self, builder, secret_rows, rng: np.random.Generator):
        """Share the secret rows and drive every randomness input.

        Op emission order *is* PCG64 stream order: the secret rows were
        emitted first, then per secret bit the masking shares, then the
        mask bits, the uniform byte buses, and last the rejection-sampled
        non-zero byte buses -- the exact draw order of the original
        closure (batched draws are stream-transparent; see
        :func:`random_word_rows`).
        """
        dut = self.dut
        n_shares = dut.n_shares
        for bit in range(dut.secret_width):
            accumulated = secret_rows[bit]
            if n_shares == 1:
                builder.copy(accumulated, net=dut.share_buses[0][bit])
                continue
            for share in range(n_shares - 1):
                words = builder.draw(net=dut.share_buses[share][bit])
                last = dut.share_buses[n_shares - 1][bit]
                accumulated = builder.xor(
                    accumulated,
                    words,
                    net=last if share == n_shares - 2 else None,
                )
        for mask_net in dut.mask_bits:
            builder.draw(net=mask_net)
        for bus in dut.uniform_byte_buses:
            for net in bus:
                builder.draw(net=net)
        for bus in dut.nonzero_byte_buses:
            builder.nonzero8(bus)
        return builder.build(rng)

    def fixed(self, secret: int, rng: np.random.Generator) -> Stimulus:
        """Stimulus for the fixed group: the same secret byte every cycle."""
        from repro.leakage.stimplan import StimulusPlanBuilder

        builder = StimulusPlanBuilder(self.n_words)
        secret_rows = [
            builder.const(builder.column([(secret >> bit) & 1]))
            for bit in range(self.dut.secret_width)
        ]
        return self._drive(builder, secret_rows, rng)

    def random(self, rng: np.random.Generator) -> Stimulus:
        """Stimulus for the random group: fresh uniform secret every cycle."""
        from repro.leakage.stimplan import StimulusPlanBuilder

        builder = StimulusPlanBuilder(self.n_words)
        secret_rows = [
            builder.draw() for _ in range(self.dut.secret_width)
        ]
        return self._drive(builder, secret_rows, rng)
