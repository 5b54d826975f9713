"""The Monte-Carlo fixed-vs-random leakage evaluator.

This is the PROLEAD reproduction: it simulates the design under test with a
fixed-secret group and a random-secret group, resolves every probe under the
chosen extended probing model, and G-tests each probe class's observation
histogram between the groups.  Second-order (bivariate) evaluation tests the
*joint* observation of every pair of probe classes, as the paper does for
the second-order Kronecker design.

Sampling layout: lanes are independent traces; within a trace, observation
*windows* spaced further apart than the pipeline depth contribute additional
independent samples (inputs and randomness are i.i.d. per cycle, so the
pipeline forgets everything between windows).

Memory layout: lanes are partitioned into fixed-size *blocks* of
``BLOCK_LANES`` lanes.  Each block draws its stimulus from its own RNG
stream derived from ``np.random.SeedSequence(seed, spawn_key=(group,
block))``, so any block is reproducible in isolation and the sampled values
do not depend on how blocks are batched into processing chunks.  Per-block
observations are reduced into a :class:`HistogramAccumulator` immediately,
which bounds peak memory by the block size instead of the total simulation
count and lets :mod:`repro.leakage.campaign` checkpoint and resume long
runs: the G-test only ever sees the accumulated contingency table, so a
chunked run is bit-identical to a single pass.

Statistics: observations wider than ``hash_bits`` are bucketed through a
fixed mixing hash before testing.  A full contingency table over a very wide
observation is hopelessly sparse at practical sample sizes, which makes the
chi-square approximation of the G-test anti-conservative (our fixed-vs-fixed
null experiments show -log10(p) in the tens); bucketing bounds the table at
``2^hash_bits`` cells while preserving any distribution difference with
overwhelming probability.  The default of 10 bits keeps expected cell counts
comfortably large at the sample sizes used throughout (the G-test's null
behaviour degrades measurably once expected counts drop toward ~10).
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import engines as engine_registry
from repro.errors import SimulationError
from repro.leakage.dut import DesignUnderTest
from repro.leakage import gtest
from repro.leakage.gtest import DEFAULT_THRESHOLD, GTestResult, g_test_from_counts
from repro.leakage.model import ProbingModel
from repro.leakage.probes import ProbeClass, extract_probe_classes
from repro.leakage.report import LeakageReport, ProbeResult
from repro.leakage.traces import StimulusGenerator
from repro.netlist.compile import netlist_content_hash
from repro.netlist.simulate import Trace, unpack_lanes

#: Lanes per sampling block (64 uint64 words).  The RNG stream of a block is
#: a pure function of (seed, group, block index), so evaluation results are
#: invariant under any chunking of blocks -- changing this constant changes
#: the sampled stimulus and therefore the concrete tables.
BLOCK_LANES = 4096

#: Widest unhashed key :class:`_CountPlan` counts by popcount.  The minterm
#: tree holds ``2^bits`` words per plane word, so wider keys are cheaper
#: as per-lane keys.
POPCOUNT_MAX_BITS = 4

#: Key elements (specs x segments x lanes, or tree words) per pass of
#: :class:`_CountPlan` and of the exact packed counter, which bounds their
#: scratch arrays to a few MiB whatever the spec count.  Larger passes
#: count E11's 6,000-lane two-segment traces slower; smaller ones split
#: E3's lane-key groups, each of which fits one pass here.
PASS_ELEMENTS = 1 << 18

#: Keys per pass of :class:`_PairPlan`.  A pass gathers two key rows per
#: table and forms their joint keys; passes this small stay in cache,
#: and measured faster than :data:`PASS_ELEMENTS` passes.
PAIR_PASS_ELEMENTS = 1 << 15

#: Dense-table columns :meth:`HistogramAccumulator.state_members` scans
#: in one pass (512 KiB of counts); a wider table is a batch alone.
STATE_BATCH_COLUMNS = 1 << 15


def _mix_hash(keys: np.ndarray) -> np.ndarray:
    """SplitMix64-style bit mixer used for observation bucketing."""
    keys = keys.copy()
    keys ^= keys >> np.uint64(30)
    keys *= np.uint64(0xBF58476D1CE4E5B9)
    keys ^= keys >> np.uint64(27)
    keys *= np.uint64(0x94D049BB133111EB)
    keys ^= keys >> np.uint64(31)
    return keys


def _check_hash_bits(hash_bits: int) -> None:
    """Reject a bucket width the key arithmetic cannot honour."""
    if isinstance(hash_bits, bool) or not (
        isinstance(hash_bits, int) and 1 <= hash_bits <= 64
    ):
        raise SimulationError(
            f"hash_bits must be an integer from 1 to 64, got {hash_bits!r}"
        )


def _table_shape(
    observation_bits: int, hash_bits: Optional[int]
) -> Tuple[bool, int]:
    """The bucketing rule: ``(hashed, n_bins)`` of an observation.

    An observation wider than ``hash_bits`` bits is hashed into
    ``2^hash_bits`` bins; a narrower one is its own bin index.
    ``hash_bits=None`` never hashes.
    """
    hashed = hash_bits is not None and observation_bits > hash_bits
    return hashed, 1 << (hash_bits if hashed else observation_bits)


def _bucket(keys: np.ndarray, hashed: bool, n_bins: int) -> np.ndarray:
    """Bin index of raw observation keys in a ``(hashed, n_bins)`` table.

    Hashed keys keep the top ``log2(n_bins)`` bits of :func:`_mix_hash`
    -- what ``repro_extract`` computes in C; unhashed keys are bins.
    """
    if not hashed:
        return keys
    return _mix_hash(keys) >> np.uint64(65 - n_bins.bit_length())


def _count_spec(
    probe_class: ProbeClass,
    cycles: Sequence[int],
    hash_bits: Optional[int],
):
    """The observation of a probe class at ``cycles`` as a CountSpec.

    The one place the observation-key layout is written: a key's bits,
    from position 0 up, are the support nets at ``t - back`` for each
    ``back`` in ``cycles_back`` (``for back in cycles_back: for net in
    support``).  Each observation cycle ``t`` is one segment, and
    :func:`_table_shape` decides the bucketing.
    """
    from repro.netlist.native import CountSpec

    sources = [
        (back, net)
        for back in probe_class.cycles_back
        for net in probe_class.support
    ]
    segments = tuple(
        tuple(
            (t - back, net, position)
            for position, (back, net) in enumerate(sources)
        )
        for t in cycles
    )
    return CountSpec(
        segments, *_table_shape(probe_class.observation_bits, hash_bits)
    )


def _observe(
    trace: Trace,
    spec,
    bit_cache: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
    hamming: bool = False,
    dtype: type = np.uint64,
) -> np.ndarray:
    """Single-spec numpy executor: each lane's bin, segment by segment.

    ``numpy.bincount`` of the result is the count table the C executor
    (``repro_extract``) and the batched :class:`_CountPlan` return for
    the same spec; exact shards and wide tables use it because they
    need the keys themselves.  ``bit_cache`` (keyed by ``(cycle,
    net)``) shares unpacked lane bits across specs: probe supports
    overlap heavily, so each recorded net is unpacked once per trace.
    ``hamming`` sums the bits instead of placing them (the
    Hamming-weight observation; its specs are unhashed).  ``dtype`` is
    the key dtype, uint64 unless an unhashed spec's keys fit a narrower
    one (the cache then holds bits of that dtype).
    """
    if bit_cache is None:
        bit_cache = {}
    n_lanes = trace.n_lanes
    word = np.dtype(dtype).type
    segments = []
    for segment in spec.segments:
        key = np.zeros(n_lanes, dtype=dtype)
        for cycle, net, position in segment:
            bits = bit_cache.get((cycle, net))
            if bits is None:
                bits = unpack_lanes(
                    trace.words(cycle, net), n_lanes
                ).astype(dtype, copy=False)
                bit_cache[(cycle, net)] = bits
            if hamming:
                key += bits
            else:
                key |= bits << word(position)
        segments.append(key)
    return _bucket(np.concatenate(segments), spec.hashed, spec.n_bins)


def _key_dtype(bits: int) -> type:
    """Narrowest unsigned dtype holding ``bits``-bit keys."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    return np.uint64


class _SpecGroup(NamedTuple):
    """Specs of one shape that :class:`_CountPlan` counts together."""

    popcount: bool
    hashed: bool
    #: row width, and where each spec's row starts in the count vector.
    width: int
    starts: np.ndarray
    #: ``(specs, segments, bits)`` plane rows and bit positions.
    rows: np.ndarray
    positions: np.ndarray
    dtype: type


class _Executor(NamedTuple):
    """What :meth:`_CountPlan.count` runs: the distinct ``(cycle, net)``
    planes in stacking order, the plane rows lane-key groups unpack, and
    the spec groups."""

    planes: List[Tuple[int, int]]
    lane_planes: np.ndarray
    groups: List[_SpecGroup]


class _CountPlan:
    """Batched numpy executor of a list of CountSpecs.

    :meth:`count` adds every spec's count row -- ``numpy.bincount`` of
    :func:`_observe` -- into one flat vector, spec ``i`` at
    ``bounds[i]``, in a few array operations per trace: the numpy twin
    of ``repro_extract``.  Rows follow the spec order, as the in-kernel
    pipeline's counts do, and are ``n_bins`` wide, except that an
    unhashed Hamming row is ``bits + 1`` wide.  Keys must lie below
    ``n_bins``, as for ``repro_extract``.

    The layout is all a plan computes up front.  Its executor is built
    on the first :meth:`count`, so blocks the pipeline counts never pay
    for it: the distinct ``(cycle, net)`` planes, and groups of specs
    with equal key width, segment count, hashing and row width, each
    counted in one of two ways:

    * unhashed keys of at most :data:`POPCOUNT_MAX_BITS` bits at
      positions ``0..k-1``: a minterm tree over the packed words (per
      key bit, ``m & ~b`` and ``m & b``, unused lanes masked off) whose
      leaf popcounts are the bins -- ``repro_extract``'s popcount path;
    * everything else: per-lane keys of the whole group, shift-OR'ed in
      the narrowest dtype (summed for ``hamming``), bucketed by
      :func:`_bucket`, then one offset ``bincount``.

    Groups run in passes of at most :data:`PASS_ELEMENTS` elements.
    """

    def __init__(self, specs: Sequence, hamming: bool = False):
        self.specs = list(specs)
        self.hamming = hamming
        ends = list(itertools.accumulate(
            max(map(len, spec.segments), default=0) + 1
            if hamming and not spec.hashed else spec.n_bins
            for spec in self.specs
        ))
        #: ``(start, stop)`` of each spec's row in the count vector.
        self.bounds: List[Tuple[int, int]] = list(zip([0] + ends[:-1], ends))
        #: length of the count vector.
        self.size = ends[-1] if ends else 0

    @functools.cached_property
    def _executor(self) -> _Executor:
        """The executor, built on first use."""
        planes: Dict[Tuple[int, int], int] = {}
        # shape -> [(spec index, plane rows, bit positions)].
        members: Dict[tuple, list] = {}
        for index, spec in enumerate(self.specs):
            n_bits, rows, positions = _spec_rows(spec, planes)
            popcount = (
                not (self.hamming or spec.hashed)
                and n_bits <= POPCOUNT_MAX_BITS
                and spec.n_bins >= 1 << n_bits
                and all(p == list(range(n_bits)) for p in positions)
            )
            start, stop = self.bounds[index]
            key_bits = n_bits.bit_length() if self.hamming else 1 + max(
                (max(p, default=0) for p in positions), default=0
            )
            shape = (popcount, n_bits, len(spec.segments), spec.hashed,
                     stop - start, key_bits)
            members.setdefault(shape, []).append((index, rows, positions))
        groups = []
        for shape, entries in members.items():
            popcount, n_bits, n_segments, hashed, width, key_bits = shape
            rows, positions = (
                np.array([entry[k] for entry in entries], np.intp).reshape(
                    len(entries), n_segments, n_bits
                )
                for k in (1, 2)
            )
            rows[rows < 0] = len(planes)
            starts = np.array([self.bounds[i][0] for i, _, _ in entries])
            groups.append(_SpecGroup(
                popcount, hashed, width, starts, rows, positions,
                _key_dtype(key_bits),
            ))
        # Lane-key groups read the unpacked bits of their planes only:
        # their rows index ``lane_planes``.
        lane_planes = np.unique(np.concatenate(
            [g.rows.ravel() for g in groups if not g.popcount]
            + [np.zeros(0, np.intp)]
        ))
        return _Executor(list(planes), lane_planes, [
            g if g.popcount
            else g._replace(rows=np.searchsorted(lane_planes, g.rows))
            for g in groups
        ])

    def count(
        self, trace: Trace, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Add ``trace``'s count rows into ``out`` (a new vector if None)."""
        planes, lane_planes, groups = self._executor
        if out is None:
            out = np.zeros(self.size, dtype=np.int64)
        n_lanes = trace.n_lanes
        n_words = (n_lanes + 63) // 64
        words = _plane_words(trace, planes)
        bits = _unpack_planes(words[lane_planes], n_lanes)
        lanemask = np.full(n_words, ~np.uint64(0))
        if n_lanes % 64:
            lanemask[-1] = (np.uint64(1) << np.uint64(n_lanes % 64)) - 1
        for group in groups:
            if group.popcount:
                _popcount_rows(words, lanemask, group, out)
            else:
                _lane_key_rows(bits, n_lanes, group, self.hamming, out)
        return out


def _minterm_popcounts(root: np.ndarray, planes: Iterable) -> np.ndarray:
    """Per-word popcounts of the minterm tree of ``planes`` under ``root``.

    Each plane splits every leaf ``m`` into ``m & ~b`` and ``m & b``, so
    bit ``e`` of a leaf's index is plane ``e``'s bit: leaf ``i`` holds
    the lanes of ``root`` whose plane bits spell ``i``.  ``root`` is
    shaped ``(1, ...)`` and each plane broadcasts against ``root[0]``;
    the result is the ``(2^len(planes), ...)`` uint8 popcounts.
    """
    tree = root
    for plane in planes:
        tree = np.concatenate([tree & ~plane, tree & plane])
    return np.bitwise_count(tree)


def _popcount_rows(words, lanemask, group: _SpecGroup, out) -> None:
    """Minterm-tree counts of a popcount group into its rows of ``out``."""
    n_specs, n_segments, n_bits = group.rows.shape
    n_words = lanemask.size
    words_per_spec = n_segments * n_words << n_bits
    step = max(1, PASS_ELEMENTS // max(1, words_per_spec))
    for start in range(0, n_specs, step):
        rows = group.rows[start: start + step]
        root = np.broadcast_to(lanemask, (1,) + rows.shape[:2] + (n_words,))
        counts = _minterm_popcounts(
            root, (words[rows[:, :, e]] for e in range(n_bits))
        ).sum(axis=(2, 3), dtype=np.int64)
        cells = group.starts[start: start + step, None] + np.arange(
            1 << n_bits
        )
        out[cells] += counts.T


def _spec_rows(
    spec, planes: Dict[Tuple[int, int], int]
) -> Tuple[int, list, list]:
    """A spec's key width in sources and its ``(segments, n_bits)`` plane
    rows and bit positions.

    ``planes`` numbers each distinct ``(cycle, net)`` on first sight.  A
    segment shorter than the longest is padded with row -1 (the zero
    plane) at position 0.
    """
    n_bits = max(map(len, spec.segments), default=0)
    rows = [
        [planes.setdefault((c, n), len(planes)) for c, n, _ in seg]
        + [-1] * (n_bits - len(seg))
        for seg in spec.segments
    ]
    positions = [
        [p for _, _, p in seg] + [0] * (n_bits - len(seg))
        for seg in spec.segments
    ]
    return n_bits, rows, positions


def _plane_words(trace: Trace, planes: Sequence[Tuple[int, int]]):
    """One ``(planes + 1, words)`` stack of the trace's packed planes;
    its last row is the zero plane."""
    words = np.zeros((len(planes) + 1, (trace.n_lanes + 63) // 64), np.uint64)
    for row, (cycle, net) in enumerate(planes):
        words[row] = trace.words(cycle, net)
    return words


def _unpack_planes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """``(planes, n_lanes)`` uint8 lane bits of packed plane words."""
    return np.unpackbits(
        words.view(np.uint8), axis=1, count=n_lanes, bitorder="little"
    )


def _lane_keys(bits, rows, positions, hamming: bool, out) -> np.ndarray:
    """Unbucketed per-lane keys of ``(specs, segments, n_bits)`` plane
    ``rows`` into ``out``, shaped ``(specs, segments, lanes)``: each
    key's plane bits shift-OR'ed at ``positions`` (summed for
    ``hamming``) in ``out``'s dtype."""
    out[...] = 0
    dtype = out.dtype.type
    for e in range(rows.shape[2]):
        plane = bits[rows[:, :, e]]
        if hamming:
            out += plane
        else:
            out |= plane.astype(dtype, copy=False) << positions[
                :, :, e, None
            ].astype(dtype)
    return out


def _lane_key_rows(
    bits, n_lanes: int, group: _SpecGroup, hamming: bool, out
) -> None:
    """Per-lane keys of a lane-key group, bincounted into its rows of
    ``out``."""
    n_specs, n_segments, n_bits = group.rows.shape
    step = max(1, PASS_ELEMENTS // max(1, n_segments * n_lanes))
    for start in range(0, n_specs, step):
        stop = min(start + step, n_specs)
        keys = _lane_keys(
            bits, group.rows[start:stop], group.positions[start:stop],
            hamming, np.empty((stop - start, n_segments, n_lanes), group.dtype),
        )
        if group.hashed:
            keys = _bucket(keys.astype(np.uint64), True, group.width)
        offsets = np.arange(stop - start)[:, None, None] * group.width
        flat = np.add(keys, offsets, dtype=np.intp, casting="unsafe")
        cells = group.starts[start:stop, None] + np.arange(group.width)
        out[cells] += np.bincount(
            flat.ravel(), minlength=(stop - start) * group.width
        ).reshape(-1, group.width)


class _PairShape(NamedTuple):
    """How :class:`_PairPlan` counts one pair table."""

    hashed: bool
    #: joint width above 63 bits: the key is the two-hash mix.
    mixed: bool
    #: row width; the table is dense when it is at most
    #: :data:`~repro.leakage.gtest.DENSE_KEY_LIMIT`, else keyed.
    width: int


def _pair_shape(
    bits_a: int, bits_b: int, hamming: bool, hash_bits: Optional[int]
) -> _PairShape:
    """The shape of a pair table of ``bits_a``- and ``bits_b``-bit keys.

    The joint key is bucketed by :func:`_table_shape` on the joint
    width, and the row is ``n_bins`` wide, except that a Hamming joint
    key ``a | b << bits_a`` (``a <= bits_a``, ``b <= bits_b``) is at most
    ``(bits_b << bits_a) + bits_a``.
    """
    total = bits_a + bits_b
    hashed, n_bins = _table_shape(total, hash_bits)
    mixed = total > 63
    if hamming and not (hashed or mixed):
        n_bins = (bits_b << bits_a) + bits_a + 1
    return _PairShape(hashed, mixed, n_bins)


class _PairGroup(NamedTuple):
    """Pair tables of one shape that :class:`_PairPlan` counts together."""

    shape: _PairShape
    #: per table: its index in the plan, the key-matrix rows of its two
    #: observations, and the first one's width in the joint-key dtype.
    tables: np.ndarray
    a: np.ndarray
    b: np.ndarray
    shift: np.ndarray
    #: where the group's consecutive dense rows start; -1 when keyed.
    start: int


class _PairPlan:
    """Batched numpy executor of pair tables.

    Table ``k`` is the joint observation of the unbucketed keys of two
    CountSpecs, ``pairs[k] = (a, b)`` indexing ``specs``, whose keys are
    ``bits[a]`` and ``bits[b]`` bits wide: ``a | b << bits_a``, or, when
    the joint width is above 63 bits, the two-hash mix ``_mix_hash(a) ^
    _mix_hash(b ^ 0xA5A5A5A5A5A5A5A5)``, then bucketed as
    :func:`_pair_shape` says.  All specs have equally many segments.

    Per trace, :meth:`count` builds every spec's keys once, into one key
    matrix, with :func:`_lane_keys` (the shift-OR of :class:`_CountPlan`'s
    lane-key groups).  Then, for tables of one shape at a time, each
    pass forms the joint keys of several tables, buckets them, and adds
    one offset ``bincount`` into their dense rows; a keyed table (row
    wider than :data:`~repro.leakage.gtest.DENSE_KEY_LIMIT`) hands its
    bins to ``add`` instead.  Passes hold at most
    :data:`PAIR_PASS_ELEMENTS` keys.
    """

    def __init__(
        self,
        specs: Sequence,
        bits: Sequence[int],
        pairs: Sequence[Tuple[int, int]],
        hamming: bool = False,
        hash_bits: Optional[int] = None,
    ):
        self.specs = list(specs)
        self.hamming = hamming
        self._n_segments = len(self.specs[0].segments) if self.specs else 0
        planes: Dict[Tuple[int, int], int] = {}
        members: Dict[int, list] = {}
        for index, spec in enumerate(self.specs):
            n_bits, rows, positions = _spec_rows(spec, planes)
            members.setdefault(n_bits, []).append((index, rows, positions))
        self._planes = list(planes)
        # Keys of equal width build together, as consecutive rows of the
        # key matrix: ``(first row, plane rows, bit positions)``.
        key_row = np.zeros(len(self.specs), np.intp)
        self._key_groups = []
        n_keys = key_bits = 0
        for n_bits, entries in members.items():
            key_row[[index for index, _, _ in entries]] = np.arange(
                n_keys, n_keys + len(entries)
            )
            rows, positions = (
                np.array([entry[k] for entry in entries], np.intp).reshape(
                    len(entries), self._n_segments, n_bits
                )
                for k in (1, 2)
            )
            rows[rows < 0] = len(planes)
            self._key_groups.append((n_keys, rows, positions))
            n_keys += len(entries)
            key_bits = max(
                key_bits,
                n_bits.bit_length() if hamming
                else 1 + int(positions.max(initial=0)),
            )
        self._key_dtype = _key_dtype(key_bits)
        shapes = [
            _pair_shape(bits[a], bits[b], hamming, hash_bits)
            for a, b in pairs
        ]
        by_shape: Dict[_PairShape, List[int]] = {}
        for k in sorted(range(len(shapes)), key=shapes.__getitem__):
            by_shape.setdefault(shapes[k], []).append(k)
        #: dense tables in row order, and each one's ``(start, stop)``.
        self.dense: List[int] = []
        self.bounds: List[Tuple[int, int]] = []
        self._groups: List[_PairGroup] = []
        size = 0
        for shape, tables in by_shape.items():
            hashed, mixed, width = shape
            dtype = (
                np.uint64 if hashed or mixed
                else _key_dtype((width - 1).bit_length())
            )
            dense = width <= gtest.DENSE_KEY_LIMIT
            self._groups.append(_PairGroup(
                shape,
                np.array(tables, np.intp),
                key_row[[pairs[k][0] for k in tables]],
                key_row[[pairs[k][1] for k in tables]],
                np.array([bits[pairs[k][0]] for k in tables], dtype),
                size if dense else -1,
            ))
            if dense:
                for k in tables:
                    self.dense.append(k)
                    self.bounds.append((size, size + width))
                    size += width
        #: length of the dense count vector.
        self.size = size

    def count(self, trace: Trace, out: np.ndarray, add) -> None:
        """Add ``trace``'s dense rows into ``out`` (laid out by
        :attr:`bounds`) and call ``add(k, bins)`` for each keyed table."""
        n_lanes = trace.n_lanes
        bits = _unpack_planes(_plane_words(trace, self._planes), n_lanes)
        keys = np.empty(
            (len(self.specs), self._n_segments, n_lanes), self._key_dtype
        )
        step = max(
            1, PAIR_PASS_ELEMENTS // max(1, self._n_segments * n_lanes)
        )
        for first, rows, positions in self._key_groups:
            for start in range(0, len(rows), step):
                stop = min(start + step, len(rows))
                _lane_keys(
                    bits, rows[start:stop], positions[start:stop],
                    self.hamming, keys[first + start: first + stop],
                )
        keys = keys.reshape(len(self.specs), -1)
        for group in self._groups:
            hashed, mixed, width = group.shape
            for start in range(0, group.tables.size, step):
                stop = min(start + step, group.tables.size)
                a, b = keys[group.a[start:stop]], keys[group.b[start:stop]]
                if mixed:
                    # Injective packing impossible; mix both into one
                    # word.  Collisions only ever merge cells
                    # (conservative).
                    joint = _mix_hash(a.astype(np.uint64)) ^ _mix_hash(
                        b.astype(np.uint64) ^ np.uint64(0xA5A5A5A5A5A5A5A5)
                    )
                else:
                    shift = group.shift[start:stop, None]
                    joint = a.astype(shift.dtype, copy=False)
                    joint |= b.astype(shift.dtype, copy=False) << shift
                bins = _bucket(joint, hashed, width)
                if group.start < 0:
                    for k, row in zip(group.tables[start:stop], bins):
                        add(k, row)
                    continue
                n_cells = (stop - start) * width
                offsets = np.arange(0, n_cells, width)[:, None]
                lo = group.start + start * width
                out[lo: lo + n_cells] += np.bincount(
                    np.add(bins, offsets, dtype=np.intp, casting="unsafe")
                    .ravel(),
                    minlength=n_cells,
                )


def _capacity(size: int) -> int:
    """Smallest power of two holding ``size`` dense bins."""
    return 1 << max(size - 1, 0).bit_length()


def _packed_cells(
    batch: List[Tuple[Optional[np.ndarray], np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, counts, n_keys)`` of the occupied cells of a batch of
    ``(keys, counts)`` tables: consecutive dense ones, or one keyed one.

    One vector pass over the tables' columns side by side: the occupied
    columns, how many fall in each table, and each one's key -- its
    column within a dense table, ``keys[column]`` in a keyed one.
    """
    counts = np.concatenate([c for _, c in batch], axis=1)
    starts = np.cumsum([0] + [c.shape[1] for _, c in batch])
    cells = np.flatnonzero(counts.any(axis=0))
    n_keys = np.diff(np.searchsorted(cells, starts)).astype(np.int64)
    columns = cells - np.repeat(starts[:-1], n_keys)
    keys = batch[0][0]
    return (
        columns.astype(np.uint64) if keys is None else keys[columns],
        counts[:, cells],
        n_keys,
    )


def _sparse_cells(dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Occupied ``(keys, counts)`` of a dense ``(2, n)`` table."""
    keys = np.flatnonzero(dense.any(axis=0))
    return keys.astype(np.uint64), dense[:, keys]


class HistogramAccumulator:
    """Incrementally accumulated fixed/random contingency tables.

    Tables are keyed by a string table id (one per probe class, or one per
    probe pair and offset) and count observation keys per group (row 0
    fixed, row 1 random).  Accumulation commutes and associates, so every
    partition of the simulations into blocks yields the same tables -- the
    property that makes chunked, checkpointed campaigns bit-identical to
    single-pass evaluation (the G-test only sees the table).

    Storage is numpy throughout.  A table whose keys stay below
    :data:`~repro.leakage.gtest.DENSE_KEY_LIMIT` is one ``int64`` array of
    shape ``(2, capacity)`` indexed by key, ``capacity`` being the next
    power of two above the largest key seen (16 bytes per bin; 16 KiB at
    the default 10 hash bits).  The first key at or above the limit
    switches the table, once, to ascending ``uint64`` keys plus ``(2, n)``
    counts, merged by sorted union.  Either way only occupied cells are
    observable.
    """

    GROUP_FIXED = 0
    GROUP_RANDOM = 1

    def __init__(self) -> None:
        # table id -> (keys, counts): keys is None for a dense table.
        self._tables: Dict[str, Tuple[Optional[np.ndarray], np.ndarray]] = {}

    def _check_group(self, group: int) -> None:
        if group not in (self.GROUP_FIXED, self.GROUP_RANDOM):
            raise SimulationError("group must be GROUP_FIXED or GROUP_RANDOM")

    def _fold(
        self, table_id: str, keys: Optional[np.ndarray], counts: np.ndarray
    ) -> None:
        """Add a ``(2, n)`` int64 count block into one table.

        ``keys`` is None for a dense block (column index == key), else the
        block's ascending, unique ``uint64`` keys.  The table never aliases
        ``counts``.
        """
        table = self._tables.get(table_id)
        wide = (table is not None and table[0] is not None) or (
            keys is not None
            and keys.size > 0
            and int(keys[-1]) >= gtest.DENSE_KEY_LIMIT
        )
        if not wide:
            if keys is not None:
                block = np.zeros(
                    (2, int(keys[-1]) + 1 if keys.size else 0), np.int64
                )
                block[:, keys.astype(np.intp)] = counts
                counts = block
            size = counts.shape[1]
            dense = None if table is None else table[1]
            if dense is None or dense.shape[1] < size:
                grown = np.zeros((2, _capacity(size)), np.int64)
                if dense is not None:
                    grown[:, : dense.shape[1]] = dense
                dense = grown
                self._tables[table_id] = (None, dense)
            dense[:, :size] += counts
            return
        if keys is None:
            keys, counts = _sparse_cells(counts)
        if table is None:
            self._tables[table_id] = (keys.copy(), counts.astype(np.int64))
            return
        old_keys, old_counts = table
        if old_keys is None:
            old_keys, old_counts = _sparse_cells(old_counts)
        union = np.union1d(old_keys, keys)
        merged = np.zeros((2, union.size), np.int64)
        merged[:, np.searchsorted(union, old_keys)] = old_counts
        merged[:, np.searchsorted(union, keys)] += counts
        self._tables[table_id] = (union, merged)

    def _fold_row(
        self,
        table_id: str,
        keys: Optional[np.ndarray],
        row: np.ndarray,
        group: int,
    ) -> None:
        """:meth:`_fold` one group's count row."""
        block = np.zeros((2, row.size), np.int64)
        block[group] = row
        self._fold(table_id, keys, block)

    def add(self, table_id: str, keys: np.ndarray, group: int) -> None:
        """Histogram ``keys`` into one table's column for ``group``."""
        self._check_group(group)
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        if int(keys.max()) < gtest.DENSE_KEY_LIMIT:
            values, row = None, np.bincount(keys.astype(np.intp))
        else:
            values, row = np.unique(keys, return_counts=True)
        self._fold_row(table_id, values, row, group)

    def add_counts(
        self, table_id: str, counts: np.ndarray, group: int
    ) -> None:
        """Fold a dense count row (bin index == observation key) into a table.

        Produces exactly the table :meth:`add` builds from the raw key
        array the row was histogrammed from -- zero bins leave no entry
        -- so in-kernel count tables and python key arrays accumulate
        interchangeably.
        """
        self._check_group(group)
        counts = np.asarray(counts)
        occupied = np.flatnonzero(counts)
        if occupied.size == 0:
            return
        size = int(occupied[-1]) + 1
        if size <= gtest.DENSE_KEY_LIMIT:
            keys, row = None, counts[:size]
        else:
            keys, row = occupied.astype(np.uint64), counts[occupied]
        self._fold_row(table_id, keys, row, group)

    def merge(self, other: "HistogramAccumulator") -> None:
        """Fold another accumulator's tables into this one."""
        for table_id, (keys, counts) in other._tables.items():
            self._fold(table_id, keys, counts)

    def table_ids(self) -> List[str]:
        """All table ids seen so far, sorted."""
        return sorted(self._tables)

    def counts(self, table_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, fixed_counts, random_counts)`` of the occupied cells,
        sorted by observation key."""
        keys, counts = self._tables.get(
            table_id, (None, np.zeros((2, 0), np.int64))
        )
        cells, fixed, random_ = gtest.occupied_cells(counts[0], counts[1])
        keys = cells.astype(np.uint64) if keys is None else keys[cells]
        return keys, fixed, random_

    def test(self, table_id: str, min_expected: float = 5.0) -> GTestResult:
        """G-test of one accumulated table."""
        _, fixed, random_ = self.counts(table_id)
        return g_test_from_counts(fixed, random_, min_expected)

    # -------------------------------------------------------- serialization

    def state_members(
        self,
    ) -> Tuple[List[str], Dict[str, Tuple[type, tuple, List[np.ndarray]]]]:
        """The packed state layout as ``name -> (dtype, shape, chunks)``.

        Concatenating a member's chunks gives the array of
        :meth:`state_arrays`.  Consecutive dense tables are scanned for
        occupied cells in one pass per batch of at most
        :data:`STATE_BATCH_COLUMNS` columns, and a keyed table alone, so
        the chunks are per-batch slices: the checkpoint streams the
        tables into its NPZ without ever holding the packed arrays whole.
        """
        ids = self.table_ids()
        batches: List[list] = []
        width = 0
        for table_id in ids:
            keys, counts = self._tables[table_id]
            width += counts.shape[1]
            # A dense table joins the last batch while that holds dense
            # tables within the column bound; a keyed table sits alone.
            if not (
                keys is None
                and batches
                and batches[-1][-1][0] is None
                and width <= STATE_BATCH_COLUMNS
            ):
                batches.append([])
                width = counts.shape[1]
            batches[-1].append((keys, counts))
        cells = [_packed_cells(batch) for batch in batches]
        n_keys = np.concatenate(
            [np.zeros(0, np.int64)] + [n for _, _, n in cells]
        )
        size = int(n_keys.sum())
        return ids, {
            "keys": (np.uint64, (size,), [k for k, _, _ in cells]),
            "counts": (
                np.int64,
                (2, size),
                [c[row] for row in (0, 1) for _, c, _ in cells],
            ),
            "n_keys": (np.int64, (len(ids),), [n_keys]),
        }

    def state_arrays(self) -> Tuple[List[str], Dict[str, np.ndarray]]:
        """Table ids plus the packed numpy arrays of the tables.

        The occupied cells of every table, in :meth:`table_ids` order:
        ``keys`` (``uint64``, ascending within a table), ``counts`` (their
        ``(2, n)`` int64 fixed/random counts) and ``n_keys`` (the cell
        count of each table, int64).  Checkpoints since version 2, process
        pool results and fleet ``blocks`` results all carry this layout.
        """
        ids, members = self.state_members()
        arrays = {}
        for name, (dtype, shape, chunks) in members.items():
            arrays[name] = np.empty(shape, dtype=dtype)
            if chunks:
                np.concatenate(chunks, out=arrays[name].reshape(-1))
        return ids, arrays

    @classmethod
    def from_state(
        cls, ids: Sequence[str], arrays: Dict[str, np.ndarray]
    ) -> "HistogramAccumulator":
        """Rebuild an accumulator from :meth:`state_arrays` output.

        Reads the packed layout and the version-1 layout (table ``i`` as
        ``t{i}_keys`` and ``t{i}_counts``).  Raises
        :class:`SimulationError` unless every table is well formed:
        non-negative integer keys strictly ascending, non-negative integer
        counts of shape ``(2, len(keys))``, no table id twice -- and, for
        the packed layout, one non-negative ``n_keys`` entry per table
        adding up to the number of keys and count columns.
        """
        if len(set(ids)) != len(ids):
            raise SimulationError("accumulator state repeats a table id")
        try:
            if "n_keys" in arrays:
                tables = _packed_tables(
                    len(ids),
                    np.asarray(arrays["keys"]),
                    np.asarray(arrays["counts"]),
                    np.asarray(arrays["n_keys"]),
                )
            else:
                tables = [
                    (
                        np.asarray(arrays[f"t{i}_keys"]),
                        np.asarray(arrays[f"t{i}_counts"]),
                    )
                    for i in range(len(ids))
                ]
        except KeyError as exc:
            raise SimulationError(
                f"accumulator state lacks array {exc}"
            ) from None
        acc = cls()
        for table_id, (keys, counts) in zip(ids, tables):
            if (
                keys.ndim != 1
                or keys.dtype.kind not in "iu"
                or counts.dtype.kind not in "iu"
                or counts.shape != (2, keys.size)
            ):
                raise SimulationError(
                    f"table {table_id!r}: counts of shape {counts.shape} "
                    f"do not match {keys.dtype} keys of shape {keys.shape}"
                )
            if np.any(keys[1:] <= keys[:-1]):
                raise SimulationError(
                    f"table {table_id!r}: keys are not strictly ascending"
                )
            if keys.size and int(keys[0]) < 0:
                raise SimulationError(f"table {table_id!r}: negative key")
            if counts.size and int(counts.min()) < 0:
                raise SimulationError(f"table {table_id!r}: negative count")
            acc._fold(
                table_id, keys.astype(np.uint64), counts.astype(np.int64)
            )
        return acc


def _packed_tables(
    n_tables: int, keys: np.ndarray, counts: np.ndarray, n_keys: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-table ``(keys, counts)`` slices of the packed state arrays.

    Raises :class:`SimulationError` unless ``n_keys`` has one
    non-negative integer entry per table and the entries add up to the
    number of keys and of count columns.
    """
    if (
        n_keys.ndim != 1
        or n_keys.dtype.kind not in "iu"
        or n_keys.size != n_tables
        or (n_keys.size and int(n_keys.min()) < 0)
    ):
        raise SimulationError(
            f"n_keys of shape {n_keys.shape} ({n_keys.dtype}) does not "
            f"size {n_tables} tables"
        )
    size = int(n_keys.sum())
    if keys.shape != (size,) or counts.ndim != 2 or counts.shape[1] != size:
        raise SimulationError(
            f"{size} table cells do not match keys of shape {keys.shape} "
            f"and counts of shape {counts.shape}"
        )
    ends = np.cumsum(n_keys).tolist()
    starts = [0] + ends[:-1]
    return [
        (keys[start:end], counts[:, start:end])
        for start, end in zip(starts, ends)
    ]


def _distinct_offsets(pair_offsets: Iterable[int]) -> List[int]:
    """Pair offsets in the order a pair's tables take: each once, ascending."""
    return sorted(set(pair_offsets))


def table_ids(
    class_indices: Iterable[int],
    pairs: Iterable[Tuple[int, int]] = (),
    pair_offsets: Iterable[int] = (0,),
) -> List[str]:
    """The table ids of a probe selection, in report order.

    ``c<i>`` per class index, then ``p<i>:<j>:<delta>`` per pair and
    distinct offset, the second probe of a pair ``delta`` cycles earlier.
    Checkpoints, work-item results and adaptive state store these ids,
    so they are a persisted format.
    """
    offsets = _distinct_offsets(pair_offsets)
    return [f"c{i}" for i in class_indices] + [
        f"p{i}:{j}:{delta}" for i, j in pairs for delta in offsets
    ]


def _checked_result(
    table: str,
    outcome: GTestResult,
    samples: int,
    threshold: float,
    probe_names: str,
    support_names: Tuple[str, ...] = (),
) -> ProbeResult:
    """One report row: a table's G-test, checked to hold ``samples``.

    The only builder of sampled report rows.  ``outcome`` is the table's
    G-test, whose group totals come for free with the statistic; unless
    each group holds ``samples``, :class:`SimulationError` is raised.  A
    table missing samples -- or missing entirely, which tests as G = 0
    -- would otherwise read as a pass.
    """
    if outcome.n_fixed != samples or outcome.n_random != samples:
        raise SimulationError(
            f"table {table!r} holds {outcome.n_fixed} fixed and "
            f"{outcome.n_random} random samples, but its probe received "
            f"{samples} per group; no verdict from missing evidence"
        )
    return ProbeResult(
        probe_names=probe_names,
        support_names=support_names,
        n_samples=outcome.n_fixed + outcome.n_random,
        g_statistic=outcome.g_statistic,
        dof=outcome.dof,
        mlog10p=outcome.mlog10p,
        leaking=outcome.is_leaking(threshold),
    )


def packed_totals(arrays: Dict[str, np.ndarray]) -> np.ndarray:
    """Per-table fixed/random sample totals of packed state arrays.

    ``arrays`` is the packed layout of
    :meth:`HistogramAccumulator.state_arrays`, already validated by
    :meth:`HistogramAccumulator.from_state`.  Returns a ``(2, n_tables)``
    int64 array: one ``np.add.reduceat`` over the packed counts.
    """
    n_keys = arrays["n_keys"]
    totals = np.zeros((2, n_keys.size), dtype=np.int64)
    occupied = n_keys > 0
    if occupied.any():
        starts = (np.cumsum(n_keys) - n_keys)[occupied]
        totals[:, occupied] = np.add.reduceat(arrays["counts"], starts, axis=1)
    return totals


#: The evaluation stages both evaluators book into ``stage_seconds``.
_STAGES = ("stimulus", "simulate", "extract", "histogram")


def _count_block(
    owner,
    simulator,
    stimuli: Sequence,
    n_cycles: int,
    record_nets,
    record_cycles,
    plan: _CountPlan,
    totals: np.ndarray,
    pipeline: bool,
    count=None,
) -> Optional[List[Trace]]:
    """Simulate both groups of a block; add their rows to ``totals``.

    The one block executor of both evaluators.  ``stimuli`` drive the
    fixed and the random group on the one ``simulator``.  With
    ``pipeline`` and a simulator that offers it, ``run_pipeline`` counts
    ``plan.specs`` in C and the result is None.  Otherwise ``run``
    records both traces, ``count(trace, out)`` (default ``plan.count``)
    counts each, and the traces are returned for tables that need their
    keys.

    Rows go to ``totals`` (row 0 fixed, row 1 random, laid out by
    ``plan.bounds``).  The pipeline's rows reach it only once both
    groups are counted, so a pipeline failure -- recorded as
    ``pipeline_python`` on ``owner``, then the whole block rerun in
    numpy -- never counts a group twice; numpy counts, which nothing
    reruns, add in place.  Stage times go to ``owner.stage_seconds``.
    """
    stage = owner.stage_seconds
    if pipeline and hasattr(simulator, "run_pipeline"):
        try:
            rows = []
            for stimulus in stimuli:
                counts, timings = simulator.run_pipeline(
                    stimulus, n_cycles, record_nets, record_cycles,
                    plan.specs, owner.hash_bits,
                )
                rows.append(np.concatenate(counts))
                for name, seconds in timings.items():
                    stage[name] += seconds
        except SimulationError as exc:
            owner._pipeline_failed(exc)
        else:
            t0 = perf_counter()
            for total, row in zip(totals, rows):
                total += row
            stage["histogram"] += perf_counter() - t0
            return None
    t0 = perf_counter()
    traces = [
        simulator.run(stimulus, n_cycles, record_nets, record_cycles)
        for stimulus in stimuli
    ]
    t1 = perf_counter()
    for total, trace in zip(totals, traces):
        (count or plan.count)(trace, total)
    stage["simulate"] += t1 - t0
    stage["extract"] += perf_counter() - t1
    return traces


class _Selection(NamedTuple):
    """What :meth:`LeakageEvaluator.accumulate` counts for one probe
    selection, kept while ``key`` stays the same."""

    #: classes, pairs, offsets, eval cycles, bucket width, observation.
    key: tuple
    #: the first-order specs, in class order.
    class_specs: list
    #: class positions of the tables ``plan`` counts, and of those too
    #: wide for dense rows.
    dense: List[int]
    wide: List[int]
    plan: _CountPlan
    #: the pair tables' plan, and their table ids in its table order.
    pair_plan: _PairPlan
    pair_ids: List[str]


class LeakageEvaluator(engine_registry.EngineOwner):
    """Fixed-vs-random evaluation of a design under a probing model."""

    def __init__(
        self,
        dut: DesignUnderTest,
        model: ProbingModel = ProbingModel.GLITCH,
        seed: int = 0,
        max_support_bits: int = 24,
        hash_bits: int = 10,
        observation: str = "tuple",
        block_lanes: int = BLOCK_LANES,
        engine: str = engine_registry.DEFAULT_ENGINE,
        slice_cones: bool = True,
    ):
        if observation not in ("tuple", "hamming"):
            raise SimulationError(
                "observation must be 'tuple' or 'hamming'"
            )
        if block_lanes < 64 or block_lanes % 64:
            raise SimulationError(
                "block_lanes must be a positive multiple of 64"
            )
        _check_hash_bits(hash_bits)
        # Any engine registered in repro.engines; all are bit-identical
        # (see tests/test_cross_engine.py), so the choice only trades
        # wall-clock.  Construction failures walk the registry's
        # degradation ladder (native -> compiled -> bitsliced) and are
        # recorded in :attr:`degradations`, which campaigns merge into
        # :attr:`LeakageReport.degradations`.
        try:
            self._init_engine(engine)
        except engine_registry.EngineError as exc:
            raise SimulationError(str(exc)) from None
        self.dut = dut
        self.model = model
        self.seed = seed
        self.max_support_bits = max_support_bits
        self.hash_bits = hash_bits
        self.block_lanes = block_lanes
        # Cone slicing restricts each simulated block to the sequential
        # fan-in cone of the currently-active probe supports (see
        # repro.netlist.slice).  The cone is closed under fan-in, so sliced
        # evaluation is bit-identical to full simulation -- the flag only
        # trades compile/cache work against per-cycle gate dispatches.
        self.slice_cones = slice_cones
        # "hamming" observes only the Hamming weight of the extended probe
        # (PROLEAD's compact power-model mode): a weaker adversary, useful
        # to gauge how visible a leak is to plain HW power models.
        self.observation = observation
        #: optional :class:`repro.chaos.FaultPlane` consulted at the
        #: "engine.compile" and "worker.block" sites.  ``None`` (the
        #: default) costs nothing; campaigns install a plane under chaos
        #: and it rides the evaluator pickle into worker processes.
        self.fault_plane = None
        #: cumulative seconds per evaluation stage across every block this
        #: evaluator processed; campaigns snapshot it at chunk boundaries
        #: to attribute wall-clock (stimulus is folded into simulate on
        #: the python path, which stages stimulus inside ``run``).
        self.stage_seconds: Dict[str, float] = dict.fromkeys(_STAGES, 0.0)
        self.probe_classes, self.skipped_classes = extract_probe_classes(
            dut.netlist, model, max_support_bits=max_support_bits
        )
        #: the last probe selection's specs and count plan
        #: (:meth:`_count_selection`); never pickled.
        self._selection: Optional[_Selection] = None

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_selection"] = None
        return state

    @property
    def _bucket_bits(self) -> Optional[int]:
        """Width observations hash into: ``hash_bits``, or None (never)
        for Hamming weights, which take at most ``observation_bits + 1``
        values."""
        return None if self.observation == "hamming" else self.hash_bits

    # ------------------------------------------------------------ scheduling

    def _schedule(
        self, n_windows: int, margin: int = 0
    ) -> Tuple[List[int], int]:
        """Observation cycles and total cycle count."""
        # Warm-up covers the pipeline fill plus derived-mask register chains
        # (and any backward probe offset); windows are spaced by more than
        # the pipeline depth so their observations are independent.
        warmup = self.dut.latency + 4 + margin
        stride = self.dut.latency + 4 + margin
        eval_cycles = [warmup + w * stride for w in range(n_windows)]
        n_cycles = eval_cycles[-1] + 1
        return eval_cycles, n_cycles

    def _record_cycles(self, eval_cycles: Iterable[int]) -> set:
        needed = set()
        for t in eval_cycles:
            for back in self.model.cycles_back:
                needed.add(t - back)
        return needed

    # ------------------------------------------------------- lanes and blocks

    def n_lanes_for(self, n_simulations: int, n_windows: int) -> int:
        """Validated lane count for a per-group sample budget.

        ``n_simulations`` is split into ``n_windows`` observation windows
        over ``n_simulations // n_windows`` lanes; a budget smaller than the
        window count is a configuration error (the historical behaviour of
        silently clamping to one lane ran 100x the requested samples).
        """
        if n_windows < 1:
            raise SimulationError("n_windows must be at least 1")
        if n_simulations < 1:
            raise SimulationError("n_simulations must be at least 1")
        if n_simulations < n_windows:
            raise SimulationError(
                f"n_simulations ({n_simulations}) must be at least "
                f"n_windows ({n_windows})"
            )
        return n_simulations // n_windows

    def block_count(self, n_lanes: int) -> int:
        """Number of sampling blocks covering ``n_lanes`` lanes."""
        return (n_lanes + self.block_lanes - 1) // self.block_lanes

    def _block_lane_count(self, n_lanes: int, block: int) -> int:
        """Lanes in one block (the last block may be partial)."""
        start = block * self.block_lanes
        return min(self.block_lanes, n_lanes - start)

    def _block_rng(self, group: int, block: int) -> np.random.Generator:
        """The block's private RNG stream, reproducible in isolation."""
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(group, block)
        )
        return np.random.default_rng(seq)

    def design_hash(self) -> str:
        """Content hash of the design's executable netlist structure.

        This is the leading component of the evaluation service's
        verdict-cache key: two evaluators with equal design hashes (and
        equal sampling parameters) produce bit-identical reports, however
        the designs were named or constructed.
        """
        return netlist_content_hash(self.dut.netlist)

    def _make_simulator(
        self,
        lane_count: int,
        keep_nets: Optional[Sequence[int]] = None,
        record_nets: Optional[Sequence[str]] = None,
    ):
        """Simulator instance for the configured engine.

        An engine construction failure (no C toolchain for ``native``, a
        compiled-kernel failure, or an injected "engine.native_build" /
        "engine.compile" chaos fault) degrades this evaluator permanently
        down the registry's ladder (native -> compiled -> bitsliced)
        instead of failing the campaign: the engines are bit-identical
        (tests/test_cross_engine.py), so the verdict is unchanged and
        only the provenance records the slower path.
        """
        plane = self.fault_plane
        sim, info = engine_registry.build_simulator(
            self.engine,
            self.dut.netlist,
            lane_count,
            keep_nets=keep_nets,
            record_nets=record_nets,
            decide=plane.decide if plane is not None else None,
            on_degrade=self._on_degrade,
        )
        return sim

    # ---------------------------------------------------------- cone slicing

    def _slice_roots(
        self,
        classes: Sequence[ProbeClass],
        pairs: Sequence[Tuple[int, int]],
    ) -> List[int]:
        """Union stable support of a probe selection (slice root nets)."""
        roots: set = set()
        for probe_class in classes:
            roots.update(probe_class.support)
        all_classes = self.probe_classes
        for i, j in pairs:
            roots.update(all_classes[i].support)
            roots.update(all_classes[j].support)
        return sorted(roots)

    def slice_info(
        self,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> Optional[Dict[str, object]]:
        """Slice identity and size for a probe selection, or None.

        Returns ``{"key": ..., "stats": ...}`` describing the sliced
        program the selection would simulate (``None`` when slicing is
        disabled or the selection is empty).  The campaign driver uses the
        key to detect adaptive re-slices at chunk boundaries and the stats
        for ``program_sliced`` telemetry.
        """
        if not self.slice_cones:
            return None
        classes = (
            list(self.probe_classes)
            if class_indices is None
            else [self.probe_classes[i] for i in class_indices]
        )
        roots = self._slice_roots(classes, pairs)
        if not roots:
            return None
        from repro.netlist.slice import slice_key, slice_stats

        return {
            "key": slice_key(self.dut.netlist, roots),
            "stats": slice_stats(self.dut.netlist, roots).to_dict(),
        }

    # --------------------------------------------------- unified entry point

    def accumulate(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int = 1,
        *,
        classes: Optional[Sequence[ProbeClass]] = None,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
        blocks: Optional[Iterable[int]] = None,
    ) -> None:
        """Accumulate observations for any probe selection into ``acc``.

        Per block both groups are simulated a single time
        (:func:`_count_block`), and all first-order classes plus all
        probe-pair tables (pairs index the evaluator's own probe classes;
        ids from :func:`table_ids`) are evaluated against the same
        recorded trace.  Dense first-order tables count through one
        :class:`_CountPlan`, in numpy or in the in-kernel pipeline, and
        dense pair tables through one :class:`_PairPlan`, which builds
        each observed (class, offset) key once per trace and counts the
        tables of many pairs per array pass.  Both count
        into arrays folded into ``acc`` once per call; tables too wide
        for dense rows add their keys per block.  ``stage_seconds``
        books pair counting, like the wide tables, as ``extract``.

        Probe selection, in precedence order:

        * ``class_indices`` -- indices into the evaluator's own probe
          classes; table ids keep those indices (``c<i>``), which is what
          lets the adaptive scheduler prune classes mid-campaign without
          remapping accumulated tables.
        * ``classes`` -- explicit :class:`ProbeClass` objects (table ids by
          enumeration order); ``None`` selects every probe class, ``()``
          runs pairs only.

        With ``pair_offsets=(0,)`` (or no pairs) the observation schedule
        -- and therefore every sampled stimulus bit -- is identical to a
        first-order-only run, so batched tables are bit-identical to
        running the modes separately.  A non-zero offset lengthens the
        warm-up margin for the whole batch, which shifts the first-order
        observation cycles relative to a dedicated margin-0 run (same
        distribution, different samples).
        """
        if class_indices is not None:
            if classes is not None:
                raise SimulationError(
                    "pass either classes or class_indices, not both"
                )
            class_indices = list(class_indices)
            classes = [self.probe_classes[i] for i in class_indices]
        else:
            classes = (
                list(self.probe_classes)
                if classes is None
                else list(classes)
            )
            class_indices = list(range(len(classes)))
        pairs = list(pairs)
        if pairs:
            offsets, eval_cycles, n_cycles, record_cycles = (
                self._pair_schedule(n_windows, pair_offsets)
            )
        else:
            offsets = []
            eval_cycles, n_cycles = self._schedule(n_windows)
            record_cycles = self._record_cycles(eval_cycles)
        keep_nets = None
        record_nets = None
        if self.slice_cones:
            roots = self._slice_roots(classes, pairs)
            if not roots:
                # Nothing observes anything: no tables would be touched,
                # so skipping the simulation entirely is bit-identical.
                return
            keep_nets = roots
            record_nets = roots
        if blocks is None:
            blocks = range(self.block_count(n_lanes))
        stage = self.stage_seconds
        hamming = self.observation == "hamming"
        # Dense first-order tables count through one plan, and dense pair
        # tables through one pair plan, into (2, size) totals folded into
        # ``acc`` once per call; tables too wide for dense rows add their
        # keys.  Each block counts in C through the in-kernel pipeline
        # when it can (tuple observations only: pairs and Hamming weights
        # run numpy), and a pipeline failure runs the rest of the call in
        # numpy.
        _, class_specs, dense, wide, plan, pair_plan, pair_ids = (
            self._count_selection(classes, pairs, offsets, eval_cycles)
        )
        class_ids = table_ids(class_indices)
        totals = np.zeros((2, plan.size), dtype=np.int64)
        pair_totals = np.zeros((2, pair_plan.size), dtype=np.int64)
        pipeline = (
            not pairs
            and not hamming
            and self._pipeline_ready(class_specs, record_nets)
        )
        # run() is stateless on every engine: one simulator per lane
        # count serves every block and both groups.
        simulators: Dict[int, object] = {}
        for block in blocks:
            lane_count = self._block_lane_count(n_lanes, block)
            simulator = simulators.get(lane_count)
            if simulator is None:
                simulator = simulators[lane_count] = self._make_simulator(
                    lane_count, keep_nets, record_nets=record_nets
                )
            # Every primary input draws from the block's stream whatever
            # the slice, so sliced and unsliced runs sample identical bits.
            generator = StimulusGenerator(self.dut, (lane_count + 63) // 64)
            traces = _count_block(
                self, simulator,
                (
                    generator.fixed(fixed_secret, self._block_rng(
                        HistogramAccumulator.GROUP_FIXED, block
                    )),
                    generator.random(self._block_rng(
                        HistogramAccumulator.GROUP_RANDOM, block
                    )),
                ),
                n_cycles, record_nets, record_cycles, plan, totals,
                pipeline,
            )
            pipeline = traces is None
            if traces is None:
                continue
            t0 = perf_counter()
            for group, trace in zip(
                (HistogramAccumulator.GROUP_FIXED,
                 HistogramAccumulator.GROUP_RANDOM),
                traces,
            ):
                bit_cache: Dict[Tuple[int, int], np.ndarray] = {}
                for k in wide:
                    acc.add(
                        class_ids[k],
                        _observe(trace, class_specs[k], bit_cache, hamming),
                        group,
                    )
                if pairs:
                    pair_plan.count(
                        trace, pair_totals[group],
                        lambda k, keys: acc.add(pair_ids[k], keys, group),
                    )
            stage["extract"] += perf_counter() - t0
        t0 = perf_counter()
        for ids, bounds, rows in (
            ((class_ids[k] for k in dense), plan.bounds, totals),
            ((pair_ids[k] for k in pair_plan.dense), pair_plan.bounds,
             pair_totals),
        ):
            for table_id, (start, stop) in zip(ids, bounds):
                # A table no lane reached stays absent, as with add().
                if rows[:, start:stop].any():
                    acc._fold(table_id, None, rows[:, start:stop])
        stage["histogram"] += perf_counter() - t0

    def _count_selection(
        self,
        classes: List[ProbeClass],
        pairs: List[Tuple[int, int]],
        offsets: List[int],
        eval_cycles: List[int],
    ) -> _Selection:
        """The specs, dense/wide split and count plans of a probe selection.

        One CountSpec per observed (probe class, offset): first-order
        tables observe offset 0, and the second class of a pair sits
        ``delta`` cycles earlier.  Building them costs tens of
        milliseconds for hundreds of classes, so the last selection's
        are reused while its classes, pairs, offsets, eval cycles, bucket
        width and observation stay the same (adaptive pruning changes the
        selection, and the next call rebuilds).
        """
        key = (
            tuple(classes), tuple(pairs), tuple(offsets), tuple(eval_cycles),
            self._bucket_bits, self.observation,
        )
        cached = self._selection
        if cached is not None and cached.key == key:
            return cached
        all_classes = self.probe_classes
        # The pair plan's key rows: (class index, offset) -> row.
        rows: Dict[Tuple[int, int], int] = {}
        for i, j in pairs:
            rows.setdefault((i, 0), len(rows))
            for delta in offsets:
                rows.setdefault((j, delta), len(rows))
        observed = {(probe_class, 0) for probe_class in classes} | {
            (all_classes[k], delta) for k, delta in rows
        }
        specs = {
            (probe_class, delta): _count_spec(
                probe_class,
                [t - delta for t in eval_cycles],
                self._bucket_bits,
            )
            for probe_class, delta in observed
        }
        class_specs = [specs[(probe_class, 0)] for probe_class in classes]
        pair_plan = _PairPlan(
            [specs[(all_classes[k], delta)] for k, delta in rows],
            [all_classes[k].observation_bits for k, _ in rows],
            [(rows[i, 0], rows[j, delta]) for i, j in pairs
             for delta in offsets],
            self.observation == "hamming",
            self._bucket_bits,
        )
        pair_ids = table_ids((), pairs, offsets)
        dense = [
            k for k, spec in enumerate(class_specs)
            if spec.n_bins <= gtest.DENSE_KEY_LIMIT
        ]
        wide = [
            k for k, spec in enumerate(class_specs)
            if spec.n_bins > gtest.DENSE_KEY_LIMIT
        ]
        plan = _CountPlan(
            [class_specs[k] for k in dense], self.observation == "hamming"
        )
        self._selection = _Selection(
            key, class_specs, dense, wide, plan, pair_plan, pair_ids
        )
        return self._selection

    # --------------------------------------------------------------- reports

    def report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        threshold: float = DEFAULT_THRESHOLD,
        classes: Optional[Sequence[ProbeClass]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
        status: str = "complete",
        expected: Optional[Dict[str, int]] = None,
    ) -> LeakageReport:
        """G-test the tables of a probe selection into a report.

        The only builder of sampled reports.  Rows come in
        :func:`table_ids` order: one per class of ``classes`` (table ids
        by enumeration order, as in :meth:`accumulate`; ``None`` means
        every probe class, ``()`` none), then one per pair and offset.
        Every table must hold ``n_samples`` per group -- with
        ``expected``, the samples it maps the table's id to (absent ids:
        none) -- or :class:`SimulationError` is raised.
        """
        netlist = self.dut.netlist
        classes = self.probe_classes if classes is None else classes
        names = [
            (pc.member_names(netlist), tuple(pc.support_names(netlist)))
            for pc in classes
        ]
        all_classes = self.probe_classes
        offsets = _distinct_offsets(pair_offsets)
        for i, j in pairs:
            pair_name = (
                all_classes[i].member_names(netlist, limit=1)
                + " x "
                + all_classes[j].member_names(netlist, limit=1)
            )
            for delta in offsets:
                suffix = f" @-{delta}" if delta else ""
                names.append((pair_name + suffix, ()))
        report = LeakageReport(
            design=self.dut.describe(),
            model=self.model.description,
            fixed_secret=fixed_secret,
            n_simulations=n_samples,
            threshold=threshold,
            skipped_probes=[
                pc.member_names(netlist) for pc in self.skipped_classes
            ],
            skipped_detail=self.skipped_detail(),
            status=status,
            degradations=list(self.degradations),
        )
        ids = table_ids(range(len(classes)), pairs, offsets)
        for table_id, (probe_names, support_names) in zip(ids, names):
            report.results.append(
                _checked_result(
                    table_id,
                    acc.test(table_id),
                    n_samples if expected is None
                    else expected.get(table_id, 0),
                    threshold,
                    probe_names,
                    support_names,
                )
            )
        return report

    # ----------------------------------------------------------- first order

    def evaluate(
        self,
        fixed_secret: int = 0,
        n_simulations: int = 100_000,
        n_windows: int = 1,
        threshold: float = DEFAULT_THRESHOLD,
        probe_classes: Optional[List[ProbeClass]] = None,
    ) -> LeakageReport:
        """Run the first-order fixed-vs-random test and return a report.

        ``n_simulations`` is the per-group sample count; it is split into
        ``n_windows`` observation windows over ``n_simulations / n_windows``
        lanes.  Every table must hold ``lanes * n_windows`` samples per
        group, or :class:`SimulationError` is raised instead of a report.
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        acc = HistogramAccumulator()
        self.accumulate(
            acc, fixed_secret, n_lanes, n_windows, classes=probe_classes
        )
        return self.report(
            acc, fixed_secret, n_lanes * n_windows, threshold,
            classes=probe_classes,
        )

    # ---------------------------------------------------------- second order

    def select_pairs(
        self, max_pairs: Optional[int] = None, pair_seed: int = 1
    ) -> List[Tuple[int, int]]:
        """Deterministic (sub)set of unordered probe-class index pairs."""
        pairs = list(itertools.combinations(range(len(self.probe_classes)), 2))
        if max_pairs is not None and len(pairs) > max_pairs:
            rng = np.random.default_rng(pair_seed)
            chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[i] for i in sorted(chosen)]
        return pairs

    def _pair_schedule(
        self, n_windows: int, pair_offsets: Sequence[int]
    ) -> Tuple[List[int], List[int], int, set]:
        offsets = _distinct_offsets(pair_offsets)
        if offsets and min(offsets) < 0:
            raise SimulationError("pair offsets must be non-negative")
        eval_cycles, n_cycles = self._schedule(
            n_windows, margin=max(offsets, default=0)
        )
        record_cycles = set()
        for delta in offsets:
            record_cycles |= self._record_cycles(
                [t - delta for t in eval_cycles]
            )
        record_cycles |= self._record_cycles(eval_cycles)
        return offsets, eval_cycles, n_cycles, record_cycles

    def evaluate_pairs(
        self,
        fixed_secret: int = 0,
        n_simulations: int = 100_000,
        n_windows: int = 1,
        threshold: float = DEFAULT_THRESHOLD,
        max_pairs: Optional[int] = None,
        pair_seed: int = 1,
        pair_offsets: Sequence[int] = (0,),
    ) -> LeakageReport:
        """Second-order (bivariate) evaluation over pairs of probe classes.

        Tests the joint observation of every unordered pair of probe classes
        (optionally a deterministic random subset of ``max_pairs``), which is
        how PROLEAD's multivariate mode detects second-order leakage in the
        3-share Kronecker design.  ``pair_offsets`` places the second probe
        of a pair those many cycles *earlier* than the first, covering
        multivariate leakage across clock cycles (offset 0 is the univariate
        same-cycle case).  Tables are checked as in :meth:`evaluate`.
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        pairs = self.select_pairs(max_pairs, pair_seed)
        acc = HistogramAccumulator()
        self.accumulate(
            acc, fixed_secret, n_lanes, n_windows,
            classes=(), pairs=pairs, pair_offsets=pair_offsets,
        )
        return self.report(
            acc, fixed_secret, n_lanes * n_windows, threshold,
            classes=(), pairs=pairs, pair_offsets=pair_offsets,
        )

    # -------------------------------------------------------------- helpers

    def skipped_detail(self) -> List[Dict]:
        """Budget detail for every probe class excluded from evaluation.

        One ``{"probe", "support_bits", "observation_bits", "budget"}``
        entry per skipped class, so reports and telemetry can say *how
        far* each probe is beyond ``max_support_bits`` instead of only
        counting them.
        """
        netlist = self.dut.netlist
        return [
            {
                "probe": pc.member_names(netlist),
                "support_bits": len(pc.support),
                "observation_bits": pc.observation_bits,
                "budget": self.max_support_bits,
            }
            for pc in self.skipped_classes
        ]

    def probe_class_for_net(self, net: int) -> ProbeClass:
        """Find the probe class containing a given net."""
        for probe_class in self.probe_classes:
            if net in probe_class.members:
                return probe_class
        for probe_class in self.skipped_classes:
            if net in probe_class.members:
                raise SimulationError(
                    "probe class for net was skipped (support too wide)"
                )
        raise SimulationError(f"no probe class contains net {net}")
