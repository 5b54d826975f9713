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
#: :class:`_CountPlan`, which bounds its scratch arrays to a few MiB
#: whatever the spec count.
PASS_ELEMENTS = 1 << 20


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
    if not (isinstance(hash_bits, int) and 1 <= hash_bits <= 64):
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
    raw: bool = False,
    dtype: type = np.uint64,
) -> np.ndarray:
    """Single-spec numpy executor: each lane's bin, segment by segment.

    ``numpy.bincount`` of the result is the count table the C executor
    (``repro_extract``) and the batched :class:`_CountPlan` return for
    the same spec; pair tables, exact shards and wide tables use it
    because they need the keys themselves.  ``bit_cache`` (keyed
    by ``(cycle, net)``) shares unpacked lane bits across specs: probe
    supports overlap heavily, so each recorded net is unpacked once per
    trace.  ``hamming`` sums the bits instead of placing them (the
    Hamming-weight observation; its specs are unhashed).  ``raw`` returns
    the keys before bucketing, for callers that bucket them later or
    combine them first.  ``dtype`` is the key dtype, uint64 unless an
    unhashed spec's keys fit a narrower one (the cache then holds bits of
    that dtype).
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
    keys = np.concatenate(segments)
    return keys if raw else _bucket(keys, spec.hashed, spec.n_bins)


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
    #: row width, and where the group's rows start in the count vector.
    width: int
    base: int
    #: ``(specs, segments, bits)`` plane rows and bit positions.
    rows: np.ndarray
    positions: np.ndarray
    dtype: type


class _CountPlan:
    """Batched numpy executor of a list of CountSpecs.

    :meth:`count` adds every spec's count row -- ``numpy.bincount`` of
    :func:`_observe` -- into one flat vector, spec ``i`` at
    ``bounds[i]``, in a few array operations per trace: the numpy twin
    of ``repro_extract``.  The plan is built once per spec list: the
    distinct ``(cycle, net)`` planes, and groups of specs with equal key
    width, segment count, hashing and row width, each counted in one of
    two ways:

    * unhashed keys of at most :data:`POPCOUNT_MAX_BITS` bits at
      positions ``0..k-1``: a minterm tree over the packed words (per
      key bit, ``m & ~b`` and ``m & b``, unused lanes masked off) whose
      leaf popcounts are the bins -- ``repro_extract``'s popcount path;
    * everything else: per-lane keys of the whole group, shift-OR'ed in
      the narrowest dtype (summed for ``hamming``), bucketed by
      :func:`_bucket`, then one offset ``bincount``.

    Groups run in passes of at most :data:`PASS_ELEMENTS` elements.
    Rows are ``n_bins`` wide, except that an unhashed Hamming row is
    ``bits + 1`` wide.  Keys must lie below ``n_bins``, as for
    ``repro_extract``.
    """

    def __init__(self, specs: Sequence, hamming: bool = False):
        planes: Dict[Tuple[int, int], int] = {}
        # shape -> [(spec index, plane rows, bit positions)]; rows of a
        # segment shorter than the longest are -1 (the zero plane).
        members: Dict[tuple, list] = {}
        for index, spec in enumerate(specs):
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
            popcount = (
                not (hamming or spec.hashed)
                and n_bits <= POPCOUNT_MAX_BITS
                and spec.n_bins >= 1 << n_bits
                and all(p == list(range(n_bits)) for p in positions)
            )
            width = (
                n_bits + 1 if hamming and not spec.hashed else spec.n_bins
            )
            key_bits = n_bits.bit_length() if hamming else 1 + max(
                (max(p, default=0) for p in positions), default=0
            )
            shape = (popcount, n_bits, len(spec.segments), spec.hashed,
                     width, key_bits)
            members.setdefault(shape, []).append((index, rows, positions))
        self.hamming = hamming
        #: distinct ``(cycle, net)`` planes, in stacking order.
        self.planes = list(planes)
        #: ``(start, stop)`` of each spec's row in the count vector.
        self.bounds: List[Tuple[int, int]] = [(0, 0)] * len(specs)
        #: length of the count vector.
        self.size = 0
        groups = []
        for shape, entries in members.items():
            popcount, n_bits, n_segments, hashed, width, key_bits = shape
            rows, positions = (
                np.array([entry[k] for entry in entries], np.intp).reshape(
                    len(entries), n_segments, n_bits
                )
                for k in (1, 2)
            )
            rows[rows < 0] = len(self.planes)
            for offset, (index, _, _) in enumerate(entries):
                start = self.size + offset * width
                self.bounds[index] = (start, start + width)
            groups.append(_SpecGroup(
                popcount, hashed, width, self.size, rows, positions,
                _key_dtype(key_bits),
            ))
            self.size += len(entries) * width
        # Lane-key groups read the unpacked bits of their planes only:
        # their rows index ``self._lane_planes``.
        self._lane_planes = np.unique(np.concatenate(
            [g.rows.ravel() for g in groups if not g.popcount]
            + [np.zeros(0, np.intp)]
        ))
        self._groups = [
            g if g.popcount
            else g._replace(rows=np.searchsorted(self._lane_planes, g.rows))
            for g in groups
        ]

    def count(
        self, trace: Trace, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Add ``trace``'s count rows into ``out`` (a new vector if None)."""
        if out is None:
            out = np.zeros(self.size, dtype=np.int64)
        n_lanes = trace.n_lanes
        n_words = (n_lanes + 63) // 64
        # One (planes, words) stack; its last row is the zero plane.
        words = np.zeros((len(self.planes) + 1, n_words), np.uint64)
        for row, (cycle, net) in enumerate(self.planes):
            words[row] = trace.words(cycle, net)
        bits = np.unpackbits(
            words[self._lane_planes].view(np.uint8), axis=1,
            count=n_lanes, bitorder="little",
        )
        lanemask = np.full(n_words, ~np.uint64(0))
        if n_lanes % 64:
            lanemask[-1] = (np.uint64(1) << np.uint64(n_lanes % 64)) - 1
        for group in self._groups:
            stop = group.base + len(group.rows) * group.width
            table = out[group.base:stop].reshape(-1, group.width)
            if group.popcount:
                _popcount_rows(words, lanemask, group, table)
            else:
                _lane_key_rows(bits, n_lanes, group, self.hamming, table)
        return out


def _popcount_rows(words, lanemask, group: _SpecGroup, table) -> None:
    """Minterm-tree counts of a popcount group into its table rows."""
    n_specs, n_segments, n_bits = group.rows.shape
    n_words = lanemask.size
    words_per_spec = n_segments * n_words << n_bits
    step = max(1, PASS_ELEMENTS // max(1, words_per_spec))
    for start in range(0, n_specs, step):
        rows = group.rows[start: start + step]
        tree = np.broadcast_to(lanemask, (1,) + rows.shape[:2] + (n_words,))
        for e in range(n_bits):
            plane = words[rows[:, :, e]]
            tree = np.concatenate([tree & ~plane, tree & plane])
        counts = np.bitwise_count(tree).sum(axis=(2, 3), dtype=np.int64)
        table[start: start + step, : 1 << n_bits] += counts.T


def _lane_key_rows(
    bits, n_lanes: int, group: _SpecGroup, hamming: bool, table
) -> None:
    """Per-lane keys of a lane-key group, bincounted into its table rows."""
    n_specs, n_segments, n_bits = group.rows.shape
    step = max(1, PASS_ELEMENTS // max(1, n_segments * n_lanes))
    for start in range(0, n_specs, step):
        stop = min(start + step, n_specs)
        keys = np.zeros((stop - start, n_segments, n_lanes), group.dtype)
        for e in range(n_bits):
            plane = bits[group.rows[start:stop, :, e]]
            if hamming:
                keys += plane
            else:
                shift = group.positions[start:stop, :, e, None]
                keys |= plane.astype(group.dtype, copy=False) << shift.astype(
                    group.dtype
                )
        if group.hashed:
            keys = _bucket(keys.astype(np.uint64), True, group.width)
        offsets = np.arange(stop - start)[:, None, None] * group.width
        flat = np.add(keys, offsets, dtype=np.intp, casting="unsafe")
        table[start:stop] += np.bincount(
            flat.ravel(), minlength=(stop - start) * group.width
        ).reshape(-1, group.width)


def _capacity(size: int) -> int:
    """Smallest power of two holding ``size`` dense bins."""
    return 1 << max(size - 1, 0).bit_length()


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
        :meth:`state_arrays`.  The chunks are per-table slices, so the
        checkpoint streams the tables into its NPZ without ever holding
        the packed arrays whole.
        """
        ids = self.table_ids()
        tables = []
        for table_id in ids:
            keys, counts = self._tables[table_id]
            cells = np.flatnonzero(counts.any(axis=0))
            tables.append((
                cells.astype(np.uint64) if keys is None else keys[cells],
                counts[:, cells],
            ))
        n_keys = np.asarray([k.size for k, _ in tables], dtype=np.int64)
        size = int(n_keys.sum())
        return ids, {
            "keys": (np.uint64, (size,), [k for k, _ in tables]),
            "counts": (
                np.int64,
                (2, size),
                [c[row] for row in (0, 1) for _, c in tables],
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


def _check_samples(table: str, outcome: GTestResult, samples: int) -> None:
    """Raise unless a tested table holds ``samples`` per group.

    ``outcome`` is the table's G-test, whose group totals come for free
    with the statistic.  A table missing samples -- or missing entirely,
    which tests as G = 0 -- would otherwise read as a pass.
    """
    if outcome.n_fixed != samples or outcome.n_random != samples:
        raise SimulationError(
            f"table {table!r} holds {outcome.n_fixed} fixed and "
            f"{outcome.n_random} random samples, but its probe received "
            f"{samples} per group; no verdict from missing evidence"
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
        self.stage_seconds: Dict[str, float] = {
            "stimulus": 0.0, "simulate": 0.0,
            "extract": 0.0, "histogram": 0.0,
        }
        self.probe_classes, self.skipped_classes = extract_probe_classes(
            dut.netlist, model, max_support_bits=max_support_bits
        )

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

    def _simulate_block(
        self,
        fixed_secret: int,
        lane_count: int,
        block: int,
        n_cycles: int,
        record_cycles: set,
        keep_nets: Optional[Sequence[int]] = None,
        record_nets: Optional[Sequence[int]] = None,
    ) -> Tuple[Trace, Trace]:
        """Simulate both groups for one sampling block.

        The stimulus generator always drives *every* primary input with the
        same RNG stream regardless of ``keep_nets``; a sliced simulator just
        ignores inputs outside its cone.  That keeps sliced and unsliced
        runs sampling identical bits.
        """
        generator = StimulusGenerator(self.dut, (lane_count + 63) // 64)
        trace_fixed = self._make_simulator(
            lane_count, keep_nets, record_nets=record_nets
        ).run(
            generator.fixed(
                fixed_secret, self._block_rng(HistogramAccumulator.GROUP_FIXED, block)
            ),
            n_cycles,
            record_nets=record_nets,
            record_cycles=record_cycles,
        )
        trace_random = self._make_simulator(
            lane_count, keep_nets, record_nets=record_nets
        ).run(
            generator.random(
                self._block_rng(HistogramAccumulator.GROUP_RANDOM, block)
            ),
            n_cycles,
            record_nets=record_nets,
            record_cycles=record_cycles,
        )
        return trace_fixed, trace_random

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
        fixed_secret: int = 0,
        n_lanes: Optional[int] = None,
        n_windows: int = 1,
        *,
        spec=None,
        classes: Optional[Sequence[ProbeClass]] = None,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
        blocks: Optional[Iterable[int]] = None,
    ) -> None:
        """Accumulate observations for any probe selection into ``acc``.

        Per block both groups are simulated a single time, and all
        first-order classes (table ids ``c<i>``) plus all probe-pair
        tables (``p<i>:<j>:<delta>``, indices into the evaluator's own
        probe classes) are evaluated against the same recorded trace.
        First-order tables count through one batched :class:`_CountPlan`
        into one array folded into ``acc`` once per call; raw per-class
        observation keys for pair tables are computed once per (class,
        offset) and reused across every pair that touches the class.

        Probe selection, in precedence order:

        * ``spec`` -- an :class:`repro.spec.EvaluationSpec` (anything with
          its sampling attributes); supplies ``fixed_secret``, ``n_lanes``
          (from its ``n_simulations``/``n_windows``), ``pair_offsets``, and
          -- for modes ``pairs``/``both`` -- the deterministic pair
          selection, unless explicitly overridden.
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
        if spec is not None:
            fixed_secret = spec.fixed_secret
            n_windows = spec.n_windows
            if n_lanes is None:
                n_lanes = self.n_lanes_for(spec.n_simulations, n_windows)
            pair_offsets = tuple(spec.pair_offsets)
            if spec.mode in ("pairs", "both") and not pairs:
                pairs = self.select_pairs(spec.max_pairs, spec.pair_seed)
            if spec.mode == "pairs" and classes is None:
                classes = ()
        if n_lanes is None:
            raise SimulationError(
                "accumulate() needs n_lanes (or a spec to derive it from)"
            )
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
        # One CountSpec per observed (probe class, offset): first-order
        # tables observe offset 0, and the second class of a pair sits
        # ``delta`` cycles earlier.
        all_classes = self.probe_classes
        observed = (
            {(probe_class, 0) for probe_class in classes}
            | {(all_classes[i], 0) for i, _ in pairs}
            | {(all_classes[j], delta) for _, j in pairs for delta in offsets}
        )
        specs = {
            (probe_class, delta): _count_spec(
                probe_class,
                [t - delta for t in eval_cycles],
                self._bucket_bits,
            )
            for probe_class, delta in observed
        }
        class_specs = [specs[(probe_class, 0)] for probe_class in classes]
        # In-kernel pipeline fast path: whole block (stimulus, simulate,
        # extract, histogram) in C, folding ready-made count tables into
        # ``acc`` -- bit-identical to the python path below (same tables;
        # see tests/test_native_pipeline.py).  The kernel counts tuple
        # observations only; pairs and Hamming weights run the python
        # path, and a mid-campaign failure degrades per evaluator,
        # re-running the failed block in python.
        use_pipeline = (
            not pairs
            and not hamming
            and self._pipeline_ready(class_specs, record_nets)
        )
        # Python path: the first-order tables count through one batched
        # plan into a (2, plan.size) array folded into ``acc`` once per
        # call; tables too wide for dense rows keep _observe + add.
        dense = [
            k for k, spec in enumerate(class_specs)
            if spec.n_bins <= gtest.DENSE_KEY_LIMIT
        ]
        wide = [
            k for k, spec in enumerate(class_specs)
            if spec.n_bins > gtest.DENSE_KEY_LIMIT
        ]
        plan = None
        totals = None
        pipeline_sims: Dict[int, object] = {}
        for block in blocks:
            lane_count = self._block_lane_count(n_lanes, block)
            if use_pipeline:
                try:
                    self._pipeline_block(
                        acc, fixed_secret, lane_count, block, n_cycles,
                        record_cycles, keep_nets, record_nets,
                        class_indices, class_specs, pipeline_sims,
                    )
                    continue
                except SimulationError as exc:
                    self._pipeline_failed(exc)
                    use_pipeline = False
            t0 = perf_counter()
            trace_fixed, trace_random = self._simulate_block(
                fixed_secret, lane_count, block, n_cycles, record_cycles,
                keep_nets=keep_nets, record_nets=record_nets,
            )
            stage["simulate"] += perf_counter() - t0
            t0 = perf_counter()
            if plan is None:
                plan = _CountPlan([class_specs[k] for k in dense], hamming)
                totals = np.zeros((2, plan.size), dtype=np.int64)
            plan.count(trace_fixed, totals[HistogramAccumulator.GROUP_FIXED])
            plan.count(
                trace_random, totals[HistogramAccumulator.GROUP_RANDOM]
            )
            stage["extract"] += perf_counter() - t0
            # Per-group memoization this block: unpacked bits per
            # (cycle, net) for the wide and pair tables, raw keys per
            # (class, offset) for the pair tables.
            raw_fixed: Dict[Tuple[ProbeClass, int], np.ndarray] = {}
            raw_random: Dict[Tuple[ProbeClass, int], np.ndarray] = {}
            bits_fixed: Dict[Tuple[int, int], np.ndarray] = {}
            bits_random: Dict[Tuple[int, int], np.ndarray] = {}

            def raw(memo, bit_cache, trace, probe_class, delta):
                key = (probe_class, delta)
                keys = memo.get(key)
                if keys is None:
                    t0 = perf_counter()
                    keys = _observe(
                        trace, specs[key], bit_cache, hamming, raw=True
                    )
                    memo[key] = keys
                    stage["extract"] += perf_counter() - t0
                return keys

            for k in wide:
                table_id = f"c{class_indices[k]}"
                for group, trace, bit_cache in (
                    (HistogramAccumulator.GROUP_FIXED, trace_fixed,
                     bits_fixed),
                    (HistogramAccumulator.GROUP_RANDOM, trace_random,
                     bits_random),
                ):
                    t0 = perf_counter()
                    keys = _observe(trace, class_specs[k], bit_cache, hamming)
                    t1 = perf_counter()
                    acc.add(table_id, keys, group)
                    stage["extract"] += t1 - t0
                    stage["histogram"] += perf_counter() - t1

            for i, j in pairs:
                bits_i = all_classes[i].observation_bits
                bits_j = all_classes[j].observation_bits
                for delta in offsets:
                    keys_fixed = self._combine(
                        raw(raw_fixed, bits_fixed, trace_fixed,
                            all_classes[i], 0),
                        raw(raw_fixed, bits_fixed, trace_fixed,
                            all_classes[j], delta),
                        bits_i,
                        bits_j,
                    )
                    keys_random = self._combine(
                        raw(raw_random, bits_random, trace_random,
                            all_classes[i], 0),
                        raw(raw_random, bits_random, trace_random,
                            all_classes[j], delta),
                        bits_i,
                        bits_j,
                    )
                    table_id = f"p{i}:{j}:{delta}"
                    t0 = perf_counter()
                    acc.add(
                        table_id, keys_fixed, HistogramAccumulator.GROUP_FIXED
                    )
                    acc.add(
                        table_id, keys_random, HistogramAccumulator.GROUP_RANDOM
                    )
                    stage["histogram"] += perf_counter() - t0
        if totals is not None:
            t0 = perf_counter()
            for k, (start, stop) in zip(dense, plan.bounds):
                # A table no lane reached stays absent, as with add().
                if totals[:, start:stop].any():
                    acc._fold(
                        f"c{class_indices[k]}", None, totals[:, start:stop]
                    )
            stage["histogram"] += perf_counter() - t0

    # ------------------------------------------------------ in-kernel blocks

    def _pipeline_block(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        lane_count: int,
        block: int,
        n_cycles: int,
        record_cycles: set,
        keep_nets: Sequence[int],
        record_nets: Sequence[int],
        class_indices: Sequence[int],
        specs,
        sims: Dict[int, object],
    ) -> None:
        """One sampling block entirely in the native kernel.

        The stimulus plan is handed to C with its PCG64 snapshot (same
        stream as the python interpreter would consume; see
        ``repro.leakage.stimplan``), and the returned dense count tables
        fold into ``acc`` via :meth:`HistogramAccumulator.add_counts` --
        the accumulated tables are identical to the python path's.
        ``sims`` caches simulators by lane count (run_pipeline is
        stateless); raises :class:`SimulationError` for the caller to
        degrade on.
        """
        stage = self.stage_seconds
        sim = sims.get(lane_count)
        if sim is None:
            sim = self._make_simulator(
                lane_count, keep_nets, record_nets=record_nets
            )
            if not hasattr(sim, "run_pipeline"):
                raise SimulationError(
                    "resolved engine lacks the in-kernel pipeline"
                )
            sims[lane_count] = sim
        generator = StimulusGenerator(self.dut, (lane_count + 63) // 64)
        for group, plan in (
            (
                HistogramAccumulator.GROUP_FIXED,
                generator.fixed(
                    fixed_secret,
                    self._block_rng(
                        HistogramAccumulator.GROUP_FIXED, block
                    ),
                ),
            ),
            (
                HistogramAccumulator.GROUP_RANDOM,
                generator.random(
                    self._block_rng(
                        HistogramAccumulator.GROUP_RANDOM, block
                    )
                ),
            ),
        ):
            counts, timings = sim.run_pipeline(
                plan, n_cycles, record_nets, record_cycles,
                specs, self.hash_bits,
            )
            for name, seconds in timings.items():
                stage[name] += seconds
            t0 = perf_counter()
            for index, row in zip(class_indices, counts):
                acc.add_counts(f"c{index}", row, group)
            stage["histogram"] += perf_counter() - t0

    # ----------------------------------------------------------- first order

    def first_order_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        threshold: float = DEFAULT_THRESHOLD,
        classes: Optional[List[ProbeClass]] = None,
        status: str = "complete",
        expected: Optional[Dict[str, int]] = None,
    ) -> LeakageReport:
        """G-test every accumulated probe-class table into a report.

        ``expected`` maps table ids to the samples per group each table
        must hold (absent ids: none); any other total raises
        :class:`SimulationError` (:func:`_check_samples`).
        """
        classes = classes if classes is not None else self.probe_classes
        netlist = self.dut.netlist
        report = self._new_report(fixed_secret, n_samples, threshold, status)
        for index, probe_class in enumerate(classes):
            table_id = f"c{index}"
            outcome = acc.test(table_id)
            if expected is not None:
                _check_samples(table_id, outcome, expected.get(table_id, 0))
            report.results.append(
                ProbeResult(
                    probe_names=probe_class.member_names(netlist),
                    support_names=tuple(probe_class.support_names(netlist)),
                    n_samples=outcome.n_fixed + outcome.n_random,
                    g_statistic=outcome.g_statistic,
                    dof=outcome.dof,
                    mlog10p=outcome.mlog10p,
                    leaking=outcome.is_leaking(threshold),
                )
            )
        return report

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
        lanes.
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        acc = HistogramAccumulator()
        self.accumulate(
            acc, fixed_secret, n_lanes, n_windows, classes=probe_classes
        )
        return self.first_order_report(
            acc,
            fixed_secret,
            n_lanes * n_windows,
            threshold,
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
        offsets = sorted(set(pair_offsets))
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

    def accumulate_pairs(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        blocks: Optional[Iterable[int]] = None,
    ) -> None:
        """Simulate blocks and fold joint pair observations into ``acc``.

        Table ids are ``p<i>:<j>:<delta>``; the second probe of a pair is
        placed ``delta`` cycles earlier than the first.
        """
        self.accumulate(
            acc,
            fixed_secret,
            n_lanes,
            n_windows,
            classes=(),
            pairs=pairs,
            pair_offsets=pair_offsets,
            blocks=blocks,
        )

    def pairs_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        threshold: float = DEFAULT_THRESHOLD,
        status: str = "complete",
        expected: Optional[Dict[str, int]] = None,
    ) -> LeakageReport:
        """G-test every accumulated pair table into a report.

        ``expected`` is checked as in :meth:`first_order_report`.
        """
        offsets = sorted(set(pair_offsets))
        classes = self.probe_classes
        netlist = self.dut.netlist
        report = self._new_report(fixed_secret, n_samples, threshold, status)
        for i, j in pairs:
            for delta in offsets:
                table_id = f"p{i}:{j}:{delta}"
                outcome = acc.test(table_id)
                if expected is not None:
                    _check_samples(
                        table_id, outcome, expected.get(table_id, 0)
                    )
                suffix = f" @-{delta}" if delta else ""
                report.results.append(
                    ProbeResult(
                        probe_names=(
                            classes[i].member_names(netlist, limit=1)
                            + " x "
                            + classes[j].member_names(netlist, limit=1)
                            + suffix
                        ),
                        support_names=(),
                        n_samples=outcome.n_fixed + outcome.n_random,
                        g_statistic=outcome.g_statistic,
                        dof=outcome.dof,
                        mlog10p=outcome.mlog10p,
                        leaking=outcome.is_leaking(threshold),
                    )
                )
        return report

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
        same-cycle case).
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        pairs = self.select_pairs(max_pairs, pair_seed)
        acc = HistogramAccumulator()
        self.accumulate_pairs(
            acc, fixed_secret, n_lanes, n_windows, pairs, pair_offsets
        )
        return self.pairs_report(
            acc,
            fixed_secret,
            n_lanes * n_windows,
            pairs,
            pair_offsets,
            threshold,
        )

    def batched_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        threshold: float = DEFAULT_THRESHOLD,
        status: str = "complete",
        classes: Optional[List[ProbeClass]] = None,
        expected: Optional[Dict[str, int]] = None,
    ) -> LeakageReport:
        """Report over a batched accumulation: first-order then pair rows."""
        report = self.first_order_report(
            acc, fixed_secret, n_samples, threshold, classes=classes,
            status=status, expected=expected,
        )
        pair_report = self.pairs_report(
            acc, fixed_secret, n_samples, pairs, pair_offsets, threshold,
            status=status, expected=expected,
        )
        report.results.extend(pair_report.results)
        return report

    def _combine(
        self,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        bits_a: int,
        bits_b: int,
    ) -> np.ndarray:
        """Joint observation key of two probes' raw keys, bucketed by
        the rule of :func:`_table_shape` on the joint width."""
        total_bits = bits_a + bits_b
        if total_bits <= 63:
            joint = keys_a | (keys_b << np.uint64(bits_a))
        else:
            # Injective packing impossible; mix both into one word.  Hash
            # collisions only ever merge table cells (conservative).
            joint = _mix_hash(keys_a) ^ (
                _mix_hash(keys_b ^ np.uint64(0xA5A5A5A5A5A5A5A5))
            )
        return _bucket(joint, *_table_shape(total_bits, self._bucket_bits))

    # -------------------------------------------------------------- helpers

    def _new_report(
        self,
        fixed_secret: int,
        n_samples: int,
        threshold: float,
        status: str = "complete",
    ) -> LeakageReport:
        netlist = self.dut.netlist
        return LeakageReport(
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
        )

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
