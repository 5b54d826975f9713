"""Tests for HistogramAccumulator, the fixed/random contingency tables.

Every table operation is checked against a ``collections.Counter`` oracle:
``add``, ``add_counts`` and ``merge`` over dense keys, wide keys (at or
above ``DENSE_KEY_LIMIT``) and tables that cross the limit mid-run; merge
algebra and aliasing; and the ``state_arrays``/``from_state`` checkpoint
layout -- packed since version 2 -- whose version-1 form stays readable.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.leakage import evaluator as evaluator_module
from repro.leakage.evaluator import HistogramAccumulator
from repro.leakage.gtest import DENSE_KEY_LIMIT

FIXED = HistogramAccumulator.GROUP_FIXED
RANDOM = HistogramAccumulator.GROUP_RANDOM

#: Mostly small keys, with the dense limit's edges and full 64-bit keys.
keys_strategy = st.lists(
    st.one_of(
        st.integers(0, 40),
        st.integers(DENSE_KEY_LIMIT - 2, DENSE_KEY_LIMIT + 2),
        st.integers(0, 2**64 - 1),
    ),
    max_size=30,
)

#: A run of ``add`` calls: (table id, group, keys).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["c0", "c1", "p0:1:2"]),
        st.sampled_from([FIXED, RANDOM]),
        keys_strategy,
    ),
    max_size=8,
)


def _build(ops):
    acc = HistogramAccumulator()
    for table_id, group, keys in ops:
        acc.add(table_id, np.asarray(keys, dtype=np.uint64), group)
    return acc


def _oracle(*op_lists):
    """Counter over (table id, key, group) for the given add runs."""
    counter = Counter()
    for ops in op_lists:
        for table_id, group, keys in ops:
            for key in keys:
                counter[(table_id, key, group)] += 1
    return counter


def _snapshot(acc):
    """Every table as plain lists: {id: (keys, fixed, random)}."""
    return {
        table_id: tuple(array.tolist() for array in acc.counts(table_id))
        for table_id in acc.table_ids()
    }


def _expected(counter):
    tables = {}
    for table_id, key, _ in counter:
        tables.setdefault(table_id, set()).add(key)
    return {
        table_id: (
            sorted(keys),
            [float(counter[(table_id, k, FIXED)]) for k in sorted(keys)],
            [float(counter[(table_id, k, RANDOM)]) for k in sorted(keys)],
        )
        for table_id, keys in tables.items()
    }


class TestAgainstCounter:
    @settings(deadline=None, max_examples=150)
    @given(ops=ops_strategy)
    def test_add_matches_counter(self, ops):
        acc = _build(ops)
        expected = _expected(_oracle(ops))
        assert _snapshot(acc) == expected
        assert acc.table_ids() == sorted(expected)

    @settings(deadline=None, max_examples=60)
    @given(a=ops_strategy, b=ops_strategy)
    def test_merge_matches_counter(self, a, b):
        acc = _build(a)
        acc.merge(_build(b))
        assert _snapshot(acc) == _expected(_oracle(a, b))

    def test_counts_dtypes(self):
        acc = _build([("t", FIXED, [3, 1, 3])])
        keys, fixed, random_ = acc.counts("t")
        assert keys.dtype == np.uint64
        assert fixed.dtype == random_.dtype == np.float64
        assert keys.tolist() == [1, 3]
        assert fixed.tolist() == [1.0, 2.0]
        assert random_.tolist() == [0.0, 0.0]

    def test_table_crossing_dense_limit_mid_run(self):
        small = [("t", FIXED, [0, 5, 5, 1023]), ("t", RANDOM, [5, 9])]
        wide = [("t", RANDOM, [DENSE_KEY_LIMIT, 2**63 + 7])]
        after = [("t", FIXED, [5, 70_000]), ("t", RANDOM, [0])]
        ops = small + wide + after
        acc = _build(ops)
        assert _snapshot(acc) == _expected(_oracle(ops))
        # Merging a dense table into the wide one, and the other way round.
        dense = _build(small)
        dense.merge(acc)
        assert _snapshot(dense) == _expected(_oracle(small, ops))
        acc.merge(_build(small))
        assert _snapshot(acc) == _expected(_oracle(ops, small))


class TestEmpty:
    def test_empty_keys_create_no_table(self):
        acc = HistogramAccumulator()
        acc.add("t", np.zeros(0, dtype=np.uint64), FIXED)
        acc.add_counts("t", np.zeros(16, dtype=np.int64), RANDOM)
        assert acc.table_ids() == []

    def test_counts_of_missing_table(self):
        keys, fixed, random_ = HistogramAccumulator().counts("nope")
        assert keys.dtype == np.uint64 and keys.size == 0
        assert fixed.dtype == np.float64 and fixed.size == 0
        assert random_.size == 0
        assert HistogramAccumulator().test("nope").dof == 0

    def test_merge_of_empty_accumulator(self):
        acc = _build([("t", FIXED, [1, 2])])
        before = _snapshot(acc)
        acc.merge(HistogramAccumulator())
        assert _snapshot(acc) == before

    def test_bad_group_rejected(self):
        acc = HistogramAccumulator()
        with pytest.raises(SimulationError):
            acc.add("t", np.array([1], dtype=np.uint64), 2)
        with pytest.raises(SimulationError):
            acc.add_counts("t", np.array([1]), -1)


class TestAddCounts:
    @settings(deadline=None, max_examples=80)
    @given(
        keys=st.lists(st.integers(0, 300), max_size=60),
        pad=st.integers(0, 40),
        group=st.sampled_from([FIXED, RANDOM]),
    )
    def test_add_counts_of_bincount_equals_add(self, keys, pad, group):
        k = np.asarray(keys, dtype=np.uint64)
        by_keys = HistogramAccumulator()
        by_keys.add("t", k, group)
        by_counts = HistogramAccumulator()
        by_counts.add_counts(
            "t",
            np.bincount(k.astype(np.intp), minlength=len(keys) + pad),
            group,
        )
        assert _snapshot(by_keys) == _snapshot(by_counts)

    def test_row_longer_than_dense_limit(self):
        row = np.zeros(DENSE_KEY_LIMIT + 8, dtype=np.uint64)
        row[[3, DENSE_KEY_LIMIT + 5]] = [2, 7]
        acc = HistogramAccumulator()
        acc.add_counts("t", row, RANDOM)
        acc.add("t", np.array([3], dtype=np.uint64), FIXED)
        assert _snapshot(acc) == {
            "t": ([3, DENSE_KEY_LIMIT + 5], [1.0, 0.0], [2.0, 7.0])
        }


class TestMergeAlgebra:
    @settings(deadline=None, max_examples=60)
    @given(a=ops_strategy, b=ops_strategy)
    def test_commutative(self, a, b):
        ab = _build(a)
        ab.merge(_build(b))
        ba = _build(b)
        ba.merge(_build(a))
        assert _snapshot(ab) == _snapshot(ba)

    @settings(deadline=None, max_examples=60)
    @given(a=ops_strategy, b=ops_strategy, c=ops_strategy)
    def test_associative(self, a, b, c):
        left = _build(a)
        left.merge(_build(b))
        left.merge(_build(c))
        bc = _build(b)
        bc.merge(_build(c))
        right = _build(a)
        right.merge(bc)
        assert _snapshot(left) == _snapshot(right)

    @pytest.mark.parametrize("key", [7, DENSE_KEY_LIMIT + 7])
    def test_merge_never_aliases_the_source(self, key):
        source = _build([("t", FIXED, [key, 1])])
        target = HistogramAccumulator()
        target.merge(source)
        expected = _snapshot(target)
        source.add("t", np.array([key, 1, 2], dtype=np.uint64), RANDOM)
        source.add_counts("t", np.array([0, 4]), FIXED)
        source.merge(_build([("t", FIXED, [key])]))
        assert _snapshot(target) == expected
        # ... nor the other way: the target's later adds leave the source be.
        before = _snapshot(source)
        target.add("t", np.array([key], dtype=np.uint64), FIXED)
        assert _snapshot(source) == before


class TestState:
    @settings(deadline=None, max_examples=80)
    @given(ops=ops_strategy)
    def test_round_trip(self, ops):
        acc = _build(ops)
        ids, arrays = acc.state_arrays()
        restored = HistogramAccumulator.from_state(ids, arrays)
        assert _snapshot(restored) == _snapshot(acc)
        ids_again, arrays_again = restored.state_arrays()
        assert ids_again == ids
        assert arrays_again.keys() == arrays.keys()
        for name in arrays:
            assert arrays_again[name].dtype == arrays[name].dtype
            assert np.array_equal(arrays_again[name], arrays[name])

    def test_layout_golden(self):
        """The checkpoint and wire layout (CHECKPOINT_VERSION 2): three
        packed arrays in table-id order."""
        acc = HistogramAccumulator()
        acc.add("c1", np.array([3, 3, 7], dtype=np.uint64), FIXED)
        acc.add("c0", np.array([1], dtype=np.uint64), RANDOM)
        acc.add("p0:1:0", np.array([70_000, 5], dtype=np.uint64), FIXED)
        acc.add("p0:1:0", np.array([5], dtype=np.uint64), RANDOM)
        ids, arrays = acc.state_arrays()
        assert ids == ["c0", "c1", "p0:1:0"]
        assert sorted(arrays) == ["counts", "keys", "n_keys"]
        assert arrays["keys"].dtype == np.uint64
        assert arrays["counts"].dtype == np.int64
        assert arrays["n_keys"].dtype == np.int64
        assert arrays["n_keys"].tolist() == [1, 2, 2]
        assert arrays["keys"].tolist() == [1, 3, 7, 5, 70_000]
        assert arrays["counts"].tolist() == [
            [0, 2, 1, 1, 1],
            [1, 0, 0, 1, 0],
        ]

    @settings(deadline=None, max_examples=40)
    @given(ops=ops_strategy)
    def test_members_concatenate_to_the_arrays(self, ops):
        """state_members() is the chunked form of state_arrays()."""
        acc = _build(ops)
        ids, arrays = acc.state_arrays()
        member_ids, members = acc.state_members()
        assert member_ids == ids
        assert members.keys() == arrays.keys()
        for name, (dtype, shape, chunks) in members.items():
            joined = np.concatenate(
                [np.zeros(0, dtype)] + [np.asarray(c, dtype) for c in chunks]
            ).reshape(shape)
            assert joined.dtype == arrays[name].dtype
            assert np.array_equal(joined, arrays[name])

    def test_reads_version_1_layout(self):
        """The per-table ``t{i}_keys``/``t{i}_counts`` layout of
        CHECKPOINT_VERSION 1 loads to the same tables as version 2."""
        acc = HistogramAccumulator()
        acc.add("c1", np.array([3, 3, 7], dtype=np.uint64), FIXED)
        acc.add("c0", np.array([1], dtype=np.uint64), RANDOM)
        acc.add("p0:1:0", np.array([70_000, 5], dtype=np.uint64), FIXED)
        ids, arrays = acc.state_arrays()
        v1 = {}
        for i, (start, stop) in enumerate(
            zip(
                np.cumsum(arrays["n_keys"]) - arrays["n_keys"],
                np.cumsum(arrays["n_keys"]),
            )
        ):
            v1[f"t{i}_keys"] = arrays["keys"][start:stop]
            v1[f"t{i}_counts"] = arrays["counts"][:, start:stop]
        restored = HistogramAccumulator.from_state(ids, v1)
        assert _snapshot(restored) == _snapshot(acc)
        ids_again, packed = restored.state_arrays()
        assert ids_again == ids
        for name in arrays:
            assert np.array_equal(packed[name], arrays[name])

    def test_reads_state_written_by_the_dict_tables(self):
        """State arrays in the layout every earlier version wrote."""
        ids = ["c0", "p3:4:1"]
        arrays = {
            "t0_keys": np.array([0, 2, 1023], dtype=np.uint64),
            "t0_counts": np.array([[4, 0, 1], [3, 2, 0]], dtype=np.int64),
            "t1_keys": np.array([9, 2**40], dtype=np.uint64),
            "t1_counts": np.array([[1, 0], [0, 5]], dtype=np.int64),
        }
        acc = HistogramAccumulator.from_state(ids, arrays)
        assert _snapshot(acc) == {
            "c0": ([0, 2, 1023], [4.0, 0.0, 1.0], [3.0, 2.0, 0.0]),
            "p3:4:1": ([9, 2**40], [1.0, 0.0], [0.0, 5.0]),
        }

    def test_empty_table_survives_round_trip(self):
        ids = ["c0"]
        arrays = {
            "t0_keys": np.zeros(0, dtype=np.uint64),
            "t0_counts": np.zeros((2, 0), dtype=np.int64),
        }
        acc = HistogramAccumulator.from_state(ids, arrays)
        assert acc.table_ids() == ["c0"]
        assert acc.state_arrays()[0] == ["c0"]

    @pytest.mark.parametrize(
        "keys, counts",
        [
            # a column missing from the counts
            ([1, 2, 3], [[1, 1], [0, 0]]),
            # one row only
            ([1, 2], [[1, 1]]),
            # duplicate key
            ([1, 1], [[1, 1], [0, 0]]),
            # descending keys
            ([5, 2], [[1, 1], [0, 0]]),
            # negative count
            ([1, 2], [[1, -1], [0, 0]]),
            # negative (signed) key
            ([-1, 2], [[1, 1], [0, 0]]),
        ],
    )
    def test_malformed_state_rejected(self, keys, counts):
        arrays = {
            "t0_keys": np.asarray(
                keys, dtype=np.int64 if min(keys) < 0 else np.uint64
            ),
            "t0_counts": np.asarray(counts, dtype=np.int64),
        }
        with pytest.raises(SimulationError):
            HistogramAccumulator.from_state(["c0"], arrays)

    def test_missing_array_and_repeated_id_rejected(self):
        arrays = {"t0_keys": np.array([1], dtype=np.uint64)}
        with pytest.raises(SimulationError):
            HistogramAccumulator.from_state(["c0"], arrays)
        arrays["t0_counts"] = np.array([[1], [0]], dtype=np.int64)
        arrays["t1_keys"] = arrays["t0_keys"]
        arrays["t1_counts"] = arrays["t0_counts"]
        with pytest.raises(SimulationError):
            HistogramAccumulator.from_state(["c0", "c0"], arrays)


def _packed(**changes):
    """Packed state of tables c0 = {1, 4}, c1 = {} and c2 = {2, 9, 70000}."""
    arrays = {
        "keys": np.array([1, 4, 2, 9, 70_000], dtype=np.uint64),
        "counts": np.array(
            [[1, 0, 2, 0, 1], [3, 1, 0, 5, 1]], dtype=np.int64
        ),
        "n_keys": np.array([2, 0, 3], dtype=np.int64),
    }
    arrays.update(changes)
    return ["c0", "c1", "c2"], {
        name: array for name, array in arrays.items() if array is not None
    }


class TestPackedState:
    def test_reads_packed_tables(self):
        acc = HistogramAccumulator.from_state(*_packed())
        assert _snapshot(acc) == {
            "c0": ([1, 4], [1.0, 0.0], [3.0, 1.0]),
            "c1": ([], [], []),
            "c2": ([2, 9, 70_000], [2.0, 0.0, 1.0], [0.0, 5.0, 1.0]),
        }

    @pytest.mark.parametrize(
        "changes, message",
        [
            # n_keys adds up to more cells than there are keys
            ({"n_keys": np.array([2, 0, 4])}, "table cells"),
            # one n_keys entry too few
            ({"n_keys": np.array([2, 3])}, "tables"),
            # a negative table size
            ({"n_keys": np.array([3, -1, 3])}, "tables"),
            # counts lost a column
            ({"counts": np.zeros((2, 4), dtype=np.int64)}, "counts"),
            # counts of one row only
            ({"counts": np.zeros((1, 5), dtype=np.int64)}, "counts"),
            # keys descend inside c2 (the c0/c2 boundary may descend)
            (
                {"keys": np.array([1, 4, 9, 2, 70_000], dtype=np.uint64)},
                "'c2'.*ascending",
            ),
            # a repeated key inside c0
            (
                {"keys": np.array([4, 4, 2, 9, 70_000], dtype=np.uint64)},
                "'c0'.*ascending",
            ),
            # a negative signed key
            (
                {"keys": np.array([1, 4, -2, 9, 70_000], dtype=np.int64)},
                "'c2'.*negative key",
            ),
            # a negative count
            (
                {
                    "counts": np.array(
                        [[1, 0, 2, 0, 1], [3, 1, 0, -5, 1]], dtype=np.int64
                    )
                },
                "'c2'.*negative count",
            ),
            # float counts
            ({"counts": np.zeros((2, 5))}, "counts"),
            # a missing member
            ({"counts": None}, "lacks array"),
            ({"keys": None}, "lacks array"),
        ],
    )
    def test_malformed_packed_state_rejected(self, changes, message):
        with pytest.raises(SimulationError, match=message):
            HistogramAccumulator.from_state(*_packed(**changes))

    def test_descending_across_a_table_boundary_is_fine(self):
        ids, arrays = _packed()
        assert arrays["keys"][1] > arrays["keys"][2]  # c0 ends above c2
        HistogramAccumulator.from_state(ids, arrays)

    def test_loaded_tables_never_alias_the_arrays(self):
        ids, arrays = _packed()
        acc = HistogramAccumulator.from_state(ids, arrays)
        before = _snapshot(acc)
        arrays["counts"][:] = 7
        arrays["keys"][:] = 0
        assert _snapshot(acc) == before


def _per_table_state(acc):
    """The packed state built one table at a time: the reference for the
    batched scan of :meth:`HistogramAccumulator.state_members`."""
    ids = acc.table_ids()
    keys, counts = [np.zeros(0, np.uint64)], [np.zeros((2, 0), np.int64)]
    for table_id in ids:
        table_keys, table_counts = acc._tables[table_id]
        cells = np.flatnonzero(table_counts.any(axis=0))
        keys.append(
            cells.astype(np.uint64) if table_keys is None
            else table_keys[cells]
        )
        counts.append(table_counts[:, cells])
    return ids, {
        "keys": np.concatenate(keys),
        "counts": np.concatenate(counts, axis=1),
        "n_keys": np.array([k.size for k in keys[1:]], dtype=np.int64),
    }


def _tables(kind):
    """Accumulators whose ids sort ``c0 < c1 < c10 < c11 < c2 < ...``."""
    acc = HistogramAccumulator()
    for index in range(12):
        dense = kind == "dense" or (kind == "mixed" and index % 3 != 1)
        base = 0 if dense else DENSE_KEY_LIMIT + 3
        # Sparse keys, so a dense table's capacity (a power of two
        # above its largest key) exceeds its occupied cells.
        keys = base + np.array([index, 3 * index + 1, 40 + index])
        acc.add(f"c{index}", keys.astype(np.uint64), FIXED)
        acc.add(f"c{index}", keys[1:].astype(np.uint64), RANDOM)
    # A dense table grown wide with one occupied cell, an empty one and
    # a keyed one holding a column of zeros (as from_state may load).
    acc.add_counts("c20", np.eye(1, 5000, 4999, dtype=np.int64)[0], FIXED)
    empty = HistogramAccumulator.from_state(
        ["c21", "p0:1:0"],
        {
            "keys": np.array([DENSE_KEY_LIMIT, DENSE_KEY_LIMIT + 9],
                             dtype=np.uint64),
            "counts": np.array([[0, 2], [0, 1]], dtype=np.int64),
            "n_keys": np.array([0, 2], dtype=np.int64),
        },
    )
    if kind != "dense":
        acc.merge(empty)
    return acc


class TestStateMembersBatches:
    """The batched occupied-cell scan packs exactly the per-table state."""

    @pytest.mark.parametrize("columns", [1, 64, 1 << 15])
    @pytest.mark.parametrize("kind", ["dense", "keyed", "mixed"])
    def test_equals_the_per_table_reference(
        self, monkeypatch, kind, columns
    ):
        monkeypatch.setattr(evaluator_module, "STATE_BATCH_COLUMNS", columns)
        acc = _tables(kind)
        ids, arrays = acc.state_arrays()
        ref_ids, reference = _per_table_state(acc)
        assert ids == ref_ids
        assert ids[:5] == ["c0", "c1", "c10", "c11", "c2"]
        for name in reference:
            assert arrays[name].dtype == reference[name].dtype
            assert np.array_equal(arrays[name], reference[name]), name
        if kind != "keyed":
            capacity = acc._tables["c0"][1].shape[1]
            assert capacity > arrays["n_keys"][ids.index("c0")]

    @settings(deadline=None, max_examples=60)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["c0", "c1", "c10", "c2", "p0:1:2"]),
                st.sampled_from([FIXED, RANDOM]),
                keys_strategy,
            ),
            max_size=12,
        ),
        columns=st.sampled_from([1, 8, 1 << 15]),
    )
    def test_random_tables(self, ops, columns):
        original = evaluator_module.STATE_BATCH_COLUMNS
        evaluator_module.STATE_BATCH_COLUMNS = columns
        try:
            acc = _build(ops)
            ids, arrays = acc.state_arrays()
        finally:
            evaluator_module.STATE_BATCH_COLUMNS = original
        ref_ids, reference = _per_table_state(acc)
        assert ids == ref_ids
        for name in reference:
            assert np.array_equal(arrays[name], reference[name])
