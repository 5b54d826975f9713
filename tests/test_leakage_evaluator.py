"""Tests for the Monte-Carlo fixed-vs-random evaluator."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.errors import SimulationError
from repro.leakage.evaluator import (
    POPCOUNT_MAX_BITS,
    HistogramAccumulator,
    LeakageEvaluator,
    _bucket,
    _CountPlan,
    _mix_hash,
    _observe,
    _pair_shape,
    _PairPlan,
    _table_shape,
)
from repro.leakage.gtest import DENSE_KEY_LIMIT
from repro.leakage.model import ProbingModel
from repro.netlist.native import CountSpec
from repro.netlist.simulate import Trace

N_SIMS = 30_000  # leaks under test are enormous; modest N suffices


class TestOneShotAccounting:
    """One-shot reports check every table against lanes x windows."""

    @pytest.mark.parametrize(
        "method, options",
        [("evaluate", {}), ("evaluate_pairs", {"max_pairs": 5})],
    )
    def test_skipped_block_never_reports(
        self, kronecker_eq6, monkeypatch, method, options
    ):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=1, block_lanes=64
        )
        accumulate = evaluator.accumulate

        def skip_first_block(acc, fixed_secret, n_lanes, n_windows, **kw):
            kw["blocks"] = range(1, evaluator.block_count(n_lanes))
            accumulate(acc, fixed_secret, n_lanes, n_windows, **kw)

        monkeypatch.setattr(evaluator, "accumulate", skip_first_block)
        with pytest.raises(SimulationError, match="evidence"):
            getattr(evaluator, method)(n_simulations=256, **options)


def _state(acc):
    """An accumulator's tables as comparable plain lists."""
    ids, arrays = acc.state_arrays()
    return ids, {name: array.tolist() for name, array in arrays.items()}


class TestSelectionCache:
    """``accumulate`` builds the specs and count plan of a probe selection
    once and reuses them while nothing they depend on changes."""

    PAIRS = [(0, 5), (3, 9), (8, 12)]

    def _accumulate(self, evaluator, **kw):
        acc = HistogramAccumulator()
        evaluator.accumulate(
            acc, 0, 512, 1, pairs=self.PAIRS, pair_offsets=(0, 1), **kw
        )
        return acc

    def test_plan_reused_until_the_selection_changes(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=3, block_lanes=256
        )
        self._accumulate(evaluator, blocks=[0])
        selection = evaluator._selection
        self._accumulate(evaluator, blocks=[1])
        assert evaluator._selection is selection
        # Pruning a class changes the selection: the next call rebuilds.
        self._accumulate(
            evaluator, class_indices=range(1, 20), blocks=[1]
        )
        assert evaluator._selection is not selection

    @pytest.mark.parametrize(
        "change", [{"hash_bits": 2}, {"observation": "hamming"}]
    )
    def test_changed_settings_give_a_fresh_evaluators_tables(
        self, kronecker_eq6, change
    ):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=3, block_lanes=256
        )
        self._accumulate(evaluator, blocks=[0])
        for name, value in change.items():
            setattr(evaluator, name, value)
        fresh = LeakageEvaluator(
            kronecker_eq6.dut, seed=3, block_lanes=256, **change
        )
        assert _state(self._accumulate(evaluator)) == _state(
            self._accumulate(fresh)
        )

    def test_cache_stays_out_of_the_pickle(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, seed=3, block_lanes=256
        )
        expected = _state(self._accumulate(evaluator))
        assert evaluator._selection is not None
        copy = pickle.loads(pickle.dumps(evaluator))
        assert copy._selection is None
        assert evaluator._selection is not None
        assert _state(self._accumulate(copy)) == expected


class TestFirstOrder:
    def test_detects_eq6_leak_at_g7(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=1
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert not report.passed
        leaking = " ".join(r.probe_names for r in report.leaking_results)
        assert "g7" in leaking

    def test_full_scheme_passes(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=1
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert report.passed

    def test_eq9_passes_glitch_fails_transition(self, kronecker_eq9):
        glitch = LeakageEvaluator(
            kronecker_eq9.dut, ProbingModel.GLITCH, seed=1
        ).evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert glitch.passed
        transition = LeakageEvaluator(
            kronecker_eq9.dut, ProbingModel.GLITCH_TRANSITION, seed=1
        ).evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert not transition.passed

    def test_windows_multiply_samples(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=2
        )
        report = evaluator.evaluate(
            fixed_secret=0, n_simulations=20_000, n_windows=4
        )
        assert report.n_simulations == 20_000

    def test_invalid_windows_rejected(self, kronecker_full):
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError):
            evaluator.evaluate(n_simulations=100, n_windows=0)

    def test_budget_below_window_count_rejected(self, kronecker_full):
        """The historical clamp to one lane silently ran 100x the requested
        samples; an under-budget configuration must be an error instead."""
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError, match="n_windows"):
            evaluator.evaluate(n_simulations=5, n_windows=10)
        with pytest.raises(SimulationError):
            evaluator.n_lanes_for(n_simulations=63, n_windows=64)
        assert evaluator.n_lanes_for(6_400, 64) == 100

    def test_report_contents(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=3
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert report.fixed_secret == 0
        assert report.results
        assert report.max_mlog10p == report.worst.mlog10p
        text = report.format_summary()
        assert "FAIL" in text
        assert "-log10(p)" in text

    def test_probe_class_lookup(self, kronecker_eq6):
        evaluator = LeakageEvaluator(kronecker_eq6.dut)
        v1 = kronecker_eq6.v_nodes["v1"]
        pc = evaluator.probe_class_for_net(v1)
        assert v1 in pc.members
        with pytest.raises(SimulationError):
            evaluator.probe_class_for_net(10**6)

    def test_probe_class_lookup_on_skipped_class(self, kronecker_eq6):
        """A net whose class was dropped for width reports *why* it is
        missing rather than a generic not-found error."""
        evaluator = LeakageEvaluator(kronecker_eq6.dut, max_support_bits=2)
        assert evaluator.skipped_classes
        skipped_net = next(iter(evaluator.skipped_classes[0].members))
        with pytest.raises(SimulationError, match="skipped"):
            evaluator.probe_class_for_net(skipped_net)

    def test_seed_reproducibility(self, kronecker_full):
        reports = [
            LeakageEvaluator(
                kronecker_full.dut, ProbingModel.GLITCH, seed=7
            ).evaluate(fixed_secret=0, n_simulations=5_000)
            for _ in range(2)
        ]
        a, b = reports
        assert [r.mlog10p for r in a.results] == [
            r.mlog10p for r in b.results
        ]


class TestSecondOrderPairs:
    def test_first_order_design_fails_pair_test(self, kronecker_full):
        """Positive control: pairing probes across shares recovers secrets."""
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=4
        )
        report = evaluator.evaluate_pairs(
            fixed_secret=0, n_simulations=N_SIMS, max_pairs=300
        )
        assert not report.passed

    def test_pair_offsets_validated(self, kronecker_full):
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError):
            evaluator.evaluate_pairs(
                n_simulations=100, pair_offsets=(-1,)
            )

    def test_pair_subset_is_deterministic(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=5
        )
        r1 = evaluator.evaluate_pairs(
            n_simulations=2_000, max_pairs=20, pair_seed=9
        )
        r2 = evaluator.evaluate_pairs(
            n_simulations=2_000, max_pairs=20, pair_seed=9
        )
        assert [x.probe_names for x in r1.results] == [
            x.probe_names for x in r2.results
        ]


class TestHashing:
    def test_mix_hash_is_deterministic_permutation_like(self):
        keys = np.arange(1000, dtype=np.uint64)
        mixed = _mix_hash(keys)
        assert len(np.unique(mixed)) == 1000  # injective on small sets
        assert (_mix_hash(keys) == mixed).all()

    def test_wide_observations_bucketed(self, sbox_full):
        evaluator = LeakageEvaluator(
            sbox_full.dut, ProbingModel.GLITCH, seed=6, hash_bits=10
        )
        wide = next(
            pc
            for pc in evaluator.probe_classes
            if pc.observation_bits > 10
        )
        # evaluating only this class must produce a dof bounded by 2^10.
        report = evaluator.evaluate(
            fixed_secret=1, n_simulations=4_000, probe_classes=[wide]
        )
        assert report.results[0].dof < 1 << 10

    @pytest.mark.parametrize("hash_bits", [0, -3, 65, 10.0])
    def test_hash_bits_outside_1_to_64_rejected(
        self, kronecker_eq6, hash_bits
    ):
        """A zero or negative width used to shift every hashed key to
        bin 0 -- a false PASS on the leaky eq6 design -- and 65 raised
        an untyped OverflowError mid-run."""
        with pytest.raises(SimulationError, match="hash_bits"):
            LeakageEvaluator(kronecker_eq6.dut, hash_bits=hash_bits)

    @pytest.mark.parametrize("hash_bits", [True, False])
    def test_boolean_hash_bits_rejected(self, kronecker_eq6, hash_bits):
        with pytest.raises(SimulationError, match="hash_bits"):
            LeakageEvaluator(kronecker_eq6.dut, hash_bits=hash_bits)

    @pytest.mark.parametrize("hash_bits", [1, 64])
    def test_hash_bits_range_is_inclusive(self, kronecker_eq6, hash_bits):
        evaluator = LeakageEvaluator(kronecker_eq6.dut, hash_bits=hash_bits)
        report = evaluator.evaluate(fixed_secret=0, n_simulations=2_000)
        assert all(r.dof < 1 << hash_bits for r in report.results)


def _digest(report) -> str:
    return hashlib.sha256(report.to_json(top=None).encode()).hexdigest()


class TestHammingReportPin:
    """Byte pins of Hamming-weight reports (kronecker/eq6).

    The weights are sums of the observed bits and are never bucketed,
    not even above ``hash_bits``.  The tuple pin next to them checks the
    bucketing of first-order and pair tables at the same small width.
    """

    def test_first_order_bytes(self, kronecker_eq6):
        report = LeakageEvaluator(
            kronecker_eq6.dut, seed=3, observation="hamming"
        ).evaluate(fixed_secret=0, n_simulations=8_000)
        assert _digest(report) == (
            "df77541f02d0ab0575ba361af9dead837d7e318e18fbdb5e58e4e8a3e3e0a6fa"
        )

    @pytest.mark.parametrize(
        "observation, digest",
        [
            (
                "hamming",
                "f3e199183c5d4e1d50e735d1a3bd2de2"
                "fc553335ff74b5dfc78bbe04a54b858f",
            ),
            (
                "tuple",
                "95e849b694952621ccc52ab252a26f5d"
                "7f120a95f2e8022e1838ba4d926b6b1b",
            ),
        ],
    )
    def test_batched_pairs_bytes_at_four_hash_bits(
        self, kronecker_eq6, observation, digest
    ):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH_TRANSITION, seed=3,
            observation=observation, hash_bits=4,
        )
        assert max(
            pc.observation_bits for pc in evaluator.probe_classes
        ) > 4
        acc = HistogramAccumulator()
        pairs = evaluator.select_pairs(12, 1)
        n_lanes = evaluator.n_lanes_for(6_000, 2)
        evaluator.accumulate(
            acc, 0, n_lanes, 2, pairs=pairs, pair_offsets=(0, 1)
        )
        report = evaluator.report(
            acc, 0, n_lanes * 2, pairs=pairs, pair_offsets=(0, 1)
        )
        assert _digest(report) == digest


class TestPairBranchPins:
    """Byte pins (sbox/full, two windows of 1,500 lanes, offsets 0-1) of
    the pair-table branches no other pin reaches, recorded while pair
    tables were still counted pair by pair: a tuple pair wider than 63
    bits, whose joint key is the two-hash mix, and a Hamming pair whose
    row is too wide to be dense, so its table is keyed."""

    @pytest.mark.parametrize(
        "model, observation, pairs, digest",
        [
            (
                ProbingModel.GLITCH_TRANSITION, "tuple",
                [(241, 354), (563, 694)],
                "d9bd845dc53003f8071e49c32861449d"
                "d15a933184e32748b580bb73c1372444",
            ),
            (
                ProbingModel.GLITCH, "hamming",
                [(241, 354), (234, 347)],
                "857ea97423c7e5fba2ef05b8c69a2cce"
                "98c3828d1ceef097ee297970f7ebf3ce",
            ),
        ],
    )
    def test_pairs_report_bytes(
        self, sbox_full, model, observation, pairs, digest
    ):
        evaluator = LeakageEvaluator(
            sbox_full.dut, model, seed=3, observation=observation
        )
        classes = evaluator.probe_classes
        widths = [
            classes[i].observation_bits + classes[j].observation_bits
            for i, j in pairs
        ]
        assert min(widths) > (63 if observation == "tuple" else 16)
        acc = HistogramAccumulator()
        n_lanes = evaluator.n_lanes_for(3_000, 2)
        evaluator.accumulate(
            acc, 0, n_lanes, 2, classes=(), pairs=pairs, pair_offsets=(0, 1)
        )
        keyed = {acc._tables[t][0] is not None for t in acc.table_ids()}
        assert keyed == {observation == "hamming"}
        report = evaluator.report(
            acc, 0, n_lanes * 2, classes=(), pairs=pairs, pair_offsets=(0, 1)
        )
        assert _digest(report) == digest


class TestReportPathPins:
    """Byte pins (kronecker/eq6, seed 3) of the one-shot report paths the
    pins above leave out: a class subset, whose table ids and rows follow
    the subset's order, and pair tables at two offsets given unsorted."""

    def test_class_subset_bytes(self, kronecker_eq6):
        evaluator = LeakageEvaluator(kronecker_eq6.dut, seed=3)
        report = evaluator.evaluate(
            n_simulations=8_000, probe_classes=evaluator.probe_classes[1::3]
        )
        assert len(report.results) == 31
        assert _digest(report) == (
            "7587900a246a9d30deeb5d3cbd1a12e5757e3df5258e9fcb3009a8b377ae63fb"
        )

    def test_pairs_at_two_offsets_bytes(self, kronecker_eq6):
        report = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH_TRANSITION, seed=3
        ).evaluate_pairs(
            n_simulations=6_000, n_windows=2, max_pairs=10,
            pair_offsets=(2, 0),
        )
        assert len(report.results) == 20
        assert _digest(report) == (
            "3e1b28382d2ba5bb0a80fc29aa40f3d1accebd3e2c3dd92078f4306f4f2b090a"
        )


# ------------------------------------------------------ batched executor

#: (cycle, net) planes the random specs draw from: few, so specs repeat
#: planes within and across themselves.
_PLANES = [(cycle, net) for cycle in range(3) for net in range(6)]


def _random_trace(n_lanes, seed):
    """A trace with random words on every plane (unused lanes too)."""
    rng = np.random.default_rng(seed)
    trace = Trace(n_lanes, range(6))
    for _ in range(3):
        trace.values.append({
            net: rng.integers(0, 2**64, (n_lanes + 63) // 64, np.uint64)
            for net in range(6)
        })
    return trace


@st.composite
def count_specs(draw, max_bits=24):
    """A CountSpec as the evaluators build them: positions 0..k-1 in
    every segment, hashed into ``2^hash_bits`` bins when wider."""
    n_bits = draw(st.integers(0, max_bits))
    segments = tuple(
        tuple(
            _PLANES[draw(st.integers(0, len(_PLANES) - 1))] + (position,)
            for position in range(n_bits)
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    hash_bits = draw(st.sampled_from([1, 10, 16]))
    if n_bits > hash_bits:
        return CountSpec(segments, True, 1 << hash_bits)
    return CountSpec(segments, False, 1 << n_bits)


def _reference_rows(trace, specs, hamming):
    """np.bincount of the single-spec executor, spec by spec."""
    return [
        np.bincount(
            _observe(trace, spec, {}, hamming).astype(np.intp),
            minlength=len(spec.segments[0]) + 1 if hamming else spec.n_bins,
        )
        for spec in specs
    ]


def _plan_rows(trace, specs, hamming=False):
    plan = _CountPlan(specs, hamming)
    counts = plan.count(trace)
    return [counts[start:stop] for start, stop in plan.bounds]


class TestBatchedExecutor:
    """_CountPlan rows == np.bincount(_observe(...)) for every spec."""

    @settings(deadline=None, max_examples=40)
    @given(
        specs=st.lists(count_specs(), min_size=1, max_size=12),
        n_lanes=st.sampled_from([1, 63, 64, 100, 848]),
        hamming=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_bincount_of_observe(
        self, specs, n_lanes, hamming, seed
    ):
        if hamming:
            specs = [
                CountSpec(s.segments, False, 1 << len(s.segments[0]))
                for s in specs
            ]
        trace = _random_trace(n_lanes, seed)
        for got, expected in zip(
            _plan_rows(trace, specs, hamming),
            _reference_rows(trace, specs, hamming),
        ):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_lanes", [848, 4096, 6000])
    def test_every_width_across_the_branch_boundary(self, n_lanes):
        """Key widths 0-24 (popcount up to POPCOUNT_MAX_BITS, lane keys
        above), 1-3 segments, hashed at 1/10/16 bits, planes repeated."""
        rng = np.random.default_rng(n_lanes)
        specs = []
        for n_bits in range(25):
            for n_segments in (1, 2, 3):
                segments = tuple(
                    tuple(
                        _PLANES[rng.integers(len(_PLANES))] + (p,)
                        for p in range(n_bits)
                    )
                    for _ in range(n_segments)
                )
                specs.append(CountSpec(segments, False, 1 << n_bits))
                for hash_bits in (1, 10, 16):
                    if n_bits > hash_bits:
                        specs.append(
                            CountSpec(segments, True, 1 << hash_bits)
                        )
        specs = [s for s in specs if s.n_bins <= 1 << 16]
        trace = _random_trace(n_lanes, 7)
        for got, expected, spec in zip(
            _plan_rows(trace, specs), _reference_rows(trace, specs, False),
            specs,
        ):
            assert np.array_equal(got, expected), spec
            assert got.sum() == n_lanes * len(spec.segments)

    def test_branch_rule(self):
        """Unhashed keys up to POPCOUNT_MAX_BITS wide count by popcount."""
        def spec(n_bits, hashed=False):
            segment = tuple(_PLANES[p] + (p,) for p in range(n_bits))
            return CountSpec((segment,), hashed, 1 << (2 if hashed else n_bits))

        plan = _CountPlan([
            spec(POPCOUNT_MAX_BITS),
            spec(POPCOUNT_MAX_BITS + 1),
            spec(3, hashed=True),
        ])
        branches = {rows.shape[2]: popcount
                    for popcount, *_, rows, _, _ in plan._executor.groups}
        assert branches == {
            POPCOUNT_MAX_BITS: True, POPCOUNT_MAX_BITS + 1: False, 3: False
        }
        assert not any(
            g[0] for g in _CountPlan([spec(2)], True)._executor.groups
        )

    def test_hamming_rows_are_bits_plus_one_wide(self):
        segment = tuple(_PLANES[p] + (p,) for p in range(12))
        plan = _CountPlan([CountSpec((segment, segment), False, 1 << 12)],
                          hamming=True)
        assert plan.bounds == [(0, 13)]
        trace = _random_trace(6000, 3)
        assert plan.count(trace).sum() == 2 * 6000

    def test_irregular_segments(self):
        """Gaps in the positions and segments of unequal length."""
        specs = [
            CountSpec((((0, 1, 0), (1, 2, 3)), ((2, 3, 1),)), False, 16),
            CountSpec((((0, 1, 0),), ()), False, 2),
            CountSpec((((0, 4, 5), (2, 0, 1)),), True, 8),
        ]
        trace = _random_trace(100, 11)
        for got, expected in zip(
            _plan_rows(trace, specs), _reference_rows(trace, specs, False)
        ):
            assert np.array_equal(got, expected)


# ------------------------------------------------------------ pair tables


def _combine(keys_a, keys_b, bits_a, bits_b, hash_bits):
    """The joint bins of two raw key arrays, by the per-pair formula pair
    tables were once counted with: the oracle of :class:`_PairPlan`."""
    total_bits = bits_a + bits_b
    if total_bits <= 63:
        joint = keys_a | (keys_b << np.uint64(bits_a))
    else:
        joint = _mix_hash(keys_a) ^ (
            _mix_hash(keys_b ^ np.uint64(0xA5A5A5A5A5A5A5A5))
        )
    return _bucket(joint, *_table_shape(total_bits, hash_bits))


def _check_pair_plan(trace, specs, bits, pairs, hamming, hash_bits):
    """Every dense row of a _PairPlan is np.bincount of the oracle's
    joint bins, and every keyed table gets exactly the oracle's bins."""
    plan = _PairPlan(specs, bits, pairs, hamming, hash_bits)
    out = np.zeros(plan.size, np.int64)
    keyed = {}

    def add(k, keys):
        assert k not in keyed
        keyed[k] = np.asarray(keys, np.uint64)

    plan.count(trace, out, add)
    raw = [
        _observe(trace, CountSpec(spec.segments, False, 0), {}, hamming)
        for spec in specs
    ]
    rows = dict(zip(plan.dense, plan.bounds))
    assert sorted([*rows, *keyed]) == list(range(len(pairs)))
    n_keys = trace.n_lanes * len(specs[0].segments)
    for k, (a, b) in enumerate(pairs):
        expected = _combine(raw[a], raw[b], bits[a], bits[b], hash_bits)
        if k in rows:
            start, stop = rows[k]
            assert np.array_equal(
                out[start:stop],
                np.bincount(expected.astype(np.intp), minlength=stop - start),
            ), (k, bits[a], bits[b])
            assert stop - start <= DENSE_KEY_LIMIT
        else:
            assert np.array_equal(keyed[k], expected), (k, bits[a], bits[b])
        assert expected.size == n_keys
    return plan, keyed


@st.composite
def pair_selections(draw):
    """Key specs as the evaluator builds them -- positions 0..k-1, one
    segment per window, every spec with the same window count -- their
    widths, and pairs of them."""
    n_segments = draw(st.integers(1, 3))
    specs, bits = [], []
    for _ in range(draw(st.integers(1, 5))):
        n_bits = draw(st.one_of(st.integers(0, 8), st.integers(9, 40)))
        specs.append(CountSpec(
            tuple(
                tuple(
                    _PLANES[draw(st.integers(0, len(_PLANES) - 1))]
                    + (position,)
                    for position in range(n_bits)
                )
                for _ in range(n_segments)
            ),
            False, 1 << n_bits,
        ))
        bits.append(n_bits)
    index = st.integers(0, len(specs) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    return specs, bits, pairs


class TestPairPlan:
    """_PairPlan rows == np.bincount of the per-pair joint keys."""

    @settings(deadline=None, max_examples=60)
    @given(
        selection=pair_selections(),
        n_lanes=st.sampled_from([1, 63, 100, 848]),
        hamming=st.booleans(),
        hash_bits=st.sampled_from([4, 10, 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_bincount_of_combined_keys(
        self, selection, n_lanes, hamming, hash_bits, seed
    ):
        specs, bits, pairs = selection
        _check_pair_plan(
            _random_trace(n_lanes, seed), specs, bits, pairs, hamming,
            None if hamming else hash_bits,
        )

    @pytest.mark.parametrize("hamming", [False, True])
    def test_every_branch(self, hamming):
        """Unhashed, hashed and mixed joint keys, dense and keyed rows,
        three windows and a partial lane word."""
        rng = np.random.default_rng(5)
        widths = [0, 3, 5, 8, 16, 33, 40]
        specs = [
            CountSpec(
                tuple(
                    tuple(
                        _PLANES[rng.integers(len(_PLANES))] + (p,)
                        for p in range(n_bits)
                    )
                    for _ in range(3)
                ),
                False, 1 << n_bits,
            )
            for n_bits in widths
        ]
        n = len(widths)
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        trace = _random_trace(1000, 9)
        shapes, n_dense, n_keyed = set(), 0, 0
        for hash_bits in ((None,) if hamming else (10, 20)):
            plan, keyed = _check_pair_plan(
                trace, specs, widths, pairs, hamming, hash_bits
            )
            shapes |= {
                _pair_shape(widths[a], widths[b], hamming, hash_bits)
                for a, b in pairs
            }
            n_dense += len(plan.dense)
            n_keyed += len(keyed)
        assert {s.mixed for s in shapes} == {False, True}
        assert {s.hashed for s in shapes} == {False, not hamming}
        assert n_dense and n_keyed
