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
    _CountPlan,
    _mix_hash,
    _observe,
)
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
        report = evaluator.batched_report(
            acc, 0, n_lanes * 2, pairs, (0, 1)
        )
        assert _digest(report) == digest


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
