"""Tests for the G-test statistics."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2

from repro.leakage import gtest
from repro.leakage.gtest import (
    DEFAULT_THRESHOLD,
    MLOG10P_CAP,
    chi2_logsf,
    g_test,
)


class TestNullBehaviour:
    def test_identical_distributions_not_flagged(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 16, size=50_000).astype(np.uint64)
        b = rng.integers(0, 16, size=50_000).astype(np.uint64)
        result = g_test(a, b)
        assert not result.is_leaking()
        assert result.mlog10p < 4.0

    def test_null_uniformity_over_many_runs(self):
        """Under the null, -log10(p) rarely exceeds 2 in 20 runs."""
        rng = np.random.default_rng(1)
        exceed = 0
        for _ in range(20):
            a = rng.integers(0, 8, size=5_000).astype(np.uint64)
            b = rng.integers(0, 8, size=5_000).astype(np.uint64)
            if g_test(a, b).mlog10p > 2.0:
                exceed += 1
        assert exceed <= 4

    def test_empty_input(self):
        result = g_test(np.array([], dtype=np.uint64), np.array([1], dtype=np.uint64))
        assert result.mlog10p == 0.0
        assert result.dof == 0

    def test_single_category(self):
        a = np.zeros(1000, dtype=np.uint64)
        b = np.zeros(1000, dtype=np.uint64)
        result = g_test(a, b)
        assert result.dof == 0
        assert result.mlog10p == 0.0


class TestDetection:
    def test_strong_bias_detected(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, size=20_000).astype(np.uint64)
        b = (rng.random(20_000) < 0.6).astype(np.uint64)
        result = g_test(a, b)
        assert result.is_leaking()
        assert result.mlog10p > DEFAULT_THRESHOLD

    def test_detection_strengthens_with_samples(self):
        rng = np.random.default_rng(3)
        scores = []
        for n in (2_000, 20_000, 200_000):
            a = rng.integers(0, 2, size=n).astype(np.uint64)
            b = (rng.random(n) < 0.55).astype(np.uint64)
            scores.append(g_test(a, b).mlog10p)
        assert scores[0] < scores[1] < scores[2]

    def test_deterministic_difference_capped(self):
        a = np.zeros(100_000, dtype=np.uint64)
        b = np.ones(100_000, dtype=np.uint64)
        result = g_test(a, b)
        assert result.mlog10p <= MLOG10P_CAP
        assert result.mlog10p > 1000

    def test_custom_threshold(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, size=5_000).astype(np.uint64)
        b = (rng.random(5_000) < 0.53).astype(np.uint64)
        result = g_test(a, b)
        assert result.is_leaking(threshold=0.5) or result.mlog10p <= 0.5


class TestPooling:
    def test_rare_categories_pooled(self):
        rng = np.random.default_rng(5)
        # 1000 samples over 500 categories: nearly everything is rare.
        a = rng.integers(0, 500, size=1_000).astype(np.uint64)
        b = rng.integers(0, 500, size=1_000).astype(np.uint64)
        result = g_test(a, b)
        # After pooling the table must be tiny and the test quiet.
        assert result.n_categories < 50
        assert not result.is_leaking()

    def test_dof_matches_categories(self):
        a = np.array([0] * 500 + [1] * 500, dtype=np.uint64)
        b = np.array([0] * 400 + [1] * 600, dtype=np.uint64)
        result = g_test(a, b)
        assert result.dof == result.n_categories - 1 == 1

    def test_counts_recorded(self):
        a = np.zeros(10, dtype=np.uint64)
        b = np.zeros(20, dtype=np.uint64)
        result = g_test(a, b)
        assert result.n_fixed == 10
        assert result.n_random == 20


#: Degrees of freedom of the p-value oracle checks.
DOFS = list(range(1, 1101)) + [65_535]


def _bits(values) -> np.ndarray:
    """Bit patterns, so that NaN payloads and the sign of zero count."""
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64)


def _points(dof: int) -> list:
    """G values around every branch of ``chi2.logsf`` at ``dof``."""
    median = 2 * special.gammaincinv(dof / 2, 0.5)
    return [
        0.0, -0.0, -1e-12, 5e-324, -np.inf, np.inf, np.nan,
        np.nextafter(median, 0.0), median, np.nextafter(median, np.inf),
        0.5 * dof, 2.0 * dof, 10.0 * dof + 100.0,
        1e3, 3e4, 1e5, 1e6, 1e7,
    ]


class TestChi2Logsf:
    """``chi2_logsf`` is ``scipy.stats.chi2.logsf`` without importing
    ``scipy.stats``: equal bit for bit, the oracle kept here."""

    def test_scalars_match_scipy_bit_for_bit(self):
        mismatches = [
            (g, dof)
            for dof in DOFS
            for g in _points(dof)
            if _bits(chi2_logsf(g, dof)) != _bits(chi2.logsf(g, dof))
        ]
        assert mismatches == []

    def test_scalar_in_scalar_out(self):
        assert np.ndim(chi2_logsf(3.0, 2)) == 0
        assert np.ndim(chi2_logsf(np.float64(3.0), np.int64(2))) == 0

    def test_arrays_match_scipy_bit_for_bit(self):
        g = np.concatenate([_points(dof) for dof in DOFS])
        dof = np.repeat(DOFS, len(_points(1)))
        rng = np.random.default_rng(0)
        g = np.concatenate([g, rng.uniform(0.0, 3_000.0, 100_000)])
        dof = np.concatenate([dof, rng.integers(1, 1_101, 100_000)])
        ours = chi2_logsf(g, dof)
        assert ours.shape == g.shape
        assert np.array_equal(_bits(ours), _bits(chi2.logsf(g, dof)))

    def test_far_tail_is_capped(self):
        """Where the log p-value underflows, -log10(p) is the cap."""
        assert chi2_logsf(1e7, 3) == -np.inf
        results = gtest._finish_batch(
            [(1e7, 3, 4, 10, 10), (1e3, 3, 4, 10, 10)]
        )
        assert results[0].mlog10p == MLOG10P_CAP
        assert 0 < results[1].mlog10p < MLOG10P_CAP

    def test_product_imports_no_scipy_stats(self):
        """Importing ``scipy.stats`` costs most of a second and tens of
        MiB per process; no product module imports it."""
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.service\n"
            "import repro.leakage.campaign, repro.service.runner\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['scipy', 'stats']))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"
