"""G-test (log-likelihood ratio) on fixed-vs-random contingency tables.

PROLEAD's statistical back-end compares the distribution of each probe
observation between the fixed and the random input groups with a G-test and
reports ``-log10(p)``; an observation is flagged leaky when the p-value
drops below 1e-5 (``-log10(p) > 5``).  We reproduce that, including pooling
of rare table cells so the chi-square approximation stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import special

#: PROLEAD's default detection threshold on -log10(p).
DEFAULT_THRESHOLD = 5.0

#: Reported -log10(p) is capped here (:func:`chi2_logsf` underflows
#: beyond).
MLOG10P_CAP = 100_000.0

_LN10 = float(np.log(10.0))

#: Observation keys below this bound are histogrammed densely (bin index ==
#: key); bucketed observations are < 2^hash_bits, far below it.
DENSE_KEY_LIMIT = 1 << 16


def chi2_logsf(g, dof):
    """``log`` of the chi-square survival function at ``g`` with ``dof``
    degrees of freedom: ``scipy.stats.chi2.logsf(g, dof)``, bit for bit.

    It makes the ufunc calls scipy's ``rv_continuous.logsf`` makes, so
    the ``scipy.stats`` import (about a second per process) is never
    paid.  Above the median ``2 * gammaincinv(dof / 2, 0.5)`` it is
    ``log(chdtrc)``, which keeps precision for astronomically small
    p-values (strong leaks); at or below it ``log1p(-chdtr)``.  As in
    scipy, ``g <= 0`` gives 0.0, NaN gives NaN and ``+inf`` gives
    ``-inf``.  Scalars give a numpy scalar, arrays an array.
    """
    g = np.asarray(g, dtype=np.float64)
    median = 2 * special.gammaincinv(np.divide(dof, 2), 0.5)
    with np.errstate(divide="ignore"):
        out = np.where(
            g > median,
            np.log(special.chdtrc(dof, g)),
            np.log1p(-special.chdtr(dof, g)),
        )
    out = np.where(g < np.inf, out, -np.inf)
    out = np.where(g > 0, out, np.where(g <= 0, 0.0, np.nan))
    return out[()]


def occupied_cells(
    counts_fixed: np.ndarray, counts_random: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(indices, fixed, random)`` of the cells either group observed.

    The one filter between a count table and the G-test: cells empty in
    both groups carry no evidence and are dropped, the rest keep their
    order and come out as float64.
    """
    indices = np.flatnonzero((counts_fixed + counts_random) > 0)
    return (
        indices,
        counts_fixed[indices].astype(np.float64),
        counts_random[indices].astype(np.float64),
    )


@dataclass(frozen=True)
class GTestResult:
    """Outcome of one fixed-vs-random G-test."""

    g_statistic: float
    dof: int
    mlog10p: float
    n_categories: int
    n_fixed: int
    n_random: int

    def is_leaking(self, threshold: float = DEFAULT_THRESHOLD) -> bool:
        """Leakage verdict at a -log10(p) threshold."""
        return self.mlog10p > threshold


def _histogram_counts(
    keys_fixed: np.ndarray, keys_random: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Aligned per-category counts of the two groups (ascending key)."""
    n_fixed = int(keys_fixed.size)
    key_max = int(max(keys_fixed.max(), keys_random.max()))
    key_min = int(min(keys_fixed.min(), keys_random.min()))
    if 0 <= key_min and key_max < DENSE_KEY_LIMIT:
        # Dense small-range keys (e.g. hashed observations): direct
        # bincount beats the sort inside np.unique.  Categories come out
        # in the same ascending-key order, so the statistics are
        # bit-identical to the generic path.
        length = key_max + 1
        cf = np.bincount(keys_fixed.astype(np.intp), minlength=length)
        cr = np.bincount(keys_random.astype(np.intp), minlength=length)
        return occupied_cells(cf, cr)[1:]

    pooled = np.concatenate([keys_fixed, keys_random])
    _, inverse, total_counts = np.unique(
        pooled, return_inverse=True, return_counts=True
    )
    counts_fixed = np.bincount(
        inverse[:n_fixed], minlength=total_counts.size
    ).astype(np.float64)
    counts_random = (total_counts - counts_fixed).astype(np.float64)
    return counts_fixed, counts_random


def g_test(
    keys_fixed: np.ndarray,
    keys_random: np.ndarray,
    min_expected: float = 5.0,
) -> GTestResult:
    """G-test over the observation histograms of the two groups.

    ``keys_*`` are integer-encoded observations (one entry per simulation).
    Cells whose pooled count is below ``2 * min_expected`` are merged into a
    single rare-cell bin before testing.
    """
    n_fixed = int(keys_fixed.size)
    n_random = int(keys_random.size)
    if n_fixed == 0 or n_random == 0:
        return GTestResult(0.0, 0, 0.0, 0, n_fixed, n_random)
    counts_fixed, counts_random = _histogram_counts(
        keys_fixed, keys_random
    )
    return g_test_from_counts(counts_fixed, counts_random, min_expected)


def _g_batch_from_compact(
    compact: "list[tuple[np.ndarray, np.ndarray]]",
    min_expected: float,
) -> "list[tuple[float, int, int, int, int]]":
    """Vectorized G statistics for compacted (occupied-cell) count pairs.

    Rows where either group is empty short-circuit exactly like the
    scalar path (G=0, dof=0, zero reported categories).  Live rows are
    concatenated into flat cell arrays and reduced per row with
    ``np.add.reduceat``, so the work is proportional to the number of
    occupied cells -- no padding to the widest test.  Per-row semantics
    (pooling rule, degenerate-row handling) match
    :func:`_g_from_counts`; only the floating-point summation order
    differs, which is why both batch entry points below share this core
    -- equal tables in, bit-equal statistics out, regardless of which
    evaluator path built the tables.
    """
    results: "list[tuple[float, int, int, int, int]]" = [
        (0.0, 0, 0, 0, 0)
    ] * len(compact)
    live = []
    for index, (cf, cr) in enumerate(compact):
        n_fixed = int(cf.sum())
        n_random = int(cr.sum())
        if n_fixed == 0 or n_random == 0:
            results[index] = (0.0, 0, 0, n_fixed, n_random)
        else:
            live.append(index)
    if not live:
        return results
    lengths = np.asarray(
        [compact[i][0].size for i in live], dtype=np.int64
    )
    offsets = np.zeros(len(live), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    flat_f = np.concatenate([compact[i][0] for i in live])
    flat_r = np.concatenate([compact[i][1] for i in live])
    tot = flat_f + flat_r
    keep = tot >= 2.0 * min_expected
    nf = np.add.reduceat(flat_f, offsets)
    nr = np.add.reduceat(flat_r, offsets)
    pooled_f = np.add.reduceat(np.where(keep, 0.0, flat_f), offsets)
    pooled_r = np.add.reduceat(np.where(keep, 0.0, flat_r), offsets)
    pooled_tot = pooled_f + pooled_r
    ncat = (
        np.add.reduceat(keep.astype(np.int64), offsets)
        + (pooled_tot > 0)
    )
    grand = nf + nr
    g = np.zeros(len(live), dtype=np.float64)
    for obs, pooled_obs, group_total in (
        (flat_f, pooled_f, nf),
        (flat_r, pooled_r, nr),
    ):
        frac = group_total / grand
        expected = tot * np.repeat(frac, lengths)
        mask = keep & (obs > 0)
        ratio = np.where(mask, obs, 1.0) / np.where(mask, expected, 1.0)
        g += 2.0 * np.add.reduceat(
            np.where(mask, obs * np.log(ratio), 0.0), offsets
        )
        pmask = pooled_obs > 0
        pexp = pooled_tot * frac
        pratio = (
            np.where(pmask, pooled_obs, 1.0) / np.where(pmask, pexp, 1.0)
        )
        g += 2.0 * np.where(pmask, pooled_obs * np.log(pratio), 0.0)
    # Live rows have both group totals > 0; only the category floor can
    # still void a test.
    testable = ncat >= 2
    g = np.where(testable, g, 0.0)
    dof = np.where(testable, ncat - 1, 0)
    for row, index in enumerate(live):
        results[index] = (
            float(g[row]), int(dof[row]), int(ncat[row]),
            int(nf[row]), int(nr[row]),
        )
    return results


def _finish_batch(
    partial: "list[tuple[float, int, int, int, int]]",
) -> "list[GTestResult]":
    """One vectorized :func:`chi2_logsf` pass over (G, dof, ...) tuples."""
    g_values = np.asarray([p[0] for p in partial], dtype=np.float64)
    dofs = np.asarray([p[1] for p in partial], dtype=np.int64)
    mlog10p = np.zeros(len(partial), dtype=np.float64)
    testable = dofs >= 1
    if np.any(testable):
        mlog10p[testable] = (
            -chi2_logsf(g_values[testable], dofs[testable]) / _LN10
        )
    mlog10p = np.minimum(mlog10p, MLOG10P_CAP)
    return [
        GTestResult(g, dof, float(m), ncat, nf, nr)
        for (g, dof, ncat, nf, nr), m in zip(partial, mlog10p)
    ]


def g_test_batch(
    pairs: "Iterable[tuple[np.ndarray, np.ndarray]]",
    min_expected: float = 5.0,
) -> "list[GTestResult]":
    """Many G-tests with vectorized statistics and p-value passes.

    Semantically ``[g_test(kf, kr) for kf, kr in pairs]``: identical
    contingency tables, pooling and verdicts; G itself may differ from
    the scalar function in the last bits because the stacked core sums
    per-cell terms in a different order.  What is exact is the contract
    the engine ladder relies on: this function and
    :func:`g_test_counts_batch` share one core, so any two evaluator
    paths that produce the same histograms report bit-identical
    statistics.  ``pairs`` may be a generator: it is consumed once, and
    each key array can be freed as soon as its histogram is taken.
    """
    compact = []
    for kf, kr in pairs:
        if kf.size == 0 or kr.size == 0:
            # Degenerate group: record sizes without histogramming
            # (mirrors the scalar short-circuit in g_test).
            compact.append((
                np.full(1, float(kf.size)),
                np.full(1, float(kr.size)),
            ))
            continue
        compact.append(_histogram_counts(kf, kr))
    return _finish_batch(_g_batch_from_compact(compact, min_expected))


def g_test_counts_batch(
    pairs: "Iterable[tuple[np.ndarray, np.ndarray]]",
    min_expected: float = 5.0,
) -> "list[GTestResult]":
    """Many G-tests straight from dense per-bin count tables.

    ``pairs`` yields ``(counts_fixed, counts_random)`` -- aligned dense
    histograms (bin index == observation key).  Each pair goes through
    the same empty-bin filter the dense branch of
    :func:`_histogram_counts` applies and then the same stacked core
    and batched p-value pass as :func:`g_test_batch`, so the results
    are bit-identical to histogramming the raw key arrays -- the G-test
    only ever sees the contingency table.
    """
    compact = [
        occupied_cells(np.asarray(cf), np.asarray(cr))[1:]
        for cf, cr in pairs
    ]
    return _finish_batch(_g_batch_from_compact(compact, min_expected))


def g_test_from_counts(
    counts_fixed: np.ndarray,
    counts_random: np.ndarray,
    min_expected: float = 5.0,
) -> GTestResult:
    """G-test from per-category counts (one pair of cells per category).

    The categories must be aligned between the two arrays and sorted by
    observation key; histograms accumulated incrementally over chunks then
    produce bit-identical statistics to a single :func:`g_test` pass over
    the concatenated observations, because the G-test only ever sees the
    contingency table.
    """
    g, dof, n_categories, n_fixed, n_random = _g_from_counts(
        np.asarray(counts_fixed, dtype=np.float64),
        np.asarray(counts_random, dtype=np.float64),
        min_expected,
    )
    if dof < 1:
        return GTestResult(g, dof, 0.0, n_categories, n_fixed, n_random)
    # A cap keeps the result finite when even the log p-value underflows.
    mlog10p = float(-chi2_logsf(g, dof) / _LN10)
    mlog10p = min(mlog10p, MLOG10P_CAP)
    return GTestResult(g, dof, mlog10p, n_categories, n_fixed, n_random)


def _g_from_counts(
    counts_fixed: np.ndarray,
    counts_random: np.ndarray,
    min_expected: float,
) -> "tuple[float, int, int, int, int]":
    """(G, dof, n_categories, n_fixed, n_random) from aligned counts."""
    n_fixed = int(counts_fixed.sum())
    n_random = int(counts_random.sum())
    if n_fixed == 0 or n_random == 0:
        return (0.0, 0, 0, n_fixed, n_random)

    total_counts = counts_fixed + counts_random
    keep = total_counts >= 2.0 * min_expected
    if not np.all(keep):
        rare_fixed = counts_fixed[~keep].sum()
        rare_random = counts_random[~keep].sum()
        counts_fixed = np.append(counts_fixed[keep], rare_fixed)
        counts_random = np.append(counts_random[keep], rare_random)
        nonempty = (counts_fixed + counts_random) > 0
        counts_fixed = counts_fixed[nonempty]
        counts_random = counts_random[nonempty]

    n_categories = counts_fixed.size
    if n_categories < 2:
        return (0.0, 0, n_categories, n_fixed, n_random)

    total = counts_fixed + counts_random
    grand_total = float(n_fixed + n_random)
    g = 0.0
    for counts, group_total in (
        (counts_fixed, float(n_fixed)),
        (counts_random, float(n_random)),
    ):
        expected = total * (group_total / grand_total)
        observed = counts
        mask = observed > 0
        g += 2.0 * float(
            np.sum(observed[mask] * np.log(observed[mask] / expected[mask]))
        )
    return (g, n_categories - 1, n_categories, n_fixed, n_random)
