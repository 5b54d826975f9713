"""Tests for the periodic-protocol leakage evaluator (full-core analysis)."""

import numpy as np
import pytest

from repro.core.aes_core import (
    ENCRYPTION_CYCLES,
    AesCoreHarness,
    build_masked_aes_core,
)
from repro.core.optimizations import RandomnessScheme
from repro.errors import SimulationError
from repro.leakage.model import ProbingModel
from repro.leakage.periodic import PeriodicLeakageEvaluator

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
N_LANES = 3_000


_CACHE = {}


def run_core_evaluation(scheme, seed_pair=(1, 2)):
    if scheme in _CACHE:
        return _CACHE[scheme]
    report = _run_core_evaluation(scheme, seed_pair)
    _CACHE[scheme] = report
    return report


def _run_core_evaluation(scheme, seed_pair):
    core = build_masked_aes_core(scheme)
    harness = AesCoreHarness(core)
    probe_nets = [
        c.output for c in core.netlist.cells if c.name.startswith("sb0.")
    ]
    evaluator = PeriodicLeakageEvaluator(
        core.netlist,
        ENCRYPTION_CYCLES,
        ProbingModel.GLITCH,
        probe_nets=probe_nets,
    )
    n_words = (N_LANES + 63) // 64
    # Fixed plaintext == key: round-1 S-box inputs are all 0x00, the
    # paper's worst-case fixed class at cipher level.
    stim_fixed = harness.bitsliced_stimulus(
        np.random.default_rng(seed_pair[0]), n_words, KEY, KEY
    )
    stim_random = harness.bitsliced_stimulus(
        np.random.default_rng(seed_pair[1]), n_words, KEY, None
    )
    return evaluator.evaluate(
        stim_fixed,
        stim_random,
        N_LANES,
        phases=[3, 4],
        n_periods=2,
        design_name=f"masked_aes_core_{scheme.value}",
    )


class TestFullCoreLeakage:
    def test_eq6_core_leaks_in_round_one_kronecker(self):
        report = run_core_evaluation(RandomnessScheme.DEMEYER_EQ6)
        assert not report.passed
        for result in report.leaking_results:
            assert "g7" in result.probe_names

    def test_fixed_core_passes(self):
        report = run_core_evaluation(RandomnessScheme.TRANSITION_R7_EQ_R1)
        assert report.passed

    def test_report_phases_recorded(self):
        report = run_core_evaluation(RandomnessScheme.TRANSITION_R7_EQ_R1)
        assert any("@phase3" in r.probe_names for r in report.results)
        assert any("@phase4" in r.probe_names for r in report.results)
        # every probe class evaluated once per phase
        assert len(report.results) % 2 == 0


class TestConfiguration:
    @pytest.mark.parametrize("hash_bits", [0, -3, 65, 10.0])
    def test_hash_bits_outside_1_to_64_rejected(
        self, kronecker_eq6, hash_bits
    ):
        with pytest.raises(SimulationError, match="hash_bits"):
            PeriodicLeakageEvaluator(
                kronecker_eq6.dut.netlist, 4, hash_bits=hash_bits
            )

    @pytest.mark.parametrize("hash_bits", [1, 64])
    def test_hash_bits_range_is_inclusive(self, kronecker_eq6, hash_bits):
        evaluator = PeriodicLeakageEvaluator(
            kronecker_eq6.dut.netlist, 4, hash_bits=hash_bits
        )
        assert evaluator.hash_bits == hash_bits


@pytest.fixture(scope="module")
def small_core():
    core = build_masked_aes_core(RandomnessScheme.DEMEYER_EQ6)
    probes = [
        c.output for c in core.netlist.cells if c.name.startswith("sb0.")
    ][:16]
    return core, AesCoreHarness(core), probes


class TestReportAccounting:
    """Every (probe class, phase) table must hold one sample per lane and
    period in each group before it may become a verdict."""

    @pytest.mark.parametrize("how", ["drop", "short", "double"])
    def test_tampered_table_never_reports(self, small_core, monkeypatch, how):
        import repro.leakage.periodic as periodic

        core, harness, probes = small_core
        g_test = periodic.g_test_counts_batch

        def tampered(tables, *args, **kwargs):
            tables = list(tables)
            fixed, random_ = (np.asarray(row) for row in tables[0])
            if how == "drop":
                del tables[0]
            elif how == "short":
                fixed = fixed.copy()
                fixed[np.flatnonzero(fixed)[0]] -= 1
                tables[0] = (fixed, random_)
            else:
                tables[0] = (fixed * 2, random_ * 2)
            return g_test(tables, *args, **kwargs)

        monkeypatch.setattr(periodic, "g_test_counts_batch", tampered)
        evaluator = PeriodicLeakageEvaluator(
            core.netlist, ENCRYPTION_CYCLES, ProbingModel.GLITCH,
            probe_nets=probes,
        )
        fixed, random_ = (
            harness.bitsliced_stimulus(
                np.random.default_rng(seed), 2, KEY, plaintext
            )
            for seed, plaintext in ((3, KEY), (4, None))
        )
        with pytest.raises(SimulationError, match="tables tested|evidence"):
            evaluator.evaluate(fixed, random_, 128, phases=[3])
