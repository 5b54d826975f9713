"""Tests for the exact (SILVER-style) distribution analyzer.

These are the deterministic reproductions of the paper's core verdicts: no
Monte-Carlo noise, every randomness assignment enumerated.
"""

import numpy as np
import pytest

from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.errors import ExactAnalysisInfeasible
from repro.leakage.exact import ExactAnalyzer, _shard_patterns
from repro.leakage.model import ProbingModel
from repro.netlist.simulate import unpack_lanes


def v_node_results(scheme, nodes=("v1",)):
    design = build_kronecker_delta(scheme)
    analyzer = ExactAnalyzer(design.dut)
    results = {}
    for name in nodes:
        pc = analyzer.probe_class_for_net(design.v_nodes[name])
        results[name] = analyzer.analyze_probe_class(pc)
    return results


class TestEnumPattern:
    @pytest.mark.parametrize("index", [0, 1, 3, 5, 6, 7, 10])
    def test_pattern_bits(self, index):
        n_lanes = 1 << 11
        words = _shard_patterns(11, 11, 0)[index]
        bits = unpack_lanes(words, n_lanes)
        expected = (np.arange(n_lanes) >> index) & 1
        assert (bits == expected).all()


class TestPaperVerdictsExact:
    """Section III / IV verdicts, exactly."""

    def test_full_scheme_v1_secure(self):
        result = v_node_results(RandomnessScheme.FULL)["v1"]
        assert not result.leaking
        assert result.tv_fixed_vs_random == 0.0
        assert result.n_distinct_distributions == 1

    def test_demeyer_eq6_v_nodes_leak(self):
        results = v_node_results(
            RandomnessScheme.DEMEYER_EQ6, nodes=("v1", "v2", "v3", "v4")
        )
        for name, result in results.items():
            assert result.leaking, name
            assert result.tv_fixed_vs_random > 0.0

    def test_single_reuse_r1_r3_leaks(self):
        result = v_node_results(RandomnessScheme.FIRST_LAYER_R1R3)["v1"]
        assert result.leaking

    def test_second_layer_reuse_leaks(self):
        result = v_node_results(RandomnessScheme.SECOND_LAYER_R5R6)["v1"]
        assert result.leaking

    def test_proposed_eq9_v1_secure(self):
        result = v_node_results(RandomnessScheme.PROPOSED_EQ9)["v1"]
        assert not result.leaking

    def test_transition_solution_glitch_secure(self):
        result = v_node_results(RandomnessScheme.TRANSITION_R7_EQ_R3)["v1"]
        assert not result.leaking


class TestFullSweep:
    def test_eq6_leaks_localized_to_g7(self):
        """Only the G7 region shows exact leakage, as the paper reports."""
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
        report = analyzer.analyze()
        assert not report.passed
        for result in report.leaking_results:
            assert "g7" in result.probe_names

    def test_full_scheme_entirely_secure(self):
        design = build_kronecker_delta(RandomnessScheme.FULL)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
        report = analyzer.analyze()
        assert report.passed
        assert not report.infeasible  # all probes enumerable at this size
        text = report.format_summary()
        assert "SECURE" in text


class TestBudget:
    def test_infeasible_probe_raises(self):
        design = build_kronecker_delta(RandomnessScheme.FULL)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=4)
        pc = analyzer.probe_class_for_net(design.v_nodes["v1"])
        with pytest.raises(ExactAnalysisInfeasible):
            analyzer.analyze_probe_class(pc)

    def test_infeasible_reported_not_raised_in_sweep(self):
        design = build_kronecker_delta(RandomnessScheme.FULL)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=4)
        report = analyzer.analyze()
        assert report.infeasible


class TestResultMetadata:
    def test_random_bit_counts_recorded(self):
        result = v_node_results(RandomnessScheme.FULL)["v1"]
        # 8 share bits + r1..r4 + r5, r6 = 14 free random bits.
        assert result.n_random_bits == 14
        assert result.n_secret_bits == 8

    def test_format_row(self):
        result = v_node_results(RandomnessScheme.DEMEYER_EQ6)["v1"]
        row = result.format_row()
        assert "LEAK" in row
        assert "tv(fixed,rand)" in row
