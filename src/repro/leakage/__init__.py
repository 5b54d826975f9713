"""PROLEAD-style leakage evaluation.

Implements the evaluation methodology of the paper's Section III on our
netlist IR:

* :mod:`repro.leakage.dut` -- the design-under-test protocol (which inputs
  are secret shares, fresh masks, or fresh mask bytes).
* :mod:`repro.leakage.model` -- the probing models (glitch-extended,
  glitch+transition-extended).
* :mod:`repro.leakage.probes` -- probe extraction and deduplication.
* :mod:`repro.leakage.traces` -- bitsliced fixed-vs-random trace generation.
* :mod:`repro.leakage.gtest` -- contingency-table G-tests with rare-bin
  pooling, reporting -log10(p) like PROLEAD.
* :mod:`repro.leakage.evaluator` -- the Monte-Carlo evaluator.
* :mod:`repro.leakage.campaign` -- chunked, checkpointable evaluation
  campaigns over the evaluator (resume, budgets, early stop).
* :mod:`repro.leakage.durable` -- crash-safe files: atomic writes, the
  checkpoint container, generation fallback and quarantine.
* :mod:`repro.leakage.adaptive` -- per-probe adaptive scheduling: decide
  easy probes early, prune them, spend the budget on uncertain ones.
* :mod:`repro.leakage.faults` -- fault-injection self-validation: the
  evaluator must flag known-broken mutants and pass the clean design.
* :mod:`repro.leakage.exact` -- exact (SILVER-style) distribution analysis by
  exhaustive randomness enumeration for small supports.
* :mod:`repro.leakage.certify` -- exact verification at scale: sharded
  exhaustive enumeration across worker processes (bit-identical to serial,
  checkpointable) and compositional (S)NI/PINI certificates over the
  netlist's gadget decomposition with exact-enumeration fallback.
"""

from repro.leakage.adaptive import (
    AdaptiveConfig,
    AdaptiveScheduler,
    ProbeState,
)
from repro.leakage.campaign import (
    CampaignConfig,
    EvaluationCampaign,
    run_campaign,
)
from repro.leakage.certify import (
    CertificateReport,
    CompositionalChecker,
    ShardedExactAnalyzer,
    run_exact_analysis,
)
from repro.leakage.dut import DesignUnderTest
from repro.leakage.faults import FaultSpec, SelfCheckMatrix, run_self_check
from repro.leakage.model import ProbingModel
from repro.leakage.probes import ProbeClass, extract_probe_classes
from repro.leakage.gtest import g_test, g_test_from_counts
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.exact import ExactAnalyzer
from repro.leakage.periodic import PeriodicLeakageEvaluator
from repro.leakage.report import LeakageReport, ProbeResult
from repro.leakage.sni import GadgetSpec, SniChecker

__all__ = [
    "AdaptiveConfig",
    "AdaptiveScheduler",
    "CampaignConfig",
    "ProbeState",
    "DesignUnderTest",
    "EvaluationCampaign",
    "FaultSpec",
    "HistogramAccumulator",
    "ProbingModel",
    "ProbeClass",
    "SelfCheckMatrix",
    "extract_probe_classes",
    "g_test",
    "g_test_from_counts",
    "run_campaign",
    "run_self_check",
    "LeakageEvaluator",
    "PeriodicLeakageEvaluator",
    "ExactAnalyzer",
    "CertificateReport",
    "CompositionalChecker",
    "ShardedExactAnalyzer",
    "run_exact_analysis",
    "LeakageReport",
    "ProbeResult",
    "GadgetSpec",
    "SniChecker",
]
