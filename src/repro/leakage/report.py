"""Leakage report structures and formatting (PROLEAD-style output)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

#: Version of every machine-readable dict/JSON this package emits
#: (:meth:`LeakageReport.to_dict`, the self-check coverage matrix, the
#: service wire format).  Bumped on any incompatible field change so
#: long-lived consumers -- dashboards, the verdict cache -- can refuse
#: records they do not understand.
#:
#: Version history:
#:
#: * 1 -- initial machine-readable report/job-record format.
#: * 2 -- adaptive per-probe scheduling: reports gain an optional
#:   ``"adaptive"`` object (per-probe decisions, mixed per-probe sample
#:   counts, budget savings); ``/healthz`` gains ``api_version``.
SCHEMA_VERSION = 2


def _result_row(result) -> Dict:
    """A frozen result dataclass as a plain dict in field order.

    Result rows hold only immutable values (names, numbers, a tuple of
    support names), so this shallow copy serializes exactly like
    ``dataclasses.asdict``'s recursive deep copy, at a fraction of its
    cost on reports with thousands of rows.
    """
    return {f.name: getattr(result, f.name) for f in fields(result)}


@dataclass(frozen=True)
class ProbeResult:
    """Result for one probe class."""

    probe_names: str
    support_names: Tuple[str, ...]
    n_samples: int
    g_statistic: float
    dof: int
    mlog10p: float
    leaking: bool

    def format_row(self) -> str:
        """One summary line for this probe."""
        flag = "LEAK" if self.leaking else "ok"
        return (
            f"{flag:<5} -log10(p)={self.mlog10p:9.2f}  dof={self.dof:<5} "
            f"probe={self.probe_names}"
        )


@dataclass
class LeakageReport:
    """Full outcome of a fixed-vs-random evaluation."""

    design: str
    model: str
    fixed_secret: int
    n_simulations: int
    threshold: float
    results: List[ProbeResult] = field(default_factory=list)
    skipped_probes: List[str] = field(default_factory=list)
    #: per-skip budget detail: one ``{"probe", "support_bits",
    #: "observation_bits", "budget"}`` entry per probe class excluded from
    #: evaluation because its support exceeds the evaluator's
    #: ``max_support_bits`` (or its observation exceeds 63 bits).  Present
    #: in :meth:`to_dict` as ``"skipped"`` only when non-empty, so reports
    #: of fully-evaluated designs stay byte-identical to earlier versions.
    skipped_detail: List[Dict] = field(default_factory=list)
    #: "complete", or "truncated:<reason>" when a campaign stopped early
    #: (time/memory budget, decisive early abort).
    status: str = "complete"
    #: adaptive-scheduler outcome (:meth:`AdaptiveScheduler.summary`):
    #: per-probe decisions and mixed per-probe sample counts.  ``None``
    #: for uniform-budget evaluations -- and then absent from
    #: :meth:`to_dict`, keeping uniform reports identical to earlier
    #: versions apart from the schema bump.
    adaptive: Optional[Dict] = None
    #: graceful-degradation provenance: one ``{"kind", "detail"}`` entry
    #: per ladder step taken while producing this report (parallel pool
    #: fell back to serial, compiled kernel fell back to bitsliced, ...).
    #: Execution provenance, not a statistical result: the verdict bytes
    #: are bit-identical with or without degradation, so :meth:`to_dict`
    #: omits this by default (``provenance=True`` includes it) and the
    #: cached/compared report JSON stays invariant across machines.
    degradations: List[Dict] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        """True when the evaluation stopped before the requested samples."""
        return self.status != "complete"

    @property
    def leaking_results(self) -> List[ProbeResult]:
        """Probe results flagged as leaking."""
        return [r for r in self.results if r.leaking]

    @property
    def passed(self) -> bool:
        """True when no evaluated probe exceeded the threshold."""
        return not self.leaking_results

    @property
    def max_mlog10p(self) -> float:
        """Worst (largest) -log10(p) across all probes."""
        return max((r.mlog10p for r in self.results), default=0.0)

    @property
    def worst(self) -> Optional[ProbeResult]:
        """The probe result with the largest -log10(p)."""
        if not self.results:
            return None
        return max(self.results, key=lambda r: r.mlog10p)

    def to_dict(
        self, top: Optional[int] = None, provenance: bool = False
    ) -> Dict:
        """Machine-readable form (for JSON dashboards / CI gating).

        ``provenance=True`` additionally includes the ``degradations``
        execution provenance; the default excludes it so the serialized
        verdict is byte-identical across execution environments (which the
        content-addressed cache and the chaos golden comparison rely on).
        """
        ranked = sorted(self.results, key=lambda r: -r.mlog10p)
        if top is not None:
            ranked = ranked[:top]
        out = {
            "schema_version": SCHEMA_VERSION,
            "design": self.design,
            "model": self.model,
            "fixed_secret": self.fixed_secret,
            "n_simulations": self.n_simulations,
            "threshold": self.threshold,
            "status": self.status,
            "passed": self.passed,
            "max_mlog10p": self.max_mlog10p,
            "n_probe_classes": len(self.results),
            "n_skipped": len(self.skipped_probes),
            "results": [_result_row(r) for r in ranked],
        }
        if self.skipped_detail:
            out["skipped"] = list(self.skipped_detail)
        if self.adaptive is not None:
            out["adaptive"] = self.adaptive
        if provenance and self.degradations:
            out["degradations"] = list(self.degradations)
        return out

    def to_json(self, top: Optional[int] = None, indent: int = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(top), indent=indent)

    def format_summary(self, top: int = 10) -> str:
        """Human-readable report, worst probes first."""
        verdict = "PASS (no leakage detected)" if self.passed else "FAIL (leakage)"
        if self.truncated and self.passed:
            verdict = "INCONCLUSIVE (truncated before completion)"
        lines = [
            f"=== Leakage evaluation: {self.design} ===",
            f"  model:        {self.model}",
            f"  fixed secret: 0x{self.fixed_secret:02X}",
            f"  simulations:  {self.n_simulations}"
            + (f" [{self.status}]" if self.truncated else ""),
            f"  threshold:    -log10(p) > {self.threshold:g}",
            f"  probe classes evaluated: {len(self.results)}"
            + (f" (skipped {len(self.skipped_probes)} wide)" if self.skipped_probes else ""),
            f"  verdict:      {verdict}",
        ]
        for entry in self.skipped_detail[:3]:
            lines.append(
                f"  skipped:      {entry.get('probe')} -- support "
                f"{entry.get('support_bits')} bits > budget "
                f"{entry.get('budget')}"
            )
        if self.adaptive is not None:
            savings = self.adaptive.get("probe_sample_savings")
            lines.append(
                "  adaptive:     "
                f"{self.adaptive['decided_leaky']} leaky / "
                f"{self.adaptive['decided_null']} null / "
                f"{self.adaptive['undecided']} undecided"
                + (f", {savings}x probe-sample savings" if savings else "")
            )
        for entry in self.degradations:
            lines.append(
                f"  degraded:     {entry.get('kind')} -- {entry.get('detail')}"
            )
        ranked = sorted(self.results, key=lambda r: -r.mlog10p)
        for result in ranked[:top]:
            lines.append("  " + result.format_row())
        return "\n".join(lines)
