"""Adaptive per-probe evaluation scheduling.

E9 in ``EXPERIMENTS.md`` shows why uniform sample budgets are the cost wall
of Monte-Carlo leakage evaluation: the paper's central leaks (Eq. (6),
r1=r3) are statistically decisive below 5 k simulations, while secure
designs need the full budget only to *build confidence* -- yet a uniform
campaign spends the same budget on every one of the ~92 Kronecker probe
classes (720 for the full S-box, plus hundreds of probe pairs).  Hybrid
formal/simulation tools (aLEAKator et al.) get their speed from deciding
easy nodes early and spending effort only where the verdict is uncertain.

The :class:`AdaptiveScheduler` does the same for the sampling evaluator.
At every chunk boundary of an :class:`~repro.leakage.campaign.
EvaluationCampaign` it G-tests each still-active probe's *cumulative*
contingency table and classifies the probe:

* **decided-leaky** -- -log10(p) at or above ``decide_threshold`` for
  ``decide_chunks`` consecutive boundaries.  The evidence only grows with
  more samples (E9: linearly), so further budget is wasted on it.
* **decided-null** -- -log10(p) at or below ``null_threshold`` for
  ``decide_chunks`` consecutive boundaries, with at least
  ``min_null_samples`` samples.  ``null_threshold`` sits below the leak
  threshold, so a probe must fall out of a *margin* below the verdict line,
  not merely below the line itself.
* **undecided** -- anything in between (or with oscillating evidence); it
  keeps accumulating.

Decided probes are pruned from subsequent accumulation passes: the shared
trace is still simulated once per block (other probes need it), but the
decided probes' key extraction, bucketing, and histogram updates -- the
dominant cost at realistic probe counts -- are skipped.  When *every* probe
is decided the campaign finishes early; when the base budget runs out with
stubborn undecided probes left, the scheduler can escalate their budget up
to ``max_budget_factor * n_simulations`` (1.0 -- the default -- never
exceeds the uniform budget, which keeps adaptive verdicts comparable to
uniform runs).

Decisions are deterministic: they depend only on the accumulated tables at
chunk boundaries, which are themselves bit-reproducible, so an adaptive
campaign checkpoint (which carries the scheduler state) resumes to the
exact same decision sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.leakage.evaluator import (
    HistogramAccumulator,
    _distinct_offsets,
    table_ids,
)

#: Probe decision states.
UNDECIDED = "undecided"
DECIDED_LEAKY = "leaky"
DECIDED_NULL = "null"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Decision rule of the adaptive scheduler (see module docstring)."""

    decide_threshold: float = 5.0
    null_threshold: float = 4.0
    decide_chunks: int = 2
    min_null_samples: int = 8_192
    max_budget_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.decide_threshold <= 0 or self.null_threshold <= 0:
            raise SimulationError("decision thresholds must be positive")
        if self.null_threshold > self.decide_threshold:
            raise SimulationError(
                "null_threshold must not exceed decide_threshold"
            )
        if self.decide_chunks < 1:
            raise SimulationError("decide_chunks must be at least 1")
        if self.min_null_samples < 1:
            raise SimulationError("min_null_samples must be at least 1")
        if self.max_budget_factor < 1.0:
            raise SimulationError("max_budget_factor must be at least 1.0")

    def to_dict(self) -> Dict:
        return {
            "decide_threshold": self.decide_threshold,
            "null_threshold": self.null_threshold,
            "decide_chunks": self.decide_chunks,
            "min_null_samples": self.min_null_samples,
            "max_budget_factor": self.max_budget_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AdaptiveConfig":
        return cls(**data)


@dataclass
class ProbeState:
    """Mutable decision state of one contingency table (probe or pair)."""

    table_id: str
    state: str = UNDECIDED
    leaky_streak: int = 0
    null_streak: int = 0
    #: per-group samples accumulated while the probe was active.
    n_samples: int = 0
    mlog10p: float = 0.0
    decided_at_chunk: Optional[int] = None

    @property
    def decided(self) -> bool:
        return self.state != UNDECIDED

    def to_dict(self) -> Dict:
        return {
            "table_id": self.table_id,
            "state": self.state,
            "leaky_streak": self.leaky_streak,
            "null_streak": self.null_streak,
            "n_samples": self.n_samples,
            "mlog10p": self.mlog10p,
            "decided_at_chunk": self.decided_at_chunk,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ProbeState":
        return cls(**data)


class AdaptiveScheduler:
    """Per-probe decision tracking over a campaign's chunk sequence.

    The scheduler owns one :class:`ProbeState` per table of its selection
    (:func:`~repro.leakage.evaluator.table_ids`): per first-order probe
    class, ``i`` in ``c<i>`` indexing the evaluator's probe classes, and
    per probe-pair table.  The campaign asks it
    which class indices / pairs are still active before each chunk, feeds
    the accumulated tables back in at the chunk boundary via
    :meth:`observe`, and consults :meth:`all_decided` /
    :meth:`escalation_lanes` for early finish and budget escalation.
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        n_classes: int,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
    ):
        self.config = config
        #: number of first-order probe classes tracked (0 in pairs mode).
        self.n_classes = n_classes
        self.pairs = [tuple(p) for p in pairs]
        self.pair_offsets = _distinct_offsets(pair_offsets)
        self.chunks_observed = 0
        self._states: Dict[str, ProbeState] = {
            table_id: ProbeState(table_id=table_id)
            for table_id in table_ids(
                range(n_classes), self.pairs, self.pair_offsets
            )
        }
        if not self._states:
            raise SimulationError(
                "adaptive scheduling needs at least one probe table"
            )

    # ------------------------------------------------------------ queries

    def active_class_indices(self) -> List[int]:
        """Original probe-class indices still accumulating."""
        return [
            index
            for index, table_id in enumerate(table_ids(range(self.n_classes)))
            if not self._states[table_id].decided
        ]

    def active_pairs(self) -> List[Tuple[int, int]]:
        """Pairs with at least one undecided offset table.

        A pair is pruned only once *every* one of its per-offset tables is
        decided; until then the whole pair stays in the batch (its raw keys
        are shared across offsets anyway).
        """
        return [
            pair
            for pair in self.pairs
            if any(
                not self._states[table_id].decided
                for table_id in table_ids((), [pair], self.pair_offsets)
            )
        ]

    def states(self) -> Dict[str, ProbeState]:
        """All probe states keyed by table id (live objects)."""
        return self._states

    def all_decided(self) -> bool:
        return all(state.decided for state in self._states.values())

    def counts(self) -> Dict[str, int]:
        """Decision tally: {"leaky": n, "null": n, "undecided": n}."""
        tally = {DECIDED_LEAKY: 0, DECIDED_NULL: 0, UNDECIDED: 0}
        for state in self._states.values():
            tally[state.state] += 1
        return tally

    def escalation_lanes(self, base_lanes: int) -> int:
        """Total lane budget including escalation headroom.

        With ``max_budget_factor > 1`` and undecided probes left after the
        base budget, the campaign may extend the run up to this many lanes
        -- the budget freed by early decisions is reallocated to the
        stubborn probes, bounded by the hard cap.
        """
        return int(base_lanes * self.config.max_budget_factor)

    # ----------------------------------------------------------- decisions

    def observe(
        self,
        acc: HistogramAccumulator,
        samples_added: int,
        chunk_index: Optional[int] = None,
    ) -> List[ProbeState]:
        """Update decisions at a chunk boundary; returns new decisions.

        ``acc`` holds the *cumulative* tables, ``samples_added`` the
        per-group samples this chunk contributed to every still-active
        table.  Decisions are monotonic: a decided probe never reverts
        (its table no longer accumulates, so its evidence cannot change).
        """
        cfg = self.config
        self.chunks_observed += 1
        if chunk_index is None:
            chunk_index = self.chunks_observed
        decided_now: List[ProbeState] = []
        for state in self._states.values():
            if state.decided:
                continue
            state.n_samples += samples_added
            outcome = acc.test(state.table_id)
            state.mlog10p = outcome.mlog10p
            if outcome.mlog10p >= cfg.decide_threshold:
                state.leaky_streak += 1
                state.null_streak = 0
            elif (
                outcome.mlog10p <= cfg.null_threshold
                and state.n_samples >= cfg.min_null_samples
            ):
                state.null_streak += 1
                state.leaky_streak = 0
            else:
                state.leaky_streak = 0
                state.null_streak = 0
            if state.leaky_streak >= cfg.decide_chunks:
                state.state = DECIDED_LEAKY
            elif state.null_streak >= cfg.decide_chunks:
                state.state = DECIDED_NULL
            if state.decided:
                state.decided_at_chunk = chunk_index
                decided_now.append(state)
        return decided_now

    # -------------------------------------------------------------- report

    def summary(self, uniform_samples: int) -> Dict:
        """The mixed-budget verdict table recorded on the report.

        ``uniform_samples`` is the per-probe budget a uniform run would
        have spent; together with the per-probe actuals it yields the
        probe-sample savings factor the scheduler achieved.
        """
        tally = self.counts()
        spent = sum(s.n_samples for s in self._states.values())
        uniform_total = uniform_samples * len(self._states)
        return {
            "config": self.config.to_dict(),
            "chunks_observed": self.chunks_observed,
            "n_tables": len(self._states),
            "decided_leaky": tally[DECIDED_LEAKY],
            "decided_null": tally[DECIDED_NULL],
            "undecided": tally[UNDECIDED],
            "probe_samples_spent": spent,
            "probe_samples_uniform": uniform_total,
            "probe_sample_savings": (
                round(uniform_total / spent, 3) if spent else None
            ),
            "probes": {
                table_id: {
                    "state": state.state,
                    "n_samples": state.n_samples,
                    "mlog10p": state.mlog10p,
                    "decided_at_chunk": state.decided_at_chunk,
                }
                for table_id, state in sorted(self._states.items())
            },
        }

    # ------------------------------------------------------- serialization

    def to_state(self) -> Dict:
        """JSON-safe snapshot for campaign checkpoints."""
        return {
            "config": self.config.to_dict(),
            "n_classes": self.n_classes,
            "pairs": [list(p) for p in self.pairs],
            "pair_offsets": list(self.pair_offsets),
            "chunks_observed": self.chunks_observed,
            "states": [s.to_dict() for s in self._states.values()],
        }

    @classmethod
    def from_state(cls, data: Dict) -> "AdaptiveScheduler":
        """Rebuild a scheduler (and its decisions) from :meth:`to_state`."""
        scheduler = cls(
            AdaptiveConfig.from_dict(data["config"]),
            n_classes=data["n_classes"],
            pairs=[tuple(p) for p in data["pairs"]],
            pair_offsets=data["pair_offsets"],
        )
        scheduler.chunks_observed = int(data["chunks_observed"])
        for state_dict in data["states"]:
            state = ProbeState.from_dict(state_dict)
            if state.table_id not in scheduler._states:
                raise SimulationError(
                    f"adaptive checkpoint state references unknown table "
                    f"{state.table_id!r}"
                )
            scheduler._states[state.table_id] = state
        return scheduler
