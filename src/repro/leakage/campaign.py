"""Chunked, checkpointable evaluation campaigns.

The paper's headline numbers rest on long evaluation-tool runs (4M
simulations first order, >=100M second order).  A single monolithic
``evaluate()`` pass at that scale holds every lane of both groups in memory
and loses everything on a crash at simulation 3.9M.  A *campaign* runs the
same evaluation as a sequence of bounded-memory chunks over the evaluator's
canonical sampling blocks:

* every block draws from its own ``SeedSequence``-derived RNG stream, so
  the sampled stimulus is invariant under chunking and any block can be
  re-simulated in isolation;
* per-probe contingency tables are accumulated incrementally (the G-test
  composes over histograms), so a chunked campaign's verdicts -- and the
  tables themselves -- are bit-identical to a single pass;
* after each chunk the accumulated tables plus campaign state are written
  to a versioned NPZ checkpoint with an atomic write-rename, so an
  interrupted run resumes from the last completed chunk, re-simulating only
  the chunk that was in flight;
* wall-clock budgets and a decisive-margin early abort stop a run cleanly,
  flagging the partial report ``truncated:<reason>`` instead of losing it;
* a ``MemoryError`` inside a chunk retries that chunk in halves instead of
  aborting the campaign;
* with ``workers > 1`` (or a caller's ``runner``) each chunk's blocks run
  as ``blocks`` work items on a local process pool (or that runner, see
  :mod:`repro.leakage.parallel`) -- blocks sample from private
  ``SeedSequence`` streams and table accumulation commutes, so parallel
  results are bit-identical to serial ones and remain compatible with the
  same checkpoints;
* ``mode="both"`` evaluates first-order probe classes *and* probe pairs
  against one shared simulation per block (shared-trace probe batching)
  instead of simulating the campaign twice;
* with an :class:`~repro.leakage.adaptive.AdaptiveConfig` attached, an
  :class:`~repro.leakage.adaptive.AdaptiveScheduler` classifies every probe
  as decided-leaky / decided-null / undecided at each chunk boundary,
  prunes decided probes from subsequent accumulation passes (the shared
  trace is still simulated once per block; their key extraction and
  histogram updates are skipped), finishes early once everything is
  decided, and -- if the config allows -- escalates the budget of stubborn
  undecided probes up to a hard cap.  The scheduler state travels in the
  checkpoint, so adaptive campaigns resume to the identical decision
  sequence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos import DEFAULT_RETRY, FaultPlane, RetryPolicy
from repro.errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    CheckpointError,
    SimulationError,
)
from repro.leakage import durable
from repro.leakage.adaptive import AdaptiveConfig, AdaptiveScheduler
# Re-exported: callers import the checkpoint container from here.
from repro.leakage.durable import pack_checkpoint, unpack_checkpoint
from repro.leakage.evaluator import (
    HistogramAccumulator,
    LeakageEvaluator,
    packed_totals,
    table_ids,
)
from repro.leakage.gtest import DEFAULT_THRESHOLD
from repro.leakage.parallel import BlockExecutor, PoolRunner, pool_workers
from repro.leakage.report import LeakageReport

#: Checkpoint format version; bumped on incompatible layout changes.
#: Version 2 stores the tables as the three packed arrays of
#: :meth:`HistogramAccumulator.state_arrays`; version 1 (two NPZ members
#: per table) still loads.  The CRC container is transparent to the
#: version, and bare legacy NPZ files still load.
CHECKPOINT_VERSION = 2


@dataclass
class CampaignConfig:
    """Parameters of one evaluation campaign."""

    #: per-group sample budget (lanes x windows), as for ``evaluate()``.
    n_simulations: int
    n_windows: int = 1
    fixed_secret: int = 0
    threshold: float = DEFAULT_THRESHOLD
    #: samples per chunk (rounded up to whole sampling blocks); None runs
    #: the whole campaign as one chunk.
    chunk_size: Optional[int] = None
    #: checkpoint file path (NPZ); None disables checkpointing.
    checkpoint: Optional[str] = None
    #: wall-clock budget in seconds; exceeded -> truncated report (or
    #: :class:`BudgetExceeded` with ``on_budget="raise"``).
    time_budget: Optional[float] = None
    on_budget: str = "truncate"
    #: stop as soon as some probe's -log10(p) reaches this decisive level.
    early_stop: Optional[float] = None
    #: "first" (univariate), "pairs" (bivariate), or "both" (first-order and
    #: pair probes batched against one shared simulation per block).
    mode: str = "first"
    max_pairs: Optional[int] = 500
    pair_seed: int = 1
    pair_offsets: Tuple[int, ...] = (0,)
    #: worker processes per chunk; 1 runs in-process.
    workers: int = 1
    #: adaptive per-probe scheduling (None keeps the uniform budget, and
    #: the campaign's behaviour -- down to the accumulated bytes -- is
    #: identical to earlier versions).
    adaptive: Optional[AdaptiveConfig] = None
    #: hung-execution deadline in seconds: parallel work items exceeding
    #: it are reaped (worker processes terminated, the chunk's unfinished
    #: items rerun per the degradation ladder), and the service watchdog
    #: uses the same value as its no-chunk-progress deadline.  ``None``
    #: disables both.
    stall_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("first", "pairs", "both"):
            raise SimulationError(
                "campaign mode must be 'first', 'pairs', or 'both'"
            )
        if self.workers < 1:
            raise SimulationError("workers must be at least 1")
        if self.on_budget not in ("truncate", "raise"):
            raise SimulationError(
                "on_budget must be 'truncate' or 'raise'"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise SimulationError("chunk_size must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise SimulationError("time_budget must be positive")
        if self.early_stop is not None and self.early_stop <= 0:
            raise SimulationError("early_stop must be positive")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise SimulationError("stall_timeout must be positive")
        if self.adaptive is not None and self.chunk_size is None:
            raise SimulationError(
                "adaptive scheduling decides at chunk boundaries; "
                "set chunk_size"
            )


@dataclass
class CampaignProgress:
    """Mutable progress record, also surfaced on the final result."""

    blocks_total: int = 0
    blocks_done: int = 0
    chunks_done: int = 0
    resumed_from_block: int = 0
    retries: int = 0

    @property
    def complete(self) -> bool:
        """True once every sampling block has been accumulated."""
        return self.blocks_done >= self.blocks_total


class EvaluationCampaign:
    """Drives a :class:`LeakageEvaluator` chunk by chunk.

    ``hook`` is an optional ``hook(event: str, payload: dict)`` telemetry
    callback invoked on "campaign_start", "chunk_done", "checkpoint_saved",
    and "campaign_end" (plus the pool events forwarded from
    :class:`~repro.leakage.parallel.PoolRunner`); it observes progress
    only and must not raise.  ``should_stop`` is an optional zero-argument
    callable polled at chunk boundaries, and by a runner between work
    items; once it returns true the campaign stops cleanly with status
    ``truncated:cancelled``, and a chunk it stopped merges nothing --
    this is how the evaluation service implements job cancellation and
    graceful shutdown without killing the process.  ``runner`` (the
    service's fleet, say) runs every chunk's blocks as ``blocks`` work
    items through a :class:`~repro.leakage.parallel.BlockExecutor`; the
    campaign does not close it, and ``workers`` then sizes nothing.
    """

    def __init__(
        self,
        evaluator: LeakageEvaluator,
        config: CampaignConfig,
        hook: Optional[Callable[[str, Dict], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        fault_plane: Optional[FaultPlane] = None,
        retry: Optional[RetryPolicy] = None,
        runner=None,
    ):
        self.evaluator = evaluator
        self.config = config
        self.hook = hook
        self.should_stop = should_stop
        #: chaos fault-injection plane ("checkpoint.write",
        #: "checkpoint.read", "runner.chunk" sites here; also installed on
        #: the evaluator so "engine.compile" and -- via the worker pickle
        #: -- "worker.block" fire).  ``None`` disables injection at zero
        #: cost; production never sets it.
        self.fault_plane = fault_plane
        if fault_plane is not None:
            evaluator.fault_plane = fault_plane
        #: transient-IO retry policy for checkpoint reads and writes.
        self.retry = retry if retry is not None else DEFAULT_RETRY
        #: graceful-degradation provenance taken by *this* campaign
        #: (serial fallback, ...); merged with the evaluator's ladder
        #: steps into the report.  Reset per :meth:`run`.
        self.degradations: List[Dict[str, str]] = []
        self.accumulator = HistogramAccumulator()
        self.progress = CampaignProgress()
        #: worker pool size of the last :meth:`run`: the requested count
        #: capped at the visible CPU count (oversubscription is
        #: counterproductive); with an injected ``runner``, the request.
        self.effective_workers = config.workers
        self._n_lanes = evaluator.n_lanes_for(
            config.n_simulations, config.n_windows
        )
        self._pairs: List[Tuple[int, int]] = (
            evaluator.select_pairs(config.max_pairs, config.pair_seed)
            if config.mode in ("pairs", "both")
            else []
        )
        #: injected runner (never closed here); ``None`` runs on a local
        #: pool per :meth:`run` when ``workers`` allows one.
        self.runner = runner
        #: the chunk executor of a run on a runner; ``None`` accumulates
        #: chunks in-process.
        self._executor: Optional[BlockExecutor] = None
        #: adaptive decision state; built fresh per :meth:`run` (or restored
        #: from the checkpoint), ``None`` for uniform campaigns.
        self.scheduler: Optional[AdaptiveScheduler] = None
        #: lane budget ceiling: the base budget, or -- for adaptive runs
        #: with ``max_budget_factor > 1`` -- the escalated hard cap.
        self._esc_lanes = self._n_lanes
        #: identity of the sliced program currently being simulated (None
        #: until the first sliced chunk, or when slicing is off).  Adaptive
        #: pruning shrinks the active probe set at chunk boundaries; when
        #: the union support cone shrinks with it, the key changes and a
        #: ``program_sliced`` event reports the re-slice.
        self._slice_key: Optional[str] = None

    def _emit(self, event: str, **payload) -> None:
        if self.hook is not None:
            self.hook(event, payload)

    def _executor_hook(self, event: str, payload: Dict) -> None:
        """Forward pool telemetry, recording ladder steps as provenance."""
        if event == "degradation":
            self.degradations.append(dict(payload))
        self._emit(event, **payload)

    # ------------------------------------------------------------ fingerprint

    def fingerprint(self) -> Dict[str, object]:
        """Identity of the sampling process; checked on resume.

        Everything that changes the simulated stimulus or the table layout
        is included; the chunk size and worker count are deliberately absent
        (sampling is per-block and accumulation commutes, so resuming with a
        different chunking or degree of parallelism is sound -- and
        bit-identical).
        """
        ev = self.evaluator
        cfg = self.config
        fingerprint: Dict[str, object] = {
            "design": ev.dut.describe(),
            "model": ev.model.value,
            "seed": ev.seed,
            "observation": ev.observation,
            "hash_bits": ev.hash_bits,
            "max_support_bits": ev.max_support_bits,
            "block_lanes": ev.block_lanes,
            "n_probe_classes": len(ev.probe_classes),
            "n_simulations": cfg.n_simulations,
            "n_windows": cfg.n_windows,
            "fixed_secret": cfg.fixed_secret,
            "mode": cfg.mode,
            "max_pairs": cfg.max_pairs,
            "pair_seed": cfg.pair_seed,
            "pair_offsets": list(cfg.pair_offsets),
        }
        if cfg.adaptive is not None:
            # Only present when adaptive is on, so checkpoints written by
            # uniform campaigns (any version) keep loading unchanged -- and
            # adaptive/uniform samples are never mixed.
            fingerprint["adaptive"] = cfg.adaptive.to_dict()
        if getattr(ev, "slice_cones", False):
            # Present only when cone slicing is on (checkpoints from
            # pre-slicing versions keep loading).  Sliced simulation is
            # bit-identical to full simulation, so the samples *could* be
            # mixed soundly -- the key exists so a resumed run states the
            # execution mode it continues under, and so the sliced/unsliced
            # property-test resume paths exercise distinct checkpoints.
            fingerprint["slice"] = True
        return fingerprint

    # ------------------------------------------------------------- chunk plan

    def _blocks_total(self) -> int:
        return self.evaluator.block_count(self._n_lanes)

    def _chunk_blocks(self) -> int:
        """Blocks per chunk implied by ``chunk_size`` (>= 1)."""
        cfg = self.config
        if cfg.chunk_size is None:
            return max(1, self._blocks_total())
        chunk_lanes = max(1, cfg.chunk_size // cfg.n_windows)
        return max(
            1,
            (chunk_lanes + self.evaluator.block_lanes - 1)
            // self.evaluator.block_lanes,
        )

    # -------------------------------------------------------------- execution

    def run(self, resume: bool = False) -> LeakageReport:
        """Run (or resume) the campaign and return the final report.

        With ``resume=True`` and an existing checkpoint, completed chunks
        are loaded from disk and only the remaining blocks are simulated; a
        missing checkpoint file simply starts a fresh run.
        """
        cfg = self.config
        base_blocks = self._blocks_total()
        self.scheduler = None
        self.degradations = []
        self._esc_lanes = self._n_lanes
        self._slice_key = None
        if cfg.adaptive is not None:
            n_classes = (
                len(self.evaluator.probe_classes)
                if cfg.mode != "pairs"
                else 0
            )
            self.scheduler = AdaptiveScheduler(
                cfg.adaptive,
                n_classes=n_classes,
                pairs=self._pairs,
                pair_offsets=cfg.pair_offsets,
            )
            self._esc_lanes = self.scheduler.escalation_lanes(self._n_lanes)
        esc_blocks = (
            self.evaluator.block_count(self._esc_lanes)
            if self.scheduler is not None
            else base_blocks
        )
        self.progress = CampaignProgress(blocks_total=base_blocks)
        self.accumulator = HistogramAccumulator()
        next_block = 0
        if resume and cfg.checkpoint:
            # The blocks a surviving generation lacks are re-simulated, so
            # every generation (or none) gives the same report.
            found = durable.load_checkpoint(
                cfg.checkpoint, self._load_checkpoint, self.hook
            )
            next_block = found or 0
            self.progress.resumed_from_block = next_block
            self.progress.blocks_done = next_block
        escalated = next_block > base_blocks
        if (
            self.scheduler is not None
            and next_block >= base_blocks
            and esc_blocks > base_blocks
            and not self.scheduler.all_decided()
        ):
            # Resumed from a checkpoint saved at (or past) the base budget
            # with undecided probes left: re-enter the escalation phase.
            escalated = True
        if escalated:
            self.progress.blocks_total = esc_blocks
        started = time.monotonic()
        status = "complete"
        finished_early = False
        chunk_blocks = self._chunk_blocks()
        runner = self.runner
        pool = None
        if runner is None:
            # One effective worker skips the process pool (fork and
            # pickle overhead with no core to spend it on); a degradation
            # says so in telemetry and provenance.
            self.effective_workers = pool_workers(
                cfg.workers, self._executor_hook
            )
            if self.effective_workers > 1:
                runner = pool = PoolRunner(
                    self.evaluator,
                    self.effective_workers,
                    hook=self._executor_hook,
                    shard_timeout=cfg.stall_timeout,
                )
        if runner is not None:
            self._executor = BlockExecutor(self.evaluator, runner)
        self._emit(
            "campaign_start",
            blocks_total=self.progress.blocks_total,
            chunk_blocks=chunk_blocks,
            resumed_from_block=self.progress.resumed_from_block,
            workers=cfg.workers,
            effective_workers=self.effective_workers,
            n_simulations=cfg.n_simulations,
            mode=cfg.mode,
        )
        # Surface every budget exclusion in telemetry, not just a count:
        # a skipped probe means the verdict is conditional on the budget,
        # which operators should see without parsing the report.
        for entry in self.evaluator.skipped_detail():
            self._emit("probe_skipped", **entry)
        try:
            while next_block < self.progress.blocks_total:
                if self.fault_plane is not None:
                    # Chaos site "runner.chunk": a campaign loop that stops
                    # making progress (wedged IO, livelocked kernel).  The
                    # service watchdog must notice the silence and act.
                    self.fault_plane.maybe_hang("runner.chunk")
                if self.should_stop is not None and self.should_stop():
                    status = "truncated:cancelled"
                    break
                if self.scheduler is not None and self.scheduler.all_decided():
                    finished_early = True
                    break
                if cfg.time_budget is not None:
                    elapsed = time.monotonic() - started
                    if elapsed >= cfg.time_budget:
                        if cfg.on_budget == "raise":
                            raise BudgetExceeded(
                                f"time budget of {cfg.time_budget:g}s "
                                f"exhausted after "
                                f"{self.progress.blocks_done} of "
                                f"{self.progress.blocks_total} blocks"
                            )
                        status = "truncated:time-budget"
                        break
                # A chunk never spans the base/escalation boundary: blocks
                # past ``base_blocks`` size their lanes against the
                # escalated cap, earlier ones against the base budget.
                boundary = (
                    base_blocks
                    if next_block < base_blocks
                    else self.progress.blocks_total
                )
                end = min(next_block + chunk_blocks, boundary)
                self._emit_slice_telemetry()
                # Per-stage wall-clock attribution: the evaluator keeps a
                # cumulative stage_seconds, so the per-chunk cost is a
                # snapshot delta.  Parallel chunks accumulate in worker
                # processes and report zeros here -- attribution covers
                # the serial path (and the in-kernel pipeline).
                stage_before = dict(
                    getattr(self.evaluator, "stage_seconds", {}) or {}
                )
                if self._run_chunk_with_retry(next_block, end):
                    # Stopped inside the chunk: it merged nothing, just
                    # as a stop at the chunk boundary would have.
                    status = "truncated:cancelled"
                    break
                stage_after = getattr(
                    self.evaluator, "stage_seconds", {}
                ) or {}
                stage_delta = {
                    name: round(
                        seconds - stage_before.get(name, 0.0), 6
                    )
                    for name, seconds in stage_after.items()
                }
                samples_added = (
                    self._lanes_done(end) - self._lanes_done(next_block)
                ) * cfg.n_windows
                next_block = end
                self.progress.blocks_done = next_block
                self.progress.chunks_done += 1
                if self.scheduler is not None:
                    # The scheduler keeps its own chunk counter: it is
                    # restored from checkpoints, while progress.chunks_done
                    # restarts at zero on every resume.
                    decided = self.scheduler.observe(
                        self.accumulator, samples_added
                    )
                    for state in decided:
                        self._emit(
                            "probe_decided",
                            table_id=state.table_id,
                            state=state.state,
                            mlog10p=state.mlog10p,
                            n_samples=state.n_samples,
                            chunk=state.decided_at_chunk,
                        )
                chunk_payload = {
                    "blocks_done": next_block,
                    "blocks_total": self.progress.blocks_total,
                    "chunks_done": self.progress.chunks_done,
                    "elapsed": time.monotonic() - started,
                }
                if stage_delta:
                    chunk_payload["stage_seconds"] = stage_delta
                if self.scheduler is not None:
                    chunk_payload["adaptive"] = self.scheduler.counts()
                self._emit("chunk_done", **chunk_payload)
                if cfg.checkpoint:
                    self._save_checkpoint(cfg.checkpoint, next_block)
                    self._emit(
                        "checkpoint_saved",
                        path=cfg.checkpoint,
                        next_block=next_block,
                    )
                if cfg.early_stop is not None:
                    interim = self._report("interim")
                    if interim.max_mlog10p >= cfg.early_stop:
                        status = "truncated:early-stop"
                        break
                if (
                    self.scheduler is not None
                    and not escalated
                    and next_block >= self.progress.blocks_total
                    and esc_blocks > base_blocks
                    and not self.scheduler.all_decided()
                ):
                    escalated = True
                    self.progress.blocks_total = esc_blocks
                    self._emit(
                        "adaptive_escalated",
                        undecided=self.scheduler.counts()["undecided"],
                        blocks_total=esc_blocks,
                        lanes_cap=self._esc_lanes,
                    )
            if (
                self.scheduler is not None
                and status == "complete"
                and self.scheduler.all_decided()
            ):
                finished_early = (
                    finished_early
                    or next_block < self.progress.blocks_total
                )
            if finished_early:
                self._emit(
                    "adaptive_finished_early",
                    blocks_done=self.progress.blocks_done,
                    blocks_total=self.progress.blocks_total,
                    **self.scheduler.counts(),
                )
        finally:
            if pool is not None:
                pool.close()
            self._executor = None
        self._emit(
            "campaign_end",
            status=status,
            blocks_done=self.progress.blocks_done,
            blocks_total=self.progress.blocks_total,
            elapsed=time.monotonic() - started,
        )
        return self._report(status)

    def _run_chunk_with_retry(self, start: int, end: int) -> bool:
        """Accumulate blocks ``[start, end)``; True when stopped.

        The chunk's tables merge into the campaign's only once every
        block is counted (:meth:`_count_blocks`), so a failed attempt
        never double-counts blocks and a stopped chunk merges nothing.
        """
        tables = self._count_blocks(start, end)
        if tables is None:
            return True
        self.accumulator.merge(tables)
        return False

    def _count_blocks(
        self, start: int, end: int
    ) -> Optional[HistogramAccumulator]:
        """The tables of blocks ``[start, end)``; None when stopped.

        A ``MemoryError`` splits the range in halves, whose tables
        combine only once both are counted: a stop in the second half
        drops the first half too.
        """
        tables = HistogramAccumulator()
        try:
            stopped = self._accumulate(tables, range(start, end))
        except MemoryError:
            if end - start == 1:
                raise
            self.progress.retries += 1
            middle = (start + end) // 2
            first = self._count_blocks(start, middle)
            second = None if first is None else self._count_blocks(
                middle, end
            )
            if second is None:
                return None
            first.merge(second)
            return first
        return None if stopped else tables

    def _emit_slice_telemetry(self) -> None:
        """Report the sliced program the next chunk will simulate.

        Emits ``program_sliced`` with cell/dispatch/state ratios whenever
        the slice identity changes -- once at campaign start, then again
        each time adaptive pruning shrinks the union support cone enough to
        induce a re-slice (pruning that leaves the cone unchanged reuses
        the cached program and stays silent).
        """
        class_indices, pairs = self._active_selection()
        info = self.evaluator.slice_info(class_indices, pairs)
        if info is None or info["key"] == self._slice_key:
            return
        resliced = self._slice_key is not None
        self._slice_key = info["key"]
        self._emit(
            "program_sliced",
            key=info["key"],
            resliced=resliced,
            **info["stats"],
        )

    def _active_selection(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        """(class_indices, pairs) still accumulating, per mode/scheduler."""
        cfg = self.config
        if cfg.mode == "pairs":
            indices: List[int] = []
        elif self.scheduler is not None:
            indices = self.scheduler.active_class_indices()
        else:
            indices = list(range(len(self.evaluator.probe_classes)))
        pairs = self._pairs
        if self.scheduler is not None and cfg.mode in ("pairs", "both"):
            pairs = self.scheduler.active_pairs()
        return indices, pairs

    def _lanes_done(self, blocks_done: int) -> int:
        """Lanes accumulated after ``blocks_done`` blocks.

        Base blocks partition the base lane budget (last block possibly
        partial); escalation blocks size their lanes against the escalated
        cap, so the total never exceeds ``max_budget_factor * n_lanes``.
        """
        block_lanes = self.evaluator.block_lanes
        base_blocks = self.evaluator.block_count(self._n_lanes)
        if blocks_done <= base_blocks:
            return min(blocks_done * block_lanes, self._n_lanes)
        extra = min(blocks_done * block_lanes, self._esc_lanes)
        extra -= base_blocks * block_lanes
        return self._n_lanes + max(0, extra)

    def _accumulate(self, acc: HistogramAccumulator, blocks: range) -> bool:
        """Count ``blocks`` into ``acc``; True when a stop ended the chunk
        on a runner (in-process chunks stop only at their boundary)."""
        cfg = self.config
        class_indices, pairs = self._active_selection()
        # Escalation blocks index lanes past the base budget, so they need
        # the escalated cap as their lane total; chunks never mix the two.
        lanes_cap = (
            self._n_lanes
            if blocks.start < self.evaluator.block_count(self._n_lanes)
            else self._esc_lanes
        )
        if self._executor is not None:
            return self._executor.accumulate(
                acc,
                cfg.fixed_secret,
                lanes_cap,
                cfg.n_windows,
                blocks,
                class_indices=class_indices,
                pairs=pairs,
                pair_offsets=cfg.pair_offsets,
                should_stop=self.should_stop,
            )
        self.evaluator.accumulate(
            acc,
            cfg.fixed_secret,
            lanes_cap,
            cfg.n_windows,
            class_indices=class_indices,
            pairs=pairs,
            pair_offsets=cfg.pair_offsets,
            blocks=blocks,
        )
        return False

    def _report(self, status: str) -> LeakageReport:
        """The report of the blocks done so far.

        Raises :class:`SimulationError`, and builds no report, unless the
        tables are exactly those the probes were sampled into, each
        holding :meth:`_expected_samples` per group: a lost or doubled
        block must never become a verdict.
        """
        cfg = self.config
        blocks_done = self.progress.blocks_done
        n_samples = self._lanes_done(blocks_done) * cfg.n_windows
        expected = self._expected_samples(blocks_done, self.scheduler)
        if self.accumulator.table_ids() != sorted(expected):
            raise SimulationError(
                f"the tables after {blocks_done} blocks are not the ones "
                "their probes were sampled into; no verdict from missing "
                "evidence"
            )
        report = self.evaluator.report(
            self.accumulator,
            cfg.fixed_secret,
            n_samples,
            cfg.threshold,
            classes=() if cfg.mode == "pairs" else None,
            pairs=self._pairs,
            pair_offsets=cfg.pair_offsets,
            status=status,
            expected=expected,
        )
        if self.scheduler is not None:
            report.adaptive = self.scheduler.summary(
                uniform_samples=self._n_lanes * cfg.n_windows
            )
        report.degradations = list(self.degradations) + list(
            getattr(self.evaluator, "degradations", [])
        )
        return report

    # ------------------------------------------------------------ checkpoints

    def _save_checkpoint(self, path: str, next_block: int) -> None:
        """Persist tables plus campaign state as the current generation."""
        ids, members = self.accumulator.state_members()
        meta = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint(),
            "next_block": next_block,
            "blocks_total": self.progress.blocks_total,
            "table_ids": ids,
        }
        if self.scheduler is not None:
            meta["adaptive"] = self.scheduler.to_state()
        members["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), np.uint8
        )
        durable.save_checkpoint(
            path, members, retry=self.retry, fault_plane=self.fault_plane,
            hook=self.hook,
        )

    def _load_checkpoint(self, path: str) -> int:
        """Restore tables and return the next block to simulate.

        Raises as :func:`~repro.leakage.durable.read_checkpoint`;
        tables short of the samples of their blocks are corrupt too.
        """

        def parse(meta: Dict, data):
            arrays = {key: data[key] for key in data.files if key != "meta"}
            ids = meta["table_ids"]
            # Malformed tables (SimulationError) are corruption too.
            accumulator = HistogramAccumulator.from_state(ids, arrays)
            scheduler = self.scheduler
            if scheduler is not None:
                if "adaptive" not in meta:
                    raise CheckpointError(
                        f"checkpoint {path!r} has no adaptive scheduler state"
                    )
                scheduler = AdaptiveScheduler.from_state(meta["adaptive"])
            next_block = int(meta["next_block"])
            max_blocks = self.evaluator.block_count(self._esc_lanes)
            if not 0 <= next_block <= max_blocks:
                raise CheckpointError(
                    f"checkpoint {path!r} points at block {next_block} of "
                    f"{max_blocks}"
                )
            if "n_keys" not in arrays:  # version-1 layout
                ids, arrays = accumulator.state_arrays()
            expected = self._expected_samples(next_block, scheduler)
            totals = packed_totals(arrays)
            if sorted(ids) != sorted(expected) or any(
                (totals[:, index] != expected[table_id]).any()
                for index, table_id in enumerate(ids)
            ):
                raise CheckpointCorrupt(
                    f"checkpoint {path!r}: its tables do not hold the "
                    f"samples of its {next_block} blocks"
                )
            return next_block, accumulator, scheduler

        loaded = durable.read_checkpoint(
            path, parse, fingerprint=self.fingerprint(),
            versions=(1, CHECKPOINT_VERSION), retry=self.retry,
            fault_plane=self.fault_plane, hook=self.hook,
        )
        next_block, self.accumulator, self.scheduler = loaded
        return next_block

    def _expected_samples(
        self, next_block: int, scheduler: Optional[AdaptiveScheduler]
    ) -> Dict[str, int]:
        """Per-group samples of every table after ``next_block`` blocks.

        Uniform runs give every table the lanes of those blocks times the
        windows.  Adaptive runs give a probe table its
        :attr:`ProbeState.n_samples`, and a pair table those of its most
        sampled offset: a pair accumulates every offset while any one of
        them is undecided.  Tables without samples do not exist.
        """
        if scheduler is None:
            cfg = self.config
            samples = self._lanes_done(next_block) * cfg.n_windows
            ids = table_ids(*self._active_selection(), cfg.pair_offsets)
            return {table_id: samples for table_id in ids if samples}
        states = scheduler.states()
        expected = {
            table_id: states[table_id].n_samples
            for table_id in table_ids(range(scheduler.n_classes))
        }
        for pair in scheduler.pairs:
            ids = table_ids((), [pair], scheduler.pair_offsets)
            samples = max(states[table_id].n_samples for table_id in ids)
            expected.update(dict.fromkeys(ids, samples))
        return {table_id: n for table_id, n in expected.items() if n}


def run_campaign(
    evaluator: LeakageEvaluator,
    config: CampaignConfig,
    resume: bool = False,
) -> LeakageReport:
    """Convenience wrapper: build and run an :class:`EvaluationCampaign`."""
    return EvaluationCampaign(evaluator, config).run(resume=resume)
