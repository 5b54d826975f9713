"""Background job execution for the evaluation service.

A :class:`JobRunner` owns a small pool of worker *threads*, each draining
the :class:`~repro.service.queue.JobQueue` and executing one job at a time
through :func:`run_spec` -- the path every CLI command takes too -- as a
checkpointable :class:`~repro.leakage.campaign.EvaluationCampaign` or an
exact sweep.
Threads (not processes) are the right grain here: a campaign already
parallelizes its heavy lifting across a process pool when the job asks for
workers, and the runner thread spends its life inside numpy/multiprocessing
calls that release the GIL.

Execution contract:

* every job runs with a per-job checkpoint file inside the store, chunked
  by default, so progress is durable at chunk granularity;
* the campaign's ``should_stop`` is wired to two events -- per-job
  cancellation and service shutdown.  Both stop the campaign cleanly at the
  next chunk boundary; cancellation marks the job ``cancelled``, shutdown
  returns it to ``queued`` so the next boot resumes it from its checkpoint
  (the same path a SIGKILL takes, just without the lost in-flight chunk);
* on success the serialized report is memoized in the content-addressed
  verdict store, making every future identical submission an O(1) lookup;
* the telemetry hook threads through campaign *and* runner, so the event
  log shows chunk throughput and pool behaviour per job.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from typing import Dict, Optional

from repro.core.optimizations import (
    FIRST_ORDER_SCHEMES,
    RandomnessScheme,
    SecondOrderScheme,
)
from repro.errors import ReproError, ServiceError
from repro.leakage import durable
from repro.leakage.campaign import EvaluationCampaign
from repro.leakage.evaluator import LeakageEvaluator
from repro.leakage.model import ProbingModel
from repro.service.queue import JobQueue
from repro.service.store import JobSpec, JobStore
from repro.service.telemetry import Telemetry

# Server-side default chunking now lives on the spec itself; re-exported
# because earlier service versions defined it here.
from repro.spec import DEFAULT_CHUNK_SIZE  # noqa: F401

_SCHEMES = {scheme.value: scheme for scheme in FIRST_ORDER_SCHEMES}
_SCHEMES.update({scheme.value: scheme for scheme in SecondOrderScheme})
_SHORTCUTS = {
    "full": RandomnessScheme.FULL,
    "eq6": RandomnessScheme.DEMEYER_EQ6,
    "eq9": RandomnessScheme.PROPOSED_EQ9,
}

DESIGNS = ("kronecker", "sbox", "sbox2", "sbox-nokronecker")


def resolve_scheme(name: str):
    """Scheme enum for a CLI/API name (shortcuts included)."""
    if name in _SHORTCUTS:
        return _SHORTCUTS[name]
    if name in _SCHEMES:
        return _SCHEMES[name]
    raise ServiceError(
        f"unknown scheme {name!r}; choose from "
        f"{sorted(_SHORTCUTS) + sorted(_SCHEMES)}"
    )


def build_design(design: str, scheme_name: str):
    """Build a named design; returns an object with ``.dut``/``.netlist``."""
    scheme = resolve_scheme(scheme_name)
    if design == "kronecker":
        from repro.core.kronecker import build_kronecker_delta

        order = 2 if isinstance(scheme, SecondOrderScheme) else 1
        return build_kronecker_delta(scheme, order=order)
    if design == "sbox":
        from repro.core.sbox import build_masked_sbox

        if not isinstance(scheme, RandomnessScheme):
            raise ServiceError("the S-box needs a first-order scheme")
        return build_masked_sbox(scheme)
    if design == "sbox2":
        from repro.core.sbox2 import build_masked_sbox_second_order

        if not isinstance(scheme, SecondOrderScheme):
            scheme = SecondOrderScheme.FULL_21
        return build_masked_sbox_second_order(scheme)
    if design == "sbox-nokronecker":
        from repro.core.sbox import build_masked_sbox

        return build_masked_sbox(include_kronecker=False)
    raise ServiceError(
        f"unknown design {design!r}; choose from {list(DESIGNS)}"
    )


def design_hash_for(spec: JobSpec) -> str:
    """Netlist structure hash leading a spec's verdict-cache key.

    Equals ``evaluator_for(spec).design_hash()`` but skips evaluator
    construction (probe extraction, engine setup) -- the submit path and
    ``mode="exact"`` jobs only need the hash.
    """
    from repro.netlist.core import netlist_content_hash

    built = build_design(spec.design, spec.scheme)
    return netlist_content_hash(built.dut.netlist)


def probing_model(spec: JobSpec) -> ProbingModel:
    """The probing model a spec's ``model`` field names."""
    return (
        ProbingModel.GLITCH_TRANSITION
        if spec.model == "glitch-transition"
        else ProbingModel.GLITCH
    )


def evaluator_for(spec: JobSpec) -> LeakageEvaluator:
    """Construct the evaluator a job spec describes."""
    built = build_design(spec.design, spec.scheme)
    return LeakageEvaluator(
        built.dut, probing_model(spec), seed=spec.seed, engine=spec.engine,
        slice_cones=spec.slice,
    )


def run_spec(
    spec: JobSpec,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    hook=None,
    should_stop=None,
    fault_plane=None,
    runner=None,
    default_chunking: bool = False,
    time_budget: Optional[float] = None,
    early_stop: Optional[float] = None,
    stall_timeout: Optional[float] = None,
):
    """Run one spec to its report: the one spec-to-verdict path.

    Modes ``first``, ``pairs`` and ``both`` run an
    :class:`EvaluationCampaign`; ``mode="exact"`` runs the sharded
    exhaustive enumeration of
    :func:`~repro.leakage.certify.run_exact_analysis`.  Every CLI
    command and :class:`JobRunner` come through here, so a spec reaches
    the same report, and through :func:`exit_code_for` the same exit
    code, whichever door it came in by.

    The keyword arguments are execution extras outside the spec.
    ``runner`` (a :class:`~repro.service.fleet.FleetRunner`) goes to
    either sweep unchanged and executes the campaign's blocks or the
    sweep's shards as work items; the caller closes it.
    ``fault_plane``, ``default_chunking``, ``time_budget``,
    ``early_stop`` and ``stall_timeout`` apply to campaigns only.

    Returns ``(report, progress)``: ``progress`` is the campaign's
    :class:`~repro.leakage.campaign.CampaignProgress`, ``None`` for an
    exact sweep.  A spec that fails :meth:`EvaluationSpec.validate`
    raises :class:`~repro.errors.SpecError` before any work.
    """
    spec.validate()
    if spec.mode == "exact":
        from repro.leakage.certify import run_exact_analysis

        report = run_exact_analysis(
            build_design(spec.design, spec.scheme).dut,
            probing_model(spec),
            max_enum_bits=spec.max_enum_bits,
            shard_lane_bits=spec.shard_lane_bits,
            workers=spec.workers,
            fixed_secret=spec.fixed_secret,
            checkpoint=checkpoint,
            resume=resume,
            hook=hook,
            should_stop=should_stop,
            runner=runner,
            engine=spec.engine,
        )
        return report, None
    evaluator = evaluator_for(spec)
    config = spec.campaign_config(
        checkpoint=checkpoint,
        default_chunking=default_chunking,
        time_budget=time_budget,
        early_stop=early_stop,
        stall_timeout=stall_timeout,
    )
    campaign = EvaluationCampaign(
        evaluator,
        config,
        hook=hook,
        should_stop=should_stop,
        fault_plane=fault_plane,
        runner=runner,
    )
    return campaign.run(resume=resume), campaign.progress


def exit_code_for(report_dict: Dict) -> int:
    """The exit code of a report dict (sampled or exact).

    1 when a probe leaks; 3 (inconclusive) when the run was truncated,
    or when an exact sweep left probes beyond its enumeration budget --
    unexamined probes might leak, so that is never a pass; 0 otherwise.
    """
    if not report_dict.get("passed"):
        return 1
    if report_dict.get("status", "complete") != "complete":
        return 3
    if report_dict.get("mode") == "exact" and report_dict.get("n_skipped"):
        return 3
    return 0


def verdict_summary(report_dict: Dict) -> Dict:
    """Compact result summary stored on the job record."""
    return {
        "passed": bool(report_dict.get("passed")),
        "status": report_dict.get("status"),
        "max_mlog10p": report_dict.get("max_mlog10p"),
        "n_probe_classes": report_dict.get("n_probe_classes"),
        "exit_code": exit_code_for(report_dict),
    }


class JobRunner:
    """Worker threads executing queued jobs against the store.

    ``stall_timeout`` arms the per-job watchdog: a running job making no
    progress (no campaign event) for that many seconds is stopped at its
    next chunk boundary and restarted from its checkpoint.  A job
    interrupted or stalled more than ``max_restarts`` times is a poison
    job and parks in state ``dead_letter`` (visible in ``/v1/metrics``)
    instead of being restarted forever.
    """

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        telemetry: Telemetry,
        threads: int = 1,
        stall_timeout: Optional[float] = None,
        max_restarts: int = 3,
        fault_plane=None,
        fleet=None,
    ):
        if threads < 1:
            raise ServiceError("runner threads must be at least 1")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ServiceError("stall_timeout must be positive")
        if max_restarts < 0:
            raise ServiceError("max_restarts must be non-negative")
        self.store = store
        self.queue = queue
        self.telemetry = telemetry
        self.n_threads = threads
        self.stall_timeout = stall_timeout
        self.max_restarts = max_restarts
        #: chaos fault plane threaded into every campaign this runner
        #: builds ("checkpoint.*", "runner.chunk", "engine.compile",
        #: "worker.block" sites); ``None`` in production.
        self.fault_plane = fault_plane
        #: fleet coordinator for distributed execution; when set, jobs
        #: farm their chunk blocks / exact shards out to leased workers
        #: instead of running them on this thread (bit-identical either
        #: way).  ``None`` keeps the classic local execution path.
        self.fleet = fleet
        self._threads: list = []
        self._watchdog_thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        self._cancels: Dict[str, threading.Event] = {}
        self._cancels_lock = threading.Lock()
        self._stalls: Dict[str, threading.Event] = {}
        self._progress: Dict[str, float] = {}
        self._progress_lock = threading.Lock()
        self._busy = 0
        self._busy_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.n_threads):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-runner-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.stall_timeout is not None and self._watchdog_thread is None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="repro-runner-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    # -------------------------------------------------------------- watchdog

    def _touch(self, job_id: str) -> None:
        with self._progress_lock:
            if job_id in self._progress:
                self._progress[job_id] = time.monotonic()

    def _watchdog_loop(self) -> None:
        """Reap running jobs that stopped making progress.

        Stalls are detected by silence: every campaign event refreshes the
        job's progress timestamp, so a wedged chunk (hung worker, livelock,
        injected "runner.chunk" hang) shows up as a stale one.  Firing sets
        the job's stall event -- polled by the campaign's ``should_stop``
        at chunk boundaries and enforced inside the chunk by the
        executor's shard timeout -- after which :meth:`_execute` restarts
        the job from its checkpoint or dead-letters it.
        """
        assert self.stall_timeout is not None
        interval = max(0.02, min(0.5, self.stall_timeout / 4))
        while not self._shutdown.is_set():
            now = time.monotonic()
            with self._progress_lock:
                stalled = [
                    job_id
                    for job_id, last in self._progress.items()
                    if now - last > self.stall_timeout
                ]
                for job_id in stalled:
                    # Fire once per run; _execute re-registers on restart.
                    self._progress.pop(job_id, None)
            for job_id in stalled:
                with self._progress_lock:
                    event = self._stalls.get(job_id)
                if event is not None and not event.is_set():
                    event.set()
                    self.telemetry.emit(
                        "watchdog_stalled",
                        job_id=job_id,
                        stall_timeout=self.stall_timeout,
                    )
            self._shutdown.wait(interval)

    def shutdown(self, wait: bool = True) -> None:
        """Stop draining the queue and stop running campaigns cleanly.

        Running jobs stop at their next chunk boundary (or, on a runner,
        their next work item) and return to state ``queued`` with their
        checkpoint on disk -- the durable image a restarted service
        recovers from.  ``wait=False`` only signals; a later call with
        ``wait=True`` joins the worker threads.
        """
        self._shutdown.set()
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=60)
            self._threads = []

    def recover(self) -> int:
        """Re-enqueue jobs a previous process left ``queued``/``running``.

        A job found ``running`` was interrupted mid-execution (crash or
        SIGKILL) and counts one restart; a job that has crashed its way
        past ``max_restarts`` is poison and dead-letters instead of
        crashing the service a further time.  Jobs found ``queued`` never
        got to run and re-enqueue without penalty.
        """
        recovered = 0
        for record in self.store.recoverable_jobs():
            job_id = record["job_id"]
            if record["state"] == "running":
                restarts = int(record.get("restarts") or 0) + 1
                if restarts > self.max_restarts:
                    self._dead_letter(
                        job_id,
                        restarts,
                        "interrupted mid-run more often than max_restarts",
                    )
                    continue
                self.store.update_job(
                    job_id, state="queued", restarts=restarts
                )
            else:
                self.store.update_job(job_id, state="queued")
            self.telemetry.emit(
                "job_recovered",
                job_id=job_id,
                had_checkpoint=durable.checkpoint_exists(
                    self.store.checkpoint_path(job_id)
                ),
            )
            self.queue.put(job_id)
            recovered += 1
        return recovered

    def _dead_letter(self, job_id: str, restarts: int, reason: str) -> None:
        self.store.update_job(
            job_id,
            state="dead_letter",
            restarts=restarts,
            finished_at=round(time.time(), 3),
            error=f"dead-lettered after {restarts} restarts: {reason}",
        )
        self.telemetry.emit(
            "job_dead_letter", job_id=job_id, restarts=restarts, reason=reason
        )

    def _restart_or_dead_letter(self, job_id: str, reason: str) -> None:
        """Requeue a stalled job from its checkpoint, or park poison."""
        record = self.store.get_job(job_id) or {}
        restarts = int(record.get("restarts") or 0) + 1
        if restarts > self.max_restarts:
            self._dead_letter(job_id, restarts, reason)
            return
        self.store.update_job(job_id, state="queued", restarts=restarts)
        self.telemetry.emit(
            "job_restarted", job_id=job_id, restarts=restarts, reason=reason
        )
        try:
            self.queue.put(job_id)
        except ServiceError:
            # Queue full or closing: the durable record stays ``queued``,
            # so the next recover() pass re-enqueues it.
            pass

    def cancel(self, job_id: str) -> Dict:
        """Cancel a queued or running job; terminal jobs are an error."""
        record = self.store.get_job(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if record["state"] == "running":
            with self._cancels_lock:
                event = self._cancels.get(job_id)
            if event is not None:
                event.set()
            return record
        if record["state"] == "queued":
            record = self.store.update_job(job_id, state="cancelled")
            self.telemetry.emit("job_cancelled", job_id=job_id, while_queued=True)
            return record
        raise ServiceError(
            f"job {job_id!r} is already {record['state']}; cannot cancel"
        )

    @property
    def busy_workers(self) -> int:
        """Threads currently executing a job (for ``/metrics``)."""
        with self._busy_lock:
            return self._busy

    # ------------------------------------------------------------- execution

    def _worker_loop(self) -> None:
        while not self._shutdown.is_set():
            job_id = self.queue.get(timeout=0.2)
            if job_id is None:
                continue
            record = self.store.get_job(job_id)
            if record is None or record["state"] != "queued":
                continue  # cancelled while queued, or stale id
            with self._busy_lock:
                self._busy += 1
            try:
                self._execute(record)
            finally:
                with self._busy_lock:
                    self._busy -= 1

    def _execute(self, record: Dict) -> None:
        job_id = record["job_id"]
        cache_key = record["cache_key"]
        spec = JobSpec.from_dict(record["spec"])
        cancel_event = threading.Event()
        stall_event = threading.Event()
        with self._cancels_lock:
            self._cancels[job_id] = cancel_event
        with self._progress_lock:
            self._stalls[job_id] = stall_event
            self._progress[job_id] = time.monotonic()
        checkpoint = self.store.checkpoint_path(job_id)
        self.store.update_job(
            job_id, state="running", started_at=round(time.time(), 3)
        )
        self.telemetry.emit("job_started", job_id=job_id)
        tele_hook = self.telemetry.campaign_hook(job_id)

        def hook(event: str, payload: Dict) -> None:
            self._touch(job_id)
            tele_hook(event, payload)
            if event == "chunk_done":
                self.store.update_job(
                    job_id,
                    progress={
                        "blocks_done": payload.get("blocks_done"),
                        "blocks_total": payload.get("blocks_total"),
                        "chunks_done": payload.get("chunks_done"),
                        "elapsed": round(payload.get("elapsed", 0.0), 3),
                    },
                )
            elif event == "shard_done":
                self.store.update_job(
                    job_id,
                    progress={
                        "probe_class": payload.get("probe_class"),
                        "shards_done": payload.get("done"),
                        "shards_total": payload.get("total"),
                    },
                )

        def should_stop() -> bool:
            return (
                cancel_event.is_set()
                or stall_event.is_set()
                or self._shutdown.is_set()
            )

        try:
            # An identical job may have completed while this one sat in the
            # queue; answer from the (verified) verdict cache instead of
            # re-simulating.  A record failing verification self-heals to a
            # miss, so this falls through to an honest recomputation.
            if self.store.has_result(cache_key):
                data = self.store.get_result(cache_key)
                if data is not None:
                    summary = verdict_summary(_json_loads(data))
                    self.store.update_job(
                        job_id,
                        state="done",
                        cached=True,
                        finished_at=round(time.time(), 3),
                        result=summary,
                    )
                    self.telemetry.emit(
                        "cache_hit", job_id=job_id, cache_key=cache_key,
                        late=True,
                    )
                    self.telemetry.emit(
                        "job_completed", job_id=job_id, cached=True
                    )
                    return
            runner = None
            if self.fleet is not None:
                from repro.service.fleet import FleetRunner

                self.fleet.register_job(job_id, spec.to_dict())
                runner = FleetRunner(self.fleet, job_id, should_stop)
            report, progress = run_spec(
                spec,
                checkpoint=checkpoint,
                resume=True,
                hook=hook,
                should_stop=should_stop,
                fault_plane=self.fault_plane,
                runner=runner,
                default_chunking=True,
                stall_timeout=self.stall_timeout,
            )
            if report.status == "truncated:cancelled":
                self._stopped(
                    job_id, checkpoint, cancel_event, stall_event, progress
                )
                return
            self._finish(job_id, cache_key, checkpoint, report, progress)
        except ReproError as exc:
            self.store.update_job(
                job_id,
                state="failed",
                finished_at=round(time.time(), 3),
                error=str(exc),
            )
            self.telemetry.emit("job_failed", job_id=job_id, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - runner must not die
            self.store.update_job(
                job_id,
                state="failed",
                finished_at=round(time.time(), 3),
                error=f"internal error: {exc!r}",
            )
            self.telemetry.emit(
                "job_failed",
                job_id=job_id,
                error=repr(exc),
                traceback=traceback.format_exc(limit=5),
            )
        finally:
            if self.fleet is not None:
                self.fleet.release_job(job_id)
            with self._cancels_lock:
                self._cancels.pop(job_id, None)
            with self._progress_lock:
                self._stalls.pop(job_id, None)
                self._progress.pop(job_id, None)

    def _stopped(
        self,
        job_id: str,
        checkpoint: str,
        cancel_event: threading.Event,
        stall_event: threading.Event,
        progress=None,
    ) -> None:
        """Settle a job that stopped on request before its verdict.

        Cancellation ends it and deletes every generation of its
        checkpoint.  A watchdog stall restarts it from its checkpoint, or
        dead-letters it.  A service shutdown returns it to the durable
        queue image the next boot resumes.  ``progress`` is the stopped
        campaign's (``None`` for an exact sweep).  A stop inside a chunk
        or shard on a runner lands here too: the unfinished work merged
        nothing, and the checkpoint holds everything before it.
        """
        if cancel_event.is_set():
            durable.discard_checkpoint(checkpoint)  # before it shows cancelled
            self.store.update_job(
                job_id, state="cancelled", finished_at=round(time.time(), 3)
            )
            self.telemetry.emit("job_cancelled", job_id=job_id)
        elif stall_event.is_set():
            # The watchdog reaped this run; its checkpoint is the durable
            # image the restart resumes from.
            unit = "shard" if progress is None else "chunk"
            self._restart_or_dead_letter(
                job_id,
                f"no {unit} progress within {self.stall_timeout:g}s "
                "(watchdog)",
            )
        else:
            self.store.update_job(job_id, state="queued")
            blocks = {}
            if progress is not None:
                blocks = {
                    "blocks_done": progress.blocks_done,
                    "blocks_total": progress.blocks_total,
                }
            self.telemetry.emit("job_interrupted", job_id=job_id, **blocks)

    def _finish(
        self, job_id: str, cache_key: str, checkpoint: str, report, progress
    ) -> None:
        """Memoize a finished job's verdict and mark the job ``done``.

        The verdict cache gets the report bytes; the job record gets the
        summary plus execution detail: a campaign's block progress and
        degradations, or an exact sweep's count of infeasible probes.
        """
        self.store.put_result(cache_key, report.to_json(top=None))
        durable.discard_checkpoint(checkpoint)  # before it shows done
        summary = verdict_summary(report.to_dict(top=0))
        fields, resumed = {}, {}
        if progress is None:
            summary["n_infeasible"] = len(report.infeasible)
        else:
            if report.degradations:
                # Execution provenance lives on the job record, not in the
                # cached verdict bytes (which stay environment-invariant).
                summary["degradations"] = list(report.degradations)
            resumed["resumed_from_block"] = progress.resumed_from_block
            fields["progress"] = {
                "blocks_done": progress.blocks_done,
                "blocks_total": progress.blocks_total,
                "chunks_done": progress.chunks_done,
                **resumed,
            }
        self.store.update_job(
            job_id,
            state="done",
            finished_at=round(time.time(), 3),
            result=summary,
            **fields,
        )
        self.telemetry.emit(
            "job_completed",
            job_id=job_id,
            cached=False,
            passed=summary["passed"],
            status=summary["status"],
            **resumed,
        )


def _json_loads(data: Optional[bytes]) -> Dict:
    return json.loads(data.decode("utf-8")) if data else {}
