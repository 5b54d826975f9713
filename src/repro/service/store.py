"""Persistent, content-addressed job/result store for the evaluation service.

PROLEAD-style evaluations are exactly the workload users re-run with
identical parameters: the same (netlist, randomness scheme, probing model,
sample budget, seed) tuple is queried again and again while candidate
schemes are compared.  Because the whole evaluation pipeline is
deterministic by construction -- per-block ``SeedSequence`` streams, commuting
histogram accumulation, engine- and worker-invariant results -- the verdict
for such a tuple is a pure function of the tuple.  The store exploits that:

* **Cache key.**  The canonical SHA-256 over the *semantic* job parameters:
  the netlist structure hash from :func:`repro.netlist.compile.
  netlist_content_hash` (not the design/scheme *names* -- two names building
  the same circuit share verdicts), probing model, observation mode, sample
  budget, windows, fixed secret, threshold, campaign mode, pair selection,
  and RNG seed.  ``mode="exact"`` jobs extend the key with an ``"exact"``
  parameter block (the enumeration budget decides which probes get
  verdicts), so exact and sampled verdicts for the same netlist never
  collide.  Execution details that provably do not change results --
  engine, worker count, chunk size, checkpoint layout, exact shard size --
  are deliberately excluded, so a verdict computed serially on the
  bitsliced engine answers a query that would have run 16-way parallel on
  the compiled one, and a sharded exact sweep answers a serial one.

* **Records.**  One JSON file per job under ``jobs/`` (submission state,
  spec, progress, result summary) and one per verdict under ``results/``
  keyed by cache key, holding the exact serialized report text -- a cache
  hit returns **byte-identical** output to the run that populated it.  All
  writes are atomic (same-directory temp file + ``os.replace``), so a
  SIGKILL mid-write leaves the previous version intact, never a torn file.

* **Crash recovery.**  Job records double as the durable queue image:
  on restart, records still in state ``queued``/``running`` are re-enqueued
  and their campaigns resume from the per-job checkpoint under
  ``checkpoints/``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chaos import DEFAULT_RETRY, FaultPlane, RetryPolicy
from repro.errors import ServiceError
from repro.leakage import durable
from repro.leakage.report import SCHEMA_VERSION
from repro.spec import EvaluationSpec, canonical_key  # noqa: F401

#: The service job spec *is* the canonical evaluation spec; the alias
#: survives for callers that imported it from here before
#: :mod:`repro.spec` existed.
JobSpec = EvaluationSpec

#: Job states; ``queued`` and ``running`` survive a restart as "recover
#: me".  ``dead_letter`` holds poison jobs: interrupted/stalled too many
#: times, parked for a human instead of being restarted forever.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "dead_letter")

#: States in which a job record is final and its report (if any) immutable.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "dead_letter"})


@dataclass
class StoreStats:
    """Verdict-cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    #: records that failed verification on read and were quarantined;
    #: every one of these was served as a miss, never as a report.
    corruptions: int = 0

    def to_dict(self) -> Dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else None,
            "corruptions": self.corruptions,
        }


class JobStore:
    """Directory-backed job records plus the content-addressed verdict cache.

    Thread-safe: all mutation happens under one re-entrant lock, and every
    record update notifies a condition variable so HTTP long-polls can wait
    for state changes without busy-looping.
    """

    def __init__(
        self,
        root: str,
        hook: Optional[Callable[[str, Dict], None]] = None,
        fault_plane: Optional[FaultPlane] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.results_dir = os.path.join(self.root, "results")
        self.checkpoints_dir = os.path.join(self.root, "checkpoints")
        for path in (self.jobs_dir, self.results_dir, self.checkpoints_dir):
            os.makedirs(path, exist_ok=True)
        #: optional ``hook(event, payload)`` telemetry callback (receives
        #: "store_corruption" and "io_retry").
        self.hook = hook
        #: chaos fault plane for the "store.write"/"store.read_result"
        #: sites; ``None`` (production) costs nothing.
        self.fault_plane = fault_plane
        #: transient-IO retry policy for all store writes.
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._lock = threading.RLock()
        self.changed = threading.Condition(self._lock)
        self._records: Dict[str, Dict] = {}
        self.stats = StoreStats()
        self._load_records()

    def _write(self, path: str, data: bytes) -> None:
        """Atomic write with bounded retry and chaos injection."""
        try:
            durable.write_atomic(
                path, data, site="store.write", retry=self.retry,
                fault_plane=self.fault_plane, hook=self.hook,
            )
        except OSError as exc:
            raise ServiceError(f"could not write {path!r}: {exc}") from exc

    # --------------------------------------------------------------- records

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _result_path(self, cache_key: str) -> str:
        return os.path.join(self.results_dir, f"{cache_key}.json")

    def checkpoint_path(self, job_id: str) -> str:
        """Campaign checkpoint file owned by one job."""
        return os.path.join(self.checkpoints_dir, f"{job_id}.npz")

    def telemetry_path(self) -> str:
        """Default JSON-lines telemetry file inside the store root."""
        return os.path.join(self.root, "telemetry.jsonl")

    def _load_records(self) -> None:
        """Load persisted job records, quarantining any that fail to parse.

        A single rotted record must not brick the whole service on
        restart: it is moved to ``<record>.corrupt`` (kept for
        post-mortems), counted and reported as ``store_corruption``, and
        the remaining records load normally.
        """
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path, "r") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict) or "job_id" not in record:
                    raise ValueError("job record is not a job object")
            except (OSError, ValueError) as exc:
                self._quarantine(path, f"corrupt job record: {exc}")
                continue
            self._records[record["job_id"]] = record

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a failed-verification file aside and report it."""
        moved = durable.quarantine(path)
        with self._lock:
            self.stats.corruptions += 1
        if self.hook is not None:
            self.hook(
                "store_corruption",
                {"path": path, "quarantine": moved, "reason": reason},
            )

    def new_job(self, spec: JobSpec, cache_key: str) -> Dict:
        """Create and persist a fresh job record in state ``queued``."""
        with self._lock:
            job_id = f"{len(self._records) + 1:06d}-{cache_key[:12]}"
            while job_id in self._records:  # collision after deletions
                job_id = f"{int(job_id.split('-')[0]) + 1:06d}-{cache_key[:12]}"
            record = {
                "schema_version": SCHEMA_VERSION,
                "job_id": job_id,
                "cache_key": cache_key,
                "spec": spec.to_dict(),
                "state": "queued",
                "cached": False,
                "submitted_at": round(time.time(), 3),
                "started_at": None,
                "finished_at": None,
                "error": None,
                "progress": None,
                "result": None,
                "restarts": 0,
            }
            self._persist(record)
            return dict(record)

    def _persist(self, record: Dict) -> None:
        self._records[record["job_id"]] = record
        self._write(
            self._job_path(record["job_id"]),
            (json.dumps(record, indent=2, sort_keys=True) + "\n").encode(),
        )
        self.changed.notify_all()

    def update_job(self, job_id: str, **fields) -> Dict:
        """Merge ``fields`` into a job record, persist, notify waiters."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job {job_id!r}")
            state = fields.get("state")
            if state is not None and state not in JOB_STATES:
                raise ServiceError(f"invalid job state {state!r}")
            record = dict(record)
            record.update(fields)
            self._persist(record)
            return dict(record)

    def get_job(self, job_id: str) -> Optional[Dict]:
        with self._lock:
            record = self._records.get(job_id)
            return dict(record) if record is not None else None

    def list_jobs(self) -> List[Dict]:
        """All job records, oldest first."""
        with self._lock:
            return [
                dict(r)
                for r in sorted(
                    self._records.values(), key=lambda r: r["job_id"]
                )
            ]

    def wait_for_terminal(
        self, job_id: str, timeout: float
    ) -> Optional[Dict]:
        """Long-poll: block until the job reaches a terminal state.

        Returns the latest record (terminal or not) after at most
        ``timeout`` seconds; ``None`` for unknown jobs.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    return None
                if record["state"] in TERMINAL_STATES:
                    return dict(record)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return dict(record)
                self.changed.wait(remaining)

    def recoverable_jobs(self) -> List[Dict]:
        """Jobs interrupted by a crash/shutdown, oldest first."""
        with self._lock:
            return [
                dict(r)
                for r in sorted(
                    self._records.values(), key=lambda r: r["job_id"]
                )
                if r["state"] in ("queued", "running")
            ]

    # --------------------------------------------------------- verdict cache

    def _crc_path(self, cache_key: str) -> str:
        return self._result_path(cache_key) + ".crc32"

    def _read_verified(self, cache_key: str) -> Optional[bytes]:
        """Read and *verify* a cached verdict; corrupt records self-heal.

        Verification: CRC32 against the ``.crc32`` sidecar (absent sidecar
        tolerated -- pre-sidecar stores stay readable), JSON
        well-formedness, and ``schema_version`` no newer than this code
        understands.  Any failure quarantines the record (clearing the
        path so the recomputed verdict can repopulate it under
        first-writer-wins) and returns ``None`` -- the caller sees a cache
        miss, never a wrong or unparseable report.
        """
        path = self._result_path(cache_key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, f"unreadable verdict record: {exc}")
            return None
        if self.fault_plane is not None:
            try:
                data = self.fault_plane.filter_read("store.read_result", data)
            except OSError as exc:
                self._quarantine(path, f"injected read fault: {exc}")
                return None
        reason = self._verify_verdict(cache_key, data)
        if reason is not None:
            self._quarantine(path, reason)
            try:
                os.remove(self._crc_path(cache_key))
            except OSError:
                pass
            return None
        return data

    def _verify_verdict(self, cache_key: str, data: bytes) -> Optional[str]:
        """Why ``data`` is not a servable verdict, or ``None`` if it is."""
        try:
            with open(self._crc_path(cache_key), "r") as handle:
                expected = int(handle.read().strip(), 16)
        except FileNotFoundError:
            expected = None
        except (OSError, ValueError):
            return "unreadable checksum sidecar"
        if expected is not None and zlib.crc32(data) & 0xFFFFFFFF != expected:
            return "checksum mismatch"
        try:
            record = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return "invalid JSON"
        if not isinstance(record, dict):
            return "verdict record is not an object"
        version = record.get("schema_version")
        if version is not None and (
            not isinstance(version, int) or version > SCHEMA_VERSION
        ):
            return (
                f"schema_version {version!r} is newer than the supported "
                f"{SCHEMA_VERSION}"
            )
        return None

    def get_result(self, cache_key: str) -> Optional[bytes]:
        """The verified report bytes for ``cache_key``, counting hit/miss.

        A record failing verification counts as a miss (the corruption
        itself is counted separately in :attr:`StoreStats.corruptions`).
        """
        data = self._read_verified(cache_key)
        with self._lock:
            if data is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return data

    def has_result(self, cache_key: str) -> bool:
        """Existence probe that does not touch the hit/miss stats.

        Existence is necessary but not sufficient: serving paths must
        still go through :meth:`get_result`/:meth:`read_result`, which
        verify.
        """
        return os.path.exists(self._result_path(cache_key))

    def read_result(self, cache_key: str) -> Optional[bytes]:
        """Verified report bytes without counting a hit or miss.

        Used when *serving* an already-answered job's report; only lookups
        that decide whether a simulation can be skipped count as hits.
        """
        return self._read_verified(cache_key)

    def put_result(self, cache_key: str, report_json: str) -> None:
        """Memoize the exact serialized report for ``cache_key``.

        First writer wins: a concurrent duplicate computation must not
        replace the bytes an earlier hit may already have returned.  The
        CRC32 sidecar lands first so a record, once visible, is always
        verifiable.
        """
        path = self._result_path(cache_key)
        data = report_json.encode("utf-8")
        with self._lock:
            if os.path.exists(path):
                return
            self._write(
                self._crc_path(cache_key),
                f"{zlib.crc32(data) & 0xFFFFFFFF:08x}\n".encode(),
            )
            self._write(path, data)

    # ----------------------------------------------------------------- stats

    def counts_by_state(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for record in self._records.values():
                counts[record["state"]] += 1
            return counts
