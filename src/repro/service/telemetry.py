"""Structured telemetry for the evaluation service.

Every operationally interesting moment -- job lifecycle transitions, cache
hits, campaign chunk completions, worker-pool events -- is appended to a
JSON-lines file as one self-describing event record::

    {"ts": 1754500000.123, "event": "job_started", "job_id": "...", ...}

and simultaneously folded into an in-memory counter table that the HTTP
layer serves verbatim at ``/metrics``.  The file is the durable,
grep/jq-able audit trail (CI uploads it as an artifact); the counters are
the cheap live view.  Writes are line-buffered and serialized under a lock,
so events from concurrent runner threads never interleave within a line --
a reader can always ``json.loads`` each line independently.

The logger doubles as the injectable ``hook(event, payload)`` expected by
:class:`~repro.leakage.campaign.EvaluationCampaign` and
:class:`~repro.leakage.parallel.PoolRunner` via :meth:`campaign_hook`,
which stamps every forwarded event with its job id.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, Optional

#: Events counted under their own name in the ``/metrics`` counter table.
#: Everything else still lands in the JSON-lines file.
COUNTED_EVENTS = frozenset(
    {
        "job_submitted",
        "job_started",
        "job_completed",
        "job_failed",
        "job_cancelled",
        "job_interrupted",
        "job_recovered",
        "cache_hit",
        "cache_miss",
        "chunk_done",
        "checkpoint_saved",
        "pool_start",
        "serial_fallback",
        "shard_dispatch",
        "probe_decided",
        "adaptive_escalated",
        "adaptive_finished_early",
        "program_sliced",
        "job_restarted",
        "job_dead_letter",
        "watchdog_stalled",
        "lease_granted",
        "lease_expired",
        "lease_completed",
        "lease_duplicate",
        "fleet_bad_result",
        "fleet_item_failed",
        "quota_rejected",
        "degraded_serial",
        "degradation",
        "store_corruption",
        "checkpoint_corrupt",
        "checkpoint_fallback",
        "io_retry",
        "worker_stalled",
        "pool_restart",
        "chaos_fault",
    }
)


class Telemetry:
    """JSON-lines event log plus thread-safe metric counters."""

    def __init__(self, path: Optional[str] = None, fault_plane=None):
        self.path = path
        #: chaos fault plane for the "telemetry.write" site.
        self.fault_plane = fault_plane
        self._lock = threading.Lock()
        self._counters: Counter = Counter()
        #: cumulative seconds per evaluation stage (stimulus / simulate /
        #: extract / histogram), folded from ``chunk_done`` payloads so
        #: ``/metrics`` can attribute campaign wall-clock per stage.
        self._stage_seconds: Dict[str, float] = {}
        self._handle = open(path, "a", buffering=1) if path else None

    # ---------------------------------------------------------------- events

    def emit(self, event: str, **fields) -> None:
        """Append one event line and bump its counter.

        Telemetry is observability, never control flow: a failing event
        write (disk full, injected "telemetry.write" fault) must not fail
        the job it narrates, so write errors are swallowed into the
        ``telemetry_write_errors`` counter and the in-memory counters keep
        counting.
        """
        record = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        with self._lock:
            if event in COUNTED_EVENTS:
                self._counters[event] += 1
            if event == "chunk_done":
                stages = fields.get("stage_seconds")
                if isinstance(stages, dict):
                    for name, seconds in stages.items():
                        try:
                            self._stage_seconds[name] = (
                                self._stage_seconds.get(name, 0.0)
                                + float(seconds)
                            )
                        except (TypeError, ValueError):
                            continue
            if self._handle is None:
                return
            try:
                if self.fault_plane is not None:
                    self.fault_plane.maybe_fail("telemetry.write")
                self._handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            except (OSError, ValueError):
                self._counters["telemetry_write_errors"] += 1

    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter (for ``/metrics``)."""
        with self._lock:
            return dict(self._counters)

    def stage_seconds(self) -> Dict[str, float]:
        """Cumulative per-stage campaign seconds (for ``/metrics``)."""
        with self._lock:
            return {
                name: round(seconds, 6)
                for name, seconds in self._stage_seconds.items()
            }

    # ----------------------------------------------------------------- hooks

    def emit_hook(self) -> Callable[[str, Dict], None]:
        """A bare ``hook(event, payload)`` adapter over :meth:`emit` (the
        shape :class:`~repro.service.store.JobStore` and
        :func:`repro.chaos.retry_io` expect)."""

        def hook(event: str, payload: Dict) -> None:
            self.emit(event, **payload)

        return hook

    def campaign_hook(self, job_id: str) -> Callable[[str, Dict], None]:
        """A campaign/executor hook that stamps events with ``job_id``."""

        def hook(event: str, payload: Dict) -> None:
            self.emit(event, job_id=job_id, **payload)

        return hook

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush and close the event file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
