"""Distributed campaign fabric: the coordinator side of ``/v1/fleet/``.

The service historically executed jobs on local runner threads only.  This
module promotes it to a coordinator/worker architecture without touching
the determinism contract:

* the **coordinator** (:class:`FleetCoordinator`) holds a lease-based work
  queue of *work items* -- either a contiguous slice of a campaign chunk's
  sampling blocks, or one shard of an exact enumeration plan for the
  probe classes sharing one enumeration setup.  Workers pull items over
  HTTP (``POST /v1/fleet/lease``), renew them with heartbeats, and
  stream back serialized
  :class:`~repro.leakage.evaluator.HistogramAccumulator` state (or exact
  shard counts).  A lease that is neither completed nor renewed within
  ``lease_seconds`` expires and its item is reissued -- a SIGKILLed worker
  costs wall-clock time, never results;
* the **executor** (:class:`FleetExecutor`) plugs into
  :class:`~repro.leakage.campaign.EvaluationCampaign` exactly where the
  process-pool :class:`~repro.leakage.parallel.ParallelExecutor` does.
  The campaign loop -- checkpoints, adaptive decisions at chunk
  boundaries, slice telemetry, the verdict cache -- runs unchanged on the
  coordinator; only the per-chunk block accumulation is farmed out.

Why the merged results are **bit-identical** to serial execution for any
worker count, interleaving, or mid-campaign worker death:

* every sampling block draws from a private
  ``SeedSequence(seed, spawn_key=(group, block))`` stream, so a block
  simulates to the same trace on any host that executes it;
* per-probe histogram accumulation commutes and the report layer sorts
  table ids and observation keys, so merge *order* cannot leak into the
  report bytes;
* a reissued item re-executes the identical block list (or shard), and
  the coordinator accepts only the *first* completion per item -- a slow
  worker finishing after its lease expired produces a byte-identical
  duplicate that is acknowledged and discarded, never double-merged;
* exact shard counts merge by sorted key union + elementwise addition
  (:func:`repro.leakage.certify.merge_shard_counts`), commutative and
  associative by construction.

Result payloads cross the wire as base64-wrapped NPZ; a payload that fails
to decode (torn connection, chaos site ``"fleet.complete"``) requeues its
item instead of poisoning the merge.
"""

from __future__ import annotations

import base64
import io
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FleetInterrupted, ServiceError, SimulationError
from repro.leakage.evaluator import BLOCK_LANES, HistogramAccumulator
from repro.leakage.parallel import shard_blocks

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_SECONDS = 30.0

#: Times an item may be leased (first grant included) before the job that
#: owns it fails.  Expiries and corrupt payloads both consume attempts, so
#: a systematically failing item cannot livelock a campaign.
DEFAULT_MAX_ATTEMPTS = 5

#: A worker counts as live while its last lease/heartbeat/complete call is
#: at most this many seconds old (for ``/v1/metrics`` liveness gauges).
WORKER_LIVE_SECONDS = 30.0


def encode_arrays(arrays: Dict[str, np.ndarray]) -> str:
    """Base64 NPZ of named arrays (the wire form of result state)."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_arrays(text: str) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_arrays`; raises ``ServiceError`` on rot."""
    return decode_arrays_bytes(_b64_bytes(text))


def _b64_bytes(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError, AttributeError) as exc:
        raise ServiceError(f"result payload is not valid base64: {exc}")


def decode_arrays_bytes(blob: bytes) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(blob)) as data:
            return {key: np.array(data[key]) for key in data.files}
    except Exception as exc:  # zip/format errors -> typed rejection
        raise ServiceError(f"result payload failed to decode: {exc}")


class _WorkItem:
    """One leased unit of work (a block slice or an exact shard)."""

    __slots__ = ("item_id", "job_id", "payload", "attempts", "result", "error")

    def __init__(self, item_id: str, job_id: str, payload: Dict):
        self.item_id = item_id
        self.job_id = job_id
        self.payload = payload
        self.attempts = 0
        self.result: Optional[Dict] = None
        self.error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.result is not None


class _Lease:
    __slots__ = ("lease_id", "item_id", "worker_id", "deadline")

    def __init__(
        self, lease_id: str, item_id: str, worker_id: str, deadline: float
    ):
        self.lease_id = lease_id
        self.item_id = item_id
        self.worker_id = worker_id
        self.deadline = deadline


class FleetCoordinator:
    """Lease-based work queue with central, first-writer-wins merging.

    Thread-safe; shared by the HTTP handler threads (worker RPCs), the
    runner threads (item submission and waiting), and -- through
    :class:`~repro.service.worker.LocalTransport` -- embedded local
    workers, which make the single-host deployment the degenerate
    one-worker case of the same code path.
    """

    def __init__(
        self,
        telemetry=None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        fault_plane=None,
    ):
        if lease_seconds <= 0:
            raise ServiceError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        self.telemetry = telemetry
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        #: chaos fault plane for the "fleet.lease" / "fleet.complete"
        #: sites; ``None`` in production.
        self.fault_plane = fault_plane
        self._lock = threading.Lock()
        self._results_ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Dict] = {}
        self._items: Dict[str, _WorkItem] = {}
        self._pending: Deque[str] = deque()
        self._leases: Dict[str, _Lease] = {}
        #: expired/settled lease ids -> item ids, kept so a late complete
        #: from a reaped worker still resolves (and gets acknowledged as a
        #: duplicate instead of erroring the worker into a retry storm).
        self._settled_leases: Dict[str, str] = {}
        self._workers: Dict[str, Dict] = {}
        self._counter = 0
        self.counters: Dict[str, int] = {
            "items_submitted": 0,
            "items_completed": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "duplicate_results": 0,
            "bad_results": 0,
            "worker_failures": 0,
        }

    # ----------------------------------------------------------- telemetry

    def _emit(self, event: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event, **fields)

    # ------------------------------------------------------- job lifecycle

    def register_job(self, job_id: str, spec_dict: Dict) -> None:
        """Make a job's spec available to work-item payloads."""
        with self._lock:
            self._jobs[job_id] = dict(spec_dict)

    def release_job(self, job_id: str) -> None:
        """Drop a finished/aborted job's items, leases, and spec."""
        with self._lock:
            self._jobs.pop(job_id, None)
            dead = [
                item_id
                for item_id, item in self._items.items()
                if item.job_id == job_id
            ]
            for item_id in dead:
                del self._items[item_id]
            self._pending = deque(
                item_id for item_id in self._pending if item_id not in dead
            )
            for lease_id, lease in list(self._leases.items()):
                if lease.item_id in dead:
                    del self._leases[lease_id]
            for lease_id, item_id in list(self._settled_leases.items()):
                if item_id in dead:
                    del self._settled_leases[lease_id]
            self._results_ready.notify_all()

    # ------------------------------------------------------- work planning

    def suggest_shards(self, n_blocks: int) -> int:
        """Slices to cut a chunk into, sized to the live worker set.

        Twice the live worker count keeps the fleet busy while leaving
        slices small enough that a lost lease re-executes little; with no
        worker seen yet (job admitted before the first worker connects) a
        small default still produces parallelizable items.  Pure load
        balance -- the result bytes do not depend on it.
        """
        live = self.live_worker_count()
        return max(1, min(n_blocks, 2 * live if live else 4))

    def submit_items(self, job_id: str, payloads: Sequence[Dict]) -> List[str]:
        """Enqueue work items for ``job_id``; returns their ids in order."""
        with self._lock:
            if job_id not in self._jobs:
                raise ServiceError(
                    f"job {job_id!r} is not registered with the fleet"
                )
            ids: List[str] = []
            for payload in payloads:
                self._counter += 1
                item_id = f"wi-{self._counter:08d}"
                self._items[item_id] = _WorkItem(item_id, job_id, dict(payload))
                self._pending.append(item_id)
                ids.append(item_id)
            self.counters["items_submitted"] += len(ids)
            return ids

    # ------------------------------------------------------- lease protocol

    def _sweep_locked(self, now: float) -> None:
        """Requeue items whose lease silently expired (dead worker)."""
        expired = [
            lease for lease in self._leases.values() if lease.deadline < now
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            self._settled_leases[lease.lease_id] = lease.item_id
            item = self._items.get(lease.item_id)
            if item is None or item.done:
                continue
            self.counters["leases_expired"] += 1
            self._requeue_locked(item, f"lease {lease.lease_id} expired")
            self._emit(
                "lease_expired",
                lease_id=lease.lease_id,
                item_id=item.item_id,
                worker_id=lease.worker_id,
                attempts=item.attempts,
            )

    def _requeue_locked(self, item: _WorkItem, reason: str) -> None:
        if item.attempts >= self.max_attempts:
            item.error = (
                f"work item failed after {item.attempts} attempts: {reason}"
            )
            self._results_ready.notify_all()
            return
        if item.item_id not in self._pending:
            self._pending.appendleft(item.item_id)

    def _touch_worker_locked(self, worker_id: str, now: float) -> None:
        entry = self._workers.setdefault(
            worker_id, {"completed": 0, "first_seen": now}
        )
        entry["last_seen"] = now

    def lease(self, worker_id: str) -> Optional[Dict]:
        """Grant the next pending item to ``worker_id`` (or ``None``).

        The returned work order carries everything a stateless worker
        needs: the job's spec, the item payload, and the lease terms.
        """
        if self.fault_plane is not None:
            # Chaos site "fleet.lease": the coordinator answers 500 (a
            # restart mid-request, say); workers must ride it out with
            # retry/backoff and re-lease.
            self.fault_plane.maybe_fail("fleet.lease")
        now = time.monotonic()
        with self._lock:
            self._touch_worker_locked(worker_id, now)
            self._sweep_locked(now)
            while self._pending:
                item_id = self._pending.popleft()
                item = self._items.get(item_id)
                if item is None or item.done or item.error is not None:
                    continue
                item.attempts += 1
                self._counter += 1
                lease_id = f"ls-{self._counter:08d}"
                self._leases[lease_id] = _Lease(
                    lease_id, item_id, worker_id, now + self.lease_seconds
                )
                self.counters["leases_granted"] += 1
                self._emit(
                    "lease_granted",
                    lease_id=lease_id,
                    item_id=item_id,
                    job_id=item.job_id,
                    worker_id=worker_id,
                    attempt=item.attempts,
                )
                return {
                    "lease_id": lease_id,
                    "item_id": item_id,
                    "job_id": item.job_id,
                    "lease_seconds": self.lease_seconds,
                    "spec": self._jobs.get(item.job_id, {}),
                    "work": item.payload,
                }
            return None

    def heartbeat(self, lease_id: str, worker_id: str) -> bool:
        """Renew a lease; ``False`` when it already expired or settled."""
        now = time.monotonic()
        with self._lock:
            self._touch_worker_locked(worker_id, now)
            self._sweep_locked(now)
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.deadline = now + self.lease_seconds
            return True

    def complete(self, lease_id: str, worker_id: str, body: Dict) -> Dict:
        """Accept a finished item's result (first writer wins).

        The payload is decoded *before* any state changes: a corrupt
        result requeues the item and the worker is told to move on.  A
        completion against an expired lease whose item already finished
        elsewhere is acknowledged as a duplicate -- execution is
        deterministic, so the bytes are identical and nothing merges
        twice.
        """
        blob = _b64_bytes(str(body.get("npz", "")))
        if self.fault_plane is not None:
            # Chaos site "fleet.complete": the result payload rots in
            # flight (IO kinds raise like a dropped connection; payload
            # kinds corrupt the bytes so decoding must reject them).
            blob = self.fault_plane.filter_read("fleet.complete", blob)
        now = time.monotonic()
        with self._lock:
            self._touch_worker_locked(worker_id, now)
            self._sweep_locked(now)
            lease = self._leases.pop(lease_id, None)
            if lease is not None:
                self._settled_leases[lease_id] = lease.item_id
                item_id = lease.item_id
            else:
                item_id = self._settled_leases.get(lease_id, "")
            item = self._items.get(item_id)
            if item is None:
                # Job released (cancelled/failed) while the worker ran.
                return {"ok": True, "duplicate": True}
            if item.done:
                self.counters["duplicate_results"] += 1
                self._emit(
                    "lease_duplicate", lease_id=lease_id, item_id=item_id
                )
                return {"ok": True, "duplicate": True}
            try:
                arrays = decode_arrays_bytes(blob)
            except ServiceError as exc:
                self.counters["bad_results"] += 1
                self._requeue_locked(item, f"corrupt result payload ({exc})")
                self._results_ready.notify_all()
                self._emit(
                    "fleet_bad_result",
                    lease_id=lease_id,
                    item_id=item_id,
                    worker_id=worker_id,
                    error=str(exc),
                )
                return {"ok": False, "requeued": item.error is None}
            item.result = {"arrays": arrays, "meta": body.get("meta") or {}}
            self.counters["items_completed"] += 1
            entry = self._workers.get(worker_id)
            if entry is not None:
                entry["completed"] += 1
            self._emit(
                "lease_completed",
                lease_id=lease_id,
                item_id=item_id,
                job_id=item.job_id,
                worker_id=worker_id,
            )
            self._results_ready.notify_all()
            return {"ok": True, "duplicate": False}

    def fail(self, lease_id: str, worker_id: str, error: str) -> Dict:
        """A worker reports it could not execute its leased item."""
        now = time.monotonic()
        with self._lock:
            self._touch_worker_locked(worker_id, now)
            lease = self._leases.pop(lease_id, None)
            if lease is not None:
                self._settled_leases[lease_id] = lease.item_id
                item = self._items.get(lease.item_id)
                if item is not None and not item.done:
                    self.counters["worker_failures"] += 1
                    self._requeue_locked(item, f"worker error: {error}")
                    self._results_ready.notify_all()
                    self._emit(
                        "fleet_item_failed",
                        lease_id=lease_id,
                        item_id=item.item_id,
                        worker_id=worker_id,
                        error=error,
                        attempts=item.attempts,
                    )
            return {"ok": True}

    # ---------------------------------------------------------- collection

    def wait(
        self,
        item_ids: Sequence[str],
        should_stop: Optional[Callable[[], bool]] = None,
        on_result: Optional[Callable[[str, Dict], None]] = None,
        poll: float = 0.1,
    ) -> Dict[str, Dict]:
        """Block until every item in ``item_ids`` has a result.

        ``should_stop`` is polled between waits; once true the wait aborts
        with :class:`FleetInterrupted` (cancellation, watchdog stall, or
        service shutdown -- the campaign's ladder takes over).  An item
        that exhausted its attempts raises :class:`ServiceError`.
        ``on_result`` observes each result exactly once, in completion
        order, while later items are still in flight (the exact-mode merge
        path -- merging commutes, so order is load balance only).
        """
        wanted = list(item_ids)
        seen: set = set()
        results: Dict[str, Dict] = {}
        while True:
            with self._lock:
                self._sweep_locked(time.monotonic())
                newly: List[Tuple[str, Dict]] = []
                for item_id in wanted:
                    if item_id in seen:
                        continue
                    item = self._items.get(item_id)
                    if item is None:
                        raise FleetInterrupted(
                            f"work item {item_id!r} vanished (job released)"
                        )
                    if item.error is not None:
                        raise ServiceError(item.error)
                    if item.done:
                        seen.add(item_id)
                        results[item_id] = item.result
                        newly.append((item_id, item.result))
                all_done = len(seen) == len(wanted)
                if not all_done and not newly:
                    self._results_ready.wait(poll)
            for item_id, result in newly:
                if on_result is not None:
                    on_result(item_id, result)
            if all_done:
                return results
            if should_stop is not None and should_stop():
                raise FleetInterrupted(
                    "fleet wait interrupted (cancel/stall/shutdown)"
                )

    # -------------------------------------------------------------- gauges

    def live_worker_count(self, window: float = WORKER_LIVE_SECONDS) -> int:
        now = time.monotonic()
        with self._lock:
            return sum(
                1
                for entry in self._workers.values()
                if now - entry.get("last_seen", 0.0) <= window
            )

    def stats(self) -> Dict:
        """Gauges and counters for ``/v1/metrics`` and ``GET /v1/fleet``."""
        now = time.monotonic()
        with self._lock:
            return {
                "lease_seconds": self.lease_seconds,
                "pending_items": len(self._pending),
                "active_leases": len(self._leases),
                "registered_jobs": len(self._jobs),
                "workers_seen": len(self._workers),
                "workers_live": sum(
                    1
                    for entry in self._workers.values()
                    if now - entry.get("last_seen", 0.0)
                    <= WORKER_LIVE_SECONDS
                ),
                "counters": dict(self.counters),
            }


# ---------------------------------------------------------------- executor


class FleetExecutor:
    """Campaign executor that accumulates chunks through the fleet.

    Implements the :class:`~repro.leakage.parallel.ParallelExecutor`
    ``accumulate``/``close`` interface, so
    :class:`~repro.leakage.campaign.EvaluationCampaign` drives it without
    knowing whether blocks run in a process pool or on remote workers.
    """

    def __init__(
        self,
        coordinator: FleetCoordinator,
        job_id: str,
        spec_dict: Dict,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self.coordinator = coordinator
        self.job_id = job_id
        self.spec_dict = spec_dict
        self.should_stop = should_stop
        coordinator.register_job(job_id, spec_dict)

    def accumulate(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int,
        blocks,
        classes=None,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
    ) -> None:
        """Slice ``blocks`` into leases, wait, merge (submission order)."""
        if classes is not None:
            raise ServiceError(
                "fleet execution ships class indices, not probe objects"
            )
        block_list = list(blocks)
        if not block_list:
            return
        if class_indices is None:
            # Every probe class, as a worker selects them: results are
            # checked against an explicit list.
            from repro.service.runner import evaluator_for
            from repro.spec import EvaluationSpec

            spec = EvaluationSpec.from_dict(self.spec_dict)
            class_indices = range(len(evaluator_for(spec).probe_classes))
        slices = shard_blocks(
            block_list, self.coordinator.suggest_shards(len(block_list))
        )
        payloads = [
            {
                "kind": "blocks",
                "fixed_secret": fixed_secret,
                "n_lanes": n_lanes,
                "n_windows": n_windows,
                "blocks": [int(b) for b in chunk_slice],
                "class_indices": [int(i) for i in class_indices],
                "pairs": [[int(a), int(b)] for a, b in pairs],
                "pair_offsets": [int(o) for o in pair_offsets],
            }
            for chunk_slice in slices
        ]
        ids = self.coordinator.submit_items(self.job_id, payloads)
        results = self.coordinator.wait(ids, should_stop=self.should_stop)
        for item_id, payload in zip(ids, payloads):
            acc.merge(_checked_tables(item_id, payload, results[item_id]))

    def close(self) -> None:
        """Drop any in-flight items for this job (idempotent)."""
        self.coordinator.release_job(self.job_id)


def _checked_tables(
    item_id: str, payload: Dict, result: Dict
) -> HistogramAccumulator:
    """The tables of a ``blocks`` result, checked against its work item.

    Raises :class:`ServiceError` unless the result holds exactly the
    tables the item asked for (``c<i>`` per class index,
    ``p<i>:<j>:<delta>`` per pair and offset) in the packed layout of
    :meth:`HistogramAccumulator.state_arrays`, each counting every lane
    and window of the item's blocks once per group.  A short or partial
    result would otherwise merge silently while the campaign reports
    the full sample budget.
    """

    def malformed(reason) -> ServiceError:
        return ServiceError(
            f"work item {item_id} returned malformed tables: {reason}"
        )

    arrays = result["arrays"]
    ids = list(result["meta"].get("table_ids", []))
    offsets = sorted(set(payload["pair_offsets"]))
    requested = sorted(
        [f"c{i}" for i in payload["class_indices"]]
        + [f"p{i}:{j}:{d}" for i, j in payload["pairs"] for d in offsets]
    )
    if sorted(ids) != requested:
        missing = sorted(set(requested) - set(ids))
        unexpected = sorted(set(ids) - set(requested))
        raise malformed(
            f"{len(ids)} tables for {len(requested)} requested (missing "
            f"{missing[:3]}, unexpected {unexpected[:3]})"
        )
    try:
        state = HistogramAccumulator.from_state(ids, arrays)
    except SimulationError as exc:
        raise malformed(exc) from exc
    if not ids:
        return state
    if "n_keys" not in arrays:
        raise malformed("tables are not in the packed layout")
    n_keys = arrays["n_keys"]
    occupied = n_keys > 0
    totals = np.zeros((2, len(ids)), dtype=np.int64)
    if occupied.any():
        starts = (np.cumsum(n_keys) - n_keys)[occupied]
        totals[:, occupied] = np.add.reduceat(
            arrays["counts"], starts, axis=1
        )
    lanes = sum(
        min(BLOCK_LANES, int(payload["n_lanes"]) - block * BLOCK_LANES)
        for block in payload["blocks"]
    )
    expected = lanes * int(payload["n_windows"])
    short = np.flatnonzero((totals != expected).any(axis=0))
    if short.size:
        index = int(short[0])
        raise malformed(
            f"table {ids[index]!r} counts {totals[:, index].tolist()} "
            f"observations per group, expected {expected}"
        )
    return state


#: Per-class arrays of an ``exact_shard`` result, named ``<name>_<class>``.
_SHARD_ARRAYS = ("keys", "rows", "counts")


def fleet_exact_dispatch(
    coordinator: FleetCoordinator,
    job_id: str,
    should_stop: Optional[Callable[[], bool]] = None,
):
    """A ``dispatch`` hook for :class:`ShardedExactAnalyzer` fleet runs.

    Replaces the analyzer's process pool: each pending ``(class_indices,
    shard, lane_bits)`` task becomes one leased work item -- one
    simulation counting every listed class -- and ``merge`` fires per
    class in completion order as workers stream counts back (sorted-union
    merging commutes, so the final histograms -- and the report bytes --
    match the serial sweep exactly).
    """

    def dispatch(pending, merge, stop) -> bool:
        payloads = [
            {
                "kind": "exact_shard",
                "class_indices": [int(ci) for ci in class_indices],
                "shard_index": int(si),
                "lane_bits": int(lane_bits),
            }
            for class_indices, si, lane_bits in pending
        ]
        ids = coordinator.submit_items(job_id, payloads)
        tasks = dict(zip(ids, payloads))

        def merge_result(item_id: str, result: Dict) -> None:
            arrays = result["arrays"]
            task = tasks[item_id]
            try:
                counts = [
                    [arrays[f"{name}_{ci}"] for name in _SHARD_ARRAYS]
                    for ci in task["class_indices"]
                ]
            except KeyError as exc:
                raise ServiceError(
                    f"work item {item_id} returned no shard counts {exc}"
                ) from exc
            for ci, triple in zip(task["class_indices"], counts):
                merge(ci, task["shard_index"], *triple)

        effective_stop = stop if stop is not None else should_stop
        try:
            coordinator.wait(
                ids, should_stop=effective_stop, on_result=merge_result
            )
        except FleetInterrupted:
            return True
        return False

    return dispatch
