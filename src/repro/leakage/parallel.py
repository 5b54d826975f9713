"""Work items: the one path of every parallel campaign chunk and exact sweep.

A parallel run -- campaign blocks or exact shards, on a local process pool
or on the service's fleet -- goes through the same four steps:

* **items.**  A chunk's sampling blocks are cut into ``blocks`` items
  (:class:`BlockExecutor`) and an exact sweep's shard tasks become
  ``exact_shard`` items (:func:`exact_dispatch`).  An item is a JSON-safe
  dict: the payload fleet workers lease.
* **execution.**  :func:`execute_item` runs one item against an evaluator
  or an exact analyzer and returns its result, named numpy arrays plus
  JSON-safe meta.  Pool processes and fleet workers both call it.
* **checks.**  Every result is vetted against its item before anything
  merges: :func:`checked_tables` for ``blocks``, :func:`checked_shard_counts`
  for ``exact_shard``.  A result that does not hold exactly what its item
  asked for raises :class:`~repro.errors.WorkItemError`.
* **runners.**  ``runner.run(payloads, on_result, should_stop)`` calls
  ``on_result(index, result)`` exactly once per item that completes and
  reruns only the items without a result, until every item has one
  (``False``) or ``should_stop`` ends the run (``True``).  ``shards(n)``
  says how many items to cut ``n`` blocks into; ``close()`` releases the
  runner.  :class:`PoolRunner` is the local process pool;
  :class:`repro.service.fleet.FleetRunner` runs items on leased fleet
  workers.

Results are **bit-identical** to the serial path for any runner, worker
count or item boundaries: every block draws its stimulus from a private
``SeedSequence(seed, spawn_key=(group, block))`` stream, an exact shard
enumerates a fixed assignment range, and all counts merge by addition.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FleetInterrupted, SimulationError, WorkItemError
from repro.leakage.evaluator import (
    HistogramAccumulator,
    LeakageEvaluator,
    packed_totals,
)

#: Per-class arrays of an ``exact_shard`` result, named ``<name>_<class>``.
_SHARD_ARRAYS = ("keys", "rows", "counts")


def default_workers() -> int:
    """Worker count matching the machine's visible CPU count."""
    return max(1, os.cpu_count() or 1)


def effective_workers(requested: int) -> int:
    """Cap a requested worker count at the visible CPU count.

    Oversubscribing a CPU-bound run is strictly counterproductive
    (``BENCH_parallel.json`` measured a 0.801x "speedup" for workers=2 on a
    single core: the pool pays pickling and merge overhead with no core to
    run on), so campaigns and exact sweeps cap the pool size and warn
    instead of silently running slower than serial.
    """
    if requested < 1:
        raise SimulationError("workers must be at least 1")
    cpus = default_workers()
    if requested > cpus:
        warnings.warn(
            f"requested {requested} workers but only {cpus} CPU(s) are "
            f"visible; capping at {cpus} (oversubscription makes the "
            "parallel path slower than serial)",
            RuntimeWarning,
            stacklevel=2,
        )
        return cpus
    return requested


def shard_blocks(blocks: Iterable[int], n_shards: int) -> List[List[int]]:
    """Split block indices into at most ``n_shards`` contiguous shards.

    Shard sizes differ by at most one block and every block appears exactly
    once; shard boundaries have no effect on results (accumulation
    commutes), only on load balance.
    """
    block_list = list(blocks)
    if n_shards < 1:
        raise SimulationError("n_shards must be at least 1")
    if not block_list:
        return []
    n_shards = min(n_shards, len(block_list))
    base, extra = divmod(len(block_list), n_shards)
    shards: List[List[int]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(block_list[start:start + size])
        start += size
    return shards


# ------------------------------------------------------ execution and checks


def execute_item(target, payload: Dict) -> Dict:
    """Run one work item; returns ``{"arrays": ..., "meta": ...}``.

    ``target`` is a :class:`LeakageEvaluator` for ``blocks`` items and an
    :class:`~repro.leakage.exact.ExactAnalyzer` for ``exact_shard`` items.
    """
    kind = payload.get("kind")
    if kind == "blocks":
        acc = HistogramAccumulator()
        target.accumulate(
            acc,
            int(payload["fixed_secret"]),
            int(payload["n_lanes"]),
            int(payload["n_windows"]),
            class_indices=tuple(int(i) for i in payload["class_indices"]),
            pairs=tuple(
                (int(a), int(b)) for a, b in payload.get("pairs", [])
            ),
            pair_offsets=tuple(
                int(o) for o in payload.get("pair_offsets", [0])
            ),
            blocks=[int(b) for b in payload["blocks"]],
        )
        ids, arrays = acc.state_arrays()
        return {"arrays": arrays, "meta": {"table_ids": ids}}
    if kind == "exact_shard":
        class_indices = [int(ci) for ci in payload["class_indices"]]
        shard_index = int(payload["shard_index"])
        counts = target.count_shard(
            [target.probe_classes[ci] for ci in class_indices],
            shard_index=shard_index,
            shard_lane_bits=int(payload["lane_bits"]),
        )
        arrays = {
            f"{name}_{ci}": array
            for ci, triple in zip(class_indices, counts)
            for name, array in zip(_SHARD_ARRAYS, triple)
        }
        meta = {"class_indices": class_indices, "shard_index": shard_index}
        return {"arrays": arrays, "meta": meta}
    raise WorkItemError(f"unknown work item kind {kind!r}")


def checked_tables(
    payload: Dict, result: Dict, block_lanes: int
) -> HistogramAccumulator:
    """The tables of a ``blocks`` result, checked against its item.

    Raises :class:`WorkItemError` unless the result holds exactly the
    tables the item asked for (``c<i>`` per class index,
    ``p<i>:<j>:<delta>`` per pair and offset) in the packed layout of
    :meth:`HistogramAccumulator.state_arrays`, each counting every lane
    (``block_lanes`` per block, the last block possibly partial) and
    window of the item's blocks once per group.  A short, doubled or
    partial result would otherwise merge silently while the campaign
    reports the full sample budget.
    """
    blocks = payload["blocks"]

    def malformed(reason) -> WorkItemError:
        return WorkItemError(
            f"blocks item {blocks[0]}..{blocks[-1]} returned malformed "
            f"tables: {reason}"
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
    totals = packed_totals(arrays)
    n_lanes = int(payload["n_lanes"])
    lanes = sum(
        min(block_lanes, n_lanes - block * block_lanes) for block in blocks
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


def checked_shard_counts(
    payload: Dict, result: Dict
) -> List[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(class, shard, keys, rows, counts)`` per class of an ``exact_shard``
    result; raises :class:`WorkItemError` unless every listed class is
    there."""
    arrays = result["arrays"]
    shard_index = int(payload["shard_index"])
    try:
        return [
            (int(ci), shard_index)
            + tuple(arrays[f"{name}_{ci}"] for name in _SHARD_ARRAYS)
            for ci in payload["class_indices"]
        ]
    except KeyError as exc:
        raise WorkItemError(
            f"exact_shard item for shard {shard_index} returned no shard "
            f"counts {exc}"
        ) from exc


# ------------------------------------------------------ item kinds on runners


class BlockExecutor:
    """Accumulates campaign chunks as ``blocks`` items on a runner.

    Drives :class:`~repro.leakage.campaign.EvaluationCampaign` chunks:
    :meth:`accumulate` mirrors :meth:`LeakageEvaluator.accumulate`.  Each
    result is checked as it arrives and the chunk merges only once every
    item has a checked result, so a bad result, a worker
    :class:`MemoryError` (which propagates, keeping the campaign's
    split-and-retry) or a stop merges nothing.
    """

    def __init__(self, evaluator: LeakageEvaluator, runner):
        self.evaluator = evaluator
        self.runner = runner

    def accumulate(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int,
        blocks: Iterable[int],
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
    ) -> None:
        """Accumulate ``blocks`` into ``acc`` through the runner."""
        block_list = [int(b) for b in blocks]
        if not block_list:
            return
        if class_indices is None:
            class_indices = range(len(self.evaluator.probe_classes))
        item = {
            "kind": "blocks",
            "fixed_secret": int(fixed_secret),
            "n_lanes": int(n_lanes),
            "n_windows": int(n_windows),
            "class_indices": [int(i) for i in class_indices],
            "pairs": [[int(a), int(b)] for a, b in pairs],
            "pair_offsets": [int(o) for o in pair_offsets],
        }
        payloads = [
            dict(item, blocks=shard)
            for shard in shard_blocks(
                block_list, self.runner.shards(len(block_list))
            )
        ]
        tables: List[Optional[HistogramAccumulator]] = [None] * len(payloads)

        def check(index: int, result: Dict) -> None:
            tables[index] = checked_tables(
                payloads[index], result, self.evaluator.block_lanes
            )

        if self.runner.run(payloads, check):
            raise FleetInterrupted(
                "stopped before every blocks item returned a result"
            )
        for state in tables:
            acc.merge(state)

    def close(self) -> None:
        """Release the runner (idempotent)."""
        self.runner.close()

    def __enter__(self) -> "BlockExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def exact_dispatch(runner) -> Callable:
    """A :meth:`ShardedExactAnalyzer.analyze` ``dispatch`` on ``runner``.

    Each pending ``(class_indices, shard, lane_bits)`` task becomes one
    ``exact_shard`` item -- one simulation counting every listed class --
    and ``merge`` fires per class as each checked result arrives, in
    completion order (sorted-union merging commutes, so the final
    histograms match the serial sweep exactly).
    """

    def dispatch(pending, merge, should_stop=None) -> bool:
        payloads = [
            {
                "kind": "exact_shard",
                "class_indices": [int(ci) for ci in class_indices],
                "shard_index": int(shard_index),
                "lane_bits": int(lane_bits),
            }
            for class_indices, shard_index, lane_bits in pending
        ]

        def merge_result(index: int, result: Dict) -> None:
            for counts in checked_shard_counts(payloads[index], result):
                merge(*counts)

        return runner.run(payloads, merge_result, should_stop)

    return dispatch


# ----------------------------------------------------------- the local pool

#: Evaluator or exact analyzer owned by a pool process (set by the
#: pool initializer).
_TARGET = None


def _init_target(payload: bytes) -> None:
    """Pool initializer: unpickle the target once per worker process."""
    global _TARGET
    _TARGET = pickle.loads(payload)


def _run_in_pool(payload: Dict) -> Dict:
    """Execute one item inside a pool process."""
    plane = getattr(_TARGET, "fault_plane", None)
    if plane is not None:
        # Chaos site "worker.block": simulate a worker dying mid-item
        # (SIGKILL'd by the OOM killer, say) or wedging.  ``os._exit``
        # bypasses all cleanup exactly like a real kill, surfacing in the
        # parent as BrokenProcessPool.
        kind = plane.decide("worker.block")
        if kind == "kill":
            os._exit(13)
        if kind == "hang":
            time.sleep(plane.hang_seconds)
    return execute_item(_TARGET, payload)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Cheapest available start method: fork when the OS offers it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class PoolRunner:
    """The local process pool runner, bound to one evaluator or analyzer.

    The pool starts lazily on the first :meth:`run` and is reused across
    runs, so a checkpointing campaign pays the worker startup (and the
    one pickle of ``target``) once, not per chunk.  The target object
    itself ships, so self-check mutants and library callers need no spec.
    Its degradation ladder: a dead pool (or, past ``shard_timeout``
    seconds, a stalled one, whose workers are reaped) is rebuilt
    ``max_pool_restarts`` times, then the runner falls back to executing
    items in-process for good -- the same bytes, no pool to die.  Use as a
    context manager or call :meth:`close`.
    """

    def __init__(
        self,
        target,
        workers: Optional[int] = None,
        hook=None,
        shard_timeout: Optional[float] = None,
        max_pool_restarts: int = 1,
    ):
        if workers is not None and workers < 1:
            raise SimulationError("workers must be at least 1")
        if shard_timeout is not None and shard_timeout <= 0:
            raise SimulationError("shard_timeout must be positive")
        if max_pool_restarts < 0:
            raise SimulationError("max_pool_restarts must be non-negative")
        self.target = target
        self.workers = workers if workers is not None else default_workers()
        #: optional ``hook(event: str, payload: dict)`` telemetry callback;
        #: receives "pool_start", "shard_dispatch", "pool_restart",
        #: "worker_stalled", "degradation" and "serial_fallback".
        self.hook = hook
        #: deadline in seconds for one run's items; past it the pool's
        #: processes are terminated (hung-worker reaping).  ``None`` waits
        #: forever.
        self.shard_timeout = shard_timeout
        self.max_pool_restarts = max_pool_restarts
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_breaks = 0
        self._serial_fallback = False

    def _emit(self, event: str, **payload) -> None:
        if self.hook is not None:
            self.hook(event, payload)

    # ------------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> None:
        if (
            self._pool is not None
            or self._serial_fallback
            or self.workers == 1
        ):
            return
        try:
            payload = pickle.dumps(
                self.target, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_pool_context(),
                initializer=_init_target,
                initargs=(payload,),
            )
            self._emit("pool_start", workers=self.workers)
        except (OSError, ValueError, pickle.PicklingError) as exc:
            self._fall_back(exc)

    def _fall_back(self, exc: Exception) -> None:
        warnings.warn(
            f"multiprocessing unavailable ({exc!r}); work continues "
            "in-process with identical results",
            RuntimeWarning,
            stacklevel=4,
        )
        self._emit(
            "degradation",
            kind="serial_fallback",
            detail=f"worker pool degraded to in-process execution ({exc!r})",
        )
        self._emit("serial_fallback", error=repr(exc))
        self._serial_fallback = True
        self._shutdown_pool()

    def _pool_failed(self, exc: Exception) -> None:
        """Ladder rung for a dead or reaped pool: restart, then serial."""
        self._pool_breaks += 1
        if self._pool_breaks <= self.max_pool_restarts:
            self._shutdown_pool()
            self._emit(
                "pool_restart", breaks=self._pool_breaks, error=repr(exc)
            )
        else:
            self._fall_back(exc)

    def _reap_stalled(self, elapsed: float) -> None:
        """Terminate a wedged pool's worker processes (watchdog reaping)."""
        self._emit(
            "worker_stalled", timeout=self.shard_timeout, elapsed=elapsed
        )
        for process in list(getattr(self._pool, "_processes", {}).values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._shutdown_pool()

    def __enter__(self) -> "PoolRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- execution

    def shards(self, n_blocks: int) -> int:
        """Items to cut ``n_blocks`` blocks into: one per worker."""
        return self.workers

    def run(
        self,
        payloads: Sequence[Dict],
        on_result: Callable[[int, Dict], None],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Run ``payloads``; True when ``should_stop`` ended the run early.

        ``on_result(index, result)`` fires once per completed item, in
        completion order.  A broken or stalled pool reruns only the items
        without a result -- in a rebuilt pool, then in-process.
        """
        todo = dict(enumerate(payloads))
        while todo:
            self._ensure_pool()
            if self._pool is None:
                for index in sorted(todo):
                    on_result(index, execute_item(self.target, todo[index]))
                    del todo[index]
                    if todo and should_stop is not None and should_stop():
                        return True
                return False
            self._emit("shard_dispatch", n_shards=len(todo))
            started = time.monotonic()
            futures = {}
            try:
                for index, payload in todo.items():
                    futures[self._pool.submit(_run_in_pool, payload)] = index
                for future in as_completed(futures, self.shard_timeout):
                    index = futures[future]
                    on_result(index, future.result())
                    del todo[index]
                    if todo and should_stop is not None and should_stop():
                        return True
            except BrokenProcessPool as exc:
                self._pool_failed(exc)
            except FutureTimeout as exc:
                self._reap_stalled(time.monotonic() - started)
                self._pool_failed(exc)
            finally:
                for future in futures:
                    future.cancel()
        return False
