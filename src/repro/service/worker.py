"""Fleet worker: pulls leased work items and executes them locally.

A :class:`FleetWorker` is the execution half of the distributed campaign
fabric (see :mod:`repro.service.fleet`).  It is deliberately *stateless*:
every work order carries the job's full spec, so a worker needs nothing
but a coordinator address -- no shared filesystem, no store access, no
checkpoint.  Determinism does the rest: a block samples from its private
``SeedSequence(seed, spawn_key=(group, block))`` stream and an exact shard
enumerates a fixed assignment range, so *which* worker executes an item
(or how many times, after lease expiries) cannot change the bytes the
coordinator merges.

Two transports bind the same loop to both deployments:

* :class:`LocalTransport` calls the in-process
  :class:`~repro.service.fleet.FleetCoordinator` directly -- the service's
  embedded local workers, making single-host serving the degenerate
  one-worker case of the distributed path;
* :class:`HttpTransport` speaks the ``/v1/fleet/`` protocol over urllib
  (stdlib only), with :func:`~repro.chaos.retry_io` exponential backoff on
  connection-level failures and 5xx responses so a coordinator restart
  costs a pause, not the lease.

The CLI front end is ``repro worker --coordinator URL``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
import uuid
from typing import Dict, Optional

from repro.chaos import DEFAULT_RETRY, RetryPolicy, retry_io
from repro.errors import ReproError, ServiceError
from repro.leakage.parallel import execute_item
from repro.memo import Memo
from repro.service.store import JobSpec
from repro.spec import EvaluationSpec

#: Heartbeats per lease lifetime; 3 renewals before expiry rides out a
#: couple of dropped heartbeat round-trips.
HEARTBEATS_PER_LEASE = 3.0

#: Evaluators (and analyzers) a worker keeps unless told otherwise.  A
#: worker needs one per job whose items it is running: a coordinator
#: queues every running job's items in one FIFO, so with more jobs running
#: at once than this bound the jobs' items interleave and each change of
#: job rebuilds an evaluator.  The service sizes its embedded workers
#: from its runner threads (one job each); a remote ``repro worker`` keeps
#: this default.
BUILD_CACHE_SIZE = 8


class LocalTransport:
    """Direct in-process coordinator calls (the embedded-worker path)."""

    def __init__(self, coordinator):
        self.coordinator = coordinator

    def lease(self, worker_id: str) -> Optional[Dict]:
        return self.coordinator.lease(worker_id)

    def heartbeat(self, lease_id: str, worker_id: str) -> bool:
        return self.coordinator.heartbeat(lease_id, worker_id)

    def complete(self, lease_id: str, worker_id: str, body: Dict) -> Dict:
        return self.coordinator.complete(lease_id, worker_id, body)

    def fail(self, lease_id: str, worker_id: str, error: str) -> Dict:
        return self.coordinator.fail(lease_id, worker_id, error)


class _RetryableHTTP(OSError):
    """A 5xx coordinator response, wrapped so ``retry_io`` retries it."""


class HttpTransport:
    """``/v1/fleet/`` protocol over urllib with retry/backoff.

    Connection-level failures (``URLError``: refused, reset, DNS) and 5xx
    responses retry with exponential backoff -- a coordinator restart or a
    transient overload is survivable.  4xx responses raise
    :class:`ServiceError` immediately: the request itself is wrong and
    retrying cannot fix it.
    """

    def __init__(
        self,
        base_url: str,
        retry: RetryPolicy = DEFAULT_RETRY,
        timeout: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.retry = retry
        self.timeout = timeout

    def _post(self, path: str, payload: Dict) -> Dict:
        url = f"{self.base_url}{path}"
        data = json.dumps(payload).encode("utf-8")

        def round_trip() -> Dict:
            request = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # Must precede URLError: HTTPError subclasses it (and
                # OSError), and a 4xx must not burn retry attempts.
                body = exc.read().decode("utf-8", "replace")
                if exc.code >= 500:
                    raise _RetryableHTTP(
                        f"coordinator {exc.code} on {path}: {body[:200]}"
                    )
                raise ServiceError(
                    f"coordinator rejected {path} ({exc.code}): {body[:200]}"
                )

        return retry_io(
            round_trip,
            self.retry,
            site="fleet.rpc",
            retry_on=(urllib.error.URLError, _RetryableHTTP, TimeoutError),
        )

    def lease(self, worker_id: str) -> Optional[Dict]:
        body = self._post("/v1/fleet/lease", {"worker_id": worker_id})
        return body.get("work")

    def heartbeat(self, lease_id: str, worker_id: str) -> bool:
        body = self._post(
            f"/v1/fleet/leases/{lease_id}/heartbeat",
            {"worker_id": worker_id},
        )
        return bool(body.get("ok"))

    def complete(self, lease_id: str, worker_id: str, body: Dict) -> Dict:
        payload = dict(body)
        payload["worker_id"] = worker_id
        return self._post(f"/v1/fleet/leases/{lease_id}/complete", payload)

    def fail(self, lease_id: str, worker_id: str, error: str) -> Dict:
        return self._post(
            f"/v1/fleet/leases/{lease_id}/fail",
            {"worker_id": worker_id, "error": error},
        )


class FleetWorker:
    """Lease → execute → complete loop over a transport.

    Caches built evaluators and exact analyzers across items keyed by the
    spec fields that shape them, so a thousand-block campaign compiles its
    engine once per worker, not once per lease.  Both caches keep the
    ``cache_size`` most recently used entries, which should cover the
    jobs the coordinator runs at once (see :data:`BUILD_CACHE_SIZE`).
    """

    def __init__(
        self,
        transport,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
        cache_size: int = BUILD_CACHE_SIZE,
    ):
        self.transport = transport
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.poll_interval = poll_interval
        self._evaluators = Memo(cache_size)
        self._analyzers = Memo(cache_size)
        self.items_done = 0
        self.items_failed = 0

    # ------------------------------------------------------------ build cache

    def _evaluator_for(self, spec: EvaluationSpec):
        from repro.service.runner import evaluator_for

        key = (
            spec.design,
            spec.scheme,
            spec.model,
            spec.seed,
            spec.engine,
            spec.slice,
        )
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = evaluator_for(spec)
            self._evaluators.put(key, evaluator)
        return evaluator

    def _analyzer_for(self, spec: EvaluationSpec):
        from repro.leakage.exact import ExactAnalyzer
        from repro.service.runner import build_design, probing_model

        key = (
            spec.design, spec.scheme, spec.model, spec.max_enum_bits,
            spec.engine,
        )
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            analyzer = ExactAnalyzer(
                build_design(spec.design, spec.scheme).dut,
                probing_model(spec),
                max_enum_bits=spec.max_enum_bits,
                engine=spec.engine,
            )
            self._analyzers.put(key, analyzer)
        return analyzer

    # -------------------------------------------------------------- execution

    def execute_item(self, work: Dict) -> Dict:
        """Run one work order; returns the completion body (npz + meta)."""
        from repro.service.fleet import encode_arrays

        spec = JobSpec.from_dict(work["spec"])
        payload = work["work"]
        build = (
            self._analyzer_for
            if payload.get("kind") == "exact_shard"
            else self._evaluator_for
        )
        result = execute_item(build(spec), payload)
        return {"npz": encode_arrays(result["arrays"]), "meta": result["meta"]}

    def _run_one(self, work: Dict) -> None:
        lease_id = work["lease_id"]
        lease_seconds = float(work.get("lease_seconds") or 30.0)
        done = threading.Event()

        def heartbeat_loop() -> None:
            interval = max(0.05, lease_seconds / HEARTBEATS_PER_LEASE)
            while not done.wait(interval):
                try:
                    # A False renewal means the lease already expired; keep
                    # computing anyway -- the completion resolves through
                    # the coordinator's settled-lease map and is either the
                    # first (accepted) or a byte-identical duplicate.
                    self.transport.heartbeat(lease_id, self.worker_id)
                except (ServiceError, OSError):
                    pass

        beat = threading.Thread(target=heartbeat_loop, daemon=True)
        beat.start()
        try:
            body = self.execute_item(work)
        except ReproError as exc:
            done.set()
            self.items_failed += 1
            try:
                self.transport.fail(lease_id, self.worker_id, str(exc))
            except (ServiceError, OSError):
                pass
            return
        finally:
            done.set()
            beat.join(timeout=1.0)
        self.transport.complete(lease_id, self.worker_id, body)
        self.items_done += 1

    def run(self, stop_event: Optional[threading.Event] = None) -> None:
        """Poll for leases until ``stop_event`` is set (or forever)."""
        stop = stop_event or threading.Event()
        while not stop.is_set():
            try:
                work = self.transport.lease(self.worker_id)
            except (ServiceError, OSError):
                # Coordinator briefly gone (restart, chaos "fleet.lease"
                # fault past the retry budget): back off and re-poll.
                stop.wait(self.poll_interval)
                continue
            if work is None:
                stop.wait(self.poll_interval)
                continue
            try:
                self._run_one(work)
            except (ServiceError, OSError):
                # Completion never arrived; the lease will expire and the
                # item reissues elsewhere.
                stop.wait(self.poll_interval)

    def run_forever(self) -> None:
        """Blocking entry point for the CLI daemon (Ctrl-C to stop)."""
        stop = threading.Event()
        try:
            self.run(stop)
        except KeyboardInterrupt:
            stop.set()
