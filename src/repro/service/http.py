"""JSON-over-HTTP front end for the evaluation service (stdlib only).

Endpoints (all JSON, under the versioned ``/v1/`` prefix):

* ``POST /v1/jobs`` -- submit a job spec.  Answers 200 with the existing
  record on a verdict-cache hit (``"cached": true`` -- no simulation runs),
  200 with the in-flight record when an identical job is already queued or
  running (``"deduplicated": true``), 201 with a fresh ``queued`` record
  otherwise, 400 on a bad spec, 429 when the queue is full.
* ``GET /v1/jobs`` -- all job records, oldest first.
* ``GET /v1/jobs/<id>`` -- one record; ``?wait=<seconds>`` long-polls until
  the job reaches a terminal state (or the wait times out -- the caller
  distinguishes by the returned ``state``).  ``wait`` must be a finite,
  non-negative number of seconds; honoured waits are bounded by
  ``MAX_LONG_POLL_SECONDS``, and absurd values (beyond
  ``MAX_ACCEPTED_WAIT_SECONDS``) are a 400.
* ``GET /v1/jobs/<id>/report`` -- the full serialized report,
  byte-identical to the run that populated the verdict cache and verified
  on read; 409 while not finished, 410 when the stored verdict failed
  verification and was quarantined (resubmit to recompute).
* ``POST /v1/jobs/<id>/cancel`` -- stop a queued/running job at its next
  chunk boundary.
* ``GET /v1/healthz`` -- liveness + uptime + ``api_version``.
* ``GET /v1/metrics`` -- telemetry counters, cache stats (with hit rate),
  queue depth per priority lane, job state counts, busy workers, and --
  when the fleet is enabled -- worker liveness and lease gauges.

With ``fleet=True`` the service is a *coordinator* and four more routes
implement the lease protocol workers speak (see
:mod:`repro.service.fleet`):

* ``POST /v1/fleet/lease`` -- pull one work item (``{"work": null}`` when
  idle); * ``POST /v1/fleet/leases/<id>/heartbeat`` -- renew a lease;
* ``POST /v1/fleet/leases/<id>/complete`` -- deliver a result;
* ``POST /v1/fleet/leases/<id>/fail`` -- report an execution error;
* ``GET /v1/fleet`` -- coordinator gauges.

Admission is elastic rather than a single 429 cliff: specs carry a
``priority`` lane (low-priority work sheds first under backpressure) and a
``tenant`` (a per-tenant cap on active jobs, when configured).  Every 429
carries a ``Retry-After`` header.

The pre-versioning paths (``/jobs``, ``/healthz``, ``/metrics``, ...)
completed their deprecation cycle and are retired: they answer ``404``
with a ``Link: rel="successor-version"`` header naming the ``/v1/`` route
to migrate to.  Clients must use ``/v1/`` paths.

The server is a ``ThreadingHTTPServer``: every request handler runs in its
own thread and only touches the lock-protected store/queue/telemetry, so
long-polls do not block submissions.  Binding port 0 picks an ephemeral
port (tests use this); the bound port is exposed as ``service.port``.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServiceError
from repro.leakage.report import SCHEMA_VERSION
from repro.service.queue import JobQueue, QueueFull, QuotaExceeded
from repro.service.runner import JobRunner, design_hash_for, verdict_summary
from repro.service.store import JobSpec, JobStore
from repro.service.telemetry import Telemetry
from repro.spec import API_VERSION

#: Longest ``?wait=`` a single request may hold a handler thread.
MAX_LONG_POLL_SECONDS = 60.0

#: ``?wait=`` values above this are rejected outright (400) rather than
#: clamped: an hour-scale wait is a client bug (lost unit conversion, ms
#: vs s), and silently clamping it would hide that bug.
MAX_ACCEPTED_WAIT_SECONDS = 3600.0


def _parse_wait(raw: str) -> float:
    """Validate and bound a ``?wait=`` long-poll parameter.

    Negative, NaN, infinite, and absurdly large values are client errors
    and answer 400 (via :class:`ServiceError`); values between the
    documented maximum and the absurdity threshold clamp to
    :data:`MAX_LONG_POLL_SECONDS` so a handler thread is never held
    longer than documented.
    """
    try:
        wait = float(raw)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"wait must be a number, got {raw!r}") from exc
    if math.isnan(wait) or math.isinf(wait):
        raise ServiceError(f"wait must be finite, got {raw!r}")
    if wait < 0:
        raise ServiceError(f"wait must be non-negative, got {raw!r}")
    if wait > MAX_ACCEPTED_WAIT_SECONDS:
        raise ServiceError(
            f"wait of {raw!r} seconds is out of range (maximum honoured "
            f"long-poll is {MAX_LONG_POLL_SECONDS:g}s)"
        )
    return min(wait, MAX_LONG_POLL_SECONDS)

#: First path segments of the retired pre-versioning aliases: they now
#: answer 404 with a ``Link: rel="successor-version"`` migration hint.
_RETIRED_ROOTS = ("healthz", "metrics", "jobs")


class EvaluationService:
    """Store + queue + runner + telemetry behind one HTTP server."""

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        runner_threads: int = 1,
        queue_limit: int = 256,
        telemetry_path: Optional[str] = None,
        stall_timeout: Optional[float] = None,
        max_restarts: int = 3,
        fault_plane=None,
        fleet: bool = False,
        local_workers: int = 1,
        lease_seconds: float = 30.0,
        tenant_quota: Optional[int] = None,
    ):
        # One fault plane (or None) threads through every layer, so a
        # single ChaosPolicy drives the whole service's fault schedule.
        self.fault_plane = fault_plane
        if tenant_quota is not None and tenant_quota < 1:
            raise ServiceError("tenant_quota must be a positive integer")
        #: per-tenant cap on active (queued+running) jobs; ``None`` = off.
        self.tenant_quota = tenant_quota
        # The default telemetry file lives inside the state dir, which may
        # not exist yet on a fresh service (JobStore creates it lazily).
        os.makedirs(os.path.abspath(state_dir), exist_ok=True)
        self.telemetry = Telemetry(
            telemetry_path
            if telemetry_path is not None
            else os.path.join(os.path.abspath(state_dir), "telemetry.jsonl"),
            fault_plane=fault_plane,
        )
        self.store = JobStore(
            state_dir, hook=self.telemetry.emit_hook(), fault_plane=fault_plane
        )
        self.queue = JobQueue(queue_limit, fault_plane=fault_plane)
        #: fleet coordinator; ``None`` when distributed execution is off.
        self.fleet = None
        if fleet:
            from repro.service.fleet import FleetCoordinator

            self.fleet = FleetCoordinator(
                telemetry=self.telemetry,
                lease_seconds=lease_seconds,
                fault_plane=fault_plane,
            )
        self.runner = JobRunner(
            self.store,
            self.queue,
            self.telemetry,
            threads=runner_threads,
            stall_timeout=stall_timeout,
            max_restarts=max_restarts,
            fault_plane=fault_plane,
            fleet=self.fleet,
        )
        #: embedded local fleet workers (the degenerate one-host case);
        #: only started when the fleet is on.
        self.local_workers = local_workers if fleet else 0
        self._worker_threads: list = []
        self._worker_stop = threading.Event()
        #: serializes dedupe + quota + enqueue in :meth:`submit`, so two
        #: concurrent identical submissions can never both miss the
        #: in-flight dedupe check and double-admit.
        self._admission_lock = threading.Lock()
        self.started_at = time.time()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The actually-bound port (resolves port 0 to the ephemeral one)."""
        return self.httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _start_local_workers(self) -> None:
        """Spawn the embedded fleet workers (idempotent, fleet only)."""
        if self.fleet is None or self._worker_threads:
            return
        from repro.service.worker import (
            BUILD_CACHE_SIZE,
            FleetWorker,
            LocalTransport,
        )

        for index in range(self.local_workers):
            # Each runner thread runs one job whose items any local worker
            # may lease, so every worker keeps an evaluator per thread.
            worker = FleetWorker(
                LocalTransport(self.fleet),
                worker_id=f"local-{index}",
                poll_interval=0.05,
                cache_size=max(BUILD_CACHE_SIZE, self.runner.n_threads),
            )
            thread = threading.Thread(
                target=worker.run,
                args=(self._worker_stop,),
                name=f"repro-fleet-local-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)

    def _boot(self) -> int:
        """Recover interrupted jobs and start the runner and local
        workers; returns the number of jobs recovered."""
        recovered = self.runner.recover()
        self.runner.start()
        self._start_local_workers()
        self.telemetry.emit(
            "service_started",
            address=self.address,
            recovered_jobs=recovered,
            runner_threads=self.runner.n_threads,
        )
        return recovered

    def start(self) -> int:
        """Recover interrupted jobs, start workers, serve in a thread."""
        recovered = self._boot()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()
        return recovered

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` for the CLI."""
        self._boot()
        try:
            self.httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: running jobs return to the durable queue.

        Running jobs hear the stop first; only then does the HTTP server
        wait out its poll, so no job finishes in that wait.
        """
        self.runner.shutdown(wait=False)
        self.httpd.shutdown()
        self.httpd.server_close()
        self.runner.shutdown(wait=True)
        self._worker_stop.set()
        for thread in self._worker_threads:
            thread.join(timeout=10)
        self._worker_threads = []
        self.telemetry.emit("service_stopped")
        self.telemetry.close()

    # ------------------------------------------------------------ operations

    def submit(self, spec_dict: Dict) -> Tuple[int, Dict]:
        """Submit a job; returns (HTTP status, response body)."""
        spec = JobSpec.from_dict(spec_dict)
        # Building the design validates design/scheme compatibility and
        # yields the netlist structure hash that leads the cache key.
        cache_key = spec.cache_key(design_hash_for(spec))
        cached = self.store.get_result(cache_key)
        if cached is not None:
            record = self._cached_record(spec, cache_key, cached)
            self.telemetry.emit(
                "cache_hit", job_id=record["job_id"], cache_key=cache_key
            )
            self.telemetry.emit(
                "job_submitted", job_id=record["job_id"], cached=True
            )
            return 200, record
        # Everything from the dedupe check to the enqueue happens under
        # one lock: without it, two concurrent identical submissions can
        # both miss ``_find_active`` and double-admit the same spec.  The
        # expensive work (design build, hashing) stayed outside.
        with self._admission_lock:
            active = self._find_active(cache_key)
            if active is not None:
                response = dict(active)
                response["deduplicated"] = True
                self.telemetry.emit(
                    "job_submitted",
                    job_id=active["job_id"],
                    deduplicated=True,
                )
                return 200, response
            if self.tenant_quota is not None:
                busy = self._tenant_active(spec.tenant)
                if busy >= self.tenant_quota:
                    self.telemetry.emit(
                        "quota_rejected",
                        tenant=spec.tenant,
                        active_jobs=busy,
                        quota=self.tenant_quota,
                    )
                    raise QuotaExceeded(
                        f"tenant {spec.tenant!r} has {busy} active jobs "
                        f"(quota {self.tenant_quota}); retry later"
                    )
            record = self.store.new_job(spec, cache_key)
            try:
                self.queue.put(record["job_id"], priority=spec.priority)
            except QueueFull:
                self.store.update_job(
                    record["job_id"], state="failed", error="queue full"
                )
                raise
        self.telemetry.emit("cache_miss", job_id=record["job_id"],
                            cache_key=cache_key)
        self.telemetry.emit("job_submitted", job_id=record["job_id"],
                            cached=False)
        return 201, record

    def _tenant_active(self, tenant: str) -> int:
        """Active (queued+running) jobs charged to ``tenant``."""
        return sum(
            1
            for record in self.store.list_jobs()
            if record["state"] in ("queued", "running")
            and (record.get("spec") or {}).get("tenant", "default") == tenant
        )

    def _cached_record(
        self, spec: JobSpec, cache_key: str, report_bytes: bytes
    ) -> Dict:
        """A terminal job record answered entirely from the verdict cache."""
        record = self.store.new_job(spec, cache_key)
        now = round(time.time(), 3)
        summary = verdict_summary(json.loads(report_bytes.decode("utf-8")))
        return self.store.update_job(
            record["job_id"],
            state="done",
            cached=True,
            started_at=now,
            finished_at=now,
            result=summary,
        )

    def _find_active(self, cache_key: str) -> Optional[Dict]:
        for record in self.store.list_jobs():
            if (
                record["cache_key"] == cache_key
                and record["state"] in ("queued", "running")
            ):
                return record
        return None

    def metrics(self) -> Dict:
        from repro.engines import engines_info
        from repro.netlist.compile import program_cache_info
        from repro.netlist.native import native_kernel_cache_info

        cache = self.store.stats.to_dict()
        body = {
            "schema_version": SCHEMA_VERSION,
            "api_version": API_VERSION,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "counters": self.telemetry.counters(),
            "stage_seconds": self.telemetry.stage_seconds(),
            "cache": cache,
            # The load harness reads the hit rate as a top-level gauge.
            "cache_hit_rate": cache.get("hit_rate"),
            "program_cache": program_cache_info()._asdict(),
            "engines": engines_info(),
            "native_kernel_cache": native_kernel_cache_info()._asdict(),
            "jobs": self.store.counts_by_state(),
            "queue_depth": len(self.queue),
            "queue": {
                "depth": len(self.queue),
                "by_priority": self.queue.depth_by_priority(),
                "capacity": self.queue.maxsize,
                "shed_low_at": self.queue.shed_low_at,
            },
            "admission": {
                "tenant_quota": self.tenant_quota,
            },
            "busy_workers": self.runner.busy_workers,
            "runner_threads": self.runner.n_threads,
            "watchdog": {
                "stall_timeout": self.runner.stall_timeout,
                "max_restarts": self.runner.max_restarts,
            },
        }
        if self.fleet is not None:
            body["fleet"] = self.fleet.stats()
        return body

    def health(self) -> Dict:
        return {
            "ok": True,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "schema_version": SCHEMA_VERSION,
            "api_version": API_VERSION,
        }


def _make_handler(service: EvaluationService):
    """Handler class closed over the service (no globals)."""

    class ServiceHandler(BaseHTTPRequestHandler):
        server_version = "repro-eval-service/1"
        protocol_version = "HTTP/1.1"

        # --------------------------------------------------------- plumbing

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # requests land in telemetry, not stderr

        def _send_json(
            self,
            status: int,
            body: Dict,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            data = (json.dumps(body, indent=2) + "\n").encode("utf-8")
            self._send_bytes(status, data, headers=headers)

        def _send_bytes(
            self, status: int, data: bytes,
            content_type: str = "application/json",
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _route_parts(self, parsed) -> Optional[list]:
            """Path segments with the ``/v1`` prefix stripped.

            Requests on the retired pre-versioning paths answer 404 with
            a ``Link: rel="successor-version"`` header naming the ``/v1``
            route; this returns ``None`` so the caller stops routing.
            """
            parts = [p for p in parsed.path.split("/") if p]
            if parts and parts[0] == API_VERSION:
                return parts[1:]
            if parts and parts[0] in _RETIRED_ROOTS:
                successor = f"/{API_VERSION}{parsed.path}"
                self._send_json(
                    404,
                    {
                        "error": (
                            f"the unversioned path {parsed.path!r} was "
                            f"retired; use {successor!r}"
                        ),
                        "successor": successor,
                    },
                    headers={
                        "Link": f'<{successor}>; rel="successor-version"'
                    },
                )
                return None
            return parts

        def _read_body(self) -> Dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ServiceError("request body must be a JSON object")
            try:
                return json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                raise ServiceError(f"invalid JSON body: {exc}") from exc

        # ----------------------------------------------------------- routes

        def do_GET(self) -> None:  # noqa: N802 - stdlib contract
            try:
                self._route_get()
            except ReproError as exc:
                self._send_json(400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - never kill the server
                self._send_json(500, {"error": f"internal error: {exc!r}"})

        def do_POST(self) -> None:  # noqa: N802 - stdlib contract
            try:
                self._route_post()
            except QueueFull as exc:
                retry_after = getattr(exc, "retry_after", None)
                self._send_json(
                    429,
                    {"error": str(exc), "retry_after": retry_after},
                    headers=(
                        {"Retry-After": f"{retry_after:g}"}
                        if retry_after
                        else None
                    ),
                )
            except ReproError as exc:
                self._send_json(400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001
                self._send_json(500, {"error": f"internal error: {exc!r}"})

        def _route_get(self) -> None:
            parsed = urlparse(self.path)
            parts = self._route_parts(parsed)
            if parts is None:
                return
            if parts == ["healthz"]:
                self._send_json(200, service.health())
                return
            if parts == ["metrics"]:
                self._send_json(200, service.metrics())
                return
            if parts == ["jobs"]:
                self._send_json(200, {"jobs": service.store.list_jobs()})
                return
            if len(parts) == 2 and parts[0] == "jobs":
                query = parse_qs(parsed.query)
                wait = _parse_wait(query.get("wait", ["0"])[0])
                if wait > 0:
                    record = service.store.wait_for_terminal(parts[1], wait)
                else:
                    record = service.store.get_job(parts[1])
                if record is None:
                    self._send_json(
                        404, {"error": f"unknown job {parts[1]!r}"}
                    )
                    return
                self._send_json(200, record)
                return
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "report":
                self._send_report(parts[1])
                return
            if parts == ["fleet"] and service.fleet is not None:
                self._send_json(200, service.fleet.stats())
                return
            self._send_json(404, {"error": f"no route {parsed.path!r}"})

        def _send_report(self, job_id: str) -> None:
            record = service.store.get_job(job_id)
            if record is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
                return
            if record["state"] != "done":
                self._send_json(
                    409,
                    {
                        "error": f"job {job_id!r} is {record['state']}, "
                        "report not available",
                        "state": record["state"],
                    },
                )
                return
            # Served verbatim from the content-addressed store (verified
            # on read): every job with this cache key gets byte-identical
            # bytes.  A record that rotted since the job finished has been
            # quarantined by the read -- answer 410 with a resubmit hint,
            # never a 500 and never unverified bytes.
            data = service.store.read_result(record["cache_key"])
            if data is None:
                self._send_json(
                    410,
                    {
                        "error": (
                            f"the stored verdict for job {job_id!r} failed "
                            "verification and was quarantined; resubmit the "
                            "job to recompute it"
                        ),
                        "state": record["state"],
                        "cache_key": record["cache_key"],
                    },
                )
                return
            self._send_bytes(200, data)

        def _route_post(self) -> None:
            parsed = urlparse(self.path)
            parts = self._route_parts(parsed)
            if parts is None:
                return
            if parts == ["jobs"]:
                status, body = service.submit(self._read_body())
                self._send_json(status, body)
                return
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                record = service.runner.cancel(parts[1])
                self._send_json(202, record)
                return
            if parts and parts[0] == "fleet":
                self._route_fleet_post(parts)
                return
            self._send_json(404, {"error": f"no route {parsed.path!r}"})

        def _route_fleet_post(self, parts: list) -> None:
            """Worker-facing lease protocol (coordinator mode only)."""
            if service.fleet is None:
                self._send_json(
                    404, {"error": "this service is not a fleet coordinator"}
                )
                return
            body = self._read_body()
            worker_id = str(body.get("worker_id") or "anonymous")
            if parts == ["fleet", "lease"]:
                work = service.fleet.lease(worker_id)
                self._send_json(200, {"work": work})
                return
            if len(parts) == 4 and parts[1] == "leases":
                lease_id, action = parts[2], parts[3]
                if action == "heartbeat":
                    ok = service.fleet.heartbeat(lease_id, worker_id)
                    self._send_json(200, {"ok": ok})
                    return
                if action == "complete":
                    self._send_json(
                        200, service.fleet.complete(lease_id, worker_id, body)
                    )
                    return
                if action == "fail":
                    self._send_json(
                        200,
                        service.fleet.fail(
                            lease_id, worker_id, str(body.get("error") or "")
                        ),
                    )
                    return
            self._send_json(404, {"error": f"no fleet route {parts!r}"})

    return ServiceHandler
