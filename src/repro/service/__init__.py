"""Evaluation-as-a-service: long-lived serving of leakage evaluations.

The rest of the package answers one evaluation per process; this subsystem
turns it into a service for the workload evaluation tools actually see --
many users re-querying the same (design, scheme, model, budget, seed)
tuples while comparing candidate randomness schemes:

* :mod:`repro.service.store` -- persistent job records plus a
  content-addressed verdict cache (identical re-queries are O(1) lookups
  returning byte-identical reports).
* :mod:`repro.service.queue` -- bounded admission queue with priority
  lanes and graduated low-priority shedding.
* :mod:`repro.service.runner` -- :func:`run_spec`, the one path from a
  spec to its report (and :func:`exit_code_for`, the one exit-code rule),
  plus the background worker threads executing jobs through it with
  cancellation and crash-resume.
* :mod:`repro.service.fleet` -- coordinator side of the distributed
  campaign fabric: a lease-based work queue of campaign block slices and
  exact shards, merged centrally and bit-identically to serial execution.
* :mod:`repro.service.worker` -- the stateless fleet worker loop, usable
  in-process (embedded local workers) or as the ``repro worker`` daemon
  speaking ``/v1/fleet/`` over HTTP.
* :mod:`repro.service.http` -- stdlib JSON HTTP API under the versioned
  ``/v1/`` prefix (``POST /v1/jobs``, ``GET /v1/jobs/<id>[?wait=s]``,
  ``GET /v1/jobs/<id>/report``, ``GET /v1/healthz``, ``GET /v1/metrics``,
  plus the ``/v1/fleet/`` lease protocol in coordinator mode;
  retired unversioned paths answer 404 with a
  ``Link: rel="successor-version"`` migration hint).
* :mod:`repro.service.telemetry` -- JSON-lines event log + live counters.

Entry points: ``python -m repro.cli serve``, ``python -m repro.cli
submit``, and ``python -m repro.cli worker``; see ``docs/service.md`` and
``docs/distributed.md``.
"""

from repro.service.fleet import FleetCoordinator, FleetRunner
from repro.service.http import EvaluationService
from repro.service.queue import JobQueue, QueueFull, QuotaExceeded
from repro.service.runner import (
    DEFAULT_CHUNK_SIZE,
    JobRunner,
    build_design,
    evaluator_for,
    exit_code_for,
    resolve_scheme,
    run_spec,
    verdict_summary,
)
from repro.service.store import JobSpec, JobStore, canonical_key
from repro.service.telemetry import Telemetry
from repro.service.worker import FleetWorker, HttpTransport, LocalTransport

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "EvaluationService",
    "FleetCoordinator",
    "FleetRunner",
    "FleetWorker",
    "HttpTransport",
    "JobQueue",
    "JobRunner",
    "JobSpec",
    "JobStore",
    "LocalTransport",
    "QueueFull",
    "QuotaExceeded",
    "Telemetry",
    "build_design",
    "canonical_key",
    "evaluator_for",
    "exit_code_for",
    "resolve_scheme",
    "run_spec",
    "verdict_summary",
]
