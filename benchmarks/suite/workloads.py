"""The benchmark's workloads: paper rows, from inputs to final reports.

Every workload goes through the calls a user of the product makes:

* campaign rows mirror the service runner -- ``EvaluationSpec`` ->
  ``repro.service.runner.evaluator_for`` -> ``spec.campaign_config(
  checkpoint=..., default_chunking=True)`` -> ``EvaluationCampaign.run``;
* exact rows mirror its exact path -- ``build_design`` ->
  ``run_exact_analysis``;
* the whole-core rows drive ``PeriodicLeakageEvaluator`` with the core's
  public control schedule;
* the service workload talks to an in-process ``EvaluationService`` over
  its HTTP ``/v1`` API.

``repro`` is imported inside the functions, at call time: the parent
process that launches the runs never loads it, and a traced run's span
wrappers (see :mod:`benchmarks.suite.spans`) are what these calls reach.

A workload runs at two budgets.  The *full* budget is the measured
repetition.  The *setup* budget -- one sampling block
(``BLOCK_SIMS`` simulations), one 64-lane word for the whole core, or a
12-bit enumeration budget for the exact rows -- is what set-up time and
the warm-up run: it builds, slices and compiles everything the full
budget uses while simulating little.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import tempfile
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

#: One sampling block of the campaign evaluator (``BLOCK_LANES``).
BLOCK_SIMS = 4096

#: AES key of the whole-core rows; the fixed plaintext equals the key, so
#: every round-1 S-box input is 0x00 (EXPERIMENTS.md, E11).
CORE_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CORE_PHASES = (3, 4, 5, 6)


@dataclass
class Context:
    """What one run of a workload needs besides its inputs."""

    #: scratch directory inside the checkout (checkpoints, service state).
    tmp: str
    #: the seed every spec and stimulus RNG is drawn from.
    seed: int
    engine: str
    #: span recorder of a traced run; ``None`` runs untraced.
    recorder: Optional[object] = None
    #: id of the open root span while a traced run is measured.
    root: Optional[int] = None


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: wall time of the measured section.
    seconds: float = 0.0
    #: ``time.monotonic()`` when the first report was in hand.
    first_report_at: float = 0.0
    #: row id -> {"verdict", "sha256"}.
    reports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: operations besides reports (service HTTP requests) and failures.
    requests: int = 0
    failures: List[str] = field(default_factory=list)
    #: service samples: verdict_s (cold-job latency), queue_wait_s,
    #: submit_ms, jobs_per_s, fleet_expired.
    samples: Dict[str, List[float]] = field(default_factory=dict)


@contextmanager
def measured(ctx: Context, outcome: Outcome):
    """Time the block; under tracing it is the repetition's root span."""
    recorder = ctx.recorder
    if recorder is not None:
        ctx.root = recorder.begin("root", "benchmark repetition")
    start = time.perf_counter()
    try:
        yield
    finally:
        outcome.seconds = time.perf_counter() - start
        if recorder is not None:
            recorder.end()


def summarize(report_json: str) -> Dict[str, str]:
    """Verdict and digest of one serialized report."""
    data = json.loads(report_json)
    if data.get("status", "complete") != "complete":
        verdict = "TRUNCATED"
    elif not data["passed"]:
        verdict = "FAIL"
    elif data.get("mode") == "exact" and data.get("n_skipped"):
        # Budget-skipped probes can hide a leak: no exact pass.
        verdict = "INCONCLUSIVE"
    else:
        verdict = "PASS"
    return {
        "verdict": verdict,
        "sha256": hashlib.sha256(report_json.encode("utf-8")).hexdigest(),
    }


def _collect(outcome: Outcome, texts: Dict[str, str], row: str,
             report_json: str) -> None:
    """Keep a serialized report for :func:`_summarize_all`."""
    texts[row] = report_json
    if not outcome.first_report_at:
        outcome.first_report_at = time.monotonic()


def _summarize_all(outcome: Outcome, texts: Dict[str, str]) -> None:
    # Checking is the benchmark's work, not the product's: it runs after
    # the measured section.
    for row, report_json in texts.items():
        outcome.reports[row] = summarize(report_json)


def _model(name: str):
    from repro.leakage.model import ProbingModel

    if name == "glitch-transition":
        return ProbingModel.GLITCH_TRANSITION
    return ProbingModel.GLITCH


class Workload:
    """A named set of inputs the benchmark runs."""

    name = ""
    why = ""
    #: row ids, in run order.
    rows: tuple = ()

    def run(self, ctx: Context, setup: bool = False,
            rows: Optional[tuple] = None) -> Outcome:
        """Produce the reports of ``rows`` (default: all).

        ``setup`` selects the setup budget.
        """
        raise NotImplementedError


class _SpecWorkload(Workload):
    """Rows that are :class:`repro.spec.EvaluationSpec` parameter sets."""

    #: row id -> EvaluationSpec fields (seed and engine come from ctx).
    specs: Dict[str, Dict] = {}

    @property
    def rows(self):
        return tuple(self.specs)

    def spec(self, ctx: Context, row: str, setup: bool):
        from repro.spec import EvaluationSpec

        spec = EvaluationSpec(
            **self.specs[row], seed=ctx.seed, engine=ctx.engine
        )
        return self.setup_spec(spec) if setup else spec

    def setup_spec(self, spec):
        return replace(spec, n_simulations=BLOCK_SIMS)

    def run(self, ctx, setup=False, rows=None):
        outcome = Outcome()
        texts: Dict[str, str] = {}
        with measured(ctx, outcome):
            for row in self.rows if rows is None else rows:
                directory = tempfile.mkdtemp(dir=ctx.tmp)
                try:
                    report = self.report(
                        self.spec(ctx, row, setup),
                        os.path.join(directory, "job.ckpt"),
                    )
                    _collect(outcome, texts, row, report.to_json(top=None))
                finally:
                    shutil.rmtree(directory, ignore_errors=True)
        _summarize_all(outcome, texts)
        return outcome

    @staticmethod
    def report(spec, checkpoint: str):
        """One spec's report, the way ``JobRunner`` produces it."""
        from repro.leakage.campaign import EvaluationCampaign
        from repro.service.runner import evaluator_for

        config = spec.campaign_config(
            checkpoint=checkpoint, default_chunking=True
        )
        return EvaluationCampaign(evaluator_for(spec), config).run(
            resume=True
        )


class E3Sbox(_SpecWorkload):
    name = "e3_sbox"
    why = (
        "E3 headline row and its secure control: first-order histogram, "
        "key extraction and G-test dominate, simulate is small"
    )
    specs = {
        f"sbox/{scheme}/glitch": dict(
            design="sbox", scheme=scheme, model="glitch",
            n_simulations=50_000, mode="first",
        )
        for scheme in ("eq6", "full")
    }


class E8Pairs(_SpecWorkload):
    name = "e8_kron2_pairs"
    why = (
        "E8 second-order row: wide hashed pair tables make histogram and "
        "G-test dominate; bypasses the in-kernel pipeline"
    )
    specs = {
        "kronecker/second_order_opt_13/glitch-transition/pairs": dict(
            design="kronecker", scheme="second_order_opt_13",
            model="glitch-transition", n_simulations=15_000, mode="both",
            max_pairs=400, pair_offsets=(0, 1, 2, 3),
        )
    }


class ExactKron(_SpecWorkload):
    name = "exact_kron"
    why = (
        "exact rows (no RNG, no G-test): exhaustive enumeration, simulate "
        "and shard merging"
    )
    specs = {
        f"kronecker/{scheme}/glitch/exact": dict(
            design="kronecker", scheme=scheme, model="glitch",
            mode="exact", max_enum_bits=24, workers=1,
        )
        for scheme in ("eq6", "eq9")
    }

    def setup_spec(self, spec):
        # Classes of up to 2^12 assignments fit one block; wider ones are
        # reported infeasible.
        return replace(spec, max_enum_bits=12)

    @staticmethod
    def report(spec, checkpoint: str):
        """One exact spec's report, as ``JobRunner._execute_exact``."""
        from repro.leakage.certify import run_exact_analysis
        from repro.service.runner import build_design

        built = build_design(spec.design, spec.scheme)
        return run_exact_analysis(
            built.dut,
            _model(spec.model),
            max_enum_bits=spec.max_enum_bits,
            shard_lane_bits=spec.shard_lane_bits,
            workers=spec.workers,
            fixed_secret=spec.fixed_secret,
            checkpoint=checkpoint,
            resume=True,
            engine=spec.engine,
        )


class E11Core(Workload):
    name = "e11_core"
    why = (
        "whole 20k-cell AES core through the periodic evaluator: core "
        "build, slicing and compile in set-up; stimulus and simulate"
    )
    schemes = ("demeyer_eq6_3_fresh", "transition_r7_eq_r1")
    rows = tuple(f"aes_core/{scheme}/glitch" for scheme in schemes)
    lanes = 6_000

    def run(self, ctx, setup=False, rows=None):
        outcome = Outcome()
        texts: Dict[str, str] = {}
        with measured(ctx, outcome):
            for row in self.rows if rows is None else rows:
                scheme = self.schemes[self.rows.index(row)]
                report = self.report(ctx, scheme, 64 if setup else self.lanes)
                _collect(outcome, texts, row, report.to_json(top=None))
        _summarize_all(outcome, texts)
        return outcome

    @staticmethod
    def report(ctx: Context, scheme_name: str, lanes: int):
        import numpy as np

        from repro.core.aes_core import (
            ENCRYPTION_CYCLES,
            AesCoreHarness,
            build_masked_aes_core,
        )
        from repro.core.optimizations import RandomnessScheme
        from repro.leakage.model import ProbingModel
        from repro.leakage.periodic import PeriodicLeakageEvaluator

        scheme = RandomnessScheme(scheme_name)
        core = build_masked_aes_core(scheme)
        harness = AesCoreHarness(core)
        probes = [
            cell.output
            for cell in core.netlist.cells
            if cell.name.startswith("sb0.")
        ]
        evaluator = PeriodicLeakageEvaluator(
            core.netlist,
            ENCRYPTION_CYCLES,
            ProbingModel.GLITCH,
            probe_nets=probes,
            control_schedule=harness.control_net_schedule(),
            engine=ctx.engine,
        )
        n_words = (lanes + 63) // 64
        fixed = harness.bitsliced_stimulus(
            np.random.default_rng((ctx.seed, 0)), n_words, CORE_KEY, CORE_KEY
        )
        random_ = harness.bitsliced_stimulus(
            np.random.default_rng((ctx.seed, 1)), n_words, CORE_KEY, None
        )
        return evaluator.evaluate(
            fixed,
            random_,
            lanes,
            phases=CORE_PHASES,
            n_periods=2,
            design_name=f"masked_aes_core_{scheme.value}",
        )


class _Client:
    """Closed-loop ``/v1`` client; every round trip is a ``service.http``
    span when tracing."""

    def __init__(self, address: str, ctx: Context, outcome: Outcome,
                 lock: threading.Lock):
        self.address = address
        self.ctx = ctx
        self.outcome = outcome
        self.lock = lock

    def call(self, path: str, body: Optional[Dict] = None):
        """``(status, raw body)``; any non-2xx answer is a failure."""
        request = urllib.request.Request(
            self.address + path,
            data=None if body is None else json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        recorder = self.ctx.recorder
        if recorder is not None:
            recorder.begin("service.http", f"{request.get_method()} {path}")
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status, data = response.status, response.read()
        except urllib.error.HTTPError as exc:
            status, data = exc.code, exc.read()
        finally:
            if recorder is not None:
                recorder.end()
        with self.lock:
            self.outcome.requests += 1
            if not 200 <= status < 300:
                self.outcome.failures.append(
                    f"{path}: HTTP {status} {data[:200]!r}"
                )
        return status, data

    def run_threads(self, target, n_threads: int) -> None:
        """Run ``target(index)`` on ``n_threads`` load-generator threads."""
        errors: List[str] = []

        def body(index: int) -> None:
            if self.ctx.recorder is not None:
                self.ctx.recorder.adopt(self.ctx.root)
            try:
                target(index)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errors.append(f"client {index}: {exc!r}")

        threads = [
            threading.Thread(target=body, args=(index,), daemon=True)
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                errors.append(f"{thread.name} did not finish in 150 s")
        with self.lock:
            self.outcome.failures.extend(errors)


class ServiceE4(Workload):
    name = "service_e4"
    why = (
        "E4/E7 table through the HTTP service: cold jobs (queue, store, "
        "fleet leases) then cache-answered resubmissions"
    )
    schemes = (
        "full_7_fresh",
        "demeyer_eq6_3_fresh",
        "first_layer_r1_eq_r3",
        "second_layer_r5_eq_r6",
        "proposed_eq9_4_fresh",
        "transition_r7_eq_r1",
    )
    models = ("glitch", "glitch-transition")
    rows = tuple(
        f"kronecker/{scheme}/{model}"
        for scheme, model in itertools.product(schemes, models)
    )
    n_simulations = 40_000
    hot_requests = 400
    #: closed-loop clients; never more than the host has cores.
    clients = max(1, min(2, os.cpu_count() or 1))

    def spec(self, ctx: Context, row: str, setup: bool) -> Dict:
        _, scheme, model = row.split("/")
        return {
            "design": "kronecker",
            "scheme": scheme,
            "model": model,
            "n_simulations": BLOCK_SIMS if setup else self.n_simulations,
            "chunk_size": 2_000,
            "seed": ctx.seed,
            "engine": ctx.engine,
        }

    def run(self, ctx, setup=False, rows=None):
        from repro.service import EvaluationService

        outcome = Outcome()
        texts: Dict[str, str] = {}
        rows = self.rows if rows is None else rows
        state = tempfile.mkdtemp(dir=ctx.tmp)
        service = EvaluationService(
            state, port=0, runner_threads=2, fleet=True, local_workers=2
        )
        service.start()
        try:
            client = _Client(service.address, ctx, outcome, threading.Lock())
            with measured(ctx, outcome):
                jobs = self._cold(ctx, client, rows, setup, outcome)
                for row, job_id in jobs.items():
                    status, data = client.call(f"/v1/jobs/{job_id}/report")
                    if status == 200:
                        _collect(outcome, texts, row, data.decode("utf-8"))
                if not setup:
                    self._hot(ctx, client, rows, texts, outcome)
            _summarize_all(outcome, texts)
            expired = service.fleet.stats()["counters"]["leases_expired"]
            outcome.samples["fleet_expired"] = [float(expired)]
        finally:
            service.stop()
            shutil.rmtree(state, ignore_errors=True)
        return outcome

    def _cold(self, ctx, client, rows, setup, outcome) -> Dict[str, str]:
        """Submit each row once and wait for it; returns row -> job id."""
        jobs: Dict[str, str] = {}
        job_s: List[float] = []
        waits: List[float] = []

        def submit_and_wait(index: int) -> None:
            for row in rows[index::self.clients]:
                start = time.perf_counter()
                status, data = client.call(
                    "/v1/jobs", self.spec(ctx, row, setup)
                )
                if status not in (200, 201):
                    continue
                record = json.loads(data)
                job_id = record["job_id"]
                while record["state"] in ("queued", "running"):
                    status, data = client.call(f"/v1/jobs/{job_id}?wait=5")
                    if status != 200:
                        break
                    record = json.loads(data)
                elapsed = time.perf_counter() - start
                with client.lock:
                    if record["state"] != "done":
                        outcome.failures.append(
                            f"{row}: job ended {record['state']}"
                        )
                        continue
                    jobs[row] = job_id
                    job_s.append(elapsed)
                    waits.append(record["started_at"] - record["submitted_at"])

        start = time.perf_counter()
        client.run_threads(submit_and_wait, self.clients)
        wall = time.perf_counter() - start
        outcome.samples["verdict_s"] = job_s
        outcome.samples["queue_wait_s"] = waits
        outcome.samples["jobs_per_s"] = [len(job_s) / wall]
        return {row: jobs[row] for row in rows if row in jobs}

    def _hot(self, ctx, client, rows, texts, outcome) -> None:
        """Resubmit the rows; every answer must come from the cache."""
        expected = {
            row: "PASS" if json.loads(text)["passed"] else "FAIL"
            for row, text in texts.items()
        }
        submit_ms: List[float] = []
        per_client = self.hot_requests // self.clients

        def resubmit(index: int) -> None:
            for i in range(per_client):
                row = rows[(index + i * self.clients) % len(rows)]
                start = time.perf_counter()
                status, data = client.call(
                    "/v1/jobs", self.spec(ctx, row, False)
                )
                elapsed_ms = (time.perf_counter() - start) * 1e3
                if status != 200:
                    continue
                record = json.loads(data)
                passed = (record.get("result") or {}).get("passed")
                verdict = "PASS" if passed else "FAIL"
                with client.lock:
                    submit_ms.append(elapsed_ms)
                    if record["state"] != "done" or not record.get("cached"):
                        outcome.failures.append(
                            f"{row}: resubmission not answered from cache"
                        )
                    elif row in expected and verdict != expected[row]:
                        outcome.failures.append(
                            f"{row}: cached verdict {verdict} differs "
                            f"from the report's {expected[row]}"
                        )

        client.run_threads(resubmit, self.clients)
        outcome.samples["submit_ms"] = submit_ms


WORKLOADS = {
    workload.name: workload
    for workload in (E3Sbox(), E8Pairs(), E11Core(), ExactKron(), ServiceE4())
}
