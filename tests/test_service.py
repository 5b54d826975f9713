"""Tests for the evaluation service (store, queue, telemetry, HTTP, resume).

The end-to-end tests drive a real :class:`~repro.service.EvaluationService`
bound to an ephemeral port through plain ``urllib`` -- the same wire a curl
user or dashboard sees.  The E4-sized job (Kronecker delta, the paper's
Section III sweep) is small enough to finish in seconds yet goes through
the full campaign/checkpoint/verdict-cache machinery.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro.chaos import ChaosPolicy
from repro.errors import ServiceError
from repro.leakage.report import SCHEMA_VERSION
from repro.service import (
    EvaluationService,
    JobQueue,
    JobRunner,
    JobSpec,
    JobStore,
    QueueFull,
    Telemetry,
    canonical_key,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: E4-sized job: Kronecker delta under the glitch-extended model (the
#: paper's Section III table), reduced to a few-second sample budget.
E4_SPEC = {
    "design": "kronecker",
    "scheme": "eq6",
    "n_simulations": 20_000,
    "seed": 7,
}


def _post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _request_with_headers(url, body=None):
    """Like ``_post``/``_get`` but also returns the response headers."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), exc.headers


class TestCanonicalKey:
    def test_invariant_under_dict_order(self):
        a = {"x": 1, "y": [1, 2], "z": "s"}
        b = {"z": "s", "y": [1, 2], "x": 1}
        assert canonical_key(a) == canonical_key(b)

    def test_distinct_params_distinct_keys(self):
        assert canonical_key({"n": 1}) != canonical_key({"n": 2})


class TestJobSpec:
    def test_execution_details_do_not_fragment_the_cache(self):
        base = JobSpec.from_dict(dict(E4_SPEC))
        variants = [
            dict(E4_SPEC, engine="bitsliced"),
            dict(E4_SPEC, workers=4),
            dict(E4_SPEC, chunk_size=1000),
        ]
        for variant in variants:
            spec = JobSpec.from_dict(variant)
            assert spec.cache_key("h") == base.cache_key("h")

    def test_semantic_params_change_the_key(self):
        base = JobSpec.from_dict(dict(E4_SPEC))
        for field, value in [
            ("n_simulations", 30_000),
            ("seed", 8),
            ("fixed_secret", 1),
            ("mode", "both"),
            ("model", "glitch-transition"),
        ]:
            spec = JobSpec.from_dict(dict(E4_SPEC, **{field: value}))
            assert spec.cache_key("h") != base.cache_key("h")
        assert base.cache_key("h1") != base.cache_key("h2")

    def test_rejects_unknown_fields_and_bad_values(self):
        with pytest.raises(ServiceError):
            JobSpec.from_dict(dict(E4_SPEC, bogus=1))
        with pytest.raises(ServiceError):
            JobSpec.from_dict(dict(E4_SPEC, n_simulations=0))
        with pytest.raises(ServiceError):
            JobSpec.from_dict(dict(E4_SPEC, mode="third"))
        with pytest.raises(ServiceError):
            JobSpec.from_dict(dict(E4_SPEC, engine="quantum"))
        with pytest.raises(ServiceError):
            JobSpec.from_dict("not a dict")


class TestJobStore:
    def test_records_survive_a_new_store_instance(self, tmp_path):
        store = JobStore(str(tmp_path))
        spec = JobSpec.from_dict(dict(E4_SPEC))
        record = store.new_job(spec, "k" * 64)
        store.update_job(record["job_id"], state="running")
        reloaded = JobStore(str(tmp_path))
        again = reloaded.get_job(record["job_id"])
        assert again["state"] == "running"
        assert again["spec"] == spec.to_dict()
        assert again["schema_version"] == SCHEMA_VERSION

    def test_result_cache_counts_hits_and_misses(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.get_result("a" * 64) is None
        store.put_result("a" * 64, '{"x": 1}')
        assert store.get_result("a" * 64) == b'{"x": 1}'
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.to_dict()["hit_rate"] == 0.5

    def test_first_writer_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.put_result("b" * 64, '{"writer": "first"}')
        store.put_result("b" * 64, '{"writer": "second"}')
        assert store.read_result("b" * 64) == b'{"writer": "first"}'

    def test_recoverable_jobs(self, tmp_path):
        store = JobStore(str(tmp_path))
        spec = JobSpec.from_dict(dict(E4_SPEC))
        queued = store.new_job(spec, "c" * 64)
        running = store.new_job(spec, "d" * 64)
        done = store.new_job(spec, "e" * 64)
        store.update_job(running["job_id"], state="running")
        store.update_job(done["job_id"], state="done")
        ids = [r["job_id"] for r in store.recoverable_jobs()]
        assert ids == [queued["job_id"], running["job_id"]]


class TestJobQueue:
    def test_fifo_and_bounded(self):
        queue = JobQueue(maxsize=2)
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFull):
            queue.put("c")
        assert queue.get() == "a"
        assert queue.get() == "b"
        assert queue.get(timeout=0.01) is None

    def test_close_wakes_getters(self):
        queue = JobQueue()
        queue.close()
        assert queue.get(timeout=5) is None  # returns immediately
        with pytest.raises(ServiceError):
            queue.put("x")


class TestTelemetry:
    def test_jsonl_events_and_counters(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Telemetry(path) as telemetry:
            telemetry.emit("job_started", job_id="j1")
            telemetry.emit("cache_hit", job_id="j1", cache_key="k")
            telemetry.emit("uncounted_event", detail=1)
        lines = [json.loads(l) for l in open(path)]
        assert [e["event"] for e in lines] == [
            "job_started", "cache_hit", "uncounted_event",
        ]
        assert all("ts" in e for e in lines)

    def test_campaign_hook_stamps_job_id(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Telemetry(path) as telemetry:
            hook = telemetry.campaign_hook("jobX")
            hook("chunk_done", {"blocks_done": 3})
        event = json.loads(open(path).read())
        assert event["job_id"] == "jobX"
        assert event["blocks_done"] == 3
        assert telemetry.counters()["chunk_done"] == 1


class TestVerdictStoreCorruption:
    """A rotted verdict record is a cache miss -- never a served report."""

    KEY = "f" * 64
    GOOD = json.dumps({"schema_version": SCHEMA_VERSION, "passed": True})

    def _store(self, tmp_path):
        events = []
        store = JobStore(
            str(tmp_path), hook=lambda event, payload: events.append(event)
        )
        return store, events

    def _assert_quarantined(self, store, events):
        assert store.get_result(self.KEY) is None
        assert store.stats.corruptions >= 1
        path = store._result_path(self.KEY)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert "store_corruption" in events

    def test_truncated_record_is_a_miss(self, tmp_path):
        store, events = self._store(tmp_path)
        store.put_result(self.KEY, self.GOOD)
        path = store._result_path(self.KEY)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        self._assert_quarantined(store, events)

    def test_invalid_json_is_a_miss(self, tmp_path):
        store, events = self._store(tmp_path)
        store.put_result(self.KEY, self.GOOD)
        garbage = b'{"not a report":'
        with open(store._result_path(self.KEY), "wb") as handle:
            handle.write(garbage)
        # keep the sidecar consistent so the *JSON* check is what fires
        with open(store._crc_path(self.KEY), "w") as handle:
            handle.write(f"{zlib.crc32(garbage) & 0xFFFFFFFF:08x}\n")
        self._assert_quarantined(store, events)

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        store, events = self._store(tmp_path)
        store.put_result(self.KEY, self.GOOD)
        path = store._result_path(self.KEY)
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 0x01  # same length, still may parse -- CRC catches it
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        self._assert_quarantined(store, events)

    def test_future_schema_version_is_a_miss(self, tmp_path):
        store, events = self._store(tmp_path)
        store.put_result(
            self.KEY,
            json.dumps({"schema_version": SCHEMA_VERSION + 7}),
        )
        self._assert_quarantined(store, events)

    def test_legacy_record_without_sidecar_is_served(self, tmp_path):
        store, _ = self._store(tmp_path)
        with open(store._result_path(self.KEY), "w") as handle:
            handle.write(self.GOOD)
        assert store.get_result(self.KEY) == self.GOOD.encode()

    def test_quarantine_clears_the_path_for_recompute(self, tmp_path):
        store, events = self._store(tmp_path)
        store.put_result(self.KEY, self.GOOD)
        with open(store._result_path(self.KEY), "wb") as handle:
            handle.write(b"rot")
        assert store.get_result(self.KEY) is None
        # first-writer-wins does not resurrect the quarantined bytes: the
        # slot is free again and a recomputed verdict repopulates it.
        store.put_result(self.KEY, self.GOOD)
        assert store.get_result(self.KEY) == self.GOOD.encode()


@pytest.fixture
def service(tmp_path):
    svc = EvaluationService(str(tmp_path / "state"), port=0)
    svc.start()
    yield svc
    svc.stop()


class TestServiceEndToEnd:
    def test_resubmission_is_a_byte_identical_cache_hit(self, service):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 201
        first = json.loads(body)
        assert first["state"] == "queued"
        assert first["cached"] is False

        status, body = _get(f"{base}/v1/jobs/{first['job_id']}?wait=60")
        assert status == 200
        finished = json.loads(body)
        assert finished["state"] == "done"
        assert finished["result"]["passed"] is False  # eq6 leaks
        assert finished["result"]["exit_code"] == 1

        status, report1 = _get(f"{base}/v1/jobs/{first['job_id']}/report")
        assert status == 200
        parsed = json.loads(report1)
        assert parsed["schema_version"] == SCHEMA_VERSION

        # Second identical submission: answered from the verdict cache,
        # no simulation, terminal state straight away.
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 200
        second = json.loads(body)
        assert second["cached"] is True
        assert second["state"] == "done"
        assert second["job_id"] != first["job_id"]
        assert second["cache_key"] == first["cache_key"]

        status, report2 = _get(f"{base}/v1/jobs/{second['job_id']}/report")
        assert status == 200
        assert report2 == report1  # byte-identical

        # The hit is visible in /metrics and in the telemetry log.
        status, body = _get(f"{base}/v1/metrics")
        metrics = json.loads(body)
        assert metrics["cache"]["hits"] == 1
        assert metrics["counters"]["cache_hit"] == 1
        assert metrics["counters"]["cache_miss"] == 1
        assert metrics["jobs"]["done"] == 2
        events = [
            json.loads(line) for line in open(service.telemetry.path)
        ]
        hits = [e for e in events if e["event"] == "cache_hit"]
        assert len(hits) == 1
        assert hits[0]["job_id"] == second["job_id"]

    def test_execution_details_share_the_verdict(self, service):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 201
        job_id = json.loads(body)["job_id"]
        status, body = _get(f"{base}/v1/jobs/{job_id}?wait=60")
        assert json.loads(body)["state"] == "done"
        # same semantics, different engine: still a cache hit
        status, body = _post(
            f"{base}/v1/jobs", dict(E4_SPEC, engine="bitsliced", workers=2)
        )
        assert status == 200
        assert json.loads(body)["cached"] is True

    def test_identical_inflight_submissions_deduplicate(self, service):
        base = service.address
        spec = dict(E4_SPEC, n_simulations=200_000, seed=21)
        status, body = _post(f"{base}/v1/jobs", spec)
        assert status == 201
        first = json.loads(body)
        status, body = _post(f"{base}/v1/jobs", spec)
        assert status == 200
        second = json.loads(body)
        assert second["deduplicated"] is True
        assert second["job_id"] == first["job_id"]
        status, body = _get(f"{base}/v1/jobs/{first['job_id']}?wait=120")
        assert json.loads(body)["state"] == "done"

    def test_health_metrics_and_errors(self, service):
        base = service.address
        status, body = _get(f"{base}/v1/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

        status, body = _get(f"{base}/v1/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["schema_version"] == SCHEMA_VERSION
        assert "queue_depth" in metrics and "busy_workers" in metrics

        status, body = _post(f"{base}/v1/jobs", {"design": "warp-core"})
        assert status == 400
        assert "unknown design" in json.loads(body)["error"]

        status, body = _post(f"{base}/v1/jobs", dict(E4_SPEC, bogus=1))
        assert status == 400

        status, _ = _get(f"{base}/v1/jobs/no-such-job")
        assert status == 404
        status, _ = _get(f"{base}/no/such/route")
        assert status == 404

        # report of an unfinished job is a 409, not a 500
        spec = dict(E4_SPEC, n_simulations=400_000, seed=33)
        status, body = _post(f"{base}/v1/jobs", spec)
        job_id = json.loads(body)["job_id"]
        status, body = _get(f"{base}/v1/jobs/{job_id}/report")
        assert status == 409
        _get(f"{base}/v1/jobs/{job_id}?wait=120")


class TestCheckpointCleanup:
    """A finished or cancelled job leaves no checkpoint generation."""

    def test_completed_multi_chunk_job_removes_every_generation(
        self, service
    ):
        spec = dict(E4_SPEC, chunk_size=4_096)
        status, body = _post(f"{service.address}/v1/jobs", spec)
        assert status == 201
        job_id = json.loads(body)["job_id"]
        status, body = _get(f"{service.address}/v1/jobs/{job_id}?wait=60")
        finished = json.loads(body)
        assert finished["state"] == "done"
        assert finished["progress"]["chunks_done"] >= 2
        assert os.listdir(service.store.checkpoints_dir) == []

    def test_cancelled_multi_chunk_job_removes_every_generation(
        self, service
    ):
        spec = {
            "design": "kronecker",
            "scheme": "full",
            "n_simulations": 400_000,
            "seed": 17,
            "chunk_size": 8_192,
        }
        status, body = _post(f"{service.address}/v1/jobs", spec)
        assert status == 201
        job_id = json.loads(body)["job_id"]
        previous = service.store.checkpoint_path(job_id) + ".prev"
        deadline = time.monotonic() + 60
        while not os.path.exists(previous):
            assert time.monotonic() < deadline, "no rotated checkpoint"
            time.sleep(0.02)
        status, _ = _post(f"{service.address}/v1/jobs/{job_id}/cancel", {})
        assert status == 202
        status, body = _get(f"{service.address}/v1/jobs/{job_id}?wait=60")
        assert json.loads(body)["state"] == "cancelled"
        assert os.listdir(service.store.checkpoints_dir) == []

    def test_recovery_counts_the_previous_generation(self, tmp_path):
        """A job whose only checkpoint is ``.prev`` (killed mid-rotation)
        is recovered with ``had_checkpoint`` true."""
        store = JobStore(str(tmp_path / "state"))
        record = store.new_job(JobSpec.from_dict(dict(E4_SPEC)), "k" * 64)
        store.update_job(record["job_id"], state="running")
        previous = store.checkpoint_path(record["job_id"]) + ".prev"
        with open(previous, "wb") as handle:
            handle.write(b"RPCKPT01")
        path = str(tmp_path / "events.jsonl")
        with Telemetry(path) as telemetry:
            assert JobRunner(store, JobQueue(), telemetry).recover() == 1
        events = [json.loads(line) for line in open(path)]
        [recovered] = [e for e in events if e["event"] == "job_recovered"]
        assert recovered["had_checkpoint"] is True


class TestBooleanSpecFields:
    def test_boolean_seed_is_400(self, service):
        status, body = _post(
            f"{service.address}/v1/jobs", dict(E4_SPEC, seed=True)
        )
        assert status == 400
        assert "seed" in json.loads(body)["error"]


class TestWaitParameterValidation:
    """``?wait=`` is validated and bounded, never trusted."""

    @pytest.mark.parametrize(
        "wait", ["-1", "-0.5", "nan", "inf", "-inf", "1e9", "5000", "bogus"]
    )
    def test_invalid_wait_is_400(self, service, wait):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        job_id = json.loads(body)["job_id"]
        status, body = _get(f"{base}/v1/jobs/{job_id}?wait={wait}")
        assert status == 400
        assert "wait" in json.loads(body)["error"]
        # the job itself is untouched by the bad polls
        status, _ = _get(f"{base}/v1/jobs/{job_id}?wait=60")
        assert status == 200

    def test_wait_between_max_poll_and_absurd_is_clamped(self, service):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        job_id = json.loads(body)["job_id"]
        _get(f"{base}/v1/jobs/{job_id}?wait=60")
        # 3600 is within the accepted range; it clamps to the documented
        # 60s long-poll maximum instead of holding the handler for an hour
        # (terminal job, so this answers immediately either way).
        started = time.monotonic()
        status, body = _get(f"{base}/v1/jobs/{job_id}?wait=3600")
        assert status == 200
        assert json.loads(body)["state"] == "done"
        assert time.monotonic() - started < 60


class TestCorruptVerdictOverHttp:
    def test_corrupt_cached_verdict_is_410_and_recomputable(self, service):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 201
        first = json.loads(body)
        status, body = _get(f"{base}/v1/jobs/{first['job_id']}?wait=60")
        assert json.loads(body)["state"] == "done"

        # Rot the cached verdict on disk behind the store's back.
        result_path = service.store._result_path(first["cache_key"])
        with open(result_path, "wb") as handle:
            handle.write(b'{"passed": true, "forged": ')

        # Serving must fail loudly -- 410 with a resubmit hint -- and
        # must never return the rotted bytes as a report.
        status, body = _get(f"{base}/v1/jobs/{first['job_id']}/report")
        assert status == 410
        error = json.loads(body)
        assert "resubmit" in error["error"]
        assert os.path.exists(result_path + ".corrupt")

        # Resubmission is a clean miss that recomputes the verdict...
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 201
        second = json.loads(body)
        assert second["cached"] is False
        status, body = _get(f"{base}/v1/jobs/{second['job_id']}?wait=60")
        assert json.loads(body)["state"] == "done"
        # ...after which the report serves again, self-healed.
        status, body = _get(f"{base}/v1/jobs/{second['job_id']}/report")
        assert status == 200
        assert json.loads(body)["schema_version"] == SCHEMA_VERSION

        status, body = _get(f"{base}/v1/metrics")
        metrics = json.loads(body)
        assert metrics["cache"]["corruptions"] >= 1
        assert metrics["counters"]["store_corruption"] >= 1


class TestWatchdogDeadLetter:
    def test_stalled_job_restarts_then_dead_letters(self, tmp_path):
        # Chaos hangs every chunk boundary for far longer than the
        # watchdog's silence deadline, so every attempt stalls: the job is
        # restarted once, stalls again, and is dead-lettered.
        plane = ChaosPolicy(
            seed=0,
            p=1.0,
            sites=("runner.chunk",),
            max_faults=None,
            hang_seconds=1.2,
        ).fault_plane()
        svc = EvaluationService(
            str(tmp_path / "state"),
            port=0,
            stall_timeout=0.3,
            max_restarts=1,
            fault_plane=plane,
        )
        svc.start()
        try:
            spec = dict(E4_SPEC, chunk_size=4_096)
            status, body = _post(f"{svc.address}/v1/jobs", spec)
            assert status == 201
            job_id = json.loads(body)["job_id"]
            deadline = time.monotonic() + 60
            while True:
                status, body = _get(f"{svc.address}/v1/jobs/{job_id}?wait=5")
                record = json.loads(body)
                if record["state"] not in ("queued", "running"):
                    break
                assert time.monotonic() < deadline, "job never terminated"
            assert record["state"] == "dead_letter"
            assert record["restarts"] > 1
            assert "dead-lettered" in record["error"]

            status, body = _get(f"{svc.address}/v1/metrics")
            metrics = json.loads(body)
            assert metrics["jobs"]["dead_letter"] == 1
            assert metrics["counters"]["watchdog_stalled"] >= 2
            assert metrics["counters"]["job_restarted"] == 1
            assert metrics["counters"]["job_dead_letter"] == 1
            assert metrics["watchdog"]["stall_timeout"] == 0.3
            assert metrics["watchdog"]["max_restarts"] == 1

            # a dead-lettered job never populated the verdict cache
            status, _ = _get(f"{svc.address}/v1/jobs/{job_id}/report")
            assert status == 409
        finally:
            svc.stop()


class TestApiVersioning:
    """The ``/v1/`` prefix and the retirement of unversioned aliases."""

    def test_full_job_lifecycle_under_v1(self, service):
        base = service.address
        status, body = _post(f"{base}/v1/jobs", E4_SPEC)
        assert status == 201
        job_id = json.loads(body)["job_id"]
        status, body = _get(f"{base}/v1/jobs/{job_id}?wait=60")
        assert status == 200
        assert json.loads(body)["state"] == "done"
        status, body = _get(f"{base}/v1/jobs/{job_id}/report")
        assert status == 200
        assert json.loads(body)["schema_version"] == SCHEMA_VERSION

    def test_v1_health_and_metrics_announce_the_version(self, service):
        base = service.address
        status, body = _get(f"{base}/v1/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["api_version"] == "v1"
        status, body = _get(f"{base}/v1/metrics")
        assert status == 200
        assert json.loads(body)["api_version"] == "v1"

    def test_v1_responses_carry_no_deprecation_header(self, service):
        status, _, headers = _request_with_headers(
            f"{service.address}/v1/healthz"
        )
        assert status == 200
        assert headers.get("Deprecation") is None
        assert headers.get("Link") is None

    def test_retired_aliases_answer_404_with_successor_link(self, service):
        base = service.address
        for path in ("/healthz", "/metrics"):
            status, body, headers = _request_with_headers(f"{base}{path}")
            assert status == 404
            assert headers.get("Link") == (
                f'</v1{path}>; rel="successor-version"'
            )
            assert json.loads(body)["successor"] == f"/v1{path}"

    def test_retired_job_submission_answers_404_with_link(self, service):
        base = service.address
        status, body, headers = _request_with_headers(
            f"{base}/jobs", body=E4_SPEC
        )
        assert status == 404
        assert '</v1/jobs>; rel="successor-version"' == headers.get("Link")
        # The job was NOT admitted -- the retired path is inert.
        status, body = _get(f"{base}/v1/jobs")
        assert status == 200

    def test_adaptive_job_over_the_wire(self, service):
        base = service.address
        spec = dict(E4_SPEC, adaptive=True)
        status, body = _post(f"{base}/v1/jobs", spec)
        assert status == 201
        first = json.loads(body)
        assert first["cached"] is False  # distinct cache key vs uniform
        status, body = _get(f"{base}/v1/jobs/{first['job_id']}?wait=60")
        finished = json.loads(body)
        assert finished["state"] == "done"
        assert finished["result"]["passed"] is False  # same verdict: leaks
        status, body = _get(f"{base}/v1/jobs/{first['job_id']}/report")
        report = json.loads(body)
        adaptive = report["adaptive"]
        assert adaptive["undecided"] == 0
        assert adaptive["decided_leaky"] > 0
        assert adaptive["probe_sample_savings"] > 1.0

    def test_unknown_version_prefix_is_404(self, service):
        status, _ = _get(f"{service.address}/v2/healthz")
        assert status == 404


class TestRestartResume:
    def test_stop_tells_running_jobs_before_the_http_wait(self, tmp_path):
        """``httpd.shutdown`` waits out the server's poll; running jobs
        must already have heard the stop, or a short one finishes in
        that wait instead of returning to the queue."""
        svc = EvaluationService(str(tmp_path / "state"), port=0)
        svc.start()
        seen = []
        shutdown = svc.httpd.shutdown

        def recording_shutdown():
            seen.append(svc.runner._shutdown.is_set())
            shutdown()

        svc.httpd.shutdown = recording_shutdown
        svc.stop()
        assert seen == [True]

    def test_graceful_shutdown_returns_job_to_queue_and_resumes(
        self, tmp_path
    ):
        state = str(tmp_path / "state")
        svc = EvaluationService(state, port=0)
        svc.start()
        spec = {
            "design": "kronecker",
            "scheme": "full",
            "n_simulations": 400_000,
            "seed": 11,
            "chunk_size": 8_192,
        }
        status, body = _post(f"{svc.address}/v1/jobs", spec)
        assert status == 201
        job_id = json.loads(body)["job_id"]
        checkpoint = svc.store.checkpoint_path(job_id)
        deadline = time.monotonic() + 60
        while not os.path.exists(checkpoint):
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.05)
        svc.stop()

        # The durable image says "resume me": still queued, checkpoint kept.
        record = json.loads(
            open(os.path.join(state, "jobs", f"{job_id}.json")).read()
        )
        assert record["state"] == "queued"
        assert record["progress"]["blocks_done"] > 0
        assert os.path.exists(checkpoint)

        svc2 = EvaluationService(state, port=0)
        recovered = svc2.start()
        assert recovered == 1
        status, body = _get(f"{svc2.address}/v1/jobs/{job_id}?wait=120")
        finished = json.loads(body)
        svc2.stop()
        assert finished["state"] == "done"
        assert finished["result"]["exit_code"] == 0  # full scheme is clean
        # The resumed campaign started from the checkpoint, not block 0.
        assert finished["progress"]["resumed_from_block"] > 0
        events = [json.loads(line) for line in open(svc2.telemetry.path)]
        names = [e["event"] for e in events]
        assert "job_interrupted" in names
        assert "job_recovered" in names

    def test_sigkilled_server_resumes_after_restart(self, tmp_path):
        """A real SIGKILL mid-job: the restarted server finishes the job."""
        state = str(tmp_path / "state")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO_ROOT, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--state-dir", state,
        ]
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            base = line.strip().rsplit(" ", 1)[1]
            spec = {
                "design": "kronecker",
                "scheme": "full",
                "n_simulations": 400_000,
                "seed": 13,
                "chunk_size": 8_192,
            }
            status, body = _post(f"{base}/v1/jobs", spec)
            assert status == 201
            job_id = json.loads(body)["job_id"]
            # Wait for the job's real checkpoint (not a .tmp in flight):
            # killing before the first atomic rename would legitimately
            # restart the campaign from block 0.
            checkpoint = os.path.join(
                state, "checkpoints", f"{job_id}.npz"
            )
            deadline = time.monotonic() + 60
            while not os.path.exists(checkpoint):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()

        # Restart in-process on the same state dir; the killed job record
        # is still "running" on disk and must be recovered and finished.
        record = json.loads(
            open(os.path.join(state, "jobs", f"{job_id}.json")).read()
        )
        assert record["state"] == "running"
        svc = EvaluationService(state, port=0)
        recovered = svc.start()
        assert recovered == 1
        status, body = _get(f"{svc.address}/v1/jobs/{job_id}?wait=120")
        finished = json.loads(body)
        svc.stop()
        assert finished["state"] == "done"
        assert finished["progress"]["resumed_from_block"] > 0
