"""Tests for the distributed campaign fabric (coordinator, workers, fleet).

The load-bearing claims under test:

* the lease protocol is safe -- expiry reissues, duplicate completions are
  discarded, corrupt payloads requeue, poison items surface as typed
  errors instead of livelocking;
* a campaign (and an exact sweep) distributed across workers produces
  reports **byte-identical** to serial execution, for any worker count,
  interleaving, and under mid-campaign worker death;
* the HTTP ``/v1/fleet/`` routes carry the same protocol end to end, so
  external ``repro worker`` daemons are interchangeable with the embedded
  local workers.
"""

import base64
import gc
import json
import threading
import time
import urllib.request
import weakref

import pytest

from repro.errors import FleetInterrupted, ServiceError
from repro.leakage.campaign import EvaluationCampaign
from repro.leakage.evaluator import HistogramAccumulator
from repro.leakage.parallel import BlockExecutor
from repro.service import EvaluationService, JobSpec
from repro.service.fleet import (
    FleetCoordinator,
    FleetRunner,
    decode_arrays,
    encode_arrays,
)
from repro.service.runner import evaluator_for
from repro.service.worker import (
    BUILD_CACHE_SIZE,
    FleetWorker,
    HttpTransport,
    LocalTransport,
)

import numpy as np

#: Small enough for seconds-scale tests, big enough for several chunks.
SMALL_SPEC = {
    "design": "kronecker",
    "scheme": "eq6",
    "n_simulations": 6_000,
    "chunk_size": 2_000,
    "seed": 7,
}


def _serial_report_bytes(spec_dict):
    spec = JobSpec.from_dict(dict(spec_dict))
    campaign = EvaluationCampaign(
        evaluator_for(spec), spec.campaign_config(default_chunking=True)
    )
    return campaign.run().to_json(top=None)


def _fleet_executor(coordinator, job_id, spec_dict, should_stop=None):
    """The block executor bound to the fleet, as the service builds it."""
    spec = JobSpec.from_dict(dict(spec_dict))
    coordinator.register_job(job_id, spec.to_dict())
    return BlockExecutor(
        evaluator_for(spec), FleetRunner(coordinator, job_id, should_stop)
    )


def _fleet_report_bytes(spec_dict, coordinator, job_id="job-under-test"):
    spec = JobSpec.from_dict(dict(spec_dict))
    executor = _fleet_executor(coordinator, job_id, spec_dict)
    campaign = EvaluationCampaign(
        executor.evaluator,
        spec.campaign_config(default_chunking=True),
        runner=executor.runner,
    )
    try:
        return campaign.run().to_json(top=None)
    finally:
        executor.close()


def _start_workers(coordinator, n, stop, poll_interval=0.02):
    threads = []
    for index in range(n):
        worker = FleetWorker(
            LocalTransport(coordinator),
            worker_id=f"test-worker-{index}",
            poll_interval=poll_interval,
        )
        thread = threading.Thread(
            target=worker.run, args=(stop,), daemon=True
        )
        thread.start()
        threads.append(thread)
    return threads


def _npz_payload(**arrays):
    return {"npz": encode_arrays(arrays)}


class TestCodec:
    def test_round_trip(self):
        arrays = {
            "keys": np.array([1, 5, 9], dtype=np.uint64),
            "counts": np.array([[2, 3, 4]], dtype=np.int64),
        }
        decoded = decode_arrays(encode_arrays(arrays))
        assert set(decoded) == {"keys", "counts"}
        assert np.array_equal(decoded["keys"], arrays["keys"])
        assert np.array_equal(decoded["counts"], arrays["counts"])

    def test_rejects_rot(self):
        with pytest.raises(ServiceError):
            decode_arrays("not base64 at all!!!")
        with pytest.raises(ServiceError):
            decode_arrays(
                base64.b64encode(b'{"not":"an npz"}').decode("ascii")
            )


class TestCoordinatorProtocol:
    def _coordinator(self, **kwargs):
        kwargs.setdefault("lease_seconds", 5.0)
        coord = FleetCoordinator(**kwargs)
        coord.register_job("j1", dict(SMALL_SPEC))
        return coord

    def test_lease_complete_wait(self):
        coord = self._coordinator()
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        work = coord.lease("w1")
        assert work["item_id"] == item_id
        assert work["spec"]["design"] == "kronecker"
        assert coord.lease("w1") is None  # nothing else pending
        body = _npz_payload(x=np.arange(3))
        result = coord.complete(work["lease_id"], "w1", body)
        assert result == {"ok": True, "duplicate": False}
        results = coord.wait([item_id])
        assert np.array_equal(results[item_id]["arrays"]["x"], np.arange(3))

    def test_expired_lease_reissues_item(self):
        coord = self._coordinator(lease_seconds=0.05)
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        first = coord.lease("doomed")
        assert first["item_id"] == item_id
        time.sleep(0.1)
        second = coord.lease("survivor")
        assert second is not None and second["item_id"] == item_id
        assert coord.counters["leases_expired"] == 1

    def test_heartbeat_keeps_lease_alive(self):
        coord = self._coordinator(lease_seconds=0.15)
        coord.submit_items("j1", [{"kind": "blocks"}])
        work = coord.lease("beater")
        for _ in range(4):
            time.sleep(0.05)
            assert coord.heartbeat(work["lease_id"], "beater")
        # Renewed throughout, so nothing expired or was reissued.
        assert coord.counters["leases_expired"] == 0
        assert coord.lease("other") is None

    def test_duplicate_completion_discarded(self):
        coord = self._coordinator(lease_seconds=0.05)
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        slow = coord.lease("slow")
        time.sleep(0.1)  # slow's lease expires
        fast = coord.lease("fast")
        body = _npz_payload(x=np.arange(2))
        assert coord.complete(fast["lease_id"], "fast", body)["ok"]
        late = coord.complete(slow["lease_id"], "slow", body)
        assert late["duplicate"] is True
        assert coord.counters["items_completed"] == 1
        assert coord.counters["duplicate_results"] == 1
        coord.wait([item_id])

    def test_corrupt_payload_requeues(self):
        coord = self._coordinator()
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        work = coord.lease("w1")
        result = coord.complete(
            work["lease_id"],
            "w1",
            {"npz": base64.b64encode(b"garbage").decode("ascii")},
        )
        assert result["ok"] is False and result["requeued"] is True
        assert coord.counters["bad_results"] == 1
        retry = coord.lease("w1")
        assert retry["item_id"] == item_id

    def test_worker_fail_requeues(self):
        coord = self._coordinator()
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        work = coord.lease("w1")
        coord.fail(work["lease_id"], "w1", "engine exploded")
        assert coord.counters["worker_failures"] == 1
        assert coord.lease("w2")["item_id"] == item_id

    def test_poison_item_surfaces_as_typed_error(self):
        coord = self._coordinator(lease_seconds=0.02, max_attempts=2)
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        for _ in range(2):
            work = coord.lease("crashy")
            assert work is not None
            time.sleep(0.05)  # let the lease expire: one attempt burned
        with pytest.raises(ServiceError, match="after 2 attempts"):
            coord.wait([item_id], poll=0.01)

    def test_release_job_interrupts_wait(self):
        coord = self._coordinator()
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        threading.Timer(0.05, coord.release_job, args=("j1",)).start()
        with pytest.raises(FleetInterrupted):
            coord.wait([item_id], poll=0.01)

    def test_should_stop_interrupts_wait(self):
        coord = self._coordinator()
        (item_id,) = coord.submit_items("j1", [{"kind": "blocks"}])
        with pytest.raises(FleetInterrupted):
            coord.wait([item_id], should_stop=lambda: True, poll=0.01)

    def test_malformed_tables_surface_as_service_error(self):
        """A decodable result whose tables are malformed (a count column
        missing) fails the merge with a typed error, not a short table."""
        coord = FleetCoordinator(lease_seconds=5.0)
        executor = _fleet_executor(coord, "j1", SMALL_SPEC)

        def answer_badly():
            work = None
            while work is None:
                work = coord.lease("w1")
                time.sleep(0.01)
            body = _npz_payload(
                t0_keys=np.array([1, 2, 3], dtype=np.uint64),
                t0_counts=np.array([[1, 1], [0, 0]], dtype=np.int64),
            )
            body["meta"] = {"table_ids": ["c0"]}
            coord.complete(work["lease_id"], "w1", body)

        threading.Thread(target=answer_badly, daemon=True).start()
        with pytest.raises(ServiceError, match="malformed tables"):
            executor.accumulate(HistogramAccumulator(), 0, 4096, 1, [0])

    def test_unregistered_job_rejected(self):
        coord = FleetCoordinator()
        with pytest.raises(ServiceError):
            coord.submit_items("ghost", [{"kind": "blocks"}])


def _drop_table(ids, arrays, table_id):
    """Packed state arrays without one table."""
    index = ids.index(table_id)
    n_keys = arrays["n_keys"]
    start = int(n_keys[:index].sum())
    stop = start + int(n_keys[index])
    return ids[:index] + ids[index + 1:], {
        "keys": np.delete(arrays["keys"], np.s_[start:stop]),
        "counts": np.delete(arrays["counts"], np.s_[start:stop], axis=1),
        "n_keys": np.delete(n_keys, index),
    }


class TestBlocksResultValidation:
    """A ``blocks`` result merges only if it holds exactly the requested
    tables, each counting every lane and window of its blocks once per
    group; anything else is a ServiceError, never a short table under
    the full sample budget."""

    def _accumulate(self, tamper, pairs=(), pair_offsets=(0,)):
        coord = FleetCoordinator(lease_seconds=5.0)
        deadline = time.monotonic() + 30
        executor = _fleet_executor(
            coord, "j1", SMALL_SPEC,
            should_stop=lambda: time.monotonic() > deadline,
        )
        worker = FleetWorker(LocalTransport(coord), worker_id="w1")

        def answer():
            work = None
            while work is None:
                work = coord.lease("w1")
                time.sleep(0.01)
            body = worker.execute_item(work)
            ids, arrays = tamper(
                list(body["meta"]["table_ids"]), decode_arrays(body["npz"])
            )
            coord.complete(
                work["lease_id"], "w1",
                {"npz": encode_arrays(arrays), "meta": {"table_ids": ids}},
            )

        threading.Thread(target=answer, daemon=True).start()
        acc = HistogramAccumulator()
        executor.accumulate(
            acc, 0, 6_000, 2, [1], class_indices=[0, 1, 2],
            pairs=pairs, pair_offsets=pair_offsets,
        )
        return acc

    def test_honest_result_merges(self):
        acc = self._accumulate(lambda ids, arrays: (ids, arrays))
        assert acc.table_ids() == ["c0", "c1", "c2"]
        # block 1 of 6,000 lanes holds 1,904 lanes, two windows each
        for table_id in acc.table_ids():
            _, fixed, random_ = acc.counts(table_id)
            assert fixed.sum() == random_.sum() == 2 * 1_904

    def test_result_with_only_c0_rejected(self):
        """c0 alone with 5+5 counts: c1 and c2 missing, c0 short."""

        def only_c0(ids, arrays):
            return ["c0"], {
                "keys": np.array([0], dtype=np.uint64),
                "counts": np.array([[5], [5]], dtype=np.int64),
                "n_keys": np.array([1], dtype=np.int64),
            }

        with pytest.raises(ServiceError, match="missing \\['c1', 'c2'\\]"):
            self._accumulate(only_c0)

    def test_result_without_tables_rejected(self):
        with pytest.raises(ServiceError, match="0 tables for 3"):
            self._accumulate(lambda ids, arrays: ([], {}))

    def test_short_table_rejected(self):
        def short(ids, arrays):
            arrays["counts"][1, -1] -= 1
            return ids, arrays

        with pytest.raises(ServiceError, match="'c2' counts"):
            self._accumulate(short)

    def test_missing_pair_offset_rejected(self):
        with pytest.raises(ServiceError, match="missing \\['p0:2:1'\\]"):
            self._accumulate(
                lambda ids, arrays: _drop_table(ids, arrays, "p0:2:1"),
                pairs=[(0, 2)], pair_offsets=(1, 0),
            )

    def test_unrequested_table_rejected(self):
        with pytest.raises(ServiceError, match="unexpected \\['c9'\\]"):
            self._accumulate(lambda ids, arrays: (ids + ["c9"], arrays))

    def test_version_1_layout_rejected(self):
        def version_1(ids, arrays):
            ends = np.cumsum(arrays["n_keys"])
            starts = ends - arrays["n_keys"]
            return ids, {
                name: array
                for i, (a, b) in enumerate(zip(starts, ends))
                for name, array in (
                    (f"t{i}_keys", arrays["keys"][a:b]),
                    (f"t{i}_counts", arrays["counts"][:, a:b]),
                )
            }

        with pytest.raises(ServiceError, match="packed layout"):
            self._accumulate(version_1)


class TestWorkerBuildCache:
    def test_evaluators_are_bounded_and_rebuilt_alike(self, monkeypatch):
        """A long-lived worker keeps at most ``BUILD_CACHE_SIZE``
        evaluators however many seeds it serves, and an evicted one is
        rebuilt into the same arrays."""
        from repro.service import runner

        built = []
        real_evaluator_for = runner.evaluator_for

        def recording(spec):
            evaluator = real_evaluator_for(spec)
            built.append(weakref.ref(evaluator))
            return evaluator

        monkeypatch.setattr(runner, "evaluator_for", recording)
        worker = FleetWorker(LocalTransport(FleetCoordinator()))

        def run_block(seed):
            spec = JobSpec.from_dict(dict(SMALL_SPEC, seed=seed))
            body = worker.execute_item({
                "spec": spec.to_dict(),
                "work": {
                    "kind": "blocks", "fixed_secret": 0, "n_lanes": 6_000,
                    "n_windows": 1, "class_indices": [0, 1, 2],
                    "blocks": [1],
                },
            })
            return body["meta"], decode_arrays(body["npz"])

        first_meta, first_arrays = run_block(0)
        for seed in range(1, 21):
            run_block(seed)
        gc.collect()
        assert sum(ref() is not None for ref in built) <= BUILD_CACHE_SIZE
        meta, arrays = run_block(0)
        assert len(built) == 22  # seed 0's evaluator was evicted, rebuilt
        assert meta == first_meta
        assert arrays.keys() == first_arrays.keys()
        for name, array in first_arrays.items():
            np.testing.assert_array_equal(arrays[name], array)

    def test_service_workers_keep_an_evaluator_per_runner_thread(
        self, tmp_path, monkeypatch
    ):
        """A service running more jobs at once than ``BUILD_CACHE_SIZE``
        sizes its embedded workers' tables from its runner threads, so
        items of that many jobs, leased round-robin as their interleaved
        chunks come off the queue, build each evaluator once."""
        from repro.service import runner, worker as worker_module

        workers = []

        class Recording(worker_module.FleetWorker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                workers.append(self)

        monkeypatch.setattr(worker_module, "FleetWorker", Recording)
        n_jobs = BUILD_CACHE_SIZE + 2
        service = EvaluationService(
            str(tmp_path / "state"),
            port=0,
            runner_threads=n_jobs,
            fleet=True,
            local_workers=2,
        )
        service.start()
        service.stop()
        assert len(workers) == 2
        for worker in workers:
            assert worker._evaluators.info().capacity == n_jobs
            assert worker._analyzers.info().capacity == n_jobs

        built = []
        real_evaluator_for = runner.evaluator_for

        def recording(spec):
            built.append(spec.seed)
            return real_evaluator_for(spec)

        monkeypatch.setattr(runner, "evaluator_for", recording)
        for _ in range(3):
            for seed in range(n_jobs):
                workers[0]._evaluator_for(
                    JobSpec.from_dict(dict(SMALL_SPEC, seed=seed))
                )
        assert built == list(range(n_jobs))


class TestFleetBitIdentity:
    def test_campaign_identical_across_worker_counts(self):
        golden = _serial_report_bytes(SMALL_SPEC)
        for n_workers in (1, 3):
            coord = FleetCoordinator(lease_seconds=10.0)
            stop = threading.Event()
            _start_workers(coord, n_workers, stop)
            try:
                assert _fleet_report_bytes(SMALL_SPEC, coord) == golden
            finally:
                stop.set()

    def test_campaign_identical_under_worker_death(self):
        """A worker that leases a slice and dies costs time, not bytes."""
        golden = _serial_report_bytes(SMALL_SPEC)
        coord = FleetCoordinator(lease_seconds=0.2)
        stop = threading.Event()

        # A "worker" that takes one lease and never comes back (SIGKILL
        # equivalent at the protocol level: no heartbeat, no completion).
        grabbed = threading.Event()

        def vampire():
            while not grabbed.is_set():
                if coord.lease("vampire") is not None:
                    grabbed.set()
                    return
                time.sleep(0.01)

        threading.Thread(target=vampire, daemon=True).start()
        _start_workers(coord, 2, stop)
        try:
            assert _fleet_report_bytes(SMALL_SPEC, coord) == golden
        finally:
            stop.set()
        assert grabbed.is_set()
        assert coord.counters["leases_expired"] >= 1

    def test_exact_identical_through_fleet(self):
        from repro.core.kronecker import build_kronecker_delta
        from repro.core.optimizations import RandomnessScheme
        from repro.leakage.certify import run_exact_analysis

        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        kwargs = dict(max_enum_bits=23, shard_lane_bits=12)
        golden = run_exact_analysis(design.dut, **kwargs).to_json(top=None)

        spec = dict(SMALL_SPEC, mode="exact", **kwargs)
        spec.pop("n_simulations"), spec.pop("chunk_size")
        coord = FleetCoordinator(lease_seconds=10.0)
        coord.register_job("jx", JobSpec.from_dict(spec).to_dict())
        stop = threading.Event()
        _start_workers(coord, 2, stop)
        try:
            report = run_exact_analysis(
                design.dut,
                **kwargs,
                runner=FleetRunner(coord, "jx"),
            )
        finally:
            stop.set()
        assert report.to_json(top=None) == golden


class TestFleetService:
    """End to end over HTTP: coordinator service + HttpTransport workers."""

    @pytest.fixture()
    def service(self, tmp_path):
        service = EvaluationService(
            str(tmp_path / "state"),
            port=0,
            fleet=True,
            local_workers=0,
            lease_seconds=10.0,
        )
        service.start()
        yield service
        service.stop()

    def _submit_and_fetch(self, service, spec_dict):
        body = json.dumps(spec_dict).encode()
        request = urllib.request.Request(
            f"{service.address}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            record = json.loads(resp.read())
        job_id = record["job_id"]
        deadline = time.monotonic() + 120
        while record["state"] in ("queued", "running"):
            assert time.monotonic() < deadline, "job did not finish"
            with urllib.request.urlopen(
                f"{service.address}/v1/jobs/{job_id}?wait=5", timeout=60
            ) as resp:
                record = json.loads(resp.read())
        assert record["state"] == "done", record
        with urllib.request.urlopen(
            f"{service.address}/v1/jobs/{job_id}/report", timeout=60
        ) as resp:
            return resp.read()

    def test_http_workers_produce_serial_bytes(self, service):
        golden = _serial_report_bytes(SMALL_SPEC).encode("utf-8")
        stop = threading.Event()
        threads = []
        for index in range(2):
            worker = FleetWorker(
                HttpTransport(service.address),
                worker_id=f"http-{index}",
                poll_interval=0.05,
            )
            thread = threading.Thread(
                target=worker.run, args=(stop,), daemon=True
            )
            thread.start()
            threads.append(thread)
        try:
            assert self._submit_and_fetch(service, SMALL_SPEC) == golden
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

    def test_metrics_expose_fleet_gauges(self, service):
        with urllib.request.urlopen(
            f"{service.address}/v1/metrics", timeout=30
        ) as resp:
            metrics = json.loads(resp.read())
        assert "fleet" in metrics
        fleet = metrics["fleet"]
        assert fleet["lease_seconds"] == 10.0
        assert {"pending_items", "active_leases", "workers_live"} <= set(
            fleet
        )
        assert "by_priority" in metrics["queue"]
        assert "cache_hit_rate" in metrics

    def test_embedded_local_workers_serve_jobs(self, tmp_path):
        """fleet=True with local workers is self-sufficient (degenerate
        one-host deployment) and still bit-identical to serial."""
        golden = _serial_report_bytes(SMALL_SPEC).encode("utf-8")
        service = EvaluationService(
            str(tmp_path / "state2"),
            port=0,
            fleet=True,
            local_workers=2,
            lease_seconds=10.0,
        )
        service.start()
        try:
            assert self._submit_and_fetch(service, SMALL_SPEC) == golden
        finally:
            service.stop()
