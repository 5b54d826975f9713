#!/usr/bin/env python
"""Distributed-fabric smoke test (CI, stdlib only): kill a worker or the
coordinator, keep the bytes.

Boots a fleet coordinator (``repro.cli serve --fleet``) with **zero** local
workers plus external ``repro.cli worker`` processes speaking the
``/v1/fleet/`` lease protocol over HTTP, then proves the fabric's central
claim end to end:

* **campaign leg** -- the E3 configuration (masked S-box, Eq. (6)
  randomness) is submitted to the coordinator while a single worker
  executes it.  As soon as that worker holds an active lease it is
  SIGKILLed -- no cleanup handlers, its leases silently expire -- and a
  second worker (started only then) finishes the campaign.  The merged
  report must be **byte-identical** to an in-process serial run, and at
  least one lease expiry must have been observed (the kill really landed
  mid-flight);
* **exact leg** -- a ``mode="exact"`` certification job is distributed
  across two workers and its report compared byte-for-byte against the
  in-process :func:`repro.leakage.certify.run_exact_analysis` sweep;
* **coordinator legs** -- the campaign again, on a fresh state dir, with
  the coordinator stopped while a chunk is in flight: once by SIGINT
  (a graceful stop: the job must be left ``queued`` with its
  checkpoint) and once by SIGKILL (the job is left ``running``, and the
  restart's recovery counts one restart).  Each time the coordinator
  restarts on the same state dir with a fresh worker; the finished
  report must be byte-identical to the serial run, resumed from a block
  past 0.

Run from the repository root::

    python scripts/distributed_smoke.py [--simulations N] [--lease-seconds S]

Exits 0 on success, 1 on failure.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_SECONDS = 420


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    return env


def _get_json(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def _post_json(url, body, timeout=60):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read())


def start_coordinator(state_dir, lease_seconds, env):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", state_dir,
            "--port", "0",
            "--fleet",
            "--local-workers", "0",
            "--lease-seconds", str(lease_seconds),
            "--runner-threads", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    address = None
    while address is None:
        if proc.poll() is not None or time.monotonic() > deadline:
            raise SystemExit("FAIL: coordinator did not come up")
        line = proc.stdout.readline()
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
    return proc, address


def start_worker(address, name, env):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--coordinator", address,
            "--worker-id", name,
            "--poll-interval", "0.1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for_job(address, job_id, deadline):
    record = {"state": "queued"}
    while record["state"] in ("queued", "running"):
        if time.monotonic() > deadline:
            raise SystemExit(f"FAIL: job {job_id} did not finish in time")
        record = _get_json(f"{address}/v1/jobs/{job_id}?wait=5")
    return record


def fetch_report(address, job_id):
    with urllib.request.urlopen(
        f"{address}/v1/jobs/{job_id}/report", timeout=60
    ) as resp:
        return resp.read()


def stop_processes(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        proc.wait()


def coordinator_leg(name, sig, campaign_spec, golden, options, env, deadline):
    """Stop the coordinator by ``sig`` mid-chunk, restart it, compare.

    The campaign runs on one worker until a chunk is done (so its
    checkpoint is on disk) and the next chunk's item is on lease; then
    the coordinator gets ``sig`` and the worker is killed.  The durable
    job record must say what the signal promises: ``queued`` with a
    checkpoint after a graceful SIGINT, ``running`` after a SIGKILL.
    """
    from repro.leakage import durable
    from repro.service.store import JobStore

    state_dir = tempfile.mkdtemp(prefix=f"distributed_smoke_{name}_")
    procs = []
    try:
        coordinator, address = start_coordinator(
            state_dir, options.lease_seconds, env
        )
        procs += [coordinator, start_worker(address, f"{name}-1", env)]
        job_id = _post_json(f"{address}/v1/jobs", campaign_spec)["job_id"]
        while True:
            if time.monotonic() > deadline:
                raise SystemExit(f"FAIL: {name}: no chunk finished in time")
            record = _get_json(f"{address}/v1/jobs/{job_id}")
            if record["state"] not in ("queued", "running"):
                raise SystemExit(
                    f"FAIL: {name}: job ended {record['state']!r} before "
                    "the coordinator was stopped"
                )
            done = (record.get("progress") or {}).get("blocks_done") or 0
            if done and _get_json(f"{address}/v1/fleet")["active_leases"]:
                break
            time.sleep(0.05)
        coordinator.send_signal(sig)
        try:
            coordinator.wait(timeout=60)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"FAIL: {name}: coordinator did not exit")
        stop_processes(procs)
        store = JobStore(state_dir)
        left = store.get_job(job_id)["state"]
        expected = "queued" if sig == signal.SIGINT else "running"
        if left != expected:
            raise SystemExit(
                f"FAIL: {name}: the stopped coordinator left the job "
                f"{left!r}, expected {expected!r}"
            )
        if not durable.checkpoint_exists(store.checkpoint_path(job_id)):
            raise SystemExit(f"FAIL: {name}: the job lost its checkpoint")
        print(f"  {name}: job left {left!r} with its checkpoint; restarting")

        coordinator, address = start_coordinator(
            state_dir, options.lease_seconds, env
        )
        procs = [coordinator, start_worker(address, f"{name}-2", env)]
        record = wait_for_job(address, job_id, deadline)
        if record["state"] != "done":
            raise SystemExit(
                f"FAIL: {name}: job ended {record['state']!r}: "
                f"{record.get('error')}"
            )
        if fetch_report(address, job_id) != golden:
            raise SystemExit(
                f"FAIL: {name}: report after the coordinator restart is "
                "not byte-identical to the serial reference"
            )
        resumed = record["progress"]["resumed_from_block"]
        restarts = record.get("restarts") or 0
        if resumed <= 0:
            raise SystemExit(f"FAIL: {name}: the job restarted from block 0")
        if restarts != (0 if sig == signal.SIGINT else 1):
            raise SystemExit(
                f"FAIL: {name}: recovery counted {restarts} restart(s)"
            )
        print(f"  {name}: report byte-identical; resumed from block "
              f"{resumed}, {restarts} restart(s) counted")
    finally:
        stop_processes(procs)
        shutil.rmtree(state_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--simulations", type=int, default=150_000)
    parser.add_argument("--chunk-size", type=int, default=8_192)
    parser.add_argument("--lease-seconds", type=float, default=3.0)
    parser.add_argument("--max-enum-bits", type=int, default=23)
    parser.add_argument("--shard-lane-bits", type=int, default=12)
    options = parser.parse_args()
    env = _env()
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

    from repro.core.kronecker import build_kronecker_delta
    from repro.core.optimizations import RandomnessScheme
    from repro.leakage.campaign import EvaluationCampaign
    from repro.leakage.certify import run_exact_analysis
    from repro.service import JobSpec, evaluator_for

    campaign_spec = {
        "design": "sbox",
        "scheme": "eq6",
        "n_simulations": options.simulations,
        "chunk_size": options.chunk_size,
        "seed": 7,
    }
    exact_spec = {
        "design": "kronecker",
        "scheme": "eq6",
        "mode": "exact",
        "max_enum_bits": options.max_enum_bits,
        "shard_lane_bits": options.shard_lane_bits,
        "seed": 7,
    }

    print("[1/8] computing in-process serial references")
    spec = JobSpec.from_dict(dict(campaign_spec))
    golden_campaign = (
        EvaluationCampaign(
            evaluator_for(spec), spec.campaign_config(default_chunking=True)
        )
        .run()
        .to_json(top=None)
        .encode("utf-8")
    )
    design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
    golden_exact = run_exact_analysis(
        design.dut,
        max_enum_bits=options.max_enum_bits,
        shard_lane_bits=options.shard_lane_bits,
    ).to_json(top=None).encode("utf-8")

    state_dir = tempfile.mkdtemp(prefix="distributed_smoke_")
    coordinator, address = start_coordinator(
        state_dir, options.lease_seconds, env
    )
    workers = []
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        print(f"[2/8] coordinator at {address}; starting worker alpha")
        workers.append(start_worker(address, "alpha", env))
        record = _post_json(f"{address}/v1/jobs", campaign_spec)
        job_id = record["job_id"]

        # Kill alpha only once it provably holds work: at least one item
        # completed (it is executing) and a lease is active right now.
        # alpha is the only worker, so every active lease is alpha's and
        # the SIGKILL must strand it past expiry.
        print("[3/8] waiting for worker alpha to hold an active lease")
        while True:
            if time.monotonic() > deadline:
                raise SystemExit("FAIL: campaign never put alpha on lease")
            stats = _get_json(f"{address}/v1/fleet")
            if (
                stats["counters"]["items_completed"] >= 1
                and stats["active_leases"] >= 1
            ):
                break
            time.sleep(0.05)
        workers[0].send_signal(signal.SIGKILL)
        workers[0].wait()
        print("[4/8] worker alpha SIGKILLed mid-lease; starting worker beta")
        workers.append(start_worker(address, "beta", env))

        record = wait_for_job(address, job_id, deadline)
        if record["state"] != "done":
            raise SystemExit(
                f"FAIL: campaign job ended {record['state']!r}: "
                f"{record.get('error')}"
            )
        report = fetch_report(address, job_id)
        stats = _get_json(f"{address}/v1/fleet")
        print(f"  fleet counters: {stats['counters']}")
        if report != golden_campaign:
            raise SystemExit(
                "FAIL: distributed campaign report is not byte-identical "
                "to the serial reference"
            )
        if stats["counters"]["leases_expired"] < 1:
            raise SystemExit(
                "FAIL: no lease expiry observed -- the kill did not land "
                "mid-flight"
            )
        print("  campaign report byte-identical to serial; "
              f"{stats['counters']['leases_expired']} lease(s) expired "
              "and were reissued")

        print("[5/8] exact certification across two workers")
        workers.append(start_worker(address, "gamma", env))
        record = _post_json(f"{address}/v1/jobs", exact_spec)
        record = wait_for_job(address, record["job_id"], deadline)
        if record["state"] != "done":
            raise SystemExit(
                f"FAIL: exact job ended {record['state']!r}: "
                f"{record.get('error')}"
            )
        report = fetch_report(address, record["job_id"])
        if report != golden_exact:
            raise SystemExit(
                "FAIL: distributed exact report is not byte-identical to "
                "the in-process sweep"
            )
        stats = _get_json(f"{address}/v1/fleet")
        print(f"  exact report byte-identical; fleet counters: "
              f"{stats['counters']}")
    finally:
        stop_processes(workers + [coordinator])
        shutil.rmtree(state_dir, ignore_errors=True)

    print("[6/8] coordinator SIGINTed mid-chunk, restarted on its state dir")
    coordinator_leg(
        "sigint", signal.SIGINT, campaign_spec, golden_campaign, options,
        env, deadline,
    )
    print("[7/8] coordinator SIGKILLed mid-chunk, restarted on its state dir")
    coordinator_leg(
        "sigkill", signal.SIGKILL, campaign_spec, golden_campaign, options,
        env, deadline,
    )
    print("[8/8] PASS: coordinator/worker execution is byte-faithful "
          "under worker and coordinator death")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
