#!/usr/bin/env python
"""Kill-and-resume smoke test for evaluation campaigns (CI, stdlib only).

Launches a chunked campaign of the known-leaky Eq. (6) Kronecker delta with
checkpointing enabled, SIGKILLs it as soon as the first checkpoint lands on
disk, then resumes through the CLI and checks that the resumed run

* actually starts from the checkpoint (no full re-simulation), and
* reaches the leakage verdict (exit code 1).

Run from the repository root::

    python scripts/kill_resume_smoke.py [--workers N] [--slice | --no-slice]
                                        [--torn-checkpoint]

With ``--torn-checkpoint`` the exercise gets harder: the victim is
SIGKILLed only after the checkpoint has rotated at least once (so a
``.prev`` generation exists), the current checkpoint is then overwritten
with garbage (a write torn mid-flight by the kill), and the resumed run
must quarantine the corrupt file, fall back one generation, and still
produce a report byte-identical to an uninterrupted reference run.  The
same drill then runs on an exact sweep (``campaign --exact --scheme eq6
--shard-lane-bits 10``), whose checkpoints rotate the same way.

With ``--workers N`` the resumed run goes through the multiprocessing
executor, exercising checkpoint interoperability between the serial and
parallel paths (a checkpoint written serially must resume under any worker
count -- results are bit-identical by construction).  ``--slice`` (the
default) runs both the victim and the resumed campaign with cone-sliced
simulation; ``--no-slice`` uses full-netlist simulation.  The slice flag
joins the checkpoint fingerprint, so both legs must agree.

Exits 0 on success, 1 on failure.  Each leg takes well under a minute
(about 30 seconds on a 2-core host).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_SIMULATIONS = 200_000
CHUNK_SIZE = 8_192
DEADLINE_SECONDS = 25


def campaign_args(checkpoint, resume=False, workers=1, slice_cones=True,
                  as_json=False):
    args = [
        sys.executable,
        "-m",
        "repro.cli",
        "campaign",
        "--scheme", "eq6",
        "--simulations", str(N_SIMULATIONS),
        "--chunk-size", str(CHUNK_SIZE),
        "--seed", "7",
        "--workers", str(workers),
        "--slice" if slice_cones else "--no-slice",
    ]
    if checkpoint is not None:
        args += ["--checkpoint", checkpoint]
    if resume:
        args.append("--resume")
    if as_json:
        args.append("--json")
    return args


def exact_args(checkpoint, resume=False, workers=1, as_json=False):
    args = [
        sys.executable,
        "-m",
        "repro.cli",
        "campaign",
        "--exact",
        "--scheme", "eq6",
        "--shard-lane-bits", "10",
        "--workers", str(workers),
    ]
    if checkpoint is not None:
        args += ["--checkpoint", checkpoint]
    if resume:
        args.append("--resume")
    if as_json:
        args.append("--json")
    return args


def torn_checkpoint_drill(env, label, checkpoint, reference, victim, resume):
    """SIGKILL during checkpoint writes, then corrupt the current generation.

    ``reference``, ``victim`` and ``resume`` are the argv of the
    uninterrupted run, the run to kill (writing ``checkpoint``) and the
    resumed run; the reference and the resumed run print JSON.  The
    victim is killed only after the previous-generation checkpoint
    (``.prev``) exists, the *current* checkpoint is then overwritten with
    garbage (simulating a write torn mid-flight by the kill), and the
    resumed run must quarantine the corrupt file, fall back one
    generation, and still produce a report byte-identical to the
    reference.
    """
    print(f"[{label} 1/4] computing reference report (no checkpoint, "
          "no kill)")
    golden = subprocess.run(
        reference,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_SECONDS * 10,
    )
    if golden.returncode != 1:
        print(f"FAIL: reference {label} exited {golden.returncode}, "
              "expected 1 (leakage detected)")
        return 1

    print(f"[{label} 2/4] starting victim (checkpoint: {checkpoint})")
    process = subprocess.Popen(
        victim,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        # Wait for the second generation: once ``.prev`` exists there is a
        # known-good checkpoint to fall back to when we tear the current one.
        while not os.path.exists(checkpoint + ".prev"):
            if process.poll() is not None:
                print(f"FAIL: {label} finished before it could be killed")
                return 1
            if time.monotonic() > deadline:
                print("FAIL: no rotated checkpoint appeared in time")
                return 1
            time.sleep(0.01)
        process.kill()  # SIGKILL: no cleanup handlers run
    finally:
        process.wait()
    with open(checkpoint, "wb") as handle:
        handle.write(b"RPCKPT01 torn mid-write by a crash")
    print(f"[{label} 3/4] victim SIGKILLed; current checkpoint torn to "
          "garbage")

    result = subprocess.run(
        resume,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_SECONDS * 10,
    )
    sys.stderr.write(result.stderr)
    if result.returncode != 1:
        print(f"FAIL: resumed {label} exited {result.returncode}, "
              "expected 1 (leakage detected)")
        return 1
    if not os.path.exists(checkpoint + ".corrupt"):
        print("FAIL: torn checkpoint was not quarantined to .corrupt")
        return 1
    if result.stdout != golden.stdout:
        print(f"FAIL: resumed {label} report is not byte-identical to the "
              "uninterrupted reference report")
        return 1
    print(f"[{label} 4/4] torn checkpoint quarantined; resume fell back "
          "one generation and produced a byte-identical report")
    return 0


def run_torn_checkpoint_leg(env, options, workdir):
    """The torn-checkpoint drill on a sampled campaign, then on an exact
    sweep: both write, rotate and load checkpoints the same way."""
    checkpoint = os.path.join(workdir, "campaign.npz")
    failed = torn_checkpoint_drill(
        env,
        "campaign",
        checkpoint,
        reference=campaign_args(None, workers=options.workers,
                                slice_cones=options.slice, as_json=True),
        victim=campaign_args(checkpoint, slice_cones=options.slice),
        resume=campaign_args(checkpoint, resume=True,
                             workers=options.workers,
                             slice_cones=options.slice, as_json=True),
    )
    if failed:
        return failed
    checkpoint = os.path.join(workdir, "exact.ckpt")
    return torn_checkpoint_drill(
        env,
        "exact sweep",
        checkpoint,
        reference=exact_args(None, workers=options.workers, as_json=True),
        victim=exact_args(checkpoint),
        resume=exact_args(checkpoint, resume=True, workers=options.workers,
                          as_json=True),
    )


def run_kill_resume_leg(env, options, workdir):
    """SIGKILL a campaign after its first checkpoint, then resume it."""
    checkpoint = os.path.join(workdir, "campaign.npz")
    mode = "sliced" if options.slice else "full"
    print(f"[1/3] starting campaign (checkpoint: {checkpoint}, {mode})")
    victim = subprocess.Popen(
        campaign_args(checkpoint, slice_cones=options.slice),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        while not os.path.exists(checkpoint):
            if victim.poll() is not None:
                print("FAIL: campaign finished before it could be killed; "
                      "raise N_SIMULATIONS")
                return 1
            if time.monotonic() > deadline:
                print("FAIL: no checkpoint appeared within the deadline")
                return 1
            time.sleep(0.01)
        victim.kill()  # SIGKILL: no cleanup handlers run
    finally:
        victim.wait()
    print("[2/3] campaign SIGKILLed after its first checkpoint")

    result = subprocess.run(
        campaign_args(checkpoint, resume=True, workers=options.workers,
                      slice_cones=options.slice),
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_SECONDS * 10,
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 1:
        print(f"FAIL: resumed campaign exited {result.returncode}, "
              "expected 1 (leakage detected)")
        return 1
    if "resumed from block 0," in result.stdout:
        print("FAIL: resume started from block 0 (checkpoint ignored)")
        return 1
    if "truncated" in result.stdout:
        print("FAIL: resumed campaign did not run to completion")
        return 1
    print("[3/3] resumed campaign completed from checkpoint with the "
          "expected leakage verdict")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the resumed run")
    parser.add_argument(
        "--slice", action=argparse.BooleanOptionalAction, default=True,
        help="cone-sliced simulation for both legs (default; --no-slice "
             "runs the full netlist)",
    )
    parser.add_argument(
        "--torn-checkpoint", action="store_true",
        help="instead of the plain kill/resume leg, SIGKILL during "
             "checkpointing, corrupt the current checkpoint, and require "
             "a bit-identical recovery from the previous generation",
    )
    options = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    # The checkpoints, their .prev and .corrupt generations go with the
    # work directory, whether the run passes or fails.
    workdir = tempfile.mkdtemp(
        prefix="kill_resume_torn_" if options.torn_checkpoint
        else "kill_resume_"
    )
    try:
        if options.torn_checkpoint:
            return run_torn_checkpoint_leg(env, options, workdir)
        return run_kill_resume_leg(env, options, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
