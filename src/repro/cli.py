"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands mirror the paper's workflow:

* ``evaluate`` -- PROLEAD-style fixed-vs-random evaluation of a design
  (Kronecker delta or full S-box) under a probing model.
* ``campaign`` -- the same evaluation as a chunked, checkpointable campaign
  (resume after interruption, time budgets, early stop, ``--adaptive``
  per-probe scheduling), plus the fault-injection self-check of the
  evaluator itself.
* ``exact``    -- exact (SILVER-style) sweep of the Kronecker delta.
* ``certify``  -- compositional (S)NI/PINI certificate of a design's
  gadget decomposition, with exact-enumeration fallback; emits a
  whole-circuit certificate or concrete counterexample probes.
* ``sni``      -- (S)NI check of the DOM-AND gadget.
* ``report``   -- architecture/area report of a design.
* ``verilog``  -- export a design as structural Verilog.
* ``encrypt``  -- masked AES-128 encryption of a block (value level).
* ``serve``    -- long-lived evaluation service (HTTP JSON API, job queue,
  content-addressed verdict cache, structured telemetry; ``--fleet``
  makes it a distributed-campaign coordinator).
* ``submit``   -- submit a job to a running service and await its verdict.
* ``worker``   -- fleet worker daemon: pull leased work from a coordinator
  over HTTP, execute it locally, stream results back.
* ``chaos-torture`` -- robustness self-check: run the campaign under
  deterministic injected infrastructure faults (torn checkpoints, IO
  errors, hung workers) and assert every run ends byte-identical to the
  fault-free golden report or fails with a typed error.

Exit codes: 0 -- clean and complete; 1 -- leakage detected; 2 -- error or
infeasible analysis; 3 -- inconclusive: truncated before completion, or an
exact sweep with probes beyond its enumeration budget, without a leak.
``evaluate``, ``campaign``, ``exact`` and the service behind ``submit``
run every spec through :func:`repro.service.runner.run_spec` and map its
report to a code with :func:`repro.service.runner.exit_code_for`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Sequence

from repro import engines as engine_registry
from repro.aes.cipher import aes128_encrypt_block
from repro.core.aes_masked import MaskedAes128
from repro.errors import ReproError, ServiceError
from repro.leakage.faults import run_self_check
from repro.leakage.sni import SniChecker, dom_and_gadget
from repro.netlist.stats import netlist_stats
from repro.netlist.verilog import to_verilog
from repro.service.runner import (
    DESIGNS,
    build_design,
    evaluator_for,
    exit_code_for,
    run_spec,
)
from repro.spec import API_VERSION, EvaluationSpec

_DESIGNS = list(DESIGNS)


def _print_verdict(args, report, progress=None) -> int:
    """Print a report as the command's flags ask; return its exit code.

    A campaign's ``progress`` adds the block line to the text output.
    """
    if getattr(args, "json", False):
        print(report.to_json(top=args.top))
    else:
        print(report.format_summary(top=args.top))
        if progress is not None:
            print(
                f"  blocks: {progress.blocks_done}/{progress.blocks_total} "
                f"in {progress.chunks_done} chunk(s), resumed from block "
                f"{progress.resumed_from_block}, {progress.retries} retry(ies)"
            )
    return exit_code_for(report.to_dict(top=0))


def cmd_evaluate(args) -> int:
    """Run a fixed-vs-random evaluation; exit codes as ``campaign``."""
    report, _ = run_spec(EvaluationSpec.from_args(args))
    return _print_verdict(args, report)


def cmd_campaign(args) -> int:
    """Run a chunked, checkpointable campaign (or the evaluator self-check).

    Exit codes: 0 clean+complete, 1 leakage, 2 error (or self-check
    coverage failure -- the evaluator, not the design, is broken), 3
    truncated without a leak (inconclusive).
    """
    if args.self_check:
        matrix = run_self_check(
            n_simulations=args.simulations,
            seed=args.seed,
            chunk_size=args.chunk_size,
            workers=args.workers,
            engine=args.engine,
        )
        if args.json:
            print(json.dumps(matrix.to_dict(), indent=2))
        else:
            print(matrix.format_table())
        return 0 if matrix.coverage_complete else 2

    spec = EvaluationSpec.from_args(args)
    fault_plane = None
    if args.chaos_seed is not None:
        from repro.chaos import ChaosPolicy

        fault_plane = ChaosPolicy(
            seed=args.chaos_seed, p=args.chaos_p
        ).fault_plane()
    report, progress = run_spec(
        spec,
        checkpoint=args.checkpoint,
        resume=args.resume,
        fault_plane=fault_plane,
        time_budget=args.time_budget,
        early_stop=args.early_stop,
        stall_timeout=args.stall_timeout,
    )
    return _print_verdict(args, report, progress)


def cmd_exact(args) -> int:
    """Run the exact Kronecker sweep; exit codes as ``campaign --exact``."""
    spec = EvaluationSpec.from_dict(
        {
            "design": "kronecker",
            "scheme": args.scheme,
            "mode": "exact",
            "max_enum_bits": args.max_bits,
            "engine": args.engine,
        }
    )
    report, _ = run_spec(spec)
    return _print_verdict(args, report)


_CERTIFY_FIXTURES = ("dom-and", "dom-and-pair", "dom-and-pair-shared")


def cmd_certify(args) -> int:
    """Compositional certificate of a design; exit 1 on counterexample."""
    from repro.leakage.certify import (
        CompositionalChecker,
        dom_and_design,
        dom_and_pair_design,
    )

    if args.gadget is not None:
        dut = {
            "dom-and": dom_and_design,
            "dom-and-pair": lambda: dom_and_pair_design(shared_mask=False),
            "dom-and-pair-shared": lambda: dom_and_pair_design(
                shared_mask=True
            ),
        }[args.gadget]()
    else:
        dut = build_design(args.design, args.scheme).dut
    checker = CompositionalChecker(
        dut,
        model=args.model,
        order=args.order,
        max_gadget_bits=args.max_gadget_bits,
        exact_fallback=args.exact_fallback,
        max_enum_bits=args.max_enum_bits,
        engine=args.engine,
    )
    report = checker.check()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_summary())
    return 0 if report.certified else 1


def cmd_sni(args) -> int:
    """Check (S)NI of the DOM-AND gadget; exit 1 if SNI fails."""
    gadget = dom_and_gadget()
    result = SniChecker(gadget, robust=args.robust).check(order=args.order)
    print(result.summary())
    for violation in (result.ni_violations + result.sni_violations)[:10]:
        print(f"  {violation.probe_names}: needs {violation.required_shares}")
    return 0 if result.is_sni else 1


def cmd_report(args) -> int:
    """Print the netlist structure/area report."""
    netlist = build_design(args.design, args.scheme).netlist
    print(netlist_stats(netlist).format_table())
    return 0


def cmd_verilog(args) -> int:
    """Export a design as structural Verilog."""
    text = to_verilog(build_design(args.design, args.scheme).netlist)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text)} bytes)")
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    """Run the evaluation service until interrupted."""
    from repro.service import EvaluationService

    service = EvaluationService(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        runner_threads=args.runner_threads,
        queue_limit=args.queue_limit,
        telemetry_path=args.telemetry,
        stall_timeout=args.stall_timeout,
        max_restarts=args.max_restarts,
        fleet=args.fleet,
        local_workers=args.local_workers,
        lease_seconds=args.lease_seconds,
        tenant_quota=args.tenant_quota,
    )
    print(f"evaluation service listening on {service.address}")
    if service.fleet is not None:
        print(
            f"  fleet coordinator: on ({service.local_workers} embedded "
            f"local workers, {service.fleet.lease_seconds:g}s leases)"
        )
    print(f"  state dir: {service.store.root}")
    print(f"  telemetry: {service.telemetry.path}")
    sys.stdout.flush()
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (running jobs return to the queue)...")
        service.stop()
    return 0


def _http_round_trip(url, data=None, timeout=30.0, retry=None):
    """One service HTTP round-trip; returns ``(status, body_bytes)``.

    Connection-level failures (refused, reset, DNS -- a coordinator
    restarting under the client) retry with :func:`repro.chaos.retry_io`
    exponential backoff before surfacing as :class:`ServiceError`.  HTTP
    *responses* of any status are answers, not transport failures, and
    return immediately -- ``HTTPError`` subclasses ``URLError``/``OSError``
    and must be caught before the retry path ever sees it.
    """
    import urllib.error
    import urllib.request

    from repro.chaos import DEFAULT_RETRY, retry_io

    def attempt():
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    try:
        return retry_io(
            attempt,
            retry if retry is not None else DEFAULT_RETRY,
            site="submit.http",
            retry_on=(urllib.error.URLError, TimeoutError),
        )
    except urllib.error.URLError as exc:
        raise ServiceError(
            f"cannot reach service at {url}: {exc.reason}"
        ) from exc
    except TimeoutError as exc:
        raise ServiceError(f"service at {url} timed out") from exc


def cmd_submit(args) -> int:
    """Submit a job to a running service; exit codes mirror ``campaign``."""
    spec = EvaluationSpec.from_args(args)
    base = f"{args.url.rstrip('/')}/{API_VERSION}"

    def _request(url, data=None):
        return _http_round_trip(url, data=data, timeout=args.timeout + 30)

    status, body = _request(
        f"{base}/jobs", json.dumps(spec.to_dict()).encode()
    )
    if status not in (200, 201):
        print(f"error: submission failed ({status}): {body.decode()}",
              file=sys.stderr)
        return 2
    record = json.loads(body)
    job_id = record["job_id"]
    print(
        f"job {job_id}: {record['state']}"
        + (" (verdict cache hit)" if record.get("cached") else "")
        + (" (deduplicated against in-flight job)"
           if record.get("deduplicated") else "")
    )
    import time as _time

    deadline = _time.monotonic() + args.timeout
    # Poll while the job is live; any terminal state (done, failed,
    # cancelled, dead_letter, ...) ends the loop.
    while record["state"] in ("queued", "running"):
        remaining = deadline - _time.monotonic()
        if remaining <= 0:
            print(
                f"error: job {job_id} still {record['state']} after "
                f"{args.timeout:g}s; it keeps running server-side",
                file=sys.stderr,
            )
            return 2
        status, body = _request(
            f"{base}/jobs/{job_id}?wait={min(remaining, 60):g}"
        )
        if status != 200:
            print(f"error: poll failed ({status}): {body.decode()}",
                  file=sys.stderr)
            return 2
        record = json.loads(body)
        progress = record.get("progress") or {}
        # An exact job's progress counts shards, not blocks.
        if record["state"] == "running" and "blocks_done" in progress:
            print(
                f"  running: {progress['blocks_done']}/"
                f"{progress['blocks_total']} blocks"
            )
    if record["state"] != "done":
        print(f"error: job {record['state']}: {record.get('error')}",
              file=sys.stderr)
        return 2
    status, body = _request(f"{base}/jobs/{job_id}/report")
    if status != 200:
        print(f"error: report fetch failed ({status})", file=sys.stderr)
        return 2
    report = json.loads(body)
    code = exit_code_for(report)
    if args.json:
        sys.stdout.write(body.decode("utf-8"))
    else:
        verdict = {0: "PASS", 1: "FAIL (leakage)"}.get(code)
        if verdict is None:
            verdict = (
                "INCONCLUSIVE (truncated)"
                if report["status"] != "complete"
                else f"INCONCLUSIVE ({report['n_skipped']} probes beyond "
                "enumeration budget)"
            )
        print(f"  design:  {report['design']}")
        print(f"  status:  {report['status']}")
        print(f"  max -log10(p): {report['max_mlog10p']:.2f}")
        adaptive = report.get("adaptive")
        if adaptive:
            print(
                f"  adaptive: {adaptive['decided_leaky']} leaky / "
                f"{adaptive['decided_null']} null / "
                f"{adaptive['undecided']} undecided "
                f"({adaptive['probe_sample_savings']}x probe-sample savings)"
            )
        print(f"  verdict: {verdict}")
    return code


def cmd_worker(args) -> int:
    """Run a fleet worker against a coordinator until interrupted."""
    from repro.service.worker import FleetWorker, HttpTransport

    worker = FleetWorker(
        HttpTransport(args.coordinator),
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
    )
    print(
        f"fleet worker {worker.worker_id} polling {args.coordinator} "
        f"every {args.poll_interval:g}s"
    )
    sys.stdout.flush()
    worker.run_forever()
    print(
        f"worker {worker.worker_id} stopping "
        f"({worker.items_done} items done, {worker.items_failed} failed)"
    )
    return 0


def cmd_chaos_torture(args) -> int:
    """Torture the campaign under deterministic chaos; exit 1 on violation.

    Every chaos seed runs the campaign interrupted-then-resumed under
    injected infrastructure faults.  Each run must end byte-identical to
    the fault-free golden report or fail with a typed error; anything
    else is a robustness-contract violation and the command exits 1.
    """
    import tempfile

    from repro.chaos import CHAOS_SITES, run_torture

    spec = EvaluationSpec.from_args(args)
    sites = (
        tuple(s.strip() for s in args.sites.split(",") if s.strip())
        if args.sites
        else CHAOS_SITES
    )
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))

    def make_evaluator():
        return evaluator_for(spec)

    def make_config(checkpoint=None):
        return spec.campaign_config(
            checkpoint=checkpoint,
            default_chunking=True,
            stall_timeout=args.stall_timeout,
        )

    workdir = args.workdir or tempfile.mkdtemp(prefix="chaos-torture-")
    os.makedirs(workdir, exist_ok=True)
    report = run_torture(
        make_evaluator,
        make_config,
        seeds,
        workdir,
        p=args.chaos_p,
        hang_seconds=args.hang_seconds,
        max_faults=args.max_faults,
        sites=sites,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_summary())
    return 0 if report.ok else 1


def cmd_encrypt(args) -> int:
    """Encrypt one block with the value-level masked AES-128."""
    key = bytes.fromhex(args.key)
    plaintext = bytes.fromhex(args.plaintext)
    masked = MaskedAes128(key, random.Random(args.seed))
    ciphertext = masked.encrypt_block(plaintext)
    print(f"ciphertext: {ciphertext.hex()}")
    reference = aes128_encrypt_block(plaintext, key)
    if ciphertext != reference:  # pragma: no cover - correctness guard
        print("MISMATCH against reference AES!", file=sys.stderr)
        return 1
    return 0


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    """Evaluation-spec flags shared by ``campaign`` and ``submit``.

    One flag set, one mapping (:meth:`EvaluationSpec.from_args`): a
    parameter added here reaches the local campaign and the remote
    submission path at once.
    """
    p.add_argument("--design", default="kronecker", choices=_DESIGNS)
    p.add_argument("--scheme", default="full")
    p.add_argument("--fixed", type=lambda v: int(v, 0), default=0)
    p.add_argument("--simulations", type=int, default=100_000)
    p.add_argument("--windows", type=int, default=1)
    p.add_argument("--transitions", action="store_true",
                   help="glitch+transition-extended model")
    p.add_argument("--pairs", action="store_true",
                   help="second-order (probe-pair) evaluation")
    p.add_argument("--batch-probes", action="store_true",
                   help="evaluate first-order classes AND probe pairs "
                        "against one shared trace per chunk (mode 'both')")
    p.add_argument("--max-pairs", type=int, default=500)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (results are bit-identical "
                        "to --workers 1)")
    p.add_argument("--engine", default=engine_registry.DEFAULT_ENGINE,
                   choices=engine_registry.engine_names(),
                   help="simulation engine from the repro.engines registry "
                        "(results are bit-identical; unavailable engines "
                        "degrade down the ladder)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--slice", action=argparse.BooleanOptionalAction, default=True,
        help="simulate only the fan-in cone of the active probes "
             "(bit-identical to the full simulation, usually much faster; "
             "--no-slice forces full-netlist simulation)",
    )
    p.add_argument("--tenant", default="default",
                   help="tenant name for per-tenant admission quotas "
                        "(service-side; does not change results)")
    p.add_argument("--priority", default="normal",
                   choices=("high", "normal", "low"),
                   help="admission priority lane; low-priority work is "
                        "shed first under queue backpressure")
    adaptive = p.add_argument_group(
        "adaptive scheduling",
        "decide each probe as early as its evidence allows, prune decided "
        "probes, and spend the remaining budget on undecided ones",
    )
    adaptive.add_argument(
        "--adaptive", action=argparse.BooleanOptionalAction, default=False,
        help="adaptive per-probe budgets instead of a uniform budget",
    )
    adaptive.add_argument(
        "--decide-threshold", type=float, default=5.0,
        help="-log10(p) level at/above which a probe counts as leaky",
    )
    adaptive.add_argument(
        "--null-threshold", type=float, default=4.0,
        help="-log10(p) level at/below which a probe counts as null",
    )
    adaptive.add_argument(
        "--decide-chunks", type=int, default=2,
        help="consecutive chunk boundaries a criterion must hold",
    )
    adaptive.add_argument(
        "--min-null-samples", type=int, default=8_192,
        help="samples a probe needs before a null decision counts",
    )
    adaptive.add_argument(
        "--adaptive-cap", type=float, default=1.0, dest="adaptive_cap",
        help="budget-escalation hard cap for stubborn undecided probes, "
             "as a multiple of --simulations (1.0 = never exceed the "
             "uniform budget)",
    )
    exact = p.add_argument_group(
        "exact enumeration",
        "replace Monte-Carlo sampling with sharded exhaustive enumeration "
        "of every probe class (mode 'exact'): deterministic verdicts, "
        "bit-identical for any worker count or shard size",
    )
    exact.add_argument(
        "--exact", action="store_true",
        help="exhaustively enumerate instead of sampling",
    )
    exact.add_argument(
        "--max-enum-bits", type=int, default=24, dest="max_enum_bits",
        help="per-probe enumeration budget in bits; wider probes are "
             "reported infeasible",
    )
    exact.add_argument(
        "--shard-lane-bits", type=int, default=16, dest="shard_lane_bits",
        help="lanes per enumeration shard as a power of two (execution "
             "detail: any value merges to identical results)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="fixed-vs-random leakage evaluation")
    p.add_argument("--design", default="kronecker", choices=_DESIGNS)
    p.add_argument("--scheme", default="full")
    p.add_argument("--fixed", type=lambda v: int(v, 0), default=0)
    p.add_argument("--simulations", type=int, default=100_000)
    p.add_argument("--windows", type=int, default=1)
    p.add_argument("--transitions", action="store_true",
                   help="glitch+transition-extended model")
    p.add_argument("--pairs", action="store_true",
                   help="second-order (probe-pair) evaluation")
    p.add_argument("--max-pairs", type=int, default=500)
    p.add_argument("--engine", default=engine_registry.DEFAULT_ENGINE,
                   choices=engine_registry.engine_names(),
                   help="simulation engine from the repro.engines registry "
                        "(results are bit-identical; unavailable engines "
                        "degrade down the ladder)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "campaign", help="chunked, checkpointable leakage campaign"
    )
    _add_spec_arguments(p)
    p.add_argument("--chunk-size", type=int, default=None,
                   help="simulations per chunk (default: one chunk, or "
                        "8192 with --adaptive)")
    p.add_argument("--checkpoint", default=None,
                   help="NPZ checkpoint path, written after every chunk")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint when it exists")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget in seconds (truncates cleanly)")
    p.add_argument("--early-stop", type=float, default=None,
                   help="stop once some -log10(p) reaches this level")
    p.add_argument("--self-check", action="store_true",
                   help="fault-injection coverage matrix of the evaluator")
    p.add_argument("--stall-timeout", type=float, default=None,
                   help="reap worker shards making no progress for this "
                        "many seconds (restart pool once, then serial)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="inject deterministic infrastructure faults from "
                        "this chaos seed (see docs/robustness.md)")
    p.add_argument("--chaos-p", type=float, default=0.1,
                   help="per-consultation fault probability under "
                        "--chaos-seed")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "chaos-torture",
        help="assert the campaign survives injected infrastructure faults",
    )
    _add_spec_arguments(p)
    p.add_argument("--chunk-size", type=int, default=None,
                   help="simulations per chunk (default: service default)")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of chaos seeds to torture with")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first chaos seed (runs seed-base..seed-base+seeds)")
    p.add_argument("--chaos-p", type=float, default=0.2,
                   help="per-consultation fault probability")
    p.add_argument("--hang-seconds", type=float, default=0.01,
                   help="sleep injected by hang faults")
    p.add_argument("--max-faults", type=int, default=32,
                   help="total fault budget per run")
    p.add_argument("--sites", default=None,
                   help="comma-separated chaos sites (default: all)")
    p.add_argument("--stall-timeout", type=float, default=None,
                   help="worker-shard stall timeout during torture runs")
    p.add_argument("--workdir", default=None,
                   help="directory for torture checkpoints "
                        "(default: a fresh temp dir)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_chaos_torture)

    p = sub.add_parser("exact", help="exact Kronecker probe sweep")
    p.add_argument("--scheme", default="full")
    p.add_argument("--max-bits", type=int, default=23)
    p.add_argument("--engine", default=engine_registry.DEFAULT_ENGINE,
                   choices=engine_registry.engine_names(),
                   help="simulation engine from the repro.engines registry "
                        "(results are bit-identical)")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser(
        "certify",
        help="compositional (S)NI/PINI certificate with exact fallback",
    )
    p.add_argument("--design", default="kronecker", choices=_DESIGNS)
    p.add_argument("--scheme", default="full")
    p.add_argument(
        "--gadget", default=None, choices=_CERTIFY_FIXTURES,
        help="certify a built-in fixture instead of --design/--scheme",
    )
    p.add_argument(
        "--model", default="robust", choices=("classic", "robust"),
        help="classic = isolated 1-SNI + fresh-mask disjointness; robust = "
             "glitch-extended probes on gadget fan-in slices",
    )
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--max-gadget-bits", type=int, default=22,
                   help="per-gadget (S)NI enumeration limit in bits")
    p.add_argument("--max-enum-bits", type=int, default=24,
                   dest="max_enum_bits",
                   help="exact-fallback enumeration budget in bits")
    p.add_argument(
        "--exact-fallback", action=argparse.BooleanOptionalAction,
        default=True,
        help="decide gadgets that fail the (conservative) NI check by "
             "exact per-probe-class enumeration",
    )
    p.add_argument("--engine", default=engine_registry.DEFAULT_ENGINE,
                   choices=engine_registry.engine_names(),
                   help="simulation engine for the exact-fallback "
                        "enumeration (bit-identical; native is fastest)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable certificate")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sni", help="(S)NI check of the DOM-AND gadget")
    p.add_argument("--robust", action="store_true",
                   help="glitch-extended probes")
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=cmd_sni)

    p = sub.add_parser("report", help="netlist structure and area")
    p.add_argument("--design", default="sbox",
                   choices=_DESIGNS)
    p.add_argument("--scheme", default="full")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verilog", help="structural Verilog export")
    p.add_argument("--design", default="kronecker",
                   choices=_DESIGNS)
    p.add_argument("--scheme", default="full")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser(
        "serve", help="run the evaluation service (HTTP JSON API)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--state-dir", default="service-state",
                   help="directory for job records, verdict cache, "
                        "checkpoints, and telemetry")
    p.add_argument("--runner-threads", type=int, default=1,
                   help="concurrent jobs (each may use its own workers)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="submissions rejected with 429 beyond this depth")
    p.add_argument("--telemetry", default=None,
                   help="JSON-lines event log path "
                        "(default: <state-dir>/telemetry.jsonl)")
    p.add_argument("--stall-timeout", type=float, default=None,
                   help="watchdog: restart jobs making no chunk progress "
                        "for this many seconds")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="restarts before a job is dead-lettered")
    p.add_argument(
        "--fleet", action=argparse.BooleanOptionalAction, default=False,
        help="act as a distributed-campaign coordinator: expose the "
             "/v1/fleet/ lease protocol and farm job chunks out to "
             "workers (results stay bit-identical to serial execution)",
    )
    p.add_argument("--local-workers", type=int, default=1,
                   help="embedded in-process fleet workers (only with "
                        "--fleet; 0 relies on external 'repro worker' "
                        "daemons)")
    p.add_argument("--lease-seconds", type=float, default=30.0,
                   help="work-item lease duration; an unrenewed lease "
                        "expires and its item is reissued")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="per-tenant cap on active (queued+running) jobs; "
                        "beyond it submissions answer 429")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="fleet worker daemon pulling leased work from a coordinator",
    )
    p.add_argument("--coordinator", required=True,
                   help="coordinator base URL (a 'serve --fleet' service)")
    p.add_argument("--worker-id", default=None,
                   help="stable worker name (default: a random one)")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   help="seconds between lease polls when idle")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "submit", help="submit a job to a running evaluation service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="service base URL")
    _add_spec_arguments(p)
    p.add_argument("--timeout", type=float, default=600,
                   help="seconds to wait for the verdict")
    p.add_argument("--json", action="store_true",
                   help="print the full report JSON (byte-exact wire form)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("encrypt", help="masked AES-128 encryption")
    p.add_argument("--key", required=True, help="16-byte key, hex")
    p.add_argument("--plaintext", required=True, help="16-byte block, hex")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_encrypt)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
