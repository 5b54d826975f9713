"""Serial-vs-parallel campaign benchmark emitting ``BENCH_parallel.json``.

Runs the E3 configuration (masked S-box, Eq. (6) randomness, glitch-extended
probes) as a serial campaign and again with a worker pool, asserts the two
produce **bit-identical** G-test statistics, and writes a machine-readable
JSON record of wall-clock times and simulations-per-second so the repo's
performance trajectory has a baseline.  Also times one chunk under every
registered simulation engine.

The parallel leg picks its strategy from the engine: with ``--engine
native`` the campaign stays single-process and hands ``--workers`` to the
fused kernel's internal pthread pool (``parallel_strategy:
in_kernel_threads``) -- on a 1-CPU host this replaces the fork/pickle
process pool whose overhead once produced a 0.801x "speedup".  Other
engines use the historical process pool (``parallel_strategy:
process_pool``, degrading to serial when the pool collapses to one
effective worker).

Usage (CI runs this with ``--require-speedup 2.5`` on a 4-core runner)::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --design sbox --scheme eq6 --simulations 100000 --workers 4 \
        --out BENCH_parallel.json

Exit codes: 0 success, 1 result mismatch (a correctness bug), 2 speedup
below ``--require-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import engines as engine_registry
from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
from repro.leakage.evaluator import LeakageEvaluator
from repro.leakage.model import ProbingModel
from repro.netlist.native import native_available
from repro.service.runner import resolve_scheme


def _build(design: str, scheme: str):
    if design == "kronecker":
        from repro.core.kronecker import build_kronecker_delta

        return build_kronecker_delta(resolve_scheme(scheme)).dut
    if design == "sbox":
        from repro.core.sbox import build_masked_sbox

        return build_masked_sbox(resolve_scheme(scheme)).dut
    raise SystemExit(f"unknown design {design!r}")


def _run_campaign(dut, args, workers: int, engine: str):
    evaluator = LeakageEvaluator(
        dut, ProbingModel.GLITCH, seed=args.seed, engine=engine
    )
    config = CampaignConfig(
        n_simulations=args.simulations,
        chunk_size=args.chunk_size,
        workers=workers,
    )
    campaign = EvaluationCampaign(evaluator, config)
    start = time.perf_counter()
    report = campaign.run()
    elapsed = time.perf_counter() - start
    return report, elapsed, campaign.effective_workers


def _signature(report):
    """The exact statistics a run must reproduce bit for bit."""
    return [
        (r.probe_names, r.g_statistic, r.dof, r.mlog10p)
        for r in report.results
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="sbox",
                        choices=("sbox", "kronecker"))
    parser.add_argument("--scheme", default="eq6")
    parser.add_argument("--simulations", type=int, default=100_000)
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--engine", default=engine_registry.DEFAULT_ENGINE,
                        choices=engine_registry.engine_names(),
                        help="engine for the parallel leg (native engages "
                             "in-kernel threads instead of a process pool)")
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail (exit 2) unless parallel/serial speedup "
                             "reaches this factor")
    args = parser.parse_args(argv)

    dut = _build(args.design, args.scheme)
    print(
        f"benchmark: {args.design}/{args.scheme}, "
        f"{args.simulations} simulations, {args.workers} worker(s), "
        f"{os.cpu_count()} cpu(s)"
    )

    # Engine comparison on a reduced budget (all serial): one chunk under
    # every registered engine, skipping native when the toolchain is out.
    engine_budget = min(args.simulations, 20_000)
    engines = {}
    for engine in engine_registry.engine_names():
        if engine == "native" and not native_available():
            print(f"  engine {engine:<10}     skip (toolchain unavailable)")
            continue
        ev = LeakageEvaluator(
            dut, ProbingModel.GLITCH, seed=args.seed, engine=engine
        )
        start = time.perf_counter()
        ev.evaluate(n_simulations=engine_budget)
        engines[engine] = time.perf_counter() - start
        print(f"  engine {engine:<10} {engines[engine]:8.2f}s "
              f"({engine_budget} sims)")

    serial_report, serial_s, _ = _run_campaign(dut, args, 1, "compiled")
    print(f"  serial   (workers=1)            {serial_s:8.2f}s")

    in_kernel = args.engine == "native" and native_available()
    if in_kernel:
        # The native engine parallelises inside one foreign call: the
        # campaign stays single-process and the kernel's pthread pool
        # takes the worker budget, so there is no fork/pickle tax.
        strategy = "in_kernel_threads"
        os.environ["REPRO_NATIVE_THREADS"] = str(args.workers)
        try:
            parallel_report, parallel_s, _ = _run_campaign(
                dut, args, 1, "native"
            )
        finally:
            os.environ.pop("REPRO_NATIVE_THREADS", None)
        effective = args.workers
    else:
        strategy = "process_pool"
        parallel_report, parallel_s, effective = _run_campaign(
            dut, args, args.workers, args.engine
        )
    print(
        f"  parallel (workers={args.workers}, effective={effective}, "
        f"strategy={strategy})            {parallel_s:8.2f}s"
    )

    identical = _signature(serial_report) == _signature(parallel_report)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    # The process-pool campaign degrades to serial when the requested pool
    # collapses to a single effective worker (e.g. a 1-CPU host): the
    # historical 0.801x "speedup" was pure fork/pickle overhead.  Record
    # the degradation so the JSON explains itself, and waive the speedup
    # gate -- ``--engine native`` is the fix on such hosts, keeping the
    # parallelism inside the kernel.
    degraded_serial = strategy == "process_pool" and (
        args.workers > 1 and effective == 1
    )
    record = {
        "benchmark": "E3-parallel-campaign",
        "design": args.design,
        "scheme": args.scheme,
        "n_simulations": args.simulations,
        "workers": args.workers,
        "effective_workers": effective,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "engine": args.engine,
        "parallel_strategy": strategy,
        "engine_seconds": {
            name: round(secs, 4) for name, secs in engines.items()
        },
        "engine_budget": engine_budget,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "serial_sims_per_second": round(args.simulations / serial_s, 1),
        "parallel_sims_per_second": round(args.simulations / parallel_s, 1),
        "speedup": round(speedup, 3),
        "degraded_serial": degraded_serial,
        "bit_identical": identical,
        "max_mlog10p": serial_report.max_mlog10p,
        "passed": serial_report.passed,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(
        f"  speedup {speedup:.2f}x, bit-identical={identical}, "
        f"wrote {args.out}"
    )

    if not identical:
        print("ERROR: parallel results diverge from serial", file=sys.stderr)
        return 1
    if degraded_serial:
        print(
            "note: requested workers degraded to serial (1 effective "
            "worker on this host); speedup gate waived"
        )
        return 0
    if args.require_speedup and speedup < args.require_speedup:
        print(
            f"ERROR: speedup {speedup:.2f}x below required "
            f"{args.require_speedup:.2f}x",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
