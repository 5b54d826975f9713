"""Sharded-vs-serial exact enumeration benchmark emitting ``BENCH_certify.json``.

Runs the full exhaustive sweep of a Kronecker-delta randomness scheme once
with the serial exact analyzer and once with the sharded engine on a worker
pool, asserts the two produce **bit-identical** verdicts (per-probe leak
flags, total-variation distances and distinct-distribution counts), and
records wall-clock times plus the sharded speedup.  Also runs the
compositional certifier over the DOM fixtures and the scheme itself and
records how many gadgets were certified and how (isolated SNI, slice NI,
exact fallback).

Usage (CI runs this with a modest speedup gate on a 4-core runner)::

    PYTHONPATH=src python benchmarks/bench_certify.py \
        --scheme eq6 --workers 4 --out BENCH_certify.json

Exit codes: 0 success, 1 verdict mismatch (a correctness bug), 2 speedup
below ``--require-speedup``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.kronecker import build_kronecker_delta
from repro.leakage.certify import (
    CompositionalChecker,
    ShardedExactAnalyzer,
    dom_and_design,
    dom_and_pair_design,
)
from repro.leakage.exact import ExactAnalyzer
from repro.service.runner import resolve_scheme


def _verdicts(report):
    return sorted(
        (
            r.probe_names,
            r.leaking,
            r.tv_fixed_vs_random,
            r.n_distinct_distributions,
        )
        for r in report.results
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", default="eq6")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-enum-bits", type=int, default=23)
    parser.add_argument("--shard-lane-bits", type=int, default=16)
    parser.add_argument("--require-speedup", type=float, default=None)
    parser.add_argument("--out", default="BENCH_certify.json")
    args = parser.parse_args(argv)

    design = build_kronecker_delta(resolve_scheme(args.scheme))

    t0 = time.perf_counter()
    serial = ExactAnalyzer(
        design.dut, max_enum_bits=args.max_enum_bits
    ).analyze()
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = ShardedExactAnalyzer(
        design.dut,
        max_enum_bits=args.max_enum_bits,
        shard_lane_bits=args.shard_lane_bits,
    ).analyze(workers=args.workers)
    t_sharded = time.perf_counter() - t0

    if _verdicts(serial) != _verdicts(sharded):
        print("FAIL: sharded verdicts differ from serial", file=sys.stderr)
        return 1
    speedup = t_serial / t_sharded if t_sharded > 0 else float("inf")

    certificates = {}
    certified_gadgets = 0
    for name, dut in (
        ("dom_and", dom_and_design()),
        ("dom_pair_fresh", dom_and_pair_design(False)),
        ("dom_pair_shared", dom_and_pair_design(True)),
        (args.scheme, design.dut),
    ):
        t0 = time.perf_counter()
        report = CompositionalChecker(dut, model="robust").check()
        exact_fallbacks = sum(
            1 for g in report.gadgets if g.exact_confirmed is not None
        )
        share_gadgets = [g for g in report.gadgets if g.kind == "shares"]
        certificates[name] = {
            "certified": report.certified,
            "n_gadgets": len(share_gadgets),
            "n_counterexamples": len(report.counterexamples),
            "n_exact_fallbacks": exact_fallbacks,
            "seconds": round(time.perf_counter() - t0, 3),
        }
        if report.certified:
            certified_gadgets += len(share_gadgets)

    record = {
        "benchmark": "certify",
        "scheme": args.scheme,
        "max_enum_bits": args.max_enum_bits,
        "shard_lane_bits": args.shard_lane_bits,
        "workers": args.workers,
        "n_probe_classes": len(serial.results),
        "n_leaking": len(serial.leaking_results),
        "bit_identical": True,
        "serial_seconds": round(t_serial, 3),
        "sharded_seconds": round(t_sharded, 3),
        "speedup": round(speedup, 3),
        "certified_gadgets": certified_gadgets,
        "certificates": certificates,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))

    if args.require_speedup is not None and speedup < args.require_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required "
            f"{args.require_speedup:.2f}x",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
