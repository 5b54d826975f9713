"""Native fused-kernel benchmark emitting ``BENCH_native.json``.

Measures the ``native`` engine (single fused C kernel, one foreign call
per multi-cycle block, internal pthread pool) against the ``compiled``
engine on the E11 whole-core workload, gated on **bit-identity**:

* **engine dispatch leg** (``lanes=64``, one machine word) -- both engines
  execute the sliced S-box-0 cone of the masked AES-128 core with the
  stimulus pre-staged in each engine's native format (a materialised
  per-cycle dict list for ``compiled``, the dense uint64 block from
  :meth:`NativeSimulator.expand_stimulus` for ``native``).  At one word
  the per-op numpy dispatch dominates, so this leg isolates exactly what
  the fused kernel removes; it carries the ``--require-speedup`` gate.
* **wide leg** (``--lanes``, default 6000) -- the same comparison at
  Monte-Carlo width, where both engines stream real data.
* **full-evaluation leg** -- the complete periodic fixed-vs-random E11
  evaluation through :class:`PeriodicLeakageEvaluator` under each
  engine on the statically sliced cone: the compiled leg is python
  simulation plus python extraction and histogramming, the native leg
  the in-kernel pipeline (stimulus -> simulate -> extract -> histogram
  in C).  The two reports must be byte-identical; a per-stage breakdown
  is printed and recorded so regressions are attributable.  Carries the
  ``--require-full-eval-speedup`` gate.
* **scheduled full-evaluation leg** -- the same evaluation on the
  scheduled cone, the path E11 runs in the product: the native side
  lowers :class:`ScheduledSimulator` onto the scheduled-cone
  interpreter and keeps the pipeline; the compiled scheduled path is
  already cheap, so this leg's speedup is structurally smaller.
  Carries the ``--require-scheduled-speedup`` gate.
* **threads leg** -- the native kernel's in-kernel thread pool at 1 and
  ``min(4, max(2, cpu_count))`` threads, plus the best threaded-native
  configuration against the serial ``compiled`` baseline
  (``parallel_strategy: in_kernel_threads``); that ratio must exceed 1x
  even on a 1-CPU host, where process pools historically degraded to
  0.801x of serial.

Usage (CI's ``native-smoke`` job gates at ``--require-speedup 8.0``,
``--require-full-eval-speedup 3.0`` and ``--require-scheduled-speedup
1.0``, leaving headroom for slower runners; the committed record is
generated locally with ``--require-speedup 10``)::

    PYTHONPATH=src python benchmarks/bench_native.py \
        --lanes 6000 --require-speedup 10 --out BENCH_native.json

Exit codes: 0 success, 1 cross-engine mismatch (a correctness bug), 2
a speedup below one of the ``--require-*`` gates or threaded-native not
beating the serial compiled baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.aes_core import (
    ENCRYPTION_CYCLES,
    AesCoreHarness,
    build_masked_aes_core,
)
from repro.core.optimizations import RandomnessScheme
from repro.leakage.model import ProbingModel
from repro.leakage.periodic import PeriodicLeakageEvaluator
from repro.netlist.compile import CompiledSimulator
from repro.netlist.native import (
    NativeSimulator,
    native_default_threads,
    native_kernel_cache_info,
    native_unavailable_reason,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PHASES = (3, 4, 5, 6)

#: Engine-leg block shape: 40 cycles with 8 recorded, the footprint of a
#: periodic evaluation window without the surrounding statistics.
LEG_CYCLES = 40
LEG_RECORD = tuple(range(2, LEG_CYCLES, 5))


def _setup():
    core = build_masked_aes_core(RandomnessScheme.DEMEYER_EQ6)
    harness = AesCoreHarness(core)
    probes = [
        c.output for c in core.netlist.cells if c.name.startswith("sb0.")
    ]
    return core, harness, probes


def _trace_words(trace) -> list:
    """Byte-exact signature of every recorded word in a trace."""
    return [
        sorted((net, words.tobytes()) for net, words in cycle.items())
        for cycle in trace.values
    ]


def _best_of(fn, repeats: int):
    """Return ``(last_result, best_seconds)`` over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_engine_leg(core, harness, probes, lanes: int, repeats: int) -> dict:
    """Compiled vs native on the sliced cone, stimulus pre-staged."""
    n_words = (lanes + 63) // 64
    stim = harness.bitsliced_stimulus(
        np.random.default_rng(21), n_words, KEY, KEY
    )
    staged = [dict(stim(cycle)) for cycle in range(LEG_CYCLES)]

    compiled = CompiledSimulator(core.netlist, lanes, keep_nets=probes)
    native = NativeSimulator(
        core.netlist, lanes, keep_nets=probes, record_nets=probes
    )
    dense = native.expand_stimulus(lambda c: staged[c], LEG_CYCLES)

    compiled_trace, compiled_s = _best_of(
        lambda: compiled.run(
            lambda c: staged[c], LEG_CYCLES,
            record_nets=probes, record_cycles=LEG_RECORD,
        ),
        repeats,
    )
    native_trace, native_s = _best_of(
        lambda: native.run(
            dense, LEG_CYCLES,
            record_nets=probes, record_cycles=LEG_RECORD,
        ),
        repeats,
    )
    identical = _trace_words(compiled_trace) == _trace_words(native_trace)
    return {
        "lanes": lanes,
        "n_cycles": LEG_CYCLES,
        "record_cycles": len(LEG_RECORD),
        "n_probes": len(probes),
        "repeats": repeats,
        "compiled_seconds": round(compiled_s, 5),
        "native_seconds": round(native_s, 5),
        "speedup": round(compiled_s / native_s, 2),
        "bit_identical": identical,
    }


def bench_full_eval(
    core, harness, probes, lanes: int, repeats: int = 1,
    scheduled: bool = True,
) -> dict:
    """Whole periodic E11 evaluation under each engine; reports must match.

    ``scheduled=True`` is the production configuration (control-schedule
    cone slicing): the compiled leg runs the python ScheduledSimulator
    plus python extraction/histogramming, the native leg runs the
    scheduled-cone interpreter plus the in-kernel pipeline.
    ``scheduled=False`` compares the statically sliced path, where the
    engine registry picks the simulator.
    """
    n_words = (lanes + 63) // 64

    def run(engine: str):
        evaluator = PeriodicLeakageEvaluator(
            core.netlist,
            ENCRYPTION_CYCLES,
            ProbingModel.GLITCH,
            probe_nets=probes,
            slice_cones=True,
            control_schedule=(
                harness.control_net_schedule() if scheduled else None
            ),
            engine=engine,
        )
        stim_fixed = harness.bitsliced_stimulus(
            np.random.default_rng(11), n_words, KEY, KEY
        )
        stim_random = harness.bitsliced_stimulus(
            np.random.default_rng(12), n_words, KEY, None
        )
        start = time.perf_counter()
        report = evaluator.evaluate(
            stim_fixed,
            stim_random,
            lanes,
            phases=PHASES,
            n_periods=2,
            design_name="masked_aes_core_demeyer_eq6",
        )
        return evaluator, report, time.perf_counter() - start

    # Best-of-N like the engine legs: every repeat builds a fresh
    # evaluator, so the minimum is the steady-state cost with the
    # one-time kernel load amortized out (as a campaign amortizes it
    # across chunks).  Every repeat's report must still match.
    compiled_runs = [run("compiled") for _ in range(max(1, repeats))]
    native_runs = [run("native") for _ in range(max(1, repeats))]
    compiled_ev, compiled_report, compiled_s = min(
        compiled_runs, key=lambda item: item[2]
    )
    evaluator, native_report, native_s = min(
        native_runs, key=lambda item: item[2]
    )
    reference = compiled_report.to_dict()
    identical = all(
        item[1].to_dict() == reference
        for item in compiled_runs + native_runs
    )

    def stages(ev):
        return {
            name: round(seconds, 4)
            for name, seconds in ev.stage_seconds.items()
        }

    return {
        "lanes": lanes,
        "repeats": max(1, repeats),
        "mode": "scheduled" if scheduled else "static",
        "pipeline": bool(
            (evaluator.last_slice_info or {}).get("pipeline")
        ),
        "compiled_seconds": round(compiled_s, 3),
        "native_seconds": round(native_s, 3),
        "speedup": round(compiled_s / native_s, 2),
        "bit_identical": identical,
        "verdict": "PASS" if native_report.passed else "FAIL",
        "max_mlog10p": round(native_report.max_mlog10p, 2),
        "engine_used": (evaluator.last_slice_info or {}).get("engine"),
        "stage_seconds": {
            "compiled": stages(compiled_ev),
            "native": stages(evaluator),
        },
        "degradations": list(evaluator.degradations),
    }


def _print_stage_table(leg: dict) -> None:
    """Per-stage breakdown of a full_eval leg (regression attribution)."""
    stages = leg.get("stage_seconds", {})
    names = ("stimulus", "simulate", "extract", "histogram")
    print(f"      {'stage':<10} {'compiled':>9} {'native':>9}")
    for name in names:
        c = stages.get("compiled", {}).get(name, 0.0)
        n = stages.get("native", {}).get(name, 0.0)
        print(f"      {name:<10} {c:>8.3f}s {n:>8.3f}s")


def bench_threads(core, harness, probes, lanes: int, repeats: int) -> dict:
    """In-kernel thread scaling + threaded-native vs serial compiled."""
    n_words = (lanes + 63) // 64
    stim = harness.bitsliced_stimulus(
        np.random.default_rng(31), n_words, KEY, KEY
    )
    staged = [dict(stim(cycle)) for cycle in range(LEG_CYCLES)]
    cpu = os.cpu_count() or 1
    widths = sorted({1, min(4, max(2, cpu))})

    per_width = {}
    reference = None
    for width in widths:
        native = NativeSimulator(
            core.netlist, lanes, keep_nets=probes,
            record_nets=probes, n_threads=width,
        )
        dense = native.expand_stimulus(lambda c: staged[c], LEG_CYCLES)
        trace, seconds = _best_of(
            lambda: native.run(
                dense, LEG_CYCLES,
                record_nets=probes, record_cycles=LEG_RECORD,
            ),
            repeats,
        )
        words = _trace_words(trace)
        if reference is None:
            reference = words
        per_width[width] = {
            "seconds": round(seconds, 5),
            "bit_identical": words == reference,
        }

    compiled = CompiledSimulator(core.netlist, lanes, keep_nets=probes)
    _, compiled_s = _best_of(
        lambda: compiled.run(
            lambda c: staged[c], LEG_CYCLES,
            record_nets=probes, record_cycles=LEG_RECORD,
        ),
        repeats,
    )
    best_width = min(per_width, key=lambda w: per_width[w]["seconds"])
    best_s = per_width[best_width]["seconds"]
    return {
        "parallel_strategy": "in_kernel_threads",
        "cpu_count": cpu,
        "default_threads": native_default_threads(),
        "lanes": lanes,
        "per_threads": {str(w): v for w, v in per_width.items()},
        "best_threads": best_width,
        "serial_compiled_seconds": round(compiled_s, 5),
        "speedup_vs_serial_compiled": round(compiled_s / best_s, 2),
        "bit_identical": all(
            v["bit_identical"] for v in per_width.values()
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lanes", type=int, default=6_000,
                        help="Monte-Carlo lanes for the wide/threads legs")
    parser.add_argument("--full-eval-lanes", type=int, default=1_000,
                        help="lanes for the full-evaluation legs "
                             "(default matches a typical campaign chunk "
                             "block, where per-cycle python overhead -- "
                             "the cost the pipeline removes -- dominates "
                             "the compiled baseline)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per engine leg (best-of)")
    parser.add_argument("--require-speedup", type=float, default=0.0,
                        help="fail (exit 2) if the dispatch-leg "
                             "native speedup is below this")
    parser.add_argument("--require-full-eval-speedup", type=float,
                        default=0.0,
                        help="fail (exit 2) if the end-to-end full_eval "
                             "leg (static cone + in-kernel pipeline) "
                             "speedup is below this")
    parser.add_argument("--require-scheduled-speedup", type=float,
                        default=0.0,
                        help="fail (exit 2) if the scheduled-cone "
                             "full-evaluation leg (the path E11 runs) "
                             "speedup is below this")
    parser.add_argument("--out", default="BENCH_native.json")
    args = parser.parse_args(argv)

    reason = native_unavailable_reason()
    if reason is not None:
        print(f"SKIP: native engine unavailable ({reason})")
        return 0

    core, harness, probes = _setup()
    print(
        f"benchmark: masked_aes_core/demeyer_eq6, "
        f"{len(core.netlist.cells)} cells, {len(probes)} sb0 probes, "
        f"{os.cpu_count()} cpu(s)"
    )

    print("[1/5] engine dispatch leg (lanes=64, pre-staged stimulus)...")
    dispatch = bench_engine_leg(core, harness, probes, 64, args.repeats)
    print(
        f"      compiled {dispatch['compiled_seconds']}s vs native "
        f"{dispatch['native_seconds']}s -> {dispatch['speedup']}x "
        f"(bit_identical={dispatch['bit_identical']})"
    )

    print(f"[2/5] wide leg (lanes={args.lanes})...")
    wide = bench_engine_leg(
        core, harness, probes, args.lanes, max(2, args.repeats // 2)
    )
    print(
        f"      compiled {wide['compiled_seconds']}s vs native "
        f"{wide['native_seconds']}s -> {wide['speedup']}x "
        f"(bit_identical={wide['bit_identical']})"
    )

    print(
        f"[3/5] full periodic E11 evaluation, static cone + "
        f"in-kernel pipeline (lanes={args.full_eval_lanes})..."
    )
    full_repeats = max(2, args.repeats // 2)
    full = bench_full_eval(
        core, harness, probes, args.full_eval_lanes, full_repeats,
        scheduled=False,
    )
    print(
        f"      compiled {full['compiled_seconds']}s vs native "
        f"{full['native_seconds']}s -> {full['speedup']}x "
        f"(bit_identical={full['bit_identical']}, "
        f"engine={full['engine_used']}, pipeline={full['pipeline']})"
    )
    _print_stage_table(full)

    print(
        f"[4/5] full evaluation, scheduled cone + native scheduled "
        f"interpreter (lanes={args.full_eval_lanes})..."
    )
    full_sched = bench_full_eval(
        core, harness, probes, args.full_eval_lanes, full_repeats
    )
    print(
        f"      compiled {full_sched['compiled_seconds']}s vs native "
        f"{full_sched['native_seconds']}s -> "
        f"{full_sched['speedup']}x "
        f"(bit_identical={full_sched['bit_identical']}, "
        f"pipeline={full_sched['pipeline']})"
    )
    _print_stage_table(full_sched)

    print(f"[5/5] in-kernel threads (lanes={args.lanes})...")
    threads = bench_threads(
        core, harness, probes, args.lanes, max(2, args.repeats // 2)
    )
    print(
        f"      best {threads['best_threads']} thread(s) vs serial "
        f"compiled -> {threads['speedup_vs_serial_compiled']}x "
        f"(strategy={threads['parallel_strategy']})"
    )

    cache = native_kernel_cache_info()._asdict()
    record = {
        "benchmark": "native_fused_kernel",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "design": "masked_aes_core/demeyer_eq6",
        "probe_scope": "sb0.* cell outputs",
        "cpu_count": os.cpu_count(),
        "e11_dispatch": dispatch,
        "e11_wide": wide,
        "full_eval": full,
        "full_eval_scheduled": full_sched,
        "threads": threads,
        "kernel_cache": cache,
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")

    identical = (
        dispatch["bit_identical"]
        and wide["bit_identical"]
        and full["bit_identical"]
        and full_sched["bit_identical"]
        and threads["bit_identical"]
    )
    if not identical:
        print("FAIL: native and compiled engines disagree "
              "(correctness bug)", file=sys.stderr)
        return 1
    if dispatch["speedup"] < args.require_speedup:
        print(
            f"FAIL: dispatch-leg speedup {dispatch['speedup']}x below "
            f"required {args.require_speedup}x",
            file=sys.stderr,
        )
        return 2
    if full["speedup"] < args.require_full_eval_speedup:
        print(
            f"FAIL: full_eval speedup {full['speedup']}x below "
            f"required {args.require_full_eval_speedup}x",
            file=sys.stderr,
        )
        return 2
    if full_sched["speedup"] < args.require_scheduled_speedup:
        print(
            f"FAIL: scheduled full_eval speedup {full_sched['speedup']}x "
            f"below required {args.require_scheduled_speedup}x",
            file=sys.stderr,
        )
        return 2
    if threads["speedup_vs_serial_compiled"] <= 1.0:
        print(
            "FAIL: threaded native did not beat the serial compiled "
            "baseline",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
