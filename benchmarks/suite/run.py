"""Spec-to-verdict benchmark over the paper's workloads.

Run from the root of a checkout (``BENCHMARK.json`` defines the metrics)::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--engine E] [--out FILE]
    python3 benchmarks/suite/run.py --compare A.json B.json

``PYTHONPATH=src python -m benchmarks.suite.run`` is the same command.

Each workload runs in fresh subprocesses, one at a time:

* ``--trace 0`` (default) starts ``SETUP_RUNS`` fresh interpreters that
  each time launch -> first report of the first row at the setup budget
  (``setup_s``).  The last of them goes on to warm up the other rows at
  the setup budget and repeats the full workload until ``--seconds`` are
  used (``verdict_s``, ``peak_rss_mb``);
* ``--trace 1`` starts one interpreter that traces a warm-up, runs one
  untraced repetition and one traced repetition, and prints the
  per-layer table.

Every report is checked: the verdict against ``golden.json``, the bytes
against the other repetitions (and the untraced repetition), and at the
default seed the digest against ``golden.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a check failed, 2
on a usage error or an incomplete checkout.  ``--compare`` reads two
``--out`` files and exits 2 when a metric regressed beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SRC = os.path.join(ROOT, "src")

if __package__ in (None, ""):  # run as a script: resolve the package
    sys.path[0] = ROOT

from benchmarks.suite import spans  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters whose median launch-to-first-report is setup_s;
#: the timing interpreter is the last of them.
SETUP_RUNS = 3
#: Measured seconds per run when ``--seconds`` is not given.
DEFAULT_SECONDS = 10
#: Wall-clock budget of one whole run, across all of its subprocesses.
RUN_BUDGET_S = 170
#: Where traces and per-run scratch directories go (git-ignored).
OUTPUT_DIR = os.path.join(ROOT, ".bench_suite")


class ChildError(RuntimeError):
    """A benchmark subprocess failed or ran out of time."""


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- children


def _child(phase: str, args, workload: str, seed: int, scratch: str,
           deadline: float, extra=()) -> dict:
    """Run one phase in a fresh interpreter; returns its JSON result."""
    tmp = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = tmp
    # An empty kernel cache per interpreter: native builds count as setup.
    env["REPRO_NATIVE_CACHE"] = os.path.join(tmp, "native")
    command = [
        sys.executable, "-m", "benchmarks.suite.run", "--phase", phase,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), *extra,
    ]
    if args.engine:
        command += ["--engine", args.engine]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{phase} run of {workload} timed out") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{phase} run of {workload} exited {proc.returncode}"
        )
    result = json.loads(lines[-1])
    result["launched"] = launched
    return result


def _cache_counts() -> dict:
    from repro.netlist.compile import program_cache_info
    from repro.netlist.native import native_kernel_cache_info

    program = program_cache_info()
    kernel = native_kernel_cache_info()
    return {
        "program_hits": program.hits,
        "program_misses": program.misses,
        "kernel_hits": kernel.hits,
        "kernel_misses": kernel.misses,
        "kernel_builds": kernel.builds,
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _service_extras(plain, traced_out) -> dict:
    """Per-layer metrics the workload measures itself (0 if it has none)."""
    samples = plain.samples

    def stat(name, fn):
        return fn(samples[name]) if samples.get(name) else 0.0

    return {
        "service.queue.wait_s_p50": stat("queue_wait_s", statistics.median),
        "service.fleet.expired": stat("fleet_expired", sum),
        "submit_p50_ms": stat("submit_ms", lambda v: spans.percentile(v, .5)),
        "submit_p95_ms": stat("submit_ms",
                              lambda v: spans.percentile(v, .95)),
        "jobs_per_s": stat("jobs_per_s", statistics.median),
        "trace.overhead_ratio": traced_out.seconds / plain.seconds - 1.0,
    }


def _phase_main(args) -> int:
    """Body of a benchmark subprocess (``--phase``)."""
    import resource

    from benchmarks.suite.workloads import Context
    from repro.engines import DEFAULT_ENGINE

    workload = WORKLOADS[args.workload[0]]
    ctx = Context(
        tmp=tempfile.gettempdir(),
        seed=args.seed,
        engine=args.engine or DEFAULT_ENGINE,
    )
    result = {"engine": ctx.engine}
    first = workload.rows[:1]
    if args.phase == "setup":
        outcome = workload.run(ctx, setup=True, rows=first)
        result.update(ready_at=outcome.first_report_at, setup=[asdict(outcome)])
    elif args.phase == "timed":
        # The first row at the setup budget is this interpreter's setup_s
        # sample; the other rows complete the warm-up.
        setup = workload.run(ctx, setup=True, rows=first)
        rest = workload.rows[1:]
        warm = [asdict(workload.run(ctx, setup=True, rows=rest))] if rest else []
        reps = []
        start = time.monotonic()
        while not reps or time.monotonic() - start < args.seconds:
            reps.append(workload.run(ctx))
        result.update(
            ready_at=setup.first_report_at,
            setup=[asdict(setup)],
            warm=warm,
            reps=[asdict(rep) for rep in reps],
            peak_rss_mb=(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        )
    else:
        cold = spans.SpanRecorder(request="warm-up")
        before = _cache_counts()
        with spans.traced(cold):
            ctx.recorder = cold
            warm = workload.run(ctx, setup=True)
        cold_root = ctx.root
        cold_caches = _delta(_cache_counts(), before)
        ctx.recorder = None
        plain = workload.run(ctx)
        recorder = spans.SpanRecorder(request=1)
        before = _cache_counts()
        with spans.traced(recorder):
            ctx.recorder = recorder
            traced_out = workload.run(ctx)
        metrics = spans.layer_metrics(
            recorder, ctx.root, _delta(_cache_counts(), before),
            _service_extras(plain, traced_out),
        )
        with open(args.trace_file, "w") as handle:
            json.dump(spans.chrome_trace({
                "warm-up at the setup budget (cold caches)": cold.spans,
                "traced repetition": recorder.spans,
            }), handle)
        result.update(
            warm=[asdict(warm)],
            reps=[asdict(plain), asdict(traced_out)],
            metrics=metrics,
            layers=spans.layer_totals(recorder.spans),
            root=spans.self_times(recorder.spans)[ctx.root],
            root_s=metrics["trace.root_s"],
            cold_layers=spans.layer_totals(cold.spans),
            cold_root=spans.self_times(cold.spans)[cold_root],
            cold_root_s=next(
                s.end - s.start for s in cold.spans if s.id == cold_root
            ),
            cold_caches=cold_caches,
        )
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ checks


def _check(name: str, golden: dict, at_golden_seed: bool, stages: dict):
    """``(attempted, failures)`` over every outcome of one run.

    ``stages`` maps "setup"/"warm"/"reps" to outcome dicts.  Full-budget
    repetitions are checked against the expected verdict, each other's
    bytes and, at the golden seed, the golden digest; setup-budget
    reports must be byte-identical across interpreters.
    """
    expected = golden["workloads"][name]
    attempted = 0
    failures = []
    for outcome in [*stages.get("setup", []), *stages.get("warm", [])]:
        attempted += outcome["requests"]
        failures += outcome["failures"]
    setup = stages.get("setup", [])
    for outcome in setup:
        attempted += 1
        if outcome["reports"] != setup[0]["reports"] or not outcome["reports"]:
            failures.append("setup reports differ between interpreters")
    reps = stages.get("reps", [])
    for outcome in reps:
        attempted += outcome["requests"]
        failures += outcome["failures"]
        for row, want in expected.items():
            attempted += 1
            got = outcome["reports"].get(row)
            if got is None:
                failures.append(f"{row}: no report")
                continue
            if got["verdict"] != want["verdict"]:
                failures.append(
                    f"{row}: verdict {got['verdict']}, expected "
                    f"{want['verdict']} ({want['source']})"
                )
            first = reps[0]["reports"].get(row)
            if first is not None and got["sha256"] != first["sha256"]:
                failures.append(f"{row}: report bytes differ between runs")
            if at_golden_seed and got["sha256"] != want["sha256"]:
                failures.append(f"{row}: digest differs from golden.json")
    return attempted, failures


# -------------------------------------------------------------------- runs


def _run_workload(name: str, args, bench: dict, golden: dict,
                  scratch: str) -> dict:
    seeds = golden["seeds"]
    spec_seed = seeds[args.seed % len(seeds)]
    record = {
        "workload": name, "seed": args.seed, "spec_seed": spec_seed,
        "trace": args.trace, "seconds": args.seconds, "metrics": {},
    }
    deadline = time.monotonic() + RUN_BUDGET_S
    stages: dict = {}
    failures = []
    try:
        if args.trace:
            os.makedirs(OUTPUT_DIR, exist_ok=True)
            trace_file = os.path.join(
                OUTPUT_DIR, f"trace-{name}-seed{args.seed}.json"
            )
            result = _child("traced", args, name, spec_seed, scratch,
                            deadline, ["--trace-file", trace_file])
            record.update(
                trace_file=trace_file,
                **{key: result[key] for key in (
                    "layers", "root", "root_s", "cold_layers", "cold_root",
                    "cold_root_s", "cold_caches",
                )},
            )
            record["metrics"] = {
                metric["name"]: result["metrics"][metric["name"]]
                for metric in bench["per_layer"]
            }
        else:
            results = [
                _child("setup", args, name, spec_seed, scratch, deadline)
                for _ in range(SETUP_RUNS - 1)
            ]
            result = _child("timed", args, name, spec_seed, scratch,
                            deadline)
            results.append(result)
            setups = [r["ready_at"] - r["launched"] for r in results]
            stages["setup"] = [r["setup"][0] for r in results]
            record["metrics"] = _end_to_end(result, setups)
            record["info"] = _service_info(result["reps"])
        record["engine"] = result["engine"]
        stages["warm"] = result["warm"]
        stages["reps"] = result["reps"]
        record["rep_seconds"] = [rep["seconds"] for rep in result["reps"]]
        record["reports"] = result["reps"][0]["reports"]
    except ChildError as exc:
        failures.append(str(exc))
    attempted, found = _check(
        name, golden, spec_seed == seeds[0], stages
    )
    failures += found
    record.update(
        attempted=max(attempted, len(failures)),
        failed=len(failures),
        failures=failures,
    )
    return record


def _end_to_end(timed: dict, setups: list) -> dict:
    # A workload whose verdicts are not its repetitions (the service's
    # cold jobs) reports its own verdict_s samples.
    verdict = [
        value
        for rep in timed["reps"]
        for value in rep["samples"].get("verdict_s", [rep["seconds"]])
    ]
    return {
        "verdict_s": statistics.median(verdict),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def _service_info(reps: list) -> dict:
    """Service-only measurements printed beside the end-to-end metrics."""
    samples: dict = {}
    for rep in reps:
        for key, values in rep["samples"].items():
            samples.setdefault(key, []).extend(values)
    if not samples.get("submit_ms"):
        return {}
    return {
        "submit_p50_ms": spans.percentile(samples["submit_ms"], 0.5),
        "submit_p95_ms": spans.percentile(samples["submit_ms"], 0.95),
        "submit_samples": len(samples["submit_ms"]),
        "jobs_per_s": statistics.median(samples["jobs_per_s"]),
        "queue_wait_s_p50": statistics.median(samples["queue_wait_s"]),
    }


# ---------------------------------------------------------------- printing


def _print_layers(title: str, layers: dict, root_self: float,
                  root_s: float) -> None:
    print(f"  {title} (root {root_s:.3f} s)")
    print(f"    {'layer':<20} {'self_s':>9} {'share':>7} {'calls':>8}")
    for layer in spans.LAYERS:
        entry = layers.get(layer)
        if not entry:
            continue
        share = entry["self_s"] / root_s if root_s else 0.0
        print(f"    {layer:<20} {entry['self_s']:9.4f} {share:7.1%} "
              f"{entry['calls']:8d}")
    share = root_self / root_s if root_s else 0.0
    print(f"    {'(unattributed)':<20} {root_self:9.4f} {share:7.1%}")


def _print_record(record: dict, units: dict) -> None:
    print(
        f"{record['workload']}: seed {record['seed']} (spec seed "
        f"{record['spec_seed']}), engine {record.get('engine', '?')}, "
        f"{len(record.get('rep_seconds', []))} repetition(s) "
        f"{[round(s, 3) for s in record.get('rep_seconds', [])]}"
    )
    for name, value in record["metrics"].items():
        print(f"  {name:<34} {value:14.6g} {units.get(name, '')}")
    for name, value in record.get("info", {}).items():
        print(f"  {name:<34} {value:14.6g} (service only; per-layer list)")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0
    print(f"  {'failed_ratio':<34} {ratio:14.6g} fraction "
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if "layers" in record:
        _print_layers("traced repetition", record["layers"], record["root"],
                      record["root_s"])
        _print_layers("warm-up at the setup budget, cold caches",
                      record["cold_layers"], record["cold_root"],
                      record["cold_root_s"])
        print(f"    cache deltas in the warm-up: {record['cold_caches']}")
        print(f"  trace: {record['trace_file']}")


# ----------------------------------------------------------------- compare


def _quartiles(values: list):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base: list, new: list, bound: float, better: str) -> str:
    """better / within / worse / unresolved for two sets of runs.

    Unresolved: a side's quartile spread is wider than the bound and no
    run of one side beats every run of the other.  Worse: the median
    moved the wrong way by more than the bound.  Better: the median
    improved by more than the base runs' own quartile spread and every
    new run beats every base run.
    """
    b1, b2, b3 = _quartiles(base)
    n1, n2, n3 = _quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (n2 - b2) / b2
    wins = (max(new) < min(base)) if better == "lower" else (
        min(new) > max(base)
    )
    losses = (min(new) > max(base)) if better == "lower" else (
        max(new) < min(base)
    )
    spread = max((b3 - b1) / b2, (n3 - n1) / n2)
    if spread > bound and not (wins or losses):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and abs(n2 - b2) > (b3 - b1) and wins:
        return "better"
    return "within"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print one row per workload and metric; 2 if anything regressed."""
    runs_a = _load_json(path_a)["runs"]
    runs_b = _load_json(path_b)["runs"]
    regressed = False
    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'bound':>6}  verdict")
    for workload in sorted({run["workload"] for run in runs_a + runs_b}):
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = [r for r in runs_b if r["workload"] == workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in side_a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in side_b if name in r["metrics"]]
            if not va or not vb:
                continue
            verdict = judge(va, vb, metric["bound"], metric["better"])
            regressed |= verdict == "worse"
            side = [
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*_quartiles(values))
                for values in (va, vb)
            ]
            print(f"{workload:<16} {name:<14} {side[0]:>30} {side[1]:>30} "
                  f"{metric['bound']:>6.2f}  {verdict}")
        failed_a = sum(r["failed"] for r in side_a)
        failed_b = sum(r["failed"] for r in side_b)
        ratio_a = failed_a / max(1, sum(r["attempted"] for r in side_a))
        ratio_b = failed_b / max(1, sum(r["attempted"] for r in side_b))
        verdict = "worse" if ratio_b > ratio_a else "within"
        regressed |= verdict == "worse"
        print(f"{workload:<16} {'failed_ratio':<14} {ratio_a:>30.4g} "
              f"{ratio_b:>30.4g} {0:>6.2f}  {verdict}")
    return 2 if regressed else 0


# -------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Spec-to-verdict benchmark over the paper's workloads."
    )
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer traced run instead of timing")
    parser.add_argument("--engine", default=None,
                        help="simulation engine (attribution runs only; "
                             "default: the spec default)")
    parser.add_argument("--out", help="append the run records to this JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    parser.add_argument("--phase", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.phase:
        return _phase_main(args)
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        return compare(*args.compare, bench)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    golden = _load_json(os.path.join(SUITE, "golden.json"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)
    try:
        records = []
        for name in args.workload:
            record = _run_workload(name, args, bench, golden, scratch)
            _print_record(record, units)
            records.append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        existing = (
            _load_json(args.out)["runs"] if os.path.exists(args.out) else []
        )
        with open(args.out, "w") as handle:
            json.dump({"runs": existing + records}, handle, indent=1)
    single = len(records) == 1
    metrics = {
        (name if single else f"{record['workload']}.{name}"): {
            "value": value, "unit": units[name],
        }
        for record in records
        for name, value in record["metrics"].items()
    }
    failed = sum(record["failed"] for record in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
