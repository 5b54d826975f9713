"""Span recorder and layer wrapping for the benchmark's traced runs.

A traced run replaces the public callables of each layer (the
:data:`TARGETS` table) with thin wrappers that record one span per call:
name (the layer), the wrapped function, start and end on the monotonic
``perf_counter`` clock, the parent span (the innermost open span of the
same thread, or the span a harness thread was started under) and a
request id (the repetition index, or the service job id).  Spans stay in
memory and are written as Chrome trace-event JSON when the run ends.

Wrapping rebinds every attribute of every loaded ``repro`` module that is
bound to a target function (``from x import f`` copies the binding), and
replaces methods on their defining class; :func:`traced` restores every
original binding on exit.  Code outside ``repro`` must therefore look
targets up at call time (import inside the function), or it keeps
calling the unwrapped original.

A span's *self time* is its duration minus the part of it its child
spans cover.  Children on the span's own thread nest inside it; children
adopted from other threads may overlap, so coverage is the length of the
union of the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

class Span(NamedTuple):
    """One finished call into a layer."""

    id: int
    name: str
    fn: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    request: object


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self, request: object = None):
        self.spans: List[Span] = []
        #: per-layer counts recorded at the layer boundary (see Target).
        self.counters: Counter = Counter()
        #: request id for threads that did not set their own.
        self.request = request
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str, fn: str = "") -> int:
        """Open a span on this thread; close it with :meth:`end`."""
        stack = self._stack()
        parent = stack[-1][0] if stack else getattr(self._local, "adopted", None)
        span_id = next(self._ids)
        stack.append((span_id, name, fn, parent, time.perf_counter()))
        return span_id

    def end(self) -> Span:
        """Close this thread's innermost open span."""
        end = time.perf_counter()
        span_id, name, fn, parent, start = self._stack().pop()
        span = Span(
            span_id, name, fn, start, end, parent, threading.get_ident(),
            getattr(self._local, "request", self.request),
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, fn: str = ""):
        """Record the enclosed block as one span; yields its id."""
        span_id = self.begin(name, fn)
        try:
            yield span_id
        finally:
            self.end()

    def adopt(self, parent: Optional[int]) -> None:
        """Parent this thread's outermost spans under ``parent``.

        For threads the benchmark itself starts (load-generator clients),
        so their spans count as children of the repetition's root span.
        """
        self._local.adopted = parent

    def set_request(self, request: object) -> None:
        """Request id for the spans this thread records from now on."""
        self._local.request = request


# ----------------------------------------------------------------- analysis


def _union_length(intervals: Iterable, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time and outermost call count.

    A call counts once even when the layer re-enters itself (a checkpoint
    save that packs, a G-test batch that tests one table): only spans
    whose parent belongs to another layer are counted.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += selfs[span.id]
        parent = by_id.get(span.parent)
        if parent is None or parent.name != span.name:
            entry["calls"] += 1
    return dict(totals)


def chrome_trace(groups: Dict[str, List[Span]]) -> Dict:
    """Chrome trace-event JSON; each group becomes one process lane."""
    events = []
    origin = min(
        (span.start for spans in groups.values() for span in spans),
        default=0.0,
    )
    for pid, (label, spans) in enumerate(groups.items(), start=1):
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": label}}
        )
        selfs = self_times(spans)
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "pid": pid,
                    "tid": span.thread,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "args": {
                        "fn": span.fn,
                        "request": str(span.request),
                        "self_us": round(selfs[span.id] * 1e6, 3),
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------------ targets


class Target(NamedTuple):
    """A public callable whose calls are one layer's spans.

    ``count(recorder, args, kwargs, result, nested)`` records the layer's
    work counts after a successful call; ``nested`` is true when the call
    ran inside another span of the same layer.
    """

    layer: str
    module: str
    qualname: str
    count: Optional[Callable] = None


def _count(name: str, value: Callable) -> Callable:
    def count(recorder, args, kwargs, result, nested):
        recorder.counters[name] += value(args, kwargs, result)
    return count


def _outer(name: str, value: Callable) -> Callable:
    def count(recorder, args, kwargs, result, nested):
        if not nested:
            recorder.counters[name] += value(args, kwargs, result)
    return count


def _count_degradations(recorder, args, kwargs, result, nested):
    requested = args[0] if args else kwargs.get("name")
    if result[1].name != requested:
        recorder.counters["engines.degradations"] += 1


def _count_store_read(recorder, args, kwargs, result, nested):
    recorder.counters["service.store.lookups"] += 1
    if result is not None:
        recorder.counters["service.store.hits"] += 1


def _note_running(recorder, args, kwargs, result, nested):
    # The runner marks a job running as it starts executing it on this
    # thread: later spans here belong to that job.
    if kwargs.get("state") == "running":
        recorder.set_request(args[1])


def _note_lease(recorder, args, kwargs, result, nested):
    if result is not None:
        recorder.counters["service.fleet.leases"] += 1
        recorder.set_request(result.get("job_id"))


def _histogram_keys(args, kwargs, result):
    return int(args[2].size) if hasattr(args[2], "size") else len(args[2])


def _lane_cycles(args, kwargs, result):
    return result.n_lanes * len(result.values)


def _one(args, kwargs, result):
    return 1


_N = "repro.netlist.native"
_EV = "repro.leakage.evaluator"
_GT = "repro.leakage.gtest"
_HIST = _outer("histogram.keys", _histogram_keys)

#: Every wrapped callable, in layer order.
TARGETS = (
    Target("core", "repro.service.runner", "build_design"),
    Target("core", "repro.core.aes_core", "build_masked_aes_core"),
    Target("core", "repro.core.aes_core",
           "AesCoreHarness.control_net_schedule"),
    Target("leakage.probes", "repro.leakage.probes", "extract_probe_classes",
           _count("leakage.probes.classes",
                  lambda a, k, r: len(r[0]))),
    Target("netlist.compile", "repro.netlist.compile", "compile_netlist"),
    Target("netlist.slice", "repro.netlist.slice", "sequential_cone"),
    Target("netlist.slice", "repro.netlist.slice", "scheduled_cone"),
    Target("netlist.slice", "repro.netlist.slice", "slice_program"),
    Target("netlist.slice", "repro.netlist.slice",
           "ScheduledSimulator.__init__"),
    Target("netlist.native", _N, "build_kernel"),
    Target("netlist.native", _N, "build_pipeline_kernel"),
    Target("netlist.native", _N, "NativeSimulator.__init__"),
    Target("netlist.native", _N, "NativeScheduledSimulator.__init__"),
    Target("engines", "repro.engines", "build_simulator",
           _count_degradations),
    Target("stimulus", "repro.leakage.traces", "StimulusGenerator.fixed"),
    Target("stimulus", "repro.leakage.traces", "StimulusGenerator.random"),
    Target("stimulus", "repro.core.aes_core",
           "AesCoreHarness.bitsliced_stimulus"),
    Target("stimulus", "repro.leakage.stimplan", "StimulusPlan.__call__"),
    Target("simulate", "repro.netlist.simulate", "BitslicedSimulator.run",
           _count("simulate.lane_cycles", _lane_cycles)),
    Target("simulate", "repro.netlist.compile", "CompiledSimulator.run",
           _count("simulate.lane_cycles", _lane_cycles)),
    Target("simulate", "repro.netlist.slice", "ScheduledSimulator.run",
           _count("simulate.lane_cycles", _lane_cycles)),
    Target("simulate", _N, "NativeSimulator.run",
           _count("simulate.lane_cycles", _lane_cycles)),
    Target("simulate", _N, "NativeScheduledSimulator.run",
           _count("simulate.lane_cycles", _lane_cycles)),
    Target("pipeline", _N, "NativeSimulator.run_pipeline"),
    Target("pipeline", _N, "NativeScheduledSimulator.run_pipeline"),
    Target("leakage.evaluator", _EV, "LeakageEvaluator.accumulate"),
    Target("leakage.evaluator", _EV, "LeakageEvaluator.evaluate"),
    Target("leakage.evaluator", "repro.leakage.periodic",
           "PeriodicLeakageEvaluator.evaluate"),
    # Key extraction of the periodic path runs inside g_test_batch, which
    # consumes it as a generator; without this span it would book as
    # G-test time.
    Target("leakage.evaluator", "repro.leakage.periodic",
           "PeriodicLeakageEvaluator._keys"),
    Target("histogram", _EV, "HistogramAccumulator.add", _HIST),
    Target("histogram", _EV, "HistogramAccumulator.add_counts",
           _outer("histogram.keys",
                  lambda a, k, r: int(a[2].sum()))),
    Target("histogram", _EV, "HistogramAccumulator.merge"),
    # The periodic path histograms raw keys inside g_test_batch.
    Target("histogram", _GT, "_histogram_counts",
           _outer("histogram.keys",
                  lambda a, k, r: int(a[0].size + a[1].size))),
    Target("leakage.gtest", _EV, "HistogramAccumulator.test",
           _outer("leakage.gtest.tables", _one)),
    Target("leakage.gtest", _GT, "g_test",
           _outer("leakage.gtest.tables", _one)),
    Target("leakage.gtest", _GT, "g_test_batch",
           _outer("leakage.gtest.tables", lambda a, k, r: len(r))),
    Target("leakage.gtest", _GT, "g_test_counts_batch",
           _outer("leakage.gtest.tables", lambda a, k, r: len(r))),
    Target("leakage.gtest", _GT, "g_test_from_counts",
           _outer("leakage.gtest.tables", _one)),
    Target("leakage.campaign", "repro.leakage.campaign",
           "EvaluationCampaign.run"),
    Target("checkpoint", "repro.leakage.campaign", "pack_checkpoint"),
    Target("checkpoint", "repro.leakage.campaign", "unpack_checkpoint"),
    # pack_checkpoint alone is the CRC framing; the save also serializes
    # the tables and fsyncs.
    Target("checkpoint", "repro.leakage.campaign",
           "EvaluationCampaign._save_checkpoint"),
    Target("checkpoint", "repro.leakage.certify",
           "ShardedExactAnalyzer._save_checkpoint"),
    Target("leakage.exact", "repro.leakage.exact",
           "ExactAnalyzer.enumeration_setup"),
    Target("leakage.exact", "repro.leakage.exact", "ExactAnalyzer.count_shard",
           _count("leakage.exact.shards", _one)),
    Target("leakage.exact", "repro.leakage.exact", "ExactAnalyzer.finalize"),
    Target("leakage.exact", "repro.leakage.certify",
           "ShardedExactAnalyzer.analyze"),
    Target("merge", "repro.leakage.certify", "merge_shard_counts"),
    Target("report", "repro.leakage.report", "LeakageReport.to_dict"),
    Target("report", "repro.leakage.report", "LeakageReport.to_json"),
    Target("report", "repro.leakage.exact", "ExactReport.to_dict"),
    Target("report", "repro.leakage.exact", "ExactReport.to_json"),
    Target("service.store", "repro.service.store", "JobStore.has_result"),
    Target("service.store", "repro.service.store", "JobStore.get_result",
           _count_store_read),
    Target("service.store", "repro.service.store", "JobStore.put_result"),
    Target("service.store", "repro.service.store", "JobStore.update_job",
           _note_running),
    Target("service.fleet", "repro.service.fleet",
           "FleetCoordinator.submit_items"),
    Target("service.fleet", "repro.service.fleet", "FleetCoordinator.lease",
           _note_lease),
    Target("service.fleet", "repro.service.fleet",
           "FleetCoordinator.complete"),
    # A runner thread blocked until leased blocks come back: waiting, not
    # coordinator work, so it is a layer of its own.
    Target("service.fleet.wait", "repro.service.fleet",
           "FleetCoordinator.wait"),
)

#: Layers in table order.  ``service.http`` spans come from the
#: benchmark's own load-generator client, not from a wrapped callable.
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS)) + ("service.http",)


def _resolve(target: Target):
    """``(owner, attribute, raw value)`` the target is defined as."""
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if attr not in vars(owner):
        raise AttributeError(
            f"{target.module}.{target.qualname} is not defined there"
        )
    return owner, attr, vars(owner)[attr]


def _wrap(recorder: SpanRecorder, target: Target, fn: Callable) -> Callable:
    layer = target.layer
    label = f"{target.module}.{target.qualname}"
    count = target.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nested = recorder.current_layer() == layer
        recorder.begin(layer, label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end()
        if count is not None:
            count(recorder, args, kwargs, result, nested)
        return result

    return wrapper


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(swap: Dict[int, tuple]) -> List[tuple]:
    """Rebind module attributes bound to ``swap``'s keys; returns undo list."""
    undo = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            entry = swap.get(id(value))
            if entry is not None and value is entry[0]:
                undo.append((module, attr, value))
                setattr(module, attr, entry[1])
    return undo


def wrap(recorder: SpanRecorder, targets=TARGETS) -> Callable[[], None]:
    """Install span wrappers; returns the function that removes them."""
    resolved = [(target, *_resolve(target)) for target in targets]
    bindings = []
    functions: Dict[int, tuple] = {}
    for target, owner, attr, raw in resolved:
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(_wrap(recorder, target, raw.__func__))
        else:
            replacement = _wrap(recorder, target, raw)
        bindings.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        if not isinstance(owner, type):
            functions[id(raw)] = (raw, replacement)
    # Module-level functions are also bound wherever they were imported
    # by name; rebind those copies too.
    bindings += _rebind(functions)

    def restore() -> None:
        for owner, attr, original in reversed(bindings):
            setattr(owner, attr, original)
        # A module imported while wrapped copied a wrapper by name.
        _rebind({id(new): (new, old) for old, new in functions.values()})

    return restore


@contextmanager
def traced(recorder: SpanRecorder, targets=TARGETS):
    """Wrap ``targets`` for the duration of the block."""
    restore = wrap(recorder, targets)
    try:
        yield recorder
    finally:
        restore()


# ------------------------------------------------------------------ metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    root_id: int,
    caches: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition.

    ``caches`` holds program/kernel cache counter deltas over the
    repetition; ``extra`` adds metrics the workload measured itself
    (service latencies, queue wait).
    """
    spans = recorder.spans
    totals = layer_totals(spans)
    selfs = self_times(spans)
    c = recorder.counters
    root = next(span for span in spans if span.id == root_id)

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return int(totals.get(layer, {}).get("calls", 0))

    lane_cycles = c["simulate.lane_cycles"]
    blocks = calls("simulate") + calls("pipeline")
    metrics = {
        "core.self_s": self_s("core"),
        "core.calls": calls("core"),
        "leakage.probes.self_s": self_s("leakage.probes"),
        "leakage.probes.classes": c["leakage.probes.classes"],
        "netlist.compile.self_s": self_s("netlist.compile"),
        "netlist.compile.calls": calls("netlist.compile"),
        "netlist.compile.cache_hit_ratio": _ratio(
            caches["program_hits"],
            caches["program_hits"] + caches["program_misses"],
        ),
        "netlist.slice.self_s": self_s("netlist.slice"),
        "netlist.slice.calls": calls("netlist.slice"),
        "netlist.native.self_s": self_s("netlist.native"),
        "netlist.native.cc_builds": caches["kernel_builds"],
        "netlist.native.cache_hit_ratio": _ratio(
            caches["kernel_hits"],
            caches["kernel_hits"] + caches["kernel_misses"],
        ),
        "engines.self_s": self_s("engines"),
        "engines.calls": calls("engines"),
        "engines.degradations": c["engines.degradations"],
        "stimulus.self_s": self_s("stimulus"),
        "stimulus.calls": calls("stimulus"),
        "simulate.self_s": self_s("simulate"),
        "simulate.calls": calls("simulate"),
        "simulate.lane_cycles": lane_cycles,
        "simulate.ns_per_lane_cycle": _ratio(
            self_s("simulate") * 1e9, lane_cycles
        ),
        "pipeline.self_s": self_s("pipeline"),
        "pipeline.calls": calls("pipeline"),
        "pipeline.block_share": _ratio(calls("pipeline"), blocks),
        "leakage.evaluator.self_s": self_s("leakage.evaluator"),
        "histogram.self_s": self_s("histogram"),
        "histogram.calls": calls("histogram"),
        "histogram.keys": c["histogram.keys"],
        "leakage.gtest.self_s": self_s("leakage.gtest"),
        "leakage.gtest.tables": c["leakage.gtest.tables"],
        "leakage.campaign.self_s": self_s("leakage.campaign"),
        "checkpoint.self_s": self_s("checkpoint"),
        "checkpoint.calls": calls("checkpoint"),
        "leakage.exact.self_s": self_s("leakage.exact"),
        "leakage.exact.shards": c["leakage.exact.shards"],
        "merge.self_s": self_s("merge"),
        "report.self_s": self_s("report"),
        "service.http.self_s": self_s("service.http"),
        "service.http.requests": calls("service.http"),
        "service.store.self_s": self_s("service.store"),
        "service.store.calls": calls("service.store"),
        "service.store.hit_ratio": _ratio(
            c["service.store.hits"], c["service.store.lookups"]
        ),
        "service.fleet.self_s": self_s("service.fleet"),
        "service.fleet.leases": c["service.fleet.leases"],
        "service.fleet.wait_s": self_s("service.fleet.wait"),
        "trace.root_s": root.end - root.start,
        "trace.unattributed_s": selfs[root.id],
        "trace.spans": len(spans),
    }
    metrics.update(extra)
    return metrics


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]
