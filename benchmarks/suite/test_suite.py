"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite``.
"""

import json
import os
import re
import sys
import tempfile
import threading

import pytest

from benchmarks.suite import run, spans
from benchmarks.suite.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(span_id, start, end, parent=None, name="a", thread=1):
    return spans.Span(span_id, name, "", start, end, parent, thread, None)


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class TestSelfTime:
    def test_nested_spans(self):
        trace = [
            _span(1, 0.0, 10.0, name="root"),
            _span(2, 1.0, 4.0, parent=1, name="a"),
            _span(3, 2.0, 3.0, parent=2, name="b"),
            _span(4, 5.0, 6.0, parent=1, name="b"),
        ]
        assert spans.self_times(trace) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
        totals = spans.layer_totals(trace)
        assert totals["b"] == {"self_s": 2.0, "calls": 2}
        # Self times partition the root's interval.
        assert sum(v["self_s"] for v in totals.values()) == 10.0

    def test_reentrant_layer_counts_one_call(self):
        trace = [
            _span(1, 0.0, 4.0, name="checkpoint"),
            _span(2, 1.0, 2.0, parent=1, name="checkpoint"),
        ]
        assert spans.layer_totals(trace)["checkpoint"] == {
            "self_s": 4.0, "calls": 1,
        }

    def test_cross_thread_children_cover_their_union(self):
        trace = [
            _span(1, 0.0, 10.0, name="root"),
            # Two adopted client threads overlap in [4, 6] and one runs
            # past the parent's end; coverage is the clipped union.
            _span(2, 1.0, 6.0, parent=1, thread=2),
            _span(3, 4.0, 12.0, parent=1, thread=3),
            # A program thread's span is its own root.
            _span(4, 0.0, 9.0, thread=4),
        ]
        selfs = spans.self_times(trace)
        assert selfs[1] == pytest.approx(1.0)
        assert selfs[2] == 5.0 and selfs[3] == 8.0 and selfs[4] == 9.0

    def test_recorder_parents_per_thread(self):
        recorder = spans.SpanRecorder(request="r")
        with recorder.span("root") as root:
            with recorder.span("a"):
                pass

            def client():
                recorder.adopt(root)
                recorder.set_request("job-1")
                with recorder.span("b"):
                    pass

            def program_thread():
                with recorder.span("c"):
                    pass

            for target in (client, program_thread):
                thread = threading.Thread(target=target)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
        by_name = {span.name: span for span in recorder.spans}
        assert by_name["a"].parent == root
        assert by_name["b"].parent == root
        assert by_name["b"].request == "job-1"
        assert by_name["c"].parent is None
        assert by_name["a"].request == "r"
        assert by_name["b"].thread != by_name["a"].thread


def _bindings():
    """Every repro module attribute and target-class attribute, by id."""
    import importlib

    snapshot = {}
    for target in spans.TARGETS:
        importlib.import_module(target.module)
    for module in spans._repro_modules():
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
    for target in spans.TARGETS:
        owner, attr, raw = spans._resolve(target)
        if isinstance(owner, type):
            snapshot[(owner, attr)] = raw
    return snapshot


class TestWrapping:
    def test_unwrap_restores_every_binding(self):
        before = _bindings()
        from repro.leakage import evaluator, probes

        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            assert probes.extract_probe_classes is not before[
                ("repro.leakage.probes", "extract_probe_classes")
            ]
            # The copy imported by name is rebound too.
            assert (
                evaluator.extract_probe_classes
                is probes.extract_probe_classes
            )
            assert hasattr(
                vars(evaluator.HistogramAccumulator)["add"], "__wrapped__"
            )
        after = _bindings()
        assert after.keys() == before.keys()
        changed = [key for key in before if after[key] is not before[key]]
        assert changed == []

    def test_wrapped_evaluation_is_byte_identical(self):
        from repro.spec import EvaluationSpec

        spec = EvaluationSpec(
            design="kronecker", scheme="eq6", n_simulations=4096, seed=3
        )

        def report_json():
            with tempfile.TemporaryDirectory() as directory:
                return WORKLOADS["e3_sbox"].report(
                    spec, os.path.join(directory, "job.ckpt")
                ).to_json(top=None)

        plain = report_json()
        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            wrapped = report_json()
        assert wrapped == plain
        layers = {span.name for span in recorder.spans}
        assert {
            "core", "leakage.probes", "engines", "simulate", "stimulus",
            "leakage.evaluator", "histogram", "leakage.gtest",
            "leakage.campaign", "checkpoint", "report",
        } <= layers
        assert recorder.counters["leakage.gtest.tables"] > 0


class TestMetricNames:
    def test_names_match_the_charset(self):
        bench = _bench()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"]]
        names += [m["name"] for m in bench["per_layer"]]
        assert all(NAME.match(name) for name in names), names
        assert len(names) == len(set(names))
        assert sorted(w["name"] for w in bench["workloads"]) == sorted(
            WORKLOADS
        )

    def test_traced_run_emits_exactly_the_per_layer_metrics(self):
        from benchmarks.suite.workloads import Outcome

        recorder = spans.SpanRecorder()
        with recorder.span("root") as root:
            pass
        caches = dict.fromkeys(
            ("program_hits", "program_misses", "kernel_hits",
             "kernel_misses", "kernel_builds"), 0,
        )
        outcome = Outcome(seconds=1.0)
        metrics = spans.layer_metrics(
            recorder, root, caches, run._service_extras(outcome, outcome)
        )
        expected = [m["name"] for m in _bench()["per_layer"]]
        assert sorted(metrics) == sorted(expected)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 401))
        assert spans.percentile(values, 0.95) == 380
        assert spans.percentile(values, 0.5) == 200
        assert spans.percentile([7.0], 0.95) == 7.0


class TestCompare:
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98]

    def test_within_bound(self):
        new = [v * 1.05 for v in self.BASE]
        assert run.judge(self.BASE, new, 0.1, "lower") == "within"

    def test_regression_beyond_bound(self):
        new = [v * 1.2 for v in self.BASE]
        assert run.judge(self.BASE, new, 0.1, "lower") == "worse"
        # For a higher-is-better metric the same move is a gain.
        assert run.judge(self.BASE, new, 0.1, "higher") == "better"

    def test_gain_needs_separated_runs(self):
        new = [v * 0.8 for v in self.BASE]
        assert run.judge(self.BASE, new, 0.1, "lower") == "better"
        overlapping = [0.95, 0.96, 0.97, 0.97, 0.99]
        assert run.judge(self.BASE, overlapping, 0.1, "lower") == "within"

    def test_wide_spread_without_separation_is_unresolved(self):
        noisy = [0.7, 1.3, 1.0, 0.8, 1.25]
        assert run.judge(self.BASE, noisy, 0.1, "lower") == "unresolved"
        # Separated runs resolve even when the spread is wide.
        far = [v + 1.0 for v in noisy]
        assert run.judge(self.BASE, far, 0.1, "lower") == "worse"

    def test_compare_exits_2_on_regression(self, tmp_path, capsys):
        bench = _bench()

        def write(name, factor, failed=0):
            runs = [
                {"workload": "e3_sbox", "attempted": 10, "failed": failed,
                 "metrics": {"verdict_s": v * factor, "setup_s": 1.0,
                             "peak_rss_mb": 100.0}}
                for v in self.BASE
            ]
            path = tmp_path / name
            path.write_text(json.dumps({"runs": runs}))
            return str(path)

        base = write("a.json", 1.0)
        assert run.compare(base, write("b.json", 1.02), bench) == 0
        assert run.compare(base, write("c.json", 1.3), bench) == 2
        assert run.compare(base, write("d.json", 1.0, failed=1), bench) == 2
        assert "verdict_s" in capsys.readouterr().out


def test_bare_checkout_exits_nonzero(tmp_path):
    """A directory holding only the benchmark refuses to run."""
    import shutil
    import subprocess

    suite = tmp_path / "benchmarks" / "suite"
    shutil.copytree(
        os.path.dirname(os.path.abspath(run.__file__)), suite,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "e3_sbox"],
        cwd=tmp_path, capture_output=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
