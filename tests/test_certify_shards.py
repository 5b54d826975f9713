"""Sharded exact enumeration: bit-identity to the serial engine,
checkpoint/resume, cancellation, and hypothesis properties on random
masked netlists.
"""

import io
import json
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.errors import (
    CheckpointError,
    ExactAnalysisInfeasible,
    ServiceError,
    SimulationError,
)
from repro.leakage import exact, gtest, parallel
from repro.leakage.campaign import pack_checkpoint, unpack_checkpoint
from repro.leakage.certify import (
    MIN_SHARD_LANE_BITS,
    ShardedExactAnalyzer,
    ShardPlan,
    run_exact_analysis,
)
from repro.leakage.exact import ExactAnalyzer

from tests.strategies import masked_circuits


def _eq6_subset(min_bits=8, max_bits=14, limit=6):
    """A handful of mid-size eq6 probe classes (multi-shard, still fast)."""
    design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
    analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
    chosen = []
    for probe_class in analyzer.probe_classes:
        try:
            setup = analyzer.enumeration_setup(probe_class)
        except ExactAnalysisInfeasible:
            continue
        if min_bits <= setup.total_bits <= max_bits:
            chosen.append(probe_class)
        if len(chosen) >= limit:
            break
    assert len(chosen) >= 3
    return design, chosen


def _by_name(report):
    return {r.probe_names: r for r in report.results}


def _assert_identical(report_a, report_b):
    names_a, names_b = _by_name(report_a), _by_name(report_b)
    assert set(names_a) == set(names_b)
    for name, a in names_a.items():
        b = names_b[name]
        assert a.leaking == b.leaking, name
        assert a.tv_fixed_vs_random == b.tv_fixed_vs_random, name
        assert a.n_distinct_distributions == b.n_distinct_distributions, name


class TestShardedIdentity:
    def test_sharded_equals_serial(self):
        design, subset = _eq6_subset()
        serial = ExactAnalyzer(design.dut, max_enum_bits=23).analyze(
            probe_classes=subset
        )
        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset, workers=2)
        assert sharded.status == "complete"
        _assert_identical(serial, sharded)

    def test_identical_across_shard_sizes(self):
        design, subset = _eq6_subset()
        reports = [
            ShardedExactAnalyzer(
                design.dut, max_enum_bits=23, shard_lane_bits=bits
            ).analyze(probe_classes=subset)
            for bits in (7, 9, 12)
        ]
        _assert_identical(reports[0], reports[1])
        _assert_identical(reports[0], reports[2])

    def test_full_sweep_verdict(self):
        """The paper's eq6 verdict through the sharded front door."""
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        report = run_exact_analysis(
            design.dut, max_enum_bits=23, workers=4, shard_lane_bits=12
        )
        assert not report.passed
        assert sorted(r.probe_names for r in report.leaking_results) == [
            "g7.blind01",
            "g7.blind10",
            "g7.cross01",
            "g7.cross10",
            "g7.inner0",
            "g7.inner1",
        ]


class TestHooksAndCancellation:
    def test_hook_event_sequence(self):
        design, subset = _eq6_subset(limit=3)
        events = []
        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            hook=lambda event, payload: events.append((event, payload)),
        )
        kinds = [e for e, _ in events]
        assert kinds[0] == "certify_start"
        assert kinds[-1] == "certify_end"
        start = events[0][1]
        assert start["n_probe_classes"] == len(subset)
        assert start["n_shards"] == kinds.count("shard_done")
        done = [p for e, p in events if e == "shard_done"]
        assert done[-1]["done"] == done[-1]["total"]

    def test_should_stop_truncates(self):
        design, subset = _eq6_subset()
        merges = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 4,
        )
        assert report.status == "truncated:cancelled"
        assert len(report.results) < len(subset)


class TestCheckpointResume:
    def test_resume_completes_bit_identically(self, tmp_path):
        design, subset = _eq6_subset()
        path = str(tmp_path / "exact.ckpt")
        merges = []
        first = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 5,
        )
        assert first.status == "truncated:cancelled"
        assert os.path.exists(path)

        events = []
        resumed = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert resumed.status == "complete"
        assert events[0][1]["resumed_shards"] >= 5
        reference = ExactAnalyzer(design.dut, max_enum_bits=23).analyze(
            probe_classes=subset
        )
        _assert_identical(reference, resumed)

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        design, subset = _eq6_subset(limit=3)
        path = str(tmp_path / "exact.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"not a checkpoint container")
        events = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append(event),
        )
        assert report.status == "complete"
        assert "checkpoint_corrupt" in events
        assert os.path.exists(path + ".corrupt")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        design, subset = _eq6_subset()
        path = str(tmp_path / "exact.ckpt")
        merges = []
        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 2,
        )
        # different lane split => different shard semantics => refuse.
        with pytest.raises(CheckpointError):
            ShardedExactAnalyzer(
                design.dut, max_enum_bits=23, shard_lane_bits=9
            ).analyze(probe_classes=subset, checkpoint=path, resume=True)


class TestRandomNetlistProperties:
    """Hypothesis: sharded counts merge bit-identically to single-shot on
    random bounded-randomness netlists, for random shard splits."""

    @given(dut=masked_circuits(), shard_lane_bits=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_sharded_matches_serial(self, dut, shard_lane_bits):
        serial = ExactAnalyzer(dut, max_enum_bits=16).analyze()
        sharded = ShardedExactAnalyzer(
            dut, max_enum_bits=16, shard_lane_bits=shard_lane_bits
        ).analyze()
        assert sharded.status == "complete"
        _assert_identical(serial, sharded)

    @given(dut=masked_circuits(), shard_lane_bits=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_shard_plans_never_split_lane_words(self, dut, shard_lane_bits):
        analyzer = ExactAnalyzer(dut, max_enum_bits=16)
        for probe_class in analyzer.probe_classes:
            setup = analyzer.enumeration_setup(probe_class)
            plan = ShardPlan.plan(setup.total_bits, shard_lane_bits)
            assert plan.n_shards * plan.lanes_per_shard == 1 << setup.total_bits
            if plan.n_shards > 1:
                assert plan.lane_bits >= MIN_SHARD_LANE_BITS
                assert plan.lanes_per_shard % 64 == 0


# ------------------------------------------------- grouped counting and resume

_G7_LEAKS = {
    "g7.blind01",
    "g7.blind10",
    "g7.cross01",
    "g7.cross10",
    "g7.inner0",
    "g7.inner1",
}


def _reference_counts(keys, rows):
    """The sort-and-``np.add.at`` shard table the dense path replaced."""
    unique_keys, inverse = np.unique(
        keys.astype(np.uint64), return_inverse=True
    )
    occupied = np.unique(rows)
    counts = np.zeros((occupied.size, unique_keys.size), dtype=np.int64)
    if keys.size:
        np.add.at(counts, (np.searchsorted(occupied, rows), inverse), 1)
    return unique_keys, occupied, counts


def _assert_same_arrays(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _setup_groups(analyzer, classes=None):
    """Probe classes grouped by enumeration setup, in class order."""
    groups = {}
    for probe_class in analyzer.probe_classes if classes is None else classes:
        setup = analyzer.enumeration_setup(probe_class)
        groups.setdefault(setup.key, []).append(probe_class)
    return list(groups.values())


def _eq6_group(max_bits=12):
    """The first eq6 setup group with several classes and several shards."""
    design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
    analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
    feasible = []
    for probe_class in analyzer.probe_classes:
        try:
            setup = analyzer.enumeration_setup(probe_class)
        except ExactAnalysisInfeasible:
            continue
        if 8 <= setup.total_bits <= max_bits:
            feasible.append(probe_class)
    group = next(g for g in _setup_groups(analyzer, feasible) if len(g) >= 2)
    return design, group


def _write_container(path, meta_bytes, arrays):
    """A CRC-valid checkpoint container around arbitrary NPZ members."""
    buffer = io.BytesIO()
    np.savez(
        buffer, meta=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays
    )
    with open(path, "wb") as handle:
        handle.write(pack_checkpoint(buffer.getvalue()))


def _write_v1(path, state, fingerprint, drop=None):
    """The version-1 layout: one ``keys_<ci>``/``hist_<ci>`` pair per class."""
    meta = {
        "version": 1,
        "kind": "exact-shards",
        "fingerprint": fingerprint,
        "classes": {
            str(ci): {"done": sorted(entry["done"])}
            for ci, entry in state.items()
        },
    }
    arrays = {}
    for ci, entry in state.items():
        arrays[f"keys_{ci}"] = entry["keys"]
        arrays[f"hist_{ci}"] = entry["histogram"]
    arrays.pop(drop, None)
    _write_container(
        path, json.dumps(meta, sort_keys=True).encode("utf-8"), arrays
    )


def _partial_checkpoint(tmp_path, subset, stop_after=5):
    """A truncated sweep's checkpoint path and its loaded state."""
    path = str(tmp_path / "exact.ckpt")
    merges = []
    sharded = ShardedExactAnalyzer(
        subset[0].dut, max_enum_bits=23, shard_lane_bits=7
    )
    report = sharded.analyze(
        probe_classes=subset[1],
        checkpoint=path,
        hook=lambda event, payload: merges.append(event)
        if event == "shard_done"
        else None,
        should_stop=lambda: len(merges) >= stop_after,
    )
    assert report.status == "truncated:cancelled"
    fingerprint = sharded._fingerprint(0)
    return path, fingerprint, sharded._read_checkpoint(path, fingerprint)


class TestGroupedCounting:
    @given(
        dut=masked_circuits(),
        shard_lane_bits=st.integers(1, 12),
        dense=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_grouped_equals_per_class_equals_reference(
        self, dut, shard_lane_bits, dense
    ):
        analyzer = ExactAnalyzer(dut, max_enum_bits=16)
        real_count = exact._count_lanes
        checked = []

        def checked_count(keys, rows, width, n_secret_bits):
            result = real_count(keys, rows, width, n_secret_bits)
            _assert_same_arrays(result, _reference_counts(keys, rows))
            checked.append(width)
            return result

        # Dense is the default for these small classes; a limit of 1 forces
        # every class onto the wide (sorting) path.
        limit = 1 << 24 if dense else 1
        with mock.patch.object(gtest, "DENSE_KEY_LIMIT", limit), \
                mock.patch.object(exact, "_count_lanes", checked_count):
            for group in _setup_groups(analyzer):
                setup = analyzer.enumeration_setup(group[0])
                plan = ShardPlan.plan(setup.total_bits, shard_lane_bits)
                for si in range(plan.n_shards):
                    grouped = analyzer.count_shard(group, si, plan.lane_bits)
                    assert len(grouped) == len(group)
                    for probe_class, triple in zip(group, grouped):
                        [single] = analyzer.count_shard(
                            [probe_class], si, plan.lane_bits
                        )
                        _assert_same_arrays(triple, single)
        assert checked

    def test_one_simulation_per_setup_and_shard(self):
        design, group = _eq6_group()
        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        )
        plan = sharded.shard_plan(group[0])
        calls = []
        real = sharded.analyzer.count_shard

        def counting(classes, *args, **kwargs):
            calls.append(len(classes))
            return real(classes, *args, **kwargs)

        sharded.analyzer.count_shard = counting
        events = []
        report = sharded.analyze(
            probe_classes=group,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert report.status == "complete"
        assert calls == [len(group)] * plan.n_shards
        start = events[0][1]
        assert start["n_tasks"] == plan.n_shards
        assert start["n_shards"] == len(group) * plan.n_shards

    def test_finalize_rejects_lost_or_doubled_counts(self):
        design, group = _eq6_group()
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
        probe_class = group[0]
        setup = analyzer.enumeration_setup(probe_class)
        [(keys, rows, counts)] = analyzer.count_shard([probe_class])
        histogram = np.zeros((1 << setup.n_secret_bits, keys.size), np.int64)
        histogram[rows] = counts
        assert histogram.sum() == setup.n_valid_assignments
        analyzer.finalize(probe_class, setup, histogram)
        with pytest.raises(SimulationError):
            analyzer.finalize(probe_class, setup, 2 * histogram)
        lost = histogram.copy()
        lost[rows[0], 0] -= 1
        with pytest.raises(SimulationError):
            analyzer.finalize(probe_class, setup, lost)

    def test_doubled_merge_from_an_executor_is_an_error(self):
        design, group = _eq6_group()

        def doubling_dispatch(pending, merge, should_stop):
            analyzer = sharded.analyzer
            for class_indices, si, lane_bits in pending:
                counts = analyzer.count_shard(
                    [analyzer.probe_classes[ci] for ci in class_indices],
                    si,
                    lane_bits,
                )
                for ci, triple in zip(class_indices, counts):
                    merge(ci, si, *triple)
                    if si == 0:
                        merge(ci, si, *triple)
            return False

        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        )
        with pytest.raises(SimulationError):
            sharded.analyze(probe_classes=group, dispatch=doubling_dispatch)


_REAL_POOL_ITEM = parallel._run_in_pool


def _dying_pool_item(payload):
    """A pool item whose worker process dies on shard 1."""
    if payload["shard_index"] == 1:
        os._exit(1)
    return _REAL_POOL_ITEM(payload)


class TestPoolDeath:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the worker death is injected into forked workers",
    )
    def test_dead_pool_finishes_remaining_class_shards_serially(
        self, monkeypatch
    ):
        design, subset = _eq6_subset()
        monkeypatch.setattr(parallel, "_run_in_pool", _dying_pool_item)
        events = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            workers=2,
            hook=lambda event, payload: events.append((event, payload)),
        )
        monkeypatch.undo()
        assert "degradation" in [e for e, _ in events]
        merged = [
            (p["probe_class"], p["shard"])
            for e, p in events
            if e == "shard_done"
        ]
        assert len(merged) == len(set(merged)) == events[0][1]["n_shards"]
        fresh = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset)
        assert report.to_json(top=None) == fresh.to_json(top=None)


class _Killed(Exception):
    """Stands in for a SIGKILL right after a checkpoint save."""


class TestGroupedCheckpoints:
    def test_kill_between_two_classes_of_one_group(self, tmp_path):
        design, group = _eq6_group()
        path = str(tmp_path / "exact.ckpt")
        merged = []

        def killing_hook(event, payload):
            if event == "shard_done":
                merged.append((payload["probe_class"], payload["shard"]))
            if event == "checkpoint_saved":
                raise _Killed()

        with pytest.raises(_Killed):
            ShardedExactAnalyzer(
                design.dut,
                max_enum_bits=23,
                shard_lane_bits=7,
                checkpoint_every=1,
            ).analyze(probe_classes=group, checkpoint=path, hook=killing_hook)
        # The only save landed after the first class of the first group
        # task: its siblings on that shard were not merged yet.
        assert len(merged) == 1
        first_class, first_shard = merged[0]

        resumed_analyzer = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        )
        calls = []
        real = resumed_analyzer.analyzer.count_shard

        def recording(classes, shard_index=0, *args, **kwargs):
            calls.append((len(classes), shard_index))
            return real(classes, shard_index, *args, **kwargs)

        resumed_analyzer.analyzer.count_shard = recording
        events = []
        resumed = resumed_analyzer.analyze(
            probe_classes=group,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert "checkpoint_corrupt" not in [e for e, _ in events]
        assert events[0][1]["resumed_shards"] == 1
        assert calls[0] == (len(group) - 1, first_shard)
        assert all(n == len(group) for n, _ in calls[1:])
        redone = {
            (p["probe_class"], p["shard"])
            for e, p in events
            if e == "shard_done"
        }
        assert (first_class, first_shard) not in redone
        fresh = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=group)
        assert resumed.to_json(top=None) == fresh.to_json(top=None)

    def test_packed_layout_has_three_members(self, tmp_path):
        path, _, state = _partial_checkpoint(tmp_path, _eq6_subset())
        with open(path, "rb") as handle:
            payload = unpack_checkpoint(handle.read())
        with np.load(io.BytesIO(payload)) as data:
            assert sorted(data.files) == ["hist", "keys", "meta"]
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        assert meta["version"] == 2
        assert set(meta["classes"]) == {str(ci) for ci in state}

    def test_resume_from_version_1_layout(self, tmp_path):
        subset = _eq6_subset()
        path, fingerprint, state = _partial_checkpoint(tmp_path, subset)
        assert any(entry["done"] for entry in state.values())
        _write_v1(path, state, fingerprint)
        events = []
        resumed = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset[1],
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert "checkpoint_corrupt" not in [e for e, _ in events]
        assert events[0][1]["resumed_shards"] == sum(
            len(entry["done"]) for entry in state.values()
        )
        fresh = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset[1])
        assert resumed.to_json(top=None) == fresh.to_json(top=None)

    @pytest.mark.parametrize("version", [1, 2])
    def test_false_pass_checkpoint_quarantined(self, tmp_path, version):
        """Leaking classes marked done with empty histograms must not PASS."""
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        sharded = ShardedExactAnalyzer(design.dut, max_enum_bits=24)
        analyzer = sharded.analyzer
        netlist = design.dut.netlist
        state = {}
        for ci, probe_class in enumerate(analyzer.probe_classes):
            if probe_class.member_names(netlist) not in _G7_LEAKS:
                continue
            setup = analyzer.enumeration_setup(probe_class)
            state[ci] = {
                "done": set(range(sharded.shard_plan(probe_class).n_shards)),
                "keys": np.zeros(0, np.uint64),
                "histogram": np.zeros(
                    (1 << setup.n_secret_bits, 0), np.int64
                ),
            }
        assert len(state) == len(_G7_LEAKS)
        path = str(tmp_path / "exact.ckpt")
        fingerprint = sharded._fingerprint(0)
        if version == 1:
            _write_v1(path, state, fingerprint)
        else:
            sharded._save_checkpoint(path, state, fingerprint)
        events = []
        report = ShardedExactAnalyzer(design.dut, max_enum_bits=24).analyze(
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append(event),
        )
        assert "checkpoint_corrupt" in events
        assert os.path.exists(path + ".corrupt")
        assert not report.passed
        assert {r.probe_names for r in report.leaking_results} == _G7_LEAKS


def _corrupt(state, sharded, corruption):
    """Damage ``state`` in one way no checkpoint of this analysis shows."""
    plans = {
        ci: sharded.shard_plan(sharded.analyzer.probe_classes[ci])
        for ci in state
    }
    filled = next(e for e in state.values() if e["keys"].size >= 2)
    partial_ci = next(
        ci
        for ci, entry in state.items()
        if 0 < len(entry["done"]) < plans[ci].n_shards
    )
    partial = state[partial_ci]
    if corruption == "keys_not_ascending":
        filled["keys"] = filled["keys"][::-1].copy()
    elif corruption == "histogram_shape":
        filled["histogram"] = filled["histogram"][:-1]
    elif corruption == "negative_counts":
        filled["histogram"][0, 0] = -1
    elif corruption == "done_out_of_range":
        partial["done"].add(plans[partial_ci].n_shards)
    elif corruption == "unknown_class":
        state[len(sharded.analyzer.probe_classes)] = {
            "done": set(),
            "keys": np.zeros(0, np.uint64),
            "histogram": np.zeros((2, 0), np.int64),
        }
    else:  # a partial class holding more counts than its done shards
        partial["histogram"][0, 0] += 1


_CORRUPTIONS = (
    "keys_not_ascending",
    "histogram_shape",
    "negative_counts",
    "done_out_of_range",
    "unknown_class",
    "partial_total_too_large",
)


class TestCheckpointValidation:
    """Checkpoints this analysis cannot have written are quarantined and
    recomputed, in both layouts, never merged into a verdict."""

    def _resume_and_check(self, path, subset):
        events = []
        report = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset[1],
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append(event),
        )
        assert "checkpoint_corrupt" in events
        assert os.path.exists(path + ".corrupt")
        fresh = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset[1])
        assert report.to_json(top=None) == fresh.to_json(top=None)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("corruption", _CORRUPTIONS)
    def test_rejected(self, tmp_path, corruption, version):
        subset = _eq6_subset()
        path, fingerprint, state = _partial_checkpoint(tmp_path, subset)
        sharded = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        )
        _corrupt(state, sharded, corruption)
        if version == 1:
            _write_v1(path, state, fingerprint)
        else:
            sharded._save_checkpoint(path, state, fingerprint)
        self._resume_and_check(path, subset)

    def test_missing_member(self, tmp_path):
        subset = _eq6_subset()
        path, fingerprint, state = _partial_checkpoint(tmp_path, subset)
        _write_v1(path, state, fingerprint, drop=f"keys_{min(state)}")
        self._resume_and_check(path, subset)

    def test_bad_meta(self, tmp_path):
        subset = _eq6_subset()
        path, _, _ = _partial_checkpoint(tmp_path, subset)
        _write_container(
            path,
            b"{not json",
            {"keys": np.zeros(0, np.uint64), "hist": np.zeros(0, np.int64)},
        )
        self._resume_and_check(path, subset)

    def test_packed_sizes_must_match(self, tmp_path):
        subset = _eq6_subset()
        path, fingerprint, state = _partial_checkpoint(tmp_path, subset)
        sharded = ShardedExactAnalyzer(
            subset[0].dut, max_enum_bits=23, shard_lane_bits=7
        )
        sharded._save_checkpoint(path, state, fingerprint)
        with open(path, "rb") as handle:
            payload = unpack_checkpoint(handle.read())
        with np.load(io.BytesIO(payload)) as data:
            meta = bytes(data["meta"])
            keys = np.array(data["keys"])
            hist = np.array(data["hist"])
        _write_container(
            path, meta, {"keys": keys, "hist": np.append(hist, 0)}
        )
        self._resume_and_check(path, subset)

    def test_unknown_version_is_a_configuration_error(self, tmp_path):
        subset = _eq6_subset()
        path, fingerprint, _ = _partial_checkpoint(tmp_path, subset)
        meta = {"version": 3, "fingerprint": fingerprint, "classes": {}}
        _write_container(path, json.dumps(meta).encode("utf-8"), {})
        with pytest.raises(CheckpointError):
            ShardedExactAnalyzer(
                subset[0].dut, max_enum_bits=23, shard_lane_bits=7
            ).analyze(
                probe_classes=subset[1], checkpoint=path, resume=True
            )
        assert not os.path.exists(path + ".corrupt")


class TestFleetShardItem:
    def test_class_indices_item_round_trips(self):
        from repro.service.fleet import decode_arrays
        from repro.service.store import JobSpec
        from repro.service.worker import FleetWorker

        design, group = _eq6_group()
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
        indices = [analyzer.probe_classes.index(pc) for pc in group]
        plan = ShardPlan.plan(
            analyzer.enumeration_setup(group[0]).total_bits, 7
        )
        spec = JobSpec.from_dict(
            {
                "design": "kronecker",
                "scheme": "eq6",
                "mode": "exact",
                "max_enum_bits": 23,
                "shard_lane_bits": 7,
            }
        ).to_dict()
        body = FleetWorker(transport=None).execute_item(
            {
                "spec": spec,
                "work": {
                    "kind": "exact_shard",
                    "class_indices": indices,
                    "shard_index": 1,
                    "lane_bits": plan.lane_bits,
                },
            }
        )
        assert body["meta"] == {"class_indices": indices, "shard_index": 1}
        arrays = decode_arrays(body["npz"])
        assert len(arrays) == 3 * len(indices)
        expected = analyzer.count_shard(group, 1, plan.lane_bits)
        for ci, triple in zip(indices, expected):
            _assert_same_arrays(
                [arrays[f"{name}_{ci}"] for name in ("keys", "rows", "counts")],
                triple,
            )

    def test_incomplete_result_is_a_service_error(self):
        """A decodable result missing a listed class's counts fails the
        merge with a typed error instead of a bare ``KeyError``."""
        import threading
        import time

        from repro.leakage.parallel import exact_dispatch
        from repro.service.fleet import (
            FleetCoordinator,
            FleetRunner,
            encode_arrays,
        )
        from repro.service.store import JobSpec

        coord = FleetCoordinator(lease_seconds=5.0)
        coord.register_job(
            "jx", JobSpec.from_dict({"mode": "exact"}).to_dict()
        )

        def answer_badly():
            work = None
            while work is None:
                work = coord.lease("w1")
                time.sleep(0.01)
            arrays = {
                "keys_3": np.zeros(0, np.uint64),
                "rows_3": np.zeros(0, np.int64),
                "counts_3": np.zeros((0, 0), np.int64),
            }
            coord.complete(
                work["lease_id"], "w1", {"npz": encode_arrays(arrays)}
            )

        threading.Thread(target=answer_badly, daemon=True).start()
        merged = []
        with pytest.raises(ServiceError, match="no shard counts"):
            exact_dispatch(FleetRunner(coord, "jx"))(
                [((3, 5), 0, 6)], lambda *args: merged.append(args), None
            )
        assert merged == []
