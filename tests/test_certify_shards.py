"""Sharded exact enumeration: bit-identity to the serial engine,
checkpoint/resume, cancellation, and hypothesis properties on random
masked netlists.
"""

import hashlib
import io
import json
import multiprocessing
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.core.sbox import build_masked_sbox
from repro.errors import (
    CheckpointError,
    ExactAnalysisInfeasible,
    ServiceError,
    SimulationError,
    WorkItemError,
)
from repro.leakage import certify, exact, gtest, parallel
from repro.leakage.campaign import pack_checkpoint, unpack_checkpoint
from repro.leakage.certify import (
    MIN_SHARD_LANE_BITS,
    ShardedExactAnalyzer,
    ShardPlan,
    run_exact_analysis,
)
from repro.leakage.exact import ExactAnalyzer
from repro.leakage.model import ProbingModel
from repro.netlist.native import CountSpec, native_available
from repro.netlist.simulate import Trace, unpack_lanes

from tests.strategies import masked_circuits

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain for the native engine"
)


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


class TestOneRoute:
    """Every shard task runs as a checked work item, also at one worker,
    and only a stop while tasks remain truncates a sweep."""

    def test_dropped_class_on_one_worker_is_an_error(
        self, kronecker_full, monkeypatch
    ):
        """A shard counter that loses the last class of each multi-class
        task fails the item check on the default in-process route."""
        real = ExactAnalyzer.count_shard

        def dropping(self, probe_classes, *args, **kwargs):
            counts = real(self, probe_classes, *args, **kwargs)
            return counts[:-1] if len(counts) > 1 else counts

        monkeypatch.setattr(ExactAnalyzer, "count_shard", dropping)
        with pytest.raises(WorkItemError, match="no shard counts"):
            run_exact_analysis(kronecker_full.dut, max_enum_bits=24)

    def test_stop_after_the_last_task_keeps_the_sweep_complete(
        self, kronecker_eq6
    ):
        start, merges = {}, []

        def hook(event, payload):
            if event == "certify_start":
                start.update(payload)
            elif event == "shard_done":
                merges.append(payload)

        report = run_exact_analysis(
            kronecker_eq6.dut,
            max_enum_bits=12,
            hook=hook,
            should_stop=lambda: len(merges) == start["n_shards"],
        )
        assert len(merges) == start["n_shards"] == 82
        assert report.status == "complete"
        unstopped = run_exact_analysis(kronecker_eq6.dut, max_enum_bits=12)
        assert report.to_json(top=None) == unstopped.to_json(top=None)

    def test_campaign_stopped_after_its_last_chunk_is_complete(
        self, kronecker_eq6
    ):
        from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
        from repro.leakage.evaluator import LeakageEvaluator

        chunks = []
        report = EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6.dut),
            CampaignConfig(n_simulations=8_192, chunk_size=4_096),
            hook=lambda event, payload: chunks.append(payload)
            if event == "chunk_done"
            else None,
            should_stop=lambda: bool(chunks)
            and chunks[-1]["blocks_done"] == chunks[-1]["blocks_total"],
        ).run()
        assert len(chunks) == 2
        assert report.status == "complete"


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

    def test_torn_current_falls_back_to_prev_generation(
        self, tmp_path, monkeypatch
    ):
        """A torn current generation is quarantined and the sweep resumes
        from ``.prev``, as campaigns do, to the bytes of a fresh sweep."""
        design, subset = _eq6_subset()
        # Eight 128-lane class shards per generation: saves at merges 8,
        # 16 and 20.
        monkeypatch.setattr(certify, "CHECKPOINT_LANES", 8 * 128)
        path = str(tmp_path / "exact.ckpt")
        merges, saves = [], []

        def hook(event, payload):
            if event == "shard_done":
                merges.append(event)
            elif event == "checkpoint_saved":
                saves.append(event)

        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=hook,
            should_stop=lambda: len(merges) >= 20,
        )
        assert len(saves) >= 2
        assert os.path.exists(path + ".prev")
        with open(path, "wb") as handle:
            handle.write(b"RPCKPT01 torn mid-write")

        events = []
        resumed = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        kinds = [event for event, _ in events]
        assert kinds[:3] == [
            "checkpoint_corrupt",
            "checkpoint_fallback",
            "certify_start",
        ]
        corrupt, fallback, start = (payload for _, payload in events[:3])
        assert set(corrupt) == {"path", "quarantine", "error"}
        assert corrupt["quarantine"] == path + ".corrupt"
        assert os.path.exists(path + ".corrupt")
        assert fallback["generation"] == "prev"
        assert start["resumed_shards"] > 0
        fresh = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset)
        assert resumed.to_json(top=None) == fresh.to_json(top=None)

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


#: sha256 of the checkpoint file a ``_eq6_subset`` sweep at
#: ``shard_lane_bits=7`` leaves when stopped after 20 class-shard merges
#: (the stop save; a generation holds the same bytes whatever cadence
#: wrote it).  Recorded with ``np.savez`` writing the NPZ; the bytes must
#: not change.
EXACT_CHECKPOINT_DIGEST = (
    "d8ea537e20b48ab3c1765d9454d120f937bd9a3e2295452cfbf41b66a013e2f0"
)


class TestExactCheckpointFormat:
    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        design, subset = _eq6_subset()
        path = str(tmp_path / "exact.ckpt")
        merges = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 20,
        )
        assert report.status == "truncated:cancelled"
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == EXACT_CHECKPOINT_DIGEST


#: sha256 of exact report JSON (``to_json(top=None)``) the suite's golden
#: digests do not cover, recorded before counting moved to packed words:
#: Kronecker glitch+transition sweeps at an 18-bit budget (every class
#: the budget admits is enumerated; the g7 classes need 31 bits or
#: more), the serial single-shard path, and an S-box sweep whose classes
#: enumerate non-zero mask bytes (the Kronecker designs have none).
#: Reports do not depend on the shard size.
EXACT_REPORT_DIGESTS = {
    "eq6": "e42adbf307ea2a738d4b8a51bd4d2eb8e3cf84cb3af685446e5ef454154121d8",
    "eq9": "4e7d17dbac327d57ed4e3a8f9058570209bc4dc9ab809a2440f4032b28d44706",
    "serial-eq6": (
        "224f3e6498934402079ae6b1eae4c37ec02a26a0f6e2c80c8409598bf36c3e49"
    ),
    "sbox-eq6": (
        "4e0eaa6006f2557472d6f68808a6c7b1e7412f4cff2519a105eddf3667e1f304"
    ),
}


def _report_digest(report):
    return hashlib.sha256(report.to_json(top=None).encode()).hexdigest()


class TestExactReportPins:
    @pytest.mark.parametrize(
        "scheme, shard_lane_bits",
        [
            ("eq6", 16),
            ("eq6", 10),
            ("eq9", 16),
        ],
    )
    def test_glitch_transition_sweep_bytes(self, scheme, shard_lane_bits):
        design = build_kronecker_delta(
            RandomnessScheme.DEMEYER_EQ6
            if scheme == "eq6"
            else RandomnessScheme.PROPOSED_EQ9
        )
        report = run_exact_analysis(
            design.dut,
            ProbingModel.GLITCH_TRANSITION,
            max_enum_bits=18,
            shard_lane_bits=shard_lane_bits,
        )
        assert _report_digest(report) == EXACT_REPORT_DIGESTS[scheme]

    def test_serial_single_shard_bytes(self):
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        report = ExactAnalyzer(design.dut, max_enum_bits=16).analyze()
        assert _report_digest(report) == EXACT_REPORT_DIGESTS["serial-eq6"]

    def test_nonzero_byte_sweep_bytes(self):
        design = build_masked_sbox(RandomnessScheme.DEMEYER_EQ6)
        assert design.dut.nonzero_byte_buses
        report = run_exact_analysis(design.dut, max_enum_bits=14)
        assert _report_digest(report) == EXACT_REPORT_DIGESTS["sbox-eq6"]


class TestExactCheckpointEvents:
    """An exact sweep's checkpoint writes and reads reach its hook, as a
    sampled campaign's do."""

    def test_every_generation_emits_checkpoint_saved(
        self, tmp_path, monkeypatch
    ):
        """Stopped after 20 merges of 128-lane class shards, a sweep saving
        every 8 * 128 class-lanes writes generations at merges 8, 16 and
        20: the last one, after the task loop, too."""
        design, subset = _eq6_subset()
        monkeypatch.setattr(certify, "CHECKPOINT_LANES", 8 * 128)
        path = str(tmp_path / "exact.ckpt")
        merges, saves = [], []

        def hook(event, payload):
            if event == "shard_done":
                merges.append(payload)
            elif event == "checkpoint_saved":
                saves.append(payload)

        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=hook,
            should_stop=lambda: len(merges) >= 20,
        )
        assert len(merges) == 20
        assert saves == [{"path": path}] * 3

    def test_unwritable_checkpoint_retries_reach_the_hook(
        self, kronecker_eq6
    ):
        from repro.chaos import DEFAULT_RETRY
        from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
        from repro.leakage.evaluator import LeakageEvaluator

        path = "/no/such/dir/x.ckpt"

        def retries(run):
            events = []
            with pytest.raises(CheckpointError):
                run(lambda event, payload: events.append((event, payload)))
            return [p["site"] for event, p in events if event == "io_retry"]

        sampled = retries(lambda hook: EvaluationCampaign(
            LeakageEvaluator(kronecker_eq6.dut),
            CampaignConfig(n_simulations=4_096, checkpoint=path),
            hook=hook,
        ).run())
        exact_sweep = retries(lambda hook: run_exact_analysis(
            kronecker_eq6.dut, max_enum_bits=12, checkpoint=path, hook=hook
        ))
        assert exact_sweep == sampled == (
            ["checkpoint.write"] * (DEFAULT_RETRY.attempts - 1)
        )

    def test_unreadable_checkpoint_retries_reach_the_hook(
        self, kronecker_eq6, tmp_path
    ):
        from repro.chaos import DEFAULT_RETRY

        path = tmp_path / "x.ckpt"
        path.mkdir()  # opening it fails, as for an unreadable file
        events = []
        run_exact_analysis(
            kronecker_eq6.dut, max_enum_bits=12, checkpoint=str(path),
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert [
            (event, payload.get("site")) for event, payload in events
            if event in ("io_retry", "checkpoint_corrupt")
        ] == (
            [("io_retry", "checkpoint.read")] * (DEFAULT_RETRY.attempts - 1)
            + [("checkpoint_corrupt", None)]
        )


def _feasible_lanes(sharded):
    """``{class index: lanes per shard}`` of every feasible class, and the
    class-lanes a whole sweep merges."""
    lanes, total = {}, 0
    for ci, probe_class in enumerate(sharded.analyzer.probe_classes):
        try:
            plan = sharded.shard_plan(probe_class)
        except ExactAnalysisInfeasible:
            continue
        lanes[ci] = plan.lanes_per_shard
        total += plan.n_shards * plan.lanes_per_shard
    return lanes, total


class TestCheckpointCadence:
    """An exact sweep saves once the class shards merged since its last
    save hold ``CHECKPOINT_LANES`` lanes, on a stop and at the end."""

    @pytest.mark.parametrize("scheme, saves", [("eq6", 5), ("eq9", 18)])
    def test_kronecker_sweep_generations(
        self, request, tmp_path, scheme, saves
    ):
        """18.9M class-lanes for eq6 and 75.5M for eq9 at a 24-bit budget:
        a save each time 2^22 more have merged (4 for eq6, 18 for eq9),
        then an end save if lanes merged after the last one (eq6 only:
        eq9's 18th save lands on its final merge)."""
        design = request.getfixturevalue(f"kronecker_{scheme}")
        events = []
        report = run_exact_analysis(
            design.dut,
            max_enum_bits=24,
            shard_lane_bits=16,
            checkpoint=str(tmp_path / "exact.ckpt"),
            hook=lambda event, payload: events.append(event),
        )
        assert report.status == "complete"
        assert events.count("checkpoint_saved") == saves

    @pytest.mark.parametrize("lanes", [1, 1000, 1 << 22])
    def test_stopped_and_resumed_sweep_matches_an_uninterrupted_one(
        self, tmp_path, monkeypatch, lanes
    ):
        monkeypatch.setattr(certify, "CHECKPOINT_LANES", lanes)
        design, subset = _eq6_subset()

        def sweep(name, **kwargs):
            path = str(tmp_path / name)
            report = ShardedExactAnalyzer(
                design.dut, max_enum_bits=23, shard_lane_bits=7
            ).analyze(probe_classes=subset, checkpoint=path, **kwargs)
            with open(path, "rb") as handle:
                return report, handle.read()

        merges, events = [], []
        stopped, _ = sweep(
            "stopped.ckpt",
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 13,
        )
        assert stopped.status == "truncated:cancelled"
        resumed, resumed_bytes = sweep(
            "stopped.ckpt",
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        [start] = [p for event, p in events if event == "certify_start"]
        assert start["resumed_shards"] == len(merges)
        whole, whole_bytes = sweep("whole.ckpt")
        assert resumed.to_json(top=None) == whole.to_json(top=None)
        assert resumed_bytes == whole_bytes

    def test_torn_drill_sees_two_generations_before_half_the_work(
        self, kronecker_eq6, tmp_path
    ):
        """``kill_resume_smoke.py --torn-checkpoint`` kills its exact
        victim (eq6 at ``--shard-lane-bits 10``) once ``.prev`` exists.
        Two generations written before half of the sweep's class-lanes
        keep that drill from finding the sweep finished first."""
        sharded = ShardedExactAnalyzer(
            kronecker_eq6.dut, max_enum_bits=24, shard_lane_bits=10
        )
        lanes, total = _feasible_lanes(sharded)
        merged, saved_at = [0], []

        def hook(event, payload):
            if event == "shard_done":
                merged[0] += lanes[payload["probe_class"]]
            elif event == "checkpoint_saved":
                saved_at.append(merged[0])

        sharded.analyze(
            checkpoint=str(tmp_path / "exact.ckpt"),
            hook=hook,
            should_stop=lambda: 2 * merged[0] >= total,
        )
        assert len([at for at in saved_at if 2 * at < total]) >= 2


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


def _valid_lane_keys(trace, spec, k, u, shard_index, nonzero_rows):
    """``_observe`` keys and secret rows of a shard trace's valid lanes.

    Rows and validity come from each lane's global assignment index, not
    from the counter under test: the secret row is bits ``k..k+u-1``, and
    a lane is valid when every group of ``nonzero_rows`` (enumeration bit
    indices) has a bit set.
    """
    n_lanes = trace.n_lanes
    assignment = (shard_index << (n_lanes.bit_length() - 1)) + np.arange(
        n_lanes, dtype=np.int64
    )
    rows = (assignment >> k) & ((1 << u) - 1)
    valid = np.ones(n_lanes, dtype=bool)
    for group in nonzero_rows:
        valid &= np.any([(assignment >> i) & 1 for i in group], axis=0)
    return exact._observe(trace, spec)[valid], rows[valid]


def _nonzero_rows(setup):
    """Enumeration bit indices of each enumerated non-zero byte."""
    return [
        [
            setup.free_vars.index((("nonzero", bus_index, bit), age))
            for bit in range(8)
        ]
        for bus_index, age in setup.nonzero_groups
    ]


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
        real_trace = exact._count_trace
        checked = []
        traces = []

        def checked_count(keys, rows, width, n_secret_bits):
            result = real_count(keys, rows, width, n_secret_bits)
            _assert_same_arrays(result, _reference_counts(keys, rows))
            checked.append(width)
            return result

        def recording_trace(trace, *args):
            traces.append(trace)
            return real_trace(trace, *args)

        # Dense is the default for these small classes; a limit of 1 forces
        # every class onto the wide (sorting) path.  Dense classes count
        # from packed words unless their tree is wider than
        # PACKED_MAX_BITS, so every class is also checked against the
        # reference counts of its ``_observe`` keys on the shard's trace.
        limit = 1 << 24 if dense else 1
        n_triples = 0
        with mock.patch.object(gtest, "DENSE_KEY_LIMIT", limit), \
                mock.patch.object(exact, "_count_lanes", checked_count), \
                mock.patch.object(exact, "_count_trace", recording_trace):
            for group in _setup_groups(analyzer):
                setup = analyzer.enumeration_setup(group[0])
                plan = ShardPlan.plan(setup.total_bits, shard_lane_bits)
                for si in range(plan.n_shards):
                    traces.clear()
                    grouped = analyzer.count_shard(group, si, plan.lane_bits)
                    [trace] = traces
                    assert len(grouped) == len(group)
                    for probe_class, triple in zip(group, grouped):
                        spec = exact._count_spec(
                            probe_class, [setup.max_age], None
                        )
                        reference = _reference_counts(*_valid_lane_keys(
                            trace, spec, setup.n_free_bits,
                            setup.n_secret_bits, si, _nonzero_rows(setup),
                        ))
                        _assert_same_arrays(triple, reference)
                        n_triples += 1
                        [single] = analyzer.count_shard(
                            [probe_class], si, plan.lane_bits
                        )
                        _assert_same_arrays(triple, single)
        assert n_triples
        # The wide leg counts every class per lane.
        assert dense or len(checked) == 2 * n_triples

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

        class DoublingRunner:
            """Runs every item; hands each shard-0 result over twice."""

            def run(self, payloads, on_result, should_stop=None):
                for index, payload in enumerate(payloads):
                    result = parallel.execute_item(sharded.analyzer, payload)
                    on_result(index, result)
                    if payload["shard_index"] == 0:
                        on_result(index, result)
                return False

        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        )
        with pytest.raises(SimulationError):
            sharded.analyze(probe_classes=group, runner=DoublingRunner())


class TestSimulatorReuse:
    """A sweep's tasks arrive setup by setup, so the exact analyzer keeps
    its last shard simulator instead of building one per task."""

    @pytest.mark.parametrize(
        "engine", ["compiled", pytest.param("native", marks=needs_native)]
    )
    def test_one_build_per_setup_and_record_set(
        self, kronecker_eq6, monkeypatch, engine
    ):
        builds = []
        real = engines.build_simulator

        def counting(name, netlist, n_lanes, **kwargs):
            builds.append((n_lanes, tuple(kwargs["record_nets"])))
            return real(name, netlist, n_lanes, **kwargs)

        monkeypatch.setattr(engines, "build_simulator", counting)
        sharded = ShardedExactAnalyzer(
            kronecker_eq6.dut, max_enum_bits=14, shard_lane_bits=7,
            engine=engine,
        )
        serial = sharded.analyze()
        monkeypatch.undo()
        lanes, _ = _feasible_lanes(sharded)
        classes = sharded.analyzer.probe_classes
        groups = _setup_groups(sharded.analyzer, [classes[ci] for ci in lanes])
        assert any(
            sharded.shard_plan(group[0]).n_shards > 1 for group in groups
        )
        assert builds == [
            (
                sharded.shard_plan(group[0]).lanes_per_shard,
                tuple(sorted({net for pc in group for net in pc.support})),
            )
            for group in groups
        ]
        # The cached simulator (a compiled C kernel under native) stays
        # behind when the analyzer ships to pool workers.
        assert sharded.analyzer._simulator is not None
        restored = pickle.loads(pickle.dumps(sharded.analyzer))
        assert restored._simulator is None
        parallel_report = sharded.analyze(workers=2)
        assert parallel_report.to_json(top=None) == serial.to_json(top=None)


def _bincount_counts(keys, rows, width, u):
    """The dense ``(keys, rows, counts)`` triple by one ``np.bincount``."""
    cells = np.bincount(
        (rows << width) | keys.astype(np.int64), minlength=1 << (width + u)
    ).reshape(1 << u, 1 << width)
    occupied = np.flatnonzero(cells.any(axis=1))
    seen = np.flatnonzero(cells.any(axis=0))
    return seen.astype(np.uint64), occupied, cells[np.ix_(occupied, seen)]


class TestPackedCounts:
    """``exact._count_trace`` on random shard traces: packed trees (key
    widths up to ``PACKED_MAX_BITS``) and per-lane keys (wider) against
    an ``np.bincount`` of each valid lane's ``_observe`` key and row."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_bincount_oracle(self, data):
        k = data.draw(st.integers(0, 8), label="k")
        u = data.draw(st.integers(0, 8), label="u")
        assume(k + u >= 1)
        lane_bits = data.draw(st.integers(1, min(12, k + u)), label="lane_bits")
        last = (1 << (k + u - lane_bits)) - 1
        shard_index = data.draw(
            st.sampled_from([0, last // 2, last]), label="shard_index"
        )
        nonzero_rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, k - 1), min_size=1, max_size=8, unique=True
                ),
                max_size=2,
            )
            if k
            else st.just([]),
            label="nonzero_rows",
        )
        widths = data.draw(
            st.lists(
                st.integers(0, exact.PACKED_MAX_BITS + 3),
                min_size=1,
                max_size=4,
            ),
            label="widths",
        )
        pass_elements = data.draw(
            st.sampled_from([1 << 4, exact.PASS_ELEMENTS]),
            label="pass_elements",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        n_lanes = 1 << lane_bits
        sources = [(cycle, net) for cycle in range(2) for net in range(6)]
        trace = Trace(n_lanes, range(6))
        trace.values = [
            {
                net: rng.integers(
                    0, 2**64, (n_lanes + 63) // 64, dtype=np.uint64
                )
                for net in range(6)
            }
            for _ in range(2)
        ]
        specs = []
        for width in widths:
            picked = rng.permutation(len(sources))[:width]
            specs.append(CountSpec(
                (
                    tuple(
                        sources[i] + (position,)
                        for position, i in enumerate(picked)
                    ),
                ),
                False,
                1 << width,
            ))
        patterns = exact._shard_patterns(k + u, lane_bits, shard_index)
        with mock.patch.object(exact, "PASS_ELEMENTS", pass_elements):
            counted = exact._count_trace(
                trace, specs, patterns, nonzero_rows, k, u, shard_index
            )
        assert len(counted) == len(specs)
        for spec, width, triple in zip(specs, widths, counted):
            keys, rows = _valid_lane_keys(
                trace, spec, k, u, shard_index, nonzero_rows
            )
            _assert_same_arrays(triple, _bincount_counts(keys, rows, width, u))

    @pytest.mark.parametrize("lane_bits", [1, 5, 6, 9])
    def test_shard_patterns_are_assignment_bits(self, lane_bits):
        total_bits = 11
        for shard_index in (0, 5, (1 << (total_bits - lane_bits)) - 1):
            patterns = exact._shard_patterns(total_bits, lane_bits, shard_index)
            n_lanes = 1 << lane_bits
            assignment = (shard_index << lane_bits) + np.arange(n_lanes)
            for index in range(total_bits):
                np.testing.assert_array_equal(
                    unpack_lanes(patterns[index], n_lanes),
                    (assignment >> index) & 1,
                )


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
    def test_kill_between_two_classes_of_one_group(
        self, tmp_path, monkeypatch
    ):
        design, group = _eq6_group()
        path = str(tmp_path / "exact.ckpt")
        merged = []

        def killing_hook(event, payload):
            if event == "shard_done":
                merged.append((payload["probe_class"], payload["shard"]))
            if event == "checkpoint_saved":
                raise _Killed()

        monkeypatch.setattr(certify, "CHECKPOINT_LANES", 1)
        with pytest.raises(_Killed):
            ShardedExactAnalyzer(
                design.dut,
                max_enum_bits=23,
                shard_lane_bits=7,
            ).analyze(probe_classes=group, checkpoint=path, hook=killing_hook)
        monkeypatch.undo()
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
