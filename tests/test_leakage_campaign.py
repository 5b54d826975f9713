"""Tests for chunked, checkpointable evaluation campaigns."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    CheckpointError,
    SimulationError,
)
from repro.leakage.campaign import (
    CampaignConfig,
    EvaluationCampaign,
    pack_checkpoint,
    run_campaign,
    unpack_checkpoint,
)
from repro.leakage import evaluator as evaluator_module
from repro.leakage import parallel
from repro.leakage.adaptive import AdaptiveConfig
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.model import ProbingModel

N_SIMS = 20_000


def _evaluator(design, seed=7):
    return LeakageEvaluator(design.dut, ProbingModel.GLITCH, seed=seed)


def _assert_identical(report_a, report_b):
    assert len(report_a.results) == len(report_b.results)
    for a, b in zip(report_a.results, report_b.results):
        assert a.probe_names == b.probe_names
        assert a.g_statistic == b.g_statistic
        assert a.dof == b.dof
        assert a.mlog10p == b.mlog10p


class TestChunkedIdentity:
    def test_chunked_equals_single_pass(self, kronecker_eq6):
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=5_000),
        )
        chunked = campaign.run()
        assert chunked.status == "complete"
        assert campaign.progress.chunks_done > 1
        _assert_identical(single, chunked)

    def test_tables_identical_across_chunkings(self, kronecker_eq6):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=5_000),
        )
        campaign.run()
        reference = HistogramAccumulator()
        evaluator = _evaluator(kronecker_eq6)
        evaluator.accumulate(
            reference, 0, evaluator.n_lanes_for(N_SIMS, 1), 1
        )
        for table_id in reference.table_ids():
            keys_a, fixed_a, random_a = campaign.accumulator.counts(table_id)
            keys_b, fixed_b, random_b = reference.counts(table_id)
            assert np.array_equal(keys_a, keys_b)
            assert np.array_equal(fixed_a, fixed_b)
            assert np.array_equal(random_a, random_b)

    def test_pairs_mode_matches_evaluate_pairs(self, kronecker_full):
        single = _evaluator(kronecker_full).evaluate_pairs(
            n_simulations=5_000, max_pairs=30
        )
        chunked = run_campaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=5_000,
                chunk_size=4_096,
                mode="pairs",
                max_pairs=30,
            ),
        )
        _assert_identical(single, chunked)

    def test_run_campaign_wrapper(self, kronecker_full):
        report = run_campaign(
            _evaluator(kronecker_full), CampaignConfig(n_simulations=5_000)
        )
        assert report.status == "complete"
        assert report.passed


def _to_version_1(meta, arrays):
    """Rewrite packed checkpoint members into the version-1 layout."""
    keys = arrays.pop("keys")
    counts = arrays.pop("counts")
    ends = np.cumsum(arrays.pop("n_keys"))
    for i, (start, end) in enumerate(zip(ends - np.diff(ends, prepend=0), ends)):
        arrays[f"t{i}_keys"] = keys[start:end]
        arrays[f"t{i}_counts"] = counts[:, start:end]
    meta["version"] = 1


class TestCheckpointResume:
    def _partial_checkpoint(self, design, path, blocks):
        """Run only the first ``blocks`` blocks and checkpoint there."""
        campaign = EvaluationCampaign(
            _evaluator(design),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, checkpoint=path
            ),
        )
        campaign.progress.blocks_total = campaign._blocks_total()
        campaign._run_chunk_with_retry(0, blocks)
        campaign.progress.blocks_done = blocks
        campaign._save_checkpoint(path, blocks)
        return campaign

    def test_resume_midway_reaches_identical_verdict(
        self, kronecker_eq6, tmp_path
    ):
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=2)
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert report.status == "complete"
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_resume_without_checkpoint_starts_fresh(
        self, kronecker_full, tmp_path
    ):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=5_000,
                checkpoint=str(tmp_path / "missing.npz"),
            ),
        )
        report = campaign.run(resume=True)
        assert campaign.progress.resumed_from_block == 0
        assert report.status == "complete"

    def test_fingerprint_mismatch_rejected(self, kronecker_eq6, tmp_path):
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=1)
        other_seed = EvaluationCampaign(
            _evaluator(kronecker_eq6, seed=99),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
        )
        with pytest.raises(CheckpointError):
            other_seed.run(resume=True)

    def test_corrupt_checkpoint_quarantined_and_restarted(
        self, kronecker_eq6, tmp_path
    ):
        """A rotten checkpoint is quarantined, never trusted: the campaign
        restarts from block 0 and reaches the identical clean verdict."""
        path = str(tmp_path / "ck.npz")
        with open(path, "wb") as handle:
            handle.write(b"not an npz file")
        events = []
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
            hook=lambda event, payload: events.append((event, payload)),
        )
        report = campaign.run(resume=True)
        assert campaign.progress.resumed_from_block == 0
        assert report.status == "complete"
        assert os.path.exists(path + ".corrupt")
        names = [event for event, _ in events]
        assert "checkpoint_corrupt" in names
        assert "checkpoint_fallback" in names
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_corrupt_current_falls_back_to_prev_generation(
        self, kronecker_eq6, tmp_path
    ):
        """Torn current generation -> resume from ``.prev``, bit-identical."""
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=2)
        os.replace(path, path + ".prev")
        with open(path, "wb") as handle:
            handle.write(b"RPCKPT01 torn mid-write")
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert os.path.exists(path + ".corrupt")
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def _rewrite_current(self, path, edit):
        """Apply ``edit`` to the current generation's NPZ members (a
        dict of name -> array, the meta JSON decoded) and write it back
        in a valid CRC container."""
        with open(path, "rb") as handle:
            payload = unpack_checkpoint(handle.read(), path)
        with np.load(io.BytesIO(payload)) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
        edit(meta, arrays)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8),
            **arrays,
        )
        with open(path, "wb") as handle:
            handle.write(pack_checkpoint(buffer.getvalue()))

    def _two_generations(self, design, path):
        """Checkpoints after block 1 (``.prev``) and block 2 (current)."""
        campaign = self._partial_checkpoint(design, path, blocks=1)
        campaign._run_chunk_with_retry(1, 2)
        campaign._save_checkpoint(path, 2)  # block 1 rotates to .prev

    def _resume_from_prev(self, design, path):
        resumed = EvaluationCampaign(
            _evaluator(design),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 1
        assert os.path.exists(path + ".corrupt")
        single = _evaluator(design).evaluate(n_simulations=N_SIMS)
        assert report.to_json(top=None) == single.to_json(top=None)

    def test_malformed_tables_fall_back_to_prev_generation(
        self, kronecker_eq6, tmp_path
    ):
        """A CRC-valid checkpoint whose packed counts lost a column is
        corrupt: resume quarantines it and continues from ``.prev``."""
        path = str(tmp_path / "ck.npz")
        self._two_generations(kronecker_eq6, path)

        def drop_column(meta, arrays):
            assert meta["version"] == 2
            arrays["counts"] = arrays["counts"][:, :-1]

        self._rewrite_current(path, drop_column)
        self._resume_from_prev(kronecker_eq6, path)

    def test_block_short_of_next_block_falls_back_to_prev_generation(
        self, kronecker_eq6, tmp_path
    ):
        """A CRC-valid checkpoint whose well-formed tables hold one block
        fewer than its ``next_block`` claims is corrupt: resuming from it
        would report the full budget over a missing block."""
        path = str(tmp_path / "ck.npz")
        self._two_generations(kronecker_eq6, path)

        def claim_one_more_block(meta, arrays):
            meta["next_block"] += 1

        self._rewrite_current(path, claim_one_more_block)
        self._resume_from_prev(kronecker_eq6, path)

    def test_adaptive_split_pair_offsets_resume_in_place(
        self, kronecker_eq6, tmp_path
    ):
        """A pair keeps counting every offset while any one is undecided,
        so a decided offset's table outgrows its ``n_samples``; the totals
        check expects the pair's most sampled offset and resumes there."""
        path = str(tmp_path / "ck.npz")

        def campaign(hook=None):
            return EvaluationCampaign(
                LeakageEvaluator(
                    kronecker_eq6.dut, ProbingModel.GLITCH, seed=3
                ),
                CampaignConfig(
                    n_simulations=40_000,
                    chunk_size=4_096,
                    checkpoint=path,
                    mode="both",
                    max_pairs=30,
                    pair_offsets=(0, 1),
                    adaptive=AdaptiveConfig(
                        decide_chunks=1,
                        min_null_samples=4_096,
                        max_budget_factor=1.5,
                    ),
                ),
                hook=hook,
            )

        first = campaign()
        golden = first.run().to_json(top=None)
        states = first.scheduler.states()
        assert any(
            states[f"p{i}:{j}:0"].n_samples != states[f"p{i}:{j}:1"].n_samples
            for i, j in first.scheduler.pairs
        )
        events = []
        resumed = campaign(hook=lambda event, payload: events.append(event))
        report = resumed.run(resume=True)
        blocks_done = first.progress.blocks_done
        assert resumed.progress.resumed_from_block == blocks_done
        assert "checkpoint_corrupt" not in events
        assert report.to_json(top=None) == golden

    def test_malformed_v1_tables_fall_back_to_prev_generation(
        self, kronecker_eq6, tmp_path
    ):
        """The same for a version-1 checkpoint whose first table lost a
        count column."""
        path = str(tmp_path / "ck.npz")
        self._two_generations(kronecker_eq6, path)

        def drop_column(meta, arrays):
            _to_version_1(meta, arrays)
            arrays["t0_counts"] = arrays["t0_counts"][:, :-1]

        self._rewrite_current(path, drop_column)
        self._resume_from_prev(kronecker_eq6, path)

    @pytest.mark.parametrize(
        "corruption",
        [
            "size_mismatch",
            "negative_n_keys",
            "counts_shape",
            "keys_not_ascending",
            "missing_member",
        ],
    )
    def test_packed_corruption_falls_back_to_prev_generation(
        self, kronecker_eq6, tmp_path, corruption
    ):
        """Every malformed packed layout is CheckpointCorrupt: quarantined,
        with a bit-identical resume from ``.prev``."""
        path = str(tmp_path / "ck.npz")
        self._two_generations(kronecker_eq6, path)

        def corrupt(meta, arrays):
            n_keys = arrays["n_keys"]
            if corruption == "size_mismatch":
                n_keys[-1] += 1
            elif corruption == "negative_n_keys":
                n_keys[0], n_keys[1] = -1, n_keys[1] + n_keys[0] + 1
            elif corruption == "counts_shape":
                arrays["counts"] = arrays["counts"].reshape(1, -1)
            elif corruption == "keys_not_ascending":
                start = int(np.argmax(n_keys >= 2))
                first = int(n_keys[:start].sum())
                keys = arrays["keys"]
                keys[first], keys[first + 1] = keys[first + 1], keys[first]
            else:
                del arrays["keys"]

        self._rewrite_current(path, corrupt)
        loader = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
        )
        with pytest.raises(CheckpointCorrupt):
            loader._load_checkpoint(path)
        self._resume_from_prev(kronecker_eq6, path)

    def test_version_1_checkpoint_resumes_byte_identical(
        self, kronecker_eq6, tmp_path
    ):
        """A checkpoint in the version-1 layout (two NPZ members per
        table) resumes to the report bytes of a fresh run."""
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=2)
        self._rewrite_current(path, _to_version_1)
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert not os.path.exists(path + ".corrupt")
        fresh = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=8_192),
        ).run()
        assert report.to_json(top=None) == fresh.to_json(top=None)
        # The resumed campaign rewrote its checkpoint in the new layout.
        with open(path, "rb") as handle:
            payload = unpack_checkpoint(handle.read(), path)
        with np.load(io.BytesIO(payload)) as data:
            assert sorted(data.files) == ["counts", "keys", "meta", "n_keys"]

    def test_kill_and_resume_subprocess(self, kronecker_eq6, tmp_path):
        """SIGKILL a campaign mid-run; the resume completes from disk."""
        path = str(tmp_path / "ck.npz")
        child_code = (
            "from repro.core.kronecker import build_kronecker_delta\n"
            "from repro.core.optimizations import RandomnessScheme\n"
            "from repro.leakage.campaign import CampaignConfig, "
            "EvaluationCampaign\n"
            "from repro.leakage.evaluator import LeakageEvaluator\n"
            "design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)\n"
            "ev = LeakageEvaluator(design.dut, seed=7)\n"
            f"cfg = CampaignConfig(n_simulations={N_SIMS}, chunk_size=4096, "
            f"checkpoint={path!r})\n"
            "EvaluationCampaign(ev, cfg).run()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(path):
                if child.poll() is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            child.kill()
        finally:
            child.wait()
        assert os.path.exists(path), "child never wrote a checkpoint"

        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert report.status == "complete"
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)


class TestBudgetsAndEarlyStop:
    def test_time_budget_truncates(self, kronecker_full):
        report = run_campaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, time_budget=1e-9
            ),
        )
        assert report.status == "truncated:time-budget"
        assert report.truncated
        assert "INCONCLUSIVE" in report.format_summary()

    def test_time_budget_raises_in_strict_mode(self, kronecker_full):
        with pytest.raises(BudgetExceeded):
            run_campaign(
                _evaluator(kronecker_full),
                CampaignConfig(
                    n_simulations=N_SIMS,
                    chunk_size=4_096,
                    time_budget=1e-9,
                    on_budget="raise",
                ),
            )

    def test_early_stop_on_decisive_leak(self, kronecker_eq6):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, early_stop=10.0
            ),
        )
        report = campaign.run()
        assert report.status == "truncated:early-stop"
        assert not report.passed
        assert campaign.progress.blocks_done < campaign.progress.blocks_total

    def test_memory_error_retries_with_smaller_chunks(
        self, kronecker_full, monkeypatch
    ):
        evaluator = _evaluator(kronecker_full)
        single = _evaluator(kronecker_full).evaluate(n_simulations=N_SIMS)
        original = LeakageEvaluator.accumulate
        failed = []

        def flaky(self, acc, fixed_secret, n_lanes, n_windows, **kwargs):
            blocks = list(kwargs.get("blocks") or [])
            if len(blocks) > 1 and not failed:
                failed.append(blocks)
                raise MemoryError("simulated allocation failure")
            return original(
                self, acc, fixed_secret, n_lanes, n_windows, **kwargs
            )

        monkeypatch.setattr(LeakageEvaluator, "accumulate", flaky)
        campaign = EvaluationCampaign(
            evaluator, CampaignConfig(n_simulations=N_SIMS)
        )
        report = campaign.run()
        assert failed, "fault was never injected"
        assert campaign.progress.retries >= 1
        assert report.status == "complete"
        _assert_identical(single, report)


class _ScriptedRunner:
    """A runner executing items in-process, one scripted step per run:
    ``"run"`` completes the items, ``"memory"`` raises MemoryError and
    ``"stop"`` completes them but reports the run stopped."""

    def __init__(self, evaluator, script):
        self.target = evaluator
        self.script = list(script)
        self.stops = []

    def shards(self, n_blocks):
        return 1

    def run(self, payloads, on_result, should_stop=None):
        self.stops.append(should_stop)
        step = self.script.pop(0) if self.script else "run"
        if step == "memory":
            raise MemoryError("simulated allocation failure")
        for index, payload in enumerate(payloads):
            on_result(index, parallel.execute_item(self.target, payload))
        return step == "stop"

    def close(self):
        pass


def _tables(acc):
    ids, arrays = acc.state_arrays()
    return ids, {name: array.tolist() for name, array in arrays.items()}


class TestStopInsideAChunk:
    """A stop inside a chunk on a runner ends the campaign as a stop at
    the chunk boundary does: ``truncated:cancelled``, a ``campaign_end``
    event, and nothing of the stopped chunk merged."""

    def _first_blocks(self, design, blocks):
        evaluator = _evaluator(design)
        acc = HistogramAccumulator()
        evaluator.accumulate(
            acc, 0, evaluator.n_lanes_for(N_SIMS, 1), 1, blocks=blocks
        )
        return _tables(acc)

    def test_stop_after_one_chunk_truncates_then_resumes(
        self, kronecker_eq6, tmp_path
    ):
        path = str(tmp_path / "ck.npz")
        config = CampaignConfig(
            n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
        )
        evaluator = _evaluator(kronecker_eq6)
        runner = _ScriptedRunner(evaluator, ["run", "stop"])
        events = []

        def never():
            return False

        campaign = EvaluationCampaign(
            evaluator, config, hook=lambda e, p: events.append((e, p)),
            should_stop=never, runner=runner,
        )
        report = campaign.run()
        assert report.status == "truncated:cancelled"
        assert campaign.progress.blocks_done == 2
        assert events[-1][0] == "campaign_end"
        assert events[-1][1]["status"] == "truncated:cancelled"
        # The runner polls the campaign's own stop.
        assert runner.stops == [never, never]
        assert _tables(campaign.accumulator) == self._first_blocks(
            kronecker_eq6, [0, 1]
        )

        resumed = EvaluationCampaign(_evaluator(kronecker_eq6), config)
        final = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        straight = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=8_192),
        ).run()
        assert final.to_json(top=None) == straight.to_json(top=None)

    def test_stop_in_a_split_chunk_merges_neither_half(self, kronecker_eq6):
        evaluator = _evaluator(kronecker_eq6)
        # Chunk [0, 2) runs; chunk [2, 4) fails, its half [2] runs and
        # its half [3] is stopped.
        runner = _ScriptedRunner(evaluator, ["run", "memory", "run", "stop"])
        campaign = EvaluationCampaign(
            evaluator,
            CampaignConfig(n_simulations=N_SIMS, chunk_size=8_192),
            runner=runner,
        )
        report = campaign.run()
        assert runner.script == []
        assert campaign.progress.retries == 1
        assert report.status == "truncated:cancelled"
        assert campaign.progress.blocks_done == 2
        assert _tables(campaign.accumulator) == self._first_blocks(
            kronecker_eq6, [0, 1]
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "third"},
            {"on_budget": "explode"},
            {"chunk_size": 0},
            {"time_budget": 0.0},
            {"early_stop": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CampaignConfig(n_simulations=1000, **kwargs)

    def test_fingerprint_excludes_chunk_size(self, kronecker_full):
        small = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=1_000),
        )
        large = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=10_000),
        )
        assert small.fingerprint() == large.fingerprint()


def _tamper(acc, table_id, how):
    """Lose, short or double one table's samples, as a broken executor
    or merge would."""
    if how == "drop":
        acc._tables.pop(table_id, None)
        return
    keys, counts = acc._tables[table_id]
    counts = counts.copy()
    if how == "short":
        counts[0, np.flatnonzero(counts[0])[0]] -= 1
    else:
        counts *= 2
    acc._tables[table_id] = (keys, counts)


class TestReportAccounting:
    """No verdict from missing evidence: a report is built only when every
    table holds exactly the samples its probe was given."""

    @pytest.mark.parametrize("how", ["drop", "short", "double"])
    @pytest.mark.parametrize(
        "adaptive", [None, AdaptiveConfig()], ids=["uniform", "adaptive"]
    )
    def test_tampered_table_never_reports(self, kronecker_eq6, adaptive, how):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, adaptive=adaptive
            ),
        )
        accumulate = campaign._accumulate

        def broken(acc, blocks):
            accumulate(acc, blocks)
            # A dropped table never arrives; the others go wrong once.
            if how == "drop" or blocks.start == 0:
                _tamper(acc, "c0", how)

        campaign._accumulate = broken
        with pytest.raises(SimulationError, match="missing evidence"):
            campaign.run()

    def test_untampered_tables_report(self, kronecker_eq6):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=8_192),
        )
        assert not campaign.run().passed
        # The check reads the same tables on every later report.
        assert campaign._report("complete").max_mlog10p > 5.0


#: Blocks of the third of five one-block chunks after each mutation:
#: the block lost, or counted twice.
MUTATED_BLOCKS = {"drop_block": [], "double_block": [2, 2]}


class TestMissingEvidenceOnTheCachedPlan:
    """A serial campaign's later chunks count on the plan its first chunk
    built; a block lost or counted twice there, or a table dropped, must
    raise and never become a report."""

    def _campaign(self, design, evaluator=None):
        return EvaluationCampaign(
            evaluator or _evaluator(design),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=4_096),
        )

    def test_later_chunks_reuse_the_plan(self, kronecker_eq6):
        evaluator = _evaluator(kronecker_eq6)
        accumulate = evaluator.accumulate
        selections = []

        def recording(acc, *args, **kw):
            accumulate(acc, *args, **kw)
            selections.append(evaluator._selection)

        evaluator.accumulate = recording
        report = self._campaign(kronecker_eq6, evaluator).run()
        assert len(selections) == 5
        assert all(s is selections[0] for s in selections)
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        assert report.to_json(top=None) == single.to_json(top=None)

    @pytest.mark.parametrize(
        "how", ["drop_block", "double_block", "drop_table"]
    )
    def test_mutated_later_chunk_never_reports(self, kronecker_eq6, how):
        evaluator = _evaluator(kronecker_eq6)
        accumulate = evaluator.accumulate
        selections = []

        def broken(acc, *args, blocks, **kw):
            third = list(blocks) == [2]
            if third:
                blocks = MUTATED_BLOCKS.get(how, blocks)
            accumulate(acc, *args, blocks=blocks, **kw)
            selections.append(evaluator._selection)
            if third and how == "drop_table":
                del acc._tables["c3"]

        evaluator.accumulate = broken
        with pytest.raises(SimulationError, match="missing evidence"):
            self._campaign(kronecker_eq6, evaluator).run()
        assert len(selections) == 5
        assert all(s is selections[0] for s in selections)


class TestResumeFromBatchPackedTables:
    """Checkpoint tables packed in batches: one lacking a block, holding
    one twice or missing a table never resumes into a report."""

    @pytest.mark.parametrize(
        "how", ["drop_block", "double_block", "drop_table"]
    )
    def test_mutated_checkpoint_is_refused(
        self, kronecker_eq6, tmp_path, monkeypatch, how
    ):
        # Small batches, so the tables span several packing passes.
        monkeypatch.setattr(evaluator_module, "STATE_BATCH_COLUMNS", 16)
        path = str(tmp_path / "ck.npz")

        def campaign():
            return EvaluationCampaign(
                _evaluator(kronecker_eq6),
                CampaignConfig(
                    n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
                ),
            )

        writer = campaign()
        evaluator = writer.evaluator
        acc = HistogramAccumulator()
        blocks = [0, 1, 2] if how == "drop_block" else [0, 1, 2, 3]
        evaluator.accumulate(acc, 0, writer._n_lanes, 1, blocks=blocks)
        if how == "double_block":
            again = HistogramAccumulator()
            evaluator.accumulate(again, 0, writer._n_lanes, 1, blocks=[3])
            acc.merge(again)
        if how == "drop_table":
            del acc._tables["c3"]
        writer.accumulator = acc
        writer.progress.blocks_total = writer._blocks_total()
        writer._save_checkpoint(path, 4)
        with pytest.raises(CheckpointError):
            campaign()._load_checkpoint(path)
        # Resume quarantines the file and simulates every block afresh.
        resumed = campaign()
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 0
        assert os.path.exists(path + ".corrupt")
        fresh = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=8_192),
        ).run()
        assert report.to_json(top=None) == fresh.to_json(top=None)


#: sha256 of the report JSON of the campaign paths the suite goldens
#: leave out (kronecker/eq6, seed 7), recorded before the three report
#: builders became one.
REPORT_DIGESTS = {
    "pairs": "ae204bba3d885d94d4682a1ddc5bd6f136b6d60f78c2819602ab0c549481b1f7",
    "adaptive_both": (
        "230e39641d40bba529935cbb59d698f8e8871430b0112a2e45ec82702822a65e"
    ),
    "early_stop": (
        "267816a72cae8f717a002392e5d616fb84bdf3fdce01f0a67568dc79c32b9708"
    ),
}


class TestCampaignReportPins:
    @pytest.mark.parametrize(
        "name, config, status, blocks_done",
        [
            (
                "pairs",
                {"n_simulations": 8_192, "mode": "pairs", "max_pairs": 8,
                 "pair_offsets": (0, 1)},
                "complete", 2,
            ),
            (
                "adaptive_both",
                {"n_simulations": 16_384, "mode": "both", "max_pairs": 6,
                 "adaptive": AdaptiveConfig(min_null_samples=4_096)},
                "complete", 3,
            ),
            (
                "early_stop",
                {"n_simulations": N_SIMS, "early_stop": 10.0},
                "truncated:early-stop", 1,
            ),
        ],
    )
    def test_report_bytes_are_pinned(
        self, kronecker_eq6, name, config, status, blocks_done
    ):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(chunk_size=4_096, **config),
        )
        report = campaign.run()
        assert (report.status, campaign.progress.blocks_done) == (
            status, blocks_done
        )
        digest = hashlib.sha256(report.to_json(top=None).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[name]


#: sha256 of the final checkpoint file of the two campaigns below,
#: computed before checkpoint tables were packed in batches.  A change
#: here breaks every checkpoint written earlier: treat it as a format
#: change.
CHECKPOINT_DIGESTS = {
    "first": "7c0be7c5410e32e87fbd87812113b668d0b16c6dfd733dc6b7cdc85bb0ef78d7",
    "both": "1f2bd6ac91d49f8a964a99d84d63c870092e04cd2187e7f033e3aee0aae71262",
}


class TestCheckpointFormat:
    @pytest.mark.parametrize(
        "name, evaluator_options, config",
        [
            ("first", {}, {}),
            # Pair tables at two offsets; at 4 hash bits the 5-bit classes
            # and the wider pairs are hashed.
            (
                "both",
                {"hash_bits": 4},
                {"mode": "both", "max_pairs": 6, "pair_offsets": (0, 1)},
            ),
        ],
    )
    def test_checkpoint_bytes_are_pinned(
        self, kronecker_eq6, tmp_path, name, evaluator_options, config
    ):
        path = str(tmp_path / "ck.npz")
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=7,
            **evaluator_options,
        )
        EvaluationCampaign(
            evaluator,
            CampaignConfig(
                n_simulations=8_192, chunk_size=4_096, checkpoint=path,
                **config,
            ),
        ).run()
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == CHECKPOINT_DIGESTS[name]
