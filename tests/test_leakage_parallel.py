"""Tests for work items and the local process pool that runs them.

The load-bearing property is bit-identity: any worker count, any shard
boundaries, and any kill/resume point must reproduce the serial campaign's
per-probe contingency tables (and therefore G statistics and -log10(p))
exactly, because every sampling block draws from a private RNG stream and
table accumulation commutes.  The other half is the result checks: no
runner may merge a result that lost, added or doubled evidence.
"""

import contextlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, WorkItemError
from repro.leakage import parallel
from repro.leakage.campaign import CampaignConfig, EvaluationCampaign
from repro.leakage.certify import ShardedExactAnalyzer
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.model import ProbingModel
from repro.leakage.parallel import (
    BlockExecutor,
    PoolRunner,
    default_workers,
    exact_dispatch,
    shard_blocks,
)
from repro.service.fleet import (
    FleetCoordinator,
    FleetRunner,
    decode_arrays,
    encode_arrays,
)
from repro.service.store import JobSpec
from repro.service.worker import FleetWorker, LocalTransport

N_SIMS = 20_000


def _evaluator(design, seed=7, engine="compiled"):
    return LeakageEvaluator(
        design.dut, ProbingModel.GLITCH, seed=seed, engine=engine
    )


def _assert_identical(report_a, report_b):
    assert len(report_a.results) == len(report_b.results)
    for a, b in zip(report_a.results, report_b.results):
        assert a.probe_names == b.probe_names
        assert a.g_statistic == b.g_statistic
        assert a.dof == b.dof
        assert a.mlog10p == b.mlog10p


def _assert_tables_identical(acc_a, acc_b):
    assert sorted(acc_a.table_ids()) == sorted(acc_b.table_ids())
    for table_id in acc_a.table_ids():
        keys_a, fixed_a, random_a = acc_a.counts(table_id)
        keys_b, fixed_b, random_b = acc_b.counts(table_id)
        assert np.array_equal(keys_a, keys_b)
        assert np.array_equal(fixed_a, fixed_b)
        assert np.array_equal(random_a, random_b)


class TestShardBlocks:
    @given(
        st.lists(st.integers(0, 10_000), max_size=60, unique=True),
        st.integers(1, 12),
    )
    def test_partition_properties(self, blocks, n_shards):
        shards = shard_blocks(blocks, n_shards)
        # Every block exactly once, order preserved.
        assert [b for shard in shards for b in shard] == blocks
        assert all(shard for shard in shards)
        assert len(shards) == min(n_shards, len(blocks))
        if shards:
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_empty_blocks(self):
        assert shard_blocks([], 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(SimulationError):
            shard_blocks([0, 1], 0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestWorkerIdentity:
    def _campaign(self, design, workers, mode="first", **kwargs):
        config = CampaignConfig(
            n_simulations=N_SIMS,
            chunk_size=8_192,
            workers=workers,
            mode=mode,
            max_pairs=15,
            **kwargs,
        )
        campaign = EvaluationCampaign(_evaluator(design), config)
        report = campaign.run()
        return campaign, report

    def test_workers4_bit_identical_to_serial(self, kronecker_eq6):
        serial, report_1 = self._campaign(kronecker_eq6, workers=1)
        parallel, report_4 = self._campaign(kronecker_eq6, workers=4)
        _assert_identical(report_1, report_4)
        _assert_tables_identical(serial.accumulator, parallel.accumulator)

    def test_pairs_mode_parallel_identity(self, kronecker_full):
        serial, report_1 = self._campaign(
            kronecker_full, workers=1, mode="pairs"
        )
        parallel, report_2 = self._campaign(
            kronecker_full, workers=2, mode="pairs"
        )
        _assert_identical(report_1, report_2)
        _assert_tables_identical(serial.accumulator, parallel.accumulator)

    def test_both_mode_parallel_identity(self, kronecker_eq6):
        serial, report_1 = self._campaign(
            kronecker_eq6, workers=1, mode="both"
        )
        parallel, report_2 = self._campaign(
            kronecker_eq6, workers=2, mode="both"
        )
        _assert_identical(report_1, report_2)
        _assert_tables_identical(serial.accumulator, parallel.accumulator)

    def test_kill_and_resume_parallel(self, kronecker_eq6, tmp_path):
        """A serial partial checkpoint resumes under workers=4, and the
        other way around, both bit-identical to one uninterrupted run."""
        path = str(tmp_path / "ck.npz")
        partial = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, checkpoint=path
            ),
        )
        partial.progress.blocks_total = partial._blocks_total()
        partial._run_chunk_with_retry(0, 2)
        partial.progress.blocks_done = 2
        partial._save_checkpoint(path, 2)

        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS,
                chunk_size=8_192,
                checkpoint=path,
                workers=4,
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert report.status == "complete"
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_fingerprint_ignores_worker_count(self, kronecker_eq6, tmp_path):
        """workers is an execution detail: a checkpoint written under one
        worker count resumes under any other."""
        path = str(tmp_path / "ck.npz")
        a = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, workers=1, checkpoint=path),
        )
        b = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, workers=4, checkpoint=path),
        )
        assert a.fingerprint() == b.fingerprint()


def _pool_executor(evaluator, workers):
    """The block executor on a local process pool, as campaigns build it."""
    return BlockExecutor(evaluator, PoolRunner(evaluator, workers))


class TestExecutorDirect:
    def test_executor_matches_in_process(self, kronecker_eq6):
        evaluator = _evaluator(kronecker_eq6)
        blocks = list(range(3))
        serial = HistogramAccumulator()
        evaluator.accumulate(serial, 0, N_SIMS, 1, blocks=blocks)
        parallel = HistogramAccumulator()
        with _pool_executor(evaluator, workers=3) as executor:
            executor.accumulate(parallel, 0, N_SIMS, 1, blocks)
        _assert_tables_identical(serial, parallel)

    def test_empty_blocks_no_op(self, kronecker_eq6):
        acc = HistogramAccumulator()
        with _pool_executor(_evaluator(kronecker_eq6), workers=2) as ex:
            ex.accumulate(acc, 0, N_SIMS, 1, [])
        assert acc.table_ids() == []

    def test_invalid_worker_count(self, kronecker_eq6):
        with pytest.raises(SimulationError):
            PoolRunner(_evaluator(kronecker_eq6), workers=0)

    def test_serial_fallback_warns_and_matches(
        self, kronecker_eq6, monkeypatch
    ):
        """When the pool cannot start, the runner must warn and still
        produce the exact serial tables in-process."""
        import repro.leakage.parallel as parallel_mod

        def broken_pool(*args, **kwargs):
            raise OSError("sem_open blocked")

        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", broken_pool
        )
        evaluator = _evaluator(kronecker_eq6)
        blocks = list(range(3))
        reference = HistogramAccumulator()
        evaluator.accumulate(reference, 0, N_SIMS, 1, blocks=blocks)
        acc = HistogramAccumulator()
        with _pool_executor(evaluator, workers=4) as executor:
            with pytest.warns(RuntimeWarning, match="multiprocessing"):
                executor.accumulate(acc, 0, N_SIMS, 1, blocks)
            assert executor.runner._serial_fallback
            # Subsequent chunks stay in-process without further warnings.
            executor.accumulate(acc, 0, N_SIMS, 1, [])
        _assert_tables_identical(reference, acc)


# ------------------------------------------------ result checks, both runners

#: Blocks of the checked runs: eight, so every item holds at least two.
CHECK_BLOCKS = range(8)
CHECK_LANES = 8 * 4_096
#: Same evaluator as ``_evaluator``, spelled as a fleet job spec.
CHECK_SPEC = {"design": "kronecker", "scheme": "eq6", "seed": 7}
EXACT_SPEC = {
    "design": "kronecker", "scheme": "eq6", "mode": "exact",
    "max_enum_bits": 12,
}


def _drop_table(result, table_id):
    ids = list(result["meta"]["table_ids"])
    index = ids.index(table_id)
    arrays = result["arrays"]
    start = int(arrays["n_keys"][:index].sum())
    stop = start + int(arrays["n_keys"][index])
    return {
        "meta": {"table_ids": ids[:index] + ids[index + 1:]},
        "arrays": {
            "keys": np.delete(arrays["keys"], np.s_[start:stop]),
            "counts": np.delete(arrays["counts"], np.s_[start:stop], axis=1),
            "n_keys": np.delete(arrays["n_keys"], index),
        },
    }


def _missing_table(payload, execute):
    return _drop_table(execute(payload), "c1")


def _extra_table(payload, execute):
    """c0's table once more, as an unrequested c9."""
    result = execute(payload)
    arrays = result["arrays"]
    n = int(arrays["n_keys"][0])
    return {
        "meta": {"table_ids": result["meta"]["table_ids"] + ["c9"]},
        "arrays": {
            "keys": np.concatenate([arrays["keys"], arrays["keys"][:n]]),
            "counts": np.concatenate(
                [arrays["counts"], arrays["counts"][:, :n]], axis=1
            ),
            "n_keys": np.append(arrays["n_keys"], n),
        },
    }


def _block_short(payload, execute):
    return execute(dict(payload, blocks=payload["blocks"][:-1]))


def _block_twice(payload, execute):
    blocks = payload["blocks"]
    return execute(dict(payload, blocks=blocks + blocks[:1]))


def _class_missing(payload, execute):
    result = execute(payload)
    first = payload["class_indices"][0]
    arrays = {
        name: array
        for name, array in result["arrays"].items()
        if not name.endswith(f"_{first}")
    }
    return {"meta": result["meta"], "arrays": arrays}


#: The tamper a forked pool process applies (set before the pool starts).
_TAMPER = None
_REAL_POOL_ITEM = parallel._run_in_pool


def _tampering_pool_item(payload):
    return _TAMPER(payload, _REAL_POOL_ITEM)


class _TamperingWorker(FleetWorker):
    """A fleet worker returning ``tamper(payload, execute)``."""

    def __init__(self, coordinator, tamper):
        super().__init__(
            LocalTransport(coordinator), worker_id="tamperer",
            poll_interval=0.01,
        )
        self.tamper = tamper

    def execute_item(self, work):
        def execute(payload):
            body = FleetWorker.execute_item(self, dict(work, work=payload))
            return {
                "arrays": decode_arrays(body["npz"]), "meta": body["meta"],
            }

        result = self.tamper(work["work"], execute)
        return {"npz": encode_arrays(result["arrays"]), "meta": result["meta"]}


@contextlib.contextmanager
def _tampering_runner(kind, target, spec, tamper, monkeypatch):
    """A runner whose every result passes through ``tamper``."""
    if kind == "pool":
        monkeypatch.setattr(sys.modules[__name__], "_TAMPER", tamper)
        monkeypatch.setattr(parallel, "_run_in_pool", _tampering_pool_item)
        with PoolRunner(target, 2) as runner:
            yield runner
        return
    coordinator = FleetCoordinator(lease_seconds=10.0)
    coordinator.register_job("job", JobSpec.from_dict(spec).to_dict())
    stop = threading.Event()
    worker = _TamperingWorker(coordinator, tamper)
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    try:
        yield FleetRunner(
            coordinator, "job", lambda: time.monotonic() > deadline
        )
    finally:
        stop.set()
        thread.join(timeout=5)


class TestResultChecks:
    """Every runner's results pass the item check before anything merges:
    a result that lost, added, shortened or doubled evidence raises a
    typed error and leaves the tables untouched."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the tampering is injected into forked pool workers",
    )
    @pytest.mark.parametrize("runner", ["pool", "coordinator"])
    @pytest.mark.parametrize(
        "tamper",
        [_missing_table, _extra_table, _block_short, _block_twice],
        ids=["missing_table", "extra_table", "block_short", "block_twice"],
    )
    def test_bad_blocks_result_merges_nothing(
        self, kronecker_eq6, runner, tamper, monkeypatch
    ):
        evaluator = _evaluator(kronecker_eq6)
        acc = HistogramAccumulator()
        with _tampering_runner(
            runner, evaluator, CHECK_SPEC, tamper, monkeypatch
        ) as items:
            with pytest.raises(WorkItemError, match="malformed tables"):
                BlockExecutor(evaluator, items).accumulate(
                    acc, 0, CHECK_LANES, 1, CHECK_BLOCKS,
                    class_indices=[0, 1, 2],
                )
        assert acc.table_ids() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the tampering is injected into forked pool workers",
    )
    @pytest.mark.parametrize("runner", ["pool", "coordinator"])
    def test_exact_result_missing_a_class_merges_nothing(
        self, kronecker_eq6, runner, monkeypatch
    ):
        sharded = ShardedExactAnalyzer(kronecker_eq6.dut, max_enum_bits=12)
        events = []
        with _tampering_runner(
            runner, sharded.analyzer, EXACT_SPEC, _class_missing, monkeypatch
        ) as items:
            with pytest.raises(WorkItemError, match="no shard counts"):
                sharded.analyze(
                    dispatch=exact_dispatch(items),
                    hook=lambda event, payload: events.append(event),
                )
        assert "shard_done" not in events
