"""Tests for the deterministic chaos harness and the resilience machinery.

Covers the policy spec (round-trip, validation, per-site determinism, the
fault budget), ``retry_io`` backoff, the checkpoint integrity container
and its generation fallback, engine degradation, the worker-kill/hang
degradation ladder of the local process pool on both work-item kinds,
and a miniature chaos-torture sweep asserting the
byte-identical-or-typed-error contract end to end.
"""

import random

import pytest

from repro.chaos import (
    CHAOS_SITES,
    ChaosPolicy,
    FaultPlane,
    InjectedFault,
    RetryPolicy,
    retry_io,
    run_torture,
)
from repro.errors import ChaosError, CheckpointError
from repro.leakage.campaign import (
    CampaignConfig,
    EvaluationCampaign,
    CheckpointCorrupt,
    pack_checkpoint,
    unpack_checkpoint,
)
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.model import ProbingModel
from repro.leakage.certify import ShardedExactAnalyzer
from repro.leakage.parallel import BlockExecutor, PoolRunner

N_SIMS = 8_000


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


class ScriptedPlane(FaultPlane):
    """Always injects ``kind`` at ``site`` (picklable, for worker tests)."""

    def __init__(self, site, kind, hang_seconds=0.0):
        self.site = site
        self.kind = kind
        self.hang_seconds = hang_seconds

    def decide(self, site):
        return self.kind if site == self.site else None


class TestChaosPolicy:
    def test_round_trips_through_dict(self):
        policy = ChaosPolicy(
            seed=5, p=0.25, sites=("store.write",), max_faults=7
        )
        assert ChaosPolicy.from_dict(policy.to_dict()) == policy

    def test_rejects_unknown_fields_and_sites(self):
        with pytest.raises(ChaosError):
            ChaosPolicy.from_dict({"seed": 1, "chaos": True})
        with pytest.raises(ChaosError):
            ChaosPolicy(sites=("no.such.site",)).validate()

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ChaosError):
            ChaosPolicy(p=1.5).validate()
        with pytest.raises(ChaosError):
            ChaosPolicy(max_faults=-1).validate()
        with pytest.raises(ChaosError):
            ChaosPolicy(hang_seconds=-0.1).validate()

    def test_same_seed_reproduces_the_schedule(self):
        policy = ChaosPolicy(seed=11, p=0.5, max_faults=None)
        decisions_a = [
            policy.fault_plane().decide("checkpoint.write")
            for _ in range(1)
        ]
        plane_a, plane_b = policy.fault_plane(), policy.fault_plane()
        schedule_a = [plane_a.decide("checkpoint.write") for _ in range(64)]
        schedule_b = [plane_b.decide("checkpoint.write") for _ in range(64)]
        assert schedule_a == schedule_b
        assert any(kind is not None for kind in schedule_a)
        assert decisions_a[0] == schedule_a[0]

    def test_sites_draw_from_independent_streams(self):
        policy = ChaosPolicy(seed=3, p=0.5, max_faults=None)
        mixed = policy.fault_plane()
        for _ in range(32):
            mixed.decide("store.write")
        mixed_reads = [mixed.decide("checkpoint.read") for _ in range(32)]
        solo = policy.fault_plane()
        solo_reads = [solo.decide("checkpoint.read") for _ in range(32)]
        assert mixed_reads == solo_reads

    def test_disabled_site_never_fires(self):
        plane = ChaosPolicy(
            seed=0, p=1.0, sites=("checkpoint.write",)
        ).fault_plane()
        assert all(
            plane.decide("store.write") is None for _ in range(16)
        )

    def test_max_faults_budget_caps_injections(self):
        plane = ChaosPolicy(
            seed=0, p=1.0, sites=("telemetry.write",), max_faults=3
        ).fault_plane()
        kinds = [plane.decide("telemetry.write") for _ in range(10)]
        assert sum(kind is not None for kind in kinds) == 3
        assert len(plane.injected) == 3

    def test_injected_io_faults_are_oserrors(self):
        plane = ChaosPolicy(
            seed=0, p=1.0, sites=("telemetry.write",), max_faults=None
        ).fault_plane()
        with pytest.raises(InjectedFault) as info:
            plane.maybe_fail("telemetry.write")
        assert isinstance(info.value, OSError)
        assert info.value.site == "telemetry.write"


class TestRetryIO:
    def test_retries_transient_oserrors(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        events = []
        result = retry_io(
            flaky,
            RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.1),
            site="store.write",
            sleep=sleeps.append,
            rng=random.Random(0),
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert all(0 <= delay <= 0.1 for delay in sleeps)
        assert [event for event, _ in events] == ["io_retry", "io_retry"]
        assert events[0][1]["site"] == "store.write"

    def test_exhausted_attempts_reraise_the_last_error(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            retry_io(
                broken,
                RetryPolicy(attempts=3, base_delay=0.0),
                sleep=lambda _: None,
            )
        assert calls["n"] == 3

    def test_non_retryable_errors_propagate_immediately(self):
        calls = {"n": 0}

        def wrong():
            calls["n"] += 1
            raise ValueError("not IO")

        with pytest.raises(ValueError):
            retry_io(wrong, sleep=lambda _: None)
        assert calls["n"] == 1


class TestCheckpointContainer:
    def test_round_trip(self):
        payload = b"PK\x03\x04 pretend this is an NPZ payload"
        assert unpack_checkpoint(pack_checkpoint(payload)) == payload

    def test_legacy_bare_npz_passes_through(self):
        legacy = b"PK\x03\x04 a pre-container checkpoint"
        assert unpack_checkpoint(legacy) == legacy

    def test_bad_magic_is_corrupt(self):
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(b"garbage that is not a checkpoint")

    def test_torn_payload_is_corrupt(self):
        blob = pack_checkpoint(b"0123456789" * 10)
        with pytest.raises(CheckpointCorrupt, match="torn"):
            unpack_checkpoint(blob[:-7])

    def test_flipped_bit_is_corrupt(self):
        blob = bytearray(pack_checkpoint(b"0123456789" * 10))
        blob[-1] ^= 0x10
        with pytest.raises(CheckpointCorrupt, match="CRC32"):
            unpack_checkpoint(bytes(blob))

    def test_corrupt_is_a_checkpoint_error(self):
        # Quarantine-or-raise call sites catch the subclass; everything
        # else keeps treating it as the existing typed error.
        assert issubclass(CheckpointCorrupt, CheckpointError)


class TestGenerationFallback:
    def test_both_generations_corrupt_starts_fresh(
        self, kronecker_eq6, tmp_path
    ):
        path = str(tmp_path / "ck.npz")
        with open(path, "wb") as handle:
            handle.write(b"RPCKPT01 torn current generation")
        with open(path + ".prev", "wb") as handle:
            handle.write(b"rotten previous generation")
        events = []
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=2_048, checkpoint=path
            ),
            hook=lambda event, payload: events.append(event),
        )
        report = campaign.run(resume=True)
        assert report.status == "complete"
        assert campaign.progress.resumed_from_block == 0
        names = set(events)
        assert "checkpoint_corrupt" in names
        assert "checkpoint_fallback" in names
        import os

        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path + ".prev.corrupt")
        _assert_identical(
            _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS), report
        )


class TestEngineDegradation:
    def test_compiled_failure_degrades_to_bitsliced(self, kronecker_eq6):
        evaluator = _evaluator(kronecker_eq6, engine="compiled")
        evaluator.fault_plane = ScriptedPlane("engine.compile", "fail")
        with pytest.warns(RuntimeWarning, match="bitsliced"):
            report = evaluator.evaluate(n_simulations=N_SIMS)
        assert evaluator.engine == "bitsliced"
        assert any(
            entry["kind"] == "engine_bitsliced"
            for entry in evaluator.degradations
        )
        reference = _evaluator(kronecker_eq6, engine="bitsliced").evaluate(
            n_simulations=N_SIMS
        )
        _assert_identical(reference, report)


def _state_bytes(acc):
    ids, arrays = acc.state_arrays()
    return ids, {name: array.tobytes() for name, array in arrays.items()}


class TestWorkerDegradationLadder:
    """The local pool's ladder -- one restart, stall reaping, in-process
    fallback -- on both work-item kinds, ending with the serial bytes."""

    #: four full sampling blocks, so two workers get two blocks each.
    LADDER_SIMS = 16_384

    def _run(self, kind, design, plane, **runner_kwargs):
        """``(events, result, serial result)`` of one pool run."""
        events = []

        def hook(event, payload):
            events.append(event)

        if kind == "blocks":
            evaluator = _evaluator(design)
            evaluator.fault_plane = plane
            n_lanes = evaluator.n_lanes_for(self.LADDER_SIMS, 1)
            acc, reference = HistogramAccumulator(), HistogramAccumulator()
            runner = PoolRunner(evaluator, 2, hook=hook, **runner_kwargs)
            with BlockExecutor(evaluator, runner) as executor:
                executor.accumulate(acc, 0, n_lanes, 1, blocks=range(4))
            _evaluator(design).accumulate(
                reference, 0, n_lanes, 1, blocks=range(4)
            )
            return events, _state_bytes(acc), _state_bytes(reference)
        sharded = ShardedExactAnalyzer(design.dut, max_enum_bits=12)
        sharded.analyzer.fault_plane = plane
        with PoolRunner(
            sharded.analyzer, 2, hook=hook, **runner_kwargs
        ) as runner:
            report = sharded.analyze(runner=runner)
        serial = ShardedExactAnalyzer(design.dut, max_enum_bits=12).analyze()
        return events, report.to_json(top=None), serial.to_json(top=None)

    @pytest.mark.parametrize("kind", ["blocks", "exact_shard"])
    def test_killed_workers_restart_then_degrade_serial(
        self, kronecker_eq6, kind
    ):
        with pytest.warns(RuntimeWarning, match="in-process"):
            events, result, serial = self._run(
                kind, kronecker_eq6, ScriptedPlane("worker.block", "kill")
            )
        assert "pool_restart" in events
        assert "serial_fallback" in events
        assert result == serial

    @pytest.mark.parametrize("kind", ["blocks", "exact_shard"])
    def test_hung_workers_are_reaped(self, kronecker_eq6, kind):
        with pytest.warns(RuntimeWarning, match="in-process"):
            events, result, serial = self._run(
                kind,
                kronecker_eq6,
                ScriptedPlane("worker.block", "hang", hang_seconds=60.0),
                shard_timeout=0.5,
                max_pool_restarts=0,
            )
        assert "worker_stalled" in events
        assert "serial_fallback" in events
        assert result == serial


class TestTortureHarness:
    def test_mini_torture_honours_the_contract(self, kronecker_eq6, tmp_path):
        def make_evaluator():
            return _evaluator(kronecker_eq6)

        def make_config(checkpoint=None):
            return CampaignConfig(
                n_simulations=N_SIMS, chunk_size=1_024, checkpoint=checkpoint
            )

        report = run_torture(
            make_evaluator,
            make_config,
            seeds=range(4),
            workdir=str(tmp_path),
            p=0.4,
            sites=tuple(
                site for site in CHAOS_SITES if site != "worker.block"
            ),
        )
        assert report.ok, report.format_summary()
        assert report.golden_status == "complete"
        assert len(report.runs) == 4
        # chaos actually fired: at least one run saw an injection.
        assert any(run.injected for run in report.runs)
        summary = report.format_summary()
        assert "chaos torture" in summary
        parsed = report.to_dict()
        assert parsed["ok"] is True
        assert sum(parsed["counts"].values()) == 4
