"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.service.runner import run_spec
from repro.spec import EvaluationSpec


class TestEvaluate:
    def test_leaky_scheme_exits_nonzero(self, capsys):
        code = main(
            [
                "evaluate",
                "--design", "kronecker",
                "--scheme", "eq6",
                "--simulations", "20000",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "g7" in out

    def test_secure_scheme_exits_zero(self, capsys):
        code = main(
            [
                "evaluate",
                "--scheme", "full",
                "--simulations", "20000",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_transition_flag(self, capsys):
        code = main(
            [
                "evaluate",
                "--scheme", "eq9",
                "--transitions",
                "--simulations", "20000",
            ]
        )
        assert code == 1
        assert "transition" in capsys.readouterr().out

    def test_fixed_value_parsing(self, capsys):
        code = main(
            [
                "evaluate",
                "--design", "sbox-nokronecker",
                "--scheme", "full",
                "--fixed", "0x53",
                "--simulations", "20000",
            ]
        )
        assert code == 0
        assert "0x53" in capsys.readouterr().out

    def test_unknown_scheme_rejected(self, capsys):
        """A configuration error exits 2 on every command building a
        design; exit 1 is reserved for leakage."""
        for command in (
            "evaluate", "campaign", "exact", "certify", "report", "verilog"
        ):
            assert main([command, "--scheme", "bogus"]) == 2, command
            assert "unknown scheme 'bogus'" in capsys.readouterr().err

    def test_json_output(self, capsys):
        import json

        code = main(
            [
                "evaluate",
                "--scheme", "full",
                "--simulations", "5000",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_pair_mode(self, capsys):
        code = main(
            [
                "evaluate",
                "--scheme", "full",
                "--pairs",
                "--max-pairs", "40",
                "--simulations", "5000",
            ]
        )
        # a first-order design fails the pair (second-order) test
        assert code == 1

    def test_pairs_honour_windows(self, capsys):
        """``evaluate --pairs`` samples over ``--windows`` as ``campaign``
        does."""
        args = [
            "--scheme", "full", "--simulations", "8000", "--pairs",
            "--max-pairs", "20", "--windows", "4", "--json",
        ]
        codes, outputs = [], []
        for command in ("evaluate", "campaign"):
            codes.append(main([command, *args]))
            outputs.append(capsys.readouterr().out)
        assert codes[0] == codes[1] == 1
        assert outputs[0] == outputs[1]

    def test_sbox2_design(self, capsys):
        code = main(
            [
                "evaluate",
                "--design", "sbox2",
                "--scheme", "second_order_full_21",
                "--simulations", "10000",
            ]
        )
        assert code == 0


class TestExact:
    def test_exact_sweep_eq9(self, capsys):
        code = main(["exact", "--scheme", "eq9"])
        assert code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_exact_sweep_eq6_fails(self, capsys):
        code = main(["exact", "--scheme", "eq6"])
        assert code == 1
        assert "INSECURE" in capsys.readouterr().out

    def test_exact_sweep_beyond_budget_is_inconclusive(self, capsys):
        """Probes over the enumeration budget are never a silent pass:
        exit 3, as ``campaign --exact`` on the same sweep."""
        code = main(["exact", "--scheme", "eq9", "--max-bits", "16"])
        assert code == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out


class TestSni:
    def test_standard_sni_passes(self, capsys):
        code = main(["sni"])
        assert code == 0
        assert "SNI=yes" in capsys.readouterr().out

    def test_robust_sni_fails(self, capsys):
        code = main(["sni", "--robust"])
        assert code == 1
        assert "SNI=NO" in capsys.readouterr().out


class TestReportAndVerilog:
    def test_report(self, capsys):
        assert main(["report", "--design", "kronecker"]) == 0
        out = capsys.readouterr().out
        assert "registers" in out
        assert "GE" in out

    def test_verilog_to_stdout(self, capsys):
        assert main(["verilog", "--scheme", "eq6"]) == 0
        out = capsys.readouterr().out
        assert "module" in out
        assert "endmodule" in out

    def test_verilog_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.v"
        assert main(["verilog", "--output", str(target)]) == 0
        assert target.exists()
        assert "module" in target.read_text()


class TestEncrypt:
    def test_fips_vector(self, capsys):
        code = main(
            [
                "encrypt",
                "--key", "000102030405060708090a0b0c0d0e0f",
                "--plaintext", "00112233445566778899aabbccddeeff",
            ]
        )
        assert code == 0
        assert "69c4e0d86a7b0430d8cdb78070b4c55a" in capsys.readouterr().out


class TestCampaign:
    def test_leaky_scheme_exits_one(self, capsys):
        code = main(
            [
                "campaign",
                "--scheme", "eq6",
                "--simulations", "20000",
                "--chunk-size", "8192",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "blocks:" in out

    def test_secure_scheme_exits_zero(self, capsys):
        code = main(
            ["campaign", "--scheme", "full", "--simulations", "10000"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_configuration_exits_two(self, capsys):
        code = main(
            [
                "campaign",
                "--simulations", "5",
                "--windows", "10",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_run_exits_three(self, capsys):
        code = main(
            [
                "campaign",
                "--scheme", "full",
                "--simulations", "100000",
                "--chunk-size", "4096",
                "--time-budget", "0.000001",
            ]
        )
        assert code == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "ck.npz")
        args = [
            "campaign",
            "--scheme", "eq6",
            "--simulations", "20000",
            "--chunk-size", "8192",
            "--checkpoint", path,
        ]
        assert main(args) == 1
        capsys.readouterr()
        # resuming a finished campaign re-simulates nothing.
        assert main(args + ["--resume"]) == 1
        assert "resumed from block 5" in capsys.readouterr().out

    def test_workers_flag_identical_json(self, capsys):
        import json

        args = [
            "campaign",
            "--scheme", "eq6",
            "--simulations", "20000",
            "--chunk-size", "8192",
            "--json",
        ]
        assert main(args + ["--workers", "1"]) == 1
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--workers", "2"]) == 1
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_batch_probes_flag(self, capsys):
        import json

        code = main(
            [
                "campaign",
                "--scheme", "eq6",
                "--simulations", "10000",
                "--batch-probes",
                "--max-pairs", "10",
                "--top", "500",
                "--json",
            ]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        names = [r["probe_names"] for r in data["results"]]
        # both first-order classes and probe pairs in one report
        assert any(" x " not in n for n in names)
        assert any(" x " in n for n in names)

    def test_engine_flag_identical_json(self, capsys):
        import json

        args = [
            "evaluate",
            "--scheme", "eq6",
            "--simulations", "10000",
            "--json",
        ]
        assert main(args + ["--engine", "compiled"]) == 1
        compiled = json.loads(capsys.readouterr().out)
        assert main(args + ["--engine", "bitsliced"]) == 1
        bitsliced = json.loads(capsys.readouterr().out)
        assert compiled == bitsliced

    def test_self_check_matrix(self, capsys):
        code = main(
            ["campaign", "--self-check", "--simulations", "20000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "COVERAGE COMPLETE" in out
        assert "bypass-kronecker" in out

    def test_self_check_json(self, capsys):
        import json

        code = main(
            [
                "campaign",
                "--self-check",
                "--simulations", "20000",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coverage_complete"] is True


class TestExitCodesOnErrors:
    def test_repro_error_maps_to_exit_two(self, capsys):
        code = main(
            ["evaluate", "--scheme", "full", "--simulations", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


_SIMS = ["--simulations", "20000", "--seed", "7"]

#: spec id -> (exit code, the spec's ``campaign`` argv, the same spec
#: through the ``evaluate`` / ``exact`` shorthand).
_VERDICTS = {
    "sampled-eq6-leaks": (
        1,
        ["campaign", "--scheme", "eq6", *_SIMS],
        ["evaluate", "--scheme", "eq6", *_SIMS],
    ),
    "sampled-full-clean": (
        0,
        ["campaign", "--scheme", "full", *_SIMS],
        ["evaluate", "--scheme", "full", *_SIMS],
    ),
    "exact-eq6-leaks": (
        1,
        ["campaign", "--exact", "--scheme", "eq6", "--max-enum-bits", "24"],
        ["exact", "--scheme", "eq6", "--max-bits", "24"],
    ),
    "exact-eq9-beyond-budget": (
        3,
        ["campaign", "--exact", "--scheme", "eq9", "--max-enum-bits", "16"],
        ["exact", "--scheme", "eq9", "--max-bits", "16"],
    ),
}


class TestServeAndSubmit:
    @pytest.mark.parametrize(
        "code, campaign, shorthand",
        list(_VERDICTS.values()),
        ids=list(_VERDICTS),
    )
    def test_submit_round_trip_against_a_live_service(
        self, tmp_path, capsys, code, campaign, shorthand
    ):
        """``campaign``, its ``evaluate``/``exact`` shorthand and
        ``submit`` exit alike for one spec, and the service stores the
        bytes of ``run_spec``'s report for it."""
        from repro.service import EvaluationService

        assert main(campaign) == code
        assert main(shorthand) == code
        service = EvaluationService(str(tmp_path / "state"), port=0)
        service.start()
        try:
            capsys.readouterr()
            submit = [
                "submit", *campaign[1:],
                "--url", service.address,
                "--timeout", "120",
            ]
            assert main(submit + ["--json"]) == code
            out = capsys.readouterr().out
            spec = EvaluationSpec.from_args(
                build_parser().parse_args(campaign)
            )
            report, _ = run_spec(spec)
            assert out[out.index("{"):] == report.to_json(top=None)

            # Resubmission is answered from the verdict cache.
            assert main(submit) == code
            out = capsys.readouterr().out
            assert "verdict cache hit" in out
            verdict = {0: "PASS", 1: "FAIL", 3: "INCONCLUSIVE"}[code]
            assert f"verdict: {verdict}" in out
            assert service.store.stats.hits == 1
            assert [
                r["result"]["exit_code"] for r in service.store.list_jobs()
            ] == [code, code]
        finally:
            service.stop()

    def test_poll_of_a_running_exact_job(self, monkeypatch, capsys):
        """A poll that finds an exact job running (its progress counts
        shards, not blocks) keeps polling instead of crashing."""
        import repro.cli as cli

        answers = iter([
            (201, {"job_id": "j1", "state": "queued"}),
            (200, {"job_id": "j1", "state": "running", "progress": {
                "probe_class": "g1", "shards_done": 1, "shards_total": 4,
            }}),
            (200, {"job_id": "j1", "state": "done"}),
            (200, {"mode": "exact", "design": "kronecker", "passed": True,
                   "status": "complete", "max_mlog10p": 0.0,
                   "n_skipped": 12}),
        ])

        def round_trip(*args, **kwargs):
            status, body = next(answers)
            return status, json.dumps(body).encode()

        monkeypatch.setattr(cli, "_http_round_trip", round_trip)
        assert main(["submit", "--exact", "--scheme", "eq9"]) == 3
        assert "INCONCLUSIVE (12 probes beyond enumeration budget)" in (
            capsys.readouterr().out
        )

    def test_submit_unreachable_service_exits_two(self, capsys):
        code = main(
            [
                "submit",
                "--url", "http://127.0.0.1:9",  # discard port, never open
                "--simulations", "1000",
                "--timeout", "5",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
