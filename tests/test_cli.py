import json
import os
import subprocess
import sys

import pytest

from packbound.cli import EXIT_CONFIG, EXIT_OK, EXIT_SEARCH, main

from conftest import strict_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mistype_first_r(state_path):
    """Rewrite round 1's "r" in a state.jsonl as the string "1.5"."""
    lines = state_path.read_text().splitlines()
    record = json.loads(lines[0])
    record["r"] = "1.5"
    lines[0] = json.dumps(record, sort_keys=True)
    state_path.write_text("\n".join(lines) + "\n")


class TestCompile:
    def test_emits_sdpa_to_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "compile", "P7 <EOS>", "--r", "1.45", "--R", "2.0",
            "--degree", "2", "--pivots", "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "4" and lines[1] == "1" and lines[2] == "7"

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "inst.dat-s"
        code, _, _ = run_cli(
            capsys, "compile", "P1 <EOS>", "--r", "1.45", "--R", "2.0",
            "--degree", "4", "--pivots", "5", "--out", str(path),
        )
        assert code == EXIT_OK and path.exists()

    def test_bad_sentence_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "compile", "P1 <*> <EOS>", "--r", "1.45", "--R", "2.0"
        )
        assert code == EXIT_CONFIG and "error" in err

    def test_bad_geometry_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "compile", "P7 <EOS>", "--r", "2.0", "--R", "1.0"
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("r, R, name", [("1.45", "1e308", "R"), ("1e200", "1e201", "r")])
    def test_overflowing_square_exits_2(self, capsys, r, R, name):
        code, out, err = run_cli(capsys, "compile", "P1 <EOS>", "--r", r, "--R", R)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {name}^2 overflows a float")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "inst.dat-s"
        code, out, err = run_cli(
            capsys, "compile", "P7 <EOS>", "--r", "1.45", "--R", "2.0",
            "--degree", "2", "--pivots", "3", "--out", str(path),
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_zero_digits_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "compile", "P7 <EOS>", "--r", "1.45", "--R", "2.0",
            "--degree", "2", "--pivots", "3", "--digits", "0",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_exhausted_pivots_exits_2(self, capsys, monkeypatch):
        import packbound.compiler as compiler_mod

        def exhausted(params, K, seed, scheme="plane"):
            raise compiler_mod.PivotGenerationError(K, 0)

        monkeypatch.setattr(compiler_mod, "generate_pivots", exhausted)
        code, out, err = run_cli(
            capsys, "compile", "P7 <EOS>", "--r", "1.45", "--R", "1.46",
            "--degree", "2", "--pivots", "9000",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: pivot generation exhausted")


class TestSolve:
    def test_solves_compiled_instance(self, capsys, tmp_path):
        path = tmp_path / "inst.dat-s"
        run_cli(capsys, "compile", "P1 <EOS>", "--r", "1.45", "--R", "2.0",
                "--degree", "4", "--pivots", "20", "--out", str(path))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["status"] == "converged"
        assert abs(payload["objective"] - 1.0) < 1e-6

    def test_unconverged_result_prints_null_residuals(self, capsys, tmp_path):
        # the instance of test_infeasible_instance_detected: nothing is
        # claimed, so nothing is checked and no residual is printed
        path = self.compile(capsys, tmp_path, "P1 <EOS>", degree=2, pivots=20)
        code, out, _ = run_cli(capsys, "solve", str(path), "--max-iterations", "5000")
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["status"] in ("infeasible-detected", "max_iterations")
        assert payload["equality_residual"] is None and payload["psd_residual"] is None

    def test_zero_size_block_is_solved_and_checked(self, capsys, tmp_path):
        # block 2 is 0x0: minimize X11 subject to X11 = 1 over 2x2 PSD X
        path = tmp_path / "zero.dat-s"
        path.write_text("1\n2\n2 0\n1\n0 1 1 1 1.0\n1 1 1 1 1.0\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_OK and err == ""
        payload = strict_json(out)
        assert payload["status"] == "converged"
        assert abs(payload["objective"] - 1.0) < 1e-6

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "/nonexistent.dat-s")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [
        ("--tol-eq", "0"),
        ("--tol-eq", "inf"),  # would report the first iterate converged
        ("--tol-psd", "nan"),
    ])
    def test_bad_tolerance_exits_2(self, capsys, tmp_path, flag, value):
        path = tmp_path / "inst.dat-s"
        run_cli(capsys, "compile", "P1 <EOS>", "--r", "1.45", "--R", "2.0",
                "--degree", "2", "--pivots", "3", "--out", str(path))
        code, out, err = run_cli(capsys, "solve", str(path), flag, value)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: tolerances")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_iteration_budget_exits_2(self, capsys, tmp_path, budget):
        path = tmp_path / "inst.dat-s"
        run_cli(capsys, "compile", "P1 <EOS>", "--r", "1.45", "--R", "2.0",
                "--degree", "2", "--pivots", "3", "--out", str(path))
        code, out, err = run_cli(capsys, "solve", str(path), "--max-iterations", budget)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: max_iterations")

    def compile(self, capsys, tmp_path, sentence, degree, pivots):
        path = tmp_path / "inst.dat-s"
        run_cli(capsys, "compile", sentence, "--r", "1.45", "--R", "2.0",
                "--degree", str(degree), "--pivots", str(pivots), "--out", str(path))
        return path

    def compile_p7(self, capsys, tmp_path):
        return self.compile(capsys, tmp_path, "P7 <EOS>", degree=2, pivots=3)

    def solve_with_stub(self, capsys, tmp_path, path, *lines):
        stub = tmp_path / "stub_sdpa.py"
        stub.write_text("".join(f"print({line!r})\n" for line in lines))
        code, out, _ = run_cli(capsys, "solve", str(path), "--solver-cmd",
                               f"{sys.executable} {stub}")
        assert code == EXIT_OK
        return strict_json(out)

    def test_solver_cmd_runs_the_command(self, capsys, tmp_path):
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        code, out, _ = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                               "--solver-cmd", stub)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["iterations"] == 7  # the fake's, not ADMM's
        assert payload["message"] == "external phase pdOPT; duality gap 0.0"

    def test_external_with_stub(self, capsys, tmp_path):
        # the fake claims pdOPT, but its identity blocks break the instance's
        # rows: the gate rejects the claim, as a campaign round does
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        code, out, _ = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                               "--solver-cmd", stub, "--tol-eq", "1e-8")
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["status"] == "verification-failed"
        assert payload["equality_residual"] > 10 * 1e-8
        assert payload["psd_residual"] == 0.0

    def test_external_false_objective_fails_verification(self, capsys, tmp_path):
        # the stub's certificate is ADMM's honest one, but it claims objective 0.5
        path = self.compile(capsys, tmp_path, "P6 <EOS>", degree=2, pivots=20)
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'false_objective_sdpa.py')}"
        code, out, _ = run_cli(capsys, "solve", str(path), "--solver-cmd", stub)
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["status"] == "verification-failed"
        assert payload["objective"] == 0.5
        assert payload["equality_residual"] <= 10 * 1e-8 and payload["psd_residual"] >= -1e-8

    def test_external_nan_certificate_fails_verification(self, capsys, tmp_path):
        # P6 <EOS> at d = 1 has one 1x1 block
        path = self.compile(capsys, tmp_path, "P6 <EOS>", degree=1, pivots=20)
        payload = self.solve_with_stub(capsys, tmp_path, path, "phase.value  = pdOPT",
                                       "   objValPrimal = +1.0000000000000000e-01",
                                       "xMat = { {nan} }")
        assert payload["status"] == "verification-failed"
        assert payload["equality_residual"] is None and payload["psd_residual"] is None

    def test_external_misshapen_certificate_fails_verification(self, capsys, tmp_path):
        # the stub claims pdOPT with one 1x1 block; P7 at d = 2 has one 7x7 block
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'misshapen_sdpa.py')}"
        code, out, _ = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                               "--solver-cmd", stub)
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["status"] == "verification-failed"
        assert payload["equality_residual"] is None and payload["psd_residual"] is None

    def test_external_ragged_certificate_is_bad_input(self, capsys, tmp_path):
        # the stub's xMat section, on its line 4, has a block with rows of length 2 and 1
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'ragged_sdpa.py')}"
        code, out, err = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                                 "--solver-cmd", stub)
        assert code == EXIT_CONFIG and out == ""
        assert "rows of unequal length (line 4)" in err

    def test_unconverged_external_prints_null_residuals(self, capsys, tmp_path):
        # SDPA reports no residuals, and nothing was claimed for the gate to check
        payload = self.solve_with_stub(capsys, tmp_path, self.compile_p7(capsys, tmp_path),
                                       "phase.value  = pdINF",
                                       "   objValPrimal = +3.0000000000000000e+00",
                                       "   objValDual   = +1.0000000000000000e+00")
        assert payload["status"] == "infeasible-detected"
        assert payload["equality_residual"] is None and payload["psd_residual"] is None

    def test_external_without_certificate_fails_verification(self, capsys, tmp_path):
        stub = tmp_path / "no_xmat_sdpa.py"
        stub.write_text(
            "print('phase.value  = pdOPT')\n"
            "print('   objValPrimal = +1.0000000000000000e+00')\n"
        )
        code, out, _ = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                               "--solver-cmd", f"{sys.executable} {stub}")
        assert code == EXIT_OK
        assert "NaN" not in out
        payload = strict_json(out)
        assert payload["status"] == "verification-failed"
        assert payload["equality_residual"] is None and payload["psd_residual"] is None

    def test_external_bad_tolerance_exits_2(self, capsys, tmp_path):
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        code, out, err = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                                 "--solver-cmd", stub, "--tol-eq", "0")
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: tolerances")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_external_solver_reads_the_given_file(self, capsys, tmp_path, newline):
        # 40-digit entries such as 4.4205062499999994584...e+0 do not survive
        # a round trip through float64, so only the given bytes will do
        compiled = self.compile(capsys, tmp_path, "P7 <ES> P1 <EOS>", degree=2, pivots=3)
        path = tmp_path / "given.dat-s"
        path.write_bytes(compiled.read_bytes().replace(b"\n", newline.encode()))
        copy = tmp_path / "copy.dat-s"
        stub = f"{sys.executable} {os.path.join(FIXTURES, 'copy_sdpa.py')} {copy}"
        code, out, _ = run_cli(capsys, "solve", str(path), "--solver-cmd", stub)
        assert code == EXIT_OK
        assert strict_json(out)["status"] == "infeasible-detected"
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("solver_cmd, reason", [
        ("   ", "error: solver command '   ' names no program"),
        ('"unbalanced', "error: cannot split solver command '\"unbalanced'"),
    ])
    def test_unsplittable_solver_cmd_exits_2(self, capsys, tmp_path, solver_cmd, reason):
        # checked before the file is read, so a missing file is not what it reports
        code, out, err = run_cli(capsys, "solve", str(tmp_path / "missing.dat-s"),
                                 "--solver-cmd", solver_cmd)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith(reason)

    @pytest.mark.parametrize("solver_cmd", [
        pytest.param(os.path.join(FIXTURES, "no-such-solver"), id="missing-binary"),
        pytest.param(f"{sys.executable} -c 'import sys; sys.exit(3)'", id="nonzero-exit"),
        pytest.param(f"{sys.executable} -c 'print(\"objValPrimal = 1\")'", id="no-phase-value"),
        pytest.param(f"{sys.executable} -c 'print(\"phase.value = pdOPT\"); "
                     "print(\"objValPrimal = nan\")'", id="nan-objective"),
        pytest.param(f"{sys.executable} -c 'print(\"phase.value pdOPT\"); "
                     "print(\"objValPrimal = 1\")'", id="phase-value-without-equals"),
        pytest.param("timeout", id="timeout"),  # solve_external raises TimeoutExpired
    ])
    def test_failed_external_solve_exits_2(self, capsys, tmp_path, monkeypatch, solver_cmd):
        import packbound.cli as cli_mod

        if solver_cmd == "timeout":
            def times_out(inst, cmd):
                raise subprocess.TimeoutExpired(cmd, 3600)

            monkeypatch.setattr(cli_mod, "solve_external", times_out)
        code, out, err = run_cli(capsys, "solve", str(self.compile_p7(capsys, tmp_path)),
                                 "--solver-cmd", solver_cmd)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestSearch:
    def test_finds_sentence(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--r", "1.45", "--R", "2.0", "--pivots", "20",
            "--iterations", "10", "--degree-search", "2", "--degree-final", "2",
            "--seed", "3",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sentence"].endswith("<EOS>")
        assert payload["bound"] > 0

    @pytest.mark.parametrize("flag, value", [
        ("--max-monomials", "0"),
        ("--top-k", "0"),
        ("--pivots", "0"),
        ("--pivots", "9000"),  # more than the region yields: PivotGenerationError
        ("--dim", "0"),
        ("--R", "1e200"),  # R^2 overflows a float
    ])
    def test_bad_search_argument_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "search", "--r", "1.45", "--R", "2.0", "--iterations", "2", flag, value,
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_hopeless_search_exits_4(self, capsys, monkeypatch):
        import packbound.cli as cli_mod
        from packbound.mcts import SearchFailedError

        def always_fails(*args, **kwargs):
            raise SearchFailedError("nothing converged", [])

        monkeypatch.setattr(cli_mod, "run_search", always_fails)
        code, _, err = run_cli(
            capsys, "search", "--r", "1.45", "--R", "2.0", "--iterations", "2",
        )
        assert code == EXIT_SEARCH and "search failed" in err


class TestCampaign:
    def test_short_campaign(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        code, out, _ = run_cli(
            capsys, "campaign", "--budget-rounds", "1", "--pivots", "20",
            "--seed", "5", "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rounds"] == 1
        assert (out_dir / "state.jsonl").exists()

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"pivots": 0}))
        code, _, err = run_cli(capsys, "campaign", "--config", str(cfg))
        assert code == EXIT_CONFIG and "invalid config" in err

    @pytest.mark.parametrize("solver_cmd", ["   ", '"unbalanced'])
    def test_unsplittable_solver_cmd_exits_2(self, capsys, tmp_path, solver_cmd):
        # rejected before any round fits, searches or writes anything
        out_dir = tmp_path / "camp"
        code, out, err = run_cli(capsys, "campaign", "--budget-rounds", "2",
                                 "--solver-cmd", solver_cmd, "--out", str(out_dir))
        assert code == EXIT_CONFIG and out == "" and not out_dir.exists()
        assert err.count("\n") == 1 and err.startswith("invalid config: ")
        assert repr(solver_cmd) in err

    def test_grid3d_with_an_overflowing_box_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "grid3d.json"
        cfg.write_text(json.dumps({"pivot_scheme": "grid3d", "R_hi": 1e78}))
        code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                                 "--out", str(tmp_path / "camp"))
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("invalid config: grid3d pivots need")

    def test_overflowing_box_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "box.json"
        cfg.write_text(json.dumps({"R_hi": 1e200}))
        out_dir = tmp_path / "camp"
        code, out, err = run_cli(capsys, "campaign", "--config", str(cfg), "--out", str(out_dir))
        assert code == EXIT_CONFIG and out == "" and not out_dir.exists()
        assert err.count("\n") == 1 and err.startswith("invalid config: R_hi^2 overflows a float")

    @pytest.mark.parametrize("top_level", [5, []])
    def test_non_object_config_exits_2(self, capsys, tmp_path, top_level):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(top_level))
        code, _, err = run_cli(capsys, "campaign", "--config", str(cfg))
        assert code == EXIT_CONFIG and "invalid config" in err and "JSON object" in err

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("invalid config: ")

    def test_resume_from_bad_state_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        (out_dir / "state.jsonl").write_text(json.dumps({"round": 1, "extra": 2}) + "\n")
        code, out, err = run_cli(
            capsys, "campaign", "--resume", "--budget-rounds", "1",
            "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "'extra'" in err

    def test_resume_from_mistyped_state_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        run_cli(capsys, "campaign", "--budget-rounds", "1", "--pivots", "20",
                "--seed", "5", "--out", str(out_dir), "--quiet")
        mistype_first_r(out_dir / "state.jsonl")
        code, out, err = run_cli(
            capsys, "campaign", "--resume", "--budget-rounds", "2", "--pivots", "20",
            "--seed", "5", "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "'r' at line 1" in err

    def test_resume_with_another_dimension_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        flags = ["--pivots", "20", "--seed", "5", "--out", str(out_dir), "--quiet"]
        run_cli(capsys, "campaign", "--budget-rounds", "1", *flags)
        config = (out_dir / "config.json").read_text()
        state = (out_dir / "state.jsonl").read_text()
        code, out, err = run_cli(capsys, "campaign", "--resume", "--budget-rounds", "2",
                                 "--dim", "4", *flags)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("invalid config: ")
        assert "dimension 8 -> 4" in err
        assert (out_dir / "config.json").read_text() == config
        assert (out_dir / "state.jsonl").read_text() == state

    def test_infinite_eos_bias_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eos_bias": float("inf"), "budget_rounds": 1}))
        out_dir = tmp_path / "camp"
        code, out, err = run_cli(
            capsys, "campaign", "--config", str(cfg), "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("invalid config: ")
        assert "eos_bias" in err and not out_dir.exists()

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        code, out, err = run_cli(
            capsys, "campaign", "--seed", "-1", "--budget-rounds", "1",
            "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("invalid config: ") and "seed" in err
        assert not (out_dir / "config.json").exists()

    def test_io_failure_exits_3(self, capsys, tmp_path):
        from packbound.cli import EXIT_IO

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code, _, err = run_cli(
            capsys, "campaign", "--budget-rounds", "1", "--out", str(blocker), "--quiet",
        )
        assert code == EXIT_IO and "campaign halted" in err

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_rounds": 99, "mcts_iterations": 6, "pivots": 20}))
        out_dir = tmp_path / "camp2"
        code, out, _ = run_cli(
            capsys, "campaign", "--config", str(cfg), "--budget-rounds", "1",
            "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rounds"] == 1  # flag overrode the file

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--dim", "4", "dimension", 4),
        ("--degree-search", "1", "d_search", 1),
        ("--degree-final", "6", "d_final", 6),
        ("--pivots", "20", "pivots", 20),
        ("--budget-rounds", "0", "budget_rounds", 0),
        ("--budget-seconds", "5.5", "budget_seconds", 5.5),
        ("--seed", "9", "seed", 9),
        ("--solver-cmd", "fake-sdpa --digits 40", "solver_cmd", "fake-sdpa --digits 40"),
        ("--out", None, "out_dir", None),  # None: the case's output directory
    ])
    def test_every_flag_reaches_its_field(self, capsys, tmp_path, flag, value, field, expected):
        out_dir = str(tmp_path / "camp")
        argv = ["campaign", flag, out_dir if value is None else value]
        if flag != "--budget-rounds":
            argv += ["--budget-rounds", "0"]
        if flag != "--out":
            argv += ["--out", out_dir]
        code, _, _ = run_cli(capsys, *argv, "--quiet")
        assert code == EXIT_OK
        with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        assert written[field] == (out_dir if expected is None else expected)


class TestReport:
    def test_report_from_state(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        run_cli(capsys, "campaign", "--budget-rounds", "1", "--pivots", "20",
                "--seed", "5", "--out", str(out_dir), "--quiet")
        rep_dir = tmp_path / "rep"
        rep_dir.mkdir()
        code, out, _ = run_cli(
            capsys, "report", str(out_dir / "state.jsonl"), "--out", str(rep_dir)
        )
        assert code == EXIT_OK
        assert (rep_dir / "trace.csv").exists()
        assert json.loads(out)["rounds"] == 1

    def test_mistyped_state_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        run_cli(capsys, "campaign", "--budget-rounds", "1", "--pivots", "20",
                "--seed", "5", "--out", str(out_dir), "--quiet")
        mistype_first_r(out_dir / "state.jsonl")
        rep_dir = tmp_path / "rep"
        rep_dir.mkdir()
        code, out, err = run_cli(
            capsys, "report", str(out_dir / "state.jsonl"), "--out", str(rep_dir)
        )
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "'r' at line 1" in err
        assert not (rep_dir / "trace.csv").exists()

    def test_missing_state_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "report", "/nonexistent.jsonl")
        assert code == EXIT_CONFIG
