import dataclasses
import hashlib
import itertools
import json
import os
import re
import sys
import types

import numpy as np
import pytest

import packbound
from packbound import campaign
from packbound.campaign import (
    CampaignConfig,
    ConfigError,
    GameState,
    RoundRecord,
    SchemaError,
    load,
    persist,
    play_round,
    run_campaign,
)
from packbound.compiler import assemble_sdp, emit_sdpa, make_instance
from packbound.grammar import render, tokenize_and_parse
from packbound.polys import GeometricParams
from packbound.solver import (
    SolverResult,
    SolverStatus,
    check_certificate,
    solve_external,
    verify_certificate,
)

from conftest import strict_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(packbound.__file__)))

FAST = dict(
    budget_rounds=2,
    mcts_iterations=8,
    pivots=20,
    bo_starts=2,
    bo_max_evals=30,
)

# an external solver that reports an infeasible phase and no certificate; a
# nonzero duality gap is not a residual of the instance's rows
PDINF_STUB = (
    "print('phase.value  = pdINF')\n"
    "print('   objValPrimal = +3.0000000000000000e+00')\n"
    "print('   objValDual   = +1.0000000000000000e+00')\n"
)


# sha256 of the round records of the seed 0 and seed 1 default campaigns,
# timings left out and floats written with float.hex, as the scipy-backed
# Nelder-Mead and Sobol sampler produced them.
CAMPAIGN_RECORDS_DIGEST = "fb05efe699f95f18aedfe3f80614e731a07d6a8caae1a93c00dd5709b2845cdb"
# The same over the 100 rounds of the seed 0 to 9 default campaigns.
TEN_CAMPAIGN_RECORDS_DIGEST = "540d4160afe4531b749c36447278a1154653a76d6b4ca556ac700cd7a9582b97"
# The same over the seed 0 default campaign under the other two acquisitions.
OTHER_ACQUISITION_RECORDS_DIGESTS = {
    "multi": "77554af5f9c8ed08b8b589aa519960e71748ab11cca62fc77fcabc5423df22df",
    "ucb": "e2f8dc341c5e6da795850ee3332308d2b209c6af9b7dd6889a845f1befe0aa85",
}


def make_record(round_idx, status="converged", bound=0.3, sentence="P7 <EOS>"):
    converged = status == "converged"
    return RoundRecord(
        round=round_idx, r=1.42 + 0.001 * round_idx, R=2.0, sentence=sentence,
        d_search=2, d_final=4, K=50,
        objective=1.0 if converged else None,
        bound=bound if converged else None,
        status=status,
        eq_residual=1e-10 if converged else None,
        psd_residual=0.0 if converged else None,
        search_seconds=0.5, solve_seconds=0.1, seed=round_idx * 17,
    )


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = CampaignConfig(budget_rounds=3, seed=5, out_dir=str(tmp_path))
        path = tmp_path / "config.json"
        cfg.to_file(str(path))
        assert CampaignConfig.from_file(str(path)) == cfg

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dimension": 8, "frobnicate": 1}))
        with pytest.raises(ConfigError, match="frobnicate"):
            CampaignConfig.from_file(str(path))

    def test_retired_solver_max_iterations_loads(self, tmp_path):
        # config.json files written before the field was retired carry it
        raw = dataclasses.asdict(CampaignConfig(seed=5))
        raw["solver_max_iterations"] = 20000
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert CampaignConfig.from_file(str(path)) == CampaignConfig(seed=5)

    def test_retired_search_fields_load(self, tmp_path):
        # config.json files written before mcts_rollouts and mcts_restarts
        # were retired carry them; an unknown field is still an error
        raw = dataclasses.asdict(CampaignConfig(seed=5))
        raw.update(mcts_rollouts=1, mcts_restarts=1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert CampaignConfig.from_file(str(path)) == CampaignConfig(seed=5)
        raw["mcts_retries"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="mcts_retries"):
            CampaignConfig.from_file(str(path))

    def test_retired_solver_field_loads(self, tmp_path):
        # config.json files written before a command alone named the solver
        # carry "solver"; "embedded" ignored any solver_cmd, "external" ran it
        raw = dataclasses.asdict(CampaignConfig(seed=5))
        path = tmp_path / "config.json"
        raw.update(solver="embedded", solver_cmd="x")
        path.write_text(json.dumps(raw))
        assert CampaignConfig.from_file(str(path)) == CampaignConfig(seed=5)
        raw.update(solver="external", solver_cmd="fake-sdpa --digits 40")
        path.write_text(json.dumps(raw))
        assert CampaignConfig.from_file(str(path)) == CampaignConfig(
            seed=5, solver_cmd="fake-sdpa --digits 40")
        raw.update(solver="external", solver_cmd="")
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="^external solver requires solver_cmd$"):
            CampaignConfig.from_file(str(path))

    @pytest.mark.parametrize("bad", [
        {"r_lo": 2.0, "r_hi": 1.0},
        {"r_lo": 3.0, "r_hi": 3.5, "R_lo": 1.0, "R_hi": 2.0},
        {"d_search": 5, "d_final": 4},
        {"pivots": 0},
        {"solver_cmd": ["sdpa", "-pt", "0"]},  # a command is one string, split by shlex
        {"solver_cmd": '"unbalanced'},  # every round would record solve-error: ValueError
        {"solver_cmd": "   "},  # splits to no program; the .dat-s file itself would run
        {"pivot_scheme": "grid3d", "R_hi": 1e78},  # (R^2)^2 overflows the grid3d candidates
        {"acquisition": "entropy"},
        {"budget_rounds": -1},
        {"budget_seconds": -1.0},
        {"budget_seconds": float("nan")},  # would never be exceeded
        {"budget_seconds": float("inf")},
        {"pivot_scheme": "grid4d"},
        {"top_k": 0},
        {"max_monomials": 0},
        {"mcts_iterations": 0},
        {"eos_bias": 0.0},  # rollouts would never end
        {"eos_bias": -1.0},
        {"eos_bias": float("nan")},
        {"eos_bias": float("inf")},  # draw probabilities would be NaN
        {"dimension": 8.5},  # every round would fail inside the evaluator
        {"dimension": 24},  # objective 1 would give a bound below the Leech lattice's density
        {"r_lo": 1.2},  # objective 1 would give a bound below pi^4/384
        {"pivots": 20.0},  # state.jsonl would record K as a float
        {"seed": 1.5},
        {"budget_rounds": 2.5},  # would play 3 rounds
        {"pivots": True},
        {"r_lo": True},
        {"acquisition": 1},
        {"r_lo": "1.5"},
        {"tol_eq": -1},  # every converged round would fail verification
        {"tol_eq": 0.0},
        {"tol_psd": float("inf")},
        {"tol_psd": float("nan")},
        {"R_hi": float("inf")},  # the first proposal would normalize by an infinite span
        {"r_hi": float("inf"), "R_hi": float("inf")},
        {"c_explore": float("nan")},  # selection would stop descending
        {"c_explore": -1.0},
        {"c_explore": float("inf")},
        {"seed": -1},  # numpy would reject it after config.json is written
        {"bo_starts": -3},
        {"bo_starts": 0},
        {"bo_max_evals": -5},
        {"bo_max_evals": 0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigError):
            dataclasses.replace(CampaignConfig(), **bad).validate()

    @pytest.mark.parametrize("bad", [{"seed": -1}, {"bo_starts": -3}, {"bo_starts": 0},
                                     {"bo_max_evals": -5}, {"bo_max_evals": 0}])
    def test_validation_names_the_field(self, bad):
        (name,) = bad
        with pytest.raises(ConfigError, match=f"^{name} must be >= "):
            dataclasses.replace(CampaignConfig(), **bad).validate()

    @pytest.mark.parametrize("solver_cmd, reason", [
        ('"unbalanced', "cannot split solver command '\"unbalanced'"),
        ("   ", "solver command '   ' names no program"),
    ])
    def test_validation_names_the_solver_command(self, solver_cmd, reason):
        with pytest.raises(ConfigError, match=f"^{re.escape(reason)}"):
            dataclasses.replace(CampaignConfig(), solver_cmd=solver_cmd).validate()

    @pytest.mark.parametrize("fine", [
        {"solver_cmd": "fake-sdpa --digits 40"},  # a missing program fails in the round
        {"solver_cmd": "sdpa -pt '0'"},
        {"pivot_scheme": "grid3d", "R_hi": 1e76},
    ])
    def test_validation_accepts(self, fine):
        dataclasses.replace(CampaignConfig(), **fine).validate()

    def test_int_accepted_for_float_field(self):
        dataclasses.replace(
            CampaignConfig(), r_lo=2, r_hi=2, budget_seconds=0, c_explore=0  # 0: pure exploitation
        ).validate()

    @pytest.mark.parametrize("top_level", [5, [], "config", None])
    def test_from_file_requires_object(self, tmp_path, top_level):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(top_level))
        with pytest.raises(ConfigError, match="JSON object"):
            CampaignConfig.from_file(str(path))


class TestPersistence:
    def test_round_trip_with_failures(self, tmp_path):
        state = GameState()
        state.append(make_record(1))
        state.append(make_record(2, status="search-failed", sentence=None))
        state.append(make_record(3, bound=0.2555))
        path = str(tmp_path / "state.jsonl")
        persist(state, path)
        loaded = load(path)
        assert loaded.rounds == state.rounds
        assert loaded.best == 3

    def test_full_float_precision(self, tmp_path):
        record = dataclasses.replace(make_record(1), bound=0.1 + 0.2, r=1.4142135623730951)
        state = GameState()
        state.append(record)
        path = str(tmp_path / "state.jsonl")
        persist(state, path)
        assert load(path).rounds[0].bound == 0.1 + 0.2
        assert load(path).rounds[0].r == 1.4142135623730951

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "state.jsonl"
        raw = json.loads(json.dumps(dataclasses.asdict(make_record(1))))
        raw["extra_field"] = 1
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(SchemaError, match="extra_field"):
            load(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "state.jsonl"
        raw = dataclasses.asdict(make_record(1))
        raw.pop("bound")
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(SchemaError, match="bound"):
            load(str(path))

    @pytest.mark.parametrize("name, value", [
        ("r", "1.5"),
        ("R", None),
        ("round", True),
        ("K", 50.0),
        ("seed", "17"),
        ("d_final", None),
        ("status", None),
        ("sentence", 7),
        ("bound", "0.3"),
        ("eq_residual", False),
        ("search_seconds", None),
    ])
    def test_mistyped_field_named(self, tmp_path, name, value):
        path = tmp_path / "state.jsonl"
        first = json.dumps(dataclasses.asdict(make_record(1)))
        raw = dataclasses.asdict(make_record(2))
        raw[name] = value
        path.write_text(first + "\n" + json.dumps(raw) + "\n")
        with pytest.raises(SchemaError, match=f"'{name}' at line 2"):
            load(str(path))

    def test_ints_load_into_float_fields(self, tmp_path):
        path = tmp_path / "state.jsonl"
        raw = dataclasses.asdict(make_record(1))
        raw.update(r=1, R=2, objective=1, bound=0, eq_residual=0, psd_residual=0,
                   search_seconds=1, solve_seconds=0)
        path.write_text(json.dumps(raw) + "\n")
        assert load(str(path)).rounds[0] == RoundRecord(**raw)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"round"', "null"])
    def test_non_object_record_rejected(self, tmp_path, line):
        path = tmp_path / "state.jsonl"
        path.write_text(line + "\n" + json.dumps(dataclasses.asdict(make_record(1))) + "\n")
        with pytest.raises(SchemaError, match="line 1 is not a JSON object"):
            load(str(path))

    def test_round_indices_must_be_contiguous(self):
        state = GameState()
        with pytest.raises(ValueError):
            state.append(make_record(2))

    def test_hundred_round_round_trip(self, tmp_path):
        state = GameState()
        for i in range(1, 101):
            status = "converged" if i % 3 else "numeric-failure"
            state.append(make_record(i, status=status, bound=0.3 - 0.0001 * i))
        path = str(tmp_path / "state.jsonl")
        persist(state, path)
        assert load(path).rounds == state.rounds


class TestBestTracking:
    def test_best_is_argmin_over_converged(self):
        state = GameState()
        bounds = [0.31, 0.29, None, 0.30, 0.28, None]
        for i, bound in enumerate(bounds, start=1):
            status = "converged" if bound is not None else "solver-failed"
            state.append(make_record(i, status=status, bound=bound))
            converged = [(r.bound, r.round) for r in state.rounds if r.converged]
            expected = min(converged)[1] if converged else None
            assert state.best == expected

    def test_tie_prefers_fewer_monomials_then_lex(self):
        state = GameState()
        # "P1 <ES> P2 <EOS>" < "P7 <EOS>" as text, but has more monomials
        state.append(make_record(1, bound=0.3, sentence="P1 <ES> P2 <EOS>"))
        state.append(make_record(2, bound=0.3, sentence="P7 <EOS>"))
        assert state.best == 2
        state.append(make_record(3, bound=0.3, sentence="P1 <EOS>"))
        assert state.best == 3  # "P1 <EOS>" < "P7 <EOS>" lexicographically


class TestPlayRound:
    def test_first_round_uses_low_discrepancy_start(self):
        from packbound.bo import propose_next

        config = CampaignConfig(**FAST)
        state = play_round(GameState(), config)
        rec = state.rounds[0]
        from packbound.campaign import _round_seed

        expected = propose_next(None, config.box, _round_seed(config.seed, 1))
        assert (rec.r, rec.R) == (expected.r, expected.R)

    def test_failed_round_appends_and_continues(self):
        # the search assembles with the configured full-dimensional pivot
        # scheme, which renders every instance infeasible, so no sentence
        # converges and the round records a failed search
        config = dataclasses.replace(
            CampaignConfig(**FAST), pivot_scheme="grid3d", mcts_iterations=4
        )
        state = play_round(GameState(), config)
        assert len(state.rounds) == 1
        assert state.rounds[0].status == "search-failed"
        assert not state.rounds[0].converged
        assert state.best is None
        state = play_round(state, config)
        assert len(state.rounds) == 2

    @pytest.mark.parametrize("pivot_scheme", ["plane", "grid3d"])
    def test_round_solves_each_instance_once_with_config_settings(
        self, monkeypatch, pivot_scheme
    ):
        import packbound.campaign as campaign
        import packbound.compiler as compiler
        import packbound.mcts as mcts

        config = dataclasses.replace(CampaignConfig(**FAST), pivot_scheme=pivot_scheme)
        schemes, verified, decided, admm = [], [], [], []
        original_pivots = compiler.generate_pivots
        original_image = compiler.PivotTable.instance_arrays
        original_decide = mcts.solve_exact

        def spy_pivots(*args, **kwargs):
            schemes.append(kwargs["scheme"])
            return original_pivots(*args, **kwargs)

        def spy_image(table, s, d):
            verified.append((table, render(s.canonical()), d))
            return original_image(table, s, d)

        def spy_decide(sentence, d, table):
            decided.append((table, render(sentence.canonical()), d))
            return original_decide(sentence, d, table)

        monkeypatch.setattr(compiler, "generate_pivots", spy_pivots)
        monkeypatch.setattr(compiler.PivotTable, "instance_arrays", spy_image)
        monkeypatch.setattr(compiler.PivotTable, "instance", lambda *a: pytest.fail("dense"))
        monkeypatch.setattr(mcts, "solve_exact", spy_decide)
        monkeypatch.setattr(mcts, "solve_embedded", lambda *a, **k: admm.append(a))
        monkeypatch.setattr(campaign, "solve_embedded", lambda *a, **k: admm.append(a))
        state = play_round(GameState(), config)

        assert admm == []
        # one pivot table a round, built from the config, decides every
        # evaluation of the search; the winner is verified on its float image,
        # and no dense Fraction instance is assembled
        assert schemes == [pivot_scheme]
        table = decided[0][0]
        assert all(t is table for t, _, _ in decided)
        rec = state.rounds[0]
        assert (table.params.r, table.params.R, table.K, table.seed, table.scheme) == (
            rec.r, rec.R, config.pivots, rec.seed, pivot_scheme)
        keys = [(text, d) for _, text, d in decided]
        assert len(keys) == len(set(keys))
        if pivot_scheme == "plane":
            assert rec.converged
            assert verified == [(table, rec.sentence, config.d_final)]
            assert (rec.sentence, config.d_final) in keys
        else:
            assert rec.status == "search-failed" and verified == []

    def test_external_round_assembles_the_instance_once(self, monkeypatch):
        # SDPA emission needs the dense instance; the gate still reads the image
        import packbound.compiler as compiler

        assembled, imaged = [], []
        original_instance = compiler.PivotTable.instance
        original_image = compiler.PivotTable.instance_arrays

        def spy_instance(table, s, n, d):
            assembled.append((table, render(s.canonical()), n, d))
            return original_instance(table, s, n, d)

        def spy_image(table, s, d):
            imaged.append((table, render(s.canonical()), d))
            return original_image(table, s, d)

        monkeypatch.setattr(compiler.PivotTable, "instance", spy_instance)
        monkeypatch.setattr(compiler.PivotTable, "instance_arrays", spy_image)
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        config = CampaignConfig(solver_cmd=cmd, **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "verification-failed"  # the fake's identity blocks
        ((table, text, n, d),) = assembled
        assert (text, n, d) == (rec.sentence, config.dimension, config.d_final)
        assert imaged == [(table, rec.sentence, config.d_final)]

    def test_pivot_generation_failure_is_a_failed_search(self, monkeypatch):
        import packbound.compiler as compiler

        def exhausted(params, K, seed, scheme="plane"):
            raise compiler.PivotGenerationError(K, 3)

        monkeypatch.setattr(compiler, "generate_pivots", exhausted)
        state = play_round(GameState(), CampaignConfig(**FAST))
        rec = state.rounds[0]
        assert rec.status == "search-failed"
        assert rec.sentence is None and rec.solve_seconds == 0.0

    def test_certificate_with_a_negative_eigenvalue_fails_verification(self):
        # X = diag(1, -1e-6) meets the only row exactly, so the equality
        # residual is 0 and only the PSD gate can reject it
        inst = make_instance([2], [], [[[1.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]])
        tol_eq, tol_psd = CampaignConfig.tol_eq, CampaignConfig.tol_psd
        good = SolverResult(SolverStatus.CONVERGED, 1.0, [np.diag([1.0, 0.0])], 0)
        bad = dataclasses.replace(good, primal_blocks=[np.diag([1.0, -1e-6])])
        assert check_certificate(inst, good, tol_eq, tol_psd) == ("converged", 0.0, 0.0)
        status, eq_res, psd_res = check_certificate(inst, bad, tol_eq, tol_psd)
        assert status == "verification-failed"
        assert eq_res == 0.0 and psd_res == pytest.approx(-1e-6, rel=1e-9)


class TestRunCampaign:
    def test_zero_budget_empty_state(self, tmp_path):
        config = CampaignConfig(budget_rounds=0, out_dir=str(tmp_path / "c0"))
        state = run_campaign(config)
        assert state.rounds == []
        report = json.loads((tmp_path / "c0" / "report.json").read_text())
        assert report["rounds"] == 0 and report["best_round"] is None

    def test_campaign_determinism(self, tmp_path):
        cfg_a = CampaignConfig(seed=21, out_dir=str(tmp_path / "a"), **FAST)
        cfg_b = CampaignConfig(seed=21, out_dir=str(tmp_path / "b"), **FAST)
        state_a = run_campaign(cfg_a)
        state_b = run_campaign(cfg_b)
        strip = lambda r: dataclasses.replace(r, search_seconds=0.0, solve_seconds=0.0)
        assert [strip(r) for r in state_a.rounds] == [strip(r) for r in state_b.rounds]

    def test_default_campaign_records_are_pinned(self, tmp_path):
        # Proposals, pivots, searches and bounds of ten shipped-default
        # campaigns, to the last bit.  A change that moves them on purpose
        # updates the digests and says why.
        lines = []
        for seed in range(10):
            state = run_campaign(CampaignConfig(seed=seed, out_dir=str(tmp_path / str(seed))))
            for rec in state.rounds:
                fields = {k: v.hex() if isinstance(v, float) else v
                          for k, v in dataclasses.asdict(rec).items()
                          if k not in ("search_seconds", "solve_seconds")}
                lines.append(json.dumps(fields, sort_keys=True))
        assert len(lines) == 100
        digest = hashlib.sha256("\n".join(lines[:20]).encode()).hexdigest()
        assert digest == CAMPAIGN_RECORDS_DIGEST
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == TEN_CAMPAIGN_RECORDS_DIGEST

    @pytest.mark.parametrize("acquisition", sorted(OTHER_ACQUISITION_RECORDS_DIGESTS))
    def test_other_acquisition_records_are_pinned(self, tmp_path, acquisition):
        # The digests above pin "ei" only; these pin the proposals of the
        # confidence bound and the rank-aggregated mode in a campaign.
        state = run_campaign(CampaignConfig(acquisition=acquisition, out_dir=str(tmp_path)))
        lines = [json.dumps({k: v.hex() if isinstance(v, float) else v
                             for k, v in dataclasses.asdict(rec).items()
                             if k not in ("search_seconds", "solve_seconds")}, sort_keys=True)
                 for rec in state.rounds]
        assert len(lines) == 10
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == OTHER_ACQUISITION_RECORDS_DIGESTS[acquisition]

    def test_resume_matches_uninterrupted(self, tmp_path):
        four = dict(FAST)
        four["budget_rounds"] = 4
        cfg_full = CampaignConfig(seed=33, out_dir=str(tmp_path / "full"), **four)
        full = run_campaign(cfg_full)

        two = dict(FAST)
        two["budget_rounds"] = 2
        cfg_half = CampaignConfig(seed=33, out_dir=str(tmp_path / "part"), **two)
        run_campaign(cfg_half)
        cfg_more = dataclasses.replace(cfg_half, budget_rounds=4)
        resumed = run_campaign(cfg_more, resume=True)

        strip = lambda r: dataclasses.replace(r, search_seconds=0.0, solve_seconds=0.0)
        assert [strip(r) for r in resumed.rounds] == [strip(r) for r in full.rounds]

    def test_resume_with_another_seed_raises(self, tmp_path):
        cfg = CampaignConfig(seed=33, out_dir=str(tmp_path / "s"), **FAST)
        run_campaign(cfg)
        state = (tmp_path / "s" / "state.jsonl").read_text()
        changed = dataclasses.replace(cfg, seed=34, budget_rounds=3)
        with pytest.raises(ConfigError, match="seed 33 -> 34; only the budgets and out_dir may"):
            run_campaign(changed, resume=True)
        assert (tmp_path / "s" / "state.jsonl").read_text() == state
        assert CampaignConfig.from_file(str(tmp_path / "s" / "config.json")) == cfg

    def test_state_file_is_append_only(self, tmp_path):
        two = dict(FAST)
        cfg = CampaignConfig(seed=7, out_dir=str(tmp_path / "ap"), **two)
        run_campaign(cfg)
        first = (tmp_path / "ap" / "state.jsonl").read_text()
        cfg_more = dataclasses.replace(cfg, budget_rounds=3)
        run_campaign(cfg_more, resume=True)
        second = (tmp_path / "ap" / "state.jsonl").read_text()
        assert second.startswith(first)

    def test_outputs_written(self, tmp_path):
        cfg = CampaignConfig(seed=2, out_dir=str(tmp_path / "o"), **FAST)
        run_campaign(cfg)
        for name in ("state.jsonl", "config.json", "report.json",
                     "novelty.csv", "degrees.csv", "trace.csv"):
            assert (tmp_path / "o" / name).exists()

    def test_wall_clock_budget(self, tmp_path, monkeypatch):
        # A round that starts within the budget may be played, so the clock
        # advances a whole second on every reading: the first check is late.
        clock = itertools.count()
        monkeypatch.setattr(campaign, "time", types.SimpleNamespace(
            monotonic=lambda: float(next(clock))))
        cfg = dataclasses.replace(
            CampaignConfig(seed=3, out_dir=str(tmp_path / "w"), **FAST),
            budget_rounds=50, budget_seconds=1e-6,
        )
        state = run_campaign(cfg)
        assert len(state.rounds) == 0


class TestCrashSafety:
    def test_truncated_tail_is_dropped_with_warning(self, tmp_path):
        state = GameState()
        state.append(make_record(1))
        state.append(make_record(2))
        path = str(tmp_path / "state.jsonl")
        persist(state, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"round": 3, "r": 1.4')  # write interrupted mid-record
        with pytest.warns(UserWarning, match="truncated final record"):
            loaded = load(path)
        assert [r.round for r in loaded.rounds] == [1, 2]

    def test_resume_after_torn_record_keeps_campaign_loadable(self, tmp_path):
        import warnings

        cfg = CampaignConfig(seed=11, out_dir=str(tmp_path / "torn"), **FAST)
        run_campaign(cfg)
        state_path = tmp_path / "torn" / "state.jsonl"
        with open(state_path, "a", encoding="utf-8") as fh:
            fh.write('{"round": 3, "r": 1.4')  # killed mid-write of round 3
        with pytest.warns(UserWarning, match="truncated final record"):
            run_campaign(dataclasses.replace(cfg, budget_rounds=3), resume=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = run_campaign(dataclasses.replace(cfg, budget_rounds=4), resume=True)
            loaded = load(str(state_path))
        assert not [w for w in caught if "truncated" in str(w.message)]  # gone for good
        assert [r.round for r in resumed.rounds] == [1, 2, 3, 4]
        assert loaded.rounds == resumed.rounds
        assert len(state_path.read_text().splitlines()) == 4

    def test_malformed_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "state.jsonl"
        good = json.dumps(dataclasses.asdict(make_record(1)))
        path.write_text("not-json\n" + good + "\n")
        with pytest.raises(SchemaError, match="malformed"):
            load(str(path))

    def test_sigkill_mid_campaign_resumable(self, tmp_path):
        import signal
        import subprocess
        import time

        out_dir = tmp_path / "killed"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "packbound", "campaign",
             "--budget-rounds", "50", "--pivots", "20",
             "--seed", "13", "--out", str(out_dir), "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        state_path = out_dir / "state.jsonl"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if state_path.exists() and len(state_path.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("campaign produced no rounds before the deadline")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        loaded = load(str(state_path))
        assert len(loaded.rounds) >= 1
        assert [r.round for r in loaded.rounds] == list(range(1, len(loaded.rounds) + 1))


class TestExternalSolverPath:
    def test_fake_solver_round_trip(self, params):
        inst = assemble_sdp(tokenize_and_parse("P7 <EOS>"), params, n=8, d=2, K=5, seed=0)
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        res = solve_external(emit_sdpa(inst), cmd)
        assert res.status is SolverStatus.CONVERGED
        assert res.objective_value == 1.0
        assert [b.shape for b in res.primal_blocks] == [(7, 7)]

    def test_external_round_verifies_the_fake_certificate(self):
        # the fake's identity blocks violate the instance's equality rows, so
        # verification rejects the claimed optimum
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'fake_sdpa.py')}"
        config = CampaignConfig(solver_cmd=cmd, **FAST)
        rec = play_round(GameState(), config).rounds[0]
        inst = assemble_sdp(
            tokenize_and_parse(rec.sentence), GeometricParams(rec.r, rec.R),
            n=config.dimension, d=config.d_final, K=config.pivots, seed=rec.seed,
        )
        identity = SolverResult(SolverStatus.CONVERGED, 1.0,
                                [np.eye(dim) for dim in inst.block_dims], 7)
        assert rec.status == "verification-failed"
        assert rec.eq_residual == verify_certificate(inst, identity).equality_residual
        assert rec.eq_residual > 10 * config.tol_eq
        assert rec.psd_residual == 0.0
        assert rec.objective is None and rec.bound is None

    def test_external_result_without_certificate_fails_verification(self, tmp_path):
        stub = tmp_path / "no_xmat_sdpa.py"
        stub.write_text(
            "print('phase.value  = pdOPT')\n"
            "print('   objValPrimal = +1.0000000000000000e+00')\n"
            "print('   objValDual   = +1.0000000000000000e+00')\n"
        )
        config = CampaignConfig(solver_cmd=f"{sys.executable} {stub}", **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "verification-failed"
        assert rec.eq_residual is None and rec.psd_residual is None
        assert rec.objective is None and rec.bound is None

    def test_external_misshapen_certificate_fails_verification(self):
        # a claimed optimum whose one 1x1 block fits no block of the winner's
        # instance is a failed verification, not a solve error
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'misshapen_sdpa.py')}"
        rec = play_round(GameState(), CampaignConfig(solver_cmd=cmd, **FAST)).rounds[0]
        assert rec.status == "verification-failed"
        assert rec.eq_residual is None and rec.psd_residual is None
        assert rec.objective is None and rec.bound is None

    def test_external_ragged_certificate_is_a_format_error(self):
        # the stub prints an xMat block with rows of length 2 and 1
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'ragged_sdpa.py')}"
        rec = play_round(GameState(), CampaignConfig(solver_cmd=cmd, **FAST)).rounds[0]
        assert rec.status == "solve-error: FormatError"
        assert rec.eq_residual is None and rec.psd_residual is None
        assert rec.objective is None and rec.bound is None

    def test_external_round_rejects_a_false_objective(self):
        # the stub returns ADMM's honest certificate but claims objective 0.5,
        # half of it; only the objective check can reject the claim
        cmd = f"{sys.executable} {os.path.join(FIXTURES, 'false_objective_sdpa.py')}"
        config = CampaignConfig(solver_cmd=cmd, d_final=2, **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "verification-failed"
        assert rec.eq_residual <= 10 * config.tol_eq and rec.psd_residual >= -config.tol_psd
        assert rec.objective is None and rec.bound is None

    def test_unconverged_external_round_records_no_residuals(self, tmp_path):
        stub = tmp_path / "infeasible_sdpa.py"
        stub.write_text(PDINF_STUB)
        config = CampaignConfig(solver_cmd=f"{sys.executable} {stub}", **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "infeasible-detected"
        assert rec.eq_residual is None and rec.psd_residual is None
        assert rec.objective is None and rec.bound is None

    def test_unconverged_external_campaign_writes_strict_json(self, tmp_path):
        stub = tmp_path / "infeasible_sdpa.py"
        stub.write_text(PDINF_STUB)
        out = tmp_path / "inf"
        run_campaign(CampaignConfig(solver_cmd=f"{sys.executable} {stub}", out_dir=str(out),
                                    **FAST))
        lines = (out / "state.jsonl").read_text().splitlines()
        assert len(lines) == FAST["budget_rounds"]
        for line in lines:
            assert strict_json(line)["status"] == "infeasible-detected"
        assert strict_json((out / "report.json").read_text())["best_bound"] is None

    def test_external_nonzero_exit_is_a_solve_error(self, tmp_path):
        stub = tmp_path / "exit3_sdpa.py"
        stub.write_text(
            "import sys\n"
            f"sys.path.insert(0, {FIXTURES!r})\n"
            "import fake_sdpa\n"
            "fake_sdpa.main()\n"
            "sys.exit(3)\n"
        )
        config = CampaignConfig(solver_cmd=f"{sys.executable} {stub}", **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "solve-error: CalledProcessError"
        assert rec.objective is None and rec.bound is None

    def test_external_missing_program_is_a_solve_error(self):
        # the config check is syntactic: a command that splits passes it
        config = CampaignConfig(solver_cmd=os.path.join(FIXTURES, "no-such-solver"), **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "solve-error: FileNotFoundError"
        assert rec.objective is None and rec.bound is None

    def test_external_timeout_is_a_solve_error(self, tmp_path, monkeypatch):
        import packbound.solver as solver

        stub = tmp_path / "slow_sdpa.py"
        stub.write_text("import time\ntime.sleep(30)\n")
        monkeypatch.setattr(solver, "EXTERNAL_TIMEOUT_S", 0.5)
        config = CampaignConfig(solver_cmd=f"{sys.executable} {stub}", **FAST)
        rec = play_round(GameState(), config).rounds[0]
        assert rec.status == "solve-error: TimeoutExpired"
        assert rec.solve_seconds < 30
