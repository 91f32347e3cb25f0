"""Play the full search game: propose (r, R), search sentences, decide, verify, log.

A campaign is a sequence of rounds.  Each round fits the surrogate on the
converged history, proposes the next (r, R), builds one pivot table for it,
runs the tree search at the cheap degree with its finalists decided at the
final degree (every evaluation is solver.solve_exact on that table).  The
round keeps the search's exact decision of the winner's final-degree
instance, or, when solver_cmd is set, assembles that instance from the same
table, emits it as SDPA text and hands the text to the command.  Either way
the result is only a claim, and the round records whatever
solver.check_certificate makes of it on the instance's float image, which
the table builds (PivotTable.instance_arrays).  A claim other than
convergence keeps its status, with no residuals.  A claim of convergence is
"verification-failed" when it has no finite certificate with the instance's
block count and shapes, when the recomputed equality or PSD residual misses
tol_eq (times 10) or tol_psd, or when the claimed objective is not the
recomputed one within 10 * tol_eq (relative).  Only the gate's residuals are
recorded, and the objective and bound only of a round that passes it.  Those
two come from the search's exact decision, never from an external claim,
which the gate's slack lets fall below that objective and so the bound below
the truth.  Each (sentence, degree) is decided at most once a round.  Any
stage failure is recorded with its status and the campaign continues; each
round's record is appended to state.jsonl and flushed to disk, so a killed
process loses at most the in-flight round.  A resume refuses a config that
differs from the campaign's config.json in anything but its budgets and
out_dir.  It then rewrites state.jsonl, atomically, from the records load
accepts, so a torn final record is dropped for good.  Per-round seeds derive
from (base seed, round index), so identical configurations replay
identically and resumed campaigns match uninterrupted ones.  The campaign
never runs the embedded ADMM solver, which serves the CLI and the scripts.
A config.json that still carries a retired field (solver_max_iterations,
mcts_rollouts, mcts_restarts, solver) loads, and the field is ignored; a
retired solver "embedded" also clears solver_cmd, which it made the campaign
ignore, and a retired "external" still needs one.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, List, Optional, get_args, get_type_hints

import numpy as np

from .bo import ACQUISITIONS, Observation, SearchBox, fit_surrogate, propose_next
from .compiler import (PivotGenerationError, PivotTable, check_default_bound, check_pivot_scheme,
                       emit_sdpa)
from .compiler import assemble_sdp  # not called here; perfbench/tracing.py wraps this name
from .grammar import render
from .mcts import (
    RewardCache,
    SearchFailedError,
    check_search_settings,
    make_sdp_evaluator,
    rank_key,
    run_search,
)
from .polys import GeometricParams
from .solver import check_certificate, check_tolerances, solve_external, split_command
from .solver import solve_embedded, verify_certificate  # not called here; the tracer wraps them


class ConfigError(ValueError):
    """Invalid campaign configuration."""


class SchemaError(ValueError):
    """Persisted state does not match the frozen record schema."""


class CampaignIOError(RuntimeError):
    """Unrecoverable I/O failure; state was flushed up to the last full round."""


@dataclass(frozen=True)
class CampaignConfig:
    dimension: int = 8
    r_lo: float = 1.4142135623730951
    r_hi: float = 1.6
    R_lo: float = 1.8
    R_hi: float = 2.6
    d_search: int = 2
    d_final: int = 4
    pivots: int = 50
    pivot_scheme: str = "plane"
    mcts_iterations: int = 24
    top_k: int = 3
    max_monomials: int = 8
    c_explore: float = math.sqrt(2.0)
    eos_bias: float = 2.0
    acquisition: str = "ei"
    bo_starts: int = 4
    bo_max_evals: int = 80
    solver_cmd: str = ""  # an external solver's command line; empty keeps the exact decision
    tol_eq: float = 1e-8
    tol_psd: float = 1e-8
    budget_rounds: int = 10
    budget_seconds: float = 0.0  # 0 disables the wall-clock budget
    seed: int = 0
    out_dir: str = "campaign-out"

    def validate(self) -> None:
        """Raise ConfigError unless every field is usable.

        SearchBox, compiler.check_default_bound, mcts.check_search_settings,
        solver.check_tolerances, compiler.check_pivot_scheme and
        solver.split_command (of a solver_cmd that is set) check in their own
        wording; the rest are the campaign's.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            # a float field also takes an int; bool is an int to isinstance
            kinds = (int, float) if isinstance(f.default, float) else type(f.default)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
        try:
            self.box  # SearchBox owns the box rule
            check_default_bound(self.r_lo, self.dimension)  # every proposal has r >= r_lo
            check_search_settings(self.mcts_iterations, self.d_search, self.d_final,
                                  self.max_monomials, self.top_k, self.c_explore, self.eos_bias)
            check_tolerances(self.tol_eq, self.tol_psd)
            check_pivot_scheme(self.pivot_scheme, self.R_hi)
            if self.solver_cmd:
                split_command(self.solver_cmd)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # numpy rejects a negative seed, but only once config.json is written
        for name, least in (("dimension", 1), ("seed", 0), ("bo_starts", 1), ("bo_max_evals", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.pivots < 1:
            raise ConfigError(f"need at least one pivot, got {self.pivots}")
        # a NaN budget would never be exceeded; 0 is how to disable it
        if self.budget_rounds < 0 or not 0 <= self.budget_seconds < math.inf:
            raise ConfigError(
                f"budgets must be finite and nonnegative, got {self.budget_rounds}, "
                f"{self.budget_seconds}"
            )
        if self.acquisition not in ACQUISITIONS:
            raise ConfigError(f"unknown acquisition {self.acquisition!r}")

    @property
    def box(self) -> SearchBox:
        return SearchBox(self.r_lo, self.r_hi, self.R_lo, self.R_hi)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError(str(exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must hold a JSON object, got {type(raw).__name__}")
        for retired in ("solver_max_iterations", "mcts_rollouts", "mcts_restarts"):
            raw.pop(retired, None)  # no stage reads them; old config.json files carry them
        solver = raw.pop("solver", None)  # retired: a non-empty solver_cmd now means external
        if solver == "embedded":
            raw["solver_cmd"] = ""  # "embedded" ignored the command
        elif solver == "external" and not raw.get("solver_cmd"):
            raise ConfigError("external solver requires solver_cmd")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class RoundRecord:
    round: int
    r: float
    R: float
    sentence: Optional[str]
    d_search: int
    d_final: int
    K: int
    objective: Optional[float]
    bound: Optional[float]
    status: str
    eq_residual: Optional[float]
    psd_residual: Optional[float]
    search_seconds: float
    solve_seconds: float
    seed: int

    @property
    def converged(self) -> bool:
        return self.status == "converged" and self.bound is not None


def _json_kinds(hint) -> tuple:
    """Python types a JSON value of an annotated record field may load as."""
    kinds = get_args(hint) or (hint,)  # Optional[X] is Union[X, None]
    return kinds + (int,) if float in kinds else kinds  # JSON text "2" loads as an int


#: The frozen state.jsonl schema: each field name and the types it may hold.
ROUND_FIELDS = {name: _json_kinds(hint) for name, hint in get_type_hints(RoundRecord).items()}


@dataclass
class GameState:
    """Append-only campaign history with the best-round pointer."""

    rounds: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        expected = len(self.rounds) + 1
        if record.round != expected:
            raise ValueError(f"round index must be {expected}, got {record.round}")
        self.rounds.append(record)

    @property
    def best(self) -> Optional[int]:
        """1-based index of the converged round that ranks first by rank_key."""
        converged = [rec for rec in self.rounds if rec.converged]
        if not converged:
            return None
        return min(converged, key=lambda rec: rank_key(rec.bound, rec.sentence)).round

    def best_record(self) -> Optional[RoundRecord]:
        idx = self.best
        return self.rounds[idx - 1] if idx is not None else None

    def observations(self) -> List[Observation]:
        """Converged rounds as surrogate training data (failed rounds feed nothing)."""
        return [
            Observation(GeometricParams(rec.r, rec.R), rec.bound)
            for rec in self.rounds
            if rec.converged
        ]


def _write_records(path: str, mode: str, records: Iterable[RoundRecord]) -> None:
    """Write records one JSON line each and fsync; numeric fields keep full repr precision."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise CampaignIOError(f"cannot write state to {path}: {exc}") from exc


def persist(state: GameState, path: str) -> None:
    """Rewrite path atomically: a kill mid-rewrite leaves the previous file whole."""
    tmp = path + ".tmp"
    _write_records(tmp, "w", state.rounds)
    try:
        os.replace(tmp, path)
    except OSError as exc:
        raise CampaignIOError(f"cannot write state to {path}: {exc}") from exc


def load(path: str) -> GameState:
    """Strict inverse of persist: unknown, missing or mistyped fields are schema errors.

    A field must hold its record type (a float field also takes an int, and
    bool counts as neither).

    One concession to crash safety: a malformed trailing fragment (a record
    interrupted mid-write by a kill) is dropped with a warning, since losing
    the in-flight round is the documented behaviour.  Malformed lines
    anywhere else still raise.
    """
    import warnings

    state = GameState()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                warnings.warn(f"dropping truncated final record at line {lineno} of {path}")
                break
            raise SchemaError(f"malformed record at line {lineno}")
        if not isinstance(raw, dict):
            raise SchemaError(f"record at line {lineno} is not a JSON object")
        unknown = set(raw) - set(ROUND_FIELDS)
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]!r} at line {lineno}")
        missing = set(ROUND_FIELDS) - set(raw)
        if missing:
            raise SchemaError(f"missing field {sorted(missing)[0]!r} at line {lineno}")
        for name, kinds in ROUND_FIELDS.items():
            value = raw[name]
            if isinstance(value, bool) or not isinstance(value, kinds):
                want = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise SchemaError(f"field {name!r} at line {lineno} must be {want}, "
                                  f"got {value!r}")
        state.append(RoundRecord(**raw))
    return state


def _round_seed(base: int, round_idx: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence([base, round_idx, salt]).generate_state(1)[0])


def play_round(state: GameState, config: CampaignConfig) -> GameState:
    """Run one round and append its record; stage failures append a failed record."""
    config.validate()
    round_idx = len(state.rounds) + 1
    seed = _round_seed(config.seed, round_idx)
    box = config.box

    observations = state.observations()
    surrogate = None
    if observations:
        try:
            surrogate = fit_surrogate(
                observations, box, seed,
                n_starts=config.bo_starts, max_evals=config.bo_max_evals,
            )
        except (np.linalg.LinAlgError, RuntimeError):
            surrogate = None  # fall back to a space-filling proposal
    params = propose_next(surrogate, box, seed, acquisition=config.acquisition)

    search_start = time.monotonic()
    try:
        table = PivotTable(params, config.pivots, seed, config.pivot_scheme)
        out = run_search(
            make_sdp_evaluator(table, config.dimension, RewardCache()),
            iterations=config.mcts_iterations,
            d_search=config.d_search,
            d_final=config.d_final,
            max_monomials=config.max_monomials,
            seed=_round_seed(config.seed, round_idx, salt=1),
            c_explore=config.c_explore,
            top_k=config.top_k,
            eos_bias=config.eos_bias,
        )
    except (PivotGenerationError, SearchFailedError):
        out = None
    search_seconds = time.monotonic() - search_start

    # the search-failed record, overwritten stage by stage as the round gets further
    sentence = objective = bound = eq_res = psd_res = None
    status, solve_seconds = "search-failed", 0.0
    if out is not None:
        sentence = render(out.sentence)
        solve_start = time.monotonic()
        try:
            if config.solver_cmd:  # the dense instance is only for the SDPA file
                res = solve_external(emit_sdpa(
                    table.instance(out.sentence, config.dimension, config.d_final)),
                    config.solver_cmd)
            else:
                res = out.outcome.result  # the search's own d_final decision
            status, eq_res, psd_res = check_certificate(
                table.instance_arrays(out.sentence, config.d_final), res,
                config.tol_eq, config.tol_psd)
            if status == "converged":  # the search's exact decision, not a claim
                objective, bound = out.outcome.objective, out.outcome.bound
        except Exception as exc:
            status = f"solve-error: {type(exc).__name__}"
        solve_seconds = time.monotonic() - solve_start

    state.append(RoundRecord(
        round=round_idx, r=params.r, R=params.R, sentence=sentence,
        d_search=config.d_search, d_final=config.d_final, K=config.pivots,
        objective=objective, bound=bound, status=status,
        eq_residual=eq_res, psd_residual=psd_res,
        search_seconds=search_seconds, solve_seconds=solve_seconds, seed=seed,
    ))
    return state


def run_campaign(
    config: CampaignConfig,
    resume: bool = False,
    progress: bool = False,
) -> GameState:
    """Play rounds until the round or wall-clock budget is hit, flushing each round.

    A resume raises ConfigError, naming each field, when config differs from
    the campaign's config.json in more than its budgets and out_dir.
    """
    config.validate()
    state_path = os.path.join(config.out_dir, "state.jsonl")
    config_path = os.path.join(config.out_dir, "config.json")
    if resume and os.path.exists(config_path):  # the rounds played ran on its settings
        started, now = asdict(CampaignConfig.from_file(config_path)), asdict(config)
        changed = [f"{name} {started[name]!r} -> {value!r}" for name, value in now.items()
                   if value != started[name]
                   and name not in ("budget_rounds", "budget_seconds", "out_dir")]
        if changed:
            raise ConfigError(f"cannot resume {config_path} with other settings: "
                              f"{', '.join(changed)}; only the budgets and out_dir may change")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        config.to_file(config_path)
    except OSError as exc:
        raise CampaignIOError(f"cannot prepare output directory {config.out_dir}: {exc}") from exc

    # rewritten from the records load accepts: a torn final record must not prefix the next
    state = load(state_path) if resume and os.path.exists(state_path) else GameState()
    persist(state, state_path)

    start = time.monotonic()
    while len(state.rounds) < config.budget_rounds:
        if config.budget_seconds and time.monotonic() - start > config.budget_seconds:
            break
        play_round(state, config)
        _write_records(state_path, "a", state.rounds[-1:])
        if progress:
            rec = state.rounds[-1]
            print(
                f"round {rec.round}: (r={rec.r:.4f}, R={rec.R:.4f}) "
                f"status={rec.status} bound={rec.bound}"
            )

    _write_report(state, config)
    return state


def _write_report(state: GameState, config: CampaignConfig) -> None:
    from . import diagnostics

    best = state.best_record()
    report = {
        "rounds": len(state.rounds),
        "converged_rounds": sum(1 for r in state.rounds if r.converged),
        "best_round": best.round if best else None,
        "best_bound": best.bound if best else None,
        "best_sentence": best.sentence if best else None,
        "best_r": best.r if best else None,
        "best_R": best.R if best else None,
        "acquisition": config.acquisition
        + (" (rank-aggregated approximation)" if config.acquisition == "multi" else ""),
    }
    try:
        with open(os.path.join(config.out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        diagnostics.write_campaign_csvs(state, config.out_dir)
    except OSError as exc:
        raise CampaignIOError(f"cannot write report under {config.out_dir}: {exc}") from exc
