"""The benchmark's three workloads, their seeded inputs and their output checks.

Each workload builds its inputs from the seed in its constructor (that is the
set-up the benchmark times) and then runs whole units of work, one operation
at a time, through `run_unit()`.  A unit repeats exactly the same work, so its
fingerprint (the results that do not depend on timing) must repeat too.
Constructors take (seed, tiny, trace, work_dir): `tiny` shrinks the inputs
for the smoke test, and only desk-campaign sizes its unit by `trace`.
Between operations a workload ticks a `Probe` (probe.py), which measures the
machine's current speed; the unit's wall time in reference seconds follows
from it.

* desk-campaign: two shipped ten-round campaigns.  An operation is a round.
* bo-loop: the outer GP loop against a seeded closed-form surface, so the
  compiler and the solver do no work.  An operation is a BO step.
* sdpa-export: exact assembly, 40-digit SDPA emission and parse-back.  An
  operation is an instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace
from decimal import Decimal, localcontext
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from probe import Probe

# pi to 64 digits; pi^4/384 is the E8 packing density, the best possible
# bound in dimension 8.  A reported bound below it is unsound.
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")
with localcontext() as _ctx:
    _ctx.prec = 80
    E8_DENSITY = _PI**4 / 384


def below_e8(bound: float) -> bool:
    """Exact comparison: Decimal(float) is the float's exact value."""
    return Decimal(bound) < E8_DENSITY


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Unit:
    wall_s: float
    wall_ref_s: float
    op_seconds: List[float]
    op_failed: List[bool]
    fingerprint: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    quality: Dict[str, Optional[float]] = field(default_factory=dict)


class _OpTimer:
    """Times each call through `module.attr` (one call is one operation).

    The probe ticks before each call, outside the timed interval.
    """

    def __init__(self, module, attr: str, probe: Probe):
        self.module, self.attr, self.probe = module, attr, probe
        self.seconds: List[float] = []
        self.midpoints: List[float] = []

    def __enter__(self):
        fn = self.fn = getattr(self.module, self.attr)

        def timed(*args, **kwargs):
            self.probe.tick()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.seconds.append(end - start)
                self.midpoints.append((start + end) / 2.0)

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.fn)


class DeskCampaign:
    """run_campaign(CampaignConfig(seed=s, out_dir=<tmp>)) with shipped defaults.

    A unit plays two campaigns, s = 2*seed and 2*seed + 1.  Most of a campaign's time goes to the few
    dozen solves that never converge, and how many there are depends on the
    campaign's seed: single campaigns differ by about a fifth in work, two
    together by less.  A traced run, which plays its unit twice, plays only
    the first campaign.
    """

    name = "desk-campaign"

    def __init__(self, seed: int, tiny: bool, trace: bool, work_dir: str):
        from packbound.campaign import CampaignConfig

        self.work_dir = work_dir
        overrides = {"budget_rounds": 2, "mcts_iterations": 4} if tiny else {}
        seeds = [2 * seed] if tiny or trace else [2 * seed, 2 * seed + 1]
        self.configs = [CampaignConfig(seed=s, **overrides) for s in seeds]
        for config in self.configs:
            config.validate()

    def run_unit(self) -> Unit:
        from packbound import campaign

        probe = Probe()
        rounds, problems, wall = [], [], 0.0
        with _OpTimer(campaign, "play_round", probe) as timer:
            for config in self.configs:
                with tempfile.TemporaryDirectory(dir=self.work_dir) as out:
                    config = replace(config, out_dir=out)
                    spent = probe.spent
                    start = perf_counter()
                    state = campaign.run_campaign(config)
                    wall += perf_counter() - start - (probe.spent - spent)
                    problems += self._check(state, config, out)
                rounds += state.rounds
        probe.sample()

        failed = [not rec.converged or below_e8(rec.bound) for rec in rounds]
        sound = [rec.bound for rec, bad in zip(rounds, failed) if not bad]
        best = min(sound) if sound else None
        timing_free = [{k: v for k, v in asdict(rec).items()
                        if k not in ("search_seconds", "solve_seconds")}
                       for rec in rounds]
        return Unit(
            wall_s=wall,
            wall_ref_s=_rescaled(wall, probe, timer.seconds, timer.midpoints),
            op_seconds=timer.seconds,
            op_failed=failed,
            fingerprint={"best_bound": best, "rounds": json.dumps(timing_free, sort_keys=True)},
            problems=problems,
            quality={"best_bound": best},
        )

    @staticmethod
    def _check(state, config, out: str) -> List[str]:
        from packbound.campaign import load

        problems = []
        label = f"campaign seed {config.seed}"
        if len(state.rounds) != config.budget_rounds:
            problems.append(f"{label}: {len(state.rounds)} rounds played, "
                            f"{config.budget_rounds} budgeted")
        reloaded = load(os.path.join(out, "state.jsonl"))
        dump = [json.dumps(asdict(r), sort_keys=True) for r in state.rounds]
        if [json.dumps(asdict(r), sort_keys=True) for r in reloaded.rounds] != dump:
            problems.append(f"{label}: state.jsonl does not round-trip through campaign.load")
        for rec in state.rounds:
            if rec.converged and not (rec.eq_residual is not None
                                      and rec.eq_residual <= 10 * config.tol_eq):
                problems.append(f"{label}, round {rec.round}: converged with equality residual "
                                f"{rec.eq_residual} > 10 * tol_eq")
        return problems


class BoLoop:
    """fit_surrogate + propose_next against a seeded smooth surface.

    The surface, in box-normalized coordinates z, is a positive definite
    quadratic plus a nonnegative ripple, both zero at an interior minimiser
    z*, so its minimum value f_min is known exactly.
    """

    name = "bo-loop"

    def __init__(self, seed: int, tiny: bool, trace: bool, work_dir: str):
        from packbound.campaign import CampaignConfig

        config = CampaignConfig()
        self.seed = seed
        self.box = config.box
        self.n_starts = config.bo_starts
        self.max_evals = config.bo_max_evals
        self.acquisition = config.acquisition
        self.rounds = 8 if tiny else 120
        rng = np.random.default_rng(seed)
        self.z_star = rng.uniform(0.25, 0.75, size=2)
        a = rng.uniform(0.05, 0.15, size=2)
        c = rng.uniform(-0.5, 0.5) * math.sqrt(a[0] * a[1])
        self.quad = np.array([[a[0], c], [c, a[1]]])
        self.ripple = rng.uniform(0.002, 0.01)
        self.f_min = float(rng.uniform(0.26, 0.30))

    def value(self, r: float, R: float) -> float:
        dz = self.box.normalize(np.array([r, R])) - self.z_star
        ripple = self.ripple * float(np.sum(np.sin(2.0 * math.pi * dz) ** 2))
        return self.f_min + float(dz @ self.quad @ dz) + ripple

    def run_unit(self) -> Unit:
        from packbound import bo
        from packbound.polys import GeometricParams

        probe = Probe()
        observations: List[bo.Observation] = []
        seconds, midpoints, failed, proposals, problems = [], [], [], [], []
        start = perf_counter()
        for i in range(1, self.rounds + 1):
            probe.tick()
            s = round_seed(self.seed, i)
            fit_failed = False
            op_start = perf_counter()
            surrogate = None
            if observations:
                try:
                    surrogate = bo.fit_surrogate(observations, self.box, s,
                                                 n_starts=self.n_starts, max_evals=self.max_evals)
                except (np.linalg.LinAlgError, RuntimeError):
                    fit_failed = True
            p = bo.propose_next(surrogate, self.box, s, acquisition=self.acquisition)
            op_end = perf_counter()
            seconds.append(op_end - op_start)
            midpoints.append((op_start + op_end) / 2.0)
            failed.append(fit_failed)
            if not (self.box.contains(p) and p.r < p.R):
                problems.append(f"step {i}: proposal ({p.r}, {p.R}) outside the box or r >= R")
            proposals.append((p.r, p.R))
            observations.append(bo.Observation(GeometricParams(p.r, p.R), self.value(p.r, p.R)))
        wall = perf_counter() - start - probe.spent
        probe.sample()
        regret = min(o.y for o in observations) - self.f_min
        return Unit(
            wall_s=wall,
            wall_ref_s=_rescaled(wall, probe, seconds, midpoints),
            op_seconds=seconds,
            op_failed=failed,
            fingerprint={"bo_regret": regret, "proposals": json.dumps(proposals)},
            problems=problems,
            quality={"bo_regret": regret},
        )


# Basis degrees of the instances: the median instance is always the middle
# one of five at d = 5.  Every sentence pairs one degree-1 with one degree-2
# monomial, which keeps the amount of exact arithmetic nearly the same for
# every seed; the seed picks the monomials and (r, R).  Monomials with a P4
# factor are left out: P4 vanishes on every default pivot, so their
# constraint blocks are all zero and would make the work depend on the draw.
SDPA_DEGREES = (4, 4, 5, 5, 5, 5, 5, 6, 6)
SDPA_PIVOTS = 50
SDPA_DIGITS = 40


class SdpaExport:
    """assemble_sdp at d=4..6, emit_sdpa at 40 digits, read back, rebuild."""

    name = "sdpa-export"

    def __init__(self, seed: int, tiny: bool, trace: bool, work_dir: str):
        from packbound import grammar
        from packbound.campaign import CampaignConfig
        from packbound.polys import GeometricParams

        config = CampaignConfig()
        rng = np.random.default_rng(seed)
        pools: Dict[int, list] = {1: [], 2: []}
        for m in grammar.enumerate_monomials(2):
            if m.degree in pools and m.alpha[3] == 0:
                pools[m.degree].append(m)
        self.instances = []
        for index, d in enumerate(SDPA_DEGREES[:2] if tiny else SDPA_DEGREES):
            picked = tuple(pools[k][int(rng.integers(len(pools[k])))] for k in (1, 2))
            text = grammar.render(grammar.Sentence(picked).canonical())
            sentence = grammar.tokenize_and_parse(text)
            params = GeometricParams(r=float(rng.uniform(config.r_lo, config.r_hi)),
                                     R=float(rng.uniform(config.R_lo, config.R_hi)))
            self.instances.append((d, sentence, params, round_seed(seed, index)))
        self.dimension = config.dimension
        self.checked = False

    def run_unit(self) -> Unit:
        from packbound import compiler, solver

        probe = Probe()
        digest = hashlib.sha256()
        seconds, midpoints, problems = [], [], []
        for d, sentence, params, inst_seed in self.instances:
            probe.tick()
            start = perf_counter()
            inst = compiler.assemble_sdp(sentence, params, n=self.dimension, d=d,
                                         K=SDPA_PIVOTS, seed=inst_seed)
            text = compiler.emit_sdpa(inst, digits=SDPA_DIGITS)
            system = solver.read_sdpa_instance(text)
            back = solver.system_to_instance(system)
            end = perf_counter()
            seconds.append(end - start)
            midpoints.append((start + end) / 2.0)
            digest.update(text.encode("ascii"))
            if not self.checked:
                problems += _parse_back_problems(inst, system, back)
        self.checked = True
        probe.sample()
        return Unit(
            wall_s=sum(seconds),
            wall_ref_s=probe.reference_seconds(seconds, midpoints),
            op_seconds=seconds,
            op_failed=[False] * len(seconds),
            fingerprint={"digest": digest.hexdigest()},
            problems=problems,
        )


def _rescaled(wall: float, probe: Probe, seconds: List[float], midpoints: List[float]) -> float:
    """wall in reference seconds, at the operations' time-weighted probe speed."""
    return wall * probe.reference_seconds(seconds, midpoints) / sum(seconds)


def _parse_back_problems(inst, system, back) -> List[str]:
    """The parsed file and the rebuilt instance have the instance's counts."""
    label = inst.meta.sentence
    problems = []
    entries = sum(
        1
        for row in (inst.objective, *inst.constraints, inst.normalization)
        for mat in row
        for i, line in enumerate(mat)
        for x in line[i:]
        if x != 0
    )
    if system.n_rows != inst.n_rows or back.n_rows != inst.n_rows:
        problems.append(f"{label}: row count {system.n_rows}/{back.n_rows}, expected {inst.n_rows}")
    if system.block_dims != inst.block_dims or back.block_dims != inst.block_dims:
        problems.append(f"{label}: block dims {system.block_dims}, expected {inst.block_dims}")
    if len(system.entries) != entries:
        problems.append(f"{label}: {len(system.entries)} entries parsed, {entries} emitted")
    return problems


WORKLOADS = {w.name: w for w in (DeskCampaign, BoLoop, SdpaExport)}
