import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packbound.campaign import CampaignConfig
from packbound import compiler
from packbound.compiler import (
    ORIGIN,
    PivotTable,
    assemble_sdp,
    emit_sdpa,
    make_instance,
)
from packbound.grammar import (
    Sentence,
    enumerate_monomials,
    enumerate_sentences,
    render,
    tokenize_and_parse,
)
from packbound.polys import GeometricParams, base_values_at, basis_enumerate, evaluate_basis
from packbound.solver import (
    FormatError,
    SolverResult,
    SolverStatus,
    SparseSystem,
    check_certificate,
    parse_external_output,
    read_sdpa_instance,
    solve_embedded,
    SCREEN_PRIME,
    _block_kernel,
    _kernel_vector,
    _spanning_rows,
    solve_exact,
    system_to_instance,
    verify_certificate,
)

from conftest import block_bytes, monomial_value

BOX = CampaignConfig().box

# canonical sentences of up to three monomials of degree <= 2
SEARCH_SENTENCES = st.lists(
    st.sampled_from(enumerate_monomials(2)), min_size=1, max_size=3, unique=True
).map(lambda ms: Sentence(tuple(ms)).canonical())

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def trivial_instance():
    # one 1x1 block, no homogeneous rows, normalization x = 1, objective c = 1
    return make_instance([1], [], [[[1.0]]], [[[1.0]]])


def pinned_2x2_instance():
    # row <E11, X> = 0 with X PSD forces the first row/column to zero;
    # normalization <E22, X> = 1 then pins X = E22 uniquely; objective 3*x22.
    return make_instance(
        [2],
        [[[[1.0, 0.0], [0.0, 0.0]]]],
        [[[0.0, 0.0], [0.0, 3.0]]],
        [[[0.0, 0.0], [0.0, 1.0]]],
    )


class TestEmbeddedSolver:
    def test_trivial_instance(self):
        res = solve_embedded(trivial_instance())
        assert res.status is SolverStatus.CONVERGED
        assert res.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_unique_solution_recovered(self):
        res = solve_embedded(pinned_2x2_instance())
        assert res.status is SolverStatus.CONVERGED
        assert res.objective_value == pytest.approx(3.0, abs=1e-6)
        assert res.primal_blocks[0] == pytest.approx(np.diag([0.0, 1.0]), abs=1e-6)

    def test_rejects_non_positive_iteration_budget(self):
        # a solve that never ran must not report "max_iterations"
        for budget in (0, -5):
            with pytest.raises(ValueError, match="max_iterations must be at least 1"):
                solve_embedded(trivial_instance(), max_iterations=budget)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            solve_embedded(trivial_instance(), tol_eq=0.0)
        # an infinite tolerance reports any iterate converged; NaN never converges
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                solve_embedded(trivial_instance(), tol_eq=bad)

    def test_determinism_across_runs(self, params):
        inst = assemble_sdp(tokenize_and_parse("P1 <EOS>"), params, n=8, d=4, K=20, seed=0)
        results = [solve_embedded(inst) for _ in range(5)]
        first = results[0]
        for res in results[1:]:
            assert res.status is first.status
            assert res.iterations == first.iterations
            assert res.objective_value == first.objective_value
            assert block_bytes(res) == block_bytes(first)

    def test_reads_the_table_image_as_it_reads_the_instance(self, params):
        # solve_embedded converts an SdpInstance to the float image the
        # table builds directly, so both inputs give the same bits
        s = tokenize_and_parse("P7 <ES> P1 <EOS>")
        table = PivotTable(params, 20, 0)
        from_instance = solve_embedded(table.instance(s, 8, 2))
        from_image = solve_embedded(table.instance_arrays(s, 2))
        assert from_image.status is from_instance.status is SolverStatus.CONVERGED
        assert from_image.iterations == from_instance.iterations
        assert from_image.objective_value == from_instance.objective_value
        assert block_bytes(from_image) == block_bytes(from_instance)

    def test_infeasible_instance_detected(self, params):
        # a single degree-d monomial has a 1x1 block pinned to zero by the
        # rows but to a positive value by the normalization
        inst = assemble_sdp(tokenize_and_parse("P1 <EOS>"), params, n=8, d=2, K=20, seed=0)
        res = solve_embedded(inst, max_iterations=5000)
        assert res.status in (SolverStatus.INFEASIBLE, SolverStatus.MAX_ITERATIONS)
        assert verify_certificate(inst, res).equality_residual > 1e-3

    def test_unbounded_objective_never_converges(self, params):
        # second monomial is negative at the origin with a free feasible ray
        s = tokenize_and_parse("P1 <ES> P1 <*> P2 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=4, K=20, seed=0)
        res = solve_embedded(inst, max_iterations=5000)
        assert res.status is not SolverStatus.CONVERGED

    def test_zero_row_with_rhs_is_infeasible(self):
        inst = make_instance([1], [], [[[1.0]]], [[[0.0]]])
        res = solve_embedded(inst)
        assert res.status is SolverStatus.INFEASIBLE

    def test_monotonicity_in_degree(self, params):
        texts = ["P7 <EOS>", "P1 <EOS>", "P2 <*> P2 <EOS>"]
        for text in texts:
            s = tokenize_and_parse(text)
            objs = {}
            for d in (2, 4):
                inst = assemble_sdp(s, params, n=8, d=d, K=30, seed=0)
                res = solve_embedded(inst)
                if res.status is SolverStatus.CONVERGED:
                    objs[d] = res.objective_value
            if len(objs) == 2:
                assert objs[4] <= objs[2] + 10 * (1e-8 + 1e-8) + 1e-9


class TestKernelVector:
    @pytest.mark.parametrize("rows, in_span", [
        ([], False),
        ([[1, 2]], False),
        ([[1, 0], [1, 1]], True),
        ([[1, 1, 0], [0, 1, 0]], True),   # rank 2 of 3, e_0 = row 0 - row 1
        ([[0, 0, 1]], False),
        ([[0, 1, 1], [0, 2, 2], [0, 0, 3]], False),
        ([[8, 12, 0], [2, 0, -5]], False),  # 16 (1/2, 3/4, 0) and 16 (1/8, 0, -5/16)
    ])
    def test_null_vector_with_nonzero_first_coordinate(self, rows, in_span):
        q = _kernel_vector(rows, 3 if not rows else len(rows[0]))
        if in_span:
            assert q is None
        else:
            assert q[0] > 0 and math.gcd(*q) == 1
            assert all(sum(u * x for u, x in zip(row, q)) == 0 for row in rows)

    # A multiple of the screening prime is zero modulo it but not over the
    # rationals, so the screen leaves its row out; the exact check on every
    # row and the elimination on all rows must put it back.
    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [SCREEN_PRIME, 0, SCREEN_PRIME]],            # q moves: (1, 0, -1)
        [[0, 1, 0], [3 * SCREEN_PRIME, 0, 0]],                   # e_0 enters the span
        [[1, 1, 2], [1 + SCREEN_PRIME, 1, 2], [0, 5, 1]],        # congruent to row 0
    ])
    def test_row_the_screen_misses_still_counts(self, rows):
        assert len(_spanning_rows(rows, 3)) < len(rows)
        assert _kernel_vector(rows, 3) == fraction_kernel_vector(rows, 3)

    def test_screen_agrees_with_full_elimination(self):
        # combinations of a few random rows, some shifted by multiples of the prime
        rng = np.random.default_rng(3)
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            base = [[int(x) for x in rng.integers(-9, 10, dim)]
                    for _ in range(int(rng.integers(1, dim + 1)))]
            rows = []
            for _ in range(int(rng.integers(1, 12))):
                row = [sum(int(c) * b[j] for c, b in zip(rng.integers(-3, 4, len(base)), base))
                       for j in range(dim)]
                if rng.random() < 0.3:
                    row[int(rng.integers(dim))] += int(rng.integers(1, 4)) * SCREEN_PRIME
                rows.append(row)
            assert _kernel_vector(rows, dim) == fraction_kernel_vector(rows, dim)

    def test_residues_near_the_prime_at_dim_100(self):
        # 40 independent rows, every entry within 64 below the prime, and 40
        # sums of pairs of them: an int64 product or sum of residues that is
        # not reduced at once overflows, and the screen then picks other than
        # the 40 rows that span them all.
        dim, rank = 100, 40
        rng = np.random.default_rng(5)
        base = [[SCREEN_PRIME - int(t) for t in rng.integers(1, 64, dim)] for _ in range(rank)]
        rows = base + [[x + y for x, y in zip(base[i], base[(7 * i + 1) % rank])]
                       for i in range(rank)]
        assert _spanning_rows(rows, dim) == list(range(rank))
        q = _kernel_vector(rows, dim)
        assert q == fraction_kernel_vector(rows, dim)
        assert q is not None and q[0] > 0


def fraction_kernel_vector(rows, dim):
    """Reference for _kernel_vector on rational rows: the rows scaled to
    integers one by one, elimination in the same column order."""
    order = list(range(1, dim)) + [0]
    scaled = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    echelon = {}
    for row in scaled:
        r = [row[c] for c in order]
        for pos in range(dim):
            if r[pos] == 0:
                continue
            b = echelon.get(pos)
            if b is None:
                g = math.gcd(*r)
                echelon[pos] = [x // g for x in r]
                break
            f, s = b[pos], r[pos]
            r = [f * x - s * y for x, y in zip(r, b)]
        if dim - 1 in echelon:
            return None
    q = [Fraction(0)] * dim
    q[dim - 1] = Fraction(1)
    for pos in sorted(echelon, reverse=True):
        b = echelon[pos]
        q[pos] = Fraction(-sum(b[t] * q[t] for t in range(pos + 1, dim)), b[pos])
    den = math.lcm(*(x.denominator for x in q))
    out = [0] * dim
    for pos, c in enumerate(order):
        out[c] = q[pos].numerator * (den // q[pos].denominator)
    assert not any(sum(a * b for a, b in zip(row, out)) for row in scaled)
    return out


class TestIntegerRowsAgreeWithFractionRows:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(["plane", "grid3d"]),
        K=st.sampled_from([12, 30]),
        d=st.sampled_from([2, 4]),
        ms=st.lists(st.sampled_from(enumerate_monomials(4)), min_size=1, max_size=4),
        r=st.floats(BOX.r_lo, BOX.r_hi),
        R=st.floats(BOX.R_lo, BOX.R_hi),
    )
    def test_each_block_decides_as_on_fraction_rows(self, scheme, K, d, ms, r, R):
        table = PivotTable(GeometricParams(r, R), K, 0, scheme)
        for m in ms:
            if m.degree > d:
                continue
            k = d - m.degree
            active = [p for p, value in enumerate(table.monomial_values(m)) if value > 0]
            assert table.active_pivots(m) == active
            basis = [evaluate_basis(basis_enumerate(k), p) for p in table.pivots]
            expected = fraction_kernel_vector([basis[p] for p in active], len(basis[0]))
            assert _block_kernel(table, m, k) == expected


class TestExactSolver:
    def decide(self, text, params, d=2, K=20):
        s = tokenize_and_parse(text)
        exact = solve_exact(s, d, PivotTable(params, K, 0))
        return exact, assemble_sdp(s, params, n=8, d=d, K=K, seed=0)

    def test_converged_sentence_carries_a_verified_certificate(self, params):
        res, inst = self.decide("P7 <ES> P1 <EOS>", params)
        assert res.status is SolverStatus.CONVERGED
        assert res.objective_value == 1.0 and res.iterations == 0
        assert res.message == "block 0 (P7) carries the certificate"
        assert [b.shape for b in res.primal_blocks] == [(7, 7), (1, 1)]
        assert not res.primal_blocks[1].any()
        report = verify_certificate(inst, res)
        assert report.equality_residual <= 1e-12
        assert report.psd_residual >= -1e-12
        assert report.objective_recomputed == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_sentence(self, params):
        # P1's 1x1 block at d = 2 is pinned to zero by the rows and to a
        # positive value by the normalization
        res, _ = self.decide("P1 <EOS>", params)
        assert res.status is SolverStatus.INFEASIBLE
        assert res.primal_blocks == []
        assert "block 0 (P1)" in res.message

    def test_unbounded_sentence(self, params):
        # P2 is negative at the origin, and on the plane pivots its block has
        # a kernel vector with a nonzero constant coordinate
        res, inst = self.decide("P7 <ES> P2 <EOS>", params)
        assert res.status is SolverStatus.UNBOUNDED
        assert res.objective_value == -float("inf")
        assert "block 1 (P2)" in res.message
        assert solve_embedded(inst, max_iterations=5000).status is not SolverStatus.CONVERGED

    def test_pivot_outside_the_region_rejected(self, params, monkeypatch):
        # the decision needs m(p) >= 0 at every pivot, so the table checks
        # its pivots when it is built; the origin lies outside the region
        outside = [(Fraction(5, 2), Fraction(3), Fraction(1, 2)), ORIGIN]
        values = [base_values_at(p, params) for p in outside]
        monkeypatch.setattr(compiler, "generate_pivots", lambda *args, **kwargs: (outside, values))
        with pytest.raises(ValueError, match="outside the region"):
            PivotTable(params, 2, 0)

    def test_decisions_and_instances_read_only_the_table(self, params, monkeypatch):
        # every point value a decision or an instance reads was computed
        # when the table was built; neither evaluates a basis vector in
        # rationals, and a decision evaluates no monomial in rationals,
        # which instances still do
        table = PivotTable(params, 20, 0)
        calls = []

        def record(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args: calls.append(name) or original(*args))

        record(compiler, "base_values_at")
        record(compiler, "evaluate_basis")
        record(PivotTable, "monomial_values")
        sentences = [tokenize_and_parse(text) for text in (
            "P7 <ES> P1 <EOS>", "P1 <EOS>", "P7 <ES> P2 <EOS>",
            "P3 <ES> P4 <*> P6 <EOS>", "P2 <*> P4 <ES> P5 <EOS>")]
        for s in sentences:
            for d in (2, 4):
                solve_exact(s, d, table)
        assert calls == []
        for s in sentences:
            for d in (2, 4):
                table.instance(s, 8, d)
                solve_exact(s, d, table)
        assert set(calls) == {"monomial_values"}

    def test_closed_form_oracle_on_plane_pivots(self):
        # On plane pivots P4 vanishes at every pivot, so a block of basis
        # degree >= 1 always has a kernel vector with q[0] != 0 (q.u = P4
        # up to scale); a degree-0 block has one only if its monomial
        # vanishes at every pivot.  The decision then reduces to signs at
        # the origin.
        cases, disagreements = 0, []
        for r, R in ((BOX.r_lo, 1.8), (1.5, 2.4)):
            params = GeometricParams(r, R)
            table = PivotTable(params, 50, 0)
            for d in (2, 4):
                for s in enumerate_sentences(2, 2):
                    monomials = s.canonical().monomials
                    origin = [monomial_value(m, ORIGIN, params) for m in monomials]
                    kernel = [
                        d - m.degree >= 1 or not any(table.monomial_values(m))
                        for m in monomials
                    ]
                    j = next((i for i, v in enumerate(origin) if v > 0), 0)
                    if origin[j] <= 0 or not kernel[j]:
                        expected = SolverStatus.INFEASIBLE
                    elif any(i != j and v < 0 and kernel[i] for i, v in enumerate(origin)):
                        expected = SolverStatus.UNBOUNDED
                    else:
                        expected = SolverStatus.CONVERGED
                    cases += 1
                    if solve_exact(s, d, table).status is not expected:
                        disagreements.append((render(s), d, r, R))
        assert cases == 364
        assert disagreements == []

    @settings(max_examples=60, deadline=None)
    @given(
        s=SEARCH_SENTENCES,
        r=st.floats(BOX.r_lo, BOX.r_hi),
        R=st.floats(BOX.R_lo, BOX.R_hi),
    )
    def test_agrees_with_admm(self, s, r, R):
        params = GeometricParams(r, R)
        exact = solve_exact(s, 2, PivotTable(params, 20, 0))
        inst = assemble_sdp(s, params, n=8, d=2, K=20, seed=0)
        admm = solve_embedded(inst, max_iterations=5000)
        if admm.status is SolverStatus.CONVERGED:
            assert exact.status is SolverStatus.CONVERGED
            assert abs(admm.objective_value - 1.0) <= 1e-6
        if exact.status in (SolverStatus.INFEASIBLE, SolverStatus.UNBOUNDED):
            assert admm.status is not SolverStatus.CONVERGED
        if exact.status is SolverStatus.CONVERGED:
            assert exact.objective_value == 1.0
            report = verify_certificate(inst, exact)
            assert report.equality_residual <= 1e-12
            assert report.psd_residual >= -1e-12


def decision_digest(table):
    """sha256 of solve_exact's status, message, objective and certificate bytes
    for every enumerate_sentences(2, 2) sentence at d = 2 and 4 on the table."""
    digest = hashlib.sha256()
    for d in (2, 4):
        for s in enumerate_sentences(2, 2):
            res = solve_exact(s, d, table)
            digest.update(f"{res.status.value}|{res.message}|{res.objective_value.hex()}|"
                          .encode("utf-8"))
            for block in res.primal_blocks:
                digest.update(repr(block.shape).encode("ascii") + block.tobytes())
    return digest.hexdigest()


# sha256 of decision_digest computed with the Fraction-row decision, which
# evaluated every monomial and basis vector at every pivot in rationals.
PINNED_DECISIONS = [
    (BOX.r_lo, 1.8, 50, "plane",
     "7bf16d17c89d42ca49a6b0f57f13112dae0315e5a4de817eb4713c3d9265e82b"),
    (1.5, 2.4, 50, "plane",
     "cd657a163ee1f112556eaf8e88eb90e689fcde5e2d3d51943d05975b32d430dd"),
    (1.45, 2.0, 12, "grid3d",
     "3f0ebb9ee513c946c81d94338d9ef05c1b191cfc108693b626bcf05d915decf5"),
]


@pytest.mark.parametrize("r, R, K, scheme, digest", PINNED_DECISIONS)
def test_decision_digest(r, R, K, scheme, digest):
    assert decision_digest(PivotTable(GeometricParams(r, R), K, 0, scheme)) == digest


def image_digest(table):
    """sha256 of the shape and bytes of every block of table.instance_arrays(s, 4),
    constraint rows, objective and normalization, for every enumerate_sentences(2, 2)
    sentence (all of degree at most 2, so all fit d = 4)."""
    digest = hashlib.sha256()
    for s in enumerate_sentences(2, 2):
        image = table.instance_arrays(s, 4)
        for row in image.constraints + (image.objective, image.normalization):
            for block in row:
                digest.update(repr(block.shape).encode("ascii") + block.tobytes())
    return digest.hexdigest()


# sha256 of image_digest on the PINNED_DECISIONS tables, computed when
# instance_arrays still built the image from the table's Fraction basis
# vectors (evaluate_basis), before it evaluated each pivot in integers.
PINNED_IMAGES = [
    (BOX.r_lo, 1.8, 50, "plane",
     "67d6fc1b1bceff44d60a2c28a18e0ec333ffe8fa301c62cb66f7fbf61d8bccad"),
    (1.5, 2.4, 50, "plane",
     "8a0791044b18f34e22fd97ffcc57b763e74f9e78f02f0226f54c2ea8f02fc7b1"),
    (1.45, 2.0, 12, "grid3d",
     "8a943fa27f487295d23a7dfbb97acaa127e8ad4b7071cd919a73a7e2a096cb6d"),
]


@pytest.mark.parametrize("r, R, K, scheme, digest", PINNED_IMAGES)
def test_image_digest(r, R, K, scheme, digest):
    assert image_digest(PivotTable(GeometricParams(r, R), K, 0, scheme)) == digest


class TestVerifyCertificate:
    def test_exact_certificate_has_zero_residuals(self):
        inst = trivial_instance()
        res = SolverResult(
            status=SolverStatus.CONVERGED, objective_value=1.0,
            primal_blocks=[np.array([[1.0]])], iterations=1,
        )
        report = verify_certificate(inst, res)
        assert report.equality_residual == 0.0
        assert report.psd_residual == 0.0
        assert report.objective_recomputed == 1.0

    def test_diagonal_perturbation_grows_residual(self):
        inst = trivial_instance()
        res = SolverResult(
            status=SolverStatus.CONVERGED, objective_value=1.0,
            primal_blocks=[np.array([[1.0 + 1e-6]])], iterations=1,
        )
        report = verify_certificate(inst, res)
        # row value 1 + 1e-6 against rhs 1, scaled by 1 + ||N||_F = 2
        assert report.equality_residual == pytest.approx(0.5e-6, rel=1e-6)

    def test_objective_matches_brute_force(self, params):
        rng = np.random.default_rng(42)
        s = tokenize_and_parse("P7 <ES> P1 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=2, K=4, seed=0)
        blocks = [rng.standard_normal((dim, dim)) for dim in inst.block_dims]
        blocks = [0.5 * (B + B.T) for B in blocks]
        res = SolverResult(
            status=SolverStatus.MAX_ITERATIONS, objective_value=0.0,
            primal_blocks=blocks, iterations=0,
        )
        report = verify_certificate(inst, res)
        expected = 0.0
        for C, X in zip(inst.objective, blocks):
            for i in range(len(C)):
                for j in range(len(C)):
                    expected += float(C[i][j]) * X[i, j]
        assert report.objective_recomputed == pytest.approx(expected, rel=1e-12)

    def test_converged_solves_verify(self, params):
        inst = assemble_sdp(tokenize_and_parse("P1 <EOS>"), params, n=8, d=4, K=30, seed=0)
        res = solve_embedded(inst)
        assert res.status is SolverStatus.CONVERGED
        report = verify_certificate(inst, res)
        assert abs(report.objective_recomputed - res.objective_value) <= 10 * 1e-8
        assert report.equality_residual <= 10 * 1e-8
        assert report.psd_residual >= -1e-8

    def test_block_count_mismatch(self):
        inst = trivial_instance()
        res = SolverResult(
            status=SolverStatus.CONVERGED, objective_value=1.0,
            primal_blocks=[np.array([[1.0]]), np.array([[1.0]])], iterations=1,
        )
        with pytest.raises(ValueError, match="block count"):
            verify_certificate(inst, res)

    @pytest.mark.parametrize("claimed, status", [
        (1.0 + 1e-9, "converged"),  # within 10 * tol_eq * (1 + |1|)
        (1.0 + 3e-7, "verification-failed"),
        (0.5, "verification-failed"),
        (math.nan, "verification-failed"),
        (-math.inf, "verification-failed"),
    ])
    def test_gate_checks_the_claimed_objective(self, claimed, status):
        # the certificate is exact; only the objective it claims is at issue
        res = SolverResult(SolverStatus.CONVERGED, claimed, [np.array([[1.0]])], 1)
        assert check_certificate(trivial_instance(), res, 1e-8, 1e-8) == (status, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("d", [0, 1, 2, 4])
    def test_non_finite_certificate_fails_without_residuals(self, params, d, bad):
        # max and min skip a NaN, and eigvalsh raises LinAlgError on one in a larger block
        inst = assemble_sdp(tokenize_and_parse("P7 <EOS>"), params, n=8, d=d, K=4, seed=0)
        blocks = [np.eye(dim) for dim in inst.block_dims]
        blocks[0][0, -1] = bad
        res = SolverResult(SolverStatus.CONVERGED, 1.0, blocks, 1)
        assert check_certificate(inst, res, 1e-8, 1e-8) == ("verification-failed", None, None)

    def test_overflowing_certificate_fails_without_residuals(self):
        # finite entries whose recomputed row values overflow to inf
        ones = [[[1.0, 1.0], [1.0, 1.0]]]
        res = SolverResult(SolverStatus.CONVERGED, 1.0, [np.full((2, 2), 1e308)], 1)
        with np.errstate(over="ignore", invalid="ignore"):
            status = check_certificate(make_instance([2], [], ones, ones), res, 1e-8, 1e-8)
        assert status == ("verification-failed", None, None)

    @pytest.mark.parametrize("d", [2, 4])
    def test_overflowing_symmetrization_fails_without_residuals(self, d):
        # 1.7e308 + 1.7e308 overflows; halving first keeps the blocks finite
        inst = PivotTable(GeometricParams(1.45, 2.0), 20, 0).instance(
            tokenize_and_parse("P6 <EOS>"), 8, d)
        assert inst.block_dims == ((3,) if d == 2 else (13,))
        res = SolverResult(SolverStatus.CONVERGED, 1.0,
                           [np.full((k, k), 1.7e308) for k in inst.block_dims], 1)
        with np.errstate(over="ignore", invalid="ignore"):
            status = check_certificate(inst, res, 1e-8, 1e-8)
        assert status == ("verification-failed", None, None)

    @pytest.mark.parametrize("tol_eq, tol_psd", [(0.0, 1e-8), (1e-8, math.inf),
                                                 (math.nan, 1e-8), (1e-8, math.nan),
                                                 (1e-8, -1.0)])
    def test_gate_rejects_bad_tolerances(self, tol_eq, tol_psd):
        # an infinite tolerance would pass any certificate
        res = SolverResult(SolverStatus.CONVERGED, 1.0, [np.array([[1.0]])], 1)
        with pytest.raises(ValueError, match="^tolerances must be positive and finite"):
            check_certificate(trivial_instance(), res, tol_eq, tol_psd)

    @pytest.mark.parametrize("status", [s for s in SolverStatus if s is not SolverStatus.CONVERGED])
    @pytest.mark.parametrize("blocks", [[], [np.array([[1.0]])], [np.array([[math.nan]])]],
                             ids=["no-blocks", "exact-blocks", "nan-block"])
    def test_gate_records_any_other_claim_as_it_stands(self, status, blocks):
        # nothing was claimed to check, so the claim's own status and no residuals
        res = SolverResult(status, 1.0, blocks, 3)
        assert check_certificate(trivial_instance(), res, 1e-8, 1e-8) == (status.value, None, None)

    @pytest.mark.parametrize("status", [s for s in SolverStatus if s is not SolverStatus.CONVERGED])
    def test_gate_checks_tolerances_whatever_the_claim(self, status):
        res = SolverResult(status, 1.0, [], 0)
        with pytest.raises(ValueError, match="^tolerances must be positive and finite"):
            check_certificate(trivial_instance(), res, 1e-8, math.inf)

    def test_zero_size_block_is_checked(self):
        # a 0x0 block keeps its (0, 0) shape in the image, so its traces are 0
        inst = make_instance([1, 0], [], [[[1.0]], []], [[[1.0]], []])
        res = solve_embedded(inst)
        assert res.status is SolverStatus.CONVERGED
        assert [mat.shape for mat in res.primal_blocks] == [(1, 1), (0, 0)]
        status, eq_res, psd_res = check_certificate(inst, res, 1e-8, 1e-8)
        assert status == "converged" and eq_res <= 1e-7 and psd_res == 0.0


class TestSdpaRoundTrip:
    def test_parse_back_reproduces_entries(self, params):
        inst = assemble_sdp(tokenize_and_parse("P7 <ES> P1 <EOS>"), params, n=8, d=2, K=3, seed=0)
        text = emit_sdpa(inst)
        system = read_sdpa_instance(text)
        assert system.block_dims == inst.block_dims
        assert system.n_rows == len(inst.constraints) + 1
        # every emitted nonzero reappears exactly (40 digits cover a float)
        expected = {}
        for row_idx, blocks in [(0, inst.objective)] + [
            (j + 1, row) for j, row in enumerate(inst.constraints)
        ] + [(len(inst.constraints) + 1, inst.normalization)]:
            for b, mat in enumerate(blocks):
                for i in range(len(mat)):
                    for j in range(i, len(mat)):
                        if mat[i][j] != 0:
                            expected[(row_idx, b + 1, i + 1, j + 1)] = float(mat[i][j])
        parsed = {(r, b, i, j): v for r, b, i, j, v in system.entries}
        assert parsed == pytest.approx(expected)

    def test_solve_from_parsed_system(self, params):
        inst = assemble_sdp(tokenize_and_parse("P1 <EOS>"), params, n=8, d=4, K=20, seed=0)
        rebuilt = system_to_instance(read_sdpa_instance(emit_sdpa(inst)))
        res_a = solve_embedded(inst)
        res_b = solve_embedded(rebuilt)
        assert res_b.status is SolverStatus.CONVERGED
        assert res_b.objective_value == pytest.approx(res_a.objective_value, abs=1e-7)

    def test_truncated_file_rejected(self):
        with pytest.raises(FormatError):
            read_sdpa_instance("2\n1\n")

    @pytest.mark.parametrize("text, message", [
        ("x\n1\n1\n1\n", r"^bad header: .* \(line 1\)$"),
        ("1\n1\n1 2\n1\n", r"^expected 1 block sizes, got 2 \(line 3\)$"),
        ("2\n1\n1\n1\n", r"^expected 2 right-hand sides, got 1 \(line 4\)$"),
        # a diagonal block, whose off-diagonal entry the file nonetheless sets
        ("2\n2\n1 -2\n0 1\n0 1 1 1 1.0\n2 2 1 2 0.5\n",
         r"^block 2 has size -2, a diagonal block; only dense blocks are read \(line 3\)$"),
    ], ids=["non-integer", "block-sizes", "right-hand-sides", "negative-block-size"])
    def test_bad_header_names_line(self, text, message):
        with pytest.raises(FormatError, match=message):
            read_sdpa_instance(text)

    @pytest.mark.parametrize("system, message", [
        (SparseSystem(0, (1,), (), ()), "need at least the normalization row"),
        (SparseSystem(2, (1,), (1.0, 1.0), ()), "expected right-hand sides of K zeros then 1"),
        (SparseSystem(2, (1,), (0.0, 2.0), ()), "expected right-hand sides of K zeros then 1"),
    ], ids=["no-rows", "nonzero-homogeneous", "normalization-not-1"])
    def test_system_outside_the_emitters_layout_rejected(self, system, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            system_to_instance(system)

    def test_malformed_entry_names_line(self):
        text = "1\n1\n1\n1\n0 1 1 1 not-a-number\n"
        with pytest.raises(FormatError) as err:
            read_sdpa_instance(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("entry, what", [
        ("1 1 0 1 2.0", "index"),        # matrix indices are 1-based
        ("1 2 1 1 2.0", "block"),        # one block in the header
        ("3 1 1 1 2.0", "row"),          # rows 0..2 in the header
        ("1 1 1 3 2.0", "index"),        # the block is 2x2
        ("1 1 1 1 inf", "finite"),
        ("1 1 1 1 1e400", "finite"),     # overflows a float to inf
        ("1 1 1 1 nan", "finite"),
    ])
    def test_out_of_range_entry_names_line(self, entry, what):
        text = f"2\n1\n2\n0 1\n0 1 1 1 1.0\n{entry}\n"
        with pytest.raises(FormatError, match=what) as err:
            read_sdpa_instance(text)
        assert err.value.line == 6

    def test_comments_tolerated(self):
        text = '"comment\n1\n1\n1\n1\n0 1 1 1 2.0\n'
        system = read_sdpa_instance(text)
        assert system.entries[0][4] == 2.0

    def test_comments_and_blanks_among_entries_skipped(self):
        text = '2\n1\n2\n0 1\n0 1 1 1 1.0\n* note\n\n   \n  "quoted\n1 1 1 2 2.0\n'
        system = read_sdpa_instance(text)
        assert system.entries == ((0, 1, 1, 1, 1.0), (1, 1, 1, 2, 2.0))
        with pytest.raises(FormatError, match="row 3 outside") as err:
            read_sdpa_instance(text + "* again\n\n3 1 1 1 2.0\n")
        assert err.value.line == 13

    @pytest.mark.parametrize("entry, fields", [("1 1 1 1", 4), ("1 1 1 1 2.0 3.0", 6)])
    def test_wrong_field_count_names_line(self, entry, fields):
        text = f"2\n1\n2\n0 1\n0 1 1 1 1.0\n\n{entry}\n"
        with pytest.raises(FormatError, match=f"expected 5 fields, got {fields}") as err:
            read_sdpa_instance(text)
        assert err.value.line == 7

    def test_noncanonical_integers_and_repeated_values(self):
        # int() reads 01, +1, 0_1 and 002 as in-range integers; a value
        # token may repeat on any number of lines
        text = "2\n1\n2\n0 1\n01 1 +1 2 2.5\n+2 01 0_1 002 2.5\n0 1 1 1 2.5\n0 1 2 2 -0.0\n"
        system = read_sdpa_instance(text)
        assert system.entries == ((1, 1, 1, 2, 2.5), (2, 1, 1, 2, 2.5), (0, 1, 1, 1, 2.5),
                                  (0, 1, 2, 2, -0.0))
        assert math.copysign(1.0, system.entries[3][4]) == -1.0

    def test_indices_of_a_block_larger_than_the_file(self):
        text = "1\n2\n1000 3\n1\n1 1 999 1000 1.0\n1 2 3 3 2.0\n"
        system = read_sdpa_instance(text)
        assert system.block_dims == (1000, 3)
        assert system.entries == ((1, 1, 999, 1000, 1.0), (1, 2, 3, 3, 2.0))
        with pytest.raises(FormatError, match="outside block 1 of size 1000"):
            read_sdpa_instance(text + "1 1 1 1001 1.0\n")


class TestParseExternalOutput:
    def fixture(self, name):
        with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
            return fh.read()

    def test_optimal_phase(self):
        res = parse_external_output(self.fixture("sdpa_output_optimal.txt"))
        assert res.status is SolverStatus.CONVERGED
        assert res.objective_value == 0.99999999987654321
        assert res.iterations == 23
        assert len(res.primal_blocks) == 2
        assert res.primal_blocks[0] == pytest.approx(
            np.array([[0.99999999987654, 0.0], [0.0, 0.25]])
        )
        assert res.primal_blocks[1] == pytest.approx(np.array([[3.0]]))

    def test_infeasible_phase(self):
        res = parse_external_output(self.fixture("sdpa_output_infeasible.txt"))
        assert res.status is SolverStatus.INFEASIBLE

    def test_duality_gap_is_not_a_residual(self):
        text = self.fixture("sdpa_output_infeasible.txt").replace(
            "objValDual   = +0.0000000000000000e+00", "objValDual   = +2.5000000000000000e-01")
        res = parse_external_output(text)
        assert res.status is SolverStatus.INFEASIBLE
        assert res.message == "external phase pdINF; duality gap 0.25"

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_objective_rejected(self, value):
        text = self.fixture("sdpa_output_optimal.txt").replace(
            "objValPrimal = +9.9999999987654321e-01", f"objValPrimal = {value}")
        with pytest.raises(FormatError, match="not finite") as err:
            parse_external_output(text)
        assert err.value.line == 8

    def test_unknown_phase_is_conservative(self):
        text = self.fixture("sdpa_output_optimal.txt").replace("pdOPT", "pdFEAS")
        assert parse_external_output(text).status is SolverStatus.MAX_ITERATIONS

    @pytest.mark.parametrize("section, message", [
        ("xMat = { { {1.0, 2.0}, {3.0} } }", "rows of unequal length"),
        ("xMat = { {1.0, abc} }", "bad xMat entry"),
        ("xMat =", "no opening brace"),
        ("xMat = { { {1.0, 0.0}, {0.0, 1.0} }", "not terminated"),
        ("xMat = }\n{ {1.0} }", "closes a brace it never opened"),
    ])
    def test_malformed_xmat_rejected_at_its_line(self, section, message):
        text = self.fixture("sdpa_output_optimal.txt")
        text = text[:text.index("xMat")] + section + "\n"
        with pytest.raises(FormatError, match=message) as err:
            parse_external_output(text)
        assert err.value.line == 13

    def test_unreadable_objective_rejected_at_its_line(self):
        text = "phase.value  = pdOPT\n   objValPrimal = abc\n"
        with pytest.raises(FormatError, match=r"^unreadable objValPrimal: .* \(line 2\)$"):
            parse_external_output(text)

    def test_phase_value_without_equals_rejected_at_its_line(self):
        text = self.fixture("sdpa_output_optimal.txt").replace(
            "phase.value  = pdOPT", "phase.value  pdOPT")
        with pytest.raises(FormatError, match="unreadable phase.value") as err:
            parse_external_output(text)
        assert err.value.line == 7

    def test_truncated_output_rejected(self):
        with pytest.raises(FormatError):
            parse_external_output(self.fixture("sdpa_output_truncated.txt"))
