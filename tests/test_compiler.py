import hashlib
import math
import os
from decimal import ROUND_DOWN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packbound import compiler
from packbound.campaign import CampaignConfig
from packbound.compiler import (
    ORIGIN,
    PIVOT_SCHEMES,
    PivotGenerationError,
    PivotTable,
    SdpInstance,
    assemble_sdp,
    block_arrays,
    check_default_bound,
    compute_bound,
    emit_sdpa,
    format_fraction,
    generate_pivots,
    instance_arrays,
    make_instance,
    moment_pattern,
)
from packbound.grammar import tokenize_and_parse
from packbound.polys import GeometricParams, base_values_at, basis_enumerate, evaluate_basis
from packbound.solver import FormatError, SparseSystem, read_sdpa_instance, system_to_instance

from conftest import monomial_value
from test_exact_ratio import check_exact_ratio

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# pi to 100 decimals: pi lies in [PI_100, PI_100 + 1e-100]
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679"
)


def half_ball_volume_bounds(n):
    """Bounds on the volume of the radius-1/2 n-ball by V_n = 2 pi / n V_(n-2)."""
    bounds = []
    for pi in (PI_100, PI_100 + Fraction(1, 10**100)):
        volume = [Fraction(1), Fraction(2)]
        for k in range(2, n + 1):
            volume.append(2 * pi / k * volume[k - 2])
        bounds.append(volume[n] / 2**n)
    return tuple(bounds)


def nonnegative(values):
    """True iff P1..P6 are all >= 0, given (P1, ..., P7) at a point."""
    return all(v >= 0 for v in values[:6])


def fixed_table(monkeypatch, params, *points):
    """A PivotTable whose pivots are the given (h, v, w) points."""
    pivots = [tuple(map(Fraction, point)) for point in points]
    values = [base_values_at(p, params) for p in pivots]
    monkeypatch.setattr(compiler, "generate_pivots", lambda *args, **kwargs: (pivots, values))
    return PivotTable(params, len(pivots), 0)


class TestRegionMembership:
    def test_interior_point(self, unit_params):
        assert nonnegative(base_values_at((2, 2, 1), unit_params))

    def test_origin_outside(self, unit_params):
        assert not nonnegative(base_values_at((0, 0, 0), unit_params))

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.7])
    def test_diagonal_corner_outside(self, r):
        params = GeometricParams(r, 2.0 * r)
        r2 = params.r2
        assert not nonnegative(base_values_at((r2, r2, r2), params))


class TestGeneratePivots:
    def test_single_pivot_in_region(self, unit_params):
        pts, values = generate_pivots(unit_params, 1, seed=0)
        assert len(pts) == len(values) == 1
        assert values[0] == base_values_at(pts[0], unit_params)
        assert nonnegative(values[0])

    def test_deterministic(self, params):
        a = generate_pivots(params, 50, seed=3)
        b = generate_pivots(params, 50, seed=3)
        assert a == b

    @pytest.mark.parametrize("scheme", ["plane", "grid3d"])
    def test_points_distinct_admissible_and_boxed(self, params, scheme):
        pts, values = generate_pivots(params, 40, seed=1, scheme=scheme)
        assert len(set(pts)) == len(values) == 40
        r2, R2 = params.r2, params.R2
        for p, vals in zip(pts, values):
            assert all(type(x) is Fraction for x in p)
            assert vals == base_values_at(p, params)
            assert nonnegative(vals)
            h, v, _ = p
            assert r2 <= h <= R2 and r2 <= v <= R2

    def test_k_must_be_positive(self, params):
        with pytest.raises(ValueError):
            generate_pivots(params, 0, seed=0)

    def test_unknown_scheme(self, params):
        with pytest.raises(ValueError):
            generate_pivots(params, 3, seed=0, scheme="cubic")

    def test_grid3d_rejects_an_R_whose_fourth_power_overflows(self):
        # h * v reaches R^4, whose square root spans w; past the float range
        # the w nodes would be NaN
        with pytest.raises(ValueError, match=r"^grid3d pivots need \(R\^2\)\^2 .* R=1e\+78$"):
            PivotTable(GeometricParams(1.45, 1e78), 10, 0, "grid3d")
        assert len(PivotTable(GeometricParams(1.45, 1e76), 10, 0, "grid3d").pivots) == 10

    def test_exhaustion_reports_found_count(self, params):
        with pytest.raises(PivotGenerationError) as err:
            generate_pivots(params, 9000, seed=0)
        assert err.value.found < err.value.requested == 9000


class TestConstraintBlocks:
    def test_constant_sentence_d0(self, params):
        s = tokenize_and_parse("P7 <EOS>")
        rows = PivotTable(params, 3, 0).instance(s, 8, 0).constraints
        block = ((Fraction(1),),)
        assert rows == ((block,),) * 3

    def test_constant_sentence_d2_outer_product(self, unit_params, monkeypatch):
        s = tokenize_and_parse("P7 <EOS>")
        table = fixed_table(monkeypatch, unit_params, (2, 2, 1))
        u = (1, 1, 4, 1, 4, 4, 16)
        expected = tuple(tuple(Fraction(a * b) for b in u) for a in u)
        assert table.instance(s, 8, 2).constraints == ((expected,),)

    def test_vanishing_monomial_gives_zero_block(self, unit_params, monkeypatch):
        s = tokenize_and_parse("P1 <EOS>")
        table = fixed_table(monkeypatch, unit_params, (1, 3, 0))  # h = r^2 makes P1 vanish
        (blocks,) = table.instance(s, 8, 2).constraints
        assert all(x == 0 for row in blocks[0] for x in row)

    def test_degree_overflow_names_monomial(self, params):
        s = tokenize_and_parse("P1 <*> P1 <EOS>")
        with pytest.raises(ValueError, match="P1 <\\*> P1"):
            PivotTable(params, 3, 0).instance(s, 8, 2)

    def test_rank_one_and_psd(self, params):
        rng = np.random.default_rng(5)
        sentences = ["P7 <EOS>", "P1 <ES> P2 <*> P4 <EOS>", "P3 <*> P2 <EOS>"]
        table = PivotTable(params, 10, 2)
        for text in sentences:
            s = tokenize_and_parse(text)
            row = table.instance(s, 8, 4).constraints[int(rng.integers(len(table.pivots)))]
            for mat in block_arrays(row):
                if not np.any(mat):
                    continue
                svals = np.linalg.svd(mat, compute_uv=False)
                assert svals[1] <= 1e-10 * svals[0]
                assert np.linalg.eigvalsh(mat).min() >= -1e-10 * svals[0]


class TestObjectiveBlocks:
    def test_constant_sentence(self, params):
        s = tokenize_and_parse("P7 <EOS>")
        assert PivotTable(params, 3, 0).instance(s, 8, 0).objective == (((Fraction(1),),),)

    def test_p3_monomial_zero_objective(self, params):
        s = tokenize_and_parse("P3 <*> P3 <EOS>")
        blocks = PivotTable(params, 3, 0).instance(s, 8, 4).objective
        assert all(x == 0 for row in blocks[0] for x in row)

    def test_p1_scaling_at_unit_r(self, unit_params):
        s = tokenize_and_parse("P1 <EOS>")
        blocks = PivotTable(unit_params, 3, 0).instance(s, 8, 2).objective
        # m(0,0,0) = (0 - 1)(0 - 1) = 1 and u0 = e1
        assert blocks[0][0][0] == 1
        assert sum(abs(x) for row in blocks[0] for x in row) == 1

    def test_normalization_targets_first_positive_block(self, params):
        s = tokenize_and_parse("P3 <ES> P1 <EOS>")  # P3 vanishes at the origin
        table = PivotTable(params, 3, 0)
        blocks = table.instance(s, 8, 4).normalization
        assert all(x == 0 for row in blocks[0] for x in row)
        assert blocks[1][0][0] == params.r2 ** 2
        assert sum(abs(x) for row in blocks[1] for x in row) == params.r2 ** 2
        assert table.designated_block(s.canonical()) == 1


class TestInstanceArrays:
    # one monomial; P4, which vanishes at every plane pivot; P2, negative at
    # the origin; and several monomials of mixed degree
    SENTENCES = ["P7 <EOS>", "P4 <EOS>", "P2 <EOS>", "P1 <ES> P2 <*> P4 <EOS>",
                 "P3 <*> P2 <ES> P5 <ES> P6 <ES> P7 <EOS>"]

    @pytest.mark.parametrize("scheme", PIVOT_SCHEMES)
    @pytest.mark.parametrize("text", SENTENCES)
    def test_table_image_is_the_instance_image_bit_for_bit(self, params, scheme, text):
        s = tokenize_and_parse(text)
        table = PivotTable(params, 8, 3, scheme)
        for d in range(max(m.degree for m in s.monomials), 5):
            got = table.instance_arrays(s, d)
            want = instance_arrays(table.instance(s, 8, d))
            assert got.block_dims == want.block_dims
            assert len(got.constraints) == len(want.constraints) == table.K
            for got_row, want_row in zip(got.constraints + (got.normalization, got.objective),
                                         want.constraints + (want.normalization, want.objective)):
                assert len(got_row) == len(want_row) == got.n_blocks
                for a, b in zip(got_row, want_row):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape) == (np.float64, b.shape)
                    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()

    def test_reads_none_of_the_decisions_rows(self, params, monkeypatch):
        # solve_exact decides on the integer rows N_p over the common
        # denominator D; the image, and the instance it is the image of,
        # must come from elsewhere
        table = PivotTable(params, 8, 3)
        calls = []
        monkeypatch.setattr(PivotTable, "integer_basis_vectors",
                            lambda *args: calls.append("integer_basis_vectors"))
        monkeypatch.setattr(compiler, "evaluate_basis",
                            lambda *args: calls.append("evaluate_basis"))
        del table._coords, table.denominator  # any read of them raises AttributeError
        s = tokenize_and_parse("P1 <ES> P2 <*> P4 <EOS>")
        for built in (table.instance_arrays(s, 4), table.instance(s, 8, 4)):
            assert calls == []
            assert built.block_dims == (7, 7) and len(built.constraints) == table.K

    def test_covers_zero_blocks_and_a_negative_origin(self, params):
        table = PivotTable(params, 8, 3)
        (p4,) = tokenize_and_parse("P4 <EOS>").monomials
        assert not any(table.monomial_values(p4))
        image = table.instance_arrays(tokenize_and_parse("P2 <EOS>"), 1)
        assert image.objective[0][0, 0] < 0


class TestAssemble:
    def test_minimal_structure(self, params):
        s = tokenize_and_parse("P7 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=0, K=1, seed=0)
        assert inst.block_dims == (1,)
        assert len(inst.constraints) == 1
        assert len(inst.normalization) == 1

    def test_block_dims_decrease_with_monomial_degree(self, params):
        s = tokenize_and_parse("P7 <ES> P2 <ES> P1 <ES> P1 <*> P2 <ES> P1 <*> P1 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=4, K=3, seed=0)
        degrees = [m.degree for m in tokenize_and_parse(inst.meta.sentence).monomials]
        assert degrees == sorted(degrees)
        assert list(inst.block_dims) == sorted(inst.block_dims, reverse=True)
        assert len(set(zip(degrees, inst.block_dims))) == len(degrees)

    def test_meta_echoes_inputs(self, params):
        s = tokenize_and_parse("P1 <EOS>")
        inst = assemble_sdp(s, params, n=5, d=3, K=4, seed=9, pivot_scheme="plane")
        meta = inst.meta
        assert (meta.n, meta.d, meta.r, meta.R, meta.K, meta.seed) == (5, 3, 1.45, 2.0, 4, 9)
        assert meta.sentence == "P1 <EOS>"

    def test_zero_primal_satisfies_homogeneous_rows_only(self, params):
        from packbound.solver import _stack_rows

        s = tokenize_and_parse("P2 <*> P2 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=4, K=6, seed=1)
        M, b, _, _ = _stack_rows(inst)
        violations = M @ np.zeros(M.shape[1]) - b
        assert np.all(violations[:-1] == 0.0)   # every homogeneous row holds at X = 0
        assert violations[-1] == -1.0           # only the normalization row is violated

    def test_nesting_principal_submatrices(self, params):
        s = tokenize_and_parse("P1 <ES> P2 <*> P2 <EOS>")
        pivots = generate_pivots(params, 5, seed=7)
        instances = {
            d: assemble_sdp(s, params, n=8, d=d, K=5, seed=7) for d in (2, 3, 4)
        }
        for d_small, d_big in [(2, 3), (3, 4), (2, 4)]:
            small, big = instances[d_small], instances[d_big]
            for row_s, row_b in zip(small.constraints, big.constraints):
                for mat_s, mat_b in zip(row_s, row_b):
                    k = len(mat_s)
                    assert tuple(tuple(row[:k]) for row in mat_b[:k]) == mat_s
            for mat_s, mat_b in zip(small.objective, big.objective):
                k = len(mat_s)
                assert tuple(tuple(row[:k]) for row in mat_b[:k]) == mat_s

    def test_canonicalizes_before_compiling(self, params):
        padded = tokenize_and_parse("P1 <*> P7 <*> P7 <EOS>")
        plain = tokenize_and_parse("P1 <EOS>")
        a = assemble_sdp(padded, params, n=8, d=2, K=3, seed=0)
        b = assemble_sdp(plain, params, n=8, d=2, K=3, seed=0)
        assert a == b


class TestPivotTable:
    def test_matches_assembly(self, params):
        table = PivotTable(params, 12, 3)
        assert (table.pivots, table.base_values) == generate_pivots(params, 12, 3)
        # each pivot's vector is evaluated once and kept
        assert all(a[0] is b[0] for a, b in zip(table.basis_vectors(4), table.basis_vectors(4)))
        p1 = tokenize_and_parse("P1 <EOS>").monomials[0]
        inst = assemble_sdp(tokenize_and_parse("P7 <ES> P1 <EOS>"), params, n=8, d=4, K=12, seed=3)
        rows = zip(inst.constraints, table.pivots, table.monomial_values(p1))
        for (p7_block, p1_block), p, value in rows:
            u4 = evaluate_basis(basis_enumerate(4), p)
            u2 = evaluate_basis(basis_enumerate(2), p)
            assert p7_block[0] == u4  # u[0] = 1, so the first row of u u^T is u
            assert p1_block[0] == tuple(value * x for x in u2)

    def test_one_evaluation_per_examined_candidate(self, params, monkeypatch):
        # the table keeps the values admission computed and evaluates the origin alone
        calls = []
        original = compiler.base_values_at
        monkeypatch.setattr(compiler, "base_values_at",
                            lambda *args: calls.append(args) or original(*args))
        generate_pivots(params, 50, 0)
        alone = len(calls)
        PivotTable(params, 50, 0)
        assert len(calls) == 2 * alone + 1
        assert calls[-1] == (ORIGIN, params)

    def test_instance_rejects_bad_dimension_and_degree(self, params):
        table = PivotTable(params, 5, 0)
        with pytest.raises(ValueError, match="dimension n"):
            table.instance(tokenize_and_parse("P7 <EOS>"), 0, 2)
        with pytest.raises(ValueError, match="degree 2 > cap d=1"):
            table.instance(tokenize_and_parse("P7 <ES> P1 <EOS>"), 8, 1)
        with pytest.raises(ValueError, match="dimension n"):
            assemble_sdp(tokenize_and_parse("P7 <EOS>"), params, n=0, d=2, K=5, seed=0)

    def test_instance_carries_the_table_identity_and_equals_assembly(self, params):
        table = PivotTable(params, 12, 3, "grid3d")
        assert (table.params, table.K, table.seed, table.scheme) == (params, 12, 3, "grid3d")
        # vectors kept at a higher degree leave the smaller degrees' blocks unchanged
        table.basis_vectors(5)
        s = tokenize_and_parse("P1 <*> P7 <ES> P7 <ES> P2 <EOS>")
        inst = table.instance(s, 8, 4)
        assert inst == assemble_sdp(s, params, n=8, d=4, K=12, seed=3, pivot_scheme="grid3d")
        assert (inst.meta.K, inst.meta.seed, inst.meta.pivot_scheme) == (12, 3, "grid3d")


class TestComputeBound:
    def test_unit_everything(self):
        assert compute_bound(1.0, GeometricParams(1.0, 2.0), 1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_objective(self, params):
        assert compute_bound(0.0, params, 8) == 0.0

    def test_three_dimensional_closed_form(self):
        bound = compute_bound(1.0, GeometricParams(2.0, 3.0), 3)
        assert bound == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_rejects_non_finite(self, params):
        with pytest.raises(ValueError):
            compute_bound(math.inf, params, 8)

    def test_rejects_dimension_below_one(self, params):
        with pytest.raises(ValueError, match="dimension n"):
            compute_bound(1.0, params, 0)

    def test_rounded_upward_within_two_ulps(self):
        for n in range(1, 17):
            lo, hi = half_ball_volume_bounds(n)
            for r in (CampaignConfig().r_lo, 1.45, 1.5, 1.6, 0.7, 2.6):
                for objective in (1.0, 0.9999999979, 3.0):
                    bound = compute_bound(objective, GeometricParams(r, 3.0), n)
                    rest = Fraction(objective) * Fraction(r) ** n
                    assert Fraction(bound) >= hi * rest, (n, r, objective)
                    assert Fraction(bound) - lo * rest <= 2 * Fraction(math.ulp(bound))

    def test_box_floor_bound_is_at_least_e8_density(self):
        # at r = r_lo (the float just above sqrt 2) the bound for objective 1
        # is pi^4 / 384 times r_lo^8 / 16 > 1, rounded upward
        bound = compute_bound(1.0, GeometricParams(CampaignConfig().r_lo, 2.0), 8)
        assert Fraction(bound) >= (PI_100 + Fraction(1, 10**100)) ** 4 / 384


class TestCheckDefaultBound:
    @pytest.mark.parametrize("r", [-1.5, -2.0, math.inf, -math.inf, math.nan, 0.0, 1.4142135623730949])
    def test_refuses_r_outside_the_rule(self, r):
        with pytest.raises(ValueError, match=r"r\^2 >= 2"):
            check_default_bound(r, 8)

    @pytest.mark.parametrize("r", [2**0.5, 1.5, 2.6])
    def test_accepts_r_at_or_above_root_two(self, r):
        check_default_bound(r, 8)


class TestMakeInstance:
    @pytest.mark.parametrize("objective, message", [
        ([[[1.0]], [[1.0]]], "objective: expected 1 blocks, got 2"),
        ([[[1.0, 0.0], [0.0]]], r"objective: block shape mismatch \(expected 2x2\)"),
    ], ids=["block-count", "block-shape"])
    def test_misshapen_blocks_rejected(self, objective, message):
        normalization = [[[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_instance([2], [], objective, normalization)


class TestEmitSdpa:
    def make_instance(self, params):
        s = tokenize_and_parse("P7 <ES> P1 <EOS>")
        return assemble_sdp(s, params, n=8, d=2, K=3, seed=0)

    def test_golden_fixture(self, unit_params):
        text = emit_sdpa(self.make_instance(unit_params))
        golden = os.path.join(FIXTURES, "golden_p7_p1_d2_k3.dat-s")
        with open(golden, "r", encoding="utf-8") as fh:
            assert text == fh.read()

    def test_golden_fixture_under_any_decimal_context(self, unit_params):
        inst = self.make_instance(unit_params)
        golden = os.path.join(FIXTURES, "golden_p7_p1_d2_k3.dat-s")
        with open(golden, "r", encoding="utf-8") as fh:
            expected = fh.read()
        with localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = ROUND_DOWN
            ctx.traps[Inexact] = ctx.traps[Rounded] = True
            assert format_fraction(Fraction(2, 3), 5) == "6.6667e-1"
            assert emit_sdpa(inst) == expected

    def test_reemission_identical(self, unit_params):
        inst = self.make_instance(unit_params)
        assert emit_sdpa(inst) == emit_sdpa(inst)

    def test_header_layout(self, params):
        inst = self.make_instance(params)
        lines = emit_sdpa(inst).splitlines()
        assert lines[0] == "4"            # K + 1 rows
        assert lines[1] == "2"            # blocks
        assert lines[2] == "7 1"          # |basis(2)| and |basis(2 - deg P1)|
        assert lines[3] == "0 0 0 1"      # K zeros then 1

    def test_entries_upper_triangular_and_ordered(self, params):
        inst = self.make_instance(params)
        rows = [ln.split() for ln in emit_sdpa(inst).splitlines()[4:]]
        keys = [(int(a), int(b), int(i), int(j)) for a, b, i, j, _ in rows]
        assert keys == sorted(keys)
        assert all(i <= j for _, _, i, j in keys)

    def test_matches_reference_emitter_off_the_benchmark_layouts(self):
        # A 0x0, a 1x1 and an 11x11 block (two-digit indices), equal entries
        # that are separate objects (Fraction(x) copies a Fraction), negative
        # entries, zeros inside a block and an all-zero row.
        values = (Fraction(-3, 8), Fraction(5, 7), Fraction(0), Fraction(2), -1.25,
                  Fraction(1, 3), Fraction(-10**30, 3**40))

        def big(row):
            mat = [[None] * 11 for _ in range(11)]
            for i in range(11):
                for j in range(i, 11):
                    x = values[(3 * i + 5 * j + row) % len(values)]
                    mat[i][j], mat[j][i] = Fraction(x), Fraction(x)
            return mat

        zeros = [[0] * 11 for _ in range(11)]
        inst = make_instance([0, 1, 11],
                             [[[], [[0]], zeros], [[], [[-2]], big(1)]],
                             [[], [[Fraction(7, 2)]], big(0)],
                             [[], [[1]], big(2)])
        upper = [x for i, line in enumerate(inst.objective[2]) for x in line[i:]]
        assert len(set(map(id, upper))) == len(upper) > len(set(upper))
        for digits in (40, 7, 1):
            text = emit_sdpa(inst, digits)
            assert text == emit_reference(inst, digits)
            lines = text.splitlines()
            assert lines[2] == "0 1 11" and lines[3] == "0 0 1"
            assert not [ln for ln in lines[4:] if ln.startswith("1 ")]
            assert f"2 3 10 11 {format_fraction(Fraction(5, 7), digits)}" in lines


def format_reference(q, digits):
    """format_fraction as first written: divide and round in the default context."""
    with localcontext(Context()) as ctx:
        ctx.prec = digits + 5
        dec = Decimal(q.numerator) / Decimal(q.denominator)
        return f"{dec:.{digits - 1}E}".replace("E", "e")


@settings(max_examples=300, deadline=None)
@given(st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**400)),
       st.integers(1, 60))
def test_format_fraction_matches_default_context(q, digits):
    assert format_fraction(q, digits) == format_reference(q, digits)


@pytest.mark.parametrize("q, digits, text", [
    (Fraction(0), 3, "0.00e+2"),                # as Decimal writes a zero
    (Fraction(-1, 8), 2, "-1.2e-1"),             # a tie rounds to even
    (Fraction(999_999, 10**6), 3, "1.00e+0"),    # rounding carries into the exponent
    (Fraction(2**-1074), 1, "5e-324"),
])
def test_format_fraction_cases(q, digits, text):
    assert format_fraction(q, digits) == text


def test_format_fraction_rejects_zero_digits():
    with pytest.raises(ValueError, match="need digits >= 1"):
        format_fraction(Fraction(1, 3), 0)


class TestMomentPattern:
    @pytest.mark.parametrize("k, distinct", enumerate([1, 6, 22, 49, 95, 160, 252]))
    def test_distinct_exponent_sums_and_symmetric_index(self, k, distinct):
        elems = basis_enumerate(k)
        pattern = moment_pattern(k)

        def total(i, j):
            a, b = elems[i], elems[j]
            return (a.a + b.a, a.b + b.b, a.c + b.c)

        size = len(elems)
        assert len(pattern.pairs) == distinct
        assert len({total(i, j) for i, j in pattern.pairs}) == distinct
        gather = pattern.gather
        assert gather.shape == (size, size) and gather.dtype == np.intp
        for t, (i, j) in enumerate(pattern.pairs):
            assert i <= j and gather[i, j] == t
        for i in range(size):
            for j in range(size):
                assert gather[i, j] == gather[j, i]
                assert total(i, j) == total(*pattern.pairs[gather[i, j]])

    def test_cached_per_degree(self):
        assert moment_pattern(3) is moment_pattern(3)

    def test_equal_entries_share_one_fraction(self, unit_params, monkeypatch):
        s = tokenize_and_parse("P7 <ES> P2 <EOS>")
        (row,) = fixed_table(monkeypatch, unit_params, (2, 3, 1)).instance(s, 8, 4).constraints
        for block in row:
            for i in range(len(block)):
                for j in range(len(block)):
                    assert block[i][j] is block[j][i]


class TestExactRatio:
    """polys.exact_ratio, the helper that builds every instance entry, against
    Fraction(num, den); test_exact_ratio.py checks it without hypothesis."""

    @settings(max_examples=500, deadline=None)
    @given(st.builds(lambda m, shift: m << shift,
                     st.integers(-2**640, 2**640), st.integers(0, 700)),
           st.one_of(st.integers(0, 700).map(lambda e: 1 << e), st.integers(1, 10**60)))
    @example(0, 1)
    @example(0, 1 << 40)
    @example(1, 1)
    @example(-1, 1)
    @example(-1, 1 << 9)
    @example(1, 1 << 600)
    @example(-7, 1)
    @example(3 << 500, 1 << 20)   # more trailing zeros than log2(den): an integer
    @example(-(5 << 64), 1 << 64)
    @example(5, 3)                # not a power of two: the gcd path
    @example(-12, 9)
    @example(3 << 400, 5 << 400)
    def test_matches_fraction(self, num, den):
        q = check_exact_ratio(num, den)
        assert format_fraction(q) == format_fraction(Fraction(num, den))

    def test_dyadic_block_takes_no_gcd(self, params, monkeypatch):
        table = PivotTable(params, 10, 0)
        (m,) = tokenize_and_parse("P2 <*> P6 <EOS>").monomials
        k, p = 4, 3
        u, scale = table.basis_vectors(k)[p], table.monomial_values(m)[p]
        assert scale != 0 and scale.denominator & (scale.denominator - 1) == 0
        assert u[1] & (u[1] - 1) == 0  # the pivot's own denominator is a power of two

        def no_gcd(*args):
            raise AssertionError("math.gcd called")

        monkeypatch.setattr(math, "gcd", no_gcd)
        block = compiler._exact_block(u, scale, k)
        monkeypatch.undo()
        pivot = table.pivots[p]
        assert block == outer_reference(evaluate_basis(basis_enumerate(k), pivot), scale)


# The formulation assembly, emission and parse-back had before moment
# patterns, written out in full: scale * u_i * u_j for every entry of every
# block, every nonzero entry formatted on its own, every parsed matrix
# rebuilt densely in floats and converted entry by entry.

def outer_reference(u, scale):
    return tuple(tuple(scale * ui * uj for uj in u) for ui in u)


def assemble_reference(s, params, d, K, seed, scheme):
    canon = s.canonical()

    def block(m, point, zero=False):
        u = evaluate_basis(basis_enumerate(d - m.degree), point)
        return outer_reference(u, Fraction(0) if zero else monomial_value(m, point, params))

    j = next(
        (i for i, m in enumerate(canon.monomials) if monomial_value(m, ORIGIN, params) > 0), 0
    )
    return SdpInstance(
        block_dims=tuple(len(basis_enumerate(d - m.degree)) for m in canon.monomials),
        constraints=tuple(
            tuple(block(m, p) for m in canon.monomials)
            for p in generate_pivots(params, K, seed, scheme=scheme)[0]
        ),
        objective=tuple(block(m, ORIGIN) for m in canon.monomials),
        normalization=tuple(block(m, ORIGIN, zero=i != j) for i, m in enumerate(canon.monomials)),
    )


def emit_reference(inst, digits=40):
    K = len(inst.constraints)
    lines = [str(K + 1), str(inst.n_blocks), " ".join(str(dim) for dim in inst.block_dims),
             " ".join(["0"] * K + ["1"])]
    rows = [inst.objective, *inst.constraints, inst.normalization]
    for row_idx, blocks in enumerate(rows):
        for b, mat in enumerate(blocks):
            for i in range(len(mat)):
                for j in range(i, len(mat)):
                    if mat[i][j] != 0:
                        lines.append(f"{row_idx} {b + 1} {i + 1} {j + 1} "
                                     f"{format_fraction(mat[i][j], digits)}")
    return "\n".join(lines) + "\n"


def read_reference(text):
    """The reader as first written: every line through int(), float() and range checks."""
    lines = text.splitlines()
    content = [(i + 1, ln) for i, ln in enumerate(lines)
               if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    n_rows, n_blocks = int(content[0][1]), int(content[1][1])
    dims = tuple(abs(int(tok)) for tok in content[2][1].split())
    rhs = tuple(float(tok) for tok in content[3][1].split())
    assert len(dims) == n_blocks and len(rhs) == n_rows
    entries = []
    for lineno, ln in content[4:]:
        row, block, i, j, val = ln.split()
        entry = (int(row), int(block), int(i), int(j), float(val))
        if not (math.isfinite(entry[4]) and 0 <= entry[0] <= n_rows and 1 <= entry[1] <= n_blocks
                and 1 <= entry[2] <= dims[entry[1] - 1] and 1 <= entry[3] <= dims[entry[1] - 1]):
            raise FormatError("bad entry", lineno)
        entries.append(entry)
    return SparseSystem(n_rows=n_rows, block_dims=dims, rhs=rhs, entries=tuple(entries))


def rebuild_reference(system):
    rows = [[[[0.0] * dim for _ in range(dim)] for dim in system.block_dims]
            for _ in range(system.n_rows + 1)]
    for row, block, i, j, val in system.entries:
        rows[row][block - 1][i - 1][j - 1] = val
        rows[row][block - 1][j - 1][i - 1] = val
    return make_instance(system.block_dims, rows[1:-1], rows[0], rows[-1])


def image_bytes(image):
    """An InstanceArrays as its block dims and every block's shape, dtype and bytes."""
    rows = (image.objective, *image.constraints, image.normalization)
    return image.block_dims, [[(a.shape, a.dtype, a.tobytes()) for a in row] for row in rows]


DIFFERENTIAL_SENTENCES = [
    (0, "P7 <EOS>"),
    (1, "P7 <ES> P2 <EOS>"),
    (2, "P7 <ES> P1 <ES> P4 <EOS>"),                       # P4 vanishes on plane pivots
    (3, "P2 <ES> P7 <*> P2 <ES> P4 <*> P7 <EOS>"),         # padded and duplicated
    (4, "P7 <ES> P2 <ES> P1 <ES> P1 <*> P2 <ES> P1 <*> P1 <EOS>"),
    (5, "P6 <ES> P3 <*> P4 <ES> P2 <*> P2 <EOS>"),
    (6, "P4 <ES> P5 <ES> P2 <*> P6 <ES> P7 <EOS>"),
]


# Every entry's denominator is a power of two on float (r, R), which exact_ratio
# reduces by a shift; r = 7/5 puts 25 into it, which takes the gcd path.
DIFFERENTIAL_CASES = [
    pytest.param(d, text, GeometricParams(1.45, 2.0), id=f"{d}-{text}")
    for d, text in DIFFERENTIAL_SENTENCES
] + [
    pytest.param(d, text, GeometricParams(Fraction(7, 5), 2.0), id=f"{d}-{text}-r=7/5")
    for d, text in DIFFERENTIAL_SENTENCES
]


class TestAssemblyDifferential:
    @pytest.mark.parametrize("scheme", ["plane", "grid3d"])
    @pytest.mark.parametrize("d, text, params", DIFFERENTIAL_CASES)
    def test_matches_full_outer_products(self, params, d, text, scheme):
        s = tokenize_and_parse(text)
        inst = assemble_sdp(s, params, n=8, d=d, K=10, seed=d, pivot_scheme=scheme)
        ref = assemble_reference(s, params, d, 10, d, scheme)
        assert inst.block_dims == ref.block_dims
        assert inst.constraints == ref.constraints
        assert inst.objective == ref.objective
        assert inst.normalization == ref.normalization
        text_out = emit_sdpa(inst)
        assert text_out == emit_reference(ref)
        system = read_sdpa_instance(text_out)
        assert system == read_reference(text_out)
        assert image_bytes(system_to_instance(system)) == image_bytes(
            instance_arrays(rebuild_reference(system)))

    def test_hand_written_file_reads_as_the_reference_image(self):
        # a -0.0, an entry below the diagonal and a duplicate, the last of which wins
        text = ("2\n2\n2 1\n0 1\n"
                "0 1 1 1 -0.0\n"
                "0 2 1 1 4.5\n"
                "1 1 2 1 -2.25\n"
                "1 1 2 2 1e-3\n"
                "1 1 2 2 7.0\n"
                "2 1 1 1 1.0\n")
        system = read_sdpa_instance(text)
        image = system_to_instance(system)
        assert image_bytes(image) == image_bytes(instance_arrays(rebuild_reference(system)))
        assert image.n_rows == system.n_rows == 2
        assert math.copysign(1.0, image.objective[0][0, 0]) == 1.0
        assert image.constraints[0][0].tolist() == [[0.0, -2.25], [-2.25, 7.0]]
        assert image.objective[1].tolist() == [[4.5]]

    def test_vanishing_block_is_zero_on_every_plane_pivot(self, params):
        s = tokenize_and_parse("P7 <ES> P4 <EOS>")
        inst = assemble_sdp(s, params, n=8, d=3, K=10, seed=0)
        assert [m.render() for m in tokenize_and_parse(inst.meta.sentence).monomials] == ["P7", "P4"]
        assert all(x == 0 for row in inst.constraints for line in row[1] for x in line)
        assert any(x != 0 for row in inst.constraints for line in row[0] for x in line)


# sha256 of emit_sdpa(assemble_sdp(...), digits=40) at the sizes of the
# sdpa-export benchmark (K = 50, one degree-1 and one degree-2 monomial),
# computed with the full outer-product assembly and per-entry formatting.
PINNED_EMISSIONS = [
    ("P2 <ES> P3 <EOS>", 4, 1.45, 2.1, 11,
     "6779ee46dae1b4af85819a44275889cf0f31735a85659b2d98defa428078d1ae"),
    ("P6 <ES> P1 <EOS>", 5, 1.5, 2.4, 12,
     "c22b1d516e60b2df4b7ac5cd39d00b8ac314001dd8161a89a4d294ac5e8034fd"),
    ("P4 <ES> P5 <EOS>", 6, 1.55, 1.9, 13,
     "969fce4acde2e5cf25e3c46a29d8c4fa9303fabcfb7d12a92b8561c389c12989"),
]


@pytest.mark.parametrize("text, d, r, R, seed, digest", PINNED_EMISSIONS)
def test_emission_digest_at_benchmark_size(text, d, r, R, seed, digest):
    inst = assemble_sdp(tokenize_and_parse(text), GeometricParams(r, R), n=8, d=d, K=50, seed=seed)
    text = emit_sdpa(inst, digits=40)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert read_sdpa_instance(text) == read_reference(text)


def pivot_digest(pivots):
    text = "\n".join(f"{h} {v} {w}" for h, v, w in pivots)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# sha256 of the exact pivots generate_pivots returned before its two schemes
# shared one admission loop; the (sqrt 2, 1.8) cases run out of grid points
# and take the rest from the Sobol fill.
PINNED_PIVOTS = [
    (1.45, 2.0, 50, "plane",
     "986760d1db4ac031d1d4952ba8b027e9b16cc193549309b96ae6983b50115d98"),
    (1.45, 2.0, 50, "grid3d",
     "9b317d99f42b4cfc35ecfcb375b63b8404a7601c2ae68ec8f1f9e5660a7dd165"),
    (math.sqrt(2), 1.8, 5, "plane",
     "8586ddc7ba3526ba23b902808179d4786151d8706b278ea5a82bd5d660c10521"),
    (math.sqrt(2), 1.8, 120, "grid3d",
     "f5e4eaa8884ffafb92ad01b282b4f115b9d488892fa0eb001d2b663ded4fd0d2"),
]


@pytest.mark.parametrize("r, R, K, scheme, digest", PINNED_PIVOTS)
def test_pivot_digest(r, R, K, scheme, digest):
    pivots, _ = generate_pivots(GeometricParams(r, R), K, 0, scheme)
    assert pivot_digest(pivots) == digest
