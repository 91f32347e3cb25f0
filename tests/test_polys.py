import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packbound.polys import (
    BASE_DEGREES,
    BasisElement,
    GeometricParams,
    Polynomial,
    base_values_at,
    basis_enumerate,
    basis_to_poly,
    evaluate_basis,
    make_base_polynomial,
)

from conftest import polynomials


def brute_force_basis_count(d: int) -> int:
    return sum(
        1
        for a in range(d + 1)
        for b in range(d + 1)
        for c in range(d + 1)
        if a + 2 * b + c <= d
    )


class TestGeometricParams:
    def test_valid(self):
        p = GeometricParams(1.0, 2.0)
        assert p.r2 == 1 and p.R2 == 4

    def test_squares_computed_once(self):
        p = GeometricParams(1.45, 2.1)
        assert p.r2 is p.r2 and p.R2 is p.R2
        assert p.r2 == Fraction(1.45) ** 2 and p.R2 == Fraction(2.1) ** 2
        assert p == GeometricParams(1.45, 2.1) and hash(p) == hash(GeometricParams(1.45, 2.1))

    @pytest.mark.parametrize("r,R", [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_requires_increasing_positive(self, r, R):
        with pytest.raises(ValueError):
            GeometricParams(r, R)

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_non_finite_R_named(self, R):
        with pytest.raises(ValueError, match=f"R must be finite, got R={R}"):
            GeometricParams(1.45, R)

    # pivot generation takes float(r) ** 2 and float(R) ** 2, which overflow
    @pytest.mark.parametrize("r, R, name", [(1.45, 1e308, "R"), (1.45, 1e155, "R"),
                                            (1e200, 1e201, "r"), (Fraction(10**200), 1e201, "r")])
    def test_overflowing_square_named(self, r, R, name):
        with pytest.raises(ValueError, match=rf"^{name}\^2 overflows a float, got {name}="):
            GeometricParams(r, R)

    def test_square_below_overflow_accepted(self):
        assert GeometricParams(1.45, 1e154).R2 == Fraction(1e154) ** 2


class TestBasePolynomials:
    def test_p7_is_one(self, params):
        assert make_base_polynomial(7, params) == Polynomial.constant(1)

    def test_p1_root_at_h_equals_r_squared(self, unit_params):
        assert make_base_polynomial(1, unit_params).evaluate((1, 5, 0)) == 0

    def test_p3_value(self, unit_params):
        # hv - w^2 at (2, 3, 1): 6 - 1 = 5
        assert make_base_polynomial(3, unit_params).evaluate((2, 3, 1)) == 5

    def test_index_out_of_range(self, params):
        for bad in (0, 8, -1):
            with pytest.raises(ValueError):
                make_base_polynomial(bad, params)

    def test_degrees_and_symmetry(self, params):
        for idx, expected_degree in enumerate(BASE_DEGREES, start=1):
            p = make_base_polynomial(idx, params)
            assert (p.degree(), p.is_symmetric_hv()) == (expected_degree, True)

    def test_p4_symmetric(self, params):
        p4 = make_base_polynomial(4, params)
        assert (p4.degree(), p4.is_symmetric_hv()) == (1, True)

    def test_h_minus_v_not_symmetric(self):
        p = Polynomial({(1, 0, 0): 1, (0, 1, 0): -1})
        assert (p.degree(), p.is_symmetric_hv()) == (1, False)

    def test_base_values_match_expansion(self, params):
        point = (Fraction(7, 4), Fraction(3), Fraction(-1, 2))
        vals = base_values_at(point, params)
        for idx in range(1, 8):
            assert vals[idx - 1] == make_base_polynomial(idx, params).evaluate(point)


# a coordinate over denominators that float pivots never reach (thirds,
# sevenths) as well as dyadic and integer ones, of either sign
COORDINATES = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 7, 21, 4, 1024]))


class TestBaseValuesOracle:
    @settings(max_examples=150, deadline=None)
    @given(point=st.tuples(COORDINATES, COORDINATES, COORDINATES),
           r=st.sampled_from([1.0, 1.45, math.sqrt(2)]), gap=st.sampled_from([0.35, 1.0]))
    @example(point=(Fraction(0), Fraction(0), Fraction(0)), r=1.45, gap=0.35)
    @example(point=(Fraction(3), Fraction(5), Fraction(-2)), r=math.sqrt(2), gap=1.0)
    @example(point=(Fraction(2, 3), Fraction(5, 7), Fraction(-1, 21)), r=1.45, gap=0.35)
    def test_integer_evaluation_equals_expanded_polynomials(self, point, r, gap):
        params = GeometricParams(r, r + gap)
        values = base_values_at(point, params)
        assert len(values) == 7 and all(type(val) is Fraction for val in values)
        for t in range(1, 8):
            assert values[t - 1] == make_base_polynomial(t, params).evaluate(point)

    def test_integer_and_float_coordinates(self, params):
        point = (3, 2.5, -1)
        assert base_values_at(point, params) == tuple(
            make_base_polynomial(t, params).evaluate(point) for t in range(1, 8))


class TestRingOps:
    def test_mul_by_one_is_identity(self, params):
        p3 = make_base_polynomial(3, params)
        assert make_base_polynomial(7, params) * p3 == p3

    def test_additive_inverse_is_zero(self, params):
        p = make_base_polynomial(2, params)
        assert (p + p.scale(-1)).is_zero()

    def test_p2_squared_unit_r(self, unit_params):
        # (h + v - 2)^2 expanded by hand
        expected = Polynomial({
            (2, 0, 0): 1, (0, 2, 0): 1, (1, 1, 0): 2,
            (1, 0, 0): -4, (0, 1, 0): -4, (0, 0, 0): 4,
        })
        p2 = make_base_polynomial(2, unit_params)
        assert p2 * p2 == expected

    @given(p=polynomials(), q=polynomials())
    @settings(max_examples=150)
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(p=polynomials(), q=polynomials(), s=polynomials())
    @settings(max_examples=100)
    def test_associative(self, p, q, s):
        assert (p + q) + s == p + (q + s)
        assert (p * q) * s == p * (q * s)

    @given(p=polynomials(), q=polynomials(),
           x=st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)))
    @settings(max_examples=150)
    def test_evaluation_is_ring_homomorphism(self, p, q, x):
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    def test_evaluation_homomorphism_bulk(self):
        # coefficients are exact rationals, so equality here is exact
        import random

        rng = random.Random(314159)

        def rand_poly():
            return Polynomial({
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                    Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                for _ in range(rng.randint(0, 5))
            })

        for _ in range(1000):
            p, q = rand_poly(), rand_poly()
            x = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestEvaluate:
    def test_constant(self):
        assert Polynomial.constant(1).evaluate((3, -2, 17)) == 1

    def test_p2_vanishes_on_shell(self, unit_params):
        assert make_base_polynomial(2, unit_params).evaluate((1, 1, 99)) == 0

    def test_p5_value(self, unit_params):
        assert make_base_polynomial(5, unit_params).evaluate((3, 1, 0)) == 3


class TestBasis:
    def test_d0(self):
        assert basis_enumerate(0) == (BasisElement(0, 0, 0),)

    def test_d2_frozen_order(self):
        expected = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 2)]
        assert [(e.a, e.b, e.c) for e in basis_enumerate(2)] == expected

    @pytest.mark.parametrize("d", range(13))
    def test_counts_match_brute_force(self, d):
        assert len(basis_enumerate(d)) == brute_force_basis_count(d)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basis_enumerate(-1)

    @given(d1=st.integers(0, 9), d2=st.integers(0, 9))
    @settings(max_examples=60)
    def test_prefix_nesting(self, d1, d2):
        if d1 > d2:
            d1, d2 = d2, d1
        small, large = basis_enumerate(d1), basis_enumerate(d2)
        assert large[: len(small)] == small
        if d1 < d2:
            assert len(small) < len(large)

    def test_basis_to_poly_constant(self):
        assert basis_to_poly(BasisElement(0, 0, 0)) == Polynomial.constant(1)

    def test_basis_to_poly_square_sum(self):
        expected = Polynomial({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})
        assert basis_to_poly(BasisElement(0, 0, 2)) == expected

    def test_basis_to_poly_single_term(self):
        assert basis_to_poly(BasisElement(1, 1, 0)) == Polynomial({(1, 1, 1): 1})

    @given(d=st.integers(0, 5))
    @settings(max_examples=20)
    def test_basis_polys_symmetric(self, d):
        for e in basis_enumerate(d):
            assert basis_to_poly(e).is_symmetric_hv()

    def test_evaluate_basis_matches_polys(self):
        point = (Fraction(5, 2), Fraction(3), Fraction(-7, 3))
        elems = basis_enumerate(4)
        values = evaluate_basis(elems, point)
        for e, val in zip(elems, values):
            assert val == basis_to_poly(e).evaluate(point)
