import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import ndtr

from packbound.bo import _norm_pdf
from packbound.grammar import CONSTANT_MONOMIAL, Monomial, Sentence
from packbound.polys import BASE_DEGREES, GeometricParams, Polynomial, make_base_polynomial


@pytest.fixture
def params():
    return GeometricParams(r=1.45, R=2.0)


@pytest.fixture
def unit_params():
    return GeometricParams(r=1.0, R=2.0)


def monomial_value(m, point, params):
    """m at the point, from the expanded base polynomials of the Polynomial ring."""
    return math.prod((make_base_polynomial(k, params).evaluate(point) ** e
                      for k, e in enumerate(m.alpha, start=1)), start=Fraction(1))


def expected_improvement(s, Z):
    """EI over the surrogate's best observed value, in warped output space; >= 0.

    An oracle: the BO ranks proposals by bo.log_expected_improvement, which
    stays finite where this underflows.
    """
    mu, sd = s.predict_warped(Z)
    gap = s.best_warped() - mu
    out = np.maximum(gap, 0.0)
    positive = sd > 0
    u = gap[positive] / sd[positive]
    out[positive] = gap[positive] * ndtr(u) + sd[positive] * _norm_pdf(u)
    return np.maximum(out, 0.0)


def audit_counts(root):
    """Count conservation in a search tree: each node's N is its children's N
    plus the evaluations that ended at it."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.N != sum(c.N for c in node.children.values()) + node.self_evals:
            return False
        stack.extend(node.children.values())
    return True


def strict_json(text):
    """json.loads that raises on NaN and Infinity, which RFC 8259 JSON does not allow."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def block_bytes(res):
    """A solver result's primal blocks as (shape, raw bytes), for bitwise comparison."""
    return [(mat.shape, mat.tobytes()) for mat in res.primal_blocks]


def coefficients():
    return st.fractions(
        min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
    ).filter(lambda q: q != 0)


def exponents():
    return st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )


def polynomials():
    return st.dictionaries(exponents(), coefficients(), min_size=0, max_size=6).map(Polynomial)


def monomials(max_degree: int = 6):
    def build(alpha6):
        if all(a == 0 for a in alpha6):
            return CONSTANT_MONOMIAL
        return Monomial(tuple(alpha6) + (0,))

    return st.tuples(*[st.integers(0, max_degree // d) for d in BASE_DEGREES[:6]]).filter(
        lambda alpha6: sum(a * d for a, d in zip(alpha6, BASE_DEGREES)) <= max_degree
    ).map(build)


def canonical_sentences(max_degree: int = 6, max_monomials: int = 4):
    return st.lists(
        monomials(max_degree), min_size=1, max_size=max_monomials, unique=True
    ).map(lambda ms: Sentence(tuple(ms)).canonical())
