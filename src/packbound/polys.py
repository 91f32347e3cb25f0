"""Exact sparse arithmetic for trivariate polynomials in (h, v, w).

A polynomial is a mapping from exponent triples (e_h, e_v, e_w) to exact
rational coefficients (fractions.Fraction); zero coefficients are never
stored, so structural equality is true polynomial identity.  Floats are
dyadic rationals, so converting incoming float data to Fraction is exact
and nothing in this module ever rounds.

The module also provides the seven base polynomials used to assemble
certificate monomials, the integer numerators of P1..P6 that pivot
admission and base_values_at both read, and the graded basis of
(h, v)-symmetric polynomials w^a * (hv)^b * (h+v)^c with a + 2b + c <= d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, int, int]
Number = Union[int, float, Fraction]

#: Total degrees of the seven base polynomials, in index order 1..7.
BASE_DEGREES = (2, 1, 2, 1, 2, 1, 0)


def _frac(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def check_float_square(name: str, x: Number) -> None:
    """Raise ValueError naming `name` unless float(x) ** 2, a bound of the
    pivot candidates' float grid, is a finite float."""
    try:
        float(x) ** 2
    except OverflowError:
        raise ValueError(f"{name}^2 overflows a float, got {name}={x}") from None


@dataclass(frozen=True)
class GeometricParams:
    """Geometric parameters (r, R) of one problem instance, with 0 < r < R.

    r^2 and R^2 must be finite as floats too, since pivot generation spans
    [r^2, R^2] in floats.  Both are substituted numerically (as exact
    rationals) into the base polynomials at construction time; they are
    never kept symbolic.
    """

    r: float
    R: float

    def __post_init__(self) -> None:
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got r={self.r}")
        if not math.isfinite(self.R):
            raise ValueError(f"R must be finite, got R={self.R}")
        check_float_square("r", self.r)
        check_float_square("R", self.R)
        if not self.r < self.R:
            raise ValueError(f"require 0 < r < R, got r={self.r}, R={self.R}")

    # Exact squares, computed on first read and kept on the instance
    # (cached_property writes its __dict__, which frozen leaves open).  They
    # are not fields, so equality and hashing see r and R alone.
    @functools.cached_property
    def r2(self) -> Fraction:
        return _frac(self.r) ** 2

    @functools.cached_property
    def R2(self) -> Fraction:
        return _frac(self.R) ** 2


class Polynomial:
    """Sparse trivariate polynomial with exact rational coefficients.

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Number] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                q = _frac(coeff)
                if q != 0:
                    clean[(int(expo[0]), int(expo[1]), int(expo[2]))] = q
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def constant(cls, c: Number) -> "Polynomial":
        return cls({(0, 0, 0): c})

    # ---- ring operations ----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[expo] = out.get(expo, Fraction(0)) + ca * cb
        return Polynomial(out)

    def scale(self, factor: Number) -> "Polynomial":
        q = _frac(factor)
        return Polynomial({e: c * q for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip("hvw", expo)
                if e > 0
            )
            parts.append(f"{self.terms[expo]}*{mono}" if mono else f"{self.terms[expo]}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_symmetric_hv(self) -> bool:
        """True iff swapping the h and v exponents maps the term map to itself."""
        return all(
            self.terms.get((ev, eh, ew)) == coeff
            for (eh, ev, ew), coeff in self.terms.items()
        )

    def evaluate(self, point: Sequence[Number]) -> Fraction:
        """Exact evaluation at (h, v, w); every input is rationalised first."""
        h, v, w = (_frac(x) for x in point)
        total = Fraction(0)
        for (eh, ev, ew), coeff in self.terms.items():
            total += coeff * h**eh * v**ev * w**ew
        return total


def make_base_polynomial(index: int, params: GeometricParams) -> Polynomial:
    """Expanded form of base polynomial P_index with (r, R) substituted.

    The seven building blocks, all symmetric under swapping (h, v):

        P1 = (h - r^2)(v - r^2)      P2 = h + v - 2 r^2
        P3 = h v - w^2               P4 = h + v - 2 w - r^2
        P5 = (R^2 - h)(R^2 - v)      P6 = 2 R^2 - h - v
        P7 = 1
    """
    r2, R2 = params.r2, params.R2
    if index == 1:
        return Polynomial({(1, 1, 0): 1, (1, 0, 0): -r2, (0, 1, 0): -r2, (0, 0, 0): r2 * r2})
    if index == 2:
        return Polynomial({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -2 * r2})
    if index == 3:
        return Polynomial({(1, 1, 0): 1, (0, 0, 2): -1})
    if index == 4:
        return Polynomial({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -2, (0, 0, 0): -r2})
    if index == 5:
        return Polynomial({(1, 1, 0): 1, (1, 0, 0): -R2, (0, 1, 0): -R2, (0, 0, 0): R2 * R2})
    if index == 6:
        return Polynomial({(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 0): 2 * R2})
    if index == 7:
        return Polynomial.constant(1)
    raise ValueError(f"base polynomial index must be in 1..7, got {index}")


def base_numerators(h: int, v: int, w: int, r2: int, R2: int) -> Tuple[int, ...]:
    """The numerators of P1..P6 at (h, v, w), r^2 and R^2, all five integers
    over one denominator d: P_t is the t-th over d^deg(P_t) (BASE_DEGREES),
    so the point lies in the region where P1..P6 are nonnegative exactly
    when all six are >= 0."""
    return ((h - r2) * (v - r2), h + v - 2 * r2, h * v - w * w,
            h + v - 2 * w - r2, (R2 - h) * (R2 - v), 2 * R2 - h - v)


def common_denominator(values: Iterable[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(d, (d x for x in values)): the values as integers over d, the lcm of their denominators."""
    values = tuple(values)
    d = math.lcm(*(x.denominator for x in values))
    return d, tuple(x.numerator * (d // x.denominator) for x in values)


def exact_ratio(num: int, den: int) -> Fraction:
    """Fraction(num, den), with a power-of-two den reduced by a shift, not a gcd.

    The largest power of two dividing both is 2^min(v2(num), log2(den)),
    and what is left is in lowest terms: its numerator is odd or its
    denominator is 1.  That pair is set on a bare Fraction's two slots,
    _numerator and _denominator, as CPython's own Fraction._from_coprime_ints
    (3.12) does, so neither a gcd nor Fraction()'s argument checks run: on
    32- to 500-bit operands it takes 0.5-0.7 us, against 0.65-3.2 us for
    Fraction(num, den) (CPython 3.11, 2 vCPU).  A zero num and any other
    den go through Fraction(num, den).
    """
    if num and den > 0 and not den & (den - 1):
        shift = min((num & -num).bit_length(), den.bit_length()) - 1
        q = object.__new__(Fraction)
        q._numerator, q._denominator = num >> shift, den >> shift
        return q
    return Fraction(num, den)


def base_values_from(numerators: Sequence[int], d: int) -> Tuple[Fraction, ...]:
    """(P1, ..., P7) from base_numerators over d, each made one Fraction by exact_ratio."""
    return (*map(exact_ratio, numerators, (d**k for k in BASE_DEGREES[:6])), Fraction(1))


def base_values_at(point: Sequence[Number], params: GeometricParams) -> Tuple[Fraction, ...]:
    """Exact values (P1(point), ..., P7(point)), evaluated in integers over d,
    the lcm of the denominators of h, v, w, r^2 and R^2: with float
    coordinates and float (r, R), d is a power of two."""
    d, ints = common_denominator((*(_frac(x) for x in point), params.r2, params.R2))
    return base_values_from(base_numerators(*ints), d)


@dataclass(frozen=True)
class BasisElement:
    """Exponents of the symmetric basis element w^a * (hv)^b * (h+v)^c."""

    a: int
    b: int
    c: int

    @property
    def grade(self) -> int:
        return self.a + 2 * self.b + self.c


@functools.lru_cache(maxsize=None)
def basis_enumerate(d: int) -> Tuple[BasisElement, ...]:
    """All (a, b, c) with a + 2b + c <= d, in the frozen graded order.

    Ordering: ascending grade a + 2b + c, then descending a, then descending
    b.  c is determined by (grade, a, b) within a grade, so the key is total.
    The grade-major order makes basis_enumerate(d1) a prefix of
    basis_enumerate(d2) whenever d1 <= d2, which downstream block nesting
    relies on.  The tuple is built once per d.
    """
    if d < 0:
        raise ValueError(f"basis degree must be nonnegative, got {d}")
    elems = [
        BasisElement(a, b, c)
        for a in range(d + 1)
        for b in range((d - a) // 2 + 1)
        for c in range(d - a - 2 * b + 1)
    ]
    elems.sort(key=lambda e: (e.grade, -e.a, -e.b))
    return tuple(elems)


def basis_to_poly(e: BasisElement) -> Polynomial:
    """Expanded sparse form of w^a * (hv)^b * (h+v)^c; always (h,v)-symmetric."""
    terms: Dict[Exponent, Fraction] = {}
    for i in range(e.c + 1):
        expo = (e.b + i, e.b + e.c - i, e.a)
        terms[expo] = terms.get(expo, Fraction(0)) + math.comb(e.c, i)
    return Polynomial(terms)


@functools.lru_cache(maxsize=None)
def _basis_exponents(k: int) -> Tuple[Exponent, ...]:
    """(a, b, c) of each element of basis_enumerate(k), in its order."""
    return tuple((e.a, e.b, e.c) for e in basis_enumerate(k))


def _powers(x: int, top: int) -> List[int]:
    """[1, x, x^2, ..., x^top], each power the running product of the last."""
    return list(accumulate(repeat(x, top), mul, initial=1))


def basis_values(k: int, w: int, hv: int, sig: int) -> Tuple[int, ...]:
    """w^a * hv^b * sig^c for each element of basis_enumerate(k), on integers.

    Each power of w, hv and sig is a running product, up to k, k // 2 and k,
    which bound a, b and c; the exponents are read from a tuple kept per k.
    """
    pw, ph, ps = _powers(w, k), _powers(hv, k // 2), _powers(sig, k)
    return tuple([pw[a] * ph[b] * ps[c] for a, b, c in _basis_exponents(k)])


def evaluate_basis(elements: Iterable[BasisElement], point: Sequence[Number]) -> Tuple[Fraction, ...]:
    """Exact values of basis elements at a point, via powers of (w, hv, h+v)."""
    h, v, w = (_frac(x) for x in point)
    hv, sig = h * v, h + v
    return tuple(w**e.a * hv**e.b * sig**e.c for e in elements)
