"""Compile (sentence, geometric params, degree, pivots) into a block SDP.

Each monomial m_i of a sentence owns one positive-semidefinite matrix
variable X_i of dimension |basis(d - deg m_i)|.  Substituting a pivot point
p into the polynomial identity turns it into one homogeneous equality row

    sum_i Tr(X_i^T A_{i,p}) = 0,   A_{i,p} = m_i(p) * u_p u_p^T,

where u_p is the basis evaluation vector at p.  Pivots are drawn from the
region where all six nonconstant base polynomials are nonnegative, which
makes every A_{i,p} rank <= 1 and positive semidefinite.  One inhomogeneous
normalization row excludes the all-zero solution; the objective matrices
C_i are built by the same outer-product construction evaluated at the
origin.  Both the objective and the normalization builders are pluggable;
the defaults here are documented stand-ins, not canonical constructions.

All matrix entries are exact rationals so that emission to solver files is
deterministic at any requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import qmc

from .grammar import Monomial, Sentence
from .polys import (
    GeometricParams,
    Number,
    _frac,
    base_values_at,
    basis_enumerate,
    evaluate_basis,
)

FracMatrix = Tuple[Tuple[Fraction, ...], ...]

ORIGIN = (Fraction(0), Fraction(0), Fraction(0))


@dataclass(frozen=True)
class PivotPoint:
    """A numeric (h, v, w) point, stored exactly."""

    h: Fraction
    v: Fraction
    w: Fraction

    @classmethod
    def make(cls, h: Number, v: Number, w: Number) -> "PivotPoint":
        return cls(_frac(h), _frac(v), _frac(w))

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.h, self.v, self.w)


class PivotGenerationError(RuntimeError):
    """Raised when the pivot generator cannot collect K admissible points."""

    def __init__(self, requested: int, found: int):
        super().__init__(
            f"pivot generation exhausted: requested {requested} points, found {found}"
        )
        self.requested = requested
        self.found = found


def region_membership(point: Sequence[Number], params: GeometricParams) -> bool:
    """True iff all six nonconstant base polynomials are >= 0 at the point."""
    return all(val >= 0 for val in base_values_at(point, params)[:6])


def _monomial_value(values: Sequence[Fraction], m: Monomial) -> Fraction:
    """The monomial's value from the base polynomial values (P1, ..., P7) at a point."""
    out = Fraction(1)
    for val, exp in zip(values, m.alpha):
        if exp:
            out *= val**exp
    return out


def monomial_value_at(m: Monomial, point: Sequence[Number], params: GeometricParams) -> Fraction:
    """Exact value of the monomial's polynomial at a point."""
    return _monomial_value(base_values_at(point, params), m)


def _chebyshev_nodes(lo: float, hi: float, count: int) -> List[float]:
    """Chebyshev points of the second kind on [lo, hi], endpoints included."""
    if count == 1:
        return [(lo + hi) / 2.0]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return [mid + half * math.cos(math.pi * k / (count - 1)) for k in range(count - 1, -1, -1)]


def _plane_point(h: float, v: float, params: GeometricParams) -> PivotPoint:
    # w chosen so the degree-1 base polynomial h + v - 2w - r^2 vanishes;
    # constraining pivots to this slice leaves each block one admissible
    # free direction, which keeps assembled instances feasible.
    h_q, v_q = _frac(h), _frac(v)
    w_q = (h_q + v_q - params.r2) / 2
    return PivotPoint(h_q, v_q, w_q)


def generate_pivots(
    params: GeometricParams,
    K: int,
    seed: int,
    scheme: str = "plane",
) -> List[PivotPoint]:
    """Exactly K distinct admissible pivot points, deterministic in all inputs.

    Schemes:
      * "plane" (default): Chebyshev grid over ordered pairs r^2 <= h <= v <= R^2
        on the slice where the degree-1 block h + v - 2w - r^2 vanishes,
        topped up with seeded low-discrepancy samples on the same slice.
        Restricting to h <= v avoids mirror-image points whose equality rows
        would be identical (the basis is symmetric in h and v).
      * "grid3d": Chebyshev grid in h, v crossed with Chebyshev-spaced w over
        [-sqrt(hv), sqrt(hv)], low-discrepancy fill; spans the full region.
        Retained for experimentation; note that with K at or above the block
        dimension, full-dimensional pivot sets force every block variable to
        zero, so assembled instances are generally infeasible.
    """
    if K < 1:
        raise ValueError(f"need K >= 1 pivots, got {K}")
    if scheme not in ("plane", "grid3d"):
        raise ValueError(f"unknown pivot scheme {scheme!r}")
    lo, hi = float(params.r) ** 2, float(params.R) ** 2
    picked: List[PivotPoint] = []
    seen = set()

    def consider(p: PivotPoint) -> None:
        key = p.as_tuple()
        if key in seen:
            return
        seen.add(key)
        if region_membership(key, params):
            picked.append(p)

    if scheme == "plane":
        g = 3
        while g * (g + 1) // 2 < 2 * K and g < 64:
            g += 1
        nodes = _chebyshev_nodes(lo, hi, g)
        for i, h in enumerate(nodes):
            for v in nodes[i:]:
                consider(_plane_point(h, v, params))
                if len(picked) >= K:
                    return picked[:K]
        sampler = qmc.Sobol(d=2, scramble=True, seed=seed)
        for _ in range(64):
            for x, y in sampler.random(64):
                h, v = lo + (hi - lo) * x, lo + (hi - lo) * y
                if h > v:
                    h, v = v, h
                consider(_plane_point(h, v, params))
                if len(picked) >= K:
                    return picked[:K]
    else:
        g = 3
        while g * g * g < 2 * K and g < 32:
            g += 1
        nodes = _chebyshev_nodes(lo, hi, g)
        for h in nodes:
            for v in nodes:
                half = math.sqrt(h * v)
                for w in _chebyshev_nodes(-half, half, g):
                    consider(PivotPoint.make(h, v, w))
                    if len(picked) >= K:
                        return picked[:K]
        sampler = qmc.Sobol(d=3, scramble=True, seed=seed)
        for _ in range(64):
            for x, y, z in sampler.random(64):
                h, v = lo + (hi - lo) * x, lo + (hi - lo) * y
                half = math.sqrt(h * v)
                consider(PivotPoint.make(h, v, -half + 2 * half * z))
                if len(picked) >= K:
                    return picked[:K]

    raise PivotGenerationError(K, len(picked))


class PivotTable:
    """One set of pivots with their base polynomial values and basis vectors.

    generate_pivots runs once and base_values_at once per pivot, when the
    table is built; the basis evaluation vectors of each degree k are
    computed on first use and kept.  Everything is exact, and equal to what
    assemble_sdp computes for the same (params, K, seed, scheme).
    """

    def __init__(self, params: GeometricParams, K: int, seed: int, scheme: str = "plane"):
        self.pivots = generate_pivots(params, K, seed, scheme=scheme)
        self.base_values = [base_values_at(p.as_tuple(), params) for p in self.pivots]
        self._basis: Dict[int, List[Tuple[Fraction, ...]]] = {}

    def monomial_values(self, m: Monomial) -> List[Fraction]:
        """m(p) for every pivot p, in pivot order."""
        return [_monomial_value(values, m) for values in self.base_values]

    def basis_vectors(self, k: int) -> List[Tuple[Fraction, ...]]:
        """evaluate_basis(basis_enumerate(k), p) for every pivot p, in pivot order."""
        if k not in self._basis:
            elems = basis_enumerate(k)
            self._basis[k] = [evaluate_basis(elems, p.as_tuple()) for p in self.pivots]
        return self._basis[k]


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------

def _outer_scaled(u: Sequence[Fraction], scale: Fraction) -> FracMatrix:
    return tuple(
        tuple(scale * ui * uj for uj in u)
        for ui in u
    )


def _check_degrees(s: Sentence, d: int) -> None:
    for m in s.monomials:
        if m.degree > d:
            raise ValueError(
                f"monomial {m.render()!r} has degree {m.degree} > cap d={d}"
            )


def build_constraint_blocks(
    s: Sentence, d: int, pivot: PivotPoint, params: GeometricParams
) -> List[FracMatrix]:
    """Per-monomial matrices m_i(pivot) * u u^T with u over basis(d - deg m_i)."""
    _check_degrees(s, d)
    point = pivot.as_tuple()
    blocks = []
    for m in s.monomials:
        elems = basis_enumerate(d - m.degree)
        u = evaluate_basis(elems, point)
        blocks.append(_outer_scaled(u, monomial_value_at(m, point, params)))
    return blocks


ObjectiveBuilder = Callable[[Sentence, int, GeometricParams], List[FracMatrix]]
NormalizationBuilder = Callable[[Sentence, int, GeometricParams], List[FracMatrix]]


def origin_objective_blocks(
    s: Sentence, d: int, params: GeometricParams
) -> List[FracMatrix]:
    """Default objective: the constraint-block construction taken at the origin.

    C_i = m_i(0,0,0) * u0 u0^T.  This is an explicit stand-in for the
    objective construction of the underlying bound literature, kept behind
    the ObjectiveBuilder interface so it can be replaced without touching
    the rest of the pipeline.
    """
    _check_degrees(s, d)
    blocks = []
    for m in s.monomials:
        elems = basis_enumerate(d - m.degree)
        u0 = evaluate_basis(elems, ORIGIN)
        blocks.append(_outer_scaled(u0, monomial_value_at(m, ORIGIN, params)))
    return blocks


def designated_block_index(s: Sentence, params: GeometricParams) -> int:
    """Block chosen to carry the normalization row.

    The first block whose monomial is positive at the origin; a block with a
    nonpositive origin value cannot pin a positive scale with a PSD variable.
    Falls back to block 0 when no block qualifies (the instance is then
    honestly infeasible and the solver reports it).
    """
    for i, m in enumerate(s.monomials):
        if monomial_value_at(m, ORIGIN, params) > 0:
            return i
    return 0


def first_block_normalization(
    s: Sentence, d: int, params: GeometricParams
) -> List[FracMatrix]:
    """Default normalization row: origin outer product on the designated block.

    N_j = m_j(0,0,0) * u0 u0^T on the designated block j, zero elsewhere;
    the row sum is constrained to 1, pinning the certificate scale (the
    role the unit-Fourier-mass condition plays in the analytic bound).
    """
    _check_degrees(s, d)
    idx = designated_block_index(s, params)
    blocks: List[FracMatrix] = []
    for i, m in enumerate(s.monomials):
        elems = basis_enumerate(d - m.degree)
        size = len(elems)
        if i == idx:
            u0 = evaluate_basis(elems, ORIGIN)
            blocks.append(_outer_scaled(u0, monomial_value_at(m, ORIGIN, params)))
        else:
            zero = Fraction(0)
            blocks.append(tuple(tuple(zero for _ in range(size)) for _ in range(size)))
    return blocks


@dataclass(frozen=True)
class SdpMeta:
    """Inputs echoed on the instance, for reports and caching."""

    n: int
    d: int
    r: float
    R: float
    sentence: str
    K: int
    seed: int
    pivot_scheme: str = "plane"


@dataclass(frozen=True)
class SdpInstance:
    """Block SDP: minimize sum_i Tr(X_i^T C_i) subject to the equality rows.

    `constraints` holds the K homogeneous rows (right-hand side 0);
    `normalization` is the single inhomogeneous row with right-hand side 1.
    """

    block_dims: Tuple[int, ...]
    constraints: Tuple[Tuple[FracMatrix, ...], ...]
    objective: Tuple[FracMatrix, ...]
    normalization: Tuple[FracMatrix, ...]
    meta: Optional[SdpMeta] = None

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_rows(self) -> int:
        return len(self.constraints) + 1


def _as_frac_matrix(mat: Sequence[Sequence[Number]]) -> FracMatrix:
    return tuple(tuple(_frac(x) for x in row) for row in mat)


def make_instance(
    block_dims: Sequence[int],
    constraints: Sequence[Sequence[Sequence[Sequence[Number]]]],
    objective: Sequence[Sequence[Sequence[Number]]],
    normalization: Sequence[Sequence[Sequence[Number]]],
    meta: Optional[SdpMeta] = None,
) -> SdpInstance:
    """Build an instance from plain nested lists (floats allowed), validating shapes."""
    dims = tuple(int(x) for x in block_dims)

    def check(blocks, label):
        mats = tuple(_as_frac_matrix(b) for b in blocks)
        if len(mats) != len(dims):
            raise ValueError(f"{label}: expected {len(dims)} blocks, got {len(mats)}")
        for mat, dim in zip(mats, dims):
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"{label}: block shape mismatch (expected {dim}x{dim})")
        return mats

    return SdpInstance(
        block_dims=dims,
        constraints=tuple(check(row, f"row {j}") for j, row in enumerate(constraints)),
        objective=check(objective, "objective"),
        normalization=check(normalization, "normalization"),
        meta=meta,
    )


def assemble_sdp(
    s: Sentence,
    params: GeometricParams,
    n: int,
    d: int,
    K: int,
    seed: int,
    objective_builder: ObjectiveBuilder = origin_objective_blocks,
    normalization_builder: NormalizationBuilder = first_block_normalization,
    pivot_scheme: str = "plane",
) -> SdpInstance:
    """Full instance for a sentence: K homogeneous rows plus one normalization row.

    The sentence is canonicalized first (constant padding and duplicate
    monomials produce identical blocks and are dropped).
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    canon = s.canonical()
    _check_degrees(canon, d)
    pivots = generate_pivots(params, K, seed, scheme=pivot_scheme)
    rows = tuple(
        tuple(build_constraint_blocks(canon, d, p, params)) for p in pivots
    )
    dims = tuple(len(basis_enumerate(d - m.degree)) for m in canon.monomials)
    from .grammar import render as render_sentence

    return SdpInstance(
        block_dims=dims,
        constraints=rows,
        objective=tuple(objective_builder(canon, d, params)),
        normalization=tuple(normalization_builder(canon, d, params)),
        meta=SdpMeta(
            n=n,
            d=d,
            r=params.r,
            R=params.R,
            sentence=render_sentence(canon),
            K=K,
            seed=seed,
            pivot_scheme=pivot_scheme,
        ),
    )


# ---------------------------------------------------------------------------
# Density bound
# ---------------------------------------------------------------------------

def ball_volume(n: int, radius: float = 1.0) -> float:
    """Volume of the n-dimensional Euclidean ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius**n


# pi to 64 significant digits, so pi lies in [_PI_LO, _PI_LO + 1e-63].
_PI_LO = Fraction("3.141592653589793238462643383279502884197169399375105820974944592")
_PI_HI = _PI_LO + Fraction(1, 10**63)


def _half_ball_volume_bounds(n: int) -> Tuple[Fraction, Fraction]:
    """Rational bounds lo <= ball_volume(n, 1/2) <= hi, exact but for pi.

    V_n(1) = pi^k / k! for n = 2k and 2^(k+1) pi^k / n!! for n = 2k + 1.
    """
    k = n // 2
    if n % 2 == 0:
        rational = Fraction(1, math.factorial(k))
    else:
        rational = Fraction(2 ** (k + 1), math.prod(range(n, 0, -2)))
    rational /= 2**n
    return rational * _PI_LO**k, rational * _PI_HI**k


def _round_up(q: Fraction) -> float:
    """The smallest float >= q."""
    f = float(q)  # int / int division, correctly rounded
    return math.nextafter(f, math.inf) if Fraction(f) < q else f


@dataclass(frozen=True)
class BoundReport:
    """Density upper bound derived from a solved objective value.

    bound = scaling_constant * objective_value * r^n, rounded upward (see
    compute_bound).  The default scaling
    constant is the volume of the n-ball of radius 1/2; it is configurable
    because the exact proportionality constant is a normalization choice.
    The bound is dimensionless and lands in (0, 1] when meaningful.
    """

    objective_value: float
    bound: float
    dimension: int
    scaling_constant: float


def compute_bound(
    objective_value: float,
    params: GeometricParams,
    n: int,
    scaling_constant: Optional[float] = None,
) -> BoundReport:
    """The bound, rounded upward so that rounding never understates it.

    bound is the smallest float at or above the exact real value of
    scale * objective_value * r^n, with r and objective_value taken as the
    exact values of their floats and the default scale as the exact volume
    of the radius-1/2 ball (pi bounded to 63 digits); it lies within one
    ulp of that value.
    """
    if not math.isfinite(objective_value):
        raise ValueError(f"objective value must be finite, got {objective_value}")
    if scaling_constant is None:
        scale = ball_volume(n, 0.5)
        scale_bounds = _half_ball_volume_bounds(n)
    else:
        scale = scaling_constant
        scale_bounds = (Fraction(scale), Fraction(scale))
    rest = Fraction(objective_value) * Fraction(params.r) ** n
    return BoundReport(
        objective_value=objective_value,
        bound=_round_up(max(rest * s for s in scale_bounds)),
        dimension=n,
        scaling_constant=scale,
    )


# ---------------------------------------------------------------------------
# SDPA sparse emission
# ---------------------------------------------------------------------------

def format_fraction(q: Fraction, digits: int = 40) -> str:
    """Deterministic scientific-notation rendering with `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        dec = Decimal(q.numerator) / Decimal(q.denominator)
    return f"{dec:.{digits - 1}E}".replace("E", "e")


def emit_sdpa(inst: SdpInstance, digits: int = 40) -> str:
    """Serialize an instance in SDPA sparse format (.dat-s).

    Layout: number of rows (K+1), number of blocks, block sizes, right-hand
    sides (K zeros then 1), then one line per nonzero upper-triangular entry
    as "row block i j value" with 1-based block and matrix indices.  Row 0
    denotes the objective matrices; the normalization row comes last.
    Ordering is (row, block, i, j), so re-emission is byte-identical.
    """
    K = len(inst.constraints)
    lines = [
        str(K + 1),
        str(inst.n_blocks),
        " ".join(str(dim) for dim in inst.block_dims),
        " ".join(["0"] * K + ["1"]),
    ]

    def emit_row(row_idx: int, blocks: Tuple[FracMatrix, ...]) -> None:
        for b, mat in enumerate(blocks):
            for i in range(len(mat)):
                for j in range(i, len(mat)):
                    if mat[i][j] != 0:
                        lines.append(
                            f"{row_idx} {b + 1} {i + 1} {j + 1} "
                            f"{format_fraction(mat[i][j], digits)}"
                        )

    emit_row(0, inst.objective)
    for j, row in enumerate(inst.constraints):
        emit_row(j + 1, row)
    emit_row(K + 1, inst.normalization)
    return "\n".join(lines) + "\n"


def block_arrays(blocks: Sequence[FracMatrix]) -> List[np.ndarray]:
    """Blocks as float64 numpy arrays (the embedded solver's working precision)."""
    return [np.array([[float(x) for x in row] for row in mat], dtype=float) for mat in blocks]
