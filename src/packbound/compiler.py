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
origin, and the normalization row applies it to the designated block alone
(PivotTable.instance).  These are documented stand-ins, not canonical
constructions.  Every instance uses them, and solver.solve_exact decides
exactly that instance in closed form.

Every block m(p) * u u^T is built from the moment pattern of its basis
degree k (moment_pattern): entry (i, j) of u u^T is w^A (hv)^B (h+v)^C,
where (A, B, C) is the sum of the exponents of basis elements i and j, so
the block has one distinct value per distinct sum (252 for k = 6, against
1275 upper-triangle entries), and m(p) = 0 gives one shared all-zero block.
PivotTable.instance builds every instance on its table's pivots, evaluated
once for all of them: base values once per pivot, when generate_pivots
admits it, and once at the origin, basis vectors once per pivot at the
largest degree, which smaller ones slice.

A basis vector is kept in integers over its pivot's own denominator delta,
u_p = n_p diag(delta^-grade), so with m(p) = a/b each distinct value is the
integer ratio (a n_i n_j) / (b delta^(g_i + g_j)), g the grades.
PivotTable.instance makes it one exact Fraction (polys.exact_ratio), which
equal entries share, so that emission to solver files is deterministic at
any requested precision.  A power-of-two denominator, which every table on
float (r, R) has since its pivots come from float candidates, is reduced by
a shift, any other by a gcd.  PivotTable.instance_arrays makes it one
correctly rounded division, the float64 image (InstanceArrays) a
certificate is checked on, without building a Fraction.
solver.solve_exact decides on a second integer view, the rows over one
denominator common to every pivot (PivotTable.integer_basis_vectors),
which neither of them reads.

compile, solve, search and report run on numpy alone.  A pivot table that
falls through to the Sobol fill draws from packbound.qmc, which gives
scipy.stats.qmc.Sobol's points without loading scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
from fractions import Fraction
from operator import truediv
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .grammar import Monomial, Sentence, render
from .polys import (
    GeometricParams,
    Number,
    _frac,
    base_values_at,
    basis_enumerate,
    basis_values,
    common_denominator,
    evaluate_basis,  # not called here; the tracer wraps it
    exact_ratio,
)
from .qmc import Sobol

FracMatrix = Tuple[Tuple[Fraction, ...], ...]
Pivot = Tuple[Fraction, Fraction, Fraction]  # an (h, v, w) point, stored exactly

ORIGIN = (Fraction(0), Fraction(0), Fraction(0))

PIVOT_SCHEMES = ("plane", "grid3d")


class PivotGenerationError(RuntimeError):
    """Raised when the pivot generator cannot collect K admissible points."""

    def __init__(self, requested: int, found: int):
        super().__init__(
            f"pivot generation exhausted: requested {requested} points, found {found}"
        )
        self.requested = requested
        self.found = found


def in_region(values: Sequence[Fraction]) -> bool:
    """True iff the base values (P1, ..., P7) at a point have P1..P6 all >= 0."""
    return all(val >= 0 for val in values[:6])


def _monomial_value(values: Sequence[Fraction], m: Monomial) -> Fraction:
    """The monomial's value from the base polynomial values (P1, ..., P7) at a point."""
    out = Fraction(1)
    for val, exp in zip(values, m.alpha):
        if exp:
            out *= val**exp
    return out


def _chebyshev_nodes(lo: float, hi: float, count: int) -> List[float]:
    """Chebyshev points of the second kind on [lo, hi], endpoints included."""
    if count == 1:
        return [(lo + hi) / 2.0]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return [mid + half * math.cos(math.pi * k / (count - 1)) for k in range(count - 1, -1, -1)]


def _plane_point(h: float, v: float, params: GeometricParams) -> Pivot:
    # w chosen so the degree-1 base polynomial h + v - 2w - r^2 vanishes;
    # constraining pivots to this slice leaves each block one admissible
    # free direction, which keeps assembled instances feasible.
    h_q, v_q = _frac(h), _frac(v)
    return h_q, v_q, (h_q + v_q - params.r2) / 2


def _plane_candidates(params: GeometricParams, K: int, seed: int) -> Iterator[Pivot]:
    """Chebyshev grid over pairs h <= v on the plane slice, then a Sobol fill on it."""
    lo, hi = float(params.r) ** 2, float(params.R) ** 2
    g = 3
    while g * (g + 1) // 2 < 2 * K and g < 64:
        g += 1
    nodes = _chebyshev_nodes(lo, hi, g)
    for i, h in enumerate(nodes):
        for v in nodes[i:]:
            yield _plane_point(h, v, params)
    sampler = Sobol(2, seed)
    for _ in range(64):
        for x, y in sampler.random(64):
            h, v = lo + (hi - lo) * x, lo + (hi - lo) * y
            if h > v:
                h, v = v, h
            yield _plane_point(h, v, params)


def _grid3d_candidates(params: GeometricParams, K: int, seed: int) -> Iterator[Pivot]:
    """Chebyshev grid in h, v and w over [-sqrt(hv), sqrt(hv)], then a Sobol fill."""
    lo, hi = float(params.r) ** 2, float(params.R) ** 2
    g = 3
    while g * g * g < 2 * K and g < 32:
        g += 1
    nodes = _chebyshev_nodes(lo, hi, g)
    for h in nodes:
        for v in nodes:
            half = math.sqrt(h * v)
            for w in _chebyshev_nodes(-half, half, g):
                yield _frac(h), _frac(v), _frac(w)
    sampler = Sobol(3, seed)
    for _ in range(64):
        for x, y, z in sampler.random(64):
            h, v = lo + (hi - lo) * x, lo + (hi - lo) * y
            half = math.sqrt(h * v)
            yield _frac(h), _frac(v), _frac(-half + 2 * half * z)


def check_pivot_scheme(scheme: str, R: float) -> None:
    """Raise ValueError unless scheme is known and, for grid3d, whose w spans
    [-sqrt(hv), sqrt(hv)] for h, v up to R^2 in floats, (R^2)^2 is finite."""
    if scheme not in PIVOT_SCHEMES:
        raise ValueError(f"unknown pivot scheme {scheme!r}")
    if scheme == "grid3d" and math.isinf(float(R) ** 2 * float(R) ** 2):
        raise ValueError(f"grid3d pivots need (R^2)^2 finite as a float, got R={R}")


def generate_pivots(
    params: GeometricParams,
    K: int,
    seed: int,
    scheme: str = "plane",
) -> Tuple[List[Pivot], List[Tuple[Fraction, ...]]]:
    """Exactly K distinct admissible pivot points, deterministic in all inputs.

    Returns (pivots, base_values): the points, each an exact (h, v, w) tuple
    of Fractions, and base_values_at at each, as admission computed it; each
    distinct candidate is evaluated once.

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
    check_pivot_scheme(scheme, params.R)
    candidates = _plane_candidates if scheme == "plane" else _grid3d_candidates
    picked: List[Pivot] = []
    picked_values: List[Tuple[Fraction, ...]] = []
    seen = set()
    for p in candidates(params, K, seed):
        if p in seen:
            continue
        seen.add(p)
        values = base_values_at(p, params)
        if in_region(values):
            picked.append(p)
            picked_values.append(values)
            if len(picked) == K:
                return picked, picked_values
    raise PivotGenerationError(K, len(picked))


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentPattern:
    """Where the distinct entries of u u^T sit, for u over basis(k).

    Entry (i, j) of u u^T is w^A (hv)^B (h+v)^C, with (A, B, C) the sum of
    the exponents of basis elements i and j, so it depends on that sum
    alone.  `pairs` holds one representative (i, j), i <= j, per distinct
    sum, in row-major order of first appearance in the upper triangle, and
    `grades` the grade of each sum.  `gather`, a symmetric np.intp array,
    holds at [i, j] the position of the sum of (i, j) in `pairs`, so
    values[gather] is the block of an array of its distinct values.
    """

    pairs: Tuple[Tuple[int, int], ...]
    grades: Tuple[int, ...]
    gather: np.ndarray = field(repr=False, compare=False)


@functools.lru_cache(maxsize=None)
def moment_pattern(k: int) -> MomentPattern:
    """The moment pattern of basis degree k, computed once per k."""
    elems = basis_enumerate(k)
    size = len(elems)
    position: Dict[Tuple[int, int, int], int] = {}
    pairs: List[Tuple[int, int]] = []
    grades: List[int] = []
    index = [[0] * size for _ in range(size)]
    for i, ei in enumerate(elems):
        for j in range(i, size):
            ej = elems[j]
            total = (ei.a + ej.a, ei.b + ej.b, ei.c + ej.c)
            if total not in position:
                position[total] = len(pairs)
                pairs.append((i, j))
                grades.append(ei.grade + ej.grade)
            index[i][j] = index[j][i] = position[total]
    return MomentPattern(tuple(pairs), tuple(grades), np.array(index, dtype=np.intp))


@functools.lru_cache(maxsize=None)
def _zero_block(size: int) -> FracMatrix:
    row = (Fraction(0),) * size
    return (row,) * size


def _rank_one(u: Tuple[Tuple[int, ...], int], scale: Fraction, k: int,
              ratio: Callable[[int, int], object], dtype: type) -> np.ndarray:
    """scale * u u^T as an array of dtype, one ratio per distinct entry.

    u = (n, delta) is the basis(k) vector at a point over that point's own
    denominator: u_p = n diag(delta^-grade), n an integer vector.  With
    scale = a/b, the entry of pair (i, j) of moment_pattern(k) is
    ratio(a n_i n_j, b delta^(g_i + g_j)), which the pattern's gather places.
    """
    nums, delta = u
    pattern = moment_pattern(k)
    a, b = scale.numerator, scale.denominator
    snum = [a * x for x in nums]
    sden = [b * delta**g for g in range(2 * k + 1)]
    values = [ratio(snum[i] * nums[j], sden[g])
              for (i, j), g in zip(pattern.pairs, pattern.grades)]
    return np.array(values, dtype=dtype)[pattern.gather]


def _rank_one_block(u: Tuple[Tuple[int, ...], int], scale: Fraction, k: int) -> FracMatrix:
    """scale * u u^T, exactly: one Fraction per distinct entry, which equal entries share."""
    if scale == 0:
        return _zero_block(len(u[0]))
    return tuple(map(tuple, _rank_one(u, scale, k, exact_ratio, object).tolist()))


def _origin_block(value: Fraction, size: int) -> FracMatrix:
    """value * e_0 e_0^T: a block m(0) u u^T at the origin, where u = e_0."""
    zero = _zero_block(size)
    return zero if value == 0 else ((value,) + zero[0][1:],) + zero[1:]


def _zero_array(size: int) -> np.ndarray:
    return np.zeros((size, size))


def _rank_one_array(u: Tuple[Tuple[int, ...], int], scale: Fraction, k: int) -> np.ndarray:
    """block_arrays([_rank_one_block(u, scale, k)])[0], without a Fraction.

    Each distinct entry is one integer true division.  Python rounds it
    correctly whatever factor the two sides share, as float() does the
    Fraction's reduced numerator and denominator, so every entry has the
    same bits.
    """
    if scale == 0:
        return _zero_array(len(u[0]))
    return _rank_one(u, scale, k, truediv, float)


def _origin_array(value: Fraction, size: int) -> np.ndarray:
    """block_arrays([_origin_block(value, size)])[0]."""
    out = _zero_array(size)
    out[0, 0] = float(value)
    return out


def instance_layout(s: Sentence, d: int) -> Tuple[Sentence, Tuple[int, ...]]:
    """s canonicalized, whose monomials m_i own one block each, and the basis
    degree d - deg m_i of each block; ValueError names a monomial of degree > d."""
    canon = s.canonical()
    for m in canon.monomials:
        if m.degree > d:
            raise ValueError(
                f"monomial {m.render()!r} has degree {m.degree} > cap d={d}"
            )
    return canon, tuple(d - m.degree for m in canon.monomials)


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


@dataclass(frozen=True)
class InstanceArrays:
    """The float64 image of an SdpInstance: its blocks, laid out as there, as arrays.

    Each entry is its Fraction correctly rounded (block_arrays).  It is what
    solver.verify_certificate and the ADMM row system read.  instance_arrays
    converts an instance, PivotTable.instance_arrays builds the image of
    PivotTable.instance without its Fraction blocks, and
    solver.system_to_instance reads one from a parsed SDPA file.
    """

    block_dims: Tuple[int, ...]
    constraints: Tuple[Tuple[np.ndarray, ...], ...]
    objective: Tuple[np.ndarray, ...]
    normalization: Tuple[np.ndarray, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_rows(self) -> int:
        return len(self.constraints) + 1


def instance_arrays(inst: SdpInstance) -> InstanceArrays:
    """The float64 image of inst, block by block: where an instance turns into floats."""
    return InstanceArrays(
        block_dims=inst.block_dims,
        constraints=tuple(tuple(block_arrays(row)) for row in inst.constraints),
        objective=tuple(block_arrays(inst.objective)),
        normalization=tuple(block_arrays(inst.normalization)),
    )


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


def _by_degree(memo: Dict[int, list], k: int, evaluate: Callable[[tuple], list]) -> list:
    """memo[k], one vector per pivot over basis_enumerate(k), computed on first use.

    A degree below the largest one in memo slices its vectors; any other is
    evaluated (evaluate maps the basis elements to the per-pivot vectors).
    """
    if k not in memo:
        top = max(memo, default=-1)
        if k < top:
            size = len(basis_enumerate(k))
            memo[k] = [u[:size] for u in memo[top]]
        else:
            memo[k] = evaluate(basis_enumerate(k))
    return memo[k]


class PivotTable:
    """The pivots of (params, K, seed, scheme), kept as attributes, and their instances.

    Every point value an instance or an exact decision reads comes from the
    table.  Building it makes one generate_pivots call, whose pivots, each
    an (h, v, w) tuple of Fractions, and base values it keeps, one
    base_values_at call, at the origin, and the pivots' region check.
    Everything is exact.  A campaign round builds one table, on which the
    search decides and from which the winner's instance is verified.

    Two integer views of the basis evaluation vectors u_p serve two readers:

    * instance and instance_arrays read basis_vectors, each pivot over its
      own denominator: delta_p is the lcm of the denominators of (h, v, w),
      and (H', V', W') = delta_p (h, v, w) are integers, so n_p = W'^a
      (H'V')^b (H'+V')^c and u_p = n_p diag(delta_p^-grade).  With
      m(p) = a/b from monomial_values, each distinct entry of a block is
      the integer ratio (a n_i n_j) / (b delta_p^(g_i + g_j)).  instance
      makes it one exact Fraction, for the dense blocks that SDPA emission
      writes, reducing a power-of-two denominator by a shift and any other
      by a gcd (polys.exact_ratio); instance_arrays makes it one correctly
      rounded float division, for the image solver.check_certificate
      checks a winner on.  Neither reads the rows the decision reads;
    * solver.solve_exact reads integers over one denominator.  D,
      `denominator`, is the lcm of the denominators of every pivot
      coordinate, and (H, V, W) = D (h, v, w) are integers, so
      integer_basis_vectors gives N_p = W^a (HV)^b (H+V)^c and
      u_p = N_p diag(D^-grade).  `zero_patterns[p]` has bit t - 1 set when
      P_t vanishes at pivot p (t = 1..6); since every P_t is nonnegative
      there and P7 = 1, m(p) > 0 exactly when no base polynomial in m's
      support vanishes at p (active_pivots).

    The vectors of degree k, in each view, are computed on first use
    and kept; since basis_enumerate(k) is a prefix of basis_enumerate(k') for
    k <= k', a smaller degree slices the largest one computed so far.
    `kernels` keeps solver._block_kernel's result for each (active pivots,
    k), which every monomial with that active set shares.
    """

    def __init__(self, params: GeometricParams, K: int, seed: int, scheme: str = "plane"):
        self.params, self.K, self.seed, self.scheme = params, K, seed, scheme
        self.pivots, self.base_values = generate_pivots(params, K, seed, scheme=scheme)
        # solver.solve_exact's argument needs m(p) >= 0 for every monomial m
        if not all(map(in_region, self.base_values)):
            raise ValueError("a pivot lies outside the region where P1..P6 are nonnegative")
        self.origin = base_values_at(ORIGIN, params)
        self.zero_patterns = tuple(
            sum(1 << t for t, v in enumerate(values[:6]) if v == 0) for values in self.base_values
        )
        D = self.denominator = math.lcm(*(x.denominator for p in self.pivots for x in p))
        self._coords = [tuple(x.numerator * (D // x.denominator) for x in p) for p in self.pivots]
        self._own_coords = [common_denominator(p) for p in self.pivots]
        self._own_basis: Dict[int, List[Tuple[int, ...]]] = {}
        self._integer_basis: Dict[int, List[Tuple[int, ...]]] = {}
        self.kernels: Dict[Tuple[Tuple[int, ...], int], Optional[List[int]]] = {}

    def monomial_values(self, m: Monomial) -> List[Fraction]:
        """m(p) for every pivot p, in pivot order."""
        return [_monomial_value(values, m) for values in self.base_values]

    def active_pivots(self, m: Monomial) -> List[int]:
        """Indices of the pivots p with m(p) > 0, in pivot order, from the zero patterns."""
        support = sum(1 << t for t, e in enumerate(m.alpha[:6]) if e)
        return [i for i, zeros in enumerate(self.zero_patterns) if not zeros & support]

    def origin_value(self, m: Monomial) -> Fraction:
        """m(0, 0, 0)."""
        return _monomial_value(self.origin, m)

    def designated_block(self, s: Sentence) -> int:
        """The block of s that carries the normalization row.

        The first block whose monomial is positive at the origin, since only such a PSD
        block can pin a positive scale; else block 0, and the instance is infeasible.
        """
        return next((i for i, m in enumerate(s.monomials) if self.origin_value(m) > 0), 0)

    def integer_basis_vectors(self, k: int) -> List[Tuple[int, ...]]:
        """N_p = u_p diag(D^grade) over basis_enumerate(k), for every pivot p, in pivot order."""
        return _by_degree(self._integer_basis, k, lambda elems: [
            basis_values(elems, W, H * V, H + V) for H, V, W in self._coords])

    def basis_vectors(self, k: int) -> List[Tuple[Tuple[int, ...], int]]:
        """(n_p, delta_p) with n_p = u_p diag(delta_p^grade) over basis_enumerate(k),
        for every pivot p, in pivot order; delta_p is p's own denominator."""
        vectors = _by_degree(self._own_basis, k, lambda elems: [
            basis_values(elems, W, H * V, H + V) for _, (H, V, W) in self._own_coords])
        return [(n, delta) for n, (delta, _) in zip(vectors, self._own_coords)]

    def _blocks(self, s: Sentence, d: int, rank_one: Callable, origin: Callable,
                zero: Callable) -> tuple:
        """(canonical s, block dims, rows, objective, normalization) of s at degree d.

        Block i of pivot p's row is rank_one(u_p, m_i(p), k_i), where u_p is
        p's entry of basis_vectors(k_i), the objective block is origin(m_i(0),
        dim_i) and the normalization row is the objective on the designated
        block, zero(dim_i) elsewhere.
        """
        canon, degrees = instance_layout(s, d)
        dims = tuple(len(basis_enumerate(k)) for k in degrees)
        objective = tuple(
            origin(self.origin_value(m), dim) for m, dim in zip(canon.monomials, dims)
        )
        self.basis_vectors(max(degrees))  # evaluated once; the smaller degrees slice it
        columns = [  # column i holds block i, m_i(p) u_p u_p^T, of each pivot's row
            [rank_one(u, value, k)
             for u, value in zip(self.basis_vectors(k), self.monomial_values(m))]
            for m, k in zip(canon.monomials, degrees)
        ]
        j = self.designated_block(canon)
        normalization = tuple(
            block if i == j else zero(dim) for i, (block, dim) in enumerate(zip(objective, dims))
        )
        return canon, dims, tuple(zip(*columns)), objective, normalization

    def instance(self, s: Sentence, n: int, d: int) -> SdpInstance:
        """Full instance for a sentence: K homogeneous rows plus one normalization row.

        The sentence is canonicalized first (constant padding and duplicate
        monomials produce identical blocks and are dropped).  The objective
        is C_i = m_i(0) u_0 u_0^T with u_0 = e_0, the basis vector at the
        origin; the normalization row, right-hand side 1, is C_j on the
        designated block j and zero elsewhere, pinning the certificate scale.
        """
        if n < 1:
            raise ValueError(f"dimension n must be >= 1, got {n}")
        canon, dims, rows, objective, normalization = self._blocks(
            s, d, _rank_one_block, _origin_block, _zero_block)
        return SdpInstance(
            block_dims=dims,
            constraints=rows,
            objective=objective,
            normalization=normalization,
            meta=SdpMeta(n=n, d=d, r=self.params.r, R=self.params.R, sentence=render(canon),
                         K=self.K, seed=self.seed, pivot_scheme=self.scheme),
        )

    def instance_arrays(self, s: Sentence, d: int) -> InstanceArrays:
        """instance_arrays(self.instance(s, n, d)), bit for bit, for any n, built
        from the same integers (_rank_one_array), with no Fraction block."""
        _, *blocks = self._blocks(s, d, _rank_one_array, _origin_array, _zero_array)
        return InstanceArrays(*blocks)


def assemble_sdp(
    s: Sentence,
    params: GeometricParams,
    n: int,
    d: int,
    K: int,
    seed: int,
    pivot_scheme: str = "plane",
) -> SdpInstance:
    """The instance of s on a PivotTable built for this call alone (PivotTable.instance)."""
    return PivotTable(params, K, seed, pivot_scheme).instance(s, n, d)


# ---------------------------------------------------------------------------
# Density bound
# ---------------------------------------------------------------------------

# pi to 64 significant digits, so pi lies in [_PI_LO, _PI_LO + 1e-63].
_PI_LO = Fraction("3.141592653589793238462643383279502884197169399375105820974944592")
_PI_HI = _PI_LO + Fraction(1, 10**63)


def _half_ball_volume_bounds(n: int) -> Tuple[Fraction, Fraction]:
    """Rational bounds lo <= V_n(1/2) <= hi, exact but for pi.

    V_n(t) is the volume of the n-ball of radius t, and V_n(1) = pi^k / k!
    for n = 2k and 2^(k+1) pi^k / n!! for n = 2k + 1.
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


def compute_bound(objective_value: float, params: GeometricParams, n: int) -> float:
    """The density bound V_n(1/2) * objective_value * r^n, rounded upward.

    It is the smallest float at or above the exact real value, with r and
    objective_value taken as the exact values of their floats and the
    radius-1/2 ball volume bounded through pi to 63 digits, so it lies
    within one ulp of that value and rounding never understates it.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if not math.isfinite(objective_value):
        raise ValueError(f"objective value must be finite, got {objective_value}")
    rest = Fraction(objective_value) * Fraction(params.r) ** n
    return _round_up(max(rest * s for s in _half_ball_volume_bounds(n)))


# ---------------------------------------------------------------------------
# SDPA sparse emission
# ---------------------------------------------------------------------------

def _fraction_formatter(digits: int) -> Callable[[Fraction], str]:
    """format_fraction at `digits`, with its two decimal contexts built once."""
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")

    def context(prec: int) -> Context:
        # every field given, so neither the thread's context nor
        # decimal.DefaultContext can change a digit, or trap
        return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX,
                       capitals=1, clamp=0, flags=[], traps=[])

    divide = context(digits + 5).divide
    round_to_digits = context(digits).plus
    spec = f".{digits - 1}e"

    def fmt(q: Fraction) -> str:
        # exact once rounded, so format() itself never rounds
        return format(round_to_digits(divide(*q.as_integer_ratio())), spec)

    return fmt


def format_fraction(q: Fraction, digits: int = 40) -> str:
    """Deterministic scientific-notation rendering with `digits` significant digits.

    q is divided at digits + 5 digits, then rounded half-even to `digits`,
    each in a context of its own: the caller's decimal context plays no part.
    """
    return _fraction_formatter(digits)(q)


def emit_sdpa(inst: SdpInstance, digits: int = 40) -> str:
    """Serialize an instance in SDPA sparse format (.dat-s).

    Layout: number of rows (K+1), number of blocks, block sizes, right-hand
    sides (K zeros then 1), then one line per nonzero upper-triangular entry
    as "row block i j value" with 1-based block and matrix indices.  Row 0
    denotes the objective matrices; the normalization row comes last.
    Ordering is (row, block, i, j), so re-emission is byte-identical.
    Values are written as format_fraction writes them, in decimal contexts
    fixed by `digits` and built once per call, and each distinct Fraction
    is formatted once per call.
    """
    fmt = _fraction_formatter(digits)
    K = len(inst.constraints)
    lines = [
        str(K + 1),
        str(inst.n_blocks),
        " ".join(str(dim) for dim in inst.block_dims),
        " ".join(["0"] * K + ["1"]),
    ]
    rows = (inst.objective, *inst.constraints, inst.normalization)
    # Keyed by id(): equal entries of a block share one Fraction, and the
    # instance keeps every entry alive for the whole call.  Hashing a
    # Fraction takes a modular inverse of its denominator.
    distinct: Dict[int, Fraction] = {}
    for blocks in rows:
        for mat in blocks:
            for i, line in enumerate(mat):
                upper = line[i:]
                distinct.update(zip(map(id, upper), upper))
    # a zero's text is "", which drops its entries
    text_of = {key: fmt(x) if x else "" for key, x in distinct.items()}.__getitem__
    for row_idx, blocks in enumerate(rows):
        for b, mat in enumerate(blocks, 1):
            size = len(mat)
            for i, line in enumerate(mat, 1):
                prefix = f"{row_idx} {b} {i} "
                lines += [f"{prefix}{j} {text}" for j, text in
                          zip(range(i, size + 1), map(text_of, map(id, line[i - 1:]))) if text]
    return "\n".join(lines) + "\n"


def block_arrays(blocks: Sequence[FracMatrix]) -> List[np.ndarray]:
    """Blocks as float64 numpy arrays (the embedded solver's working precision),
    each of shape (dim, dim), a 0x0 block included."""
    return [np.array([[float(x) for x in row] for row in mat], dtype=float)
            .reshape(len(mat), len(mat)) for mat in blocks]
