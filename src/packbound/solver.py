"""Solve block SDP instances and verify the resulting certificates.

Instances built by compiler.PivotTable.instance (origin objective,
designated-block normalization) are decided exactly by solve_exact: every
block is rank one with nonnegative pivot values, so feasibility,
boundedness and the optimum (always 1) follow from fraction-free
elimination on each block's active pivot rows, taken as the table's integer
rows (on the rows that span them modulo a prime, the result checked against
every row), and the rank-one certificate is checked exactly.
The tree search uses it for every evaluation.  The ADMM solver below reads
any instance's float image, as the gate does, and serves the CLI and scripts.

Every solver returns a SolverResult, which holds only what the solver claims.
No solver reports a residual or a time.

The embedded solver is a first-order operator-splitting scheme (ADMM):
alternate between projection onto the affine subspace of the equality rows
(an orthonormal basis of the row space from one SVD, reused every iteration)
and projection onto the PSD cone per block (symmetric eigendecomposition
with negative eigenvalues clipped), with a scaled dual update carrying the
objective.  It works in float64 and targets desk-scale instances; larger or
higher-precision runs go to an external SDPA-family solver (solve_external)
as SDPA text, and its text output is parsed here as well.

Certificate verification recomputes every trace, the eigenvalue floors and
the objective directly from the instance data, as its float64 image
(compiler.InstanceArrays).  check_certificate is the one gate for every
claim, whichever solver made it, and the only source of the statuses and
residuals that are recorded or printed.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .compiler import InstanceArrays, PivotTable, SdpInstance, instance_arrays, instance_layout
from .compiler import block_arrays  # not called here; perfbench/tracing.py wraps this name
from .grammar import Monomial, Sentence
from .polys import basis_enumerate


class SolverStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible-detected"
    NUMERIC_FAILURE = "numeric-failure"
    UNBOUNDED = "unbounded"


@dataclass
class SolverResult:
    """What one solve claims: a status, an objective and the primal blocks.

    Nothing here is checked.  check_certificate turns any claim into a
    status and residuals; primal_blocks is empty when the solver returned no
    certificate.  A caller that wants a solve's time measures it.
    """

    status: SolverStatus
    objective_value: float
    primal_blocks: List[np.ndarray]
    iterations: int
    message: str = ""


# ADMM settings that no caller varies: step size, over-relaxation factor,
# the objective below which an iterate counts as running down a recession
# ray, and the iterate norm that counts as divergence.
ADMM_RHO = 1.0
ADMM_OVER_RELAXATION = 1.7
ADMM_OBJECTIVE_FLOOR = -1e3
ADMM_NORM_CAP = 1e10
# Seconds an external solver may run before solve_external gives up on it.
EXTERNAL_TIMEOUT_S = 3600


def check_tolerances(*tolerances: float) -> None:
    """Raise ValueError unless every tolerance is positive and finite."""
    if not all(0 < tol < math.inf for tol in tolerances):
        raise ValueError(f"tolerances must be positive and finite, got "
                         f"{', '.join(map(str, tolerances))}")


def _as_arrays(inst: Union[SdpInstance, InstanceArrays]) -> InstanceArrays:
    return inst if isinstance(inst, InstanceArrays) else instance_arrays(inst)


def _stack_rows(inst: Union[SdpInstance, InstanceArrays]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[slice]]:
    """Flatten the instance's float image (rows and objective) into a dense system.

    Returns (M, b, c, block_slices) where each equality row of the instance
    becomes one row of M over the concatenated flattened blocks, and the
    normalization row comes last with right-hand side 1.  Every row is kept,
    zero rows included; solve_embedded drops those.
    """
    arrays = _as_arrays(inst)
    dims = arrays.block_dims
    slices, total = [], 0
    for dim in dims:
        slices.append(slice(total, total + dim * dim))
        total += dim * dim

    def flatten(blocks: Sequence[np.ndarray]) -> np.ndarray:
        vec = np.zeros(total)
        for sl, mat in zip(slices, blocks):
            vec[sl] = mat.ravel()
        return vec

    rows = [flatten(row) for row in arrays.constraints]
    rows.append(flatten(arrays.normalization))
    b = np.zeros(len(rows))
    b[-1] = 1.0
    M = np.array(rows)
    c = flatten(arrays.objective)
    return M, b, c, slices


def _congruence_scale(M: np.ndarray, slices: Sequence[slice], dims: Sequence[int]) -> np.ndarray:
    """Per-coordinate scaling induced by a diagonal change of basis per block.

    Basis evaluation vectors mix magnitudes across many orders (powers of
    h + v reach the thousands), which wrecks the conditioning of the row
    system.  Rescaling basis coordinate i by t_i is a congruence X -> T X T,
    which preserves positive semidefiniteness, so the solver may work in
    scaled coordinates and map the result back exactly.
    """
    scale = np.ones(M.shape[1])
    for sl, dim in zip(slices, dims):
        colrms = np.sqrt(np.mean(M[:, sl] ** 2, axis=0)).reshape(dim, dim)
        diagmag = np.sqrt(np.diag(colrms))
        t = np.where(diagmag > 1e-150, 1.0 / np.maximum(diagmag, 1e-150), 1.0)
        scale[sl] = np.outer(t, t).ravel()
    return scale


def _facial_rows(
    M: np.ndarray,
    b: np.ndarray,
    slices: Sequence[slice],
    dims: Sequence[int],
) -> List[np.ndarray]:
    """Kernel constraints implied by homogeneous rows of PSD rank-1 blocks.

    When a row reads sum_i s_i * u_i^T X_i u_i = 0 with every s_i >= 0 and
    every X_i constrained PSD, each term must vanish individually, which for
    a PSD matrix means X_i u_i = 0.  Adding these linear consequences is a
    facial reduction: it leaves the feasible set unchanged but restores a
    relative interior, without which the splitting iteration crawls.  Rows
    that do not match the rank-1 PSD pattern are left untouched.
    """
    extra: List[np.ndarray] = []
    width = M.shape[1]
    for row, rhs in zip(M, b):
        if rhs != 0.0:
            continue
        vectors = []
        admissible = True
        for sl, dim in zip(slices, dims):
            B = row[sl].reshape(dim, dim)
            top = float(np.abs(B).max()) if B.size else 0.0
            if top == 0.0:
                vectors.append(None)
                continue
            k = int(np.argmax(np.diag(B)))
            dk = float(B[k, k])
            if dk <= 0.0:
                admissible = False
                break
            u = B[:, k] / math.sqrt(dk)
            s = dk / (u[k] ** 2)
            if float(np.abs(B - s * np.outer(u, u)).max()) > 1e-10 * top:
                admissible = False
                break
            vectors.append(u / np.linalg.norm(u))
        if not admissible:
            continue
        for sl, dim, u in zip(slices, dims, vectors):
            if u is None:
                continue
            for k in range(dim):
                r = np.zeros(width)
                E = np.zeros((dim, dim))
                E[:, k] += u / 2.0
                E[k, :] += u / 2.0
                r[sl] = E.ravel()
                extra.append(r)
    return extra


def solve_embedded(
    inst: Union[SdpInstance, InstanceArrays],
    tol_eq: float = 1e-8,
    max_iterations: int = 50000,
) -> SolverResult:
    """Minimize sum_i Tr(X_i^T C_i) over the instance's equality rows and PSD cone.

    It reads the instance's float image, as verify_certificate does.
    Deterministic given (instance, settings).  The equality residual of the
    iterates (each row scaled by 1 + its Frobenius norm) is the stopping rule
    alone: convergence is claimed when it reaches tol_eq while successive
    iterates stabilize; residuals alone are not enough, because an instance
    whose objective is unbounded below has feasible iterates drifting along a
    recession ray.  Stalled residuals far above tolerance are reported as
    infeasible-detected; an iterate norm above ADMM_NORM_CAP or an objective
    below ADMM_OBJECTIVE_FLOOR is a numeric failure.  Linearly dependent rows
    (inevitable once the pivot count exceeds the blocks' symmetric dimension)
    are handled by reducing the row system to an orthonormal spanning set.
    The returned blocks are a PSD projection; check_certificate applies the
    PSD rule to the claim.
    """
    check_tolerances(tol_eq)
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    M, b, c, slices = _stack_rows(inst)
    dims = inst.block_dims
    norms_orig = np.linalg.norm(M, axis=1)

    def result(status, z, iterations, message=""):
        blocks = [z[sl].reshape(dim, dim) for sl, dim in zip(slices, dims)]
        return SolverResult(status, float(c @ z), blocks, iterations, message)

    def eq_residual(z: np.ndarray) -> float:
        return float(np.max(np.abs((M @ z - b) / (1.0 + norms_orig))))

    dead = norms_orig < 1e-300
    if np.any(dead & (np.abs(b) > 0)):
        return result(SolverStatus.INFEASIBLE, np.zeros_like(c), 0,
                      "a zero row has nonzero right-hand side")

    scale = _congruence_scale(M, slices, dims)
    extra = _facial_rows(M, b, slices, dims)
    M_aug = np.vstack([M] + [e[None, :] for e in extra]) if extra else M
    b_aug = np.concatenate([b, np.zeros(len(extra))])
    Ms = M_aug * scale[None, :]
    cs = c * scale
    row_norms = np.linalg.norm(Ms, axis=1)
    alive = row_norms > 1e-300
    Ms, b_k, row_norms = Ms[alive], b_aug[alive], row_norms[alive]

    if Ms.shape[0] > 0:
        Mn = Ms / row_norms[:, None]
        bn = b_k / row_norms
        U, S, Vt = np.linalg.svd(Mn, full_matrices=False)
        keep_dirs = S > S[0] * 1e-12 if S.size else np.zeros(0, bool)
        if not np.any(keep_dirs):
            return result(SolverStatus.NUMERIC_FAILURE, np.zeros_like(c), 0,
                          "row system has no usable spectrum (degenerate pivots)")
        W = Vt[keep_dirs]
        beta = (U[:, keep_dirs].T @ bn) / S[keep_dirs]

        def project_affine(y: np.ndarray) -> np.ndarray:
            return y + W.T @ (beta - W @ y)
    else:
        def project_affine(y: np.ndarray) -> np.ndarray:
            return y

    def project_psd(y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        for sl, dim in zip(slices, dims):
            mat = y[sl].reshape(dim, dim)
            sym = 0.5 * (mat + mat.T)
            vals, vecs = np.linalg.eigh(sym)
            np.clip(vals, 0.0, None, out=vals)
            out[sl] = ((vecs * vals) @ vecs.T).ravel()
        return out

    alpha = ADMM_OVER_RELAXATION
    z = np.zeros_like(cs)
    u = np.zeros_like(cs)
    best_z = z * scale
    best_res = eq_residual(best_z)
    status = SolverStatus.MAX_ITERATIONS
    message = ""
    iterations = 0
    step_tol = tol_eq
    plateau_window = 1000
    last_window_best = best_res

    for it in range(1, max_iterations + 1):
        iterations = it
        x = project_affine(z - u - cs / ADMM_RHO)
        x_rel = alpha * x + (1.0 - alpha) * z
        z_new = project_psd(x_rel + u)
        u = u + x_rel - z_new
        step = float(np.max(np.abs(z_new - z))) if z.size else 0.0
        z = z_new

        z_orig = z * scale
        res = eq_residual(z_orig)
        if res < best_res:
            best_res = res
            best_z = z_orig
        if res <= tol_eq and step <= step_tol:
            status = SolverStatus.CONVERGED
            best_z = z_orig
            break
        if not np.all(np.isfinite(z)):
            status = SolverStatus.NUMERIC_FAILURE
            message = "non-finite values in iterates"
            break
        objective_now = float(c @ z_orig)
        if objective_now < ADMM_OBJECTIVE_FLOOR:
            status = SolverStatus.NUMERIC_FAILURE
            message = (
                f"objective fell below the floor {ADMM_OBJECTIVE_FLOOR:g}; "
                "unbounded below along a feasible ray"
            )
            break
        if float(np.linalg.norm(z)) > ADMM_NORM_CAP:
            status = SolverStatus.NUMERIC_FAILURE
            message = "iterate norm diverged"
            break
        if it % plateau_window == 0:
            if best_res > 1e3 * tol_eq and best_res > 0.99 * last_window_best:
                status = SolverStatus.INFEASIBLE
                message = "equality residual stalled far above tolerance"
                break
            last_window_best = best_res

    return result(status, best_z, iterations, message)


# ---------------------------------------------------------------------------
# Exact decision of the assembled instances
# ---------------------------------------------------------------------------

# The prime _kernel_vector screens its rows modulo: below 2^31, so a product
# of two residues stays below 2^62 and fits an int64.
SCREEN_PRIME = 2**31 - 1


def _spanning_rows(rows: Sequence[Sequence[int]], dim: int) -> List[int]:
    """Indices of rows, at most dim of them, that span every row modulo SCREEN_PRIME.

    Gauss-Jordan elimination on int64 residues, one pivot row per step: the
    pivot row is scaled to a leading 1 and its multiples are subtracted from
    the others, with every entry reduced below the prime after each step, so
    no product exceeds 2^62.  The picked rows are independent modulo the
    prime, hence over the rationals; a row that reduces to zero modulo the
    prime may still lie outside their rational span.
    """
    p = SCREEN_PRIME
    res = np.array([[x % p for x in row] for row in rows], dtype=np.int64).reshape(len(rows), dim)
    picked: List[int] = []
    unpicked = np.ones(len(rows), dtype=bool)
    for c in range(dim):
        nonzero = np.flatnonzero(unpicked & (res[:, c] != 0))
        if not len(nonzero):
            continue
        i = int(nonzero[0])
        unpicked[i] = False
        pivot = res[i] * pow(int(res[i, c]), -1, p) % p
        factors = res[:, c].copy()
        factors[i] = 0
        res -= factors[:, None] * pivot
        res %= p
        res[i] = pivot
        picked.append(i)
    return sorted(picked)


def _eliminate(rows: Sequence[Sequence[int]], dim: int) -> Optional[List[int]]:
    """_kernel_vector's q from rows alone, unchecked; None when e_0 is in their span."""
    order = list(range(1, dim)) + [0]
    echelon: Dict[int, List[int]] = {}  # pivot position -> row, in column order
    for row in rows:
        r = [row[c] for c in order]
        for pos in range(dim):
            if r[pos] == 0:
                continue
            b = echelon.get(pos)
            if b is None:
                g = math.gcd(*r)
                echelon[pos] = [x // g for x in r]
                break
            g = math.gcd(b[pos], r[pos])
            f, s = b[pos] // g, r[pos] // g
            r = [f * x - s * y for x, y in zip(r, b)]
        if dim - 1 in echelon:
            return None
    q = [0] * dim
    q[dim - 1] = 1
    for pos in sorted(echelon, reverse=True):
        b = echelon[pos]
        t = -sum(b[c] * q[c] for c in range(pos + 1, dim))
        g = math.gcd(t, b[pos])
        scale = b[pos] // g  # q[pos] = t / b[pos] solves row b; keep q integral
        if scale != 1:
            q = [x * scale for x in q]
        q[pos] = t // g
    g = math.gcd(*q) if q[dim - 1] > 0 else -math.gcd(*q)
    out = [0] * dim
    for pos, c in enumerate(order):
        out[c] = q[pos] // g
    return out


def _kernel_vector(rows: Sequence[Sequence[int]], dim: int) -> Optional[List[int]]:
    """The primitive integer q with row . q = 0 for every row and q[0] > 0, or None.

    None means e_0 lies in the span of the rows.  Fraction-free elimination
    on the integer rows, with the columns taken in the order 1, ..., dim - 1,
    0: column 0 holds a pivot exactly when e_0 is in the span; otherwise
    q[0] = 1 (before clearing denominators), the other free coordinates are 0
    and back substitution, scaled to stay in integers, gives the pivot
    coordinates.  Scaling a column moves no pivot column, so q depends on the
    row span alone, up to that scaling.

    Most rows lie in the span of the others, so the elimination runs first
    on the at most dim rows that _spanning_rows picks modulo SCREEN_PRIME.
    If e_0 is in their span it is in that of all rows: None.  Otherwise
    their q is kept only if it is exactly orthogonal to every row, and then
    it is the q of all rows.  Pivot columns can only grow with the span, so
    q, which is 0 on every column but 0 that holds no pivot of the subset's
    span, is 0 on every such column of the full span, and the full span has
    one null vector of that shape with q[0] = 1.  A row the screen missed
    (in the picked rows' span modulo the prime, not over the rationals) can
    fail the check, and the elimination then runs again on all rows: the
    screen can cost time, never change the result.  The returned q is
    checked against every row.
    """
    def fails(q: Optional[List[int]]) -> bool:
        return q is not None and any(sum(a * b for a, b in zip(row, q)) for row in rows)

    q = _eliminate([rows[i] for i in _spanning_rows(rows, dim)], dim)
    if fails(q):
        q = _eliminate(rows, dim)
        if fails(q):
            raise RuntimeError("kernel vector fails its own rows")
    return q


def _block_kernel(table: PivotTable, m: Monomial, k: int) -> Optional[List[int]]:
    """The primitive integer q with u_p . q = 0 at every pivot p where m(p) > 0 and
    q[0] > 0, u_p over basis_enumerate(k); None when e_0 is in the span of those u_p.

    Decided on the table's integer rows N_p = u_p diag(D^grade): N q_N = 0
    exactly when U q = 0 for q = diag(D^grade) q_N, and grade 0 is the
    constant coordinate alone, so e_0 is in the row span of U exactly when it
    is in that of N, and q is diag(D^grade) q_N made primitive again.
    The result depends on the active pivots and k alone, so it is computed
    once per table for each (active pivots, k) and kept in table.kernels.
    """
    active = tuple(table.active_pivots(m))
    key = (active, k)
    if key not in table.kernels:
        elems = basis_enumerate(k)
        rows = table.integer_basis_vectors(k)
        q = _kernel_vector([rows[p] for p in active], len(elems))
        if q is not None:
            q = [x * table.denominator**e.grade for x, e in zip(q, elems)]
            g = math.gcd(*q)
            q = [x // g for x in q]
        table.kernels[key] = q
    return table.kernels[key]


def solve_exact(sentence: Sentence, d: int, table: PivotTable) -> SolverResult:
    """Decide the instance table.instance(sentence, n, d) exactly, for any n.

    Every value it reads comes from the table: the pivots' zero patterns and
    integer basis vectors, the origin values and the designated block; the
    table has checked that its pivots lie in the region.  The row for pivot p
    reads sum_i m_i(p) u_p^T X_i u_p = 0 with every m_i(p) >= 0, so
    each term vanishes on its own: X_i u_p = 0 wherever m_i(p) > 0 (the
    facial-reduction argument), that is at the pivots where no base
    polynomial of m_i vanishes.  The basis vector at the origin is e_0, so
    the normalization reads m_j(0) X_j[0, 0] = 1 on the designated block j
    and the objective is sum_i m_i(0) X_i[0, 0].  With q_i a null vector of
    block i's active rows with q_i[0] != 0, where one exists (_block_kernel,
    which eliminates in integers on u_p diag(D^grade), D the table's common
    denominator, and maps the null vector back):

    * infeasible-detected when block j has no q_j or m_j(0) <= 0;
    * unbounded when another block i has q_i and m_i(0) < 0, because
      X_i = t q_i q_i^T drives the objective to minus infinity;
    * otherwise converged with objective exactly 1, certified by
      X_j = c q_j q_j^T with c = 1 / (m_j(0) q_j[0]^2) and zero blocks
      elsewhere.

    The certificate is checked exactly before it is returned, and
    primal_blocks hold its float image.  No point is evaluated in rationals
    here: a campaign checks the winner's float image separately, with
    check_certificate on table.instance_arrays, which evaluates each pivot
    over its own denominator and reads the monomial values, not the integer
    rows decided on here.
    """
    canon, degrees = instance_layout(sentence, d)
    monomials = canon.monomials

    def result(status, message, objective=math.nan, blocks=()):
        return SolverResult(status, objective, list(blocks), 0, message)

    j = table.designated_block(canon)
    label = f"block {j} ({monomials[j].render()})"
    m_j0 = table.origin_value(monomials[j])
    if m_j0 <= 0:
        return result(SolverStatus.INFEASIBLE, f"{label} is not positive at the origin")
    q = _block_kernel(table, monomials[j], degrees[j])
    if q is None:
        return result(SolverStatus.INFEASIBLE,
                      f"{label}: e_0 lies in the span of its active pivot rows")
    for i, (m, k) in enumerate(zip(monomials, degrees)):
        if (i != j and table.origin_value(m) < 0
                and _block_kernel(table, m, k) is not None):
            return result(SolverStatus.UNBOUNDED,
                          f"block {i} ({m.render()}) is negative at the origin and can "
                          "grow along its kernel: unbounded below",
                          objective=-math.inf)

    c = 1 / (m_j0 * q[0] ** 2)
    if m_j0 * c * q[0] ** 2 != 1:
        raise RuntimeError("certificate fails its normalization")
    num, den = c.numerator, c.denominator
    dims = [len(basis_enumerate(k)) for k in degrees]
    blocks = [np.zeros((dim, dim)) for dim in dims]
    blocks[j] = np.array([[(num * a * b) / den for b in q] for a in q])
    return result(SolverStatus.CONVERGED, f"{label} carries the certificate",
                  objective=1.0, blocks=blocks)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    equality_residual: float
    psd_residual: float
    objective_recomputed: float


def verify_certificate(inst: Union[SdpInstance, InstanceArrays],
                       res: SolverResult) -> VerificationReport:
    """Recompute all traces, eigenvalue floors and the objective from scratch.

    Works directly on the instance's block matrices, as their float image
    (an SdpInstance is converted by compiler.instance_arrays), not on the
    solver's stacked representation, so a bug in the solve path cannot
    silently corrupt the report.  Each row's residual is scaled by 1 + its
    Frobenius norm, as in ADMM's stopping rule.  It raises ValueError for a
    certificate it cannot check: one with no blocks, with a block count or a
    block shape other than the instance's, or with a non-finite entry.
    """
    arrays = _as_arrays(inst)
    if not res.primal_blocks:
        raise ValueError("the result has no certificate blocks")
    if len(res.primal_blocks) != arrays.n_blocks:
        raise ValueError(f"block count mismatch: result has {len(res.primal_blocks)}, "
                         f"instance has {arrays.n_blocks}")
    for mat, dim in zip(res.primal_blocks, arrays.block_dims):
        if mat.shape != (dim, dim):
            raise ValueError(f"block shape mismatch: {mat.shape} vs ({dim}, {dim})")
        if not np.isfinite(mat).all():
            raise ValueError("the certificate has a non-finite entry")

    def row_value_and_norm(blocks: Sequence[np.ndarray]) -> Tuple[float, float]:
        value = 0.0
        sq = 0.0
        for a, x in zip(blocks, res.primal_blocks):
            value += float(np.tensordot(a, x))
            sq += float(np.sum(a * a))
        return value, math.sqrt(sq)

    worst = 0.0
    for row in arrays.constraints:
        value, norm = row_value_and_norm(row)
        worst = max(worst, abs(value) / (1.0 + norm))
    value, norm = row_value_and_norm(arrays.normalization)
    worst = max(worst, abs(value - 1.0) / (1.0 + norm))

    psd = 0.0
    for mat in res.primal_blocks:
        if mat.size:
            # halved before the sum, so finite entries cannot overflow
            psd = min(psd, float(np.linalg.eigvalsh(0.5 * mat + 0.5 * mat.T).min()))

    objective, _ = row_value_and_norm(arrays.objective)
    return VerificationReport(
        equality_residual=worst,
        psd_residual=psd,
        objective_recomputed=objective,
    )


def check_certificate(inst: Union[SdpInstance, InstanceArrays], res: SolverResult,
                      tol_eq: float, tol_psd: float
                      ) -> Tuple[str, Optional[float], Optional[float]]:
    """(status, eq_residual, psd_residual) to record for any solver's claim, checked on inst.

    After the tolerance check, a claim other than convergence keeps its
    status, with residuals None.  For one of convergence, verify_certificate
    recomputes both residuals and the objective from the instance's float
    image.  The status is "converged" when the equality residual is at most
    10 * tol_eq, the PSD residual at least -tol_psd and the claimed objective
    within 10 * tol_eq * (1 + |recomputed|) of the recomputed one, and
    "verification-failed" otherwise; each comparison fails on a NaN.  It
    fails with residuals None when verify_certificate refuses the
    certificate (ValueError) or when a recomputed value is not finite.
    """
    check_tolerances(tol_eq, tol_psd)
    if res.status is not SolverStatus.CONVERGED:
        return res.status.value, None, None
    try:
        report = verify_certificate(inst, res)
    except ValueError:
        return "verification-failed", None, None
    eq_res, psd_res, objective = (report.equality_residual, report.psd_residual,
                                  report.objective_recomputed)
    if not all(map(math.isfinite, (eq_res, psd_res, objective))):
        return "verification-failed", None, None
    if (eq_res <= 10 * tol_eq and psd_res >= -tol_psd
            and abs(res.objective_value - objective) <= 10 * tol_eq * (1 + abs(objective))):
        return "converged", eq_res, psd_res
    return "verification-failed", eq_res, psd_res


# ---------------------------------------------------------------------------
# SDPA sparse file reading (round-trip of the emitter's output)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseSystem:
    """Numeric content of a .dat-s file: rows indexed 0 (objective) to m."""

    n_rows: int
    block_dims: Tuple[int, ...]
    rhs: Tuple[float, ...]
    entries: Tuple[Tuple[int, int, int, int, float], ...]


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _is_content(line: str) -> bool:
    """Neither blank nor a comment (a first non-blank character * or ")."""
    return bool(line.strip()) and not line.lstrip().startswith(("*", '"'))


class _FiniteFloats(dict):
    """Value token -> float, each distinct token converted once; a token
    that is not a finite float raises ValueError and is not stored."""

    def __missing__(self, token: str) -> float:
        val = float(token)
        if not math.isfinite(val):
            raise ValueError(f"{token} is not finite")
        self[token] = val
        return val


def _canonical_ints(lo: int, hi: int) -> Dict[str, int]:
    return {str(k): k for k in range(lo, hi + 1)}


def read_sdpa_instance(text: str) -> SparseSystem:
    """Parse SDPA sparse format as written by emit_sdpa (comments tolerated).

    Every block size must be nonnegative: a dense block, as emit_sdpa writes
    it, not a diagonal one.  Every entry must name a row in 0..n_rows (0 is
    the objective), a block in 1..n_blocks and matrix indices in 1..dim of
    that block, and carry a finite value; anything else raises FormatError
    with its line number.

    An entry line whose four indices are in range and written as str()
    writes them is resolved through lookup tables built from the header,
    and each distinct value token is converted to a float once.  Every
    other line (a comment, a blank, a wrong field count, a non-finite
    value, an index out of range or in another form, such as 01 or +1)
    goes through the full check of that one line, which skips it, raises,
    or accepts it exactly as int() and float() read it.
    """
    lines = text.splitlines()
    header: List[Tuple[int, str]] = []
    for lineno, line in enumerate(lines, 1):
        if _is_content(line):
            header.append((lineno, line))
            if len(header) == 4:
                break
    else:
        raise FormatError("truncated file: missing header", len(lines))
    try:
        n_rows = int(header[0][1])
        n_blocks = int(header[1][1])
        dims = tuple(int(tok) for tok in header[2][1].split())
        rhs = tuple(float(tok) for tok in header[3][1].split())
    except ValueError as exc:
        raise FormatError(f"bad header: {exc}", header[0][0]) from exc
    if len(dims) != n_blocks:
        raise FormatError(f"expected {n_blocks} block sizes, got {len(dims)}", header[2][0])
    for b, dim in enumerate(dims, 1):
        if dim < 0:  # SDPA's diagonal (LP) block, which emit_sdpa never writes
            raise FormatError(f"block {b} has size {dim}, a diagonal block; only dense "
                              f"blocks are read", header[2][0])
    if len(rhs) != n_rows:
        raise FormatError(f"expected {n_rows} right-hand sides, got {len(rhs)}", header[3][0])

    def checked_entry(lineno: int, line: str) -> Optional[Tuple[int, int, int, int, float]]:
        if not _is_content(line):
            return None
        toks = line.split()
        if len(toks) != 5:
            raise FormatError(f"expected 5 fields, got {len(toks)}", lineno)
        try:
            row, block, i, j = int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3])
            val = float(toks[4])
        except ValueError as exc:
            raise FormatError(f"bad entry: {exc}", lineno) from exc
        if not math.isfinite(val):
            raise FormatError(f"entry value {toks[4]} is not finite", lineno)
        if not 0 <= row <= n_rows:
            raise FormatError(f"row {row} outside 0..{n_rows}", lineno)
        if not 1 <= block <= n_blocks:
            raise FormatError(f"block {block} outside 1..{n_blocks}", lineno)
        dim = dims[block - 1]
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FormatError(f"index ({i}, {j}) outside block {block} of size {dim}", lineno)
        return row, block, i, j, val

    start = header[3][0]  # entries follow the header's last line
    row_of = _canonical_ints(0, n_rows)
    block_of = {str(b): (b, dim) for b, dim in enumerate(dims, 1)}
    # capped by the number of entry lines, which no file's header can inflate
    index_of = _canonical_ints(1, min(max(dims, default=0), len(lines) - start))
    values = _FiniteFloats()
    entries = []
    append = entries.append
    for lineno, line in enumerate(islice(lines, start, None), start + 1):
        try:
            r, b, i, j, v = line.split()
            block, dim = block_of[b]
            i, j = index_of[i], index_of[j]
            if i <= dim and j <= dim:
                append((row_of[r], block, i, j, values[v]))
                continue
        except (KeyError, ValueError):
            pass
        entry = checked_entry(lineno, line)
        if entry is not None:
            append(entry)
    return SparseSystem(n_rows=n_rows, block_dims=dims, rhs=rhs, entries=tuple(entries))


def system_to_instance(sys: SparseSystem) -> InstanceArrays:
    """The float64 image of a parsed sparse system, as the gate and ADMM read it.

    The last row is taken as the normalization row (the emitter's layout);
    its right-hand side must be 1.  Each entry is written at (i, j) and
    (j, i), a later duplicate over an earlier one, and every absent entry is
    zero.  A parsed -0.0 is stored as 0.0, so the image is
    compiler.instance_arrays of the instance of the file's values, bit for bit.
    """
    if sys.n_rows < 1:
        raise ValueError("need at least the normalization row")
    if sys.rhs[-1] != 1.0 or any(x != 0.0 for x in sys.rhs[:-1]):
        raise ValueError("expected right-hand sides of K zeros then 1")

    dims = tuple(int(dim) for dim in sys.block_dims)
    rows = [[np.zeros((dim, dim)) for dim in dims] for _ in range(sys.n_rows + 1)]  # 0 = objective
    for row, block, i, j, val in sys.entries:
        mat = rows[row][block - 1]
        mat[i - 1, j - 1] = mat[j - 1, i - 1] = val + 0.0
    return InstanceArrays(
        block_dims=dims,
        constraints=tuple(map(tuple, rows[1:-1])),
        objective=tuple(rows[0]),
        normalization=tuple(rows[-1]),
    )


# ---------------------------------------------------------------------------
# External solver: invocation and output parsing
# ---------------------------------------------------------------------------

def split_command(solver_cmd: str) -> List[str]:
    """shlex.split(solver_cmd); ValueError, naming the command, when its quotes do
    not balance or it names no program (whether that exists is the run's matter)."""
    try:
        argv = shlex.split(solver_cmd)
    except ValueError as exc:
        raise ValueError(f"cannot split solver command {solver_cmd!r}: {exc}") from None
    if not argv:
        raise ValueError(f"solver command {solver_cmd!r} names no program")
    return argv


def solve_external(sdpa_text: str, solver_cmd: str) -> SolverResult:
    """Write sdpa_text, as given and in UTF-8, to a .dat-s file, run solver_cmd on it
    and parse its output.

    The command (split_command) receives the path as its final argument,
    and its output is decoded as UTF-8 whatever the locale, a byte that is
    not UTF-8 as U+FFFD.  A nonzero exit code raises
    subprocess.CalledProcessError, and a run longer than EXTERNAL_TIMEOUT_S
    subprocess.TimeoutExpired.  The result is a claim.
    """
    argv = split_command(solver_cmd)
    with tempfile.NamedTemporaryFile("w", encoding="utf-8", newline="", suffix=".dat-s",
                                     delete=False) as fh:
        fh.write(sdpa_text)
        path = fh.name
    try:
        proc = subprocess.run(
            argv + [path],
            capture_output=True, encoding="utf-8", errors="replace",
            timeout=EXTERNAL_TIMEOUT_S, check=True,
        )
        return parse_external_output(proc.stdout)
    finally:
        os.unlink(path)


_PHASE_MAP = {
    "pdOPT": SolverStatus.CONVERGED,
    "pdINF": SolverStatus.INFEASIBLE,
    "pINF_dFEAS": SolverStatus.INFEASIBLE,
    "pFEAS_dINF": SolverStatus.INFEASIBLE,
}


def parse_external_output(text: str) -> SolverResult:
    """Parse the stdout of an SDPA-family solver run.

    Extracts the primal objective, which must be finite, the termination
    phase and, when an "xMat" section is present, the primal blocks.  Status
    mapping is conservative: only an explicitly optimal phase maps to
    converged; the infeasible phases map to infeasible-detected; anything
    else becomes max_iterations.  The duality gap |objValPrimal -
    objValDual|, when both are printed, is named in the message; it is not a
    residual of the instance's rows, which check_certificate computes.

    Known fault, not yet fixed: compiler.emit_sdpa poses our minimization as
    SDPA's dual (max F_0 . Y), whose certificate a real SDPA prints as yMat,
    not xMat.  Until the two agree, such a run fails check_certificate as
    verification-failed, never an unsound bound.  No run against an SDPA
    binary has checked this.
    """
    lines = text.splitlines()
    phase: Optional[str] = None
    primal: Optional[float] = None
    gap: Optional[float] = None
    iterations = 0
    for lineno, ln in enumerate(lines, start=1):
        if "phase.value" in ln:
            if "=" not in ln:
                raise FormatError("unreadable phase.value: no '='", lineno)
            phase = ln.split("=", 1)[1].strip()
        elif "objValPrimal" in ln:
            try:
                primal = float(ln.split("=", 1)[1].strip())
            except (IndexError, ValueError) as exc:
                raise FormatError(f"unreadable objValPrimal: {exc}", lineno)
            if not math.isfinite(primal):  # nan or inf is no objective value
                raise FormatError(f"objValPrimal {primal} is not finite", lineno)
        elif "objValDual" in ln and primal is not None:
            try:
                gap = abs(primal - float(ln.split("=", 1)[1].strip()))
            except (IndexError, ValueError):
                pass
        elif re.match(r"\s*Iteration\s*=", ln):
            try:
                iterations = int(ln.split("=", 1)[1].strip())
            except (IndexError, ValueError):
                pass
    if phase is None or primal is None:
        missing = "phase.value" if phase is None else "objValPrimal"
        raise FormatError(f"missing {missing}; output truncated?", len(lines))
    blocks = _parse_xmat(lines)
    message = f"external phase {phase}" + (f"; duality gap {gap!r}" if gap is not None else "")
    return SolverResult(_PHASE_MAP.get(phase, SolverStatus.MAX_ITERATIONS), primal, blocks,
                        iterations, message)


def _parse_xmat(lines: Sequence[str]) -> List[np.ndarray]:
    """Parse the brace-delimited xMat section if present, else return [].

    A section with no opening brace, unbalanced braces, a non-numeric entry
    or a ragged block raises FormatError at the section's first line.
    """
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip().startswith("xMat"))
    except StopIteration:
        return []
    lineno = start + 1
    body = []
    depth = 0
    opened = False
    for ln in lines[start:]:
        body.append(ln)
        depth += ln.count("{") - ln.count("}")
        opened = opened or "{" in ln
        if depth < 0:
            raise FormatError("xMat section closes a brace it never opened", lineno)
        if opened and depth == 0:
            break
    if not opened:
        raise FormatError("xMat section has no opening brace", lineno)
    if depth != 0:
        raise FormatError("xMat section is not terminated", lineno)

    def numbers(text: str) -> List[float]:
        try:
            return [float(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]
        except ValueError as exc:
            raise FormatError(f"bad xMat entry: {exc}", lineno) from exc

    blob = " ".join(body)
    blob = blob[blob.index("{") + 1:blob.rindex("}")]
    blocks = []
    for match in re.finditer(r"\{((?:[^{}]|\{[^{}]*\})*)\}", blob):
        rows = re.findall(r"\{([^{}]*)\}", match.group(1))
        mat = [numbers(row) for row in rows] if rows else [numbers(match.group(1))]
        if len({len(row) for row in mat}) > 1:
            raise FormatError(f"xMat block {len(blocks) + 1} has rows of unequal length", lineno)
        blocks.append(np.array(mat))
    return blocks
