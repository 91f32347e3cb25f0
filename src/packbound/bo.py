"""Gaussian-process surrogate over (r, R) -> bound, with proposal machinery.

The surrogate is HEBO's warped Matern-5/2 GP with per-dimension lengthscales,
fit by maximizing the marginal likelihood over a seeded multi-start
Nelder-Mead search.  Inputs are normalized to the search box and always pass
through a per-dimension Kumaraswamy CDF warp; outputs are standardized and
always pass through a sign-preserving power warp.
Bounds are minimized, so all acquisition math is written for minimization:
expected improvement by default, a confidence-bound alternative, and a
rank-aggregated multi-acquisition mode (an approximation of multi-objective
acquisition ensembles, and labelled as such in reports).
A proposal scores its candidates once, then refines the best with one
Nelder-Mead search under "ei" and "ucb" and with none under "multi".
All GP linear algebra runs on one Cholesky factor of the kernel matrix,
through LAPACK: dpotrf factors it once per likelihood evaluation, dpotrs
solves for the posterior weights on the factor and dtrtrs gives the
predictive variance from it (Rasmussen & Williams, GPML, Algorithm 2.1).

Nelder-Mead and the Sobol' candidates (packbound.qmc) are scipy's
algorithms written out on numpy; the tests pin them to
scipy.optimize.minimize and scipy.stats.qmc.Sobol, bit for bit.
Nelder-Mead is written once, as a generator that yields each point to
evaluate (_nelder_mead), and driven by one loop, _minimize_lockstep, which
advances several searches together and evaluates all their pending points
in one call.  The fit's stage 1 runs its starts through it on a batched
likelihood; minimize(fun, x0, maxfev, xatol, fatol) runs it on one start
for the fit's stage 2 and the proposal search.  So a campaign never loads
scipy.optimize or scipy.stats, and its first proposal loads no scipy at all.  The four scipy routines this module does call are
looked up through _scipy, which imports each on its first use and keeps it:
scipy.linalg.lapack on the first fit, scipy.special on the first proposal
from a fitted surrogate.  A later call is one attribute lookup, with no
import statement run per likelihood evaluation.

A fit evaluates the likelihood hundreds of times on kernel matrices of
order ten or less, where the cost of a numpy call, not its arithmetic,
dominates.  So the code run per evaluation calls the ndarray methods and
ufuncs numpy's Python-level wrappers call, x.sum() for np.sum(x) and so on,
and decodes a hyperparameter vector with one clip-and-exp over per-entry
limits; stage 1 decodes its starts' points together and builds their
kernel matrices as stacked arrays, then factors each on its own.  These are
the same ufuncs and reductions on the same values in the same order, so no
bit of a fit or a proposal moves; tests pin both.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .polys import GeometricParams, check_float_square
from .qmc import Sobol

NOISE_FLOOR = 1e-14
ACQUISITIONS = ("ei", "ucb", "multi")
UCB_KAPPA = 2.0  # confidence-bound width, in posterior standard deviations

# Clip limits of each entry of a log-hyperparameter vector, in to_vector's
# order: two lengthscales, signal and noise variance, two warp_a, two warp_b
# and the output power.
_LOG_LO = np.array([math.log(x) for x in (1e-2, 1e-2, 1e-6, NOISE_FLOOR, 0.1, 0.1, 0.1, 0.1, 0.25)])
_LOG_HI = np.array([math.log(x) for x in (1e2, 1e2, 1e4, 1e-2, 10.0, 10.0, 10.0, 10.0, 4.0)])
_SQRT_2PI = np.sqrt(2 * np.pi)
# Entries of one stacked array of stage-1 kernel matrices: 128 KiB of
# float64, glibc malloc's default mmap threshold.  A larger temporary is
# mapped afresh on every evaluation and pays its page faults each time.  Four
# order-80 kernels in one stack took 1.5 to 1.8 times as long as two stacks
# of two, but no longer once MALLOC_MMAP_THRESHOLD_ was raised; with no cap
# the perfbench bo-loop took 27% longer (2-vCPU x86-64 host, numpy 2.4).
_STACK_ENTRIES = 16384


@dataclass(frozen=True)
class Observation:
    """One evaluated configuration: the best bound achieved at x."""

    x: GeometricParams
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.y):
            raise ValueError(f"observation value must be finite, got {self.y}")


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box for (r, R) proposals, whose points must be feasible.
    An array of points holds (r, R) in its last axis, as the corners lo and hi do."""

    r_lo: float
    r_hi: float
    R_lo: float
    R_hi: float

    def __post_init__(self) -> None:
        # an infinite edge would make normalize divide by an infinite span
        if not (0 < self.r_lo <= self.r_hi < math.inf and 0 < self.R_lo <= self.R_hi < math.inf):
            raise ValueError(f"malformed box {self}")
        if not self.feasible(np.array([self.r_lo, self.R_hi])):
            raise ValueError(f"box {self} holds no point with r < R")
        check_float_square("R_hi", self.R_hi)  # every proposal has r < R <= R_hi

    @property
    def lo(self) -> np.ndarray:
        return np.array([self.r_lo, self.R_lo])

    @property
    def hi(self) -> np.ndarray:
        return np.array([self.r_hi, self.R_hi])

    def feasible(self, X: np.ndarray) -> np.ndarray:
        """The rule r < R, at one point or at each of an array of points."""
        return X[..., 0] < X[..., 1]

    def contains(self, p: GeometricParams) -> bool:
        return self.r_lo <= p.r <= self.r_hi and self.R_lo <= p.R <= self.R_hi

    def normalize(self, X: np.ndarray) -> np.ndarray:
        lo, hi = self.lo, self.hi
        return (X - lo) / np.where(hi > lo, hi - lo, 1.0)

    def denormalize(self, Z: np.ndarray) -> np.ndarray:
        return self.lo + Z * (self.hi - self.lo)


def _kumaraswamy(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    zc = np.minimum(np.maximum(z, 0.0), 1.0)
    return 1.0 - (1.0 - zc**a) ** b


def _matern52(scaled_dist: np.ndarray) -> np.ndarray:
    t = math.sqrt(5.0) * scaled_dist
    return (1.0 + t + t * t / 3.0) * np.exp(-t)


@dataclass(frozen=True)
class MinimizeResult:
    """Best vertex, its value, and the number of function evaluations spent."""

    x: np.ndarray
    fun: float
    nfev: int


class _BudgetSpent(Exception):
    pass


def _nelder_mead(x0: np.ndarray, maxfev: int, xatol: float, fatol: float
                 ) -> Generator[np.ndarray, float, MinimizeResult]:
    """Nelder-Mead from x0 as a generator: it yields each point to evaluate,
    is sent that point's value, and returns the MinimizeResult.  A yielded
    point may be a row of the simplex, so the caller copies it before
    sending; _minimize_lockstep drives it, see minimize for the method."""
    nfev = 0

    def point(x: np.ndarray) -> np.ndarray:
        """x, counted against the budget."""
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return x

    x0 = np.array(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = float((yield point(sim[k])))
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; argsort need not be stable, so
    # the second sort may reorder tied vertices
    for _ in range(2):
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]

    while nfev < maxfev:
        try:
            if abs(sim[1:] - sim[0]).max() <= xatol:
                with np.errstate(invalid="ignore"):  # inf - inf: nan <= fatol is False, as in scipy
                    spread = abs(fsim[0] - fsim[1:]).max()
                if spread <= fatol:
                    break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = float((yield point(xr)))
            shrink = False
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = float((yield point(xe)))
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = float((yield point(xc)))
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = float((yield point(xcc)))
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = float((yield point(sim[j])))
        except _BudgetSpent:
            pass
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    return MinimizeResult(x=sim[0], fun=fsim.min(), nfev=nfev)


def minimize(fun: Callable[[np.ndarray], float], x0: np.ndarray, maxfev: int,
             xatol: float = 1e-4, fatol: float = 1e-4) -> MinimizeResult:
    """Nelder-Mead minimization of fun from x0, step for step as
    scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={"maxfev":
    maxfev, "xatol": xatol, "fatol": fatol}) with its non-adaptive
    coefficients, so x, fun and nfev equal scipy's to the last bit (the tests
    pin them).  It is _minimize_lockstep run on the one start x0.

    The initial simplex scales each coordinate of x0 by 1.05 in turn (0.00025
    for a zero one).  No evaluation is made past maxfev: a step, a shrink or
    the initial simplex cut short keeps the values it has, untried vertices
    at inf.  Vertices are ordered by argsort, whose order among ties is
    part of the result.  A module-level name, so instrumentation can
    replace it for the searches that call it: the fit's stage 2 and the
    proposal search.  The fit's stage 1 runs _minimize_lockstep directly.
    """
    # one start, so each batch is the single row X[0]
    return _minimize_lockstep(lambda X: (fun(X[0]),), [x0], maxfev, xatol, fatol)[0]


def _minimize_lockstep(batch_fun: Callable[[np.ndarray], Sequence[float]],
                       starts: Sequence[np.ndarray], maxfev: int, xatol: float,
                       fatol: float) -> List[MinimizeResult]:
    """One Nelder-Mead search from each start, all advanced together.

    Each step evaluates the next point of every unfinished search in one
    call of batch_fun, which maps an (S, n) array of points to their S
    values; a search that has finished drops out.  The points are copied
    into that array before any search moves on.  Result i equals
    minimize(f, starts[i], maxfev, xatol, fatol) for the f that batch_fun
    evaluates row by row.
    """
    searches = [_nelder_mead(x0, maxfev, xatol, fatol) for x0 in starts]
    results: List[Optional[MinimizeResult]] = [None] * len(searches)
    live = list(range(len(searches)))
    values: Sequence[Optional[float]] = [None] * len(searches)  # None starts a generator
    while live:
        pending, points = [], []
        for i, value in zip(live, values):
            try:
                points.append(searches[i].send(value))
                pending.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = pending
        if points:
            values = batch_fun(np.array(points))
    return results  # type: ignore[return-value]


class _LazyScipy:
    """dpotrf, dpotrs, dtrtrs and ndtr, each imported on first attribute
    access and then kept as an instance attribute, which later lookups find
    without calling __getattr__."""

    _MODULES = {"dpotrf": "scipy.linalg.lapack", "dpotrs": "scipy.linalg.lapack",
                "dtrtrs": "scipy.linalg.lapack", "ndtr": "scipy.special"}

    def __getattr__(self, name: str):
        if name not in self._MODULES:
            raise AttributeError(name)
        routine = getattr(importlib.import_module(self._MODULES[name]), name)
        setattr(self, name, routine)
        return routine


_scipy = _LazyScipy()


def _norm_pdf(u: np.ndarray) -> np.ndarray:
    # The standard normal density exactly as scipy.stats.norm evaluates it
    # (its cdf is scipy.special.ndtr), without the frozen distribution's
    # per-call argument handling.
    return np.exp(-u**2 / 2.0) / _SQRT_2PI


@dataclass
class Hyperparams:
    lengthscales: np.ndarray  # per input dimension, in warped [0,1] coords
    signal_var: float
    noise_var: float
    warp_a: np.ndarray  # input warp, per dimension
    warp_b: np.ndarray
    power: float  # output warp exponent

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            np.log(self.lengthscales),
            [math.log(self.signal_var), math.log(self.noise_var)],
            np.log(self.warp_a),
            np.log(self.warp_b),
            [math.log(self.power)],
        ])

    @staticmethod
    def from_vector(vec: np.ndarray) -> "Hyperparams":
        e = np.exp(np.minimum(np.maximum(np.asarray(vec, dtype=float), _LOG_LO), _LOG_HI))
        return Hyperparams(e[0:2], float(e[2]), float(e[3]), e[4:6], e[6:8], float(e[8]))


def _kernels_from_vectors(V: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengthscales (S, 2), signal and noise variances (S,) from an (S, 4)
    array of the four kernel entries of hyperparameter vectors, each row
    decoded as Hyperparams.from_vector decodes it; stage 1 of fit_surrogate
    searches over these four alone."""
    e = np.exp(np.minimum(np.maximum(V, _LOG_LO[:4]), _LOG_HI[:4]))
    return e[:, 0:2], e[:, 2], e[:, 3]


def _default_hyperparams() -> Hyperparams:
    return Hyperparams(
        lengthscales=np.array([0.5, 0.5]),
        signal_var=1.0,
        noise_var=NOISE_FLOOR,
        warp_a=np.array([1.0, 1.0]),
        warp_b=np.array([1.0, 1.0]),
        power=1.0,
    )


def _kernel(A: np.ndarray, B: np.ndarray, hyper: Hyperparams) -> np.ndarray:
    ls = hyper.lengthscales
    d0 = (A[:, None, 0] - B[None, :, 0]) / ls[0]
    d1 = (A[:, None, 1] - B[None, :, 1]) / ls[1]
    return hyper.signal_var * _matern52(np.sqrt(d0 * d0 + d1 * d1))


def _standardize(
    data: Sequence[Observation], box: SearchBox
) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """Box-normalized inputs, standardized outputs, and the output location
    and spread; none of them depends on the hyperparameters."""
    X = np.array([[o.x.r, o.x.R] for o in data], dtype=float)
    y = np.array([o.y for o in data], dtype=float)
    loc = float(np.mean(y))
    spread = float(np.std(y))
    spread = spread if spread > 0 else 1.0
    return box.normalize(X), (y - loc) / spread, loc, spread


def _factor_solve(K: np.ndarray, resid: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Lower Cholesky factor L of K, the weights K^-1 resid, and the negative
    log density of resid under N(0, K).

    K is factored once (LAPACK dpotrf) and the weights are solved on the
    factor (dpotrs); K itself is left as it was.  Raises
    np.linalg.LinAlgError when K is not numerically positive definite.
    """
    chol, info = _scipy.dpotrf(K, lower=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dpotrf info {info})")
    # dpotrs reports only malformed arguments, which a factor of K and a
    # vector of K's order are not.
    alpha, _ = _scipy.dpotrs(chol, resid, lower=True)
    nll = float(
        0.5 * resid @ alpha
        + np.log(chol.diagonal()).sum()
        + 0.5 * len(resid) * math.log(2 * math.pi)
    )
    return chol, alpha, nll


def _likelihood(
    Zn: np.ndarray, t: np.ndarray, hyper: Hyperparams
) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray, float]:
    """GP state and negative log marginal likelihood at one set of hyperparameters.

    Zn and t come from _standardize.  Returns the warped inputs, the warped
    outputs and their mean, the Cholesky factor of the kernel matrix, the
    posterior weights, and the NLL.  A kernel matrix that does not factor is
    retried with a diagonal jitter growing tenfold from 1e-14, twelve times
    at most.  Fitted hyperparameters and proposals depend on this arithmetic
    to the last bit, so its operation order, and the one LAPACK factorization
    with the solve on that factor, are part of the contract.
    """
    Xn = _kumaraswamy(Zn, hyper.warp_a, hyper.warp_b)
    yw = np.sign(t) * np.abs(t) ** hyper.power
    mean_w = float(yw.mean())
    K = _kernel(Xn, Xn, hyper)
    noisy = K.diagonal() + max(hyper.noise_var, NOISE_FLOOR)
    resid = yw - mean_w
    jitter = 1e-14
    for _ in range(12):
        K.flat[:: len(K) + 1] = noisy + jitter
        try:
            chol, alpha, nll = _factor_solve(K, resid)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
    else:
        raise RuntimeError("kernel matrix is not positive definite even with jitter")
    return Xn, yw, mean_w, chol, alpha, nll


@dataclass(frozen=True, eq=False)
class Surrogate:
    """GP posterior at fixed hyperparameters; built complete by _posterior."""

    data: Tuple[Observation, ...]
    box: SearchBox
    hyper: Hyperparams
    # posterior state: _likelihood's outputs and the output standardization
    Xn: np.ndarray = field(repr=False)
    y_loc: float
    y_spread: float
    yw: np.ndarray = field(repr=False)
    mean_w: float
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    nll: float

    def _unwarp_output(self, v: float) -> float:
        return float(self.y_loc + self.y_spread * math.copysign(abs(v) ** (1.0 / self.hyper.power), v))

    def predict_warped(self, Z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and stddev in warped output space, at normalized inputs."""
        Zw = _kumaraswamy(np.atleast_2d(Z), self.hyper.warp_a, self.hyper.warp_b)
        Ks = _kernel(Zw, self.Xn, self.hyper)
        mu = self.mean_w + Ks @ self.alpha
        # L^-1 Ks^T on the lower factor; dtrtrs would report only a zero on
        # the factor's diagonal, which a successful dpotrf does not leave.
        half, _ = _scipy.dtrtrs(self.chol, Ks.T, lower=True, overwrite_b=True)
        var = self.hyper.signal_var - (half * half).sum(axis=0)
        return mu, np.sqrt(np.maximum(var, 0.0))

    def best_warped(self) -> float:
        return float(self.yw.min())

    def posterior(self, x: GeometricParams) -> Tuple[float, float]:
        """(mu, sigma) at x in original output units; x must lie in the box.

        The mean is the inverse warp of the warped-space mean; sigma is a
        symmetric-difference transform of the warped-space deviation (exact
        for the identity warp, a monotone-consistent approximation otherwise).
        """
        if not self.box.contains(x):
            raise ValueError(f"point ({x.r}, {x.R}) lies outside the search box {self.box}")
        Z = self.box.normalize(np.array([[x.r, x.R]]))
        mu_w, sd_w = self.predict_warped(Z)
        mu = self._unwarp_output(float(mu_w[0]))
        hi = self._unwarp_output(float(mu_w[0] + sd_w[0]))
        lo = self._unwarp_output(float(mu_w[0] - sd_w[0]))
        return mu, max(0.0, 0.5 * (hi - lo))


def _posterior(data: Sequence[Observation], box: SearchBox, hyper: Hyperparams,
               standardized: Tuple[np.ndarray, np.ndarray, float, float]) -> Surrogate:
    """The complete surrogate at hyper; standardized is _standardize(data, box)."""
    Zn, t, loc, spread = standardized
    Xn, yw, mean_w, chol, alpha, nll = _likelihood(Zn, t, hyper)
    return Surrogate(tuple(data), box, hyper, Xn, loc, spread, yw, mean_w, chol, alpha, nll)


def _stage_one_nll(Xn: np.ndarray, resid: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Stage 1's likelihood: the NLL at each row of an (S, 4) array of kernel
    entries, with the warps at identity, so the warped inputs Xn and the
    centred outputs resid are fixed.

    The pairwise squared input differences are computed once.  Each call
    decodes the rows and builds their kernel matrices as stacked arrays,
    with the same ufuncs in the same order as for a single row, then factors
    and solves each with _factor_solve; a kernel matrix that does not factor
    scores 1e12.  A stack holds at most _STACK_ENTRIES matrix entries: up
    to order 64 all of fit_surrogate's four default starts, from order 91
    one row.
    """
    sq0 = (Xn[:, None, 0] - Xn[None, :, 0]) ** 2
    sq1 = (Xn[:, None, 1] - Xn[None, :, 1]) ** 2
    diag_step = len(resid) + 1
    rows = max(1, _STACK_ENTRIES // len(resid) ** 2)

    def kernel_nll(V: np.ndarray) -> np.ndarray:
        ls, sig, noise = _kernels_from_vectors(V)
        ls2 = (ls**2)[:, :, None, None]
        sig = sig[:, None, None]
        diag = (np.maximum(noise, NOISE_FLOOR) + 1e-14)[:, None]
        out = np.empty(len(V))
        for lo in range(0, len(V), rows):
            part = slice(lo, lo + rows)
            K = sig[part] * _matern52(np.sqrt(sq0 / ls2[part, 0] + sq1 / ls2[part, 1]))
            K.reshape(len(K), -1)[:, ::diag_step] += diag[part]
            for s, Ks in enumerate(K, lo):
                try:
                    out[s] = _factor_solve(Ks, resid)[-1]
                except np.linalg.LinAlgError:
                    out[s] = 1e12
        return out

    return kernel_nll


def _dedupe(data: Sequence[Observation]) -> List[Observation]:
    by_x: dict = {}
    for obs in data:
        kept = by_x.setdefault(obs.x, obs)
        if kept.y != obs.y:
            warnings.warn(
                f"duplicate input ({obs.x.r}, {obs.x.R}) with conflicting values "
                f"{kept.y} and {obs.y}; keeping the smaller",
                stacklevel=3,
            )
            if obs.y < kept.y:
                by_x[obs.x] = obs
    return list(by_x.values())


def fit_surrogate(
    data: Sequence[Observation],
    box: SearchBox,
    seed: int,
    n_starts: int = 6,
    max_evals: int = 150,
) -> Surrogate:
    """Fit hyperparameters by seeded multi-start Nelder-Mead on the marginal NLL.

    The data are standardized once; both search stages and the returned
    surrogate share that.  Deterministic given (data, seed, budgets).
    Duplicate inputs with conflicting values keep the smaller value (bounds
    are minimized) and record a warning.
    """
    clean = _dedupe(data)
    if not clean:
        raise ValueError("need at least one observation to fit")
    standardized = _standardize(clean, box)
    base = _posterior(clean, box, _default_hyperparams(), standardized)
    if len(clean) == 1:
        return base

    rng = np.random.default_rng(seed)
    x0 = base.hyper.to_vector()
    Zn, t, _, _ = standardized

    def objective(vec: np.ndarray) -> float:
        hyper = Hyperparams.from_vector(vec)
        try:
            return _likelihood(Zn, t, hyper)[-1]
        except (np.linalg.LinAlgError, RuntimeError, FloatingPointError):
            return 1e12

    # Stage 1: kernel hyperparameters only (lengthscales, signal, noise) with
    # the warps held at identity; the reduced search is far more reliable at
    # small evaluation budgets than the joint nine-dimensional one.  Its
    # n_starts searches run in lockstep on one batched likelihood.
    kernel_idx = np.arange(4)
    kernel_nll = _stage_one_nll(base.Xn, base.yw - base.mean_w)
    structured = [
        x0[kernel_idx],
        np.array([math.log(0.15), math.log(0.15), 0.0, math.log(NOISE_FLOOR)]),
        np.array([math.log(1.0), math.log(1.0), 0.0, math.log(NOISE_FLOOR)]),
    ]
    starts = structured[: max(1, n_starts)] + [
        x0[kernel_idx] + rng.uniform(-1.5, 1.5, size=4)
        for _ in range(max(0, n_starts - len(structured)))
    ]
    best_sub, best_val = starts[0], kernel_nll(starts[0][None])[0]
    for out in _minimize_lockstep(kernel_nll, starts, max_evals, 1e-4, 1e-8):
        if out.fun < best_val - 1e-12:
            best_val, best_sub = out.fun, out.x
    best_vec = x0.copy()
    best_vec[kernel_idx] = best_sub
    best_val = objective(best_vec)

    # Stage 2: joint refinement including warps, kept only if it helps.
    out = minimize(objective, best_vec, max_evals, 1e-4, 1e-8)
    if out.fun < best_val - 1e-12:
        best_val, best_vec = out.fun, out.x

    return _posterior(clean, box, Hyperparams.from_vector(best_vec), standardized)


# ---------------------------------------------------------------------------
# Acquisition functions (all written for minimization)
# ---------------------------------------------------------------------------

def log_expected_improvement(s: Surrogate, Z: np.ndarray) -> np.ndarray:
    """log EI, stable where EI underflows; used for ranking proposals.

    With many observations the improvement probability collapses and EI
    underflows float64 across the whole box, which would reduce the argmax
    to noise.  For u = gap / sigma far below zero, EI = sigma * h(u) with
    h(u) = pdf(u) + u * cdf(u) ~ pdf(u) / u^2, giving the asymptotic branch.
    """
    mu, sd = s.predict_warped(Z)
    gap = s.best_warped() - mu
    out = np.full(len(gap), -np.inf)
    zero_sd = sd <= 0
    certain = zero_sd & (gap > 0)
    out[certain] = np.log(gap[certain])
    positive = ~zero_sd
    u = gap[positive] / sd[positive]
    vals = np.empty_like(u)
    near = u > -10.0
    un = u[near]
    h = _norm_pdf(un) + un * _scipy.ndtr(un)
    vals[near] = np.log(np.maximum(h, 1e-300))
    far = ~near
    uf = u[far]
    vals[far] = -0.5 * uf * uf - 0.5 * math.log(2 * math.pi) - 2.0 * np.log(-uf)
    out[positive] = np.log(sd[positive]) + vals
    return out


def confidence_bound(s: Surrogate, Z: np.ndarray) -> np.ndarray:
    """Negated lower confidence bound, so larger is better for minimization."""
    mu, sd = s.predict_warped(Z)
    return -(mu - UCB_KAPPA * sd)


def probability_of_improvement(s: Surrogate, Z: np.ndarray) -> np.ndarray:
    mu, sd = s.predict_warped(Z)
    best = s.best_warped()
    out = (best - mu > 0).astype(float)
    positive = sd > 0
    out[positive] = _scipy.ndtr((best - mu[positive]) / sd[positive])
    return out


def acquisition_scores(s: Surrogate, Z: np.ndarray, kind: str) -> np.ndarray:
    """Scores where larger is better.

    "multi" aggregates the ranks of EI, the confidence bound and the
    probability of improvement; it is a rank-level approximation of a
    multi-objective acquisition ensemble, not a reproduction of one.
    """
    if kind == "ei":
        return log_expected_improvement(s, Z)
    if kind == "ucb":
        return confidence_bound(s, Z)
    if kind == "multi":
        parts = [
            log_expected_improvement(s, Z),
            confidence_bound(s, Z),
            probability_of_improvement(s, Z),
        ]
        total = np.zeros(len(Z))
        for p in parts:
            order = np.argsort(np.argsort(-p, kind="stable"), kind="stable")
            total -= order  # smaller summed rank is better
        return total
    raise ValueError(f"unknown acquisition {kind!r}; expected one of {ACQUISITIONS}")


def _sobol_candidates(box: SearchBox, seed: int, count: int) -> np.ndarray:
    """The feasible points among the box's first count Sobol' points, else
    among its first 64 * count; ValueError if neither draw holds one."""
    for n in (count, 64 * count):
        pts = box.denormalize(Sobol(2, seed).random(n))
        pts = pts[box.feasible(pts)]
        if len(pts):
            return pts
    raise ValueError(f"no feasible r < R point found in box {box}")


def propose_next(
    s: Optional[Surrogate],
    box: SearchBox,
    seed: int,
    acquisition: str = "ei",
    n_candidates: int = 256,
    refine_evals: int = 60,
) -> GeometricParams:
    """Next (r, R) to evaluate: the top-scoring candidate, refined by search.

    With no data it is the first feasible one of the box's first 4096 seeded
    Sobol' points.  Otherwise the feasible ones of its first n_candidates and
    seeded jitter around the best observation are scored once, and under
    "ei" and "ucb" a Nelder-Mead search of refine_evals evaluations from the
    top one replaces it if no worse.  "multi" runs none: one point ranked
    among one scores 0.0 everywhere.  Every proposal is feasible and in the box.
    """
    if s is None:
        pt = _sobol_candidates(box, seed, 64)[0]
        return GeometricParams(r=float(pt[0]), R=float(pt[1]))

    cands = _sobol_candidates(box, seed, n_candidates)
    # The improvement peak near the incumbent narrows as data accumulate, so
    # space-filling candidates alone can miss it; add seeded jitter around
    # the best observed point at several scales.
    best = min(s.data, key=lambda o: o.y).x
    rng = np.random.default_rng(seed)
    jitter = np.concatenate([scale * rng.standard_normal((8, 2)) for scale in (0.2, 0.05, 0.01)])
    around = np.clip(np.array([best.r, best.R]) + jitter * (box.hi - box.lo), box.lo, box.hi)
    around = around[box.feasible(around)]
    if len(around):
        cands = np.vstack([cands, around])
    Z = box.normalize(cands)
    scores = acquisition_scores(s, Z, acquisition)
    top = int(np.argmax(scores))
    choice = Z[top]
    if acquisition != "multi":
        def neg_acq(z: np.ndarray) -> float:
            if (z < 0.0).any() or (z > 1.0).any() or not box.feasible(box.denormalize(z)):
                return 1e12
            return -float(acquisition_scores(s, z[None, :], acquisition)[0])

        out = minimize(neg_acq, choice, refine_evals, 1e-6, 1e-12)
        if out.fun <= -scores[top] and out.fun < 1e12:
            choice = out.x
    pt = box.denormalize(np.clip(choice, 0.0, 1.0))
    if not box.feasible(pt):
        pt = cands[top]
    return GeometricParams(r=float(pt[0]), R=float(pt[1]))
