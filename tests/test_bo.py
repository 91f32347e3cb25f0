import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize as scipy_minimize
from scipy.stats import norm

from packbound import bo
from packbound.bo import (
    ACQUISITIONS,
    Hyperparams,
    Observation,
    SearchBox,
    _default_hyperparams,
    _factor_solve,
    _kernel,
    _kernels_from_vectors,
    _kumaraswamy,
    _likelihood,
    _minimize_lockstep,
    _posterior,
    _standardize,
    _stage_one_nll,
    acquisition_scores,
    confidence_bound,
    expected_improvement,
    fit_surrogate,
    log_expected_improvement,
    probability_of_improvement,
    propose_next,
)
from packbound.polys import GeometricParams
from packbound.qmc import Sobol

BOX = SearchBox(1.0, 2.0, 2.5, 4.0)


def sample_observations(count, seed=0, fn=None):
    rng = np.random.default_rng(seed)
    fn = fn or (lambda r, R: float(np.sin(3 * r) + 0.3 * R))
    out = []
    for r, R in zip(rng.uniform(1.0, 2.0, count), rng.uniform(2.5, 4.0, count)):
        out.append(Observation(GeometricParams(float(r), float(R)), fn(r, R)))
    return out


class TestSearchBox:
    def test_infeasible_box_rejected(self):
        with pytest.raises(ValueError):
            SearchBox(3.0, 4.0, 1.0, 2.0)

    @pytest.mark.parametrize("edges", [(1.4, math.inf, 1.8, 2.6), (1.4, 1.6, 1.8, math.inf)])
    def test_infinite_edge_rejected(self, edges):
        # normalize would divide by an infinite span
        with pytest.raises(ValueError):
            SearchBox(*edges)

    def test_overflowing_square_rejected(self):
        # a proposal's float R ** 2 would overflow in pivot generation
        with pytest.raises(ValueError, match=r"R_hi\^2 overflows a float"):
            SearchBox(1.4, 1.6, 1.8, 1e200)

    def test_contains(self):
        assert BOX.contains(GeometricParams(1.5, 3.0))
        assert not BOX.contains(GeometricParams(0.5, 3.0))

    def test_feasible_on_one_point_and_on_an_array(self):
        pts = np.array([[1.5, 2.5], [2.5, 2.5], [3.0, 2.5]])
        assert BOX.feasible(pts).tolist() == [True, False, False]
        assert [bool(BOX.feasible(p)) for p in pts] == [True, False, False]


class TestFit:
    def test_single_observation_interpolates(self):
        s = fit_surrogate([Observation(GeometricParams(1.5, 3.0), 0.7)], BOX, seed=0)
        mu, sd = s.posterior(GeometricParams(1.5, 3.0))
        assert mu == pytest.approx(0.7, abs=1e-9)
        assert sd <= 1e-6  # signal scale is 1

    def test_identical_duplicates_fit(self):
        obs = [Observation(GeometricParams(1.5, 3.0), 0.7)] * 3
        s = fit_surrogate(obs, BOX, seed=0)
        assert len(s.data) == 1

    def test_conflicting_duplicates_keep_smaller_and_warn(self):
        obs = [
            Observation(GeometricParams(1.5, 3.0), 0.7),
            Observation(GeometricParams(1.5, 3.0), 0.4),
        ]
        with pytest.warns(UserWarning, match="keeping the smaller"):
            s = fit_surrogate(obs, BOX, seed=0)
        assert s.data[0].y == 0.4

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_surrogate([], BOX, seed=0)

    @pytest.mark.parametrize("count", [1, 6])
    def test_standardizes_once(self, monkeypatch, count):
        calls = []
        original = bo._standardize

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bo, "_standardize", spy)
        fit_surrogate(sample_observations(count, seed=3), BOX, seed=0, n_starts=2, max_evals=10)
        assert len(calls) == 1

    def test_surrogate_is_frozen(self):
        s = fit_surrogate(sample_observations(4), BOX, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.nll = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.hyper = _default_hyperparams()

    def test_refit_determinism(self):
        obs = sample_observations(7, seed=4)
        a = fit_surrogate(obs, BOX, seed=9)
        b = fit_surrogate(obs, BOX, seed=9)
        assert np.array_equal(a.hyper.to_vector(), b.hyper.to_vector())

    def test_interpolation_at_noise_floor(self):
        obs = sample_observations(8, seed=1)
        s = fit_surrogate(obs, BOX, seed=2)
        scale = max(np.std([o.y for o in obs]), 1e-12)
        for o in obs:
            mu, _ = s.posterior(o.x)
            assert abs(mu - o.y) <= 1e-6 * scale


class TestPosterior:
    def test_outside_box_rejected(self):
        s = fit_surrogate(sample_observations(4), BOX, seed=0)
        with pytest.raises(ValueError):
            s.posterior(GeometricParams(0.2, 3.0))

    def test_far_from_data_sigma_approaches_prior(self):
        obs = [Observation(GeometricParams(1.01, 2.51), 0.3)]
        s = fit_surrogate(obs, BOX, seed=0)
        _, sd_far = s.posterior(GeometricParams(1.99, 3.99))
        assert sd_far >= 0.8 * np.sqrt(s.hyper.signal_var)

    def test_symmetric_midpoint_is_average(self):
        obs = (
            Observation(GeometricParams(1.2, 3.0), 0.2),
            Observation(GeometricParams(1.8, 3.0), 0.8),
        )
        s = _posterior(obs, BOX, _default_hyperparams(), _standardize(obs, BOX))
        mu, _ = s.posterior(GeometricParams(1.5, 3.0))
        assert mu == pytest.approx(0.5, abs=1e-12)


class TestAcquisition:
    def test_ei_nonnegative_everywhere(self):
        s = fit_surrogate(sample_observations(8, seed=3), BOX, seed=5)
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 50), np.linspace(0, 1, 50)), -1
        ).reshape(-1, 2)
        assert np.all(expected_improvement(s, grid) >= 0.0)

    def test_ei_zero_at_incumbent(self):
        s = fit_surrogate(sample_observations(6, seed=7), BOX, seed=1)
        best = min(s.data, key=lambda o: o.y)
        z = BOX.normalize(np.array([[best.x.r, best.x.R]]))
        assert expected_improvement(s, z)[0] <= 1e-6

    def test_shift_invariance_of_argmax(self):
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 40), np.linspace(0, 1, 40)), -1
        ).reshape(-1, 2)
        obs = sample_observations(6, seed=2)
        hyper = _default_hyperparams()
        argmaxes = []
        for shift in (0.0, 5.0, -11.0):
            shifted = tuple(Observation(o.x, o.y + shift) for o in obs)
            s = _posterior(shifted, BOX, hyper, _standardize(shifted, BOX))
            argmaxes.append(int(np.argmax(expected_improvement(s, grid))))
        assert len(set(argmaxes)) == 1

    def test_multi_mode_scores(self):
        s = fit_surrogate(sample_observations(6, seed=2), BOX, seed=1)
        grid = np.random.default_rng(0).uniform(0, 1, size=(32, 2))
        scores = acquisition_scores(s, grid, "multi")
        assert len(scores) == 32

    def test_unknown_kind_rejected(self):
        s = fit_surrogate(sample_observations(3), BOX, seed=0)
        with pytest.raises(ValueError):
            acquisition_scores(s, np.zeros((1, 2)), "thompson")


class TestProposeNext:
    def test_empty_data_uses_low_discrepancy_start(self):
        a = propose_next(None, BOX, seed=3)
        b = propose_next(None, BOX, seed=3)
        assert (a.r, a.R) == (b.r, b.R)
        assert BOX.contains(a) and a.r < a.R

    def test_proposals_respect_box(self):
        s = fit_surrogate(sample_observations(6, seed=5), BOX, seed=0)
        for seed in range(50):
            p = propose_next(s, BOX, seed=seed)
            assert BOX.contains(p) and p.r < p.R

    def test_sobol_prefix_is_stable(self):
        # The first proposal draws 64 points at a time and takes the first
        # feasible one; that is the first feasible point of one long draw.
        for seed in range(50):
            long = Sobol(2, seed).random(4096)
            assert np.array_equal(Sobol(2, seed).random(8), long[:8])
            blocks = Sobol(2, seed)
            assert np.array_equal(np.vstack([blocks.random(64) for _ in range(64)]), long)

    @pytest.mark.parametrize("box", [BOX, SearchBox(1.0, 3.0, 2.0, 2.5),
                                     SearchBox(1.0, 2.0, 1.0, 1.01)])
    def test_first_proposal_is_first_feasible_of_4096(self, box):
        # in the last box about one point in 200 is feasible, so most seeds
        # draw more than one block
        for seed in range(20):
            pts = bo._sobol_candidates(box, seed, 4096)
            p = propose_next(None, box, seed=seed)
            assert (p.r, p.R) == (float(pts[0, 0]), float(pts[0, 1]))

    def test_first_proposal_without_a_feasible_point_rejected(self):
        # neither the first 64 points nor the first 4096 hold r < R
        box = SearchBox(1.0, 2.0, 1.0, 1.0 + 1e-9)
        with pytest.raises(ValueError, match="no feasible"):
            bo._sobol_candidates(box, 0, 64)
        with pytest.raises(ValueError, match="no feasible"):
            propose_next(None, box, seed=0)

    def test_overlapping_box_filtered(self):
        box = SearchBox(1.0, 3.0, 2.0, 2.5)  # r range overlaps R range
        for seed in range(20):
            p = propose_next(None, box, seed=seed)
            assert p.r < p.R

    def test_multi_proposes_its_top_candidate_without_a_search(self, monkeypatch):
        # one point ranked among one scores 0.0 wherever it lies, so a search
        # from the top candidate could not move it
        s = fit_surrogate(sample_observations(9, seed=3), BOX, seed=3)
        scored = []

        def recording(s, Z, kind):
            scored.append((Z, acquisition_scores(s, Z, kind)))
            return scored[-1][1]

        def no_search(*args, **kwargs):
            raise AssertionError("a proposal under multi ran a search")

        monkeypatch.setattr(bo, "acquisition_scores", recording)
        monkeypatch.setattr(bo, "minimize", no_search)
        for seed in range(10):
            scored.clear()
            p = propose_next(s, BOX, seed=seed, acquisition="multi")
            [(Z, scores)] = scored
            assert (p.r, p.R) == tuple(BOX.denormalize(Z[np.argmax(scores)]))
            assert all(acquisition_scores(s, z[None, :], "multi")[0] == 0.0 for z in Z)

    @pytest.mark.parametrize("acq", ["ei", "ucb", "multi"])
    def test_acquisition_modes_propose(self, acq):
        s = fit_surrogate(sample_observations(5, seed=1), BOX, seed=2)
        p = propose_next(s, BOX, seed=1, acquisition=acq)
        assert BOX.contains(p) and p.r < p.R


class TestSyntheticBowl:
    def test_proposals_concentrate(self):
        # distance to the optimum at round 40 beats round 5, median over seeds
        target = (1.3, 3.0)

        def bowl(r, R):
            return (r - target[0]) ** 2 + (R - target[1]) ** 2

        early, late = [], []
        for seed in range(5):
            obs = [
                (lambda p: Observation(p, bowl(p.r, p.R)))(propose_next(None, BOX, seed=seed))
            ]
            dists = {}
            for round_idx in range(2, 41):
                s = fit_surrogate(obs, BOX, seed=seed * 1000 + round_idx,
                                  n_starts=2, max_evals=40)
                p = propose_next(s, BOX, seed=seed * 1000 + round_idx)
                obs.append(Observation(p, bowl(p.r, p.R)))
                dists[round_idx] = np.hypot(p.r - target[0], p.R - target[1])
            early.append(dists[5])
            late.append(dists[40])
        assert np.median(late) < np.median(early)


# ---------------------------------------------------------------------------
# Nelder-Mead oracle: bo.minimize gives scipy's x, fun and nfev exactly.
# ---------------------------------------------------------------------------

FIT_TOLS = {"xatol": 1e-4, "fatol": 1e-8}
PROPOSAL_TOLS = {"xatol": 1e-6, "fatol": 1e-12}


def assert_matches_scipy(out, fun, x0, options):
    ref = scipy_minimize(fun, x0, method="Nelder-Mead", options=options)
    assert np.array_equal(out.x, ref.x)
    assert out.fun == ref.fun
    assert out.nfev == ref.nfev


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def terraces(x):
    # flat steps: ties among vertices at every stage
    return float(np.floor(4.0 * np.sum(x)))


def constant(x):
    return 1.0


def walled(x):
    # the 1e12 wall the fit and the proposal search return off their domain
    if (x < -0.5).any() or (x > 1.0).any():
        return 1e12
    return float(np.sum(np.abs(x - 0.2)))


# ---------------------------------------------------------------------------
# The BO loop to the bit: fitted hyperparameters, likelihoods and proposals.
# ---------------------------------------------------------------------------

# sha256 of bo_loop_trail's lines under the three acquisitions; a change that
# moves any bit of a fit or a proposal updates it and says why.
BO_LOOP_DIGEST = "e6746732b362d300ab1318b4f75b339a22a25004e685a7cacab5a558229a9539"


def bo_loop_trail(acquisition, steps=25):
    """float.hex of every fitted hyper.to_vector(), nll and proposal of a
    seeded BO loop on a smooth surface, with the campaign's fit budgets."""

    def surface(r, R):
        return math.sin(3.0 * r) + 0.3 * R + 0.1 * (R - 3.0) ** 2

    p = propose_next(None, BOX, seed=5)
    obs = [Observation(p, surface(p.r, p.R))]
    trail = [p.r.hex(), p.R.hex()]
    for step in range(1, steps):
        s = fit_surrogate(obs, BOX, seed=100 + step, n_starts=4, max_evals=80)
        p = propose_next(s, BOX, seed=100 + step, acquisition=acquisition)
        obs.append(Observation(p, surface(p.r, p.R)))
        trail += [float(x).hex() for x in s.hyper.to_vector()]
        trail += [float(s.nll).hex(), p.r.hex(), p.R.hex()]
    return trail


def test_bo_loop_is_pinned():
    # The campaign records pin the BO only under "ei" and with at most nine
    # observations; this pins all three acquisitions, with up to 25.
    lines = [f"{acq} " + " ".join(bo_loop_trail(acq)) for acq in ACQUISITIONS]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BO_LOOP_DIGEST


class TestNelderMeadOracle:
    @pytest.mark.parametrize("fun", [bowl, terraces, constant, walled], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tols", [FIT_TOLS, PROPOSAL_TOLS], ids=["fit", "proposal"])
    def test_budgets(self, fun, tols):
        # a budget of 1 or n cuts the initial simplex short, n + 1 and n + 2
        # stop after it and after the first reflection
        rng = np.random.default_rng(7)
        for n in (2, 4, 9):
            with_zero = rng.normal(0.0, 0.5, n)
            with_zero[1] = 0.0  # its initial vertex moves to 0.00025
            for x0 in (rng.normal(0.0, 0.5, n), with_zero):
                for budget in (1, n, n + 1, n + 2, 80):
                    options = dict(tols, maxfev=budget)
                    out = bo.minimize(fun, x0, **options)
                    assert_matches_scipy(out, fun, x0, options)

    @pytest.mark.parametrize("tols", [FIT_TOLS, PROPOSAL_TOLS], ids=["fit", "proposal"])
    def test_stops_on_tolerances(self, tols):
        for fun in (bowl, constant):
            x0 = np.array([0.9, -0.4, 0.0])
            options = dict(tols, maxfev=5000)
            out = bo.minimize(fun, x0, **options)
            assert out.nfev < 5000
            assert_matches_scipy(out, fun, x0, options)

    def test_fit_and_proposal_searches_match_scipy(self, monkeypatch):
        # Stage 1 starts two of its searches with the noise at its floor, where
        # its likelihood is flat in that coordinate; the proposal search meets
        # its 1e12 wall at the box edge and the r < R edge.  Stage 1's searches
        # run in lockstep, stage 2 and the proposal search through
        # bo.minimize, which runs the lockstep driver on one start.  "multi"
        # runs no proposal search.
        calls = []
        original, original_lockstep = bo.minimize, bo._minimize_lockstep

        def checked(fun, x0, maxfev, xatol, fatol):
            out = original(fun, x0, maxfev, xatol, fatol)
            assert_matches_scipy(out, fun, x0, {"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
            calls.append(xatol)
            return out

        def checked_lockstep(batch_fun, starts, maxfev, xatol, fatol):
            results = original_lockstep(batch_fun, starts, maxfev, xatol, fatol)
            options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol}
            for out, x0 in zip(results, starts):
                assert_matches_scipy(out, lambda x: batch_fun(x[None])[0], x0, options)
                calls.append(("lockstep", len(starts), xatol))
            return results

        monkeypatch.setattr(bo, "minimize", checked)
        monkeypatch.setattr(bo, "_minimize_lockstep", checked_lockstep)
        for seed, count in ((0, 2), (1, 6), (2, 12)):
            s = fit_surrogate(sample_observations(count, seed=seed), BOX, seed=seed, n_starts=4,
                              max_evals=80)
            for acq in ACQUISITIONS:
                propose_next(s, BOX, seed=seed, acquisition=acq)
        assert calls.count(("lockstep", 4, 1e-4)) == 3 * 4  # stage 1
        assert calls.count(1e-4) == calls.count(("lockstep", 1, 1e-4)) == 3  # stage 2
        assert calls.count(1e-6) == calls.count(("lockstep", 1, 1e-6)) == 3 * 2  # proposals

    @pytest.mark.parametrize("fun", [bowl, terraces, constant, walled], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tols", [FIT_TOLS, PROPOSAL_TOLS], ids=["fit", "proposal"])
    def test_lockstep_equals_one_search_per_start(self, fun, tols):
        # Starts near and far from a minimum, and on a terrace, finish at
        # different steps; each result must be what a search of its own gives.
        rng = np.random.default_rng(11)
        batches, finished_apart = [], 0

        def batch_fun(X):
            batches.append(len(X))
            return np.array([fun(x) for x in X])

        for n in (2, 4, 9):
            with_zero = rng.normal(0.0, 0.5, n)
            with_zero[1] = 0.0
            starts = [rng.normal(0.0, 0.5, n), with_zero, np.full(n, 0.3), np.full(n, 0.2),
                      np.full(n, 0.01), rng.normal(0.0, 2.0, n)]
            for budget in (1, n, n + 1, n + 2, 80, 400):
                batches.clear()
                results = _minimize_lockstep(batch_fun, starts, budget, **tols)
                assert len(results) == len(starts)
                assert sum(batches) == sum(out.nfev for out in results)
                assert batches[0] == len(starts) and max(batches) == len(starts)
                options = dict(tols, maxfev=budget)
                for out, x0 in zip(results, starts):
                    one = bo.minimize(fun, x0, **options)
                    assert np.array_equal(out.x, one.x)
                    assert out.fun == one.fun and out.nfev == one.nfev
                    assert_matches_scipy(out, fun, x0, options)
                finished_apart += len({out.nfev for out in results}) > 1
        assert finished_apart >= 2

    @pytest.mark.parametrize("tols", [FIT_TOLS, PROPOSAL_TOLS], ids=["fit", "proposal"])
    def test_simplex_of_inf_values(self, tols):
        # An infeasible start shrinks its simplex to a point with every vertex
        # at inf, where the spread of values is inf - inf = nan, so the search
        # never stops on its tolerances; the wall is finite only far from x0,
        # so the search never leaves the inf region.
        def far_wall(x):
            return float(np.sum(x * x)) if np.abs(x).max() > 10.0 else np.inf

        for fun in (lambda x: np.inf, far_wall):
            for x0 in (np.array([1.0, 2.0]), np.array([0.5, 0.0, -0.5])):
                options = dict(tols, maxfev=2000)
                out = bo.minimize(fun, x0, **options)
                assert out.fun == np.inf and out.nfev == 2000
                with np.errstate(invalid="ignore"):
                    assert_matches_scipy(out, fun, x0, options)


# ---------------------------------------------------------------------------
# Bit-identity pins: the acquisitions and the stage-2 likelihood are written
# for speed, and must give exactly what the plain formulations give.
# ---------------------------------------------------------------------------

class _FixedPosterior:
    """Stand-in surrogate with a chosen warped-space posterior."""

    def __init__(self, mu, sd, best):
        self.mu, self.sd, self.best = mu, sd, best

    def predict_warped(self, Z):
        return self.mu.copy(), self.sd.copy()

    def best_warped(self):
        return self.best


def _reference_acquisitions(s, Z):
    """EI, log EI and PI evaluated through the frozen scipy.stats.norm."""
    mu, sd = s.predict_warped(Z)
    best = s.best_warped()
    gap = best - mu
    ei = np.maximum(gap, 0.0)
    pos = sd > 0
    u = gap[pos] / sd[pos]
    ei[pos] = gap[pos] * norm.cdf(u) + sd[pos] * norm.pdf(u)
    ei = np.maximum(ei, 0.0)

    log_ei = np.full(len(gap), -np.inf)
    certain = (sd <= 0) & (gap > 0)
    log_ei[certain] = np.log(gap[certain])
    vals = np.empty_like(u)
    near = u > -10.0
    h = norm.pdf(u[near]) + u[near] * norm.cdf(u[near])
    vals[near] = np.log(np.maximum(h, 1e-300))
    uf = u[~near]
    vals[~near] = -0.5 * uf * uf - 0.5 * math.log(2 * math.pi) - 2.0 * np.log(-uf)
    log_ei[pos] = np.log(sd[pos]) + vals

    pi = (gap > 0).astype(float)
    pi[pos] = norm.cdf(gap[pos] / sd[pos])
    return ei, log_ei, pi


def _reference_multi(s, Z):
    _, log_ei, pi = _reference_acquisitions(s, Z)
    total = np.zeros(len(Z))
    for p in (log_ei, confidence_bound(s, Z), pi):
        total -= np.argsort(np.argsort(-p, kind="stable"), kind="stable")
    return total


def _seeded_posterior(seed=0):
    # u = gap / sd spans both log-EI branches (u > -10 and the asymptotic
    # one); the trailing entries have sd == 0 with gap > 0, < 0 and == 0.
    rng = np.random.default_rng(seed)
    best = 0.3
    u = np.concatenate([np.linspace(-40.0, 8.0, 400), rng.uniform(-12.0, 3.0, 200)])
    sd = 10.0 ** rng.uniform(-6.0, 1.0, len(u))
    mu = best - u * sd
    mu = np.concatenate([mu, [0.1, 0.7, best]])
    sd = np.concatenate([sd, [0.0, 0.0, 0.0]])
    return _FixedPosterior(mu, sd, best)


class TestAcquisitionExactness:
    def test_direct_formulas_equal_scipy_norm(self):
        s = _seeded_posterior()
        Z = np.zeros((len(s.mu), 2))
        u = (s.best - s.mu[s.sd > 0]) / s.sd[s.sd > 0]
        assert np.any(u > -10.0) and np.any(u <= -10.0)
        ei, log_ei, pi = _reference_acquisitions(s, Z)
        assert np.array_equal(expected_improvement(s, Z), ei)
        assert np.array_equal(log_expected_improvement(s, Z), log_ei)
        assert np.array_equal(probability_of_improvement(s, Z), pi)
        assert np.array_equal(acquisition_scores(s, Z, "ei"), log_ei)
        assert np.array_equal(acquisition_scores(s, Z, "multi"), _reference_multi(s, Z))

    def test_fitted_surrogate_on_grid(self):
        s = fit_surrogate(sample_observations(9, seed=11), BOX, seed=3)
        grid = np.random.default_rng(5).uniform(0, 1, size=(400, 2))
        ei, log_ei, pi = _reference_acquisitions(s, grid)
        assert np.array_equal(expected_improvement(s, grid), ei)
        assert np.array_equal(log_expected_improvement(s, grid), log_ei)
        assert np.array_equal(probability_of_improvement(s, grid), pi)
        assert np.array_equal(acquisition_scores(s, grid, "multi"), _reference_multi(s, grid))


def _reference_from_vector(vec):
    """The decoding with its clip limits spelled out, as np.clip on each part."""
    v = np.asarray(vec, dtype=float)
    return Hyperparams(
        np.exp(np.clip(v[0:2], math.log(1e-2), math.log(1e2))),
        float(np.exp(np.clip(v[2], math.log(1e-6), math.log(1e4)))),
        float(np.exp(np.clip(v[3], math.log(1e-14), math.log(1e-2)))),
        np.exp(np.clip(v[4:6], math.log(0.1), math.log(10.0))),
        np.exp(np.clip(v[6:8], math.log(0.1), math.log(10.0))),
        float(np.exp(np.clip(v[8], math.log(0.25), math.log(4.0)))),
    )


def _reference_kernel(data, box, hyper):
    """The noisy kernel matrix and centred warped outputs, written out in one piece."""
    X = np.array([[o.x.r, o.x.R] for o in data], dtype=float)
    y = np.array([o.y for o in data], dtype=float)
    loc = float(np.mean(y))
    spread = float(np.std(y))
    spread = spread if spread > 0 else 1.0
    Z = 1.0 - (1.0 - np.clip(box.normalize(X), 0.0, 1.0) ** hyper.warp_a) ** hyper.warp_b
    t = (y - loc) / spread
    yw = np.sign(t) * np.abs(t) ** hyper.power
    mean_w = float(np.mean(yw))
    diff = (Z[:, None, :] - Z[None, :, :]) / hyper.lengthscales
    d = math.sqrt(5.0) * np.sqrt(np.sum(diff * diff, axis=-1))
    K = hyper.signal_var * ((1.0 + d + d * d / 3.0) * np.exp(-d))
    K[np.diag_indices_from(K)] += max(hyper.noise_var, 1e-14)
    return K, yw - mean_w


def _jittered(K, factor):
    jitter = 1e-14
    for _ in range(12):
        try:
            return factor(K + jitter * np.eye(len(K)))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise RuntimeError("not positive definite")


def _reference_nll(data, box, hyper):
    """The marginal likelihood in the operation order the fitted surrogates
    depend on, through scipy's public Cholesky wrappers (LAPACK dpotrf and
    dpotrs, as the module calls them)."""
    K, resid = _reference_kernel(data, box, hyper)
    chol = _jittered(K, lambda M: cholesky(M, lower=True))
    alpha = cho_solve((chol, True), resid)
    return float(0.5 * resid @ alpha + np.sum(np.log(np.diag(chol)))
                 + 0.5 * len(resid) * math.log(2 * math.pi))


def _general_solve_nll(data, box, hyper):
    """The same likelihood through numpy's Cholesky and two general solves."""
    K, resid = _reference_kernel(data, box, hyper)
    chol = _jittered(K, np.linalg.cholesky)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
    return float(0.5 * resid @ alpha + np.sum(np.log(np.diag(chol)))
                 + 0.5 * len(resid) * math.log(2 * math.pi))


def _hyper_vectors(seed=0):
    rng = np.random.default_rng(seed)
    vecs = [_default_hyperparams().to_vector()]
    vecs += [rng.normal(0.0, 2.0, 9) for _ in range(6)]
    vecs += [np.full(9, -60.0), np.full(9, 60.0)]  # every lower, every upper limit
    for i in range(9):  # each limit on its own, the rest in range
        for bound in (-60.0, 60.0):
            v = _default_hyperparams().to_vector()
            v[i] = bound
            vecs.append(v)
    return vecs


def _one_row_kernel_nll(Xn, resid):
    """Stage 1's likelihood of one kernel vector at a time: decode it, build
    one (n, n) Matern matrix with scalar factors, add the noise along its
    diagonal, factor and solve.  The oracle for the batched _stage_one_nll."""
    sq0 = (Xn[:, None, 0] - Xn[None, :, 0]) ** 2
    sq1 = (Xn[:, None, 1] - Xn[None, :, 1]) ** 2
    diag_step = len(resid) + 1

    def kernel_nll(sub):
        e = np.exp(np.minimum(np.maximum(sub, bo._LOG_LO[:4]), bo._LOG_HI[:4]))
        ls2, sig, noise = e[0:2] ** 2, float(e[2]), float(e[3])
        K = sig * bo._matern52(np.sqrt(sq0 / ls2[0] + sq1 / ls2[1]))
        K.flat[::diag_step] += max(noise, bo.NOISE_FLOOR) + 1e-14
        try:
            return _factor_solve(K, resid)[-1]
        except np.linalg.LinAlgError:
            return 1e12

    return kernel_nll


class TestLikelihoodExactness:
    def test_from_vector_equals_clip_decoding(self):
        for v in _hyper_vectors():
            got, ref = Hyperparams.from_vector(v), _reference_from_vector(v)
            for name in ("lengthscales", "warp_a", "warp_b"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
            for name in ("signal_var", "noise_var", "power"):
                assert type(getattr(got, name)) is float
                assert getattr(got, name) == getattr(ref, name)

    def test_stage_one_decoding_equals_from_vector(self):
        # stage 1 decodes the four kernel entries alone, a batch of rows at once
        vecs = _hyper_vectors()
        ls, sig, noise = _kernels_from_vectors(np.array([v[:4] for v in vecs]))
        for i, v in enumerate(vecs):
            full = Hyperparams.from_vector(v)
            assert np.array_equal(ls[i], full.lengthscales)
            assert sig[i] == full.signal_var
            assert noise[i] == full.noise_var

    def test_factor_helper_rejects_indefinite_matrix(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _factor_solve(K, np.ones(2))
        assert np.array_equal(K, [[1.0, 2.0], [2.0, 1.0]])

    def test_jitter_grows_tenfold_then_gives_up(self, monkeypatch):
        # a singular kernel that no jitter up to 1e-3 makes positive definite
        singular = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.linalg.matrix_rank(singular) == 2
        tried = []
        original = bo._factor_solve

        def spy(K, resid):
            tried.append(K.diagonal().copy())
            return original(K, resid)

        monkeypatch.setattr(bo, "_kernel", lambda A, B, hyper: singular.copy())
        monkeypatch.setattr(bo, "_factor_solve", spy)
        hyper = _default_hyperparams()
        Zn, t, _, _ = _standardize(sample_observations(3), BOX)
        with pytest.raises(RuntimeError, match="even with jitter"):
            _likelihood(Zn, t, hyper)
        jitter, expected = 1e-14, []
        for _ in range(12):
            expected.append(singular.diagonal() + hyper.noise_var + jitter)
            jitter *= 10.0
        assert np.array_equal(tried, expected)

    def test_shared_helper_equals_surrogate_nll(self):
        data = tuple(sample_observations(12, seed=8))
        standardized = _standardize(data, BOX)
        Zn, t, _, _ = standardized
        for v in _hyper_vectors():
            hyper = Hyperparams.from_vector(v)
            helper = _likelihood(Zn, t, hyper)[-1]
            assert helper == _posterior(data, BOX, hyper, standardized).nll
            assert helper == _reference_nll(data, BOX, hyper)
            assert helper == pytest.approx(_general_solve_nll(data, BOX, hyper), rel=1e-9)

    def test_stage_two_search_runs_through_module_minimize(self, monkeypatch):
        # Instrumentation counts likelihood evaluations by replacing bo.minimize,
        # which stage 2 calls; stage 1 runs its starts in one lockstep search,
        # and minimize runs the lockstep driver on its one start.
        calls, lockstep = [], []
        original, original_lockstep = bo.minimize, bo._minimize_lockstep

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        def counting_lockstep(batch_fun, starts, maxfev, xatol, fatol):
            results = original_lockstep(batch_fun, starts, maxfev, xatol, fatol)
            options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol}
            for out, x0 in zip(results, starts):
                assert_matches_scipy(out, lambda x: batch_fun(x[None])[0], x0, options)
            lockstep.append(len(starts))
            return results

        monkeypatch.setattr(bo, "minimize", counting)
        monkeypatch.setattr(bo, "_minimize_lockstep", counting_lockstep)
        fit_surrogate(sample_observations(6, seed=1), BOX, seed=0, n_starts=2, max_evals=10)
        assert len(calls) == 1  # the stage-2 refinement
        assert lockstep == [2, 1]  # the two stage-1 starts, then stage 2's one through minimize

    def test_stage_one_batch_equals_rows_one_at_a_time(self):
        # The lockstep batch gives each row the NLL the one-row oracle gives
        # it, bit for bit, at 3 to 100 points (one stack of four rows up to
        # 64 points, one row a stack from 91), including the 1e12 of a kernel
        # that does not factor beside rows that do: with the largest
        # lengthscales and signal and the noise at its floor, two inputs
        # 1e-12 apart make the kernel matrix singular in float64.
        singular = np.array([60.0, 60.0, 60.0, -60.0])
        for count, seed in ((2, 0), (9, 1), (45, 2), (99, 3)):
            data = sample_observations(count, seed=seed)
            twin = data[0].x
            data.append(Observation(GeometricParams(twin.r + 1e-12, twin.R), data[0].y + 0.5))
            standardized = _standardize(data, BOX)
            base = _posterior(data, BOX, _default_hyperparams(), standardized)
            resid = base.yw - base.mean_w
            kernel_nll = _stage_one_nll(base.Xn, resid)
            one_row = _one_row_kernel_nll(base.Xn, resid)
            vecs = _hyper_vectors() + [np.concatenate([singular, np.zeros(5)])]
            V = np.array([v[:4] for v in vecs])
            for rows in (V, V[:4], V[-4:], V[:1]):  # a fit's batches hold bo_starts rows
                assert np.array_equal(kernel_nll(rows), [one_row(v) for v in rows])
            batch = kernel_nll(V)
            assert batch[-1] == 1e12 and (batch < 1e12).any()
            Zn, t, _, _ = standardized
            for v, nll in zip(vecs, batch):
                hyper = Hyperparams.from_vector(v)
                hyper.warp_a = hyper.warp_b = np.ones(2)
                hyper.power = 1.0
                try:
                    ref = _likelihood(Zn, t, hyper)[-1]
                except RuntimeError:
                    continue
                if nll < 1e12:
                    assert nll == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_predict_warped_matches_general_solves():
    # The criterion-7 fit, whose kernel matrix has condition number ~1e12.
    # The variance is compared, not the deviation: at the data the variance
    # is a cancellation near zero, which the square root magnifies.
    rng = np.random.default_rng(99)
    data = [Observation(GeometricParams(float(r), float(R)), float(np.sin(3 * r) + 0.3 * R))
            for r, R in zip(rng.uniform(1.0, 2.0, 10), rng.uniform(2.5, 4.0, 10))]
    s = fit_surrogate(data, BOX, seed=1)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 1, 100)), -1)
    Z = np.vstack([grid.reshape(-1, 2), BOX.normalize(np.array([[o.x.r, o.x.R] for o in data]))])
    mu, sd = s.predict_warped(Z)

    K, resid = _reference_kernel(s.data, BOX, s.hyper)
    chol = _jittered(K, np.linalg.cholesky)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
    Ks = _kernel(_kumaraswamy(Z, s.hyper.warp_a, s.hyper.warp_b), s.Xn, s.hyper)
    half = np.linalg.solve(chol, Ks.T)
    var = s.hyper.signal_var - np.sum(half * half, axis=0)
    assert np.max(np.abs(mu - (s.mean_w + Ks @ alpha))) <= 1e-7
    assert np.max(np.abs(sd**2 - np.maximum(var, 0.0))) <= 1e-10 * s.hyper.signal_var
