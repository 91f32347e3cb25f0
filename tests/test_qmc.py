"""The in-house Sobol sampler against scipy.stats.qmc.Sobol, bit for bit."""

import numpy as np
import pytest
from scipy.stats import qmc

from packbound.qmc import BITS, Sobol

# Round seeds as campaign._round_seed derives them, the largest 32-bit seed,
# one past it, and a small one.
SEEDS = [int(np.random.SeedSequence([base, idx, salt]).generate_state(1)[0])
         for base, idx, salt in ((0, 1, 0), (0, 1, 1), (3, 7, 0), (9, 10, 1))]
SEEDS += [2**32 - 1, 2**32 + 12345, 0]


def reference(d, seed):
    return qmc.Sobol(d, scramble=True, seed=seed)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_successive_draws_of_64_match_scipy(d, seed):
    # the compiler's Sobol fill draws 64 points at a time, 64 times at most
    ours, ref = Sobol(d, seed), reference(d, seed)
    for _ in range(64):
        assert np.array_equal(ours.random(64), ref.random(64))


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7, 256, 4096, 16384])
def test_single_draw_matches_scipy(d, seed, n):
    got, want = Sobol(d, seed).random(n), reference(d, seed).random(n)
    assert got.dtype == want.dtype and got.shape == want.shape == (n, d)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:The balance properties")
def test_mixed_draw_sizes_continue_the_sequence():
    ours, ref = Sobol(2, SEEDS[0]), reference(2, SEEDS[0])
    for n in (1, 7, 0, 64, 3, 256):
        assert np.array_equal(ours.random(n), ref.random(n))


@pytest.mark.parametrize("d", [0, 4])
def test_dimension_outside_one_to_three_rejected(d):
    with pytest.raises(ValueError):
        Sobol(d, 0)


def test_draw_past_the_last_point_rejected():
    # checked before any point is computed
    with pytest.raises(ValueError):
        Sobol(2, 0).random(2**BITS + 1)
