"""Scrambled Sobol' points in up to three dimensions, on numpy alone.

Sobol(d, seed) gives the same points, to the last bit, as
scipy.stats.qmc.Sobol(d, scramble=True, seed=seed) with its default 30 bits;
the tests pin the two against each other.  The construction is scipy's:

  * direction numbers from the primitive polynomials 1, x + 1 and
    x^2 + x + 1 with initial values (), (1,) and (1, 3) (Joe & Kuo), by the
    Bratley-Fox recurrence;
  * np.random.default_rng(seed) draws a digital shift, integers(2, (d, 30)),
    then one lower-triangular bit matrix per dimension,
    tril(integers(2, (d, 30, 30))) with its diagonal set to 1, which
    scrambles the direction numbers (Matousek's linear matrix scramble);
  * point k is point k - 1 with direction number ctz(k) XORed in (Gray-code
    order), point 0 is the shift, and a point's coordinates are its 30-bit
    integers times 2^-30.

Every draw continues the sequence, so any prefix of a long draw is the short
draw with the same seed.
"""

from __future__ import annotations

import numpy as np

BITS = 30
_SCALE = 1.0 / 2**BITS
# Primitive polynomial (bit i is the coefficient of x^i) and initial
# direction numbers of the first three dimensions.
_POLYNOMIALS = (1, 3, 7)
_INITIAL = ((), (1,), (1, 3))


def _direction_numbers(d: int) -> np.ndarray:
    """Unscrambled direction numbers, (d, BITS), as 30-bit integers."""
    v = np.zeros((d, BITS), dtype=np.int64)
    v[0] = 1  # the first dimension is van der Corput's: every m_j = 1
    for dim in range(1, d):
        poly, m = _POLYNOMIALS[dim], len(_INITIAL[dim])
        v[dim, :m] = _INITIAL[dim]
        for j in range(m, BITS):
            new = v[dim, j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= v[dim, j - k - 1] << (k + 1)
            v[dim, j] = new
    return v << np.arange(BITS - 1, -1, -1)


def _bit_rows(values: np.ndarray) -> np.ndarray:
    """Bits of (..., n) integers as (..., BITS, n): [..., p, j] is bit p of
    value j, counted from the most significant."""
    return (values[..., None, :] >> np.arange(BITS - 1, -1, -1)[:, None]) & 1


class Sobol:
    """Scrambled Sobol' sequence in d <= 3 dimensions, seeded like scipy's."""

    def __init__(self, d: int, seed: int) -> None:
        if not 1 <= d <= len(_POLYNOMIALS):
            raise ValueError(f"Sobol supports 1 to {len(_POLYNOMIALS)} dimensions, got {d}")
        rng = np.random.default_rng(seed)
        weights = np.int64(1) << np.arange(BITS)
        shift = rng.integers(2, size=(d, BITS), dtype=np.uint32) @ weights
        ltm = np.tril(rng.integers(2, size=(d, BITS, BITS), dtype=np.uint32))
        ltm[:, np.arange(BITS), np.arange(BITS)] = 1
        # Row p of a dimension's matrix gives bit p (most significant first)
        # of every scrambled direction number, as a GF(2) dot product with
        # that direction number's bits.
        bits = (ltm.astype(np.int64) @ _bit_rows(_direction_numbers(d))) & 1
        scrambled = (bits << np.arange(BITS - 1, -1, -1)[:, None]).sum(axis=1)
        # Row c is the XOR step of a point whose index has c trailing zeros;
        # the zero row at the end serves point 0, which only takes the shift.
        self._steps = np.vstack([scrambled.T, np.zeros((1, d), dtype=np.int64)])
        self._last = shift
        self._count = 0

    def random(self, n: int) -> np.ndarray:
        """The next n points, (n, d) in [0, 1)."""
        if self._count + n > 2**BITS:
            raise ValueError(f"a {BITS}-bit Sobol sequence has at most 2**{BITS} points")
        k = np.arange(self._count, self._count + n)
        # k & -k is 2^c for an index with c trailing zeros, and frexp gives it
        # the exponent c + 1; k = 0 gives -1, the zero row
        step = np.frexp(k & -k)[1] - 1
        points = np.bitwise_xor.accumulate(self._steps[step], axis=0) ^ self._last
        if n:
            self._last = points[-1]
        self._count += n
        return points * _SCALE
