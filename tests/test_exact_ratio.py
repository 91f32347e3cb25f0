"""polys.exact_ratio against Fraction(num, den) as the oracle.

exact_ratio hands Fraction a reduced pair through its single-argument
constructor, so this file needs nothing but the standard library and
packbound.polys, which imports no numpy.  That lets it check the helper on
any CPython, run as a script:

    PYTHONPATH=src python tests/test_exact_ratio.py

The hypothesis property, which also compares format_fraction's text, is in
test_compiler.py.
"""

import random
from fractions import Fraction

from packbound.polys import exact_ratio

# (num, den): zero, negative and +-1 numerators, den = 1, a numerator with
# more trailing zeros than log2(den) (an integer), and denominators that are
# not powers of two, which take the gcd path
EDGE_CASES = [
    (0, 1), (0, 8), (0, 3), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 1 << 600), (-1, 1 << 600),
    (7, 1), (-7, 1), (12, 1), (12, 8), (-12, 8), (3 << 500, 1 << 20), (-(5 << 64), 1 << 64),
    (6, 4), (5, 3), (-10, 6), (1, 3), (-1, 3), (12, 9), (4, 12), (3 << 400, (1 << 400) * 5),
    (1 << 700, 1 << 700), ((1 << 512) - 1, 1 << 512), (-((1 << 511) + 1) << 3, 1 << 514),
]


def check_exact_ratio(num, den):
    """exact_ratio(num, den) is Fraction(num, den) in value, terms and hash."""
    got, want = exact_ratio(num, den), Fraction(num, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    return got


def test_edge_cases():
    for num, den in EDGE_CASES:
        check_exact_ratio(num, den)


def test_random_dyadic_and_odd_denominators():
    rng = random.Random(0)
    for _ in range(2000):
        num = rng.choice((-1, 1)) * (rng.getrandbits(rng.randrange(1, 640)) << rng.randrange(64))
        den = 1 << rng.randrange(640) if rng.random() < 0.8 else rng.randrange(1, 1 << 80)
        check_exact_ratio(num, den)


def test_zero_denominator_raises_as_fraction_does():
    for num in (0, 1, -4):
        try:
            exact_ratio(num, 0)
        except ZeroDivisionError:
            continue
        raise AssertionError(f"exact_ratio({num}, 0) did not raise")


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} tests passed")
