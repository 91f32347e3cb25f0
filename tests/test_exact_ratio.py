"""polys.exact_ratio against Fraction(num, den) as the oracle.

exact_ratio sets a reduced dyadic pair on a bare Fraction's two slots,
_numerator and _denominator, which are CPython's names, not a public API.
So besides value, terms and hash, this file checks that such a Fraction
behaves as an ordinary one: no __dict__, the same set member and dict key,
mixed arithmetic and comparisons, copy, pickle and repr.  It needs nothing
but the standard library and packbound.polys, which imports no numpy, so
it runs as a script on any CPython:

    PYTHONPATH=src python tests/test_exact_ratio.py

test_exact_ratio_interpreters.py runs it so under every CPython from 3.10
that is installed.

The hypothesis property, which also compares format_fraction's text, is in
test_compiler.py.
"""

import copy
import math
import pickle
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

# the pairs exact_ratio builds on the slots: a nonzero num over a power of two
DYADIC_CASES = [(num, den) for num, den in EDGE_CASES if num and not den & (den - 1)]


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


def built_and_plain():
    for num, den in DYADIC_CASES:
        yield exact_ratio(num, den), Fraction(num, den)


def test_built_fraction_has_no_dict():
    for got, _ in built_and_plain():
        assert not hasattr(got, "__dict__")


def test_built_fraction_is_the_same_set_member_and_dict_key():
    for got, want in built_and_plain():
        assert got in {want} and want in {got}
        assert len({got, want}) == 1
        assert {want: "entry"}[got] == "entry" and {got: "entry"}[want] == "entry"


def test_built_fraction_mixes_with_ordinary_fractions():
    third = Fraction(1, 3)
    for got, want in built_and_plain():
        for result, expected in ((got + third, want + third), (third - got, third - want),
                                 (got * third, want * third), (got / third, want / third),
                                 (got + want, 2 * want), (got - want, Fraction(0)), (-got, -want),
                                 (abs(got), abs(want)), (got ** 2, want * want),
                                 (got + 1, want + 1), (got * 3, want * 3)):
            assert type(result) is Fraction
            assert (result.numerator, result.denominator) == (expected.numerator,
                                                              expected.denominator)
        assert float(got) == float(want) and math.floor(got) == math.floor(want)
        assert got <= want <= got and not got < want and not got != want
        assert got - third < want < got + third
        assert (got < 0) == (want < 0) and (got == 1) == (want == 1)


def test_built_fraction_survives_copy_and_pickle():
    for got, want in built_and_plain():
        for back in (copy.copy(got), copy.deepcopy(got),
                     *(pickle.loads(pickle.dumps(got, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(back) is Fraction and back == want and hash(back) == hash(want)
            assert (back.numerator, back.denominator) == (want.numerator, want.denominator)


def test_built_fraction_repr_matches():
    for got, want in built_and_plain():
        assert repr(got) == repr(want) and str(got) == str(want)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} tests passed")
