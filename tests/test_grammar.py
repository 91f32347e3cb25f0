import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packbound.grammar import (
    CONSTANT_MONOMIAL,
    Monomial,
    ParseError,
    Sentence,
    Token,
    analyze_prefix,
    enumerate_monomials,
    enumerate_sentences,
    legal_next_tokens,
    prefix_sentence,
    render,
    tokenize,
    tokenize_and_parse,
)
from packbound.polys import BASE_DEGREES, GeometricParams, Polynomial, make_base_polynomial

from conftest import canonical_sentences, monomials

EXAMPLE = "P3 <*> P3 <*> P2 <*> P5 <ES> P1 <*> P7 <*> P7 <*> P7 <EOS>"


class TestParsing:
    def test_reference_sentence(self):
        s = tokenize_and_parse(EXAMPLE)
        alphas = {m.alpha for m in s.monomials}
        assert alphas == {(0, 1, 2, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0, 3)}

    def test_smallest_sentence(self):
        s = tokenize_and_parse("P7 <EOS>")
        assert s.monomials == (CONSTANT_MONOMIAL,)

    def test_star_must_be_followed_by_p(self):
        with pytest.raises(ParseError):
            tokenize_and_parse("P1 <*> <EOS>")

    def test_bare_eos_rejected(self):
        with pytest.raises(ParseError):
            tokenize_and_parse("<EOS>")

    def test_missing_eos(self):
        with pytest.raises(ParseError, match="missing"):
            tokenize_and_parse("P1 <ES> P2")

    def test_empty_segment(self):
        with pytest.raises(ParseError):
            tokenize_and_parse("P1 <ES> <ES> P2 <EOS>")

    def test_unknown_token_names_offset(self):
        with pytest.raises(ParseError) as err:
            tokenize_and_parse("P1 <*> Q9 <EOS>")
        assert err.value.offset == 2

    def test_illegal_prefix_names_offset(self):
        # the sentence parser and the prefix analysis are one state machine
        with pytest.raises(ParseError) as err:
            analyze_prefix(tokenize("P1 <ES> <ES>"))
        assert err.value.offset == 2
        with pytest.raises(ParseError) as err:
            tokenize_and_parse("P1 <ES> <ES> P2 <EOS>")
        assert err.value.offset == 2

    def test_tokens_after_eos(self):
        with pytest.raises(ParseError):
            tokenize_and_parse("P1 <EOS> P2 <EOS>")

    def test_adjacent_p_tokens(self):
        with pytest.raises(ParseError):
            tokenize_and_parse("P1 P2 <EOS>")

    def test_duplicate_monomials_removed(self):
        s = tokenize_and_parse("P1 <ES> P1 <EOS>")
        assert len(s.monomials) == 1


class TestCanonicalization:
    def test_padding_strips(self):
        s = tokenize_and_parse("P1 <*> P7 <*> P7 <EOS>").canonical()
        assert s.monomials == (Monomial((1, 0, 0, 0, 0, 0, 0)),)

    def test_pure_constant_collapses_to_p7(self):
        s = tokenize_and_parse("P7 <*> P7 <*> P7 <EOS>").canonical()
        assert s.monomials == (CONSTANT_MONOMIAL,)

    def test_sorted_by_degree_then_alpha(self):
        s = tokenize_and_parse(EXAMPLE).canonical()
        degrees = [m.degree for m in s.monomials]
        assert degrees == sorted(degrees) == [2, 7]


class TestRender:
    def test_constant(self):
        assert render(tokenize_and_parse("P7 <EOS>")) == "P7 <EOS>"

    def test_reference_sentence_canonical_ordering(self):
        # low-degree monomial first, constant padding stripped, factors sorted
        assert render(tokenize_and_parse(EXAMPLE)) == "P1 <ES> P2 <*> P3 <*> P3 <*> P5 <EOS>"

    def test_permuted_factors_render_identically(self):
        a = tokenize_and_parse("P3 <*> P2 <*> P3 <EOS>")
        b = tokenize_and_parse("P2 <*> P3 <*> P3 <EOS>")
        assert render(a) == render(b)

    @given(s=canonical_sentences())
    @settings(max_examples=300)
    def test_round_trip(self, s):
        assert tokenize_and_parse(render(s)) == s

    @given(s=canonical_sentences(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_permutation_invariance(self, s, seed):
        import random

        rng = random.Random(seed)
        segments = []
        for m in s.monomials:
            factors = [f"P{k + 1}" for k in range(7) for _ in range(m.alpha[k])]
            rng.shuffle(factors)
            segments.append(" <*> ".join(factors))
        text = " <ES> ".join(segments) + " <EOS>"
        assert tokenize_and_parse(text).canonical() == s


class TestMonomialDegree:
    def test_reference_monomial(self):
        assert Monomial((0, 1, 2, 0, 1, 0, 0)).degree == 7

    def test_padded_monomial(self):
        assert Monomial((1, 0, 0, 0, 0, 0, 3)).degree == 2

    def test_constant(self):
        assert CONSTANT_MONOMIAL.degree == 0

    @given(m=monomials())
    @settings(max_examples=120)
    def test_degree_matches_expanded_product(self, m):
        params = GeometricParams(1.45, 2.0)
        product = Polynomial.constant(1)
        for k in range(7):
            for _ in range(m.alpha[k]):
                product = product * make_base_polynomial(k + 1, params)
        assert product.degree() == m.degree


class TestLegalNextTokens:
    def test_empty_prefix(self):
        assert legal_next_tokens([], 2, 3) == set(Token(i) for i in range(7))

    def test_budget_exhausted_monomial(self):
        prefix = tokenize("P1 <*> P1")
        assert legal_next_tokens(prefix, 4, 3) == {Token.STAR, Token.ES, Token.EOS}
        after_star = tokenize("P1 <*> P1 <*>")
        assert legal_next_tokens(after_star, 4, 3) == {Token.P7}

    def test_max_monomials_blocks_es(self):
        prefix = tokenize("P1 <ES> P2")
        assert legal_next_tokens(prefix, 4, 2) == {Token.STAR, Token.EOS}

    def test_terminal_prefix_has_no_moves(self):
        assert legal_next_tokens(tokenize("P7 <EOS>"), 2, 1) == set()

    def test_illegal_prefix_rejected(self):
        with pytest.raises(ValueError):
            legal_next_tokens([Token.STAR], 4, 2)
        with pytest.raises(ValueError):
            legal_next_tokens(tokenize("P1 <*> P1"), 2, 2)  # open segment over cap

    def test_degree_cap_filters_start_tokens(self):
        legal = legal_next_tokens([], 1, 1)
        assert legal == {Token.P2, Token.P4, Token.P6, Token.P7}


def reachable_canonical_sentences(degree_cap: int, max_monomials: int):
    """All canonical sentences reachable through legal_next_tokens.

    Explores the prefix graph with constant-factor exponents capped at one;
    extra constant padding is idempotent under canonicalization, so the cap
    loses no canonical sentence.
    """
    found = set()
    seen_states = set()
    stack = [()]
    while stack:
        prefix = stack.pop()
        for token in legal_next_tokens(prefix, degree_cap, max_monomials):
            nxt = prefix + (token,)
            state = analyze_prefix(nxt)
            if state.terminal:
                found.add(prefix_sentence(state).canonical())
                continue
            if state.current is not None and state.current[6] > 1:
                continue
            key = (
                tuple(sorted(Monomial(a).canonical().alpha for a in state.completed)),
                state.current,
                state.after_p,
            )
            if key in seen_states:
                continue
            seen_states.add(key)
            stack.append(nxt)
    return found


class TestEnumeration:
    def test_trivial_caps(self):
        assert enumerate_sentences(0, 1) == [Sentence((CONSTANT_MONOMIAL,))]

    def test_degree_one_collapses_to_four(self):
        assert len(enumerate_sentences(1, 1)) == 4

    def test_count_matches_alpha_enumeration(self):
        alphas = {
            alpha
            for alpha in itertools.product(*[range(3) for _ in range(6)])
            if sum(a * d for a, d in zip(alpha, BASE_DEGREES)) <= 2
        }
        # nonzero alpha vectors plus the constant monomial
        assert len(enumerate_sentences(2, 1)) == len(alphas) - 1 + 1

    def test_caps_guard(self):
        with pytest.raises(ValueError, match="refused"):
            enumerate_sentences(7, 1)
        with pytest.raises(ValueError, match="refused"):
            enumerate_sentences(2, 4)

    def test_no_duplicates(self):
        sentences = enumerate_sentences(3, 2)
        rendered = [render(s) for s in sentences]
        assert len(rendered) == len(set(rendered))

    @pytest.mark.parametrize("caps", [(2, 1), (2, 2), (3, 2)])
    def test_agrees_with_legal_token_reachability(self, caps):
        degree_cap, max_monomials = caps
        enumerated = set(enumerate_sentences(degree_cap, max_monomials))
        assert reachable_canonical_sentences(degree_cap, max_monomials) == enumerated

    def test_monomial_enumeration_is_canonical(self):
        for m in enumerate_monomials(4):
            assert m.canonical() == m
