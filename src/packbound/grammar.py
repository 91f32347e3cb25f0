"""Tokenizer, parser, canonicalizer and enumerator for certificate sentences.

A sentence is a list of monomials, each monomial a product of the seven base
polynomials recorded as an exponent vector alpha = (a1, ..., a7).  The
surface syntax is a space-separated token string:

    P3 <*> P3 <*> P2 <*> P5 <ES> P1 <*> P7 <EOS>

with ten token kinds: P1..P7, the product token <*>, the monomial separator
<ES> and the terminator <EOS>.  Every P token is followed by exactly one of
<*>, <ES>, <EOS>; <*> and <ES> must be followed by a P token; segments may
not be empty and a bare <EOS> is rejected.

Canonical form strips redundant constant factors (P7 with any other factor
present contributes nothing), collapses the pure-constant monomial to P7^1,
sorts monomials by (degree, alpha) and removes duplicates.  Parsing keeps
the raw repetition counts so that the token string is recoverable; use
Sentence.canonical() before hashing or comparing for equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Set, Tuple

from .polys import BASE_DEGREES


class Token(IntEnum):
    """Vocabulary tokens; enum order is the tie-break order P1 < ... < EOS."""

    P1 = 0
    P2 = 1
    P3 = 2
    P4 = 3
    P5 = 4
    P6 = 5
    P7 = 6
    STAR = 7
    ES = 8
    EOS = 9


P_TOKENS: Tuple[Token, ...] = tuple(Token(i) for i in range(7))

_SURFACE = {
    **{Token(i): f"P{i + 1}" for i in range(7)},
    Token.STAR: "<*>",
    Token.ES: "<ES>",
    Token.EOS: "<EOS>",
}
_FROM_SURFACE = {text: tok for tok, text in _SURFACE.items()}


class ParseError(ValueError):
    """Raised on malformed sentence text; `offset` is the 0-based token index."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (token offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Monomial:
    """Product of base polynomials, as the repetition-count vector alpha."""

    alpha: Tuple[int, int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.alpha) != 7 or any(a < 0 for a in self.alpha):
            raise ValueError(f"alpha must be 7 nonnegative integers, got {self.alpha}")
        if all(a == 0 for a in self.alpha):
            raise ValueError("the empty monomial is not allowed; the constant is P7^1")

    @property
    def degree(self) -> int:
        return sum(a * d for a, d in zip(self.alpha, BASE_DEGREES))

    @property
    def is_constant(self) -> bool:
        return all(a == 0 for a in self.alpha[:6])

    def canonical(self) -> "Monomial":
        """Strip constant-factor padding: P7 exponents vanish beside real factors."""
        if self.is_constant:
            return CONSTANT_MONOMIAL
        if self.alpha[6] == 0:
            return self
        return Monomial(self.alpha[:6] + (0,))

    def factors(self) -> List[Token]:
        """P tokens of the monomial, ascending index, with repetition."""
        return [
            Token(k)
            for k in range(7)
            for _ in range(self.alpha[k])
        ]

    def render(self) -> str:
        return " <*> ".join(_SURFACE[t] for t in self.factors())


CONSTANT_MONOMIAL = Monomial((0, 0, 0, 0, 0, 0, 1))

#: Sort key giving the canonical monomial order inside a sentence.
def _monomial_key(m: Monomial) -> Tuple[int, Tuple[int, ...]]:
    return (m.degree, m.alpha)


@dataclass(frozen=True)
class Sentence:
    """Ordered, duplicate-free list of monomials."""

    monomials: Tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not self.monomials:
            raise ValueError("a sentence has at least one monomial")

    def __len__(self) -> int:
        return len(self.monomials)

    def canonical(self) -> "Sentence":
        stripped = {m.canonical() for m in self.monomials}
        return Sentence(tuple(sorted(stripped, key=_monomial_key)))

    def max_degree(self) -> int:
        return max(m.degree for m in self.monomials)


def tokenize(text: str) -> List[Token]:
    tokens = []
    for offset, word in enumerate(text.split()):
        tok = _FROM_SURFACE.get(word)
        if tok is None:
            raise ParseError(f"unknown token {word!r}", offset)
        tokens.append(tok)
    return tokens


def parse_tokens(tokens: Sequence[Token]) -> Sentence:
    """Parse a complete token sequence into a Sentence (raw counts kept).

    The tokens must form a terminal prefix (analyze_prefix, ending in
    <EOS>).  Monomials are sorted into canonical order and duplicates are
    removed; constant-factor padding inside a monomial is preserved as parsed.
    """
    if not tokens:
        raise ParseError("empty input; a sentence needs at least 'P7 <EOS>'", 0)
    state = analyze_prefix(tokens)
    if not state.terminal:
        raise ParseError("missing <EOS>", len(tokens))
    return prefix_sentence(state)


def tokenize_and_parse(text: str) -> Sentence:
    return parse_tokens(tokenize(text))


def render(s: Sentence) -> str:
    """Canonical surface string; tokenize_and_parse(render(s)) == s.canonical()."""
    canon = s.canonical()
    return " <ES> ".join(m.render() for m in canon.monomials) + " <EOS>"


# ---------------------------------------------------------------------------
# Prefix analysis and legal-move computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixState:
    """Structure of a legal token prefix.

    `completed` holds the closed segments' alpha vectors, `current` the open
    segment's counts (None between segments, i.e. at the very start or right
    after <ES>/<*> only when a P is pending), and `terminal` marks a prefix
    ending in <EOS>.
    """

    completed: Tuple[Tuple[int, ...], ...]
    current: Optional[Tuple[int, ...]]
    after_p: bool
    terminal: bool

    @property
    def segment_count(self) -> int:
        return len(self.completed) + (1 if self.current is not None else 0)

    def current_degree(self) -> int:
        if self.current is None:
            return 0
        return sum(a * d for a, d in zip(self.current, BASE_DEGREES))


def analyze_prefix(tokens: Sequence[Token]) -> PrefixState:
    """Validate a prefix and return its structure.

    Raises ParseError (a ValueError) naming the offset of the first token
    that no legal sentence can have there.
    """
    completed: List[Tuple[int, ...]] = []
    counts: Optional[List[int]] = None
    after_p = False
    for offset, tok in enumerate(tokens):
        if tok in P_TOKENS:
            if after_p:
                raise ParseError(
                    "a base-polynomial token must be followed by <*>, <ES> or <EOS>", offset
                )
            if counts is None:
                counts = [0] * 7
            counts[int(tok)] += 1
            after_p = True
        elif not after_p:
            raise ParseError(f"expected a base-polynomial token, got {_SURFACE[tok]!r}", offset)
        elif tok is Token.STAR:
            after_p = False
        elif tok is Token.ES:
            completed.append(tuple(counts))  # type: ignore[arg-type]
            counts = None
            after_p = False
        else:  # EOS
            if offset != len(tokens) - 1:
                raise ParseError("tokens found after <EOS>", offset + 1)
            completed.append(tuple(counts))  # type: ignore[arg-type]
            return PrefixState(tuple(completed), None, False, True)
    return PrefixState(
        tuple(completed),
        tuple(counts) if counts is not None else None,
        after_p,
        False,
    )


def prefix_sentence(state: PrefixState) -> Sentence:
    """Sentence of a terminal prefix state."""
    if not state.terminal:
        raise ValueError("prefix is not terminal")
    unique = list(dict.fromkeys(Monomial(a) for a in state.completed))
    unique.sort(key=_monomial_key)
    return Sentence(tuple(unique))


def legal_next_tokens(
    partial: Sequence[Token], degree_cap: int, max_monomials: int
) -> Set[Token]:
    """Tokens whose appension keeps the prefix legal within both caps.

    Degree accounting: every (possibly incomplete) monomial must satisfy
    degree <= degree_cap, and the number of opened segments never exceeds
    max_monomials.  A terminal prefix has no legal continuations.
    """
    state = analyze_prefix(partial)
    if state.terminal:
        return set()
    for alpha in state.completed:
        if sum(a * d for a, d in zip(alpha, BASE_DEGREES)) > degree_cap:
            raise ValueError("illegal prefix: completed segment exceeds degree cap")
    if state.current_degree() > degree_cap:
        raise ValueError("illegal prefix: open segment exceeds degree cap")
    if state.segment_count > max_monomials:
        raise ValueError("illegal prefix: too many segments")

    legal: Set[Token] = set()
    if state.after_p:
        legal.add(Token.STAR)  # P7 has degree 0, so a factor always fits
        if state.segment_count + 1 <= max_monomials:
            legal.add(Token.ES)
        legal.add(Token.EOS)
    else:
        # start of sentence, or a P token is pending after <*>/<ES>
        continuing = state.current is not None
        budget = degree_cap - (state.current_degree() if continuing else 0)
        for k, deg in enumerate(BASE_DEGREES):
            if deg <= budget:
                legal.add(Token(k))
    return legal


# ---------------------------------------------------------------------------
# Bounded exhaustive enumeration (oracle for search tests)
# ---------------------------------------------------------------------------

ENUM_MAX_DEGREE = 6
ENUM_MAX_MONOMIALS = 3


def enumerate_monomials(degree_cap: int) -> List[Monomial]:
    """All canonical monomials of degree <= degree_cap (constant included)."""
    found: List[Monomial] = [CONSTANT_MONOMIAL]
    ranges = [range(degree_cap // d + 1) for d in BASE_DEGREES[:6]]
    for alpha6 in itertools.product(*ranges):
        if all(a == 0 for a in alpha6):
            continue
        if sum(a * d for a, d in zip(alpha6, BASE_DEGREES)) <= degree_cap:
            found.append(Monomial(alpha6 + (0,)))
    found.sort(key=_monomial_key)
    return found


def enumerate_sentences(degree_cap: int, max_monomials: int) -> List[Sentence]:
    """All canonical sentences within the caps, without duplicates.

    Guarded against explosion: refuses caps beyond (6, 3).
    """
    if degree_cap > ENUM_MAX_DEGREE or max_monomials > ENUM_MAX_MONOMIALS:
        raise ValueError(
            f"enumeration refused: caps ({degree_cap}, {max_monomials}) exceed the "
            f"supported ({ENUM_MAX_DEGREE}, {ENUM_MAX_MONOMIALS}); the sentence count "
            "grows combinatorially"
        )
    if degree_cap < 0 or max_monomials < 1:
        raise ValueError("need degree_cap >= 0 and max_monomials >= 1")
    monomials = enumerate_monomials(degree_cap)
    sentences = [
        Sentence(combo)
        for size in range(1, max_monomials + 1)
        for combo in itertools.combinations(monomials, size)
    ]
    return sentences
