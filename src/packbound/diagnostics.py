"""Post-campaign analyses: monomial novelty, degree statistics, exploration traces.

All outputs are plain CSV with a header row, written under the campaign
output directory, so any plotting tool can consume them.  Reference sets of
previously known monomials are plain-text files with one canonical monomial
rendering per line (e.g. "P2 <*> P3 <*> P3"); the repository ships no
baseline, so the default reference set is empty.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .campaign import GameState
from .grammar import Monomial, Sentence, tokenize_and_parse


@dataclass(frozen=True)
class ReferenceSet:
    """Deduplicated canonical monomials attributed to prior constructions."""

    monomials: FrozenSet[Monomial]

    @classmethod
    def empty(cls) -> "ReferenceSet":
        return cls(frozenset())

    @classmethod
    def from_monomials(cls, items: Iterable[Monomial]) -> "ReferenceSet":
        return cls(frozenset(m.canonical() for m in items))

    @classmethod
    def from_file(cls, path: str) -> "ReferenceSet":
        found = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                sentence = tokenize_and_parse(text + " <EOS>")
                found.extend(sentence.monomials)
        return cls.from_monomials(found)

    def to_file(self, path: str) -> None:
        rendered = sorted(m.render() for m in self.monomials)
        with open(path, "w", encoding="utf-8") as fh:
            for line in rendered:
                fh.write(line + "\n")

    def __contains__(self, m: Monomial) -> bool:
        return m.canonical() in self.monomials

    def __len__(self) -> int:
        return len(self.monomials)


def novelty_fraction(s: Sentence, ref: ReferenceSet) -> float:
    """Percentage of the sentence's monomials absent from the reference set.

    Rounded to one decimal, half away from zero, in integers: no decimal
    context plays a part.  An empty reference set makes every monomial novel (100.0).
    """
    canon = s.canonical()
    novel = sum(1 for m in canon.monomials if m not in ref)
    n = len(canon.monomials)
    return (2000 * novel + n) // (2 * n) / 10


def degree_histogram(states: Sequence[GameState]) -> List[Tuple[int, int]]:
    """(degree, count) pairs: per monomial, the number of distinct converged
    rounds containing it, aggregated by monomial degree in ascending order."""
    round_counts: Dict[Monomial, int] = {}
    for state in states:
        for rec in state.rounds:
            if not rec.converged or not rec.sentence:
                continue
            for m in tokenize_and_parse(rec.sentence).canonical().monomials:
                round_counts[m] = round_counts.get(m, 0) + 1
    by_degree: Dict[int, int] = {}
    for m, count in round_counts.items():
        by_degree[m.degree] = by_degree.get(m.degree, 0) + count
    return sorted(by_degree.items())


def exploration_trace(state: GameState) -> List[Tuple[int, float, float, Optional[float], bool]]:
    """One (round, r, R, bound, converged) record per round, in round order."""
    return [
        (rec.round, rec.r, rec.R, rec.bound, rec.converged)
        for rec in state.rounds
    ]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_novelty_csv(state: GameState, ref: ReferenceSet, path: str) -> None:
    _write_csv(path, ["round", "novelty_pct", "sentence"], (
        [rec.round, novelty_fraction(tokenize_and_parse(rec.sentence), ref), rec.sentence]
        for rec in state.rounds
        if rec.converged and rec.sentence
    ))


def write_degrees_csv(states: Sequence[GameState], path: str) -> None:
    _write_csv(path, ["degree", "count"], degree_histogram(states))


def write_trace_csv(state: GameState, path: str) -> None:
    _write_csv(path, ["round", "r", "R", "bound", "converged"], (
        [round_idx, repr(r), repr(R), "" if bound is None else repr(bound),
         "true" if converged else "false"]
        for round_idx, r, R, bound, converged in exploration_trace(state)
    ))


def write_campaign_csvs(
    state: GameState, out_dir: str, ref: Optional[ReferenceSet] = None
) -> None:
    import os

    ref = ref or ReferenceSet.empty()
    write_novelty_csv(state, ref, os.path.join(out_dir, "novelty.csv"))
    write_degrees_csv([state], os.path.join(out_dir, "degrees.csv"))
    write_trace_csv(state, os.path.join(out_dir, "trace.csv"))
