import os
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Inexact, Rounded, localcontext

import pytest

from packbound.campaign import GameState, RoundRecord
from packbound.diagnostics import (
    ReferenceSet,
    degree_histogram,
    exploration_trace,
    novelty_fraction,
    write_campaign_csvs,
)
from packbound.grammar import Monomial, tokenize_and_parse

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def record(round_idx, sentence, status="converged", bound=0.3):
    converged = status == "converged"
    return RoundRecord(
        round=round_idx, r=1.42, R=2.0, sentence=sentence,
        d_search=2, d_final=4, K=50,
        objective=1.0 if converged else None,
        bound=bound if converged else None, status=status,
        eq_residual=0.0 if converged else None,
        psd_residual=0.0 if converged else None,
        search_seconds=0.1, solve_seconds=0.1, seed=round_idx,
    )


def state_of(*records):
    state = GameState()
    for rec in records:
        state.append(rec)
    return state


class TestNovelty:
    def test_two_thirds_novel(self):
        s = tokenize_and_parse("P1 <ES> P2 <ES> P6 <EOS>")
        ref = ReferenceSet.from_monomials([Monomial((1, 0, 0, 0, 0, 0, 0))])
        assert novelty_fraction(s, ref) == 66.7

    def test_known_sentence_scores_zero(self):
        s = tokenize_and_parse("P1 <ES> P2 <EOS>")
        ref = ReferenceSet.from_monomials(
            [Monomial((1, 0, 0, 0, 0, 0, 0)), Monomial((0, 1, 0, 0, 0, 0, 0))]
        )
        assert novelty_fraction(s, ref) == 0.0

    def test_empty_reference_everything_novel(self):
        s = tokenize_and_parse("P7 <EOS>")
        assert novelty_fraction(s, ReferenceSet.empty()) == 100.0

    def test_round_half_away_from_zero(self):
        # 1 novel of 8 monomials: 12.5 stays 12.5; 1 of 3 gives 33.3
        s = tokenize_and_parse("P1 <ES> P2 <ES> P4 <EOS>")
        ref = ReferenceSet.from_monomials(
            [Monomial((0, 1, 0, 0, 0, 0, 0)), Monomial((0, 0, 0, 1, 0, 0, 0))]
        )
        assert novelty_fraction(s, ref) == 33.3

    @pytest.mark.parametrize("context", [
        {},
        {"prec": 3, "rounding": ROUND_DOWN},  # 100 / 7 would be cut to 14.2
        {"prec": 2},  # 14.3 has three digits: quantize would raise InvalidOperation
        {"rounding": ROUND_HALF_EVEN, "traps": [Inexact, Rounded]},
    ])
    def test_caller_decimal_context_plays_no_part(self, context):
        # 1 novel monomial of 7 is 14.285...%
        s = tokenize_and_parse("P1 <ES> P2 <ES> P3 <ES> P4 <ES> P5 <ES> P6 <ES> P1 <*> P2 <EOS>")
        (novel,) = tokenize_and_parse("P1 <*> P2 <EOS>").canonical().monomials
        known = [m for m in s.canonical().monomials if m != novel]
        assert len(s.canonical().monomials) == 7 and len(known) == 6
        with localcontext(**context):
            assert novelty_fraction(s, ReferenceSet.from_monomials(known)) == 14.3

    def test_padding_is_ignored(self):
        s = tokenize_and_parse("P1 <*> P7 <EOS>")
        ref = ReferenceSet.from_monomials([Monomial((1, 0, 0, 0, 0, 0, 3))])
        assert novelty_fraction(s, ref) == 0.0

    def test_reference_file_round_trip(self, tmp_path):
        ref = ReferenceSet.from_monomials(
            [Monomial((1, 0, 0, 0, 0, 0, 0)), Monomial((0, 1, 2, 0, 1, 0, 0))]
        )
        path = str(tmp_path / "reference.txt")
        ref.to_file(path)
        assert ReferenceSet.from_file(path) == ref


class TestDegreeHistogram:
    def test_single_constant_round(self):
        state = state_of(record(1, "P7 <EOS>"))
        assert degree_histogram([state]) == [(0, 1)]

    def test_monomial_counted_once_per_round(self):
        state = state_of(
            record(1, "P1 <ES> P7 <EOS>"),
            record(2, "P1 <EOS>"),
        )
        assert degree_histogram([state]) == [(0, 1), (2, 2)]

    def test_failed_rounds_excluded(self):
        state = state_of(
            record(1, "P7 <EOS>"),
            record(2, "P1 <EOS>", status="numeric-failure"),
        )
        assert degree_histogram([state]) == [(0, 1)]

    def test_totals_match_brute_force_recount(self):
        states = [
            state_of(record(1, "P1 <ES> P2 <*> P2 <EOS>"), record(2, "P1 <EOS>")),
            state_of(record(1, "P7 <ES> P2 <*> P2 <EOS>")),
        ]
        total = sum(count for _, count in degree_histogram(states))
        brute = 0
        for state in states:
            for rec in state.rounds:
                if rec.converged:
                    brute += len(tokenize_and_parse(rec.sentence).canonical().monomials)
        assert total == brute

    def test_order_invariance(self):
        a = state_of(record(1, "P7 <EOS>"), record(2, "P1 <EOS>"))
        b = state_of(record(1, "P1 <EOS>"), record(2, "P7 <EOS>"))
        assert degree_histogram([a, b]) == degree_histogram([b, a])


class TestExplorationTrace:
    def test_one_record_per_round(self):
        state = state_of(
            record(1, "P7 <EOS>", bound=0.31),
            record(2, None, status="search-failed"),
            record(3, "P1 <EOS>", bound=0.29),
        )
        trace = exploration_trace(state)
        assert [t[0] for t in trace] == [1, 2, 3]
        assert trace[1][4] is False and trace[0][4] is True
        assert trace[2][3] == 0.29

    def test_best_round_consistency(self):
        state = state_of(
            record(1, "P7 <EOS>", bound=0.31),
            record(2, "P1 <EOS>", bound=0.29),
        )
        trace = exploration_trace(state)
        best = state.best
        assert best == 2
        best_entry = trace[best - 1]
        assert (best_entry[1], best_entry[2]) == (state.rounds[best - 1].r,
                                                  state.rounds[best - 1].R)


class TestCsvEmission:
    def test_fixture_bytes(self, tmp_path):
        state = state_of(
            record(1, "P7 <EOS>", bound=0.31),
            record(2, None, status="search-failed"),
            record(3, "P1 <ES> P2 <*> P2 <EOS>", bound=0.2925),
        )
        write_campaign_csvs(state, str(tmp_path))
        for name in ("novelty.csv", "degrees.csv", "trace.csv"):
            produced = (tmp_path / name).read_text()
            with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
                assert produced == fh.read(), name
