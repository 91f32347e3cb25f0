import hashlib
import math
import os
import subprocess
import sys
import tempfile
from bisect import bisect_right

import numpy as np
import pytest

import packbound

from packbound import cli
from packbound.compiler import PivotTable
from packbound.grammar import (
    P_TOKENS,
    Token,
    analyze_prefix,
    enumerate_sentences,
    legal_next_tokens,
    prefix_sentence,
    render,
    tokenize,
    tokenize_and_parse,
)
from packbound import mcts
from packbound.mcts import (
    EvalOutcome,
    RewardCache,
    SearchCaps,
    SearchFailedError,
    SearchNode,
    backpropagate,
    expand_node,
    make_sdp_evaluator,
    rollout_completion,
    run_search,
    select_path,
    simulate_rollout,
)
from packbound.polys import GeometricParams

from conftest import audit_counts

CAPS = SearchCaps(degree_cap=2, max_monomials=2)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(packbound.__file__)))

# One search with an evaluator that does not depend on str hashes, dumped
# to the path given as the first argument.
TREE_DUMP_SCRIPT = """
import sys, zlib
from packbound.grammar import render
from packbound.mcts import EvalOutcome, run_search

def evaluate(s, d):
    text = render(s.canonical())
    value = zlib.crc32(text.encode()) % 997 / 997.0 + 0.1
    return EvalOutcome(text, d, True, value, value, "converged")

run_search(evaluate, iterations=20, d_search=2, d_final=2, max_monomials=2, seed=0,
           tree_dump_path=sys.argv[1])
"""


def synthetic_evaluator(bounds=None):
    """Deterministic evaluator: bound is a hash-derived pseudo-value or a lookup."""

    def evaluate(s, d):
        text = render(s.canonical())
        if bounds is not None:
            val = bounds[text]
        else:
            val = (hash(text) % 997) / 997.0 + 0.1
        return EvalOutcome(text, d, True, val, val, "converged")

    return evaluate


class TestSelectPath:
    def test_single_unvisited_child_selected(self):
        root = SearchNode((), CAPS)
        child = expand_node(root, CAPS, np.random.default_rng(0))
        root.untried = []  # treat as fully expanded for selection
        root.N = 1
        path = select_path(root, c_explore=math.sqrt(2))
        assert path == [root, child]

    def test_ucb_hand_computed_example(self):
        caps = SearchCaps(4, 2)
        root = SearchNode((), caps)
        root.N = 10
        root.untried = []
        a = SearchNode((Token.P1,), caps)
        a.N, a.W = 3, 1.5
        a.untried, a.terminal = [], True  # stop descent at the chosen child
        b = SearchNode((Token.P2,), caps)
        b.N, b.W = 1, 0.9
        b.untried, b.terminal = [], True
        root.children = {Token.P1: a, Token.P2: b}
        # UCB(a) = 0.5 + sqrt(2 ln10 / 3) = 1.739, UCB(b) = 0.9 + sqrt(2 ln10) = 3.045
        path = select_path(root, c_explore=math.sqrt(2))
        assert path[-1] is b

    def test_zero_exploration_is_pure_exploitation(self):
        caps = SearchCaps(4, 2)
        root = SearchNode((), caps)
        root.N, root.untried = 10, []
        a = SearchNode((Token.P1,), caps)
        a.N, a.W, a.untried, a.terminal = 3, 2.7, [], True
        b = SearchNode((Token.P2,), caps)
        b.N, b.W, b.untried, b.terminal = 5, 1.0, [], True
        root.children = {Token.P1: a, Token.P2: b}
        assert select_path(root, c_explore=0.0)[-1] is a  # 0.9 > 0.2

    def test_ties_break_by_token_order(self):
        caps = SearchCaps(4, 2)
        root = SearchNode((), caps)
        root.N, root.untried = 4, []
        nodes = {}
        for tok in (Token.P3, Token.P1):
            nd = SearchNode((tok,), caps)
            nd.N, nd.W, nd.untried, nd.terminal = 2, 1.0, [], True
            nodes[tok] = nd
        root.children = nodes
        assert select_path(root, c_explore=1.0)[-1] is nodes[Token.P1]


class TestExpand:
    def test_root_expansion_is_p_token(self):
        root = SearchNode((), CAPS)
        child = expand_node(root, CAPS, np.random.default_rng(3))
        assert len(child.state) == 1 and child.state[0] in set(Token(i) for i in range(7))

    def test_only_eos_yields_terminal_child(self):
        node = SearchNode(tuple(tokenize("P1 <ES> P2")), SearchCaps(2, 2))
        node.untried = [Token.EOS]
        child = expand_node(node, SearchCaps(2, 2), np.random.default_rng(0))
        assert child.terminal

    def test_deterministic_expansion_order(self):
        orders = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            root = SearchNode((), CAPS)
            orders.append([expand_node(root, CAPS, rng).state[-1] for _ in range(7)])
        assert orders[0] == orders[1]

    def test_fully_expanded_node_rejected(self):
        root = SearchNode((), CAPS)
        root.untried = []
        with pytest.raises(ValueError):
            expand_node(root, CAPS, np.random.default_rng(0))


class TestBackpropagate:
    def test_single_node_path(self):
        root = SearchNode((), CAPS)
        backpropagate([root], 0.25)
        assert (root.N, root.W, root.self_evals) == (1, 0.25, 1)

    def test_repeated_unit_rewards(self):
        root = SearchNode((), CAPS)
        child = expand_node(root, CAPS, np.random.default_rng(0))
        for _ in range(5):
            backpropagate([root, child], 1.0)
        assert root.N == child.N == 5
        assert root.W == child.W == 5.0
        assert audit_counts(root)

    def test_child_visit_conservation(self):
        rng = np.random.default_rng(1)
        root = SearchNode((), CAPS)
        for _ in range(4):
            child = expand_node(root, CAPS, rng)
            backpropagate([root, child], 0.5)
        assert root.N == sum(c.N for c in root.children.values())
        assert audit_counts(root)


class TestSimulate:
    def test_terminal_node_single_evaluation(self):
        calls = []

        def evaluator(s, d):
            calls.append(render(s))
            return EvalOutcome(render(s), d, True, 1.0, 1.0, "converged")

        node = SearchNode(tuple(tokenize("P7 <EOS>")), CAPS)
        reward = simulate_rollout(node, evaluator, rollouts=5,
                                  caps=CAPS, rng=np.random.default_rng(0))
        assert len(calls) == 1
        assert reward == pytest.approx(1.0 / 2.0)

    def test_rollout_completion_reaches_terminal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = rollout_completion(tuple(tokenize("P1")), CAPS, rng)
            assert s.max_degree() <= CAPS.degree_cap
            assert len(s) <= CAPS.max_monomials

    def test_reward_orders_by_bound(self):
        good = EvalOutcome("A", 2, True, 0.2, 0.2, "converged")
        bad = EvalOutcome("B", 2, True, 0.9, 0.9, "converged")
        failed = EvalOutcome("C", 2, False, math.nan, math.inf, "max_iterations")
        assert good.reward() > bad.reward() > failed.reward() == 0.0

    def test_cache_prevents_repeat_solves(self, params):
        cache = RewardCache()
        evaluator = make_sdp_evaluator(PivotTable(params, 20, 0), 8, cache)
        s = tokenize_and_parse("P7 <EOS>")
        first = evaluator(s, 2)
        second = evaluator(s, 2)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1

    def test_cache_key_is_canonical_text_and_degree(self, params):
        # the evaluator's table fixes the geometry, K, seed and scheme
        cache = RewardCache()
        evaluator = make_sdp_evaluator(PivotTable(params, 20, 0), 8, cache)
        s = tokenize_and_parse("P1 <*> P7 <ES> P1 <EOS>")
        text = render(s.canonical())
        assert text == "P1 <EOS>"
        first = evaluator(s, 2)
        assert evaluator(tokenize_and_parse(text), 2) is first
        fourth = evaluator(s, 4)
        assert fourth is not first and fourth.d == 4
        assert cache.get((text, 2)) is first and cache.get((text, 4)) is fourth
        assert (cache.hits, cache.misses) == (3, 2)


class TestRunSearch:
    def test_matches_exhaustive_enumeration_with_real_solves(self, params):
        cache = RewardCache()
        evaluator = make_sdp_evaluator(PivotTable(params, 20, 0), 8, cache)
        best_bound = math.inf
        for s in enumerate_sentences(2, 1):
            out = evaluator(s, 2)
            if out.converged:
                best_bound = min(best_bound, out.bound)
        result = run_search(make_sdp_evaluator(PivotTable(params, 20, 3), 8, RewardCache()),
                            iterations=80, d_search=2, d_final=2, max_monomials=1, seed=3)
        assert result.outcome.bound == pytest.approx(best_bound, rel=1e-9)
        assert audit_counts(result.tree_root)

    def test_single_iteration_returns_the_one_sentence(self):
        out = run_search(synthetic_evaluator(), iterations=1, d_search=2, d_final=2,
                         max_monomials=1, seed=5)
        assert len({e.sentence for e in out.evaluations if e.d == 2}) >= 1
        assert out.outcome.converged

    def test_seed_determinism(self):
        kwargs = dict(iterations=40, d_search=2, d_final=2, max_monomials=2, seed=11)
        a = run_search(synthetic_evaluator(), **kwargs)
        b = run_search(synthetic_evaluator(), **kwargs)
        assert render(a.sentence) == render(b.sentence)
        assert a.outcome.bound == b.outcome.bound

    def test_grammar_safety_of_all_tree_states(self):
        from packbound.grammar import analyze_prefix

        out = run_search(synthetic_evaluator(), iterations=60, d_search=2, d_final=2,
                         max_monomials=2, seed=2)
        stack = [out.tree_root]
        while stack:
            node = stack.pop()
            analyze_prefix(node.state)  # raises on any illegal prefix
            stack.extend(node.children.values())

    def test_search_failure_carries_log(self):
        def failing(s, d):
            return EvalOutcome(render(s.canonical()), d, False, math.nan, math.inf, "numeric-failure")

        with pytest.raises(SearchFailedError) as err:
            run_search(failing, iterations=10, d_search=2, d_final=2, max_monomials=1, seed=0)
        assert len(err.value.log) >= 1

    def test_two_phase_reevaluation_at_final_degree(self, params):
        out = run_search(make_sdp_evaluator(PivotTable(params, 20, 4), 8, RewardCache()),
                         iterations=30, d_search=2, d_final=4, max_monomials=2, seed=4)
        assert out.outcome.d == 4
        assert out.outcome.converged

    def test_tree_dump(self, tmp_path):
        path = tmp_path / "tree.txt"
        run_search(synthetic_evaluator(), iterations=10, d_search=2, d_final=2,
                   max_monomials=1, seed=0, tree_dump_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        assert all(len(ln.split()) == 3 for ln in lines)

    def test_tree_dump_is_identical_across_hash_seeds(self, tmp_path):
        # str hashes change with PYTHONHASHSEED; the dump must not
        script = tmp_path / "dump.py"
        script.write_text(TREE_DUMP_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        dumps = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"tree-{hash_seed}.txt"
            env["PYTHONHASHSEED"] = hash_seed
            subprocess.run([sys.executable, str(script), str(out)], env=env, check=True)
            dumps.append(out.read_text())
        assert dumps[0] == dumps[1]
        lines = dumps[0].splitlines()
        assert lines[0].split()[0] == "<root>"
        assert "P7" in {ln.split()[0] for ln in lines}
        assert all(len(ln.split()) == 3 for ln in lines)

    def test_invalid_budgets(self):
        evaluator = synthetic_evaluator()
        with pytest.raises(ValueError):
            run_search(evaluator, iterations=0, d_search=2, d_final=2, max_monomials=2, seed=0)
        with pytest.raises(ValueError):
            run_search(evaluator, iterations=1, d_search=4, d_final=2, max_monomials=2, seed=0)
        with pytest.raises(ValueError, match="top_k"):
            run_search(evaluator, iterations=1, d_search=2, d_final=2, max_monomials=2,
                       seed=0, top_k=0)
        with pytest.raises(ValueError, match="max_monomials"):
            run_search(evaluator, iterations=1, d_search=2, d_final=2, max_monomials=0, seed=0)
        for eos_bias in (0.0, math.inf):  # a rollout would never end, or draw from NaN
            with pytest.raises(ValueError, match="eos_bias"):
                run_search(evaluator, iterations=1, d_search=2, d_final=2, max_monomials=2,
                           seed=0, eos_bias=eos_bias)
        with pytest.raises(ValueError, match="d_search=-1, d_final=2"):
            run_search(evaluator, iterations=1, d_search=-1, d_final=2, max_monomials=2, seed=0)
        for c_explore in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="c_explore"):
                run_search(evaluator, iterations=1, d_search=2, d_final=2, max_monomials=2,
                           seed=0, c_explore=c_explore)

    def test_evaluator_rejects_dimension_zero(self, params):
        with pytest.raises(ValueError, match="dimension n"):
            make_sdp_evaluator(PivotTable(params, 5, 0), 0, RewardCache())

    @pytest.mark.parametrize("r, n, rule", [
        (1.4142135623730949, 8, r"r\^2 >= 2"),  # the float below sqrt(2)'s: r^2 < 2 exactly
        (1.2, 8, r"r\^2 >= 2"),
        (1.5, 9, "dimension n from 1 to 8"),
        (1.5, 24, "dimension n from 1 to 8"),
    ])
    def test_evaluator_refuses_a_bound_below_the_truth(self, r, n, rule):
        table = PivotTable(GeometricParams(r, 2.0), 5, 0)
        with pytest.raises(ValueError, match=rule):
            make_sdp_evaluator(table, n, RewardCache())

    def test_evaluator_accepts_root_two(self):
        # the float nearest sqrt(2) lies above it, so its exact square is above 2
        make_sdp_evaluator(PivotTable(GeometricParams(2**0.5, 2.0), 5, 0), 8, RewardCache())


def legal_prefixes(degree_cap, max_monomials, max_length):
    """Every legal token prefix of at most max_length tokens, the empty one included."""
    found, frontier = [], [()]
    for _ in range(max_length + 1):
        found.extend(frontier)
        frontier = [p + (t,) for p in frontier
                    for t in legal_next_tokens(p, degree_cap, max_monomials)]
    return found


@pytest.mark.parametrize("degree_cap, max_monomials", [(2, 3), (4, 2)])
def test_untried_tokens_are_the_legal_tokens(degree_cap, max_monomials):
    caps = SearchCaps(degree_cap, max_monomials)
    prefixes = legal_prefixes(degree_cap, max_monomials, 7)
    assert len(prefixes) > 5000
    after_p = 0
    for state in prefixes:
        legal = legal_next_tokens(state, degree_cap, max_monomials)
        assert SearchNode(state, caps).untried == sorted(legal), state
        if state and state[-1] in P_TOKENS:
            assert Token.STAR in legal, state
            after_p += 1
    assert after_p > 1000


def reachable_legal_sets(degree_cap, max_monomials):
    """Every token set legal_next_tokens returns on a legal prefix under the
    caps.  The set and every later one depend on the prefix only through
    its segment count, open-segment degree, whether a segment is open and
    whether a P token ends it, so one prefix of each such kind is expanded."""
    sets, seen, frontier = set(), set(), [()]
    while frontier:
        expanded = []
        for prefix in frontier:
            state = analyze_prefix(prefix)
            kind = (state.segment_count, state.current_degree(), state.current is None,
                    state.after_p, state.terminal)
            if kind in seen:
                continue
            seen.add(kind)
            legal = legal_next_tokens(prefix, degree_cap, max_monomials)
            if legal:
                sets.add(frozenset(legal))
            expanded.extend(prefix + (t,) for t in legal)
        frontier = expanded
    return sets


def choice_rollout(state, caps, rng, eos_bias):
    """A rollout drawn by Generator.choice over a fresh weight array per token."""
    tokens = list(state)
    while not (tokens and tokens[-1] is Token.EOS):
        legal = sorted(legal_next_tokens(tokens, caps.degree_cap, caps.max_monomials))
        weights = np.array([eos_bias if t is Token.EOS else 1.0 for t in legal])
        weights /= weights.sum()
        tokens.append(legal[int(rng.choice(len(legal), p=weights))])
    return prefix_sentence(analyze_prefix(tokens))


@pytest.mark.parametrize("degree_cap, max_monomials", [(2, 8), (4, 3)])
@pytest.mark.parametrize("eos_bias", [2.0, 0.5])
def test_rollout_draw_equals_generator_choice(degree_cap, max_monomials, eos_bias):
    sets = reachable_legal_sets(degree_cap, max_monomials)
    assert len(sets) >= 5
    for k, legal in enumerate(sorted(sets, key=sorted)):
        ordered, cdf = mcts._draw_table(legal, eos_bias)
        assert list(ordered) == sorted(legal)
        weights = np.array([eos_bias if t is Token.EOS else 1.0 for t in ordered])
        weights /= weights.sum()
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(1000):
            assert bisect_right(cdf, ours.random()) == theirs.choice(len(ordered), p=weights)
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("eos_bias", [2.0, 0.5])
def test_rollouts_equal_choice_rollouts(eos_bias):
    caps = SearchCaps(4, 3)
    prefixes = [p for p in legal_prefixes(4, 3, 3) if not (p and p[-1] is Token.EOS)]
    for seed, prefix in enumerate(prefixes):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert (rollout_completion(prefix, caps, ours, eos_bias)
                    == choice_rollout(prefix, caps, theirs, eos_bias))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("eos_bias", [-1.0, 0.0, math.nan, math.inf])
def test_rollout_rejects_invalid_eos_bias(eos_bias):
    # the rule check_search_settings applies: Generator.choice refuses a
    # negative or NaN weight, and a zero one would never let a rollout end
    with pytest.raises(ValueError, match="eos_bias"):
        rollout_completion(tuple(tokenize("P1")), CAPS, np.random.default_rng(0), eos_bias)


def search_digest(seed, capsys):
    """sha256 of one search on PivotTable((1.45, 2.0), 50, seed) at d 2/4 and of
    the same search through `packbound search`: tree dump, (sentence, d, status)
    evaluation log, winner and bound.hex(), and the CLI's stdout without its
    "seconds" line."""
    digest = hashlib.sha256()
    evaluator = make_sdp_evaluator(PivotTable(GeometricParams(1.45, 2.0), 50, seed), 8,
                                   RewardCache())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.txt")
        out = run_search(evaluator, iterations=24, d_search=2, d_final=4, max_monomials=8,
                         seed=seed, tree_dump_path=path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    for e in out.evaluations:
        digest.update(f"{e.sentence}|{e.d}|{e.status}\n".encode())
    digest.update(f"{render(out.sentence)}|{out.outcome.bound.hex()}\n".encode())
    capsys.readouterr()
    assert cli.main(["search", "--r", "1.45", "--R", "2.0", "--seed", str(seed)]) == 0
    stdout = capsys.readouterr().out
    digest.update("".join(line for line in stdout.splitlines(True)
                          if '"seconds"' not in line).encode())
    return digest.hexdigest()


# Computed when run_search still built its own pivot table from (params, K, n)
# and filtered P7 aliases.
PINNED_SEARCHES = [
    (0, "5d67962aa1a03340001c63cc418f7bb51c616283983d64a3d53863ae6973eb53"),
    (1, "1c1fbe2d7715f9f10cbe430d36d839c0cf219ccf746a230b0ba2ba5c5e99c93f"),
    (2, "4dc80936f96aa239c5a4f602d2e298fd59d8c9a32d32ed4e62e06b72b48f9d2c"),
    (3, "c77e3dbd86427d716857ca2adf6b4adaa0d29089758e2c7a444397734f40b148"),
]


@pytest.mark.parametrize("seed, digest", PINNED_SEARCHES)
def test_search_digest(seed, digest, capsys):
    assert search_digest(seed, capsys) == digest
