"""Grammar-constrained Monte Carlo tree search over certificate sentences.

Nodes hold legal token prefixes; edges append one token allowed by
legal_next_tokens under the degree and monomial-count caps.  The four-phase
loop (UCB selection, single-child expansion, rollout evaluation,
backpropagation) is deterministic given the seed; rollouts complete a prefix
by seeded uniform draws with a configurable bias toward terminating once a
monomial is complete, and every completed sentence is scored by the
evaluator the caller passes in.  A rollout token is drawn with one
rng.random() against a cumulative distribution kept per (legal-token set,
eos_bias) and built as Generator.choice builds it, so the draws, and the
generator's state after them, are those rng.choice(p=weights) gives.  The
search knows nothing else about how a sentence is scored;
make_sdp_evaluator builds the one the campaign and the CLI use, which
decides the sentence's SDP exactly with solver.solve_exact on one pivot
table and caches its outcomes by (canonical sentence, degree), so permuted
factor orders and constant padding share solver calls.  Visit statistics
live on the token-prefix tree itself.

Single-writer tree: rollout evaluations may be expensive but are issued
sequentially, keeping runs reproducible.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .compiler import PivotTable, compute_bound
from .compiler import assemble_sdp  # not called here; perfbench/tracing.py wraps this name
from .grammar import (
    Sentence,
    Token,
    analyze_prefix,
    legal_next_tokens,
    prefix_sentence,
    render,
    tokenize_and_parse,
)
from .solver import SolverResult, SolverStatus, solve_exact
from .solver import solve_embedded  # not called here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class SearchCaps:
    degree_cap: int
    max_monomials: int


@dataclass(frozen=True)
class EvalOutcome:
    """Summary of one sentence evaluation at a given degree.

    result is the solve the outcome was scored from (None for failed
    compiles and stand-in evaluators); the instance itself is not kept.
    """

    sentence: str
    d: int
    converged: bool
    objective: float
    bound: float
    status: str
    result: Optional[SolverResult] = field(default=None, compare=False, repr=False)

    def reward(self) -> float:
        """Bounded reward in [0, 1]: monotone decreasing in the bound.

        1 / (1 + max(bound, 0)) for converged certificates; failed solves
        score 0 so they can never outrank any converged one.
        """
        if not self.converged:
            return 0.0
        return 1.0 / (1.0 + max(self.bound, 0.0))


Evaluator = Callable[[Sentence, int], EvalOutcome]


class RewardCache:
    """Evaluation store of one evaluator, keyed by (canonical sentence text, d).

    The evaluator's pivot table fixes everything else an outcome depends
    on, so a cache serves one evaluator.  Hits return the identical
    EvalOutcome object, so rewards are bit-identical and repeated sentences
    cost no solver calls.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, int], EvalOutcome] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[str, int]) -> Optional[EvalOutcome]:
        out = self._store.get(key)
        if out is not None:
            self.hits += 1
        return out

    def put(self, key: Tuple[str, int], outcome: EvalOutcome) -> None:
        self.misses += 1
        self._store[key] = outcome


def make_sdp_evaluator(table: PivotTable, n: int, cache: RewardCache) -> Evaluator:
    """Evaluator that decides each sentence's instance exactly and computes its bound.

    The instance of (sentence, d) is table.instance(sentence, n, d);
    solver.solve_exact decides it in exact arithmetic on the table, so a
    converged outcome has objective exactly 1 and a checked rank-one
    certificate.  A failed decision becomes an "error: ..." outcome.
    Outcomes are stored in cache, which must serve this evaluator alone.
    Raises ValueError for a dimension n < 1.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")

    def evaluate(s: Sentence, d: int) -> EvalOutcome:
        canon = s.canonical()
        text = render(canon)
        key = (text, d)
        hit = cache.get(key)
        if hit is not None:
            return hit
        try:
            res = solve_exact(canon, d, table)
            converged = res.status is SolverStatus.CONVERGED
            bound = compute_bound(res.objective_value, table.params, n) if converged else math.inf
            outcome = EvalOutcome(text, d, converged, res.objective_value, bound,
                                  res.status.value, res)
        except Exception as exc:  # failed compiles become penalty rewards
            outcome = EvalOutcome(text, d, False, math.nan, math.inf, f"error: {exc}")
        cache.put(key, outcome)
        return outcome

    return evaluate


def rank_key(bound: float, sentence: Optional[str]) -> Tuple[float, int, str]:
    """Order of converged results: smaller bound, then fewer monomials, then text.

    A missing sentence counts as no monomials and empty text.
    """
    if not sentence:
        return (bound, 0, "")
    return (bound, sentence.count("<ES>") + 1, sentence)


class SearchNode:
    """One token prefix in the tree.

    untried starts as every token legal_next_tokens allows under caps, in
    token order; expansion pops one by a seeded draw.  Prefixes that differ
    only by constant padding (P7 beside another factor) are separate nodes.
    """

    __slots__ = ("state", "N", "W", "self_evals", "children", "untried", "terminal")

    def __init__(self, state: Tuple[Token, ...], caps: SearchCaps):
        self.state = state
        self.N = 0
        self.W = 0.0
        self.self_evals = 0
        self.children: Dict[Token, SearchNode] = {}
        legal = legal_next_tokens(state, caps.degree_cap, caps.max_monomials)
        self.untried: List[Token] = sorted(legal)
        self.terminal = not legal and bool(state) and state[-1] is Token.EOS

    @property
    def expanded(self) -> bool:
        return not self.untried

    def __repr__(self) -> str:
        return f"SearchNode({' '.join(t.name for t in self.state)!r}, N={self.N}, W={self.W:.3f})"


def select_path(root: SearchNode, c_explore: float) -> List[SearchNode]:
    """Descend by UCB until the first non-fully-expanded node or a terminal.

    Unvisited children score +infinity; ties break by token order P1 < ... < EOS
    (the children dict is consulted in that order).
    """
    path = [root]
    node = root
    while node.expanded and not node.terminal:
        best_token, best_score = None, -math.inf
        log_parent = math.log(node.N) if node.N > 0 else 0.0
        for token in sorted(node.children):
            child = node.children[token]
            if child.N == 0:
                score = math.inf
            else:
                score = child.W / child.N + c_explore * math.sqrt(log_parent / child.N)
            if score > best_score:
                best_token, best_score = token, score
        if best_token is None:
            break
        node = node.children[best_token]
        path.append(node)
    return path


def expand_node(node: SearchNode, caps: SearchCaps, rng: np.random.Generator) -> SearchNode:
    """Create exactly one child by a seeded draw from the untried legal tokens."""
    if node.terminal:
        raise ValueError("cannot expand a terminal node")
    if not node.untried:
        raise ValueError("node is fully expanded")
    idx = int(rng.integers(len(node.untried)))
    token = node.untried.pop(idx)
    child = SearchNode(node.state + (token,), caps)
    node.children[token] = child
    return child


def rollout_completion(
    state: Tuple[Token, ...],
    caps: SearchCaps,
    rng: np.random.Generator,
    eos_bias: float = 2.0,
) -> Sentence:
    """Complete a prefix to a terminal sentence by seeded weighted-uniform draws.

    EOS, when legal, gets its probability weight multiplied by eos_bias (the
    prefix then already holds a completable monomial), keeping rollouts short.
    """
    tokens = list(state)
    while not (tokens and tokens[-1] is Token.EOS):
        legal = frozenset(legal_next_tokens(tokens, caps.degree_cap, caps.max_monomials))
        ordered, cdf = _draw_table(legal, eos_bias)
        tokens.append(ordered[bisect_right(cdf, rng.random())])
    return prefix_sentence(analyze_prefix(tokens))


@lru_cache(maxsize=None)  # a few legal-token sets per eos_bias in use
def _draw_table(legal: FrozenSet[Token], eos_bias: float) -> Tuple[Tuple[Token, ...], Tuple[float, ...]]:
    """The legal tokens in token order and the cumulative distribution of a
    rollout's draw among them, built as Generator.choice(p=weights) builds
    it: weights normalized, cumsum, divided by its last entry.  So
    ordered[bisect_right(cdf, rng.random())] takes the same draw from the
    stream as rng.choice(len(ordered), p=weights) and picks the same token."""
    _check_eos_bias(eos_bias)
    ordered = tuple(sorted(legal))
    weights = np.array([eos_bias if t is Token.EOS else 1.0 for t in ordered], dtype=float)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return ordered, tuple(cdf.tolist())


def simulate_rollout(
    node: SearchNode,
    evaluator: Evaluator,
    rollouts: int,
    caps: SearchCaps,
    rng: np.random.Generator,
    eos_bias: float = 2.0,
) -> float:
    """Mean reward over seeded completions of the node's prefix.

    Every completion is evaluated at the search degree caps.degree_cap.  A
    terminal node is its own single completion: one evaluation, no
    randomness, regardless of the rollout count.
    """
    if rollouts < 1:
        raise ValueError("need rollouts >= 1")
    if node.terminal:
        sentence = prefix_sentence(analyze_prefix(node.state))
        return evaluator(sentence, caps.degree_cap).reward()
    total = 0.0
    for _ in range(rollouts):
        sentence = rollout_completion(node.state, caps, rng, eos_bias)
        total += evaluator(sentence, caps.degree_cap).reward()
    return total / rollouts


def backpropagate(path: Sequence[SearchNode], reward: float) -> None:
    """N += 1 and W += reward along the path; the endpoint logs a self-evaluation."""
    for node in path:
        node.N += 1
        node.W += reward
    path[-1].self_evals += 1


class SearchFailedError(RuntimeError):
    """No terminal sentence produced a converged certificate."""

    def __init__(self, message: str, log: List[EvalOutcome]):
        super().__init__(message)
        self.log = log


@dataclass
class SearchOutcome:
    sentence: Sentence
    outcome: EvalOutcome
    evaluations: List[EvalOutcome]
    tree_root: SearchNode
    wall_time: float


def audit_counts(root: SearchNode) -> bool:
    """Count conservation: N equals children's N plus evaluations ending here."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.N != sum(c.N for c in node.children.values()) + node.self_evals:
            return False
        stack.extend(node.children.values())
    return True


def dump_tree(root: SearchNode, path: str) -> None:
    """One node per line: token prefix, visit count, value sum (debug aid).

    The prefix is the node's token names joined by "/" (e.g. P7/ES/P1), and
    "<root>" for the root, so dumps of the same search are identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        stack = [root]
        while stack:
            node = stack.pop()
            prefix = "/".join(t.name for t in node.state) or "<root>"
            fh.write(f"{prefix} {node.N} {node.W!r}\n")
            stack.extend(node.children.values())


def check_search_settings(iterations: int, d_search: int, d_final: int, max_monomials: int,
                          top_k: int, c_explore: float, eos_bias: float) -> None:
    """Raise ValueError unless run_search can run with these settings.

    run_search calls it, and so does CampaignConfig.validate before a round.
    """
    if iterations < 1:
        raise ValueError("need iterations >= 1")
    if not 0 <= d_search <= d_final:
        raise ValueError(
            f"need 0 <= d_search <= d_final, got d_search={d_search}, d_final={d_final}"
        )
    if top_k < 1 or max_monomials < 1:
        raise ValueError(
            f"need top_k >= 1 and max_monomials >= 1, got {top_k}, {max_monomials}"
        )
    if not 0 <= c_explore < math.inf:  # 0 is pure exploitation
        raise ValueError(f"need c_explore finite and >= 0, got {c_explore}")
    _check_eos_bias(eos_bias)


def _check_eos_bias(eos_bias: float) -> None:
    """Raise ValueError unless eos_bias is finite and > 0: <*> is always
    legal, so a rollout ends only by <EOS>, and an infinite weight would
    make the draw probabilities NaN."""
    if not 0 < eos_bias < math.inf:
        raise ValueError(f"need eos_bias finite and > 0, got {eos_bias}")


def run_search(
    evaluator: Evaluator,
    iterations: int,
    d_search: int,
    d_final: int,
    max_monomials: int,
    seed: int,
    c_explore: float = math.sqrt(2.0),
    rollouts: int = 1,
    top_k: int = 3,
    eos_bias: float = 2.0,
    tree_dump_path: Optional[str] = None,
) -> SearchOutcome:
    """Search for the sentence with the smallest bound under evaluator.

    Grows the tree over sentences of degree <= d_search and at most
    max_monomials monomials, evaluating them at d_search, for the iteration
    budget; then evaluates the top_k best converged terminal sentences at the
    more expressive degree d_final and returns the one with the smallest
    converged bound (ties prefer fewer monomials, then the lexicographically
    smaller canonical text; see rank_key).  The returned outcome is the
    evaluator's d_final outcome, so a caller can verify its solve without
    solving again.  seed drives the tree's draws only.  Deterministic given
    all inputs and a deterministic evaluator.  The settings are checked by
    check_search_settings before the search starts.
    """
    check_search_settings(iterations, d_search, d_final, max_monomials, top_k, c_explore, eos_bias)
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    caps = SearchCaps(d_search, max_monomials)
    root = SearchNode((), caps)
    evaluations: List[EvalOutcome] = []
    seen_keys = set()

    def evaluate(s: Sentence, d: int) -> EvalOutcome:
        """The evaluator, logging each distinct (sentence, degree) once."""
        outcome = evaluator(s, d)
        if (outcome.sentence, outcome.d) not in seen_keys:
            seen_keys.add((outcome.sentence, outcome.d))
            evaluations.append(outcome)
        return outcome

    for _ in range(iterations):
        path = select_path(root, c_explore)
        leaf = path[-1]
        if not leaf.terminal and leaf.untried:
            child = expand_node(leaf, caps, rng)
            path.append(child)
            leaf = child
        reward = simulate_rollout(leaf, evaluate, rollouts, caps, rng, eos_bias)
        backpropagate(path, reward)

    if tree_dump_path:
        dump_tree(root, tree_dump_path)

    converged = [e for e in evaluations if e.converged]
    if not converged:
        raise SearchFailedError(
            f"no terminal sentence converged in {iterations} iterations "
            f"({len(evaluations)} distinct sentences tried)",
            evaluations,
        )

    def outcome_key(e: EvalOutcome) -> Tuple[float, int, str]:
        return rank_key(e.bound, e.sentence)

    final_results = []
    for e in sorted(converged, key=outcome_key)[:top_k]:
        sentence = tokenize_and_parse(e.sentence)
        outcome = evaluate(sentence, d_final) if d_final != e.d else e
        if outcome.converged:
            final_results.append((sentence, outcome))
    if not final_results:
        raise SearchFailedError(
            f"no finalist converged at d_final={d_final}", evaluations
        )
    best_sentence, best_outcome = min(final_results, key=lambda item: outcome_key(item[1]))
    return SearchOutcome(
        sentence=best_sentence.canonical(),
        outcome=best_outcome,
        evaluations=evaluations,
        tree_root=root,
        wall_time=time.monotonic() - start,
    )
