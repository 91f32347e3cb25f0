"""Per-layer tracing from outside the program.

A `Tracer` replaces module attributes at the places where one layer calls
another (for example `packbound.mcts.assemble_sdp`, the name the tree search
resolves at call time) with timing wrappers, and puts the originals back on
`close()`.  Nothing under `src/` changes.  Each wrapped call becomes a span
(layer, call site, start, end, parent span); spans stay in memory until the
run ends.  Self time is a span's duration minus the time covered by its
child spans, accumulated while the run goes.

Hooks attached to a wrapper see the call's arguments, result and duration and
keep the counters that only make sense at that boundary: solver status and
iterations per degree, distinct pivot keys, emitted bytes, optimizer
evaluations, and final solves that repeat a search solve.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

STATUSES = ("converged", "infeasible-detected", "max_iterations", "numeric-failure")
SOLVE_DEGREES = (2, 4)

# (name, unit, better).  BENCHMARK.json's per_layer list is this list.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("compiler.assemble_sdp.calls", "count", "lower"),
    ("compiler.assemble_sdp.s", "s", "lower"),
    ("compiler.assemble_sdp.self_s", "s", "lower"),
    ("polys.evaluate_basis.calls", "count", "lower"),
    ("polys.evaluate_basis.s", "s", "lower"),
    ("polys.base_values_at.calls", "count", "lower"),
    ("polys.base_values_at.s", "s", "lower"),
    ("compiler.generate_pivots.calls", "count", "lower"),
    ("compiler.generate_pivots.s", "s", "lower"),
    ("compiler.generate_pivots.distinct_keys", "count", "lower"),
    ("compiler.emit_sdpa.calls", "count", "lower"),
    ("compiler.emit_sdpa.s", "s", "lower"),
    ("compiler.emit_sdpa.bytes", "bytes", "lower"),
    ("solver.read_sdpa_instance.s", "s", "lower"),
    ("solver.system_to_instance.s", "s", "lower"),
    ("compiler.block_arrays.s", "s", "lower"),
]
for _d in SOLVE_DEGREES:
    for _status in STATUSES:
        PER_LAYER += [
            (f"solver.solve_embedded.d{_d}.{_status}.calls", "count", "lower"),
            (f"solver.solve_embedded.d{_d}.{_status}.iterations", "count", "lower"),
            (f"solver.solve_embedded.d{_d}.{_status}.s", "s", "lower"),
        ]
PER_LAYER += [
    ("solver.solve_embedded.converged_share", "ratio", "higher"),
    ("solver.verify_certificate.calls", "count", "lower"),
    ("solver.verify_certificate.s", "s", "lower"),
    ("mcts.run_search.calls", "count", "lower"),
    ("mcts.run_search.s", "s", "lower"),
    ("mcts.run_search.self_s", "s", "lower"),
    ("mcts.run_search.failures", "count", "lower"),
    ("mcts.cache.hits", "count", "higher"),
    ("mcts.cache.misses", "count", "lower"),
    ("mcts.cache.hit_ratio", "ratio", "higher"),
    ("grammar.legal_next_tokens.calls", "count", "lower"),
    ("grammar.legal_next_tokens.s", "s", "lower"),
    ("campaign.final_solve.s", "s", "lower"),
    ("campaign.final_solve.repeats", "count", "lower"),
    ("campaign.play_round.self_s", "s", "lower"),
    ("diagnostics.write_campaign_csvs.s", "s", "lower"),
    ("bo.fit_surrogate.calls", "count", "lower"),
    ("bo.fit_surrogate.s", "s", "lower"),
    ("bo.fit_surrogate.nll_evals", "count", "lower"),
    ("bo.fit_surrogate.failures", "count", "lower"),
    ("bo.propose_next.calls", "count", "lower"),
    ("bo.propose_next.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        # (layer, site, start, end, parent span index or -1); None while open
        self.spans: List[Optional[Tuple[str, str, float, float, int]]] = []
        self._stack: List[list] = []  # [span index, child seconds, layer]
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.site_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.pivot_keys: set = set()
        self.search_instances: set = set()
        self.caches: list = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, module, attr: str, layer: str, hook: Optional[Callable] = None,
             site: Optional[str] = None) -> None:
        """Time every call made through `module.attr` as a span of `layer`."""
        fn = getattr(module, attr)
        site = site or module.__name__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0, layer]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, site, start, parent, failed=True)
                raise
            seconds = self._close(frame, site, start, parent, failed=False)
            if hook is not None:
                hook(args, kwargs, result, seconds)
            return result

        self.replace(module, attr, traced)

    def replace(self, module, attr: str, value) -> None:
        """Swap `module.attr` for `value` until close()."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _close(self, frame, site, start, parent, failed) -> float:
        end = perf_counter()
        self._stack.pop()
        seconds = end - start
        if self._stack:
            self._stack[-1][1] += seconds
        index, child_seconds, layer = frame
        self.spans[index] = (layer, site, start, end, parent)
        self.calls[layer] += 1
        self.seconds[layer] += seconds
        self.self_seconds[layer] += seconds - child_seconds
        self.site_seconds[(layer, site)] += seconds
        if failed:
            self.failures[layer] += 1
        return seconds

    def innermost(self) -> Optional[str]:
        """Layer of the innermost open span."""
        return self._stack[-1][2] if self._stack else None

    def close(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, site, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer, "site": site,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    from packbound import bo, campaign, compiler, diagnostics, mcts, solver

    def on_solve(args, kwargs, res, seconds):
        inst = args[0] if args else kwargs["inst"]
        d = inst.meta.d if inst.meta is not None else "x"
        prefix = f"solver.solve_embedded.d{d}.{res.status.value}"
        tracer.counters[prefix + ".calls"] += 1
        tracer.counters[prefix + ".iterations"] += res.iterations
        tracer.counters[prefix + ".s"] += seconds

    pivots_sig = inspect.signature(compiler.generate_pivots)

    def on_pivots(args, kwargs, picked, seconds):
        call = pivots_sig.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        tracer.pivot_keys.add((a["params"].r, a["params"].R, a["K"], a["scheme"]))

    def instance_key(inst):
        m = inst.meta
        return (m.sentence, m.r, m.R, m.d, m.K, m.pivot_scheme)

    def on_search_assemble(args, kwargs, inst, seconds):
        tracer.search_instances.add(instance_key(inst))

    def on_final_assemble(args, kwargs, inst, seconds):
        if instance_key(inst) in tracer.search_instances:
            tracer.counters["campaign.final_solve.repeats"] += 1

    def on_emit(args, kwargs, text, seconds):
        tracer.counters["compiler.emit_sdpa.bytes"] += len(text.encode("ascii"))

    original_minimize = bo.minimize

    def counting_minimize(*args, **kwargs):
        out = original_minimize(*args, **kwargs)
        if tracer.innermost() == "bo.fit_surrogate":
            tracer.counters["bo.fit_surrogate.nll_evals"] += out.nfev
        return out

    original_cache = campaign.RewardCache

    def recorded_cache():
        cache = original_cache()
        tracer.caches.append(cache)
        return cache

    tracer.replace(bo, "minimize", counting_minimize)
    tracer.replace(campaign, "RewardCache", recorded_cache)

    # Call sites inside the campaign round.
    tracer.wrap(campaign, "play_round", "campaign.play_round")
    tracer.wrap(campaign, "fit_surrogate", "bo.fit_surrogate")
    tracer.wrap(campaign, "propose_next", "bo.propose_next")
    tracer.wrap(campaign, "run_search", "mcts.run_search")
    tracer.wrap(campaign, "assemble_sdp", "compiler.assemble_sdp", on_final_assemble)
    tracer.wrap(campaign, "solve_embedded", "solver.solve_embedded", on_solve)
    tracer.wrap(campaign, "verify_certificate", "solver.verify_certificate")
    tracer.wrap(diagnostics, "write_campaign_csvs", "diagnostics.write_campaign_csvs")
    # Call sites inside the tree search.
    tracer.wrap(mcts, "assemble_sdp", "compiler.assemble_sdp", on_search_assemble)
    tracer.wrap(mcts, "solve_embedded", "solver.solve_embedded", on_solve)
    tracer.wrap(mcts, "legal_next_tokens", "grammar.legal_next_tokens")
    # Call sites inside the compiler and the solver.
    tracer.wrap(compiler, "generate_pivots", "compiler.generate_pivots", on_pivots)
    tracer.wrap(compiler, "evaluate_basis", "polys.evaluate_basis")
    tracer.wrap(compiler, "base_values_at", "polys.base_values_at")
    tracer.wrap(solver, "block_arrays", "compiler.block_arrays")
    # Calls the benchmark makes itself (bo-loop and sdpa-export), resolved
    # through the module attributes at call time.
    tracer.wrap(bo, "fit_surrogate", "bo.fit_surrogate", site="perfbench")
    tracer.wrap(bo, "propose_next", "bo.propose_next", site="perfbench")
    tracer.wrap(compiler, "assemble_sdp", "compiler.assemble_sdp", site="perfbench")
    tracer.wrap(compiler, "emit_sdpa", "compiler.emit_sdpa", on_emit, site="perfbench")
    tracer.wrap(solver, "read_sdpa_instance", "solver.read_sdpa_instance", site="perfbench")
    tracer.wrap(solver, "system_to_instance", "solver.system_to_instance", site="perfbench")


def layer_metrics(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric, plus whatever else the spans give (such as
    seconds per call site, or solves at other degrees).  Layers a workload does
    not reach read 0, as do ratios with nothing to divide."""
    out: Dict[str, float] = {name: 0.0 for name, unit, _ in PER_LAYER if unit != "ratio"}
    for layer in tracer.calls:
        out[f"{layer}.calls"] = tracer.calls[layer]
        out[f"{layer}.s"] = tracer.seconds[layer]
        out[f"{layer}.self_s"] = tracer.self_seconds[layer]
        out[f"{layer}.failures"] = tracer.failures[layer]
    out.update(tracer.counters)
    out["compiler.generate_pivots.distinct_keys"] = len(tracer.pivot_keys)
    out["mcts.cache.hits"] = sum(c.hits for c in tracer.caches)
    out["mcts.cache.misses"] = sum(c.misses for c in tracer.caches)
    out["campaign.final_solve.s"] = (
        tracer.site_seconds[("compiler.assemble_sdp", "campaign")]
        + tracer.site_seconds[("solver.solve_embedded", "campaign")]
    )
    for (layer, site), seconds in tracer.site_seconds.items():
        out[f"{layer}@{site}.s"] = seconds
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_s"] = overhead_s

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    solves = [k for k in out if k.startswith("solver.solve_embedded.d") and k.endswith(".calls")]
    out["solver.solve_embedded.converged_share"] = share(
        sum(out[k] for k in solves if k.endswith(".converged.calls")),
        sum(out[k] for k in solves))
    out["mcts.cache.hit_ratio"] = share(
        out["mcts.cache.hits"], out["mcts.cache.hits"] + out["mcts.cache.misses"])
    return out
