"""The benchmark's tracer (perfbench/tracing.py) wraps module attributes of
packbound by name.  Dropping or renaming one of them breaks `--trace 1`
runs of perfbench/run.py; this test shows it without running a workload."""

import importlib
import os

from packbound import bo, campaign, compiler, diagnostics, mcts, solver

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODULES = (bo, campaign, compiler, diagnostics, mcts, solver)


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    before = {m: dict(vars(m)) for m in MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)  # AttributeError if a wrapped name is gone
        patched = [(module, attr) for module, attr, _ in tracer._undo]
        assert patched
        for module, attr in patched:
            assert getattr(module, attr) is not before[module][attr], (module.__name__, attr)
    finally:
        tracer.close()
    for module, attrs in before.items():
        assert vars(module).keys() == attrs.keys()
        for attr, value in attrs.items():
            assert getattr(module, attr) is value, (module.__name__, attr)
