"""scipy loads only where it runs, and only the pieces the BO uses.

Each check runs a fresh interpreter: this suite imports scipy at collection
(test_bo.py), so an in-process look at sys.modules would prove nothing.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LOADED_SCIPY = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_child(body):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import json, sys\n" + textwrap.dedent(body) + LOADED_SCIPY + "print(json.dumps(loaded))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_path_loads_no_scipy():
    # At r = 1.45, R = 2.0 and K = 50 the Chebyshev grid supplies every pivot,
    # so neither the compiler's Sobol fill nor any BO code runs.
    loaded = run_child("""
        import packbound.campaign
        import packbound.cli
        from packbound.compiler import PivotTable, assemble_sdp, emit_sdpa
        from packbound.grammar import tokenize_and_parse
        from packbound.mcts import RewardCache, make_sdp_evaluator, run_search
        from packbound.polys import GeometricParams
        from packbound.solver import (SolverStatus, read_sdpa_instance, solve_embedded,
                                      system_to_instance)

        params = GeometricParams(1.45, 2.0)
        inst = assemble_sdp(tokenize_and_parse("P6 <EOS>"), params, n=8, d=4, K=50, seed=0)
        back = system_to_instance(read_sdpa_instance(emit_sdpa(inst)))
        assert back.block_dims == inst.block_dims
        small = assemble_sdp(tokenize_and_parse("P1 <EOS>"), params, n=8, d=4, K=20, seed=0)
        small = system_to_instance(read_sdpa_instance(emit_sdpa(small)))
        assert solve_embedded(small).status is SolverStatus.CONVERGED
        evaluator = make_sdp_evaluator(PivotTable(params, 50, 0), 8, RewardCache())
        out = run_search(evaluator, iterations=4, d_search=2, d_final=4, max_monomials=2,
                         seed=0)
        assert out.outcome.converged
    """)
    assert loaded == []


def test_bo_loads_scipy_when_it_runs():
    # The lazy imports are reached: a fit and a proposal do load scipy.
    loaded = run_child("""
        import packbound.campaign
        from packbound.bo import Observation, SearchBox, fit_surrogate, propose_next
        from packbound.polys import GeometricParams

        assert not any(m.startswith("scipy") for m in sys.modules)
        box = SearchBox(1.0, 2.0, 2.5, 4.0)
        data = [Observation(GeometricParams(r, R), r + R)
                for r, R in ((1.1, 2.6), (1.5, 3.0), (1.9, 3.9))]
        surrogate = fit_surrogate(data, box, seed=0, n_starts=2, max_evals=10)
        assert box.contains(propose_next(surrogate, box, seed=0))
    """)
    assert loaded


def test_bo_and_sobol_fill_load_neither_optimize_nor_stats():
    # Nelder-Mead and the Sobol sampler are the package's own; a fit, both
    # kinds of proposal and the two pinned pivot tables that fall through to
    # the Sobol fill load only scipy.linalg.lapack and scipy.special.
    loaded = run_child("""
        import math

        from packbound.bo import Observation, SearchBox, fit_surrogate, propose_next
        from packbound.compiler import generate_pivots
        from packbound.polys import GeometricParams

        box = SearchBox(1.0, 2.0, 2.5, 4.0)
        data = [Observation(GeometricParams(r, R), r + R)
                for r, R in ((1.1, 2.6), (1.5, 3.0), (1.9, 3.9))]
        surrogate = fit_surrogate(data, box, seed=0, n_starts=2, max_evals=10)
        assert box.contains(propose_next(surrogate, box, seed=0))
        assert box.contains(propose_next(None, box, seed=0))
        for K, scheme in ((5, "plane"), (120, "grid3d")):
            pivots, _ = generate_pivots(GeometricParams(math.sqrt(2), 1.8), K, 0, scheme)
            assert len(pivots) == K
    """)
    assert loaded
    assert not [m for m in loaded if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "stats"])]
