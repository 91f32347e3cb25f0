#!/usr/bin/env python3
"""Solve a fixed sentence across basis degrees and report the objectives.

Illustrates the nesting behaviour of the block bases: zero-padding a
low-degree solution stays feasible at higher degree, so converged
objectives are non-increasing in d (up to solver tolerance).  A bound is
printed only for a result that solver.check_certificate accepts.

    python scripts/sweep_degree.py --sentence "P1 <ES> P3 <*> P3 <EOS>" \
        --r 1.45 --R 2.0 --degrees 2 3 4 5
"""

import argparse

from packbound.compiler import assemble_sdp, compute_bound
from packbound.grammar import tokenize_and_parse
from packbound.polys import GeometricParams
from packbound.solver import SolverStatus, check_certificate, solve_embedded

TOL = 1e-8  # solve_embedded's default tolerances, for its stopping rule and the gate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentence", default="P1 <EOS>")
    parser.add_argument("--r", type=float, default=1.45)
    parser.add_argument("--R", type=float, default=2.0)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--pivots", type=int, default=50)
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sentence = tokenize_and_parse(args.sentence)
    params = GeometricParams(args.r, args.R)
    print(f"sentence: {args.sentence}   (r={args.r}, R={args.R}, n={args.dim}, K={args.pivots})")
    for d in sorted(args.degrees):
        if sentence.canonical().max_degree() > d:
            print(f"  d={d}: skipped (monomial degree exceeds d)")
            continue
        inst = assemble_sdp(sentence, params, n=args.dim, d=d,
                            K=args.pivots, seed=args.seed)
        res = solve_embedded(inst, tol_eq=TOL)
        status = res.status.value
        if res.status is SolverStatus.CONVERGED:  # a claim until the gate has checked it
            status, eq_res, psd_res = check_certificate(inst, res, TOL, TOL)
        if status == "converged":
            bound = compute_bound(res.objective_value, params, args.dim)
            print(f"  d={d}: objective={res.objective_value:.12f}  bound={bound:.10f}"
                  f"  ({res.iterations} iterations)")
        elif res.status is SolverStatus.CONVERGED:
            print(f"  d={d}: {status} (equality residual {eq_res}, psd residual {psd_res})")
        else:
            print(f"  d={d}: {status} ({res.message})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
