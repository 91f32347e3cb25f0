#!/usr/bin/env python3
"""Solve a fixed sentence across basis degrees and report the objectives.

Illustrates the nesting behaviour of the block bases: zero-padding a
low-degree solution stays feasible at higher degree, so converged
objectives are non-increasing in d (up to solver tolerance).  One pivot
table serves every degree; ADMM and solver.check_certificate read the same
float image of each instance (PivotTable.instance_arrays).  For a result the
gate accepts, the line gives ADMM's objective and iterations and the bound
of solver.solve_exact's decision on the same table, in full: ADMM's float
objective can sit below 1 by its tolerance, and a bound from it below the
truth.  An (r, n) where the bound itself can fall below the truth is refused
(compiler.check_default_bound).

    python scripts/sweep_degree.py --sentence "P1 <ES> P3 <*> P3 <EOS>" \
        --r 1.45 --R 2.0 --degrees 2 3 4 5
"""

import argparse

from packbound.compiler import PivotTable, check_default_bound, compute_bound
from packbound.grammar import tokenize_and_parse
from packbound.polys import GeometricParams
from packbound.solver import SolverStatus, check_certificate, solve_embedded, solve_exact

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
    try:
        check_default_bound(args.r, args.dim)
    except ValueError as exc:
        parser.error(str(exc))

    sentence = tokenize_and_parse(args.sentence)
    params = GeometricParams(args.r, args.R)
    print(f"sentence: {args.sentence}   (r={args.r}, R={args.R}, n={args.dim}, K={args.pivots})")
    table = PivotTable(params, args.pivots, args.seed)
    for d in sorted(args.degrees):
        if sentence.canonical().max_degree() > d:
            print(f"  d={d}: skipped (monomial degree exceeds d)")
            continue
        image = table.instance_arrays(sentence, d)
        res = solve_embedded(image, tol_eq=TOL)
        status, eq_res, psd_res = check_certificate(image, res, TOL, TOL)
        if status == "converged":
            exact = solve_exact(sentence, d, table)
            bound = (repr(compute_bound(exact.objective_value, params, args.dim))
                     if exact.status is SolverStatus.CONVERGED else f"none ({exact.status.value})")
            print(f"  d={d}: objective={res.objective_value:.12f}  bound={bound}"
                  f"  ({res.iterations} iterations)")
        elif status == "verification-failed":
            print(f"  d={d}: {status} (equality residual {eq_res}, psd residual {psd_res})")
        else:
            print(f"  d={d}: {status} ({res.message})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
