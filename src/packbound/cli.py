"""Command-line interface.

Subcommands:
  compile    sentence text -> SDPA sparse file (.dat-s)
  solve      .dat-s file -> checked result of ADMM, or of --solver-cmd if given
  search     tree search at fixed (r, R), printing the best sentence found
  campaign   the full game loop, driven by a config file and/or flags
  report     diagnostics CSVs and a summary from a persisted state file

Exit codes, the same for every command: 0 success; 2 bad input, that is
invalid arguments or config, an unreadable or malformed input file, pivots
that cannot be generated, or a failed external solve; 3 campaign halted on an
I/O failure; 4 search failed to produce a converged sentence.  Handlers keep
only the success path, and `main` maps every failure to its code.  `solve`
prints every claim as solver.check_certificate judges it; an external solver
reads the file it was given, byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from typing import List, Optional

from .campaign import CampaignConfig, CampaignIOError, ConfigError, load, run_campaign
from .compiler import PivotGenerationError, PivotTable, assemble_sdp, emit_sdpa
from .grammar import render, tokenize_and_parse
from .mcts import RewardCache, SearchFailedError, make_sdp_evaluator, run_search
from .polys import GeometricParams
from .solver import (check_certificate, check_tolerances, read_sdpa_instance, solve_embedded,
                     solve_external, split_command, system_to_instance)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SEARCH = 4


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=CampaignConfig.dimension, help="ambient dimension n")
    p.add_argument("--r", type=float, required=True, help="inner geometric parameter")
    p.add_argument("--R", type=float, required=True, help="outer geometric parameter")
    p.add_argument("--pivots", type=int, default=CampaignConfig.pivots, help="pivot count K")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packbound",
        description="Searched SDP certificates for sphere-packing density upper bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a sentence into a .dat-s file")
    c.add_argument("sentence", help='sentence text, e.g. "P1 <ES> P3 <*> P3 <EOS>"')
    _add_geometry(c)
    c.add_argument("--degree", type=int, default=CampaignConfig.d_final, help="basis degree d")
    c.add_argument("--digits", type=int, default=40, help="significant digits emitted")
    c.add_argument("--out", default="-", help="output path or - for stdout")

    s = sub.add_parser("solve", help="solve a .dat-s instance file")
    s.add_argument("instance", help="path to a .dat-s file")
    s.add_argument("--solver-cmd", default="",
                   help="external solver command line, run on the file as given; empty runs ADMM")
    s.add_argument("--tol-eq", type=float, default=1e-8)
    s.add_argument("--tol-psd", type=float, default=1e-8)
    s.add_argument("--max-iterations", type=int, default=50000)

    q = sub.add_parser("search", help="tree search for the best sentence at fixed (r, R)")
    _add_geometry(q)
    q.add_argument("--degree-search", type=int, default=CampaignConfig.d_search)
    q.add_argument("--degree-final", type=int, default=CampaignConfig.d_final)
    q.add_argument("--iterations", type=int, default=CampaignConfig.mcts_iterations)
    q.add_argument("--max-monomials", type=int, default=CampaignConfig.max_monomials)
    q.add_argument("--top-k", type=int, default=CampaignConfig.top_k)
    q.add_argument("--tree-dump", default=None, help="optional tree dump path")

    # each setting flag stores into its CampaignConfig field, and only when given
    g = sub.add_parser("campaign", help="run the full campaign loop",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--config", default=None, help="JSON config file (flags override)")
    g.add_argument("--dim", type=int, dest="dimension")
    g.add_argument("--degree-search", type=int, dest="d_search")
    g.add_argument("--degree-final", type=int, dest="d_final")
    g.add_argument("--pivots", type=int)
    g.add_argument("--budget-rounds", type=int)
    g.add_argument("--budget-seconds", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--solver-cmd")
    g.add_argument("--out", dest="out_dir", help="output directory")
    g.add_argument("--resume", action="store_true", default=False,
                   help="continue a persisted campaign")
    g.add_argument("--quiet", action="store_true", default=False)

    r = sub.add_parser("report", help="summarize a persisted campaign state")
    r.add_argument("state", help="path to state.jsonl")
    r.add_argument("--out", default=".", help="directory for diagnostics CSVs")
    r.add_argument("--reference", default=None, help="reference monomial list file")
    return parser


def _cmd_compile(args) -> int:
    sentence = tokenize_and_parse(args.sentence)
    params = GeometricParams(args.r, args.R)
    inst = assemble_sdp(sentence, params, n=args.dim, d=args.degree,
                        K=args.pivots, seed=args.seed)
    text = emit_sdpa(inst, digits=args.digits)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.solver_cmd:
        split_command(args.solver_cmd)  # before the file is read
    with open(args.instance, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()  # newline="": an external solver gets the file's bytes
    inst = system_to_instance(read_sdpa_instance(text))
    check_tolerances(args.tol_eq, args.tol_psd)  # before an external solver starts
    if args.solver_cmd:
        res = solve_external(text, args.solver_cmd)
    else:
        res = solve_embedded(inst, tol_eq=args.tol_eq, max_iterations=args.max_iterations)
    status, eq_res, psd_res = check_certificate(inst, res, args.tol_eq, args.tol_psd)
    print(json.dumps({
        "status": status,
        "objective": res.objective_value,
        "equality_residual": eq_res,
        "psd_residual": psd_res,
        "iterations": res.iterations,
        "message": res.message,
    }, indent=2))
    return EXIT_OK


def _cmd_search(args) -> int:
    table = PivotTable(GeometricParams(args.r, args.R), args.pivots, args.seed)
    out = run_search(
        make_sdp_evaluator(table, args.dim, RewardCache()), iterations=args.iterations,
        d_search=args.degree_search, d_final=args.degree_final,
        max_monomials=args.max_monomials, seed=args.seed, top_k=args.top_k,
        tree_dump_path=args.tree_dump,
    )
    print(json.dumps({
        "sentence": render(out.sentence),
        "bound": out.outcome.bound,
        "objective": out.outcome.objective,
        "d": out.outcome.d,
        "evaluations": len(out.evaluations),
        "seconds": out.wall_time,
    }, indent=2))
    return EXIT_OK


def _cmd_campaign(args) -> int:
    config = CampaignConfig.from_file(args.config) if args.config else CampaignConfig()
    config = dataclasses.replace(config, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(config) if hasattr(args, f.name)
    })
    state = run_campaign(config, resume=args.resume, progress=not args.quiet)
    best = state.best_record()
    print(json.dumps({
        "rounds": len(state.rounds),
        "best_bound": best.bound if best else None,
        "best_sentence": best.sentence if best else None,
        "out_dir": config.out_dir,
    }, indent=2))
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import diagnostics

    state = load(args.state)
    ref = (diagnostics.ReferenceSet.from_file(args.reference)
           if args.reference else diagnostics.ReferenceSet.empty())
    diagnostics.write_campaign_csvs(state, args.out, ref)
    best = state.best_record()
    print(json.dumps({
        "rounds": len(state.rounds),
        "converged": sum(1 for r in state.rounds if r.converged),
        "best_round": best.round if best else None,
        "best_bound": best.bound if best else None,
        "best_sentence": best.sentence if best else None,
    }, indent=2))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "solve": _cmd_solve,
        "search": _cmd_search,
        "campaign": _cmd_campaign,
        "report": _cmd_report,
    }
    # ConfigError is a ValueError, so it is caught first
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CampaignIOError as exc:
        print(f"campaign halted: {exc}", file=sys.stderr)
        return EXIT_IO
    except SearchFailedError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        for entry in exc.log:
            print(f"  {entry.sentence}  d={entry.d}  {entry.status}", file=sys.stderr)
        return EXIT_SEARCH
    except (ValueError, OSError, PivotGenerationError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
