#!/usr/bin/env python3
"""Run the default desk-scale campaign and print a summary.

A thin wrapper over the campaign loop with the shipped defaults
(dimension 8, search degree 2, final degree 4, 50 pivots, 10 rounds, each
round's winner decided exactly, with no external solver).  Pass --out to
choose the output directory; everything else can be overridden through the
same flags as `packbound campaign`.

    python scripts/run_desk_campaign.py --out runs/desk --seed 0
"""

import sys

from packbound.cli import main

if __name__ == "__main__":
    argv = sys.argv[1:]
    if not any(arg.startswith("--out") for arg in argv):
        argv += ["--out", "runs/desk"]
    sys.exit(main(["campaign", "--budget-rounds", "10"] + argv))
