#!/usr/bin/env python3
"""Stand-in external solver that solves honestly but misstates its objective.

Reads the .dat-s path it is given, solves the instance with the embedded
ADMM solver and prints the primal blocks as xMat under an optimal phase, but
reports objValPrimal = 0.5 whatever the certificate's objective is.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from packbound.solver import read_sdpa_instance, solve_embedded, system_to_instance  # noqa: E402


def main() -> int:
    with open(sys.argv[-1], "r", encoding="utf-8") as fh:
        inst = system_to_instance(read_sdpa_instance(fh.read()))
    res = solve_embedded(inst)
    print("phase.value  = pdOPT")
    print("   objValPrimal = +5.0000000000000000e-01")
    print("xMat =")
    print("{")
    for mat in res.primal_blocks:
        rows = ["{" + ", ".join(repr(float(x)) for x in row) + "}" for row in mat]
        print("{ " + ", ".join(rows) + " }")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
