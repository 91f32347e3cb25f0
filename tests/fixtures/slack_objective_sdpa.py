#!/usr/bin/env python3
"""Stand-in external solver that understates its objective inside the gate's slack.

Reads the .dat-s path it is given, solves the instance with the embedded
ADMM solver and prints the primal blocks as xMat under an optimal phase,
but reports objValPrimal = min(recomputed, 1) - 1e-7, where recomputed is
the certificate's own objective on the instance.  That is below 1 and
within 10 * tol_eq * (1 + |recomputed|) of recomputed at the default
tol_eq = 1e-8, so the gate accepts the claim.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from packbound.solver import (read_sdpa_instance, solve_embedded,  # noqa: E402
                              system_to_instance, verify_certificate)


def main() -> int:
    with open(sys.argv[-1], "r", encoding="utf-8") as fh:
        inst = system_to_instance(read_sdpa_instance(fh.read()))
    res = solve_embedded(inst)
    claimed = min(verify_certificate(inst, res).objective_recomputed, 1.0) - 1e-7
    print("phase.value  = pdOPT")
    print(f"   objValPrimal = {claimed:+.16e}")
    print("xMat =")
    print("{")
    for mat in res.primal_blocks:
        rows = ["{" + ", ".join(repr(float(x)) for x in row) + "}" for row in mat]
        print("{ " + ", ".join(rows) + " }")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
