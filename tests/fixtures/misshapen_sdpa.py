#!/usr/bin/env python3
"""Stand-in external solver that claims an optimum with a misshapen certificate.

Whatever .dat-s path it is given, it prints an optimal phase, objective 1 and
a single 1x1 primal block, which fits no instance with more than one block
or with a block larger than 1x1.
"""

import sys


def main() -> int:
    print("phase.value  = pdOPT")
    print("   objValPrimal = +1.0000000000000000e+00")
    print("   objValDual   = +1.0000000000000000e+00")
    print("xMat = { {+1.0e+00} }")
    return 0


if __name__ == "__main__":
    sys.exit(main())
