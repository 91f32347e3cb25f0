#!/usr/bin/env python3
"""Stand-in external solver that claims an optimum with a ragged xMat section.

Whatever .dat-s path it is given, it prints an optimal phase, objective 1
and, on line 4, an xMat section whose one block has rows of length 2 and 1.
"""

import sys


def main() -> int:
    print("phase.value  = pdOPT")
    print("   objValPrimal = +1.0000000000000000e+00")
    print("   objValDual   = +1.0000000000000000e+00")
    print("xMat = { { {1.0, 2.0}, {3.0} } }")
    return 0


if __name__ == "__main__":
    sys.exit(main())
