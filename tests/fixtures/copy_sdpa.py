#!/usr/bin/env python3
"""Stand-in external solver that keeps a copy of the file it is given.

    copy_sdpa.py COPY INSTANCE

Copies the bytes of INSTANCE, the .dat-s path a solver receives last, to
COPY, then prints an infeasible phase with no certificate.
"""

import shutil
import sys


def main() -> int:
    shutil.copyfile(sys.argv[-1], sys.argv[-2])
    print("phase.value  = pdINF")
    print("   objValPrimal = +0.0000000000000000e+00")
    return 0


if __name__ == "__main__":
    sys.exit(main())
