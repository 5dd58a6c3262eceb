"""Check the float32 erf of `hirisk.ops` on every float32 in [0, 6).

The tier-1 test samples this range; this sweep covers all of it, about
1.09e9 values, against scipy's double-precision erf. Negative inputs follow
because the float32 erf is odd bit for bit (tier-1 checks that), and past
6 both sides are 1 to within 1e-17. Exits 1 if any error exceeds the bound.

    PYTHONPATH=src python tests/erf32_sweep.py
"""

import sys

import numpy as np
from scipy.special import erf

from hirisk.ops import _erf32

BOUND = 5e-7
BLOCK = 1 << 22


def main() -> int:
    end = int(np.float32(6.0).view(np.uint32))
    worst, at = 0.0, 0.0
    for lo in range(0, end, BLOCK):
        x = np.arange(lo, min(lo + BLOCK, end), dtype=np.uint32).view(np.float32)
        err = np.abs(_erf32(x.copy()).astype(np.float64) - erf(x.astype(np.float64)))
        i = int(err.argmax())
        if err[i] > worst:
            worst, at = float(err[i]), float(x[i])
    print(f"max |erf32 - erf| over {end:,} float32 in [0, 6): {worst:.3e} at x = {at!r}")
    return 0 if worst <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
