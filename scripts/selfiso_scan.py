#!/usr/bin/env python3
"""Brute-force shift/reflection distance scan between partner pairs.

For each (j, m) this evaluates D(a, r) = sup_x |V+(x) - V-(r(x - a))|
over 4096 translations and both reflections, beside selfiso_distance,
which refines the best of its own 512 shifts by Newton on the active
peaks of the difference.  The j >= 2 distances printed here are the
regression constants frozen in tests/conftest.py (FROZEN_DISTANCES),
which tests/test_verify.py and tests/test_acceptance.py read.

Run:  python scripts/selfiso_scan.py [shifts]
"""

import sys

from lamesusy import verify
from lamesusy.elliptic import complete_k
from lamesusy.grid import spectrum


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    shifts = int(argv[0]) if argv else 4096
    print(f"# transform-group distances, {shifts}-shift scan + refinement")
    print(f"{'j':>2} {'m':>4} {'coarse':>16} {'refined':>16} {'shift':>12} "
          f"{'refl':>5} verdict")
    for j in (1, 2, 3):
        for m in (0.1, 0.5, 0.9):
            grid_plus, grid_minus = (verify._grid_of(p, 1024)
                                     for p in reversed(verify.partner_pair(j, m)))
            spectra = (spectrum(g.samples) for g in (grid_plus, grid_minus))
            coarse = float(verify._scan_distance(*spectra, grid_minus.n, grid_minus.period,
                                                 shifts)[0].min())
            res = verify.selfiso_distance(grid_plus, grid_minus)
            shift_note = res.best_shift
            if j == 1:
                shift_note -= complete_k(m)  # report offset from half period
            print(f"{j:>2} {m:>4} {coarse:>16.9e} {res.distance:>16.9e} "
                  f"{shift_note:>12.3e} {str(res.reflected):>5} {res.verdict}")


if __name__ == "__main__":
    main()
