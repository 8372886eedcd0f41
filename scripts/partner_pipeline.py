#!/usr/bin/env python3
"""Run the numeric partner pipeline across indices and report fidelity.

For j = 2, 3 the pipeline output is compared pointwise against the
closed-form partner; for j = 4, 5 (no closed-form V+) the report shows
the 2j+1 band edges of both partners from the Floquet solver, the
plane-wave cross-check and the exact Lamé edges.

Run:  python scripts/partner_pipeline.py [m]
"""

import sys

import numpy as np

from lamesusy import bandsolver, verify
from lamesusy.susy import band_edge_energies, v_plus_closed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    m = float(argv[0]) if argv else 0.5
    for j in (2, 3):
        pot, partner = verify.partner_pair(j, m, numeric=True)
        x = np.linspace(0.0, pot.period, 600, endpoint=False)
        gap = np.max(np.abs(partner(x) - v_plus_closed(j, m, x)))
        print(f"j={j} m={m}: pipeline vs closed-form partner, max |diff| = {gap:.3e}")

    for j in (4, 5):
        count = 2 * j + 1
        pot_minus, pot_plus = verify.partner_pair(j, m)
        floq_m = bandsolver.band_edges(pot_minus, count)
        floq_p = bandsolver.band_edges(pot_plus, count)
        gal_m = bandsolver.galerkin_edges(pot_minus, count)
        print(f"\nj={j} m={m}: {count} band edges")
        print(f"{'n':>2} {'E(V-) floquet':>16} {'E(V+) floquet':>16} "
              f"{'E(V-) galerkin':>16} {'E exact':>16} {'bnd':>4}")
        for a, b, c, e in zip(floq_m, floq_p, gal_m, band_edge_energies(j, m)):
            print(f"{a.n:>2} {a.energy:>16.9f} {b.energy:>16.9f} "
                  f"{c.energy:>16.9f} {e:>16.9f} {a.boundary[:4]:>4}")
        iso = max(abs(a.energy - b.energy) for a, b in zip(floq_m, floq_p))
        print(f"   isospectrality defect: {iso:.3e}")


if __name__ == "__main__":
    main()
