#!/usr/bin/env python3
"""Differential test of the Floquet engine on generated potentials.

Seeded potentials of period 1 come from three families:

  * superlattice: A cos 2 pi x + B cos 2 pi N x, with A from 1 to 800,
    N from 2 to 21 and B/A from 1/4 to 4;
  * multiwell: -A cos 2 pi w x + B cos 2 pi x, unequal wells, with w from
    2 to 4, A from 50 to 800 and B from 1 to A/4;
  * modes: a sum of 1 to 12 modes a cos 2 pi q x + b sin 2 pi q x of
    distinct orders q <= 24, amplitudes from 1 to 1000 with random signs.

Every amplitude is drawn log-uniformly.  For each potential the first
COUNT edges from ``band_edges`` are compared with ``galerkin_edges`` at
basis 512, wherever the Galerkin lists at basis 256 and 512 agree to
SETTLED; otherwise the case is unsettled and left out.  Distances are
|E - E'| / max(1, |E'|), the worst over the edges.  A Floquet list
further than WRONG from a settled Galerkin is a wrong answer; a raise
(NumericalError, IncompleteSpectrumError among them) is counted apart.

Run:  python scripts/engine_fuzz.py [--cases N] [--seed S]
with N cases per family (default 104) from the seed S (default 0).  It
prints each wrong answer and raise as it meets it, then one row per
family: cases, unsettled, raises, wrong answers, the worst disagreement
with a settled Galerkin, the cells ``band_edges`` scanned again
(``rescans``) and the steps x energies of its Magnus products (``steps``),
and the cases whose every Magnus product ran over the half period
(``half``), the route of an even V; these three come from the counts
``band_edges`` keeps per call on its potential.  The superlattice and
multiwell families are cosine sums, so even, and take the half period;
a modes case with a sine part takes the whole period.  It exits 1 when any case
is wrong or raises, else 0, so a job can gate on it.  At seed 0 no
family has a wrong answer or a raise.
"""

import argparse
import math
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, set before numpy loads

import numpy as np  # noqa: E402

from lamesusy import bandsolver  # noqa: E402
from lamesusy.errors import NumericalError  # noqa: E402

COUNT = 21
SETTLED = 1e-8  # Galerkin at basis 256 and 512 within this: the case is settled
WRONG = 1e-7    # a Floquet list further than this from a settled Galerkin is wrong


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def superlattice(rng):
    a = _log_uniform(rng, 1.0, 800.0)
    return [(1, a, 0.0), (int(rng.integers(2, 22)), a * _log_uniform(rng, 0.25, 4.0), 0.0)]


def multiwell(rng):
    a = _log_uniform(rng, 50.0, 800.0)
    return [(int(rng.integers(2, 5)), -a, 0.0), (1, _log_uniform(rng, 1.0, a / 4.0), 0.0)]


def modes(rng):
    orders = rng.choice(np.arange(1, 25), size=int(rng.integers(1, 13)), replace=False)
    return [(int(q), *(float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1.0, 1000.0)
                       for _ in range(2))) for q in orders]


FAMILIES = {"superlattice": superlattice, "multiwell": multiwell, "modes": modes}


def potential(terms):
    """V(x) = sum of a cos 2 pi q x + b sin 2 pi q x over the (q, a, b) terms."""
    def V(x):
        t = 2.0 * np.pi * np.asarray(x, dtype=float)
        return sum(a * np.cos(q * t) + b * np.sin(q * t) for q, a, b in terms)
    return bandsolver.PeriodicPotential(period=1.0, evaluator=V)


def _distance(edges, reference):
    return max(abs(e.energy - r.energy) / max(1.0, abs(r.energy))
               for e, r in zip(edges, reference))


def check(terms):
    """One potential: a dict with the Floquet engine's ``error`` (None
    unless it raised), whether Galerkin is ``settled`` and the Floquet
    ``distance`` to it (None when unsettled or raised), and from the
    counts ``band_edges`` keeps on the potential (``V._magnus["counts"]``)
    the cells scanned again (``rescans``), the ``steps`` x energies of the
    products formed and whether every one ran over the ``half`` period."""
    pot = potential(terms)
    row = {"terms": terms, "error": None, "settled": False, "distance": None, "half": False}
    coarse = bandsolver.galerkin_edges(pot, COUNT, 256)
    fine = bandsolver.galerkin_edges(pot, COUNT, 512)
    row["settled"] = _distance(coarse, fine) <= SETTLED
    try:
        edges = bandsolver.band_edges(pot, COUNT)
    except NumericalError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    finally:
        counts = pot._magnus["counts"]
        row["half"] = counts["half_period_products"] == counts["products"] > 0
        row["rescans"], row["steps"] = counts["rescans"], counts["steps_x_energies"]
    if row["settled"]:
        row["distance"] = _distance(edges, fine)
    return row


def main(cases=104, seed=0):
    """Run ``cases`` potentials of every family; returns the rows by family."""
    rng = np.random.default_rng(seed)
    report = {}
    for name, draw in FAMILIES.items():
        rows = report[name] = [check(draw(rng)) for _ in range(cases)]
        for row in rows:
            if row["error"]:
                print(f"{name}: raised {row['error'][:120]}\n   terms {row['terms']}")
            elif row["distance"] is not None and row["distance"] > WRONG:
                print(f"{name}: wrong by {row['distance']:.3g}\n   terms {row['terms']}")
    print(f"{'family':>12} {'cases':>5} {'unsettled':>9} {'raises':>6} {'wrong':>5} {'worst':>9} "
          f"{'rescans':>7} {'steps':>11} {'half':>5}")
    for name, rows in report.items():
        found = [r["distance"] for r in rows if r["distance"] is not None]
        print(f"{name:>12} {len(rows):>5} {sum(not r['settled'] for r in rows):>9} "
              f"{sum(r['error'] is not None for r in rows):>6} "
              f"{sum(d > WRONG for d in found):>5} "
              + (f"{max(found):>9.2e}" if found else f"{'-':>9}")
              + f" {sum(r['rescans'] for r in rows):>7} {sum(r['steps'] for r in rows):>11}"
              + f" {sum(r['half'] for r in rows):>5}")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", type=int, default=104, help="cases per family")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    report = main(args.cases, args.seed)
    sys.exit(any(r["error"] or (r["distance"] or 0.0) > WRONG
                 for rows in report.values() for r in rows))
