#!/usr/bin/env python3
"""Sweep raw Lamé potentials through both spectral engines, against the
algebraic Lamé eigenvalues.

For each j and m, the 2j+1 band edges of m j(j+1) sn^2(x, m) come from
``band_edges`` (Floquet) and from ``galerkin_edges`` (plane waves, basis
128).  Every edge is compared with ``susy._lame(j, m)``, and every
boundary with the type of its Lamé polynomial: sn^a cn^b dn^c P(sn^2) is
antiperiodic over the period 2K when a + b is odd.  Errors are reported
apart for touches, the edges an engine returns as a degenerate pair, and
for all other edges.  A touch stands for a gap narrower than the engine
resolves, so its error is half that gap's width.  An edge's boundary is
derived from its index n (``expected_boundary``), so the boundary column
checks that rule against the type of the n-th Lamé polynomial, and the
energy error columns carry the check that each index holds the right
edge.  Each engine's summary gives its cases in the pattern, how many
cases returned a touch, and its worst errors.

Run:  python scripts/lame_sweep.py
for j = 1..10 and m in {1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6}.
It exits 1 when any case raises or leaves the boundary pattern, else 0,
so a job can gate on it.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, set before numpy loads

from lamesusy import bandsolver, susy  # noqa: E402
from lamesusy.errors import NumericalError  # noqa: E402

M_LIST = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6)
ENGINES = {
    "floquet": bandsolver.band_edges,
    "galerkin": lambda pot, count: bandsolver.galerkin_edges(pot, count, basis_n=128),
}


def check(j, m, engine):
    """One engine on raw Lamé (j, m): a dict saying whether the boundary of
    every index matches the type of the oracle's polynomial there, and the
    worst touch and non-touch errors (None when the engine raised, with
    the reason in ``error``)."""
    count = 2 * j + 1
    oracle = susy._lame(j, m)
    pot = susy.PotentialSpec(susy.Family.RAW_LAME, j, m).as_periodic_potential()
    row = {"j": j, "m": m, "engine": engine, "error": None,
           "boundaries_ok": False, "plain": None, "touch": None}
    try:
        edges = ENGINES[engine](pot, count)
    except NumericalError as exc:  # IncompleteSpectrumError included
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["boundaries_ok"] = len(edges) == count and all(
        bandsolver.expected_boundary(e.n) == ("antiperiodic" if (a + b) % 2 else "periodic")
        for e, (_, (a, b, _c), _p) in zip(edges, oracle))
    for kind, degenerate in (("plain", False), ("touch", True)):
        errs = [abs(e.energy - o[0]) for e, o in zip(edges, oracle) if e.degenerate == degenerate]
        row[kind] = max(errs) if errs else None
    return row


def _worst(rows, kind):
    found = [(r[kind], r["j"], r["m"]) for r in rows if r[kind] is not None]
    return max(found) if found else None


def main(j_list=range(1, 11), m_list=M_LIST):
    """Both engines over j_list x m_list; prints the table and the
    summaries and returns the rows (``check``'s, with ``time_s``)."""
    rows = []
    print(f"{'engine':>8} {'j':>2} {'m':>9} {'time_s':>7} {'pattern':>7} "
          f"{'non-touch':>9} {'touch':>9}")
    for engine in ENGINES:
        for j in j_list:
            for m in m_list:
                t0 = time.perf_counter()
                row = check(j, m, engine)
                row["time_s"] = time.perf_counter() - t0
                rows.append(row)
                if row["error"]:
                    print(f"{engine:>8} {j:>2} {m:>9.6g} {row['time_s']:>7.3f} raised: "
                          f"{row['error']}")
                    continue
                cells = [f"{row[k]:>9.2e}" if row[k] is not None else f"{'-':>9}"
                         for k in ("plain", "touch")]
                print(f"{engine:>8} {j:>2} {m:>9.6g} {row['time_s']:>7.3f} "
                      f"{'ok' if row['boundaries_ok'] else 'BAD':>7} {cells[0]} {cells[1]}")
    for engine in ENGINES:
        mine = [r for r in rows if r["engine"] == engine]
        failed = sum(1 for r in mine if r["error"] or not r["boundaries_ok"])
        print(f"\n{engine}: {len(mine) - failed} of {len(mine)} cases in the boundary pattern, "
              f"{sum(r['time_s'] for r in mine):.1f} s")
        print(f"   cases with a touch: {sum(r['touch'] is not None for r in mine)}")
        for kind, label in (("plain", "non-touch"), ("touch", "touch")):
            worst = _worst(mine, kind)
            print(f"   worst {label} error: " + ("none" if worst is None else
                                                 f"{worst[0]:.3e} (j={worst[1]}, m={worst[2]:.6g})"))
    return rows


if __name__ == "__main__":
    sys.exit(any(r["error"] or not r["boundaries_ok"] for r in main()))
