#!/usr/bin/env python3
"""Time the Floquet, Galerkin, partner and verify layers on fixed inputs and print one JSON line.

Thirteen timings, each taken once per round over ``--repeat`` rounds, one
of each in turn, so that a drift in machine speed reaches all of them alike.
The line holds the median of every timing over the rounds, and under
``quartiles`` its first and third quartiles:

  * ``jacobi_points_per_s``: ``elliptic.jacobi`` on 4096 float64 points
    at m = 0.9, 50 calls a round;
  * ``trace_1_s`` and ``trace_8_s``: the latency of ``monodromy_trace``
    for a batch of 1 and of 8 energies in the lowest energy range of the
    closed-form V+ (j = 3, m = 0.9), its step count settled beforehand,
    the mean of 50 calls a round;
  * ``scan_257_energies_per_s``: the 257-energy product with the
    half-turn count that opens every ``band_edges`` scan, on the same warm
    V+ and over the same window, 10 products a round;
  * ``band_edges_s``: ``band_edges`` for all 2j + 1 edges of freshly built
    closed-form potentials, V- for j = 1..5 and V+ for j = 2, 3, at
    m in {0.1, 0.5, 0.9}: 21 calls a round, step counts settled anew;
  * ``galerkin_edges_s``: ``galerkin_edges`` for the same 2j + 1 edges of
    the same 21 freshly built potentials, at its default basis;
  * ``numeric_partner_s``: ``ground_energy`` of raw Lamé and
    ``numeric_partner`` of V- for j in {4, 8} x m in {0.5, 0.95}, each
    potential freshly built: 8 calls a round;
  * ``selfiso_distance_s``: ``selfiso_distance`` on two fixed pairs of
    grids, the closed-form V+ and V- of j = 2, m = 0.5 at 512 samples, and
    a five-mode function of period 2 pi against its translate by 1.2345
    plus 1e-6 cos 5x at 256 samples: 2 calls a round;
  * ``verify_edgestates_s``, ``verify_limits_s``, ``verify_iso_s`` and
    ``verify_selfiso_s``: each suite of ``lamesusy verify --scope all``
    alone, called as the command calls it at ``verify.DEFAULT_M_LIST``,
    once a round; ``verify_all_s`` is their sum plus ``reports_to_json``
    of all their reports, the release job without its process start.

Beside them, eight counts that no timing noise moves: the Magnus products
the 21 ``band_edges`` calls form and their steps x energies
(``band_edges_products``, ``band_edges_steps_x_energies``), the same two
for the release job, summed over the ``band_edges`` DEBUG records of the
last verify round (``release_band_edges_products``,
``release_band_edges_steps_x_energies``), the
plane-wave problems of the 21 ``galerkin_edges`` calls solved as cos and
sin blocks, against all of them (``galerkin_problems_split``,
``galerkin_problems``), the shifts the two ``selfiso_distance`` scans
evaluate (``selfiso_shifts_evaluated``), and the lines of the measured
package's modules (``src_lines``).

Run:  python scripts/bench.py [--repeat N]
with N rounds (default 7).  Times are wall-clock seconds of this
process, on one BLAS thread, not rescaled for the machine's speed: to
compare two source trees, alternate runs of each, and read
``jacobi_points_per_s`` as the witness of that speed when ``jacobi`` is
the same in both.
"""

import argparse
import json
import logging
import os
import re
import statistics
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, set before numpy loads

import numpy as np  # noqa: E402

from lamesusy import bandsolver, verify  # noqa: E402
from lamesusy.elliptic import jacobi  # noqa: E402
from lamesusy.grid import GridFunction  # noqa: E402
from lamesusy.susy import Family, PotentialSpec  # noqa: E402

JACOBI_X = np.linspace(-20.0, 20.0, 4096)
EDGE_CASES = ([(Family.V_MINUS, j) for j in range(1, 6)]
              + [(Family.V_PLUS, j) for j in (2, 3)])
M_LIST = (0.1, 0.5, 0.9)
PARTNER_CASES = [(j, m) for j in (4, 8) for m in (0.5, 0.95)]


def _warm_potential():
    """The closed-form V+ (j = 3, m = 0.9) with its scan energies, the
    first energy range's step counts settled at both tolerances."""
    pot = PotentialSpec(Family.V_PLUS, 3, 0.9).as_periodic_potential()
    count = 7
    scan = np.linspace(bandsolver._span(pot)[0] - 1.0, bandsolver._first_window(pot, count),
                       bandsolver.DEFAULT_SCAN + 1)
    bandsolver._monodromy(pot, scan, bandsolver.SCAN_TOL, rows=5)
    low = np.linspace(scan[0], bandsolver._span(pot)[1], 8)
    bandsolver.monodromy_trace(pot, low)
    return pot, scan, low


def _timed(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _grid():
    """The 21 cases as (potential, 2j + 1), each potential freshly built."""
    for family, j in EDGE_CASES:
        for m in M_LIST:
            yield PotentialSpec(family, j, m).as_periodic_potential(), 2 * j + 1


def _band_edges_grid():
    """The Magnus products and steps x energies that the 21 calls form."""
    formed = np.zeros(2, dtype=int)
    for pot, count in _grid():
        bandsolver.band_edges(pot, count)
        formed += pot._magnus["formed"]
    return formed


def _galerkin_split():
    """How many of the 42 plane-wave problems of the 21 cases split, and 42."""
    split = [len(bandsolver._cos_sin_blocks(*bandsolver._potential_modes(pot, bandsolver.BASIS_N),
                                            pot.period, periodic)[0]) == 2
             for pot, _ in _grid() for periodic in (True, False)]
    return sum(split), len(split)


def _partners():
    """ground_energy of raw Lamé and numeric_partner of V- over PARTNER_CASES."""
    for j, m in PARTNER_CASES:
        bandsolver.ground_energy(PotentialSpec(Family.RAW_LAME, j, m).as_periodic_potential())
        bandsolver.numeric_partner(PotentialSpec(Family.V_MINUS, j, m).as_periodic_potential())


def _selfiso_pairs():
    """The two (vp, vm) grid pairs of ``selfiso_distance_s``."""
    plus, minus = (verify._grid_of(PotentialSpec(f, 2, 0.5).as_periodic_potential())
                   for f in (Family.V_PLUS, Family.V_MINUS))
    f = lambda x: (np.sin(x) + 0.25 * np.cos(2 * x) - 0.1 * np.sin(3 * x)
                   + 0.15 * np.cos(3 * x) + 0.05 * np.cos(7 * x + 1.0))
    near = GridFunction.from_function(lambda x: f(x - 1.2345) + 1e-6 * np.cos(5 * x),
                                      2 * np.pi, 256)
    return [(plus, minus), (near, GridFunction.from_function(f, 2 * np.pi, 256))]


class _Formed(logging.Handler):
    """Sums the Magnus products and steps x energies of the band_edges
    DEBUG records it receives."""

    PATTERN = re.compile(r"band_edges: .* (\d+) Magnus products of (\d+) steps x energies")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.formed = np.zeros(2, dtype=int)

    def emit(self, record):
        found = self.PATTERN.match(record.getMessage())
        if found:
            self.formed += [int(g) for g in found.groups()]


def _verify_round(formed):
    """The verify suites of the release job, each timed alone, and
    verify_all_s: their sum plus the JSON rendering of their reports.
    ``formed`` receives the round's band_edges DEBUG records."""
    logger = logging.getLogger(bandsolver.__name__)
    level = logger.level
    logger.setLevel(logging.DEBUG)
    logger.addHandler(formed)
    m_list = verify.DEFAULT_M_LIST
    suites = {
        "verify_edgestates_s": lambda: [r for m in m_list for r in verify.run_edge_state_suite(m)],
        "verify_limits_s": verify.run_limit_suite,
        "verify_iso_s": lambda: verify.run_isospectrality_suite(m_list=m_list),
        "verify_selfiso_s": lambda: verify.run_selfiso_suite(m_list=m_list),
    }
    times, reports = {}, []
    for name, suite in suites.items():
        start = time.perf_counter()
        reports += suite()
        times[name] = time.perf_counter() - start
    start = time.perf_counter()
    verify.reports_to_json(reports)
    times["verify_all_s"] = sum(times.values()) + time.perf_counter() - start
    logger.removeHandler(formed)
    logger.setLevel(level)
    return times


def run(repeat=7):
    """The medians and quartiles over ``repeat`` interleaved rounds, and
    the counts, as a dict."""
    pot, scan, low = _warm_potential()
    pairs = _selfiso_pairs()
    timings = {
        "jacobi_points_per_s": lambda: JACOBI_X.size / _timed(lambda: jacobi(JACOBI_X, 0.9), 50),
        "trace_1_s": lambda: _timed(lambda: bandsolver.monodromy_trace(pot, low[3]), 50),
        "trace_8_s": lambda: _timed(lambda: bandsolver.monodromy_trace(pot, low), 50),
        "scan_257_energies_per_s": lambda: scan.size / _timed(
            lambda: bandsolver._monodromy(pot, scan, bandsolver.SCAN_TOL, rows=5), 10),
        "band_edges_s": lambda: _timed(_band_edges_grid, 1),
        "galerkin_edges_s": lambda: _timed(
            lambda: [bandsolver.galerkin_edges(*case) for case in _grid()], 1),
        "numeric_partner_s": lambda: _timed(_partners, 1),
        "selfiso_distance_s": lambda: _timed(
            lambda: [verify.selfiso_distance(*pair) for pair in pairs], 1),
    }
    rounds = {}
    for _ in range(repeat):
        release = _Formed()
        measured = {name: measure() for name, measure in timings.items()} | _verify_round(release)
        for name, value in measured.items():
            rounds.setdefault(name, []).append(value)
    products, steps = (int(c) for c in _band_edges_grid())
    split, problems = _galerkin_split()
    shifts = sum(int(np.isfinite(verify._scan_distance(*pair, verify.SHIFT_SAMPLES)).sum())
                 for pair in pairs)
    return {name: statistics.median(values) for name, values in rounds.items()} | {
        "quartiles": {name: np.percentile(values, [25, 75]).tolist()
                      for name, values in rounds.items()},
        "band_edges_products": products, "band_edges_steps_x_energies": steps,
        "release_band_edges_products": int(release.formed[0]),
        "release_band_edges_steps_x_energies": int(release.formed[1]),
        "galerkin_problems_split": split, "galerkin_problems": problems,
        "selfiso_shifts_evaluated": shifts, "repeat": repeat,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in Path(verify.__file__).parent.glob("*.py"))}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="interleaved rounds")
    print(json.dumps(run(parser.parse_args().repeat)))
