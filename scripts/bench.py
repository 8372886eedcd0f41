#!/usr/bin/env python3
"""Time the Floquet, Galerkin, partner and verify layers on fixed inputs and print one JSON line.

Fifteen timings, each taken once per round over ``--repeat`` rounds, one
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
    m in {0.1, 0.5, 0.9}: 21 calls a round, step counts settled anew.
    Every one of them is even, so its products run over the half period;
  * ``band_edges_uneven_s``: ``band_edges`` for the first 21 edges of the
    uneven mode sum that ``scripts/engine_fuzz.py``'s third family draws
    at seed 3, freshly built: the full-period route, one call a round;
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
    of all their reports, the release job without its process start;
  * ``calib_s``: the speed witness, the median of 20 calls a round of
    ``perfbench/calib.py``'s ``sample()``, a fixed kernel of interpreted
    Python and small LAPACK calls that runs no package code.

Beside them, thirteen counts that no timing noise moves: the Magnus
products the 21 ``band_edges`` calls form, their steps x energies, the
products formed over the half period and the rounds of the root solver
(``band_edges_products``, ``band_edges_steps_x_energies``,
``band_edges_half_period_products``, ``band_edges_root_rounds``), the
same four for the release job, counted over the last verify round
(``release_band_edges_products``,
``release_band_edges_steps_x_energies``,
``release_band_edges_half_period_products``,
``release_band_edges_root_rounds``), the plane-wave problems of the 21
``galerkin_edges`` calls solved as cos and sin blocks, against all of
them (``galerkin_problems_split``, ``galerkin_problems``), the shifts the
two ``selfiso_distance`` scans evaluate (``selfiso_shifts_evaluated``),
the lines of the measured package's modules (``src_lines``) and those of
them that are code, not blank, comment-only or docstring by ``ast``
(``src_code_lines``).  Each engine count is read from the engine calls'
records: ``V._magnus["counts"]`` of
every ``band_edges`` call, summed by wrapping the public
``bandsolver.band_edges``, ``V._magnus["galerkin"]`` of every
``galerkin_edges`` call and ``SelfIsoResult.record``; none from log text,
a copy of an engine's rules or a re-run of its private functions.

Run:  PYTHONPATH=<tree>/src python scripts/bench.py [--repeat N] [--tier1]
with N rounds (default 7), on the ``lamesusy`` package that PYTHONPATH
finds.  ``--tier1`` also runs that package's repository's Tier-1 test
suite once, after the rounds, as ROADMAP.md gives it (pytest -q
--continue-on-collection-errors from the repository root, its ``src``
first on PYTHONPATH), and adds its wall time ``tier1_s`` and the last
line of its report ``tier1_summary``.  Times are wall-clock seconds of
this process, on one BLAS thread, not rescaled for the machine's speed:
to compare two source trees that keep that record, run this one script
alternately with each tree's ``src`` on PYTHONPATH.  Two trees' raw layer
seconds compare after dividing each by its run's ``calib_s``, not by
``jacobi_points_per_s``: ``jacobi`` is package code, which a change may
move, and it does not follow the machine's drift as the kernel does.
"""

import argparse
import ast
import contextlib
import json
import os
import runpy
import statistics
import subprocess
import sys
import time
from collections import Counter
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
FUZZ = runpy.run_path(str(Path(__file__).resolve().parent / "engine_fuzz.py"))
UNEVEN_TERMS = FUZZ["modes"](np.random.default_rng(3))
CALIB = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "calib.py"))


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
    """The 21 calls."""
    for pot, count in _grid():
        bandsolver.band_edges(pot, count)


def _galerkin_grid():
    """The 21 galerkin_edges calls at the default basis; returns their records."""
    records = []
    for pot, count in _grid():
        bandsolver.galerkin_edges(pot, count)
        records.append(pot._magnus["galerkin"])
    return records


def _recorded(pairs):
    """The split and all problems of _galerkin_grid, and the shifts that
    selfiso_distance evaluates on ``pairs``, read from the calls' records."""
    problems = [p["blocks"] for r in _galerkin_grid() for p in r.values()]  # 2 where split, else 1
    selfiso = [verify.selfiso_distance(*pair).record for pair in pairs]
    return {"galerkin_problems_split": problems.count(2), "galerkin_problems": len(problems),
            "selfiso_shifts_evaluated": sum(r["unreflected_shifts"] + r["reflected_shifts"]
                                            for r in selfiso)}


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


@contextlib.contextmanager
def _counting():
    """Within ``with``, sums the counts that every bandsolver.band_edges
    call keeps on its potential into the Counter it yields."""
    total, band_edges = Counter(), bandsolver.band_edges

    def counted(V, count):
        try:
            return band_edges(V, count)
        finally:
            total.update(V._magnus["counts"])

    bandsolver.band_edges = counted
    try:
        yield total
    finally:
        bandsolver.band_edges = band_edges


def _reported(prefix, counts):
    """A _counting total's products, steps x energies, half-period products
    and root rounds, named after ``prefix``."""
    return {prefix + "products": counts["products"],
            prefix + "steps_x_energies": counts["steps_x_energies"],
            prefix + "half_period_products": counts["half_period_products"],
            prefix + "root_rounds": counts["dirichlet_rounds"] + counts["crossing_rounds"]}


def _verify_round():
    """The verify suites of the release job, each timed alone, and
    verify_all_s: their sum plus the JSON rendering of their reports."""
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
    return times


def _code_lines(path):
    """Lines of the module at ``path`` that are not blank, comment-only or
    part of a module, class or function docstring."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(line.strip() != "" and not line.strip().startswith("#") and i not in docs
               for i, line in enumerate(text.splitlines(), 1))


def _tier1():
    """Wall time and last report line of the measured package's Tier-1
    suite, run once."""
    root = Path(verify.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=root, env=env, capture_output=True, text=True)
    return {"tier1_s": time.perf_counter() - start,
            "tier1_summary": done.stdout.strip().splitlines()[-1]}


def run(repeat=7, tier1=False):
    """The medians and quartiles over ``repeat`` interleaved rounds, the
    counts and, with ``tier1``, the Tier-1 suite's wall time, as a dict."""
    pot, scan, low = _warm_potential()
    pairs = _selfiso_pairs()
    timings = {
        "jacobi_points_per_s": lambda: JACOBI_X.size / _timed(lambda: jacobi(JACOBI_X, 0.9), 50),
        "trace_1_s": lambda: _timed(lambda: bandsolver.monodromy_trace(pot, low[3]), 50),
        "trace_8_s": lambda: _timed(lambda: bandsolver.monodromy_trace(pot, low), 50),
        "scan_257_energies_per_s": lambda: scan.size / _timed(
            lambda: bandsolver._monodromy(pot, scan, bandsolver.SCAN_TOL, rows=5), 10),
        "band_edges_s": lambda: _timed(_band_edges_grid, 1),
        "band_edges_uneven_s": lambda: _timed(
            lambda: bandsolver.band_edges(FUZZ["potential"](UNEVEN_TERMS), FUZZ["COUNT"]), 1),
        "galerkin_edges_s": lambda: _timed(_galerkin_grid, 1),
        "numeric_partner_s": lambda: _timed(_partners, 1),
        "selfiso_distance_s": lambda: _timed(
            lambda: [verify.selfiso_distance(*pair) for pair in pairs], 1),
        "calib_s": lambda: statistics.median(CALIB["sample"]() for _ in range(20)),
    }
    rounds = {}
    for _ in range(repeat):
        measured = {name: measure() for name, measure in timings.items()}
        with _counting() as release:  # the last round's count is kept
            measured |= _verify_round()
        for name, value in measured.items():
            rounds.setdefault(name, []).append(value)
    with _counting() as grid:
        _band_edges_grid()
    modules = sorted(Path(verify.__file__).parent.glob("*.py"))
    return {name: statistics.median(values) for name, values in rounds.items()} | {
        "quartiles": {name: np.percentile(values, [25, 75]).tolist()
                      for name, values in rounds.items()},
        **_reported("band_edges_", grid), **_reported("release_band_edges_", release),
        **_recorded(pairs), "repeat": repeat,
        "src_lines": sum(len(p.read_text().splitlines()) for p in modules),
        "src_code_lines": sum(_code_lines(p) for p in modules)} | (
        _tier1() if tier1 else {})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="interleaved rounds")
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 test suite")
    args = parser.parse_args()
    print(json.dumps(run(args.repeat, args.tier1)))
