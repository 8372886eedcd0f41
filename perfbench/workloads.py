"""Seeded inputs, ops and reference checks of the benchmark's workloads.

Every op calls lamesusy through public names only, looked up on the
module at call time so that a tracer installed on those names sees them.

partners  one op is the numeric SUSY pipeline for one (j, m): ground
          energy, partner, Galerkin edges of both partners and the
          transform-group distance.  A pass visits every cell of
          PARTNERS_CELLS once, in seeded order, with seeded m.  The cells
          hold only inputs the pipeline gets right, so every run of every
          seed counts the same failures (none); the known defect of the
          fixed Galerkin basis is measured on KNOWN_DEFECTS instead, on
          fixed inputs and outside the timed region.
gate      one op is one ``verify.run_*`` suite call for one modulus (and
          one j), rendered as the CLI renders it.  The full op list is the
          release job ``lamesusy verify --scope all``; a timed pass is its
          slice at the last default modulus plus the modulus-free limits
          suite, the cheapest of the three slices and the one that fits a
          run.  Nothing here depends on the seed.
"""

from __future__ import annotations

import json
import random

import numpy as np

STRATA = {
    "narrow": (0.005, 0.02),   # nearly closed gaps
    "generic": (0.05, 0.75),
    "stiff": (0.98, 0.995),    # near the hyperbolic limit
}

# The fixed Galerkin basis (basis_n = 64) fails the isospectrality check
# for j >= 6 near m = 0.99, for j = 5 above m ~ 0.993 and for j >= 8 above
# m ~ 0.84.  On these cells a sweep of 432 inputs (36 generic and 8 narrow
# m for each j, 12 stiff m for each stiff j) found a defect of at most
# 3.7e-7 with BLAS on one thread, as the benchmark runs it (1.0e-6 with
# threaded BLAS).
PARTNERS_CELLS = (tuple((j, s) for j in range(2, 11) for s in ("narrow", "generic"))
                  + tuple((j, "stiff") for j in range(2, 5)))

# fixed inputs on which that defect shows (each defect is at least 1.4e-5
# with BLAS on one thread); checked untimed in every run
KNOWN_DEFECTS = (({"j": 5, "m": 0.995}, {"j": 6, "m": 0.995})
                 + tuple({"j": j, "m": 0.99} for j in range(7, 11))
                 + ({"j": 8, "m": 0.95}, {"j": 10, "m": 0.95}))

EDGE_TOL = 1e-6       # acceptance tolerance for band-edge energies
ISO_TOL = 1e-5        # isospectrality defect allowed between partners
PARTNER_TOL = 1e-6    # numeric partner against the closed-form V+
GRID_N = 512          # samples handed to selfiso_distance, as verify does
WORKLOADS = ("partners", "gate")


def _draw(rng: random.Random, stratum: str) -> float:
    lo, hi = STRATA[stratum]
    return rng.uniform(lo, hi)


def generate_pass(workload: str, rng: random.Random, m_list) -> list:
    """Inputs of one pass; ``rng`` carries the seed across passes."""
    if workload == "partners":
        cells = list(PARTNERS_CELLS)
        rng.shuffle(cells)
        return [{"j": j, "stratum": s, "m": _draw(rng, s)} for j, s in cells]
    if workload == "gate":
        last = m_list[-1]
        return [op for op in gate_ops(m_list) if op.get("m", last) == last]
    raise ValueError(f"unknown workload {workload!r}")


def gate_ops(m_list) -> list:
    """The release job, one op per suite call, in the CLI's claim order."""
    ops = [{"suite": "edgestates", "m": m} for m in m_list]
    ops.append({"suite": "limits"})
    ops += [{"suite": "iso", "j": j, "m": m} for j in range(1, 6) for m in m_list]
    ops += [{"suite": "selfiso", "j": j, "m": m} for j in range(1, 4) for m in m_list]
    return ops


def gate_key(op: dict) -> str:
    parts = [op["suite"]]
    if "j" in op:
        parts.append(f"j={op['j']}")
    if "m" in op:
        parts.append(f"m={op['m']:g}")
    return "/".join(parts)


# ---------------------------------------------------------------------------
# ops (timed)
# ---------------------------------------------------------------------------

def _pipeline_minus(L, j, m):
    """V- for any j: the bare potential shifted to zero ground energy."""
    raw = L.susy.PotentialSpec(L.susy.Family.RAW_LAME, j, m).as_periodic_potential()
    ground = L.bandsolver.ground_energy(raw)
    return L.bandsolver.PeriodicPotential(
        period=raw.period, evaluator=lambda x: L.susy.raw_lame(j, m, x) - ground)


def run_op(L, workload: str, op: dict):
    if workload == "partners":
        j, m = op["j"], op["m"]
        pot_minus = _pipeline_minus(L, j, m)
        pot_plus = L.bandsolver.numeric_partner(pot_minus)
        gal_minus = L.bandsolver.galerkin_edges(pot_minus, 2 * j + 1)
        gal_plus = L.bandsolver.galerkin_edges(pot_plus, 2 * j + 1)
        dist = L.verify.selfiso_distance(
            L.GridFunction(pot_plus.period, pot_plus.sample(GRID_N)),
            L.GridFunction(pot_minus.period, pot_minus.sample(GRID_N)))
        return pot_plus, gal_minus, gal_plus, dist
    suite = op["suite"]
    if suite == "edgestates":
        reports = L.verify.run_edge_state_suite(op["m"])
    elif suite == "limits":
        reports = L.verify.run_limit_suite()
    elif suite == "iso":
        reports = L.verify.run_isospectrality_suite(j_list=(op["j"],), m_list=(op["m"],))
    else:
        reports = L.verify.run_selfiso_suite(m_list=(op["m"],), j_list=(op["j"],))
    return L.verify.reports_to_json(reports)


# ---------------------------------------------------------------------------
# checks (untimed), each against a reference outside the engine under test
# ---------------------------------------------------------------------------

def iso_defect(out) -> float:
    """Largest band-edge gap between the two partners of a partners op."""
    _, gal_minus, gal_plus, _ = out
    return max(abs(a.energy - b.energy) for a, b in zip(gal_minus, gal_plus))


def check(L, workload: str, op: dict, out) -> tuple:
    """(ok, reason, claims); claims is the gate op's [[id, passed], ...]."""
    if workload == "partners":
        j, m = op["j"], op["m"]
        pot_plus = out[0]
        defect = iso_defect(out)
        if not defect <= ISO_TOL:
            return False, f"isospectrality defect {defect:.3g} > {ISO_TOL:g}", None
        if j <= 3:
            # off-grid points also test the partner's interpolant
            xs = (np.arange(GRID_N) + 0.5) * (pot_plus.period / GRID_N)
            dev = float(np.max(np.abs(pot_plus(xs) - L.susy.v_plus_closed(j, m, xs))))
            if not dev <= PARTNER_TOL:
                return False, f"partner off v_plus_closed by {dev:.3g} > {PARTNER_TOL:g}", None
        return True, "", None
    claims = [[c["claim_id"], c["passed"]] for c in json.loads(out)]
    failed = [cid for cid, passed in claims if not passed]
    if failed:
        return False, "failed claims: " + ", ".join(failed), claims
    return True, "", claims
