"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS line on success (pytest -s shows them; a
failure prints nothing and fails loudly).  Timing limits are asserted,
not just measured.
"""

import hashlib
import json
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from conftest import FROZEN_DISTANCES
from lamesusy import bandsolver, cli, verify
from lamesusy.elliptic import complete_k, jacobi
from lamesusy.susy import (
    Family,
    PotentialSpec,
    band_edge_energies,
    psi_minus,
    psi_plus,
    v_minus,
    v_minus_check,
    v_plus_closed,
    v_plus_susy,
)

M_LIST = (0.1, 0.5, 0.9)


def announce(number, label):
    print(f"\nACCEPTANCE {number} ({label}): PASS")


def pot(family, j, m):
    return PotentialSpec(family, j, m).as_periodic_potential()


def test_criterion_1_closed_form_edge_energies():
    for m in M_LIST:
        start = time.perf_counter()
        edges = bandsolver.band_edges(pot(Family.V_MINUS, 2, m), 5)
        elapsed = time.perf_counter() - start
        for got, want in zip(edges, band_edge_energies(2, m)):
            assert abs(got.energy - want) <= 1e-6, (m, got.n)
        assert elapsed <= 10.0, f"band_edges took {elapsed:.1f}s at m={m}"
    announce(1, "closed-form edge energies recovered blind")


def test_criterion_2_eigenfunction_residuals():
    assert (verify.RESIDUAL_N, verify.RESIDUAL_H) == (1024, 1e-4)
    for m in M_LIST:
        L = 2.0 * complete_k(m)
        energies = band_edge_energies(2, m)
        for n in range(5):
            res_minus = verify.schrodinger_residual(
                lambda x: v_minus(2, m, x),
                lambda x, _n=n: psi_minus(2, _n, m, x),
                energies[n], L)
            assert res_minus <= 1e-7, (m, n, "minus", res_minus)
            res_plus = verify.schrodinger_residual(
                lambda x: v_plus_closed(2, m, x),
                lambda x, _n=n: psi_plus(2, _n, m, x),
                energies[n], L)
            assert res_plus <= 1e-7, (m, n, "plus", res_plus)
    announce(2, "Schrodinger residuals of all edge states")


def test_criterion_3_partner_identity():
    for j in (2, 3):
        for m in M_LIST:
            x = np.linspace(0.0, 2.0 * complete_k(m), 512, endpoint=False)
            plus_gap = np.max(np.abs(v_plus_susy(j, m, x) - v_plus_closed(j, m, x)))
            minus_gap = np.max(np.abs(v_minus_check(j, m, x) - v_minus(j, m, x)))
            assert plus_gap <= 1e-9, (j, m, plus_gap)
            assert minus_gap <= 1e-9, (j, m, minus_gap)
    announce(3, "factorization identities W^2 +- W'")


def test_criterion_4_isospectral_partners():
    for j, count in ((2, 5), (3, 7)):
        for m in M_LIST:
            pm, pp = pot(Family.V_MINUS, j, m), pot(Family.V_PLUS, j, m)
            em = bandsolver.band_edges(pm, count)
            ep = bandsolver.band_edges(pp, count)
            gm = bandsolver.galerkin_edges(pm, count)
            gp = bandsolver.galerkin_edges(pp, count)
            assert len(em) == len(ep) == count
            assert max(abs(a.energy - b.energy) for a, b in zip(em, ep)) <= 1e-6
            assert max(abs(a.energy - b.energy) for a, b in zip(em, gm)) <= 1e-6
            assert max(abs(a.energy - b.energy) for a, b in zip(ep, gp)) <= 1e-6
            for i, e in enumerate(em):
                assert e.boundary == bandsolver.expected_boundary(i)
    announce(4, "partner pairs share all band edges; solvers agree")


def test_criterion_5_self_isospectrality_dichotomy():
    for m in M_LIST:
        pm, pp = verify.partner_pair(1, m)
        r = verify.selfiso_distance(verify._grid_of(pp), verify._grid_of(pm))
        assert r.distance <= 1e-6, (1, m, r.distance)
        assert abs(r.best_shift - complete_k(m)) <= 1e-4, (m, r.best_shift)
    for j in (2, 3):
        for m in M_LIST:
            pm, pp = verify.partner_pair(j, m)
            r = verify.selfiso_distance(verify._grid_of(pp), verify._grid_of(pm))
            assert r.distance > 1e-4, (j, m, r.distance)
            assert r.distance == pytest.approx(FROZEN_DISTANCES[j, m], abs=1e-6)
    announce(5, "j=1 self-isospectral at half period; j>=2 distinct")


def test_criterion_6_hyperbolic_limit():
    m = 1.0 - 1e-8
    x = np.linspace(-3.0, 3.0, 601)
    sech2 = 1.0 / np.cosh(x) ** 2
    assert np.max(np.abs(v_minus(2, m, x) - (4.0 - 6.0 * sech2))) <= 1e-4
    assert np.max(np.abs(v_plus_closed(2, m, x) - (4.0 - 2.0 * sech2))) <= 1e-4
    announce(6, "m -> 1 hyperbolic limits of both partners")


def test_criterion_7_higher_j_pipeline():
    assert bandsolver.PARTNER_N == 512
    for j in (2, 3):
        pm = pot(Family.V_MINUS, j, 0.5)
        partner = bandsolver.numeric_partner(pm)
        x = np.linspace(0.0, pm.period, 600, endpoint=False)
        gap = np.max(np.abs(partner(x) - v_plus_closed(j, 0.5, x)))
        assert gap <= 1e-6, (j, gap)
    for j in (4, 5):
        start = time.perf_counter()
        pm, pp = verify.partner_pair(j, 0.5)
        em = bandsolver.band_edges(pm, 2 * j + 1)
        ep = bandsolver.band_edges(pp, 2 * j + 1)
        elapsed = time.perf_counter() - start
        assert len(em) == len(ep) == 2 * j + 1
        assert max(abs(a.energy - b.energy) for a, b in zip(em, ep)) <= 1e-5
        assert elapsed <= 60.0, f"j={j} pipeline took {elapsed:.1f}s"
    announce(7, "numeric pipeline validated on j=2,3 and extended to j=4,5")


def test_criterion_8_property_suites_and_full_verify():
    rng = np.random.default_rng(1234)
    xs = rng.uniform(-30.0, 30.0, 10_000)
    ms = rng.uniform(0.0, 1.0, 10_000)
    for x, m in zip(xs, ms):
        sn, cn, dn = jacobi(x, m)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12

    for j, count, m in ((1, 3, 0.5), (2, 5, 0.1), (3, 7, 0.9)):
        edges = bandsolver.band_edges(pot(Family.V_MINUS, j, m), count)
        assert [e.boundary for e in edges] == [
            bandsolver.expected_boundary(i) for i in range(count)
        ]

    start = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, "-m", "lamesusy", "verify", "--scope", "all"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert cp.returncode == 0, cp.stdout[-2000:] + cp.stderr[-2000:]
    assert elapsed <= 300.0, f"full verification took {elapsed:.0f}s"
    announce(8, "property suites and full verification run")


@pytest.fixture(scope="module")
def release_reports(tmp_path_factory):
    """The release job's reports, from one in-process verify --scope all."""
    out = tmp_path_factory.mktemp("release") / "verify.json"
    assert cli.main(["verify", "--scope", "all", "--format", "json", "-o", str(out)]) == 0
    return json.loads(out.read_text())


def test_release_job_claim_ids_are_pinned(release_reports):
    # the release job's 159 claims by id, in output order, all passing: a
    # suite that drops, renames or reorders a claim changes the digest
    reports = release_reports
    ids = [r["claim_id"] for r in reports]
    assert len(set(ids)) == len(ids) == 159
    assert Counter(i.split("/")[0] for i in ids) == {
        "edgestates": 60, "limits": 9, "iso": 78, "selfiso": 12}
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == (
        "7f1a9e636ad8d3bfa687da2fe392a88cb4a435f3b56d3e64a3ac5506081534e3")
    assert all(r["passed"] for r in reports)


# Engine accuracy per kind of release claim, far inside the claims' own
# tolerances (1e-6): the largest value today, then the margin to the bound.
# A sampled V off by 1e-7, closed-form energies off by 1e-8 or a numeric V+
# off by 1e-7 max|V| pass every claim but exceed these bounds 1000-fold or more.
RELEASE_MARGINS = {
    "energy": 1e-12,                # 5.95e-14, 17x
    "solvers_agree_minus": 1e-11,   # 4.1e-13, 24x
    "solvers_agree_plus": 1e-10,    # 5.9e-12, 17x
    "edges_match j<=3": 1e-10,      # 6.0e-12, 17x
    "edges_match j>3": 1e-9,        # 1.7e-11, 59x
    "self_isospectral": 1e-12,      # 3.2e-15, 310x
}


def test_release_job_margins(release_reports):
    # every claim of these kinds holds to engine accuracy, not only to its
    # tolerance
    worst = dict.fromkeys(RELEASE_MARGINS, -1.0)
    for r in release_reports:
        kind = r["claim_id"].split("/")[-1]
        if kind == "edges_match":
            kind += " j<=3" if r["context"]["j"] <= 3 else " j>3"
        if kind in worst:
            worst[kind] = max(worst[kind], r["measured"])
    assert all(value >= 0.0 for value in worst.values()), worst
    assert {k: v for k, v in worst.items() if v > RELEASE_MARGINS[k]} == {}
