"""Tests for the verification suites and the transform-group distance."""

import json
import math

import numpy as np
import pytest

from lamesusy import verify
from lamesusy.elliptic import complete_k
from lamesusy.errors import DomainError
from lamesusy.grid import GridFunction
from lamesusy.susy import Family, PotentialSpec

# Frozen by the 4096-shift brute-force scan (scripts/selfiso_scan.py) and
# golden refinement on 512-sample grids; regression anchors for the
# distinctness half of the dichotomy.
FROZEN_DISTANCES = {
    (2, 0.1): 1.576224658207e-02,
    (2, 0.5): 4.699416125638e-01,
    (2, 0.9): 1.706248814988e+00,
    (3, 0.1): 7.825039721364e-02,
    (3, 0.5): 1.967330310675e+00,
    (3, 0.9): 5.610146151474e+00,
}


def pair_grids(j, m, n=512):
    pm, pp = verify._partner_pair(j, m)
    return verify._grid_of(pp, n), verify._grid_of(pm, n)


class TestSelfIsoDistance:
    def test_identical_inputs_distance_zero(self):
        g = GridFunction.from_function(lambda x: np.sin(x) + 0.3 * np.cos(2 * x),
                                       2 * math.pi, 256)
        r = verify.selfiso_distance(g, g)
        assert r.distance == 0.0
        assert min(r.best_shift, g.period - r.best_shift) <= 1e-7

    def test_recovers_known_translation(self):
        # the shift refinement stops at |da| <= 1e-8, so the measured
        # distance bottoms out near slope * 1e-8 for off-grid shifts;
        # the cos(3x) term kills any mirror symmetry, making the
        # translation the unique optimal transform
        f = lambda x: (np.sin(x) + 0.25 * np.cos(2 * x)
                       - 0.1 * np.sin(3 * x) + 0.15 * np.cos(3 * x))
        a_true = 1.2345
        g1 = GridFunction.from_function(lambda x: f(x - a_true), 2 * math.pi, 256)
        g2 = GridFunction.from_function(f, 2 * math.pi, 256)
        r = verify.selfiso_distance(g1, g2)
        assert r.distance <= 5e-8
        assert not r.reflected
        assert r.best_shift == pytest.approx(a_true, abs=1e-6)

    def test_j1_self_isospectral_with_half_period_shift(self):
        vp, vm = pair_grids(1, 0.5)
        r = verify.selfiso_distance(vp, vm)
        assert r.distance <= 1e-8
        assert r.verdict == "self_isospectral"
        assert r.best_shift == pytest.approx(complete_k(0.5), abs=1e-6)

    @pytest.mark.parametrize("j,m", sorted(FROZEN_DISTANCES))
    def test_distinct_partner_regression(self, j, m):
        vp, vm = pair_grids(j, m)
        r = verify.selfiso_distance(vp, vm)
        assert r.verdict == "distinct"
        assert r.distance == pytest.approx(FROZEN_DISTANCES[j, m], abs=1e-6)
        # the dichotomy is far from tolerance-sensitive
        assert r.distance >= 100.0 * verify.TOL_SELF

    def test_grid_refinement_stability(self):
        d1 = verify.selfiso_distance(*pair_grids(2, 0.5, 512)).distance
        d2 = verify.selfiso_distance(*pair_grids(2, 0.5, 1024)).distance
        assert abs(d1 - d2) <= 1e-6

    def test_translation_invariance(self):
        # shifting both inputs by the same amount leaves the distance alone
        f = lambda x: np.sin(x) + 0.2 * np.cos(3 * x)
        g = lambda x: np.sin(x) * np.cos(x) + 0.4
        for t in (0.0, 0.77):
            gf = GridFunction.from_function(lambda x: f(x - t), 2 * math.pi, 256)
            gg = GridFunction.from_function(lambda x: g(x - t), 2 * math.pi, 256)
            if t == 0.0:
                base = verify.selfiso_distance(gf, gg).distance
            else:
                moved = verify.selfiso_distance(gf, gg).distance
                assert moved == pytest.approx(base, abs=1e-7)

    def test_symmetry_under_swap(self):
        f = lambda x: np.sin(x) + 0.2 * np.cos(2 * x)
        g = lambda x: 0.5 * np.cos(x) - 0.3 * np.sin(2 * x)
        gf = GridFunction.from_function(f, 2 * math.pi, 256)
        gg = GridFunction.from_function(g, 2 * math.pi, 256)
        d1 = verify.selfiso_distance(gf, gg).distance
        d2 = verify.selfiso_distance(gg, gf).distance
        assert d1 == pytest.approx(d2, abs=1e-7)

    def test_input_validation(self):
        g1 = GridFunction.from_function(np.sin, 2 * math.pi, 256)
        g2 = GridFunction.from_function(np.sin, 2 * math.pi, 128)
        with pytest.raises(DomainError):
            verify.selfiso_distance(g1, g2)
        g3 = GridFunction.from_function(np.sin, math.pi, 256)
        with pytest.raises(DomainError):
            verify.selfiso_distance(g1, g3)
        with pytest.raises(DomainError):
            verify.selfiso_distance(g1, g1, shift_samples=64)


class TestClaimReport:
    def test_invariant_enforced(self):
        with pytest.raises(DomainError):
            verify.ClaimReport("x", measured=2.0, tolerance=1.0, passed=True)

    def test_claim_factory(self):
        r = verify.claim("demo", 0.5, 1.0, j=2)
        assert r.passed and r.context == {"j": 2}
        r = verify.claim("demo", 2.0, 1.0)
        assert not r.passed

    def test_json_round_trip(self):
        reports = [verify.claim("a/b", 1e-9, 1e-6, j=1), verify.claim("c", 2.0, 1.0)]
        payload = json.loads(verify.reports_to_json(reports))
        assert payload[0]["claim_id"] == "a/b"
        assert payload[0]["passed"] is True
        assert payload[1]["passed"] is False

    def test_render_table(self):
        reports = [verify.claim("a", 0.0, 1.0)]
        text = verify.render_table(reports)
        assert "PASS" in text and "1/1 claims passed" in text
        colored = verify.render_table(reports, color=True)
        assert "\033[32m" in colored


class TestEdgeStateSuite:
    def test_all_pass_at_half(self):
        reports = verify.run_edge_state_suite(0.5)
        assert len(reports) >= 15
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    def test_all_pass_at_stiff_modulus(self):
        reports = verify.run_edge_state_suite(0.99)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    @pytest.mark.parametrize("m", [0.01, 0.02, 0.05])
    def test_all_pass_with_narrow_gap(self, m):
        # the upper j=2 gap is 7.5e-5 wide at m = 0.01: the Floquet route
        # must find it open, not report a coincident pair at its middle
        reports = verify.run_edge_state_suite(m)
        assert not any(r.context["degenerate_regime"] for r in reports)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    def test_degenerate_regime_flagged_and_passing(self):
        reports = verify.run_edge_state_suite(1e-9)
        assert all(r.context.get("degenerate_regime") for r in reports)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            verify.run_edge_state_suite(0.0)
        with pytest.raises(DomainError):
            verify.run_edge_state_suite(1.0)


class TestLimitSuite:
    def test_all_pass(self):
        reports = verify.run_limit_suite()
        assert len(reports) >= 3
        assert all(r.passed for r in reports)
        ids = [r.claim_id for r in reports]
        assert "limits/vminus_hyperbolic" in ids
        assert "limits/vplus_hyperbolic" in ids


class TestIsospectralitySuite:
    def test_closed_form_indices(self):
        reports = verify.run_isospectrality_suite(j_list=(1, 2, 3), m_list=(0.5,))
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]
        verdicts = {r.claim_id: r for r in reports}
        assert "iso/j=1/m=0.5/self_isospectral" in verdicts
        assert "iso/j=2/m=0.5/distinct_partner" in verdicts
        assert "iso/j=3/m=0.5/distinct_partner" in verdicts

    def test_selfiso_suite_verdicts(self):
        reports = verify.run_selfiso_suite(m_list=(0.5,))
        assert all(r.passed for r in reports)
        by_id = {r.claim_id: r for r in reports}
        assert by_id["selfiso/j=1/m=0.5/self_isospectral"].context["verdict"] == "self_isospectral"
        assert by_id["selfiso/j=2/m=0.5/distinct_partner"].context["verdict"] == "distinct"
        assert by_id["selfiso/j=3/m=0.5/distinct_partner"].context["verdict"] == "distinct"

    def test_deterministic_reports(self):
        a = verify.reports_to_json(verify.run_selfiso_suite(m_list=(0.3,)))
        b = verify.reports_to_json(verify.run_selfiso_suite(m_list=(0.3,)))
        assert a == b


class TestResidualHelper:
    def test_exact_eigenpair_gives_truncation_level_residual(self):
        spec = PotentialSpec(Family.V_MINUS, 2, 0.5)
        from lamesusy.susy import psi_minus

        res = verify.schrodinger_residual(
            spec, lambda x: psi_minus(2, 0, 0.5, x), 0.0, spec.period)
        assert res <= 1e-7

    def test_wrong_energy_detected(self):
        spec = PotentialSpec(Family.V_MINUS, 2, 0.5)
        from lamesusy.susy import psi_minus

        res = verify.schrodinger_residual(
            spec, lambda x: psi_minus(2, 0, 0.5, x), 0.01, spec.period)
        assert res > 1e-3
