"""Tests for the closed-form potentials, superpotentials and edge states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamesusy import bandsolver, susy
from lamesusy.elliptic import complete_k, jacobi
from lamesusy.errors import DomainError
from lamesusy.susy import (
    Family,
    PotentialSpec,
    band_edge_energies,
    psi_minus,
    psi_minus_prime,
    psi_plus,
    raw_lame,
    superpotential,
    v_minus,
    v_minus_check,
    v_plus_closed,
    v_plus_susy,
)

DELTA_HALF = math.sqrt(0.75)  # delta at m = 0.5

# raw energies of _lame's matrices in edge order, their 50-digit eigenvalues
# (mpmath.eig at mp.dps = 50) rounded once to float64: the smallest modulus
# of lame_sweep.py and the two cases where eig alone erred most (1.5e-13 and
# 5.2e-13 relative to max(1, |E|))
LAME_TABLE = {
    (3, 1e-6): (5.9999962499981246e-06, 1.0000024999995312, 1.0000084999995313, 4.000004,
                4.00000400000375, 9.000001500000469, 9.000001500000469),
    (8, 0.99): (7.959892318048071, 7.959892318048071, 22.884670223918654, 22.884670223918654,
                35.81942174698745, 35.81942174698893, 46.76410488699218, 46.764104888394584,
                55.7186126691174, 55.71861335599423, 62.682514826420565, 62.68267878218829,
                67.64630047276701, 67.66207257896876, 70.4687100626686, 70.82854610549848,
                71.65577279308006),
    (10, 0.999): (9.99499867989542, 9.99499867989542, 28.985495990182333, 28.985495990182333,
                  45.976993119575184, 45.976993119575184, 60.969489836063, 60.969489836063,
                  73.9629856892713, 73.9629856892713, 84.9574797033873, 84.95747970338745,
                  93.95296940113151, 93.95296940154269, 100.9494463742055, 100.94944697808164,
                  105.94668170521112, 105.94705310971541, 108.91808809616187, 108.97308749228559,
                  109.94537140491546),
}


def grid(m, n=512):
    return np.linspace(0.0, 2.0 * complete_k(m), n, endpoint=False)


ORACLE_M = [0.0, 1e-9, 0.01, 0.5, 0.9, 0.999]


def printed(m, x):
    """The paper's printed j = 1-3 formulas, independent of the Lamé route."""
    sn, cn, dn = jacobi(x, m)
    s2, c2, d2 = sn * sn, cn * cn, dn * dn
    delta, delta1 = math.sqrt(1 - m + m * m), math.sqrt(1 - m + 4 * m * m)
    vm = {1: 2 * m * s2 - m,
          2: -2 - 2 * m + 2 * delta + 6 * m * s2,
          3: -2 - 5 * m + 2 * delta1 + 12 * m * s2}
    p = 2 * m + delta1 + 11 - 15 * m * s2
    q = 2 * m + delta1 + 1 - 5 * m * s2
    w = {1: m * sn * cn / dn,
         2: 6 * m * sn * cn * dn / (1 + m + delta - 3 * m * s2),
         3: (m * sn * cn / dn) * p / q}
    vp = {1: 2 * m * c2 / d2 - m,  # V- translated by K
          2: -vm[2] + 72 * m * m * s2 * c2 * d2 / (1 + m + delta - 3 * m * s2) ** 2,
          3: -vm[3] + (2 * m * m * s2 * c2 / d2) * p * p / (q * q)}
    energies = (0, 2 * delta - 1 - m, 2 * delta - 1 + 2 * m, 2 * delta + 2 - m, 4 * delta)
    psi2 = (1 + m + delta - 3 * m * s2, cn * dn, sn * dn, sn * cn,
            3 * m / (1 + m + delta) - 3 * m * s2)
    psi3 = dn * (1 + 2 * m + delta1 - 5 * m * s2)
    return vm, w, vp, energies, psi2, psi3


class TestPrintedFormulas:
    """The Lamé route against the printed closed forms, down to m = 0."""

    @pytest.mark.parametrize("m", ORACLE_M)
    def test_potentials_and_superpotentials(self, m):
        x = np.linspace(0.0, 2.0 * complete_k(m), 257)
        vm, w, vp, _, _, _ = printed(m, x)
        for j in (1, 2, 3):
            assert np.max(np.abs(v_minus(j, m, x) - vm[j])) <= 1e-10
            assert np.max(np.abs(superpotential(j, m, x) - w[j])) <= 1e-10
            assert np.max(np.abs(v_plus_susy(j, m, x) - vp[j])) <= 1e-10
            if j > 1:
                assert np.max(np.abs(v_plus_closed(j, m, x) - vp[j])) <= 1e-10

    @pytest.mark.parametrize("m", ORACLE_M)
    def test_energies_and_states(self, m):
        x = np.linspace(0.0, 2.0 * complete_k(m), 257)
        _, _, _, energies, psi2, psi3 = printed(m, x)
        assert np.max(np.abs(np.subtract(band_edge_energies(2, m), energies))) <= 1e-10
        for n, want in enumerate(psi2):
            assert np.max(np.abs(psi_minus(2, n, m, x) - want)) <= 1e-10
        assert np.max(np.abs(psi_minus(3, 0, m, x) - psi3)) <= 1e-10

    @pytest.mark.parametrize("m", [1.0 - 1e-8, 1.0])
    def test_ground_state_wins_the_tie_near_m1(self, m):
        # the j=2 ground state and the cn dn edge tie to below an ulp here
        x = np.linspace(-12.0, 12.0, 2001)
        psi0 = psi_minus(2, 0, m, x)
        assert np.all(psi0 > 0.0)
        assert np.all(np.isfinite(superpotential(2, m, x)))
        assert band_edge_energies(2, m)[0] == 0.0


# every evaluator, at indices and edges it supports
EVALUATORS = {
    "raw_lame": lambda x: raw_lame(5, 0.5, x),
    "v_minus": lambda x: v_minus(3, 0.5, x),
    "superpotential": lambda x: superpotential(3, 0.5, x),
    "v_plus_closed": lambda x: v_plus_closed(2, 0.5, x),
    "v_plus_susy": lambda x: v_plus_susy(1, 0.5, x),
    "v_minus_check": lambda x: v_minus_check(3, 0.5, x),
    "psi_minus": lambda x: psi_minus(2, 3, 0.5, x),
    "psi_minus_prime": lambda x: psi_minus_prime(2, 1, 0.5, x),
    "psi_plus": lambda x: psi_plus(2, 0, 0.5, x),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluator_output_types(name):
    f = EVALUATORS[name]
    want = f(np.array([0.7]))[0]
    for x in (0.7, np.float64(0.7), np.array(0.7)):
        got = f(x)
        assert type(got) is float and got == want
    assert f(np.array([0.7, 1.1], dtype=np.longdouble)).dtype == np.longdouble


class TestPotentials:
    def test_raw_lame_values(self):
        assert raw_lame(2, 0.5, 0.0) == 0.0
        assert raw_lame(2, 0.5, complete_k(0.5)) == pytest.approx(3.0, rel=1e-12)
        assert raw_lame(1, 1.0, 40.0) == pytest.approx(2.0, rel=1e-10)
        for j in (1.5, 0, -1):
            with pytest.raises(DomainError, match="positive integer"):
                raw_lame(j, 0.5, 1.0)

    def test_v_minus_reference_values(self):
        assert v_minus(2, 0.5, 0.0) == pytest.approx(-3.0 + 2 * DELTA_HALF, rel=1e-12)
        assert v_minus(2, 0.5, 0.0) == pytest.approx(-1.2679491924311228, rel=1e-10)
        assert v_minus(2, 1.0, 0.0) == pytest.approx(-2.0, rel=1e-12)
        for x in (0.0, 0.4, 1.3):
            assert v_minus(3, 0.0, x) == pytest.approx(0.0, abs=1e-14)

    def test_w_and_v_plus_above_j3_point_to_pipeline(self):
        # V- stays: raw Lamé less its ground energy, for any j
        raw = PotentialSpec(Family.RAW_LAME, 4, 0.5)
        x = grid(0.5, 16)
        ground = bandsolver.ground_energy(raw.as_periodic_potential())
        assert np.max(np.abs(raw(x) - v_minus(4, 0.5, x) - ground)) <= 1e-10
        for f in (superpotential, v_plus_susy):
            with pytest.raises(DomainError, match="numeric_partner"):
                f(4, 0.5, 0.0)

    def test_v_plus_reference_values(self):
        assert v_plus_closed(2, 0.5, 0.0) == pytest.approx(1.2679491924311228, rel=1e-10)
        assert v_plus_closed(2, 1.0 - 1e-8, 0.0) == pytest.approx(2.0, abs=1e-4)
        with pytest.raises(DomainError):
            v_plus_closed(1, 0.5, 0.0)

    def test_hyperbolic_limits(self):
        m = 1.0 - 1e-8
        x = np.linspace(-3.0, 3.0, 301)
        sech2 = 1.0 / np.cosh(x) ** 2
        assert np.max(np.abs(v_minus(2, m, x) - (4 - 6 * sech2))) <= 1e-4
        assert np.max(np.abs(v_plus_closed(2, m, x) - (4 - 2 * sech2))) <= 1e-4

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_periodicity(self, j, m):
        x = grid(m, 128)
        L = 2.0 * complete_k(m)
        assert np.max(np.abs(v_minus(j, m, x + L) - v_minus(j, m, x))) <= 1e-10
        vp = v_plus_susy(j, m, x)
        assert np.max(np.abs(v_plus_susy(j, m, x + L) - vp)) <= 1e-10


class TestSuperpotential:
    def test_vanishes_at_origin(self):
        assert superpotential(2, 0.5, 0.0) == 0.0

    @given(st.floats(-5, 5), st.floats(0.05, 0.95))
    @settings(max_examples=120, deadline=None)
    def test_odd(self, x, m):
        assert superpotential(2, m, -x) == pytest.approx(-superpotential(2, m, x), abs=1e-12)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_is_log_derivative_of_ground_state(self, j):
        # W = -(log psi_0)' with the nodeless zero-energy state
        m, x, h = 0.5, 0.7, 1e-6
        if j == 1:
            psi0 = lambda t: jacobi(t, m).dn
        elif j == 2:
            psi0 = lambda t: psi_minus(2, 0, m, t)
        else:
            psi0 = lambda t: psi_minus(3, 0, m, t)
        fd = -(math.log(psi0(x + h)) - math.log(psi0(x - h))) / (2 * h)
        assert superpotential(j, m, x) == pytest.approx(fd, abs=1e-8)

    def test_zero_at_m0(self):
        x = np.linspace(0, 3, 50)
        for j in (1, 2, 3):
            assert np.max(np.abs(superpotential(j, 0.0, x))) == 0.0


class TestPartnerIdentities:
    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_factorization_matches_closed_forms(self, j, m):
        x = grid(m)
        assert np.max(np.abs(v_plus_susy(j, m, x) - v_plus_closed(j, m, x))) <= 1e-9
        assert np.max(np.abs(v_minus_check(j, m, x) - v_minus(j, m, x))) <= 1e-9

    def test_j1_partner_is_translate(self):
        m = 0.5
        K = complete_k(m)
        assert v_plus_susy(1, m, 0.4) == pytest.approx(v_minus(1, m, 0.4 + K), abs=1e-9)
        x = grid(m, 256)
        assert np.max(np.abs(v_plus_susy(1, m, x) - v_minus(1, m, x - K))) <= 1e-9

    def test_j1_check_at_m0(self):
        assert v_minus_check(1, 0.0, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_m0_partner_vanishes(self):
        x = grid(0.0, 128)
        assert np.max(np.abs(v_plus_susy(2, 0.0, x))) <= 1e-12


class TestBandEdges:
    def test_j2_energy_formulas(self):
        d = DELTA_HALF
        want = (0.0, 2 * d - 1.5, 2 * d, 2 * d + 1.5, 4 * d)
        got = band_edge_energies(2, 0.5)
        assert got == pytest.approx(want, rel=1e-14)
        assert got[1] == pytest.approx(0.2320508075688772, rel=1e-10)
        assert got[3] == pytest.approx(3.2320508075688772, rel=1e-10)

    def test_j2_degenerate_endpoints(self):
        assert band_edge_energies(2, 1.0) == pytest.approx((0, 0, 3, 3, 4), abs=1e-12)
        assert band_edge_energies(2, 0.0) == pytest.approx((0, 1, 1, 4, 4), abs=1e-12)

    def test_energies_nondecreasing(self):
        for j in (1, 2):
            for m in (0.0, 0.3, 0.7, 1.0):
                e = band_edge_energies(j, m)
                assert all(b >= a - 1e-12 for a, b in zip(e, e[1:]))

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_j1_edges_against_band_solver(self, m):
        # the j=1 closed list {0, 1-m, 1} is validated against the blind solver
        pot = PotentialSpec(Family.V_MINUS, 1, m).as_periodic_potential()
        solved = bandsolver.band_edges(pot, 3)
        for want, got in zip(band_edge_energies(1, m), solved):
            assert got.energy == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("m", [0.01, 0.5, 0.99])
    def test_j3_edges_memoized_and_consistent(self, m):
        e = band_edge_energies(3, m)
        assert len(e) == 7
        assert e[0] == pytest.approx(0.0, abs=1e-8)
        assert all(b >= a for a, b in zip(e, e[1:]))
        # second call comes from the cache and is identical
        assert band_edge_energies(3, m) == e
        pot = PotentialSpec(Family.V_MINUS, 3, m).as_periodic_potential()
        gal = bandsolver.galerkin_edges(pot, 7)
        for want, got in zip(e, gal):
            assert got.energy == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("j, m", sorted(LAME_TABLE))
    def test_lame_energies_against_high_precision(self, j, m):
        # eig's energies refined by Newton on the continuant in longdouble
        got = [e for e, _, _ in susy._lame(j, m)]
        assert max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, LAME_TABLE[j, m])) <= 1e-15

    def test_boundary_pattern(self):
        assert [bandsolver.expected_boundary(n) for n in range(7)] == [
            "periodic", "antiperiodic", "antiperiodic",
            "periodic", "periodic", "antiperiodic", "antiperiodic",
        ]


class TestEigenfunctions:
    def test_psi_minus_reference_values(self):
        assert psi_minus(2, 0, 0.5, 0.0) == pytest.approx(1.5 + DELTA_HALF, rel=1e-12)
        assert psi_minus(2, 0, 0.5, 0.0) == pytest.approx(2.3660254037844386, rel=1e-10)
        assert psi_minus(2, 1, 0.5, complete_k(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert psi_minus(2, 4, 0.5, 0.0) == pytest.approx(0.6339745962155614, rel=1e-10)

    def test_psi_minus_domain(self):
        with pytest.raises(DomainError, match="only the j=3 ground state"):
            psi_minus(3, 1, 0.5, 0.0)
        with pytest.raises(DomainError):
            psi_minus(2, 5, 0.5, 0.0)
        with pytest.raises(DomainError):
            psi_minus(1, 0, 0.5, 0.0)
        # an index is an integer: 4.0 reaches no table of states
        for f in (psi_minus, psi_minus_prime, psi_plus):
            with pytest.raises(DomainError, match="band-edge index n"):
                f(2, 4.0, 0.5, 0.3)

    def test_psi_plus_reference_values(self):
        assert psi_plus(2, 0, 0.5, 0.0) == pytest.approx(1 / (1.5 + DELTA_HALF), rel=1e-12)
        assert psi_plus(2, 0, 0.5, 0.0) == pytest.approx(0.4226497308103742, rel=1e-10)
        assert psi_plus(2, 4, 0.5, 0.0) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(DomainError):
            psi_plus(3, 0, 0.5, 0.0)

    def test_partner_ground_state_is_reciprocal(self):
        x = grid(0.5, 128)
        prod = psi_plus(2, 0, 0.5, x) * psi_minus(2, 0, 0.5, x)
        assert np.max(np.abs(prod - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_intertwining_ratio_constant(self, n):
        m = 0.5
        x = grid(m, 64)
        w = superpotential(2, m, x)
        mapped = psi_minus_prime(2, n, m, x) + w * psi_minus(2, n, m, x)
        target = psi_plus(2, n, m, x)
        mask = np.abs(target) >= 0.05 * np.max(np.abs(target))
        r = mapped[mask] / target[mask]
        assert (r.max() - r.min()) / abs(np.median(r)) <= 1e-8

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_psi_minus_prime_matches_finite_differences(self, n):
        m, h = 0.7, 1e-6
        for x in (0.2, 0.9, 1.7):
            fd = (psi_minus(2, n, m, x + h) - psi_minus(2, n, m, x - h)) / (2 * h)
            assert psi_minus_prime(2, n, m, x) == pytest.approx(fd, abs=1e-7)
        fd3 = (psi_minus(3, 0, m, 0.9 + h) - psi_minus(3, 0, m, 0.9 - h)) / (2 * h)
        assert psi_minus_prime(3, 0, m, 0.9) == pytest.approx(fd3, abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_parity_period_tags(self, n):
        m = 0.5
        L = 2 * complete_k(m)
        x = grid(m, 64)
        sign = 1.0 if bandsolver.expected_boundary(n) == "periodic" else -1.0
        for psi in (lambda t: psi_minus(2, n, m, t), lambda t: psi_plus(2, n, m, t)):
            assert np.max(np.abs(psi(x + L) - sign * psi(x))) <= 1e-9
            dens = np.abs(psi(x)) ** 2
            assert np.max(np.abs(np.abs(psi(x + L)) ** 2 - dens)) <= 1e-9



class TestPotentialSpec:
    def test_dispatch(self):
        x = 0.73
        assert PotentialSpec(Family.V_MINUS, 2, 0.5)(x) == v_minus(2, 0.5, x)
        assert PotentialSpec(Family.V_PLUS, 2, 0.5)(x) == v_plus_closed(2, 0.5, x)
        assert PotentialSpec(Family.V_PLUS, 1, 0.5)(x) == v_plus_susy(1, 0.5, x)
        assert PotentialSpec(Family.SUPERPOTENTIAL, 3, 0.5)(x) == superpotential(3, 0.5, x)
        assert PotentialSpec(Family.RAW_LAME, 7, 0.5)(x) == raw_lame(7, 0.5, x)

    def test_validation(self):
        for family in (Family.SUPERPOTENTIAL, Family.V_PLUS):
            with pytest.raises(DomainError):
                PotentialSpec(family, 4, 0.5)
        for family in Family:
            for j in (1.5, 0, -1):
                with pytest.raises(DomainError):
                    PotentialSpec(family, j, 0.5)
        PotentialSpec(Family.V_MINUS, np.int64(10), 0.5)
        with pytest.raises(DomainError):
            PotentialSpec(Family.V_MINUS, 2, 1.5)

    def test_period_and_periodic_potential(self):
        spec = PotentialSpec(Family.V_MINUS, 2, 0.5)
        assert spec.period == pytest.approx(2 * complete_k(0.5))
        pp = spec.as_periodic_potential()
        assert pp.period == spec.period
