"""Tests for the elliptic-function core.

Oracles used here are independent of the implementation path: a
plain AGM loop for K, Gauss-Legendre quadrature plus bisection for
inverting the incomplete integral that defines the amplitude, and
central finite differences for the derivative triple.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamesusy.elliptic import _agm_chain, complete_k, jacobi
from lamesusy.errors import DomainError


def agm_oracle_k(m):
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def quadrature_oracle_sn(x, m, nodes=96):
    """Invert x = integral_0^phi dt / sqrt(1 - m sin^2 t); sn = sin(phi).

    Valid for 0 <= x <= K(m).
    """
    t, w = np.polynomial.legendre.leggauss(nodes)

    def incomplete(phi):
        u = 0.5 * phi * (t + 1.0)
        return 0.5 * phi * float(w @ (1.0 / np.sqrt(1.0 - m * np.sin(u) ** 2)))

    lo, hi = 0.0, math.pi / 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if incomplete(mid) < x:
            lo = mid
        else:
            hi = mid
    return math.sin(0.5 * (lo + hi))


class TestCompleteK:
    def test_k_at_zero_is_half_pi(self):
        assert complete_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_k_half_matches_agm_oracle(self):
        assert complete_k(0.5) == pytest.approx(agm_oracle_k(0.5), rel=1e-14)
        assert complete_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-14)

    def test_k_near_one_is_finite_and_large(self):
        k = complete_k(0.999999)
        assert k > 7.0
        assert math.isfinite(k)
        assert k == pytest.approx(agm_oracle_k(0.999999), rel=1e-13)

    def test_k_monotone_in_m(self):
        ms = np.linspace(0.0, 0.999, 40)
        ks = [complete_k(m) for m in ms]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_k_is_the_quarter_period_jacobi_reduces_by(self):
        # one AGM chain for both: bit for bit on seeded m in (0, 1)
        for m in np.random.default_rng(7).uniform(0.0, 1.0, 2000):
            assert complete_k(m) == math.pi / (2 * _agm_chain(m, np.float64)[0][-1]), m

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            complete_k(bad)


class TestJacobi:
    def test_origin(self):
        sn, cn, dn = jacobi(0.0, 0.7)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)

    def test_trigonometric_degeneration(self):
        sn, cn, dn = jacobi(1.2, 0.0)
        assert sn == pytest.approx(math.sin(1.2), abs=1e-15)
        assert cn == pytest.approx(math.cos(1.2), abs=1e-15)
        assert dn == 1.0

    def test_quarter_period(self):
        k = complete_k(0.5)
        sn, cn, dn = jacobi(k, 0.5)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sn_between_tanh_and_sin(self):
        # sn is decreasing in m at fixed x in (0, K)
        sn = jacobi(0.5, 0.5).sn
        assert math.tanh(0.5) < sn < math.sin(0.5)

    @pytest.mark.parametrize("x,m", [(0.3, 0.2), (0.7, 0.5), (1.1, 0.8), (0.9, 0.95)])
    def test_against_quadrature_oracle(self, x, m):
        assert x < complete_k(m)
        assert jacobi(x, m).sn == pytest.approx(quadrature_oracle_sn(x, m), abs=1e-11)

    def test_hyperbolic_special_case(self):
        sn, cn, dn = jacobi(1.5, 1.0)
        assert sn == pytest.approx(math.tanh(1.5), rel=1e-15)
        assert cn == pytest.approx(1 / math.cosh(1.5), rel=1e-15)
        assert dn == cn

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(DomainError):
            jacobi(math.inf, 0.5)
        with pytest.raises(DomainError):
            jacobi(np.array([0.0, math.nan]), 0.5)

    @pytest.mark.parametrize("x", [1 + 2j, np.array([0.5, 1j]), "1.0", np.array(["1.0"])])
    def test_argument_that_is_not_real_rejected(self, x):
        # neither cast to its real part nor parsed from a string
        with pytest.raises(DomainError, match="argument x must be real"):
            jacobi(x, 0.5)

    @pytest.mark.parametrize("dt", [np.float64, np.longdouble])
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.9])
    def test_argument_past_float_resolution_rejected(self, dt, m):
        # the bound is |x| eps >= 4K: one float step of x spans a period
        period = 4 * (dt(math.pi) / (2 * _agm_chain(m, dt)[0][-1]))
        edge = period / np.finfo(dt).eps
        sn, cn, dn = jacobi(np.array([-0.99 * edge, 0.0], dtype=dt), m)
        assert sn.dtype == dt and np.all(np.abs(sn) <= 1) and np.all(dn > 0)
        for x in (1.01 * edge, -1.01 * edge):
            with pytest.raises(DomainError, match="spans the period"):
                jacobi(np.array([0.0, x], dtype=dt), m)

    def test_huge_scalar_argument_rejected_but_not_at_m1(self):
        with pytest.raises(DomainError, match="spans the period"):
            jacobi(1e300, 0.5)
        # sn = tanh has no period at m = 1, and cn = dn = 1/cosh falls to 0
        # without an overflow on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (800.0, 1e300):
                assert jacobi(x, 1.0) == (1.0, 0.0, 0.0)
                assert jacobi(-x, 1.0) == (-1.0, 0.0, 0.0)

    def test_bad_modulus_rejected(self):
        with pytest.raises(DomainError):
            jacobi(0.3, -0.2)
        with pytest.raises(DomainError):
            jacobi(0.3, 1.0001)

    def test_array_input_and_dtype_preserved(self):
        x = np.linspace(-3, 3, 17)
        sn, cn, dn = jacobi(x, 0.4)
        assert sn.shape == x.shape
        xl = x.astype(np.longdouble)
        snl, _, _ = jacobi(xl, 0.4)
        assert snl.dtype == np.longdouble
        assert np.max(np.abs(snl.astype(float) - sn)) < 1e-14


class TestIdentities:
    def test_identities_on_random_cloud(self):
        rng = np.random.default_rng(20240817)
        x = rng.uniform(-30.0, 30.0, 10_000)
        m = rng.uniform(0.0, 1.0, 10_000)
        worst1 = worst2 = 0.0
        for xi, mi in zip(x, m):
            sn, cn, dn = jacobi(xi, mi)
            worst1 = max(worst1, abs(sn * sn + cn * cn - 1.0))
            worst2 = max(worst2, abs(dn * dn + mi * sn * sn - 1.0))
        assert worst1 <= 1e-12
        assert worst2 <= 1e-12

    @given(st.floats(-30, 30), st.floats(0, 1))
    @settings(max_examples=250, deadline=None)
    def test_identities_property(self, x, m):
        sn, cn, dn = jacobi(x, m)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12
        assert abs(sn) <= 1.0 + 1e-12 and abs(cn) <= 1.0 + 1e-12
        assert math.sqrt(1.0 - m) - 1e-12 <= dn <= 1.0 + 1e-12

    @given(st.floats(-20, 20), st.floats(0, 1))
    @settings(max_examples=250, deadline=None)
    def test_parity(self, x, m):
        p, q = jacobi(x, m), jacobi(-x, m)
        assert p.sn == pytest.approx(-q.sn, abs=1e-12)
        assert p.cn == pytest.approx(q.cn, abs=1e-12)
        assert p.dn == pytest.approx(q.dn, abs=1e-12)

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_periodicity(self, m):
        k = complete_k(m)
        x = np.linspace(-10.0, 10.0, 401)
        a, b = jacobi(x, m), jacobi(x + 4 * k, m)
        assert np.max(np.abs(a.sn - b.sn)) <= 1e-10
        assert np.max(np.abs(a.cn - b.cn)) <= 1e-10
        d1, d2 = jacobi(x, m).dn, jacobi(x + 2 * k, m).dn
        assert np.max(np.abs(d1 - d2)) <= 1e-10

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_longdouble_periodicity_past_one_period(self, m):
        # the reduction modulo 4K carries pi in x's dtype, not float64's pi
        a = _agm_chain(m, np.longdouble)[0][-1]
        k = np.arccos(np.longdouble(-1.0)) / (2 * a)
        x = np.linspace(-2.0, 2.0, 65, dtype=np.longdouble)
        base = jacobi(x, m)
        for turns in (1, 3, 10):
            moved = jacobi(x + 4 * turns * k, m)
            gap = max(float(np.max(np.abs(p - q))) for p, q in zip(base, moved))
            assert gap <= 1e-16, (turns, gap)

    def test_degeneration_limits(self):
        x = np.linspace(-5.0, 5.0, 701)
        assert np.max(np.abs(jacobi(x, 1e-12).sn - np.sin(x))) <= 1e-9
        assert np.max(np.abs(jacobi(x, 1.0 - 1e-12).sn - np.tanh(x))) <= 1e-6


def jacobi_derivatives(x, m):
    """(sn', cn', dn') = (cn dn, -sn dn, -m sn cn), from jacobi's values."""
    sn, cn, dn = jacobi(x, m)
    return cn * dn, -sn * dn, -m * sn * cn


class TestDerivatives:
    """jacobi's values satisfy the differential system of sn, cn, dn,
    which psi_minus_prime relies on."""

    def test_at_origin(self):
        dsn, dcn, ddn = jacobi_derivatives(0.0, 0.3)
        assert dsn == 1.0
        assert dcn == 0.0
        assert ddn == 0.0

    def test_at_quarter_period(self):
        k = complete_k(0.5)
        dsn, dcn, ddn = jacobi_derivatives(k, 0.5)
        assert dsn == pytest.approx(0.0, abs=1e-12)
        assert dcn == pytest.approx(-math.sqrt(0.5), abs=1e-12)
        assert ddn == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x,m", [(0.8, 0.6), (0.2, 0.1), (1.7, 0.9), (-1.1, 0.4)])
    def test_against_finite_differences(self, x, m):
        h = 1e-5
        a, b = jacobi(x + h, m), jacobi(x - h, m)
        fd = ((a.sn - b.sn) / (2 * h), (a.cn - b.cn) / (2 * h), (a.dn - b.dn) / (2 * h))
        an = jacobi_derivatives(x, m)
        for got, want in zip(an, fd):
            assert got == pytest.approx(want, abs=1e-8)

    def test_grid_agreement_with_finite_differences(self):
        x = np.linspace(-4.0, 4.0, 81)
        for m in (0.2, 0.7):
            h = 1e-5
            a, b = jacobi(x + h, m), jacobi(x - h, m)
            an = jacobi_derivatives(x, m)
            assert np.max(np.abs(an[0] - (a.sn - b.sn) / (2 * h))) <= 1e-8
            assert np.max(np.abs(an[1] - (a.cn - b.cn) / (2 * h))) <= 1e-8
            assert np.max(np.abs(an[2] - (a.dn - b.dn) / (2 * h))) <= 1e-8
