"""Tests for the Floquet and Galerkin band-structure engines."""

import json
import logging
import math
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamesusy import bandsolver as bs
from lamesusy import grid, susy, verify
from lamesusy.elliptic import complete_k, jacobi
from lamesusy.errors import (
    DomainError,
    IncompleteSpectrumError,
    InvalidGroundStateError,
    NumericalError,
)
from lamesusy.grid import GridFunction, spectrum
from lamesusy.susy import (
    Family,
    PotentialSpec,
    band_edge_energies,
    raw_lame,
    v_plus_closed,
    v_minus,
)

# solver-derived j=3 edge energies at m=0.5, frozen as a regression anchor;
# cross-validated against the plane-wave route and the partner spectrum
J3_EDGES_HALF = (0.0, 0.0765063968, 3.0, 3.9494897429, 4.8989794854,
                 7.8224730925, 7.8989794816)


def free_particle(period=math.pi):
    return bs.PeriodicPotential(
        period=period, evaluator=lambda x: 0.0 * np.asarray(x, dtype=float))


def lame_pot(family, j, m):
    return PotentialSpec(family, j, m).as_periodic_potential()


def uneven_trig():
    """A real potential with sine parts, so the cos-sin coupling of the
    Galerkin matrices is not zero (every Lamé input is even)."""
    return bs.PeriodicPotential(2 * math.pi, lambda x: (
        np.cos(x) + 0.4 * np.sin(2 * x) + 0.3 * np.cos(3 * x + 1)))


def cos_series(terms):
    """V = sum of a_q cos 2 pi q x over the (q, a_q) terms, of period 1."""
    return bs.PeriodicPotential(1.0, lambda x: sum(
        a * np.cos(2 * np.pi * q * np.asarray(x, dtype=float)) for q, a in terms))


def short_scan(cells):
    """A stand-in for _scan_edges that finds only the ground edge at 0 and
    records the cell count of every scan."""
    def scan(V, e_min, e_max, n_cells, count, stats):
        cells.append(n_cells)
        return [(0, 0.0, False)]
    return scan


def plane_wave_reference(V, basis_n):
    """Periodic and antiperiodic spectra of H = k^2 + V in the complex basis
    e^{ikx}, from a full FFT: the Hermitian form the cos/sin matrices
    replace, kept as their oracle."""
    fine = 4 * basis_n
    c = np.fft.fft(V.sample(fine)) / fine
    spectra = []
    for modes, k in ((np.arange(-basis_n, basis_n + 1), lambda n: 2 * n),
                     (np.arange(-basis_n, basis_n), lambda n: 2 * n + 1)):
        H = c[np.mod(modes[:, None] - modes[None, :], fine)] + np.diag(
            (math.pi / V.period * k(modes)) ** 2)
        spectra.append(np.linalg.eigvalsh(H))
    return spectra


def natural_propagators(coef, E, angle=False):
    """exp(Omega) of every step, as the engine formed it before the steps
    were stored in bit-reversed order: one fresh array per term, stacked."""
    h, hv, a0, a1, b0, c0, c1 = coef
    u = hv - h * E
    a = a0 + a1 * u
    c = c0 + c1 * u
    z = a * a + b0 * c
    s = np.sqrt(np.abs(z))
    grows = z > 0
    C = np.cos(s)
    S = np.sin(s)
    if grows.any():
        np.cosh(s, out=C, where=grows)
        np.sinh(s, out=S, where=grows)
    S = np.divide(S, s, out=np.ones_like(s), where=s > 0)
    P = [C + S * a, S * b0, S * c, C - S * a]
    if angle:
        # the angle of the second column, lifted from pi/2 while no step turns by pi
        assert not np.any((s >= np.pi) & ~grows)
        P.append(np.arctan2(P[3], P[1]))
    return np.stack(P)


def natural_mul(A, B):
    return np.stack([A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
                     A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3]])


def lift(A, w):
    """How much further than e2 the products A turn a vector of lifted
    angle w, so that A after B turns e2 to A[4] + lift(A, B[4]): with
    w = pi/2 + k pi + psi, psi in [0, pi), k pi plus the angle from A e2 to
    A (-sin psi, cos psi), in [0, pi) as det A = 1 (the universal cover of
    SL(2, R))."""
    psi = np.mod(w - 0.5 * np.pi, np.pi)
    s, c = np.sin(psi), np.cos(psi)
    return (w - 0.5 * np.pi - psi) + np.arctan2(
        s, c * (A[1] * A[1] + A[3] * A[3]) - s * (A[0] * A[1] + A[2] * A[3]))


def natural_tree(P):
    """The pairwise tree over steps in natural order, through strided views;
    a row 4 alone is the lifted angle of the second column."""
    scale = np.ones(P.shape[2])
    while P.shape[1] > 1:
        A, B = P[:, 1::2], P[:, 0::2]
        P = natural_mul(A[:4], B[:4])
        if A.shape[0] == 5:
            P = np.concatenate([P, (A[4] + lift(A, B[4]))[None]])
        np.maximum(scale, np.abs(P[:4]).max(axis=(0, 1)), out=scale)
    return P[:, 0], scale


def natural_product(V, n, E, angle=False):
    """bs._product, chunked alike, with the natural-order kernel above over
    the steps that bs._step_coefficients keeps: all n, or the first n / 2
    of an even V, whose product T is unfolded by bs._unfold.  A row 4 is
    the floor of the lifted angle's half-turns, as bs._product counts."""
    coef = bs._step_coefficients(V, n)
    steps = coef[1].shape[0]
    order = bs._bit_reversed(steps)
    coef = coef[:1] + tuple(col[order] for col in coef[1:])
    M = np.empty((4 + angle, E.size))
    scale = np.empty(E.size)
    per = max(1, bs.CHUNK // steps)
    for lo in range(0, E.size, per):
        part = slice(lo, lo + per)
        M[:, part], scale[part] = natural_tree(natural_propagators(coef, E[part], angle))
    if angle:
        M[4] = np.floor((M[4] - 0.5 * np.pi) / np.pi)
    return bs._unfold(M, scale) if steps < n else (M, scale)


def fuzz_modes():
    """A mode sum of scripts/engine_fuzz.py's third family, at seed 3."""
    script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "engine_fuzz.py"))
    return script["potential"](script["modes"](np.random.default_rng(3)))


class TestPeriodicPotential:
    def test_validation_catches_aperiodic_evaluator(self):
        with pytest.raises(DomainError, match="periodic"):
            bs.PeriodicPotential(period=1.0, evaluator=lambda x: np.asarray(x, float))

    def test_bad_constructor_arguments(self):
        with pytest.raises(DomainError):
            bs.PeriodicPotential(period=-1.0, evaluator=lambda x: 0.0 * x)

    def test_periodicity_check_cannot_be_skipped_at_construction(self):
        with pytest.raises(TypeError):
            bs.PeriodicPotential(1.0, lambda x: np.asarray(x, float), True)

    def test_checked_fields_cannot_be_reassigned(self):
        # the check holds for the evaluator and period it saw: a ramp put in
        # after it would reach every engine and selfiso_claims unchecked
        pot = bs.PeriodicPotential(2 * math.pi, np.cos)
        for name, value in (("evaluator", lambda x: np.asarray(x, float)), ("period", 1.0)):
            with pytest.raises(AttributeError):
                setattr(pot, name, value)

    def test_validation_leaves_equality_alone(self):
        a, b = (bs.PeriodicPotential(2 * math.pi, np.cos) for _ in range(2))
        assert a == b

    def test_grid_of_another_period_is_read_by_eval(self):
        # a grid whose period is not bit-equal to the potential's is read
        # through its interpolant, one shift a row
        g = GridFunction.from_function(np.cos, 2 * math.pi, 64)
        pot = bs.PeriodicPotential(2 * math.pi * (1 + 2e-16), g)
        assert pot.period != g.period
        shifts = np.array([0.0, 0.5])
        x = np.add.outer(shifts, np.arange(8)) * (pot.period / 8)
        assert np.array_equal(pot.sample(8, shifts), g.eval(x))
        assert np.max(np.abs(pot.sample(8) - np.cos(x[0]))) <= 1e-12

    def test_scalar_only_evaluator_is_refused(self):
        with pytest.raises(DomainError, match="array of points"):
            bs.PeriodicPotential(period=2.0, evaluator=lambda x: math.cos(math.pi * x))

    def test_evaluator_of_another_shape_is_refused(self):
        with pytest.raises(DomainError, match="shape"):
            bs.PeriodicPotential(1.0, lambda x: np.zeros(3))

    def test_evaluator_domain_error_keeps_its_message(self):
        # DomainError is a ValueError; it passes through sample untouched
        with pytest.raises(DomainError, match="too large"):
            bs.PeriodicPotential(1.0, lambda x: jacobi(x + 1e300, 0.5).sn)

    def test_grid_partner_is_built_without_pointwise_reads(self, monkeypatch):
        # the construction check reads a grid through sample's FFT resample
        def refuse(*args, **kwargs):
            raise AssertionError("pointwise read of the interpolant")
        monkeypatch.setattr(GridFunction, "eval", refuse)
        monkeypatch.setattr(grid, "series_sum", refuse)
        partner = bs.numeric_partner(lame_pot(Family.V_MINUS, 4, 0.5))
        assert isinstance(partner.evaluator, GridFunction)

    def test_grid_partner_refuses_a_non_finite_shift(self):
        partner = verify.partner_pair(4, 0.5)[1]
        assert isinstance(partner.evaluator, GridFunction)
        with pytest.raises(DomainError, match="not finite"):
            partner.sample(4, np.nan)

    def test_shifted_sample_of_closed_form_is_exact(self):
        # the Magnus nodes of a closed form are the abscissae (i + g) h themselves
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        n = 256
        nodes = (np.arange(n)[:, None] + bs._GAUSS) * (pot.period / n)
        for k, g in enumerate(bs._GAUSS):
            assert np.array_equal(pot.sample(n, g), pot(nodes[:, k]))

    def test_grid_backed_sample_resamples_the_interpolant(self):
        partner = bs.numeric_partner(lame_pot(Family.V_MINUS, 2, 0.5))
        assert isinstance(partner.evaluator, GridFunction)
        for n, g in ((512, 0.0), (256, 0.5), (96, 0.1127), (2048, 0.8873)):
            pts = (np.arange(n) + g) * (partner.period / n)
            assert np.max(np.abs(partner.sample(n, g) - partner(pts))) <= 1e-11


    @pytest.mark.parametrize("make", [
        lambda: lame_pot(Family.V_PLUS, 3, 0.5),
        lambda: bs.numeric_partner(lame_pot(Family.V_MINUS, 2, 0.5)),
    ], ids=["evaluator", "grid"])
    def test_array_of_shifts_samples_one_row_each(self, make):
        pot = make()
        for n in (64, 96, 512):
            want = np.stack([pot.sample(n, g) for g in bs._GAUSS])
            assert np.array_equal(pot.sample(n, bs._GAUSS), want)

    def test_one_evaluator_call_per_step_count(self):
        calls = []
        spec = PotentialSpec(Family.V_MINUS, 3, 0.5)
        pot = bs.PeriodicPotential(spec.period, lambda x: calls.append(np.shape(x)) or spec(x))
        calls.clear()
        for n in (64, 64, 128):
            bs._step_coefficients(pot, n)
        assert calls == [(3, 64), (3, 128)]

    def test_complex_potential_raises_domain_error(self):
        # 50 exp(2 pi i x) is refused when built: cast to its real part it
        # would take the band edges of 50 cos 2 pi x
        with pytest.raises(DomainError, match="evaluator's values must be real, got dtype complex"):
            bs.PeriodicPotential(1.0, lambda x: 50.0 * np.exp(2j * np.pi * np.asarray(x)))
        # nor is the trace taken at the real part of a complex energy
        pot = bs.PeriodicPotential(1.0, lambda x: 10.0 * np.cos(2 * np.pi * np.asarray(x)))
        for E in (3.0 + 5j, np.array([3.0 + 5j]), "3.0"):
            with pytest.raises(DomainError, match="energies must be real"):
                bs.monodromy_trace(pot, E)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_potential_raises_domain_error(self, bad):
        # a V non-finite at the construction check's points is refused when
        # built; one non-finite elsewhere by every engine, before any
        # eigensolve or product: not a failed convergence and not an energy
        # out of range
        with pytest.raises(DomainError, match="not finite"):
            bs.PeriodicPotential(1.0, lambda x: bad + 0.0 * np.asarray(x, float))
        one_point = bs.PeriodicPotential(1.0, lambda x: np.where(
            np.asarray(x, float) == 0.25, bad, np.cos(2 * np.pi * np.asarray(x, float))))
        engines = (lambda V: bs.band_edges(V, 5), lambda V: bs.galerkin_edges(V, 5),
                   bs.ground_energy, bs.numeric_partner)
        for engine in engines:
            with pytest.raises(DomainError, match="not finite"):
                engine(one_point)


class TestMonodromyTrace:
    @pytest.mark.parametrize("E", [0.25, 1.0, 2.0, 7.3, 11.0])
    def test_free_particle_closed_form(self, E):
        pot = free_particle()
        want = 2.0 * math.cos(math.sqrt(E) * pot.period)
        assert bs.monodromy_trace(pot, E) == pytest.approx(want, abs=1e-9)

    def test_negative_energy_free_particle(self):
        pot = free_particle()
        want = 2.0 * math.cosh(math.sqrt(2.0) * pot.period)
        assert bs.monodromy_trace(pot, -2.0) == pytest.approx(want, rel=1e-9)

    def test_overflow_far_below_the_potential_raises(self):
        # cosh(1000) overflows float64: the trace at E = -1e6 is refused,
        # naming the first such energy of the batch, not returned as inf
        # beside the finite trace at E = 5
        pot = free_particle(period=1.0)
        with pytest.raises(NumericalError, match=(
                r"overflow float64 over one period at E = -1e\+06 with \d+ steps; "
                "galerkin_edges")):
            bs.monodromy_trace(pot, np.array([-1e6, -2e6, 5.0]))
        assert bs.monodromy_trace(pot, 5.0) == pytest.approx(2.0 * math.cos(math.sqrt(5.0)),
                                                              abs=1e-9)

    def test_constant_potential_shear(self):
        pot = bs.PeriodicPotential(period=2.0,
                                   evaluator=lambda x: 1.5 + 0.0 * np.asarray(x, float))
        assert bs.monodromy_trace(pot, 1.5) == pytest.approx(2.0, abs=1e-10)

    def test_ground_edge_of_shifted_potential(self):
        # the zero-energy state of V- makes trace(0) = +2
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        assert bs.monodromy_trace(pot, 0.0) == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("E", [float("nan"), float("inf"), [0.5, -float("inf")]],
                             ids=["nan", "inf", "batch"])
    def test_non_finite_energy_raises(self, E):
        with pytest.raises(DomainError, match="energies must be finite"):
            bs.monodromy_trace(lame_pot(Family.V_MINUS, 2, 0.5), E)

    def test_trace_starts_its_own_record(self):
        # a trace after band_edges counts its own product in a new record,
        # and leaves band_edges' record as that call left it
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        bs.band_edges(pot, 5)
        edges_record = pot._magnus["counts"]
        kept = Counter(edges_record)
        bs.monodromy_trace(pot, np.array([0.1, 0.2, 0.3]))
        assert pot._magnus["counts"] is not edges_record and edges_record == kept
        # V- is even: one product over the half of the settled steps
        half = bs._step_count(pot, bs.TOL, 0) // 2
        assert pot._magnus["counts"] == Counter(products=1, steps_x_energies=3 * half,
                                                half_period_products=1)

    def test_discriminant_band_gap_dichotomy(self):
        # |trace| <= 2 inside allowed bands, >= 2 inside gaps
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        e = band_edge_energies(2, 0.5)
        inside_bands = np.concatenate([np.linspace(e[0], e[1], 9)[1:-1],
                                       np.linspace(e[2], e[3], 9)[1:-1]])
        inside_gaps = np.concatenate([np.linspace(e[1], e[2], 9)[1:-1],
                                      np.linspace(e[3], e[4], 9)[1:-1]])
        tr_band = bs.monodromy_trace(pot, inside_bands)
        tr_gap = bs.monodromy_trace(pot, inside_gaps)
        assert np.all(np.abs(tr_band) <= 2.0 + 1e-8)
        assert np.all(np.abs(tr_gap) >= 2.0 - 1e-8)

    @pytest.mark.parametrize("make", [
        lambda: lame_pot(Family.V_PLUS, 2, 0.5),
        lambda: verify.partner_pair(5, 0.5)[1],
    ], ids=["closed_form_vplus", "numeric_j5_vplus"])
    def test_trace_independent_of_batch_and_history(self, make):
        # the step count is settled per potential and energy range, and the
        # energies are chunked; neither may leak into the value at one E
        used = make()
        bs.band_edges(used, 5)
        bs.monodromy_trace(used, 100.0)  # settles a higher energy range first
        s = used.sample(256)
        Es = np.linspace(s.min() - 1.0, s.max() + 20.0, 2049)
        batch = bs.monodromy_trace(used, Es)
        for k in (0, 700, 1500, 2048):
            fresh = bs.monodromy_trace(make(), Es[k])
            assert abs(fresh - batch[k]) <= 1e-12 * max(1.0, abs(fresh))

    def test_unresolvable_potential_raises(self):
        # jumps off the step grid: the product cannot reach its tolerance
        # within the step cap, and the engine must say so rather than guess
        rough = bs.PeriodicPotential(
            period=1.0,
            evaluator=lambda x: 50.0 * np.sign(np.sin(2 * np.pi * (np.asarray(x) - 0.1234))))
        with pytest.raises(NumericalError, match="too rough"):
            bs.monodromy_trace(rough, 3.0)

    def test_step_cap_names_the_energy(self, monkeypatch):
        # a smooth V whose energies lie too high for the cap: the error
        # names the top of the range that hit it: range 3, whose top lies
        # 2^3 x 16 half-waves per period above max V, is the first that
        # 128 steps do not resolve
        monkeypatch.setattr(bs, "MAX_STEPS", 128)
        pot = lame_pot(Family.RAW_LAME, 1, 0.5)
        top = bs._span(pot)[1] + (8.0 * math.pi * bs._RANGE_WAVES / pot.period) ** 2
        with pytest.raises(NumericalError, match=(
                f"at 128 steps up to E = {top:.6g}; the potential is too rough, "
                "or the energies too high, for the Floquet route")):
            bs.band_edges(pot, 400)

    def test_overshoot_separates_closed_from_narrow_open_gap(self):
        # the free particle's gaps at E = 1, 4 are closed (M = -I, +I); the
        # upper j=2 gap at m = 0.01 is open but only 7.5e-5 wide, so at its
        # middle the trace passes +2 by just ~9e-10
        over, noise = bs._overshoot(free_particle(), [1.0, 4.0], [-2.0, 2.0])
        assert np.all(np.abs(over) <= noise)
        e = band_edge_energies(2, 0.01)
        over, noise = bs._overshoot(lame_pot(Family.V_MINUS, 2, 0.01),
                                    [0.5 * (e[3] + e[4])], [2.0])
        assert over[0] == pytest.approx(8.8e-10, rel=0.05)
        assert over[0] > 1e3 * noise[0]


class TestMagnusKernel:
    """The steps in bit-reversed order, multiplied as contiguous halves,
    against the natural-order pairwise tree: the same operations in the
    same order, so the same bits; and the half-turn count against the
    floor of the oracle's lifted angle."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 4096])
    def test_bit_reversed_order_is_an_involution(self, n):
        order = bs._bit_reversed(n)
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(order[order], np.arange(n))

    @pytest.mark.parametrize("n", [0, 3, 96])
    def test_step_count_off_a_power_of_two_raises(self, n):
        with pytest.raises(ValueError, match="power of two"):
            bs._bit_reversed(n)

    @pytest.mark.parametrize("make,steps", [(lambda: lame_pot(Family.V_PLUS, 3, 0.9), 0.5),
                                            (fuzz_modes, 1.0)],
                             ids=["closed_form_j3_vplus", "fuzz_modes"])
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_products_match_the_natural_order_tree(self, make, steps, n):
        # the even closed form's product T over the half period, and the
        # uneven mode sum's over the whole
        pot = make()
        assert bs._step_coefficients(pot, n)[1].shape[0] == steps * n
        lo, hi = bs._span(pot)
        for k in (1, 3, 17, 257):
            E = np.linspace(lo - 1.0, hi + 100.0, k)
            for rows, kind in ((4, {}), (5, {"angle": True})):
                M, scale = bs._product(pot, n, E, rows)
                want, want_scale = natural_product(pot, n, E, **kind)
                assert np.array_equal(M, want) and np.array_equal(scale, want_scale), (k, kind)

    @staticmethod
    def assert_bit_identical_across_chunkings(pot, n, offset):
        # the scan's rows = 5 samples and the Dirichlet solve's rows = 4
        # products meet at energies that sit in different chunks; 64 steps,
        # over the whole period or over an even V's half of 128, take
        # chunks of 512 energies
        assert bs._step_coefficients(pot, n)[1].shape[0] == 64
        E = np.linspace(-3.0, 40.0, 1000)
        M, scale = bs._product(pot, n, E)
        MA, scale_a = bs._product(pot, n, E[offset:], rows=5)
        assert MA.shape == (5, E.size - offset)
        assert np.array_equal(MA[:4], M[:, offset:]) and np.array_equal(scale_a, scale[offset:])
        one, one_scale = bs._product(pot, n, E[offset:offset + 1])
        assert np.array_equal(one[:, 0], M[:, offset]) and one_scale[0] == scale[offset]

    def test_product_beside_angle_is_bit_identical(self):
        # 1000 energies span chunks of 512
        self.assert_bit_identical_across_chunkings(lame_pot(Family.V_PLUS, 2, 0.9), 128, 0)

    @pytest.mark.parametrize("offset", [1, 301, 511])
    def test_product_beside_angle_is_bit_identical_across_chunkings(self, offset):
        self.assert_bit_identical_across_chunkings(lame_pot(Family.V_PLUS, 2, 0.9), 128, offset)

    @pytest.mark.parametrize("offset", [0, 1, 301, 511])
    def test_full_period_product_beside_angle_across_chunkings(self, offset):
        # the same on an uneven V, whose products run over the whole period
        self.assert_bit_identical_across_chunkings(fuzz_modes(), 64, offset)

    @pytest.mark.parametrize("rows", [0, 6, 9])
    def test_row_count_other_than_4_5_8_raises(self, rows):
        # 4 rows plain, 5 with the half-turn count; any other count raises,
        # 8 included
        for count in (rows, 8):
            with pytest.raises(ValueError, match="rows must be 4 or 5"):
                bs._monodromy(lame_pot(Family.V_MINUS, 2, 0.5), [0.5, 3.0], rows=count)


class TestHalfPeriod:
    """An even V's monodromy unfolded from the product over the half period
    (bs._unfold), against the product over the whole period, and the
    evenness decision that picks the route."""

    @staticmethod
    def full_period(pot, n, E):
        """The n-step rows = 5 product over the whole period, whatever the route."""
        v = pot.sample(n, bs._GAUSS)[:, bs._bit_reversed(n)]
        return bs._tree_product(bs._step_propagators(bs._coefficients(v, pot.period / n), E, 5))

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("family,j", [(Family.V_MINUS, j) for j in range(1, 6)]
                             + [(Family.V_PLUS, j) for j in range(1, 4)]
                             + [("numeric V+", j) for j in (4, 5)])
    def test_half_period_matches_the_full_period_product(self, family, j, m):
        # the numeric V+ is grid-backed, sampled by FFT resampling
        pot = verify.partner_pair(j, m)[1] if family == "numeric V+" else lame_pot(family, j, m)
        E = np.linspace(bs._span(pot)[0] - 1.0, bs._first_window(pot, 2 * j + 2), 513)
        assert not bs._energy_range(pot, E).any()
        for tol in (bs.SCAN_TOL, bs.TOL):
            n = bs._step_count(pot, tol, 0)
            M, scale = bs._product(pot, n, E, rows=5)
            want, want_scale = self.full_period(pot, n, E)
            # V+ near m = 1 is even only to 4e3 eps max|V| as sampled
            half = not (family == Family.V_PLUS and j > 1 and m == 0.999)
            assert (bs._step_coefficients(pot, n)[1].shape[0] < n) == half
            assert np.array_equal(M[4], want[4])
            assert np.max(np.abs(M[:4] - want[:4]) / want_scale) <= 1e-12
            assert scale == pytest.approx(want_scale, rel=1e-6)

    def test_near_even_potential_takes_the_full_route(self):
        # a sine part of 1e-9 is far above the samples' rounding: the full
        # period, whose edges still match Galerkin's
        terms = [(1, 40.0), (2, -15.0), (3, 6.0)]
        even = cos_series(terms)
        near = bs.PeriodicPotential(1.0, lambda x: even(x) + 1e-9 * np.sin(2 * np.pi * x))
        found = [bs.band_edges(pot, 11) for pot in (even, near)]
        assert (even._magnus["counts"]["half_period_products"]
                == even._magnus["counts"]["products"] > 0)
        assert (near._magnus["counts"]["half_period_products"] == 0
                and near._magnus["asymmetry"] > 1e5)
        for got, want, other in zip(found[1], bs.galerkin_edges(near, 11, 256), found[0]):
            assert got.n == want.n == other.n
            assert got.energy == pytest.approx(want.energy, abs=1e-9 * max(1.0, abs(want.energy)))
            assert got.energy == pytest.approx(other.energy, abs=1e-8)

    def test_numeric_j4_partner_takes_the_half_route(self):
        # the 512-sample numeric V+ of an even V- is kept even, so its
        # FFT-resampled node samples are even to their rounding
        plus = verify.partner_pair(4, 0.5)[1]
        edges = bs.band_edges(plus, 9)
        assert (plus._magnus["counts"]["half_period_products"]
                == plus._magnus["counts"]["products"] > 0)
        assert plus._magnus["asymmetry"] <= bs._EVEN
        for got, want in zip(edges, band_edge_energies(4, 0.5)):
            assert got.energy == pytest.approx(want, abs=1e-9)


class TestBandEdges:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.01, 0.02, 0.05])
    def test_j2_energies(self, m):
        # both j=2 gaps are open; at m = 0.01 the upper one is 7.5e-5 wide
        edges = bs.band_edges(lame_pot(Family.V_MINUS, 2, m), 5)
        for got, want in zip(edges, band_edge_energies(2, m)):
            assert got.energy == pytest.approx(want, abs=1e-6)
        assert not any(e.degenerate for e in edges)

    def test_j2_partner_same_edges(self):
        e_minus = bs.band_edges(lame_pot(Family.V_MINUS, 2, 0.5), 5)
        e_plus = bs.band_edges(lame_pot(Family.V_PLUS, 2, 0.5), 5)
        assert max(abs(a.energy - b.energy) for a, b in zip(e_minus, e_plus)) <= 1e-6

    def test_j3_seven_edges_both_partners(self):
        e_minus = bs.band_edges(lame_pot(Family.V_MINUS, 3, 0.5), 7)
        e_plus = bs.band_edges(lame_pot(Family.V_PLUS, 3, 0.5), 7)
        assert len(e_minus) == len(e_plus) == 7
        assert max(abs(a.energy - b.energy) for a, b in zip(e_minus, e_plus)) <= 1e-6
        for got, want in zip(e_minus, J3_EDGES_HALF):
            assert got.energy == pytest.approx(want, abs=1e-6)

    def test_boundary_pattern_alternates(self):
        for pot, count in ((lame_pot(Family.V_MINUS, 2, 0.5), 5),
                           (lame_pot(Family.V_MINUS, 3, 0.3), 7)):
            edges = bs.band_edges(pot, count)
            assert [e.boundary for e in edges] == [bs.expected_boundary(i)
                                                   for i in range(count)]

    def test_boundary_follows_the_index(self):
        assert bs.BandEdge(n=3, energy=0.0).boundary == "periodic"
        assert bs.BandEdge(n=2, energy=0.0).boundary == "antiperiodic"
        with pytest.raises(TypeError):
            bs.BandEdge(n=3, energy=0.0, boundary="antiperiodic")

    def test_free_particle_degenerate_pairs(self):
        edges = bs.band_edges(free_particle(), 5)
        want = (0.0, 1.0, 1.0, 4.0, 4.0)
        for got, w in zip(edges, want):
            assert got.energy == pytest.approx(w, abs=1e-6)
        assert [e.degenerate for e in edges] == [False, True, True, True, True]

    def test_incomplete_spectrum_error(self, monkeypatch):
        # a scan that finds one edge of five is not retried, and the error
        # lists what it found
        cells = []
        monkeypatch.setattr(bs, "_scan_edges", short_scan(cells))
        with pytest.raises(IncompleteSpectrumError) as exc:
            bs.band_edges(lame_pot(Family.V_MINUS, 2, 0.5), 5)
        assert cells == [256]
        assert str(exc.value).endswith(": 0:0")

    def test_count_certificate(self, monkeypatch):
        # every edge's index comes from the count, so a count one too high
        # leaves edge 0 missing and puts two edges on one index, where a
        # sort of the energies would not notice
        edges_below = bs._edges_below
        monkeypatch.setattr(bs, "_edges_below", lambda k, res: edges_below(k, res) + 1)
        with pytest.raises(IncompleteSpectrumError,
                           match=r"band edges \[0, 1, 3\] missing and \[2, 4\] doubled"):
            bs.band_edges(lame_pot(Family.V_MINUS, 2, 0.5), 5)

    def test_touches_to_float_resolution(self):
        # closed gaps of the free particle at (n pi / L)^2, each split at
        # its Dirichlet eigenvalue; the upper j=2 gap at m = 1e-6 is 7.5e-13
        # wide
        edges = bs.band_edges(free_particle(), 5)
        assert [e.degenerate for e in edges] == [False, True, True, True, True]
        for got, w in zip(edges, (0.0, 1.0, 1.0, 4.0, 4.0)):
            assert abs(got.energy - w) <= 1e-12
        edges = bs.band_edges(lame_pot(Family.V_MINUS, 2, 1e-6), 5)
        for got, want in zip(edges, band_edge_energies(2, 1e-6)):
            assert abs(got.energy - want) <= 1e-12

    def test_resolution_limit_at_tiny_modulus(self):
        # j = 2, m = 1e-9: the 3e-9 gap comes back open; the 7.5e-19 gap,
        # below the float spacing at E = 4, as a touch
        edges = bs.band_edges(lame_pot(Family.V_MINUS, 2, 1e-9), 5)
        assert [e.degenerate for e in edges] == [False, False, False, True, True]
        for got, want in zip(edges, band_edge_energies(2, 1e-9)):
            assert abs(got.energy - want) <= 1e-15

    def test_scan_logged_at_debug(self, monkeypatch):
        few, many, stub = free_particle(), free_particle(), lame_pot(Family.V_MINUS, 2, 0.5)
        bs.band_edges(few, 5)
        bs.band_edges(many, 121)
        monkeypatch.setattr(bs, "_scan_edges", short_scan([]))
        with pytest.raises(IncompleteSpectrumError):
            bs.band_edges(stub, 5)
        counts = [pot._magnus["counts"] for pot in (few, many, stub)]
        # the free particle's cells at its touches 1 and 4 are split at
        # their Dirichlet eigenvalues, so each touch is two crossing
        # brackets beside the ground edge's one, and 7 edges (0, 1, 1, 4,
        # 4, 9, 9) lie below 11, the top of its window
        assert [counts[0][key] for key in ("splits", "top", "brackets", "rescans")] == [2, 7, 5, 0]
        assert counts[0]["dirichlet_rounds"] > 0 and counts[0]["crossing_rounds"] > 0
        # V = 0 is even: every product is formed over the half period
        assert counts[0]["half_period_products"] == counts[0]["products"] > 0
        assert few._magnus["asymmetry"] == 0.0
        # with 121 edges the lowest touches share cells of window/256, and
        # each cell that hides more than one is scanned again; the top,
        # 2 + 61^2, lies above the 123 edges up to 61^2, and the scans
        # bracket the 121 edges up to 60^2
        assert [counts[1][key] for key in ("top", "brackets", "rescans")] == [123, 121, 2]
        # the stand-in scan reports one root, counts nothing, samples no
        # step, solves nothing and scans nothing again
        assert dict(counts[2]) == {"brackets": 1} and "asymmetry" not in stub._magnus

    def test_products_logged_repeat_on_a_fresh_build(self):
        # products are counted where they are formed, so a fresh build of one
        # potential forms the same ones; a second call on a used one reuses
        # its cached probe products
        used, counts = lame_pot(Family.V_PLUS, 3, 0.9), []
        for pot in (lame_pot(Family.V_PLUS, 3, 0.9), used, used):
            bs.band_edges(pot, 7)
            counts.append([pot._magnus["counts"][key] for key in ("products", "steps_x_energies")])
        assert counts[0] == counts[1] and counts[0][0] > 0
        assert counts[2][0] < counts[1][0]

    @given(st.floats(0.5, 10.0), st.integers(1, 24),
           st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_window_holds_count_edges(self, period, count, modes):
        # min-max comparison with the free particle puts edge count - 1 at
        # most (pi ceil((count - 1)/2) / L)^2 above max V, inside the window
        def V(x):
            t = 2.0 * np.pi * np.asarray(x, dtype=float) / period
            return sum(a * np.cos((k + 1) * t) + b * np.sin((k + 1) * t)
                       for k, (a, b) in enumerate(modes))

        pot = bs.PeriodicPotential(period=period, evaluator=V)
        assert bs.galerkin_edges(pot, count)[-1].energy < bs._first_window(pot, count)

    def test_gaps_above_count_are_not_solved(self):
        # the free particle's window [-1, 11] holds touches at 1, 4 and 9;
        # the first five edges need the splits at 1 and 4 only
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0)
        edges = bs._scan_edges(free_particle(), -1.0, 11.0, 256, 5, stats)
        assert [(n, round(e, 9), d) for n, e, d in edges] == [
            (0, 0.0, False), (1, 1.0, True), (2, 1.0, True), (3, 4.0, True), (4, 4.0, True)]
        assert stats["splits"] == 2

    @pytest.mark.parametrize("count", [81, 121, 201, 451])
    def test_many_edges_of_the_free_particle(self, count):
        # the lowest touches, 1 and 4, stay 3 apart while the window grows
        # as count^2; 256 cells on any window miss them from 71 edges on.
        # 64 steps, exact for V = 0, turn by 3 pi/2 a step at E = 96^2 and
        # 224^2, both touches: the scan takes more steps than that
        edges = bs.band_edges(free_particle(), count)
        assert [e.boundary for e in edges] == [bs.expected_boundary(i) for i in range(count)]
        for n, e in enumerate(edges):
            assert abs(e.energy - ((n + 1) // 2) ** 2) <= 1e-12 * max(1, n * n)

    @pytest.mark.parametrize("family", [Family.RAW_LAME, Family.V_MINUS])
    def test_one_crossing_batch_per_scan(self, family, monkeypatch):
        # j = 2, m = 0.1: three crossings the samples bracket and one open
        # gap whose Dirichlet eigenvalue splits its cell, all solved in one
        # batch after the eigenvalue's
        sizes = []
        root_batch = bs._root_batch
        monkeypatch.setattr(bs, "_root_batch", lambda f, lo, *rest:
                            sizes.append(np.size(lo)) or root_batch(f, lo, *rest))
        edges = bs.band_edges(lame_pot(family, 2, 0.1), 5)
        assert sizes == [1, 5]
        for got, want in zip(edges, band_edge_energies(2, 0.1)):
            assert got.energy - edges[0].energy == pytest.approx(want, abs=1e-11)

    def test_count_validation(self):
        # rejected before any sample of V is taken
        calls = []
        pot = bs.PeriodicPotential(1.0, lambda x: calls.append(x) or 0.0 * x)
        calls.clear()
        for solve in (bs.band_edges, bs.galerkin_edges):
            for count in (0, 2.5):
                with pytest.raises(DomainError, match="count"):
                    solve(pot, count)
        with pytest.raises(DomainError, match="basis_n"):
            bs.galerkin_edges(pot, 5, basis_n=64.5)
        assert calls == []

    @pytest.mark.parametrize("j,make", [
        (3, lambda: lame_pot(Family.V_MINUS, 3, 0.999)),
        (5, lambda: verify.partner_pair(5, 0.99)[0]),
    ], ids=["closed_form_j3_m0.999", "pipeline_j5_m0.99"])
    def test_narrow_lowest_band_near_m1(self, j, make):
        # the lowest band is 3.5e-10 (j=3) and 5e-12 (j=5) wide here
        pot = make()
        count = 2 * j + 1
        edges = bs.band_edges(pot, count)
        assert [e.boundary for e in edges] == [bs.expected_boundary(i) for i in range(count)]
        assert edges[0].energy < edges[1].energy
        for a, b in zip(edges, bs.galerkin_edges(pot, count)):
            assert a.energy == pytest.approx(b.energy, abs=1e-6)

    def test_bands_below_root_resolution_keep_the_pattern(self):
        # the four lowest j=5 bands of the pipeline V- at m = 1 - 1e-6 are
        # narrower than the edge residual resolves, so each periodic and
        # antiperiodic root comes out tied or swapped
        pot = lame_pot(Family.V_MINUS, 5, 1 - 1e-6)
        edges = bs.band_edges(pot, 11)
        assert [e.boundary for e in edges] == [bs.expected_boundary(i) for i in range(11)]
        for a, b in zip(edges, bs.galerkin_edges(pot, 11)):
            assert a.energy == pytest.approx(b.energy, abs=1e-9)


class TestEdgeCount:
    """_edges_below against the algebraic Lamé edges and against Galerkin,
    at every scan energy below the top edge."""

    @staticmethod
    def counts(pot, count, tol):
        Es = np.linspace(bs._span(pot)[0] - 1.0, bs._first_window(pot, count), bs.DEFAULT_SCAN + 1)
        M, _ = bs._monodromy(pot, Es, tol, rows=5)
        return Es, bs._edges_below(M[4], M[0] + M[3] - bs._TARGETS[:, None])

    @pytest.mark.parametrize("tol", [bs.SCAN_TOL, bs.TOL], ids=["scan_tol", "tol"])
    @pytest.mark.parametrize("m", [1e-6, 0.5, 0.999, 1 - 1e-6])
    def test_raw_lame(self, m, tol):
        for j in range(1, 11):
            edges = [e for e, _, _ in susy._lame(j, m)]
            Es, got = self.counts(lame_pot(Family.RAW_LAME, j, m), 2 * j + 1, tol)
            below = Es < edges[-1]
            assert np.array_equal(got[below], np.searchsorted(edges, Es[below]))

    def test_three_unequal_wells(self):
        pot = cos_series([(3, -800.0), (1, 1.0)])
        edges = [e.energy for e in bs.galerkin_edges(pot, 21, 512)]
        Es, got = self.counts(pot, 21, bs.SCAN_TOL)
        below = Es < edges[-1]
        assert np.array_equal(got[below], np.searchsorted(edges, Es[below]))

    def test_free_particle_past_the_wrap_of_a_64_step_angle(self):
        # V = 0 settles 64 steps, exact, whose angles would wrap from 96^2 on
        edges = [((n + 1) // 2) ** 2 for n in range(455)]  # past the window's top
        Es, got = self.counts(free_particle(), 451, bs.SCAN_TOL)
        assert Es[-1] > 224.0 ** 2 and not np.isin(Es, edges).any()
        assert np.array_equal(got, np.searchsorted(edges, Es))

    QUARTER = np.array([[0.0, 1.0], [-1.0, 0.0]])  # turns e2 clockwise to e1: k = -1

    @pytest.mark.parametrize("A,B,k", [(QUARTER, QUARTER, -1), (-np.eye(2), QUARTER, -2),
                                       (QUARTER, -np.eye(2), -2)],
                             ids=["product_12_zero", "later_12_zero", "earlier_12_zero"])
    def test_wrap_where_a_12_entry_is_zero(self, A, B, k):
        # two steps, B then A, each a clockwise rotation with its half-turn
        # count (-I a half-turn, k = -1).  e2 ends on -e2 (w = -pi/2, no zero
        # inside), on -e1 (w = -pi) and on -e1: a wrap only in the first
        P = np.empty((5, 2, 1))
        P[:4, :, 0] = np.stack([B.ravel(), A.ravel()], axis=1)
        P[4] = -1.0
        M, _ = bs._tree_product(P)
        assert np.array_equal(M[:4, 0], (A @ B).ravel()) and M[4, 0] == k

    @pytest.mark.parametrize("n", [64, 128])
    def test_free_particle_at_several_half_turns_per_step(self, n):
        # sqrt(E) h / pi = sqrt(E) / n half-turns per step, up to 3.6; the
        # zeros of sin(sqrt(E) x) in (0, pi) number floor(sqrt(E)), none below 0
        root = np.linspace(0.0, 3.6 * n, 20001)
        root = root[np.abs(root - np.round(root)) > 0.01]  # off the Dirichlet eigenvalues n^2
        E = np.concatenate([-np.linspace(0.0, 100.0, 101) ** 2, root ** 2])
        M, _ = bs._product(free_particle(), n, E, rows=5)
        assert np.array_equal(-1 - M[4], np.floor(np.sqrt(np.maximum(E, 0.0))))

    @pytest.mark.parametrize("tol", [bs.SCAN_TOL, bs.TOL], ids=["scan_tol", "tol"])
    def test_count_at_a_dirichlet_eigenvalue(self, tol):
        # at E = 230^2 sin(230 x) vanishes at L = pi: the count is of the
        # zeros in the open interval (0, L)
        M, _ = bs._monodromy(free_particle(), [230.0 ** 2], tol, rows=5)
        assert -1 - M[4, 0] == 229

    @pytest.mark.parametrize("tol", [bs.SCAN_TOL, bs.TOL], ids=["scan_tol", "tol"])
    def test_raw_lame_near_m1_from_below_the_spectrum(self, tol):
        # partial products here reach 1e54 (j = 2) to 1e87 (j = 10) below the
        # spectrum, where a wrap read off a cross product of the computed
        # entries cancels to the wrong sign
        for j in range(2, 11):
            pot = lame_pot(Family.RAW_LAME, j, 1 - 1e-6)
            edges = [e for e, _, _ in susy._lame(j, 1 - 1e-6)]
            Es = np.linspace(bs._span(pot)[0] - 50.0, edges[-1], 2049)
            M, _ = bs._monodromy(pot, Es, tol, rows=5)
            got = bs._edges_below(M[4], M[0] + M[3] - bs._TARGETS[:, None])
            assert np.array_equal(got[:-1], np.searchsorted(edges, Es[:-1])), j

    @pytest.mark.parametrize("j,E,dirichlet", [(9, 94.21902010412118, 16),
                                               (10, 84.99961134727889, 4),
                                               (10, 100.98488221063053, 6),
                                               (10, 115.36589649988237, 18)])
    def test_counts_that_64_steps_miss(self, j, E, dirichlet):
        # raw Lame at m = 1 - 1e-6: at 64 steps, fewer than the scan
        # settles, the product counts one or two zeros too many here; the
        # settled step counts are right, against susy._lame below the top
        # edge and against 4096 steps above it
        pot = lame_pot(Family.RAW_LAME, j, 1 - 1e-6)
        edges = [e for e, _, _ in susy._lame(j, 1 - 1e-6)]
        M, _ = bs._product(pot, 4096, np.array([E]), rows=5)
        assert -1 - M[4, 0] == dirichlet
        for tol in (bs.SCAN_TOL, bs.TOL):
            M, _ = bs._monodromy(pot, [E], tol, rows=5)
            assert -1 - M[4, 0] == dirichlet
            if E < edges[-1]:
                below = bs._edges_below(M[4], M[0] + M[3] - bs._TARGETS[:, None])
                assert below[0] == np.searchsorted(edges, E)


class TestStepCount:
    def test_later_tolerance_reuses_probe_products(self, monkeypatch):
        settled = bs._step_count(lame_pot(Family.V_MINUS, 3, 0.5), bs.TOL, 0)
        formed = []
        product = bs._product
        monkeypatch.setattr(bs, "_product",
                            lambda V, n, E: formed.append((n, E.tobytes())) or product(V, n, E))
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        bs._step_count(pot, bs.SCAN_TOL, 0)
        scan = len(formed)
        assert bs._step_count(pot, bs.TOL, 0) == settled
        assert len(formed) > scan
        assert len(set(formed)) == len(formed)

    def test_overflowing_solutions_raise_at_the_first_probe(self):
        # the growing solutions of V = 1e6 cos 2 pi x overflow float64 over
        # one period, so the first probe product is not finite; more steps
        # cannot help, while Galerkin solves this V
        deep = bs.PeriodicPotential(1.0, lambda x: 1e6 * np.cos(2 * np.pi * np.asarray(x)))
        with pytest.raises(NumericalError, match="overflow float64.*galerkin_edges"):
            bs.band_edges(deep, 5)
        assert deep._magnus["counts"]["products"] <= 2
        assert [e.energy for e in bs.galerkin_edges(deep, 5, basis_n=512)] == pytest.approx(
            [-995559.5858, -995559.5858, -986683.7006, -986683.7006, -977817.7097], abs=1e-3)


class TestRootBatch:
    @pytest.mark.parametrize("m", [0.01, 0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("j", range(1, 11))
    def test_edges_to_float_resolution(self, j, m):
        # above j = 3 the upper edges of the two differ by up to 3e-11
        edges = bs.band_edges(lame_pot(Family.V_MINUS, j, m), 2 * j + 1)
        for got, want in zip(edges, band_edge_energies(j, m)):
            assert got.energy == pytest.approx(want, abs=1e-11 if j <= 3 else 1e-9)

    @staticmethod
    def brackets(pot):
        # asymmetric brackets of unequal widths around the j=3, m=0.5 edges,
        # so that the brackets close after different numbers of steps
        e = np.array(band_edge_energies(3, 0.5))
        w = 0.004 * (1.0 + np.arange(e.size))
        lo, hi = e - w, e + 0.03 - w
        target = np.array([2.0 if bs.expected_boundary(i) == "periodic" else -2.0
                           for i in range(e.size)])
        f_lo, f_hi = (bs.monodromy_trace(pot, x) - target for x in (lo, hi))
        return lo, hi, target, f_lo, f_hi

    def test_batch_equals_one_at_a_time(self):
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        brackets = self.brackets(pot)
        lo, hi, target, f_lo, f_hi = brackets
        batch, _ = bs._root_batch(bs._crossing(pot, target), lo, hi, f_lo, f_hi)
        single = [bs._root_batch(bs._crossing(pot, [t]), [a], [b], [fa], [fb])[0][0]
                  for a, b, t, fa, fb in zip(*brackets)]
        assert batch.tolist() == single

    def test_roots_inside_their_brackets(self):
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        lo, hi, target, f_lo, f_hi = self.brackets(pot)
        roots, _ = bs._root_batch(bs._crossing(pot, target), lo, hi, f_lo, f_hi)
        assert np.all((lo <= roots) & (roots <= hi))
        assert np.max(np.abs(roots - np.array(band_edge_energies(3, 0.5)))) <= 1e-11

    def test_bracket_that_never_closes_raises(self, monkeypatch):
        # one false-position step cannot close a bracket of width 1
        monkeypatch.setattr(bs, "_ROOT_STEPS", 1)
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        f = bs.monodromy_trace(pot, [-0.5, 0.5]) - 2.0
        with pytest.raises(NumericalError, match="1 root brackets did not close in 1 steps"):
            bs._root_batch(bs._crossing(pot, [2.0]), [-0.5], [0.5], f[:1], f[1:])

    def test_bracket_without_sign_change_raises(self):
        # both ends inside the lowest band: no edge between them
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        f = bs.monodromy_trace(pot, [0.01, 0.05]) - 2.0
        with pytest.raises(NumericalError, match="sign change"):
            bs._root_batch(bs._crossing(pot, [2.0]), [0.01], [0.05], f[:1], f[1:])

    @staticmethod
    def solve(f, lo, hi):
        """The root of f on [lo, hi] and the residuals of its rounds, in order."""
        values = []

        def residual(x, i):
            fx = f(x)
            values.append(float(fx[0]))
            return fx

        root, rounds = bs._root_batch(residual, [lo], [hi], f(np.array([lo])), f(np.array([hi])))
        assert rounds == len(values)
        return root[0], values

    @pytest.mark.parametrize("f, lo, hi, want, rounds", [
        (lambda x: np.exp(x) - 2.0, 0.0, 3.0, math.log(2.0), 8),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265, 7),
    ])
    def test_smooth_roots_close_in_few_rounds(self, f, lo, hi, want, rounds):
        # Anderson-Bjorck takes 8 and 7 rounds where Illinois took 10 and 9
        root, values = self.solve(f, lo, hi)
        assert abs(root - want) <= 4.0 * np.finfo(float).eps * want
        assert len(values) <= rounds

    def test_weight_not_positive_falls_back_to_half(self):
        # on [-1, 2] x^3 - x - 1 is negative up to its root, the plastic
        # number, and falls from -1/sqrt(3) to its minimum at 1/sqrt(3): a
        # round on the low side can have a larger residual than the one
        # before, so g = 1 - f(x) / f(replaced end) <= 0 and the kept end's
        # residual is halved.  Illinois took 14 rounds; using g <= 0 as it
        # is takes 16
        root, values = self.solve(lambda x: x ** 3 - x - 1.0, -1.0, 2.0)
        assert any(new / old >= 1.0 for old, new in zip(values, values[1:]))
        assert abs(root - 1.324717957244746) <= 4.0 * np.finfo(float).eps * root
        assert len(values) <= 12

    def test_rounds_of_v_minus_pinned(self):
        # V- (j = 5, m = 0.9) has no split cell; its 11 crossing brackets
        # closed in 10 rounds with Illinois' halving, 8 with the
        # Anderson-Bjorck weight
        pot = lame_pot(Family.V_MINUS, 5, 0.9)
        bs.band_edges(pot, 11)
        counts = pot._magnus["counts"]
        assert counts["dirichlet_rounds"] + counts["crossing_rounds"] <= 8


class TestHiddenCells:
    """Cells whose edge count rises by more than their residuals change
    sign: split at the one Dirichlet eigenvalue they hold, or scanned
    again."""

    def test_cell_hiding_one_touch_is_split(self):
        # the free particle's Dirichlet eigenvalues are its touches 1, 4,
        # 9, ...: one cell from -1 to 2 holds the ground edge and the touch
        # at 1, split there into two pieces that bracket one edge each
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        edges = bs._scan_edges(free_particle(), -1.0, 2.0, 1, 3, stats)
        assert stats["splits"] == 1 and stats["rescans"] == 0
        assert [(n, d) for n, _, d in edges] == [(0, False), (1, True), (2, True)]
        assert max(abs(e - w) for (_, e, _), w in zip(edges, (0.0, 1.0, 1.0))) <= 1e-12

    @pytest.mark.parametrize("e_max,count,hidden", [
        (5.0, 5, (1.0, 4.0)), (11.0, 7, (1.0, 4.0, 9.0))], ids=["two", "three"])
    def test_cell_hiding_several_touches_is_scanned_again(self, e_max, count, hidden):
        # a single cell from -1 holds the ground edge and ``hidden``, each
        # a Dirichlet eigenvalue: the cell holds two or three, so it is not
        # split but scanned again, and there each touch's cell is split
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        edges = bs._scan_edges(free_particle(), -1.0, e_max, 1, count, stats)
        assert stats["rescans"] == 1 and stats["splits"] == len(hidden)
        assert [(n, d) for n, _, d in edges] == [(n, n > 0) for n in range(count)]
        want = (0.0,) + tuple(t for t in hidden for _ in (0, 1))
        assert max(abs(e - w) for (_, e, _), w in zip(edges, want)) <= 1e-12
        # the cut cell's grid is the window's on DEFAULT_SCAN cells, so the
        # edges are bit for bit those of a scan begun there
        fine = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        assert edges == bs._scan_edges(free_particle(), -1.0, e_max, bs.DEFAULT_SCAN, count, fine)

    def test_split_cell_whose_pieces_fall_short_is_cut(self, monkeypatch):
        # a first count two edges too high at the window's top leaves the
        # one cell, split at the touch at 1, short of its rise: it is cut
        # into DEFAULT_SCAN cells, and there, counted truly, the touch's
        # own cell is split
        edges_below, grids = bs._edges_below, []

        def high_at_first(k, res):
            below = edges_below(k, res)
            below[-1] += 2 * (not grids)
            grids.append(below.size)
            return below

        monkeypatch.setattr(bs, "_edges_below", high_at_first)
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        edges = bs._scan_edges(free_particle(), -1.0, 2.0, 1, 3, stats)
        assert grids == [2, bs.DEFAULT_SCAN + 1]
        assert stats["rescans"] == 1 and stats["splits"] == 2
        want = bs.galerkin_edges(free_particle(), 3)
        assert [(n, d) for n, _, d in edges] == [(e.n, e.degenerate) for e in want]
        assert max(abs(e - w.energy) for (_, e, _), w in zip(edges, want)) <= 1e-12

    def test_piece_above_mu_holds_two_crossings(self):
        # one cell from band 0 of the uneven V to inside gap 2, below that
        # gap's Dirichlet eigenvalue 0.921: it holds gap 1's mu = -0.40116
        # and edges 1 to 3.  The piece above mu brackets edge 2 and the
        # other target's edge 3, both indexed up from mu's count 2g = 2
        pot = uneven_trig()
        want = [e.energy for e in bs.galerkin_edges(pot, 5)]
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        edges = bs._scan_edges(pot, -0.415, 0.9, 1, 5, stats)
        assert stats["splits"] == 1 and stats["rescans"] == 0
        assert [(n, d) for n, _, d in edges] == [(1, False), (2, False), (3, False)]
        assert max(abs(e - want[n]) for n, e, _ in edges) <= 1e-9

    @pytest.mark.parametrize("pot,cells,count", [
        (uneven_trig, 8, 9), (lambda: lame_pot(Family.RAW_LAME, 3, 0.1), 4, 7)],
        ids=["uneven", "raw_lame"])
    def test_split_gap_edges_are_indexed_2g_minus_1_and_2g(self, monkeypatch, pot, cells,
                                                           count):
        # three cells of each scan are split, each at a mu in the closure of
        # gap g of the Galerkin edges; the touch judge measures the middle
        # of the returned edges indexed 2g - 1 and 2g, at gap g's target
        pot, batches, judged = pot(), [], []
        root_batch, overshoot = bs._root_batch, bs._overshoot
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)

        def record_mu(residual, *ends):  # every batch but the last, the crossings', solves mu
            batches.append(root_batch(residual, *ends))
            return batches[-1]

        def record_judge(V, mid, targets):
            judged.extend(zip(mid.tolist(), targets.tolist()))
            return overshoot(V, mid, targets)

        monkeypatch.setattr(bs, "_root_batch", record_mu)
        monkeypatch.setattr(bs, "_overshoot", record_judge)
        ref = [e.energy for e in bs.galerkin_edges(pot, count)]
        edges = bs._scan_edges(pot, bs._span(pot)[0] - 1.0, bs._first_window(pot, count),
                               cells, count, stats)
        got = {n: e for n, e, _ in edges}
        mus = [mu for roots, _ in batches[:-1] for mu in roots.tolist()]
        gaps = [g for mu in mus for g in range(1, count // 2 + 1)
                if ref[2 * g - 1] - 1e-9 <= mu <= ref[2 * g] + 1e-9]
        assert stats["splits"] == len(gaps) == len(mus) == 3
        assert sorted(judged) == sorted(
            (0.5 * (got[2 * g - 1] + got[2 * g]), bs._TARGETS[bs._row(2 * g)]) for g in gaps)

    def test_sample_at_a_dirichlet_eigenvalue(self):
        # a sample where the scan's m12 lies within its error of 0 takes the
        # full-accuracy m12 and count: here the eigenvalue mu of the uneven
        # V's lowest gap, 1.3e-4 above its lower edge, is the middle sample
        pot = uneven_trig()
        want = [e.energy for e in bs.galerkin_edges(pot, 5)]
        mu = bs._root_batch(lambda x, i: bs._monodromy(pot, x)[0][1], [want[1]], [want[2]],
                            *bs._monodromy(pot, want[1:3])[0][1].reshape(2, 1))[0][0]
        Es = np.linspace(mu - 0.02, mu + 0.02, 3)
        M, scale = bs._monodromy(pot, Es, bs.SCAN_TOL, rows=5)
        assert abs(M[1, 1]) <= 4.0 * bs.SCAN_TOL * scale[1]
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        edges = bs._scan_edges(pot, Es[0], Es[2], 2, 5, stats)
        assert [(n, d) for n, _, d in edges] == [(1, False)]
        assert abs(edges[0][1] - want[1]) <= 1e-9

    def test_hiding_cell_below_float_resolution_raises(self, monkeypatch):
        # a count that rises across one ulp can be neither split nor scanned again
        monkeypatch.setattr(bs, "_edges_below", lambda w, res: np.array([1, 3]))
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0, rescans=0)
        with pytest.raises(NumericalError, match="float resolution"):
            bs._scan_edges(free_particle(), 0.5, np.nextafter(0.5, 1.0), 1, 5, stats)

    def test_window_ending_at_a_touch(self):
        # the window of raw Lamé j = 1, m = 0.9 ends at its touch at
        # 2.70607433352215 (Galerkin): the touch's sample is left out and
        # its Dirichlet eigenvalue lies past the last cell, so the scan
        # reports the three edges below it and no spurious edge at the
        # window's end
        pot = lame_pot(Family.RAW_LAME, 1, 0.9)
        stats = dict(splits=0, dirichlet_rounds=0, crossing_rounds=0)
        edges = bs._scan_edges(pot, bs._span(pot)[0] - 1.0, 2.7060743335221527, 256, 7, stats)
        assert stats["splits"] == 0 and [(n, d) for n, _, d in edges] == [
            (0, False), (1, False), (2, False)]
        assert max(abs(e - w) for (_, e, _), w in zip(edges, (0.9, 1.0, 1.9))) <= 1e-12


class TestGeneratedPotentials:
    """Potentials of scripts/engine_fuzz.py's families on which band_edges
    once raised or was wrong; Galerkin is the arbiter."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "engine_fuzz.py"

    @staticmethod
    def assert_galerkin_edges(pot, basis_n=256):
        edges = bs.band_edges(pot, 21)
        for got, want in zip(edges, bs.galerkin_edges(pot, 21, basis_n), strict=True):
            assert abs(got.energy - want.energy) <= 1e-9 * max(1.0, abs(want.energy))

    @pytest.mark.parametrize("terms", [
        [(1, 800.0), (5, 3200.0)],
        [(1, 800.0), (8, 3200.0)],
        [(2, 480.49384942288674), (4, 50.296154297462905), (8, 11.948996885378225),
         (14, -115.90700462092249), (15, 41.72344162817473), (19, 24.090871410546985),
         (20, -159.86572379644417)],
    ], ids=["modes_1_5", "modes_1_8", "seven_modes"])
    def test_four_edges_around_one_critical_point(self, terms):
        # a scan cell holds p a a p (or a p p a), a gap narrower than a
        # cell even at MAX_SCAN: split at its Dirichlet eigenvalue, the two
        # crossings of the other target are bracketed by the trace there
        # (modes_1_5 and modes_1_8 hold cells with two eigenvalues, which
        # are scanned again)
        self.assert_galerkin_edges(cos_series(terms))

    def test_three_unequal_wells(self):
        # two gaps of a three-band cluster share a cell; unnoticed, edges
        # 2-5 are lost and every edge from n = 2 on is off by up to 654, in
        # the boundary pattern
        self.assert_galerkin_edges(cos_series([(3, -800.0), (1, 1.0)]))

    @pytest.mark.parametrize("terms", [
        [(3, -600.9333248872166, 0.0), (1, 1.223335750929871, 0.0)],
        [(3, -793.3960265657058, 0.0), (1, 6.388150669070848, 0.0)],
        [(3, -747.5302252671261, 0.0), (1, 1.7544537136804828, 0.0)],
        [(15, 296.0226976287998, 324.4384859297029), (19, -4.431505358699865, -3.253682916896042),
         (3, -10.01310489215445, 261.4889549038965), (5, -4.485966669622958, 18.158625182578657),
         (9, -407.7226227596572, 11.436604669327656), (10, 1.4851007459078904, 38.574261824087905),
         (23, 771.5641159642167, -124.48329375328422)],
    ], ids=["multiwell_601", "multiwell_793", "multiwell_748", "seven_modes_sin"])
    def test_hidden_band_clusters(self, terms):
        # engine_fuzz cases at seed 0 where one cell holds a whole band and
        # the gaps on both its sides; unnoticed, every edge above is off by
        # 1.9-2.7 relative.  In multiwell_601 a split cell's Dirichlet
        # eigenvalue is the upper edge of its gap, whose lower edge the
        # lower piece brackets only if its root solve starts away from the
        # noise next to that eigenvalue
        pot = runpy.run_path(str(self.SCRIPT))["potential"](terms)
        self.assert_galerkin_edges(pot, 512)

    def test_fuzz_script_runs(self):
        # one case per family, run as a job would: it exits 1 on any wrong
        # answer or raise, and every case here is settled
        cp = subprocess.run([sys.executable, str(self.SCRIPT), "--cases", "1"],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert [line.split()[:3] for line in cp.stdout.splitlines()[-3:]] == [
            ["superlattice", "1", "0"], ["multiwell", "1", "0"], ["modes", "1", "0"]]
        # the cosine sums run over the half period, the mode sum with sine
        # parts over the whole
        assert [line.split()[-1] for line in cp.stdout.splitlines()[-3:]] == ["1", "1", "0"]
        # the rescans and steps x energies columns come before it
        assert cp.stdout.splitlines()[-4].split()[-3:] == ["rescans", "steps", "half"]
        assert all(int(line.split()[-2]) > 0 for line in cp.stdout.splitlines()[-3:])


class TestBenchScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"

    def test_one_round_prints_one_json_line(self):
        cp = subprocess.run([sys.executable, str(self.SCRIPT), "--repeat", "1"],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stdout + cp.stderr
        lines = cp.stdout.splitlines()
        assert len(lines) == 1
        result = json.loads(lines[0])
        assert result.pop("repeat") == 1
        quartiles = result.pop("quartiles")
        counts = [result.pop(key) for key in ("band_edges_products", "band_edges_steps_x_energies",
                                              "galerkin_problems_split", "galerkin_problems",
                                              "selfiso_shifts_evaluated", "src_lines",
                                              "release_band_edges_products",
                                              "release_band_edges_steps_x_energies",
                                              "band_edges_half_period_products",
                                              "release_band_edges_half_period_products",
                                              "band_edges_root_rounds",
                                              "release_band_edges_root_rounds",
                                              "src_code_lines")]
        # every case of the grid is even: each of its 42 problems splits,
        # and each of its products runs over the half period
        assert counts[2:4] == [42, 42]
        assert counts[8] == counts[0]
        # the release job's numeric partners of j = 4, 5 are kept even too
        assert counts[9] == counts[6]
        # every root round forms at least one product, and the scans form more
        assert counts[10] < counts[0] and counts[11] < counts[6]
        # code lines leave out blank, comment-only and docstring lines
        assert counts[12] < counts[5]
        assert sorted(result) == ["band_edges_s", "band_edges_uneven_s", "calib_s",
                                  "galerkin_edges_s", "jacobi_points_per_s",
                                  "numeric_partner_s", "scan_257_energies_per_s",
                                  "selfiso_distance_s", "trace_1_s", "trace_8_s",
                                  "verify_all_s", "verify_edgestates_s", "verify_iso_s",
                                  "verify_limits_s", "verify_selfiso_s"]
        assert all(value > 0.0 for value in result.values())
        suites = ("verify_edgestates_s", "verify_limits_s", "verify_iso_s", "verify_selfiso_s")
        assert result["verify_all_s"] >= sum(result[name] for name in suites)
        # one round: both quartiles are its one value
        assert quartiles == {name: [value, value] for name, value in result.items()}
        assert all(isinstance(c, int) and c > 0 for c in counts)

    def test_counts_read_no_log_record(self):
        # the products and root rounds are summed from the counts each
        # band_edges call keeps on its potential, read by wrapping the
        # public band_edges, not from a log record
        script = runpy.run_path(str(self.SCRIPT))
        pot, other = lame_pot(Family.V_PLUS, 3, 0.5), fuzz_modes()
        with script["_counting"]() as formed:
            bs.band_edges(pot, 7)
        assert formed == pot._magnus["counts"]
        first = pot._magnus["counts"]
        with script["_counting"]() as other_formed:
            bs.band_edges(other, 9)
            bs.band_edges(pot, 7)
        assert other_formed == other._magnus["counts"] + pot._magnus["counts"]
        counts = other._magnus["counts"]
        assert counts["products"] > 0 == counts["half_period_products"]
        # each call's record holds its Dirichlet rounds and its crossing rounds
        rounds = [c["dirichlet_rounds"] + c["crossing_rounds"]
                  for c in (first, counts, pot._magnus["counts"])]
        reported = [script["_reported"]("", c)["root_rounds"] for c in (formed, other_formed)]
        assert [rounds[0], rounds[1] + rounds[2]] == reported and min(rounds) > 0
        assert bs.band_edges.__name__ == "band_edges"

    def test_recorded_counts_match_a_direct_count(self):
        # the split problems and the shifts bench.py reads from the calls'
        # records, against the blocks and the scan formed here directly
        script = runpy.run_path(str(self.SCRIPT))
        pairs = script["_selfiso_pairs"]()
        split = sum(len(bs._cos_sin_blocks(*bs._potential_modes(pot, bs.BASIS_N), pot.period,
                                           periodic)[0]) == 2
                    for pot, _ in script["_grid"]() for periodic in (True, False))
        scans = [verify._scan_distance(spectrum(vp.samples), spectrum(vm.samples), vm.n,
                                       vm.period, verify.SHIFT_SAMPLES)[0] for vp, vm in pairs]
        shifts = sum(int(np.isfinite(d).sum()) for d in scans)
        assert script["_recorded"](pairs) == {"galerkin_problems_split": split,
                                              "galerkin_problems": 42,
                                              "selfiso_shifts_evaluated": shifts}
        assert 0 < split and 0 < shifts

    def test_calib_runs_no_package_code(self):
        # the speed witness is perfbench's kernel as that file defines it
        script = runpy.run_path(str(self.SCRIPT))
        calib = script["CALIB"]
        assert "lamesusy" not in calib["sample"].__globals__
        assert calib["sample"]() > 0.0

    def test_tier1_flag(self):
        # the Tier-1 run itself is too long for Tier-1; its option is listed
        cp = subprocess.run([sys.executable, str(self.SCRIPT), "--help"],
                            capture_output=True, text=True)
        assert cp.returncode == 0 and "--tier1" in cp.stdout


class TestRecords:
    """Each engine call keeps one record, and its one DEBUG line is that
    record rendered: ``what: key value, ...``, keys sorted, values as their
    repr."""

    @staticmethod
    def rendered(what, record):
        values = [v for r in record.values() for v in (r.values() if type(r) is dict else [r])]
        assert all(type(v) in (bool, int, float, str) for v in values)
        return f"{what}: " + ", ".join(f"{key} {record[key]!r}" for key in sorted(record))

    def test_one_debug_line_per_engine_call_is_its_record(self, caplog):
        vm, deep = lame_pot(Family.V_MINUS, 2, 0.5), lame_pot(Family.V_MINUS, 5, 1.0 - 1e-6)
        with caplog.at_level(logging.DEBUG, logger="lamesusy"):
            bs.band_edges(vm, 5)
            want = [self.rendered("band_edges", {**vm._magnus["counts"],
                                                 "asymmetry": vm._magnus["asymmetry"]})]
            bs.monodromy_trace(vm, 0.5)  # no engine call of its own: no line
            bs.galerkin_edges(vm, 5)
            want.append(self.rendered("galerkin_edges", vm._magnus["galerkin"]))
            vp = bs.numeric_partner(vm)
            want.append(self.rendered("numeric_partner", vm._magnus["partner"]))
            with pytest.raises(InvalidGroundStateError):  # a rejected ground state logs too
                bs.numeric_partner(deep)
            want.append(self.rendered("numeric_partner", deep._magnus["partner"]))
            result = verify.selfiso_distance(verify._grid_of(vp), verify._grid_of(vm))
            want.append(self.rendered("selfiso_distance", result.record))
        got = [rec.getMessage() for rec in caplog.records if rec.name.startswith("lamesusy")]
        assert got == want
        assert [rec.name for rec in caplog.records] == ["lamesusy.bandsolver"] * 4 + [
            "lamesusy.verify"]
        assert deep._magnus["partner"]["min_psi"] < 0.0 and vm._magnus["partner"]["min_psi"] > 0.0


class TestLameSweep:
    """Raw Lamé through both engines against the algebraic eigenvalues
    (scripts/lame_sweep.py); a subset that includes the narrowest bands
    (j = 8-10 near m = 1) and the narrowest gaps (small m)."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lame_sweep.py"
    CASES = [(2, 1e-6), (5, 1e-3), (6, 0.1), (7, 0.5), (10, 1e-3), (10, 1e-6),
             (8, 0.99), (9, 0.999), (10, 0.99), (10, 0.999), (9, 1 - 1e-6), (5, 1 - 1e-6)]

    @pytest.fixture(scope="class")
    def check(self):
        return runpy.run_path(str(self.SCRIPT))["check"]

    @pytest.mark.parametrize("engine", ["floquet", "galerkin"])
    @pytest.mark.parametrize("j,m", CASES)
    def test_every_edge_and_boundary(self, check, engine, j, m):
        row = check(j, m, engine)
        assert row["error"] is None and row["boundaries_ok"]
        assert max(e for e in (row["plain"], row["touch"]) if e is not None) <= 1e-9

    def test_sweep_script_runs(self, capsys):
        rows = runpy.run_path(str(self.SCRIPT))["main"]([2, 3], [1e-6, 0.5])
        assert len(rows) == 8
        assert all(r["error"] is None and r["boundaries_ok"] for r in rows)
        out = capsys.readouterr().out
        assert out.count("4 of 4 cases in the boundary pattern") == 2
        # at m = 1e-6 the 7.5e-13 gap of j = 2 is below Galerkin's resolution
        # only, and one gap of j = 3 is closed to float spacing
        assert out.count("cases with a touch: ") == 2
        assert "cases with a touch: 1\n" in out and "cases with a touch: 2\n" in out
        worst = [float(line.split(":")[1].split()[0]) for line in out.splitlines()
                 if "worst non-touch error" in line]
        assert len(worst) == 2 and max(worst) <= 1e-9


class TestGalerkinEdges:
    def test_free_particle_folded_spectrum(self):
        pot = free_particle()
        edges = bs.galerkin_edges(pot, 7)
        base = (math.pi / pot.period) ** 2
        want = [0.0, base, base, 4 * base, 4 * base, 9 * base, 9 * base]
        for got, w in zip(edges, want):
            assert got.energy == pytest.approx(w, abs=1e-9)

    @pytest.mark.parametrize("j, m, lower", [(3, 1e-3, 5), (5, 0.1, 9)])
    def test_narrow_open_gap_is_no_touch(self, j, m, lower):
        # gaps of 3.5e-10 and 5.9e-7 that eigvalsh resolves: open in both
        # engines, while the exact ties of the free particle stay touches
        pot = lame_pot(Family.RAW_LAME, j, m)
        gap = susy._lame(j, m)[lower + 1][0] - susy._lame(j, m)[lower][0]
        for engine in (bs.band_edges, bs.galerkin_edges):
            edge, upper = engine(pot, 2 * j + 1)[lower : lower + 2]
            assert not edge.degenerate and not upper.degenerate
            assert upper.energy - edge.energy == pytest.approx(gap, rel=0.1)
        flags = [e.degenerate for e in bs.galerkin_edges(free_particle(), 5)]
        assert flags == [False, True, True, True, True]
        # the last edge of an even count is flagged by its partner beyond
        # the count, as band_edges flags it
        assert [e.degenerate for e in bs.galerkin_edges(free_particle(), 4)] == flags[:4]

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError, match="Galerkin eigenproblem failed: Eigenvalues"):
            bs.galerkin_edges(lame_pot(Family.V_MINUS, 2, 0.5), 5)

    def test_agrees_with_floquet_on_j2(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        fe = bs.band_edges(pot, 5)
        ge = bs.galerkin_edges(pot, 5)
        assert max(abs(a.energy - b.energy) for a, b in zip(fe, ge)) <= 1e-6

    def test_agrees_with_floquet_on_j3_partner_stiff(self):
        pot = lame_pot(Family.V_PLUS, 3, 0.9)
        fe = bs.band_edges(pot, 7)
        ge = bs.galerkin_edges(pot, 7)
        assert max(abs(a.energy - b.energy) for a, b in zip(fe, ge)) <= 1e-6

    def test_agrees_with_floquet_on_numeric_j5_partner(self):
        # the partner's 512-sample interpolant has modes the 256-point
        # Fourier sampling would alias onto the basis's; on its own grid
        # the two routes agree far below the 1.5e-8 that aliasing left
        pot = verify.partner_pair(5, 0.9)[1]
        fe = bs.band_edges(pot, 11)
        ge = bs.galerkin_edges(pot, 11)
        assert max(abs(a.energy - b.energy) for a, b in zip(fe, ge)) <= 1e-10

    def test_cos_sin_coupling_against_floquet(self):
        pot = uneven_trig()
        fe = bs.band_edges(pot, 9)
        ge = bs.galerkin_edges(pot, 9)
        assert [e.boundary for e in ge] == [e.boundary for e in fe]
        assert max(abs(a.energy - b.energy) for a, b in zip(fe, ge)) <= 1e-10

    def test_cos_sin_matrices_match_the_complex_form(self):
        pot = uneven_trig()
        a, b = bs._potential_modes(pot, 64)
        for periodic, want in zip((True, False), plane_wave_reference(pot, 64)):
            (H,), coupling, bound = bs._cos_sin_blocks(a, b, pot.period, periodic)
            assert coupling > bound  # uneven: solved whole
            assert H.dtype == np.float64 and H.shape == (want.size, want.size)
            got = np.linalg.eigvalsh(H)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        per, anti = plane_wave_reference(pot, 64)
        want = np.sort(np.concatenate([per, anti]))[:9]
        got = [e.energy for e in bs.galerkin_edges(pot, 9)]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_each_edge_is_its_own_problems_ritz_value(self):
        # a mode sum whose band between edges 2 and 3 (5.6e-9 wide) is far
        # narrower than the error of the basis of 64: each edge is still
        # eigenvalue n // 2 of its own boundary's problem
        pot = runpy.run_path(str(TestGeneratedPotentials.SCRIPT))["potential"]([
            (3, 479.6166811219531, 644.4065751835986),
            (1, -1.0045470325210366, -14.54843415278527),
            (2, 195.53557207606843, 1.5100093624601971),
            (19, -563.8850732056593, 800.1287924522554),
            (5, -388.1381098678549, 335.04744365135343),
            (6, 1.9821275492673185, -152.19223741824626),
            (23, 14.210073818452873, -970.9746071396224)])
        a, b = bs._potential_modes(pot, 64)
        spectra = {bnd: np.linalg.eigvalsh(bs._cos_sin_blocks(a, b, pot.period, periodic)[0][0])
                   for bnd, periodic in (("periodic", True), ("antiperiodic", False))}
        assert all(len(H) == 2 * 64 + (bnd == "periodic") for bnd, H in spectra.items())
        edges = bs.galerkin_edges(pot, 21, 64)
        assert [e.boundary for e in edges] == [bs.expected_boundary(n) for n in range(21)]
        assert all(e.energy == spectra[e.boundary][e.n // 2] for e in edges)

    @pytest.mark.parametrize("family, j", [(Family.RAW_LAME, 4), (Family.V_MINUS, 5),
                                           (Family.V_PLUS, 3)])
    @pytest.mark.parametrize("m", [0.1, 0.9])
    def test_even_potentials_split_on_both_boundaries(self, family, j, m):
        pot = lame_pot(family, j, m)
        a, b = bs._potential_modes(pot, 64)
        for periodic in (True, False):
            blocks, coupling, bound = bs._cos_sin_blocks(a, b, pot.period, periodic)
            assert [len(H) for H in blocks] == [64 + periodic, 64] and coupling <= bound

    def test_split_turns_off_above_the_bound(self):
        # an even V plus eps sin(2 pi x / L): the coupling grows as eps,
        # and the problem is solved whole once it passes the bound
        raw = lame_pot(Family.RAW_LAME, 2, 0.5)
        L = raw.period

        def problem(eps):
            pot = bs.PeriodicPotential(L, lambda x: raw_lame(2, 0.5, x)
                                       + eps * np.sin(2 * np.pi * np.asarray(x) / L))
            return bs._cos_sin_blocks(*bs._potential_modes(pot, 64), L, True)

        per_eps = problem(1e-6)[1] / 1e-6
        bound = problem(0.0)[2]
        below, above = (problem(f * bound / per_eps) for f in (0.9, 1.1))
        assert below[1] <= bound < above[1]
        assert [len(below[0]), len(above[0])] == [2, 1]

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_split_spectra_match_the_whole_problem(self, monkeypatch, j):
        # by Weyl's inequality the merged block spectra are the whole
        # problem's to within ||cs||, below the resolved width
        whole = {}
        for m in verify.DEFAULT_M_LIST:
            pots = [lame_pot(Family.RAW_LAME, j, m), lame_pot(Family.V_MINUS, j, m)]
            pots += [lame_pot(Family.V_PLUS, j, m)] if j <= 3 else []
            for k, pot in enumerate(pots):
                a, b = bs._potential_modes(pot, 64)
                for periodic in (True, False):
                    blocks, _, _ = bs._cos_sin_blocks(a, b, pot.period, periodic)
                    split = np.sort(np.concatenate([np.linalg.eigvalsh(H) for H in blocks]))
                    whole[m, k, periodic] = (split, a, b, pot.period)
        monkeypatch.setattr(np.linalg, "norm", lambda x: np.inf)  # the rule off: solve whole
        for (m, k, periodic), (split, a, b, L) in whole.items():
            (H,), _, _ = bs._cos_sin_blocks(a, b, L, periodic)
            want = np.linalg.eigvalsh(H)
            resolved = 16.0 * np.finfo(float).eps * np.abs(want).max()
            assert np.max(np.abs(split - want)) <= resolved

    def test_blocks_logged_at_debug(self):
        for pot, blocks in ((lame_pot(Family.V_MINUS, 3, 0.5), 2), (uneven_trig(), 1)):
            bs.galerkin_edges(pot, 7)
            problems = pot._magnus["galerkin"]
            assert sorted(problems) == ["antiperiodic", "periodic"]
            assert [p["blocks"] for p in problems.values()] == [blocks] * 2
            assert [p["coupling"] <= p["bound"] for p in problems.values()] == [blocks == 2] * 2

    def test_basis_size_validation(self):
        with pytest.raises(DomainError, match="basis_n"):
            bs.galerkin_edges(free_particle(), 40, basis_n=64)


class TestNumericPartner:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_reproduces_closed_form_j2(self, m):
        pot = lame_pot(Family.V_MINUS, 2, m)
        partner = bs.numeric_partner(pot)
        x = np.linspace(0, pot.period, 600, endpoint=False)
        assert np.max(np.abs(partner(x) - v_plus_closed(2, m, x))) <= 1e-6

    def test_reproduces_closed_form_j3(self):
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        partner = bs.numeric_partner(pot)
        x = np.linspace(0, pot.period, 600, endpoint=False)
        assert np.max(np.abs(partner(x) - v_plus_closed(3, 0.5, x))) <= 1e-6

    def test_j1_partner_is_half_period_translate(self):
        m = 0.5
        K = complete_k(m)
        pot = lame_pot(Family.V_MINUS, 1, m)
        partner = bs.numeric_partner(pot)
        x = np.linspace(0, pot.period, 300, endpoint=False)
        assert np.max(np.abs(partner(x) - v_minus(1, m, x - K))) <= 1e-6

    def test_j4_shifted_lame_isospectral(self):
        m = 0.5
        raw = lame_pot(Family.RAW_LAME, 4, m)
        e_raw = bs.band_edges(raw, 9)
        ground = e_raw[0].energy
        shifted = bs.PeriodicPotential(
            period=raw.period, evaluator=lambda x: raw_lame(4, m, x) - ground)
        partner = bs.numeric_partner(shifted)
        e_partner = bs.band_edges(partner, 9)
        for a, b in zip(e_raw, e_partner):
            assert b.energy == pytest.approx(a.energy - ground, abs=1e-5)

    def test_unshifted_input_keeps_spectrum(self):
        # the ground energy is carried through, so no pre-shift is needed
        pot = lame_pot(Family.RAW_LAME, 2, 0.5)
        partner = bs.numeric_partner(pot)
        e_in = bs.band_edges(pot, 5)
        e_out = bs.band_edges(partner, 5)
        assert max(abs(a.energy - b.energy) for a, b in zip(e_in, e_out)) <= 1e-6

    def test_nodal_state_rejected(self):
        # a potential whose lowest periodic eigenstate the pipeline would
        # accept must be nodeless; feed the guard a sign-changing state
        samples = np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False))
        assert np.any(samples[:-1] * samples[1:] < 0)
        g = GridFunction(period=2.0, samples=samples + 1.5)
        assert not np.any(g.samples[:-1] * g.samples[1:] < 0)
        with pytest.raises(InvalidGroundStateError):
            bs._reject_nodal(samples)

    def test_zero_sample_rejected(self):
        # a state that only touches 0, or changes sign only across the
        # period's end, has a node too; log psi would be -inf or nan there
        for psi in ([1.0, 0.5, 0.0, 0.5], [1.0, 0.5, 0.25, -1e-13]):
            with pytest.raises(InvalidGroundStateError):
                bs._reject_nodal(np.array(psi))
        bs._reject_nodal(np.array([1.0, 0.5, 1e-300, 0.5]))

    def test_partner_pipeline_script_runs(self, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "partner_pipeline.py"
        runpy.run_path(str(script))["main"](["0.5"])
        lines = capsys.readouterr().out.splitlines()
        closed = [float(s.split("=")[-1]) for s in lines if "closed-form partner" in s]
        defects = [float(s.split(":")[-1]) for s in lines if "isospectrality defect" in s]
        assert len(closed) == 2 and max(closed) <= 1e-6
        assert len(defects) == 2 and max(defects) <= 1e-6

    @pytest.mark.parametrize("j, m", [(2, 0.5), (4, 0.5), (5, 0.9), (8, 0.95)])
    def test_partner_of_even_potential_is_mirror_symmetric(self, j, m):
        # the cos block's partner keeps its even part: p(x_i) = p(x_(N - i))
        # bit for bit, so the Floquet route takes the half period and the
        # Galerkin route splits both problems
        plus = bs.numeric_partner(lame_pot(Family.V_MINUS, j, m))
        p = plus.evaluator.samples
        assert np.array_equal(p, np.roll(p[::-1], 1))
        assert bs._step_coefficients(plus, 256)[1].shape[0] == 128
        a, b = bs._potential_modes(plus, bs.BASIS_N)
        assert all(len(bs._cos_sin_blocks(a, b, plus.period, periodic)[0]) == 2
                   for periodic in (True, False))

    def test_partner_of_cos_sin_series_is_not_projected(self):
        # a potential with a sine part has its ground state from the whole
        # problem: its partner keeps its odd part, and its spectrum
        terms = [(1, 40.0), (2, -15.0), (3, 6.0)]
        even = cos_series(terms)
        pot = bs.PeriodicPotential(1.0, lambda x: even(x) + 5.0 * np.sin(2 * np.pi * x)
                                   + 3.0 * np.sin(4 * np.pi * x))
        plus = bs.numeric_partner(pot)
        p = plus.evaluator.samples
        assert np.max(np.abs(p - np.roll(p[::-1], 1))) >= 0.1 * np.max(np.abs(p))
        for got, want in zip(bs.band_edges(plus, 9), bs.band_edges(pot, 9)):
            assert got.n == want.n
            assert got.energy == pytest.approx(want.energy, abs=1e-9)
        assert plus._magnus["counts"]["half_period_products"] == 0

    def test_partner_of_uneven_potential_isospectral(self):
        pot = uneven_trig()
        e_in = bs.band_edges(pot, 9)
        e_out = bs.band_edges(bs.numeric_partner(pot), 9)
        assert max(abs(a.energy - b.energy) for a, b in zip(e_in, e_out)) <= 1e-8

    def test_pipeline_solves_real_matrices(self, monkeypatch):
        # ground energy, partner, then both partners' edges, as the
        # partners workload runs them: all real, all split, the ground
        # state from the 65-row cos block alone, no complex solve
        calls = []

        def spy(name, solver):
            def wrapped(H, *args, **kwargs):
                calls.append((name, H.dtype, len(H)))
                return solver(H, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        raw = lame_pot(Family.RAW_LAME, 3, 0.5)
        ground = bs.ground_energy(raw)
        pot = bs.PeriodicPotential(raw.period, lambda x: raw_lame(3, 0.5, x) - ground)
        partner = bs.numeric_partner(pot)
        bs.galerkin_edges(pot, 7)
        bs.galerkin_edges(partner, 7)
        assert all(dtype == np.float64 for _, dtype, _ in calls)
        assert [n for name, _, n in calls if name == "eigvalsh"] == [65] + [65, 64, 64, 64] * 2
        assert [n for name, _, n in calls if name == "eigh"] == [65]

    # the odd part removed grows as min psi_0 falls: at j = 10, m = 0.99
    # log psi_0 resolves so little that it is a tenth of max|V+|
    @pytest.mark.parametrize("j, m, lo, hi, odd_max", [(2, 0.5, 3e-6, 1.0, 1e-9),
                                                       (10, 0.99, 0.0, 1.1e-7, 1.0)])
    def test_ground_state_range_logged_at_debug(self, j, m, lo, hi, odd_max):
        raw = lame_pot(Family.RAW_LAME, j, m)
        bs.numeric_partner(raw)
        record = raw._magnus["partner"]
        assert record["basis_n"] == 64 and record["cos_block"] is True
        assert lo <= record["min_psi"] <= hi
        # the odd part removed, relative to max|V+|: noise of u''
        assert 0.0 < record["odd_part"] <= odd_max

    def test_uneven_ground_state_logged_from_the_whole_problem(self):
        pot = uneven_trig()
        bs.numeric_partner(pot)
        record = pot._magnus["partner"]
        assert record["cos_block"] is False and math.isnan(record["odd_part"])

    def test_even_ground_state_has_no_sine_part(self, monkeypatch):
        # psi_0 comes from the cos block, padded with sine coefficients
        # exactly 0; its energy is the whole problem's to the resolved width
        pot = lame_pot(Family.V_MINUS, 4, 0.5)
        spectra, solved = [], []
        irfft = np.fft.irfft

        def spy(c, *args, **kwargs):
            spectra.append(np.array(c))
            return irfft(c, *args, **kwargs)

        def eigh(H):
            solved.append(np.linalg.eigvalsh(H)[0])
            return eigh_(H)

        eigh_ = np.linalg.eigh
        monkeypatch.setattr(np.fft, "irfft", spy)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        bs.numeric_partner(pot)
        assert spectra[0].size == bs.BASIS_N + 1
        assert np.all(spectra[0].imag == 0.0)
        monkeypatch.setattr(np.linalg, "norm", lambda x: np.inf)  # the rule off: solve whole
        (H,), _, _ = bs._cos_sin_blocks(*bs._potential_modes(pot, bs.BASIS_N), pot.period, True)
        want = np.linalg.eigvalsh(H)
        assert len(solved) == 1
        assert abs(solved[0] - want[0]) <= 16.0 * np.finfo(float).eps * np.abs(want).max()

    def test_ground_solver_failure_is_numerical_error(self):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        with pytest.raises(NumericalError, match="ground-state eigenproblem failed: Eigenvalues"):
            bs._ground_solve(lame_pot(Family.V_MINUS, 2, 0.5), fail)

    def test_ground_energy_helper(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        assert bs.ground_energy(pot) == pytest.approx(0.0, abs=1e-9)
