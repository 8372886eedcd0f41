"""Tests for the Floquet and Galerkin band-structure engines."""

import math

import numpy as np
import pytest

from lamesusy import bandsolver as bs
from lamesusy import verify
from lamesusy.elliptic import complete_k
from lamesusy.errors import (
    DomainError,
    IncompleteSpectrumError,
    InvalidGroundStateError,
    NumericalError,
)
from lamesusy.grid import GridFunction
from lamesusy.susy import (
    Family,
    PotentialSpec,
    band_edge_energies,
    psi_minus,
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


class TestPeriodicPotential:
    def test_validation_catches_aperiodic_evaluator(self):
        bad = bs.PeriodicPotential(period=1.0, evaluator=lambda x: np.asarray(x, float))
        with pytest.raises(DomainError, match="periodic"):
            bad.validate()

    def test_bad_constructor_arguments(self):
        with pytest.raises(DomainError):
            bs.PeriodicPotential(period=-1.0, evaluator=lambda x: 0.0 * x)
        with pytest.raises(DomainError):
            bs.PeriodicPotential(period=1.0, evaluator=lambda x: 0.0 * x,
                                 smoothness_hint="wavelet")

    def test_scalar_only_evaluator_is_accepted(self):
        pot = bs.PeriodicPotential(period=2.0, evaluator=lambda x: math.cos(math.pi * x))
        pot.validate()
        assert pot.sample(64).shape == (64,)


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

    def test_constant_potential_shear(self):
        pot = bs.PeriodicPotential(period=2.0,
                                   evaluator=lambda x: 1.5 + 0.0 * np.asarray(x, float))
        assert bs.monodromy_trace(pot, 1.5) == pytest.approx(2.0, abs=1e-10)

    def test_ground_edge_of_shifted_potential(self):
        # the zero-energy state of V- makes trace(0) = +2
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        assert bs.monodromy_trace(pot, 0.0) == pytest.approx(2.0, abs=1e-7)

    def test_discriminant_wrapper(self):
        pot = free_particle()
        d = bs.discriminant(pot, 0.5)
        assert d.energy == 0.5
        assert d.value == pytest.approx(2 * math.cos(math.sqrt(0.5) * math.pi), abs=1e-9)

    def test_discriminant_band_gap_dichotomy(self):
        # |trace| <= 2 inside allowed bands, >= 2 inside gaps
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        e = band_edge_energies(2, 0.5)
        inside_bands = np.concatenate([np.linspace(e[0], e[1], 9)[1:-1],
                                       np.linspace(e[2], e[3], 9)[1:-1]])
        inside_gaps = np.concatenate([np.linspace(e[1], e[2], 9)[1:-1],
                                      np.linspace(e[3], e[4], 9)[1:-1]])
        tr_band = bs._trace_batch(pot, inside_bands)
        tr_gap = bs._trace_batch(pot, inside_gaps)
        assert np.all(np.abs(tr_band) <= 2.0 + 1e-8)
        assert np.all(np.abs(tr_gap) >= 2.0 - 1e-8)

    @pytest.mark.parametrize("make", [
        lambda: lame_pot(Family.V_PLUS, 2, 0.5),
        lambda: verify._partner_pair(5, 0.5)[1],
    ], ids=["closed_form_vplus", "numeric_j5_vplus"])
    def test_trace_independent_of_batch_and_history(self, make):
        # the step count is settled per potential and energy range, and the
        # energies are chunked; neither may leak into the value at one E
        used = make()
        bs.band_edges(used, 5)
        bs.monodromy_trace(used, 100.0)  # settles a higher energy range first
        s = used.sample(256)
        Es = np.linspace(s.min() - 1.0, s.max() + 20.0, 2049)
        batch = bs._trace_batch(used, Es)
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

    def test_free_particle_degenerate_pairs(self):
        edges = bs.band_edges(free_particle(), 5)
        want = (0.0, 1.0, 1.0, 4.0, 4.0)
        for got, w in zip(edges, want):
            assert got.energy == pytest.approx(w, abs=1e-6)
        assert [e.degenerate for e in edges] == [False, True, True, True, True]

    def test_incomplete_spectrum_error(self):
        with pytest.raises(IncompleteSpectrumError) as exc:
            bs.band_edges(lame_pot(Family.V_MINUS, 2, 0.5), 5, e_max=1.0)
        assert len(exc.value.found) < 5

    def test_count_validation(self):
        with pytest.raises(DomainError):
            bs.band_edges(free_particle(), 0)


class TestBlochEdgeState:
    def test_ground_state_matches_closed_form(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        edges = bs.band_edges(pot, 5)
        state = bs.bloch_edge_state(pot, edges[0], 512)
        closed = psi_minus(2, 0, 0.5, state.x)
        r = state.samples / closed
        assert (r.max() - r.min()) / abs(np.median(r)) <= 1e-6

    def test_j3_ground_state_matches_closed_form(self):
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        edges = bs.band_edges(pot, 7)
        state = bs.bloch_edge_state(pot, edges[0], 512)
        closed = psi_minus(3, 0, 0.5, state.x)
        r = state.samples / closed
        assert (r.max() - r.min()) / abs(np.median(r)) <= 1e-6

    def test_free_particle_bottom_state_constant(self):
        pot = free_particle()
        edges = bs.band_edges(pot, 1)
        state = bs.bloch_edge_state(pot, edges[0], 128)
        assert np.max(np.abs(state.samples - 1.0)) <= 1e-8

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_residuals_on_grid(self, n):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        edges = bs.band_edges(pot, 5)
        state = bs.bloch_edge_state(pot, edges[n], 512)
        if edges[n].boundary == "periodic":
            second = state.derivative(2).samples
        else:
            doubled = GridFunction(2 * pot.period,
                                   np.concatenate([state.samples, -state.samples]))
            second = doubled.derivative(2).samples[:512]
        v = pot._eval_vec(state.x)
        res = np.abs(-second + (v - edges[n].energy) * state.samples)
        assert res.max() <= 1e-6 * np.abs(state.samples).max()

    def test_grid_not_dividing_step_count(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        edges = bs.band_edges(pot, 5)
        state = bs.bloch_edge_state(pot, edges[0], 96)
        closed = psi_minus(2, 0, 0.5, state.x)
        r = state.samples / closed
        assert (r.max() - r.min()) / abs(np.median(r)) <= 1e-6

    def test_normalization(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.3)
        edges = bs.band_edges(pot, 5)
        state = bs.bloch_edge_state(pot, edges[2], 256)
        assert np.max(np.abs(state.samples)) == pytest.approx(1.0, rel=1e-12)


class TestGalerkinEdges:
    def test_free_particle_folded_spectrum(self):
        pot = free_particle()
        edges = bs.galerkin_edges(pot, 7)
        base = (math.pi / pot.period) ** 2
        want = [0.0, base, base, 4 * base, 4 * base, 9 * base, 9 * base]
        for got, w in zip(edges, want):
            assert got.energy == pytest.approx(w, abs=1e-9)

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

    def test_basis_size_validation(self):
        with pytest.raises(DomainError, match="basis_n"):
            bs.galerkin_edges(free_particle(), 40, basis_n=64)


class TestNumericPartner:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_reproduces_closed_form_j2(self, m):
        pot = lame_pot(Family.V_MINUS, 2, m)
        partner = bs.numeric_partner(pot, grid_n=512)
        x = np.linspace(0, pot.period, 600, endpoint=False)
        assert np.max(np.abs(partner._eval_vec(x) - v_plus_closed(2, m, x))) <= 1e-6

    def test_reproduces_closed_form_j3(self):
        pot = lame_pot(Family.V_MINUS, 3, 0.5)
        partner = bs.numeric_partner(pot, grid_n=512)
        x = np.linspace(0, pot.period, 600, endpoint=False)
        assert np.max(np.abs(partner._eval_vec(x) - v_plus_closed(3, 0.5, x))) <= 1e-6

    def test_j1_partner_is_half_period_translate(self):
        m = 0.5
        K = complete_k(m)
        pot = lame_pot(Family.V_MINUS, 1, m)
        partner = bs.numeric_partner(pot, grid_n=512)
        x = np.linspace(0, pot.period, 300, endpoint=False)
        assert np.max(np.abs(partner._eval_vec(x) - v_minus(1, m, x - K))) <= 1e-6

    def test_j4_shifted_lame_isospectral(self):
        m = 0.5
        raw = lame_pot(Family.RAW_LAME, 4, m)
        e_raw = bs.band_edges(raw, 9)
        ground = e_raw[0].energy
        shifted = bs.PeriodicPotential(
            period=raw.period, evaluator=lambda x: raw_lame(4, m, x) - ground)
        partner = bs.numeric_partner(shifted, grid_n=512)
        e_partner = bs.band_edges(partner, 9)
        for a, b in zip(e_raw, e_partner):
            assert b.energy == pytest.approx(a.energy - ground, abs=1e-5)

    def test_unshifted_input_keeps_spectrum(self):
        # the ground energy is carried through, so no pre-shift is needed
        pot = lame_pot(Family.RAW_LAME, 2, 0.5)
        partner = bs.numeric_partner(pot, grid_n=512)
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

    def test_grid_requirements(self):
        with pytest.raises(DomainError):
            bs.numeric_partner(free_particle(), grid_n=32)

    def test_ground_energy_helper(self):
        pot = lame_pot(Family.V_MINUS, 2, 0.5)
        assert bs.ground_energy(pot) == pytest.approx(0.0, abs=1e-9)
