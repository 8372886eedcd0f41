"""Tests for uniform periodic grids and trigonometric interpolation."""

import math

import numpy as np
import pytest

from lamesusy.errors import DomainError
from lamesusy.grid import GridFunction


def trig_poly(x):
    return 1.0 + np.sin(x) - 0.4 * np.cos(3 * x) + 0.05 * np.sin(7 * x)


class TestGridFunction:
    def test_requires_minimum_samples(self):
        with pytest.raises(DomainError):
            GridFunction(period=1.0, samples=np.ones(16))

    def test_rejects_nonfinite(self):
        bad = np.ones(64)
        bad[3] = np.inf
        with pytest.raises(DomainError):
            GridFunction(period=1.0, samples=bad)
        for period in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError, match="period"):
                GridFunction(period=period, samples=np.ones(64))

    def test_rejects_complex_samples(self):
        # refused, not cast to their real part with a ComplexWarning
        wave = lambda x: np.exp(1j * x)
        with pytest.raises(DomainError, match="samples must be real, got dtype complex128"):
            GridFunction(period=2 * math.pi, samples=wave(np.arange(64) * (2 * math.pi / 64)))
        with pytest.raises(DomainError, match="must be real"):
            GridFunction.from_function(wave, 2 * math.pi, 64)
        g = GridFunction.from_function(np.cos, 2 * math.pi, 64)
        for pts in (np.array([0.1 + 0.5j]), "0.1"):
            with pytest.raises(DomainError, match="points must be real"):
                g.eval(pts)

    def test_eval_reproduces_samples(self):
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 128)
        x = np.arange(g.n) * (g.period / g.n)
        assert np.max(np.abs(g.eval(x) - g.samples)) <= 1e-12

    def test_eval_interpolates_band_limited_exactly(self):
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 128)
        pts = np.linspace(0.05, 6.0, 77)
        assert np.max(np.abs(g.eval(pts) - trig_poly(pts))) <= 1e-12

    def test_eval_scalar(self):
        g = GridFunction.from_function(np.cos, 2 * math.pi, 64)
        assert isinstance(g.eval(0.3), float)
        assert g.eval(0.3) == pytest.approx(math.cos(0.3), abs=1e-12)

    def test_eval_rejects_points_that_are_not_finite(self):
        # refused, as jacobi and monodromy_trace refuse them, not summed to
        # nan or to a warning of cos
        g = GridFunction.from_function(np.cos, 2 * math.pi, 64)
        for pts in (math.nan, math.inf, -math.inf, np.array([0.1, math.nan, 0.2]),
                    np.array([[0.1, 0.2], [math.inf, 0.3]])):
            with pytest.raises(DomainError, match="points must be finite"):
                g.eval(pts)

    def test_eval_keeps_the_shape_of_its_points(self):
        # the points are summed flat and the values reshaped to them
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 128)
        pts = np.linspace(0.05, 6.0, 24)
        for shape in ((2, 12), (2, 3, 4), (24, 1)):
            assert np.array_equal(g.eval(pts.reshape(shape)), g.eval(pts).reshape(shape))

    def test_callable_is_eval(self):
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 128)
        pts = np.linspace(0.05, 6.0, 77)
        assert np.array_equal(g(pts), g.eval(pts))

    @pytest.mark.parametrize("n", [64, 65, 256, 512])
    @pytest.mark.parametrize("count", [96, 256, 300, 1024])
    def test_resample_matches_eval(self, n, count):
        # white noise fills every mode, the Nyquist cosine of an even n too
        g = GridFunction(2.7, np.random.default_rng(n + count).standard_normal(n))
        for shift in (0.0, 0.1127, 0.5, 0.8873, -0.3):
            pts = (np.arange(count) + shift) * (2.7 / count)
            assert np.max(np.abs(g.resample(count, shift) - g.eval(pts))) <= 1e-12

    @pytest.mark.parametrize("n", [511, 512])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_array_of_shifts_matches_one_call_per_shift(self, n, factor):
        # one spectrum and one irfft along the last axis serve every row;
        # 2n halves an even n's Nyquist cosine on every row
        g = GridFunction(2.7, np.random.default_rng(n).standard_normal(n))
        shifts = np.array([[0.0, 0.1127], [0.5, -0.3], [0.8873, 8.37]])
        rows = g.resample(factor * n, shifts)
        assert rows.shape == shifts.shape + (factor * n,)
        for i in np.ndindex(shifts.shape):
            assert np.array_equal(rows[i], g.resample(factor * n, shifts[i]))

    def test_size_arguments_validated(self):
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 64)
        for count in (0, -3, 10.5):
            with pytest.raises(DomainError, match="count must be a positive integer"):
                g.resample(count)
        for order in (-1, 1.5):
            with pytest.raises(DomainError, match="order must be an integer >= 0"):
                g.derivative(order)
        assert np.array_equal(g.derivative(np.int64(2)).samples, g.derivative(2).samples)

    def test_spectral_derivatives(self):
        g = GridFunction.from_function(trig_poly, 2 * math.pi, 128)
        d1 = lambda x: np.cos(x) + 1.2 * np.sin(3 * x) + 0.35 * np.cos(7 * x)
        d2 = lambda x: -np.sin(x) + 3.6 * np.cos(3 * x) - 2.45 * np.sin(7 * x)
        x = np.arange(g.n) * (g.period / g.n)
        assert np.max(np.abs(g.derivative(1).samples - d1(x))) <= 1e-10
        assert np.max(np.abs(g.derivative(2).samples - d2(x))) <= 1e-9
