"""Uniform periodic grids with trigonometric interpolation.

A GridFunction holds samples of a real function on a uniform grid over
one period [0, L).  Evaluation between samples uses the band-limited
trigonometric interpolant, which is spectrally accurate for analytic
periodic data; derivatives are taken in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

MIN_SAMPLES = 64


@dataclass(frozen=True)
class GridFunction:
    """Real samples on the uniform grid x_j = j*period/n, j = 0..n-1."""

    period: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < MIN_SAMPLES:
            raise DomainError(
                f"GridFunction needs a 1-d array of at least {MIN_SAMPLES} samples"
            )
        if not np.all(np.isfinite(samples)):
            raise DomainError("GridFunction samples must be finite")
        if not (self.period > 0):
            raise DomainError(f"period must be positive, got {self.period!r}")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, f, period: float, n: int) -> "GridFunction":
        x = np.arange(n) * (period / n)
        return cls(period=period, samples=np.asarray(f(x), dtype=float))

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.period / self.n)

    def _coeffs(self):
        # rfft coefficients normalised so that c[0] is the mean
        return np.fft.rfft(self.samples) / self.n

    def eval(self, pts) -> np.ndarray:
        """Evaluate the trigonometric interpolant at arbitrary points."""
        scalar = np.isscalar(pts) or np.ndim(pts) == 0
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        c = self._coeffs()
        n = self.n
        k = np.arange(1, c.size)
        # interior modes carry weight 2; the Nyquist mode (even n) weight 1
        w = np.full(k.size, 2.0)
        if n % 2 == 0:
            w[-1] = 1.0
        a = w * c[1:].real
        b = w * c[1:].imag
        out = np.empty(pts.shape)
        chunk = 4096
        for lo in range(0, pts.size, chunk):
            theta = np.outer(pts[lo : lo + chunk], k) * (2.0 * np.pi / self.period)
            out[lo : lo + chunk] = c[0].real + np.cos(theta) @ a - np.sin(theta) @ b
        if scalar:
            return float(out[0])
        return out

    def __call__(self, pts):
        return self.eval(pts)

    def resample(self, count: int, shift: float = 0.0) -> np.ndarray:
        """The interpolant at (i + shift) * period / count, i = 0..count-1.

        One phase-shifted rfft, zero-padded onto the least multiple of
        ``count`` that is >= n and read at every (fine/count)-th point.
        """
        n = self.n
        fine = count * -(-n // count)
        c = np.fft.rfft(self.samples) * np.exp(2j * np.pi * np.arange(n // 2 + 1) * (shift / count))
        if n % 2 == 0 and fine > n:
            c[-1] *= 0.5  # the Nyquist cosine splits over the modes +-n/2 of the fine grid
        return np.fft.irfft(c, n=fine)[:: fine // count] * (fine / n)

    def derivative(self, order: int = 1) -> "GridFunction":
        """Spectral derivative of the interpolant, as a new GridFunction."""
        c = np.fft.rfft(self.samples)
        k = np.arange(c.size) * (2.0 * np.pi / self.period)
        c = c * (1j * k) ** order
        if self.n % 2 == 0 and order % 2 == 1:
            c[-1] = 0.0  # odd derivative of the Nyquist cosine is unrepresentable
        return GridFunction(self.period, np.fft.irfft(c, n=self.n))

    def spectral_filter(self) -> "GridFunction":
        """Zero Fourier modes below 1e-9 of the largest one."""
        c = np.fft.rfft(self.samples)
        mags = np.abs(c)
        c[mags < 1e-9 * mags.max()] = 0.0
        return GridFunction(self.period, np.fft.irfft(c, n=self.n))
