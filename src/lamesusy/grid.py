"""Uniform periodic grids with trigonometric interpolation.

A GridFunction holds samples of a real function on a uniform grid over
one period [0, L).  Evaluation between samples uses the band-limited
trigonometric interpolant, which is spectrally accurate for analytic
periodic data; derivatives are taken in Fourier space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _positive_int, _real

MIN_SAMPLES = 64


def spectrum(samples: np.ndarray) -> np.ndarray:
    """rfft coefficients of the samples, normalised so that c[0] is the mean."""
    return np.fft.rfft(samples) / len(samples)


def on_fine_grid(coef: np.ndarray, n: int, fine: int) -> np.ndarray:
    """The n-sample interpolant with spectrum ``coef`` (a row per series
    along the last axis) at j*period/fine, j = 0..fine-1, for fine >= n."""
    if n % 2 == 0 and fine > n:  # the Nyquist cosine splits over the modes +-n/2 of the fine grid
        coef = np.concatenate([coef[..., :-1], 0.5 * coef[..., -1:]], axis=-1)
    return np.fft.irfft(coef, n=fine) * fine  # irfft zero-pads to the fine grid


def _mode_weights(n: int) -> np.ndarray:
    """Weight of each rfft mode k = 0..n//2 in the n-sample interpolant:
    2 for an interior mode, 1 for the mode 0 and an even n's Nyquist cosine."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def series_sum(coef: np.ndarray, n: int, period: float, pts: np.ndarray) -> np.ndarray:
    """The n-sample interpolant with spectrum ``coef`` at the points ``pts``.

    ``coef`` may carry one column per series; the result then has one
    column per series too.  The modes carry their ``_mode_weights``; the
    sum is taken in real cos/sin form, 4096 points at a time to bound its
    memory.
    """
    w = _mode_weights(n)[1:]
    if coef.ndim > 1:
        w = w[:, None]
    a, b = w * coef[1:].real, w * coef[1:].imag
    k = np.arange(1, coef.shape[0])
    out = np.empty(pts.shape + coef.shape[1:])
    chunk = 4096
    for lo in range(0, pts.size, chunk):
        theta = np.outer(pts[lo : lo + chunk], k) * (2.0 * np.pi / period)
        out[lo : lo + chunk] = coef[0].real + np.cos(theta) @ a - np.sin(theta) @ b
    return out


@dataclass(frozen=True)
class GridFunction:
    """Real samples on the uniform grid x_j = j*period/n, j = 0..n-1."""

    period: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(_real(self.samples, "GridFunction samples"), dtype=float)
        if samples.ndim != 1 or samples.size < MIN_SAMPLES:
            raise DomainError(
                f"GridFunction needs a 1-d array of at least {MIN_SAMPLES} samples"
            )
        if not np.all(np.isfinite(samples)):
            raise DomainError("GridFunction samples must be finite")
        if not (self.period > 0) or not math.isfinite(self.period):
            raise DomainError(f"period must be positive and finite, got {self.period!r}")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, f, period: float, n: int) -> "GridFunction":
        x = np.arange(n) * (period / n)
        return cls(period=period, samples=f(x))

    @property
    def n(self) -> int:
        return self.samples.size

    def eval(self, pts) -> np.ndarray:
        """Evaluate the trigonometric interpolant at arbitrary points: a float
        for a scalar, else an array of the points' shape; DomainError for
        points that are not real (_real) or not finite."""
        pts = np.asarray(_real(pts, "points"), dtype=float)
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        out = series_sum(spectrum(self.samples), self.n, self.period, pts.ravel())
        return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)

    def __call__(self, pts):
        return self.eval(pts)

    def resample(self, count: int, shift=0.0) -> np.ndarray:
        """The interpolant at (i + shift) * period / count, i = 0..count-1, a row per shift.

        One spectrum, phase-shifted per shift, zero-padded onto the least multiple
        of ``count`` that is >= n and read at every (fine/count)-th point.
        """
        count, n = _positive_int(count, "count"), self.n
        fine = count * -(-n // count)
        phase = np.multiply.outer(np.divide(shift, count), 2j * np.pi * np.arange(n // 2 + 1))
        return on_fine_grid(spectrum(self.samples) * np.exp(phase), n, fine)[..., :: fine // count]

    def derivative(self, order: int = 1) -> "GridFunction":
        """Spectral derivative of the interpolant, as a new GridFunction."""
        order = _positive_int(order, "order", low=0)
        c = np.fft.rfft(self.samples)
        k = np.arange(c.size) * (2.0 * np.pi / self.period)
        c = c * (1j * k) ** order
        if self.n % 2 == 0 and order % 2 == 1:
            c[-1] = 0.0  # odd derivative of the Nyquist cosine is unrepresentable
        return GridFunction(self.period, np.fft.irfft(c, n=self.n))
