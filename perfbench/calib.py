"""Machine-speed calibration: a fixed kernel timed next to and inside ops.

A shared 2-core VM changes its effective speed by up to a third within a
minute (other tenants, clock changes), and CPU time moves with wall time,
so neither hides it.  A small fixed kernel -- interpreted Python and
small LAPACK calls, about 1.5 ms -- slows and speeds up with the ops: the
correlation between a ``partners`` op and the kernel runs beside it is
about 0.75.  The Speedometer runs the kernel right before and right
after each op and, from SIGALRM, every INTERVAL_S inside it.  An op's
time is its wall time minus the kernel runs inside it, rescaled by
NOMINAL_S over the mean kernel time of those runs, so a reported second
is a second on the reference machine at its usual speed.  On that
machine this cut the spread of 12 s window means of a ``partners`` op
from 6.5% to 3% of their mean, and of whole ``gate`` passes from 17% to
8% (range over three passes).

The kernel uses numpy only and never the package, so a change to the
package moves rescaled times exactly as it moves raw ones.  The handler
runs between bytecodes, never inside a C call, and never inside itself.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# median kernel time on the reference machine (2-core VM, numpy with
# OpenBLAS, one thread)
NOMINAL_S = 0.0014
INTERVAL_S = 0.1
SETUP_SAMPLES = 3  # kernel runs on each side of a set-up measurement

_A = np.cos(np.add.outer(np.arange(48.0), np.arange(48.0)) * 0.37)
_A = _A + _A.T + 48.0 * np.eye(48)


def kernel() -> float:
    s = 0.0
    for i in range(10000):
        s += i * 0.5
    for _ in range(4):
        s += float(np.linalg.eigvalsh(_A)[0])
    return s


def sample() -> float:
    """Seconds taken by one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns seconds measured beside these kernel times into
    reference seconds."""
    return NOMINAL_S * len(samples) / sum(samples)


def warm() -> None:
    """The first calls pay for loading LAPACK; keep them out of samples."""
    for _ in range(3):
        kernel()


class Speedometer:
    """Kernel times taken on demand and, while running, from SIGALRM."""

    def __init__(self):
        self.samples = []  # kernel durations, in the order taken
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(sample())
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Call fn(); returns (result, error, wall s, raw s, reference s).

        Raw seconds are wall seconds less the kernel runs made inside the
        call.  An exception from fn is returned as the error, not raised.
        """
        self.sample()
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a raised op is a failed op
            out, err = None, exc
        t1 = time.perf_counter()
        inside = self.samples[first:]
        self.sample()
        raw = t1 - t0 - sum(inside)
        return out, err, t1 - t0, raw, raw * scale(self.samples[first - 1:])
