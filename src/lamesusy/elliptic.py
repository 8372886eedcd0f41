"""Complete elliptic integral K(m) and Jacobi elliptic functions sn, cn, dn.

Real argument, parameter m in [0, 1].  Everything is built on the
arithmetic-geometric mean: K(m) = pi / (2 agm(1, sqrt(1-m))), and the
amplitude phi(x) is recovered by running the Gauss/Landen arcsine
recurrence backwards through the AGM sequence.  This is uniformly
accurate for m up to 1 - 1e-12; m = 0 and m = 1 are exact special
cases (trigonometric and hyperbolic degenerations).

The evaluators preserve the dtype of array input, so callers that need
a lower roundoff floor (e.g. finite-difference residual checks) can
pass ``np.longdouble`` grids.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, _real

AGM_MAX_ITER = 40


class JacobiTriple(NamedTuple):
    """Values of sn, cn, dn at a common point (fields may be arrays)."""

    sn: float
    cn: float
    dn: float


def _check_m(m) -> float:
    m = float(m)
    if not math.isfinite(m) or m < 0.0 or m > 1.0:
        raise DomainError(f"elliptic parameter m must lie in [0, 1], got {m!r}")
    return m


def complete_k(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = pi / (2 a).

    a ends the one AGM chain (_agm_chain) that jacobi reduces its
    argument by, so both agree on the quarter period bit for bit.
    Relative accuracy ~1e-15 for m in [0, 1).  Raises DomainError at
    m = 1 where K diverges.
    """
    m = _check_m(m)
    if m == 1.0:
        raise DomainError("K diverges at m=1")
    return float(math.pi / (2.0 * _agm_chain(m, np.float64)[0][-1]))


def _agm_chain(m: float, dt):
    """AGM sequence (a_n, c_n) descending from (1, sqrt(1-m), sqrt(m)).

    Computed with scalars of dtype ``dt`` so the chain can converge to
    that dtype's epsilon.  Returns (a_list, c_list) with c_list[0] =
    sqrt(m); the chain stops once c_n is negligible relative to a_n.
    """
    eps = float(np.finfo(dt).eps)
    one = dt(1.0)
    a, b = one, np.sqrt(one - dt(m))
    a_list = [a]
    c_list = [np.sqrt(dt(m))]
    c_prev = np.inf
    for _ in range(AGM_MAX_ITER):
        an = 0.5 * (a + b)
        bn = np.sqrt(a * b)
        cn = 0.5 * (a - b)
        a_list.append(an)
        c_list.append(cn)
        a, b = an, bn
        if abs(cn) <= 4.0 * eps * an or abs(cn) >= c_prev:
            return a_list, c_list
        c_prev = abs(cn)
    raise NumericalError(f"AGM failed to converge for m={m!r}")


def jacobi(x, m: float) -> JacobiTriple:
    """Jacobi elliptic functions (sn, cn, dn) at (x, m).

    ``x`` may be a scalar or an ndarray; array input keeps its dtype
    (float64 or longdouble).  The argument is reduced modulo 4K, with pi
    and K in the argument's dtype, before the backward amplitude
    recurrence, but that reduction cannot undo the rounding of x itself:
    the error grows as |x| eps, with eps the machine epsilon of the dtype
    (at m = 0.5 in float64, ~5e-13 at |x| = 1e4 and ~1e-4 at 1e12).
    Where one float step of x spans a whole period, |x| eps >= 4K for
    m < 1, the value is noise, so that raises DomainError, as does an x
    that is not real: complex, a string or any other non-numeric dtype.
    """
    m = _check_m(m)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = _real(x, "argument x")
    if not np.issubdtype(xa.dtype, np.floating):
        xa = xa.astype(float)
    if not np.all(np.isfinite(xa)):
        raise DomainError("argument x must be finite")
    dt = xa.dtype.type

    if m == 1.0:
        sn = np.tanh(xa)
        e = np.exp(-np.abs(xa))  # 1/cosh, which would overflow past |x| ~ 710
        dn = 2.0 * e / (1.0 + e * e)
        cn = dn
    else:
        a_list, c_list = _agm_chain(m, dt)
        quarter = 2.0 * np.arctan(dt(1.0)) / a_list[-1]  # pi / 2 in x's dtype
        top = np.abs(xa).max(initial=0.0)
        if top * np.finfo(dt).eps >= 4.0 * quarter:
            raise DomainError(
                f"|x| up to {float(top)!r} is too large: one float step of x "
                f"spans the period 4K = {float(4.0 * quarter)!r} at m={m!r}")
        if m == 0.0:
            sn = np.sin(xa)
            cn = np.cos(xa)
            dn = np.ones_like(xa)
        else:
            n_last = len(a_list) - 1
            # reduce modulo the full 4K period; reduced x lies in [-2K, 2K]
            xr = xa - (4.0 * quarter) * np.round(xa / (4.0 * quarter))
            phi = dt(2.0**n_last) * a_list[-1] * xr
            for i in range(n_last, 0, -1):
                ratio = c_list[i] / a_list[i]
                phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
            sn = np.sin(phi)
            cn = np.cos(phi)
            # dn > 0 always for m in [0,1]; this form has no cancellation
            dn = np.sqrt((1.0 - dt(m)) + dt(m) * cn * cn)

    if scalar:
        return JacobiTriple(float(sn), float(cn), float(dn))
    return JacobiTriple(sn, cn, dn)
