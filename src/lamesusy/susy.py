"""Lamé edge states of the sn^2 potential family and their SUSY partners.

The 2j+1 band edges of m j(j+1) sn^2(x, m) carry the Lamé polynomials
sn^a cn^b dn^c P(sn^2), a, b, c in {0, 1} (Ince 1940; Arscott,
*Periodic Differential Equations*, 1964, ch. IX).  For each type
(a, b, c) the coefficients of P are the eigenvectors of a small
tridiagonal matrix, so one algebraic route gives, for every j >= 1,
the zero-ground-energy potential V-(x) (the sn^2 potential shifted by
a constant so its lowest band edge sits at energy 0) and its 2j+1
band-edge energies; and, for j = 1, 2, 3, what needs P(sn^2) itself,
whose Horner sum cancels below roundoff for some larger j near m = 1:

  * the superpotential W = -(log psi_0)' of the nodeless ground state,
  * the partner potential V+ both as 2W^2 - V- (the printed closed
    form) and as W^2 + W', with W' differentiated through P'', so the
    two routes cross-check,
  * the band-edge eigenfunctions of V- (all five for j = 2, the ground
    state for j = 3); those of V+ keep the paper's printed j = 2 table.

Eigenfunctions are deliberately left un-normalized; consumers compare
shapes through ratios or residuals, never absolute scale.

All evaluators accept scalars or ndarrays and preserve a longdouble
dtype, which keeps finite-difference residual checks below their
roundoff floor.  A scalar or 0-d input gives a float, since jacobi and
the Lamé coefficients do.  Everything here is a pure function of its
arguments; the Lamé states of each (j, m) sit behind an lru_cache
(recomputation under a race is idempotent), so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import bandsolver
from .elliptic import _check_m, complete_k, jacobi
from .errors import DomainError, _positive_int


def _check_j(j: int) -> int:
    return _positive_int(j, "index j")


def _check_closed_j(j: int) -> int:
    j = _check_j(j)
    if j > 3:
        raise DomainError(
            f"W, V+ and the edge states have closed forms for j <= 3 only, got j={j}; "
            f"bandsolver.numeric_partner builds V+, but W and the states have no numeric route"
        )
    return j


@lru_cache(maxsize=1024)
def _lame(j: int, m: float) -> tuple:
    """The 2j+1 edge states of m j(j+1) sn^2, in edge order.

    Entry n is (raw energy, (a, b, c), coefficients of P in powers of
    t = sn^2) for the state sn^a cn^b dn^c P(t), the energy a longdouble,
    so that band_edge_energies rounds each edge of V- once.  With s =
    a + b + c of the parity of j and K = (j - s)/2, the operator
    -d^2/dx^2 + m j(j+1) t maps t^k to
        -2k(2k - 1 + 2a) t^(k-1)
        + ((2k + a + b)^2 + m (2k + a + c)^2) t^k
        + m (j - 2k - s)(j + 2k + s + 1) t^(k+1),
    so each type is a (K+1)x(K+1) tridiagonal eigenproblem.  Its
    off-diagonal products are negative, hence eig, not eigh, whose energies
    (5e-13 relative) _refined takes to within 1.1e-16 of 50-digit ones, over
    j = 1..10 at lame_sweep.py's moduli.

    The index comes from the oscillation theorem, not from sorting the
    energies, which tie to below an ulp near m = 1: the r-th lowest
    state of a type has r zeros of P in (0, 1), so Z = a + b + 2r zeros
    per period, and edge n = 2Z - 1 + (a + Z + 1) mod 2 (n = 0 at Z = 0).

    P is the first column of adj((A - E)/2), a null vector of A - E.
    eig gives its direction; of the column itself only the entry at the
    eigenvector's largest component is formed, where its minor does not
    cancel.  That is the scale of the printed j = 2, 3 states, e.g.
    (1 + m + delta) - 3m sn^2, and at m = 0 it keeps every coefficient
    of the ground state's P beyond the first exactly 0.
    """
    states = {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        s = a + b + c
        if s > j or (j - s) % 2:
            continue
        K = (j - s) // 2
        k = np.arange(K + 1.0)
        up = m * (j - 2 * k[:-1] - s) * (j + 2 * k[:-1] + s + 1)
        A = (np.diag((2 * k + a + b) ** 2 + m * (2 * k + a + c) ** 2)
             + np.diag(-2 * k[1:] * (2 * k[1:] - 1 + 2 * a), 1) + np.diag(up, -1))
        energies, vectors = np.linalg.eig(A)
        wide = np.longdouble(m)  # A's diagonal and off-diagonal products in longdouble
        diag = (2 * k + a + b) ** 2 + wide * (2 * k + a + c) ** 2
        products = wide * (j - 2 * k[:-1] - s) * (j + 2 * k[:-1] + s + 1) * np.diag(A, 1)
        for r, i in enumerate(np.argsort(energies.real)):
            e, v = _refined(diag, products, energies[i].real), vectors[:, i].real
            top = int(np.argmax(np.abs(v)))
            minor = np.linalg.det(A[top + 1:, top + 1:] - float(e) * np.eye(K - top))
            scale = np.prod(-up[:top]) * minor / 2.0 ** K / v[top]
            z = a + b + 2 * r
            n = 2 * z - 1 + (a + z + 1) % 2 if z else 0
            states[n] = (e, (a, b, c), tuple((v * scale).tolist()))
    return tuple(states[n] for n in range(2 * j + 1))


def _refined(diag, products, e: float) -> np.longdouble:
    """e after 4 Newton steps on f(E) = det(T - E), T tridiagonal with the
    diagonal ``diag`` and the off-diagonal products ``products``, both
    longdouble.  f and f' come from the three-term continuant f_k = (d_k -
    E) f_(k-1) - p_(k-1) f_(k-2), f_(-1) = 1, in longdouble."""
    E = np.longdouble(e)
    for _ in range(4):
        f, f_prev, df, df_prev = diag[0] - E, 1.0, -1.0, 0.0
        for d, p in zip(diag[1:], products):
            f, f_prev, df, df_prev = (d - E) * f - p * f_prev, f, (d - E) * df - f - p * df_prev, df
        E -= f / df if df != 0.0 else 0.0
    return E


def _horner(p, t):
    """P(t), P'(t) and P''(t) in one Horner pass; p holds ascending powers."""
    P = dP = ddP = 0.0 * t
    for coef in p[::-1]:
        ddP = ddP * t + 2.0 * dP
        dP = dP * t + P
        P = P * t + coef
    return P, dP, ddP


def _ground_w(j: int, m: float, sn, cn, dn):
    """W and W' of psi_0 = dn^c P(sn^2), the ground type (0, 0, j mod 2).

    W = sn cn dn q with q = c m / dn^2 - 2 P'/P; W' differentiates this
    product with P'', never through the Riccati identity W^2 - V-.
    """
    _, (_, _, c), p = _lame(j, m)[0]
    s2, c2, d2 = sn * sn, cn * cn, dn * dn
    P, dP, ddP = _horner(p, s2)
    q = c * m / d2 - 2.0 * dP / P
    dq = c * m * m / (d2 * d2) - 2.0 * (ddP / P - (dP / P) ** 2)
    w = sn * cn * dn * q
    return w, (d2 * (c2 - s2) - m * s2 * c2) * q + 2.0 * s2 * c2 * d2 * dq


def _triple(j: int, m: float, x):
    """Domain-checked (j, m, sn, cn, dn) for the closed-form evaluators."""
    j = _check_closed_j(j)
    m = _check_m(m)
    return (j, m, *jacobi(x, m))


def raw_lame(j: int, m: float, x):
    """The bare potential m j(j+1) sn^2(x, m)."""
    j, m = _check_j(j), _check_m(m)
    sn = jacobi(x, m).sn
    return m * j * (j + 1) * sn * sn


def _v_minus(j: int, m: float, sn):
    return m * j * (j + 1) * sn * sn - float(_lame(j, m)[0][0])


def v_minus(j: int, m: float, x):
    """Zero-ground-energy potential V- for any index j >= 1.

    m j(j+1) sn^2 less the ground energy; printed, with delta =
    sqrt(1 - m + m^2) and delta1 = sqrt(1 - m + 4m^2):
    j=1:  2m sn^2 - m
    j=2: -2 - 2m + 2 delta  + 6m sn^2
    j=3: -2 - 5m + 2 delta1 + 12m sn^2
    """
    j, m = _check_j(j), _check_m(m)
    return _v_minus(j, m, jacobi(x, m).sn)


def superpotential(j: int, m: float, x):
    """Superpotential W = -(log psi_0)' of the j-th zero-energy state.

    j=1: m sn cn / dn
    j=2: 6m sn cn dn / (1 + m + delta - 3m sn^2)
    j=3: (m sn cn / dn) (2m + delta1 + 11 - 15m sn^2)
                       / (2m + delta1 + 1  -  5m sn^2)

    P has no zero on [0, 1], so the denominators stay positive.
    """
    j, m, sn, cn, dn = _triple(j, m, x)
    return _ground_w(j, m, sn, cn, dn)[0]


def v_plus_closed(j: int, m: float, x):
    """Closed-form partner potential V+ = 2W^2 - V- for j in {2, 3}.

    j=2: -V- + 72 m^2 sn^2 cn^2 dn^2 / (1 + m + delta - 3m sn^2)^2
    j=3: -V- + (2 m^2 sn^2 cn^2 / dn^2)
               (2m + delta1 + 11 - 15m sn^2)^2
             / (2m + delta1 + 1  -  5m sn^2)^2
    """
    if j not in (2, 3):
        raise DomainError(
            f"closed-form V+ exists for j in (2, 3) only, got {j!r}; "
            "j=1 is covered by v_plus_susy, j>=4 by the numeric pipeline"
        )
    return _v_plus_closed(*_triple(j, m, x))


def _v_plus_closed(j: int, m: float, sn, cn, dn):
    w = _ground_w(j, m, sn, cn, dn)[0]
    return 2.0 * w * w - _v_minus(j, m, sn)


def v_plus_susy(j: int, m: float, x):
    """Partner potential through the factorization route, W^2 + W'."""
    j, m, sn, cn, dn = _triple(j, m, x)
    w, w_prime = _ground_w(j, m, sn, cn, dn)
    return w * w + w_prime


def v_minus_check(j: int, m: float, x):
    """W^2 - W'; must reproduce v_minus wherever both are defined."""
    j, m, sn, cn, dn = _triple(j, m, x)
    w, w_prime = _ground_w(j, m, sn, cn, dn)
    return w * w - w_prime


# ---------------------------------------------------------------------------
# band-edge energies and eigenfunctions
# ---------------------------------------------------------------------------

def band_edge_energies(j: int, m: float) -> tuple:
    """All 2j+1 band-edge energies of V-(j, m), in edge order.

    Edge order is ascending; edges that tie to below an ulp near m = 1
    keep the oscillation-theorem order.  The j=2 ones are printed as
    (0, 2 delta - 1 - m, 2 delta - 1 + 2m, 2 delta + 2 - m, 4 delta).
    """
    states = _lame(_check_j(j), _check_m(m))
    return tuple(float(e - states[0][0]) for e, _, _ in states)


def psi_minus(j: int, n: int, m: float, x):
    """Un-normalized band-edge eigenfunction sn^a cn^b dn^c P(sn^2) of V-.

    Supported: j=2 with n in 0..4, and the j=3 ground state (n=0):
    dn (1 + 2m + delta1 - 5m sn^2).  Higher j=3 states have no closed
    form here.
    """
    return _psi_minus(*_state_setup(j, n, m, x))


def _psi_minus(j: int, n: int, m: float, sn, cn, dn):
    _, (a, b, c), p = _lame(j, m)[n]
    return sn ** a * cn ** b * dn ** c * _horner(p, sn * sn)[0]


def psi_minus_prime(j: int, n: int, m: float, x):
    """Analytic d/dx of psi_minus, for intertwining checks."""
    return _psi_minus_prime(*_state_setup(j, n, m, x))


def _psi_minus_prime(j: int, n: int, m: float, sn, cn, dn):
    _, (a, b, c), p = _lame(j, m)[n]
    # sn' = cn dn, cn' = -sn dn, dn' = -m sn cn, and a, b, c are 0 or 1
    prefactor_prime = (a * cn ** (b + 1) * dn ** (c + 1) - b * sn ** (a + 1) * dn ** (c + 1)
                       - c * m * sn ** (a + 1) * cn ** (b + 1))
    P, dP, _ = _horner(p, sn * sn)
    return prefactor_prime * P + sn ** a * cn ** b * dn ** c * dP * 2.0 * sn * cn * dn


def psi_plus(j: int, n: int, m: float, x):
    """Un-normalized band-edge eigenfunction of V+ (j=2 only), as printed.

    The ground state is 1/psi_minus(j, 0); excited states are
    proportional to (d/dx + W) psi_minus(j, n) with an x-independent
    constant, which is what the verification suite checks.
    """
    if j != 2:
        raise DomainError(f"closed-form partner eigenfunctions exist for j=2 only, got {j!r}")
    return _psi_plus(*_state_setup(j, n, m, x))


def _psi_plus(j: int, n: int, m: float, sn, cn, dn):
    b = 1.0 + m + math.sqrt(1.0 - m + m * m)
    s2 = sn * sn
    den = b - 3.0 * m * s2
    if n == 0:
        num = 1.0 + 0.0 * s2
    elif n == 1:
        num = sn * (6.0 * m - (m + 1.0) * b + m * s2 * (2.0 * b - 3.0 - 3.0 * m))
    elif n == 2:
        num = cn * (b + m * s2 * (3.0 - 2.0 * b))
    elif n == 3:
        num = dn * (b + s2 * (3.0 * m - 2.0 * b))
    else:
        num = sn * cn * dn
    return num / den


def _state_setup(j: int, n: int, m: float, x):
    """Domain-checked (j, n, m, sn, cn, dn) for the edge-state evaluators."""
    n = _positive_int(n, "band-edge index n", low=0)
    if j == 2:
        if not 0 <= n <= 4:
            raise DomainError(f"j=2 band-edge index n must be in 0..4, got {n!r}")
    elif j == 3:
        if n != 0:
            raise DomainError("only the j=3 ground state has a closed form here")
    else:
        raise DomainError(f"closed-form eigenfunctions exist for j in (2, 3), got {j!r}")
    j, m, sn, cn, dn = _triple(j, m, x)
    return j, n, m, sn, cn, dn


# ---------------------------------------------------------------------------
# potential descriptors
# ---------------------------------------------------------------------------

class Family(Enum):
    """Which member of the partner construction a PotentialSpec denotes."""

    V_MINUS = "vminus"
    V_PLUS = "vplus"
    SUPERPOTENTIAL = "w"
    RAW_LAME = "raw"


@dataclass(frozen=True)
class PotentialSpec:
    """A closed-form potential, evaluable on the real line.

    V_PLUS at j=1 is served through the factorization route (there is
    no separate closed form; the two coincide analytically).
    """

    family: Family
    j: int
    m: float

    def __post_init__(self):
        _check_m(self.m)
        if self.family in (Family.RAW_LAME, Family.V_MINUS):
            _check_j(self.j)
        else:
            _check_closed_j(self.j)

    @property
    def period(self) -> float:
        return 2.0 * complete_k(self.m)

    def __call__(self, x):
        if self.family is Family.V_MINUS:
            return v_minus(self.j, self.m, x)
        if self.family is Family.V_PLUS:
            if self.j == 1:
                return v_plus_susy(self.j, self.m, x)
            return v_plus_closed(self.j, self.m, x)
        if self.family is Family.SUPERPOTENTIAL:
            return superpotential(self.j, self.m, x)
        return raw_lame(self.j, self.m, x)

    def as_periodic_potential(self):
        return bandsolver.PeriodicPotential(period=self.period, evaluator=self)
