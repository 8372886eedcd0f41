"""Band structure of smooth periodic Schrodinger operators.

Two independent spectral methods are provided on purpose, so that one
can arbitrate the other's bugs:

  * a Floquet route: the trace Delta(E) of the monodromy matrix of
    -y'' + V y = E y over one period, sampled on 256 cells of an energy
    window with the number of band edges below each sample, read off the
    Dirichlet solution's oscillation count.  A cell whose count rises by
    more than the sign changes of Delta - 2 (periodic edge) and Delta + 2
    (antiperiodic) hides a gap: it is split at the gap's Dirichlet
    eigenvalue, a root of m12, or else cut into 256 cells of the same grid,
    which is judged again.  Every sign change then brackets one edge,
    indexed by the count at its end and solved to float resolution by
    Anderson-Bjorck false position; a gap between whose two edges Delta
    does not measurably pass +-2 is closed;
  * a plane-wave Galerkin route: the periodic and antiperiodic
    eigenproblems of V, real as every potential here is, assembled as
    real symmetric matrices in the sqrt2 cos / sqrt2 sin basis from
    Fourier coefficients of V, split into cos and sin blocks for an even
    V; edge n is eigenvalue n // 2 of its own boundary's problem.

Either way an edge is known by its index n, never by a sort of
energies, and its boundary follows from n by the oscillation theorem:
periodic, anti, anti, periodic, periodic, anti, anti, ...
Closed gaps (the trace only touching +-2) are reported as two
coincident edges flagged degenerate, so lists keep uniform length.

The monodromy matrix is a product of sixth-order Magnus steps
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009): V is sampled
once per step count at the three Gauss nodes of every step, each
step's 2x2 exponential, and where asked the half-turn count of its
second column, is formed in closed form for a whole batch of energies
at once, and the steps are multiplied together by pairwise tree
reduction, the counts by the signs of three entries.  An even V, every
closed form of the paper among them, is multiplied over the half period
only and the monodromy unfolded from that product (_unfold); V's own
samples decide the route, each against its mirror image.  The step count
is settled once per potential, tolerance and energy range, from the
difference between the n-step and 2n-step products at fixed probe
energies.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    IncompleteSpectrumError,
    InvalidGroundStateError,
    NumericalError,
    _positive_int,
    _real,
)
from .grid import GridFunction, spectrum

TOL = 1e-11         # bound on each monodromy entry, relative to the largest partial product
SCAN_TOL = 1e-7     # the same bound for the sign-only discriminant scan
DEFAULT_SCAN = 256   # scan cells; the trace and edge count at each cell's ends
MIN_STEPS = 64
MAX_STEPS = 2 ** 14  # largest step count the engine accepts
CHUNK = 2 ** 15      # steps x energies held in memory at once
_PROBES = 17         # probe energies per range at which a step count is settled
_RANGE_WAVES = 16    # free half-waves per period above max V in the lowest range
_TARGETS = np.array([2.0, -2.0])  # the edge residuals' rows: trace - 2, trace + 2
_STALL = 3           # steps a bracket may go without halving before a safeguard step
_ROOT_STEPS = 64 * (2 * _STALL + 1)  # enough for 64 halvings of every bracket
BASIS_N = 64         # plane waves per boundary type of the ground-state problems
PARTNER_N = 512      # samples of a numeric partner's grid
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_EVEN = 256.0        # an even V's node samples match their mirror images to _EVEN eps max|V|


def _debug(logger: str, what: str, record: dict):
    """One engine call's DEBUG line on the named logger, its record as
    ``what: key value, ...``, keys sorted, values as their repr; rendered
    only where ``logging`` is loaded and that logger takes DEBUG."""
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(logger)
    if log and log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %s", what, ", ".join(f"{key} {record[key]!r}" for key in sorted(record)))


def _row(n):
    """Row in _TARGETS of edge n (an int or an int array) by the oscillation
    theorem: 0, periodic, for n = 0, 3, 4, 7, 8, ..., else 1, antiperiodic."""
    return (n + 1) // 2 % 2


def expected_boundary(n: int) -> str:
    """Boundary type of edge n in the oscillation-theorem pattern."""
    return ("periodic", "antiperiodic")[_row(n)]


@dataclass(frozen=True)
class PeriodicPotential:
    """A real potential of one period, evaluable on arrays of points, built
    only where ``sample`` reads evaluator(x + period) == evaluator(x) to
    1e-9 at 8 points (DomainError otherwise), and frozen: every engine
    takes a checked one."""

    period: float
    evaluator: Callable
    # engine caches, and each engine's last-call record ("counts", "galerkin", "partner")
    _magnus: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.period > 0) or not math.isfinite(self.period):
            raise DomainError(f"period must be positive and finite, got {self.period!r}")
        a, b = self.sample(8, np.array([0.37, 8.37]))  # 8 points x and x + period
        if np.max(np.abs(a - b)) > 1e-9 * max(1.0, np.max(np.abs(a))):
            raise DomainError("evaluator is not periodic with the declared period")

    def __call__(self, x):
        return self.evaluator(x)

    def sample(self, n: int, shift=0.0) -> np.ndarray:
        """V at (i + shift) * period / n, i = 0..n-1, a row per shift of an array:
        by one FFT resample when V is a grid, else in one evaluator call.
        DomainError if the evaluator maps no array of points to one of its
        shape and to real numbers (_real), or names the x where V is not finite."""
        xs = np.add.outer(shift, np.arange(n)) * (self.period / n)
        f = self.evaluator
        if isinstance(f, GridFunction) and f.period == self.period:
            out = f.resample(n, shift)
        else:
            try:
                out = np.asarray(_real(f(xs), "the evaluator's values"), dtype=float)
            except TypeError as exc:
                raise DomainError(f"evaluator does not take an array of points: {exc}") from exc
            if out.shape != xs.shape:
                raise DomainError(f"evaluator returns shape {out.shape} for {xs.shape} points")
        if not np.isfinite(out).all():
            raise DomainError(f"potential not finite at x = {xs[~np.isfinite(out)][:8]}")
        return out


@dataclass(frozen=True)
class BandEdge:
    """One spectral band edge."""

    n: int
    energy: float
    degenerate: bool = False

    @property
    def boundary(self) -> str:
        """The boundary type of edge n (expected_boundary)."""
        return expected_boundary(self.n)


# ---------------------------------------------------------------------------
# sixth-order Magnus product, vectorised over steps and energies
# ---------------------------------------------------------------------------
#
# y'' = (V - E) y is Y' = A Y with A = [[0, 1], [V - E, 0]].  With the
# Gauss-node values V1, V2, V3 of a step of length h, the sixth-order
# exponent is (Blanes, Casas, Oteo & Ros 2009)
#   Omega = B1 + B3/12 + [-20 B1 - B3 + [B1, B2], B2 - [B1, 2 B3 + [B1, B2]]/60]/240
# with B1 = h A(x2), B2 = (sqrt(15) h/3)(A(x3) - A(x1)) and
# B3 = (10 h/3)(A(x3) - 2 A(x2) + A(x1)).  Only B1 depends on E, and for
# this A the commutators reduce Omega = [[a, b], [c, -a]] to
#   a = a0 + a1 u,  b = b0,  c = c0 + c1 u,  u = h (V2 - E).

def _bit_reversed(n: int) -> np.ndarray:
    """0..n-1, n a power of two, in bit-reversed order, its own inverse."""
    order = np.zeros(1, dtype=int)
    while order.size < n:
        order = np.concatenate([2 * order, 2 * order + 1])
    if order.size != n:
        raise ValueError(f"step count {n!r} is not a power of two")
    return order


def _coefficients(v: np.ndarray, h: float) -> tuple:
    """(h, h V2, a0, a1, b0, c0, c1) of the steps of length h whose Gauss-node
    values are v's columns, in their order; columns (steps, 1)."""
    d2 = (math.sqrt(15.0) * h / 3.0) * (v[2] - v[0])
    d3 = (10.0 * h / 3.0) * (v[2] - 2.0 * v[1] + v[0])
    k = h * d2  # [B1, B2] = [[k, 0], [0, -k]]
    cols = (h * v[1],
            k * (h * d3 / 7200.0 - 1.0 / 12.0),
            k * (h / 180.0),
            h + h * (k * k - 20.0 * h * d3) / 3600.0,
            d3 / 12.0 + h * d3 * d3 / 3600.0 - k * d2 / 120.0,
            1.0 + h * d3 / 180.0 + k * k / 3600.0)
    return (h,) + tuple(c[:, None] for c in cols)


def _step_coefficients(V: PeriodicPotential, n: int) -> tuple:
    """_coefficients of n equal steps in bit-reversed order, or, for an even
    V, of the first n / 2 of them, the half period (_unfold); cached.

    x -> L - x maps Gauss node (i, g) of the n steps onto node (n - 1 - i,
    2 - g).  V is even where no sample differs from its mirror image by
    more than _EVEN eps max|V|, the size of the samples' own rounding: the
    half product is then exact for samples as close to an even V as its
    own.  Lame and V- (j <= 5, m <= 1 - 1e-6) are even to 54 eps max|V| so
    sampled, V+ to 143 up to m = 0.95, and there the two routes' products
    agree to 6e-13 of their scale, against TOL = 1e-11.  The numeric
    partner of an even V, kept even on its grid by numeric_partner, is
    even to 5 eps max|V| so resampled.  Larger mirror errors take the
    whole period, as the routes may part by more than TOL: V+ at m = 0.99
    (850, 1.1e-11) and 0.999 (7800, 4.7e-10), and any V with a sine part.
    The largest ratio met is kept for band_edges' DEBUG record.
    """
    key = ("steps", n)
    if key not in V._magnus:
        v = V.sample(n, _GAUSS)
        peak, mirror = np.max(np.abs(v)), np.max(np.abs(v - v[::-1, ::-1]))
        ratio = mirror / (np.finfo(float).eps * peak) if peak > 0.0 else 0.0
        V._magnus["asymmetry"] = max(V._magnus.get("asymmetry", 0.0), float(ratio))
        steps = n // 2 if ratio <= _EVEN else n
        V._magnus[key] = _coefficients(v[:, _bit_reversed(steps)], V.period / n)
    return V._magnus[key]


def _step_propagators(coef: tuple, E: np.ndarray, rows: int = 4) -> np.ndarray:
    """exp(Omega) of every step at every energy, shape (rows, steps,
    energies), rows 4 or 5 (ValueError otherwise): with 5 the half-turn
    count of its second column follows in row 4 (_edges_below): exp(t
    Omega) e2 has a first component b0 sinh(s t)/s, or b0 sin(s t)/s when
    oscillating, and b0 > 0 while h^2 |V1 - 2 V2 + V3| < 54, so -1 for a
    growing step, -max(1, ceil(s / pi)) for an oscillating one.

    Omega is traceless, so Omega^2 = z I with z = a^2 + b c, and
    exp(Omega) = C I + S Omega with C = cosh(s), S = sinh(s)/s, s = sqrt(z)
    (cos and sin of sqrt(-z) when z < 0).  The rows are written into one
    array.
    """
    if rows not in (4, 5):
        raise ValueError(f"rows must be 4 or 5, got {rows!r}")
    h, hv, a0, a1, b0, c0, c1 = coef
    P = np.empty((rows, hv.size, E.size))
    u = hv - h * E
    a = a1 * u + a0  # IEEE addition commutes: the same as a0 + a1 u
    c = np.add(np.multiply(c1, u, out=u), c0, out=u)
    z = a * a + b0 * c
    s = np.sqrt(np.abs(z))
    osc = z < 0  # the oscillating steps
    C, S = (f(s, out=np.empty_like(s), where=osc) for f in (np.cos, np.sin))
    np.cosh(s, out=C, where=~osc)
    np.sinh(s, out=S, where=~osc)
    if rows == 5:
        P[4] = -1.0
        i = np.flatnonzero(osc & (s > np.pi))  # below pi the count is -1
        np.put(P[4], i, -np.ceil(s.take(i) / np.pi))
    S = np.divide(S, s, out=np.ones_like(s), where=s > 0)
    Sa = np.multiply(S, a, out=s)
    np.add(C, Sa, out=P[0])
    np.multiply(S, b0, out=P[1])
    np.multiply(S, c, out=P[2])
    np.subtract(C, Sa, out=P[3])
    return P


def _mul(A: np.ndarray, B: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """2x2 products A @ B of rows (11, 12, 21, 22) into ``out``: A[:, 0] B[0] + A[:, 1] B[1]."""
    A, B, out, tmp = (x.reshape((2, 2) + x.shape[1:]) for x in (A, B, out, tmp))
    np.multiply(A[:, :1], B[:1], out=out)
    np.multiply(A[:, 1:], B[1:], out=tmp)
    np.add(out, tmp, out=out)


def _wraps(a: tuple, b: tuple, ab: tuple) -> np.ndarray:
    """Whether A after B turns e2 a half-turn further than A and B apart,
    from the signs of A12, B12 and (AB)12, each as masks (x > 0, x == 0).
    With det A = 1 the turn from A e2 to AB e2 has the sign of -B12, so it
    wraps where the three signs multiply to +1, and where (AB)12 is 0 but
    A12 is not.  Sign bits only: a float product of the entries
    underflows, overflows or cancels."""
    return ~a[1] & (ab[1] | (~b[1] & (a[0] ^ b[0] ^ ab[0])))


def _tree_product(P: np.ndarray) -> tuple:
    """Ordered products of the bit-reversed steps along axis 1, by pairs: each
    level's second half, the later steps, times its first, into one buffer
    and P's storage in turn.

    Returns the products, shape (rows, columns), and per column the
    largest entry of any partial product formed (at least 1, the initial
    data).  A row 4 is the half-turn count of the second column, k_AB =
    k_A + k_B + _wraps, in float64, exact for integers; it does not enter
    the scale.
    """
    rows, n, k = P.shape
    scale = np.ones(k)
    buffers, tmp = (np.empty((rows, n // 2, k)), P), np.empty((4, n // 2, k))
    signs = (P[1] > 0.0, P[1] == 0.0) if rows == 5 else None  # _wraps' masks, carried
    for h in n >> np.arange(1, n.bit_length()):  # n/2, n/4, ..., 1 products
        A, B, t = P[:, h:], P[:, :h], tmp[:, :h]  # later steps multiply from the left
        P, buffers = buffers[0][:, :h], buffers[::-1]  # this level into the free buffer
        _mul(A[:4], B[:4], P[:4], t)
        if rows == 5:
            a, b, signs = [m[h:] for m in signs], [m[:h] for m in signs], (P[1] > 0.0, P[1] == 0.0)
            np.add(A[4] + B[4], _wraps(a, b, signs), out=P[4])
        np.maximum(scale, np.abs(P[:4], out=t).max(axis=(0, 1)), out=scale)
    return P[:, 0], scale


def _unfold(T: np.ndarray, scale: np.ndarray) -> tuple:
    """An even V's monodromy and scale from its product T = [[a, b], [c,
    d]] over [0, L/2] (rows as _product's) and T's scale.  x -> L - x
    makes T' = [[d, b], [c, a]] the propagator over [L/2, L], so M = T'T =
    [[ad + bc, 2bd], [2ac, ad + bc]] (Magnus & Winkler, Hill's Equation,
    1966, ch. 1).  Solutions vanishing at either end of [0, L/2] have as
    many zeros inside it (Sturm separation), so T' turns e2 by T's count,
    and M's is twice it plus _wraps(T', T, M), T'12 = T12 = b: one where b
    is not 0 and d is 0 or of b's sign."""
    a, b, c, d = T[:4]
    M = np.empty_like(T)
    M[0] = a * d + b * c
    M[1] = 2.0 * b * d
    M[2] = 2.0 * a * c
    M[3] = M[0]
    if T.shape[0] == 5:
        M[4] = 2.0 * T[4] + ((b != 0.0) & ((d == 0.0) | ((b > 0.0) == (d > 0.0))))
    return M, np.maximum(scale, np.abs(M[:4]).max(axis=0))


def _product(V: PeriodicPotential, n: int, E: np.ndarray, rows: int = 4) -> tuple:
    """Monodromy entries (m11, m12, m21, m22) over n steps, with rows = 5
    followed by the half-turn count of (m12, m22), and their scale; for an
    even V unfolded from the product over the first n / 2 (_unfold).
    Energies go in chunks that no result depends on, of at most CHUNK
    steps x energies, so that the live arrays keep one size.  A scale
    that is not finite raises NumericalError, naming the energy and the
    step count: more steps cannot bring back solutions that overflow
    float64."""
    coef = _step_coefficients(V, n)
    steps = coef[1].shape[0]
    M, scale = np.empty((rows, E.size)), np.empty(E.size)
    per = max(1, CHUNK // steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, E.size, per):
            part = slice(lo, lo + per)
            M[:, part], scale[part] = _tree_product(_step_propagators(coef, E[part], rows))
        M, scale = _unfold(M, scale) if steps < n else (M, scale)
    V._magnus.setdefault("counts", Counter()).update(
        products=1, steps_x_energies=steps * E.size, half_period_products=int(steps < n))
    if np.isfinite(scale).all():
        return M, scale
    raise NumericalError(f"the solutions overflow float64 over one period at E = "
                         f"{E[~np.isfinite(scale)][0]:.6g} with {n} steps; galerkin_edges solves "
                         "so deep a potential")


def _span(V: PeriodicPotential) -> tuple:
    """(min V, max V) on 1024 samples, cached."""
    if "span" not in V._magnus:
        s = V.sample(1024)
        V._magnus["span"] = (float(s.min()), float(s.max()))
    return V._magnus["span"]


def _energy_range(V: PeriodicPotential, E: np.ndarray) -> np.ndarray:
    """Index r >= 0 of the energy range holding each E.

    Range r ends 2^r (16 pi / L)^2 above max V: the Magnus error grows
    once a step spans a sizable part of a wavelength, so each range
    settles its own step count.  Range 0 covers every E below max V.
    """
    waves = np.sqrt(np.maximum(E - _span(V)[1], 0.0)) * V.period / (math.pi * _RANGE_WAVES)
    return np.ceil(np.log2(np.maximum(waves, 1.0))).astype(int)


def _probe_product(V: PeriodicPotential, E: np.ndarray, r: int, n: int) -> tuple:
    """The n-step _product at the probe energies E of range r, cached by r
    and n, so that every tolerance's step-count search reuses the products."""
    key = ("probes", r, n)
    if key not in V._magnus:
        V._magnus[key] = _product(V, n, E)
    return V._magnus[key]


def _step_count(V: PeriodicPotential, tol: float, r: int) -> int:
    """Smallest power-of-two step count meeting ``tol`` on energy range r.

    The error of the n-step product is estimated by its distance to the
    2n-step product at _PROBES energies spread over the range, entry by
    entry, relative to the largest partial product along the way (a
    final-matrix norm would demand accuracy below roundoff where the
    entries cancel).  The count depends on V, tol and r only.  A range
    that MAX_STEPS steps do not resolve raises NumericalError, naming the
    range's top energy, as an overflowing product does (_product).
    """
    key = ("count", tol, r)
    if key not in V._magnus:
        E = np.linspace(_span(V)[0] - 1.0,
                        _span(V)[1] + (2.0 ** r * math.pi * _RANGE_WAVES / V.period) ** 2, _PROBES)
        n = MIN_STEPS if r == 0 else _step_count(V, tol, r - 1)
        coarse, scale = _probe_product(V, E, r, n)
        while True:
            fine, fine_scale = _probe_product(V, E, r, 2 * n)
            err = np.max(np.abs(fine - coarse) / np.maximum(scale, fine_scale))
            if err <= tol:
                break
            if 2 * n > MAX_STEPS:
                raise NumericalError(f"monodromy error {err:.2g} exceeds {tol:g} at {MAX_STEPS} "
                                     f"steps up to E = {E[-1]:.6g}; the potential is too rough, "
                                     "or the energies too high, for the Floquet route")
            n, coarse, scale = 2 * n, fine, fine_scale
        V._magnus[key] = n
    return V._magnus[key]


def _monodromy(V: PeriodicPotential, energies, tol: float = TOL,
               refined: bool = False, rows: int = 4) -> tuple:
    """Monodromy entries and scales for a batch of E, with rows = 5 and the
    half-turn count of (m12, m22) in row 4, over the settled step count;
    ``refined`` doubles it, for error estimates.  E real and finite, else DomainError."""
    E = np.atleast_1d(np.asarray(_real(energies, "energies"), dtype=float))
    if not np.all(np.isfinite(E)):
        raise DomainError("energies must be finite")
    M = np.empty((rows, E.size))
    scale = np.empty(E.size)
    ranges = _energy_range(V, E)
    for r in np.unique(ranges):
        sel = ranges == r
        n = _step_count(V, tol, int(r)) * (2 if refined else 1)
        M[:, sel], scale[sel] = _product(V, n, E[sel], rows)
    return M, scale


def monodromy_trace(V: PeriodicPotential, E):
    """Trace of the one-period monodromy matrix of -y'' + V y = E y, a float
    for a scalar E, else an array; its products start a new V._magnus["counts"]."""
    V._magnus["counts"] = Counter()
    M, _ = _monodromy(V, E)
    trace = M[0] + M[3]
    return float(trace[0]) if np.ndim(E) == 0 else trace


def _edge_residual(M: np.ndarray, target) -> tuple:
    """trace - target, accurate also where the trace only grazes +-2.

    Near a narrow gap M is close to +-I and 2 - |trace| cancels to far
    below the entries' error, while Delta^2 - 4 = (m11 - m22)^2 +
    4 m12 m21 is a sum of products of the small entries that measure the
    gap's width.  So the residual is taken as (Delta^2 - 4) / (trace +
    target) whenever that form is the better conditioned.  Also returns
    the residual's error per unit error of the trace (at most 1).
    """
    tr = M[0] + M[3]
    near = np.abs(tr + target)
    small = np.abs(M[0] - M[3]) + 2.0 * (np.abs(M[1]) + np.abs(M[2]))
    squared = (M[0] - M[3]) ** 2 + 4.0 * M[1] * M[2]
    stable = small < near
    residual = np.where(stable, squared / np.where(stable, tr + target, 1.0), tr - target)
    return residual, np.where(stable, small / np.where(stable, near, 1.0), 1.0)


def _overshoot(V: PeriodicPotential, energies, targets) -> tuple:
    """How far the trace passes each +-2 target (positive in a gap) by the
    2n-step product, and the error of that value: its distance to the
    n-step value plus a roundoff allowance."""
    coarse, _ = _monodromy(V, energies)
    fine, scale = _monodromy(V, energies, refined=True)
    over, gain = _edge_residual(fine, targets)
    noise = np.abs(over - _edge_residual(coarse, targets)[0])
    return np.sign(targets) * over, noise + 64.0 * np.finfo(float).eps * scale * gain


# ---------------------------------------------------------------------------
# edge location
# ---------------------------------------------------------------------------

def _root_batch(residual, lo, hi, f_lo, f_hi):
    """Roots of a residual on brackets [lo, hi], to float resolution.

    ``residual(x, i)`` evaluates brackets ``i`` at points ``x`` in one
    batch (_crossing, or m12 for a Dirichlet eigenvalue).  ``f_lo`` and
    ``f_hi`` are its values at the ends.  Their signs must be those the
    residual gives; their values only weight the first interpolation, so
    the scan's serve.

    Anderson-Bjorck false position (Anderson & Bjorck, BIT 13:253, 1973):
    every step evaluates the false-position point x of each open bracket
    in one batch, kept half the stopping width inside the bracket, and
    keeps the sign change; an end kept twice in a row has its residual
    scaled by g = 1 - f(x) / f(end replaced), or halved where g <= 0 (the
    Illinois rule of Dowell & Jarratt 1971), which makes the convergence
    superlinear without Illinois' second point across the root.  The
    safeguards: a bracket that has not halved in _STALL steps steps at
    least 1/64 of its width away from both ends (false position creeps
    along a flat end, e.g. next to a narrow gap's extremum), and one that
    has not halved in 2 _STALL steps is bisected.  A bracket closes at a
    width of 4 eps max(1, |E|) or on a residual of exactly 0, so every
    root lies inside its bracket; brackets never interact.  Returns the
    roots and the rounds taken, one batch evaluation of the residual each.
    Raises NumericalError if an end pair has no sign change or a bracket
    never closes.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    if np.any(fa * fb > 0):
        raise NumericalError("root bracket without a sign change")
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    kept = np.zeros(a.size, dtype=int)  # end kept by the last step: -1 low, +1 high
    halved = b - a                      # width at the last halving
    stall = np.zeros(a.size, dtype=int)
    for rounds in range(_ROOT_STEPS):
        stop = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        closed = np.isnan(root) & (b - a <= stop)
        root[closed] = 0.5 * (a[closed] + b[closed])
        i = np.nonzero(np.isnan(root))[0]
        if i.size == 0:
            return root, rounds
        ai, bi, w = a[i], b[i], b[i] - a[i]
        margin = np.where(stall[i] >= _STALL, w / 64.0, 0.5 * stop[i])
        x = np.clip(ai + w * (fa[i] / (fa[i] - fb[i])), ai + margin, bi - margin)
        x = np.where(stall[i] >= 2 * _STALL, 0.5 * (ai + bi), x)
        fx = residual(x, i)
        root[i[fx == 0.0]] = x[fx == 0.0]
        up = np.sign(fx) == np.sign(fa[i])  # the root lies in [x, b]
        lo_i, hi_i = i[up], i[~up]
        # an end kept twice in a row is weighted by g = 1 - f(x) / f(replaced end)
        g = 1.0 - fx / np.where(up, fa[i], fb[i])
        g = np.where(kept[i] != np.where(up, 1, -1), 1.0, np.where(g > 0.0, g, 0.5))
        fb[lo_i] *= g[up]
        fa[hi_i] *= g[~up]
        a[lo_i], fa[lo_i], kept[lo_i] = x[up], fx[up], 1
        b[hi_i], fb[hi_i], kept[hi_i] = x[~up], fx[~up], -1
        shrunk = b[i] - a[i] <= 0.5 * halved[i]
        halved[i] = np.where(shrunk, b[i] - a[i], halved[i])
        stall[i] = np.where(shrunk, 0, stall[i] + 1)
    raise NumericalError(f"{int(np.isnan(root).sum())} root brackets did not close "
                         f"in {_ROOT_STEPS} steps")


def _crossing(V, target):
    """The residual of trace = target (_edge_residual) for _root_batch,
    one target per bracket."""
    target = np.asarray(target, dtype=float)
    return lambda x, i: _edge_residual(_monodromy(V, x)[0], target[i])[0]


def _edges_below(k: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Number of band edges below each energy, from the half-turn count k
    of the monodromy's second column and the edge residuals.  That column
    is (s, s') at L of the Dirichlet solution, s(0) = 0, s'(0) = 1, whose
    angle w turns clockwise from pi/2 through every zero of s: with
    k = floor((w - pi/2) / pi), N = -k - 1 zeros in (0, L).  Dirichlet
    eigenvalue i lies in the closure of gap i (Magnus & Winkler, Hill's
    Equation, 1966), so 2N + 1 edges lie below a band energy and 2i below
    one in gap i, where i in {N, N + 1} is odd exactly where Delta < -2
    (Johnson & Moser, CMP 84:403, 1982)."""
    n = -1 - k.astype(int)
    odd = res[1] < 0.0
    return np.where(~odd & (res[0] < 0.0), 2 * n + 1, 2 * (n + (n + odd) % 2))


def _scan_edges(V, e_min, e_max, n_cells, count, stats):
    """Every edge in [e_min, e_max] among the first ``count``, from the
    edge residuals Delta -+ 2 and the edge count (_edges_below) at the
    samples of one grid, at first the ends of n_cells equal cells.

    A cell whose count rises by more than its residuals change sign hides
    a gap.  Where its half-turn count drops by one, the cell holds one
    Dirichlet eigenvalue mu, a root of m12, in the closure of its gap
    (Magnus & Winkler, 1966), and is split there: mu goes in twice, ending
    the lower piece and starting the upper one.  With m12 = 0 and det M =
    1, Delta(mu) - 2 s = (m11 - s)^2 / m11, s = sgn(m11), is never on the
    bands' side, and that is the own target's residual at both; the other
    target's is the plain trace - target.  So each piece brackets one of
    the gap's edges.  Where m11 lies within its error of s, mu is itself
    an edge (an even V's mu always is) and the residual next to it is
    noise.  To first order Delta^2 - 4 = 4 m12' m21 (E - mu) there, so the
    gap lies on the side of mu where m12 m21 > 0, unless m21 too is 0 up
    to its error (M = +-I, a touch).  That piece's end at mu takes a
    value on the gap's side that starts false position at the root of
    m21 interpolated linearly from mu to the piece's other end, which is
    the gap's far edge for an even V, or at the piece's middle where m21
    keeps its sign there: not in the noise next to mu.  A cell that
    holds no or several Dirichlet eigenvalues, or whose two pieces still
    bracket fewer edges than its count, is cut into DEFAULT_SCAN cells of
    the grid, which is judged again; NumericalError where no cut adds a
    float.  A sample within the product's error of a touch, where no count
    is sure, is left out, and the cells on its two sides are judged as
    one.  Every sign change of a residual between neighbours then brackets
    one edge, and all are solved in one _root_batch.  A split cell's gap
    is closed where the trace does not measurably pass +-2 at the middle
    of its two edges (_overshoot), and both edges are reported there.

    Resolution limit: a gap so narrow that its overshoot stays within the
    product's noise comes back as a touch, each edge within half the
    gap's width of its true value.  On the closed forms that happens only
    below the float spacing: at j = 2, m = 1e-9 the 3e-9 gap between
    edges 1 and 2 comes back open, both edges within 4.5e-16, and the
    7.5e-19 gap between edges 3 and 4 as a touch.  The 512-sample numeric
    partner V+ of j = 2 at m = 1e-6 returns its 7.5e-13 gap as a touch.

    Each edge's index comes from the count, its row from its index
    (_row).  mu is gap g's Dirichlet eigenvalue, g = -1 - k with k the
    half-turn count of the sample above it: both its copies count 2g, and
    the gap's edges are those indexed 2g - 1 and 2g.  A bracket up from a
    count c holds edge c, or edge c + 1 where edge c is of the other row.

    Returns the edges found as (index, energy, degenerate) triples sorted
    by index, a touch as two degenerate ones.  Counts go into ``stats``.
    """
    Es = np.linspace(e_min, e_max, n_cells + 1)
    while True:
        M, scale = _monodromy(V, Es, SCAN_TOL, rows=5)
        res = M[0] + M[3] - _TARGETS[:, None]  # the edge residuals, one row per target
        # the scan decides signs only; a sample within its error of +-2 or of
        # m12 = 0 takes the nearer target's full-accuracy residual, m12 and count
        noise = 4.0 * SCAN_TOL * scale
        unsure = np.nonzero((np.abs(res).min(axis=0) <= noise) | (np.abs(M[1]) <= noise))[0]
        row = (M[0, unsure] + M[3, unsure] < 0.0).astype(int)
        full, full_scale = _monodromy(V, Es[unsure], rows=5)
        res[row, unsure], gain = _edge_residual(full, _TARGETS[row])
        M[1, unsure], M[4, unsure] = full[1], full[4]
        touching = unsure[np.abs(res[row, unsure]) <= TOL * full_scale * gain]
        below = _edges_below(M[4], res)
        stats["top"] = int(below[-1])  # the window's top
        Es, res, below, m12, m21, k = (np.delete(a, touching, axis=-1)
                                       for a in (Es, res, below, M[1], M[2], M[4]))
        above = res >= 0.0
        jump = below[1:] - below[:-1]
        cells = np.nonzero((jump > (above[:, :-1] != above[:, 1:]).sum(axis=0))
                           & (below[:-1] < count))[0]
        lo = cells[k[cells] - k[cells + 1] == 1]  # one Dirichlet eigenvalue in the cell
        xe, rounds = _root_batch(lambda x, i: _monodromy(V, x)[0][1],
                                 Es[lo], Es[lo + 1], m12[lo], m12[lo + 1])
        stats["dirichlet_rounds"] += rounds
        M, scale = _monodromy(V, xe)
        gap = -1 - k[lo + 1].astype(int)  # mu is gap g's Dirichlet eigenvalue
        sign, own, cols, err = np.sign(M[0]), _row(2 * gap), np.arange(xe.size), TOL * scale
        exact = sign * np.maximum((M[0] - sign) ** 2 / np.abs(M[0]), np.finfo(float).tiny)
        # the side of mu that holds the gap, where mu is an edge but M is not +-I
        side = np.where((np.abs(M[0] - sign) <= 2.0 * err) & (np.abs(M[2]) > err),
                        np.sign(m12[lo + 1] * M[2]), 0.0)
        far = np.where(side > 0, lo + 1, lo)  # the gap piece's sample end
        t = M[2] / (M[2] - m21[far])  # where the seed lies, as a share of the piece
        t = np.where((t > 0.0) & (t < 1.0), t, 0.5)
        seed = sign * np.abs(res[own, far]) * t / (1.0 - t)
        ends = np.repeat(M[0] + M[3] - _TARGETS[:, None], 2, axis=1)  # each piece's end at mu
        ends[own, 2 * cols] = np.where(side < 0, seed, exact)
        ends[own, 2 * cols + 1] = np.where(side > 0, seed, exact)
        # a split cell is done when its two pieces bracket all its count's rise
        up = ends >= 0.0
        done = ((above[:, lo] != up[:, ::2]).sum(axis=0)
                + (up[:, 1::2] != above[:, lo + 1]).sum(axis=0) >= jump[lo])
        rescan = np.setdiff1d(cells, lo[done])
        if rescan.size == 0:
            break
        stats["splits"] += int((~done).sum())  # split cells that are cut
        stats["rescans"] += rescan.size
        grid = np.union1d(Es, np.linspace(Es[rescan], Es[rescan + 1], DEFAULT_SCAN + 1))
        if grid.size == Es.size:
            c = rescan[0]
            raise NumericalError(f"{jump[c]} band edges hidden in [{Es[c]!r}, {Es[c + 1]!r}], "
                                 "a cell narrower than float resolution")
        Es = grid
    stats["splits"] += xe.size
    # mu goes in twice after its cell's lower end, counting 2g
    at = np.repeat(lo + 1, 2)
    base = np.insert(below, at, np.repeat(2 * gap, 2))
    E_all, res_all = np.insert(Es, at, np.repeat(xe, 2)), np.insert(res, at, ends, axis=1)
    above = res_all >= 0.0
    row, i = np.nonzero(above[:, :-1] != above[:, 1:])
    found, rounds = _root_batch(_crossing(V, _TARGETS[row]), E_all[i], E_all[i + 1],
                                res_all[row, i], res_all[row, i + 1])
    stats["crossing_rounds"] += rounds
    index = base[i] + (row != _row(base[i]))
    # a split gap's edges are those indexed 2g - 1 and 2g
    slot = np.full(base.max(initial=0) + 2, -1)
    slot[index] = np.arange(index.size)
    lower, upper = slot[2 * gap - 1], slot[2 * gap]
    both = (lower >= 0) & (upper >= 0)
    lower, upper, gap = lower[both], upper[both], gap[both]
    mid = 0.5 * (found[lower] + found[upper])
    over, noise = _overshoot(V, mid, _TARGETS[_row(2 * gap)])
    touch = over <= noise
    degenerate = np.zeros(found.size, dtype=bool)
    for piece in (lower[touch], upper[touch]):
        found[piece], degenerate[piece] = mid[touch], True
    return sorted(zip(index.tolist(), found.tolist(), degenerate.tolist()))


def _first_window(V: PeriodicPotential, count: int) -> float:
    """Top of the scan window for ``count`` edges.  Edge n of the free
    particle is (pi ceil(n/2) / L)^2, and by min-max comparison (Magnus &
    Winkler, Hill's Equation, 1966) edge n of V lies at most that far
    above max V; so edge count - 1 lies at least 2 below this top."""
    return _span(V)[1] + 2.0 + (math.pi * (count + 1) / (2.0 * V.period)) ** 2


def band_edges(V: PeriodicPotential, count: int) -> list:
    """First ``count`` band edges of -y'' + V y = E y, by index.

    Scans DEFAULT_SCAN cells of the window from inf V - 1 to _first_window,
    which holds ``count`` edges: by min-max comparison with the free
    particle, edge n lies at most (pi ceil(n/2) / L)^2 above max V.  Every
    edge is solved down to a few ulps and indexed by the edge count
    (_scan_edges, _root_batch); its boundary follows from its index.  An
    index in 0..count - 1 missing or doubled raises IncompleteSpectrumError,
    naming them.  The call's counts are its record, V._magnus["counts"],
    sent with V's asymmetry as its DEBUG line (_debug).
    """
    stats = V._magnus["counts"] = Counter()  # this call's counts, _product's among them
    count = _positive_int(count, "count")
    e_min = _span(V)[0] - 1.0
    e_max = _first_window(V, count)
    try:
        edges = _scan_edges(V, e_min, e_max, DEFAULT_SCAN, count, stats)
        stats["brackets"] = len(edges)  # one root per crossing bracket
        found = [BandEdge(n=n, energy=e, degenerate=d) for n, e, d in edges if n < count]
        indices = [e.n for e in found]
        if indices == list(range(count)):
            return found
        raise IncompleteSpectrumError(
            f"band edges {sorted(set(range(count)) - set(indices))} missing and "
            f"{sorted({n for n in indices if indices.count(n) > 1})} doubled below "
            f"E={e_max!r}: " + ", ".join(f"{e.n}:{e.energy:.6g}" for e in found))
    finally:
        _debug(__name__, "band_edges", {**stats, "asymmetry": V._magnus.get("asymmetry", math.nan)})


# ---------------------------------------------------------------------------
# plane-wave Galerkin route
# ---------------------------------------------------------------------------

def _potential_modes(V: PeriodicPotential, basis_n: int) -> tuple:
    """Real and imaginary parts a_q, b_q of the coefficients of the modes
    e^{2pi i q x / L}, q = 0..2 basis_n, from an rfft on 4 basis_n samples.
    A grid-backed V is sampled on at least its own grid, so that its higher
    modes do not alias onto these."""
    fine = max(4 * basis_n, V.evaluator.n if isinstance(V.evaluator, GridFunction) else 0)
    v = spectrum(V.sample(fine))[: 2 * basis_n + 1]
    return v.real, v.imag


def _cos_sin_blocks(a: np.ndarray, b: np.ndarray, L: float, periodic: bool) -> tuple:
    """H = k^2 + V, real symmetric, in the orthonormal basis sqrt2 cos kx,
    sqrt2 sin kx, k = pi t / L, led by the constant when ``periodic``:
    t = 2, 4, .., 2N (periodic) or 1, 3, .., 2N - 1 (antiperiodic), with
    2N + 1 = a.size.  With p = t/2, V = sum_q (a_q + i b_q) e^{2pi i q x/L}
    gives the blocks cc = a_|p-p'| + a_(p+p'), ss = a_|p-p'| - a_(p+p'),
    cs = sign(p - p') b_|p-p'| - b_(p+p'), and the constant's row a_0,
    sqrt2 a_p, -sqrt2 b_p.  For a real V this is unitarily similar to the
    complex Hermitian e^{ikx} problem (A. Lee, Linear Algebra Appl. 29,
    1980).  Returns (blocks, ||cs||_F, bound = 16 eps max|diag H|): [cc, ss]
    where ||cs||_F <= bound, as for an even V, whose eigenvalues are H's to
    within ||cs||_2 <= 16 eps ||H|| (Weyl), what eigvalsh resolves; else [H]."""
    t = np.arange(1 + periodic, a.size, 2)
    d, s = (t[:, None] - t) // 2, (t[:, None] + t) // 2
    toeplitz = a[np.abs(d)] + np.diag((np.pi / L * t) ** 2)
    cc, ss, cs = toeplitz + a[s], toeplitz - a[s], np.sign(d) * b[np.abs(d)] - b[s]
    if periodic:  # the constant's row leads cc and cs
        edge = math.sqrt(2.0) * a[t // 2]
        cc = np.block([[a[:1, None], edge[None, :]], [edge[:, None], cc]])
        cs = np.vstack([-math.sqrt(2.0) * b[t // 2], cs])
    coupling, diag = float(np.linalg.norm(cs)), np.concatenate([np.diag(cc), np.diag(ss)])
    bound = float(16.0 * np.finfo(float).eps * np.abs(diag).max())
    return [cc, ss] if coupling <= bound else [np.block([[cc, cs], [cs.T, ss]])], coupling, bound


def galerkin_edges(V: PeriodicPotential, count: int, basis_n: int = BASIS_N) -> list:
    """Band edges from the periodic and antiperiodic plane-wave problems.

    Assembles the two as dense real symmetric matrices in the sqrt2 cos /
    sqrt2 sin basis (_cos_sin_blocks, split where V is even), from Fourier
    coefficients of V taken by rfft on 4*basis_n samples.  Edge n is
    eigenvalue n // 2 of its own boundary's problem (the oscillation
    theorem), and by Courant-Fischer that eigenvalue is the Ritz upper
    bound of exactly that edge.  The two edges of a gap, eigenvalues i - 1
    and i of one problem, that the eigenvalues do not resolve apart are
    flagged degenerate, a closed gap.  The record V._magnus["galerkin"] of
    blocks and ||cs||_F against its bound per boundary is its DEBUG line.
    """
    count = _positive_int(count, "count")
    basis_n = _positive_int(basis_n, "basis_n")
    if basis_n < 2 * count + 8:
        raise DomainError(f"basis_n={basis_n!r} too small for count={count!r}; "
                          f"need >= {2 * count + 8}")
    a, b = _potential_modes(V, basis_n)
    problems = [_cos_sin_blocks(a, b, V.period, periodic) for periodic in (True, False)]
    try:
        spectra = [np.sort(np.concatenate([np.linalg.eigvalsh(H) for H in blocks]))
                   for blocks, _, _ in problems]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Galerkin eigenproblem failed: {exc}") from exc
    record = V._magnus["galerkin"] = {
        name: {"blocks": len(blocks), "coupling": coupling, "bound": bound}
        for name, (blocks, coupling, bound) in zip(("periodic", "antiperiodic"), problems)}
    _debug(__name__, "galerkin_edges", record)
    # eigvalsh resolves eigenvalues to a small multiple of eps ||H||
    resolved = float(16.0 * np.finfo(float).eps * max(np.abs(ev).max() for ev in spectra))
    E = [float(spectra[_row(n)][n // 2]) for n in range(count + 1)]
    closed = [g > 0 and E[2 * g] - E[2 * g - 1] <= resolved for g in range(count // 2 + 1)]
    return [BandEdge(n=n, energy=E[n], degenerate=closed[(n + 1) // 2]) for n in range(count)]


# ---------------------------------------------------------------------------
# SUSY partner pipeline for arbitrary smooth periodic potentials
# ---------------------------------------------------------------------------

def _reject_nodal(psi: np.ndarray):
    """Raise unless the sampled state, its peak +1, is positive everywhere:
    a sample at or below 0 is a node, which log psi cannot take."""
    if np.any(psi <= 0.0):
        raise InvalidGroundStateError("ground state has a node; partner undefined")


def _ground_solve(V: PeriodicPotential, solver):
    """``solver`` (eigvalsh or eigh) on the periodic problem of BASIS_N modes, or its cos block."""
    try:
        return solver(_cos_sin_blocks(*_potential_modes(V, BASIS_N), V.period, True)[0][0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ground-state eigenproblem failed: {exc}") from exc


def ground_energy(V: PeriodicPotential) -> float:
    """Lowest band-edge energy via the periodic plane-wave problem."""
    return float(_ground_solve(V, np.linalg.eigvalsh)[0])


def numeric_partner(V: PeriodicPotential) -> PeriodicPotential:
    """SUSY partner of V built numerically from its ground band edge, as
    a grid of PARTNER_N samples.

    The nodeless ground state psi_0 is computed spectrally, u = log
    psi_0 is differentiated in Fourier space, and the partner is
    V - 2 u''.  That expression carries the ground energy through
    automatically, so the output is isospectral to V whether or not V
    was shifted to put its ground edge at zero energy.

    Where psi_0 comes from the cos block, V is even to the split rule of
    _cos_sin_blocks, and so are psi_0 and the partner: its samples p are
    replaced by their even part (p + p(-x)) / 2, mirror-symmetric bit for
    bit, and the odd part dropped is noise of u''.  An even partner then
    takes band_edges' half-period route and galerkin_edges' split, as V
    does.  A V with a sine part keeps its partner whole.

    The record V._magnus["partner"] on V, its DEBUG line also where psi_0
    has a node, holds BASIS_N, the ground energy, whether it came from the
    cos block, the odd part removed, max|p - p(-x)| / max|p| (nan if none),
    and min psi_0 / max psi_0, the range log psi_0 must resolve.
    """
    L = V.period
    w, U = _ground_solve(V, np.linalg.eigh)
    # psi_0 from its coefficients on 1, sqrt2 cos and sqrt2 sin (all 0 on sin from the cos block)
    c = np.pad(U[:, 0], (0, 2 * BASIS_N + 1 - len(U)))
    psi = np.fft.irfft(np.concatenate(([math.sqrt(2.0) * c[0]],
                                       c[1 : BASIS_N + 1] - 1j * c[BASIS_N + 1 :])), PARTNER_N)
    psi = psi / psi[int(np.argmax(np.abs(psi)))]  # peak at +1
    even = len(U) <= BASIS_N + 1
    record = V._magnus["partner"] = dict(basis_n=BASIS_N, ground_energy=float(w[0]), cos_block=even,
                                         odd_part=math.nan, min_psi=float(psi.min()))
    try:
        _reject_nodal(psi)
        u2 = GridFunction(period=L, samples=np.log(psi)).derivative(2).samples
        partner = V.sample(PARTNER_N) - 2.0 * u2
        if even:  # keep the even part: partner(-x_i) = partner(x_(N - i))
            mirror = np.roll(partner[::-1], 1)
            peak = np.max(np.abs(partner))
            odd = np.max(np.abs(partner - mirror)) / peak if peak > 0.0 else 0.0
            record["odd_part"], partner = float(odd), 0.5 * (partner + mirror)
    finally:
        _debug(__name__, "numeric_partner", record)
    return PeriodicPotential(period=L, evaluator=GridFunction(period=L, samples=partner))
