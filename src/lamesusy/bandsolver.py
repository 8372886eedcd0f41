"""Band structure of smooth periodic Schrodinger operators.

Two independent spectral methods are provided on purpose, so that one
can arbitrate the other's bugs:

  * a Floquet route: the trace of the monodromy matrix of
    -y'' + V y = E y over one period, scanned and bisected to locate
    the energies where it equals +2 (periodic edge) or -2
    (antiperiodic edge);
  * a plane-wave Galerkin route: the periodic and antiperiodic
    eigenproblems assembled from Fourier coefficients of V, whose
    sorted union of eigenvalues is exactly the edge sequence.

Band edges follow the oscillation-theorem boundary pattern
periodic, anti, anti, periodic, periodic, anti, anti, ...
Closed gaps (the trace only touching +-2) are reported as two
coincident edges flagged degenerate, so lists keep uniform length.

The monodromy matrix is a product of sixth-order Magnus steps
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009): V is sampled
once per step count at the three Gauss nodes of every step, each
step's 2x2 exponential is formed in closed form for a whole batch of
energies at once, and the steps are multiplied together by pairwise
tree reduction.  The step count is settled once per potential,
tolerance and energy range, from the difference between the n-step and
2n-step products at fixed probe energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    IncompleteSpectrumError,
    InvalidGroundStateError,
    NumericalError,
)
from .grid import GridFunction

TOL = 1e-11         # bound on each monodromy entry, relative to the largest partial product
SCAN_TOL = 1e-7     # the same bound for the sign-only discriminant scan
BISECT_TOL = 1e-9
DEFAULT_SCAN = 2048
MIN_STEPS = 64
MAX_STEPS = 2 ** 14  # largest step count the engine accepts
CHUNK = 2 ** 15      # steps x energies held in memory at once
_PROBES = 17         # probe energies per range at which a step count is settled
_RANGE_WAVES = 16    # free half-waves per period above max V in the lowest range
_BOUNDARY = {2.0: "periodic", -2.0: "antiperiodic"}  # trace value at each edge type
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


def expected_boundary(n: int) -> str:
    """Boundary type of edge n in the oscillation-theorem pattern."""
    return "periodic" if ((n + 1) // 2) % 2 == 0 else "antiperiodic"


@dataclass
class PeriodicPotential:
    """A real potential of one period, evaluable on the real line."""

    period: float
    evaluator: Callable
    smoothness_hint: str = "analytic"
    _validated: bool = field(default=False, repr=False)
    # node samples and settled step counts of the Magnus engine
    _magnus: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.period > 0) or not math.isfinite(self.period):
            raise DomainError(f"period must be positive and finite, got {self.period!r}")
        if self.smoothness_hint not in ("analytic", "sampled"):
            raise DomainError(f"unknown smoothness hint {self.smoothness_hint!r}")

    def __call__(self, x):
        return self.evaluator(x)

    def sample(self, n: int) -> np.ndarray:
        x = np.arange(n) * (self.period / n)
        return self._eval_vec(x)

    def _eval_vec(self, xs: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(self.evaluator(xs), dtype=float)
            if out.shape != xs.shape:
                raise TypeError
            return out
        except TypeError:
            return np.array([float(self.evaluator(float(x))) for x in xs])

    def validate(self, probes: int = 8, tol: float = 1e-9):
        """Spot-check that evaluator(x + period) == evaluator(x)."""
        if self._validated:
            return
        x = (np.arange(probes) + 0.37) * (self.period / probes)
        a = self._eval_vec(x)
        b = self._eval_vec(x + self.period)
        if np.max(np.abs(a - b)) > tol * max(1.0, np.max(np.abs(a))):
            raise DomainError("evaluator is not periodic with the declared period")
        self._validated = True


@dataclass(frozen=True)
class BandEdge:
    """One spectral band edge."""

    n: int
    energy: float
    boundary: str  # "periodic" | "antiperiodic"
    degenerate: bool = False


@dataclass(frozen=True)
class Discriminant:
    """Floquet discriminant sample: trace of the monodromy matrix at E."""

    energy: float
    value: float


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

def _step_coefficients(V: PeriodicPotential, n: int) -> tuple:
    """(h, h V2, a0, a1, b0, c0, c1) of n equal steps; columns of shape (n, 1)."""
    key = ("steps", n)
    if key not in V._magnus:
        h = V.period / n
        v = V._eval_vec(((np.arange(n)[:, None] + _GAUSS) * h).ravel()).reshape(n, 3)
        d2 = (math.sqrt(15.0) * h / 3.0) * (v[:, 2] - v[:, 0])
        d3 = (10.0 * h / 3.0) * (v[:, 2] - 2.0 * v[:, 1] + v[:, 0])
        k = h * d2  # [B1, B2] = [[k, 0], [0, -k]]
        cols = (h * v[:, 1],
                k * (h * d3 / 7200.0 - 1.0 / 12.0),
                k * (h / 180.0),
                h + h * (k * k - 20.0 * h * d3) / 3600.0,
                d3 / 12.0 + h * d3 * d3 / 3600.0 - k * d2 / 120.0,
                1.0 + h * d3 / 180.0 + k * k / 3600.0)
        V._magnus[key] = (h,) + tuple(c[:, None] for c in cols)
    return V._magnus[key]


def _step_propagators(coef: tuple, E: np.ndarray) -> np.ndarray:
    """exp(Omega) of every step at every energy, shape (4, steps, energies).

    Omega is traceless, so Omega^2 = z I with z = a^2 + b c, and
    exp(Omega) = C I + S Omega with C = cosh(s), S = sinh(s)/s, s = sqrt(z)
    (cos and sin of sqrt(-z) when z < 0).
    """
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
    return np.stack([C + S * a, S * b0, S * c, C - S * a])


def _tree_product(P: np.ndarray) -> tuple:
    """Ordered products P[:, -1] @ ... @ P[:, 0] along axis 1, by pairs.

    Returns the products, shape (4, columns), and per column the largest
    entry of any partial product formed (at least 1, the initial data).
    """
    scale = np.ones(P.shape[2])
    while P.shape[1] > 1:
        half = P.shape[1] // 2
        A = P[:, 1 : 2 * half : 2]  # later steps multiply from the left
        B = P[:, 0 : 2 * half : 2]
        Q = np.stack([A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
                      A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3]])
        P = np.concatenate([Q, P[:, 2 * half :]], axis=1) if P.shape[1] % 2 else Q
        np.maximum(scale, np.abs(P).max(axis=(0, 1)), out=scale)
    return P[:, 0], scale


def _product(V: PeriodicPotential, n: int, E: np.ndarray) -> tuple:
    """Monodromy entries (m11, m12, m21, m22) over n steps, and their scale,
    in chunks of at most CHUNK steps x energies that no result depends on."""
    coef = _step_coefficients(V, n)
    M = np.empty((4, E.size))
    scale = np.empty(E.size)
    per = max(1, CHUNK // n)
    for lo in range(0, E.size, per):
        part = slice(lo, lo + per)
        M[:, part], scale[part] = _tree_product(_step_propagators(coef, E[part]))
    return M, scale


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


def _step_count(V: PeriodicPotential, tol: float, r: int) -> int:
    """Smallest power-of-two step count meeting ``tol`` on energy range r.

    The error of the n-step product is estimated by its distance to the
    2n-step product at _PROBES energies spread over the range, entry by
    entry, relative to the largest partial product along the way (a
    final-matrix norm would demand accuracy below roundoff where the
    entries cancel).  The count depends on V, tol and r only.
    """
    key = ("count", tol, r)
    if key not in V._magnus:
        n = MIN_STEPS if r == 0 else _step_count(V, tol, r - 1)
        vmin, vmax = _span(V)
        top = vmax + (2.0 ** r * math.pi * _RANGE_WAVES / V.period) ** 2
        probes = np.linspace(vmin - 1.0, top, _PROBES)
        coarse, scale = _product(V, n, probes)
        while True:
            fine, fine_scale = _product(V, 2 * n, probes)
            err = np.max(np.abs(fine - coarse) / np.maximum(scale, fine_scale))
            if err <= tol:
                break
            if 2 * n > MAX_STEPS:
                raise NumericalError(f"monodromy error {err:.2g} exceeds {tol:g} at {MAX_STEPS} "
                                     "steps; the potential is too rough for the Floquet route")
            n, coarse, scale = 2 * n, fine, fine_scale
        V._magnus[key] = n
    return V._magnus[key]


def _monodromy(V: PeriodicPotential, energies, tol: float = TOL,
               refined: bool = False) -> tuple:
    """Monodromy entries and scales for a batch of E; ``refined`` doubles
    the settled step count, for error estimates."""
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.all(np.isfinite(E)):
        raise DomainError("energies must be finite")
    M = np.empty((4, E.size))
    scale = np.empty(E.size)
    ranges = _energy_range(V, E)
    for r in np.unique(ranges):
        sel = ranges == r
        n = _step_count(V, tol, int(r)) * (2 if refined else 1)
        M[:, sel], scale[sel] = _product(V, n, E[sel])
    return M, scale


def monodromy_trace(V: PeriodicPotential, E: float) -> float:
    """Trace of the one-period monodromy matrix of -y'' + V y = E y."""
    V.validate()
    return float(_trace_batch(V, [float(E)])[0])


def _trace_batch(V: PeriodicPotential, energies) -> np.ndarray:
    M, _ = _monodromy(V, energies)
    return M[0] + M[3]


def discriminant(V: PeriodicPotential, E: float) -> Discriminant:
    return Discriminant(energy=float(E), value=monodromy_trace(V, E))


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
    """How far the trace passes each +-2 target (positive in a gap), from
    the 2n-step product, and the error of that value: its distance to the
    n-step value plus a roundoff allowance for the tree of products."""
    coarse, _ = _monodromy(V, energies)
    fine, scale = _monodromy(V, energies, refined=True)
    over, gain = _edge_residual(fine, targets)
    noise = np.abs(over - _edge_residual(coarse, targets)[0])
    return np.sign(targets) * over, noise + 64.0 * np.finfo(float).eps * scale * gain


# ---------------------------------------------------------------------------
# edge location
# ---------------------------------------------------------------------------

def _bisect_batch(V, lo, hi, target, tol=BISECT_TOL):
    """Vectorized bisection of trace(E) = target on brackets [lo, hi]."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    target = np.array(target, dtype=float)
    g_lo = _edge_residual(_monodromy(V, lo)[0], target)[0]
    width = float(np.max(hi - lo))
    iters = max(1, int(math.ceil(math.log2(max(width / tol, 2.0)))))
    for _ in range(min(iters, 80)):
        mid = 0.5 * (lo + hi)
        g_mid = _edge_residual(_monodromy(V, mid)[0], target)[0]
        take_lo = np.sign(g_mid) == np.sign(g_lo)
        lo = np.where(take_lo, mid, lo)
        g_lo = np.where(take_lo, g_mid, g_lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def _refine_extrema_batch(V, lo, hi, maximize, golden_iters=22, newton_iters=3):
    """Extrema of the trace on a batch of brackets.

    Golden-section narrows each bracket, then Newton steps on the
    finite-difference derivative polish the location: the derivative
    has a simple root at the extremum, which locates a closed-gap
    touch far better than comparing nearly equal trace values.
    ``maximize`` is a boolean array; all probes of all brackets go
    through one batched trace call per iteration.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sgn = np.where(np.asarray(maximize), 1.0, -1.0)
    n = lo.size
    for _ in range(golden_iters):
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f = _trace_batch(V, np.concatenate([x1, x2]))
        keep_low = sgn * f[:n] >= sgn * f[n:]
        hi = np.where(keep_low, x2, hi)
        lo = np.where(keep_low, lo, x1)
    xe = 0.5 * (lo + hi)
    h = 1e-4 * (1.0 + np.abs(xe))
    for _ in range(newton_iters):
        f = _trace_batch(V, np.concatenate([xe - h, xe, xe + h]))
        fm, f0, fp = f[:n], f[n : 2 * n], f[2 * n :]
        d1 = (fp - fm) / (2.0 * h)
        d2 = (fp - 2.0 * f0 + fm) / (h * h)
        safe = np.abs(d2) > 1e-30
        step = np.where(safe, -d1 / np.where(safe, d2, 1.0), 0.0)
        xe = np.clip(xe + step, lo, hi)
    return xe


def _transversal_roots(V, Es, tr):
    """Bisect every sign change of (trace -+ 2) on the scan grid."""
    lo, hi, tgt = [], [], []
    for target in _BOUNDARY:
        above = tr >= target
        cross = np.nonzero(above[:-1] != above[1:])[0]
        lo += Es[cross].tolist()
        hi += Es[cross + 1].tolist()
        tgt += [target] * cross.size
    if not lo:
        return []
    return sorted((float(r), _BOUNDARY[t]) for r, t in zip(_bisect_batch(V, lo, hi, tgt), tgt))


def _extremum_brackets(Es, tr, margin=1.2):
    """Interior extrema of the sampled trace that approach +-2.

    Returns (index, +-2) pairs, ascending in energy.  These mark
    either closed gaps (trace touches +-2) or open gaps narrower than
    the grid (the dip was not sampled beyond +-2).
    """
    interior = np.arange(1, len(Es) - 1)
    is_max = (tr[interior] >= tr[interior - 1]) & (tr[interior] >= tr[interior + 1])
    is_min = (tr[interior] <= tr[interior - 1]) & (tr[interior] <= tr[interior + 1])
    out = [(int(i), 2.0) for i in interior[is_max & (tr[interior] > 2.0 - margin)]]
    out += [(int(i), -2.0) for i in interior[is_min & (tr[interior] < -2.0 + margin)]]
    return sorted(out)


def _dip(tr, left, right, target):
    """Widen [left, right] to the nearest samples outside the gap at target."""
    sgn = math.copysign(1.0, target)
    while left > 0 and sgn * (tr[left] - target) > 0:
        left -= 1
    while right < len(tr) - 1 and sgn * (tr[right] - target) > 0:
        right += 1
    return left, right


def _scan_edges(V, e_min, e_max, n_cells, count):
    """One scan pass: transversal crossings plus near-touch extrema.

    Returns (roots, touches): simple roots as (energy, boundary) and
    closed-gap touch points as (energy, boundary) each standing for a
    coincident pair.
    """
    Es = np.linspace(e_min, e_max, n_cells + 1)
    cell = Es[1] - Es[0]
    M, scale = _monodromy(V, Es, SCAN_TOL)
    tr = M[0] + M[3]
    # the scan decides signs only; samples within its error of +-2 are
    # recomputed at full accuracy so that no sign is misread
    unsure = np.minimum(np.abs(tr - 2.0), np.abs(tr + 2.0)) <= 4.0 * SCAN_TOL * scale
    if unsure.any():
        tr[unsure] = _trace_batch(V, Es[unsure])
    roots = _transversal_roots(V, Es, tr)

    # Extrema above the energy where `count` simple roots already exist
    # cannot enter the result; skip them.  An extremum whose surrounding
    # |trace| > 2 excursion already contributed both transversal roots is
    # redundant too: walk the dip extent before deciding to refine.
    cutoff = roots[count - 1][0] + 2.0 * cell if len(roots) >= count else math.inf
    cands = []
    for i, target in _extremum_brackets(Es, tr):
        left, right = _dip(tr, i, i, target)
        near = [r for r, b in roots if b == _BOUNDARY[target]
                and Es[left] - cell <= r <= Es[right] + cell]
        if Es[i] <= cutoff and len(near) < 2:
            cands.append((i, target))
    if not cands:
        return roots, []

    targets = np.array([t for _, t in cands])
    xe = _refine_extrema_batch(V, [Es[i - 1] for i, _ in cands],
                               [Es[i + 1] for i, _ in cands], targets > 0)
    overshoot, noise = _overshoot(V, xe, targets)
    touches, flanks = [], []
    for e_star, target, over, nz in zip(xe.tolist(), targets, overshoot, noise):
        if over > nz:
            # the trace measurably passes +-2: an open gap between grid
            # points; bisect both flanks, out to the nearest grid points
            # back inside the band
            j = min(max(0, int(np.searchsorted(Es, e_star)) - 1), len(Es) - 2)
            left, right = _dip(tr, j, j + 1, target)
            flanks += [(Es[left], e_star, target), (e_star, Es[right], target)]
        else:
            # every extremum of the trace reaches +-2, so this one touches
            # it: a closed gap (M = +-I), or one narrower than the product
            # resolves.  No lower bound applies: the polished point misses
            # a closed gap's touch, which puts the overshoot below zero by
            # the square of that miss.
            touches.append((e_star, _BOUNDARY[target]))
    if flanks:
        lo, hi, tgt = zip(*flanks)
        extra = _bisect_batch(V, lo, hi, tgt)
        roots = sorted(roots + [(float(r), _BOUNDARY[t]) for r, t in zip(extra, tgt)])
    return roots, touches


def _assemble(roots, touches, span):
    """Merge simple roots and degenerate pairs into one sorted edge list."""
    tol = max(1e-8, 1e-9 * span)

    def dedupe(pairs):
        kept = []
        for e, bnd in pairs:
            if not (kept and kept[-1][1] == bnd and abs(kept[-1][0] - e) <= tol):
                kept.append((e, bnd))
        return kept

    out = [(e, bnd, False) for e, bnd in dedupe(roots)]
    out += [(e, bnd, True) for e, bnd in dedupe(sorted(touches)) for _ in range(2)]
    out.sort()
    return out


def band_edges(V: PeriodicPotential, count: int, e_max: Optional[float] = None,
               scan_points: int = DEFAULT_SCAN) -> list:
    """First ``count`` band edges of -y'' + V y = E y, sorted by energy.

    Scans the Floquet discriminant from just below inf V up to
    ``e_max`` (auto-extended when omitted), bisects every crossing of
    +-2 to 1e-9, and recovers closed or under-resolved gaps from
    interior extrema of the trace.  Raises IncompleteSpectrumError if
    the window cannot supply ``count`` edges.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    V.validate()
    v_min, v_max = _span(V)
    e_min = v_min - 1.0
    auto = e_max is None
    if auto:
        # generous first window: top edge sits at most O(((count+1) pi / 2L)^2)
        # above the potential maximum for smooth potentials
        e_max = v_max + 2.0 + (math.pi * (count + 1) / (2.0 * V.period)) ** 2
    if not (e_max > e_min):
        raise DomainError("e_max must exceed inf V - 1")

    expansions = 0
    n_cells = scan_points
    while True:
        roots, touches = _scan_edges(V, e_min, e_max, n_cells, count)
        found = [BandEdge(n=i, energy=e, boundary=b, degenerate=d)
                 for i, (e, b, d) in enumerate(_assemble(roots, touches, e_max - e_min))]
        if len(found) >= count and all(e.boundary == expected_boundary(e.n) for e in found[:count]):
            return found[:count]
        if len(found) < count and auto and expansions < 12:
            e_max = e_min + 1.7 * (e_max - e_min)
            expansions += 1
            continue
        if n_cells < 4 * DEFAULT_SCAN:
            n_cells *= 2  # halve the scan step and try again
            continue
        raise IncompleteSpectrumError(
            f"found {len(found)} band edges below E={e_max!r}, needed {count}: "
            + ", ".join(f"{e.energy:.6g}({e.boundary[0]})" for e in found),
            found=found,
        )


# ---------------------------------------------------------------------------
# Bloch states at band edges
# ---------------------------------------------------------------------------

def bloch_edge_state(V: PeriodicPotential, edge: BandEdge, grid_n: int = 512) -> GridFunction:
    """(Anti)periodic solution at ``edge.energy`` on a uniform grid.

    The initial condition is the Floquet eigenvector of the monodromy
    matrix for multiplier +1 (periodic) or -1 (antiperiodic).  For a
    degenerate edge any initial condition is (anti)periodic; the first
    canonical one is used.  The result is normalized to max |psi| = 1.
    """
    V.validate()
    if grid_n < 64:
        raise DomainError("grid_n must be at least 64")
    E = float(edge.energy)
    n = _step_count(V, TOL, int(_energy_range(V, np.array([E]))[0]))
    per_cell = -(-n // grid_n)
    # steps grouped by grid cell: axis 1 runs over a cell's steps, axis 2
    # over the cells, so one tree product yields every cell's propagator
    steps = _step_propagators(_step_coefficients(V, per_cell * grid_n), np.array([E]))
    cells, _ = _tree_product(steps.reshape(4, grid_n, per_cell).transpose(0, 2, 1))
    M, _ = _tree_product(cells[:, :, None])
    m11, m12, m21, m22 = (float(x) for x in M[:, 0])
    rho = 1.0 if edge.boundary == "periodic" else -1.0
    a00, a01 = m11 - rho, m12
    a10, a11 = m21, m22 - rho
    r1 = math.hypot(a00, a01)
    r2 = math.hypot(a10, a11)
    scale = max(abs(m11), abs(m12), abs(m21), abs(m22), 1.0)
    if max(r1, r2) <= 1e-8 * scale:
        y, dy = 1.0, 0.0  # fully degenerate: every solution matches
    elif r1 >= r2:
        y, dy = a01 / r1, -a00 / r1
    else:
        y, dy = a11 / r2, -a10 / r2

    # the state on the grid: the Floquet vector through the prefix products
    values = np.empty(grid_n)
    for i, (p11, p12, p21, p22) in enumerate(cells.T.tolist()):
        values[i] = y
        y, dy = p11 * y + p12 * dy, p21 * y + p22 * dy
    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise NumericalError("edge state vanished identically; bad edge data")
    values = values / peak
    if values[int(np.argmax(np.abs(values)))] < 0:
        values = -values
    # strip propagation noise above the state's analytic bandwidth; an
    # antiperiodic state is periodic over the doubled cell
    if edge.boundary == "periodic":
        smoothed = GridFunction(V.period, values).spectral_filter(1e-9).samples
    else:
        doubled = GridFunction(2.0 * V.period, np.concatenate([values, -values]))
        smoothed = doubled.spectral_filter(1e-9).samples[:grid_n]
    peak = np.max(np.abs(smoothed))
    smoothed = smoothed / peak
    return GridFunction(period=V.period, samples=smoothed)


# ---------------------------------------------------------------------------
# plane-wave Galerkin route
# ---------------------------------------------------------------------------

def _fourier_coeffs(V: PeriodicPotential, n_modes: int) -> np.ndarray:
    m_samp = 4 * n_modes
    vals = V.sample(m_samp)
    return np.fft.fft(vals) / m_samp  # index q (mod m_samp) = mode e^{2pi i q x / L}


def _plane_wave_matrix(vhat: np.ndarray, k: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """H = k^2 + V in the basis e^{i k x}; vhat supplies V_0 on the diagonal."""
    return vhat[np.mod(modes[:, None] - modes[None, :], vhat.size)] + np.diag(k**2)


def galerkin_edges(V: PeriodicPotential, count: int, basis_n: int = 64) -> list:
    """Band edges from the periodic and antiperiodic plane-wave problems.

    Assembles dense Hermitian matrices in the e^{i k x} basis with
    Fourier coefficients of V taken by FFT on 4*basis_n samples, and
    merges the two sorted spectra; their union is the edge sequence,
    including coincident pairs at closed gaps.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    if basis_n < 2 * count + 8:
        raise DomainError(
            f"basis_n={basis_n!r} too small for count={count!r}; need >= {2 * count + 8}"
        )
    V.validate()
    L = V.period
    vhat = _fourier_coeffs(V, basis_n)
    n_per = np.arange(-basis_n, basis_n + 1)
    k_per = (2.0 * np.pi / L) * n_per
    n_anti = np.arange(-basis_n, basis_n)
    k_anti = (np.pi / L) * (2 * n_anti + 1)

    try:
        ev_per = np.linalg.eigvalsh(_plane_wave_matrix(vhat, k_per, n_per))
        ev_anti = np.linalg.eigvalsh(_plane_wave_matrix(vhat, k_anti, n_anti))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Galerkin eigenproblem failed: {exc}") from exc

    labelled = [(float(e), "periodic") for e in ev_per]
    labelled += [(float(e), "antiperiodic") for e in ev_anti]
    labelled.sort()
    if len(labelled) < count:
        raise IncompleteSpectrumError(
            f"Galerkin basis produced {len(labelled)} eigenvalues, needed {count}"
        )
    chosen = labelled[:count]
    edges = []
    for i, (e, bnd) in enumerate(chosen):
        deg = False
        tol = 1e-7 * max(1.0, abs(e))
        if i > 0 and chosen[i - 1][1] == bnd and abs(chosen[i - 1][0] - e) <= tol:
            deg = True
            edges[i - 1] = BandEdge(n=i - 1, energy=edges[i - 1].energy,
                                    boundary=bnd, degenerate=True)
        edges.append(BandEdge(n=i, energy=e, boundary=bnd, degenerate=deg))
    return edges


# ---------------------------------------------------------------------------
# SUSY partner pipeline for arbitrary smooth periodic potentials
# ---------------------------------------------------------------------------

def _reject_nodal(psi: np.ndarray):
    """Raise if the sampled state changes sign anywhere."""
    if np.any(psi[:-1] * psi[1:] < 0):
        raise InvalidGroundStateError("ground state changes sign; partner undefined")


def ground_energy(V: PeriodicPotential, basis_n: int = 64) -> float:
    """Lowest band-edge energy via the periodic plane-wave problem."""
    V.validate()
    return _ground_pair(V, basis_n)[0]


def _ground_pair(V: PeriodicPotential, basis_n: int):
    """Ground energy and real-valued Fourier-accurate ground state samples."""
    n_per = np.arange(-basis_n, basis_n + 1)
    H = _plane_wave_matrix(_fourier_coeffs(V, basis_n), (2.0 * np.pi / V.period) * n_per, n_per)
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ground-state eigenproblem failed: {exc}") from exc
    return float(w[0]), n_per, U[:, 0]


def numeric_partner(V: PeriodicPotential, grid_n: int = 512, basis_n: int = 64) -> PeriodicPotential:
    """SUSY partner of V built numerically from its ground band edge.

    The nodeless ground state psi_0 is computed spectrally, u = log
    psi_0 is differentiated in Fourier space, and the partner is
    V - 2 u''.  That expression carries the ground energy through
    automatically, so the output is isospectral to V whether or not V
    was shifted to put its ground edge at zero energy.
    """
    V.validate()
    if grid_n < max(64, 2 * basis_n + 2):
        raise DomainError(f"grid_n must be at least {max(64, 2 * basis_n + 2)}")
    L = V.period
    _, modes, coef = _ground_pair(V, basis_n)

    spectrum = np.zeros(grid_n, dtype=complex)
    spectrum[np.mod(modes, grid_n)] = coef
    psi_c = np.fft.ifft(spectrum) * grid_n
    # a simple lowest eigenvalue fixes the eigenvector up to a global phase
    phase = psi_c[int(np.argmax(np.abs(psi_c)))]
    psi_rot = psi_c * np.conj(phase / abs(phase))
    if np.max(np.abs(psi_rot.imag)) > 1e-8 * np.max(np.abs(psi_rot.real)):
        raise NumericalError("ground state failed to come out real")
    psi = psi_rot.real

    _reject_nodal(psi)
    psi = psi / np.max(np.abs(psi))
    if psi[int(np.argmax(np.abs(psi)))] < 0:
        psi = -psi

    u = GridFunction(period=L, samples=np.log(psi))
    u2 = u.derivative(2).samples
    xs = np.arange(grid_n) * (L / grid_n)
    partner_samples = V._eval_vec(xs) - 2.0 * u2

    interp = GridFunction(period=L, samples=partner_samples)
    return PeriodicPotential(period=L, evaluator=interp.eval, smoothness_hint="sampled")
