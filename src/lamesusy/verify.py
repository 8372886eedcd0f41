"""Verification suites for the partner-potential construction.

Each suite turns one family of checkable statements into structured
ClaimReports: band-edge energies against the blind band solver,
Schrodinger residuals of every closed-form eigenfunction, the
intertwining relation between partner eigenfunctions, the hyperbolic
and free limits, isospectrality of partner pairs (V+ from the numeric
pipeline for j >= 4), and the self-isospectrality dichotomy:
the j=1 partner is the original potential translated by half a period,
while for j >= 2 the partner is a genuinely new potential.

All suites are deterministic: identical inputs produce bit-identical
reports, in canonical (suite, j, m, claim) order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import bandsolver, susy
from .elliptic import complete_k, jacobi
from .errors import DomainError, NumericalError
from .grid import GridFunction, _mode_weights, on_fine_grid, series_sum, spectrum

TOL_SELF = 1e-6          # sup-norm distance below which partners count as equal
DISTINCT_MIN = 1e-4      # distance every j >= 2 pair must exceed
DEGENERATE_M = 1e-6      # |m| or |1-m| below this: closed-gap regime
DEFAULT_M_LIST = (0.1, 0.5, 0.9)
RESIDUAL_N = 1024        # points of the residual grid over one period
RESIDUAL_H = 1e-4        # step of the residual's central second difference


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one verified claim."""

    claim_id: str
    measured: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """measured <= tolerance; a NaN measure fails."""
        return bool(self.measured <= self.tolerance)


def claim(claim_id: str, measured: float, tolerance: float, **context) -> ClaimReport:
    return ClaimReport(claim_id=claim_id, measured=float(measured), tolerance=float(tolerance),
                       context=context)


@dataclass(frozen=True)
class SelfIsoResult:
    """Best match of V+ against transformed copies of V-, and the call's record."""

    best_shift: float
    reflected: bool
    distance: float
    record: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def verdict(self) -> str:
        """self_isospectral where distance <= TOL_SELF, else distinct."""
        return "self_isospectral" if self.distance <= TOL_SELF else "distinct"


# ---------------------------------------------------------------------------
# transform-group distance
# ---------------------------------------------------------------------------

_SUP_OVERSAMPLE = 8
_SCAN_ROWS = 32          # shifts per block of the coarse scan (~1 MB at n = 512)
_SCAN_STRIDE = 16        # every 16th shift is scanned first, to bound the rest
_NEWTON_STEPS = 8        # steps a shift refinement's Newton solve may take
SHIFT_SAMPLES = 512      # translations of the coarse distance scan


def _scan_distance(cp: np.ndarray, c: np.ndarray, n: int, L: float, count: int) -> tuple:
    """(D, (s, reflected), record) of the coarse shift scan of vp against
    vm, the n-sample interpolants of period L with spectra cp and c.

    D(s, r) = max_i |vp(x_i) - vm(r(x_i - a))| for the shifts a = s*L/count,
    row r = 0 unreflected and r = 1 reflected, is +inf at each shift that
    provably cannot hold the minimum over both rows, and so was skipped.
    The pick is row 0's first minimum unless row 1's is smaller by more
    than delta = 64 eps log2(F) sum_k w_k (|cp_k| + |c_k|), a bound on
    twice the interpolants' rounding: on a tie to rounding, as an even vm
    ties the rows, the unreflected one wins.  Where vm's sine bound
    2 sum_k w_k |Im c_k|, a bound on |vm(y) - vm(-y)|, is at most delta,
    row 1 could win only by such a tie, so it is not scanned.  The record
    gives the shifts evaluated per row, whether row 1 was scanned, the
    sine bound and delta.

    The fine grid has F points, the least multiple of ``count`` that is
    >= 8n, so shift s rolls the upsampled vm by s*F/count points and one
    grid serves every shift.  A parabolic fit refines each max to ~1e-7,
    plenty for ranking candidate shifts.

    Every 16th shift of both rows is evaluated first.  The rows of
    shifts s and t are rolls of one computed grid of vm, so they differ
    pointwise by at most lam*|s - t|*L/count (distance taken around the
    circle; lam = sum_k w_k (2 pi k/L)|c_k| bounds |vm'| in either
    orientation) plus twice that grid's rounding.  The parabolic bump
    is >= 0, so D(s) >= y0(t) - lam*|s - t|*L/count - delta for each
    of the two coarse neighbours t of s, y0 the grid maximum before
    the bump and delta at least that rounding (Shubert, SIAM J. Numer.
    Anal. 9:379, 1972).  Best first, in blocks of _SCAN_ROWS, every
    shift whose bound is <= min*(1 + 1e-12) + delta, min the running
    minimum over both rows, is evaluated as a full scan evaluates it.
    A skipped shift then lies strictly above the minimum, and a row's
    minimum within delta of it is evaluated, so the pick is that of the
    full scan of the rows scanned.
    """
    fine = count * -(-_SUP_OVERSAMPLE * n // count)
    w = _mode_weights(n)
    delta = float(64.0 * np.finfo(float).eps * math.log2(fine)
                  * np.sum(w * (np.abs(cp) + np.abs(c))))
    sine = 2.0 * float(np.sum(w * np.abs(c.imag)))
    a_vals = on_fine_grid(cp, n, fine)
    # row s of each orientation scanned is the window of [B, B] that starts at F - s*F/count
    rolled = [np.lib.stride_tricks.sliding_window_view(
        np.tile(on_fine_grid(b, n, fine), 2), fine)[fine:0:-(fine // count)]
        for b in (c, np.conj(c))[: 1 if sine <= delta else 2]]
    lam = float(np.sum(w * (2.0 * np.pi / L) * np.arange(c.size) * np.abs(c)))

    peak, dist = np.full((2, count), np.nan), np.full((2, count), np.inf)
    buf = np.empty((_SCAN_ROWS, fine))

    def evaluate(block):
        """Fill peak (y0) and dist (y0 + parabolic bump) at the flat indices ``block``."""
        diff = buf[: block.size]
        for row, (r, s) in zip(diff, zip(*np.divmod(block, count))):
            np.subtract(a_vals, rolled[r][s], out=row)
        np.abs(diff, out=diff)
        imax = np.argmax(diff, axis=1)
        k = np.arange(block.size)
        y0, ym, yp = diff[k, imax], diff[k, imax - 1], diff[k, (imax + 1) % fine]
        den = 2.0 * y0 - ym - yp
        bump = np.where(den > 1e-12 * np.maximum(y0, 1e-300),
                        (yp - ym) ** 2 / (8.0 * np.where(den > 0, den, 1.0)), 0.0)
        peak.flat[block], dist.flat[block] = y0, y0 + bump

    s = np.arange(count)
    coarse = np.concatenate([s[::_SCAN_STRIDE] + r * count for r in range(len(rolled))])  # flat
    for lo in range(0, coarse.size, _SCAN_ROWS):
        evaluate(coarse[lo : lo + _SCAN_ROWS])
    left = s - s % _SCAN_STRIDE
    right = np.minimum(left + _SCAN_STRIDE, count)  # count: shift 0, one turn on
    slope = lam * (L / count)
    bound = np.maximum(peak[:, left] - slope * (s - left),
                       peak[:, right % count] - slope * (right - s)) - delta
    todo = np.flatnonzero(np.isinf(dist[: len(rolled)]))
    todo = todo[np.argsort(bound.flat[todo], kind="stable")]
    best = dist.min()
    for lo in range(0, todo.size, _SCAN_ROWS):
        block = todo[lo : lo + _SCAN_ROWS]
        block = block[bound.flat[block] <= best * (1.0 + 1e-12) + delta]
        if not block.size:
            break
        evaluate(block)
        best = min(best, dist.flat[block].min())
    i = np.argmin(dist, axis=1)
    reflect = bool(dist[1, i[1]] < dist[0, i[0]] - delta)
    unreflected, reflected = np.isfinite(dist).sum(axis=1).tolist()
    return dist, (int(i[int(reflect)]), reflect), {
        "unreflected_shifts": unreflected, "reflected_shifts": reflected,
        "reflected_scanned": len(rolled) == 2, "sine_bound": sine, "delta": delta}


def _exact_distance(cp: np.ndarray, c: np.ndarray, n: int, L: float, reflect: bool,
                    floor: float):
    """f(x, a) = vp(x) - vm(r(x - a)) of the n-sample interpolants of
    period L with spectra cp and c.

    Returns ``survey(a)``: sup_x |f(x, a)| to ~1e-11 and the local maxima
    of |f(., a)| on the 8x oversampled grid, highest first, those within
    1e-4 of the top Newton-polished so competing peaks cannot be
    misranked (a grid maximum of at most ``floor`` is roundoff, returned
    as it is with no peaks); and ``at(xs, a)``: rows of f, f_x, f_xx,
    f_a and f_xa at the points xs, each an O(n) sum.  Shifting by a
    brings down -ik where d/dx brings down ik, so f_aa = -f_xa.
    """
    fine = _SUP_OVERSAMPLE * n
    c = np.conj(c) if reflect else c  # x -> -x
    ik = 2j * np.pi / L * np.arange(c.size)  # d/dx of e^{ikx} brings down ik
    h = L / fine

    def series(a):
        """Spectra of f, f_x, f_xx, f_a and f_xa at the shift a."""
        u = c * np.exp(-ik * a)  # vm(r(x - a)); d/da brings down -ik
        f, fa = cp - u, ik * u
        return np.stack([f, ik * f, ik * ik * f, fa, ik * fa], axis=1)

    def at(xs, a):
        return series_sum(series(a), n, L, xs)

    def survey(a):
        cols = series(a)
        vals = np.abs(on_fine_grid(cols[:, 0], n, fine))
        top = vals.max()
        if top <= floor:
            return float(top), np.zeros(0)
        peaks = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))[0]
        peaks = peaks[np.argsort(-vals[peaks], kind="stable")]
        xs, near = h * peaks, vals[peaks] >= top - 1e-4 * max(top, 1.0)
        for _ in range(4):
            d1, d2 = series_sum(cols[:, 1:3], n, L, xs[near]).T
            xs[near] += np.clip(-d1 / np.where(np.abs(d2) > 1e-300, d2, np.inf), -h, h)
        polished = np.abs(series_sum(cols[:, 0], n, L, xs[near]))
        return float(max(top, polished.max())), xs

    return survey, at


def _active_set(rows: np.ndarray, offsets: np.ndarray) -> tuple:
    """Peaks active at the optimum of a model in the shift, that optimum
    among ``offsets`` (which hold 0), and what it gains over offset 0.

    ``rows`` are ``at`` at the peaks of |f|.  A peak's signed value moves
    as f + f_a t + (f_aa - f_xa^2 / f_xx) t^2 / 2 with the shift.  Two
    peaks are active where the top one differs on the two sides of the
    optimum, else one.
    """
    f, _, fxx, fa, fxa = rows.T
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = np.nan_to_num(-fxa - fxa ** 2 / fxx)
    model = f[:, None] + offsets * (fa[:, None] + 0.5 * curv[:, None] * offsets)
    envelope = np.abs(model).max(axis=0)
    i = int(np.argmin(envelope))
    sides = [max(i - 1, 0), min(i + 1, offsets.size - 1)]
    left, right = np.argmax(np.abs(model[:, sides]), axis=0)
    active = np.array([left] if left == right else [left, right])
    return active, offsets[i], envelope[np.argmin(np.abs(offsets))] - envelope[i]


def _newton(at, x: np.ndarray, a: float, lo: float, hi: float) -> tuple:
    """(shift, steps) of the optimum with active peaks near x: f_x = 0 at
    each, and s1 f(x1, a) = s2 f(x2, a), s = sign f, or f_a(x1, a) = 0
    for a lone peak.  The shift is None unless the steps halve at least,
    inside [lo, hi], down to 1e-10 of its width."""
    p, last = x.size, np.inf
    for steps in range(1, _NEWTON_STEPS + 1):
        f, fx, fxx, fa, fxa = at(x, a).T
        J = np.zeros((p + 1, p + 1))
        J[range(p), range(p)], J[:p, p] = fxx, fxa
        sign = np.sign(f) * [1.0, -1.0][:p]
        F = np.append(fx, sign @ f if p == 2 else fa)
        J[p] = np.append(sign * fx, sign @ fa) if p == 2 else (fxa[0], -fxa[0])
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None, steps
        x, a, size = x + dz[:p], a + dz[p], np.max(np.abs(dz))
        if not lo <= a <= hi or size > 0.5 * last:
            return None, steps
        if size <= 1e-10 * (hi - lo):
            return a, steps
        last = size
    return None, _NEWTON_STEPS


def _refine_shift(survey, at, a0: float, step: float) -> tuple:
    """((distance, shift), record) of the sup-norm optimum in [a0 - step,
    a0 + step]; the record gives the last solve's active peaks, the Newton
    steps, exchanges, bisections, the stop reason and whether a0 was kept.

    A minimax optimum in one parameter has two active peaks, equal with
    opposite slopes in the shift, or one, stationary in it (Watson,
    Approximation Theory and Numerical Methods, 1980).  Each round keeps
    the side of the bracket toward which the top peak descends and
    models every surveyed peak on offsets shrinking to 1e-10 step
    (_active_set).  It ends where the model gains only roundoff;
    otherwise Newton (_newton) solves for the model's active set from
    its optimum, and the next survey exchanges in any peak that rose
    above the set, as Remez's algorithm does.  A failed solve, or one
    right after a Newton point that was no optimum, bisects the bracket
    instead, and a bracket under 1e-8 ends the search.  The best point
    surveyed is returned: never worse than a0, and a0 itself when its
    distance is roundoff.
    """
    d, xs = survey(a0)
    a, lo, hi, best, landed = a0, a0 - step, a0 + step, (d, a0), False
    ladder = 2.0 * step * 2.0 ** -np.arange(0.0, 35.0, 0.25)
    n_active = solves = newton = bisections = 0
    stop = "roundoff-level distance"
    while xs.size:
        rows = at(xs, a)
        top = int(np.argmax(np.abs(rows[:, 0])))
        lo, hi = (lo, a) if np.sign(rows[top, 0]) * rows[top, 3] > 0 else (a, hi)
        offsets = np.clip(np.concatenate([-ladder, [0.0], ladder[::-1]]), lo - a, hi - a)
        active, t, gain = _active_set(rows, offsets)
        if gain <= 1e-13 * max(1.0, d) or hi - lo <= 1e-8:
            stop = "converged" if hi - lo > 1e-8 else "bracket closed"
            break
        if not landed:
            n_active, solves = active.size, solves + 1
        shift, steps = (None, 0) if landed else _newton(at, xs[active], a + t, lo, hi)
        newton, landed = newton + steps, shift is not None
        if not landed:
            shift, bisections = 0.5 * (lo + hi), bisections + 1
        a = shift
        d, xs = survey(a)
        best = min(best, (d, a))
    return best, dict(active_peaks=n_active, newton_steps=newton, exchanges=max(solves - 1, 0),
                      bisections=bisections, stop=stop, coarse_shift_kept=bool(best[1] == a0))


def selfiso_distance(vp: GridFunction, vm: GridFunction) -> SelfIsoResult:
    """Minimal sup-norm distance between the interpolants of vp and vm
    over translations and reflection, D(a, r) = sup_x |vp(x) - vm(r(x - a))|.

    One spectrum of each input serves both stages.  A coarse scan over
    SHIFT_SAMPLES translations (_scan_distance) evaluates only the
    shifts a Lipschitz bound from every 16th one cannot rule out, and
    decides the orientation and the shift to refine, with the rounding
    allowance delta that decides them: on a tie within delta, as an even
    vm ties the two, the unreflected orientation wins.  A Newton solve
    for the active peaks of the difference at the optimal translation
    near that shift (_refine_shift) follows, never worse than that
    shift; a sup within delta is rounding, where the refinement keeps
    the scanned shift.  The result's record, the call's DEBUG line, is
    the scan's record (shifts evaluated per orientation, whether the
    reflected row was scanned, the sine bound and delta) merged with the
    refinement's.
    """
    if vp.n != vm.n:
        raise DomainError("grids must share the sample count")
    if abs(vp.period - vm.period) > 1e-12 * max(vp.period, vm.period):
        raise DomainError("grids must share the period")
    n, L = vm.n, vm.period
    step = L / SHIFT_SAMPLES
    cp, c = spectrum(vp.samples), spectrum(vm.samples)
    _, (s, reflect), scan = _scan_distance(cp, c, n, L, SHIFT_SAMPLES)
    (dist, a_best), record = _refine_shift(*_exact_distance(cp, c, n, L, reflect, scan["delta"]),
                                           s * step, step)
    record |= scan
    bandsolver._debug(__name__, "selfiso_distance", record)
    return SelfIsoResult(best_shift=float(a_best % L), reflected=reflect, distance=dist,
                         record=record)


# ---------------------------------------------------------------------------
# residual machinery
# ---------------------------------------------------------------------------

def schrodinger_residual(v: Callable, psi: Callable, energy: float, period: float) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| on RESIDUAL_N uniform points of a period.

    The second derivative is the central finite difference with step
    RESIDUAL_H.  The stencil is evaluated in extended precision so the
    reported number reflects h^2 truncation, not float64 roundoff.  The
    edge-state suite runs the same stencil (_stencil_residuals) on sn,
    cn and dn evaluated once per grid.
    """
    def sample(grids):
        lo, x, hi = grids
        return [(psi(lo), psi(x), psi(hi), v(x))]

    return _stencil_residuals(period, [energy], sample)[0]


def _stencil_residuals(period: float, energies, sample) -> list:
    """schrodinger_residual of one state per energy, on shared grids.

    ``sample`` maps the longdouble grids (x - h, x, x + h), x on
    RESIDUAL_N uniform points of [0, period) and h = RESIDUAL_H, to one
    (psi(x - h), psi(x), psi(x + h), V(x)) per energy.  Every argument is
    checked before ``sample`` is called.
    """
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be positive and finite, got {period!r}")
    if not all(math.isfinite(e) for e in energies):
        raise DomainError(f"energy must be finite, got {list(energies)!r}")
    x = (np.arange(RESIDUAL_N) * (period / RESIDUAL_N)).astype(np.longdouble)
    hh = np.longdouble(RESIDUAL_H)
    out = []
    for energy, (p_lo, p0, p_hi, v0) in zip(energies, sample((x - hh, x, x + hh))):
        second = (p_hi - 2.0 * p0 + p_lo) / (hh * hh)
        res = -second + (v0 - np.longdouble(energy)) * p0
        out.append(float(np.max(np.abs(res)) / np.max(np.abs(p0))))
    return out


def _ratio_spread(numer: np.ndarray, denom: np.ndarray, floor: float = 0.05) -> float:
    """Relative spread of numer/denom where |denom| clears the floor."""
    mask = np.abs(denom) >= floor * np.max(np.abs(denom))
    r = numer[mask] / denom[mask]
    mid = np.median(r)
    if mid == 0.0:
        return math.inf
    return float((np.max(r) - np.min(r)) / abs(mid))


# ---------------------------------------------------------------------------
# suite: closed-form band-edge states (energies, residuals, intertwining)
# ---------------------------------------------------------------------------

def run_edge_state_suite(m: float) -> list:
    """Verify the j=2 closed-form edge catalogue at modulus m.

    Per edge n = 0..4: the closed-form energy against the blind
    Floquet solver, Schrodinger residuals of both partner
    eigenfunctions on RESIDUAL_N points, and the intertwining map between them.
    sn, cn and dn are evaluated once per grid, the three longdouble
    stencil grids and the float64 one of the intertwining checks, and
    every psi, W and V here comes from those values.
    """
    if not (0.0 < m < 1.0):
        raise DomainError(f"edge-state suite needs m in (0, 1), got {m!r}")
    degenerate = m <= DEGENERATE_M or m >= 1.0 - DEGENERATE_M
    energy_tol = 1e-4 if degenerate else 1e-6
    j = 2
    L = 2.0 * complete_k(m)
    reports = []

    energies = susy.band_edge_energies(j, m)
    pot_minus = susy.PotentialSpec(susy.Family.V_MINUS, j, m).as_periodic_potential()
    solver_edges = bandsolver.band_edges(pot_minus, 2 * j + 1)
    ctx = {"j": j, "m": m, "grid_n": RESIDUAL_N, "degenerate_regime": degenerate}

    def states(grids):
        """(psi at x - h, x, x + h, V at x) of V- then V+, per edge."""
        lo, mid, hi = (jacobi(g, m) for g in grids)
        v_minus, v_plus = susy._v_minus(j, m, mid.sn), susy._v_plus_closed(j, m, *mid)
        for n in range(2 * j + 1):
            yield (*(susy._psi_minus(j, n, m, *t) for t in (lo, mid, hi)), v_minus)
            yield (*(susy._psi_plus(j, n, m, *t) for t in (lo, mid, hi)), v_plus)

    residuals = _stencil_residuals(L, np.repeat(energies, 2), states)

    on_xs = jacobi(np.arange(RESIDUAL_N) * (L / RESIDUAL_N), m)
    w = susy._ground_w(j, m, *on_xs)[0]
    for n in range(2 * j + 1):
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/energy",
            abs(energies[n] - solver_edges[n].energy), energy_tol,
            boundary=solver_edges[n].boundary, **ctx,
        ))
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/residual_minus", residuals[2 * n], 1e-7, **ctx))
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/residual_plus", residuals[2 * n + 1], 1e-7, **ctx))
        psi_minus, psi_plus = susy._psi_minus(j, n, m, *on_xs), susy._psi_plus(j, n, m, *on_xs)
        if n == 0:
            # the partner ground state is the reciprocal of psi_0
            measured = float(np.max(np.abs(psi_plus * psi_minus - 1.0)))
            reports.append(claim(
                f"edgestates/j={j}/m={m:g}/n=0/intertwine", measured, 1e-12, **ctx))
        else:
            mapped = susy._psi_minus_prime(j, n, m, *on_xs) + w * psi_minus
            spread = _ratio_spread(mapped, psi_plus)
            reports.append(claim(
                f"edgestates/j={j}/m={m:g}/n={n}/intertwine", spread, 1e-8, **ctx))
    return reports


# ---------------------------------------------------------------------------
# suite: degenerations of the modulus
# ---------------------------------------------------------------------------

def run_limit_suite() -> list:
    """m -> 1 hyperbolic limits of the j=2 pair and m -> 0 constancy."""
    reports = []
    m = 1.0 - 1e-8
    x = np.linspace(-3.0, 3.0, 601)
    sech2 = 1.0 / np.cosh(x) ** 2
    reports.append(claim(
        "limits/vminus_hyperbolic",
        float(np.max(np.abs(susy.v_minus(2, m, x) - (4.0 - 6.0 * sech2)))),
        1e-4, m=m))
    reports.append(claim(
        "limits/vplus_hyperbolic",
        float(np.max(np.abs(susy.v_plus_closed(2, m, x) - (4.0 - 2.0 * sech2)))),
        1e-4, m=m))
    xs = np.linspace(0.0, 2.0 * complete_k(0.0), 257)
    vplus0 = susy.v_plus_closed(2, 0.0, xs)
    reports.append(claim(
        "limits/vplus_constant_at_m0",
        float(np.max(np.abs(vplus0 - vplus0[0]))), 1e-12, m=0.0))
    for j in (1, 2, 3):
        vm0 = susy.v_minus(j, 0.0, xs)
        reports.append(claim(
            f"limits/vminus_constant_at_m0/j={j}",
            float(np.max(np.abs(vm0 - vm0[0]))), 1e-12, j=j, m=0.0))
        reports.append(claim(
            f"limits/w_vanishes_at_m0/j={j}",
            float(np.max(np.abs(susy.superpotential(j, 0.0, xs)))), 1e-12, j=j, m=0.0))
    return reports


# ---------------------------------------------------------------------------
# suite: isospectrality and the self-isospectral dichotomy
# ---------------------------------------------------------------------------

def _solver_agreement(edges, other_edges) -> float:
    """Worst disagreement between two edge lists, edge by edge."""
    return max((abs(a.energy - b.energy) for a, b in zip(edges, other_edges)), default=0.0)


def partner_pair(j: int, m: float, numeric: bool = False) -> tuple:
    """(V-, V+) of m j(j+1) sn^2 as PeriodicPotentials.

    V- is the closed form, exact for any j.  V+ is the closed form for
    j <= 3 unless ``numeric``; otherwise V-'s numeric_partner.
    """
    pot_minus = susy.PotentialSpec(susy.Family.V_MINUS, j, m).as_periodic_potential()
    if numeric or j > 3:
        return pot_minus, bandsolver.numeric_partner(pot_minus)
    return pot_minus, susy.PotentialSpec(susy.Family.V_PLUS, j, m).as_periodic_potential()


def _grid_of(pot, n: int = 512) -> GridFunction:
    return GridFunction(period=pot.period, samples=pot.sample(n))


def selfiso_claims(j: int, m: float, pot_minus, pot_plus, prefix: str = "iso") -> list:
    """Dichotomy claims: j=1 self-isospectral (shift K), j >= 2 distinct."""
    res = selfiso_distance(_grid_of(pot_plus), _grid_of(pot_minus))
    ctx = {"j": j, "m": m, "distance": res.distance, "verdict": res.verdict,
           "best_shift": res.best_shift, "reflected": res.reflected}
    out = []
    if j == 1:
        out.append(claim(f"{prefix}/j=1/m={m:g}/self_isospectral",
                         res.distance, TOL_SELF, **ctx))
        # best_shift lies in [0, 2K), so |a - K| is already the circle distance
        K = complete_k(m)
        out.append(claim(f"{prefix}/j=1/m={m:g}/shift_is_half_period",
                         abs(res.best_shift - K), 1e-4, **ctx))
    else:
        separation_defect = max(0.0, DISTINCT_MIN - res.distance)
        out.append(claim(f"{prefix}/j={j}/m={m:g}/distinct_partner",
                         separation_defect, 0.0, **ctx))
    return out


def run_selfiso_suite(m_list: Sequence[float] = DEFAULT_M_LIST,
                      j_list: Sequence[int] = (1, 2, 3)) -> list:
    """Transform-group distances for the closed-form indices."""
    reports = []
    for j in j_list:
        for m in m_list:
            pot_minus, pot_plus = partner_pair(j, m)
            reports.extend(selfiso_claims(j, m, pot_minus, pot_plus, prefix="selfiso"))
    return reports


def run_isospectrality_suite(j_list: Sequence[int] = (1, 2, 3, 4, 5),
                             m_list: Sequence[float] = DEFAULT_M_LIST) -> list:
    """Partner pairs share all 2j+1 band edges; dichotomy verdicts.

    V- is the closed form for every j, V+ through j=3 and the numeric
    partner above; both band solvers must agree on every edge list.
    """
    reports = []
    for j in j_list:
        edge_tol = 1e-6 if j <= 3 else 1e-5
        count = 2 * j + 1
        for m in m_list:
            ctx = {"j": j, "m": m, "count": count}
            try:
                pot_minus, pot_plus = partner_pair(j, m)
                edges_minus = bandsolver.band_edges(pot_minus, count)
                edges_plus = bandsolver.band_edges(pot_plus, count)
                gal_minus = bandsolver.galerkin_edges(pot_minus, count)
                gal_plus = bandsolver.galerkin_edges(pot_plus, count)
            except NumericalError as exc:
                reports.append(claim(f"iso/j={j}/m={m:g}/edges_match",
                                     math.inf, edge_tol, error=str(exc), **ctx))
                continue
            reports.append(claim(
                f"iso/j={j}/m={m:g}/edge_count",
                abs(len(edges_minus) - count) + abs(len(edges_plus) - count), 0.0, **ctx))
            reports.append(claim(
                f"iso/j={j}/m={m:g}/edges_match",
                _solver_agreement(edges_minus, edges_plus), edge_tol, **ctx))
            reports.append(claim(
                f"iso/j={j}/m={m:g}/solvers_agree_minus",
                _solver_agreement(edges_minus, gal_minus), 1e-6, **ctx))
            reports.append(claim(
                f"iso/j={j}/m={m:g}/solvers_agree_plus",
                _solver_agreement(edges_plus, gal_plus), 1e-6, **ctx))
            reports.extend(selfiso_claims(j, m, pot_minus, pot_plus))
    return reports


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def reports_to_json(reports: Iterable[ClaimReport]) -> str:
    """The reports as strict JSON (RFC 8259): a measure that is not finite
    is written as its str, "inf", "-inf" or "nan", as any value JSON has
    no form for is."""
    payload = [
        {
            "claim_id": r.claim_id,
            "measured": r.measured if math.isfinite(r.measured) else str(r.measured),
            "tolerance": r.tolerance,
            "passed": r.passed,
            "context": r.context,
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


def render_table(reports: Sequence[ClaimReport], color: bool = False) -> str:
    width = max((len(r.claim_id) for r in reports), default=20)
    lines = [f"{'claim':<{width}}  {'measured':>12}  {'tolerance':>12}  status"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        if color:
            status = f"\033[32m{status}\033[0m" if r.passed else f"\033[31m{status}\033[0m"
        lines.append(f"{r.claim_id:<{width}}  {r.measured:>12.3e}  {r.tolerance:>12.3e}  {status}")
    n_pass = sum(r.passed for r in reports)
    lines.append(f"{n_pass}/{len(reports)} claims passed")
    return "\n".join(lines)
