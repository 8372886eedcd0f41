"""Verification suites for the partner-potential construction.

Each suite turns one family of checkable statements into structured
ClaimReports: band-edge energies against the blind band solver,
Schrodinger residuals of every closed-form eigenfunction, the
intertwining relation between partner eigenfunctions, the hyperbolic
and free limits, isospectrality of partner pairs (including the
numeric pipeline for j >= 4), and the self-isospectrality dichotomy:
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
from .elliptic import complete_k
from .errors import DomainError, NumericalError
from .grid import GridFunction

TOL_SELF = 1e-6          # sup-norm distance below which partners count as equal
DISTINCT_MIN = 1e-4      # distance every j >= 2 pair must exceed
DEGENERATE_M = 1e-6      # |m| or |1-m| below this: closed-gap regime
DEFAULT_M_LIST = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one verified claim: passed iff measured <= tolerance."""

    claim_id: str
    measured: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.measured <= self.tolerance):
            raise DomainError("ClaimReport invariant violated: passed != (measured <= tolerance)")


def claim(claim_id: str, measured: float, tolerance: float, **context) -> ClaimReport:
    measured = float(measured)
    return ClaimReport(
        claim_id=claim_id,
        measured=measured,
        tolerance=float(tolerance),
        passed=bool(measured <= tolerance),
        context=context,
    )


@dataclass(frozen=True)
class SelfIsoResult:
    """Best match of V+ against transformed copies of V-."""

    best_shift: float
    reflected: bool
    distance: float
    verdict: str  # "self_isospectral" | "distinct"


# ---------------------------------------------------------------------------
# transform-group distance
# ---------------------------------------------------------------------------

_SUP_OVERSAMPLE = 8


def _series_eval(coef, weights, omega, x, order=0):
    """Real trig series (and derivatives) from half-spectrum ``coef`` at x."""
    k = np.arange(coef.size)
    kx = np.outer(np.atleast_1d(x), k) * omega
    a = weights * coef.real
    b = weights * coef.imag
    if order == 0:
        return np.cos(kx) @ a - np.sin(kx) @ b
    if order == 1:
        return (-np.sin(kx) @ (a * k) - np.cos(kx) @ (b * k)) * omega
    return (-np.cos(kx) @ (a * k * k) + np.sin(kx) @ (b * k * k)) * omega**2


def _sup_of_difference(dcoef, weights, period) -> float:
    """Continuum sup of |series(dcoef)|: grid argmax plus Newton polish.

    Every local maximum of the oversampled |difference| within 1e-4 of
    the top is refined, so competing peaks cannot be misranked.
    """
    fine = _SUP_OVERSAMPLE * 2 * (dcoef.size - 1)
    pad = np.zeros(fine // 2 + 1, dtype=complex)
    pad[: dcoef.size] = dcoef * weights / 2.0
    pad[0] = dcoef[0]
    vals = np.fft.irfft(pad, n=fine) * fine
    avals = np.abs(vals)
    top = avals.max()
    if top == 0.0:
        return 0.0
    prev = np.roll(avals, 1)
    nxt = np.roll(avals, -1)
    cand = np.nonzero((avals >= prev) & (avals >= nxt) & (avals >= top - 1e-4 * max(top, 1.0)))[0]
    omega = 2.0 * np.pi / period
    xs = cand * (period / fine)
    for _ in range(4):
        d1 = _series_eval(dcoef, weights, omega, xs, 1)
        d2 = _series_eval(dcoef, weights, omega, xs, 2)
        step = np.where(np.abs(d2) > 1e-300, -d1 / np.where(d2 != 0, d2, 1.0), 0.0)
        step = np.clip(step, -period / fine, period / fine)
        xs = xs + step
    refined = np.abs(_series_eval(dcoef, weights, omega, xs, 0))
    return float(max(top, refined.max()))


def _scan_distance(vp: GridFunction, vm: GridFunction, shifts: np.ndarray,
                   reflect: bool, exact: bool = False) -> np.ndarray:
    """sup_x |vp(x) - vm(r(x - a))| for every shift a, one FFT batch.

    Both interpolants are band-limited; the difference is evaluated on
    an 8x oversampled grid (exact zero-padded resampling).  With
    ``exact`` the peaks are Newton-polished to the continuum sup
    (~1e-11); otherwise a parabolic fit is used, good to ~1e-7 and
    plenty for ranking candidate shifts.
    """
    n = vm.n
    fine = _SUP_OVERSAMPLE * n
    c = np.fft.rfft(vm.samples)
    if reflect:
        c = np.conj(c)
    k = np.arange(c.size)
    phases = np.exp(-2j * np.pi * np.outer(shifts / vm.period, k))
    rows = c[None, :] * phases
    if n % 2 == 0:
        rows[:, -1] = rows[:, -1].real
    cp = np.fft.rfft(vp.samples)
    dcoefs = (cp[None, :] - rows) / n
    weights = np.full(c.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0

    if exact:
        return np.array([
            _sup_of_difference(dcoefs[i], weights, vm.period)
            for i in range(shifts.size)
        ])

    pad = np.zeros((shifts.size, fine // 2 + 1), dtype=complex)
    pad[:, : c.size] = dcoefs * weights[None, :] / 2.0
    pad[:, 0] = dcoefs[:, 0]
    diff = np.abs(np.fft.irfft(pad, n=fine, axis=1) * fine)
    imax = np.argmax(diff, axis=1)
    rows_idx = np.arange(shifts.size)
    y0 = diff[rows_idx, imax]
    ym = diff[rows_idx, (imax - 1) % fine]
    yp = diff[rows_idx, (imax + 1) % fine]
    den = 2.0 * y0 - ym - yp
    bump = np.where(den > 1e-12 * np.maximum(y0, 1e-300),
                    (yp - ym) ** 2 / (8.0 * np.where(den > 0, den, 1.0)), 0.0)
    return y0 + bump


def selfiso_distance(vp: GridFunction, vm: GridFunction,
                     shift_samples: int = 512) -> SelfIsoResult:
    """Minimal sup-norm distance between vp and vm over translations
    and reflection, D(a, r) = sup_x |vp(x) - vm(r(x - a))|.

    A coarse scan over ``shift_samples`` translations of both
    orientations feeds a golden-section refinement of the best
    translation to |da| <= 1e-8.
    """
    if shift_samples < 256:
        raise DomainError("shift_samples must be at least 256")
    if vp.n != vm.n:
        raise DomainError("grids must share the sample count")
    if abs(vp.period - vm.period) > 1e-12 * max(vp.period, vm.period):
        raise DomainError("grids must share the period")
    L = vm.period
    shifts = np.arange(shift_samples) * (L / shift_samples)

    best = None
    for reflect in (False, True):
        d = _scan_distance(vp, vm, shifts, reflect)
        i = int(np.argmin(d))
        if best is None or d[i] < best[0]:
            best = (float(d[i]), float(shifts[i]), reflect)

    _, a0, reflect = best

    def d_exact(a):
        return float(_scan_distance(vp, vm, np.array([a]), reflect, exact=True)[0])

    step = L / shift_samples
    lo, hi = a0 - step, a0 + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = d_exact(x1), d_exact(x2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = d_exact(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = d_exact(x2)
    a_best = 0.5 * (lo + hi)
    dist = d_exact(a_best)
    coarse_dist = d_exact(a0)
    if coarse_dist < dist:
        # a grid shift (e.g. a half-period match) beat the refined point
        dist, a_best = coarse_dist, a0
    a_best = a_best % L
    return SelfIsoResult(
        best_shift=float(a_best),
        reflected=bool(reflect),
        distance=dist,
        verdict="self_isospectral" if dist <= TOL_SELF else "distinct",
    )


# ---------------------------------------------------------------------------
# residual machinery
# ---------------------------------------------------------------------------

def schrodinger_residual(v: Callable, psi: Callable, energy: float,
                         period: float, grid_n: int = 1024, h: float = 1e-4) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| on a uniform period grid.

    The second derivative is the central finite difference with step
    ``h``.  The stencil is evaluated in extended precision so the
    reported number reflects h^2 truncation, not float64 roundoff.
    """
    x = (np.arange(grid_n) * (period / grid_n)).astype(np.longdouble)
    hh = np.longdouble(h)
    p0 = psi(x)
    second = (psi(x + hh) - 2.0 * p0 + psi(x - hh)) / (hh * hh)
    res = -second + (v(x) - np.longdouble(energy)) * p0
    return float(np.max(np.abs(res)) / np.max(np.abs(p0)))


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

def run_edge_state_suite(m: float, grid_n: int = 1024) -> list:
    """Verify the j=2 closed-form edge catalogue at modulus m.

    Per edge n = 0..4: the closed-form energy against the blind
    Floquet solver, Schrodinger residuals of both partner
    eigenfunctions, and the intertwining map between them.
    """
    if not (0.0 < m < 1.0):
        raise DomainError(f"edge-state suite needs m in (0, 1), got {m!r}")
    if grid_n < 256:
        raise DomainError("grid_n must be at least 256")
    degenerate = m <= DEGENERATE_M or m >= 1.0 - DEGENERATE_M
    energy_tol = 1e-4 if degenerate else 1e-6
    j = 2
    L = 2.0 * complete_k(m)
    reports = []

    energies = susy.band_edge_energies(j, m)
    pot_minus = susy.PotentialSpec(susy.Family.V_MINUS, j, m).as_periodic_potential()
    solver_edges = bandsolver.band_edges(pot_minus, 2 * j + 1,
                                         e_max=max(energies) + 1.0)
    ctx = {"j": j, "m": m, "grid_n": grid_n, "degenerate_regime": degenerate}

    xs = np.arange(grid_n) * (L / grid_n)
    w = susy.superpotential(j, m, xs)
    for n in range(2 * j + 1):
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/energy",
            abs(energies[n] - solver_edges[n].energy), energy_tol,
            boundary=solver_edges[n].boundary, **ctx,
        ))
        res_minus = schrodinger_residual(
            lambda x: susy.v_minus(j, m, x),
            lambda x, _n=n: susy.psi_minus(j, _n, m, x),
            energies[n], L, grid_n)
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/residual_minus", res_minus, 1e-7, **ctx))
        res_plus = schrodinger_residual(
            lambda x: susy.v_plus_closed(j, m, x),
            lambda x, _n=n: susy.psi_plus(j, _n, m, x),
            energies[n], L, grid_n)
        reports.append(claim(
            f"edgestates/j={j}/m={m:g}/n={n}/residual_plus", res_plus, 1e-7, **ctx))
        if n == 0:
            # the partner ground state is the reciprocal of psi_0
            product = susy.psi_plus(j, 0, m, xs) * susy.psi_minus(j, 0, m, xs)
            measured = float(np.max(np.abs(product - 1.0)))
            reports.append(claim(
                f"edgestates/j={j}/m={m:g}/n=0/intertwine", measured, 1e-12, **ctx))
        else:
            mapped = susy.psi_minus_prime(j, n, m, xs) + w * susy.psi_minus(j, n, m, xs)
            spread = _ratio_spread(mapped, susy.psi_plus(j, n, m, xs))
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

def _solver_agreement(floquet_edges, galerkin_edges) -> float:
    """Worst disagreement between the two solvers, edge by edge."""
    return max((abs(a.energy - b.energy) for a, b in zip(floquet_edges, galerkin_edges)),
               default=0.0)


def _partner_pair(j: int, m: float):
    """(V-, V+) as PeriodicPotentials; numeric pipeline above j=3."""
    if j <= 3:
        pot_minus = susy.PotentialSpec(susy.Family.V_MINUS, j, m).as_periodic_potential()
        pot_plus = susy.PotentialSpec(susy.Family.V_PLUS, j, m).as_periodic_potential()
        return pot_minus, pot_plus
    raw = susy.PotentialSpec(susy.Family.RAW_LAME, j, m).as_periodic_potential()
    ground = bandsolver.ground_energy(raw)
    pot_minus = bandsolver.PeriodicPotential(
        period=raw.period,
        evaluator=lambda x: susy.raw_lame(j, m, x) - ground,
    )
    pot_plus = bandsolver.numeric_partner(pot_minus)
    return pot_minus, pot_plus


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
            pot_minus, pot_plus = _partner_pair(j, m)
            reports.extend(selfiso_claims(j, m, pot_minus, pot_plus, prefix="selfiso"))
    return reports


def run_isospectrality_suite(j_list: Sequence[int] = (1, 2, 3, 4, 5),
                             m_list: Sequence[float] = DEFAULT_M_LIST) -> list:
    """Partner pairs share all 2j+1 band edges; dichotomy verdicts.

    Closed forms are used through j=3 and the numeric pipeline above;
    both band solvers must agree on every edge list.
    """
    reports = []
    for j in j_list:
        edge_tol = 1e-6 if j <= 3 else 1e-5
        count = 2 * j + 1
        for m in m_list:
            ctx = {"j": j, "m": m, "count": count}
            try:
                pot_minus, pot_plus = _partner_pair(j, m)
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
                max(abs(a.energy - b.energy) for a, b in zip(edges_minus, edges_plus)),
                edge_tol, **ctx))
            reports.append(claim(
                f"iso/j={j}/m={m:g}/solvers_agree_minus",
                _solver_agreement(edges_minus, gal_minus), 1e-6, **ctx))
            reports.append(claim(
                f"iso/j={j}/m={m:g}/solvers_agree_plus",
                _solver_agreement(edges_plus, gal_plus), 1e-6, **ctx))
            reports.extend(selfiso_claims(j, m, pot_minus, pot_plus))
    return reports


def run_all(m_list: Sequence[float] = DEFAULT_M_LIST) -> list:
    """Every suite, in canonical order."""
    reports = []
    for m in m_list:
        reports.extend(run_edge_state_suite(m))
    reports.extend(run_limit_suite())
    reports.extend(run_isospectrality_suite(m_list=m_list))
    reports.extend(run_selfiso_suite(m_list=m_list))
    return reports


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def reports_to_json(reports: Iterable[ClaimReport]) -> str:
    payload = [
        {
            "claim_id": r.claim_id,
            "measured": r.measured,
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
