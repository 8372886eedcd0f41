"""Tests for the verification suites and the transform-group distance."""

import json
import math
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FROZEN_DISTANCES
from lamesusy import bandsolver, elliptic, susy, verify
from lamesusy.elliptic import complete_k
from lamesusy.errors import DomainError
from lamesusy.grid import GridFunction, on_fine_grid, spectrum
from lamesusy.susy import Family, PotentialSpec


def pair_grids(j, m, n=512):
    pm, pp = verify.partner_pair(j, m)
    return verify._grid_of(pp, n), verify._grid_of(pm, n)


def scan(vp, vm, count=verify.SHIFT_SAMPLES):
    """_scan_distance of the grids vp and vm: (D, (shift, reflected), record)."""
    return verify._scan_distance(spectrum(vp.samples), spectrum(vm.samples), vm.n, vm.period,
                                 count)


class TestSelfIsoDistance:
    def test_identical_inputs_distance_zero(self):
        g = GridFunction.from_function(lambda x: np.sin(x) + 0.3 * np.cos(2 * x),
                                       2 * math.pi, 256)
        r = verify.selfiso_distance(g, g)
        assert r.distance == 0.0
        assert min(r.best_shift, g.period - r.best_shift) <= 1e-7

    def test_recovers_known_translation(self):
        # the shift refinement stops at |da| <= 1e-8, so the measured
        # distance bottoms out near slope * 1e-8 for off-grid shifts;
        # the cos(3x) term kills any mirror symmetry, making the
        # translation the unique optimal transform
        f = lambda x: (np.sin(x) + 0.25 * np.cos(2 * x)
                       - 0.1 * np.sin(3 * x) + 0.15 * np.cos(3 * x))
        a_true = 1.2345
        g1 = GridFunction.from_function(lambda x: f(x - a_true), 2 * math.pi, 256)
        g2 = GridFunction.from_function(f, 2 * math.pi, 256)
        r = verify.selfiso_distance(g1, g2)
        assert r.distance <= 5e-8
        assert not r.reflected
        assert r.best_shift == pytest.approx(a_true, abs=1e-6)

    def test_j1_self_isospectral_with_half_period_shift(self):
        vp, vm = pair_grids(1, 0.5)
        r = verify.selfiso_distance(vp, vm)
        assert r.distance <= 1e-8
        assert r.verdict == "self_isospectral"
        assert r.best_shift == pytest.approx(complete_k(0.5), abs=1e-6)

    def test_verdict_follows_the_distance(self):
        for distance, verdict in ((2e-6, "distinct"), (verify.TOL_SELF, "self_isospectral")):
            r = verify.SelfIsoResult(best_shift=0.0, reflected=False, distance=distance)
            assert r.verdict == verdict
        with pytest.raises(TypeError):
            verify.SelfIsoResult(best_shift=0.0, reflected=False, distance=2e-6, verdict="distinct")

    def test_even_release_pairs_are_not_reflected(self):
        # every closed-form pair of the release job's selfiso suite is even,
        # so its two orientations tie to the scan's rounding: the
        # unreflected one is taken, not the one rounding makes smaller
        flags = [r.context["reflected"] for r in verify.run_selfiso_suite()
                 if "reflected" in r.context]
        assert len(flags) == 12 and not any(flags)

    @pytest.mark.parametrize("j,m", sorted(FROZEN_DISTANCES))
    def test_distinct_partner_regression(self, j, m):
        vp, vm = pair_grids(j, m)
        r = verify.selfiso_distance(vp, vm)
        assert r.verdict == "distinct"
        assert r.distance == pytest.approx(FROZEN_DISTANCES[j, m], abs=1e-6)
        # the dichotomy is far from tolerance-sensitive
        assert r.distance >= 100.0 * verify.TOL_SELF

    def test_grid_refinement_stability(self):
        d1 = verify.selfiso_distance(*pair_grids(2, 0.5, 512)).distance
        d2 = verify.selfiso_distance(*pair_grids(2, 0.5, 1024)).distance
        assert abs(d1 - d2) <= 1e-6

    def test_translation_invariance(self):
        # shifting both inputs by the same amount leaves the distance alone
        f = lambda x: np.sin(x) + 0.2 * np.cos(3 * x)
        g = lambda x: np.sin(x) * np.cos(x) + 0.4
        for t in (0.0, 0.77):
            gf = GridFunction.from_function(lambda x: f(x - t), 2 * math.pi, 256)
            gg = GridFunction.from_function(lambda x: g(x - t), 2 * math.pi, 256)
            if t == 0.0:
                base = verify.selfiso_distance(gf, gg).distance
            else:
                moved = verify.selfiso_distance(gf, gg).distance
                assert moved == pytest.approx(base, abs=1e-7)

    def test_symmetry_under_swap(self):
        f = lambda x: np.sin(x) + 0.2 * np.cos(2 * x)
        g = lambda x: 0.5 * np.cos(x) - 0.3 * np.sin(2 * x)
        gf = GridFunction.from_function(f, 2 * math.pi, 256)
        gg = GridFunction.from_function(g, 2 * math.pi, 256)
        d1 = verify.selfiso_distance(gf, gg).distance
        d2 = verify.selfiso_distance(gg, gf).distance
        assert d1 == pytest.approx(d2, abs=1e-7)

    def test_input_validation(self):
        g1 = GridFunction.from_function(np.sin, 2 * math.pi, 256)
        g2 = GridFunction.from_function(np.sin, 2 * math.pi, 128)
        with pytest.raises(DomainError):
            verify.selfiso_distance(g1, g2)
        g3 = GridFunction.from_function(np.sin, math.pi, 256)
        with pytest.raises(DomainError):
            verify.selfiso_distance(g1, g3)


def parabolic_peak(diff):
    """max |D| on a periodic grid, refined by a parabola through the
    argmax and its two neighbours, as the coarse scan refines it."""
    k = int(np.argmax(diff))
    y0, ym, yp = diff[k], diff[k - 1], diff[(k + 1) % diff.size]
    den = 2.0 * y0 - ym - yp
    return y0 + ((yp - ym) ** 2 / (8.0 * den) if den > 1e-12 * max(y0, 1e-300) else 0.0)


def scan_reference(vp, vm, count, reflect):
    """The coarse scan computed the direct way: GridFunction.eval of vp at
    the fine points and of vm at those points less each shift (mirrored
    when ``reflect``), the shifted points read off the same fine grid."""
    L = vm.period
    fine = count * -(-8 * vm.n // count)
    x = np.arange(fine) * (L / fine)
    top, vals = vp.eval(x), vm.eval(x)
    i = np.arange(fine)
    out = np.empty(count)
    for s in range(count):
        moved = i - s * (fine // count)  # index of x_i - s L / count
        out[s] = parabolic_peak(np.abs(top - vals[(-moved if reflect else moved) % fine]))
    return out


def brute_scan(vp, vm, count):
    """Every shift of both orientations, each row the fine grid of vp less
    vm's fine grid rolled by the shift, refined by ``parabolic_peak``:
    the full scan, with the arithmetic of the pruned one."""
    n, fine = vm.n, count * -(-8 * vm.n // count)
    c = spectrum(vm.samples)
    top = on_fine_grid(spectrum(vp.samples), n, fine)
    return np.array([[parabolic_peak(np.abs(top - np.roll(vals, s * (fine // count))))
                      for s in range(count)]
                     for vals in (on_fine_grid(b, n, fine) for b in (c, np.conj(c)))])


def scan_pick(d, delta=0.0):
    """(distance, shift index, reflected) of a scan's minimum: the first
    index within an orientation, and the reflected orientation only when
    smaller by more than ``delta``."""
    i = np.argmin(d, axis=1)
    r = int(d[1, i[1]] < d[0, i[0]] - delta)
    return float(d[r, i[r]]), int(i[r]), bool(r)


def assert_scan_exact(vp, vm, count, result, rows=(0, 1), scanned=2):
    """The pruned scan ``result`` of its first ``scanned`` rows against the
    full one: every evaluated shift has the value the full scan gives it,
    and in ``rows`` the value of ``scan_reference`` to 1e-12; every
    skipped shift lies above the minimum; the minimum, its shift and
    orientation are the full scan's; and the scan's pick is the full
    scan's under the tie rule, with the rounding allowance delta of its
    record.  A row not scanned is +inf throughout, and the full scan's
    minimum there lies no more than delta below the scanned row's, so
    the tie rule would not have taken it."""
    got, pick, record = result
    full = brute_scan(vp, vm, count)
    kept = np.isfinite(got)
    assert got.shape == (2, count) and kept[:scanned, ::16].all() and not kept[scanned:].any()
    assert record["reflected_scanned"] is (scanned == 2)
    assert pick == scan_pick(full, record["delta"])[1:]
    if scanned == 1:
        assert full[1].min() >= full[0].min() - record["delta"]
        full[1] = np.inf
    assert np.array_equal(got[kept], full[kept])
    assert np.all(full[:scanned][~kept[:scanned]] > got.min())
    assert scan_pick(got) == scan_pick(full)
    for r in rows:
        want = scan_reference(vp, vm, count, bool(r))
        close = np.abs(got[r] - want) <= 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(close[kept[r]])
        assert np.all(want[~kept[r]] > got.min())


def two_row_reference(vp, vm):
    """selfiso_distance with both rows of its scan evaluated whatever vm's
    sine bound: the full scan of both rows picked under the tie rule with
    the scan's delta, then refined as selfiso_distance refines it; the
    result the one-row scan must reproduce."""
    n, L = vm.n, vm.period
    step = L / verify.SHIFT_SAMPLES
    delta = scan(vp, vm)[2]["delta"]
    _, s, reflect = scan_pick(brute_scan(vp, vm, verify.SHIFT_SAMPLES), delta)
    cp, c = spectrum(vp.samples), spectrum(vm.samples)
    (dist, a), _ = verify._refine_shift(*verify._exact_distance(cp, c, n, L, reflect, delta),
                                        s * step, step)
    return verify.SelfIsoResult(best_shift=float(a % L), reflected=reflect, distance=dist)


def sine_pair(ratio, n=512):
    """(vp, vm): the closed-form V+ and V- of j = 2, m = 0.5, with vm plus
    t sin(2 pi x / L), t set so that vm's sine bound is ``ratio`` times the
    scan's rounding allowance delta at SHIFT_SAMPLES shifts."""
    vp, even = pair_grids(2, 0.5, n)
    x = np.arange(n) * (even.period / n)
    t = 0.0
    for _ in range(4):  # delta moves with t only in its last digits
        vm = GridFunction(even.period, even.samples + t * np.sin(2 * np.pi * x / even.period))
        record = scan(vp, vm)[2]
        # the sine adds 2 t to the bound, the rest of it is even's rounding
        t += 0.5 * (ratio * record["delta"] - record["sine_bound"])
    return vp, vm


def near_translate(eps, n=256):
    """(vp, vm): vm a five-mode function, vp its translate by 1.2345 (off
    every shift grid) plus eps cos(5x)."""
    f = lambda x: (np.sin(x) + 0.25 * np.cos(2 * x) - 0.1 * np.sin(3 * x)
                   + 0.15 * np.cos(3 * x) + 0.05 * np.cos(7 * x + 1.0))
    return (GridFunction.from_function(lambda x: f(x - 1.2345) + eps * np.cos(5 * x),
                                       2 * math.pi, n),
            GridFunction.from_function(f, 2 * math.pi, n))


def noise_grids(n, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(2.7, rng.standard_normal(n)), GridFunction(2.7, rng.standard_normal(n))


class TestCoarseScan:
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("count", [256, 512, 4096, 300])
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_matches_per_shift_reference(self, n, count, reflect):
        # white-noise samples carry a full-size Nyquist mode, which a shift
        # off the sample grid turns partly into a sine
        vp, vm = noise_grids(n, n + count)
        assert_scan_exact(vp, vm, count, scan(vp, vm, count), rows=(int(reflect),))

    @pytest.mark.parametrize("count", [64, 512])
    @pytest.mark.parametrize("case", ["eps=0", "eps=1e-14", "eps=1e-8", "eps=1e-3",
                                      "odd n", "even pair", "j=10 m=0.99", "noise",
                                      "sine above delta"])
    def test_exact_on_adversarial_pairs(self, case, count):
        # an even vm (the partner pairs) scans the unreflected row alone,
        # with the result of both rows; every other vm scans both
        if case.startswith("eps="):
            vp, vm = near_translate(float(case[4:]))
        elif case == "odd n":
            vp, vm = (GridFunction(g.period, g.resample(255)) for g in pair_grids(3, 0.9))
        elif case == "even pair":
            vp, vm = pair_grids(2, 0.5)
        elif case == "j=10 m=0.99":
            vp, vm = pair_grids(10, 0.99, 256)
        elif case == "noise":
            vp, vm = noise_grids(255, 7)
        else:
            vp, vm = sine_pair(1.01)
        even = case in ("odd n", "even pair", "j=10 m=0.99")
        assert_scan_exact(vp, vm, count, scan(vp, vm, count),
                          rows=(0,) if even else (0, 1), scanned=1 if even else 2)
        if even:
            assert verify.selfiso_distance(vp, vm) == two_row_reference(vp, vm)

    @pytest.mark.parametrize("ratio, scanned", [(0.99, 1), (1.01, 2)])
    def test_reflected_row_turns_on_at_delta(self, ratio, scanned):
        # a sine part just below the rounding allowance leaves the
        # reflected row out, one just above it scans both rows
        vp, vm = sine_pair(ratio)
        d, _, record = scan(vp, vm)
        assert record["sine_bound"] == pytest.approx(ratio * record["delta"], rel=1e-3)
        assert np.isfinite(d).any(axis=1).tolist() == [True, scanned == 2]
        assert record["reflected_scanned"] is (scanned == 2)
        assert verify.selfiso_distance(vp, vm) == two_row_reference(vp, vm)

    @pytest.mark.parametrize("case", ["even pair", "sine above delta"])
    def test_record_holds_delta_and_sine_bound_by_definition(self, case):
        # delta = 64 eps log2(F) sum_k w_k (|cp_k| + |c_k|) on the F-point
        # fine grid, and the sine bound 2 sum_k w_k |Im c_k|, c = rfft / n
        vp, vm = pair_grids(2, 0.5) if case == "even pair" else sine_pair(1.01)
        n = vm.n
        cp, c = np.fft.rfft(vp.samples) / n, np.fft.rfft(vm.samples) / n
        k = np.arange(c.size)
        w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
        fine = verify.SHIFT_SAMPLES * -(-8 * n // verify.SHIFT_SAMPLES)
        record = verify.selfiso_distance(vp, vm).record
        assert record["delta"] == float(64.0 * np.finfo(float).eps * math.log2(fine)
                                        * np.sum(w * (np.abs(cp) + np.abs(c))))
        assert record["sine_bound"] == 2.0 * float(np.sum(w * np.abs(c.imag)))
        assert record["reflected_scanned"] is (case != "even pair")

    def test_sine_bound_caps_the_reflection(self):
        # |vm(y) - vm(-y)| on a dense grid never exceeds the bound, and
        # reaches most of it for one sine mode
        x = np.linspace(0.0, 2.7, 4001)
        for vm in (noise_grids(256, 3)[1], noise_grids(255, 3)[1],
                   GridFunction.from_function(lambda y: 0.3 * np.sin(2 * np.pi * y / 2.7),
                                              2.7, 256)):
            gap = np.max(np.abs(vm.eval(x) - vm.eval(-x)))
            sine = scan(vm, vm)[2]["sine_bound"]
            assert gap <= sine * (1.0 + 1e-12)
        assert gap == pytest.approx(sine, rel=1e-6)

    def test_orientations_tie_for_even_partners(self):
        # V+ and V- are even, so reflection is a symmetry of the whole
        # scan: in the full scan both minima tie, and the one-row scan
        # keeps the unreflected row's minimum and the two-row result
        vp, vm = pair_grids(2, 0.5)
        full = brute_scan(vp, vm, 512)
        assert abs(full[0].min() - full[1].min()) <= 1e-12
        d, pick, _ = scan(vp, vm, 512)
        assert np.isinf(d[1]).all() and d[0].min() == full[0].min()
        assert not scan_pick(d)[2] and not pick[1]
        assert verify.selfiso_distance(vp, vm) == two_row_reference(vp, vm)

    def test_prunes_most_shifts_of_a_partner_pair(self):
        kept = np.isfinite(scan(*pair_grids(3, 0.5), 512)[0])
        assert kept.sum() <= 0.25 * kept.size

    def test_repeated_calls_identical(self):
        vp, vm = pair_grids(3, 0.5)
        assert verify.selfiso_distance(vp, vm) == verify.selfiso_distance(vp, vm)

    def test_memory_peak(self):
        vp, vm = pair_grids(3, 0.5)
        tracemalloc.start()
        try:
            verify.selfiso_distance(vp, vm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_selfiso_scan_script_runs(self, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "selfiso_scan.py"
        runpy.run_path(str(script))["main"](["256"])
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines if not line.startswith(("#", " j"))]
        assert len(rows) == 9
        assert [row[-1] for row in rows] == ["self_isospectral"] * 3 + ["distinct"] * 6


class TestTrueTranslate:
    """D(a) is taken on the true translate of vm's interpolant.  White
    noise on an even n carries a full-size Nyquist cosine, which moves
    with an off-grid shift like every other mode."""

    @staticmethod
    def noise_pair(n=256, L=2.7):
        rng = np.random.default_rng(0)
        return GridFunction(L, rng.standard_normal(n)), GridFunction(L, rng.standard_normal(n))

    @staticmethod
    def dense_sup(vp, vm, a, points=50_000):
        """sup_x |vp(x) - vm(x - a)| by eval on a dense grid, refined on
        a 1000x finer grid around each of its eight highest maxima."""
        h = vm.period / points
        x = np.arange(points) * h
        d = np.abs(vp.eval(x) - vm.eval(x - a))
        peaks = np.nonzero((d >= np.roll(d, 1)) & (d >= np.roll(d, -1)))[0]
        xs = (x[peaks[np.argsort(-d[peaks])[:8]], None] + np.linspace(-h, h, 2001)).ravel()
        return float(np.abs(vp.eval(xs) - vm.eval(xs - a)).max())

    def test_exact_distance_is_sup_of_translate(self):
        vp, vm = self.noise_pair()
        L, n = vm.period, vm.n
        survey, at = verify._exact_distance(spectrum(vp.samples), spectrum(vm.samples), n, L,
                                            False, 0.0)
        for a in (0.3 * L / n, 7 * L / 300):
            assert survey(a)[0] == pytest.approx(self.dense_sup(vp, vm, a), abs=1e-9)
            xs = np.linspace(0.0, L, 97)
            f = vp.eval(xs) - vm.eval(xs - a)
            assert np.max(np.abs(at(xs, a)[:, 0] - f)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("reflect", [False, True])
    def test_scan_is_sup_of_translate_on_its_grid(self, reflect):
        vp, vm = self.noise_pair()
        L, count = vm.period, 300
        fine = count * -(-8 * vm.n // count)
        x = np.arange(fine) * (L / fine)
        top = vp.eval(x)
        got = scan(vp, vm, count)[0]
        row = got[int(reflect)]
        for s in range(1, count, 13):
            y = x - s * (L / count)
            want = parabolic_peak(np.abs(top - vm.eval(-y if reflect else y)))
            if np.isfinite(row[s]):
                assert row[s] == pytest.approx(want, abs=1e-12 * max(1.0, want))
            else:
                assert want > got.min()
        assert scan_pick(got) == scan_pick(brute_scan(vp, vm, count))


def golden_reference(vp, vm, shift_samples=512):
    """selfiso_distance refined the direct way: golden section on the
    best scanned shift down to a bracket of 1e-8, each step's sup taken
    on the 8n-point grid with every peak within 1e-4 of the top
    Newton-polished; a grid shift that beats the refined point wins.
    Returns (distance, shift)."""
    n, L = vm.n, vm.period
    step = L / shift_samples
    _, i, reflect = scan_pick(scan(vp, vm, shift_samples)[0])
    a0 = i * step
    fine = 8 * n
    cp, c = np.fft.rfft(vp.samples), np.fft.rfft(vm.samples)
    c = np.conj(c) if reflect else c
    k = np.arange(c.size)
    weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    ik = 2j * np.pi / L * k
    h = L / fine

    def d_exact(a):
        shifted = c * np.exp(-2j * np.pi * ((a / L) * k))
        dcoef = (cp - shifted) / n
        pad = np.concatenate([dcoef[:-1], 0.5 * dcoef[-1:]]) if n % 2 == 0 else dcoef
        vals = np.abs(np.fft.irfft(pad, n=fine) * fine)
        top = vals.max()
        if top == 0.0:
            return 0.0
        near = np.nonzero(vals >= top - 1e-4 * max(top, 1.0))[0]
        xs = h * near[(vals[near] >= vals[near - 1]) & (vals[near] >= vals[(near + 1) % fine])]
        series = weights * dcoef
        derivs = series[:, None] * np.stack([ik, ik * ik], axis=1)
        for _ in range(4):
            d1, d2 = (np.exp(xs[:, None] * ik) @ derivs).real.T
            xs = xs + np.clip(-d1 / np.where(np.abs(d2) > 1e-300, d2, np.inf), -h, h)
        return float(max(top, np.abs((np.exp(xs[:, None] * ik) @ series).real).max()))

    lo, hi = a0 - step, a0 + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
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
    return min((d_exact(a_best), a_best % L), (d_exact(a0), a0 % L))


def one_peak_pair(n=256):
    """At the optimum a = 0.3, off the shift grid, vp - vm(x - a) is the
    positive bump 0.1 exp(3 (cos(x - 0.3) - 1)), so one peak is active."""
    vm = GridFunction.from_function(np.cos, 2 * math.pi, n)
    vp = GridFunction.from_function(
        lambda x: np.cos(x - 0.3) + 0.1 * np.exp(3.0 * (np.cos(x - 0.3) - 1.0)), 2 * math.pi, n)
    return vp, vm


class TestShiftRefinement:
    @pytest.mark.parametrize("j,m", [(j, m) for j in (2, 3, 4, 5) for m in (0.1, 0.5, 0.9)]
                             + [(6, 0.5), (8, 0.5), (10, 0.5)])
    def test_matches_golden_section_oracle(self, j, m):
        vp, vm = pair_grids(j, m)
        want, _ = golden_reference(vp, vm)
        got = verify.selfiso_distance(vp, vm).distance
        assert got <= want + 1e-12
        assert abs(got - want) <= 1e-8

    def test_single_active_peak(self):
        r = verify.selfiso_distance(*one_peak_pair())
        assert r.distance == pytest.approx(0.1, abs=1e-12)
        assert r.best_shift == pytest.approx(0.3, abs=1e-9)
        assert not r.reflected

    def test_inverse_ffts_per_call_bounded(self, monkeypatch):
        # the scan takes four 8n-point inverse FFTs; the refinement one at
        # the best scanned shift and one at the Newton point; one forward
        # FFT per input and one set of mode weights serve both stages
        pairs = (pair_grids(3, 0.9), pair_grids(4, 0.5), one_peak_pair(512))
        calls = []
        for module, name in ((np.fft, "irfft"), (np.fft, "rfft"), (verify, "_mode_weights")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, fn=fn, **kw:
                                calls.append(name) or fn(*a, **kw))
        for pair in pairs:
            calls.clear()
            verify.selfiso_distance(*pair)
            assert calls.count("irfft") <= 8
            assert calls.count("rfft") == 2 and calls.count("_mode_weights") == 1

    def test_refinement_logged_at_debug(self, capsys):
        pair = pair_grids(2, 0.5)
        record = verify.selfiso_distance(*pair).record
        assert record["stop"] == "converged"
        d, _, scanned = scan(*pair)
        kept = np.isfinite(d).sum(axis=1)
        assert [record["unreflected_shifts"], record["reflected_shifts"]] == kept.tolist()
        assert scanned.items() <= record.items()
        # V- is even: its sine bound is rounding, and the reflected row is left out
        assert kept[1] == 0 and record["reflected_scanned"] is False
        assert record["sine_bound"] <= record["delta"]
        assert capsys.readouterr().out == ""


class TestClaimReport:
    def test_invariant_enforced(self):
        with pytest.raises(TypeError):
            verify.ClaimReport("x", measured=2.0, tolerance=1.0, passed=True)
        for measured, passed in ((2.0, False), (1.0, True), (0.5, True), (math.nan, False)):
            assert verify.ClaimReport("x", measured=measured, tolerance=1.0).passed is passed

    def test_claim_factory(self):
        r = verify.claim("demo", 0.5, 1.0, j=2)
        assert r.passed and r.context == {"j": 2}
        r = verify.claim("demo", 2.0, 1.0)
        assert not r.passed

    def test_json_round_trip(self):
        reports = [verify.claim("a/b", 1e-9, 1e-6, j=1), verify.claim("c", 2.0, 1.0)]
        payload = json.loads(verify.reports_to_json(reports))
        assert payload[0]["claim_id"] == "a/b"
        assert payload[0]["passed"] is True
        assert payload[1]["passed"] is False

    def test_render_table(self):
        reports = [verify.claim("a", 0.0, 1.0)]
        text = verify.render_table(reports)
        assert "PASS" in text and "1/1 claims passed" in text
        colored = verify.render_table(reports, color=True)
        assert "\033[32m" in colored


class TestEdgeStateSuite:
    def test_all_pass_at_half(self):
        reports = verify.run_edge_state_suite(0.5)
        assert len(reports) >= 15
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    def test_all_pass_at_stiff_modulus(self):
        reports = verify.run_edge_state_suite(0.99)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    @pytest.mark.parametrize("m", [0.01, 0.02, 0.05])
    def test_all_pass_with_narrow_gap(self, m):
        # the upper j=2 gap is 7.5e-5 wide at m = 0.01: the Floquet route
        # must find it open, not report a coincident pair at its middle
        reports = verify.run_edge_state_suite(m)
        assert not any(r.context["degenerate_regime"] for r in reports)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    def test_degenerate_regime_flagged_and_passing(self):
        reports = verify.run_edge_state_suite(1e-9)
        assert all(r.context.get("degenerate_regime") for r in reports)
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]

    @pytest.mark.parametrize("m", [*verify.DEFAULT_M_LIST, 1e-7])
    def test_measured_equals_the_public_route(self, m):
        # every residual and intertwining value, exactly as the public
        # evaluators give it (the route tests/test_acceptance.py takes)
        j, L = 2, 2.0 * complete_k(m)
        energies = susy.band_edge_energies(j, m)
        xs = np.arange(1024) * (L / 1024)
        w = susy.superpotential(j, m, xs)
        measured = {tuple(r.claim_id.split("/")[-2:]): r.measured
                    for r in verify.run_edge_state_suite(m)}
        for n in range(5):
            assert measured[(f"n={n}", "residual_minus")] == verify.schrodinger_residual(
                lambda x: susy.v_minus(j, m, x),
                lambda x: susy.psi_minus(j, n, m, x), energies[n], L)
            assert measured[(f"n={n}", "residual_plus")] == verify.schrodinger_residual(
                lambda x: susy.v_plus_closed(j, m, x),
                lambda x: susy.psi_plus(j, n, m, x), energies[n], L)
            psi_minus, psi_plus = susy.psi_minus(j, n, m, xs), susy.psi_plus(j, n, m, xs)
            if n == 0:
                expected = float(np.max(np.abs(psi_plus * psi_minus - 1.0)))
            else:
                expected = verify._ratio_spread(
                    susy.psi_minus_prime(j, n, m, xs) + w * psi_minus, psi_plus)
            assert measured[(f"n={n}", "intertwine")] == expected

    def test_sn_cn_dn_once_per_grid(self, monkeypatch):
        # spy on jacobi wherever susy or verify can reach it; the Floquet
        # solver samples V- on grids of its own (one equal to the suite's
        # float64 grid), so its calls are left out of the count
        sweeps, in_solver = [], []
        original, original_band_edges = elliptic.jacobi, bandsolver.band_edges
        original_build = susy.PotentialSpec.as_periodic_potential

        def spy(x, m):
            if not in_solver:
                sweeps.append(np.array(x))
            return original(x, m)

        def in_solver_too(solve):
            def wrapped(*args, **kwargs):
                in_solver.append(True)
                try:
                    return solve(*args, **kwargs)
                finally:
                    in_solver.pop()
            return wrapped

        monkeypatch.setattr(bandsolver, "band_edges", in_solver_too(original_band_edges))
        # so is the construction check of V-, which samples it at 8 + 8 points
        monkeypatch.setattr(susy.PotentialSpec, "as_periodic_potential",
                            in_solver_too(original_build))
        for module in (elliptic, susy, verify):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, spy)
        verify.run_edge_state_suite(0.5)
        xs = np.arange(1024) * (2.0 * complete_k(0.5) / 1024)
        longdouble = [x.size for x in sweeps if x.dtype == np.longdouble]
        assert longdouble == [1024] * 3
        assert sum(x.dtype == np.float64 and np.array_equal(x, xs) for x in sweeps) == 1
        assert len(sweeps) == 4

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            verify.run_edge_state_suite(0.0)
        with pytest.raises(DomainError):
            verify.run_edge_state_suite(1.0)


class TestLimitSuite:
    def test_all_pass(self):
        reports = verify.run_limit_suite()
        assert len(reports) >= 3
        assert all(r.passed for r in reports)
        ids = [r.claim_id for r in reports]
        assert "limits/vminus_hyperbolic" in ids
        assert "limits/vplus_hyperbolic" in ids


class TestIsospectralitySuite:
    def test_closed_form_indices(self):
        reports = verify.run_isospectrality_suite(j_list=(1, 2, 3), m_list=(0.5,))
        assert all(r.passed for r in reports), [r.claim_id for r in reports if not r.passed]
        verdicts = {r.claim_id: r for r in reports}
        assert "iso/j=1/m=0.5/self_isospectral" in verdicts
        assert "iso/j=2/m=0.5/distinct_partner" in verdicts
        assert "iso/j=3/m=0.5/distinct_partner" in verdicts

    def test_selfiso_suite_verdicts(self):
        reports = verify.run_selfiso_suite(m_list=(0.5,))
        assert all(r.passed for r in reports)
        by_id = {r.claim_id: r for r in reports}
        assert by_id["selfiso/j=1/m=0.5/self_isospectral"].context["verdict"] == "self_isospectral"
        assert by_id["selfiso/j=2/m=0.5/distinct_partner"].context["verdict"] == "distinct"
        assert by_id["selfiso/j=3/m=0.5/distinct_partner"].context["verdict"] == "distinct"

    def test_aperiodic_partner_cannot_reach_the_claims(self):
        # selfiso_claims samples its potentials with no check of its own; the
        # ramp V(x) = x is refused when built, as every engine refuses it
        pot_minus = PotentialSpec(Family.V_MINUS, 2, 0.5).as_periodic_potential()
        with pytest.raises(DomainError, match="periodic"):
            verify.selfiso_claims(2, 0.5, pot_minus, bandsolver.PeriodicPotential(
                pot_minus.period, lambda x: np.asarray(x, float)))

    def test_deterministic_reports(self):
        a = verify.reports_to_json(verify.run_selfiso_suite(m_list=(0.3,)))
        b = verify.reports_to_json(verify.run_selfiso_suite(m_list=(0.3,)))
        assert a == b


class TestPartnerPair:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_closed_forms_through_j3(self, j):
        pm, pp = verify.partner_pair(j, 0.5)
        assert pm.evaluator == PotentialSpec(Family.V_MINUS, j, 0.5)
        assert pp.evaluator == PotentialSpec(Family.V_PLUS, j, 0.5)

    @pytest.mark.parametrize("j, numeric", [(2, True), (4, False), (4, True)])
    def test_pipeline_when_numeric_or_above_j3(self, j, numeric):
        pm, pp = verify.partner_pair(j, 0.5, numeric=numeric)
        assert pm.evaluator == PotentialSpec(Family.V_MINUS, j, 0.5)
        assert isinstance(pp.evaluator, GridFunction)
        assert np.array_equal(pp.evaluator.samples,
                              bandsolver.numeric_partner(pm).evaluator.samples)

    def test_numeric_pair_solves_no_ground_energy(self, monkeypatch):
        # V-'s ground energy is exact, so the partner's eigh on its cos
        # block and the two split problems per Galerkin edge list are all;
        # raw Lamé less a Galerkin ground energy took one eigvalsh more
        calls = []
        for name in ("eigvalsh", "eigh"):
            def spy(H, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
                calls.append((_name, len(H)))
                return _solve(H, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        for pot in verify.partner_pair(3, 0.5, numeric=True):
            bandsolver.galerkin_edges(pot, 7)
        assert [n for name, n in calls if name == "eigvalsh"] == [65, 64, 64, 64] * 2
        assert [n for name, n in calls if name == "eigh"] == [65]


class TestRatioSpread:
    def test_spread_relative_to_the_median_ratio(self):
        # denominators under 5% of the largest are left out
        numer, denom = np.array([2.0, 3.0, 4.4, 9.0]), np.array([1.0, 1.0, 2.0, 0.01])
        assert verify._ratio_spread(numer, denom) == pytest.approx((3.0 - 2.0) / 2.2)

    @pytest.mark.parametrize("numer", [[0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]],
                             ids=["zeros", "signs"])
    def test_zero_median_is_infinite_spread(self, numer):
        assert verify._ratio_spread(np.array(numer), np.ones(3)) == math.inf


class TestResidualHelper:
    def test_exact_eigenpair_gives_truncation_level_residual(self):
        spec = PotentialSpec(Family.V_MINUS, 2, 0.5)
        from lamesusy.susy import psi_minus

        res = verify.schrodinger_residual(
            spec, lambda x: psi_minus(2, 0, 0.5, x), 0.0, spec.period)
        assert res <= 1e-7

    def test_wrong_energy_detected(self):
        spec = PotentialSpec(Family.V_MINUS, 2, 0.5)
        from lamesusy.susy import psi_minus

        res = verify.schrodinger_residual(
            spec, lambda x: psi_minus(2, 0, 0.5, x), 0.01, spec.period)
        assert res > 1e-3

    def test_input_validation(self):
        # rejected before psi is evaluated
        calls = []
        psi = lambda x: calls.append(x) or np.cos(x)
        for period in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="period must be positive and finite"):
                verify.schrodinger_residual(np.cos, psi, 0.0, period)
        for energy in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="energy must be finite"):
                verify.schrodinger_residual(np.cos, psi, energy, 2 * np.pi)
        assert calls == []
