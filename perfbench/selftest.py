"""Self-test of the tracer on a tiny fixed input with known span counts.

``run_isospectrality_suite(j_list=(1,), m_list=(0.5,))`` solves both
closed-form partners of j = 1 with each engine once and compares them
once, so it makes exactly 2 ``band_edges``, 2 ``galerkin_edges`` and 1
``selfiso_distance`` call, and none of the numeric pipeline.  Each of
those calls crosses a module boundary: verify reaches bandsolver through
the module attribute, bandsolver samples the potential through susy, and
susy calls jacobi through its own ``from .elliptic import jacobi``.

Run standalone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import tracing

EXPECTED_CALLS = {
    "verify.suite.iso": 1,
    "bandsolver.band_edges": 2,
    "bandsolver.galerkin_edges": 2,
    "verify.selfiso_distance": 1,
    "bandsolver.ground_energy": 0,
    "bandsolver.numeric_partner": 0,
}
# (span, parent span) pairs that only appear if calls between modules are traced
EXPECTED_EDGES = (
    ("bandsolver.band_edges", "verify.suite.iso"),
    ("bandsolver.galerkin_edges", "verify.suite.iso"),
    ("verify.selfiso_distance", "verify.suite.iso"),
    ("susy.potential", "bandsolver.band_edges"),
    ("elliptic.jacobi", "susy.potential"),
)


def run(L) -> dict:
    """Trace the fixed input; returns {"ok", "problems", "calls"}."""
    tracing.assert_unwrapped(L)
    tracer = tracing.Tracer()
    tracer.install(L)
    try:
        with tracer.op(0):
            L.verify.run_isospectrality_suite(j_list=(1,), m_list=(0.5,))
    finally:
        tracer.uninstall()

    problems = []
    try:
        tracing.assert_unwrapped(L)
    except RuntimeError as exc:
        problems.append(str(exc))
    spans = tracer.spans
    calls = Counter(s.name for s in spans)
    for name, n in EXPECTED_CALLS.items():
        if calls[name] != n:
            problems.append(f"{name}: {calls[name]} calls, expected {n}")
    seen = {(s.name, s.parent.name if s.parent else None) for s in spans}
    for pair in EXPECTED_EDGES:
        if pair not in seen:
            problems.append(f"no {pair[0]} span under {pair[1]}")
    if any(s.op != 0 for s in spans):
        problems.append("span outside the op")
    # self times must partition the top-level spans exactly
    top = sum(s.duration for s in spans if s.parent is None)
    total_self = sum(s.self_s for s in spans)
    if abs(top - total_self) > 1e-9 * max(top, 1.0) or min(s.self_s for s in spans) < 0:
        problems.append(f"self times sum to {total_self!r}, top-level spans to {top!r}")
    return {"ok": not problems, "problems": problems, "calls": dict(calls)}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import lamesusy

    report = run(lamesusy)
    print(report)
    sys.exit(0 if report["ok"] else 1)
