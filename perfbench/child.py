"""One fresh interpreter running one workload; started by run.py.

Modes:
  setup      import lamesusy and generate the first pass, then stop: the
             time to that point is one set-up sample
  run        untraced timed run: whole passes until --seconds of op time
             (in reference seconds, see calib.py) have gone, then the
             untimed known-defect inputs
  trace      the self-test, then exactly --passes passes with every
             layer traced, then the known-defect inputs
  reference  every gate op of the release job, untimed

The result is printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lamesusy as L  # noqa: E402

import calib  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402



def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _run_passes(workload, rng, first, m_list, tracer, seconds=None, passes=None):
    """Run whole passes; returns the op records.

    Untimed work (input generation, checks, calibration) sits between
    ops.  Each op's time ``s`` excludes the calibration kernel runs inside
    it and is also kept rescaled to reference seconds as ``ns`` (see
    calib.py).  Without ``passes``, a new pass starts only while the run
    is predicted to end within ``seconds`` of rescaled op time, judged by
    the mean pass so far; so the number of passes does not follow the
    machine's speed.
    """
    records = []
    batch = first
    clock = 0.0
    done = 0
    speed = calib.Speedometer()
    speed.start()
    try:
        while True:
            for op in batch:
                with tracer.op(len(records)) if tracer else nullcontext():
                    out, err, wall, s, ns = speed.time(
                        lambda: workloads.run_op(L, workload, op))
                with tracer.paused() if tracer else nullcontext():
                    if err is None:
                        ok, reason, claims = workloads.check(L, workload, op, out)
                    else:
                        ok, reason, claims = False, f"{type(err).__name__}: {str(err)[:160]}", None
                clock += ns
                rec = {"pass": done, "op": op, "wall": wall, "s": s, "ns": ns,
                       "ok": ok, "reason": reason}
                if claims is not None:
                    rec["claims"] = claims
                records.append(rec)
            done += 1
            if passes is not None:
                if done >= passes:
                    return records
            elif clock + clock / done > seconds:
                return records
            batch = workloads.generate_pass(workload, rng, m_list)
    finally:
        speed.stop()


def _known_defects() -> list:
    """The partners pipeline on the fixed inputs where it is known to fail."""
    rows = []
    for op in workloads.KNOWN_DEFECTS:
        out = workloads.run_op(L, "partners", {**op, "stratum": "known"})
        ok, reason, _ = workloads.check(L, "partners", op, out)
        rows.append({**op, "iso_defect": workloads.iso_defect(out), "ok": ok, "reason": reason})
    return rows


def _layers(tracer, records) -> dict:
    """Per-layer metrics from the spans of a traced run."""
    spans = tracer.spans
    out = {}

    def pick(name):
        return [s for s in spans if s.name == name]

    for name, fields in (
        ("elliptic.jacobi", ("calls", "points", "self_s")),
        ("elliptic.complete_k", ("calls",)),
        ("susy.potential", ("calls", "points", "self_s")),
        ("bandsolver.band_edges", ("calls", "self_s")),
        ("bandsolver.galerkin_edges", ("calls", "self_s")),
        ("bandsolver.ground_energy", ("calls", "self_s")),
        ("bandsolver.numeric_partner", ("calls", "self_s")),
        ("grid.eval", ("calls", "points", "self_s")),
        ("grid.derivative", ("calls",)),
        ("verify.selfiso_distance", ("calls", "self_s")),
        ("verify.schrodinger_residual", ("calls", "self_s")),
        ("cli.render", ("self_s",)),
    ):
        sel = pick(name)
        if "calls" in fields:
            out[f"{name}.calls"] = len(sel)
        if "points" in fields:
            out[f"{name}.points"] = sum(s.points for s in sel)
        if "self_s" in fields:
            out[f"{name}.self_s"] = sum(s.self_s for s in sel)

    edges = pick("bandsolver.band_edges")
    out["bandsolver.band_edges.failed"] = sum(s.failed for s in edges)
    accurate = 0
    for s in edges:
        if s.failed:
            continue
        args, kwargs, result = s.call
        ref = L.bandsolver.galerkin_edges(args[0], kwargs.get("count", args[1]))
        if max(abs(a.energy - b.energy) for a, b in zip(result, ref)) <= workloads.EDGE_TOL:
            accurate += 1
    out["bandsolver.band_edges.accurate_frac"] = accurate / len(edges) if edges else 1.0

    claims = failed = 0
    for suite in ("edgestates", "limits", "iso", "selfiso"):
        sel = pick(f"verify.suite.{suite}")
        out[f"verify.suite.{suite}.s"] = sum(s.duration for s in sel)
        for s in sel:
            if not s.failed:
                claims += len(s.call[2])
                failed += sum(not r.passed for r in s.call[2])
    out["verify.claims"] = claims
    out["verify.claims_failed"] = failed

    # spans hold the calibration runs made inside an op, as "wall" does
    busy = sum(r["wall"] for r in records)
    top = sum(s.duration for s in spans if s.parent is None and s.op is not None)
    out["trace_coverage"] = top / busy
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace", "reference"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default="gate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=None)
    args = ap.parse_args()

    m_list = tuple(L.verify.DEFAULT_M_LIST)
    tracing.assert_unwrapped(L)
    if args.mode == "reference":
        claims = {}
        for op in workloads.gate_ops(m_list):
            reports = json.loads(workloads.run_op(L, "gate", op))
            claims[workloads.gate_key(op)] = [[c["claim_id"], c["passed"]] for c in reports]
        print(json.dumps({"claims": claims}))
        return 0

    result = {}
    tracer = None
    if args.mode == "trace":
        result["selftest"] = selftest.run(L)
        tracer = tracing.Tracer()
        tracing.assert_unwrapped(L)
    rng = random.Random(args.seed)
    first = workloads.generate_pass(args.workload, rng, m_list)
    if tracer:
        tracer.install(L)
    result["first_op"] = time.monotonic()
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    calib.warm()
    result["first_cal"] = [calib.sample() for _ in range(calib.SETUP_SAMPLES)]

    records = _run_passes(args.workload, rng, first, m_list, tracer,
                          seconds=args.seconds, passes=args.passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracing.assert_unwrapped(L)
        result["layers"] = _layers(tracer, records)
    result["known_defects"] = _known_defects()
    result["records"] = records
    result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
