"""Benchmark of lamesusy: the numeric SUSY partner pipeline and the release gate.

    python3 perfbench/run.py --workload {partners,gate,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh interpreters with BLAS and OpenMP
pinned to one thread, so import cost, cold caches and input generation
land in ``setup_s``:

  * seven set-up-only starts before the timed run, its own start and
    seven after it give fifteen ``setup_s`` samples, reported as their
    median, so a slow spell of the machine moves few of them;
  * the timed run executes whole passes of seeded inputs until --seconds
    of op time are used up, checking every op against a reference
    outside the engine under test (checks are not timed), and then the
    known-defect inputs, untimed;
  * with --trace 1 a further interpreter runs the tracer self-test and
    then the same passes with every layer traced, and the per-layer
    metrics are reported instead of the end-to-end ones.

Once per source tree, the gate's op list is run in full and compared,
claim by claim, with ``python -m lamesusy verify --scope all --format
json``; the result is cached under ``.perfbench/`` and checked on every
invocation.  Human-readable lines come first on stdout; the last line is
the JSON result.  Exit status 2 means the checkout has no package.

Every reported time is in reference seconds: measured seconds rescaled by
a calibration kernel run beside and inside the ops (``calib.py``), since
the speed of a shared VM drifts by a third within minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads, for calib

import calib  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
SETUP_ONLY_STARTS = 7  # before and again after the timed run
CHILD_TIMEOUT_S = 170
REFERENCE_TIMEOUT_S = 800

SHOWN_FAILURES = 8
# every end-to-end figure is printed; BENCHMARK.json bounds the steady ones
PRINTED_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                 "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(mode: str, *extra: str, timeout=CHILD_TIMEOUT_S) -> tuple:
    """Run child.py; returns (result, monotonic time just before the start)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _calibrate() -> list:
    return [calib.sample() for _ in range(calib.SETUP_SAMPLES)]


def _setup_sample(*common: str) -> tuple:
    """(raw, rescaled) seconds from a fresh interpreter's start to its
    first op, between calibration samples taken just before and after."""
    before = _calibrate()
    out, started = _child("setup", *common)
    raw = out["first_op"] - started
    return raw, raw * calib.scale(before + _calibrate())


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("lamesusy/**/*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# the release-job reference
# ---------------------------------------------------------------------------

def _build_reference(source_hash: str) -> dict:
    """Run the CLI release job and the gate op list side by side."""
    cli_cmd = [sys.executable, "-m", "lamesusy", "verify", "--scope", "all", "--format", "json"]
    ops_cmd = [sys.executable, str(HERE / "child.py"), "--mode", "reference"]
    procs = []
    try:
        for cmd in (cli_cmd, ops_cmd):
            procs.append(subprocess.Popen(cmd, env=_child_env(), cwd=ROOT,
                                          stdout=subprocess.PIPE, text=True))
        outs = [p.communicate(timeout=REFERENCE_TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if procs[0].returncode not in (0, 1) or procs[1].returncode != 0:
        raise RuntimeError(f"reference runs failed: exit codes {[p.returncode for p in procs]}")
    cli_claims = [[c["claim_id"], c["passed"]] for c in json.loads(outs[0])]
    op_claims = json.loads(outs[1].strip().splitlines()[-1])["claims"]
    joined = [c for claims in op_claims.values() for c in claims]
    return {"source_sha256": source_hash, "match": joined == cli_claims,
            "cli_claims": cli_claims, "op_claims": op_claims}


def reference() -> dict:
    source_hash = _source_hash()
    path = CACHE / "reference.json"
    try:
        cached = json.loads(path.read_text())
        if cached["source_sha256"] == source_hash:
            return cached
    except (OSError, ValueError, KeyError):
        pass
    ref = _build_reference(source_hash)
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _quantile(sorted_vals, p):
    k = (len(sorted_vals) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def tail(durations) -> tuple:
    """(percentile, value, samples beyond): the highest of the usual
    percentiles with at least ten samples beyond it, else the maximum."""
    vals = sorted(durations)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = _quantile(vals, p)
        beyond = sum(v > value for v in vals)
        if beyond >= 10:
            return p, value, beyond
    return 100.0, vals[-1], 0


def _describe(op: dict) -> str:
    return " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in op.items())


def run_workload(workload: str, seed: int, seconds: int, trace: bool, ref: dict) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_only():
        for _ in range(SETUP_ONLY_STARTS):
            setup.append(_setup_sample(*common))

    setup = []
    setup_only()
    before = _calibrate()
    main, started = _child("run", *common)
    raw = main["first_op"] - started
    setup.append((raw, raw * calib.scale(before + main["first_cal"])))
    setup_only()

    records = main["records"]
    durations = [r["ns"] for r in records]
    failed = [r for r in records if not r["ok"]]
    p, tail_s, beyond = tail(durations)
    metrics = {
        "setup_s": statistics.median(ns for _, ns in setup),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    raw_s = [r["s"] for r in records]
    raw_metrics = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "ops_per_s": len(raw_s) / sum(raw_s),
        "op_p50_s": statistics.median(raw_s),
    }
    problems = []
    if not ref["match"]:
        problems.append("gate op list does not reproduce `verify --scope all`")
    if workload == "gate":
        for r in records:
            key = workloads.gate_key(r["op"])
            if r.get("claims") != ref["op_claims"].get(key):
                problems.append(f"gate op {key}: claims or verdicts differ from the release job")

    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "passes": records[-1]["pass"] + 1, "metrics": metrics, "raw_metrics": raw_metrics,
        "speed": statistics.median(r["s"] / r["ns"] for r in records),
        "setup_samples_s": setup, "tail": {"percentile": p, "samples": len(durations),
                                           "beyond": beyond},
        "attempted": len(records), "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "records": records,
        "known_defects": main["known_defects"],
        "environment": {**main["environment"], "git_commit": _git_commit(),
                        "source_sha256": ref["source_sha256"]},
    }
    if trace:
        traced, _ = _child("trace", *common, "--passes", str(result["passes"]))
        if [r["op"] for r in traced["records"]] != [r["op"] for r in records]:
            problems.append("traced run did not repeat the timed run's inputs")
        if not traced["selftest"]["ok"]:
            problems += ["tracer self-test: " + s for s in traced["selftest"]["problems"]]
        layers = traced["layers"]
        defects = traced["known_defects"]
        layers["bandsolver.galerkin_edges.known_defects_failed"] = sum(not d["ok"] for d in defects)
        layers["bandsolver.galerkin_edges.known_defects_max"] = max(d["iso_defect"] for d in defects)
        traced_busy = sum(r["ns"] for r in traced["records"])
        layers["trace_overhead"] = traced_busy / sum(durations)
        result["layers"] = layers
        result["traced_busy_s"] = traced_busy
        result["traced_wall_s"] = sum(r["wall"] for r in traced["records"])
        result["selftest"] = traced["selftest"]
    result["problems"] = problems
    result["correct"] = not problems and not failed
    return result


def report(res: dict, units: dict) -> None:
    """Human-readable lines for one workload."""
    m = res["metrics"]
    print(f"workload {res['workload']}: seed {res['seed']}, {res['passes']} pass(es), "
          f"{res['attempted']} ops")
    t = res["tail"]
    print(f"  times are reference seconds (calib.py); one took {res['speed']:.3f} s "
          f"here (median over ops); raw figures in brackets")
    notes = {"setup_s": f"median of {len(res['setup_samples_s'])} starts",
             "op_tail_s": f"p{t['percentile']:g} of {t['samples']} ops, {t['beyond']} beyond"}
    for name, value in m.items():
        raw = res["raw_metrics"].get(name)
        note = notes.get(name, "") + (f" (raw {raw:.6g})" if raw is not None else "")
        print(f"  {name:<12} {value:12.6g} {units[name]:<5} {note}")
    print(f"  {'failed_frac':<12} {res['failed_frac']:12.6g} {'ratio':<5} "
          f"{res['failed']}/{res['attempted']} ops")
    failures = [r for r in res["records"] if not r["ok"]]
    for r in failures[:SHOWN_FAILURES]:
        print(f"    failed: {_describe(r['op'])}: {r['reason']}")
    if len(failures) > SHOWN_FAILURES:
        print(f"    ... {len(failures) - SHOWN_FAILURES} more in the results file")
    print(f"  known defects (fixed inputs, untimed, isospectrality tolerance "
          f"{workloads.ISO_TOL:g}):")
    for d in res["known_defects"]:
        print(f"    j={d['j']} m={d['m']:g}: defect {d['iso_defect']:.3g} "
              f"{'ok' if d['ok'] else 'FAILS'}")
    if "layers" in res:
        busy = res["traced_wall_s"]  # layer times are raw seconds
        print(f"  per layer (traced run, {busy:.3f} raw s of ops):")
        for name, value in res["layers"].items():
            share = f"{value / busy:7.1%} of op time" if name.endswith("self_s") or \
                name.endswith(".s") else ""
            print(f"    {name:<38} {value:14.6g} {units.get(name, ''):<6} {share}")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")
    print("  inputs: " + json.dumps([r["op"] for r in res["records"]]))
    print("  environment: " + json.dumps(res["environment"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lamesusy" / "__init__.py").is_file():
        print(f"error: no lamesusy package under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {**PRINTED_UNITS,
             **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    ref = reference()
    calib.warm()
    cli = ref["cli_claims"]
    print(f"release job `verify --scope all`: {sum(p for _, p in cli)}/{len(cli)} claims "
          f"passed; the gate op list reproduces every id and verdict: "
          f"{'yes' if ref['match'] else 'NO'}")
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in chosen:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), ref)
        CACHE.mkdir(exist_ok=True)
        out = CACHE / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1))
        report(res, units)
        results.append(res)

    def values(res):
        source = res["layers"] if args.trace else res["metrics"]
        return {n: {"value": source[n], "unit": units[n]} for n in names}

    if len(results) == 1:
        metrics = values(results[0])
    else:
        metrics = {f"{r['workload']}.{n}": v for r in results for n, v in values(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
