"""Benchmark runner for andt.

    python3 bench/run.py --workload calibrate|operators|rigidify \
        --seed N --seconds S --trace 0|1 [--out BENCH_label.json] [--cases n:m,...]

Every repetition is a fresh interpreter (bench/worker.py) started one at a
time, so the module caches start cold as they do for a user's shell
invocation.  With --trace 0 the runner repeats the workload while another
repetition still fits in --seconds (at least once) and reports the medians of
the end-to-end metrics; with --trace 1 it runs one untraced and one traced
repetition and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is the result object; --out also writes the
full BENCH file (environment, host speed, every repetition, task digests).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import PER_LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("calibrate", "operators", "rigidify")
SETUP_SAMPLES = 5  # set-up-only repetitions are added up to this many samples
SETUP_PROBE_SHARE = 0.1  # ... while they fit in this share of --seconds
WORKER_TIMEOUT_S = 170


def host_ref_s() -> float:
    """Seconds for a fixed pure-Python Fraction loop; tracks host speed."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 40001):
        x = Fraction(k, 2 * k + 1) * Fraction(3 * k + 2, k + 5) + Fraction(1, k + 2)
        acc += x.numerator % 97
    return time.perf_counter() - t0


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sympy": version("sympy"),
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_worker(args, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace))]
    if args.cases:
        cmd += ["--cases", args.cases]
    if setup_only:
        cmd.append("--setup-only")
    ref = None if setup_only else host_ref_s()
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - spawned
    rep["host_ref_s"] = ref
    rep["traced"] = trace
    return rep


def _correct(reps) -> bool:
    """Every task returned an exact result, identical in every repetition."""
    names = [[t["name"] for t in r["tasks"]] for r in reps]
    if any(n != names[0] for n in names):
        return False
    for i in range(len(names[0])):
        digests = {r["tasks"][i]["digest"] for r in reps}
        if len(digests) != 1 or None in digests:
            return False
    return all(t["error"] is None for r in reps for t in r["tasks"])


def measure(args) -> tuple:
    """(result line, BENCH document)."""
    setups = []
    if args.trace:
        reps = [run_worker(args, trace=False), run_worker(args, trace=True)]
        plain, traced = reps
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
    else:
        reps = []
        start = time.monotonic()
        while True:
            reps.append(run_worker(args, trace=False))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(reps) > args.seconds:
                break
        setups = [r["setup_s"] for r in reps]
        spent, budget = 0.0, SETUP_PROBE_SHARE * args.seconds
        while len(setups) < SETUP_SAMPLES and spent + statistics.median(setups) <= budget:
            t0 = time.monotonic()
            setups.append(run_worker(args, trace=False, setup_only=True)["setup_s"])
            spent += time.monotonic() - t0
        ok = [t["ok"] for r in reps for t in r["tasks"]]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": sum(ok) / len(ok),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}

    tasks = [t for r in reps for t in r["tasks"]]
    failed = sum(not t["ok"] for t in tasks)
    result = {
        "correct": _correct(reps),
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    doc = {
        "label": Path(args.out).stem if args.out else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": args.cases,
        "env": environment(),
        "host_ref_s": [r["host_ref_s"] for r in reps],
        "failed_frac": failed / len(tasks),
        "setup_samples_s": setups,
        "digests": {t["name"]: t["digest"] for t in reps[0]["tasks"]},
        "result": result,
        "reps": reps,
    }
    return result, doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full BENCH file here")
    ap.add_argument("--cases", help="calibrate only: replace the (n, m) list, e.g. 3:2")
    args = ap.parse_args(argv)
    if args.cases and args.workload != "calibrate":
        ap.error("--cases applies to the calibrate workload only")

    result, doc = measure(args)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
