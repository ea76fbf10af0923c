"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py, one at a time.  Imports andt from ``src/`` of the checkout
this file sits in, runs the workload's set-up and then its task list once, in
order, with one caller and no threads.  Prints one JSON line:

    ready      time.monotonic() when set-up finished (run.py subtracts the
               moment it started this process, giving setup_s)
    wall_s     seconds for the timed task list (cpu_s: its process time)
    peak_rss_mb  ru_maxrss of this process when the task list ended
    tasks      [{name, s, ok, error, digest}]
    trace      per-layer metrics, spans and edges (only with --trace 1)
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_andt():
    sys.path.insert(0, str(SRC))
    import andt

    if Path(andt.__file__).resolve().parent != (SRC / "andt").resolve():
        sys.exit(f"imported andt from {andt.__file__}, not from {SRC}")
    from tracer import MODULES

    for m in MODULES:
        importlib.import_module(f"andt.{m}")


def _ok(result) -> bool:
    """A check report with ok=False counts as failed; other results pass."""
    return not (isinstance(result, dict) and result.get("ok") is False)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_andt()
    import workloads
    from digest import digest
    from tracer import Tracer

    cases = workloads.parse_cases(args.cases) if args.cases else None
    setup, tasks = workloads.build(args.workload, args.seed, cases)
    tracer = Tracer() if args.trace else None
    rows, results = [], []
    with tracer or contextlib.nullcontext():
        ctx = setup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return
        t_start, cpu_start = time.perf_counter(), time.process_time()
        for task in tasks:
            t0 = time.perf_counter()
            try:
                res, err = task.run(ctx), None
            except Exception as exc:  # a raising task is recorded and the list goes on
                res, err = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            rows.append({"name": task.name, "s": time.perf_counter() - t0,
                         "ok": err is None and _ok(res), "error": err})
            results.append(res)
        wall = time.perf_counter() - t_start
        cpu = time.process_time() - cpu_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb}
    if tracer is not None:
        out["trace"] = {"metrics": tracer.metrics(), "spans": tracer.spans(),
                        "edges": tracer.edge_calls()}

    for task, row, res in zip(tasks, rows, results):
        if row["error"] is not None:
            row["digest"] = None
            continue
        try:
            row["digest"] = digest(task.post(ctx, res) if task.post else res)
        except TypeError as exc:  # no exact canonical form
            row["digest"], row["error"] = None, f"digest: {exc}"
    out["tasks"] = rows
    print(json.dumps(out))


if __name__ == "__main__":
    main()
