"""One workload run in a fresh process; prints one JSON result line.

Started by run.py, never imported.  Set-up covers the imports and making
the pass's inputs; the launcher times it from process start.  The timed
loop is closed, single-threaded: each operation starts when the previous
one has returned and been checked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import securecache  # noqa: E402

if not Path(securecache.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: securecache imported from {securecache.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def run_pass(ops, times: list[list[float]], failures: list[str], tracer=None) -> float:
    """Run every op once; appends each op's time and returns their sum."""
    total = 0.0
    for i, op in enumerate(ops):
        err = None
        with tracer.op(f"op.{op.kind}", i) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:
                err = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
        if err is None:
            try:
                err = op.check(result)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=3)
        if err is not None:
            failures.append(f"op {i} ({op.kind}): {err}")
        times[i].append(dt)
        total += dt
    return total


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    ops, docs = workloads.build_pass(args.workload, args.seed, workdir)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return

    times: list[list[float]] = [[] for _ in ops]
    failures: list[str] = []
    pass_times: list[float] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    start = perf_counter()
    while not pass_times or perf_counter() - start < budget:
        pass_times.append(run_pass(ops, times, failures))
    untraced_passes = len(pass_times)

    layers = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced_time = run_pass(ops, [[] for _ in ops], failures, tracer)
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_frac"] = traced_time / statistics.median(pass_times) - 1
        tracer.write(ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    malformed = workloads.malformed_probe(workdir, docs) if docs is not None else []
    if layers is not None:
        layers["cli.malformed_exit2"] = sum(outcome == "exit 2" for _, outcome in malformed)

    for f in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "t_ready": t_ready,
        "attempted": len(ops) * (untraced_passes + args.trace),
        "failed": len(failures),
        "passes": untraced_passes,
        "pass_size": len(ops),
        "op_work": [op.work for op in ops],
        "pass_times_s": pass_times,
        "op_medians_s": [statistics.median(t[:untraced_passes]) for t in times],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "malformed": malformed,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
    }))


if __name__ == "__main__":
    main()
