"""securecache benchmark launcher.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Runs from a source checkout (it imports ``src/securecache``, never an
installed copy).  Each run starts fresh worker processes with BLAS and
OpenMP pinned to one thread: a few that only set up, to time set-up
several times, then one that sets up and measures.  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of one traced pass and
the tracing overhead against the untraced passes of the same run.

Workloads (see BENCHMARK.json for why each was chosen):
  verify-sweep  one op builds a theorem3 scheme, verifies every demand and
                measures M, R and L; work unit: a (demand, user) check.
  oracle-agree  one op is one check_rank_agreement call; work unit: a
                variable collection compared, brute-force entropy vs rank.
  cli-docs      one op is one in-process CLI command over scheme
                documents; work unit: a command.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# What one op and one unit of work are, per workload, for the printed table.
WORK_NAMES = {
    "verify-sweep": ("checks_per_s", "sweep_op"),
    "oracle-agree": ("entropies_per_s", "agree_op"),
    "cli-docs": ("cmds_per_s", "cmd"),
}
SETUP_SAMPLES = 5
DEADLINE_S = 170
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one worker, wait for it, return (set-up seconds, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail("worker ran past the deadline and was killed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["t_ready"] - t_spawn, result


def quantile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORK_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "securecache" / "__init__.py").is_file():
        fail(f"no securecache sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setups = [run_worker(args, base / f"setup{i}", deadline, True)[0] for i in range(SETUP_SAMPLES - 1)]
    setup, res = run_worker(args, base / "run", deadline, False)
    setups.append(setup)
    shutil.rmtree(base, ignore_errors=True)

    medians_ms = [1000 * t for t in res["op_medians_s"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "work_per_s": sum(res["op_work"]) / sum(res["op_medians_s"]),
        "op_p50_ms": quantile(medians_ms, 50),
        "op_p90_ms": quantile(medians_ms, 90),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    work_name, op_name = WORK_NAMES[args.workload]
    env = res["env"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 client, 1 thread")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['machine']}; "
          f"BLAS/OpenMP threads pinned to 1")
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed, "
          f"fail_frac {res['failed'] / res['attempted']:.4g}; "
          f"{res['passes']} untraced passes of {res['pass_size']} {op_name} ops, {sum(res['pass_times_s']):.2f} s in ops")
    print(f"pass times (s): {' '.join(f'{t:.3f}' for t in res['pass_times_s'])}")
    print(f"setup_s samples (fresh processes): {' '.join(f'{s:.3f}' for s in setups)}")
    labels = {
        "work_per_s": f"work_per_s = {work_name}",
        "op_p50_ms": f"op_p50_ms = {op_name}_p50_ms (n={res['pass_size']} per-op medians)",
        "op_p90_ms": f"op_p90_ms = {op_name}_p90_ms (n={res['pass_size']} per-op medians)",
    }
    for name, value in e2e.items():
        print(f"  {labels.get(name, name):<58} {value:>14.4f} {END_TO_END_UNITS[name]}")
    for case, outcome in res["malformed"]:
        verdict = "ok" if outcome == "exit 2" else "KNOWN DEFECT, want exit 2"
        print(f"  malformed document ({case}): {outcome} [{verdict}]")

    if args.trace:
        layers = res["layers"]
        print("per-layer, one traced pass:")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<48} {layers[name]:>16.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
