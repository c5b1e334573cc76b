"""Self-check of the benchmark: exact counts at reduced size, and metric names.

    python3 perfbench/selfcheck.py

Runs each workload's operations traced, at reduced size where the full
pass is long, and requires counts that follow from the algorithms:
3 rank calls per (demand, user) check and 2 * N**K delivery matrices per
scheme on verify-sweep, sum over i <= cap of C(|U|, i) collections on
oracle-agree, one CLI entry per command on cli-docs.  It also requires
that the launcher's metric names and units are exactly BENCHMARK.json's.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from math import comb

import worker  # puts src/ on sys.path and refuses an installed securecache

import tracing
import workloads
from run import END_TO_END_UNITS, ROOT
from tracing import NAME, OP

SWEEP_SMALL = ((2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 4, 2))
ORACLE_SMALL = (
    ("theorem1", 2, 3, None, 2, 32),
    ("theorem2", 2, 3, None, 3, 32),
    ("theorem2", 3, 3, None, 2, 32),
    ("theorem3", 2, 3, 1, 1, 32),
    ("theorem3", 3, 3, 1, 1, 4),
)


def require(cond: bool, msg: str) -> None:
    if not cond:
        sys.exit(f"self-check FAILED: {msg}")


def traced_pass(ops) -> list[list]:
    failures: list[str] = []
    tracer = tracing.Tracer()
    with tracer:
        worker.run_pass(ops, [[] for _ in ops], failures, tracer)
    require(not failures, f"operations failed: {failures[:3]}")
    return tracer.spans


def per_op(spans, name: str, under: str | None = None) -> Counter:
    counts: Counter = Counter()
    for i, rec in enumerate(spans):
        if rec[NAME] == name and (under is None or tracing.under(spans, i, under)):
            counts[rec[OP]] += 1
    return counts


def check_sweep() -> None:
    ops = [workloads.sweep_op(*g) for g in SWEEP_SMALL]
    spans = traced_pass(ops)
    ranks = per_op(spans, "ff_linalg.rank")
    deliveries = per_op(spans, "scheme_model.delivery_matrix")
    for i, (N, K, t) in enumerate(SWEEP_SMALL):
        checks = N**K * K
        require(ops[i].work == checks, f"theorem3{(N, K, t)}: work {ops[i].work}, want {checks}")
        require(ranks[i] == 3 * checks, f"theorem3{(N, K, t)}: {ranks[i]} rank calls for {checks} checks")
        require(deliveries[i] == 2 * N**K, f"theorem3{(N, K, t)}: {deliveries[i]} delivery matrices")
    layers = tracing.layer_metrics(spans)
    require(layers["ff_linalg.rank_per_check"] == 3, f"rank_per_check {layers['ff_linalg.rank_per_check']}")
    print(f"verify-sweep: {len(ops)} schemes, {layers['verifier.checks']} checks, 3 rank calls per check")


def check_oracle() -> None:
    ops = [workloads.oracle_op(*c) for c in ORACLE_SMALL]
    spans = traced_pass(ops)
    collections = per_op(spans, "entropy_oracle.stacked_matrix", under="entropy_oracle.check_rank_agreement")
    for i, (label, N, K, t, cap, md) in enumerate(ORACLE_SMALL):
        universe = N + K + min(N**K, md)
        want = sum(comb(universe, j) for j in range(cap + 1))
        require(collections[i] == want, f"{label}{(N, K, t)} cap {cap}: {collections[i]} collections, want {want}")
        require(ops[i].work == want, f"{label}{(N, K, t)}: work {ops[i].work}, want {want}")
    print(f"oracle-agree: {len(ops)} agreement calls, {sum(collections.values())} collections")


def check_cli() -> None:
    workdir = ROOT / ".bench_work" / "selfcheck"
    try:
        ops, docs = workloads.build_pass("cli-docs", 0, workdir)
        spans = traced_pass(ops)
        mains = per_op(spans, "cli.main")
        require(sorted(mains) == list(range(len(ops))) and set(mains.values()) == {1}, "one cli.main per command")
        loads = sum(per_op(spans, "cli.load_scheme").values())
        want = sum(op.kind in ("cli_verify", "cli_simulate", "cli_oracle") for op in ops)
        require(loads == want, f"{loads} documents loaded for {want} commands that read one")
        outcomes = workloads.malformed_probe(workdir, docs)
        require(len(outcomes) == 3, f"malformed probe ran {len(outcomes)} cases")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds = Counter(op.kind for op in ops)
    print(f"cli-docs: {len(ops)} commands {dict(kinds)}; malformed probe: {outcomes}")


def check_metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    require(declared == END_TO_END_UNITS, f"end_to_end {declared} != emitted {END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    require(declared == tracing.PER_LAYER_UNITS, "per_layer metrics differ from the emitted ones")
    emitted = set(tracing.layer_metrics([])) | {"trace.overhead_frac", "cli.malformed_exit2"}
    require(emitted == set(tracing.PER_LAYER_UNITS), f"layer_metrics emits {sorted(emitted ^ set(declared))}")
    require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [*bench["command"], "--workload", "cli-docs", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench[key]}
        require(got == want, f"--trace {trace} emits {sorted(set(got) ^ set(want))} differently")
        require(result["correct"] and result["failed"] == 0, f"--trace {trace} run failed: {result}")
    print(f"metrics: {len(END_TO_END_UNITS)} end-to-end and {len(declared)} per-layer names emitted as declared")


if __name__ == "__main__":
    check_metric_names()
    check_sweep()
    check_oracle()
    check_cli()
    print("self-check passed")
