"""Workload inputs, operations and independent expected values.

Each workload is a *pass*: a fixed list of operations, each one timed
call into securecache's public API plus a check of its result.  A run
repeats the pass, so every run measures the same mix of work whatever
its length.  ``--seed`` fixes the order of the pass and, on cli-docs,
every drawn parameter.

The expected values below are written out from the paper's formulas and
from how each input was made; nothing here imports ``securecache.tradeoff``
or ``securecache.cli.scheme_rate``, so a drifting formula in the package
shows up as a failed operation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from pathlib import Path
from typing import Any, Callable

from securecache import cli, constructions, entropy_oracle, scheme_model, verifier

WORKLOADS = ("verify-sweep", "oracle-agree", "cli-docs")


# ---------------------------------------------------------------------------
# Expected values, written independently of the package
# ---------------------------------------------------------------------------


def units_per_file(label: str, K: int, t: int | None) -> int:
    return comb(K - 1, t) if label == "theorem3" else 1


def expected_mrl(label: str, N: int, K: int, t: int | None) -> tuple[F, F, F]:
    """(M, R, L) in file units for each family, from the paper's formulas."""
    if label == "otp":
        return F(1), F(K), F(K)
    if label == "theorem1":
        return F(1), F(K - 1), F(K - 1)
    if label == "theorem2":
        return F((N - 1) * (K - 1)), F(1), F((N - 1) * (K - 1))
    if label == "theorem3":
        B = comb(K - 1, t)
        return (
            F(N * t, K - t) + 1 - F(1, B),
            F(K, t + 1),
            F(comb(K - 1, t - 1) + comb(K, t + 1), B),
        )
    raise ValueError(label)


def expected_achievable(N: int, K: int) -> set[tuple[F, F]]:
    """Corner points of the achievable families for (N, K)."""
    pts = {(F(1), F(K - 1) if N == 2 else F(K)), (F((N - 1) * (K - 1)), F(1))}
    for t in range(1, K - 1):
        pts.add(expected_mrl("theorem3", N, K, t)[:2])
    return pts


def oracle_collections(N: int, K: int, cap: int, max_deliveries: int) -> int:
    """Variable collections check_rank_agreement compares: files, caches, deliveries."""
    universe = N + K + min(N**K, max_deliveries)
    return sum(comb(universe, i) for i in range(cap + 1))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    work: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result is right


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# --- verify-sweep -----------------------------------------------------------

# The criterion-3 grid restricted to schemes of at most 1024 (demand, user)
# checks: the six larger members, (3, 5, t) and (4, 5, t), take about 40 s on
# a 2-vCPU Xeon, and a run has to repeat its pass several times for per-op
# medians to be steady.
SWEEP_GRID = tuple(
    (N, K, t)
    for N in range(2, 5)
    for K in range(3, 6)
    for t in range(1, K - 1)
    if N**K * K <= 1024
)


def sweep_op(N: int, K: int, t: int) -> Op:
    def run():
        s = constructions.build_scheme("theorem3", N, K, t)
        report = verifier.verify_all(s, policy="all")
        return (
            report,
            scheme_model.memory_of(s),
            scheme_model.worst_case_rate(s),
            scheme_model.randomness_of(s),
        )

    def check(res) -> str | None:
        report, M, R, L = res
        if not report.passed:
            return f"theorem3{(N, K, t)}: {len(report.failures())} failed checks"
        return (
            _mismatch("checks", len(report.records), N**K * K)
            or _mismatch("demands", report.demand_count, N**K)
            or _mismatch(f"(M, R, L) of theorem3{(N, K, t)}", (M, R, L), expected_mrl("theorem3", N, K, t))
        )

    return Op("verify_sweep", N**K * K, run, check)


# --- oracle-agree -----------------------------------------------------------

# (label, N, K, t, subset_size_cap, max_deliveries).  theorem2 (3, 3) is bound
# by per-collection overhead, the theorem3 members by enumeration (3**9 and
# 3**12 inputs).  Caps are lower than criterion 5's 4 on the two slowest (17 s
# and 16 s at cap 4 on a 2-vCPU Xeon) so that a run repeats its pass several
# times.
ORACLE_CASES = (
    ("theorem1", 2, 3, None, 4, 32),
    ("theorem2", 2, 3, None, 4, 32),
    ("theorem2", 3, 3, None, 3, 32),
    ("theorem3", 2, 3, 1, 2, 32),
    ("theorem3", 3, 3, 1, 1, 8),
)


def oracle_op(label, N, K, t, cap, md) -> Op:
    s = constructions.build_scheme(label, N, K, t)

    def run():
        return entropy_oracle.check_rank_agreement(s, subset_size_cap=cap, max_deliveries=md)

    def check(ok) -> str | None:
        return None if ok is True else f"{label}{(N, K, t)} cap {cap}: rank agreement {ok!r}"

    return Op("oracle_agree", oracle_collections(N, K, cap, md), run, check)


# --- cli-docs ---------------------------------------------------------------

# Documents with explicit broadcast tables (N**K <= 256).  theorem3 (2, 7, 2)
# is the multi-megabyte one.
SMALL_DOCS = {
    "otp33": ("otp", 3, 3, None),
    "t1_24": ("theorem1", 2, 4, None),
    "t2_33": ("theorem2", 3, 3, None),
    "t3_241": ("theorem3", 2, 4, 1),
    "t3_331": ("theorem3", 3, 3, 1),
}
MEDIUM_DOCS = {
    "t3_442": ("theorem3", 4, 4, 2),
    "t3_352": ("theorem3", 3, 5, 2),
}
LARGE_DOCS = {"t3_272": ("theorem3", 2, 7, 2)}
TAMPERED_FROM = ("t2_33", "t3_331", "t3_442")
TRADEOFF_SIZES = ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (2, 5), (3, 5), (4, 4))
CLI_REPEAT = 2  # copies of the command recipe per pass, each with fresh draws

VERIFY_RE = re.compile(
    r"^(PASS|FAIL) (\S+): (\d+) demands, (\d+) \(demand, user\) checks, (\d+) failures$"
)
CONSTRUCT_RE = re.compile(r": q=(\d+) B=(\d+) M=(\S+) R=(\S+) L=(\S+) -> ")


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI command, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _tamper(doc: dict, rng: random.Random) -> tuple[dict, tuple[int, ...]]:
    """Zero the one entry that sends some unit of a uniform demand's file.

    Every user then misses that unit, and caches are independent of the
    files, so exactly the K checks of that demand fail.
    """
    N, K, B = doc["N"], doc["K"], doc["B"]
    n, unit = rng.randint(1, N), rng.randrange(B)
    demand = (n,) * K
    for entry in doc["delivery"]["entries"]:
        if tuple(entry["demand"]) == demand:
            row = entry["rows"][unit]
            col = (n - 1) * B + unit
            if row[col] != 1:
                raise ValueError(f"uniform broadcast row {unit} does not send column {col}")
            row[col] = 0
            return doc, demand
    raise ValueError(f"no explicit broadcast for {demand}")


def make_documents(workdir: Path, seed: int) -> dict[str, dict]:
    """Write every input document; returns name -> {path, label, N, K, t, tampered}."""
    docs_dir = workdir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"documents/{seed}")
    docs: dict[str, dict] = {}
    for name, (label, N, K, t) in {**SMALL_DOCS, **MEDIUM_DOCS, **LARGE_DOCS}.items():
        path = docs_dir / f"{name}.json"
        cli.write_scheme(constructions.build_scheme(label, N, K, t), path)
        docs[name] = dict(path=path, label=label, N=N, K=K, t=t, tampered=None)
    for name in TAMPERED_FROM:
        doc, demand = _tamper(json.loads(docs[name]["path"].read_text()), rng)
        path = docs_dir / f"{name}_tampered.json"
        path.write_text(json.dumps(doc))
        docs[f"{name}_tampered"] = {**docs[name], "path": path, "tampered": demand}
    return docs


def _check_verify(doc: dict, demands: int, report: Path | None):
    K = doc["K"]
    fails = K if doc["tampered"] else 0
    want = ("FAIL" if fails else "PASS", doc["label"], demands, demands * K, fails)

    def check(res) -> str | None:
        rc, out = res
        m = VERIFY_RE.match(out.splitlines()[0]) if out else None
        got = m and (m[1], m[2], int(m[3]), int(m[4]), int(m[5]))
        bad = _mismatch("exit code", rc, 1 if fails else 0) or _mismatch("verify summary", got, want)
        if bad or report is None:
            return bad
        rep = json.loads(report.read_text())
        got = (rep["passed"], rep["demands_checked"], len(rep["records"]), len(rep["failures"]))
        return _mismatch("report", got, (not fails, demands, demands * K, fails))

    return check


def _check_simulate(doc: dict, demand: tuple[int, ...], seed: int):
    K = doc["K"]
    if doc["tampered"] == demand:
        want = (1, f"FAIL demand {list(demand)} seed {seed}: users {list(range(1, K + 1))} failed\n")
    else:
        want = (0, f"PASS demand {list(demand)} seed {seed}: all {K} users decoded\n")
    return lambda res: _mismatch("simulate", res, want)


def _check_construct(doc: dict, out: Path):
    label, N, K, t = doc["label"], doc["N"], doc["K"], doc["t"]
    M, R, L = expected_mrl(label, N, K, t)

    def check(res) -> str | None:
        rc, text = res
        m = CONSTRUCT_RE.search(text)
        got = m and (int(m[2]), F(m[3]), F(m[4]), F(m[5]))
        bad = _mismatch("exit code", rc, 0) or _mismatch(
            "construct summary (B, M, R, L)", got, (units_per_file(label, K, t), M, R, L)
        )
        if bad:
            return bad
        meta = json.loads(out.read_text())["metadata"]
        got = tuple(F(*meta[k]) for k in ("M", "R", "L"))
        return _mismatch("document metadata (M, R, L)", got, (M, R, L))

    return check


def _check_tradeoff(N: int, K: int, out: Path):
    unit_cache = (F(1), F(K - 1) if N == 2 else F(K))
    unit_rate = (F((N - 1) * (K - 1)), F(1))

    def check(res) -> str | None:
        rc, _ = res
        if rc != 0:
            return f"tradeoff exit code {rc}"
        doc = json.loads(out.with_suffix(".vertices.json").read_text())
        achievable, env = ([(F(*p["M"]), F(*p["R"])) for p in doc[key]] for key in ("achievable", "envelope"))
        return _mismatch("achievable points", set(achievable), expected_achievable(N, K)) or (
            _mismatch("envelope endpoints", (env[0], env[-1]), (unit_cache, unit_rate))
        )

    return check


def _cli_op(argv: list[str], check) -> Op:
    return Op(f"cli_{argv[0]}", 1, lambda: call_cli(argv), check)


def _cli_pass(workdir: Path, docs: dict[str, dict], rng: random.Random) -> list[Op]:
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def out_path(suffix: str) -> Path:
        return out_dir / f"op{len(ops)}{suffix}"

    def verify(name: str, sample: int | None = None, report: bool = False) -> None:
        doc = docs[name]
        argv = ["verify", "--scheme", str(doc["path"])]
        demands = doc["N"] ** doc["K"]
        if sample is not None:
            argv += ["--demands", "sample", "--count", str(sample), "--seed", str(rng.randrange(10**6))]
            demands = sample
        rep = out_path(".report.json") if report else None
        if rep is not None:
            argv += ["--report", str(rep)]
        ops.append(_cli_op(argv, _check_verify(doc, demands, rep)))

    def simulate(name: str, demand: tuple[int, ...] | None = None) -> None:
        doc = docs[name]
        if demand is None:
            demand = tuple(rng.randint(1, doc["N"]) for _ in range(doc["K"]))
        seed = rng.randrange(10**6)
        argv = ["simulate", "--scheme", str(doc["path"]), "--demand", ",".join(map(str, demand)), "--seed", str(seed)]
        ops.append(_cli_op(argv, _check_simulate(doc, demand, seed)))

    def construct(name: str) -> None:
        doc = docs[name]
        out = out_path(".json")
        argv = ["construct", "--scheme", doc["label"], "--N", str(doc["N"]), "--K", str(doc["K"]), "--out", str(out)]
        if doc["t"] is not None:
            argv += ["--t", str(doc["t"])]
        ops.append(_cli_op(argv, _check_construct(doc, out)))

    def sharing(name: str) -> None:
        argv = ["oracle", "--scheme", str(docs[name]["path"]), "--checks", "sharing"]
        ops.append(_cli_op(argv, lambda res: _mismatch("oracle sharing", res, (0, "share threshold: PASS\n"))))

    def tradeoff() -> None:
        N, K = rng.choice(TRADEOFF_SIZES)
        out = out_path(".csv")
        argv = ["tradeoff", "--N", str(N), "--K", str(K), "--out", str(out)]
        ops.append(_cli_op(argv, _check_tradeoff(N, K, out)))

    for _ in range(CLI_REPEAT):
        for name in SMALL_DOCS:
            verify(name)
            verify(name, report=True)
            for _ in range(3):
                simulate(name)
            construct(name)
            if docs[name]["label"] == "theorem3":
                sharing(name)
        for name in MEDIUM_DOCS:
            verify(name, sample=8)
            verify(name, sample=8, report=True)
            simulate(name)
            simulate(name)
            sharing(name)
        construct("t3_442")
        for name in LARGE_DOCS:
            verify(name, sample=4)
            simulate(name)
        for base in TAMPERED_FROM:
            name = f"{base}_tampered"
            verify(name, sample=8 if base in MEDIUM_DOCS else None)
            simulate(name, docs[name]["tampered"])
        for _ in range(3):
            tradeoff()
    return ops


def malformed_probe(workdir: Path, docs: dict[str, dict]) -> list[tuple[str, str]]:
    """Verify the three malformed documents; each should exit 2.

    Returns (case, outcome) pairs, outcome being "exit N" or the exception
    name.  Until the loader validates documents none of them exits 2, so
    the probe runs outside the timed pass and is reported on its own.
    """
    base = json.loads(docs["t3_331"]["path"].read_text())
    fractional = copy.deepcopy(base)
    row = fractional["cache"][0][0]
    row[row.index(1)] = 1.5
    cases = {
        'q is the string "3"': {**base, "q": str(base["q"])},
        "cache is null": {**base, "cache": None},
        "cache entry 1.5": fractional,
    }
    outcomes = []
    for i, (case, doc) in enumerate(cases.items()):
        path = workdir / "docs" / f"malformed{i}.json"
        path.write_text(json.dumps(doc))
        try:
            rc, _ = call_cli(["verify", "--scheme", str(path)])
            outcome = f"exit {rc}"
        except Exception as e:  # the defect under test: a traceback instead of exit 2
            outcome = type(e).__name__
        outcomes.append((case, outcome))
    return outcomes


def build_pass(workload: str, seed: int, workdir: Path) -> tuple[list[Op], dict | None]:
    """The ordered operations of one pass, plus the cli-docs documents."""
    rng = random.Random(f"{workload}/{seed}")
    docs = None
    if workload == "verify-sweep":
        ops = [sweep_op(*g) for g in SWEEP_GRID]
    elif workload == "oracle-agree":
        ops = [oracle_op(*c) for c in ORACLE_CASES]
    elif workload == "cli-docs":
        docs = make_documents(workdir, seed)
        ops = _cli_pass(workdir, docs, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops, docs
