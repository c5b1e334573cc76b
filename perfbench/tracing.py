"""Span tracing of securecache's public functions, from outside the package.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper at every name a securecache module binds it under (for example
``securecache.verifier.rank`` as well as ``securecache.ff_linalg.rank``),
so calls are caught wherever their callers look them up.  Spans live in
memory as plain lists and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from pathlib import Path
from time import perf_counter


def _rank_attrs(args, kwargs, result):
    m = args[0]
    return m.rows * m.cols


def _checks_attrs(args, kwargs, result):
    return len(result.records)


def _stacked_attrs(args, kwargs, result):
    # Inputs the oracle enumerates for this collection: q**n unless it is empty.
    return result.q**result.cols if result.rows else 0


def _load_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


def _write_bytes(args, kwargs, result):
    return Path(args[1]).stat().st_size


# (span name, attribute path in module securecache.<first part of the name>,
#  attrs(args, kwargs, result) recorded on the span, or None)
TARGETS = (
    ("ff_linalg.rank", "rank", _rank_attrs),
    ("ff_linalg.stack", "stack", None),
    ("ff_linalg.zero_columns", "zero_columns", None),
    ("ff_linalg.in_rowspace", "in_rowspace", None),
    ("verifier.decode", "decode", None),
    ("verifier.simulate", "simulate", None),
    ("verifier.verify_all", "verify_all", _checks_attrs),
    ("scheme_model.delivery_matrix", "LinearScheme.delivery_matrix", None),
    ("scheme_model.worst_case_rate", "worst_case_rate", None),
    ("entropy_oracle.check_rank_agreement", "check_rank_agreement", None),
    ("entropy_oracle.stacked_matrix", "stacked_matrix", _stacked_attrs),
    ("entropy_oracle.check_secret_sharing", "check_secret_sharing", None),
    ("constructions.build_scheme", "build_scheme", None),
    ("constructions.build_shares", "build_shares", None),
    ("cli.main", "main", None),
    ("cli.load_scheme", "load_scheme", _load_bytes),
    ("cli.write_scheme", "write_scheme", _write_bytes),
    ("tradeoff.emit_curves", "emit_curves", None),
)

# Span record fields, kept as lists for cheap appends.
NAME, START, END, PARENT, OP, ATTR = range(6)


class Tracer:
    """Collects nested spans while installed; restores every binding on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _wrap(self, name: str, fn, attrs):
        spans, open_ = self.spans, self._open
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, tracer.op_id, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                open_.pop()
            if attrs is not None:
                rec[ATTR] = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark operation; spans inside it carry op_id."""
        rec = [name, 0.0, 0.0, -1, op_id, None]
        self.op_id = op_id
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._open.pop()
            self.op_id = -1

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "securecache" or n.startswith("securecache.")]
        for name, path, attrs in TARGETS:
            owner = sys.modules["securecache." + name.split(".")[0]]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(name, original, attrs)
            if len(parts) > 1:
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write all spans once, one JSON array per line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with path.open("w") as f:
            for name, start, end, parent, op, attr in self.spans:
                f.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op, attr]) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def under(spans: list[list], i: int, ancestor: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == ancestor:
            return True
        p = spans[p][PARENT]
    return False


# Per-layer metrics: name -> unit.  Every traced run emits all of them.
PER_LAYER_UNITS = {
    **{f"{name}.{field}": unit for name, _, _ in TARGETS for field, unit in (("calls", "count"), ("self_s", "s"))},
    "ff_linalg.rank.cells": "count",
    "ff_linalg.rank_per_check": "ratio",
    "verifier.checks": "count",
    "scheme_model.delivery_per_collection": "ratio",
    "entropy_oracle.collections": "count",
    "entropy_oracle.inputs_enumerated": "count",
    "entropy_oracle.inputs_per_s": "1/s",
    "cli.load_scheme.bytes": "B",
    "cli.write_scheme.bytes": "B",
    "cli.malformed_exit2": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios over one traced pass."""
    selfs = _self_times(spans)
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER_UNITS.items()}
    rank_in_verify = deliveries_in_oracle = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        if name.startswith("op."):
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        if name == "ff_linalg.rank":
            out["ff_linalg.rank.cells"] += rec[ATTR]
            rank_in_verify += under(spans, i, "verifier.verify_all")
        elif name == "verifier.verify_all":
            out["verifier.checks"] += rec[ATTR]
        elif name == "scheme_model.delivery_matrix":
            deliveries_in_oracle += under(spans, i, "entropy_oracle.check_rank_agreement")
        elif name == "entropy_oracle.stacked_matrix" and under(spans, i, "entropy_oracle.check_rank_agreement"):
            out["entropy_oracle.collections"] += 1
            out["entropy_oracle.inputs_enumerated"] += rec[ATTR]
        elif name == "cli.load_scheme":
            out["cli.load_scheme.bytes"] += rec[ATTR]
        elif name == "cli.write_scheme":
            out["cli.write_scheme.bytes"] += rec[ATTR]
    if out["verifier.checks"]:
        out["ff_linalg.rank_per_check"] = rank_in_verify / out["verifier.checks"]
    if out["entropy_oracle.collections"]:
        out["scheme_model.delivery_per_collection"] = deliveries_in_oracle / out["entropy_oracle.collections"]
    enum_s = out["entropy_oracle.check_rank_agreement.self_s"]
    if enum_s > 0:
        out["entropy_oracle.inputs_per_s"] = out["entropy_oracle.inputs_enumerated"] / enum_s
    out["trace.spans"] = len(spans)
    return out
