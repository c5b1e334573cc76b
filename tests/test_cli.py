"""CLI tests, run in-process through main() except one subprocess smoke test."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from securecache import cli
from securecache.cli import load_scheme, main, scheme_to_document, write_scheme
from securecache.constructions import FAMILIES, build_scheme
from securecache.scheme_model import DEMAND_CAP, DemandVector, LinearScheme, demands_iter, memory_of, randomness_of
from securecache.verifier import check_lemma3_lemma4


def _construct(tmp_path, label, N, K, t=None, name="scheme.json"):
    out = tmp_path / name
    argv = ["construct", "--scheme", label, "--N", str(N), "--K", str(K)]
    if t is not None:
        argv += ["--t", str(t)]
    argv += ["--out", str(out)]
    assert main(argv) == 0
    return out


def test_construct_summary_line(tmp_path, capsys):
    out = _construct(tmp_path, "theorem3", 3, 3, t=1)
    line = capsys.readouterr().out
    assert "theorem3 N=3 K=3 t=1: q=3 B=2 M=2 R=3/2 L=2" in line
    assert str(out) in line
    assert json.loads(out.read_text())["format_version"] == 1


def test_construct_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["construct", "--scheme", "theorem1", "--N", "3", "--K", "3", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["construct", "--scheme", "theorem3", "--N", "2", "--K", "4", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_document_round_trip_explicit(tmp_path):
    s = build_scheme("theorem2", 3, 3)
    path = tmp_path / "t2.json"
    write_scheme(s, path)
    doc = json.loads(path.read_text())
    assert doc["delivery"]["mode"] == "explicit"
    assert len(doc["delivery"]["entries"]) == 27
    back = load_scheme(path)
    assert back.cache == s.cache
    assert back.q == s.q
    assert randomness_of(back) == randomness_of(s)
    for d in [(1, 1, 1), (3, 2, 1), (2, 3, 3)]:
        dv = DemandVector(d)
        assert back.delivery_matrix(dv) == s.delivery_matrix(dv)


def test_document_round_trip_generated(tmp_path):
    # 4**5 demands is past the explicit-table limit.
    s = build_scheme("otp", 4, 5)
    path = tmp_path / "otp.json"
    write_scheme(s, path)
    assert json.loads(path.read_text())["delivery"]["mode"] == "generated"
    back = load_scheme(path)
    dv = DemandVector((1, 2, 3, 4, 1))
    assert back.delivery_matrix(dv) == s.delivery_matrix(dv)
    assert memory_of(back) == 1


@pytest.mark.parametrize(
    ("label", "N", "K", "t", "mode", "line"),
    [
        ("theorem3", 3, 3, 1, "explicit", "q=3 B=2 M=2 R=3/2 L=2"),
        ("otp", 2, 9, None, "generated", "q=2 B=1 M=1 R=9 L=9"),
    ],
)
def test_construct_builds_each_delivery_matrix_once(tmp_path, capsys, monkeypatch, label, N, K, t, mode, line):
    calls = []
    built = LinearScheme.delivery_matrix
    monkeypatch.setattr(LinearScheme, "delivery_matrix", lambda s, d: calls.append(d) or built(s, d))
    out = _construct(tmp_path, label, N, K, t)
    assert json.loads(out.read_text())["delivery"]["mode"] == mode
    # A generated document holds no broadcast, so none is built.
    assert len(calls) == (N**K if mode == "explicit" else 0)
    assert f": {line} -> " in capsys.readouterr().out


def test_generated_document_marks_its_rate_declared():
    # theorem3 (2, 9, 2) declares R = 9/3; explicit documents carry no mark.
    meta = scheme_to_document(build_scheme("theorem3", 2, 9, 2))["metadata"]
    assert meta["R"] == [3, 1] and meta["R_source"] == "declared"
    assert "R_source" not in scheme_to_document(build_scheme("otp", 2, 3))["metadata"]


def test_document_rejects_unknown_version(tmp_path, capsys):
    path = _construct(tmp_path, "otp", 2, 2)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_scheme(path)
    assert main(["verify", "--scheme", str(path)]) == 2
    assert "cannot load scheme" in capsys.readouterr().err


def _set_entry(doc, value):
    doc["cache"][0][0][0] = value


def _as_bool(row, value):
    # The same number, written as a JSON true or false.
    row[row.index(value)] = bool(value)


def _drop_demand(doc):
    doc["delivery"]["entries"].pop(5)


def _widen_every_row(doc):
    # The rows stay even, so only the width check can catch it.
    for m in doc["cache"] + [e["rows"] for e in doc["delivery"]["entries"]]:
        for row in m:
            row.append(0)


def _no_users(doc):
    # K = 0 and no explicit table: the document holds no matrix and no row.
    doc.update(K=0, cache=[], delivery={"mode": "generated"})
    doc["params"].update(K=0)


def _empty_every_row(doc):
    for m in doc["cache"] + [e["rows"] for e in doc["delivery"]["entries"]]:
        m[:] = [[] for _ in m]


def _first_broadcast(doc):
    # Explicit tables list demands in order, so this is demand [1, 1, 1].
    return doc["delivery"]["entries"][0]


# Each edit turns the explicit theorem3 (3, 3, 1) document into a malformed one.
MALFORMED = {
    "q is a string": lambda doc: doc.update(q="3"),
    "cache is null": lambda doc: doc.update(cache=None),
    "cache entry 1.5": lambda doc: _set_entry(doc, 1.5),
    "cache entry past int64": lambda doc: _set_entry(doc, 2**64),
    "t is 1.7": lambda doc: doc["params"].update(t=1.7),
    "t is true": lambda doc: doc["params"].update(t=True),
    "cache entry 1 as true": lambda doc: _as_bool(doc["cache"][0][0], 1),
    "broadcast entry 0 as false": lambda doc: _as_bool(doc["delivery"]["entries"][0]["rows"][0], 0),
    # [true, 1, 1] would hash equal to the demand (1, 1, 1) it replaces.
    "demand entry 1 as true": lambda doc: _as_bool(doc["delivery"]["entries"][0]["demand"], 1),
    "unknown label": lambda doc: doc.update(label="nope"),
    "q disagrees with the member": lambda doc: doc.update(q=5),
    "N disagrees with the member": lambda doc: doc.update(N=4),
    "K disagrees with the member": lambda doc: doc.update(K=4),
    # theorem3's members() lists K - 2 members, so K must not reach it.
    "K is 2**64": lambda doc: doc.update(K=2**64),
    "format_version is true": lambda doc: doc.update(format_version=True),
    "t is 2": lambda doc: doc["params"].update(t=2),
    "B disagrees with the member": lambda doc: doc.update(B=3),
    "key_names disagree with the member": lambda doc: doc["key_names"].reverse(),
    "explicit table misses a demand": _drop_demand,
    "cache row one entry short": lambda doc: doc["cache"][0][0].pop(),
    "every row one entry too wide": _widen_every_row,
    "ragged broadcast row": lambda doc: _first_broadcast(doc)["rows"][0].append(0),
    "empty broadcast": lambda doc: _first_broadcast(doc).update(rows=[]),
    "flat cache": lambda doc: doc["cache"].__setitem__(0, doc["cache"][0][0]),
    "cache entry equal to q": lambda doc: _set_entry(doc, doc["q"]),
    "cache entry -1": lambda doc: _set_entry(doc, -1),
    "no users": _no_users,
    "every row empty": _empty_every_row,
}

# What the message names for some cases; the layout of theorem3 (3, 3, 1) is 12 wide.
MALFORMED_MESSAGES = {
    "cache row one entry short": "cache of user 1 must be a non-empty list of rows of 12 entries each; row 1 has 11 entries",
    "every row one entry too wide": "cache of user 1 must be a non-empty list of rows of 12 entries each; row 1 has 13 entries",
    "ragged broadcast row": "broadcast for demand [1, 1, 1] must be a non-empty list of rows of 12 entries each; row 1 has 13 entries",
    "empty broadcast": "broadcast for demand [1, 1, 1] must be a non-empty list of rows of 12 entries each; got no rows",
    "flat cache": "cache of user 1 must be a non-empty list of rows of 12 entries each; row 1 is 1, not a list",
    "cache entry equal to q": "cache of user 1 has an entry outside [0, 3)",
    "cache entry -1": "cache of user 1 has an entry outside [0, 3)",
    "cache entry 1.5": "cache of user 1 has an entry that is not an integer within int64",
    "cache entry 1 as true": "cache of user 1 has a JSON true or false as an entry",
    "broadcast entry 0 as false": "broadcast for demand [1, 1, 1] has a JSON true or false as an entry",
    "no users": "theorem3 has no member {'N': 3, 'K': 0, 't': 1}; its members at this N, K: []",
    "every row empty": "cache of user 1 has rows of 0 entries, fewer than N=3 files",
    "t is 2": "theorem3 has no member {'N': 3, 'K': 3, 't': 2}; its members at this N, K: [{'N': 3, 'K': 3, 't': 1}]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_rejects_malformed_document(tmp_path, capsys, case):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    constructed = _sidecar(path).read_bytes()
    doc = json.loads(path.read_text())
    assert doc["delivery"]["mode"] == "explicit"
    MALFORMED[case](doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--scheme", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load scheme: ")
    assert MALFORMED_MESSAGES.get(case, "") in captured.err
    assert captured.out == ""
    # A document that fails to load writes no sidecar: construct's is left as it was.
    assert sorted(tmp_path.iterdir()) == [path, _sidecar(path)]
    assert _sidecar(path).read_bytes() == constructed


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"a":' * 50_000 + "1" + "}" * 50_000],
    ids=["arrays", "objects"],
)
def test_verify_refuses_a_deeply_nested_document(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["verify", "--scheme", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load scheme: maximum recursion depth exceeded")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


_DELETE = object()  # a mutation that deletes the key or list item
# The document's matrices as JSON lists, its keys in their own order.
_T331 = json.loads(json.dumps(scheme_to_document(build_scheme("theorem3", 3, 3, 1)), default=np.ndarray.tolist))


def _subtree_paths(node, path=()):
    """The path of every subtree of a decoded JSON document but the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _subtree_paths(child, path + (key,))


# Drawing the depth first keeps the many matrix entries from crowding out
# the top-level fields.
_T331_PATHS: dict[int, list[tuple]] = {}
for _path in _subtree_paths(_T331):
    _T331_PATHS.setdefault(len(_path), []).append(_path)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_verify_never_raises_on_a_mutated_document(data):
    depth = data.draw(st.sampled_from(sorted(_T331_PATHS)), label="depth")
    *parents, last = data.draw(st.sampled_from(_T331_PATHS[depth]), label="path")
    value = data.draw(st.sampled_from([None, "x", 1.5, True, False, [[1]], 2**64, 0, -1, _DELETE]))
    doc = copy.deepcopy(_T331)
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(["verify", "--scheme", str(path)])
    assert rc in (0, 1, 2), out.getvalue()


def test_load_refuses_a_document_smaller_than_its_N_or_K(tmp_path, monkeypatch, capsys):
    # N, K and params agree on a member of 10**6 users or files, but the
    # document holds 3 caches with rows of 12 entries; the family is never
    # asked to list or build that member.
    def refuse(*args, **kwargs):
        raise AssertionError("the loader listed or built a member past the document's size")

    family = dataclasses.replace(FAMILIES["theorem3"], members=refuse, rule=refuse)
    monkeypatch.setitem(FAMILIES, "theorem3", family)
    for key, message in (
        ("K", "cache must be a list of 1000000 matrices, one per user"),
        ("N", "cache of user 1 has rows of 12 entries, fewer than N=1000000 files"),
    ):
        doc = copy.deepcopy(_T331)
        doc[key] = doc["params"][key] = 10**6
        path = tmp_path / f"big_{key}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--scheme", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot load scheme: {message}\n"
        assert captured.out == ""


def test_load_refuses_a_theorem3_member_wider_than_the_documents_rows(tmp_path, monkeypatch, capsys):
    # 40 caches name theorem3 (2, 40, 20), whose B = C(39, 20) is about
    # 6.9e10 units per file, but every row has 12 entries: the loader must
    # refuse before it builds the member.
    def refuse(**params):
        raise AssertionError("the loader built a member wider than the document's rows")

    monkeypatch.setitem(FAMILIES, "theorem3", dataclasses.replace(FAMILIES["theorem3"], rule=refuse))
    doc = copy.deepcopy(_T331)
    params = {"N": 2, "K": 40, "t": 20}
    doc.update(N=2, K=40, params=params, cache=[doc["cache"][0]] * 40)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--scheme", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cannot load scheme: the caches' first rows hold at most 12 entries, "
        f"fewer than the N*B={2 * comb(39, 20)} file columns of theorem3 {params}\n"
    )
    assert captured.out == ""


def test_verify_clean_scheme(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    report = tmp_path / "report.json"
    rc = main(["verify", "--scheme", str(path), "--report", str(report)])
    assert rc == 0
    assert "PASS theorem3: 27 demands, 81 (demand, user) checks, 0 failures" in capsys.readouterr().out
    blob = json.loads(report.read_text())
    assert blob["passed"] is True and blob["failures"] == []


def test_verify_flags_tampered_cache(tmp_path, capsys):
    path = _construct(tmp_path, "otp", 2, 2)
    doc = json.loads(path.read_text())
    # User 1 now caches file 2 in plaintext.
    doc["cache"][0] = [[0, 1, 0, 0]]
    path.write_text(json.dumps(doc))
    rc = main(["verify", "--scheme", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "demand [1, 1] user 1: security rank identity failed" in out


def test_verify_flags_tampered_broadcast(tmp_path, capsys):
    path = _construct(tmp_path, "otp", 2, 2)
    doc = json.loads(path.read_text())
    for entry in doc["delivery"]["entries"]:
        if entry["demand"] == [2, 1]:
            entry["rows"][0] = [0, 0, 0, 0]
    path.write_text(json.dumps(doc))
    rc = main(["verify", "--scheme", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "demand [2, 1] user 1: correctness rank identity failed" in out


def test_verify_flags_a_tampered_uniform_broadcast(tmp_path, capsys):
    # The builders' uniform rule never stands in for a document's table:
    # zeroing a row of a uniform broadcast fails exactly that demand's K checks.
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["delivery"]["entries"] if e["demand"] == [2, 2, 2])
    entry["rows"][0] = [0] * len(entry["rows"][0])
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["verify", "--scheme", str(path), "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL theorem3: 27 demands, 81 (demand, user) checks, 3 failures\n")
    failures = json.loads(report.read_text())["failures"]
    assert [(f["demand"], f["user"], f["correct"]) for f in failures] == [([2, 2, 2], k, False) for k in (1, 2, 3)]


def test_load_reads_a_crlf_copy_like_the_original(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    results = []
    for p in (path, crlf):
        report = tmp_path / f"{p.stem}.report.json"
        rc = main(["verify", "--scheme", str(p), "--report", str(report)])
        results.append((rc, capsys.readouterr(), report.read_bytes()))
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_load_refuses_a_utf16_copy(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(path.read_text().encode("utf-16"))
    capsys.readouterr()
    assert main(["verify", "--scheme", str(utf16)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load scheme: 'utf-8' codec can't decode")
    assert captured.out == ""


def _sidecar(path):
    return path.with_name(path.name + ".securecache")


def _verify_run(path, capsys):
    """verify --report on path: exit code, stdout, stderr and report bytes."""
    report = path.with_name("report.json")
    capsys.readouterr()
    rc = main(["verify", "--scheme", str(path), "--report", str(report)])
    return rc, capsys.readouterr(), report.read_bytes()


def _assert_same_scheme(a, b):
    assert a.cache == b.cache
    for d in demands_iter(a.N, a.K):
        assert a.delivery_matrix(d) == b.delivery_matrix(d)


def _refuse_lists(*args):
    raise AssertionError("a document was converted from JSON lists although its sidecar holds its rows")


@pytest.mark.parametrize(
    ("label", "N", "K", "t"),
    [("otp", 2, 3, None), ("theorem1", 2, 4, None), ("theorem2", 3, 3, None), ("theorem3", 3, 3, 1), ("otp", 2, 9, None)],
)
def test_a_sidecar_load_equals_a_parse(tmp_path, capsys, monkeypatch, label, N, K, t):
    path = _construct(tmp_path, label, N, K, t)
    parsed = load_scheme(path)
    assert _sidecar(path).exists()
    _sidecar(path).unlink()
    parsed_run = _verify_run(path, capsys)
    assert parsed_run[0] == 0
    monkeypatch.setattr(cli, "_read_matrices", _refuse_lists)
    _assert_same_scheme(load_scheme(path), parsed)
    assert _verify_run(path, capsys) == parsed_run


@pytest.mark.parametrize(("label", "N", "K", "t"), [("theorem3", 3, 3, 1), ("otp", 2, 9, None)])
def test_a_miss_and_a_hit_hand_the_checker_one_form(tmp_path, monkeypatch, label, N, K, t):
    path = _construct(tmp_path, label, N, K, t)
    _sidecar(path).unlink()
    checked, read = [], []
    check, read_matrices = cli.document_to_scheme, cli._read_matrices
    monkeypatch.setattr(cli, "document_to_scheme", lambda *a: checked.append(a) or check(*a))
    monkeypatch.setattr(cli, "_read_matrices", lambda *a: read.append(1) or read_matrices(*a))
    parsed = load_scheme(path)  # a miss, which writes the sidecar
    _assert_same_scheme(load_scheme(path), parsed)  # a hit
    assert read == [1]
    (miss_head, miss_rows), (hit_head, hit_rows) = checked
    assert miss_head == hit_head
    assert np.array_equal(miss_rows, hit_rows)


def test_a_stale_sidecar_is_never_used(tmp_path, capsys):
    # The zeroed row keeps the document's size and its modification time:
    # only its bytes tell the two apart.
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    assert main(["verify", "--scheme", str(path)]) == 0
    before, stat = path.read_bytes(), path.stat()
    doc = json.loads(before)
    entry = next(e for e in doc["delivery"]["entries"] if e["demand"] == [1, 1, 1])
    entry["rows"][0] = [0] * len(entry["rows"][0])
    cli._write_json(doc, path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == len(before) and path.stat().st_mtime_ns == stat.st_mtime_ns
    rc, captured, report = _verify_run(path, capsys)
    assert rc == 1
    assert captured.out.startswith("FAIL theorem3: 27 demands, 81 (demand, user) checks, 3 failures\n")
    failures = json.loads(report)["failures"]
    assert [(f["demand"], f["user"], f["correct"]) for f in failures] == [([1, 1, 1], k, False) for k in (1, 2, 3)]


# Each edit spoils the sidecar of the theorem3 (3, 3, 1) document, whose q is 3.
BAD_SIDECARS = {
    "wrong key": lambda data, key: data.replace(key.encode(), b"0" * len(key)),
    "truncated body": lambda data, key: data[: len(data) - 12],
    "entry equal to q": lambda data, key: data[:-8] + (3).to_bytes(8, "little"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
def test_a_bad_sidecar_is_ignored_and_rewritten(tmp_path, case):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    parsed = load_scheme(path)
    good = _sidecar(path).read_bytes()
    bad = BAD_SIDECARS[case](good, hashlib.sha256(path.read_bytes()).hexdigest())
    assert bad != good
    _sidecar(path).write_bytes(bad)
    _assert_same_scheme(load_scheme(path), parsed)
    assert _sidecar(path).read_bytes() == good


def test_another_users_sidecar_is_not_trusted(tmp_path, capsys, monkeypatch):
    # A sidecar keyed to a tampered document's bytes but holding the
    # untampered rows would make verify pass; owned by another user, it is ignored.
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    load_scheme(path)
    good, old_key = _sidecar(path).read_bytes(), hashlib.sha256(path.read_bytes()).hexdigest()
    doc = json.loads(path.read_bytes())
    entry = next(e for e in doc["delivery"]["entries"] if e["demand"] == [1, 1, 1])
    entry["rows"][0] = [0] * len(entry["rows"][0])
    cli._write_json(doc, path)
    new_key = hashlib.sha256(path.read_bytes()).hexdigest()
    _sidecar(path).write_bytes(good.replace(old_key.encode(), new_key.encode()))
    monkeypatch.setattr(cli.os, "geteuid", lambda: os.getuid() + 1)
    rc, captured, _ = _verify_run(path, capsys)
    assert rc == 1
    assert captured.out.startswith("FAIL theorem3: 8 demands, 24 (demand, user) checks, 3 failures\n")


def test_a_symlinked_sidecar_is_not_followed(tmp_path, monkeypatch):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    parsed = load_scheme(path)
    target = tmp_path / "elsewhere"
    _sidecar(path).rename(target)
    good = target.read_bytes()
    _sidecar(path).symlink_to(target)
    calls = []
    read_matrices = cli._read_matrices
    monkeypatch.setattr(cli, "_read_matrices", lambda *a: calls.append(1) or read_matrices(*a))
    _assert_same_scheme(load_scheme(path), parsed)
    assert calls == [1]
    # The link is replaced by a sidecar of its own; its target is untouched.
    assert not _sidecar(path).is_symlink() and _sidecar(path).read_bytes() == good == target.read_bytes()


def _no_space(*args):
    raise OSError(28, "No space left on device")


def _too_deep(*args, **kwargs):
    # What json.dumps raises on a head nested about as deeply as json.loads
    # allows, since the writer runs a few frames deeper than the parser.
    raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")


@pytest.mark.parametrize(
    ("where", "failure"), [("os.replace", _no_space), ("json.dumps", _too_deep), ("shutil.copymode", _no_space)]
)
def test_a_sidecar_that_cannot_be_written_is_skipped(tmp_path, capsys, monkeypatch, where, failure):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    _sidecar(path).unlink()  # so that the load below writes one
    module, name = where.split(".")
    monkeypatch.setattr(getattr(cli, module), name, failure)
    capsys.readouterr()
    assert main(["verify", "--scheme", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS theorem3: 27 demands, 81 (demand, user) checks, 0 failures\n"
    assert captured.err == ""
    # Neither the sidecar nor its temporary file is left behind.
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
def test_a_sidecar_takes_the_documents_mode(tmp_path, mode):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    path.chmod(mode)
    load_scheme(path)
    assert _sidecar(path).stat().st_mode & 0o777 == mode


def test_a_sidecar_follows_a_chmod_of_its_document(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    path.chmod(0o644)
    assert main(["verify", "--scheme", str(path)]) == 0
    assert _sidecar(path).stat().st_mode & 0o777 == 0o644
    path.chmod(0o600)
    assert main(["verify", "--scheme", str(path)]) == 0
    assert _sidecar(path).stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize(("label", "N", "K", "t"), [("theorem3", 3, 3, 1), ("otp", 2, 9, None)])
def test_construct_writes_the_sidecar_a_first_load_writes(tmp_path, monkeypatch, label, N, K, t):
    path = _construct(tmp_path, label, N, K, t)
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    parsed = load_scheme(copy)
    assert _sidecar(copy).read_bytes() == _sidecar(path).read_bytes()
    # The first load of what construct wrote parses no JSON lists.
    monkeypatch.setattr(cli, "_read_matrices", _refuse_lists)
    _assert_same_scheme(load_scheme(path), parsed)


def test_a_sidecar_hit_never_reads_the_whole_document(tmp_path, monkeypatch):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)

    def refuse(self):
        raise AssertionError(f"read all of {self} on a sidecar hit")

    monkeypatch.setattr(Path, "read_bytes", refuse)
    monkeypatch.setattr(cli, "_read_matrices", _refuse_lists)
    assert load_scheme(path).K == 3


def test_a_document_read_from_a_fifo_loads_without_a_sidecar(tmp_path):
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        _assert_same_scheme(load_scheme(fifo), load_scheme(path))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert not _sidecar(fifo).exists()


def test_writing_and_a_sidecar_hit_hold_less_than_the_document(tmp_path, monkeypatch):
    # theorem3 (2, 7, 2) is a 5,434,606-byte document whose sidecar holds
    # 2.85 MB of rows: neither its text nor its matrices as lists are held.
    s = build_scheme("theorem3", 2, 7, 2)
    path = tmp_path / "t272.json"
    monkeypatch.setattr(cli, "_read_matrices", _refuse_lists)
    peaks = []
    tracemalloc.start()
    try:
        for step in (lambda: write_scheme(s, path), lambda: load_scheme(path)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kept = step()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del kept
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert max(peaks) < size, peaks


def test_verify_missing_file(tmp_path, capsys):
    rc = main(["verify", "--scheme", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot load scheme" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scheme", "{scheme}", "--report", "{out}"],
        ["construct", "--scheme", "otp", "--N", "2", "--K", "2", "--out", "{out}"],
        ["tradeoff", "--N", "2", "--K", "3", "--out", "{out}"],
    ],
    ids=["verify-report", "construct-out", "tradeoff-out"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    scheme = _construct(tmp_path, "otp", 2, 2)
    capsys.readouterr()
    out = tmp_path / "missing-dir" / "out.json"
    rc = main([a.format(scheme=scheme, out=out) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: " in err
    assert "Traceback" not in err


def test_verify_sample_policy(tmp_path, capsys):
    path = _construct(tmp_path, "theorem2", 4, 4)
    rc = main(["verify", "--scheme", str(path), "--demands", "sample"])
    assert rc == 2
    assert "count and seed" in capsys.readouterr().err
    rc = main([
        "verify", "--scheme", str(path),
        "--demands", "sample", "--count", "10", "--seed", "3",
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--demands", "sample", "--count", "0", "--seed", "0"], "got 0"),
        (["--demands", "sample", "--count", "-1", "--seed", "0"], "got -1"),
        (["--demands", "sample", "--count", "-5", "--seed", "0"], "got -5"),
        (["--count", "3", "--seed", "1"], "only to policy='sample'"),
        (["--seed", "1"], "only to policy='sample'"),
    ],
)
def test_verify_refuses_sample_misuse(tmp_path, capsys, extra, message):
    path = _construct(tmp_path, "otp", 2, 3)
    capsys.readouterr()
    rc = main(["verify", "--scheme", str(path), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_verify_refuses_a_sample_count_past_the_cap(tmp_path, capsys):
    # otp (2, 40) has 2**40 demands, so the sampler would draw every one
    # of the DEMAND_CAP + 1 requested indices.
    path = _construct(tmp_path, "otp", 2, 40)
    capsys.readouterr()
    count = DEMAND_CAP + 1
    rc = main(["verify", "--scheme", str(path), "--demands", "sample", "--count", str(count), "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: sample count {count} exceeds cap {DEMAND_CAP}\n"
    assert captured.out == ""


def test_verify_samples_a_member_past_int32_demand_indices(tmp_path, capsys):
    path = _construct(tmp_path, "otp", 2, 40)
    capsys.readouterr()
    rc = main(["verify", "--scheme", str(path), "--demands", "sample", "--count", "10", "--seed", "0",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert capsys.readouterr().out == "PASS otp: 10 demands, 400 (demand, user) checks, 0 failures\n"
    records = json.loads((tmp_path / "r.json").read_text())["records"]
    assert records[-1]["demand"] == [2] * 40


# The documents the refusals below read, by file name.
REFUSAL_DOCUMENTS = {
    "t3.json": ("theorem3", 2, 3, 1),
    "t331.json": ("theorem3", 3, 3, 1),
    "t241.json": ("theorem3", 2, 4, 1),
    "otp.json": ("otp", 2, 2, None),
    "otp33.json": ("otp", 3, 3, None),
}

# Every way a command refuses: argv, then its one stderr line less the
# "error: " prefix.  {dir} is the directory that holds REFUSAL_DOCUMENTS,
# and v99.json, a copy of otp.json of format_version 99.
REFUSALS = {
    "construct theorem1 off its members": (
        "construct --scheme theorem1 --N 3 --K 3 --out {dir}/x.json",
        "theorem1 has no member {{'N': 3, 'K': 3}}; its members at this N, K: []",
    ),
    "construct theorem3 without t": (
        "construct --scheme theorem3 --N 2 --K 4 --out {dir}/x.json",
        "theorem3 has no member {{'N': 2, 'K': 4}}; its members at this N, K: "
        "[{{'N': 2, 'K': 4, 't': 1}}, {{'N': 2, 'K': 4, 't': 2}}]",
    ),
    "construct theorem3 (2, 22, 11), over the cache size limit": (
        "construct --scheme theorem3 --N 2 --K 22 --t 11 --out {dir}/x.json",
        "theorem3 {{'N': 2, 'K': 22, 't': 11}} would cache up to 62950680296504 entries, "
        "over the limit of 100000000",
    ),
    "construct theorem3 (2, 40, 20), over the cache size limit": (
        "construct --scheme theorem3 --N 2 --K 40 --t 20 --out {dir}/x.json",
        "theorem3 {{'N': 2, 'K': 40, 't': 20}} would cache up to 4451818776073593766670400 entries, "
        "over the limit of 100000000",
    ),
    "construct theorem3 past the user bound": (
        "construct --scheme theorem3 --N 2 --K 100000000 --t 1 --out {dir}/x.json",
        "K=100000000 users: every member caches at least K*K = 10000000000000000 entries, "
        "over the limit of 100000000",
    ),
    "construct into a missing directory": (
        "construct --scheme otp --N 2 --K 2 --out {dir}/missing-dir/o.json",
        "cannot write {dir}/missing-dir/o.json: No such file or directory",
    ),
    "verify an unknown format_version": (
        "verify --scheme {dir}/v99.json",
        "cannot load scheme: unsupported format_version 99, expected 1",
    ),
    "verify a report into a missing directory": (
        "verify --scheme {dir}/t3.json --report {dir}/missing-dir/r.json",
        "cannot write {dir}/missing-dir/r.json: No such file or directory",
    ),
    "verify a sample of 0": (
        "verify --scheme {dir}/t3.json --demands sample --count 0 --seed 1",
        "sample count must be at least 1, got 0",
    ),
    "verify a sample without count and seed": (
        "verify --scheme {dir}/t3.json --demands sample",
        "policy='sample' needs count and seed",
    ),
    "oracle entropy,bogus": (
        "oracle --scheme {dir}/otp.json --checks entropy,bogus",
        "unknown checks ['bogus']",
    ),
    "oracle no checks": ("oracle --scheme {dir}/otp.json --checks ,", "unknown checks []"),
    "oracle sharing on otp": (
        "oracle --scheme {dir}/otp33.json --checks sharing",
        "scheme carries no share system",
    ),
    "oracle lemmas on theorem3": (
        "oracle --scheme {dir}/t331.json --checks lemmas",
        "lemma checks apply to unit cache size or unit rate schemes only",
    ),
    "oracle entropy past the cap": (
        "oracle --scheme {dir}/t241.json --checks entropy",
        "brute-force enumeration needs 5**14 = 6103515625 input vectors, over the cap of 10000000",
    ),
    "simulate demand x": (
        "simulate --scheme {dir}/t3.json --demand x",
        "invalid literal for int() with base 10: 'x'",
    ),
    "simulate demand 0,1,1": (
        "simulate --scheme {dir}/t3.json --demand 0,1,1",
        "demands are 1-indexed positive ints, got 0",
    ),
    "simulate demand 1,3,1": (
        "simulate --scheme {dir}/t3.json --demand 1,3,1",
        "demand 3 out of range [1, 2]",
    ),
    "simulate demand 1,2": (
        "simulate --scheme {dir}/t3.json --demand 1,2",
        "demand has 2 entries for 3 users",
    ),
    "simulate seed -5": (
        "simulate --scheme {dir}/t3.json --demand 1,2,1 --seed -5",
        "seed must be a non-negative integer, got -5",
    ),
    "tradeoff N 1": (
        "tradeoff --N 1 --K 3 --out {dir}/c.csv",
        "need N >= 2 and K >= 2, got N=1, K=3",
    ),
    "tradeoff grid 1": (
        "tradeoff --N 2 --K 4 --grid 1 --out {dir}/c.csv",
        "need at least 2 grid samples, got 1",
    ),
    "tradeoff past the user bound": (
        "tradeoff --N 2 --K 10001 --out {dir}/c.csv",
        "K=10001 users: every member caches at least K*K = 100020001 entries, over the limit of 100000000",
    ),
    "tradeoff grid past the cap": (
        "tradeoff --N 2 --K 4 --grid 100001 --out {dir}/c.csv",
        "need at most 100000 grid samples, got 100001",
    ),
    "tradeoff into a missing directory": (
        "tradeoff --N 2 --K 3 --out {dir}/missing-dir/c.csv",
        "cannot write {dir}/missing-dir/c.csv: No such file or directory",
    ),
}


@pytest.fixture(scope="module")
def refusal_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("refusals")
    for name, (label, N, K, t) in REFUSAL_DOCUMENTS.items():
        write_scheme(build_scheme(label, N, K, t), d / name)
    doc = json.loads((d / "otp.json").read_text())
    (d / "v99.json").write_text(json.dumps({**doc, "format_version": 99}))
    return d


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_refusal_is_one_error_line_and_exit_2(refusal_dir, capsys, case):
    argv, message = REFUSALS[case]
    documents = {p for p in refusal_dir.iterdir() if p.suffix != ".securecache"}
    capsys.readouterr()
    rc = main([a.format(dir=refusal_dir) for a in argv.split()])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", f"error: {message.format(dir=refusal_dir)}\n")
    # A refused command writes no output file.
    assert {p for p in refusal_dir.iterdir() if p.suffix != ".securecache"} == documents


def test_oracle_entropy_and_sharing(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    capsys.readouterr()
    rc = main(["oracle", "--scheme", str(path), "--checks", "entropy,sharing"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "entropy agreement: PASS (collections of up to 2 of 2 files, 3 caches and 8 of 8 broadcasts)\n"
        "share threshold: PASS\n"
    )
    # Past 8 demands the CLI's 8 evenly spread ones are compared.
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    capsys.readouterr()
    assert main(["oracle", "--scheme", str(path), "--checks", "entropy"]) == 0
    assert capsys.readouterr().out == (
        "entropy agreement: PASS (collections of up to 2 of 3 files, 3 caches and 8 of 27 broadcasts)\n"
    )


@pytest.mark.parametrize("checks", ["sharing", "entropy,sharing"])
def test_oracle_sharing_builds_the_family_member_once(tmp_path, capsys, monkeypatch, checks):
    # The member document_to_scheme checks the document against is the
    # one the sharing line compares its caches with.
    path = _construct(tmp_path, "theorem3", 2, 3, t=1)
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    builds, parses = [], []
    build, read_matrices = cli.build_scheme, cli._read_matrices
    monkeypatch.setattr(cli, "build_scheme", lambda *a, **k: builds.append(a) or build(*a, **k))
    monkeypatch.setattr(cli, "_read_matrices", lambda *a: parses.append(1) or read_matrices(*a))
    # A sidecar hit, a parse of a copy without one, then a hit of the sidecar it wrote.
    for doc, parsed in ((path, 0), (copy, 1), (copy, 0)):
        builds.clear()
        parses.clear()
        assert main(["oracle", "--scheme", str(doc), "--checks", checks]) == 0
        assert capsys.readouterr().out.endswith("share threshold: PASS\n")
        assert (builds, len(parses)) == ([("theorem3",)], parsed)
        assert builds == [("theorem3",)]


def test_oracle_sharing_fails_a_document_whose_caches_are_not_the_rule_s(tmp_path, capsys):
    # The share generator is rebuilt from (K, t) and passes; the zeroed
    # caches hold none of its shares, and verify fails 56 of 64 checks.
    path = _construct(tmp_path, "theorem3", 2, 4, t=1)
    doc = json.loads(path.read_text())
    doc["cache"] = [[[0] * len(row) for row in matrix] for matrix in doc["cache"]]
    zeroed = tmp_path / "zeroed.json"
    zeroed.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["oracle", "--scheme", str(path), "--checks", "sharing"]) == 0
    assert capsys.readouterr().out == "share threshold: PASS\n"
    assert main(["oracle", "--scheme", str(zeroed), "--checks", "sharing"]) == 1
    assert capsys.readouterr().out == "share threshold: FAIL\n"
    assert main(["verify", "--scheme", str(zeroed)]) == 1
    assert capsys.readouterr().out.startswith("FAIL theorem3: 16 demands, 64 (demand, user) checks, 56 failures\n")


def test_oracle_lemmas_unit_cache_and_unit_rate(tmp_path, capsys):
    path = _construct(tmp_path, "theorem2", 2, 2)
    rc = main(["oracle", "--scheme", str(path), "--checks", "lemmas"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "unit-cache identities: PASS" in out
    assert "unit-rate identities: PASS" in out


def test_oracle_lemmas_build_each_broadcast_once(tmp_path, monkeypatch, capsys):
    # theorem2 (2, 3) has unit rate and M = 2; the unit-rate check reads
    # its precondition off the broadcasts it checks.
    path = _construct(tmp_path, "theorem2", 2, 3)
    calls = []
    build = LinearScheme.delivery_matrix

    def counted(self, d):
        calls.append(d.entries)
        return build(self, d)

    monkeypatch.setattr(LinearScheme, "delivery_matrix", counted)
    capsys.readouterr()
    assert main(["oracle", "--scheme", str(path), "--checks", "lemmas"]) == 0
    assert capsys.readouterr().out == "unit-rate identities: PASS\n"
    assert len(calls) == 2**3


def test_oracle_lemmas_past_the_demand_cap(tmp_path, capsys):
    # 2**21 and 2**20 demands are past the 10**6 cap.  The unit-rate
    # identities (theorem2) and the unit-cache ones (otp, M = 1) enumerate
    # every demand, so each check is refused before it starts.
    for label, N, K in (("theorem2", 2, 21), ("otp", 2, 20)):
        path = _construct(tmp_path, label, N, K, name=f"{label}.json")
        assert json.loads(path.read_text())["delivery"]["mode"] == "generated"
        capsys.readouterr()
        rc = main(["oracle", "--scheme", str(path), "--checks", "lemmas"])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{N}**{K} = {N**K} demands exceed cap" in captured.err
        assert captured.out == ""


def test_oracle_lemmas_past_the_choice_cap(tmp_path, capsys):
    # A theorem2 (4, 5) document whose caches hold every key and W_1 + W_n,
    # so each class adds nothing to a cache.  Under user 1's request 1
    # every broadcast is key 0; under each other request the 256 demands
    # send distinct nonzero sums of keys 1 to 9.  Their residuals against
    # class 1's basis are nonzero and distinct, so the third condition
    # would walk 256**3 choices of one per class.
    path = _construct(tmp_path, "theorem2", 4, 5)
    doc = json.loads(path.read_text())
    keys = len(doc["key_names"])
    cache = np.zeros((keys + 3, 4 + keys), dtype=np.int64)
    cache[np.arange(keys), 4 + np.arange(keys)] = 1
    cache[keys:, 0] = 1
    cache[keys + np.arange(3), 1 + np.arange(3)] = 1
    doc["cache"] = [cache.tolist()] * 5
    entries = []
    for d in itertools.product(range(1, 5), repeat=5):
        # 1 plus the demand's place among the 256 with user 1's request, in binary.
        place = 1 + int("".join(str(x - 1) for x in d[1:]), 4)
        bits = [1] + [0] * 9 if d[0] == 1 else [0] + [place >> i & 1 for i in range(9)]
        entries.append({"demand": list(d), "rows": [[0] * 4 + bits + [0] * (keys - 10)]})
    doc["delivery"] = {"mode": "explicit", "entries": entries}
    edited = tmp_path / "choices.json"
    edited.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="16777216 choices of one distinct residual per class exceed cap 1000000"):
        check_lemma3_lemma4(load_scheme(edited))
    capsys.readouterr()
    assert main(["oracle", "--scheme", str(edited), "--checks", "lemmas"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 16777216 choices of one distinct residual per class exceed cap 1000000\n"
    assert captured.out == ""


def test_simulate(tmp_path, capsys):
    path = _construct(tmp_path, "theorem1", 2, 4)
    rc = main(["simulate", "--scheme", str(path), "--demand", "1,2,2,1", "--seed", "11"])
    assert rc == 0
    assert "PASS demand [1, 2, 2, 1] seed 11: all 4 users decoded" in capsys.readouterr().out
    assert main(["simulate", "--scheme", str(path), "--demand", "1,2"]) == 2
    assert main(["simulate", "--scheme", str(path), "--demand", "1,5,1,1"]) == 2


def _zeroed_t331(tmp_path, zero):
    """The theorem3 (3, 3, 1) document with zero(doc) applied, written to tmp_path."""
    doc = copy.deepcopy(_T331)
    zero(doc)
    path = tmp_path / "zeroed.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_fails_every_user_of_an_undecodable_broadcast(tmp_path, capsys):
    def zero_row(doc):
        entry = next(e for e in doc["delivery"]["entries"] if e["demand"] == [1, 1, 1])
        entry["rows"][0] = [0] * len(entry["rows"][0])

    path = _zeroed_t331(tmp_path, zero_row)
    capsys.readouterr()
    assert main(["simulate", "--scheme", str(path), "--demand", "1,1,1", "--seed", "0"]) == 1
    assert capsys.readouterr().out == "FAIL demand [1, 1, 1] seed 0: users [1, 2, 3] failed\n"


def test_verify_lists_at_most_20_failures(tmp_path, capsys):
    def zero_cache(doc):
        doc["cache"][0] = [[0] * len(row) for row in doc["cache"][0]]

    path = _zeroed_t331(tmp_path, zero_cache)
    capsys.readouterr()
    assert main(["verify", "--scheme", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 22
    assert lines[0] == "FAIL theorem3: 27 demands, 81 (demand, user) checks, 24 failures"
    assert all(line.endswith(" rank identity failed") for line in lines[1:21])
    assert lines[-1] == "  ... and 4 more"


def test_tradeoff_outputs(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(["tradeoff", "--N", "2", "--K", "4", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "envelope vertices (1, 3), (4/3, 2), (3, 1)" in text
    csv = out.read_text()
    assert csv.splitlines()[0] == "M_num,M_den,M_float,R_ach_float,R_lb_float"
    vertices = json.loads((tmp_path / "curves.vertices.json").read_text())
    assert [p["M"] for p in vertices["envelope"]] == [[1, 1], [4, 3], [3, 1]]
    assert [p["M"] for p in vertices["dominated"]] == [[8, 3]]
    assert {c["kind"] for c in vertices["converse"]} >= {"rate_floor", "linear_segment"}


def test_tradeoff_prior_column_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["tradeoff", "--N", "4", "--K", "3", "--include-prior", "--out", str(a)]) == 0
    assert main(["tradeoff", "--N", "4", "--K", "3", "--include-prior", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".vertices.json").read_bytes() == b.with_suffix(".vertices.json").read_bytes()
    assert a.read_text().splitlines()[0] == "M_num,M_den,M_float,R_ach_float,R_prior_float,R_lb_float"


# ---------------------------------------------------------------------------
# The JSON writer: byte for byte json.dumps(indent=2, sort_keys=True) + "\n"
# ---------------------------------------------------------------------------


def _stdlib_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _written(value) -> bytes:
    """The bytes _write_json writes for value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "value.json"
        cli._write_json(value, path)
        return path.read_bytes()


_STRINGS = st.text(max_size=6) | st.sampled_from(["", '"', "\\", "\n\t", "\x00\x7f", "é€", "\U0001d11e", "\ud800"])
_LEAVES = (
    st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([0, 1, 1023, 1024, -1, 2**64, 2**64 + 1])
    | st.booleans()
    | st.none()
    | _STRINGS
    # Lists of ints take the writer's joined path, past the small-int table too.
    | st.lists(st.integers(min_value=-3, max_value=1030), max_size=6)
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=30,
)


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(value=_JSON_VALUES, x=st.floats(allow_nan=True))
def test_json_text_is_the_stdlib_indented_dump(value, x):
    assert _written(value) == _stdlib_text(value).encode()
    with pytest.raises(TypeError):
        _written({"value": value, "x": [0, x]})


@pytest.mark.parametrize("value", [{1: 0}, {"a": {None: 0}}, (1, 2), b"x"])
def test_json_text_refuses_non_str_keys_and_other_types(value):
    with pytest.raises(TypeError):
        _written(value)


@pytest.mark.parametrize(
    "label, N, K, t",
    [("otp", 2, 3, None), ("otp", 2, 16, None), ("theorem1", 2, 4, None), ("theorem2", 3, 3, None), ("theorem3", 3, 4, 2)],
)
def test_construct_writes_the_stdlib_indented_dump(tmp_path, label, N, K, t):
    text = _construct(tmp_path, label, N, K, t).read_text()
    assert json.loads(text)["delivery"]["mode"] == ("generated" if K == 16 else "explicit")
    assert text == _stdlib_text(json.loads(text))


def test_verify_report_is_the_stdlib_indented_dump(tmp_path, capsys):
    path = _construct(tmp_path, "theorem3", 3, 3, t=1)
    doc = json.loads(path.read_text())
    doc["cache"][0][0] = [0] * len(doc["cache"][0][0])
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["verify", "--scheme", str(path), "--report", str(report)]) == 1
    text = report.read_text()
    assert json.loads(text)["failures"]
    assert text == _stdlib_text(json.loads(text))


def test_tradeoff_vertices_are_the_stdlib_indented_dump(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["tradeoff", "--N", "3", "--K", "4", "--out", str(out)]) == 0
    text = out.with_suffix(".vertices.json").read_text()
    assert text == _stdlib_text(json.loads(text))


def test_scheme_document_metadata():
    doc = scheme_to_document(build_scheme("theorem3", 2, 4, 2))
    assert doc["metadata"]["M"] == [8, 3]
    assert doc["metadata"]["R"] == [4, 3]
    assert Fraction(*doc["metadata"]["L"]) == Fraction(7, 3)


def test_cli_import_loads_no_test_or_solver_module():
    # Importing these would cost every command's start-up time.
    code = "import json, sys, securecache.cli; print(json.dumps([m.split('.')[0] for m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "securecache" in loaded
    assert not loaded & {"scipy", "sympy", "hypothesis"}


def test_help_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "securecache.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for word in ["construct", "verify", "oracle", "simulate", "tradeoff"]:
        assert word in proc.stdout
