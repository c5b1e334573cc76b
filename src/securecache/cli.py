"""Command line interface: construct, verify, oracle, simulate, tradeoff.

Schemes travel as JSON documents carrying the field, layout, cache
matrices, and either an explicit demand-to-broadcast table (small
demand spaces) or a marker that the broadcast rule is re-derived from
the scheme label and parameters.  Exit codes: 0 all checks passed,
1 a mathematical check failed (verify, oracle, simulate), 2 usage or
input error.  main() alone returns 2: a command refuses what it cannot
do by raising ValueError (a document that cannot be loaded, an output
that cannot be written, an unknown check, a cap or a bad parameter),
and main() prints its message as one `error:` line on stderr.

A document has one checked form in memory: its head, the document with
each matrix replaced by its row count, and one int64 array of the rows
of all its matrices, its K caches then every explicit broadcast.  A
sidecar stores that pair.  _read_matrices, the one reader of JSON matrix
lists, makes it from a decoded document with one np.array call; numpy
reads a JSON true or false among integers as 1 or 0, so it scans the
entries for bools when the document text holds `true` or `false`.
document_to_scheme checks the pair, whatever its source, and cuts the
array into one FieldMatrix per matrix.  The argument parser is built
once per process.

Each document is parsed at most once per content.  Beside it, a sidecar
`<name>.securecache` holds one JSON header line (a layout tag, the
SHA-256 of the document's bytes, the array's shape and the head, keys
sorted), then the checked array of rows as little-endian int64.
construct writes it from the matrices' own arrays, after streaming the
document's text to the file and to SHA-256 in blocks.  A load hashes
the document in blocks read from the descriptor it opened; when the
sidecar holds that SHA-256, its head and rows go to the same checker as
a parse's, and no JSON list is read.  A sidecar that is missing,
unreadable, truncated, of another layout, key or permission bits than
the document, or failing a check is ignored: the document is read
again, parsed, and its sidecar replaced, keyed by the bytes parsed.
Only a write or load that succeeded writes one, through a temporary
file and os.replace, with the document's permission bits, and only
beside a regular file; a sidecar that cannot be written is skipped
silently.  Sidecars are safe to delete.  A sidecar is read only when it
is a regular file owned by the user running securecache, opened without
following a symlink; anything else is treated as missing.  Like
__pycache__, such a sidecar is trusted to hold what its key says.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import functools
import itertools
import json
import os
import shutil
import stat
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .constructions import FAMILIES, build_scheme, family_of
from .entropy_oracle import MAX_ENUM, check_rank_agreement, check_secret_sharing
from .ff_linalg import FieldMatrix
from .scheme_model import (
    DemandVector,
    LinearScheme,
    demands_iter,
    memory_of,
    randomness_of,
    rational_json,
)
from .verifier import PreconditionError, check_lemma1_lemma2, check_lemma3_lemma4, simulate, verify_all

FORMAT_VERSION = 1
SIDECAR_SUFFIX = ".securecache"
SIDECAR_LAYOUT = "securecache sidecar 1: a JSON header line, then the rows as little-endian int64"
EXPLICIT_DELIVERY_LIMIT = 256
# The size of the blocks in which JSON is written and documents are hashed.
_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

# The text of 0..1023: most entries of a scheme document are small.  A
# dict lookup is faster than int.__repr__, and a missing key raises.
_SMALL_INTS = {i: str(i) for i in range(1024)}


def _write_json(obj: object, path: Path, feed: Callable[[bytes], object] | None = None) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) + "\\n" to path, byte for byte.

    Every JSON file the CLI writes has this text.  json's indenting
    encoder runs in pure Python, one small string per list entry; here a
    list of plain ints, such as a matrix row, is written with one join.
    Only dicts with str keys, lists, iterators (written as the lists of
    what they yield), 2-D integer numpy arrays (written as their rows'
    lists), str, int, bool and None are written; any other type, float
    included, raises TypeError.  The text goes out in blocks of about
    _BLOCK bytes, each also passed to feed: a block is written once the
    text of the matrices and list entries since the last one reaches
    _BLOCK, so neither a document's whole text nor a report's is held.
    """
    out: list[str] = []
    counted = size = 0
    with path.open("wb") as f:

        def write() -> None:
            block = "".join(out).encode("ascii")
            out.clear()
            f.write(block)
            if feed is not None:
                feed(block)

        def spill() -> None:
            # Each piece of out is counted once, when the first spill after it comes.
            nonlocal counted, size
            size += sum(map(len, out[counted:]))
            counted = len(out)
            if size >= _BLOCK:
                write()
                counted = size = 0

        _json_chunks(obj, "\n", out, spill)
        out.append("\n")
        write()


def _json_chunks(o: object, nl: str, out: list[str], spill: Callable[[], None]) -> None:
    """Append o's JSON text to out; nl is the newline and indent of the line o starts on.

    spill is called after each matrix's and each list entry's text.
    """
    inner = nl + "  "
    if type(o) is np.ndarray and o.ndim == 2 and o.dtype.kind == "i":
        if o.size:
            # A document's matrix, in one piece: its rows are lists only while it is written.
            text = "[" + inner + ("," + inner).join([_ints_text(r, inner) for r in o.tolist()]) + nl + "]"
            out.append(text)
            spill()
            return
        o = o.tolist()
    # Bools are excluded here: they would look up as 0 and 1.
    if type(o) is list and o and set(map(type, o)) == {int}:
        out.append(_ints_text(o, nl))
    elif type(o) is dict and o:
        key_types = set(map(type, o))
        if key_types != {str}:
            raise TypeError(f"JSON object keys must be str, got {sorted(t.__name__ for t in key_types)}")
        sep = "{" + inner
        for k in sorted(o):
            out += (sep, encode_basestring_ascii(k), ": ")
            sep = "," + inner
            _json_chunks(o[k], inner, out, spill)
        out += (nl, "}")
    elif type(o) is dict:
        out.append("{}")
    elif type(o) is str:
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif type(o) is bool:
        out.append("true" if o else "false")
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif type(o) is list or isinstance(o, Iterator):
        # An iterator is written as the list of what it yields, made entry by entry.
        sep = "[" + inner
        for x in o:
            out.append(sep)
            sep = "," + inner
            _json_chunks(x, inner, out, spill)
            spill()
        out.append("[]" if sep[0] == "[" else nl + "]")
    else:
        raise TypeError(f"cannot write {type(o).__name__} {o!r:.40} as JSON")


def _ints_text(o: list[int], nl: str) -> str:
    """The JSON text of a non-empty list of plain ints; nl as in _json_chunks."""
    sep = "," + nl + "  "
    try:
        body = sep.join(map(_SMALL_INTS.__getitem__, o))
    except KeyError:
        body = sep.join(map(int.__repr__, o))
    return "[" + nl + "  " + body + nl + "]"


# ---------------------------------------------------------------------------
# Scheme documents
# ---------------------------------------------------------------------------


def scheme_to_document(s: LinearScheme) -> dict:
    """The document of a scheme, explicit broadcasts when small.

    Each matrix is the int64 array its FieldMatrix holds, not a copy,
    and _write_json writes it as a list of rows.  In explicit mode each
    broadcast is built once and the worst-case rate R is read off the
    table.  In generated mode no broadcast is built: R is the family's
    declared rate, and the metadata marks it with "R_source": "declared".
    """
    entries = None
    if s.N**s.K <= EXPLICIT_DELIVERY_LIMIT:
        entries = [
            {"demand": list(d.entries), "rows": s.delivery_matrix(d).data}
            for d in demands_iter(s.N, s.K)
        ]
        rate = {"R": rational_json(max(Fraction(len(e["rows"]), s.B) for e in entries))}
    else:
        rate = {"R": rational_json(FAMILIES[s.label].mrl(**s.params)[1]), "R_source": "declared"}
    return {
        "format_version": FORMAT_VERSION,
        "label": s.label,
        "params": dict(s.params),
        "q": s.q,
        "N": s.N,
        "K": s.K,
        "B": s.B,
        "key_names": list(s.layout.key_names),
        "cache": [m.data for m in s.cache],
        "metadata": {"M": rational_json(memory_of(s)), **rate, "L": rational_json(randomness_of(s))},
        "delivery": {"mode": "explicit", "entries": entries} if entries else {"mode": "generated"},
    }


def _shape_problem(m: object, total: int) -> str | None:
    """Why m is not a non-empty list of rows of total entries, or None if it is one."""
    if type(m) is not list:
        return f"got {json.dumps(m)[:40]}"
    if not m:
        return "got no rows"
    for i, row in enumerate(m, start=1):
        if type(row) is not list:
            return f"row {i} is {json.dumps(row)[:40]}, not a list"
        if len(row) != total:
            return f"row {i} has {len(row)} entries"
    return None


def _matrices(doc: dict) -> list:
    """A document's matrices, its K caches then each listed broadcast; a head's row counts."""
    entries = doc["delivery"]["entries"] if doc["delivery"]["mode"] == "explicit" else []
    return doc["cache"] + [e["rows"] for e in entries]


def _matrix_name(doc: dict, i: int) -> str:
    """The name of _matrices(doc)[i]."""
    K = len(doc["cache"])
    if i < K:
        return f"cache of user {i + 1}"
    return f"broadcast for demand {list(doc['delivery']['entries'][i - K]['demand'])}"


def _outline(doc: dict) -> tuple[object, dict, int, int]:
    """The label, params, N and K of a document or head, once its version, their types and its K caches pass.

    These checks read no matrix and build no member, so they run before any list is converted.
    """
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    label, params, N, K = doc["label"], doc["params"], doc["N"], doc["K"]
    if not (
        type(N) is int
        and type(K) is int
        and isinstance(params, dict)
        and all(type(v) is int for v in params.values())
        and params.get("N") == N
        and params.get("K") == K
    ):
        raise ValueError(f"params {params!r} name no {label} member with N={N!r}, K={K!r}")
    if type(doc["cache"]) is not list or len(doc["cache"]) != K:
        raise ValueError(f"cache must be a list of {K} matrices, one per user")
    return label, params, N, K


def _read_matrices(doc: dict, scan_bools: bool) -> tuple[dict, np.ndarray]:
    """A decoded document's head, as _head gives it, and the rows of _matrices(doc) as one int64 array.

    Each matrix must be a non-empty list of rows of integers within
    int64, each row as wide as most rows are: the layout's width is
    checked by document_to_scheme.  scan_bools asks for a scan of the
    entries' types for bools; without it no entry may be one.  Anything
    else raises ValueError naming the first matrix at fault.
    """
    _outline(doc)
    matrices = _matrices(doc)
    rows: list = []
    for m in matrices:
        if type(m) is list:
            rows += m

    def fail(problem: str, bad_row: Callable[[list], bool]) -> None:
        """Raise ValueError naming the first matrix with a bad_row, if one has."""
        for i, m in enumerate(matrices):
            if any(map(bad_row, m)):
                raise ValueError(f"{_matrix_name(doc, i)} has {problem}")

    try:
        arr = np.array(rows)
    except ValueError:  # rows, or entries that are lists, of uneven lengths
        arr = None
    # A 2-D int array can only come from rows that are lists of as many
    # integers, so the shapes are checked only when the array is not one
    # or a matrix is not a non-empty list.
    if arr is None or arr.dtype.kind != "i" or arr.ndim != 2 or not all(type(m) is list and m for m in matrices):
        widths = collections.Counter(len(row) for row in rows if type(row) is list)
        total = max(widths, key=widths.__getitem__, default=0)
        for i, m in enumerate(matrices):
            if problem := _shape_problem(m, total):
                raise ValueError(
                    f"{_matrix_name(doc, i)} must be a non-empty list of rows of {total} entries each; {problem}"
                )
        fail(
            "an entry that is not an integer within int64",
            lambda row: not all(type(x) is int and -(1 << 63) <= x < 1 << 63 for x in row),
        )
        arr = np.zeros((len(rows), 0), np.int64)  # only rows without entries, or no rows, pass
    if scan_bools and bool in set(map(type, itertools.chain.from_iterable(rows))):
        fail("a JSON true or false as an entry", lambda row: bool in set(map(type, row)))
    return _head(doc), arr.astype(np.int64, copy=False)


@functools.lru_cache(maxsize=1)
def _member(label: str, params: frozenset[tuple[str, int]]) -> LinearScheme:
    """build_scheme's member of family label with params, kept until main() returns.

    So a command that checks a document against its member, then
    compares the document with it again, builds it once.
    """
    return build_scheme(label, **dict(params))


def document_to_scheme(head: dict, rows: np.ndarray) -> LinearScheme:
    """Rebuild a scheme from a document's head and rows, checked against its family member.

    The label and params must pass constructions.family_of, and q, N, K,
    B and the key names must be that member's.  Shares come from the
    member.  Cache matrices always come from the document (so hand edits
    are what gets verified), and so does the broadcast table in explicit
    mode, which must list every demand once; in generated mode the
    member's broadcast rule is used.  The head's row counts must cut rows
    into non-empty matrices of the layout's width, with entries in [0, q):
    an out-of-range entry is refused, not reduced.  Anything else raises
    ValueError.
    """
    label, params, N, K = _outline(head)
    # The rows' width bounds the member first: at least N before family_of
    # lists members, and N * B before build() allocates N * B columns
    # (theorem3's B is C(K - 1, t)).  A document without rows has K = 0,
    # which family_of refuses.
    width = rows.shape[1]
    if len(rows) and width < N:
        raise ValueError(f"cache of user 1 has rows of {width} entries, fewer than N={N} files")
    family = family_of(label, {"N": N, "K": K, **params})  # its message in build_scheme's key order
    files = N * family.units(**params)
    if width < files:
        raise ValueError(
            f"the caches' first rows hold at most {width} entries, "
            f"fewer than the N*B={files} file columns of {label} {params}"
        )
    member = _member(label, frozenset(params.items()))
    for key, want in (("q", member.q), ("B", member.B), ("key_names", list(member.layout.key_names))):
        if type(head[key]) is not type(want) or head[key] != want:
            raise ValueError(f"{key} is {head[key]!r}, but {label} {params} has {want!r}")
    mode = head["delivery"]["mode"]
    if mode == "explicit":
        demands = [tuple(e["demand"]) for e in head["delivery"]["entries"]]
        # A JSON true would hash equal to 1, so entries must be ints, not bools.
        if (
            not set(map(type, itertools.chain.from_iterable(demands))) <= {int}
            or len(demands) != N**K
            or set(demands) != set(itertools.product(range(1, N + 1), repeat=K))
        ):
            raise ValueError(f"explicit delivery table must list each of the {N}**{K} demands once")
    elif mode != "generated":
        raise ValueError(f"unknown delivery mode {mode!r}")
    counts = _matrices(head)
    if not all(type(n) is int and n > 0 for n in counts) or sum(counts) != len(rows):
        raise ValueError(f"the matrices' row counts do not cut {len(rows)} rows")
    ends = list(itertools.accumulate(counts))
    q, total = member.q, member.layout.total
    if width != total:
        raise ValueError(
            f"cache of user 1 must be a non-empty list of rows of {total} entries each; row 1 has {width} entries"
        )
    if rows.min() < 0 or rows.max() >= q:
        i = int(np.argmax(((rows < 0) | (rows >= q)).any(axis=1)))
        raise ValueError(f"{_matrix_name(head, bisect.bisect_right(ends, i))} has an entry outside [0, {q})")
    matrices = [FieldMatrix._trusted(q, rows[a:b]) for a, b in zip([0, *ends], ends)]
    delivery = member.delivery
    if mode == "explicit":
        table = dict(zip(demands, matrices[K:]))

        def delivery(d: DemandVector) -> FieldMatrix:
            return table[d.entries]

    return replace(member, cache=tuple(matrices[:K]), delivery=delivery)


def write_scheme(s: LinearScheme, path: Path) -> dict:
    """Write the scheme's document to path, then its sidecar, and return the document.

    The text goes to the file and to SHA-256 in blocks, and the sidecar
    from the matrices' own arrays: neither the whole text nor a matrix
    as lists is ever held.
    """
    import hashlib  # see load_scheme

    doc = scheme_to_document(s)
    digest = hashlib.sha256()
    _write_json(doc, path, digest.update)
    # A sidecar is kept only beside a regular file, which a load can read twice.
    if stat.S_ISREG(path.stat().st_mode):
        _write_sidecar(path, digest.hexdigest(), _head(doc), _matrices(doc))
    return doc


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _head(doc: dict) -> dict:
    """A document with each matrix replaced by its row count."""
    head = {**doc, "cache": [len(m) for m in doc["cache"]]}
    if doc["delivery"]["mode"] == "explicit":
        entries = [{**e, "rows": len(e["rows"])} for e in doc["delivery"]["entries"]]
        head["delivery"] = {**doc["delivery"], "entries": entries}
    return head


def _read_sidecar(path: Path, key: str, mode: int) -> tuple[dict, np.ndarray] | None:
    """The head and rows the sidecar of path holds for the bytes hashing to key, or None.

    A sidecar whose permission bits are not mode, the document's, is not used.
    """
    try:
        # O_NOFOLLOW refuses a symlink and O_NONBLOCK a FIFO's wait for a writer.
        fd = os.open(_sidecar_path(path), os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        with os.fdopen(fd, "rb") as f:
            st = os.fstat(fd)
            # Another user's file may have been planted; a device may never end.
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid() or st.st_mode & 0o777 != mode:
                return None
            data = f.read()
        start = data.index(b"\n") + 1
        header = json.loads(data[:start])
        if header["layout"] != SIDECAR_LAYOUT or header["sha256"] != key:
            return None
        rows = np.frombuffer(data, "<i8", offset=start).reshape(header["shape"])
        return (header["head"], rows) if rows.ndim == 2 else None
    # A missing, unreadable, truncated or garbled sidecar is not used, nor a symlink.
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None


def _write_sidecar(path: Path, key: str, head: dict, matrices: list[np.ndarray]) -> None:
    """Write the sidecar of path, atomically; a sidecar that cannot be written is skipped.

    matrices hold the document's rows in order.  The header's keys are
    sorted, so write_scheme and load_scheme write the same bytes.
    """
    sidecar = _sidecar_path(path)
    tmp = None
    try:
        shape = [sum(len(m) for m in matrices), matrices[0].shape[1]]
        header = json.dumps(
            {"layout": SIDECAR_LAYOUT, "sha256": key, "shape": shape, "head": head}, sort_keys=True
        )
        # Padding to a multiple of 8 bytes keeps the int64 rows aligned.
        header += " " * (-(len(header) + 1) % 8) + "\n"
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=SIDECAR_SUFFIX, dir=sidecar.parent)
        with os.fdopen(fd, "wb") as f:
            f.write(header.encode())
            for m in matrices:
                f.write(np.ascontiguousarray(m, "<i8"))
        # mkstemp makes the file 0600: whoever can read the document may read its sidecar.
        shutil.copymode(path, tmp)
        os.replace(tmp, sidecar)
    # RecursionError: a head nested about as deeply as json.loads allows.
    except (OSError, RecursionError):
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_scheme(path: Path) -> LinearScheme:
    """The scheme of the document at path, from its sidecar when that holds these bytes."""
    # Imported here, not with the module: hashlib loads OpenSSL's libcrypto,
    # about 3.4 MB of resident memory that only a document load or write needs.
    import hashlib

    with path.open("rb") as f:
        st = os.fstat(f.fileno())
        # Only a regular file can be read twice, so only it has a sidecar.
        regular = stat.S_ISREG(st.st_mode)
        if regular:
            # Hashed in blocks: a sidecar hit never holds the document's bytes.
            digest = hashlib.sha256()
            while block := f.read(_BLOCK):
                digest.update(block)
            cached = _read_sidecar(path, digest.hexdigest(), st.st_mode & 0o777)
            if cached is not None:
                try:
                    return document_to_scheme(*cached)
                # A sidecar whose head or rows fail a check is replaced below.
                except (ValueError, KeyError, TypeError):
                    pass
            f.seek(0)
        data = f.read()
    # The new sidecar is keyed by exactly the bytes parsed here.
    key = hashlib.sha256(data).hexdigest()
    # JSON is UTF-8 (RFC 8259), and json.loads reads a CR LF as whitespace,
    # so the bytes need no newline translation.
    text = data.decode("utf-8")
    del data
    doc = json.loads(text)
    # JSON writes a boolean only as one of these literals.
    scan_bools = "true" in text or "false" in text
    del text  # freed before the lists become an array, to lower peak memory
    head, rows = _read_matrices(doc, scan_bools)
    del doc  # and the lists before the member is built
    scheme = document_to_scheme(head, rows)
    if regular:
        _write_sidecar(path, key, head, [rows])
    return scheme


def _load(path: str) -> LinearScheme:
    """The scheme at path; one that cannot be loaded raises ValueError saying why."""
    try:
        return load_scheme(Path(path))
    # KeyError: a missing field; TypeError: a field of the wrong JSON kind;
    # RecursionError: JSON nested deeper than the parser follows.
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
        raise ValueError(f"cannot load scheme: {e}") from e


@contextlib.contextmanager
def _writing(path: str | Path) -> Iterator[Path]:
    """Yield path as a Path; an OSError of the block is re-raised as ValueError naming it."""
    try:
        yield Path(path)
    except OSError as e:
        raise ValueError(f"cannot write {Path(path)}: {e.strerror or e}") from e


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    s = build_scheme(args.scheme, args.N, args.K, args.t)
    with _writing(args.out) as out:
        doc = write_scheme(s, out)
    t_part = f" t={s.params['t']}" if "t" in s.params else ""
    M, R, L = (Fraction(*doc["metadata"][k]) for k in "MRL")
    print(f"{s.label} N={s.N} K={s.K}{t_part}: q={s.q} B={s.B} M={M} R={R} L={L} -> {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    s = _load(args.scheme)
    report = verify_all(s, policy=args.demands, count=args.count, seed=args.seed)
    if args.report:
        with _writing(args.report) as path:
            _write_json(report.as_dict(), path)
    failures = report.failures()
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict} {s.label}: {report.demand_count} demands, "
        f"{len(report.table)} (demand, user) checks, {len(failures)} failures"
    )
    for r in failures[:20]:
        stage = "correctness" if not r.correct else "security"
        print(f"  demand {list(r.demand)} user {r.user}: {stage} rank identity failed")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")
    return 0 if report.passed else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    s = _load(args.scheme)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in wanted if c not in ("entropy", "lemmas", "sharing")]
    if unknown or not wanted:
        raise ValueError(f"unknown checks {unknown}")
    ok = True
    for check in wanted:
        if check == "entropy":
            # Pair subsets over a small demand set keep CLI runs interactive;
            # the test suite drives the same check harder.
            cap, demands = 2, s.N**s.K
            deliveries = min(demands, 8)
            good = check_rank_agreement(s, subset_size_cap=cap, max_enum=args.max_enum, max_deliveries=deliveries)
            print(
                f"entropy agreement: {'PASS' if good else 'FAIL'} (collections of up to {cap} of {s.N} files, "
                f"{s.K} caches and {deliveries} of {demands} broadcasts)"
            )
            ok = ok and good
        elif check == "lemmas":
            ran = 0
            for kind, lemma in (("unit-cache", check_lemma1_lemma2), ("unit-rate", check_lemma3_lemma4)):
                try:
                    good = lemma(s)
                except PreconditionError:
                    continue
                print(f"{kind} identities: {'PASS' if good else 'FAIL'}")
                ok, ran = ok and good, ran + 1
            if not ran:
                raise ValueError("lemma checks apply to unit cache size or unit rate schemes only")
        elif check == "sharing":
            if "t" not in s.params:
                raise ValueError("scheme carries no share system")
            # The check proves the rule's shares; the document must hold the rule's caches.
            member = _member(s.label, frozenset(s.params.items()))
            good = check_secret_sharing(s.K, s.params["t"]) and s.cache == member.cache
            print(f"share threshold: {'PASS' if good else 'FAIL'}")
            ok = ok and good
    return 0 if ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    s = _load(args.scheme)
    d = DemandVector(tuple(int(x) for x in args.demand.split(",")))
    result = simulate(s, d, args.seed)
    if result.passed:
        print(f"PASS demand {list(d.entries)} seed {args.seed}: all {s.K} users decoded")
        return 0
    print(f"FAIL demand {list(d.entries)} seed {args.seed}: users {list(result.failed_users)} failed")
    return 1


def cmd_tradeoff(args: argparse.Namespace) -> int:
    from .tradeoff import emit_curves

    data = emit_curves(args.N, args.K, args.grid)
    out = Path(args.out)
    vertex_path = out.with_suffix(".vertices.json")
    with _writing(out):
        out.write_text(data.csv_text(include_prior=args.include_prior))
    with _writing(vertex_path):
        _write_json(data.vertices_dict(), vertex_path)
    env = ", ".join(f"({p.M}, {p.R})" for p in data.envelope.vertices)
    print(f"N={args.N} K={args.K}: envelope vertices {env}")
    print(f"curves -> {out}, vertices -> {vertex_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main() reuses it."""
    parser = argparse.ArgumentParser(
        prog="securecache",
        description="Construct and machine-check secure coded caching schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a scheme and write its JSON document")
    p.add_argument("--scheme", required=True, choices=list(FAMILIES))
    p.add_argument("--N", required=True, type=int, help="number of files")
    p.add_argument("--K", required=True, type=int, help="number of users")
    p.add_argument("--t", type=int, default=None, help="tradeoff parameter (theorem3)")
    p.add_argument("--out", required=True, help="output scheme JSON path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the correctness and security rank checks")
    p.add_argument("--scheme", required=True, help="scheme JSON path")
    p.add_argument("--demands", choices=["all", "sample"], default="all")
    p.add_argument("--count", type=int, default=None, help="sample size for --demands sample")
    p.add_argument("--seed", type=int, default=None, help="sample seed for --demands sample")
    p.add_argument("--report", default=None, help="write the full JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force entropy checks against the rank machinery")
    p.add_argument("--scheme", required=True, help="scheme JSON path")
    p.add_argument("--checks", required=True, help="comma list of entropy,lemmas,sharing")
    p.add_argument("--max-enum", type=int, default=MAX_ENUM, dest="max_enum")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="end-to-end decode on random symbols")
    p.add_argument("--scheme", required=True, help="scheme JSON path")
    p.add_argument("--demand", required=True, help="comma list, one file index per user")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tradeoff", help="emit memory-rate tradeoff curves and vertices")
    p.add_argument("--N", required=True, type=int, help="number of files")
    p.add_argument("--K", required=True, type=int, help="number of users")
    p.add_argument("--grid", type=int, default=61, help="uniform sample count")
    p.add_argument("--include-prior", action="store_true", help="add the prior-work column to the CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_tradeoff)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code, or 2 once a refusal is printed."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        _member.cache_clear()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
