"""Exact prime-field linear algebra tests."""

from dataclasses import replace
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, isprime, prevprime
from sympy.polys.matrices import DomainMatrix

from securecache import cli, verifier
from securecache.constructions import build_scheme
from securecache.entropy_oracle import VariableRef, stacked_matrix
from securecache.ff_linalg import (
    FieldMatrix,
    in_rowspace,
    is_prime,
    rank,
    ranks,
    residual_rank,
    row_basis,
    smallest_prime_at_least,
    sparse_rref,
    stack,
    zero_columns,
)
from securecache.scheme_model import DemandVector, demands_iter
from securecache.verifier import observed_matrix, verify_all


def _random_matrix(rng, q, rows, cols):
    return FieldMatrix(q, rng.integers(0, q, size=(rows, cols)))


def _identity(q, n):
    return FieldMatrix(q, np.eye(n, dtype=np.int64))


def test_rank_of_identity():
    assert rank(_identity(2, 4)) == 4


def test_rank_of_zero_matrix():
    assert rank(FieldMatrix.zeros(5, 3, 5)) == 0


def test_rank_of_empty_matrix():
    assert rank(FieldMatrix.zeros(3, 0, 4)) == 0


def test_rank_mod_matters():
    # Rows are dependent mod 3 but independent over the rationals.
    m = FieldMatrix(3, [[1, 2], [2, 1]])
    assert rank(m) == 1


def test_observed_stack_ranks_for_two_file_scheme():
    # Cache-plus-broadcast stack of the two-file scheme, K=3, demand
    # (1, 1, 2): full rank K, requested-file mask K-1, other-file mask K.
    s = build_scheme("theorem1", 2, 3)
    d = DemandVector((1, 1, 2))
    G = observed_matrix(s, d, 1)
    assert G.data.tolist() == [[0, 0, 1, 0], [2, 0, 2, 0], [2, 0, 0, 2]]
    assert rank(G) == 3
    assert rank(zero_columns(G, s.layout.file_columns(1))) == 2
    assert rank(zero_columns(G, s.layout.file_columns(2))) == 3


def test_zero_columns_out_of_range():
    m = _identity(3, 3)
    with pytest.raises(IndexError):
        zero_columns(m, [3])
    with pytest.raises(IndexError):
        zero_columns(m, [-1])


def test_zero_columns_never_raises_rank():
    rng = np.random.default_rng(7)
    for _ in range(60):
        q = int(rng.choice([2, 3, 5]))
        m = _random_matrix(rng, q, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        cols = [c for c in range(m.cols) if rng.random() < 0.4]
        assert rank(zero_columns(m, cols)) <= rank(m)


def test_in_rowspace_small_example():
    m = FieldMatrix(2, [[1, 1], [0, 1]])
    coeff = in_rowspace(m, [1, 0])
    assert coeff is not None
    assert list(coeff) == [1, 1]


def test_in_rowspace_outside():
    m = FieldMatrix(2, [[1, 1, 0]])
    assert in_rowspace(m, [1, 0, 0]) is None


def test_in_rowspace_empty_matrix():
    m = FieldMatrix.zeros(3, 0, 3)
    assert in_rowspace(m, [0, 0, 0]) is not None
    assert in_rowspace(m, [1, 0, 0]) is None


def test_in_rowspace_unit_decoding_combination_exists():
    # User 3 of the two-file scheme can form the second file's unit.
    s = build_scheme("theorem1", 2, 3)
    G = observed_matrix(s, DemandVector((1, 1, 2)), 3)
    coeff = in_rowspace(G, [0, 1, 0, 0])
    assert coeff is not None
    assert list((coeff @ G.data) % 3) == [0, 1, 0, 0]


def test_in_rowspace_recomputes_exactly():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(150):
        q = int(rng.choice([2, 3, 5, 7]))
        m = _random_matrix(rng, q, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        weights = rng.integers(0, q, size=m.rows)
        target = (weights @ m.data) % q
        coeff = in_rowspace(m, target)
        assert coeff is not None
        assert np.array_equal((coeff @ m.data) % q, target)
        hits += 1
    assert hits == 150


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(3)
    for _ in range(120):
        q = int(rng.choice([2, 3, 5, 7, 11]))
        m = _random_matrix(rng, q, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        assert rank(m) == rank(FieldMatrix(q, m.data.T))


def test_rank_subadditive_under_stacking():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = int(rng.choice([2, 3, 5]))
        cols = int(rng.integers(1, 7))
        a = _random_matrix(rng, q, int(rng.integers(1, 5)), cols)
        b = _random_matrix(rng, q, int(rng.integers(1, 5)), cols)
        both = rank(stack([a, b]))
        assert both <= rank(a) + rank(b)
        assert both >= max(rank(a), rank(b))


def test_stack_validates():
    with pytest.raises(ValueError):
        stack([])
    with pytest.raises(ValueError):
        stack([_identity(2, 2), _identity(3, 2)])
    with pytest.raises(ValueError):
        stack([_identity(2, 2), _identity(2, 3)])


def test_field_matrix_validation_and_immutability():
    with pytest.raises(ValueError):
        FieldMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FieldMatrix(2, [1, 0])
    m = FieldMatrix(3, [[4, -1]])
    assert m.data.tolist() == [[1, 2]]
    with pytest.raises(ValueError):
        m.data[0, 0] = 2
    with pytest.raises(AttributeError):
        m.q = 5


def _assert_frozen(m):
    assert isinstance(m, FieldMatrix) and not m.data.flags.writeable
    with pytest.raises(ValueError):
        m.data[...] = 0
    for name in ("q", "data"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))


def test_trusted_wraps_are_read_only_and_refuse_assignment(tmp_path, monkeypatch):
    # FieldMatrix._trusted writes the writeable flag only on arrays that
    # still have it; every route through it must still hand out frozen
    # matrices.  theorem3 (2, 3, 1) documents are explicit, so a loaded
    # scheme's broadcasts are cut from the document's rows too.
    s = build_scheme("theorem3", 2, 3, 1)
    demands = list(demands_iter(s.N, s.K))
    wrapped = [
        stack([s.cache[0], s.cache[1]]),
        stacked_matrix(s, [VariableRef.of_cache(1), VariableRef.of_delivery((1, 2, 1))]),
        *s.cache,
        *(s.delivery_matrix(d) for d in demands),
    ]
    path = tmp_path / "t3.json"
    cli.write_scheme(s, path)
    parses = []
    read_matrices = cli._read_matrices
    monkeypatch.setattr(cli, "_read_matrices", lambda *a: parses.append(1) or read_matrices(*a))
    hit = cli.load_scheme(path)
    cli._sidecar_path(path).unlink()
    miss = cli.load_scheme(path)
    assert parses == [1]
    for loaded in (hit, miss):
        wrapped += [*loaded.cache, *(loaded.delivery_matrix(d) for d in demands)]
    views = []
    monkeypatch.setattr(verifier, "rank", lambda m: views.append(m) or rank(m))
    assert verify_all(s).passed
    assert len(views) == 3 * len(demands) * s.K
    for m in wrapped + views:
        _assert_frozen(m)


def test_modulus_that_could_overflow_is_refused():
    # Here q**2 alone exceeds 2**63: [[q - 1, q - 1]] applied to
    # [q - 1, q - 1] wrapped around int64 and gave 8589934033, not 2.
    with pytest.raises(ValueError, match="too large"):
        FieldMatrix(8589934609, [[1]])
    with pytest.raises(ValueError, match="too large"):
        FieldMatrix(8589934609, [[8589934608, 8589934608]])
    # 2**31 - 1 fits two columns but not three.
    q = 2147483647
    with pytest.raises(ValueError, match="too large"):
        FieldMatrix(q, [[1, 1, 1]])
    m = FieldMatrix(q, [[q - 1, q - 1]])
    assert int(m.apply(np.array([q - 1, q - 1]))[0]) == (2 * (q - 1) ** 2) % q == 2


def test_prime_field():
    s = build_scheme("theorem1", 2, 3)
    assert s.q == 3
    with pytest.raises(ValueError, match="prime"):
        replace(s, q=9)


def test_smallest_prime_at_least_frozen_values():
    # Frozen expectations validated against an independent primality oracle.
    assert smallest_prime_at_least(6) == 7
    assert smallest_prime_at_least(3) == 3
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(20) == 23
    with pytest.raises(ValueError):
        smallest_prime_at_least(1)


def test_primality_against_independent_oracle():
    for n in range(2, 500):
        assert is_prime(n) == bool(isprime(n))
    for n in range(2, 200):
        p = smallest_prime_at_least(n)
        assert p >= n and isprime(p)
        assert all(not isprime(x) for x in range(n, p))


def _sympy_rank(q, rows, cols):
    if not rows:
        return 0
    gf = GF(q)
    return DomainMatrix([[gf(int(x)) for x in row] for row in rows], (len(rows), cols), gf).rank()


def _sympy_rref(q, m):
    """RREF and pivots over GF(q) by sympy, entries as residues in [0, q)."""
    rows, cols = m.shape
    if rows == 0:
        return m.copy(), []
    gf = GF(q)
    ref, pivots = DomainMatrix([[gf(int(x)) for x in row] for row in m.tolist()], (rows, cols), gf).rref()
    return np.array([[int(x) % q for x in row] for row in ref.to_list()], dtype=np.int64), list(pivots)


def _edge_prime(cols):
    """The largest prime q with q**2 * cols < 2**63, the most FieldMatrix admits."""
    return prevprime(isqrt((2**63 - 1) // cols) + 1)


EDGE_7 = _edge_prime(7)


@st.composite
def residual_cases(draw):
    """(q, cols, z, x, keep): a basis matrix, rows to reduce against it, kept columns.

    Besides small primes, q may be 1000000007 or the largest prime the
    overflow guard admits for the drawn cols, where the residual
    operator's products come closest to 2**63.
    """
    cols = draw(st.integers(1, 7))
    q = draw(st.sampled_from([3, 5, 7, 1000000007, _edge_prime(cols)]))
    entries = st.integers(0, q - 1)
    row = st.lists(entries, min_size=cols, max_size=cols)
    z = draw(st.lists(row, min_size=0, max_size=5))
    x = draw(st.lists(row, min_size=0, max_size=5))
    keep = draw(st.none() | st.lists(st.integers(0, cols - 1), unique=True))
    return q, cols, z, x, keep


@settings(max_examples=300, deadline=None)
@given(case=residual_cases())
@example(case=(EDGE_7, 7, [[EDGE_7 - 1] * 7] * 5, [[EDGE_7 - 1] * 7] * 5, None))
# Basis rows e_i + e_6: the operator's only column is 1 on column 6 and
# q - 1 on columns 0..5, so x @ op sums six products (q - 1)**2 and
# q - 1, about 6/7 of 2**63.
@example(
    case=(EDGE_7, 7, [[int(c in (i, 6)) for c in range(7)] for i in range(6)], [[EDGE_7 - 1] * 7] * 5, None)
)
def test_residual_rank_against_sympy(case):
    q, cols, z, x, keep = case
    kept = list(range(cols)) if keep is None else sorted(keep)
    sub = lambda rows: [[row[c] for c in kept] for row in rows]
    Z = FieldMatrix(q, np.array(z, dtype=np.int64).reshape(len(z), cols))
    X = FieldMatrix(q, np.array(x, dtype=np.int64).reshape(len(x), cols))
    basis = row_basis(Z, keep)
    want_z = _sympy_rank(q, sub(z), len(kept))
    want_both = _sympy_rank(q, sub(z + x), len(kept))
    assert basis.dim() == want_z
    assert residual_rank(basis, X) == want_both - want_z


@st.composite
def prefix_cases(draw):
    """(q, cols, z, x, order, ends): a matrix, rows to reduce, a column order and prefix lengths."""
    cols = draw(st.integers(1, 7))
    q = draw(st.sampled_from([2, 3, 5, 7, 1000000007, _edge_prime(cols)]))
    entries = st.integers(0, q - 1)
    row = st.lists(entries, min_size=cols, max_size=cols)
    z = draw(st.lists(row, min_size=0, max_size=5))
    x = draw(st.lists(row, min_size=0, max_size=5))
    # Rows in the row space of z, whose residuals must all vanish.
    for coef in draw(st.lists(st.lists(entries, min_size=len(z), max_size=len(z)), max_size=2)):
        x.append([sum(a * r[c] for a, r in zip(coef, z)) % q for c in range(cols)])
    order = draw(st.permutations(range(cols)))[: draw(st.integers(0, cols))]
    ends = draw(st.lists(st.integers(0, len(order)), min_size=1, max_size=4))
    return q, cols, z, x, order, ends


@settings(max_examples=300, deadline=None)
@given(case=prefix_cases())
def test_row_bases_against_sympy(case):
    q, cols, z, x, order, ends = case
    Z = FieldMatrix(q, np.array(z, dtype=np.int64).reshape(len(z), cols))
    X = FieldMatrix(q, np.array(x, dtype=np.int64).reshape(len(x), cols))
    # One basis of the whole order serves every prefix.
    basis = row_basis(Z, order)
    for e in ends:
        kept = order[:e]
        sub = lambda rows: [[row[c] for c in kept] for row in rows]
        want_z = _sympy_rank(q, sub(z), e) if e else 0
        want_both = _sympy_rank(q, sub(z + x), e) if e else 0
        assert basis.dim(e) == want_z
        assert residual_rank(basis, X, e) == want_both - want_z


def test_row_basis_and_residual_rank_validate():
    m = _identity(3, 3)
    with pytest.raises(IndexError):
        row_basis(m, [0, 3])
    with pytest.raises(IndexError):
        row_basis(m, [-1])
    with pytest.raises(IndexError, match="repeated"):
        row_basis(m, [1, 1])
    basis = row_basis(m, [0, 1])
    for e in (-1, 3):
        with pytest.raises(IndexError, match="prefix length"):
            basis.dim(e)
        with pytest.raises(IndexError, match="prefix length"):
            residual_rank(basis, _identity(3, 3), e)
    with pytest.raises(ValueError):
        residual_rank(basis, _identity(5, 3))
    with pytest.raises(ValueError):
        residual_rank(basis, _identity(3, 4))
    # Column 2 is outside the basis's columns, so it adds nothing.
    assert residual_rank(basis, FieldMatrix(3, [[0, 0, 1]])) == 0


def _in_rowspace_one_target(m, target):
    """Reference: in_rowspace for one target, from sympy's RREF of [m.T | target]."""
    t = np.asarray(target, dtype=np.int64) % m.q
    if m.rows == 0:
        return np.zeros(0, dtype=np.int64) if not t.any() else None
    work, pivots = _sympy_rref(m.q, np.hstack([m.data.T, t[:, None]]))
    if m.rows in pivots:
        return None
    coeff = np.zeros(m.rows, dtype=np.int64)
    for i, c in enumerate(pivots):
        coeff[c] = work[i, m.rows]
    return coeff


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(0, 5),
    cols=st.integers(1, 7),
    kinds=st.lists(st.sampled_from(["combination", "vector", "repeat"]), min_size=1, max_size=6),
    data=st.data(),
)
def test_in_rowspace_stack_matches_one_target_at_a_time(q, rows, cols, kinds, data):
    entries = st.integers(0, q - 1)
    row = st.lists(entries, min_size=cols, max_size=cols)
    m_rows = data.draw(st.lists(row, min_size=rows, max_size=rows))
    m = FieldMatrix(q, np.array(m_rows, dtype=np.int64).reshape(rows, cols))
    targets = []
    for kind in kinds:
        if kind == "combination":
            weights = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)), dtype=np.int64)
            targets.append(((weights @ m.data) % q).tolist())
        elif kind == "repeat" and targets:
            targets.append(list(data.draw(st.sampled_from(targets))))
        else:
            targets.append(data.draw(row))
    got = in_rowspace(m, np.array(targets, dtype=np.int64))
    assert isinstance(got, list) and len(got) == len(targets)
    rank_m = _sympy_rank(q, m_rows, cols)
    for target, coeff in zip(targets, got):
        want = _in_rowspace_one_target(m, target)
        alone = in_rowspace(m, target)
        grows = _sympy_rank(q, m_rows + [target], cols) > rank_m
        if want is None:
            assert coeff is None and alone is None and grows
        else:
            assert np.array_equal(coeff, want) and np.array_equal(alone, want)
            assert np.array_equal((coeff @ m.data) % q, np.array(target) % q)
            assert not grows


@st.composite
def elimination_inputs(draw):
    """(q, matrix): dense, sparse 0/1-heavy, low-rank, or 5-30% nonzero with repeated rows.

    The last kind mixes duplicated rows, combinations of two rows and
    all-zero rows among its rows, so that entries cancel to nothing and
    rows drop out of the sparse elimination often.  The large
    prime gets at most 8 columns, within FieldMatrix's guard
    q**2 * cols < 2**63, which rank's input must pass.
    """
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 1000000007]))
    rows = draw(st.integers(0, 20))
    cols = draw(st.integers(1, 8 if q > 11 else 30))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank", "sparse_repeats"]))
    dense = st.integers(0, q - 1)
    entries = st.sampled_from([0, 0, 0, 1, q - 1]) if kind == "sparse" else dense
    row = st.lists(entries, min_size=cols, max_size=cols)
    if kind == "low_rank":
        base = draw(st.lists(row, min_size=0, max_size=3))
        weights = draw(st.lists(st.lists(dense, min_size=len(base), max_size=len(base)), min_size=rows, max_size=rows))
        m = [[sum(w * b[c] for w, b in zip(ws, base)) % q for c in range(cols)] for ws in weights]
    elif kind == "sparse_repeats":
        percent = draw(st.integers(5, 30))
        cell = st.tuples(st.integers(0, 99), st.integers(1, q - 1)).map(lambda t: t[1] if t[0] < percent else 0)
        m = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), max_size=rows))
        for extra in draw(st.lists(st.sampled_from(["duplicate", "combination", "zero"]), max_size=8)):
            if extra == "zero" or not m:
                new = [0] * cols
            elif extra == "duplicate":
                new = list(draw(st.sampled_from(m)))
            else:
                a, b, f, g = draw(st.sampled_from(m)), draw(st.sampled_from(m)), draw(dense), draw(dense)
                new = [(f * x + g * y) % q for x, y in zip(a, b)]
            m.insert(draw(st.integers(0, len(m))), new)
    else:
        m = draw(st.lists(row, min_size=rows, max_size=rows))
    return q, np.array(m, dtype=np.int64).reshape(len(m), cols)


def _dense_rref(q, m):
    """sparse_rref of m on all its columns, made dense: pivot rows in pivot order, then zero rows."""
    maps = sparse_rref(m, q, m.shape[1], 0)
    pivots = sorted(maps)
    work = np.zeros(m.shape, dtype=np.int64)
    for i, c in enumerate(pivots):
        work[i, c] = 1
        for j, x in maps[c].items():
            work[i, j] = x
    return work, pivots


def _check_rref_and_rank(q, m):
    before = m.copy()
    work, pivots = _dense_rref(q, m)
    got_rank = rank(FieldMatrix(q, m))
    assert np.array_equal(m, before)
    want, want_piv = _sympy_rref(q, m)
    assert work.dtype == np.int64 and np.array_equal(work, want)
    assert pivots == want_piv
    assert got_rank == len(want_piv)


@settings(max_examples=400, deadline=None)
@given(case=elimination_inputs())
@example(case=(3, np.array([[1, 2, 0], [2, 1, 1], [0, 0, 2], [1, 2, 1]])))
@example(case=(5, np.array([[0, 0, 1], [0, 2, 4], [3, 1, 0]])))
@example(case=(7, np.zeros((13, 2), dtype=np.int64)))
@example(case=(1000000007, np.array([[1000000006, 2], [1, 1000000005], [3, 4]])))
# rank stops once every row is a pivot row: here after column 2 of 7.
@example(case=(5, np.array([[1, 0, 0, 2, 4, 1, 3], [3, 2, 0, 0, 1, 4, 4], [0, 4, 1, 1, 0, 2, 3]])))
# Rank 4 of 6 rows (the first and third are combinations of the others), and rank 0:
# no early stop.
@example(
    case=(7, np.array([
        [1, 2, 1, 0, 2, 0, 1, 1, 0, 6, 2, 2, 3],
        [0, 0, 0, 0, 0, 3, 1, 2, 0, 4, 1, 0, 6],
        [2, 4, 4, 1, 1, 3, 3, 3, 3, 3, 1, 6, 4],
        [1, 2, 0, 3, 0, 0, 1, 5, 6, 0, 2, 4, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1, 2, 3],
        [0, 0, 1, 4, 2, 0, 0, 3, 1, 6, 0, 5, 2],
    ])),
)
@example(case=(3, np.zeros((4, 5), dtype=np.int64)))
def test_rref_and_rank_against_sympy(case):
    _check_rref_and_rank(*case)


def test_rref_and_rank_against_sympy_at_the_largest_verified_shapes():
    # The caches of theorem3 (2, 7, 2) and (3, 5, 2) (26 x 77 and 17 x 40),
    # the 35 x 51 residual of a (2, 7, 2) broadcast against user 1's
    # cache basis, and [G.T | units] for that user's 61-row observation.
    s = build_scheme("theorem3", 2, 7, 2)
    for Z in (*build_scheme("theorem3", 3, 5, 2).cache, *s.cache):
        _check_rref_and_rank(Z.q, Z.data)
    q, d = s.q, DemandVector((1, 2, 1, 2, 1, 2, 1))
    residual = s.delivery_matrix(d).data @ row_basis(s.cache[0]).op % q
    assert residual.shape == (35, 51)
    _check_rref_and_rank(q, residual)
    G = observed_matrix(s, d, 1)
    assert G.rows == 61
    _check_rref_and_rank(q, np.hstack([G.data.T, s.layout.file_selector(q, 1).data.T]))


def test_in_rowspace_validates_target_shape():
    m = _identity(3, 3)
    for bad in (1, [1, 0], [[1, 0]], np.zeros((1, 1, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="does not match"):
            in_rowspace(m, bad)
    assert in_rowspace(m, np.zeros((0, 3), dtype=np.int64)) == []


@st.composite
def padded_stacks(draw):
    """(q, stack, heights): ragged matrices over GF(q), zero-padded to one (C, R, n) stack.

    Each matrix's rows are combinations of a few drawn base rows, so
    ranks below min(height, n) are common; no base rows at all gives an
    all-zero matrix.  At most 8 columns keeps the large prime within
    the overflow guard.
    """
    q = draw(st.sampled_from([2, 3, 5, 7, 1000000007]))
    n = draw(st.integers(1, 8))
    C = draw(st.integers(1, 6))
    R = draw(st.integers(1, 6))
    entries = st.integers(0, q - 1)
    stack = np.zeros((C, R, n), dtype=np.int64)
    heights = []
    for i in range(C):
        h = draw(st.integers(0, R))
        k = draw(st.integers(0, h))
        base = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
        for r in range(h):
            w = draw(st.lists(entries, min_size=k, max_size=k))
            stack[i, r] = [sum(a * row[c] for a, row in zip(w, base)) % q for c in range(n)]
        heights.append(h)
    return q, stack, heights


@settings(max_examples=300, deadline=None)
@given(case=padded_stacks())
@example(case=(3, np.array([[[1, 2, 0], [2, 1, 0]]]), [2]))
@example(case=(5, np.array([[[0, 3, 1]], [[4, 0, 2]], [[0, 0, 0]]]), [1, 1, 0]))
@example(case=(7, np.zeros((4, 3, 2), dtype=np.int64), [3, 0, 2, 1]))
@example(case=(1000000007, np.array([[[1000000006, 1000000006], [1, 1]]]), [2]))
def test_ranks_against_sympy_and_rank(case):
    q, stack, heights = case
    before = stack.copy()
    got = ranks(q, stack)
    assert np.array_equal(stack, before)
    assert got.shape == (len(stack),)
    for m, h, r in zip(stack, heights, got.tolist()):
        assert r == _sympy_rank(q, m[:h].tolist(), m.shape[1])
        assert r == rank(FieldMatrix(q, m[:h]))


def test_ranks_validates():
    assert ranks(3, np.zeros((0, 2, 2), dtype=np.int64)).tolist() == []
    assert ranks(3, np.zeros((2, 0, 2), dtype=np.int64)).tolist() == [0, 0]
    with pytest.raises(ValueError, match="prime"):
        ranks(4, np.eye(2, dtype=np.int64)[None])
    with pytest.raises(ValueError, match="3-dimensional"):
        ranks(3, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError, match="integers"):
        ranks(3, np.eye(2)[None])
    # The same guard as FieldMatrix: 2**31 - 1 fits two columns but not three.
    with pytest.raises(ValueError, match="too large"):
        ranks(2147483647, np.ones((1, 1, 3), dtype=np.int64))
    assert ranks(2147483647, np.full((1, 2, 2), 2147483646)).tolist() == [1]
