"""Exact prime-field linear algebra tests."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, isprime, prevprime
from sympy.polys.matrices import DomainMatrix

from securecache import ff_linalg
from securecache.constructions import build_theorem1
from securecache.ff_linalg import (
    FieldMatrix,
    _eliminate_columns,
    _eliminate_rows,
    PrimeField,
    in_rowspace,
    is_prime,
    rank,
    ranks,
    residual_rank,
    row_basis,
    smallest_prime_at_least,
    stack,
    zero_columns,
)
from securecache.scheme_model import DemandVector
from securecache.verifier import observed_matrix


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
    s = build_theorem1(3)
    d = DemandVector((1, 1, 2))
    G = observed_matrix(s, d, 1)
    assert G.row_lists() == [[0, 0, 1, 0], [2, 0, 2, 0], [2, 0, 0, 2]]
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
    s = build_theorem1(3)
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
    assert m.row_lists() == [[1, 2]]
    with pytest.raises(ValueError):
        m.data[0, 0] = 2
    with pytest.raises(AttributeError):
        m.q = 5


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
    assert PrimeField(7).q == 7
    with pytest.raises(ValueError):
        PrimeField(9)


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
    assert basis.dim == want_z
    assert residual_rank(basis, X) == want_both - want_z


def test_row_basis_and_residual_rank_validate():
    m = _identity(3, 3)
    with pytest.raises(IndexError):
        row_basis(m, [0, 3])
    with pytest.raises(IndexError):
        row_basis(m, [-1])
    with pytest.raises(IndexError, match="repeated"):
        row_basis(m, [1, 1])
    basis = row_basis(m, [0, 1])
    with pytest.raises(ValueError):
        residual_rank(basis, _identity(5, 3))
    with pytest.raises(ValueError):
        residual_rank(basis, _identity(3, 4))
    # Column 2 is outside the basis's columns, so it adds nothing.
    assert residual_rank(basis, FieldMatrix(3, [[0, 0, 1]])) == 0


def _in_rowspace_one_target(m, target):
    """Reference: in_rowspace as one column-ordered elimination of [m.T | target] per target."""
    t = np.asarray(target, dtype=np.int64) % m.q
    if m.rows == 0:
        return np.zeros(0, dtype=np.int64) if not t.any() else None
    aug = np.hstack([m.data.T, t[:, None]])
    work, pivots = _eliminate_columns(aug, m.q, reduced=True)
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
    """(q, matrix): dense, sparse 0/1-heavy or low-rank, on both sides of the size limits.

    The large prime gets at most 8 columns, the most the int64 column
    path is exact for.
    """
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 1000000007]))
    rows = draw(st.integers(0, 20))
    cols = draw(st.integers(1, 8 if q > 11 else 30))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank"]))
    dense = st.integers(0, q - 1)
    entries = st.sampled_from([0, 0, 0, 1, q - 1]) if kind == "sparse" else dense
    row = st.lists(entries, min_size=cols, max_size=cols)
    if kind == "low_rank":
        base = draw(st.lists(row, min_size=0, max_size=3))
        weights = draw(st.lists(st.lists(dense, min_size=len(base), max_size=len(base)), min_size=rows, max_size=rows))
        m = [[sum(w * b[c] for w, b in zip(ws, base)) % q for c in range(cols)] for ws in weights]
    else:
        m = draw(st.lists(row, min_size=rows, max_size=rows))
    return q, np.array(m, dtype=np.int64).reshape(rows, cols)


def _sympy_rref(q, m):
    """RREF and pivots over GF(q) by sympy, entries as residues in [0, q)."""
    rows, cols = m.shape
    if rows == 0:
        return m.copy(), []
    gf = GF(q)
    ref, pivots = DomainMatrix([[gf(int(x)) for x in row] for row in m.tolist()], (rows, cols), gf).rref()
    return np.array([[int(x) % q for x in row] for row in ref.to_list()], dtype=np.int64), list(pivots)


@settings(max_examples=400, deadline=None)
@given(case=elimination_inputs(), reduced=st.booleans())
@example(case=(3, np.array([[1, 2, 0], [2, 1, 1], [0, 0, 2], [1, 2, 1]])), reduced=True)
@example(case=(5, np.array([[0, 0, 1], [0, 2, 4], [3, 1, 0]])), reduced=True)
@example(case=(7, np.zeros((13, 2), dtype=np.int64)), reduced=False)
@example(case=(1000000007, np.array([[1000000006, 2], [1, 1000000005], [3, 4]])), reduced=True)
# rank stops once every row is a pivot row: here after column 2 of 7.
@example(case=(5, np.array([[1, 0, 0, 2, 4, 1, 3], [3, 2, 0, 0, 1, 4, 4], [0, 4, 1, 1, 0, 2, 3]])), reduced=False)
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
    reduced=False,
)
@example(case=(3, np.zeros((4, 5), dtype=np.int64)), reduced=False)
def test_elimination_paths_agree_with_each_other_and_sympy(case, reduced):
    q, m = case
    before = m.copy()
    by_rows, piv_rows = _eliminate_rows(m, q, reduced)
    by_cols, piv_cols = _eliminate_columns(m, q, reduced)
    # rank counts pivots by its own elimination within the size limits.
    got_rank = rank(FieldMatrix(q, m))
    assert np.array_equal(m, before)
    want, want_piv = _sympy_rref(q, m)
    assert piv_rows == piv_cols == want_piv
    assert got_rank == len(want_piv)
    for work in (by_rows, by_cols):
        assert work.dtype == np.int64 and work.shape == m.shape
        # Echelon form either way: pivot rows are 1 at their pivot, zero
        # before it, and the remaining rows are zero.
        for i, c in enumerate(want_piv):
            assert work[i, c] == 1 and not work[i, :c].any()
        assert not work[len(want_piv):].any()
    if reduced:
        assert np.array_equal(by_rows, by_cols)
        assert np.array_equal(by_rows, want)


def test_eliminate_picks_the_row_path_within_the_size_limits(monkeypatch):
    calls = []
    monkeypatch.setattr(ff_linalg, "_eliminate_rows", lambda a, q, r: calls.append(("rows", a.shape)))
    monkeypatch.setattr(ff_linalg, "_rank_rows", lambda a, q: calls.append(("rows", a.shape)) or 0)
    monkeypatch.setattr(
        ff_linalg, "_eliminate_columns", lambda a, q, reduced: calls.append(("columns", a.shape)) or (None, [])
    )
    shapes = [(0, 3), (12, 21), (1, 256), (13, 2), (12, 22), (1, 257)]
    for shape in shapes:
        ff_linalg._eliminate(np.zeros(shape, dtype=np.int64), 3, False)
    assert ff_linalg.SMALL_ROWS == 12 and ff_linalg.SMALL_ENTRIES == 256
    assert [path for path, _ in calls] == ["rows"] * 3 + ["columns"] * 3
    calls.clear()
    for shape in [(12, 21), (1, 256), (13, 2), (1, 257)]:
        rank(FieldMatrix.zeros(3, *shape))
    assert calls == [("rows", (12, 21)), ("rows", (1, 256)), ("columns", (13, 2)), ("columns", (1, 257))]


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
