"""Exact linear algebra over prime fields.

Dense matrices with entries reduced mod q, Gaussian elimination with
first-nonzero pivoting, rank, row-space membership, column masking,
ranks of row blocks relative to cached reduced row echelon bases (one
product serves several bases side by side), and the ranks of a whole
stack of small matrices by one batched elimination.  All arithmetic is
exact integer arithmetic; there are no tolerances anywhere.  Small
inputs (at most SMALL_ROWS rows and SMALL_ENTRIES entries) run on
Python integers, which cannot overflow: eliminations row by row, rank
by a pivot count that stops at full row rank.  The rest runs in numpy
int64, and matrices are refused unless q**2 * cols < 2**63, which keeps
it and the residual products exact: a row of products of residues sums
at most cols terms below q**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def smallest_prime_at_least(n: int) -> int:
    """Return the least prime p with p >= n.

    Args:
        n: lower bound, must be >= 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = n
    while not is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class PrimeField:
    """The field of integers mod q, with q checked prime at construction."""

    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")


class FieldMatrix:
    """Immutable dense matrix over the integers mod a prime q.

    Entries must be integers within int64 (a float or bool dtype is
    refused, not truncated, but numpy reads a bool among integers as 0
    or 1) and are stored as int64 in [0, q).  Matrices with
    zero rows are legal (they arise as empty observation sets); zero
    columns are not, and neither are moduli with q**2 * cols >= 2**63,
    for which a matrix-vector product could overflow int64.
    """

    __slots__ = ("q", "data")

    def __init__(self, q: int, data: Sequence[Sequence[int]] | NDArray) -> None:
        if not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q}")
        # The dtype is inferred, not forced, so that floats, bools and integers
        # past int64 show in it instead of being truncated or wrapped.
        arr = np.array(data)
        if arr.dtype.kind != "i":
            raise ValueError(f"matrix entries must be integers within int64, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise ValueError("matrix must have at least one column")
        if q * q * arr.shape[1] >= 1 << 63:
            raise ValueError(
                f"modulus {q} is too large for exact int64 products over "
                f"{arr.shape[1]} columns: need q**2 * cols < 2**63"
            )
        arr %= q
        arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, q: int, data: NDArray) -> "FieldMatrix":
        """Wrap data as a FieldMatrix without checking or copying it; it becomes read-only.

        For data already checked, such as results computed here from
        validated matrices or the entries of a loaded document: the caller
        guarantees a prime q and a fresh 2-D int64 array data with entries
        in [0, q) and cols >= 1 columns, where q**2 * cols < 2**63.
        """
        m = object.__new__(cls)
        data.flags.writeable = False
        object.__setattr__(m, "q", q)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    def row_lists(self) -> list[list[int]]:
        """Entries as plain nested lists (JSON-friendly)."""
        return self.data.tolist()

    def apply(self, vec: NDArray) -> NDArray:
        """Matrix-vector product mod q; vec has length cols."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} does not match {self.cols} columns")
        return (self.data @ v) % self.q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.q == other.q and self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.q}, {self.rows}x{self.cols})"


def stack(matrices: Iterable[FieldMatrix]) -> FieldMatrix:
    """Vertically stack matrices over the same field and width."""
    mats = list(matrices)
    if not mats:
        raise ValueError("nothing to stack")
    q = mats[0].q
    cols = mats[0].cols
    for m in mats[1:]:
        if m.q != q:
            raise ValueError(f"mixed moduli {q} and {m.q}")
        if m.cols != cols:
            raise ValueError(f"mixed widths {cols} and {m.cols}")
    return FieldMatrix._trusted(q, np.concatenate([m.data for m in mats]))


def zero_columns(m: FieldMatrix, cols: Iterable[int]) -> FieldMatrix:
    """Copy of m with the given columns forced to zero.

    This realizes restriction of a linear map to the complementary
    variables: ranks of masked matrices measure what the rows still
    reveal once the masked variables are discounted.
    """
    idx = list(cols)
    for c in idx:
        if not 0 <= c < m.cols:
            raise IndexError(f"column {c} out of range for {m.cols} columns")
    arr = m.data.copy()
    arr[:, idx] = 0
    return FieldMatrix(m.q, arr)


# Inputs of at most this many rows and entries are eliminated and ranked on
# Python integers; numpy's per-call overhead dominates a column loop there.
SMALL_ROWS = 12
SMALL_ENTRIES = 256


def _small(rows: int, cols: int) -> bool:
    return rows <= SMALL_ROWS and rows * cols <= SMALL_ENTRIES


def _eliminate(arr: NDArray, q: int, reduced: bool) -> tuple[NDArray, list[int]]:
    """Gaussian elimination mod q on a copy of arr.

    Returns an echelon form of arr with pivot rows normalized to 1 and
    zero rows last, and its pivot column list.  With reduced=True the
    entries above pivots are cleared as well, giving the RREF.  The
    pivot columns of any echelon form of arr are the columns of arr
    outside the span of the columns before them, and the RREF of a
    matrix is unique; so both depend on arr alone, not on the order in
    which rows are eliminated.  Small inputs go row by row on Python
    integers, larger ones column by column in numpy, and callers get the
    same pivots, and with reduced=True the same matrix, either way.
    """
    if _small(*arr.shape):
        return _eliminate_rows(arr, q, reduced)
    return _eliminate_columns(arr, q, reduced)


def _eliminate_rows(arr: NDArray, q: int, reduced: bool) -> tuple[NDArray, list[int]]:
    """_eliminate in Python integers, one input row at a time.

    Each row is reduced by the pivot rows found so far, in the order
    they were found: each of those is 1 at its pivot column and zero at
    the earlier ones, so the remainder ends zero at every pivot column.
    A nonzero remainder is scaled to 1 at its first nonzero column and
    becomes a pivot row; with reduced=True that column is also cleared
    from the earlier pivot rows.
    """
    found: list[tuple[int, list[int]]] = []
    for row in arr.tolist():
        for c, prow in found:
            f = row[c]
            if f:
                row = [(x - f * y) % q for x, y in zip(row, prow)]
        for lead, x in enumerate(row):
            if x:
                break
        else:
            continue
        inv = pow(row[lead], -1, q)
        row = [x * inv % q for x in row]
        if reduced:
            for i, (c, prow) in enumerate(found):
                f = prow[lead]
                if f:
                    found[i] = (c, [(x - f * y) % q for x, y in zip(prow, row)])
        found.append((lead, row))
    found.sort()
    work = np.zeros(arr.shape, dtype=np.int64)
    if found:
        work[: len(found)] = np.array([prow for _, prow in found], dtype=np.int64)
    return work, [c for c, _ in found]


def _rank_rows(arr: NDArray, q: int) -> int:
    """Rank of a small arr mod q: its pivot count, on Python integers.

    Column by column, the first row still unused with a nonzero entry p
    there becomes a pivot row, and each other unused row with entry f
    there becomes p times itself minus f times the pivot row (p is
    invertible, so the row space is kept), on the columns to the right
    only, the ones still to be read.  Once no row is left unused the
    rank is known and the remaining columns are skipped.
    """
    rest, r = arr.tolist(), 0
    for c in range(arr.shape[1]):
        for i, row in enumerate(rest):
            if row[c]:
                break
        else:
            continue
        pivot = rest.pop(i)
        r += 1
        if not rest:
            break
        p, tail = pivot[c], pivot[c + 1:]
        for row in rest:
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) % q for x, y in zip(row[c + 1:], tail)]
    return r


def _eliminate_columns(arr: NDArray, q: int, reduced: bool) -> tuple[NDArray, list[int]]:
    """_eliminate in numpy, one column at a time.

    Pivots are chosen as the first nonzero entry scanning down each
    column; with reduced=True the entries above the pivots are cleared
    once all pivots are found.
    """
    work = arr.copy()
    rows, cols = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        inv = pow(int(work[r, c]), -1, q)
        work[r] = (work[r] * inv) % q
        below = work[r + 1:, c]
        mask = below != 0
        if mask.any():
            work[r + 1:][mask] = (work[r + 1:][mask] - np.outer(below[mask], work[r])) % q
        pivots.append(c)
        r += 1
    if reduced:
        for i, c in enumerate(pivots):
            above = work[:i, c]
            mask = above != 0
            if mask.any():
                work[:i][mask] = (work[:i][mask] - np.outer(above[mask], work[i])) % q
    return work, pivots


def rank(m: FieldMatrix) -> int:
    """Rank of m over its prime field."""
    if _small(*m.data.shape):
        return _rank_rows(m.data, m.q)
    return len(_eliminate_columns(m.data, m.q, reduced=False)[1])


def _inverses(x: NDArray, q: int) -> NDArray:
    """Elementwise x**(q-2) mod q: the inverse of each nonzero residue (Fermat)."""
    out = np.ones_like(x)
    base = x % q
    e = q - 2
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


def ranks(q: int, stacks: NDArray) -> NDArray:
    """Rank over GF(q) of each matrix in a stack of shape (C, R, n).

    Matrices with fewer rows are padded with zero rows, which leaves
    their rank as it is.  One elimination runs over all of them at once,
    column by column: in each matrix with a nonzero entry in the column,
    the first row holding one is the pivot row, and every row, the pivot
    row included, is reduced by a multiple of it so that the column
    becomes zero.  The reduced rows and the old pivot row span what the
    rows spanned before, and the old pivot row is independent of the
    reduced ones, being nonzero where they are all zero; so each such
    column lowers the rank by exactly one and the rank is their count.
    The work is vectorised over the stack, so this is for many small
    matrices; a single matrix is faster with rank.  Products of residues
    stay below q**2, so the moduli FieldMatrix accepts are exact here.
    """
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    work = np.asarray(stacks)
    if work.dtype.kind != "i" or work.ndim != 3:
        raise ValueError(
            f"need a 3-dimensional stack of integers, got dtype {work.dtype} and shape {work.shape}"
        )
    C, R, n = work.shape
    if q * q * max(n, 1) >= 1 << 63:
        raise ValueError(
            f"modulus {q} is too large for exact int64 products over "
            f"{n} columns: need q**2 * cols < 2**63"
        )
    # A fresh array, so the caller's stack is never written to.
    work = work.astype(np.int64, copy=False) % q
    found = np.zeros(C, dtype=np.intp)
    at = np.arange(C)
    for c in range(n):
        nonzero = work[:, :, c] != 0
        has = nonzero.any(axis=1)
        if not has.any():
            continue
        # A matrix that is zero in this column takes its first row, also
        # zero there, as pivot row; its factors are then all zero.
        top = work[at, nonzero.argmax(axis=1), c:]
        factor = work[:, :, c] * _inverses(top[:, 0], q)[:, None] % q
        work[:, :, c:] -= factor[:, :, None] * top[:, None, :]
        work[:, :, c:] %= q
        found += has
    return found


class RowBasis(NamedTuple):
    """Reduced row echelon basis of a row space, kept as a residual operator.

    op has one row per column of the matrix the basis was built from
    and one column per free column, a kept column that is not a pivot.
    Row c of op is the unit vector of c's place among the free columns
    when c is free, minus the entries on the free columns of the basis
    row with pivot c when c is a pivot, and zero when c was masked out.
    So x @ op is each row of x minus its pivot entries times the basis
    rows, read on the free columns.
    """

    q: int
    dim: int
    op: NDArray


def row_basis(m: FieldMatrix, keep: Sequence[int] | None = None) -> RowBasis:
    """RREF basis of the row space of m restricted to the columns keep.

    Restricting to keep has the same ranks as zeroing every other column
    with zero_columns; keep=None keeps all columns, and a column may be
    kept once only.
    """
    keep_idx = np.arange(m.cols) if keep is None else np.asarray(keep, dtype=np.intp)
    if ((keep_idx < 0) | (keep_idx >= m.cols)).any() or len(set(keep_idx.tolist())) != keep_idx.size:
        raise IndexError(f"columns {keep_idx.tolist()} out of range or repeated for {m.cols} columns")
    work, piv = _eliminate(m.data[:, keep_idx], m.q, reduced=True)
    free = np.ones(keep_idx.size, dtype=bool)
    free[piv] = False
    op = np.zeros((m.cols, keep_idx.size - len(piv)), dtype=np.int64)
    op[keep_idx[free], np.arange(op.shape[1])] = 1
    op[keep_idx[piv]] = -work[: len(piv)][:, free] % m.q
    return RowBasis(m.q, len(piv), op)


def residual_ranks(q: int, op: NDArray, cuts: Sequence[int], x: FieldMatrix) -> list[int]:
    """How much the rows of x add to the row space of each of several bases.

    op holds the bases' residual operators over GF(q) side by side, the
    i-th in columns cuts[i]:cuts[i + 1].  With Z the matrix a basis was
    built from, its entry is rank([Z; x]) - rank(Z) on its columns: x
    minus its pivot entries times the basis rows, which is x @ op on the
    free columns and zero on the pivots, spans with the basis what x
    did and is independent of the basis, which is the identity on the
    pivots.  The one int64 product x @ op is exact: each entry sums x.cols
    products of residues below q**2, and x passed FieldMatrix's guard
    q**2 * x.cols < 2**63.  A basis without free columns adds nothing.
    """
    if x.q != q or x.cols != op.shape[0]:
        raise ValueError(f"{x!r} does not match a basis over GF({q}) with {op.shape[0]} columns")
    res = x.data @ op % q
    return [
        rank(FieldMatrix._trusted(q, res[:, lo:hi])) if lo < hi else 0 for lo, hi in zip(cuts, cuts[1:])
    ]


def residual_rank(basis: RowBasis, x: FieldMatrix) -> int:
    """residual_ranks for one basis: rank([Z; x]) - rank(Z) on its columns."""
    return residual_ranks(basis.q, basis.op, (0, basis.op.shape[1]), x)[0]


def in_rowspace(
    m: FieldMatrix, target: Sequence[int] | NDArray
) -> NDArray | None | list[NDArray | None]:
    """Express targets as linear combinations of the rows of m.

    Args:
        m: matrix whose row space is queried.
        target: vector of length m.cols, or a 2-D stack of such
            vectors, one per row.

    Returns:
        For a vector, the coefficient vector c with c @ m == target
        (mod q), or None when target lies outside the row space; for a
        stack, a list of those, one per row.  Free coefficients are 0,
        so each result is deterministic.

    All targets are solved with one elimination of [m.T | targets.T].
    Its RREF is P @ [m.T | targets.T] for some invertible P, and since
    RREF is unique, P @ m.T is the RREF of m.T whatever order the rows
    were eliminated in: r = rank(m) pivots, all on m.T's columns, and
    zero rows from r down.  A target t is a combination of the columns
    of m.T exactly when P @ t is zero from row r down too.  Then its
    first r entries are the coefficients of the pivot columns of m.T,
    which are independent, so they are the unique solution supported
    there: each coefficient vector is the one a lone target would get.
    """
    t = np.asarray(target, dtype=np.int64) % m.q
    stacked = t.ndim == 2
    targets = t if stacked else t[None]
    if targets.ndim != 2 or targets.shape[1] != m.cols:
        raise ValueError(f"target shape {t.shape} does not match {m.cols} columns")
    if m.rows == 0:
        coeffs = [None if row.any() else np.zeros(0, dtype=np.int64) for row in targets]
    else:
        aug = np.hstack([m.data.T, targets.T])
        work, pivots = _eliminate(aug, m.q, reduced=True)
        basis = [c for c in pivots if c < m.rows]
        r = len(basis)
        solvable = ~work[r:, m.rows:].any(axis=0)
        full = np.zeros((targets.shape[0], m.rows), dtype=np.int64)
        full[:, basis] = work[:r, m.rows:].T
        coeffs = [c if ok else None for c, ok in zip(full, solvable)]
    return coeffs if stacked else coeffs[0]
