"""Exact linear algebra over prime fields.

Dense matrices with entries reduced mod q, Gaussian elimination with
first-nonzero pivoting, rank, row-space membership, column masking,
ranks of row blocks relative to cached reduced row echelon bases (one
elimination in a column order gives one residual operator, whose
first columns serve every prefix of the order, and one product serves
several operators side by side), and the ranks of a whole stack of
small matrices by one batched elimination.  All arithmetic is exact
integer arithmetic; there are no tolerances anywhere.  A single matrix
is eliminated on Python integers, which cannot overflow.  Its RREF
comes from sparse_rref, which keeps each row as a map of its nonzero
entries, so that its cost follows those entries and not the shape: an
echelon pass reduces each incoming row at its leading column only,
then a back-substitution pass clears the other pivot columns, last
pivot first; its pivot maps are read directly, never made dense.  Its
rank comes from a dense pivot count that stops at full row rank.
Residual products, matrix-vector products and the batched ranks run in
numpy int64, and matrices are refused unless q**2 * cols < 2**63,
which keeps them exact: a row of products of residues sums at most cols
terms below q**2.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _check_modulus(q: int, cols: int | None = None) -> None:
    """Refuse q unless it is prime and, given cols, q**2 * cols < 2**63."""
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    if cols is not None and q * q * cols >= 1 << 63:
        raise ValueError(
            f"modulus {q} is too large for exact int64 products over "
            f"{cols} columns: need q**2 * cols < 2**63"
        )


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
        _check_modulus(q, arr.shape[1])
        arr %= q
        arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, q: int, data: NDArray) -> "FieldMatrix":
        """Wrap data as a FieldMatrix without checking or copying it; it becomes read-only.

        For data already checked, such as results computed here from
        validated matrices or the entries of a loaded document: the caller
        guarantees a prime q and a 2-D int64 array data, fresh or already
        read-only, with entries in [0, q) and cols >= 1 columns, where
        q**2 * cols < 2**63.  This is the per-matrix cost of every stack
        and residual view, so it does the least that keeps the contract:
        the slots are set through their descriptors, past __setattr__,
        and the writeable flag is written only while it is still set, so
        a view of a frozen array (which numpy makes read-only) is wrapped
        without the write.
        """
        m = object.__new__(cls)
        if data.flags.writeable:
            data.flags.writeable = False
        cls.q.__set__(m, q)
        cls.data.__set__(m, data)
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
    cols = mats[0].data.shape[1]
    for m in mats[1:]:
        if m.q != q:
            raise ValueError(f"mixed moduli {q} and {m.q}")
        if m.data.shape[1] != cols:
            raise ValueError(f"mixed widths {cols} and {m.data.shape[1]}")
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


def _subtract(row: dict[int, int], f: int, pivot: dict[int, int], q: int) -> None:
    """row -= f * pivot mod q, in place, deleting the entries that cancel."""
    for j, y in pivot.items():
        x = (row.get(j, 0) - f * y) % q
        if x:
            row[j] = x
        else:
            del row[j]


def sparse_rref(arr: NDArray, q: int, width: int, start: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon rows of arr mod q on its first width columns, as sparse maps.

    Returns one pivot row per pivot column c < width, keyed by c: a
    {column: value} map of its nonzero entries, all right of c, without
    the leading 1 at c.  Columns from width on ride along and never
    hold a pivot.  Entries of arr must lie in [0, q).

    An echelon pass takes the rows of arr in order and reduces each only
    at its leading column, while a pivot row found earlier leads there;
    that pivot row is zero left of its lead, so the lead moves right.  A
    row that then leads at a new column c < width is scaled to 1 there
    and becomes the pivot row at c, and a row with no nonzero left
    before column width is dropped.  So a row is dropped exactly when,
    on the first width columns, it is a combination of the rows before
    it, and each pivot row is a combination of the rows kept.  A
    back-substitution pass then takes the pivot rows led at start or
    right of it, from the last lead to the first, and clears from each
    its entries at other pivot columns with the pivot rows there: those
    lie right of its lead, so they have been cleared already, and
    subtracting them brings in no pivot column.  With start = 0 the
    pivot rows are the nonzero rows of the RREF of arr[:, :width],
    extended to the other columns by the same row operations.
    """
    rows: list[dict[int, int]] = [{} for _ in range(arr.shape[0])]
    at, cols = arr.nonzero()
    for r, c, x in zip(at.tolist(), cols.tolist(), arr[at, cols].tolist()):
        rows[r][c] = x
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            if c >= width:
                break
            f = row.pop(c)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(f, -1, q)
                pivots[c] = {j: x * inv % q for j, x in row.items()}
                break
            _subtract(row, f, pivot, q)
    for c in sorted((c for c in pivots if c >= start), reverse=True):
        row = pivots[c]
        for j in [j for j in row if j in pivots]:
            _subtract(row, row.pop(j), pivots[j], q)
    return pivots


def rank(m: FieldMatrix) -> int:
    """Rank of m over its prime field: its pivot count, on Python integers.

    Column by column, the first row still unused with a nonzero entry p
    there becomes a pivot row, and each other unused row with entry f
    there becomes p times itself minus f times the pivot row (p is
    invertible, so the row space is kept), on the columns to the right
    only, the ones still to be read.  Once no row is left unused the
    rank is known and the remaining columns are skipped.
    """
    q, rest, r = m.q, m.data.tolist(), 0
    for c in range(m.cols):
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
    work = np.asarray(stacks)
    if work.dtype.kind != "i" or work.ndim != 3:
        raise ValueError(
            f"need a 3-dimensional stack of integers, got dtype {work.dtype} and shape {work.shape}"
        )
    C, R, n = work.shape
    _check_modulus(q, max(n, 1))
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
    """Reduced row echelon basis of a row space in a column order, kept as a residual operator.

    leads are the positions in the order that lead a basis row, the
    others being free.  op has one row per column of the matrix the
    basis was built from and one column per free position.  Row c of op
    is the unit vector of c's place among the free positions when c is
    free, minus the entries on the free positions of the basis row led
    at c when c leads one, and zero when c is not in the order.  So
    x @ op is each row of x minus its lead entries times the basis
    rows, read on the free positions.  The dim(e) rows led before e are
    the RREF of the prefix order[:e], and op[:, :e - dim(e)] is its
    operator: the rows led later, and later free columns' units, are
    zero there.
    """

    q: int
    leads: tuple[int, ...]
    op: NDArray

    def dim(self, e: int | None = None) -> int:
        """Rank of the prefix of length e in [0, len(order)], of the whole order when e is None."""
        n = len(self.leads) + self.op.shape[1]
        if e is not None and not 0 <= e <= n:
            raise IndexError(f"prefix length {e} out of range [0, {n}]")
        return bisect_left(self.leads, n if e is None else e)


def row_basis(m: FieldMatrix, order: Sequence[int] | None = None) -> RowBasis:
    """RREF basis of the row space of m in a column order; order=None is all columns in place.

    One sparse_rref of m[:, order] gives the basis rows, and op is
    filled from them in one assignment.  Restricting to a prefix of the
    order has the same ranks as zeroing every other column with
    zero_columns.  A column may appear in order once only.
    """
    idx = np.arange(m.cols) if order is None else np.asarray(order, dtype=np.intp)
    if ((idx < 0) | (idx >= m.cols)).any() or len(set(idx.tolist())) != idx.size:
        raise IndexError(f"columns {idx.tolist()} out of range or repeated for {m.cols} columns")
    pivots = sparse_rref(m.data[:, idx], m.q, idx.size, 0)
    leads = tuple(sorted(pivots))
    free = np.ones(idx.size, dtype=bool)
    free[list(leads)] = False
    # After back-substitution a basis row's entries all lie on free positions.
    column, place = idx.tolist(), (np.cumsum(free) - 1).tolist()
    at = [column[c] for c in leads for _ in pivots[c]]
    cols = [place[j] for c in leads for j in pivots[c]]
    vals = [m.q - x for c in leads for x in pivots[c].values()]
    op = np.zeros((m.cols, idx.size - len(leads)), dtype=np.int64)
    op[idx[free], np.arange(op.shape[1])] = 1
    op[at, cols] = vals
    return RowBasis(m.q, leads, op)


def residual_rank(basis: RowBasis, x: FieldMatrix, e: int | None = None) -> int:
    """rank([Z; x]) - rank(Z) on the prefix of length e of the basis's order, all of it when e is None.

    With Z the matrix the basis was built from: x minus its lead
    entries times the basis rows, which is x @ op on the prefix's free
    columns and zero on its leads, spans with the basis what x did and
    is independent of the basis, which is the identity on the leads.
    The int64 product is exact: each entry sums x.cols products of
    residues below q**2, and x passed FieldMatrix's guard
    q**2 * x.cols < 2**63.  A prefix without free columns adds nothing.
    """
    q, op = basis.q, basis.op
    if x.q != q or x.cols != op.shape[0]:
        raise ValueError(f"{x!r} does not match a basis over GF({q}) with {op.shape[0]} columns")
    w = op.shape[1] if e is None else e - basis.dim(e)
    return rank(FieldMatrix._trusted(q, x.data @ op[:, :w] % q)) if w else 0


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

    All targets are solved with one sparse_rref of [m.T | targets.T].
    Its RREF is P @ [m.T | targets.T] for some invertible P, and since
    RREF is unique, P @ m.T is the RREF of m.T whatever order the rows
    were eliminated in: r = rank(m) pivots on m.T's columns, and rows
    zero there from r down.  A target t is a combination of the columns
    of m.T exactly when P @ t is zero from row r down too: no row led
    in a target column leads in t's or has an entry there.  Then its
    first r entries are the coefficients of the pivot columns of m.T,
    which are independent, so they are the unique solution supported
    there: each coefficient vector is the one a lone target would get.
    Nothing in the package calls this; it is the reference decode is
    tested against, and a routine the benchmark traces.
    """
    t = np.asarray(target, dtype=np.int64) % m.q
    stacked = t.ndim == 2
    targets = t if stacked else t[None]
    if targets.ndim != 2 or targets.shape[1] != m.cols:
        raise ValueError(f"target shape {t.shape} does not match {m.cols} columns")
    n = m.rows
    pivots = sparse_rref(np.hstack([m.data.T, targets.T]), m.q, n + len(targets), 0)
    full = np.zeros((len(targets), n), dtype=np.int64)
    solvable = np.ones(len(targets), dtype=bool)
    for c, row in pivots.items():
        if c >= n:
            solvable[[c - n, *(j - n for j in row)]] = False
            continue
        for j, x in row.items():
            if j >= n:
                full[j - n, c] = x
    coeffs = [c if ok else None for c, ok in zip(full, solvable)]
    return coeffs if stacked else coeffs[0]
