"""Brute-force entropy oracle, independent of the rank machinery.

Entropies of collections of files, caches and broadcasts are measured
by enumerating every assignment of the input vector, pushing each
through their matrices, and counting the distinct images.  Only the
essential columns are enumerated: dropping zero and repeated columns
scales every image's count of inputs by one power of q (see
_essential_columns).  Each image is coded exactly, as base-q integers
of its rows, and each map's codes of all its inputs are sorted.  One
argument then decides every entropy (see _sorted_units): the image of a
map with d distinct codes is uniform, of size a power of q, exactly
when d is a power of q and the sorted codes fall into d runs of
q**n / d equal codes.  For linear maps of uniform inputs the image must
be uniform and its size a power of q, so every entropy is an exact
integer count of units; the oracle raises rather than round.  The
rank-agreement check compares each distinct set of nonzero rows once:
collections whose stacks hold the same nonzero rows differ only in row
order, repeated rows and zero rows, which change neither the image
tally (the images are in bijection) nor the rank, so only the first is
ranked and enumerated (see check_rank_agreement).  A compared block's
collections are grouped by essential width, and each group's codes are
built together, a chunk of maps at a time (see _Enumerator).  No
oracle value is computed with rank or elimination: agreement of these
counts with matrix ranks is the cross-check that keeps the rank-based
verifier honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .constructions import build_shares
from .ff_linalg import FieldMatrix, ranks, stack
from .scheme_model import DemandVector, LinearScheme, demand_from_index, demands_iter


# Collections ranked together by one batched elimination.  Larger
# blocks save no more time and cost memory: on the oracle-agree pass,
# 1024 added about 2-3 MB of peak RSS and 4096 about 11-12 MB, while
# 256 ran as fast as 64 or 1024.
RANK_BLOCK = 256

# The most input vectors brute_entropy and check_rank_agreement enumerate,
# and the ceiling on the max_enum a caller may set: each walked map holds
# one code per input, so a larger cap could exhaust memory instead of
# refusing.
MAX_ENUM = 10**7

class EnumerationCapError(ValueError):
    """The input space is too large to enumerate; carries the size."""

    def __init__(self, q: int, n: int, required: int, max_enum: int) -> None:
        self.required = required
        super().__init__(
            f"brute-force enumeration needs {q}**{n} = {required} input vectors, "
            f"over the cap of {max_enum}"
        )


class OracleInvariantError(RuntimeError):
    """A linear image came out non-uniform or of non-power size."""


@dataclass(frozen=True)
class VariableRef:
    """Reference to one random variable of a scheme.

    kind is one of "file", "cache", "delivery"; index is the file or
    user for the first two, and demand the demand tuple for a delivery.
    """

    kind: str
    index: int = 0
    demand: tuple[int, ...] = ()

    @classmethod
    def of_file(cls, n: int) -> "VariableRef":
        return cls(kind="file", index=n)

    @classmethod
    def of_cache(cls, k: int) -> "VariableRef":
        return cls(kind="cache", index=k)

    @classmethod
    def of_delivery(cls, d: DemandVector | tuple[int, ...]) -> "VariableRef":
        entries = d.entries if isinstance(d, DemandVector) else tuple(d)
        return cls(kind="delivery", demand=entries)

    def resolve(self, s: LinearScheme) -> FieldMatrix:
        if self.kind == "file":
            return s.layout.file_selector(s.q, self.index)
        if self.kind == "cache":
            if not 1 <= self.index <= s.K:
                raise IndexError(f"user {self.index} out of range [1, {s.K}]")
            return s.cache[self.index - 1]
        if self.kind == "delivery":
            return s.delivery_matrix(DemandVector(self.demand))
        raise ValueError(f"unknown variable kind {self.kind!r}")


def stacked_matrix(
    s: LinearScheme,
    refs: Sequence[VariableRef],
    resolved: Sequence[FieldMatrix] | None = None,
) -> FieldMatrix:
    """Row stack of the resolved variables; empty collections are legal.

    When given, resolved holds the matrices of refs, in their order,
    so none is resolved again.
    """
    mats = [ref.resolve(s) for ref in refs] if resolved is None else resolved
    if not mats:
        return FieldMatrix.zeros(s.q, 0, s.layout.total)
    return stack(mats)


def _essential_columns(stacks: NDArray) -> tuple[NDArray, NDArray]:
    """Each matrix's essential columns moved first, and how many there are.

    stacks is a zero-padded (C, R, n) block.  In each matrix a column is
    essential unless it is all zero or equal, entry by entry, to an
    earlier one; the essential columns keep their order.  Returns the
    permuted block and the C kept widths n'; columns are compared entry
    by entry, so nothing can overflow and no field inverse is needed.

    Exact: let G' be G's first n' columns after the move.  For x uniform
    on GF(q)**n, summing each class of equal columns' x_j into one y_i
    is a surjective linear map onto GF(q)**n' whose fibres all hold
    q**(n - n') inputs, with G x = G' y; a zero column's x_j changes no
    image.  So each image tally of G is q**(n - n') times the matching
    tally of G': entropy, uniformity and power-of-q size carry over.
    """
    n = stacks.shape[2]
    equal = (stacks[:, :, :, None] == stacks[:, :, None, :]).all(axis=1)
    repeat = (equal & np.triu(np.ones((n, n), dtype=bool), 1)).any(axis=1)
    keep = stacks.any(axis=1) & ~repeat
    order = np.argsort(~keep, axis=1, kind="stable")
    return np.take_along_axis(stacks, order[:, None, :], axis=2), keep.sum(axis=1)


def _digit_rows(q: int, k: int) -> NDArray:
    """All q**k vectors of k base-q digits, most significant first, in counting order."""
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.arange(q**k, dtype=np.int64)[:, None] // powers % q


class _Enumerator:
    """Exact image sizes over all q**n input vectors, for a stack of maps.

    Images are coded as base-q Horner integers of their rows: a code fits
    one int64 for up to `group` rows (q**group < 2**62), and codes of that
    many rows are equal exactly when the images are.  More rows are coded
    in groups, and images compared as the raw bytes of their group codes.
    A zero padding row adds 0 to every code and changes no count.

    An input is split into its first hi digits and its last lo digits,
    lo being the most with q**lo <= BLOCK, but at least one if n > 0.
    The low digits' images form one table and the high digits' images
    one shift per block; by linearity the block of inputs sharing their
    high digits maps to (table + shift) % q.  A stack is coded about
    CHUNK image entries at a time, each map's codes are sorted in place,
    and _sorted_units reads every entropy off them.  The oracle builds
    one enumerator per essential width n (see _essential_columns).
    """

    BLOCK = 1 << 12
    CODE_LIMIT = 1 << 62
    # Image entries (maps x inputs x rows) coded per chunk of a stack,
    # 128 KB of int64 images.  Chunks of 2**12 to 2**16 entries ran alike
    # on the oracle-agree pass; larger ones only hold more memory.
    CHUNK = BLOCK << 2

    def __init__(self, q: int, n: int) -> None:
        self.q = q
        self.count = q**n
        lo = min(n, 1)
        while lo < n and q ** (lo + 1) <= self.BLOCK:
            lo += 1
        self.hi = n - lo
        self.low_digits = _digit_rows(q, lo)
        self.high_digits = _digit_rows(q, self.hi)
        self.group = 1
        while q ** (self.group + 1) < self.CODE_LIMIT:
            self.group += 1
        self.powers = q ** np.arange(self.group - 1, -1, -1, dtype=np.int64)

    def entropy_units(self, stacks: NDArray) -> NDArray:
        """Exact log_q of each map's image size, with uniformity enforced.

        stacks is a (C, m, n) block of C row maps, zero rows allowed;
        returns C integers.
        """
        C, m = stacks.shape[:2]
        if m == 0:
            return np.zeros(C, dtype=np.int64)
        step = max(1, self.CHUNK // (self.count * m))
        chunks = range(0, C, step)
        return np.concatenate([_sorted_units(self.q, self._codes(stacks[a : a + step])) for a in chunks])

    def _codes(self, stacks: NDArray) -> NDArray:
        """(c, q**n) codes of each map's images of all inputs, each row sorted in place."""
        q, (c, m) = self.q, stacks.shape[:2]
        width = len(self.low_digits)
        codes = np.empty((c, self.count, -(-m // self.group)), dtype=np.int64)
        table = self.low_digits @ stacks[:, :, self.hi :].transpose(0, 2, 1) % q
        # The first block's shift is zero; the others are stored minus q
        # so that table + shift lies in [-q, q - 2] and adding q back
        # where it is negative reduces it mod q without a division.
        shifts = self.high_digits[1:] @ stacks[:, :, : self.hi].transpose(0, 2, 1) % q - q
        for b in range(len(self.high_digits)):
            images = table
            if b:
                images = table + shifts[:, b - 1, None]
                images += (images >> 63) & q
            block = codes[:, b * width : (b + 1) * width]
            for j, a in enumerate(range(0, m, self.group)):
                group = images[:, :, a : a + self.group]
                block[:, :, j] = group @ self.powers[self.group - group.shape[2] :]
        if codes.shape[2] > 1:
            codes = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[2])))
        codes = codes.reshape(c, self.count)
        codes.sort(axis=1)
        return codes


def _sorted_units(q: int, codes: NDArray) -> NDArray:
    """Exact log_q of each row's count of distinct codes, with uniformity enforced.

    codes is (C, T), each row the sorted image codes of all T = q**n
    inputs of one map.  A row with d distinct codes changes value at
    d - 1 positions.  Its image is uniform exactly when every code's
    tally is T / d, which needs d to divide T; q being prime, d divides
    q**n exactly when d is a power of q.  Then the row is uniform exactly
    when each of its d runs of T / d places holds one code: a sorted run
    does exactly when its first and last codes are equal, and d runs of
    one code each, with d distinct codes in all, hold a different code
    each.  Both tests are exact comparisons.
    """
    T = codes.shape[1]
    edges = codes[:, 1:] != codes[:, :-1]
    sizes = edges.sum(axis=1) + 1
    units = np.full(len(sizes), -1, dtype=np.int64)
    uniform = np.ones(len(sizes), dtype=bool)
    value, size = 0, 1
    while size <= T:
        rows, run = sizes == size, T // size
        if rows.any():
            units[rows] = value
            uniform[rows] = (codes[rows, ::run] == codes[rows, run - 1 :: run]).all(axis=1)
        value, size = value + 1, size * q
    if (units < 0).any():
        raise OracleInvariantError(f"image size {sizes[units < 0][0]} is not a power of {q}")
    if not uniform.all():
        cuts = np.flatnonzero(edges[uniform.argmin()]) + 1
        tallies = np.diff(np.concatenate([[0], cuts, [T]]))
        raise OracleInvariantError(
            f"non-uniform image for a linear map: tallies {sorted(set(tallies.tolist()))}"
        )
    return units


def _check_cap(q: int, n: int, max_enum: int) -> None:
    """Refuse a max_enum above MAX_ENUM, then q**n inputs above max_enum."""
    if max_enum > MAX_ENUM:
        raise ValueError(f"max_enum {max_enum} exceeds the ceiling of {MAX_ENUM}")
    if q**n > max_enum:
        raise EnumerationCapError(q, n, q**n, max_enum)


def brute_entropy(s: LinearScheme, refs: Sequence[VariableRef]) -> int:
    """Entropy of a variable collection, in units, by full enumeration.

    Refuses politely when q**total exceeds MAX_ENUM.  Otherwise codes
    the images of all q**n' inputs of the stacked matrices' n' essential
    columns (see _essential_columns) and checks that the image is uniform
    with size an exact power of q, raising OracleInvariantError if not.
    Returns that exact logarithm; rank is never consulted.
    """
    _check_cap(s.q, s.layout.total, MAX_ENUM)
    G = stacked_matrix(s, refs)
    kept, (width,) = _essential_columns(G.data[None])
    return int(_Enumerator(s.q, width).entropy_units(kept[:, :, :width])[0])


def _bounded_deliveries(s: LinearScheme, max_deliveries: int) -> list[DemandVector]:
    """At most max_deliveries demands, evenly spread in lexicographic order from the first."""
    if max_deliveries < 1:
        raise ValueError(f"need max_deliveries >= 1, got {max_deliveries}")
    space = s.N**s.K
    if space <= max_deliveries:
        return list(demands_iter(s.N, s.K))
    spacing = max(max_deliveries - 1, 1)
    idxs = sorted({round(Fraction(i * (space - 1), spacing)) for i in range(max_deliveries)})
    return [demand_from_index(s.N, s.K, i) for i in idxs]


def _block_agrees(q: int, mats: Sequence[NDArray], enums: dict[int, _Enumerator]) -> bool:
    """Whether each matrix of a block of stacked collections has its rank as enumerated entropy.

    The block's matrices are scattered into one zero-padded stack and
    ranked together by one batched elimination.  The block's essential
    columns are found once, its matrices grouped by essential width, and
    each group's entropies enumerated by one _Enumerator call on the
    group's stack, trimmed to its longest member, then compared with
    their ranks, stopping at the first group with a mismatch.  enums
    keeps one enumerator per width across blocks.
    """
    rows = np.array([len(G) for G in mats])
    padded = np.zeros((len(mats), rows.max(), mats[0].shape[1]), dtype=np.int64)
    # One scatter: row r of matrix c goes to padded[c, r].
    at = np.repeat(np.arange(len(mats)), rows)
    padded[at, np.arange(len(at)) - np.repeat(np.cumsum(rows) - rows, rows)] = np.concatenate(mats)
    kept, widths = _essential_columns(padded)
    rank_of = ranks(q, padded)
    for width in set(widths.tolist()):
        group = np.flatnonzero(widths == width)
        enum = enums.get(width) or enums.setdefault(width, _Enumerator(q, width))
        units = enum.entropy_units(kept[group, : rows[group].max(), :width])
        if not np.array_equal(units, rank_of[group]):
            return False
    return True


def check_rank_agreement(
    s: LinearScheme, subset_size_cap: int, max_enum: int = MAX_ENUM, max_deliveries: int = 32
) -> bool:
    """Brute-force entropy equals rank for every small variable collection.

    The universe is all files, all caches, and a bounded demand set of
    deliveries; every collection up to subset_size_cap variables
    (including the empty one) is checked.  Each collection's matrix is
    stacked once from the universe's matrices, taken by position, and
    keyed by the set of its nonzero rows, each coded as the base-q
    integer of its entries: below q**n <= max_enum <= MAX_ENUM, so the
    codes are exact and equal exactly when the rows are.  Only the first
    collection with each key is compared.  This is exact: two matrices G
    and G' with the same set of nonzero rows differ only in row order,
    repeated rows and zero rows.  Each row of either is zero or a row of
    the other, so G x and G' x determine each other: the images are in
    bijection, with equal tallies, and the row spaces are equal.  A later
    collection's entropy and rank are therefore the first one's.  The
    compared collections are gathered into blocks of RANK_BLOCK, and
    _block_agrees ranks and enumerates each on its own rows.  Only the
    comparison side ranks; the entropies are counts.
    """
    if subset_size_cap < 0:
        raise ValueError(f"need subset_size_cap >= 0, got {subset_size_cap}")
    q = s.q
    n = s.layout.total
    _check_cap(q, n, max_enum)
    universe: list[VariableRef] = (
        [VariableRef.of_file(i) for i in range(1, s.N + 1)]
        + [VariableRef.of_cache(k) for k in range(1, s.K + 1)]
        + [VariableRef.of_delivery(d) for d in _bounded_deliveries(s, max_deliveries)]
    )
    resolved = [ref.resolve(s) for ref in universe]
    enums: dict[int, _Enumerator] = {}
    base = q**n
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    seen: set[bytes] = set()
    fresh: list[NDArray] = []
    # Each collection as its refs and, position by position, their matrices.
    combos = zip(*(
        itertools.chain.from_iterable(itertools.combinations(seq, size) for size in range(subset_size_cap + 1))
        for seq in (universe, resolved)
    ))
    while block := list(itertools.islice(combos, RANK_BLOCK)):
        mats = [stacked_matrix(s, refs, parts).data for refs, parts in block]
        # Row codes plus base times the collection's place in the block,
        # sorted: each collection's codes form one ascending run, and its
        # key is the int32 bytes of the run's distinct nonzero codes.
        rows = [len(G) for G in mats]
        codes = np.sort(np.concatenate(mats) @ powers + np.repeat(np.arange(len(mats)) * base, rows))
        distinct = np.ones(len(codes), dtype=bool)
        distinct[1:] = codes[1:] != codes[:-1]
        distinct &= codes % base != 0
        codes = codes[distinct]
        keys = (codes % base).astype(np.int32).tobytes()
        ends = (4 * np.searchsorted(codes, base * np.arange(1, len(mats) + 1))).tolist()
        for G, start, end in zip(mats, [0, *ends], ends):
            key = keys[start:end]
            if key not in seen:
                seen.add(key)
                fresh.append(G)
        if len(fresh) >= RANK_BLOCK:
            if not _block_agrees(q, fresh[:RANK_BLOCK], enums):
                return False
            del fresh[:RANK_BLOCK]
    return not fresh or _block_agrees(q, fresh, enums)


def check_secret_sharing(K: int, t: int) -> bool:
    """Threshold properties of the share expansion for (K, t), read off its generator.

    Every set of m = comb(K-1, t-1) shares must reveal nothing about the
    file (rank unchanged by masking the file columns), and all n shares
    together must recover its B units.  Both hold exactly when the
    generator has build_shares' form: file block [I_B; 0], and key rows
    (1, x, ..., x**(m-1)) on nodes x, key column 1, distinct mod q.  Any
    m key rows then form a Vandermonde matrix, whose determinant, the
    product of the nodes' differences, is nonzero mod q: m shares have
    rank m with or without their file columns, and the last m shares
    give the keys, after which the first B give the file.  A generator
    of any other form is refused.  O(n*m) comparisons, no rank routine.
    """
    sys = build_shares(K, t)
    G, B, m = sys.generator.data, sys.units, sys.key_units
    keys = G[:, B:]
    if keys.shape[1] != m or not np.array_equal(G[:, :B], np.eye(len(G), B, dtype=np.int64)):
        return False
    # Column j + 1 is column j times the nodes; with m = 1 there is no node column.
    nodes = keys[:, 1:2]
    return bool(
        (keys[:, 0] == 1).all()
        and np.array_equal(keys[:, 1:], keys[:, :-1] * nodes % sys.q)
        and (m == 1 or len(set(nodes[:, 0].tolist())) == len(G))
    )
