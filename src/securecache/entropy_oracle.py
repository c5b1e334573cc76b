"""Brute-force entropy oracle, independent of the rank machinery.

Entropies of collections of files, caches and broadcasts are measured
by enumerating every assignment of the input vector, pushing each
through their matrices, and tallying the image.  Only the essential
columns are walked: dropping zero and repeated columns scales every
tally by one power of q (see _essential_columns).  Each image is coded
as a base-q integer and the codes are counted exactly.  A rank-agreement
block's collections are grouped by essential width: where the width
leaves at most _Enumerator.BLOCK inputs, a whole group's images are one
batched product, and each collection's sorted codes are checked for
uniformity by where their boundaries fall (see _sorted_units).  Wider
collections are walked block by block: the inputs that share their
leading digits form a block, and by linearity its images are one table,
the images of all trailing digit patterns, plus the block's shift, the
image of the leading digits, reduced mod q.  For linear maps of uniform
inputs the image must be uniform and its size a power of q, so every
entropy is an exact integer count of units; the oracle raises rather
than round.  No oracle value is computed with rank or elimination:
agreement of these counts with matrix ranks is the cross-check that
keeps the rank-based verifier honest.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .constructions import build_shares
from .ff_linalg import FieldMatrix, ranks, stack
from .scheme_model import DemandVector, LinearScheme, demand_from_index, demands_iter


# Collections (or share subsets) ranked together by one batched
# elimination.  Larger blocks save no more time and cost memory: on the
# oracle-agree pass, 1024 added about 2-3 MB of peak RSS and 4096 about
# 11-12 MB, while 256 ran as fast as 64 or 1024.
RANK_BLOCK = 256


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
            return s.layout.file_selector(s.field.q, self.index)
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
    resolved: Mapping[VariableRef, FieldMatrix] | None = None,
) -> FieldMatrix:
    """Row stack of the resolved variables; empty collections are legal.

    When given, resolved holds the matrix of every variable in refs,
    so none is resolved again.
    """
    mats = [ref.resolve(s) if resolved is None else resolved[ref] for ref in refs]
    if not mats:
        return FieldMatrix.zeros(s.field.q, 0, s.layout.total)
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
    """Exact image tallies over all q**n input vectors, for a stack of maps.

    An input is split into its first hi digits and its last lo digits,
    lo being the most with q**lo <= BLOCK, but at least one if n > 0.
    Images are coded as base-q Horner integers of their rows: a code
    fits one int64 for up to `group` rows (q**group < 2**62), and codes
    of that many rows are equal exactly when the images are.

    Small widths, hi = 0 and at most `group` rows: low_digits holds
    every input, so the images of a whole stack of maps are one product
    low_digits @ G^T % q per map, coded in one more.  A zero padding row
    adds 0 to every code and changes no tally.  The stack is coded CHUNK
    image entries at a time, each map's codes are sorted, and
    _sorted_units reads every map's entropy off its sorted codes.

    Otherwise each map is walked block by block: for a map G the low
    digits' images form one table and the high digits' images one shift
    per block; by linearity the block of inputs sharing their high
    digits maps to (table + shift) % q.  The codes are tallied exactly:
    into one counter per possible code when there are at most as many
    of those as inputs, by sorting all codes otherwise.  Where q**rows
    would reach 2**62, the rows are coded in groups and the group codes
    compared as raw bytes.  The oracle builds one enumerator per
    essential width n (see _essential_columns), not per layout width.
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
        if self.hi or m > self.group:
            return np.array([_tally_units(self.q, self.image_tally(G)) for G in stacks], dtype=np.int64)
        powers = self.powers[self.group - m :]
        step = max(1, self.CHUNK // (self.count * m))
        units = []
        for a in range(0, C, step):
            images = self.low_digits @ stacks[a : a + step].transpose(0, 2, 1) % self.q
            units.append(_sorted_units(self.q, np.sort(images @ powers, axis=1)))
        return np.concatenate(units)

    def image_tally(self, G: NDArray) -> NDArray:
        """How many inputs map to each image under the row map G, one entry per image."""
        q, m = self.q, G.shape[0]
        blocks = self._block_codes(G)
        if m <= self.group and q**m <= self.count:
            tally = np.zeros(q**m, dtype=np.int64)
            for codes in blocks:
                np.add.at(tally, codes[:, 0], 1)
            return tally[tally > 0]
        codes = np.concatenate(list(blocks))
        if m > self.group:
            codes = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))
        return np.unique(codes.ravel(), return_counts=True)[1]

    def _block_codes(self, G: NDArray) -> Iterator[NDArray]:
        """Codes of the images of each block of inputs, in input order."""
        q = self.q
        table = self.low_digits @ G[:, self.hi :].T % q
        yield self._encode(table)
        # The first block's shift is zero; the others are stored minus q
        # so that table + shift lies in [-q, q - 2] and adding q back
        # where it is negative reduces it mod q without a division.
        shifts = self.high_digits[1:] @ G[:, : self.hi].T % q - q
        for shift in shifts:
            images = table + shift
            images += (images >> 63) & q
            yield self._encode(images)

    def _encode(self, images: NDArray) -> NDArray:
        """Base-q Horner codes of each image row, one column per group of rows."""
        m = images.shape[1]
        codes = np.empty((len(images), -(-m // self.group)), dtype=np.int64)
        for j, a in enumerate(range(0, m, self.group)):
            group = images[:, a : a + self.group]
            codes[:, j] = group @ self.powers[self.group - group.shape[1] :]
        return codes


def _tally_units(q: int, counts: NDArray) -> int:
    """Exact log_q of the image size from its tallies, with uniformity enforced."""
    if counts.min() != counts.max():
        raise OracleInvariantError(
            f"non-uniform image for a linear map: tallies {sorted(set(counts.tolist()))}"
        )
    image_size = len(counts)
    value, size = 0, 1
    while size < image_size:
        size *= q
        value += 1
    if size != image_size:
        raise OracleInvariantError(f"image size {image_size} is not a power of {q}")
    return value


def _sorted_units(q: int, codes: NDArray) -> NDArray:
    """Exact log_q of each row's count of distinct codes, with uniformity enforced.

    codes is (C, T), each row the sorted image codes of all T = q**n
    inputs of one map.  A row with d distinct codes splits at d - 1
    boundaries, the positions p in [1, T) where codes[p] != codes[p - 1],
    and each code's tally is the gap between consecutive boundaries,
    0 and T included.  The image is uniform exactly when every gap is
    T / d, that is when d divides T and the boundaries are the d - 1
    multiples of T / d; q being prime, d divides q**n exactly when d is
    a power of q.  Both tests are exact integer comparisons.
    """
    T = codes.shape[1]
    edges = codes[:, 1:] != codes[:, :-1]
    sizes = edges.sum(axis=1) + 1
    units = np.full(len(sizes), -1, dtype=np.int64)
    value, size = 0, 1
    while size <= T:
        units[sizes == size] = value
        value, size = value + 1, size * q
    if (units < 0).any():
        raise OracleInvariantError(f"image size {sizes[units < 0][0]} is not a power of {q}")
    expected = np.arange(1, T) % (T // sizes)[:, None] == 0
    bad = (edges != expected).any(axis=1)
    if bad.any():
        cuts = np.flatnonzero(edges[bad.argmax()]) + 1
        tallies = np.diff(np.concatenate([[0], cuts, [T]]))
        raise OracleInvariantError(
            f"non-uniform image for a linear map: tallies {sorted(set(tallies.tolist()))}"
        )
    return units


def brute_entropy(
    s: LinearScheme, refs: Sequence[VariableRef], max_enum: int = 10**7
) -> int:
    """Entropy of a variable collection, in units, by full enumeration.

    Refuses politely when q**total exceeds max_enum.  Otherwise walks
    the q**n' inputs of the stacked matrices' n' essential columns (see
    _essential_columns) and checks that the image is uniform with size
    an exact power of q, raising OracleInvariantError if not.  Returns
    that exact logarithm; rank is never consulted.
    """
    q = s.field.q
    n = s.layout.total
    required = q**n
    if required > max_enum:
        raise EnumerationCapError(q, n, required, max_enum)
    G = stacked_matrix(s, refs)
    kept, (width,) = _essential_columns(G.data[None])
    return int(_Enumerator(q, width).entropy_units(kept[:, :, :width])[0])


def _bounded_deliveries(s: LinearScheme, max_deliveries: int) -> list[DemandVector]:
    """At most max_deliveries demands, evenly spread in lexicographic order from the first."""
    if max_deliveries < 1:
        raise ValueError(f"need max_deliveries >= 1, got {max_deliveries}")
    space = s.N**s.K
    if space <= max_deliveries:
        return list(demands_iter(s.N, s.K))
    spacing = max(max_deliveries - 1, 1)
    idxs = sorted({round(i * (space - 1) / spacing) for i in range(max_deliveries)})
    return [demand_from_index(s.N, s.K, i) for i in idxs]


def check_rank_agreement(
    s: LinearScheme,
    subset_size_cap: int,
    max_enum: int = 10**7,
    max_deliveries: int = 32,
) -> bool:
    """Brute-force entropy equals rank for every small variable collection.

    The universe is all files, all caches, and a bounded demand set of
    deliveries; every collection up to subset_size_cap variables
    (including the empty one) is checked.  Collections are walked in
    blocks of RANK_BLOCK: each collection's matrix is stacked once, the
    block's matrices are padded with zero rows and ranked together by
    one batched elimination.  The block's essential columns are found
    once, its collections grouped by essential width, and each group's
    entropies enumerated by one _Enumerator call on the group's stack,
    trimmed to its longest member, then compared with their ranks,
    stopping at the first group with a mismatch.  Only the comparison
    side ranks; the entropies are counts.
    """
    if subset_size_cap < 0:
        raise ValueError(f"need subset_size_cap >= 0, got {subset_size_cap}")
    q = s.field.q
    n = s.layout.total
    required = q**n
    if required > max_enum:
        raise EnumerationCapError(q, n, required, max_enum)
    universe: list[VariableRef] = (
        [VariableRef.of_file(i) for i in range(1, s.N + 1)]
        + [VariableRef.of_cache(k) for k in range(1, s.K + 1)]
        + [VariableRef.of_delivery(d) for d in _bounded_deliveries(s, max_deliveries)]
    )
    resolved = {ref: ref.resolve(s) for ref in universe}
    enums: dict[int, _Enumerator] = {}
    combos = itertools.chain.from_iterable(
        itertools.combinations(universe, size) for size in range(subset_size_cap + 1)
    )
    while block := list(itertools.islice(combos, RANK_BLOCK)):
        mats = [stacked_matrix(s, combo, resolved).data for combo in block]
        padded = np.zeros((len(mats), max(len(G) for G in mats), n), dtype=np.int64)
        for G, rows in zip(mats, padded):
            rows[: len(G)] = G
        kept, widths = _essential_columns(padded)
        rows = np.array([len(G) for G in mats])
        rank_of = ranks(q, padded)
        for width in set(widths.tolist()):
            group = np.flatnonzero(widths == width)
            enum = enums.get(width) or enums.setdefault(width, _Enumerator(q, width))
            units = enum.entropy_units(kept[group, : rows[group].max(), :width])
            if not np.array_equal(units, rank_of[group]):
                return False
    return True


def check_secret_sharing(
    K: int,
    t: int,
    exhaustive_limit: int = 30,
    sample_count: int = 1000,
    seed: int = 0,
) -> bool:
    """Threshold properties of the share expansion for (K, t).

    Every set of comb(K-1, t-1) shares must reveal nothing about the
    file (rank unchanged by masking the file columns), and all shares
    together must recover every file unit (the file columns add all B
    units to the rank of the key columns).  Subsets are checked
    exhaustively up to exhaustive_limit shares, by seeded sample
    beyond that.  They are drawn lazily and ranked RANK_BLOCK at a time
    by batched elimination, each next to its restriction to the key
    columns, which has the rank of its file-masked copy.
    """
    if sample_count < 1:
        raise ValueError(f"need sample_count >= 1, got {sample_count}")
    sys = build_shares(K, t)
    G = sys.generator
    B, m = sys.units, sys.key_units
    (r_all,), (r_keys,) = ranks(sys.q, G.data[None]), ranks(sys.q, G.data[None, :, B:])
    if r_all - r_keys != B:
        return False
    if sys.n_shares <= exhaustive_limit:
        subsets: Iterator[tuple[int, ...]] = itertools.combinations(range(sys.n_shares), m)
    else:
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(sys.n_shares), m))) for _ in range(sample_count))
    while block := list(itertools.islice(subsets, RANK_BLOCK)):
        subs = G.data[np.array(block)]
        if not np.array_equal(ranks(sys.q, subs), ranks(sys.q, subs[:, :, B:])):
            return False
    return True
