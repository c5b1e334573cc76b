"""Data model for linear secure caching schemes.

A scheme over N unit-subdivided files and K users is a prime modulus q, a
variable layout (which column of the global input vector is which file
unit or key unit), one cache matrix per user, and a delivery rule
mapping a demand vector to a broadcast matrix.  All size accounting
(cache memory M, worst-case rate R, randomness L) is done in exact
rationals, measured in file units: one unit is a 1/B fraction of a file.
Every exhaustive sweep over demands goes through demands_iter, the one
place that refuses more than DEMAND_CAP of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

from .ff_linalg import FieldMatrix, _check_modulus

Rational = Fraction


def rational_json(x: Rational) -> list[int]:
    """The one JSON encoding of an exact rational: [numerator, denominator]."""
    return [x.numerator, x.denominator]


@dataclass(frozen=True)
class VariableLayout:
    """Column layout of the global input vector.

    The first N*B columns hold the file units, file n occupying the
    contiguous block file_columns(n); the remaining columns hold one
    uniform key unit each, in key_names order.
    """

    N: int
    B: int
    key_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least 2 files, got {self.N}")
        if self.B < 1:
            raise ValueError(f"need at least 1 unit per file, got {self.B}")
        if len(set(self.key_names)) != len(self.key_names):
            raise ValueError("key names must be unique")

    @property
    def total(self) -> int:
        return self.N * self.B + len(self.key_names)

    def file_columns(self, n: int) -> range:
        """Columns of file n, 1-indexed n in [1, N]."""
        if not 1 <= n <= self.N:
            raise IndexError(f"file index {n} out of range [1, {self.N}]")
        return range((n - 1) * self.B, n * self.B)

    def key_column(self, name: str) -> int:
        try:
            return self.N * self.B + self._key_index[name]
        except KeyError:
            raise KeyError(f"unknown key {name!r}") from None

    @cached_property
    def _key_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.key_names)}

    def file_selector(self, q: int, n: int) -> FieldMatrix:
        """B rows selecting the units of file n out of the input vector."""
        rows = np.zeros((self.B, self.total), dtype=np.int64)
        for i, c in enumerate(self.file_columns(n)):
            rows[i, c] = 1
        return FieldMatrix(q, rows)


@dataclass(frozen=True)
class DemandVector:
    """One file index per user, 1-indexed."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("demand vector must not be empty")
        for d in self.entries:
            if type(d) is not int or d < 1:
                raise ValueError(f"demands are 1-indexed positive ints, got {d!r}")

    @property
    def K(self) -> int:
        return len(self.entries)

    @property
    def uniform(self) -> bool:
        return len(set(self.entries)) == 1

    def __getitem__(self, user: int) -> int:
        """Demand of a user, 1-indexed."""
        if not 1 <= user <= self.K:
            raise IndexError(f"user {user} out of range [1, {self.K}]")
        return self.entries[user - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


# Exhaustive sweeps over demands refuse beyond this many demands.
DEMAND_CAP = 10**6


def demands_iter(N: int, K: int) -> Iterator[DemandVector]:
    """All N**K demand vectors in lexicographic order, refused at the call past DEMAND_CAP."""
    if N < 1 or K < 1:
        raise ValueError(f"need N >= 1 and K >= 1, got N={N}, K={K}")
    if N**K > DEMAND_CAP:
        raise ValueError(
            f"{N}**{K} = {N**K} demands exceed cap {DEMAND_CAP}; "
            "use sampled verification instead of an exhaustive sweep"
        )
    return map(DemandVector, itertools.product(range(1, N + 1), repeat=K))


def demand_from_index(N: int, K: int, index: int) -> DemandVector:
    """The index-th demand vector in lexicographic order (0-indexed)."""
    if not 0 <= index < N**K:
        raise IndexError(f"demand index {index} out of range [0, {N**K})")
    digits = []
    for _ in range(K):
        digits.append(index % N)
        index //= N
    return DemandVector(tuple(d + 1 for d in reversed(digits)))


@dataclass(frozen=True, eq=False)
class LinearScheme:
    """A complete linear placement-and-delivery scheme.

    cache[k-1] is user k's cache matrix over GF(q), q a prime with q**2
    * layout.total < 2**63; delivery maps a demand vector to the broadcast
    matrix for that demand.  Both act on the global input vector described
    by layout.  randomness is the scheme's declared key budget L in file
    units; when omitted it defaults to the key count |key_names| / B.
    """

    q: int
    layout: VariableLayout
    K: int
    cache: tuple[FieldMatrix, ...]
    delivery: Callable[[DemandVector], FieldMatrix]
    label: str
    params: Mapping[str, int] = field(default_factory=dict)
    randomness: Rational | None = None

    def __post_init__(self) -> None:
        _check_modulus(self.q, self.layout.total)
        if self.K < 1:
            raise ValueError(f"need at least 1 user, got {self.K}")
        if len(self.cache) != self.K:
            raise ValueError(f"{len(self.cache)} cache matrices for {self.K} users")
        for k, m in enumerate(self.cache, start=1):
            if m.q != self.q:
                raise ValueError(f"cache {k} uses modulus {m.q}, scheme uses {self.q}")
            if m.cols != self.layout.total:
                raise ValueError(f"cache {k} has {m.cols} columns, layout has {self.layout.total}")

    @property
    def N(self) -> int:
        return self.layout.N

    @property
    def B(self) -> int:
        return self.layout.B

    def delivery_matrix(self, d: DemandVector) -> FieldMatrix:
        """Broadcast matrix for demand d, with shape checks."""
        if d.K != self.K:
            raise ValueError(f"demand has {d.K} entries for {self.K} users")
        for n in d:
            if n > self.N:
                raise ValueError(f"demand {n} out of range [1, {self.N}]")
        m = self.delivery(d)
        if m.q != self.q or m.cols != self.layout.total:
            raise ValueError("delivery rule returned a matrix with the wrong shape")
        return m


def memory_of(s: LinearScheme) -> Rational:
    """Cache memory M in file units; all users must cache equally much."""
    sizes = {m.rows for m in s.cache}
    if len(sizes) != 1:
        raise ValueError(f"users cache unequal row counts {sorted(sizes)}")
    return Fraction(sizes.pop(), s.B)


def randomness_of(s: LinearScheme) -> Rational:
    """Declared key budget L in file units."""
    if s.randomness is not None:
        return s.randomness
    return Fraction(len(s.layout.key_names), s.B)


def worst_case_rate(s: LinearScheme) -> Rational:
    """Worst-case broadcast rate R in file units, over all N**K demands (at most DEMAND_CAP)."""
    return Fraction(max(s.delivery_matrix(d).rows for d in demands_iter(s.N, s.K)), s.B)
