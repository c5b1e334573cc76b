"""Machine checks of decodability and security for linear schemes.

Everything a user k observes under demand d is the row stack of their
cache matrix and the broadcast matrix.  Exact rank identities over the
prime field decide both conditions:

* correctness: the observation determines the requested file exactly
  when rank(observed) equals rank(observed with the requested file's
  columns zeroed) plus the file's unit count;
* security: the observation is independent of all other files exactly
  when zeroing all other files' columns does not change the rank.

All three ranks come from one kernel.  For a cache Z with RREF basis E
(pivot columns P, so E[:, P] = I) and a broadcast X,

    rank([Z; X]) = rank(Z) + rank(X - X[:, P] @ E),

because the residual rows differ from X by combinations of E's rows
and vanish on P, where E is the identity.  Zeroing a set of columns
acts on each row separately, so it commutes with stacking: the masked
stack is [masked Z; masked X], and one basis of user k's masked cache
serves every demand with the same requested file d_k.  Masking keeps a
set of columns, and the views a check needs (all columns, without a
file, and only a file and the keys) are prefixes of N column orders,
one per file; the RREF of Z in one order, kept as one residual
operator, holds every prefix's in its first columns.  Each cache is
thus eliminated at most N times per scheme, and each check eliminates
only the residual of the broadcast rows against two operators side by
side, whose column slices are its three views.  verify_all takes
demands VERIFY_BLOCK at a time, builds each broadcast once, and forms
the residuals of all of a block's checks with the same (user,
requested file) by one product of their stacked broadcasts.

A VerificationReport holds one int32 table, a row per check: the
demand's position among the checked demands, the user and the three
ranks.  Its verdicts, demand count and failures are read off the table,
and a CheckRecord is built only when one is read.

The unit-cache and unit-rate identities (check_lemma1_lemma2,
check_lemma3_lemma4) rank stacks holding a file selector W_a, which is
the identity on file a's columns and zero elsewhere, so

    rank([W_a; M]) = B + rank(M without file a's columns)

turns each into ranks of masked stacks, computed on the same kernel.
Both are exact; check_lemma3_lemma4 gives the unit-rate one's three
conditions, and its refusal.

decode and simulate exercise the same schemes on concrete symbol
vectors, which keeps the rank checks honest.  decode reads each
requested unit off one sparse_rref of the observations beside their
symbols, the file's columns last: the symbol entry of the row led at
the unit.  A row that depends on the rows before it is dropped, so even
for inconsistent symbols, such as a corrupted broadcast, the value is
the one combination of the kept rows that gives the unit, the same as
in_rowspace's coefficients times the symbols.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .ff_linalg import FieldMatrix, RowBasis, rank, ranks, row_basis, sparse_rref, stack
from .scheme_model import (
    DEMAND_CAP, DemandVector, LinearScheme, demand_from_index, demands_iter, memory_of
)


# Demands verify_all holds and ranks together: their broadcasts, a group's
# residuals and their table rows.  On otp (2, 12) the peak is 35 bytes a
# check under tracemalloc (67 with 256 a block), and blocks of 32 to 256
# verify the theorem3 sweep members equally fast.  check_lemma3_lemma4
# ranks its choices of residuals as many at a time.
VERIFY_BLOCK = 64


class PreconditionError(ValueError):
    """The scheme lacks what a lemma check needs: unit cache size or unit rate."""


class NotDecodableError(ValueError):
    """Some requested units are not combinations of the observed symbols.

    units lists every such unit of the requested file, 1-indexed; the
    message names the first.
    """

    def __init__(self, message: str, units: Sequence[int]) -> None:
        super().__init__(message)
        self.units = tuple(units)


@dataclass(frozen=True)
class CheckRecord:
    """The rank triple of user `user` under `demand`; both verdicts follow from it."""

    demand: tuple[int, ...]
    user: int
    rank_full: int
    rank_masked_requested: int
    rank_masked_others: int
    file_units: int

    @property
    def correct(self) -> bool:
        return self.rank_full == self.rank_masked_requested + self.file_units

    @property
    def secure(self) -> bool:
        return self.rank_full == self.rank_masked_others

    @property
    def ok(self) -> bool:
        return self.correct and self.secure

    def as_dict(self) -> dict:
        return {
            "demand": list(self.demand),
            "user": self.user,
            "correct": self.correct,
            "rank_full": self.rank_full,
            "rank_masked_requested": self.rank_masked_requested,
            "file_units": self.file_units,
            "secure": self.secure,
            "rank_masked_others": self.rank_masked_others,
        }


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Every check of verify_all, one row each of a read-only int32 table.

    A row is (position, user, rank_full, rank_masked_requested,
    rank_masked_others): K rows per demand in user order.  position
    counts the checked demands from 0; indices holds each one's index
    in lexicographic order, or is None when all demands are checked and
    the position is the index.  file_units is the scheme's B.
    """

    label: str
    N: int
    K: int
    policy: str
    file_units: int
    table: NDArray
    indices: tuple[int, ...] | None = None

    def _failing(self) -> NDArray:
        full, requested, others = self.table[:, 2:].T
        return (full != requested + self.file_units) | (full != others)

    def _records(self, rows: NDArray) -> Iterator[CheckRecord]:
        last, demand = -1, ()
        for p, k, full, requested, others in rows.tolist():
            if p != last:
                i = p if self.indices is None else self.indices[p]
                last, demand = p, demand_from_index(self.N, self.K, i).entries
            yield CheckRecord(demand, k, full, requested, others, self.file_units)

    @property
    def records(self) -> _Records:
        return _Records(self)

    @property
    def passed(self) -> bool:
        return not self._failing().any()

    @property
    def demand_count(self) -> int:
        return len(self.table) // self.K

    def failures(self) -> list[CheckRecord]:
        return list(self._records(self.table[self._failing()]))

    def as_dict(self) -> dict:
        """The report as JSON data; "records" is an iterator making each dict as it is read."""
        return {
            "label": self.label,
            "N": self.N,
            "K": self.K,
            "policy": self.policy,
            "demands_checked": self.demand_count,
            "passed": self.passed,
            "failures": [r.as_dict() for r in self.failures()],
            "records": (r.as_dict() for r in self.records),
        }


class _Records(Sequence[CheckRecord]):
    """A report's records in table order, each built only when read; len reads the table."""

    def __init__(self, report: VerificationReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.table)

    def __getitem__(self, i: int | slice) -> CheckRecord | tuple[CheckRecord, ...]:
        rows = self._report.table[i]
        records = self._report._records(rows if isinstance(i, slice) else rows[None])
        return tuple(records) if isinstance(i, slice) else next(records)

    def __iter__(self) -> Iterator[CheckRecord]:
        return self._report._records(self._report.table)


def observed_matrix(s: LinearScheme, d: DemandVector, k: int) -> FieldMatrix:
    """Row stack of user k's cache and the broadcast for demand d."""
    if not 1 <= k <= s.K:
        raise IndexError(f"user {k} out of range [1, {s.K}]")
    return stack([s.cache[k - 1], s.delivery_matrix(d)])


class _RankKernel:
    """Ranks of [Z_k; X] for one scheme, reusing bases of each Z_k.

    Order a is [F_a, keys, F_{a+1}, ..., F_N, F_1, ..., F_{a-1}]: its
    prefix of length only keeps file a's and the key columns, and its
    prefix of length without drops file a - 1 (file N for a = 1).
    basis(k, a) eliminates Z_k in order a once.  A check for file a
    reads all columns and "only a" off order a, and "without a" off
    order a + 1 (1 for a = N): its product is X against op_a beside
    the first free columns of op_{a+1}.
    """

    def __init__(self, s: LinearScheme) -> None:
        self.s = s
        layout = s.layout
        keys = [layout.key_column(name) for name in layout.key_names]
        files = [list(layout.file_columns(n)) for n in range(1, s.N + 1)]
        self._orders = {
            a: [*files[a - 1], *keys, *itertools.chain(*files[a:], *files[: a - 1])]
            for a in range(1, s.N + 1)
        }
        self.only = s.B + len(keys)
        self.without = layout.total - s.B
        self._bases: dict[tuple[int, int], RowBasis] = {}
        self._checks: dict[tuple[int, int], tuple[tuple[int, ...], NDArray, list[tuple[int, int]]]] = {}

    def basis(self, k: int, a: int) -> RowBasis:
        """Z_k's basis in order a."""
        b = self._bases.get((k, a))
        if b is None:
            b = self._bases[k, a] = row_basis(self.s.cache[k - 1], self._orders[a])
        return b

    def _check(self, k: int, a: int) -> tuple[tuple[int, int, int], NDArray, list[tuple[int, int]]]:
        """Bases' dims, operator and views of user k's checks for file a, made once."""
        check = self._checks.get((k, a))
        if check is None:
            own, after = self.basis(k, a), self.basis(k, a % self.s.N + 1)
            dims = (own.dim(), after.dim(self.without), own.dim(self.only))
            n, w = own.op.shape[1], self.without - dims[1]
            views = [(0, n), (n, n + w), (0, self.only - dims[2])]
            check = self._checks[k, a] = (dims, np.hstack([own.op, after.op[:, :w]]), views)
        return check

    def rows(self, block: list[tuple[int, DemandVector]]) -> list[tuple[int, ...]]:
        """Table rows of a block of (position, demand) pairs, K per demand in user order.

        One product reduces the stacked broadcasts of the checks with the
        same (user, requested file); each check ranks its residual rows in
        its three views, and a view without free columns adds nothing.
        The int64 product is exact: each entry sums layout.total products
        of residues below q**2, and the scheme holds q**2 * total < 2**63.
        """
        s, q = self.s, self.s.q
        X = [s.delivery_matrix(d).data for _, d in block]
        groups: dict[tuple[int, int], list[int]] = {}
        for j, (_, d) in enumerate(block):
            for k, a in enumerate(d.entries, 1):
                groups.setdefault((k, a), []).append(j)
        rows: list[tuple[int, ...]] = [()] * (len(block) * s.K)
        for (k, a), js in groups.items():
            dims, op, views = self._check(k, a)
            res = np.concatenate([X[j] for j in js]) @ op
            res %= q
            # Frozen once, so that its views are read-only and wrap without a flag write.
            res.flags.writeable = False
            end = 0
            for j in js:
                start, end = end, end + len(X[j])
                full, without, only = [
                    rank(FieldMatrix._trusted(q, res[start:end, lo:hi])) if lo < hi else 0 for lo, hi in views
                ]
                rows[j * s.K + k - 1] = (block[j][0], k, dims[0] + full, dims[1] + without, dims[2] + only)
        return rows


def _sampled_indices(N: int, K: int, count: int, seed: int) -> list[int]:
    """Deterministic demand sample always containing the uniform demands."""
    space = N**K
    if count >= space:
        return list(range(space))
    uniform = {(v - 1) * (space - 1) // (N - 1) for v in range(1, N + 1)} if N > 1 else {0}
    rng = random.Random(seed)
    picked = set(itertools.islice(
        (i for i in rng.sample(range(space), min(space, count + len(uniform))) if i not in uniform),
        max(0, count - len(uniform)),
    ))
    return sorted(uniform | picked)


def verify_all(
    s: LinearScheme,
    policy: str = "all",
    count: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Run the correctness and security rank checks over demands.

    Args:
        s: the scheme under test.
        policy: "all" for every demand (at most DEMAND_CAP), or
            "sample" for a seeded sample that always includes the
            uniform demands.
        count: sample size, 1 to DEMAND_CAP; required for
            policy="sample" and refused with policy="all".  The N
            uniform demands are always added, so a count below N
            checks N demands (and one of at least N**K checks all).
        seed: sample seed; required for policy="sample" and refused
            with policy="all".

    Returns:
        A report with one table row per (demand, user) pair, in
        lexicographic demand order.
    """
    if policy == "all":
        if count is not None or seed is not None:
            raise ValueError("count and seed apply only to policy='sample'")
        indices, total = None, s.N**s.K
        demands = demands_iter(s.N, s.K)
        policy_desc = "all"
    elif policy == "sample":
        if count is None or seed is None:
            raise ValueError("policy='sample' needs count and seed")
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        if count > DEMAND_CAP:
            raise ValueError(f"sample count {count} exceeds cap {DEMAND_CAP}")
        indices = tuple(_sampled_indices(s.N, s.K, count, seed))
        demands = (demand_from_index(s.N, s.K, i) for i in indices)
        total = len(indices)
        policy_desc = f"sample(count={count}, seed={seed})"
    else:
        raise ValueError(f"unknown policy {policy!r}")

    kernel = _RankKernel(s)
    # Positions are below DEMAND_CAP: int32 holds them, where an index may not fit.
    table = np.empty((total * s.K, 5), dtype=np.int32)
    positioned, end = enumerate(demands), 0
    while block := list(itertools.islice(positioned, VERIFY_BLOCK)):
        start, end = end, end + len(block) * s.K
        table[start:end] = kernel.rows(block)
    table.flags.writeable = False
    return VerificationReport(s.label, s.N, s.K, policy_desc, s.B, table, indices)


def _columns_without(s: LinearScheme, n: int) -> list[int]:
    """Every column but file n's."""
    return [c for c in range(s.layout.total) if c not in s.layout.file_columns(n)]


def check_lemma1_lemma2(s: LinearScheme) -> bool:
    """Joint-entropy identities specific to unit cache size.

    First: under any demand, the broadcast together with a requested
    file already determines the caches of all users requesting that
    file (for groups of 1 to K-1 users).  Second: any single file and
    all caches together are mutually independent.  By the file-selector
    reduction these read: under every non-uniform demand d, each cache
    Z_k adds no rank to the broadcast without file d_k's columns; and
    all caches stacked, without any one file's columns, have the rank
    sum of the single caches.  A cache adds no rank exactly when its
    residual against the broadcast's basis is zero, so for each
    requested file a, one product of the stacked caches of the users
    requesting a with the basis of the broadcast without file a decides
    them all.  Every demand is checked, so schemes with more than
    DEMAND_CAP demands are refused; a scheme whose cache size is not 1
    raises PreconditionError.
    """
    demands = demands_iter(s.N, s.K)
    if memory_of(s) != 1:
        raise PreconditionError(f"identities require cache size 1, scheme has M={memory_of(s)}")
    without = {n: _columns_without(s, n) for n in range(1, s.N + 1)}
    caches = stack(s.cache)
    for d in demands:
        if d.uniform:
            continue
        X = s.delivery_matrix(d)
        # Each cache has B rows: the file each cache row's user requests.
        wants = np.repeat(d.entries, s.B)
        for a in set(d):
            if (caches.data[wants == a] @ row_basis(X, without[a]).op % s.q).any():
                return False
    cache_rank_sum = sum(rank(Z) for Z in s.cache)
    return all(row_basis(caches, cols).dim() == cache_rank_sum for cols in without.values())


def check_lemma3_lemma4(s: LinearScheme) -> bool:
    """Joint-entropy identities specific to unit broadcast rate, checked exactly.

    For user u and file a, let C_a be the class of broadcasts with u's
    request a.  First, C_a is a function of W_a and Z_u: by the
    file-selector reduction, C_a adds no rank to Z_u without file a's
    columns, a zero product with that view's residual operator.  Second,
    C_a, one representative r_x of each other class and, if given, a
    foreign file b (then without b's class) are independent:
    dim(C_a without b) + added = dim(C_a) + the sum of rank(r_x), added
    being the rank of the r_x's residuals against C_a without b.  As
    dim(C_a without b) <= dim(C_a) and added <= the sum of the residuals'
    ranks <= the sum of rank(r_x), this holds for every choice exactly
    when (i) C_a keeps its rank without b's columns; (ii) every broadcast
    of every other class keeps its rank in its residual; and (iii) every
    choice of one distinct residual per other class has their ranks' sum
    as rank (trivially so with one other class).  Each broadcast is
    built and ranked once: more than DEMAND_CAP demands are refused, and
    a scheme without unit rate raises PreconditionError.  More than
    DEMAND_CAP choices in (iii) raise ValueError.
    """
    demands = list(demands_iter(s.N, s.K))
    mats = [s.delivery_matrix(d).data for d in demands]
    if max(map(len, mats)) != s.B:
        raise PreconditionError("identities require unit rate")
    q, files, kernel = s.q, range(1, s.N + 1), _RankKernel(s)
    # Each broadcast as B rows, zero-padded, which keeps its rank.
    X = np.zeros((len(mats), s.B, s.layout.total), dtype=np.int64)
    for Xd, m in zip(X, mats):
        Xd[: len(m)] = m
    own, entries = ranks(q, X), np.array([d.entries for d in demands])
    for u in range(1, s.K + 1):
        member = {a: entries[:, u - 1] == a for a in files}
        for a in files:
            basis = kernel.basis(u, a % s.N + 1)
            if (X[member[a]] @ basis.op[:, : kernel.without - basis.dim(kernel.without)] % q).any():
                return False
            stacked = FieldMatrix._trusted(q, X[member[a]].reshape(-1, s.layout.total))
            # One basis per foreign file b, its columns last: all of it is C_a's, its prefix C_a's without b.
            bases = {b: row_basis(stacked, [*_columns_without(s, b), *s.layout.file_columns(b)]) for b in files if b != a}
            if any(basis.dim(kernel.without) != basis.dim() for basis in bases.values()):
                return False
            ops = {None: next(iter(bases.values())).op}
            ops |= {b: basis.op[:, : kernel.without - basis.dim(kernel.without)] for b, basis in bases.items()}
            for b, op in ops.items():
                rest = ~member[a] & ~member[b] if b else ~member[a]
                res = X[rest] @ op % q
                # Keyed by class first, the distinct residuals come grouped by class.
                keyed = np.column_stack([entries[rest, u - 1], res.reshape(len(res), s.B * op.shape[1])])
                distinct, back = np.unique(keyed, axis=0, return_inverse=True)
                blocks = distinct[:, 1:].reshape(len(distinct), *res.shape[1:])
                rank_of = ranks(q, blocks)
                if (rank_of[back.ravel()] != own[rest]).any():
                    return False
                groups = np.split(np.arange(len(blocks)), np.flatnonzero(np.diff(distinct[:, 0])) + 1)
                if len(groups) > 1 and not _independent(q, [(blocks[g], rank_of[g]) for g in groups]):
                    return False
    return True


def _independent(q: int, blocks: list[tuple[NDArray, NDArray]]) -> bool:
    """Whether each choice of one block per (blocks, ranks) pair has their ranks' sum as rank; past DEMAND_CAP, ValueError."""
    sizes = [len(distinct) for distinct, _ in blocks]
    if math.prod(sizes) > DEMAND_CAP:
        raise ValueError(f"{math.prod(sizes)} choices of one distinct residual per class exceed cap {DEMAND_CAP}")
    choices = itertools.product(*map(range, sizes))
    while chunk := list(itertools.islice(choices, VERIFY_BLOCK)):
        at = np.array(chunk).T
        joint = np.concatenate([distinct[i] for (distinct, _), i in zip(blocks, at)], axis=1)
        if (ranks(q, joint) != sum(rank_of[i] for (_, rank_of), i in zip(blocks, at))).any():
            return False
    return True


def decode(
    s: LinearScheme,
    d: DemandVector,
    k: int,
    cache_symbols: Sequence[int] | NDArray,
    delivery_symbols: Sequence[int] | NDArray,
) -> NDArray:
    """Recover user k's requested file units from observed symbols.

    cache_symbols and delivery_symbols are the images of the hidden
    input vector under the cache and broadcast matrices.  All requested
    units are read off one sparse_rref of [G | y], the observed matrix G
    beside its symbols y, with G's columns in the order: every column
    outside file d_k, then file d_k's B columns.  The symbol column
    never holds a pivot, and only the rows led in file d_k's columns
    are back-substituted; they are zero left of their lead, so they are
    the RREF of the part of the row space that lies within the file's
    columns.  Unit u is a combination of the observations exactly when
    the row led at u is zero on the file's other columns, and its value
    is then that row's symbol entry.  Raises NotDecodableError, listing
    every unit that is not, when there is one.

    The values are those of the coefficients in_rowspace finds for the
    file selector times the symbols, even when the symbols are not
    consistent: the echelon pass drops a row exactly when it depends on
    the rows before it, so every row read off combines the same rows
    in_rowspace gives nonzero coefficients, and over those independent
    rows the combination that gives unit u is unique.
    """
    G = observed_matrix(s, d, k)
    cache_syms = np.asarray(cache_symbols, dtype=np.int64) % s.q
    deliv_syms = np.asarray(delivery_symbols, dtype=np.int64) % s.q
    if cache_syms.shape != (s.cache[k - 1].rows,):
        raise ValueError(
            f"{cache_syms.shape} cache symbols for {s.cache[k - 1].rows} cache rows"
        )
    if deliv_syms.shape != (G.rows - s.cache[k - 1].rows,):
        raise ValueError(
            f"{deliv_syms.shape} delivery symbols for {G.rows - s.cache[k - 1].rows} broadcast rows"
        )
    observed = np.concatenate([cache_syms, deliv_syms])
    n = s.layout.total
    units = s.layout.file_columns(d[k])
    order = _columns_without(s, d[k]) + list(units)
    first = n - len(units)
    pivots = sparse_rref(np.column_stack([G.data[:, order], observed]), s.q, n, first)
    rows = [pivots.get(c) for c in range(first, n)]
    missing = [u + 1 for u, row in enumerate(rows) if row is None or any(j < n for j in row)]
    if missing:
        raise NotDecodableError(
            f"unit {missing[0]} of file {d[k]} is not decodable by user {k} under demand {d.entries}",
            missing,
        )
    return np.array([row.get(n, 0) for row in rows], dtype=np.int64)


@dataclass(frozen=True)
class SimulationResult:
    passed: bool
    demand: tuple[int, ...]
    seed: int
    failed_users: tuple[int, ...]


def simulate(
    s: LinearScheme, d: DemandVector, seed: int, corrupt_unit: int | None = None
) -> SimulationResult:
    """End-to-end run on random file and key symbols.

    Draws the hidden input vector from a seeded generator, computes
    every cache and the broadcast, decodes each user, and compares
    against ground truth.  corrupt_unit, when given, adds 1 to that
    broadcast symbol first; decoding is then expected to break.  A
    negative seed is refused.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    hidden = rng.integers(0, s.q, s.layout.total, dtype=np.int64)
    broadcast = s.delivery_matrix(d).apply(hidden)
    if corrupt_unit is not None:
        if not 0 <= corrupt_unit < broadcast.shape[0]:
            raise IndexError(
                f"broadcast unit {corrupt_unit} out of range for {broadcast.shape[0]} rows"
            )
        broadcast = broadcast.copy()
        broadcast[corrupt_unit] = (broadcast[corrupt_unit] + 1) % s.q
    failed = []
    for k in range(1, s.K + 1):
        truth = hidden[list(s.layout.file_columns(d[k]))]
        try:
            got = decode(s, d, k, s.cache[k - 1].apply(hidden), broadcast)
        except NotDecodableError:
            failed.append(k)
            continue
        if not np.array_equal(got, truth):
            failed.append(k)
    return SimulationResult(
        passed=not failed, demand=d.entries, seed=seed, failed_users=tuple(failed)
    )
