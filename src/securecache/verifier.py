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
one per file; the RREF of Z in one order holds the RREF of every
prefix of it.  Each cache is thus eliminated at most N times per
scheme, and each check eliminates only the residual of the broadcast
rows: one product of X with the residual operators of its three bases,
kept side by side.

The unit-cache and unit-rate identities (check_lemma1_lemma2,
check_lemma3_lemma4) rank stacks holding a file selector W_a, which is
the identity on file a's columns and zero elsewhere, so

    rank([W_a; M]) = B + rank(M without file a's columns)

turns each into ranks of masked stacks, computed on the same kernel.

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
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .ff_linalg import (
    FieldMatrix, RowBasis, rank, residual_rank, residual_ranks, row_basis, row_bases, sparse_rref, stack
)
from .scheme_model import (
    DEMAND_CAP, DemandVector, LinearScheme, demand_from_index, demands_iter, memory_of
)


# Seeded re-draws of each user's class representatives in check_lemma3_lemma4.
LEMMA_SAMPLES = 10


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


@dataclass(frozen=True)
class VerificationReport:
    label: str
    N: int
    K: int
    policy: str
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def demand_count(self) -> int:
        return len({r.demand for r in self.records})

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "N": self.N,
            "K": self.K,
            "policy": self.policy,
            "demands_checked": self.demand_count,
            "passed": self.passed,
            "failures": [r.as_dict() for r in self.failures()],
            "records": [r.as_dict() for r in self.records],
        }


def observed_matrix(s: LinearScheme, d: DemandVector, k: int) -> FieldMatrix:
    """Row stack of user k's cache and the broadcast for demand d."""
    if not 1 <= k <= s.K:
        raise IndexError(f"user {k} out of range [1, {s.K}]")
    return stack([s.cache[k - 1], s.delivery_matrix(d)])


class _RankKernel:
    """Ranks of [Z_k; X] for one scheme, reusing bases of each Z_k.

    View None keeps all columns, ("without", n) drops file n's columns
    and ("only", n) keeps file n's and the key columns.  Each view is a
    prefix of one of N column orders: order a is [F_a, keys, F_{a+1},
    ..., F_N, F_1, ..., F_{a-1}], whose prefixes are ("only", a),
    ("without", a - 1) (file N for a = 1) and None.  On first use of
    any of them, one elimination of Z_k in order a builds all three
    bases (row_bases) and keeps them.
    """

    def __init__(self, s: LinearScheme) -> None:
        self.s = s
        layout = s.layout
        keys = [layout.key_column(name) for name in layout.key_names]
        files = [list(layout.file_columns(n)) for n in range(1, s.N + 1)]
        # Per view: the column order that builds it, that order's views
        # and their prefix lengths.
        self._order: dict[tuple[str, int] | None, tuple[list[int], tuple, tuple[int, ...]]] = {}
        for a in range(1, s.N + 1):
            order = [*files[a - 1], *keys, *itertools.chain(*files[a:], *files[: a - 1])]
            prev = a - 1 or s.N
            views = (("only", a), ("without", prev), None)
            ends = (len(files[a - 1]) + len(keys), layout.total - len(files[prev - 1]), layout.total)
            for view in views:
                self._order.setdefault(view, (order, views, ends))
        self._bases: dict[tuple[int, tuple[str, int] | None], RowBasis] = {}
        self._views: dict[tuple[int, int], tuple[list[int], NDArray, list[int]]] = {}

    def columns(self, view: tuple[str, int]) -> list[int]:
        """The columns view keeps."""
        order, views, ends = self._order[view]
        return order[: ends[views.index(view)]]

    def basis(self, k: int, view: tuple[str, int] | None = None) -> RowBasis:
        b = self._bases.get((k, view))
        if b is None:
            order, views, ends = self._order[view]
            for v, built in zip(views, row_bases(self.s.cache[k - 1], order, ends)):
                self._bases.setdefault((k, v), built)
            b = self._bases[k, view]
        return b

    def rank(self, k: int, X: FieldMatrix, view: tuple[str, int] | None = None) -> int:
        b = self.basis(k, view)
        return b.dim + residual_rank(b, X)

    def record(self, d: DemandVector, k: int, X: FieldMatrix) -> CheckRecord:
        """Both rank identities for user k under demand d with broadcast X."""
        a = d[k]
        views = self._views.get((k, a))
        if views is None:
            # ("only", a) first: its order also builds view None.
            only = self.basis(k, ("only", a))
            bases = [self.basis(k), self.basis(k, ("without", a)), only]
            cuts = np.cumsum([0] + [b.op.shape[1] for b in bases]).tolist()
            views = self._views[k, a] = ([b.dim for b in bases], np.hstack([b.op for b in bases]), cuts)
        dims, op, cuts = views
        full, without, only = residual_ranks(self.s.field.q, op, cuts, X)
        return CheckRecord(d.entries, k, dims[0] + full, dims[1] + without, dims[2] + only, self.s.B)


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
            policy="sample" and refused with policy="all".
        seed: sample seed; required for policy="sample" and refused
            with policy="all".

    Returns:
        A report with one record per (demand, user) pair, in
        lexicographic demand order.
    """
    if policy == "all":
        if count is not None or seed is not None:
            raise ValueError("count and seed apply only to policy='sample'")
        demands = demands_iter(s.N, s.K)
        policy_desc = "all"
    elif policy == "sample":
        if count is None or seed is None:
            raise ValueError("policy='sample' needs count and seed")
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        if count > DEMAND_CAP:
            raise ValueError(f"sample count {count} exceeds cap {DEMAND_CAP}")
        demands = (demand_from_index(s.N, s.K, i) for i in _sampled_indices(s.N, s.K, count, seed))
        policy_desc = f"sample(count={count}, seed={seed})"
    else:
        raise ValueError(f"unknown policy {policy!r}")

    kernel = _RankKernel(s)
    records: list[CheckRecord] = []
    for d in demands:
        X = s.delivery_matrix(d)
        records.extend(kernel.record(d, k, X) for k in range(1, s.K + 1))
    return VerificationReport(
        label=s.label, N=s.N, K=s.K, policy=policy_desc, records=tuple(records)
    )


def check_lemma1_lemma2(s: LinearScheme) -> bool:
    """Joint-entropy identities specific to unit cache size.

    First: under any demand, the broadcast together with a requested
    file already determines the caches of all users requesting that
    file (for groups of 1 to K-1 users).  Second: any single file and
    all caches together are mutually independent.  By the file-selector
    reduction these read: under every non-uniform demand d, each cache
    Z_k adds no rank to the broadcast without file d_k's columns; and
    all caches stacked, without any one file's columns, have the rank
    sum of the single caches.  Every demand is checked, so schemes with
    more than DEMAND_CAP demands are refused; a scheme whose cache size
    is not 1 raises PreconditionError.
    """
    demands = demands_iter(s.N, s.K)
    if memory_of(s) != 1:
        raise PreconditionError(f"identities require cache size 1, scheme has M={memory_of(s)}")
    kernel = _RankKernel(s)
    for d in demands:
        if d.uniform:
            continue
        X = s.delivery_matrix(d)
        r_X = {a: row_basis(X, kernel.columns(("without", a))).dim for a in set(d)}
        if any(kernel.rank(k, X, ("without", d[k])) != r_X[d[k]] for k in range(1, s.K + 1)):
            return False
    caches = stack(s.cache)
    cache_rank_sum = sum(kernel.basis(k).dim for k in range(1, s.K + 1))
    return all(
        row_basis(caches, kernel.columns(("without", n))).dim == cache_rank_sum
        for n in range(1, s.N + 1)
    )


def check_lemma3_lemma4(s: LinearScheme) -> bool:
    """Joint-entropy identities specific to unit broadcast rate.

    With every broadcast one unit, fixing a user's request to file a
    makes the class of broadcasts with that request a deterministic
    function of the file and the user's cache; and a foreign file,
    one whole class, plus one representative from each other class
    are mutually independent.  Representatives are the
    lexicographically least demands, plus LEMMA_SAMPLES seeded re-draws.
    By the file-selector reduction, each broadcast adds no rank to the
    user's cache without the requested file's columns, and the
    representatives add their full rank to the class, also without a
    foreign file's columns.  Each class is eliminated once per user
    and view; the representatives are reduced against those bases.
    Every broadcast is built once, so schemes with more than DEMAND_CAP
    demands are refused, and the unit-rate precondition is read off
    them: a scheme without it raises PreconditionError.
    """
    X = {d: s.delivery_matrix(d) for d in demands_iter(s.N, s.K)}
    if max(Xd.rows for Xd in X.values()) != s.B:
        raise PreconditionError("identities require unit rate")
    kernel = _RankKernel(s)
    for d, Xd in X.items():
        if any(residual_rank(kernel.basis(u, ("without", d[u])), Xd) for u in range(1, s.K + 1)):
            return False
    files = range(1, s.N + 1)
    rng = random.Random(0)
    for u in range(1, s.K + 1):
        classes = {a: [Xd for d, Xd in X.items() if d[u] == a] for a in files}
        bases = {
            (a, b): row_basis(stack(classes[a]), None if b is None else kernel.columns(("without", b)))
            for a in files
            for b in (None, *files)
            if b != a
        }
        choices = [[0] * s.N]
        choices += [[rng.randrange(len(classes[a])) for a in files] for _ in range(LEMMA_SAMPLES)]
        for choice in choices:
            reps = {a: classes[a][i] for a, i in zip(files, choice)}
            rep_rank = {a: rank(R) for a, R in reps.items()}
            for a in files:
                others = [x for x in files if x != a]
                # b None: the class and the other classes' representatives;
                # b a foreign file: W_b too, which drops file b's columns.
                for b in (None, *others):
                    rest = [x for x in others if x != b]
                    basis = bases[a, b]
                    joint = basis.dim + (residual_rank(basis, stack(reps[x] for x in rest)) if rest else 0)
                    if joint != bases[a, None].dim + sum(rep_rank[x] for x in rest):
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
    q = s.field.q
    cache_syms = np.asarray(cache_symbols, dtype=np.int64) % q
    deliv_syms = np.asarray(delivery_symbols, dtype=np.int64) % q
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
    order = [c for c in range(n) if c not in units] + list(units)
    first = n - len(units)
    pivots = sparse_rref(np.column_stack([G.data[:, order], observed]), q, n, first)
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
    broadcast symbol first; decoding is then expected to break.
    """
    q = s.field.q
    rng = np.random.default_rng(seed)
    hidden = rng.integers(0, q, s.layout.total, dtype=np.int64)
    broadcast = s.delivery_matrix(d).apply(hidden)
    if corrupt_unit is not None:
        if not 0 <= corrupt_unit < broadcast.shape[0]:
            raise IndexError(
                f"broadcast unit {corrupt_unit} out of range for {broadcast.shape[0]} rows"
            )
        broadcast = broadcast.copy()
        broadcast[corrupt_unit] = (broadcast[corrupt_unit] + 1) % q
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
