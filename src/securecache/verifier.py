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
serves every demand with the same requested file d_k.  Each cache is thus
eliminated at most 1 + 2N times per scheme (all columns, and per file
without it and with only it and the keys), and each check eliminates
only the residual of the broadcast rows: one product of X with the
residual operators of its three bases, kept side by side.

The unit-cache and unit-rate identities (check_lemma1_lemma2,
check_lemma3_lemma4) rank stacks holding a file selector W_a, which is
the identity on file a's columns and zero elsewhere, so

    rank([W_a; M]) = B + rank(M without file a's columns)

turns each into ranks of masked stacks, computed on the same kernel.

decode and simulate exercise the same schemes on concrete symbol
vectors, which keeps the rank checks honest.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .ff_linalg import (
    FieldMatrix, RowBasis, in_rowspace, rank, residual_rank, residual_ranks, row_basis, stack
)
from .scheme_model import (
    DEMAND_CAP, DemandVector, LinearScheme, demand_from_index, demands_iter, memory_of
)


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
    """Ranks of [Z_k; X] for one scheme, reusing a basis of each Z_k.

    A basis is built on first use per (user, view) and kept: view None
    keeps all columns, ("without", n) drops file n's columns and
    ("only", n) keeps file n's and the key columns.
    """

    def __init__(self, s: LinearScheme) -> None:
        self.s = s
        layout = s.layout
        keys = [layout.key_column(name) for name in layout.key_names]
        self._keep: dict[tuple[str, int], list[int]] = {}
        for n in range(1, s.N + 1):
            own = layout.file_columns(n)
            self._keep[("without", n)] = [c for c in range(layout.total) if c not in own]
            self._keep[("only", n)] = [*own, *keys]
        self._bases: dict[tuple[int, tuple[str, int] | None], RowBasis] = {}
        self._views: dict[tuple[int, int], tuple[list[int], NDArray, list[int]]] = {}

    def basis(self, k: int, view: tuple[str, int] | None = None) -> RowBasis:
        b = self._bases.get((k, view))
        if b is None:
            keep = None if view is None else self._keep[view]
            b = self._bases[(k, view)] = row_basis(self.s.cache[k - 1], keep)
        return b

    def rank(self, k: int, X: FieldMatrix, view: tuple[str, int] | None = None) -> int:
        b = self.basis(k, view)
        return b.dim + residual_rank(b, X)

    def record(self, d: DemandVector, k: int, X: FieldMatrix) -> CheckRecord:
        """Both rank identities for user k under demand d with broadcast X."""
        a = d[k]
        views = self._views.get((k, a))
        if views is None:
            bases = [self.basis(k, view) for view in (None, ("without", a), ("only", a))]
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
        r_X = {a: row_basis(X, kernel._keep[("without", a)]).dim for a in set(d)}
        if any(kernel.rank(k, X, ("without", d[k])) != r_X[d[k]] for k in range(1, s.K + 1)):
            return False
    caches = stack(s.cache)
    cache_rank_sum = sum(kernel.basis(k).dim for k in range(1, s.K + 1))
    return all(
        row_basis(caches, kernel._keep[("without", n)]).dim == cache_rank_sum
        for n in range(1, s.N + 1)
    )


def check_lemma3_lemma4(s: LinearScheme, samples: int = 10, seed: int = 0) -> bool:
    """Joint-entropy identities specific to unit broadcast rate.

    With every broadcast one unit, fixing a user's request to file a
    makes the class of broadcasts with that request a deterministic
    function of the file and the user's cache; and a foreign file,
    one whole class, plus one representative from each other class
    are mutually independent.  Representatives are the
    lexicographically least demands, plus seeded random re-draws.
    By the file-selector reduction, each broadcast adds no rank to the
    user's cache without the requested file's columns, and the
    representatives add their full rank to the class, also without a
    foreign file's columns.  Each class is eliminated once per user
    and view; the representatives are reduced against those bases.
    Every broadcast is built once, so schemes with more than DEMAND_CAP
    demands are refused, and the unit-rate precondition is read off
    them: a scheme without it raises PreconditionError.
    """
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    X = {d: s.delivery_matrix(d) for d in demands_iter(s.N, s.K)}
    if max(Xd.rows for Xd in X.values()) != s.B:
        raise PreconditionError("identities require unit rate")
    kernel = _RankKernel(s)
    for d, Xd in X.items():
        if any(residual_rank(kernel.basis(u, ("without", d[u])), Xd) for u in range(1, s.K + 1)):
            return False
    files = range(1, s.N + 1)
    rng = random.Random(seed)
    for u in range(1, s.K + 1):
        classes = {a: [Xd for d, Xd in X.items() if d[u] == a] for a in files}
        bases = {
            (a, b): row_basis(stack(classes[a]), None if b is None else kernel._keep[("without", b)])
            for a in files
            for b in (None, *files)
            if b != a
        }
        choices = [[0] * s.N]
        choices += [[rng.randrange(len(classes[a])) for a in files] for _ in range(samples)]
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
    units are solved for with one elimination of the observed matrix.
    Raises NotDecodableError, listing every unit that is not a linear
    combination of the observations, when there is one.
    """
    G = observed_matrix(s, d, k)
    cache_syms = np.asarray(cache_symbols, dtype=np.int64) % s.field.q
    deliv_syms = np.asarray(delivery_symbols, dtype=np.int64) % s.field.q
    if cache_syms.shape != (s.cache[k - 1].rows,):
        raise ValueError(
            f"{cache_syms.shape} cache symbols for {s.cache[k - 1].rows} cache rows"
        )
    if deliv_syms.shape != (G.rows - s.cache[k - 1].rows,):
        raise ValueError(
            f"{deliv_syms.shape} delivery symbols for {G.rows - s.cache[k - 1].rows} broadcast rows"
        )
    observed = np.concatenate([cache_syms, deliv_syms])
    coeffs = in_rowspace(G, s.layout.file_selector(s.field.q, d[k]).data)
    missing = [i + 1 for i, c in enumerate(coeffs) if c is None]
    if missing:
        raise NotDecodableError(
            f"unit {missing[0]} of file {d[k]} is not decodable by user {k} under demand {d.entries}",
            missing,
        )
    return np.stack(coeffs) @ observed % s.field.q


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
