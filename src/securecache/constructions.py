"""Builders for the achievable secure caching schemes.

Four scheme families, all explicit linear codes over small prime
fields:

* ``otp``: every user holds a one-time pad, the broadcast sends each
  requested file padded with its requester's key.  Cache size 1,
  rate K.
* ``theorem1``: two files, cache size 1, rate K - 1.  Keys occupy the
  caches of the first K - 1 users; the last user caches a mixture of
  both files and all keys, and demand-dependent coefficients over
  GF(3) make the broadcast simultaneously decodable and opaque.
* ``theorem2``: rate 1 at cache size (N - 1)(K - 1).  The first K - 1
  users cache keyed file differences, the last caches all keys, and a
  single broadcast row serves everyone.
* ``theorem3``: a one-parameter family trading cache size against
  rate.  Each file is expanded into threshold secret shares via a
  Vandermonde generator, users cache share subsets blinded by cross
  keys, and the broadcast sends share combinations per (t+1)-subset
  of users.

Uniform demands (all users ask for the same file) are always served by
sending the file's units directly; that is both cheaper and secure, so
the worst-case rate is attained on non-uniform demands.  Each builder
codes only the non-uniform demands, and _member adds the uniform rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .ff_linalg import FieldMatrix, PrimeField, smallest_prime_at_least
from .scheme_model import DemandVector, LinearScheme, VariableLayout


def _matrix(q: int, rows: list[NDArray], total: int) -> FieldMatrix:
    if not rows:
        return FieldMatrix.zeros(q, 0, total)
    return FieldMatrix(q, np.array(rows, dtype=np.int64))


def _unit_row(total: int, col: int, value: int = 1) -> NDArray:
    row = np.zeros(total, dtype=np.int64)
    row[col] = value
    return row


def _member(
    label: str,
    params: dict[str, int],
    q: int,
    layout: VariableLayout,
    cache: Sequence[FieldMatrix],
    coded: Callable[[DemandVector], FieldMatrix],
    randomness: Fraction | None = None,
) -> LinearScheme:
    """A family member whose broadcast rule is coded for non-uniform demands only.

    Every family serves a uniform demand the same way, by sending the
    file's units directly, so that rule is applied here, once.
    """

    def delivery(d: DemandVector) -> FieldMatrix:
        return layout.file_selector(q, d[1]) if d.uniform else coded(d)

    return LinearScheme(
        field=PrimeField(q),
        layout=layout,
        K=params["K"],
        cache=tuple(cache),
        delivery=delivery,
        label=label,
        params=params,
        randomness=randomness,
    )


# ---------------------------------------------------------------------------
# One-time-pad baseline
# ---------------------------------------------------------------------------


def build_otp(N: int, K: int) -> LinearScheme:
    """Pad-per-user baseline: M = 1, R = K, L = K, over GF(2)."""
    _check_member("otp", N=N, K=K)
    q = 2
    layout = VariableLayout(N, 1, tuple(f"S_{k}" for k in range(1, K + 1)))
    total = layout.total
    cache = tuple(
        _matrix(q, [_unit_row(total, layout.key_column(f"S_{k}"))], total)
        for k in range(1, K + 1)
    )

    def coded(d: DemandVector) -> FieldMatrix:
        rows = []
        for k in range(1, K + 1):
            row = _unit_row(total, layout.file_columns(d[k])[0])
            row[layout.key_column(f"S_{k}")] = 1
            rows.append(row)
        return _matrix(q, rows, total)

    return _member("otp", {"N": N, "K": K}, q, layout, cache, coded)


# ---------------------------------------------------------------------------
# Two files, cache size 1
# ---------------------------------------------------------------------------


def assign_coefficients(d: DemandVector) -> tuple[int, ...]:
    """Per-user GF(3) coefficients, each 1 or 2, for a non-uniform two-file demand.

    Within each demand group (users requesting the same file, in user
    order) coefficients are dealt as (1, 2) pairs while more than two
    users remain, a lone leftover gets 1, and a final pair gets (2, 2).
    Both group sums then equal 1 mod 3, which is what makes the mixed
    cache of the last user useful to every demand at once.
    """
    if d.uniform:
        raise ValueError("uniform demands take the direct broadcast, no coefficients")
    for n in d:
        if n not in (1, 2):
            raise ValueError(f"coefficients are defined for two files, got demand {n}")
    values = [0] * d.K
    for n in (1, 2):
        group = [u for u in range(1, d.K + 1) if d[u] == n]
        while len(group) > 2:
            values[group.pop(0) - 1] = 1
            values[group.pop(0) - 1] = 2
        if len(group) == 1:
            values[group[0] - 1] = 1
        elif len(group) == 2:
            values[group[0] - 1] = 2
            values[group[1] - 1] = 2
    return tuple(values)


def build_theorem1(K: int) -> LinearScheme:
    """Two-file scheme with M = 1 and R = K - 1 over GF(3).

    Users 1..K-1 cache one key each; user K caches twice the sum of
    both files plus the sum of all keys.  A non-uniform demand is
    served by K - 1 rows, row k sending a_k * W_{d_k} + 2 * S_k with
    the coefficients from assign_coefficients.
    """
    _check_member("theorem1", N=2, K=K)
    q = 3
    N = 2
    layout = VariableLayout(N, 1, tuple(f"S_{k}" for k in range(1, K)))
    total = layout.total
    cache_rows = [
        [_unit_row(total, layout.key_column(f"S_{k}"))] for k in range(1, K)
    ]
    last = np.zeros(total, dtype=np.int64)
    last[layout.file_columns(1)[0]] = 2
    last[layout.file_columns(2)[0]] = 2
    for k in range(1, K):
        last[layout.key_column(f"S_{k}")] = 1
    cache_rows.append([last])
    cache = tuple(_matrix(q, rows, total) for rows in cache_rows)

    def coded(d: DemandVector) -> FieldMatrix:
        a = assign_coefficients(d)
        rows = []
        for k in range(1, K):
            row = _unit_row(total, layout.file_columns(d[k])[0], a[k - 1])
            row[layout.key_column(f"S_{k}")] = 2
            rows.append(row)
        return _matrix(q, rows, total)

    return _member("theorem1", {"N": N, "K": K}, q, layout, cache, coded)


# ---------------------------------------------------------------------------
# Rate 1
# ---------------------------------------------------------------------------


def build_theorem2(N: int, K: int) -> LinearScheme:
    """Single-broadcast scheme with M = (N-1)(K-1) and R = 1 over GF(2).

    User k < K caches W_1 + W_n + S_{n-1,k} for every n in [2, N]
    together with the other users' keys of each level; user K caches
    every key.  One broadcast row then finishes all K decodings.
    """
    _check_member("theorem2", N=N, K=K)
    q = 2
    names = tuple(
        f"S_{n}_{k}" for n in range(1, N) for k in range(1, K)
    )
    layout = VariableLayout(N, 1, names)
    total = layout.total

    cache_list = []
    for k in range(1, K):
        rows = []
        for n in range(2, N + 1):
            row = _unit_row(total, layout.file_columns(1)[0])
            row[layout.file_columns(n)[0]] = 1
            row[layout.key_column(f"S_{n - 1}_{k}")] = 1
            rows.append(row)
            for other in range(1, K):
                if other != k:
                    rows.append(_unit_row(total, layout.key_column(f"S_{n - 1}_{other}")))
        cache_list.append(_matrix(q, rows, total))
    cache_list.append(
        _matrix(q, [_unit_row(total, layout.key_column(name)) for name in names], total)
    )

    def coded(d: DemandVector) -> FieldMatrix:
        row = _unit_row(total, layout.file_columns(d[K])[0])
        for i in range(1, K):
            if d[K] >= 2:
                row[layout.key_column(f"S_{d[K] - 1}_{i}")] += 1
            if d[i] >= 2:
                row[layout.key_column(f"S_{d[i] - 1}_{i}")] += 1
        return _matrix(q, [row], total)

    return _member("theorem2", {"N": N, "K": K}, q, layout, cache_list, coded)


# ---------------------------------------------------------------------------
# Threshold secret sharing and the cache/rate tradeoff family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShareSystem:
    """Per-file share expansion used by the tradeoff family.

    A file of B units plus key_units fresh key units is mapped to one
    share per t-subset of users by the generator [I over 0 | V], where
    V is a Vandermonde block on distinct nodes 0, 1, 2, ...  Any
    key_units shares reveal nothing about the file, while all shares
    together recover it.
    """

    K: int
    t: int
    q: int
    labels: tuple[tuple[int, ...], ...]
    generator: FieldMatrix

    @property
    def n_shares(self) -> int:
        return len(self.labels)

    @property
    def key_units(self) -> int:
        return comb(self.K - 1, self.t - 1)

    @property
    def units(self) -> int:
        """File units B carried by the share system."""
        return self.n_shares - self.key_units


def build_shares(K: int, t: int) -> ShareSystem:
    """Share system for K users at threshold parameter t.

    The modulus is the smallest prime admitting comb(K, t) distinct
    Vandermonde nodes with t + 1 invertible, which the delivery rule
    of the tradeoff family needs.
    """
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K - 1, got t={t}, K={K}")
    n_shares = comb(K, t)
    m = comb(K - 1, t - 1)
    B = n_shares - m
    q = smallest_prime_at_least(max(n_shares, t + 2))
    labels = tuple(itertools.combinations(range(1, K + 1), t))
    gen = np.zeros((n_shares, B + m), dtype=np.int64)
    gen[:B, :B] = np.eye(B, dtype=np.int64)
    for i in range(n_shares):
        for j in range(m):
            gen[i, B + j] = pow(i, j, q)
    return ShareSystem(K=K, t=t, q=q, labels=labels, generator=FieldMatrix(q, gen))


def build_theorem3(N: int, K: int, t: int) -> LinearScheme:
    """Tradeoff family member: M = Nt/(K-t) + 1 - 1/B, R = K/(t+1).

    Every file is expanded into comb(K, t) shares, one per t-subset of
    users.  Users 1..t+1 cache their shares in the clear plus the
    cross keys of the (t+1)-subsets containing them; later users cache
    the same material blinded by their own designated cross key.  A
    non-uniform demand costs comb(K, t+1) broadcast rows, one per
    (t+1)-subset of users.
    """
    _check_member("theorem3", N=N, K=K, t=t)
    shares = build_shares(K, t)
    q = shares.q
    B = shares.units
    m = shares.key_units
    cross = tuple(itertools.combinations(range(1, K + 1), t + 1))
    cross_name = {V: "S_{" + ",".join(str(u) for u in V) + "}" for V in cross}
    names = tuple(
        f"S_{n}^{i}" for n in range(1, N + 1) for i in range(1, m + 1)
    ) + tuple(cross_name[V] for V in cross)
    layout = VariableLayout(N, B, names)
    total = layout.total

    # share_rows[n - 1, i]: file n's share with label shares.labels[i].
    g = shares.generator.data
    share_rows = np.zeros((N, shares.n_shares, total), dtype=np.int64)
    for n in range(1, N + 1):
        share_rows[n - 1][:, list(layout.file_columns(n))] = g[:, :B]
        share_rows[n - 1][:, [layout.key_column(f"S_{n}^{i}") for i in range(1, m + 1)]] = g[:, B:]
    label_index = {L: i for i, L in enumerate(shares.labels)}

    head = tuple(range(1, t + 2))
    cache_list = []
    for k in range(1, K + 1):
        rows = []
        if k <= t + 1:
            for n in range(1, N + 1):
                for L in shares.labels:
                    if k in L:
                        rows.append(share_rows[n - 1, label_index[L]])
            for V in cross:
                if k in V and V != head:
                    rows.append(_unit_row(total, layout.key_column(cross_name[V])))
        else:
            own = tuple(range(1, t + 1)) + (k,)
            own_col = layout.key_column(cross_name[own])
            for n in range(1, N + 1):
                for L in shares.labels:
                    if k in L:
                        row = share_rows[n - 1, label_index[L]].copy()
                        row[own_col] += 1
                        rows.append(row)
            for V in cross:
                if k in V and V != own:
                    row = _unit_row(total, layout.key_column(cross_name[V]))
                    row[own_col] -= 1
                    rows.append(row)
        cache_list.append(_matrix(q, rows, total))

    # Row v of a non-uniform broadcast serves the subset V = cross[v]: it
    # sends t + 1 times V's cross key (none for the head, cross[0]) plus,
    # for each member V[j], the share of its file labelled V without V[j].
    members = np.array(cross) - 1
    labels = np.array([[label_index[V[:j] + V[j + 1:]] for j in range(t + 1)] for V in cross])
    keys = np.zeros((len(cross), total), dtype=np.int64)
    keys[np.arange(1, len(cross)), [layout.key_column(cross_name[V]) for V in cross[1:]]] = t + 1

    def coded(d: DemandVector) -> FieldMatrix:
        # Sums of checked share rows; delivery_matrix still checks q and the width.
        files = np.array(d.entries)[members] - 1
        return FieldMatrix._trusted(q, (keys + share_rows[files, labels].sum(axis=1)) % q)

    return _member(
        "theorem3", {"N": N, "K": K, "t": t}, q, layout, cache_list, coded,
        randomness=FAMILIES["theorem3"].mrl(N, K, t)[2],
    )


# ---------------------------------------------------------------------------
# The family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One scheme family, the only place its builder and formulas meet.

    build(**params) builds the member with those params; members(N, K)
    lists the params of every member at (N, K), as built schemes carry
    them; mrl(**params) is a member's declared (M, R, L) in file units;
    source, params formatted in, names its point on the tradeoff curve;
    units(**params) is a member's units per file B, found without
    building it.
    """

    build: Callable[..., LinearScheme]
    members: Callable[[int, int], list[dict[str, int]]]
    mrl: Callable[..., tuple[Fraction, Fraction, Fraction]]
    source: str
    units: Callable[..., int] = lambda **params: 1


def _plain_members(N: int, K: int) -> list[dict[str, int]]:
    return [{"N": N, "K": K}] if N >= 2 and K >= 2 else []


def _theorem3_units(N: int, K: int, t: int) -> int:
    return comb(K - 1, t)


def _theorem3_mrl(N: int, K: int, t: int) -> tuple[Fraction, Fraction, Fraction]:
    B = _theorem3_units(N, K, t)
    keys = comb(K - 1, t - 1) + comb(K, t + 1)
    return Fraction(N * t, K - t) + 1 - Fraction(1, B), Fraction(K, t + 1), Fraction(keys, B)


FAMILIES: dict[str, Family] = {
    "otp": Family(
        build_otp, _plain_members, lambda N, K: (Fraction(1), Fraction(K), Fraction(K)), "unit cache"
    ),
    "theorem1": Family(
        lambda N, K: build_theorem1(K),
        lambda N, K: _plain_members(N, K) if N == 2 else [],
        lambda N, K: (Fraction(1), Fraction(K - 1), Fraction(K - 1)),
        "unit cache",
    ),
    "theorem2": Family(
        build_theorem2,
        _plain_members,
        lambda N, K: (Fraction((N - 1) * (K - 1)), Fraction(1), Fraction((N - 1) * (K - 1))),
        "unit rate",
    ),
    "theorem3": Family(
        build_theorem3,
        lambda N, K: [{"N": N, "K": K, "t": t} for t in range(1, K - 1)] if N >= 2 else [],
        _theorem3_mrl,
        "tradeoff family t={t}",
        _theorem3_units,
    ),
}


def _check_member(label: str, **params: int) -> Family:
    """The family of label, once params are checked to name one of its members."""
    family = FAMILIES.get(label)
    if family is None:
        raise ValueError(f"unknown scheme label {label!r}, expected one of {list(FAMILIES)}")
    members = family.members(params["N"], params["K"])
    if params not in members:
        raise ValueError(f"{label} has no member {params}; its members at this N, K: {members}")
    return family


def build_scheme(label: str, N: int, K: int, t: int | None = None) -> LinearScheme:
    """Build the member of family label with params (N, K), or (N, K, t) if t is given."""
    params = {"N": N, "K": K} if t is None else {"N": N, "K": K, "t": t}
    return _check_member(label, **params).build(**params)
