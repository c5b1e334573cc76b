"""Construction tests: exact cache and broadcast matrices of each family."""

import dataclasses
import itertools
import time
from collections import Counter
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

from securecache.constructions import (
    FAMILIES,
    MAX_CACHE_ENTRIES,
    _unit_row,
    assign_coefficients,
    build_scheme,
    build_shares,
    check_users,
    family_of,
)
from securecache.ff_linalg import FieldMatrix, rank, zero_columns
from securecache.scheme_model import (
    DemandVector,
    demands_iter,
    memory_of,
    randomness_of,
    worst_case_rate,
)
from securecache.tradeoff import achievable_points, prior_work_points


def _row_set(m: FieldMatrix) -> frozenset:
    return frozenset(tuple(row) for row in m.data.tolist())


# ---------------------------------------------------------------------------
# Coefficient assignment
# ---------------------------------------------------------------------------


def test_assign_coefficients_examples():
    assert assign_coefficients(DemandVector((1, 1, 2))) == (2, 2, 1)
    assert assign_coefficients(DemandVector((2, 1, 2))) == (2, 1, 2)
    assert assign_coefficients(DemandVector((1, 1, 1, 2, 2))) == (1, 2, 1, 2, 2)
    assert assign_coefficients(DemandVector((1, 2))) == (1, 1)


def test_assign_coefficients_rejects():
    with pytest.raises(ValueError):
        assign_coefficients(DemandVector((1, 1, 1)))
    with pytest.raises(ValueError):
        assign_coefficients(DemandVector((1, 3)))


def test_assign_coefficients_group_sums():
    # Exhaustive over every non-uniform two-file demand up to K = 10:
    # coefficients stay in {1, 2} and each demand group sums to 1 mod 3.
    for K in range(2, 11):
        for entries in itertools.product((1, 2), repeat=K):
            d = DemandVector(entries)
            if d.uniform:
                continue
            a = assign_coefficients(d)
            assert all(x in (1, 2) for x in a)
            for n in (1, 2):
                total = sum(a[u - 1] for u in range(1, K + 1) if d[u] == n)
                assert total % 3 == 1, (entries, a)


# ---------------------------------------------------------------------------
# Pad baseline and two-file scheme
# ---------------------------------------------------------------------------


def test_otp_matrices():
    s = build_scheme("otp", 2, 2)
    assert s.q == 2
    assert s.cache[0].data.tolist() == [[0, 0, 1, 0]]
    assert s.cache[1].data.tolist() == [[0, 0, 0, 1]]
    X = s.delivery_matrix(DemandVector((2, 1)))
    assert X.data.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]


def test_two_file_cache_matrices():
    s = build_scheme("theorem1", 2, 3)
    assert s.q == 3
    assert s.cache[0].data.tolist() == [[0, 0, 1, 0]]
    assert s.cache[1].data.tolist() == [[0, 0, 0, 1]]
    assert s.cache[2].data.tolist() == [[2, 2, 1, 1]]


def test_two_file_broadcast_rows():
    s = build_scheme("theorem1", 2, 3)
    X = s.delivery_matrix(DemandVector((1, 1, 2)))
    assert X.data.tolist() == [[2, 0, 2, 0], [2, 0, 0, 2]]
    X2 = s.delivery_matrix(DemandVector((2, 1, 2)))
    assert X2.data.tolist() == [[0, 2, 2, 0], [1, 0, 0, 2]]


UNIFORM_MEMBERS = {
    "otp (2, 3)": ("otp", 2, 3, None),
    "theorem1 (4)": ("theorem1", 2, 4, None),
    "theorem2 (3, 3)": ("theorem2", 3, 3, None),
    "theorem3 (2, 4, 1)": ("theorem3", 2, 4, 1),
}


@pytest.mark.parametrize("name", sorted(UNIFORM_MEMBERS))
def test_uniform_delivery_sends_file_directly(name):
    # Every family shares one uniform rule: the file's B units, sent in
    # the clear.  Non-uniform demands take the family's coded rule, R*B rows.
    label, N, K, t = UNIFORM_MEMBERS[name]
    s = build_scheme(label, N, K, t)
    for n in range(1, N + 1):
        X = s.delivery_matrix(DemandVector((n,) * K))
        assert X == s.layout.file_selector(s.q, n)
    if label == "theorem1":
        assert s.delivery_matrix(DemandVector((2,) * K)).data.tolist() == [[0, 1, 0, 0, 0]]
    R = FAMILIES[label].mrl(**s.params)[1]
    for d in demands_iter(N, K):
        if not d.uniform:
            assert s.delivery_matrix(d).rows == R * s.B, d


# ---------------------------------------------------------------------------
# Unit-rate scheme
# ---------------------------------------------------------------------------


def _key_row(layout, name):
    row = [0] * layout.total
    row[layout.key_column(name)] = 1
    return tuple(row)


def _mix_row(layout, files, keys):
    row = [0] * layout.total
    for n in files:
        row[layout.file_columns(n)[0]] = 1
    for name in keys:
        row[layout.key_column(name)] = 1
    return tuple(row)


def test_unit_rate_cache_layout_3_3():
    s = build_scheme("theorem2", 3, 3)
    L = s.layout
    expect_1 = {
        _mix_row(L, (1, 2), ("S_1_1",)),
        _key_row(L, "S_1_2"),
        _mix_row(L, (1, 3), ("S_2_1",)),
        _key_row(L, "S_2_2"),
    }
    expect_2 = {
        _mix_row(L, (1, 2), ("S_1_2",)),
        _key_row(L, "S_1_1"),
        _mix_row(L, (1, 3), ("S_2_2",)),
        _key_row(L, "S_2_1"),
    }
    expect_3 = {_key_row(L, name) for name in L.key_names}
    assert _row_set(s.cache[0]) == expect_1
    assert _row_set(s.cache[1]) == expect_2
    assert _row_set(s.cache[2]) == expect_3


def test_unit_rate_broadcast_row():
    s = build_scheme("theorem2", 3, 3)
    L = s.layout
    X = s.delivery_matrix(DemandVector((1, 2, 3)))
    assert _row_set(X) == {_mix_row(L, (3,), ("S_2_1", "S_2_2", "S_1_2"))}
    # Keys cancel when a user's request matches the last user's.
    X2 = s.delivery_matrix(DemandVector((3, 2, 3)))
    assert _row_set(X2) == {_mix_row(L, (3,), ("S_2_2", "S_1_2"))}


def test_unit_rate_two_users():
    s = build_scheme("theorem2", 2, 2)
    assert memory_of(s) == 1
    assert worst_case_rate(s) == 1
    X = s.delivery_matrix(DemandVector((1, 2)))
    assert _row_set(X) == {_mix_row(s.layout, (2,), ("S_1_1",))}


# ---------------------------------------------------------------------------
# Share systems
# ---------------------------------------------------------------------------


def test_share_system_3_1():
    sys = build_shares(3, 1)
    assert sys.q == 3
    assert sys.labels == ((1,), (2,), (3,))
    assert sys.units == 2 and sys.key_units == 1
    assert sys.generator.data.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]


def test_share_system_4_2():
    sys = build_shares(4, 2)
    assert sys.n_shares == comb(4, 2) == 6
    assert sys.key_units == comb(3, 1) == 3
    assert sys.units == 3
    assert sys.q == 7
    assert sys.generator.rows == 6 and sys.generator.cols == 6


def test_share_count_identity():
    # The unit count B equals comb(K-1, t) for every threshold choice.
    for K in range(2, 12):
        for t in range(1, K):
            sys_units = comb(K, t) - comb(K - 1, t - 1)
            assert sys_units == comb(K - 1, t)


def test_share_threshold_nonsingular():
    # Any key_units generator rows restricted to the key block are
    # independent: Vandermonde rows on distinct nodes.
    for K in range(3, 6):
        for t in range(1, K):
            sys = build_shares(K, t)
            m = sys.key_units
            key_block = sys.generator.data[:, sys.units:]
            for rows in itertools.combinations(range(sys.n_shares), m):
                sub = FieldMatrix(sys.q, key_block[list(rows)])
                assert rank(sub) == m, (K, t, rows)


def test_share_modulus_large_enough():
    for K in range(3, 8):
        for t in range(1, K - 1):
            sys = build_shares(K, t)
            assert sys.q >= sys.n_shares
            assert (t + 1) % sys.q != 0


def test_build_shares_validation():
    with pytest.raises(ValueError):
        build_shares(3, 0)
    with pytest.raises(ValueError):
        build_shares(3, 3)


# ---------------------------------------------------------------------------
# Tradeoff family
# ---------------------------------------------------------------------------


def test_tradeoff_scheme_3_3_1_layout():
    s = build_scheme("theorem3", 3, 3, 1)
    L = s.layout
    assert s.q == 3 and s.B == 2
    assert L.key_names == (
        "S_1^1", "S_2^1", "S_3^1", "S_{1,2}", "S_{1,3}", "S_{2,3}",
    )

    def share(n, label_idx):
        # Shares of file n: unit 1 + key, unit 2 + key, key alone.
        row = [0] * L.total
        gen = [[1, 0, 1], [0, 1, 1], [0, 0, 1]][label_idx]
        cols = list(L.file_columns(n))
        row[cols[0]], row[cols[1]] = gen[0], gen[1]
        row[L.key_column(f"S_{n}^1")] = gen[2]
        return np.array(row)

    def key(name, value=1):
        row = np.zeros(L.total, dtype=int)
        row[L.key_column(name)] = value
        return row

    # User 1 caches its share of every file plus one cross key.
    expect_1 = [share(1, 0), share(2, 0), share(3, 0), key("S_{1,3}")]
    assert s.cache[0].data.tolist() == [list(r % 3) for r in expect_1]
    # User 3 caches everything blinded by its designated cross key.
    expect_3 = [
        share(1, 2) + key("S_{1,3}"),
        share(2, 2) + key("S_{1,3}"),
        share(3, 2) + key("S_{1,3}"),
        key("S_{2,3}") - key("S_{1,3}"),
    ]
    assert s.cache[2].data.tolist() == [list(r % 3) for r in expect_3]

    X = s.delivery_matrix(DemandVector((1, 2, 3)))
    expect_X = [
        share(1, 1) + share(2, 0),
        key("S_{1,3}", 2) + share(1, 2) + share(3, 0),
        key("S_{2,3}", 2) + share(2, 2) + share(3, 1),
    ]
    assert X.data.tolist() == [list(r % 3) for r in expect_X]


def test_tradeoff_scheme_counts():
    for N in range(2, 4):
        for K in range(3, 6):
            for t in range(1, K - 1):
                s = build_scheme("theorem3", N, K, t)
                B = comb(K - 1, t)
                m = comb(K - 1, t - 1)
                assert s.B == B
                for cache in s.cache:
                    assert cache.rows == N * m + B - 1
                d = next(d for d in demands_iter(N, K) if not d.uniform)
                assert s.delivery_matrix(d).rows == comb(K, t + 1)
                assert memory_of(s) == Fraction(N * t, K - t) + 1 - Fraction(1, B)
                assert worst_case_rate(s) == Fraction(K, t + 1)


def test_tradeoff_family_corner_values():
    s = build_scheme("theorem3", 2, 4, 1)
    assert (memory_of(s), worst_case_rate(s)) == (Fraction(4, 3), Fraction(2))
    s = build_scheme("theorem3", 2, 4, 2)
    assert (memory_of(s), worst_case_rate(s)) == (Fraction(8, 3), Fraction(4, 3))
    s = build_scheme("theorem3", 4, 3, 1)
    assert (memory_of(s), worst_case_rate(s)) == (Fraction(5, 2), Fraction(3, 2))


def _share_rows(s, n):
    """File n's share rows over theorem3 scheme s's layout, one per label of build_shares.

    The generator's unit block goes on file n's columns and its
    Vandermonde block on the keys S_n^1..S_n^m; all else is zero.
    """
    shares = build_shares(s.params["K"], s.params["t"])
    g = shares.generator.data
    rows = np.zeros((shares.n_shares, s.layout.total), dtype=np.int64)
    rows[:, list(s.layout.file_columns(n))] = g[:, : shares.units]
    rows[:, [s.layout.key_column(f"S_{n}^{i + 1}") for i in range(shares.key_units)]] = g[:, shares.units :]
    return rows


def _loop_theorem3_delivery(s):
    """theorem3's broadcast rule as a Python loop of row additions, the reference.

    The body of delivery is kept verbatim from the loop the builder ran
    before broadcasts came from one gather; the setup rebuilds the
    names it closed over.
    """
    N, K, t = s.params["N"], s.params["K"], s.params["t"]
    q, layout, total = s.q, s.layout, s.layout.total
    cross = tuple(itertools.combinations(range(1, K + 1), t + 1))
    cross_name = {V: "S_{" + ",".join(str(u) for u in V) + "}" for V in cross}
    labels = build_shares(K, t).labels
    share_cache = {(n, L): row for n in range(1, N + 1) for L, row in zip(labels, _share_rows(s, n))}
    head = tuple(range(1, t + 2))

    def delivery(d: DemandVector) -> FieldMatrix:
        if d.uniform:
            return layout.file_selector(q, d[1])
        rows = []
        row = np.zeros(total, dtype=np.int64)
        for i in head:
            rest = tuple(u for u in head if u != i)
            row = row + share_cache[(d[i], rest)]
        rows.append(row)
        for V in cross:
            if V == head:
                continue
            row = _unit_row(total, layout.key_column(cross_name[V]), t + 1)
            for i in V:
                rest = tuple(u for u in V if u != i)
                row = row + share_cache[(d[i], rest)]
            rows.append(row)
        return FieldMatrix(q, rows)

    return delivery


def _loop_theorem3_caches(s):
    """theorem3's caches as the builder's two loops, clear and blinded users, the reference.

    The loop body is kept verbatim from the builder before both kinds
    of user shared one placement rule; the setup rebuilds the names it
    read.
    """
    N, K, t = s.params["N"], s.params["K"], s.params["t"]
    q, layout, total = s.q, s.layout, s.layout.total
    cross = tuple(itertools.combinations(range(1, K + 1), t + 1))
    cross_name = {V: "S_{" + ",".join(str(u) for u in V) + "}" for V in cross}
    shares = build_shares(K, t)
    label_index = {L: i for i, L in enumerate(shares.labels)}
    share_rows = np.array([_share_rows(s, n) for n in range(1, N + 1)])

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
        cache_list.append(FieldMatrix(q, rows))
    return cache_list


# theorem3 members whose every demand the loop references can replay quickly.
LOOP_MEMBERS = [
    (N, K, t)
    for K in range(3, 7)
    for N in range(2, 12)
    if N**K * K <= 4096
    for t in range(1, K - 1)
]


def test_theorem3_caches_match_the_loop_reference():
    assert len(LOOP_MEMBERS) == 28
    for N, K, t in LOOP_MEMBERS:
        s = build_scheme("theorem3", N, K, t)
        for k, (got, want) in enumerate(zip(s.cache, _loop_theorem3_caches(s), strict=True), 1):
            assert got == want and got.data.dtype == want.data.dtype, (N, K, t, k)


def test_theorem3_broadcasts_match_the_loop_reference():
    assert len(LOOP_MEMBERS) == 28
    for N, K, t in LOOP_MEMBERS:
        s = build_scheme("theorem3", N, K, t)
        reference = _loop_theorem3_delivery(s)
        for d in demands_iter(N, K):
            got, want = s.delivery_matrix(d), reference(d)
            assert got == want and got.data.dtype == want.data.dtype, (N, K, t, d.entries)


def test_share_rows_global_match_generator():
    # Users k <= t + 1 cache their shares in the clear: per file n, the
    # shares whose labels hold k, in label order, before any key row.
    # Between them, users 1..t+1 hold every label.
    N, K, t = 2, 4, 2
    s = build_scheme("theorem3", N, K, t)
    sys = build_shares(K, t)
    seen = set()
    for k in range(1, t + 2):
        held = [i for i, L in enumerate(sys.labels) if k in L]
        seen.update(held)
        for n in range(1, N + 1):
            m = s.cache[k - 1].data[(n - 1) * len(held) : n * len(held)]
            # File columns carry the unit block, own keys the Vandermonde
            # block, all other columns stay zero.
            file_cols = list(s.layout.file_columns(n))
            key_cols = [s.layout.key_column(f"S_{n}^{i+1}") for i in range(sys.key_units)]
            other = [
                c for c in range(s.layout.total) if c not in file_cols and c not in key_cols
            ]
            assert np.array_equal(m[:, file_cols], sys.generator.data[held, : sys.units])
            assert np.array_equal(m[:, key_cols], sys.generator.data[held, sys.units :])
            assert not m[:, other].any()
    assert seen == set(range(sys.n_shares))


def test_cache_only_observations_leak_nothing():
    # Masking every file column never changes a cache matrix's rank.
    schemes = [
        build_scheme("otp", 3, 3),
        build_scheme("theorem1", 2, 4),
        build_scheme("theorem2", 3, 3),
        build_scheme("theorem3", 3, 4, 2),
    ]
    for s in schemes:
        all_file_cols = list(range(s.N * s.B))
        for cache in s.cache:
            assert rank(zero_columns(cache, all_file_cols)) == rank(cache)


def test_build_scheme_dispatch():
    assert build_scheme("otp", 3, 3).label == "otp"
    assert build_scheme("theorem1", 2, 4).label == "theorem1"
    assert build_scheme("theorem2", 3, 3).label == "theorem2"
    assert build_scheme("theorem3", 2, 3, 1).label == "theorem3"
    with pytest.raises(ValueError):
        build_scheme("theorem1", 3, 4)
    with pytest.raises(ValueError):
        build_scheme("theorem3", 2, 3)
    with pytest.raises(ValueError):
        build_scheme("nope", 2, 3)
    with pytest.raises(ValueError):
        build_scheme("otp", 2, 3, 1)


@pytest.mark.parametrize("label, N, K, t", [("theorem3", 2, 4, 1), ("otp", 2, 3, None), ("theorem1", 2, 3, None)])
def test_build_scheme_lists_members_and_declares_once(monkeypatch, label, N, K, t):
    # One gate per build: the member check, the size bound and the stamped
    # L share one members() list and one mrl() evaluation.
    family, calls = FAMILIES[label], Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counting = dataclasses.replace(family, members=counted("members", family.members), mrl=counted("mrl", family.mrl))
    monkeypatch.setitem(FAMILIES, label, counting)
    s = build_scheme(label, N, K, t)
    assert calls == {"members": 1, "mrl": 1}
    assert randomness_of(s) == family.mrl(**s.params)[2]


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_family_declares_what_its_members_measure(label):
    family = FAMILIES[label]
    built = 0
    for N in range(2, 5):
        for K in range(2, 6):
            for params in family.members(N, K):
                s = build_scheme(label, **params)
                assert s.label == label and dict(s.params) == params
                # build_scheme stamps the declared L, so L is measured as
                # key columns per file unit; theorem3 keeps the stamped L
                # until the key columns it should count are settled.
                keys = Fraction(len(s.layout.key_names), s.B)
                L = randomness_of(s) if label == "theorem3" else keys
                measured = (memory_of(s), worst_case_rate(s), L)
                assert family.mrl(**params) == measured, params
                assert family.units(**params) == s.B, params
                # The size bound build_scheme refuses on covers the caches.
                M, _, L = measured
                assert sum(Z.data.size for Z in s.cache) <= K * M * s.B * (N * s.B + N * L * s.B)
                built += 1
    assert built > 0


def test_builder_validation():
    with pytest.raises(ValueError):
        build_scheme("theorem1", 2, 1)
    with pytest.raises(ValueError):
        build_scheme("theorem2", 1, 3)
    with pytest.raises(ValueError):
        build_scheme("theorem3", 2, 2, 1)
    with pytest.raises(ValueError):
        build_scheme("theorem3", 2, 4, 3)


@pytest.mark.parametrize("K, t", [(22, 11), (40, 20)])
def test_oversized_members_are_refused_before_anything_is_built(K, t):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the limit of 100000000"):
        build_scheme("theorem3", 2, K, t)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# The gate to a member
# ---------------------------------------------------------------------------


class Listed(Exception):
    """Raised by a members() stub: the caller listed members."""


def _refuse_listing(monkeypatch):
    def members(N, K):
        raise Listed(f"members listed at N={N}, K={K}")

    for label, family in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, label, dataclasses.replace(family, members=members))


def _users_message(K):
    return f"K={K} users: every member caches at least K*K = {K * K} entries, over the limit of 100000000"


@pytest.mark.parametrize(
    "call, K",
    [
        (lambda: build_scheme("theorem3", 2, 10**8, 1), 10**8),
        (lambda: build_scheme("theorem1", 2, 10**5), 10**5),
        (lambda: achievable_points(2, 10**8), 10**8),
        (lambda: prior_work_points(2, 10**4 + 1), 10**4 + 1),
        (lambda: family_of("otp", {"N": 2, "K": 10**4 + 1}), 10**4 + 1),
    ],
    ids=["theorem3", "theorem1", "achievable", "prior", "family_of"],
)
def test_K_past_the_bound_is_refused_before_members_are_listed(monkeypatch, call, K):
    _refuse_listing(monkeypatch)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == _users_message(K)


def test_K_at_the_bound_reaches_the_members(monkeypatch):
    # 10**4 users pass the K check; otp (2, 10**4) is then refused by its own size.
    with pytest.raises(ValueError, match="otp {'N': 2, 'K': 10000} would cache up to 200020000 entries"):
        build_scheme("otp", 2, 10**4)
    assert len(prior_work_points(2, 10**4)) == 10**4
    _refuse_listing(monkeypatch)
    for call in (lambda: build_scheme("otp", 2, 10**4), lambda: achievable_points(2, 10**4)):
        with pytest.raises(Listed):
            call()


def test_every_member_caches_at_least_K_squared():
    # What makes check_users refuse no member that build_scheme builds.
    checked = 0
    for label, family in FAMILIES.items():
        for N in range(2, 7):
            for K in range(1, 31):
                for params in family.members(N, K):
                    M, _, L = family.mrl(**params)
                    B = family.units(**params)
                    assert K * M * B * (N * B + N * L * B) >= K * K, (label, params)
                    checked += 1
    assert checked > 0
    assert isqrt(MAX_CACHE_ENTRIES) == 10**4
    check_users(10**4)


def test_the_gate_checks_label_then_K_then_membership():
    with pytest.raises(ValueError, match=r"unknown scheme label \['otp'\]"):
        family_of(["otp"], {"N": 2, "K": 10**8})
    with pytest.raises(ValueError, match="K=100000000 users"):
        family_of("theorem1", {"N": 3, "K": 10**8})
    # A K of 0 or below is no member's: it is not refused as too many users.
    for K in (0, -(10**8)):
        with pytest.raises(ValueError) as refused:
            family_of("otp", {"N": 2, "K": K})
        assert str(refused.value) == f"otp has no member {{'N': 2, 'K': {K}}}; its members at this N, K: []"
    assert family_of("theorem3", {"N": 2, "K": 4, "t": 2}) is FAMILIES["theorem3"]
