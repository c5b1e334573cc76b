"""Verifier tests: rank identities, decoding, and simulation."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from securecache.constructions import build_scheme
from securecache import cli, ff_linalg, verifier
from securecache.cli import main, write_scheme
from securecache.entropy_oracle import VariableRef, brute_entropy
from securecache.ff_linalg import FieldMatrix, in_rowspace, rank, stack, zero_columns
from securecache.scheme_model import (
    DEMAND_CAP,
    DemandVector,
    LinearScheme,
    VariableLayout,
    demands_iter,
)
from securecache.verifier import (
    NotDecodableError,
    decode,
    observed_matrix,
    simulate,
    verify_all,
)


def _records(s):
    """verify_all's record of every (demand, user) pair of s, keyed by that pair."""
    return {(r.demand, r.user): r for r in verify_all(s).records}


def test_correctness_ranks_two_file_scheme():
    records = _records(build_scheme("theorem1", 2, 3))
    c1 = records[(1, 1, 2), 1]
    assert (c1.correct, c1.rank_full, c1.rank_masked_requested, c1.file_units) == (True, 3, 2, 1)
    c3 = records[(1, 1, 2), 3]
    assert (c3.correct, c3.rank_full, c3.rank_masked_requested) == (True, 3, 2)


def test_security_ranks_two_file_scheme():
    records = _records(build_scheme("theorem1", 2, 3))
    for k in (1, 2, 3):
        chk = records[(1, 1, 2), k]
        assert chk.secure and chk.rank_full == chk.rank_masked_others == 3


def test_degenerate_scheme_fails_correctness():
    layout = VariableLayout(2, 1, ())
    empty = FieldMatrix.zeros(2, 0, layout.total)
    s = LinearScheme(
        q=2,
        layout=layout,
        K=2,
        cache=(empty, empty),
        delivery=lambda d: empty,
        label="degenerate",
    )
    chk = _records(s)[(1, 2), 1]
    assert not chk.correct
    assert (chk.rank_full, chk.rank_masked_requested, chk.file_units) == (0, 0, 1)


def _leaky_pad_scheme():
    # Pad scheme for two files and two users, except user 1 caches the
    # second file in plaintext.
    s = build_scheme("otp", 2, 2)
    bad = FieldMatrix(2, [[0, 1, 0, 0]])
    return LinearScheme(
        q=s.q,
        layout=s.layout,
        K=s.K,
        cache=(bad, s.cache[1]),
        delivery=s.delivery,
        label="leaky",
        params=dict(s.params),
    )


def test_leaky_scheme_fails_security_by_one_unit():
    s = _leaky_pad_scheme()
    chk = _records(s)[(1, 1), 1]
    assert not chk.secure
    assert chk.rank_full - chk.rank_masked_others == s.B


def test_verify_all_flags_leak():
    report = verify_all(_leaky_pad_scheme())
    assert not report.passed
    bad = [(r.demand, r.user) for r in report.failures()]
    assert ((1, 1), 1) in bad


def test_verify_all_passes_all_families():
    for s in [
        build_scheme("otp", 3, 3),
        build_scheme("theorem1", 2, 4),
        build_scheme("theorem2", 3, 3),
        build_scheme("theorem3", 2, 3, 1),
    ]:
        report = verify_all(s)
        assert report.passed
        assert report.demand_count == s.N**s.K
        assert len(report.records) == s.N**s.K * s.K


def test_verify_all_cap():
    # 2**20 demands are past the cap.
    s = build_scheme("otp", 2, 20)
    with pytest.raises(ValueError, match="sample"):
        verify_all(s)


def test_verify_all_refuses_a_sample_count_past_the_cap():
    # Refused before any index is drawn: 2**40 demands would let the
    # sampler ask for DEMAND_CAP + 1 of them.
    s = build_scheme("otp", 2, 40)
    with pytest.raises(ValueError, match=f"^sample count {DEMAND_CAP + 1} exceeds cap {DEMAND_CAP}$"):
        verify_all(s, policy="sample", count=DEMAND_CAP + 1, seed=0)


def test_verify_all_sample_is_deterministic_and_covers_uniform():
    s = build_scheme("theorem3", 4, 6, 2)
    r1 = verify_all(s, policy="sample", count=40, seed=7)
    r2 = verify_all(s, policy="sample", count=40, seed=7)
    assert [rec.demand for rec in r1.records] == [rec.demand for rec in r2.records]
    assert r1.passed
    demands = {rec.demand for rec in r1.records}
    for n in range(1, 5):
        assert (n,) * 6 in demands
    r3 = verify_all(s, policy="sample", count=40, seed=8)
    assert {rec.demand for rec in r3.records} != demands


def test_verify_all_sample_of_at_least_every_demand_checks_every_demand():
    # 100 asked of 27 demands: the sample is the whole space, in order.
    s = build_scheme("theorem3", 3, 3, 1)
    sampled = verify_all(s, "sample", count=100, seed=1)
    assert sampled.policy == "sample(count=100, seed=1)"
    assert sampled.demand_count == 27
    assert tuple(sampled.records) == tuple(verify_all(s, "all").records)


def test_verify_all_sample_below_n_checks_the_n_uniform_demands():
    s = build_scheme("otp", 3, 3)
    report = verify_all(s, "sample", count=1, seed=0)
    assert report.demand_count == s.N == 3
    assert [r.demand for r in report.records[:: s.K]] == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]


def test_verify_all_sample_needs_count_and_seed():
    s = build_scheme("theorem1", 2, 3)
    with pytest.raises(ValueError):
        verify_all(s, policy="sample")
    with pytest.raises(ValueError):
        verify_all(s, policy="bogus")


def test_verify_all_refuses_sample_counts_below_one():
    s = build_scheme("otp", 2, 3)
    for count in (0, -1, -5):
        with pytest.raises(ValueError, match=f"got {count}"):
            verify_all(s, policy="sample", count=count, seed=0)


def test_verify_all_refuses_count_or_seed_without_sample():
    s = build_scheme("otp", 2, 3)
    for kwargs in ({"count": 3, "seed": 1}, {"count": 3}, {"seed": 1}):
        with pytest.raises(ValueError, match="only to policy='sample'"):
            verify_all(s, **kwargs)


def test_report_json_serializable(tmp_path):
    report = verify_all(build_scheme("theorem1", 2, 2))
    cli._write_json(report.as_dict(), tmp_path / "r.json")
    back = json.loads((tmp_path / "r.json").read_text())
    assert back["passed"] is True
    assert back["demands_checked"] == 4
    assert len(back["records"]) == 8
    rec = back["records"][0]
    assert rec["rank_full"] == rec["rank_masked_requested"] + rec["file_units"]


def test_correctness_rank_form_matches_decodability():
    # The rank identity holds exactly when every requested unit lies in
    # the observed row space.
    schemes = [
        build_scheme("theorem1", 2, 3),
        build_scheme("theorem2", 2, 3),
        build_scheme("theorem3", 2, 3, 1),
        _leaky_pad_scheme(),
    ]
    for s in schemes:
        records = _records(s)
        for d in demands_iter(s.N, s.K):
            for k in range(1, s.K + 1):
                G = observed_matrix(s, d, k)
                decodable = all(
                    in_rowspace(G, np.eye(s.layout.total, dtype=np.int64)[col]) is not None
                    for col in s.layout.file_columns(d[k])
                )
                assert decodable == records[d.entries, k].correct, (s.label, d, k)


def test_decode_recovers_ground_truth():
    s = build_scheme("theorem3", 3, 3, 1)
    d = DemandVector((1, 2, 3))
    rng = np.random.default_rng(42)
    hidden = rng.integers(0, 3, s.layout.total, dtype=np.int64)
    broadcast = s.delivery_matrix(d).apply(hidden)
    for k in (1, 2, 3):
        got = decode(s, d, k, s.cache[k - 1].apply(hidden), broadcast)
        want = hidden[list(s.layout.file_columns(d[k]))]
        assert np.array_equal(got, want)


def test_decode_rejects_wrong_symbol_counts():
    s = build_scheme("theorem1", 2, 3)
    d = DemandVector((1, 2, 1))
    with pytest.raises(ValueError):
        decode(s, d, 1, [0, 0], [0, 0])


def test_decode_raises_when_not_decodable():
    layout = VariableLayout(2, 1, ())
    empty = FieldMatrix.zeros(2, 0, layout.total)
    s = LinearScheme(
        q=2,
        layout=layout,
        K=1,
        cache=(empty,),
        delivery=lambda d: empty,
        label="degenerate",
    )
    with pytest.raises(NotDecodableError, match="not decodable"):
        decode(s, DemandVector((1,)), 1, [], [])


def test_decode_names_every_undecodable_unit():
    # Under the uniform demand broadcast row u sends unit u + 1 of file 1
    # with coefficient 1.  Dropping that entry from rows 0 and 2 leaves
    # units 1 and 3 undecodable for every user; unit 2 still decodes.
    s = build_scheme("theorem3", 2, 4, 1)
    d = DemandVector((1, 1, 1, 1))
    X = s.delivery_matrix(d).data.copy()
    assert X[0, 0] == X[2, 2] == 1
    X[0, 0] = X[2, 2] = 0
    tampered = replace(s, delivery=lambda _: FieldMatrix(s.q, X))
    hidden = np.random.default_rng(3).integers(0, s.q, s.layout.total, dtype=np.int64)
    broadcast = tampered.delivery_matrix(d).apply(hidden)
    for k in range(1, s.K + 1):
        with pytest.raises(NotDecodableError) as info:
            decode(tampered, d, k, s.cache[k - 1].apply(hidden), broadcast)
        assert info.value.units == (1, 3)
        assert str(info.value) == (
            f"unit 1 of file 1 is not decodable by user {k} under demand (1, 1, 1, 1)"
        )


def _decode_by_transposed_solve(s, d, k, cache_symbols, delivery_symbols):
    """Reference decode: in_rowspace's coefficients for the file selector, times the symbols.

    Returns the values, or the NotDecodableError decode should raise.
    """
    q = s.q
    coeffs = in_rowspace(observed_matrix(s, d, k), s.layout.file_selector(q, d[k]).data)
    missing = [i + 1 for i, c in enumerate(coeffs) if c is None]
    if missing:
        return NotDecodableError(
            f"unit {missing[0]} of file {d[k]} is not decodable by user {k} under demand {d.entries}",
            missing,
        )
    return np.stack(coeffs) @ np.concatenate([cache_symbols, delivery_symbols]) % q


def test_decode_matches_the_transposed_solve():
    # Consistent symbols, one corrupted broadcast symbol and random cache
    # symbols, on every family and on broadcasts with rows dropped or
    # repeated.  The inconsistent cases pin which combination of the
    # symbols is read, and a corrupted repeated row, which depends on the
    # rows before it, must not be read at all.
    rng = random.Random(24)
    members = [
        build_scheme("otp", 2, 3),
        build_scheme("theorem1", 2, 4),
        build_scheme("theorem2", 3, 3),
        build_scheme("theorem3", 2, 4, 1),
        build_scheme("theorem3", 3, 3, 1),
        build_scheme("theorem3", 4, 4, 2),
        build_scheme("theorem3", 3, 5, 2),
        build_scheme("theorem3", 2, 7, 2),
    ]
    cases = failures = 0
    for s in members:
        q = s.q
        all_demands = list(demands_iter(s.N, s.K))
        for d in [all_demands[0], *rng.sample(all_demands[1:], min(3, len(all_demands) - 1))]:
            X = s.delivery_matrix(d).data
            keeps = [list(range(X.shape[0]))]
            keeps += [sorted(rng.choices(range(X.shape[0]), k=rng.randrange(X.shape[0] + 3))) for _ in range(2)]
            for keep in keeps:
                dropped = replace(s, delivery=lambda _, rows=X[keep]: FieldMatrix(q, rows))
                hidden = np.array([rng.randrange(q) for _ in range(s.layout.total)], dtype=np.int64)
                broadcast = dropped.delivery_matrix(d).apply(hidden)
                for k in range(1, s.K + 1):
                    cache = s.cache[k - 1].apply(hidden)
                    symbol_cases = [(cache, broadcast)]
                    if len(keep):
                        corrupt = broadcast.copy()
                        corrupt[rng.randrange(len(keep))] += rng.randrange(1, q)
                        symbol_cases.append((cache, corrupt % q))
                    symbol_cases.append((np.array([rng.randrange(q) for _ in cache], dtype=np.int64), broadcast))
                    for cache_symbols, delivery_symbols in symbol_cases:
                        want = _decode_by_transposed_solve(dropped, d, k, cache_symbols, delivery_symbols)
                        cases += 1
                        if isinstance(want, NotDecodableError):
                            failures += 1
                            with pytest.raises(NotDecodableError) as info:
                                decode(dropped, d, k, cache_symbols, delivery_symbols)
                            assert info.value.units == want.units, (s.label, d, k, keep)
                            assert str(info.value) == str(want)
                        else:
                            got = decode(dropped, d, k, cache_symbols, delivery_symbols)
                            assert got.dtype == np.int64 and np.array_equal(got, want), (s.label, d, k, keep)
    assert 0 < failures < cases


# simulate(s, d, seed=0, corrupt_unit=u).failed_users for u = None and each
# broadcast row, every demand, frozen from the one-target-at-a-time decoder.
FROZEN_FAILED_USERS = {
    "theorem1 (3)": {
        (1, 1, 1): [(), (1, 2, 3)],
        (1, 1, 2): [(), (1, 3), (2, 3)],
        (1, 2, 1): [(), (1, 3), (2, 3)],
        (1, 2, 2): [(), (1, 3), (2, 3)],
        (2, 1, 1): [(), (1, 3), (2, 3)],
        (2, 1, 2): [(), (1, 3), (2, 3)],
        (2, 2, 1): [(), (1, 3), (2, 3)],
        (2, 2, 2): [(), (1, 2, 3)],
    },
    "theorem3 (2, 4, 1)": {
        (1, 1, 1, 1): [(), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)],
        (1, 1, 1, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 1, 2, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 1, 2, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 2, 1, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 2, 1, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 2, 2, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 2, 2, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 1, 1, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 1, 1, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 1, 2, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 1, 2, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 2, 1, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 2, 1, 2): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 2, 2, 1): [(), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (2, 2, 2, 2): [(), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)],
    },
}


@pytest.mark.parametrize("name", sorted(FROZEN_FAILED_USERS))
def test_simulate_failed_users_frozen(name):
    s = {"theorem1 (3)": build_scheme("theorem1", 2, 3), "theorem3 (2, 4, 1)": build_scheme("theorem3", 2, 4, 1)}[name]
    got = {}
    for d in demands_iter(s.N, s.K):
        rows = s.delivery_matrix(d).rows
        got[d.entries] = [simulate(s, d, 0, corrupt_unit=u).failed_users for u in [None, *range(rows)]]
    assert got == FROZEN_FAILED_USERS[name]


def test_simulate_seeded_and_reproducible():
    s = build_scheme("theorem2", 3, 3)
    d = DemandVector((1, 2, 3))
    r1 = simulate(s, d, seed=5)
    r2 = simulate(s, d, seed=5)
    assert r1 == r2
    assert r1.passed and r1.failed_users == ()


def test_simulate_detects_corruption():
    s = build_scheme("theorem1", 2, 3)
    d = DemandVector((1, 2, 2))
    clean = simulate(s, d, seed=9)
    assert clean.passed
    corrupt = simulate(s, d, seed=9, corrupt_unit=0)
    assert not corrupt.passed and corrupt.failed_users
    with pytest.raises(IndexError):
        simulate(s, d, seed=9, corrupt_unit=99)


def test_security_holds_on_cache_only_observations():
    # Row subsets of a passing observation stay secure; spot-check the
    # cache-only subset by masking every file but the (hypothetically)
    # requested one.
    for s in [
        build_scheme("otp", 2, 3),
        build_scheme("theorem1", 2, 3),
        build_scheme("theorem2", 3, 3),
        build_scheme("theorem3", 2, 3, 1),
    ]:
        for k in range(1, s.K + 1):
            cache = s.cache[k - 1]
            for n in range(1, s.N + 1):
                others = [
                    c
                    for f in range(1, s.N + 1)
                    if f != n
                    for c in s.layout.file_columns(f)
                ]
                assert rank(zero_columns(cache, others)) == rank(cache)


def _tampered(s, k, row, col):
    # Copy of s with one entry of user k's cache bumped by 1.
    data = s.cache[k - 1].data.copy()
    data[row, col] += 1
    cache = list(s.cache)
    cache[k - 1] = FieldMatrix(s.q, data)
    return LinearScheme(
        q=s.q,
        layout=s.layout,
        K=s.K,
        cache=tuple(cache),
        delivery=s.delivery,
        label=s.label + "-tampered",
        params=dict(s.params),
    )


def _stack_ranks(s, d, k):
    # The three ranks straight from the definitions: eliminate the full
    # stack, and the stack with requested / other files' columns zeroed.
    G = stack([s.cache[k - 1], s.delivery_matrix(d)])
    own = list(s.layout.file_columns(d[k]))
    others = [c for n in range(1, s.N + 1) if n != d[k] for c in s.layout.file_columns(n)]
    return rank(G), rank(zero_columns(G, own)), rank(zero_columns(G, others))


def test_rank_triples_match_stack_elimination():
    t3 = build_scheme("theorem3", 2, 3, 1)
    tampered = [_leaky_pad_scheme(), _tampered(t3, 1, 0, 0), _tampered(build_scheme("theorem2", 3, 3), 2, 0, 1)]
    schemes = [
        build_scheme("otp", 3, 3),
        build_scheme("theorem1", 2, 3),
        build_scheme("theorem2", 3, 3),
        t3,
        build_scheme("theorem3", 3, 3, 1),
        *tampered,
    ]
    for s in schemes:
        report = verify_all(s)
        assert len(report.records) == s.N**s.K * s.K
        for rec in report.records:
            d = DemandVector(rec.demand)
            r_full, r_req, r_oth = _stack_ranks(s, d, rec.user)
            got = (rec.rank_full, rec.rank_masked_requested, rec.rank_masked_others)
            assert got == (r_full, r_req, r_oth), (s.label, rec.demand, rec.user)
            assert rec.file_units == s.B
            assert rec.correct == (r_full == r_req + s.B)
            assert rec.secure == (r_full == r_oth)
        assert report.passed == (s not in tampered), s.label


@pytest.mark.parametrize("params", [(3, 4, 2), (2, 4, 1)], ids=str)
def test_verify_all_eliminates_each_cache_once_per_file(monkeypatch, params):
    # One elimination per (user, file) column order serves all three views.
    s = build_scheme("theorem3", *params)
    calls = []
    real = ff_linalg.sparse_rref

    def counting(arr, q, width, start):
        calls.append(arr.shape)
        return real(arr, q, width, start)

    monkeypatch.setattr(ff_linalg, "sparse_rref", counting)
    assert verify_all(s).passed
    assert len(calls) == s.K * s.N


def test_views_without_free_columns_make_no_rank_call(monkeypatch):
    # User 1 caches every column, so each of its bases has no free column.
    base = build_scheme("otp", 2, 2)
    s = LinearScheme(
        q=base.q,
        layout=base.layout,
        K=base.K,
        cache=(FieldMatrix(2, np.eye(base.layout.total, dtype=np.int64)), base.cache[1]),
        delivery=base.delivery,
        label="all-seeing",
    )
    calls = []
    real = ff_linalg.rank

    def counting(m):
        calls.append(m)
        return real(m)

    # Count under both names: the kernel ranks through verifier.rank.
    monkeypatch.setattr(ff_linalg, "rank", counting)
    monkeypatch.setattr(verifier, "rank", counting)
    report = verify_all(s)
    assert len(calls) == 3 * s.N**s.K  # user 2's checks only
    for rec in report.records:
        if rec.user == 1:
            got = (rec.rank_full, rec.rank_masked_requested, rec.rank_masked_others)
            assert got == _stack_ranks(s, DemandVector(rec.demand), 1)


def _mutant(s, rng):
    """Copy of s with one random cache or broadcast entry changed to another value."""
    q = s.q
    cache, delivery = s.cache, s.delivery
    mutate_cache = rng.random() < 0.5
    if mutate_cache:
        k = rng.randrange(s.K)
        data = s.cache[k].data.copy()
    else:
        d0 = DemandVector(tuple(rng.randrange(1, s.N + 1) for _ in range(s.K)))
        data = s.delivery_matrix(d0).data.copy()
    r, c = rng.randrange(data.shape[0]), rng.randrange(data.shape[1])
    data[r, c] = (data[r, c] + rng.randrange(1, q)) % q
    changed = FieldMatrix(q, data)
    if mutate_cache:
        cache = (*cache[:k], changed, *cache[k + 1:])
    else:
        delivery = lambda d: changed if d == d0 else s.delivery(d)  # noqa: E731
    return LinearScheme(
        q=s.q, layout=s.layout, K=s.K, cache=cache, delivery=delivery, label=s.label
    )


def test_verdicts_match_enumerated_entropies_on_mutants():
    # 20 single-entry mutants per family; brute_entropy never calls rank,
    # and decode, a third referee for correctness, eliminates the
    # observations with their symbols instead of ranking them.
    rng = random.Random(0)
    families = [
        build_scheme("otp", 2, 2), build_scheme("otp", 2, 3), build_scheme("theorem1", 2, 3),
        build_scheme("theorem2", 2, 3), build_scheme("theorem2", 3, 2), build_scheme("theorem3", 2, 3, 1),
    ]
    hidden_rng = np.random.default_rng(0)
    seen = set()
    for base in families:
        verdicts = set()
        for _ in range(20):
            s = _mutant(base, rng)
            hidden = hidden_rng.integers(0, s.q, s.layout.total, dtype=np.int64)
            for rec in verify_all(s).records:
                d = DemandVector(rec.demand)
                observed = (VariableRef.of_cache(rec.user), VariableRef.of_delivery(d))
                others = tuple(VariableRef.of_file(n) for n in range(1, s.N + 1) if n != d[rec.user])
                h = brute_entropy(s, observed)
                assert rec.correct == (brute_entropy(s, (*observed, VariableRef.of_file(d[rec.user]))) == h)
                assert rec.secure == (brute_entropy(s, observed + others) == h + brute_entropy(s, others))
                symbols = (s.cache[rec.user - 1].apply(hidden), s.delivery_matrix(d).apply(hidden))
                if rec.correct:
                    got = decode(s, d, rec.user, *symbols)
                    assert np.array_equal(got, hidden[list(s.layout.file_columns(d[rec.user]))])
                else:
                    with pytest.raises(NotDecodableError) as info:
                        decode(s, d, rec.user, *symbols)
                    assert info.value.units
                verdicts.add(rec.ok)
                seen.add((rec.correct, rec.secure))
        assert verdicts == {True, False}, base.label
    assert {(False, True), (True, False), (False, False)} <= seen


def test_decode_validates_user():
    s = build_scheme("theorem1", 2, 3)
    d = DemandVector((1, 2, 1))
    for k in (0, 4):
        with pytest.raises(IndexError, match=f"user {k} out of range"):
            observed_matrix(s, d, k)
        with pytest.raises(IndexError, match=f"user {k} out of range"):
            decode(s, d, k, [0], [0, 0])


# ---------------------------------------------------------------------------
# The block kernel against the per-check loop it replaced
# ---------------------------------------------------------------------------


class _PerCheckKernel(verifier._RankKernel):
    """The per-check verifier loop: one residual product and one record per check."""

    def record(self, d, k, X):
        dims, op, views = self._check(k, d[k])
        full, without, only = _residual_ranks(self.s.q, op, views, X)
        return verifier.CheckRecord(d.entries, k, dims[0] + full, dims[1] + without, dims[2] + only, self.s.B)


def _residual_ranks(q, op, views, x):
    if x.q != q or x.cols != op.shape[0]:
        raise ValueError(f"{x!r} does not match a basis over GF({q}) with {op.shape[0]} columns")
    res = x.data @ op % q
    return [rank(FieldMatrix._trusted(q, res[:, lo:hi])) if lo < hi else 0 for lo, hi in views]


def _per_check_report(s, policy="all", count=None, seed=None):
    """verify_all's records and report text, from the per-check loop."""
    if policy == "all":
        demands, policy_desc = demands_iter(s.N, s.K), "all"
    else:
        indices = verifier._sampled_indices(s.N, s.K, count, seed)
        demands = (verifier.demand_from_index(s.N, s.K, i) for i in indices)
        policy_desc = f"sample(count={count}, seed={seed})"
    kernel = _PerCheckKernel(s)
    records = []
    for d in demands:
        X = s.delivery_matrix(d)
        records.extend(kernel.record(d, k, X) for k in range(1, s.K + 1))
    failures = [r for r in records if not r.ok]
    doc = {
        "label": s.label,
        "N": s.N,
        "K": s.K,
        "policy": policy_desc,
        "demands_checked": len({r.demand for r in records}),
        "passed": not failures,
        "failures": [r.as_dict() for r in failures],
        "records": [r.as_dict() for r in records],
    }
    return tuple(records), failures, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _written_report(report, path):
    cli._write_json(report.as_dict(), path)
    return path.read_bytes()


def _assert_matches_per_check(s, tmp_path, policy="all", count=None, seed=None):
    records, failures, text = _per_check_report(s, policy, count, seed)
    kwargs = {} if policy == "all" else {"count": count, "seed": seed}
    report = verify_all(s, policy, **kwargs)
    assert tuple(report.records) == records
    assert report.failures() == failures
    assert report.passed == (not failures)
    assert report.demand_count == len(records) // s.K
    assert {**report.as_dict(), "records": list(report.as_dict()["records"])} == json.loads(text)
    assert _written_report(report, tmp_path / "report.json") == text.encode()
    return report


SWEEP_MEMBERS = [
    (N, K, t) for N in range(2, 5) for K in range(3, 6) for t in range(1, K - 1) if N**K * K <= 1024
]


@pytest.mark.parametrize("params", SWEEP_MEMBERS, ids=str)
def test_block_kernel_matches_the_per_check_loop_on_the_sweep_members(tmp_path, capsys, params):
    s = build_scheme("theorem3", *params)
    records, _, text = _per_check_report(s)
    _assert_matches_per_check(s, tmp_path)
    path = tmp_path / "t3.json"
    write_scheme(s, path)
    assert main(["verify", "--scheme", str(path), "--report", str(tmp_path / "cli.json")]) == 0
    assert (tmp_path / "cli.json").read_bytes() == text.encode()
    assert capsys.readouterr().out == (
        f"PASS theorem3: {s.N**s.K} demands, {len(records)} (demand, user) checks, 0 failures\n"
    )


def test_block_kernel_matches_the_per_check_loop_over_several_blocks(tmp_path):
    # 729 and 243 demands: blocks of VERIFY_BLOCK demands, the last one short.
    for s in (build_scheme("otp", 3, 6), build_scheme("theorem2", 3, 5)):
        assert s.N**s.K > verifier.VERIFY_BLOCK and (s.N**s.K) % verifier.VERIFY_BLOCK
        _assert_matches_per_check(s, tmp_path)


@pytest.mark.parametrize("seed", range(4))
def test_block_kernel_matches_the_per_check_loop_on_samples(tmp_path, seed):
    for s, count in (
        (build_scheme("theorem3", 4, 6, 2), 40),
        (build_scheme("theorem3", 2, 7, 2), 9),
        (build_scheme("otp", 2, 12), 2 * verifier.VERIFY_BLOCK + 5),
    ):
        _assert_matches_per_check(s, tmp_path, "sample", count, seed)


def test_block_kernel_matches_the_per_check_loop_on_a_sample_past_int32_indices(tmp_path):
    # otp (2, 40) has 2**40 demands; the last uniform one is always sampled.
    s = build_scheme("otp", 2, 40)
    report = _assert_matches_per_check(s, tmp_path, "sample", 10, 0)
    assert report.records[-1].demand == (2,) * 40
    assert report.table.dtype == np.int32


def test_block_kernel_matches_the_per_check_loop_on_mutants_and_tampered_schemes(tmp_path):
    rng = random.Random(3)
    t3 = build_scheme("theorem3", 2, 3, 1)
    schemes = [
        _leaky_pad_scheme(),
        _tampered(t3, 1, 0, 0),
        _tampered(build_scheme("theorem2", 3, 3), 2, 0, 1),
        *(_mutant(base, rng) for base in (t3, build_scheme("otp", 2, 3), build_scheme("theorem2", 3, 2)) for _ in range(8)),
    ]
    failing = 0
    for s in schemes:
        failing += not _assert_matches_per_check(s, tmp_path).passed
    assert failing >= 3


def test_tampered_document_reports_its_failures_as_the_per_check_loop(tmp_path, capsys):
    s = build_scheme("theorem3", 2, 4, 1)
    path = tmp_path / "t3.json"
    write_scheme(s, path)
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["delivery"]["entries"] if e["demand"] == [1, 2, 1, 2])
    entry["rows"][0] = [0] * len(entry["rows"][0])
    path.write_text(json.dumps(doc))
    _, failures, text = _per_check_report(cli.load_scheme(path))
    assert failures
    assert main(["verify", "--scheme", str(path), "--report", str(tmp_path / "r.json")]) == 1
    assert (tmp_path / "r.json").read_bytes() == text.encode()
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary == f"FAIL theorem3: 16 demands, 64 (demand, user) checks, {len(failures)} failures"


def test_verify_all_holds_at_most_40_bytes_per_record(monkeypatch):
    # The peak of everything verify_all allocates, its table and one
    # block's broadcasts and residuals, over otp (2, 12)'s 49,152 checks.
    # rank's lists live only within each call, so a row count stands in
    # for it to keep the traced run short.
    tracemalloc = pytest.importorskip("tracemalloc")
    s = build_scheme("otp", 2, 12)
    monkeypatch.setattr(ff_linalg, "rank", lambda m: m.rows)
    monkeypatch.setattr(verifier, "rank", lambda m: m.rows)
    tracemalloc.start()
    try:
        report = verify_all(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checks = s.N**s.K * s.K
    assert report.demand_count == s.N**s.K
    assert peak <= 40 * checks, f"{peak / checks:.1f} bytes per record"


def test_a_passing_verify_builds_no_check_record(tmp_path, monkeypatch, capsys):
    built = []
    real = verifier.CheckRecord

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(verifier, "CheckRecord", counting)
    path = tmp_path / "t3.json"
    write_scheme(build_scheme("theorem3", 3, 4, 2), path)
    assert main(["verify", "--scheme", str(path)]) == 0
    assert capsys.readouterr().out == "PASS theorem3: 81 demands, 324 (demand, user) checks, 0 failures\n"
    assert built == []
    report = verify_all(build_scheme("theorem3", 3, 4, 2))
    assert len(report.records) == 324 and built == []
    # A failing one builds its failures' records only.
    report = verify_all(_leaky_pad_scheme())
    failures = report.failures()
    assert 0 < len(built) == len(failures) < len(report.table)


def test_records_carry_plain_ints(tmp_path):
    report = verify_all(_tampered(build_scheme("theorem3", 2, 3, 1), 1, 0, 0))
    failures = report.failures()
    assert failures
    for rec in (*report.records, *failures):
        fields = (*rec.demand, rec.user, rec.rank_full, rec.rank_masked_requested, rec.rank_masked_others, rec.file_units)
        assert {type(x) for x in fields} == {int}
        assert type(rec.demand) is tuple
    cli._write_json({"failures": [r.as_dict() for r in failures]}, tmp_path / "f.json")
