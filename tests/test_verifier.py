"""Verifier tests: rank identities, decoding, and simulation."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from securecache.constructions import (
    build_otp,
    build_theorem1,
    build_theorem2,
    build_theorem3,
)
from securecache import ff_linalg, verifier
from securecache.entropy_oracle import VariableRef, brute_entropy
from securecache.ff_linalg import FieldMatrix, PrimeField, in_rowspace, rank, stack, zero_columns
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
    records = _records(build_theorem1(3))
    c1 = records[(1, 1, 2), 1]
    assert (c1.correct, c1.rank_full, c1.rank_masked_requested, c1.file_units) == (True, 3, 2, 1)
    c3 = records[(1, 1, 2), 3]
    assert (c3.correct, c3.rank_full, c3.rank_masked_requested) == (True, 3, 2)


def test_security_ranks_two_file_scheme():
    records = _records(build_theorem1(3))
    for k in (1, 2, 3):
        chk = records[(1, 1, 2), k]
        assert chk.secure and chk.rank_full == chk.rank_masked_others == 3


def test_degenerate_scheme_fails_correctness():
    layout = VariableLayout(2, 1, ())
    empty = FieldMatrix.zeros(2, 0, layout.total)
    s = LinearScheme(
        field=PrimeField(2),
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
    s = build_otp(2, 2)
    bad = FieldMatrix(2, [[0, 1, 0, 0]])
    return LinearScheme(
        field=s.field,
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
    for s in [build_otp(3, 3), build_theorem1(4), build_theorem2(3, 3), build_theorem3(2, 3, 1)]:
        report = verify_all(s)
        assert report.passed
        assert report.demand_count == s.N**s.K
        assert len(report.records) == s.N**s.K * s.K


def test_verify_all_cap():
    # 2**20 demands are past the cap.
    s = build_otp(2, 20)
    with pytest.raises(ValueError, match="sample"):
        verify_all(s)


def test_verify_all_refuses_a_sample_count_past_the_cap():
    # Refused before any index is drawn: 2**40 demands would let the
    # sampler ask for DEMAND_CAP + 1 of them.
    s = build_otp(2, 40)
    with pytest.raises(ValueError, match=f"^sample count {DEMAND_CAP + 1} exceeds cap {DEMAND_CAP}$"):
        verify_all(s, policy="sample", count=DEMAND_CAP + 1, seed=0)


def test_verify_all_sample_is_deterministic_and_covers_uniform():
    s = build_theorem3(4, 6, 2)
    r1 = verify_all(s, policy="sample", count=40, seed=7)
    r2 = verify_all(s, policy="sample", count=40, seed=7)
    assert [rec.demand for rec in r1.records] == [rec.demand for rec in r2.records]
    assert r1.passed
    demands = {rec.demand for rec in r1.records}
    for n in range(1, 5):
        assert (n,) * 6 in demands
    r3 = verify_all(s, policy="sample", count=40, seed=8)
    assert {rec.demand for rec in r3.records} != demands


def test_verify_all_sample_needs_count_and_seed():
    s = build_theorem1(3)
    with pytest.raises(ValueError):
        verify_all(s, policy="sample")
    with pytest.raises(ValueError):
        verify_all(s, policy="bogus")


def test_verify_all_refuses_sample_counts_below_one():
    s = build_otp(2, 3)
    for count in (0, -1, -5):
        with pytest.raises(ValueError, match=f"got {count}"):
            verify_all(s, policy="sample", count=count, seed=0)


def test_verify_all_refuses_count_or_seed_without_sample():
    s = build_otp(2, 3)
    for kwargs in ({"count": 3, "seed": 1}, {"count": 3}, {"seed": 1}):
        with pytest.raises(ValueError, match="only to policy='sample'"):
            verify_all(s, **kwargs)


def test_report_json_serializable():
    report = verify_all(build_theorem1(2))
    blob = json.dumps(report.as_dict())
    back = json.loads(blob)
    assert back["passed"] is True
    assert back["demands_checked"] == 4
    assert len(back["records"]) == 8
    rec = back["records"][0]
    assert rec["rank_full"] == rec["rank_masked_requested"] + rec["file_units"]


def test_correctness_rank_form_matches_decodability():
    # The rank identity holds exactly when every requested unit lies in
    # the observed row space.
    schemes = [build_theorem1(3), build_theorem2(2, 3), build_theorem3(2, 3, 1), _leaky_pad_scheme()]
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
    s = build_theorem3(3, 3, 1)
    d = DemandVector((1, 2, 3))
    rng = np.random.default_rng(42)
    hidden = rng.integers(0, 3, s.layout.total, dtype=np.int64)
    broadcast = s.delivery_matrix(d).apply(hidden)
    for k in (1, 2, 3):
        got = decode(s, d, k, s.cache[k - 1].apply(hidden), broadcast)
        want = hidden[list(s.layout.file_columns(d[k]))]
        assert np.array_equal(got, want)


def test_decode_rejects_wrong_symbol_counts():
    s = build_theorem1(3)
    d = DemandVector((1, 2, 1))
    with pytest.raises(ValueError):
        decode(s, d, 1, [0, 0], [0, 0])


def test_decode_raises_when_not_decodable():
    layout = VariableLayout(2, 1, ())
    empty = FieldMatrix.zeros(2, 0, layout.total)
    s = LinearScheme(
        field=PrimeField(2),
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
    s = build_theorem3(2, 4, 1)
    d = DemandVector((1, 1, 1, 1))
    X = s.delivery_matrix(d).data.copy()
    assert X[0, 0] == X[2, 2] == 1
    X[0, 0] = X[2, 2] = 0
    tampered = replace(s, delivery=lambda _: FieldMatrix(s.field.q, X))
    hidden = np.random.default_rng(3).integers(0, s.field.q, s.layout.total, dtype=np.int64)
    broadcast = tampered.delivery_matrix(d).apply(hidden)
    for k in range(1, s.K + 1):
        with pytest.raises(NotDecodableError) as info:
            decode(tampered, d, k, s.cache[k - 1].apply(hidden), broadcast)
        assert info.value.units == (1, 3)
        assert str(info.value) == (
            f"unit 1 of file 1 is not decodable by user {k} under demand (1, 1, 1, 1)"
        )


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
    s = {"theorem1 (3)": build_theorem1(3), "theorem3 (2, 4, 1)": build_theorem3(2, 4, 1)}[name]
    got = {}
    for d in demands_iter(s.N, s.K):
        rows = s.delivery_matrix(d).rows
        got[d.entries] = [simulate(s, d, 0, corrupt_unit=u).failed_users for u in [None, *range(rows)]]
    assert got == FROZEN_FAILED_USERS[name]


def test_simulate_seeded_and_reproducible():
    s = build_theorem2(3, 3)
    d = DemandVector((1, 2, 3))
    r1 = simulate(s, d, seed=5)
    r2 = simulate(s, d, seed=5)
    assert r1 == r2
    assert r1.passed and r1.failed_users == ()


def test_simulate_detects_corruption():
    s = build_theorem1(3)
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
    for s in [build_otp(2, 3), build_theorem1(3), build_theorem2(3, 3), build_theorem3(2, 3, 1)]:
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
    cache[k - 1] = FieldMatrix(s.field.q, data)
    return LinearScheme(
        field=s.field,
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
    t3 = build_theorem3(2, 3, 1)
    tampered = [_leaky_pad_scheme(), _tampered(t3, 1, 0, 0), _tampered(build_theorem2(3, 3), 2, 0, 1)]
    schemes = [
        build_otp(3, 3),
        build_theorem1(3),
        build_theorem2(3, 3),
        t3,
        build_theorem3(3, 3, 1),
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


def test_verify_all_eliminates_each_cache_at_most_1_plus_2n_times(monkeypatch):
    calls = []
    real = verifier.row_basis

    def counting(m, keep=None):
        calls.append(m)
        return real(m, keep)

    monkeypatch.setattr(verifier, "row_basis", counting)
    s = build_theorem3(3, 4, 2)
    assert verify_all(s).passed
    assert len(calls) == s.K * (1 + 2 * s.N)


def test_views_without_free_columns_make_no_rank_call(monkeypatch):
    # User 1 caches every column, so each of its bases has no free column.
    base = build_otp(2, 2)
    s = LinearScheme(
        field=base.field,
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

    # The kernel ranks through ff_linalg.residual_ranks; count under both names.
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
    q = s.field.q
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
        field=s.field, layout=s.layout, K=s.K, cache=cache, delivery=delivery, label=s.label
    )


def test_verdicts_match_enumerated_entropies_on_mutants():
    # 20 single-entry mutants per family; brute_entropy never calls rank.
    rng = random.Random(0)
    families = [
        build_otp(2, 2), build_otp(2, 3), build_theorem1(3),
        build_theorem2(2, 3), build_theorem2(3, 2), build_theorem3(2, 3, 1),
    ]
    seen = set()
    for base in families:
        verdicts = set()
        for _ in range(20):
            s = _mutant(base, rng)
            for rec in verify_all(s).records:
                d = DemandVector(rec.demand)
                observed = (VariableRef.of_cache(rec.user), VariableRef.of_delivery(d))
                others = tuple(VariableRef.of_file(n) for n in range(1, s.N + 1) if n != d[rec.user])
                h = brute_entropy(s, observed)
                assert rec.correct == (brute_entropy(s, (*observed, VariableRef.of_file(d[rec.user]))) == h)
                assert rec.secure == (brute_entropy(s, observed + others) == h + brute_entropy(s, others))
                verdicts.add(rec.ok)
                seen.add((rec.correct, rec.secure))
        assert verdicts == {True, False}, base.label
    assert {(False, True), (True, False), (False, False)} <= seen


def test_decode_validates_user():
    s = build_theorem1(3)
    d = DemandVector((1, 2, 1))
    for k in (0, 4):
        with pytest.raises(IndexError, match=f"user {k} out of range"):
            observed_matrix(s, d, k)
        with pytest.raises(IndexError, match=f"user {k} out of range"):
            decode(s, d, k, [0], [0, 0])
