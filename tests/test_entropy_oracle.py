"""Entropy oracle tests: brute-force counts, rank agreement, lemma checks."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from securecache import entropy_oracle, ff_linalg
from securecache.constructions import build_otp, build_shares, build_theorem1, build_theorem2, build_theorem3
from securecache.entropy_oracle import (
    EnumerationCapError,
    OracleInvariantError,
    VariableRef,
    _bounded_deliveries,
    _Enumerator,
    brute_entropy,
    check_lemma1_lemma2,
    check_lemma3_lemma4,
    check_rank_agreement,
    check_secret_sharing,
    stacked_matrix,
)
from securecache.ff_linalg import rank


def test_single_file_entropy_is_unit_count():
    s = build_theorem1(3)
    res = brute_entropy(s, [VariableRef.of_file(1)])
    assert (res.value, res.uniform, res.image_size) == (1, True, 3)


def test_all_caches_and_one_file_frozen_value():
    # Three caches of the two-file scheme plus one file span 4 units:
    # the matrix [[0,0,1,0],[0,0,0,1],[2,2,1,1],[1,0,0,0]] has rank 4.
    s = build_theorem1(3)
    refs = [VariableRef.of_cache(k) for k in (1, 2, 3)] + [VariableRef.of_file(1)]
    res = brute_entropy(s, refs)
    assert (res.value, res.image_size) == (4, 81)


def test_cache_plus_broadcast_frozen_value():
    s = build_theorem2(3, 3)
    refs = [VariableRef.of_cache(1), VariableRef.of_delivery((1, 2, 3))]
    res = brute_entropy(s, refs)
    assert (res.value, res.image_size) == (5, 32)


def test_oracle_values_never_consult_rank(monkeypatch):
    s1, s2 = build_theorem1(3), build_theorem2(3, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle value consulted the rank machinery")

    monkeypatch.setattr(ff_linalg, "_eliminate", refuse)
    monkeypatch.setattr(entropy_oracle, "rank", refuse)
    monkeypatch.setattr(ff_linalg, "ranks", refuse)
    monkeypatch.setattr(entropy_oracle, "ranks", refuse)
    res = brute_entropy(s1, [VariableRef.of_cache(k) for k in (1, 2, 3)] + [VariableRef.of_file(1)])
    assert (res.value, res.image_size) == (4, 81)
    res = brute_entropy(s2, [VariableRef.of_cache(1), VariableRef.of_delivery((1, 2, 3))])
    assert (res.value, res.image_size) == (5, 32)


def _reference_tally(q, G):
    """Image counts of G by plain enumeration of every input vector."""
    inputs = np.array(list(itertools.product(range(q), repeat=G.shape[1])), dtype=np.int64)
    return Counter(map(tuple, (inputs @ G.T % q).tolist()))


@st.composite
def linear_maps(draw):
    """(q, G) with q**cols at most 20000; products of two factors give low-rank maps."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, {2: 14, 3: 9, 5: 6, 7: 5}[q]))
    m = draw(st.integers(0, 8))
    r = draw(st.integers(1, max(m, 1)))
    digits = lambda rows, cols: st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    A = np.array(draw(digits(m, r)), dtype=np.int64).reshape(m, r)
    B = np.array(draw(digits(r, n)), dtype=np.int64).reshape(r, n)
    return q, A @ B % q


def _random_map(q, rows, cols):
    return q, np.random.default_rng(rows * cols).integers(0, q, (rows, cols))


@settings(max_examples=150, deadline=None)
@given(case=linear_maps())
@example(case=(3, np.zeros((0, 4), dtype=np.int64)))
# q**cols = 2**18 inputs walked in 64 blocks.
@example(case=_random_map(2, 5, 18))
# 3**45 >= 2**62: images are coded in two groups of rows and compared as bytes.
@example(case=_random_map(3, 45, 5))
@example(case=_random_map(2, 70, 4))
def test_enumerator_matches_plain_enumeration(case):
    q, G = case
    enum = _Enumerator(q, G.shape[1])
    images = _reference_tally(q, G)
    value = 0
    while q**value < len(images):
        value += 1
    assert q**value == len(images)
    assert enum.entropy_units(G) == value
    if G.shape[0]:
        assert sorted(enum.image_tally(G).tolist()) == sorted(images.values())


def test_image_codes_stay_below_2_to_62():
    # A group of rows is coded as one int64 only if every code fits below 2**62.
    for q in (2, 3, 5, 7, 65537, 2147483647):
        enum = _Enumerator(q, 0)
        assert q**enum.group < 2**62 <= q ** (enum.group + 1)
        assert enum.powers.tolist() == [q**i for i in range(enum.group - 1, -1, -1)]


def test_non_uniform_tally_is_refused(monkeypatch):
    monkeypatch.setattr(_Enumerator, "image_tally", lambda self, G: np.array([3, 1, 3]))
    with pytest.raises(OracleInvariantError, match="non-uniform"):
        _Enumerator(3, 2).entropy_units(np.eye(2, dtype=np.int64))


def test_non_power_image_size_is_refused(monkeypatch):
    monkeypatch.setattr(_Enumerator, "image_tally", lambda self, G: np.array([1, 1]))
    with pytest.raises(OracleInvariantError, match="not a power of 3"):
        _Enumerator(3, 2).entropy_units(np.eye(2, dtype=np.int64))


def test_empty_collection_has_zero_entropy():
    s = build_theorem1(2)
    res = brute_entropy(s, [])
    assert (res.value, res.image_size) == (0, 1)


def test_entropy_image_size_invariant():
    s = build_theorem2(2, 3)
    collections = [
        [VariableRef.of_file(2)],
        [VariableRef.of_cache(3)],
        [VariableRef.of_delivery((2, 1, 2))],
        [VariableRef.of_file(1), VariableRef.of_cache(1), VariableRef.of_delivery((1, 1, 1))],
    ]
    for refs in collections:
        res = brute_entropy(s, refs)
        assert res.uniform
        assert res.image_size == s.field.q**res.value
        assert res.value == rank(stacked_matrix(s, refs))


def test_share_variable_entropy():
    s = build_theorem3(2, 3, 1)
    labels = s.shares.labels
    one = brute_entropy(s, [VariableRef.of_shares(1, labels[:1])])
    assert one.value == 1
    # All shares of one file carry the file and the masking key.
    full = brute_entropy(s, [VariableRef.of_shares(1, labels)])
    assert full.value == s.B + s.shares.key_units


def test_enumeration_cap_reports_required_size():
    s = build_theorem3(3, 4, 2)
    with pytest.raises(EnumerationCapError) as exc:
        brute_entropy(s, [VariableRef.of_file(1)])
    assert exc.value.required == 7**22
    with pytest.raises(EnumerationCapError):
        check_rank_agreement(s, subset_size_cap=1)


def test_variable_ref_validation():
    s = build_theorem1(3)
    with pytest.raises(IndexError):
        VariableRef.of_cache(4).resolve(s)
    with pytest.raises(ValueError, match="unknown variable kind"):
        VariableRef(kind="oracle").resolve(s)


def test_bounded_deliveries_cover_endpoints():
    s = build_otp(3, 3)
    all_d = _bounded_deliveries(s, 64)
    assert len(all_d) == 27
    few = _bounded_deliveries(s, 8)
    assert len(few) == 8
    assert few[0].entries == (1, 1, 1)
    assert few[-1].entries == (3, 3, 3)


def test_bounded_deliveries_single_and_invalid():
    s = build_otp(3, 3)
    one = _bounded_deliveries(s, 1)
    assert [d.entries for d in one] == [(1, 1, 1)]
    for bad in (0, -2):
        with pytest.raises(ValueError, match="max_deliveries"):
            _bounded_deliveries(s, bad)


def test_rank_agreement_small_schemes():
    assert check_rank_agreement(build_theorem1(3), subset_size_cap=3)
    assert check_rank_agreement(build_theorem2(2, 3), subset_size_cap=3)
    assert check_rank_agreement(build_theorem3(2, 3, 1), subset_size_cap=2)


def test_rank_agreement_refuses_negative_cap():
    for cap in (-1, -3):
        with pytest.raises(ValueError, match=f"got {cap}"):
            check_rank_agreement(build_theorem1(3), subset_size_cap=cap)


def test_rank_agreement_catches_one_rank_off_by_one(monkeypatch):
    # theorem1 (3) at cap 2 has 1 + 13 + 78 collections, one block; the
    # comparison rank of collection 40 alone is raised by one.
    s = build_theorem1(3)
    true_ranks = ff_linalg.ranks
    seen = []

    def skewed(q, stacks):
        out = true_ranks(q, stacks)
        offset = sum(seen)
        seen.append(len(out))
        if offset <= 40 < offset + len(out):
            out[40 - offset] += 1
        return out

    monkeypatch.setattr(entropy_oracle, "ranks", skewed)
    assert not check_rank_agreement(s, subset_size_cap=2)
    assert seen == [92]


def test_lemma1_lemma2_on_unit_cache_schemes():
    for s in [build_theorem1(2), build_theorem1(3), build_theorem1(4), build_otp(3, 3)]:
        assert check_lemma1_lemma2(s)


def test_lemma1_lemma2_requires_unit_cache():
    with pytest.raises(ValueError, match="cache size 1"):
        check_lemma1_lemma2(build_theorem2(3, 3))


def test_lemma3_lemma4_on_unit_rate_schemes():
    assert check_lemma3_lemma4(build_theorem2(2, 3))
    assert check_lemma3_lemma4(build_theorem2(3, 3), samples=5, seed=1)


def test_lemma3_lemma4_requires_unit_rate():
    with pytest.raises(ValueError, match="unit rate"):
        check_lemma3_lemma4(build_theorem1(3))


def test_secret_sharing_exhaustive_cases():
    assert check_secret_sharing(3, 1)
    assert check_secret_sharing(4, 2)
    assert check_secret_sharing(5, 2)


def test_secret_sharing_sampled_path():
    # comb(7, 3) = 35 shares is past the exhaustive limit.
    assert check_secret_sharing(7, 3, sample_count=200)


def test_secret_sharing_catches_a_leaking_share(monkeypatch):
    # With the last key column zeroed, three shares carry only two key
    # units: shares 0, 3 and 4 have rank 3 but rank 2 once the file
    # columns are masked, so together they reveal a file combination.
    # All shares still recover the file, so only the rank comparison fails.
    honest = build_shares(4, 2)
    gen = honest.generator.data.copy()
    gen[:, -1] = 0
    leaky = dataclasses.replace(honest, generator=ff_linalg.FieldMatrix(honest.q, gen))
    monkeypatch.setattr(entropy_oracle, "build_shares", lambda K, t: leaky)
    assert not check_secret_sharing(4, 2)
