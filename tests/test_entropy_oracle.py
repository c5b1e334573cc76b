"""Entropy oracle tests: brute-force counts, rank agreement, lemma checks.

The lemma checks run on the verifier's rank kernel; they are tested here
against a reference that enumerates each stacked collection with
brute_entropy, so that it shares no rank routine with them.  Its
members have at most 2**12 inputs; the unit-rate gap scheme, past any
enumeration, is checked against ranks from an XOR basis instead.
"""

import ast
import dataclasses
import itertools
import random
import time
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from securecache import entropy_oracle, ff_linalg
from securecache.constructions import build_scheme, build_shares
from securecache.entropy_oracle import (
    EnumerationCapError,
    OracleInvariantError,
    VariableRef,
    _bounded_deliveries,
    _Enumerator,
    _essential_columns,
    _sorted_units,
    brute_entropy,
    check_rank_agreement,
    check_secret_sharing,
    stacked_matrix,
)
from securecache.ff_linalg import rank
from securecache.scheme_model import (
    DEMAND_CAP,
    DemandVector,
    LinearScheme,
    VariableLayout,
    demands_iter,
    memory_of,
    worst_case_rate,
)
from securecache.verifier import check_lemma1_lemma2, check_lemma3_lemma4


def test_single_file_entropy_is_unit_count():
    s = build_scheme("theorem1", 2, 3)
    assert brute_entropy(s, [VariableRef.of_file(1)]) == 1


def test_all_caches_and_one_file_frozen_value():
    # Three caches of the two-file scheme plus one file span 4 units:
    # the matrix [[0,0,1,0],[0,0,0,1],[2,2,1,1],[1,0,0,0]] has rank 4.
    s = build_scheme("theorem1", 2, 3)
    refs = [VariableRef.of_cache(k) for k in (1, 2, 3)] + [VariableRef.of_file(1)]
    assert brute_entropy(s, refs) == 4


def test_cache_plus_broadcast_frozen_value():
    s = build_scheme("theorem2", 3, 3)
    refs = [VariableRef.of_cache(1), VariableRef.of_delivery((1, 2, 3))]
    assert brute_entropy(s, refs) == 5


def test_oracle_values_never_consult_rank(monkeypatch):
    s1, s2 = build_scheme("theorem1", 2, 3), build_scheme("theorem2", 3, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle value consulted the rank machinery")

    # Every elimination entry point: the RREF behind row_basis and
    # in_rowspace, rank, and ranks under both of its bindings.
    monkeypatch.setattr(ff_linalg, "sparse_rref", refuse)
    monkeypatch.setattr(ff_linalg, "rank", refuse)
    monkeypatch.setattr(ff_linalg, "ranks", refuse)
    monkeypatch.setattr(entropy_oracle, "ranks", refuse)
    assert brute_entropy(s1, [VariableRef.of_cache(k) for k in (1, 2, 3)] + [VariableRef.of_file(1)]) == 4
    assert brute_entropy(s2, [VariableRef.of_cache(1), VariableRef.of_delivery((1, 2, 3))]) == 5


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


def _second_group_map(q, rows, cols):
    """A random map whose first Horner group of rows is zero, so only later rows tell images apart."""
    q, G = _random_map(q, rows, cols)
    G[: _Enumerator(q, 0).group] = 0
    return q, G


@settings(max_examples=150, deadline=None)
@given(case=linear_maps())
@example(case=(3, np.zeros((0, 4), dtype=np.int64)))
# q**cols = 2**18 inputs walked in 64 blocks.
@example(case=_random_map(2, 5, 18))
# 3**45 >= 2**62: images are coded in two groups of rows and compared as bytes.
@example(case=_random_map(3, 45, 5))
@example(case=_random_map(2, 70, 4))
# Two groups of rows on 2**14 inputs, built block by block.
@example(case=_random_map(2, 70, 14))
@example(case=_second_group_map(2, 70, 14))
@example(case=_second_group_map(3, 45, 5))
def test_enumerator_matches_plain_enumeration(case):
    q, G = case
    enum = _Enumerator(q, G.shape[1])
    images = _reference_tally(q, G)
    value = 0
    while q**value < len(images):
        value += 1
    assert q**value == len(images)
    assert enum.entropy_units(G[None]).tolist() == [value]
    if G.shape[0]:
        assert sorted(_code_counts(enum, G).values()) == sorted(images.values())


def _code_counts(enum, G):
    """How many inputs the enumerator codes to each image code of the map G."""
    return Counter(enum._codes(G[None])[0].tolist())


@st.composite
def padded_blocks(draw):
    """(q, mats, block): up to 4 maps with zero and repeated columns injected, zero-padded into one block."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, {2: 9, 3: 9, 5: 6, 7: 5}[q]))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(0, 6))
        G = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * n, max_size=rows * n)), dtype=np.int64)
        G = G.reshape(rows, n)
        for j in range(n):
            # Each column is kept as drawn, zeroed, or a copy of an earlier one.
            how = draw(st.sampled_from(["drawn", "zero", "repeat"]))
            if how == "zero":
                G[:, j] = 0
            elif how == "repeat" and j:
                G[:, j] = G[:, draw(st.integers(0, j - 1))]
        mats.append(G)
    return q, mats, _padded(mats, n, draw(st.integers(0, 2)))


def _padded(mats, n, extra_rows=0):
    block = np.zeros((len(mats), max(len(G) for G in mats) + extra_rows, n), dtype=np.int64)
    for G, rows in zip(mats, block):
        rows[: len(G)] = G
    return block


def _block_case(q, *mats, extra_rows=0):
    mats = [np.array(G, dtype=np.int64) for G in mats]
    return q, mats, _padded(mats, mats[0].shape[1], extra_rows)


@settings(max_examples=150, deadline=None)
@given(case=padded_blocks())
@example(case=_block_case(3, np.zeros((0, 4))))
@example(case=_block_case(3, np.zeros((0, 4)), extra_rows=2))
@example(case=_block_case(2, np.zeros((3, 5)), np.zeros((0, 5)), extra_rows=1))
# Columns that agree on the first row only are not repeats.
@example(case=_block_case(2, [[1, 1, 0], [0, 1, 0]], [[1, 0, 1]]))
def test_essential_columns_scale_every_tally(case):
    q, mats, block = case
    kept, widths = _essential_columns(block)
    for G, G_kept, width in zip(mats, kept, widths.tolist()):
        n = G.shape[1]
        # The nonzero columns, each once, in order of first appearance.
        distinct = list(dict.fromkeys(col for col in map(tuple, G.T.tolist()) if any(col)))
        assert width == len(distinct)
        assert G_kept[: len(G), :width].T.tolist() == [list(col) for col in distinct]
        assert not G_kept[len(G) :].any()
        reduced = G_kept[: len(G), :width]
        full_enum, enum = _Enumerator(q, n), _Enumerator(q, width)
        assert full_enum.entropy_units(G[None]).tolist() == enum.entropy_units(reduced[None]).tolist()
        if len(G):
            scaled = {code: q ** (n - width) * c for code, c in _code_counts(enum, reduced).items()}
            assert _code_counts(full_enum, G) == scaled


def test_image_codes_stay_below_2_to_62():
    # A group of rows is coded as one int64 only if every code fits below 2**62.
    for q in (2, 3, 5, 7, 65537, 2147483647):
        enum = _Enumerator(q, 0)
        assert q**enum.group < 2**62 <= q ** (enum.group + 1)
        assert enum.powers.tolist() == [q**i for i in range(enum.group - 1, -1, -1)]


# 3**8 inputs are past _Enumerator.BLOCK, so these maps' codes are built
# block by block; the patched codes are sorted, as _codes returns them.
def test_non_uniform_tally_is_refused(monkeypatch):
    # Three codes, a power of 3, tallied 3**8 - 2, 1 and 1.
    codes = np.zeros((1, 3**8), dtype=np.int64)
    codes[0, -2:] = [1, 2]
    monkeypatch.setattr(_Enumerator, "_codes", lambda self, stacks: codes)
    with pytest.raises(OracleInvariantError, match=r"non-uniform image for a linear map: tallies \[1, 6559\]"):
        _Enumerator(3, 8).entropy_units(np.eye(8, dtype=np.int64)[None])


def test_non_power_image_size_is_refused(monkeypatch):
    codes = np.sort(np.arange(3**8, dtype=np.int64) % 2)[None]
    monkeypatch.setattr(_Enumerator, "_codes", lambda self, stacks: codes)
    with pytest.raises(OracleInvariantError, match="image size 2 is not a power of 3"):
        _Enumerator(3, 8).entropy_units(np.eye(8, dtype=np.int64)[None])


def test_sorted_codes_give_each_rows_units():
    codes = np.array([[5] * 8, [0, 0, 0, 0, 7, 7, 7, 7], [1, 1, 2, 2, 4, 4, 9, 9], list(range(8))])
    assert _sorted_units(2, codes).tolist() == [0, 1, 2, 3]
    assert _sorted_units(3, np.array([[0, 0, 0, 4, 4, 4, 8, 8, 8]])).tolist() == [1]


@pytest.mark.parametrize(
    "q, row, problem",
    [
        # Four codes, a power of 2, but tallied 3, 1, 2, 2.
        (2, [0, 0, 0, 1, 2, 2, 3, 3], "non-uniform"),
        (2, [0, 0, 0, 1], "non-uniform"),
        # Three codes, a power of 3, but tallied 4, 4, 1.
        (3, [0, 0, 0, 0, 1, 1, 1, 1, 2], "non-uniform"),
        (3, [0, 0, 0, 1, 1, 1, 2, 2, 3], "image size 4 is not a power of 3"),
        (3, [0, 0, 0, 0, 0, 1, 1, 1, 1], "image size 2 is not a power of 3"),
        (2, [0, 1, 2, 2], "image size 3 is not a power of 2"),
    ],
)
def test_sorted_codes_of_a_non_uniform_image_are_refused(q, row, problem):
    # A uniform row first: the refused row need not be the first.
    with pytest.raises(OracleInvariantError, match=problem):
        _sorted_units(q, np.array([[0] * len(row), row]))


@st.composite
def map_stacks(draw):
    """(q, mats, stack): 1-6 low-rank maps of mixed row counts, zero-padded into one (C, R, n) stack.

    Widths run past _Enumerator.BLOCK for each q (2**13, 3**8, 5**6 inputs),
    so codes built from one table and block by block are both drawn.
    """
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, {2: 13, 3: 8, 5: 6}[q]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(0, 7))
        r = draw(st.integers(0, max(min(rows, n), 0)))
        mats.append(rng.integers(0, q, (rows, r)) @ rng.integers(0, q, (r, n)) % q)
    return q, mats, _padded(mats, n, draw(st.integers(0, 3)))


def _alone_units(q, G):
    """The entropy of one map, enumerated on its own, without padding rows."""
    return _Enumerator(q, G.shape[1]).entropy_units(G[None]).item()


def _map_stack_case(q, rows_each, n, extra_rows, seed=0):
    rng = np.random.default_rng(seed)
    mats = [rng.integers(0, q, (rows, n)) for rows in rows_each]
    return q, mats, _padded(mats, n, extra_rows)


@settings(max_examples=120, deadline=None)
@given(case=map_stacks())
# More zero-padded rows than one Horner group holds (61 for q = 2): compared as bytes.
@example(case=_map_stack_case(2, [3, 0, 5], 6, 60))
@example(case=_map_stack_case(3, [40, 2], 4, 0))
# Many maps of one width, coded in several chunks.
@example(case=_map_stack_case(2, [4, 1, 0, 6, 2] * 8, 9, 1))
@example(case=_map_stack_case(5, [0, 0], 3, 2))
def test_stacked_entropies_match_the_walk_and_sympy(case):
    q, mats, stack = case
    units = _Enumerator(q, stack.shape[2]).entropy_units(stack).tolist()
    assert units == [_alone_units(q, G) for G in mats]
    assert units == [_sympy_rank(q, G.tolist(), stack.shape[2]) for G in mats]


def _sympy_rank(q, rows, cols):
    if not rows:
        return 0
    gf = GF(q)
    return DomainMatrix([[gf(int(x)) for x in row] for row in rows], (len(rows), cols), gf).rank()


def test_empty_collection_has_zero_entropy():
    s = build_scheme("theorem1", 2, 2)
    assert brute_entropy(s, []) == 0


def test_entropy_image_size_invariant():
    # brute_entropy raises unless the image is uniform of size q**value,
    # so a returned value is that exact logarithm, equal to the rank.
    s = build_scheme("theorem2", 2, 3)
    collections = [
        [VariableRef.of_file(2)],
        [VariableRef.of_cache(3)],
        [VariableRef.of_delivery((2, 1, 2))],
        [VariableRef.of_file(1), VariableRef.of_cache(1), VariableRef.of_delivery((1, 1, 1))],
    ]
    for refs in collections:
        assert brute_entropy(s, refs) == rank(stacked_matrix(s, refs))


def test_share_variable_entropy():
    # Entropies of theorem3 (2, 3, 1)'s shares, by counting the distinct
    # images of its share generator over all q**cols inputs.
    s = build_scheme("theorem3", 2, 3, 1)
    sys = build_shares(3, 1)
    G = sys.generator
    assert (G.q, sys.units) == (s.q, s.B)
    inputs = np.array(list(itertools.product(range(G.q), repeat=G.cols)), dtype=np.int64)

    def images(rows):
        return len({tuple(image) for image in inputs @ G.data[rows].T % G.q})

    assert images([0]) == G.q
    # All shares of one file carry the file and the masking key.
    assert images(list(range(sys.n_shares))) == G.q ** (s.B + sys.key_units)


def test_enumeration_cap_reports_required_size():
    s = build_scheme("theorem3", 3, 4, 2)
    with pytest.raises(EnumerationCapError) as exc:
        brute_entropy(s, [VariableRef.of_file(1)])
    assert exc.value.required == 7**22
    with pytest.raises(EnumerationCapError):
        check_rank_agreement(s, subset_size_cap=1)


def test_variable_ref_validation():
    s = build_scheme("theorem1", 2, 3)
    with pytest.raises(IndexError):
        VariableRef.of_cache(4).resolve(s)
    with pytest.raises(ValueError, match="unknown variable kind"):
        VariableRef(kind="oracle").resolve(s)


def test_bounded_deliveries_cover_endpoints():
    s = build_scheme("otp", 3, 3)
    all_d = _bounded_deliveries(s, 64)
    assert len(all_d) == 27
    few = _bounded_deliveries(s, 8)
    assert len(few) == 8
    assert few[0].entries == (1, 1, 1)
    assert few[-1].entries == (3, 3, 3)


def test_bounded_deliveries_reach_the_last_of_2_to_54_demands():
    # Past 2**53 demands, float spacing would round the last index up to N**K.
    few = _bounded_deliveries(build_scheme("otp", 2, 54), 8)
    assert len(few) == 8
    assert few[0].entries == (1,) * 54
    assert few[-1].entries == (2,) * 54


def test_bounded_deliveries_single_and_invalid():
    s = build_scheme("otp", 3, 3)
    one = _bounded_deliveries(s, 1)
    assert [d.entries for d in one] == [(1, 1, 1)]
    for bad in (0, -2):
        with pytest.raises(ValueError, match="max_deliveries"):
            _bounded_deliveries(s, bad)


def test_rank_agreement_small_schemes():
    assert check_rank_agreement(build_scheme("theorem1", 2, 3), subset_size_cap=3)
    assert check_rank_agreement(build_scheme("theorem2", 2, 3), subset_size_cap=3)
    assert check_rank_agreement(build_scheme("theorem3", 2, 3, 1), subset_size_cap=2)


def test_rank_agreement_refuses_negative_cap():
    for cap in (-1, -3):
        with pytest.raises(ValueError, match=f"got {cap}"):
            check_rank_agreement(build_scheme("theorem1", 2, 3), subset_size_cap=cap)


def test_rank_agreement_catches_one_rank_off_by_one(monkeypatch):
    # Each scheme at cap 2 has 1 + 13 + 78 collections, of which 67 hold
    # distinct row sets and are ranked, in one block; the comparison rank
    # of the 41st of those alone is raised by one.  On theorem1 (3) it has
    # essential width 3 and 23 others share it, so it is enumerated in a
    # stack; on theorem3 (2, 3, 1) its 3**8 inputs are past
    # _Enumerator.BLOCK, so its codes are built block by block.
    true_ranks = ff_linalg.ranks
    for s, small in ((build_scheme("theorem1", 2, 3), True), (build_scheme("theorem3", 2, 3, 1), False)):
        seen, widths = [], []

        def skewed(q, stacks):
            out = true_ranks(q, stacks)
            offset = sum(seen)
            seen.append(len(out))
            widths.extend(_essential_columns(stacks)[1].tolist())
            if offset <= 40 < offset + len(out):
                out[40 - offset] += 1
            return out

        monkeypatch.setattr(entropy_oracle, "ranks", skewed)
        assert not check_rank_agreement(s, subset_size_cap=2)
        assert seen == [67]
        q, width = s.q, widths[40]
        assert (q**width <= _Enumerator.BLOCK) == small
        assert widths.count(width) >= 2


def _ranked_stacks(monkeypatch):
    """The stacks check_rank_agreement hands to ranks, recorded as they pass."""
    stacks_seen = []

    def recorded(q, stacks):
        stacks_seen.append(stacks)
        return ff_linalg.ranks(q, stacks)

    monkeypatch.setattr(entropy_oracle, "ranks", recorded)
    return stacks_seen


def _row_set_scheme(q, caches):
    """Two one-unit files and one key over GF(q), the given caches, and one broadcast of the key."""
    layout = VariableLayout(2, 1, ("k",))
    key = ff_linalg.FieldMatrix(q, [[0, 0, 1]])
    mats = tuple(ff_linalg.FieldMatrix(q, c) for c in caches)
    return LinearScheme(q, layout, len(mats), mats, lambda d: key, "row sets")


def test_rank_agreement_merges_row_order_repeats_and_zero_rows(monkeypatch):
    # Caches 2-4 are cache 1's rows reordered, repeated and with a zero
    # row, and cache 5 is one zero row, which has the empty collection's
    # (empty) set of nonzero rows.  Of the 9 collections of size at most 1,
    # the empty one, the two files, cache 1 and the broadcast are compared,
    # each on its own rows.
    r1, r2, zero = [1, 1, 0], [0, 1, 1], [0, 0, 0]
    s = _row_set_scheme(3, [[r1, r2], [r2, r1], [r1, r2, r1], [zero, r1, r2], [zero]])
    stacks = _ranked_stacks(monkeypatch)
    assert check_rank_agreement(s, subset_size_cap=1, max_deliveries=1)
    assert [m.tolist() for m in np.concatenate(stacks)] == [
        [zero, zero], [[1, 0, 0], zero], [[0, 1, 0], zero], [r1, r2], [[0, 0, 1], zero]
    ]


def test_rank_agreement_keeps_a_row_and_its_multiple_apart(monkeypatch):
    # Over GF(3), [1, 2, 0] and twice it span one row space but are
    # different rows, so both caches are compared.
    s = _row_set_scheme(3, [[[1, 2, 0]], [[2, 1, 0]]])
    stacks = _ranked_stacks(monkeypatch)
    assert check_rank_agreement(s, subset_size_cap=1, max_deliveries=1)
    ranked = [m.tolist() for m in np.concatenate(stacks)]
    assert len(ranked) == 6 and [[1, 2, 0]] in ranked and [[2, 1, 0]] in ranked


@pytest.mark.parametrize(
    ("label", "N", "K", "t", "cap", "max_deliveries", "compared"),
    [
        ("theorem1", 2, 3, None, 4, 32, 544),
        ("theorem2", 2, 3, None, 4, 32, 553),
        ("theorem2", 3, 3, None, 3, 32, 4525),
        ("theorem3", 2, 3, 1, 2, 32, 67),
        ("theorem3", 3, 3, 1, 1, 8, 13),
    ],
)
def test_rank_agreement_compares_each_distinct_row_set_once(label, N, K, t, cap, max_deliveries, compared, monkeypatch):
    # The oracle-agree benchmark cases: every collection is still stacked
    # once, and only the first with each set of nonzero rows is ranked.
    stacked = []
    stack_one = entropy_oracle.stacked_matrix
    monkeypatch.setattr(entropy_oracle, "stacked_matrix", lambda *a: stacked.append(1) or stack_one(*a))
    stacks = _ranked_stacks(monkeypatch)
    assert check_rank_agreement(build_scheme(label, N, K, t), subset_size_cap=cap, max_deliveries=max_deliveries)
    universe = N + K + min(N**K, max_deliveries)
    assert len(stacked) == sum(comb(universe, j) for j in range(cap + 1))
    assert sum(map(len, stacks)) == compared


def test_lemma1_lemma2_on_unit_cache_schemes():
    for s in [
        build_scheme("theorem1", 2, 2),
        build_scheme("theorem1", 2, 3),
        build_scheme("theorem1", 2, 4),
        build_scheme("otp", 3, 3),
    ]:
        assert check_lemma1_lemma2(s)


def test_lemma1_lemma2_requires_unit_cache():
    with pytest.raises(ValueError, match="cache size 1"):
        check_lemma1_lemma2(build_scheme("theorem2", 3, 3))


def test_lemma3_lemma4_on_unit_rate_schemes():
    assert check_lemma3_lemma4(build_scheme("theorem2", 2, 3))
    assert check_lemma3_lemma4(build_scheme("theorem2", 3, 3))


def test_lemma3_lemma4_requires_unit_rate():
    with pytest.raises(ValueError, match="unit rate"):
        check_lemma3_lemma4(build_scheme("theorem1", 2, 3))


def test_lemma3_lemma4_builds_each_delivery_matrix_once(monkeypatch):
    calls = []
    build = LinearScheme.delivery_matrix

    def counted(self, d):
        calls.append(d.entries)
        return build(self, d)

    monkeypatch.setattr(LinearScheme, "delivery_matrix", counted)
    for N, K in ((2, 3), (3, 3)):
        calls.clear()
        assert check_lemma3_lemma4(build_scheme("theorem2", N, K))
        assert len(calls) == N**K and len(set(calls)) == N**K


def _entropies(s):
    """Brute-force entropies on s, as a function of a list of collections; each distinct one is enumerated once.

    Each variable is resolved once.  A call's new collections are stacked
    into one zero-padded block, their essential columns moved first, and
    each width's group enumerated by one _Enumerator call, as
    brute_entropy does for one collection.
    """
    seen, resolved = {}, {}

    def H(collections):
        new = list(dict.fromkeys(tuple(refs) for refs in collections if tuple(refs) not in seen))
        if new:
            for ref in set(itertools.chain(*new)) - resolved.keys():
                resolved[ref] = ref.resolve(s)
            mats = [stacked_matrix(s, refs, [resolved[ref] for ref in refs]).data for refs in new]
            padded = np.zeros((len(new), max(map(len, mats)), s.layout.total), dtype=np.int64)
            for block, G in zip(padded, mats):
                block[: len(G)] = G
            kept, widths = _essential_columns(padded)
            for width in set(widths.tolist()):
                group = np.flatnonzero(widths == width)
                units = _Enumerator(s.q, width).entropy_units(kept[group, :, :width])
                seen.update(zip([new[i] for i in group], units.tolist()))
        return [seen[tuple(refs)] for refs in collections]

    return H


def _reference_lemma1_lemma2(s):
    """The unit-cache identities as entropies, each distinct collection enumerated once."""
    entropies = _entropies(s)
    H = lambda refs: entropies([refs])[0]
    if s.N**s.K > DEMAND_CAP:
        raise ValueError(f"{s.N}**{s.K} = {s.N**s.K} demands exceed cap {DEMAND_CAP}")
    if memory_of(s) != 1:
        raise ValueError(f"identities require cache size 1, scheme has M={memory_of(s)}")
    for d in demands_iter(s.N, s.K):
        dv = VariableRef.of_delivery(d)
        for user in range(1, s.K + 1):
            group = [k for k in range(1, s.K + 1) if d[k] == d[user]]
            if not 1 <= len(group) <= s.K - 1:
                continue
            wanted = VariableRef.of_file(d[user])
            lhs = H([wanted, dv])
            rhs = H([wanted] + [VariableRef.of_cache(k) for k in group] + [dv])
            if lhs != rhs:
                return False
    caches = [VariableRef.of_cache(k) for k in range(1, s.K + 1)]
    cache_entropy_sum = sum(H([c]) for c in caches)
    for n in range(1, s.N + 1):
        fv = VariableRef.of_file(n)
        if H([fv] + caches) != H([fv]) + cache_entropy_sum:
            return False
    return True


def _reference_lemma3_lemma4(s, H=None):
    """The unit-rate identities as entropies, over every choice of one representative per class.

    H maps a list of collections to their entropies; by default each
    distinct collection is enumerated once (see _entropies).
    """
    H = H or _entropies(s)
    if worst_case_rate(s) != 1:
        raise ValueError("identities require unit rate")
    files = range(1, s.N + 1)
    for user in range(1, s.K + 1):
        classes = {a: [VariableRef.of_delivery(d) for d in demands_iter(s.N, s.K) if d[user] == a] for a in files}
        zv = VariableRef.of_cache(user)
        for a in files:
            fv = VariableRef.of_file(a)
            cache, joint = H([[fv, zv], [fv, zv, *classes[a]]])
            if cache != joint:
                return False
        for a in files:
            # b None: the class and one representative of each other class;
            # b a foreign file: W_b too, and no representative of b's class.
            for b in (None, *(x for x in files if x != a)):
                head = [] if b is None else [VariableRef.of_file(b)]
                choices = list(itertools.product(*(classes[x] for x in files if x not in (a, b))))
                base = H([classes[a]])[0] + sum(H([[v] for v in head]))
                joint = H([[*head, *classes[a], *reps] for reps in choices])
                if joint != [base + sum(H([[v] for v in reps])) for reps in choices]:
                    return False
    return True


def _gf2_ranks(s):
    """H for a GF(2) scheme: the rank of each collection's rows, read as integers, by an XOR basis.

    The basis keeps one element per top bit.  A row XORed with the
    element at its top bit, while there is one, loses that bit and so
    falls; it ends at zero exactly when it depends on the basis.  Each
    variable's rows are made once.
    """
    assert s.q == 2
    rows = {}

    def rank_of(refs):
        basis = {}
        for ref in refs:
            if ref not in rows:
                rows[ref] = [int("".join(map(str, row)), 2) for row in ref.resolve(s).data.tolist()]
            for x in rows[ref]:
                while x and x.bit_length() in basis:
                    x ^= basis[x.bit_length()]
                if x:
                    basis[x.bit_length()] = x
        return len(basis)

    return lambda collections: [rank_of(refs) for refs in collections]


def _keyed_scheme(N, K, broadcasts=None):
    """A unit-rate scheme over GF(2) with one key S_d per demand d.

    Every cache holds every key and W_1 + W_n for each n >= 2, so a
    cache and any file determine every input, and each broadcast adds
    nothing to a cache without the requested file.  The broadcast for d
    is its key S_d, or the sum of the columns broadcasts lists for d,
    named "W1", ... or by key.
    """
    names = tuple("S_" + "".join(map(str, d.entries)) for d in demands_iter(N, K))
    layout = VariableLayout(N, 1, names)
    column = {f"W{n}": n - 1 for n in range(1, N + 1)} | {name: layout.key_column(name) for name in names}
    cache = np.zeros((len(names) + N - 1, layout.total), dtype=np.int64)
    cache[np.arange(len(names)), N + np.arange(len(names))] = 1
    cache[len(names):, 0] = 1
    cache[len(names) + np.arange(N - 1), 1 + np.arange(N - 1)] = 1

    def delivery(d):
        row = np.zeros((1, layout.total), dtype=np.int64)
        for name in (broadcasts or {}).get(d.entries, ["S_" + "".join(map(str, d.entries))]):
            row[0, column[name]] += 1
        return ff_linalg.FieldMatrix(2, row)

    return LinearScheme(2, layout, K, (ff_linalg.FieldMatrix(2, cache),) * K, delivery, "keyed")


def _variant(s, caches=None, broadcasts=None):
    """s with every cache, and the broadcasts of the listed demands, replaced by the given rows."""
    q = s.q
    cache = s.cache if caches is None else tuple(ff_linalg.FieldMatrix(q, rows) for rows in caches)
    table = {d: ff_linalg.FieldMatrix(q, rows) for d, rows in (broadcasts or {}).items()}
    return dataclasses.replace(
        s, cache=cache, delivery=lambda d: table[d.entries] if d.entries in table else s.delivery(d)
    )


# otp (2, 2) has columns W_1, W_2, S_1, S_2 and theorem2 (2, 2) has
# W_1, W_2, S_1_1.  Each variant breaks exactly one of the identities and
# keeps the others; the lemma4 variants break one each of the unit-rate
# check's three independence conditions.
_S1 = [0, 0, 1, 0]
IDENTITY_BREAKERS = {
    # User 1's cache S_1 is not a function of W_1 and the broadcast
    # W_1 + S_1 + S_2, W_2 + S_2 under demand (1, 2).
    "lemma1": (check_lemma1_lemma2, _variant(
        build_scheme("otp", 2, 2), broadcasts={(1, 2): [[1, 0, 1, 1], [0, 1, 0, 1]]}
    )),
    # Both users cache S_1, so the caches are dependent; the extra S_1
    # broadcast row keeps every cache a function of what is sent.
    "lemma2": (check_lemma1_lemma2, _variant(
        build_scheme("otp", 2, 2),
        caches=[[_S1], [_S1]],
        broadcasts={(1, 2): [[1, 0, 1, 0], [0, 1, 0, 1], _S1], (2, 1): [[0, 1, 1, 0], [1, 0, 0, 1], _S1]},
    )),
    # Under (1, 1) both users get W_1 + W_2, which neither cache determines
    # together with W_1; sending S_1_1 under (1, 2) keeps lemma 4 intact.
    "lemma3": (check_lemma3_lemma4, _variant(
        build_scheme("theorem2", 2, 2), broadcasts={(1, 1): [[1, 1, 0]], (1, 2): [[0, 0, 1]]}
    )),
    # Every cache and broadcast is S_1_1: a class and another class's
    # representative are the same variable, so a representative's
    # residual against the class vanishes (condition ii).
    "lemma4_joint": (check_lemma3_lemma4, _variant(
        build_scheme("theorem2", 2, 2),
        caches=[[[0, 0, 1]]] * 2,
        broadcasts={d.entries: [[0, 0, 1]] for d in demands_iter(2, 2)},
    )),
    # Every user caches everything; when user 1 asks for W_1, the class
    # of broadcasts contains W_2 itself, so it loses rank without W_2's
    # columns (condition i).
    "lemma4_foreign": (check_lemma3_lemma4, _variant(
        build_scheme("theorem2", 2, 2),
        caches=[np.eye(3, dtype=np.int64)] * 2,
        broadcasts={(1, 1): [[0, 0, 1]], (1, 2): [[0, 1, 0]], (2, 1): [[1, 0, 0]], (2, 2): [[1, 1, 1]]},
    )),
    # Each class is one broadcast, S_1, S_2 and S_1 + S_2: any two are
    # independent, but against any one class the other two leave equal
    # residuals (condition iii).
    "lemma4_transversal": (check_lemma3_lemma4, _keyed_scheme(3, 1, {(3,): ["S_1", "S_2"]})),
    # Only (3, 3) does not send its own key: S_11 + S_22 makes the pairs
    # (S_22, S_11 + S_22) and (S_11, S_22) dependent against the class
    # holding the other one.  Each class's least and greatest broadcasts
    # are independent of one another, so a check that took one residual
    # per class, or keyed them by shape, would pass.
    "lemma4_later_transversal": (check_lemma3_lemma4, _keyed_scheme(3, 2, {(3, 3): ["S_11", "S_22"]})),
}


@pytest.mark.parametrize("identity", sorted(IDENTITY_BREAKERS))
def test_lemma_checks_fail_on_each_broken_identity(identity):
    check, s = IDENTITY_BREAKERS[identity]
    assert not check(s)


def _mutants(s, count, rng):
    """count copies of s, each with one entry of one cache or one broadcast changed."""
    q = s.q
    demands = [d.entries for d in demands_iter(s.N, s.K)]
    for _ in range(count):
        k, d = rng.randrange(s.K), rng.choice(demands)
        on_cache = rng.random() < 0.5
        M = (s.cache[k] if on_cache else s.delivery_matrix(DemandVector(d))).data.copy()
        i, j = rng.randrange(M.shape[0]), rng.randrange(M.shape[1])
        M[i, j] = (M[i, j] + rng.randrange(1, q)) % q
        if on_cache:
            yield _variant(s, caches=[M if u == k else c.data for u, c in enumerate(s.cache)])
        else:
            yield _variant(s, broadcasts={d: M})


def test_lemma_checks_agree_with_the_reference():
    # Valid schemes, single-entry mutants of a cache or a broadcast, and
    # the hand-built breakers; both verdicts must occur for each check.
    rng = random.Random(7)
    start = time.perf_counter()
    cases = {check_lemma1_lemma2: [], check_lemma3_lemma4: []}
    for s in [
        build_scheme("theorem1", 2, 2),
        build_scheme("theorem1", 2, 3),
        build_scheme("theorem1", 2, 4),
        build_scheme("otp", 2, 3),
        build_scheme("otp", 3, 2),
    ]:
        cases[check_lemma1_lemma2] += [s, *_mutants(s, 25, rng)]
    for N, K in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)):
        s = build_scheme("theorem2", N, K)
        cases[check_lemma3_lemma4] += [s, *_mutants(s, 25, rng)]
    for check, s in IDENTITY_BREAKERS.values():
        cases[check].append(s)
    reference = {check_lemma1_lemma2: _reference_lemma1_lemma2, check_lemma3_lemma4: _reference_lemma3_lemma4}
    for check, schemes in cases.items():
        verdicts = [check(s) for s in schemes]
        assert verdicts == [reference[check](s) for s in schemes]
        assert set(verdicts) == {True, False}
    assert time.perf_counter() - start < 10


def test_unit_rate_gap_scheme_fails_every_mutant():
    # _keyed_scheme(2, 6) passes.  Each mutant sends, for one demand d,
    # the key of d with user 3's request flipped; that key is then in
    # both of user 3's classes, and only the choice of that one broadcast
    # among a class's 32 shows it, so a check of a few representatives
    # per class passes many of them; every one breaks the identity.
    s = _keyed_scheme(2, 6)
    assert check_lemma3_lemma4(s) and _reference_lemma3_lemma4(s, _gf2_ranks(s))
    for d in demands_iter(2, 6):
        flipped = [*d.entries[:2], 3 - d[3], *d.entries[3:]]
        mutant = _keyed_scheme(2, 6, {d.entries: ["S_" + "".join(map(str, flipped))]})
        assert not check_lemma3_lemma4(mutant)
        assert not _reference_lemma3_lemma4(mutant, _gf2_ranks(mutant))


def test_secret_sharing_exhaustive_cases():
    assert check_secret_sharing(3, 1)
    assert check_secret_sharing(4, 2)
    assert check_secret_sharing(5, 2)


def test_secret_sharing_large_cases_are_exact_and_fast():
    # Past any enumeration: 1,184,040 subsets at (8, 2), 30,260,340 at
    # (9, 2) and 1.3e15 at (8, 3).
    start = time.perf_counter()
    assert all(check_secret_sharing(K, t) for K, t in [(8, 2), (9, 2), (8, 3)])
    assert time.perf_counter() - start < 1
    assert check_secret_sharing(7, 3)


def reference_secret_sharing(sys) -> bool:
    """The threshold properties of share system sys, by ranking every C(n, m) share subset.

    All shares must add the B file units to the rank of their key
    columns, and every m shares must keep their rank when the file
    columns are masked, which is the rank of their key columns.
    """
    G, B, q = sys.generator.data, sys.units, sys.q
    (r_all,), (r_keys,) = ff_linalg.ranks(q, G[None]), ff_linalg.ranks(q, G[None, :, B:])
    if r_all - r_keys != B:
        return False
    subsets = itertools.combinations(range(sys.n_shares), sys.key_units)
    while block := list(itertools.islice(subsets, 256)):
        subs = G[np.array(block)]
        if not np.array_equal(ff_linalg.ranks(q, subs), ff_linalg.ranks(q, subs[:, :, B:])):
            return False
    return True


def _share_mutants(sys):
    """Share system sys broken each way the form check refuses.

    Its last key column zeroed, its file column 0 zeroed, shares 0 and 1
    on one node, and one key column too many: the next power of the
    nodes 0, 1, 2, ...
    """
    B, m, q, G = sys.units, sys.key_units, sys.q, sys.generator.data
    gens = [G.copy() for _ in range(3)]
    gens[0][:, -1] = 0
    gens[1][:, 0] = 0
    gens[2][1, B:] = gens[2][0, B:]
    # With one key unit there is no node column, so no two nodes to make equal.
    gens = gens if m > 1 else gens[:2]
    gens.append(np.column_stack([G, [pow(x, m, q) for x in range(sys.n_shares)]]))
    return [dataclasses.replace(sys, generator=ff_linalg.FieldMatrix(q, g)) for g in gens]


# Every (K, t) with at most 10**4 share subsets to rank.
CHEAP_SHARE_SYSTEMS = [
    (K, t) for K in range(2, 9) for t in range(1, K) if comb(comb(K, t), comb(K - 1, t - 1)) <= 10**4
]


@pytest.mark.parametrize("K, t", CHEAP_SHARE_SYSTEMS)
def test_secret_sharing_agrees_with_enumeration(K, t, monkeypatch):
    honest = build_shares(K, t)
    assert check_secret_sharing(K, t) is reference_secret_sharing(honest) is True
    for mutant in _share_mutants(honest):
        monkeypatch.setattr(entropy_oracle, "build_shares", lambda K, t: mutant)
        assert check_secret_sharing(K, t) is reference_secret_sharing(mutant) is False


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


def test_secret_sharing_catches_an_unrecoverable_unit(monkeypatch):
    # With file column 0 zeroed, no combination of shares yields unit 0.
    # Any key-unit-many shares still have full rank on the key columns,
    # so only the recovery comparison fails.
    honest = build_shares(4, 2)
    gen = honest.generator.data.copy()
    gen[:, 0] = 0
    lossy = dataclasses.replace(honest, generator=ff_linalg.FieldMatrix(honest.q, gen))
    monkeypatch.setattr(entropy_oracle, "build_shares", lambda K, t: lossy)
    assert not check_secret_sharing(4, 2)


def test_oracle_imports_no_rank_routine_but_ranks():
    # The oracle's only rank routine is the batched comparison side.
    tree = ast.parse(Path(entropy_oracle.__file__).read_text())
    from_ff_linalg, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module == "ff_linalg":
                from_ff_linalg |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    assert from_ff_linalg == {"FieldMatrix", "stack", "ranks"}
    assert not any("verifier" in module for module in modules)
