"""Scheme bookkeeping tests: layouts, demands, and exact size accounting."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from securecache.constructions import (
    build_otp,
    build_theorem1,
    build_theorem2,
    build_theorem3,
)
from securecache.scheme_model import (
    DEMAND_CAP,
    DemandVector,
    VariableLayout,
    demand_from_index,
    demands_iter,
    memory_of,
    randomness_of,
    worst_case_rate,
)


def test_layout_columns():
    layout = VariableLayout(3, 2, ("S_1", "S_2"))
    assert layout.total == 8
    assert list(layout.file_columns(1)) == [0, 1]
    assert list(layout.file_columns(3)) == [4, 5]
    assert layout.key_column("S_1") == 6
    assert layout.key_column("S_2") == 7
    with pytest.raises(IndexError):
        layout.file_columns(4)
    with pytest.raises(KeyError):
        layout.key_column("nope")


def test_layout_validation():
    with pytest.raises(ValueError):
        VariableLayout(1, 1, ())
    with pytest.raises(ValueError):
        VariableLayout(2, 0, ())
    with pytest.raises(ValueError):
        VariableLayout(2, 1, ("S", "S"))


def test_file_selector_rows():
    layout = VariableLayout(2, 2, ("S",))
    sel = layout.file_selector(3, 2)
    assert sel.row_lists() == [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]


def test_demand_vector():
    d = DemandVector((1, 3, 2))
    assert d.K == 3 and not d.uniform
    assert d[2] == 3
    assert list(d) == [1, 3, 2]
    assert DemandVector((2, 2)).uniform
    with pytest.raises(ValueError):
        DemandVector(())
    with pytest.raises(ValueError):
        DemandVector((0, 1))
    with pytest.raises(IndexError):
        d[4]


def test_demand_vector_takes_exact_ints_only():
    # A bool is an int subclass, and a report would write it as true.
    for entries in ((True, 2, 1), (1, False), (1, np.int64(2)), (1.0, 2)):
        with pytest.raises(ValueError, match="positive ints"):
            DemandVector(entries)


def test_demands_iter_lexicographic():
    ds = list(demands_iter(2, 3))
    assert len(ds) == 8
    assert ds[0].entries == (1, 1, 1)
    assert ds[1].entries == (1, 1, 2)
    assert ds[-1].entries == (2, 2, 2)
    assert ds == sorted(ds, key=lambda d: d.entries)


def test_demand_from_index_roundtrip():
    all_demands = list(demands_iter(3, 3))
    for i, d in enumerate(all_demands):
        assert demand_from_index(3, 3, i) == d
    with pytest.raises(IndexError):
        demand_from_index(3, 3, 27)


def test_two_file_scheme_accounting():
    for K in range(2, 7):
        s = build_theorem1(K)
        assert memory_of(s) == 1
        assert worst_case_rate(s) == K - 1
        assert randomness_of(s) == K - 1


def test_unit_rate_scheme_accounting():
    s = build_theorem2(3, 3)
    assert memory_of(s) == 4
    assert worst_case_rate(s) == 1
    assert randomness_of(s) == 4


def test_tradeoff_scheme_accounting():
    s = build_theorem3(3, 3, 1)
    assert memory_of(s) == 2
    assert worst_case_rate(s) == Fraction(3, 2)
    assert randomness_of(s) == 2
    assert s.field.q == 3 and s.B == 2


def test_pad_scheme_accounting():
    s = build_otp(4, 3)
    assert memory_of(s) == 1
    assert worst_case_rate(s) == 3
    assert randomness_of(s) == 3


def test_rate_cap_rejects_exhaustive_sweep():
    # 2**21 demands are past the cap.
    s = build_theorem1(21)
    with pytest.raises(ValueError, match="sample"):
        worst_case_rate(s)


def test_demands_iter_refuses_past_the_cap():
    # The cap is checked at the call, before any demand is drawn.
    assert 10**6 == DEMAND_CAP
    assert next(demands_iter(10, 6)).entries == (1,) * 6
    with pytest.raises(ValueError, match=r"^2\*\*20 = 1048576 demands exceed cap 1000000; .*sample"):
        demands_iter(2, 20)


def test_uniform_demand_costs_one_file():
    schemes = [
        build_otp(3, 3),
        build_theorem1(4),
        build_theorem2(3, 3),
        build_theorem3(2, 4, 2),
    ]
    for s in schemes:
        for n in range(1, s.N + 1):
            d = DemandVector((n,) * s.K)
            assert s.delivery_matrix(d).rows == s.B


def test_nonuniform_broadcast_row_count_is_constant():
    for s in [build_otp(2, 3), build_theorem1(4), build_theorem2(3, 3), build_theorem3(2, 4, 1)]:
        rows = {
            s.delivery_matrix(d).rows
            for d in demands_iter(s.N, s.K)
            if not d.uniform
        }
        assert len(rows) == 1


def test_rate_identity_of_tradeoff_family():
    # comb(K, t+1) broadcast rows over B = comb(K-1, t) units per file.
    for K in range(3, 11):
        for t in range(1, K - 1):
            assert Fraction(comb(K, t + 1), comb(K - 1, t)) == Fraction(K, t + 1)


def test_memory_identity_of_tradeoff_family():
    # Cached units per user against the closed form, for every block count.
    for N in range(2, 5):
        for K in range(3, 11):
            for t in range(1, K - 1):
                B = comb(K - 1, t)
                units = N * comb(K - 1, t - 1) + B - 1
                assert Fraction(units, B) == Fraction(N * t, K - t) + 1 - Fraction(1, B)


def test_delivery_validates_demand():
    s = build_theorem1(3)
    with pytest.raises(ValueError):
        s.delivery_matrix(DemandVector((1, 2)))
    with pytest.raises(ValueError):
        s.delivery_matrix(DemandVector((1, 2, 3)))
