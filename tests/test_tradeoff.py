"""Tradeoff curve tests: corner points, envelopes, converse bounds."""

from fractions import Fraction as F
from math import comb

import pytest

from securecache.constructions import build_scheme
from securecache.scheme_model import memory_of, worst_case_rate
from securecache.tradeoff import (
    TradeoffPoint,
    achievable_points,
    converse_constraints,
    emit_curves,
    lower_convex_envelope,
    prior_work_points,
    rate_lower_bound,
)


def _mr(points):
    return {(p.M, p.R) for p in points}


def test_corner_points_two_files_four_users():
    pts = achievable_points(2, 4)
    assert _mr(pts) == {(F(1), F(3)), (F(4, 3), F(2)), (F(8, 3), F(4, 3)), (F(3), F(1))}
    env = lower_convex_envelope(pts)
    assert _mr(env.vertices) == {(F(1), F(3)), (F(4, 3), F(2)), (F(3), F(1))}
    assert _mr(env.dominated) == {(F(8, 3), F(4, 3))}
    assert _mr(prior_work_points(2, 4)) == {
        (F(1), F(4)), (F(5, 3), F(2)), (F(3), F(4, 3)), (F(6), F(1)),
    }


def test_corner_points_four_files_three_users():
    pts = achievable_points(4, 3)
    assert _mr(pts) == {(F(1), F(3)), (F(5, 2), F(3, 2)), (F(6), F(1))}
    env = lower_convex_envelope(pts)
    assert _mr(env.vertices) == _mr(pts)
    assert env.dominated == ()
    assert _mr(prior_work_points(4, 3)) == {(F(1), F(3)), (F(3), F(3, 2)), (F(8), F(1))}


def test_coinciding_endpoints_deduplicate():
    # Two files, two users: unit cache and unit rate are the same point.
    pts = achievable_points(2, 2)
    assert _mr(pts) == {(F(1), F(1))}
    env = lower_convex_envelope(pts)
    assert len(env.vertices) == 1
    assert env.rate_at(F(5)) == 1


def test_collinear_point_is_neither_vertex_nor_dominated():
    mid = TradeoffPoint(F(2), F(2), "x", "mid")
    pts = (TradeoffPoint(F(1), F(3), "x", "a"), mid, TradeoffPoint(F(3), F(1), "x", "b"))
    env = lower_convex_envelope(pts)
    assert _mr(env.vertices) == {(F(1), F(3)), (F(3), F(1))}
    assert env.dominated == ()
    assert env.rate_at(F(2)) == 2


def test_rate_at_domain():
    env = lower_convex_envelope(achievable_points(2, 4))
    with pytest.raises(ValueError, match="below"):
        env.rate_at(F(1, 2))
    assert env.rate_at(F(7, 6)) == F(5, 2)
    assert env.rate_at(F(3)) == 1
    assert env.rate_at(F(100)) == 1


def test_converse_constraint_bounds():
    cons = {c.kind: c for c in converse_constraints(2, 4)}
    assert set(cons) == {
        "rate_floor", "cache_floor", "unit_cache_point",
        "unit_rate_cache_floor", "linear_segment",
    }
    seg = cons["linear_segment"]
    assert (seg.alpha, seg.beta, seg.gamma) == (3, 1, 6)
    assert (seg.m_lo, seg.m_hi) == (1, F(4, 3))
    assert seg.rate_bound_at(F(1)) == 3
    assert seg.rate_bound_at(F(7, 6)) == F(5, 2)
    assert seg.rate_bound_at(F(3, 2)) is None
    assert cons["cache_floor"].rate_bound_at(F(2)) is None
    assert cons["unit_cache_point"].rate_bound_at(F(1)) == 3
    assert cons["unit_cache_point"].rate_bound_at(F(2)) is None
    assert "linear_segment" not in {c.kind for c in converse_constraints(3, 4)}


def test_rate_lower_bound_is_pointwise_max():
    cons = converse_constraints(2, 4)
    assert rate_lower_bound(cons, F(1)) == 3
    assert rate_lower_bound(cons, F(4, 3)) == 2
    assert rate_lower_bound(cons, F(2)) == 1


def test_envelope_endpoints_across_sizes():
    for N in range(2, 7):
        for K in range(2, 7):
            env = lower_convex_envelope(achievable_points(N, K))
            want_unit_cache = K - 1 if N == 2 else K
            assert env.rate_at(F(1)) == want_unit_cache, (N, K)
            last = env.vertices[-1]
            assert (last.M, last.R) == ((N - 1) * (K - 1), 1), (N, K)
            if len(env.vertices) > 1:
                assert env.vertices[-2].R > 1, (N, K)


def test_new_curve_never_above_prior():
    for N in range(2, 7):
        for K in range(2, 7):
            data = emit_curves(N, K, grid=31)
            for row in data.rows:
                assert row.r_lb <= row.r_ach <= row.r_prior, (N, K, row.M)


def test_prior_gap_at_family_points():
    # The new family point sits exactly 1/B left of the prior one at
    # the same rate.
    for N in range(2, 6):
        for K in range(3, 9):
            new = {p.source: p for p in achievable_points(N, K)}
            old = {p.source: p for p in prior_work_points(N, K)}
            for t in range(1, K - 1):
                a = new[f"tradeoff family t={t}"]
                b = old[f"prior family t={t}"]
                assert a.R == b.R
                assert b.M - a.M == F(1, comb(K - 1, t))


def test_segment_bound_is_tight_for_two_files():
    # For two files the achievable envelope meets the linear converse
    # segment everywhere on its interval, so the first stretch of the
    # curve is exactly optimal.
    for K in range(3, 7):
        env = lower_convex_envelope(achievable_points(2, K))
        seg = next(c for c in converse_constraints(2, K) if c.kind == "linear_segment")
        lo, hi = seg.m_lo, seg.m_hi
        assert hi == F(K, K - 1)
        for j in range(20):
            M = lo + (hi - lo) * F(j, 19)
            assert env.rate_at(M) == seg.rate_bound_at(M), (K, M)


def test_points_match_built_schemes():
    for N, K in [(2, 4), (3, 3), (4, 3)]:
        for p in achievable_points(N, K):
            t = int(p.source.split("t=")[1]) if "t=" in p.source else None
            s = build_scheme(p.label, N, K, t)
            assert memory_of(s) == p.M, (N, K, p.label)
            assert worst_case_rate(s) == p.R, (N, K, p.label)


def test_emit_curves_rows():
    data = emit_curves(2, 4, grid=61)
    Ms = [row.M for row in data.rows]
    assert Ms == sorted(Ms) and len(set(Ms)) == len(Ms)
    assert Ms[0] == 1 and Ms[-1] == 6
    by_M = {row.M: row for row in data.rows}
    assert by_M[F(1)].r_ach == 3 and by_M[F(1)].r_lb == 3
    assert by_M[F(4, 3)].r_ach == 2 and by_M[F(4, 3)].r_lb == 2
    assert by_M[F(4, 3)].r_prior > 2
    assert by_M[F(3)].r_ach == 1 and by_M[F(3)].r_prior > 1


def test_csv_rendering():
    data = emit_curves(2, 4, grid=5)
    full = data.csv_text(include_prior=True)
    slim = data.csv_text(include_prior=False)
    assert full.splitlines()[0] == "M_num,M_den,M_float,R_ach_float,R_prior_float,R_lb_float"
    assert slim.splitlines()[0] == "M_num,M_den,M_float,R_ach_float,R_lb_float"
    assert len(full.splitlines()) == len(slim.splitlines())
    assert full.splitlines()[1].startswith("1,1,1,3,4,3")


def test_vertices_dict_shape():
    data = emit_curves(4, 3, grid=5)
    doc = data.vertices_dict()
    assert doc["N"] == 4 and doc["K"] == 3
    assert {tuple(p["M"]) for p in doc["envelope"]} == {(1, 1), (5, 2), (6, 1)}
    assert doc["dominated"] == []
    kinds = {c["kind"] for c in doc["converse"]}
    assert "rate_floor" in kinds and "linear_segment" not in kinds


def test_input_validation():
    with pytest.raises(ValueError):
        achievable_points(1, 4)
    with pytest.raises(ValueError):
        prior_work_points(2, 1)
    with pytest.raises(ValueError):
        converse_constraints(0, 0)
    with pytest.raises(ValueError):
        emit_curves(2, 4, grid=1)
    with pytest.raises(ValueError):
        lower_convex_envelope(())


def _scanned_rate(env, M):
    """The envelope's rate at M by a scan of every segment, as a reference."""
    if M >= env.vertices[-1].M:
        return env.vertices[-1].R
    a, b = next((a, b) for a, b in zip(env.vertices, env.vertices[1:]) if a.M <= M <= b.M)
    return a.R + (b.R - a.R) * (M - a.M) / (b.M - a.M)


def test_rate_at_bisects_to_the_scanned_rate():
    for N in range(2, 5):
        for K in range(2, 13):
            for points in (achievable_points(N, K), prior_work_points(N, K)):
                env = lower_convex_envelope(points)
                assert env.sizes == tuple(p.M for p in env.vertices)
                lo, hi = env.vertices[0].M, env.vertices[-1].M + 1
                grid = {lo + (hi - lo) * F(j, 97) for j in range(98)} | {p.M for p in points}
                for M in grid:
                    assert env.rate_at(M) == _scanned_rate(env, M), (N, K, M)

