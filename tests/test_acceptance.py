"""Acceptance gate: the eight headline claims, each timed against its budget.

Every criterion prints one pass/fail line (visible under pytest -s and
in failure output), checks exact values, and enforces its runtime
budget.  Nothing here is sampled or approximate except where a
criterion says so.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from math import comb

from securecache.cli import main
from securecache.constructions import build_scheme, build_shares
from securecache.entropy_oracle import check_rank_agreement, check_secret_sharing
from securecache.scheme_model import DemandVector, memory_of, randomness_of, worst_case_rate
from securecache.tradeoff import achievable_points, converse_constraints, lower_convex_envelope
from securecache.verifier import check_lemma1_lemma2, check_lemma3_lemma4, simulate, verify_all

from test_entropy_oracle import reference_secret_sharing


@contextmanager
def criterion(num: int, detail: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {num}: FAIL ({detail})")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"acceptance {num}: {verdict} ({detail}, {elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_two_file_family():
    with criterion(1, "two-file scheme, K in 2..8", budget=10.0):
        for K in range(2, 9):
            s = build_scheme("theorem1", 2, K)
            report = verify_all(s)
            assert report.passed and report.demand_count == 2**K, K
            assert memory_of(s) == 1, K
            assert worst_case_rate(s) == K - 1, K


def test_criterion_2_unit_rate_family():
    with criterion(2, "unit-rate scheme, N and K in 2..4", budget=10.0):
        for N, K in product(range(2, 5), range(2, 5)):
            s = build_scheme("theorem2", N, K)
            report = verify_all(s)
            assert report.passed and report.demand_count == N**K, (N, K)
            assert memory_of(s) == (N - 1) * (K - 1), (N, K)
            assert worst_case_rate(s) == 1, (N, K)
        s = build_scheme("theorem2", 3, 3)
        assert memory_of(s) == 4
        lay = s.layout

        def unit(cols_and_values):
            row = [0] * lay.total
            for c, v in cols_and_values:
                row[c] = v
            return tuple(row)

        f1, f2, f3 = (lay.file_columns(n)[0] for n in (1, 2, 3))
        expected_z1 = {
            unit([(f1, 1), (f2, 1), (lay.key_column("S_1_1"), 1)]),
            unit([(f1, 1), (f3, 1), (lay.key_column("S_2_1"), 1)]),
            unit([(lay.key_column("S_1_2"), 1)]),
            unit([(lay.key_column("S_2_2"), 1)]),
        }
        assert {tuple(r) for r in s.cache[0].data.tolist()} == expected_z1


def test_criterion_3_tradeoff_family():
    with criterion(3, "share-based family, N in 2..4, K in 3..5, all t", budget=60.0):
        for N in range(2, 5):
            for K in range(3, 6):
                for t in range(1, K - 1):
                    s = build_scheme("theorem3", N, K, t)
                    B = comb(K - 1, t)
                    assert verify_all(s).passed, (N, K, t)
                    assert memory_of(s) == F(N * t, K - t) + 1 - F(1, B), (N, K, t)
                    assert worst_case_rate(s) == F(K, t + 1), (N, K, t)
                    want_L = F(comb(K - 1, t - 1) + comb(K, t + 1), B)
                    assert randomness_of(s) == want_L, (N, K, t)
        s = build_scheme("theorem3", 3, 3, 1)
        assert (memory_of(s), worst_case_rate(s), randomness_of(s)) == (2, F(3, 2), 2)


def test_criterion_4_share_threshold():
    with criterion(4, "share threshold, against every share subset", budget=10.0):
        for K, t in [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]:
            assert check_secret_sharing(K, t), (K, t)
            assert reference_secret_sharing(build_shares(K, t)), (K, t)


def test_criterion_5_oracle_agreement():
    with criterion(5, "entropy oracle vs rank, collections up to 4 (3 on theorem3 (3,3,1))", budget=120.0):
        schemes = [
            build_scheme("theorem1", 2, 3),
            build_scheme("theorem2", 2, 3),
            build_scheme("theorem2", 3, 3),
            build_scheme("theorem3", 2, 3, 1),
        ]
        for s in schemes:
            assert check_rank_agreement(s, subset_size_cap=4), s.label
        # 3**12 inputs, of which each collection walks its essential columns:
        # triples over 3 files, 3 caches and 8 deliveries.
        s = build_scheme("theorem3", 3, 3, 1)
        assert check_rank_agreement(s, subset_size_cap=3, max_deliveries=8), s.label
        assert check_lemma1_lemma2(build_scheme("theorem1", 2, 3))
        assert check_lemma3_lemma4(build_scheme("theorem2", 2, 3))
        assert check_lemma3_lemma4(build_scheme("theorem2", 3, 3))


def _vertex_set(entries):
    return {(F(*p["M"]), F(*p["R"])) for p in entries}


def _max_rate_bound(constraints, M):
    best = None
    for c in constraints:
        beta = F(*c["beta"])
        if beta == 0:
            continue
        lo = F(*c["m_lo"])
        hi = F(*c["m_hi"]) if c["m_hi"] is not None else None
        if M < lo or (hi is not None and M > hi):
            continue
        bound = (F(*c["gamma"]) - F(*c["alpha"]) * M) / beta
        best = bound if best is None else max(best, bound)
    return best


def test_criterion_6_curve_reproduction(tmp_path):
    with criterion(6, "tradeoff CLI, (N,K)=(2,4) and (4,3)", budget=1.0):
        out24 = tmp_path / "c24.csv"
        assert main(["tradeoff", "--N", "2", "--K", "4", "--out", str(out24)]) == 0
        doc = json.loads((tmp_path / "c24.vertices.json").read_text())
        assert _vertex_set(doc["envelope"]) == {(1, F(3)), (F(4, 3), F(2)), (F(3), F(1))}
        assert _vertex_set(doc["dominated"]) == {(F(8, 3), F(4, 3))}
        assert _vertex_set(doc["prior"]) == {
            (F(1), F(4)), (F(5, 3), F(2)), (F(3), F(4, 3)), (F(6), F(1)),
        }
        assert _max_rate_bound(doc["converse"], F(1)) == 3
        seg = next(c for c in doc["converse"] if c["kind"] == "linear_segment")
        assert (F(*seg["alpha"]), F(*seg["beta"]), F(*seg["gamma"])) == (3, 1, 6)
        assert (F(*seg["m_lo"]), F(*seg["m_hi"])) == (1, F(4, 3))
        floor = next(c for c in doc["converse"] if c["kind"] == "unit_rate_cache_floor")
        assert F(*floor["gamma"]) == 3

        out43 = tmp_path / "c43.csv"
        assert main(["tradeoff", "--N", "4", "--K", "3", "--out", str(out43)]) == 0
        doc = json.loads((tmp_path / "c43.vertices.json").read_text())
        assert _vertex_set(doc["achievable"]) == {(F(1), F(3)), (F(5, 2), F(3, 2)), (F(6), F(1))}
        assert _vertex_set(doc["prior"]) == {(F(1), F(3)), (F(3), F(3, 2)), (F(8), F(1))}
        assert _max_rate_bound(doc["converse"], F(1)) == 3
        floor = next(c for c in doc["converse"] if c["kind"] == "unit_rate_cache_floor")
        assert F(*floor["gamma"]) == 6


def test_criterion_7_endpoint_optimality():
    with criterion(7, "endpoint sweep, N and K in 2..6", budget=5.0):
        for N in range(2, 7):
            for K in range(2, 7):
                env = lower_convex_envelope(achievable_points(N, K))
                assert env.rate_at(F(1)) == (K - 1 if N == 2 else K), (N, K)
                last = env.vertices[-1]
                assert (last.M, last.R) == ((N - 1) * (K - 1), 1), (N, K)
                for v in env.vertices[:-1]:
                    assert v.R > 1, (N, K)
        for K in range(3, 7):
            env = lower_convex_envelope(achievable_points(2, K))
            seg = next(c for c in converse_constraints(2, K) if c.kind == "linear_segment")
            for j in range(20):
                M = seg.m_lo + (seg.m_hi - seg.m_lo) * F(j, 19)
                assert env.rate_at(M) == seg.rate_bound_at(M), (K, M)


def test_criterion_8_simulation():
    with criterion(8, "100 seeded end-to-end decodes plus one corruption", budget=10.0):
        schemes = [
            build_scheme("otp", 3, 3),
            build_scheme("theorem1", 2, 4),
            build_scheme("theorem2", 3, 3),
            build_scheme("theorem3", 3, 4, 1),
        ]
        rng = random.Random(2026)
        for i in range(100):
            s = schemes[i % 4]
            d = DemandVector(tuple(rng.randint(1, s.N) for _ in range(s.K)))
            result = simulate(s, d, seed=i)
            assert result.passed, (s.label, d.entries, i)
        corrupted = simulate(build_scheme("theorem1", 2, 3), DemandVector((1, 2, 2)), seed=9, corrupt_unit=0)
        assert not corrupted.passed and corrupted.failed_users
