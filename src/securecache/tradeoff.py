"""Exact memory-rate tradeoff curves and converse bounds.

Achievable (cache size, rate) points of the scheme families, their
lower convex envelope (memory sharing between schemes), the matching
prior-work curve, and the converse constraints that pin down both
endpoints of the new curve.  Everything is computed in exact rationals;
floats appear only in CSV rendering.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd

from .constructions import FAMILIES, check_users
from .scheme_model import Rational, rational_json


# emit_curves refuses a uniform grid of more samples than this.
MAX_GRID = 10**5


@dataclass(frozen=True)
class TradeoffPoint:
    M: Rational
    R: Rational
    label: str
    source: str

    def as_dict(self) -> dict:
        return {
            "M": rational_json(self.M),
            "R": rational_json(self.R),
            "label": self.label,
            "source": self.source,
        }


def achievable_points(N: int, K: int) -> tuple[TradeoffPoint, ...]:
    """Corner points achieved by the scheme builders, in cache-size order.

    Each member of each family in constructions.FAMILIES gives its
    declared (M, R); at each cache size only the least rate is kept, from
    the first family in registry order on a tie.
    """
    if N < 2 or K < 2:
        raise ValueError(f"need N >= 2 and K >= 2, got N={N}, K={K}")
    check_users(K)
    pts = [
        TradeoffPoint(*family.mrl(**p)[:2], label, family.source.format(**p))
        for label, family in FAMILIES.items()
        for p in family.members(N, K)
    ]
    best: dict[Rational, TradeoffPoint] = {}
    for p in sorted(pts, key=lambda p: (p.M, p.R)):
        best.setdefault(p.M, p)
    return tuple(best.values())


def prior_work_points(N: int, K: int) -> tuple[TradeoffPoint, ...]:
    """Previously known corner points for the same (N, K).

    These are the corners of the secretive coded caching scheme of
    Ravindrakumar, Panda, Karamchandani and Prabhakaran: M = 1 at rate
    K, M = N*t/(K - t) + 1 at rate K/(t + 1) for 1 <= t <= K - 2, and
    M = N*(K - 1) at rate 1.
    """
    if N < 2 or K < 2:
        raise ValueError(f"need N >= 2 and K >= 2, got N={N}, K={K}")
    check_users(K)
    pts = [TradeoffPoint(Fraction(1), Fraction(K), "prior", "unit cache, prior")]
    for t in range(1, K - 1):
        M = Fraction(N * t, K - t) + 1
        pts.append(TradeoffPoint(M, Fraction(K, t + 1), "prior", f"prior family t={t}"))
    pts.append(TradeoffPoint(Fraction(N * (K - 1)), Fraction(1), "prior", "unit rate, prior"))
    return tuple(pts)


@dataclass(frozen=True)
class EnvelopeCurve:
    """Lower convex envelope of tradeoff points, constant past the end."""

    vertices: tuple[TradeoffPoint, ...]
    dominated: tuple[TradeoffPoint, ...]

    @cached_property
    def sizes(self) -> tuple[Rational, ...]:
        """The vertices' cache sizes, ascending, kept for rate_at to bisect."""
        return tuple(p.M for p in self.vertices)

    def rate_at(self, M: Rational) -> Rational:
        M = Fraction(M)
        i = bisect_right(self.sizes, M)
        if i == 0:
            raise ValueError(f"cache size {M} below the smallest achievable {self.sizes[0]}")
        if i == len(self.sizes):
            return self.vertices[-1].R
        a, b = self.vertices[i - 1], self.vertices[i]
        return a.R + (b.R - a.R) * (M - a.M) / (b.M - a.M)


def _cross(o: TradeoffPoint, a: TradeoffPoint, b: TradeoffPoint) -> Rational:
    return (a.M - o.M) * (b.R - o.R) - (a.R - o.R) * (b.M - o.M)


def lower_convex_envelope(points: tuple[TradeoffPoint, ...]) -> EnvelopeCurve:
    """Lower hull over cache size, strictly convex vertex set.

    Points strictly above the envelope are reported as dominated;
    points on a segment between vertices are neither vertices nor
    dominated.
    """
    if not points:
        raise ValueError("no points to envelope")
    best: dict[Rational, TradeoffPoint] = {}
    for p in sorted(points, key=lambda p: (p.M, p.R)):
        best.setdefault(p.M, p)
    hull: list[TradeoffPoint] = []
    for p in best.values():
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    # Vertices lie on the curve, so no vertex can be counted as above it.
    curve = EnvelopeCurve(vertices=tuple(hull), dominated=())
    return replace(curve, dominated=tuple(p for p in points if p.R > curve.rate_at(p.M)))


@dataclass(frozen=True)
class ConverseConstraint:
    """One converse constraint alpha*M + beta*R >= gamma on [m_lo, m_hi].

    Constraints with beta = 0 restrict the cache size only (they bound
    no rate at a given M); m_hi None means unbounded above.
    """

    kind: str
    alpha: Rational
    beta: Rational
    gamma: Rational
    m_lo: Rational
    m_hi: Rational | None
    description: str

    def rate_bound_at(self, M: Rational) -> Rational | None:
        if self.beta == 0:
            return None
        if M < self.m_lo or (self.m_hi is not None and M > self.m_hi):
            return None
        return (self.gamma - self.alpha * M) / self.beta

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": rational_json(self.alpha),
            "beta": rational_json(self.beta),
            "gamma": rational_json(self.gamma),
            "m_lo": rational_json(self.m_lo),
            "m_hi": None if self.m_hi is None else rational_json(self.m_hi),
            "description": self.description,
        }


def converse_constraints(N: int, K: int) -> tuple[ConverseConstraint, ...]:
    """Converse constraints known to hold for (N, K)."""
    if N < 2 or K < 2:
        raise ValueError(f"need N >= 2 and K >= 2, got N={N}, K={K}")
    out = [
        ConverseConstraint(
            "rate_floor", Fraction(0), Fraction(1), Fraction(1), Fraction(1), None,
            "every broadcast delivers at least one file's worth of symbols",
        ),
        ConverseConstraint(
            "cache_floor", Fraction(1), Fraction(0), Fraction(1), Fraction(1), None,
            "every cache holds at least one file's worth of symbols",
        ),
    ]
    unit_cache_rate = K - 1 if N == 2 else K
    out.append(
        ConverseConstraint(
            "unit_cache_point", Fraction(0), Fraction(1), Fraction(unit_cache_rate),
            Fraction(1), Fraction(1),
            f"at cache size exactly 1 the rate is at least {unit_cache_rate}",
        )
    )
    out.append(
        ConverseConstraint(
            "unit_rate_cache_floor", Fraction(1), Fraction(0),
            Fraction((N - 1) * (K - 1)), Fraction(1), None,
            f"unit rate requires cache size at least {(N - 1) * (K - 1)}",
        )
    )
    if N == 2 and K >= 3:
        alpha, beta, gamma = (K - 1) * (K - 2), 2, K * (K - 1)
        g = gcd(gcd(alpha, beta), gamma)
        out.append(
            ConverseConstraint(
                "linear_segment",
                Fraction(alpha // g), Fraction(beta // g), Fraction(gamma // g),
                Fraction(1), Fraction(K, K - 1),
                f"{alpha // g}*M + {beta // g}*R >= {gamma // g} near unit cache size",
            )
        )
    return tuple(out)


def rate_lower_bound(constraints: tuple[ConverseConstraint, ...], M: Rational) -> Rational:
    """Pointwise best converse rate bound at cache size M (at least 1)."""
    bounds = [b for c in constraints if (b := c.rate_bound_at(M)) is not None]
    if not bounds:
        raise ValueError(f"no rate constraint applies at M={M}")
    return max(bounds)


@dataclass(frozen=True)
class TradeoffRow:
    M: Rational
    r_ach: Rational
    r_prior: Rational
    r_lb: Rational


@dataclass(frozen=True)
class TradeoffDataset:
    """Sampled curves plus exact vertex data for one (N, K)."""

    N: int
    K: int
    grid: int
    points: tuple[TradeoffPoint, ...]
    envelope: EnvelopeCurve
    prior_points: tuple[TradeoffPoint, ...]
    prior_envelope: EnvelopeCurve
    constraints: tuple[ConverseConstraint, ...]
    rows: tuple[TradeoffRow, ...]

    def csv_text(self, *, include_prior: bool) -> str:
        cols = ["M_num", "M_den", "M_float", "R_ach_float"]
        if include_prior:
            cols.append("R_prior_float")
        cols.append("R_lb_float")
        lines = [",".join(cols)]
        for row in self.rows:
            cells = [
                str(row.M.numerator),
                str(row.M.denominator),
                f"{float(row.M):.12g}",
                f"{float(row.r_ach):.12g}",
            ]
            if include_prior:
                cells.append(f"{float(row.r_prior):.12g}")
            cells.append(f"{float(row.r_lb):.12g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def vertices_dict(self) -> dict:
        return {
            "N": self.N,
            "K": self.K,
            "achievable": [p.as_dict() for p in self.points],
            "envelope": [p.as_dict() for p in self.envelope.vertices],
            "dominated": [p.as_dict() for p in self.envelope.dominated],
            "prior": [p.as_dict() for p in self.prior_points],
            "prior_envelope": [p.as_dict() for p in self.prior_envelope.vertices],
            "converse": [c.as_dict() for c in self.constraints],
        }


def emit_curves(N: int, K: int, grid: int = 61) -> TradeoffDataset:
    """Sample the achievable, prior, and converse curves over [1, N(K-1)].

    The sample set is a uniform grid of the given size merged with
    every envelope vertex and constraint breakpoint, so corner values
    appear exactly.
    """
    if grid < 2:
        raise ValueError(f"need at least 2 grid samples, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"need at most {MAX_GRID} grid samples, got {grid}")
    points = achievable_points(N, K)
    envelope = lower_convex_envelope(points)
    prior_points = prior_work_points(N, K)
    prior_envelope = lower_convex_envelope(prior_points)
    constraints = converse_constraints(N, K)
    lo, hi = Fraction(1), Fraction(N * (K - 1))
    samples = {lo + (hi - lo) * Fraction(j, grid - 1) for j in range(grid)}
    samples.update(p.M for p in envelope.vertices)
    samples.update(p.M for p in prior_envelope.vertices)
    for c in constraints:
        for end in (c.m_lo, c.m_hi):
            if end is not None and lo <= end <= hi:
                samples.add(end)
    rows = tuple(
        TradeoffRow(
            M=M,
            r_ach=envelope.rate_at(M),
            r_prior=prior_envelope.rate_at(M),
            r_lb=rate_lower_bound(constraints, M),
        )
        for M in sorted(samples)
    )
    return TradeoffDataset(
        N=N,
        K=K,
        grid=grid,
        points=points,
        envelope=envelope,
        prior_points=prior_points,
        prior_envelope=prior_envelope,
        constraints=constraints,
        rows=rows,
    )
