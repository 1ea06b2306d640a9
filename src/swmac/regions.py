"""Achievable-rate regions for the two-user MAC with a common message.

Inputs of the form X_i = V0 + a_i*W_i share a common part V0 (power P0)
alongside private parts W_i, and the resulting inner-bound region is cut
out by four inequalities on (R0, R1, R2):

    R1           <= b1
    R2           <= b2
    R1 + R2      <= b12
    R0 + R1 + R2 <= b012

Rates are in bits per channel use (base-2 logs throughout).  The Gaussian
bounds depend only on the power budget; the wireless bounds additionally
scale by the instantaneous channel power gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .copula import GainPair, _set_floats

__all__ = [
    "PowerBudget",
    "RatePoint",
    "RegionBounds",
    "VertexMembershipError",
    "gaussian_region_bounds",
    "wireless_region_bounds",
    "contains",
    "region_vertices",
]


class VertexMembershipError(RuntimeError):
    """A computed region vertex fails the exact membership test."""


@dataclass(frozen=True)
class PowerBudget:
    """Transmit powers (watts): common-message power p0, per-transmitter
    caps p1 and p2, and receiver noise variance.

    All four are finite.  Requires 0 <= p0 <= min(p1, p2) so both
    private-power differences p_i - p0 are nonnegative.
    """

    p0: float
    p1: float
    p2: float
    noise: float

    def __post_init__(self) -> None:
        _set_floats(self, ("p0", "p1", "p2", "noise"), math.isfinite, "must be finite")
        _set_floats(self, ("p1", "p2", "noise"), lambda v: v > 0.0, "must be > 0")
        if not 0.0 <= self.p0 <= min(self.p1, self.p2):
            raise ValueError(
                f"p0 must satisfy 0 <= p0 <= min(p1, p2), got p0={self.p0} "
                f"with p1={self.p1}, p2={self.p2}"
            )


@dataclass(frozen=True)
class RatePoint:
    """A rate triple (common, private 1, private 2), bits per channel use."""

    r0: float
    r1: float
    r2: float

    def __post_init__(self) -> None:
        _set_floats(self, ("r0", "r1", "r2"), lambda v: v >= 0.0, "must be >= 0")


@dataclass(frozen=True)
class RegionBounds:
    """The four right-hand sides of a rate-region instance."""

    b1: float
    b2: float
    b12: float
    b012: float

    def __post_init__(self) -> None:
        _set_floats(self, ("b1", "b2", "b12", "b012"), lambda v: v >= 0.0, "must be >= 0")
        if not self.b1 <= self.b12:
            raise ValueError(f"b1={self.b1} must not exceed b12={self.b12}")
        if not self.b2 <= self.b12:
            raise ValueError(f"b2={self.b2} must not exceed b12={self.b12}")
        if not self.b12 <= self.b012:
            raise ValueError(f"b12={self.b12} must not exceed b012={self.b012}")


def gaussian_region_bounds(budget: PowerBudget) -> RegionBounds:
    """Inner-bound region of the Gaussian MAC with a common message.

    b1   = 1/2 log2(1 + (p1 - p0)/N)
    b2   = 1/2 log2(1 + (p2 - p0)/N)
    b12  = 1/2 log2(1 + (p1 + p2 - 2*p0)/N)
    b012 = 1/2 log2(1 + (p1 + p2 + 2*p0)/N)

    Evaluated as the wireless region at unit gains, so the two agree bit
    for bit on the same budget.
    """
    return wireless_region_bounds(budget, GainPair(1.0, 1.0))


def wireless_region_bounds(budget: PowerBudget, gains: GainPair) -> RegionBounds:
    """Instantaneous region given channel power gains (g1, g2).

    The private terms scale by g_i; the common-message cross term uses the
    amplitude product |h1||h2| = sqrt(g1*g2) (gains carry no phase, so the
    common part is taken as coherently combined):

    b012 = 1/2 log2(1 + (g1*p1 + g2*p2 + 2*sqrt(g1*g2)*p0)/N)

    The four log arguments are accumulated as sums of nonnegative terms
    (the b012 numerator as the b12 numerator plus
    p0*(g1 + g2 + 2*sqrt(g1*g2)), which is algebraically identical), so
    the orderings b1 <= b12, b2 <= b12 and b12 <= b012 hold exactly in
    floating point, with b12 == b012 bitwise when p0 == 0.

    Raises ValueError, naming the gains, when a bound is not finite (a
    product or sum of gains and powers overflows).
    """
    g1, g2 = gains.g1, gains.g2
    n = budget.noise
    t1 = g1 * (budget.p1 - budget.p0)
    t2 = g2 * (budget.p2 - budget.p0)
    private_sum = t1 + t2
    common = budget.p0 * (g1 + g2 + 2.0 * math.sqrt(g1 * g2))
    bounds = [
        0.5 * math.log2(1.0 + x / n) for x in (t1, t2, private_sum, private_sum + common)
    ]
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"region bounds overflow for gains g1={g1}, g2={g2} under {budget}")
    return RegionBounds(*bounds)


def contains(bounds: RegionBounds, point: RatePoint) -> bool:
    """Closed-region membership; exact comparisons, boundary included."""
    return (
        point.r1 <= bounds.b1
        and point.r2 <= bounds.b2
        and point.r1 + point.r2 <= bounds.b12
        and point.r0 + point.r1 + point.r2 <= bounds.b012
    )


def _snap_inside(
    bounds: RegionBounds, r0: float, x: float, y: float
) -> tuple[float, float]:
    """Nudge a candidate vertex by at most a few ulps so it passes the
    exact membership test (float rounding of edge intersections can land
    an ulp outside the region)."""
    x = min(x, bounds.b1)
    y = min(y, bounds.b2)
    for _ in range(64):
        if contains(bounds, RatePoint(r0, x, y)):
            return (x, y)
        if y >= x and y > 0.0:
            y = math.nextafter(y, 0.0)
        elif x > 0.0:
            x = math.nextafter(x, 0.0)
        else:
            break
    raise VertexMembershipError(f"could not snap vertex ({x}, {y}) into region {bounds}")


def region_vertices(bounds: RegionBounds, r0: float) -> list[tuple[float, float]]:
    """Corner points of the (R1, R2) polytope at fixed common rate r0.

    The polytope is {R1 <= b1, R2 <= b2, R1 + R2 <= s} with
    s = min(b12, b012 - r0), intersected with the nonnegative quadrant.
    The vertices are returned as they are built, which is counterclockwise
    from (0, 0): the origin, (min(b1, s), 0), the corner (b1, b2) or the
    two corners (b1, s - b1) and (s - b2, b2) the sum constraint cuts, then
    (0, min(b2, s)).  Snapping moves a vertex toward 0 by a few ulps and
    duplicates keep their first place; every returned vertex satisfies
    :func:`contains` at r0.

    Raises ValueError when r0 > b012 (region empty at that common rate), and
    :class:`VertexMembershipError` if a vertex cannot be placed inside.
    """
    if not r0 >= 0.0:
        raise ValueError(f"r0 must be >= 0, got {r0}")
    if r0 > bounds.b012:
        raise ValueError(f"r0={r0} exceeds the common-rate bound b012={bounds.b012}")
    b1, b2 = bounds.b1, bounds.b2
    s = min(bounds.b12, bounds.b012 - r0)
    if s <= 0.0:
        return [(0.0, 0.0)]

    candidates: list[tuple[float, float]] = [(0.0, 0.0), (min(b1, s), 0.0)]
    if b1 + b2 <= s:
        if b1 > 0.0 and b2 > 0.0:
            candidates.append((b1, b2))
    else:
        # The sum constraint cuts the rectangle corner.
        if b1 < s:
            candidates.append((b1, s - b1))
        if b2 < s:
            candidates.append((s - b2, b2))
    candidates.append((0.0, min(b2, s)))

    vertices: list[tuple[float, float]] = []
    for x, y in candidates:
        v = _snap_inside(bounds, r0, x, y)
        if v not in vertices:
            vertices.append(v)
    return vertices
