import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmac import (
    GainPair,
    PowerBudget,
    RatePoint,
    RegionBounds,
    contains,
    gaussian_region_bounds,
    region_vertices,
    wireless_region_bounds,
)

HALF_LOG2_3 = 0.7924812503605781


@st.composite
def budgets(draw, min_p0=0.0):
    p1 = draw(st.floats(min_value=0.1, max_value=100.0))
    p2 = draw(st.floats(min_value=0.1, max_value=100.0))
    cap = min(p1, p2)
    p0 = draw(st.floats(min_value=min_p0, max_value=float(cap)))
    noise = draw(st.floats(min_value=1e-6, max_value=10.0))
    return PowerBudget(p0=p0, p1=p1, p2=p2, noise=noise)


@st.composite
def gain_pairs(draw):
    g1 = draw(st.floats(min_value=0.0, max_value=50.0))
    g2 = draw(st.floats(min_value=0.0, max_value=50.0))
    return GainPair(g1, g2)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p0,p1,p2,noise",
    [
        (-0.1, 1, 1, 1),  # negative common power
        (2.0, 1, 5, 1),  # p0 above min(p1, p2)
        (0, 0, 1, 1),  # p1 not positive
        (0, 1, 1, 0),  # noise not positive
        (0, math.inf, 1, 1),  # non-finite values
        (0, 1, math.inf, 1),
        (0, 1, 1, math.inf),
        (math.nan, 1, 1, 1),
    ],
)
def test_power_budget_rejects_invalid(p0, p1, p2, noise):
    with pytest.raises(ValueError):
        PowerBudget(p0, p1, p2, noise)


def test_power_budget_allows_p0_equal_min():
    assert PowerBudget(1.0, 1.0, 5.0, 1.0).p0 == 1.0


def test_rate_point_rejects_negative():
    with pytest.raises(ValueError):
        RatePoint(0.0, -0.2, 0.0)


def test_region_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        RegionBounds(b1=2.0, b2=0.5, b12=1.0, b012=1.5)
    with pytest.raises(ValueError):
        RegionBounds(b1=0.5, b2=0.5, b12=2.0, b012=1.0)


# ---------------------------------------------------------------------------
# gaussian_region_bounds
# ---------------------------------------------------------------------------


def test_gaussian_unit_snr_symmetry():
    b = gaussian_region_bounds(PowerBudget(0.0, 1.0, 1.0, 1.0))
    assert b.b1 == 0.5
    assert b.b2 == 0.5
    assert b.b12 == pytest.approx(HALF_LOG2_3, abs=1e-15)
    assert b.b012 == b.b12


def test_gaussian_all_power_common():
    b = gaussian_region_bounds(PowerBudget(2.0, 2.0, 2.0, 1.0))
    assert b.b1 == 0.0
    assert b.b2 == 0.0
    assert b.b12 == 0.0
    assert b.b012 == pytest.approx(0.5 * math.log2(1.0 + 8.0), rel=1e-15)


def test_gaussian_against_high_precision_oracle():
    # Frozen from a 50-digit evaluation of the four formulas at
    # p0=0.5, p1=1, p2=5, noise=1e-5.
    b = gaussian_region_bounds(PowerBudget(0.5, 1.0, 5.0, 1e-5))
    assert b.b1 == pytest.approx(7.804834664024547, rel=1e-15)
    assert b.b2 == pytest.approx(9.389784340932271, rel=1e-15)
    assert b.b12 == pytest.approx(9.465785727355685, rel=1e-15)
    assert b.b012 == pytest.approx(9.708498728742930, rel=1e-15)


# ---------------------------------------------------------------------------
# wireless_region_bounds
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(budgets())
def test_wireless_unit_gains_equal_gaussian_exactly(budget):
    assert wireless_region_bounds(budget, GainPair(1.0, 1.0)) == gaussian_region_bounds(budget)


def test_wireless_erased_first_link():
    budget = PowerBudget(0.0, 2.0, 3.0, 0.5)
    b = wireless_region_bounds(budget, GainPair(0.0, 1.7))
    assert b.b1 == 0.0
    assert b.b12 == b.b2


def test_wireless_bounds_reject_overflow():
    # g2*(p2 - p0) overflows to inf; at p0 = 0 the common term is 0*inf = nan
    for p0 in (0.0, 0.5):
        with pytest.raises(ValueError, match="gains g1=1e\\+308, g2=1e\\+308"):
            wireless_region_bounds(PowerBudget(p0, 1.0, 5.0, 1.0), GainPair(1e308, 1e308))


def test_wireless_cross_term_example():
    # g1=4, g2=1, p0=1, p1=p2=2, noise=1: b012 = 1/2 log2(1 + (8+2+4)/1)
    b = wireless_region_bounds(PowerBudget(1.0, 2.0, 2.0, 1.0), GainPair(4.0, 1.0))
    assert b.b012 == pytest.approx(0.5 * math.log2(15.0), rel=1e-15)
    assert b.b012 == pytest.approx(1.9534452978042594, rel=1e-15)
    assert b.b1 == pytest.approx(0.5 * math.log2(5.0), rel=1e-15)
    assert b.b2 == 0.5
    assert b.b12 == pytest.approx(0.5 * math.log2(6.0), rel=1e-15)


@settings(max_examples=100)
@given(budgets(), gain_pairs())
def test_wireless_bounds_ordering(budget, gains):
    b = wireless_region_bounds(budget, gains)
    assert 0.0 <= b.b1 <= b.b12 <= b.b012
    assert b.b2 <= b.b12


@settings(max_examples=100)
@given(budgets(), gain_pairs(), st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0))
def test_wireless_monotone_in_gains(budget, gains, bump1, bump2):
    small = wireless_region_bounds(budget, gains)
    big = wireless_region_bounds(budget, GainPair(gains.g1 + bump1, gains.g2 + bump2))
    assert big.b1 >= small.b1
    assert big.b2 >= small.b2
    assert big.b12 >= small.b12
    assert big.b012 >= small.b012


@settings(max_examples=200)
@given(budgets(), gain_pairs())
def test_common_power_zero_collapses_sum_bounds(budget, gains):
    zero_common = PowerBudget(0.0, budget.p1, budget.p2, budget.noise)
    g = gaussian_region_bounds(zero_common)
    assert g.b12 == g.b012
    w = wireless_region_bounds(zero_common, gains)
    assert w.b12 == w.b012


@st.composite
def meaningful_gains(draw):
    # Below ~1e-13 relative to the other log-argument terms a common-power
    # increment is sub-ulp and cannot separate the bounds in float.
    g1 = draw(st.floats(min_value=1e-3, max_value=50.0))
    g2 = draw(st.floats(min_value=1e-3, max_value=50.0))
    return GainPair(g1, g2)


@settings(max_examples=200)
@given(budgets(min_p0=1e-3), meaningful_gains())
def test_positive_common_power_separates_sum_bounds(budget, gains):
    g = gaussian_region_bounds(budget)
    if budget.p0 > 0.0:
        assert g.b12 < g.b012
        w = wireless_region_bounds(budget, gains)
        assert w.b12 < w.b012


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------


def test_contains_origin_always_true():
    b = RegionBounds(0.0, 0.0, 0.0, 0.0)
    assert contains(b, RatePoint(0.0, 0.0, 0.0))


def test_contains_boundary_inclusive():
    b = RegionBounds(1.0, 2.0, 2.5, 3.0)
    assert contains(b, RatePoint(0.0, 1.0, 0.0))
    assert contains(b, RatePoint(0.5, 1.0, 1.5))
    assert not contains(b, RatePoint(0.0, 1.0000000000000002, 0.0))


def test_contains_matches_direct_inequalities():
    rng = np.random.default_rng(2)
    b = RegionBounds(0.8, 1.1, 1.5, 2.0)
    for _ in range(10_000):
        r0, r1, r2 = rng.uniform(0.0, 1.3, size=3)
        expected = (
            r1 <= b.b1 and r2 <= b.b2 and r1 + r2 <= b.b12 and r0 + r1 + r2 <= b.b012
        )
        assert contains(b, RatePoint(r0, r1, r2)) == expected


# ---------------------------------------------------------------------------
# region_vertices
# ---------------------------------------------------------------------------


def test_vertices_rectangle_when_sum_bound_slack():
    b = RegionBounds(1.0, 1.0, 2.0, 2.0)
    assert region_vertices(b, 0.0) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_vertices_triangle_when_sum_bound_tight():
    b = RegionBounds(1.0, 1.0, 1.0, 1.0)
    assert region_vertices(b, 0.0) == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_vertices_pentagon():
    b = RegionBounds(1.0, 1.0, 1.5, 1.5)
    assert region_vertices(b, 0.0) == [
        (0.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.5),
        (0.5, 1.0),
        (0.0, 1.0),
    ]


def test_vertices_common_rate_shrinks_sum():
    b = RegionBounds(1.0, 1.0, 2.0, 2.0)
    # s = min(2, 2 - 1.5) = 0.5: triangle with legs 0.5
    assert region_vertices(b, 1.5) == [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]


def test_vertices_degenerate_cases():
    b = RegionBounds(1.0, 1.0, 1.5, 1.5)
    assert region_vertices(b, b.b012) == [(0.0, 0.0)]
    segment = RegionBounds(0.0, 1.0, 1.0, 1.0)
    assert region_vertices(segment, 0.0) == [(0.0, 0.0), (0.0, 1.0)]


def test_vertices_reject_r0_beyond_bound():
    b = RegionBounds(1.0, 1.0, 1.5, 1.5)
    with pytest.raises(ValueError):
        region_vertices(b, 1.5000001)
    with pytest.raises(ValueError):
        region_vertices(b, -0.1)


# frac stays below 1 so the region is not a sliver of the common-rate
# bound; the exact r0 == b012 collapse is covered in the degenerate cases.
@settings(max_examples=150)
@given(budgets(), gain_pairs(), st.floats(min_value=0.0, max_value=0.99))
def test_vertices_and_adjacent_midpoints_inside_region(budget, gains, frac):
    bounds = wireless_region_bounds(budget, gains)
    r0 = frac * bounds.b012
    vertices = region_vertices(bounds, r0)
    assert vertices[0] == (0.0, 0.0)
    assert len(set(vertices)) == len(vertices)
    for x, y in vertices:
        assert contains(bounds, RatePoint(r0, x, y))
    # A convex combination of boundary points lies in the closed region;
    # shrink the float midpoint toward the origin by more than the rounding
    # error so the exact-comparison membership test must accept it.
    inside = 1.0 - 1e-12
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        mid = RatePoint(r0, inside * 0.5 * (x1 + x2), inside * 0.5 * (y1 + y2))
        assert contains(bounds, mid)


@settings(max_examples=150)
@given(budgets(), gain_pairs(), st.floats(min_value=0.0, max_value=1.0))
def test_vertices_counterclockwise(budget, gains, frac):
    bounds = wireless_region_bounds(budget, gains)
    vertices = region_vertices(bounds, frac * bounds.b012)
    angles = [math.atan2(y, x) for x, y in vertices[1:]]
    assert angles == sorted(angles)
