import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from swmac import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE,
    DegenerateDenominator,
    DependenceParameter,
    FadingMarginals,
    OutageCurve,
    OutageEstimate,
    OutageQuery,
    PowerBudget,
    QuadratureNonConvergence,
    gamma_threshold,
    outage_closed_form,
    outage_monte_carlo,
    outage_monte_carlo_grid,
    outage_point_to_point,
    outage_quadrature,
)
from swmac.streams import substream

from oracles import brute_force_outage, closed_form_residual, convolution_outage, fgm_outage


def make_query(rate=0.5, p0=0.0, p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=1.0, theta=0.0):
    return OutageQuery(
        rate_threshold=rate,
        budget=PowerBudget(p0, p1, p2, noise),
        marginals=FadingMarginals(lam1, lam2),
        theta=DependenceParameter(theta),
    )


# ---------------------------------------------------------------------------
# gamma_threshold and query plumbing
# ---------------------------------------------------------------------------


def test_gamma_threshold_examples():
    assert gamma_threshold(0.0, 123.0) == 0.0
    assert gamma_threshold(1.0, 1e-5) == pytest.approx(3e-5, rel=1e-15)
    assert gamma_threshold(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_gamma_threshold_strictly_increasing():
    rates = np.linspace(0.0, 3.0, 31)
    gammas = [gamma_threshold(r, 1.0) for r in rates]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_gamma_threshold_validation():
    with pytest.raises(ValueError):
        gamma_threshold(-0.1, 1.0)
    with pytest.raises(ValueError):
        gamma_threshold(1.0, 0.0)


@pytest.mark.parametrize(
    "rate, noise",
    [(600.0, 1.0), (14.0, 1e300)],
    ids=["power-overflow", "product-overflow"],
)
def test_gamma_threshold_rejects_non_finite_gamma(rate, noise):
    # 2^1200 overflows in pow; 1e300*(2^28 - 1) overflows in the product.
    with pytest.raises(ValueError, match="overflows"):
        gamma_threshold(rate, noise)
    with pytest.raises(ValueError, match="overflows"):
        gamma_threshold((0.5, rate), noise)
    assert gamma_threshold((0.5,), noise)[0] == gamma_threshold(0.5, noise)


def test_query_rejects_common_power_reaching_either_cap():
    with pytest.raises(ValueError):
        make_query(p0=1.0, p1=1.0, p2=5.0)
    with pytest.raises(ValueError):
        make_query(rate=-0.5)


def test_query_derived_quantities():
    q = make_query(rate=1.0, p0=0.5, p1=1.0, p2=5.0, noise=1e-5)
    assert q.weight1 == 0.5
    assert q.weight2 == 4.5
    assert q.power_ratio == 9.0
    assert q.gamma == pytest.approx(3e-5, rel=1e-15)


def test_estimate_validation():
    with pytest.raises(ValueError):
        OutageEstimate(value=1.2, method=QUADRATURE)
    with pytest.raises(ValueError):
        OutageEstimate(value=0.5, method="bogus")
    with pytest.raises(ValueError):
        OutageEstimate(value=0.5, method=MONTE_CARLO, std_error=-0.1)
    flagged = OutageEstimate(value=-0.25, method=CLOSED_FORM, flag="out-of-range")
    assert flagged.value == -0.25


def test_curve_validation_matches_estimate():
    ok = np.zeros(2, dtype=bool)
    for value in ([0.5, 1.2], [0.5, math.nan]):
        with pytest.raises(ValueError):
            OutageCurve(QUADRATURE, np.array(value), out_of_range=ok)
    with pytest.raises(ValueError):
        OutageCurve("bogus", np.array([0.5, 0.5]), out_of_range=ok)
    with pytest.raises(ValueError):
        OutageCurve(MONTE_CARLO, np.array([0.5, 0.5]), ok, std_error=np.array([0.1, -0.1]))
    flagged = OutageCurve(CLOSED_FORM, np.array([-0.25, 0.5]), np.array([True, False]))
    assert list(flagged) == [
        OutageEstimate(value=-0.25, method=CLOSED_FORM, flag="out-of-range"),
        OutageEstimate(value=0.5, method=CLOSED_FORM),
    ]


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def test_closed_form_theta_zero_reduces_to_base_term():
    q = make_query(rate=0.8, p1=2.0, p2=3.0, lam1=1.0, lam2=2.5, theta=0.0)
    got = outage_closed_form(q).value
    p = q.power_ratio
    expected = 1.0 - 2.5 * math.exp(-1.0 * q.gamma / q.weight1) / (2.5 - 1.0 * p)
    assert got == pytest.approx(expected, rel=1e-15)


def test_closed_form_small_gamma_out_of_range_example():
    # gamma = 0, theta = 0, unit rates, weight ratio 0.2: the formula gives
    # 1 - 1/0.8 = -0.25 while the true probability is 0.
    q = make_query(rate=0.0, p1=5.0, p2=1.0, theta=0.0)
    est = outage_closed_form(q)
    assert est.value == pytest.approx(-0.25, abs=1e-15)
    assert est.flag == "out-of-range"
    assert outage_quadrature(q).value == 0.0


def test_closed_form_all_three_denominators_checked():
    # l2 - l1*P = 0 at P = 1, equal rates
    with pytest.raises(DegenerateDenominator):
        outage_closed_form(make_query(p1=1.0, p2=1.0, lam1=1.0, lam2=1.0))
    # 2*l2 - P*l1 = 0 at P = 2, l1 = 2, l2 = 2: 4 - 4 = 0
    with pytest.raises(DegenerateDenominator):
        outage_closed_form(make_query(p1=1.0, p2=2.0, lam1=2.0, lam2=2.0))
    # l2 - 2*P*l1 = 0 at P = 0.5, unit rates: 1 - 1 = 0
    with pytest.raises(DegenerateDenominator):
        outage_closed_form(make_query(p1=2.0, p2=1.0, lam1=1.0, lam2=1.0))


def test_closed_form_affine_in_theta_exactly():
    base = dict(rate=0.7, p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=2.0)
    at = {
        th: outage_closed_form(make_query(theta=th, **base)).value
        for th in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
    }
    slope = at[1.0] - at[0.0]
    for th, value in at.items():
        assert value == pytest.approx(at[0.0] + th * slope, abs=1e-12)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_quadrature_zero_gamma_is_exactly_zero():
    est = outage_quadrature(make_query(rate=0.0))
    assert est.value == 0.0
    assert est.method == QUADRATURE


def test_quadrature_unit_independent_case():
    # A = B = 1, unit rates, gamma = 1: P[g1 + g2 <= 1] = 1 - 2/e
    q = make_query(rate=0.5, p1=1.0, p2=1.0, noise=1.0, theta=0.0)
    assert outage_quadrature(q).value == pytest.approx(1.0 - 2.0 / math.e, abs=1e-9)


@pytest.mark.parametrize(
    "lam1,lam2,p1,p2,noise,rate",
    [
        (1.0, 2.0, 1.0, 5.0, 1.0, 0.8),
        (2.0, 1.0, 3.0, 1.0, 0.5, 0.6),
        (0.5, 1.5, 2.0, 4.0, 2.0, 0.9),
        (1.0, 1.0, 1.0, 5.0, 1.0, 0.25),
    ],
)
def test_quadrature_matches_convolution_at_theta_zero(lam1, lam2, p1, p2, noise, rate):
    q = make_query(rate=rate, p1=p1, p2=p2, noise=noise, lam1=lam1, lam2=lam2, theta=0.0)
    expected = convolution_outage(lam1, lam2, q.weight1, q.weight2, q.gamma)
    assert outage_quadrature(q).value == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("theta", [-1.0, -0.3, 0.6, 1.0])
def test_quadrature_matches_brute_force_oracle(theta):
    q = make_query(rate=0.75, p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=2.0, theta=theta)
    expected = brute_force_outage(1.0, 2.0, q.weight1, q.weight2, q.gamma, theta)
    assert outage_quadrature(q).value == pytest.approx(expected, abs=1e-8)


def test_quadrature_nondecreasing_in_rate():
    values = [
        outage_quadrature(make_query(rate=r, noise=1.0, theta=0.5)).value
        for r in np.arange(0.1, 2.1, 0.1)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_quadrature_affine_in_theta_within_tolerance():
    tol = 1e-10
    base = dict(rate=0.6, p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=2.0)
    at0 = outage_quadrature(make_query(theta=0.0, **base), tol=tol).value
    at1 = outage_quadrature(make_query(theta=1.0, **base), tol=tol).value
    for th in (-1.0, -0.5, 0.5):
        got = outage_quadrature(make_query(theta=th, **base), tol=tol).value
        assert got == pytest.approx(at0 + th * (at1 - at0), abs=2.0 * tol)


#: QUADPACK warns where its error estimate stalls; these tests expect it.
_stalls = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def _stalled_query(rate=7.8, theta=-1.0):
    # lambda1/lambda2 = 6e8 with gamma/B near 6e5 at R = 7.8: QUADPACK's error
    # estimate stalls at 6.5e-5 for theta = -1 and 0, above any smaller tol,
    # while theta = 0.5 converges to 1e-13.
    return make_query(rate=rate, p1=2e-4, p2=12.8, noise=144.0, lam1=3e4, lam2=5e-5, theta=theta)


@_stalls
def test_quadrature_tol_validation_and_nonconvergence():
    q = make_query(rate=0.5)
    with pytest.raises(ValueError):
        outage_quadrature(q, tol=0.0)
    with pytest.raises(ValueError):
        outage_quadrature(q, tol=0.5)
    with pytest.raises(QuadratureNonConvergence):
        outage_quadrature(_stalled_query(), tol=1e-13)


def test_quadrature_accepts_the_relative_error_bound():
    # Near 1 the error bound is 1e-12*value, the bound the panel and QUADPACK
    # work to: these error estimates exceed tol = 1e-13 but meet it.
    for rate in (2.85, 3.0):
        q = make_query(rate=rate, p2=1.0, theta=-1.0)
        got = outage_quadrature(q, tol=1e-13)
        assert got.flag is None
        assert got.value == pytest.approx(fgm_outage(1.0, 1.0, 1.0, 1.0, q.gamma, -1.0), abs=1e-13)


def test_quadrature_range_check_uses_the_relative_error_bound():
    # At tol 1e-30 the value comes out 1 ulp above 1, well inside the
    # 1e-12*value bound of the error check; it used to be rejected as
    # outside [0, 1] beyond the absolute tol.
    got = outage_quadrature(make_query(rate=2.7, p2=1.0, theta=-1.0), tol=1e-30)
    assert got.value == 1.0 and got.flag is None


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_zero_gamma():
    est = outage_monte_carlo(make_query(rate=0.0), 10_000, seed=1)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.samples == 10_000


def test_monte_carlo_certain_event():
    # gamma = 1000 with unit weights: outage is essentially certain.
    q = make_query(rate=0.5 * math.log2(1001.0), p1=1.0, p2=1.0, noise=1.0)
    est = outage_monte_carlo(q, 10_000, seed=2)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_monte_carlo_agrees_with_quadrature():
    # theta = 0.5, unit rates, A = 1, B = 5, gamma = 3
    q = make_query(rate=0.5 * math.log2(4.0), p1=1.0, p2=5.0, noise=1.0, theta=0.5)
    assert q.gamma == pytest.approx(3.0, rel=1e-15)
    mc = outage_monte_carlo(q, 1_000_000, seed=3)
    quad = outage_quadrature(q)
    assert abs(quad.value - mc.value) <= 3.29 * mc.std_error


def test_monte_carlo_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        outage_monte_carlo(make_query(), 999, seed=1)


def test_monte_carlo_deterministic_for_seed():
    q = make_query(theta=0.3)
    a = outage_monte_carlo(q, 50_000, seed=77)
    b = outage_monte_carlo(q, 50_000, seed=77)
    assert a.value == b.value
    assert outage_monte_carlo(q, 50_000, seed=78).value != a.value


def test_monte_carlo_matches_manual_chunk_accumulation():
    from swmac.copula import iter_gain_pair_chunks

    q = make_query(theta=-0.4, rate=0.6)
    n, seed = 150_000, 11
    est = outage_monte_carlo(q, n, seed)
    chunks = list(iter_gain_pair_chunks(q.theta, q.marginals, n, seed))
    count = sum(
        int(np.count_nonzero(q.weight1 * c[:, 0] + q.weight2 * c[:, 1] <= q.gamma))
        for c in reversed(chunks)
    )
    assert est.value == count / n


def test_monte_carlo_grid_entries_equal_single_point_estimates():
    theta, marginals = DependenceParameter(0.6), FadingMarginals(1.0, 2.0)
    budgets = (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5))
    rates = (0.0, 0.25, 0.8, 1.5)
    n, seed = 70_000, 19  # two chunks, the second partial
    grid = outage_monte_carlo_grid(theta, marginals, budgets, rates, n, seed)
    assert [len(row) for row in grid] == [len(rates)] * len(budgets)
    for budget, row in zip(budgets, grid):
        for rate, est in zip(rates, row):
            single = outage_monte_carlo(OutageQuery(rate, budget, marginals, theta), n, seed)
            assert est == single
    assert grid[0][0].value == 0.0
    assert [e.value for e in grid[0]] == sorted(e.value for e in grid[0])


def test_monte_carlo_grid_counts_ties_as_outage():
    # At R = 0.5, gamma = noise*(2^1 - 1) = noise exactly, so noise set to
    # the 500th smallest drawn sum puts gamma on that sum.
    from swmac.copula import iter_gain_pair_chunks

    theta, marginals = DependenceParameter(0.2), FadingMarginals(1.0, 1.0)
    (chunk,) = iter_gain_pair_chunks(theta, marginals, 1000, 5)
    sums = np.sort(1.0 * chunk[:, 0] + 5.0 * chunk[:, 1])
    assert len(np.unique(sums)) == 1000
    budget = PowerBudget(0.0, 1.0, 5.0, float(sums[499]))
    assert gamma_threshold(0.5, budget.noise) == sums[499]
    ((est,),) = outage_monte_carlo_grid(theta, marginals, (budget,), (0.5,), 1000, 5)
    assert est.value == 0.5


def test_monte_carlo_grid_validation():
    theta, marginals = DependenceParameter(0.0), FadingMarginals(1.0, 1.0)
    with pytest.raises(ValueError):
        outage_monte_carlo_grid(theta, marginals, (PowerBudget(0.0, 1.0, 1.0, 1.0),), (0.5,), 999, 1)
    with pytest.raises(ValueError):
        outage_monte_carlo_grid(theta, marginals, (PowerBudget(1.0, 1.0, 2.0, 1.0),), (0.5,), 1000, 1)


# ---------------------------------------------------------------------------
# Closed-form defect against the exact integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam1,lam2,p1,p2,noise,rate",
    [
        (1.0, 2.0, 1.0, 5.0, 1.0, 0.8),
        (2.0, 1.0, 3.0, 1.0, 0.5, 0.6),
        (1.0, 1.0, 1.0, 5.0, 1.0, 0.5),
        (1.5, 0.7, 2.0, 3.0, 1.0, 1.0),
    ],
)
def test_theta_zero_deviation_equals_truncation_residual(lam1, lam2, p1, p2, noise, rate):
    tol = 1e-10
    q = make_query(rate=rate, p1=p1, p2=p2, noise=noise, lam1=lam1, lam2=lam2, theta=0.0)
    residual = closed_form_residual(lam1, lam2, q.weight1, q.weight2, q.gamma)
    # The residual formula itself is pre-verified against the convolution oracle.
    assert convolution_outage(lam1, lam2, q.weight1, q.weight2, q.gamma) - (
        outage_closed_form(q).value
    ) == pytest.approx(residual, abs=1e-12)
    got = outage_quadrature(q, tol=tol).value - outage_closed_form(q).value
    assert got == pytest.approx(residual, abs=10.0 * tol)


# ---------------------------------------------------------------------------
# Point-to-point outage
# ---------------------------------------------------------------------------


def test_point_to_point_zero_rate():
    assert outage_point_to_point(0.0, power=1.0, noise=1.0, lam=1.0) == 0.0


def test_point_to_point_exponential_median():
    # Choose R so that N*(2^(2R) - 1)/P = ln 2: outage is the median, 0.5.
    rate = 0.5 * math.log2(1.0 + math.log(2.0))
    assert outage_point_to_point(rate, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_point_to_point_direct_value_and_monte_carlo():
    got = outage_point_to_point(0.5, power=1.0, noise=1.0, lam=2.0)
    assert got == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    g = substream(21).exponential(scale=0.5, size=1_000_000)
    empirical = float(np.mean(g < 1.0))
    se = math.sqrt(got * (1.0 - got) / 1_000_000)
    assert abs(empirical - got) <= 3.29 * se


def test_point_to_point_validation():
    with pytest.raises(ValueError):
        outage_point_to_point(0.5, power=0.0, noise=1.0, lam=1.0)
    with pytest.raises(ValueError):
        outage_point_to_point(0.5, power=1.0, noise=1.0, lam=-1.0)


# ---------------------------------------------------------------------------
# Rate-axis queries and the vectorised first quadrature panel
# ---------------------------------------------------------------------------

# Unit noise: the closed form leaves [0, 1] at the small rates of the
# (1, 5) budget, and quadrature settles the small rates in the first panel
# and sends the larger ones through adaptive quadrature.
AXIS = (0.0, 0.05, 0.3, 0.75, 1.5, 2.5)


def test_gamma_threshold_tuple_equals_scalar_calls():
    rates = (0.0, 0.1, 0.30000000000000004, 1.7, 3.0)
    for noise in (1e-5, 1.0):
        got = gamma_threshold(rates, noise)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [gamma_threshold(r, noise) for r in rates]
    for bad_rates, noise in (((0.1, -0.1), 1.0), ((0.1, math.nan), 1.0), ((0.1,), 0.0)):
        with pytest.raises(ValueError):
            gamma_threshold(bad_rates, noise)


def test_tuple_query_is_hashable_and_validated():
    q = make_query(rate=(0.1, 0.2))
    assert q == make_query(rate=(0.1, 0.2))
    assert hash(q) == hash(make_query(rate=(0.1, 0.2)))
    assert q.rates == (0.1, 0.2)
    assert make_query(rate=0.1).rates == (0.1,)
    assert q.gamma.tolist() == [make_query(rate=r).gamma for r in (0.1, 0.2)]
    with pytest.raises(ValueError):
        make_query(rate=(0.1, -0.2))


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.7])
@pytest.mark.parametrize(
    "p1,p2", [(1.0, 5.0), (1.0, 1.0)], ids=["out-of-range-budget", "degenerate-budget"]
)
def test_tuple_query_equals_per_rate_scalar_calls(p1, p2, theta):
    curve = make_query(rate=AXIS, p1=p1, p2=p2, noise=1.0, theta=theta)
    points = [make_query(rate=r, p1=p1, p2=p2, noise=1.0, theta=theta) for r in AXIS]
    if p1 == p2:  # l2 - l1*P = 0 for the whole curve and at every point
        with pytest.raises(DegenerateDenominator):
            outage_closed_form(curve)
        for q in points:
            with pytest.raises(DegenerateDenominator):
                outage_closed_form(q)
    else:
        closed = outage_closed_form(curve)
        assert isinstance(closed, OutageCurve)
        assert list(closed) == [outage_closed_form(q) for q in points]
        assert any(e.flag == "out-of-range" for e in closed)
    quad = outage_quadrature(curve)
    assert isinstance(quad, OutageCurve) and len(quad) == len(AXIS)
    assert list(quad) == [outage_quadrature(q) for q in points]
    mc = outage_monte_carlo(curve, 2000, seed=4)
    assert list(mc) == [outage_monte_carlo(q, 2000, seed=4) for q in points]


def test_first_panel_matches_quadpack_first_step():
    from swmac.outage import _GK_NODES, _gauss_kronrod_panel

    for f, upper in (
        (lambda x: np.exp(-x) * np.sin(3.0 * x), 2.0),  # settled by the panel
        (lambda x: x**7 - 2.0 * x**3, 1.3),  # polynomial, degree below 31
        (lambda x: 1.0 / (1.0 + x * x), 5.0),  # needs subdivision
        (np.sqrt, 1.0),  # endpoint singularity
    ):
        with pytest.warns(integrate.IntegrationWarning):  # limit=1 stops after one panel
            first_step = integrate.quad(lambda x: float(f(x)), 0.0, upper, limit=1)
        _, _, info = integrate.quad(
            lambda x: float(f(x)), 0.0, upper, epsabs=1e-10, epsrel=1e-12, full_output=1
        )[:3]
        h = np.array([[0.5 * upper]])
        result, abserr, settled = _gauss_kronrod_panel(
            f(h + h * _GK_NODES), np.array([upper]), 1e-10
        )
        assert result[0] == pytest.approx(first_step[0], rel=1e-14)
        assert abserr[0] == pytest.approx(first_step[1], rel=1e-6)
        assert bool(settled[0]) == (info["neval"] == 21)


def _quadpack_reference(q, tol):
    a, b = q.weight1, q.weight2
    l1, l2 = q.marginals.lambda1, q.marginals.lambda2
    th, gamma = q.theta.theta, q.gamma

    def inner(d):
        c_star = (gamma - b * d) / a
        e = math.exp(-l2 * d)
        t = 2.0 * e - 1.0
        q1 = -math.expm1(-l1 * c_star)
        q2 = -math.expm1(-2.0 * l1 * c_star)
        return l2 * e * ((1.0 - th * t) * q1 + th * t * q2)

    return integrate.quad(inner, 0.0, gamma / b, epsabs=tol, epsrel=1e-12, limit=200)[0]


def test_first_panel_acceptance_compares_against_resasc():
    # gamma/B is about 8,800 and the mass sits near 0, so one 21-point panel
    # over [0, gamma/B] sees almost none of it.  QUADPACK rejects that panel
    # because its error estimate equals dqk21's resasc; testing against
    # resabs instead would accept a value near 3e-11.
    q = make_query(rate=5.55, p0=0.5, p1=4.0, p2=1.0, noise=2.0, lam1=0.5, lam2=1.5, theta=-1.0)
    assert q.gamma / q.weight2 == pytest.approx(8776.0, rel=1e-3)
    reference = _quadpack_reference(q, 1e-10)
    got = outage_quadrature(q, tol=1e-10).value
    assert got == pytest.approx(1.0, abs=1e-9)
    assert got == min(max(reference, 0.0), 1.0)


def test_rejected_first_panel_takes_the_quadpack_path(monkeypatch):
    calls = []
    quad = integrate.quad

    def spy(f, lo, hi, **kwargs):
        calls.append(hi)
        return quad(f, lo, hi, **kwargs)

    monkeypatch.setattr(integrate, "quad", spy)
    # At preset noise every rate is settled by the panel.
    preset = make_query(rate=tuple(r / 10 for r in range(1, 31)), noise=1e-5, theta=0.5)
    assert len(outage_quadrature(preset)) == 30
    assert calls == []
    # At unit noise R = 2.5 (gamma = 31, upper limit 6.2) is not settled.
    curve = make_query(rate=(0.05, 2.5), noise=1.0, theta=0.5)
    small, large = outage_quadrature(curve)
    assert calls == [pytest.approx(31.0 / 5.0)]
    point = make_query(rate=2.5, noise=1.0, theta=0.5)
    assert large.value == _quadpack_reference(point, 1e-10)
    reference = _quadpack_reference(make_query(rate=0.05, theta=0.5), 1e-10)
    assert small.value == pytest.approx(reference, rel=1e-13)


@_stalls
def test_nonconvergence_of_one_point_fails_the_curve():
    # The error estimate is met at R = 0.05 and missed at 7.8.
    outage_quadrature(_stalled_query(rate=0.05), tol=1e-13)
    with pytest.raises(QuadratureNonConvergence):
        outage_quadrature(_stalled_query(rate=7.8), tol=1e-13)
    with pytest.raises(QuadratureNonConvergence):
        outage_quadrature(_stalled_query(rate=(0.05, 7.8)), tol=1e-13)


@pytest.mark.parametrize("theta", [0.0, 0.5, -1.0])
def test_quadrature_keeps_the_mass_when_the_upper_limit_is_huge(theta, monkeypatch):
    # gamma/B up to 2e23 at unit noise: one panel over [0, gamma/B] puts no
    # node where g2 ~ Exp(1) has its mass and used to return about 0,
    # flagged ok.  With B << A the upper limit is long although the outage
    # is far from 1; both must take adaptive quadrature split at 40/lambda2.
    calls = []
    quad = integrate.quad

    def spy(f, lo, hi, **kwargs):
        calls.append(kwargs["points"])
        return quad(f, lo, hi, **kwargs)

    monkeypatch.setattr(integrate, "quad", spy)
    huge = make_query(rate=(10.0, 20.0, 40.0), noise=1.0, theta=theta)
    got = outage_quadrature(huge).value.tolist()
    expected = [fgm_outage(1.0, 1.0, 1.0, 5.0, g, theta) for g in huge.gamma.tolist()]
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx([1.0] * 3, abs=1e-10)
    long_axis = make_query(rate=(0.3, 0.5, 1.0), p2=1e-3, noise=1.0, lam2=0.5, theta=theta)
    got = outage_quadrature(long_axis).value.tolist()
    expected = [fgm_outage(1.0, 0.5, 1.0, 1e-3, g, theta) for g in long_axis.gamma.tolist()]
    assert got == pytest.approx(expected, abs=1e-10)
    assert 0.3 < got[0] < got[-1] < 0.99
    assert calls == [(40.0,)] * 3 + [(80.0,)] * 3


# ---------------------------------------------------------------------------
# Theta-axis queries
# ---------------------------------------------------------------------------

# Unit noise, (p1, p2) = (1, 5): R = 3 puts gamma/A above 40/lambda1 (the
# g1 drop split) and R = 10 puts gamma/B beyond the 40/lambda2 split.
THETA_AXIS_RATES = (0.05, 0.75, 2.5, 3.0, 10.0)


def _as_estimates(result):
    """A curve as its per-rate estimates; an estimate as itself."""
    return list(result) if isinstance(result, OutageCurve) else result


@pytest.mark.parametrize("rate", [THETA_AXIS_RATES, 0.75], ids=["rate-tuple", "float-rate"])
def test_theta_tuple_query_equals_one_theta_queries(rate):
    thetas = tuple(DependenceParameter(t) for t in (-1.0, 0.0, 1.0, 0.0))  # 0 repeated
    grid = replace(make_query(rate=rate, noise=1.0), theta=thetas)
    assert grid.thetas == thetas
    one_theta = [replace(grid, theta=t) for t in thetas]
    assert [q.thetas for q in one_theta] == [(t,) for t in thetas]
    for evaluate in (outage_closed_form, outage_quadrature, lambda q: outage_monte_carlo(q, 2000, 4)):
        got = evaluate(grid)
        # one curve with a theta axis first, then a rate axis for a rate tuple
        assert isinstance(got, OutageCurve) and len(got) == len(thetas)
        assert got.value.shape == (len(thetas),) + ((len(rate),) if isinstance(rate, tuple) else ())
        expected = [evaluate(q) for q in one_theta]
        assert [type(e) for e in got] == [type(e) for e in expected]
        assert [_as_estimates(e) for e in got] == [_as_estimates(e) for e in expected]
        # a one-theta tuple is the length-1 case of the same evaluation
        assert [_as_estimates(e) for e in evaluate(replace(grid, theta=thetas[1:2]))] == [
            _as_estimates(expected[1])
        ]


@_stalls
def test_nonconvergence_of_one_theta_fails_the_theta_tuple():
    # At R = 7.8, theta = 0.5 converges and theta = -1 does not.
    point = _stalled_query(rate=(0.05, 7.8))
    outage_quadrature(replace(point, theta=(DependenceParameter(0.5),)), tol=1e-13)
    both = replace(point, theta=(DependenceParameter(0.5), DependenceParameter(-1.0)))
    with pytest.raises(QuadratureNonConvergence):
        outage_quadrature(both, tol=1e-13)


@_stalls
@pytest.mark.parametrize("rate", [(0.05, 7.8), 7.8], ids=["rate-tuple", "float-rate"])
def test_nonconvergence_marks_the_failing_points(rate):
    # Every point is evaluated before the raise; the exception holds the
    # (theta, rate) grid of values and marks the points that failed, which
    # are exactly those whose one-point query raises.
    thetas = (DependenceParameter(0.5), DependenceParameter(-1.0))
    grid = replace(_stalled_query(rate=rate), theta=thetas)
    with pytest.raises(QuadratureNonConvergence, match="theta=-1.0") as info:
        outage_quadrature(grid, tol=1e-13)
    exc = info.value
    rates = grid.rates
    assert exc.value.shape == exc.failed.shape == (len(thetas), len(rates))
    for t_i, theta in enumerate(thetas):
        for r_i, r in enumerate(rates):
            point = replace(grid, rate_threshold=r, theta=theta)
            if exc.failed[t_i, r_i]:
                with pytest.raises(QuadratureNonConvergence):
                    outage_quadrature(point, tol=1e-13)
            else:
                assert exc.value[t_i, r_i] == outage_quadrature(point, tol=1e-13).value
    assert exc.failed[1, -1] and not exc.failed[0].any()


# ---------------------------------------------------------------------------
# The sharp drop of P[g1 <= c*] just below g2 = gamma/B
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam1,lam2,a,b,theta,rate,parent_error",
    [
        (7.03, 0.20, 0.256, 9.36, -0.36, 4.0, 2.75e-6),
        (2.0, 0.3, 1.0, 10.0, -1.0, 4.42, 6.6e-9),
    ],
)
def test_quadrature_resolves_the_g1_drop_below_the_upper_limit(
    lam1, lam2, a, b, theta, rate, parent_error
):
    # P[g1 <= (gamma - B*g2)/A] falls from about 1 to 0 over a width of
    # about A/(lambda1*B) just below g2 = gamma/B.  One 21-node panel over
    # [0, gamma/B] stepped over that drop and was accepted, off by
    # ``parent_error``; splitting where the g1 range is 40/lambda1 fixes it.
    q = make_query(rate=rate, p1=a, p2=b, lam1=lam1, lam2=lam2, theta=theta)
    assert lam1 * q.gamma / a > 40.0
    exact = fgm_outage(lam1, lam2, a, b, q.gamma, theta)
    assert outage_quadrature(q).value == pytest.approx(exact, abs=1e-10)
    assert parent_error > 10 * 1e-10


def test_quadrature_scan_against_the_four_term_oracle():
    # 50 seeded draws of (lambda, A, B) where the drop is narrow (lambda1
    # and B in [1, 10], lambda2 and A in [0.1, 1]), each queried at 2 thetas
    # and 2 rates with gamma*lambda2/B in [4, 15], where the panel used to
    # miss it: 200 points.  Without the split, 22 to 41 of 200 such points
    # missed the oracle by more than 10*tol (seeds 0-4).
    rng = np.random.default_rng(20261018)
    tol = 1e-10
    worst, drops = 0.0, 0
    for _ in range(50):
        lam1, b = np.exp(rng.uniform(0.0, math.log(10.0), 2)).tolist()
        lam2, a = np.exp(rng.uniform(math.log(0.1), 0.0, 2)).tolist()
        thetas = tuple(DependenceParameter(t) for t in rng.uniform(-1.0, 1.0, 2).tolist())
        gammas = (np.exp(rng.uniform(math.log(4.0), math.log(15.0), 2)) * b / lam2).tolist()
        rates = tuple(0.5 * math.log2(g + 1.0) for g in gammas)
        q = OutageQuery(rates, PowerBudget(0.0, a, b, 1.0), FadingMarginals(lam1, lam2), thetas)
        for theta, curve in zip(thetas, outage_quadrature(q, tol=tol)):
            for g, value in zip(q.gamma.tolist(), curve.value.tolist()):
                worst = max(worst, abs(value - fgm_outage(lam1, lam2, a, b, g, theta.theta)))
                drops += lam1 * g / a > 40.0
    assert worst <= 10 * tol
    assert drops >= 150
