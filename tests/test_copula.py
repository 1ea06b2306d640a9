import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from swmac import (
    DependenceParameter,
    FadingMarginals,
    GainPair,
    UnitPair,
    conditional_cdf,
    copula_cdf,
    copula_density,
    joint_gain_pdf,
    sample_gain_pairs,
    sample_unit_pairs,
)
from swmac.copula import iter_gain_pair_chunks
from swmac.streams import substream

from oracles import empirical_spearman, pearson_corr_target, spearman_rho_target

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
thetas_strategy = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1.001, 1.5, 2.0, float("nan"), float("inf")])
def test_dependence_parameter_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        DependenceParameter(bad)


@pytest.mark.parametrize("good", [-1.0, -0.5, 0.0, 0.3, 1.0])
def test_dependence_parameter_accepts_range(good):
    assert DependenceParameter(good).theta == good


@pytest.mark.parametrize("u1,u2", [(-0.1, 0.5), (0.5, 1.2), (float("nan"), 0.5)])
def test_unit_pair_rejects_out_of_range(u1, u2):
    with pytest.raises(ValueError):
        UnitPair(u1, u2)


@pytest.mark.parametrize(
    "l1,l2", [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf"))]
)
def test_marginals_reject_nonpositive_rates(l1, l2):
    with pytest.raises(ValueError):
        FadingMarginals(l1, l2)


def test_marginals_from_sigmas_exact():
    m = FadingMarginals.from_sigmas(0.5, 0.25)
    assert m.lambda1 == 1.0
    assert m.lambda2 == 2.0
    with pytest.raises(ValueError):
        FadingMarginals.from_sigmas(0.0, 0.5)


def test_gain_pair_rejects_negative():
    with pytest.raises(ValueError):
        GainPair(-0.1, 1.0)
    assert GainPair(0.0, 0.0).g1 == 0.0


# ---------------------------------------------------------------------------
# copula_cdf
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,u1,u2,expected",
    [
        (0.7, 1.0, 0.3, 0.3),  # boundary C(1, u2) = u2
        (0.0, 0.4, 0.5, 0.2),  # independence
        (1.0, 0.5, 0.5, 0.3125),  # 0.25*(1 + 0.25)
    ],
)
def test_copula_cdf_examples(theta, u1, u2, expected):
    assert copula_cdf(DependenceParameter(theta), UnitPair(u1, u2)) == pytest.approx(
        expected, abs=1e-15
    )


@given(thetas_strategy, probabilities)
def test_copula_groundedness_and_margins(theta_value, u):
    th = DependenceParameter(theta_value)
    assert copula_cdf(th, UnitPair(u, 0.0)) == 0.0
    assert copula_cdf(th, UnitPair(0.0, u)) == 0.0
    assert copula_cdf(th, UnitPair(u, 1.0)) == u
    assert copula_cdf(th, UnitPair(1.0, u)) == u


@given(thetas_strategy, probabilities, probabilities)
def test_copula_cdf_in_unit_interval(theta_value, u1, u2):
    c = copula_cdf(DependenceParameter(theta_value), UnitPair(u1, u2))
    assert 0.0 <= c <= 1.0


@settings(max_examples=300)
@given(
    thetas_strategy,
    probabilities,
    probabilities,
    probabilities,
    probabilities,
)
def test_rectangle_inequality(theta_value, x1, x2, y1, y2):
    a1, b1 = sorted((x1, x2))
    a2, b2 = sorted((y1, y2))
    th = DependenceParameter(theta_value)
    volume = (
        copula_cdf(th, UnitPair(b1, b2))
        - copula_cdf(th, UnitPair(a1, b2))
        - copula_cdf(th, UnitPair(b1, a2))
        + copula_cdf(th, UnitPair(a1, a2))
    )
    assert volume >= -1e-15


# ---------------------------------------------------------------------------
# copula_density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,u1,u2,expected",
    [
        (1.0, 0.5, 0.9, 1.0),  # (1 - 2*0.5) kills the theta term
        (0.0, 0.1, 0.8, 1.0),
        (-1.0, 0.0, 0.0, 0.0),
    ],
)
def test_copula_density_examples(theta, u1, u2, expected):
    assert copula_density(DependenceParameter(theta), UnitPair(u1, u2)) == pytest.approx(
        expected, abs=1e-15
    )


@given(thetas_strategy, probabilities, probabilities)
def test_copula_density_nonnegative_on_closed_square(theta_value, u1, u2):
    assert copula_density(DependenceParameter(theta_value), UnitPair(u1, u2)) >= 0.0


def test_density_matches_mixed_second_difference_of_cdf(theta):
    h = 1e-5
    grid = np.linspace(0.1, 0.9, 9)
    for u1 in grid:
        for u2 in grid:
            numeric = (
                copula_cdf(theta, UnitPair(u1 + h, u2 + h))
                - copula_cdf(theta, UnitPair(u1 + h, u2 - h))
                - copula_cdf(theta, UnitPair(u1 - h, u2 + h))
                + copula_cdf(theta, UnitPair(u1 - h, u2 - h))
            ) / (4.0 * h * h)
            assert numeric == pytest.approx(
                copula_density(theta, UnitPair(u1, u2)), abs=1e-6
            )


def test_density_integrates_to_one(theta):
    total, err = integrate.dblquad(
        lambda v, u: copula_density(theta, UnitPair(u, v)), 0, 1, 0, 1, epsabs=1e-12
    )
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# conditional_cdf and sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta,u1", [(-1.0, 0.0), (0.3, 0.99), (1.0, 0.5)])
def test_conditional_cdf_boundaries(theta, u1):
    th = DependenceParameter(theta)
    assert conditional_cdf(th, u1, 1.0) == 1.0
    assert conditional_cdf(th, u1, 0.0) == 0.0


def test_conditional_cdf_examples():
    assert conditional_cdf(DependenceParameter(0.0), 0.3, 0.6) == pytest.approx(0.6)
    assert conditional_cdf(DependenceParameter(1.0), 0.0, 0.5) == pytest.approx(0.75)


@given(thetas_strategy, probabilities, probabilities, probabilities)
def test_conditional_cdf_monotone_in_u2(theta_value, u1, x, y):
    lo, hi = sorted((x, y))
    th = DependenceParameter(theta_value)
    assert conditional_cdf(th, u1, lo) <= conditional_cdf(th, u1, hi) + 1e-15


@settings(max_examples=300)
@given(thetas_strategy, probabilities, probabilities)
def test_sampler_inversion_round_trip(theta_value, u1, v):
    from swmac.copula import _invert_conditional

    th = DependenceParameter(theta_value)
    u2 = float(_invert_conditional(theta_value, u1, v))
    assert 0.0 <= u2 <= 1.0
    assert conditional_cdf(th, u1, u2) == pytest.approx(v, abs=1e-12)


def _invert_conditional_reference(theta, u1, v):
    # Frozen copy of the sampler's original allocating expression.
    u1 = np.asarray(u1, dtype=float)
    v = np.asarray(v, dtype=float)
    a = theta * (1.0 - 2.0 * u1)
    disc = (1.0 + a) * (1.0 + a) - 4.0 * a * v
    den = (1.0 + a) + np.sqrt(np.maximum(disc, 0.0))
    u2 = np.where(den > 0.0, 2.0 * v / np.where(den > 0.0, den, 1.0), 0.0)
    return np.clip(u2, 0.0, 1.0)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("theta_value", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_invert_conditional_bitwise_matches_reference_expression(theta_value):
    from swmac.copula import _invert_conditional

    rng = np.random.default_rng(17)
    # Random interior points plus every combination of the edges
    # u1 in {0, 0.5, 1} and v in {0, 1}; at theta = +-1 these include the
    # (a, v) = (-1, 0) root where the conjugate denominator vanishes.
    edges_u1, edges_v = np.meshgrid([0.0, 0.5, 1.0], [0.0, 1.0])
    u1 = np.concatenate([rng.random(10_000), edges_u1.ravel()])
    v = np.concatenate([rng.random(10_000), edges_v.ravel()])
    got = _invert_conditional(theta_value, u1, v)
    want = _invert_conditional_reference(theta_value, u1, v)
    assert np.array_equal(_bits(got), _bits(want))
    # Strided column views, as the sampler passes them.
    w = np.column_stack((u1, v))
    assert np.array_equal(_bits(_invert_conditional(theta_value, w[:, 0], w[:, 1])), _bits(want))


@pytest.mark.parametrize("theta_value", [-1.0, 1.0])
def test_invert_conditional_denominator_root(theta_value):
    from swmac.copula import _invert_conditional

    # a = theta*(1 - 2*u1) = -1 needs u1 = 0 at theta = -1, u1 = 1 at theta = 1.
    u1 = 0.0 if theta_value < 0 else 1.0
    assert float(_invert_conditional(theta_value, u1, 0.0)) == 0.0
    assert float(_invert_conditional_reference(theta_value, u1, 0.0)) == 0.0


def test_sample_gain_pairs_bitwise_matches_reference_composition(theta):
    marginals = FadingMarginals(0.7, 2.5)
    n = 5000
    w = substream(23).random((n, 2))
    u2 = _invert_conditional_reference(theta.theta, w[:, 0], w[:, 1])
    want = np.column_stack(
        (-np.log1p(-w[:, 0]) / marginals.lambda1, -np.log1p(-u2) / marginals.lambda2)
    )
    got = sample_gain_pairs(theta, marginals, n, substream(23))
    assert got.shape == (n, 2)
    assert np.array_equal(_bits(got), _bits(want))


def test_sample_unit_pair_consumes_two_draws_and_matches_vector_path():
    th = DependenceParameter(0.7)
    scalar_rng = substream(11)
    singles = [sample_unit_pairs(th, 1, scalar_rng) for _ in range(5)]
    block = sample_unit_pairs(th, 5, substream(11))
    assert np.array_equal(np.concatenate(singles), block)


def test_sampled_round_trip_recovers_uniform_exactly():
    th = DependenceParameter(-0.8)
    rng = substream(3)
    w = rng.random((2000, 2))
    u = sample_unit_pairs(th, 2000, substream(3))
    for (u1, v), (s1, s2) in zip(w, u):
        assert s1 == u1
        assert conditional_cdf(th, s1, s2) == pytest.approx(v, abs=1e-12)


def test_sampler_marginals_uniform_ks():
    u = sample_unit_pairs(DependenceParameter(0.9), 100_000, substream(123))
    for col in (0, 1):
        stat = stats.kstest(u[:, col], "uniform")
        assert stat.pvalue > 1e-3


def test_sampler_independence_at_theta_zero():
    u = sample_unit_pairs(DependenceParameter(0.0), 1_000_000, substream(5))
    rho = empirical_spearman(u[:, 0], u[:, 1])
    assert rho == pytest.approx(0.0, abs=0.01)


@pytest.mark.parametrize("theta_value", [0.9, -1.0])
def test_sampler_spearman_matches_oracle(theta_value):
    target = spearman_rho_target(theta_value)
    assert target == pytest.approx(theta_value / 3.0, abs=1e-9)
    u = sample_unit_pairs(DependenceParameter(theta_value), 1_000_000, substream(17))
    rho = empirical_spearman(u[:, 0], u[:, 1])
    assert rho == pytest.approx(target, abs=0.01)


# ---------------------------------------------------------------------------
# Gain pairs
# ---------------------------------------------------------------------------


def test_gain_sample_matches_unit_sample_through_quantile(unit_marginals):
    th = DependenceParameter(0.4)
    u = sample_unit_pairs(th, 100, substream(29))
    g = sample_gain_pairs(th, unit_marginals, 100, substream(29))
    np.testing.assert_array_equal(g, -np.log1p(-u))


def test_gain_mean_independent_case(unit_marginals):
    g = sample_gain_pairs(DependenceParameter(0.0), unit_marginals, 1_000_000, substream(7))
    assert g[:, 0].mean() == pytest.approx(1.0, abs=0.01)
    assert g[:, 1].mean() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("theta_value,expected", [(1.0, 0.25), (-1.0, -0.25)])
def test_gain_pearson_matches_oracle(unit_marginals, theta_value, expected):
    target = pearson_corr_target(theta_value, 1.0, 1.0)
    assert target == pytest.approx(expected, abs=1e-6)
    g = sample_gain_pairs(
        DependenceParameter(theta_value), unit_marginals, 1_000_000, substream(19)
    )
    r = float(np.corrcoef(g[:, 0], g[:, 1])[0, 1])
    assert r == pytest.approx(target, abs=0.01)


def test_chunked_sampler_is_traversal_invariant(unit_marginals):
    th = DependenceParameter(0.5)
    chunks = list(iter_gain_pair_chunks(th, unit_marginals, 200_000, 99))
    again = list(iter_gain_pair_chunks(th, unit_marginals, 200_000, 99))
    for a, b in zip(reversed(chunks), reversed(again)):
        np.testing.assert_array_equal(a, b)
    assert sum(len(c) for c in chunks) == 200_000


# ---------------------------------------------------------------------------
# Joint PDF
# ---------------------------------------------------------------------------


def test_joint_gain_pdf_examples(unit_marginals):
    assert joint_gain_pdf(DependenceParameter(0.0), unit_marginals, GainPair(0, 0)) == 1.0
    assert joint_gain_pdf(DependenceParameter(1.0), unit_marginals, GainPair(0, 0)) == 2.0


def test_joint_gain_pdf_independent_factorizes_exactly():
    m = FadingMarginals(0.7, 2.2)
    th0 = DependenceParameter(0.0)
    for g1, g2 in [(0.3, 1.1), (2.0, 0.05)]:
        expected = (0.7 * math.exp(-0.7 * g1)) * (2.2 * math.exp(-2.2 * g2))
        assert joint_gain_pdf(th0, m, GainPair(g1, g2)) == expected


def test_joint_gain_pdf_integrates_to_one(theta):
    m = FadingMarginals(1.0, 2.0)
    total, _ = integrate.dblquad(
        lambda d, c: joint_gain_pdf(theta, m, GainPair(c, d)),
        0,
        80.0,
        0,
        40.0,
        epsabs=1e-12,
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_pdf_integral_reproduces_joint_cdf(theta):
    m = FadingMarginals(1.5, 0.8)
    for g1, g2 in [(0.5, 1.0), (2.0, 0.4)]:
        box, _ = integrate.dblquad(
            lambda d, c: joint_gain_pdf(theta, m, GainPair(c, d)),
            0,
            g1,
            0,
            g2,
            epsabs=1e-12,
        )
        u = UnitPair(-math.expm1(-m.lambda1 * g1), -math.expm1(-m.lambda2 * g2))
        assert box == pytest.approx(copula_cdf(theta, u), abs=1e-8)
