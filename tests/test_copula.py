import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    sample_gain_pairs,
    sample_unit_pairs,
)
from swmac.copula import _uniform_blocks, iter_gain_pair_chunks
from swmac.streams import BLOCK_SIZE, substream

from oracles import empirical_spearman, gain_density, pearson_corr_target, spearman_rho_target

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


@pytest.mark.parametrize("g1, g2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)])
def test_gain_pair_rejects_non_finite(g1, g2):
    with pytest.raises(ValueError, match="must be finite"):
        GainPair(g1, g2)
    assert GainPair(1e308, 1e308).g1 == 1e308


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


def _log_uniform_probability():
    # log-uniform down to 1e-300, and the same distances below 1
    tiny = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
    return st.one_of(tiny, tiny.map(lambda x: 1.0 - x), st.sampled_from([0.0, 0.5, 1.0]))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    theta=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), thetas_strategy),
    u1=_log_uniform_probability(),
    u2=_log_uniform_probability(),
)
# u2*(1 + theta*(1 - 2*u1)*(1 - u2)) rounds this one to 0.0, not 5.44e-119
@example(theta=-1.0, u1=1.86e-197, u2=7.38e-60)
def test_conditional_cdf_is_exact_to_4_ulp_against_rationals(theta, u1, u2):
    # The same float inputs in exact rational arithmetic; a result of at
    # least 1e-290 is within 4 ulp relative however small it is, at
    # theta = -1 too, where u2*(1 - (1 - 2*u1)*(1 - u2)) would cancel.
    th, x, y = Fraction(theta), Fraction(u1), Fraction(u2)
    exact = y * (1 + th * (1 - 2 * x) * (1 - y))
    got = conditional_cdf(DependenceParameter(theta), u1, u2)
    if exact >= Fraction(1e-290):
        assert abs(Fraction(got) - exact) <= 4 * Fraction(2.0**-52) * exact, (got, float(exact))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(u=_log_uniform_probability(), p=_log_uniform_probability())
def test_conditional_parts_are_nonnegative_and_bracket_the_law(u, p):
    # (L0, L+, L-) do not depend on theta; every theta's law is a convex
    # combination of L0 and one of the others, so it lies between them
    from swmac.copula import _at_theta, _conditional_parts

    parts = [float(x) for x in _conditional_parts(u, p, 1.0 - p)]
    assert min(parts) >= 0.0
    assert parts[0] == u
    for theta in (-1.0, -0.35, 0.0, 0.6, 1.0):
        law = float(_at_theta(theta, *parts))
        assert law == conditional_cdf(DependenceParameter(theta), p, u)
        pair = (parts[0], parts[1 if theta >= 0.0 else 2])
        assert min(pair) * (1 - 1e-15) <= law <= max(pair) * (1 + 1e-15)


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


def _plain_inversion(theta, u1, v):
    # The conditional inversion as one plain expression, evaluated left to
    # right in Python floats: the oracle of the split kernel.
    a = theta * (1.0 - 2.0 * u1)
    disc = (1.0 + a) * (1.0 + a) - 4.0 * a * v
    den = (1.0 + a) + math.sqrt(max(disc, 0.0))
    return min(2.0 * v / den, 1.0) if den > 0.0 else 0.0


_BELOW_ONE = 1.0 - 2.0**-53
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
split_thetas = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1e-310, -5e-324]), thetas_strategy)
split_u1 = st.one_of(st.sampled_from([0.0, 0.5, _BELOW_ONE]), unit_open)
split_v = st.one_of(st.sampled_from([0.0, 5e-324, _BELOW_ONE]), unit_open)


@settings(max_examples=300)
@given(split_thetas, st.lists(st.tuples(split_u1, split_v), min_size=1, max_size=20))
def test_split_inversion_kernel_is_bit_identical_to_the_plain_expression(theta_value, points):
    # The theta-free prelude (1 - 2*u1, 4*v, 2*v) plus the per-theta step
    # into caller buffers equals the plain expression bit for bit: scaling
    # by 4 is exact, so a*(4*v) rounds as (4*a)*v does.  theta = 1e-310
    # makes a subnormal a; theta = +-1 with u1 at 0 or 1 and v = 0 is the
    # zero-denominator root.
    from swmac.copula import _inversion_prelude, _inversion_step

    u1, v = np.array(points).T
    prelude = _inversion_prelude(u1, v)
    out, a, den = np.full((3, len(u1)), np.nan)
    got = _inversion_step(theta_value, prelude, out, a, den)
    assert got is out
    want = np.array([_plain_inversion(theta_value, x, y) for x, y in points])
    assert np.array_equal(_bits(got), _bits(want))


def test_sample_unit_pairs_bitwise_matches_the_plain_expression(theta):
    w = substream(29).random((5000, 2))
    want = [(u1, _plain_inversion(theta.theta, u1, v)) for u1, v in w.tolist()]
    got = sample_unit_pairs(theta, 5000, substream(29))
    assert np.array_equal(_bits(got), _bits(np.array(want)))


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


@pytest.mark.parametrize("n", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * (1 << 16) + 4099])
def test_chunked_sampler_blocks_equal_whole_chunk_draws(unit_marginals, n):
    # The blocks of any increasing, strided range of block indices are the
    # same rows of one substream(seed, 0) draw of all n pairs.
    th, seed = DependenceParameter(-0.7), 31
    whole = sample_gain_pairs(th, unit_marginals, n, substream(seed, 0))
    count = -(-n // BLOCK_SIZE)
    for stride in (1, 2, 3, 17):
        for offset in range(min(stride, count)):
            indices = range(offset, count, stride)
            blocks = list(iter_gain_pair_chunks(th, unit_marginals, n, seed, indices))
            assert len(blocks) == len(indices)
            for b, block in zip(indices, blocks):
                np.testing.assert_array_equal(block, whole[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE])


@pytest.mark.parametrize(
    "n", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 70_000, 200_000]
)
def test_strided_blocks_equal_the_same_rows_of_the_whole_draw(n):
    whole = list(_uniform_blocks(n, 17))
    for stride in (1, 2, 3):
        for offset in range(stride):
            strided = list(_uniform_blocks(n, 17, range(offset, len(whole), stride)))
            expected = whole[offset::stride]
            assert len(strided) == len(expected)
            for got, want in zip(strided, expected):
                np.testing.assert_array_equal(got, want)



@pytest.mark.parametrize("seed", [-5, 2**64])
def test_a_seed_outside_64_bits_raises_on_the_call_not_at_the_first_draw(unit_marginals, seed):
    # the generators are lazy, but their arguments are checked when they are
    # made, by the one seed rule of streams
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
        iter_gain_pair_chunks(DependenceParameter(0.0), unit_marginals, 10, seed)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
        _uniform_blocks(10, seed)


@pytest.mark.parametrize(
    "blocks", [range(7, 9), range(3, 0, -1), range(-1, 2)],
    ids=["past-the-draw", "decreasing", "negative-start"],
)
def test_a_block_range_outside_the_draw_raises_on_the_call(unit_marginals, blocks):
    # n = 5*BLOCK_SIZE pairs have blocks 0..4: a range past them raised
    # numpy's "negative dimensions" at the first draw, and a decreasing one
    # or one from a negative index advanced the generator backwards
    with pytest.raises(ValueError, match=r"blocks must be an increasing range inside range\(5\)"):
        iter_gain_pair_chunks(DependenceParameter(0.3), unit_marginals, 5 * BLOCK_SIZE, 11, blocks)


def test_an_empty_block_range_draws_nothing(unit_marginals):
    theta = DependenceParameter(0.3)
    for n in (0, 5 * BLOCK_SIZE):
        assert list(iter_gain_pair_chunks(theta, unit_marginals, n, 11, range(0))) == []


# ---------------------------------------------------------------------------
# Joint PDF
# ---------------------------------------------------------------------------


def test_joint_pdf_integral_reproduces_joint_cdf(theta):
    # the joint gain density, written out in full, integrates over a box to
    # the copula CDF at the marginal CDFs of its corner
    m = FadingMarginals(1.5, 0.8)
    for g1, g2 in [(0.5, 1.0), (2.0, 0.4)]:
        box, _ = integrate.dblquad(
            lambda d, c: gain_density(c, d, theta.theta, m.lambda1, m.lambda2),
            0,
            g1,
            0,
            g2,
            epsabs=1e-12,
        )
        u = UnitPair(-math.expm1(-m.lambda1 * g1), -math.expm1(-m.lambda2 * g2))
        assert box == pytest.approx(copula_cdf(theta, u), abs=1e-8)
