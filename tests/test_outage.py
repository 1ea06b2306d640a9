import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from swmac import (
    CLOSED_FORM,
    METHODS,
    MONTE_CARLO,
    QUADRATURE,
    DependenceParameter,
    FadingMarginals,
    OutageCurve,
    PowerBudget,
    gamma_threshold,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from swmac.cli import main
from swmac.config import ExperimentConfig, RateGrid, ValidationError, preset_config
from swmac.outage import CHUNK_SIZE
from swmac.streams import BLOCK_SIZE
from swmac.sweep import run_outage_sweep

from mixture import mixture_gain_pairs
from oracles import (
    brute_force_outage,
    closed_form_residual,
    convolution_outage,
    decimal_outage,
    fgm_outage,
)


class Grid(NamedTuple):
    """The grid arguments every evaluator takes: ``outage_closed_form(*g)``."""

    thetas: tuple
    marginals: FadingMarginals
    budgets: tuple
    rates: tuple


def make_grid(rates=(0.5,), p0=0.0, p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=1.0, thetas=(0.0,)):
    """A one-budget grid."""
    return Grid(
        tuple(DependenceParameter(t) for t in thetas),
        FadingMarginals(lam1, lam2),
        (PowerBudget(p0, p1, p2, noise),),
        rates,
    )


def weights(g):
    """The gain weights (A, B) of the one budget of ``g``."""
    (budget,) = g.budgets
    return budget.p1 - budget.p0, budget.p2 - budget.p0


def gammas(g):
    """The thresholds of the one budget of ``g``, one per rate."""
    (budget,) = g.budgets
    return gamma_threshold(g.rates, budget.noise)


# ---------------------------------------------------------------------------
# gamma_threshold and grid plumbing
# ---------------------------------------------------------------------------


def test_gamma_threshold_examples():
    assert gamma_threshold((0.0,), 123.0).tolist() == [0.0]
    assert gamma_threshold((1.0,), 1e-5) == pytest.approx([3e-5], rel=1e-15)
    assert gamma_threshold((0.5,), 1.0) == pytest.approx([1.0], rel=1e-15)


def test_gamma_threshold_strictly_increasing():
    gammas = gamma_threshold(tuple(np.linspace(0.0, 3.0, 31).tolist()), 1.0)
    assert (np.diff(gammas) > 0.0).all()


def test_gamma_threshold_validation():
    with pytest.raises(ValueError):
        gamma_threshold((-0.1,), 1.0)
    with pytest.raises(ValueError):
        gamma_threshold((1.0,), 0.0)


@pytest.mark.parametrize(
    "rate, noise",
    [(600.0, 1.0), (14.0, 1e300)],
    ids=["power-overflow", "product-overflow"],
)
def test_gamma_threshold_rejects_non_finite_gamma(rate, noise):
    # 2^1200 overflows in pow; 1e300*(2^28 - 1) overflows in the product.
    with pytest.raises(ValueError, match="overflows"):
        gamma_threshold((rate,), noise)
    with pytest.raises(ValueError, match="overflows"):
        gamma_threshold((0.5, rate), noise)
    assert np.isfinite(gamma_threshold((0.5,), noise)).all()


def test_query_rejects_common_power_reaching_either_cap():
    for evaluate in (outage_closed_form, outage_quadrature):
        with pytest.raises(ValueError):
            evaluate(*make_grid(p0=1.0, p1=1.0, p2=5.0))
        with pytest.raises(ValueError):
            evaluate(*make_grid(rates=(-0.5,)))


def test_query_derived_quantities():
    # the per-budget terms every evaluator reads, one row per budget
    from swmac.outage import _budget_axes

    budgets = (PowerBudget(0.5, 1.0, 5.0, 1e-5), PowerBudget(0.0, 2.0, 1.0, 1.0))
    a, b, gamma = _budget_axes(budgets, (1.0, 0.5))
    assert (a.tolist(), b.tolist()) == ([[0.5], [2.0]], [[4.5], [1.0]])
    assert (b / a)[0, 0] == 9.0
    assert gamma[0] == pytest.approx([3e-5, 1e-5], rel=1e-15)
    assert gamma[1].tolist() == [3.0, 1.0]
    assert [x.shape for x in _budget_axes((), (1.0, 0.5))] == [(0, 1), (0, 1), (0, 2)]


@pytest.mark.parametrize("bad", [1.2, math.nan])
@pytest.mark.parametrize("shape", [(1, 1), (2,)], ids=["1x1", "grid"])
def test_curve_rejects_an_unmarked_value_outside_the_unit_interval(shape, bad):
    value = np.full(shape, 0.5)
    value.flat[-1] = bad
    with pytest.raises(ValueError, match="unmarked estimates must be in"):
        OutageCurve(value, np.zeros(shape, dtype=bool))


@pytest.mark.parametrize(
    "shape, mask",
    [((1, 1), "out_of_range"), ((2,), "out_of_range"), ((1, 1), "failed"), ((2,), "failed")],
    ids=["1x1", "grid", "1x1-failed", "grid-failed"],
)
def test_curve_accepts_a_marked_value_outside_the_unit_interval(shape, mask):
    value = np.full(shape, 0.5)
    value.flat[0] = -0.25
    marked = np.zeros(shape, dtype=bool)
    marked.flat[0] = True
    masks = {"out_of_range": np.zeros(shape, dtype=bool), "failed": None, mask: marked}
    curve = OutageCurve(value, **masks)
    assert curve.value.flat[0] == -0.25 and getattr(curve, mask).flat[0]
    assert not (curve.out_of_range | curve.failed).flat[1:].any()
    assert curve.std_error is None


@pytest.mark.parametrize("shape", [(1, 1), (2,)], ids=["1x1", "grid"])
def test_curve_rejects_a_negative_std_error(shape):
    std_error = np.full(shape, 0.1)
    std_error.flat[-1] = -0.1
    with pytest.raises(ValueError, match="std_error must be >= 0"):
        OutageCurve(np.full(shape, 0.5), np.zeros(shape, dtype=bool), std_error)
    # the rule holds for a marked value too
    with pytest.raises(ValueError, match="std_error must be >= 0"):
        OutageCurve(np.full(shape, 0.5), np.ones(shape, dtype=bool), std_error)


# p0 equal to the smaller cap, on either side: one weight is then zero.
_BOUNDARY_BUDGETS = {
    "p0=p1": PowerBudget(1.0, 1.0, 5.0, 1.0),
    "p0=p2": PowerBudget(2.0, 3.0, 2.0, 1.0),
}


def _analytic_entry(budget, tmp_path):
    # the rule holds for every budget, not only the first
    grid = make_grid()._replace(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), budget))
    for evaluate in (outage_closed_form, outage_quadrature):
        with pytest.raises(ValueError, match=r"p0 < min\(p1, p2\) strictly"):
            evaluate(*grid)


def _monte_carlo_entry(budget, tmp_path):
    # the rule holds for every budget, not only the first
    budgets = (PowerBudget(0.0, 1.0, 5.0, 1.0), budget)
    theta, marginals = DependenceParameter(0.0), FadingMarginals(1.0, 1.0)
    with pytest.raises(ValueError, match=r"p0 < min\(p1, p2\) strictly"):
        outage_monte_carlo((theta,), marginals, budgets, (0.5,), 1000, 1)


def _sweep_entry(budget, tmp_path):
    config = ExperimentConfig(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), budget),
        rate_grid=RateGrid(0.5, 0.5, 0.1),
        mc_samples=1000,
    )
    with pytest.raises(ValidationError, match=r"budget 1: .*p0 < min\(p1, p2\) strictly"):
        run_outage_sweep(config, workers=2)


def _cli_entry(budget, tmp_path):
    path, out = tmp_path / "boundary.txt", tmp_path / "boundary.csv"
    path.write_text(
        "rate_start = 0.5\nrate_stop = 0.5\nmc_samples = 1000\n"
        f"[budget]\np0 = {budget.p0}\np1 = {budget.p1}\np2 = {budget.p2}\nnoise = 1\n"
    )
    assert main(["outage", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("budget", list(_BOUNDARY_BUDGETS.values()), ids=list(_BOUNDARY_BUDGETS))
@pytest.mark.parametrize(
    "entry",
    [_analytic_entry, _monte_carlo_entry, _sweep_entry, _cli_entry],
    ids=["query", "monte-carlo", "sweep", "cli"],
)
def test_every_entry_point_rejects_p0_at_the_smaller_cap(entry, budget, tmp_path):
    entry(budget, tmp_path)


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def test_closed_form_theta_zero_reduces_to_base_term():
    q = make_grid(rates=(0.8,), p1=2.0, p2=3.0, lam1=1.0, lam2=2.5, thetas=(0.0,))
    got = outage_closed_form(*q).value.item()
    a, b = weights(q)
    expected = 1.0 - 2.5 * math.exp(-1.0 * gammas(q).item() / a) / (2.5 - 1.0 * (b / a))
    assert got == pytest.approx(expected, rel=1e-15)


def test_closed_form_small_gamma_out_of_range_example():
    # gamma = 0, theta = 0, unit rates, weight ratio 0.2: the formula gives
    # 1 - 1/0.8 = -0.25 while the true probability is 0.
    q = make_grid(rates=(0.0,), p1=5.0, p2=1.0, thetas=(0.0,))
    est = outage_closed_form(*q)
    assert est.value.item() == pytest.approx(-0.25, abs=1e-15)
    assert est.out_of_range.tolist() == [[[True]]]
    assert outage_quadrature(*q).value.tolist() == [[[0.0]]]


def test_closed_form_marks_the_nan_of_overflowing_terms():
    # l1*P overflows at lambda = 1e308, and 2*l2*e1 = inf*0 is NaN: the value
    # is no probability, so it is marked like any value outside [0, 1]
    q = make_grid(rates=(0.0, 0.5), lam1=1e308, lam2=1e308, thetas=(1.0,))
    with np.errstate(over="ignore", invalid="ignore"):
        est = outage_closed_form(*q)
    assert np.isnan(est.value).all()
    assert est.out_of_range.tolist() == [[[True, True]]]


def test_closed_form_all_three_denominators_checked():
    for grid in (
        # l2 - l1*P = 0 at P = 1, equal rates
        make_grid(p1=1.0, p2=1.0, lam1=1.0, lam2=1.0),
        # 2*l2 - P*l1 = 0 at P = 2, l1 = 2, l2 = 2: 4 - 4 = 0
        make_grid(p1=1.0, p2=2.0, lam1=2.0, lam2=2.0),
        # l2 - 2*P*l1 = 0 at P = 0.5, unit rates: 1 - 1 = 0
        make_grid(p1=2.0, p2=1.0, lam1=1.0, lam2=1.0),
    ):
        curve = outage_closed_form(*grid)
        assert curve.failed.tolist() == [[[True]]]
        assert np.isnan(curve.value).all() and curve.out_of_range.all()


def test_a_degenerate_budget_fails_only_its_own_points():
    # (regular, degenerate, regular): the closed form computes every budget,
    # and marks exactly the middle budget's points failed
    budgets = (
        PowerBudget(0.0, 1.0, 5.0, 1.0),
        PowerBudget(0.0, 1.0, 1.0, 1.0),  # P = 1 with equal rates: l2 - l1*P = 0
        PowerBudget(0.3, 2.0, 1.0, 0.5),
    )
    grid = make_grid(rates=AXIS, thetas=(-1.0, 0.0, 0.7))._replace(budgets=budgets)
    curve = outage_closed_form(*grid)
    assert curve.failed.shape == curve.value.shape == (3, 3, len(AXIS))
    assert curve.failed[:, 1].all() and not curve.failed[:, [0, 2]].any()
    assert np.isnan(curve.value[:, 1]).all() and curve.out_of_range[:, 1].all()
    for i in (0, 2):
        alone = outage_closed_form(*grid._replace(budgets=(budgets[i],)))
        assert curve.value[:, i].tobytes() == alone.value[:, 0].tobytes()
        assert curve.out_of_range[:, i].tolist() == alone.out_of_range[:, 0].tolist()


def test_closed_form_affine_in_theta_exactly():
    thetas = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
    q = make_grid(rates=(0.7,), p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=2.0, thetas=thetas)
    at = dict(zip(thetas, outage_closed_form(*q).value[:, 0, 0].tolist()))
    slope = at[1.0] - at[0.0]
    for th, value in at.items():
        assert value == pytest.approx(at[0.0] + th * slope, abs=1e-12)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_quadrature_zero_gamma_is_exactly_zero():
    est = outage_quadrature(*make_grid(rates=(0.0,)))
    assert est.value.tolist() == [[[0.0]]]
    assert est.out_of_range.tolist() == [[[False]]] and est.std_error is None


def test_quadrature_unit_independent_case():
    # A = B = 1, unit rates, gamma = 1: P[g1 + g2 <= 1] = 1 - 2/e
    q = make_grid(rates=(0.5,), p1=1.0, p2=1.0, noise=1.0, thetas=(0.0,))
    assert outage_quadrature(*q).value.item() == pytest.approx(1.0 - 2.0 / math.e, abs=1e-9)


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
    q = make_grid(rates=(rate,), p1=p1, p2=p2, noise=noise, lam1=lam1, lam2=lam2, thetas=(0.0,))
    expected = convolution_outage(lam1, lam2, *weights(q), gammas(q).item())
    assert outage_quadrature(*q).value.item() == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("theta", [-1.0, -0.3, 0.6, 1.0])
def test_quadrature_matches_brute_force_oracle(theta):
    q = make_grid(rates=(0.75,), p1=1.0, p2=5.0, noise=1.0, lam1=1.0, lam2=2.0, thetas=(theta,))
    expected = brute_force_outage(1.0, 2.0, *weights(q), gammas(q).item(), theta)
    assert outage_quadrature(*q).value.item() == pytest.approx(expected, abs=1e-8)


def test_quadrature_nondecreasing_in_rate():
    rates = tuple(np.arange(0.1, 2.1, 0.1).tolist())
    ((values,),) = outage_quadrature(*make_grid(rates=rates, noise=1.0, thetas=(0.5,))).value.tolist()
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.fixture
def one_panel(monkeypatch):
    """Quadrature capped at one panel per point, so that every point its
    first panels do not settle is nonconvergent."""
    monkeypatch.setattr("swmac.outage._MAX_PANELS", 1)


def _capped_grid(rates=(2.0,), thetas=(-1.0,)):
    # Unit noise, (p1, p2) = (1, 5): under ``one_panel`` R = 0.05 converges
    # at every theta, and R = 2.0 at theta = 0 but not at -1 or 0.5.
    return make_grid(rates=rates, noise=1.0, thetas=thetas)


def test_quadrature_nonconvergence(one_panel):
    curve = outage_quadrature(*_capped_grid())
    assert curve.failed.tolist() == [[[True]]] and np.isnan(curve.value).all()


def test_a_point_with_a_nan_panel_fails_at_once(monkeypatch):
    # NaN panels can never be accepted, halved or capped: a point whose error
    # estimate is not finite stops in round 0, unconverged, and its
    # neighbours keep their values.
    import swmac.outage as outage_module

    panel_terms, calls = outage_module._panel_terms, []

    def poisoned(lo, hi, point, *args):
        calls.append(len(lo))
        if len(calls) > 1:
            raise AssertionError("a NaN panel was evaluated again")
        hlgth, density, parts = panel_terms(lo, hi, point, *args)
        density[np.asarray(point) == 1] = np.nan
        return hlgth, density, parts

    monkeypatch.setattr(outage_module, "_panel_terms", poisoned)
    q = make_grid(rates=(0.5, 1.0), noise=1e-5, thetas=(0.5,))
    curve = outage_quadrature(*q)
    assert curve.failed.tolist() == [[[False, True]]]
    monkeypatch.undo()
    alone = outage_quadrature(*make_grid(rates=(0.5,), noise=1e-5, thetas=(0.5,))).value.item()
    assert curve.value[0, 0, 0] == alone and np.isnan(curve.value[0, 0, 1])


@pytest.mark.parametrize(
    "part,weighed",
    [
        (0, [True, True, True, False, False]),
        (1, [False, True, False, True, False]),
        (2, [False, False, True, False, True]),
    ],
    ids=["L0", "L+", "L-"],
)
def test_a_failed_part_fails_only_the_thetas_that_weigh_it(part, weighed, monkeypatch):
    # Poison one of the law's parts at one point: a theta that gives it
    # weight 0 keeps its value, which a 0*NaN would turn to NaN (theta = 0
    # picks L+ with weight 0, and theta = +-1 weighs L0 by 0), and a theta
    # that weighs it fails, with no value.  The NaN part stops in round 0.
    import swmac.outage as outage_module

    panel_terms, calls = outage_module._panel_terms, []

    def poisoned(lo, hi, point, *args):
        calls.append(len(lo))
        hlgth, density, parts = panel_terms(lo, hi, point, *args)
        parts = list(parts)
        parts[part] = np.where((np.asarray(point) == 1)[:, None], np.nan, parts[part])
        return hlgth, density, tuple(parts)

    q = make_grid(rates=(0.5, 1.0), noise=1e-5, thetas=(0.0, 0.5, -0.5, 1.0, -1.0))
    clean = outage_quadrature(*q).value[:, 0]
    monkeypatch.setattr(outage_module, "_panel_terms", poisoned)
    curve = outage_quadrature(*q)
    assert calls == [2]
    assert curve.failed[:, 0].tolist() == [[False, w] for w in weighed]
    value = curve.value[:, 0]
    assert value[:, 0].tobytes() == clean[:, 0].tobytes()
    assert value[:, 1].tobytes() == np.where(weighed, np.nan, clean[:, 1]).tobytes()


def test_quadrature_accepts_the_relative_error_bound():
    # Near 1 the error bound is 1e-12*value, the bound QUADPACK works to:
    # these error estimates exceed 1e-13 but meet it.
    for rate in (2.85, 3.0):
        q = make_grid(rates=(rate,), p2=1.0, thetas=(-1.0,))
        got = outage_quadrature(*q).value.item()
        exact = decimal_outage(1.0, 1.0, 1.0, 1.0, gammas(q).item(), -1.0)
        assert got == pytest.approx(exact, abs=1e-13)


def test_quadrature_range_check_uses_the_relative_error_bound():
    # The value comes out 2 ulp above 1, well inside the 1e-12*value bound
    # of the error check, and is clamped to 1.
    got = outage_quadrature(*make_grid(rates=(2.9,), p2=1.0, thetas=(-1.0,)))
    assert got.value.tolist() == [[[1.0]]]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_zero_gamma():
    est = outage_monte_carlo(*make_grid(rates=(0.0,)), 10_000, seed=1)
    assert est.value.tolist() == [[[0.0]]]
    assert est.std_error.tolist() == [[[0.0]]]


def test_monte_carlo_certain_event():
    # gamma = 1000 with unit weights: outage is essentially certain.
    q = make_grid(rates=(0.5 * math.log2(1001.0),), p1=1.0, p2=1.0, noise=1.0)
    est = outage_monte_carlo(*q, 10_000, seed=2)
    assert est.value.tolist() == [[[1.0]]]
    assert est.std_error.tolist() == [[[0.0]]]


def test_monte_carlo_agrees_with_quadrature():
    # theta = 0.5, unit rates, A = 1, B = 5, gamma = 3
    q = make_grid(rates=(0.5 * math.log2(4.0),), p1=1.0, p2=5.0, noise=1.0, thetas=(0.5,))
    assert gammas(q) == pytest.approx([3.0], rel=1e-15)
    mc = outage_monte_carlo(*q, 1_000_000, seed=3)
    quad = outage_quadrature(*q)
    assert abs(quad.value.item() - mc.value.item()) <= 3.29 * mc.std_error.item()


def test_monte_carlo_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        outage_monte_carlo(*make_grid(), 999, seed=1)


@pytest.mark.parametrize("seed", [-5, 2**64])  # would alias 2**64 - 5 and 0
def test_monte_carlo_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
        outage_monte_carlo(*make_grid(), 5000, seed=seed)


@pytest.mark.parametrize(
    "blocks, message",
    [
        (range(7, 9), r"increasing range inside range\(5\)"),
        (range(3, 0, -1), r"increasing range inside range\(5\)"),
        (range(-1, 2), r"increasing range inside range\(5\)"),
        (range(0), r"nonempty range"),
    ],
    ids=["past-the-draw", "decreasing", "negative-start", "empty"],
)
def test_monte_carlo_rejects_a_block_range_by_name(blocks, message):
    # n = 5*BLOCK_SIZE pairs have blocks 0..4; a count needs at least one
    with pytest.raises(ValueError, match=r"blocks must be an? " + message):
        outage_monte_carlo(*make_grid(), 5 * BLOCK_SIZE, seed=3, blocks=blocks)


def test_monte_carlo_deterministic_for_seed():
    q = make_grid(thetas=(0.3,))
    a = outage_monte_carlo(*q, 50_000, seed=77)
    b = outage_monte_carlo(*q, 50_000, seed=77)
    assert a.value.tolist() == b.value.tolist()
    assert outage_monte_carlo(*q, 50_000, seed=78).value.tolist() != a.value.tolist()


def test_monte_carlo_matches_manual_chunk_accumulation():
    q = make_grid(thetas=(-0.4,), rates=(0.6,))
    n, seed = 150_000, 11
    est = outage_monte_carlo(*q, n, seed)
    pairs = mixture_gain_pairs(q.thetas[0], q.marginals, n, seed)
    chunks = np.split(pairs, range(CHUNK_SIZE, n, CHUNK_SIZE))
    (a, b), gamma = weights(q), gammas(q).item()
    count = sum(
        int(np.count_nonzero(a * c[:, 0] + b * c[:, 1] <= gamma))
        for c in reversed(chunks)
    )
    assert est.value.item() == count / n


def test_monte_carlo_grid_entries_equal_single_point_estimates():
    theta, marginals = DependenceParameter(0.6), FadingMarginals(1.0, 2.0)
    budgets = (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5))
    rates = (0.0, 0.25, 0.8, 1.5)
    n, seed = 70_000, 19  # 18 blocks, the last partial
    grid = outage_monte_carlo((theta,), marginals, budgets, rates, n, seed)
    assert grid.value.shape == grid.std_error.shape == (1, len(budgets), len(rates))
    for i, budget in enumerate(budgets):
        for j, rate in enumerate(rates):
            single = outage_monte_carlo((theta,), marginals, (budget,), (rate,), n, seed)
            assert (grid.value[0, i, j], grid.std_error[0, i, j]) == (
                single.value.item(),
                single.std_error.item(),
            )
    assert grid.value[0, 0, 0] == 0.0
    assert grid.value[0, 0].tolist() == sorted(grid.value[0, 0].tolist())


def test_monte_carlo_grid_counts_ties_as_outage():
    # At R = 0.5, gamma = noise*(2^1 - 1) = noise exactly, so noise set to
    # the 500th smallest drawn sum puts gamma on that sum.  Theta = 0.2
    # counts its prefix of about 200 pairs apart, 0.9 its suffix of about
    # 100, and 1.0 is the anchor itself.
    marginals = FadingMarginals(1.0, 1.0)
    for theta in map(DependenceParameter, (0.2, 0.9, 1.0)):
        pairs = mixture_gain_pairs(theta, marginals, 1000, 5)
        sums = np.sort(1.0 * pairs[:, 0] + 5.0 * pairs[:, 1])
        assert len(np.unique(sums)) == 1000
        budget = PowerBudget(0.0, 1.0, 5.0, float(sums[499]))
        assert gamma_threshold((0.5,), budget.noise).tolist() == [sums[499]]
        est = outage_monte_carlo((theta,), marginals, (budget,), (0.5,), 1000, 5)
        assert est.value.tolist() == [[[0.5]]]


def test_monte_carlo_grid_validation():
    theta, marginals = DependenceParameter(0.0), FadingMarginals(1.0, 1.0)
    with pytest.raises(ValueError):
        outage_monte_carlo((theta,), marginals, (PowerBudget(0.0, 1.0, 1.0, 1.0),), (0.5,), 999, 1)
    with pytest.raises(ValueError):
        outage_monte_carlo((theta,), marginals, (PowerBudget(1.0, 1.0, 2.0, 1.0),), (0.5,), 1000, 1)


# Four regimes of the cut on the first gain: off at unit noise, dropping
# about half the pairs at noise 0.01, nine tenths at noise 8.4e-4 (so that a
# batch of kept pairs holds several blocks' prefix runs), and nearly all of
# them at preset scale.  Each has two budgets with different weights and a
# rate axis that holds 0.
CUT_THETAS = (-1.0, -0.35, 0.0, 0.6, 1.0)
CUT_RATES = tuple(0.1 * i for i in range(31))  # 0 to 3
CUT_REGIMES = {
    "unit-noise": (
        FadingMarginals(1.0, 1.0),
        (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 1.0)),
        CUT_RATES,
    ),
    "half-cut": (
        FadingMarginals(1.0, 1.0),
        (PowerBudget(0.0, 1.0, 5.0, 0.01), PowerBudget(0.5, 2.0, 1.0, 0.01)),
        CUT_RATES[:26],  # reach 0.31: about 46 % of the pairs kept
    ),
    "tenth-cut": (
        FadingMarginals(1.0, 1.0),
        (PowerBudget(0.0, 1.0, 5.0, 8.4e-4), PowerBudget(0.5, 2.0, 1.0, 8.4e-4)),
        CUT_RATES,  # reach 0.053: about 10 % of the pairs kept
    ),
    "preset-scale": (
        FadingMarginals(1.0, 2.5),  # fig3
        (PowerBudget(0.0, 1.0, 1.0, 1e-5), PowerBudget(0.0, 1.0, 10.0, 1e-5)),
        CUT_RATES,
    ),
}


@pytest.mark.parametrize("regime", sorted(CUT_REGIMES))
def test_monte_carlo_counts_equal_a_brute_force_count_of_every_pair(regime):
    # 37 blocks, the last partial: every scored pair's weighted sum is
    # compared with every gamma, with no cut, sort or batching, at each
    # theta of one call (at theta = -1, 0 and 1 the pairs
    # iter_gain_pair_chunks yields at that theta).
    marginals, budgets, rates = CUT_REGIMES[regime]
    n, seed = 150_000, 23
    gammas = [gamma_threshold(rates, budget.noise) for budget in budgets]
    thetas = tuple(map(DependenceParameter, CUT_THETAS))
    est = outage_monte_carlo(thetas, marginals, budgets, rates, n, seed)
    assert est.value[:, :, 0].tolist() == [[0.0, 0.0]] * len(thetas)  # rate 0
    for t, theta in enumerate(thetas):
        g = mixture_gain_pairs(theta, marginals, n, seed)
        counts = np.array(
            [
                np.count_nonzero(
                    ((b.p1 - b.p0) * g[:, 0] + (b.p2 - b.p0) * g[:, 1])[:, None] <= gamma, axis=0
                )
                for b, gamma in zip(budgets, gammas)
            ]
        )
        assert est.value[t].tolist() == (counts / n).tolist()


@pytest.mark.parametrize("regime", sorted(CUT_REGIMES))
def test_monte_carlo_theta_entries_equal_one_theta_calls(regime):
    # One draw set serves the whole theta axis: entry [t] equals, bit for
    # bit, the call at thetas[t] alone, and a repeated theta gets the same
    # entries.  37 blocks, the last partial; the first-gain cut is off at
    # unit noise and drops pairs in the other two regimes.
    marginals, budgets, rates = CUT_REGIMES[regime]
    thetas = tuple(map(DependenceParameter, (0.6, -1.0, 0.0, 0.6, -0.35, 1.0)))
    n, seed = 150_000, 31
    grid = outage_monte_carlo(thetas, marginals, budgets, rates, n, seed)
    assert grid.value.shape == grid.std_error.shape == (len(thetas), len(budgets), len(rates))
    for t, theta in enumerate(thetas):
        alone = outage_monte_carlo((theta,), marginals, budgets, rates, n, seed)
        assert grid.value[t].tobytes() == alone.value[0].tobytes()
        assert grid.std_error[t].tobytes() == alone.std_error[0].tobytes()
    assert grid.value[0].tobytes() == grid.value[3].tobytes()
    if regime != "preset-scale":  # where every count is 0
        assert len({grid.value[t].tobytes() for t in range(len(thetas))}) == 5


def _inverted_shares(monkeypatch, thetas, marginals, budgets, rates, n, seed):
    """Share of the n drawn pairs that reach the conditional inversion, per
    anchor theta it is called at during one call."""
    import swmac.outage as outage_module

    inverted = {}
    step = outage_module._inversion_step

    def spy(th, prelude, *buffers):
        inverted[th] = inverted.get(th, 0) + len(prelude[0])
        return step(th, prelude, *buffers)

    monkeypatch.setattr(outage_module, "_inversion_step", spy)
    outage_monte_carlo(thetas, marginals, budgets, rates, n, seed)
    monkeypatch.undo()
    return {th: count / n for th, count in inverted.items()}


@pytest.mark.parametrize("regime,low,high", [("preset-scale", 0.0, 0.01), ("half-cut", 0.44, 0.48)])
def test_monte_carlo_inverts_only_the_pairs_the_cut_keeps(monkeypatch, regime, low, high):
    # Only the anchors theta = 1 and -1 invert; 0 takes v itself.
    marginals, budgets, rates = CUT_REGIMES[regime]
    thetas = tuple(map(DependenceParameter, CUT_THETAS))
    shares = _inverted_shares(monkeypatch, thetas, marginals, budgets, rates, 150_000, 23)
    assert sorted(shares) == [-1.0, 1.0]
    assert len(set(shares.values())) == 1  # the cut does not depend on theta
    assert low < shares[1.0] < high


def test_monte_carlo_inverts_every_pair_at_unit_noise(monkeypatch):
    # the benchmark's mc-sweep: fig2 weights at noise 1, rates 0.1 to 3.
    # The cut keeps every pair, so the anchor theta = 1 inverts all of them;
    # theta = 0.35 exactly the pairs of its prefix, since the block that
    # holds its boundary is split there and the pairs after it count at 0;
    # and theta = 0 none.
    from swmac.streams import substream

    marginals = FadingMarginals(1.0, 1.0)
    budgets = (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0))
    rates, n = CUT_RATES[1:], 32_768

    def shares(theta_value):
        thetas = (DependenceParameter(theta_value),)
        return _inverted_shares(monkeypatch, thetas, marginals, budgets, rates, n, 5)

    assert shares(1.0) == {1.0: 1.0}
    prefix = substream(5, 0, 1).binomial(n, 0.35)
    assert prefix % BLOCK_SIZE  # the boundary falls inside a block
    assert shares(0.35) == {1.0: prefix / n}
    assert shares(0.0) == {}


def test_monte_carlo_rows_do_not_depend_on_theta_order_or_repeats():
    # Permuting the theta axis permutes the entries, and a repeated theta
    # gets the same ones; -0.6 and 0.6 share their prefix lengths but not
    # their anchor.  18 blocks at unit noise.
    marginals, budgets, rates = CUT_REGIMES["unit-noise"]
    values = (0.6, -1.0, 0.0, -0.6, 0.05, 1.0)
    n, seed = 70_000, 41
    grid = outage_monte_carlo(tuple(map(DependenceParameter, values)), marginals, budgets, rates, n, seed)
    order = (3, 5, 0, 4, 2, 1, 0, 3)
    permuted = outage_monte_carlo(
        tuple(DependenceParameter(values[t]) for t in order), marginals, budgets, rates, n, seed
    )
    assert permuted.counts.tobytes() == grid.counts[list(order)].tobytes()
    assert grid.counts[0].tobytes() != grid.counts[3].tobytes()


@pytest.mark.parametrize("regime", ["unit-noise", "half-cut", "tenth-cut"])
@pytest.mark.parametrize("cuts", [(1,), (5, 6, 21), (2, 16, 17, 18, 30)])
def test_monte_carlo_shares_add_up_to_the_whole_count(regime, cuts):
    # Any split of the draw's 37 blocks (the last partial) into contiguous
    # shares: the shares' counts add up to the whole count bit for bit, with
    # the first-gain cut off (unit noise) and on.
    marginals, budgets, rates = CUT_REGIMES[regime]
    thetas = tuple(map(DependenceParameter, CUT_THETAS + (0.3, -0.85)))
    n, seed = 150_000, 29
    whole = outage_monte_carlo(thetas, marginals, budgets, rates, n, seed)
    edges = (0, *cuts, -(-n // BLOCK_SIZE))
    shares = [
        outage_monte_carlo(thetas, marginals, budgets, rates, n, seed, blocks=range(lo, hi))
        for lo, hi in zip(edges, edges[1:])
    ]
    assert sum(share.counts for share in shares).tobytes() == whole.counts.tobytes()
    assert OutageCurve.from_counts(sum(s.counts for s in shares), n).value.tobytes() == (
        whole.value.tobytes()
    )


#: Prefix lengths of a 150,000-pair draw (36 blocks of 4,096 pairs and a
#: last one of 2,544), per |theta|: boundaries at 0, on the edge of block 18
#: and at n, two inside block 1 and one inside the last, partial block.
_PLACED_PREFIXES = {
    0.2: 0,
    0.35: 18 * BLOCK_SIZE,
    0.45: 5_000,
    0.6: 7_000,
    0.8: 150_000,
    0.9: 36 * BLOCK_SIZE + 17,
}


@pytest.mark.parametrize("regime", ["unit-noise", "half-cut", "tenth-cut"])
def test_monte_carlo_counts_every_piece_at_its_side_of_a_placed_boundary(monkeypatch, regime):
    # With the prefix lengths placed on the edge cases of the block split,
    # including a boundary that -0.6 and 0.6 share, each theta's counts equal
    # a brute-force count of every pair from the same lengths, for the whole
    # draw and summed over contiguous shares whose edges cut the blocks that
    # hold a boundary and over strided shares, and no batch holds more than
    # BLOCK_SIZE pairs.
    import swmac.outage as outage_module
    from swmac.copula import iter_gain_pair_chunks

    marginals, budgets, rates = CUT_REGIMES[regime]
    n, seed = 150_000, 37

    def placed(seed_, n_, mags):
        assert (seed_, n_) == (seed, n)
        return [_PLACED_PREFIXES[mag] for mag in mags]

    batch_rows = []
    exp_quantile = outage_module._exp_quantile

    def spy(u, *lams):
        batch_rows.append(len(u))
        return exp_quantile(u, *lams)

    monkeypatch.setattr(outage_module, "_prefix_lengths", placed)
    monkeypatch.setattr(outage_module, "_exp_quantile", spy)
    values = (-1.0, -0.9, -0.6, -0.35, 0.0, 0.2, 0.45, 0.6, 0.8, 1.0)
    thetas = tuple(map(DependenceParameter, values))
    whole = outage_monte_carlo(thetas, marginals, budgets, rates, n, seed)
    blocks = -(-n // BLOCK_SIZE)
    edges = (0, 1, 2, 17, 18, 35, blocks)
    contiguous = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    strided = [[range(w, blocks, k) for w in range(k)] for k in (2, 3)]
    share_sums = [
        sum(
            outage_monte_carlo(thetas, marginals, budgets, rates, n, seed, blocks=share).counts
            for share in shares
        )
        for shares in (contiguous, *strided)
    ]
    assert batch_rows and max(batch_rows) <= BLOCK_SIZE

    def anchor_pairs(at):
        chunks = iter_gain_pair_chunks(DependenceParameter(at), marginals, n, seed)
        return np.concatenate(list(chunks))

    anchors = {at: anchor_pairs(at) for at in (-1.0, 0.0, 1.0)}
    for t, theta in enumerate(values):
        prefix = n if abs(theta) == 1.0 else _PLACED_PREFIXES.get(abs(theta), 0)
        signed = (np.arange(n) < prefix)[:, None]
        g = np.where(signed, anchors[math.copysign(1.0, theta)], anchors[0.0])
        brute = [
            np.count_nonzero(
                ((b.p1 - b.p0) * g[:, 0] + (b.p2 - b.p0) * g[:, 1])[:, None]
                <= gamma_threshold(rates, b.noise),
                axis=0,
            )
            for b in budgets
        ]
        assert whole.counts[t].tolist() == np.array(brute).tolist()
        for counts in share_sums:
            assert counts[t].tolist() == whole.counts[t].tolist()


def test_monte_carlo_builds_one_prefix_substream_per_call(monkeypatch):
    # Every interior theta's prefix length comes from the one substream
    # (seed, 0, 1), however many blocks the draw spans: 150,000 pairs are
    # 37 blocks.
    import swmac.outage as outage_module

    calls = []
    substream = outage_module.substream

    def spy(*path):
        calls.append(path)
        return substream(*path)

    monkeypatch.setattr(outage_module, "substream", spy)
    marginals, budgets, rates = CUT_REGIMES["unit-noise"]
    thetas = tuple(map(DependenceParameter, (-0.6, 0.0, 0.35, 0.6, 1.0)))
    outage_monte_carlo(thetas, marginals, budgets, rates, 150_000, 43)
    assert calls == [(43, 0, 1)]


#: fig2's budgets at unit noise, with the 30 rates 0.1 to 3.0 of mc-sweep.
_LAW_GRID = (
    FadingMarginals(1.0, 1.0),
    (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0)),
    CUT_RATES[1:],
)


def test_monte_carlo_mixture_counts_follow_the_binomial_law():
    # An interior theta's count is Binomial(n, p(theta)): over 60 seeds, the
    # z-scores of its 14,400 rows against quadrature are standard normal in
    # their first two moments, with no outlier.
    marginals, budgets, rates = _LAW_GRID
    thetas = tuple(map(DependenceParameter, (-0.6, -0.2, 0.3, 0.8)))
    p = outage_quadrature(thetas, marginals, budgets, rates).value
    n = 70_000
    z = np.array(
        [
            (outage_monte_carlo(thetas, marginals, budgets, rates, n, seed).value - p)
            / np.sqrt(p * (1.0 - p) / n)
            for seed in range(100, 160)
        ]
    )
    assert z.size == 14_400
    assert abs(z.mean()) < 0.1
    assert 0.9 <= z.std() <= 1.1
    assert np.abs(z).max() < 5.0


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
    q = make_grid(rates=(rate,), p1=p1, p2=p2, noise=noise, lam1=lam1, lam2=lam2, thetas=(0.0,))
    gamma = gammas(q).item()
    residual = closed_form_residual(lam1, lam2, *weights(q), gamma)
    closed = outage_closed_form(*q).value.item()
    # The residual formula itself is pre-verified against the convolution oracle.
    assert convolution_outage(lam1, lam2, *weights(q), gamma) - closed == pytest.approx(
        residual, abs=1e-12
    )
    got = outage_quadrature(*q).value.item() - closed
    assert got == pytest.approx(residual, abs=10.0 * tol)


# ---------------------------------------------------------------------------
# The grid contract: every entry equals its 1x1x1 call bit for bit
# ---------------------------------------------------------------------------

# Unit noise: the closed form leaves [0, 1] at the small rates of the
# (1, 5) budget, and quadrature settles the small rates in the first panel
# and bisects the larger ones.
AXIS = (0.0, 0.05, 0.3, 0.75, 1.5, 2.5)

# A point's flag in :func:`_evaluate`.
_OK, _OUT_OF_RANGE, _DEGENERATE, _NONCONVERGENT = range(4)


def _evaluate(method, g):
    """(value, std_error, flag) arrays over the (theta, budget, rate) grid
    ``g``: NaN where a point has no value, and the evaluator's failure as
    its flag.  Monte Carlo scores every point from one draw set of 2000
    pairs, seed 4."""
    if method == MONTE_CARLO:
        curve = outage_monte_carlo(*g, 2000, 4)
        return curve.value, curve.std_error, np.full(curve.value.shape, _OK)
    if method == CLOSED_FORM:
        evaluate, failure = outage_closed_form, _DEGENERATE
    else:
        evaluate, failure = outage_quadrature, _NONCONVERGENT
    curve = evaluate(*g)
    flag = np.where(curve.failed, failure, np.where(curve.out_of_range, _OUT_OF_RANGE, _OK))
    return curve.value, np.full(curve.value.shape, np.nan), flag


def _assert_grid_equals_points(method, grid):
    """Check every entry of ``grid`` against its 1x1x1 call, bit for bit
    (NaN and flag included); returns the grid's arrays."""
    got = _evaluate(method, grid)
    assert got[0].shape == (len(grid.thetas), len(grid.budgets), len(grid.rates))
    for t_i, b_i, r_i in np.ndindex(got[0].shape):
        point = grid._replace(
            thetas=(grid.thetas[t_i],), budgets=(grid.budgets[b_i],), rates=(grid.rates[r_i],)
        )
        expected = _evaluate(method, point)
        assert [a[t_i, b_i, r_i].tobytes() for a in got] == [a.tobytes() for a in expected]
    return got


#: A second budget for the grids below, with p0 > 0 and its own noise.
_SECOND_BUDGET = PowerBudget(0.3, 2.0, 1.0, 0.5)

#: 3-theta, 2-budget grids: an out-of-range closed form, a degenerate one
#: (P = 1 with equal rates) beside a regular budget, and quadrature that
#: misses its bound at R = 2.0 for theta = 0.5 and -1 when capped at one
#: panel (see ``_capped_grid``).
_GRIDS = {
    name: grid._replace(budgets=grid.budgets + (_SECOND_BUDGET,))
    for name, grid in (
        ("out-of-range", make_grid(rates=AXIS, thetas=(-1.0, 0.0, 0.7))),
        ("degenerate", make_grid(rates=AXIS, p2=1.0, thetas=(-1.0, 0.0, 0.7))),
        ("nonconvergent", _capped_grid(rates=(0.05, 1.5, 2.0), thetas=(0.5, -1.0, 0.0))),
    )
}

#: The flag each grid must show for the method it targets.
_TARGET_FLAGS = {
    ("out-of-range", CLOSED_FORM): _OUT_OF_RANGE,
    ("degenerate", CLOSED_FORM): _DEGENERATE,
    ("nonconvergent", QUADRATURE): _NONCONVERGENT,
}


@pytest.mark.parametrize("grid_name", list(_GRIDS))
@pytest.mark.parametrize("method", METHODS)
def test_grid_entries_equal_their_1x1_queries(method, grid_name, monkeypatch):
    if grid_name == "nonconvergent":
        monkeypatch.setattr("swmac.outage._MAX_PANELS", 1)
    _, std_error, flag = _assert_grid_equals_points(method, _GRIDS[grid_name])
    if (grid_name, method) in _TARGET_FLAGS:
        assert _TARGET_FLAGS[grid_name, method] in flag
    assert np.isnan(std_error).all() == (method != MONTE_CARLO)


def test_gamma_threshold_tuple_equals_scalar_calls():
    rates = (0.0, 0.1, 0.30000000000000004, 1.7, 3.0)
    for noise in (1e-5, 1.0):
        got = gamma_threshold(rates, noise)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [gamma_threshold((r,), noise).item() for r in rates]
    for bad_rates, noise in (((0.1, -0.1), 1.0), ((0.1, math.nan), 1.0), ((0.1,), 0.0)):
        with pytest.raises(ValueError):
            gamma_threshold(bad_rates, noise)


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.7])
@pytest.mark.parametrize(
    "p1,p2", [(1.0, 5.0), (1.0, 1.0)], ids=["out-of-range-budget", "degenerate-budget"]
)
def test_tuple_query_equals_per_rate_scalar_calls(p1, p2, theta):
    # one theta along the rate axis; the closed form fails for the whole
    # curve (l2 - l1*P = 0) or leaves [0, 1] at some rates
    curve = make_grid(rates=AXIS, p1=p1, p2=p2, noise=1.0, thetas=(theta,))
    _, _, closed = _assert_grid_equals_points(CLOSED_FORM, curve)
    if p1 == p2:
        assert (closed == _DEGENERATE).all()
    else:
        assert _OUT_OF_RANGE in closed
    for method in (QUADRATURE, MONTE_CARLO):
        _, _, flag = _assert_grid_equals_points(method, curve)
        assert (flag == _OK).all()


def test_first_panel_matches_quadpack_first_step():
    from swmac.outage import _GK_NODES, _gauss_kronrod_panel, _point_sums

    for f, upper in (
        (lambda x: np.exp(-x) * np.sin(3.0 * x), 2.0),  # settled by the panel
        (lambda x: x**7 - 2.0 * x**3, 1.3),  # polynomial, degree below 31
        (lambda x: 1.0 / (1.0 + x * x), 5.0),  # needs subdivision
        (np.sqrt, 1.0),  # endpoint singularity
    ):
        with pytest.warns(integrate.IntegrationWarning):  # limit=1 stops after one panel
            first_step = integrate.quad(lambda x: float(f(x)), 0.0, upper, limit=1)
        _, _, info = integrate.quad(
            lambda x: float(f(x)), 0.0, upper, epsabs=0.0, epsrel=1e-12, full_output=1
        )[:3]
        h = np.array([[0.5 * upper]])
        result, abserr, resasc = _gauss_kronrod_panel(f(h + h * _GK_NODES), h[0])
        assert result[0] == pytest.approx(first_step[0], rel=1e-14)
        assert abserr[0] == pytest.approx(first_step[1], rel=1e-6)
        # dqagse returns after its first panel exactly where a point left
        # with that one panel is accepted
        first = (abserr != resasc) | (abserr == 0.0)
        *_, settled = _point_sums(np.zeros(1, dtype=int), result, abserr, first)
        assert bool(settled[0]) == (info["neval"] == 21)


def _quadpack_reference(q, tol):
    a, b = weights(q)
    l1, l2 = q.marginals.lambda1, q.marginals.lambda2
    ((th,), (gamma,)) = ([t.theta for t in q.thetas], gammas(q).tolist())

    def inner(d):
        c_star = (gamma - b * d) / a
        e = math.exp(-l2 * d)
        t = 2.0 * e - 1.0
        q1 = -math.expm1(-l1 * c_star)
        q2 = -math.expm1(-2.0 * l1 * c_star)
        return l2 * e * ((1.0 - th * t) * q1 + th * t * q2)

    return integrate.quad(inner, 0.0, gamma / b, epsabs=tol, epsrel=1e-12, limit=200)[0]


def test_first_panel_acceptance_compares_against_resasc(monkeypatch):
    # gamma/B is about 8,800 and the mass sits near 0, so one 21-point panel
    # over [0, gamma/B] sees almost none of it: its value is near 3e-11.
    # dqagse rejects that panel because its error estimate equals dqk21's
    # resasc, and so does quadrature for a point left with one panel, even
    # with an error estimate within the point's bound; testing against
    # resabs instead would accept it.
    from swmac.copula import _at_theta
    from swmac.outage import _gauss_kronrod_panel, _panel_terms, _point_sums

    q = make_grid(
        rates=(5.55,), p0=0.5, p1=4.0, p2=1.0, noise=2.0, lam1=0.5, lam2=1.5, thetas=(-1.0,)
    )
    gamma, (a, b) = gammas(q), np.array(weights(q))[:, None]
    assert gamma.item() / b.item() == pytest.approx(8776.0, rel=1e-3)
    h, density, parts = _panel_terms(np.zeros(1), gamma / b, [0], gamma, a, b, 0.5, 1.5)
    result, abserr, resasc = _gauss_kronrod_panel(density * _at_theta(-1.0, *parts), h)
    assert result.item() < 1e-10 and abserr.item() <= 1e-10
    assert abserr.item() == resasc.item() != 0.0
    first = (abserr != resasc) | (abserr == 0.0)
    *_, done = _point_sums(np.zeros(1, dtype=int), result, abserr, first)
    assert done.tolist() == [False]
    for test, accepted in ((first, False), (~first, True)):
        *_, done = _point_sums(np.zeros(1, dtype=int), result, 1e-13 * result, test)
        assert done.tolist() == [accepted]
    # The point's first panels are cut at 40/lambda2, where its mass is seen.
    reference = _quadpack_reference(q, 1e-10)
    got = outage_quadrature(*q).value.item()
    assert got == pytest.approx(1.0, abs=1e-9)
    assert abs(got - reference) <= max(1e-10, 1e-12 * got)
    # Without the cuts the point starts from that one panel, which quadrature
    # itself must reject and bisect until the mass is found.
    monkeypatch.setattr("swmac.outage._SPAN", math.inf)
    uncut = outage_quadrature(*q).value.item()
    assert abs(uncut - reference) <= max(1e-10, 1e-12 * uncut)


def _panel_edges(monkeypatch):
    """The (lo, hi) edge lists of the panels quadrature evaluates, one entry
    per round, filled as quadrature runs."""
    import swmac.outage as outage_module

    rounds = []
    panel_terms = outage_module._panel_terms

    def spy(lo, hi, *args):
        rounds.append((lo.tolist(), hi.tolist()))
        return panel_terms(lo, hi, *args)

    monkeypatch.setattr(outage_module, "_panel_terms", spy)
    return rounds


def test_rejected_first_panel_is_bisected(monkeypatch):
    rounds = _panel_edges(monkeypatch)
    # At preset noise every rate is settled by its one panel over [0, gamma/B].
    preset = make_grid(rates=tuple(r / 10 for r in range(1, 31)), noise=1e-5, thetas=(0.5,))
    assert outage_quadrature(*preset).value.shape == (1, 1, 30)
    assert rounds == [([0.0] * 30, (gammas(preset) / 5.0).tolist())]
    # At unit noise R = 2.5 (gamma = 31, upper limit 6.2) is not settled, and
    # only its panel is bisected, once for each of the law's three parts.
    rounds.clear()
    curve = make_grid(rates=(0.05, 2.5), noise=1.0, thetas=(0.5,))
    (((small, large),),) = outage_quadrature(*curve).value.tolist()
    small_upper, upper = (gammas(curve) / 5.0).tolist()
    assert upper == 6.2
    assert rounds[:2] == [([0.0, 0.0], [small_upper, upper]), ([0.0, 3.1] * 3, [3.1, upper] * 3)]
    assert all(0.0 <= x <= upper and hi[0] > 0.0 for lo, hi in rounds[2:] for x in lo + hi)
    point = make_grid(rates=(2.5,), noise=1.0, thetas=(0.5,))
    assert abs(large - _quadpack_reference(point, 1e-10)) <= max(1e-10, 1e-12 * large)
    reference = _quadpack_reference(make_grid(rates=(0.05,), thetas=(0.5,)), 1e-10)
    assert small == pytest.approx(reference, rel=1e-13)


def test_nonconvergence_of_one_point_fails_the_curve(one_panel):
    # The error estimate is met at R = 0.05 and missed at 2.0, which the
    # curve marks failed beside its converged neighbour.
    converged = outage_quadrature(*_capped_grid(rates=(0.05,)))
    assert not converged.failed.any()
    assert outage_quadrature(*_capped_grid(rates=(2.0,))).failed.tolist() == [[[True]]]
    both = outage_quadrature(*_capped_grid(rates=(0.05, 2.0)))
    assert both.failed.tolist() == [[[False, True]]]
    assert both.value[0, 0, 0] == converged.value.item() and np.isnan(both.value[0, 0, 1])


@pytest.mark.parametrize("theta", [0.0, 0.5, -1.0])
def test_quadrature_keeps_the_mass_when_the_upper_limit_is_huge(theta, monkeypatch):
    # gamma/B up to 2e23 at unit noise: one panel over [0, gamma/B] puts no
    # node where g2 ~ Exp(1) has its mass and used to return about 0,
    # flagged ok.  With B << A the upper limit is long although the outage
    # is far from 1; both must start from panels split at 40/lambda2.
    rounds = _panel_edges(monkeypatch)
    huge = make_grid(rates=(10.0, 20.0, 40.0), noise=1.0, thetas=(theta,))
    ((got,),) = outage_quadrature(*huge).value.tolist()
    expected = [decimal_outage(1.0, 1.0, 1.0, 5.0, g, theta) for g in gammas(huge).tolist()]
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx([1.0] * 3, abs=1e-10)
    u = (gammas(huge) / 5.0).tolist()
    assert rounds[0] == ([0.0, 40.0] * 3, [40.0, u[0], 40.0, u[1], 40.0, u[2]])
    rounds.clear()
    long_axis = make_grid(rates=(0.3, 0.5, 1.0), p2=1e-3, noise=1.0, lam2=0.5, thetas=(theta,))
    ((got,),) = outage_quadrature(*long_axis).value.tolist()
    expected = [decimal_outage(1.0, 0.5, 1.0, 1e-3, g, theta) for g in gammas(long_axis).tolist()]
    assert got == pytest.approx(expected, abs=1e-10)
    assert 0.3 < got[0] < got[-1] < 0.99
    u = (gammas(long_axis) / 1e-3).tolist()
    assert rounds[0] == ([0.0, 80.0] * 3, [80.0, u[0], 80.0, u[1], 80.0, u[2]])


# ---------------------------------------------------------------------------
# Theta-axis queries
# ---------------------------------------------------------------------------

# Unit noise, (p1, p2) = (1, 5): R = 3 puts gamma/A above 40/lambda1 (the
# g1 drop split) and R = 10 puts gamma/B beyond the 40/lambda2 split.
THETA_AXIS_RATES = (0.05, 0.75, 2.5, 3.0, 10.0)


@pytest.mark.parametrize("rates", [THETA_AXIS_RATES, (0.75,)], ids=["rate-tuple", "float-rate"])
def test_theta_tuple_query_equals_one_theta_queries(rates):
    # each theta row of the grid equals the one-theta call along the same
    # rates ("float-rate": a single rate)
    grid = make_grid(rates=rates, noise=1.0, thetas=(-1.0, 0.0, 1.0, 0.0))  # 0 repeated
    for method in METHODS:
        got = _evaluate(method, grid)
        assert got[0].shape == (4, 1, len(rates))
        for t_i, theta in enumerate(grid.thetas):
            expected = _evaluate(method, grid._replace(thetas=(theta,)))
            assert [a[t_i].tobytes() for a in got] == [a[0].tobytes() for a in expected]


def test_every_theta_is_the_combination_of_the_three_anchors_bit_for_bit():
    # Quadrature integrates the law's three theta-free parts, which are the
    # outage at the anchors theta = 0, 1 and -1, and only weights them per
    # theta: the outage is affine in theta on each side of 0, exactly.
    from swmac.copula import _at_theta

    thetas = (-1.0, -0.999, -0.35, 0.0, 1e-300, 0.6, 1.0)
    grid = make_grid(rates=THETA_AXIS_RATES, noise=1.0, thetas=thetas)
    got = outage_quadrature(*grid).value[:, 0]
    anchors = [
        outage_quadrature(*grid._replace(thetas=(DependenceParameter(t),))).value[0, 0]
        for t in (0.0, 1.0, -1.0)
    ]
    for t_i, theta in enumerate(thetas):
        assert got[t_i].tobytes() == _at_theta(theta, *anchors).tobytes()
    for theta, anchor in zip((0.0, 1.0, -1.0), anchors):
        assert got[thetas.index(theta)].tobytes() == anchor.tobytes()


def test_nonconvergence_of_one_theta_fails_the_theta_tuple(one_panel):
    # At R = 2.0, theta = 0 converges and theta = -1 does not.
    assert not outage_quadrature(*_capped_grid(rates=(0.05, 2.0), thetas=(0.0,))).failed.any()
    curve = outage_quadrature(*_capped_grid(rates=(0.05, 2.0), thetas=(0.0, -1.0)))
    assert curve.failed.tolist() == [[[False, False]], [[False, True]]]


@pytest.mark.parametrize("rates", [(0.05, 2.0), (2.0,)], ids=["rate-tuple", "float-rate"])
def test_nonconvergence_marks_the_failing_points(rates, one_panel):
    # Every point is evaluated; the (theta, budget, rate) curve marks the
    # points that failed, exactly those whose 1x1x1 call marks its point,
    # and values them NaN.
    grid = _capped_grid(rates=rates, thetas=(0.0, -1.0))
    curve = outage_quadrature(*grid)
    assert curve.value.shape == curve.failed.shape == (len(grid.thetas), 1, len(rates))
    for t_i, theta in enumerate(grid.thetas):
        for r_i, r in enumerate(rates):
            alone = outage_quadrature(*grid._replace(rates=(r,), thetas=(theta,)))
            assert alone.failed.item() == curve.failed[t_i, 0, r_i]
            assert alone.value.tobytes() == curve.value[t_i, 0, r_i].tobytes()
    assert curve.failed[1, 0, -1] and not curve.failed[0].any()
    assert np.isnan(curve.value[curve.failed]).all()


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
    q = make_grid(rates=(rate,), p1=a, p2=b, lam1=lam1, lam2=lam2, thetas=(theta,))
    gamma = gammas(q).item()
    assert lam1 * gamma / a > 40.0
    exact = decimal_outage(lam1, lam2, a, b, gamma, theta)
    assert outage_quadrature(*q).value.item() == pytest.approx(exact, abs=1e-10)
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
        targets = (np.exp(rng.uniform(math.log(4.0), math.log(15.0), 2)) * b / lam2).tolist()
        rates = tuple(0.5 * math.log2(g + 1.0) for g in targets)
        q = Grid(thetas, FadingMarginals(lam1, lam2), (PowerBudget(0.0, a, b, 1.0),), rates)
        for theta, (row,) in zip(thetas, outage_quadrature(*q).value.tolist()):
            for g, value in zip(gammas(q).tolist(), row):
                worst = max(worst, abs(value - decimal_outage(lam1, lam2, a, b, g, theta.theta)))
                drops += lam1 * g / a > 40.0
    assert worst <= 10 * tol
    assert drops >= 150


# ---------------------------------------------------------------------------
# Quadrature against the 60-digit decimal oracle
# ---------------------------------------------------------------------------


def test_decimal_oracle_matches_the_float_forms():
    # Unit noise, where the float four-term form is exact to about 1e-16,
    # and the equal-rate branch (a = b) against the Erlang outage at theta 0.
    for lam1, lam2, a, b, gamma, theta in (
        (1.0, 2.0, 1.0, 5.0, 3.0, 0.5),
        (0.5, 1.5, 2.0, 4.0, 0.7, -1.0),
        (1.0, 1.0, 1.0, 5.0, 31.0, 1.0),
    ):
        assert decimal_outage(lam1, lam2, a, b, gamma, theta) == pytest.approx(
            fgm_outage(lam1, lam2, a, b, gamma, theta), abs=1e-15
        )
    assert decimal_outage(2.0, 2.0, 1.0, 1.0, 1.5, 0.0) == pytest.approx(
        1.0 - 4.0 * math.exp(-3.0), rel=1e-15
    )
    # At preset scale the leading term (1 + theta)*a*b*gamma^2/2 of the
    # series holds to O(gamma): 1 - ... has not lost the value.
    gamma = 3e-5
    for theta in (-0.5, 0.0, 1.0):
        expected = (1.0 + theta) * (1.0 / 5.0) * gamma**2 / 2.0
        assert decimal_outage(1.0, 1.0, 1.0, 5.0, gamma, theta) == pytest.approx(expected, rel=1e-4)


def _against_the_oracle(q):
    """(value, :func:`oracles.decimal_outage`, gamma, theta) of every entry
    of the quadrature grid of ``q``, from one call."""
    l1, l2 = q.marginals.lambda1, q.marginals.lambda2
    value = outage_quadrature(*q).value.tolist()
    for b_i, budget in enumerate(q.budgets):
        a, b = budget.p1 - budget.p0, budget.p2 - budget.p0
        for r_i, g in enumerate(gamma_threshold(q.rates, budget.noise).tolist()):
            for t_i, theta in enumerate(q.thetas):
                exact = decimal_outage(l1, l2, a, b, g, theta.theta)
                yield value[t_i][b_i][r_i], exact, g, theta.theta


def _assert_within_bound(q, abs_tol=math.inf):
    """Every entry of the quadrature grid of ``q`` is within its error bound
    1e-12*|value| of :func:`oracles.decimal_outage`, and within ``abs_tol``."""
    for v, exact, g, theta in _against_the_oracle(q):
        assert abs(v - exact) <= min(abs_tol, 1e-12 * abs(v)), (g, theta, v, exact)


def _preset_grid(cfg):
    return Grid(cfg.thetas, cfg.marginals, cfg.budgets, cfg.rate_grid.values())


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_quadrature_matches_the_decimal_oracle_on_every_preset_point(name):
    cfg = preset_config(name)
    _assert_within_bound(_preset_grid(cfg))


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_quadrature_is_exact_to_1e_14_relative_on_every_preset_point(name):
    # The conditional law is summed from nonnegative terms, so theta = -1,
    # where the outage is smallest, loses no digits to cancellation.
    cfg = preset_config(name)
    for v, exact, g, theta in _against_the_oracle(_preset_grid(cfg)):
        assert abs(v - exact) <= 1e-14 * exact, (g, theta, v, exact)


def _unit_noise_grid():
    # fig2's (1, 5) budget at unit noise, 21 thetas by 300 rates: the first
    # panels settle the small rates only, and the rest are bisected.
    rates = tuple(round(0.01 * k, 2) for k in range(1, 301))
    thetas = tuple(round(-1.0 + 0.1 * k, 1) for k in range(21))
    return make_grid(rates=rates, thetas=thetas)


@pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
def test_quadrature_matches_the_decimal_oracle_on_the_unit_noise_grid(abs_tol):
    # Within the relative bound, and within each absolute tolerance
    # quadrature accepted before its bound was made relative-only (the
    # default 1e-10 and 1e-13): no point is less accurate than it was.
    _assert_within_bound(_unit_noise_grid(), abs_tol)


@pytest.mark.parametrize(
    "grid,bisected",
    [(_unit_noise_grid(), True), (_preset_grid(preset_config("fig2")), False)],
    ids=["unit-noise", "fig2"],
)
def test_every_accepted_point_meets_the_relative_error_bound(grid, bisected, monkeypatch):
    # A point is accepted, in every round, only where its error estimate is
    # at most 1e-12*|value|, however small the value.
    import swmac.outage as outage_module

    point_sums, accepted = outage_module._point_sums, []

    def spy(*args):
        value, abserr, *_, done = sums = point_sums(*args)
        accepted.append((value[done], abserr[done]))
        return sums

    monkeypatch.setattr(outage_module, "_point_sums", spy)
    outage_quadrature(*grid)
    assert (len(accepted) > 1) == bisected
    value, abserr = (np.concatenate(x) for x in zip(*accepted))
    assert (abserr <= 1e-12 * np.abs(value)).all()


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    lam1=_log_uniform(-3.0, 3.0),
    lam2=_log_uniform(-3.0, 3.0),
    a=_log_uniform(-3.0, 3.0),
    b=_log_uniform(-3.0, 3.0),
    gamma=_log_uniform(-8.0, 3.0),
    theta=st.floats(-1.0, 1.0),
    tie=st.sampled_from([None, 1.0, 2.0]),
)
def test_quadrature_matches_the_decimal_oracle_over_a_scan(lam1, lam2, a, b, gamma, theta, tie):
    # ``tie`` = k sets lambda2/B to exactly k*lambda1/A: the oracle's
    # equal-rate branch then serves the pair (a, b) at k = 1 and the pair
    # (2a, b) at k = 2.
    if tie is not None:
        lam2, b = tie * lam1, a
    q = make_grid(
        rates=(0.5 * math.log2(gamma + 1.0),), p1=a, p2=b, lam1=lam1, lam2=lam2, thetas=(theta,)
    )
    _assert_within_bound(q)


def _assert_curve_invariant(curve, marks):
    # every value marked in neither mask lies in [0, 1], every failed point
    # is NaN and no standard error is negative; only the closed form marks
    # values out of range
    inside = (curve.value >= 0.0) & (curve.value <= 1.0)
    assert (inside | curve.out_of_range | curve.failed).all()
    assert np.isnan(curve.value[curve.failed]).all()
    assert curve.out_of_range.any() <= marks
    assert curve.std_error is None or (curve.std_error >= 0.0).all()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    lam1=_log_uniform(-2.0, 2.0),
    lam2=_log_uniform(-2.0, 2.0),
    p1=_log_uniform(-2.0, 2.0),
    p2=_log_uniform(-2.0, 2.0),
    share=st.floats(0.0, 0.9),
    noise=_log_uniform(-5.0, 1.0),
    rates=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    thetas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
)
def test_every_evaluator_satisfies_the_curve_invariant(
    lam1, lam2, p1, p2, share, noise, rates, thetas
):
    q = make_grid(
        rates=tuple(rates), p0=share * min(p1, p2), p1=p1, p2=p2, noise=noise,
        lam1=lam1, lam2=lam2, thetas=thetas,
    )
    _assert_curve_invariant(outage_closed_form(*q), marks=True)
    _assert_curve_invariant(outage_quadrature(*q), marks=False)
    mc = outage_monte_carlo(*q, 1000, 3)
    _assert_curve_invariant(mc, marks=False)
    assert not mc.failed.any()


def test_an_empty_theta_axis_gives_empty_curves():
    q = make_grid(rates=(0.5, 1.0), thetas=())
    assert outage_closed_form(*q).value.shape == (0, 1, 2)
    assert outage_quadrature(*q).value.shape == (0, 1, 2)
    assert outage_monte_carlo(*q, 1000, seed=1).value.shape == (0, 1, 2)


def test_an_empty_rate_axis_gives_empty_curves():
    q = make_grid(rates=(), thetas=(-1.0, 0.5))
    assert outage_closed_form(*q).value.shape == (2, 1, 0)
    assert outage_quadrature(*q).value.shape == (2, 1, 0)
    assert outage_monte_carlo(*q, 1000, seed=1).value.shape == (2, 1, 0)


def test_quadrature_holds_one_block_of_points_at_a_time():
    # 20,000 preset-noise points at the three anchors: integrated all at once
    # they peak near 50 MB of traced allocation, one block at a time near 10 MB
    rates = tuple(np.linspace(0.01, 3.0, 20_000).tolist())
    q = make_grid(rates=rates, noise=1e-5, lam2=2.5, thetas=(-1.0, 0.0, 1.0))
    tracemalloc.start()
    try:
        curve = outage_quadrature(*q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak
    # the points on both sides of a block boundary equal their 1x1x1 calls
    for i in (0, BLOCK_SIZE - 1, BLOCK_SIZE, len(rates) - 1):
        for t, theta in enumerate(q.thetas):
            alone = outage_quadrature((theta,), q.marginals, q.budgets, (rates[i],))
            assert curve.value[t, 0, i] == alone.value.item()
