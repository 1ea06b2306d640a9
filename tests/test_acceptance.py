"""Acceptance gate.

Each criterion is one test that runs at its stated tolerance and prints a
pass line on success (pytest -v adds the authoritative PASSED/FAILED per
test).  Stated runtime budgets are asserted with wall-clock measurements.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from swmac import (
    DependenceParameter,
    FadingMarginals,
    GainPair,
    OutageQuery,
    PowerBudget,
    UnitPair,
    copula_cdf,
    copula_density,
    gaussian_region_bounds,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
    sample_gain_pairs,
    sample_unit_pairs,
    wireless_region_bounds,
)
from swmac.cli import main
from swmac.config import preset_config
from swmac.streams import derive_seed, substream
from swmac.sweep import FLAGS, run_outage_sweep

from oracles import (
    closed_form_residual,
    convolution_outage,
    empirical_spearman,
    pearson_corr_target,
    spearman_rho_target,
)

THETA_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _report(number: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_copula_law_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    rectangles = rng.random((10_000, 4))
    violations = 0
    for theta_value in THETA_GRID:
        theta = DependenceParameter(theta_value)
        for row in rectangles:
            a1, b1 = sorted(row[:2])
            a2, b2 = sorted(row[2:])
            volume = (
                copula_cdf(theta, UnitPair(b1, b2))
                - copula_cdf(theta, UnitPair(a1, b2))
                - copula_cdf(theta, UnitPair(b1, a2))
                + copula_cdf(theta, UnitPair(a1, a2))
            )
            if volume < 0.0:
                violations += 1
        total, _ = integrate.dblquad(
            lambda v, u: copula_density(theta, UnitPair(u, v)), 0, 1, 0, 1, epsabs=1e-12
        )
        assert abs(total - 1.0) <= 1e-9
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "copula law suite", elapsed)


def test_criterion_2_sampler_statistics():
    start = time.perf_counter()
    theta_value = 0.9
    # Confirm both statistical targets with the numeric-integration oracle
    # before holding the sampler to them.
    rho_target = spearman_rho_target(theta_value)
    assert rho_target == pytest.approx(0.300, abs=1e-9)
    pearson_target = pearson_corr_target(theta_value, 1.0, 1.0)
    assert pearson_target == pytest.approx(0.225, abs=1e-6)

    theta = DependenceParameter(theta_value)
    u = sample_unit_pairs(theta, 1_000_000, substream(2025, 1))
    rho = empirical_spearman(u[:, 0], u[:, 1])
    assert abs(rho - 0.300) <= 0.010

    g = sample_gain_pairs(theta, FadingMarginals(1.0, 1.0), 1_000_000, substream(2025, 2))
    pearson = float(np.corrcoef(g[:, 0], g[:, 1])[0, 1])
    assert abs(pearson - 0.225) <= 0.010

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, "sampler statistics", elapsed)


def test_criterion_3_independent_case_exactness():
    unit = OutageQuery(
        rates=(0.5,),  # gamma = 1 at noise 1
        budget=PowerBudget(0.0, 1.0, 1.0, 1.0),
        marginals=FadingMarginals(1.0, 1.0),
        thetas=(DependenceParameter(0.0),),
    )
    assert unit.gamma == pytest.approx([1.0], rel=1e-15)
    assert outage_quadrature(unit).value.item() == pytest.approx(1.0 - 2.0 / math.e, abs=1e-9)

    # 20-point (lambda1, lambda2, p1, p2, rate) grid against the
    # convolution formula.
    grid = [
        (l1, l2, p1, p2, rate)
        for (l1, l2) in ((0.5, 1.5), (1.0, 2.0), (2.0, 0.7), (1.0, 1.0), (1.3, 0.4))
        for (p1, p2) in ((1.0, 5.0), (3.0, 1.0))
        for rate in (0.4, 1.1)
    ]
    assert len(grid) == 20
    for l1, l2, p1, p2, rate in grid:
        query = OutageQuery(
            rates=(rate,),
            budget=PowerBudget(0.0, p1, p2, 1.0),
            marginals=FadingMarginals(l1, l2),
            thetas=(DependenceParameter(0.0),),
        )
        expected = convolution_outage(l1, l2, query.weight1, query.weight2, query.gamma.item())
        assert outage_quadrature(query).value.item() == pytest.approx(expected, abs=1e-9)
    _report(3, "independent-case exactness")


def test_criterion_4_cross_method_agreement():
    start = time.perf_counter()
    # Unit-scale noise keeps the outage probabilities measurable at n=1e6
    # (the figure presets' 1e-5 W noise puts them near 1e-8).
    budgets = (PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5))
    marginals = FadingMarginals(1.0, 1.0)
    master_seed = 20240
    agreements = 0
    total = 0
    for b_i, budget in enumerate(budgets):
        for t_i, theta_value in enumerate(THETA_GRID):
            for r_i, rate in enumerate((0.25, 0.5, 1.0, 1.5, 2.0)):
                theta = DependenceParameter(theta_value)
                seed = derive_seed(master_seed, b_i, t_i, r_i)
                mc = outage_monte_carlo(theta, marginals, (budget,), (rate,), 1_000_000, seed)
                quad = outage_quadrature(OutageQuery((rate,), budget, marginals, (theta,)))
                total += 1
                if abs(quad.value.item() - mc.value.item()) <= 3.29 * mc.std_error.item():
                    agreements += 1
    assert total == 50
    assert agreements / total >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, f"cross-method agreement ({agreements}/{total})", elapsed)


def test_criterion_5_closed_form_verbatim_and_defect():
    # (a) The closed form is affine in theta, exactly.
    base = dict(
        budget=PowerBudget(0.0, 1.0, 5.0, 1.0),
        marginals=FadingMarginals(1.0, 2.0),
    )
    grid = OutageQuery(
        rates=(0.7,), thetas=tuple(DependenceParameter(th) for th in THETA_GRID), **base
    )
    values = dict(zip(THETA_GRID, outage_closed_form(grid).value[:, 0].tolist()))
    slope = values[1.0] - values[0.0]
    for th, value in values.items():
        assert value == pytest.approx(values[0.0] + th * slope, abs=1e-12)

    # (b) At theta = 0 the deviation from the exact integral equals the
    # truncation residual; the residual formula is itself pre-verified
    # against the convolution oracle.
    for l1, l2, p1, p2, rate in (
        (1.0, 2.0, 1.0, 5.0, 0.8),
        (2.0, 1.0, 3.0, 1.0, 0.6),
        (1.0, 1.0, 1.0, 5.0, 0.5),
        (1.5, 0.7, 2.0, 3.0, 1.0),
    ):
        query = OutageQuery(
            rates=(rate,),
            budget=PowerBudget(0.0, p1, p2, 1.0),
            marginals=FadingMarginals(l1, l2),
            thetas=(DependenceParameter(0.0),),
        )
        gamma = query.gamma.item()
        closed = outage_closed_form(query).value.item()
        residual = closed_form_residual(l1, l2, query.weight1, query.weight2, gamma)
        oracle_check = convolution_outage(l1, l2, query.weight1, query.weight2, gamma) - closed
        assert oracle_check == pytest.approx(residual, abs=1e-12)
        deviation = outage_quadrature(query).value.item() - closed
        assert deviation == pytest.approx(residual, abs=1e-8)

    # (c) The small-gamma out-of-range behaviour is reproduced and flagged.
    small_gamma = OutageQuery(
        rates=(0.0,),
        budget=PowerBudget(0.0, 5.0, 1.0, 1.0),
        marginals=FadingMarginals(1.0, 1.0),
        thetas=(DependenceParameter(0.0),),
    )
    flagged = outage_closed_form(small_gamma)
    assert flagged.value.item() == pytest.approx(-0.25, abs=1e-15)
    assert flagged.out_of_range.tolist() == [[True]]
    assert outage_quadrature(small_gamma).value.tolist() == [[0.0]]
    _report(5, "closed-form fidelity and defect quantification")


def test_criterion_6_figure_trend_reproduction():
    start = time.perf_counter()
    tol = 1e-10
    for name in ("fig2", "fig3", "fig4"):
        config = preset_config(name).with_overrides(methods=("quadrature",), quad_tol=tol)
        table = run_outage_sweep(config)
        assert (table.flag == FLAGS.index("ok")).all()
        _, thetas, rates, _ = table.axes
        op = table.op[..., 0]  # (budget, theta, rate)
        # (a) OP nondecreasing in the rate threshold along every curve.
        assert list(rates) == sorted(rates)
        assert (np.diff(op, axis=2) >= 0.0).all()
        # (b) theta ordering matches the sign of OP(1) - OP(0) at every
        # rate, and OP is affine across the theta grid.
        at = {t: op[:, thetas.index(t)] for t in THETA_GRID}  # (budget, rate)
        slope = at[1.0] - at[0.0]
        for a, b in zip(THETA_GRID, THETA_GRID[1:]):
            assert np.where(slope >= 0.0, at[a] <= at[b] + 2.0 * tol, at[a] >= at[b] - 2.0 * tol).all()
        for t in THETA_GRID:
            assert at[t] == pytest.approx(at[0.0] + t * slope, abs=2.0 * tol)
        # (c) the higher-power budget lowers the curve pointwise.
        if name in ("fig2", "fig4"):
            assert (op[1] <= op[0]).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, "figure-trend reproduction", elapsed)


def test_criterion_7_common_power_collapse():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p1, p2 = rng.uniform(0.1, 20.0, size=2)
        noise = rng.uniform(1e-5, 1.0)
        gains = GainPair(rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0))
        zero_common = PowerBudget(0.0, p1, p2, noise)
        g = gaussian_region_bounds(zero_common)
        assert g.b12 == g.b012
        w = wireless_region_bounds(zero_common, gains)
        assert w.b12 == w.b012
        p0 = rng.uniform(0.05, 0.95) * min(p1, p2)
        positive_common = PowerBudget(p0, p1, p2, noise)
        g = gaussian_region_bounds(positive_common)
        assert g.b12 < g.b012
        w = wireless_region_bounds(positive_common, gains)
        assert w.b12 < w.b012
    _report(7, "common-power collapse of the sum bounds")


def test_criterion_8_end_to_end_determinism(tmp_path):
    import os

    start = time.perf_counter()
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    # The pool is capped at the CPUs this process may run on (and at the
    # theta count), so asking for at least four takes the largest pool the
    # host allows; on a 1-CPU host both runs are serial.
    workers = str(max(4, os.cpu_count() or 1))
    base = ["outage", "--preset", "fig2", "--seed", "42"]
    assert main(base + ["--out", str(serial), "--workers", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--workers", workers]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_text().splitlines()[0] == "budget_id,theta,rate,method,op,std_err,flag"
    _report(8, "serial/parallel byte-identical CSV", time.perf_counter() - start)
