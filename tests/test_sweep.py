import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from swmac import (
    DependenceParameter,
    ExperimentConfig,
    FadingMarginals,
    GainPair,
    PowerBudget,
    RatePoint,
    ValidationError,
    contains,
    gaussian_region_bounds,
    wireless_region_bounds,
)
from swmac.config import RateGrid, preset_config
from swmac.outage import (
    DegenerateDenominator,
    OutageQuery,
    QuadratureNonConvergence,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from swmac.streams import derive_seed
from swmac.sweep import (
    FLAG_DEGENERATE,
    FLAG_NONCONVERGENCE,
    FLAG_OK,
    SWEEP_HEADER,
    ComparisonPoint,
    ComparisonReport,
    SweepRow,
    SweepTable,
    _pool_size,
    compare_methods,
    emit_comparison_csv,
    emit_csv,
    emit_region,
    emit_samples,
    format_value,
    run_outage_sweep,
)

from oracles import closed_form_residual


def small_config(**overrides):
    defaults = dict(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0),),
        thetas=(DependenceParameter(-1.0), DependenceParameter(0.0), DependenceParameter(1.0)),
        rate_grid=RateGrid(0.25, 0.75, 0.25),
        marginals=FadingMarginals(1.0, 2.0),
        mc_samples=20_000,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# run_outage_sweep
# ---------------------------------------------------------------------------


def test_single_rate_row_count():
    cfg = small_config(rate_grid=RateGrid(0.5, 0.5, 0.1))
    rows = run_outage_sweep(cfg)
    assert len(rows) == 1 * 3 * 1 * 3  # budgets * thetas * rates * methods


def test_rows_in_lexicographic_order():
    cfg = small_config(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0)))
    rows = run_outage_sweep(cfg)
    keys = [
        (r.budget_id, cfg.thetas.index(DependenceParameter(r.theta)), r.rate, cfg.methods.index(r.method))
        for r in rows
    ]
    assert keys == sorted(keys)
    assert len(rows) == 2 * 3 * 3 * 3


def test_sweep_rejects_budget_without_strict_common_power_margin():
    cfg = small_config(budgets=(PowerBudget(1.0, 1.0, 5.0, 1.0),), methods=("quadrature",))
    with pytest.raises(ValidationError):
        run_outage_sweep(cfg)


def test_monte_carlo_rows_use_per_row_substreams():
    # Monte Carlo draws are keyed by (seed, theta index), so the value at a
    # sweep point depends only on the seed, the theta index and the point
    # itself, not on which other methods run in the same sweep.
    all_methods = run_outage_sweep(small_config())
    mc_only = run_outage_sweep(small_config(methods=("monte-carlo",)))
    mc_from_full = [r for r in all_methods if r.method == "monte-carlo"]
    assert [(r.op, r.std_err) for r in mc_from_full] == [(r.op, r.std_err) for r in mc_only]


def test_parallel_sweep_matches_serial():
    cfg = small_config()
    serial = run_outage_sweep(cfg, workers=1)
    parallel = run_outage_sweep(cfg, workers=3)
    assert serial == parallel
    with pytest.raises(ValueError):
        run_outage_sweep(cfg, workers=-1)


def test_monte_carlo_rows_equal_per_query_estimates():
    # One draw set per theta, keyed by (seed, theta index), scores every
    # budget and rate; each row equals the per-query estimate on that key.
    # n = 150,000 is three chunks, the last one partial.
    n = 150_000
    cfg = small_config(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5)),
        methods=("quadrature", "monte-carlo"),
        mc_samples=n,
    )
    rows = [r for r in run_outage_sweep(cfg) if r.method == "monte-carlo"]
    assert len(rows) == 2 * 3 * 3
    for row in rows:
        t_i = cfg.thetas.index(DependenceParameter(row.theta))
        query = OutageQuery(row.rate, cfg.budgets[row.budget_id], cfg.marginals, cfg.thetas[t_i])
        est = outage_monte_carlo(query, n, derive_seed(cfg.seed, t_i))
        assert (row.op, row.std_err, row.flag) == (est.value, est.std_error, FLAG_OK)


@pytest.mark.parametrize("workers", [2, 5])
def test_parallel_theta_blocks_match_serial(workers):
    # 5 workers exceeds the 3 thetas; the pool is clamped, rows unchanged.
    cfg = small_config(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0)))
    assert run_outage_sweep(cfg, workers=workers) == run_outage_sweep(cfg, workers=1)


@pytest.mark.parametrize(
    "workers,tasks,cpus,expected",
    [
        (1, 5, 8, 1),
        (4, 5, 2, 2),  # capped at the CPU count
        (8, 3, 16, 3),  # capped at the task count
        (0, 5, 4, 4),  # 0 = one per CPU
        (0, 2, 4, 2),
        (10**6, 5, 2, 2),
        (3, 5, None, 1),  # unknown CPU count counts as one
    ],
)
def test_pool_size_clamp(workers, tasks, cpus, expected):
    assert _pool_size(workers, tasks, cpus) == expected


def test_pool_size_rejects_negative_workers():
    with pytest.raises(ValueError):
        _pool_size(-1, 5, 2)


def test_degenerate_closed_form_rows_are_annotated_not_fatal():
    cfg = small_config(
        budgets=(PowerBudget(0.0, 1.0, 1.0, 1.0),),  # P = 1
        marginals=FadingMarginals(1.0, 1.0),  # l2 - l1*P = 0
    )
    rows = run_outage_sweep(cfg)
    for row in rows:
        if row.method == "closed-form":
            assert row.flag == FLAG_DEGENERATE
            assert row.op is None and row.std_err is None
        else:
            assert row.flag == FLAG_OK
            assert 0.0 <= row.op <= 1.0


def test_out_of_range_closed_form_rows_keep_value():
    # fig2-style budget: P = 5 exceeds l2/l1, the closed form leaves [0, 1].
    cfg = small_config(methods=("closed-form",), marginals=FadingMarginals(1.0, 1.0))
    rows = run_outage_sweep(cfg)
    assert any(r.flag == "out-of-range" for r in rows)
    for r in rows:
        assert r.op is not None


def _fail_quadrature_at(monkeypatch, points):
    """Make the sweep's quadrature raise QuadratureNonConvergence for every
    query holding one of ``points``, (theta, rate) pairs, with those points
    marked failed, as QUADPACK does where its error estimate stalls (see
    test_outage's ``_stalled_query``).  Per-query checks read
    ``swmac.sweep.outage_quadrature`` to see the same failures."""
    import swmac.sweep as sweep_module

    evaluate = sweep_module.outage_quadrature

    def quadrature(query, tol):
        failed = np.array([[(t.theta, r) in points for r in query.rates] for t in query.thetas])
        if failed.any():
            grid = replace(query, theta=query.thetas, rate_threshold=query.rates)
            value = evaluate(grid, tol=tol).value
            raise QuadratureNonConvergence(
                f"error estimate stalls at one of {sorted(points)}", value, failed
            )
        return evaluate(query, tol=tol)

    monkeypatch.setattr(sweep_module, "outage_quadrature", quadrature)


_FLAGGED_RATES = RateGrid(0.05, 2.1, 0.05)

#: Scattered (theta, rate) points where the flagged configs' quadrature fails.
_FLAGGED_FAILURES = {
    (theta, _FLAGGED_RATES.values()[i]) for theta, i in ((-1.0, 30), (0.5, 30), (-1.0, 35), (1.0, 40))
}


def _flagged_config(**overrides):
    # Unit noise: budget 0 has out-of-range closed-form rows, budget 1 (P = 1
    # with equal rates) a degenerate closed form.  _FLAGGED_FAILURES adds
    # scattered quadrature nonconvergence.
    return small_config(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 1.0, 1.0)),
        thetas=(DependenceParameter(-1.0), DependenceParameter(0.5)),
        rate_grid=_FLAGGED_RATES,
        marginals=FadingMarginals(1.0, 1.0),
        quad_tol=1e-13,
        mc_samples=2000,
        **overrides,
    )


def test_quadrature_nonconvergence_flags_only_the_failing_rows(monkeypatch):
    import swmac.sweep as sweep_module

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _flagged_config(methods=("quadrature",))
    rows = run_outage_sweep(cfg)
    flags = {r.flag for r in rows}
    assert flags == {FLAG_OK, FLAG_NONCONVERGENCE}
    for row in rows:
        theta = DependenceParameter(row.theta)
        query = OutageQuery(row.rate, cfg.budgets[row.budget_id], cfg.marginals, theta)
        if row.flag == FLAG_OK:
            assert row.op == sweep_module.outage_quadrature(query, tol=cfg.quad_tol).value
        else:
            assert row.op is None and row.std_err is None
            with pytest.raises(QuadratureNonConvergence):
                sweep_module.outage_quadrature(query, tol=cfg.quad_tol)


def test_nonconvergence_on_a_theta_tuple_flags_only_the_failing_rows(monkeypatch):
    from swmac.sweep import _NONCONVERGENCE, _OK, _analytic_column

    # R = 1.55 fails for theta = -1 and 0.5 but not for 0; every other
    # (theta, rate) converges.
    _fail_quadrature_at(monkeypatch, {(-1.0, 1.55), (0.5, 1.55)})
    thetas = tuple(DependenceParameter(t) for t in (-1.0, 0.0, 0.5))
    rates = (0.05, 1.3, 1.55, 1.8)
    query = OutageQuery(rates, PowerBudget(0.0, 1.0, 5.0, 1.0), FadingMarginals(1.0, 1.0), thetas)
    values, flags = _analytic_column(query, "quadrature", 1e-13)
    expected = np.full((3, 4), _OK)
    expected[[0, 2], 2] = _NONCONVERGENCE
    assert flags.tolist() == expected.tolist()
    for t_i, theta in enumerate(thetas):
        for r_i, rate in enumerate(rates):
            point = OutageQuery(rate, query.budget, query.marginals, theta)
            if flags[t_i, r_i] == _OK:
                assert values[t_i, r_i] == outage_quadrature(point, tol=1e-13).value
            else:
                assert math.isnan(values[t_i, r_i])


def test_serial_and_parallel_csv_byte_identical_with_flagged_rows(tmp_path, monkeypatch):
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _flagged_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    rows = run_outage_sweep(cfg, workers=1)
    emit_csv(rows, serial)
    emit_csv(run_outage_sweep(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert {r.flag for r in rows} == {
        FLAG_OK,
        FLAG_DEGENERATE,
        FLAG_NONCONVERGENCE,
        "out-of-range",
    }


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_stalled_quadrature_grid_takes_one_call_and_flags_the_failing_points(monkeypatch):
    # The budget and marginals of test_outage's ``_stalled_query``, with no
    # injected failure: QUADPACK's error estimate stalls above tol 1e-13 at
    # some of these (theta, rate) points.  One quadrature call per budget
    # flags exactly the points whose one-point query raises.
    import swmac.sweep as sweep_module

    calls = []
    evaluate = sweep_module.outage_quadrature

    def counted(query, tol):
        calls.append(query)
        return evaluate(query, tol=tol)

    monkeypatch.setattr(sweep_module, "outage_quadrature", counted)
    cfg = small_config(
        budgets=(PowerBudget(0.0, 2e-4, 12.8, 144.0),),
        thetas=tuple(DependenceParameter(t) for t in (-1.0, 0.0, 0.5)),
        rate_grid=RateGrid(7.5, 8.0, 0.05),
        marginals=FadingMarginals(3e4, 5e-5),
        methods=("quadrature",),
        quad_tol=1e-13,
    )
    table = run_outage_sweep(cfg)
    assert len(calls) == 1
    flagged = 0
    for row in table:
        theta = DependenceParameter(row.theta)
        point = OutageQuery(row.rate, cfg.budgets[0], cfg.marginals, theta)
        try:
            expected = outage_quadrature(point, tol=cfg.quad_tol).value
        except QuadratureNonConvergence:
            assert row.flag == FLAG_NONCONVERGENCE and row.op is None
            flagged += 1
        else:
            assert row.flag == FLAG_OK and row.op == expected
    assert 0 < flagged < len(table)


def _three_theta_flagged_config():
    # 2 budgets x 3 thetas with every flag: out-of-range and degenerate
    # closed forms, and quadrature nonconvergence under _FLAGGED_FAILURES.
    return replace(
        _flagged_config(),
        thetas=(DependenceParameter(-1.0), DependenceParameter(0.5), DependenceParameter(1.0)),
    )


def _per_query_row(cfg, b_i, t_i, rate, method):
    """The sweep row at one point, from the per-query evaluator."""
    import swmac.sweep as sweep_module

    theta = cfg.thetas[t_i]
    query = OutageQuery(rate, cfg.budgets[b_i], cfg.marginals, theta)
    row = SweepRow(b_i, theta.theta, rate, method, None, None, FLAG_OK)
    try:
        if method == "closed-form":
            est = outage_closed_form(query)
        elif method == "quadrature":
            est = sweep_module.outage_quadrature(query, tol=cfg.quad_tol)
        else:
            est = outage_monte_carlo(query, cfg.mc_samples, derive_seed(cfg.seed, t_i))
    except DegenerateDenominator:
        return replace(row, flag=FLAG_DEGENERATE)
    except QuadratureNonConvergence:
        return replace(row, flag=FLAG_NONCONVERGENCE)
    return replace(row, op=est.value, std_err=est.std_error, flag=est.flag or FLAG_OK)


def test_sweep_table_rows_equal_per_query_results(monkeypatch):
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    table = run_outage_sweep(cfg)
    assert isinstance(table, SweepTable)
    rates = cfg.rate_grid.values()
    expected = [
        _per_query_row(cfg, b_i, t_i, rate, method)
        for b_i in range(len(cfg.budgets))
        for t_i in range(len(cfg.thetas))
        for rate in rates
        for method in cfg.methods
    ]
    assert len(table) == len(expected) == 2 * 3 * len(rates) * 3
    assert list(table) == expected
    assert {row.flag for row in table} == {
        FLAG_OK,
        FLAG_DEGENERATE,
        FLAG_NONCONVERGENCE,
        "out-of-range",
    }
    # indexing builds the same rows as iteration
    assert [table[i] for i in range(len(table))] == expected
    assert table[-1] == expected[-1]
    assert table[5:11] == expected[5:11]
    assert table[::97] == expected[::97]
    with pytest.raises(IndexError):
        table[len(table)]


def test_three_theta_flagged_csv_independent_of_workers_and_row_source(tmp_path, monkeypatch):
    import swmac.sweep as sweep_module

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    table = run_outage_sweep(cfg, workers=1)
    emit_csv(table, serial)
    emit_csv(run_outage_sweep(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    monkeypatch.setattr(sweep_module, "_CSV_BLOCK_ROWS", 7)  # many blocks, one partial
    emit_csv(table, parallel)
    assert parallel.read_bytes() == serial.read_bytes()
    # The row-by-row writer this columnar one replaced, kept as the reference.
    lines = [SWEEP_HEADER] + [
        ",".join(
            (
                str(r.budget_id),
                format_value(r.theta),
                format_value(r.rate),
                r.method,
                format_value(r.op),
                format_value(r.std_err),
                r.flag,
            )
        )
        for r in table
    ]
    assert serial.read_text() == "\n".join(lines) + "\n"


def test_sweep_calls_the_spans_the_benchmark_traces(monkeypatch):
    # perfbench/run.py reads per-layer metrics from spans of these names and
    # takes percentiles and medians over them, which fail on an empty list:
    # outage.closed_form_us_p50/_p99/_calls (outage.outage_closed_form),
    # outage.quadrature_us_p50/_p99/_calls (outage.outage_quadrature),
    # config.rate_values_us (config.RateGrid.values), all on analytic-grid,
    # and streams.substream_us (streams.substream) on mc-sweep; the Monte
    # Carlo rows come from outage.outage_monte_carlo_grid.  A sweep that
    # stops calling one of them must fail here, not in the benchmark.
    import swmac.copula as copula_module
    import swmac.sweep as sweep_module

    calls = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(sweep_module, "outage_closed_form")
    spy(sweep_module, "outage_quadrature")
    spy(sweep_module, "outage_monte_carlo_grid")
    spy(RateGrid, "values")
    spy(copula_module, "substream")
    run_outage_sweep(small_config(mc_samples=1000))
    assert set(calls) == {
        "outage_closed_form",
        "outage_quadrature",
        "outage_monte_carlo_grid",
        "values",
        "substream",
    }


def test_analytic_methods_make_one_call_per_budget(monkeypatch):
    # The analytic evaluators take the whole (theta x rate) grid of a budget
    # in one call; one call per (budget, theta) curve would be 5 times as
    # many on fig2.
    import swmac.sweep as sweep_module

    calls = {}

    def spy(name):
        original = getattr(sweep_module, name)

        def counted(query, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(query, *args, **kwargs)

        monkeypatch.setattr(sweep_module, name, counted)

    spy("outage_closed_form")
    spy("outage_quadrature")
    cfg = preset_config("fig2").with_overrides(methods=("closed-form", "quadrature"))
    assert len(cfg.budgets) == 2 and len(cfg.thetas) == 5
    rows = run_outage_sweep(cfg, workers=2)
    assert calls == {"outage_closed_form": 2, "outage_quadrature": 2}
    assert len(rows) == 2 * 5 * len(cfg.rate_grid.values()) * 2


# ---------------------------------------------------------------------------
# emit_csv
# ---------------------------------------------------------------------------


def test_emit_csv_deterministic_and_parseable(tmp_path):
    cfg = small_config()
    rows = run_outage_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, p1)
    emit_csv(run_outage_sweep(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == SWEEP_HEADER.split(",")
    assert all(len(row) == 7 for row in parsed)
    assert len(parsed) == len(rows) + 1


def test_emit_csv_formats_12_significant_digits(tmp_path):
    from swmac.sweep import _OK

    one = (1, 1, 1, 1)
    table = SweepTable(
        ((0,), (-0.5,), (0.30000000000000004,), ("quadrature",)),
        np.full(one, 1.0 / 3.0),
        np.full(one, np.nan),
        np.full(one, _OK),
    )
    assert list(table) == [SweepRow(0, -0.5, 0.30000000000000004, "quadrature", 1.0 / 3.0, None, FLAG_OK)]
    path = tmp_path / "fmt.csv"
    emit_csv(table, path)
    line = path.read_text().splitlines()[1]
    assert line == "0,-0.5,0.3,quadrature,0.333333333333,,ok"


def test_format_value():
    assert format_value(None) == ""
    assert format_value(1e-5) == "1e-05"
    assert format_value(0.1 + 0.2) == "0.3"


# ---------------------------------------------------------------------------
# Figure trends (small slice; the full grids run in the acceptance suite)
# ---------------------------------------------------------------------------


def test_fig2_quadrature_trends_small_slice():
    cfg = preset_config("fig2").with_overrides(methods=("quadrature",))
    cfg = ExperimentConfig(
        budgets=cfg.budgets,
        thetas=cfg.thetas,
        rate_grid=RateGrid(0.5, 2.0, 0.5),
        marginals=cfg.marginals,
        methods=("quadrature",),
    )
    rows = run_outage_sweep(cfg)
    by_curve = {}
    for r in rows:
        by_curve.setdefault((r.budget_id, r.theta), []).append((r.rate, r.op))
    # OP nondecreasing in rate along each curve
    for curve in by_curve.values():
        ops = [op for _, op in sorted(curve)]
        assert all(a <= b for a, b in zip(ops, ops[1:]))
    # negative dependence outperforms positive at every rate
    by_point = {}
    for r in rows:
        by_point.setdefault((r.budget_id, r.rate), []).append((r.theta, r.op))
    for values in by_point.values():
        ops = [op for _, op in sorted(values)]
        assert all(a <= b for a, b in zip(ops, ops[1:]))
    # larger p2 lowers the curve pointwise
    for theta in {r.theta for r in rows}:
        for rate in {r.rate for r in rows}:
            p5 = next(r.op for r in rows if r.budget_id == 0 and r.theta == theta and r.rate == rate)
            p10 = next(r.op for r in rows if r.budget_id == 1 and r.theta == theta and r.rate == rate)
            assert p10 <= p5


# ---------------------------------------------------------------------------
# compare_methods
# ---------------------------------------------------------------------------


def test_compare_requires_two_methods():
    with pytest.raises(ValidationError, match="at least two methods"):
        compare_methods(small_config(methods=("quadrature",)))


def test_compare_theta_zero_deviation_equals_residual():
    cfg = small_config(
        thetas=(DependenceParameter(0.0),),
        methods=("closed-form", "quadrature"),
    )
    report = compare_methods(cfg)
    assert len(report.points) == 3
    budget = cfg.budgets[0]
    for point in report.points:
        gamma = budget.noise * (2.0 ** (2.0 * point.rate) - 1.0)
        residual = closed_form_residual(1.0, 2.0, 1.0, 5.0, gamma)
        assert report.pairs == (("closed-form", "quadrature"),)
        (got,) = point.diffs
        assert got == pytest.approx(-residual, abs=10.0 * cfg.quad_tol)
        assert point.closed_form_deviation == pytest.approx(got)


def test_compare_z_scores_and_flags():
    report = compare_methods(small_config(mc_samples=100_000))
    zs = [p.z_quad_mc for p in report.points]
    assert all(z is not None for z in zs)
    assert any(math.isfinite(z) for z in zs)
    assert "closed-form:out-of-range" in report.flag_counts
    lines = report.summary_lines()
    assert lines[0] == "points compared: 9"


def test_compare_quadrature_against_monte_carlo():
    cfg = small_config(methods=("quadrature", "monte-carlo"))
    report = compare_methods(cfg)
    assert len(report.points) == 9
    for p in report.points:
        assert abs(p.z_quad_mc) <= 6.0


def test_compare_keeps_every_point_of_a_duplicated_theta():
    # The sweep draws MC rows per theta index, so the two theta = 0.5 blocks
    # carry different MC values; each point must be built from its own rows.
    cfg = small_config(thetas=(DependenceParameter(0.5), DependenceParameter(0.5)))
    rows = run_outage_sweep(cfg)
    report = compare_methods(cfg)
    k = len(cfg.methods)
    assert len(report.points) == len(rows) // k == 6
    for i, point in enumerate(report.points):
        ops = {row.method: row.op for row in rows[i * k : (i + 1) * k]}
        assert (point.budget_id, point.theta, point.rate) == (
            rows[i * k].budget_id,
            rows[i * k].theta,
            rows[i * k].rate,
        )
        assert point.diffs == tuple(
            ops[a] - ops[b] if ops[a] is not None and ops[b] is not None else None
            for a, b in report.pairs
        )
    mc = [p.diffs[report.pairs.index(("quadrature", "monte-carlo"))] for p in report.points]
    assert mc[:3] != mc[3:]


def _row_by_row_comparison(cfg, rows):
    """The comparison points built one sweep point at a time from plain rows."""
    k = len(cfg.methods)
    points = []
    for i in range(0, len(rows), k):
        block = rows[i : i + k]
        ops = {row.method: row.op for row in block}
        flags = [f"{row.method}:{row.flag}" for row in block if row.flag != FLAG_OK]
        diffs = tuple(
            ops[a] - ops[b] if ops[a] is not None and ops[b] is not None else None
            for a, b in (("closed-form", "quadrature"), ("closed-form", "monte-carlo"), ("quadrature", "monte-carlo"))
        )
        z = None
        if ops["quadrature"] is not None:
            diff = ops["quadrature"] - ops["monte-carlo"]
            std_err = block[2].std_err
            z = diff / std_err if std_err > 0.0 else (0.0 if diff == 0.0 else math.copysign(math.inf, diff))
            if abs(z) > 3.29:
                flags.append("large-z")
        deviation = None
        if ops["closed-form"] is not None and ops["quadrature"] is not None:
            deviation = ops["closed-form"] - ops["quadrature"]
            if abs(deviation) > 10.0 * cfg.quad_tol:
                flags.append("closed-form-deviation")
        row = block[0]
        points.append(ComparisonPoint(row.budget_id, row.theta, row.rate, diffs, z, deviation, tuple(flags)))
    return points


def test_compare_equals_row_by_row_reference(monkeypatch):
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    assert cfg.methods == ("closed-form", "quadrature", "monte-carlo")
    report = compare_methods(cfg)
    expected = _row_by_row_comparison(cfg, list(run_outage_sweep(cfg)))
    assert list(report.points) == expected
    # every branch of the reference is taken
    zs = [p.z_quad_mc for p in expected]
    assert None in zs and math.inf in zs and -math.inf in zs
    assert any(z is not None and math.isfinite(z) for z in zs)
    assert {p.closed_form_deviation is None for p in expected} == {True, False}
    assert {
        "closed-form:out-of-range",
        "closed-form:degenerate-denominator",
        "quadrature:quadrature-nonconvergence",
        "large-z",
        "closed-form-deviation",
    } <= set(report.flag_counts)


def test_compare_infinite_z_keeps_the_sign_of_the_difference(tmp_path):
    # Every Monte Carlo draw is an outage (std_err 0) while quadrature is
    # just below 1: the difference is negative, so z is -inf.
    cfg = ExperimentConfig(
        budgets=(PowerBudget(0.0, 1.0, 2.0, 1.0),),
        thetas=(DependenceParameter(0.5),),
        rate_grid=RateGrid(2.45, 2.45, 0.1),
        marginals=FadingMarginals(1.0, 1.0),
        methods=("quadrature", "monte-carlo"),
        mc_samples=1000,
    )
    report = compare_methods(cfg)
    (point,) = report.points
    (diff,) = point.diffs
    assert diff < 0.0 and point.z_quad_mc == -math.inf
    assert point.flags == ("large-z",)
    path = tmp_path / "cmp.csv"
    emit_comparison_csv(report, path)
    assert path.read_text().splitlines()[1] == f"0,0.5,2.45,{format_value(diff)},-inf,large-z"


def test_summary_counts_points_with_non_finite_z():
    point = ComparisonPoint(0, 0.0, 0.5, (), None, None, ())
    finite = replace(point, z_quad_mc=-1.5)
    infinite = replace(point, z_quad_mc=math.inf, flags=("large-z",))
    report = ComparisonReport(points=(point, finite, infinite, infinite), pairs=())
    assert report.flag_counts == {"large-z": 2}
    assert report.summary_lines() == [
        "points compared: 4",
        "  large-z: 2",
        "max |z| (quadrature vs monte-carlo): 1.500",
        "non-finite z (quadrature vs monte-carlo): 2 points",
    ]
    assert "non-finite" not in "".join(replace(report, points=(point, finite)).summary_lines())


def test_emit_comparison_csv(tmp_path):
    cfg = small_config(mc_samples=10_000)
    report = compare_methods(cfg)
    path = tmp_path / "cmp.csv"
    emit_comparison_csv(report, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == [
        "budget_id",
        "theta",
        "rate",
        "diff_closed-form_quadrature",
        "diff_closed-form_monte-carlo",
        "diff_quadrature_monte-carlo",
        "z_quad_mc",
        "flags",
    ]
    assert len(parsed) == 1 + len(report.points)


# ---------------------------------------------------------------------------
# emit_region and emit_samples
# ---------------------------------------------------------------------------


def test_emit_region_clipped_square(tmp_path):
    # p0 = 0, p1 = p2 = noise: per-user bounds 0.5, sum bound (1/2)log2(3),
    # so the square loses its far corner to the sum constraint.
    budget = PowerBudget(0.0, 1.0, 1.0, 1.0)
    path = tmp_path / "region.csv"
    vertices = emit_region(budget, None, 0.0, path)
    s = 0.5 * math.log2(3.0)
    assert vertices == [
        (0.0, 0.0),
        (0.5, 0.0),
        (0.5, s - 0.5),
        (s - 0.5, 0.5),
        (0.0, 0.5),
    ]
    bounds = gaussian_region_bounds(budget)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["r1", "r2"]
    for raw1, raw2 in parsed[1:]:
        assert contains(bounds, RatePoint(0.0, float(raw1), float(raw2)))


def test_emit_region_wireless_and_round_trip_membership(tmp_path):
    budget = PowerBudget(0.5, 2.0, 3.0, 0.1)
    gains = GainPair(1.7, 0.4)
    bounds = wireless_region_bounds(budget, gains)
    r0 = 0.25 * bounds.b012
    path = tmp_path / "region.csv"
    emit_region(budget, gains, r0, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) >= 3
    for raw1, raw2 in rows:
        assert contains(bounds, RatePoint(r0, float(raw1), float(raw2)))


def test_emit_region_rejects_r0_beyond_bound(tmp_path):
    budget = PowerBudget(0.0, 1.0, 1.0, 1.0)
    b012 = gaussian_region_bounds(budget).b012
    with pytest.raises(ValueError):
        emit_region(budget, None, b012 * 1.01, tmp_path / "r.csv")


def test_emit_region_collapses_at_full_common_rate(tmp_path):
    budget = PowerBudget(0.0, 1.0, 1.0, 1.0)
    b012 = gaussian_region_bounds(budget).b012
    vertices = emit_region(budget, None, b012, tmp_path / "r.csv")
    assert vertices == [(0.0, 0.0)]


def test_emit_samples_equals_pair_by_pair_writer(tmp_path):
    from swmac.copula import iter_gain_pair_chunks

    cfg = small_config()
    path = tmp_path / "s.csv"
    emit_samples(cfg, -0.4, 70_000, path)  # two chunks, the second partial
    chunks = iter_gain_pair_chunks(DependenceParameter(-0.4), cfg.marginals, 70_000, cfg.seed)
    expected = "g1,g2\n" + "".join(
        f"{float(g1)!r},{float(g2)!r}\n" for chunk in chunks for g1, g2 in chunk
    )
    assert path.read_text() == expected


def test_emit_samples_deterministic(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_samples(cfg, 0.9, 5000, a)
    emit_samples(cfg, 0.9, 5000, b)
    assert a.read_bytes() == b.read_bytes()
    with open(a, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["g1", "g2"]
    assert len(parsed) == 5001
    values = [(float(x), float(y)) for x, y in parsed[1:]]
    assert all(x >= 0.0 and y >= 0.0 for x, y in values)
