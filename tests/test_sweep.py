import csv
import math
import os
import sys
import time
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

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
    OutageEvaluationError,
    QuadratureNonConvergence,
    gamma_threshold,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from swmac.streams import BLOCK_SIZE, derive_seed
from swmac.sweep import (
    FLAG_DEGENERATE,
    FLAG_NONCONVERGENCE,
    FLAG_OK,
    FLAG_OUT_OF_RANGE,
    FLAGS,
    SWEEP_HEADER,
    ComparisonReport,
    SweepTable,
    _block_shares,
    _pool_size,
    compare_methods,
    emit_comparison_csv,
    emit_csv,
    emit_region,
    emit_samples,
    format_value,
    run_outage_sweep,
)

from oracles import closed_form_residual, decimal_outage

#: Flag codes as a table stores them: positions in FLAGS.
OK, OUT_OF_RANGE, DEGENERATE, NONCONVERGENCE = (
    FLAGS.index(f) for f in (FLAG_OK, FLAG_OUT_OF_RANGE, FLAG_DEGENERATE, FLAG_NONCONVERGENCE)
)


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


def _none_if_nan(x):
    return None if math.isnan(x) else x


def _same_table(a, b):
    """Whether two tables hold the same axes and the same bits in every array."""
    arrays = ((a.op, b.op), (a.std_err, b.std_err), (a.flag, b.flag))
    return a.axes == b.axes and all(x.tobytes() == y.tobytes() for x, y in arrays)


# ---------------------------------------------------------------------------
# run_outage_sweep
# ---------------------------------------------------------------------------


def test_single_rate_row_count():
    cfg = small_config(rate_grid=RateGrid(0.5, 0.5, 0.1))
    rows = run_outage_sweep(cfg)
    assert len(rows) == 1 * 3 * 1 * 3  # budgets * thetas * rates * methods


def test_rows_in_lexicographic_order():
    # rows are the (budget, theta, rate, method) grid in row-major order:
    # budgets, thetas and methods in config order, rates ascending
    cfg = small_config(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0)))
    table = run_outage_sweep(cfg)
    assert table.axes == ((0, 1), (-1.0, 0.0, 1.0), (0.25, 0.5, 0.75), cfg.methods)
    assert table.op.shape == table.std_err.shape == table.flag.shape == (2, 3, 3, 3)
    assert len(table) == 2 * 3 * 3 * 3


def test_sweep_rejects_budget_without_strict_common_power_margin():
    cfg = small_config(budgets=(PowerBudget(1.0, 1.0, 5.0, 1.0),), methods=("quadrature",))
    with pytest.raises(ValidationError):
        run_outage_sweep(cfg)


def test_monte_carlo_rows_use_per_row_substreams():
    # Monte Carlo draws are keyed by derive_seed(seed, 0), so the value at a
    # sweep point depends only on the seed and the point itself, not on
    # which other methods run in the same sweep.
    all_methods = run_outage_sweep(small_config())
    mc_only = run_outage_sweep(small_config(methods=("monte-carlo",)))
    m_i = all_methods.axes[3].index("monte-carlo")
    for column in ("op", "std_err"):
        full, alone = getattr(all_methods, column), getattr(mc_only, column)
        assert full[..., m_i].tobytes() == alone[..., 0].tobytes()


def test_parallel_sweep_matches_serial():
    cfg = small_config()
    serial = run_outage_sweep(cfg, workers=1)
    parallel = run_outage_sweep(cfg, workers=3)
    assert _same_table(serial, parallel)
    with pytest.raises(ValueError):
        run_outage_sweep(cfg, workers=-1)


def test_monte_carlo_rows_equal_1x1_estimates():
    # Every Monte Carlo row of a sweep is scored against one draw set, keyed
    # by derive_seed(seed, 0): each row equals the 1x1 estimate on that key
    # and the frequency of A*g1 + B*g2 <= gamma over the pairs that
    # iter_gain_pair_chunks yields at its theta from that key.
    # n = 150,000 is three chunks, the last one partial.
    from swmac.copula import iter_gain_pair_chunks

    n = 150_000
    cfg = small_config(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5)),
        methods=("quadrature", "monte-carlo"),
        mc_samples=n,
    )
    table = run_outage_sweep(cfg)
    op, std_err, flag = (a[..., 1] for a in (table.op, table.std_err, table.flag))
    assert op.shape == (2, 3, 3)
    seed, rates = derive_seed(cfg.seed, 0), table.axes[2]
    for t_i, theta in enumerate(cfg.thetas):
        g = np.concatenate(list(iter_gain_pair_chunks(theta, cfg.marginals, n, seed)))
        for b_i, budget in enumerate(cfg.budgets):
            sums = (budget.p1 - budget.p0) * g[:, 0] + (budget.p2 - budget.p0) * g[:, 1]
            gammas = gamma_threshold(rates, budget.noise).tolist()
            for r_i, (rate, gamma) in enumerate(zip(rates, gammas)):
                est = outage_monte_carlo((theta,), cfg.marginals, (budget,), (rate,), n, seed)
                assert (op[b_i, t_i, r_i], std_err[b_i, t_i, r_i], flag[b_i, t_i, r_i]) == (
                    est.value.item(),
                    est.std_error.item(),
                    OK,
                )
                assert op[b_i, t_i, r_i] == np.count_nonzero(sums <= gamma) / n


@pytest.mark.parametrize("workers", [1, 2])
def test_a_monte_carlo_row_does_not_depend_on_the_other_thetas(forked_pool_of_two, workers):
    # Common random numbers across theta: thetas added before 0.5 in the
    # config leave its rows as they are, serial or pooled.
    methods = ("monte-carlo",)
    alone = run_outage_sweep(small_config(thetas=(DependenceParameter(0.5),), methods=methods))
    thetas = tuple(map(DependenceParameter, (-1.0, 0.2, 0.5)))
    table = run_outage_sweep(small_config(thetas=thetas, methods=methods), workers=workers)
    for column in ("op", "std_err"):
        assert getattr(table, column)[:, 2].tobytes() == getattr(alone, column)[:, 0].tobytes()


@pytest.mark.parametrize("count", [1, 3, 7])
def test_a_serial_sweep_draws_once_whatever_its_theta_count(monkeypatch, count):
    # One _uniform_blocks call, and one substream per chunk: each Philox
    # block is drawn once for every theta.  70,000 pairs are two chunks.
    import swmac.copula as copula_module
    import swmac.outage as outage_module

    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(outage_module, "_uniform_blocks")
    spy(copula_module, "substream")
    thetas = tuple(map(DependenceParameter, np.linspace(-1.0, 1.0, count).tolist()))
    cfg = small_config(thetas=thetas, methods=("monte-carlo",), mc_samples=70_000)
    run_outage_sweep(cfg, workers=1)
    seed = derive_seed(cfg.seed, 0)
    assert calls == [
        ("_uniform_blocks", (70_000, seed)),
        ("substream", (seed, 0)),
        ("substream", (seed, 1)),
    ]


@pytest.mark.parametrize("workers", [2, 5])
def test_parallel_theta_blocks_match_serial(workers):
    # 5 workers exceeds the 3 thetas; the pool is clamped, rows unchanged.
    cfg = small_config(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.0, 1.0, 10.0, 1.0)))
    assert _same_table(run_outage_sweep(cfg, workers=workers), run_outage_sweep(cfg, workers=1))


@pytest.mark.parametrize("cpus", [2, 3])
def test_pooled_block_shares_match_serial(forked_pool_of_two, monkeypatch, tmp_path, cpus):
    # One theta, so the pool is capped by the draw's 18 blocks (the last
    # partial), not by the theta count; at unit noise the first-gain cut
    # keeps nearly every pair, so every share runs the per-theta kernel.
    # Each share records where it ran and which blocks it counted.
    import swmac.sweep

    cfg = small_config(
        thetas=(DependenceParameter(0.35),), methods=("monte-carlo",), mc_samples=70_000
    )
    serial = run_outage_sweep(cfg, workers=1)
    share_counts = swmac.sweep._share_counts

    def recorded(config, rates, shares, indices):
        for i, counts in zip(indices, share_counts(config, rates, shares, indices)):
            (tmp_path / f"{os.getpid()}-{i}").write_text(f"{shares[i].start} {shares[i].stop}")
            yield counts

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(swmac.sweep, "_share_counts", recorded)
    pooled = run_outage_sweep(cfg, workers=0)
    for column in ("op", "std_err", "flag"):
        assert getattr(pooled, column).tobytes() == getattr(serial, column).tobytes()
    records = [(path.name.split("-"), path.read_text().split()) for path in tmp_path.iterdir()]
    assert len({pid for (pid, _), _ in records}) == cpus
    assert str(os.getpid()) not in {pid for (pid, _), _ in records}
    shares = sorted((int(start), int(stop)) for _, (start, stop) in records)
    assert [b for share in shares for b in range(*share)] == list(range(18))


# a pool never exceeds the block count, so k <= blocks
@pytest.mark.parametrize(
    "blocks,k", [(1, 1), (2, 2), (3, 2), (5, 3), (18, 2), (18, 3), (25, 7), (1531, 7)]
)
def test_block_shares_cover_every_block_once(blocks, k):
    shares = _block_shares(blocks, k)
    assert len(shares) == k
    assert [b for share in shares for b in share] == list(range(blocks))
    assert all(share.step == 1 for share in shares)
    assert max(map(len, shares)) - min(map(len, shares)) <= 1


def _no_pool():
    raise AssertionError("a worker process was forked")


def _assert_every_worker_reaped():
    # this process has no child left, not even one that has ended unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1000, BLOCK_SIZE])
def test_a_sweep_of_one_block_starts_no_pool(monkeypatch, n):
    cfg = small_config(mc_samples=n)
    serial = run_outage_sweep(cfg, workers=1)
    monkeypatch.setattr(os, "fork", _no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert _same_table(run_outage_sweep(cfg, workers=0), serial)


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


def test_workers_0_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # 8 host CPUs, but an affinity mask of one: --workers 0 runs serially.
    # Where the platform has no affinity mask, the host count is used.
    cfg = small_config(mc_samples=10_000)  # three blocks, enough for a pool of two
    serial = run_outage_sweep(cfg, workers=1)
    monkeypatch.setattr(os, "fork", _no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _same_table(run_outage_sweep(cfg, workers=0), serial)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _same_table(run_outage_sweep(cfg, workers=0), serial)


def test_off_linux_a_pool_runs_in_this_process(monkeypatch, tmp_path):
    # fork is not safe there: the shares and blocks a pool of two would take
    # are computed here instead, into the same rows and bytes
    cfg = small_config(mc_samples=10_000)
    serial = run_outage_sweep(cfg, workers=1)
    with _on_cpus(0):
        emit_samples(cfg, 0.9, 10_000, tmp_path / "serial.csv")
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "fork", _no_pool, raising=False)
    with _on_cpus(0, 1):
        assert _same_table(run_outage_sweep(cfg, workers=0), serial)
        emit_samples(cfg, 0.9, 10_000, tmp_path / "here.csv")
    assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def _reaps(monkeypatch):
    """The pids of the workers forked from now on, and the pid of each
    ``os.waitpid`` call, in two lists filled as they happen."""
    forked, reaped = [], []
    fork, waitpid = os.fork, os.waitpid

    def spied_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spied_fork)
    monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(pid) or waitpid(pid, options))
    return forked, reaped


def _pooled_sweep(monkeypatch, item, tmp_path):
    """A sweep on two workers, one share of the draw's three blocks each,
    whose share ``i``'s counts are ``item(i, draw)``, ``draw`` computing the
    counts themselves."""
    import swmac.sweep

    share_counts = swmac.sweep._share_counts

    def patched(config, rates, shares, indices):
        counts = share_counts(config, rates, shares, indices)
        return (item(i, lambda: next(counts)) for i in indices)

    monkeypatch.setattr(swmac.sweep, "_share_counts", patched)
    run_outage_sweep(small_config(mc_samples=10_000), workers=2)


def _pooled_sample(monkeypatch, item, tmp_path):
    """Three blocks of samples on two workers, block ``b``'s text being
    ``item(b, draw)``, ``draw`` computing the text itself."""
    import swmac.sweep

    sample_texts = swmac.sweep._sample_texts

    def patched(theta, marginals, n, seed, blocks):
        for b in blocks:
            block = range(b, b + 1)
            yield item(b, lambda: next(sample_texts(theta, marginals, n, seed, block)))

    monkeypatch.setattr(swmac.sweep, "_sample_texts", patched)
    emit_samples(small_config(), 0.9, 3 * BLOCK_SIZE, tmp_path / "s.csv")


@pytest.mark.parametrize("pooled", [_pooled_sweep, _pooled_sample])
def test_a_worker_that_dies_without_answering_names_its_exit_code(
    forked_pool_of_two, monkeypatch, tmp_path, pooled
):
    parent = os.getpid()

    def dying(i, compute):
        if os.getpid() == parent:
            raise AssertionError("an item ran in the parent")
        if i == 1:  # the last worker's slice: worker 0 answers
            os._exit(3)
        return compute()

    forked, reaped = _reaps(monkeypatch)
    with pytest.raises(OutageEvaluationError, match="exited with code 3"):
        pooled(monkeypatch, dying, tmp_path)
    # the dead worker is reaped where its death is read, and the error path
    # stops and reaps only the other
    assert len(forked) == 2 and sorted(reaped) == sorted(forked)
    _assert_every_worker_reaped()


def test_a_worker_that_dies_part_way_through_a_result_names_its_exit_code(
    forked_pool_of_two, monkeypatch, tmp_path
):
    # Each worker writes the first 100 bytes of its first block's pickle;
    # worker 0 dies drawing its second block, so block 0 is read cut short.
    import pickle

    dumps, written = pickle.dumps, []

    def cut_short(obj):
        if written:
            os._exit(9)
        written.append(obj)
        return dumps(obj)[:100]

    monkeypatch.setattr(pickle, "dumps", cut_short)
    forked, reaped = _reaps(monkeypatch)
    with pytest.raises(OutageEvaluationError, match="exited with code 9"):
        _pooled_sample(monkeypatch, lambda b, compute: compute(), tmp_path)
    assert written == []  # the parent pickled nothing
    assert len(forked) == 2 and sorted(reaped) == sorted(forked)
    _assert_every_worker_reaped()
    assert list(tmp_path.iterdir()) == []


def test_an_analytic_failure_stops_the_running_workers(forked_pool_of_two, monkeypatch):
    import swmac.sweep

    def slow_counts(config, rates, shares, indices):
        time.sleep(600)

    def failing_column(config, rates, method):
        raise RuntimeError("synthetic analytic failure")

    monkeypatch.setattr(swmac.sweep, "_share_counts", slow_counts)
    monkeypatch.setattr(swmac.sweep, "_analytic_column", failing_column)
    forked, reaped = _reaps(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="synthetic analytic failure"):
        run_outage_sweep(small_config(mc_samples=10_000), workers=2)
    assert time.monotonic() - start < 30  # the workers were stopped, not waited for
    assert len(forked) == 2 and sorted(reaped) == sorted(forked)
    _assert_every_worker_reaped()


def test_degenerate_closed_form_rows_are_annotated_not_fatal():
    cfg = small_config(
        budgets=(PowerBudget(0.0, 1.0, 1.0, 1.0),),  # P = 1
        marginals=FadingMarginals(1.0, 1.0),  # l2 - l1*P = 0
    )
    table = run_outage_sweep(cfg)
    cf = cfg.methods.index("closed-form")
    assert (table.flag[..., cf] == DEGENERATE).all()
    assert np.isnan(table.op[..., cf]).all() and np.isnan(table.std_err[..., cf]).all()
    others = np.delete(np.arange(len(cfg.methods)), cf)
    assert (table.flag[..., others] == OK).all()
    assert ((table.op[..., others] >= 0.0) & (table.op[..., others] <= 1.0)).all()


def test_out_of_range_closed_form_rows_keep_value():
    # fig2-style budget: P = 5 exceeds l2/l1, the closed form leaves [0, 1].
    cfg = small_config(methods=("closed-form",), marginals=FadingMarginals(1.0, 1.0))
    table = run_outage_sweep(cfg)
    assert (table.flag == OUT_OF_RANGE).any()
    assert not np.isnan(table.op).any()


def _fail_quadrature_at(monkeypatch, points):
    """Make the sweep's quadrature raise QuadratureNonConvergence for every
    grid holding one of ``points``, (theta, rate) pairs, with those points
    marked failed at every budget, as quadrature does where a point misses
    its error bound (see test_outage's ``_capped_grid``).  Per-point checks
    read ``swmac.sweep.outage_quadrature`` to see the same failures."""
    import swmac.sweep as sweep_module

    evaluate = sweep_module.outage_quadrature

    def quadrature(thetas, marginals, budgets, rates):
        curve = evaluate(thetas, marginals, budgets, rates)
        failed = np.array([[(t.theta, r) in points for r in rates] for t in thetas])[:, None]
        if failed.any():
            raise QuadratureNonConvergence(
                f"error estimate stalls at one of {sorted(points)}",
                curve,
                failed & np.ones(curve.value.shape, dtype=bool),
            )
        return curve

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
        mc_samples=2000,
        **overrides,
    )


def _point_grid(cfg, table, b_i, t_i, r_i):
    """The 1x1x1 grid at one (budget, theta, rate) point of a sweep."""
    return (cfg.thetas[t_i],), cfg.marginals, (cfg.budgets[b_i],), (table.axes[2][r_i],)


def test_quadrature_nonconvergence_flags_only_the_failing_rows(monkeypatch):
    import swmac.sweep as sweep_module

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _flagged_config(methods=("quadrature",))
    table = run_outage_sweep(cfg)
    op, std_err, flag = (a[..., 0] for a in (table.op, table.std_err, table.flag))
    assert set(np.unique(flag).tolist()) == {OK, NONCONVERGENCE}
    for index in np.ndindex(op.shape):
        point = _point_grid(cfg, table, *index)
        if flag[index] == OK:
            assert op[index] == sweep_module.outage_quadrature(*point).value.item()
        else:
            assert math.isnan(op[index]) and math.isnan(std_err[index])
            with pytest.raises(QuadratureNonConvergence):
                sweep_module.outage_quadrature(*point)


def test_nonconvergence_on_a_theta_tuple_flags_only_the_failing_rows(monkeypatch):
    from swmac.sweep import _analytic_column

    # R = 1.55 fails for theta = -1 and 0.5 but not for 0; every other
    # (theta, rate) converges.
    _fail_quadrature_at(monkeypatch, {(-1.0, 1.55), (0.5, 1.55)})
    thetas = tuple(DependenceParameter(t) for t in (-1.0, 0.0, 0.5))
    rates = (0.05, 1.3, 1.55, 1.8)
    cfg = small_config(
        budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0),), thetas=thetas,
        marginals=FadingMarginals(1.0, 1.0),
    )
    values, flags = _analytic_column(cfg, rates, "quadrature")
    expected = np.full((1, 3, 4), OK)
    expected[0, [0, 2], 2] = NONCONVERGENCE
    assert flags.tolist() == expected.tolist()
    for t_i, theta in enumerate(thetas):
        for r_i, rate in enumerate(rates):
            point = ((theta,), cfg.marginals, cfg.budgets, (rate,))
            if flags[0, t_i, r_i] == OK:
                assert values[0, t_i, r_i] == outage_quadrature(*point).value.item()
            else:
                assert math.isnan(values[0, t_i, r_i])


def test_serial_and_parallel_csv_byte_identical_with_flagged_rows(tmp_path, monkeypatch):
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _flagged_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    table = run_outage_sweep(cfg, workers=1)
    emit_csv(table, serial)
    emit_csv(run_outage_sweep(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert set(np.unique(table.flag).tolist()) == {OK, DEGENERATE, NONCONVERGENCE, OUT_OF_RANGE}


def test_stalled_quadrature_grid_takes_one_call_and_flags_the_failing_points(monkeypatch):
    # Unit noise with quadrature capped at one panel per point, and no
    # injected failure: the larger of these (theta, rate) points are not
    # settled by their first panel.  One quadrature call flags exactly the
    # points whose 1x1x1 call raises.
    import swmac.sweep as sweep_module

    calls = []
    evaluate = sweep_module.outage_quadrature

    def counted(*grid):
        calls.append(grid)
        return evaluate(*grid)

    monkeypatch.setattr(sweep_module, "outage_quadrature", counted)
    monkeypatch.setattr("swmac.outage._MAX_PANELS", 1)
    cfg = small_config(
        thetas=tuple(DependenceParameter(t) for t in (-1.0, 0.0, 0.5)),
        rate_grid=RateGrid(1.5, 2.5, 0.1),
        marginals=FadingMarginals(1.0, 1.0),
        methods=("quadrature",),
    )
    table = run_outage_sweep(cfg)
    assert len(calls) == 1
    op, flag = table.op[..., 0], table.flag[..., 0]
    for index in np.ndindex(op.shape):
        try:
            expected = outage_quadrature(*_point_grid(cfg, table, *index))
        except QuadratureNonConvergence:
            assert flag[index] == NONCONVERGENCE and math.isnan(op[index])
        else:
            assert flag[index] == OK and op[index] == expected.value.item()
    assert 0 < (flag == NONCONVERGENCE).sum() < len(table)


@pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
def test_quadrature_converges_at_an_extreme_fading_rate_ratio(abs_tol):
    # lambda1/lambda2 = 6e8 with gamma/B near 6e5: the outage is about 1,
    # yet QUADPACK's error estimate used to stall here above its bound and
    # flag every row quadrature-nonconvergence.  Each value is within the
    # relative bound and within each absolute tolerance quadrature accepted
    # before its bound was made relative-only.
    cfg = small_config(
        budgets=(PowerBudget(0.0, 2e-4, 12.8, 144.0),),
        thetas=(DependenceParameter(-1.0), DependenceParameter(0.0)),
        rate_grid=RateGrid(7.7, 7.9, 0.1),
        marginals=FadingMarginals(3e4, 5e-5),
        methods=("quadrature",),
    )
    table = run_outage_sweep(cfg)
    assert len(table) == 6 and (table.flag == OK).all()
    gammas = gamma_threshold(table.axes[2], 144.0).tolist()
    for (t_i, theta), (r_i, gamma) in product(enumerate(table.axes[1]), enumerate(gammas)):
        v = table.op[0, t_i, r_i, 0]
        exact = decimal_outage(3e4, 5e-5, 2e-4, 12.8, gamma, theta)
        assert abs(v - exact) <= min(abs_tol, 1e-12 * v)


def _three_theta_flagged_config():
    # 2 budgets x 3 thetas with every flag: out-of-range and degenerate
    # closed forms, and quadrature nonconvergence under _FLAGGED_FAILURES.
    return replace(
        _flagged_config(),
        thetas=(DependenceParameter(-1.0), DependenceParameter(0.5), DependenceParameter(1.0)),
    )


def _expected_block(cfg, b_i, method):
    """(op, std_err, flag) arrays over one budget's (theta, rate) block of
    ``method``, from one call of its evaluator on that budget alone (for
    Monte Carlo, seeded by derive_seed(seed, 0))."""
    import swmac.sweep as sweep_module

    grid = (cfg.thetas, cfg.marginals, (cfg.budgets[b_i],), cfg.rate_grid.values())
    failed, failure, std_err = False, OK, None
    try:
        if method == "closed-form":
            curve = outage_closed_form(*grid)
        elif method == "quadrature":
            curve = sweep_module.outage_quadrature(*grid)
        else:
            curve = outage_monte_carlo(*grid, cfg.mc_samples, derive_seed(cfg.seed, 0))
            std_err = curve.std_error[:, 0]
    except DegenerateDenominator as exc:
        curve, failed, failure = exc.curve, exc.failed, DEGENERATE
    except QuadratureNonConvergence as exc:
        curve, failed, failure = exc.curve, exc.failed, NONCONVERGENCE
    op = np.where(failed, np.nan, curve.value)[:, 0]
    flag = np.where(failed, failure, np.where(curve.out_of_range, OUT_OF_RANGE, OK))[:, 0]
    return op, np.full(op.shape, np.nan) if std_err is None else std_err, flag


def test_sweep_table_blocks_equal_grid_results(monkeypatch):
    # Each (budget, method) block of the table holds its evaluator's grid
    # answer, equal to the call on that budget alone; test_outage checks
    # that every grid entry equals its 1x1x1 call.
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    table = run_outage_sweep(cfg)
    assert isinstance(table, SweepTable)
    rates = cfg.rate_grid.values()
    assert table.axes == ((0, 1), (-1.0, 0.5, 1.0), rates, cfg.methods)
    assert len(table) == 2 * 3 * len(rates) * 3
    for b_i, (m_i, method) in product(range(len(cfg.budgets)), enumerate(cfg.methods)):
        op, std_err, flag = _expected_block(cfg, b_i, method)
        assert table.op[b_i, ..., m_i].tobytes() == op.tobytes()
        assert table.std_err[b_i, ..., m_i].tobytes() == std_err.tobytes()
        assert table.flag[b_i, ..., m_i].tolist() == flag.tolist()
    assert {FLAGS[c] for c in np.unique(table.flag).tolist()} == set(FLAGS)


def test_three_theta_flagged_csv_independent_of_workers_and_row_source(tmp_path, monkeypatch):
    import swmac.sweep as sweep_module

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    table = run_outage_sweep(cfg, workers=1)
    emit_csv(table, serial)
    emit_csv(run_outage_sweep(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    monkeypatch.setattr(sweep_module, "BLOCK_SIZE", 7)  # many blocks, one partial
    emit_csv(table, parallel)
    assert parallel.read_bytes() == serial.read_bytes()
    # The row-by-row writer this columnar one replaced, kept as the reference.
    lines = [SWEEP_HEADER] + [
        ",".join(
            (
                str(budget_id),
                format_value(theta),
                format_value(rate),
                method,
                format_value(_none_if_nan(op)),
                format_value(_none_if_nan(std_err)),
                FLAGS[flag],
            )
        )
        for (budget_id, theta, rate, method), op, std_err, flag in zip(
            product(*table.axes),
            table.op.ravel().tolist(),
            table.std_err.ravel().tolist(),
            table.flag.ravel().tolist(),
        )
    ]
    assert serial.read_text() == "\n".join(lines) + "\n"


def test_sweep_calls_the_spans_the_benchmark_traces(monkeypatch):
    # perfbench/run.py reads per-layer metrics from spans of these names and
    # takes percentiles and medians over them, which fail on an empty list:
    # outage.closed_form_us_p50/_p99/_calls (outage.outage_closed_form),
    # outage.quadrature_us_p50/_p99/_calls (outage.outage_quadrature),
    # config.rate_values_us (config.RateGrid.values), all on analytic-grid,
    # and streams.substream_us (streams.substream) on mc-sweep; the Monte
    # Carlo rows come from outage.outage_monte_carlo (outage.monte_carlo_ns
    # and outage.count_ns_derived on mc-sweep).  A sweep that
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
    spy(sweep_module, "outage_monte_carlo")
    spy(RateGrid, "values")
    spy(copula_module, "substream")
    run_outage_sweep(small_config(mc_samples=1000))
    assert set(calls) == {
        "outage_closed_form",
        "outage_quadrature",
        "outage_monte_carlo",
        "values",
        "substream",
    }


def test_analytic_methods_make_one_call_per_sweep(monkeypatch):
    # The analytic evaluators take the whole (theta x budget x rate) grid in
    # one call, even where a budget's closed form is degenerate and
    # quadrature fails at some points; one call per budget would be 3 times
    # as many here.
    import swmac.sweep as sweep_module

    calls = {}

    def spy(name):
        original = getattr(sweep_module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, counted)

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    spy("outage_closed_form")
    spy("outage_quadrature")
    cfg = replace(
        _flagged_config(methods=("closed-form", "quadrature")),
        budgets=_flagged_config().budgets + (PowerBudget(0.3, 2.0, 1.0, 0.5),),
    )
    rows = run_outage_sweep(cfg, workers=2)
    assert calls == {"outage_closed_form": 1, "outage_quadrature": 1}
    assert len(rows) == 3 * 2 * len(cfg.rate_grid.values()) * 2
    assert {FLAGS[c] for c in np.unique(rows.flag).tolist()} == set(FLAGS)
    assert (rows.flag[1, ..., 0] == DEGENERATE).all() and DEGENERATE not in rows.flag[[0, 2]]


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
    one = (1, 1, 1, 1)
    table = SweepTable(
        ((0,), (-0.5,), (0.30000000000000004,), ("quadrature",)),
        np.full(one, 1.0 / 3.0),
        np.full(one, np.nan),
        np.full(one, OK),
    )
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
    table = run_outage_sweep(cfg)
    _, thetas, rates, _ = table.axes
    assert list(thetas) == sorted(thetas) and list(rates) == sorted(rates)
    op = table.op[..., 0]  # (budget, theta, rate)
    # OP nondecreasing in rate along each curve
    assert (np.diff(op, axis=2) >= 0.0).all()
    # negative dependence outperforms positive at every rate
    assert (np.diff(op, axis=1) >= 0.0).all()
    # larger p2 lowers the curve pointwise
    assert (op[1] <= op[0]).all()


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
    assert len(report) == 3
    budget = cfg.budgets[0]
    for point in _report_points(report):
        gamma = budget.noise * (2.0 ** (2.0 * point.rate) - 1.0)
        residual = closed_form_residual(1.0, 2.0, 1.0, 5.0, gamma)
        assert report.pairs == (("closed-form", "quadrature"),)
        (got,) = point.diffs
        assert got == pytest.approx(-residual, abs=1e-9)
        assert point.closed_form_deviation == pytest.approx(got)


def test_compare_z_scores_and_flags():
    report = compare_methods(small_config(mc_samples=100_000))
    zs = [p.z_quad_mc for p in _report_points(report)]
    assert all(z is not None for z in zs)
    assert any(math.isfinite(z) for z in zs)
    assert "closed-form:out-of-range" in report.flag_counts
    lines = report.summary_lines()
    assert lines[0] == "points compared: 9"


def test_compare_quadrature_against_monte_carlo():
    cfg = small_config(methods=("quadrature", "monte-carlo"))
    report = compare_methods(cfg)
    assert len(report) == 9
    for p in _report_points(report):
        assert abs(p.z_quad_mc) <= 6.0


def test_compare_keeps_every_point_of_a_duplicated_theta():
    # Each point must be built from its own rows.  Every theta shares the
    # sweep's one draw set, so the two theta = 0.5 blocks carry the same MC
    # values.
    cfg = small_config(thetas=(DependenceParameter(0.5), DependenceParameter(0.5)))
    sweep_points = _sweep_points(run_outage_sweep(cfg))
    report = compare_methods(cfg)
    points = _report_points(report)
    assert len(report) == len(points) == len(sweep_points) == 6
    for point, (key, rows) in zip(points, sweep_points):
        ops = {method: op for method, (op, _, _) in rows.items()}
        assert (point.budget_id, point.theta, point.rate) == key
        assert point.diffs == tuple(
            ops[a] - ops[b] if ops[a] is not None and ops[b] is not None else None
            for a, b in report.pairs
        )
    mc = [p.diffs[report.pairs.index(("quadrature", "monte-carlo"))] for p in points]
    assert mc[:3] == mc[3:]


def _sweep_points(table):
    """The table read back one (budget, theta, rate) point at a time: its
    key and, per method in config order, (op, std_err, flag) with None for
    NaN."""
    methods = table.axes[3]
    columns = (a.reshape(-1, len(methods)).tolist() for a in (table.op, table.std_err, table.flag))
    return [
        (
            key,
            {
                method: (_none_if_nan(op), _none_if_nan(std_err), FLAGS[flag])
                for method, op, std_err, flag in zip(methods, *row)
            },
        )
        for key, row in zip(product(*table.axes[:3]), zip(*columns))
    ]


#: One comparison point, None where the report holds NaN.
_Point = namedtuple("_Point", "budget_id theta rate diffs z_quad_mc closed_form_deviation flags")


def _report_points(report):
    """The report's arrays read back one point at a time."""
    return [
        _Point(
            *key,
            tuple(map(_none_if_nan, diffs)),
            _none_if_nan(z),
            _none_if_nan(deviation),
            tuple(label for label, on in zip(report.flag_labels, flags) if on),
        )
        for key, diffs, z, deviation, flags in zip(
            product(*report.axes),
            report.diffs.tolist(),
            report.z_quad_mc.tolist(),
            report.closed_form_deviation.tolist(),
            report.flags.tolist(),
        )
    ]


def _row_by_row_comparison(cfg, table):
    """The comparison points built one sweep point at a time."""
    points = []
    for key, rows in _sweep_points(table):
        ops = {method: op for method, (op, _, _) in rows.items()}
        flags = [f"{method}:{flag}" for method, (_, _, flag) in rows.items() if flag != FLAG_OK]
        diffs = tuple(
            ops[a] - ops[b] if ops[a] is not None and ops[b] is not None else None
            for a, b in (("closed-form", "quadrature"), ("closed-form", "monte-carlo"), ("quadrature", "monte-carlo"))
        )
        z = None
        if ops["quadrature"] is not None:
            diff = ops["quadrature"] - ops["monte-carlo"]
            std_err = rows["monte-carlo"][1]
            z = diff / std_err if std_err > 0.0 else (0.0 if diff == 0.0 else math.copysign(math.inf, diff))
            if abs(z) > 3.29:
                flags.append("large-z")
        deviation = None
        if ops["closed-form"] is not None and ops["quadrature"] is not None:
            deviation = ops["closed-form"] - ops["quadrature"]
            if abs(deviation) > 1e-9:
                flags.append("closed-form-deviation")
        points.append(_Point(*key, diffs, z, deviation, tuple(flags)))
    return points


def _csv_writer_comparison(points, pairs, path):
    """The comparison CSV written point by point through ``csv.writer``, the
    writer the shared block writer replaced."""
    header = ["budget_id", "theta", "rate"]
    header += [f"diff_{a}_{b}" for a, b in pairs] + ["z_quad_mc", "flags"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for p in points:
            row = [str(p.budget_id), format_value(p.theta), format_value(p.rate)]
            row.extend(format_value(d) for d in p.diffs)
            if p.z_quad_mc is None:
                row.append("")
            elif math.isinf(p.z_quad_mc):
                row.append("inf" if p.z_quad_mc > 0 else "-inf")
            else:
                row.append(format_value(p.z_quad_mc))
            row.append(";".join(p.flags))
            writer.writerow(row)


def test_compare_equals_row_by_row_reference(tmp_path, monkeypatch):
    import swmac.sweep as sweep_module

    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    assert cfg.methods == ("closed-form", "quadrature", "monte-carlo")
    report = compare_methods(cfg)
    expected = _row_by_row_comparison(cfg, run_outage_sweep(cfg))
    assert _report_points(report) == expected
    got, reference = tmp_path / "got.csv", tmp_path / "reference.csv"
    _csv_writer_comparison(expected, report.pairs, reference)
    emit_comparison_csv(report, got)
    assert got.read_bytes() == reference.read_bytes()
    monkeypatch.setattr(sweep_module, "BLOCK_SIZE", 7)  # many blocks, one partial
    emit_comparison_csv(report, got)
    assert got.read_bytes() == reference.read_bytes()
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


def test_flagged_compare_csv_independent_of_workers(tmp_path, monkeypatch):
    _fail_quadrature_at(monkeypatch, _FLAGGED_FAILURES)
    cfg = _three_theta_flagged_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_comparison_csv(compare_methods(cfg, workers=1), serial)
    emit_comparison_csv(compare_methods(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert "quadrature:quadrature-nonconvergence" in serial.read_text()


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
    (point,) = _report_points(report)
    (diff,) = point.diffs
    assert diff < 0.0 and point.z_quad_mc == -math.inf
    assert point.flags == ("large-z",)
    path = tmp_path / "cmp.csv"
    emit_comparison_csv(report, path)
    assert path.read_text().splitlines()[1] == f"0,0.5,2.45,{format_value(diff)},-inf,large-z"


def _report(z_quad_mc, large_z):
    """A report on points with no method pair or closed-form deviation."""
    n = len(z_quad_mc)
    return ComparisonReport(
        axes=((0,), (0.0,), (0.5,) * n),
        pairs=(),
        diffs=np.empty((n, 0)),
        z_quad_mc=np.array(z_quad_mc),
        closed_form_deviation=np.full(n, np.nan),
        flag_labels=("large-z",),
        flags=np.array(large_z).reshape(n, 1),
    )


def test_summary_counts_points_with_non_finite_z():
    report = _report([math.nan, -1.5, math.inf, math.inf], [False, False, True, True])
    assert report.flag_counts == {"large-z": 2}
    assert report.summary_lines() == [
        "points compared: 4",
        "  large-z: 2",
        "max |z| (quadrature vs monte-carlo): 1.500",
        "non-finite z (quadrature vs monte-carlo): 2 points",
    ]
    assert "non-finite" not in "".join(_report([math.nan, -1.5], [False, False]).summary_lines())


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
    assert len(parsed) == 1 + len(report)


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


@contextmanager
def _on_cpus(*cpus):
    """Within the block this process may run on ``cpus`` only, so that
    ``emit_samples`` pools one worker per entry, even on a 1-CPU host."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        yield


@pytest.mark.parametrize("n", [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 70_000, 200_000])
def test_pooled_emit_samples_writes_the_serial_bytes(forked_pool_of_two, tmp_path, n):
    cfg = small_config()
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    with _on_cpus(0):
        emit_samples(cfg, -0.4, n, serial)
    emit_samples(cfg, -0.4, n, pooled)
    assert pooled.read_bytes() == serial.read_bytes()
    _assert_every_worker_reaped()


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


def _emit_samples_of(n, path):
    with _on_cpus(0):
        emit_samples(small_config(), 0.9, n, path)


def _pooled_emit_samples_of(n, path):
    # the parent only reads and writes each block's text
    with _on_cpus(0, 1):
        emit_samples(small_config(), 0.9, n, path)


def _monte_carlo_grid_of(n, path):
    cfg = small_config(budgets=(PowerBudget(0.0, 1.0, 5.0, 1.0), PowerBudget(0.5, 2.0, 1.0, 0.5)))
    outage_monte_carlo(cfg.thetas, cfg.marginals, cfg.budgets, cfg.rate_grid.values(), n, cfg.seed)


@pytest.mark.parametrize("run", [_emit_samples_of, _pooled_emit_samples_of, _monte_carlo_grid_of])
def test_streaming_memory_does_not_grow_with_sample_count(run, tmp_path):
    # Peak traced allocation above the memory held before the call: at
    # 200,000 pairs (several substream chunks) it stays within 2x of the
    # peak at two blocks, since at most one block is held at a time.
    path = tmp_path / "out.csv"

    def peak(n):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run(n, path)
        return tracemalloc.get_traced_memory()[1] - held

    tracemalloc.start()
    try:
        run(2 * BLOCK_SIZE, path)  # warm-up: imports, caches
        small = peak(2 * BLOCK_SIZE)
        large = peak(200_000)
    finally:
        tracemalloc.stop()
    assert large < 2 * small, (small, large)
