"""Sweep execution, cross-method comparison, and deterministic CSV output.

A sweep evaluates every (budget, theta, rate, method) combination of a
config and returns the rows in lexicographic index order.  The analytic
methods run once per budget over every theta and rate: their values are
affine in theta, so one call shares every theta-free term.  Monte Carlo
runs once per theta block: the gain law depends on theta alone, so the
Monte Carlo rows at one theta share a single draw set, seeded by (master
seed, theta index) and scored against every budget and rate.  Only the
theta blocks go to worker processes, one process per worker, with its
theta slice given up front; the parent evaluates the analytic methods
meanwhile.  Row values therefore do not depend on execution order or
worker count, and two runs of the same config produce byte-identical CSV.

Evaluator failures (degenerate closed-form denominators, quadrature
non-convergence) do not abort a sweep; the affected row carries an error
flag and an empty value instead.

A sweep is a dense (budget, theta, rate, method) grid of arrays, and a
comparison holds arrays over the same grid's (budget, theta, rate) points;
one block writer emits both CSVs from those arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress, islice, product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import MAX_SAMPLES, ExperimentConfig, ValidationError
from .copula import DependenceParameter, GainPair, iter_gain_pair_chunks
from .outage import (
    CLOSED_FORM,
    METHODS,
    MONTE_CARLO,
    QUADRATURE,
    DegenerateDenominator,
    OutageEvaluationError,
    OutageQuery,
    QuadratureNonConvergence,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from .regions import (
    PowerBudget,
    RatePoint,
    VertexMembershipError,
    contains,
    gaussian_region_bounds,
    region_vertices,
    wireless_region_bounds,
)
from .streams import BLOCK_SIZE, derive_seed

__all__ = [
    "FLAG_OK",
    "FLAG_OUT_OF_RANGE",
    "FLAG_DEGENERATE",
    "FLAG_NONCONVERGENCE",
    "FLAGS",
    "SWEEP_HEADER",
    "SweepTable",
    "ComparisonReport",
    "run_outage_sweep",
    "compare_methods",
    "emit_csv",
    "emit_region",
    "emit_samples",
    "emit_comparison_csv",
    "format_value",
]

FLAG_OK = "ok"
FLAG_OUT_OF_RANGE = "out-of-range"
FLAG_DEGENERATE = "degenerate-denominator"
FLAG_NONCONVERGENCE = "quadrature-nonconvergence"

#: Bit-exact sweep CSV header.
SWEEP_HEADER = "budget_id,theta,rate,method,op,std_err,flag"

#: z-score magnitude beyond which a quadrature/Monte-Carlo pair is flagged
#: (two-sided normal 99.9% point).
Z_FLAG_THRESHOLD = 3.29


#: Flags a sweep row can carry; a table stores a row's flag as its position
#: in this tuple.
FLAGS = (FLAG_OK, FLAG_OUT_OF_RANGE, FLAG_DEGENERATE, FLAG_NONCONVERGENCE)
_OK, _OUT_OF_RANGE, _DEGENERATE, _NONCONVERGENCE = range(len(FLAGS))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep results as the dense grid the sweep fills.

    ``axes`` holds the budget ids, theta values, rates and methods.  ``op``,
    ``std_err`` and ``flag`` are arrays shaped by those axes, (budget,
    theta, rate, method): ``op`` and ``std_err`` with NaN where a row has no
    value, ``flag`` with each row's position in :data:`FLAGS`.  Rows are the
    grid's entries in row-major order; ``len`` counts them.
    """

    axes: tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...], tuple[str, ...]]
    op: np.ndarray
    std_err: np.ndarray
    flag: np.ndarray

    def __len__(self) -> int:
        return self.op.size


def _analytic_column(
    query: OutageQuery, method: str, quad_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values (NaN where a row has none) and flag codes of one budget's
    (theta, rate) grid of an analytic method, from one evaluator call on a
    query with a theta tuple and a rate tuple.  A degenerate closed form
    flags the whole grid; quadrature flags the points it marks failed."""
    try:
        if method == CLOSED_FORM:
            curve = outage_closed_form(query)
            return curve.value, np.where(curve.out_of_range, _OUT_OF_RANGE, _OK)
        value = outage_quadrature(query, tol=quad_tol).value
        return value, np.full(value.shape, _OK)
    except DegenerateDenominator:
        shape = (len(query.thetas), len(query.rates))
        return np.full(shape, np.nan), np.full(shape, _DEGENERATE)
    except QuadratureNonConvergence as exc:
        return np.where(exc.failed, np.nan, exc.value), np.where(exc.failed, _NONCONVERGENCE, _OK)


def _theta_block(
    config: ExperimentConfig, t_i: int, rates: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo values and standard errors at theta index ``t_i`` as
    (budget, rate) arrays, from one draw set."""
    curve = outage_monte_carlo(
        config.thetas[t_i],
        config.marginals,
        config.budgets,
        rates,
        config.mc_samples,
        derive_seed(config.seed, t_i),
    )
    return curve.value, curve.std_error


def _theta_slice(
    conn, config: ExperimentConfig, t_indices: range, rates: tuple[float, ...]
) -> None:
    """Worker body: send through ``conn`` the :func:`_theta_block` of each
    of ``t_indices`` as a list, or the exception that stopped them."""
    try:
        result = [_theta_block(config, t_i, rates) for t_i in t_indices]
    except Exception as exc:  # handed to the parent, which re-raises it
        result = exc
    conn.send(result)
    conn.close()


def _receive(conn, proc) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks a :func:`_theta_slice` worker sent; re-raises the
    exception it sent instead, and raises :class:`OutageEvaluationError`
    naming its exit code if it died without answering."""
    try:
        result = conn.recv()
    except EOFError:
        proc.join()
        raise OutageEvaluationError(
            f"Monte Carlo worker {proc.name} exited with code {proc.exitcode} "
            "before sending its theta blocks"
        ) from None
    if isinstance(result, BaseException):
        raise result
    return result


def _pool_size(workers: int, tasks: int, cpus: Optional[int]) -> int:
    """Processes to start for ``tasks`` independent tasks: ``workers``
    (0 = one per CPU), capped at the CPU count and at the task count."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    cpus = cpus or 1
    return max(1, min(workers or cpus, cpus, tasks))


def run_outage_sweep(config: ExperimentConfig, workers: int = 1) -> SweepTable:
    """Evaluate the full sweep; returns a :class:`SweepTable` whose rows are
    in lexicographic (budget, theta, rate, method) index order.

    ``workers`` > 1 fans the Monte Carlo theta blocks out across processes
    while the parent evaluates the analytic methods; 0 means one per CPU
    this process may run on.  The pool never exceeds that CPU count or the
    number of theta blocks, and a sweep without Monte Carlo starts none.
    Results are identical for any worker count.  An exception that stops a
    worker is re-raised here with its own type; a worker that dies without
    answering raises :class:`OutageEvaluationError` naming its exit code.
    """
    for i, budget in enumerate(config.budgets):
        if not budget.p0 < min(budget.p1, budget.p2):
            raise ValidationError(
                f"budget {i}: outage sweeps need p0 < min(p1, p2) strictly, "
                f"got p0={budget.p0}, p1={budget.p1}, p2={budget.p2}"
            )
    rates = config.rate_grid.values()
    shape = (len(config.budgets), len(config.thetas), len(rates), len(config.methods))
    op = np.full(shape, np.nan)
    std_err = np.full(shape, np.nan)
    flag = np.full(shape, _OK, dtype=np.int8)

    def analytic() -> None:
        for b_i, budget in enumerate(config.budgets):
            query = OutageQuery(rates, budget, config.marginals, config.thetas)
            for m_i, method in enumerate(config.methods):
                if method != MONTE_CARLO:
                    op[b_i, ..., m_i], flag[b_i, ..., m_i] = _analytic_column(
                        query, method, config.quad_tol
                    )

    mc_blocks = range(len(config.thetas)) if MONTE_CARLO in config.methods else range(0)
    # the CPUs this process may run on, where the platform reports them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = _pool_size(workers, len(mc_blocks), cpus)
    if pool_size == 1:
        analytic()
        blocks = [_theta_block(config, t_i, rates) for t_i in mc_blocks]
    else:
        # imported here, so that commands that start no pool do not pay for it
        import multiprocessing

        # Worker w draws theta blocks w, w + pool_size, ...: every block costs
        # the same, so a fixed slice balances as well as a task queue would.
        pool = []
        try:
            for w in range(pool_size):
                conn, child_conn = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(
                    target=_theta_slice, args=(child_conn, config, mc_blocks[w::pool_size], rates)
                )
                proc.start()
                pool.append((conn, proc))
                # the worker now holds the only write end, so its death ends the pipe
                child_conn.close()
            analytic()  # in the parent, while the workers draw
            blocks = [None] * len(mc_blocks)
            for w, (conn, proc) in enumerate(pool):
                blocks[w::pool_size] = _receive(conn, proc)
        except BaseException:
            for _, proc in pool:
                proc.terminate()  # their blocks are no longer wanted
            raise
        finally:
            for conn, proc in pool:
                conn.close()
                proc.join()
    if blocks:
        m_i = config.methods.index(MONTE_CARLO)
        op[..., m_i], std_err[..., m_i] = (np.stack(column, axis=1) for column in zip(*blocks))
    axes = (
        tuple(range(len(config.budgets))),
        tuple(theta.theta for theta in config.thetas),
        rates,
        config.methods,
    )
    return SweepTable(axes, op, std_err, flag)


def _method_pairs(methods: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """Every pair of the given methods, each pair and its sides in
    :data:`METHODS` order."""
    ordered = [m for m in METHODS if m in methods]
    return tuple((a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :])


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Cross-method comparison as arrays over the sweep's (budget, theta,
    rate) points, in sweep row order.

    ``axes`` holds the budget ids, theta values and rates.  ``diffs[:, i]``
    is value(A) - value(B) for the i-th (A, B) of ``pairs``.  ``z_quad_mc``
    is (quadrature - monte-carlo)/std_err (infinite, with the sign of the
    difference, if std_err is 0 and the difference is not), and
    ``closed_form_deviation`` is closed-form - quadrature.  All three are
    NaN where a side has no value.  ``flags[:, j]`` marks the points that
    carry ``flag_labels[j]``.
    """

    axes: tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]
    pairs: tuple[tuple[str, str], ...]
    diffs: np.ndarray
    z_quad_mc: np.ndarray
    closed_form_deviation: np.ndarray
    flag_labels: tuple[str, ...]
    flags: np.ndarray

    def __len__(self) -> int:
        return len(self.z_quad_mc)

    @property
    def flag_counts(self) -> dict[str, int]:
        """Number of points carrying each flag, for the flags some point carries."""
        counts = self.flags.sum(axis=0).tolist()
        return {label: n for label, n in zip(self.flag_labels, counts) if n}

    def summary_lines(self) -> list[str]:
        lines = [f"points compared: {len(self)}"]
        flag_counts = self.flag_counts
        for flag in sorted(flag_counts):
            lines.append(f"  {flag}: {flag_counts[flag]}")
        zs = np.abs(self.z_quad_mc[~np.isnan(self.z_quad_mc)])
        finite = zs[np.isfinite(zs)]
        if finite.size:
            lines.append(f"max |z| (quadrature vs monte-carlo): {finite.max():.3f}")
        n_infinite = zs.size - finite.size
        if n_infinite:
            lines.append(f"non-finite z (quadrature vs monte-carlo): {n_infinite} points")
        devs = np.abs(self.closed_form_deviation[~np.isnan(self.closed_form_deviation)])
        if devs.size:
            lines.append(f"max |closed-form - quadrature|: {devs.max():.6e}")
        return lines


def compare_methods(config: ExperimentConfig, workers: int = 1) -> ComparisonReport:
    """Cross-method comparison over the config's sweep.

    Requires at least two methods in the config.  One point per sweep
    point, in sweep row order.  A closed-form row deviating from quadrature
    by more than 10x the quadrature tolerance is flagged
    ``closed-form-deviation``; a |z| above 3.29 is flagged ``large-z``;
    row-level error and out-of-range flags are propagated as
    ``<method>:<flag>`` and counted.
    """
    if len(config.methods) < 2:
        raise ValidationError("comparison requires at least two methods")
    table = run_outage_sweep(config, workers=workers)
    methods = config.methods
    # one row per (budget, theta, rate) point, one column per method
    op, std_err, flag = (a.reshape(-1, len(methods)) for a in (table.op, table.std_err, table.flag))
    ops, std_errs = (dict(zip(methods, a.T)) for a in (op, std_err))
    missing = np.full(len(op), np.nan)
    quad, mc, cf = (ops.get(m, missing) for m in (QUADRATURE, MONTE_CARLO, CLOSED_FORM))
    pairs = _method_pairs(methods)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero std_err gives an infinite z with the sign of the difference
        z = np.where(quad == mc, 0.0, (quad - mc) / std_errs.get(MONTE_CARLO, missing))
    deviation = cf - quad
    # each method's error flags in config order, then the comparison flags:
    # a point's flags read in label order, as the CSV writes them
    flag_labels = tuple(f"{m}:{f}" for m in methods for f in FLAGS[1:])
    flags = np.column_stack(
        (
            (flag[:, :, None] == np.arange(1, len(FLAGS))).reshape(len(op), -1),
            np.abs(z) > Z_FLAG_THRESHOLD,
            np.abs(deviation) > 10.0 * config.quad_tol,
        )
    )
    return ComparisonReport(
        axes=table.axes[:3],
        pairs=pairs,
        diffs=np.column_stack([ops[a] - ops[b] for a, b in pairs]),
        z_quad_mc=z,
        closed_form_deviation=deviation,
        flag_labels=flag_labels + ("large-z", "closed-form-deviation"),
        flags=flags,
    )


def format_value(x: Optional[float]) -> str:
    """Decimal formatting with 12 significant digits; None becomes empty."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def _write_csv(
    path: str | Path, header: str, axes: tuple, columns: Sequence[np.ndarray],
    codes: np.ndarray, texts: Sequence[str],
) -> None:
    """Write one line per entry of the ``axes`` grid, in row-major order:
    the entry's key (budget id, theta, rate and any further axes), each of
    ``columns`` at 12 significant digits (empty where NaN), and last
    ``texts[code]``.  Each axis value is formatted once, and lines are
    formatted and written one block of ``BLOCK_SIZE`` rows at a time, so the
    text buffers do not grow with the table.
    """
    budgets, thetas, rates, *rest = axes
    keys = map(
        ",".join,
        product(map(str, budgets), map(format_value, thetas), map(format_value, rates), *rest),
    )
    endings = [text + "\n" for text in texts]  # the last column ends the line
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(codes), BLOCK_SIZE):
            block = slice(start, start + BLOCK_SIZE)
            values = (
                ["" if x != x else format(x, ".12g") for x in column[block].tolist()]  # NaN: None
                for column in columns
            )
            last = map(endings.__getitem__, codes[block].tolist())
            fh.write("".join(map(",".join, zip(islice(keys, BLOCK_SIZE), *values, last))))


def emit_csv(table: SweepTable, path: str | Path) -> None:
    """Write a sweep table as CSV, byte-deterministic for identical inputs.

    Fixed header and column order, 12-significant-digit decimals, line
    feeds as the only separators.  Each axis value (a theta, a rate, a
    method) is formatted once.
    """
    op, std_err, flag = (a.ravel() for a in (table.op, table.std_err, table.flag))
    _write_csv(path, SWEEP_HEADER, table.axes, (op, std_err), flag, FLAGS)


def emit_region(
    budget: PowerBudget,
    gains: Optional[GainPair],
    r0: float,
    path: str | Path,
) -> list[tuple[float, float]]:
    """Write the (R1, R2) region vertices at common rate ``r0`` as CSV.

    Uses the instantaneous region when ``gains`` is given, else the
    Gaussian region.  Coordinates are written with full round-trip
    precision so re-reading and re-checking membership is exact.  Returns
    the vertex list; raises :class:`VertexMembershipError`, before writing
    anything, if a vertex fails that check.
    """
    bounds = (
        wireless_region_bounds(budget, gains)
        if gains is not None
        else gaussian_region_bounds(budget)
    )
    vertices = region_vertices(bounds, r0)
    for x, y in vertices:
        if not contains(bounds, RatePoint(r0, x, y)):
            raise VertexMembershipError(
                f"vertex ({x!r}, {y!r}) lies outside region {bounds} at r0={r0!r}"
            )
    with open(path, "w", newline="") as fh:
        fh.write("r1,r2\n")
        for x, y in vertices:
            fh.write(f"{x!r},{y!r}\n")
    return vertices


def emit_samples(config: ExperimentConfig, theta_value: float, n: int, path: str | Path) -> None:
    """Write ``n`` correlated gain pairs as CSV (columns g1, g2).

    Deterministic for a fixed config seed; values come from the same
    chunked substreams as the Monte Carlo evaluator.  Pairs are drawn,
    formatted and written one block of at most ``BLOCK_SIZE`` at a time, so
    memory does not grow with ``n``.  Raises ValueError, before drawing or
    opening ``path``, if ``n`` exceeds ``MAX_SAMPLES``.
    """
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count must be <= MAX_SAMPLES = {MAX_SAMPLES}, got {n}")
    theta = DependenceParameter(theta_value)
    blocks = iter_gain_pair_chunks(theta, config.marginals, n, config.seed)  # checks n
    with open(path, "w", newline="") as fh:
        fh.write("g1,g2\n")
        for block in blocks:
            fh.write("%r,%r\n" * len(block) % tuple(block.ravel().tolist()))


def emit_comparison_csv(report: ComparisonReport, path: str | Path) -> None:
    """Write a comparison report as CSV with one row per sweep point; the
    ``flags`` column joins the point's flag labels with ``;``."""
    header = ",".join(
        ["budget_id", "theta", "rate"]
        + [f"diff_{a}_{b}" for a, b in report.pairs]
        + ["z_quad_mc", "flags"]
    )
    # one text per distinct flag set
    flag_sets, codes = np.unique(report.flags, axis=0, return_inverse=True)
    texts = [";".join(compress(report.flag_labels, row)) for row in flag_sets.tolist()]
    columns = (*report.diffs.T, report.z_quad_mc)
    _write_csv(path, header, report.axes, columns, codes, texts)
