"""Sweep execution, cross-method comparison, and deterministic CSV output.

A sweep evaluates every (budget, theta, rate, method) combination of a
config and returns the rows in lexicographic index order.  The analytic
methods run once per budget over every theta and rate: their values are
affine in theta, so one call shares every theta-free term.  Monte Carlo
runs once per theta block: the gain law depends on theta alone, so the
Monte Carlo rows at one theta share a single draw set, seeded by (master
seed, theta index) and scored against every budget and rate.  Only the
theta blocks go to worker processes; the parent evaluates the analytic
methods meanwhile.  Row values therefore do not depend on execution order
or worker count, and two runs of the same config produce byte-identical
CSV.

Evaluator failures (degenerate closed-form denominators, quadrature
non-convergence) do not abort a sweep; the affected row carries an error
flag and an empty value instead.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig, ValidationError
from .copula import DependenceParameter, GainPair, iter_gain_pair_chunks
from .outage import (
    CLOSED_FORM,
    FLAG_OUT_OF_RANGE,
    METHODS,
    MONTE_CARLO,
    QUADRATURE,
    DegenerateDenominator,
    OutageQuery,
    QuadratureNonConvergence,
    outage_closed_form,
    outage_monte_carlo_grid,
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
from .streams import derive_seed

__all__ = [
    "FLAG_OK",
    "SWEEP_HEADER",
    "SweepRow",
    "SweepTable",
    "ComparisonPoint",
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
FLAG_DEGENERATE = "degenerate-denominator"
FLAG_NONCONVERGENCE = "quadrature-nonconvergence"

#: Bit-exact sweep CSV header.
SWEEP_HEADER = "budget_id,theta,rate,method,op,std_err,flag"

#: Rows :func:`emit_csv` formats per write, which bounds its text buffers.
_CSV_BLOCK_ROWS = 1 << 16

#: z-score magnitude beyond which a quadrature/Monte-Carlo pair is flagged
#: (two-sided normal 99.9% point).
Z_FLAG_THRESHOLD = 3.29


@dataclass(frozen=True)
class SweepRow:
    """One sweep result.  ``op`` and ``std_err`` are None when the
    evaluator failed (see ``flag``) or when inapplicable."""

    budget_id: int
    theta: float
    rate: float
    method: str
    op: Optional[float]
    std_err: Optional[float]
    flag: str


#: Flags a sweep row can carry; a theta block stores a row's flag as its
#: position in this tuple.
_FLAGS = (FLAG_OK, FLAG_OUT_OF_RANGE, FLAG_DEGENERATE, FLAG_NONCONVERGENCE)
_OK, _OUT_OF_RANGE, _DEGENERATE, _NONCONVERGENCE = range(len(_FLAGS))


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence[SweepRow]):
    """Sweep results as the dense grid the sweep fills; a read-only
    sequence of :class:`SweepRow` that builds rows only when indexed or
    iterated.

    ``axes`` holds the budget ids, theta values, rates and methods.  ``op``,
    ``std_err`` and ``flag`` are arrays shaped by those axes, (budget,
    theta, rate, method): ``op`` and ``std_err`` with NaN where the row
    holds None, ``flag`` with each row's position in ``_FLAGS``.  Rows are
    the grid's entries in row-major order.
    """

    axes: tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...], tuple[str, ...]]
    op: np.ndarray
    std_err: np.ndarray
    flag: np.ndarray

    def __len__(self) -> int:
        return self.op.size

    def __getitem__(self, i):
        rows = range(len(self))[i]  # IndexError past either end
        if isinstance(rows, range):
            return [self[j] for j in rows]
        index = np.unravel_index(rows, self.op.shape)
        b, t, r, m = (axis[k] for axis, k in zip(self.axes, index))
        op, std_err = _none_if_nan(self.op[index]), _none_if_nan(self.std_err[index])
        return SweepRow(b, t, r, m, op, std_err, _FLAGS[self.flag[index]])

    def __iter__(self):
        op = map(_none_if_nan, self.op.ravel().tolist())
        std_err = map(_none_if_nan, self.std_err.ravel().tolist())
        flag = map(_FLAGS.__getitem__, self.flag.ravel().tolist())
        for key, *values in zip(product(*self.axes), op, std_err, flag):
            yield SweepRow(*key, *values)

    def __eq__(self, other):
        if not isinstance(other, SweepTable):
            return NotImplemented
        return list(self) == list(other)


def _none_if_nan(x: float) -> Optional[float]:
    return None if math.isnan(x) else float(x)


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
    curve = outage_monte_carlo_grid(
        config.thetas[t_i],
        config.marginals,
        config.budgets,
        rates,
        config.mc_samples,
        derive_seed(config.seed, t_i),
    )
    return curve.value, curve.std_error


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
    while the parent evaluates the analytic methods; 0 means one per CPU.
    The pool never exceeds the CPU count or the number of theta blocks, and
    a sweep without Monte Carlo starts none.  Results are identical for any
    worker count.
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
    pool_size = _pool_size(workers, len(mc_blocks), os.cpu_count())
    if pool_size == 1:
        analytic()
        blocks = [_theta_block(config, t_i, rates) for t_i in mc_blocks]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(_theta_block, config, t_i, rates) for t_i in mc_blocks]
            analytic()  # in the parent, while the pool draws
            blocks = [future.result() for future in futures]
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


@dataclass(frozen=True)
class ComparisonPoint:
    """Pairwise method differences at one (budget, theta, rate) point.

    ``diffs[i]`` is value(A) - value(B) for the i-th (A, B) of the report's
    ``pairs``, or None where either row has no value.  ``z_quad_mc`` is
    (quadrature - monte-carlo)/std_err when both are present (infinite, with
    the sign of the difference, if std_err is 0 and the difference is not).  ``flags`` collects
    noteworthy conditions at this point.
    """

    budget_id: int
    theta: float
    rate: float
    diffs: tuple[Optional[float], ...]
    z_quad_mc: Optional[float]
    closed_form_deviation: Optional[float]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Comparison points in sweep row order, with the method ``pairs``
    their ``diffs`` are aligned with."""

    points: tuple[ComparisonPoint, ...]
    pairs: tuple[tuple[str, str], ...]

    @property
    def flag_counts(self) -> dict[str, int]:
        """Number of points carrying each flag."""
        return dict(Counter(flag for p in self.points for flag in p.flags))

    def summary_lines(self) -> list[str]:
        lines = [f"points compared: {len(self.points)}"]
        flag_counts = self.flag_counts
        for flag in sorted(flag_counts):
            lines.append(f"  {flag}: {flag_counts[flag]}")
        zs = [abs(p.z_quad_mc) for p in self.points if p.z_quad_mc is not None]
        finite = [z for z in zs if math.isfinite(z)]
        if finite:
            lines.append(f"max |z| (quadrature vs monte-carlo): {max(finite):.3f}")
        n_infinite = len(zs) - len(finite)
        if n_infinite:
            lines.append(f"non-finite z (quadrature vs monte-carlo): {n_infinite} points")
        devs = [abs(p.closed_form_deviation) for p in self.points if p.closed_form_deviation is not None]
        if devs:
            lines.append(f"max |closed-form - quadrature|: {max(devs):.6e}")
        return lines


def compare_methods(config: ExperimentConfig, workers: int = 1) -> ComparisonReport:
    """Cross-method comparison over the config's sweep.

    Requires at least two methods in the config.  One point per sweep
    point, in sweep row order.  A closed-form row deviating from quadrature
    by more than 10x the quadrature tolerance is flagged
    ``closed-form-deviation``; a |z| above 3.29 is flagged ``large-z``;
    row-level error and out-of-range flags are propagated and counted.
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
    diffs = zip(*(map(_none_if_nan, (ops[a] - ops[b]).tolist()) for a, b in pairs))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero std_err gives an infinite z with the sign of the difference
        z = np.where(quad == mc, 0.0, (quad - mc) / std_errs.get(MONTE_CARLO, missing))
    deviation = cf - quad
    large_z = np.abs(z) > Z_FLAG_THRESHOLD
    deviates = np.abs(deviation) > 10.0 * config.quad_tol
    labels = [[f"{method}:{f}" for f in _FLAGS] for method in methods]

    points = []
    for (b, t, r), point_diffs, codes, z_i, dev_i, is_large_z, is_deviation in zip(
        product(*table.axes[:3]),
        diffs,
        flag.tolist(),
        z.tolist(),
        deviation.tolist(),
        large_z.tolist(),
        deviates.tolist(),
    ):
        point_flags = [label[c] for label, c in zip(labels, codes) if c != _OK]
        point_flags += ["large-z"] * is_large_z + ["closed-form-deviation"] * is_deviation
        points.append(
            ComparisonPoint(
                budget_id=b,
                theta=t,
                rate=r,
                diffs=point_diffs,
                z_quad_mc=_none_if_nan(z_i),
                closed_form_deviation=_none_if_nan(dev_i),
                flags=tuple(point_flags),
            )
        )
    return ComparisonReport(points=tuple(points), pairs=pairs)


def format_value(x: Optional[float]) -> str:
    """Decimal formatting with 12 significant digits; None becomes empty."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def emit_csv(table: SweepTable, path: str | Path) -> None:
    """Write a sweep table as CSV, byte-deterministic for identical inputs.

    Fixed header and column order, 12-significant-digit decimals, line
    feeds as the only separators.  Each axis value (a theta, a rate, a
    method) is formatted once.
    """
    budgets, thetas, rates, methods = table.axes
    keys = map(
        ",".join,
        product(map(str, budgets), map(format_value, thetas), map(format_value, rates), methods),
    )
    flag_texts = [flag + "\n" for flag in _FLAGS]  # the flag, the last column, ends the line
    op, std_err, flag = (a.ravel() for a in (table.op, table.std_err, table.flag))
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            values = (
                ["" if x != x else format(x, ".12g") for x in column[block].tolist()]  # NaN: None
                for column in (op, std_err)
            )
            flags = map(flag_texts.__getitem__, flag[block].tolist())
            fh.write("".join(map(",".join, zip(islice(keys, _CSV_BLOCK_ROWS), *values, flags))))


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
    chunked substreams as the Monte Carlo evaluator.
    """
    theta = DependenceParameter(theta_value)
    chunks = iter_gain_pair_chunks(theta, config.marginals, n, config.seed)  # checks n
    with open(path, "w", newline="") as fh:
        fh.write("g1,g2\n")
        for chunk in chunks:
            fh.write("%r,%r\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def emit_comparison_csv(report: ComparisonReport, path: str | Path) -> None:
    """Write a comparison report as CSV with one row per sweep point."""
    header = (
        ["budget_id", "theta", "rate"]
        + [f"diff_{a}_{b}" for a, b in report.pairs]
        + ["z_quad_mc", "flags"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for p in report.points:
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
