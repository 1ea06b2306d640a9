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
from dataclasses import dataclass, replace
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


class SweepTable(Sequence[SweepRow]):
    """Sweep rows stored column by column; a read-only sequence of
    :class:`SweepRow` that builds rows only when indexed or iterated.

    ``budget_id``, ``theta``, ``rate``, ``method`` and ``flag`` are each kept
    as a tuple of values (``levels``) and, per row, a position in it
    (``codes``, one row of the array per column).  ``op`` and ``std_err``
    are float arrays with NaN where the row holds None.
    """

    def __init__(
        self,
        levels: tuple[tuple, tuple, tuple, tuple, tuple],
        codes: np.ndarray,
        op: np.ndarray,
        std_err: np.ndarray,
    ) -> None:
        self._levels = levels
        self._codes = codes
        self._op = op
        self._std_err = std_err

    def __len__(self) -> int:
        return len(self._op)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        b, t, r, m, f = (level[c] for level, c in zip(self._levels, self._codes[:, i].tolist()))
        return SweepRow(b, t, r, m, _none_if_nan(self._op[i]), _none_if_nan(self._std_err[i]), f)

    def __iter__(self):
        b, t, r, m, f = map(_decode, self._levels, self._codes.tolist())
        op = map(_none_if_nan, self._op.tolist())
        std_err = map(_none_if_nan, self._std_err.tolist())
        return map(SweepRow, b, t, r, m, op, std_err, f)

    def __eq__(self, other):
        if not isinstance(other, SweepTable):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


def _decode(level: Sequence, codes: list[int]) -> list:
    """The per-row values of a column stored as ``level`` and ``codes``."""
    return list(map(level.__getitem__, codes))


def _none_if_nan(x: float) -> Optional[float]:
    return None if math.isnan(x) else float(x)


def _table_from_rows(rows: Sequence[SweepRow]) -> SweepTable:
    """A table of arbitrary rows: each row has its own entry in every level."""
    columns = ("budget_id", "theta", "rate", "method", "flag")
    levels = tuple(tuple(getattr(row, key) for row in rows) for key in columns)
    codes = np.tile(np.arange(len(rows)), (len(columns), 1))
    op = np.array([np.nan if row.op is None else row.op for row in rows], dtype=float)
    std_err = np.array([np.nan if row.std_err is None else row.std_err for row in rows], dtype=float)
    return SweepTable(levels, codes, op, std_err)


def _analytic_column(
    query: OutageQuery, method: str, quad_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values (NaN where a row has none) and flag codes of one budget's
    curves of an analytic method, as (theta, rate) arrays in the order of
    the query's theta and rate tuples.  A degenerate closed form flags
    every curve; a quadrature failure is re-evaluated theta by theta, then
    rate by rate, so only the failing rows are flagged."""
    shape = (len(query.thetas), len(query.rates))
    try:
        if method == CLOSED_FORM:
            curves = outage_closed_form(query)
            out_of_range = np.array([curve.out_of_range for curve in curves])
            flags = np.where(out_of_range, _OUT_OF_RANGE, _OK)
            return np.array([curve.value for curve in curves]), flags
        curves = outage_quadrature(query, tol=quad_tol)
        return np.array([curve.value for curve in curves]), np.full(shape, _OK)
    except DegenerateDenominator:
        return np.full(shape, np.nan), np.full(shape, _DEGENERATE)
    except QuadratureNonConvergence:
        if len(query.thetas) > 1:
            parts, axis = [replace(query, theta=(theta,)) for theta in query.thetas], 0
        elif len(query.rates) > 1:
            parts, axis = [replace(query, rate_threshold=(rate,)) for rate in query.rates], 1
        else:
            return np.full(shape, np.nan), np.full(shape, _NONCONVERGENCE)
        columns = zip(*(_analytic_column(part, method, quad_tol) for part in parts))
        return tuple(np.concatenate(column, axis=axis) for column in columns)


def _theta_block(
    config: ExperimentConfig, t_i: int, rates: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo values and standard errors at theta index ``t_i`` as
    (budget, rate) arrays, from one draw set."""
    curves = outage_monte_carlo_grid(
        config.thetas[t_i],
        config.marginals,
        config.budgets,
        rates,
        config.mc_samples,
        derive_seed(config.seed, t_i),
    )
    return np.array([c.value for c in curves]), np.array([c.std_error for c in curves])


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
    # (budget, theta, rate, method) arrays, raveled in row order
    codes = np.vstack((np.indices(shape).reshape(len(shape), -1), flag.reshape(1, -1)))
    levels = (
        tuple(range(len(config.budgets))),
        tuple(theta.theta for theta in config.thetas),
        rates,
        config.methods,
        _FLAGS,
    )
    return SweepTable(levels, codes, op.ravel(), std_err.ravel())


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
    (quadrature - monte-carlo)/std_err when both are present (infinite if
    std_err is 0 and the difference is not).  ``flags`` collects
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
    rows = list(run_outage_sweep(config, workers=workers))
    pairs = _method_pairs(config.methods)
    # The sweep emits the rows of one (budget, theta, rate) point together,
    # one per method.
    k = len(config.methods)
    points = []
    for i in range(0, len(rows), k):
        block = rows[i : i + k]
        group = {row.method: row for row in block}
        ops = {method: row.op for method, row in group.items()}
        point_flags = [f"{row.method}:{row.flag}" for row in block if row.flag != FLAG_OK]
        diffs = tuple(
            ops[a] - ops[b] if ops[a] is not None and ops[b] is not None else None
            for a, b in pairs
        )

        z: Optional[float] = None
        quad, mc = ops.get(QUADRATURE), ops.get(MONTE_CARLO)
        if quad is not None and mc is not None:
            diff = quad - mc
            std_err = group[MONTE_CARLO].std_err
            if std_err and std_err > 0.0:
                z = diff / std_err
            else:
                z = 0.0 if diff == 0.0 else math.inf
            if abs(z) > Z_FLAG_THRESHOLD:
                point_flags.append("large-z")

        deviation: Optional[float] = None
        cf = ops.get(CLOSED_FORM)
        if cf is not None and quad is not None:
            deviation = cf - quad
            if abs(deviation) > 10.0 * config.quad_tol:
                point_flags.append("closed-form-deviation")

        points.append(
            ComparisonPoint(
                budget_id=block[0].budget_id,
                theta=block[0].theta,
                rate=block[0].rate,
                diffs=diffs,
                z_quad_mc=z,
                closed_form_deviation=deviation,
                flags=tuple(point_flags),
            )
        )
    return ComparisonReport(points=tuple(points), pairs=pairs)


def format_value(x: Optional[float]) -> str:
    """Decimal formatting with 12 significant digits; None becomes empty."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def emit_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Write sweep rows as CSV, byte-deterministic for identical inputs.

    Fixed header and column order, 12-significant-digit decimals, line
    feeds as the only separators.  Works column by column: each level of a
    :class:`SweepTable` (a theta, a rate, a method) is formatted once.
    """
    table = rows if isinstance(rows, SweepTable) else _table_from_rows(rows)
    # each level's text once; the flag, the last column, ends the line
    texts = (
        [str(b) for b in table._levels[0]],
        [format_value(theta) for theta in table._levels[1]],
        [format_value(rate) for rate in table._levels[2]],
        table._levels[3],
        [flag + "\n" for flag in table._levels[4]],
    )
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            b, t, r, m, f = map(_decode, texts, table._codes[:, block].tolist())
            op, std_err = (
                ["" if x != x else format(x, ".12g") for x in column[block].tolist()]  # NaN: None
                for column in (table._op, table._std_err)
            )
            fh.write("".join(map(",".join, zip(b, t, r, m, op, std_err, f))))


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
    with open(path, "w", newline="") as fh:
        fh.write("g1,g2\n")
        for chunk in iter_gain_pair_chunks(theta, config.marginals, n, config.seed):
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
