"""Sweep execution, cross-method comparison, and deterministic CSV output.

A sweep evaluates every (budget, theta, rate, method) combination of a
config and returns the rows in lexicographic index order.  Each analytic
method makes one call over the whole (theta, budget, rate) grid: its
values are affine in theta, so one call shares every theta-free term.
Every Monte Carlo row of a sweep is scored against one draw set, keyed by
``derive_seed(seed, 0)`` (common random numbers across theta, budget and
rate).  Its blocks of ``BLOCK_SIZE`` pairs are split into one contiguous
share per worker process, given up front; each worker makes one evaluator
call that draws only its share and counts every theta over it, and the
parent, which evaluates the analytic methods meanwhile, adds the integer
event counts and forms the values and standard errors once.  A row's
value depends on its (theta, budget, rate) alone, not on execution order,
worker count or where its theta sits in the config, and two runs of the
same config produce byte-identical CSV.

Sampled gain pairs fan out through the same pool: each block of pairs can
be drawn alone, so workers draw and format strided blocks and the parent
writes their texts in block order, the same bytes for any worker count.

Evaluator failures (degenerate closed-form denominators, quadrature
non-convergence) do not abort a sweep: an analytic evaluator that fails at
some points raises :class:`~swmac.outage.PartialEvaluation` with its whole
curve, and the rows it marks failed carry an error flag and an empty value
instead.

A sweep is a dense (budget, theta, rate, method) grid of arrays, and a
comparison holds arrays over the same grid's (budget, theta, rate) points;
one block writer emits both CSVs from those arrays.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .config import MAX_SAMPLES, ExperimentConfig, ValidationError
from .copula import DependenceParameter, FadingMarginals, GainPair, iter_gain_pair_chunks
from .outage import (
    CLOSED_FORM,
    METHODS,
    MONTE_CARLO,
    QUADRATURE,
    OutageCurve,
    OutageEvaluationError,
    PartialEvaluation,
    _gain_weights,
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

#: |closed-form - quadrature| beyond which a point is flagged (absolute).
DEVIATION_FLAG_THRESHOLD = 1e-9


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
    config: ExperimentConfig, rates: tuple[float, ...], method: str
) -> tuple[np.ndarray, np.ndarray]:
    """Values (NaN where a row has none) and flag codes of an analytic
    method, as (budget, theta, rate) arrays, from one evaluator call over
    the config's whole grid.  The points a :class:`PartialEvaluation` marks
    failed carry the method's failure flag, and the rest the curve's range
    flag."""
    if method == CLOSED_FORM:
        evaluate, failure = outage_closed_form, _DEGENERATE
    else:
        evaluate, failure = outage_quadrature, _NONCONVERGENCE
    try:
        curve, failed = evaluate(config.thetas, config.marginals, config.budgets, rates), False
    except PartialEvaluation as exc:
        curve, failed = exc.curve, exc.failed
    value = np.where(failed, np.nan, curve.value)
    flag = np.where(failed, failure, np.where(curve.out_of_range, _OUT_OF_RANGE, _OK))
    # (theta, budget, rate) to the table's (budget, theta, rate)
    return value.swapaxes(0, 1), flag.swapaxes(0, 1)


def _share_counts(
    config: ExperimentConfig, rates: tuple[float, ...], shares: Sequence[range], indices: range
) -> Iterator[np.ndarray]:
    """The Monte Carlo event counts, as (theta, budget, rate) arrays, of
    each share ``shares[i]`` of the draw's blocks for i in ``indices``, in
    order, lazily: one evaluator call counts every theta over a share of
    the sweep's one draw set, keyed by ``derive_seed(config.seed, 0)``
    (derived here, per share, so that neither a parent that only adds
    counts nor a sweep without Monte Carlo loads the sampler).  A row
    therefore depends on its (theta, budget, rate), not on where its theta
    sits in the config or how the blocks are shared."""
    for i in indices:
        yield outage_monte_carlo(
            config.thetas, config.marginals, config.budgets, rates, config.mc_samples,
            derive_seed(config.seed, 0), blocks=shares[i],
        ).counts


def _block_shares(blocks: int, k: int) -> list[range]:
    """``k`` contiguous shares of ``range(blocks)``, in order, whose sizes
    differ by at most one; none is empty when ``k <= blocks``."""
    return [range(w * blocks // k, (w + 1) * blocks // k) for w in range(k)]


def _serve(work: Callable[[range], Iterable], indices: range, fd: int, inherited: list) -> None:
    """Worker body: write to ``fd`` each result of ``work(indices)``,
    pickled, as soon as it is done, or the exception that stopped them,
    then end the process.  It never returns, so a forked worker never runs
    its parent's code or flushes its parent's buffers; it exits with code 1
    if it could not answer, as when the work raises KeyboardInterrupt or
    SystemExit.  It first closes the ``inherited`` read ends, so that its
    writes fail, instead of blocking, once its parent has gone."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        with open(fd, "wb") as pipe:
            try:
                for result in work(indices):
                    pipe.write(pickle.dumps(result))
                    pipe.flush()
            except Exception as exc:  # handed to the parent, which re-raises it
                pipe.write(pickle.dumps(exc))
        code = 0
    finally:
        os._exit(code)


def _receive(pipe, pid: int, unreaped: set[int]):
    """The next result a :func:`_serve` worker wrote to ``pipe``; re-raises
    the exception it wrote instead.  If it died without answering, or part
    way through an answer, reaps it, taking its pid out of ``unreaped``, and
    raises :class:`OutageEvaluationError` naming its exit code."""
    try:
        result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        status = os.waitpid(pid, 0)[1]
        unreaped.remove(pid)
        raise OutageEvaluationError(
            f"worker {pid} exited with code {os.waitstatus_to_exitcode(status)} "
            "before sending all its results"
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


def _cpus() -> Optional[int]:
    """The CPUs this process may run on, where the platform reports them,
    else the host's CPU count (None if unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@contextmanager
def _fanned_out(work: Callable[[range], Iterable], items: int, workers: int) -> Iterator[Iterator]:
    """The results of ``work(range(items))``, in item order, computed on a
    pool of worker processes; ``work(indices)`` yields one result per index.

    ``workers`` counts the processes, 0 meaning one per CPU this process
    may run on; the pool never exceeds that CPU count or ``items``.  A pool
    of one is ``work`` itself, run in this process as the results are read,
    and so is every pool off Linux, where fork is not safe.  Otherwise
    ``os.fork`` starts k workers, each with its own pipe; worker w computes
    items w, w + k, ... and writes each result as soon as it is done, and
    item i is read from worker i mod k.  An exception that stops a worker
    is re-raised with its own type when its item is read; a worker that
    dies without answering raises :class:`OutageEvaluationError` naming its
    exit code.  On leaving the block every worker has been reaped, once: on
    an error the ones still running are stopped first.
    """
    pool_size = _pool_size(workers, items, _cpus())
    # Forked workers start at once with the parent's modules and arguments;
    # off Linux fork is not safe.
    if pool_size == 1 or sys.platform != "linux":
        yield work(range(items))
        return
    # imported here, so that commands that start no pool do not pay for it
    import signal

    # Every item costs about the same, so a fixed stride balances the
    # workers as well as a task queue would.
    pipes, pids, unreaped = [], [], set()
    try:
        for w in range(pool_size):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(work, range(w, items, pool_size), write_end, pipes)
            finally:
                # the worker now holds the only write end, so its death ends the pipe
                os.close(write_end)
            pids.append(pid)
            unreaped.add(pid)
        yield (
            _receive(pipes[i % pool_size], pids[i % pool_size], unreaped) for i in range(items)
        )
    except BaseException:
        for pid in unreaped:
            os.kill(pid, signal.SIGTERM)  # their results are no longer wanted
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in unreaped:
            os.waitpid(pid, 0)


def run_outage_sweep(config: ExperimentConfig, workers: int = 1) -> SweepTable:
    """Evaluate the full sweep; returns a :class:`SweepTable` whose rows are
    in lexicographic (budget, theta, rate, method) index order.

    ``workers`` > 1 splits the Monte Carlo draw across processes (see
    :func:`_fanned_out`) while the parent evaluates the analytic methods; 0
    means one per CPU this process may run on.  Of k workers, worker w
    counts every theta over the w-th of k contiguous shares of the draw's
    blocks of ``BLOCK_SIZE`` pairs, drawing only those blocks, and the
    parent adds the integer counts and forms each value and standard error
    once, so results are identical for any worker count.  The pool never
    exceeds that CPU count or the number of blocks: a sweep of at most
    ``BLOCK_SIZE`` samples, or without Monte Carlo, starts none.  An
    exception that stops a worker is re-raised here with its own type; a
    worker that dies without answering raises
    :class:`OutageEvaluationError` naming its exit code.
    """
    for i, budget in enumerate(config.budgets):
        try:
            _gain_weights(budget)
        except ValueError as exc:
            raise ValidationError(f"budget {i}: {exc}") from None
    rates = config.rate_grid.values()
    shape = (len(config.budgets), len(config.thetas), len(rates), len(config.methods))
    op = np.full(shape, np.nan)
    std_err = np.full(shape, np.nan)
    flag = np.full(shape, _OK, dtype=np.int8)
    shares = []
    if MONTE_CARLO in config.methods:
        blocks = -(-config.mc_samples // BLOCK_SIZE)
        shares = _block_shares(blocks, _pool_size(workers, blocks, _cpus()))
    with _fanned_out(partial(_share_counts, config, rates, shares), len(shares), workers) as results:
        # the analytic methods, in the parent while any workers draw
        for m_i, method in enumerate(config.methods):
            if method != MONTE_CARLO:
                op[..., m_i], flag[..., m_i] = _analytic_column(config, rates, method)
        counts = list(results)
    if counts:
        m_i = config.methods.index(MONTE_CARLO)
        curve = OutageCurve.from_counts(sum(counts), config.mc_samples)
        # (theta, budget, rate) to the table's (budget, theta, rate)
        op[..., m_i], std_err[..., m_i] = (a.swapaxes(0, 1) for a in (curve.value, curve.std_error))
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
    by more than 1e-9 is flagged
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
            np.abs(deviation) > DEVIATION_FLAG_THRESHOLD,
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


def _sample_texts(
    theta: DependenceParameter, marginals: FadingMarginals, n: int, seed: int, blocks: range
) -> Iterator[str]:
    """The CSV lines of the gain pairs of each of ``blocks``, one text per
    block, lazily."""
    return (
        "%r,%r\n" * len(block) % tuple(block.ravel().tolist())
        for block in iter_gain_pair_chunks(theta, marginals, n, seed, blocks)
    )


def emit_samples(config: ExperimentConfig, theta_value: float, n: int, path: str | Path) -> None:
    """Write ``n`` correlated gain pairs as CSV (columns g1, g2).

    Deterministic for a fixed config seed; values come from the same
    chunked substreams as the Monte Carlo evaluator.  Pairs are drawn and
    formatted one block of at most ``BLOCK_SIZE`` at a time, on one worker
    process per CPU this process may run on (see :func:`_fanned_out`), and
    each block's text is written as it is read, so memory does not grow
    with ``n``.  Each block can be drawn alone, so the bytes do not depend
    on the worker count.  The text goes to a temporary file beside
    ``path``, renamed onto ``path`` once every block is in, so a run that
    fails part-way leaves neither file.  Raises ValueError, before drawing
    or opening a file, if ``n`` exceeds ``MAX_SAMPLES``.
    """
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count must be <= MAX_SAMPLES = {MAX_SAMPLES}, got {n}")
    theta = DependenceParameter(theta_value)
    texts = partial(_sample_texts, theta, config.marginals, n, config.seed)
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # n < 0 makes no items, so no pool: the texts are made here, checking n
    with _fanned_out(texts, -(-n // BLOCK_SIZE), 0) as blocks:
        # opened once the pool has started, so that no worker inherits it
        try:
            with open(temporary, "w", newline="") as fh:
                fh.write("g1,g2\n")
                for text in blocks:
                    fh.write(text)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise


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
