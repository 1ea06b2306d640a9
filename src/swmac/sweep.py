"""Sweep execution, cross-method comparison, and deterministic CSV output.

A sweep evaluates every (budget, theta, rate, method) combination of a
config and returns the rows in lexicographic index order.  Each analytic
method makes one call over the whole (theta, budget, rate) grid: its
values are affine in theta, so one call shares every theta-free term.
Every Monte Carlo row of a sweep is scored against one draw set, the
pairs of the config seed (common random numbers across theta, budget and
rate).  Its blocks of ``BLOCK_SIZE`` pairs are split into one share per
worker process, given up front, as the evaluator plans them
(:func:`~swmac.outage._monte_carlo_shares`): of k workers, worker w takes
blocks w, w + k, ..., as ``sample``'s workers do.  Each worker makes one
evaluator call that draws only its share and counts every theta over it,
and the parent, which evaluates the analytic methods meanwhile, adds the
integer event counts and forms the values and standard errors once.  The
evaluator scores each pair at the anchors theta = 0, 1 and -1 alone and
samples any other theta as their exact mixture, with one prefix of the
draw at the sign(theta) anchor (see
:func:`~swmac.outage.outage_monte_carlo`): the anchor rows count the pairs
``sample --seed seed`` writes at their theta, an interior theta's rows do
not, and every count is Binomial(n, p).  A row's value depends on its
(theta, budget, rate) alone, not on execution order, worker count or
where its theta sits in the config, and two runs of the same config
produce byte-identical CSV.

Sampled gain pairs fan out through the same pool: each block of pairs can
be drawn alone, so workers draw and format strided blocks and the parent
writes their texts in block order, the same bytes for any worker count.
A gain is written as Python's shortest round-trip ``repr``: its digits are
computed per block on arrays, with ``repr`` as the per-value fallback
(:func:`_repr_lines`), so the bytes are ``repr``'s.
Every CSV goes to a temporary file that replaces the output path only once
it is whole.

Evaluator failures (degenerate closed-form denominators, quadrature
non-convergence) do not abort a sweep: an analytic evaluator returns its
whole curve with the points it could not compute marked in
:attr:`~swmac.outage.OutageCurve.failed`, and those rows carry the
method's error flag and an empty value.

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
from functools import cache, partial
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
    _gain_weights,
    _monte_carlo_shares,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from .regions import PowerBudget, region_vertices, wireless_region_bounds
from .streams import BLOCK_SIZE

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
    the config's whole grid.  The points the curve marks ``failed`` carry
    the method's failure flag, and the rest the curve's range flag."""
    if method == CLOSED_FORM:
        evaluate, failure = outage_closed_form, _DEGENERATE
    else:
        evaluate, failure = outage_quadrature, _NONCONVERGENCE
    curve = evaluate(config.thetas, config.marginals, config.budgets, rates)
    flag = np.where(curve.failed, failure, np.where(curve.out_of_range, _OUT_OF_RANGE, _OK))
    # (theta, budget, rate) to the table's (budget, theta, rate)
    return curve.value.swapaxes(0, 1), flag.swapaxes(0, 1)


def _share_counts(
    config: ExperimentConfig, rates: tuple[float, ...], shares: Sequence[range], indices: range
) -> Iterator[np.ndarray]:
    """The Monte Carlo event counts, as (theta, budget, rate) arrays, of
    each share ``shares[i]`` of the draw's blocks for i in ``indices``, in
    order, lazily: one evaluator call counts every theta over a share of
    the sweep's one draw set, the pairs of ``config.seed``.  Only the
    process that draws loads the sampler: a forked worker, or the caller
    itself at ``workers`` = 1, but never a pooled parent that only adds
    counts.  A row therefore depends on its (theta, budget, rate), not on
    where its theta sits in the config or how the blocks are shared."""
    for i in indices:
        yield outage_monte_carlo(
            config.thetas, config.marginals, config.budgets, rates, config.mc_samples,
            config.seed, blocks=shares[i],
        ).counts


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
    may run on; the pool never exceeds that CPU count or ``items``.  At
    ``workers`` = 1, with no items, or off Linux, where fork is not safe,
    ``work`` runs in this process as the results are read.  Any other pool
    forks, even a pool of one, so that this process never loads what the
    work loads (the sampler, for a Monte Carlo draw): ``os.fork`` starts k
    workers, each with its own pipe; worker w computes items w, w + k, ...
    and writes each result as soon as it is done, and item i is read from
    worker i mod k.  An exception that stops a worker is re-raised with its
    own type when its item is read; a worker that dies without answering
    raises :class:`OutageEvaluationError` naming its exit code.  On leaving
    the block every worker has been reaped, once: on an error the ones
    still running are stopped first.
    """
    pool_size = _pool_size(workers, items, _cpus())
    # Forked workers start at once with the parent's modules and arguments;
    # off Linux fork is not safe.
    if workers == 1 or items < 1 or sys.platform != "linux":
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

    ``workers`` = 1 draws the Monte Carlo pairs in this process.  Any other
    value caps a pool of forked processes (see :func:`_fanned_out`), 0
    meaning one per CPU this process may run on, that draws while the
    parent evaluates the analytic methods.  The pool starts one worker per
    share of the draw's blocks that :func:`~swmac.outage._monte_carlo_shares`
    plans under that cap, and each worker counts every theta over its
    share, drawing only that.  The parent adds the integer counts and forms
    each value and standard error once, so results are identical for any
    worker count.  A sweep without Monte Carlo starts no pool.  An exception
    that stops a worker is re-raised here with its own type; a worker that
    dies without answering raises :class:`OutageEvaluationError` naming its
    exit code.
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
        # the processes workers and the CPUs allow; the shares stop at the
        # draw's blocks themselves
        most = _pool_size(workers, config.mc_samples, _cpus())
        shares = _monte_carlo_shares(
            config.thetas, config.marginals, config.budgets, rates, config.mc_samples, most
        )
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


def _formatted(column: np.ndarray) -> list[str]:
    """Each value of ``column`` as :func:`format_value` writes it, NaN as
    the empty string: every value through one ``%.12g`` template, or none
    where the column is NaN throughout."""
    nan = np.isnan(column)
    if nan.all():
        return [""] * len(column)
    texts = ("%.12g\n" * len(column) % tuple(column.tolist())).split("\n")
    texts.pop()  # the empty text after the last line feed
    for i in np.flatnonzero(nan).tolist():
        texts[i] = ""
    return texts


@contextmanager
def _replacing(path: str | Path) -> Iterator:
    """A text file open for writing that replaces ``path`` once the block
    ends: the text goes to a temporary file beside ``path``, renamed onto it
    by ``os.replace``.  A block that raises leaves ``path`` as it was and no
    temporary file."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", newline="") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_csv(
    path: str | Path, header: str, axes: tuple, columns: Sequence[np.ndarray],
    codes: np.ndarray, texts: Sequence[str],
) -> None:
    """Write one line per entry of the ``axes`` grid, in row-major order:
    the entry's key (budget id, theta, rate and any further axes), each of
    ``columns`` at 12 significant digits (empty where NaN), and last
    ``texts[code]``.  Each axis value is formatted once.  Lines are
    formatted and written one block of ``BLOCK_SIZE`` rows at a time, so the
    text buffers do not grow with the table, and each column's values in a
    block go through one ``%`` template (:func:`_formatted`).  The file
    is written through :func:`_replacing`, so a write that fails part-way
    leaves ``path`` as it was.
    """
    budgets, thetas, rates, *rest = axes
    keys = map(
        ",".join,
        product(map(str, budgets), map(format_value, thetas), map(format_value, rates), *rest),
    )
    endings = [text + "\n" for text in texts]  # the last column ends the line
    with _replacing(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(codes), BLOCK_SIZE):
            block = slice(start, start + BLOCK_SIZE)
            values = [_formatted(column[block]) for column in columns]
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
    Gaussian region, which is the instantaneous one at unit gains.  The
    vertices are listed counterclockwise from (0, 0), as
    :func:`~swmac.regions.region_vertices` builds them, and each coordinate
    is written as its shortest round-trip ``repr`` by the kernel ``sample``
    uses (:func:`_repr_lines`), so re-reading and re-checking membership is
    exact.  Returns the vertex list; :func:`~swmac.regions.region_vertices`
    raises :class:`~swmac.regions.VertexMembershipError`, before anything
    is written, if a vertex cannot be placed inside.  The file is written
    through :func:`_replacing`, so a write that fails part-way leaves
    ``path`` as it was.
    """
    bounds = wireless_region_bounds(budget, gains if gains is not None else GainPair(1.0, 1.0))
    vertices = region_vertices(bounds, r0)
    with _replacing(path) as fh:
        fh.write("r1,r2\n")
        fh.write(_repr_lines(np.array(vertices)))
    return vertices


#: Entries of the text chunk table of :func:`_repr_tables`: the four digits
#: of 0..9999, blanked five ways, then '.', ',' and a line feed.
_CHUNK_KEYS = 10_000
_DOT, _COMMA, _NEWLINE = range(5 * _CHUNK_KEYS, 5 * _CHUNK_KEYS + 3)


@cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """The constants of :func:`_repr_lines`, built once per process.

    ``tens[k]`` is 10^k for k <= 22, exact as a double, with its Veltkamp
    halves ``tens_hi`` and ``tens_lo``; ``powers[j]`` is 10^j as an int64.
    ``chunks`` holds 4-byte texts: entry b*10,000 + v is the four digits of
    v with the first b blanked to 0 pad bytes (b <= 4), and the last three
    entries are '.', ',' and a line feed, each padded.  ``blanks[c][:, L]``
    offsets the c chunks of a number right-aligned in 4*c columns into
    ``chunks`` so that only its last L columns show.
    """
    tens = np.array([float(10**k) for k in range(23)])
    split = 134217729.0 * tens
    tens_hi = split - (split - tens)
    powers = np.array([10**j for j in range(18)])
    v = np.arange(_CHUNK_KEYS)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1) + ord("0")
    chunks = np.zeros((_NEWLINE + 1, 4), np.uint8)
    for b in range(4):
        chunks[b * _CHUNK_KEYS : (b + 1) * _CHUNK_KEYS, b:] = digits[:, b:]
    chunks[_DOT:, 0] = np.frombuffer(b".,\n", np.uint8)
    blanks = [
        _CHUNK_KEYS * np.clip(4 * np.arange(c, 0, -1)[:, None] - np.arange(23), 0, 4)
        for c in range(7)
    ]
    return tens, tens_hi, tens - tens_hi, powers, chunks.view(np.uint32).ravel(), blanks


def _repr_lines(block: np.ndarray) -> str:
    """The text ``"%r,%r\\n" * m % tuple(block.ravel().tolist())`` of the
    (m, 2) float64 ``block``, computed on arrays: Python's shortest
    round-trip ``repr`` of every value, byte for byte.

    The fast path is 1e-4 <= x < 1e15 with a significand that is not a
    power of two.  There ``repr`` is positional, and the values that read
    back as x form an interval symmetric about it, so if any d-digit
    decimal reads back as x the nearest one does, and ``repr`` writes the
    nearest decimal of the fewest digits that reads back.  With X =
    floor(log10 x), s = x*10^(16 - X) is formed exactly as hi + lo
    (Dekker's product; 10^k is exact for k <= 22); its rounding to 17
    digits always reads back, and its rounding to d = 16, ..., 12 digits is
    kept while it lies within half an ulp of x, scaled by 10^(16 - X).
    ``repr`` itself writes any value off the fast path, and any whose
    digits rest on a near decision: a rounding within 1e-6 of a tie, a
    round-trip test within 1e-9 relative of its bound, a digit count of 12
    or fewer (which a rounding up to 10^17 has), or an s outside
    [10^16, 10^17) (X off by one near a power of ten).

    Each value's text is laid out in one row of fixed columns, 0 pad bytes
    where it has no character: the integer part right-aligned ('0' for
    x < 1), '.', the fraction digits right-aligned (leading zeros for x < 1,
    '0' for an integral x), then ',' or a line feed.  The digits come four
    at a time from the chunk table of :func:`_repr_tables`, in as many
    chunks as the block's widest part needs; a ``repr`` value replaces its
    row, and one ``bytes.translate`` drops the pad bytes.
    """
    tens, tens_hi, tens_lo, powers, chunks, blanks = _repr_tables()
    values = block.ravel()
    fast = (values >= 1e-4) & (values < 1e15) & (values.view(np.uint64) << np.uint64(12) != 0)
    x = np.where(fast, values, 1.5)
    exponent = np.floor(np.log10(x)).astype(np.intp)
    k = 16 - exponent
    # s = x*10^k = hi + lo exactly, split at its units as s_floor + frac
    scale, scale_hi, scale_lo = tens[k], tens_hi[k], tens_lo[k]
    split = 134217729.0 * x
    x_hi = split - (split - x)
    x_lo = x - x_hi
    hi = x * scale
    lo = ((x_hi * scale_hi - hi) + x_hi * scale_lo + x_lo * scale_hi) + x_lo * scale_lo
    floor_lo = np.floor(lo)
    s_floor = hi.astype(np.int64) + floor_lo.astype(np.int64)
    frac = lo - floor_lo
    # rows j = 1..5: s modulo 10^j, its distance to the nearest multiple, and
    # whether that is within half an ulp of x, the 17 - j digits reading back
    tens_j = tens[1:6, None]
    units = (s_floor % 100_000).astype(np.float64)
    rest = units - np.floor(units / tens_j) * tens_j + frac
    miss = np.minimum(rest, tens_j - rest)
    half_ulp = 0.5 * np.spacing(x) * scale
    ok = miss < half_ulp * (1.0 - 1e-9)
    dropped = ok.sum(axis=0)  # of the 17 digits, the trailing ones that go
    unit = powers[dropped]
    below = s_floor % unit
    past_half = below + frac - 0.5 * unit  # from the tie of the kept rounding
    fallback = (
        ~fast
        | (ok != (miss < half_ulp * (1.0 + 1e-9))).any(axis=0)
        | (np.abs(past_half) < 1e-6 * unit)
        | (dropped == 5)
        | (s_floor < powers[16])
        | (s_floor >= powers[17])
    )
    digits = s_floor - below + (past_half > 0) * unit
    shift = powers[np.minimum(k, 17)]
    whole = digits // shift
    fraction = (digits - whole * shift) // unit
    # each part right-aligned in the chunks the block's widest needs, with
    # its columns left of its digits blanked; a repr row needs 7 chunks
    whole_len = np.maximum(exponent, 0) + 1
    fraction_len = np.maximum(k - dropped, 1)
    fraction_chunks = (fraction_len.max(initial=1) + 3) // 4
    whole_chunks = max((whole_len.max(initial=1) + 3) // 4, 5 - fraction_chunks)
    columns = np.empty((whole_chunks + fraction_chunks + 2, len(values)), np.intp)
    for number, shown, rows in (
        (whole, whole_len, columns[:whole_chunks]),
        (fraction, fraction_len, columns[whole_chunks + 1 : -1]),
    ):
        for r in range(len(rows) - 1, 0, -1):
            number, rows[r] = np.divmod(number, _CHUNK_KEYS)
        rows[0] = number
        rows += np.take(blanks[len(rows)], shown, axis=1)
    columns[whole_chunks] = _DOT
    columns[-1, 0::2] = _COMMA
    columns[-1, 1::2] = _NEWLINE
    # a fallback row's chunks may be out of range: its row is replaced
    text = np.ascontiguousarray(chunks.take(columns, mode="clip").T).view(np.uint8)
    for i in np.flatnonzero(fallback).tolist():
        line = (repr(values[i].item()) + ",\n"[i & 1]).encode()
        text[i] = 0
        text[i, : len(line)] = np.frombuffer(line, np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _sample_texts(
    theta: DependenceParameter, marginals: FadingMarginals, n: int, seed: int, blocks: range
) -> Iterator[str]:
    """The CSV lines of the gain pairs of each of ``blocks``, one text per
    block, lazily (see :func:`_repr_lines`)."""
    return map(_repr_lines, iter_gain_pair_chunks(theta, marginals, n, seed, blocks))


def emit_samples(config: ExperimentConfig, theta_value: float, n: int, path: str | Path) -> None:
    """Write ``n`` correlated gain pairs as CSV (columns g1, g2).

    Deterministic for a fixed config seed; values come from the same
    substream as the Monte Carlo evaluator's, so a sweep of that seed counts
    these pairs at theta = 0, 1 and -1.  Each gain is written as Python's
    shortest round-trip ``repr``, so it reads back bit for bit: the digits
    are computed per block on arrays, with ``repr`` as the per-value
    fallback (see :func:`_repr_lines`), so the bytes are ``repr``'s.  Pairs
    are drawn and formatted one block of at most ``BLOCK_SIZE`` at a time,
    on one worker process per CPU this process may run on (see
    :func:`_fanned_out`), and each block's text is written as it is read,
    so memory does not grow with ``n``.
    Each block can be drawn alone, so the bytes do not depend on the worker
    count.  The text goes through :func:`_replacing`, so a run that fails
    part-way leaves neither file.  Raises ValueError, before drawing or
    opening a file, if ``n`` exceeds ``MAX_SAMPLES``.
    """
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count must be <= MAX_SAMPLES = {MAX_SAMPLES}, got {n}")
    theta = DependenceParameter(theta_value)
    texts = partial(_sample_texts, theta, config.marginals, n, config.seed)
    # n < 0 makes no items, so no pool: the texts are made here, checking n
    with _fanned_out(texts, -(-n // BLOCK_SIZE), 0) as blocks:
        # opened once the pool has started, so that no worker inherits it
        with _replacing(path) as fh:
            fh.write("g1,g2\n")
            for text in blocks:
                fh.write(text)


def emit_comparison_csv(report: ComparisonReport, path: str | Path) -> None:
    """Write a comparison report as CSV with one row per sweep point; the
    ``flags`` column joins the point's flag labels with ``;``."""
    header = ",".join(
        ["budget_id", "theta", "rate"]
        + [f"diff_{a}_{b}" for a, b in report.pairs]
        + ["z_quad_mc", "flags"]
    )
    # a point's flag set packed into one integer, bit j for label j (there are
    # at most 3*3 + 2 labels); one text per distinct set, each point coded by
    # its set's index
    bits = 1 << np.arange(report.flags.shape[1])
    flag_sets, codes = np.unique(report.flags @ bits, return_inverse=True)
    texts = [
        ";".join(compress(report.flag_labels, (s & bits).tolist())) for s in flag_sets.tolist()
    ]
    columns = (*report.diffs.T, report.z_quad_mc)
    _write_csv(path, header, report.axes, columns, codes, texts)
