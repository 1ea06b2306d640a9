"""The benchmark's workloads: generated inputs, CLI argv and correctness gate.

Each workload is one ``swmac`` CLI command.  ``--seed`` picks the master
seed passed to the program and, for the generated configs, the theta
values; the program only ever sees the generated config and argv.

The correctness gate checks every output row against ``reference`` and
returns (rows attempted, rows failed).  A row fails if it carries an
error flag, if it is missing, or if its value fails the check; the
``out-of-range`` flag of the closed form is the program's documented
output and is checked for consistency, not counted as a failure.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

ERROR_FLAGS = ("degenerate-denominator", "quadrature-nonconvergence")

# fig2's power pairs (p1 = 1 W against p2 = 5 and 10 W) and unit-mean gains.
FIG2_BUDGETS = ((1.0, 5.0), (1.0, 10.0))
FIG2_LAMBDAS = (1.0, 1.0)
# fig3: p1 = p2 = 1 W with lambda2 = 2.5 (sigma2_sq = 0.2).
FIG3_BUDGETS = ((1.0, 1.0),)
FIG3_LAMBDAS = (1.0, 2.5)
FIG3_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PRESET_NOISE = 1e-5
DEFAULT_RATES = (0.1, 3.0, 0.1)
SAMPLE_THETA = 0.9


@dataclass
class Plan:
    """One prepared workload: the argv for ``swmac.cli.main`` and its checks."""

    name: str
    argv: list[str]
    out: Path
    rows: int  # output rows the command must produce
    config_code: str  # Python statements building the config, for set-up probes
    check: Callable[[str], tuple[int, int]]  # text -> (rows attempted, rows failed)
    serial_argv: list[str] = field(default_factory=list)  # compare-parallel only


def _master_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 0]).integers(1, 2**63))


def _thetas(seed: int, count: int) -> list[float]:
    rng = np.random.default_rng([seed, 1])
    return sorted(round(float(t), 4) for t in rng.uniform(-1.0, 1.0, count))


def _rate_axis(start: float, stop: float, step: float) -> int:
    return int(round((stop - start) / step)) + 1


def _write_config(path: Path, thetas, budgets, noise, rates) -> None:
    lines = [
        "thetas = " + ", ".join(repr(t) for t in thetas),
        f"rate_start = {rates[0]!r}",
        f"rate_stop = {rates[1]!r}",
        f"rate_step = {rates[2]!r}",
    ]
    for p1, p2 in budgets:
        lines += ["[budget]", "p0 = 0", f"p1 = {p1!r}", f"p2 = {p2!r}", f"noise = {noise!r}"]
    path.write_text("\n".join(lines) + "\n")


# -- sweep CSV checks ------------------------------------------------------


def _parse_sweep(text: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != "budget_id,theta,rate,method,op,std_err,flag" or lines[-1] != "":
        return []
    return [line.split(",") for line in lines[1:-1]]


def check_sweep(text: str, rows: int, budgets, lambdas, noise, samples: int) -> tuple[int, int]:
    parsed = [r for r in _parse_sweep(text) if len(r) == 7]
    if len(parsed) != rows:
        return rows, rows
    budget = np.array([int(r[0]) for r in parsed])
    theta = np.array([float(r[1]) for r in parsed])
    rate = np.array([float(r[2]) for r in parsed])
    method = np.array([r[3] for r in parsed])
    flag = np.array([r[6] for r in parsed])
    op = np.array([float(r[4]) if r[4] else math.nan for r in parsed])
    se = np.array([float(r[5]) if r[5] else math.nan for r in parsed])
    a = np.array([budgets[b][0] for b in budget])
    b = np.array([budgets[b][1] for b in budget])
    lam1, lam2 = lambdas
    exact = reference.outage_reference(theta, a, b, noise, rate, lam1, lam2)
    ok = ~np.isin(flag, ERROR_FLAGS) & np.isfinite(op)

    cf = method == "closed-form"
    expect_cf = reference.closed_form_transcription(theta, a, b, noise, rate, lam1, lam2)
    outside = (op < 0.0) | (op > 1.0)
    cf_ok = (np.abs(op - expect_cf) <= reference.CLOSED_FORM_ABS_TOL) & (
        flag == np.where(outside, "out-of-range", "ok")
    )

    quad = method == "quadrature"
    quad_ok = (np.abs(op - exact) <= reference.QUADRATURE_REL_TOL * exact) & (flag == "ok")

    mc = method == "monte-carlo"
    mc_ok = np.zeros(len(parsed), dtype=bool)
    if mc.any():
        counts = np.rint(np.nan_to_num(op) * samples)
        p_hat = counts / samples
        std_err = np.sqrt(p_hat * (1.0 - p_hat) / samples)
        mc_ok = (
            (np.abs(np.nan_to_num(op) * samples - counts) <= 1e-6)
            & reference.binomial_consistent(counts, samples, exact)
            & (np.abs(se - std_err) <= 1e-9 * std_err)
            & (flag == "ok")
        )
    good = ok & np.select([cf, quad, mc], [cf_ok, quad_ok, mc_ok], False)
    return rows, int(np.count_nonzero(~good))


def check_compare(text: str, rows: int, samples: int) -> tuple[int, int]:
    reader = list(csv.reader(io.StringIO(text)))
    header = [
        "budget_id", "theta", "rate",
        "diff_closed-form_quadrature", "diff_closed-form_monte-carlo",
        "diff_quadrature_monte-carlo", "z_quad_mc", "flags",
    ]  # fmt: skip
    if not reader or reader[0] != header or len(reader) - 1 != rows:
        return rows, rows
    body = reader[1:]
    budget = np.array([int(r[0]) for r in body])
    theta = np.array([float(r[1]) for r in body])
    rate = np.array([float(r[2]) for r in body])
    d_cf_q, d_cf_mc, d_q_mc = (
        np.array([float(r[i]) if r[i] else math.nan for r in body]) for i in (3, 4, 5)
    )
    a = np.array([FIG3_BUDGETS[i][0] for i in budget])
    b = np.array([FIG3_BUDGETS[i][1] for i in budget])
    lam1, lam2 = FIG3_LAMBDAS
    exact = reference.outage_reference(theta, a, b, PRESET_NOISE, rate, lam1, lam2)
    expect_cf = reference.closed_form_transcription(theta, a, b, PRESET_NOISE, rate, lam1, lam2)
    # d_q_mc = quadrature - k/n: recover the event count k, then quadrature.
    counts = np.rint(np.nan_to_num(exact - d_q_mc) * samples)
    quad = d_q_mc + counts / samples
    no_error = np.array([not any(f in r[7] for f in ERROR_FLAGS) for r in body])
    good = (
        no_error
        & (np.abs(quad - exact) <= reference.QUADRATURE_REL_TOL * exact)
        & (np.abs(d_cf_q - (expect_cf - exact)) <= reference.CLOSED_FORM_ABS_TOL)
        & (np.abs(d_cf_mc - (d_cf_q + d_q_mc)) <= reference.CLOSED_FORM_ABS_TOL)
        & reference.binomial_consistent(counts, samples, exact)
    )
    return rows, int(np.count_nonzero(~good))


def check_samples(text: str, rows: int, lambdas, theta: float) -> tuple[int, int]:
    lines = text.split("\n")
    if lines[0] != "g1,g2" or lines[-1] != "" or len(lines) - 2 != rows:
        return rows, rows
    values = np.empty((rows, 2))
    bad = 0
    for i, line in enumerate(lines[1:-1]):
        parts = line.split(",")
        try:
            pair = [float(p) for p in parts]
        except ValueError:
            pair = []
        if len(pair) != 2 or [repr(v) for v in pair] != parts or min(pair) < 0.0:
            bad += 1
            pair = [math.nan, math.nan]
        values[i] = pair
    if bad:
        return rows, bad
    # Each marginal mean is 1/lambda with standard error 1/(lambda*sqrt(n));
    # the Spearman estimate's standard error is below 1/sqrt(n).
    tol = 6.0 / math.sqrt(rows)
    means_ok = all(
        abs(values[:, i].mean() * lam - 1.0) <= tol for i, lam in enumerate(lambdas)
    )
    rho_ok = abs(reference.spearman(values[:, 0], values[:, 1]) - theta / 3.0) <= tol
    return rows, 0 if means_ok and rho_ok else rows


# -- workloads -------------------------------------------------------------


def mc_sweep(workdir: Path, seed: int, tiny: bool) -> Plan:
    samples = 1000 if tiny else 32768
    thetas = _thetas(seed, 2 if tiny else 5)
    config = workdir / "mc-sweep.cfg"
    _write_config(config, thetas, FIG2_BUDGETS, 1.0, DEFAULT_RATES)
    out = workdir / "mc-sweep.csv"
    master = _master_seed(seed)
    rows = len(FIG2_BUDGETS) * len(thetas) * _rate_axis(*DEFAULT_RATES)
    return Plan(
        name="mc-sweep",
        argv=["outage", "--config", str(config), "--methods", "monte-carlo",
              "--samples", str(samples), "--seed", str(master), "--workers", "1",
              "--out", str(out)],  # fmt: skip
        out=out,
        rows=rows,
        config_code=(
            f"cfg = load_config({str(config)!r}).with_overrides("
            f"seed={master}, mc_samples={samples}, methods=('monte-carlo',))"
        ),
        check=lambda text: check_sweep(text, rows, FIG2_BUDGETS, FIG2_LAMBDAS, 1.0, samples),
    )


def analytic_grid(workdir: Path, seed: int, tiny: bool) -> Plan:
    thetas = _thetas(seed, 2 if tiny else 21)
    rates = (0.1, 3.0, 0.1) if tiny else (0.01, 3.0, 0.01)
    config = workdir / "analytic-grid.cfg"
    _write_config(config, thetas, FIG2_BUDGETS, PRESET_NOISE, rates)
    out = workdir / "analytic-grid.csv"
    master = _master_seed(seed)
    rows = len(FIG2_BUDGETS) * len(thetas) * _rate_axis(*rates) * 2
    return Plan(
        name="analytic-grid",
        argv=["outage", "--config", str(config), "--methods", "closed-form,quadrature",
              "--seed", str(master), "--workers", "1", "--out", str(out)],  # fmt: skip
        out=out,
        rows=rows,
        config_code=(
            f"cfg = load_config({str(config)!r}).with_overrides("
            f"seed={master}, methods=('closed-form', 'quadrature'))"
        ),
        check=lambda text: check_sweep(
            text, rows, FIG2_BUDGETS, FIG2_LAMBDAS, PRESET_NOISE, 0
        ),
    )


def compare_parallel(workdir: Path, seed: int, tiny: bool) -> Plan:
    samples = 1000 if tiny else 100_000
    out = workdir / "compare-parallel.csv"
    master = _master_seed(seed)
    rows = len(FIG3_BUDGETS) * len(FIG3_THETAS) * _rate_axis(*DEFAULT_RATES)
    argv = ["compare", "--preset", "fig3", "--samples", str(samples), "--seed", str(master)]
    return Plan(
        name="compare-parallel",
        argv=argv + ["--workers", "0", "--out", str(out)],
        out=out,
        rows=rows,
        config_code=(
            f"cfg = preset_config('fig3').with_overrides(seed={master}, mc_samples={samples})"
        ),
        check=lambda text: check_compare(text, rows, samples),
        serial_argv=argv + ["--workers", "1", "--out", str(workdir / "compare-serial.csv")],
    )


def sample_dump(workdir: Path, seed: int, tiny: bool) -> Plan:
    pairs = 2000 if tiny else 200_000
    out = workdir / "sample-dump.csv"
    master = _master_seed(seed)
    return Plan(
        name="sample-dump",
        argv=["sample", "--preset", "fig2", "--theta", repr(SAMPLE_THETA),
              "--samples", str(pairs), "--seed", str(master), "--out", str(out)],  # fmt: skip
        out=out,
        rows=pairs,
        config_code=f"cfg = preset_config('fig2').with_overrides(seed={master})",
        check=lambda text: check_samples(text, pairs, FIG2_LAMBDAS, SAMPLE_THETA),
    )


WORKLOADS = {
    "mc-sweep": mc_sweep,
    "analytic-grid": analytic_grid,
    "compare-parallel": compare_parallel,
    "sample-dump": sample_dump,
}
