"""Command-line harness for sweeps, regions, sampling, and comparisons.

Exit codes: 0 success, 1 configuration or validation error (an output
path that cannot be written among them), 2 runtime evaluator failure (an
outage evaluator, or a region vertex that fails its membership check).
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    preset_config,
    preset_description,
    preset_names,
)
from .copula import GainPair
from .outage import METHODS, OutageEvaluationError
from .regions import VertexMembershipError
from .sweep import (
    compare_methods,
    emit_comparison_csv,
    emit_csv,
    emit_region,
    emit_samples,
    run_outage_sweep,
)

_DEFAULT_OUT = {
    "outage": "sweep.csv",
    "region": "region.csv",
    "sample": "samples.csv",
    "compare": "compare.csv",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the harness treats those
    # as configuration errors (exit 1) instead.
    def error(self, message: str):  # noqa: D102
        raise ConfigError(message)


def _add_config_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="config file to load")
    group.add_argument(
        "--preset", choices=preset_names(), help="built-in power scenario"
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    parser.add_argument(
        "--samples", type=int, metavar="N", help="Monte Carlo samples override"
    )
    parser.add_argument(
        "--methods",
        metavar="LIST",
        help=f"comma-separated subset of {','.join(METHODS)}",
    )
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel workers for the sweep (0 = one per CPU, default 1)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = _Parser(prog="swmac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_outage = sub.add_parser("outage", help="run an outage sweep and write CSV")
    _add_config_source(p_outage)
    _add_sweep_flags(p_outage)

    p_region = sub.add_parser("region", help="write rate-region vertices as CSV")
    _add_config_source(p_region)
    p_region.add_argument(
        "--budget-index", type=int, default=0, metavar="I", help="budget to use (default 0)"
    )
    p_region.add_argument(
        "--gains",
        metavar="G1,G2",
        help="instantaneous power gains; omit for the Gaussian region",
    )
    p_region.add_argument(
        "--r0", type=float, default=0.0, metavar="RATE", help="common rate (default 0)"
    )
    p_region.add_argument("--out", metavar="PATH", help="output CSV path")

    p_sample = sub.add_parser("sample", help="emit correlated gain pairs as CSV")
    _add_config_source(p_sample)
    p_sample.add_argument(
        "--theta",
        type=float,
        metavar="FLOAT",
        help="dependence parameter (default: first theta of the config)",
    )
    p_sample.add_argument("--samples", type=int, default=10_000, metavar="N")
    p_sample.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    p_sample.add_argument("--out", metavar="PATH", help="output CSV path")

    p_compare = sub.add_parser(
        "compare", help="compare evaluators over a sweep; CSV plus summary"
    )
    _add_config_source(p_compare)
    _add_sweep_flags(p_compare)

    p_preset = sub.add_parser("preset", help="inspect built-in presets")
    p_preset.add_argument("action", choices=["list"])

    return parser


def _load(args: argparse.Namespace, samples_are_mc: bool = True) -> ExperimentConfig:
    config = preset_config(args.preset) if args.preset else load_config(args.config)
    methods = None
    if getattr(args, "methods", None) is not None:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    return config.with_overrides(
        seed=getattr(args, "seed", None),
        mc_samples=getattr(args, "samples", None) if samples_are_mc else None,
        methods=methods,
    )


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Reports an OSError raised in the block, such as a missing directory
    in ``path``, as a configuration error naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_outage(args: argparse.Namespace) -> int:
    config = _load(args)
    rows = run_outage_sweep(config, workers=args.workers)
    path = args.out or _DEFAULT_OUT["outage"]
    with _writing(path):
        emit_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    config = _load(args)
    if not 0 <= args.budget_index < len(config.budgets):
        raise ConfigError(
            f"budget index {args.budget_index} out of range "
            f"(config has {len(config.budgets)} budgets)"
        )
    budget = config.budgets[args.budget_index]
    gains = None
    if args.gains:
        parts = args.gains.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--gains expects 'g1,g2', got {args.gains!r}")
        gains = GainPair(float(parts[0]), float(parts[1]))
    path = args.out or _DEFAULT_OUT["region"]
    with _writing(path):
        vertices = emit_region(budget, gains, args.r0, path)
    print(f"wrote {len(vertices)} vertices to {path}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    # --samples here is the emitted pair count, not the Monte Carlo
    # configuration of the sweep evaluators.
    config = _load(args, samples_are_mc=False)
    theta = args.theta if args.theta is not None else config.thetas[0].theta
    path = args.out or _DEFAULT_OUT["sample"]
    with _writing(path):
        emit_samples(config, theta, args.samples, path)
    print(f"wrote {args.samples} gain pairs (theta={theta}) to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    report = compare_methods(config, workers=args.workers)
    path = args.out or _DEFAULT_OUT["compare"]
    with _writing(path):
        emit_comparison_csv(report, path)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {len(report)} comparison rows to {path}")
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    for name in preset_names():
        print(f"{name}: {preset_description(name)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "outage": _cmd_outage,
            "region": _cmd_region,
            "sample": _cmd_sample,
            "compare": _cmd_compare,
            "preset": _cmd_preset,
        }[args.command]
        return handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OutageEvaluationError, VertexMembershipError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
