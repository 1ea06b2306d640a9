"""Command-line harness for sweeps, regions, sampling, and comparisons.

Exit codes: 0 success, 1 configuration or validation error (an output
path that cannot be written among them), 2 a pool worker that died
before sending all its results, or a region vertex that fails its
membership check.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from functools import cache, partial
from typing import Iterator, Optional, Sequence

from .config import (
    ConfigError,
    ExperimentConfig,
    _read_value,
    load_config,
    preset_config,
    preset_description,
    preset_names,
)
from .copula import DependenceParameter, GainPair
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the harness treats those
    # as configuration errors (exit 1) instead.
    def error(self, message: str):  # noqa: D102
        raise ConfigError(message)


def _add_source_and_out(parser: argparse.ArgumentParser, handler, out: str) -> None:
    """Flags of a subcommand that ``handler`` runs on a loaded config,
    writing ``out`` unless ``--out`` names another path."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="config file to load")
    group.add_argument("--preset", choices=preset_names(), help="built-in power scenario")
    parser.add_argument("--out", metavar="PATH", help=f"output CSV path (default {out})")
    parser.set_defaults(handler=handler, out=out)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    # read as the config keys are: argparse lets the reader's ParseError
    # through, so a bad value exits 1 with the message a file's value gets
    for flag, key, metavar, help in (
        ("--seed", "seed", "U64", "master seed override"),
        ("--samples", "mc_samples", "N", "Monte Carlo samples override"),
        ("--methods", "methods", "LIST", f"comma-separated subset of {','.join(METHODS)}"),
    ):
        parser.add_argument(flag, type=partial(_read_value, key), metavar=metavar, help=help)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="most workers for the sweep's draw, sized by its work (0 = the CPUs, default 1)",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = _Parser(prog="swmac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_outage = sub.add_parser("outage", help="run an outage sweep and write CSV")
    _add_source_and_out(p_outage, _cmd_outage, "sweep.csv")
    _add_sweep_flags(p_outage)

    p_region = sub.add_parser("region", help="write rate-region vertices as CSV")
    _add_source_and_out(p_region, _cmd_region, "region.csv")
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

    p_sample = sub.add_parser("sample", help="emit correlated gain pairs as CSV")
    _add_source_and_out(p_sample, _cmd_sample, "samples.csv")
    p_sample.add_argument(
        "--theta",
        type=float,
        metavar="FLOAT",
        help="dependence parameter (default: first theta of the config)",
    )
    p_sample.add_argument("--samples", type=int, default=10_000, metavar="N")
    p_sample.add_argument(
        "--seed", type=partial(_read_value, "seed"), metavar="U64", help="master seed override"
    )

    p_compare = sub.add_parser(
        "compare", help="compare evaluators over a sweep; CSV plus summary"
    )
    _add_source_and_out(p_compare, _cmd_compare, "compare.csv")
    _add_sweep_flags(p_compare)

    p_preset = sub.add_parser("preset", help="inspect built-in presets")
    p_preset.add_argument("action", choices=["list"])
    p_preset.set_defaults(handler=_cmd_preset)

    return parser


def _load(args: argparse.Namespace, samples_are_mc: bool = True) -> ExperimentConfig:
    config = preset_config(args.preset) if args.preset else load_config(args.config)
    return config.with_overrides(
        seed=getattr(args, "seed", None),
        mc_samples=getattr(args, "samples", None) if samples_are_mc else None,
        methods=getattr(args, "methods", None),
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
    with _writing(args.out):
        emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
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
        try:  # a part that is no number, or other than two parts, is a ValueError
            g1, g2 = map(float, args.gains.split(","))
        except ValueError:
            raise ConfigError(f"--gains expects 'g1,g2', got {args.gains!r}") from None
        gains = GainPair(g1, g2)
    with _writing(args.out):
        vertices = emit_region(budget, gains, args.r0, args.out)
    print(f"wrote {len(vertices)} vertices to {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    # --samples here is the emitted pair count, not the Monte Carlo
    # configuration of the sweep evaluators.
    config = _load(args, samples_are_mc=False)
    theta = args.theta if args.theta is not None else config.thetas[0].theta
    with _writing(args.out):
        emit_samples(config, theta, args.samples, args.out)
    theta = DependenceParameter(theta).theta  # as drawn: -0.0 is stored as 0.0
    print(f"wrote {args.samples} gain pairs (theta={theta}) to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    report = compare_methods(config, workers=args.workers)
    with _writing(args.out):
        emit_comparison_csv(report, args.out)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {len(report)} comparison rows to {args.out}")
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    for name in preset_names():
        print(f"{name}: {preset_description(name)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # checked before any work: writing onto a directory fails only at the end
        if os.path.isdir(getattr(args, "out", "")):
            raise ConfigError(f"cannot write {args.out}: {os.strerror(errno.EISDIR)}")
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OutageEvaluationError, VertexMembershipError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
