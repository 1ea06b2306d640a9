"""Experiment configuration: file format, validation, and presets.

Config files are flat ``key = value`` text.  ``#`` starts a comment, blank
lines are ignored, and each ``[budget]`` header opens one power budget
(keys ``p0``, ``p1``, ``p2``, ``noise``; ``p0`` defaults to 0).  Top-level
keys::

    seed        = 1                  # 64-bit master seed
    mc_samples  = 1000000            # Monte Carlo draws per sweep point
    quad_tol    = 1e-10              # quadrature absolute tolerance
    methods     = closed-form, quadrature, monte-carlo
    thetas      = -1, -0.5, 0, 0.5, 1
    rate_start  = 0.1                # bits per channel use
    rate_stop   = 3.0
    rate_step   = 0.1
    sigma1_sq   = 0.5                # or give lambda1/lambda2 instead
    sigma2_sq   = 0.5
    output      = sweep.csv          # optional

Lists are comma-separated.  Unknown or duplicate keys are parse errors;
values violating a domain invariant are validation errors (among them a
non-finite rate value, or a rate axis of more than ``MAX_RATE_POINTS``
points).  The values shown above are the defaults, applied when a key is
omitted.

The ``fig2``/``fig3``/``fig4`` presets carry the power pairs of the
standard two-transmitter scenarios (noise 1e-5 W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .copula import DependenceParameter, FadingMarginals
from .outage import DEFAULT_QUAD_TOL, METHODS
from .regions import PowerBudget

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "RateGrid",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "preset_config",
    "preset_names",
    "preset_description",
    "DEFAULT_THETAS",
    "DEFAULT_RATE_GRID",
    "MAX_RATE_POINTS",
]


class ConfigError(Exception):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """The config text does not match the documented grammar."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationError(ConfigError):
    """A parsed value violates a domain invariant."""


#: Largest number of points a rate axis may have.
MAX_RATE_POINTS = 1_000_000


@dataclass(frozen=True)
class RateGrid:
    """Inclusive rate axis {start, start + step, ..., stop} of at most
    :data:`MAX_RATE_POINTS` points."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"rate {name} must be finite, got {getattr(self, name)}")
        if not self.step > 0.0:
            raise ValidationError(f"rate step must be > 0, got {self.step}")
        if not self.start >= 0.0:
            raise ValidationError(f"rate start must be >= 0, got {self.start}")
        if not self.start <= self.stop:
            raise ValidationError(
                f"rate start must not exceed stop, got {self.start} > {self.stop}"
            )
        # values() has at most ratio + 1 points.
        if not (self.stop - self.start) / self.step <= MAX_RATE_POINTS - 1:
            raise ValidationError(
                f"rate axis from {self.start} to {self.stop} in steps of {self.step} "
                f"has more than {MAX_RATE_POINTS} points"
            )

    def values(self) -> tuple[float, ...]:
        ratio = (self.stop - self.start) / self.step
        n = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 * max(1.0, abs(ratio)) else int(math.floor(ratio))
        vals = [self.start + i * self.step for i in range(n + 1)]
        if vals[-1] > self.stop:
            vals[-1] = self.stop
        return tuple(vals)


DEFAULT_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
DEFAULT_RATE_GRID = RateGrid(0.1, 3.0, 0.1)
DEFAULT_SIGMA_SQ = 0.5
DEFAULT_SEED = 1
DEFAULT_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated sweep description."""

    budgets: tuple[PowerBudget, ...]
    thetas: tuple[DependenceParameter, ...] = tuple(
        DependenceParameter(t) for t in DEFAULT_THETAS
    )
    rate_grid: RateGrid = DEFAULT_RATE_GRID
    marginals: FadingMarginals = FadingMarginals.from_sigmas(
        DEFAULT_SIGMA_SQ, DEFAULT_SIGMA_SQ
    )
    mc_samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED
    methods: tuple[str, ...] = METHODS
    quad_tol: float = DEFAULT_QUAD_TOL
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValidationError("at least one power budget is required")
        if not self.thetas:
            raise ValidationError("at least one theta is required")
        if not self.methods:
            raise ValidationError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"duplicate method in {self.methods}")
        if "monte-carlo" in self.methods and self.mc_samples < 1000:
            raise ValidationError(
                f"mc_samples must be >= 1000 when monte-carlo is selected, got {self.mc_samples}"
            )
        if not 0.0 < self.quad_tol <= 1e-2:
            raise ValidationError(f"quad_tol must be in (0, 1e-2], got {self.quad_tol}")

    def with_overrides(
        self,
        seed: Optional[int] = None,
        mc_samples: Optional[int] = None,
        methods: Optional[tuple[str, ...]] = None,
        quad_tol: Optional[float] = None,
        output_path: Optional[str] = None,
    ) -> "ExperimentConfig":
        """Copy with the given fields replaced (None leaves a field alone)."""
        changes = {}
        if seed is not None:
            changes["seed"] = seed
        if mc_samples is not None:
            changes["mc_samples"] = mc_samples
        if methods is not None:
            changes["methods"] = methods
        if quad_tol is not None:
            changes["quad_tol"] = quad_tol
        if output_path is not None:
            changes["output_path"] = output_path
        return replace(self, **changes) if changes else self


_TOP_KEYS = {
    "seed",
    "mc_samples",
    "quad_tol",
    "methods",
    "thetas",
    "rate_start",
    "rate_stop",
    "rate_step",
    "sigma1_sq",
    "sigma2_sq",
    "lambda1",
    "lambda2",
    "output",
}
_BUDGET_KEYS = {"p0", "p1", "p2", "noise"}


def _parse_number(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"value for {key!r} is not a number: {raw!r}", line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ParseError(f"value for {key!r} is not an integer: {raw!r}", line) from None


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text into a validated :class:`ExperimentConfig`.

    Raises :class:`ParseError` with a line number for grammar problems and
    :class:`ValidationError` for invariant violations.
    """
    top: dict[str, tuple[str, int]] = {}
    budgets_raw: list[dict[str, tuple[str, int]]] = []
    section: Optional[dict[str, tuple[str, int]]] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[budget]":
                raise ParseError(f"unknown section {line!r}; only [budget] is allowed", lineno)
            section = {}
            budgets_raw.append(section)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ParseError(f"missing value for key {key!r}", lineno)
        scope = section if section is not None else top
        allowed = _BUDGET_KEYS if section is not None else _TOP_KEYS
        where = "[budget] section" if section is not None else "top level"
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} at {where}", lineno)
        if key in scope:
            raise ParseError(f"duplicate key {key!r}", lineno)
        scope[key] = (value, lineno)

    if not budgets_raw:
        raise ValidationError(f"{source}: at least one [budget] section is required")

    budgets = []
    for i, raw in enumerate(budgets_raw):
        for req in ("p1", "p2", "noise"):
            if req not in raw:
                raise ValidationError(f"{source}: budget {i} is missing key {req!r}")
        fields = {k: _parse_number(v, k, ln) for k, (v, ln) in raw.items()}
        fields.setdefault("p0", 0.0)
        try:
            budgets.append(PowerBudget(**fields))
        except ValueError as exc:
            raise ValidationError(f"{source}: budget {i}: {exc}") from exc

    def num(key: str, default: float) -> float:
        if key not in top:
            return default
        raw, ln = top[key]
        return _parse_number(raw, key, ln)

    def integer(key: str, default: int) -> int:
        if key not in top:
            return default
        raw, ln = top[key]
        return _parse_int(raw, key, ln)

    if ("sigma1_sq" in top or "sigma2_sq" in top) and ("lambda1" in top or "lambda2" in top):
        raise ValidationError(
            f"{source}: give either sigma1_sq/sigma2_sq or lambda1/lambda2, not both"
        )
    try:
        if "lambda1" in top or "lambda2" in top:
            marginals = FadingMarginals(num("lambda1", 1.0), num("lambda2", 1.0))
        else:
            marginals = FadingMarginals.from_sigmas(
                num("sigma1_sq", DEFAULT_SIGMA_SQ), num("sigma2_sq", DEFAULT_SIGMA_SQ)
            )
    except ValueError as exc:
        raise ValidationError(f"{source}: {exc}") from exc

    thetas: tuple[DependenceParameter, ...]
    if "thetas" in top:
        raw, ln = top["thetas"]
        try:
            thetas = tuple(
                DependenceParameter(_parse_number(item, "thetas", ln))
                for item in _parse_list(raw)
            )
        except ValueError as exc:
            raise ValidationError(f"{source}: thetas: {exc}") from exc
    else:
        thetas = tuple(DependenceParameter(t) for t in DEFAULT_THETAS)

    rate_grid = RateGrid(
        start=num("rate_start", DEFAULT_RATE_GRID.start),
        stop=num("rate_stop", DEFAULT_RATE_GRID.stop),
        step=num("rate_step", DEFAULT_RATE_GRID.step),
    )

    methods = tuple(_parse_list(top["methods"][0])) if "methods" in top else METHODS

    return ExperimentConfig(
        budgets=tuple(budgets),
        thetas=thetas,
        rate_grid=rate_grid,
        marginals=marginals,
        mc_samples=integer("mc_samples", DEFAULT_MC_SAMPLES),
        seed=integer("seed", DEFAULT_SEED),
        methods=methods,
        quad_tol=num("quad_tol", DEFAULT_QUAD_TOL),
        output_path=top["output"][0] if "output" in top else None,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


_NOISE_W = 1e-5

_PRESETS: dict[str, dict] = {
    "fig2": {
        "description": "p1 = 1 W against p2 = 5 and 10 W, noise 1e-5 W, unit-mean gains",
        "budgets": (
            PowerBudget(p0=0.0, p1=1.0, p2=5.0, noise=_NOISE_W),
            PowerBudget(p0=0.0, p1=1.0, p2=10.0, noise=_NOISE_W),
        ),
        "marginals": FadingMarginals.from_sigmas(0.5, 0.5),
    },
    "fig3": {
        # Equal powers make the weight ratio 1; equal fading rates would
        # then zero the first closed-form denominator, and lambda2 = 2
        # would zero the third, so this preset ships sigma2_sq = 0.2
        # (lambda2 = 2.5).  Override via a config file if undesired.
        "description": (
            "p1 = p2 = 1 W, noise 1e-5 W; asymmetric gains "
            "(sigma1_sq = 0.5, sigma2_sq = 0.2) keep the closed form nondegenerate"
        ),
        "budgets": (PowerBudget(p0=0.0, p1=1.0, p2=1.0, noise=_NOISE_W),),
        "marginals": FadingMarginals.from_sigmas(0.5, 0.2),
    },
    "fig4": {
        "description": "p1 = 5 and 10 W against p2 = 1 W, noise 1e-5 W, unit-mean gains",
        "budgets": (
            PowerBudget(p0=0.0, p1=5.0, p2=1.0, noise=_NOISE_W),
            PowerBudget(p0=0.0, p1=10.0, p2=1.0, noise=_NOISE_W),
        ),
        "marginals": FadingMarginals.from_sigmas(0.5, 0.5),
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_description(name: str) -> str:
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; expected one of {preset_names()}")
    return _PRESETS[name]["description"]


def preset_config(name: str) -> ExperimentConfig:
    """Built-in sweep configuration for a named power scenario."""
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; expected one of {preset_names()}")
    entry = _PRESETS[name]
    return ExperimentConfig(budgets=entry["budgets"], marginals=entry["marginals"])
