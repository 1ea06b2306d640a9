"""Experiment configuration: file format, validation, and presets.

Config files are flat ``key = value`` text.  ``#`` starts a comment, blank
lines are ignored, and each ``[budget]`` header opens one power budget
(keys ``p0``, ``p1``, ``p2``, ``noise``; ``p0`` defaults to 0).  Top-level
keys::

    seed        = 1                  # 64-bit master seed
    mc_samples  = 1000000            # Monte Carlo draws per sweep point
    methods     = closed-form, quadrature, monte-carlo
    thetas      = -1, -0.5, 0, 0.5, 1
    rate_start  = 0.1                # bits per channel use
    rate_stop   = 3.0
    rate_step   = 0.1
    sigma1_sq   = 0.5                # or give lambda1/lambda2 instead
    sigma2_sq   = 0.5

Lists are comma-separated.  Unknown or duplicate keys are parse errors;
values violating a domain invariant are validation errors (among them a
non-finite rate value, a rate axis of more than ``MAX_RATE_POINTS``
points, or ``mc_samples`` above ``MAX_SAMPLES`` with monte-carlo
selected).  The values shown above are the defaults: a key left out keeps
the default of its :class:`ExperimentConfig` field.

The ``fig2``/``fig3``/``fig4`` presets carry the power pairs of the
standard two-transmitter scenarios (noise 1e-5 W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .copula import DependenceParameter, FadingMarginals
from .outage import METHODS, MIN_MC_SAMPLES, MONTE_CARLO
from .regions import PowerBudget
from .streams import MAX_SEED

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
    "MAX_SAMPLES",
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

#: Largest Monte Carlo sample count, and largest number of gain pairs
#: ``swmac sample`` writes.
MAX_SAMPLES = 10**8


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
#: The variance of each branch, and of the one a file leaves out when it
#: gives only the other.
DEFAULT_SIGMA_SQ = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated sweep description.  Its field defaults are the
    only defaults: a config file passes only the keys it sets."""

    budgets: tuple[PowerBudget, ...]
    thetas: tuple[DependenceParameter, ...] = tuple(
        DependenceParameter(t) for t in DEFAULT_THETAS
    )
    rate_grid: RateGrid = DEFAULT_RATE_GRID
    marginals: FadingMarginals = FadingMarginals.from_sigmas(
        DEFAULT_SIGMA_SQ, DEFAULT_SIGMA_SQ
    )
    mc_samples: int = 1_000_000
    seed: int = 1
    methods: tuple[str, ...] = METHODS

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
        if MONTE_CARLO in self.methods and not MIN_MC_SAMPLES <= self.mc_samples <= MAX_SAMPLES:
            raise ValidationError(
                f"mc_samples must be in [{MIN_MC_SAMPLES}, MAX_SAMPLES = {MAX_SAMPLES}] when "
                f"{MONTE_CARLO} is selected, got {self.mc_samples}"
            )
        if not 0 <= self.seed <= MAX_SEED:
            raise ValidationError(f"seed must be in [0, 2**64 - 1], got {self.seed}")

    def with_overrides(
        self,
        seed: Optional[int] = None,
        mc_samples: Optional[int] = None,
        methods: Optional[tuple[str, ...]] = None,
    ) -> "ExperimentConfig":
        """Copy with the given fields replaced (None leaves a field alone)."""
        changes = dict(seed=seed, mc_samples=mc_samples, methods=methods)
        changes = {field: value for field, value in changes.items() if value is not None}
        return replace(self, **changes) if changes else self


def _integer(text: str) -> int:
    return int(text, 0)


#: How the text of each top-level key is read: as one value, or, where the
#: reader is in a list, as comma-separated items (empty items dropped).
_TOP_KEYS = {
    "seed": _integer,
    "mc_samples": _integer,
    "methods": [str],
    "thetas": [float],
    "rate_start": float,
    "rate_stop": float,
    "rate_step": float,
    "sigma1_sq": float,
    "sigma2_sq": float,
    "lambda1": float,
    "lambda2": float,
}
_BUDGET_KEYS = {"p0", "p1", "p2", "noise"}


def _read_value(key: str, text: str, line: Optional[int] = None):
    """``text`` read as the value of ``key``, from a file or a flag."""
    how = _TOP_KEYS.get(key, float)  # every [budget] key is a number
    is_list = isinstance(how, list)
    read = how[0] if is_list else how
    items = [item.strip() for item in text.split(",") if item.strip()] if is_list else [text]
    values = []
    for item in items:
        try:
            values.append(read(item))
        except ValueError:
            noun = "an integer" if read is _integer else "a number"
            raise ParseError(f"value for {key!r} is not {noun}: {item!r}", line) from None
    return tuple(values) if is_list else values[0]


def _checked(label: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError it raises made a
    :class:`ValidationError` under ``label``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{label}: {exc}") from exc


def _budgets(sections: list[dict[str, float]], source: str) -> tuple[PowerBudget, ...]:
    if not sections:
        raise ValidationError(f"{source}: at least one [budget] section is required")
    budgets = []
    for i, fields in enumerate(sections):
        for key in ("p1", "p2", "noise"):
            if key not in fields:
                raise ValidationError(f"{source}: budget {i} is missing key {key!r}")
        budgets.append(_checked(f"{source}: budget {i}", PowerBudget, **{"p0": 0.0, **fields}))
    return tuple(budgets)


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text into a validated :class:`ExperimentConfig`.

    Raises :class:`ParseError` with a line number for grammar problems and
    :class:`ValidationError` for invariant violations.
    """
    top: dict = {}
    sections: list[dict[str, float]] = []
    section: Optional[dict[str, float]] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[budget]":
                raise ParseError(f"unknown section {line!r}; only [budget] is allowed", lineno)
            section = {}
            sections.append(section)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ParseError(f"missing value for key {key!r}", lineno)
        scope = section if section is not None else top
        allowed = _BUDGET_KEYS if section is not None else _TOP_KEYS
        where = "[budget] section" if section is not None else "top level"
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} at {where}", lineno)
        if key in scope:
            raise ParseError(f"duplicate key {key!r}", lineno)
        scope[key] = _read_value(key, value, lineno)

    fields = {"budgets": _budgets(sections, source)}
    lambdas, sigmas = top.keys() & {"lambda1", "lambda2"}, top.keys() & {"sigma1_sq", "sigma2_sq"}
    if lambdas and sigmas:
        raise ValidationError(
            f"{source}: give either sigma1_sq/sigma2_sq or lambda1/lambda2, not both"
        )
    if lambdas:
        lambda1, lambda2 = top.get("lambda1", 1.0), top.get("lambda2", 1.0)
        fields["marginals"] = _checked(source, FadingMarginals, lambda1, lambda2)
    elif sigmas:
        sigma1_sq = top.get("sigma1_sq", DEFAULT_SIGMA_SQ)
        sigma2_sq = top.get("sigma2_sq", DEFAULT_SIGMA_SQ)
        fields["marginals"] = _checked(source, FadingMarginals.from_sigmas, sigma1_sq, sigma2_sq)
    if "thetas" in top:
        thetas = (DependenceParameter(t) for t in top["thetas"])
        fields["thetas"] = _checked(f"{source}: thetas", tuple, thetas)
    rates = {key.removeprefix("rate_"): v for key, v in top.items() if key.startswith("rate_")}
    if rates:
        fields["rate_grid"] = replace(DEFAULT_RATE_GRID, **rates)
    fields.update((key, top[key]) for key in ("mc_samples", "seed", "methods") if key in top)
    return ExperimentConfig(**fields)


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


def _preset(name: str) -> dict:
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; expected one of {preset_names()}")
    return _PRESETS[name]


def preset_description(name: str) -> str:
    return _preset(name)["description"]


def preset_config(name: str) -> ExperimentConfig:
    """Built-in sweep configuration for a named power scenario."""
    entry = _preset(name)
    return ExperimentConfig(budgets=entry["budgets"], marginals=entry["marginals"])
