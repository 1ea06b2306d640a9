import math
import re
import textwrap
from pathlib import Path

import pytest

import swmac.config
from swmac import ExperimentConfig, ParseError, PowerBudget, ValidationError
from swmac.config import (
    DEFAULT_RATE_GRID,
    ConfigError,
    MAX_RATE_POINTS,
    MAX_SAMPLES,
    RateGrid,
    load_config,
    parse_config,
    preset_config,
    preset_description,
    preset_names,
)

MINIMAL = """
# minimal config: only budgets
[budget]
p1 = 1
p2 = 5
noise = 1e-5
"""


def test_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.budgets == (PowerBudget(0.0, 1.0, 5.0, 1e-5),)
    assert cfg.marginals.lambda1 == 1.0  # sigma^2 = 0.5 on both branches
    assert cfg.marginals.lambda2 == 1.0
    assert cfg.seed == 1
    assert cfg.mc_samples == 1_000_000
    assert cfg.methods == ("closed-form", "quadrature", "monte-carlo")
    assert [t.theta for t in cfg.thetas] == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(MINIMAL)
    assert load_config(path) == parse_config(MINIMAL)


def test_full_config_round_trip():
    cfg = parse_config(
        """
        seed = 42
        mc_samples = 5000
        methods = quadrature, monte-carlo
        thetas = -0.5, 0.5
        rate_start = 0.2
        rate_stop = 1.0
        rate_step = 0.2
        lambda1 = 2
        lambda2 = 3
        [budget]
        p0 = 0.1
        p1 = 1
        p2 = 2
        noise = 0.5
        [budget]
        p1 = 3
        p2 = 4
        noise = 0.25
        """
    )
    assert cfg.seed == 42
    assert cfg.mc_samples == 5000
    assert cfg.methods == ("quadrature", "monte-carlo")
    assert cfg.marginals.lambda1 == 2.0
    assert len(cfg.budgets) == 2
    assert cfg.budgets[1].p0 == 0.0
    assert cfg.rate_grid.values() == (0.2, 0.4, 0.6000000000000001, 0.8, 1.0)


def test_theta_out_of_range_is_validation_error():
    with pytest.raises(ValidationError):
        parse_config("thetas = 1.5\n" + MINIMAL)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus = 1\n" + MINIMAL, "unknown key"),
        ("seed = 1\nseed = 2\n" + MINIMAL, "duplicate"),
        ("seed\n" + MINIMAL, "key = value"),
        ("seed =\n" + MINIMAL, "missing value"),
        ("[other]\n" + MINIMAL, "unknown section"),
        ("seed = abc\n" + MINIMAL, "not an integer"),
        # quadrature has one relative error bound, and --out sets the path
        ("quad_tol = 0.5\n" + MINIMAL, "unknown key 'quad_tol'"),
        ("output = out.csv\n" + MINIMAL, "unknown key 'output'"),
        (MINIMAL + "\n[budget]\np1 = 1\np2 = 1\nnoise = 1\nseed = 2\n", "unknown key"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "at least one"),
        ("[budget]\np1 = 1\np2 = 1\n", "missing key 'noise'"),
        ("sigma1_sq = 0.5\nlambda1 = 1\n" + MINIMAL, "not both"),
        ("methods = bogus\n" + MINIMAL, "unknown method"),
        ("methods = monte-carlo\nmc_samples = 10\n" + MINIMAL, "mc_samples"),
        ("seed = -5\n" + MINIMAL, "seed"),  # would alias 2**64 - 5
        ("seed = 0x10000000000000000\n" + MINIMAL, "seed"),  # 2**64 would alias 0
        ("rate_step = -1\n" + MINIMAL, "step"),
        ("sigma1_sq = -0.5\n" + MINIMAL, "sigma1_sq"),
        ("[budget]\np0 = 2\np1 = 1\np2 = 1\nnoise = 1\n", "p0"),
    ],
)
def test_validation_errors_name_the_violated_invariant(text, fragment):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# leading comment\n\nseed = 9  # trailing\n" + MINIMAL)
    assert cfg.seed == 9


def test_rate_grid_single_point():
    grid = RateGrid(0.5, 0.5, 0.1)
    assert grid.values() == (0.5,)


def test_rate_grid_lands_exactly_on_stop():
    values = DEFAULT_RATE_GRID.values()
    assert len(values) == 30
    assert values[0] == 0.1
    assert values[-1] == 3.0


def test_rate_grid_partial_final_step():
    assert RateGrid(0.0, 0.25, 0.1).values() == (0.0, 0.1, 0.2)


@pytest.mark.parametrize(
    "start,stop,step",
    [
        (0.1, math.inf, 0.1),
        (0.1, math.nan, 0.1),
        (math.inf, math.inf, 0.1),
        (0.1, 3.0, math.inf),
        (0.1, 3.0, math.nan),
    ],
)
def test_rate_grid_rejects_non_finite_values(start, stop, step):
    with pytest.raises(ValidationError):
        RateGrid(start, stop, step)


def test_rate_grid_caps_the_number_of_points():
    # The cap is checked without building the axis.
    RateGrid(0.0, MAX_RATE_POINTS - 1.0, 1.0)
    with pytest.raises(ValidationError, match="points"):
        RateGrid(0.0, float(MAX_RATE_POINTS), 1.0)
    with pytest.raises(ValidationError, match="points"):
        RateGrid(0.0, 3.0, 1e-9)
    with pytest.raises(ValidationError, match="points"):
        RateGrid(0.0, 3.0, 5e-324)  # (stop - start)/step overflows to inf


def test_experiment_config_validation():
    budget = PowerBudget(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(budgets=())
    with pytest.raises(ValidationError):
        ExperimentConfig(budgets=(budget,), methods=())
    with pytest.raises(ValidationError):
        ExperimentConfig(budgets=(budget,), methods=("quadrature", "quadrature"))
    with pytest.raises(ValidationError):
        ExperimentConfig(budgets=(budget,), mc_samples=10)
    cfg = ExperimentConfig(budgets=(budget,), methods=("quadrature",), mc_samples=10)
    assert cfg.mc_samples == 10  # no Monte Carlo selected, small n is fine


def test_mc_samples_are_capped_when_monte_carlo_is_selected():
    budget = PowerBudget(0.0, 1.0, 1.0, 1.0)
    assert ExperimentConfig(budgets=(budget,), mc_samples=MAX_SAMPLES).mc_samples == MAX_SAMPLES
    with pytest.raises(ValidationError, match=f"MAX_SAMPLES = {MAX_SAMPLES}"):
        ExperimentConfig(budgets=(budget,), mc_samples=MAX_SAMPLES + 1)
    with pytest.raises(ValidationError, match="MAX_SAMPLES"):
        parse_config(f"mc_samples = {10 * MAX_SAMPLES}\n" + MINIMAL)
    cfg = ExperimentConfig(budgets=(budget,), methods=("quadrature",), mc_samples=MAX_SAMPLES + 1)
    assert cfg.mc_samples == MAX_SAMPLES + 1  # no Monte Carlo selected, no cap


def test_with_overrides():
    cfg = parse_config(MINIMAL)
    out = cfg.with_overrides(seed=7, methods=("quadrature",))
    assert out.seed == 7
    assert out.methods == ("quadrature",)
    assert out.budgets == cfg.budgets
    assert cfg.with_overrides() is cfg


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def test_preset_names_and_descriptions():
    assert preset_names() == ("fig2", "fig3", "fig4")
    for name in preset_names():
        assert preset_description(name)
    with pytest.raises(ValidationError):
        preset_config("fig9")


def test_fig2_preset_budgets():
    cfg = preset_config("fig2")
    assert cfg.budgets == (
        PowerBudget(0.0, 1.0, 5.0, 1e-5),
        PowerBudget(0.0, 1.0, 10.0, 1e-5),
    )
    assert cfg.marginals.lambda1 == 1.0
    assert cfg.marginals.lambda2 == 1.0


def test_fig3_preset_budgets_and_nondegenerate_marginals():
    cfg = preset_config("fig3")
    assert cfg.budgets == (PowerBudget(0.0, 1.0, 1.0, 1e-5),)
    # Equal powers give weight ratio 1; the preset marginals must keep all
    # three closed-form denominators away from zero.
    l1, l2 = cfg.marginals.lambda1, cfg.marginals.lambda2
    for denom in (l2 - l1, 2.0 * l2 - l1, l2 - 2.0 * l1):
        assert abs(denom) > 1e-9 * l2


def test_fig4_preset_budgets():
    cfg = preset_config("fig4")
    assert cfg.budgets == (
        PowerBudget(0.0, 5.0, 1.0, 1e-5),
        PowerBudget(0.0, 10.0, 1.0, 1e-5),
    )



# ---------------------------------------------------------------------------
# Messages and documented defaults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,kind,message",
    [
        ("bogus = 1\n" + MINIMAL, ParseError, "line 1: unknown key 'bogus' at top level"),
        ("seed = 1\nseed = 2\n" + MINIMAL, ParseError, "line 2: duplicate key 'seed'"),
        ("seed\n" + MINIMAL, ParseError, "line 1: expected 'key = value', got 'seed'"),
        ("seed =\n" + MINIMAL, ParseError, "line 1: missing value for key 'seed'"),
        (
            "[other]\n" + MINIMAL,
            ParseError,
            "line 1: unknown section '[other]'; only [budget] is allowed",
        ),
        ("seed = abc\n" + MINIMAL, ParseError, "line 1: value for 'seed' is not an integer: 'abc'"),
        ("quad_tol = 0.5\n" + MINIMAL, ParseError, "line 1: unknown key 'quad_tol' at top level"),
        ("output = out.csv\n" + MINIMAL, ParseError, "line 1: unknown key 'output' at top level"),
        (
            MINIMAL + "\n[budget]\np1 = 1\np2 = 1\nnoise = 1\nseed = 2\n",
            ParseError,
            "line 12: unknown key 'seed' at [budget] section",
        ),
        ("", ValidationError, "exp.cfg: at least one [budget] section is required"),
        ("[budget]\np1 = 1\np2 = 1\n", ValidationError, "exp.cfg: budget 0 is missing key 'noise'"),
        (
            "sigma1_sq = 0.5\nlambda1 = 1\n" + MINIMAL,
            ValidationError,
            "exp.cfg: give either sigma1_sq/sigma2_sq or lambda1/lambda2, not both",
        ),
        (
            "methods = bogus\n" + MINIMAL,
            ValidationError,
            "unknown method 'bogus'; expected one of "
            "('closed-form', 'quadrature', 'monte-carlo')",
        ),
        (
            "methods = monte-carlo\nmc_samples = 10\n" + MINIMAL,
            ValidationError,
            "mc_samples must be in [1000, MAX_SAMPLES = 100000000] when monte-carlo is "
            "selected, got 10",
        ),
        ("seed = -5\n" + MINIMAL, ValidationError, "seed must be in [0, 2**64 - 1], got -5"),
        (
            "seed = 0x10000000000000000\n" + MINIMAL,
            ValidationError,
            "seed must be in [0, 2**64 - 1], got 18446744073709551616",
        ),
        ("rate_step = -1\n" + MINIMAL, ValidationError, "rate step must be > 0, got -1.0"),
        (
            "sigma1_sq = -0.5\n" + MINIMAL,
            ValidationError,
            "exp.cfg: sigma1_sq must be > 0, got -0.5",
        ),
        (
            "[budget]\np0 = 2\np1 = 1\np2 = 1\nnoise = 1\n",
            ValidationError,
            "exp.cfg: budget 0: p0 must satisfy 0 <= p0 <= min(p1, p2), "
            "got p0=2.0 with p1=1.0, p2=1.0",
        ),
        (
            "[budget]\np1 = 1\np2 = five\nnoise = 1\n",
            ParseError,
            "line 3: value for 'p2' is not a number: 'five'",
        ),
        (
            "thetas = 0.5, abc\n" + MINIMAL,
            ParseError,
            "line 1: value for 'thetas' is not a number: 'abc'",
        ),
        (
            "thetas = 0.5, 1.5\n" + MINIMAL,
            ValidationError,
            "exp.cfg: thetas: theta must be in [-1, 1], got 1.5",
        ),
        ("thetas = ,\n" + MINIMAL, ValidationError, "at least one theta is required"),
        ("methods = ,\n" + MINIMAL, ValidationError, "methods must be nonempty"),
    ],
)
def test_every_config_error_message_byte_for_byte(text, kind, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text, source="exp.cfg")
    assert type(err.value) is kind
    assert str(err.value) == message


def _readme_ini_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^## Config file format\n.*?^```ini\n(.*?)^```$", readme, re.M | re.S)
    return block


def _docstring_key_block():
    (block,) = re.findall(r"keys::\n\n(.*?)\n\n", swmac.config.__doc__, re.S)
    return textwrap.dedent(block) + "\n[budget]\np1 = 1\np2 = 5\nnoise = 1e-5\n"


@pytest.mark.parametrize("block", [_readme_ini_block, _docstring_key_block])
def test_the_documented_values_are_the_defaults(block):
    # every key a block sets is at ExperimentConfig's default
    expected = ExperimentConfig(budgets=(PowerBudget(0.0, 1.0, 5.0, 1e-5),))
    assert parse_config(block()) == expected
    assert repr(parse_config(block())) == repr(expected)
