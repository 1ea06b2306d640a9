"""Rate regions and outage probability for the two-user wireless MAC with
FGM-correlated Rayleigh fading.

The package has four parts:

* :mod:`swmac.copula` - the FGM dependence model, exponential fading
  marginals, and correlated gain sampling;
* :mod:`swmac.regions` - Gaussian and instantaneous achievable-rate
  regions with membership tests and plot-ready vertices;
* :mod:`swmac.outage` - the sum-rate outage probability via an analytic
  closed form, exact quadrature, and Monte Carlo;
* :mod:`swmac.config` / :mod:`swmac.sweep` / :mod:`swmac.cli` - the
  configuration-driven experiment harness with deterministic CSV output.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    ParseError,
    RateGrid,
    ValidationError,
    load_config,
    parse_config,
    preset_config,
    preset_names,
)
from .copula import (
    DependenceParameter,
    FadingMarginals,
    GainPair,
    UnitPair,
    conditional_cdf,
    copula_cdf,
    copula_density,
    sample_gain_pairs,
    sample_unit_pairs,
)
from .outage import (
    CLOSED_FORM,
    METHODS,
    MONTE_CARLO,
    QUADRATURE,
    OutageCurve,
    OutageEvaluationError,
    gamma_threshold,
    outage_closed_form,
    outage_monte_carlo,
    outage_quadrature,
)
from .regions import (
    PowerBudget,
    RatePoint,
    RegionBounds,
    VertexMembershipError,
    contains,
    gaussian_region_bounds,
    region_vertices,
    wireless_region_bounds,
)
from .streams import derive_seed, substream
from .sweep import (
    SweepTable,
    compare_methods,
    emit_csv,
    emit_region,
    emit_samples,
    run_outage_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # copula
    "DependenceParameter",
    "UnitPair",
    "FadingMarginals",
    "GainPair",
    "copula_cdf",
    "copula_density",
    "conditional_cdf",
    "sample_unit_pairs",
    "sample_gain_pairs",
    # regions
    "PowerBudget",
    "RatePoint",
    "RegionBounds",
    "VertexMembershipError",
    "gaussian_region_bounds",
    "wireless_region_bounds",
    "contains",
    "region_vertices",
    # outage
    "CLOSED_FORM",
    "QUADRATURE",
    "MONTE_CARLO",
    "METHODS",
    "OutageCurve",
    "OutageEvaluationError",
    "gamma_threshold",
    "outage_closed_form",
    "outage_quadrature",
    "outage_monte_carlo",
    # streams
    "substream",
    "derive_seed",
    # config + sweep
    "ConfigError",
    "ParseError",
    "ValidationError",
    "RateGrid",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "preset_config",
    "preset_names",
    "SweepTable",
    "run_outage_sweep",
    "compare_methods",
    "emit_csv",
    "emit_region",
    "emit_samples",
]
