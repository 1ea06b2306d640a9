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

from . import config, copula, outage, regions, streams, sweep
from .config import *
from .copula import *
from .outage import *
from .regions import *
from .streams import *
from .sweep import *

__version__ = "0.1.0"

# Each module's own __all__ decides which of its names are public.
__all__ = ["__version__"]
__all__ += config.__all__
__all__ += copula.__all__
__all__ += outage.__all__
__all__ += regions.__all__
__all__ += streams.__all__
__all__ += sweep.__all__
