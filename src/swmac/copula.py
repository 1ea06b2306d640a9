"""FGM copula mathematics and its composition with exponential fading.

The Farlie-Gumbel-Morgenstern (FGM) family

    C(u1, u2) = u1*u2*(1 + theta*(1 - u1)*(1 - u2)),    theta in [-1, 1],

spans weak negative (theta < 0) through weak positive (theta > 0)
dependence, with theta = 0 the independence copula.  Composing it with the
exponential marginals F_i(g) = 1 - exp(-lambda_i*g) of squared Rayleigh
channel gains gives the joint law of a correlated gain pair; the sampler
draws from that law by conditional inversion.

All analytical functions here are pure.  Samplers mutate only the
generator passed in; concurrent sampling requires independent substreams
(see :mod:`swmac.streams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .streams import CHUNK_SIZE, substream

__all__ = [
    "DependenceParameter",
    "UnitPair",
    "FadingMarginals",
    "GainPair",
    "copula_cdf",
    "copula_density",
    "conditional_cdf",
    "sample_unit_pairs",
    "sample_gain_pairs",
    "iter_gain_pair_chunks",
    "joint_gain_pdf",
]


@dataclass(frozen=True)
class DependenceParameter:
    """FGM dependence parameter, dimensionless, in [-1, 1]."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        if not (-1.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [-1, 1], got {self.theta}")


@dataclass(frozen=True)
class UnitPair:
    """A point on the unit square; both coordinates are probabilities."""

    u1: float
    u2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u1", float(self.u1))
        object.__setattr__(self, "u2", float(self.u2))
        if not (0.0 <= self.u1 <= 1.0):
            raise ValueError(f"u1 must be in [0, 1], got {self.u1}")
        if not (0.0 <= self.u2 <= 1.0):
            raise ValueError(f"u2 must be in [0, 1], got {self.u2}")


@dataclass(frozen=True)
class FadingMarginals:
    """Exponential rate parameters of the two squared Rayleigh gains.

    ``lambda_i = 1/(2*sigma_i^2)`` where ``sigma_i^2`` is the per-branch
    Rayleigh variance; the mean power gain is ``1/lambda_i``.  Both rates
    are finite and positive.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            value = float(getattr(self, name))
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_sigmas(cls, sigma1_sq: float, sigma2_sq: float) -> "FadingMarginals":
        """Build from Rayleigh variances: lambda_i = 1/(2*sigma_i^2)."""
        if not sigma1_sq > 0.0:
            raise ValueError(f"sigma1_sq must be > 0, got {sigma1_sq}")
        if not sigma2_sq > 0.0:
            raise ValueError(f"sigma2_sq must be > 0, got {sigma2_sq}")
        return cls(1.0 / (2.0 * sigma1_sq), 1.0 / (2.0 * sigma2_sq))


@dataclass(frozen=True)
class GainPair:
    """A pair of nonnegative channel power gains (squared magnitudes)."""

    g1: float
    g2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g1", float(self.g1))
        object.__setattr__(self, "g2", float(self.g2))
        if not self.g1 >= 0.0:
            raise ValueError(f"g1 must be >= 0, got {self.g1}")
        if not self.g2 >= 0.0:
            raise ValueError(f"g2 must be >= 0, got {self.g2}")


# ---------------------------------------------------------------------------
# Array kernels.  Public operations and the bulk samplers share these, so
# scalar and vectorized paths are bit-identical.
# ---------------------------------------------------------------------------


def _cdf(theta, u1, u2):
    return u1 * u2 * (1.0 + theta * (1.0 - u1) * (1.0 - u2))


def _density(theta, u1, u2):
    return 1.0 + theta * (1.0 - 2.0 * u1) * (1.0 - 2.0 * u2)


def _conditional(theta, u1, u2):
    # dC/du1 at (u1, u2)
    return u2 * (1.0 + theta * (1.0 - 2.0 * u1) * (1.0 - u2))


def _invert_conditional(theta, u1, v):
    """Solve conditional(theta, u1, u2) = v for u2 in [0, 1].

    With a = theta*(1 - 2*u1) the equation is the quadratic
    a*u2^2 - (1 + a)*u2 + v = 0 whose in-range root is
    ((1 + a) - sqrt((1 + a)^2 - 4*a*v)) / (2*a).  It is evaluated in the
    algebraically identical conjugate form 2*v / ((1 + a) + sqrt(disc)),
    which is stable for all a (a -> 0 gives u2 = v exactly, so no
    degenerate-case branch is needed).

    Every step writes into one of three preallocated buffers; the
    operations, and so the bits, are those of the plain expression
    theta*(1 - 2*u1), (1 + a)^2 - 4*a*v, ... evaluated left to right.
    """
    u1 = np.asarray(u1, dtype=float)
    v = np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u1.shape, v.shape)
    a, den, u2 = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(u1, 2.0, out=a)
    np.subtract(1.0, a, out=a)
    np.multiply(a, theta, out=a)  # a = theta*(1 - 2*u1)
    np.add(a, 1.0, out=den)  # 1 + a
    np.multiply(a, 4.0, out=a)
    np.multiply(a, v, out=a)  # 4*a*v
    np.multiply(den, den, out=u2)
    np.subtract(u2, a, out=u2)  # disc
    np.maximum(u2, 0.0, out=u2)
    np.sqrt(u2, out=u2)
    np.add(den, u2, out=den)
    np.multiply(v, 2.0, out=u2)
    # den == 0 only at (a, v) = (-1, 0), where the root is 0.
    positive = np.greater(den, 0.0)
    np.divide(u2, den, out=u2, where=positive)
    np.copyto(u2, 0.0, where=~positive)
    return np.clip(u2, 0.0, 1.0, out=u2)


def _exp_cdf(lam, g):
    return -np.expm1(-lam * np.asarray(g, dtype=float))


def _exp_inverse_pairs(lam1, lam2, u):
    # Quantiles of Exp(lam1) and Exp(lam2) for the two columns of the
    # (n, 2) array u, in place: u[:, i] <- -ln(1 - u[:, i])/lam_i.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    for col, lam in enumerate((lam1, lam2)):
        np.divide(u[:, col], lam, out=u[:, col])


# ---------------------------------------------------------------------------
# Copula operations
# ---------------------------------------------------------------------------


def copula_cdf(theta: DependenceParameter, u: UnitPair) -> float:
    """FGM copula CDF C(u1, u2) = u1*u2*(1 + theta*(1-u1)*(1-u2))."""
    return float(_cdf(theta.theta, u.u1, u.u2))


def copula_density(theta: DependenceParameter, u: UnitPair) -> float:
    """FGM copula density c(u1, u2) = 1 + theta*(1-2*u1)*(1-2*u2).

    The mixed second partial of the CDF; a polynomial, nonnegative on the
    closed unit square for every theta in [-1, 1].
    """
    return float(_density(theta.theta, u.u1, u.u2))


def conditional_cdf(theta: DependenceParameter, u1: float, u2: float) -> float:
    """Conditional CDF of U2 given U1 = u1: dC/du1 = u2*(1 + theta*(1-2*u1)*(1-u2)).

    Monotone nondecreasing in u2 for fixed (theta, u1); maps 0 -> 0 and 1 -> 1.
    """
    if not (0.0 <= u1 <= 1.0):
        raise ValueError(f"u1 must be in [0, 1], got {u1}")
    if not (0.0 <= u2 <= 1.0):
        raise ValueError(f"u2 must be in [0, 1], got {u2}")
    return float(_conditional(theta.theta, u1, u2))


def sample_unit_pairs(
    theta: DependenceParameter, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` FGM-distributed pairs by conditional inversion.

    Consumes exactly ``2*n`` uniforms from ``rng`` in interleaved order
    (u1 then v, per pair), so a vectorized block of n draws is identical to
    n consecutive single draws from the same generator.

    Returns an (n, 2) array with both marginals uniform on [0, 1].
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    w = rng.random((n, 2))
    w[:, 1] = _invert_conditional(theta.theta, w[:, 0], w[:, 1])
    return w


def sample_gain_pairs(
    theta: DependenceParameter,
    marginals: FadingMarginals,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` correlated gain pairs: g_i = -ln(1 - u_i)/lambda_i.

    Returns an (n, 2) array; marginal of column i is Exp(lambda_i) and the
    joint density is :func:`joint_gain_pdf`.
    """
    g = sample_unit_pairs(theta, n, rng)
    _exp_inverse_pairs(marginals.lambda1, marginals.lambda2, g)
    return g


def iter_gain_pair_chunks(
    theta: DependenceParameter,
    marginals: FadingMarginals,
    n: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """``n`` correlated gain pairs in chunks of ``CHUNK_SIZE``, drawn lazily;
    ``n`` is checked on the call, before any chunk is drawn.

    Chunk ``k`` is drawn from the independent substream ``(seed, k)``, so
    any assignment of chunks to workers (or any traversal order) produces
    the same values for the same logical sample index.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (
        sample_gain_pairs(theta, marginals, min(CHUNK_SIZE, n - start), substream(seed, k))
        for k, start in enumerate(range(0, n, CHUNK_SIZE))
    )


def joint_gain_pdf(
    theta: DependenceParameter, marginals: FadingMarginals, g: GainPair
) -> float:
    """Joint density of the correlated gain pair.

    Equals
    lambda1*lambda2*exp(-lambda1*g1)*exp(-lambda2*g2)
        * [1 + theta*(2*exp(-lambda1*g1) - 1)*(2*exp(-lambda2*g2) - 1)],
    i.e. the product of the exponential marginal densities times the copula
    density evaluated at the marginal CDFs; note 1 - 2*F_i(g) =
    2*exp(-lambda_i*g) - 1.
    """
    l1, l2 = marginals.lambda1, marginals.lambda2
    f1 = l1 * np.exp(-l1 * g.g1)
    f2 = l2 * np.exp(-l2 * g.g2)
    u1 = float(_exp_cdf(l1, g.g1))
    u2 = float(_exp_cdf(l2, g.g2))
    return float(f1 * f2 * _density(theta.theta, u1, u2))
