"""FGM copula mathematics and its composition with exponential fading.

The Farlie-Gumbel-Morgenstern (FGM) family

    C(u1, u2) = u1*u2*(1 + theta*(1 - u1)*(1 - u2)),    theta in [-1, 1],

spans weak negative (theta < 0) through weak positive (theta > 0)
dependence, with theta = 0 the independence copula.  Composing it with the
exponential marginals F_i(g) = 1 - exp(-lambda_i*g) of squared Rayleigh
channel gains gives the joint law of a correlated gain pair.  Its
conditional law has one kernel, which outage quadrature shares: three
theta-free, nonnegative parts whose combination at theta is the law, so an
integral of the law is a combination of the integrals of its parts.  The
sampler inverts that law, with its theta-free terms computed apart from its
per-theta step so that one draw can be inverted at both signed anchors.

All analytical functions here are pure.  Samplers mutate only the
generator passed in; concurrent sampling requires independent substreams
(see :mod:`swmac.streams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .streams import BLOCK_SIZE, substream

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
]


@dataclass(frozen=True)
class DependenceParameter:
    """FGM dependence parameter, dimensionless, in [-1, 1]; -0.0 is stored
    as 0.0, so that it reads and writes as the independence it is."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta) + 0.0)
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
    """A pair of finite, nonnegative channel power gains (squared
    magnitudes)."""

    g1: float
    g2: float

    def __post_init__(self) -> None:
        for name in ("g1", "g2"):
            value = float(getattr(self, name))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Kernels: the conditional law, shared by the copula and the gain evaluators,
# and the two steps after the draw, on whole blocks, which the samplers and
# the Monte Carlo count share.  The conditional inversion is split in two: a
# theta-free prelude, which the Monte Carlo count computes once per batch,
# and a per-theta step into buffers the caller provides, which the count
# takes at the anchors theta = 1 and -1 only.  The count samples any other
# theta as the exact mixture of the anchors, not through this inversion, so
# an interior theta's Monte Carlo rows are not scored on the pairs the
# sampler yields at that theta; the anchor rows are, and every count is
# still Binomial(n, p).
# ---------------------------------------------------------------------------


def _conditional_parts(u, p, p_bar):
    """The theta-free parts (L0, L+, L-) = (u, u*(u + 2*p_bar*(1 - u)),
    u*(u + 2*p*(1 - u))) of the law P[X <= x | Y = y] =
    u*(1 + theta*(1 - 2*p)*(1 - u)), with u = F_X(x), p = F_Y(y) and
    p_bar = 1 - p, passed in as it may be exact where 1 - p is not.  None is
    negative on [0, 1], and the law is their :func:`_at_theta` combination,
    so nothing cancels, at theta = -1 either."""
    return u, _conditional_part(u, p_bar), _conditional_part(u, p)


def _conditional_part(u, q):
    """L+ (``q`` = p_bar) or L- (``q`` = p) of :func:`_conditional_parts`
    alone, u*(u + q*2*(1 - u))."""
    return u * (u + q * (2.0 * (1.0 - u)))


def _at_theta(theta, l0, l_pos, l_neg):
    """(1 - |theta|)*l0 + |theta|*l_sign(theta), at a scalar or broadcast
    theta: the law from its parts, or an integral of it from theirs."""
    mag = np.abs(theta)
    return (1.0 - mag) * l0 + mag * np.where(theta >= 0.0, l_pos, l_neg)


_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


def _inversion_prelude(u1, v):
    """The theta-free terms of :func:`_inversion_step`: (c, 4*v, 2*v) with
    c = 1 - 2*u1, each a new array of the broadcast shape of ``u1`` and
    ``v``.  One prelude serves the inversion at every theta."""
    shape = np.broadcast(u1, v).shape
    c, v4, v2 = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(u1, 2.0, out=c)
    np.subtract(1.0, c, out=c)
    np.multiply(v, 4.0, out=v4)
    np.multiply(v, 2.0, out=v2)
    return c, v4, v2


def _inversion_step(theta, prelude, out, a, den):
    """Solve P[U2 <= u2 | U1 = u1] = v for u2 in [0, 1], into ``out``,
    from the :func:`_inversion_prelude` of (u1, v); ``a`` and ``den`` are
    scratch buffers of the same shape.  Returns ``out``.

    With a = theta*(1 - 2*u1) the law is u2*(1 + a*(1 - u2)), so the
    equation is a*u2^2 - (1 + a)*u2 + v = 0, whose in-range root is
    ((1 + a) - sqrt((1 + a)^2 - 4*a*v)) / (2*a).  It is evaluated in the
    algebraically identical conjugate form 2*v / ((1 + a) + sqrt(disc)),
    which is stable for all a (a -> 0 gives u2 = v exactly, so no
    degenerate-case branch is needed).

    The operations, and so the bits, are those of the plain expression
    theta*(1 - 2*u1), (1 + a)^2 - 4*a*v, ... evaluated left to right:
    scaling by 4 is exact, so a*(4*v) rounds the same real number as
    (a*4)*v.  The samplers call this once per block and the Monte Carlo
    count once per signed anchor of a batch, so it keeps its numpy calls
    few and allocates nothing: their fixed cost is a large share of a
    block's time.
    """
    c, v4, v2 = prelude
    np.multiply(c, theta, out=a)  # a = theta*(1 - 2*u1)
    np.add(a, 1.0, out=den)  # 1 + a
    np.multiply(a, v4, out=a)  # 4*a*v
    np.multiply(den, den, out=out)
    np.subtract(out, a, out=out)  # disc
    # Raising disc (>= 0 but for rounding) to the smallest subnormal, not to
    # 0, keeps den > 0 at (a, v) = (-1, 0), where the root 2*v/den is 0, and
    # changes no bit elsewhere: a nonzero 1 + a is at least 2**-53, which
    # absorbs sqrt(2**-1074), and a positive disc is at least 2**-1074.
    np.maximum(out, _SMALLEST_SUBNORMAL, out=out)
    np.sqrt(out, out=out)
    np.add(den, out, out=den)
    np.divide(v2, den, out=out)
    return np.minimum(out, 1.0, out=out)  # u2 >= 0; rounding may pass 1


def _invert_conditional(theta, u1, v):
    """:func:`_inversion_step` at one theta, in new arrays."""
    prelude = _inversion_prelude(u1, v)
    out, a, den = (np.empty_like(term) for term in prelude)
    return _inversion_step(theta, prelude, out, a, den)


def _exp_quantile(u, *lams):
    """Quantiles -ln(1 - u)/lam of Exp(lam), in place on ``u``: an (m,)
    array with one rate, or an (m, k) array with one rate per column.
    Computed as ln(1 - u)/(-lam), which has the same bits (IEEE division
    commutes with negation).  The sampler and the Monte Carlo count both
    transform through this kernel, so their gains agree bit for bit."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    # one division per column by a scalar: a broadcast row of rates would
    # make numpy loop over rows of length k
    columns = u.reshape(len(u), len(lams))
    for col, lam in enumerate(lams):
        np.divide(columns[:, col], -lam, out=columns[:, col])
    return u


# ---------------------------------------------------------------------------
# Copula operations
# ---------------------------------------------------------------------------


def copula_cdf(theta: DependenceParameter, u: UnitPair) -> float:
    """FGM copula CDF C(u1, u2) = u1*u2*(1 + theta*(1-u1)*(1-u2))."""
    th, u1, u2 = theta.theta, u.u1, u.u2
    return float(u1 * u2 * (1.0 + th * (1.0 - u1) * (1.0 - u2)))


def copula_density(theta: DependenceParameter, u: UnitPair) -> float:
    """FGM copula density c(u1, u2) = 1 + theta*(1-2*u1)*(1-2*u2).

    The mixed second partial of the CDF; a polynomial, nonnegative on the
    closed unit square for every theta in [-1, 1].
    """
    th, u1, u2 = theta.theta, u.u1, u.u2
    return float(1.0 + th * (1.0 - 2.0 * u1) * (1.0 - 2.0 * u2))


def conditional_cdf(theta: DependenceParameter, u1: float, u2: float) -> float:
    """Conditional CDF of U2 given U1 = u1: dC/du1 = u2*(1 + theta*(1-2*u1)*(1-u2)).

    Monotone nondecreasing in u2 for fixed (theta, u1); maps 0 -> 0 and 1 -> 1.
    """
    u = UnitPair(u1, u2)
    return float(_at_theta(theta.theta, *_conditional_parts(u.u2, u.u1, 1.0 - u.u1)))


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
    copula of the columns is :func:`copula_cdf`.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _gain_pairs(theta, marginals, rng.random((n, 2)))


def _gain_pairs(
    theta: DependenceParameter, marginals: FadingMarginals, w: np.ndarray
) -> np.ndarray:
    """The steps of :func:`sample_gain_pairs` after the draw, conditional
    inversion then exponential transform: the (m, 2) raw uniforms ``w``,
    (u1, v) per row, become gain pairs in place."""
    w[:, 1] = _invert_conditional(theta.theta, w[:, 0], w[:, 1])
    return _exp_quantile(w, marginals.lambda1, marginals.lambda2)


def _uniform_blocks(n: int, seed: int, blocks: Optional[range] = None) -> Iterator[np.ndarray]:
    """The raw (u1, v) uniforms of ``n`` pairs, as (m, 2) blocks of at most
    ``BLOCK_SIZE`` rows; ``n``, ``seed`` and ``blocks`` are checked on the
    call, before any draw.

    Every pair of ``seed`` comes from the one substream ``(seed, 0)``, pair
    i from its uniforms 2*i and 2*i + 1, so a pair depends on (seed, i)
    alone.  Block ``b`` holds pairs ``[b*BLOCK_SIZE, min((b + 1)*BLOCK_SIZE,
    n))``; ``blocks``, an increasing range of block indices inside
    ``range(ceil(n / BLOCK_SIZE))``, possibly empty, draws only those blocks
    (default: all of them); any other range raises ValueError.  Philox is
    counter-based, so a block drawn alone, after advancing the generator
    over the blocks skipped, equals the same block drawn in sequence.  This
    is the one place that addresses gain draws; :func:`iter_gain_pair_chunks`
    and the Monte Carlo count both read it.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = substream(seed, 0)  # checks the seed here, not at the first draw
    count = -(-n // BLOCK_SIZE)
    if blocks is None:
        blocks = range(count)
    elif blocks.step < 0 or (blocks and not (0 <= blocks[0] and blocks[-1] < count)):
        raise ValueError(
            f"blocks must be an increasing range inside range({count}), the blocks "
            f"of n = {n} pairs, got {blocks}"
        )

    def draw() -> Iterator[np.ndarray]:
        undrawn = 0
        for b in blocks:
            # over the blocks skipped: a block takes 2*BLOCK_SIZE uniforms, and
            # one Philox counter step gives 4
            rng.bit_generator.advance((b - undrawn) * BLOCK_SIZE // 2)
            yield rng.random((min(BLOCK_SIZE, n - b * BLOCK_SIZE), 2))
            undrawn = b + 1

    return draw()


def iter_gain_pair_chunks(
    theta: DependenceParameter,
    marginals: FadingMarginals,
    n: int,
    seed: int,
    blocks: Optional[range] = None,
) -> Iterator[np.ndarray]:
    """``n`` correlated gain pairs, drawn lazily and yielded in blocks of at
    most ``BLOCK_SIZE`` pairs; ``n`` and ``seed`` are checked on the call,
    before any pair is drawn.  ``blocks`` selects blocks by index, as in
    :func:`_uniform_blocks`.

    Every pair is drawn from the one substream ``(seed, 0)`` (see
    :func:`_uniform_blocks`), so any assignment of blocks to workers (or any
    traversal order) produces the same values for the same pair index.
    Each block is mapped through the same conditional inversion and
    exponential transform as :func:`sample_gain_pairs`, so the concatenated
    blocks equal, bit for bit, ``sample_gain_pairs(theta, marginals, n,
    substream(seed, 0))``; only the working set is smaller.
    """
    return (_gain_pairs(theta, marginals, w) for w in _uniform_blocks(n, seed, blocks))

