"""Independent oracles used by the test suite.

Everything here is implemented from first principles (inline formulas,
brute-force integration) and deliberately shares no code with the package
under test.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate


def fgm_cdf(u1: float, u2: float, theta: float) -> float:
    return u1 * u2 * (1.0 + theta * (1.0 - u1) * (1.0 - u2))


def gain_density(c: float, d: float, theta: float, lam1: float, lam2: float) -> float:
    """Joint density of correlated exponential gains, written out in full."""
    return (
        lam1
        * lam2
        * math.exp(-lam1 * c)
        * math.exp(-lam2 * d)
        * (1.0 + theta * (2.0 * math.exp(-lam1 * c) - 1.0) * (2.0 * math.exp(-lam2 * d) - 1.0))
    )


def brute_force_outage(
    lam1: float, lam2: float, a: float, b: float, gamma: float, theta: float
) -> float:
    """P[a*g1 + b*g2 <= gamma] by 2-D adaptive integration over the triangle."""
    if gamma <= 0.0:
        return 0.0
    val, err = integrate.dblquad(
        lambda c, d: gain_density(c, d, theta, lam1, lam2),
        0.0,
        gamma / b,
        0.0,
        lambda d: (gamma - b * d) / a,
        epsabs=1e-12,
    )
    assert err < 1e-9
    return val


def convolution_outage(lam1: float, lam2: float, a: float, b: float, gamma: float) -> float:
    """Independent-case (theta = 0) outage from the two-exponential
    convolution: X = a*g1 ~ Exp(lam1/a), Y = b*g2 ~ Exp(lam2/b)."""
    if gamma <= 0.0:
        return 0.0
    p = b / a
    if abs(lam2 - lam1 * p) < 1e-9 * max(lam2, lam1 * p):
        alpha = lam1 / a
        return 1.0 - (1.0 + alpha * gamma) * math.exp(-alpha * gamma)
    return 1.0 - (
        lam2 * math.exp(-lam1 * gamma / a) - lam1 * p * math.exp(-lam2 * gamma / b)
    ) / (lam2 - lam1 * p)


def closed_form_residual(lam1: float, lam2: float, a: float, b: float, gamma: float) -> float:
    """Exact-minus-closed-form deviation at theta = 0, from the dropped
    truncation of the inner integration limit."""
    p = b / a
    return lam1 * p * math.exp(-lam2 * gamma / b) / (lam2 - lam1 * p)


def spearman_rho_target(theta: float) -> float:
    """Spearman rho of the FGM copula via 12*dblquad(C) - 3."""
    val, err = integrate.dblquad(
        lambda v, u: fgm_cdf(u, v, theta), 0.0, 1.0, 0.0, 1.0, epsabs=1e-12
    )
    assert err < 1e-10
    return 12.0 * val - 3.0


def pearson_corr_target(theta: float, lam1: float, lam2: float) -> float:
    """Pearson correlation of the correlated exponential pair via
    brute-force numeric E[g1*g2] (Exp(lam) has mean 1/lam, var 1/lam^2)."""
    hi1, hi2 = 60.0 / lam1, 60.0 / lam2
    e_prod, err = integrate.dblquad(
        lambda d, c: c * d * gain_density(c, d, theta, lam1, lam2),
        0.0,
        hi1,
        0.0,
        hi2,
        epsabs=1e-10,
    )
    assert err < 1e-8
    cov = e_prod - (1.0 / lam1) * (1.0 / lam2)
    return cov * lam1 * lam2


def empirical_spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank-statistics estimator, written out rather than delegated."""
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def fgm_outage(lam1: float, lam2: float, a: float, b: float, gamma: float, theta: float) -> float:
    """P[a*g1 + b*g2 <= gamma] under the FGM law from the four-term split of
    ``gain_density``: (1+theta)*Exp(lam1)xExp(lam2) - theta*Exp(2*lam1)xExp(lam2)
    - theta*Exp(lam1)xExp(2*lam2) + theta*Exp(2*lam1)xExp(2*lam2), each term an
    independent pair whose outage is ``convolution_outage``.

    Each term is computed as ``1 - ...``, so the result carries an absolute
    error of about 1e-16 and loses all relative precision when the outage
    is tiny: at preset scale (outage from 1e-19 to 8e-8) it is off by up to
    920x on fig2 rows.  Its one use is as the independent float cross-check
    of ``decimal_outage`` in test_outage's
    ``test_decimal_oracle_matches_the_float_forms``; gate nothing else on
    it."""
    return (
        (1.0 + theta) * convolution_outage(lam1, lam2, a, b, gamma)
        - theta * convolution_outage(2.0 * lam1, lam2, a, b, gamma)
        - theta * convolution_outage(lam1, 2.0 * lam2, a, b, gamma)
        + theta * convolution_outage(2.0 * lam1, 2.0 * lam2, a, b, gamma)
    )


def _decimal_pair_outage(alpha: Fraction, beta: Fraction, gamma: Decimal) -> Decimal:
    """P[X + Y <= gamma] for independent X ~ Exp(alpha), Y ~ Exp(beta),
    with the rates exact, so that only truly equal rates take the Erlang
    branch and beta - alpha is exact where they differ."""

    def dec(r: Fraction) -> Decimal:
        return Decimal(r.numerator) / Decimal(r.denominator)

    a, b = dec(alpha), dec(beta)
    if alpha == beta:
        return 1 - (1 + a * gamma) * (-a * gamma).exp()
    return 1 - (b * (-a * gamma).exp() - a * (-b * gamma).exp()) / dec(beta - alpha)


@functools.lru_cache(maxsize=4096)
def _decimal_pairs(lam1: float, lam2: float, a: float, b: float, gamma: float) -> tuple:
    """The four pairs' outages of :func:`decimal_outage`, which do not
    depend on theta."""
    x, y = Fraction(lam1) / Fraction(a), Fraction(lam2) / Fraction(b)
    with localcontext() as ctx:
        ctx.prec = 60
        rates = ((x, y), (2 * x, y), (x, 2 * y), (2 * x, 2 * y))
        return tuple(_decimal_pair_outage(u, v, Decimal(gamma)) for u, v in rates)


def decimal_outage(
    lam1: float, lam2: float, a: float, b: float, gamma: float, theta: float
) -> float:
    """P[a*g1 + b*g2 <= gamma] under the FGM law, in 60-digit ``decimal``
    arithmetic from the exact float inputs: the four-pair mixture with
    weight 1+theta on rates (x, y), -theta on (2x, y) and on (x, 2y), and
    theta on (2x, 2y), where a*g1 ~ Exp(x = lam1/a) and b*g2 ~ Exp(y =
    lam2/b).  Equal rates take the Erlang branch.  The ``1 - ...`` of each
    pair cancels about 20 digits at an outage of 1e-20, so the result is
    still exact to double precision there."""
    f = _decimal_pairs(lam1, lam2, a, b, gamma)
    with localcontext() as ctx:
        ctx.prec = 60
        th = Decimal(theta)
        return float((1 + th) * f[0] - th * f[1] - th * f[2] + th * f[3])
