"""Independent reference values for the benchmark's correctness gate.

Nothing here imports ``swmac``: the outage law, the paper's closed form and
the Monte Carlo acceptance test are written out from the mathematics so a
defect in the package cannot hide by being shared with its checker.

The FGM-exponential joint density is a signed mixture of four independent
exponential pairs, rates (l1, l2), (2*l1, l2), (l1, 2*l2), (2*l1, 2*l2)
with weights 1 + theta, -theta, -theta, +theta.  So

    P[A*g1 + B*g2 <= gamma] = sum_k w_k * H(gamma; mu1_k/A, mu2_k/B)

where H is the hypoexponential CDF of Exp(alpha) + Exp(beta), written in
the cancellation-free form

    H = -alpha*beta*gamma^2 * (alpha*phi2(-alpha*gamma) - beta*phi2(-beta*gamma)) / (beta - alpha)

with phi2(x) = (e^x - 1 - x)/x^2, summed as a series for small |x|.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

#: Largest relative gap accepted between a quadrature row and the reference.
QUADRATURE_REL_TOL = 1e-7
#: Largest absolute gap accepted between a closed-form row and the
#: transcription below (both are O(1) values written to 12 digits).
CLOSED_FORM_ABS_TOL = 1e-9
#: Two-sided tail probability below which a Monte Carlo count is rejected.
MC_TAIL_ALPHA = 1e-7

_PHI2_SERIES_LIMIT = 0.1
# phi2(x) = sum_{k>=0} x^k / (k + 2)!
_PHI2_COEFFS = [1.0 / math.factorial(k + 2) for k in range(12)]


def phi2(x: np.ndarray) -> np.ndarray:
    """(e^x - 1 - x)/x^2, accurate to a few ulps for all real x <= 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _PHI2_SERIES_LIMIT
    xs = np.where(small, x, 0.0)
    series = np.zeros_like(x)
    for c in reversed(_PHI2_COEFFS):
        series = series * xs + c
    xl = np.where(small, 1.0, x)
    direct = (np.expm1(xl) - xl) / (xl * xl)
    return np.where(small, series, direct)


def hypoexponential_cdf(alpha, beta, gamma) -> np.ndarray:
    """P[Exp(alpha) + Exp(beta) <= gamma] for distinct rates alpha != beta."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(gamma, float)
    )
    if np.any(np.abs(beta - alpha) <= 1e-6 * (alpha + beta)):
        raise ValueError("hypoexponential_cdf needs distinct rates (no Erlang limit here)")
    num = alpha * phi2(-alpha * gamma) - beta * phi2(-beta * gamma)
    return -alpha * beta * gamma * gamma * num / (beta - alpha)


def outage_reference(theta, a, b, noise, rate, lam1, lam2) -> np.ndarray:
    """Exact P[a*g1 + b*g2 <= noise*(2^(2*rate) - 1)] under the FGM copula."""
    theta = np.asarray(theta, float)
    gamma = noise * np.expm1(2.0 * np.asarray(rate, float) * math.log(2.0))
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    total = np.zeros(np.broadcast(theta, gamma, a, b).shape)
    for weight, m1, m2 in ((1.0 + theta, 1, 1), (-theta, 2, 1), (-theta, 1, 2), (theta, 2, 2)):
        total = total + weight * hypoexponential_cdf(m1 * lam1 / a, m2 * lam2 / b, gamma)
    return total


def closed_form_transcription(theta, a, b, noise, rate, lam1, lam2) -> np.ndarray:
    """The paper's closed form, written out independently of the package.

    With P = B/A, e1 = exp(-l1*gamma/A) and e2 = exp(-2*l1*gamma/A):
    1 - [l2*e1/(l2 - l1*P) + theta*(l2*e1/(l2 - l1*P) - 2*l2*e1/(2*l2 - P*l1)
         - l2*e2/(l2 - 2*P*l1) + l2*e2/(l2 - l1*P))].
    """
    theta = np.asarray(theta, float)
    gamma = noise * (2.0 ** (2.0 * np.asarray(rate, float)) - 1.0)
    p = np.asarray(b, float) / np.asarray(a, float)
    e1 = np.exp(-lam1 * gamma / a)
    e2 = np.exp(-2.0 * lam1 * gamma / a)
    d1 = lam2 - lam1 * p
    d2 = 2.0 * lam2 - p * lam1
    d3 = lam2 - 2.0 * p * lam1
    base = lam2 * e1 / d1
    bracket = lam2 * e1 / d1 - 2.0 * lam2 * e1 / d2 - lam2 * e2 / d3 + lam2 * e2 / d1
    return 1.0 - (base + theta * bracket)


def binomial_consistent(count, n: int, p) -> np.ndarray:
    """True where ``count`` events in ``n`` draws is a plausible Binomial(n, p) outcome.

    Two-sided exact tail test at level MC_TAIL_ALPHA.  Zero events are
    accepted whenever n*p is small, because P[X <= 0] = (1 - p)^n is then
    close to 1.
    """
    count = np.asarray(count, float)
    p = np.clip(np.asarray(p, float), 0.0, 1.0)
    lower_tail = stats.binom.cdf(count, n, p)
    upper_tail = stats.binom.sf(count - 1, n, p)
    return np.minimum(lower_tail, upper_tail) >= MC_TAIL_ALPHA / 2.0


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation of two samples without ties."""
    rx = np.empty(len(x))
    ry = np.empty(len(y))
    rx[np.argsort(x, kind="stable")] = np.arange(len(x))
    ry[np.argsort(y, kind="stable")] = np.arange(len(y))
    return float(np.corrcoef(rx, ry)[0, 1])
