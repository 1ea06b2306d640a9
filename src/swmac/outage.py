"""Sum-rate outage probability of the correlated-fading MAC, three ways.

The outage event is failure of the instantaneous sum-rate bound: with
weights A = p1 - p0 and B = p2 - p0 on the two exponential power gains,

    P_out(R) = P[A*g1 + B*g2 <= gamma],    gamma = N*(2^(2R) - 1).

Three evaluators are provided and cross-validated:

* :func:`outage_closed_form` - the analytic expression.  Its derivation
  drops the truncation of the inner integration limit at zero, so it
  deviates from the exact probability and can leave [0, 1] at small
  gamma; such results are flagged ``out-of-range`` rather than rejected.
* :func:`outage_quadrature` - exact evaluation of the defining integral
  over the triangle A*g1 + B*g2 <= gamma in the positive quadrant (the
  inner gain integral is elementary; the outer one uses adaptive
  quadrature).  This is the reference.
* :func:`outage_monte_carlo` - empirical frequency over correlated gain
  pairs drawn with chunked substreams, deterministic for a fixed
  (seed, n) regardless of execution parallelism.
  :func:`outage_monte_carlo_grid` scores one such draw set against a whole
  (budget x rate) grid; each entry equals the single-point estimate.

:func:`outage_point_to_point` covers the single-link Rayleigh case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .copula import DependenceParameter, FadingMarginals, iter_gain_pair_chunks
from .regions import PowerBudget

__all__ = [
    "CLOSED_FORM",
    "QUADRATURE",
    "MONTE_CARLO",
    "METHODS",
    "FLAG_OUT_OF_RANGE",
    "OutageEvaluationError",
    "DegenerateDenominator",
    "QuadratureNonConvergence",
    "OutageQuery",
    "OutageEstimate",
    "gamma_threshold",
    "outage_closed_form",
    "outage_quadrature",
    "outage_monte_carlo",
    "outage_monte_carlo_grid",
    "outage_point_to_point",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte-carlo"
#: Canonical evaluator order used by sweeps and reports.
METHODS = (CLOSED_FORM, QUADRATURE, MONTE_CARLO)

FLAG_OUT_OF_RANGE = "out-of-range"

DEFAULT_QUAD_TOL = 1e-10

#: Relative threshold (w.r.t. lambda2) below which a closed-form
#: denominator counts as degenerate.
_DENOM_EPS_REL = 1e-9


class OutageEvaluationError(RuntimeError):
    """An outage evaluator could not produce a value."""


class DegenerateDenominator(OutageEvaluationError):
    """A closed-form denominator is too close to zero for the given
    marginals and power ratio; use quadrature at such parameter points."""


class QuadratureNonConvergence(OutageEvaluationError):
    """Adaptive quadrature could not meet the requested tolerance."""


@dataclass(frozen=True)
class OutageQuery:
    """One outage-probability evaluation point.

    Requires p0 strictly below min(p1, p2) so both gain weights are
    positive.
    """

    rate_threshold: float
    budget: PowerBudget
    marginals: FadingMarginals
    theta: DependenceParameter

    def __post_init__(self) -> None:
        if not self.rate_threshold >= 0.0:
            raise ValueError(f"rate_threshold must be >= 0, got {self.rate_threshold}")
        if not self.budget.p0 < min(self.budget.p1, self.budget.p2):
            raise ValueError(
                "outage queries need p0 < min(p1, p2) strictly so both gain "
                f"weights are positive; got p0={self.budget.p0}, "
                f"p1={self.budget.p1}, p2={self.budget.p2}"
            )

    @property
    def weight1(self) -> float:
        """Weight A = p1 - p0 on the first gain."""
        return self.budget.p1 - self.budget.p0

    @property
    def weight2(self) -> float:
        """Weight B = p2 - p0 on the second gain."""
        return self.budget.p2 - self.budget.p0

    @property
    def power_ratio(self) -> float:
        """Weight ratio P = B/A = (p2 - p0)/(p1 - p0)."""
        return self.weight2 / self.weight1

    @property
    def gamma(self) -> float:
        """Received-power threshold N*(2^(2R) - 1)."""
        return gamma_threshold(self.rate_threshold, self.budget.noise)


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability with its provenance.

    ``std_error`` and ``samples`` are present only for Monte Carlo.
    ``flag`` is ``out-of-range`` when a closed-form value falls outside
    [0, 1] (its known small-gamma regime); quadrature and Monte Carlo
    values are always valid probabilities.
    """

    value: float
    method: str
    std_error: Optional[float] = None
    samples: Optional[int] = None
    flag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method != CLOSED_FORM and not (0.0 <= self.value <= 1.0):
            raise ValueError(
                f"{self.method} estimate must be in [0, 1], got {self.value}"
            )
        if self.std_error is not None and not self.std_error >= 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def gamma_threshold(rate_threshold: float, noise: float) -> float:
    """Received-power threshold gamma = N*(2^(2R) - 1).

    Zero at R = 0 and strictly increasing in R.
    """
    if not rate_threshold >= 0.0:
        raise ValueError(f"rate_threshold must be >= 0, got {rate_threshold}")
    if not noise > 0.0:
        raise ValueError(f"noise must be > 0, got {noise}")
    return noise * (2.0 ** (2.0 * rate_threshold) - 1.0)


def outage_closed_form(query: OutageQuery) -> OutageEstimate:
    """Analytic sum-rate outage expression.

    With P = B/A, gamma = N*(2^(2R) - 1) and exponential rates
    (lambda1, lambda2):

        P_out = 1 - [ l2*e1/(l2 - l1*P)
                      + theta*( l2*e1/(l2 - l1*P) - 2*l2*e1/(2*l2 - P*l1)
                                - l2*e2/(l2 - 2*P*l1) + l2*e2/(l2 - l1*P) ) ]

    where e1 = exp(-l1*gamma/A) and e2 = exp(-2*l1*gamma/A).  The
    expression is affine in theta.  Its derivation integrates the first
    gain from (gamma - B*g2)/A to infinity without clamping that lower
    limit at zero, so it deviates from the exact probability (see
    :func:`outage_quadrature`); at theta = 0 the deviation equals
    l1*P*exp(-l2*gamma/B)/(l2 - l1*P).  Values outside [0, 1] are returned
    flagged ``out-of-range``.

    Raises :class:`DegenerateDenominator` when any of (l2 - l1*P),
    (2*l2 - P*l1), (l2 - 2*P*l1) is within 1e-9*l2 of zero.
    """
    l1, l2 = query.marginals.lambda1, query.marginals.lambda2
    p = query.power_ratio
    eps = _DENOM_EPS_REL * l2
    d1 = l2 - l1 * p
    d2 = 2.0 * l2 - p * l1
    d3 = l2 - 2.0 * p * l1
    for name, d in (("l2 - l1*P", d1), ("2*l2 - P*l1", d2), ("l2 - 2*P*l1", d3)):
        if abs(d) < eps:
            raise DegenerateDenominator(
                f"denominator {name} = {d} is within {eps} of zero "
                f"(lambda1={l1}, lambda2={l2}, P={p})"
            )
    gamma = query.gamma
    e1 = math.exp(-l1 * gamma / query.weight1)
    e2 = math.exp(-2.0 * l1 * gamma / query.weight1)
    base = l2 * e1 / d1
    bracket = l2 * e1 / d1 - 2.0 * l2 * e1 / d2 - l2 * e2 / d3 + l2 * e2 / d1
    value = 1.0 - (base + query.theta.theta * bracket)
    flag = FLAG_OUT_OF_RANGE if (value < 0.0 or value > 1.0) else None
    return OutageEstimate(value=value, method=CLOSED_FORM, flag=flag)


def outage_quadrature(
    query: OutageQuery, tol: float = DEFAULT_QUAD_TOL
) -> OutageEstimate:
    """Exact outage probability by integrating the joint gain density over
    the triangle A*g1 + B*g2 <= gamma in the positive quadrant.

    The inner g1 integral is elementary; the outer g2 integral is computed
    with adaptive quadrature to absolute tolerance ``tol`` (in (0, 1e-2]).

    Raises :class:`QuadratureNonConvergence` if the error estimate cannot
    meet ``tol``.
    """
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol}")
    gamma = query.gamma
    if gamma <= 0.0:
        return OutageEstimate(value=0.0, method=QUADRATURE)
    a, b = query.weight1, query.weight2
    l1, l2 = query.marginals.lambda1, query.marginals.lambda2
    th = query.theta.theta

    def inner(d: float) -> float:
        # integral of the joint density over g1 in [0, (gamma - B*d)/A]
        c_star = (gamma - b * d) / a
        t = 2.0 * math.exp(-l2 * d) - 1.0
        q1 = -math.expm1(-l1 * c_star)
        q2 = -math.expm1(-2.0 * l1 * c_star)
        return l2 * math.exp(-l2 * d) * ((1.0 - th * t) * q1 + th * t * q2)

    value, abserr = integrate.quad(
        inner, 0.0, gamma / b, epsabs=tol, epsrel=1e-12, limit=200
    )
    if abserr > tol:
        raise QuadratureNonConvergence(
            f"error estimate {abserr} exceeds tol {tol} for gamma={gamma}, "
            f"A={a}, B={b}, theta={th}"
        )
    if value < -tol or value > 1.0 + tol:
        raise QuadratureNonConvergence(
            f"integral {value} is outside [0, 1] beyond tol {tol}"
        )
    return OutageEstimate(value=min(max(value, 0.0), 1.0), method=QUADRATURE)


def outage_monte_carlo(query: OutageQuery, n: int, seed: int) -> OutageEstimate:
    """Empirical outage frequency over ``n`` correlated gain pairs.

    Samples are drawn in fixed-size chunks from per-chunk substreams of
    ``seed``, so the estimate is bit-stable for a fixed (seed, n) under any
    degree of parallelism or chunk traversal order.  Ties (the event
    holding with equality) count as outage.
    """
    return outage_monte_carlo_grid(
        query.theta, query.marginals, (query.budget,), (query.rate_threshold,), n, seed
    )[0][0]


def outage_monte_carlo_grid(
    theta: DependenceParameter,
    marginals: FadingMarginals,
    budgets: Sequence[PowerBudget],
    rates: Sequence[float],
    n: int,
    seed: int,
) -> list[list[OutageEstimate]]:
    """Monte Carlo outage at every (budget, rate) pair from one draw set.

    The ``n`` gain pairs are drawn once, chunk by chunk, from the substreams
    of ``seed``.  For each chunk and budget the weighted sums
    A*g1 + B*g2 are sorted once and counted at or below every gamma by
    binary search, so ties count as outage.  Entry ``[i][j]`` equals
    ``outage_monte_carlo`` at (``budgets[i]``, ``rates[j]``) with the same
    (n, seed) exactly.  Entries share their draws (common random numbers):
    they are correlated with one another, and each count is still
    Binomial(n, p) on its own.
    """
    if n < 1000:
        raise ValueError(f"n must be >= 1000, got {n}")
    for budget in budgets:
        if not budget.p0 < min(budget.p1, budget.p2):
            raise ValueError(f"outage needs p0 < min(p1, p2) strictly, got {budget}")
    gammas = np.array([[gamma_threshold(r, budget.noise) for r in rates] for budget in budgets])
    counts = np.zeros(gammas.shape, dtype=np.int64)
    for chunk in iter_gain_pair_chunks(theta, marginals, n, seed):
        for i, budget in enumerate(budgets):
            a, b = budget.p1 - budget.p0, budget.p2 - budget.p0
            s = a * chunk[:, 0] + b * chunk[:, 1]
            s.sort()
            counts[i] += np.searchsorted(s, gammas[i], side="right")
    return [[_monte_carlo_estimate(count, n) for count in row] for row in counts.tolist()]


def _monte_carlo_estimate(count: int, n: int) -> OutageEstimate:
    p_hat = count / n
    return OutageEstimate(
        value=p_hat,
        method=MONTE_CARLO,
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / n),
        samples=n,
    )


def outage_point_to_point(
    rate_threshold: float, power: float, noise: float, lam: float
) -> float:
    """Single-link Rayleigh outage: P[g < N*(2^(2R) - 1)/P] for g ~ Exp(lam).

    Returns 1 - exp(-lam*N*(2^(2R) - 1)/power).
    """
    if not power > 0.0:
        raise ValueError(f"power must be > 0, got {power}")
    if not lam > 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    gamma = gamma_threshold(rate_threshold, noise)
    return float(-math.expm1(-lam * gamma / power))
