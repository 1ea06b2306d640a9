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
  inner gain integral is elementary; the outer one is QUADPACK's 21-point
  Gauss-Kronrod panel over the whole rate axis at once, with adaptive
  quadrature for the points that panel does not settle).  This is the
  reference.
* :func:`outage_monte_carlo` - empirical frequency over correlated gain
  pairs drawn with chunked substreams, deterministic for a fixed
  (seed, n) regardless of execution parallelism.
  :func:`outage_monte_carlo_grid` scores one such draw set against a whole
  (budget x rate) grid; each entry equals the single-point estimate.

A query's ``rate_threshold`` is one rate or a tuple of rates (a rate
axis), and its ``theta`` one :class:`DependenceParameter` or a tuple of
them (a theta axis).  Every evaluator answers with one
:class:`OutageCurve` whose arrays have one axis per tuple field of the
query, theta first; a query with no tuple field gets one
:class:`OutageEstimate`.  Each entry equals the result of the one-point
query (one theta, one rate) bit for bit.  The FGM density is affine in
theta, so the analytic evaluators compute every theta-free exponential once
per query and only combine them per theta.

:func:`outage_point_to_point` covers the single-link Rayleigh case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

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
    "OutageCurve",
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

#: Relative tolerance handed to QUADPACK alongside the absolute ``tol``.
_QUAD_EPSREL = 1e-12

#: Mean lengths of an exponential gain beyond which quadrature treats its
#: mass, exp(-40) or about 4e-18, as settled: the g2 axis is split at
#: 40/lambda2, and where the g1 range gamma/A exceeds 40/lambda1 the g2 axis
#: is also split where that range shrinks to 40/lambda1.
_SPAN = 40.0

# QUADPACK dqk21 (Piessens et al., QUADPACK, 1983): Kronrod abscissae
# xgk(1..11) on [0, 1), descending to the centre, their Kronrod weights, and
# the 10-point Gauss weights on the same abscissae (zero on the Kronrod-only
# ones).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
    0.0,
)
# The 21 nodes on [-1, 1] in ascending order, with their weights.
_GK_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_G_WEIGHTS = np.array(_WG[:-1] + _WG[::-1])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


class OutageEvaluationError(RuntimeError):
    """An outage evaluator could not produce a value."""


class DegenerateDenominator(OutageEvaluationError):
    """A closed-form denominator is too close to zero for the given
    marginals and power ratio; use quadrature at such parameter points."""


class QuadratureNonConvergence(OutageEvaluationError):
    """Quadrature could not meet the requested tolerance at some points.

    ``value`` and ``failed`` are (theta, rate) arrays over the query's theta
    and rate axes, whatever the query's shape: ``failed`` marks the points
    that missed the tolerance, and ``value`` holds the result of every other
    point.  The message describes the first failing point.
    """

    def __init__(self, message: str, value: np.ndarray, failed: np.ndarray) -> None:
        super().__init__(message)
        self.value = value
        self.failed = failed


@dataclass(frozen=True)
class OutageQuery:
    """One outage-probability evaluation point, or a grid of them.

    ``rate_threshold`` is a rate or a tuple of rates, and ``theta`` a
    dependence parameter or a tuple of them (tuples, not arrays, so queries
    stay hashable and comparable).  Requires p0 strictly below
    min(p1, p2) so both gain weights are positive.
    """

    rate_threshold: Union[float, tuple[float, ...]]
    budget: PowerBudget
    marginals: FadingMarginals
    theta: Union[DependenceParameter, tuple[DependenceParameter, ...]]

    def __post_init__(self) -> None:
        for rate in self.rates:
            if not rate >= 0.0:
                raise ValueError(f"rate_threshold must be >= 0, got {rate}")
        if not self.budget.p0 < min(self.budget.p1, self.budget.p2):
            raise ValueError(
                "outage queries need p0 < min(p1, p2) strictly so both gain "
                f"weights are positive; got p0={self.budget.p0}, "
                f"p1={self.budget.p1}, p2={self.budget.p2}"
            )

    @property
    def rates(self) -> tuple[float, ...]:
        """The rate axis: ``rate_threshold`` as a tuple."""
        r = self.rate_threshold
        return r if isinstance(r, tuple) else (r,)

    @property
    def thetas(self) -> tuple[DependenceParameter, ...]:
        """The theta axis: ``theta`` as a tuple."""
        t = self.theta
        return t if isinstance(t, tuple) else (t,)

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
    def gamma(self) -> Union[float, np.ndarray]:
        """Received-power threshold N*(2^(2R) - 1), an array for a tuple query."""
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


@dataclass(frozen=True, eq=False)
class OutageCurve(Sequence):
    """Outage estimates over a grid, one array entry per grid point.

    ``value`` holds the probabilities, ``std_error`` (Monte Carlo only) their
    standard errors, and ``out_of_range`` marks the closed-form values
    outside [0, 1]; all share one shape, an axis per grid axis.  The checks
    of :class:`OutageEstimate` hold entrywise.  Indexing takes numpy indices:
    a result with axes left is the curve along them, and a single point is
    its :class:`OutageEstimate`.  So iterating a 1-D curve yields estimates
    and iterating a 2-D one yields 1-D curves.
    """

    method: str
    value: np.ndarray
    out_of_range: np.ndarray
    std_error: Optional[np.ndarray] = None
    samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method != CLOSED_FORM and not ((self.value >= 0.0) & (self.value <= 1.0)).all():
            raise ValueError(f"{self.method} estimates must be in [0, 1], got {self.value}")
        if self.std_error is not None and not (self.std_error >= 0.0).all():
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i) -> Union[OutageEstimate, OutageCurve]:
        value = self.value[i]
        std_error = None if self.std_error is None else self.std_error[i]
        if np.ndim(value):
            return OutageCurve(self.method, value, self.out_of_range[i], std_error, self.samples)
        return OutageEstimate(
            value=float(value),
            method=self.method,
            std_error=None if std_error is None else float(std_error),
            samples=self.samples,
            flag=FLAG_OUT_OF_RANGE if self.out_of_range[i] else None,
        )


#: An evaluator's answer, shaped like its query (see the module docstring).
OutageResult = Union[OutageEstimate, OutageCurve]


def _per_query(query: OutageQuery, curve: OutageCurve) -> OutageResult:
    """A (theta, rate) ``curve`` shaped like the query: index 0 on each axis
    whose query field is not a tuple."""
    index = tuple(
        slice(None) if isinstance(field, tuple) else 0
        for field in (query.theta, query.rate_threshold)
    )
    return curve[index]


def gamma_threshold(
    rate_threshold: Union[float, tuple[float, ...]], noise: float
) -> Union[float, np.ndarray]:
    """Received-power threshold gamma = N*(2^(2R) - 1).

    Zero at R = 0 and strictly increasing in R.  A tuple of rates gives an
    array whose entries equal the scalar results bit for bit.  Raises
    ValueError when gamma is not finite (2^(2R) or its product with N
    overflows).
    """
    if not noise > 0.0:
        raise ValueError(f"noise must be > 0, got {noise}")
    is_tuple = isinstance(rate_threshold, tuple)
    rates = np.array(rate_threshold if is_tuple else (rate_threshold,), dtype=float)
    if not (rates >= 0.0).all():
        raise ValueError(f"rate_threshold must be >= 0, got {rate_threshold}")
    try:
        # Python's ** is libm's pow; numpy's SIMD power can differ from it in
        # the last bit.
        powers = np.array([2.0 ** x for x in (2.0 * rates).tolist()])
    except OverflowError:
        powers = np.array([math.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = noise * (powers - 1.0)
    if not np.isfinite(gamma).all():
        raise ValueError(
            f"gamma = N*(2^(2R) - 1) overflows for noise {noise} at rate {max(rates.tolist())}"
        )
    return gamma if is_tuple else float(gamma[0])


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of each entry through libm, bit-identical to ``math.exp``
    (numpy's SIMD exp can differ from it in the last bit)."""
    return np.array([math.exp(v) for v in x.tolist()])


def outage_closed_form(query: OutageQuery) -> OutageResult:
    """Analytic sum-rate outage expression, over the query's whole
    (theta x rate) grid.

    With P = B/A, gamma = N*(2^(2R) - 1) and exponential rates
    (lambda1, lambda2):

        P_out = 1 - [ l2*e1/(l2 - l1*P)
                      + theta*( l2*e1/(l2 - l1*P) - 2*l2*e1/(2*l2 - P*l1)
                                - l2*e2/(l2 - 2*P*l1) + l2*e2/(l2 - l1*P) ) ]

    where e1 = exp(-l1*gamma/A) and e2 = exp(-2*l1*gamma/A).  The
    expression is affine in theta: its two terms are computed once per rate
    and combined per theta.  Its derivation integrates the first gain from
    (gamma - B*g2)/A to infinity without clamping that lower limit at zero,
    so it deviates from the exact probability (see
    :func:`outage_quadrature`); at theta = 0 the deviation equals
    l1*P*exp(-l2*gamma/B)/(l2 - l1*P).  Values outside [0, 1] are returned
    flagged ``out-of-range``.

    Raises :class:`DegenerateDenominator` when any of (l2 - l1*P),
    (2*l2 - P*l1), (l2 - 2*P*l1) is within 1e-9*l2 of zero; they depend on
    (lambda, P) only, so the whole grid is degenerate or none of it.
    Returns results shaped like the query (see the module docstring).
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
    gamma = gamma_threshold(query.rates, query.budget.noise)
    e1 = _libm_exp(-l1 * gamma / query.weight1)
    e2 = _libm_exp(-2.0 * l1 * gamma / query.weight1)
    base = l2 * e1 / d1
    bracket = l2 * e1 / d1 - 2.0 * l2 * e1 / d2 - l2 * e2 / d3 + l2 * e2 / d1
    thetas = np.array([theta.theta for theta in query.thetas])
    values = 1.0 - (base + thetas[:, None] * bracket)  # (theta, rate)
    out_of_range = (values < 0.0) | (values > 1.0)
    return _per_query(query, OutageCurve(CLOSED_FORM, values, out_of_range))


def _conditional_terms(d, gamma, a, b, l1, l2, exp=np.exp, expm1=np.expm1):
    """The theta-free terms of the quadrature integrand at g2 = ``d``.

    With e = exp(-l2*d) and c* = (gamma - B*d)/A, the range of g1 left by
    A*g1 + B*g2 <= gamma, returns (l2*e, t, q1, q2): the Exp(lambda2)
    density of g2, t = 2*e - 1, and P[g1 <= c*] under Exp(lambda1) and
    Exp(2*lambda1).  The same expression serves node arrays (numpy) and one
    node (``math.exp``, ``math.expm1``).
    """
    c_star = (gamma - b * d) / a
    e = exp(-l2 * d)
    t = 2.0 * e - 1.0
    q1 = -expm1(-l1 * c_star)
    q2 = -expm1(-2.0 * l1 * c_star)
    return l2 * e, t, q1, q2


def _conditional_integrand(th, density, t, q1, q2):
    """The quadrature integrand at theta = ``th`` from
    :func:`_conditional_terms`: the density of g2 times the FGM conditional
    probability P[g1 <= c* | g2], (1 - th*t)*q1 + th*t*q2."""
    return density * ((1.0 - th * t) * q1 + th * t * q2)


def outage_quadrature(query: OutageQuery, tol: float = DEFAULT_QUAD_TOL) -> OutageResult:
    """Exact outage probability by integrating the joint gain density over
    the triangle A*g1 + B*g2 <= gamma in the positive quadrant.

    The inner g1 integral is elementary.  The outer g2 integral over
    [0, gamma/B] is QUADPACK's first step evaluated for every rate of the
    query at once: one 21-point Gauss-Kronrod panel with dqk21's error
    estimate, accepted by dqagse's first-panel test.  The theta-free terms
    on the panel's nodes are computed once; each theta combines them into
    its own integrand.

    A point the panel does not settle goes through adaptive quadrature
    (``scipy.integrate.quad``) on its own, and so does every point where
    one panel can miss where the integrand changes:

    * where gamma/B exceeds 40/lambda2, since g2 ~ Exp(lambda2) has almost
      all its mass below that and one panel over a much longer interval can
      place no node there and report a zero error.  The point is split at
      40/lambda2.
    * where gamma/A exceeds 40/lambda1, since P[g1 <= c*] then drops from
      about 1 to 0 within a few A/(lambda1*B) below gamma/B, which one panel
      can step over.  The point is split where c* = 40/lambda1, if that lies
      below 40/lambda2.

    The absolute tolerance is ``tol`` (in (0, 1e-2]).  A point is accepted
    when its error estimate is at most max(tol, 1e-12*|value|), the bound
    the panel and ``scipy.integrate.quad`` both work to.  Returns results
    shaped like the query (see the module docstring).

    Every point is evaluated before any failure is raised.  Raises
    :class:`QuadratureNonConvergence`, with the failing points marked, where
    the error estimate exceeds that bound or the value leaves [0, 1] by more
    than it.
    """
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol}")
    gamma = gamma_threshold(query.rates, query.budget.noise)
    a, b = query.weight1, query.weight2
    l1, l2 = query.marginals.lambda1, query.marginals.lambda2
    upper = gamma / b
    # Each point's breakpoints for adaptive quadrature, None where the panel
    # may settle it: 40/lambda2, and below it the g2 where c* = 40/lambda1.
    split = _SPAN / l2
    drop = (gamma - _SPAN * a / l1) / b
    breaks = [
        tuple(x for x in (d if d < split else 0.0, split) if 0.0 < x < u) or None
        for d, u in zip(drop.tolist(), upper.tolist())
    ]
    routed = np.array([x is not None for x in breaks], dtype=bool)
    hlgth = 0.5 * upper[:, None]
    terms = _conditional_terms(hlgth + hlgth * _GK_NODES, gamma[:, None], a, b, l1, l2)
    thetas = [theta.theta for theta in query.thetas]
    values, abserr = np.empty((2, len(thetas), len(gamma)))  # (theta, rate)
    for t_i, th in enumerate(thetas):
        values[t_i], abserr[t_i], settled = _gauss_kronrod_panel(
            _conditional_integrand(th, *terms), upper, tol
        )
        for i in np.flatnonzero(~settled | routed).tolist():
            from scipy import integrate  # only this fallback needs scipy

            g = float(gamma[i])
            values[t_i, i], abserr[t_i, i] = integrate.quad(
                lambda d: _conditional_integrand(
                    th, *_conditional_terms(d, g, a, b, l1, l2, math.exp, math.expm1)
                ),
                0.0,
                g / b,
                epsabs=tol,
                epsrel=_QUAD_EPSREL,
                limit=200,
                points=breaks[i],
            )
    errbnd = np.maximum(tol, _QUAD_EPSREL * np.abs(values))
    unconverged = abserr > errbnd
    failed = unconverged | (values < -errbnd) | (values > 1.0 + errbnd)
    # clamp the rounding excess into [0, 1], as min(max(v, 0), 1) would
    clamped = np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))
    if failed.any():
        t_i, i = np.argwhere(failed)[0]
        raise QuadratureNonConvergence(
            f"error estimate {abserr[t_i, i]} exceeds {errbnd[t_i, i]} for gamma={gamma[i]}, "
            f"A={a}, B={b}, theta={thetas[t_i]}"
            if unconverged[t_i, i]
            else f"integral {values[t_i, i]} is outside [0, 1] beyond {errbnd[t_i, i]}",
            clamped,
            failed,
        )
    return _per_query(query, OutageCurve(QUADRATURE, clamped, np.zeros(clamped.shape, dtype=bool)))


def _gauss_kronrod_panel(
    fv: np.ndarray, upper: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK's first step on [0, upper[i]] for every i at once.

    ``fv`` holds the integrand on the (n x 21) node array
    ``h + h*_GK_NODES``, h = upper/2 as an (n x 1) column.  Returns
    (result, abserr, settled): dqk21's Gauss-Kronrod result and error
    estimate per interval, and whether dqagse would return after this panel,
    that is abserr <= max(tol, 1e-12*|result|) with abserr != resasc, or
    abserr == 0.  Every sum runs along the 21 nodes of one interval in a
    fixed order, so an entry does not depend on the other intervals.
    """
    resk = (fv * _GK_WEIGHTS).sum(axis=1)
    resg = (fv * _G_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fv) * _GK_WEIGHTS).sum(axis=1)
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _GK_WEIGHTS).sum(axis=1)
    hlgth = 0.5 * upper
    result = resk * hlgth
    resabs *= hlgth
    resasc *= hlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    abserr[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * abserr[scaled] / resasc[scaled]) ** 1.5
    )
    floored = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floored] = np.maximum(_EPMACH * 50.0 * resabs[floored], abserr[floored])
    errbnd = np.maximum(tol, _QUAD_EPSREL * np.abs(result))
    settled = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    return result, abserr, settled


def outage_monte_carlo(query: OutageQuery, n: int, seed: int) -> OutageResult:
    """Empirical outage frequency over ``n`` correlated gain pairs.

    Samples are drawn in fixed-size chunks from per-chunk substreams of
    ``seed``, so the estimate is bit-stable for a fixed (seed, n) under any
    degree of parallelism or chunk traversal order.  Ties (the event
    holding with equality) count as outage.  Every theta of a theta tuple is
    estimated from ``seed``, as its one-theta query would be.  Returns
    results shaped like the query (see the module docstring).
    """
    grids = [
        outage_monte_carlo_grid(theta, query.marginals, (query.budget,), query.rates, n, seed)
        for theta in query.thetas
    ]
    value = np.concatenate([g.value for g in grids])
    std_error = np.concatenate([g.std_error for g in grids])
    return _per_query(
        query, OutageCurve(MONTE_CARLO, value, np.zeros(value.shape, dtype=bool), std_error, n)
    )


def outage_monte_carlo_grid(
    theta: DependenceParameter,
    marginals: FadingMarginals,
    budgets: Sequence[PowerBudget],
    rates: Sequence[float],
    n: int,
    seed: int,
) -> OutageCurve:
    """Monte Carlo outage at every (budget, rate) pair from one draw set,
    as one (budget, rate) :class:`OutageCurve`.

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
    rates = tuple(rates)
    gammas = np.array([gamma_threshold(rates, budget.noise) for budget in budgets])
    counts = np.zeros(gammas.shape, dtype=np.int64)
    for chunk in iter_gain_pair_chunks(theta, marginals, n, seed):
        for i, budget in enumerate(budgets):
            a, b = budget.p1 - budget.p0, budget.p2 - budget.p0
            s = a * chunk[:, 0] + b * chunk[:, 1]
            s.sort()
            counts[i] += np.searchsorted(s, gammas[i], side="right")
    p_hat = counts / n
    std_error = np.sqrt(p_hat * (1.0 - p_hat) / n)
    return OutageCurve(MONTE_CARLO, p_hat, np.zeros(p_hat.shape, dtype=bool), std_error, n)


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
