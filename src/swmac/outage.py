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
  over the triangle A*g1 + B*g2 <= gamma in the positive quadrant: the
  inner integral is the FGM conditional law, a nonnegative combination of
  three theta-free parts, and the outer one adaptive 21-point
  Gauss-Kronrod quadrature after QUADPACK, which integrates each part, the
  outage at the anchor theta = 0, 1 or -1, to 1e-12 relative error, on
  arrays over a block of at most ``BLOCK_SIZE`` (budget, rate) points at a
  time.  A theta only weights the anchors.  This is the reference.
* :func:`outage_monte_carlo` - empirical frequency over correlated gain
  pairs drawn from the one substream of the seed, deterministic for a
  fixed (seed, n) regardless of execution parallelism.  One draw set
  scores the whole grid (common random numbers across the theta axis), at
  the three anchors alone: theta = 0, 1 and -1 count the pairs the sampler yields at
  that theta from the same seed, and any other theta samples the copula
  exactly as the mixture of two anchors, its first M ~ Binomial(n, |theta|)
  pairs at the sign(theta) anchor and the rest at independence, with one M
  per draw from the substream (seed, 0, 1).  Its rows are not scored on
  the pairs the sampler yields at that theta, and every count is still
  Binomial(n, p).  A call can count a share of the draw's blocks, such as
  blocks w, w + k, ...; the integer counts of disjoint shares add up to
  those of the whole draw.

Every evaluator takes ``(thetas, marginals, budgets, rates, ...)`` and
answers with one (theta x budget x rate) :class:`OutageCurve`, each entry
equal to its 1x1x1 call bit for bit.  The FGM density is affine in theta,
so the analytic evaluators compute every theta-free term once per call,
and quadrature's integrals do not depend on theta.  An analytic evaluator
that cannot compute some points still returns its whole curve, with those
points valued NaN and marked in ``failed``; nothing is raised for them.

Each shared rule is stated here once: the budget rule p0 < min(p1, p2) in
:func:`_gain_weights`, the per-budget weights and thresholds every
evaluator reads in :func:`_budget_axes`, the range of any evaluator's
result in :class:`OutageCurve`, the acceptance of a quadrature point in
:func:`_point_sums`, and the work of a Monte Carlo draw, which sizes its
shares, in :func:`_monte_carlo_shares`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .copula import (
    DependenceParameter,
    FadingMarginals,
    _at_theta,
    _conditional_part,
    _conditional_parts,
    _exp_quantile,
    _inversion_prelude,
    _inversion_step,
    _uniform_blocks,
)
from .regions import PowerBudget
from .streams import BLOCK_SIZE, substream

__all__ = [
    "CLOSED_FORM",
    "QUADRATURE",
    "MONTE_CARLO",
    "METHODS",
    "OutageEvaluationError",
    "OutageCurve",
    "gamma_threshold",
    "outage_closed_form",
    "outage_quadrature",
    "outage_monte_carlo",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte-carlo"
#: Canonical evaluator order used by sweeps and reports.
METHODS = (CLOSED_FORM, QUADRATURE, MONTE_CARLO)

#: Fewest gain pairs a Monte Carlo estimate may draw.
MIN_MC_SAMPLES = 1000

#: Relative threshold (w.r.t. lambda2) below which a closed-form
#: denominator counts as degenerate.
_DENOM_EPS_REL = 1e-9

#: Quadrature's one error bound, relative: 1e-12*|value| (dqagse, epsabs = 0).
_QUAD_EPSREL = 1e-12

#: Most panels quadrature splits one point's integral into (QUADPACK's
#: ``limit``); a point whose error estimate is still above its bound there
#: is nonconvergent.
_MAX_PANELS = 200

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
    """A pool worker died before sending all its results."""


@dataclass(frozen=True, eq=False)
class OutageCurve:
    """Outage estimates over a grid, one array entry per grid point.

    ``value`` holds the probabilities, ``out_of_range`` marks the values
    outside [0, 1], ``failed`` the points the evaluator could not compute
    (default: none), each valued NaN, and, for Monte Carlo only,
    ``std_error`` holds standard errors and ``counts`` the integer event
    counts; all share one shape, an axis per grid axis.  Every value marked
    in neither mask lies in [0, 1], and every standard error is >= 0.  Only
    the closed form marks values out of range, and only the analytic
    evaluators mark points failed; Monte Carlo marks none.
    """

    value: np.ndarray
    out_of_range: np.ndarray
    std_error: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    failed: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.failed is None:
            object.__setattr__(self, "failed", np.zeros(self.value.shape, dtype=bool))
        if not ((self.value >= 0.0) & (self.value <= 1.0) | self.out_of_range | self.failed).all():
            raise ValueError(f"unmarked estimates must be in [0, 1], got {self.value}")
        if self.std_error is not None and not (self.std_error >= 0.0).all():
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")

    @classmethod
    def from_counts(cls, counts: np.ndarray, n: int) -> "OutageCurve":
        """The Monte Carlo curve of integer event ``counts`` out of ``n``
        pairs: the frequency p = counts/n and its standard error
        sqrt(p*(1 - p)/n).  A count summed over shares of the draws gives
        the same bits as the whole draw counted at once."""
        p_hat = counts / n
        std_error = np.sqrt(p_hat * (1.0 - p_hat) / n)
        return cls(p_hat, np.zeros(p_hat.shape, dtype=bool), std_error, counts)


def _gain_weights(budget: PowerBudget) -> tuple[float, float]:
    """The gain weights (A, B) = (p1 - p0, p2 - p0) of ``budget``.

    Raises ValueError unless p0 < min(p1, p2) strictly, so that both
    weights are positive.
    """
    if not budget.p0 < min(budget.p1, budget.p2):
        raise ValueError(
            "outage needs p0 < min(p1, p2) strictly so both gain weights are "
            f"positive; got p0={budget.p0}, p1={budget.p1}, p2={budget.p2}"
        )
    return budget.p1 - budget.p0, budget.p2 - budget.p0


def _budget_axes(
    budgets: Sequence[PowerBudget], rates: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gain weights A and B of ``budgets``, as (budget, 1) columns, and
    their thresholds gamma at ``rates``, a (budget, rate) array: the
    per-budget terms every evaluator reads, checked by
    :func:`_gain_weights` and :func:`gamma_threshold`."""
    weights = np.array([_gain_weights(budget) for budget in budgets]).reshape(-1, 2)
    gamma = [gamma_threshold(rates, budget.noise) for budget in budgets]
    return weights[:, :1], weights[:, 1:], np.array(gamma).reshape(len(budgets), len(rates))


def gamma_threshold(rates: Sequence[float], noise: float) -> np.ndarray:
    """Received-power thresholds gamma = N*(2^(2R) - 1), one per rate.

    Zero at R = 0 and strictly increasing in R.  Raises ValueError when
    gamma is not finite (2^(2R) or its product with N overflows).
    """
    if not noise > 0.0:
        raise ValueError(f"noise must be > 0, got {noise}")
    rates = np.array(rates, dtype=float)
    if not (rates >= 0.0).all():
        raise ValueError(f"rates must be >= 0, got {rates.tolist()}")
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
    return gamma


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of each entry through libm, bit-identical to ``math.exp``
    (numpy's SIMD exp can differ from it in the last bit)."""
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


def outage_closed_form(
    thetas: Sequence[DependenceParameter],
    marginals: FadingMarginals,
    budgets: Sequence[PowerBudget],
    rates: Sequence[float],
) -> OutageCurve:
    """Analytic sum-rate outage expression, over the whole (theta x budget
    x rate) grid.

    With P = B/A, gamma = N*(2^(2R) - 1) and exponential rates
    (lambda1, lambda2):

        P_out = 1 - [ l2*e1/(l2 - l1*P)
                      + theta*( l2*e1/(l2 - l1*P) - 2*l2*e1/(2*l2 - P*l1)
                                - l2*e2/(l2 - 2*P*l1) + l2*e2/(l2 - l1*P) ) ]

    where e1 = exp(-l1*gamma/A) and e2 = exp(-2*l1*gamma/A).  The
    expression is affine in theta: its two terms are computed once per
    (budget, rate) and combined per theta.  Its derivation integrates the
    first gain from (gamma - B*g2)/A to infinity without clamping that lower
    limit at zero, so it deviates from the exact probability (see
    :func:`outage_quadrature`); at theta = 0 the deviation equals
    l1*P*exp(-l2*gamma/B)/(l2 - l1*P).  Values outside [0, 1] are returned
    and marked in ``out_of_range``, and so are the NaNs that fading rates
    near the float limit give.

    A budget is degenerate where any of (l2 - l1*P), (2*l2 - P*l1),
    (l2 - 2*P*l1), which depend on (lambda, P) only, is within 1e-9*l2 of
    zero: its points are valued NaN and marked in ``failed`` (and, being
    NaN, in ``out_of_range``), and every other budget is computed.
    """
    l1, l2 = marginals.lambda1, marginals.lambda2
    a, b, gamma = _budget_axes(budgets, rates)
    eps = _DENOM_EPS_REL * l2
    th = np.array([theta.theta for theta in thetas])[:, None, None]
    # fading rates near the float limit overflow, as in (2*l2)*e1 = inf*0:
    # the NaNs that follow are marked out of range below
    with np.errstate(over="ignore", invalid="ignore"):
        p = b / a
        d = np.stack((l2 - l1 * p, 2.0 * l2 - p * l1, l2 - 2.0 * p * l1))  # (3, budget, 1)
        degenerate = (np.abs(d) < eps).any(axis=0)  # (budget, 1)
        # a degenerate budget's denominators are NaN, and so are its values
        d1, d2, d3 = np.where(degenerate, np.nan, d)
        e1 = _libm_exp(-l1 * gamma / a)
        e2 = _libm_exp(-2.0 * l1 * gamma / a)
        base = l2 * e1 / d1
        bracket = l2 * e1 / d1 - 2.0 * l2 * e1 / d2 - l2 * e2 / d3 + l2 * e2 / d1
        values = 1.0 - (base + th * bracket)  # (theta, budget, rate)
    failed = np.zeros(values.shape, dtype=bool) | degenerate
    return OutageCurve(values, ~((values >= 0.0) & (values <= 1.0)), failed=failed)


def _panel_terms(lo, hi, point, gamma, a, b, l1, l2, part=None):
    """Half-lengths of the panels [lo[i], hi[i]], and on their (panel x 21)
    Gauss-Kronrod nodes d the density l2*exp(-l2*d) of g2 and the
    :func:`~swmac.copula._conditional_parts` of P[g1 <= c* | g2 = d], with
    c* = (gamma - B*d)/A the range of g1 left by A*g1 + B*g2 <= gamma;
    ``gamma``, ``a`` and ``b`` hold every point's terms, and ``point[i]``
    is the point of panel i.  Given ``part``, each panel's part index in
    increasing order, the parts are one (panel x 21) array that holds on
    panel i its part ``part[i]`` alone."""
    hlgth = 0.5 * (hi - lo)
    d = (0.5 * (lo + hi))[:, None] + hlgth[:, None] * _GK_NODES
    gamma, a, b = (x[point][:, None] for x in (gamma, a, b))
    with np.errstate(over="ignore"):  # a subnormal A: c* = inf, and P[g1 <= c*] = 1
        c_star = (gamma - b * d) / a
    e = np.exp(-l2 * d)  # 1 - P[g2 <= d], more exact than 1 minus the CDF
    u = -np.expm1(-l1 * c_star)
    if part is None:
        return hlgth, l2 * e, _conditional_parts(u, -np.expm1(-l2 * d), e)
    # L0 is u itself; L+ needs only e, and L- only P[g2 <= d]
    i, j = np.searchsorted(part, (1, 2))
    u[i:j] = _conditional_part(u[i:j], e[i:j])
    u[j:] = _conditional_part(u[j:], -np.expm1(-l2 * d[j:]))
    return hlgth, l2 * e, u


def _point_sums(seg, res, err, first):
    """Value, error estimate, bound 1e-12*|value|, panel count and
    acceptance of each point 0, 1, ..., from the dqk21 result and abserr of
    its panels: those where ``seg`` holds its index, in position order.
    Each sum adds one point's panels in that order.  A point is accepted
    when its error estimate is within its bound, and a point with one panel
    (only round 0 has them) only if that panel's ``first`` is also set:
    dqagse's first-panel test, abserr != resasc or abserr == 0.  A point
    with an error estimate that is not finite stops too, unaccepted."""
    count = np.bincount(seg)
    value = np.bincount(seg, weights=res)
    abserr = np.bincount(seg, weights=err)
    bound = _QUAD_EPSREL * np.abs(value)
    done = (abserr <= bound) & ((count > 1) | first[np.cumsum(count) - count])
    done |= ~np.isfinite(abserr)
    return value, abserr, bound, count, done


def outage_quadrature(
    thetas: Sequence[DependenceParameter],
    marginals: FadingMarginals,
    budgets: Sequence[PowerBudget],
    rates: Sequence[float],
) -> OutageCurve:
    """Exact outage probability by integrating the joint gain density over
    the triangle A*g1 + B*g2 <= gamma in the positive quadrant.

    The inner g1 integral is elementary: the conditional law, whose three
    theta-free parts (:func:`~swmac.copula._conditional_parts`) give the
    outage at the anchors theta = 0, 1 and -1.  No theta enters the outer
    g2 integral over [0, gamma/B]: it is adaptive 21-point Gauss-Kronrod
    quadrature with QUADPACK's dqk21 error estimate, run for each part at
    every (budget, rate) point of a block of at most ``BLOCK_SIZE``
    consecutive points at once, one block at a time, so a call holds the
    panels of one block only.  Each integral starts from one panel over
    [0, gamma/B], cut where one panel can miss where the integrand
    changes:

    * at 40/lambda2, where gamma/B exceeds it, since g2 ~ Exp(lambda2) has
      almost all its mass below that and one panel over a much longer
      interval can place no node there and report a zero error;
    * below that, where c* = 40/lambda1, where gamma/A exceeds 40/lambda1,
      since P[g1 <= c*] then drops from about 1 to 0 within a few
      A/(lambda1*B) below gamma/B, which one panel can step over.

    An integral is accepted when its error estimate, summed over its
    panels, is at most 1e-12*|value|, and one with one panel only if it
    also passes dqagse's first-panel test.  Then, round by round, every
    unaccepted integral bisects its panels whose error estimate is above
    its per-panel share of that bound, and always its worst one.  An
    integral stops unconverged where that would take it past
    ``_MAX_PANELS`` panels.  Its sums run over its own panels in position
    order, so each entry equals its 1x1x1 call bit for bit.

    Each theta's value is :func:`~swmac.copula._at_theta` of the anchor
    values, each clamped into [0, 1] (0 where it is NaN): both weights are
    >= 0, so its error is at most 1e-12 of it too, and theta = 0, 1 or -1
    gives its anchor bit for bit.  A theta fails where an anchor it gives a
    nonzero weight fails.

    Where gamma/B overflows, the g2 range ends at 2*40/lambda2 instead.  An
    integral whose error estimate is not finite stops at once, unconverged.
    An anchor fails where its error estimate exceeds that bound or is not
    finite, or its value leaves [0, 1] by more than it; the thetas that
    weigh it are valued NaN and marked in ``failed``, and every other point
    is computed.
    """
    a, b, gamma = _budget_axes(budgets, rates)
    shape = (len(thetas), *gamma.shape)
    # one axis of (budget, rate) points, each with its own weights, integrated
    # one block at a time; an empty axis is one empty block
    a, b, gamma = (np.broadcast_to(x, gamma.shape).ravel() for x in (a, b, gamma))
    blocks = [
        _anchor_integrals(*(x[i : i + BLOCK_SIZE] for x in (a, b, gamma)), marginals)
        for i in range(0, max(len(gamma), 1), BLOCK_SIZE)
    ]
    anchor, abserr = (np.concatenate(x, axis=1) for x in zip(*blocks))
    errbnd = _QUAD_EPSREL * np.abs(anchor)
    # a NaN error estimate or value fails too
    bad = ~(abserr <= errbnd) | (anchor < -errbnd) | (anchor > 1.0 + errbnd)
    # clamp the rounding excess into [0, 1], as min(max(v, 0), 1) would, and a
    # NaN to 0, so that no zero weight multiplies a NaN
    clamped = np.where(anchor >= 0.0, np.minimum(anchor, 1.0), 0.0)
    th = np.array([theta.theta for theta in thetas])[:, None]
    failed = (_at_theta(th, *bad) > 0.0).reshape(shape)  # an anchor it weighs failed
    value = np.where(failed, np.nan, _at_theta(th, *clamped).reshape(shape))
    return OutageCurve(value, np.zeros(shape, dtype=bool), failed=failed)


def _anchor_integrals(
    a: np.ndarray, b: np.ndarray, gamma: np.ndarray, marginals: FadingMarginals
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature's (3 x point) anchor values and error estimates at the
    points of weights ``a``, ``b`` and threshold ``gamma``: the integrals of
    the three parts, theta = 0, 1 and -1, as :func:`outage_quadrature`
    states them, all at once."""
    l1, l2 = marginals.lambda1, marginals.lambda2
    n = len(gamma)
    # The first panels' edges per point: 0, the drop (only below the split),
    # the split and gamma/B, each cut kept where it lies inside (0, gamma/B).
    split = _SPAN / l2
    with np.errstate(over="ignore"):  # A/lambda1 near the float limit: no drop to cut at
        drop = (gamma - _SPAN * a / l1) / b
        upper = gamma / b
    # gamma/B overflows only where B*g2 leaves c* as it is: the g2 range then
    # ends at 2*40/lambda2, leaving out at most 2*e^(-80) of the value
    upper[upper == math.inf] = 2.0 * split
    cuts = (np.where(drop < split, drop, 0.0), np.full(n, split))
    edges = np.column_stack((np.zeros(n), *cuts, upper))
    kept = (0.0 < edges) & (edges < upper[:, None])
    kept[:, [0, 3]] = True
    edge_point, edges = np.nonzero(kept)[0], edges[kept]
    inner = edge_point[:-1] == edge_point[1:]
    lo, hi, point = edges[:-1][inner], edges[1:][inner], edge_point[1:][inner]
    # Every panel of each part's integral at each point, owned by part*n +
    # point and ordered by owner, then by position: round 0 integrates the
    # three parts on the same panels.
    hlgth, density, parts = _panel_terms(lo, hi, point, gamma, a, b, l1, l2)
    fv = (density * np.stack(parts)).reshape(-1, len(_GK_NODES))
    res, err, asc = _gauss_kronrod_panel(fv, np.tile(hlgth, 3))
    first = (err != asc) | (err == 0.0)
    owner = (np.arange(3)[:, None] * n + point).ravel()
    values, abserr, *_, done = _point_sums(owner, res, err, first)
    # from here on only the panels of the integrals round 0 left unaccepted
    live = ~done[owner]
    lo, hi = np.tile(lo, 3)[live], np.tile(hi, 3)[live]
    owner, res, err, first = owner[live], res[live], err[live], first[live]
    while owner.size:
        new_point = np.r_[True, owner[1:] != owner[:-1]]
        seg, starts = np.cumsum(new_point) - 1, np.flatnonzero(new_point)
        values[owner[starts]], abserr[owner[starts]], bound, count, done = _point_sums(
            seg, res, err, first
        )
        halve = (err > (bound / count)[seg]) | (err == np.maximum.reduceat(err, starts)[seg])
        halve &= ~done[seg]
        capped = count + np.add.reduceat(halve, starts) > _MAX_PANELS
        reps = np.where((done | capped)[seg], 0, 1 + halve)
        owner, lo, hi, first = (np.repeat(x, reps) for x in (owner, lo, hi, first))
        res, err = np.repeat(res, reps), np.repeat(err, reps)
        new = np.flatnonzero(np.repeat(halve, reps))
        left, right = new[0::2], new[1::2]  # each halved panel's two copies
        hi[left] = lo[right] = 0.5 * (lo[left] + hi[right])
        part, point = np.divmod(owner[new], n)  # owners increase, so parts do
        h, density, own_part = _panel_terms(lo[new], hi[new], point, gamma, a, b, l1, l2, part)
        res[new], err[new], _ = _gauss_kronrod_panel(density * own_part, h)
    return values.reshape(3, n), abserr.reshape(3, n)


def _gauss_kronrod_panel(
    fv: np.ndarray, hlgth: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on every panel at once.

    ``fv`` holds the integrand on the (panel x 21) node array, the nodes
    c + h*_GK_NODES of each panel with c its centre and h = ``hlgth[i]``
    its half-length.  Returns dqk21's (result, abserr, resasc) per panel:
    the Gauss-Kronrod result, its error estimate, and the integral of
    |f - mean f| that dqagse's first-panel test compares abserr against
    (see :func:`_point_sums`, which alone decides acceptance).  Every sum
    runs along the 21 nodes of one panel in a fixed order, so an entry
    does not depend on the other panels.
    """
    resk = (fv * _GK_WEIGHTS).sum(axis=1)
    resg = (fv * _G_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fv) * _GK_WEIGHTS).sum(axis=1)
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _GK_WEIGHTS).sum(axis=1)
    # masked steps into one scratch array, not fancy-indexed copies
    result, resasc = resk * hlgth, resasc * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr
    np.divide(ratio, resasc, out=ratio, where=scaled)
    np.minimum(np.power(ratio, 1.5, out=ratio, where=scaled), 1.0, out=ratio, where=scaled)
    np.multiply(resasc, ratio, out=abserr, where=scaled)
    floor = np.multiply(resabs, hlgth, out=ratio)
    floored = floor > _UFLOW / (50.0 * _EPMACH)
    floor *= _EPMACH * 50.0
    np.maximum(floor, abserr, out=abserr, where=floored)
    return result, abserr, resasc


def _first_gain_cut(lambda1: float, weight1: np.ndarray, gammas: np.ndarray) -> float:
    """The share of pairs Monte Carlo keeps, at the weights A and thresholds
    gamma of :func:`_budget_axes`.  With reach = max_i gamma_max_i/A_i, a
    pair with g1 beyond reach has fl(A_i*g1) > gamma_max_i; rounding is
    monotone and B_i*g2 >= 0, so its sum fl(fl(A_i*g1) + fl(B_i*g2)) lies
    above every gamma of budget i, at any theta.  A pair is kept where its
    raw uniform u1 <= -expm1(-2*lambda1*reach), g1 <= 2*reach: the factor 2
    absorbs the last-bit errors of expm1, log1p and the divisions.  The cut
    is 1, dropping no pair, where that rounds to 1 or reach is 0."""
    with np.errstate(over="ignore"):  # an infinite reach cuts no pair
        reach = float((gammas.max(axis=1, initial=0.0) / weight1[:, 0]).max(initial=0.0))
    return -math.expm1(-2.0 * lambda1 * reach) if reach > 0.0 else 1.0


#: Pair units of Monte Carlo work per pool task: see :func:`_monte_carlo_shares`.
CHUNK_SIZE = 1 << 16


def _monte_carlo_shares(
    thetas: Sequence[DependenceParameter], marginals: FadingMarginals,
    budgets: Sequence[PowerBudget], rates: Sequence[float], n: int, most: int,
) -> list[range]:
    """The blocks of an ``n``-pair Monte Carlo draw over the (``thetas``,
    ``budgets``, ``rates``) grid, split into at most ``most`` task shares,
    each a ``blocks`` argument of :func:`outage_monte_carlo`.

    The draw's work is n*(1 + cut*|anchors|*|budgets|) pair units, where
    cut is the share of pairs the first-gain cut keeps
    (:func:`_first_gain_cut`) and the anchors are the thetas 0, 1 and -1
    that ``thetas`` need (0 for any |theta| < 1, 1 for any theta > 0, -1
    for any theta < 0): a drawn pair costs about as much as a kept pair
    counted at one (anchor, budget), at most.  There is one task per
    ``CHUNK_SIZE`` units, at least one, and no more than the draw's blocks
    of ``BLOCK_SIZE`` pairs or ``most``.  Of k tasks, task w takes blocks
    w, w + k, ...: an interior theta's prefix, whose pairs cost a
    conditional inversion that the pairs after it do not, lies at the front
    of the draw, and strided shares, unlike contiguous ones, take as much
    of it as of the rest.  The share sizes differ by at most one block.
    """
    blocks = -(-n // BLOCK_SIZE)
    weight1, _, gammas = _budget_axes(budgets, rates)
    cut = _first_gain_cut(marginals.lambda1, weight1, gammas)
    th = [theta.theta for theta in thetas]
    anchors = any(abs(t) < 1.0 for t in th) + any(t > 0.0 for t in th) + any(t < 0.0 for t in th)
    units = n * (1.0 + cut * anchors * len(budgets))
    k = max(1, min(blocks, int(units) // CHUNK_SIZE, most))
    return [range(w, blocks, k) for w in range(k)]


def _prefix_lengths(seed: int, n: int, mags: Sequence[float]) -> list[int]:
    """M ~ Binomial(``n``, |theta|) for each |theta| of ``mags``: how many
    of the first pairs of an ``n``-pair draw take the sign(theta) anchor.
    Each is drawn from the start of the one substream (seed, 0, 1), so it
    depends on (seed, n, |theta|) alone."""
    if not mags:
        return []
    rng = substream(seed, 0, 1)
    start = rng.bit_generator.state
    lengths = []
    for mag in mags:
        rng.bit_generator.state = start
        lengths.append(int(rng.binomial(n, mag)))
    return lengths


def outage_monte_carlo(
    thetas: Sequence[DependenceParameter],
    marginals: FadingMarginals,
    budgets: Sequence[PowerBudget],
    rates: Sequence[float],
    n: int,
    seed: int,
    blocks: Optional[range] = None,
) -> OutageCurve:
    """Monte Carlo outage at every (theta, budget, rate) point from one draw
    set, as one (theta, budget, rate) :class:`OutageCurve` that carries the
    integer event counts.

    The raw uniforms (u1, v) of ``n`` pairs are drawn once from the one
    substream of ``seed`` (see :func:`~swmac.copula.iter_gain_pair_chunks`),
    one block of at most ``streams.BLOCK_SIZE`` pairs at a time, and serve
    every theta.
    ``blocks``, a nonempty increasing range of block indices, contiguous or
    strided, counts only the pairs of those blocks (default: all of them),
    and the value and standard error are then over the pairs drawn: the
    counts of disjoint shares of the blocks add up, bit for bit, to the
    counts of the whole draw, which :meth:`OutageCurve.from_counts` turns
    into the whole estimate.

    The FGM copula is (1 - |theta|)*independence + |theta|*C_sign(theta),
    so pairs are scored at the anchors theta = 0, 1 and -1 alone: 0 takes
    v itself as the second uniform, and 1 and -1 one
    :func:`~swmac.copula._inversion_step` each, so their counts are over
    the pairs ``iter_gain_pair_chunks`` yields at that theta from the same
    ``seed``, bit for bit: those ``swmac sample --seed`` writes.  A theta
    with 0 < |theta| < 1 samples the mixture exactly: the first M pairs of
    the draw by index take the sign(theta) anchor and the rest the
    independence anchor, with one M ~ Binomial(n, |theta|) per draw from
    :func:`_prefix_lengths`.  The pairs are i.i.d. and M is independent of
    them, so this has the law of an independent choice per pair: its count
    is still Binomial(n, p), but not over the pairs the sampler yields at
    that theta.

    Each block is split at every interior theta's prefix boundary inside
    it, so that each piece lies on one side of every boundary: each theta
    counts the whole piece at one anchor, its side.  A piece drops the
    pairs that cannot be in outage on their raw uniforms
    (:func:`_first_gain_cut`).  A theta's side changes once in the draw, so
    in any increasing range of blocks the pieces with the same sides follow
    one another: their kept pairs join one open batch, counted when the
    sides change or before it would pass ``BLOCK_SIZE`` pairs.  A batch
    forms the second gains only at the anchors its thetas use, and per
    anchor and budget it sorts the sums A*g1 + B*g2 and counts them at or
    below every gamma by binary search, so ties count as outage.  The
    counts are exact, so they do not depend on the cut, the batching, the
    shares or the other thetas: entry ``[t, i, j]`` equals the 1x1x1 grid
    at (``thetas[t]``, ``budgets[i]``, ``rates[j]``) with the same
    (n, seed) exactly.  Entries share their draws (common random
    numbers across theta, budget and rate), so they are correlated with one
    another.
    """
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"n must be >= {MIN_MC_SAMPLES}, got {n}")
    if blocks is not None and not blocks:
        raise ValueError(f"blocks must be a nonempty range, got {blocks}")
    blocks = range(-(-n // BLOCK_SIZE)) if blocks is None else blocks
    draws = _uniform_blocks(n, seed, blocks=blocks)  # checks the seed and the blocks
    weight1, weight2, gammas = _budget_axes(budgets, rates)
    cut = _first_gain_cut(marginals.lambda1, weight1, gammas)
    th = [theta.theta for theta in thetas]
    signs = [math.copysign(1.0, t) for t in th]
    # the |theta| of each interior theta, each with one prefix length
    mags = sorted({abs(t) for t in th if 0.0 < abs(t) < 1.0})
    counts = np.zeros((len(th), len(budgets), len(rates)), dtype=np.int64)

    def count(batch: list[np.ndarray], sides: tuple[float, ...]) -> None:
        # theta u counts every pair of the batch at the anchor sides[u]
        w = batch[0] if len(batch) == 1 else np.concatenate(batch)
        # contiguous columns: the prelude and the first gain read them
        u1, v = w.T.copy()
        prelude = _inversion_prelude(u1, v) if any(sides) else None
        weighted = weight1 * _exp_quantile(u1, marginals.lambda1)  # (budget, pair)
        a, den, s = np.empty((3, len(v)))
        full = {}
        for anchor in set(sides):
            g = _inversion_step(anchor, prelude, np.empty(len(v)), a, den) if anchor else v
            _exp_quantile(g, marginals.lambda2)
            # per budget, the pairs in outage at each gamma
            full[anchor] = out = np.empty(gammas.shape, dtype=np.int64)
            for i, b in enumerate(weight2[:, 0]):
                np.add(weighted[i], np.multiply(b, g, out=s), out=s)
                s.sort()
                out[i] = np.searchsorted(s, gammas[i], side="right")
        for u, anchor in enumerate(sides):
            counts[u] += full[anchor]

    # The kept rows of consecutive pieces with the same sides are counted
    # together, so that a piece that keeps a few rows does not pay the fixed
    # cost of the numpy calls alone.
    lengths = dict(zip(mags, _prefix_lengths(seed, n, mags)))
    # each theta's prefix of the draw: none at 0, all of it at 1 and -1
    prefix = [lengths.get(abs(t), n if t else 0) for t in th]
    batch, held, open_sides, drawn = [], 0, None, 0
    for b, w in zip(blocks, draws):
        drawn += len(w)
        # each theta's prefix boundary in this block's rows, before the cut
        ends = [m - b * BLOCK_SIZE for m in prefix]
        edges = sorted({0, len(w), *(e for e in ends if 0 < e < len(w))})
        for lo, hi in zip(edges, edges[1:]):
            sides = tuple(side if lo < e else 0.0 for side, e in zip(signs, ends))
            piece = w[lo:hi] if cut == 1.0 else np.compress(w[lo:hi, 0] <= cut, w[lo:hi], axis=0)
            if not len(piece):
                continue
            if sides != open_sides or held + len(piece) > BLOCK_SIZE:
                if batch:
                    count(batch, open_sides)
                batch, held, open_sides = [], 0, sides
            batch.append(piece)
            held += len(piece)
    if batch:
        count(batch, open_sides)
    return OutageCurve.from_counts(counts, drawn)
