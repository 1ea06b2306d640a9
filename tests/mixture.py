"""Brute-force rebuild of the gain pairs a Monte Carlo count scores.

The FGM copula at theta is the mixture (1 - |theta|)*independence +
|theta|*C_sign(theta).  Monte Carlo samples it exactly: of the n pairs of
a draw, the first M ~ Binomial(n, |theta|) by index, with M drawn from the
substream (seed, 0, 1), take their gains at the sign(theta) anchor, and
the rest at the independence anchor.  This
module rebuilds those pairs from the sampler's pairs at the two anchors,
pair by pair, with no cut, sort or batching.
"""

from __future__ import annotations

import math

import numpy as np

from swmac import DependenceParameter
from swmac.copula import iter_gain_pair_chunks
from swmac.streams import substream


def mixture_gain_pairs(theta, marginals, n, seed):
    """The ``n`` gain pairs the Monte Carlo count of (n, seed) scores at
    ``theta``, as one (n, 2) array: at theta = 0, 1 or -1 the pairs
    ``iter_gain_pair_chunks`` yields at that theta, and at any other theta
    the mixture of two anchors' pairs."""

    def pairs(at):
        chunks = iter_gain_pair_chunks(DependenceParameter(at), marginals, n, seed)
        return np.concatenate(list(chunks))

    if theta.theta in (-1.0, 0.0, 1.0):
        return pairs(theta.theta)
    prefix = substream(seed, 0, 1).binomial(n, abs(theta.theta))
    signed = (np.arange(n) < prefix)[:, None]
    return np.where(signed, pairs(math.copysign(1.0, theta.theta)), pairs(0.0))
