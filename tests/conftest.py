import os
import signal
import sys

import numpy as np
import pytest

from swmac import DependenceParameter, FadingMarginals

THETA_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def unit_marginals():
    return FadingMarginals(1.0, 1.0)


@pytest.fixture(params=THETA_GRID, ids=lambda t: f"theta={t}")
def theta(request):
    return DependenceParameter(request.param)


@pytest.fixture
def forked_pool_of_two(monkeypatch):
    """Pools may take two CPUs, even on a 1-CPU host: a sweep at
    ``--workers`` 0 or 2 whose draw is work for two starts two forked
    workers, and any other pool one, so that what a test patches in the
    parent runs in the workers.  A sweep still waiting after 60 s gets a
    TimeoutError."""
    if sys.platform != "linux":
        pytest.skip("workers see the test's patches only when forked, as on Linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def expire(signum, frame):
        raise TimeoutError("the sweep did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
