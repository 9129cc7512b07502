"""Shared fixtures: the distributions and solutions most tests revisit.

Session scope keeps the quadrature-heavy objects (streams, dispersion
results) built once; they are all immutable.
"""

import numpy as np
import pytest

import vorwaves
from vorwaves import bernoulli, dispersion, stream
from vorwaves.vorticity import VorticityDistribution


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH
    return f"vorwaves: {vorwaves.__file__}"


@pytest.fixture(scope="session")
def w_zero():
    return VorticityDistribution.constant(0.0)


@pytest.fixture(scope="session")
def w_two():
    return VorticityDistribution.constant(2.0)


@pytest.fixture(scope="session")
def w_minus_two():
    return VorticityDistribution.constant(-2.0)


@pytest.fixture(scope="session")
def w_tilted():
    # omega(tau) = 6 tau - 3: Omega = 3 tau^2 - 3 tau ties its maximum 0
    # at both endpoints, the hardest profile shape (sqrt branches at both
    # ends of the s0 stream)
    return VorticityDistribution.polynomial([-3.0, 6.0])


@pytest.fixture(scope="session")
def conj11(w_zero):
    return bernoulli.conjugates(w_zero, 1.1)


@pytest.fixture(scope="session")
def stream_plus(w_zero, conj11):
    return stream.solve_stream(w_zero, conj11.s_plus)


@pytest.fixture(scope="session")
def stream_minus(w_zero, conj11):
    return stream.solve_stream(w_zero, conj11.s_minus)


@pytest.fixture(scope="session")
def disp_plus(stream_plus):
    return dispersion.find_tau0(stream_plus)


@pytest.fixture
def fresh_caches():
    """Empty every cache that can answer for the quadrature, so that a count
    of quadrature calls or points sees the work itself."""
    stream._column.cache_clear()
    stream._total_memo.clear()
    for cached in (bernoulli.analyze, bernoulli._proxy, bernoulli.conjugates):
        cached.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
