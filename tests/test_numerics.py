import math

import numpy as np
import pytest

from vorwaves import numerics
from vorwaves.errors import (
    BracketError,
    ConvergenceError,
    InvalidIntegrandError,
)
from vorwaves.numerics import Bracket


def test_integrate_smooth():
    val = numerics.integrate(math.exp, 0.0, 1.0)
    np.testing.assert_allclose(val, math.e - 1.0, rtol=1e-12)


def test_integrate_reversed_and_empty():
    assert numerics.integrate(math.exp, 1.0, 1.0) == 0.0
    fwd = numerics.integrate(math.exp, 0.0, 1.0)
    np.testing.assert_allclose(numerics.integrate(math.exp, 1.0, 0.0), -fwd, rtol=1e-14)


def test_integrate_left_singularity():
    val = numerics.integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                             singular_left=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_shifted_singularity():
    val = numerics.integrate(lambda x: 1.0 / math.sqrt(x - 2.0), 2.0, 3.0,
                             singular_left=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_rejects_nonfinite():
    with pytest.raises(InvalidIntegrandError):
        numerics.integrate(lambda x: float("nan"), 0.0, 1.0)


def test_integrate_undeclared_singularity_fails():
    # the raw adaptive rule must not silently accept 1/x
    with pytest.raises((ConvergenceError, InvalidIntegrandError)):
        numerics.integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_find_root_cosine():
    root = numerics.find_root(math.cos, Bracket(1.0, 2.0))
    np.testing.assert_allclose(root, math.pi / 2.0, rtol=1e-14)


def test_find_root_endpoint_hit():
    assert numerics.find_root(lambda x: x, Bracket(0.0, 1.0)) == 0.0


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        numerics.find_root(lambda x: 1.0 + x * x, Bracket(0.0, 1.0))


def test_bracket_orientation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)


def test_solve_ivp_exponential():
    sol = numerics.solve_ivp(lambda t, y: [y[0]], [1.0], (0.0, 1.0))
    np.testing.assert_allclose(sol.y[0, -1], math.e, rtol=1e-11)
    # dense output present
    np.testing.assert_allclose(sol.sol(0.5)[0], math.sqrt(math.e), rtol=1e-11)
