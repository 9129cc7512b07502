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
    val = numerics.integrate(np.exp, 0.0, 1.0)
    np.testing.assert_allclose(val, math.e - 1.0, rtol=1e-12)


def test_integrate_reversed_and_empty():
    assert numerics.integrate(np.exp, 1.0, 1.0) == 0.0
    fwd = numerics.integrate(np.exp, 0.0, 1.0)
    np.testing.assert_allclose(numerics.integrate(np.exp, 1.0, 0.0), -fwd, rtol=1e-14)


def test_integrate_left_singularity():
    val = numerics.integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                             singular_left=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_shifted_singularity():
    val = numerics.integrate(lambda x: 1.0 / np.sqrt(x - 2.0), 2.0, 3.0,
                             singular_left=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_rejects_nonfinite():
    with pytest.raises(InvalidIntegrandError):
        numerics.integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_integrate_pieces_in_one_batch():
    # every piece gets its own integral, its own direction and, through the
    # tags, its own integrand; an empty piece contributes exactly 0
    a = np.array([0.0, 1.0, 0.5, 2.0, 0.0])
    b = np.array([1.0, 0.0, 0.5, 3.0, 4.0])
    sing = np.array([False, False, False, True, True])
    tags = np.array([0, 0, 0, 1, 2])

    def f(x, tag):
        return np.where(tag == 0, np.exp(x), 1.0 / np.sqrt(np.abs(x - 2.0 * (tag == 1))))

    val = numerics.integrate(f, a, b, sing, tags=tags)
    np.testing.assert_allclose(val, [math.e - 1.0, 1.0 - math.e, 0.0, 2.0, 4.0],
                               rtol=1e-12)
    assert val[2] == 0.0


def test_integrate_degree_ten_polynomial_takes_one_cell():
    # K15 is exact to degree 22 and G7 to degree 13: one cell, 15 points
    numerics.tally.clear()
    coeffs = np.arange(1.0, 12.0)
    val = numerics.integrate(
        lambda x: np.polynomial.polynomial.polyval(x, coeffs), 0.0, 1.0)
    np.testing.assert_allclose(val, np.sum(coeffs / np.arange(1.0, 12.0)), rtol=1e-14)
    assert numerics.tally["quad_calls"] == 1
    assert numerics.tally["quad_points"] == 15
    assert numerics.tally["quad_cells"] == 1


def test_integrate_cell_cap_names_the_piece():
    # the smooth piece converges; the undeclared 1/x piece hits the cap
    with pytest.raises(ConvergenceError,
                       match=r"\[0\.0, 1\.0\] did not converge in 200 cells \(estimate"):
        numerics.integrate(lambda x: 1.0 / x, np.array([2.0, 0.0]), np.array([3.0, 1.0]))


def test_integrate_undeclared_singularity_fails():
    # the raw adaptive rule must not silently accept 1/x
    with pytest.raises((ConvergenceError, InvalidIntegrandError)):
        numerics.integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_find_root_cosine():
    root = numerics.find_root(math.cos, Bracket(1.0, 2.0))
    np.testing.assert_allclose(root, math.pi / 2.0, rtol=1e-14)


@pytest.mark.parametrize("f, lo, hi", [
    (math.cos, 1.0, 2.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 30.0),
    (lambda x: math.copysign(abs(x - 0.3) ** 0.2, x - 0.3), -1.0, 1.0),
    (lambda x: 1.0 / (x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0),
])
def test_find_root_stops_within_tolerance(f, lo, hi):
    # the bracket collapses to the stopping width: tol plus 8.9e-16 |x|,
    # and the sign change survives inside it
    tol = 1e-12
    numerics.tally.clear()
    root = numerics.find_root(f, Bracket(lo, hi), tol=tol)
    width = tol + 8.9e-16 * abs(root)
    assert lo <= root <= hi
    assert f(root) == 0.0 or f(root - width) * f(root + width) <= 0.0
    assert 0 < numerics.tally["brent_iterations"] <= 200
    # the step rules are those of scipy's brentq, so the iterates agree
    scipy_optimize = pytest.importorskip("scipy.optimize")
    assert root == scipy_optimize.brentq(f, lo, hi, xtol=tol, rtol=8.9e-16, maxiter=200)


def test_find_root_endpoint_hit():
    assert numerics.find_root(lambda x: x, Bracket(0.0, 1.0)) == 0.0


def test_find_root_refuses_nan():
    with pytest.raises(ConvergenceError, match="NaN"):
        numerics.find_root(lambda x: x if x < 0.25 else math.nan, Bracket(-1.0, 1.0))


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
