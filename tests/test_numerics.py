import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from vorwaves import numerics
from vorwaves.errors import (
    BracketError,
    ConvergenceError,
    InvalidIntegrandError,
)


def _integrate(f, a, b, singular=False):
    """``f`` over the one piece ``[a, b]``."""
    return numerics.integrate(lambda x, tag: f(x), np.array([a]), np.array([b]),
                              np.array([singular]), np.zeros(1, dtype=int))[0]


def test_integrate_smooth():
    val = _integrate(np.exp, 0.0, 1.0)
    np.testing.assert_allclose(val, math.e - 1.0, rtol=1e-12)


def test_integrate_reversed_and_empty():
    # an empty piece contributes exactly 0; a reversed one is refused
    assert _integrate(np.exp, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="a <= b"):
        _integrate(np.exp, 1.0, 0.0)


def test_integrate_left_singularity():
    val = _integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_shifted_singularity():
    val = _integrate(lambda x: 1.0 / np.sqrt(x - 2.0), 2.0, 3.0, singular=True)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


def test_integrate_rejects_nonfinite():
    with pytest.raises(InvalidIntegrandError):
        _integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_integrate_pieces_in_one_batch():
    # every piece gets its own integral and, through the tags, its own
    # integrand; an empty piece contributes exactly 0
    a = np.array([0.0, 0.5, 2.0, 0.0])
    b = np.array([1.0, 0.5, 3.0, 4.0])
    sing = np.array([False, False, True, True])
    tags = np.array([0, 0, 1, 2])

    def f(x, tag):
        return np.where(tag == 0, np.exp(x), 1.0 / np.sqrt(np.abs(x - 2.0 * (tag == 1))))

    val = numerics.integrate(f, a, b, sing, tags)
    np.testing.assert_allclose(val, [math.e - 1.0, 0.0, 2.0, 4.0], rtol=1e-12)
    assert val[1] == 0.0


def test_integrate_degree_ten_polynomial_takes_one_cell():
    # K15 is exact to degree 22 and G7 to degree 13: one cell, 15 points
    numerics.tally.clear()
    coeffs = np.arange(1.0, 12.0)
    val = _integrate(lambda x: np.polynomial.polynomial.polyval(x, coeffs), 0.0, 1.0)
    np.testing.assert_allclose(val, np.sum(coeffs / np.arange(1.0, 12.0)), rtol=1e-14)
    assert numerics.tally["quad_calls"] == 1
    assert numerics.tally["quad_points"] == 15
    assert numerics.tally["quad_cells"] == 1


def test_integrate_cell_cap_names_the_piece():
    # the smooth piece converges; the undeclared 1/x piece hits the cap
    with pytest.raises(ConvergenceError,
                       match=r"\[0\.0, 1\.0\] did not converge in 200 cells \(estimate"):
        numerics.integrate(lambda x, tag: 1.0 / x, np.array([2.0, 0.0]),
                           np.array([3.0, 1.0]), np.zeros(2, dtype=bool),
                           np.zeros(2, dtype=int))


def test_integrate_undeclared_singularity_fails():
    # the raw adaptive rule must not silently accept 1/x
    with pytest.raises((ConvergenceError, InvalidIntegrandError)):
        _integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_find_root_cosine():
    root = numerics.find_root(math.cos, 1.0, 2.0, 1e-13)
    np.testing.assert_allclose(root, math.pi / 2.0, rtol=1e-14)


ROOT_CASES = [
    (math.cos, 1.0, 2.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 30.0),
    (lambda x: math.copysign(abs(x - 0.3) ** 0.2, x - 0.3), -1.0, 1.0),
    (lambda x: 1.0 / (x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0),
]


@pytest.mark.parametrize("f, lo, hi", ROOT_CASES)
def test_find_root_stops_within_tolerance(f, lo, hi):
    # the bracket collapses to the stopping width: tol plus 8.9e-16 |x|,
    # and the sign change survives inside it
    tol = 1e-12
    root = numerics.find_root(f, lo, hi, tol)
    width = tol + 8.9e-16 * abs(root)
    assert lo <= root <= hi
    assert f(root) == 0.0 or f(root - width) * f(root + width) <= 0.0


_pieces = st_.lists(
    st_.tuples(st_.floats(-3.0, 3.0), st_.floats(1e-6, 4.0), st_.booleans(),
               st_.integers(0, 3)),
    min_size=2, max_size=24)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pieces=_pieces, k=st_.integers(0, 23))
def test_integrate_rows_do_not_depend_on_their_company(pieces, k):
    # each piece's integral is bit for bit the one it gets alone: its error
    # control and its Kronrod sums see no other piece
    a = np.array([p[0] for p in pieces])
    b = a + np.array([p[1] for p in pieces])
    sing = np.array([p[2] for p in pieces])
    tags = np.array([p[3] for p in pieces])

    def f(x, tag):
        # smooth in x, and differing by tag
        rate = 0.5 + tag
        return np.cos(rate * x) * np.exp(-0.1 * rate * x * x) + 1.0 / (1.0 + x * x)

    together = numerics.integrate(f, a, b, sing, tags)
    alone = [numerics.integrate(f, a[i:i + 1], b[i:i + 1], sing[i:i + 1], tags[i:i + 1])[0]
             for i in range(len(a))]
    assert np.array_equal(together, alone)
    k %= len(a)
    pair = numerics.integrate(f, a[[k, 0]], b[[k, 0]], sing[[k, 0]], tags[[k, 0]])
    assert pair[0] == together[k] and pair[1] == together[0]


def test_find_root_endpoint_hit():
    assert numerics.find_root(lambda x: x, 0.0, 1.0, 1e-13) == 0.0


def test_find_root_refuses_nan():
    with pytest.raises(ConvergenceError, match="NaN"):
        numerics.find_root(lambda x: x if x < 0.25 else math.nan, -1.0, 1.0, 1e-13)


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        numerics.find_root(lambda x: 1.0 + x * x, 0.0, 1.0, 1e-13)


def test_bracket_orientation():
    with pytest.raises(ValueError):
        numerics.find_root(math.cos, 2.0, 1.0, 1e-13)


def test_solve_ivp_exponential():
    sol = numerics.solve_ivp(lambda t, y: [y[0]], [1.0], (0.0, 1.0))
    np.testing.assert_allclose(sol.y[0, -1], math.e, rtol=1e-11)
    # dense output present
    np.testing.assert_allclose(sol.sol(0.5)[0], math.sqrt(math.e), rtol=1e-11)
