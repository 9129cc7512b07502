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


def _find_root(f, bracket, tol=1e-13):
    """The root of a scalar ``f``: one Brent search driven by lockstep."""
    root, = numerics.lockstep(lambda xs: [f(x) for x in xs], numerics.brent(bracket, tol))
    return root


def test_find_root_cosine():
    root = _find_root(math.cos, Bracket(1.0, 2.0))
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
    numerics.tally.clear()
    root = _find_root(f, Bracket(lo, hi), tol=tol)
    width = tol + 8.9e-16 * abs(root)
    assert lo <= root <= hi
    assert f(root) == 0.0 or f(root - width) * f(root + width) <= 0.0
    assert 0 < numerics.tally["brent_iterations"] <= 200
    # the step rules are those of scipy's brentq, so the iterates agree
    scipy_optimize = pytest.importorskip("scipy.optimize")
    assert root == scipy_optimize.brentq(f, lo, hi, xtol=tol, rtol=8.9e-16, maxiter=200)


def _drive(search, f):
    """Run a search by hand: the points it asked for, and what it returned."""
    asked, fx = [], None
    while True:
        try:
            x = search.send(fx)
        except StopIteration as stop:
            return asked, stop.value
        asked.append(x)
        fx = f(x)


@pytest.mark.parametrize("f, lo, hi", ROOT_CASES)
def test_brent_generator_makes_the_iterates_of_find_root(f, lo, hi):
    calls = []

    def logged(x):
        calls.append(x)
        return f(x)

    root = _find_root(logged, Bracket(lo, hi), tol=1e-12)
    asked, got = _drive(numerics.brent(Bracket(lo, hi), tol=1e-12), f)
    assert asked == calls and asked[:2] == [lo, hi]
    assert got == root
    # endpoint values given in the bracket are not asked for again
    asked, got = _drive(numerics.brent(Bracket(lo, hi, f(lo), f(hi)), tol=1e-12), f)
    assert asked == calls[2:] and got == root


def test_lockstep_searches_share_each_round():
    # every round evaluates the open searches' points in one call, and
    # each search ends where, and after the steps, it would alone
    rounds = []

    def values(xs):
        rounds.append(len(xs))
        return [math.cos(x) for x in xs]

    brackets = (Bracket(1.0, 2.0), Bracket(4.0, 4.8))
    roots = numerics.lockstep(values, *(numerics.brent(b) for b in brackets))
    alone = [_drive(numerics.brent(b), math.cos) for b in brackets]
    assert roots == [root for _, root in alone]
    assert len(rounds) == max(len(asked) for asked, _ in alone)
    assert sum(rounds) == sum(len(asked) for asked, _ in alone)
    assert rounds[0] == 2


def test_brent_generator_at_an_endpoint_root():
    # a known value of exactly 0 ends the search before anything is asked
    asked, got = _drive(numerics.brent(Bracket(0.25, 1.0, 0.5, 0.0)), math.cos)
    assert (asked, got) == ([], 1.0)
    # both ends are asked for before either is tested
    asked, got = _drive(numerics.brent(Bracket(0.0, 1.0)), lambda x: x)
    assert (asked, got) == ([0.0, 1.0], 0.0)


def test_brent_generator_refuses_nan():
    search = numerics.brent(Bracket(-1.0, 1.0))
    assert search.send(None) == -1.0
    assert search.send(-1.0) == 1.0
    assert -1.0 < search.send(1.0) < 1.0
    with pytest.raises(ConvergenceError, match="NaN"):
        search.send(math.nan)
    with pytest.raises(ConvergenceError, match="NaN"):
        _drive(numerics.brent(Bracket(-1.0, 1.0, math.nan, 1.0)), math.sin)


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

    together = numerics.integrate(f, a, b, sing, tags=tags)
    alone = [numerics.integrate(f, a[i], b[i], sing[i], tags=tags[i])
             for i in range(len(a))]
    assert np.array_equal(together, alone)
    k %= len(a)
    pair = numerics.integrate(f, a[[k, 0]], b[[k, 0]], sing[[k, 0]], tags=tags[[k, 0]])
    assert pair[0] == together[k] and pair[1] == together[0]


def test_find_root_endpoint_hit():
    assert _find_root(lambda x: x, Bracket(0.0, 1.0)) == 0.0


def test_find_root_refuses_nan():
    with pytest.raises(ConvergenceError, match="NaN"):
        _find_root(lambda x: x if x < 0.25 else math.nan, Bracket(-1.0, 1.0))


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        _find_root(lambda x: 1.0 + x * x, Bracket(0.0, 1.0))


def test_bracket_orientation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)


def test_solve_ivp_exponential():
    sol = numerics.solve_ivp(lambda t, y: [y[0]], [1.0], (0.0, 1.0))
    np.testing.assert_allclose(sol.y[0, -1], math.e, rtol=1e-11)
    # dense output present
    np.testing.assert_allclose(sol.sol(0.5)[0], math.sqrt(math.e), rtol=1e-11)
