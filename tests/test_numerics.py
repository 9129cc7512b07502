import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from vorwaves import numerics, stream
from vorwaves.errors import ConvergenceError, InvalidIntegrandError
from vorwaves.vorticity import VorticityDistribution


def _integrate(f, a, b):
    """``f`` over the one piece ``[a, b]``."""
    return numerics.integrate(lambda x, i: f(x), np.array([a]), np.array([b]))[0]


def test_integrate_smooth():
    val = _integrate(np.exp, 0.0, 1.0)
    np.testing.assert_allclose(val, math.e - 1.0, rtol=1e-12)


def test_integrate_reversed_and_empty():
    # an empty piece contributes exactly 0; a reversed one is refused
    assert _integrate(np.exp, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="a <= b"):
        _integrate(np.exp, 1.0, 0.0)


def test_integrate_pieces_narrower_than_any_normal_number():
    # a cell's share of its piece's budget is its fraction of the width
    # times the budget: the budget over a width of 5e-324 overflowed
    b = np.array([5e-324, 1e-310, 1e-300])
    val = numerics.integrate(lambda x, i: np.ones_like(x), np.zeros(3), b)
    assert np.isfinite(val).all()
    np.testing.assert_allclose(val[1:], b[1:], rtol=1e-12)


def test_integrate_rejects_nonfinite():
    with pytest.raises(InvalidIntegrandError):
        _integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_integrate_pieces_in_one_batch():
    # every piece gets its own integral and, through its index, its own
    # integrand; an empty piece contributes exactly 0
    a = np.array([0.0, 0.5, 2.0, 0.0])
    b = np.array([1.0, 0.5, 3.0, 4.0])
    tags = np.array([0, 0, 1, 2])

    def f(x, i):
        tag = tags[i]
        return np.where(tag == 0, np.exp(x), tag / (1.0 + x * x))

    val = numerics.integrate(f, a, b)
    np.testing.assert_allclose(
        val, [math.e - 1.0, 0.0, math.atan(3.0) - math.atan(2.0), 2.0 * math.atan(4.0)],
        rtol=1e-12)
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
        numerics.integrate(lambda x, i: 1.0 / x, np.array([2.0, 0.0]), np.array([3.0, 1.0]))


def test_integrate_undeclared_singularity_fails():
    # the raw adaptive rule must not silently accept 1/x
    with pytest.raises((ConvergenceError, InvalidIntegrandError)):
        _integrate(lambda x: 1.0 / x, 0.0, 1.0)


def _newton(f, lo, hi, tol):
    """The root of ``f`` (its value and slope) in ``[lo, hi]``, by one
    Newton search started a third of the way in."""
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    search = numerics.Newton(lo, hi, f_lo, f_hi, lo + (hi - lo) / 3.0, tol)
    numerics.run_newton([search], lambda open_: [f(open_[0].x)])
    return search.root


def cos(x):
    return math.cos(x), -math.sin(x)


def test_find_root_cosine():
    root = _newton(cos, 1.0, 2.0, 1e-13)
    np.testing.assert_allclose(root, math.pi / 2.0, rtol=1e-14)


ROOT_CASES = [
    (cos, 1.0, 2.0),
    (lambda x: (x ** 3 - 2.0 * x - 5.0, 3.0 * x * x - 2.0), 2.0, 3.0),
    (lambda x: (math.exp(x) - 1e6, math.exp(x)), 0.0, 30.0),
    (lambda x: (math.copysign(abs(x - 0.3) ** 0.2, x - 0.3),
                0.2 * abs(x - 0.3) ** -0.8 if x != 0.3 else math.inf), -1.0, 1.0),
    (lambda x: (1.0 / (x - 0.5), -1.0 / (x - 0.5) ** 2) if x != 0.5 else (0.0, math.inf),
     0.0, 1.0),
]


@pytest.mark.parametrize("f, lo, hi", ROOT_CASES)
def test_find_root_stops_within_tolerance(f, lo, hi):
    # the search ends within the stopping width, tol plus 8.9e-16 |x|, of
    # a sign change: on a step within tol (a cusp, a pole), within 4 ulps,
    # or on a bracket narrower than tol
    tol = 1e-12
    root = _newton(f, lo, hi, tol)
    width = tol + 8.9e-16 * abs(root)
    assert lo <= root <= hi
    assert f(root)[0] == 0.0 or f(root - width)[0] * f(root + width)[0] <= 0.0


_pieces = st_.lists(
    st_.tuples(st_.floats(-3.0, 3.0), st_.floats(1e-6, 4.0), st_.integers(0, 3)),
    min_size=2, max_size=24)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pieces=_pieces, k=st_.integers(0, 23))
def test_integrate_rows_do_not_depend_on_their_company(pieces, k):
    # each piece's integral is bit for bit the one it gets alone: its error
    # control and its Kronrod sums see no other piece
    a = np.array([p[0] for p in pieces])
    b = a + np.array([p[1] for p in pieces])
    tags = np.array([p[2] for p in pieces])

    def integrand(rows):
        def f(x, i):
            # smooth in x, and differing by tag
            rate = 0.5 + tags[rows][i]
            return np.cos(rate * x) * np.exp(-0.1 * rate * x * x) + 1.0 / (1.0 + x * x)
        return f

    together = numerics.integrate(integrand(slice(None)), a, b)
    alone = [numerics.integrate(integrand([i]), a[i:i + 1], b[i:i + 1])[0]
             for i in range(len(a))]
    assert np.array_equal(together, alone)
    k %= len(a)
    pair = numerics.integrate(integrand([k, 0]), a[[k, 0]], b[[k, 0]])
    assert pair[0] == together[k] and pair[1] == together[0]


def test_find_root_endpoint_hit():
    # a bracket end where f is exactly 0 is the root, with no value taken
    search = numerics.Newton(0.0, 1.0, 0.0, 1.0, 0.5, 1e-13)
    numerics.run_newton([search], lambda open_: pytest.fail("a value was taken"))
    assert search.root == 0.0


def test_find_root_refuses_nan():
    # a NaN value ends the search, rather than bisecting past it
    with pytest.raises(ConvergenceError, match="NaN"):
        _newton(lambda x: (x, 1.0) if abs(x) == 1.0 else (math.nan, 1.0), -1.0, 1.0, 1e-13)


@pytest.mark.parametrize("lo", [-3.0, 0.0, 2.5])
@pytest.mark.parametrize("slope", [0.0, -1.0])
def test_open_bracket_step_that_misses_goes_beyond_lo(lo, slope):
    # with hi = inf, a step that does not land in (lo, inf), at a zero slope
    # or one of the wrong sign, goes max(|lo|, 1) beyond lo
    search = numerics.Newton(lo - 1.0, math.inf, -1.0, math.inf, lo, 1e-13)
    search.send(-1.0, slope)
    assert search.root is None
    assert (search.lo, search.hi) == (lo, math.inf)
    assert search.x == lo + max(abs(lo), 1.0)


def test_newton_that_cannot_settle_names_its_bracket():
    # f jumps from -1 to 1 at 0.3 with a slope of 1e-300: every Newton step
    # leaves the bracket and bisects it, and at tol = 0 no bracket is narrow
    # enough, so the rounds run out with the two floats about the jump
    search = numerics.Newton(-1.0, 1.0, -1.0, 1.0, 0.5, tol=0.0)
    with pytest.raises(ConvergenceError, match=r"brackets \[0\.3, 0\.30000000000000004\]$"):
        numerics.run_newton([search], lambda open_: [(1.0 if open_[0].x > 0.3 else -1.0,
                                                      1e-300)])


def test_bracket_orientation():
    with pytest.raises(ValueError):
        numerics.Newton(2.0, 1.0, -1.0, 1.0, 1.5, 1e-13)


def test_solve_ivp_failure_names_a_plain_float(monkeypatch):
    # a failed DOP853 run's last time is a numpy scalar: the message printed
    # its repr, np.float64(1.0000000000000842); the run is forged, as
    # shoot_stream's own integrations all succeed
    import scipy.integrate

    failed = SimpleNamespace(t=np.array([0.0, 1.0000000000000842]), nfev=7, success=False,
                             message="Required step size is less than spacing between numbers. ")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *args, **kwargs: failed)
    with pytest.raises(ConvergenceError) as info:
        stream.shoot_stream(VorticityDistribution.constant(2.0), 3.0)
    message = str(info.value)
    assert "np.float64" not in message
    assert message.endswith("numbers. (reached t=1.0000000000000842 of [0.0, 10.0])")


@pytest.mark.parametrize("n", [23, 24])
def test_cosine_sum_takes_each_chebyshev_polynomial_to_its_coefficient(n):
    # column k holds T_k at the Lobatto points, from 1 down to -1, by the
    # three-term recurrence; a sum of n + 1 rounded products is good to
    # about n ulps, so 1e-15 is out of reach
    x = numerics.lobatto(n)
    assert x[0] == 1.0 and x[-1] == -1.0 and (np.diff(x) < 0.0).all()
    t = [np.ones_like(x), x]
    for _ in range(n - 1):
        t.append(2.0 * x * t[-1] - t[-2])
    np.testing.assert_allclose(numerics.cheb_fit(n) @ np.array(t).T, np.eye(n + 1), rtol=0.0,
                               atol=n * np.finfo(float).eps)
    assert not numerics.cheb_fit(n).flags.writeable


@given(st_.lists(st_.floats(-1e3, 1e3), min_size=1, max_size=30),
       st_.lists(st_.floats(-1.5, 1.5), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_clenshaw_on_floats_and_on_arrays_agrees_bit_for_bit(c, u):
    # the proxy evaluates Python floats and the integration matrix arrays:
    # one recurrence, the same rounding
    scalar = [numerics.clenshaw(c, v) for v in u]
    rows = numerics.clenshaw([np.full(len(u), ck) for ck in c], np.array(u))
    assert np.array(scalar).tobytes() == rows.tobytes()


def test_integration_matrix_takes_each_power_to_its_antiderivative():
    from vorwaves import dispersion
    x, integ, _, _ = dispersion._cheb()
    assert x[0] == -1.0 and x[-1] == 1.0
    for j in range(dispersion._N + 1):
        want = (x ** (j + 1) - (-1.0) ** (j + 1)) / (j + 1)
        np.testing.assert_allclose(integ @ x ** j, want, rtol=0.0, atol=1e-14, err_msg=f"x^{j}")
    # the last row integrates over [-1, 1]: the Clenshaw-Curtis weights
    assert abs(integ[-1].sum() - 2.0) <= 1e-15
