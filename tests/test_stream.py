import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from vorwaves import bernoulli, stream
from vorwaves.errors import AmbiguousClassificationError, DivergenceError, DomainError
from vorwaves.stream import (
    depth,
    phi,
    shoot_stream,
    solve_stream,
    surface_slope_squared,
)
from vorwaves.vorticity import VorticityDistribution as V

from strategies import dist_specs

# closed forms used throughout:
#   omega == 0:  u = s y, d = 1/s, H(p) = p/s, Phi(p) = p/s^3
#   omega == 2:  u'^2 = s^2 - 4u, H(p) = (s - sqrt(s^2 - 4p))/2,
#                Phi(p) = ((s^2 - 4p)^{-1/2} - 1/s)/2


def test_irrotational_depth_and_profile(w_zero):
    for s in (0.5, 1.0, 2.0):
        np.testing.assert_allclose(depth(w_zero, s), 1.0 / s, rtol=1e-12)
        np.testing.assert_allclose(solve_stream(w_zero, s).height_at(0.37), 0.37 / s,
                                   rtol=1e-12)
        np.testing.assert_allclose(phi(w_zero, s), s ** -3, rtol=1e-12)


def test_constant_vorticity_closed_forms(w_two):
    s = 3.0
    np.testing.assert_allclose(depth(w_two, s), (3.0 - math.sqrt(5.0)) / 2.0,
                               rtol=1e-12)
    st = solve_stream(w_two, s)
    for p in (0.2, 0.5, 0.9):
        np.testing.assert_allclose(st.height_at(p),
                                   (s - math.sqrt(s * s - 4.0 * p)) / 2.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            phi(w_two, s, p),
            0.5 * ((s * s - 4.0 * p) ** -0.5 - 1.0 / s), rtol=1e-11)
    np.testing.assert_allclose(surface_slope_squared(w_two, s), 5.0, rtol=1e-14)


def test_threshold_depth_tie_case(w_tilted):
    # at s = s0 = 0 the margin vanishes at both endpoints;
    # d = int (6 tau (1 - tau))^{-1/2} = pi / sqrt(6)
    np.testing.assert_allclose(depth(w_tilted, 0.0), math.pi / math.sqrt(6.0),
                               rtol=1e-12)


def test_threshold_depth_surface_case(w_two):
    # s = s0 = 2: u'^2 = 4(1 - u), H(p) = 1 - sqrt(1 - p), d0 = 1
    np.testing.assert_allclose(depth(w_two, 2.0), 1.0, rtol=1e-12)
    st = solve_stream(w_two, 2.0)
    p = np.linspace(0.0, 1.0, 301)
    np.testing.assert_allclose(st.height_at(p), 1.0 - np.sqrt(1.0 - p),
                               atol=1e-12)


def test_below_threshold_rejected(w_two):
    with pytest.raises(DomainError):
        depth(w_two, 1.9)
    with pytest.raises(DomainError):
        solve_stream(w_two, -2.1)


def test_divergent_threshold_depth(w_zero):
    # condition "i": d(s0) = +inf, reported as divergence not a number
    with pytest.raises(DivergenceError):
        depth(w_zero, 0.0)


def test_phi_not_defined_at_threshold(w_two):
    with pytest.raises(DomainError):
        phi(w_two, 2.0)


def test_phi_decreasing_in_s(w_two):
    values = [phi(w_two, s) for s in (2.1, 2.5, 3.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_phi_cumulative_matches_pointwise(w_two):
    grid = np.linspace(0.0, 1.0, 17)
    cum = stream._accumulate(w_two, 3.0, grid, -1.5)
    want = [phi(w_two, 3.0, p) for p in grid]
    np.testing.assert_allclose(cum, want, rtol=1e-10, atol=1e-14)


def test_stream_solution_record(w_zero):
    st = solve_stream(w_zero, 2.0)
    np.testing.assert_allclose(st.d, 0.5, rtol=1e-13)
    np.testing.assert_allclose(st.u_prime_d, 2.0, rtol=1e-13)
    np.testing.assert_allclose(st.r, (4.0 + 1.0) / 3.0, rtol=1e-13)
    assert st.s0 == 0.0
    assert "StreamSolution" in repr(st)


def test_profile_interpolation_accuracy(w_two):
    st = solve_stream(w_two, 3.0)
    p = np.linspace(0.0, 1.0, 1001)
    exact = (3.0 - np.sqrt(9.0 - 4.0 * p)) / 2.0
    np.testing.assert_allclose(st.height_at(p), exact, atol=1e-12)
    assert st.height_at(0.0) == 0.0
    assert st.height_at(1.0) == st.d


def test_profile_sqrt_branch_accuracy(w_tilted):
    # s = s0 with maximizers at both endpoints: the profile has sqrt
    # branches at p = 0 and p = 1; the profile must not lose digits there
    st = solve_stream(w_tilted, 0.0)
    p = np.linspace(0.0, 1.0, 401)
    h_exact = np.arcsin(np.sqrt(p)) * 2.0 / math.sqrt(6.0)
    np.testing.assert_allclose(st.height_at(p), h_exact, atol=1e-11)


def test_inversion_round_trip(w_two, w_tilted):
    for dist, s in ((w_two, 3.0), (w_two, 2.0), (w_tilted, 0.0), (w_tilted, 1.0)):
        st = solve_stream(dist, s)
        y = np.linspace(0.0, st.d, 100)
        p = st.u_at(y)
        np.testing.assert_allclose(st.height_at(p), y, atol=1e-9)
    assert solve_stream(w_two, 3.0).u_at(0.0) == 0.0


def test_velocity_along_profile(w_zero, w_two):
    st = solve_stream(w_zero, 2.0)
    y = np.linspace(0.0, st.d, 20)
    np.testing.assert_allclose(st.velocity_at(y), np.full(20, 2.0), rtol=1e-10)

    st2 = solve_stream(w_two, 3.0)
    y2 = np.linspace(0.0, st2.d, 20)
    u = st2.u_at(y2)
    np.testing.assert_allclose(st2.velocity_at(y2), np.sqrt(9.0 - 4.0 * u),
                               rtol=1e-10)


def test_slope_at_maximizer_is_inf(w_two):
    st = solve_stream(w_two, 2.0)
    assert np.isinf(st.slope_at(1.0))
    np.testing.assert_allclose(st.slope_at(0.0), 0.5, rtol=1e-14)


def test_u_at_domain_check(w_two):
    st = solve_stream(w_two, 3.0)
    with pytest.raises(DomainError):
        st.u_at(st.d * 1.5)
    with pytest.raises(DomainError):
        st.u_at(-0.1)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_slope_is_a_domain_error(w_two, s):
    for fn in (depth, phi, solve_stream, surface_slope_squared, bernoulli.head):
        with pytest.raises(DomainError, match="not finite"):
            fn(w_two, s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_profile_argument_is_a_domain_error(w_two, bad):
    st, sh = solve_stream(w_two, 3.0), shoot_stream(w_two, 3.0)
    for fn in (st.height_at, st.slope_at, st.u_at, st.velocity_at, sh.u_at, sh.velocity_at):
        with pytest.raises(DomainError):
            fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([0.1, bad, 0.2]))


def test_height_at_is_the_quadrature(w_tilted):
    # any order and shape: the sorted points go to one quadrature call
    st = solve_stream(w_tilted, 0.3)
    p = np.array([[0.9, 0.1, 1.0], [0.0, 0.5, 0.1]])
    order = np.argsort(p, axis=None)
    want = np.empty(p.size)
    want[order] = stream._accumulate(w_tilted, 0.3, p.ravel()[order], -0.5)
    assert np.array_equal(st.height_at(p), want.reshape(p.shape))
    assert st.height_at(1.0) == st.d and st.height_at(0.0) == 0.0
    assert st.height_at(np.empty(0)).shape == (0,)


def _table_heights(dist, s, p):
    """``H(p; s)`` of a table distribution by 30-digit mpmath at the margin
    ``sigma2`` of ``_margin``, integrated piece by piece between the table
    nodes, the zeros of omega and points 10^-k away from the maximizers."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 30
    sigma2 = mp.mpf(stream._margin(dist, s)[0])
    nodes = [(mp.mpf(t), mp.mpf(v)) for t, v in dist._nodes]
    segs = list(zip(nodes, nodes[1:]))

    def Omega(x):
        total = mp.mpf(0)
        for (t0, v0), (t1, v1) in segs:
            if x <= t0:
                break
            b = min(x, t1)
            total += (b - t0) * (v0 + (v1 - v0) * (b - t0) / (2 * (t1 - t0)))
        return total

    cands = [t for t, _ in nodes] + [t0 - v0 * (t1 - t0) / (v1 - v0)
                                     for (t0, v0), (t1, v1) in segs if v0 * v1 < 0]
    top = max(Omega(t) for t in cands)
    peaks = [t for t in cands if top - Omega(t) < mp.mpf(10) ** -25]
    pts = set(cands) | {mp.mpf(x) for x in p.tolist()}
    pts |= {m + e * mp.mpf(10) ** -k for m in peaks for e in (1, -1) for k in range(1, 13)}
    pts = sorted(x for x in pts if 0 <= x <= 1)
    cum = [mp.mpf(0)]
    for a, b in zip(pts, pts[1:]):
        cum.append(cum[-1] + mp.quad(lambda t: (sigma2 + 2 * (top - Omega(t))) ** -0.5, [a, b]))
    at = dict(zip(pts, cum))
    return np.array([float(at[mp.mpf(x)]) for x in p.tolist()])


@pytest.mark.parametrize("spec, s, atol, rtol", [
    # the kink at 1/2 is an interior maximizer of Omega; s_plus at r = 0.8967
    ("table 0:1 0.5:-1 1:2", None, 1e-13, 0.0),
    # class "i", its maximizer between kinks 0.01 and 0.001 apart
    ("table 0.0:0.625 0.867:1.483 0.877:-2.532 0.878:-2.024 1.0:0.215",
     1.3539254982591122, 0.0, 1e-10),
])
def test_height_at_on_kinked_tables_against_mpmath(spec, s, atol, rtol):
    # a polynomial interpolant that spans these kinks misses both bounds by far
    dist = V.parse(spec)
    if s is None:
        s = bernoulli.conjugates(dist, 0.8967).s_plus
    st = solve_stream(dist, s)
    p = np.array(sorted({*np.linspace(0.0, 1.0, 21).tolist(),
                         0.49, 0.51, 0.866, 0.8706, 0.8708, 0.8775, 0.95}))
    err = np.max(np.abs(st.height_at(p) - _table_heights(dist, s, p)))
    assert err <= atol + rtol * st.d


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, 0.5))
def test_height_at_inverts_u_at(spec, lift):
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    st = solve_stream(dist, s0 + max(1.0, s0) * 10.0 ** lift)
    y = np.linspace(0.0, st.d, 201)
    assert np.max(np.abs(st.height_at(st.u_at(y)) - y)) <= 1e-12 * st.d


def test_shoot_matches_quadrature(w_two, w_tilted):
    for dist, s in ((w_two, 2.5), (w_two, 4.0), (w_tilted, 0.7)):
        sh = shoot_stream(dist, s)
        np.testing.assert_allclose(sh.d, depth(dist, s), atol=1e-9)
        assert sh.unidirectional
        assert not sh.sign_change
        st = solve_stream(dist, s)
        np.testing.assert_allclose(sh.r, st.r, atol=1e-9)


def test_shot_stream_evaluators(w_two):
    sh = shoot_stream(w_two, 3.0)
    y = np.linspace(0.0, sh.d, 50)
    u = sh.u_at(y)
    # closed form: u'' = -2 with u(0) = 0, u'(0) = 3
    exact = 3.0 * y - y ** 2
    np.testing.assert_allclose(u, exact, atol=1e-10)
    np.testing.assert_allclose(sh.velocity_at(y), 3.0 - 2.0 * y, atol=1e-10)
    with pytest.raises(DomainError):
        sh.u_at(sh.d + 1.0)


def test_counter_current_shot(w_minus_two):
    # u'' = 2, u = y^2 - y: dips to -1/4 at y = 1/2, reaches 1 at the
    # golden ratio, u'(d) = sqrt(5)
    sh = shoot_stream(w_minus_two, -1.0)
    gold = (1.0 + math.sqrt(5.0)) / 2.0
    np.testing.assert_allclose(sh.d, gold, atol=1e-10)
    np.testing.assert_allclose(sh.min_u, -0.25, atol=1e-10)
    np.testing.assert_allclose(sh.min_location, 0.5, atol=1e-8)
    assert sh.sign_change
    assert not sh.unidirectional
    np.testing.assert_allclose(sh.u_prime_d, math.sqrt(5.0), rtol=1e-10)
    np.testing.assert_allclose(sh.r, (6.0 + math.sqrt(5.0)) / 3.0, rtol=1e-10)


# a class "i" table with kinks on both sides of its interior Omega peak;
# an adaptive rule that straddles them loses about 1e-8 relative in d(s_c)
KINKED = "table 0.0:1.14 0.212:-1.012 0.407:2.0 0.501:-0.466 1.0:-1.531"


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, 0.5))
def test_depth_matches_stream_solution(spec, lift):
    # the stream's depth is the very quadrature call that depth makes
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    s = s0 + max(1.0, s0) * 10.0 ** lift
    assert solve_stream(dist, s).d == depth(dist, s)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, -1.0))
def test_depth_decreases_in_s(spec, lift):
    # d'(s) = -s Phi(1; s) < 0, at three slopes a decade apart above the
    # least slope the head searches probe
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    edge = bernoulli._guard_edge(s0)
    d = [depth(dist, edge + max(1.0, s0) * 10.0 ** (lift + k)) for k in range(3)]
    assert d[0] > d[1] > d[2]


def test_u_at_keeps_its_last_inversion(w_two, monkeypatch):
    # build_wave asks for u on the heights velocity_at has just inverted;
    # each call gets its own copy, since build_wave writes into it
    st = solve_stream(w_two, 3.0)
    y = np.linspace(0.0, st.d, 129)
    first = st.u_at(y)
    want = first.copy()
    first[:] = -1.0

    def fail(*args):
        raise AssertionError("the kept inversion was integrated again")

    monkeypatch.setattr(stream, "_accumulate", fail)
    assert np.array_equal(st.u_at(y), want)
    np.testing.assert_allclose(st.velocity_at(y), np.sqrt(st.s ** 2 - 4.0 * want), rtol=1e-14)
    with pytest.raises(AssertionError, match="integrated again"):
        st.u_at(y[::2])


def test_depth_at_critical_slope_on_kinked_table():
    dist = V.parse(KINKED)
    s_c = bernoulli.find_critical(dist).s_c
    assert solve_stream(dist, s_c).d == depth(dist, s_c)


def test_phi_gauss_legendre_at_critical_slope():
    # Phi(1; s_c) = 1 checked by a fixed 400-point Gauss-Legendre rule on
    # each piece between the table nodes and the zeros of omega
    dist = V.parse(KINKED)
    an = bernoulli.analyze(dist)
    nodes = [(float(t), float(v)) for t, v in (tok.split(":") for tok in KINKED.split()[1:])]
    pts = {t for t, _ in nodes}
    for (t0, v0), (t1, v1) in zip(nodes, nodes[1:]):
        if v0 * v1 < 0.0:
            pts.add(t0 - v0 * (t1 - t0) / (v1 - v0))
    pts = sorted(pts)
    x, w = np.polynomial.legendre.leggauss(400)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        tau = a + 0.5 * (b - a) * (x + 1.0)
        total += 0.5 * (b - a) * np.sum(
            w * (an.s_c ** 2 - 2.0 * dist.Omega(tau)) ** -1.5)
    assert abs(total - 1.0) < 1e-10


def test_conjugates_near_interior_peak():
    # class "i" with the Omega peak at 0.847: the subcritical search starts
    # at the guard-band edge, where the uncut depth integral hit round-off
    dist = V.parse("poly 1.777 0.051 -2.537")
    r = 1.1 * bernoulli.find_critical(dist).r_c
    pair = bernoulli.conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    for s in (pair.s_plus, pair.s_minus):
        np.testing.assert_allclose(bernoulli.head(dist, s), r, rtol=1e-12)


# s0 = 0 closed forms, written so that they keep every digit as s -> 0:
#   constant -1: d = sqrt(s^2 + 2) - s = 2 / (sqrt(s^2 + 2) + s)
#   poly -3 6:   d = (2/sqrt 6) asin(1/sqrt(1 + 2 s^2/3))
#                  = (2/sqrt 6) (pi/2 - atan(s sqrt(2/3)))
@pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-8])
def test_depth_through_the_threshold_layer(s):
    # the integrand has a layer of width ~ s^2 at the Omega maximizer,
    # far below any cell width; a rule that never samples it misses O(s)
    cases = (
        (V.constant(-1.0), 2.0 / (math.sqrt(s * s + 2.0) + s)),
        (V.polynomial([-3.0, 6.0]),
         2.0 / math.sqrt(6.0) * (0.5 * math.pi - math.atan(s * math.sqrt(2.0 / 3.0)))),
    )
    for dist, want in cases:
        assert abs(depth(dist, s) - want) <= 1e-12 * want
        assert abs(solve_stream(dist, s).d - want) <= 1e-12 * want


def test_stream_at_the_guard_band_edge():
    # class "i" with the Omega peak at 0.847, 2e-9 s0 above the threshold:
    # the direct gap max Omega - Omega lost about seven digits there, and
    # QUADPACK gave up on the piece that ends at the peak.  Both paths must
    # return the 30-digit integral at the same margin sigma2.
    mp = pytest.importorskip("mpmath")
    dist = V.parse("poly 1.777 0.051 -2.537")
    s = dist.classify().s0 * (1.0 + 2e-9)
    sigma2 = stream._margin(dist, s)[0]
    with mp.workdps(30):
        c = [mp.mpf(x) for x in dist._coeffs]

        def Omega(t):
            return c[0] * t + c[1] * t ** 2 / 2 + c[2] * t ** 3 / 3

        m = mp.findroot(lambda t: c[0] + c[1] * t + c[2] * t ** 2, dist.classify().maximizers[0])
        pts = sorted({mp.mpf(0), mp.mpf(1), m}
                     | {m + sgn * mp.mpf(10) ** -k for k in range(1, 8) for sgn in (1, -1)})
        want = float(mp.quad(
            lambda t: (mp.mpf(sigma2) + 2 * (Omega(m) - Omega(t))) ** mp.mpf(-0.5), pts))
    assert abs(depth(dist, s) - want) <= 1e-10 * want
    assert abs(solve_stream(dist, s).d - want) <= 1e-10 * want
