import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_

from vorwaves import bernoulli, numerics, stream
from vorwaves.errors import (
    AmbiguousClassificationError,
    ConvergenceError,
    DivergenceError,
    DomainError,
)
from vorwaves.stream import _layout, shoot_stream, solve_stream
from vorwaves.vorticity import VorticityDistribution as V, _horner, _horner_rows

from strategies import dist_specs
from test_sweep import INSIDE_SNAP_WINDOW, _head

# closed forms used throughout:
#   omega == 0:  u = s y, d = 1/s, H(p) = p/s, Phi(p) = p/s^3
#   omega == 2:  u'^2 = s^2 - 4u, H(p) = (s - sqrt(s^2 - 4p))/2,
#                Phi(p) = ((s^2 - 4p)^{-1/2} - 1/s)/2


def test_irrotational_depth_and_profile(w_zero):
    for s in (0.5, 1.0, 2.0):
        st = solve_stream(w_zero, s)
        np.testing.assert_allclose(st.d, 1.0 / s, rtol=1e-12)
        np.testing.assert_allclose(st.height_at(0.37), 0.37 / s, rtol=1e-12)
        np.testing.assert_allclose(st.phi_at(1.0), s ** -3, rtol=1e-12)


def test_constant_vorticity_closed_forms(w_two):
    s = 3.0
    st = solve_stream(w_two, s)
    np.testing.assert_allclose(st.d, (3.0 - math.sqrt(5.0)) / 2.0, rtol=1e-12)
    for p in (0.2, 0.5, 0.9):
        np.testing.assert_allclose(st.height_at(p),
                                   (s - math.sqrt(s * s - 4.0 * p)) / 2.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            st.phi_at(p),
            0.5 * ((s * s - 4.0 * p) ** -0.5 - 1.0 / s), rtol=1e-11)
    np.testing.assert_allclose(st.u_prime_d ** 2, 5.0, rtol=1e-14)


def test_threshold_depth_tie_case(w_tilted):
    # at s = s0 = 0 the margin vanishes at both endpoints;
    # d = int (6 tau (1 - tau))^{-1/2} = pi / sqrt(6)
    np.testing.assert_allclose(solve_stream(w_tilted, 0.0).d, math.pi / math.sqrt(6.0),
                               rtol=1e-12)


def test_threshold_depth_surface_case(w_two):
    # s = s0 = 2: u'^2 = 4(1 - u), H(p) = 1 - sqrt(1 - p), d0 = 1
    st = solve_stream(w_two, 2.0)
    np.testing.assert_allclose(st.d, 1.0, rtol=1e-12)
    p = np.linspace(0.0, 1.0, 301)
    np.testing.assert_allclose(st.height_at(p), 1.0 - np.sqrt(1.0 - p),
                               atol=1e-12)


def test_below_threshold_rejected(w_two):
    with pytest.raises(DomainError):
        solve_stream(w_two, 1.9)
    with pytest.raises(DomainError):
        solve_stream(w_two, -2.1)


def test_divergent_threshold_depth(w_zero):
    # condition "i": d(s0) = +inf, reported as divergence not a number
    with pytest.raises(DivergenceError):
        solve_stream(w_zero, 0.0)
    with pytest.raises(DivergenceError):
        solve_stream(w_zero, sigma2=0.0)


def test_phi_not_defined_at_threshold(w_two, w_tilted):
    # a zero-margin stream ("ii"/"iii"), named by s0 or by its margin, has a
    # depth, but the -3/2 power is not integrable at the maximizers of Omega,
    # which every [0, p] reaches where Omega peaks at the bottom
    for st, p in ((solve_stream(w_two, 2.0), 1.0),
                  (solve_stream(w_two, sigma2=0.0), [0.5, 1.0]),
                  (solve_stream(w_tilted, sigma2=0.0), 0.5),
                  (solve_stream(V.constant(-2.0), sigma2=0.0), 0.5)):
        assert math.isfinite(st.d)
        with pytest.raises(DomainError, match="not defined at s = s0"):
            st.phi_at(p)


def test_phi_at_zero_margin_below_the_surface_maximizer(w_two):
    # under "iii" with Omega peaking at the surface only, Phi(p; s0) is finite
    # for p < 1: on omega == 2, ((4 - 4p)^(-1/2) - 1/2) / 2
    p = np.array([0.1, 0.5, 0.9, 0.99])
    want = ((4.0 - 4.0 * p) ** -0.5 - 0.5) / 2.0
    for st in (solve_stream(w_two, 2.0), solve_stream(w_two, sigma2=0.0)):
        np.testing.assert_allclose(st.phi_at(p), want, rtol=1e-13, atol=0.0)
        assert abs(st.phi_at(0.5) - (math.sqrt(2.0) - 1.0) / 4.0) <= 1e-16


def test_column_reads_of_a_stream_are_its_totals():
    # H(1) and Phi(1) of a stream are the column totals, read from their
    # memo with no new quadrature
    dist = V.parse("poly 0 0 3")
    st = solve_stream(dist, dist.classify().s0 + 0.5)
    phi = stream._totals(dist, [(st.sigma2, -1.5)])[0]
    numerics.tally.clear()
    assert st.height_at(1.0) == st.d
    assert st.phi_at(1.0) == phi
    assert st.phi_at([1.0, 1.0]).tolist() == [phi, phi]
    assert numerics.tally["quad_calls"] == 0


def test_one_range_check_for_heights(w_two):
    # the quadrature stream and the shot refuse a height just past the slack
    # of 1e-9 max(1, d) with the same error, and take one inside it
    for reader in (solve_stream(w_two, 3.0), shoot_stream(w_two, 3.0)):
        d = reader.d
        assert reader.u_at(d * (1.0 + 5e-10)) == pytest.approx(1.0, abs=1e-8)
        for y in (d + 2e-9 * max(1.0, d), -2e-9 * max(1.0, d), math.nan):
            with pytest.raises(DomainError) as err:
                reader.u_at(y)
            assert str(err.value) == f"height {y!r} outside the water column [0, {d!r}]"


def test_phi_decreasing_in_s(w_two):
    values = [solve_stream(w_two, s).phi_at(1.0) for s in (2.1, 2.5, 3.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_phi_cumulative_matches_pointwise(w_two):
    grid = np.linspace(0.0, 1.0, 17)
    st = solve_stream(w_two, 3.0)
    cum = stream._accumulate(w_two, [(st.sigma2, -1.5)], grid)[0]
    want = [st.phi_at(p) for p in grid]
    np.testing.assert_allclose(cum, want, rtol=1e-10, atol=1e-14)


def test_phi_of_a_scalar_is_the_one_column_integral(w_two):
    st = solve_stream(w_two, 2.1)
    value = st.phi_at(0.5)
    assert type(value) is float
    assert value == stream._accumulate(w_two, [(st.sigma2, -1.5)], (0.5,))[0, 0]


def test_phi_takes_arrays(w_two):
    # an array of powers gave a bare TypeError; the values come unsorted,
    # repeated and in two dimensions
    p = np.array([[0.5, 0.2], [1.0, 0.5]])
    st = solve_stream(w_two, 2.1)
    values = st.phi_at(p)
    assert values.shape == p.shape
    each = [[st.phi_at(x) for x in row] for row in p.tolist()]
    np.testing.assert_allclose(values, each, rtol=1e-12, atol=0.0)
    assert st.phi_at([0.5, 0.2]).shape == (2,)


@pytest.mark.parametrize("p", [-0.1, 1.1, [0.5, 1.1], math.nan])
def test_phi_outside_the_column_is_a_domain_error(w_two, p):
    with pytest.raises(DomainError, match="outside"):
        solve_stream(w_two, 2.1).phi_at(p)


@pytest.mark.parametrize("w, s, sigma2", [
    (2.0, 3.0, None), (2.0, None, 1e-6), (-2.0, 0.5, None), (0.5, 1.2, None),
    (-1.0, None, 1e-8),
])
def test_phi_at_constant_vorticity_closed_form(w, s, sigma2):
    # omega == w: the gap is w (1 - t) for w > 0 and -w t else, and
    # Phi(p) = ((sigma2 + 2 gap(p))^(-1/2) - (sigma2 + 2 gap(0))^(-1/2)) / w,
    # written without cancellation at the margin; a stream named by its
    # margin is read the same way
    st = solve_stream(V.constant(w), s, sigma2=sigma2)
    p = np.linspace(0.0, 1.0, 41)
    gap = w * (1.0 - p) if w > 0.0 else -w * p
    want = ((st.sigma2 + 2.0 * gap) ** -0.5 - (st.sigma2 + 2.0 * gap[0]) ** -0.5) / w
    np.testing.assert_allclose(st.phi_at(p), want, rtol=1e-11, atol=0.0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, 0.5))
def test_phi_at_the_surface_is_the_column_row(spec, lift):
    # Phi(1; s) of a stream is the -3/2 row of the column totals that
    # bernoulli and dispersion read, bit for bit
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    st = solve_stream(dist, s0 + max(1.0, s0) * 10.0 ** lift)
    assert st.phi_at(1.0) == stream._totals(dist, [(st.sigma2, -1.5)])[0]


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
    for fn in (solve_stream, shoot_stream):
        with pytest.raises(DomainError, match="not finite"):
            fn(w_two, s)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -1e-300, -1.0])
def test_margin_not_finite_or_negative_is_a_domain_error(w_two, sigma2):
    with pytest.raises(DomainError, match="margin"):
        solve_stream(w_two, sigma2=sigma2)


def test_a_stream_takes_one_name(w_two):
    # a slope or a margin, not both or neither
    with pytest.raises(TypeError, match="exactly one"):
        solve_stream(w_two)
    with pytest.raises(TypeError, match="exactly one"):
        solve_stream(w_two, 3.0, sigma2=5.0)


def test_margin_names_the_stream_of_its_slope(w_two, w_zero):
    # d(s) = (s - sqrt(s^2 - 4)) / 2 on constant 2, whose s0 is 2
    st = solve_stream(w_two, sigma2=5.0)
    assert (st.s, st.sigma2) == (3.0, 5.0)
    assert (st.d, st.r) == (solve_stream(w_two, 3.0).d, solve_stream(w_two, 3.0).r)
    assert abs(st.d - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-14
    # the zero margin names the stream at s0 only where d0 is finite
    assert solve_stream(w_two, sigma2=0.0).d == solve_stream(w_two, 2.0).d
    with pytest.raises(DivergenceError):
        solve_stream(w_zero, sigma2=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_profile_argument_is_a_domain_error(w_two, bad):
    st, sh = solve_stream(w_two, 3.0), shoot_stream(w_two, 3.0)
    for fn in (st.height_at, st.slope_at, st.u_at, st.velocity_at, sh.u_at, sh.velocity_at):
        with pytest.raises(DomainError):
            fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([0.1, bad, 0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shoot_stream_refuses_non_finite_input(w_two, bad):
    # every error of the package is a VorwavesError; scipy's solve_ivp
    # would raise its own ValueError on a non-finite start
    with pytest.raises(DomainError, match="not finite"):
        shoot_stream(w_two, bad)
    with pytest.raises(DomainError, match="not finite"):
        shoot_stream(w_two, 3.0, max_depth=bad)


@pytest.mark.parametrize("max_depth", [0.0, -10.0])
def test_shoot_stream_refuses_nonpositive_max_depth(w_two, max_depth):
    # integrated downward, constant 2 at s = -3 with max_depth = -10
    # reported d = -0.382 and r = 1.412
    with pytest.raises(DomainError, match="positive"):
        shoot_stream(w_two, -3.0, max_depth=max_depth)


def test_shoot_stream_that_never_reaches_the_surface():
    # omega = 0 at s = 1 reaches u = 1 at y = 1, above max_depth = 0.5
    with pytest.raises(ConvergenceError, match="u never reached 1"):
        shoot_stream(V.constant(0.0), 1.0, max_depth=0.5)


def test_u_at_of_no_heights(w_two):
    out = solve_stream(w_two, 3.0).u_at(np.array([]))
    assert out.shape == (0,)


def test_height_at_is_the_quadrature(w_tilted):
    # any order and shape: the sorted points go to one quadrature call
    st = solve_stream(w_tilted, 0.3)
    p = np.array([[0.9, 0.1, 1.0], [0.0, 0.5, 0.1]])
    order = np.argsort(p, axis=None)
    want = np.empty(p.size)
    want[order] = stream._accumulate(w_tilted, [(st.sigma2, -0.5)], p.ravel()[order])[0]
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
        sh, st = shoot_stream(dist, s), solve_stream(dist, s)
        np.testing.assert_allclose(sh.d, st.d, atol=1e-9)
        assert sh.unidirectional
        assert not sh.sign_change
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


def test_shot_stream_refuses_heights_beyond_the_slack(w_two):
    # [0, d] is widened by 1e-9 max(1, d) for rounding, and no further
    sh = shoot_stream(w_two, 3.0)
    slack = 1e-9 * max(1.0, sh.d)
    assert sh.u_at(sh.d + 0.5 * slack) == sh.u_at(sh.d)
    for y in (sh.d + 5.0 * slack, -5.0 * slack):
        with pytest.raises(DomainError):
            sh.u_at(y)


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


@pytest.mark.parametrize("spec, s", [
    ("constant 2", 2.1),
    # s_minus of conjugates(constant 2, 0.6032)
    ("constant 2", 2.0595292736247917),
    # s_c of the property test's pinned example below
    ("poly 2.258 0.0", 2.1566169417212238),
    ("constant 2", 2.2),
])
def test_shot_finds_a_surface_that_one_step_spans(spec, s):
    # u = s y - omega y^2 / 2 reaches 1 at d = (s - sqrt(s^2 - 2 omega)) / omega and
    # falls back through 1 soon after; one DOP853 step can span both crossings
    dist = V.parse(spec)
    w = dist.omega(0.0)
    sh = shoot_stream(dist, s)
    np.testing.assert_allclose(sh.d, (s - math.sqrt(s * s - 2.0 * w)) / w, rtol=1e-12)
    np.testing.assert_allclose(sh.u_prime_d, math.sqrt(s * s - 2.0 * w), rtol=1e-12)
    assert sh.unidirectional and not sh.sign_change


@pytest.mark.parametrize("spec, r, kinks", [
    ("table 0:1 0.5:-1 1:2", 0.8967, [0.5]),
    ("poly 0 0 3", 0.6216, []),
], ids=["table", "poly"])
def test_shot_is_an_oracle_for_the_stream(spec, r, kinks):
    # the shot integrates the ODE itself: d, u'(d) and the profile both ways
    # agree at both conjugate slopes, and so do the heights where u meets
    # the table's interior nodes
    dist = V.parse(spec)
    pair = bernoulli.conjugates(dist, r)
    for s in (pair.s_plus, pair.s_minus):
        st, shot = solve_stream(dist, s), shoot_stream(dist, s)
        assert abs(shot.d - st.d) <= 1e-9
        assert abs(shot.u_prime_d - st.u_prime_d) <= 1e-9
        y = np.linspace(0.0, st.d, 200)
        assert np.max(np.abs(shot.u_at(y) - st.u_at(y))) <= 1e-9
        assert np.max(np.abs(shot.velocity_at(y) - st.velocity_at(y))) <= 1e-9
        np.testing.assert_allclose(shot.u_at(st.height_at(kinks)), kinks, rtol=0.0, atol=1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=dist_specs, frac=st_.floats(0.0, 1.0))
@example(spec="poly 2.258 0.0", frac=0.0)
def test_shot_matches_the_quadrature_above_the_critical_slope(spec, frac):
    # criterion 11 over random distributions; the example's surface
    # crossings fall inside one solver step
    dist = V.parse(spec)
    try:
        dist.classify()
    except AmbiguousClassificationError:
        return
    s = bernoulli.analyze(dist).s_c * (1.0 + frac)
    st, shot = solve_stream(dist, s), shoot_stream(dist, s)
    np.testing.assert_allclose(shot.d, st.d, rtol=1e-8)
    np.testing.assert_allclose(shot.u_prime_d, st.u_prime_d, rtol=1e-8)


# a class "i" table with kinks on both sides of its interior Omega peak;
# an adaptive rule that straddles them loses about 1e-8 relative in d(s_c)
KINKED = "table 0.0:1.14 0.212:-1.012 0.407:2.0 0.501:-0.466 1.0:-1.531"


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, 0.5))
def test_depth_matches_stream_solution(spec, lift):
    # the stream's depth is a fresh column quadrature at its margin, bit for
    # bit, whether the memo answers or not, and its margin names the same stream
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    st = solve_stream(dist, s0 + max(1.0, s0) * 10.0 ** lift)
    assert st.d == stream._accumulate(dist, [(st.sigma2, -0.5)], (1.0,))[0, 0]
    assert solve_stream(dist, sigma2=st.sigma2).d == st.d


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-4.0, -1.0))
def test_depth_decreases_in_s(spec, lift):
    # d'(s) = -s Phi(1; s) < 0, at three slopes a decade apart above the
    # proxy's lowest sample
    dist = V.parse(spec)
    try:
        s0 = dist.classify().s0
    except AmbiguousClassificationError:
        return
    edge = math.sqrt(s0 * s0 + bernoulli._proxy(dist).margins[0])
    d = [solve_stream(dist, edge + max(1.0, s0) * 10.0 ** (lift + k)).d for k in range(3)]
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


@pytest.mark.parametrize("spec", INSIDE_SNAP_WINDOW)
def test_u_at_answers_each_height_alone(spec):
    # at the 95% head of these draws the margin is 6.0e-14, 2.9e-15 and
    # 3.4e-20; each height alone must get the batch's answer, within 16 ulps
    # of where H crosses y
    dist = V.parse(spec)
    sigma2 = bernoulli.conjugates(dist, _head(bernoulli.analyze(dist), 0.95)).sigma2_plus
    st = solve_stream(dist, sigma2=sigma2)
    y = np.linspace(0.0, st.d, 129)
    batch = st.u_at(y)
    u = np.array([solve_stream(dist, sigma2=sigma2).u_at(t) for t in y.tolist()])
    assert np.max(np.abs(u - batch)) <= 1e-14
    slack = 1e-14 * max(1.0, st.d)
    assert np.all(st.height_at(u - 16.0 * np.spacing(u)) <= y + slack)
    assert np.all(y <= st.height_at(u + 16.0 * np.spacing(u)) + slack)


def test_depth_at_critical_slope_on_kinked_table():
    dist = V.parse(KINKED)
    st = solve_stream(dist, bernoulli.analyze(dist).s_c)
    assert st.d == stream._accumulate(dist, [(st.sigma2, -0.5)], (1.0,))[0, 0]


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


_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)
# each piece is graded toward both ends, where Omega may peak: a layer of
# width sigma2 / |omega| there is far below the piece when s_c nears s0
_GRADE = 2.0 ** -np.arange(1, 41)


def _phi_by_gauss_legendre(spec, s):
    """``Phi(1; s)`` from the spec text alone: Omega integrated by hand, and
    a fixed 400-point Gauss-Legendre rule on graded pieces between the
    table nodes and the zeros of omega."""
    kind, *toks = spec.split()
    if kind == "table":
        nodes = [tuple(float(x) for x in tok.split(":")) for tok in toks]
        cuts = {t for t, _ in nodes}
        for (t0, v0), (t1, v1) in zip(nodes, nodes[1:]):
            if v0 * v1 < 0.0:
                cuts.add(t0 - v0 * (t1 - t0) / (v1 - v0))

        def Omega(tau):
            out = np.zeros_like(tau)
            for (t0, v0), (t1, v1) in zip(nodes, nodes[1:]):
                x = np.clip(tau, t0, t1) - t0
                out += v0 * x + 0.5 * (v1 - v0) / (t1 - t0) * x * x
            return out
    else:
        coef = [float(c) for c in toks]
        cuts = {0.0, 1.0}
        if any(coef[1:]):
            cuts.update(z.real for z in np.roots(coef[::-1])
                        if abs(z.imag) < 1e-12 and 0.0 < z.real < 1.0)

        def Omega(tau):
            return sum(c * tau ** (k + 1) / (k + 1) for k, c in enumerate(coef))
    cuts, total = sorted(cuts), 0.0
    for a, b in zip(cuts, cuts[1:]):
        pts = np.unique(np.concatenate(([a, b], a + (b - a) * _GRADE, b - (b - a) * _GRADE)))
        lo, hi = pts[:-1, None], pts[1:, None]
        tau = lo + 0.5 * (hi - lo) * (_GL_X + 1.0)
        total += float(np.sum(0.5 * (hi - lo) * _GL_W * (s * s - 2.0 * Omega(tau)) ** -1.5))
    return total


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=dist_specs)
@example(spec="poly 4.0 2.375 4.0 4.0 4.0")
def test_phi_gauss_legendre_at_critical_slope_over_random_distributions(spec):
    # Phi(1; s_c) = 1 by a rule that shares no code with _accumulate; the
    # first example's s_c is within 4e-4 of s0, so ungraded pieces miss
    # its surface layer by 5e-6
    dist = V.parse(spec)
    try:
        dist.classify()
    except AmbiguousClassificationError:
        return
    s_c = bernoulli.analyze(dist).s_c
    assert abs(_phi_by_gauss_legendre(spec, s_c) - 1.0) < 1e-11


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, lifts=st_.lists(st_.floats(0.0, 1.0), min_size=2, max_size=3),
       powers=st_.lists(st_.sampled_from((-0.5, -1.5, -2.5)), min_size=3, max_size=3),
       grid=st_.one_of(st_.lists(st_.integers(1, 999), max_size=3, unique=True),
                       st_.just("chebyshev")))
def test_a_slope_integrates_alike_alone_or_in_company(spec, lifts, powers, grid):
    # a row of a several-row _accumulate, and so a memoized column
    # integral, is bit for bit the one its (slope, power) gets alone,
    # whatever the slopes and powers of the other rows: the memo cannot
    # depend on which requests were integrated together.  Margins reach
    # 1e-12 max(1, s0) (1e-8 under "i"), and the grid may be the 257
    # nodes of u_at, so pieces in v = asinh(x / L) come in many parts
    dist = V.parse(spec)
    try:
        cls = dist.classify()
    except AmbiguousClassificationError:
        return
    low = -8.0 if cls.condition == "i" else -12.0
    slopes = [cls.s0 + max(1.0, cls.s0) * 10.0 ** (low + (0.5 - low) * u) for u in lifts]
    if grid == "chebyshev":
        grid = tuple(0.5 - 0.5 * np.cos(np.pi * np.arange(1, 257) / 256))
    else:
        grid = tuple(sorted(g / 1000 for g in grid)) + (1.0,)
    margins = [stream._margin(dist, s)[0] for s in slopes]
    for rows in ([-0.5] * 3, [-1.5] * 3, powers):
        requests = list(zip(margins, rows))
        together = stream._accumulate(dist, requests, grid)
        for request, row in zip(requests, together):
            assert np.array_equal(row, stream._accumulate(dist, [request], grid)[0])
    alone = [stream._accumulate(dist, [request], (1.0,))[0, 0] for request in requests]
    assert stream._totals(dist, requests) == alone


def _oracle(spec, dps=40):
    """``gen_landscape.Spec`` of ``spec``: ``dps``-digit tanh-sinh quadrature
    that shares no code with the package; the module sets mpmath's global
    precision on import, which is put back."""
    mp = pytest.importorskip("mpmath").mp
    saved = mp.dps
    from golden.gen_landscape import Spec

    mp.dps = saved
    with mp.workdps(dps):
        return Spec(spec)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(spec=dist_specs, power=st_.sampled_from((-0.5, -1.5, -2.5)), u=st_.floats(0.0, 1.0))
@example(spec="poly -3 6", power=-0.5, u=0.0)
@example(spec="poly 1.777 0.051 -2.537", power=-2.5, u=0.0)
@example(spec="table 0:1 0.5:-1 1:2", power=-1.5, u=1.0)
def test_column_integrals_match_40_digit_quadrature(spec, power, u):
    # int_0^1 (sigma2 + 2 gap)^power at s = s0 + delta max(1, s0), with
    # delta from 1e-12 (1e-8 under "i") to 100, against the golden
    # generator's quadrature at the package's own sigma2; the worst of 120
    # random draws erred by 4.6e-16, and the top end of a piece in
    # v = asinh(x / L) maps to x_hi itself, so that v1 rounds nothing
    # the oracle refuses a table node where omega = 0, and a polynomial
    # whose last coefficient is 0 (mpmath's polyroots divides by it)
    kind, *args = spec.split()
    values = [float(a.split(":")[-1]) for a in args]
    assume(0.0 not in (values if kind == "table" else values[-1:] if len(values) > 1 else ()))
    dist = V.parse(spec)
    try:
        cls = dist.classify()
    except AmbiguousClassificationError:
        assume(False)
    low = -8.0 if cls.condition == "i" else -12.0
    s = cls.s0 + max(1.0, cls.s0) * 10.0 ** (low + (2.0 - low) * u)
    sigma2 = stream._margin(dist, s)[0]
    oracle = _oracle(spec)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        assert oracle.condition == cls.condition
        delta = mp.sqrt(oracle.s0 ** 2 + mp.mpf(sigma2)) - oracle.s0
        want = float(oracle.integral(delta, mp.mpf(power)))
    got = stream._accumulate(dist, [(sigma2, power)], (1.0,))[0, 0]
    assert abs(got - want) <= 4e-15 * want


@pytest.mark.parametrize("spec, m", [("constant 3", 1.0), ("constant 0.7", 1.0),
                                     ("poly 1 -2", 0.5)])
def test_slope_beside_a_maximizer_against_40_digit_gap(spec, m):
    # at s = s0 (1 + 1e-12) the margin sigma2 is about 1e-11, and beside the
    # maximizer m the gap is far below it: read as max Omega - Omega(p), it
    # cancelled, and the slope erred by up to 3.5e-5 (1e-13 to 1e-3 from m)
    dist = V.parse(spec)
    st = solve_stream(dist, dist.classify().s0 * (1.0 + 1e-12))
    offsets = np.geomspace(1e-13, 1e-3, 21)
    p = np.concatenate((m - offsets, m + offsets if m < 1.0 else []))
    oracle = _oracle(spec)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        want = [float(1 / mp.sqrt(mp.mpf(st.sigma2) + 2 * (oracle.big - oracle.Omega(mp.mpf(x)))))
                for x in p]
    np.testing.assert_allclose(st.slope_at(p), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("spec, rtol", [("poly 1 -1.000001", 1e-9), ("poly 1 -1.0001", 1e-12)])
def test_surface_slope_beside_an_interior_maximizer(spec, rtol):
    # the maximizer lies 1e-6 (1e-4) below the surface: read as max Omega -
    # Omega(1), the surface gap cancelled, and at margin 1e-14 u'(d) erred
    # by 1.0e-5 (1.4e-9) and parted from 1 / slope_at(1) by as much
    dist = V.parse(spec)
    st = solve_stream(dist, sigma2=1e-14)
    oracle = _oracle(spec)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        want = float(mp.sqrt(mp.mpf(1e-14) + 2 * (oracle.big - oracle.Omega(mp.mpf(1)))))
    assert abs(st.u_prime_d - want) <= rtol * want
    assert abs(st.u_prime_d * st.slope_at(1.0) - 1.0) <= 1e-15


def test_surface_gap_of_a_table_against_40_digits():
    # the maximizer sits at 0.980, on the last segment; max Omega - Omega(1)
    # erred by 7.4e-14 relative there
    spec = "table 0.0:0.157 0.329:-0.496 0.446:2.672 1.0:-0.099"
    oracle = _oracle(spec)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        want = float(2 * (oracle.big - oracle.Omega(mp.mpf(1))))
    assert abs(stream._surface(V.parse(spec)) - want) <= 1e-14 * want


@pytest.mark.parametrize("spec", ["poly 1.274", "constant 3", "constant 0.7"])
@pytest.mark.parametrize("power", [-0.5, -1.5])
@pytest.mark.parametrize("lift", [5.1e-10, 1e-6, 1e-3])
def test_profile_beside_a_maximizer_at_the_surface(spec, power, lift):
    # omega = c puts the maximizer at 1, where int_0^p (sigma2 + 2 c (1 - tau))^power
    # has a closed form; Kronrod nodes in tau round by ulp(1), large beside
    # the maximizer, and nodes in the distance to it round large near p = 0,
    # so each piece must be taken at the smaller of the two scales
    dist = V.parse(spec)
    c = dist.omega(0.5)
    sigma2 = stream._margin(dist, dist.classify().s0 + lift)[0]
    p = 0.5 * (1.0 - np.cos(np.pi * np.arange(257) / 256.0))
    p[0], p[-1] = 0.0, 1.0
    got = stream._accumulate(dist, [(sigma2, power)], p)[0]
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        top, q = mp.mpf(sigma2) + 2 * mp.mpf(c), power + 1
        want = np.array([float((top ** q - (top - 2 * mp.mpf(c) * mp.mpf(x)) ** q) / (2 * c * q))
                         for x in p])
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] / want[1:] - 1.0)) <= 2e-15


def test_depth_at_tiny_margins_follows_the_log_asymptote():
    # below the layer of its interior maximizer m, d = A log sigma2 + B +
    # O(sigma2 log sigma2), with A = -1/sqrt(|omega'(m)|) = -0.04009 here;
    # B from the golden generator's quadrature at sigma2 = 1e-30, at 60
    # digits: the maximum of Omega and the gap near m must hold many more
    # digits than the margin.  No float slope names these margins: s - s0
    # would be 4e-21 and 4e-31
    spec = "table 0.0:-2.208 0.238:0.852 0.774:1.967 0.781:-2.388 1.0:-2.914"
    oracle = _oracle(spec, 60)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        a = -1 / mp.sqrt((mp.mpf(1.967) + mp.mpf(2.388)) / (mp.mpf(0.781) - mp.mpf(0.774)))
        s2 = mp.mpf("1e-30")
        b = oracle.integral(s2 / (oracle.s0 + mp.sqrt(oracle.s0 ** 2 + s2)), mp.mpf(-0.5))
        b -= a * mp.log(s2)
        want = [float(a * mp.log(sigma2) + b) for sigma2 in (1e-20, 1e-30)]
    got = stream._totals(V.parse(spec), [(1e-20, -0.5), (1e-30, -0.5)])
    assert abs(float(a) + 0.04009) < 1e-5
    for g, w in zip(got, want):
        assert abs(g - w) <= 4e-15 * w


def test_an_empty_profile_is_of_floats(w_two):
    # no piece lies below p = 0, and an empty bincount is of integers
    st = solve_stream(w_two, 3.0)
    for got in (st.height_at([0.0]), st.phi_at([0.0]),
                stream._accumulate(w_two, [(st.sigma2, -0.5)], (0.0,))):
        assert got.dtype == np.float64 and not got.any()


@pytest.mark.parametrize("spec, s, h", [
    ("constant 2", 3.0, lambda p: p / 3.0),   # far from the maximizer at 1
    ("constant -2", 0.0, np.sqrt),            # zero margin: H = sqrt(p), in v = sqrt(x)
])
def test_pieces_narrower_than_any_normal_number(spec, s, h):
    # a cell's share of its piece's budget is its fraction of the width
    # times the budget: the budget over a width of 5e-324 overflowed
    # at zero margin the nodes of the piece below 5e-324 lie below 3e-162 in
    # v = sqrt(x), where v * v underflows, so that piece errs by about that
    p = [0.0, 5e-324, 1e-300, 1e-200]
    got = solve_stream(V.parse(spec), s).height_at(p)
    assert got.dtype == np.float64 and np.isfinite(got).all()
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got[2:], h(np.array(p[2:])), rtol=1e-12, atol=3e-162)


def test_conjugates_near_interior_peak():
    # class "i" with the Omega peak at 0.847: the subcritical search starts
    # at the proxy's lowest sample, where the uncut depth integral hit round-off
    dist = V.parse("poly 1.777 0.051 -2.537")
    r = 1.1 * bernoulli.analyze(dist).r_c
    pair = bernoulli.conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    for s in (pair.s_plus, pair.s_minus):
        np.testing.assert_allclose(solve_stream(dist, s).r, r, rtol=1e-12)


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
        # s0 = 0 for both, so s names the margin s^2
        assert abs(solve_stream(dist, s).d - want) <= 1e-12 * want
        assert abs(solve_stream(dist, sigma2=s * s).d - want) <= 1e-12 * want


def test_stream_at_the_lowest_proxy_sample():
    # class "i" with the Omega peak at 0.847, at the proxy's lowest sample,
    # 2e-9 s0 above the threshold: the direct gap max Omega - Omega lost
    # about seven digits there, and QUADPACK gave up on the piece that ends
    # at the peak.  Both paths must return the 30-digit integral at the
    # same margin sigma2.
    mp = pytest.importorskip("mpmath")
    dist = V.parse("poly 1.777 0.051 -2.537")
    s0 = dist.classify().s0
    s = math.sqrt(s0 * s0 + bernoulli._proxy(dist).margins[0])
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
    assert abs(solve_stream(dist, sigma2=sigma2).d - want) <= 1e-10 * want
    assert abs(solve_stream(dist, s).d - want) <= 1e-10 * want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=dist_specs, cuts=st_.lists(st_.integers(1, 999), max_size=4, unique=True),
       u=st_.lists(st_.floats(0.01, 0.99), min_size=3, max_size=3))
def test_layout_rows_are_the_gap(spec, cuts, u):
    # the integrand of _accumulate reads each piece's gap from the row its
    # layout gathered; inside the piece that is its gap segments' Horner
    # rule, bit for bit
    dist = V.parse(spec)
    try:
        dist.classify()
    except AmbiguousClassificationError:
        return
    grid = tuple(sorted(c / 1000 for c in cuts)) + (1.0,)
    lo, hi, _, _, _, tag, rows, _ = _layout(dist, grid)
    z = lo[:, None] + (hi - lo)[:, None] * np.array(u)
    row = rows[np.arange(len(lo))[:, None]]
    x = row[..., 0] * (z - row[..., 1])
    got = _horner_rows(row[..., 3:], x - row[..., 2])
    peaks = dist.classify().maximizers
    for i, j in enumerate(tag.tolist()):
        m, e = peaks[j // 2], 1.0 if j % 2 else -1.0
        assert np.array_equal(got[i], _horner(*dist._gap_segments(m, e), x[i]))


def test_partition_and_column_are_built_once_per_distribution(fresh_caches, monkeypatch):
    # the partition and the column's pieces do not depend on s: a root
    # search pays for them once
    gap_segments, frames = V._gap_segments, []

    def spy(self, m, e):
        frames.append((m, e))
        return gap_segments(self, m, e)

    monkeypatch.setattr(V, "_gap_segments", spy)
    dist = V.parse("poly 0.25 -1.5 2.0 0.125")
    before = stream._column.cache_info()
    solve_stream(dist, 1.5)
    built = len(frames)
    solve_stream(dist, 2.5)
    after = stream._column.cache_info()
    assert built > 0 and len(frames) == built
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    for arr in [*dist._partition[:-1], *stream._column(dist)[:-1]]:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


@pytest.mark.parametrize("spec, s, reading, want", [
    (KINKED, 0.6506459863146118, "depth", (210, 14)),
    (KINKED, 0.6506459863146118, "phi", (240, 16)),
    (KINKED, 0.6101400345853446, "depth", (285, 19)),
    (KINKED, 0.6101400345853446, "phi", (465, 31)),
    ("poly -3 6", 0.01, "depth", (360, 24)),
    ("poly -3 6", 0.01, "phi", (420, 28)),
    ("poly -3 6", 1e-6, "depth", (570, 38)),
    ("poly -3 6", 1e-6, "phi", (690, 46)),
])
def test_quadrature_work_is_pinned(spec, s, reading, want, fresh_caches):
    # integrand points and cells of one call at 1.05 s0 + 0.01 and at
    # s0 + 1e-6 max(1, s0), pinned: a change to the pieces, their parts in
    # v = asinh(x / L) or the refinement shows here; the column memo must
    # not answer first.  The depth is the whole of a new stream's work, and
    # Phi(1; s) is counted apart from it
    numerics.tally.clear()
    st = solve_stream(V.parse(spec), s)
    if reading == "phi":
        numerics.tally.clear()
        st.phi_at(1.0)
    assert (numerics.tally["quad_points"], numerics.tally["quad_cells"]) == want
