import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_

from strategies import dist_specs
from vorwaves import bernoulli, dispersion, linearwave, numerics, stream
from vorwaves.dispersion import find_tau0, gamma_bvp, sigma
from vorwaves.errors import (
    AmbiguousClassificationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ResonanceError,
)
from vorwaves.vorticity import VorticityDistribution as V

# irrotational stream with slope s: u' = s, d = 1/s, and the transverse
# mode is gamma = sinh(tau y)/sinh(tau d), so
#   sigma(tau) = s tau coth(tau/s) - 1/s


def _sigma_exact(s: float, tau: float) -> float:
    if tau == 0.0:
        return s * s - 1.0 / s
    return s * tau / math.tanh(tau / s) - 1.0 / s


def test_sigma_matches_closed_form(stream_plus):
    s = stream_plus.s
    for tau in (0.3, 1.0, 1.919, 5.0, 20.0):
        np.testing.assert_allclose(sigma(stream_plus, tau),
                                   _sigma_exact(s, tau), rtol=1e-9)


def test_sigma_zero_limit(stream_plus):
    s = stream_plus.s
    np.testing.assert_allclose(sigma(stream_plus, 0.0), s * s - 1.0 / s,
                               rtol=1e-12)


def test_sigma_rejects_negative_tau(stream_plus):
    with pytest.raises(DomainError):
        sigma(stream_plus, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_wavenumber_is_a_domain_error(w_two, bad):
    # a NaN tau slips past a plain negative-tau check and bisects the
    # column down to d / 2^14; a NaN tau_max would give tau0 = None
    st = stream.solve_stream(w_two, 3.0)
    for fn in (sigma, gamma_bvp, linearwave.solve_w_aux):
        with pytest.raises(DomainError, match="finite"):
            fn(st, bad)
    with pytest.raises(DomainError, match="finite"):
        find_tau0(st, tau_max=bad)


@pytest.mark.parametrize("n_samples", [1, 0])
def test_sampled_solves_refuse_a_grid_without_both_ends(w_two, n_samples):
    # one sample gave grid [0.0] with the value 1.0 where gamma(0) = 0;
    # none gave an IndexError
    st = stream.solve_stream(w_two, 2.1)
    for fn in (gamma_bvp, linearwave.solve_W, linearwave.solve_w_aux):
        with pytest.raises(ConfigError, match="too coarse"):
            fn(st, 3.0, n_samples=n_samples)


def test_gamma_matches_sinh(stream_plus, w_zero):
    # tau d = 300 renormalizes the solve between its elements
    for st, tau in ((stream_plus, 2.0), (stream.solve_stream(w_zero, 1.0), 300.0)):
        gam = gamma_bvp(st, tau)
        d = st.d
        y = gam.grid
        np.testing.assert_allclose(gam.values,
                                   np.sinh(tau * y) / np.sinh(tau * d), atol=1e-9)
        assert gam.values[0] == 0.0
        assert gam.values[-1] == 1.0
        # tau / sinh(tau d), written so it stays finite at large tau d
        e = math.exp(-tau * d)
        np.testing.assert_allclose(gam.derivative_bottom,
                                   2.0 * tau * e / (1.0 - e * e), rtol=1e-9)


@pytest.mark.parametrize("tau", [0.5, 3.0, 300.0])
def test_modes_match_sinh_on_the_grid(w_zero, tau):
    # omega = 0, s = 1: d = 1, and gamma and w are sinh(tau y) and
    # sinh(tau (d - y)) over sinh(tau d), written so they stay finite
    st = stream.solve_stream(w_zero, 1.0)
    d = st.d
    y = np.linspace(0.0, d, 257)
    e = math.exp(-tau * d)
    slope = 2.0 * tau * e / (1.0 - e * e)  # tau / sinh(tau d)
    # over tau d = 300 e-folds the relative error of the growth factor
    # may accumulate
    rtol = 1e-12 if tau * d < 10.0 else 1e-10
    gam, aux = gamma_bvp(st, tau), linearwave.solve_w_aux(st, tau)
    for values, start_slope, want_slope, x in (
            (gam.values, gam.derivative_bottom, slope, y),
            (aux.values, aux.derivative_surface, -slope, d - y)):
        want = np.exp(-tau * (d - x)) * (1.0 - np.exp(-2.0 * tau * x)) / (1.0 - e * e)
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(start_slope, want_slope, rtol=rtol)


def test_transverse_solves_count_their_work(w_two):
    # the transverse operator takes linear solves, no ODE steps; those count
    # only the stream shots.  find_tau0 on poly -3 6 (tau0 d = 44) takes 11:
    # one at tau = 0 for the first Newton point, eight Newton points on
    # tau^2 and the two certificates at tau0 / 2 and 2 tau0
    st = stream.solve_stream(w_two, 2.2)
    numerics.tally.clear()
    gamma_bvp(st, 40.0)
    assert numerics.tally["linear_solves"] == 1
    find_tau0(stream.solve_stream(V.parse("poly -3 6"), 0.129))
    assert numerics.tally["linear_solves"] == 1 + 11
    assert numerics.tally["collocation_nodes"] >= 2 * 25
    assert numerics.tally["ode_steps"] == numerics.tally["ode_rhs_evals"] == 0
    stream.shoot_stream(w_two, 2.2)
    assert 0 < numerics.tally["ode_steps"] < numerics.tally["ode_rhs_evals"]


def test_wave_reuses_the_solves_of_its_root():
    # a stream keeps its solves: find_tau0's last Newton point is gamma at
    # tau0, which build_wave and check_Wprime0 read again; only the solve
    # from the surface (solve_w_aux) is new
    dist = V.parse("poly -3 6")
    st = stream.solve_stream(dist, bernoulli.conjugates(dist, 0.7326).s_plus)
    disp = find_tau0(st)
    numerics.tally.clear()
    linearwave.build_wave(st, disp, 0.005)
    linearwave.check_Wprime0(st, disp.tau0)
    assert numerics.tally["linear_solves"] == 1


def test_unresolved_solve_names_tau_and_tail(w_zero, conj11, monkeypatch):
    # no bisection allowed: one element across tau d ~ 50 cannot resolve
    # exp(tau y), and the solve says at which tau and how far it got; a
    # fresh stream, as a stream keeps the solves it has made
    monkeypatch.setattr(dispersion, "_MAX_LEVEL", 0)
    with pytest.raises(ConvergenceError, match=r"tau=40\.0 .*coefficient tail \d"):
        gamma_bvp(stream.solve_stream(w_zero, conj11.s_plus), 40.0)


def test_tau0_at_large_tau_d_matches_constant_vorticity():
    # constant 2 just above s0 = 2: u'(d) = 0.02, so tau0 d is about 2300,
    # and sigma = u'(d) tau coth(tau d) - 1/u'(d) + 2 gives tau0
    import mpmath
    st = stream.solve_stream(V.constant(2.0), math.sqrt(4.0 + 4e-4))
    upd, d = st.u_prime_d, st.d
    disp = find_tau0(st, tau_max=5000.0)
    assert disp.tau0 is not None and disp.tau0 * d > 1000.0
    mpmath.mp.dps = 30
    want = mpmath.findroot(lambda t: upd * t / mpmath.tanh(t * d) - 1 / mpmath.mpf(upd) + 2,
                           disp.tau0)
    assert abs(disp.tau0 / float(want) - 1.0) < 1e-12
    assert disp.assumption_II


def test_gamma_survives_huge_tau(stream_plus):
    # sinh(tau d) overflows around tau d ~ 710; the renormalized
    # solve must not
    gam = gamma_bvp(stream_plus, 800.0)
    assert np.all(np.isfinite(gam.values))
    assert gam.values[-1] == 1.0
    np.testing.assert_allclose(gam.derivative_surface, 800.0, rtol=1e-6)


def test_find_tau0_subcritical(stream_plus, disp_plus):
    # oracle: brentq on the closed form
    from scipy.optimize import brentq
    s = stream_plus.s
    want = brentq(lambda t: _sigma_exact(s, t), 1e-9, 10.0, xtol=1e-13)
    assert disp_plus.tau0 is not None
    np.testing.assert_allclose(disp_plus.tau0, want, atol=1e-9)
    assert disp_plus.assumption_I
    assert disp_plus.assumption_II


def test_find_tau0_supercritical(stream_minus):
    # sigma(0) = s^2 - 1/s > 0 for s > 1 and sigma increases: no root
    disp = find_tau0(stream_minus)
    assert disp.tau0 is None
    assert disp.assumption_I
    assert not disp.assumption_II


def test_find_tau0_with_vorticity():
    # supercritical constant-vorticity stream: no positive root either
    w2 = V.constant(2.0)
    st = stream.solve_stream(w2, 3.0)
    disp = find_tau0(st)
    assert disp.tau0 is None
    assert not disp.assumption_II


def test_sigma_increasing_in_tau(stream_plus):
    taus = np.linspace(0.0, 6.0, 13)
    vals = [sigma(stream_plus, t) for t in taus]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_scan_record_consistency(disp_plus):
    assert disp_plus.taus.shape == disp_plus.sigmas.shape
    assert disp_plus.tau_max == 50.0
    # the recorded samples bracket the root
    below = disp_plus.taus < disp_plus.tau0
    assert np.any(below) and np.any(~below)


@pytest.mark.parametrize("omega, s, has_root", [(0.5, 1.2, True),
                                                (2.0, 2.2, False),
                                                (-2.8, 0.305, True)])
def test_scan_matches_constant_vorticity_closed_form(omega, s, has_root):
    # constant vorticity: omega' = 0, so gamma = sinh(tau y)/sinh(tau d)
    # and sigma = u'(d) tau coth(tau d) - 1/u'(d) + omega(1)
    from scipy.optimize import brentq
    st = stream.solve_stream(V.constant(omega), s)
    upd, d = st.u_prime_d, st.d

    def exact(t):
        return upd * t / np.tanh(t * d) - 1.0 / upd + omega

    disp = find_tau0(st)
    np.testing.assert_allclose(disp.sigmas, exact(disp.taus), rtol=1e-12)
    if not has_root:
        assert disp.tau0 is None
        return
    want = brentq(exact, 1e-6, disp.tau_max, xtol=1e-15)
    assert disp.tau0 is not None
    assert abs(disp.tau0 - want) < 1e-12


# sigma on a table distribution warns that it is formal
formal = pytest.mark.filterwarnings("ignore:piecewise-linear vorticity")


@formal
@pytest.mark.parametrize("spec, s", [("poly -3 6", 0.129),
                                     ("table 0:1 0.5:-1 1:2", 0.820)])
def test_sigma_zero_is_the_long_wave_limit(spec, s):
    # omega' != 0: the limit is (1/Phi - 1)/u'(d), not u'(d)/d - 1/u'(d) + omega(1)
    st = stream.solve_stream(V.parse(spec), s)
    np.testing.assert_allclose(sigma(st, 0.0), sigma(st, 1e-7), rtol=1e-9)


def test_tau0_at_the_threshold_slope():
    # omega = -2 at s = s0 = 0: u = y^2, d = 1, u'(d) = 2 and Phi(1; 0)
    # diverges, so sigma(0+) = -1/2 and sigma = 2 tau coth(tau) - 5/2
    from scipy.optimize import brentq
    st = stream.solve_stream(V.constant(-2.0), 0.0)
    np.testing.assert_allclose(sigma(st, 0.0), -0.5, rtol=1e-15)
    want = brentq(lambda t: 2.0 * t / math.tanh(t) - 2.5, 0.1, 5.0, xtol=1e-15)
    np.testing.assert_allclose(find_tau0(st).tau0, want, rtol=1e-11)


def test_vanishing_surface_slope_fails_assumption_i():
    # omega = 2 at s = s0 = 2: u = 2y - y^2 reaches 1 at its peak, d = 1, so
    # u'(d) = 0 and neither sigma nor its root is defined
    st = stream.solve_stream(V.constant(2.0), 2.0)
    assert st.u_prime_d == 0.0
    with pytest.raises(DomainError, match="assumption I fails"):
        sigma(st, 1.0)
    res = find_tau0(st)
    assert res.tau0 is None and not res.assumption_I and not res.assumption_II
    assert res.notes == ("surface slope vanishes; dispersion relation undefined",)


def test_root_beyond_tau_max():
    # near s0 the surface slope is small and tau0 = 57.6 lies past tau_max = 50
    dist = V.parse("poly 0 0 3")
    an = bernoulli.analyze(dist)
    pair = bernoulli.conjugates(dist, 0.5 * (an.r_c + an.r0))
    st = stream.solve_stream(dist, pair.s_plus)
    disp = find_tau0(st)
    assert disp.tau0 is None and not disp.assumption_II
    assert "no positive root of sigma on (0, 50.0]" in disp.notes
    assert any("root lies beyond tau_max" in n for n in disp.notes)
    far = find_tau0(st, tau_max=5000.0)
    assert far.tau0 is not None and far.tau0 > 50.0
    assert sigma(st, far.tau0 * (1.0 - 1e-6)) < 0.0 < sigma(st, far.tau0 * (1.0 + 1e-6))


def _positive_sigma_at(monkeypatch, at):
    """Make the solve from the bottom at ``tau = at`` report a surface slope
    ``1e9``, so that sigma there is positive, whatever the stream."""
    solve = dispersion._solve

    def forged(stream, tau, from_surface=False):
        mode = solve(stream, tau, from_surface)
        return mode._replace(end_slope=1e9) if tau == at else mode
    monkeypatch.setattr(dispersion, "_solve", forged)


def _reference_stream():
    # the subcritical stream of constant 0 at r = 1.1, built anew for each
    # search: a stream keeps the solves it has made
    dist = V.constant(0.0)
    return stream.solve_stream(dist, bernoulli.conjugates(dist, 1.1).s_plus)


def test_root_beyond_tau_max_needs_a_negative_sigma_there(monkeypatch):
    # the root 1.92 lies beyond tau_max = 1, so Newton passes 1; a sigma at
    # tau_max that is not negative contradicts that
    _positive_sigma_at(monkeypatch, 1.0)
    with pytest.raises(ConvergenceError, match=r"passed tau_max = 1\.0 at t = 2\.6\d*, "
                                               r"yet sigma\(tau_max\) = \d"):
        find_tau0(_reference_stream(), tau_max=1.0)


def test_root_needs_sigma_to_change_sign_about_it(monkeypatch):
    tau0 = find_tau0(_reference_stream()).tau0
    _positive_sigma_at(monkeypatch, 0.5 * tau0)
    with pytest.raises(ConvergenceError,
                       match=rf"about tau0={tau0!r}: sigma\(tau0/2\) = \d"):
        find_tau0(_reference_stream())


def test_root_with_a_near_root_at_its_double_is_resonant(monkeypatch):
    # sigma(2 tau0) is about 1.37 on the reference stream: a margin of 1e9
    # takes it for a root, so the wave is refused
    disp = find_tau0(_reference_stream())
    monkeypatch.setattr(dispersion, "_MULTIPLE_MARGIN", 1e9)
    near = find_tau0(_reference_stream())
    assert near.tau0 == disp.tau0 and not near.assumption_II and disp.assumption_II
    assert near.notes == (f"sigma(2 * tau0) = {float(disp.sigmas[1])!r} within margin 1000000000.0: "
                          f"resonant harmonic",)
    with pytest.raises(DomainError, match="assumption II False"):
        linearwave.build_wave(near.stream, near, 0.001)


@pytest.mark.parametrize("from_surface", [False, True])
def test_solve_that_vanishes_at_the_far_end_is_resonant(monkeypatch, from_surface):
    # omega'(u) forged to tau^2 + (pi/d)^2 makes the operator -d^2/dy^2 -
    # (pi/d)^2, whose solution sin(pi y/d) vanishes at the far end from either
    # end; a fresh stream, as a stream keeps the solves it has made
    st = stream.solve_stream(V.constant(0.0), 1.5)
    rate = 4.0 + (math.pi / st.d) ** 2
    monkeypatch.setattr(dispersion, "_q", lambda _, elements: np.full(
        (len(elements), dispersion._N + 1), rate))
    side = ("bottom", "surface")[from_surface]
    with pytest.raises(ResonanceError, match=rf"from the {side} vanishes .* at tau=2\.0:"):
        dispersion._solve(st, 2.0, from_surface)


@formal
def test_tau0_smooth_in_s_on_a_table():
    # the elements end where u crosses the kink at tau = 1/2, so a change
    # of s in the last digits moves tau0 by about as much, not by 1e-11
    dist = V.parse("table 0:1 0.5:-1 1:2")
    s_plus = bernoulli.conjugates(dist, 0.8967).s_plus
    roots = [find_tau0(stream.solve_stream(dist, s_plus * (1.0 + k * 1e-15))).tau0
             for k in range(-3, 4)]
    assert (max(roots) - min(roots)) / roots[3] <= 1e-13


@formal
def test_tau0_on_a_table_against_event_located_kink():
    # oracle: scipy's solve_ivp at rtol 3e-14 on each segment's own rows,
    # switching where its own u crosses the kink at tau = 1/2
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq
    dist = V.parse("table 0:1 0.5:-1 1:2")
    st = stream.solve_stream(dist, bernoulli.conjugates(dist, 0.8967).s_plus)
    # omega = 1 - 4 tau, then -1 + 6 (tau - 1/2)
    rows = ((lambda u: 1.0 - 4.0 * u, -4.0, 0.5), (lambda u: 6.0 * u - 4.0, 6.0, 1.0))

    def sigma_ref(tau):
        t, y = 0.0, np.array([0.0, st.s, 0.0, 1.0])
        for om, dom, stop in rows:
            def hit(_, z, stop=stop):
                return z[0] - stop
            hit.terminal, hit.direction = True, 1.0
            sol = solve_ivp(lambda _, z: [z[1], -om(z[0]), z[3], (tau * tau - dom) * z[2]],
                            (t, 2.0 * st.d), y, method="DOP853", rtol=3e-14,
                            atol=1e-16, events=hit)
            t, y = sol.t_events[0][0], sol.y_events[0][0]
        return y[1] * y[3] / y[2] - 1.0 / y[1] + 2.0

    want = brentq(sigma_ref, 1.2, 1.5, xtol=1e-15, rtol=1e-15)
    np.testing.assert_allclose(find_tau0(st).tau0, want, rtol=1e-12)


def _with_threshold(spec):
    dist = V.parse(spec)
    try:
        return dist, dist.classify().s0
    except AmbiguousClassificationError:
        assume(False)


def _random_stream(spec, lift):
    dist, s0 = _with_threshold(spec)
    return stream.solve_stream(dist, s0 + max(1.0, s0) * 10.0 ** lift)


@formal
@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-3.0, 0.5))
def test_sigma_near_zero_matches_phi(spec, lift):
    st = _random_stream(spec, lift)
    limit = (1.0 / st.phi_at(1.0) - 1.0) / st.u_prime_d
    assert abs(sigma(st, 1e-7) - limit) <= 1e-8 * max(1.0, abs(limit))


@formal
@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-3.0, 0.5))
def test_sigma_strictly_increasing(spec, lift):
    st = _random_stream(spec, lift)
    vals = [sigma(st, k / st.d) for k in (1e-7, 0.25, 1.0, 4.0, 16.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@formal
@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=dist_specs, lift=st_.floats(-3.0, 0.5), ks=st_.tuples(st_.floats(0.01, 20.0),
                                                                  st_.floats(0.01, 20.0)))
def test_sigma_concave_in_tau_squared(spec, lift, ks):
    # find_tau0's Newton steps on t = tau^2 start at t = 0 and stay below the
    # root because sigma is concave in t: the midpoint lies on or above the chord
    st = _random_stream(spec, lift)
    t_a, t_b = ((k / st.d) ** 2 for k in ks)
    a, mid, b = (sigma(st, math.sqrt(t)) for t in (t_a, 0.5 * (t_a + t_b), t_b))
    assert mid >= 0.5 * (a + b) - 1e-12 * max(1.0, abs(a), abs(mid), abs(b))


@formal
@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=dist_specs, frac=st_.floats(0.3, 3.0))
def test_tau0_exists_iff_subcritical(spec, frac):
    # s = s0 + frac (s_c - s0); both sides checked by solves find_tau0
    # does not take when it decides from Phi
    assume(abs(frac - 1.0) > 0.05)
    dist, s0 = _with_threshold(spec)
    s = s0 + frac * (bernoulli.analyze(dist).s_c - s0)
    assume(stream._named(s0, s) > bernoulli._proxy(dist).margins[0])
    st = stream.solve_stream(dist, s)
    disp = find_tau0(st, tau_max=1000.0)
    if frac < 1.0:
        assert disp.tau0 is not None
        tau0 = disp.tau0
        assert sigma(st, tau0 * (1.0 - 1e-6)) < 0.0 < sigma(st, tau0 * (1.0 + 1e-6))
    else:
        assert disp.tau0 is None
        assert sigma(st, 1e-6) > 0.0
