import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vorwaves import bernoulli, linearwave, stream
from vorwaves.errors import ConfigError, DomainError
from vorwaves.linearwave import (
    build_wave,
    check_Wprime0,
    detect_sign_change,
    linear_wave,
    solve_W,
    solve_w_aux,
)
from vorwaves.vorticity import VorticityDistribution as V


def test_correction_closed_form(stream_plus):
    # irrotational: the correction solves -W'' + tau^2 W = y s^2 tau^2
    # with W(0) = W(d) = 0, so W = y s^2 - s sinh(tau y)/sinh(tau d)
    s, d = stream_plus.s, stream_plus.d
    tau = 1.5
    corr = solve_W(stream_plus, tau)
    y = corr.grid
    exact = y * s * s - s * np.sinh(tau * y) / np.sinh(tau * d)
    np.testing.assert_allclose(corr.values, exact, atol=1e-10)
    assert corr.values[0] == 0.0 and corr.values[-1] == 0.0


def test_correction_endpoint_derivatives(stream_plus):
    s, d = stream_plus.s, stream_plus.d
    tau = 1.5
    corr = solve_W(stream_plus, tau)
    np.testing.assert_allclose(
        corr.derivative_bottom,
        s * s - s * tau / np.sinh(tau * d), rtol=1e-9)
    np.testing.assert_allclose(
        corr.derivative_surface,
        s * s - s * tau / np.tanh(tau * d), rtol=1e-9)


def test_surface_identity_at_dispersion_root(stream_plus, disp_plus):
    # at the root, W'(d) collapses to u'(d)/d - 1/u'(d)
    corr = solve_W(stream_plus, disp_plus.tau0)
    s, d = stream_plus.s, stream_plus.d
    np.testing.assert_allclose(corr.derivative_surface, s / d - 1.0 / s,
                               rtol=1e-9)
    assert corr.surface_identity_ok
    assert corr.surface_identity_gap < 1e-9


def test_surface_identity_off_root(stream_plus):
    corr = solve_W(stream_plus, 0.7)
    assert not corr.surface_identity_ok
    assert corr.surface_identity_gap > 1e-3


def test_aux_solution_closed_form(w_zero):
    # s = 1, d = 1: w = sinh(tau (d - y))/sinh(tau d); tau d = 300 is
    # past the single-chunk range of the shot
    st = stream.solve_stream(w_zero, 1.0)
    for tau in (1.0, 300.0):
        aux = solve_w_aux(st, tau)
        np.testing.assert_allclose(aux.derivative_surface,
                                   -tau / math.sinh(tau), rtol=1e-10)
        y = aux.grid
        np.testing.assert_allclose(aux.values,
                                   np.sinh(tau * (1.0 - y)) / math.sinh(tau),
                                   atol=1e-10)
        assert aux.values[0] == 1.0 and aux.values[-1] == 0.0
    assert check_Wprime0(st, 300.0).superposition_discrepancy < 1e-6


def test_aux_zero_wavenumber_limit(w_zero):
    # tau = 0: w = 1 - y/d, w'(d) = -1/d
    st = stream.solve_stream(w_zero, 2.0)
    aux = solve_w_aux(st, 0.0)
    np.testing.assert_allclose(aux.derivative_surface, -2.0, rtol=1e-11)


def test_bottom_slope_check(stream_plus, disp_plus):
    chk = check_Wprime0(stream_plus, disp_plus.tau0)
    assert not chk.skipped
    assert chk.nonzero
    # the superposition certificate reproduces the solver
    assert chk.superposition_discrepancy < 1e-10
    # the product form measures a different quantity; the gap is order one
    assert chk.discrepancy > 0.1
    s, d, upd = stream_plus.s, stream_plus.d, stream_plus.u_prime_d
    aux = solve_w_aux(stream_plus, disp_plus.tau0)
    np.testing.assert_allclose(chk.superposition_value,
                               s / d + upd * aux.derivative_surface,
                               rtol=1e-12)


def test_aux_shot_stable_at_large_tau_d(w_two):
    # constant 2 at r = 0.63: tau0 d is about 39.8, so w'(d) is about
    # -4e-16 and any shot that must cancel exp(tau d) growth at the
    # surface loses all its digits.  For constant vorticity
    # w = sinh(tau (d - y))/sinh(tau d), and tau0 is the root of
    # u'(d) tau coth(tau d) - 1/u'(d) + omega(1) = 0.
    st = stream.solve_stream(w_two, bernoulli.conjugates(w_two, 0.63).s_plus)
    upd, d = st.u_prime_d, st.d
    tau0 = brentq(lambda t: upd * t / math.tanh(t * d) - 1.0 / upd + 2.0,
                  1e-6, 100.0, xtol=1e-14)
    assert tau0 * d > 30.0
    aux = solve_w_aux(st, tau0)
    exact = -tau0 / math.sinh(tau0 * d)
    assert abs(aux.derivative_surface - exact) < 1e-12
    np.testing.assert_allclose(aux.derivative_surface, exact, rtol=1e-9)
    chk = check_Wprime0(st, tau0)
    assert chk.superposition_discrepancy < 1e-6


# the six reference waves: subcritical streams of the reference distributions
_REFERENCE_WAVES = (("constant 0", 1.05), ("constant 2", 0.6032), ("constant -2", 1.9365),
                    ("poly -3 6", 0.7326), ("poly 0 0 3", 0.6216),
                    ("table 0:1 0.5:-1 1:2", 0.8822))


@pytest.mark.filterwarnings("ignore:piecewise-linear vorticity")
@pytest.mark.parametrize("spec, r", _REFERENCE_WAVES)
def test_wprime0_by_greens_identity(spec, r):
    # -W'' + q W = f with W(0) = W(d) = 0 and -w'' + q w = 0 with w(0) = 1,
    # w(d) = 0 give W'(0) = int_0^d f w dy, free of gamma'(0) = -w'(d);
    # composite Simpson on 32769 samples, whose error at the kink of a
    # table is O(h^2), 2e-10 here
    from vorwaves.dispersion import find_tau0
    dist = V.parse(spec)
    st = stream.solve_stream(dist, bernoulli.conjugates(dist, r).s_plus)
    tau = find_tau0(st).tau0
    aux = solve_w_aux(st, tau, n_samples=2 ** 15 + 1)
    y = aux.grid
    f = (y * st.velocity_at(y) * tau * tau + 2.0 * dist.omega(st.u_at(y))) / st.d
    g = f * aux.values
    integral = (y[1] - y[0]) / 3.0 * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum())
    wp0 = check_Wprime0(st, tau).derivative_bottom
    assert abs(integral - wp0) <= 1e-9 * max(1.0, abs(wp0))


def test_bottom_slope_check_skips_degenerate(stream_plus):
    chk = check_Wprime0(stream_plus, None)
    assert chk.skipped
    assert not chk.nonzero
    assert math.isnan(chk.derivative_bottom)
    assert "tau = 0" in chk.note


def test_linear_wave_requires_admissible_root(stream_minus, stream_plus,
                                              disp_plus):
    from vorwaves.dispersion import find_tau0
    disp_bad = find_tau0(stream_minus)
    with pytest.raises(DomainError):
        linear_wave(stream_minus, disp_bad, 0.01)
    with pytest.raises(ConfigError):
        linear_wave(stream_plus, disp_plus, 0.5 * stream_plus.d)


def test_linear_wave_record(stream_plus, disp_plus):
    lw = linear_wave(stream_plus, disp_plus, 0.01)
    assert lw.tau0 == disp_plus.tau0
    assert lw.lam == 0.0
    np.testing.assert_allclose(lw.wavelength, 2.0 * math.pi / lw.tau0,
                               rtol=1e-15)
    assert lw.amplitude == 0.01


def test_build_wave_geometry(stream_plus, disp_plus):
    t = 0.01
    wf = build_wave(stream_plus, disp_plus, t)
    d = stream_plus.d
    # crest and trough land on grid points exactly
    assert float(np.max(wf.eta)) == d + t
    assert float(np.min(wf.eta)) == d - t
    assert wf.eta[0] == wf.eta[-1]  # one full period
    # pinned rows
    assert np.all(wf.psi[0, :] == 0.0)
    assert np.all(wf.psi[-1, :] == 1.0)
    np.testing.assert_array_equal(wf.y[-1, :], wf.eta)
    assert np.all(wf.y[0, :] == 0.0)


def test_build_wave_zero_amplitude_is_the_stream(stream_plus, disp_plus):
    wf = build_wave(stream_plus, disp_plus, 0.0)
    # every column identical to the base profile, bitwise
    for j in range(1, wf.psi.shape[1]):
        np.testing.assert_array_equal(wf.psi[:, j], wf.psi[:, 0])
    assert float(np.ptp(wf.eta)) == 0.0


def test_build_wave_grid_validation(stream_plus, disp_plus):
    with pytest.raises(ConfigError):
        build_wave(stream_plus, disp_plus, 0.01, n_x=1)


def test_detect_sign_change_wave(stream_plus, disp_plus):
    wf = build_wave(stream_plus, disp_plus, 0.01)
    sc = detect_sign_change(wf)
    assert not sc.changes_sign
    assert sc.min_value == 0.0


def test_detect_sign_change_shot(w_minus_two):
    sh = stream.shoot_stream(w_minus_two, -1.0)
    sc = detect_sign_change(sh)
    assert sc.changes_sign
    np.testing.assert_allclose(sc.min_value, -0.25, atol=1e-9)
    np.testing.assert_allclose(sc.location, 0.5, atol=1e-8)


def test_detect_sign_change_stream_and_errors(stream_plus):
    sc = detect_sign_change(stream_plus)
    assert not sc.changes_sign and sc.min_value == 0.0
    with pytest.raises(ConfigError):
        detect_sign_change([1.0, 2.0])


def test_wave_on_shot_stream(w_minus_two):
    # a unidirectional shot stream (positive slope) carries the same
    # construction; u'' = 2 with s = 2.2 stays positive throughout
    sh = stream.shoot_stream(w_minus_two, 2.2)
    assert sh.unidirectional
    from vorwaves.dispersion import find_tau0
    disp = find_tau0(sh)
    if disp.tau0 is not None:
        wf = build_wave(sh, disp, 0.005)
        assert np.all(wf.psi[0, :] == 0.0)
        assert np.all(wf.psi[-1, :] == 1.0)
