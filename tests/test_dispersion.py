import math

import numpy as np
import pytest

from vorwaves import dispersion, stream
from vorwaves.dispersion import find_tau0, gamma_bvp, sigma
from vorwaves.errors import DomainError
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


def test_gamma_matches_sinh(stream_plus, w_zero):
    # tau d = 300 renormalizes the shot in its last chunk
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


def test_gamma_survives_huge_tau(stream_plus):
    # sinh(tau d) overflows around tau d ~ 710; the chunked renormalized
    # shooting must not
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
    assert disp_plus.k_multiples == 10
    # the recorded samples bracket the root
    below = disp_plus.taus < disp_plus.tau0
    assert np.any(below) and np.any(~below)


@pytest.mark.parametrize("omega, s, has_root", [(0.5, 1.2, True),
                                                (2.0, 2.2, False)])
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
