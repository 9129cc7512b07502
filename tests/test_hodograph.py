import numpy as np
import pytest

from vorwaves import bernoulli, hodograph, linearwave, stream
from vorwaves.errors import ConfigError, UnidirectionalityError
from vorwaves.hodograph import (
    bernoulli_residual,
    field_equation_residual,
    to_strip,
    wheeler_identity,
)
from vorwaves.linearwave import WaveField
from vorwaves.vorticity import VorticityDistribution as V


def test_strip_from_stream(w_zero):
    st = stream.solve_stream(w_zero, 2.0)
    hf = to_strip(st)
    # h(q, p) = p/2, x-independent
    expected = np.broadcast_to(hf.p[:, None] / 2.0, hf.h.shape)
    np.testing.assert_allclose(hf.h, expected, atol=1e-14)
    np.testing.assert_allclose(hf.delta_prime, 0.5, atol=1e-12)
    assert np.all(hf.h[0, :] == 0.0)
    assert hf.r == st.r
    np.testing.assert_allclose(hf.h[-1], np.full(hf.q.size, 0.5), atol=1e-14)


def test_strip_from_wave_round_trip(stream_plus, disp_plus):
    wf = linearwave.build_wave(stream_plus, disp_plus, 0.01)
    hf = to_strip(wf)
    np.testing.assert_array_equal(hf.q, wf.x)
    # the surface row is the pinned psi = 1 sample, so eta returns exactly
    np.testing.assert_allclose(hf.h[-1], wf.eta, atol=1e-15)
    assert np.all(hf.h[0, :] == 0.0)
    assert hf.delta_prime > 0.0


@pytest.mark.parametrize("n_y", [129, 3, 2])
def test_strip_matches_scipy_pchip(stream_plus, disp_plus, n_y):
    # scipy's PchipInterpolator, one per column, is the oracle
    from scipy.interpolate import PchipInterpolator
    wf = linearwave.build_wave(stream_plus, disp_plus, 0.01, n_y=n_y)
    hf = to_strip(wf)
    want = np.column_stack([PchipInterpolator(wf.psi[:, j], wf.y[:, j])(hf.p)
                            for j in range(wf.x.size)])
    want[0] = 0.0
    np.testing.assert_allclose(hf.h, want, rtol=0.0, atol=1e-14)


def test_strip_from_shot_stream(w_two):
    sh = stream.shoot_stream(w_two, 3.0)
    st = stream.solve_stream(w_two, 3.0)
    hf_sh = to_strip(sh)
    hf_st = to_strip(st)
    np.testing.assert_allclose(hf_sh.h[:, 0], hf_st.h[:, 0], atol=1e-8)


def test_strip_rejects_counter_current(w_minus_two):
    sh = stream.shoot_stream(w_minus_two, -1.0)
    with pytest.raises(UnidirectionalityError):
        to_strip(sh)


def test_strip_rejects_nonmonotone_wave_column():
    x = np.linspace(0.0, 1.0, 3)
    y = np.tile(np.linspace(0.0, 1.0, 8)[:, None], (1, 3))
    psi = np.tile(np.linspace(0.0, 1.0, 8)[:, None], (1, 3))
    psi[4, 1] = psi[3, 1]  # flat spot in column 1
    wf = WaveField(x=x, eta=y[-1].copy(), y=y, psi=psi, r=1.0, s=1.0,
                   t=0.0, tau0=1.0, lam=0.0, wavelength=1.0)
    with pytest.raises(UnidirectionalityError, match="column 1"):
        to_strip(wf)


def test_strip_input_validation(w_zero):
    st = stream.solve_stream(w_zero, 2.0)
    with pytest.raises(ConfigError):
        to_strip(st, n_p=3)
    with pytest.raises(ConfigError):
        to_strip(3.14)


def test_surface_residual_exact_stream(w_zero, w_two):
    for dist, s in ((w_zero, 2.0), (w_two, 3.0)):
        hf = to_strip(stream.solve_stream(dist, s))
        res = bernoulli_residual(hf)
        assert res.max_abs < 1e-8
        assert res.samples.shape == hf.q.shape


def test_surface_residual_detects_wrong_head(w_zero):
    hf = to_strip(stream.solve_stream(w_zero, 2.0))
    res = bernoulli_residual(hf, r=hf.r + 0.3)
    # the residual is linear in the head with slope -3
    np.testing.assert_allclose(res.max_abs, 0.9, atol=1e-9)


def test_field_residual_roundoff_for_linear_profile(w_zero):
    hf = to_strip(stream.solve_stream(w_zero, 2.0))
    res = field_equation_residual(hf, w_zero)
    assert res.max_abs < 1e-9


def test_field_residual_second_order(w_two):
    st = stream.solve_stream(w_two, 3.0)
    coarse = field_equation_residual(to_strip(st, n_p=129), w_two)
    fine = field_equation_residual(to_strip(st, n_p=257), w_two)
    assert coarse.max_abs / fine.max_abs >= 3.0
    assert fine.samples.shape == (fine.p.size, fine.q.size)


def test_field_residual_coarse_grid_rejected(w_two):
    hf = to_strip(stream.solve_stream(w_two, 3.0), n_p=9, n_q=5)
    with pytest.raises(ConfigError):
        field_equation_residual(hf, w_two)


def test_wheeler_self_comparison_is_exact(w_two):
    hf = to_strip(stream.solve_stream(w_two, 3.0))
    rep = wheeler_identity(hf, 3.0, None, w_two)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.discrepancy == 0.0
    assert rep.head_gap == 0.0
    assert not rep.reduced


def test_wheeler_builds_no_stream(w_two, monkeypatch):
    # the comparison column and its head come from the quadrature on the
    # field's own p-grid, not from a second stream solution
    hf = to_strip(stream.solve_stream(w_two, 3.0))

    def fail(*args):
        raise AssertionError("wheeler_identity built a StreamSolution")

    monkeypatch.setattr(stream.StreamSolution, "__init__", fail)
    assert wheeler_identity(hf, 3.0, None, w_two).discrepancy == 0.0


def test_wheeler_conjugate_pair(w_zero, conj11, stream_minus):
    hf = to_strip(stream_minus, n_q=21)
    rep = wheeler_identity(hf, conj11.s_plus, (0.0, 1.0), w_zero)
    assert rep.rhs == 0.0
    assert abs(rep.lhs_per_unit) < 1e-6
    assert rep.width == 1.0
    assert rep.head_gap < 1e-8


def test_wheeler_reduced_at_critical_slope(w_zero):
    crit = bernoulli.find_critical(w_zero)
    hf = to_strip(stream.solve_stream(w_zero, 1.4))
    with pytest.warns(UserWarning):
        rep = wheeler_identity(hf, crit.s_c, None, w_zero)
    assert rep.reduced
    assert rep.head_gap > 1e-3


def test_wheeler_head_mismatch_warns(w_zero):
    hf = to_strip(stream.solve_stream(w_zero, 2.0))
    with pytest.warns(UserWarning, match="head mismatch"):
        wheeler_identity(hf, 1.3, None, w_zero)


def test_wheeler_window_validation(w_zero):
    hf = to_strip(stream.solve_stream(w_zero, 2.0))
    with pytest.raises(ConfigError):
        wheeler_identity(hf, 2.0, (0.5, 0.5), w_zero)


def test_wheeler_wave_is_quadratically_small(stream_plus, disp_plus, w_zero):
    t = 0.01
    wf = linearwave.build_wave(stream_plus, disp_plus, t)
    hf = to_strip(wf)
    rep = wheeler_identity(hf, stream_plus.s, None, w_zero)
    # the first-order wave solves the equations to O(t^2)
    assert rep.discrepancy < 50.0 * t * t
    assert rep.discrepancy > 0.0
