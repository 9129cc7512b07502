import math

import numpy as np
import pytest

from vorwaves import bernoulli, hodograph, linearwave, numerics, stream
from vorwaves.errors import ConfigError, DomainError, UnidirectionalityError
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


def test_inverted_columns_match_per_column_searches():
    # one search over all columns picks, bit for bit, the intervals that a
    # searchsorted(col, p, side="right") per column picks; a p equal to a
    # sample takes the interval above it, whose cubic starts at that sample
    p = np.linspace(0.0, 1.0, 11)
    psi = np.linspace(0.0, 1.0, 6)[:, None] ** np.array([1.3, 1.6, 2.0, 2.5])
    psi[2], psi[3] = p[[3, 2, 2, 1]], p[[5, 4, 3, 3]]  # ties in every column
    y = np.sqrt(psi)
    h, m = np.diff(psi, axis=0), np.diff(y, axis=0) / np.diff(psi, axis=0)
    slope = hodograph._pchip_slopes(h, m)
    k = np.clip(np.column_stack([np.searchsorted(col, p, side="right")
                                 for col in psi.T]) - 1, 0, len(psi) - 2)
    j = np.arange(psi.shape[1])
    t = (slope[:-1] + slope[1:] - 2.0 * m) / h
    x = p[:, None] - psi[k, j]
    c3, c2 = (t / h)[k, j], ((m - slope[:-1]) / h - t)[k, j]
    want = ((c3 * x + c2) * x + slope[k, j]) * x + y[k, j]
    got = hodograph._invert_columns(psi, y, p, np.arange(4.0))
    assert got.tobytes() == want.tobytes()
    assert (got[[3, 2, 2, 1], j] == y[2]).all() and (got[[5, 4, 3, 3], j] == y[3]).all()


def test_strip_rejects_counter_current(w_minus_two):
    # a shot stream is a diagnostic, not a flow the strip transform takes
    sh = stream.shoot_stream(w_minus_two, -1.0)
    with pytest.raises(ConfigError, match="cannot transform 'ShotStream'"):
        to_strip(sh)


def test_strip_rejects_nonmonotone_wave_column():
    x = np.linspace(0.0, 1.0, 3)
    y = np.tile(np.linspace(0.0, 1.0, 8)[:, None], (1, 3))
    psi = np.tile(np.linspace(0.0, 1.0, 8)[:, None], (1, 3))
    psi[4, 1] = psi[3, 1]  # flat spot in column 1
    wf = WaveField(x=x, eta=y[-1].copy(), y=y, psi=psi, r=1.0, s=1.0,
                   t=0.0, tau0=1.0, lam=0.0, wavelength=1.0)
    with pytest.raises(UnidirectionalityError, match="column 1") as info:
        to_strip(wf)
    # plain floats, as numpy 2 scalars would print np.float64(...)
    assert "on y in [0.42857142857142855, 0.5714285714285714]" in str(info.value)



def test_strip_rejects_a_field_whose_speed_vanishes_at_the_surface():
    # y = 1 - (1 - psi)^3 has dy/dpsi = 0 at the surface, so h_p = 3 (1 - p)^2
    # vanishes there and its one-sided stencil on 257 rows reads below 0
    x = np.linspace(0.0, 1.0, 9)
    psi = np.tile(np.linspace(0.0, 1.0, 257)[:, None], (1, 9))
    y = 1.0 - (1.0 - psi) ** 3
    wf = WaveField(x=x, eta=np.ones(9), y=y, psi=psi, r=1.0, s=1.0,
                   t=0.0, tau0=1.0, lam=0.0, wavelength=1.0)
    with pytest.raises(UnidirectionalityError, match="h_p lower bound -3.05"):
        to_strip(wf)
def test_strip_input_validation(w_zero):
    st = stream.solve_stream(w_zero, 2.0)
    with pytest.raises(ConfigError):
        to_strip(st, n_p=3)
    with pytest.raises(ConfigError):
        to_strip(3.14)


def test_bernoulli_residual_on_two_columns(w_zero):
    # with two columns there is no second-order h_q: it is taken as 0, which
    # a stream's flat surface makes exact
    hf = to_strip(stream.solve_stream(w_zero, 2.0), n_q=2)
    res = bernoulli_residual(hf)
    assert res.samples.shape == (2,)
    assert res.max_abs <= 1e-12


@pytest.mark.parametrize("q_span, error", [
    (math.nan, DomainError), (math.inf, DomainError), (-math.inf, DomainError),
    (0.0, ConfigError), (-1.0, ConfigError),
])
def test_strip_refuses_a_bad_q_span(w_two, q_span, error):
    # -1 gave a strip of width -1 and flipped the sign of the identity's
    # sides; 0 and NaN failed later, as an empty window
    st = stream.solve_stream(w_two, 2.1)
    with pytest.raises(error, match="q_span"):
        to_strip(st, q_span=q_span)


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


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_surface_residual_refuses_a_non_finite_head(w_zero, r):
    # a NaN head gave max_abs = nan
    hf = to_strip(stream.solve_stream(w_zero, 2.0))
    with pytest.raises(DomainError, match="not finite"):
        bernoulli_residual(hf, r=r)


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
    numerics.tally.clear()
    assert wheeler_identity(hf, 3.0, None, w_two).discrepancy == 0.0
    # H and Phi come from one two-row call
    assert numerics.tally["quad_calls"] == 1


@pytest.mark.parametrize("spec", ["constant 0", "table 0:1 0.5:-1 1:2"])
def test_wheeler_conjugate_pair(spec):
    # the field of the s- stream against s+, at r = 1.1 on omega = 0 and
    # halfway between r_c and r0 on the table.  On omega = 0 both profiles
    # are linear in p, so every difference is exact and lhs is rounding;
    # with vorticity the differences and the trapezoid rule leave an
    # O(dp^2) lhs (7.9e-5 at n_p = 2049), while rhs stays exactly zero
    dist = V.parse(spec)
    an = bernoulli.analyze(dist)
    pair = bernoulli.conjugates(dist, 1.1 if an.r0 is None else 0.5 * (an.r_c + an.r0))
    minus = stream.solve_stream(dist, pair.s_minus)
    lhs = []
    for n_p in (1025, 2049):
        rep = wheeler_identity(to_strip(minus, n_p=n_p, n_q=21), pair.s_plus, (0.0, 1.0), dist)
        assert rep.rhs == 0.0
        assert rep.width == 1.0
        assert rep.head_gap < 1e-8
        lhs.append(abs(rep.lhs_per_unit))
    assert lhs[1] < 1e-4
    assert lhs[0] >= 3.5 * lhs[1] or lhs[0] < 1e-12


def test_wheeler_reduced_at_critical_slope(w_zero):
    crit = bernoulli.analyze(w_zero)
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
    with pytest.raises(ConfigError) as info:
        wheeler_identity(hf, 2.0, (0.5, 0.5), w_zero)
    assert str(info.value) == "empty window (0.5, 0.5) on q in [0.0, 1.0]"


def test_wheeler_wave_is_quadratically_small(stream_plus, disp_plus, w_zero):
    t = 0.01
    wf = linearwave.build_wave(stream_plus, disp_plus, t)
    hf = to_strip(wf)
    rep = wheeler_identity(hf, stream_plus.s, None, w_zero)
    # the first-order wave solves the equations to O(t^2)
    assert rep.discrepancy < 50.0 * t * t
    assert rep.discrepancy > 0.0
