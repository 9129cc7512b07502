"""Acceptance checklist: one test per criterion, stated tolerances only.

Each test prints one line

    [acceptance] criterion NN: PASS/FAIL - detail

before asserting, so ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Expected values are closed forms or oracles recomputed inline
(grid scans, bisection, Gauss quadrature, scipy root finding), never
copies of package output.

Criterion 6 asserts the bottom derivative ``W'(0)`` of the correction
against the irrotational closed form ``s^2 - s tau0 / sinh(tau0 d)`` and
against the superposition certificate ``u'(0)/d + u'(d) w'(d)``, which is
exact because the Wronskian of the transverse mode and the auxiliary
solution gives ``gamma'(0) = -w'(d)``.  The product form
``d u'(d) w'(d)`` is not an identity of this problem (at ``d s = 1`` it
reduces to ``w'(d)``); it is printed with its gap, not asserted.
"""

import math

import numpy as np
from scipy.optimize import brentq

from vorwaves import bernoulli, bounds, dispersion, hodograph, linearwave, stream
from vorwaves.vorticity import VorticityDistribution as V


def _verdict(n, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n:02d}: {tag} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_irrotational_critical_point(w_zero):
    crit = bernoulli.analyze(w_zero)
    s = np.linspace(0.2, 3.0, 1_000_001)
    heads = (s * s + 2.0 / s) / 3.0
    i = int(np.argmin(heads))
    ok = (abs(crit.s_c - 1.0) < 1e-8
          and abs(crit.r_c - 1.0) < 1e-8
          and abs(crit.s_c - s[i]) < 1e-5
          and abs(crit.r_c - heads[i]) < 1e-8)
    _verdict(1, ok, f"s_c={crit.s_c!r}, r_c={crit.r_c!r}, "
                    f"grid argmin at s={float(s[i])!r}")


def test_criterion_02_constant_vorticity_landmarks(w_two, w_minus_two):
    an = bernoulli.analyze(w_two)
    s = np.linspace(2.0 + 1e-9, 4.0, 1_000_001)
    heads = (s * s - 4.0 + s - np.sqrt(s * s - 4.0)) / 3.0
    i = int(np.argmin(heads))
    an_m = bernoulli.analyze(w_minus_two)
    checks = [
        an.s0 == 2.0,
        abs(an.d0 - 1.0) < 1e-10,
        abs(an.r0 - 2.0 / 3.0) < 1e-10,
        abs(an.s_c - s[i]) < 1e-4,
        abs(an.r_c - heads[i]) < 1e-4,
        abs(an_m.d0 - 1.0) < 1e-10,
        abs(an_m.r0 - 2.0) < 1e-10,
    ]
    _verdict(2, all(checks),
             f"b=2: s0={an.s0!r}, r_c={an.r_c:.8f} (grid {heads[i]:.8f}), "
             f"b=-2: d0={an_m.d0:.12f}, r0={an_m.r0:.12f}")


def test_criterion_03_stationarity_at_critical_slope(w_zero, w_two,
                                                     w_minus_two, w_tilted):
    dists = [w_zero, w_two, w_minus_two, w_tilted,
             V.polynomial([0.0, 0.0, 3.0])]
    nodes, weights = np.polynomial.legendre.leggauss(400)
    tau = 0.5 * (nodes + 1.0)
    wts = 0.5 * weights
    worst = 0.0
    for dist in dists:
        s_c = bernoulli.analyze(dist).s_c
        vals = np.asarray(dist.Omega(tau), dtype=float)
        phi = float(np.sum(wts * (s_c * s_c - 2.0 * vals) ** -1.5))
        worst = max(worst, abs(phi - 1.0))
    _verdict(3, worst < 1e-8,
             f"max |Phi(1; s_c) - 1| over 5 distributions: {worst:.3e}")


def test_criterion_04_conjugate_depths(w_zero, conj11):
    def head(s):
        return (s * s + 2.0 / s) / 3.0

    def bisect(lo, hi):
        f_lo = head(lo) - 1.1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ((head(mid) - 1.1) < 0.0) == (f_lo < 0.0):
                lo = mid
                f_lo = head(mid) - 1.1
            else:
                hi = mid
        return 0.5 * (lo + hi)

    s_plus = bisect(0.2, 1.0)
    s_minus = bisect(1.0, 3.0)
    checks = [
        abs(conj11.s_plus - s_plus) < 1e-5,
        abs(conj11.d_plus - 1.0 / s_plus) < 1e-5,
        abs(conj11.s_minus - s_minus) < 1e-5,
        abs(conj11.d_minus - 1.0 / s_minus) < 1e-5,
        conj11.s_plus < 1.0 < conj11.s_minus,
        conj11.d_minus < 1.0 < conj11.d_plus,
    ]
    _verdict(4, all(checks),
             f"s+={conj11.s_plus:.8f} (bisect {s_plus:.8f}), "
             f"s-={conj11.s_minus:.8f} (bisect {s_minus:.8f})")


def test_criterion_05_dispersion_root(stream_plus, stream_minus, disp_plus):
    s, d = stream_plus.s, stream_plus.d

    def f(tau):
        return s * tau / math.tanh(tau * d) - 1.0 / s

    oracle = brentq(f, 1e-8, 50.0, xtol=1e-12)
    no_root = dispersion.find_tau0(stream_minus)
    checks = [
        disp_plus.tau0 is not None,
        abs(disp_plus.tau0 - oracle) < 1e-3,
        abs(disp_plus.tau0 - 1.920) < 1e-3,
        disp_plus.assumption_II,
        no_root.tau0 is None,
    ]
    _verdict(5, all(checks),
             f"tau0={disp_plus.tau0!r}, brentq oracle={oracle!r}, "
             f"supercritical root: {no_root.tau0!r}")


def test_criterion_06_correction_derivative_identities(stream_plus,
                                                       disp_plus):
    corr = linearwave.solve_W(stream_plus, disp_plus.tau0)
    upd = stream_plus.u_prime_d
    target = upd / stream_plus.d - 1.0 / upd
    surface_gap = abs(corr.derivative_surface - target)
    check = linearwave.check_Wprime0(stream_plus, disp_plus.tau0)
    # omega = 0: u = y/d, so W'(0) = s/d - s gamma'(0) with
    # gamma = sinh(tau y)/sinh(tau d), and s/d = s^2
    s, d, tau0 = stream_plus.s, stream_plus.d, disp_plus.tau0
    closed = s * s - s * tau0 / math.sinh(tau0 * d)
    bottom_gap = abs(check.derivative_bottom - closed)
    # the product form misses by s^2 + (1 - s) tau0/sinh(tau0 d) here
    product_gap_closed = s * s + (1.0 - s) * tau0 / math.sinh(tau0 * d)
    clause1 = surface_gap < 1e-5
    clause2 = bottom_gap < 1e-6 and check.superposition_discrepancy < 1e-6
    _verdict(6, clause1 and clause2,
             f"W'(d) vs u'(d)/d - 1/u'(d): gap {surface_gap:.3e} (tol 1e-5); "
             f"W'(0)={check.derivative_bottom:.12f} vs closed form "
             f"s^2 - s tau0/sinh(tau0 d)={closed:.12f}: gap "
             f"{bottom_gap:.3e} (tol 1e-6); superposition form matches "
             f"W'(0) to {check.superposition_discrepancy:.3e} (tol 1e-6); "
             f"not asserted: product d u'(d) w'(d)="
             f"{check.product_value:.12f}, gap {check.discrepancy:.12f} "
             f"(closed form {product_gap_closed:.12f})")


def test_criterion_07_conjugate_flow_identity(w_zero):
    details = []
    ok = True
    for r in (1.05, 1.1, 1.2):
        pair = bernoulli.conjugates(w_zero, r)
        hf = hodograph.to_strip(stream.solve_stream(w_zero, pair.s_minus))
        rep = hodograph.wheeler_identity(hf, pair.s_plus, None, w_zero)
        ok = ok and abs(rep.lhs_per_unit) < 1e-6 and rep.rhs == 0.0
        details.append(f"r={r}: |lhs|/width={abs(rep.lhs_per_unit):.2e}, "
                       f"rhs={rep.rhs!r}")
    hf = hodograph.to_strip(stream.solve_stream(w_zero, 2.0))
    self_rep = hodograph.wheeler_identity(hf, 2.0, None, w_zero)
    exact = (self_rep.lhs == 0.0 and self_rep.rhs == 0.0
             and self_rep.discrepancy == 0.0)
    _verdict(7, ok and exact,
             "; ".join(details) + f"; self-comparison exactly zero: {exact}")


def test_criterion_08_residual_scales_with_amplitude(stream_plus, disp_plus):
    ratios = []
    for t in (0.02, 0.01, 0.005):
        wf = linearwave.build_wave(stream_plus, disp_plus, t)
        res = hodograph.bernoulli_residual(hodograph.to_strip(wf))
        ratios.append(res.max_abs / t)
    ok = ratios[0] > ratios[1] > ratios[2]
    _verdict(8, ok, "residual/t at t=0.02, 0.01, 0.005: "
                    + ", ".join(f"{v:.3e}" for v in ratios))


def test_criterion_09_depth_bound_verdicts(w_zero, stream_plus, disp_plus,
                                           conj11):
    wf = linearwave.build_wave(stream_plus, disp_plus, 0.01)
    wave_rep = bounds.check_bounds(w_zero, 1.1, wf.eta)
    flat_rep = bounds.check_bounds(w_zero, 1.1, np.full(65, conj11.d_minus))
    checks = [
        wave_rep.assertion1.status == "holds",
        wave_rep.assertion2.status == "holds",
        flat_rep.assertion1.status == "violated",
        flat_rep.stream_like,
    ]
    _verdict(9, all(checks),
             f"wave: a1={wave_rep.assertion1.status}, "
             f"a2={wave_rep.assertion2.status}; flat at d_minus: "
             f"a1={flat_rep.assertion1.status}, "
             f"stream_like={flat_rep.stream_like}")


def test_criterion_10_counter_current_shot(w_minus_two):
    sh = stream.shoot_stream(w_minus_two, -1.0)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    head = (6.0 + math.sqrt(5.0)) / 3.0
    checks = [
        abs(sh.d - golden) < 1e-9,
        abs(sh.min_u + 0.25) < 1e-8,
        abs(sh.min_location - 0.5) < 1e-6,
        sh.sign_change,
        abs(sh.r - head) < 1e-6,
    ]
    _verdict(10, all(checks),
             f"d={sh.d!r} (golden ratio {golden!r}), min u={sh.min_u:.10f} "
             f"at y={sh.min_location:.10f}, sign change={sh.sign_change}, "
             f"r={sh.r:.10f} vs {head:.10f}")


def test_criterion_11_shoot_matches_quadrature():
    rng = np.random.default_rng(20260818)
    worst_depth = 0.0
    worst_inverse = 0.0
    for _ in range(20):
        degree = int(rng.integers(0, 3))
        coeffs = [float(c) for c in rng.uniform(-2.0, 2.0, size=degree + 1)]
        dist = V.polynomial(coeffs) if degree else V.constant(coeffs[0])
        s = dist.classify().s0 + 0.1 + float(rng.uniform(0.0, 2.0))
        solved = stream.solve_stream(dist, s)
        shot = stream.shoot_stream(dist, s)
        worst_depth = max(worst_depth, abs(solved.d - shot.d))
        y = np.linspace(0.0, solved.d, 100)
        gap = np.max(np.abs(solved.height_at(solved.u_at(y)) - y))
        worst_inverse = max(worst_inverse, float(gap))
    ok = worst_depth < 1e-8 and worst_inverse < 1e-8
    _verdict(11, ok, f"20 draws: worst depth gap {worst_depth:.3e}, "
                     f"worst H(u(y)) - y gap {worst_inverse:.3e}")


def test_criterion_12_strip_residuals(w_two):
    st = stream.solve_stream(w_two, 3.0)
    fine = hodograph.to_strip(st, n_p=257)
    surface = hodograph.bernoulli_residual(fine)
    coarse_field = hodograph.field_equation_residual(
        hodograph.to_strip(st, n_p=129), w_two)
    fine_field = hodograph.field_equation_residual(fine, w_two)
    ratio = coarse_field.max_abs / fine_field.max_abs
    ok = surface.max_abs < 1e-8 and ratio >= 3.0
    _verdict(12, ok, f"surface residual {surface.max_abs:.3e} (tol 1e-8); "
                     f"field residual halving ratio {ratio:.3f} (needs 3)")
