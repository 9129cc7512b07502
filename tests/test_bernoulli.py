import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_

from vorwaves import bernoulli, numerics, stream
from vorwaves.bounds import check_bounds
from vorwaves.errors import (AmbiguousClassificationError, DivergenceError, DomainError,
                             InvalidIntegrandError, NoStreamError)
from vorwaves.bernoulli import analyze, conjugates
from vorwaves.vorticity import VorticityDistribution as V

from strategies import dist_specs


def head(dist, s):
    """The Bernoulli head ``R(s)``, as the stream of slope ``s`` carries it."""
    return stream.solve_stream(dist, s).r


def test_irrotational_head_closed_form(w_zero):
    # R(s) = (s^2 + 2/s)/3
    for s in (0.5, 0.9, 1.0, 1.7):
        np.testing.assert_allclose(head(w_zero, s), (s * s + 2.0 / s) / 3.0,
                                   rtol=1e-12)


def test_irrotational_critical_point(w_zero):
    crit = analyze(w_zero)
    np.testing.assert_allclose(crit.s_c, 1.0, atol=1e-10)
    np.testing.assert_allclose(crit.r_c, 1.0, atol=1e-12)
    np.testing.assert_allclose(crit.d_c, 1.0, atol=1e-10)
    assert abs(crit.phi_residual) < 1e-10


def test_constant_vorticity_head_closed_form(w_two):
    # d(s) = (s - sqrt(s^2-4))/2, u'(d)^2 = s^2 - 4
    for s in (2.2, 3.0, 4.0):
        d = (s - math.sqrt(s * s - 4.0)) / 2.0
        np.testing.assert_allclose(head(w_two, s), (s * s - 4.0 + 2.0 * d) / 3.0,
                                   rtol=1e-12)


def test_head_minimum_shape(w_two):
    # strictly decreasing into s_c, strictly increasing out of it
    crit = analyze(w_two)
    below = [head(w_two, s) for s in np.linspace(2.001, crit.s_c, 5)]
    above = [head(w_two, s) for s in np.linspace(crit.s_c, 4.0, 5)]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert all(a < b for a, b in zip(above, above[1:]))


def test_second_critical_closed_forms(w_two, w_minus_two, w_zero):
    sec = analyze(w_two)
    np.testing.assert_allclose(sec.d0, 1.0, atol=1e-12)
    np.testing.assert_allclose(sec.r0, 2.0 / 3.0, atol=1e-12)

    secm = analyze(w_minus_two)
    np.testing.assert_allclose(secm.d0, 1.0, atol=1e-12)
    np.testing.assert_allclose(secm.r0, 2.0, atol=1e-12)

    sec0 = analyze(w_zero)
    assert sec0.d0 == math.inf
    assert sec0.r0 is None


def test_critical_below_second_critical(w_two, w_minus_two, w_tilted):
    for dist in (w_two, w_minus_two, w_tilted):
        an = analyze(dist)
        assert an.r0 is not None
        assert an.r_c < an.r0


def test_conjugate_pair_values(conj11):
    # bisection on (s^2 + 2/s)/3 = 1.1 reproduced independently in
    # test_acceptance; here the structural facts
    assert conj11.regime == "subcritical-pair"
    assert 0.0 < conj11.s_plus < 1.0 < conj11.s_minus
    np.testing.assert_allclose(conj11.d_plus, 1.0 / conj11.s_plus, rtol=1e-12)
    np.testing.assert_allclose(conj11.d_minus, 1.0 / conj11.s_minus, rtol=1e-12)
    assert conj11.d_plus > 1.0 > conj11.d_minus


def test_conjugates_share_the_head(w_zero, conj11):
    np.testing.assert_allclose(head(w_zero, conj11.s_plus), 1.1, atol=1e-12)
    np.testing.assert_allclose(head(w_zero, conj11.s_minus), 1.1, atol=1e-12)


def test_conjugates_critical_regime(w_zero):
    crit = analyze(w_zero)
    pair = conjugates(w_zero, crit.r_c)
    assert pair.regime == "critical"
    assert pair.s_plus == pair.s_minus == crit.s_c


def test_conjugates_below_critical(w_zero):
    with pytest.raises(NoStreamError):
        conjugates(w_zero, 0.9)


@pytest.mark.parametrize("shift", [5e-10, -5e-10])
def test_heads_beside_the_critical_one(w_minus_two, shift):
    # the window of r_c is 1e-10 max(1, |r_c|), and r_c = 1.93 here: a head
    # 5 windows above it has two streams, and 5 windows below it none
    an = analyze(w_minus_two)
    r = an.r_c * (1.0 + shift)
    if shift < 0.0:
        with pytest.raises(NoStreamError):
            conjugates(w_minus_two, r)
        return
    pair = conjugates(w_minus_two, r)
    assert pair.regime == "subcritical-pair"
    assert pair.s_plus < an.s_c < pair.s_minus


def test_only_supercritical_regime(w_two):
    # r = 1 >= r0 = 2/3 cuts off the subcritical branch
    pair = conjugates(w_two, 1.0)
    assert pair.regime == "only-supercritical"
    assert pair.s_plus is None and pair.d_plus is None
    assert pair.s_minus is not None
    np.testing.assert_allclose(head(w_two, pair.s_minus), 1.0, atol=1e-11)
    crit = analyze(w_two)
    assert pair.d_minus < crit.d_c


def test_subcritical_pair_with_vorticity(w_two):
    # head strictly between r_c ~ 0.59987 and r0 = 2/3
    pair = conjugates(w_two, 0.62)
    assert pair.regime == "subcritical-pair"
    crit = analyze(w_two)
    assert 2.0 < pair.s_plus < crit.s_c < pair.s_minus
    assert pair.d_plus > crit.d_c > pair.d_minus
    np.testing.assert_allclose(head(w_two, pair.s_plus), 0.62, atol=1e-11)


def test_stationarity_at_the_critical_slope(w_zero, w_two, w_minus_two, w_tilted):
    for dist in (w_zero, w_two, w_minus_two, w_tilted):
        crit = analyze(dist)
        assert abs(stream.solve_stream(dist, crit.s_c).phi_at(1.0) - 1.0) < 1e-9


def test_analyze_record(w_two):
    # one cached record: a repeated call returns it, and a fresh
    # computation past the cache gives the same values
    an = analyze(w_two)
    assert an.condition == "iii"
    assert an.s0 == 2.0
    assert analyze(w_two) is an
    assert analyze.__wrapped__(w_two) == an


def test_table_distribution_end_to_end():
    # piecewise-linear omega with a surface maximum; everything funnels
    # through the same quadratures, so one sanity pass suffices
    dist = V.from_table([(0.0, -1.0), (0.5, 0.5), (1.0, 3.0)])
    an = analyze(dist)
    assert an.condition == "iii"
    pair = conjugates(dist, an.r_c * 1.02)
    assert pair.regime == "subcritical-pair"
    np.testing.assert_allclose(head(dist, pair.s_plus), an.r_c * 1.02, atol=1e-10)


def test_table_critical_values_match_mpmath():
    # omega = 1 - 4 tau, then -1 + 6 (tau - 1/2): Omega peaks at the surface
    # (class "iii"); 30-digit tanh-sinh on the pieces between the kinks and
    # the zeros of omega is an oracle independent of QUADPACK
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30

    def Omega(t):
        if t <= 0.5:
            return t - 2 * t * t
        return -(t - 0.5) + 3 * (t - 0.5) ** 2

    big = Omega(mp.mpf(1))
    cuts = [0, mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(2) / 3, 1]

    def integral(s, power):
        return mp.quad(lambda t: (s * s - 2 * Omega(t)) ** power, cuts)

    s_c = mp.findroot(lambda s: integral(s, -1.5) - 1, mp.mpf("1.05"))
    d_c = integral(s_c, -0.5)
    want = {
        "d_c": d_c,
        "r_c": (s_c ** 2 - 2 * big + 2 * d_c) / 3,
        "d0": mp.quad(lambda t: (2 * (big - Omega(t))) ** -0.5, cuts),
    }
    an = analyze(V.parse("table 0:1 0.5:-1 1:2"))
    for name, ref in want.items():
        np.testing.assert_allclose(getattr(an, name), float(ref), rtol=1e-12)


def test_critical_values_ignore_tolerance_env(monkeypatch):
    # the quadrature tolerances are fixed: the environment variable that
    # once loosened them must change nothing, computed afresh past the caches
    dist = V.parse("poly 0 0 3")
    an = analyze.__wrapped__(dist)
    r = 0.5 * (an.r_c + an.r0)
    pair = conjugates.__wrapped__(dist, r)
    monkeypatch.setenv("TOOL_SEED_TOLERANCE", "1e-2")
    assert analyze.__wrapped__(dist) == an
    assert conjugates.__wrapped__(dist, r) == pair


# class "i" with s0 = 0 and with an interior Omega peak, class "iii" with
# the peak at the surface, at both ends, and on a kinked table
PAIR_SPECS = ("constant 0", "poly 1.777 0.051 -2.537", "constant 2", "poly 0 0 3",
              "poly -3 6", "table 0:1 0.5:-1 1:2")


def _heads(dist):
    """A subcritical-pair head and, where r0 is finite, one above r0."""
    an = analyze(dist)
    if an.r0 is None:
        return (1.5 * an.r_c,)
    return (0.5 * (an.r_c + an.r0), an.r0 + 0.1)


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_searches_integrate_each_slope_once(spec, monkeypatch, fresh_caches):
    # the column memo keeps every Phi and depth the searches probe: no
    # (slope, grid, power) row is integrated twice, within the critical
    # search, within a head or across heads, and a subcritical pair
    # integrates its two branches together
    dist = V.parse(spec)
    seen, pairs = [], 0
    accumulate = stream._accumulate

    def spy(d, requests, grid):
        nonlocal pairs
        pairs += len({s for s, _ in requests}) == 2
        grid = tuple(np.atleast_1d(grid).tolist())
        seen.extend((s, grid, power) for s, power in requests)
        return accumulate(d, requests, grid)

    monkeypatch.setattr(stream, "_accumulate", spy)
    analyze(dist)
    assert seen and len(seen) == len(set(seen)) and not pairs
    for r in _heads(dist):
        before = len(seen)
        pair = conjugates(dist, r)
        assert len(seen) > before and len(seen) == len(set(seen))
        assert pairs or pair.regime != "subcritical-pair"


@pytest.mark.parametrize("spec, calls", [
    ("poly 1.777 0.051 -2.537", 13),
    ("table 0:1 0.5:-1 1:2", 12),
])
def test_head_landscape_quadrature_calls_are_pinned(spec, calls, fresh_caches):
    # analyze, then conjugates at four heads, from empty caches: one call
    # samples the proxy of d, and each Newton round of analyze (5 and 4
    # calls in all) and of the two branches of a head together is one more
    # (48 and 51 with the walks and Brent searches; 16 and 12 with Newton
    # steps in s), whatever the machine's speed
    numerics.tally.clear()
    dist = V.parse(spec)
    an = analyze(dist)
    for f in (0.2, 0.4, 0.6, 0.8):
        r = an.r_c * (1.0 + f) if an.r0 is None else an.r_c + f * (an.r0 - an.r_c)
        assert conjugates(dist, r).regime == "subcritical-pair"
    assert numerics.tally["quad_calls"] == calls


def test_head_caches_are_bounded():
    # analyze keeps the last 64 distributions and their proxies, as
    # conjugates keeps its last 64 pairs; the most recent still costs no
    # quadrature
    for k in range(65):
        dist = V.constant(0.25 + k / 64.0)
        analyze(dist)
    assert analyze.cache_info().currsize <= 64
    assert bernoulli._proxy.cache_info().currsize <= 64
    numerics.tally.clear()
    analyze(dist)
    assert numerics.tally["quad_calls"] == 0


@pytest.mark.parametrize("spec", ["constant 0", "poly 1.777 0.051 -2.537",
                                  "table 0.0:0.0 0.01:0.0 1.0:0.0"])
def test_lockstep_search_ending_at_a_probe(spec):
    # the head of the proxy's first sample above s_c: the supercritical
    # search ends on that sample, with no Newton step, while the
    # subcritical one, run in the same rounds, goes on
    dist = V.parse(spec)
    crit = analyze(dist)
    probe = next(m for m in bernoulli._proxy(dist).margins
                 if m > stream._named(crit.s0, crit.s_c))
    r = stream.solve_stream(dist, sigma2=probe).r
    numerics.tally.clear()
    pair = conjugates.__wrapped__(dist, r)
    # one quadrature call per Newton round, each round a subcritical step
    assert numerics.tally["newton_steps"] == numerics.tally["quad_calls"] > 0
    assert pair.sigma2_minus == probe and pair.d_minus == stream.solve_stream(dist, pair.s_minus).d
    assert pair.regime == "subcritical-pair" and pair.s_plus < crit.s_c
    assert abs(head(dist, pair.s_plus) - r) <= 1e-12 * r


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_kept_depths_are_the_depths_of_the_roots(spec):
    dist = V.parse(spec)
    crit = analyze(dist)
    assert crit.d_c == stream.solve_stream(dist, crit.s_c).d
    assert crit.r_c == head(dist, crit.s_c)
    s0 = dist.classify().s0
    for r in _heads(dist):
        pair = conjugates(dist, r)
        for s, d, m in ((pair.s_minus, pair.d_minus, pair.sigma2_minus),
                        (pair.s_plus, pair.d_plus, pair.sigma2_plus)):
            if s is None:
                continue
            assert d == stream.solve_stream(dist, sigma2=m).d
            # no search here goes on at exact margins: each slope lies
            # where one ulp of it moves the head by far less than the
            # tolerance, so the slope names the same stream
            assert m == stream._named(s0, s) and d == stream.solve_stream(dist, s).d


def test_repeated_conjugates_share_the_pair():
    # check_bounds asks for the pair its caller has just computed
    dist = V.parse("poly 0 0 3")
    r = _heads(dist)[0]
    pair = conjugates(dist, r)
    assert conjugates(dist, r) is pair
    a = 0.5 * (pair.d_plus - pair.d_minus)
    eta = pair.d_plus + a * np.cos(np.linspace(0.0, 2.0 * np.pi, 129))
    points = numerics.tally["quad_points"]
    rep = check_bounds(dist, r, eta)
    assert numerics.tally["quad_points"] == points
    assert (rep.d_plus, rep.d_minus) == (pair.d_plus, pair.d_minus)


@pytest.mark.parametrize("b", [2.0, -2.0])
@pytest.mark.parametrize("r", [1e100, 1e300])
def test_huge_heads_meet_the_constant_vorticity_closed_form(b, r):
    # the supercritical search starts where d = 0, at s = sqrt(3 r + 2
    # Omega(1)); a walk in s beyond the last sample took 20-22 exact values
    # at r = 1e40 and did not settle in 100 rounds at 1e100
    pair = conjugates(V.constant(b), r)
    s = pair.s_minus
    # d = (s - sqrt(s^2 - 2 b)) / b, without cancellation, and R(s) = r
    d = 2.0 / (s + math.sqrt(s * s - 2.0 * b))
    assert abs(pair.d_minus - d) <= 1e-14 * d
    assert abs((s * s - b + 2.0 * d) / 3.0 - r) <= 1e-15 * r
    assert pair.regime == "only-supercritical"


def test_open_bracket_closed_form():
    # omega = 0: s0 = 0 and d = 1/s, so s+ is the small root of s^3 - 3 r s
    # + 2 = 0, about 6.7e-10 at r = 1e9, below the proxy's lowest sample
    # (2e-9): the search runs in the open bracket beyond it
    r = 1e9
    s = 2.0 / (3.0 * r)
    s = 2.0 / (3.0 * r - s * s)
    pair = conjugates(V.constant(0.0), r)
    assert abs(pair.s_plus - s) <= 1e-14 * s
    assert abs(pair.d_plus - 1.0 / s) <= 1e-14 / s
    # from 1e12 up, the Newton step in y = -log sigma from the lowest sample
    # landed where the margin underflowed to 0, and conjugates raised
    # DivergenceError though the root's margin (4.4e-181 at 1e90) is a float
    for r in (1e12, 1e20, 1e50, 1e90):
        pair = conjugates(V.constant(0.0), r)
        assert abs((pair.s_plus ** 2 + 2.0 * pair.d_plus) / 3.0 - r) <= 5e-13 * r
        assert abs(pair.d_plus * pair.s_plus - 1.0) <= 1e-14


@pytest.mark.parametrize("r", [1e150, 1e200])
def test_deep_open_bracket_heads_raise_a_typed_error(r):
    # at 1e150 the root's margin lies below 3e-206, where Phi's integrand
    # sigma2^(-3/2) overflows: numpy's overflow warning, an error under
    # the test settings, escaped before the quadrature's own typed error;
    # at 1e200 it is about 4.4e-401, which underflows to the zero margin
    with pytest.raises({1e150: InvalidIntegrandError, 1e200: DivergenceError}[r]):
        conjugates(V.constant(0.0), r)


def test_open_bracket_on_a_flat_maximum():
    # Omega is flat at its maximum on [0.5, 1], so d grows like 1/sigma, and
    # at 1e8 r_c the root lies inside the snap window of s0 = 1; the search
    # failed as on constant 0 (1e6 r_c answered)
    dist = V.parse("table 0.0:2.0 0.5:0.0 1.0:0.0")
    cls, an = dist.classify(), analyze(dist)
    r = 1e8 * an.r_c
    pair = conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    assert pair.s_plus - cls.s0 <= stream._SNAP * max(1.0, cls.s0)
    # s names no stream inside the snap window; the pair's margin does
    st = stream.solve_stream(dist, sigma2=pair.sigma2_plus)
    assert st.d == pair.d_plus and abs(st.r - r) <= 5e-13 * r


@pytest.mark.parametrize("spec, heads, scaled", [
    ("constant 0", (1e9, 1e10, 1e11, 1e12), False),
    ("table 0.0:2.0 0.5:0.0 1.0:0.0", (1e6, 1e8, 1e10), True),
    ("poly 0 0 0 -4 2", (1e6, 1e8), True),
    ("poly 0.125 -0.75 1.5 -1", (1e4, 1e6), True),
])
def test_open_bracket_takes_few_exact_values(spec, heads, scaled, fresh_caches):
    # below the lowest sample d grows like sigma2^-beta: beta = 1/2 where
    # omega = 0 on a part (d like 1/sigma), 1/4 beside a gap like x^4; in z =
    # sigma2^-beta d is nearly linear, while steps in y = -log sigma took 8-22
    # exact values here (heads in units of r_c where scaled)
    dist = V.parse(spec)
    an = analyze(dist)
    for r in heads:
        r *= an.r_c if scaled else 1.0
        numerics.tally.clear()
        pair = conjugates(dist, r)
        assert numerics.tally["newton_steps"] <= 6, r
        assert abs(stream._head(dist, pair.sigma2_plus, pair.d_plus) - r) <= 5e-13 * r


def test_open_bracket_on_a_flat_maximum_closed_form():
    # s0 = 1, and with t = 1/sigma, d = t/2 + asinh(t)/2 and R = (1/t^2 + t +
    # asinh(t)) / 3 (the surface gap is 0); against a 40-digit root of R = r
    # the margin erred by up to 8e-14 relative in y = -log sigma
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    dist = V.parse("table 0.0:2.0 0.5:0.0 1.0:0.0")
    r_c = analyze(dist).r_c
    for k in range(6, 15):
        r = 10.0 ** k * r_c
        pair = conjugates(dist, r)
        t = mp.findroot(lambda t: (1 / t ** 2 + t + mp.asinh(t)) / 3 - r, 3 * mp.mpf(r))
        assert abs(pair.sigma2_plus * t ** 2 - 1) <= 1e-14, k
        assert abs(stream._head(dist, pair.sigma2_plus, pair.d_plus) - r) <= 5e-13 * r


@pytest.mark.parametrize("r", [math.nan, math.inf, 1e308])
def test_conjugates_refuse_a_non_finite_head(w_two, r):
    # without the check a non-finite head ends in a misleading failure; at
    # r = 1e308, 3 r (about s-^2) overflows, and the start of the
    # supercritical search divided by zero
    size = conjugates.cache_info().currsize
    with pytest.raises(DomainError, match="finite"):
        conjugates(w_two, r)
    assert conjugates.cache_info().currsize == size


@pytest.mark.parametrize("b", [10.0, 15.0, 30.0, 50.0, -50.0])
def test_strong_constant_vorticity_closed_forms(b):
    # s_c - s0 ~ 1 / (2 b^2 s0) is about 3e-5 at b = 50, deep in the steep
    # end of Phi; s_c solves 1/sqrt(s^2 - 2b) = b + 1/s (40-digit root).
    # d(s) is ill conditioned there (|s d'/d| ~ 500 at b = 50), so d_c
    # against d at the exact root checks that s_c is exact to rounding,
    # not only to the 1e-13 tolerance of its search (which left d_c 1.5e-12 off)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    s0 = mp.sqrt(2 * b) if b > 0 else mp.mpf(0)
    exact = mp.findroot(lambda s: 1 / mp.sqrt(s * s - 2 * b) - b - 1 / s,
                        (s0 + mp.mpf("1e-20"), s0 + 10), solver="anderson")
    d_exact = (exact - mp.sqrt(exact ** 2 - 2 * b)) / b

    crit = analyze(V.constant(b))
    s_c = crit.s_c
    np.testing.assert_allclose(s_c, float(exact), rtol=1e-12)
    np.testing.assert_allclose(crit.d_c, float(d_exact), rtol=1e-13)
    np.testing.assert_allclose(crit.r_c, float((exact ** 2 - 2 * b + 2 * d_exact) / 3),
                               rtol=1e-12)
    if b > 0.0:
        sec = analyze(V.constant(b))
        d0 = math.sqrt(2.0 * b) / b
        np.testing.assert_allclose(sec.d0, d0, rtol=1e-12)
        np.testing.assert_allclose(sec.r0, 2.0 * d0 / 3.0, rtol=1e-12)


def _classified(spec):
    dist = V.parse(spec)
    try:
        return dist, dist.classify()
    except AmbiguousClassificationError:
        assume(False)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs)
def test_critical_slope_minimizes_the_head(spec):
    # s_c comes from Phi(1; s) = 1; the head itself must be least there
    dist, cls = _classified(spec)
    crit = analyze(dist)
    for s in (crit.s_c * (1.0 - 1e-3), crit.s_c * (1.0 + 1e-3)):
        if stream._named(cls.s0, s) > bernoulli._proxy(dist).margins[0]:
            assert crit.r_c <= head(dist, s)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=dist_specs, frac=st_.floats(0.1, 0.9))
@example(spec="table 0.0:2.904 0.35:0.0 1.0:0.0", frac=0.5)
def test_conjugates_share_a_head_between_the_critical_values(spec, frac):
    # the head of a slope between s0 and s_c lies between r_c and r0; the
    # example (class "i", Omega flat on [0.35, 1]) is one where evaluating
    # the head at the proxy's lowest sample hit QUADPACK round-off
    dist, cls = _classified(spec)
    crit = analyze(dist)
    s = cls.s0 + frac * (crit.s_c - cls.s0)
    assume(stream._named(cls.s0, s) > bernoulli._proxy(dist).margins[0])
    r = head(dist, s)
    pair = conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    assert pair.s_plus < crit.s_c < pair.s_minus
    for s_pm in (pair.s_plus, pair.s_minus):
        assert abs(head(dist, s_pm) - r) <= 1e-10 * max(1.0, abs(r))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=dist_specs, frac=st_.floats(0.01, 0.99))
@example(spec="table 0.0:2.773 0.055:-2.204 0.469:-2.98 0.932:-0.714 1.0:-0.944", frac=2e-10)
@example(spec="table 0.0:0.134 0.431:-2.204 0.741:-2.926 1.0:1.537", frac=2e-10)
def test_conjugates_meet_the_head_or_refuse(spec, frac):
    # heads from r_c up to r0, or up to 12 r_c under class "i", where the
    # subcritical root may lie below the proxy's lowest sample: conjugates
    # answers there too, and never returns a slope whose head misses r.
    # The examples put r 2.2e-9 r_c above r_c, where R' -> 0 near s_c: a
    # Halley step there shrank to nothing, and R' = 0 divided by zero
    dist, cls = _classified(spec)
    an = analyze(dist)
    r = an.r_c + frac * ((an.r0 if an.r0 is not None else 12.0 * an.r_c) - an.r_c)
    assume(r - an.r_c > 1e-9 * max(1.0, abs(an.r_c)))
    pair = conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    assert pair.s_plus < an.s_c < pair.s_minus
    for s, d, m in ((pair.s_plus, pair.d_plus, pair.sigma2_plus),
                    (pair.s_minus, pair.d_minus, pair.sigma2_minus)):
        if s - cls.s0 <= stream._SNAP * max(1.0, cls.s0):
            # s names no stream inside the snap window of s0; the margin does
            st = stream.solve_stream(dist, sigma2=m)
            assert st.d == d and abs(st.r - r) <= 5e-13 * max(1.0, abs(r))
            continue
        # a slope is a float: where one ulp of it moves the head past its
        # tolerance, d is integrated at the exact margin, which the slope
        # names to within that ulp, and d'(s) = -s Phi(1; s)
        st = stream.solve_stream(dist, s)
        phi = st.phi_at(1.0)
        assert abs(d - st.d) <= 4.0 * math.ulp(s) * s * phi
        # and within 4 ulps of it, the head moves by up to 4 ulp(s) |R'(s)|
        steep = 4.0 * math.ulp(s) * abs(2.0 * s / 3.0 * (1.0 - phi))
        assert abs(head(dist, s) - r) <= 1e-12 * max(1.0, abs(r)) + steep
