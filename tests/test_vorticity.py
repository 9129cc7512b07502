import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_

from strategies import dist_specs
from vorwaves import bernoulli
from vorwaves.errors import AmbiguousClassificationError, ConfigError, DomainError
from vorwaves.vorticity import VorticityDistribution as V, _horner


def test_constant_evaluation(w_two):
    tau = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(w_two.omega(tau), np.full(7, 2.0))
    np.testing.assert_allclose(w_two.Omega(tau), 2.0 * tau, rtol=1e-15)
    assert w_two.omega(0.3) == 2.0
    assert isinstance(w_two.omega(0.3), float)


def test_polynomial_evaluation():
    dist = V.polynomial([1.0, -2.0, 3.0])  # 1 - 2 tau + 3 tau^2
    tau = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(dist.omega(tau), 1.0 - 2.0 * tau + 3.0 * tau ** 2)
    np.testing.assert_allclose(dist.Omega(tau), tau - tau ** 2 + tau ** 3,
                               rtol=1e-15)
    np.testing.assert_allclose(dist.omega_prime(tau), -2.0 + 6.0 * tau)
    assert dist.Omega(0.0) == 0.0


def test_table_evaluation():
    dist = V.from_table([(0.0, 1.0), (0.5, 0.0), (1.0, 2.0)])
    np.testing.assert_allclose(dist.omega(0.25), 0.5)
    np.testing.assert_allclose(dist.omega(0.75), 1.0)
    # exact trapezoid antiderivative at and between breakpoints
    np.testing.assert_allclose(dist.Omega(0.5), 0.25)
    np.testing.assert_allclose(dist.Omega(1.0), 0.25 + 0.5)
    np.testing.assert_allclose(dist.Omega(0.25), 0.25 * 0.75)
    assert dist.omega_prime(0.25) == -2.0
    assert dist.omega_prime(0.75) == 4.0


def test_domain_rejection(w_two):
    with pytest.raises(DomainError):
        w_two.omega(1.5)
    with pytest.raises(DomainError):
        w_two.Omega(np.array([0.2, -0.3]))


def test_construction_errors():
    with pytest.raises(ConfigError):
        V("constant", coefficients=(1.0, 2.0))
    with pytest.raises(ConfigError):
        V("poly", coefficients=())
    with pytest.raises(ConfigError):
        V.from_table([(0.0, 1.0)])
    with pytest.raises(ConfigError):
        V.from_table([(0.0, 1.0), (0.4, 2.0)])  # does not span [0, 1]
    with pytest.raises(ConfigError):
        V.from_table([(0.0, 1.0), (0.0, 2.0), (1.0, 0.0)])
    with pytest.raises(ConfigError):
        V.parse("table 0:1 nan:2 1:3")  # NaN passed the ordering check
    with pytest.raises(ConfigError):
        V("gaussian")


@pytest.mark.parametrize("make", [
    lambda: V.polynomial(["x"]),
    lambda: V.from_table([(0, "a"), (1, 2)]),
    lambda: V.from_table([(0, 1, 2), (1, 2, 3)]),
    lambda: V("constant", coefficients=5.0),
], ids=["word-coefficient", "word-value", "triple-nodes", "bare-number"])
def test_malformed_input_is_a_config_error(make):
    # a bare ValueError or TypeError used to escape the package's errors
    with pytest.raises(ConfigError):
        make()


def test_input_from_any_iterable():
    # the coefficients are read once: a generator used to be spent by the
    # emptiness check, leaving omega = 0 with no rows to evaluate; a numpy
    # array of nodes used to raise on its truth value
    want = V.polynomial((1.0, -2.0, 3.0))
    for coefficients in ((c for c in (1.0, -2.0, 3.0)), np.array([1.0, -2.0, 3.0])):
        dist = V("poly", coefficients=coefficients)
        assert dist == want
        assert dist.omega(0.5) == want.omega(0.5) == 0.75
        assert dist.classify() == want.classify()
    with pytest.raises(ConfigError):
        V("poly", coefficients=iter(()))
    nodes = [(0.0, 1.0), (0.5, 0.0), (1.0, 2.0)]
    assert V("table", nodes=np.array(nodes)) == V.from_table(nodes)


def test_parse_round_trip():
    for text, kind in (("constant 2", "constant"),
                       ("poly -3 6", "poly"),
                       ("table 0:1 0.5:0 1:2", "table")):
        dist = V.parse(text)
        assert dist.kind == kind
    assert V.parse("constant 2") == V.constant(2.0)
    assert V.parse("poly -3 6") == V.polynomial([-3.0, 6.0])
    with pytest.raises(ConfigError):
        V.parse("")
    with pytest.raises(ConfigError):
        V.parse("constant one")
    with pytest.raises(ConfigError):
        V.parse("table 0,1 1,2")


@pytest.mark.parametrize("spec", ["constant 2", "poly -3 6 0.5", "table 0:1 0.5:0 1:2"])
def test_repr_round_trips_through_eval(spec):
    dist = V.parse(spec)
    again = eval(repr(dist), {"VorticityDistribution": V})
    assert again == dist and repr(again) == repr(dist)


def test_near_tie_that_changes_the_verdict_is_ambiguous():
    # Omega(1) = -1e-13 / 3 is within the tie margin of the maximum 0 at tau
    # = 0: alone at 0 the maximum is "ii", tied with 1 it would be "iii"
    with pytest.raises(AmbiguousClassificationError, match="near-tie at tau=1.0"):
        V.parse("poly -1 2 -1e-13").classify()


def test_near_tie_beyond_the_margin_classifies_cleanly():
    # Omega(1) = -5e-12 lies 5 tie margins below the maximum 0 at tau = 0:
    # no near-tie, so the verdict "ii" stands though a tie with tau = 1
    # would give "iii"
    cls = V.parse("poly -1 2 -1.5e-11").classify()
    assert cls.condition == "ii" and cls.maximizers == (0.0,)
    assert cls.omega_at_1 > 0.0


def test_equality_and_hash():
    assert V.constant(2.0) == V.constant(2.0)
    assert hash(V.constant(2.0)) == hash(V.constant(2.0))
    assert V.constant(2.0) != V.constant(-2.0)
    assert V.polynomial([2.0]) != V.constant(2.0)  # different kinds


def test_classification_conditions(w_zero, w_two, w_minus_two, w_tilted):
    assert w_zero.classify().condition == "i"
    assert not w_zero.classify().d0_finite

    c2 = w_two.classify()
    assert c2.condition == "iii"
    assert c2.maximizers == (1.0,)
    assert c2.max_Omega == 2.0
    assert c2.s0 == 2.0
    assert c2.d0_finite

    cm = w_minus_two.classify()
    assert cm.condition == "ii"
    assert cm.maximizers == (0.0,)
    assert cm.max_Omega == 0.0
    assert cm.s0 == 0.0

    ct = w_tilted.classify()
    assert ct.condition == "iii"
    assert set(ct.maximizers) == {0.0, 1.0}
    assert ct.max_Omega == 0.0


def test_interior_maximum_is_condition_i():
    # omega = 1 - 2 tau: Omega = tau - tau^2 peaks at tau = 1/2
    dist = V.polynomial([1.0, -2.0])
    cls = dist.classify()
    assert cls.condition == "i"
    assert any(0.0 < m < 1.0 for m in cls.maximizers)
    np.testing.assert_allclose(cls.max_Omega, 0.25, rtol=1e-12)
    np.testing.assert_allclose(cls.s0, np.sqrt(0.5), rtol=1e-12)


def test_table_surface_value_is_exact():
    # omega(1) = 0 is table data, so the surface maximum is degenerate:
    # class "i" with a divergent d0.  Evaluated from the start of the last
    # segment, omega(1) came out 2.2e-16 and the class "iii".
    dist = V.parse("table 0:2.164 0.3:1.419 1:0")
    assert dist.omega(1.0) == 0.0
    cls = dist.classify()
    assert (cls.condition, cls.maximizers, cls.d0_finite) == ("i", (1.0,), False)


@pytest.mark.parametrize("spec", ["poly 0.1 0.2 -0.3", "poly 0.3 -0.1 -0.2"])
def test_endpoint_omega_within_rounding_is_degenerate(spec):
    # omega(1) = 0 in decimal rounds to 2.8e-17 and -5.6e-17 in binary; the
    # first was class "iii", and analyze then failed at the zero-margin depth
    cls = V.parse(spec).classify()
    assert cls.maximizers == (1.0,) and abs(cls.omega_at_1) < 1e-16
    assert (cls.condition, cls.d0_finite) == ("i", False)
    assert math.isfinite(bernoulli.analyze(V.parse(spec)).s_c)


@pytest.mark.parametrize("spec, condition, note", [
    ("constant -2", "ii", "maximum of Omega only at tau=0 with omega(0) < 0; "
                          "the margin vanishes linearly at the bottom"),
    ("constant 2", "iii", "maximum of Omega only at tau=1 with omega(1) > 0; "
                          "the margin vanishes linearly at the surface"),
    ("poly -3 6", "iii", "maximum of Omega tied between tau=0 and tau=1 with "
                         "omega(0) < 0 and omega(1) > 0"),
    ("poly 1 -2", "i", "degenerate or interior maximum: interior maximizer(s) (0.5,)"),
    ("poly 0.1 0.2 -0.3", "i", "degenerate or interior maximum: maximum at tau=1 but "
                               "omega(1) <= 0 to rounding"),
])
def test_classification_note_of_each_branch(spec, condition, note):
    # the note is written where the condition is decided, one per branch
    cls = V.parse(spec).classify()
    assert (cls.condition, cls.note) == (condition, note)


def test_scalar_shorthands(w_two):
    assert w_two.omega(0.5) == 2.0
    assert w_two.Omega(0.5) == 1.0
    assert w_two.classify().s0 == 2.0


def test_surface_gap_matches_direct(w_two, w_tilted):
    """Omega(1) - Omega(1 - delta) rebuilt from the surface, against the
    straightforward difference where that difference still has digits."""
    table = V.from_table([(0.0, -1.0), (0.25, 3.0), (0.6, 0.5), (1.0, 2.0)])
    for dist in (w_two, w_tilted, table):
        for delta in (0.5, 0.1, 1e-3, 1e-6):
            direct = dist.Omega(1.0) - dist.Omega(1.0 - delta)
            gap = _horner(*dist._gap_segments(1.0, -1.0), delta)
            np.testing.assert_allclose(gap, direct, rtol=1e-9, atol=1e-15)


def test_surface_gap_no_cancellation(w_two):
    # near the surface the direct difference dies of cancellation; the
    # rebuilt gap keeps its leading term omega(1) * delta
    delta = 1e-18
    assert w_two.Omega(1.0) - w_two.Omega(1.0 - delta) == 0.0
    np.testing.assert_allclose(_horner(*w_two._gap_segments(1.0, -1.0), delta),
                               2.0 * delta, rtol=1e-12)
    assert _horner(*w_two._gap_segments(1.0, -1.0), 0.0) == 0.0


@pytest.mark.parametrize("spec", [
    "poly 1.777 0.051 -2.537",
    "table 0.0:1.14 0.212:-1.012 0.407:2.0 0.501:-0.466 1.0:-1.531",
])
def test_gap_about_interior_peak(spec):
    """The gap about an interior maximizer, on both sides, against the
    difference of Omega in 40-digit arithmetic about the exact root of omega
    (the gap takes the maximizer as that root)."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    dist = V.parse(spec)
    (m,) = [t for t in dist.classify().maximizers if 0.0 < t < 1.0]
    if dist.kind == "poly":
        def Omega(t):
            return mp.fsum(mp.mpf(c) * t ** (k + 1) / (k + 1)
                           for k, c in enumerate(dist._coeffs))
        root = mp.findroot(lambda t: mp.diff(Omega, t), mp.mpf(m))
    else:
        pairs = [(mp.mpf(t), mp.mpf(v)) for t, v in dist._nodes]

        def Omega(t):
            total = mp.mpf(0)
            for (t0, v0), (t1, v1) in zip(pairs, pairs[1:]):
                b = min(t, t1)
                if b > t0:
                    total += (b - t0) * (2 * v0 + (v1 - v0) * (b - t0) / (t1 - t0)) / 2
            return total
        (root,) = [t0 - v0 * (t1 - t0) / (v1 - v0)
                   for (t0, v0), (t1, v1) in zip(pairs, pairs[1:])
                   if v0 > 0 > v1 and t0 <= m <= t1]
    for e in (1.0, -1.0):
        for x in (1e-12, 1e-8, 1e-4, 0.1):
            want = float(Omega(root) - Omega(root + e * mp.mpf(x)))
            assert abs(_horner(*dist._gap_segments(m, e), x) - want) <= 1e-12 * want


def _mp_record(dist, mp):
    """omega, Omega, omega' and the root of omega near ``t``, in mpmath,
    straight from the input record (coefficients or table nodes)."""
    if dist._nodes is None:
        c = [mp.mpf(x) for x in dist._coeffs]

        def omega(t):
            return mp.fsum(ck * t ** k for k, ck in enumerate(c))

        def Omega(t):
            return mp.fsum(ck * t ** (k + 1) / (k + 1) for k, ck in enumerate(c))

        def omega_prime(t):
            return mp.fsum(k * ck * t ** (k - 1) for k, ck in enumerate(c) if k)

        def root(t):
            return mp.findroot(omega, mp.mpf(t))
        return omega, Omega, omega_prime, root

    pairs = [(mp.mpf(t), mp.mpf(v)) for t, v in dist._nodes]
    segs = list(zip(pairs, pairs[1:]))

    def segment(t):  # the segment that starts at a breakpoint owns it
        return [s for s in segs if s[0][0] <= t][-1] if t < 1 else segs[-1]

    def omega(t):
        (t0, v0), (t1, v1) = segment(t)
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def Omega(t):
        total = mp.mpf(0)
        for (t0, v0), (t1, v1) in segs:
            b = min(t, t1)
            if b > t0:
                total += (b - t0) * (2 * v0 + (v1 - v0) * (b - t0) / (t1 - t0)) / 2
        return total

    def omega_prime(t):
        (t0, v0), (t1, v1) = segment(t)
        return (v1 - v0) / (t1 - t0)

    def root(t):  # the sign change of omega nearest t
        roots = [t0 - v0 * (t1 - t0) / (v1 - v0)
                 for (t0, v0), (t1, v1) in segs if v0 * v1 <= 0 and v0 != v1]
        return min(roots, key=lambda r: abs(r - t))
    return omega, Omega, omega_prime, root


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=dist_specs)
@example(spec="poly 1.777 0.051 -2.537")
@example(spec="table 0.0:1.14 0.212:-1.012 0.407:2.0 0.501:-0.466 1.0:-1.531")
@example(spec="table 0.0:0.0 0.03:1.969 1.0:0.0")  # omega(1) = 0 at the peak
@example(spec="table 0.0:0.0 0.01:1.953 0.04:0.0 1.0:0.0")  # root at a node
def test_one_form_against_mpmath(spec):
    """omega, Omega and omega' at fixed points, and the gap about every
    maximizer on both sides, against the input record in 60-digit
    arithmetic (the reference gap is a difference of Omega values of order
    1 and can be as small as 1e-33).  About an interior maximizer the gap
    is taken about the exact root of omega, as the code takes the
    maximizer to be one."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 60
    dist = V.parse(spec)
    omega, Omega, omega_prime, root = _mp_record(dist, mp)
    tau = [0.0, 0.013, 0.1, 0.25, 1 / 3, 0.5, 0.618, 0.75, 0.9, 0.987, 1.0]
    for got, fn in ((dist.omega, omega), (dist.Omega, Omega),
                    (dist.omega_prime, omega_prime)):
        want = np.array([float(fn(mp.mpf(t))) for t in tau])
        np.testing.assert_allclose(got(np.array(tau)), want, rtol=1e-13,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))
    try:
        maximizers = dist.classify().maximizers
    except AmbiguousClassificationError:
        assume(False)
    for m in maximizers:
        centre = mp.mpf(m)
        if 0.0 < m < 1.0 and omega(centre) != 0:
            centre = root(m)
        for e in (1.0, -1.0):
            for x in (1e-12, 1e-8, 1e-4, 0.1):
                if not 0.0 <= m + e * x <= 1.0:
                    continue
                want = float(Omega(centre) - Omega(centre + e * mp.mpf(x)))
                assert abs(_horner(*dist._gap_segments(m, e), x) - want) <= 1e-12 * abs(want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=dist_specs, u=st_.lists(st_.floats(0.01, 0.99), min_size=3, max_size=3))
@example(spec="poly -3 6", u=[0.01, 0.5, 0.99])  # maximizers at 0 and 1
@example(spec="constant 0", u=[0.01, 0.5, 0.99])  # Omega flat at its maximum
@example(spec="table 0.0:2.0 0.5:0.0 1.0:0.0", u=[0.01, 0.5, 0.99])
def test_each_part_reads_one_frame(spec, u):
    """Inside each part of the partition every point has the part's
    maximizer as its nearest and lies on the part's side of it, and the gap
    there is the Horner rule of the gap segments about it, bit for bit."""
    dist = V.parse(spec)
    try:
        peaks = np.array(dist.classify().maximizers)
    except AmbiguousClassificationError:
        assume(False)
    starts, tags, rows, _ = dist._partition
    ends = np.append(starts[1:], 1.0)
    p = starts[:, None] + (ends - starts)[:, None] * np.array(u)
    nearest = peaks[np.argmin(np.abs(p[..., None] - peaks), axis=-1)]
    for i, j in enumerate(tags.tolist()):
        m, e = peaks[j // 2], 1.0 if j % 2 else -1.0
        assert (rows[i, 0], rows[i, 1]) == (e, m)
        assert np.all(nearest[i] == m) and np.all(e * (p[i] - m) > 0.0)
        want = np.maximum(_horner(*dist._gap_segments(m, e), e * (p[i] - m)), 0.0)
        assert np.array_equal(dist._gap(p[i]), want)


def _divmod(a, b):
    """Quotient and remainder of the polynomials ``a / b``, as lists of exact
    coefficients, highest degree first (``b[0] != 0``)."""
    a, q = list(a), []
    while len(a) >= len(b):
        q.append(a[0] / b[0])
        a = [x - q[-1] * y for x, y in zip(a, b + [0] * len(a))][1:]
    while a and a[0] == 0:
        a.pop(0)
    return q, a


def _mp_peaks(dist, mp):
    """The points where Omega can peak, in mpmath straight from the input
    record: the ends, a table's nodes and the real roots of omega on [0, 1].
    A polynomial's roots are ``mp.polyroots`` of its square-free part ``p /
    gcd(p, p')``, found in exact fractions, on which the iteration converges."""
    if dist._nodes is not None:
        pairs = [(mp.mpf(t), mp.mpf(v)) for t, v in dist._nodes]
        return [t for t, _ in pairs] + [t0 - v0 * (t1 - t0) / (v1 - v0)
                                        for (t0, v0), (t1, v1) in zip(pairs, pairs[1:])
                                        if v0 * v1 < 0]
    p = [Fraction(c) for c in reversed(dist._coeffs)]
    while p and p[0] == 0:
        p.pop(0)
    peaks = [mp.zero, mp.one]
    if len(p) < 2:
        return peaks
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while r:
        g, r = r, _divmod(g, r)[1]
    part = [mp.mpf(c.numerator) / c.denominator for c in _divmod(p, g)[0]]
    return peaks + [z.real for z in mp.polyroots(part, maxsteps=200, extraprec=100)
                    if abs(mp.im(z)) < mp.mpf(10) ** -40 and 0 <= z.real <= 1]


MULTIPLE_ROOTS = [
    "poly 1 -3 3 -1",  # (1 - tau)^3
    "poly 0.125 -0.75 1.5 -1",  # (1/2 - tau)^3
    "poly 0.03125 -0.3125 1.25 -2.5 2.5 -1",  # (1/2 - tau)^5
    "poly -0.0625 0.5 -1.5 2 -1",  # -(tau - 1/2)^4
    "table 0.0:2.0 0.5:0.0 1.0:0.0",  # Omega flat at its maximum
]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=st_.one_of(dist_specs, st_.sampled_from(MULTIPLE_ROOTS)))
@example(spec="poly 0 0 0 -4 2")  # a triple root of omega at the maximizer 0
@example(spec="poly 1.777 0.051 -2.537")
def test_maximizers_against_a_dense_grid_and_mpmath(spec):
    """The maximizers and near-ties that the algebra finds, against Omega on
    a 10,001-point grid and against the roots of omega in 60-digit arithmetic.
    No grid value beats the maximum by more than the tie margin, and every
    run of grid values within it lies beside a maximizer or near-tie.  Every
    maximizer and near-tie is, to 1e-9, a point where the exact Omega is
    within twice that margin of its maximum, and every point within half of
    it is a maximizer or near-tie."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 60
    dist = V.parse(spec)
    try:
        dist.classify()
    except AmbiguousClassificationError:
        assume(False)
    big, exact, near = dist._extrema[:3]
    found, tol = exact + near, 1e-12 * max(1.0, abs(big))
    grid = np.linspace(0.0, 1.0, 10001)
    values = dist.Omega(grid)
    assert values.max() - big <= tol
    close = np.flatnonzero(big - values <= tol)
    for run in np.split(close, np.flatnonzero(np.diff(close) > 1) + 1) if close.size else []:
        assert any(grid[run[0]] - 1e-4 <= m <= grid[run[-1]] + 1e-4 for m in found)
    _, Omega, _, _ = _mp_record(dist, mp)
    peaks = _mp_peaks(dist, mp)
    exact_values = [Omega(t) for t in peaks]
    top = max(exact_values)
    assert abs(big - float(top)) <= 1e-13 * max(1.0, abs(big))
    ties = [float(t) for t, v in zip(peaks, exact_values) if top - v <= 2.0 * tol]
    for m in found:
        assert min(abs(m - t) for t in ties) <= 1e-9, (m, ties)
    for t, v in zip(peaks, exact_values):
        if top - v <= 0.5 * tol:
            assert min(abs(float(t) - m) for m in found) <= 1e-9, (float(t), found)


@pytest.mark.parametrize("spec, condition, maximizers, orders", [
    ("poly 1 -3 3 -1", "i", (1.0,), (4,)),
    ("poly 0.125 -0.75 1.5 -1", "i", (0.5,), (4,)),
    ("poly 0.03125 -0.3125 1.25 -2.5 2.5 -1", "i", (0.5,), (6,)),
    ("poly -0.0625 0.5 -1.5 2 -1", "ii", (0.0,), (1,)),
    ("table 0.0:2.0 0.5:0.0 1.0:0.0", "i", (0.5, 1.0), (2, None)),
])
def test_multiple_roots_are_found_with_their_order(spec, condition, maximizers, orders):
    """A ``k``-fold root of omega leaves the companion matrix as a cluster
    of radius about ``eps^(1/k)``; the classification takes the cluster as one
    root, to within 2 ulps, and the gap about it starts at order ``k + 1`` on
    both sides (``None``: the gap is 0 on that side's first row, as Omega is
    flat there).  One real member of the cluster had been taken: ``(1 -
    tau)^3`` got the interior maximizer 0.9999918153360454, and ``(1/2 -
    tau)^5`` 0.4993861493201187 with its gap read as order 2."""
    dist = V.parse(spec)
    cls = dist.classify()
    assert cls.condition == condition and len(cls.maximizers) == len(maximizers)
    for got, want in zip(cls.maximizers, maximizers):
        assert abs(got - want) <= 2.0 * math.ulp(want)
    terms = dist._partition[3]
    for i, order in enumerate(orders):
        below, above = terms[2 * i], terms[2 * i + 1]
        if order is None:
            assert below == () or above == ()
        else:
            assert below[0][0] == order and (above == () or above[0][0] == order)
