"""Bernoulli head of stream solutions and its critical values.

For a stream solution with bottom slope ``s`` the head is

    R(s) = [ s^2 - 2 Omega(1) + 2 d(s) ] / 3 ,

strictly convex along the admissible range with a single interior minimum
``r_c = R(s_c)``.  Since ``dR/ds = (2 s / 3)(1 - Phi(1; s))`` and Phi is
strictly decreasing in ``s``, the minimizer is the one root of
``Phi(1; s) = 1``; ``R(s)`` itself is ``stream.solve_stream(dist, s).r``.

The second distinguished value is the zero-margin head ``r0 = R(s0)``
with depth ``d0 = d(s0)``, finite exactly when the classification is
"ii" or "iii"; :func:`analyze` finds both.  For ``r`` between ``r_c`` and
``r0`` two conjugate streams share the head (:func:`conjugates`): the subcritical
one (``s+ < s_c``, deeper) and the supercritical one (``s- > s_c``, shallower).

Every slope here starts from one proxy of ``d`` per distribution: a
Chebyshev interpolant on two pieces (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013, ch. 8 and 18; Boyd, "Finding the zeros
of a univariate equation: proxy rootfinders, Chebyshev interpolation, and
the companion matrix", SIAM Review 55, 2013).  Up to ``s_m = s0 + max(1, s0)``
its variable is the margin ``sigma = sqrt(s^2 - s0^2)`` under "ii"/"iii",
where ``d`` is smooth down to ``sigma = 0``, and ``log sigma`` under "i",
where ``d`` grows like ``-log sigma`` or ``1/sigma``, down to the edge of
the guard band.  Above ``s_m`` it is ``w = s_m / s``, and ``d = 0`` at
``w = 0``, so every head is covered.  :func:`analyze` samples ``d`` at the
Lobatto points of both pieces in one quadrature call.  Each slope then
starts at a root of the proxy, found by :func:`numerics.find_root` between
two samples whose exact values differ in sign, and Newton steps on exact
quadrature values polish it.  Each exact value narrows that bracket, a
step that would leave it bisects, and a slope is accepted only inside it:
the proxy is a start, never the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import numerics, stream
from .errors import ConvergenceError, DomainError, NoStreamError
from .vorticity import VorticityDistribution

__all__ = ["ConjugatePair", "BernoulliAnalysis", "conjugates", "analyze"]

# distributions kept by :func:`analyze` and :func:`_proxy`, pairs by
# :func:`conjugates`: a sweep revisits only its last few, and the bound
# keeps memory from growing
_PAIRS_CACHED = 64

# Chebyshev-Lobatto points per piece of the proxy, and the cosine sum that
# turns values there (from u = 1 down to u = -1) into Chebyshev coefficients
_POINTS = 24
_U = np.cos(np.pi * np.arange(_POINTS) / (_POINTS - 1))
_FIT = np.cos(np.outer(np.arange(_POINTS), np.pi * np.arange(_POINTS) / (_POINTS - 1)))
_FIT[:, [0, -1]] *= 0.5
_FIT[[0, -1]] *= 0.5
_FIT *= 2.0 / (_POINTS - 1)

# most Newton steps one root search may take
_MAX_STEPS = 100


@dataclass(frozen=True)
class ConjugatePair:
    """Streams sharing the head ``r``; regime tells which branches exist."""

    r: float
    regime: str  # "subcritical-pair" | "only-supercritical" | "critical"
    s_plus: Optional[float]
    d_plus: Optional[float]
    s_minus: Optional[float]
    d_minus: Optional[float]


@dataclass(frozen=True)
class BernoulliAnalysis:
    """The head landscape of one vorticity distribution: its classification
    ``condition`` and threshold slope ``s0``; the critical head ``r_c = R(s_c)``
    at depth ``d_c``, with ``phi_residual = Phi(1; s_c) - 1``; and the zero-margin
    depth and head ``d0 = d(s0)`` and ``r0 = R(s0)``, ``inf`` and None under "i"."""

    condition: str
    s0: float
    s_c: float
    r_c: float
    d_c: float
    phi_residual: float
    d0: float
    r0: Optional[float]


def _guard_edge(s0: float) -> float:
    """Least slope probed under classification "i": twice the guard band
    of the stream quadrature above ``s0``, where ``d`` is still reliable."""
    return s0 + 2.0 * stream._GUARD * max(1.0, s0)


class _Piece:
    """``d`` on one piece of the proxy, between the slopes ``s_lo < s_hi``:
    a Chebyshev series in the piece's variable ``x`` on ``[lo, hi]``,
    ``kind`` "sigma", "log" (``log sigma``) or "w" (``s_m / s``)."""

    def __init__(self, kind: str, s0: float, s_m: float, s_lo: float, s_hi: float):
        self.kind, self.s0, self.s_m = kind, s0, s_m
        self.lo, self.hi = lo, hi = sorted((self.at(s_lo), self.at(s_hi)))
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.nodes = (self.mid + self.half * _U).tolist()  # hi first
        self.nodes[0], self.nodes[-1] = hi, lo

    def slope(self, x: float) -> float:
        if self.kind == "w":
            return self.s_m / x
        sigma = math.exp(x) if self.kind == "log" else x
        return math.sqrt(self.s0 * self.s0 + sigma * sigma)

    def at(self, s: float) -> float:
        """The piece's variable at the slope ``s``."""
        if self.kind == "w":
            return self.s_m / s
        sigma = math.sqrt((s - self.s0) * (s + self.s0))
        return math.log(sigma) if self.kind == "log" else sigma

    def sigma2(self, x: float) -> float:
        """``s^2 - s0^2`` at ``x`` on the near piece."""
        return math.exp(2.0 * x) if self.kind == "log" else x * x

    def fit(self, values) -> None:
        """The coefficients of the interpolant of ``values`` at the nodes."""
        self.coef = (_FIT @ np.asarray(values)).tolist()

    def derivative(self) -> list:
        """The coefficients of the series' derivative in ``x``."""
        c = self.coef
        dc = [0.0] * (len(c) + 1)
        for k in range(len(c) - 1, 0, -1):
            dc[k - 1] = dc[k + 1] + 2.0 * k * c[k] / self.half
        dc[0] *= 0.5
        return dc[:len(c) - 1]

    def __call__(self, x: float, coef=None) -> float:
        """The series (or the one given) at ``x``, by Clenshaw's recurrence."""
        c = self.coef if coef is None else coef
        u = (x - self.mid) / self.half
        b1 = b2 = 0.0
        for ck in c[:0:-1]:
            b1, b2 = 2.0 * u * b1 - b2 + ck, b1
        return u * b1 - b2 + c[0]


class _Proxy:
    """The proxy of ``d`` for one distribution, and the exact samples it
    was fitted to: ``slopes`` in increasing order, their ``depths`` and heads.

    One :func:`stream._totals` call takes every sample: the Lobatto points of
    the near piece, from ``s0`` (or the guard-band edge under "i") to
    ``s_m = s0 + max(1, s0)``, and those of the far piece above it, where
    ``w = 0`` stands for ``s = inf`` and ``d = 0`` there.
    """

    def __init__(self, dist: VorticityDistribution):
        cls = dist.classify()
        s0 = cls.s0
        s_m = s0 + max(1.0, s0)
        s_lo = s0 if cls.d0_finite else _guard_edge(s0)
        near = _Piece("sigma" if cls.d0_finite else "log", s0, s_m, s_lo, s_m)
        far = _Piece("w", s0, s_m, s_m, math.inf)
        slopes = [s_m, *map(near.slope, near.nodes[1:-1]), s_lo,
                  *map(far.slope, far.nodes[1:-1])]
        depths = stream._totals(dist, [(s, -0.5) for s in slopes])
        n = len(near.nodes)
        near.fit(depths[:n])
        far.fit([depths[0], *depths[n:], 0.0])
        self.near, self.far, self.s_m = near, far, s_m
        # twice the gap of the surface, max Omega - Omega(1), as in the head
        self.surface = stream.surface_slope_squared(dist, s_m) - stream._margin(dist, s_m)[0]
        self.slopes, self.depths = map(list, zip(*sorted(zip(slopes, depths))))
        self.heads = [stream._head(dist, s, d) for s, d in zip(self.slopes, self.depths)]

    def critical(self) -> tuple:
        """``(lo, hi, start)``: the neighbours of the sample of least head,
        between which the strictly convex ``R`` is least, and the proxy's
        root of ``R'`` there (else that sample) to start from.

        ``R'`` has the sign of ``sigma + dd/dsigma`` in ``sigma``, and of
        ``sigma^2 + dd/dx`` in ``x = log sigma``, since ``dd/ds = -s Phi``.
        """
        slopes, heads, p = self.slopes, self.heads, self.near
        j = min(range(len(heads)), key=heads.__getitem__)
        lo, hi = slopes[max(j - 1, 0)], slopes[j + 1]
        dc = p.derivative()

        def g(x):
            return (p.sigma2(x) if p.kind == "log" else x) + p(x, dc)

        a, b = p.at(lo), p.at(min(hi, self.s_m))
        start = slopes[j] if j else 0.5 * (lo + hi)
        if a < b and (g(a) > 0.0) != (g(b) > 0.0):
            root = p.slope(numerics.find_root(g, a, b, 1e-15 * p.half))
            if lo < root < hi:
                start = root
        return lo, hi, start

    def conjugate(self, r: float, lo: float, hi: float) -> float:
        """The proxy's root of ``R - r`` between the samples ``lo < hi``, or
        the middle of the two if it has none there."""
        p = self.near if lo < self.s_m else self.far
        if p is self.near:
            def f(x):
                return (p.sigma2(x) + self.surface + 2.0 * p(x)) / 3.0 - r
        else:  # w^2 (R - r), finite at w = 0
            def f(x):
                return (self.s_m ** 2 - (x * p.s0) ** 2
                        + x * x * (self.surface + 2.0 * p(x) - 3.0 * r)) / 3.0
        a, b = sorted((p.at(lo), p.at(hi) if hi < math.inf else 0.0))
        if not a < b or (f(a) > 0.0) == (f(b) > 0.0):
            return 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        return p.slope(numerics.find_root(f, a, b, 1e-15 * p.half))


class _Newton:
    """Newton steps toward the root of a monotone ``f`` inside ``[lo, hi]``.

    Its caller takes ``f`` and ``f'`` at ``x`` and passes them to :meth:`send`;
    ``falling`` says on which side of the root a value puts its point, so
    every value narrows the bracket.  A step that would leave the bracket,
    or is more than half the step before last, bisects it instead (as
    ``rtsafe`` does: Press et al., *Numerical Recipes*, 3rd ed., sec. 9.4);
    beyond an open end (``hi = inf``) the slope doubles.  The search ends at
    ``x`` when its Newton step, kept in ``step``, is within ``tol`` and
    ``|f(x)|`` within ``ftol``, or the step is within 4 ulps of ``x`` (where
    ``f`` is too steep for a closer slope to exist); or, once the bracket is
    narrower than ``tol``, at its end of smaller ``|f|``.  ``f_lo``/``f_hi``
    are the values at the ends where known, else infinite of the right sign;
    an end where ``f`` is exactly 0 is the root, with no step taken.
    """

    def __init__(self, lo, hi, f_lo, f_hi, x, falling, tol, ftol=math.inf):
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.x, self.falling, self.tol, self.ftol = x, falling, tol, ftol
        self.root = lo if f_lo == 0.0 else hi if f_hi == 0.0 else None
        self.step, self._steps = 0.0, [math.inf, math.inf]

    def send(self, fx: float, slope: float) -> None:
        numerics.tally["newton_steps"] += 1
        x = self.x
        if (fx > 0.0) == self.falling:
            self.lo, self.f_lo = x, fx
        else:
            self.hi, self.f_hi = x, fx
        step = -fx / slope if fx else 0.0
        if abs(step) <= self.tol and abs(fx) <= self.ftol or abs(step) <= 4.0 * math.ulp(x):
            self.root, self.step = x, step
            return
        if self.hi - self.lo <= self.tol:
            self.root = self.lo if abs(self.f_lo) <= abs(self.f_hi) else self.hi
            return
        nxt = x + step
        if self.hi == math.inf:
            if not nxt > self.lo:
                nxt = 2.0 * x
        elif not self.lo < nxt < self.hi or abs(step) > 0.5 * self._steps[0]:
            nxt = self.lo + 0.5 * (self.hi - self.lo)
        self._steps = [self._steps[1], abs(nxt - x)]
        self.x = nxt


@lru_cache(maxsize=_PAIRS_CACHED)
def _proxy(dist: VorticityDistribution) -> _Proxy:
    """The proxy of ``d`` for ``dist``, kept for :func:`analyze` and :func:`conjugates`."""
    return _Proxy(dist)


def _solve(searches: list, values) -> None:
    """Run ``searches`` side by side: each round takes the values at every
    open search's point from one call of ``values``."""
    for _ in range(_MAX_STEPS):
        open_ = [x for x in searches if x.root is None]
        if not open_:
            return
        for search, (fx, slope) in zip(open_, values([x.x for x in open_])):
            search.send(fx, slope)
    raise ConvergenceError(
        f"Newton steps did not settle in {_MAX_STEPS} rounds; brackets "
        + ", ".join(f"[{x.lo!r}, {x.hi!r}]" for x in searches if x.root is None))


@lru_cache(maxsize=_PAIRS_CACHED)
def analyze(dist: VorticityDistribution) -> BernoulliAnalysis:
    """The head landscape: classification, critical head and zero-margin head.

    Builds the proxy of ``d`` (one quadrature call for all its samples;
    ``d0`` is its sample at ``s0`` under "ii"/"iii").  ``s_c`` is the one
    root of ``Phi(1; s) = 1``, where the strictly convex ``R`` is least: it
    lies between the two neighbours of the sample of least exact head.  The
    proxy's root of ``R'`` there starts Newton steps on ``Phi(1; s) - 1``,
    with ``dPhi/ds = -3 s int_0^1 (s^2 - 2 Omega)^(-5/2)``, each from one
    two-row request, until a step is within ``1e-13 max(1, s0)``.  ``d`` is
    ill conditioned there (``|s d'(s) / d|`` is about 500 on ``constant
    50``), so that last step is taken too, inside the bracket, which leaves
    ``s_c`` at rounding; ``(d, Phi)`` there come from one more request.  The
    last 64 records are kept, and so are the last 64 proxies.
    """
    cls = dist.classify()
    s0 = cls.s0
    proxy = _proxy(dist)
    lo, hi, start = proxy.critical()
    search = _Newton(lo, hi, math.inf, -math.inf, start, True, 1e-13 * max(1.0, s0))

    def g(points):
        rows = stream._totals(dist, [(s, p) for s in points for p in (-1.5, -2.5)])
        return [(phi - 1.0, -3.0 * s * w) for s, phi, w in zip(points, rows[::2], rows[1::2])]

    _solve([search], g)
    s_c = search.root
    if search.lo <= s_c + search.step <= search.hi:
        s_c += search.step
    d_c, phi = stream._totals(dist, [(s_c, -0.5), (s_c, -1.5)])
    d0, r0 = math.inf, None
    if cls.d0_finite:
        d0, r0 = proxy.depths[0], proxy.heads[0]
    return BernoulliAnalysis(
        condition=cls.condition,
        s0=s0,
        s_c=s_c,
        r_c=stream._head(dist, s_c, d_c),
        d_c=d_c,
        phi_residual=phi - 1.0,
        d0=d0,
        r0=r0,
    )


@lru_cache(maxsize=_PAIRS_CACHED)
def conjugates(dist: VorticityDistribution, r: float) -> ConjugatePair:
    """Conjugate stream slopes and depths for the head ``r``.

    Each slope is the root of ``R(s) - r`` on its branch.  The samples of
    the proxy of ``d`` bracket it: the supercritical one
    among ``s_c`` and the samples above it (and ``s = inf``), the
    subcritical one among the samples below ``s_c`` (from ``s0`` when
    ``d0`` is finite, else from the guard-band edge) and ``s_c``.  The
    proxy's root in that bracket starts Newton steps on exact values, with
    ``R' = (2 s / 3)(1 - Phi(1; s))``, until a step is within
    ``1e-13 max(1, s_c)`` and ``|R - r|`` within ``5e-13 max(1, |r|)``, or
    the step is within 4 ulps of the slope.  Both branches run side by side: each round takes
    ``(d, Phi)`` at both points from one quadrature call.  The last 64 pairs
    are cached by ``(dist, r)``: a repeated call returns the same frozen
    pair.  Each depth is the one integrated at its accepted slope.

    Parameters
    ----------
    dist : VorticityDistribution
    r : float
        Bernoulli head; must satisfy ``r >= r_c`` up to tolerance.

    Returns
    -------
    ConjugatePair
        Regime ``"critical"`` collapses both branches onto ``s_c``;
        ``"only-supercritical"`` occurs for ``r >= r0`` under
        classifications "ii"/"iii" where the subcritical branch is cut
        off at the threshold slope.

    Raises
    ------
    DomainError
        If ``r`` is not finite.
    NoStreamError
        If ``r`` falls below the critical head.
    ConvergenceError
        Under classification "i", if the subcritical slope sits inside
        the guard band above ``s0``.
    """
    if not math.isfinite(r):
        raise DomainError(f"head must be finite; got r={r!r}")
    an = analyze(dist)
    if r < an.r_c - 1e-10 * max(1.0, abs(an.r_c)):
        raise NoStreamError(
            f"no stream solutions with head r={r!r}: below the critical "
            f"head r_c={an.r_c!r}")
    if abs(r - an.r_c) < 1e-10 * max(1.0, abs(an.r_c)):
        return ConjugatePair(r=r, regime="critical",
                             s_plus=an.s_c, d_plus=an.d_c,
                             s_minus=an.s_c, d_minus=an.d_c)
    proxy, tol, ftol = _proxy(dist), 1e-13 * max(1.0, an.s_c), 5e-13 * max(1.0, abs(r))
    samples = list(zip(proxy.slopes, [h - r for h in proxy.heads]))

    def search(pairs, falling):
        """The Newton search in the first bracket of ``pairs`` (increasing
        slopes) where ``R - r`` changes sign."""
        k = next(k for k, (_, f) in enumerate(pairs) if (f > 0.0) != falling)
        (lo, f_lo), (hi, f_hi) = pairs[k - 1], pairs[k]
        return _Newton(lo, hi, f_lo, f_hi, proxy.conjugate(r, lo, hi), falling, tol, ftol)

    # supercritical branch: R rises from r_c at s_c to inf at s = inf
    above = [(an.s_c, an.r_c - r), *((s, f) for s, f in samples if s > an.s_c),
             (math.inf, math.inf)]
    searches = [search(above, False)]
    if an.r0 is None or r < an.r0 - 1e-10 * max(1.0, abs(an.r0)):
        below = [*((s, f) for s, f in samples if s < an.s_c), (an.s_c, an.r_c - r)]
        if below[0][1] <= 0.0:
            raise ConvergenceError(
                f"no sign change above s={below[0][0]!r}, the edge of the admissible "
                f"slopes: R - r there is {below[0][1]!r}, so the root sits below the edge")
        searches.append(search(below, True))
    snap = an.s0 + stream._SNAP * max(1.0, an.s0)

    def values(points):
        # Phi is not defined where the margin is zero (s within the snap
        # window of s0 under "ii"/"iii"); R' is -inf there
        rows = iter(stream._totals(dist, [(s, p) for s in points
                                          for p in ((-0.5, -1.5) if s > snap else (-0.5,))]))
        out = []
        for s in points:
            d, phi = next(rows), next(rows) if s > snap else math.inf
            out.append((stream._head(dist, s, d) - r, 2.0 * s / 3.0 * (1.0 - phi)))
        return out

    _solve(searches, values)
    s_minus, *s_plus = [x.root for x in searches]
    d_minus, *d_plus = stream._totals(dist, [(s, -0.5) for s in (s_minus, *s_plus)])
    if not s_plus:
        return ConjugatePair(r=r, regime="only-supercritical",
                             s_plus=None, d_plus=None,
                             s_minus=s_minus, d_minus=d_minus)
    return ConjugatePair(r=r, regime="subcritical-pair",
                         s_plus=s_plus[0], d_plus=d_plus[0],
                         s_minus=s_minus, d_minus=d_minus)
