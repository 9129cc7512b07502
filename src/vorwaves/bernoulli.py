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
where ``d`` is smooth down to ``sigma = 0``, and ``y = -log sigma`` under "i",
where ``d`` grows like ``-log sigma`` or ``1/sigma``, down to a lowest sample
``2e-9 max(1, s0)`` above ``s0``.  Above ``s_m`` it is ``w = s_m / s``, and
``d = 0`` at ``w = 0``.  :func:`analyze` samples ``d`` at the Lobatto points
of both pieces in one quadrature call.  Each search then runs in the
variable ``x`` of the piece that holds its bracket, with ``sigma2 = s^2 -
s0^2`` and ``R'(x) = sigma2'(x) (1 - Phi) / 3``: it starts at the proxy's
root between two samples whose exact values differ in sign (under "i" a
root below the lowest sample lies in the open bracket up to ``y = inf``,
where ``R = inf``), and Newton steps on exact quadrature values polish it.
Both searches are :class:`numerics.Newton`: each value narrows its bracket,
a step that would leave it bisects, and a slope is accepted only inside it.
A point ``x`` is integrated at the margin of its float slope ``s``, so that
``s`` names the stream, or, where one ulp of ``s`` moves the head past half
its tolerance, at ``sigma2(x)`` itself; each answer carries its margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import numerics, stream
from .errors import DomainError, NoStreamError
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

# the proxy's lowest sample under "i", relative to max(1, s0) above s0
_LOWEST = 2e-9

# the least margin at which Phi's integrand sigma2^(-3/2) is finite
_LEAST_MARGIN = np.finfo(float).max ** (-2.0 / 3.0)


@dataclass(frozen=True)
class ConjugatePair:
    """Streams sharing the head ``r``; regime tells which branches exist."""

    r: float
    regime: str  # "subcritical-pair" | "only-supercritical" | "critical"
    s_plus: Optional[float]
    d_plus: Optional[float]
    s_minus: Optional[float]
    d_minus: Optional[float]
    sigma2_plus: Optional[float]  # the margins s^2 - s0^2 that name the streams
    sigma2_minus: Optional[float]


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


class _Piece:
    """``d`` on one piece of the proxy, between the margins ``m_a`` and
    ``m_b``: a Chebyshev series in the piece's variable ``x`` on ``[lo, hi]``,
    ``kind`` "sigma", "log" (``y = -log sigma``) or "w" (``s_m / s``), fitted
    at the ``margins`` of its nodes, each inside named by its float slope."""

    def __init__(self, kind: str, s0: float, s_m: float, m_a: float, m_b: float):
        self.kind, self.s0, self.s_m = kind, s0, s_m
        (lo, m_lo), (hi, m_hi) = sorted((self.at(m), m) for m in (m_a, m_b))
        self.lo, self.hi, self.mid, self.half = lo, hi, 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.nodes = (self.mid + self.half * _U).tolist()  # hi first
        self.nodes[0], self.nodes[-1] = hi, lo
        self.margins = [m_hi, *(stream._named(s0, math.sqrt(s0 * s0 + self.sigma2(x)[0]))
                                for x in self.nodes[1:-1]), m_lo]

    def at(self, sigma2: float) -> float:
        """The piece's variable at the margin ``sigma2`` (``y = inf`` at 0)."""
        if self.kind == "w":
            return self.s_m / math.sqrt(self.s0 * self.s0 + sigma2)
        if self.kind == "log":
            return -0.5 * math.log(sigma2) if sigma2 else math.inf
        return math.sqrt(sigma2)

    def sigma2(self, x: float) -> tuple:
        """The margin at ``x`` and its first two derivatives in ``x``."""
        if self.kind == "w":
            s = self.s_m / x
            q = s * s / x
            return (s - self.s0) * (s + self.s0), -2.0 * q, 6.0 * q / x
        if self.kind == "log":
            m = math.exp(-2.0 * x)
            return m, -2.0 * m, 4.0 * m
        return x * x, 2.0 * x, 2.0

    def fit(self, values) -> None:
        """The coefficients of the interpolant of ``values`` at the nodes,
        and those of its first two derivatives in ``x``."""
        self.coefs = [(_FIT @ np.asarray(values)).tolist()]
        for _ in range(2):
            c = self.coefs[-1]
            dc = [0.0] * (len(c) + 1)
            for k in range(len(c) - 1, 0, -1):
                dc[k - 1] = dc[k + 1] + 2.0 * k * c[k] / self.half
            dc[0] *= 0.5
            self.coefs.append(dc[:len(c) - 1])

    def __call__(self, x: float, order: int = 0) -> float:
        """The series (or its derivative of that order) at ``x``, by
        Clenshaw's recurrence."""
        c = self.coefs[order]
        u = (x - self.mid) / self.half
        b1 = b2 = 0.0
        for ck in c[:0:-1]:
            b1, b2 = 2.0 * u * b1 - b2 + ck, b1
        return u * b1 - b2 + c[0]

    def root(self, f, a: float, b: float, f_a: float, f_b: float) -> Optional[float]:
        """The root in ``x`` of ``f`` between ``a`` and ``b``, where it takes
        the values ``f_a`` and ``f_b``, by Newton steps from their middle, or
        None unless ``a < b`` and the values differ in sign; ``f(x)`` is the
        pair of its value and slope."""
        if not a < b or (f_a > 0.0) == (f_b > 0.0):
            return None
        search = numerics.Newton(a, b, f_a, f_b, 0.5 * (a + b), f_a > 0.0, 1e-15 * self.half)
        numerics.run_newton([search], lambda open_: [f(open_[0].x)])
        return search.root


class _Search(numerics.Newton):
    """Newton steps in the variable ``x`` of ``piece`` between the ends
    ``(x, sigma2, f)`` of a bracket, with the slope tolerance ``tol_s``
    carried to ``x`` at ``start``; ``exact`` is set once a float slope
    cannot name the root."""

    def __init__(self, piece: _Piece, a: tuple, b: tuple, start: float, tol_s: float,
                 ftol: float = math.inf):
        m, dm, _ = piece.sigma2(start)
        tol = 2.0 * math.sqrt(piece.s0 * piece.s0 + m) * tol_s / (abs(dm) or math.inf)
        super().__init__(a[0], b[0], a[2], b[2], start, a[2] > 0.0, tol, ftol)
        self.piece, self.exact = piece, False

    def name(self, x: float) -> tuple:
        """``(sigma2, s)`` at ``x``: the slope ``s = sqrt(s0^2 + sigma2(x))``
        and, until the search is ``exact``, that slope's own margin (but for
        a slope that rounds to ``s0``, which names none), else ``sigma2(x)``."""
        s0, m = self.piece.s0, self.piece.sigma2(x)[0]
        s = math.sqrt(s0 * s0 + m)
        named = stream._named(s0, s)
        return (m if self.exact or not named else named), s


class _Proxy:
    """The proxy of ``d`` for one distribution, and the exact samples it
    was fitted to, from one :func:`stream._totals` call: ``margins`` in
    increasing order, their ``depths`` and heads."""

    def __init__(self, dist: VorticityDistribution):
        cls = dist.classify()
        s0 = cls.s0
        s_m = s0 + max(1.0, s0)
        m_lo = 0.0 if cls.d0_finite else stream._named(s0, s0 + _LOWEST * max(1.0, s0))
        self.m_m = stream._named(s0, s_m)
        near = _Piece("sigma" if cls.d0_finite else "log", s0, s_m, m_lo, self.m_m)
        far = _Piece("w", s0, s_m, self.m_m, math.inf)
        self.margins = sorted({*near.margins, *far.margins[1:-1]})
        self.depths = stream._totals(dist, [(m, -0.5) for m in self.margins])
        depth = {**dict(zip(self.margins, self.depths)), math.inf: 0.0}
        for piece in near, far:
            piece.fit([depth[m] for m in piece.margins])
        self.near, self.far = near, far
        self.surface = stream._surface(dist)
        self.heads = [stream._head(dist, m, d) for m, d in zip(self.margins, self.depths)]

    def _bracket(self, ends) -> tuple:
        """The piece that holds the bracket between ``ends``, two of
        ``(sigma2, f)``, and its ends ``(x, sigma2, f)`` in order of ``x``."""
        p = self.near if ends[0][0] < self.m_m else self.far
        return (p, *sorted((p.at(m), m, f) for m, f in ends))

    def critical(self, tol_s: float) -> _Search:
        """The search for ``s_c``, between the neighbours of the sample of
        least head, where the strictly convex ``R`` is least, from the
        proxy's root of ``3 R'(x) = sigma2'(x) + 2 d'(x)`` there (else from
        that sample).  ``Phi - 1`` is positive below ``s_c``."""
        j = min(range(len(self.heads)), key=self.heads.__getitem__)
        i, k = max(j - 1, 0), j + 1
        p, a, b = self._bracket([(self.margins[i], math.inf), (self.margins[k], -math.inf)])

        def g(x):
            _, dm, ddm = p.sigma2(x)
            return dm + 2.0 * p(x, 1), ddm + 2.0 * p(x, 2)

        start = p.at(self.margins[j]) if j else 0.5 * (a[0] + b[0])
        lo, hi = max(a[0], p.lo), min(b[0], p.hi)
        root = p.root(g, lo, hi, g(lo)[0], g(hi)[0])
        if root is not None and a[0] < root < b[0]:
            start = root
        return _Search(p, a, b, start, tol_s)

    def conjugate(self, r: float, ends, falling: bool, tol_s: float, ftol: float) -> _Search:
        """The search for the root of ``R - r`` in the first bracket of
        ``ends`` (increasing margins, with ``R - r``) where
        ``R - r`` changes sign.  It starts at the lowest sample when the
        bracket runs to ``y = inf``, where a ``d`` like ``-log sigma`` is
        linear in ``y``; at the ``w`` of ``sigma2 = 3 r - surf``, where ``d =
        0``, when it runs to ``w = 0``; else at the proxy's root, or the
        middle if it has none."""
        k = next(k for k, (_, f) in enumerate(ends) if (f > 0.0) != falling)
        p, a, b = self._bracket(ends[k - 1:k + 1])

        def f(x):
            m, dm, _ = p.sigma2(x)
            return (m + self.surface + 2.0 * p(x)) / 3.0 - r, (dm + 2.0 * p(x, 1)) / 3.0

        if b[2] == math.inf:
            start = a[0]
        elif a[2] == math.inf:
            start = p.at(3.0 * r - self.surface)
        else:
            start = p.root(f, a[0], b[0], a[2], b[2])
            start = 0.5 * (a[0] + b[0]) if start is None else start
        return _Search(p, a, b, start, tol_s, ftol)


@lru_cache(maxsize=_PAIRS_CACHED)
def _proxy(dist: VorticityDistribution) -> _Proxy:
    """The proxy of ``d`` for ``dist``, kept for :func:`analyze` and :func:`conjugates`."""
    return _Proxy(dist)


@lru_cache(maxsize=_PAIRS_CACHED)
def analyze(dist: VorticityDistribution) -> BernoulliAnalysis:
    """The head landscape: classification, critical head and zero-margin head.

    Builds the proxy of ``d`` (one quadrature call for all its samples;
    ``d0`` is its sample at ``s0`` under "ii"/"iii").  ``s_c`` is the one
    root of ``Phi(1; s) = 1``, where the strictly convex ``R`` is least: it
    lies between the two neighbours of the sample of least exact head.  The
    proxy's root of ``R'`` there starts Newton steps on ``Phi - 1``, with
    ``dPhi/dx = -3/2 sigma2'(x) int_0^1 (s^2 - 2 Omega)^(-5/2)``, each from
    one two-row request, until a step is within ``1e-13 max(1, s0)`` in
    ``s``.  ``d`` is ill conditioned there (``|s d'(s) / d|`` is about 500 on
    ``constant 50``), so that last step is taken too, in ``s``, which leaves
    ``s_c`` at rounding; ``(d, Phi)`` there come from one more request.  The
    last 64 records are kept, and so are the last 64 proxies.
    """
    cls = dist.classify()
    s0 = cls.s0
    proxy = _proxy(dist)
    search = proxy.critical(1e-13 * max(1.0, s0))

    def g(open_):
        numerics.tally["newton_steps"] += len(open_)
        margins = [x.name(x.x)[0] for x in open_]
        rows = stream._totals(dist, [(m, p) for m in margins for p in (-1.5, -2.5)])
        return [(phi - 1.0, -1.5 * x.piece.sigma2(x.x)[1] * w)
                for x, phi, w in zip(open_, rows[::2], rows[1::2])]

    numerics.run_newton([search], g)
    x = search.root
    _, s_c = search.name(x)
    if search.lo <= x + search.step <= search.hi:
        s_c += search.step * search.piece.sigma2(x)[1] / (2.0 * s_c)
    sigma2 = stream._named(s0, s_c)
    d_c, phi = stream._totals(dist, [(sigma2, -0.5), (sigma2, -1.5)])
    d0, r0 = math.inf, None
    if cls.d0_finite:
        d0, r0 = proxy.depths[0], proxy.heads[0]
    return BernoulliAnalysis(
        condition=cls.condition,
        s0=s0,
        s_c=s_c,
        r_c=stream._head(dist, sigma2, d_c),
        d_c=d_c,
        phi_residual=phi - 1.0,
        d0=d0,
        r0=r0,
    )


@lru_cache(maxsize=_PAIRS_CACHED)
def conjugates(dist: VorticityDistribution, r: float) -> ConjugatePair:
    """Conjugate stream slopes and depths for the head ``r``.

    Each slope is the root of ``R(s) - r`` on its branch.  The samples of
    the proxy of ``d`` bracket it: the supercritical one among ``s_c`` and
    the samples above it (and ``s = inf``), the subcritical one among the
    samples below ``s_c`` (and ``s0``) and ``s_c``.  From a start in that
    bracket (:meth:`_Proxy.conjugate`), Newton steps on exact values, with
    Halley's correction from the proxy's curvature, go on until a step is
    within ``1e-13 max(1, s_c)`` in ``s`` (``1e-13`` of ``sigma2`` once the
    search is exact) and ``|R - r|`` within ``5e-13 max(1, |r|)``, or the
    step is within 4 ulps.  Both branches run side by side: each round
    takes ``(d, Phi)`` at both points from one quadrature call (only ``d``
    at a zero margin, where ``R'`` is ``-inf``).  The last 64 pairs are
    cached by ``(dist, r)``: a repeated call returns the same frozen pair.
    Each depth is ``solve_stream(dist, sigma2=m).d`` at the margin ``m``
    the pair carries, bit for bit.

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
        If ``3 r``, about ``s-^2``, is not finite.
    NoStreamError
        If ``r`` falls below the critical head.
    DivergenceError
        Under "i", if the subcritical root's margin underflows to 0.
    InvalidIntegrandError
        Under "i", if that margin is below about 3e-206, where Phi overflows.
    """
    if not math.isfinite(3.0 * r):
        raise DomainError(f"head must be finite, and 3 r too; got r={r!r}")
    an = analyze(dist)
    if r < an.r_c - 1e-10 * max(1.0, abs(an.r_c)):
        raise NoStreamError(
            f"no stream solutions with head r={r!r}: below the critical "
            f"head r_c={an.r_c!r}")
    m_c = stream._named(an.s0, an.s_c)
    if abs(r - an.r_c) < 1e-10 * max(1.0, abs(an.r_c)):
        return ConjugatePair(r=r, regime="critical", s_plus=an.s_c, d_plus=an.d_c,
                             s_minus=an.s_c, d_minus=an.d_c, sigma2_plus=m_c, sigma2_minus=m_c)
    proxy, tol, ftol = _proxy(dist), 1e-13 * max(1.0, an.s_c), 5e-13 * max(1.0, abs(r))
    samples, crit = [(m, h - r) for m, h in zip(proxy.margins, proxy.heads)], (m_c, an.r_c - r)
    # supercritical branch: R rises from r_c at s_c to inf at s = inf
    above = [crit, *(e for e in samples if e[0] > m_c), (math.inf, math.inf)]
    searches = [proxy.conjugate(r, above, False, tol, ftol)]
    if an.r0 is None or r < an.r0 - 1e-10 * max(1.0, abs(an.r0)):
        # under "i", R = inf at s0, where the margin is 0
        below = [*([(0.0, math.inf)] if an.r0 is None else []),
                 *(e for e in samples if e[0] < m_c), crit]
        searches.append(proxy.conjugate(r, below, True, tol, ftol))

    def values(open_):
        numerics.tally["newton_steps"] += len(open_)
        for x in open_:
            if x.hi == math.inf and x.piece.sigma2(x.x)[0] < _LEAST_MARGIN:
                # where d grows like 1/sigma, Newton's step in y overshoots: step on log R
                m = x.name(x.lo)[0]
                q = r / stream._head(dist, m, stream._totals(dist, [(m, -0.5)])[0])
                x.x = x.lo + (x.x - x.lo) * math.log(q) / (q - 1.0)
        named = [x.name(x.x) for x in open_]
        # Phi is not defined at the zero margin, where R' is -inf
        rows = iter(stream._totals(dist, [(m, p) for m, _ in named
                                          for p in ((-0.5, -1.5) if m else (-0.5,))]))
        out = []
        for x, (m, s) in zip(open_, named):
            p, (_, dm, ddm) = x.piece, x.piece.sigma2(x.x)
            d, phi = next(rows), next(rows) if m else math.inf
            # one ulp of s moves the head by |R'(s)| ulp(s): past half the
            # tolerance, the search goes on at exact margins
            if not x.exact and 4.0 * s * abs(1.0 - phi) * math.ulp(s) > 3.0 * ftol:
                x.exact, x.tol = True, 1e-13 * m / (abs(dm) or math.inf)
            f, slope = stream._head(dist, m, d) - r, dm * (1.0 - phi) / 3.0 if m else -math.inf
            # Halley's step with R'' of the proxy, Newton's over 1 - c: at most
            # halved (near s_c, where R' -> 0, it stalls), skipped as c -> 1
            c = f * (ddm + 2.0 * p(x.x, 2)) / (6.0 * slope * slope) if slope else math.inf
            if p.lo <= x.x <= p.hi and c < 0.5:
                slope *= 1.0 - max(c, -1.0)
            out.append((f, slope))
        return out

    numerics.run_newton(searches, values)
    (m_minus, s_minus), *plus = named = [x.name(x.root) for x in searches]
    d_minus, *d_plus = stream._totals(dist, [(m, -0.5) for m, _ in named])
    (m_plus, s_plus), d_plus = (plus[0], d_plus[0]) if plus else ((None, None), None)
    return ConjugatePair(r=r, regime="subcritical-pair" if plus else "only-supercritical",
                         s_plus=s_plus, d_plus=d_plus, s_minus=s_minus, d_minus=d_minus,
                         sigma2_plus=m_plus, sigma2_minus=m_minus)
