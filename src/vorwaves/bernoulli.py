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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import numerics, stream
from .errors import ConvergenceError, DomainError, NoStreamError
from .vorticity import VorticityDistribution

__all__ = ["ConjugatePair", "BernoulliAnalysis", "conjugates", "analyze"]

# distributions kept by :func:`analyze`, pairs by :func:`conjugates`: a
# sweep revisits only its last few, and the bound keeps memory from growing
_PAIRS_CACHED = 64


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


def _walk(origin: float, a: float, fa: float, ratio: float,
          floor: float = -math.inf):
    """Bracket the sign change of a monotone ``f`` by a geometric walk.

    A search in the form of :func:`numerics.brent`: it yields each probe,
    is sent ``f`` there, and returns the bracket.  From the probe
    ``(a, fa)`` each step scales the distance to ``origin`` by ``ratio``
    (clamped at ``floor``) until two consecutive probes straddle zero.
    """
    for _ in range(200):
        b = max(origin + (a - origin) * ratio, floor)
        if b == a:
            raise ConvergenceError(
                f"no sign change above s={floor!r}, the edge of the admissible "
                f"slopes: f there is {fa!r}, so the root sits below the edge")
        fb = yield b
        if fb == 0.0 or (fa > 0.0) != (fb > 0.0):
            if a < b:
                return numerics.Bracket(a, b, fa, fb)
            return numerics.Bracket(b, a, fb, fa)
        a, fa = b, fb
    raise ConvergenceError(
        f"no sign change in 200 steps of the walk about s={origin!r}: "
        f"f({a!r}) = {fa!r}")


@lru_cache(maxsize=_PAIRS_CACHED)
def analyze(dist: VorticityDistribution) -> BernoulliAnalysis:
    """The head landscape: classification, critical head and zero-margin head.

    ``s_c`` is the one root of ``Phi(1; s) = 1``, since Phi falls strictly
    from ``+inf`` at ``s0``.  A geometric walk in ``s - s0`` brackets it.
    The walk starts at ``s0 + max(1, s0)``, where the margin is at least 1
    and so ``Phi <= 1`` up to rounding.  It steps toward ``s0``, down to
    the edge of the admissible slopes, until ``Phi > 1``; if rounding puts
    the start above 1 (omega = 0, where ``s_c`` is the start itself), it
    steps away from ``s0`` until ``Phi < 1``.  Brent's method polishes the
    bracket to ``1e-13 max(1, s0)``, which leaves ``d_c`` off by that much
    times ``|s d'(s) / d|`` (about 500 on ``constant 50``).  So one Newton
    step on ``Phi(1; s) = 1``, with ``dPhi/ds = -3 s int_0^1 (s^2 -
    2 Omega)^(-5/2)``, takes ``s_c`` to rounding; it is kept only inside
    the walk's bracket.  Walk and Brent run through :func:`numerics.lockstep`;
    every integral comes from ``stream``'s column memo, at last ``(Phi, dPhi/ds)``
    at the root and ``(d, Phi)`` at the Newton slope, and ``d0`` at ``s0`` under
    classification "ii" or "iii".  The last 64 distributions are kept.
    """
    cls = dist.classify()
    s0 = cls.s0
    scale = max(1.0, s0)
    floor = s0 + 1e-12 * scale if cls.d0_finite else _guard_edge(s0)

    def g(slopes):
        return [phi - 1.0 for phi in stream._totals(dist, [(s, -1.5) for s in slopes])]

    a = s0 + scale
    fa, = g([a])
    walk = _walk(s0, a, fa, 2.0 if fa > 0.0 else 0.25, floor)
    bracket, = numerics.lockstep(g, walk)
    s_c, = numerics.lockstep(g, numerics.brent(bracket, 1e-13 * scale))
    phi, w = stream._totals(dist, [(s_c, -1.5), (s_c, -2.5)])
    newton = s_c - (phi - 1.0) / (-3.0 * s_c * w)  # dPhi/ds = -3 s w
    if bracket.lo <= newton <= bracket.hi:
        s_c = newton
    d_c, phi = stream._totals(dist, [(s_c, -0.5), (s_c, -1.5)])
    d0, r0 = math.inf, None
    if cls.d0_finite:
        d0 = stream.depth(dist, s0)
        r0 = stream._head(dist, s0, d0)
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

    Each slope is the root of ``R(s) - r`` on its branch: a geometric walk
    from ``s_c`` brackets it (the subcritical bracket is ``[s0, s_c]``
    when ``d0`` is finite), and Brent's method polishes it to
    ``1e-13 max(1, s_c)``.  The two searches run in lockstep: each round
    sends both the heads at their last slopes, from one quadrature call
    for the depths of both.  The steps of each are those it takes alone.
    The depths come from ``stream``'s column memo where it holds them, as
    it does for the walk probes, which do not depend on ``r``, at every
    head after the first.  The last 64 pairs are cached by ``(dist, r)``:
    a repeated call returns the same frozen pair.  Each depth is the one
    its root search integrated.

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
    scale = max(1.0, an.s_c)
    if r < an.r_c - 1e-10 * max(1.0, abs(an.r_c)):
        raise NoStreamError(
            f"no stream solutions with head r={r!r}: below the critical "
            f"head r_c={an.r_c!r}")
    if abs(r - an.r_c) < 1e-10 * max(1.0, abs(an.r_c)):
        return ConjugatePair(r=r, regime="critical",
                             s_plus=an.s_c, d_plus=an.d_c,
                             s_minus=an.s_c, d_minus=an.d_c)

    def search(bracket):
        """The root of ``R(s) - r`` in ``bracket``, or in the one a walk finds."""
        if not isinstance(bracket, numerics.Bracket):
            bracket = yield from bracket
        return (yield from numerics.brent(bracket, 1e-13 * scale))

    def residuals(slopes):
        depths = stream._totals(dist, [(s, -0.5) for s in slopes])
        return [stream._head(dist, s, d) - r for s, d in zip(slopes, depths)]

    # supercritical branch: R increases beyond s_c; the walk probes
    # s_c + scale, s_c + 3 scale, s_c + 7 scale, ...
    searches = [search(_walk(an.s_c - scale, an.s_c, an.r_c - r, 2.0))]
    if an.r0 is None or r < an.r0 - 1e-10 * max(1.0, abs(an.r0)):
        if an.r0 is not None:
            bracket = numerics.Bracket(an.s0, an.s_c, an.r0 - r, an.r_c - r)
        else:
            # R grows without bound toward s0: walk down to the guard-band edge
            bracket = _walk(an.s0, an.s_c, an.r_c - r, 0.25, _guard_edge(an.s0))
        searches.append(search(bracket))
    # both branches in lockstep, one quadrature call per round for both
    s_minus, *s_plus = numerics.lockstep(residuals, *searches)
    d_minus, *d_plus = stream._totals(dist, [(s, -0.5) for s in (s_minus, *s_plus)])
    if not s_plus:
        return ConjugatePair(r=r, regime="only-supercritical",
                             s_plus=None, d_plus=None,
                             s_minus=s_minus, d_minus=d_minus)
    return ConjugatePair(r=r, regime="subcritical-pair",
                         s_plus=s_plus[0], d_plus=d_plus[0],
                         s_minus=s_minus, d_minus=d_minus)

