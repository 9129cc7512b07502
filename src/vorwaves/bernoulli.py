"""Bernoulli head of stream solutions and its critical values.

For a stream solution with bottom slope ``s`` the head is

    R(s) = [ s^2 - 2 Omega(1) + 2 d(s) ] / 3 ,

strictly convex along the admissible range with a single interior minimum
``r_c = R(s_c)``.  Since ``dR/ds = (2 s / 3)(1 - Phi(1; s))`` and Phi is
strictly decreasing in ``s``, the minimizer is the root of
``Phi(1; s) = 1``, which is how the coarse minimum found by golden-section
search is polished here.

The second distinguished value is the zero-margin head ``r0 = R(s0)``
with depth ``d0 = d(s0)``, finite exactly when the classification is
"ii" or "iii".  For ``r`` between ``r_c`` and ``r0`` two conjugate
streams share the head: the subcritical one (``s+ < s_c``, deeper) and
the supercritical one (``s- > s_c``, shallower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional

from . import numerics, stream
from .errors import ConvergenceError, NoStreamError
from .vorticity import VorticityDistribution

__all__ = [
    "CriticalPoint",
    "SecondCritical",
    "ConjugatePair",
    "BernoulliAnalysis",
    "head",
    "find_critical",
    "second_critical",
    "conjugates",
    "analyze",
]


def _cached_per_spec(fn):
    """Cache ``fn(dist)`` per distribution and quadrature spec in effect.

    The quadratures under ``fn`` read the default spec, which
    ``TOOL_SEED_TOLERANCE`` seeds, at call time; keying on it means a
    value computed under one tolerance is never served under another.
    """
    cached = lru_cache(maxsize=None)(lambda dist, spec: fn(dist))

    @wraps(fn)
    def wrapper(dist: VorticityDistribution):
        return cached(dist, numerics.default_quadrature_spec())

    return wrapper


def head(dist: VorticityDistribution, s: float) -> float:
    """Bernoulli head ``R(s) = (u'(d)^2 + 2 d(s)) / 3``."""
    upd2 = stream.surface_slope_squared(dist, s)
    return (upd2 + 2.0 * stream.depth(dist, s)) / 3.0


@dataclass(frozen=True)
class CriticalPoint:
    """Location of the head minimum: ``r_c = R(s_c)`` at depth ``d_c``."""

    s_c: float
    r_c: float
    d_c: float
    phi_residual: float


@dataclass(frozen=True)
class SecondCritical:
    """Zero-margin head ``r0 = R(s0)``; ``d0 = inf`` and ``r0 = None``
    when the classification makes the threshold depth divergent."""

    s0: float
    d0: float
    r0: Optional[float]
    condition: str


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
    """Summary of the head landscape of one vorticity distribution."""

    condition: str
    s0: float
    s_c: float
    r_c: float
    d_c: float
    phi_residual: float
    d0: float
    r0: Optional[float]


def _descend_bracket(f, left: float, scale: float):
    """Expand downhill from ``left`` until the value turns back up."""
    probes = [(left, f(left))]
    step = 0.25 * scale
    f_left = probes[0][1]
    for _ in range(80):
        cand = left + step
        f_cand = f(cand)
        probes.append((cand, f_cand))
        if f_cand < f_left:
            break
        step *= 0.25
    else:
        raise ConvergenceError(
            f"no descent direction from s={left!r}; probes: {probes!r}")
    a, b, fb = left, cand, f_cand
    for _ in range(200):
        step *= 1.7
        c = b + step
        fc = f(c)
        probes.append((c, fc))
        if fc > fb:
            return a, c
        a, b, fb = b, c, fc
    raise ConvergenceError(f"head never turned back up; probes: {probes!r}")


@_cached_per_spec
def find_critical(dist: VorticityDistribution) -> CriticalPoint:
    """Critical slope and head: the minimum of ``R(s)``.

    A golden-section pass locates the minimum coarsely; the result is
    polished as the root of ``Phi(1; s) - 1 = 0``, whose sign change the
    stationarity identity guarantees to straddle the minimizer.

    Returns
    -------
    CriticalPoint
        With ``phi_residual`` recording how well ``Phi(1; s_c) = 1`` holds.
    """
    cls = dist.classify()
    s0 = cls.s0
    scale = max(1.0, s0)
    left = s0 if cls.d0_finite else s0 + 1e-6 * scale

    def f(s: float) -> float:
        return head(dist, s)

    a, c = _descend_bracket(f, left, scale)
    s_mid, _ = numerics.minimize_unimodal(f, numerics.Bracket(a, c), tol=1e-6)

    floor = s0 + 2e-9 * scale if not cls.d0_finite else s0 + 1e-12 * scale

    def g(s: float) -> float:
        return stream.phi(dist, s, 1.0) - 1.0

    w = 1e-4 * max(1.0, s_mid)
    lo = max(floor, s_mid - w)
    hi = s_mid + w
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(60):  # Phi(1; s) decreases in s, so widen until it straddles 1
        if g_lo > 0.0:
            break
        w *= 4.0
        lo = max(floor, lo - w)
        g_lo = g(lo)
    for _ in range(60):
        if g_hi < 0.0:
            break
        w *= 4.0
        hi = hi + w
        g_hi = g(hi)
    if g_lo > 0.0 > g_hi:
        s_c = numerics.find_root(
            g, numerics.Bracket(lo, hi, g_lo, g_hi), tol=1e-13 * scale)
    else:
        # fall back to a tight minimization when the stationarity root
        # cannot be straddled (only possible hard against the guard band)
        s_c, _ = numerics.minimize_unimodal(
            f, numerics.Bracket(a, c), tol=1e-10)
    return CriticalPoint(
        s_c=s_c,
        r_c=head(dist, s_c),
        d_c=stream.depth(dist, s_c),
        phi_residual=g(s_c),
    )


@_cached_per_spec
def second_critical(dist: VorticityDistribution) -> SecondCritical:
    """Zero-margin depth and head ``(d0, r0) = (d(s0), R(s0))``.

    ``d0 = math.inf`` and ``r0 = None`` under classification "i".
    """
    cls = dist.classify()
    if not cls.d0_finite:
        return SecondCritical(s0=cls.s0, d0=math.inf, r0=None,
                              condition=cls.condition)
    d0 = stream.depth(dist, cls.s0)
    r0 = (stream.surface_slope_squared(dist, cls.s0) + 2.0 * d0) / 3.0
    return SecondCritical(s0=cls.s0, d0=d0, r0=r0, condition=cls.condition)


def conjugates(dist: VorticityDistribution, r: float) -> ConjugatePair:
    """Conjugate stream slopes and depths for the head ``r``.

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
    NoStreamError
        If ``r`` falls below the critical head.
    """
    crit = find_critical(dist)
    scale = max(1.0, crit.s_c)
    if r < crit.r_c - 1e-10 * max(1.0, abs(crit.r_c)):
        raise NoStreamError(
            f"no stream solutions with head r={r!r}: below the critical "
            f"head r_c={crit.r_c!r}")
    if abs(r - crit.r_c) < 1e-10 * max(1.0, abs(crit.r_c)):
        return ConjugatePair(r=r, regime="critical",
                             s_plus=crit.s_c, d_plus=crit.d_c,
                             s_minus=crit.s_c, d_minus=crit.d_c)

    def f(s: float) -> float:
        return head(dist, s) - r

    # supercritical branch: R increases beyond s_c
    a, fa = crit.s_c, crit.r_c - r
    step = max(1.0, crit.s_c)
    b, fb = a + step, f(a + step)
    for _ in range(200):
        if fb >= 0.0:
            break
        a, fa = b, fb
        step *= 2.0
        b, fb = b + step, f(b + step)
    else:
        raise ConvergenceError(f"could not bracket the supercritical slope for r={r!r}")
    s_minus = numerics.find_root(f, numerics.Bracket(a, b, fa, fb), tol=1e-13 * scale)
    d_minus = stream.depth(dist, s_minus)

    sec = second_critical(dist)
    if sec.r0 is not None and r >= sec.r0 - 1e-10 * max(1.0, abs(sec.r0)):
        return ConjugatePair(r=r, regime="only-supercritical",
                             s_plus=None, d_plus=None,
                             s_minus=s_minus, d_minus=d_minus)

    cls = dist.classify()
    if cls.d0_finite:
        lo, flo = cls.s0, (sec.r0 - r)
    else:
        lo = cls.s0 + 2e-9 * max(1.0, cls.s0)
        flo = f(lo)
        if flo <= 0.0:
            raise ConvergenceError(
                f"head at the guard band edge, R({lo!r})={flo + r!r}, does not "
                f"reach r={r!r}; the subcritical slope sits inside the band")
    s_plus = numerics.find_root(
        f, numerics.Bracket(lo, crit.s_c, flo, crit.r_c - r), tol=1e-13 * scale)
    d_plus = stream.depth(dist, s_plus)
    return ConjugatePair(r=r, regime="subcritical-pair",
                         s_plus=s_plus, d_plus=d_plus,
                         s_minus=s_minus, d_minus=d_minus)


def analyze(dist: VorticityDistribution) -> BernoulliAnalysis:
    """Classification plus both critical values in one record."""
    cls = dist.classify()
    crit = find_critical(dist)
    sec = second_critical(dist)
    return BernoulliAnalysis(
        condition=cls.condition,
        s0=cls.s0,
        s_c=crit.s_c,
        r_c=crit.r_c,
        d_c=crit.d_c,
        phi_residual=crit.phi_residual,
        d0=sec.d0,
        r0=sec.r0,
    )
