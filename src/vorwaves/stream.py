"""Shear-flow (stream) solutions of the channel problem.

A stream solution with bottom slope ``s`` solves ``u'' + omega(u) = 0`` with
``u(0) = 0`` and ``u(d) = 1`` for the depth ``d`` determined by ``s``.  The
first integral ``u'^2 = s^2 - 2 Omega(u)`` turns everything into quadratures
in the normalized stream variable ``tau = u``, all computed by one cumulative
integrator (``_accumulate``) along an increasing grid of ``p``:

* depth           ``d(s)   = int_0^1 (s^2 - 2 Omega)^(-1/2) dtau``
* height profile  ``H(p;s) = int_0^p (s^2 - 2 Omega)^(-1/2) dtau``
* tail weight     ``Phi(p;s) = int_0^p (s^2 - 2 Omega)^(-3/2) dtau``

All integrands share the margin ``sigma2 + 2 gap(tau)`` where
``sigma2 = s^2 - s0^2`` and ``gap = max Omega - Omega >= 0``.  At ``s = s0``
the margin vanishes wherever Omega peaks; when the peak sits at an endpoint
and is non-degenerate the inverse square root stays integrable, which is what
makes the zero-margin depth d0 finite under classifications "ii"/"iii".
The integrator cuts its cells at the segment starts of omega and at interior
maximizers of Omega, so the adaptive rule never straddles either.

Direct integration of the ODE is available separately through
:func:`shoot_stream`, which does not assume unidirectionality and reports
sign changes and turning points of trajectories below the threshold slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf, isfinite, pi, sqrt
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConvergenceError, DivergenceError, DomainError
from .vorticity import VorticityDistribution

__all__ = [
    "StreamSolution",
    "ShotStream",
    "depth",
    "phi",
    "surface_slope_squared",
    "solve_stream",
    "shoot_stream",
]

_PROFILE_NODES = 257

# relative half-width of the snap window that identifies s with s0, and of
# the guard band under classification "i" where d(s) is declared unreliable
_SNAP = 1e-13
_GUARD = 1e-9


def _margin(dist: VorticityDistribution, s: float):
    """Validate ``s`` against the threshold and return ``(sigma2, cls)``.

    ``sigma2`` comes out exactly zero inside the snap window around ``s0``
    (classification "ii"/"iii" only); the difference-of-squares form keeps
    it well conditioned just above the threshold.
    """
    if not isfinite(s):
        raise DomainError(f"bottom slope s={s!r} is not finite")
    cls = dist.classify()
    s0 = cls.s0
    scale = max(1.0, s0)
    if s < s0 - _SNAP * scale:
        raise DomainError(
            f"no unidirectional stream for s={s!r}: below the threshold s0={s0!r}")
    if s <= s0 + _SNAP * scale:
        if not cls.d0_finite:
            raise DivergenceError(
                f"d(s) diverges as s -> s0 = {s0!r} under classification "
                f"'{cls.condition}'; s={s!r} is inside the snap window")
        return 0.0, cls
    if not cls.d0_finite and s < s0 + _GUARD * scale:
        raise DivergenceError(
            f"s={s!r} is within the guard band above s0={s0!r}; the depth "
            f"integral is unreliable there under classification '{cls.condition}'")
    sigma2 = (s - s0) * (s + s0) if s0 > 0.0 else s * s
    return sigma2, cls


def _stream_values(p) -> np.ndarray:
    """``p`` as an array clipped to ``[0, 1]``; a value beyond a slack of
    1e-12, or not finite, is a domain error."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
        raise DomainError(f"profile argument outside [0, 1]: {arr!r}")
    return np.clip(arr, 0.0, 1.0)


def _accumulate(dist: VorticityDistribution, s: float, grid,
                power: float) -> np.ndarray:
    """``int_0^p (sigma2 + 2 gap)^power dtau`` at every ``p`` of an increasing grid.

    The one quadrature path of the module: ``d``, ``H`` and ``Phi`` all
    come from here, and every piece of every grid cell goes to one call of
    the batched rule.  Each grid cell is cut at the structural points of
    the integrand, the interior segment starts of omega (its kinks) and the
    interior maximizers of Omega (peaks of the integrand), so the rule only
    sees smooth pieces; a piece with a maximizer at both ends is also cut
    at its middle (0.5 for ``[0, 1]``), so no piece has two singular ends.

    Direct evaluation of ``gap = max Omega - Omega`` loses every digit as a
    maximizer is approached.  Every gap is therefore taken about the
    nearest maximizer ``m`` and built from ``m`` outward without
    cancellation (``dist._gap``).  A piece that ends at ``m`` is integrated
    in the distance ``x`` to ``m`` (with the square-root substitution when
    ``m`` is an endpoint); any other piece in ``tau`` itself, so that its
    width keeps every digit.

    Above the threshold the integrand has a layer of width ``L`` at each
    maximizer, where ``sigma2`` and ``2 gap`` are comparable; with
    ``gap ~ c_k x^k`` at its first nonzero term, ``L = (sigma2 / 2 c_k)^(1/k)``.
    ``L`` can be far below any cell width, and a rule whose nodes all miss
    the layer does not see it.  So every piece that spans more than a
    factor 2 in its distance to ``m`` is cut geometrically, at
    ``max(L, x_lo) 2^k`` for a piece ``x_lo <= x <= x_hi`` away from ``m``;
    a piece that ends at ``m`` is cut at ``L, 2 L, 4 L, ...``.
    """
    sigma2, cls = _margin(dist, s)
    if sigma2 == 0.0 and power <= -1.0:
        raise DomainError(
            f"Phi is not defined at s = s0 = {cls.s0!r}: the integrand has a "
            f"non-integrable endpoint there")
    grid = np.asarray(grid, dtype=float)
    peaks = np.array(cls.maximizers)
    cuts = [c for c in [*cls.maximizers, *dist._seg[1:].tolist()] if 0.0 < c < grid[-1]]
    edges = np.array(sorted({0.0, *grid.tolist(), *cuts}))
    at_peak = (edges[:, None] == peaks).any(axis=1)
    both = at_peak[:-1] & at_peak[1:]
    if both.any():
        edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:])[both])))
        at_peak = (edges[:, None] == peaks).any(axis=1)
    a, b, a_peak, b_peak = edges[:-1], edges[1:], at_peak[:-1], at_peak[1:]

    # the gap of every piece is taken about its nearest maximizer m, on
    # side e; x_lo and x_hi bound the piece's distance to m
    anchored = a_peak | b_peak
    near = peaks[np.argmin(np.abs(peaks[None, :] - (0.5 * (a + b))[:, None]), axis=1)]
    m = np.where(a_peak, a, np.where(b_peak, b, near))
    e = np.where(a_peak | (~b_peak & (m <= a)), 1.0, -1.0)
    x_lo = np.where(anchored, 0.0, np.where(e > 0.0, a - m, m - b))
    x_hi = np.where(anchored, b - a, np.where(e > 0.0, b - m, m - a))
    # a piece that ends at m is integrated in the distance to m, any other
    # piece in tau itself, so that its width keeps every digit
    lo, hi = np.where(anchored, 0.0, a), np.where(anchored, x_hi, b)
    cell = np.searchsorted(grid, b)

    frames = sorted(set(zip(m.tolist(), e.tolist(), anchored.tolist())))
    index = {k: j for j, k in enumerate(frames)}
    tag = np.array([index[k] for k in zip(m.tolist(), e.tolist(), anchored.tolist())],
                   dtype=int)
    layer = np.array([_layer(dist, pm, pe, sigma2) for pm, pe, _ in frames])[tag]
    start = np.maximum(layer, x_lo)
    split = np.flatnonzero((start > 0.0) & (x_hi > 2.0 * start))
    if split.size:
        owner, more_lo, more_hi = [], [], []
        for i in split:
            rungs, rung = [], start[i]
            while rung < x_hi[i]:
                if rung > x_lo[i]:
                    rungs.append(rung)
                rung *= 2.0
            if not anchored[i]:
                rungs = sorted(m[i] + e[i] * r for r in rungs)
            bounds = [lo[i], *rungs, hi[i]]
            owner += [i] * (len(bounds) - 1)
            more_lo += bounds[:-1]
            more_hi += bounds[1:]
        # the pieces cut at the rungs keep the frame and cell of the whole
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        idx = np.concatenate((np.flatnonzero(keep), owner)).astype(int)
        lo = np.concatenate((lo[keep], more_lo))
        hi = np.concatenate((hi[keep], more_hi))
        anchored, m, tag, cell = anchored[idx], m[idx], tag[idx], cell[idx]

    def f(z, which):
        gap = np.empty_like(z)
        for j, (pm, pe, local) in enumerate(frames):
            sel = which == j
            gap[sel] = dist._gap(pm, pe, z[sel] if local else pe * (z[sel] - pm))
        return (sigma2 + 2.0 * np.maximum(gap, 0.0)) ** power

    singular = anchored & (lo == 0.0) & ((m == 0.0) | (m == 1.0))
    vals = numerics.integrate(f, lo, hi, singular, tags=tag)
    return np.cumsum(np.bincount(cell, vals, len(grid)))


def _layer(dist: VorticityDistribution, m: float, e: float, sigma2: float) -> float:
    """Width ``L`` of the layer at the maximizer ``m`` where ``sigma2`` rules.

    ``L = min_k (sigma2 / 2 |c_k|)^(1/k)`` over the terms ``c_k x^k`` of the
    gap about ``m``: below ``L`` the margin dominates the gap.
    """
    terms = [(k, abs(c)) for k, c in enumerate(dist._gap_segments(m, e)[1][0].tolist()) if k and c]
    return min(((sigma2 / (2.0 * c)) ** (1.0 / k) for k, c in terms), default=inf)


def depth(dist: VorticityDistribution, s: float) -> float:
    """Depth ``d(s)`` of the stream solution with bottom slope ``s``.

    Parameters
    ----------
    dist : VorticityDistribution
    s : float
        Bottom slope ``u'(0)``; must satisfy ``s > s0`` (``s = s0`` is
        allowed when the classification makes ``d(s0)`` finite).

    Returns
    -------
    float
    """
    return float(_accumulate(dist, s, (1.0,), -0.5)[0])


def phi(dist: VorticityDistribution, s: float, p: float = 1.0) -> float:
    """Tail weight ``Phi(p; s) = int_0^p (s^2 - 2 Omega)^(-3/2) dtau``.

    Strictly decreasing in ``s``; ``Phi(1; s) = 1`` picks out the critical
    slope.  Requires ``s`` strictly above the threshold: at ``s = s0`` the
    ``-3/2`` power is not integrable.
    """
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise DomainError(f"phi argument p={p!r} outside [0, 1]")
    return float(_accumulate(dist, s, (min(max(p, 0.0), 1.0),), -1.5)[0])


def surface_slope_squared(dist: VorticityDistribution, s: float) -> float:
    """``u'(d)^2 = s^2 - 2 Omega(1)``, exactly zero when the margin closes."""
    sigma2, cls = _margin(dist, s)
    gap1 = cls.max_Omega - dist._Omega_scalar(1.0)
    if gap1 < 0.0:
        gap1 = 0.0
    return sigma2 + 2.0 * gap1


class StreamSolution:
    """A unidirectional stream solution read from the quadrature.

    The height profile ``H(p; s)`` comes from :func:`_accumulate` at the
    points asked for; the inverse map ``u(y)`` runs a Newton iteration on
    the same quadrature with the exact slope ``H' = (sigma2 + 2 gap)^(-1/2)``.

    Attributes
    ----------
    s, d, r : float
        Bottom slope, depth and Bernoulli head ``(u'(d)^2 + 2 d) / 3``.
    u_prime_d : float
        Surface slope ``sqrt(s^2 - 2 Omega(1))``.
    classification : FlowClassification
    """

    def __init__(self, dist: VorticityDistribution, s: float):
        sigma2, cls = _margin(dist, s)
        self.dist = dist
        self.s = float(s)
        self.sigma2 = sigma2
        self.classification = cls
        self.s0 = cls.s0
        self.d = depth(dist, s)
        upd2 = surface_slope_squared(dist, s)
        self.u_prime_d = sqrt(upd2)
        self.r = (upd2 + 2.0 * self.d) / 3.0
        self._inverted = (b"", None)  # the last heights given to u_at, and their u

    @cached_property
    def _kink_heights(self) -> np.ndarray:
        """Heights ``H(tau_k)`` of the interior segment starts of omega.

        omega' jumps there, so the transverse grid of ``dispersion`` has
        element bounds there; they are computed once per stream.
        """
        seg = self.dist._seg
        knots = seg[(seg > 0.0) & (seg < 1.0)]
        if not knots.size:
            return knots
        return _accumulate(self.dist, self.s, knots, -0.5)

    @cached_property
    def _nodes(self):
        """``(p, H(p))`` at the Chebyshev-Lobatto nodes, where ``u_at`` starts."""
        p = 0.5 * (1.0 - np.cos(pi * np.arange(_PROFILE_NODES) / (_PROFILE_NODES - 1)))
        p[0], p[-1] = 0.0, 1.0
        return p, _accumulate(self.dist, self.s, p, -0.5)

    # -- profile evaluation ----------------------------------------------------

    def height_at(self, p):
        """``H(p; s)`` from the quadrature (scalar or array)."""
        arr = _stream_values(p)
        flat = arr.ravel()
        out = np.zeros(flat.size)
        if flat.size:
            order = np.argsort(flat)
            out[order] = _accumulate(self.dist, self.s, flat[order], -0.5)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def slope_at(self, p):
        """Analytic profile slope ``H'(p) = (sigma2 + 2 gap(p))^(-1/2)``."""
        arr = _stream_values(p)
        gap = np.maximum(self.classification.max_Omega - self.dist.Omega(arr), 0.0)
        with np.errstate(divide="ignore"):  # slope at a surface maximizer is inf
            return 1.0 / np.sqrt(self.sigma2 + 2.0 * gap)

    def velocity_at(self, y):
        """Horizontal velocity ``u'`` at height ``y``.

        Equal to ``sqrt(sigma2 + 2 gap)`` along the first integral; always
        the nonnegative branch (the solution is unidirectional).
        """
        p = self.u_at(y)
        gap = np.maximum(
            self.classification.max_Omega - self.dist.Omega(p), 0.0)
        out = np.sqrt(self.sigma2 + 2.0 * gap)
        return float(out) if np.ndim(p) == 0 else out

    def u_at(self, y):
        """Invert the profile: the stream value ``u`` at height ``y``.

        ``y`` outside ``[0, d]`` (beyond a relative slack of 1e-9), or not
        finite, is a domain error.  Newton on ``H(p) - y``, ``H`` from
        :func:`_accumulate` as in :meth:`height_at`, with the analytic slope,
        from the linear interpolant of ``H`` at the Chebyshev-Lobatto nodes;
        the multiplicative update keeps endpoint singularities harmless.
        The sweeps stop once no step exceeds 1e-13, or after 30.  The last
        inversion is kept, so the same heights again cost no quadrature.
        """
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr).astype(float)
        slack = 1e-9 * max(1.0, self.d)
        inside = (arr >= -slack) & (arr <= self.d + slack)
        if not inside.all():
            bad = arr[~inside]
            raise DomainError(
                f"height {float(bad.flat[0])!r} outside the water column "
                f"[0, {self.d!r}]")
        if not arr.size:
            return arr
        key = arr.tobytes()
        if self._inverted[0] != key:
            order = np.argsort(arr, axis=None)
            h = np.clip(arr.ravel()[order], 0.0, self.d)
            p = np.interp(h, self._nodes[1], self._nodes[0])
            for _ in range(30):
                resid = _accumulate(self.dist, self.s, p, -0.5) - h
                gap = np.maximum(self.classification.max_Omega - self.dist.Omega(p), 0.0)
                step = resid * np.sqrt(self.sigma2 + 2.0 * gap)
                p = np.maximum.accumulate(np.clip(p - step, 0.0, 1.0))
                if np.abs(step).max() < 1e-13:
                    break
            if abs(resid[j := int(np.argmax(np.abs(resid)))]) > 1e-9 * max(1.0, self.d):
                raise ConvergenceError(f"profile inversion stalled: residual "
                                       f"{float(abs(resid[j]))!r} at y={float(h[j])!r}")
            out = np.empty(arr.size)
            out[order] = p
            self._inverted = (key, out)
        out = self._inverted[1].copy()  # callers may write into their copy
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def __repr__(self) -> str:
        return (f"StreamSolution(s={self.s!r}, d={self.d!r}, r={self.r!r}, "
                f"condition={self.classification.condition!r})")


def solve_stream(dist: VorticityDistribution, s: float) -> StreamSolution:
    """Construct the stream solution with bottom slope ``s``."""
    return StreamSolution(dist, s)


@dataclass
class ShotStream:
    """Result of integrating ``u'' + omega(u) = 0`` directly from the bottom.

    Produced by :func:`shoot_stream`; unlike :class:`StreamSolution` the
    trajectory may turn around and dip below zero before first reaching
    ``u = 1``, which is exactly what the sign-change diagnostics report.

    Attributes
    ----------
    d : float
        First height where ``u = 1``.
    min_u, min_location : float
        Minimum of ``u`` over ``[0, d)`` and where it occurs (turning
        points and the bottom are the only candidates).
    sign_change : bool
        True when ``min_u`` drops below ``-10 *`` the solver tolerance.
    unidirectional : bool
        True when ``u'`` never vanishes strictly inside ``(0, d)``.
    later_crossings : int or None
        Crossings of ``u = 1`` beyond the first, counted on a second
        looser pass up to ``max_depth``; None if that pass fails.
    r : float
        Bernoulli head ``(u'(d)^2 + 2 d) / 3``.
    """

    dist: VorticityDistribution
    s: float
    d: float
    grid: np.ndarray
    u_samples: np.ndarray
    u_prime_d: float
    min_u: float
    min_location: float
    sign_change: bool
    unidirectional: bool
    later_crossings: Optional[int]
    r: float
    tolerance: float
    _dense: object = field(repr=False, default=None)

    @cached_property
    def _kink_heights(self) -> np.ndarray:
        """Heights where a monotone ``u`` crosses the segment starts of omega."""
        seg = self.dist._seg
        knots = seg[(seg > 0.0) & (seg < 1.0)] if self.unidirectional else seg[:0]
        y = np.interp(knots, self.u_samples, self.grid)
        for _ in range(4 if knots.size else 0):
            y = y - (self.u_at(y) - knots) / self.velocity_at(y)
        return y

    def _dense_at(self, y, row: int):
        """Row ``row`` (0 for ``u``, 1 for ``u'``) of the dense output at ``y``."""
        arr = np.asarray(y, dtype=float)
        slack = 1e-9 * max(1.0, self.d)
        if not np.all((arr >= -slack) & (arr <= self.d + slack)):
            raise DomainError(f"height outside [0, {self.d!r}]")
        out = self._dense(np.clip(np.atleast_1d(arr), 0.0, self.d))[row]
        return float(out[0]) if arr.ndim == 0 else out

    def u_at(self, y):
        """Dense-output evaluation of ``u`` on ``[0, d]``."""
        return self._dense_at(y, 0)

    def velocity_at(self, y):
        """Dense-output evaluation of ``u'`` on ``[0, d]`` (sign included)."""
        return self._dense_at(y, 1)


def shoot_stream(dist: VorticityDistribution, s: float,
                 max_depth: float = 10.0, tol: float = 1e-12) -> ShotStream:
    """Integrate the bottom-value problem until the surface value is reached.

    Parameters
    ----------
    dist : VorticityDistribution
    s : float
        Bottom slope ``u'(0)``; any finite value, including negative.
    max_depth : float
        Give up (with :class:`ConvergenceError`) if ``u`` never reaches 1
        before this height.
    tol : float
        Integration tolerance; also sets the sign-change threshold.
    """
    def rhs(t, y):
        return (y[1], -dist._omega_scalar(y[0]))

    def hit_surface(t, y):
        return y[0] - 1.0

    hit_surface.terminal = True
    hit_surface.direction = 1.0

    def turning(t, y):
        return y[1]

    turning.direction = 0.0

    sol = numerics.solve_ivp(rhs, (0.0, s), (0.0, max_depth), tol=tol,
                             events=[hit_surface, turning])
    if len(sol.t_events[0]) == 0:
        u_end, up_end = sol.y[0, -1], sol.y[1, -1]
        raise ConvergenceError(
            f"u never reached 1 before height {max_depth!r}: final state "
            f"u={float(u_end)!r}, u'={float(up_end)!r}")
    d = float(sol.t_events[0][0])
    u_prime_d = float(sol.y_events[0][0][1])

    edge = 1e-9 * max(1.0, d)
    turns = sol.t_events[1]
    interior = turns[(turns > edge) & (turns < d - edge)]
    min_u, min_loc = 0.0, 0.0
    if interior.size:
        vals = sol.sol(interior)[0]
        j = int(np.argmin(vals))
        if vals[j] < min_u:
            min_u, min_loc = float(vals[j]), float(interior[j])

    def crossing(t, y):
        return y[0] - 1.0

    crossing.direction = 0.0
    later: Optional[int] = None
    try:
        sol2 = numerics.solve_ivp(rhs, (0.0, s), (0.0, max_depth),
                                  tol=1e-9, events=[crossing])
        later = int(np.sum(sol2.t_events[0] > d + 1e-9))
    except ConvergenceError:
        later = None

    grid = np.linspace(0.0, d, _PROFILE_NODES)
    u_samples = sol.sol(grid)[0].copy()
    u_samples[0] = 0.0

    return ShotStream(
        dist=dist,
        s=float(s),
        d=d,
        grid=grid,
        u_samples=u_samples,
        u_prime_d=u_prime_d,
        min_u=min_u,
        min_location=min_loc,
        sign_change=min_u < -10.0 * tol,
        unidirectional=interior.size == 0,
        later_crossings=later,
        r=(u_prime_d ** 2 + 2.0 * d) / 3.0,
        tolerance=tol,
        _dense=sol.sol,
    )
