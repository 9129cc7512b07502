"""Shear-flow (stream) solutions of the channel problem.

A stream solution with bottom slope ``s`` solves ``u'' + omega(u) = 0`` with
``u(0) = 0`` and ``u(d) = 1`` for the depth ``d`` determined by ``s``.  The
first integral ``u'^2 = s^2 - 2 Omega(u)`` turns everything into quadratures
in the normalized stream variable ``tau = u``, all computed by one cumulative
integrator (``_accumulate``) along an increasing grid of ``p``, a row per
``(sigma2, power)``:

* depth           ``d(s)   = int_0^1 (s^2 - 2 Omega)^(-1/2) dtau``
* height profile  ``H(p;s) = int_0^p (s^2 - 2 Omega)^(-1/2) dtau``
* tail weight     ``Phi(p;s) = int_0^p (s^2 - 2 Omega)^(-3/2) dtau``
* slope of Phi    ``dPhi(1;s)/ds = -3 s int_0^1 (s^2 - 2 Omega)^(-5/2) dtau``
* column totals   all of them at ``p = 1``, memoized per ``(dist, sigma2, power)`` by ``_totals``

All integrands share the margin ``sigma2 + 2 gap(tau)`` where
``sigma2 = s^2 - s0^2`` and ``gap = max Omega - Omega >= 0``; a public
function turns its slope into ``sigma2`` once (``_margin``).  At ``s = s0``
the margin vanishes wherever Omega peaks; when the peak sits at an endpoint
and is non-degenerate the inverse square root stays integrable, which is what
makes the zero-margin depth d0 finite under classifications "ii"/"iii".
The integrator cuts its cells at the segment starts of omega and at interior
maximizers of Omega, so the adaptive rule never straddles either, and it is
the one place that changes variables: near a maximizer the margin rules
over the gap in a layer of width ``L = (sigma2 / 2 c_k)^(1/k)``, which a
piece containing it takes in ``v = asinh(x / L)`` of the distance ``x``,
and at zero margin every piece is taken in ``v = sqrt(x)``.

Direct integration of the ODE is available separately through
:func:`shoot_stream`, which does not assume unidirectionality.  It is the
counter-current diagnostic, reporting sign changes and turning points of
trajectories below the threshold slope, and an independent check on
``d``, ``u'(d)`` and ``u(y)``; where one solver step spans both surface
crossings, Newton steps on its dense output (``numerics.Newton``) find the
first.  Every module after this one reads only :class:`StreamSolution`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import inf, isfinite, pi, sqrt
from sys import float_info

import numpy as np

from . import numerics
from .errors import ConvergenceError, DivergenceError, DomainError
from .vorticity import VorticityDistribution, _horner_rows

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

# relative half-width of the snap window that takes a given slope s for s0:
# there s names the zero margin, which only classes "ii"/"iii" allow
_SNAP = 1e-13

# integration tolerance of :func:`shoot_stream`; a minimum of u below -10 times
# it is a sign change
_SHOT_TOL = 1e-12

# piece layouts kept by :func:`_layout`: few, as the Newton grids of u_at never recur
_LAYOUTS_CACHED = 32


def _named(s0: float, s: float) -> float:
    """The margin ``s^2 - s0^2`` that the float slope ``s`` names, as a
    difference of squares, well conditioned just above ``s0``."""
    return (s - s0) * (s + s0)


def _margin(dist: VorticityDistribution, s: float):
    """Validate ``s`` against the threshold and return ``(sigma2, cls)``;
    ``sigma2`` comes out exactly zero inside the snap window around ``s0``
    (classification "ii"/"iii" only)."""
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
    return _named(s0, s), cls


def _stream_values(p) -> np.ndarray:
    """``p`` as an array clipped to ``[0, 1]``; a value beyond a slack of
    1e-12, or not finite, is a domain error."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
        raise DomainError(f"profile argument outside [0, 1]: {arr!r}")
    return np.clip(arr, 0.0, 1.0)


@lru_cache(maxsize=_LAYOUTS_CACHED)
def _layout(dist: VorticityDistribution, grid: tuple) -> tuple:
    """The pieces of :func:`_accumulate` on ``grid``, as read-only arrays:
    ``[lo, hi]``, the distances ``x_lo`` to ``x_hi`` to the maximizer, the
    grid cell, and the frame tag and gap row of :func:`_gap_rows`, the row
    in the distance itself for a piece that ends at the maximizer."""
    cls = dist.classify()
    peaks = np.array(cls.maximizers)
    cuts = [c for c in [*cls.maximizers, *dist._seg[1:].tolist()] if 0.0 < c < grid[-1]]
    edges = np.array(sorted({0.0, *grid, *cuts}))
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

    tag, rows, terms = _gap_rows(dist, m, e, 0.5 * (x_lo + x_hi))
    rows[anchored, 0], rows[anchored, 1] = 1.0, 0.0
    layout = (lo, hi, x_lo, x_hi, np.searchsorted(grid, b), tag, rows)
    for arr in layout:
        arr.flags.writeable = False
    return (*layout, terms)


def _gap_rows(dist: VorticityDistribution, m, e, x) -> tuple:
    """The gap about the maximizers ``m`` on the sides ``e`` at the distances
    ``x`` (arrays alike), from ``dist._gap_segments``: the frame tags (``2 i
    + 1`` about maximizer ``i`` on its right, ``2 i`` on its left), the rows
    ``(e, m, start, *coef)`` that hold ``x`` (at ``tau``, ``coef`` at ``e (tau
    - m) - start``), and ``terms[tag]``, the ``(k, 2 |c_k|)`` of its first row."""
    peaks = dist.classify().maximizers
    tag = 2 * np.searchsorted(peaks, m) + (e > 0.0)
    terms, rows = [()] * (2 * len(peaks)), np.zeros((len(m), 3 + dist._W.shape[1]))
    rows[:, 0], rows[:, 1] = e, m
    for j in set(tag.tolist()):
        seg, coef = dist._gap_segments(peaks[j // 2], 1.0 if j % 2 else -1.0)
        terms[j] = tuple((k, 2.0 * abs(c)) for k, c in enumerate(coef[0].tolist()) if k and c)
        # a piece, cut at every kink and maximizer, lies in one segment of the gap
        k = np.searchsorted(seg, x[tag == j], side="right") - 1
        rows[tag == j, 2], rows[tag == j, 3:] = seg[k], coef[k]
    return tag, rows, tuple(terms)


def _accumulate(dist: VorticityDistribution, requests, grid) -> np.ndarray:
    """``int_0^p (sigma2 + 2 gap)^power dtau`` at every ``p`` of an increasing
    grid, in row ``k`` for the margin and power ``requests[k] = (sigma2, power)``.

    The one quadrature path of the module: ``d``, ``H``, ``Phi`` and
    ``dPhi/ds`` all come from here, and every piece of every row goes to
    one call of the batched rule.  The layout of the pieces does not depend on ``sigma2``
    and is built once per ``(dist, grid)`` by :func:`_layout`.  Each grid
    cell is cut at the interior segment starts of omega (its kinks) and
    maximizers of Omega (peaks of the integrand), and a piece with a
    maximizer at both ends at its middle, so the rule sees smooth pieces
    with at most one steep end.  ``gap = max Omega - Omega``, evaluated
    directly, loses every digit near a maximizer; so each gap is built
    outward from its nearest maximizer ``m`` without cancellation
    (``dist._gap_segments``), and each piece keeps the row of that form it
    lies in.  A piece that ends at ``m`` is integrated in the distance
    ``x`` to ``m``, any other piece in ``tau``, so that its width keeps
    every digit.

    This is the one place that changes variables.  The layer at ``m``
    where ``sigma2`` and ``2 gap`` are comparable has width
    ``L = (sigma2 / 2 c_k)^(1/k)`` for ``gap ~ c_k x^k`` at its first
    nonzero term; it can be far below any cell width, and a rule whose
    nodes all miss it does not see it.  So a piece ``x_lo <= x <= x_hi``
    with ``x_hi > 2 max(L, x_lo)`` is integrated in ``v = asinh(x / L)``
    (``dx = L cosh v dv``), which maps the layer to ``O(1)`` and the rest
    to a logarithmic scale (the sinh transformation: Johnston and Elliott,
    IJNME 62, 2005), in ``ceil((v1 - v0) / 2)`` equal parts.  ``L`` is
    rounded so that ``v1 = asinh(x_hi / L)`` maps back to ``x_hi`` itself:
    under a linear gap the top end holds most of the integral, and one ulp
    of ``v1`` near 40 moves it by 4e-15.  A zero margin is allowed only
    for ``d`` and ``H`` under "ii"/"iii", at endpoint maximizers where the integrand is
    ``(2 c_1 x)^(-1/2)``, and there every piece is integrated in
    ``v = sqrt(x)`` (``dx = 2 v dv``).  A piece in ``v`` reads the gap at
    ``x`` itself, not at ``tau``.

    Each row has its own ``sigma2``, power and parts.  The rule controls
    the error of each part alone, so every row is bit for bit the one a
    call with that request alone returns.
    """
    margins = [sigma2 for sigma2, _ in requests]
    at_zero = [power for sigma2, power in requests if sigma2 == 0.0]
    if at_zero and not dist.classify().d0_finite:
        raise DivergenceError("d diverges at the zero margin under classification 'i'")
    if min(at_zero, default=0.0) <= -1.0:
        raise DomainError(
            f"Phi and dPhi/ds are not defined at s = s0 = {dist.classify().s0!r}: "
            f"the integrand has a non-integrable endpoint there")
    grid = tuple(np.asarray(grid, dtype=float).tolist())
    lo, hi, x_lo, x_hi, cell, tag, rows, terms = _layout(dist, grid)
    sig, powers = np.array(margins), np.array([power for _, power in requests])
    # the layer width L of every piece i of every row, row after row
    width = np.array([[min(((sigma2 / c) ** (1.0 / j) for j, c in frame), default=inf)
                       for frame in terms] for sigma2 in margins])[:, tag].ravel()
    i = np.arange(width.size) % len(lo)
    x0, x1, a, b = x_lo[i], x_hi[i], lo[i], hi[i]
    # a piece is integrated in v = asinh(x / L) where its layer lies inside
    # it, in v = sqrt(x) at zero margin (where L = 0), and else as laid out
    layer, root = (width > 0.0) & (x1 > 2.0 * np.maximum(width, x0)), width == 0.0
    b[layer] = np.arcsinh(x1[layer] / width[layer])
    width[layer] = x1[layer] / np.sinh(b[layer])  # L to rounding, so that v1 maps to x_hi
    a[layer] = np.arcsinh(x0[layer] / width[layer])
    a[root], b[root] = np.sqrt(x0[root]), np.sqrt(x1[root])
    # scale: L in v = asinh(x / L), -1 in v = sqrt(x), 0 as laid out
    scale = np.where(layer, width, -1.0 * root)
    # part j of the m equal parts of each piece, at most 2 wide in v = asinh(x / L)
    m = np.where(layer, np.ceil(0.5 * (b - a)), 1.0).astype(int)
    slot = np.arange(m.size).repeat(m)
    j = np.arange(slot.size) - (m.cumsum() - m)[slot]
    a, b, m, scale = a[slot], b[slot], m[slot], scale[slot]
    step = (b - a) / m
    a, b = a + j * step, np.where(j + 1 == m, b, a + (j + 1) * step)
    row_of, piece = np.divmod(slot, len(lo))

    def f(t, part):
        k, row = row_of[part], rows[piece[part]]
        x = row[..., 0] * (t - row[..., 1])
        c = scale[part[:, 0]].nonzero()[0]  # the cells in v
        if len(c):
            v, ell = t[c], scale[part[c]]
            # below about 1e-300, v * v and so the gap can underflow to 0
            x[c] = np.where(ell > 0.0, ell * np.sinh(v), np.maximum(v * v, float_info.min))
        gap = _horner_rows(row[..., 3:], x - row[..., 2])
        with np.errstate(over="ignore"):  # an inf is integrate's InvalidIntegrandError
            y = (sig[k] + 2.0 * np.maximum(gap, 0.0)) ** powers[k]
        if len(c):
            y[c] *= np.where(ell > 0.0, ell * np.cosh(v), 2.0 * v)
        return y

    vals = numerics.integrate(f, a, b)
    out = np.bincount(row_of * len(grid) + cell[piece], vals, len(margins) * len(grid))
    # an empty bincount is of integers
    return np.cumsum(out.reshape(len(margins), len(grid)), axis=1, dtype=float)


# whole-column integrals kept by :func:`_totals`: a head landscape reads its
# samples and roots here again, then builds the streams of its roots
_TOTALS_CACHED = 512
_total_memo: OrderedDict = OrderedDict()  # (dist, sigma2, power) -> integral, oldest first


def _totals(dist: VorticityDistribution, requests) -> list:
    """``int_0^1 (sigma2 + 2 gap)^power dtau`` for each ``(sigma2, power)`` of
    ``requests``: from the memo where it holds them, and else from one
    :func:`_accumulate` call for all the rest.

    Each is a pure function of ``(dist, sigma2, power)``, as the quadrature
    tolerances are fixed, and a row of ``_accumulate`` does not depend on
    the other rows of its call, so a kept integral is the one a fresh call
    would return.
    """
    keys = [(dist, sigma2, power) for sigma2, power in requests]
    todo = [key for key in dict.fromkeys(keys) if key not in _total_memo]
    if todo:
        rows = _accumulate(dist, [key[1:] for key in todo], (1.0,))
        _total_memo.update(zip(todo, rows[:, 0].tolist()))
    for key in keys:
        _total_memo.move_to_end(key)
    out = [_total_memo[key] for key in keys]
    while len(_total_memo) > _TOTALS_CACHED:
        _total_memo.popitem(last=False)
    return out


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
    return _totals(dist, [(_margin(dist, s)[0], -0.5)])[0]


def _profile(dist: VorticityDistribution, sigma2: float, power: float, p):
    """``int_0^p (sigma2 + 2 gap)^power dtau`` at each ``p`` (scalar or array),
    from one :func:`_accumulate` call on the distinct values in order."""
    arr = _stream_values(p)
    if not arr.size:
        return arr
    grid, back = np.unique(arr.ravel(), return_inverse=True)
    out = _accumulate(dist, [(sigma2, power)], grid)[0][back]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def phi(dist: VorticityDistribution, s: float, p=1.0):
    """Tail weight ``Phi(p; s) = int_0^p (s^2 - 2 Omega)^(-3/2) dtau`` (scalar or array).

    Strictly decreasing in ``s``; ``Phi(1; s) = 1`` picks out the critical
    slope.  Requires ``s`` strictly above the threshold: at ``s = s0`` the
    ``-3/2`` power is not integrable.
    """
    return _profile(dist, _margin(dist, s)[0], -1.5, p)


def _surface(dist: VorticityDistribution) -> float:
    """``2 (max Omega - Omega(1)) >= 0``, what ``u'(d)^2`` adds to the margin."""
    return 2.0 * max(dist.classify().max_Omega - dist._Omega_scalar(1.0), 0.0)


def surface_slope_squared(dist: VorticityDistribution, s: float) -> float:
    """``u'(d)^2 = s^2 - 2 Omega(1)``, exactly zero when the margin closes."""
    return _margin(dist, s)[0] + _surface(dist)


def _head(dist: VorticityDistribution, sigma2: float, d: float) -> float:
    """Bernoulli head ``(u'(d)^2 + 2 d) / 3`` at the margin ``sigma2`` from its depth ``d``."""
    return (sigma2 + _surface(dist) + 2.0 * d) / 3.0


class StreamSolution:
    """A unidirectional stream solution read from the quadrature.

    The height profile ``H(p; s)`` comes from :func:`_accumulate` at the
    points asked for; the inverse map ``u(y)`` runs a Newton iteration on
    the same quadrature with the exact slope ``H' = (sigma2 + 2 gap)^(-1/2)``.

    A stream is named by exactly one of its slope ``s`` and, keyword only,
    its margin ``sigma2 = s^2 - s0^2`` (finite and ``>= 0``; then ``s =
    sqrt(s0^2 + sigma2)``).  A margin names a stream also where ``s`` lies
    too close to ``s0`` for a float slope to.

    Attributes
    ----------
    s, sigma2, d, r : float
        Bottom slope, margin, depth and Bernoulli head ``(u'(d)^2 + 2 d) / 3``.
    u_prime_d : float
        Surface slope ``sqrt(s^2 - 2 Omega(1))``.
    classification : FlowClassification
    """

    def __init__(self, dist: VorticityDistribution, s: float = None, *, sigma2: float = None):
        if (s is None) == (sigma2 is None):
            raise TypeError("give exactly one of the slope s and the margin sigma2")
        if s is None and not 0.0 <= sigma2 < inf:
            raise DomainError(f"margin sigma2={sigma2!r} is not finite and nonnegative")
        sigma2, cls = _margin(dist, s) if s is not None else (float(sigma2), dist.classify())
        self.dist = dist
        self.s = float(s) if s is not None else sqrt(cls.s0 * cls.s0 + sigma2)
        self.sigma2 = sigma2
        self.classification = cls
        self.s0 = cls.s0
        self.d = _totals(dist, [(sigma2, -0.5)])[0]
        self.u_prime_d = sqrt(sigma2 + _surface(dist))
        self.r = _head(dist, sigma2, self.d)
        self._inverted = (b"", None)  # the last heights given to u_at, and their u

    @cached_property
    def _kink_heights(self) -> np.ndarray:
        """Heights ``H(tau_k)`` of the interior segment starts of omega.

        omega' jumps there, so the transverse grid of ``dispersion`` has
        element bounds there; they are computed once per stream.
        """
        seg = self.dist._seg
        return self.height_at(seg[(seg > 0.0) & (seg < 1.0)])

    @cached_property
    def _nodes(self):
        """``(p, H(p))`` at the Chebyshev-Lobatto nodes, where ``u_at`` starts."""
        p = 0.5 * (1.0 - np.cos(pi * np.arange(_PROFILE_NODES) / (_PROFILE_NODES - 1)))
        p[0], p[-1] = 0.0, 1.0
        return p, _accumulate(self.dist, [(self.sigma2, -0.5)], p)[0]

    # -- profile evaluation ----------------------------------------------------

    def height_at(self, p):
        """``H(p; s)`` from the quadrature (scalar or array)."""
        return _profile(self.dist, self.sigma2, -0.5, p)

    def _speed(self, p):
        """``u' = sqrt(sigma2 + 2 gap(p))`` at stream values ``p``, by the first
        integral, with the gap read as :func:`_accumulate` reads it: about the
        nearest maximizer, free of cancellation beside it."""
        p = np.asarray(p)
        peaks = np.array(self.classification.maximizers)
        m = peaks[np.argmin(np.abs(p[..., None] - peaks), axis=-1)].ravel()
        e = np.where((p.ravel() > m) | (m == 0.0), 1.0, -1.0)
        x = e * (p.ravel() - m)
        rows = _gap_rows(self.dist, m, e, x)[1]
        gap = _horner_rows(rows[:, 3:], x - rows[:, 2]).reshape(p.shape)
        return np.sqrt(self.sigma2 + 2.0 * np.maximum(gap, 0.0))

    def slope_at(self, p):
        """Analytic profile slope ``H'(p) = (sigma2 + 2 gap(p))^(-1/2)``."""
        speed = self._speed(_stream_values(p))
        with np.errstate(divide="ignore"):  # slope at a surface maximizer is inf
            return 1.0 / speed

    def velocity_at(self, y):
        """Horizontal velocity ``u'`` at height ``y``.

        Equal to ``sqrt(sigma2 + 2 gap)`` along the first integral; always
        the nonnegative branch (the solution is unidirectional).
        """
        p = self.u_at(y)
        out = self._speed(p)
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
                resid = _accumulate(self.dist, [(self.sigma2, -0.5)], p)[0] - h
                step = resid * self._speed(p)
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


def solve_stream(dist: VorticityDistribution, s: float = None, *,
                 sigma2: float = None) -> StreamSolution:
    """Construct the stream solution with bottom slope ``s`` or margin ``sigma2``."""
    return StreamSolution(dist, s, sigma2=sigma2)


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
    r : float
        Bernoulli head ``(u'(d)^2 + 2 d) / 3``.
    """

    dist: VorticityDistribution
    s: float
    d: float
    u_prime_d: float
    min_u: float
    min_location: float
    sign_change: bool
    unidirectional: bool
    r: float
    _dense: object = field(repr=False, default=None)

    def _dense_at(self, y, row: int):
        """Row ``row`` (0 for ``u``, 1 for ``u'``) of the dense output at ``y``."""
        arr = np.asarray(y, dtype=float)
        slack = 1e-9 * max(1.0, self.d)
        if not np.all((arr >= -slack) & (arr <= self.d + slack)):
            raise DomainError(f"height outside [0, {self.d!r}]")
        if not arr.size:
            return arr
        out = self._dense(np.clip(np.atleast_1d(arr), 0.0, self.d))[row]
        return float(out[0]) if arr.ndim == 0 else out

    def u_at(self, y):
        """Dense-output evaluation of ``u`` on ``[0, d]``."""
        return self._dense_at(y, 0)

    def velocity_at(self, y):
        """Dense-output evaluation of ``u'`` on ``[0, d]`` (sign included)."""
        return self._dense_at(y, 1)


def shoot_stream(dist: VorticityDistribution, s: float,
                 max_depth: float = 10.0) -> ShotStream:
    """Integrate the bottom-value problem until the surface value is reached.

    The integration tolerance is ``_SHOT_TOL``, which also sets the
    sign-change threshold.  One DOP853 step can span both crossings of
    ``u = 1`` about a maximum of ``u``, which hides them from the surface
    event; the turning event still fires between them, so the surface is
    the crossing on the dense output before the first turning point where
    ``u >= 1``, when that comes before the first crossing the event found.
    Newton steps (:class:`numerics.Newton`) find that crossing between the
    turning point before it (or the bottom) and the peak, with ``u'`` from
    the same dense output.

    Parameters
    ----------
    dist : VorticityDistribution
    s : float
        Bottom slope ``u'(0)``; any finite value, including negative.
    max_depth : float
        Give up (with :class:`ConvergenceError`) if ``u`` never reaches 1
        before this height; must be positive and finite.
    """
    if not (isfinite(s) and 0.0 < max_depth < inf):
        raise DomainError(f"bottom slope s={s!r}, max_depth={max_depth!r}: one is not "
                          f"finite, or max_depth is not positive")
    def rhs(t, y):
        return (y[1], -dist._omega_scalar(y[0]))

    def hit_surface(t, y):
        return y[0] - 1.0

    hit_surface.terminal = True
    hit_surface.direction = 1.0

    def turning(t, y):
        return y[1]

    turning.direction = 0.0

    sol = numerics.solve_ivp(rhs, (0.0, s), (0.0, max_depth), tol=_SHOT_TOL,
                             events=[hit_surface, turning])
    hits, turns = sol.t_events
    peak = next((t for t, y in zip(turns, sol.y_events[1]) if y[0] >= 1.0), inf)
    if hits.size and hits[0] < peak:
        d, u_prime_d = float(hits[0]), float(sol.y_events[0][0][1])
    elif peak < inf:
        # u rises from the turning point before the peak (or the bottom) to it
        lo, hi = float(turns[turns < peak].max(initial=0.0)), float(peak)
        f_lo, f_hi = sol.sol([lo, hi])[0] - 1.0
        search = numerics.Newton(lo, hi, float(f_lo), float(f_hi), 0.5 * (lo + hi), False,
                                 8.9e-16 * hi)

        def surface(open_):
            u, u_prime = sol.sol(open_[0].x)
            return [(float(u) - 1.0, float(u_prime))]

        numerics.run_newton([search], surface)
        d = search.root
        u_prime_d = float(sol.sol(d)[1])
    else:
        u_end, up_end = sol.y[0, -1], sol.y[1, -1]
        raise ConvergenceError(
            f"u never reached 1 before height {max_depth!r}: final state "
            f"u={float(u_end)!r}, u'={float(up_end)!r}")

    edge = 1e-9 * max(1.0, d)
    interior = turns[(turns > edge) & (turns < d - edge)]
    min_u, min_loc = 0.0, 0.0
    if interior.size:
        vals = sol.sol(interior)[0]
        j = int(np.argmin(vals))
        if vals[j] < min_u:
            min_u, min_loc = float(vals[j]), float(interior[j])

    return ShotStream(
        dist=dist,
        s=float(s),
        d=d,
        u_prime_d=u_prime_d,
        min_u=min_u,
        min_location=min_loc,
        sign_change=min_u < -10.0 * _SHOT_TOL,
        unidirectional=interior.size == 0,
        r=(u_prime_d ** 2 + 2.0 * d) / 3.0,
        _dense=sol.sol,
    )
