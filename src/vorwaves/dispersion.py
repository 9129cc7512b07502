"""Dispersion relation of a stream solution and its least positive root.

For a unidirectional stream with surface slope ``u'(d) != 0`` the linearized
surface condition at wavenumber ``tau`` reads

    sigma(tau) = u'(d) gamma'(d, tau) - 1 / u'(d) + omega(1) ,

where ``gamma`` solves ``-gamma'' + [tau^2 - omega'(u)] gamma = 0`` with
``gamma(0) = 0`` and ``gamma(d) = 1``.  Small-amplitude waves bifurcate at a
simple root ``tau0`` of sigma provided no integer multiple of it is also a
root (no resonant harmonics).

Three facts about a unidirectional stream (``u' > 0`` on ``[0, d]``) fix
where the roots are:

* Differentiating ``u'' + omega(u) = 0`` shows that ``u'`` solves the
  transverse equation at ``tau = 0``.  Since ``u' > 0``, Sturm comparison
  (Picone's identity) makes the Dirichlet operator
  ``-d^2/dy^2 + tau^2 - omega'(u)`` on ``[0, d]`` positive for every
  ``tau >= 0``: ``gamma(d, tau)`` never vanishes and sigma has no poles.
* The Wronskian of the bottom solution with its ``tau^2``-derivative gives
  ``d sigma / d tau = 2 tau u'(d) int_0^d gamma^2 dy > 0``: sigma is
  strictly increasing.
* Reduction of order from ``u'`` gives the long-wave limit
  ``sigma(0+) = (1 / Phi(1; s) - 1) / u'(d)``, because
  ``int_0^d dy / u'^2 = Phi(1; s)`` (Burns's long-wave condition; Burns,
  Proc. Camb. Phil. Soc. 1953; Kozlov & Kuznetsov, ARMA 2014).

So sigma has a positive root exactly when ``Phi(1; s) > 1``, that is when
``s < s_c``; the root is then the only one, and no multiple ``k tau0``
(``k >= 2``) is a root.  :func:`find_tau0` reads the sign of ``sigma(0+)``
from ``Phi`` and takes the root from one eigenvalue, as below.

``-d^2/dy^2 + tau^2 - omega'(u)`` is solved on one spectral-element grid
per stream (Trefethen, *Spectral Methods in MATLAB*, 2000, chapters 6-7):
elements end where ``u`` crosses a kink of omega, carry 25 Chebyshev-Lobatto
points and are bisected to ``tau h <= 4`` and coefficient tails below
``1e-13``.  Each is collocated in integrated form, ``v = v(a) + v'(a)(y -
a) + J^2 v''`` (Greengard, SIAM J. Numer. Anal. 1991), which keeps the
digits the differentiation matrix loses to ``N^4``, and forward
substitution from the bottom or the surface, renormalizing between
elements, solves the block bidiagonal system, so far-end ratios keep their
relative accuracy at any ``tau``.  ``sigma = 0`` means ``gamma'(d) = kappa
= (1/u'(d) - omega(1)) / u'(d)``, so ``tau0^2 = -mu_1``, the one negative
eigenvalue of ``-v'' - omega'(u) v = mu v``, ``v(0) = 0``, ``v'(d) = kappa v(d)``.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConfigError, ConvergenceError, DomainError, ResonanceError
from .stream import StreamSolution, phi
from .vorticity import _horner

__all__ = ["GammaSolution", "DispersionResult", "gamma_bvp", "sigma", "find_tau0"]

# a solve has _N + 1 points per element and bisects to tau h <= _SPAN and
# tails below _TAIL; the eigen solve (only a start for Newton) _EIG_N + 1,
# _EIG_SPAN near the surface and _EIG_TAIL; no element is below d / 2^_MAX_LEVEL
_N, _SPAN, _TAIL, _EIG_N, _EIG_SPAN, _EIG_TAIL, _MAX_LEVEL = 24, 4.0, 1e-13, 16, 12.0, 1e-8, 14

# |u'(d)| below this fails assumption (I): sigma has a 1/u'(d) term
_SLOPE_FLOOR = 1e-9

_MULTIPLE_MARGIN = 1e-6


def _warn_piecewise(dist) -> Optional[str]:
    if dist.kind == "table":
        msg = ("piecewise-linear vorticity: using its almost-everywhere "
               "derivative in the linearized operator; the result is formal")
        warnings.warn(msg)
        return msg
    return None


@functools.lru_cache(maxsize=None)
def _cheb(n: int = _N):
    """Chebyshev-Lobatto points on ``[-1, 1]``, increasing; the differentiation matrix;
    the integration matrix from -1 (last row: Clenshaw-Curtis); values to coefficients."""
    from numpy.polynomial import chebyshev  # deferred: only a transverse solve needs it
    k = np.arange(n + 1)
    x = -np.cos(np.pi * k / n)
    coef = np.linalg.inv(chebyshev.chebvander(x, n))
    diff = chebyshev.chebval(x, chebyshev.chebder(coef)).T
    integ = chebyshev.chebval(x, chebyshev.chebint(coef, lbnd=-1.0)).T
    bary = np.where(k % 2 == 0, 1.0, -1.0) * np.where((k == 0) | (k == n), 0.5, 1.0)
    return x, diff, integ, coef, bary


def _bisect(elements: list, bad) -> list:
    return [piece for (a, b), cut in zip(elements, bad) for piece in
            (((a, 0.5 * (a + b)), (0.5 * (a + b), b)) if cut else ((a, b),))]


def _adapt(stream, tau: float, n: int, span: float, reach: float, limit: float, solve):
    """``solve(elements) -> (result, values, scale, tau)``, bisecting until the
    tails over ``scale`` are below ``limit``, from the elements between 0, the
    kink heights and ``d``, cut to ``tau h <= span`` within ``reach / tau`` of ``d``."""
    d = stream.d
    edges = [0.0, *stream._kink_heights, d]
    elements = list(zip(edges[:-1], edges[1:]))
    while any(bad := [tau * (b - a) > span and (b - a) * 2.0 ** _MAX_LEVEL > d
                      and tau * (d - b) < reach for a, b in elements]):
        elements = _bisect(elements, bad)
    while True:
        result, values, scale, tau = solve(elements)
        tail = np.abs(values @ _cheb(n)[3][-3:].T).max(axis=1) / np.maximum(scale, 1e-300)
        if not (bad := ~(tail <= limit)).any():
            return result
        if any((b - a) * 2.0 ** _MAX_LEVEL <= d for (a, b), cut in zip(elements, bad) if cut):
            raise ConvergenceError(f"the transverse operator at tau={tau!r} is not resolved on "
                                   f"elements of d / 2^{_MAX_LEVEL}: Chebyshev coefficient "
                                   f"tail {float(np.nanmax(tail))!r} above {limit}")
        elements = _bisect(elements, bad)


def _q(stream, elements: list, n: int = _N) -> np.ndarray:
    """omega'(u) at the ``n + 1`` points of each ``(a, b)`` element, from its own
    segment, kept on the stream (``_transverse``); node ``u`` (``u_at``) only
    where omega' varies."""
    kept = vars(stream).setdefault("_transverse", {})
    if new := [el for el in elements if (el, n) not in kept]:
        dist, x = stream.dist, _cheb(n)[0]
        a, b = np.array(new).T
        y = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        y[:, 0], y[:, -1] = a, b
        row = np.searchsorted(stream._kink_heights, a, side="right")
        q = np.repeat(dist._dw[row, :1], x.size, axis=1)
        varies = (dist._dw[row, 1:] != 0.0).any(axis=1)
        if varies.any():
            u = stream.u_at(y[varies].ravel())
            q[varies] = _horner(dist._seg, dist._dw, u).reshape(-1, x.size)
        numerics.tally["collocation_nodes"] += q.size
        kept.update(zip([(el, n) for el in new], q))
    return np.array([kept[el, n] for el in elements])


# v / v(end) at the points of the elements, v'(end) / v(end), v'(start) / v(end) (in y)
_Mode = namedtuple("_Mode", "elements values end_slope start_slope")


def _sample(mode: _Mode, y: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of ``mode`` on the element of each ``y``."""
    x, bary = _cheb()[0], _cheb()[4]
    a, b = np.array(mode.elements).T
    e = np.clip(np.searchsorted(a, y, side="right") - 1, 0, len(a) - 1)
    diff = ((2.0 * y - a[e] - b[e]) / (b[e] - a[e]))[:, None] - x
    w = bary / np.where(diff == 0.0, 1e-300, diff)  # a node hit takes its value
    return (w * mode.values[e]).sum(axis=1) / w.sum(axis=1)


def _solve(stream, tau: float, from_surface: bool = False) -> _Mode:
    """Solve ``-v'' + [tau^2 - omega'(u)] v = 0`` from ``v = 0``, ``v' = 1``
    at the bottom (or the surface): one batched numpy solve gives each
    element its solutions of unit start value and slope, and forward
    substitution carries ``(v, v')`` across.  :class:`ResonanceError` when
    ``v`` vanishes at the far end (``tau^2`` is a Dirichlet eigenvalue)."""
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"wavenumber tau={tau!r} must be finite and nonnegative")
    x, _, integ, _, _ = _cheb()

    def solve(elements):
        numerics.tally["linear_solves"] += 1
        flip = slice(None, None, -1 if from_surface else 1)
        half = 0.5 * np.diff(elements, axis=1)[flip]
        jj = half[:, None] ** 2 * (integ @ integ)
        rate = tau * tau - _q(stream, elements)[flip, flip]
        start = np.stack((np.ones_like(rate), half * (x + 1.0)), axis=-1)
        g = np.linalg.solve(np.eye(x.size) - rate[:, :, None] * jj, rate[:, :, None] * start)
        fund, slope = start + jj @ g, half * (integ[-1] @ g) + (0.0, 1.0)
        state, log = np.array([0.0, 1.0]), 0.0
        starts, logs = np.empty((len(half), 2)), np.empty(len(half))
        for e in range(len(half)):
            starts[e], logs[e] = state, log
            state = np.array([fund[e, -1] @ state, slope[e] @ state])
            if (mag := np.abs(state).max()) > 1e100:
                state, log = state / mag, log + math.log(mag)
        values = np.einsum("ekj,ej->ek", fund, starts)[flip, flip]
        return (elements, values, logs[flip], state, log), values, np.abs(values).max(axis=1), tau

    elements, values, logs, (v_end, vp_end), log = _adapt(stream, tau, _N, _SPAN, math.inf,
                                                          _TAIL, solve)
    if abs(v_end) <= 1e-10 * max(abs(v_end), abs(vp_end) / max(tau, 1.0), 1e-300):
        raise ResonanceError(
            f"the transverse solution from the {('bottom', 'surface')[from_surface]} vanishes at "
            f"the far end at tau={tau!r}: Dirichlet resonance of the linearized operator")
    sign = -1.0 if from_surface else 1.0  # v' is taken in y
    return _Mode(elements, values * (np.exp(logs - log) / v_end)[:, None],
                 float(sign * vp_end / v_end), float(sign * math.exp(-log) / v_end))


def _least_eigenvalue(stream, kappa: float) -> float:
    """``mu_1`` of ``-v'' - omega'(u) v = mu v``, ``v(0) = 0``, ``v'(d) = kappa v(d)``,
    collocated by the differentiation matrix with the bottom, interface and
    surface rows eliminated, by numpy's ``eigvals`` (the eigenvector by one shifted
    inverse iteration).  A large ``kappa`` means a layer of width ``1 / kappa`` at
    the surface, and the grid is graded into it."""
    n, diff = _EIG_N, _cheb(_EIG_N)[1]

    def solve(elements):
        numerics.tally["eigen_solves"] += 1
        size, q = len(elements), _q(stream, elements, n)
        m = size * n + 1
        op, rows = np.zeros((m, m)), np.zeros((size + 1, m))
        rows[0, 0], rows[size, m - 1] = 1.0, -kappa
        for e, (a, b) in enumerate(elements):
            d1, cols = diff * (2.0 / (b - a)), slice(e * n, e * n + n + 1)
            op[e * n + 1:e * n + n, cols] = (-d1 @ d1 - np.diag(q[e]))[1:n]
            rows[e, cols] -= d1[0] if e else 0.0
            rows[e + 1, cols] += d1[n]
        fixed, free = np.arange(size + 1) * n, np.flatnonzero(np.arange(m) % n)
        elim = np.linalg.solve(rows[:, fixed], rows[:, free])
        mat = op[np.ix_(free, free)] - op[np.ix_(free, fixed)] @ elim
        mu, v = float(min(np.linalg.eigvals(mat).real)), np.empty(m)
        shifted = mat - (mu - 1e-10 * max(1.0, abs(mu))) * np.eye(free.size)
        v[free] = np.linalg.solve(shifted, np.ones(free.size))
        v[fixed] = -elim @ v[free]
        blocks = np.lib.stride_tricks.sliding_window_view(v, n + 1)[::n]
        return mu, blocks, np.abs(v).max(), math.sqrt(max(-mu, 0.0))

    return _adapt(stream, max(kappa, 0.0), _EIG_N, _EIG_SPAN, 25.0, _EIG_TAIL, solve)


@dataclass(frozen=True)
class GammaSolution:
    """A normalized transverse mode on ``[0, d]``: ``gamma(., tau)``, with
    ``gamma(0) = 0`` and ``gamma(d) = 1``, or the auxiliary ``w`` of
    ``solve_w_aux``, with ``w(0) = 1`` and ``w(d) = 0``; derivatives are in ``y``."""

    tau: float
    grid: np.ndarray
    values: np.ndarray
    derivative_surface: float
    derivative_bottom: float


def _sampled(stream, tau: float, n_samples: int, from_surface: bool = False) -> GammaSolution:
    """The mode from the bottom (or the surface) over its far-end value, on
    ``linspace(0, d, n_samples)`` with exact end values."""
    if n_samples < 2:
        raise ConfigError(f"n_samples={n_samples} too coarse: the grid needs both ends")
    mode, grid = _solve(stream, tau, from_surface), np.linspace(0.0, stream.d, n_samples)
    values = _sample(mode, grid)
    if from_surface:
        values[0], values[-1] = 1.0, 0.0
        return GammaSolution(float(tau), grid, values, mode.start_slope, mode.end_slope)
    values[0], values[-1] = 0.0, 1.0
    return GammaSolution(float(tau), grid, values, mode.end_slope, mode.start_slope)


def gamma_bvp(stream: StreamSolution, tau: float,
              n_samples: int = 257) -> GammaSolution:
    """Solve the transverse mode problem at wavenumber ``tau``.

    The solve from the bottom over its surface value, on ``linspace(0, d,
    n_samples)``; ``derivative_bottom`` keeps its relative accuracy however small.

    Raises
    ------
    ConfigError
        When ``n_samples < 2``.
    ResonanceError
        When the solution vanishes at the surface (``tau^2`` is a Dirichlet
        eigenvalue of the linearized operator): no normalization exists.
    """
    _warn_piecewise(stream.dist)
    return _sampled(stream, tau, n_samples)


def _require_slope(stream: StreamSolution) -> float:
    upd = stream.u_prime_d
    if abs(upd) <= _SLOPE_FLOOR:
        raise DomainError(
            f"surface slope u'(d)={upd!r} vanishes: assumption I fails, and "
            f"neither the dispersion relation nor the correction problem is "
            f"defined")
    return upd


def _long_wave_limit(stream: StreamSolution) -> float:
    """``sigma(0+) = (1 / Phi(1; s) - 1) / u'(d)``, by reduction of order from ``u'``.

    The caller has checked the surface slope.
    """
    upd = stream.u_prime_d
    if stream.sigma2 == 0.0:
        return -1.0 / upd  # Phi(1; s0) diverges where the margin closes
    return (1.0 / phi(stream.dist, stream.s, 1.0) - 1.0) / upd


def _sigma(stream, mode: _Mode) -> float:
    """``sigma`` from the solve from the bottom at its wavenumber."""
    upd = stream.u_prime_d
    return upd * mode.end_slope - 1.0 / upd + stream.dist._omega_scalar(1.0)


def sigma(stream: StreamSolution, tau: float) -> float:
    """Dispersion value ``sigma(tau)`` of ``stream``.

    Parameters
    ----------
    stream : StreamSolution
        Must have non-vanishing surface slope.
    tau : float
        Nonnegative wavenumber; ``tau = 0`` is taken as the long-wave limit
        ``(1 / Phi(1; s) - 1) / u'(d)``.
    """
    _require_slope(stream)
    _warn_piecewise(stream.dist)
    if tau == 0.0:
        return _long_wave_limit(stream)
    return _sigma(stream, _solve(stream, tau))


@dataclass(frozen=True)
class DispersionResult:
    """The bifurcation wavenumber, if any, and the solves that certify it.

    ``taus`` and ``sigmas`` hold ``tau0 / 2`` and ``2 tau0``, where sigma
    changes sign, or ``tau_max`` and its negative sigma when the root lies
    beyond it; they are empty when ``sigma(0+)`` settled the answer.
    ``assumption_I``: the surface slope does not vanish; ``assumption_II``:
    a root ``tau0`` exists and no ``k tau0`` (k >= 2) is a root within margin.
    """

    stream: StreamSolution
    tau0: Optional[float]
    taus: np.ndarray
    sigmas: np.ndarray
    assumption_I: bool
    assumption_II: bool
    tau_max: float
    notes: tuple


def find_tau0(stream: StreamSolution, tau_max: float = 50.0) -> DispersionResult:
    """The least positive root ``tau0`` of ``sigma`` on ``(0, tau_max]``.

    On a unidirectional stream sigma is strictly increasing and has no
    poles (module docstring).  When ``sigma(0+) = (1 / Phi(1; s) - 1) /
    u'(d)`` is nonnegative there is no positive root and no solve.  Else
    ``tau0^2 = -mu_1`` from the least eigenvalue, polished by Newton steps
    on ``t = tau^2`` with the exact slope ``u'(d) int gamma^2`` (by
    Clenshaw-Curtis weights) until a step is below ``1e-14 t``; sigma at
    ``tau0 / 2`` and ``2 tau0`` certifies the sign change.  A root beyond
    ``tau_max`` is absent, with a note, once sigma there is negative.

    Assumption II needs only sigma at ``2 tau0``: sigma increases, so no
    other multiple can fall within the margin.  Absence of a root is an
    answer, not an error.

    Raises
    ------
    DomainError
        For a nonpositive or non-finite ``tau_max``.
    ConvergenceError
        When Newton does not settle in 9 steps or the certificate fails.
    """
    notes = []

    def done(tau0=None, taus=(), sigmas=(), assumption_i=True, assumption_ii=False):
        return DispersionResult(stream, tau0, np.array(taus, dtype=float),
                                np.array(sigmas, dtype=float), assumption_i,
                                assumption_ii, tau_max, tuple(notes))
    if not 0.0 < tau_max < math.inf:
        raise DomainError(f"tau_max={tau_max!r} must be positive and finite")
    try:
        upd = _require_slope(stream)
    except DomainError:
        notes.append("surface slope vanishes; dispersion relation undefined")
        return done(assumption_i=False)
    if msg := _warn_piecewise(stream.dist):
        notes.append(msg)
    no_root = f"no positive root of sigma on (0, {tau_max!r}]"
    sig0 = _long_wave_limit(stream)
    if sig0 >= 0.0:
        notes.append(no_root)
        return done()

    t = max(-_least_eigenvalue(stream, (1.0 / upd - stream.dist._omega_scalar(1.0)) / upd), 0.0)
    for _ in range(9):
        if t > tau_max * tau_max:
            val = _sigma(stream, _solve(stream, tau_max))
            if val < 0.0:
                notes += [no_root,
                          f"sigma(0+) = {sig0!r} < 0 and sigma increases, so its "
                          f"one positive root lies beyond tau_max = {tau_max!r}"]
                return done(taus=[tau_max], sigmas=[val])
            t = tau_max * tau_max
        mode = _solve(stream, math.sqrt(t))
        norm = np.diff(mode.elements).ravel() @ (mode.values ** 2 @ _cheb()[2][-1]) / 2.0
        step = _sigma(stream, mode) / (upd * norm)
        t = max(t - step, 0.0)
        if abs(step) <= 1e-14 * t:
            break
    else:
        raise ConvergenceError(f"Newton on tau^2 did not settle in 9 steps; last step {step!r}")
    tau0 = math.sqrt(t)
    taus = (0.5 * tau0, 2.0 * tau0)
    lo, hi = (_sigma(stream, _solve(stream, tau)) for tau in taus)
    if not lo < 0.0 < hi:
        raise ConvergenceError(f"sigma does not change sign about tau0={tau0!r}: "
                               f"sigma(tau0/2) = {lo!r}, sigma(2 tau0) = {hi!r}")
    if abs(hi) <= _MULTIPLE_MARGIN:
        notes.append(f"sigma(2 * tau0) = {hi!r} within margin "
                     f"{_MULTIPLE_MARGIN}: resonant harmonic")
    return done(tau0, taus, (lo, hi), True, bool(abs(hi) > _MULTIPLE_MARGIN))
