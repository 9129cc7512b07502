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
from ``Phi`` and takes the root by Newton steps on ``t = tau^2``, as below.

``-d^2/dy^2 + tau^2 - omega'(u)`` is solved on one spectral-element grid
per stream (Trefethen, *Spectral Methods in MATLAB*, 2000, chapters 6-7):
elements end where ``u`` crosses a kink of omega, carry 25 Chebyshev-Lobatto
points and are bisected to ``tau h <= 4`` and coefficient tails below
``1e-13``.  Each is collocated in integrated form, ``v = v(a) + v'(a)(y -
a) + J^2 v''`` (Greengard, SIAM J. Numer. Anal. 1991), which keeps the
digits the differentiation matrix loses to ``N^4``, and forward
substitution from the bottom or the surface, renormalizing between
elements, solves the block bidiagonal system, so far-end ratios keep their
relative accuracy at any ``tau``.

sigma is also concave in ``t = tau^2``.  With ``(lambda_n, phi_n)`` the
Dirichlet eigenpairs of ``-d^2/dy^2 - omega'(u)`` on ``[0, d]``, all
``lambda_n > 0`` by the first fact, Green's identity gives ``<gamma, phi_n> =
-phi_n'(d) / (lambda_n + t)``, so ``int gamma^2 = sum a_n / (lambda_n + t)^2``
with ``a_n = phi_n'(d)^2 > 0`` and ``sigma(t) - sigma(0+) = u'(d) sum a_n
(1/lambda_n - 1/(lambda_n + t))``, a sum of increasing concave terms.  A
tangent therefore lies above sigma: Newton steps from ``t = 0`` rise to the
root without passing it, each point is a lower bound of ``tau0^2``, and a
point beyond ``tau_max^2`` proves that no root lies on ``(0, tau_max]``.
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
from .stream import StreamSolution
from .vorticity import _horner

__all__ = ["GammaSolution", "DispersionResult", "gamma_bvp", "sigma", "find_tau0"]

# a solve has _N + 1 points per element and bisects to tau h <= _SPAN and
# tails below _TAIL; no element is below d / 2^_MAX_LEVEL
_N, _SPAN, _TAIL, _MAX_LEVEL = 24, 4.0, 1e-13, 14

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


@functools.cache
def _cheb():
    """Chebyshev-Lobatto points on ``[-1, 1]``, increasing; the integration matrix
    from -1 (last row: Clenshaw-Curtis); values to coefficients; barycentric weights."""
    k = np.arange(_N + 1)
    sign, x = np.where(k % 2 == 0, 1.0, -1.0), -numerics.lobatto(_N)
    coef = numerics.cheb_fit(_N) * sign[:, None]  # x increases: T_k(-x) = (-1)^k T_k(x)
    # each column's antiderivative, C_k = (c_(k-1) - c_(k+1)) / 2k with c_0 twice, 0 at -1
    c = np.vstack((2.0 * coef[:1], coef[1:], np.zeros((2, k.size))))
    anti = np.vstack((np.zeros(k.size), (c[:-2] - c[2:]) / (2.0 * (k[:, None] + 1.0))))
    anti[0] = -numerics.clenshaw(anti, -1.0)
    integ = numerics.clenshaw(anti, x[:, None])
    bary = sign * np.where((k == 0) | (k == _N), 0.5, 1.0)
    return x, integ, coef, bary


def _bisect(elements: list, bad) -> list:
    return [piece for (a, b), cut in zip(elements, bad) for piece in
            (((a, 0.5 * (a + b)), (0.5 * (a + b), b)) if cut else ((a, b),))]


def _kink_heights(stream) -> np.ndarray:
    """Heights ``H(tau_k)`` of the interior segment starts of omega, kept on
    the stream: omega' jumps there, so elements end there."""
    kept, seg = vars(stream), stream.dist._seg
    if "_kink_heights" not in kept:
        kept["_kink_heights"] = stream.height_at(seg[(seg > 0.0) & (seg < 1.0)])
    return kept["_kink_heights"]


def _q(stream, elements: list) -> np.ndarray:
    """omega'(u) at the points of each ``(a, b)`` element, from its own
    segment, kept on the stream (``_transverse``); node ``u`` (``u_at``) only
    where omega' varies."""
    kept = vars(stream).setdefault("_transverse", {})
    if new := [el for el in elements if el not in kept]:
        dist, x = stream.dist, _cheb()[0]
        a, b = np.array(new).T
        y = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        y[:, 0], y[:, -1] = a, b
        row = np.searchsorted(_kink_heights(stream), a, side="right")
        q = np.repeat(dist._dw[row, :1], x.size, axis=1)
        varies = (dist._dw[row, 1:] != 0.0).any(axis=1)
        if varies.any():
            u = stream.u_at(y[varies].ravel())
            q[varies] = _horner(dist._seg, dist._dw, u).reshape(-1, x.size)
        numerics.tally["collocation_nodes"] += q.size
        kept.update(zip(new, q))
    return np.array([kept[el] for el in elements])


# v / v(end) at the points of the elements, v'(end) / v(end), v'(start) / v(end) (in y)
_Mode = namedtuple("_Mode", "elements values end_slope start_slope")


def _sample(mode: _Mode, y: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of ``mode`` on the element of each ``y``."""
    x, _, _, bary = _cheb()
    a, b = np.array(mode.elements).T
    e = np.clip(np.searchsorted(a, y, side="right") - 1, 0, len(a) - 1)
    diff = ((2.0 * y - a[e] - b[e]) / (b[e] - a[e]))[:, None] - x
    w = bary / np.where(diff == 0.0, 1e-300, diff)  # a node hit takes its value
    return (w * mode.values[e]).sum(axis=1) / w.sum(axis=1)


def _solve(stream, tau: float, from_surface: bool = False) -> _Mode:
    """The mode of :func:`_new_mode`, kept on the stream by ``(tau,
    from_surface)``: the last Newton point of :func:`find_tau0` is the solve
    of ``gamma`` at ``tau0`` that the wave builder and its checks reuse."""
    kept = vars(stream).setdefault("_modes", {})
    if (tau, from_surface) not in kept:
        mode = kept[tau, from_surface] = _new_mode(stream, tau, from_surface)
        mode.values.flags.writeable = False  # every later caller reads this array
    return kept[tau, from_surface]


def _new_mode(stream, tau: float, from_surface: bool) -> _Mode:
    """Solve ``-v'' + [tau^2 - omega'(u)] v = 0`` from ``v = 0``, ``v' = 1``
    at the bottom (or the surface): one batched numpy solve gives each
    element its solutions of unit start value and slope, and forward
    substitution carries ``(v, v')`` across.  The elements lie between 0,
    the kink heights and ``d``, cut to ``tau h <= _SPAN`` and bisected until
    the coefficient tails are below ``_TAIL``.  :class:`ResonanceError` when
    ``v`` vanishes at the far end (``tau^2`` is a Dirichlet eigenvalue)."""
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"wavenumber tau={tau!r} must be finite and nonnegative")
    x, integ, coef, _ = _cheb()
    d, edges = stream.d, [0.0, *_kink_heights(stream), stream.d]
    elements = list(zip(edges[:-1], edges[1:]))
    while any(bad := [tau * (b - a) > _SPAN and (b - a) * 2.0 ** _MAX_LEVEL > d
                      for a, b in elements]):
        elements = _bisect(elements, bad)
    flip = slice(None, None, -1 if from_surface else 1)
    while True:
        numerics.tally["linear_solves"] += 1
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
        tail = (np.abs(values @ coef[-3:].T).max(axis=1)
                / np.maximum(np.abs(values).max(axis=1), 1e-300))
        if not (bad := ~(tail <= _TAIL)).any():
            break
        if any((b - a) * 2.0 ** _MAX_LEVEL <= d for (a, b), cut in zip(elements, bad) if cut):
            raise ConvergenceError(f"the transverse operator at tau={tau!r} is not resolved on "
                                   f"elements of d / 2^{_MAX_LEVEL}: Chebyshev coefficient "
                                   f"tail {float(np.nanmax(tail))!r} above {_TAIL}")
        elements = _bisect(elements, bad)
    (v_end, vp_end), logs = state, logs[flip]
    if abs(v_end) <= 1e-10 * max(abs(v_end), abs(vp_end) / max(tau, 1.0), 1e-300):
        raise ResonanceError(
            f"the transverse solution from the {('bottom', 'surface')[from_surface]} vanishes at "
            f"the far end at tau={tau!r}: Dirichlet resonance of the linearized operator")
    sign = -1.0 if from_surface else 1.0  # v' is taken in y
    return _Mode(elements, values * (np.exp(logs - log) / v_end)[:, None],
                 float(sign * vp_end / v_end), float(sign * math.exp(-log) / v_end))


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
    return (1.0 / stream.phi_at(1.0) - 1.0) / upd


def _sigma(stream, mode: _Mode) -> float:
    """``sigma`` from the solve from the bottom at its wavenumber."""
    upd = stream.u_prime_d
    return upd * mode.end_slope - 1.0 / upd + stream.classification.omega_at_1


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
    :class:`numerics.Newton` steps on ``t = tau^2`` from ``t = 0``, each with
    the value and the exact slope ``u'(d) int gamma^2`` (by Clenshaw-Curtis
    weights) of one solve, until a step is below ``1e-14`` times the first
    Newton point; sigma is concave in ``t``, so every point lies below the
    root (module docstring).  sigma at ``tau0 / 2`` and ``2 tau0`` certifies
    the sign change.  Once a point passes ``tau_max^2``, the root is absent,
    with a note, when sigma at ``tau_max`` is negative.

    Assumption II needs only sigma at ``2 tau0``: sigma increases, so no
    other multiple can fall within the margin.  Absence of a root is an
    answer, not an error.

    Raises
    ------
    DomainError
        For a nonpositive or non-finite ``tau_max``.
    ConvergenceError
        When the Newton steps do not settle in :func:`numerics.run_newton`'s
        100 rounds, or a certificate fails: sigma does not change sign
        between ``tau0 / 2`` and ``2 tau0``, or is not negative at
        ``tau_max`` once a Newton point has passed it.
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

    def newton_value(t):
        if t > tau_max * tau_max:  # a Newton point is below the root: none on (0, tau_max]
            return 0.0, 1.0
        mode = _solve(stream, math.sqrt(t))
        norm = np.diff(mode.elements).ravel() @ (mode.values ** 2 @ _cheb()[1][-1]) / 2.0
        return _sigma(stream, mode), upd * norm

    t1 = -sig0 / newton_value(0.0)[1]
    search = numerics.Newton(0.0, math.inf, sig0, math.inf, t1, 1e-14 * t1)
    numerics.run_newton([search], lambda open_: [newton_value(open_[0].x)])
    if search.root > tau_max * tau_max:
        val = _sigma(stream, _solve(stream, tau_max))
        if not val < 0.0:
            raise ConvergenceError(f"Newton on tau^2 passed tau_max = {tau_max!r} at "
                                   f"t = {float(search.root)!r}, yet sigma(tau_max) = {val!r}")
        notes += [no_root,
                  f"sigma(0+) = {sig0!r} < 0 and sigma increases, so its "
                  f"one positive root lies beyond tau_max = {tau_max!r}"]
        return done(taus=[tau_max], sigmas=[val])
    tau0 = math.sqrt(search.root)
    taus = (0.5 * tau0, 2.0 * tau0)
    lo, hi = (_sigma(stream, _solve(stream, tau)) for tau in taus)
    if not lo < 0.0 < hi:
        raise ConvergenceError(f"sigma does not change sign about tau0={tau0!r}: "
                               f"sigma(tau0/2) = {lo!r}, sigma(2 tau0) = {hi!r}")
    if abs(hi) <= _MULTIPLE_MARGIN:
        notes.append(f"sigma(2 * tau0) = {hi!r} within margin "
                     f"{_MULTIPLE_MARGIN}: resonant harmonic")
    return done(tau0, taus, (lo, hi), True, bool(abs(hi) > _MULTIPLE_MARGIN))
