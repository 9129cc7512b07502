"""Dispersion relation of a stream solution and its least positive root.

For a unidirectional stream with surface slope ``u'(d) != 0`` the linearized
surface condition at wavenumber ``tau`` reads

    sigma(tau) = u'(d) gamma'(d, tau) - 1 / u'(d) + omega(1) ,

where ``gamma`` solves ``-gamma'' + [tau^2 - omega'(u)] gamma = 0`` with
``gamma(0) = 0`` and ``gamma(d) = 1``.  Small-amplitude waves bifurcate at a
simple root ``tau0`` of sigma provided none of its integer multiples up to a
cutoff is also a root (no resonant harmonics).

Every solve of the transverse operator goes through one shooter,
:func:`_shoot`: it carries ``(u, u')`` jointly with the shot ``v``
(``v = 0``, ``v' = 1`` at the start) from the bottom or from the surface,
for one wavenumber or a stacked vector of them.  The growth
``~ exp(tau y)`` is tamed by splitting the column into chunks and
renormalizing ``v`` between them; the shooter alone tracks the scale
factors, so its callers only see the far-end values (whose ratio is
scale-free) and, for a single wavenumber, the normalized profile
``v / v(end)`` and start slope ``v'(start) / v(end)``.  ``gamma`` is the
bottom shot normalized by its surface value; the scan over a tau grid
integrates one stacked system for all wavenumbers at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.integrate as _sint

from . import numerics
from .errors import BracketError, ConvergenceError, DomainError, ResonanceError, VorwavesError
from .stream import StreamSolution

__all__ = [
    "GammaSolution",
    "DispersionResult",
    "gamma_bvp",
    "sigma",
    "find_tau0",
]

# chunk the column so that tau * (chunk span) stays below this exponent;
# the shot then never exceeds ~exp(150) between renormalizations
_CHUNK_EXPONENT = 150.0
_RENORM = 1e100

# |u'(d)| below this fails assumption (I): sigma has a 1/u'(d) term
_SLOPE_FLOOR = 1e-9

_ROOT_ACCEPT = 1e-9
_MULTIPLE_MARGIN = 1e-6


def _warn_piecewise(dist) -> Optional[str]:
    if dist.kind == "table":
        msg = ("piecewise-linear vorticity: using its almost-everywhere "
               "derivative in the linearized operator; the result is formal")
        warnings.warn(msg)
        return msg
    return None


class _Shot(NamedTuple):
    v_end: np.ndarray
    vp_end: np.ndarray
    sample: Optional[Callable[[np.ndarray], np.ndarray]] = None
    start_slope: Optional[float] = None


def _shoot(stream, taus, rtol: float = 1e-12, from_surface: bool = False,
           normalize: bool = False) -> _Shot:
    """Shoot ``(u, u', v, v')`` across the column for every tau in ``taus``.

    ``v`` solves ``-v'' + [tau^2 - omega'(u)] v = 0`` from ``v = 0``,
    ``v' = 1``, starting at the bottom (``u = 0``, ``u' = s``) or, with
    ``from_surface``, at the surface (``u = 1``, ``u' = u'(d)``) and running
    down.  The column is cut into chunks with ``tau * span <= 150`` and
    ``v`` is renormalized between chunks.

    Returns the far-end ``v_end`` and ``vp_end`` per tau, in the scale of
    the last chunk, so only their ratio is meaningful.  ``normalize`` (a
    single tau only) keeps dense output and adds ``sample(y)``, which
    evaluates ``v(y) / v(end)``, and ``start_slope = v'(start) / v(end)``.

    Raises
    ------
    ResonanceError
        With ``normalize``, when the shot vanishes at the far end (``tau^2``
        is a Dirichlet eigenvalue of the linearized operator): no
        normalization exists.
    """
    dist, d = stream.dist, stream.d
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = taus.size
    tau2 = taus * taus
    n_chunks = max(1, int(math.ceil(float(np.max(taus)) * d / _CHUNK_EXPONENT)))
    bounds = np.linspace(d, 0.0, n_chunks + 1) if from_surface else \
        np.linspace(0.0, d, n_chunks + 1)

    def rhs(t, y):
        out = np.empty_like(y)
        u = y[0]
        out[0] = y[1]
        out[1] = -dist._omega_scalar(u)
        out[2:2 + n] = y[2 + n:]
        out[2 + n:] = (tau2 - dist._omega_prime_scalar(u)) * y[2:2 + n]
        return out

    y = np.zeros(2 + 2 * n)
    y[:2] = (1.0, stream.u_prime_d) if from_surface else (0.0, stream.s)
    y[2 + n:] = 1.0
    sols = []
    logs = [np.zeros(n)]  # log of the factor v is divided by, per chunk
    for k in range(n_chunks):
        if k:
            mag = np.maximum(np.abs(y[2:2 + n]), np.abs(y[2 + n:]))
            fac = np.where(mag > _RENORM, mag, 1.0)
            y[2:] /= np.tile(fac, 2)
            logs.append(logs[-1] + np.log(fac))
        sol = _sint.solve_ivp(rhs, (bounds[k], bounds[k + 1]), y,
                              method="DOP853", rtol=rtol, atol=1e-14,
                              dense_output=normalize)
        if not sol.success:
            raise ConvergenceError(
                f"transverse shot failed on [{bounds[k]!r}, {bounds[k+1]!r}]: "
                f"{sol.message}")
        sols.append(sol)
        y = sol.y[:, -1].copy()
    v_end, vp_end = y[2:2 + n], y[2 + n:]
    if not normalize:
        return _Shot(v_end, vp_end)

    tau, v_e, vp_e = float(taus[0]), float(v_end[0]), float(vp_end[0])
    if abs(v_e) <= 1e-10 * max(abs(v_e), abs(vp_e) / max(tau, 1.0), 1e-300):
        ends = ("surface", "bottom") if from_surface else ("bottom", "surface")
        raise ResonanceError(
            f"the transverse shot from the {ends[0]} vanishes at the "
            f"{ends[1]} at tau={tau!r}: Dirichlet resonance of the "
            f"linearized operator; no normalized solution exists")
    log_end = float(logs[-1][0])

    def sample(points: np.ndarray) -> np.ndarray:
        out = np.empty(points.shape)
        for k, sol in enumerate(sols):  # a shared chunk end goes to the later chunk
            lo, hi = sorted(bounds[k:k + 2])
            mask = (points >= lo) & (points <= hi)
            if np.any(mask):
                out[mask] = sol.sol(points[mask])[2] * (
                    math.exp(float(logs[k][0]) - log_end) / v_e)
        return out

    return _Shot(v_end, vp_end, sample, math.exp(-log_end) / v_e)


@dataclass(frozen=True)
class GammaSolution:
    """The normalized transverse mode ``gamma(., tau)`` on ``[0, d]``."""

    tau: float
    grid: np.ndarray
    values: np.ndarray
    derivative_surface: float
    derivative_bottom: float


def gamma_bvp(stream: StreamSolution, tau: float,
              n_samples: int = 257) -> GammaSolution:
    """Solve the transverse mode problem at wavenumber ``tau``.

    The bottom shot (``gamma'(0) = 1``) rescaled so ``gamma(d) = 1``;
    chunked renormalization keeps the exponential growth representable
    at any ``tau``.

    Raises
    ------
    ResonanceError
        When the shot vanishes at the surface (``tau^2`` is a Dirichlet
        eigenvalue of the linearized operator): no normalization exists.
    """
    if tau < 0.0:
        raise DomainError(f"wavenumber tau={tau!r} must be nonnegative")
    _warn_piecewise(stream.dist)
    shot = _shoot(stream, tau, normalize=True)
    grid = np.linspace(0.0, stream.d, n_samples)
    values = shot.sample(grid)
    values[0] = 0.0
    values[-1] = 1.0
    return GammaSolution(
        tau=float(tau),
        grid=grid,
        values=values,
        derivative_surface=float(shot.vp_end[0] / shot.v_end[0]),
        derivative_bottom=shot.start_slope,
    )


def _require_slope(stream: StreamSolution) -> float:
    upd = stream.u_prime_d
    if abs(upd) <= _SLOPE_FLOOR:
        raise DomainError(
            f"surface slope u'(d)={upd!r} vanishes: the dispersion relation "
            f"is undefined (assumption on the surface speed fails)")
    return upd


def sigma(stream: StreamSolution, tau: float) -> float:
    """Dispersion value ``sigma(tau)`` of ``stream``.

    Parameters
    ----------
    stream : StreamSolution
        Must have non-vanishing surface slope.
    tau : float
        Nonnegative wavenumber; ``tau = 0`` is taken as the limit value
        ``u'(d) / d - 1 / u'(d) + omega(1)``.
    """
    if tau < 0.0:
        raise DomainError(f"wavenumber tau={tau!r} must be nonnegative")
    upd = _require_slope(stream)
    _warn_piecewise(stream.dist)
    w1 = stream.dist._omega_scalar(1.0)
    if tau == 0.0:
        return upd / stream.d - 1.0 / upd + w1
    g_d, gp_d = _shoot(stream, tau)[:2]
    if abs(g_d[0]) <= 1e-300 or not math.isfinite(gp_d[0] / g_d[0]):
        raise ResonanceError(
            f"gamma(d) vanishes at tau={tau!r}: dispersion pole")
    return upd * (gp_d[0] / g_d[0]) - 1.0 / upd + w1


@dataclass(frozen=True)
class DispersionResult:
    """Scan of ``sigma`` and the bifurcation wavenumber, if any.

    ``assumption_I`` records that the surface slope does not vanish;
    ``assumption_II`` is true only when a least positive root ``tau0``
    exists and no integer multiple ``k tau0`` (k = 2..k_multiples) is
    also a root within margin.  Whenever ``tau0`` is absent,
    ``assumption_II`` is false.
    """

    stream: StreamSolution
    tau0: Optional[float]
    taus: np.ndarray
    sigmas: np.ndarray
    assumption_I: bool
    assumption_II: bool
    tau_max: float
    k_multiples: int
    notes: tuple


def find_tau0(stream: StreamSolution, tau_max: float = 50.0,
              k_multiples: int = 10, scan_step: float = 0.01) -> DispersionResult:
    """Scan ``sigma`` on ``(0, tau_max]`` for its least positive root.

    The scan grid starts just above zero, steps by ``scan_step``, and each
    sign change is polished by bracketed root finding; a polished candidate
    is accepted only if ``|sigma| < 1e-9`` there (poles produce sign flips
    too and are rejected by this test).  Absence of a root is an answer,
    not an error.
    """
    notes = []
    if abs(stream.u_prime_d) <= _SLOPE_FLOOR:
        notes.append("surface slope vanishes; dispersion relation undefined")
        return DispersionResult(
            stream=stream, tau0=None, taus=np.empty(0), sigmas=np.empty(0),
            assumption_I=False, assumption_II=False,
            tau_max=tau_max, k_multiples=k_multiples, notes=tuple(notes))
    if tau_max <= 0.0:
        raise DomainError(f"tau_max={tau_max!r} must be positive")
    msg = _warn_piecewise(stream.dist)
    if msg:
        notes.append(msg)
    upd = stream.u_prime_d
    w1 = stream.dist._omega_scalar(1.0)
    taus = np.concatenate(([1e-6], np.arange(scan_step, tau_max + 0.5 * scan_step,
                                             scan_step)))
    g_d, gp_d = _shoot(stream, taus, rtol=1e-9)[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = upd * (gp_d / g_d) - 1.0 / upd + w1
    sig = np.where(np.isfinite(sig), sig, np.nan)

    tau0: Optional[float] = None
    for i in range(taus.size - 1):
        a, b = sig[i], sig[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0 and taus[i] <= 1e-6:
            continue
        if a * b > 0.0:
            continue
        try:
            root = numerics.find_root(lambda t: sigma(stream, t),
                                      numerics.Bracket(float(taus[i]),
                                                       float(taus[i + 1])),
                                      tol=1e-13)
            if abs(sigma(stream, root)) < _ROOT_ACCEPT:
                tau0 = root
                break
            notes.append(f"rejected sign change near tau={root!r}: "
                         f"|sigma| stays above {_ROOT_ACCEPT} (pole)")
        except (BracketError, VorwavesError):
            continue
    if tau0 is None:
        notes.append(f"no positive root of sigma on (0, {tau_max!r}]")
        return DispersionResult(
            stream=stream, tau0=None, taus=taus, sigmas=sig,
            assumption_I=True, assumption_II=False,
            tau_max=tau_max, k_multiples=k_multiples, notes=tuple(notes))

    assumption_ii = True
    for k in range(2, k_multiples + 1):
        try:
            val = sigma(stream, k * tau0)
        except VorwavesError:
            continue  # a pole at a multiple is not a root
        if abs(val) <= _MULTIPLE_MARGIN:
            assumption_ii = False
            notes.append(f"sigma({k} * tau0) = {val!r} within margin "
                         f"{_MULTIPLE_MARGIN}: resonant harmonic")
            break
    return DispersionResult(
        stream=stream, tau0=tau0, taus=taus, sigmas=sig,
        assumption_I=True, assumption_II=assumption_ii,
        tau_max=tau_max, k_multiples=k_multiples, notes=tuple(notes))
