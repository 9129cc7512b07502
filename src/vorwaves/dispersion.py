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
* The Wronskian of the bottom shot with its ``tau^2``-derivative gives
  ``d sigma / d tau = 2 tau u'(d) int_0^d gamma^2 dy > 0``: sigma is
  strictly increasing.
* Reduction of order from ``u'`` gives the long-wave limit
  ``sigma(0+) = (1 / Phi(1; s) - 1) / u'(d)``, because
  ``int_0^d dy / u'^2 = Phi(1; s)`` (Burns's long-wave condition; Burns,
  Proc. Camb. Phil. Soc. 1953; Kozlov & Kuznetsov, ARMA 2014).

So sigma has a positive root exactly when ``Phi(1; s) > 1``, that is when
``s < s_c``; the root is then the only one, and no multiple ``k tau0``
(``k >= 2``) is a root.  :func:`find_tau0` reads the sign of ``sigma(0+)``
from ``Phi``, brackets the root by a geometric walk upward and polishes it
with one Brent search.

Every solve of the transverse operator goes through one shooter,
:func:`_shoot`: it carries ``(u, u')`` jointly with the shot ``v``
(``v = 0``, ``v' = 1`` at the start) from the bottom or from the surface,
at one wavenumber, with scipy's compiled DOP853 (``scipy.integrate.ode``).
The growth ``~ exp(tau y)`` is tamed by splitting the column into chunks
and renormalizing ``v`` between them; on a stream solution the chunks are
also cut where ``u`` crosses a kink of omega, and each chunk reads omega'
from its own segment only.  The shooter alone tracks the scale factors,
so its callers only see the far-end values (whose ratio is scale-free)
and, on request, the normalized profile ``v / v(end)`` on a uniform grid,
where the shot stops, and the start slope ``v'(start) / v(end)``.
``gamma`` is the bottom shot normalized by its surface value.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numerics
from .errors import ConvergenceError, DomainError, ResonanceError
from .stream import ShotStream, StreamSolution, phi

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
# step cap of one DOP853 run; a chunk takes a few hundred steps
_MAX_STEPS = 100_000

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


class _Shot(NamedTuple):
    v_end: float
    vp_end: float
    values: Optional[np.ndarray] = None
    start_slope: Optional[float] = None


def _shoot(stream, tau: float, from_surface: bool = False,
           n_samples: int = 0) -> _Shot:
    """Shoot ``(u, u', v, v')`` across the column at wavenumber ``tau``.

    ``v`` solves ``-v'' + [tau^2 - omega'(u)] v = 0`` from ``v = 0``,
    ``v' = 1``, starting at the bottom (``u = 0``, ``u' = s``) or, with
    ``from_surface``, at the surface (``u = 1``, ``u' = u'(d)``) and running
    down.  The column is cut into chunks with ``tau * span <= 150``, and a
    stream solution also at the heights ``H(tau_k)`` of the interior
    segment starts of omega, where omega' jumps; each such chunk evaluates
    only its own segment, so no step sees the jump.  Each chunk is a run of
    scipy's compiled DOP853 (``rtol 1e-12``, ``atol 1e-14``), and ``v`` is
    renormalized between chunks.  The run stops at every point of
    ``linspace(0, d, n_samples)`` in its chunk in turn.

    Returns the far-end ``v_end`` and ``vp_end``, in the scale of the last
    chunk, so only their ratio is meaningful.  With ``n_samples``, it adds
    ``values``, ``v / v(end)`` on that grid, and
    ``start_slope = v'(start) / v(end)``.  The accepted steps and
    right-hand-side calls go to ``numerics.tally``.

    Raises
    ------
    ConvergenceError
        When a chunk's run fails, naming the chunk.
    ResonanceError
        With ``n_samples``, when the shot vanishes at the far end
        (``tau^2`` is a Dirichlet eigenvalue of the linearized operator):
        no normalization exists.
    """
    import scipy.integrate  # deferred: only a shot pays for scipy

    dist, d = stream.dist, stream.d
    tau2 = tau * tau
    n_chunks = max(1, math.ceil(tau * d / _CHUNK_EXPONENT))
    # a shot stream may turn around and cross a kink value more than once,
    # so it has no single kink height; it is cut at the chunk bounds only
    cut = isinstance(stream, StreamSolution)
    kinks = stream._kink_heights if cut else ()
    bounds = np.unique(np.concatenate((np.linspace(0.0, d, n_chunks + 1), kinks)))
    grid = np.linspace(0.0, d, n_samples)
    stops = np.unique(np.concatenate((bounds, grid)))
    if from_surface:
        stops = stops[::-1]
    restart, sampled = np.isin(stops, bounds), np.isin(stops, grid)
    slot = np.searchsorted(grid, stops)

    # omega and omega' at u = base + x: one segment's rows on a chunk of a
    # cut shot, so no step sees the jump of omega' at either end of it
    base, w, dw = 0.0, dist._omega_scalar, dist._omega_prime_scalar

    def rhs(t, y):
        x = y[0] - base
        return (y[1], -w(x), y[3], (tau2 - dw(x)) * y[2])

    solver = scipy.integrate.ode(rhs).set_integrator(
        "dop853", rtol=1e-12, atol=1e-14, nsteps=_MAX_STEPS)
    start = (1.0, stream.u_prime_d) if from_surface else (0.0, stream.s)
    y = np.array(start + (0.0, 1.0))
    log = 0.0  # log of the factor v is divided by
    samples, logs = np.zeros(n_samples), np.zeros(n_samples)
    for k in range(1, len(stops)):
        if restart[k - 1]:
            mag = max(abs(y[2]), abs(y[3]))
            if mag > _RENORM:
                y[2:] /= mag
                log += math.log(mag)
            chunk = stops[k - 1]
            if cut:
                seg = np.searchsorted(kinks, min(chunk, stops[k]), side="right")
                base = float(dist._seg[seg])
                w, dw = dist._segment_scalars[seg]
            solver.set_initial_value(y, chunk)
        y = solver.integrate(stops[k])
        # Hairer's IWORK layout: 17 right-hand-side calls, 19 accepted steps
        work = solver._integrator.iwork
        numerics.tally["ode_rhs_evals"] += int(work[16])
        numerics.tally["ode_steps"] += int(work[18])
        if not solver.successful():
            raise ConvergenceError(
                f"transverse shot failed in the chunk from y={float(chunk)!r}, "
                f"before y={float(stops[k])!r}, at tau={tau!r}: DOP853 return code "
                f"{solver.get_return_code()}")
        if sampled[k]:
            samples[slot[k]], logs[slot[k]] = y[2], log
    v_end, vp_end = float(y[2]), float(y[3])
    if not n_samples:
        return _Shot(v_end, vp_end)

    if abs(v_end) <= 1e-10 * max(abs(v_end), abs(vp_end) / max(tau, 1.0), 1e-300):
        ends = ("surface", "bottom") if from_surface else ("bottom", "surface")
        raise ResonanceError(
            f"the transverse shot from the {ends[0]} vanishes at the "
            f"{ends[1]} at tau={tau!r}: Dirichlet resonance of the "
            f"linearized operator; no normalized solution exists")
    values = samples * (np.exp(logs - log) / v_end)
    return _Shot(v_end, vp_end, values, math.exp(-log) / v_end)


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
    shot = _shoot(stream, tau, n_samples=n_samples)
    grid = np.linspace(0.0, stream.d, n_samples)
    values = shot.values
    values[0] = 0.0
    values[-1] = 1.0
    return GammaSolution(
        tau=float(tau),
        grid=grid,
        values=values,
        derivative_surface=shot.vp_end / shot.v_end,
        derivative_bottom=shot.start_slope,
    )


def _require_slope(stream: StreamSolution) -> float:
    upd = stream.u_prime_d
    if abs(upd) <= _SLOPE_FLOOR:
        raise DomainError(
            f"surface slope u'(d)={upd!r} vanishes: assumption I fails, and "
            f"neither the dispersion relation nor the correction problem is "
            f"defined")
    return upd


def _long_wave_limit(stream) -> float:
    """``sigma(0+) = (1 / Phi(1; s) - 1) / u'(d)``, by reduction of order from ``u'``.

    The caller has checked the surface slope.  Raises :class:`DomainError`
    for a shot stream that is not unidirectional: ``u'`` vanishes inside
    the column, so ``1 / u'^2`` is not integrable and neither the limit nor
    the module's root facts hold.
    """
    if isinstance(stream, ShotStream) and not stream.unidirectional:
        raise DomainError(
            f"the stream with s={stream.s!r} is not unidirectional: u' "
            f"vanishes inside the column, so sigma may have poles and "
            f"several roots; only unidirectional streams are supported")
    upd = stream.u_prime_d
    if isinstance(stream, StreamSolution) and stream.sigma2 == 0.0:
        return -1.0 / upd  # Phi(1; s0) diverges where the margin closes
    return (1.0 / phi(stream.dist, stream.s, 1.0) - 1.0) / upd


def _sigma(stream, tau: float) -> float:
    """``sigma(tau)`` for ``tau >= 0`` by one shot from the bottom."""
    upd = stream.u_prime_d
    v_end, vp_end = _shoot(stream, tau)[:2]
    if abs(v_end) <= 1e-300 or not math.isfinite(vp_end / v_end):
        raise ResonanceError(
            f"gamma(d) vanishes at tau={tau!r}: dispersion pole")
    return upd * (vp_end / v_end) - 1.0 / upd + stream.dist._omega_scalar(1.0)


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
    if tau < 0.0:
        raise DomainError(f"wavenumber tau={tau!r} must be nonnegative")
    _require_slope(stream)
    _warn_piecewise(stream.dist)
    if tau == 0.0:
        return _long_wave_limit(stream)
    return _sigma(stream, tau)


@dataclass(frozen=True)
class DispersionResult:
    """The bifurcation wavenumber, if any, and the shots that located it.

    ``taus`` and ``sigmas`` record the points the bracket evaluated: the
    first shot at ``1e-6`` and each step of the geometric walk, in
    increasing order.  They are empty when the sign of ``sigma(0+)``
    settled the answer without a shot; the Brent iterates are not recorded.
    ``assumption_I`` records that the surface slope does not vanish;
    ``assumption_II`` is true only when a least positive root ``tau0``
    exists and no integer multiple ``k tau0`` (k >= 2) is also a root
    within margin.  Whenever ``tau0`` is absent,
    ``assumption_II`` is false.
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
    poles (module docstring), so its root is found in three steps:

    1. ``sigma(0+) = (1 / Phi(1; s) - 1) / u'(d)`` decides.  When it is
       nonnegative there is no positive root, and no shot is taken.
    2. Otherwise sigma is shot at ``1e-6`` and then walked upward
       geometrically (``1/d``, ``2/d``, ``4/d``, ... capped at ``tau_max``)
       until it is nonnegative.  A walk that reaches ``tau_max`` with
       sigma still negative reports no root, with a note that the root
       lies beyond ``tau_max``.
    3. One Brent search (``tol = 1e-13``) on the last step of the walk,
       every sigma one shot at ``rtol = 1e-12``.

    Assumption II takes one shot, at ``2 tau0``: sigma increases, so
    ``sigma(k tau0) > sigma(2 tau0) > 0`` for every ``k > 2``, and
    ``2 tau0`` is the only multiple that can fall within the margin.
    Absence of a root is an answer, not an error.

    Raises
    ------
    DomainError
        For a shot stream that is not unidirectional, which the argument
        does not cover, and for a nonpositive ``tau_max``.
    """
    done = functools.partial(DispersionResult, stream=stream, tau_max=tau_max)
    notes = []
    try:
        _require_slope(stream)
    except DomainError:
        notes.append("surface slope vanishes; dispersion relation undefined")
        return done(tau0=None, taus=np.empty(0), sigmas=np.empty(0),
                    assumption_I=False, assumption_II=False, notes=tuple(notes))
    if tau_max <= 0.0:
        raise DomainError(f"tau_max={tau_max!r} must be positive")
    msg = _warn_piecewise(stream.dist)
    if msg:
        notes.append(msg)
    no_root = f"no positive root of sigma on (0, {tau_max!r}]"
    sig0 = _long_wave_limit(stream)
    if sig0 >= 0.0:
        notes.append(no_root)
        return done(tau0=None, taus=np.empty(0), sigmas=np.empty(0),
                    assumption_I=True, assumption_II=False, notes=tuple(notes))

    lo, f_lo = 0.0, sig0  # the bracket if sigma(1e-6) is already >= 0
    tau = 1e-6
    shots = {tau: _sigma(stream, tau)}
    while shots[tau] < 0.0 and tau < tau_max:
        lo, f_lo = tau, shots[tau]
        tau = min(max(2.0 * tau, 1.0 / stream.d), tau_max)
        shots[tau] = _sigma(stream, tau)
    taus = np.array(list(shots))
    sigmas = np.array(list(shots.values()))
    if shots[tau] < 0.0:
        notes += [no_root,
                  f"sigma(0+) = {sig0!r} < 0 and sigma increases, so its "
                  f"one positive root lies beyond tau_max = {tau_max!r}"]
        return done(tau0=None, taus=taus, sigmas=sigmas,
                    assumption_I=True, assumption_II=False, notes=tuple(notes))

    tau0 = numerics.find_root(
        lambda t: shots[t] if t in shots else _sigma(stream, t),
        numerics.Bracket(lo, tau, f_lo, shots[tau]), tol=1e-13)
    val = _sigma(stream, 2.0 * tau0)
    assumption_ii = abs(val) > _MULTIPLE_MARGIN
    if not assumption_ii:
        notes.append(f"sigma(2 * tau0) = {val!r} within margin "
                     f"{_MULTIPLE_MARGIN}: resonant harmonic")
    return done(tau0=tau0, taus=taus, sigmas=sigmas,
                assumption_I=True, assumption_II=assumption_ii, notes=tuple(notes))
