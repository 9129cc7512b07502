"""First-order periodic waves on a stream background.

Solves the forced correction problem whose cosine mode rides on top of a
stream solution, the auxiliary two-point problem used to certify the
correction's bottom derivative, and samples the resulting wave field over
one wavelength.  A sign-change detector reports counter-currents in any
of the sampled objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .dispersion import DispersionResult, _require_slope, _sample, _solve, gamma_bvp
from .errors import ConfigError, DomainError
from .stream import ShotStream, StreamSolution

__all__ = [
    "WCorrection",
    "AuxSolution",
    "BottomSlopeCheck",
    "LinearWave",
    "WaveField",
    "SignChange",
    "solve_W",
    "solve_w_aux",
    "check_Wprime0",
    "linear_wave",
    "build_wave",
    "detect_sign_change",
]

_AMPLITUDE_CAP = 0.05  # |t| <= cap * d
_SURFACE_IDENTITY_TOL = 1e-5

AnyStream = Union[StreamSolution, ShotStream]


@dataclass(frozen=True)
class WCorrection:
    """Solution of the forced correction problem at wavenumber ``tau``.

    ``-W'' + [tau^2 - omega'(u)] W = [y u' tau^2 + 2 omega(u)] / d`` on
    ``(0, d)`` with ``W(0) = W(d) = 0``.  Built by superposition: the
    exact particular solution ``y u'(y) / d`` minus ``u'(d)`` times the
    normalized transverse mode, so the boundary values vanish identically.

    Attributes
    ----------
    derivative_bottom, derivative_surface : float
        ``W'(0)`` and ``W'(d)``.
    surface_identity_gap : float
        ``|W'(d) - (u'(d)/d - 1/u'(d))|``.  The closed form holds exactly
        at a dispersion root, so this gap doubles as a measure of how far
        ``tau`` is from one; ``surface_identity_ok`` flags gaps over 1e-5.
    """

    tau: float
    grid: np.ndarray
    values: np.ndarray
    derivative_bottom: float
    derivative_surface: float
    surface_identity_gap: float
    surface_identity_ok: bool


@dataclass(frozen=True)
class AuxSolution:
    """Homogeneous solution with unit bottom value vanishing at the surface.

    ``-w'' + [tau^2 - omega'(u)] w = 0`` on ``(0, d)``, ``w(0) = 1``,
    ``w(d) = 0``; ``derivative_surface`` is ``w'(d)``.
    """

    tau: float
    grid: np.ndarray
    values: np.ndarray
    derivative_surface: float


@dataclass(frozen=True)
class BottomSlopeCheck:
    """Cross-checks of the correction's bottom derivative ``W'(0)``.

    Two closed-form combinations of the auxiliary surface slope are
    reported against the computed ``W'(0)``: the product form
    ``d u'(d) w'(d)`` and the superposition form
    ``u'(0)/d + u'(d) w'(d)``.  ``solve_W`` builds
    ``W = y u'/d - u'(d) gamma``, and the Wronskian of ``gamma`` and ``w``
    is constant, so ``gamma'(0) = -w'(d)``: the superposition form is
    exact and reproduces ``W'(0)`` to solver accuracy for every
    admissible input.  The product form differs from it by the
    bottom-shear term and a depth factor, so its discrepancy is generally
    O(1).  Both are kept so the result shows the comparison rather than
    hiding it.

    Attributes
    ----------
    discrepancy : float
        The product-form gap ``|W'(0) - d u'(d) w'(d)|``.  It is O(1) by
        construction, so it is not the error of the check.
    superposition_discrepancy : float
        ``|W'(0) - (u'(0)/d + u'(d) w'(d))|``: the error of the check.
    """

    tau: float
    derivative_bottom: float
    product_value: float
    discrepancy: float
    superposition_value: float
    superposition_discrepancy: float
    nonzero: bool
    skipped: bool
    note: str


@dataclass(frozen=True)
class LinearWave:
    """A first-order wave: base stream, wavenumber, correction, amplitude.

    ``lam`` is the higher-order wavelength shift, truncated to zero here;
    the omitted remainder is first order in the amplitude.
    """

    stream: AnyStream
    tau0: float
    correction: WCorrection
    amplitude: float
    lam: float
    wavelength: float


@dataclass(frozen=True)
class WaveField:
    """Sampled stream function of a first-order wave over one wavelength.

    ``psi[i, j]`` is the sample at ``(x[j], y[i, j])``; each column of
    ``y`` runs from the bottom to the free surface ``eta[j]``.  The bottom
    row is exactly 0 and the surface row exactly 1 by construction.
    """

    x: np.ndarray
    eta: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    r: float
    s: float
    t: float
    tau0: float
    lam: float
    wavelength: float


@dataclass(frozen=True)
class SignChange:
    """Whether sampled flow values dip below zero, and where."""

    changes_sign: bool
    min_value: float
    location: Union[float, Tuple[float, float]]


def solve_W(stream: AnyStream, tau: float, n_samples: int = 257) -> WCorrection:
    """Solve the forced correction problem at wavenumber ``tau``.

    Parameters
    ----------
    stream : StreamSolution or ShotStream
        Background flow; must have non-vanishing surface slope.
    tau : float
        Nonnegative wavenumber.  The endpoint-derivative closed form is
        only exact at a dispersion root; elsewhere the gap is recorded on
        the result rather than raised.

    Raises
    ------
    ResonanceError
        When ``tau**2`` is a Dirichlet eigenvalue of the transverse
        operator: the two-point problem loses uniqueness there.
    """
    upd = _require_slope(stream)
    gam = gamma_bvp(stream, tau, n_samples=n_samples)
    y = gam.grid
    d = stream.d
    uprime = stream.velocity_at(y)
    values = y * (uprime / d) - upd * gam.values
    values[0] = 0.0
    values[-1] = 0.0
    omega1 = stream.dist._omega_scalar(1.0)
    deriv_bottom = stream.s / d - upd * gam.derivative_bottom
    deriv_surface = upd / d - omega1 - upd * gam.derivative_surface
    target = upd / d - 1.0 / upd
    gap = abs(deriv_surface - target)
    return WCorrection(
        tau=float(tau),
        grid=y,
        values=values,
        derivative_bottom=float(deriv_bottom),
        derivative_surface=float(deriv_surface),
        surface_identity_gap=float(gap),
        surface_identity_ok=bool(gap <= _SURFACE_IDENTITY_TOL),
    )


def solve_w_aux(stream: AnyStream, tau: float, n_samples: int = 257) -> AuxSolution:
    """Solve the auxiliary problem ``w(0) = 1``, ``w(d) = 0``.

    The transverse solve from the surface (``v(d) = 0``, ``v'(d) = 1``) over its
    bottom value, ``w = v / v(0)``, ``w'(d) = 1 / v(0)``; ``w`` grows toward the
    bottom, as the solve runs, so ``w'(d)`` keeps its relative accuracy at any ``tau d``.

    Raises
    ------
    ResonanceError
        When the solution vanishes at the bottom too: no unique solution.
    """
    mode, grid = _solve(stream, tau, from_surface=True), np.linspace(0.0, stream.d, n_samples)
    values = _sample(mode, grid)
    values[0], values[-1] = 1.0, 0.0
    return AuxSolution(float(tau), grid, values, mode.start_slope)


def check_Wprime0(stream: AnyStream, tau0) -> BottomSlopeCheck:
    """Compare the numeric ``W'(0)`` with its closed-form certificates.

    The nonzero flag is what downstream sign-change arguments consume: a
    nonzero bottom derivative of the correction forces the combined flow
    to change sign for small amplitudes once the base slope vanishes.

    A degenerate wavenumber (``tau0`` None or 0) skips the comparison
    with a diagnostic note: the correction problem changes character at
    ``tau = 0`` and the endpoint identity has no content there.
    """
    if tau0 is None or tau0 <= 0.0:
        nan = float("nan")
        return BottomSlopeCheck(
            tau=0.0 if tau0 is None else float(tau0),
            derivative_bottom=nan, product_value=nan, discrepancy=nan,
            superposition_value=nan, superposition_discrepancy=nan,
            nonzero=False, skipped=True,
            note="degenerate wavenumber: the correction problem changes "
                 "character at tau = 0, so the endpoint comparison is "
                 "skipped")
    corr = solve_W(stream, tau0)
    aux = solve_w_aux(stream, tau0)
    wpd = aux.derivative_surface
    d, upd = stream.d, stream.u_prime_d
    numeric = corr.derivative_bottom
    product = d * upd * wpd
    superpos = stream.s / d + upd * wpd
    return BottomSlopeCheck(
        tau=float(tau0),
        derivative_bottom=numeric,
        product_value=product,
        discrepancy=abs(numeric - product),
        superposition_value=superpos,
        superposition_discrepancy=abs(numeric - superpos),
        nonzero=bool(abs(numeric) > 1e-9),
        skipped=False,
        note="",
    )


def linear_wave(stream: AnyStream, disp: DispersionResult, t: float,
                n_samples: int = 257) -> LinearWave:
    """Assemble the first-order wave at the dispersion root of ``disp``.

    Requires ``find_tau0`` to have certified both assumptions: a
    non-vanishing surface slope and a least root whose multiples stay off
    the dispersion curve.  The amplitude is capped at 5% of the depth; the
    construction only controls the remainder for small ``t``.
    """
    if disp.tau0 is None or not disp.assumption_I or not disp.assumption_II:
        raise DomainError(
            f"no admissible wavenumber: the dispersion root search reports "
            f"tau0={disp.tau0!r} (assumption I {disp.assumption_I}, "
            f"assumption II {disp.assumption_II})")
    d = stream.d
    if abs(t) > _AMPLITUDE_CAP * d:
        raise ConfigError(
            f"amplitude t={t!r} exceeds {_AMPLITUDE_CAP} * d = "
            f"{_AMPLITUDE_CAP * d!r}; the first-order construction does "
            f"not control the remainder there")
    corr = solve_W(stream, disp.tau0, n_samples=n_samples)
    return LinearWave(stream=stream, tau0=float(disp.tau0), correction=corr,
                      amplitude=float(t), lam=0.0,
                      wavelength=2.0 * math.pi / float(disp.tau0))


def build_wave(stream: AnyStream, disp: DispersionResult, t: float,
               n_x: int = 129, n_y: int = 129) -> WaveField:
    """Sample the wave over one wavelength on a tensor grid.

    The surface is ``eta(x) = d + t cos(tau0 x)`` and the field is the
    base profile plus the cosine-modulated correction, both evaluated at
    the ordinate rescaled column by column onto ``[0, d]``:
    ``psi(x, y) = u(y d / eta) + t cos(tau0 x) W(y d / eta)``.

    The x-grid is uniform in phase, so the crest ``d + t`` and trough
    ``d - t`` land on grid points exactly; the bottom and surface rows of
    ``psi`` are exactly 0 and 1.
    """
    if n_x < 2 or n_y < 2:
        raise ConfigError(f"grid must be at least 2x2, got {n_y}x{n_x}")
    wave = linear_wave(stream, disp, t, n_samples=n_y)
    d = stream.d
    theta = np.linspace(0.0, 2.0 * math.pi, n_x)
    x = theta / wave.tau0
    eta = d + t * np.cos(theta)
    yt = wave.correction.grid
    u = np.atleast_1d(np.asarray(stream.u_at(yt), dtype=float))
    u[0] = 0.0
    u[-1] = 1.0
    amp = t * np.cos(theta)
    psi = u[:, None] + wave.correction.values[:, None] * amp[None, :]
    y = yt[:, None] * (eta[None, :] / d)
    y[-1, :] = eta
    return WaveField(x=x, eta=eta, y=y, psi=psi, r=stream.r, s=stream.s,
                     t=float(t), tau0=wave.tau0, lam=0.0,
                     wavelength=wave.wavelength)


def detect_sign_change(source) -> SignChange:
    """Scan sampled flow values for a dip below zero.

    Accepts a wave field (scans ``psi``, reports an ``(x, y)`` location),
    a shot stream (reuses its recorded minimum and tolerance) or a stream
    solution (monotone profile: the minimum is the bottom value, exactly
    zero).  The flag trips when the minimum falls below ten times the
    construction tolerance.
    """
    if isinstance(source, WaveField):
        idx = np.unravel_index(int(np.argmin(source.psi)), source.psi.shape)
        mn = float(source.psi[idx])
        tol = 1e-9 * max(1.0, float(np.max(source.eta)))
        return SignChange(
            changes_sign=bool(mn < -10.0 * tol),
            min_value=mn,
            location=(float(source.x[idx[1]]), float(source.y[idx])),
        )
    if isinstance(source, ShotStream):
        return SignChange(changes_sign=bool(source.sign_change),
                          min_value=float(source.min_u),
                          location=float(source.min_location))
    if isinstance(source, StreamSolution):
        return SignChange(changes_sign=False, min_value=0.0, location=0.0)
    raise ConfigError(
        f"cannot scan {type(source).__name__!r} for sign changes; expected "
        f"a wave field or a stream")
