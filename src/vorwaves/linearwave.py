"""First-order periodic waves on a stream background.

Solves the forced correction problem whose cosine mode rides on top of a
stream solution and the auxiliary two-point problem that certifies the
correction's bottom derivative (each transverse mode is a ``GammaSolution``
of ``dispersion``), and samples the wave field over one wavelength.  A
sign-change detector reports a counter-current in the sampled field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionResult, GammaSolution, _require_slope, _sampled, gamma_bvp
from .errors import ConfigError, DomainError
from .stream import StreamSolution

__all__ = [
    "WCorrection",
    "BottomSlopeCheck",
    "WaveField",
    "SignChange",
    "solve_W",
    "solve_w_aux",
    "check_Wprime0",
    "build_wave",
    "detect_sign_change",
]

_AMPLITUDE_CAP = 0.05  # |t| <= cap * d
_SURFACE_IDENTITY_TOL = 1e-5


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
class WaveField:
    """Sampled stream function of a first-order wave over one wavelength.

    ``psi[i, j]`` is the sample at ``(x[j], y[i, j])``; each column of
    ``y`` runs from the bottom to the free surface ``eta[j]``.  The bottom
    row is exactly 0 and the surface row exactly 1 by construction.
    ``lam`` is the higher-order wavelength shift, truncated to zero here;
    the omitted remainder is first order in the amplitude.
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
    location: tuple[float, float]


def solve_W(stream: StreamSolution, tau: float, n_samples: int = 257) -> WCorrection:
    """Solve the forced correction problem at wavenumber ``tau``.

    Parameters
    ----------
    stream : StreamSolution
        Background flow; must have non-vanishing surface slope.
    tau : float
        Nonnegative wavenumber.  The endpoint-derivative closed form is
        only exact at a dispersion root; elsewhere the gap is recorded on
        the result rather than raised.

    Raises
    ------
    ConfigError
        When ``n_samples < 2``, from :func:`gamma_bvp`.
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
    omega1 = stream.classification.omega_at_1
    deriv_surface = upd / d - omega1 - upd * gam.derivative_surface
    target = upd / d - 1.0 / upd
    gap = abs(deriv_surface - target)
    return WCorrection(
        tau=float(tau),
        grid=y,
        values=values,
        derivative_bottom=_bottom_derivative(stream, upd, gam.derivative_bottom),
        derivative_surface=float(deriv_surface),
        surface_identity_gap=float(gap),
        surface_identity_ok=bool(gap <= _SURFACE_IDENTITY_TOL),
    )


def solve_w_aux(stream: StreamSolution, tau: float, n_samples: int = 257) -> GammaSolution:
    """Solve the auxiliary problem ``w(0) = 1``, ``w(d) = 0``.

    The transverse solve from the surface (``v(d) = 0``, ``v'(d) = 1``) over its
    bottom value, ``w = v / v(0)``, ``w'(d) = 1 / v(0)``; ``w`` grows toward the
    bottom, as the solve runs, so ``w'(d)`` keeps its relative accuracy at any ``tau d``.

    Raises
    ------
    ConfigError
        When ``n_samples < 2``.
    ResonanceError
        When the solution vanishes at the bottom too: no unique solution.
    """
    return _sampled(stream, tau, n_samples, from_surface=True)


def _bottom_derivative(stream: StreamSolution, upd: float, gamma_bottom: float) -> float:
    """``W'(0) = s / d - u'(d) gamma'(0)``, as ``W = y u' / d - u'(d) gamma``."""
    return stream.s / stream.d - upd * gamma_bottom


def check_Wprime0(stream: StreamSolution, tau0) -> BottomSlopeCheck:
    """Compare the numeric ``W'(0)`` with its closed-form certificates.

    The nonzero flag is what downstream sign-change arguments consume: a
    nonzero bottom derivative of the correction forces the combined flow
    to change sign for small amplitudes once the base slope vanishes.
    ``W'(0)`` comes from the solve from the bottom, as in :func:`solve_W`.

    A degenerate wavenumber (``tau0`` None or 0) skips the comparison
    with a diagnostic note: the correction problem changes character at
    ``tau = 0`` and the endpoint identity has no content there.  A
    negative ``tau0`` is a domain error.
    """
    if tau0 is None or tau0 == 0.0:
        nan = float("nan")
        return BottomSlopeCheck(
            tau=0.0,
            derivative_bottom=nan, product_value=nan, discrepancy=nan,
            superposition_value=nan, superposition_discrepancy=nan,
            nonzero=False, skipped=True,
            note="degenerate wavenumber: the correction problem changes "
                 "character at tau = 0, so the endpoint comparison is "
                 "skipped")
    upd = _require_slope(stream)
    # only the end slopes are read, so each solve is sampled at its two ends
    gam = gamma_bvp(stream, tau0, n_samples=2)
    numeric = _bottom_derivative(stream, upd, gam.derivative_bottom)
    wpd = solve_w_aux(stream, tau0, n_samples=2).derivative_surface
    product = stream.d * upd * wpd
    superpos = stream.s / stream.d + upd * wpd
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


def build_wave(stream: StreamSolution, disp: DispersionResult, t: float,
               n_x: int = 129, n_y: int = 129) -> WaveField:
    """Sample the first-order wave at the dispersion root of ``disp`` over
    one wavelength on a tensor grid.

    Requires ``find_tau0`` on ``stream`` itself (a ``disp`` of another
    stream is a :class:`ConfigError`) to have certified both assumptions: a
    non-vanishing surface slope and a least root whose multiples stay off
    the dispersion curve.  The amplitude is capped at 5% of the depth; the
    construction only controls the remainder for small ``t``.

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
    if disp.stream is not stream:
        raise ConfigError(
            f"the dispersion result is of the stream with s={disp.stream.s!r}, "
            f"not of this one with s={stream.s!r}")
    if disp.tau0 is None or not disp.assumption_I or not disp.assumption_II:
        raise DomainError(
            f"no admissible wavenumber: the dispersion root search reports "
            f"tau0={disp.tau0!r} (assumption I {disp.assumption_I}, "
            f"assumption II {disp.assumption_II})")
    if not math.isfinite(t):
        raise DomainError(f"amplitude t={t!r} is not finite")
    d = stream.d
    if abs(t) > _AMPLITUDE_CAP * d:
        raise ConfigError(
            f"amplitude t={t!r} exceeds {_AMPLITUDE_CAP} * d = "
            f"{_AMPLITUDE_CAP * d!r}; the first-order construction does "
            f"not control the remainder there")
    tau0 = float(disp.tau0)
    corr = solve_W(stream, tau0, n_samples=n_y)
    theta = np.linspace(0.0, 2.0 * math.pi, n_x)
    x = theta / tau0
    eta = d + t * np.cos(theta)
    yt = corr.grid
    u = stream.u_at(yt)
    u[0] = 0.0
    u[-1] = 1.0
    amp = t * np.cos(theta)
    psi = u[:, None] + corr.values[:, None] * amp[None, :]
    y = yt[:, None] * (eta[None, :] / d)
    y[-1, :] = eta
    return WaveField(x=x, eta=eta, y=y, psi=psi, r=stream.r, s=stream.s,
                     t=float(t), tau0=tau0, lam=0.0,
                     wavelength=2.0 * math.pi / tau0)


def detect_sign_change(source: WaveField) -> SignChange:
    """Scan ``psi`` of a wave field for a dip below zero, found at ``(x, y)``.

    The flag trips when the minimum falls below ten times the construction
    tolerance.  A shot stream carries its own ``min_u`` and ``sign_change``.
    """
    if not isinstance(source, WaveField):
        raise ConfigError(
            f"cannot scan {type(source).__name__!r} for sign changes; expected "
            f"a wave field")
    idx = np.unravel_index(int(np.argmin(source.psi)), source.psi.shape)
    mn = float(source.psi[idx])
    tol = 1e-9 * max(1.0, float(np.max(source.eta)))
    return SignChange(
        changes_sign=bool(mn < -10.0 * tol),
        min_value=mn,
        location=(float(source.x[idx[1]]), float(source.y[idx])),
    )
