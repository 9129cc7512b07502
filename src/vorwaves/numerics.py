"""Shared numerical kernels: quadrature, root finding, ODEs.

All higher modules funnel their numerics through this one, except the
transverse shooter in ``dispersion``, which calls scipy's DOP853 itself
so that dense output is built only for the shots it samples.  The routines
wrap scipy with the toolkit's conventions layered on top: endpoint
singularities of inverse-square-root type are removed by substitution
before the adaptive rule sees them, failures surface as typed exceptions
carrying the best estimate reached, and tolerances have a single default
that can be seeded from the environment.

Conventions
-----------
* Integrands are scalar callables of one float.
* A "singular" endpoint means the integrand behaves like
  ``c / sqrt(x - a)`` at the left end ``a``; the substitution
  ``x = a + v**2`` turns that into a bounded integrand.  Callers flip a
  right-end singularity to the left by integrating in ``b - x``.
* :func:`integrate` is the only route to ``scipy.integrate.quad``.
* Brackets are closed intervals given as :class:`Bracket`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate as _sint
from scipy import optimize as _sopt

from .errors import (
    BracketError,
    ConvergenceError,
    InvalidIntegrandError,
)

__all__ = [
    "QuadratureSpec",
    "default_quadrature_spec",
    "integrate",
    "Bracket",
    "find_root",
    "solve_ivp",
]

_TOL_ENV = "TOOL_SEED_TOLERANCE"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and endpoint-behavior settings for :func:`integrate`.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Absolute and relative tolerance targets, both strictly positive.
    singular_left : bool
        Declare an inverse-square-root singularity at the left endpoint;
        the integrator substitutes it away.  There is no right-hand twin:
        a singular right end is integrated in the distance to that end,
        which also keeps the integrand free of cancellation there.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    singular_left: bool = False

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")


def default_quadrature_spec() -> QuadratureSpec:
    """Build the default spec, seeding ``abs_tol`` from ``TOOL_SEED_TOLERANCE``.

    The environment variable, when set to a positive float, replaces the
    built-in ``1e-12`` absolute tolerance.  Malformed values are ignored.
    """
    abs_tol = 1e-12
    raw = os.environ.get(_TOL_ENV)
    if raw is not None:
        try:
            candidate = float(raw)
        except ValueError:
            candidate = -1.0
        if candidate > 0.0 and math.isfinite(candidate):
            abs_tol = candidate
    return QuadratureSpec(abs_tol=abs_tol)


def _finite_checked(f: Callable[[float], float], a: float, b: float):
    """Wrap ``f`` so a NaN/inf evaluation raises instead of poisoning quad."""

    def g(x: float) -> float:
        val = f(x)
        if not math.isfinite(val):
            raise InvalidIntegrandError(
                f"integrand returned non-finite value {val!r} at x={x!r} "
                f"inside [{a!r}, {b!r}]"
            )
        return val

    return g


def _quad(f, a, b, spec: QuadratureSpec) -> float:
    out = _sint.quad(
        f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=200, full_output=1
    )
    if len(out) == 4:
        # (value, error, infodict, message): QUADPACK gave up
        value, err = out[0], out[1]
        raise ConvergenceError(
            f"quadrature on [{a!r}, {b!r}] did not converge: {out[3].strip()} "
            f"(estimate {value!r}, error bound {err!r})"
        )
    return out[0]


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """Integrate ``f`` over ``[a, b]`` with adaptive Gauss-Kronrod quadrature.

    A left-endpoint singularity declared on ``spec`` is removed by the
    substitution ``x = a + v**2`` (so ``dx = 2 v dv`` cancels an inverse
    square root).

    Returns 0.0 when ``a == b``.  Raises :class:`InvalidIntegrandError` if
    the integrand produces a non-finite value, :class:`ConvergenceError`
    if the adaptive rule cannot meet tolerance.
    """
    if spec is None:
        spec = default_quadrature_spec()
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, spec)

    g = _finite_checked(f, a, b)

    if spec.singular_left:
        width = b - a

        def h(v: float) -> float:
            x = min(a + v * v, b)
            if x == a and v > 0.0:
                # v**2 underflowed against a; step to the nearest interior
                # point so the integrand is never sampled at the singularity.
                x = math.nextafter(a, b)
            return 2.0 * v * g(x)

        return _quad(h, 0.0, math.sqrt(width), spec)

    return _quad(g, a, b, spec)


@dataclass(frozen=True)
class Bracket:
    """Closed interval ``[lo, hi]`` with optional cached endpoint values."""

    lo: float
    hi: float
    f_lo: Optional[float] = None
    f_hi: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"bracket requires lo < hi, got [{self.lo!r}, {self.hi!r}]")


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-13,
) -> float:
    """Locate the root of ``f`` inside ``bracket`` by Brent's method.

    The endpoint values must differ in sign (an endpoint exactly at zero
    is returned directly).  Raises :class:`BracketError` with both values
    when the sign condition fails.
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo = bracket.f_lo if bracket.f_lo is not None else f(lo)
    f_hi = bracket.f_hi if bracket.f_hi is not None else f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    return float(_sopt.brentq(f, lo, hi, xtol=tol, rtol=8.9e-16, maxiter=200))


def solve_ivp(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    y0: Sequence[float],
    span: tuple[float, float],
    tol: float = 1e-12,
    events: Optional[Sequence[Callable]] = None,
    max_step: float = np.inf,
):
    """Integrate ``y' = rhs(t, y)`` with a high-order adaptive Runge-Kutta.

    Thin wrapper over DOP853 with dense output always on and the
    toolkit's tolerance convention (``rtol`` floored at machine-level,
    ``atol`` two orders tighter than ``tol``).  Event functions pass
    through unchanged, including ``direction``/``terminal`` attributes.

    Returns the scipy result object.  Raises :class:`ConvergenceError`
    if the integrator fails, with the failure location in the message.
    """
    rtol = max(tol, 2.5e-14)
    atol = max(1e-14, 0.01 * tol)
    sol = _sint.solve_ivp(
        rhs,
        span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=events,
        max_step=max_step,
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else span[0]
        raise ConvergenceError(
            f"ODE integration failed: {sol.message.strip()} "
            f"(reached t={reached!r} of [{span[0]!r}, {span[1]!r}])"
        )
    return sol
