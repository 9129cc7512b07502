"""Shared numerical kernels: quadrature, root finding, ODEs.

Quadrature and root finding are plain numpy and Python; only the ODE
wrapper imports scipy, at call time, for the events of
``stream.shoot_stream``, its one caller, so a run that never shoots a
stream never loads scipy (``dispersion`` uses numpy linear algebra).
Endpoint singularities of inverse-square-root type are removed by
substitution before the adaptive rule sees them, failures surface as
typed exceptions carrying the best estimate reached, and the quadrature
tolerances are fixed (``abs 1e-12``, ``rel 1e-10`` on every piece).

Conventions
-----------
* Integrands are vectorized: they map an array of points and the tags of
  their pieces to an array of values, and :func:`integrate` evaluates every
  piece it is given in one call per refinement level.
* A "singular" endpoint means the integrand behaves like
  ``c / sqrt(x - a)`` at the left end ``a``; the substitution
  ``x = a + v**2`` turns that into a bounded integrand.  Callers flip a
  right-end singularity to the left by integrating in ``b - x``.
* :data:`tally` counts the work done; its comment lists the keys.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    InvalidIntegrandError,
)

__all__ = [
    "integrate",
    "find_root",
    "solve_ivp",
    "tally",
]

# quadrature targets for every piece of every call of :func:`integrate`
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
# most cells one piece may be cut into, as QUADPACK's ``limit=200``
_MAX_CELLS = 200

# work counters: "quad_calls" (calls of integrate), "quad_points" (integrand
# values), "quad_cells", "newton_steps" (exact values taken by the head
# landscape's root searches), "ode_steps" and "ode_rhs_evals" of solve_ivp,
# and the transverse operator's
# "linear_solves", "eigen_solves" and "collocation_nodes" (points given omega')
tally: Counter = Counter()

# 15-point Kronrod rule on [-1, 1] and its embedded 7-point Gauss rule
# (the odd-indexed Kronrod nodes), from QUADPACK's qk15
_XK_HALF = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245)
_WK_HALF = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649)
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975)
_WG_MID = 0.417959183673469387755102040816327

_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_MID] + list(reversed(_WK_HALF)))
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF
_WG[7] = _WG_MID
_WG[13:7:-2] = _WG_HALF
_WKG = np.array((_WK, _WG))


def integrate(f: Callable, a: np.ndarray, b: np.ndarray, singular_left: np.ndarray,
              tags: np.ndarray) -> np.ndarray:
    """Integrate ``f`` over every piece ``[a_i, b_i]`` by adaptive G7K15.

    ``a``, ``b``, ``singular_left`` and ``tags`` are 1-d arrays with one
    entry per piece, and ``a_i <= b_i``; the result is a 1-d array of the
    integrals.  ``singular_left`` declares an inverse-square-root
    singularity at the left end of a piece, removed by the substitution
    ``x = a + v**2``.  ``f`` is called as ``f(x, tag)``, with a row of ``x``
    per live cell and its piece's tag in a ``(cells, 1)`` column, so pieces
    may differ in integrand.

    Each refinement level evaluates the 15 Kronrod nodes of every live
    cell in one call of ``f``.  A cell passes when ``|K15 - G7|`` is within
    its share (by width) of its piece's budget ``max(1e-12, 1e-10 |I|)``;
    the others are bisected.  An empty piece contributes 0.  A piece's
    value depends on that piece alone, bit for bit: its error control is
    its own, and each cell's two sums reduce its own 15 values.

    Raises :class:`InvalidIntegrandError` on a non-finite integrand value
    and :class:`ConvergenceError` when a piece needs more than 200 cells.
    """
    tally["quad_calls"] += 1
    lo, hi, sing, n = a, b, singular_left, a.size
    if (hi < lo).any():
        raise ValueError("integrate takes pieces with a <= b")
    tags = tags.reshape(n, 1)
    # integration variable per piece: x itself, or v with x = lo + v**2
    width = hi - lo
    any_sing = bool(sing.any())
    if any_sing:
        width = np.where(sing, np.sqrt(width), width)
        # per piece: lo, the least point above it and hi, the clamps of x
        ends = np.array((lo, np.nextafter(lo, hi), hi))
    total, count = np.zeros(n), 1  # count: cells per piece, once one is cut
    c0 = np.where(sing, 0.0, lo) if any_sing else lo
    c1 = c0 + width
    piece = np.flatnonzero(width > 0.0)
    if piece.size < n:
        c0, c1 = c0[piece], c1[piece]
        width[width == 0.0] = 1.0  # empty pieces have no cells to share among
    while piece.size:
        half = 0.5 * (c1 - c0)
        mid = c0 + half
        t = mid[:, None] + half[:, None] * _XK
        x, sub = t, None
        if any_sing and sing[piece].any():
            sub = sing[piece][:, None]
            # v > 0 at every node; if v**2 underflows against lo, the nearest
            # interior point stands in, so the singularity is never sampled
            plo, floor, phi = ends[:, piece, None]
            x = np.where(sub, np.minimum(np.maximum(plo + t * t, floor), phi), t)
        y = np.asarray(f(x, tags[piece]), dtype=float)
        tally["quad_points"] += y.size
        tally["quad_cells"] += piece.size
        if not np.isfinite(y).all():
            i, j = np.argwhere(~np.isfinite(y))[0]
            raise InvalidIntegrandError(
                f"integrand returned non-finite value {float(y[i, j])!r} at "
                f"x={float(x[i, j])!r} inside [{float(lo[piece[i]])!r}, "
                f"{float(hi[piece[i]])!r}]")
        if sub is not None:
            y = np.where(sub, 2.0 * t * y, y)
        # each sum of a cell is one reduction over its own 15 values, so it
        # does not depend on how many cells share the call (the BLAS kernel
        # of a matrix product may change with the row count)
        kg = np.einsum("ij,kj->ik", y, _WKG)
        k15 = half * kg[:, 0]
        err = half * np.abs(kg[:, 0] - kg[:, 1])
        estimate = total + np.bincount(piece, k15, n)
        # each cell may spend its share, by width, of its piece's budget
        share = np.maximum(_ABS_TOL, _REL_TOL * np.abs(estimate)) / width
        ok = err <= share[piece] * (2.0 * half)
        if ok.all():
            total = estimate
            break
        total += np.bincount(piece[ok], k15[ok], n)
        bad = ~ok
        piece, c0, c1, mid = piece[bad], c0[bad], c1[bad], mid[bad]
        count = count + np.bincount(piece, minlength=n)
        if count.max() > _MAX_CELLS:
            i = int(np.argmax(count))
            raise ConvergenceError(
                f"quadrature on [{float(lo[i])!r}, {float(hi[i])!r}] did not "
                f"converge in {_MAX_CELLS} cells (estimate {float(estimate[i])!r}, "
                f"error estimate of its open cells "
                f"{float(np.sum(err[bad][piece == i]))!r})")
        piece = np.concatenate((piece, piece))
        c0, c1 = np.concatenate((c0, mid)), np.concatenate((mid, c1))
    return total


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """A sign change of the scalar ``f`` in ``[lo, hi]``, to within ``tol``.

    The Illinois form of regula falsi (Dowell and Jarratt, BIT 11, 1971):
    each step cuts the bracket where the line through its ends crosses
    zero, and an end kept twice in a row has its value halved, so that
    both ends move and the order of convergence is about 1.44.  It stops
    once the bracket is narrower than ``tol + 8.9e-16 |x|`` and returns the
    end with the smaller ``|f|``; an exact zero ends it at once.  It is
    meant for cheap functions, such as a proxy of an expensive one.

    Raises ``ValueError`` unless ``lo < hi``, :class:`BracketError` when the
    end values do not differ in sign, and :class:`ConvergenceError` on a
    NaN value or after 200 steps.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ConvergenceError(f"f({x!r}) is NaN; the root search cannot continue")
        return fx

    if not lo < hi:
        raise ValueError(f"a bracket needs lo < hi, got [{lo!r}, {hi!r}]")
    f_lo, f_hi = value(lo), value(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}")
    kept = 0  # -1 after lo moved, +1 after hi moved
    for _ in range(200):
        if hi - lo <= tol + 8.9e-16 * max(abs(lo), abs(hi)):
            return lo if abs(f_lo) <= abs(f_hi) else hi
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
        fx = value(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = x, fx
            if kept > 0:
                f_lo *= 0.5
            kept = 1
    raise ConvergenceError(f"no root to within {tol!r} in 200 steps on [{lo!r}, {hi!r}]")


def solve_ivp(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    y0: Sequence[float],
    span: tuple[float, float],
    tol: float = 1e-12,
    events: Optional[Sequence[Callable]] = None,
):
    """Integrate ``y' = rhs(t, y)`` with a high-order adaptive Runge-Kutta.

    Thin wrapper over scipy's DOP853 with dense output always on and the
    toolkit's tolerance convention (``rtol`` floored at machine-level,
    ``atol`` two orders tighter than ``tol``).  Event functions pass
    through unchanged, including ``direction``/``terminal`` attributes.

    Returns the scipy result object.  Raises :class:`ConvergenceError`
    if the integrator fails, with the failure location in the message.
    """
    import scipy.integrate  # deferred: only ODE users pay for scipy

    rtol = max(tol, 2.5e-14)
    atol = max(1e-14, 0.01 * tol)
    sol = scipy.integrate.solve_ivp(
        rhs,
        span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=events,
    )
    tally["ode_steps"] += sol.t.size - 1
    tally["ode_rhs_evals"] += sol.nfev
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else span[0]
        raise ConvergenceError(
            f"ODE integration failed: {sol.message.strip()} "
            f"(reached t={reached!r} of [{span[0]!r}, {span[1]!r}])"
        )
    return sol
