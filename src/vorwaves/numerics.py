"""Shared numerical kernels: quadrature, root finding, ODEs.

Quadrature and root finding are plain numpy and Python; only the ODE
wrapper imports scipy, at call time, for the events of
``stream.shoot_stream``, its one caller, so a run that never shoots a
stream never loads scipy (``dispersion`` uses numpy linear algebra).
Endpoint singularities of inverse-square-root type are removed by
substitution before the adaptive rule sees them, failures surface as
typed exceptions carrying the best estimate reached, and the quadrature
tolerances are fixed (``abs 1e-12``, ``rel 1e-10`` on every piece).
Every root the package finds inside a bracket is found by one safeguarded
Newton method (:class:`Newton`, its rounds run by :func:`run_newton`): the
exact head searches of ``bernoulli``, their starts on its Chebyshev proxy,
the surface crossing of ``stream.shoot_stream`` on its dense output, and
the root of ``dispersion.find_tau0`` in ``tau^2`` on ``(0, inf)``, where
sigma is concave, so its steps from 0 stay below the root.

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

from .errors import ConvergenceError, InvalidIntegrandError

__all__ = [
    "integrate",
    "Newton",
    "run_newton",
    "solve_ivp",
    "tally",
]

# quadrature targets for every piece of every call of :func:`integrate`
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
# most cells one piece may be cut into, as QUADPACK's ``limit=200``
_MAX_CELLS = 200
# most rounds of Newton steps one call of :func:`run_newton` may take
_MAX_ROUNDS = 100

# work counters: "quad_calls" (calls of integrate), "quad_points" (integrand
# values), "quad_cells", "newton_steps" (exact values taken by the head
# landscape's root searches), "ode_steps" and "ode_rhs_evals" of solve_ivp,
# and the transverse operator's "linear_solves" and "collocation_nodes"
# (points given omega')
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


class Newton:
    """Newton steps toward the root of ``f`` inside the bracket ``[lo, hi]``.

    Its caller takes ``f`` and ``f'`` at ``x`` and passes them to :meth:`send`
    (:func:`run_newton` does so); ``falling`` says that ``f`` is positive
    below the root and negative above it, so every value narrows the
    bracket.  A step that would leave the bracket, or is more than half the
    step before last, bisects it instead (as ``rtsafe`` does: Press et al.,
    *Numerical Recipes*, 3rd ed., sec. 9.4); while the upper end is open
    (``hi = inf``) steps may grow, and one below ``lo`` doubles ``x``.  The
    search ends at ``x`` when its Newton step, kept in ``step``, is within
    ``tol`` and ``|f(x)|`` within ``ftol``, or the step is within 4 ulps of
    ``x`` (where ``f`` is too steep for a closer point to exist); or, once
    the bracket is narrower than ``tol``, at its end of smaller ``|f|``.
    ``f_lo``/``f_hi`` are the values at the ends where known, else infinite
    of the right sign; an end where ``f`` is exactly 0 is the root, with no
    step taken.

    Raises ``ValueError`` unless ``lo < hi``, and :class:`ConvergenceError`
    on a NaN value.
    """

    def __init__(self, lo, hi, f_lo, f_hi, x, falling, tol, ftol=math.inf):
        if not lo < hi:
            raise ValueError(f"a bracket needs lo < hi, got [{lo!r}, {hi!r}]")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.x, self.falling, self.tol, self.ftol = x, falling, tol, ftol
        self.root = lo if f_lo == 0.0 else hi if f_hi == 0.0 else None
        self.step, self._steps = 0.0, [math.inf, math.inf]

    def send(self, fx: float, slope: float) -> None:
        x = self.x
        if math.isnan(fx):
            raise ConvergenceError(f"f({x!r}) is NaN; the root search cannot continue")
        if (fx > 0.0) == self.falling:
            self.lo, self.f_lo = x, fx
        else:
            self.hi, self.f_hi = x, fx
        step = -fx / slope if fx else 0.0
        if abs(step) <= self.tol and abs(fx) <= self.ftol or abs(step) <= 4.0 * math.ulp(x):
            self.root, self.step = x, step
            return
        if self.hi - self.lo <= self.tol:
            self.root = self.lo if abs(self.f_lo) <= abs(self.f_hi) else self.hi
            return
        nxt = x + step
        if self.hi == math.inf:
            if not nxt > self.lo:
                nxt = 2.0 * x
        elif not self.lo < nxt < self.hi or abs(step) > 0.5 * self._steps[0]:
            nxt = self.lo + 0.5 * (self.hi - self.lo)
        self._steps = [self._steps[1], abs(nxt - x)]
        self.x = nxt


def run_newton(searches: list, values: Callable) -> None:
    """Run the :class:`Newton` ``searches`` side by side: each round takes
    ``(f, f')`` at every open search's point from one call of ``values``
    on the list of those points.

    Raises :class:`ConvergenceError` when a search is still open after 100
    rounds.
    """
    for _ in range(_MAX_ROUNDS):
        open_ = [x for x in searches if x.root is None]
        if not open_:
            return
        for search, (fx, slope) in zip(open_, values([x.x for x in open_])):
            search.send(fx, slope)
    raise ConvergenceError(
        f"Newton steps did not settle in {_MAX_ROUNDS} rounds; brackets "
        + ", ".join(f"[{x.lo!r}, {x.hi!r}]" for x in searches if x.root is None))


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
