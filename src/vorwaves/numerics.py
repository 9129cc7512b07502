"""Shared numerical kernels: quadrature, root finding, Chebyshev series.

Quadrature and root finding are plain numpy and Python, and nothing here
imports scipy (``stream.shoot_stream`` calls its ODE solver itself).
The quadrature is a plain batched G7K15 rule: its caller
(``stream._accumulate``) changes variables first wherever an endpoint is
singular or a layer is thin, failures surface as typed exceptions carrying
the best estimate reached, and the tolerances are fixed (``abs 1e-12``,
``rel 1e-10`` on every piece).
Every root the package finds inside a bracket is found by one safeguarded
Newton method (:class:`Newton`, its rounds run by :func:`run_newton`): the
exact head searches of ``bernoulli``, their starts on its Chebyshev proxy,
the surface crossing of ``stream.shoot_stream`` on its dense output, the
profile inversion ``u(y)`` of ``stream.StreamSolution``, a search per height,
and the root of ``dispersion.find_tau0`` in ``tau^2`` on ``(0, inf)``, where
sigma is concave, so its steps from 0 stay below the root.
The Chebyshev series of ``bernoulli``, ``dispersion`` and ``stream`` share
:func:`lobatto`'s points, :func:`cheb_fit`'s cosine sum and :func:`clenshaw`
(Trefethen, *Approximation Theory and Approximation Practice*, ch. 2-3).

Conventions
-----------
* Integrands are vectorized: they map an array of points and the indices
  of their pieces to an array of values, and :func:`integrate` evaluates every
  piece it is given in one call per refinement level.
* :data:`tally` counts the work done; its comment lists the keys.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable

import numpy as np

from .errors import ConvergenceError, InvalidIntegrandError

__all__ = [
    "integrate",
    "Newton",
    "run_newton",
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
# landscape's root searches), "ode_steps" and "ode_rhs_evals" of shoot_stream,
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


def integrate(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrate ``f`` over every piece ``[a_i, b_i]`` by adaptive G7K15.

    ``a`` and ``b`` are 1-d arrays with one entry per piece, and ``a_i <=
    b_i``; the result is a 1-d array of the integrals.  ``f`` is called as
    ``f(x, i)``, with a row of ``x`` per live cell and its piece's index
    ``i`` in a ``(cells, 1)`` column, so pieces may differ in integrand.
    The rule takes ``f`` as it comes: a caller removes an endpoint
    singularity or resolves a layer by changing variables first.

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
    n = a.size
    if (b < a).any():
        raise ValueError("integrate takes pieces with a <= b")
    width = b - a
    total, count = np.zeros(n), 1  # count: cells per piece, once one is cut
    piece = np.flatnonzero(width > 0.0)  # an empty piece has no cell
    c0, c1 = a[piece], b[piece]
    while piece.size:
        half = 0.5 * (c1 - c0)
        mid = c0 + half
        x = mid[:, None] + half[:, None] * _XK
        y = np.asarray(f(x, piece[:, None]), dtype=float)
        tally["quad_points"] += y.size
        tally["quad_cells"] += piece.size
        if not np.isfinite(y).all():
            i, j = np.argwhere(~np.isfinite(y))[0]
            raise InvalidIntegrandError(
                f"integrand returned non-finite value {float(y[i, j])!r} at "
                f"x={float(x[i, j])!r} inside [{float(a[piece[i]])!r}, "
                f"{float(b[piece[i]])!r}]")
        # each sum of a cell is one reduction over its own 15 values, so it
        # does not depend on how many cells share the call (the BLAS kernel
        # of a matrix product may change with the row count)
        kg = np.einsum("ij,kj->ik", y, _WKG)
        k15 = half * kg[:, 0]
        err = half * np.abs(kg[:, 0] - kg[:, 1])
        estimate = total + np.bincount(piece, k15, n)
        # each cell may spend its share, by width, of its piece's budget: the
        # fraction (at most 1) first, so that no tiny width divides
        budget = np.maximum(_ABS_TOL, _REL_TOL * np.abs(estimate))
        ok = err <= budget[piece] * (2.0 * half / width[piece])
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
                f"quadrature on [{float(a[i])!r}, {float(b[i])!r}] did not "
                f"converge in {_MAX_CELLS} cells (estimate {float(estimate[i])!r}, "
                f"error estimate of its open cells "
                f"{float(np.sum(err[bad][piece == i]))!r})")
        piece = np.concatenate((piece, piece))
        c0, c1 = np.concatenate((c0, mid)), np.concatenate((mid, c1))
    return total


class Newton:
    """Newton steps toward the root of ``f`` inside the bracket ``[lo, hi]``.

    Its caller takes ``f`` and ``f'`` at ``x`` and passes them to :meth:`send`
    (:func:`run_newton` does so); the signs of ``f`` at the ends say
    whether it falls through the root (positive at ``lo`` or negative at
    ``hi``) or rises, so every value narrows the bracket.  A step that
    would leave the bracket (at ``f' = 0``, an infinite one), or is more
    than half the step before last, bisects it instead (as ``rtsafe``
    does: Press et al., *Numerical Recipes*, 3rd ed., sec. 9.4); while the
    upper end is open (``hi = inf``) steps may grow, and one that does not
    land in ``(lo, inf)`` goes ``max(|lo|, 1)`` beyond ``lo``, at any sign
    of ``lo``.  The search ends at ``x`` when its Newton step, kept in ``step``, is within
    ``tol`` and ``|f(x)|`` within ``ftol``, or the step is within 4 ulps of
    ``x`` (where ``f`` is too steep for a closer point to exist); or, once
    the bracket is narrower than ``tol``, at its end of smaller ``|f|``.
    ``f_lo``/``f_hi`` are the values at the ends where known, else infinite
    of the right sign; an end where ``f`` is exactly 0 is the root, with no
    step taken.

    Raises ``ValueError`` unless ``lo < hi``, and :class:`ConvergenceError`
    on a NaN value.
    """

    def __init__(self, lo, hi, f_lo, f_hi, x, tol, ftol=math.inf):
        if not lo < hi:
            raise ValueError(f"a bracket needs lo < hi, got [{lo!r}, {hi!r}]")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.x, self.falling, self.tol, self.ftol = x, f_lo > 0.0 or f_hi < 0.0, tol, ftol
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
        step = -fx / slope if fx and slope else math.inf if fx else 0.0
        if abs(step) <= self.tol and abs(fx) <= self.ftol or abs(step) <= 4.0 * math.ulp(x):
            self.root, self.step = x, step
            return
        if self.hi - self.lo <= self.tol:
            self.root = self.lo if abs(self.f_lo) <= abs(self.f_hi) else self.hi
            return
        nxt = x + step
        if self.hi == math.inf:
            if not self.lo < nxt < math.inf:
                nxt = self.lo + max(abs(self.lo), 1.0)
        elif not self.lo < nxt < self.hi or abs(step) > 0.5 * self._steps[0]:
            nxt = self.lo + 0.5 * (self.hi - self.lo)
        self._steps = [self._steps[1], abs(nxt - x)]
        self.x = nxt


def run_newton(searches: list, values: Callable) -> None:
    """Run the :class:`Newton` ``searches`` side by side: each round takes
    ``(f, f')`` at every open search's point ``x`` from one call of
    ``values`` on the list of those open searches.

    Raises :class:`ConvergenceError` when a search is still open after 100
    rounds.
    """
    for _ in range(_MAX_ROUNDS):
        open_ = [x for x in searches if x.root is None]
        if not open_:
            return
        for search, (fx, slope) in zip(open_, values(open_)):
            search.send(fx, slope)
    raise ConvergenceError(
        f"Newton steps did not settle in {_MAX_ROUNDS} rounds; brackets "
        + ", ".join(f"[{x.lo!r}, {x.hi!r}]" for x in searches if x.root is None))


def lobatto(n: int) -> np.ndarray:
    """The ``n + 1`` Chebyshev-Lobatto points ``cos(pi k / n)``, from 1 down to -1."""
    return np.cos(np.pi * np.arange(n + 1) / n)


@functools.cache
def cheb_fit(n: int) -> np.ndarray:
    """The cosine sum (a DCT-I) from values at :func:`lobatto`'s ``n + 1`` points
    to their interpolant's Chebyshev coefficients, a row each; shared, so read-only."""
    k = np.arange(n + 1)
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    fit = np.cos(np.outer(k, np.pi * k / n)) * np.outer(ends, ends) * (2.0 / n)
    fit.flags.writeable = False
    return fit


def clenshaw(c, u):
    """``sum_k c[k] T_k(u)`` by Clenshaw's recurrence; each ``c[k]`` broadcasts with ``u``."""
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * u * b1 - b2 + ck, b1
    return u * b1 - b2 + c[0]
