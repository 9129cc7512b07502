"""Fixed-strip coordinates and the diagnostics built on them.

Unidirectional flows are re-parameterized by ``(q, p) = (x, psi)``: the
unknown free boundary becomes the fixed line ``p = 1`` and the height
``h(q, p)`` becomes the field of interest.  This module transforms
sampled flows to that strip (the surface is the top row of ``h``),
evaluates the surface Bernoulli residual and the interior divergence-form
residual, and computes both sides of the conjugate-flow integral identity
used in the non-existence arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, UnidirectionalityError
from .linearwave import WaveField
from .stream import StreamSolution, solve_stream
from .vorticity import VorticityDistribution

__all__ = [
    "HodographField",
    "SurfaceResidual",
    "FieldResidual",
    "WheelerReport",
    "to_strip",
    "bernoulli_residual",
    "field_equation_residual",
    "wheeler_identity",
]


@dataclass(frozen=True)
class HodographField:
    """Height samples ``h(q, p)`` on the fixed strip ``[0, 1]`` in ``p``.

    ``h[i, j]`` is the height at ``(q[j], p[i])``; the bottom row is
    exactly zero and each column is strictly increasing.  ``delta_prime``
    is the measured lower bound on ``h_p`` (finite differences), positive
    for every admissible field.
    """

    q: np.ndarray
    p: np.ndarray
    h: np.ndarray
    delta_prime: float
    r: float


@dataclass(frozen=True)
class SurfaceResidual:
    """Per-column residual of ``(1 + h_q^2) h_p^-2 + 2h - 3r`` at ``p = 1``.

    ``h_p`` uses a one-sided fourth-order closure at the surface,
    ``h_q`` centered second-order differences; the stencil orders are the
    dominant error term on exact inputs.
    """

    q: np.ndarray
    samples: np.ndarray
    max_abs: float
    mean_abs: float
    location: float


@dataclass(frozen=True)
class FieldResidual:
    """Interior residual of the divergence-form height equation.

    ``[h_q / h_p]_q - [(1 + h_q^2) / (2 h_p^2) + Omega(p)]_p`` by nested
    centered second-order differences.  Two boundary layers of nodes are
    excluded: nested differencing next to the edges mixes in the one-sided
    closures, whose order is lower.
    """

    q: np.ndarray
    p: np.ndarray
    samples: np.ndarray
    max_abs: float
    mean_abs: float
    location: Tuple[float, float]


@dataclass(frozen=True)
class WheelerReport:
    """Both sides of the conjugate-flow integral identity on a window.

    ``lhs`` couples the surface deviation ``w(q, 1)`` with the tail
    weight ``Phi(1; s)`` and a gradient-quadratic bulk term; ``rhs`` is
    the boundary flux through the window's vertical sides.  For exact
    solutions with matching head the two sides agree; ``reduced`` marks
    windows evaluated at a critical slope (``Phi(1; s) = 1``), where the
    surface term is dropped.
    """

    s: float
    window: Tuple[float, float]
    width: float
    lhs: float
    rhs: float
    discrepancy: float
    lhs_per_unit: float
    reduced: bool
    head_gap: float


_PHI_REDUCED_TOL = 1e-9
_HEAD_MATCH_TOL = 1e-8


def _pchip_end(h0, h1, m0, m1):
    """End slope of the monotone cubic: the one-sided three-point estimate,
    kept to the sign of ``m0`` and, where the data turn, to ``3 m0``."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    return np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)),
                    3.0 * m0, d)


def _pchip_slopes(h, m):
    """``dy/dpsi`` at the samples of each column, from the steps ``h`` in
    ``psi`` and the secants ``m`` between them."""
    slope = np.empty((len(h) + 1, h.shape[1]))
    if len(h) == 1:
        slope[:] = m
    else:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope[1:-1] = np.where(same, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        slope[0] = _pchip_end(h[0], h[1], m[0], m[1])
        slope[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return slope


def _intervals(psi, p_grid):
    """Flat indices ``k * n_q + j`` of the interval ``k`` of each ``p`` (rows) in
    each column ``j`` of ``psi``: ``k + 1`` counts the samples at or below ``p``,
    as ``searchsorted(psi[:, j], p, side="right")`` does, from one search for
    the first ``p`` at or above each sample, counted per column and summed."""
    n_p, n_q = len(p_grid), psi.shape[1]
    first = np.searchsorted(p_grid, psi, side="left") + (n_p + 1) * np.arange(n_q)
    below = np.bincount(first.ravel(), minlength=(n_p + 1) * n_q).reshape(n_q, n_p + 1)
    k = np.clip(np.cumsum(below[:, :n_p], axis=1).T - 1, 0, len(psi) - 2)
    return k * n_q + np.arange(n_q)


def _invert_columns(psi, y, p_grid, q):
    """Invert every sampled ``y -> psi`` column ``j`` onto the p-grid.

    One monotone cubic per column, all columns at once: the Fritsch-Butland
    weighted harmonic slopes inside, Moler's end rule, and the Hermite cubic
    on each interval, as scipy's ``PchipInterpolator`` builds them.
    """
    h = np.diff(psi, axis=0)
    if np.any(h <= 0.0):
        j = int(np.argmax(np.any(h <= 0.0, axis=0)))
        k = int(np.argmax(h[:, j] <= 0.0))
        raise UnidirectionalityError(
            f"column {j} (q={float(q[j])!r}): psi is not strictly increasing "
            f"on y in [{float(y[k, j])!r}, {float(y[k + 1, j])!r}]; the strip "
            f"transform needs a unidirectional flow")
    m = np.diff(y, axis=0) / h
    slope = _pchip_slopes(h, m)
    at = _intervals(psi, p_grid)
    t = (slope[:-1] + slope[1:] - 2.0 * m) / h
    x = p_grid[:, None] - psi.ravel()[at]
    c3, c2 = (t / h).ravel()[at], ((m - slope[:-1]) / h - t).ravel()[at]
    return ((c3 * x + c2) * x + slope.ravel()[at]) * x + y.ravel()[at]


def to_strip(source, n_p: int = 257, n_q: int = 9,
             q_span: float = 1.0) -> HodographField:
    """Transform a sampled flow to the fixed strip.

    Wave fields are inverted column by column (monotone interpolation of
    each ``y -> psi`` sample set) onto a uniform p-grid and keep their own
    x-grid as ``q``.  Stream solutions are x-independent: one profile
    column is replicated over ``n_q`` columns spanning ``q_span``.

    Raises
    ------
    ConfigError
        For any other source (a shot stream included), a grid too coarse
        or ``q_span <= 0``.  A NaN or infinite ``q_span`` is a DomainError.
    UnidirectionalityError
        When some column's ``psi`` fails to increase strictly, naming the
        column and the offending interval, or when the measured ``h_p``
        lower bound is not positive.
    """
    if n_p < 5:
        raise ConfigError(f"n_p={n_p} too coarse: the stencils need 5 rows")
    if n_q < 2:
        raise ConfigError(f"n_q={n_q} too coarse: a strip needs 2 columns")
    if not np.isfinite(q_span):
        raise DomainError(f"q_span={q_span!r} is not finite")
    if q_span <= 0.0:
        raise ConfigError(f"q_span={q_span!r} must be positive: a strip needs a width")
    p_grid = np.linspace(0.0, 1.0, n_p)
    if isinstance(source, WaveField):
        q = np.asarray(source.x, dtype=float)
        h = _invert_columns(source.psi, source.y, p_grid, q)
        r = source.r
    elif isinstance(source, StreamSolution):
        q = np.linspace(0.0, q_span, n_q)
        col = np.asarray(source.height_at(p_grid), dtype=float)
        h = np.repeat(col[:, None], n_q, axis=1)
        r = source.r
    else:
        raise ConfigError(
            f"cannot transform {type(source).__name__!r}; expected a wave "
            f"field or a stream solution")
    h[0, :] = 0.0
    h_p = np.gradient(h, p_grid, axis=0, edge_order=2)
    delta_prime = float(np.min(h_p))
    if delta_prime <= 0.0:
        raise UnidirectionalityError(
            f"measured h_p lower bound {delta_prime!r} is not positive")
    return HodographField(q=q, p=p_grid, h=h, delta_prime=delta_prime,
                          r=float(r))


def bernoulli_residual(hfield: HodographField,
                       r: Optional[float] = None) -> SurfaceResidual:
    """Residual of the dynamic surface condition at ``p = 1``.

    ``r`` defaults to the field's own head; passing another value probes
    how far the field sits from that head's surface condition (the
    residual shifts by ``3 (r_field - r)`` for exact fields).  A NaN or
    infinite ``r`` is a DomainError.
    """
    if r is None:
        r = hfield.r
    if not np.isfinite(r):
        raise DomainError(f"head r={r!r} is not finite")
    q, p, h = hfield.q, hfield.p, hfield.h
    dp = p[1] - p[0]
    # fourth-order one-sided closure for h_p on the surface row
    h_p_top = (25.0 * h[-1] - 48.0 * h[-2] + 36.0 * h[-3]
               - 16.0 * h[-4] + 3.0 * h[-5]) / (12.0 * dp)
    if q.size >= 3:
        h_q_top = np.gradient(h[-1], q, edge_order=2)
    else:
        h_q_top = np.zeros_like(q)
    samples = (1.0 + h_q_top ** 2) / h_p_top ** 2 + 2.0 * h[-1] - 3.0 * r
    jmax = int(np.argmax(np.abs(samples)))
    return SurfaceResidual(
        q=q,
        samples=samples,
        max_abs=float(np.max(np.abs(samples))),
        mean_abs=float(np.mean(np.abs(samples))),
        location=float(q[jmax]),
    )


def field_equation_residual(hfield: HodographField,
                            dist: VorticityDistribution) -> FieldResidual:
    """Interior residual of the divergence-form height equation."""
    q, p, h = hfield.q, hfield.p, hfield.h
    if p.size < 7 or q.size < 7:
        raise ConfigError(
            f"grid {p.size}x{q.size} too coarse: nested stencils leave no "
            f"interior nodes")
    h_q = np.gradient(h, q, axis=1, edge_order=2)
    h_p = np.gradient(h, p, axis=0, edge_order=2)
    flux_q = h_q / h_p
    flux_p = (1.0 + h_q ** 2) / (2.0 * h_p ** 2) + dist.Omega(p)[:, None]
    resid = (np.gradient(flux_q, q, axis=1, edge_order=2)
             - np.gradient(flux_p, p, axis=0, edge_order=2))
    inner = resid[2:-2, 2:-2]
    imax, jmax = np.unravel_index(int(np.argmax(np.abs(inner))), inner.shape)
    return FieldResidual(
        q=q[2:-2],
        p=p[2:-2],
        samples=inner,
        max_abs=float(np.max(np.abs(inner))),
        mean_abs=float(np.mean(np.abs(inner))),
        location=(float(q[2 + jmax]), float(p[2 + imax])),
    )


def wheeler_identity(hfield: HodographField, s: float, window,
                     dist: VorticityDistribution) -> WheelerReport:
    """Evaluate both sides of the conjugate-flow integral identity.

    The field ``h`` is compared with the reference stream
    ``solve_stream(dist, s)``, whose ``H(p; s)`` and ``Phi(p; s)`` on the
    field's grid come from one two-row profile of that stream, over the
    q-window: the left side couples ``Phi(1; s) - 1`` with the surface
    deviation plus a gradient-quadratic bulk integral, the right side is
    the boundary flux ``-(h_q / h_p) Phi(p; s)`` through the window's
    vertical sides.  Quadrature is the trapezoid rule on the field's own
    grid; the comparison profile is differenced by the same discrete
    operator as ``h``, so self-comparison returns exact zeros.

    A head mismatch between that stream's head ``R(s)`` and the field's
    ``r`` is warned about, not raised: the identity is only meaningful on
    matching heads, but probing violations is part of the diagnostic's
    job.  A window that reaches off the field's q-range, or holds no
    interval of its grid, is a :class:`ConfigError`.
    """
    q, p, h = hfield.q, hfield.p, hfield.h
    if window is None:
        window = (float(q[0]), float(q[-1]))
    q1, q2 = float(window[0]), float(window[1])
    if not (q[0] <= q1 <= q[-1] and q[0] <= q2 <= q[-1]):
        raise ConfigError(f"window {window!r} reaches off q in "
                          f"[{float(q[0])!r}, {float(q[-1])!r}]")
    jlo = int(np.argmin(np.abs(q - q1)))
    jhi = int(np.argmin(np.abs(q - q2)))
    if jhi <= jlo:
        raise ConfigError(f"empty window {window!r} on q in "
                          f"[{float(q[0])!r}, {float(q[-1])!r}]")

    ref = solve_stream(dist, s)
    H_col, phi_vals = ref._profile(p, -0.5, -1.5)
    head_gap = abs(ref.r - hfield.r)
    if head_gap > _HEAD_MATCH_TOL * max(1.0, abs(hfield.r)):
        warnings.warn(
            f"head mismatch: stream head {ref.r!r} at s={s!r} differs from "
            f"the field's r={hfield.r!r} by {head_gap!r}; the identity is "
            f"only exact on matching heads", stacklevel=2)

    phi_surface = float(phi_vals[-1])
    reduced = abs(phi_surface - 1.0) < _PHI_REDUCED_TOL

    # first-order edge closure in q: an x-independent field then has h_q
    # exactly zero, so stream comparisons produce exact zeros instead of
    # edge-stencil roundoff
    h_q = np.gradient(h, q, axis=1, edge_order=1)
    h_p = np.gradient(h, p, axis=0, edge_order=2)
    H_p = np.gradient(H_col, p, edge_order=2)
    w = h - H_col[:, None]
    w_q = np.gradient(w, q, axis=1, edge_order=1)
    w_p = np.gradient(w, p, axis=0, edge_order=2)

    qs = q[jlo:jhi + 1]
    width = float(qs[-1] - qs[0])
    bulk = (H_p[:, None] ** 2 * w_q[:, jlo:jhi + 1] ** 2
            + (2.0 * h_p[:, jlo:jhi + 1] + H_p[:, None])
            * w_p[:, jlo:jhi + 1] ** 2) / (2.0 * h_p[:, jlo:jhi + 1] ** 2)
    lhs = float(np.trapezoid(np.trapezoid(bulk, p, axis=0), qs))
    if not reduced:
        lhs += (phi_surface - 1.0) * float(np.trapezoid(w[-1, jlo:jhi + 1], qs))

    flux = (h_q / h_p) * phi_vals[:, None]
    rhs = -float(np.trapezoid(flux[:, jhi] - flux[:, jlo], p))

    return WheelerReport(
        s=float(s),
        window=(q1, q2),
        width=width,
        lhs=lhs,
        rhs=rhs,
        discrepancy=abs(lhs - rhs),
        lhs_per_unit=lhs / width if width > 0.0 else lhs,
        reduced=reduced,
        head_gap=float(head_gap),
    )
