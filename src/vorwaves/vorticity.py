"""Vorticity distributions on the unit interval and their flow classification.

A distribution omega(tau) is given on tau in [0, 1] (the range of the
normalized stream function).  Everything downstream needs three callables
derived from it: omega itself, its antiderivative Omega with Omega(0) = 0,
and (for the linearized problems) its derivative omega'.  Three concrete
representations are supported:

* ``constant``  -- omega(tau) = b;
* ``poly``      -- omega(tau) = c0 + c1 tau + ... + cn tau^n;
* ``table``     -- piecewise linear through breakpoints spanning [0, 1].

The classification splits distributions into three exclusive regimes by
where Omega attains its maximum and how the maximum is approached:

* ``"ii"``  -- the maximum is attained only at tau = 0 and omega(0) < 0;
* ``"iii"`` -- the maximum is attained at tau = 1 with omega(1) > 0
  (a tie with tau = 0 is allowed when Omega(1) = 0, provided omega(0) < 0
  holds as well);
* ``"i"``   -- everything else (interior or degenerate maximizers).

Under "ii" and "iii" the zero-slope depth d0 = d(s0) is finite because the
integrand gap vanishes linearly at a non-degenerate endpoint; under "i" it
diverges.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AmbiguousClassificationError, ConfigError, DomainError

__all__ = [
    "VorticityDistribution",
    "FlowClassification",
]

# Slack accepted on the [0, 1] domain before raising; inputs inside the
# band are clamped so that roundoff at the endpoints never trips callers.
_DOMAIN_SLACK = 1e-9

# Relative margin that separates an exact tie of Omega-maxima from a
# near-tie.  Near-ties are tolerated only when they cannot change the
# classification; otherwise they are reported as ambiguous.
_TIE_MARGIN = 1e-12

_AUDIT_POINTS = 10001


@dataclass(frozen=True)
class FlowClassification:
    """Outcome of classifying a vorticity distribution.

    Attributes
    ----------
    condition : str
        One of ``"i"``, ``"ii"``, ``"iii"``.
    max_Omega : float
        ``max_{[0,1]} Omega``.
    maximizers : tuple of float
        Points where the maximum is attained (exact ties included).
    omega_at_0, omega_at_1 : float
        Endpoint values of the distribution.
    s0 : float
        Threshold slope ``sqrt(2 max Omega)`` below which no
        unidirectional stream solution exists.
    d0_finite : bool
        Whether the zero-margin depth ``d(s0)`` is finite.
    note : str
        Human-readable justification of the verdict.
    """

    condition: str
    max_Omega: float
    maximizers: tuple
    omega_at_0: float
    omega_at_1: float
    s0: float
    d0_finite: bool
    note: str


class VorticityDistribution:
    """A vorticity distribution omega(tau) on [0, 1].

    Parameters
    ----------
    kind : {"constant", "poly", "table"}
        Representation selector.
    coefficients : sequence of float, optional
        For ``constant`` a single value; for ``poly`` the coefficients
        ``c0..cn`` in increasing degree.
    nodes : sequence of (float, float), optional
        For ``table`` the breakpoints ``(tau_k, omega_k)``; ``tau`` must
        be strictly increasing and span exactly [0, 1].

    Notes
    -----
    Evaluation outside [0, 1] (needed only by the shooting solver, whose
    trajectories may overshoot the unit range) extends the polynomial
    naturally and the table by its terminal linear segments.  The public
    evaluators reject arguments outside [0, 1] up to a small slack.
    """

    def __init__(self, kind: str, coefficients: Optional[Sequence[float]] = None,
                 nodes: Optional[Iterable[Sequence[float]]] = None):
        if kind not in ("constant", "poly", "table"):
            raise ConfigError(f"unknown vorticity kind {kind!r}")
        self.kind = kind
        if kind in ("constant", "poly"):
            if coefficients is None or len(tuple(coefficients)) == 0:
                raise ConfigError(f"{kind} vorticity needs coefficients")
            coeffs = tuple(float(c) for c in coefficients)
            if not all(isfinite(c) for c in coeffs):
                raise ConfigError("vorticity coefficients must be finite")
            if kind == "constant" and len(coeffs) != 1:
                raise ConfigError("constant vorticity takes exactly one value")
            self._coeffs = coeffs
            # derivative and antiderivative (lower limit 0) coefficients
            self._dcoeffs = tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)
            self._icoeffs = (0.0,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))
            self._nodes = None
        else:
            pairs = [(float(t), float(v)) for t, v in nodes or ()]
            if len(pairs) < 2:
                raise ConfigError("table vorticity needs at least two breakpoints")
            taus = [t for t, _ in pairs]
            if any(b <= a for a, b in zip(taus, taus[1:])):
                raise ConfigError("table breakpoints must be strictly increasing")
            if taus[0] != 0.0 or taus[-1] != 1.0:
                raise ConfigError("table breakpoints must span [0, 1] exactly")
            if not all(isfinite(v) for _, v in pairs):
                raise ConfigError("table values must be finite")
            self._nodes = tuple(pairs)
            self._bt = np.array(taus)
            self._bv = np.array([v for _, v in pairs])
            self._bm = np.diff(self._bv) / np.diff(self._bt)
            # cumulative trapezoid gives the exact antiderivative of a
            # piecewise-linear function at the breakpoints
            seg = 0.5 * (self._bv[:-1] + self._bv[1:]) * np.diff(self._bt)
            self._bc = np.concatenate(([0.0], np.cumsum(seg)))
            self._t_list = taus
            self._coeffs = None
        self._key = (self.kind, self._coeffs if self._nodes is None else self._nodes)
        self._gap_cache: dict = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, b: float) -> "VorticityDistribution":
        return cls("constant", coefficients=(b,))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "VorticityDistribution":
        return cls("poly", coefficients=coefficients)

    @classmethod
    def from_table(cls, nodes: Iterable[Sequence[float]]) -> "VorticityDistribution":
        return cls("table", nodes=nodes)

    @classmethod
    def parse(cls, text: str) -> "VorticityDistribution":
        """Parse ``"constant b"``, ``"poly c0 c1 ..."`` or ``"table t:v ..."``."""
        tokens = text.split()
        if not tokens:
            raise ConfigError("empty vorticity text")
        kind, args = tokens[0].lower(), tokens[1:]
        try:
            if kind == "constant":
                if len(args) != 1:
                    raise ConfigError("constant vorticity takes exactly one value")
                return cls.constant(float(args[0]))
            if kind == "poly":
                if not args:
                    raise ConfigError("poly vorticity needs coefficients")
                return cls.polynomial([float(a) for a in args])
            if kind == "table":
                nodes = []
                for tok in args:
                    t, sep, v = tok.partition(":")
                    if not sep:
                        raise ConfigError(
                            f"table entries look like tau:value, got {tok!r}")
                    nodes.append((float(t), float(v)))
                return cls.from_table(nodes)
        except ValueError as exc:
            raise ConfigError(f"bad number in vorticity spec {text!r}: {exc}") from exc
        raise ConfigError(f"unknown vorticity kind {kind!r}")

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, VorticityDistribution) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if self.kind == "constant":
            return f"VorticityDistribution.constant({self._coeffs[0]!r})"
        if self.kind == "poly":
            return f"VorticityDistribution.polynomial({list(self._coeffs)!r})"
        return f"VorticityDistribution.from_table({list(self._nodes)!r})"

    def describe(self) -> dict:
        """A JSON-ready description of the distribution."""
        if self.kind == "constant":
            return {"kind": "constant", "value": self._coeffs[0]}
        if self.kind == "poly":
            return {"kind": "poly", "coefficients": list(self._coeffs)}
        return {"kind": "table", "nodes": [list(p) for p in self._nodes]}

    # -- scalar fast paths (no domain checks; natural extension) --------------

    def _omega_scalar(self, t: float) -> float:
        if self._nodes is None:
            acc = 0.0
            for c in reversed(self._coeffs):
                acc = acc * t + c
            return acc
        i = min(max(bisect.bisect_right(self._t_list, t) - 1, 0), len(self._t_list) - 2)
        return float(self._bv[i] + self._bm[i] * (t - self._t_list[i]))

    def _Omega_scalar(self, t: float) -> float:
        if self._nodes is None:
            acc = 0.0
            for c in reversed(self._icoeffs):
                acc = acc * t + c
            return acc
        i = min(max(bisect.bisect_right(self._t_list, t) - 1, 0), len(self._t_list) - 2)
        dt = t - self._t_list[i]
        return float(self._bc[i] + self._bv[i] * dt + 0.5 * self._bm[i] * dt * dt)

    def _gap(self, m: float, e: float, x):
        """``Omega(m) - Omega(m + e x)`` for ``x >= 0``, free of cancellation.

        ``m`` is a maximizer of Omega or an endpoint and ``e = +1`` or
        ``-1`` picks the side.  The gap is built from ``m`` outward (see
        :meth:`_gap_segments`), so it keeps its leading term however close
        ``x`` comes to 0, where the direct difference loses every digit.
        """
        seg, coef = self._gap_segments(m, e)
        x = np.asarray(x, dtype=float)
        if len(seg) == 1:
            c, dx = coef[0], x
        else:
            k = np.clip(np.searchsorted(seg, x, side="right") - 1, 0, len(seg) - 1)
            c, dx = coef[k], x - seg[k]
        acc = c[..., -1]
        for j in range(coef.shape[1] - 2, -1, -1):
            acc = acc * dx + c[..., j]
        return acc

    def _gap_segments(self, m: float, e: float):
        """Piecewise-polynomial form of :meth:`_gap` about ``m`` on side ``e``.

        Returns ``(seg, coef)``: segment ``k`` starts at ``x = seg[k]``
        (``seg[0] = 0``) and ``coef[k]`` holds the coefficients of the gap
        in ``x - seg[k]``, lowest first.  A polynomial is shifted to ``m``,
        which cancels its constant term exactly; a table is summed exactly
        segment by segment from ``m`` (trapezoids, exact for linear
        omega).  An interior ``m`` is taken as a root of omega, as every
        interior maximizer of Omega is, so the linear term is exactly 0.
        """
        key = (m, e)
        if key not in self._gap_cache:
            interior = 0.0 < m < 1.0
            if self._nodes is None:
                # Taylor coefficients of Omega at m by repeated synthetic
                # division, then x -> e x
                taylor = list(self._icoeffs)
                for i in range(len(taylor) - 1):
                    for j in range(len(taylor) - 2, i - 1, -1):
                        taylor[j] += m * taylor[j + 1]
                coef = np.array([-c * e ** k for k, c in enumerate(taylor)])
                coef[0] = 0.0
                if interior:
                    coef[1] = 0.0
                seg, coef = np.zeros(1), coef[None, :]
            else:
                side = self._bt > m if e > 0 else self._bt < m
                order = slice(None) if e > 0 else slice(None, None, -1)
                w0 = 0.0 if interior else float(np.interp(m, self._bt, self._bv))
                seg = np.concatenate(([0.0], np.abs(self._bt[side][order] - m)))
                w = np.concatenate(([w0], self._bv[side][order]))
                h = np.diff(seg)
                area = np.concatenate(([0.0], np.cumsum(-e * 0.5 * h * (w[:-1] + w[1:]))))
                coef = np.column_stack((area[:-1], -e * w[:-1], -0.5 * e * np.diff(w) / h))
                seg = seg[:-1]
            self._gap_cache[key] = (seg, coef)
        return self._gap_cache[key]

    def _omega_prime_scalar(self, t: float) -> float:
        if self._nodes is None:
            acc = 0.0
            for c in reversed(self._dcoeffs):
                acc = acc * t + c
            return acc
        i = min(max(bisect.bisect_right(self._t_list, t) - 1, 0), len(self._t_list) - 2)
        return float(self._bm[i])

    # -- public vectorized evaluators -----------------------------------------

    def _checked(self, tau):
        arr = np.asarray(tau, dtype=float)
        if arr.size and (np.min(arr) < -_DOMAIN_SLACK or np.max(arr) > 1.0 + _DOMAIN_SLACK):
            bad = arr[(arr < -_DOMAIN_SLACK) | (arr > 1.0 + _DOMAIN_SLACK)]
            raise DomainError(
                f"vorticity argument {float(bad.flat[0])!r} outside [0, 1]")
        return np.clip(arr, 0.0, 1.0)

    def omega(self, tau):
        """Evaluate omega(tau) for tau in [0, 1] (scalar or array)."""
        arr = self._checked(tau)
        out = self._omega_ext(arr)
        return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out

    def Omega(self, tau):
        """Evaluate Omega(tau) = int_0^tau omega, for tau in [0, 1]."""
        arr = self._checked(tau)
        out = self._Omega_ext(arr)
        return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out

    def omega_prime(self, tau):
        """Evaluate omega'(tau) for tau in [0, 1].

        For tables this is the almost-everywhere derivative (the segment
        slope); at breakpoints the left segment wins.
        """
        arr = self._checked(tau)
        out = self._omega_prime_ext(arr)
        return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out

    def _omega_ext(self, arr):
        if self._nodes is None:
            return np.polynomial.polynomial.polyval(arr, self._coeffs)
        idx = np.clip(np.searchsorted(self._bt, arr, side="right") - 1,
                      0, len(self._bt) - 2)
        return self._bv[idx] + self._bm[idx] * (arr - self._bt[idx])

    def _Omega_ext(self, arr):
        if self._nodes is None:
            return np.polynomial.polynomial.polyval(arr, self._icoeffs)
        idx = np.clip(np.searchsorted(self._bt, arr, side="right") - 1,
                      0, len(self._bt) - 2)
        dt = arr - self._bt[idx]
        return self._bc[idx] + self._bv[idx] * dt + 0.5 * self._bm[idx] * dt * dt

    def _omega_prime_ext(self, arr):
        if self._nodes is None:
            return np.polynomial.polynomial.polyval(arr, self._dcoeffs)
        idx = np.clip(np.searchsorted(self._bt, arr, side="right") - 1,
                      0, len(self._bt) - 2)
        return self._bm[idx] + 0.0 * arr

    # -- extrema of Omega ------------------------------------------------------

    @cached_property
    def _extrema(self):
        """Exact maximizer set of Omega on [0, 1] plus near-tie candidates.

        Candidates are the endpoints together with the interior critical
        points (roots of omega): polynomial roots inside (0, 1), or table
        breakpoints and in-segment sign crossings.  A dense audit grid
        guards against candidates missed by the algebra.
        """
        cands = {0.0, 1.0}
        if self.kind == "poly":
            trimmed = np.trim_zeros(np.asarray(self._coeffs, dtype=float), "b")
            if trimmed.size >= 2:
                for z in np.polynomial.polynomial.polyroots(trimmed):
                    if abs(z.imag) < 1e-12 and 0.0 < z.real < 1.0:
                        cands.add(float(z.real))
        elif self.kind == "table":
            for t in self._t_list[1:-1]:
                cands.add(t)
            for i in range(len(self._t_list) - 1):
                m = self._bm[i]
                if m != 0.0 and self._bv[i] * self._bv[i + 1] < 0.0:
                    cands.add(float(self._t_list[i] - self._bv[i] / m))
        cands = sorted(cands)
        vals = [self._Omega_scalar(c) for c in cands]
        big = max(vals)
        scale = max(1.0, abs(big))
        tol = _TIE_MARGIN * scale
        exact = tuple(c for c, v in zip(cands, vals) if v == big)
        near = [c for c, v in zip(cands, vals) if 0.0 < big - v <= tol]

        grid = np.linspace(0.0, 1.0, _AUDIT_POINTS)
        gv = self._Omega_ext(grid)
        overshoot = float(np.max(gv)) - big
        if overshoot > tol:
            k = int(np.argmax(gv))
            raise AmbiguousClassificationError(
                f"audit grid found Omega({grid[k]!r}) = {float(gv[k])!r} above the "
                f"candidate maximum {big!r}; competing maximizers "
                f"{exact + (float(grid[k]),)}")
        # representatives of grid runs that tie or near-tie the maximum but
        # sit away from every known candidate (flat stretches and the like)
        close = np.flatnonzero(big - gv <= tol)
        if close.size:
            runs = np.split(close, np.flatnonzero(np.diff(close) > 1) + 1)
            for run in runs:
                rep = run[int(np.argmax(gv[run]))]
                g = float(grid[rep])
                if min(abs(g - c) for c in cands) > 2.0 / (_AUDIT_POINTS - 1):
                    near.append(g)
        return big, exact, tuple(near)

    @property
    def max_Omega(self) -> float:
        return self._extrema[0]

    @property
    def maximizers(self) -> tuple:
        return self._extrema[1]

    def s0(self) -> float:
        """Threshold slope sqrt(2 max Omega) (zero when the maximum is <= 0)."""
        return sqrt(max(2.0 * self.max_Omega, 0.0))

    # -- classification ---------------------------------------------------------

    def _condition_for(self, maxset: tuple) -> str:
        interior = [m for m in maxset if 0.0 < m < 1.0]
        w0 = self._omega_scalar(0.0)
        w1 = self._omega_scalar(1.0)
        if interior:
            return "i"
        if maxset == (0.0,):
            return "ii" if w0 < 0.0 else "i"
        if maxset == (1.0,):
            return "iii" if w1 > 0.0 else "i"
        if set(maxset) == {0.0, 1.0}:
            return "iii" if (w0 < 0.0 and w1 > 0.0) else "i"
        return "i"

    @cached_property
    def _classification(self) -> FlowClassification:
        big, exact, near = self._extrema
        cond = self._condition_for(exact)
        # a near-tie is only a problem when promoting it to a true
        # maximizer would change the verdict
        for g in near:
            promoted = tuple(sorted(set(exact) | {g}))
            if self._condition_for(promoted) != cond:
                raise AmbiguousClassificationError(
                    f"Omega has a near-tie at tau={g!r} within relative margin "
                    f"{_TIE_MARGIN}; competing maximizers {exact + (g,)} give "
                    f"conflicting classifications")
        w0 = self._omega_scalar(0.0)
        w1 = self._omega_scalar(1.0)
        s0 = self.s0()
        if cond == "ii":
            note = ("maximum of Omega only at tau=0 with omega(0) < 0; "
                    "the margin vanishes linearly at the bottom")
        elif cond == "iii":
            if set(exact) == {0.0, 1.0}:
                note = ("maximum of Omega tied between tau=0 and tau=1 with "
                        "omega(0) < 0 and omega(1) > 0")
            else:
                note = ("maximum of Omega only at tau=1 with omega(1) > 0; "
                        "the margin vanishes linearly at the surface")
        else:
            reasons = []
            interior = [m for m in exact if 0.0 < m < 1.0]
            if interior:
                reasons.append(f"interior maximizer(s) {tuple(interior)}")
            if 0.0 in exact and w0 >= 0.0:
                reasons.append("maximum at tau=0 but omega(0) >= 0")
            if 1.0 in exact and w1 <= 0.0:
                reasons.append("maximum at tau=1 but omega(1) <= 0")
            note = "degenerate or interior maximum: " + "; ".join(reasons)
        return FlowClassification(
            condition=cond,
            max_Omega=big,
            maximizers=exact,
            omega_at_0=w0,
            omega_at_1=w1,
            s0=s0,
            d0_finite=(cond in ("ii", "iii")),
            note=note,
        )

    def classify(self) -> FlowClassification:
        """Classify the distribution into conditions "i", "ii" or "iii"."""
        return self._classification
