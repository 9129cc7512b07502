"""Vorticity distributions on the unit interval and their flow classification.

A distribution omega(tau) is given on tau in [0, 1] (the range of the
normalized stream function).  Everything downstream needs three callables
derived from it: omega itself, its antiderivative Omega with Omega(0) = 0,
and (for the linearized problems) its derivative omega'.  Three input
forms are accepted:

* ``constant``  -- omega(tau) = b;
* ``poly``      -- omega(tau) = c0 + c1 tau + ... + cn tau^n;
* ``table``     -- piecewise linear through breakpoints spanning [0, 1].

All three are stored as one piecewise polynomial: sorted segment starts
and one coefficient row per segment in ``tau - start``.  A constant or
poly is one segment at 0; a table has one linear row per node, the last
at 1.  The rows of omega' and Omega (continuous, Omega(0) = 0) are
derived once, so no evaluator asks which form was given.

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

# A root of omega this close to a segment end is that end (a candidate).
_ROOT_SNAP = 4.0 * np.finfo(float).eps


def _horner(seg, coef, x):
    """A piecewise polynomial at ``x`` (scalar or array): segment ``k``
    starts at ``seg[k]`` (``seg[0] = 0``) with coefficients ``coef[k]`` in
    ``x - seg[k]``, lowest first; the end segments extend beyond the ends."""
    x = np.asarray(x, dtype=float)
    if len(seg) == 1:
        c, dx = coef[0], x
    else:
        k = np.clip(np.searchsorted(seg, x, side="right") - 1, 0, len(seg) - 1)
        c, dx = coef[k], x - seg[k]
    acc = c[..., -1] + 0.0 * dx
    for j in range(coef.shape[1] - 2, -1, -1):
        acc = acc * dx + c[..., j]
    return acc


def _scalar_horner(seg, coef):
    """:func:`_horner` for one float, as a closure over Python floats, for
    scalar callers such as the right-hand side of the stream shot."""
    rows = [tuple(reversed(row)) for row in coef.tolist()]
    starts, last = seg.tolist(), len(rows) - 1

    def horner(t):
        i = min(max(bisect.bisect_right(starts, t) - 1, 0), last)
        t -= starts[i]
        acc = 0.0
        for c in rows[i]:
            acc = acc * t + c
        return acc
    return horner


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
        Input form.
    coefficients : iterable of float, optional
        For ``constant`` a single value; for ``poly`` the coefficients
        ``c0..cn`` in increasing degree.
    nodes : iterable of (float, float), optional
        For ``table`` the breakpoints ``(tau_k, omega_k)``; ``tau`` must
        be strictly increasing and span exactly [0, 1].

    Notes
    -----
    Evaluation outside [0, 1] (needed only by the shooting solver, whose
    trajectories may overshoot the unit range) extends the first and last
    rows: the polynomial naturally, the table linearly.  The public
    evaluators reject arguments outside [0, 1] up to a small slack.
    """

    def __init__(self, kind: str, coefficients: Optional[Iterable[float]] = None,
                 nodes: Optional[Iterable[Sequence[float]]] = None):
        if kind not in ("constant", "poly", "table"):
            raise ConfigError(f"unknown vorticity kind {kind!r}")
        self.kind = kind
        if kind == "table":
            pairs = tuple((float(t), float(v)) for t, v in (() if nodes is None else nodes))
            if len(pairs) < 2:
                raise ConfigError("table vorticity needs at least two breakpoints")
            t, v = np.array(pairs).T
            if np.any(np.diff(t) <= 0.0):
                raise ConfigError("table breakpoints must be strictly increasing")
            if t[0] != 0.0 or t[-1] != 1.0:
                raise ConfigError("table breakpoints must span [0, 1] exactly")
            if not np.isfinite(v).all():
                raise ConfigError("table values must be finite")
            self._coeffs, self._nodes = None, pairs
            # one row per node: the last, at 1, keeps omega(1) exact
            slope = np.diff(v) / np.diff(t)
            seg, w = t, np.column_stack((v, np.append(slope, slope[-1])))
        else:
            coeffs = tuple(float(c) for c in (() if coefficients is None else coefficients))
            if not coeffs:
                raise ConfigError(f"{kind} vorticity needs coefficients")
            if not all(isfinite(c) for c in coeffs):
                raise ConfigError("vorticity coefficients must be finite")
            if kind == "constant" and len(coeffs) != 1:
                raise ConfigError("constant vorticity takes exactly one value")
            self._coeffs, self._nodes = coeffs, None
            seg, w = np.zeros(1), np.array([coeffs])
        # rows of Omega, continuous from Omega(0) = 0, and of omega'
        n, cols = w.shape
        big_w = np.zeros((n, cols + 1))
        big_w[:, 1:] = w / np.arange(1, cols + 1)
        for k in range(1, n):
            big_w[k, 0] = np.polynomial.polynomial.polyval(seg[k] - seg[k - 1], big_w[k - 1])
        dw = w[:, 1:] * np.arange(1, cols) if cols > 1 else np.zeros((n, 1))
        self._seg, self._w, self._W, self._dw = seg, w, big_w, dw
        # scalar fast paths (no domain checks; natural extension)
        self._omega_scalar = _scalar_horner(seg, w)
        self._Omega_scalar = _scalar_horner(seg, big_w)
        self._key = (kind, self._coeffs if self._nodes is None else self._nodes)
        self._gap_cache: dict = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, b: float) -> "VorticityDistribution":
        return cls("constant", coefficients=(b,))

    @classmethod
    def polynomial(cls, coefficients: Iterable[float]) -> "VorticityDistribution":
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
            if kind in ("constant", "poly"):
                return cls(kind, coefficients=[float(a) for a in args])
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

    def _gap(self, m: float, e: float, x):
        """``Omega(m) - Omega(m + e x)`` for ``x >= 0``, free of cancellation.

        ``m`` is a maximizer of Omega or an endpoint and ``e = +1`` or
        ``-1`` picks the side.  The gap is built from ``m`` outward (see
        :meth:`_gap_segments`), so it keeps its leading term however close
        ``x`` comes to 0, where the direct difference loses every digit.
        """
        return _horner(*self._gap_segments(m, e), x)

    def _gap_segments(self, m: float, e: float):
        """Piecewise-polynomial form of :meth:`_gap` about ``m`` on side ``e``.

        Returns ``(seg, coef)`` in the layout of :func:`_horner`, in ``x``:
        segment ``k`` starts where the gap enters the ``k``-th segment of
        omega counted outward from ``m``.  Each Omega row is Taylor-shifted
        to that entry point by repeated synthetic division, and ``tau`` is
        replaced by ``m + e x``.  Where a row starts at the entry, omega
        there is that row's given value, not the shifted one (omega is
        continuous, and the shift rounds).  The
        constant is the gap at the entry, summed outward from 0 at ``m``,
        so no constant is a difference of Omega values.  An interior ``m``
        is taken as a root of omega, as every interior maximizer of Omega
        is, so the linear term is exactly 0.
        """
        key = (m, e)
        if key not in self._gap_cache:
            starts = self._seg.tolist()
            if e > 0:
                i = max(bisect.bisect_right(starts, m) - 1, 0)
                rows, entries = range(i, len(starts)), [m, *starts[i + 1:]]
            else:
                i = max(bisect.bisect_left(starts, m) - 1, 0)
                rows, entries = range(i, -1, -1), [m, *starts[i:0:-1]]
            seg = np.array([abs(a - m) for a in entries])
            coef = np.zeros((len(seg), self._W.shape[1]))
            for k, (j, a) in enumerate(zip(rows, entries)):
                taylor, shift = self._W[j].tolist(), a - starts[j]
                for p in range(len(taylor) - 1):
                    for q in range(len(taylor) - 2, p - 1, -1):
                        taylor[q] += shift * taylor[q + 1]
                if a in starts:
                    taylor[1] = self._w[starts.index(a), 0]
                coef[k, 1:] = [-c * e ** n for n, c in enumerate(taylor) if n]
                if k:
                    coef[k, 0] = np.polynomial.polynomial.polyval(seg[k] - seg[k - 1], coef[k - 1])
                elif 0.0 < m < 1.0:
                    coef[0, 1] = 0.0
            self._gap_cache[key] = (seg, coef)
        return self._gap_cache[key]

    # -- public vectorized evaluators -----------------------------------------

    def _checked(self, tau):
        arr = np.asarray(tau, dtype=float)
        if arr.size and (np.min(arr) < -_DOMAIN_SLACK or np.max(arr) > 1.0 + _DOMAIN_SLACK):
            bad = arr[(arr < -_DOMAIN_SLACK) | (arr > 1.0 + _DOMAIN_SLACK)]
            raise DomainError(
                f"vorticity argument {float(bad.flat[0])!r} outside [0, 1]")
        return np.clip(arr, 0.0, 1.0)

    def _evaluate(self, coef, tau):
        out = _horner(self._seg, coef, self._checked(tau))
        return float(out) if np.ndim(tau) == 0 else out

    def omega(self, tau):
        """Evaluate omega(tau) for tau in [0, 1] (scalar or array)."""
        return self._evaluate(self._w, tau)

    def Omega(self, tau):
        """Evaluate Omega(tau) = int_0^tau omega, for tau in [0, 1]."""
        return self._evaluate(self._W, tau)

    def omega_prime(self, tau):
        """Evaluate omega'(tau) for tau in [0, 1].

        For tables this is the almost-everywhere derivative (the segment
        slope); at an interior breakpoint the segment that starts there wins.
        """
        return self._evaluate(self._dw, tau)

    # -- extrema of Omega ------------------------------------------------------

    @cached_property
    def _extrema(self):
        """Exact maximizer set of Omega on [0, 1] plus near-tie candidates.

        Candidates are the endpoints, the interior segment starts and the
        interior critical points (real roots of each omega row inside its
        segment).  A dense audit grid guards against candidates missed by
        the algebra.
        """
        inner = self._seg[1:].tolist()
        cands = {0.0, 1.0, *inner}
        for a, b, row in zip(self._seg.tolist(), inner + [1.0], self._w):
            trimmed = np.trim_zeros(row, "b")
            if trimmed.size >= 2:
                for z in np.polynomial.polynomial.polyroots(trimmed):
                    if abs(z.imag) < 1e-12 and _ROOT_SNAP < z.real < b - a - _ROOT_SNAP:
                        cands.add(a + float(z.real))
        cands = sorted(cands)
        vals = [self._Omega_scalar(c) for c in cands]
        big = max(vals)
        scale = max(1.0, abs(big))
        tol = _TIE_MARGIN * scale
        exact = tuple(c for c, v in zip(cands, vals) if v == big)
        near = [c for c, v in zip(cands, vals) if 0.0 < big - v <= tol]

        grid = np.linspace(0.0, 1.0, _AUDIT_POINTS)
        gv = _horner(self._seg, self._W, grid)
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

    def s0(self) -> float:
        """Threshold slope sqrt(2 max Omega) (zero when the maximum is <= 0)."""
        return sqrt(max(2.0 * self._extrema[0], 0.0))

    # -- classification ---------------------------------------------------------

    def _endpoint_tol(self) -> float:
        """An endpoint omega within this of 0 is a rounded 0: its peak is
        degenerate (``poly 0.1 0.2 -0.3`` has ``omega(1) = 2.8e-17``)."""
        return _TIE_MARGIN * max(1.0, abs(self._extrema[0]))

    def _condition_for(self, maxset: tuple) -> str:
        interior = [m for m in maxset if 0.0 < m < 1.0]
        tol = self._endpoint_tol()
        w0 = self._omega_scalar(0.0)
        w1 = self._omega_scalar(1.0)
        if interior:
            return "i"
        if maxset == (0.0,):
            return "ii" if w0 < -tol else "i"
        if maxset == (1.0,):
            return "iii" if w1 > tol else "i"
        if set(maxset) == {0.0, 1.0}:
            return "iii" if (w0 < -tol and w1 > tol) else "i"
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
            tol = self._endpoint_tol()
            if 0.0 in exact and w0 >= -tol:
                reasons.append("maximum at tau=0 but omega(0) >= 0 to rounding")
            if 1.0 in exact and w1 <= tol:
                reasons.append("maximum at tau=1 but omega(1) <= 0 to rounding")
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
