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
derived once, so no evaluator asks which form was given.  The gap
``max Omega - Omega`` is read here too, about the nearest maximizer and
free of cancellation beside it, so no other module evaluates omega.

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

# A root of omega this close to a segment end is that end (a candidate).
_ROOT_SNAP = 4.0 * np.finfo(float).eps


def _horner(seg, coef, x):
    """A piecewise polynomial at ``x`` (scalar or array): segment ``k``
    starts at ``seg[k]`` (``seg[0] = 0``) with coefficients ``coef[k]`` in
    ``x - seg[k]``, lowest first; the end segments extend beyond the ends."""
    x = np.asarray(x, dtype=float)
    if len(seg) == 1:
        return _horner_rows(coef[0], x)
    k = np.clip(np.searchsorted(seg, x, side="right") - 1, 0, len(seg) - 1)
    return _horner_rows(coef[k], x - seg[k])


def _horner_rows(c, dx):
    """Horner's rule on gathered rows: ``c[..., j]`` multiplies ``dx**j``."""
    acc = c[..., -1] + 0.0 * dx
    for j in range(c.shape[-1] - 2, -1, -1):
        acc = acc * dx + c[..., j]
    return acc


def _shift(c, h):
    """The coefficients of ``c[0] + c[1] x + ...`` in ``x - h``, as a list."""
    t = list(c)
    for p in range(len(t) - 1):
        for q in range(len(t) - 2, p - 1, -1):
            t[q] += h * t[q + 1]
    return t


def _clusters(c):
    """Yield the roots ``x`` of ``c[0] + c[1] x + ...`` with multiplicities ``k``.
    A ``k``-fold root leaves the companion matrix as ``k`` eigenvalues spread
    by about ``eps^(1/k)``: the ``k`` nearest one, with a real mean, are one
    root if a Newton step on the ``(k - 1)``-th derivative takes the mean to
    an ``x`` where the monic Taylor coefficients ``t_j``, ``j < k``, are within
    ``n eps w_j`` of 0 (``w`` those of ``|c|`` about ``max(1, |x|)``), and none
    lies farther than ``(n eps w_0 / |t_k|)^(1/k)``.  The largest ``k`` wins."""
    if c.size < 2:  # a nonzero constant, or 0 throughout
        return
    a = (c / c[-1]).tolist()
    companion = np.eye(c.size - 1, k=-1)
    companion[:, -1] -= a[:-1]
    z, tol = list(np.linalg.eigvals(companion)), (len(a) - 1) * np.finfo(float).eps
    while z:
        near = sorted(z, key=lambda y: abs(y - z[0]))
        for k in range(len(near), 1, -1):
            mean = sum(near[:k]) / k
            t = _shift(a, mean.real)
            if abs(mean.imag) < 1e-12 and t[k] != 0.0:
                x = mean.real - t[k - 1] / (k * t[k])
                t, w = _shift(a, x), _shift([abs(v) for v in a], max(1.0, abs(x)))
                if (all(abs(t[j]) <= tol * w[j] for j in range(k))
                        and max(abs(y - x) for y in near[:k]) ** k * abs(t[k]) <= tol * w[0]):
                    break
        else:
            k, x = 1, near[0]
        yield x, k
        z = near[k:]


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
            try:
                pairs = tuple((float(t), float(v)) for t, v in (() if nodes is None else nodes))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"table nodes must be (tau, value) pairs of numbers: "
                                  f"{exc}") from exc
            if len(pairs) < 2:
                raise ConfigError("table vorticity needs at least two breakpoints")
            t, v = np.array(pairs).T
            if not np.all(np.diff(t) > 0.0):
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
            try:
                coeffs = tuple(float(c) for c in (() if coefficients is None else coefficients))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{kind} vorticity coefficients must be a sequence of "
                                  f"numbers: {exc}") from exc
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
            big_w[k, 0] = _horner_rows(big_w[k - 1], seg[k] - seg[k - 1])
        dw = w[:, 1:] * np.arange(1, cols) if cols > 1 else np.zeros((n, 1))
        self._seg, self._w, self._W, self._dw = seg, w, big_w, dw
        self._key = (kind, self._coeffs if self._nodes is None else self._nodes)

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

    def _gap_segments(self, m: float, e: float):
        """Piecewise-polynomial form of the gap ``Omega(m) - Omega(m + e x)``,
        ``x >= 0``, about a maximizer or endpoint ``m`` on side ``e = +-1``.

        Returns ``(seg, coef)`` in the layout of :func:`_horner`, in ``x``:
        segment ``k`` starts where the gap enters the ``k``-th segment of
        omega counted outward from ``m``.  Each Omega row is Taylor-shifted
        to that entry point by repeated synthetic division, and ``tau`` is
        replaced by ``m + e x``.  Where a row starts at the entry, omega
        there is that row's given value, not the shifted one (omega is
        continuous, and the shift rounds).  The
        constant is the gap at the entry, summed outward from 0 at ``m``,
        so no constant is a difference of Omega values.  About a root of
        omega of multiplicity ``k`` (:attr:`_extrema`; every interior
        maximizer is one), the terms below the gap's order ``k + 1`` are 0.
        """
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
            taylor = _shift(self._W[j].tolist(), a - starts[j])
            if a in starts:
                taylor[1] = self._w[starts.index(a), 0]
            coef[k, 1:] = [-c * e ** n for n, c in enumerate(taylor) if n]
            if k:
                coef[k, 0] = _horner_rows(coef[k - 1], seg[k] - seg[k - 1])
            else:
                coef[0, 1:self._extrema[3].get(m, 0) + 1] = 0.0
        return seg, coef

    @cached_property
    def _partition(self) -> tuple:
        """``[0, 1]`` cut at the segment starts of omega, at the maximizers of
        Omega and midway between neighbouring maximizers, so that each part
        has one frame, its nearest maximizer ``m`` and the side ``e`` of it
        (``+1`` above ``m``, and everywhere about ``m = 0``, else ``-1``), and
        lies in one row of :meth:`_gap_segments` about it.  As read-only
        arrays: the part starts, the frame tags (``2 i + 1`` about maximizer
        ``i`` on its right, ``2 i`` on its left) and the rows ``(e, m, start,
        *coef)`` (``coef`` at ``e (tau - m) - start``); then ``terms[tag]``,
        the ``(k, 2 |c_k|)`` of the first row of each frame."""
        peaks = self.classify().maximizers
        mids = [0.5 * (a + b) for a, b in zip(peaks, peaks[1:])]
        starts = sorted({0.0, *(c for c in [*peaks, *mids, *self._seg[1:].tolist()] if c < 1.0)})
        gaps = [self._gap_segments(m, e) for m in peaks for e in (-1.0, 1.0)]
        tags, rows = [], []
        for a, b in zip(starts, starts[1:] + [1.0]):
            i = bisect.bisect_right(mids, a)
            e = 1.0 if a >= peaks[i] else -1.0
            tags.append(2 * i + (e > 0.0))
            seg, coef = gaps[tags[-1]]
            # the row of the gap that holds the part's middle holds all of it
            k = np.searchsorted(seg, e * (0.5 * (a + b) - peaks[i]), side="right") - 1
            rows.append((e, peaks[i], seg[k], *coef[k]))
        terms = tuple(tuple((k, 2.0 * abs(c)) for k, c in enumerate(coef[0].tolist()) if k and c)
                      for _, coef in gaps)
        partition = (np.array(starts), np.array(tags), np.array(rows))
        for arr in partition:
            arr.flags.writeable = False
        return (*partition, terms)

    def _gap(self, p):
        """``max Omega - Omega >= 0`` at the stream values ``p`` (scalar or
        array), from the row of the part of :attr:`_partition` that holds
        each, about its nearest maximizer, so free of cancellation beside it."""
        p = np.asarray(p, dtype=float)
        starts, _, rows, _ = self._partition
        row = rows[np.searchsorted(starts, p.ravel(), side="right") - 1]
        x = row[:, 0] * (p.ravel() - row[:, 1])
        return np.maximum(_horner_rows(row[:, 3:], x - row[:, 2]), 0.0).reshape(p.shape)

    @cached_property
    def _surface_gap(self) -> float:
        """The gap at the surface, ``tau = 1``, read once by :meth:`_gap`."""
        return float(self._gap(1.0))

    # -- public vectorized evaluators -----------------------------------------

    def _evaluate(self, coef, tau):
        arr = np.asarray(tau, dtype=float)
        bad = arr[(arr < -_DOMAIN_SLACK) | (arr > 1.0 + _DOMAIN_SLACK)]
        if bad.size:
            raise DomainError(f"vorticity argument {float(bad[0])!r} outside [0, 1]")
        out = _horner(self._seg, coef, np.clip(arr, 0.0, 1.0))
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
        """``max Omega``, the maximizers, the near-ties (within ``_TIE_MARGIN
        max(1, |max Omega|)``) and ``{candidate: k}``, ``k`` the multiplicity of
        omega's root there.  The candidates are the only points that can be
        maximizers: the ends, the segment starts and the real roots of each row."""
        starts = self._seg.tolist()
        roots = dict.fromkeys([0.0, *starts[1:], 1.0], 0)
        for a, b, row in zip(starts, starts[1:] + [1.0], self._w):
            for z, k in _clusters(np.trim_zeros(row, "b")):
                x = float(z.real)
                if abs(z.imag) < 1e-12 and -_ROOT_SNAP <= x <= b - a + _ROOT_SNAP:
                    x = a if x <= _ROOT_SNAP else b if x >= b - a - _ROOT_SNAP else a + x
                    roots[x] = max(roots.get(x, 0), k)
        cands = sorted(roots)
        vals = _horner(self._seg, self._W, cands).tolist()
        big = max(vals)
        tol = _TIE_MARGIN * max(1.0, abs(big))
        exact = tuple(c for c, v in zip(cands, vals) if v == big)
        near = tuple(c for c, v in zip(cands, vals) if 0.0 < big - v <= tol)
        return big, exact, near, roots

    # -- classification ---------------------------------------------------------

    def _condition_for(self, maxset: tuple) -> tuple:
        """The condition of the maximizer set ``maxset`` and the note that
        justifies it.  An endpoint omega within ``_TIE_MARGIN max(1, |max
        Omega|)`` of 0 is a rounded 0, and its peak degenerate (``poly 0.1
        0.2 -0.3`` has ``omega(1) = 2.8e-17``)."""
        tol = _TIE_MARGIN * max(1.0, abs(self._extrema[0]))
        w0, w1 = self.omega([0.0, 1.0]).tolist()
        ends = set(maxset)
        if ends == {0.0} and w0 < -tol:
            return "ii", ("maximum of Omega only at tau=0 with omega(0) < 0; "
                          "the margin vanishes linearly at the bottom")
        if ends == {1.0} and w1 > tol:
            return "iii", ("maximum of Omega only at tau=1 with omega(1) > 0; "
                           "the margin vanishes linearly at the surface")
        if ends == {0.0, 1.0} and w0 < -tol and w1 > tol:
            return "iii", ("maximum of Omega tied between tau=0 and tau=1 with "
                           "omega(0) < 0 and omega(1) > 0")
        interior = tuple(m for m in maxset if 0.0 < m < 1.0)
        reasons = [f"interior maximizer(s) {interior}"] if interior else []
        if 0.0 in ends and w0 >= -tol:
            reasons.append("maximum at tau=0 but omega(0) >= 0 to rounding")
        if 1.0 in ends and w1 <= tol:
            reasons.append("maximum at tau=1 but omega(1) <= 0 to rounding")
        return "i", "degenerate or interior maximum: " + "; ".join(reasons)

    @cached_property
    def _classification(self) -> FlowClassification:
        big, exact, near, _ = self._extrema
        cond, note = self._condition_for(exact)
        # a near-tie is only a problem when promoting it to a true
        # maximizer would change the verdict
        for g in near:
            if self._condition_for((*exact, g))[0] != cond:
                raise AmbiguousClassificationError(
                    f"Omega has a near-tie at tau={g!r} within relative margin "
                    f"{_TIE_MARGIN}; competing maximizers {exact + (g,)} give "
                    f"conflicting classifications")
        return FlowClassification(
            condition=cond,
            max_Omega=big,
            maximizers=exact,
            omega_at_0=self.omega(0.0),
            omega_at_1=self.omega(1.0),
            s0=sqrt(max(2.0 * big, 0.0)),
            d0_finite=cond != "i",
            note=note,
        )

    def classify(self) -> FlowClassification:
        """Classify the distribution into conditions "i", "ii" or "iii"."""
        return self._classification
