"""Verdicts comparing sampled surface profiles against stream depths.

The depth bounds attached to a Bernoulli head (conjugate depths, the
zero-margin depth) constrain every admissible water wave with that head.
This module turns those constraints into executable checks on a sampled
surface: each inequality becomes a verdict record carrying the compared
values, so a report can be audited rather than trusted.

Sampled data cannot decide exact-arithmetic inequalities, so strict
comparisons carry a relative margin of 1e-10 and a profile is called
stream-like when its total variation falls below 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from . import bernoulli
from .errors import ConfigError, DomainError
from .vorticity import VorticityDistribution

__all__ = ["VerdictRecord", "BoundsReport", "check_bounds"]

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

_STRICT_REL = 1e-10
_FLAT_REL = 1e-9


def _margin(lhs: float, rhs: float) -> float:
    return _STRICT_REL * max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class VerdictRecord:
    """One inequality verdict with the compared values attached.

    ``status`` is one of ``"holds"``, ``"violated"`` or
    ``"not-applicable"``; ``lhs``/``rhs`` are the binding comparison and
    ``margin`` the slack a strict inequality had to clear.
    """

    status: str
    lhs: Optional[float]
    rhs: Optional[float]
    margin: float
    note: str = ""

    def as_dict(self) -> dict:
        return {"status": self.status, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin}


def _strictly_above(lhs: float, rhs: float, note: str = "") -> VerdictRecord:
    m = _margin(lhs, rhs)
    status = HOLDS if lhs - rhs > m else VIOLATED
    return VerdictRecord(status=status, lhs=lhs, rhs=rhs, margin=m, note=note)


def _at_least(lhs: float, rhs: float, note: str = "") -> VerdictRecord:
    m = _margin(lhs, rhs)
    status = HOLDS if lhs - rhs > -m else VIOLATED
    return VerdictRecord(status=status, lhs=lhs, rhs=rhs, margin=m, note=note)


def _na(note: str) -> VerdictRecord:
    return VerdictRecord(status=NOT_APPLICABLE, lhs=None, rhs=None,
                         margin=0.0, note=note)


def _sandwich(eta_hat: float, eta_check: float, depth: float, name: str,
              suffix: str = "") -> VerdictRecord:
    """Verdict on ``eta_hat >= depth > eta_check``.

    A failing side is reported with its own values; when both hold, the
    crest side is reported unless the trough side is tighter by more than
    the verdict's margin, so that rounding never picks the side.
    """
    note = f"crest >= {name} and {name} > trough" + suffix
    crest = _at_least(eta_hat, depth, note)
    trough = _strictly_above(depth, eta_check, note)
    if crest.status == VIOLATED:
        return replace(crest, note=f"crest bound eta_hat >= {name} fails; " + note)
    if trough.status == VIOLATED:
        return replace(trough, note=f"trough bound {name} > eta_check fails; " + note)
    return trough if depth - eta_check < eta_hat - depth - crest.margin else crest


@dataclass(frozen=True)
class BoundsReport:
    """Every depth-bound verdict for one head and one sampled surface.

    ``eta_hat``/``eta_check`` are the sampled sup/inf; both are
    window-relative estimates when the samples cover less than a period.
    ``max_interior`` records whether the sampled maximum is attained away
    from the window ends (the strictness clause of the crest bound is
    informational only: attainment is not decidable from finite samples).
    """

    r: float
    condition: str
    eta_hat: float
    eta_check: float
    d_minus: Optional[float]
    d_plus: Optional[float]
    d_c: float
    d0: float
    r_c: float
    r0: Optional[float]
    stream_like: bool
    max_interior: bool
    assertion1: VerdictRecord
    assertion2: VerdictRecord
    nonexistence_iii: VerdictRecord
    prop3: VerdictRecord
    surrogates: Tuple[str, ...] = field(default=("positivity",))
    notes: Tuple[str, ...] = field(default=())

    def verdict_block(self) -> dict:
        """The four verdicts as one JSON-ready mapping."""
        return {
            "assertion1": self.assertion1.as_dict(),
            "assertion2": self.assertion2.as_dict(),
            "nonexistence_iii": self.nonexistence_iii.as_dict(),
            "prop3": self.prop3.as_dict(),
        }


def _checked_samples(eta) -> np.ndarray:
    arr = np.asarray(eta, dtype=float).ravel()
    if arr.size == 0:
        raise ConfigError("no surface samples given")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("surface samples contain non-finite values")
    if np.min(arr) <= 0.0:
        raise DomainError(
            f"surface samples must be positive; minimum is {float(np.min(arr))!r}")
    return arr


def check_bounds(dist: VorticityDistribution, r: float, eta) -> BoundsReport:
    """Evaluate every depth-bound verdict for head ``r`` and samples ``eta``.

    The two main assertions: (1) admissible waves need ``r > r_c`` and a
    surface strictly above the supercritical depth ``d_minus``; (2) a
    non-stream wave's crest reaches the subcritical depth ``d_plus`` while
    its trough stays strictly below.  Assertion (2) is skipped for
    stream-like samples (it addresses non-stream solutions) and outside
    its head window.  Under classification "iii" with ``r >= r0`` the
    admissible solutions are exactly the streams, so non-flat samples
    violate that clause by themselves.

    A head below the critical value is reported, not raised: that regime's
    content is precisely that no non-stream solution exists; a head that is
    not positive, or whose ``3 r`` overflows, is a :class:`DomainError`.
    """
    arr = _checked_samples(eta)
    if not 0.0 < 3.0 * r < math.inf:
        raise DomainError(f"head must be positive, and 3 r finite; got r={r!r}")
    analysis = bernoulli.analyze(dist)
    eta_hat = float(np.max(arr))
    eta_check = float(np.min(arr))
    variation, flat_tol = eta_hat - eta_check, _FLAT_REL * max(1.0, eta_hat)
    stream_like = variation < flat_tol
    hits = np.flatnonzero(arr == eta_hat)
    max_interior = bool(np.any((hits > 0) & (hits < arr.size - 1)))

    r_c, r0 = analysis.r_c, analysis.r0
    supercrit = _at_least(r, r_c).status == HOLDS
    d_plus = d_minus = None
    if supercrit:
        pair = bernoulli.conjugates(dist, r)
        d_plus, d_minus = pair.d_plus, pair.d_minus

    above_crit = _strictly_above(r, r_c)
    if above_crit.status == HOLDS and d_minus is not None:
        assertion1 = _strictly_above(
            eta_check, d_minus, note="min eta vs supercritical depth d_minus")
    else:
        assertion1 = VerdictRecord(
            status=VIOLATED, lhs=r, rhs=r_c, margin=above_crit.margin,
            note="head does not exceed the critical head r_c")

    in_window = (above_crit.status == HOLDS
                 and (r0 is None or _strictly_above(r0, r).status == HOLDS))
    if not in_window or d_plus is None:
        assertion2 = _na(f"requires r strictly between r_c={r_c!r} and "
                         f"r0={r0!r}")
    elif stream_like:
        assertion2 = _na("samples are stream-like; the assertion addresses "
                         "non-stream solutions")
    else:
        assertion2 = _sandwich(eta_hat, eta_check, d_plus, "d_plus")

    at_r0 = r0 is not None and _at_least(r, r0).status == HOLDS
    if analysis.condition == "iii" and at_r0:
        nonexistence = VerdictRecord(
            status=HOLDS if stream_like else VIOLATED,
            lhs=variation, rhs=flat_tol, margin=0.0,
            note="every admissible solution at this head is a stream; "
                 "non-flat samples are inconsistent with that clause")
    else:
        nonexistence = _na(f"requires classification \"iii\" and r >= r0; "
                           f"condition=\"{analysis.condition}\", r0={r0!r}")

    if analysis.condition != "ii":
        prop3 = _na(f"requires classification \"ii\"; this distribution is "
                    f"\"{analysis.condition}\"")
    elif r0 is None or _strictly_above(r, r0).status != HOLDS:
        prop3 = _na(f"requires r > r0; r={r!r}, r0={r0!r}")
    else:
        prop3 = _sandwich(eta_hat, eta_check, analysis.d0, "d0",
                          "; samples are stream-like" if stream_like else "")

    notes = ["eta_hat and eta_check are estimates over the sampled window"]
    if analysis.condition == "ii" and at_r0:
        notes.append("conjectured non-existence at this head; "
                     "reported informationally, not asserted")

    return BoundsReport(
        r=float(r),
        condition=analysis.condition,
        eta_hat=eta_hat,
        eta_check=eta_check,
        d_minus=d_minus,
        d_plus=d_plus,
        d_c=analysis.d_c,
        d0=analysis.d0,
        r_c=r_c,
        r0=r0,
        stream_like=stream_like,
        max_interior=max_interior,
        assertion1=assertion1,
        assertion2=assertion2,
        nonexistence_iii=nonexistence,
        prop3=prop3,
        notes=tuple(notes),
    )
