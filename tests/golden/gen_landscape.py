#!/usr/bin/env python3
"""Golden values of the head landscape from an independent 30-digit pipeline.

Run by hand from the root of a checkout (it takes a few minutes):

    python tests/golden/gen_landscape.py

and commit the ``tests/golden/landscape.json`` it writes; pytest only
reads that file (``tests/test_golden.py``).  The script shares no code with
the package: it parses the spec text itself, builds ``Omega`` in mpmath
from the spec's numbers (each rounded to a double first, as the package
reads them), and works at 40 digits.  Each value is written as a
25-digit string, with the method that made it.

For each distribution: the threshold slope ``s0 = sqrt(2 max Omega)``, the
critical slope ``s_c`` (the root of ``Phi(1; s) = 1``), ``r_c = R(s_c)``,
``d_c = d(s_c)``, and the zero-margin depth and head ``d0 = d(s0)`` and
``r0 = R(s0)`` (``inf`` and null under classification "i").  For each head
``r``: the conjugate slopes ``s+ < s_c < s-`` with ``R(s+-) = r``, their
depths, and ``s+ - s0``.  Here ``d(s) = int_0^1 q^(-1/2)``, ``Phi(1; s) = int_0^1 q^(-3/2)``
with ``q = sigma2 + 2 (max Omega - Omega)`` and ``sigma2 = s^2 - s0^2``,
and ``R(s) = (s^2 - 2 Omega(1) + 2 d(s)) / 3``.

Methods: for ``constant b`` the closed forms ``d = (s - sqrt(s^2 - 2 b))/b``
(``1/s`` at ``b = 0``) and, for ``s_c``, the root of
``1/sqrt(s^2 - 2b) = b + 1/s``; for every other spec, tanh-sinh quadrature
(``mpmath.quad``) on the pieces between the table nodes, the maximizers
of Omega, and cuts graded geometrically toward each maximizer down to
the width of the layer where ``sigma2`` and the gap are comparable.  Every
root is bracketed, in ``log(s - s0)`` below ``s_c`` and in ``s`` above it,
and solved by ``mpmath.findroot`` (Anderson-Bjoerk) to 35 digits.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
from mpmath import mp, mpf

mp.dps = 40
DIGITS = 25

# the six references of the benchmark and their two wave heads, and the two
# tables on which the subcritical conjugate lies below the guard band at the
# second head (ROADMAP item 1); the first head of each is one it can reach
CASES = {
    "constant 0": ("1.05", "1.1"),
    "constant 2": ("0.6032", "0.6065"),
    "constant -2": ("1.9365", "1.9399"),
    "poly -3 6": ("0.7326", "0.739"),
    "poly 0 0 3": ("0.6216", "0.6237"),
    "table 0:1 0.5:-1 1:2": ("0.8822", "0.8967"),
    "table 0.0:-2.208 0.238:0.852 0.774:1.967 0.781:-2.388 1.0:-2.914": ("1.3", "1.8"),
    "table 0.0:0.625 0.867:1.483 0.877:-2.532 0.878:-2.024 1.0:0.215": ("1.1", "1.6"),
}

QUAD = ("tanh-sinh quadrature at 40 digits, cut at the table nodes and the "
        "maximizers of Omega and graded toward each maximizer")
ROOT = "; root by mpmath.findroot (anderson) in a bracket"


def num(text: str):
    """A number of the spec, rounded to a double as the package reads it."""
    return mpf(float(text))


def shifted(coef, h):
    """Coefficients in ``y`` of the polynomial ``sum coef[k] x^k`` at ``x = h + y``."""
    out = [mpf(0)] * len(coef)
    for k, c in enumerate(coef):
        for j in range(k + 1):
            out[j] += c * mpmath.binomial(k, j) * h ** (k - j)
    return out


class Spec:
    """``Omega`` of one spec, piece by piece, its maximum and classification.

    Each piece is ``(t0, t1, origin, coef)``: on ``[t0, t1]``, ``Omega`` is
    the polynomial ``coef`` (ascending powers) in ``tau - origin``.
    """

    def __init__(self, text: str):
        kind, *args = text.split()
        if kind in ("constant", "poly"):
            c = [num(a) for a in args]
            self.pieces = [(mpf(0), mpf(1), mpf(0),
                            [mpf(0)] + [ck / (k + 1) for k, ck in enumerate(c)])]
            self.nodes = []
            zeros = []
            if len(c) > 1:
                zeros = [z.real for z in mpmath.polyroots(c[::-1], maxsteps=200,
                                                          extraprec=200)
                         if abs(z.imag) < mpf(10) ** -30 and 0 < z.real < 1]
        else:
            pts = [tuple(num(x) for x in a.split(":")) for a in args]
            self.nodes = [t for t, _ in pts[1:-1]]
            self.pieces, acc, zeros = [], mpf(0), []
            for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
                a = (v1 - v0) / (t1 - t0)
                self.pieces.append((t0, t1, t0, [acc, v0, a / 2]))
                acc += (v0 + v1) * (t1 - t0) / 2
                if v0 * v1 < 0:
                    zeros.append(t0 - v0 / a)
                if v0 == 0 or v1 == 0:
                    raise ValueError("a table node at omega = 0 is not handled")
        cands = [mpf(0), mpf(1)] + zeros
        big = max(self.Omega(c) for c in cands)
        self.big = big
        tie = mpf(10) ** -25 * max(1, abs(big))
        self.maxima = sorted({c for c in cands if self.Omega(c) >= big - tie})
        self.s0 = mpmath.sqrt(2 * big) if big > 0 else mpf(0)
        interior = [m for m in self.maxima if 0 < m < 1]
        w0, w1 = self.omega(mpf(0)), self.omega(mpf(1))
        if interior:
            cond = "i"
        elif self.maxima == [0]:
            cond = "ii" if w0 < 0 else "i"
        elif self.maxima == [1]:
            cond = "iii" if w1 > 0 else "i"
        else:
            cond = "iii" if (w0 < 0 and w1 > 0) else "i"
        self.condition = cond
        self.constant = num(args[0]) if kind == "constant" else None

    def piece(self, t):
        return next(p for p in self.pieces if p[0] <= t <= p[1])

    def Omega(self, t):
        t0, t1, origin, coef = self.piece(t)
        return mpmath.polyval(coef[::-1], t - origin)

    def omega(self, t):
        t0, t1, origin, coef = self.piece(t)
        return mpmath.polyval([k * c for k, c in enumerate(coef)][:0:-1], t - origin)

    def cuts(self, sigma2):
        """Points of ``[0, 1]`` where the integrand is not smooth or varies
        fastest: nodes, maximizers, and a geometric grading toward each
        maximizer down to below the layer width."""
        pts = {mpf(0), mpf(1), *self.nodes, *self.maxima}
        small = min(mpf(1), sigma2) if sigma2 > 0 else mpf(1)
        levels = int(mpmath.ceil(mpmath.log(1000 / small, 4))) + 1
        for m in self.maxima:
            for k in range(1, levels + 1):
                for x in (m - mpf(4) ** -k, m + mpf(4) ** -k):
                    if 0 < x < 1:
                        pts.add(x)
        return sorted(pts)

    def integral(self, delta, power):
        """``int_0^1 (sigma2 + 2 gap)^power`` at ``s = s0 + delta``.

        Each cut piece is integrated in the distance ``y`` from its anchor,
        the end that is a maximizer if one is (else its left end), with the
        gap expanded about the anchor, so that no digit of it is lost to
        cancellation near a maximizer; at a maximizer, in ``u = sqrt(y)``."""
        sigma2 = delta * (2 * self.s0 + delta)
        cuts, total = self.cuts(sigma2), mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            t0, t1, origin, coef = self.piece((a + b) / 2)
            c, e = (b, -1) if (b in self.maxima and a not in self.maxima) else (a, 1)
            q = shifted(coef, c - origin)
            base = 0 if c in self.maxima else self.big - q[0]
            g = [-qk * e ** k for k, qk in enumerate(q)][:0:-1] + [base]
            if c in self.maxima:  # y = u^2 takes the square root off the anchor
                total += mpmath.quad(lambda u: 2 * u * (
                    sigma2 + 2 * mpmath.polyval(g, u * u)) ** power,
                    [0, mpmath.sqrt(b - a)])
            else:
                total += mpmath.quad(
                    lambda y: (sigma2 + 2 * mpmath.polyval(g, y)) ** power, [0, b - a])
        return total

    # -- depth, tail weight and head at s = s0 + delta ----------------------

    def depth(self, delta):
        b = self.constant
        if b is not None:
            s = self.s0 + delta
            return 1 / s if b == 0 else (s - mpmath.sqrt(s * s - 2 * b)) / b
        return self.integral(delta, mpf(-0.5))

    def phi(self, delta):
        b = self.constant
        if b is not None:
            s = self.s0 + delta
            if b == 0:
                return 1 / s ** 3
            # int_0^1 (s^2 - 2 b t)^(-3/2) dt
            return (1 / mpmath.sqrt(s * s - 2 * b) - 1 / s) / b
        return self.integral(delta, mpf(-1.5))

    def head(self, delta):
        s = self.s0 + delta
        return (s * s - 2 * self.Omega(1) + 2 * self.depth(delta)) / 3

    @property
    def method(self):
        return "closed form" if self.constant is not None else QUAD


def solve(f, a, b):
    """The root of ``f`` between ``a`` and ``b``, where it changes sign."""
    return mpmath.findroot(f, (a, b), solver="anderson", tol=mpf(10) ** -34, verify=False,
                           maxsteps=200)


def critical(sp: Spec):
    """``s_c - s0``, from ``Phi(1; s) = 1`` in ``y = log(s - s0)``."""
    if sp.constant == 0:
        return mpf(1)
    top = max(1, sp.s0)
    lo = mpmath.log(top) - 5
    while sp.phi(mpmath.exp(lo)) < 1:
        lo -= 5
    y = solve(lambda y: sp.phi(mpmath.exp(y)) - 1, lo, mpmath.log(top))
    return mpmath.exp(y)


def conjugate(sp: Spec, r, delta_c, sub: bool):
    """``s - s0`` of the subcritical (``sub``) or supercritical root of ``R = r``."""
    if sub:
        lo = mpmath.log(delta_c) - 5
        while sp.head(mpmath.exp(lo)) < r:
            lo -= 5
            if lo < -200:
                raise ValueError("no subcritical root")
        return mpmath.exp(solve(lambda y: sp.head(mpmath.exp(y)) - r, lo,
                                mpmath.log(delta_c)))
    hi = 2 * delta_c + 1
    while sp.head(hi) < r:
        hi *= 2
    return solve(lambda d: sp.head(d) - r, delta_c, hi)


def text(x) -> str:
    return mpmath.nstr(x, DIGITS, min_fixed=-mpmath.inf, max_fixed=mpmath.inf) \
        if mpmath.isfinite(x) else "inf"


def landscape(spec: str, heads) -> dict:
    sp = Spec(spec)
    method = sp.method
    dc = critical(sp)
    s_c = sp.s0 + dc
    d_c = sp.depth(dc)
    crit = "closed form, s_c = 1" if sp.constant == 0 else method + ROOT
    out = {
        "condition": sp.condition,
        "s0": {"value": text(sp.s0), "method": "sqrt(2 max Omega), Omega in closed form"},
        "s_c": {"value": text(s_c), "method": crit},
        "r_c": {"value": text(sp.head(dc)), "method": crit},
        "d_c": {"value": text(d_c), "method": crit},
    }
    if sp.constant is not None:
        # the closed forms against the quadrature this script uses elsewhere
        q = Spec(spec)
        q.constant = None
        for name, a, b in (("d", sp.depth(dc), q.depth(dc)), ("Phi", sp.phi(dc), q.phi(dc))):
            print(f"  {spec}: {name}(s_c) closed form - quadrature = {mpmath.nstr(a - b, 3)}")
    if sp.condition == "i":
        out["d0"] = {"value": "inf", "method": "classification i"}
        out["r0"] = {"value": None, "method": "classification i"}
    else:
        out["d0"] = {"value": text(sp.depth(mpf(0))), "method": method}
        out["r0"] = {"value": text(sp.head(mpf(0))), "method": method}
    out["heads"] = []
    for h in heads:
        r = num(h)
        plus = conjugate(sp, r, dc, True)
        minus = conjugate(sp, r, dc, False)
        out["heads"].append({
            "r": h,
            "s_plus": {"value": text(sp.s0 + plus), "method": method + ROOT},
            "d_plus": {"value": text(sp.depth(plus)), "method": method + ROOT},
            "s_minus": {"value": text(sp.s0 + minus), "method": method + ROOT},
            "d_minus": {"value": text(sp.depth(minus)), "method": method + ROOT},
            "s_plus - s0": text(plus),
        })
    return out


def main() -> None:
    out = {"digits": DIGITS, "working_dps": mp.dps, "mpmath": mpmath.__version__,
           "landscapes": {}}
    for spec, heads in CASES.items():
        out["landscapes"][spec] = landscape(spec, heads)
        print(spec, "done", flush=True)
    path = Path(__file__).with_name("landscape.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print("wrote", path)


if __name__ == "__main__":
    main()
