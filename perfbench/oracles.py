"""Closed forms and fixed rules that check the package from outside.

Nothing here calls the package or scipy: the distribution is read from
its spec text, integrals use a fixed Gauss-Legendre rule and roots are
found by plain bisection, so the work counters never see the checks.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)


def parse_spec(spec: str):
    """``(kind, numbers)``; table numbers are ``(tau, value)`` pairs."""
    kind, *args = spec.split()
    if kind == "table":
        return kind, [tuple(float(x) for x in a.split(":")) for a in args]
    return kind, [float(a) for a in args]


def _Omega(kind, nums, tau: np.ndarray) -> np.ndarray:
    """Antiderivative of omega with Omega(0) = 0."""
    if kind != "table":
        return sum(c * tau ** (k + 1) / (k + 1) for k, c in enumerate(nums))
    out = np.zeros_like(tau)
    for (t0, v0), (t1, v1) in zip(nums, nums[1:]):
        x = np.clip(tau, t0, t1) - t0
        out += v0 * x + 0.5 * (v1 - v0) / (t1 - t0) * x * x
    return out


def _breaks(kind, nums) -> list:
    """Points where the Phi integrand is not smooth or may peak: table
    nodes and the interior zeros of omega (the critical points of Omega)."""
    pts = {0.0, 1.0}
    if kind == "table":
        pts.update(t for t, _ in nums)
        for (t0, v0), (t1, v1) in zip(nums, nums[1:]):
            if v0 * v1 < 0.0:
                pts.add(t0 - v0 * (t1 - t0) / (v1 - v0))
    elif len(nums) > 1:
        for z in np.roots(nums[::-1]):
            if abs(z.imag) < 1e-12 and 0.0 < z.real < 1.0:
                pts.add(float(z.real))
    return sorted(pts)


def phi_surface(spec: str, s: float) -> float:
    """``Phi(1; s) = int_0^1 (s^2 - 2 Omega)^(-3/2)`` by 400-point
    Gauss-Legendre on each piece between the break points."""
    kind, nums = parse_spec(spec)
    total = 0.0
    pts = _breaks(kind, nums)
    for a, b in zip(pts, pts[1:]):
        tau = a + 0.5 * (b - a) * (_GL_X + 1.0)
        total += 0.5 * (b - a) * float(
            np.sum(_GL_W * (s * s - 2.0 * _Omega(kind, nums, tau)) ** -1.5))
    return total


def constant_value(spec: str):
    """``b`` for ``constant b``, else None."""
    kind, nums = parse_spec(spec)
    return nums[0] if kind == "constant" else None


def _surface_slope(b: float, s: float) -> float:
    """``u'(d) = sqrt(s^2 - 2b)``; for ``b > 0`` as a difference of squares,
    so it is exactly 0 at the threshold ``s = sqrt(2b)``."""
    if b > 0.0:
        root = math.sqrt(2.0 * b)
        return math.sqrt(max((s - root) * (s + root), 0.0))
    return math.sqrt(s * s - 2.0 * b)


def constant_depth(b: float, s: float) -> float:
    """Depth of the constant-vorticity stream: ``(s - sqrt(s^2 - 2b)) / b``,
    written without cancellation, so ``b = 0`` gives ``1/s``."""
    return 2.0 / (s + _surface_slope(b, s))


def constant_tau0(b: float, s: float, tau_max: float = 50.0):
    """Least root on ``(0, tau_max]`` of the constant-vorticity dispersion
    function ``u'(d) tau coth(tau d) - 1/u'(d) + b``, or None.

    The function increases with ``tau``, so a root exists exactly when it
    is negative near 0 and positive at ``tau_max``.
    """
    upd = _surface_slope(b, s)
    d = constant_depth(b, s)

    def sig(tau):
        return upd * tau / math.tanh(tau * d) - 1.0 / upd + b

    lo, hi = 1e-6, tau_max
    if not (sig(lo) < 0.0 < sig(hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sig(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * hi:
            break
    return 0.5 * (lo + hi)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
