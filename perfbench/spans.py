"""Spans around the package's public calls, and work counters at scipy.

A span brackets one public call that the benchmark makes into a
``vorwaves`` module.  Spans are kept in memory (name, start, end, parent,
op id) and summarised when the run ends.

The counters are read by wrapping four scipy entry points:
``scipy.integrate.quad``, ``scipy.integrate.solve_ivp``,
``scipy.optimize.brentq`` and ``scipy.optimize.minimize_scalar``.
``vorwaves.numerics`` (and the two modules that call ``solve_ivp``
directly) look these names up on the scipy modules at call time, so the
wrappers see every call.  Each count is charged to the innermost span
open at the time; work outside any span is not counted.  The counts
depend only on the inputs, so they repeat exactly from run to run.
"""

from __future__ import annotations

import time
from collections import Counter

import scipy.integrate
import scipy.optimize

# counter keys, all charged to the innermost open span
COUNTERS = (
    "quad_calls",     # scipy.integrate.quad calls
    "quad_evals",     # integrand evaluations inside quad
    "ode_calls",      # scipy.integrate.solve_ivp calls
    "ode_steps",      # accepted solver steps
    "ode_rhs_evals",  # right-hand-side evaluations (solver's nfev)
    "root_calls",     # scipy.optimize.brentq calls
    "root_evals",     # function evaluations inside brentq
    "min_calls",      # scipy.optimize.minimize_scalar calls
    "min_evals",      # function evaluations inside minimize_scalar
)

# calls whose first argument is a distribution the lru caches key on
REUSE_TRACKED = ("bernoulli.analyze", "bernoulli.conjugates")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = Counter()


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and scipy-boundary counts for one process."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None  # id of the op that new spans belong to
        self._saved = None
        self._dists: set = set()
        self.reuse_calls = 0  # REUSE_TRACKED calls
        self.reuse_seen = 0   # ... on a distribution seen before in the process

    def call(self, name, fn, *args, **kwargs):
        if name in REUSE_TRACKED:
            self.reuse_calls += 1
            self.reuse_seen += args[0] in self._dists
            self._dists.add(args[0])
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _charge(self, key, n=1):
        if self._stack:
            self._stack[-1].counts[key] += n

    def install(self) -> "Tracer":
        """Replace the four scipy entry points with counting wrappers."""
        quad = scipy.integrate.quad
        solve_ivp = scipy.integrate.solve_ivp
        brentq = scipy.optimize.brentq
        minimize_scalar = scipy.optimize.minimize_scalar
        self._saved = (quad, solve_ivp, brentq, minimize_scalar)
        charge = self._charge

        def counted(fn, key):
            def f(*a):
                charge(key)
                return fn(*a)
            return f

        def quad_w(func, *args, **kwargs):
            charge("quad_calls")
            return quad(counted(func, "quad_evals"), *args, **kwargs)

        def solve_ivp_w(fun, *args, **kwargs):
            sol = solve_ivp(fun, *args, **kwargs)
            charge("ode_calls")
            charge("ode_steps", max(len(sol.t) - 1, 0))
            charge("ode_rhs_evals", int(sol.nfev))
            return sol

        def brentq_w(f, *args, **kwargs):
            charge("root_calls")
            return brentq(counted(f, "root_evals"), *args, **kwargs)

        def minimize_scalar_w(fun, *args, **kwargs):
            charge("min_calls")
            return minimize_scalar(counted(fun, "min_evals"), *args, **kwargs)

        scipy.integrate.quad = quad_w
        scipy.integrate.solve_ivp = solve_ivp_w
        scipy.optimize.brentq = brentq_w
        scipy.optimize.minimize_scalar = minimize_scalar_w
        return self

    def uninstall(self) -> None:
        if self._saved is not None:
            (scipy.integrate.quad, scipy.integrate.solve_ivp,
             scipy.optimize.brentq, scipy.optimize.minimize_scalar) = self._saved
            self._saved = None

    def layers(self) -> dict:
        """Per span name: call count, total and self seconds, counters."""
        child_time = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[id(sp.parent)] = (child_time.get(id(sp.parent), 0.0)
                                             + sp.end - sp.start)
        out: dict = {}
        for sp in self.spans:
            rec = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "counts": Counter()})
            dur = sp.end - sp.start
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time.get(id(sp), 0.0)
            rec["counts"].update(sp.counts)
        return out

    def dump_spans(self) -> list:
        """Every span as a plain record, parents given by index."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [{"name": sp.name, "op": sp.op, "start": sp.start, "end": sp.end,
                 "parent": None if sp.parent is None else index[id(sp.parent)],
                 "counts": dict(sp.counts)}
                for sp in self.spans]


def merge_layers(into: dict, other: dict) -> dict:
    """Add the per-name records of ``other`` (e.g. from a child) to ``into``."""
    for name, rec in other.items():
        dst = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "counts": Counter()})
        dst["calls"] += rec["calls"]
        dst["total_s"] += rec["total_s"]
        dst["self_s"] += rec["self_s"]
        dst["counts"].update(rec["counts"])
    return into
