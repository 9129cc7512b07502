"""One op per workload: the program calls, then the checks on their results.

``run_*`` makes only program calls, each through ``tracer.call`` so that a
traced run puts a span around it; the caller times ``run_*`` alone.
``check_*`` runs afterwards, untimed and outside every span, and returns
the names of the checks that failed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time

import numpy as np

import gen
import oracles
from vorwaves import bernoulli, bounds, dispersion, hodograph, linearwave, stream
from vorwaves.errors import (
    AmbiguousClassificationError,
    DomainError,
    ResonanceError,
)
from vorwaves.vorticity import VorticityDistribution

# tolerances of the checks, relative unless noted
CLOSED_FORM = 1e-10   # closed forms against the package (tau0 matched to 1e-12)
TWO_PATHS = 1e-9      # one quantity computed by two quadrature paths
PHI_GL = 1e-8         # |Phi(1; s_c) - 1| by the fixed Gauss rule (criterion 3)
# W'(0) against u'(0)/d + u'(d) w'(d), scaled by max(1, |W'(0)|); the
# tolerance criterion 6 of the acceptance tests states for W'(0)
SUPERPOSITION = 1e-6
CLI_MATCH = 1e-12     # report headline numbers against library values
HEAD_GAP = 1e-8       # wheeler head mismatch, scaled by max(1, r)


def outcome_of_exception(exc: BaseException) -> str:
    if isinstance(exc, ResonanceError):
        return "resonant"
    if isinstance(exc, (DomainError, AmbiguousClassificationError)):
        return "refused"
    return "error"


def head_at(an, fraction: float) -> float:
    """Head at ``fraction`` of the way from ``r_c`` to ``r0``; without a
    finite ``r0`` (classification "i"), ``r_c (1 + fraction)``."""
    if an.r0 is not None:
        return an.r_c + fraction * (an.r0 - an.r_c)
    return an.r_c * (1.0 + fraction)


def admissible(disp) -> bool:
    return disp.tau0 is not None and disp.assumption_I and disp.assumption_II


def dispersion_outcome(disp) -> str:
    if disp.tau0 is None:
        return "no-root"
    return "root" if admissible(disp) else "resonant"


def rejected_poles(disp) -> int:
    return sum(1 for n in disp.notes if n.startswith("rejected sign change"))


# -- wave -------------------------------------------------------------------


def run_wave(tr, inp: gen.WaveInput) -> dict:
    """parse -> analyze -> conjugates -> solve_stream(s_plus) -> find_tau0,
    then, for an admissible tau0, build_wave -> check_Wprime0 ->
    to_strip(wave) -> check_bounds, as the wave and check-bounds
    commands run them."""
    res: dict = {}
    dist = tr.call("vorticity.parse", VorticityDistribution.parse, inp.spec)
    tr.call("vorticity.classify", dist.classify)
    an = res["analysis"] = tr.call("bernoulli.analyze", bernoulli.analyze, dist)
    r = res["r"] = head_at(an, inp.fraction)
    pair = res["pair"] = tr.call("bernoulli.conjugates", bernoulli.conjugates, dist, r)
    if pair.s_plus is None:
        return res
    st = res["stream"] = tr.call("stream.solve_stream", stream.solve_stream,
                                 dist, pair.s_plus)
    disp = res["disp"] = tr.call("dispersion.find_tau0", dispersion.find_tau0, st)
    if not admissible(disp):
        return res
    t = res["t"] = 0.01 * st.d
    wf = res["wave"] = tr.call("linearwave.build_wave", linearwave.build_wave,
                               st, disp, t)
    res["wprime0"] = tr.call("linearwave.check_Wprime0", linearwave.check_Wprime0,
                             st, disp.tau0)
    res["strip"] = tr.call("hodograph.to_strip", hodograph.to_strip, wf)
    res["bounds"] = tr.call("bounds.check_bounds", bounds.check_bounds,
                            dist, r, wf.eta)
    return res


def wave_outcome(res: dict) -> str:
    return dispersion_outcome(res["disp"]) if "disp" in res else "error"


def _check_landscape_core(spec: str, an, pair, r: float, fails: list) -> None:
    """Checks shared by wave and landscape: regime, ordering, closed forms."""
    if pair.regime != "subcritical-pair" or pair.s_plus is None:
        fails.append(f"regime {pair.regime} below r0")
        return
    if not pair.s_plus < an.s_c < pair.s_minus:
        fails.append("slope ordering s_plus < s_c < s_minus")
    if not pair.d_minus < an.d_c < pair.d_plus:
        fails.append("depth ordering d_minus < d_c < d_plus")
    b = oracles.constant_value(spec)
    if b is None:
        return
    for name, s, d in (("d_plus", pair.s_plus, pair.d_plus),
                       ("d_minus", pair.s_minus, pair.d_minus)):
        if not oracles.rel_close(d, oracles.constant_depth(b, s), CLOSED_FORM):
            fails.append(f"{name} against the constant-vorticity depth")
    if b == 0.0:
        if not (abs(an.s_c - 1.0) < CLOSED_FORM and abs(an.r_c - 1.0) < CLOSED_FORM):
            fails.append("omega = 0: s_c = r_c = 1")
    elif not oracles.rel_close(an.d0, oracles.constant_depth(b, an.s0), CLOSED_FORM):
        fails.append("d0 against the constant-vorticity depth")


def _check_phi(spec: str, an, fails: list) -> None:
    if abs(oracles.phi_surface(spec, an.s_c) - 1.0) >= PHI_GL:
        fails.append("Phi(1; s_c) = 1 by 400-point Gauss-Legendre")


def check_wave(inp: gen.WaveInput, res: dict) -> list:
    fails: list = []
    an, pair, r = res["analysis"], res["pair"], res["r"]
    _check_phi(inp.spec, an, fails)
    _check_landscape_core(inp.spec, an, pair, r, fails)
    if "stream" not in res:
        return fails
    st, disp = res["stream"], res["disp"]
    if not oracles.rel_close(st.d, pair.d_plus, TWO_PATHS):
        fails.append("stream depth against conjugate depth d_plus")
    if not oracles.rel_close(st.r, r, TWO_PATHS):
        fails.append("stream head against r")
    b = oracles.constant_value(inp.spec)
    if b is not None:
        want = oracles.constant_tau0(b, st.s)
        if (want is None) != (disp.tau0 is None) or (
                want is not None and not oracles.rel_close(disp.tau0, want, CLOSED_FORM)):
            fails.append(f"tau0 {disp.tau0!r} against the closed-form root {want!r}")
    if "wave" not in res:
        return fails
    wf, chk, rep, t = res["wave"], res["wprime0"], res["bounds"], res["t"]
    if not (oracles.rel_close(float(np.max(wf.eta)), st.d + t, 1e-12)
            and oracles.rel_close(float(np.min(wf.eta)), st.d - t, 1e-12)):
        fails.append("crest and trough equal d +- t")
    if not (np.all(wf.psi[0] == 0.0) and np.all(wf.psi[-1] == 1.0)):
        fails.append("psi rows: bottom 0, surface 1")
    if not chk.superposition_discrepancy <= SUPERPOSITION * max(1.0, abs(chk.derivative_bottom)):
        fails.append(f"W'(0) superposition certificate misses by "
                     f"{chk.superposition_discrepancy:.3g}")
    if not (oracles.rel_close(rep.d_plus, pair.d_plus, 1e-12)
            and oracles.rel_close(rep.d_minus, pair.d_minus, 1e-12)):
        fails.append("check_bounds conjugate depths against conjugates")
    return fails


# -- landscape --------------------------------------------------------------


def run_landscape(tr, inp: gen.LandscapeInput) -> dict:
    """analyze, then per head: conjugates -> solve_stream at s_plus and
    s_minus -> check_bounds on a cosine surface about d_plus ->
    to_strip(stream at s_minus) -> wheeler_identity against s_plus."""
    dist = tr.call("vorticity.parse", VorticityDistribution.parse, inp.spec)
    tr.call("vorticity.classify", dist.classify)
    an = tr.call("bernoulli.analyze", bernoulli.analyze, dist)
    heads = []
    for f, amp in zip(inp.fractions, inp.amplitudes):
        h: dict = {"r": head_at(an, f)}
        heads.append(h)
        pair = h["pair"] = tr.call("bernoulli.conjugates", bernoulli.conjugates,
                                   dist, h["r"])
        if pair.s_plus is None:
            break
        sp = h["plus"] = tr.call("stream.solve_stream", stream.solve_stream,
                                 dist, pair.s_plus)
        sm = h["minus"] = tr.call("stream.solve_stream", stream.solve_stream,
                                  dist, pair.s_minus)
        h["a"] = amp * (pair.d_plus - pair.d_minus)
        eta = gen.cosine_surface(pair.d_plus, h["a"])
        h["bounds"] = tr.call("bounds.check_bounds", bounds.check_bounds,
                              dist, h["r"], eta)
        hf = tr.call("hodograph.to_strip", hodograph.to_strip, sm)
        h["wheeler"] = tr.call("hodograph.wheeler_identity",
                               hodograph.wheeler_identity, hf, sp.s, None, dist)
    return {"analysis": an, "heads": heads}


def check_landscape(inp: gen.LandscapeInput, res: dict) -> list:
    fails: list = []
    an = res["analysis"]
    _check_phi(inp.spec, an, fails)
    for k, h in enumerate(res["heads"]):
        sub: list = []
        pair, r = h["pair"], h["r"]
        _check_landscape_core(inp.spec, an, pair, r, sub)
        if "plus" in h:
            for name, st, d in (("plus", h["plus"], pair.d_plus),
                                ("minus", h["minus"], pair.d_minus)):
                if not oracles.rel_close(st.d, d, TWO_PATHS):
                    sub.append(f"stream depth at s_{name} against the conjugate depth")
                if not oracles.rel_close(st.r, r, TWO_PATHS):
                    sub.append(f"stream head at s_{name} against r")
            rep = h["bounds"]
            # the surface swings by a < d_plus - d_minus about d_plus, so
            # both main assertions must hold
            if rep.assertion1.status != "holds":
                sub.append(f"assertion1 {rep.assertion1.status} on a surface above d_minus")
            if rep.assertion2.status != "holds":
                sub.append(f"assertion2 {rep.assertion2.status} on a surface about d_plus")
            if not h["wheeler"].head_gap <= HEAD_GAP * max(1.0, abs(r)):
                sub.append("wheeler head gap between conjugate streams")
        fails.extend(f"head {k}: {m}" for m in sub)
    return fails


def landscape_outcome(res: dict) -> str:
    return "done"  # no dispersion scan in a landscape op


# -- cli --------------------------------------------------------------------

ENTRY = "import sys; from vorwaves.cli import main; sys.exit(main())"


def write_run_file(path: str, inp: gen.CliInput) -> None:
    lines = ["[run]", f"command = {inp.command}", ""]
    if inp.spec is not None:
        lines += ["[vorticity]", f"spec = {inp.spec}", ""]
    lines += ["[parameters]"] + [f"{k} = {v}" for k, v in inp.params]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_cli(inp: gen.CliInput, workdir: str, env: dict, child_prefix: list) -> dict:
    """Run one subcommand in a fresh interpreter; the caller times this."""
    os.makedirs(workdir, exist_ok=True)
    config = os.path.join(workdir, "run.ini")
    out = os.path.join(workdir, "out")
    write_run_file(config, inp)
    started = time.perf_counter()
    proc = subprocess.run(child_prefix + [inp.command, "--config", config, "--out", out],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    wall = time.perf_counter() - started
    res = {"returncode": proc.returncode, "stderr": proc.stderr[-500:], "wall": wall,
           "out": out}
    if proc.returncode == 0:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            res["report"] = json.load(fh)
    return res


_EXPECTED_FILES = {"stream": ["profile.csv"], "wave": ["field.csv", "surface.csv"],
                   "check-bounds": ["surface.csv"], "wheeler": ["residuals.csv"]}


class CliReference:
    """Library values for the same inputs, memoised per distribution and head."""

    def __init__(self):
        self._memo: dict = {}

    def _get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def _dist(self, spec):
        return self._get(("dist", spec), lambda: VorticityDistribution.parse(spec))

    def _sub(self, spec, r):
        def make():
            dist = self._dist(spec)
            pair = bernoulli.conjugates(dist, r)
            st = stream.solve_stream(dist, pair.s_plus)
            return st, dispersion.find_tau0(st)
        return self._get(("sub", spec, r), make)

    def _wave(self, spec, r, t):
        def make():
            st, disp = self._sub(spec, r)
            return linearwave.build_wave(st, disp, t)
        return self._get(("wave", spec, r, t), make)

    def values(self, inp: gen.CliInput) -> dict:
        p = {k: float(v) if k not in ("quantity", "direction") else v
             for k, v in inp.params}
        cmd = inp.command
        if cmd == "scale":
            # independent of the package: (Q^2/g)^(1/3), (Q g)^(1/3), Q
            Q, g = p["Q"], p["g"]
            factor = {"length": (Q * Q / g) ** (1.0 / 3.0),
                      "velocity": (Q * g) ** (1.0 / 3.0), "value": Q}[p["quantity"]]
            out = p["value"] * factor if p["direction"] == "to-dimensional" \
                else p["value"] / factor
            return {"output": out}
        dist = self._dist(inp.spec)
        if cmd == "analyze":
            an = self._get(("an", inp.spec), lambda: bernoulli.analyze(dist))
            return {k: getattr(an, k) for k in ("s0", "s_c", "r_c", "d_c", "d0", "r0")}
        if cmd == "stream":
            st = stream.solve_stream(dist, p["s"])
            return {"d": st.d, "r": st.r, "u_prime_d": st.u_prime_d}
        if cmd == "conjugates":
            pair = bernoulli.conjugates(dist, p["r"])
            return {k: getattr(pair, k) for k in ("s_plus", "d_plus", "s_minus", "d_minus")}
        if cmd == "dispersion":
            st, disp = self._sub(inp.spec, p["r"])
            return {"tau0": disp.tau0, "d": st.d, "assumption_II": disp.assumption_II}
        if cmd == "wave":
            st, disp = self._sub(inp.spec, p["r"])
            wf = self._wave(inp.spec, p["r"], p["t"])
            return {"tau0": wf.tau0, "depth": st.d, "crest": float(np.max(wf.eta)),
                    "trough": float(np.min(wf.eta)), "wavelength": wf.wavelength}
        if cmd == "check-bounds":
            wf = self._wave(inp.spec, p["r"], p["t"])
            rep = bounds.check_bounds(dist, p["r"], wf.eta)
            vals = {k: getattr(rep, k) for k in ("d_minus", "d_plus", "eta_hat", "eta_check")}
            vals.update({f"verdicts.{k}.status": v["status"]
                         for k, v in rep.verdict_block().items()})
            return vals
        if cmd == "wheeler":
            pair = bernoulli.conjugates(dist, p["r"])
            hf = hodograph.to_strip(stream.solve_stream(dist, pair.s_minus))
            rep = hodograph.wheeler_identity(hf, pair.s_plus, None, dist)
            return {"lhs": rep.lhs, "rhs": rep.rhs, "s": rep.s}
        raise ValueError(f"unknown command {cmd!r}")


def _same(reported, expected) -> bool:
    if isinstance(expected, float) and math.isinf(expected):
        return reported == ("inf" if expected > 0 else "-inf")
    if isinstance(expected, float) and isinstance(reported, (int, float)):
        return abs(reported - expected) <= CLI_MATCH * max(abs(expected), abs(reported)) \
            or reported == expected
    return reported == expected


def check_cli(inp: gen.CliInput, res: dict, ref: CliReference) -> list:
    if res["returncode"] != 0:
        return [f"exit code {res['returncode']}: {res['stderr'].strip()[-200:]}"]
    report = res["report"]
    fails = []
    results = report["results"]
    for key, want in ref.values(inp).items():
        got = results
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if not _same(got, want):
            fails.append(f"report {key} = {got!r}, library gives {want!r}")
    for name in _EXPECTED_FILES.get(inp.command, []):
        if name not in report["files"] or not os.path.isfile(os.path.join(res["out"], name)):
            fails.append(f"missing {name}")
    return fails
