"""Command-line front end: one run file in, JSON report and CSVs out.

Every subcommand reads the same flat config format
(:mod:`vorwaves.config`), runs the matching module, and writes
``report.json`` in the output directory; the data-heavy commands add
plain CSV files (``profile.csv``, ``surface.csv``, ``field.csv``,
``residuals.csv``) so plotting stays external.  Reports are
deterministic: the same config and version produce byte-identical JSON
apart from the ``timing_seconds`` field.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import math
import os
import sys
import time
import warnings

import click

from . import __version__
from .config import RunConfig
from .errors import ConfigError, DomainError, NoStreamError, VorwavesError

__all__ = ["main", "scale_to_nondimensional"]


class _Deferred:
    """A library module, imported when a command first reads one of its
    names: start-up, ``--help`` and a refused run file load no numpy, and
    each command loads only the modules it calls.  The modules stay names of
    this module, which a caller may swap (``perfbench/cli_child.py`` puts
    each in a span)."""

    def __init__(self, name: str):
        self.__name__ = f"{__package__}.{name}"

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self.__name__), attr)


bernoulli, bounds, dispersion, hodograph, linearwave, stream = (
    _Deferred(name) for name in
    ("bernoulli", "bounds", "dispersion", "hodograph", "linearwave", "stream"))

_LENGTH_EXP = 1.0 / 3.0


def scale_to_nondimensional(Q: float, g: float, quantity: str, value: float,
                            inverse: bool = False):
    """Convert between dimensional and scaled units.

    Lengths are divided by ``(Q^2 / g)^(1/3)``, velocities by
    ``(Q g)^(1/3)`` and flux-type values (stream function, flow rate) by
    ``Q``; ``inverse=True`` multiplies instead, mapping scaled numbers
    back to dimensional ones.
    """
    if not (0.0 < Q < math.inf and 0.0 < g < math.inf and math.isfinite(value)):
        raise DomainError(f"scales need finite Q > 0 and g > 0 and a finite value, "
                          f"got Q={Q!r}, g={g!r}, value={value!r}")
    if quantity == "length":
        factor = (Q * Q / g) ** _LENGTH_EXP
    elif quantity == "velocity":
        factor = (Q * g) ** _LENGTH_EXP
    elif quantity == "value":
        factor = Q
    else:
        raise ConfigError(
            f"unknown quantity {quantity!r}; expected length, velocity or "
            f"value")
    return value * factor if inverse else value / factor


# -- report plumbing -------------------------------------------------------


def _jsonify(obj):
    """Reduce nested dicts, lists and floats (``np.float64`` among them) to
    plain JSON values; inf and nan to strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        x = float(obj)
        return x if math.isfinite(x) else str(x)  # "inf", "-inf" or "nan"
    return obj


def _write_csv(out: str, name: str, header, *columns) -> str:
    """Write the float arrays ``columns`` side by side under ``header``: the
    bytes ``csv.writer`` writes for each value's ``repr``, the rows in one call."""
    rows = zip(*(column.tolist() for column in columns))
    with open(os.path.join(out, name), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows))
    return name


def _surface_from_csv(path: str):
    """Surface samples from a CSV, as an array: last column, header row optional."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read surface file {path!r}: {exc}") from exc
    values = []
    for row in rows:
        if not row:
            continue
        try:
            values.append(float(row[-1]))
        except ValueError:
            if values:
                raise ConfigError(
                    f"non-numeric row {row!r} in surface file {path!r}")
            # header row
    if not values:
        raise ConfigError(f"no surface samples in {path!r}")
    import numpy as np
    return np.asarray(values)


def _execute(name: str, config_path: str, out_dir, worker) -> None:
    started = time.perf_counter()
    try:
        cfg = RunConfig.load(config_path, command=name)
        out = out_dir or cfg.out_dir or "."
        os.makedirs(out, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, files = worker(cfg, out)
        report = {
            "toolkit": {"name": "vorwaves", "version": __version__},
            "command": name,
            "config": cfg.echo(),
            "results": _jsonify(results),
            "warnings": list(dict.fromkeys(str(w.message) for w in caught)),
            "files": sorted(files),
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
        path = os.path.join(out, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        click.echo(f"report written to {path}")
    except VorwavesError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2 if isinstance(exc, ConfigError) else 3)


# -- shared pieces ----------------------------------------------------------


def _conjugate_pair(cfg: RunConfig, dist, instead: str) -> bernoulli.ConjugatePair:
    """The conjugate pair at the head ``r``, which must have both branches;
    ``instead`` names what a run file may give in place of ``r``."""
    r = cfg.get("r")
    if r is None:
        raise ConfigError(f"missing required parameter: give 'r' or {instead}")
    pair = bernoulli.conjugates(dist, r)
    if pair.s_plus is None:
        raise NoStreamError(
            f"no subcritical stream at r={r!r} (regime {pair.regime!r}); "
            f"give {instead} to use another branch")
    return pair


def _stream_for(cfg: RunConfig, dist) -> stream.StreamSolution:
    """The stream named by the config: ``s`` directly, else the
    subcritical branch at head ``r``, by its margin."""
    s = cfg.get("s")
    if s is None:
        return stream.solve_stream(dist, sigma2=_conjugate_pair(cfg, dist, "'s'").sigma2_plus)
    return stream.solve_stream(dist, s)


def _built_wave(cfg: RunConfig, dist):
    st = _stream_for(cfg, dist)
    disp = dispersion.find_tau0(st, **cfg.given(tau_max=float))
    t = cfg.require("t")
    wf = linearwave.build_wave(st, disp, t, **cfg.given(n_x=int, n_y=int))
    return st, disp, wf


# -- commands ---------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="vorwaves")
def main():
    """Stream solutions, critical heads, conjugate depths and
    small-amplitude waves for unidirectional shear flows."""


def _command(name: str):
    """Register ``worker(cfg, out) -> (results, files)`` as subcommand ``name``."""

    def register(worker):
        @main.command(name=name, help=worker.__doc__)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Run configuration file.")
        @click.option("--out", "out_dir", default=None,
                      type=click.Path(file_okay=False),
                      help="Output directory (defaults to [run] out).")
        def command(config_path, out_dir):
            _execute(name, config_path, out_dir, worker)
        return worker
    return register


@_command("analyze")
def cmd_analyze(cfg, out):
    """Classification and both critical heads of the distribution."""
    dist = cfg.distribution()
    an = bernoulli.analyze(dist)
    cls = dist.classify()
    results = {
        "classification": an.condition,
        "max_Omega": cls.max_Omega,
        "s0": an.s0,
        "s_c": an.s_c,
        "r_c": an.r_c,
        "d_c": an.d_c,
        "d0": an.d0,
        "r0": an.r0,
        "phi_residual": an.phi_residual,
    }
    return results, []


@_command("stream")
def cmd_stream(cfg, out):
    """Stream profile for a given bottom slope s (profile.csv)."""
    import numpy as np
    dist = cfg.distribution()
    n_p = cfg.get("n_p", int, 257)
    if n_p < 2:
        raise ConfigError(f"n_p={n_p} too coarse: the profile needs both ends")
    st = stream.solve_stream(dist, cfg.require("s"))
    p = np.linspace(0.0, 1.0, n_p)
    heights = st.height_at(p)
    speed = 1.0 / st.slope_at(p)
    files = [_write_csv(out, "profile.csv", ["p", "height", "velocity"], p, heights, speed)]
    results = {
        "s": st.s,
        "d": st.d,
        "r": st.r,
        "u_prime_d": st.u_prime_d,
        "s0": st.s0,
        "classification": st.classification.condition,
    }
    return results, files


@_command("conjugates")
def cmd_conjugates(cfg, out):
    """Conjugate slopes and depths for a given head r."""
    pair = bernoulli.conjugates(cfg.distribution(), cfg.require("r"))
    return dataclasses.asdict(pair), []


@_command("dispersion")
def cmd_dispersion(cfg, out):
    """Least dispersion root for the stream at s (or the head r)."""
    dist = cfg.distribution()
    st = _stream_for(cfg, dist)
    disp = dispersion.find_tau0(st, **cfg.given(tau_max=float))
    results = {
        "s": st.s,
        "d": st.d,
        "r": st.r,
        "tau0": disp.tau0,
        "assumption_I": disp.assumption_I,
        "assumption_II": disp.assumption_II,
        "tau_max": disp.tau_max,
        "notes": list(disp.notes),
    }
    return results, []


@_command("wave")
def cmd_wave(cfg, out):
    """First-order wave of amplitude t (surface.csv, field.csv)."""
    dist = cfg.distribution()
    st, disp, wf = _built_wave(cfg, dist)
    sc = linearwave.detect_sign_change(wf)
    files = [
        _write_csv(out, "surface.csv", ["x", "eta"], wf.x, wf.eta),
        _write_csv(out, "field.csv", ["x", "y", "psi"],  # row i of y, then its columns j
                   wf.x[None].repeat(wf.y.shape[0], 0).ravel(), wf.y.ravel(), wf.psi.ravel()),
    ]
    results = {
        "s": wf.s,
        "r": wf.r,
        "t": wf.t,
        "tau0": wf.tau0,
        "lam": wf.lam,
        "wavelength": wf.wavelength,
        "depth": st.d,
        "crest": float(wf.eta.max()),
        "trough": float(wf.eta.min()),
        "sign_change": dataclasses.asdict(sc),
    }
    return results, files


@_command("check-bounds")
def cmd_check_bounds(cfg, out):
    """Depth-bound verdicts for a surface (given or freshly built)."""
    dist = cfg.distribution()
    r = cfg.require("r")
    files = []
    surface_path = cfg.get("surface", str)
    if surface_path is not None:
        eta = _surface_from_csv(surface_path)
        source = {"surface": surface_path}
    else:
        _, _, wf = _built_wave(cfg, dist)
        eta = wf.eta
        files.append(_write_csv(out, "surface.csv", ["x", "eta"], wf.x, wf.eta))
        source = {"built_wave": {"s": wf.s, "t": wf.t, "tau0": wf.tau0}}
    rep = bounds.check_bounds(dist, r, eta)
    results = {
        "r": rep.r,
        "classification": rep.condition,
        "eta_hat": rep.eta_hat,
        "eta_check": rep.eta_check,
        "d_minus": rep.d_minus,
        "d_plus": rep.d_plus,
        "d_c": rep.d_c,
        "d0": rep.d0,
        "r_c": rep.r_c,
        "r0": rep.r0,
        "stream_like": rep.stream_like,
        "max_interior": rep.max_interior,
        "verdicts": rep.verdict_block(),
        "surrogates": list(rep.surrogates),
        "notes": list(rep.notes),
        "surface_source": source,
    }
    return results, files


@_command("wheeler")
def cmd_wheeler(cfg, out):
    """Conjugate-flow integral identity on a strip (residuals.csv).

    With only ``r`` the strip holds the supercritical stream, built from
    its margin, and the comparison slope is the subcritical one; ``s`` and
    ``s_ref`` select the pair directly.
    """
    dist = cfg.distribution()
    s_strip, s_ref, sigma2 = cfg.get("s"), cfg.get("s_ref"), None
    if s_strip is None or s_ref is None:
        pair = _conjugate_pair(cfg, dist, "both 's' and 's_ref'")
        if s_strip is None:
            s_strip, sigma2 = pair.s_minus, pair.sigma2_minus
        s_ref = pair.s_plus if s_ref is None else s_ref
    strip = (stream.solve_stream(dist, s_strip) if sigma2 is None
             else stream.solve_stream(dist, sigma2=sigma2))
    hf = hodograph.to_strip(strip, **cfg.given(n_p=int, n_q=int, q_span=float))
    rep = hodograph.wheeler_identity(hf, s_ref, cfg.window(), dist)
    resid = hodograph.bernoulli_residual(hf)
    files = [_write_csv(out, "residuals.csv", ["q", "surface_residual"],
                        resid.q, resid.samples)]
    results = {"strip_s": s_strip, **dataclasses.asdict(rep),
               "surface_residual_max": resid.max_abs}
    return results, files


@_command("scale")
def cmd_scale(cfg, out):
    """Convert a number between dimensional and scaled units."""
    Q = cfg.require("Q")
    g = cfg.require("g")
    quantity = cfg.require("quantity", str)
    value = cfg.require("value")
    direction = cfg.get("direction", str, "to-nondimensional")
    if direction not in ("to-nondimensional", "to-dimensional"):
        raise ConfigError(
            f"unknown direction {direction!r}; expected to-nondimensional "
            f"or to-dimensional")
    inverse = direction == "to-dimensional"
    converted = scale_to_nondimensional(Q, g, quantity, value,
                                        inverse=inverse)
    results = {
        "Q": Q,
        "g": g,
        "quantity": quantity,
        "direction": direction,
        "input": value,
        "output": converted,
        "length_scale": scale_to_nondimensional(Q, g, "length", 1.0, inverse=True),
        "velocity_scale": scale_to_nondimensional(Q, g, "velocity", 1.0, inverse=True),
    }
    return results, []


if __name__ == "__main__":
    main()
