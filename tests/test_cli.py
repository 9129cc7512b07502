import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from click.testing import CliRunner

import vorwaves
from vorwaves import bernoulli, cli, dispersion, hodograph, stream
from vorwaves.cli import main, scale_to_nondimensional
from vorwaves.config import RunConfig
from vorwaves.errors import ConfigError, DomainError
from vorwaves.vorticity import VorticityDistribution

from test_sweep import INSIDE_SNAP_WINDOW, _head

_SRC = str(pathlib.Path(vorwaves.__file__).resolve().parents[1])


def _config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def _invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(tmp_path, command, body, extra=()):
    cfg = _config(tmp_path, body)
    out = str(tmp_path / "out")
    result = _invoke([command, "--config", cfg, "--out", out, *extra])
    assert result.exit_code == 0, result.output + result.stderr
    return _report(out), out


def test_analyze_constant_two(tmp_path):
    report, _ = _run(tmp_path, "analyze", """\
        [vorticity]
        spec = constant 2
    """)
    res = report["results"]
    assert res["classification"] == "iii"
    assert res["s0"] == 2.0
    assert res["d0"] == pytest.approx(1.0, abs=1e-10)
    assert res["r0"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert res["r_c"] == pytest.approx(0.5998682511986905, abs=1e-9)
    assert res["s_c"] == pytest.approx(2.0399165980019243, abs=1e-9)
    assert res["d_c"] == pytest.approx(0.8191725133961636, abs=1e-9)
    assert abs(res["phi_residual"]) < 1e-9
    assert report["command"] == "analyze"
    assert report["files"] == []


def test_conjugates_irrotational(tmp_path):
    report, _ = _run(tmp_path, "conjugates", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
    """)
    res = report["results"]
    assert res["regime"] == "subcritical-pair"
    assert res["s_plus"] == pytest.approx(0.7184258074030598, abs=1e-9)
    assert res["d_plus"] == pytest.approx(1.3919321796286312, abs=1e-9)
    assert res["s_minus"] == pytest.approx(1.3475085936268842, abs=1e-9)
    assert res["d_minus"] == pytest.approx(0.742110295050848, abs=1e-9)


def test_stream_profile_csv(tmp_path):
    report, out = _run(tmp_path, "stream", """\
        [vorticity]
        spec = constant 0
        [parameters]
        s = 2.0
        n_p = 17
    """)
    assert report["results"]["d"] == pytest.approx(0.5, abs=1e-12)
    assert report["files"] == ["profile.csv"]
    with open(os.path.join(out, "profile.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "p,height,velocity"
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, 0.0, 2.0]
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(0.5, abs=1e-12)


def test_csv_files_are_the_bytes_of_csv_writer(tmp_path):
    # a forged field: each column a float array, rows written in one call
    import csv

    import numpy as np
    x = np.array([0.0, -0.0, math.inf, 1e-300, 0.1])
    y = np.array([math.nan, -math.inf, 2.5, -1e-300, 1.0 / 3.0])
    psi = np.array([5e-324, 1.7976931348623157e308, -0.0, 12345.678, math.pi])
    assert cli._write_csv(str(tmp_path), "field.csv", ["x", "y", "psi"], x, y, psi) == "field.csv"
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "psi"])
        for row in zip(x, y, psi):
            writer.writerow([repr(float(v)) for v in row])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_dispersion_by_head(tmp_path):
    report, _ = _run(tmp_path, "dispersion", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
    """)
    res = report["results"]
    assert res["tau0"] == pytest.approx(1.9190223825217005, abs=1e-8)
    assert res["assumption_II"] is True


@pytest.mark.filterwarnings("ignore:piecewise-linear vorticity")
def test_dispersion_where_no_slope_names_the_stream(tmp_path):
    # under class "i" this draw's subcritical conjugate at its 95% head lies
    # within 1e-13 max(1, s0) of s0, where the float s_plus names no stream
    # (the command exited 3 on its DivergenceError); its margin names it
    spec = INSIDE_SNAP_WINDOW[0]
    dist = VorticityDistribution.parse(spec)
    r = _head(bernoulli.analyze(dist), 0.95)
    pair = bernoulli.conjugates(dist, r)
    report, _ = _run(tmp_path, "dispersion", f"""\
        [vorticity]
        spec = {spec}
        [parameters]
        r = {r!r}
    """)
    res = report["results"]
    assert res["d"] == pair.d_plus
    tau0 = dispersion.find_tau0(stream.solve_stream(dist, sigma2=pair.sigma2_plus)).tau0
    assert tau0 is not None and res["tau0"] == tau0


def test_dispersion_by_slope(tmp_path):
    # a slope between s0 = 2 and s_c = 2.0399 names the stream itself
    dist = VorticityDistribution.parse("constant 2")
    report, _ = _run(tmp_path, "dispersion", """\
        [vorticity]
        spec = constant 2
        [parameters]
        s = 2.02
    """)
    res = report["results"]
    st = stream.solve_stream(dist, 2.02)
    tau0 = dispersion.find_tau0(st).tau0
    assert tau0 is not None
    assert (res["s"], res["d"], res["tau0"]) == (st.s, st.d, tau0)


def test_wave_outputs(tmp_path):
    report, out = _run(tmp_path, "wave", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
        t = 0.01
        n_x = 65
        n_y = 33
    """)
    res = report["results"]
    assert res["crest"] - res["trough"] == pytest.approx(0.02, abs=1e-12)
    assert report["files"] == ["field.csv", "surface.csv"]
    with open(os.path.join(out, "surface.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "x,eta"
    assert len(rows) == 1 + 65
    with open(os.path.join(out, "field.csv"), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + 65 * 33


def test_check_bounds_built_wave(tmp_path):
    report, _ = _run(tmp_path, "check-bounds", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
        t = 0.01
    """)
    verdicts = report["results"]["verdicts"]
    assert verdicts["assertion1"]["status"] == "holds"
    assert verdicts["assertion2"]["status"] == "holds"
    assert report["results"]["stream_like"] is False
    assert report["files"] == ["surface.csv"]


@pytest.mark.parametrize("command", ["wave", "check-bounds"])
def test_report_lists_each_warning_once(tmp_path, command):
    # find_tau0 and the transverse mode of the correction both warn about
    # the piecewise-linear table; the report kept both copies
    report, _ = _run(tmp_path, command, """\
        [vorticity]
        spec = table 0:1 0.5:-1 1:2
        [parameters]
        r = 0.8822
        t = 0.001
    """)
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("piecewise-linear vorticity")


def test_check_bounds_surface_file(tmp_path):
    surface = tmp_path / "flat.csv"
    rows = ["x,eta"] + [f"{i * 0.1},0.742110295050848" for i in range(12)]
    surface.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report, _ = _run(tmp_path, "check-bounds", f"""\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
        surface = {surface}
    """)
    res = report["results"]
    assert res["stream_like"] is True
    assert res["verdicts"]["assertion1"]["status"] == "violated"
    assert res["surface_source"] == {"surface": str(surface)}
    assert report["files"] == []


def test_surface_file_skips_blank_rows(tmp_path):
    # a blank row is no sample: the verdicts are those of the file without it
    rows = ["x,eta"] + [f"{i * 0.1},{1.0 + 0.01 * i}" for i in range(12)]
    results = []
    for name, body in (("plain", rows), ("blank", rows[:6] + [""] + rows[6:])):
        surface = tmp_path / f"{name}.csv"
        surface.write_text("\n".join(body) + "\n", encoding="utf-8")
        (tmp_path / name).mkdir()
        report, _ = _run(tmp_path / name, "check-bounds", f"""\
            [vorticity]
            spec = constant 0
            [parameters]
            r = 1.1
            surface = {surface}
        """)
        del report["results"]["surface_source"]
        results.append(report["results"])
    assert results[0] == results[1]


def test_wheeler_conjugate_run(tmp_path):
    report, out = _run(tmp_path, "wheeler", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
    """)
    res = report["results"]
    assert res["rhs"] == 0.0
    assert abs(res["lhs_per_unit"]) < 1e-6
    assert res["reduced"] is False
    assert res["surface_residual_max"] < 1e-8
    assert report["files"] == ["residuals.csv"]
    with open(os.path.join(out, "residuals.csv"), encoding="utf-8") as fh:
        assert fh.readline().strip() == "q,surface_residual"


def test_wheeler_on_a_window(tmp_path):
    report, _ = _run(tmp_path, "wheeler", """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
        window = 0.2, 0.8
    """)
    res = report["results"]
    dist = VorticityDistribution.parse("constant 0")
    pair = bernoulli.conjugates(dist, 1.1)
    # the strip holds the supercritical stream, named by its margin
    hf = hodograph.to_strip(stream.solve_stream(dist, sigma2=pair.sigma2_minus))
    assert res["strip_s"] == pair.s_minus and res["window"] == [0.2, 0.8]
    assert res["lhs"] == hodograph.wheeler_identity(hf, pair.s_plus, (0.2, 0.8), dist).lhs


@pytest.mark.parametrize("window, message", [("0.5", "needs two numbers"),
                                             ("0.8 0.2", "empty window"),
                                             ("-5 0.5", "reaches off q in [0.0, 1.0]")])
def test_exit_code_for_a_bad_window(tmp_path, window, message):
    cfg = _config(tmp_path, f"""\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 1.1
        window = {window}
    """)
    result = _invoke(["wheeler", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert message in result.stderr


def test_scale_round_trip(tmp_path):
    forward, _ = _run(tmp_path, "scale", """\
        [parameters]
        Q = 1.0
        g = 9.81
        quantity = length
        value = 1.0
    """)
    res = forward["results"]
    assert res["output"] == pytest.approx(2.1407025963311255, abs=1e-12)
    assert res["length_scale"] == pytest.approx(0.4671363512679737, abs=1e-12)

    back, _ = _run(tmp_path, "scale", f"""\
        [parameters]
        Q = 1.0
        g = 9.81
        quantity = length
        value = {res['output']!r}
        direction = to-dimensional
    """)
    assert back["results"]["output"] == pytest.approx(1.0, abs=1e-14)


def test_scale_function_factors():
    vel = scale_to_nondimensional(2.0, 9.81, "velocity", 3.0)
    assert vel == pytest.approx(3.0 / (2.0 * 9.81) ** (1.0 / 3.0), abs=1e-14)
    assert scale_to_nondimensional(2.5, 9.81, "value", 5.0) == 2.0
    with pytest.raises(ConfigError):
        scale_to_nondimensional(1.0, 9.81, "area", 1.0)
    with pytest.raises(DomainError):
        scale_to_nondimensional(-1.0, 9.81, "length", 1.0)
    # an infinite scale used to give 0.0, and a NaN value passed through
    for Q, g, value in ((math.inf, 9.81, 1.0), (1.0, math.inf, 1.0), (1.0, 9.81, math.nan),
                        (1.0, 9.81, math.inf), (math.nan, 9.81, 1.0)):
        with pytest.raises(DomainError):
            scale_to_nondimensional(Q, g, "length", value)


@pytest.mark.parametrize("command, required, defaults", [
    ("dispersion", "r = 1.1", "tau_max = 50.0"),
    ("wave", "r = 1.1\nt = 0.01", "tau_max = 50.0\nn_x = 129\nn_y = 129"),
    ("wheeler", "r = 1.1", "n_p = 257\nn_q = 9\nq_span = 1.0"),
])
def test_optional_parameters_default_to_the_library(tmp_path, command, required, defaults):
    # a parameter the run file leaves out takes the default of the library
    # function it is passed to, so writing that default out changes nothing
    results = []
    for name, params in (("bare", required), ("full", required + "\n" + defaults)):
        cfg = _config(tmp_path, "[vorticity]\nspec = constant 0\n[parameters]\n" + params + "\n",
                      name=f"{name}.ini")
        out = str(tmp_path / name)
        result = _invoke([command, "--config", cfg, "--out", out])
        assert result.exit_code == 0, result.output + result.stderr
        results.append(_report(out)["results"])
    assert results[0] == results[1]


def test_exit_code_for_missing_parameter(tmp_path):
    cfg = _config(tmp_path, """\
        [vorticity]
        spec = constant 0
    """)
    result = _invoke(["conjugates", "--config", cfg,
                      "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "missing required parameter" in result.stderr


def test_exit_code_for_command_mismatch(tmp_path):
    cfg = _config(tmp_path, """\
        [run]
        command = analyze
        [vorticity]
        spec = constant 0
        [parameters]
        s = 2.0
    """)
    result = _invoke(["stream", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command, size", [
    ("stream", "n_p = -1"),
    ("stream", "n_p = 0"),
    ("wheeler", "n_q = -2"),
])
def test_exit_code_for_too_few_samples(tmp_path, command, size):
    # a grid of fewer than two points is a configuration error, not a
    # numpy traceback (exit 1) or an empty profile.csv (exit 0)
    cfg = _config(tmp_path, f"""\
        [vorticity]
        spec = constant 0
        [parameters]
        s = 2.0
        r = 1.1
        {size}
    """)
    result = _invoke([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "too coarse" in result.stderr


@pytest.mark.parametrize("q_span", ["-1", "0"])
def test_exit_code_for_a_strip_without_width(tmp_path, q_span):
    # q_span = -1 ran to exit 0 with width -1 and the identity's sign flipped
    cfg = _config(tmp_path, f"""\
        [vorticity]
        spec = constant 2
        [parameters]
        r = 0.63
        q_span = {q_span}
    """)
    result = _invoke(["wheeler", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "q_span" in result.stderr


def test_every_command_is_registered_with_the_run_options():
    # one registration per subcommand: --config required, --out optional,
    # and the help text is the worker's docstring
    assert set(main.commands) == {"analyze", "stream", "conjugates", "dispersion", "wave",
                                  "check-bounds", "wheeler", "scale"}
    for name, command in main.commands.items():
        options = {p.name: p for p in command.params}
        assert set(options) == {"config_path", "out_dir"}
        assert options["config_path"].required and not options["out_dir"].required
        result = _invoke([name, "--help"])
        assert result.exit_code == 0
        doc = getattr(cli, "cmd_" + name.replace("-", "_")).__doc__
        assert doc.strip().splitlines()[0] in result.output


def test_exit_code_for_subcritical_head(tmp_path):
    cfg = _config(tmp_path, """\
        [vorticity]
        spec = constant 0
        [parameters]
        r = 0.5
    """)
    result = _invoke(["conjugates", "--config", cfg,
                      "--out", str(tmp_path / "o")])
    assert result.exit_code == 3


def _refused(tmp_path, command, body, code, message):
    cfg = _config(tmp_path, body)
    result = _invoke([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == code
    assert message in result.stderr


@pytest.mark.parametrize("params, message", [
    ("t = 0.01\nn_x = 12.5", "'n_x' must be an integer"),
    ("t = inf", "'t' must be finite"),
])
def test_exit_code_for_a_bad_number(tmp_path, params, message):
    _refused(tmp_path, "wave", "[vorticity]\nspec = constant 0\n[parameters]\nr = 1.1\n"
             + params + "\n", 2, message)


def test_exit_code_for_a_run_file_without_sections(tmp_path):
    _refused(tmp_path, "analyze", "spec = constant 0\n", 2, "cannot parse config")


def test_exit_code_for_a_run_file_without_a_vorticity_spec(tmp_path):
    _refused(tmp_path, "analyze", "[run]\ncommand = analyze\n", 2, "missing [vorticity] spec")


def test_a_directory_is_not_a_run_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        RunConfig.load(str(tmp_path), "analyze")


@pytest.mark.parametrize("spec, message", [
    ("table 0:1 1:nan", "table values must be finite"),
    ("poly 1 inf", "coefficients must be finite"),
    ("spline 1 2", "unknown vorticity kind 'spline'"),
])
def test_exit_code_for_a_bad_vorticity_spec(tmp_path, spec, message):
    _refused(tmp_path, "analyze", f"[vorticity]\nspec = {spec}\n", 2, message)


def test_exit_code_for_an_ambiguous_classification(tmp_path):
    _refused(tmp_path, "analyze", "[vorticity]\nspec = poly -1 2 -1e-13\n", 3, "near-tie")


@pytest.mark.parametrize("rows, message", [
    (["x,eta", "0.0,1.0", "0.1,high"], "non-numeric row"),
    (["x,eta"], "no surface samples"),
    (None, "cannot read surface file"),
])
def test_exit_code_for_a_bad_surface_file(tmp_path, rows, message):
    surface = tmp_path / "surface.csv"
    if rows is not None:
        surface.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _refused(tmp_path, "check-bounds", f"[vorticity]\nspec = constant 0\n[parameters]\n"
             f"r = 1.1\nsurface = {surface}\n", 2, message)


@pytest.mark.parametrize("spec, params, code, message", [
    ("constant 0", "tau_max = 5.0", 2, "missing required parameter: give 'r' or 's'"),
    ("constant -2", "r = 5.0", 3, "no subcritical stream at r=5.0"),
])
def test_exit_code_for_a_dispersion_without_a_stream(tmp_path, spec, params, code, message):
    # r = 5.0 lies above r0 = 2 of omega = -2, where only the supercritical branch is left
    _refused(tmp_path, "dispersion", f"[vorticity]\nspec = {spec}\n[parameters]\n{params}\n",
             code, message)


def test_exit_code_for_an_unknown_scale_direction(tmp_path):
    _refused(tmp_path, "scale", "[parameters]\nQ = 1.0\ng = 9.81\nquantity = length\n"
             "value = 1.0\ndirection = sideways\n", 2, "unknown direction 'sideways'")


def test_scale_domain_error_exit(tmp_path):
    cfg = _config(tmp_path, """\
        [parameters]
        Q = -1.0
        g = 9.81
        quantity = length
        value = 1.0
    """)
    result = _invoke(["scale", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 3


def test_reports_are_deterministic(tmp_path):
    body = """\
        [vorticity]
        spec = constant 2
    """
    texts = []
    for sub in ("a", "b"):
        cfg = _config(tmp_path, body, name=f"{sub}.ini")
        out = str(tmp_path / sub)
        result = _invoke(["analyze", "--config", cfg, "--out", out])
        assert result.exit_code == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if "timing_seconds" not in ln]
        texts.append("\n".join(lines))
    assert texts[0] == texts[1]


def test_tolerance_settings_are_refused(tmp_path):
    # the tolerances are fixed; neither the retired option nor the retired
    # config section may be silently ignored
    cfg = _config(tmp_path, """\
        [vorticity]
        spec = constant 0
    """)
    result = _invoke(["analyze", "--config", cfg, "--out", str(tmp_path / "o"),
                      "--tol", "1e-8"])
    assert result.exit_code == 2
    cfg = _config(tmp_path, """\
        [vorticity]
        spec = constant 0

        [numerics]
        tolerance = 1e-8
    """, name="numerics.ini")
    result = _invoke(["analyze", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert result.exit_code == 2
    assert "[numerics]" in result.stderr


def _fresh_python(args, cwd):
    """Run a fresh interpreter that imports the package from this tree."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point_runs_the_cli(tmp_path):
    cfg = _config(tmp_path, """\
        [vorticity]
        spec = constant 2
    """)
    out = tmp_path / "out"
    done = _fresh_python(["-m", "vorwaves.cli", "analyze", "--config", cfg,
                          "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert _report(str(out))["results"]["classification"] == "iii"


# every command but those that shoot a stream: the transverse operator of
# dispersion, wave and check-bounds is numpy linear algebra; scale, which
# loads no numpy, comes first
_WITHOUT_SCIPY = {
    "scale": "[parameters]\nQ = 1.0\ng = 9.81\nquantity = length\nvalue = 1.0\n",
    "analyze": "[vorticity]\nspec = constant 2\n",
    "stream": "[vorticity]\nspec = poly -3 6\n[parameters]\ns = 1.0\n",
    "conjugates": "[vorticity]\nspec = table 0:1 0.5:-1 1:2\n[parameters]\nr = 0.8822\n",
    "wheeler": "[vorticity]\nspec = constant 0\n[parameters]\nr = 1.1\n",
    "dispersion": "[vorticity]\nspec = constant 2\n[parameters]\nr = 0.6032\n",
    "wave": "[vorticity]\nspec = poly 0 0 3\n[parameters]\nr = 0.6216\nt = 0.005\n",
    "check-bounds": "[vorticity]\nspec = table 0:1 0.5:-1 1:2\n[parameters]\n"
                    "r = 0.8822\nt = 0.005\n",
}


# commands that call only the stream and the head landscape; they follow scale
_LANDSCAPE_ONLY = ("analyze", "stream", "conjugates")


def test_start_up_leaves_scipy_unloaded(tmp_path):
    # scipy is imported only where a stream is shot (shoot_stream):
    # neither the package, the CLI, nor these eight commands load it, nor
    # numpy.polynomial (numerics has the Chebyshev series).  The package and
    # the CLI load no numpy and no numerical module: each command imports
    # the modules it calls
    for command, body in _WITHOUT_SCIPY.items():
        (tmp_path / f"{command}.ini").write_text(body, encoding="utf-8")
    code = textwrap.dedent("""\
        import sys

        def loaded(after):
            print(after, "loaded", " ".join(sorted(
                m for m in sys.modules
                if m.split(".")[0] in ("scipy", "numpy") or m.startswith("vorwaves."))))

        import vorwaves
        loaded("vorwaves")
        import vorwaves.cli
        loaded("vorwaves.cli")
        for command in sys.argv[1:]:
            vorwaves.cli.main([command, "--config", command + ".ini", "--out", command],
                              standalone_mode=False)
            loaded(command)
        """)
    done = _fresh_python(["-c", code, *_WITHOUT_SCIPY], tmp_path)
    assert done.returncode == 0, done.stderr
    for command in _WITHOUT_SCIPY:
        assert _report(str(tmp_path / command))["command"] == command
    loaded = {words[0]: set(words[2:]) for words in map(str.split, done.stdout.splitlines())
              if words[1] == "loaded"}
    assert loaded["vorwaves"] == {"vorwaves.errors"}
    assert loaded["vorwaves.cli"] == {"vorwaves.cli", "vorwaves.config", "vorwaves.errors"}
    assert not {m for m in loaded["scale"] if m.split(".")[0] == "numpy"}
    for command in _WITHOUT_SCIPY:
        assert not {m for m in loaded[command] if m.split(".")[0] == "scipy"}, command
        assert "numpy.polynomial" not in loaded[command], command
    for command in _LANDSCAPE_ONLY:
        assert not loaded[command] & {"vorwaves.dispersion", "vorwaves.linearwave",
                                      "vorwaves.hodograph", "vorwaves.bounds"}, command
