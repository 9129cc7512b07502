import importlib
import json
import pathlib
import pkgutil
import warnings

import pytest
from click.testing import CliRunner

import vorwaves
from vorwaves import errors

from test_cli import _fresh_python

_MODULES = ["vorwaves", *(f"vorwaves.{m.name}" for m in pkgutil.iter_modules(vorwaves.__path__))]

_ROOT = pathlib.Path(vorwaves.__file__).resolve().parents[2]

# the modules whose public names the package re-exports, in lookup order
_PIPELINE = ["vorticity", "stream", "bernoulli", "dispersion", "linearwave", "hodograph",
             "bounds"]

# the public surface: a name added or taken out is a decision, made here too
_SURFACE = {
    "__version__",
    "VorwavesError", "ConfigError", "DomainError", "NoStreamError", "UnidirectionalityError",
    "ConvergenceError", "InvalidIntegrandError", "ResonanceError", "DivergenceError",
    "AmbiguousClassificationError",
    "VorticityDistribution", "FlowClassification",
    "StreamSolution", "ShotStream", "solve_stream", "shoot_stream",
    "BernoulliAnalysis", "ConjugatePair", "conjugates", "analyze",
    "DispersionResult", "GammaSolution", "sigma", "find_tau0", "gamma_bvp",
    "WCorrection", "BottomSlopeCheck", "WaveField", "SignChange", "solve_W", "solve_w_aux",
    "check_Wprime0", "build_wave", "detect_sign_change",
    "HodographField", "SurfaceResidual", "FieldResidual", "WheelerReport", "to_strip",
    "bernoulli_residual", "field_equation_residual", "wheeler_identity",
    "VerdictRecord", "BoundsReport", "check_bounds",
}


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # a deletion must take its name out of __all__ too
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale


def test_dir_lists_every_export():
    # the exports are imported on first use, and dir() lists them all along
    assert set(vorwaves.__all__) <= set(dir(vorwaves))
    assert dir(vorwaves) == sorted(dir(vorwaves))


def test_package_names_are_the_modules_own():
    # each module's __all__ is the one list of its names: the package's is theirs, in order
    modules = [importlib.import_module(f"vorwaves.{name}") for name in _PIPELINE]
    expected = ["__version__", *errors.__all__, *(n for m in modules for n in m.__all__)]
    assert vorwaves.__all__ == expected
    assert len(set(expected)) == len(expected) == 46
    assert set(expected) == _SURFACE
    for name in expected[1:]:
        home = next(m for m in [errors, *modules] if name in m.__all__)
        assert getattr(vorwaves, name) is getattr(home, name)


def test_a_name_loads_only_its_module(tmp_path):
    # the scan stops at the first module that lists the name, and a submodule
    # outside the pipeline is no name of it
    code = ("import sys, vorwaves\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.startswith('vorwaves')))\n"
            "loaded()\n"
            "vorwaves.VorticityDistribution\n"
            "loaded()\n"
            "from vorwaves import config\n"
            "loaded()\n")
    done = _fresh_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['vorwaves', 'vorwaves.errors']",
        "['vorwaves', 'vorwaves.errors', 'vorwaves.vorticity']",
        "['vorwaves', 'vorwaves.config', 'vorwaves.errors', 'vorwaves.vorticity']"]


def test_a_deleted_name_is_unknown():
    # stream.depth was deleted: after the scan, the package names it no more than any other
    for name in ("depth", "no_such_name"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(vorwaves, name)


def test_the_version_has_one_home(tmp_path):
    # the build reads the version from vorwaves.__version__; the CLI and every
    # report print it
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = _ROOT / "pyproject.toml"
    project = pyproject.load_file(path)["project"]
    assert "version" not in project and "version" in project["dynamic"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged as beta
        assert pyproject.read_configuration(path)["project"]["version"] == "0.1.0"
    assert vorwaves.__version__ == "0.1.0"

    from vorwaves.cli import main
    done = CliRunner().invoke(main, ["--version"])
    assert done.exit_code == 0 and done.output == "vorwaves, version 0.1.0\n"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[parameters]\nQ = 1.0\ng = 9.81\nquantity = length\nvalue = 1.0\n")
    done = CliRunner().invoke(main, ["scale", "--config", str(cfg), "--out", str(tmp_path)])
    assert done.exit_code == 0, done.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["toolkit"] == {"name": "vorwaves", "version": "0.1.0"}
