"""Stream solutions, critical Bernoulli constants, and small-amplitude
waves for unidirectional water flows with vorticity.

The modules mirror the pipeline: a vorticity distribution
(:mod:`~vorwaves.vorticity`) feeds the stream solver
(:mod:`~vorwaves.stream`), whose head landscape
(:mod:`~vorwaves.bernoulli`) fixes conjugate depths; the dispersion root search
(:mod:`~vorwaves.dispersion`) and first-order builder
(:mod:`~vorwaves.linearwave`) produce waves, which the strip transform
(:mod:`~vorwaves.hodograph`) and the verdict module
(:mod:`~vorwaves.bounds`) check against the depth bounds.

Importing the package loads only :mod:`~vorwaves.errors`; every other
exported name, and numpy with it, is imported from its module on first use
(PEP 562).
"""

import importlib

from . import errors

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "errors": (
        "VorwavesError",
        "ConfigError",
        "DomainError",
        "NoStreamError",
        "UnidirectionalityError",
        "ConvergenceError",
        "InvalidIntegrandError",
        "ResonanceError",
        "DivergenceError",
        "AmbiguousClassificationError",
    ),
    "vorticity": ("VorticityDistribution", "FlowClassification"),
    "stream": (
        "StreamSolution",
        "ShotStream",
        "solve_stream",
        "shoot_stream",
    ),
    "bernoulli": ("BernoulliAnalysis", "ConjugatePair", "conjugates", "analyze"),
    "dispersion": ("DispersionResult", "GammaSolution", "sigma", "find_tau0", "gamma_bvp"),
    "linearwave": (
        "WCorrection",
        "BottomSlopeCheck",
        "WaveField",
        "SignChange",
        "solve_W",
        "solve_w_aux",
        "check_Wprime0",
        "build_wave",
        "detect_sign_change",
    ),
    "hodograph": (
        "HodographField",
        "SurfaceResidual",
        "FieldResidual",
        "WheelerReport",
        "to_strip",
        "bernoulli_residual",
        "field_equation_residual",
        "wheeler_identity",
    ),
    "bounds": ("VerdictRecord", "BoundsReport", "check_bounds"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]

globals().update((name, getattr(errors, name)) for name in _EXPORTS["errors"])


def __getattr__(name):
    """An exported name, or a submodule, imported on first use."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS or name == "numerics":
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
