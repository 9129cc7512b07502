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
"""

from .errors import (
    AmbiguousClassificationError,
    BracketError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InvalidIntegrandError,
    NoStreamError,
    ResonanceError,
    UnidirectionalityError,
    VorwavesError,
)
from .vorticity import FlowClassification, VorticityDistribution
from .stream import (
    ShotStream,
    StreamSolution,
    depth,
    phi,
    shoot_stream,
    solve_stream,
    surface_slope_squared,
)
from .bernoulli import (
    BernoulliAnalysis,
    ConjugatePair,
    CriticalPoint,
    SecondCritical,
    analyze,
    conjugates,
    find_critical,
    head,
    second_critical,
)
from .dispersion import DispersionResult, GammaSolution, find_tau0, gamma_bvp, sigma
from .linearwave import (
    AuxSolution,
    BottomSlopeCheck,
    LinearWave,
    SignChange,
    WaveField,
    WCorrection,
    build_wave,
    check_Wprime0,
    detect_sign_change,
    linear_wave,
    solve_W,
    solve_w_aux,
)
from .hodograph import (
    FieldResidual,
    HodographField,
    SurfaceResidual,
    WheelerReport,
    bernoulli_residual,
    field_equation_residual,
    to_strip,
    wheeler_identity,
)
from .bounds import BoundsReport, VerdictRecord, check_bounds

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VorwavesError",
    "ConfigError",
    "DomainError",
    "NoStreamError",
    "UnidirectionalityError",
    "BracketError",
    "ConvergenceError",
    "InvalidIntegrandError",
    "ResonanceError",
    "DivergenceError",
    "AmbiguousClassificationError",
    # vorticity
    "VorticityDistribution",
    "FlowClassification",
    # streams
    "StreamSolution",
    "ShotStream",
    "solve_stream",
    "shoot_stream",
    "depth",
    "phi",
    "surface_slope_squared",
    # head landscape
    "BernoulliAnalysis",
    "CriticalPoint",
    "SecondCritical",
    "ConjugatePair",
    "head",
    "find_critical",
    "second_critical",
    "conjugates",
    "analyze",
    # dispersion
    "DispersionResult",
    "GammaSolution",
    "sigma",
    "find_tau0",
    "gamma_bvp",
    # first-order waves
    "WCorrection",
    "AuxSolution",
    "BottomSlopeCheck",
    "LinearWave",
    "WaveField",
    "SignChange",
    "solve_W",
    "solve_w_aux",
    "check_Wprime0",
    "linear_wave",
    "build_wave",
    "detect_sign_change",
    # strip transform
    "HodographField",
    "SurfaceResidual",
    "FieldResidual",
    "WheelerReport",
    "to_strip",
    "bernoulli_residual",
    "field_equation_residual",
    "wheeler_identity",
    # verdicts
    "VerdictRecord",
    "BoundsReport",
    "check_bounds",
]
