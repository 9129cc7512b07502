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

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them.  Importing the package loads only
:mod:`~vorwaves.errors`; any other name, and numpy with it, is imported on
first use from the first pipeline module that lists it (PEP 562).
"""

import importlib.util

from . import errors
from .errors import *  # noqa: F403

__version__ = "0.1.0"

# the modules whose public names the package re-exports, in the order a name is looked up
_PIPELINE = ("vorticity", "stream", "bernoulli", "dispersion", "linearwave", "hodograph", "bounds")


def _modules():
    """The pipeline modules in order, each imported as it is reached."""
    return (importlib.import_module(f"{__name__}.{name}") for name in _PIPELINE)


def __getattr__(name):
    """``__all__``, a submodule, or a public name of a pipeline module, imported
    on first use; a submodule is looked for first, so that ``from vorwaves
    import config`` imports no pipeline module."""
    if name == "__all__":
        value = ["__version__", *errors.__all__, *(n for m in _modules() for n in m.__all__)]
    elif importlib.util.find_spec(f"{__name__}.{name}"):
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        home = next((m for m in _modules() if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
