"""Exception hierarchy for the vorwaves toolkit.

Every error raised by the package derives from :class:`VorwavesError`, so
callers can catch one type at the boundary.  Subclasses communicate *why*
a computation could not proceed; they carry plain-language messages with
the offending numbers embedded.
"""

__all__ = ["VorwavesError", "ConfigError", "DomainError", "NoStreamError",
           "UnidirectionalityError", "ConvergenceError", "InvalidIntegrandError",
           "ResonanceError", "DivergenceError", "AmbiguousClassificationError"]


class VorwavesError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VorwavesError):
    """A run configuration is missing a key or holds an unparseable value."""


class DomainError(VorwavesError):
    """An input lies outside the mathematical domain of the operation."""


class NoStreamError(DomainError):
    """No stream solution exists for the requested Bernoulli constant."""


class UnidirectionalityError(DomainError):
    """A flow field fails the strict monotonicity needed for the strip map."""


class ConvergenceError(VorwavesError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class InvalidIntegrandError(VorwavesError):
    """An integrand returned a non-finite value inside the domain."""


class ResonanceError(VorwavesError):
    """A boundary-value problem is singular at the requested wavenumber."""


class DivergenceError(VorwavesError):
    """A quantity diverges (an integral or depth becomes infinite)."""


class AmbiguousClassificationError(VorwavesError):
    """A vorticity distribution sits on a classification boundary within
    floating-point noise, so the flow class cannot be reported reliably."""
