"""Run configuration: flat key=value text with section headers.

A run file names one command, the vorticity distribution in its text
form, and whatever parameters the command needs:

.. code-block:: ini

    [run]
    command = conjugates
    out = results

    [vorticity]
    spec = constant 0

    [parameters]
    r = 1.1

A ``[run] command``, if given, must name the invoked subcommand.
Unknown keys are ignored (forward compatibility); missing or unparseable
required keys raise :class:`~vorwaves.errors.ConfigError` naming the key.
A ``[numerics]`` section raises it too: the tolerances are fixed, and a
file that still sets one must not be silently ignored.  An optional
parameter that a run file leaves out takes the default of the library
function it is passed to (:meth:`RunConfig.given`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .vorticity import VorticityDistribution

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Parsed run file plus typed access to the [parameters] section."""

    command: str
    vorticity_text: Optional[str]
    out_dir: Optional[str]
    params: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str, command: str) -> "RunConfig":
        """Read ``path`` for the invoked ``command``, which any command
        stated in the file must name."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (Q vs q)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc

        stated = parser.get("run", "command", fallback=command).strip()
        if stated != command:
            raise ConfigError(
                f"config names command {stated!r} but {command!r} was invoked")

        if parser.has_section("numerics"):
            raise ConfigError(
                f"config {path!r} has a [numerics] section; the tolerances "
                f"are fixed and no longer set there")

        params = {}
        if parser.has_section("parameters"):
            params = {k: v.strip() for k, v in parser.items("parameters")}

        return cls(
            command=command,
            vorticity_text=parser.get("vorticity", "spec", fallback=None),
            out_dir=parser.get("run", "out", fallback=None),
            params=params,
        )

    def distribution(self) -> VorticityDistribution:
        if self.vorticity_text is None:
            raise ConfigError("missing [vorticity] spec")
        return VorticityDistribution.parse(self.vorticity_text)

    # -- typed parameter access ------------------------------------------------

    def get(self, key: str, kind: type = float, default=None):
        """The parameter ``key`` as a ``kind``, or ``default`` if the run file leaves it out."""
        return _parse(key, self.params[key], kind) if key in self.params else default

    def require(self, key: str, kind: type = float):
        """The parameter ``key`` as a ``kind``; the run file must set it."""
        if key not in self.params:
            raise ConfigError(f"missing required parameter {key!r}")
        return _parse(key, self.params[key], kind)

    def given(self, **kinds: type) -> dict:
        """The parameters named in ``kinds`` that the run file sets, each
        read as its kind, to pass on as keyword arguments: those it leaves
        out take the callee's defaults."""
        return {key: _parse(key, self.params[key], kind)
                for key, kind in kinds.items() if key in self.params}

    def window(self) -> Optional[Tuple[float, float]]:
        """The two-number ``window`` parameter, if present."""
        if "window" not in self.params:
            return None
        toks = self.params["window"].replace(",", " ").split()
        if len(toks) != 2:
            raise ConfigError(
                f"parameter 'window' needs two numbers, got {self.params['window']!r}")
        lo, hi = (_parse("window", tok, float) for tok in toks)
        if hi <= lo:
            raise ConfigError(f"empty window [{lo!r}, {hi!r}]")
        return lo, hi

    def echo(self) -> dict:
        """Raw configuration as one JSON-ready mapping."""
        return {
            "command": self.command,
            "vorticity": self.vorticity_text,
            "out": self.out_dir,
            "parameters": dict(sorted(self.params.items())),
        }


def _parse(key: str, text: str, kind: type):
    """``text`` as a ``kind``: a string as it stands, an int, or a finite float."""
    if kind is str:
        return text
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"parameter {key!r} must be "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"parameter {key!r} must be finite, got {text!r}")
    return value
