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

Unknown keys are ignored (forward compatibility); missing or unparseable
required keys raise :class:`~vorwaves.errors.ConfigError` naming the key.
A ``[numerics]`` section raises it too: the tolerances are fixed, and a
file that still sets one must not be silently ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .vorticity import VorticityDistribution

__all__ = ["COMMANDS", "RunConfig"]

COMMANDS = ("analyze", "stream", "conjugates", "dispersion", "wave",
            "check-bounds", "wheeler", "scale")


@dataclass
class RunConfig:
    """Parsed run file plus typed access to the [parameters] section."""

    command: str
    vorticity_text: Optional[str]
    out_dir: Optional[str]
    params: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str, command: Optional[str] = None) -> "RunConfig":
        """Read ``path``; ``command`` (from the CLI) must agree with any
        command stated in the file."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (Q vs q)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc

        stated = parser.get("run", "command", fallback=None)
        if stated is not None:
            stated = stated.strip()
            if stated not in COMMANDS:
                raise ConfigError(
                    f"unknown command {stated!r} in [run]; expected one of "
                    f"{', '.join(COMMANDS)}")
        if command is not None and stated is not None and command != stated:
            raise ConfigError(
                f"config names command {stated!r} but {command!r} was invoked")
        resolved = command or stated
        if resolved is None:
            raise ConfigError("no command: pass a subcommand or set "
                              "[run] command")

        if parser.has_section("numerics"):
            raise ConfigError(
                f"config {path!r} has a [numerics] section; the tolerances "
                f"are fixed and no longer set there")

        params = {}
        if parser.has_section("parameters"):
            params = {k: v.strip() for k, v in parser.items("parameters")}

        return cls(
            command=resolved,
            vorticity_text=parser.get("vorticity", "spec", fallback=None),
            out_dir=parser.get("run", "out", fallback=None),
            params=params,
        )

    def distribution(self) -> VorticityDistribution:
        if self.vorticity_text is None:
            raise ConfigError("missing [vorticity] spec")
        return VorticityDistribution.parse(self.vorticity_text)

    # -- typed parameter access ------------------------------------------------

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(key, default)

    def require_str(self, key: str) -> str:
        if key not in self.params:
            raise ConfigError(f"missing required parameter {key!r}")
        return self.params[key]

    def get_float(self, key: str,
                  default: Optional[float] = None) -> Optional[float]:
        if key not in self.params:
            return default
        return _parse_float(key, self.params[key])

    def require_float(self, key: str) -> float:
        if key not in self.params:
            raise ConfigError(f"missing required parameter {key!r}")
        return _parse_float(key, self.params[key])

    def get_int(self, key: str, default: int) -> int:
        if key not in self.params:
            return default
        text = self.params[key]
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(
                f"parameter {key!r} must be an integer, got {text!r}") from exc

    def window(self) -> Optional[Tuple[float, float]]:
        """The two-number ``window`` parameter, if present."""
        if "window" not in self.params:
            return None
        toks = self.params["window"].replace(",", " ").split()
        if len(toks) != 2:
            raise ConfigError(
                f"parameter 'window' needs two numbers, got "
                f"{self.params['window']!r}")
        lo = _parse_float("window", toks[0])
        hi = _parse_float("window", toks[1])
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


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(
            f"parameter {key!r} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"parameter {key!r} must be finite, got {text!r}")
    return value
