"""Seeded inputs for the three workloads.

Everything here depends on the seed alone; nothing calls the package.
The program receives only the specs and numbers made here.  No input is
ever re-drawn or dropped because the program fails on it.

A run measures whole passes over a catalogue of distributions: the six
references, random ``poly`` (degree <= 3) and ``table`` (3-5 nodes)
distributions drawn once from ``CATALOGUE_SEED``, and two regression
tables.  Each has its own head fraction.  The run seed jitters every head
fraction, shuffles the order, and scales every distribution of the
second and later passes by a factor ``1 +- k/1000``, so no distribution
repeats within a run; scaling keeps the classification, so every pass
does about the same work.  A wave op costs 0.1-5 s depending on the
distribution and head; with a fresh random mix per seed, ``ops_per_s``
over 20 s differed by up to a factor of two between seeds.  Pinning the
mix is what makes runs at different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# the six reference distributions of the package's own tests and README
REFERENCE = (
    "constant 0",
    "constant 2",
    "constant -2",
    "poly -3 6",
    "poly 0 0 3",
    "table 0:1 0.5:-1 1:2",
)

# threshold slopes s0 = sqrt(2 max Omega) of the reference distributions,
# worked by hand from their antiderivatives
REFERENCE_S0 = {
    "constant 0": 0.0,
    "constant 2": 2.0,
    "constant -2": 0.0,
    "poly -3 6": 0.0,
    "poly 0 0 3": math.sqrt(2.0),
    "table 0:1 0.5:-1 1:2": math.sqrt(0.5),
}

# heads r at about 5% and 10% of the way from r_c to r0 (or above r_c
# for classification "i"); at each the subcritical stream has an
# admissible tau0, a least root with no resonant harmonic.  Low heads
# keep tau0, and so the cost of the dispersion scan, alike across the six.
REFERENCE_WAVE_HEADS = {
    "constant 0": (1.05, 1.1),
    "constant 2": (0.6032, 0.6065),
    "constant -2": (1.9365, 1.9399),
    "poly -3 6": (0.7326, 0.739),
    "poly 0 0 3": (0.6216, 0.6237),
    "table 0:1 0.5:-1 1:2": (0.8822, 0.8967),
}

# untimed warm-up op: a distribution no generator below can produce
WARMUP_SPEC = "constant 1"
WARMUP_FRACTION = 0.2

CLI_COMMANDS = ("analyze", "stream", "conjugates", "dispersion", "wave",
                "check-bounds", "wheeler", "scale")

LANDSCAPE_HEADS = 4
SURFACE_SAMPLES = 129


@dataclass(frozen=True)
class WaveInput:
    spec: str
    fraction: float  # head fraction, see ops.head_at


@dataclass(frozen=True)
class LandscapeInput:
    spec: str
    fractions: tuple   # one head fraction per head
    amplitudes: tuple  # cosine amplitude per head, as a share of d_plus - d_minus


@dataclass(frozen=True)
class CliInput:
    command: str
    spec: str | None
    params: tuple  # (key, value text) pairs for [parameters]


def _num(x: float, digits: int = 3) -> str:
    return repr(round(x, digits) + 0.0)


def random_spec(rng: random.Random, kind: str) -> str:
    """A ``poly`` of degree <= 3 or a ``table`` of 3-5 nodes, values in [-3, 3]."""
    if kind == "poly":
        degree = rng.randint(0, 3)
        return "poly " + " ".join(_num(rng.uniform(-3.0, 3.0))
                                  for _ in range(degree + 1))
    n = rng.randint(3, 5)
    inner: set = set()
    while len(inner) < n - 2:
        inner.add(round(rng.uniform(0.05, 0.95), 3))
    taus = [0.0] + sorted(inner) + [1.0]
    return "table " + " ".join(f"{_num(t)}:{_num(rng.uniform(-3.0, 3.0))}"
                               for t in taus)


# Tables from random_spec (random.Random(12345)) on which the package
# failed when this benchmark was written: on the first, conjugates raises
# (classification "i"); on the second, Phi(1; s_c) misses 1 by 2.7e-8.
# Pinned so that both failures show in every run until they are fixed.
REGRESSION = (
    "table 0.0:-2.208 0.238:0.852 0.774:1.967 0.781:-2.388 1.0:-2.914",
    "table 0.0:1.14 0.212:-1.012 0.407:2.0 0.501:-0.466 1.0:-1.531",
)

# head fractions of the references on wave: roots with small and large
# tau0, a no-root case, and constant 2 at r = 0.63, where tau d is near 40
# and the auxiliary shot of check_Wprime0 loses its digits
WAVE_REFERENCE_FRACTIONS = {
    "constant 0": 0.3,
    "constant 2": 0.451,
    "constant -2": 0.6,
    "poly -3 6": 0.6,
    "poly 0 0 3": 0.9,
    "table 0:1 0.5:-1 1:2": 0.3,
}

CATALOGUE_SEED = "vorwaves-perfbench-catalogue-1"


def _strata(specs: list) -> list:
    """Pair each spec with the centre of its own stratum of head fractions."""
    centres = [0.05 + 0.9 * (k + 0.5) / len(specs) for k in range(len(specs))]
    random.Random(f"{CATALOGUE_SEED}/{len(specs)}").shuffle(centres)
    return list(zip(specs, centres))


def _drawn(kind: str, n: int) -> list:
    rng = random.Random(f"{CATALOGUE_SEED}/{kind}")
    return [random_spec(rng, kind) for _ in range(n)]


# A wave op costs 0.1-5 s and a landscape op 0.1-1.2 s, so a wave pass
# takes nine random distributions of each kind and a landscape pass more.
# A landscape op costs about 0.2 s on a poly and 0.5-1.2 s on a table;
# with as many tables as polys the median op would fall in the gap between
# the two, so the landscape pass draws two polys per table.
WAVE_CATALOGUE = (list(WAVE_REFERENCE_FRACTIONS.items())
                  + _strata(_drawn("poly", 9) + _drawn("table", 9))
                  + [(REGRESSION[0], 0.7)])
LANDSCAPE_CATALOGUE = _strata(list(REFERENCE) + _drawn("poly", 44)
                              + _drawn("table", 22) + list(REGRESSION))


def scaled(spec: str, factor: str) -> str:
    """``spec`` with every omega value multiplied by ``factor`` (a decimal
    string between 0.99 and 1.01); an all-zero distribution becomes the
    weak shear ``poly 0 -(factor - 0.99)``, which keeps classification "i"."""
    kind, *args = spec.split()
    lam = float(factor)
    if kind == "table":
        out = []
        for a in args:
            t, v = a.split(":")
            out.append(f"{t}:{_num(float(v) * lam, 9)}")
    else:
        out = [_num(float(a) * lam, 9) for a in args]
    if all(float(a.split(":")[-1]) == 0.0 for a in args):
        return f"poly 0 {_num(0.99 - lam, 9)}"
    return " ".join([kind] + out)


def _factors(rng: random.Random) -> list:
    """Distinct scale factors, one per pass after the first."""
    out = [f"{1 + s * j / 1000:.3f}" for j in range(1, 10) for s in (1, -1)]
    rng.shuffle(out)
    return out


def _library_passes(rng: random.Random, catalogue):
    """Passes of ``(spec, head-fraction centre)``, each shuffled."""
    factors = _factors(rng)
    for k in range(len(factors) + 1):
        one = [(spec if k == 0 else scaled(spec, factors[k - 1]), f)
               for spec, f in catalogue]
        rng.shuffle(one)
        yield one


def _jitter(rng: random.Random, f: float) -> float:
    return f + rng.uniform(-0.01, 0.01)


def wave_passes(seed: int):
    rng = random.Random(f"wave/{seed}")
    for one in _library_passes(rng, WAVE_CATALOGUE):
        yield [WaveInput(spec, _jitter(rng, f)) for spec, f in one]


def landscape_passes(seed: int):
    """Each op takes its distribution's stratum centre plus three more
    fractions spaced a quarter of [0.05, 0.95] apart, wrapped into it."""
    rng = random.Random(f"landscape/{seed}")
    for one in _library_passes(rng, LANDSCAPE_CATALOGUE):
        yield [LandscapeInput(
            spec,
            tuple(_jitter(rng, 0.05 + (f - 0.05 + 0.225 * j) % 0.9)
                  for j in range(LANDSCAPE_HEADS)),
            tuple(rng.uniform(0.1, 0.9) for _ in range(LANDSCAPE_HEADS)))
            for spec, f in one]


def cli_passes(seed: int):
    """Every pass runs all eight subcommands once, in a seeded order, each
    on a reference distribution drawn by the seed."""
    rng = random.Random(f"cli/{seed}")
    while True:
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        yield [_cli_input(rng, c) for c in commands]


def _cli_input(rng: random.Random, command: str) -> CliInput:
    if command == "scale":
        quantity = rng.choice(("length", "velocity", "value"))
        direction = rng.choice(("to-nondimensional", "to-dimensional"))
        return CliInput(command, None, (
            ("Q", _num(rng.uniform(0.5, 5.0))), ("g", "9.81"),
            ("quantity", quantity), ("value", _num(rng.uniform(0.1, 10.0))),
            ("direction", direction)))
    spec = rng.choice(REFERENCE)
    r = repr(rng.choice(REFERENCE_WAVE_HEADS[spec]))
    if command == "analyze":
        params = ()
    elif command == "stream":
        params = (("s", _num(REFERENCE_S0[spec] + rng.uniform(0.3, 2.0), 4)),)
    elif command in ("conjugates", "dispersion", "wheeler"):
        params = (("r", r),)
    else:  # wave, check-bounds
        params = (("r", r), ("t", _num(rng.uniform(0.005, 0.02), 4)))
    return CliInput(command, spec, params)


def cosine_surface(d_plus: float, amplitude: float):
    """``SURFACE_SAMPLES`` samples of ``d_plus + a cos(theta)`` over one period."""
    n = SURFACE_SAMPLES - 1
    return [d_plus + amplitude * math.cos(2.0 * math.pi * j / n)
            for j in range(n + 1)]
