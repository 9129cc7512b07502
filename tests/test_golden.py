"""The head landscape against golden values from an independent pipeline.

``golden/landscape.json`` is written by ``golden/gen_landscape.py``, run by
hand: mpmath at 40 digits that shares no code with the package (see its
docstring for the methods).  Each value is compared at a relative
tolerance of ten times the largest disagreement measured, rounded up.
"""

import json
import math
from pathlib import Path

import pytest

from vorwaves.bernoulli import analyze, conjugates
from vorwaves.vorticity import VorticityDistribution as V

GOLDEN = json.loads((Path(__file__).parent / "golden" / "landscape.json")
                    .read_text(encoding="utf-8"))["landscapes"]

# the largest disagreement measured over two implementations of the root
# searches (bracketing walks with Brent's method to 1e-13, and a Chebyshev
# proxy with Newton steps that stop within 1e-13): 2.7e-16 on the landscape
# values, 7.6e-14 on the conjugate slopes, 9.2e-14 on d- and 3.3e-13 on d+
# (the first table at r = 1.3, where s+ - s0 = 3.2e-3 and d is steep in s)
RTOL = {"s0": 3e-15, "s_c": 3e-15, "r_c": 3e-15, "d_c": 3e-15, "d0": 3e-15, "r0": 3e-15,
        "s_plus": 8e-13, "s_minus": 8e-13, "d_plus": 4e-12, "d_minus": 1e-12}


def _close(name, got, want):
    if want is None or want == "inf":
        assert got == (None if want is None else math.inf), name
        return
    ref = float(want)
    assert abs(got - ref) <= RTOL[name] * abs(ref), (name, got, want)


@pytest.mark.parametrize("spec", list(GOLDEN))
def test_landscape_matches_golden(spec):
    want = GOLDEN[spec]
    an = analyze(V.parse(spec))
    assert an.condition == want["condition"]
    for name in ("s0", "s_c", "r_c", "d_c", "d0", "r0"):
        _close(name, getattr(an, name), want[name]["value"])


def _head_cases():
    for spec, want in GOLDEN.items():
        for head in want["heads"]:
            yield pytest.param(spec, head, id=f"{spec}-r={head['r']}")


@pytest.mark.parametrize("spec, head", _head_cases())
def test_conjugates_match_golden(spec, head):
    pair = conjugates(V.parse(spec), float(head["r"]))
    assert pair.regime == "subcritical-pair"
    for name in ("s_plus", "d_plus", "s_minus", "d_minus"):
        _close(name, getattr(pair, name), head[name]["value"])
