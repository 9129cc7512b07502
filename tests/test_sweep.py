"""Random distributions through the whole pipeline: ``analyze``, then
``conjugates`` at three heads, ``find_tau0`` at each ``s_plus`` and
``build_wave`` where the root is admissible.

The draws are a ``poly`` of degree <= 3 or a ``table`` of 3-5 nodes, with
values in [-3, 3] rounded to three places, the benchmark's mix, built here.
A draw must complete or raise a refusal the docstrings name.  The pinned
draws are the failures found over 1,500 such draws: ``find_tau0`` gave up
on 14 of them, and ``conjugates`` refused 5 under class "i", whose
subcritical conjugate lies a few ulps above ``s0``.  Each stream is built
from the margin ``sigma2_plus`` of its pair.  ``tests/sweep.py`` runs the
whole sweep by hand.
"""

import random

import pytest

from vorwaves import bernoulli, linearwave, stream
from vorwaves.dispersion import find_tau0, sigma
from vorwaves.errors import AmbiguousClassificationError, NoStreamError
from vorwaves.vorticity import VorticityDistribution as V

pytestmark = pytest.mark.filterwarnings("ignore:piecewise-linear vorticity")

# head fractions of the way from r_c to r0 (above r_c under class "i")
HEADS = (0.05, 0.5, 0.95)


def _head(an, fraction: float) -> float:
    if an.r0 is not None:
        return an.r_c + fraction * (an.r0 - an.r_c)
    return an.r_c * (1.0 + fraction)


def _stream(spec: str, fraction: float):
    dist = V.parse(spec)
    pair = bernoulli.conjugates(dist, _head(bernoulli.analyze(dist), fraction))
    return stream.solve_stream(dist, sigma2=pair.sigma2_plus)


def _draw(rng: random.Random) -> str:
    def num(x):
        return repr(round(x, 3) + 0.0)
    if rng.choice(("poly", "table")) == "poly":
        return "poly " + " ".join(num(rng.uniform(-3.0, 3.0)) for _ in range(rng.randint(1, 4)))
    n, inner = rng.randint(3, 5), set()
    while len(inner) < n - 2:
        inner.add(round(rng.uniform(0.05, 0.95), 3))
    return "table " + " ".join(f"{num(t)}:{num(rng.uniform(-3.0, 3.0))}"
                               for t in [0.0, *sorted(inner), 1.0])


def _pipeline(spec: str) -> None:
    """Every head of ``spec`` through the pipeline.  The refusals:
    ``AmbiguousClassificationError`` from ``analyze``, ``NoStreamError``
    from ``conjugates``; a root that is not admissible builds no wave."""
    dist = V.parse(spec)
    try:
        an = bernoulli.analyze(dist)
    except AmbiguousClassificationError:
        return
    for fraction in HEADS:
        try:
            pair = bernoulli.conjugates(dist, _head(an, fraction))
        except NoStreamError:
            continue
        st = stream.solve_stream(dist, sigma2=pair.sigma2_plus)
        disp = find_tau0(st)
        if disp.tau0 is not None and disp.assumption_II:
            linearwave.build_wave(st, disp, 0.01 * st.d)


# at the 5% head tau0 d is 0.28-0.74, where the rounding of sigma keeps
# Newton steps on tau^2 a few ulps from settling
SMALL_ROOTS = (
    "poly -2.756 -2.853",
    "poly -1.824 -1.322 0.862 -2.559",
    "poly -2.867 -1.194 -2.809",
    "poly -0.864 -2.539 -2.235",
    "poly -1.985 -2.983",
    "poly -2.794 -2.726",
    "poly -2.769 -1.133 -2.672",
    "table 0.0:-2.937 0.513:-1.739 1.0:2.756",
    "table 0.0:-2.103 0.352:-2.884 0.702:-1.848 0.913:-0.253 1.0:-1.806",
    "table 0.0:-1.862 0.398:0.439 0.799:-1.893 1.0:1.81",
)

# at the 95% head u'(d) is a few 1e-3, so the root lies near tau = (1/u'(d) -
# omega(1)) / u'(d), 6e4-3e5, beyond any grid of d / 2^14; the answer is no
# root on (0, 50]
ROOTS_BEYOND_TAU_MAX = (
    "table 0.0:2.767 0.416:0.734 1.0:0.013",
    "table 0.0:0.836 0.131:2.338 0.354:2.009 0.692:2.561 1.0:0.025",
    "table 0.0:0.652 0.362:-1.199 0.731:1.106 0.928:0.967 1.0:0.043",
    "poly 0.492 0.997 -1.457",
)

# under class "i" the subcritical conjugate at the 95% head lies between
# 1.5e-14 and 1.6e-9 above s0; the last is the one draw of the sample below
# whose conjugate lies there.  The float s_plus carries these three
FLOAT_CARRIES = (
    "table 0.0:0.447 0.458:2.199 0.485:-1.903 0.913:-2.075 1.0:2.451",
    "table 0.0:-0.7 0.336:2.76 0.355:-2.901 0.361:-0.821 1.0:0.291",
    "table 0.0:2.305 0.301:2.746 0.373:-2.094 0.424:-1.943 1.0:-1.608",
)
# and these three lie inside the snap window of s0, where a float slope
# names no stream (solve_stream refused their s_plus): their margins name them
INSIDE_SNAP_WINDOW = (
    "table 0.0:2.041 0.946:1.247 0.948:-1.108 1.0:-1.622",
    "table 0.0:2.039 0.097:1.569 0.135:-2.875 0.906:-1.953 1.0:-2.601",
    "table 0.0:0.625 0.117:0.588 0.254:2.979 0.256:-0.271 1.0:-1.724",
)

SEED, SAMPLE = 7, 60
_rng = random.Random(SEED)
DRAWS = [_draw(_rng) for _ in range(SAMPLE)]


@pytest.mark.parametrize("spec", SMALL_ROOTS)
def test_small_root_is_found(spec):
    st = _stream(spec, 0.05)
    tau0 = find_tau0(st).tau0
    assert tau0 is not None
    assert sigma(st, tau0 * (1.0 - 1e-9)) < 0.0 < sigma(st, tau0 * (1.0 + 1e-9))


@pytest.mark.parametrize("spec", ROOTS_BEYOND_TAU_MAX)
def test_root_beyond_tau_max_is_an_answer(spec):
    st = _stream(spec, 0.95)
    assert find_tau0(st).tau0 is None
    assert sigma(st, 50.0) < 0.0


@pytest.mark.parametrize("spec", list(dict.fromkeys(INSIDE_SNAP_WINDOW + FLOAT_CARRIES + tuple(DRAWS))))
def test_draw_completes_or_is_refused(spec):
    _pipeline(spec)


@pytest.mark.parametrize("spec", INSIDE_SNAP_WINDOW)
def test_conjugate_inside_the_snap_window_meets_the_head(spec):
    # s_plus lies within 1e-13 max(1, s0) of s0, where no float slope names
    # the stream; the stream of the pair's margin has d_plus, bit for bit,
    # and meets the head to the conjugate tolerance
    dist = V.parse(spec)
    cls = dist.classify()
    r = _head(bernoulli.analyze(dist), 0.95)
    pair = bernoulli.conjugates(dist, r)
    assert pair.regime == "subcritical-pair"
    assert pair.s_plus - cls.s0 <= 1e-13 * max(1.0, cls.s0)
    st = stream.solve_stream(dist, sigma2=pair.sigma2_plus)
    assert st.d == pair.d_plus
    assert abs(st.r - r) <= 5e-13 * max(1.0, r)
