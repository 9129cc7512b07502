import re

import numpy as np
import pytest
from hypothesis import given, settings

from vorwaves import bernoulli, linearwave
from vorwaves.bounds import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    _sandwich,
    check_bounds,
)
from vorwaves.errors import AmbiguousClassificationError, ConfigError, DomainError
from vorwaves.vorticity import VorticityDistribution as V

from strategies import dist_specs


def test_small_wave_passes_both_assertions(stream_plus, disp_plus, w_zero,
                                            conj11):
    wf = linearwave.build_wave(stream_plus, disp_plus, 0.01)
    rep = check_bounds(w_zero, 1.1, wf.eta)
    assert rep.assertion1.status == HOLDS
    assert rep.assertion2.status == HOLDS
    assert rep.nonexistence_iii.status == NOT_APPLICABLE
    assert rep.prop3.status == NOT_APPLICABLE
    assert not rep.stream_like
    assert rep.d_plus == conj11.d_plus
    assert rep.d_minus == conj11.d_minus


def test_flat_profile_at_supercritical_depth(w_zero, conj11):
    eta = np.full(64, conj11.d_minus)
    rep = check_bounds(w_zero, 1.1, eta)
    assert rep.stream_like
    # equality fails the strict bound; the record shows the tie
    assert rep.assertion1.status == VIOLATED
    assert rep.assertion1.lhs == rep.assertion1.rhs == conj11.d_minus
    assert rep.assertion2.status == NOT_APPLICABLE
    assert "stream-like" in rep.assertion2.note


def test_subcritical_head_reported_not_raised(w_zero):
    rep = check_bounds(w_zero, 0.5, np.full(16, 0.9))
    assert rep.assertion1.status == VIOLATED
    assert rep.assertion1.lhs == 0.5
    assert rep.assertion1.rhs == pytest.approx(1.0, abs=1e-8)
    assert rep.d_minus is None and rep.d_plus is None
    assert rep.assertion2.status == NOT_APPLICABLE


def test_nonexistence_verdict_under_condition_iii(w_two):
    # r=1 >= r0=2/3: streams are the only admissible solutions
    wiggly = 0.9 + 0.05 * np.sin(np.linspace(0.0, 6.0, 64))
    rep = check_bounds(w_two, 1.0, wiggly)
    assert rep.condition == "iii"
    assert rep.nonexistence_iii.status == VIOLATED

    flat = check_bounds(w_two, 1.0, np.full(64, 0.9))
    assert flat.nonexistence_iii.status == HOLDS
    assert flat.stream_like


def test_nonexistence_not_applicable_below_r0(w_two):
    rep = check_bounds(w_two, 0.62, np.full(16, 0.8))
    assert rep.nonexistence_iii.status == NOT_APPLICABLE
    assert "r >= r0" in rep.nonexistence_iii.note


def test_prop3_sandwich(w_minus_two, w_zero):
    # condition "ii", d0=1, r0=2; r=2.5 sits strictly above r0
    osc = 1.0 + 0.1 * np.cos(np.linspace(0.0, 9.0, 128))
    rep = check_bounds(w_minus_two, 2.5, osc)
    assert rep.condition == "ii"
    assert rep.prop3.status == HOLDS
    assert rep.prop3.note == "crest >= d0 and d0 > trough"

    flat = check_bounds(w_minus_two, 2.5, np.full(32, 1.2))
    assert flat.prop3.status == VIOLATED
    assert flat.prop3.note == ("trough bound d0 > eta_check fails; crest >= d0 "
                               "and d0 > trough; samples are stream-like")
    assert check_bounds(w_zero, 1.1, osc).prop3.status == NOT_APPLICABLE


def test_conjecture_note_only_in_regime(w_minus_two):
    eta = 1.0 + 0.1 * np.cos(np.linspace(0.0, 9.0, 64))
    high = check_bounds(w_minus_two, 2.5, eta)
    assert any("conjectured" in n for n in high.notes)
    low = check_bounds(w_minus_two, 1.9, eta)
    assert not any("conjectured" in n for n in low.notes)


def test_max_interior_flag(w_zero):
    bump = 1.0 + 0.05 * np.sin(np.linspace(0.0, np.pi, 33))
    assert check_bounds(w_zero, 1.1, bump).max_interior
    ramp = np.linspace(1.0, 1.1, 33)
    assert not check_bounds(w_zero, 1.1, ramp).max_interior


def test_verdict_serialization(w_zero):
    rep = check_bounds(w_zero, 1.1, np.full(8, 1.05))
    block = rep.verdict_block()
    assert set(block) == {"assertion1", "assertion2", "nonexistence_iii",
                          "prop3"}
    for rec in block.values():
        assert set(rec) == {"status", "lhs", "rhs", "margin"}


def test_sample_validation(w_zero):
    with pytest.raises(ConfigError):
        check_bounds(w_zero, 1.1, [])
    with pytest.raises(ConfigError):
        check_bounds(w_zero, 1.1, [1.0, np.nan])
    with pytest.raises(DomainError):
        check_bounds(w_zero, 1.1, [1.0, -0.2])
    with pytest.raises(DomainError):
        check_bounds(w_zero, -1.0, [1.0])


@pytest.mark.parametrize("r", [np.inf, 1e308, np.nan])
def test_head_whose_triple_overflows_is_refused_before_the_analysis(w_zero, r, monkeypatch):
    # 3 r is about s-^2: no stream has such a head, and every verdict's
    # margin is then taken between finite values
    monkeypatch.setattr(bernoulli, "analyze", None)
    with pytest.raises(DomainError, match=re.escape(f"3 r finite; got r={r!r}")):
        check_bounds(w_zero, r, [1.0])


def test_sandwich_side_is_not_picked_by_rounding():
    # surfaces symmetric about the depth: the two sides are equally tight,
    # so the crest side is reported, also with the depth moved by a few ulps
    rng = np.random.default_rng(68)
    for _ in range(2000):
        d = rng.uniform(0.5, 3.0)
        eta = d + rng.uniform(0.01, 0.5) * d * np.cos(np.linspace(0.0, 2.0 * np.pi, 129))
        hat, check = float(eta.max()), float(eta.min())
        for k in (-6, 0, 6):
            depth = d + k * np.spacing(d)
            rec = _sandwich(hat, check, depth, "d0")
            assert rec.status == HOLDS and (rec.lhs, rec.rhs) == (hat, depth)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=dist_specs)
def test_result_ii_and_the_verdicts_on_random_distributions(spec):
    # under "ii"/"iii" a head strictly between r_c and r0 has both conjugate
    # streams, on either side of the critical one, and no head from r0 on
    # has a subcritical stream (result (ii)); a flat surface at d_plus meets
    # assertion 1 and is outside assertion 2, and under "iii" only a flat
    # surface is consistent with a head at or above r0
    dist = V.parse(spec)
    try:
        condition = dist.classify().condition
    except AmbiguousClassificationError:
        return
    if condition == "i":
        return
    an = bernoulli.analyze(dist)
    for frac in (0.05, 0.5, 0.95):
        r = an.r_c + frac * (an.r0 - an.r_c)
        pair = bernoulli.conjugates(dist, r)
        assert pair.regime == "subcritical-pair"
        assert pair.s_plus < an.s_c < pair.s_minus
        assert pair.d_minus < an.d_c < pair.d_plus
        rep = check_bounds(dist, r, np.full(16, pair.d_plus))
        assert (rep.assertion1.status, rep.assertion2.status) == (HOLDS, NOT_APPLICABLE)
    for r in (an.r0 * (1.0 + 1e-6), 1.5 * an.r0):
        pair = bernoulli.conjugates(dist, r)
        assert pair.regime == "only-supercritical" and pair.s_plus is None
        flat = check_bounds(dist, r, np.full(16, pair.d_minus))
        levels = check_bounds(dist, r, np.repeat([pair.d_minus, 1.1 * pair.d_minus], 8))
        verdicts = (flat.nonexistence_iii.status, levels.nonexistence_iii.status)
        if condition == "iii":
            assert verdicts == (HOLDS, VIOLATED)
        else:
            assert verdicts == (NOT_APPLICABLE, NOT_APPLICABLE)
