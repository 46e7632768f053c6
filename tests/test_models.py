"""Correlation sources and locality diagnostics against direct oracles."""

import math

import numpy as np
import pytest

from bellsim import (
    Angle,
    Behavior,
    LhvModel,
    UnsupportedScenarioError,
    behavior_from_csv,
    behavior_to_csv,
    check_factorizable,
    check_no_signaling,
    chsh_expectation,
    chsh_value,
    correlator,
    deterministic_lhv_models,
    lhv_behavior,
    optimal_singlet_settings,
    pr_box,
    pr_box_settings,
    singlet_behavior,
)
from bellsim.models import marginal_after_setting_average
from conftest import random_behavior, random_lhv

TOL = 1e-12


def grid(*fracs):
    return tuple(Angle.of(n, d) for n, d in fracs)


# -- singlet ---------------------------------------------------------------------


def test_singlet_equal_angles_anticorrelated():
    b = singlet_behavior(grid((0, 1)), grid((0, 1)))
    s = b.slice(Angle.of(0), Angle.of(0))
    assert s[0, 0] == 0.0  # p(+,+), exact
    assert s[0, 1] == pytest.approx(0.5, abs=0)


def test_singlet_opposite_angles_correlated():
    b = singlet_behavior(grid((0, 1), (1, 1)))
    s = b.slice(Angle.of(0), Angle.of(1))
    assert s[0, 0] == pytest.approx(0.5, abs=0)
    assert s[0, 1] == pytest.approx(0.0, abs=0)


def test_singlet_orthogonal_angles_uniform():
    b = singlet_behavior(grid((0, 1), (1, 2)))
    s = b.slice(Angle.of(0), Angle.of(1, 2))
    assert np.allclose(s, 0.25, atol=TOL)


def test_singlet_correlator_is_minus_cosine():
    # oracle: sum the four signed cells of the formula directly
    for num, den in ((1, 3), (1, 5), (7, 9)):
        x, y = Angle.of(0), Angle.of(num, den)
        b = singlet_behavior((x,), (y,))
        c = math.cos(-y.radians)
        oracle = 0.0
        for a in (1, -1):
            for bb in (1, -1):
                p = 0.25 + (1.0 if a == -bb else -1.0) * c / 4.0
                oracle += a * bb * p
        assert correlator(b, x, y) == pytest.approx(oracle, abs=TOL)
        assert correlator(b, x, y) == pytest.approx(-c, abs=TOL)


# -- pr box ----------------------------------------------------------------------


def test_pr_box_same_setting_slices():
    b = pr_box()
    s00 = b.slice(0, 0)
    assert s00[0, 0] == 0.5 and s00[1, 1] == 0.5 and s00[0, 1] == 0.0
    s11 = b.slice(1, 1)
    assert s11[0, 1] == 0.5 and s11[1, 0] == 0.5 and s11[0, 0] == 0.0


def test_pr_box_marginals_are_even():
    b = pr_box()
    for x in (0, 1):
        for y in (0, 1):
            s = b.slice(x, y)
            assert s.sum(axis=1) == pytest.approx([0.5, 0.5], abs=0)
            assert s.sum(axis=0) == pytest.approx([0.5, 0.5], abs=0)


def test_pr_box_reaches_four():
    # oracle: correlators by direct table sums
    b = pr_box()
    oracle = 0.0
    for (x, y), sign in zip(pr_box_settings().pairs(), (1, 1, 1, -1)):
        s = b.slice(x, y)
        oracle += sign * (s[0, 0] + s[1, 1] - s[0, 1] - s[1, 0])
    assert oracle == 4.0
    assert chsh_value(b, pr_box_settings()) == 4.0


# -- hidden-variable mixtures -------------------------------------------------------


def test_lhv_single_deterministic_cause():
    m = LhvModel(
        ("l",),
        (1.0,),
        (((1.0, 0.0),), ((1.0, 0.0),)),
        (((1.0, 0.0),), ((1.0, 0.0),)),
    )
    b = lhv_behavior(m)
    for x in (0, 1):
        for y in (0, 1):
            assert b.prob(x, y, 1, 1) == 1.0


def test_lhv_mixture_of_agreeing_strategies():
    # half "both +1", half "both -1": oracle is the two-term sum
    m = LhvModel(
        ("up", "down"),
        (0.5, 0.5),
        (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0))),
        (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0))),
    )
    b = lhv_behavior(m)
    for x in (0, 1):
        for y in (0, 1):
            assert b.prob(x, y, 1, 1) == pytest.approx(0.5, abs=TOL)
            assert b.prob(x, y, -1, -1) == pytest.approx(0.5, abs=TOL)
            assert correlator(b, x, y) == pytest.approx(1.0, abs=TOL)


def test_lhv_always_no_signaling(rng):
    for _ in range(50):
        b = lhv_behavior(random_lhv(rng))
        assert check_no_signaling(b).passed


def test_sixteen_deterministic_strategies():
    models = deterministic_lhv_models()
    assert len(models) == 16
    settings = pr_box_settings()
    values = [chsh_value(lhv_behavior(m), settings) for m in models]
    assert max(abs(v) for v in values) == 2.0


# -- chsh -------------------------------------------------------------------------


def test_singlet_optimal_settings_reach_tsirelson():
    s = optimal_singlet_settings()
    b = singlet_behavior((s.x0, s.x1), (s.y0, s.y1))
    # oracle: evaluate -cos differences directly
    oracle = 0.0
    for (x, y), sign in zip(s.pairs(), s.signs):
        oracle += sign * -math.cos(x.radians - y.radians)
    assert oracle == pytest.approx(-2 * math.sqrt(2), abs=1e-9)
    assert chsh_value(b, s) == pytest.approx(oracle, abs=TOL)
    assert abs(chsh_value(b, s)) == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_deterministic_agreeing_strategy_reaches_two():
    m = LhvModel(
        ("l",),
        (1.0,),
        (((1.0, 0.0),), ((1.0, 0.0),)),
        (((1.0, 0.0),), ((1.0, 0.0),)),
    )
    assert chsh_value(lhv_behavior(m), pr_box_settings()) == 2.0


def test_chsh_expectation_is_quarter_of_value(rng):
    for _ in range(100):
        b = random_behavior(rng)
        s = pr_box_settings()
        assert chsh_expectation(b, s) == pytest.approx(chsh_value(b, s) / 4.0, abs=TOL)


def test_chsh_expectation_concentrated_prior_picks_one_correlator(rng):
    b = random_behavior(rng)
    s = pr_box_settings()
    for k, (x, y) in enumerate(s.pairs()):
        prior = [0.0] * 4
        prior[k] = 1.0
        expected = s.signs[k] * correlator(b, x, y)
        assert chsh_expectation(b, s, prior) == pytest.approx(expected, abs=TOL)


def test_chsh_expectation_lhv_bound(rng):
    for _ in range(200):
        b = lhv_behavior(random_lhv(rng))
        assert abs(chsh_expectation(b, pr_box_settings())) <= 0.5 + 1e-9


def test_correlator_bounded(rng):
    for _ in range(100):
        b = random_behavior(rng)
        for x in b.grid_a:
            for y in b.grid_b:
                assert abs(correlator(b, x, y)) <= 1.0 + TOL


def test_correlator_rejects_unknown_setting():
    b = pr_box()
    with pytest.raises(ValueError):
        correlator(b, 2, 0)


# -- no-signaling -------------------------------------------------------------------


def test_singlet_no_signaling_and_even_marginals():
    s = optimal_singlet_settings()
    b = singlet_behavior((s.x0, s.x1), (s.y0, s.y1))
    report = check_no_signaling(b)
    assert report.passed and report.max_deviation <= TOL
    for x in (s.x0, s.x1):
        for y in (s.y0, s.y1):
            assert b.slice(x, y).sum(axis=1) == pytest.approx([0.5, 0.5], abs=TOL)


def test_pr_box_no_signaling():
    assert check_no_signaling(pr_box()).passed


def signaling_behavior():
    # second wing's outcome is forced by its own setting; the first wing's
    # outcome is forced by the *far* setting -> maximal marginal dependence
    t = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            a_idx = 0 if y == 0 else 1
            t[x, y, a_idx, 0] = 1.0
    return Behavior((0, 1), (0, 1), t)


def test_signaling_behavior_fails_with_full_deviation():
    report = check_no_signaling(signaling_behavior())
    assert not report.passed
    assert report.max_deviation == pytest.approx(1.0, abs=TOL)


def test_marginalization_confusion_identity_both_directions(rng):
    # setting-independent marginal: the y-average equals every slice
    s = optimal_singlet_settings()
    b = singlet_behavior((s.x0, s.x1), (s.y0, s.y1))
    for prior in ([0.5, 0.5], [0.2, 0.8]):
        avg = marginal_after_setting_average(b, s.x0, prior)
        for y in b.grid_b:
            slice_marginal = b.slice(s.x0, y).sum(axis=1)
            assert np.allclose(avg, slice_marginal, atol=TOL)
    # setting-dependent marginal: the average matches no slice in general
    sig = signaling_behavior()
    avg = marginal_after_setting_average(sig, 0, [0.5, 0.5])
    deviations = [
        np.max(np.abs(avg - sig.slice(0, y).sum(axis=1))) for y in sig.grid_b
    ]
    assert min(deviations) > 0.1


# -- local polytope membership --------------------------------------------------------


def test_lhv_behaviors_are_local(rng):
    for _ in range(100):
        report = check_factorizable(lhv_behavior(random_lhv(rng)))
        assert report.is_local
        assert report.max_facet <= 2.0 + 1e-9


def test_singlet_optimal_is_nonlocal():
    s = optimal_singlet_settings()
    b = singlet_behavior((s.x0, s.x1), (s.y0, s.y1))
    report = check_factorizable(b)
    assert not report.is_local
    assert report.max_facet == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_pr_box_is_maximally_nonlocal():
    report = check_factorizable(pr_box())
    assert not report.is_local
    assert report.max_facet == pytest.approx(4.0, abs=0)


def test_factorizable_rejects_larger_grids():
    b = singlet_behavior(grid((0, 1), (1, 4), (1, 2)))
    with pytest.raises(UnsupportedScenarioError):
        check_factorizable(b)


# -- serialization ---------------------------------------------------------------------


def test_behavior_csv_round_trip():
    s = optimal_singlet_settings()
    b = singlet_behavior((s.x0, s.x1), (s.y0, s.y1))
    text = behavior_to_csv(b)
    back = behavior_from_csv(text)
    assert back.grid_a == b.grid_a and back.grid_b == b.grid_b
    assert np.allclose(back.table, b.table, atol=0)


def test_behavior_csv_round_trip_integer_settings():
    text = behavior_to_csv(pr_box())
    back = behavior_from_csv(text)
    assert back.grid_a == (0, 1)
    assert np.array_equal(back.table, pr_box().table)


def test_behavior_slices_always_normalized(rng):
    for b in (pr_box(), singlet_behavior(grid((0, 1), (1, 3))), random_behavior(rng, 3, 2)):
        assert np.max(np.abs(b.table.sum(axis=(2, 3)) - 1.0)) <= TOL


def test_behavior_rejects_unnormalized():
    t = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(ValueError):
        Behavior((0,), (0,), t)


def test_chsh_settings_have_single_negative_sign():
    s = pr_box_settings()
    assert s.signs.count(-1.0) == 1
    signs = dict(zip(s.pairs(), s.signs))
    assert signs[1, 1] == -1.0
    assert signs[0, 0] == 1.0
    assert (2, 2) not in signs
