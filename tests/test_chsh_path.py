"""Every CHSH quantity an observer can compute agrees with the analytic signed sum.

An observer's ``t0`` ledger is the behavior times a uniform prior over the
``nx * ny`` setting pairs, so its signed expectation times ``nx * ny`` is the
signed sum of the behavior itself.  That ties the number each observer reads
off its own ledger to ``chsh_value``, whatever the grids.
"""

import numpy as np
import pytest

from bellsim import (
    Angle,
    ChshSettings,
    Stage,
    build_schedule,
    chsh_expectation,
    chsh_value,
    init_beliefs,
    ledger_chsh_expectation,
    lhv_behavior,
    optimal_singlet_settings,
    pr_box,
    pr_box_settings,
    singlet_behavior,
)
from conftest import random_lhv

TOL = 1e-12


def t0_ledgers(behavior):
    """Both observers' ledgers at the initial stage."""
    return [s.stage_ledgers()[Stage.INITIAL] for s in init_beliefs(behavior, build_schedule())]


def optimal_singlet():
    s = optimal_singlet_settings()
    return singlet_behavior((s.x0, s.x1), (s.y0, s.y1)), s


def pr_box_case():
    return pr_box(), pr_box_settings()


def lhv_mixture():
    return lhv_behavior(random_lhv(np.random.default_rng(12))), pr_box_settings()


def singlet_4x4():
    grid_a = tuple(Angle.of(k, 4) for k in range(4))
    grid_b = (Angle.of(1, 8), Angle.of(-1, 8), Angle.of(3, 8), Angle.of(5, 8))
    settings = ChshSettings(x0=grid_a[0], x1=grid_a[2], y0=grid_b[0], y1=grid_b[1])
    return singlet_behavior(grid_a, grid_b), settings


@pytest.mark.parametrize("case", [optimal_singlet, pr_box_case, lhv_mixture, singlet_4x4])
def test_each_observer_t0_ledger_gives_the_analytic_signed_sum(case):
    behavior, settings = case()
    pairs = len(behavior.grid_a) * len(behavior.grid_b)
    expected = chsh_value(behavior, settings)
    for ledger in t0_ledgers(behavior):
        assert abs(pairs * ledger_chsh_expectation(ledger, settings) - expected) <= TOL


def test_repeated_settings_count_once_per_term():
    # x0 == x1: the pair (0, pi/8) is chosen twice, and the two (0, pi/3) terms cancel
    behavior = singlet_behavior((Angle.of(0), Angle.of(1, 4)), (Angle.of(1, 8), Angle.of(1, 3)))
    settings = ChshSettings(x0=Angle.of(0), x1=Angle.of(0), y0=Angle.of(1, 8), y1=Angle.of(1, 3))
    expected = chsh_expectation(behavior, settings)
    assert expected == pytest.approx(chsh_value(behavior, settings) / 4.0, abs=TOL)
    for ledger in t0_ledgers(behavior):
        assert abs(ledger_chsh_expectation(ledger, settings) - expected) <= TOL
