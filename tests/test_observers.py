"""Observer belief machine: receptions, inquiries, pooling, retrodiction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import (
    Angle,
    ExperimentConfig,
    Modality,
    QUncertainty,
    RealismViolationError,
    Stage,
    build_schedule,
    condition,
    init_beliefs,
    inquire,
    keep_only,
    ledger_chsh_expectation,
    optimal_singlet_settings,
    pool,
    pr_box,
    receive,
    retrodict,
    run_trial,
    singlet_behavior,
    stage_table,
)
from bellsim.spacetime import Message

TOL = 1e-12

ZERO = Angle.of(0)
HALF = Angle.of(1, 2)
QUARTER = Angle.of(1, 4)


def shared_grid_behavior():
    # both wings use the same two angles, so equal settings can collide
    return singlet_behavior((ZERO, HALF), (ZERO, HALF))


def optimal_behavior():
    s = optimal_singlet_settings()
    return singlet_behavior((s.x0, s.x1), (s.y0, s.y1))


def drive(behavior, theta_a, theta_b, outcome_a, outcome_b, schedule=None, **kwargs):
    schedule = schedule or build_schedule()
    events = schedule.trial_events(theta_a, theta_b, outcome_a, outcome_b)
    state_a, state_b = init_beliefs(behavior, schedule, **kwargs)
    for e in schedule.events_for("A", events):
        state_a = receive(state_a, e)
    for e in schedule.events_for("B", events):
        state_b = receive(state_b, e)
    return state_a, state_b


# -- initialization -------------------------------------------------------------


def test_initial_ledgers_identical_and_match_model():
    b = optimal_behavior()
    sa, sb = init_beliefs(b, build_schedule())
    assert sa.ledger.equals(sb.ledger)
    # oracle: each cell is the behavior value over the 4 equally likely pairs
    p = sa.ledger.prob({"±a": 1, "θa": b.grid_a[0], "±b": -1, "θb": b.grid_b[0]})
    assert p == pytest.approx(b.prob(b.grid_a[0], b.grid_b[0], 1, -1) / 4.0, abs=TOL)
    assert sa.ledger.render() == "P_A(±a,θa,±b,θb‖ψ0,t0)"


def test_initial_ledgers_for_discrete_box_model():
    sa, sb = init_beliefs(pr_box(), build_schedule())
    assert sa.ledger.equals(sb.ledger)


# -- reception ------------------------------------------------------------------


def test_setting_reception_reaches_documented_form():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[1])
    assert sa.stage is Stage.SETTING
    assert sa.ledger.render() == "P_A(±a,±b,θb‖θa,ψ0,tθ)"


def test_detection_reception_reaches_documented_form():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[1])
    sa = receive(sa, events[3])
    assert sa.ledger.render() == "P_A(±b,θb‖±a,θa,ψ0,t±)"
    assert sa.factual == {"θa": b.grid_a[0], "±a": 1}


def test_contradictory_reception_is_realism_violation():
    # equal angles force opposite outcomes; a report of equal ones is impossible
    b = shared_grid_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(ZERO, ZERO, 1, 1)  # forged: both +1
    sa, _ = init_beliefs(b, schedule)
    with pytest.raises(RealismViolationError):
        for e in schedule.events_for("A", events):
            sa = receive(sa, e)


def test_uncertain_setting_keeps_variable_free():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    var = sa.ledger.variable("θa")
    q = QUncertainty(var, (0.5, 0.5))
    sa = receive(sa, events[1], q)
    assert "θa" in sa.ledger.free_names
    assert "θa" in sa.uncertain
    marg = keep_only(sa.ledger, ("θa",))
    assert np.allclose(marg.array, [0.5, 0.5], atol=TOL)
    # the bound-as-expectation inquiry stays available on the full ledger
    value = ledger_chsh_expectation(sa.ledger, optimal_singlet_settings())
    # oracle: mixture over the two-point setting and the uniform far prior
    s = optimal_singlet_settings()
    oracle = 0.0
    for x, wx in ((s.x0, 0.5), (s.x1, 0.5)):
        for y, wy in ((s.y0, 0.5), (s.y1, 0.5)):
            oracle += wx * wy * s.sign_of(x, y) * -math.cos(x.radians - y.radians)
    assert value == pytest.approx(oracle, abs=TOL)


def test_initial_expectation_form_matches_quarter_bound():
    b = optimal_behavior()
    sa, _ = init_beliefs(b, build_schedule())
    value = ledger_chsh_expectation(sa.ledger, optimal_singlet_settings())
    assert value == pytest.approx(-2 * math.sqrt(2) / 4.0, abs=TOL)
    assert abs(value) == pytest.approx(math.sqrt(2) / 2.0, abs=TOL)


def test_stage_cannot_regress():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[3])  # detection first (stages may be skipped)
    with pytest.raises(ValueError):
        receive(sa, events[1])  # then the setting event: too late


# -- inquiries --------------------------------------------------------------------


def test_initial_inquiry_recovers_model_slice():
    b = optimal_behavior()
    sa, _ = init_beliefs(b, build_schedule())
    x, y = b.grid_a[0], b.grid_b[1]
    table = inquire(sa, ("±a", "±b"), (("θa", x), ("θb", y)))
    for a in (1, -1):
        for bb in (1, -1):
            assert table.prob({"±a": a, "±b": bb}) == pytest.approx(b.prob(x, y, a, bb), abs=TOL)
    assert table.render() == "P_A(±a,±b|θa,θb|ψ0,t0)"


def test_post_detection_counterfactual_forecast():
    b = shared_grid_behavior()
    sa, _ = drive(b, ZERO, ZERO, 1, -1)
    # drive() ran to communication; ask the recorded detection-stage ledger
    ledgers = sa.stage_ledgers()
    assert Stage.DETECTION in ledgers
    # equal-angle forecast: if the far wing chooses my angle, it must see -1
    at_detection = replace(sa, ledger=ledgers[Stage.DETECTION], stage=Stage.DETECTION)
    table = inquire(at_detection, ("±b",), (("θb", ZERO),))
    assert table.prob({"±b": -1}) == pytest.approx(1.0, abs=TOL)
    assert table.prob({"±b": 1}) == pytest.approx(0.0, abs=TOL)
    assert table.render() == "P_A(±b|θb|±a,θa,ψ0,t±)"


def test_post_detection_setting_guess_by_inversion():
    # guessing the far setting from a posited far outcome
    b = singlet_behavior((ZERO, HALF), (ZERO, HALF))
    sa, _ = drive(b, ZERO, ZERO, 1, -1)
    ledgers = sa.stage_ledgers()
    at_detection = replace(sa, ledger=ledgers[Stage.DETECTION], stage=Stage.DETECTION)
    table = inquire(at_detection, ("θb",), (("±b", -1),))
    # oracle: p(theta_b | -1, +1 at 0) by direct normalization
    # p(-1 | theta_b=0) = 1, p(-1 | theta_b=pi/2) = 1/2, prior 1/2 each
    expect_zero = (0.5 * 1.0) / (0.5 * 1.0 + 0.5 * 0.5)
    assert table.prob({"θb": ZERO}) == pytest.approx(expect_zero, abs=TOL)
    assert table.prob({"θb": HALF}) == pytest.approx(1 - expect_zero, abs=TOL)
    assert table.render() == "P_A(θb|±b|±a,θa,ψ0,t±)"


def test_counterfactual_inquiry_value_equals_plain_conditioning():
    b = optimal_behavior()
    sa, _ = init_beliefs(b, build_schedule())
    x = b.grid_a[1]
    via_inquire = inquire(sa, ("±a",), (("θa", x),))
    via_condition = keep_only(condition(sa.ledger, ("θa", x), Modality.FACTUAL), ("±a",))
    assert np.array_equal(via_inquire.array, via_condition.array)


def test_counterfactual_on_received_variable_rejected():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[1])
    with pytest.raises(ValueError):
        inquire(sa, ("±a",), (("θa", b.grid_a[1]),))


def test_far_marginal_independent_of_posited_far_setting():
    for behavior in (optimal_behavior(), pr_box()):
        schedule = build_schedule()
        events = schedule.trial_events(behavior.grid_a[0], behavior.grid_b[0], 1, -1)
        sa, _ = init_beliefs(behavior, schedule)
        sa = receive(sa, events[1])
        tables = [
            inquire(sa, ("±a",), (("θb", y),)).array for y in behavior.grid_b
        ]
        for t in tables[1:]:
            assert np.max(np.abs(t - tables[0])) < TOL


# -- stage table -------------------------------------------------------------------


def test_standard_run_equality_pattern():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(ExperimentConfig(seed=5, schedule=schedule), b, 0)
    table = stage_table(trace.observer_a, trace.observer_b)
    assert table.pattern == ("y", "n", "n", "y")
    assert [r.rendered_a for r in table.rows] == [
        "P_A(±a,θa,±b,θb‖ψ0,t0)",
        "P_A(±a,±b,θb‖θa,ψ0,tθ)",
        "P_A(±b,θb‖±a,θa,ψ0,t±)",
        "P_A(±a,θa,±b,θb‖ψ0,tc)",
    ]
    assert [r.rendered_b for r in table.rows] == [
        "P_B(±a,θa,±b,θb‖ψ0,t0)",
        "P_B(±a,θa,±b‖θb,ψ0,tθ)",
        "P_B(±a,θa‖±b,θb,ψ0,t±)",
        "P_B(±a,θa,±b,θb‖ψ0,tc)",
    ]


def test_run_with_peaked_setting_uncertainty():
    grid = tuple(Angle.of(k, 6) for k in range(4))
    b = singlet_behavior(grid, grid)
    schedule = build_schedule()
    trace = run_trial(ExperimentConfig(seed=17, schedule=schedule, q_setting_width=0.8), b, 3)
    sa = trace.observer_a
    assert "θa" in sa.uncertain
    # the bump is centered on the true setting, so the extracted point
    # estimate recovers it
    assert trace.pooled.data["θa"] == trace.record.theta_a
    marg = keep_only(sa.stage_ledgers()[Stage.SETTING], ("θa",))
    assert int(np.argmax(marg.array)) == grid.index(trace.record.theta_a)


def test_preset_run_equality_pattern():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(
        ExperimentConfig(seed=5, schedule=schedule, preset_settings=True), b, 0, (b.grid_a[0], b.grid_b[0])
    )
    table = stage_table(trace.observer_a, trace.observer_b)
    assert table.pattern == ("y", "y", "n", "y")


def test_run_with_no_detections_has_single_equal_row():
    b = optimal_behavior()
    sa, sb = init_beliefs(b, build_schedule())
    table = stage_table(sa, sb)
    assert table.pattern == ("y",)


def test_stage_table_rejects_mismatched_histories():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, sb = init_beliefs(b, schedule)
    sa = receive(sa, events[1])
    with pytest.raises(ValueError):
        stage_table(sa, sb)


# -- pooling -----------------------------------------------------------------------


def test_pool_point_mass_and_data_extraction():
    b = optimal_behavior()
    x, y = b.grid_a[1], b.grid_b[0]
    sa, sb = drive(b, x, y, 1, -1)
    pooled = pool(sa, sb)
    assert pooled.data == {"±a": 1, "θa": x, "±b": -1, "θb": y}
    assert pooled.ledger.prob({"±a": 1, "θa": x, "±b": -1, "θb": y}) == pytest.approx(1.0, abs=TOL)
    assert pooled.observer_a.ledger.equals(pooled.observer_b.ledger)
    assert pooled.ledger.render() == "P_A∪B(±a,θa,±b,θb‖ψ0,tc)"


def test_pool_never_violates_realism_on_model_sampled_runs():
    # settings drawn freely per wing, including the colliding equal-angle
    # pair with its zero-probability cells; honest sampling never trips
    # the contradiction check
    b = shared_grid_behavior()
    schedule = build_schedule()
    for i in range(100):
        t = run_trial(ExperimentConfig(seed=123, schedule=schedule), b, i)
        assert t.pooled.data["±a"] == t.record.outcome_a
        assert t.pooled.data["±b"] == t.record.outcome_b


def test_pool_tolerates_unresolved_setting_on_colliding_grids():
    # the unresolved wing's tie-broken point estimate may disagree with the
    # true setting; that is a guess, not a contradiction
    b = shared_grid_behavior()
    schedule = build_schedule()
    for i in range(40):
        t = run_trial(ExperimentConfig(seed=31, schedule=schedule, unresolved_local_setting=True), b, i)
        assert t.pooled.data["θa"] == b.grid_a[0]  # lowest-index tie break


def test_pool_of_untouched_initial_states_is_unchanged():
    b = optimal_behavior()
    sa, sb = init_beliefs(b, build_schedule())
    pooled = pool(sa, sb)
    assert pooled.ledger.equals(sa.ledger)
    assert pooled.data == {}


def test_pool_detects_contradictory_records():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    var = sb.initial_ledger.variable("±b")
    forged = replace(
        sb,
        factual={**sb.factual, "±b": 1},
        qs={**sb.qs, "±b": QUncertainty.delta(var, 1)},
    )
    with pytest.raises(RealismViolationError):
        pool(sa, forged)


def test_pool_rejects_zero_probability_data():
    # two observers whose records are mutually consistent but impossible
    # under the shared starting table: equal angles with equal outcomes
    b = shared_grid_behavior()
    sa, sb = drive(b, ZERO, ZERO, 1, -1)
    var_b = sb.initial_ledger.variable("±b")
    var_a = sa.initial_ledger.variable("±a")
    forged_a = replace(
        sa,
        factual={**sa.factual, "±b": 1},
        qs={**sa.qs, "±b": QUncertainty.delta(var_b, 1)},
    )
    forged_b = replace(
        sb,
        factual={**sb.factual, "±b": 1},
        qs={**sb.qs, "±b": QUncertainty.delta(var_b, 1)},
    )
    with pytest.raises(RealismViolationError):
        pool(forged_a, forged_b)
    assert var_a.name == "±a"


# -- retrodiction -------------------------------------------------------------------


def test_retrodiction_of_certain_outcome():
    b = shared_grid_behavior()
    sa, sb = drive(b, ZERO, ZERO, 1, -1)
    pooled = pool(sa, sb)
    table = retrodict(pooled.observer_a, "±a", Stage.SETTING)
    assert table.prob({"±a": 1}) == pytest.approx(1.0, abs=TOL)
    assert table.render() == "P_A(±a|tθ|θa,±b,θb,tc)"


def test_retrodiction_at_orthogonal_angles_is_even():
    b = singlet_behavior((ZERO,), (HALF,))
    sa, sb = drive(b, ZERO, HALF, 1, -1)
    pooled = pool(sa, sb)
    table = retrodict(pooled.observer_a, "±a", Stage.SETTING)
    assert table.prob({"±a": 1}) == pytest.approx(0.5, abs=TOL)


def test_retrodiction_with_unresolved_setting_is_a_mixture():
    b = shared_grid_behavior()
    schedule = build_schedule()
    trace = run_trial(
        ExperimentConfig(seed=9, schedule=schedule, unresolved_local_setting=True), b, 0, (ZERO, HALF)
    )
    table = retrodict(trace.observer_a, "±a", Stage.SETTING)
    # oracle: weight each candidate own-setting by its posterior after seeing
    # the far data, then mix the outcome likelihoods
    rec = trace.record
    w = []
    lik = []
    for x in b.grid_a:
        p_far = b.prob(x, rec.theta_b, 1, rec.outcome_b) + b.prob(x, rec.theta_b, -1, rec.outcome_b)
        w.append(0.5 * p_far)
        lik.append(b.prob(x, rec.theta_b, 1, rec.outcome_b) / p_far)
    w = np.array(w) / sum(w)
    expected = float(np.dot(w, lik))
    assert table.prob({"±a": 1}) == pytest.approx(expected, abs=TOL)


def test_retrodiction_requires_recorded_target():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    pooled = pool(sa, sb)
    with pytest.raises(ValueError):
        retrodict(pooled.observer_a, "nonsense", Stage.SETTING)


# -- information locality --------------------------------------------------------------


def test_factual_conditioners_track_received_events_exactly():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[1], 1, 1)
    sa, _ = init_beliefs(b, schedule)
    stage_labels = {s.value for s in Stage} | {"ψ0"}
    for e in schedule.events_for("A", events):
        sa = receive(sa, e)
        factual_names = {
            c.variable.name
            for c in sa.ledger.conditioners
            if c.modality is Modality.FACTUAL and c.variable.name not in stage_labels
        }
        received_names = {name for name, _ in sa.received_propositions()}
        assert factual_names == received_names
        assert factual_names == set(sa.factual)


def test_message_to_wrong_recipient_rejected():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    to_b = [e for e in events if isinstance(e.payload, Message) and e.payload.recipient == "B"]
    with pytest.raises(ValueError):
        receive(sa, to_b[0])
