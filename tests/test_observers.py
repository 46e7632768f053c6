"""Observer belief machine: receptions, inquiries, pooling, retrodiction."""

import json
import math

import numpy as np
import pytest

from bellsim import (
    Angle,
    ExperimentConfig,
    Modality,
    ObserverState,
    QUncertainty,
    RealismViolationError,
    Stage,
    TaggedJoint,
    build_model,
    build_schedule,
    condition,
    correlator,
    init_beliefs,
    inquire,
    keep_only,
    ledger_chsh_expectation,
    optimal_singlet_settings,
    parse_config,
    pool,
    pr_box,
    pr_box_settings,
    receive,
    reception_time,
    retrodict,
    singlet_behavior,
    stage_table,
    trace_trials,
)
from bellsim.probability import Variable
from bellsim.spacetime import Detection, Message, SpacetimeEvent
from conftest import trial

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
    assert "θa" in sa.ledger.free_names and not sa.qs["θa"].is_delta
    assert "θa" not in sa.factual
    marg = keep_only(sa.ledger, ("θa",))
    assert np.allclose(marg.array, [0.5, 0.5], atol=TOL)
    # the bound-as-expectation inquiry stays available on the full ledger
    value = ledger_chsh_expectation(sa.ledger, optimal_singlet_settings())
    # oracle: mixture over the two-point setting and the uniform far prior
    s = optimal_singlet_settings()
    oracle = 0.0
    for (x, y), sign in zip(s.pairs(), s.signs):
        oracle += 0.5 * 0.5 * sign * -math.cos(x.radians - y.radians)
    assert value == pytest.approx(oracle, abs=TOL)


@pytest.mark.parametrize("behavior, settings", [
    (optimal_behavior(), optimal_singlet_settings()),
    (pr_box(), pr_box_settings()),
], ids=["singlet", "pr-box"])
def test_expectation_on_pinned_settings_is_their_correlator(behavior, settings):
    # both settings posited, so the ledger holds them only as conditioners
    sa, _ = init_beliefs(behavior, build_schedule())
    ledger = inquire(sa, ["±a", "±b"], [("θa", settings.x0), ("θb", settings.y0)])
    assert ledger.free_names == ("±a", "±b")
    value = ledger_chsh_expectation(ledger, settings)
    assert value == pytest.approx(correlator(behavior, settings.x0, settings.y0), abs=TOL)


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


@pytest.mark.parametrize("preset", [False, True], ids=["free", "preset"])
def test_receiving_the_preparation_changes_no_belief(preset):
    # the shared state is pinned in every ledger from the start, so its arrival adds nothing
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule, preset=(b.grid_a[0], b.grid_b[0]) if preset else None)
    after = receive(sa, events[0])
    assert after.ledger.equals(sa.ledger) and after.ledger.render() == sa.ledger.render()
    assert after.stage is sa.stage is Stage.INITIAL
    assert after.qs == sa.qs and after.factual == sa.factual
    assert after.clock == reception_time(events[0], sa.worldline)


def test_reception_out_of_causal_order_is_rejected():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[1])  # own setting at t=0.1
    early = SpacetimeEvent(schedule.t_setting / 2, schedule.worldline_a.x, Detection("A", 1), index=3)
    with pytest.raises(ValueError, match="causal order"):
        receive(sa, early)


def test_uncertainty_over_another_variable_is_rejected():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    with pytest.raises(ValueError, match="uncertainty is over"):
        receive(sa, events[1], QUncertainty.uniform(sa.ledger.variable("θb")))


def test_exact_uncertainty_on_another_value_is_rejected():
    # the record would say ±a = -1 while the ledger is pinned at the event's ±a = 1
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    sa = receive(sa, events[1])
    with pytest.raises(ValueError, match="exact uncertainty is on ±a=-1, event carries ±a=1"):
        receive(sa, events[3], QUncertainty.delta(sa.ledger.variable("±a"), -1))


def test_a_state_stores_each_received_value_once():
    # the observer is its worldline's, and the factual values are the exact uncertainties
    assert ObserverState._fields == ("worldline", "ledger", "stage", "clock", "qs", "initial_ledger", "history")
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[1], 1, -1)
    assert (sa.observer, sb.observer) == ("A", "B")
    assert sa.factual == {"θa": b.grid_a[0], "±a": 1, "θb": b.grid_b[1], "±b": -1}
    spread = QUncertainty.uniform(sa.initial_ledger.variable("θb"))
    assert list(sa._replace(qs={**sa.qs, "θb": spread}).factual) == ["θa", "±a", "±b"]


def test_report_contradicting_a_preset_setting_is_realism_violation():
    b = optimal_behavior()
    schedule = build_schedule()
    # both wings agreed on θb = y0, but B's report says y1
    events = schedule.trial_events(b.grid_a[0], b.grid_b[1], 1, -1)
    sa, _ = init_beliefs(b, schedule, preset=(b.grid_a[0], b.grid_b[0]))
    sa = receive(receive(sa, events[1]), events[3])
    with pytest.raises(RealismViolationError, match="already-established"):
        receive(sa, events[7])


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
    at_detection = sa._replace(ledger=ledgers[Stage.DETECTION], stage=Stage.DETECTION)
    table = inquire(at_detection, ("±b",), (("θb", ZERO),))
    assert table.prob({"±b": -1}) == pytest.approx(1.0, abs=TOL)
    assert table.prob({"±b": 1}) == pytest.approx(0.0, abs=TOL)
    assert table.render() == "P_A(±b|θb|±a,θa,ψ0,t±)"


def test_post_detection_setting_guess_by_inversion():
    # guessing the far setting from a posited far outcome
    b = singlet_behavior((ZERO, HALF), (ZERO, HALF))
    sa, _ = drive(b, ZERO, ZERO, 1, -1)
    ledgers = sa.stage_ledgers()
    at_detection = sa._replace(ledger=ledgers[Stage.DETECTION], stage=Stage.DETECTION)
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
    (trace,) = trace_trials(ExperimentConfig(seed=5, schedule=schedule), b)
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
    # trial 9, one per pair block, has the inner settings (grid[2], grid[1])
    trace = trial(ExperimentConfig(trials_per_pair=1, seed=17, schedule=schedule, q_setting_width=0.8), b, 9)
    sa = trace.observer_a
    assert "θa" in sa.ledger.free_names and not sa.qs["θa"].is_delta
    # the bump is centered on the true setting, so the extracted point
    # estimate recovers it
    assert trace.pooled.data["θa"] == trace.theta_a
    marg = keep_only(sa.stage_ledgers()[Stage.SETTING], ("θa",))
    assert int(np.argmax(marg.array)) == grid.index(trace.theta_a)


@pytest.mark.parametrize("width, weights", [
    # the square of the width underflows to 0, or overflows; a width of 0 or
    # below is clamped to the narrow end and gives the delta
    (2.3e-247, (0.0, 1.0, 0.0)),
    (1e155, (1 / 3, 1 / 3, 1 / 3)),
    (0.0, (0.0, 1.0, 0.0)),
    (-1.0, (0.0, 1.0, 0.0)),
], ids=["narrow", "wide", "zero", "negative"])
def test_peaked_uncertainty_at_widths_whose_square_leaves_the_float_range(width, weights):
    variable = Variable("θa", (0, 1, 2))
    assert QUncertainty.peaked(variable, 1, width).weights == weights


def test_preset_run_equality_pattern():
    b = optimal_behavior()
    schedule = build_schedule()
    (trace,) = trace_trials(ExperimentConfig(seed=5, schedule=schedule, preset_settings=True), b)
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
    # every setting pair in turn, including the colliding equal-angle pair
    # with its zero-probability cells; honest sampling never trips the
    # contradiction check
    b = shared_grid_behavior()
    schedule = build_schedule()
    for t in trace_trials(ExperimentConfig(trials_per_pair=1, seed=123, schedule=schedule, traced_trials=100), b):
        assert t.pooled.data["±a"] == t.outcome_a
        assert t.pooled.data["±b"] == t.outcome_b


def test_pool_tolerates_unresolved_setting_on_colliding_grids():
    # the unresolved wing's tie-broken point estimate may disagree with the
    # true setting; that is a guess, not a contradiction
    b = shared_grid_behavior()
    schedule = build_schedule()
    cfg = ExperimentConfig(
        trials_per_pair=1, seed=31, schedule=schedule, unresolved_local_setting=True, traced_trials=40
    )
    for t in trace_trials(cfg, b):
        assert t.pooled.data["θa"] == b.grid_a[0]  # lowest-index tie break


def test_pool_before_communication_is_refused():
    b = optimal_behavior()
    sa, sb = init_beliefs(b, build_schedule())
    with pytest.raises(ValueError, match="has not reached tc"):
        pool(sa, sb)


def test_pool_detects_contradictory_records():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    var = sb.initial_ledger.variable("±b")
    forged = sb._replace(qs={**sb.qs, "±b": QUncertainty.delta(var, 1)})
    with pytest.raises(RealismViolationError, match="pooled records contradict: ±b=-1 for A but ±b=1 for B"):
        pool(sa, forged)


def test_pool_detects_differing_uncertainties():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    spread = QUncertainty.uniform(sb.initial_ledger.variable("±a"))
    with pytest.raises(RealismViolationError, match="differs between observers"):
        pool(sa, sb._replace(qs={**sb.qs, "±a": spread}))


def test_pool_compares_distinct_records_and_trusts_one_shared_record():
    # a run hands both observers the same q objects; equal but distinct ones must
    # pool to the same ledger and data, and differing distinct ones still raise
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[1], 1, -1)
    ledger = init_beliefs(b, schedule)[0].initial_ledger
    shared = {}
    for e in events[1:]:  # past the preparation, which no observer receives
        name, value = e.payload.proposition
        shared[name, value] = QUncertainty.peaked(ledger.variable(name), value, 0.5)

    def run(qs):
        ends = []
        for state in init_beliefs(b, schedule):
            for e in schedule.events_for(state.observer, events):
                state = receive(state, e, qs(*e.payload.proposition))
            ends.append(state)
        return ends

    sa, sb = run(lambda name, value: shared[name, value])
    assert all(sa.qs[n] is sb.qs[n] for n in sa.qs)
    ca, cb = run(lambda name, value: QUncertainty(*shared[name, value]))
    assert all(ca.qs[n] is not cb.qs[n] and ca.qs[n] == cb.qs[n] for n in ca.qs)
    got, want = pool(ca, cb), pool(sa, sb)
    assert got.data == want.data
    assert got.ledger.render() == want.ledger.render()
    assert np.array_equal(got.ledger.array, want.ledger.array)
    wider = QUncertainty.peaked(ledger.variable("±a"), 1, 0.7)
    with pytest.raises(RealismViolationError, match="pooled uncertainty for ±a differs between observers"):
        pool(ca, cb._replace(qs={**cb.qs, "±a": wider}))


def test_pool_without_records_is_refused():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    with pytest.raises(ValueError, match="cannot pool"):
        pool(sa._replace(qs={}), sb._replace(qs={}))


def test_pool_rejects_zero_probability_data():
    # two observers whose records are mutually consistent but impossible
    # under the shared starting table: equal angles with equal outcomes
    b = shared_grid_behavior()
    sa, sb = drive(b, ZERO, ZERO, 1, -1)
    var_b = sb.initial_ledger.variable("±b")
    var_a = sa.initial_ledger.variable("±a")
    forged_a = sa._replace(qs={**sa.qs, "±b": QUncertainty.delta(var_b, 1)})
    forged_b = sb._replace(qs={**sb.qs, "±b": QUncertainty.delta(var_b, 1)})
    with pytest.raises(RealismViolationError, match="outside the shared starting table's support"):
        pool(forged_a, forged_b)
    assert var_a.name == "±a"


def test_pooled_ledger_is_kept_on_the_live_support():
    # A's outcome is +1 at both settings of this deterministic LHV table, so a
    # spread q over ±a weighs an outcome of probability zero; the pooled ledger,
    # like A's own from t± on, puts all of ±a on +1
    config = parse_config(json.dumps({
        "model": "lhv", "grid_a": [0, 1], "grid_b": [0, 1], "chsh": {"x0": 0, "x1": 1, "y0": 0, "y1": 1},
        "lhv": {"prior": [1.0], "response_a": [[[1, 0]], [[1, 0]]], "response_b": [[[1, 0]], [[0, 1]]]},
        "q_outcome_width": 0.5, "traced_trials": 4, "trials_per_pair": 10,
    }))
    for t in trace_trials(config, build_model(config)):
        assert not t.observer_a.qs["±a"].is_delta
        assert np.max(np.abs(keep_only(t.pooled.ledger, ("±a",)).array - [1.0, 0.0])) <= TOL
        assert t.pooled.data["±a"] == 1


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
    # trial 1, one per pair block, is at (ZERO, HALF)
    trace = trial(ExperimentConfig(trials_per_pair=1, seed=9, schedule=schedule, unresolved_local_setting=True), b, 1)
    assert (trace.theta_a, trace.theta_b) == (ZERO, HALF)
    table = retrodict(trace.observer_a, "±a", Stage.SETTING)
    # oracle: weight each candidate own-setting by its posterior after seeing
    # the far data, then mix the outcome likelihoods
    w = []
    lik = []
    for x in b.grid_a:
        p_far = b.prob(x, trace.theta_b, 1, trace.outcome_b) + b.prob(x, trace.theta_b, -1, trace.outcome_b)
        w.append(0.5 * p_far)
        lik.append(b.prob(x, trace.theta_b, 1, trace.outcome_b) / p_far)
    w = np.array(w) / sum(w)
    expected = float(np.dot(w, lik))
    assert table.prob({"±a": 1}) == pytest.approx(expected, abs=TOL)


def test_retrodiction_requires_recorded_target():
    b = optimal_behavior()
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1)
    pooled = pool(sa, sb)
    with pytest.raises(ValueError):
        retrodict(pooled.observer_a, "nonsense", Stage.SETTING)


def test_retrodiction_to_tc_says_tc_is_the_current_stage():
    b = optimal_behavior()
    pooled = pool(*drive(b, b.grid_a[0], b.grid_b[0], 1, -1))
    with pytest.raises(ValueError, match="^tc is the current stage, not a past one$"):
        retrodict(pooled.observer_a, "±a", Stage.COMMUNICATION)


def test_retrodiction_rejects_a_state_before_tc_a_skipped_stage_and_a_target_already_factual():
    b = optimal_behavior()
    schedule = build_schedule()
    start, _ = init_beliefs(b, schedule)
    with pytest.raises(ValueError, match="post-communication"):
        retrodict(start, "±a", Stage.INITIAL)
    # a report received straight from t0 leaves no ledger at tθ or t±
    report = SpacetimeEvent(schedule.t_communication, schedule.worldline_a.x, Message("B", "A", Detection("B", -1)),
                            1.0, index=0)
    skipped = receive(start, report)
    assert skipped.stage is Stage.COMMUNICATION
    with pytest.raises(ValueError, match="no ledger recorded at stage tθ"):
        retrodict(skipped, "±b", Stage.SETTING)
    sa, sb = drive(b, b.grid_a[0], b.grid_b[0], 1, -1, schedule)
    with pytest.raises(ValueError, match="'θa' was already factual at tθ"):
        retrodict(pool(sa, sb).observer_a, "θa", Stage.SETTING)


def test_ledger_chsh_expectation_rejects_a_ledger_with_another_free_variable():
    ledger = TaggedJoint((Variable("λ", (0, 1)),), [0.5, 0.5])
    with pytest.raises(ValueError, match="unexpected free variables"):
        ledger_chsh_expectation(ledger, optimal_singlet_settings())


# -- information locality --------------------------------------------------------------


def test_factual_conditioners_track_received_events_exactly():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[1], 1, 1)
    sa, _ = init_beliefs(b, schedule)
    stage_labels = {s.value for s in Stage} | {"ψ0"}
    delivered = {}
    for e in schedule.events_for("A", events):
        sa = receive(sa, e)
        delivered.update([e.payload.proposition])
        factual_names = {
            c.variable.name
            for c in sa.ledger.conditioners
            if c.modality is Modality.FACTUAL and c.variable.name not in stage_labels
        }
        assert factual_names == set(delivered)
        assert list(sa.factual.items()) == list(delivered.items())


def test_message_to_wrong_recipient_rejected():
    b = optimal_behavior()
    schedule = build_schedule()
    events = schedule.trial_events(b.grid_a[0], b.grid_b[0], 1, -1)
    sa, _ = init_beliefs(b, schedule)
    to_b = [e for e in events if isinstance(e.payload, Message) and e.payload.recipient == "B"]
    with pytest.raises(ValueError):
        receive(sa, to_b[0])
