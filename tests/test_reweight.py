"""A spread reception is one rescale along the received variable's axis.

``probability.reweight(d, v, q)`` must equal the paper-level composition
``product(condition_table(d, v), q')`` put back in ``d``'s axis order, where
``q'`` is ``q`` kept on the values of v that ``d`` leaves alive and
renormalised, and the observers must reach it, and only it, when they receive
a value with a spread uncertainty.
"""

import itertools
import json
import sys

import numpy as np
import pytest

from bellsim import (
    Conditioner,
    Modality,
    QUncertainty,
    RealismViolationError,
    TaggedJoint,
    Variable,
    build_model,
    build_schedule,
    condition_table,
    init_beliefs,
    parse_config,
    product,
    receive,
    reweight,
)
from bellsim.errors import ImpossibleEvidenceError
from bellsim.harness import trace_trials
from bellsim.models import Behavior
from bellsim.probability import TOL

CANONICAL = ("±a", "θa", "±b", "θb")


def behavior_with_zero_cells(rng, nx=3, ny=2):
    """A random behavior whose slices each have one or two exact zero cells."""
    w = rng.random((nx, ny, 4))
    for x, y in itertools.product(range(nx), range(ny)):
        w[x, y, rng.choice(4, size=int(rng.integers(1, 3)), replace=False)] = 0.0
    w /= w.sum(axis=2, keepdims=True)
    return Behavior(tuple(range(nx)), tuple(range(ny)), w.reshape(nx, ny, 2, 2))


#: The data variables of a 3x4 grid, in canonical order, and the factual context of a ledger.
FREE = (Variable("±a", (1, -1)), Variable("θa", (0, 1, 2)),
        Variable("±b", (1, -1)), Variable("θb", (0, 1, 2, 3)))
CONTEXT = (Conditioner(Variable.singleton("ψ0"), "ψ0", Modality.FACTUAL),
           Conditioner(Variable.singleton("tθ"), "tθ", Modality.FACTUAL))


def ledger_with_zero_values(rng, label, dead=None):
    """A random ledger over ``FREE`` with zero cells and a dead value on axis ``dead`` (random if None)."""
    shape = tuple(len(v.domain) for v in FREE)
    w = rng.random(shape) * (rng.random(shape) > 0.4)
    axis = int(rng.integers(4)) if dead is None else dead
    np.moveaxis(w, axis, 0)[int(rng.integers(shape[axis]))] = 0.0
    return TaggedJoint(FREE, w / w.sum(), CONTEXT, label)


def live_weights(rng, marginal):
    """Random weights over the values the marginal leaves alive, some of them exactly zero."""
    q = rng.random(marginal.shape) * (marginal > TOL)
    q[rng.random(marginal.shape) < 0.3] = 0.0
    if q.sum() == 0.0:
        q[np.flatnonzero(marginal > TOL)[0]] = 1.0
    return q / q.sum()


def composed(d, name, q):
    """The reference: ``p(rest | v) · q'(v)`` from the public kernel, in ``d``'s axis order.

    ``q'`` is ``q`` kept on the values of v that ``d`` leaves alive and
    renormalised; ``q`` with no mass there goes to ``product`` as it is, which
    rejects it.
    """
    var = d.variable(name)
    kept = q * (marginal(d, name) > TOL)
    if kept.sum() > TOL:
        q = kept / kept.sum()
    return product(condition_table(d, name), TaggedJoint((var,), q, (), d.label)).reorder(d.free_names)


def marginal(d, name):
    axis = d.free_names.index(name)
    return d.array.sum(axis=tuple(i for i in range(d.array.ndim) if i != axis))


@pytest.mark.parametrize("label", ["A", "B"])
@pytest.mark.parametrize("name", CANONICAL)
def test_reweight_equals_the_composed_kernel_ops(rng, label, name):
    for _ in range(25):
        d = ledger_with_zero_values(rng, label)
        q = live_weights(rng, marginal(d, name))
        got, want = reweight(d, name, q), composed(d, name, q)
        assert got.free_names == d.free_names == want.free_names
        assert got.conditioners == d.conditioners and got.label == d.label
        assert np.max(np.abs(got.array - want.array)) <= 1e-12
        assert not got.array.flags.writeable


@pytest.mark.parametrize("name", CANONICAL)
def test_reweight_rejects_weight_on_a_dead_value(rng, name):
    # Jeffrey's rule on the live support: the weight on a dead value is dropped and
    # the rest renormalised; weights on dead values only are impossible evidence
    for _ in range(10):
        d = ledger_with_zero_values(rng, "A", dead=CANONICAL.index(name))
        m = marginal(d, name)
        live = m > TOL
        q = live_weights(rng, m)
        q[np.argmin(m)] += 0.5
        q /= q.sum()
        got = reweight(d, name, q)
        assert np.max(np.abs(got.array - composed(d, name, q).array)) <= 1e-12
        assert np.max(np.abs(marginal(got, name) - q * live / q[live].sum())) <= 1e-12
        dead_only = ~live / np.count_nonzero(~live)
        with pytest.raises(ImpossibleEvidenceError):
            reweight(d, name, dead_only)
        with pytest.raises(ImpossibleEvidenceError):
            composed(d, name, dead_only)


def test_spread_receptions_of_both_observers_match_the_composed_kernel_ops(rng):
    """Every data variable, received by either observer at any stage, with zero cells in the table."""
    schedule = build_schedule()
    seen = set()
    for _ in range(20):
        behavior = behavior_with_zero_cells(rng)
        x, y = int(rng.integers(3)), int(rng.integers(2))
        cell = int(rng.choice(np.flatnonzero(behavior.table[x, y].reshape(-1) > TOL)))
        a, b = ((1, 1), (1, -1), (-1, 1), (-1, -1))[cell]
        events = schedule.trial_events(x, y, a, b)
        for state in init_beliefs(behavior, schedule):
            for event in schedule.events_for(state.observer, events):
                name, value = event.payload.proposition
                before = state.ledger
                var = before.variable(name)
                q = QUncertainty(var, tuple(live_weights(rng, marginal(before, name))))
                if q.is_delta:
                    # an exact q must be on the event's value; on any other it is rejected
                    q = QUncertainty.delta(var, value)
                state = receive(state, event, q)
                if not q.is_delta:
                    want = composed(before, name, q.array)
                    assert state.ledger.free_names == before.free_names
                    assert np.max(np.abs(state.ledger.array - want.array)) <= 1e-12
                    seen.add((state.observer, name))
    assert seen == {(o, n) for o in "AB" for n in CANONICAL}


def test_spread_reception_on_a_dead_value_is_a_realism_violation():
    # A's outcome is +1 at both of its settings; B's is +1 at θb = 0 and -1 at θb = 1, 2
    table = np.zeros((2, 3, 2, 2))
    table[:, 0, 0, 0] = table[:, 1:, 0, 1] = 1.0
    behavior = Behavior((0, 1), (0, 1, 2), table)
    schedule = build_schedule()
    arrivals = {e.payload.proposition[0]: e for e in schedule.events_for("A", schedule.trial_events(0, 0, 1, 1))}
    state, _ = init_beliefs(behavior, schedule)
    state = receive(state, arrivals["θa"])
    # a spread q that weighs the dead -1 is kept on +1, and ±a stays free but measured
    q = QUncertainty(state.ledger.variable("±a"), (0.6, 0.4))
    state = receive(state, arrivals["±a"], q)
    assert state.qs["±a"] is q and "±a" in state.ledger.free_names
    assert np.max(np.abs(marginal(state.ledger, "±a") - [1.0, 0.0])) <= 1e-12
    # B's report of +1 leaves θb = 0 the one live value of θb (both reports arrive together)
    state = receive(state, arrivals["±b"])
    var = state.ledger.variable("θb")
    got = receive(state, arrivals["θb"], QUncertainty(var, (0.5, 0.25, 0.25)))
    assert np.max(np.abs(marginal(got.ledger, "θb") - [1.0, 0.0, 0.0])) <= 1e-12
    # a spread q with no mass on a live value is still a realism violation
    with pytest.raises(RealismViolationError) as info:
        receive(state, arrivals["θb"], QUncertainty(var, (0.0, 0.5, 0.5)))
    assert str(info.value) == "A measured θb with an uncertainty that weighs only values of probability zero"


SPREAD = {
    "grid_a": ["0", "pi/4", "pi/2"],
    "grid_b": ["pi/8", "-pi/8"],
    "chsh": {"x0": "0", "x1": "pi/2", "y0": "pi/8", "y1": "-pi/8"},
    "q_setting_width": 1.0,
    "q_outcome_width": 0.5,
    "trials_per_pair": 4,
    "traced_trials": 48,
    "seed": 21,
}


def test_one_traced_run_builds_each_uncertainty_once_and_never_composes():
    """A regression guard by call counts, not by time."""
    config = parse_config(json.dumps(SPREAD))
    behavior = build_model(config)
    peaked = QUncertainty.peaked.__func__.__code__
    composing = {condition_table.__code__, product.__code__}
    built, composed_calls = [], []

    def watch(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is peaked:
            built.append((frame.f_locals["variable"].name, frame.f_locals["center"]))
        elif frame.f_code in composing:
            composed_calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        traces = trace_trials(config, behavior)
    finally:
        sys.setprofile(None)

    assert len(traces) == 48
    assert len({(t.theta_a, t.theta_b) for t in traces}) == 6
    assert built and len(built) == len(set(built))
    assert {name for name, _ in built} == set(CANONICAL)
    assert composed_calls == []
