"""Kernel results are frozen, and no kernel op writes into what it reads.

Every table a traced run builds is shared: by the prefix tree of observer
states, by the trial keys that reach one node, and by the ``q`` records both
observers hold.  So each ``reweight``, ``condition``, ``relabel``, ``receive``
and ``pool`` result must be read-only and C-contiguous, and every array an op
reads -- each ``q`` record's, each root's starting ledger's and every earlier
result's -- must keep its bytes to the end of the run.
"""

import json

import numpy as np
import pytest

from bellsim import build_model, parse_config, trace_trials
from bellsim import harness, observers
from bellsim.observers import ObserverState, QUncertainty, Stage, init_beliefs, pool, receive
from bellsim.probability import TaggedJoint, Variable
from bellsim.spacetime import Worldline
from conftest import GRID_4X4, TRACED_CONFIGS


def assert_frozen(ledger):
    assert ledger.array.flags.c_contiguous and not ledger.array.flags.writeable, ledger.render()


def watched(fn, seen):
    """``fn``, passing each result to ``seen`` before returning it."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen(out)
        return out
    return wrapper


@pytest.mark.parametrize("doc", [GRID_4X4, *TRACED_CONFIGS.values()], ids=["4x4-grid", *TRACED_CONFIGS])
def test_a_traced_run_builds_frozen_results_and_writes_into_no_input(monkeypatch, doc):
    results, kept = [], []  # kept: (array, its bytes when it was built)

    def result(ledger):
        assert_frozen(ledger)
        results.append(ledger)
        kept.append((ledger.array, ledger.array.tobytes()))

    monkeypatch.setattr(observers, "reweight", watched(observers.reweight, result))
    monkeypatch.setattr(observers, "condition", watched(observers.condition, result))
    monkeypatch.setattr(TaggedJoint, "relabel", watched(TaggedJoint.relabel, result))
    monkeypatch.setattr(harness, "receive", watched(harness.receive, lambda state: result(state.ledger)))
    monkeypatch.setattr(harness, "pool", watched(
        harness.pool, lambda p: [result(ledger) for ledger in (p.ledger, p.observer_a.ledger, p.observer_b.ledger)]))
    monkeypatch.setattr(harness, "_own_q", watched(harness._own_q, lambda q: kept.append((q.array, q.array.tobytes()))))
    monkeypatch.setattr(harness, "init_beliefs", watched(harness.init_beliefs, lambda states: kept.extend(
        (s.initial_ledger.array, s.initial_ledger.array.tobytes()) for s in states)))

    config = parse_config(json.dumps(doc))
    traces = trace_trials(config, build_model(config))
    assert len(results) > 2 * len({id(t) for t in traces})  # every key pools and receives
    for array, data in kept:
        assert array.tobytes() == data


def states_at_tc(config, behavior, shared: bool) -> list:
    """Both observers at tc for one trial, their ``q`` records one object per report or one per observer."""
    events = config.schedule.trial_events(behavior.grid_a[1], behavior.grid_b[2], 1, -1)
    made, ends = {}, []
    for state in init_beliefs(behavior, config.schedule):
        for event in config.schedule.events_for(state.observer, events):
            name, value = event.payload.proposition
            key = (name, value) if shared else (state.observer, name, value)
            if key not in made:
                made[key] = harness._own_q(config, state.initial_ledger, name, value)
            state = receive(state, event, made[key])
        ends.append(state)
    return ends


def test_pool_of_shared_or_distinct_records_is_frozen_equal_and_writes_into_none():
    config = parse_config(json.dumps(GRID_4X4))
    behavior = build_model(config)
    pooled = {}
    for shared in (True, False):
        a, b = states_at_tc(config, behavior, shared)
        assert (a.qs["θa"] is b.qs["θa"]) is shared and a.qs["θa"] == b.qs["θa"]
        read = [q.array for s in (a, b) for q in s.qs.values()] + [a.initial_ledger.array, a.ledger.array]
        before = [array.tobytes() for array in read]
        p = pool(a, b)
        for ledger in (p.ledger, p.observer_a.ledger, p.observer_b.ledger):
            assert_frozen(ledger)
            assert not any(np.shares_memory(ledger.array, array) for array in read)
        assert [array.tobytes() for array in read] == before
        pooled[shared] = p
    assert pooled[True].ledger.array.tobytes() == pooled[False].ledger.array.tobytes()
    assert pooled[True].data == pooled[False].data


def test_pool_over_one_variable_writes_a_copy_of_its_record():
    # with one free variable there is no product to write into, only the read-only, shared q
    variable = Variable("θa", (0, 1, 2))
    base = TaggedJoint([variable], [0.5, 0.5, 0.0], label="A")
    q = QUncertainty(variable, (0.25, 0.25, 0.5))
    before = q.array.tobytes()
    a, b = (ObserverState(Worldline(o, x), base, Stage.COMMUNICATION, 0.0, {"θa": q}, base, ())
            for o, x in (("A", -1.0), ("B", 1.0)))
    p = pool(a, b)
    assert_frozen(p.ledger)
    assert not np.shares_memory(p.ledger.array, q.array)
    assert q.array.tobytes() == before
    assert p.ledger.array.tolist() == [0.5, 0.5, 0.0]
