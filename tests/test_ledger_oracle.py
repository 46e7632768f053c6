"""Every traced stage ledger recomputed with plain numpy.

The observers reach their ledgers through the general kernel (``condition``
and ``reweight``, which also swap the stage label) along the prefix tree that
``trace_trials`` shares between trials.  This oracle shares none of that code:
it starts from the behavior's table over ``(±a, θa, ±b, θb)`` and applies the
paper's update rules directly.

- An exact reception slices its axis and renormalises.
- A spread uncertainty ``q`` replaces the axis's marginal: ``P(rest | v) q'(v)``
  (Jeffrey's rule), where ``q'`` is ``q`` kept on the values ``v`` whose
  marginal is live and renormalised.
- Preset settings slice both setting axes at ``t0``.
- At communication the ledger is the outer product of the pooled ``q``s,
  kept on the cells the starting table leaves possible and renormalised.
"""

import json

import hypothesis
import numpy as np
import pytest

from bellsim import TaggedJoint, build_model, parse_config
from bellsim.harness import trace_trials
from conftest import TRACED_CONFIGS, valid_configs

AXES = ("±a", "θa", "±b", "θb")
OUTCOMES = (1, -1)
#: The traced configs, and CI's 4x4 hash-seed grid, whose equal and opposite
#: setting pairs give the singlet dead cells under spread ``q``s.
CONFIGS = {**TRACED_CONFIGS,
           "grid": {"trials_per_pair": 13, "traced_trials": 200, "seed": 13, "keep_records": True,
                    "q_setting_width": 1.0, "q_outcome_width": 0.5,
                    "grid_a": ["0", "pi/4", "pi/2", "3pi/4"], "grid_b": ["pi/4", "-pi/4", "pi/2", "0"]}}


def _uncertainty(n, k, width):
    """A width-``width`` bump over ``n`` values centred on index ``k``; ``None`` when exact.

    The width is clamped to ``[1e-150, 1e150]``, past which the bump is already
    the delta or the flat one, so that ``width**2`` neither underflows nor overflows.
    """
    width = min(max(width, 1e-150), 1e150)
    w = np.exp(-((np.arange(n) - k) ** 2) / (2.0 * width**2))
    w /= w.sum()
    return None if w.max() >= 1.0 - 1e-12 else w


def _expected_ledgers(config, behavior, trace, observer):
    """Stage label -> (free names, array, conditioners) for one observer of one trial."""
    domains = {"±a": OUTCOMES, "θa": behavior.grid_a, "±b": OUTCOMES, "θb": behavior.grid_b}
    values = {"±a": trace.outcome_a, "θa": trace.theta_a, "±b": trace.outcome_b, "θb": trace.theta_b}
    index = {n: domains[n].index(values[n]) for n in AXES}
    nx, ny = len(behavior.grid_a), len(behavior.grid_b)

    qs = {
        "±a": _uncertainty(2, index["±a"], config.q_outcome_width),
        "±b": _uncertainty(2, index["±b"], config.q_outcome_width),
        "θa": None,
        "θb": None,
    }
    if not config.preset_settings:
        qs["θa"] = _uncertainty(nx, index["θa"], config.q_setting_width)
        qs["θb"] = _uncertainty(ny, index["θb"], config.q_setting_width)
        if config.unresolved_local_setting and nx > 1:
            qs["θa"] = np.full(nx, 1.0 / nx)

    free = list(AXES)
    arr = np.einsum("xyab->axby", behavior.table) / (nx * ny)
    pinned = {}

    def absorb(name):
        nonlocal arr
        if name in pinned:
            return
        axis = free.index(name)
        if qs[name] is None:
            arr = np.take(arr, index[name], axis=axis)
            arr = arr / arr.sum()
            free.remove(name)
            pinned[name] = values[name]
            return
        shape = [1] * arr.ndim
        shape[axis] = -1
        marginal = arr.sum(axis=tuple(i for i in range(arr.ndim) if i != axis), keepdims=True)
        conditional = np.divide(arr, marginal, out=np.zeros_like(arr), where=marginal > 0.0)
        q = np.where(marginal.reshape(-1) > 1e-12, qs[name], 0.0)
        arr = conditional * (q / q.sum()).reshape(shape)

    def snapshot(stage):
        conds = {("ψ0", "ψ0", "factual"), (stage, stage, "factual")}
        conds |= {(n, v, "factual") for n, v in pinned.items()}
        return tuple(free), arr, conds

    initial = snapshot("t0")
    if config.preset_settings:
        absorb("θa")
        absorb("θb")
    own, far = ("θa", "±a"), ("θb", "±b")
    if observer == "B":
        own, far = far, own
    ledgers = {"t0": snapshot("t0")}
    absorb(own[0])
    ledgers["tθ"] = snapshot("tθ")
    absorb(own[1])
    ledgers["t±"] = snapshot("t±")

    pooled = np.ones(())
    for name in AXES:
        q = qs[name]
        if q is None:
            q = np.zeros(len(domains[name]))
            q[index[name]] = 1.0
        pooled = np.multiply.outer(pooled, q)
    _, start, _ = initial
    pooled = np.where(start > 1e-12, pooled, 0.0)
    pooled = pooled / pooled.sum()
    ledgers["tc"] = (AXES, pooled, {("ψ0", "ψ0", "factual"), ("tc", "tc", "factual")})
    return initial, ledgers


def _assert_matches(ledger, expected, where):
    free, arr, conds = expected
    assert sorted(ledger.free_names) == sorted(free), where
    got = np.transpose(ledger.array, [ledger.free_names.index(n) for n in free])
    assert np.max(np.abs(got - arr), initial=0.0) <= 1e-12, where
    assert {(c.variable.name, c.value, c.modality.value) for c in ledger.conditioners} == conds, where


def _check_every_stage_ledger(doc) -> set:
    """Compare each distinct traced trial's ledgers with the oracle's; the keys compared."""
    config = parse_config(json.dumps(doc))
    behavior = build_model(config)
    seen = set()
    for trace in trace_trials(config, behavior):
        key = (trace.theta_a, trace.theta_b, trace.outcome_a, trace.outcome_b)
        if key in seen:
            continue
        seen.add(key)
        for state in (trace.observer_a, trace.observer_b):
            initial, expected = _expected_ledgers(config, behavior, trace, state.observer)
            _assert_matches(state.initial_ledger, initial, (key, state.observer, "initial"))
            got = {stage.value: ledger for stage, ledger in state.stage_ledgers().items()}
            assert sorted(got) == sorted(expected), (key, state.observer)
            for stage, ledger in got.items():
                _assert_matches(ledger, expected[stage], (key, state.observer, stage))
    return seen


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_stage_ledger_matches_the_plain_numpy_oracle(name):
    assert len(_check_every_stage_ledger(CONFIGS[name])) > 1


#: A deterministic local model measured with a spread outcome ``q``: the far
#: outcome's other value is dead, so ``q`` is kept on the live one alone.
DEAD_VALUE = {"model": "lhv", "grid_a": [0, 1], "grid_b": [0, 1], "q_outcome_width": 1.0,
              "lhv": {"prior": [1.0], "response_a": [[[1, 0]], [[0, 1]]], "response_b": [[[0, 1]], [[1, 0]]]}}


@hypothesis.settings(deadline=None, max_examples=200, derandomize=True)
@hypothesis.given(doc=valid_configs())
@hypothesis.example(doc=DEAD_VALUE)
def test_drawn_config_ledgers_match_the_plain_numpy_oracle(doc):
    assert _check_every_stage_ledger({**doc, "traced_trials": max(doc.get("traced_trials", 1), 1)})


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_traced_ledger_passes_the_public_constructor(name):
    # receive swaps the stage label in the table that absorbs the value, and reweight,
    # the stage swap and pool pass free_names through: each must build what the
    # validating constructor builds, on a C-contiguous, read-only array
    config = parse_config(json.dumps(CONFIGS[name]))
    ledgers = {}
    for trace in trace_trials(config, build_model(config)):
        ledgers[id(trace.pooled.ledger)] = trace.pooled.ledger
        for state in (trace.observer_a, trace.observer_b):
            ledgers.update((id(ledger), ledger) for ledger in state.stage_ledgers().values())
    assert len(ledgers) > 4
    for ledger in ledgers.values():
        again = TaggedJoint(ledger.free, ledger.array, ledger.conditioners, ledger.label)
        assert again.free_names == ledger.free_names, ledger.render()
        assert np.array_equal(again.array, ledger.array), ledger.render()
        assert ledger.array.flags.c_contiguous and not ledger.array.flags.writeable, ledger.render()
