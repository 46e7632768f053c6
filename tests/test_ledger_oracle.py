"""Every traced stage ledger recomputed with plain numpy.

The observers reach their ledgers through the general kernel (``condition``,
``reweight``, ``with_conditioners``) along the prefix tree that
``trace_trials`` shares between trials.  This oracle shares none of that code:
it starts from the behavior's table over ``(±a, θa, ±b, θb)`` and applies the
paper's update rules directly.

- An exact reception slices its axis and renormalises.
- A spread uncertainty ``q`` replaces the axis's marginal: ``P(rest | v) q(v)``
  (Jeffrey's rule).
- Preset settings slice both setting axes at ``t0``.
- At communication the ledger is the outer product of the pooled ``q``s.
"""

import json

import numpy as np
import pytest

from bellsim import build_model, parse_config
from bellsim.harness import trace_trials
from conftest import TRACED_CONFIGS

AXES = ("±a", "θa", "±b", "θb")
OUTCOMES = (1, -1)


def _uncertainty(n, k, width):
    """A width-``width`` bump over ``n`` values centred on index ``k``; ``None`` when exact."""
    if width <= 0.0:
        return None
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
        arr = conditional * qs[name].reshape(shape)

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
    ledgers["tc"] = (AXES, pooled, {("ψ0", "ψ0", "factual"), ("tc", "tc", "factual")})
    return initial, ledgers


def _assert_matches(ledger, expected, where):
    free, arr, conds = expected
    assert sorted(ledger.free_names) == sorted(free), where
    got = np.transpose(ledger.array, [ledger.free_names.index(n) for n in free])
    assert np.max(np.abs(got - arr), initial=0.0) <= 1e-12, where
    assert {(c.variable.name, c.value, c.modality.value) for c in ledger.conditioners} == conds, where


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_every_stage_ledger_matches_the_plain_numpy_oracle(name):
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
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
    assert len(seen) > 1
