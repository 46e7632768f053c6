import itertools

import numpy as np
import pytest

from bellsim import Behavior, LhvModel, TaggedJoint, Variable, build_model, run_trial


def random_joint(rng, n_vars=None, max_domain=3, label=""):
    n = int(n_vars) if n_vars is not None else int(rng.integers(2, 4))
    sizes = [int(s) for s in rng.integers(2, max_domain + 1, size=n)]
    free = [Variable(f"v{i}", tuple(range(s))) for i, s in enumerate(sizes)]
    w = rng.random(tuple(sizes)) + 1e-3
    return TaggedJoint(free, w / w.sum(), (), label)


def random_behavior(rng, nx=2, ny=2):
    w = rng.random((nx, ny, 2, 2))
    w /= w.sum(axis=(2, 3), keepdims=True)
    return Behavior(tuple(range(nx)), tuple(range(ny)), w)


def _nested(arr):
    return tuple(tuple(tuple(float(v) for v in row) for row in mat) for mat in arr)


def random_lhv(rng, n_lambda=4, nx=2, ny=2):
    prior = rng.random(n_lambda) + 1e-3
    prior /= prior.sum()
    ra = rng.random((nx, n_lambda, 2))
    ra /= ra.sum(axis=2, keepdims=True)
    rb = rng.random((ny, n_lambda, 2))
    rb /= rb.sum(axis=2, keepdims=True)
    return LhvModel(tuple(range(n_lambda)), tuple(float(p) for p in prior), _nested(ra), _nested(rb))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


#: Run configs whose traced trials repeat (setting pair, outcome cell) keys, one per
#: ledger option: spread uncertainty widths, preset settings with and without a
#: preset pair, an unresolved local setting, and integer settings; and one with
#: moved wings, a slow signal and a late communication stage, whose reception
#: times are not round numbers.
TRACED_CONFIGS = {
    "spread-widths": {"trials_per_pair": 3, "traced_trials": 30, "seed": 5,
                      "q_setting_width": 1.0, "q_outcome_width": 0.5,
                      "grid_a": ["0", "pi/4", "pi/2"], "grid_b": ["pi/8", "-pi/8"],
                      "chsh": {"x0": "0", "x1": "pi/2", "y0": "pi/8", "y1": "-pi/8"}},
    "preset": {"trials_per_pair": 4, "traced_trials": 24, "seed": 6, "preset_settings": True},
    "preset-pair": {"trials_per_pair": 4, "traced_trials": 12, "seed": 7, "preset_settings": True,
                    "preset_pair": ["pi/2", "-pi/4"], "q_outcome_width": 0.5},
    "unresolved": {"trials_per_pair": 2, "traced_trials": 20, "seed": 8,
                   "unresolved_local_setting": True, "q_setting_width": 0.7},
    "pr-box": {"model": "pr-box", "trials_per_pair": 5, "traced_trials": 40, "seed": 9},
    "moved-wings": {"trials_per_pair": 3, "traced_trials": 27, "seed": 10,
                    "grid_a": ["0", "pi/3", "2pi/3"], "grid_b": ["pi/6", "-pi/6", "pi/2"],
                    "chsh": {"x0": "0", "x1": "pi/3", "y0": "pi/6", "y1": "-pi/6"},
                    "positions": {"a": -0.9, "b": 1.3, "source": 0.1},
                    "stage_times": {"communication": 4.0}, "signal_speed": 0.7,
                    "q_outcome_width": 0.5},
}


def traces_by_run_trial(config):
    """The reference for ``harness.trace_trials``: one plain ``run_trial`` per traced trial."""
    behavior = build_model(config)
    pairs = list(itertools.product(behavior.grid_a, behavior.grid_b))
    traces = []
    for k in range(config.traced_trials):
        pair = pairs[(k // config.trials_per_pair) % len(pairs)]
        if config.preset_settings and config.preset_pair is not None:
            pair = config.preset_pair
        traces.append(run_trial(config, behavior, k, pair))
    return traces
