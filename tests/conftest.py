import itertools

import numpy as np
import pytest

from bellsim import (
    Behavior,
    InvalidScheduleError,
    LhvModel,
    TaggedJoint,
    TrialTrace,
    Variable,
    build_model,
    build_schedule,
    run_experiment,
    trace_trials,
)
from bellsim import harness


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
    # at this width the edge settings of a 3-value grid are received exactly and the
    # middle one with a spread, so one run renders two ledgers at tθ and at t±
    "mixed-widths": {"trials_per_pair": 3, "traced_trials": 27, "seed": 11, "q_setting_width": 0.134,
                     "grid_a": ["0", "pi/4", "pi/2"], "grid_b": ["pi/8", "3pi/8", "-pi/8"],
                     "chsh": {"x0": "0", "x1": "pi/2", "y0": "pi/8", "y1": "-pi/8"}},
    "moved-wings": {"trials_per_pair": 3, "traced_trials": 27, "seed": 10,
                    "grid_a": ["0", "pi/3", "2pi/3"], "grid_b": ["pi/6", "-pi/6", "pi/2"],
                    "chsh": {"x0": "0", "x1": "pi/3", "y0": "pi/6", "y1": "-pi/6"},
                    "positions": {"a": -0.9, "b": 1.3, "source": 0.1},
                    "stage_times": {"communication": 4.0}, "signal_speed": 0.7,
                    "q_outcome_width": 0.5},
}

#: A 4x4 singlet grid with spread widths: 200 traced trials visit all 16 pairs and 47 (pair, cell) keys.
GRID_4X4 = {"grid_a": ["0", "pi/4", "pi/2", "3pi/4"], "grid_b": ["pi/4", "-pi/4", "pi/2", "0"],
            "q_setting_width": 1.0, "q_outcome_width": 0.5, "trials_per_pair": 13, "traced_trials": 200, "seed": 13}


def trial(config, behavior, k):
    """Trial ``k`` of the run, traced."""
    return trace_trials(config._replace(traced_trials=k + 1), behavior)[k]


def trial_records(traces) -> list:
    """Each trace's ``(trial, θa, θb, ±a, ±b)``: its list position, settings and outcomes."""
    return [(k, t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for k, t in enumerate(traces)]


def traces_by_run_trial(config):
    """The reference for ``harness.trace_trials``: each traced trial built on its own.

    Each trial's ledgers start from a fresh memo, so nothing is shared between
    trials.  A trial that the dataset owns takes its cell from the dataset's
    records, so traced trial ``k`` must be dataset trial ``k``; a trial at
    ``preset_pair`` or past the dataset's end takes it from counter block ``k``.
    """
    behavior = build_model(config)
    pairs = list(itertools.product(behavior.grid_a, behavior.grid_b))
    records = run_experiment(config._replace(keep_records=True), behavior).records
    preset_pair = config.preset_pair if config.preset_settings else None
    traces = []
    for k in range(config.traced_trials):
        pair = preset_pair or pairs[(k // config.trials_per_pair) % len(pairs)]
        if preset_pair is None and k < records.size:
            cell = int(records[k])
        else:
            ((_, word),) = harness._outcome_words(np.random.Philox(key=config.seed).advance(k), k, 1)
            (bounds,) = harness._word_bounds(behavior.slice(*pair))
            cell = int(harness._cells(word, bounds, np.zeros(1, dtype=np.uint8))[0])
        events = config.schedule.trial_events(*pair, *harness.CELL_OUTCOMES[cell])
        pooled = harness._ledgers(config, behavior, events, pair if config.preset_settings else None, {})
        traces.append(TrialTrace(*pair, *harness.CELL_OUTCOMES[cell], events, pooled, behavior))
    return traces


#: Hidden-variable tables over two settings per wing: one cause with fixed
#: outcomes, and an even mixture of two causes.
LHV_TABLES = (
    {"prior": [1.0], "response_a": [[[1.0, 0.0]], [[0.0, 1.0]]], "response_b": [[[0.0, 1.0]], [[1.0, 0.0]]]},
    {"hidden": ["l0", "l1"], "prior": [0.5, 0.5],
     "response_a": [[[1.0, 0.0], [0.0, 1.0]], [[0.25, 0.75], [1.0, 0.0]]],
     "response_b": [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.5, 0.5]]]},
)

ANGLES = ("0", "pi/2", "pi/4", "-pi/4", "pi/8", "-pi/8", "3pi/4", "pi")


def valid_configs(behavior_file=None):
    """A hypothesis strategy for small JSON config documents that ``parse_config`` accepts.

    Each model appears, with its own settings; a custom model needs the path of
    a behavior file with the integer grids ``0, 1``, takes no grids of its own,
    and is drawn only when one is given.  Every other key is present or absent at random.  A drawn
    layout (wing and source positions, stage times and signal speed) is one that ``build_schedule``
    accepts, with the wings at any distance and on either side.  Trial counts stay small enough for a run.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = {
        "trials_per_pair": st.integers(1, 20),
        "seed": st.integers(0, 2**128 - 1),
        "q_setting_width": st.floats(0.0, 2.0),
        "q_outcome_width": st.floats(0.0, 2.0),
        "preset_settings": st.booleans(),
        "unresolved_local_setting": st.booleans(),
        "traced_trials": st.integers(0, 3),
        "keep_records": st.booleans(),
    }

    @st.composite
    def configs(draw):
        models = ["singlet", "pr-box", "lhv"] + (["custom"] if behavior_file else [])
        model = draw(st.sampled_from(models))
        doc = {} if model == "singlet" and draw(st.booleans()) else {"model": model}
        if model == "singlet":
            grid_a = draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3, unique=True))
            grid_b = draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3, unique=True))
        else:
            grid_a = grid_b = [0, 1]
        if model == "lhv":
            doc["lhv"] = draw(st.sampled_from(LHV_TABLES))
        if model == "custom":
            doc["behavior_file"] = str(behavior_file)
        if model == "singlet" or draw(st.booleans()):
            if model != "custom":
                doc["grid_a"], doc["grid_b"] = grid_a, grid_b
            x, y = st.sampled_from(grid_a), st.sampled_from(grid_b)
            doc["chsh"] = {"x0": draw(x), "x1": draw(x), "y0": draw(y), "y1": draw(y)}
        doc.update(draw(st.fixed_dictionaries({}, optional=scalars)))
        if doc.get("preset_settings") and draw(st.booleans()):
            doc["preset_pair"] = [draw(st.sampled_from(grid_a)), draw(st.sampled_from(grid_b))]
        if draw(st.booleans()):
            doc.update(draw(layouts()))
        return doc

    @st.composite
    def layouts(draw):
        # wings anywhere, the source between them, and reports slow enough to arrive
        # after detection; build_schedule still rejects wings too close to stay space-like
        a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
        speed = draw(st.floats(0.25, 1.0))
        times = (0.0, 0.1, 0.2, 0.2 + abs(b - a) / speed + draw(st.floats(0.01, 1.0)))
        source = draw(st.floats(min(a, b), max(a, b)))
        try:
            build_schedule(position_a=a, position_b=b, source_x=source, t_prepare=times[0], t_setting=times[1],
                           t_detection=times[2], t_communication=times[3], signal_speed=speed, c=1.0)
        except InvalidScheduleError:
            hypothesis.reject()
        return {
            "positions": {"a": a, "b": b, "source": source},
            "stage_times": dict(zip(("prepare", "setting", "detection", "communication"), times)),
            "signal_speed": speed,
            "c": 1.0,
        }

    return configs()
