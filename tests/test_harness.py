"""Sampling, estimation, and classification against statistical oracles."""

import dataclasses
import io
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from bellsim import (
    Angle,
    build_model,
    ChshSettings,
    Dataset,
    ExperimentConfig,
    LhvModel,
    MissingDataError,
    Stage,
    ViolationClass,
    build_schedule,
    chsh_value,
    classify_violation,
    dataset_to_csv,
    estimate_behavior,
    estimate_chsh,
    lhv_behavior,
    optimal_singlet_settings,
    parse_config,
    pr_box,
    pr_box_settings,
    run_experiment,
    run_trial,
    singlet_behavior,
)
from bellsim import harness
from bellsim.harness import CHUNK, _block_uniforms, _threshold_hits, substream, trace_trials
from bellsim.models import Behavior
from conftest import TRACED_CONFIGS, random_behavior, traces_by_run_trial

ZERO = Angle.of(0)
HALF = Angle.of(1, 2)


def optimal_behavior():
    s = optimal_singlet_settings()
    return singlet_behavior((s.x0, s.x1), (s.y0, s.y1))


def uniform_behavior():
    return Behavior((0, 1), (0, 1), np.full((2, 2, 2, 2), 0.25))


# -- substreams -----------------------------------------------------------------


def test_substreams_tile_the_batch():
    batch = substream(99, 0).random((64, 4))
    for i in (0, 1, 17, 63):
        assert np.array_equal(substream(99, i).random(4), batch[i])
        assert np.array_equal(_block_uniforms(99, i, 1)[0], batch[i])


def test_block_uniforms_slice_the_batch():
    batch = substream(7, 0).random((100, 4))
    for start, count in ((30, 20), (0, 100), (0, 1), (1, 1), (17, 1), (99, 1)):
        assert np.array_equal(_block_uniforms(7, start, count), batch[start : start + count])


def test_trial_is_deterministic():
    b = optimal_behavior()
    schedule = build_schedule()
    t1 = run_trial(ExperimentConfig(seed=3, schedule=schedule), b, 5)
    t2 = run_trial(ExperimentConfig(seed=3, schedule=schedule), b, 5)
    assert t1.record == t2.record
    t3 = run_trial(ExperimentConfig(seed=4, schedule=schedule), b, 5)
    assert (t1.record.theta_a, t1.record.outcome_a, t1.record.outcome_b) != (
        t3.record.theta_a,
        t3.record.outcome_a,
        t3.record.outcome_b,
    ) or t1.record.theta_b != t3.record.theta_b


# -- run_trial ---------------------------------------------------------------------


def test_equal_angles_always_anticorrelated():
    b = singlet_behavior((ZERO, HALF), (ZERO, HALF))
    schedule = build_schedule()
    for i in range(50):
        t = run_trial(ExperimentConfig(seed=11, schedule=schedule), b, i, (ZERO, ZERO))
        assert t.record.outcome_a == -t.record.outcome_b


def test_box_at_both_ones_always_anticorrelated():
    b = pr_box()
    schedule = build_schedule()
    for i in range(50):
        t = run_trial(ExperimentConfig(seed=11, schedule=schedule), b, i, (1, 1))
        assert t.record.outcome_a == -t.record.outcome_b


def test_trial_data_extraction_matches_sampled_values():
    b = optimal_behavior()
    schedule = build_schedule()
    for i in range(20):
        t = run_trial(ExperimentConfig(seed=2, schedule=schedule), b, i)
        assert t.pooled.data == {
            "±a": t.record.outcome_a,
            "θa": t.record.theta_a,
            "±b": t.record.outcome_b,
            "θb": t.record.theta_b,
        }


# -- trace_trials ------------------------------------------------------------------


def _same_ledger(d1, d2):
    return (
        d1.free == d2.free
        and d1.conditioners == d2.conditioners
        and d1.label == d2.label
        and np.array_equal(d1.array, d2.array)
    )


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_shared_histories_equal_a_run_trial_per_trial(name):
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    got = trace_trials(config, build_model(config))
    want = traces_by_run_trial(config)
    assert len(got) == len(want) == config.traced_trials
    keys = {(t.record.theta_a, t.record.theta_b, t.record.outcome_a, t.record.outcome_b) for t in want}
    assert len(keys) < len(want)  # some histories really are shared
    for g, w in zip(got, want):
        assert g.record == w.record
        assert g.preset == w.preset
        assert g.pooled.data == w.pooled.data
        assert _same_ledger(g.pooled.ledger, w.pooled.ledger)
        for gs, ws in ((g.observer_a, w.observer_a), (g.observer_b, w.observer_b)):
            gl, wl = gs.stage_ledgers(), ws.stage_ledgers()
            assert list(gl) == list(wl)
            assert all(_same_ledger(gl[stage], wl[stage]) for stage in wl)


@pytest.mark.parametrize("name", ["spread-widths", "preset", "moved-wings"])
def test_ledgers_run_once_per_received_prefix(monkeypatch, name):
    calls = {"receive": 0, "init_beliefs": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "receive", counted(harness.receive))
    monkeypatch.setattr(harness, "init_beliefs", counted(harness.init_beliefs))
    config = parse_config(json.dumps(TRACED_CONFIGS[name] | {"traced_trials": 120}))
    traces = trace_trials(config, build_model(config))

    # one node per (observer, root, what it has received so far), counted from the
    # records alone; the root is the preset pair, or None without preset settings
    schedule, roots, nodes = config.schedule, set(), set()
    for t in traces:
        r = t.record
        root = (r.theta_a, r.theta_b) if config.preset_settings else None
        roots.add(root)
        events = schedule.trial_events(r.theta_a, r.theta_b, r.outcome_a, r.outcome_b)
        for observer in ("A", "B"):
            received = [e.payload.propositions() for e in schedule.events_for(observer, events)]
            nodes.update((observer, root, tuple(received[:i])) for i in range(1, len(received) + 1))
    keys = {(t.record.theta_a, t.record.theta_b, t.record.outcome_a, t.record.outcome_b) for t in traces}
    assert len(nodes) < 8 * len(keys)  # not vacuous: the keys share received prefixes
    assert calls["receive"] == len(nodes)
    assert calls["init_beliefs"] == len(roots)


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_each_observer_received_exactly_its_own_trial_events(name):
    # a shared history must never hand one trial's events to another
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    schedule = config.schedule
    for t in trace_trials(config, build_model(config)):
        r = t.record
        events = schedule.trial_events(r.theta_a, r.theta_b, r.outcome_a, r.outcome_b)
        for state in (t.observer_a, t.observer_b):
            assert list(state.received) == list(schedule.events_for(state.observer, events))


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_ledgers_before_communication_depend_only_on_local_data(name):
    # factuality is informational locality: until the reports arrive, an observer's
    # ledgers are fixed by its own setting and outcome (and, when settings are
    # pre-agreed, by the far setting it knows from t0)
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    local = {}
    histories = {}
    for t in trace_trials(config, build_model(config)):
        r = t.record
        for state, own in ((t.observer_a, (r.theta_a, r.outcome_a)), (t.observer_b, (r.theta_b, r.outcome_b))):
            key = (state.observer, *own, (r.theta_a, r.theta_b) if config.preset_settings else None)
            ledgers = state.stage_ledgers()
            seen = tuple(
                (ledgers[s].render(), ledgers[s].array.tobytes())
                for s in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION)
            )
            assert local.setdefault(key, seen) == seen
            histories.setdefault(key, set()).add((r.theta_a, r.theta_b, r.outcome_a, r.outcome_b))
    # not vacuous: some key is reached by more than one (setting pair, outcome cell)
    assert max(len(h) for h in histories.values()) >= 2


# -- run_experiment ----------------------------------------------------------------


def config(**kwargs) -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig(), **kwargs)


def experiment(cfg: ExperimentConfig):
    return run_experiment(cfg, build_model(cfg))


def test_single_trial_counts_one_hot():
    ds = experiment(config(trials_per_pair=1, seed=5))
    assert ds.total_trials == 4
    for i in range(2):
        for j in range(2):
            assert ds.counts[i, j].sum() == 1


def test_fewer_than_one_trial_per_pair_is_rejected():
    # ExperimentConfig does not validate its fields; parse_config does
    with pytest.raises(ValueError, match="at least one trial"):
        run_experiment(ExperimentConfig(trials_per_pair=0), pr_box())


def test_zero_probability_cell_never_sampled():
    b = singlet_behavior((ZERO,), (ZERO,))
    ds = run_experiment(ExperimentConfig(trials_per_pair=100000, seed=1), b)
    assert ds.counts[0, 0, 0, 0] == 0  # p(+,+) = 0 exactly
    assert ds.counts[0, 0, 1, 1] == 0


def test_float_shortfall_never_reaches_trailing_zero_cell():
    # a valid slice whose running sum stops one ulp short of 1 before the dead cell
    slab = np.array([0.56339548, 0.18519426, 0.25141026, 0.0])
    assert np.cumsum(slab)[2] < 1.0
    # the words whose 53-bit draws are nextafter(1, 0), 0 and 0.5, then the largest word
    words = np.array([(2**53 - 1) << 11, 0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert (words[0] >> 11) * 2.0**-53 == np.nextafter(1.0, 0.0)
    assert np.all(_threshold_hits(slab, words).sum(axis=0) < 3)


def test_uniform_cells_concentrate():
    n = 100000
    ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=77), uniform_behavior())
    bound = 4.0 * math.sqrt(n * 0.25 * 0.75)
    assert np.max(np.abs(ds.counts - n / 4.0)) <= bound


def test_parallel_execution_is_bit_identical():
    c1 = config(trials_per_pair=4000, seed=13, workers=1)
    c4 = config(trials_per_pair=4000, seed=13, workers=4)
    d1, d4 = experiment(c1), experiment(c4)
    assert np.array_equal(d1.counts, d4.counts)
    assert np.array_equal(d1.records, d4.records)


def test_chunk_boundaries_do_not_change_any_draw():
    b, n, seed = optimal_behavior(), CHUNK + 3, 19
    schedule = build_schedule()
    d1 = run_experiment(ExperimentConfig(trials_per_pair=n, seed=seed, workers=1), b)
    d2 = run_experiment(ExperimentConfig(trials_per_pair=n, seed=seed, workers=2), b)
    assert np.array_equal(d1.records, d2.records)
    assert np.array_equal(d1.counts, d2.counts)

    # unchunked oracle: every pair block sampled from one slice of the whole stream
    u = substream(seed, 0).random((4 * n, 4))[:, 2]
    slabs = b.table.reshape(4, 4)
    cum = np.cumsum(slabs, axis=1)
    cum[:, -1] = 1.0  # every cell is live, so the float shortfall fix only closes the last interval
    oracle = np.concatenate([np.searchsorted(cum[p], u[p * n : (p + 1) * n], side="right") for p in range(4)])
    assert np.array_equal(d1.records, oracle)

    out = io.StringIO()
    dataset_to_csv(d1, schedule, out)
    rows = out.getvalue().split("\n")
    pairs = list(itertools.product(b.grid_a, b.grid_b))
    for k in (0, CHUNK - 1, CHUNK, n, 3 * n + 2):
        t = run_trial(ExperimentConfig(seed=seed, schedule=schedule), b, k, pairs[k // n])
        fields = rows[k + 1].split(",")
        assert fields[0] == str(k)
        assert (int(fields[3]), int(fields[4])) == (t.record.outcome_a, t.record.outcome_b)


def behavior_with_zero_cells():
    table = random_behavior(np.random.default_rng(31), 2, 3).table.copy()
    # zero cells leading, in the middle, trailing, and two trailing at once
    table[0, 0, 0, 0] = table[0, 1, 0, 1] = table[1, 0, 1, 1] = 0.0
    table[1, 2, 1, :] = 0.0
    return Behavior((0, 1), (0, 1, 2), table / table.sum(axis=(2, 3), keepdims=True))


@pytest.mark.parametrize("make", [pr_box, optimal_behavior, behavior_with_zero_cells])
def test_counts_without_records_match_the_records(make):
    b, n = make(), CHUNK + 3
    kept = run_experiment(ExperimentConfig(trials_per_pair=n, seed=23, workers=2), b)
    bare = run_experiment(ExperimentConfig(trials_per_pair=n, seed=23, workers=2, keep_records=False), b)
    assert bare.records.size == 0
    assert np.array_equal(bare.counts, kept.counts)
    per_pair = [np.bincount(r, minlength=4) for r in kept.records.reshape(-1, n)]
    assert np.array_equal(kept.counts.reshape(-1, 4), per_pair)
    assert not np.any(kept.counts.reshape(-1, 4)[b.table.reshape(-1, 4) == 0.0])


def test_sampling_without_records_uses_bounded_memory():
    tracemalloc.start()
    try:
        ds = run_experiment(ExperimentConfig(trials_per_pair=2**20, seed=3, keep_records=False), pr_box())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.total_trials == 4 * 2**20
    assert peak < 8 * 2**20


def test_worker_threads_are_capped_at_the_cpu_count(monkeypatch):
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
    ds = run_experiment(ExperimentConfig(trials_per_pair=8, seed=3, workers=10**6), pr_box())
    assert ds.total_trials == 32
    assert seen and all(w <= (os.cpu_count() or 1) for w in seen)


def test_records_can_be_dropped():
    ds = experiment(config(trials_per_pair=100, keep_records=False))
    assert ds.records.size == 0
    assert ds.total_trials == 400
    with pytest.raises(MissingDataError):
        dataset_to_csv(ds, build_schedule(), io.StringIO())


# -- estimators ----------------------------------------------------------------------


def test_estimate_behavior_degenerate_counts():
    counts = np.zeros((1, 1, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 50
    ds = Dataset((0,), (0,), counts)
    est = estimate_behavior(ds)
    assert est.behavior.table[0, 0, 0, 0] == 1.0
    assert np.all(est.stderr == 0.0)


def test_estimate_behavior_names_missing_pair():
    counts = np.zeros((1, 2, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 5
    ds = Dataset((0,), (0, 1), counts)
    with pytest.raises(MissingDataError, match=r"\(0, 1\)"):
        estimate_behavior(ds)


def test_estimate_behavior_calibrated_at_sixty_degrees():
    # cell (+,-) at delta = pi/3 has probability (1 + cos pi/3)/4 = 0.375
    b = singlet_behavior((ZERO,), (Angle.of(1, 3),))
    n = 100000
    ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=2024), b)
    est = estimate_behavior(ds)
    phat = est.behavior.table[0, 0, 0, 1]
    se = est.stderr[0, 0, 0, 1]
    assert se == pytest.approx(math.sqrt(phat * (1 - phat) / n), abs=0)
    assert abs(phat - 0.375) <= 4.0 * se


def test_chsh_estimate_box_is_exact():
    ds = run_experiment(ExperimentConfig(trials_per_pair=10000, seed=3), pr_box())
    est = estimate_chsh(ds, pr_box_settings())
    assert est.value == 4.0
    assert est.stderr == 0.0


def test_chsh_estimate_deterministic_strategy_is_two():
    m = LhvModel(
        ("l",),
        (1.0,),
        (((1.0, 0.0),), ((1.0, 0.0),)),
        (((1.0, 0.0),), ((1.0, 0.0),)),
    )
    ds = run_experiment(ExperimentConfig(trials_per_pair=2000, seed=3), lhv_behavior(m))
    est = estimate_chsh(ds, pr_box_settings())
    assert est.value == 2.0 and est.stderr == 0.0


def test_chsh_estimate_requires_all_pairs():
    ds = run_experiment(ExperimentConfig(trials_per_pair=10, seed=3), pr_box())
    bad = ChshSettings(0, 1, 0, 3)
    with pytest.raises(MissingDataError):
        estimate_chsh(ds, bad)


def test_empirical_no_signaling_within_sampling_noise():
    n = 100000
    for behavior, settings in (
        (optimal_behavior(), optimal_singlet_settings()),
        (pr_box(), pr_box_settings()),
    ):
        ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=8), behavior)
        pa = ds.counts.sum(axis=3) / n
        pb = ds.counts.sum(axis=2) / n
        dev_a = np.max(pa.max(axis=1) - pa.min(axis=1))
        dev_b = np.max(pb.max(axis=0) - pb.min(axis=0))
        assert max(dev_a, dev_b) <= 5.0 / math.sqrt(n)


def test_estimator_error_shrinks_with_n(rng):
    b = random_behavior(rng)
    errs = []
    for n in (1000, 100000):
        ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=55), b)
        est = estimate_behavior(ds)
        errs.append(np.max(np.abs(est.behavior.table - b.table)))
    assert errs[1] < errs[0]


def test_estimator_within_five_sigma_on_nearly_all_seeds(rng):
    # desk-scale calibration sweep: a fixed behavior, one pair, 100 seeds
    b = random_behavior(rng, nx=1, ny=1)
    n = 100000
    sigma = np.sqrt(b.table * (1.0 - b.table) / n)
    good = 0
    for seed in range(100):
        ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=seed, keep_records=False), b)
        phat = ds.counts / n
        if np.all(np.abs(phat - b.table) <= 5.0 * sigma):
            good += 1
    assert good >= 99


# -- classification ---------------------------------------------------------------


def test_standard_run_classified_counterfactual_nonlocal():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(ExperimentConfig(seed=21, schedule=schedule), b, 0)
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, optimal_singlet_settings())
        assert abs(report.s_value) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert report.violated
        assert report.classification is ViolationClass.COUNTERFACTUAL_NONLOCAL
        assert "θb" in report.nonlocal_counterfactuals


def test_classified_value_is_the_analytic_sum(rng):
    settings = pr_box_settings()
    for i in range(50):
        b = random_behavior(rng)
        trace = run_trial(ExperimentConfig(seed=i), b, 0)
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
            assert classify_violation(trace, stage, settings).s_value == chsh_value(b, settings)


def test_counterfactual_list_tracks_stage():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(ExperimentConfig(seed=21, schedule=schedule), b, 0)
    r0 = classify_violation(trace, Stage.INITIAL, optimal_singlet_settings())
    rt = classify_violation(trace, Stage.SETTING, optimal_singlet_settings())
    assert r0.counterfactual_conditioners == ("θa", "θb")
    assert rt.counterfactual_conditioners == ("θb",)


def test_far_setting_is_nonlocal_for_observer_b_too():
    trace = run_trial(ExperimentConfig(seed=21), optimal_behavior(), 0)
    settings = optimal_singlet_settings()
    r0 = classify_violation(trace, Stage.INITIAL, settings, observer="B")
    assert r0.counterfactual_conditioners == ("θa", "θb")
    for stage in (Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, settings, observer="B")
        assert report.observer == "B"
        assert report.classification is ViolationClass.COUNTERFACTUAL_NONLOCAL
        assert report.counterfactual_conditioners == ("θa",)
        assert report.nonlocal_counterfactuals == ("θa",)


def test_communication_stage_is_factual_local():
    cfg = config(trials_per_pair=2000, seed=9)
    ds = experiment(cfg)
    b = optimal_behavior()
    trace = run_trial(cfg, b, 0, (b.grid_a[0], b.grid_b[0]))
    report = classify_violation(trace, Stage.COMMUNICATION, cfg.chsh, dataset=ds)
    assert report.classification is ViolationClass.FACTUAL_LOCAL
    assert report.violated
    assert report.s_stderr > 0.0


def test_single_experiment_with_factual_settings_not_applicable():
    b = optimal_behavior()
    trace = run_trial(ExperimentConfig(seed=9), b, 0)
    report = classify_violation(trace, Stage.COMMUNICATION, optimal_singlet_settings())
    assert report.classification is ViolationClass.NOT_APPLICABLE
    assert report.s_value is None


def test_preset_run_classified_local():
    cfg = config(trials_per_pair=1000, seed=10, preset_settings=True)
    ds = experiment(cfg)
    b = optimal_behavior()
    trace = run_trial(cfg, b, 0, (b.grid_a[0], b.grid_b[0]))
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION, Stage.COMMUNICATION):
        report = classify_violation(trace, stage, cfg.chsh, dataset=ds)
        assert report.classification is ViolationClass.FACTUAL_LOCAL
        assert not report.nonlocal_counterfactuals


def test_preset_posited_alternates_are_counterfactual_local():
    b = optimal_behavior()
    trace = run_trial(ExperimentConfig(seed=10, preset_settings=True), b, 0, (b.grid_a[0], b.grid_b[0]))
    report = classify_violation(
        trace, Stage.SETTING, optimal_singlet_settings(), posit_alternates=True
    )
    assert report.classification is ViolationClass.COUNTERFACTUAL_LOCAL
    assert report.violated


def test_classifier_soundness_nonlocal_tag_iff_far_setting_unknown():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(ExperimentConfig(seed=33, schedule=schedule), b, 4)
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, optimal_singlet_settings())
        ledger = trace.observer_a.stage_ledgers()[stage]
        far_free = "θb" in ledger.free_names
        assert bool(report.nonlocal_counterfactuals) == far_free


# -- export ------------------------------------------------------------------------


def test_dataset_csv_shape_and_header():
    ds = experiment(config(trials_per_pair=5, seed=1))
    out = io.StringIO()
    dataset_to_csv(ds, build_schedule(), out)
    text = out.getvalue()
    lines = text.strip().split("\n")
    assert lines[0].startswith("trial,x,y,a,b,")
    assert len(lines) == 1 + ds.total_trials
    assert lines[1].split(",")[0] == "0"
