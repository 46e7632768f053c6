"""Sampling, estimation, and classification against statistical oracles."""

import dataclasses
import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from bellsim import (
    Angle,
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
    pr_box,
    pr_box_settings,
    run_experiment,
    run_trial,
    sample_dataset,
    singlet_behavior,
)
from bellsim import harness
from bellsim.harness import CHUNK, _block_uniforms, _sample_cells, substream, trial_uniforms
from bellsim.models import Behavior
from conftest import random_behavior

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
        assert np.array_equal(trial_uniforms(99, i), batch[i])


def test_block_uniforms_slice_the_batch():
    batch = substream(7, 0).random((100, 4))
    assert np.array_equal(_block_uniforms(7, 30, 20), batch[30:50])


def test_trial_is_deterministic():
    b = optimal_behavior()
    schedule = build_schedule()
    t1 = run_trial(b, schedule, master_seed=3, trial_index=5)
    t2 = run_trial(b, schedule, master_seed=3, trial_index=5)
    assert t1.record == t2.record
    t3 = run_trial(b, schedule, master_seed=4, trial_index=5)
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
        t = run_trial(b, schedule, master_seed=11, trial_index=i, forced_settings=(ZERO, ZERO))
        assert t.record.outcome_a == -t.record.outcome_b


def test_box_at_both_ones_always_anticorrelated():
    b = pr_box()
    schedule = build_schedule()
    for i in range(50):
        t = run_trial(b, schedule, master_seed=11, trial_index=i, forced_settings=(1, 1))
        assert t.record.outcome_a == -t.record.outcome_b


def test_trial_data_extraction_matches_sampled_values():
    b = optimal_behavior()
    schedule = build_schedule()
    for i in range(20):
        t = run_trial(b, schedule, master_seed=2, trial_index=i)
        assert t.pooled.data == {
            "±a": t.record.outcome_a,
            "θa": t.record.theta_a,
            "±b": t.record.outcome_b,
            "θb": t.record.theta_b,
        }


def test_trial_reception_times_follow_schedule():
    b = optimal_behavior()
    schedule = build_schedule()
    t = run_trial(b, schedule, master_seed=2, trial_index=0)
    ta = t.record.reception_times["A"]
    assert ta["θa"] == schedule.t_setting
    assert ta["±a"] == schedule.t_detection
    assert ta["θb"] == pytest.approx(schedule.t_communication)


# -- run_experiment ----------------------------------------------------------------


def config(**kwargs) -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig(), **kwargs)


def test_single_trial_counts_one_hot():
    ds = run_experiment(config(trials_per_pair=1, seed=5))
    assert ds.total_trials == 4
    for i in range(2):
        for j in range(2):
            assert ds.counts[i, j].sum() == 1


def test_zero_probability_cell_never_sampled():
    b = singlet_behavior((ZERO,), (ZERO,))
    ds = sample_dataset(b, build_schedule(), trials_per_pair=100000, master_seed=1)
    assert ds.counts[0, 0, 0, 0] == 0  # p(+,+) = 0 exactly
    assert ds.counts[0, 0, 1, 1] == 0


def test_float_shortfall_never_reaches_trailing_zero_cell():
    # a valid slice whose running sum stops one ulp short of 1 before the dead cell
    slab = np.array([0.56339548, 0.18519426, 0.25141026, 0.0])
    assert np.cumsum(slab)[2] < 1.0
    u = np.array([np.nextafter(1.0, 0.0), 0.0, 0.5])
    assert np.all(_sample_cells(slab, u) < 3)


def test_uniform_cells_concentrate():
    n = 100000
    ds = sample_dataset(uniform_behavior(), None, trials_per_pair=n, master_seed=77)
    bound = 4.0 * math.sqrt(n * 0.25 * 0.75)
    assert np.max(np.abs(ds.counts - n / 4.0)) <= bound


def test_parallel_execution_is_bit_identical():
    c1 = config(trials_per_pair=4000, seed=13, workers=1)
    c4 = config(trials_per_pair=4000, seed=13, workers=4)
    d1, d4 = run_experiment(c1), run_experiment(c4)
    assert np.array_equal(d1.counts, d4.counts)
    assert np.array_equal(d1.records, d4.records)


def test_chunk_boundaries_do_not_change_any_draw():
    b, n, seed = optimal_behavior(), CHUNK + 3, 19
    schedule = build_schedule()
    d1 = sample_dataset(b, schedule, trials_per_pair=n, master_seed=seed, workers=1)
    d2 = sample_dataset(b, schedule, trials_per_pair=n, master_seed=seed, workers=2)
    assert np.array_equal(d1.records, d2.records)
    assert np.array_equal(d1.counts, d2.counts)

    # unchunked oracle: every pair block sampled from one slice of the whole stream
    u = substream(seed, 0).random((4 * n, 4))[:, 2]
    slabs = b.table.reshape(4, 4)
    oracle = np.concatenate([_sample_cells(slabs[p], u[p * n : (p + 1) * n]) for p in range(4)])
    assert np.array_equal(d1.records, oracle)

    out = io.StringIO()
    dataset_to_csv(d1, out)
    rows = out.getvalue().split("\n")
    pairs = list(itertools.product(b.grid_a, b.grid_b))
    for k in (0, CHUNK - 1, CHUNK, n, 3 * n + 2):
        t = run_trial(b, schedule, master_seed=seed, trial_index=k, forced_settings=pairs[k // n])
        fields = rows[k + 1].split(",")
        assert fields[0] == str(k)
        assert (int(fields[3]), int(fields[4])) == (t.record.outcome_a, t.record.outcome_b)


def test_sampling_without_records_uses_bounded_memory():
    tracemalloc.start()
    try:
        ds = sample_dataset(pr_box(), None, trials_per_pair=2**20, master_seed=3, keep_records=False)
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
    ds = sample_dataset(pr_box(), None, trials_per_pair=8, master_seed=3, workers=10**6)
    assert ds.total_trials == 32
    assert seen and all(w <= (os.cpu_count() or 1) for w in seen)


def test_records_can_be_dropped():
    ds = run_experiment(config(trials_per_pair=100, keep_records=False))
    assert ds.records.size == 0
    assert ds.total_trials == 400
    with pytest.raises(MissingDataError):
        dataset_to_csv(ds, io.StringIO())


# -- estimators ----------------------------------------------------------------------


def test_estimate_behavior_degenerate_counts():
    counts = np.zeros((1, 1, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 50
    ds = Dataset((0,), (0,), counts, np.array([[50]]))
    est = estimate_behavior(ds)
    assert est.behavior.table[0, 0, 0, 0] == 1.0
    assert np.all(est.stderr == 0.0)


def test_estimate_behavior_names_missing_pair():
    counts = np.zeros((1, 2, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 5
    ds = Dataset((0,), (0, 1), counts, np.array([[5, 0]]))
    with pytest.raises(MissingDataError, match=r"\(0, 1\)"):
        estimate_behavior(ds)


def test_estimate_behavior_calibrated_at_sixty_degrees():
    # cell (+,-) at delta = pi/3 has probability (1 + cos pi/3)/4 = 0.375
    b = singlet_behavior((ZERO,), (Angle.of(1, 3),))
    n = 100000
    ds = sample_dataset(b, None, trials_per_pair=n, master_seed=2024)
    est = estimate_behavior(ds)
    phat = est.behavior.table[0, 0, 0, 1]
    se = est.stderr[0, 0, 0, 1]
    assert se == pytest.approx(math.sqrt(phat * (1 - phat) / n), abs=0)
    assert abs(phat - 0.375) <= 4.0 * se


def test_chsh_estimate_box_is_exact():
    ds = sample_dataset(pr_box(), None, trials_per_pair=10000, master_seed=3)
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
    ds = sample_dataset(lhv_behavior(m), None, trials_per_pair=2000, master_seed=3)
    est = estimate_chsh(ds, pr_box_settings())
    assert est.value == 2.0 and est.stderr == 0.0


def test_chsh_estimate_requires_all_pairs():
    ds = sample_dataset(pr_box(), None, trials_per_pair=10, master_seed=3)
    bad = ChshSettings(0, 1, 0, 3)
    with pytest.raises(MissingDataError):
        estimate_chsh(ds, bad)


def test_empirical_no_signaling_within_sampling_noise():
    n = 100000
    for behavior, settings in (
        (optimal_behavior(), optimal_singlet_settings()),
        (pr_box(), pr_box_settings()),
    ):
        ds = sample_dataset(behavior, None, trials_per_pair=n, master_seed=8)
        pa = ds.counts.sum(axis=3) / n
        pb = ds.counts.sum(axis=2) / n
        dev_a = np.max(pa.max(axis=1) - pa.min(axis=1))
        dev_b = np.max(pb.max(axis=0) - pb.min(axis=0))
        assert max(dev_a, dev_b) <= 5.0 / math.sqrt(n)


def test_estimator_error_shrinks_with_n(rng):
    b = random_behavior(rng)
    errs = []
    for n in (1000, 100000):
        ds = sample_dataset(b, None, trials_per_pair=n, master_seed=55)
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
        ds = sample_dataset(b, None, trials_per_pair=n, master_seed=seed, keep_records=False)
        phat = ds.counts / n
        if np.all(np.abs(phat - b.table) <= 5.0 * sigma):
            good += 1
    assert good >= 99


# -- classification ---------------------------------------------------------------


def test_standard_run_classified_counterfactual_nonlocal():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(b, schedule, master_seed=21, trial_index=0)
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
        trace = run_trial(b, build_schedule(), master_seed=i, trial_index=0)
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
            assert classify_violation(trace, stage, settings).s_value == chsh_value(b, settings)


def test_counterfactual_list_tracks_stage():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(b, schedule, master_seed=21, trial_index=0)
    r0 = classify_violation(trace, Stage.INITIAL, optimal_singlet_settings())
    rt = classify_violation(trace, Stage.SETTING, optimal_singlet_settings())
    assert r0.counterfactual_conditioners == ("θa", "θb")
    assert rt.counterfactual_conditioners == ("θb",)


def test_communication_stage_is_factual_local():
    cfg = config(trials_per_pair=2000, seed=9)
    ds = run_experiment(cfg)
    b = optimal_behavior()
    trace = run_trial(b, cfg.schedule, master_seed=9, trial_index=0,
                      forced_settings=(b.grid_a[0], b.grid_b[0]))
    report = classify_violation(trace, Stage.COMMUNICATION, cfg.chsh, dataset=ds)
    assert report.classification is ViolationClass.FACTUAL_LOCAL
    assert report.violated
    assert report.s_stderr > 0.0


def test_single_experiment_with_factual_settings_not_applicable():
    b = optimal_behavior()
    trace = run_trial(b, build_schedule(), master_seed=9, trial_index=0)
    report = classify_violation(trace, Stage.COMMUNICATION, optimal_singlet_settings())
    assert report.classification is ViolationClass.NOT_APPLICABLE
    assert report.s_value is None


def test_preset_run_classified_local():
    cfg = config(trials_per_pair=1000, seed=10, preset_settings=True)
    ds = run_experiment(cfg)
    b = optimal_behavior()
    trace = run_trial(
        b,
        cfg.schedule,
        master_seed=10,
        trial_index=0,
        forced_settings=(b.grid_a[0], b.grid_b[0]),
        preset=True,
    )
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION, Stage.COMMUNICATION):
        report = classify_violation(trace, stage, cfg.chsh, dataset=ds)
        assert report.classification is ViolationClass.FACTUAL_LOCAL
        assert not report.nonlocal_counterfactuals


def test_preset_posited_alternates_are_counterfactual_local():
    b = optimal_behavior()
    trace = run_trial(
        b,
        build_schedule(),
        master_seed=10,
        trial_index=0,
        forced_settings=(b.grid_a[0], b.grid_b[0]),
        preset=True,
    )
    report = classify_violation(
        trace, Stage.SETTING, optimal_singlet_settings(), posit_alternates=True
    )
    assert report.classification is ViolationClass.COUNTERFACTUAL_LOCAL
    assert report.violated


def test_classifier_soundness_nonlocal_tag_iff_far_setting_unknown():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = run_trial(b, schedule, master_seed=33, trial_index=4)
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, optimal_singlet_settings())
        ledger = trace.observer_a.stage_ledgers()[stage]
        far_free = "θb" in ledger.free_names
        assert bool(report.nonlocal_counterfactuals) == far_free


# -- export ------------------------------------------------------------------------


def test_dataset_csv_shape_and_header():
    ds = run_experiment(config(trials_per_pair=5, seed=1))
    out = io.StringIO()
    dataset_to_csv(ds, out)
    text = out.getvalue()
    lines = text.strip().split("\n")
    assert lines[0].startswith("trial,x,y,a,b,")
    assert len(lines) == 1 + ds.total_trials
    assert lines[1].split(",")[0] == "0"
