"""The acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from bellsim import (
    Angle,
    ExperimentConfig,
    RealismViolationError,
    Stage,
    ViolationClass,
    bayes_invert,
    build_model,
    build_schedule,
    check_factorizable,
    check_no_signaling,
    chsh_expectation,
    chsh_value,
    classify_violation,
    condition,
    condition_table,
    deterministic_lhv_models,
    enumerate_factorizations,
    estimate_behavior,
    estimate_chsh,
    init_beliefs,
    keep_only,
    lhv_behavior,
    marginalize,
    optimal_singlet_settings,
    pr_box,
    pr_box_settings,
    product,
    receive,
    run_experiment,
    singlet_behavior,
    stage_table,
    trace_trials,
)
from bellsim.probability import ImpossibleEvidenceError
from conftest import random_behavior, random_joint, random_lhv

TOL = 1e-12
FACET_TOL = 1e-9


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def optimal_behavior():
    s = optimal_singlet_settings()
    return singlet_behavior((s.x0, s.x1), (s.y0, s.y1))


def test_criterion_01_singlet_chsh_within_four_sigma_under_ten_seconds():
    cfg = ExperimentConfig(trials_per_pair=100000, seed=20260810)
    start = time.perf_counter()
    dataset = run_experiment(cfg, build_model(cfg))
    est = estimate_chsh(dataset, cfg.chsh)
    elapsed = time.perf_counter() - start
    target = 2.0 * math.sqrt(2.0)
    ok = abs(abs(est.value) - target) <= 4.0 * est.stderr and elapsed < 10.0
    _report(
        1,
        "singlet-chsh",
        ok,
        f"|S|={abs(est.value):.4f} ± {est.stderr:.4f}, target {target:.4f}, {elapsed:.2f}s",
    )


def test_criterion_02_box_chsh_exactly_four():
    analytic = chsh_value(pr_box(), pr_box_settings())
    dataset = run_experiment(ExperimentConfig(trials_per_pair=10000, seed=7), pr_box())
    est = estimate_chsh(dataset, pr_box_settings())
    ok = analytic == 4.0 and est.value == 4.0 and est.stderr == 0.0
    _report(2, "box-chsh", ok, f"analytic={analytic}, empirical={est.value} ± {est.stderr}")


def test_criterion_03_hidden_variable_bound():
    settings = pr_box_settings()
    values = [abs(chsh_value(lhv_behavior(m), settings)) for m in deterministic_lhv_models()]
    deterministic_ok = len(values) == 16 and max(values) == 2.0

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        report = check_factorizable(lhv_behavior(random_lhv(rng)))
        worst = max(worst, report.max_facet)
    random_ok = worst <= 2.0 + FACET_TOL
    _report(
        3,
        "hidden-variable-bound",
        deterministic_ok and random_ok,
        f"max deterministic |S|={max(values)}, worst random facet={worst:.12f}",
    )


def test_criterion_04_expectation_form():
    rng = np.random.default_rng(4)
    settings = pr_box_settings()
    worst_gap = 0.0
    for _ in range(100):
        b = random_behavior(rng)
        gap = abs(chsh_expectation(b, settings) - chsh_value(b, settings) / 4.0)
        worst_gap = max(worst_gap, gap)
    lhv_worst = 0.0
    for _ in range(100):
        b = lhv_behavior(random_lhv(rng))
        lhv_worst = max(lhv_worst, abs(chsh_expectation(b, settings)))
    ok = worst_gap <= TOL and lhv_worst <= 0.5 + FACET_TOL / 4.0
    _report(
        4,
        "expectation-form",
        ok,
        f"max |expectation - S/4|={worst_gap:.2e}, max hidden-variable value={lhv_worst:.6f}",
    )


def test_criterion_05_no_signaling_analytic_and_empirical():
    n = 100000
    analytic_ok = True
    empirical_ok = True
    details = []
    for name, behavior in (("singlet", optimal_behavior()), ("box", pr_box())):
        report = check_no_signaling(behavior)
        analytic_ok &= report.passed
        ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=5), behavior)
        pa = ds.counts.sum(axis=3) / n
        pb = ds.counts.sum(axis=2) / n
        dev = max(
            float(np.max(pa.max(axis=1) - pa.min(axis=1))),
            float(np.max(pb.max(axis=0) - pb.min(axis=0))),
        )
        empirical_ok &= dev <= 5.0 / math.sqrt(n)
        details.append(f"{name}: analytic={report.max_deviation:.2e}, empirical={dev:.4f}")
    _report(5, "no-signaling", analytic_ok and empirical_ok, "; ".join(details))


def test_criterion_06_stage_table_equality_column():
    (trace,) = trace_trials(ExperimentConfig(seed=6), optimal_behavior())
    table = stage_table(trace.observer_a, trace.observer_b)
    ok = table.pattern == ("y", "n", "n", "y")
    _report(6, "stage-table", ok, "pattern=" + "".join(table.pattern))


def test_criterion_07_counterfactual_classification_over_100_runs():
    behavior = optimal_behavior()
    schedule = build_schedule()
    settings = optimal_singlet_settings()
    ok = True
    # one trial per pair block, so the 100 runs cycle through the four setting pairs
    standard = ExperimentConfig(trials_per_pair=1, seed=700, schedule=schedule, traced_trials=100)
    for trace in trace_trials(standard, behavior):
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
            report = classify_violation(trace, stage, settings)
            if abs(report.s_value) > 2.0:
                ok &= report.classification is ViolationClass.COUNTERFACTUAL_NONLOCAL
                ok &= "θb" in report.nonlocal_counterfactuals

    cfg = ExperimentConfig(trials_per_pair=500, seed=701, preset_settings=True)
    preset_estimate = estimate_chsh(run_experiment(cfg, build_model(cfg)), settings)
    preset_local = True
    for trace in trace_trials(cfg._replace(trials_per_pair=1, traced_trials=100), behavior):
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION, Stage.COMMUNICATION):
            report = classify_violation(trace, stage, settings, estimate=preset_estimate)
            preset_local &= report.classification in (
                ViolationClass.FACTUAL_LOCAL,
                ViolationClass.COUNTERFACTUAL_LOCAL,
            )
    _report(
        7,
        "counterfactual-classification",
        ok and preset_local,
        "100 standard runs nonlocal-counterfactual, 100 preset runs local",
    )


def test_criterion_08_realism_over_one_million_trials_per_model():
    shared = singlet_behavior((Angle.of(0), Angle.of(1, 2)), (Angle.of(0), Angle.of(1, 2)))
    models = {
        "singlet": optimal_behavior(),
        "singlet-shared-grid": shared,
        "box": pr_box(),
        "hidden-variable": lhv_behavior(random_lhv(np.random.default_rng(8))),
    }
    ok = True
    details = []
    for name, behavior in models.items():
        n_pairs = len(behavior.grid_a) * len(behavior.grid_b)
        per_pair = math.ceil(1_000_000 / n_pairs)
        try:
            ds = run_experiment(ExperimentConfig(trials_per_pair=per_pair, seed=8, keep_records=False), behavior)
        except RealismViolationError as exc:
            ok = False
            details.append(f"{name}: violated ({exc})")
            continue
        dead = behavior.table <= TOL
        clean = not np.any(ds.counts[dead] > 0)
        ok &= clean
        details.append(f"{name}: {ds.total_trials} trials, zero-cell hits={int(ds.counts[dead].sum())}")

    # constructed injection: equal angles with equal outcomes is impossible
    schedule = build_schedule()
    events = schedule.trial_events(Angle.of(0), Angle.of(0), 1, 1)
    state_a, _ = init_beliefs(shared, schedule)
    raised = None
    try:
        for e in schedule.events_for("A", events):
            state_a = receive(state_a, e)
    except RealismViolationError as exc:
        raised = exc
    injection_ok = type(raised) is RealismViolationError
    _report(
        8,
        "realism",
        ok and injection_ok,
        "; ".join(details) + f"; injection raised {type(raised).__name__}",
    )


def test_criterion_09_kernel_property_suite_on_1000_joints():
    rng = np.random.default_rng(9)
    checks = {"normalization": 0.0, "sum-rule": 0.0, "round-trip": 0.0, "bayes": 0.0, "refactor": 0.0}
    ok = True
    for k in range(1000):
        d = random_joint(rng, n_vars=int(rng.integers(2, 4)))

        checks["normalization"] = max(checks["normalization"], abs(float(d.array.sum()) - 1.0))

        name = d.free_names[int(rng.integers(len(d.free_names)))]
        m = marginalize(d, name)
        axis = d.free_names.index(name)
        moved = np.moveaxis(d.array, axis, 0)
        acc = moved[0].copy()
        for i in range(1, moved.shape[0]):
            acc = acc + moved[i]
        ok &= np.array_equal(m.array, acc)

        back = product(condition_table(d, name), keep_only(d, (name,)))
        checks["round-trip"] = max(
            checks["round-trip"],
            float(np.max(np.abs(back.reorder(d.free_names).array - d.array))),
        )

        two = keep_only(d, d.free_names[:2])
        va, vb = two.free
        prior = keep_only(two, (va.name,))
        likelihood = condition_table(two, va.name)
        value = vb.domain[0]
        try:
            direct = keep_only(condition(two, (vb.name, value)), (va.name,))
            posterior = bayes_invert(prior, likelihood, value)
            checks["bayes"] = max(checks["bayes"], float(np.max(np.abs(direct.array - posterior.array))))
        except ImpossibleEvidenceError:
            pass

        if k % 4 == 0:
            for f in enumerate_factorizations(d, ordered_blocks=True):
                checks["refactor"] = max(checks["refactor"], float(np.max(np.abs(f.remultiply(d) - d.array))))
        else:
            f = enumerate_factorizations(d)[0]
            checks["refactor"] = max(checks["refactor"], float(np.max(np.abs(f.remultiply(d) - d.array))))

    ok &= all(v <= TOL for v in checks.values())
    _report(
        9,
        "kernel-properties",
        ok,
        ", ".join(f"{k}={v:.2e}" for k, v in checks.items()),
    )


def test_criterion_10_estimator_calibration_at_sixty_degrees():
    n = 100000
    behavior = singlet_behavior((Angle.of(0),), (Angle.of(1, 3),))
    expected = (1.0 + math.cos(math.pi / 3.0)) / 4.0
    assert expected == 0.375
    ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=10), behavior)
    est = estimate_behavior(ds)
    phat = float(est.behavior.table[0, 0, 0, 1])
    sigma = float(est.stderr[0, 0, 0, 1])
    ok = abs(phat - expected) <= 4.0 * sigma
    _report(10, "estimator-calibration", ok, f"p̂(+,−)={phat:.5f}, expected {expected}, σ={sigma:.5f}")
