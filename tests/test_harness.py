"""Sampling, estimation, and classification against statistical oracles."""

import csv
import io
import json
import math
import os
import sys
import threading
import time
import tracemalloc

import hypothesis
import numpy as np
import pytest

from bellsim import (
    Angle,
    build_model,
    ChshSettings,
    ConfigError,
    Dataset,
    ExperimentConfig,
    LhvModel,
    MissingDataError,
    Modality,
    Stage,
    ViolationClass,
    build_schedule,
    chsh_value,
    classify_violation,
    dataset_to_csv,
    estimate_behavior,
    estimate_chsh,
    init_beliefs,
    lhv_behavior,
    optimal_singlet_settings,
    parse_config,
    pr_box,
    pr_box_settings,
    reception_time,
    run_experiment,
    singlet_behavior,
    stage_table,
    trace_trials,
)
from bellsim import harness
from bellsim.angles import setting_text
from bellsim.harness import CHUNK, DRAWS_PER_TRIAL, _cells, _outcome_words, _word_bounds
from bellsim.models import OUTCOMES, Behavior, behavior_to_csv
from bellsim.spacetime import PREPARED_SYMBOL
from conftest import TRACED_CONFIGS, random_behavior, trial, trial_records, traces_by_run_trial, valid_configs

st = hypothesis.strategies

ZERO = Angle.of(0)
HALF = Angle.of(1, 2)


def optimal_behavior():
    s = optimal_singlet_settings()
    return singlet_behavior((s.x0, s.x1), (s.y0, s.y1))


def uniform_behavior():
    return Behavior((0, 1), (0, 1), np.full((2, 2, 2, 2), 0.25))


# -- counter blocks --------------------------------------------------------------


def _whole_stream(seed, trials):
    """Every word of trials ``0 .. trials-1`` from one ``random_raw`` of the seed's stream."""
    words = np.random.Philox(key=seed).random_raw(trials * DRAWS_PER_TRIAL)
    return words.reshape(trials, DRAWS_PER_TRIAL)


def test_substreams_tile_the_batch():
    batch = _whole_stream(99, 64)
    for i in (0, 1, 17, 63):
        ((trial, words),) = _outcome_words(np.random.Philox(key=99).advance(i), i, 1)
        assert trial == i and np.array_equal(words, batch[i, 2:3])


def test_block_uniforms_slice_the_batch(monkeypatch):
    # blocks of 7 trials, so most streams end mid-block and some start mid-block of the batch
    monkeypatch.setattr(harness, "BLOCK", 7)
    batch = _whole_stream(7, 100)
    for start, count in ((30, 20), (0, 100), (0, 1), (1, 1), (17, 1), (99, 1), (3, 14)):
        blocks = list(_outcome_words(np.random.Philox(key=7).advance(start), start, count))
        assert [trial for trial, _ in blocks] == list(range(start, start + count, 7))
        assert all(len(words) <= 7 for _, words in blocks)
        assert np.array_equal(np.concatenate([words for _, words in blocks]), batch[start : start + count, 2])


def test_trial_is_deterministic():
    b = optimal_behavior()
    cfg = ExperimentConfig(trials_per_pair=5, seed=3, schedule=build_schedule(), traced_trials=20)
    records = trial_records(trace_trials(cfg, b))
    assert records == trial_records(trace_trials(cfg, b))
    assert records != trial_records(trace_trials(cfg._replace(seed=4), b))


# -- trace_trials ------------------------------------------------------------------


def test_equal_angles_always_anticorrelated():
    # the equal-angle pair is the first pair block
    b = singlet_behavior((ZERO, HALF), (ZERO, HALF))
    traces = trace_trials(ExperimentConfig(trials_per_pair=50, seed=11, traced_trials=50), b)
    for t in traces:
        assert (t.theta_a, t.theta_b) == (ZERO, ZERO)
        assert t.outcome_a == -t.outcome_b


def test_box_at_both_ones_always_anticorrelated():
    # (1, 1) is the last of the four pair blocks
    traces = trace_trials(ExperimentConfig(trials_per_pair=50, seed=11, traced_trials=200), pr_box())
    for t in traces[150:]:
        assert (t.theta_a, t.theta_b) == (1, 1)
        assert t.outcome_a == -t.outcome_b


def test_trial_data_extraction_matches_sampled_values():
    b = optimal_behavior()
    schedule = build_schedule()
    for t in trace_trials(ExperimentConfig(trials_per_pair=1, seed=2, schedule=schedule, traced_trials=20), b):
        assert t.pooled.data == {
            "±a": t.outcome_a,
            "θa": t.theta_a,
            "±b": t.outcome_b,
            "θb": t.theta_b,
        }


# -- trace_trials ------------------------------------------------------------------


_PRESETS = {"pair-blocks": (False, None), "preset-settings": (True, None), "preset-pair": (True, (1, 0))}


@pytest.mark.parametrize("preset_settings, preset_pair, n",
                         [(*preset, n) for n in (5, 1, 8) for preset in _PRESETS.values()],
                         ids=[name if n == 5 else f"{name}-{n}-per-pair" for n in (5, 1, 8) for name in _PRESETS])
def test_one_traced_stream_draws_what_the_pair_blocks_drew(monkeypatch, preset_settings, preset_pair, n):
    # blocks of 7 words on a 2x2 grid.  At 5 trials per pair, blocks split mid pair block
    # and pair blocks mid word block, and the 47 traced trials run past the run's 20, so
    # the pair blocks wrap around twice.  At 1 per pair every trial is its own pair block,
    # and at 8, one more than a block, no pair block fits in one word block
    monkeypatch.setattr(harness, "BLOCK", 7)
    calls = []

    def outcome_words(bits, start, count):
        state = bits.state["state"]
        calls.append((int(state["key"][0]), state["counter"].tolist(), start, count))
        yield from _outcome_words(bits, start, count)

    monkeypatch.setattr(harness, "_outcome_words", outcome_words)
    behavior = random_behavior(np.random.default_rng(7))
    pairs, seed, total = behavior.pairs(), 29, 47
    config = ExperimentConfig(trials_per_pair=n, seed=seed, traced_trials=total,
                              preset_settings=preset_settings, preset_pair=preset_pair)
    traces = trace_trials(config, behavior)
    assert calls == [(seed, [0, 0, 0, 0], 0, total)]
    whole = np.random.Philox(key=seed).random_raw(DRAWS_PER_TRIAL * total)[2::DRAWS_PER_TRIAL]
    for k, t in enumerate(traces):
        pair = preset_pair or pairs[(k // n) % len(pairs)]
        (bounds,) = _word_bounds(behavior.slice(*pair))
        cell = sum(int(whole[k]) >= b for b in bounds)
        assert (t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) == (*pair, *harness.CELL_OUTCOMES[cell]), k
    assert len(traces) == total


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
    keys = {(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for t in want}
    assert len(keys) < len(want)  # some histories really are shared
    assert trial_records(got) == trial_records(want)
    for g, w in zip(got, want):
        assert g.pooled.data == w.pooled.data
        assert _same_ledger(g.pooled.ledger, w.pooled.ledger)
        for gs, ws in ((g.observer_a, w.observer_a), (g.observer_b, w.observer_b)):
            gl, wl = gs.stage_ledgers(), ws.stage_ledgers()
            assert list(gl) == list(wl)
            assert all(_same_ledger(gl[stage], wl[stage]) for stage in wl)
            assert list(gs.qs.items()) == list(ws.qs.items())
            assert gs.clock == ws.clock


def test_trials_with_one_key_are_one_trace():
    # a traced trial is its position in the list plus its (settings, outcome cell) history
    config = ExperimentConfig(traced_trials=2**14)
    traces = trace_trials(config, build_model(config))
    keys = {(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for t in traces}
    assert len(traces) == 2**14
    assert len({id(t) for t in traces}) == len(keys) <= 16


def _trace_peak(config, behavior) -> int:
    tracemalloc.start()
    try:
        trace_trials(config, behavior)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_memory_grows_by_a_reference_per_traced_trial():
    small, large = (ExperimentConfig(traced_trials=n) for n in (2**10, 2**14))
    behavior = build_model(large)
    trace_trials(small, behavior)  # warm caches that are built once per process
    small_peak, large_peak = (_trace_peak(c, behavior) for c in (small, large))
    # a new object per trial would take about 200 bytes each, over 3 MB for 15 * 2^10 more trials
    assert large_peak < small_peak + 2**20


def test_traced_time_per_trial_does_not_depend_on_trials_per_pair():
    # one preset pair, so both runs trace the same keys and build the same ledgers; at 1
    # trial per pair every trial is its own pair block, at 2^13 they are all one
    behavior, best = pr_box(), {1: math.inf, 2**13: math.inf}
    for _ in range(3):
        for n in best:
            config = ExperimentConfig(trials_per_pair=n, traced_trials=2**13, preset_settings=True, preset_pair=(1, 0))
            start = time.perf_counter()
            trace_trials(config, behavior)
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[1] <= 4 * best[2**13], best


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
        root = (t.theta_a, t.theta_b) if config.preset_settings else None
        roots.add(root)
        events = schedule.trial_events(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b)
        for observer in ("A", "B"):
            received = [e.payload.proposition for e in schedule.events_for(observer, events)]
            nodes.update((observer, root, tuple(received[:i])) for i in range(1, len(received) + 1))
    keys = {(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for t in traces}
    assert len(nodes) < 8 * len(keys)  # not vacuous: the keys share received prefixes
    assert calls["receive"] == len(nodes)
    assert calls["init_beliefs"] == len(roots)


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_the_data_point_is_each_reported_qs_mode_with_ties_to_the_lowest_index(name):
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    traces = trace_trials(config, build_model(config))
    for t in traces:
        qs = {**t.observer_b.qs, **t.observer_a.qs}
        modes = {}
        for v in t.pooled.ledger.free:
            weights = qs[v.name].array
            modes[v.name] = v.domain[int(np.flatnonzero(weights == weights.max())[0])]
        assert t.pooled.data == modes
    if config.unresolved_local_setting:
        # A's uniform q over θa ties everywhere, so θa's data point is grid_a[0] whatever the trial drew
        assert {t.pooled.data["θa"] for t in traces} == {config.grid_a[0]}
        assert any(t.theta_a != config.grid_a[0] for t in traces)


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_each_observer_received_exactly_its_own_trial_events(name):
    # a shared history must never hand one trial's events to another: each observer
    # holds a record of every proposition its own trial's events carry and of nothing
    # else, at the trial's values, and its clock stops at the last of those events
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    schedule = config.schedule
    for t in trace_trials(config, build_model(config)):
        events = schedule.trial_events(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b)
        assert t.events == events
        for state in (t.observer_a, t.observer_b):
            own = schedule.events_for(state.observer, events)
            received = dict(e.payload.proposition for e in own)
            assert state.qs.keys() == received.keys()
            for name, q in state.qs.items():
                # a flat q (an unresolved setting) has no value to compare
                assert q.mode == received[name] or q.array.min() == q.array.max(), (state.observer, name)
            assert state.clock == reception_time(own[-1], state.worldline)


@pytest.mark.parametrize("doc", [{}, *TRACED_CONFIGS.values()], ids=["default", *TRACED_CONFIGS])
def test_a_value_is_factual_only_once_its_event_has_reached_the_observer(doc):
    config = parse_config(json.dumps(doc))
    assert_light_cone(config, trace_trials(config, build_model(config)))


@hypothesis.settings(deadline=None, max_examples=200, derandomize=True)
@hypothesis.given(doc=valid_configs())
def test_a_value_is_factual_only_once_its_event_has_reached_the_observer_on_drawn_configs(doc):
    config, _, traces = drawn_run(doc)
    assert_light_cone(config, traces)


@hypothesis.settings(deadline=None, max_examples=200, derandomize=True)
@hypothesis.given(doc=valid_configs())
def test_the_stage_table_reads_ynny_outside_preset_mode_on_drawn_configs(doc):
    # the observers' ledgers agree at t0 and at tc and nowhere in between: each has
    # received only its own wing's data at tθ and t±, and both hold all of it at tc,
    # on every layout that build_schedule accepts, for every model and uncertainty
    doc = {k: v for k, v in doc.items() if k != "preset_pair"} | {"preset_settings": False}
    _, _, traces = drawn_run(doc)
    for t in traces:
        assert stage_table(t.observer_a, t.observer_b).pattern == tuple("ynny")


def drawn_run(doc):
    """``doc``'s config with at least one traced trial, its behavior and its traced trials."""
    config = parse_config(json.dumps(doc))
    config = config._replace(traced_trials=max(config.traced_trials, 1))
    behavior = build_model(config)
    return config, behavior, trace_trials(config, behavior)


def assert_light_cone(config, traces):
    # the light-cone oracle, from spacetime alone: every factual value in a stage's
    # ledger belongs to one of the trial's events whose signal reaches the observer
    # no later than that stage begins.  The stage label, the prepared state and
    # pre-agreed settings are protocol knowledge, known from the start.  Before
    # tc, outside preset mode, the far setting is never factual.
    schedule = config.schedule
    begins = dict(zip(Stage, (schedule.t_prepare, schedule.t_setting, schedule.t_detection, schedule.t_communication)))
    known = {s.value for s in Stage} | {PREPARED_SYMBOL}
    if config.preset_settings:
        known |= {"θa", "θb"}
    checked = 0
    for t in traces:
        events = schedule.trial_events(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b)
        for state in (t.observer_a, t.observer_b):
            arrival = {}
            for e in events:
                proposition = e.payload.proposition
                arrival[proposition] = min(arrival.get(proposition, math.inf), reception_time(e, state.worldline))
            far = "θb" if state.observer == "A" else "θa"
            for stage, ledger in state.stage_ledgers().items():
                for c in ledger.conditioners:
                    if c.modality is Modality.FACTUAL and c.variable.name not in known:
                        where = (state.observer, stage.value, c.variable.name)
                        assert arrival.get((c.variable.name, c.value), math.inf) <= begins[stage] + 1e-12, where
                        checked += 1
                if not config.preset_settings and stage is not Stage.COMMUNICATION:
                    assert far in ledger.free_names, (state.observer, stage.value)
            # a spread reception leaves its name free, but it is received all the same
            for name in state.qs.keys() - known:
                assert min(when for (n, _), when in arrival.items() if n == name) <= state.clock + 1e-12
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_ledgers_before_communication_depend_only_on_local_data(name):
    # factuality is informational locality: until the reports arrive, an observer's
    # ledgers are fixed by its own setting and outcome (and, when settings are
    # pre-agreed, by the far setting it knows from t0)
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    local = {}
    histories = {}
    for t in trace_trials(config, build_model(config)):
        for state, own in ((t.observer_a, (t.theta_a, t.outcome_a)), (t.observer_b, (t.theta_b, t.outcome_b))):
            key = (state.observer, *own, (t.theta_a, t.theta_b) if config.preset_settings else None)
            ledgers = state.stage_ledgers()
            seen = tuple(
                (ledgers[s].render(), ledgers[s].array.tobytes())
                for s in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION)
            )
            assert local.setdefault(key, seen) == seen
            histories.setdefault(key, set()).add((t.theta_a, t.theta_b, t.outcome_a, t.outcome_b))
    # not vacuous: some key is reached by more than one (setting pair, outcome cell)
    assert max(len(h) for h in histories.values()) >= 2


# -- run_experiment ----------------------------------------------------------------


def experiment(cfg: ExperimentConfig):
    return run_experiment(cfg, build_model(cfg))


def use_cpus(monkeypatch, n: int):
    """Give the process an affinity mask of ``n`` CPUs, whatever the host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_single_trial_counts_one_hot():
    ds = experiment(ExperimentConfig(trials_per_pair=1, seed=5))
    assert ds.total_trials == 4
    for i in range(2):
        for j in range(2):
            assert ds.counts[i, j].sum() == 1


def test_records_that_cannot_be_allocated_are_a_config_error():
    # 2^62 one-byte records: the count bound holds, no allocator can give them
    with pytest.raises(ConfigError) as info:
        experiment(ExperimentConfig(trials_per_pair=2**60))
    ((path, reason),) = info.value.errors
    assert path == "trials_per_pair" and reason.startswith("too many trials to keep every record")


def test_fewer_than_one_trial_per_pair_is_rejected():
    # ExperimentConfig does not validate its fields; parse_config does
    with pytest.raises(ValueError, match="at least one trial"):
        run_experiment(ExperimentConfig(trials_per_pair=0), pr_box())


@pytest.mark.parametrize("traced", [0, 1])
def test_tracing_fewer_than_one_trial_per_pair_is_rejected(traced):
    with pytest.raises(ValueError, match="need at least one trial per setting pair"):
        trace_trials(ExperimentConfig(trials_per_pair=0, traced_trials=traced), pr_box())


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
    # the last threshold is 2**53, which no word reaches, so it has no bound
    (bounds,) = _word_bounds(slab)
    assert len(bounds) == 2
    assert np.all(_cells(words, bounds, np.zeros(len(words), dtype=np.uint8)) < 3)


def test_uniform_cells_concentrate():
    n = 100000
    ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=77), uniform_behavior())
    bound = 4.0 * math.sqrt(n * 0.25 * 0.75)
    assert np.max(np.abs(ds.counts - n / 4.0)) <= bound


def test_parallel_execution_is_bit_identical(monkeypatch):
    c1 = ExperimentConfig(trials_per_pair=4000, seed=13)
    use_cpus(monkeypatch, 1)
    d1 = experiment(c1)
    # four CPUs on any host, a thread per 1000 trials and words in blocks of 300:
    # four threads split each pair block into four parts, none of them whole blocks
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(harness, "CHUNK", 1000)
    monkeypatch.setattr(harness, "BLOCK", 300)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started.clear()
    d4 = experiment(c1)
    assert len(CountingThread.started) == 4 * 3
    assert np.array_equal(d1.counts, d4.counts)
    assert np.array_equal(d1.records, d4.records)


def test_chunk_boundaries_do_not_change_any_draw(monkeypatch):
    # one CPU, then two on any host, so two threads split each pair block at CHUNK + 1
    b, n, seed = optimal_behavior(), 2 * CHUNK + 3, 19
    schedule = build_schedule()
    cfg = ExperimentConfig(trials_per_pair=n, seed=seed)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started.clear()
    use_cpus(monkeypatch, 1)
    d1 = run_experiment(cfg, b)
    use_cpus(monkeypatch, 2)
    d2 = run_experiment(cfg, b)
    assert len(CountingThread.started) == 4
    assert np.array_equal(d1.records, d2.records)
    assert np.array_equal(d1.counts, d2.counts)

    # unchunked oracle: every pair block sampled from one slice of the whole stream
    u = np.random.Generator(np.random.Philox(key=seed)).random((4 * n, DRAWS_PER_TRIAL))[:, 2]
    slabs = b.table.reshape(4, 4)
    cum = np.cumsum(slabs, axis=1)
    cum[:, -1] = 1.0  # every cell is live, so the float shortfall fix only closes the last interval
    oracle = np.concatenate([np.searchsorted(cum[p], u[p * n : (p + 1) * n], side="right") for p in range(4)])
    assert np.array_equal(d1.records, oracle)

    out = io.BytesIO()
    dataset_to_csv(d1, schedule, out)
    rows = out.getvalue().decode("utf-8").split("\n")
    traced = ExperimentConfig(trials_per_pair=n, seed=seed, schedule=schedule, traced_trials=3 * n + 3)
    traces = trace_trials(traced, b)
    for k in (0, CHUNK - 1, CHUNK, CHUNK + 1, n, 3 * n + 2):
        t = traces[k]
        fields = rows[k + 1].split(",")
        assert fields[0] == str(k)
        assert (int(fields[3]), int(fields[4])) == (t.outcome_a, t.outcome_b)


class CountingThread(threading.Thread):
    """A thread that records each start, so a test sees how many helper threads a run used."""

    started = []

    def start(self):
        self.started.append(self)
        super().start()


@pytest.mark.parametrize("behavior", [optimal_behavior(), pr_box()], ids=["singlet", "pr-box"])
def test_one_worker_samples_in_the_calling_thread(monkeypatch, behavior):
    # two CPUs on any host and 2 * CHUNK + 3 trials per pair, so two threads split
    # every pair block into two parts, whose edge falls mid-block
    use_cpus(monkeypatch, 2)
    cfg = ExperimentConfig(trials_per_pair=2 * CHUNK + 3, seed=29)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started.clear()
    threaded = run_experiment(cfg, behavior)
    assert len(CountingThread.started) == 4

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-thread run started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    use_cpus(monkeypatch, 1)
    inline = run_experiment(cfg, behavior)
    counts_only = run_experiment(cfg._replace(keep_records=False), behavior)
    assert np.array_equal(inline.records, threaded.records)
    assert np.array_equal(inline.counts, threaded.counts)
    assert np.array_equal(counts_only.counts, threaded.counts)
    # on two CPUs, a pair block too small for a second CHUNK also stays in the calling thread
    use_cpus(monkeypatch, 2)
    small = run_experiment(cfg._replace(trials_per_pair=2 * CHUNK - 1), behavior)
    assert small.total_trials == 4 * (2 * CHUNK - 1)


def behavior_with_zero_cells():
    table = random_behavior(np.random.default_rng(31), 2, 3).table.copy()
    # zero cells leading, in the middle, trailing, and two trailing at once
    table[0, 0, 0, 0] = table[0, 1, 0, 1] = table[1, 0, 1, 1] = 0.0
    table[1, 2, 1, :] = 0.0
    return Behavior((0, 1), (0, 1, 2), table / table.sum(axis=(2, 3), keepdims=True))


def certain_behavior():
    # one certain cell per pair, first to last: its pairs have no bound, then one,
    # two and three bounds, all equal to 0
    return Behavior((0, 1), (0, 1), np.eye(4).reshape(2, 2, 2, 2))


def test_thread_parts_and_word_blocks_do_not_change_any_draw(monkeypatch):
    behaviors, n = (pr_box(), optimal_behavior(), behavior_with_zero_cells(), certain_behavior()), 101
    whole = {(i, keep): run_experiment(ExperimentConfig(trials_per_pair=n, seed=23, keep_records=keep), b)
             for i, b in enumerate(behaviors) for keep in (True, False)}
    # one to three CPUs on any host, a thread per 4 trials and words in blocks of 7:
    # the 101 trials of a pair split at 50, or at 33 and 67, and no part is whole blocks
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(harness, "BLOCK", 7)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    sizes = []

    def outcome_words(*args):
        for trial, words in _outcome_words(*args):
            sizes.append(len(words))
            yield trial, words

    monkeypatch.setattr(harness, "_outcome_words", outcome_words)
    # switch threads as often as the interpreter can, so parts that shared state would interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for (i, keep), expected in whole.items():
            for cpus in (1, 2, 3):
                use_cpus(monkeypatch, cpus)
                CountingThread.started.clear()
                cfg = ExperimentConfig(trials_per_pair=n, seed=23, keep_records=keep)
                ds = run_experiment(cfg, behaviors[i])
                # trial k still draws counter block k
                assert np.array_equal(ds.counts, expected.counts)
                assert np.array_equal(ds.records, expected.records)
                # cpus - 1 helper threads per pair, each joined before the run returns
                assert len(CountingThread.started) == ds.n_per_pair.size * (cpus - 1)
                assert not any(t.is_alive() for t in CountingThread.started)
    finally:
        sys.setswitchinterval(interval)
    # no thread ever held more than one block of words
    assert max(sizes) == 7 and min(sizes) < 7


@pytest.mark.parametrize("make", [pr_box, optimal_behavior, behavior_with_zero_cells, certain_behavior])
def test_counts_without_records_match_the_records(monkeypatch, make):
    # two CPUs on any host and a thread per 4 trials, so two threads split each pair block mid-block
    b, n = make(), CHUNK + 3
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started.clear()
    kept = run_experiment(ExperimentConfig(trials_per_pair=n, seed=23), b)
    bare = run_experiment(ExperimentConfig(trials_per_pair=n, seed=23, keep_records=False), b)
    assert len(CountingThread.started) == 2 * b.table.shape[0] * b.table.shape[1]
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
    # two CPUs on any host, and a thread for every 4 trials
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    cfg = ExperimentConfig(trials_per_pair=8, seed=3)
    CountingThread.started.clear()
    ds = run_experiment(cfg, pr_box())
    assert ds.total_trials == 32
    # one helper per pair beside the calling thread: two threads in all
    assert len(CountingThread.started) == 4
    # on one CPU, the run samples in the calling thread
    use_cpus(monkeypatch, 1)
    CountingThread.started.clear()
    assert run_experiment(cfg, pr_box()).total_trials == 32
    assert CountingThread.started == []


def test_progress_reports_each_pair_once_in_order_after_its_parts_are_joined(monkeypatch, capsys):
    # two CPUs on any host and a thread per 4 trials, so two threads split each pair block
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    cfg = ExperimentConfig(trials_per_pair=8, seed=3)
    CountingThread.started.clear()
    quiet = run_experiment(cfg, pr_box())
    assert capsys.readouterr() == ("", "")  # no progress, no output
    CountingThread.started.clear()
    seen = []

    def progress(pair):
        assert not any(t.is_alive() for t in CountingThread.started)
        seen.append((pair, len(CountingThread.started)))

    assert np.array_equal(run_experiment(cfg, pr_box(), progress=progress).counts, quiet.counts)
    # pair i is reported once its own helper, the i-th, is joined, and before the next starts
    assert seen == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert capsys.readouterr() == ("", "")


def test_threads_are_capped_at_the_cpus_the_process_may_run_on(monkeypatch):
    # a thread for every 4 trials, on a host that has 64 CPUs
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = ExperimentConfig(trials_per_pair=101, seed=3)

    def helpers_per_pair():
        CountingThread.started.clear()
        assert run_experiment(cfg, pr_box()).total_trials == 4 * 101
        return len(CountingThread.started) / 4

    # an affinity mask of two CPUs, as under taskset, or of one
    for mask, helpers in (({0, 5}, 1), ({3}, 0)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask, raising=False)
        assert helpers_per_pair() == helpers
    # without an affinity mask, every CPU; and one if even their number is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    assert helpers_per_pair() == 24  # a thread per 4 of the 101 trials
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert helpers_per_pair() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert helpers_per_pair() == 0


def test_an_error_in_a_helper_thread_reaches_the_caller(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "CHUNK", 4)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    CountingThread.started.clear()

    def outcome_words(bits, start, count):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"part from trial {start} failed")
        yield from _outcome_words(bits, start, count)

    monkeypatch.setattr(harness, "_outcome_words", outcome_words)
    with pytest.raises(RuntimeError, match="part from trial 4 failed"):
        run_experiment(ExperimentConfig(trials_per_pair=8, seed=3), pr_box())
    # the first pair's helper failed, and it was joined before the error was raised
    assert len(CountingThread.started) == 1 and not CountingThread.started[0].is_alive()


@pytest.mark.parametrize("keep", [True, False], ids=["records", "counts"])
def test_each_sampling_part_builds_one_stream_per_run(monkeypatch, keep):
    # three CPUs and a thread per 4 trials: the 101 trials of each of the 6 pairs split
    # into parts of 33, 34 and 34, so each part's stream skips 67 or 68 trials between pairs
    cfg = ExperimentConfig(trials_per_pair=101, seed=23, keep_records=keep)
    whole = run_experiment(cfg, behavior_with_zero_cells())
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(harness, "CHUNK", 4)
    keys, philox = [], np.random.Philox

    def counted(*args, **kwargs):
        keys.append(kwargs["key"])
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    ds = run_experiment(cfg, behavior_with_zero_cells())
    assert keys == [23] * 3
    assert np.array_equal(ds.counts, whole.counts) and np.array_equal(ds.records, whole.records)


def test_a_part_whose_thread_cannot_start_is_sampled_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 4)
    refused = []

    class ScarceThread(CountingThread):
        def start(self):
            if (len(CountingThread.started) + len(refused)) % 2:
                refused.append(self)
                raise RuntimeError("can't start new thread")
            super().start()

    cfg = ExperimentConfig(trials_per_pair=101, seed=31)
    use_cpus(monkeypatch, 1)
    whole = run_experiment(cfg, behavior_with_zero_cells())
    # as under an address-space limit on a host with many CPUs: every other helper fails to start
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(threading, "Thread", ScarceThread)
    CountingThread.started.clear()
    ds = run_experiment(cfg, behavior_with_zero_cells())
    assert len(CountingThread.started) == len(refused) == 9
    assert np.array_equal(ds.counts, whole.counts)
    assert np.array_equal(ds.records, whole.records)


def test_records_can_be_dropped():
    ds = experiment(ExperimentConfig(trials_per_pair=100, keep_records=False))
    assert ds.records.size == 0
    assert ds.total_trials == 400
    with pytest.raises(MissingDataError):
        dataset_to_csv(ds, build_schedule(), io.BytesIO())


def _one_cell_records(bad):
    records = np.zeros(300, dtype=np.int64)
    records[120] = bad
    return records


@pytest.mark.parametrize("records", [
    # a cell past the last would write another trial's number: trial 120's row read 121,...
    _one_cell_records(4),
    # a negative cell would wrap to 255 in the uint8 store
    np.full(300, -1),
    _one_cell_records(256),
    np.zeros(300, dtype=float),
    np.zeros(300, dtype=bool),
], ids=["cell-4", "all-minus-1", "wraps-to-0", "float", "bool"])
def test_dataset_rejects_a_record_that_is_not_a_cell(records):
    counts = np.zeros((1, 1, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 300
    with pytest.raises(ValueError, match=r"records must be integer cells in 0\.\.3"):
        Dataset((0,), (0,), counts, records)


@pytest.mark.parametrize("counts, records, message", [
    (np.zeros((1, 2, 2, 2)), (), r"counts shape \(1, 2, 2, 2\), expected \(1, 1, 2, 2\)"),
    ([[[[3, -1], [1, 0]]]], (), "counts must be non-negative"),
    ([[[[3, 0], [0, 0]]]], [0, 0], "2 records for 3 trials"),
    # a float, bool or out-of-range count is not a count: none may be truncated into one
    ([[[[1.5, 0.9], [0, 2]]]], (), "counts must be integers, not float64"),
    ([[[[True, False], [False, True]]]], (), "counts must be integers, not bool"),
    ([[[[2**70, 0], [0, 0]]]], (), "counts must be integers, not object"),
    # a uint64 count past the int64 maximum is too large, not negative
    (np.array([[[[2**63, 0], [0, 0]]]], dtype=np.uint64), (), r"counts must be at most 2\*\*63 - 1"),
    (np.array([[[[0, 0], [0, 2**64 - 1]]]], dtype=np.uint64), (), r"counts must be at most 2\*\*63 - 1"),
], ids=["counts-shape", "negative-count", "records-not-the-trial-total", "float-counts", "bool-counts",
        "count-past-int64", "uint64-count-2-63", "uint64-count-2-64-minus-1"])
def test_dataset_rejects_counts_and_records_that_do_not_fit_its_grids(counts, records, message):
    with pytest.raises(ValueError, match=message):
        Dataset((0,), (0,), counts, records)


@pytest.mark.parametrize(
    "grid_a, grid_b, name", [((0, 0), (0, 1), "grid_a"), ((0, 1), (1, 1), "grid_b")], ids=["grid_a", "grid_b"]
)
def test_a_behavior_and_a_dataset_reject_a_grid_that_repeats_a_setting(grid_a, grid_b, name):
    # a repeated setting would be read at its first copy and sampled at both
    with pytest.raises(ValueError, match=f"^{name} repeats a setting"):
        Behavior(grid_a, grid_b, np.full((2, 2, 2, 2), 0.25))
    with pytest.raises(ValueError, match=f"^{name} repeats a setting"):
        Dataset(grid_a, grid_b, np.ones((2, 2, 2, 2), dtype=int))


def test_dataset_keeps_a_uint64_count_at_the_int64_maximum():
    counts = np.array([[[[2**63 - 1, 0], [0, 0]]]], dtype=np.uint64)
    assert Dataset((0,), (0,), counts).counts.tolist() == [[[[2**63 - 1, 0], [0, 0]]]]


def test_dataset_rejects_records_that_disagree_with_the_counts():
    # every count in cell (+1, +1) but every record in cell (-1, -1): dataset.csv and
    # summary.json would disagree
    counts = np.zeros((1, 1, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = 300
    with pytest.raises(ValueError, match=r"records at setting pair \(0, 0\) disagree with its counts"):
        Dataset((0,), (0,), counts, np.full(300, 3))
    # the right cells in the wrong pair blocks: the totals agree, the pairs' tallies do not
    counts = np.zeros((1, 2, 2, 2), dtype=int)
    counts[0, 0, 0, 0] = counts[0, 1, 1, 1] = 2
    with pytest.raises(ValueError, match=r"records at setting pair \(0, 0\) disagree with its counts"):
        Dataset((0,), (0, 1), counts, [0, 3, 0, 3])
    assert Dataset((0,), (0, 1), counts, [0, 0, 3, 3]).records.tolist() == [0, 0, 3, 3]


def test_dataset_checks_its_records_in_bounded_memory():
    # a records run holds its 1-byte records and no per-record copy of them: the
    # tally check may not widen a whole pair block at once
    n = 2**22
    records = np.tile(np.arange(4, dtype=np.uint8), n)
    counts = np.full((2, 2, 2, 2), n // 4)
    tracemalloc.start()
    try:
        ds = Dataset((ZERO, HALF), (ZERO, HALF), counts, records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(ds.records, records)
    assert peak < records.nbytes // 16


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


def test_chsh_estimate_names_a_chosen_pair_with_no_trials():
    counts = np.zeros((2, 2, 2, 2), dtype=int)
    counts[:, :, 0, 0] = 5
    counts[1, 1] = 0
    with pytest.raises(MissingDataError, match=r"^no trials for setting pair \(1, 1\)$"):
        estimate_chsh(Dataset((0, 1), (0, 1), counts), pr_box_settings())


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
    (trace,) = trace_trials(ExperimentConfig(seed=21, schedule=schedule), b)
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
        (trace,) = trace_trials(ExperimentConfig(seed=i), b)
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
            assert classify_violation(trace, stage, settings).s_value == chsh_value(b, settings)


def test_counterfactual_list_tracks_stage():
    b = optimal_behavior()
    schedule = build_schedule()
    (trace,) = trace_trials(ExperimentConfig(seed=21, schedule=schedule), b)
    r0 = classify_violation(trace, Stage.INITIAL, optimal_singlet_settings())
    rt = classify_violation(trace, Stage.SETTING, optimal_singlet_settings())
    assert r0.counterfactual_conditioners == ("θa", "θb")
    assert rt.counterfactual_conditioners == ("θb",)


def test_classifying_a_stage_the_observer_never_reached_is_an_error():
    (trace,) = trace_trials(ExperimentConfig(seed=21), optimal_behavior())
    start, _ = init_beliefs(trace.behavior, build_schedule())
    unreached = trace._replace(pooled=trace.pooled._replace(observer_a=start))
    with pytest.raises(ValueError, match="stage tθ not in trace"):
        classify_violation(unreached, Stage.SETTING, optimal_singlet_settings())


def test_far_setting_is_nonlocal_for_observer_b_too():
    (trace,) = trace_trials(ExperimentConfig(seed=21), optimal_behavior())
    settings = optimal_singlet_settings()
    r0 = classify_violation(trace, Stage.INITIAL, settings, observer="B")
    assert r0.counterfactual_conditioners == ("θa", "θb")
    for stage in (Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, settings, observer="B")
        assert report.observer == "B"
        assert report.classification is ViolationClass.COUNTERFACTUAL_NONLOCAL
        assert report.counterfactual_conditioners == ("θa",)
        assert report.nonlocal_counterfactuals == ("θa",)


def test_classify_violation_rejects_an_unknown_observer():
    (trace,) = trace_trials(ExperimentConfig(seed=21), optimal_behavior())
    with pytest.raises(ValueError, match="'C'"):
        classify_violation(trace, Stage.SETTING, optimal_singlet_settings(), observer="C")


def test_communication_stage_is_factual_local():
    cfg = ExperimentConfig(trials_per_pair=2000, seed=9)
    ds = experiment(cfg)
    b = optimal_behavior()
    (trace,) = trace_trials(cfg, b)
    report = classify_violation(trace, Stage.COMMUNICATION, cfg.chsh, estimate=estimate_chsh(ds, cfg.chsh))
    assert report.classification is ViolationClass.FACTUAL_LOCAL
    assert report.violated
    assert report.s_stderr > 0.0


def test_single_experiment_with_factual_settings_not_applicable():
    b = optimal_behavior()
    (trace,) = trace_trials(ExperimentConfig(seed=9), b)
    report = classify_violation(trace, Stage.COMMUNICATION, optimal_singlet_settings())
    assert report.classification is ViolationClass.NOT_APPLICABLE
    assert report.s_value is None


def test_preset_run_classified_local():
    # before tc the pre-agreed settings are factual, so only their alternates can be
    # posited and the sum is local; at tc the pooled estimate is factual and local
    cfg = ExperimentConfig(trials_per_pair=1000, seed=10, preset_settings=True)
    est = estimate_chsh(experiment(cfg), cfg.chsh)
    b = optimal_behavior()
    (trace,) = trace_trials(cfg, b)
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
        for observer in ("A", "B"):
            report = classify_violation(trace, stage, cfg.chsh, estimate=est, observer=observer)
            assert report.classification is ViolationClass.COUNTERFACTUAL_LOCAL
            assert report.s_value == chsh_value(b, cfg.chsh)
            assert not report.nonlocal_counterfactuals
    report = classify_violation(trace, Stage.COMMUNICATION, cfg.chsh, estimate=est)
    assert report.classification is ViolationClass.FACTUAL_LOCAL
    assert report.s_value == est.value


def test_preset_posited_alternates_are_counterfactual_local():
    b = optimal_behavior()
    (trace,) = trace_trials(ExperimentConfig(seed=10, preset_settings=True), b)
    report = classify_violation(trace, Stage.SETTING, optimal_singlet_settings())
    assert report.classification is ViolationClass.COUNTERFACTUAL_LOCAL
    assert report.counterfactual_conditioners == ("θa", "θb")
    assert report.nonlocal_counterfactuals == ()
    assert report.violated


@hypothesis.settings(deadline=None, max_examples=200, derandomize=True)
@hypothesis.given(doc=valid_configs())
def test_every_verdict_is_read_from_the_observers_ledger(doc):
    # before tc the sum is the analytic one and never factual: the far setting is
    # posited, and the verdict nonlocal, exactly when it is free in that ledger, and
    # pre-agreed settings leave only the alternates of both to posit.  At tc the
    # pooled estimate is factual and local, and without one there is no verdict.
    config, behavior, traces = drawn_run(doc)
    est = estimate_chsh(run_experiment(config, behavior), config.chsh)
    for t in traces:
        for observer, state in (("A", t.observer_a), ("B", t.observer_b)):
            far = "θb" if observer == "A" else "θa"
            for stage, ledger in state.stage_ledgers().items():
                report = classify_violation(t, stage, config.chsh, estimate=est, observer=observer)
                if stage is Stage.COMMUNICATION:
                    assert report.classification is ViolationClass.FACTUAL_LOCAL
                    assert (report.s_value, report.s_stderr) == (est.value, est.stderr)
                    bare = classify_violation(t, stage, config.chsh, observer=observer)
                    assert bare.classification is ViolationClass.NOT_APPLICABLE and bare.s_value is None
                    continue
                where = (observer, stage.value)
                far_free = far in ledger.free_names
                assert report.classification is not ViolationClass.FACTUAL_LOCAL, where
                assert report.s_value == chsh_value(behavior, config.chsh), where
                assert report.nonlocal_counterfactuals == ((far,) if far_free else ()), where
                assert (report.classification is ViolationClass.COUNTERFACTUAL_NONLOCAL) == far_free, where
                if config.preset_settings:
                    assert report.classification is ViolationClass.COUNTERFACTUAL_LOCAL, where
                    assert report.counterfactual_conditioners == ("θa", "θb"), where


def test_classifier_soundness_nonlocal_tag_iff_far_setting_unknown():
    b = optimal_behavior()
    schedule = build_schedule()
    trace = trial(ExperimentConfig(seed=33, schedule=schedule), b, 4)
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
        report = classify_violation(trace, stage, optimal_singlet_settings())
        ledger = trace.observer_a.stage_ledgers()[stage]
        far_free = "θb" in ledger.free_names
        assert bool(report.nonlocal_counterfactuals) == far_free


# -- export ------------------------------------------------------------------------


def test_dataset_csv_shape_and_header():
    ds = experiment(ExperimentConfig(trials_per_pair=5, seed=1))
    out = io.BytesIO()
    dataset_to_csv(ds, build_schedule(), out)
    text = out.getvalue().decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0].startswith("trial,x,y,a,b,")
    assert len(lines) == 1 + ds.total_trials
    assert lines[1].split(",")[0] == "0"


def _dataset_csv_oracle(dataset, schedule) -> str:
    """``dataset.csv`` rebuilt row by row with ``csv.writer`` from the records alone."""
    # each wing's own setting, own outcome and the far wing's setting report, which no value moves
    events = schedule.trial_events(dataset.grid_a[0], dataset.grid_b[0], 1, 1)
    times = [reception_time(events[i], schedule.worldline_a) for i in (1, 3, 7)]
    times += [reception_time(events[i], schedule.worldline_b) for i in (2, 4, 5)]
    pairs = [(x, y) for x in dataset.grid_a for y in dataset.grid_b]
    pair_of = [p for p, n in zip(pairs, dataset.n_per_pair.ravel().tolist()) for _ in range(n)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["trial", "x", "y", "a", "b", "t_setting_A", "t_outcome_A", "t_reports_A",
                     "t_setting_B", "t_outcome_B", "t_reports_B"])
    for k, cell in enumerate(dataset.records.tolist()):
        (x, y), a, b = pair_of[k], OUTCOMES[cell // 2], OUTCOMES[cell % 2]
        writer.writerow([k, setting_text(x), setting_text(y), a, b, *times])
    return out.getvalue()


def _custom_config(tmp_path) -> ExperimentConfig:
    # integer setting labels, read back from a behavior file
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(random_behavior(np.random.default_rng(37), 3, 2)), encoding="utf-8")
    return parse_config(json.dumps({
        "model": "custom", "behavior_file": str(table), "trials_per_pair": 1000, "seed": 41,
        "chsh": {"x0": "0", "x1": "2", "y0": "0", "y1": "1"},
    }))


def _singlet(n: int):
    return lambda tmp_path: ExperimentConfig(trials_per_pair=n, seed=59)


@pytest.mark.parametrize("make, block", [
    # every pair block ends in a partial chunk
    (lambda tmp_path: ExperimentConfig(trials_per_pair=CHUNK + 3, seed=43), harness.BLOCK),
    (_custom_config, harness.BLOCK),
    # slower reports that arrive later: the times are the schedule's, not the defaults
    (lambda tmp_path: ExperimentConfig(
        trials_per_pair=7, seed=53, schedule=build_schedule(signal_speed=0.8, t_communication=3.0)
    ), harness.BLOCK),
    # small pair blocks that start inside the first hundred, whose trials take the empty prefix, or across hundreds
    *((_singlet(n), harness.BLOCK) for n in (1, 99, 100, 101)),
    # pair blocks of hundreds: the first holds trials 0-99, which have no k // 100 prefix, and the rest start
    # inside a hundred; a block boundary inside a hundred, and a hundred split over two blocks
    (_singlet(250), 7),
    (_singlet(250), 150),
    # one pair block across k = 999 -> 1000 and 9999 -> 10000, where the prefix gains a digit
    (_singlet(10_500), harness.BLOCK),
    # blocks of whole hundreds only, with no partial hundred before or after them
    (_singlet(400), 100),
    (_singlet(400), 200),
    # blocks inside a hundred, which hold no whole hundred
    (_singlet(125), 50),
    # blocks longer than the default, whose row offsets need more of the tiled pattern
    (_singlet(40_000), 1 << 14),
], ids=["singlet-chunk-plus-3", "custom-integer-labels", "slow-reports", "singlet-1", "singlet-99", "singlet-100",
        "singlet-101", "block-7", "block-150", "prefix-gains-digits", "block-100", "block-200", "block-50",
        "block-above-default"])
def test_dataset_csv_is_every_row_written_by_csv_writer(tmp_path, monkeypatch, make, block):
    monkeypatch.setattr(harness, "BLOCK", block)
    cfg = make(tmp_path)
    ds = experiment(cfg)
    out = io.BytesIO()
    dataset_to_csv(ds, cfg.schedule, out)
    # equal lines are equal text, and a failure names the first differing row without a slow text diff
    assert out.getvalue().decode("utf-8").split("\n") == _dataset_csv_oracle(ds, cfg.schedule).split("\n")


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(
    n=st.integers(1, 400), nx=st.integers(1, 3), ny=st.integers(1, 3), block=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_dataset_csv_matches_the_oracle_at_any_pair_block_and_block(n, nx, ny, block, seed):
    behavior, schedule = random_behavior(np.random.default_rng(seed), nx, ny), build_schedule()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK", block)
        ds = run_experiment(ExperimentConfig(trials_per_pair=n, seed=seed), behavior)
        out = io.BytesIO()
        dataset_to_csv(ds, schedule, out)
    assert out.getvalue().decode("utf-8").split("\n") == _dataset_csv_oracle(ds, schedule).split("\n")


def _csv_write_peak(dataset, schedule) -> int:
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            dataset_to_csv(dataset, schedule, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_the_trials():
    # one setting pair, so the rows are CHUNK against 4 * CHUNK
    behavior = Behavior((0,), (0,), np.full((1, 1, 2, 2), 0.25))
    small, large = (run_experiment(ExperimentConfig(trials_per_pair=n, seed=47), behavior) for n in (CHUNK, 4 * CHUNK))
    schedule = build_schedule()
    dataset_to_csv(small, schedule, io.BytesIO())  # warm caches that are built once per process
    small_peak, large_peak = (_csv_write_peak(d, schedule) for d in (small, large))
    # building the whole text would hold about 9 MB more for 3 * 2^16 more rows
    assert large_peak < small_peak + 2**20
    # one BLOCK of rows, held as its hundreds and as their join, is about 1.1 MB; a CHUNK of them is about 8 MB
    assert large_peak < 2**21
