"""Config parsing and the end-to-end command-line pipeline."""

import ast
import collections
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim import (
    Angle,
    Behavior,
    ConfigError,
    ExperimentConfig,
    Schedule,
    Stage,
    ViolationClass,
    behavior_from_csv,
    behavior_to_csv,
    build_model,
    parse_config,
    pr_box,
    singlet_behavior,
    trace_trials,
)
from bellsim import cli, harness
from bellsim import config as config_module
from bellsim.angles import setting_text
from bellsim.cli import ARTIFACTS, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from bellsim.models import CELL_OUTCOMES
from bellsim.spacetime import SettingChoice
from conftest import GRID_4X4, TRACED_CONFIGS, traces_by_run_trial

README = Path(__file__).resolve().parents[1] / "README.md"

SECTIONS = ("estimates", "no_signaling", "factorizability", "classification", "stage_table")


# -- parsing -------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config('{"model": "singlet"}')
    assert cfg.grid_a == (Angle.of(0), Angle.of(1, 2))
    assert cfg.trials_per_pair == 10000
    assert cfg.chsh.x1 == Angle.of(1, 2)
    assert not cfg.preset_settings


def test_negative_trials_named_in_error():
    with pytest.raises(ConfigError) as err:
        parse_config('{"trials_per_pair": -5}')
    assert any(path == "trials_per_pair" for path, _ in err.value.errors)


def test_seed_beyond_generator_key_is_a_config_error():
    assert parse_config(json.dumps({"seed": 2**128 - 1})).seed == 2**128 - 1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"seed": 2**128}))
    assert [path for path, _ in err.value.errors] == ["seed"]


def test_traced_trials_beyond_the_trace_bound_is_a_config_error():
    # 2^18 traced trials of the default singlet would write about 1 GB of trace.json
    assert parse_config(json.dumps({"traced_trials": 2**18 - 1})).traced_trials == 2**18 - 1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"traced_trials": 2**18}))
    assert [path for path, _ in err.value.errors] == ["traced_trials"]


def test_float_field_too_large_for_a_float_is_a_config_error():
    huge = "1" + "0" * 400
    with pytest.raises(ConfigError) as err:
        parse_config('{"c": %s}' % huge)
    assert err.value.errors == [("c", "number too large")]
    with pytest.raises(ConfigError) as err:
        parse_config('{"q_setting_width": %s, "stage_times": {"detection": %s}}' % (huge, huge))
    assert {path for path, _ in err.value.errors} == {"q_setting_width", "stage_times.detection"}


#: Every float field's JSON path, with a config holding ``{value}`` there.
FLOAT_FIELDS = {
    "c": '{"c": %s}',
    "signal_speed": '{"signal_speed": %s}',
    "positions.a": '{"positions": {"a": %s}}',
    "positions.b": '{"positions": {"b": %s}}',
    "positions.source": '{"positions": {"source": %s}}',
    "stage_times.prepare": '{"stage_times": {"prepare": %s}}',
    "stage_times.setting": '{"stage_times": {"setting": %s}}',
    "stage_times.detection": '{"stage_times": {"detection": %s}}',
    "stage_times.communication": '{"stage_times": {"communication": %s}}',
    "q_setting_width": '{"q_setting_width": %s}',
    "q_outcome_width": '{"q_outcome_width": %s}',
}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("path", sorted(FLOAT_FIELDS))
def test_non_finite_float_field_is_a_config_error(path, value):
    with pytest.raises(ConfigError) as err:
        parse_config(FLOAT_FIELDS[path] % value)
    assert [p for p, _ in err.value.errors] == [path]
    assert "must be finite" in err.value.errors[0][1]


@pytest.mark.parametrize(
    "field, doc",
    [
        ("q_setting_width", '{"q_setting_width": NaN, "trials_per_pair": 10}'),
        ("q_outcome_width", '{"q_outcome_width": 1e400, "trials_per_pair": 10}'),
        ("c", '{"c": NaN, "trials_per_pair": 10}'),
    ],
)
def test_non_finite_float_exits_with_config_error(tmp_path, capsys, field, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc, encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error at {field}: must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_readme_config_surface_is_the_default_config():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"Full config surface:\s*```json\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"\s*//.*", "", block))
    cfg = parse_config(json.dumps(doc))
    assert cfg == ExperimentConfig()


def test_readme_names_every_config_key_its_surface_block_leaves_out():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"Full config surface:\s*```json\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"\s*//.*", "", block))
    assert parse_config(json.dumps(doc)) == ExperimentConfig()
    left_out = config_module._KNOWN_KEYS - set(doc)
    rest = readme.replace(block, "")
    assert [key for key in sorted(left_out) if f'"{key}"' not in rest and f"`{key}`" not in rest] == []


def test_readme_library_sketch_runs_as_its_comments_say():
    block = re.search(r"## Library sketch\s*```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(block, node)
            values[source] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert values["bs.chsh_value(behavior, settings)"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert values["bs.check_factorizable(behavior).is_local"] is False
    assert values["bs.check_no_signaling(behavior).passed"] is True
    assert values["bs.stage_table(trace.observer_a, trace.observer_b).pattern"] == ("y", "n", "n", "y")
    classification = values["bs.classify_violation(trace, bs.Stage.SETTING, settings).classification"]
    assert classification is ViolationClass.COUNTERFACTUAL_NONLOCAL
    est = values["bs.estimate_chsh(dataset, cfg.chsh)"]
    assert abs(est.value + 2 * math.sqrt(2)) <= 5 * est.stderr


def test_bad_stage_times_surface_schedule_error():
    with pytest.raises(ConfigError) as err:
        parse_config('{"stage_times": {"setting": 0.3, "detection": 0.2}}')
    assert any(path == "stage_times" for path, _ in err.value.errors)


def test_all_errors_reported_not_just_first():
    with pytest.raises(ConfigError) as err:
        parse_config('{"trials_per_pair": 0, "seed": -1, "workers": 0, "bogus": 1}')
    paths = {path for path, _ in err.value.errors}
    assert {"trials_per_pair", "seed", "workers", "bogus"} <= paths


def test_chsh_settings_must_come_from_grid():
    with pytest.raises(ConfigError) as err:
        parse_config('{"model": "singlet", "chsh": {"x0": "0", "x1": "pi/3", "y0": "pi/4", "y1": "-pi/4"}}')
    assert any(path == "chsh.x1" for path, _ in err.value.errors)


def test_angle_model_rejects_bare_integer_settings():
    with pytest.raises(ConfigError):
        parse_config('{"model": "singlet", "grid_a": [0, 1]}')


def test_lhv_model_requires_tables():
    with pytest.raises(ConfigError) as err:
        parse_config('{"model": "lhv"}')
    assert any(path == "lhv" for path, _ in err.value.errors)


def test_build_model_rejects_a_model_that_parse_config_never_makes():
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        build_model(ExperimentConfig(model="nope"))


def test_lhv_tables_parse():
    cfg = parse_config(
        json.dumps(
            {
                "model": "lhv",
                "lhv": {
                    "prior": [0.5, 0.5],
                    "response_a": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                    "response_b": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                },
            }
        )
    )
    assert cfg.lhv is not None
    assert cfg.grid_a == (0, 1)


def test_not_json_is_one_clear_error():
    with pytest.raises(ConfigError):
        parse_config("model: singlet")


# -- end to end ------------------------------------------------------------------


def run_cli(tmp_path, doc, name="run.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main([str(path), "-o", str(out), *extra])
    return code, out


def test_singlet_run_end_to_end(tmp_path):
    code, out = run_cli(tmp_path, {"model": "singlet", "trials_per_pair": 4000, "seed": 3})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    for section in SECTIONS:
        assert section in summary
    s = summary["estimates"]["chsh"]
    assert abs(abs(s["value"]) - 2 * math.sqrt(2)) < 0.1
    assert summary["stage_table"]["pattern"] == "ynny"
    assert summary["no_signaling"]["empirical"]["passed"]
    assert not summary["factorizability"]["is_local"]
    by_stage = {r["stage"]: r for r in summary["classification"]}
    assert by_stage["tθ"]["classification"] == "counterfactual-nonlocal"
    assert by_stage["tc"]["classification"] == "factual-local"
    assert (out / "dataset.csv").exists()
    assert (out / "trace.json").exists()
    assert (out / "plot_correlator.txt").exists()


def test_rerun_is_byte_identical(tmp_path):
    doc = {"model": "singlet", "trials_per_pair": 1500, "seed": 77, "traced_trials": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main([str(path), "-o", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("summary.json", "dataset.csv", "behavior_estimate.csv", "trace.json", "plot_correlator.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _received_times(document) -> list:
    """A ``trace.json`` document's ``dataset.csv`` times: each wing's own setting, own outcome, far setting report."""
    times = []
    for me, far in (("A", "B"), ("B", "A")):
        wanted = (
            ("SettingChoice", f"θ{me.lower()}", None), ("Detection", f"±{me.lower()}", None),
            ("Message", f"θ{far.lower()}", far),
        )
        for kind, name, sender in wanted:
            (event,) = [e for e in document["events"]
                        if (e["kind"], e["proposition"], e.get("sender")) == (kind, name, sender)]
            times.append(event["received"][me])
    return times


def _free_names(rendered: str) -> list:
    """The free variables of a rendered stage ledger such as ``P_A(±a,±b,θb‖θa,ψ0,tθ)``."""
    return rendered[rendered.index("(") + 1 : rendered.index("‖")].split(",")


@pytest.mark.parametrize("doc", [
    {"keep_records": True},
    *(TRACED_CONFIGS[name] | {"keep_records": True} for name in TRACED_CONFIGS),
], ids=["default", *TRACED_CONFIGS])
def test_dataset_csv_agrees_with_the_rest_of_its_run_directory(tmp_path, doc):
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    # from here on, only the run directory is read
    with open(out / "dataset.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    with open(out / "behavior_estimate.csv", newline="", encoding="utf-8") as f:
        estimate = list(csv.DictReader(f))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    documents = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    plot = (out / "plot_correlator.txt").read_text(encoding="utf-8").splitlines()
    n = summary["estimates"]["trials_per_pair"]

    # the summary's stage table is trial 0's ledgers, and its verdicts read them: before
    # tc, the far setting is nonlocal exactly when it is free in that stage's ledger
    stages = documents[0]["stages"]
    assert [(r["stage"], r["A"], r["B"]) for r in summary["stage_table"]["rows"]] == [
        (a["stage"], a["ledger"], b["ledger"]) for a, b in zip(stages["A"], stages["B"], strict=True)
    ]
    ledgers = {entry["stage"]: entry["ledger"] for entry in stages["A"]}
    for report in summary["classification"]:
        far = [name for name in _free_names(ledgers[report["stage"]]) if name == "θb"]
        assert report["nonlocal_counterfactuals"] == (far if report["stage"] != "tc" else [])

    # every factual value in a stage ledger reached that observer by the stage's time:
    # the stage label, the prepared state and preset settings are known from the start
    schedule = parse_config(json.dumps(doc)).schedule
    begins = dict(zip(("t0", "tθ", "t±", "tc"), (schedule.t_prepare, schedule.t_setting,
                                                  schedule.t_detection, schedule.t_communication)))
    known = {*begins, "ψ0", *(("θa", "θb") if doc.get("preset_settings") else ())}
    for document in documents:
        for observer, entries in document["stages"].items():
            for entry in entries:
                factual = entry["ledger"][entry["ledger"].index("‖") + 1 : -1].split(",")
                for name in set(factual) - known:
                    received = min(e["received"][observer] for e in document["events"] if e["proposition"] == name)
                    assert received <= begins[entry["stage"]] + 1e-12, (observer, entry["stage"], name)

    # the plot's empirical rows are the summary's correlators, in order
    empirical = [line.split() for line in plot if line.endswith(" empirical")]
    assert [(float(v), float(se)) for _, v, se, _ in empirical] == [
        (c["value"], c["stderr"]) for c in summary["estimates"]["correlators"]
    ]

    assert [int(r["trial"]) for r in rows] == list(range(len(rows)))
    counts = collections.Counter((r["x"], r["y"], r["a"], r["b"]) for r in rows)
    assert len(rows) == n * len(estimate) // 4
    assert {c[:2] for c in counts} == {(e["x"], e["y"]) for e in estimate}
    for e in estimate:
        assert float(e["p"]) == counts[e["x"], e["y"], e["a"], e["b"]] / n

    products = collections.Counter()
    for (x, y, a, b), count in counts.items():
        products[x, y] += int(a) * int(b) * count
    for correlator in summary["estimates"]["correlators"]:
        assert correlator["value"] == products[correlator["x"], correlator["y"]] / n

    times = [_received_times(d) for d in documents]
    # a preset pair's traced trials are no dataset trial, and an unresolved setting's data is a guess
    exact_data = "preset_pair" not in doc and not doc.get("unresolved_local_setting")
    # a row with no document of its own: no setting or outcome moves the times, so every document gives them
    (shared,) = {tuple(t) for t in times}
    columns = [c for c in rows[0] if c.startswith("t_")]
    for k, row in enumerate(rows):
        if k < len(documents) and exact_data:
            data = documents[k]["data"]
            assert [row["x"], row["y"], row["a"], row["b"]] == [str(data[p]) for p in ("θa", "θb", "±a", "±b")]
        assert [float(row[c]) for c in columns] == (times[k] if k < len(documents) else list(shared))


def _trace_document(k, trace, schedule) -> dict:
    """Trial ``k``'s ``trace.json`` document, built whole: the reference for ``cli._write_trace``."""
    return {
        "trial": k,
        "data": {name: value if isinstance(value, int) else setting_text(value)
                 for name, value in trace.pooled.data.items()},
        "events": [
            cli._event_entry(e, schedule)
            for e in schedule.trial_events(trace.theta_a, trace.theta_b, trace.outcome_a, trace.outcome_b)
        ],
        "stages": {
            s.observer: [
                {"stage": stage.value, "ledger": ledger.render()}
                for stage, ledger in sorted(s.stage_ledgers().items(), key=lambda kv: list(Stage).index(kv[0]))
            ]
            for s in (trace.observer_a, trace.observer_b)
        },
    }


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_trace_json_is_every_trial_document_dumped(tmp_path, name):
    doc = TRACED_CONFIGS[name] | {"keep_records": False}
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    config = parse_config(json.dumps(doc))
    documents = [_trace_document(k, t, config.schedule) for k, t in enumerate(traces_by_run_trial(config))]
    want = json.dumps(documents, indent=2, ensure_ascii=False) + "\n"
    assert (out / "trace.json").read_bytes() == want.encode("utf-8")


#: sha256 of each artifact of ``GRID_4X4`` without records, the config of the benchmark's
#: traced-ledgers workload at its default seed, as its golden digests hold them.
GRID_4X4_SHA256 = {
    "trace.json": "123e31080cc1283d809d424f89bedd59944e781b5ac2b741ccbdbbad4495fd59",
    "summary.json": "dbf7e98dc31b1643b78b9ad821482e3ffeef6f496c5d3879fe551b5963e20ece",
    "behavior_estimate.csv": "9b3acd2aba25047156e7ecab9b0a46b2145d937931326547a8f821ac9d4024fe",
    "plot_correlator.txt": "0a626ec509ffbb2891b80be43a30940fde413241314bae733a608b7a25e31207",
}


def test_the_4x4_traced_run_keeps_every_artifacts_bytes(tmp_path):
    # trace.json and summary.json render and compare the ledgers the kernel builds, so a
    # kernel edit that moves one byte fails here, not only in the benchmark
    path = tmp_path / "run.json"
    path.write_text(json.dumps(GRID_4X4 | {"keep_records": False}), encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out")]) == EXIT_OK
    assert not (tmp_path / "out" / "dataset.csv").exists()
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in GRID_4X4_SHA256}
    assert got == GRID_4X4_SHA256


@pytest.mark.parametrize("doc", [GRID_4X4, *TRACED_CONFIGS.values()], ids=["4x4-grid", *TRACED_CONFIGS])
def test_a_traced_run_builds_each_keys_events_once(tmp_path, monkeypatch, doc):
    # the nine events of a (pair, cell) key are built once and travel with its trace,
    # for both the ledgers and trace.json
    config = parse_config(json.dumps(doc | {"keep_records": False}))
    keys = {(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for t in traces_by_run_trial(config)}
    calls, trial_events = collections.Counter(), Schedule.trial_events

    def counted(self, *args, **kwargs):
        calls[args] += 1
        return trial_events(self, *args, **kwargs)

    monkeypatch.setattr(Schedule, "trial_events", counted)
    cli.run(config, tmp_path / "out")
    assert (tmp_path / "out" / "trace.json").exists()
    assert calls == collections.Counter(keys)


def test_a_traced_run_builds_each_slot_values_event_once(monkeypatch):
    # an event is fixed by its slot and the value it carries: on a 4x4 grid, the preparation,
    # a choice and its report per setting of each wing (2 * 8), and a detection and its report
    # per outcome of each wing (2 * 4), 1 + 16 + 8 = 25 events across the 47 keys
    config = parse_config(json.dumps(GRID_4X4))
    keys, philox = [], np.random.Philox

    def counted(*args, **kwargs):
        keys.append(kwargs["key"])
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    traces = trace_trials(config, build_model(config))
    assert keys == [13]  # one stream for every traced trial
    assert len({(t.theta_a, t.theta_b, t.outcome_a, t.outcome_b) for t in traces}) == 47
    events = {id(e): e for t in traces for e in t.events}
    assert len(events) == len({(e.index, e.payload.proposition) for e in events.values()}) == 25
    choices = {}
    for t in traces:
        (choice,) = [e for e in t.events if e.payload == SettingChoice("A", t.theta_a)]
        assert choices.setdefault(t.theta_a, choice) is choice
    assert len(choices) == 4


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_stage_ledgers_come_in_stage_order(name):
    # the trace writer relies on this order and does not sort
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    for trace in trace_trials(config, build_model(config)):
        for state in (trace.observer_a, trace.observer_b):
            stages = list(state.stage_ledgers())
            assert stages == sorted(stages, key=list(Stage).index)


def _trace_write_peak(traces, schedule) -> int:
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            cli._write_trace(traces, schedule, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_trace_writer_memory_does_not_grow_with_the_traced_trials():
    small, large = (parse_config(json.dumps({"traced_trials": n})) for n in (2**10, 2**14))
    behavior = build_model(large)
    traces = [trace_trials(c, behavior) for c in (small, large)]
    small_peak, large_peak = (_trace_write_peak(t, large.schedule) for t in traces)
    # building the whole document would hold 16 times the text for 16 times the trials
    assert large_peak < 2 * small_peak + 2**20


def test_box_run_reaches_four(tmp_path):
    code, out = run_cli(tmp_path, {"model": "pr-box", "trials_per_pair": 3000, "seed": 1})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["estimates"]["chsh"]["value"] == 4.0
    assert summary["no_signaling"]["analytic"]["marginal_setting_independent"]
    assert summary["factorizability"]["max_facet"] == 4.0


def test_hidden_variable_run_is_local(tmp_path):
    doc = {
        "model": "lhv",
        "trials_per_pair": 3000,
        "seed": 6,
        "lhv": {
            "prior": [0.5, 0.5],
            "response_a": [[[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]],
            "response_b": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        },
    }
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["factorizability"]["is_local"]
    assert abs(summary["estimates"]["chsh"]["value"]) <= 2.0 + 0.1


def test_custom_behavior_file(tmp_path):
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(pr_box()), encoding="utf-8")
    doc = {
        "model": "custom",
        "behavior_file": str(table),
        "trials_per_pair": 500,
        "seed": 2,
        "traced_trials": 0,
    }
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["estimates"]["chsh"]["analytic"] == 4.0
    assert summary["stage_table"]["rows"] == []


def test_preset_run_classified_local_everywhere(tmp_path):
    code, out = run_cli(
        tmp_path,
        {"model": "singlet", "trials_per_pair": 800, "seed": 4, "preset_settings": True},
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    # before tc the alternates of the pre-agreed settings are posited; at tc the estimate is factual
    by_stage = {row["stage"]: row for row in summary["classification"]}
    for stage in ("t0", "tθ", "t±"):
        assert by_stage[stage]["classification"] == "counterfactual-local"
        assert by_stage[stage]["counterfactual_conditioners"] == ["θa", "θb"]
        assert by_stage[stage]["s_value"] == summary["estimates"]["chsh"]["analytic"]
    assert by_stage["tc"]["classification"] == "factual-local"
    assert summary["stage_table"]["pattern"] == "yyny"


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"trials_per_pair": -1}', encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("keep_records", [True, False])
def test_runtime_error_exit_code(tmp_path, monkeypatch, capsys, keep_records):
    # a sampler landing on one of the PR box's zero cells is a realism violation
    def cell_one(table):  # every pair's one bound is 0, so every word reaches cell 1
        return [[0] for _ in range(np.size(table) // 4)]

    monkeypatch.setattr(harness, "_word_bounds", cell_one)
    code, _ = run_cli(
        tmp_path, {"model": "pr-box", "trials_per_pair": 10, "traced_trials": 0, "keep_records": keep_records}
    )
    assert code == EXIT_RUNTIME
    assert "probability zero" in capsys.readouterr().err


def test_spread_outcome_uncertainty_over_an_impossible_outcome_is_kept_on_the_possible_one(tmp_path, capsys):
    # A's outcome is +1 at both settings, so a spread q over ±a weighs an outcome
    # of probability zero: Jeffrey's rule on the live support keeps it on +1, and
    # the run completes with ±a free but measured in A's ledger from t± on
    doc = {
        "model": "lhv",
        "grid_a": [0, 1],
        "grid_b": [0, 1],
        "chsh": {"x0": 0, "x1": 1, "y0": 0, "y1": 1},
        "lhv": {"prior": [1.0], "response_a": [[[1, 0]], [[1, 0]]], "response_b": [[[1, 0]], [[0, 1]]]},
        "q_outcome_width": 0.5,
        "traced_trials": 4,
        "trials_per_pair": 10,
    }
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert all((out / name).is_file() for name in ARTIFACTS)
    config = parse_config(json.dumps(doc))
    for t in trace_trials(config, build_model(config)):
        assert not t.observer_a.qs["±a"].is_delta
        ledger = t.observer_a.stage_ledgers()[Stage.DETECTION]
        axes = tuple(i for i, name in enumerate(ledger.free_names) if name != "±a")
        assert np.max(np.abs(ledger.array.sum(axis=axes) - [1.0, 0.0])) <= 1e-12


PHASES = ("build", "sample", "trace", "diagnostics", *(f"write {name}" for name in ARTIFACTS))


def run_with_flags(tmp_path, doc, *runs):
    """Run the CLI in a fresh process once per flag list; each run's summary.json and stderr."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(bellsim.__file__).parents[1])}
    summaries, logs = [], []
    for k, flags in enumerate(runs):
        out = tmp_path / f"out{k}"
        done = subprocess.run(
            [sys.executable, "-m", "bellsim.cli", str(path), "-o", str(out), *flags],
            capture_output=True, text=True, env=env, check=True,
        )
        summaries.append((out / "summary.json").read_bytes())
        logs.append(done.stderr)
    return summaries, logs


def test_verbose_logs_each_phase_and_leaves_the_summary_unchanged(tmp_path):
    doc = {"trials_per_pair": 200, "seed": 5, "traced_trials": 3}
    summaries, logs = run_with_flags(tmp_path, doc, [], ["-v"])
    assert summaries[0] == summaries[1]
    assert logs[0] == ""
    timed = re.findall(r"^INFO (.+): (\d+\.\d{3}) s$", logs[1], flags=re.MULTILINE)
    assert [phase for phase, _ in timed] == list(PHASES)
    assert all(float(seconds) >= 0.0 for _, seconds in timed)


def test_very_verbose_logs_each_sampled_pair_and_leaves_the_summary_unchanged(tmp_path):
    # enough trials per pair for two sampling threads, so on a host with two CPUs
    # or more a pair is reported once, after its parts are joined
    n = 2 * harness.CHUNK + 1
    doc = {"trials_per_pair": n, "seed": 5, "traced_trials": 1, "keep_records": False}
    summaries, logs = run_with_flags(tmp_path, doc, [], ["-vv"])
    assert summaries[0] == summaries[1]
    assert logs[0] == ""
    sampled = re.findall(r"^DEBUG sampled pair (\d+)/(\d+): (\d+) trials$", logs[1], flags=re.MULTILINE)
    assert sampled == [(str(k), "4", str(n)) for k in range(1, 5)]


def test_verbosity_applies_to_its_own_call_only(tmp_path, capsys):
    # one process, as a host that calls main more than once: a -v call writes its lines
    # whatever ran before it (pytest has set up logging already), and the next quiet call writes none
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"trials_per_pair": 20, "traced_trials": 1}), encoding="utf-8")
    errs = []
    for k, flags in enumerate(([], ["-v"], [])):
        assert main([str(path), "-o", str(tmp_path / f"out{k}"), *flags]) == EXIT_OK
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[2] == ""
    timed = re.findall(r"^INFO (.+): \d+\.\d{3} s$", errs[1], flags=re.MULTILINE)
    assert timed == list(PHASES)
    assert errs[1].splitlines()[1] == "INFO sampling 20 trials per pair (seed 0)"
    assert errs[1].splitlines()[-1] == f"INFO wrote {tmp_path / 'out1'}"


def test_preset_pair_without_preset_settings_is_a_config_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"trials_per_pair": 10, "preset_pair": ["0", "pi/4"]})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error at preset_pair: has no effect unless preset_settings is true" in err
    assert not out.exists()


@pytest.mark.parametrize("extra,path", [
    ({"preset_settings": True, "preset_pair": [5, 7]}, "preset_pair[0]"),
    ({"chsh": {"x0": 0, "x1": 1, "y0": 0, "y1": 9}}, "chsh.y1"),
])
def test_custom_model_settings_must_come_from_the_file_grids(tmp_path, capsys, extra, path):
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(pr_box()), encoding="utf-8")
    code, _ = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10, **extra})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"config error at {path}: " in err


def test_custom_behavior_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return behavior_from_csv(text)

    monkeypatch.setattr(config_module, "behavior_from_csv", counted)
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(pr_box()), encoding="utf-8")
    code, _ = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10})
    assert code == EXIT_OK
    assert len(parsed) == 1


def test_missing_config_exit_code(tmp_path):
    assert main([str(tmp_path / "nope.json"), "-o", str(tmp_path / "out")]) == EXIT_IO


def test_output_path_that_is_a_file_is_an_io_failure(tmp_path, capsys):
    # the run starts, and making the run directory fails
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    code, _ = run_cli(tmp_path, {"trials_per_pair": 10})
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("i/o failure: [Errno 17] File exists:") and "Traceback" not in err
    assert (tmp_path / "out").read_text(encoding="utf-8") == "not a directory"
    assert not any((tmp_path / name).exists() for name in ARTIFACTS)


def test_seed_and_trials_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "pr-box", "trials_per_pair": 100}', encoding="utf-8")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main([str(path), "-o", str(out1), "--seed", "5", "--trials", "200"]) == EXIT_OK
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["estimates"]["trials_per_pair"] == 200
    assert main([str(path), "-o", str(out2), "--seed", "-1"]) == EXIT_CONFIG


def test_seed_override_beyond_generator_key_names_the_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "pr-box", "trials_per_pair": 10}', encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out"), "--seed", str(2**128)]) == EXIT_CONFIG
    assert "config error at --seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags, where", [
    (["--trials", "abc"], "--trials"),
    (["--trials", "1.5"], "--trials"),
    (["--seed", "x"], "--seed"),
])
def test_flag_text_that_is_not_an_int_is_a_config_error_at_the_flag(tmp_path, capsys, flags, where):
    code, out = run_cli(tmp_path, {"model": "pr-box", "trials_per_pair": 10}, extra=flags)
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert lines == [f"config error at {where}: expected int"]
    assert not out.exists()


@pytest.mark.parametrize("text", ["10", "+10", " 10 ", "1_0"])
def test_flag_text_that_int_reads_still_runs(tmp_path, text):
    code, out = run_cli(tmp_path, {"model": "pr-box", "trials_per_pair": 3}, extra=["--trials", text])
    assert code == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["estimates"]["trials_per_pair"] == 10


@pytest.fixture
def run_json(tmp_path, monkeypatch):
    """A pr-box ``run.json`` in the working directory, which is ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text('{"model": "pr-box"}', encoding="utf-8")


class _Stopped(Exception):
    """Raised in place of a run, once the command line has been read."""


def parsed(monkeypatch, argv) -> tuple:
    """What ``main(argv)`` hands on: ``(outdir, seed, trials_per_pair, verbosity)``, without running."""
    seen = {}

    def stop(config, outdir, verbose):
        seen.update(outdir=outdir, seed=config.seed, trials=config.trials_per_pair, verbose=verbose)
        raise _Stopped

    monkeypatch.setattr(cli, "run", stop)
    with pytest.raises(_Stopped):
        main(argv)
    return seen["outdir"], seen["seed"], seen["trials"], seen["verbose"]


#: The plain form, and every other spelling of the same command line.
PLAIN = ["run.json", "-o", "out", "--seed", "3", "--trials", "200", "-v", "-v"]
SPELLINGS = {
    "attached-short-value": ["run.json", "-oout", "--seed", "3", "--trials", "200", "-vv"],
    "long-with-equals": ["run.json", "--outdir=out", "--seed=3", "--trials=200", "--verbose", "--verbose"],
    "long-with-space": ["run.json", "--outdir", "out", "--seed", "3", "--trials", "200", "-vv"],
    "unique-prefixes": ["run.json", "--out", "out", "--se", "3", "--tr=200", "--verb", "--v"],
    "options-first": ["-o", "out", "--seed", "3", "--trials", "200", "-vv", "run.json"],
    "config-between": ["-vo", "out", "--seed", "3", "run.json", "--trials", "200", "-v"],
    "last-repeat-wins": ["run.json", "-o", "first", "--seed", "9", "--trials", "1", "-o", "out", "--seed", "3",
                         "--trials", "200", "-vv"],
    "double-dash": ["-o", "out", "--seed", "3", "--trials", "200", "-vv", "--", "run.json"],
}


@pytest.mark.parametrize("argv", SPELLINGS.values(), ids=SPELLINGS)
def test_each_spelling_reads_as_its_plain_form(run_json, monkeypatch, argv):
    plain = parsed(monkeypatch, PLAIN)
    assert plain == (Path("out"), 3, 200, 2)
    assert parsed(monkeypatch, argv) == plain


def test_verbosity_counts_each_v(run_json, monkeypatch):
    counts = [parsed(monkeypatch, ["run.json", *flags])[3] for flags in ([], ["-v"], ["--verbose"], ["-vvv"])]
    assert counts == [0, 1, 1, 3]
    assert parsed(monkeypatch, ["run.json"])[0] == Path("bellsim-out")


@pytest.mark.parametrize("argv", [["run.json", "--seed", "-1"], ["--seed=-1", "run.json"], ["run.json", "--se", "-1"]])
def test_a_negative_seed_reaches_the_config_check(run_json, capsys, argv):
    assert main([*argv, "-o", "out"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error at --seed: ") and len(err.splitlines()) == 1
    assert not Path("out").exists()


def test_an_option_value_that_starts_with_a_dash_is_the_value(run_json, monkeypatch):
    # argparse refused ``-o -x``; getopt reads ``-x`` as the option's value
    assert parsed(monkeypatch, ["run.json", "-o", "-x"])[0] == Path("-x")
    assert parsed(monkeypatch, ["run.json", "--outdir", "--"])[0] == Path("--")


USAGE_ERRORS = {
    "missing-config": ([], "the following arguments are required: config"),
    "only-options": (["-o", "out", "-v"], "the following arguments are required: config"),
    "two-configs": (["run.json", "other.json"], "unrecognized arguments: other.json"),
    "short-without-value": (["run.json", "-o"], "option -o requires argument"),
    "long-without-value": (["run.json", "--seed"], "option --seed requires argument"),
    "unknown-flag": (["run.json", "--bogus"], "option --bogus not recognized"),
    "unknown-short-flag": (["run.json", "-x"], "option -x not recognized"),
    "value-on-a-switch": (["run.json", "--verbose=2"], "option --verbose must not have an argument"),
    "after-double-dash": (["--", "run.json", "-o", "out"], "unrecognized arguments: -o out"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_as_config_errors(run_json, capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"{cli.USAGE}bellsim: error: {message}\n"
    assert captured.out == ""
    assert list(Path().iterdir()) == [Path("run.json")]


def test_with_posixly_correct_an_option_after_the_config_is_a_usage_error(run_json, monkeypatch, capsys):
    # getopt's documented POSIX mode: the first argument that is not an option ends the options
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert main(["run.json", "-o", "out"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{cli.USAGE}bellsim: error: unrecognized arguments: -o out\n"
    assert parsed(monkeypatch, ["-o", "out", "--seed", "3", "--trials", "200", "-vv", "run.json"]) == (
        Path("out"), 3, 200, 2)


def test_help_exits_ok(tmp_path, monkeypatch, capsys):
    # help lists every option and the config path, and wins over the rest of the line
    monkeypatch.chdir(tmp_path)
    for argv in (["--help"], ["-h"], ["--he"], ["run.json", "-o", "out", "--help"]):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == cli.HELP and captured.err == ""
    assert cli.HELP.startswith("usage: bellsim")
    options = re.findall(r"^  (-.*?)(?:  |$)", cli.HELP, flags=re.MULTILINE)
    assert options == ["-h, --help", "-o OUTDIR, --outdir OUTDIR", "--seed SEED", "--trials TRIALS", "-v, --verbose"]
    assert "\n  config " in cli.HELP
    assert list(tmp_path.iterdir()) == []


def test_rerun_into_same_directory_leaves_no_stale_artifacts(tmp_path):
    code, out = run_cli(tmp_path, {"model": "pr-box", "trials_per_pair": 20, "traced_trials": 1})
    assert code == EXIT_OK
    assert {p.name for p in out.iterdir()} == set(ARTIFACTS)
    doc = {"model": "pr-box", "trials_per_pair": 20, "keep_records": False, "traced_trials": 0}
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    assert {p.name for p in out.iterdir()} == set(ARTIFACTS) - {"dataset.csv", "trace.json"}


def test_float_overflow_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"c": 1%s}' % ("0" * 400), encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error at c: number too large" in capsys.readouterr().err


def test_trial_count_bound_counts_every_setting_pair():
    grids = {"grid_a": ["0", "pi/4", "pi/2", "3pi/4"], "grid_b": ["pi/4", "-pi/4", "pi/2", "0"]}
    assert parse_config(json.dumps({**grids, "trials_per_pair": 2**59 - 1})).trials_per_pair == 2**59 - 1
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({**grids, "trials_per_pair": 2**59}))
    assert info.value.errors == [("trials_per_pair", f"{2**59} trials at each of 16 setting pairs reach 2^63")]


@pytest.mark.parametrize("doc, flags, where", [
    # 2^62 trials at each of 4 setting pairs: the counts would overflow int64
    ({"trials_per_pair": 2**62}, [], "trials_per_pair"),
    ({"trials_per_pair": 10}, ["--trials", str(2**62)], "--trials"),
    # the custom file's grids, 3 x 3, are known only once the run reads it
    ({"model": "custom", "trials_per_pair": 2**62}, [], "trials_per_pair"),
    # within the count bound, but 2^62 one-byte records cannot be allocated
    ({"trials_per_pair": 2**60}, [], "trials_per_pair"),
    ({"trials_per_pair": 10}, ["--trials", str(2**60)], "--trials"),
    ({"model": "custom", "trials_per_pair": 10}, ["--trials", str(2**62)], "--trials"),
    # 2^61 - 1 trials fit the config's 4 setting pairs, but not the file's 9
    ({"model": "custom", "trials_per_pair": 10}, ["--trials", str(2**61 - 1)],
     f"--trials: {2**61 - 1} trials at each of 9 setting pairs reach 2^63"),
])
def test_huge_trials_per_pair_exits_with_config_error(tmp_path, capsys, doc, flags, where):
    if doc.get("model") == "custom":
        doc["behavior_file"] = str(tmp_path / "behavior.csv")
        grid = (0, 1, 2)
        (tmp_path / "behavior.csv").write_text(
            behavior_to_csv(Behavior(grid, grid, np.full((3, 3, 2, 2), 0.25))), encoding="utf-8"
        )
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main([str(cfg), "-o", str(out), *flags]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error at {where}")
    assert not out.exists()


def test_flags_replace_file_values_before_validation(tmp_path):
    assert parse_config('{"trials_per_pair": 0, "seed": -1}', {"trials_per_pair": 10, "seed": 3}).seed == 3
    code, out = run_cli(tmp_path, {"model": "pr-box", "trials_per_pair": 0}, extra=["--trials", "10"])
    assert code == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["estimates"]["trials_per_pair"] == 10


@pytest.mark.parametrize("doc, lines", [
    ({"chsh": {"x0": "0", "x1": "pi/3", "y0": "pi/4", "y1": "-pi/4"},
      "preset_settings": True, "preset_pair": ["pi/5", "pi/4"]},
     ["config error at chsh.x1: setting pi/3 not in grid_a (0pi, pi/2)",
      "config error at preset_pair[0]: setting pi/5 not in grid_a (0pi, pi/2)"]),
    # a custom model reads "0" as the integer label, and the file's grid holds the zero angle
    ({"model": "custom", "chsh": {"x0": "0", "x1": "pi/2", "y0": "pi/4", "y1": "-pi/4"}},
     ["config error at chsh.x0: setting 0 not in grid_a (0pi, pi/2)"]),
])
def test_missing_settings_are_written_as_in_the_config(tmp_path, capsys, doc, lines):
    if doc.get("model") == "custom":
        doc["behavior_file"] = str(tmp_path / "behavior.csv")
        (tmp_path / "behavior.csv").write_text(behavior_to_csv(singlet_behavior(
            (Angle.of(0), Angle.of(1, 2)), (Angle.of(1, 4), Angle.of(-1, 4)))), encoding="utf-8")
    code, out = run_cli(tmp_path, {**doc, "trials_per_pair": 10})
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()


LHV_RESPONSES = {"response_a": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                 "response_b": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}


@pytest.mark.parametrize("doc, path", [
    ({"model": "lhv", "lhv": {"prior": [math.nan, 1.0], **LHV_RESPONSES}}, "lhv.prior"),
    ({"grid_a": ["0", "pi/0"]}, "grid_a[1]"),
    ({"chsh": {"x0": "pi/0", "x1": "pi/2", "y0": "pi/4", "y1": "-pi/4"}}, "chsh.x0"),
    # c * dt no longer overflows; so large a c makes the wings time-like separated
    ({"c": 1e308}, "stage_times"),
    # the hidden-variable tables answer two settings per wing, not three
    ({"model": "lhv", "lhv": {"prior": [0.5, 0.5], **LHV_RESPONSES}, "grid_a": [0, 1, 2]}, "grid_a"),
])
def test_bad_config_exits_with_config_error_and_no_traceback(tmp_path, capsys, doc, path):
    code, out = run_cli(tmp_path, {**doc, "trials_per_pair": 10})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"config error at {path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_errors_are_reported_in_one_fixed_order(tmp_path, capsys):
    doc = {"bogus": 1, "model": "lhv", "grid_a": [], "chsh": {"x0": 0}, "seed": -1, "workers": 0,
           "positions": {"a": "x"}, "preset_pair": [0], "behavior_file": "f", "lhv": {"prior": [1.0]}}
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error at bogus: unknown key",
        "config error at workers: unknown key",
        "config error at grid_a: must be a non-empty list of settings",
        "config error at chsh.x1: missing",
        "config error at chsh.y0: missing",
        "config error at chsh.y1: missing",
        "config error at seed: must be at least 0, got -1",
        "config error at positions.a: expected float",
        "config error at preset_pair: must be a two-element list [x, y]",
        "config error at preset_pair: has no effect unless preset_settings is true",
        "config error at lhv.response_a: missing",
        "config error at lhv.response_b: missing",
        "config error at behavior_file: only meaningful for model 'custom', not 'lhv'",
    ]
    assert not out.exists()


@pytest.mark.parametrize("doc, line", [
    ({"positions": {"a": 1.0, "b": 1.0}}, "positions: observer worldlines must be distinct"),
    ({"signal_speed": 2.0}, "signal_speed: signal speed must lie in (0, c]; got 2.0"),
    # the default signal speed is past so small a c
    ({"c": 0.5}, "signal_speed: signal speed must lie in (0, c]; got 1.0"),
    ({"stage_times": {"setting": 0.3, "detection": 0.2}},
     "stage_times: stage times must increase strictly; got (0.0, 0.3, 0.2, 2.3)"),
    ({"stage_times": {"communication": 2.0}}, "stage_times: communication completes too early: "
     "reports would have to be sent at t=0.0 before detection at t=0.2"),
    ({"c": 1e308}, "stage_times: setting A and detection B are timelike, not space-like separated"),
    # a bad or misspelled member stops the schedule check: a default would stand in its place
    ({"stage_times": {"prepare": "x", "setting": -5}}, "stage_times.prepare: expected float"),
    ({"positions": {"a": 1.0, "bb": 1.0}}, "positions.bb: unknown key"),
    # (0, c] is empty: c is at fault
    ({"c": 0}, "c: c must be positive; got 0.0"),
    ({"c": -1}, "c: c must be positive; got -1.0"),
])
def test_schedule_error_is_reported_at_the_key_it_concerns(tmp_path, capsys, doc, line):
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"config error at {line}"]
    assert not out.exists()


@pytest.mark.parametrize("field", ["prior", "response_a", "response_b"])
def test_bad_lhv_table_is_reported_at_its_field(tmp_path, capsys, field):
    tables = {"prior": [0.5, 0.5], **LHV_RESPONSES}
    tables[field] = [math.nan, 1.0] if field == "prior" else [[[1, 0], [0, 1]], [[1, 0], [0.5, 0.4]]]
    code, out = run_cli(tmp_path, {"model": "lhv", "lhv": tables, "trials_per_pair": 10})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error at lhv.{field}: bad hidden-variable table")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_table_whose_sum_overflows_is_a_config_error_not_a_warning():
    # warnings are errors here, so numpy's overflow warning would escape parse_config
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"model": "lhv", "lhv": {"prior": [1e308, 1e308], **LHV_RESPONSES}}))
    assert err.value.errors == [("lhv.prior", "bad hidden-variable table: probabilities sum to inf, not 1")]


#: Multiples of pi whose radians overflow a float (1e400) or whose cosine's argument does (6e307).
HUGE_MULTIPLES = ["1" + "0" * 400 + "pi", "6" + "0" * 307 + "pi"]


@pytest.mark.parametrize("multiple", HUGE_MULTIPLES, ids=["1e400pi", "6e307pi"])
@pytest.mark.parametrize("route", ["grid_a[0]", "behavior_file"])
def test_a_huge_angle_multiple_is_one_config_error(tmp_path, capsys, multiple, route):
    if route == "grid_a[0]":
        doc = {"grid_a": [multiple, "pi/2"]}
    else:
        table = tmp_path / "behavior.csv"
        rows = [f"{x},{y},{a},{b},0.25" for x in (multiple, "pi/2") for y in ("pi/4", "-pi/4")
                for a, b in CELL_OUTCOMES]
        table.write_text("\n".join(["x,y,a,b,p", *rows]) + "\n", encoding="utf-8")
        doc = {"model": "custom", "behavior_file": str(table)}
    chsh = {"x0": "pi/2", "x1": "pi/2", "y0": "pi/4", "y1": "-pi/4"}
    code, out = run_cli(tmp_path, {**doc, "chsh": chsh, "trials_per_pair": 10})
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error at {route}: not an angle: {multiple!r} (its multiple of pi must be below 2**53 in size)"
    ]
    assert not out.exists()


def test_custom_behavior_file_with_a_nan_cell_is_a_config_error(tmp_path, capsys):
    rows = behavior_to_csv(pr_box()).splitlines()
    rows[1] = rows[1].rpartition(",")[0] + ",nan"
    table = tmp_path / "behavior.csv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error at behavior_file: " in err
    assert "Traceback" not in err
    assert not out.exists()


#: An integer literal longer than the interpreter converts (4300 digits by default).
LONG_INTEGER = b'{"trials_per_pair": 1' + b"0" * 5000 + b"}"


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 200000, LONG_INTEGER],
    ids=["utf-16-bom", "deep-nesting", "long-integer"],
)
def test_unreadable_config_bytes_are_a_config_error_at_the_root(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    code = main([str(path), "-o", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    # an interpreter without a conversion limit reads the literal, which is then too large
    limited = hasattr(sys, "get_int_max_str_digits")
    where = "trials_per_pair" if content is LONG_INTEGER and not limited else "<root>"
    assert code == EXIT_CONFIG
    assert len(lines) == 1 and lines[0].startswith(f"config error at {where}: ")
    assert "Traceback" not in lines[0]
    assert not (tmp_path / "out").exists()


def test_custom_behavior_file_with_undecodable_bytes_is_a_config_error(tmp_path, capsys):
    table = tmp_path / "behavior.csv"
    table.write_bytes(behavior_to_csv(pr_box()).encode("utf-8") + b"\xff\n")
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10})
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(lines) == 1 and lines[0].startswith("config error at behavior_file: not valid UTF-8")
    assert "Traceback" not in lines[0]
    assert not out.exists()


def test_behavior_file_field_past_the_csv_limit_is_a_config_error(tmp_path, capsys):
    # the csv module refuses a field of more than 131072 characters with csv.Error
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(pr_box()) + "1" * 140000 + ",0,1,1,0\n", encoding="utf-8")
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10})
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(lines) == 1 and lines[0].startswith("config error at behavior_file: field larger than field limit")
    assert not out.exists()


@pytest.mark.parametrize("path", ["a\u0000b", "\ud800"], ids=["nul-byte", "lone-surrogate"])
def test_behavior_file_path_that_names_no_file_is_a_config_error(tmp_path, capsys, path):
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": path, "trials_per_pair": 10})
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(lines) == 1 and lines[0].startswith("config error at behavior_file: ")
    assert not out.exists()


def _sparse_file_past_the_limit(path) -> str:
    # INPUT_LIMIT + 1 zero bytes as one hole, so the file takes no disk space
    path.touch()
    os.truncate(path, config_module.INPUT_LIMIT + 1)
    return str(path)


#: An endless file: without a bound its read grows until memory runs out.
DEV_ZERO = pytest.param(
    "/dev/zero", id="dev-zero", marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
)


@pytest.mark.parametrize("source", [pytest.param(None, id="sparse"), DEV_ZERO])
def test_config_past_the_input_limit_is_a_config_error_at_the_root(tmp_path, capsys, source):
    path = source or _sparse_file_past_the_limit(tmp_path / "run.json")
    code = main([path, "-o", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert lines == [f"config error at <root>: file is larger than {config_module.INPUT_LIMIT} bytes"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", [pytest.param(None, id="sparse"), DEV_ZERO])
def test_behavior_file_past_the_input_limit_is_a_config_error(tmp_path, capsys, source):
    table = source or _sparse_file_past_the_limit(tmp_path / "behavior.csv")
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": table, "trials_per_pair": 10})
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert lines == [f"config error at behavior_file: file is larger than {config_module.INPUT_LIMIT} bytes"]
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_behavior_file_line_endings_read_as_in_text_mode(tmp_path, newline):
    # a behavior file decoded from its bytes keeps the universal newlines of a text-mode read
    table = tmp_path / "behavior.csv"
    table.write_bytes(newline.join(behavior_to_csv(pr_box()).splitlines()).encode("utf-8") + newline.encode())
    cfg = parse_config(json.dumps({"model": "custom", "behavior_file": str(table), "trials_per_pair": 10}))
    assert np.array_equal(bellsim.build_model(cfg).table, pr_box().table)


def test_a_behavior_outcome_that_is_not_plus_or_minus_one_is_a_config_error(tmp_path, capsys):
    rows = behavior_to_csv(pr_box()).splitlines()
    rows[1] = rows[1].replace(",1,", ",2,", 1)
    table = tmp_path / "behavior.csv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out = run_cli(tmp_path, {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10})
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config error at behavior_file: line 2: outcomes must be +1 or -1"]
    assert not out.exists()


def test_a_blank_line_between_behavior_rows_is_skipped(tmp_path):
    rows = behavior_to_csv(pr_box()).splitlines()
    table = tmp_path / "behavior.csv"
    table.write_text("\n".join([*rows[:3], "", *rows[3:]]) + "\n", encoding="utf-8")
    doc = {"model": "custom", "behavior_file": str(table), "trials_per_pair": 10}
    assert np.array_equal(bellsim.build_model(parse_config(json.dumps(doc))).table, pr_box().table)
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("p", ["0.25", "0.9"], ids=["same-value", "other-value"])
def test_a_repeated_behavior_cell_is_a_config_error(tmp_path, capsys, p):
    # neither row wins: the same value again would pass unseen, and another would fail
    # the sum check with a total that the file never wrote
    rows = ["x,y,a,b,p", *(f"0,0,{a},{b},0.25" for a in (1, -1) for b in (1, -1))]
    assert behavior_from_csv("\n".join(rows)).table.tolist() == [[[[0.25, 0.25], [0.25, 0.25]]]]
    table = tmp_path / "behavior.csv"
    table.write_text("\n".join([*rows, f"0,0,1,1,{p}"]) + "\n", encoding="utf-8")
    doc = {"model": "custom", "behavior_file": str(table), "chsh": {"x0": 0, "x1": 0, "y0": 0, "y1": 0}}
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error at behavior_file: line 6: cell x=0 y=0 a=1 b=1 repeats line 2"
    ]
    assert not out.exists()


_FULL_CHSH = {"x0": "0", "x1": "pi/2", "y0": "pi/4", "y1": "-pi/4"}


@pytest.mark.parametrize("doc, lines", [
    ([], ["config error at <root>: top level must be a JSON object"]),
    ({"grid_a": ["0", "0"]}, ["config error at grid_a: settings must be distinct"]),
    ({"chsh": {"x0": "0"}}, [f"config error at chsh.{k}: missing" for k in ("x1", "y0", "y1")]),
    ({"chsh": {**_FULL_CHSH, "z": "0"}}, ["config error at chsh.z: unknown key"]),
    ({"model": "lhv", "lhv": []},
     ["config error at lhv: must be an object with prior, response_a, response_b, hidden"]),
    ({"model": "lhv", "lhv": {"prior": [0.5, 0.5], **LHV_RESPONSES, "hiden": ["x"]}},
     ["config error at lhv.hiden: unknown key"]),
    ({"model": "lhv", "lhv": {"hidden": ["x"], "response_a": [], "response_b": []}},
     ["config error at lhv.prior: missing"]),
    ({"model": "custom"}, ["config error at behavior_file: model 'custom' needs a behavior file path"]),
    ({"model": "custom", "behavior_file": "behavior.csv", "grid_a": ["pi/3", "pi/5"]},
     ["config error at grid_a: a custom model takes its grids from behavior_file"]),
    ({"model": "custom", "behavior_file": "behavior.csv", "grid_b": [0, 1]},
     ["config error at grid_b: a custom model takes its grids from behavior_file"]),
    ({"grid_a": [0.5, "pi/2"]},
     ["config error at grid_a[0]: setting must be an integer label or an angle string, got 0.5"]),
    # a chsh that did not parse is not checked against the grids as the default settings
    ({"grid_a": ["pi/3", "pi/6"], "chsh": {"x0": "bad", "x1": "pi/3", "y0": "pi/4", "y1": "-pi/4"}},
     ["config error at chsh.x0: not an angle: 'bad' (expected e.g. '0', 'pi/4', '-3pi/4')"]),
    # nor is a grid that did not parse held to the pr-box binary grids
    ({"model": "pr-box", "grid_a": []}, ["config error at grid_a: must be a non-empty list of settings"]),
    # the pr-box binary-grid rule names each grid that breaks it, and only those
    ({"model": "pr-box", "grid_b": [1, 0]}, ["config error at grid_b: the pr-box model requires binary grids [0, 1]"]),
    ({"model": "pr-box", "grid_a": [1, 0], "grid_b": [1, 0]},
     [f"config error at grid_{w}: the pr-box model requires binary grids [0, 1]" for w in "ab"]),
], ids=["not-an-object", "repeated-setting", "missing-chsh-keys", "unknown-chsh-key", "lhv-not-an-object",
        "lhv-unknown-member", "lhv-missing-member", "custom-without-file", "custom-grid-a", "custom-grid-b",
        "float-setting", "unparsed-chsh", "pr-box-unparsed-grid", "pr-box-grid-b", "pr-box-both-grids"])
def test_config_shape_errors_exit_with_one_line_per_error(tmp_path, capsys, doc, lines):
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()
