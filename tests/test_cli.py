"""Config parsing and the end-to-end command-line pipeline."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from bellsim import Angle, ConfigError, ExperimentConfig, behavior_to_csv, parse_config, pr_box
from bellsim.cli import ARTIFACTS, EXIT_CONFIG, EXIT_IO, EXIT_OK, main

SECTIONS = ("estimates", "no_signaling", "factorizability", "classification", "stage_table")


# -- parsing -------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config('{"model": "singlet"}')
    assert cfg.grid_a == (Angle.of(0), Angle.of(1, 2))
    assert cfg.trials_per_pair == 10000
    assert cfg.chsh.x1 == Angle.of(1, 2)
    assert cfg.workers == 1 and not cfg.preset_settings


def test_negative_trials_named_in_error():
    with pytest.raises(ConfigError) as err:
        parse_config('{"trials_per_pair": -5}')
    assert any(path == "trials_per_pair" for path, _ in err.value.errors)


def test_seed_beyond_generator_key_is_a_config_error():
    assert parse_config(json.dumps({"seed": 2**128 - 1})).seed == 2**128 - 1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"seed": 2**128}))
    assert [path for path, _ in err.value.errors] == ["seed"]


def test_float_field_too_large_for_a_float_is_a_config_error():
    huge = "1" + "0" * 400
    with pytest.raises(ConfigError) as err:
        parse_config('{"c": %s}' % huge)
    assert err.value.errors == [("c", "number too large")]
    with pytest.raises(ConfigError) as err:
        parse_config('{"q_setting_width": %s, "stage_times": {"detection": %s}}' % (huge, huge))
    assert {path for path, _ in err.value.errors} == {"q_setting_width", "stage_times.detection"}


def test_readme_config_surface_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Full config surface:\s*```json\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"\s*//.*", "", block))
    cfg = parse_config(json.dumps(doc))
    assert dataclasses.replace(cfg, preset_pair=None) == ExperimentConfig()


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
    for fname in ("summary.json", "dataset.csv", "trace.json", "plot_correlator.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


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
    for row in summary["classification"]:
        assert row["classification"] == "factual-local"
    assert summary["stage_table"]["pattern"] == "yyny"


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"trials_per_pair": -1}', encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG


def test_runtime_error_exit_code(tmp_path):
    # chosen pairs outside the custom table's grid surface only at run time
    table = tmp_path / "behavior.csv"
    table.write_text(behavior_to_csv(pr_box()), encoding="utf-8")
    doc = {
        "model": "custom",
        "behavior_file": str(table),
        "chsh": {"x0": 0, "x1": 5, "y0": 0, "y1": 1},
        "trials_per_pair": 10,
        "traced_trials": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([str(path), "-o", str(tmp_path / "out")])
    assert code == 2


def test_missing_config_exit_code(tmp_path):
    assert main([str(tmp_path / "nope.json"), "-o", str(tmp_path / "out")]) == EXIT_IO


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
