"""The benchmark's own tests: ``python3 -m pytest -q bench/tests`` from the repository root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from bellsim.config import parse_config  # noqa: E402


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_config_parses(name, size):
    w = workloads.WORKLOADS[name]
    cfg = parse_config(workloads.config_text(w, w.default_seed, size))
    assert cfg.trials_per_pair * len(cfg.grid_a) * len(cfg.grid_b) == w.trials(size)
    assert cfg.workers == 1
    assert cfg.seed == w.default_seed


def test_seed_is_the_only_input_that_varies():
    w = workloads.WORKLOADS["records-csv"]
    assert workloads.config_text(w, 3) == workloads.config_text(w, 3)
    a, b = w.config(3), w.config(4)
    assert a.pop("seed") == 3 and b.pop("seed") == 4 and a == b


def test_self_time_subtracts_direct_children_only():
    t = spans.Tracer("unit")
    root = t.add("cli.run", 0.0, 10.0)
    child = t.add("harness.run_trial", 1.0, 5.0, root)
    t.add("observers.receive", 2.0, 3.0, child)
    t.add("observers.receive", 3.5, 4.0, child)
    t.add("config.build_model", 6.0, 7.5, root)
    t.add("config.parse_config", 11.0, 12.0)  # outside cli.run
    assert spans.self_times(t) == [4.5, 2.5, 1.0, 0.5, 1.5, 1.0]
    m = spans.layer_metrics(t)
    assert m["cli.run_s"] == 10.0 and m["cli.run_self_s"] == 4.5
    assert m["harness.run_trial_s"] == 2.5 and m["harness.run_trial_calls"] == 1
    assert m["observers.receive_s"] == 1.5 and m["observers.receive_calls"] == 2
    assert m["config.parse_config_s"] == 1.0 and m["config.self_s"] == 1.5
    assert m["bench.layer_self_coverage"] == 1.0


def test_instrument_restores_every_name():
    import bellsim.cli
    import bellsim.harness
    from bellsim.probability import TaggedJoint
    from bellsim.spacetime import Schedule

    before = (bellsim.cli.run, bellsim.cli.run_experiment, bellsim.harness.receive,
              Schedule.trial_events, TaggedJoint.__init__)
    restore = spans.instrument(spans.Tracer("unit"))
    assert bellsim.harness.receive is not before[2]
    restore()
    after = (bellsim.cli.run, bellsim.cli.run_experiment, bellsim.harness.receive,
             Schedule.trial_events, TaggedJoint.__init__)
    assert after == before


def test_reference_load_imports_nothing_from_bellsim():
    code = "import sys, reference; assert reference.reference_s(1) > 0; print(sorted(m for m in sys.modules if 'bellsim' in m))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_output_check(name, trace):
    from run import END_TO_END, PER_LAYER

    lines = _bench("--workload", name, "--seconds", "0", "--trace", trace, "--size", "smoke")
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1)
    wanted = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == set(wanted)
    assert all(m["unit"] == wanted[k] for k, m in result["metrics"].items())
    assert any(line.startswith(f"{name} failed_frac = 0.0000") for line in lines)


def test_metric_names_match_benchmark_json():
    from run import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
