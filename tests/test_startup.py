"""Start-up guards for a fresh CLI process, checked by what it loads and defines, not by timing.

``Angle`` needs no ``fractions`` (which brings ``decimal``), and only a run
with more than one worker needs ``concurrent.futures``.  Records are
``typing.NamedTuple``s or plain classes: a dataclass generates and compiles
its methods' source on every import, so bellsim defines none and never
imports ``dataclasses``.
"""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bellsim
from bellsim import harness, models, observers, probability

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("fractions", "decimal", "concurrent.futures", "dataclasses")

#: Imports the CLI, runs one small one-worker config through it, and prints, on its
#: last line, which of the deferred modules were loaded after the import and after the run.
PROBE = """
import json, sys
loaded = lambda: [m for m in {deferred!r} if m in sys.modules]
import bellsim.cli
after_import = loaded()
code = bellsim.cli.main([sys.argv[1], "-o", sys.argv[2]])
print(json.dumps([after_import, loaded(), code]))
"""


def test_cli_import_and_a_one_worker_run_leave_fractions_decimal_and_the_pool_unloaded(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trials_per_pair": 50, "traced_trials": 3}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(deferred=DEFERRED), str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    after_import, after_run, code = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert after_import == [] and after_run == []


def test_bellsim_defines_no_dataclasses():
    names = [f"bellsim.{m.name}" for m in pkgutil.iter_modules(bellsim.__path__)]
    found = {
        obj.__name__
        for module in map(importlib.import_module, names)
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == set()


RECORDS = (
    models.NoSignalingReport, models.FactorizabilityReport, harness.EstimatedBehavior, harness.ChshEstimate,
    harness.ViolationReport, observers.StageRow, observers.StageTable, probability.Factorization,
    bellsim.ExperimentConfig, observers.ObserverState,
)


def test_result_records_unpack_and_index_as_tuples():
    for record in RECORDS:
        assert issubclass(record, tuple) and record._fields, record
    behavior = models.pr_box()
    estimate = harness.estimate_chsh(
        harness.run_experiment(bellsim.ExperimentConfig(model="pr-box", trials_per_pair=20), behavior),
        models.pr_box_settings(),
    )
    value, stderr, correlators = estimate
    assert (value, stderr, correlators) == (estimate.value, estimate[1], estimate.correlators)
