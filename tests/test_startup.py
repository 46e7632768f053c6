"""Start-up guards for a fresh CLI process, checked by what it loads and defines, not by timing.

``Angle`` needs no ``fractions`` (which brings ``decimal``), and no run needs
``concurrent.futures``: sampling threads are plain ``threading.Thread``s.
A run reads its command line with ``getopt``, so it imports neither
``argparse`` nor ``locale``.  The CLI prints its own ``-v`` and ``-vv`` lines,
so no run imports ``logging``, nor the ``traceback`` and ``string`` it brings.
Records are ``typing.NamedTuple``s or plain classes: a dataclass generates and
compiles its methods' source on every import, so bellsim defines none and
never imports ``dataclasses``.
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

import pytest

import bellsim
from bellsim import harness, models, observers, probability

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("fractions", "decimal", "concurrent.futures", "dataclasses")

#: Imports the CLI, runs one config through it with any further arguments as flags, and
#: prints, on its last line, which of the deferred modules were loaded after the import and after the run.
PROBE = """
import json, sys
loaded = lambda: [m for m in {deferred!r} if m in sys.modules]
import bellsim.cli
after_import = loaded()
code = bellsim.cli.main([sys.argv[1], "-o", sys.argv[2], *sys.argv[3:]])
print(json.dumps([after_import, loaded(), code]))
"""


#: Runs one config through the CLI on two CPUs, whatever the host's, and prints whether
#: ``numpy.random`` was loaded as each thread started.
THREAD_PROBE = """
import json, os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
loaded, start = [], threading.Thread.start
def recording_start(thread):
    loaded.append("numpy.random" in sys.modules)
    start(thread)
threading.Thread.start = recording_start
import bellsim.cli
assert bellsim.cli.main([sys.argv[1], "-o", sys.argv[2]]) == 0
print(json.dumps(loaded))
"""


def probe(tmp_path, doc, script=PROBE.format(deferred=DEFERRED), flags=()) -> list:
    """The last line of a fresh CLI process running ``doc`` through ``script`` with ``flags``, by default
    ``[loaded after the import, loaded after the run, exit code]``."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "out"), *flags],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_and_a_one_worker_run_leave_fractions_decimal_and_the_pool_unloaded(tmp_path):
    assert probe(tmp_path, {"trials_per_pair": 50, "traced_trials": 3}) == [[], [], 0]


def test_a_successful_run_imports_neither_argparse_nor_locale(tmp_path):
    # the command line is read with getopt, whose messages look up their translation
    # through gettext, which imports locale, only on a usage error
    script = PROBE.format(deferred=("argparse", "locale"))
    assert probe(tmp_path, {"trials_per_pair": 50, "traced_trials": 3}, script) == [[], [], 0]


@pytest.mark.parametrize("flags", [[], ["-vv"]], ids=["quiet", "very-verbose"])
def test_neither_the_import_nor_a_run_at_any_verbosity_loads_logging(tmp_path, flags):
    script = PROBE.format(deferred=("logging", "traceback", "string"))
    assert probe(tmp_path, {"trials_per_pair": 50, "traced_trials": 3}, script, flags) == [[], [], 0]


def test_a_run_on_two_sampling_threads_leaves_the_pool_unloaded(tmp_path):
    # two CPUs, whatever the host's, and two parts of 2^16 trials per pair: two threads
    doc = {"model": "pr-box", "trials_per_pair": 2**17, "keep_records": False}
    script = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n" + PROBE.format(deferred=DEFERRED)
    assert probe(tmp_path, doc, script) == [[], [], 0]


def test_numpy_random_is_loaded_before_a_sampling_thread_starts(tmp_path):
    # numpy loads it on first use; a helper thread that did would map it into whatever address
    # space the other threads' stacks and heaps left, which under ``ulimit -v`` can be too little
    doc = {"model": "pr-box", "trials_per_pair": 2**17, "keep_records": False}
    assert probe(tmp_path, doc, THREAD_PROBE) == [True] * 4


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
