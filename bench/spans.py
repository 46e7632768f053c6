"""Outside-in tracing of one bellsim CLI run.

:func:`instrument` rebinds, for the length of one run, every public function
that ``bellsim.cli``, ``bellsim.harness`` and ``bellsim.observers`` import from
the layers below them, plus ``cli.run`` itself, ``Schedule.trial_events`` and
a counter on ``TaggedJoint.__init__``.  Each call then leaves a span (name,
start, end, parent span, run id) in memory; nothing inside bellsim changes.
Calls a module makes to its own functions are not seen, so a span's self time
includes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: Modules whose imported names are rebound: the callers of the layers below.
CALLERS = ("bellsim.cli", "bellsim.harness", "bellsim.observers")
#: The layers, named after the modules of ``src/bellsim``.  ``angles`` and
#: ``errors`` are leaf helpers and are not traced.
LAYERS = ("config", "models", "spacetime", "probability", "observers", "harness", "cli")
ROOT = "cli.run"


class Tracer:
    """Spans of one run, kept in parallel lists until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, on_result=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly; returns its id."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "counts": dict(self.counts), "spans": rows}, fh)


def self_times(tracer: Tracer) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    for sid, parent in enumerate(tracer.parents):
        if parent >= 0:
            out[parent] -= tracer.ends[sid] - tracer.starts[sid]
    return out


def _count_dataset(tracer: Tracer, dataset) -> None:
    tracer.counts["harness.trials_sampled"] += int(dataset.counts.sum())
    tracer.counts["harness.records_kept"] += len(getattr(dataset, "records", ()))


def instrument(tracer: Tracer):
    """Rebind the traced names; returns a function that restores them all."""
    from bellsim.probability import TaggedJoint
    from bellsim.spacetime import Schedule

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for caller in CALLERS:
        module = sys.modules[caller]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = value.__module__.rpartition(".")[2]
            if value.__module__ == caller or layer not in LAYERS:
                continue
            hook = _count_dataset if value.__name__ == "run_experiment" else None
            rebind(module, attr, tracer.wrap(f"{layer}.{value.__name__}", value, hook))

    cli = sys.modules["bellsim.cli"]
    rebind(cli, "run", tracer.wrap(ROOT, cli.run))
    rebind(Schedule, "trial_events", tracer.wrap("spacetime.trial_events", Schedule.trial_events))

    built = tracer.counts
    init = TaggedJoint.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        built["probability.tagged_joints_built"] += 1
        init(self, *args, **kwargs)

    rebind(TaggedJoint, "__init__", counted_init)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _within_root(tracer: Tracer) -> list:
    """Whether each span lies in the subtree of a ``cli.run`` span."""
    inside = []
    for name, parent in zip(tracer.names, tracer.parents):
        inside.append(name == ROOT or (parent >= 0 and inside[parent]))
    return inside


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, named as in BENCHMARK.json.

    ``*_s`` names are total span durations, except where the name says self
    time in the docs (``harness.run_experiment_s``, ``harness.run_trial_s``,
    ``observers.receive_s``, ``cli.run_self_s`` and the ``<layer>.self_s``
    sums).  Spans of a name never nest in one another, so totals do not
    double count.
    """
    selfs = self_times(tracer)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter(tracer.names)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, start, end, s, inside in zip(tracer.names, tracer.starts, tracer.ends, selfs, _within_root(tracer)):
        total[name] += end - start
        own[name] += s
        if inside:
            layer_self[name.partition(".")[0]] += s

    m = {
        "config.parse_config_s": total["config.parse_config"],
        "config.build_model_s": total["config.build_model"],
        "harness.run_experiment_s": own["harness.run_experiment"],
        "harness.trials_sampled": tracer.counts["harness.trials_sampled"],
        "harness.records_kept": tracer.counts["harness.records_kept"],
        "harness.dataset_to_csv_s": total["harness.dataset_to_csv"],
        "harness.run_trial_s": own["harness.run_trial"],
        "harness.run_trial_calls": calls["harness.run_trial"],
        "observers.receive_s": own["observers.receive"],
        "observers.receive_calls": calls["observers.receive"],
        "observers.init_beliefs_s": total["observers.init_beliefs"],
        "observers.pool_s": total["observers.pool"],
        "observers.stage_table_s": total["observers.stage_table"],
        "probability.condition_table_s": total["probability.condition_table"],
        "probability.product_s": total["probability.product"],
        "probability.condition_s": total["probability.condition"],
        "probability.tagged_joints_built": tracer.counts["probability.tagged_joints_built"],
        "spacetime.trial_events_calls": calls["spacetime.trial_events"],
        "spacetime.trial_events_s": total["spacetime.trial_events"],
        "harness.estimate_s": total["harness.estimate_chsh"] + total["harness.estimate_behavior"],
        "harness.classify_violation_s": total["harness.classify_violation"],
        "models.diagnostics_s": sum(
            total[f"models.{f}"] for f in ("check_factorizable", "check_no_signaling", "chsh_value", "correlator")
        ),
        "cli.run_s": total[ROOT],
        "cli.run_self_s": own[ROOT],
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = layer_self[layer]
    # every span under cli.run belongs to one layer, so this is 1 up to rounding
    m["bench.layer_self_coverage"] = sum(layer_self.values()) / total[ROOT] if total[ROOT] else 0.0
    return m
