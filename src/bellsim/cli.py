"""Command-line entry point: one config file in, a run directory out.

Writes the per-trial dataset, a machine-readable trace of the first trials,
plot-ready correlator data, and a summary with five fixed sections:
estimates, no-signaling, factorizability, classification, and the stage
table.  Re-running with the same config and seed reproduces every output
byte for byte.
"""

from __future__ import annotations

import getopt
import json
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from time import perf_counter

import numpy as np

from .angles import Angle, setting_text
from .config import INPUT_LIMIT, ExperimentConfig, build_model, decode_text, parse_config
from .errors import ConfigError, SimulationError, UnsupportedScenarioError
from .harness import (
    ChshEstimate,
    Dataset,
    classify_violation,
    dataset_to_csv,
    estimate_behavior,
    estimate_chsh,
    run_experiment,
    trace_trials,
)
from .models import (
    Behavior,
    behavior_to_csv,
    check_factorizable,
    check_no_signaling,
    chsh_value,
    correlator,
    correlators,
    marginal_spreads,
    singlet_behavior,
)
from .observers import Stage, stage_table
from .spacetime import Message, reception_time

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

#: Every file a run writes; a rerun into the same directory removes them first.
ARTIFACTS = ("summary.json", "dataset.csv", "behavior_estimate.csv", "trace.json", "plot_correlator.txt")

#: ``trace.json``'s write buffer in bytes; a traced trial's document is a few kB.
TRACE_BUFFER = 1 << 20

USAGE = "usage: bellsim [-h] [-o OUTDIR] [--seed SEED] [--trials TRIALS] [-v] config\n"

HELP = USAGE + """
Simulate a two-observer correlation experiment from a JSON config.

positional arguments:
  config                path to the JSON run configuration

options:
  -h, --help            show this help message and exit
  -o OUTDIR, --outdir OUTDIR
                        output directory (default: bellsim-out)
  --seed SEED           override the master seed
  --trials TRIALS       override trials per setting pair
  -v, --verbose         log each phase's time; -vv also logs each sampled pair
"""


def _estimates_section(behavior: Behavior, est: ChshEstimate, config: ExperimentConfig) -> dict:
    analytic = chsh_value(behavior, config.chsh)
    return {
        "chsh": {"value": est.value, "stderr": est.stderr, "analytic": analytic},
        "correlators": [
            {
                "x": setting_text(x),
                "y": setting_text(y),
                "value": v,
                "stderr": se,
                "analytic": correlator(behavior, x, y),
            }
            for x, y, v, se in est.correlators
        ],
        "trials_per_pair": config.trials_per_pair,
    }


def _no_signaling_section(behavior: Behavior, dataset: Dataset) -> dict:
    analytic = check_no_signaling(behavior)
    n = dataset.n_per_pair
    empirical = max(marginal_spreads(dataset.counts, n))
    bound = 5.0 / float(np.sqrt(n.min()))
    return {
        "analytic": {
            "max_deviation": analytic.max_deviation,
            "marginal_setting_independent": analytic.marginal_setting_independent,
            "tol": analytic.tol,
        },
        "empirical": {
            "max_deviation": empirical,
            "bound": bound,
            "passed": empirical <= bound,
        },
    }


def _factorizability_section(behavior: Behavior) -> dict:
    try:
        report = check_factorizable(behavior)
    except UnsupportedScenarioError as exc:
        return {"supported": False, "reason": str(exc)}
    return {
        "supported": True,
        "is_local": report.is_local,
        "max_facet": report.max_facet,
        "worst_signs": list(report.worst_signs),
        "no_signaling_passed": report.no_signaling.passed,
        "tol": report.tol,
    }


def _classification_section(traces, est: ChshEstimate, config: ExperimentConfig) -> list:
    if not traces:
        return []
    reports = []
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION, Stage.COMMUNICATION):
        report = classify_violation(traces[0], stage, config.chsh, estimate=est, observer="A")
        reports.append(report.to_dict())
    return reports


def _stage_table_section(traces) -> dict:
    if not traces:
        return {"rows": [], "note": "no traced trials were requested"}
    table = stage_table(traces[0].observer_a, traces[0].observer_b)
    return {"rows": table.to_dicts(), "pattern": "".join(table.pattern)}


def _event_entry(e, schedule) -> dict:
    payload = e.payload
    entry = {
        "index": e.index,
        "t": e.t,
        "x": e.x,
        "kind": type(payload).__name__,
        "speed": e.speed,
        "received": {
            "A": reception_time(e, schedule.worldline_a),
            "B": reception_time(e, schedule.worldline_b),
        },
    }
    if isinstance(payload, Message):
        entry["sender"] = payload.sender
        entry["recipient"] = payload.recipient
        entry["body"] = type(payload.body).__name__
    name, value = payload.proposition
    entry["proposition"] = name
    entry["value"] = setting_text(value) if not isinstance(value, str) else value
    return entry


#: One scalar or key as JSON: the C encoder's paths for ``str``, ``int`` and finite ``float``.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _dumps_at(obj: dict, depth: int) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, ensure_ascii=False)`` writes it ``depth`` levels deep.

    ``obj`` maps strings to scalars or to dicts of them, as an event or stage
    entry does.
    """
    if not obj:
        return "{}"
    members = [f"{_encode(k)}: {_dumps_at(v, depth + 1) if isinstance(v, dict) else _encode(v)}"
               for k, v in obj.items()]
    return _block("{", "}", members, depth)


def _block(open_: str, close: str, members: list, depth: int) -> str:
    """A non-empty JSON array or object at ``depth`` from members encoded at ``depth + 1``."""
    pad = "\n" + "  " * (depth + 1)
    return open_ + pad + ("," + pad).join(members) + "\n" + "  " * depth + close


def _write_trace(traces, schedule, out) -> None:
    """Write ``json.dumps`` of every trace's document, indented, in UTF-8 to the binary ``out`` trial by trial.

    A document is its trial number, its position in ``traces``, followed by a
    body built from the trace's data point, events and ledgers.  Trials with
    one key share one trace, kept alive by ``traces``, so each body is built
    once, keyed by the trace's ``id``, spliced from ``str`` fragments encoded
    once each, and encoded to UTF-8 once; a trial is two byte writes, its
    header and its body.  A ``"data"`` member is fixed by its name and value
    text.  An event entry is encoded once per event object, and
    :func:`trace_trials` builds each event of a slot and value once, so
    every key that carries it shares it.  A stage entry is fixed by the stage and
    the ledger's rendered text, which many ledger objects share, so each
    ledger object is rendered once and each distinct text encoded once, in
    ``stage_ledgers`` order.
    """
    members, events, stages, texts, bodies = {}, {}, {}, {}, {}
    sep = b"[\n  "
    for k, t in enumerate(traces):
        key = id(t)
        if key not in bodies:
            data_items = []
            for var, value in t.pooled.data.items():
                member = var, setting_text(value) if not isinstance(value, int) else value
                if member not in members:  # ``"θa": "pi/4"``
                    members[member] = f"{_encode(member[0])}: {_encode(member[1])}"
                data_items.append(members[member])
            event_items = []
            for e in t.events:
                if id(e) not in events:
                    events[id(e)] = _dumps_at(_event_entry(e, schedule), 3)
                event_items.append(events[id(e)])
            observers = []
            for s in (t.observer_a, t.observer_b):
                stage_items = []
                for stage, ledger in s.stage_ledgers().items():
                    if ledger not in texts:
                        texts[ledger] = ledger.render()
                    skey = (stage, texts[ledger])
                    if skey not in stages:
                        stages[skey] = _dumps_at({"stage": stage.value, "ledger": texts[ledger]}, 4)
                    stage_items.append(stages[skey])
                observers.append(f"{_encode(s.observer)}: {_block('[', ']', stage_items, 3)}")
            bodies[key] = (
                f'\n    "data": {_block("{", "}", data_items, 2)},'
                f'\n    "events": {_block("[", "]", event_items, 2)},'
                f'\n    "stages": {_block("{", "}", observers, 2)}\n  }}'
            ).encode("utf-8")
        out.write(b'%s{\n    "trial": %d,' % (sep, k))
        out.write(bodies[key])
        sep = b",\n  "
    out.write(b"\n]\n")


def _plot_rows(behavior: Behavior, est: ChshEstimate, config: ExperimentConfig) -> str:
    lines = ["# delta_radians correlator stderr source"]
    if config.model == "singlet":
        dense = [Angle.of(k, 24) for k in range(-24, 25)]
        curve = correlators(singlet_behavior((Angle.of(0),), dense).table[0])
        for y, c in zip(dense, curve.tolist()):
            lines.append(f"{-y.radians + 0.0!r} {c!r} 0.0 analytic")
    for x, y, v, se in est.correlators:
        if isinstance(x, Angle) and isinstance(y, Angle):
            delta = (x - y).radians + 0.0
        else:
            delta = float(behavior.grid_a.index(x) - behavior.grid_b.index(y))
        lines.append(f"{delta!r} {v!r} {se!r} empirical")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig, outdir: Path, verbose: int = 0) -> dict:
    """Execute the configured run and write every artifact into ``outdir``.

    ``verbose`` 1 prints each phase's time to stderr as ``INFO`` lines, and 2 also each sampled pair as
    ``DEBUG`` lines: the verbosity is this call's alone, and nothing process-wide is configured.
    """

    def say(text: str, level: int = 1) -> None:
        if verbose >= level:
            print("INFO" if level == 1 else "DEBUG", text, file=sys.stderr)

    @contextmanager
    def phase(name: str):
        start = perf_counter()
        yield
        say(f"{name}: {perf_counter() - start:.3f} s")

    with phase("build"):
        behavior = build_model(config)

    pairs, n = len(behavior.pairs()), config.trials_per_pair
    say(f"sampling {n} trials per pair (seed {config.seed})")
    with phase("sample"):
        dataset = run_experiment(config, behavior, progress=lambda i: say(f"sampled pair {i}/{pairs}: {n} trials", 2))

    with phase("trace"):
        traces = trace_trials(config, behavior)

    with phase("diagnostics"):
        est = estimate_chsh(dataset, config.chsh)
        summary = {
            "model": config.model,
            "seed": config.seed,
            "estimates": _estimates_section(behavior, est, config),
            "no_signaling": _no_signaling_section(behavior, dataset),
            "factorizability": _factorizability_section(behavior),
            "classification": _classification_section(traces, est, config),
            "stage_table": _stage_table_section(traces),
        }

    outdir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        (outdir / name).unlink(missing_ok=True)
    with phase("write summary.json"):
        (outdir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    if dataset.records.size:
        with phase("write dataset.csv"), open(outdir / "dataset.csv", "wb") as fh:
            dataset_to_csv(dataset, config.schedule, fh)
    with phase("write behavior_estimate.csv"):
        (outdir / "behavior_estimate.csv").write_text(
            behavior_to_csv(estimate_behavior(dataset).behavior), encoding="utf-8"
        )
    if traces:
        with phase("write trace.json"), open(outdir / "trace.json", "wb", buffering=TRACE_BUFFER) as fh:
            _write_trace(traces, config.schedule, fh)
    with phase("write plot_correlator.txt"):
        (outdir / "plot_correlator.txt").write_text(_plot_rows(behavior, est, config), encoding="utf-8")
    say(f"wrote {outdir}")
    return summary


def _flag_value(text: str):
    """The int that ``text`` spells, or ``text``: ``parse_config`` checks the type."""
    with suppress(ValueError):
        return int(text)
    return text


def _usage_error(message: str) -> int:
    print(f"{USAGE}bellsim: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    # GNU style: options before or after the config path, unique long prefixes, and
    # ``--`` ends the options; with POSIXLY_CORRECT set the first non-option ends them
    try:
        opts, args = getopt.gnu_getopt(
            sys.argv[1:] if argv is None else argv, "ho:v", ["help", "outdir=", "seed=", "trials=", "verbose"]
        )
    except getopt.GetoptError as exc:
        return _usage_error(exc.msg)
    names = {"-h": "--help", "-o": "--outdir", "-v": "--verbose"}
    given = [(names.get(opt, opt), value) for opt, value in opts]
    if any(opt == "--help" for opt, _ in given):
        print(HELP, end="")
        return EXIT_OK
    if not args:
        return _usage_error("the following arguments are required: config")
    if len(args) > 1:
        return _usage_error(f"unrecognized arguments: {' '.join(args[1:])}")
    values = {"--outdir": "bellsim-out", **dict(given)}  # a repeated option's last value wins
    verbose = sum(opt == "--verbose" for opt, _ in given)

    try:
        with open(args[0], "rb") as fh:
            data = fh.read(INPUT_LIMIT + 1)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    # a flag replaces its field before validation, and errors at that field name the flag
    flags = {"seed": "--seed", "trials_per_pair": "--trials"}
    overrides = {name: _flag_value(values[flag]) for name, flag in flags.items() if flag in values}
    try:
        summary = run(parse_config(decode_text(data, ""), overrides), Path(values["--outdir"]), verbose)
    except ConfigError as exc:
        for path, reason in exc.errors:
            path = flags[path] if path in overrides else path
            print(f"config error at {path or '<root>'}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    chsh = summary["estimates"]["chsh"]
    print(f"S = {chsh['value']:+.4f} ± {chsh['stderr']:.4f} (analytic {chsh['analytic']:+.4f})")
    print(f"stage table pattern: {summary['stage_table'].get('pattern', '-')}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
