"""Command-line entry point: one config file in, a run directory out.

Writes the per-trial dataset, a machine-readable trace of the first trials,
plot-ready correlator data, and a summary with five fixed sections:
estimates, no-signaling, factorizability, classification, and the stage
table.  Re-running with the same config and seed reproduces every output
byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .angles import Angle, setting_text
from .config import ExperimentConfig, apply_overrides, build_model, parse_config
from .errors import ConfigError, SimulationError, UnsupportedScenarioError
from .harness import (
    Dataset,
    classify_violation,
    dataset_to_csv,
    estimate_behavior,
    estimate_chsh,
    run_experiment,
    run_trial,
)
from .models import (
    Behavior,
    behavior_to_csv,
    check_factorizable,
    check_no_signaling,
    chsh_value,
    correlator,
    singlet_behavior,
)
from .observers import Stage, stage_table
from .spacetime import Message, reception_time

log = logging.getLogger("bellsim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

#: Every file a run writes; a rerun into the same directory removes them first.
ARTIFACTS = ("summary.json", "dataset.csv", "behavior_estimate.csv", "trace.json", "plot_correlator.txt")


def _estimates_section(behavior: Behavior, dataset: Dataset, config: ExperimentConfig) -> dict:
    est = estimate_chsh(dataset, config.chsh)
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
    n = dataset.n_per_pair.astype(float)
    pa = dataset.counts.sum(axis=3) / n[:, :, None]
    pb = dataset.counts.sum(axis=2) / n[:, :, None]
    dev_a = float(np.max(pa.max(axis=1) - pa.min(axis=1), initial=0.0))
    dev_b = float(np.max(pb.max(axis=0) - pb.min(axis=0), initial=0.0))
    bound = 5.0 / float(np.sqrt(n.min()))
    empirical = max(dev_a, dev_b)
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


def _classification_section(traces, dataset: Dataset, config: ExperimentConfig) -> list:
    if not traces:
        return []
    reports = []
    for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION, Stage.COMMUNICATION):
        needs_data = stage is Stage.COMMUNICATION or config.preset_settings
        report = classify_violation(
            traces,
            stage,
            config.chsh,
            dataset=dataset if needs_data else None,
            observer="A",
        )
        reports.append(report.to_dict())
    return reports


def _stage_table_section(traces) -> dict:
    if not traces:
        return {"rows": [], "note": "no traced trials were requested"}
    table = stage_table(traces[0].observer_a, traces[0].observer_b)
    return {"rows": table.to_dicts(), "pattern": "".join(table.pattern)}


def _trace_document(trace, schedule) -> dict:
    events = []
    for e in schedule.trial_events(
        trace.record.theta_a, trace.record.theta_b, trace.record.outcome_a, trace.record.outcome_b
    ):
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
        for name, value in payload.propositions():
            entry["proposition"] = name
            entry["value"] = setting_text(value) if not isinstance(value, str) else value
        events.append(entry)
    stages = {}
    for obs_state in (trace.observer_a, trace.observer_b):
        stages[obs_state.observer] = [
            {"stage": stage.value, "ledger": ledger.render()}
            for stage, ledger in sorted(
                obs_state.stage_ledgers().items(), key=lambda kv: list(Stage).index(kv[0])
            )
        ]
    return {
        "trial": trace.record.trial,
        "data": {k: setting_text(v) if not isinstance(v, int) else v for k, v in trace.pooled.data.items()},
        "events": events,
        "stages": stages,
    }


def _plot_rows(behavior: Behavior, dataset: Dataset, config: ExperimentConfig) -> str:
    lines = ["# delta_radians correlator stderr source"]
    if config.model == "singlet":
        dense = [Angle.of(k, 24) for k in range(-24, 25)]
        curve = singlet_behavior((Angle.of(0),), dense)
        for y in dense:
            c = correlator(curve, Angle.of(0), y)
            lines.append(f"{-y.radians + 0.0!r} {c!r} 0.0 analytic")
    est = estimate_chsh(dataset, config.chsh)
    for x, y, v, se in est.correlators:
        if isinstance(x, Angle) and isinstance(y, Angle):
            delta = (x - y).radians + 0.0
        else:
            delta = float(behavior.grid_a.index(x) - behavior.grid_b.index(y))
        lines.append(f"{delta!r} {v!r} {se!r} empirical")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig, outdir: Path) -> dict:
    """Execute the configured run and write every artifact into ``outdir``."""
    behavior = build_model(config)
    schedule = config.schedule

    log.info("sampling %d trials per pair (seed %d)", config.trials_per_pair, config.seed)
    dataset = run_experiment(config)

    pairs = list(itertools.product(behavior.grid_a, behavior.grid_b))
    traces = []
    for k in range(config.traced_trials):
        pair = pairs[(k // config.trials_per_pair) % len(pairs)]
        if config.preset_settings and config.preset_pair is not None:
            pair = config.preset_pair
        traces.append(
            run_trial(
                behavior,
                schedule,
                master_seed=config.seed,
                trial_index=k,
                forced_settings=pair,
                preset=config.preset_settings,
                q_setting_width=config.q_setting_width,
                q_outcome_width=config.q_outcome_width,
                unresolved_local_setting=config.unresolved_local_setting,
            )
        )

    summary = {
        "model": config.model,
        "seed": config.seed,
        "estimates": _estimates_section(behavior, dataset, config),
        "no_signaling": _no_signaling_section(behavior, dataset),
        "factorizability": _factorizability_section(behavior),
        "classification": _classification_section(traces, dataset, config),
        "stage_table": _stage_table_section(traces),
    }

    outdir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        (outdir / name).unlink(missing_ok=True)
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    if dataset.records.size:
        with open(outdir / "dataset.csv", "w", encoding="utf-8", newline="") as fh:
            dataset_to_csv(dataset, fh)
    (outdir / "behavior_estimate.csv").write_text(
        behavior_to_csv(estimate_behavior(dataset).behavior), encoding="utf-8"
    )
    if traces:
        (outdir / "trace.json").write_text(
            json.dumps([_trace_document(t, schedule) for t in traces], indent=2, ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )
    (outdir / "plot_correlator.txt").write_text(_plot_rows(behavior, dataset, config), encoding="utf-8")
    log.info("wrote %s", outdir)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate a two-observer correlation experiment from a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("-o", "--outdir", default="bellsim-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--trials", type=int, default=None, help="override trials per setting pair")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = apply_overrides(
            parse_config(text),
            {"seed": ("--seed", args.seed), "trials_per_pair": ("--trials", args.trials)},
        )
    except ConfigError as exc:
        for path, reason in exc.errors:
            print(f"config error at {path or '<root>'}: {reason}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run(config, Path(args.outdir))
    except ConfigError as exc:
        for path, reason in exc.errors:
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
