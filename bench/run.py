"""bellsim benchmark: the real CLI on generated configs, with every output checked.

Run from the repository root:

    python3 bench/run.py --workload records-csv --seed 11 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1      # every metric of every workload

Each repetition runs ``bellsim.cli.main`` in a fresh interpreter (``child.py``),
one at a time, on a config generated from ``--seed``, and times a fixed
reference load (``reference.py``) just before and after it.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it carries the
per-layer metrics.  Lines before it give every metric by name, with its unit
and sample count.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import check_run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_norm": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_COUNTS = (
    "harness.trials_sampled",
    "harness.records_kept",
    "harness.run_trial_calls",
    "observers.receive_calls",
    "probability.tagged_joints_built",
    "spacetime.trial_events_calls",
)
PER_LAYER_TIMES = (
    "config.parse_config_s",
    "config.build_model_s",
    "harness.run_experiment_s",
    "harness.dataset_to_csv_s",
    "harness.run_trial_s",
    "observers.receive_s",
    "observers.init_beliefs_s",
    "observers.pool_s",
    "observers.stage_table_s",
    "probability.condition_table_s",
    "probability.product_s",
    "probability.condition_s",
    "spacetime.trial_events_s",
    "harness.estimate_s",
    "harness.classify_violation_s",
    "models.diagnostics_s",
    "cli.run_s",
    "cli.run_self_s",
    "config.self_s",
    "models.self_s",
    "spacetime.self_s",
    "probability.self_s",
    "observers.self_s",
    "harness.self_s",
    "bench.trace_overhead_s",
)
PER_LAYER = {
    **{name: "s" for name in PER_LAYER_TIMES},
    **{name: "count" for name in PER_LAYER_COUNTS},
    "harness.csv_bytes": "B",
    "cli.artifact_bytes": "B",
}


def _env() -> dict:
    env = dict(os.environ)
    # the package under test comes from this checkout's sources only
    env["PYTHONPATH"] = str(SRC)
    return env


def run_rep(workload, size: str, config_path: Path, work: Path, index: int, traced: bool) -> dict:
    """One repetition: run the CLI in a fresh interpreter and check its outputs."""
    outdir = work / f"out-{index}"
    result_path = work / f"result-{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(config_path), str(outdir), str(result_path)]
    if traced:
        cmd += ["--trace", str(work / "spans.json"), f"{workload.name}-{index}"]
    rep = {"traced": traced, "problems": []}
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"run did not finish within {CHILD_TIMEOUT_S} s")
        return rep
    if proc.returncode != 0 or not result_path.is_file():
        rep["problems"].append(f"benchmark child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep
    rep.update(json.loads(result_path.read_text(encoding="utf-8")))
    result_path.unlink()
    if rep["exit_code"] != 0:
        rep["problems"].append(f"bellsim exited {rep['exit_code']}: {proc.stderr.strip()[-500:]}")
    rep["digests"], rep["sizes"], problems = check_run(outdir, workload, size)
    rep["problems"].extend(problems)
    layers = rep.get("layers")
    if layers is not None and abs(layers["bench.layer_self_coverage"] - 1.0) > 0.05:
        rep["problems"].append(f"layer self times cover {layers['bench.layer_self_coverage']:.3f} of cli.run")
    shutil.rmtree(outdir, ignore_errors=True)
    return rep


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str, golden: dict | None) -> dict:
    """Repeat the workload for ``seconds``, one run at a time; check every run."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(workloads.config_text(workload, seed, size), encoding="utf-8")
    # compile bytecode and warm the file cache, which a user pays once per install
    subprocess.run([sys.executable, "-c", "import bellsim.cli"], env=_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)

    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(run_rep(workload, size, config_path, work, len(reps), trace and len(reps) % 2 == 1))
        now = time.perf_counter()
        # stop when another repetition as long as the last would overrun
        if now - start + (now - began) > seconds and len(reps) >= (2 if trace else 1):
            break

    first = next((r["digests"] for r in reps if "digests" in r), None)
    for r in reps:
        if "digests" in r and r["digests"] != first:
            r["problems"].append("artifact digests differ from the first run of this session")
        if golden is not None and "digests" in r and r["digests"] != golden:
            r["problems"].append("artifact digests differ from the golden digests at the default seed")
    return {"workload": workload, "seed": seed, "size": size, "reps": reps}


def _median(values):
    return statistics.median(values) if values else None


def summarize(res: dict) -> dict:
    """Medians over the repetitions; failed ones are counted, never dropped."""
    w, reps = res["workload"], res["reps"]
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    wall = _median([r["wall_s"] for r in plain])
    norm = _median([r["wall_s"] / r["ref_s"] for r in plain])
    e2e = {
        "wall_norm": norm,
        "wall_s": wall,
        "trials_per_s": w.trials(res["size"]) / wall if wall else None,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "setup_s": _median([r["setup_s"] for r in timed]),
    }
    layers = {}
    if traced and wall is not None:
        layers = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        layers["harness.csv_bytes"] = _median([r["sizes"].get("dataset.csv", 0) for r in traced])
        layers["cli.artifact_bytes"] = _median([sum(r["sizes"].values()) for r in traced])
        # the difference of the normalised medians, in seconds at the median host speed
        traced_norm = _median([r["wall_s"] / r["ref_s"] for r in traced])
        layers["bench.trace_overhead_s"] = (traced_norm - norm) * _median([r["ref_s"] for r in timed])
    failed = sum(1 for r in reps if r["problems"])
    return {
        "e2e": e2e,
        "layers": layers,
        "n": {"plain": len(plain), "traced": len(traced), "timed": len(timed)},
        "attempted": len(reps),
        "failed": failed,
        "walls": [r["wall_s"] for r in plain],
        "ref_s": _median([r["ref_s"] for r in plain]),
        # CPU time near wall time means a slow run was a slow CPU, not waiting
        "cpu_s": _median([r["cpu_s"] for r in plain]),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def report(res: dict, summary: dict, env: dict) -> None:
    """Print every metric by name with its unit and sample count."""
    name, n = res["workload"].name, summary["n"]
    print(
        f"{name}: seed {res['seed']}, size {res['size']}, {summary['attempted']} runs "
        f"({n['plain']} untraced, {n['traced']} traced); python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}, commit {env['commit']}"
    )
    for r in res["reps"]:
        for problem in r["problems"]:
            print(f"{name}: FAILED CHECK: {problem}")
    e2e = summary["e2e"]
    if e2e["wall_s"] is not None:
        walls = summary["walls"]
        print(
            f"{name} wall_norm = {e2e['wall_norm']:.4f} ref (median of {n['plain']} runs of wall_s / time of the "
            f"reference load around it; median reference time {summary['ref_s']:.6f} s)"
        )
        print(
            f"{name} wall_s = {e2e['wall_s']:.6f} s (median of {n['plain']}; min {min(walls):.6f}, "
            f"max {max(walls):.6f}; median CPU time {summary['cpu_s']:.6f} s)"
        )
        print(f"{name} trials_per_s = {e2e['trials_per_s']:.1f} 1/s ({res['workload'].trials(res['size'])} trials / median wall_s)")
        print(f"{name} peak_rss_mb = {e2e['peak_rss_mb']:.2f} MB (median of {n['plain']})")
    if e2e["setup_s"] is not None:
        print(f"{name} setup_s = {e2e['setup_s']:.6f} s (median of {n['timed']})")
    print(f"{name} failed_frac = {summary['failed'] / summary['attempted']:.4f} ({summary['failed']} of {summary['attempted']} runs)")
    for metric, value in sorted(summary["layers"].items()):
        unit = PER_LAYER.get(metric, "ratio")
        print(f"{name} {metric} = {value:.6g} {unit} (median of {n['traced']} traced)")


def _environment(reps: list) -> dict:
    timed = next((r for r in reps if "python" in r), {})
    return {
        "python": timed.get("python", sys.version.split()[0]),
        "numpy": timed.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


def record_golden() -> int:
    """Rewrite golden.json from one run of each workload and size at its default seed."""
    golden = {}
    for w in workloads.WORKLOADS.values():
        golden[w.name] = {}
        for size in workloads.SIZES:
            res = run_workload(w, w.default_seed, 0, False, size, None)
            (rep,) = res["reps"]
            if rep["problems"]:
                print(f"{w.name} ({size}): {rep['problems']}", file=sys.stderr)
                return 1
            golden[w.name][size] = rep["digests"]
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="config seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to repeat each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="smoke: tiny inputs, for tests")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "bellsim" / "cli.py").is_file():
        print(f"bellsim sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()

    golden = workloads.load_golden()
    chosen = list(workloads.WORKLOADS.values()) if args.workload == "all" else [workloads.WORKLOADS[args.workload]]
    attempted = failed = 0
    metrics = {}
    for w in chosen:
        seed = w.default_seed if args.seed is None else args.seed
        at_default = seed == w.default_seed
        res = run_workload(w, seed, args.seconds, bool(args.trace), args.size,
                           golden[w.name][args.size] if at_default else None)
        summary = summarize(res)
        env = _environment(res["reps"])
        report(res, summary, env)
        (WORK / w.name / "result.json").write_text(
            json.dumps({"env": env, "seed": seed, "size": args.size, "summary": summary,
                        "reps": res["reps"]}, indent=1, default=str) + "\n",
            encoding="utf-8",
        )
        attempted += summary["attempted"]
        failed += summary["failed"]
        if summary["e2e"]["wall_s"] is None or (args.trace and not summary["layers"]):
            metrics = None
            continue
        if metrics is not None:
            chosen_metrics = (
                {k: (summary["layers"][k], PER_LAYER[k]) for k in PER_LAYER}
                if args.trace
                else {k: (summary["e2e"][k], u) for k, u in END_TO_END.items()}
            )
            prefix = f"{w.name}." if len(chosen) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen_metrics.items()})

    print(json.dumps({
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics or {},
    }))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
