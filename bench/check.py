"""The output check made on every run directory the benchmark produces."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import ARTIFACTS, Workload


def digest(path: Path) -> tuple:
    """SHA-256 hex digest and newline count of a file, read in blocks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def check_run(outdir: Path, workload: Workload, size: str) -> tuple:
    """Check one finished run directory.

    Returns ``(digests, sizes, problems)``: the SHA-256 and byte size of each
    known artifact present, and a list of every check that failed.  Files the
    check does not know are ignored.
    """
    config = workload.config(0, size)
    problems = []
    expected = {"summary.json", "behavior_estimate.csv", "plot_correlator.txt"}
    if config["keep_records"]:
        expected.add("dataset.csv")
    if config["traced_trials"] > 0:
        expected.add("trace.json")
    present = {name for name in ARTIFACTS if (outdir / name).is_file()}
    if present != expected:
        problems.append(f"artifacts {sorted(present)}, expected {sorted(expected)}")

    digests, sizes, lines = {}, {}, {}
    for name in sorted(present):
        digests[name], lines[name] = digest(outdir / name)
        sizes[name] = (outdir / name).stat().st_size

    if "dataset.csv" in present and lines["dataset.csv"] - 1 != workload.trials(size):
        problems.append(f"dataset.csv has {lines['dataset.csv'] - 1} rows, expected {workload.trials(size)}")

    if "summary.json" in present:
        try:
            summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
            problems.extend(_check_summary(summary, config))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"summary.json unreadable: {exc!r}")
    return digests, sizes, problems


def _check_summary(summary: dict, config: dict) -> list:
    problems = []
    chsh = summary["estimates"]["chsh"]
    value, stderr, analytic = chsh["value"], chsh["stderr"], chsh["analytic"]
    if config["model"] == "pr-box":
        # every PR-box correlator is exactly +-1, so the estimate is exact
        if value != analytic:
            problems.append(f"S = {value!r}, expected exactly {analytic!r}")
    elif abs(value - analytic) > 5.0 * stderr:
        problems.append(f"|S - analytic| = {abs(value - analytic):.4g} exceeds 5 stderr = {5.0 * stderr:.4g}")
    if summary["no_signaling"]["empirical"]["passed"] is not True:
        problems.append("empirical no-signaling check failed")
    pattern = summary["stage_table"].get("pattern")
    if pattern != "ynny":
        problems.append(f"stage table pattern {pattern!r}, expected 'ynny'")
    return problems
