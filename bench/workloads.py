"""The benchmark's workloads: one bellsim config each, generated from a seed.

Every workload runs with ``workers`` left at its default of 1, so that the
numbers measure bellsim rather than the scheduler of a small shared machine.
``size="smoke"`` gives the same workload at a size that runs in well under a
second; the benchmark's own tests use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: The artifacts the output check knows.  Files that later versions of the
#: CLI add to a run directory are ignored.
ARTIFACTS = ("summary.json", "dataset.csv", "behavior_estimate.csv", "trace.json", "plot_correlator.txt")

SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    pairs: int
    #: config keys shared by both sizes, without the seed
    base: dict
    #: size -> (trials_per_pair, traced_trials)
    sizes: dict

    def config(self, seed: int, size: str = "full") -> dict:
        trials, traced = self.sizes[size]
        return {**self.base, "trials_per_pair": trials, "traced_trials": traced, "seed": seed}

    def trials(self, size: str = "full") -> int:
        """Sampled trials of one run: trials per pair times setting pairs."""
        return self.sizes[size][0] * self.pairs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="records-csv",
            why="default singlet path with per-trial records kept, so record building and CSV export dominate",
            default_seed=11,
            pairs=4,
            base={"model": "singlet", "keep_records": True},
            sizes={"full": (25_000, 1), "smoke": (200, 1)},
        ),
        Workload(
            name="bulk-counts",
            why="counts-only PR-box sampling, so Philox draws, inverse-CDF sampling and the zero-cell check dominate",
            default_seed=12,
            pairs=4,
            base={
                "model": "pr-box",
                "grid_a": [0, 1],
                "grid_b": [0, 1],
                "chsh": {"x0": 0, "x1": 1, "y0": 0, "y1": 1},
                "keep_records": False,
            },
            sizes={"full": (2_000_000, 1), "smoke": (2_000, 1)},
        ),
        Workload(
            name="traced-ledgers",
            why="200 traced trials over a 4x4 singlet grid with spread q-widths, so the observer ledgers dominate",
            default_seed=13,
            pairs=16,
            base={
                "model": "singlet",
                "grid_a": ["0", "pi/4", "pi/2", "3pi/4"],
                "grid_b": ["pi/4", "-pi/4", "pi/2", "0"],
                "q_setting_width": 1.0,
                "q_outcome_width": 0.5,
                "keep_records": False,
            },
            # traced trial k runs at pair k // trials_per_pair, so 200 traced
            # trials at 13 per pair visit all 16 pairs
            sizes={"full": (13, 200), "smoke": (50, 16)},
        ),
    )
}


def config_text(workload: Workload, seed: int, size: str = "full") -> str:
    return json.dumps(workload.config(seed, size), indent=2, sort_keys=True) + "\n"


def load_golden() -> dict:
    """``{workload: {size: {artifact: sha256}}}`` recorded at each default seed."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
