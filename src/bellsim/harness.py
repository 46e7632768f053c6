"""Trial sampling, frequency estimation, and the violation classifier.

Randomness is counter-based: the master seed keys a Philox generator and
trial ``i`` owns counter block ``i`` (four uniform draws: two setting draws,
one outcome draw, one spare).  A single traced trial, a sequential batch, and
any chunked parallel batch therefore produce bit-identical results.

Outcomes are drawn by inverse CDF over the four cells of the behavior slice
in fixed cell order, so zero-probability cells are structurally unreachable.
A dataset keeps each trial as one ``uint8`` index into :data:`CELL_OUTCOMES`,
in trial order; the setting pair is implied by the trial's pair block and the
reception times by the schedule.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping

import numpy as np

from .angles import setting_text
from .config import ExperimentConfig, build_model
from .errors import MissingDataError, RealismViolationError
from .models import Behavior, ChshSettings, chsh_value
from .observers import (
    ObserverState,
    PooledState,
    QUncertainty,
    Stage,
    init_beliefs,
    pool,
    receive,
)
from .probability import TOL
from .spacetime import Detection, Message, Schedule, SettingChoice

#: Uniform draws reserved per trial: one Philox counter block.
DRAWS_PER_TRIAL = 4
_SLOT_SETTING_A, _SLOT_SETTING_B, _SLOT_OUTCOME = 0, 1, 2

#: Fixed cell order of the inverse-CDF sampler: row-major over (a, b).
CELL_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Trials per sampling task.  Chunks start at multiples of CHUNK within a pair
#: block and trial ``k`` still draws counter block ``k``, so chunking never
#: changes a draw; it only bounds the memory one task needs.
CHUNK = 1 << 16


def substream(master_seed: int, trial_index: int) -> np.random.Generator:
    """The generator owning trial ``trial_index``'s counter block."""
    bg = np.random.Philox(key=master_seed)
    if trial_index:
        bg.advance(trial_index)
    return np.random.Generator(bg)


def trial_uniforms(master_seed: int, trial_index: int) -> np.ndarray:
    return substream(master_seed, trial_index).random(DRAWS_PER_TRIAL)


def _block_uniforms(master_seed: int, start_trial: int, count: int) -> np.ndarray:
    """Rows ``start_trial .. start_trial+count-1`` of the per-trial uniforms."""
    return substream(master_seed, start_trial).random((count, DRAWS_PER_TRIAL))


def _sample_cells(slice2x2: np.ndarray, u: np.ndarray) -> np.ndarray:
    p = slice2x2.reshape(-1)
    cum = np.cumsum(p)
    # a float shortfall must not leave room for the dead cells after the last live one
    cum[np.flatnonzero(p > TOL)[-1]:] = 1.0
    return np.searchsorted(cum, u, side="right")


# ---------------------------------------------------------------------------
# records and datasets


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One traced experiment's factual data point with its reception bookkeeping."""

    trial: int
    theta_a: Any
    theta_b: Any
    outcome_a: int
    outcome_b: int
    reception_times: Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class TrialTrace:
    """A fully simulated trial: record, both observers' state histories, and its behavior."""

    record: TrialRecord
    observer_a: ObserverState
    observer_b: ObserverState
    pooled: PooledState
    behavior: Behavior
    preset: bool = False


class Dataset:
    """Per-pair outcome counts ``n(a, b, x, y)`` and, optionally, every trial's cell.

    ``records`` is a ``uint8`` array with one index into :data:`CELL_OUTCOMES`
    per trial, in trial order; it is empty when records were not kept.  Trials
    run through the setting pairs in row-major order, ``n_per_pair[i, j]`` of
    them each, so trial ``k``'s settings follow from its position.
    ``reception_times`` is the schedule's ``{"A": {...}, "B": {...}}``, shared
    by every trial.
    """

    def __init__(self, grid_a, grid_b, counts, n_per_pair, records=(), reception_times=None):
        self.grid_a = tuple(grid_a)
        self.grid_b = tuple(grid_b)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.n_per_pair = np.asarray(n_per_pair, dtype=np.int64)
        expected = (len(self.grid_a), len(self.grid_b), 2, 2)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape}, expected {expected}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if not np.array_equal(self.counts.sum(axis=(2, 3)), self.n_per_pair):
            raise ValueError("counts must sum to the per-pair trial totals")
        self.records = np.asarray(records, dtype=np.uint8).reshape(-1)
        if self.records.size not in (0, self.total_trials):
            raise ValueError(f"{self.records.size} records for {self.total_trials} trials")
        self.reception_times = reception_times or {}

    @property
    def total_trials(self) -> int:
        return int(self.n_per_pair.sum())

    def counts_for(self, x, y) -> np.ndarray:
        i = self.grid_a.index(x)
        j = self.grid_b.index(y)
        return self.counts[i, j]


# ---------------------------------------------------------------------------
# running trials


def _choose_setting(grid, u: float):
    idx = min(int(u * len(grid)), len(grid) - 1)
    return grid[idx]


def run_trial(
    behavior: Behavior,
    schedule: Schedule,
    *,
    master_seed: int,
    trial_index: int,
    forced_settings=None,
    preset: bool = False,
    setting_prior=None,
    q_setting_width: float = 0.0,
    q_outcome_width: float = 0.0,
    unresolved_local_setting: bool = False,
) -> TrialTrace:
    """One full-fidelity trial driven through both observers' ledgers.

    Settings are drawn independently per wing from the behavior's grids
    unless ``forced_settings`` pins them; outcomes are sampled jointly from
    the behavior's slice.  Every reception goes through the observer update,
    and the trial ends with pooled information and an extracted data point.
    Deterministic given (master seed, trial index).
    """
    u = trial_uniforms(master_seed, trial_index)
    if forced_settings is not None:
        theta_a, theta_b = forced_settings
    else:
        theta_a = _choose_setting(behavior.grid_a, u[_SLOT_SETTING_A])
        theta_b = _choose_setting(behavior.grid_b, u[_SLOT_SETTING_B])
    cell = int(_sample_cells(behavior.slice(theta_a, theta_b), np.array([u[_SLOT_OUTCOME]]))[0])
    outcome_a, outcome_b = CELL_OUTCOMES[cell]

    events = schedule.trial_events(theta_a, theta_b, outcome_a, outcome_b)
    state_a, state_b = init_beliefs(
        behavior,
        setting_prior=setting_prior,
        preset=(theta_a, theta_b) if preset else None,
        worldline_a=schedule.worldline_a,
        worldline_b=schedule.worldline_b,
    )

    # each wing's uncertainty about its own measurements, fixed up front;
    # a report can only carry the sender's own uncertainty about the value
    variables = {v.name: v for v in state_a.initial_ledger.free}
    own_qs: dict[str, QUncertainty] = {}
    if not preset:
        for name, value, mine in (("θa", theta_a, "A"), ("θb", theta_b, "B")):
            if unresolved_local_setting and mine == "A" and name == "θa":
                own_qs[name] = QUncertainty.uniform(variables[name])
            elif q_setting_width > 0.0:
                own_qs[name] = QUncertainty.peaked(variables[name], value, q_setting_width)
    if q_outcome_width > 0.0:
        own_qs["±a"] = QUncertainty.peaked(variables["±a"], outcome_a, q_outcome_width)
        own_qs["±b"] = QUncertainty.peaked(variables["±b"], outcome_b, q_outcome_width)
    own_qs = {k: v for k, v in own_qs.items() if not v.is_delta}

    def q_for(event) -> QUncertainty | None:
        payload = event.payload
        if isinstance(payload, (SettingChoice, Detection, Message)):
            return own_qs.get(payload.propositions()[0][0])
        return None

    for event in schedule.events_for("A", events):
        state_a = receive(state_a, event, q_for(event))
    for event in schedule.events_for("B", events):
        state_b = receive(state_b, event, q_for(event))
    pooled = pool(state_a, state_b)

    record = TrialRecord(trial_index, theta_a, theta_b, outcome_a, outcome_b, _reception_times(schedule))
    return TrialTrace(record, pooled.observer_a, pooled.observer_b, pooled, behavior, preset=preset)


def run_experiment(config: ExperimentConfig) -> Dataset:
    """Sample ``trials_per_pair`` trials at every setting pair of the grids.

    Trial ``k`` draws counter block ``k`` whichever chunk and thread sample
    it, so the dataset is identical for any worker count.  Sampled outcomes are
    checked against the model's zero cells, the realism-violation signal.
    """
    return sample_dataset(
        build_model(config),
        config.schedule,
        trials_per_pair=config.trials_per_pair,
        master_seed=config.seed,
        workers=config.workers,
        keep_records=config.keep_records,
    )


def _reception_times(schedule: Schedule) -> dict:
    return {"A": schedule.data_reception_times("A"), "B": schedule.data_reception_times("B")}


def sample_dataset(
    behavior: Behavior,
    schedule: Schedule | None,
    *,
    trials_per_pair: int,
    master_seed: int,
    workers: int = 1,
    keep_records: bool = True,
) -> Dataset:
    if trials_per_pair < 1:
        raise ValueError("need at least one trial per setting pair")
    nx, ny = len(behavior.grid_a), len(behavior.grid_b)
    slabs = behavior.table.reshape(nx * ny, 4)
    records = np.empty(nx * ny * trials_per_pair if keep_records else 0, dtype=np.uint8)
    tasks = [(pair, lo) for pair in range(nx * ny) for lo in range(0, trials_per_pair, CHUNK)]

    def sample_chunk(task):
        pair, lo = task
        start = pair * trials_per_pair + lo
        count = min(CHUNK, trials_per_pair - lo)
        cells = _sample_cells(slabs[pair], _block_uniforms(master_seed, start, count)[:, _SLOT_OUTCOME])
        if keep_records:
            records[start : start + count] = cells
        return np.bincount(cells, minlength=4)

    counts = np.zeros((nx * ny, 4), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool_:
        for (pair, _), pair_counts in zip(tasks, pool_.map(sample_chunk, tasks)):
            counts[pair] += pair_counts

    dead = (counts > 0) & (slabs <= TOL)
    if dead.any():
        i, j = divmod(int(np.flatnonzero(dead.any(axis=1))[0]), ny)
        raise RealismViolationError(
            f"sampled an outcome of probability zero at settings "
            f"({setting_text(behavior.grid_a[i])}, {setting_text(behavior.grid_b[j])})"
        )

    n_per_pair = np.full((nx, ny), trials_per_pair, dtype=np.int64)
    times = _reception_times(schedule) if schedule is not None else None
    return Dataset(behavior.grid_a, behavior.grid_b, counts.reshape(nx, ny, 2, 2), n_per_pair, records, times)


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class EstimatedBehavior:
    """Frequency estimate of a behavior with per-cell standard errors."""

    behavior: Behavior
    stderr: np.ndarray


def estimate_behavior(dataset: Dataset) -> EstimatedBehavior:
    """Cellwise ``n/N`` with binomial standard errors ``sqrt(p(1-p)/N)``."""
    n = dataset.n_per_pair
    if np.any(n == 0):
        i, j = map(int, np.argwhere(n == 0)[0])
        raise MissingDataError(
            f"no trials for setting pair ({setting_text(dataset.grid_a[i])}, "
            f"{setting_text(dataset.grid_b[j])})"
        )
    denom = n[:, :, None, None].astype(float)
    phat = dataset.counts / denom
    stderr = np.sqrt(phat * (1.0 - phat) / denom)
    return EstimatedBehavior(Behavior(dataset.grid_a, dataset.grid_b, phat), stderr)


@dataclass(frozen=True)
class ChshEstimate:
    value: float
    stderr: float
    correlators: tuple  # (x, y, estimate, stderr) per chosen pair


def estimate_chsh(dataset: Dataset, settings: ChshSettings) -> ChshEstimate:
    """The signed sum from empirical correlators, errors added in quadrature."""
    total, var = 0.0, 0.0
    per_pair = []
    for (x, y), sign in zip(settings.pairs(), settings.signs):
        try:
            c = dataset.counts_for(x, y)
        except ValueError:
            raise MissingDataError(
                f"dataset lacks setting pair ({setting_text(x)}, {setting_text(y)})"
            ) from None
        n = int(c.sum())
        if n == 0:
            raise MissingDataError(
                f"no trials for setting pair ({setting_text(x)}, {setting_text(y)})"
            )
        corr = float(c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / n
        se = float(np.sqrt(max(1.0 - corr * corr, 0.0) / n))
        per_pair.append((x, y, corr, se))
        total += sign * corr
        var += se * se
    return ChshEstimate(total, float(np.sqrt(var)), tuple(per_pair))


# ---------------------------------------------------------------------------
# classification


class ViolationClass(Enum):
    FACTUAL_LOCAL = "factual-local"
    COUNTERFACTUAL_LOCAL = "counterfactual-local"
    COUNTERFACTUAL_NONLOCAL = "counterfactual-nonlocal"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ViolationReport:
    stage: Stage
    observer: str
    s_value: float | None
    s_stderr: float | None
    violated: bool | None
    classification: ViolationClass
    counterfactual_conditioners: tuple
    nonlocal_counterfactuals: tuple
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "stage": self.stage.value,
            "observer": self.observer,
            "s_value": self.s_value,
            "s_stderr": self.s_stderr,
            "violated": self.violated,
            "classification": self.classification.value,
            "counterfactual_conditioners": list(self.counterfactual_conditioners),
            "nonlocal_counterfactuals": list(self.nonlocal_counterfactuals),
            "note": self.note,
        }


def classify_violation(
    traces,
    stage: Stage,
    settings: ChshSettings,
    *,
    dataset: Dataset | None = None,
    observer: str = "A",
    posit_alternates: bool = False,
) -> ViolationReport:
    """Attach the modality/locality class to a four-term-sum evaluation.

    Before communication the far wing's setting can only be posited, so any
    violation there is counterfactual and nonlocal.  With pre-agreed settings
    everything relevant is factual from the start and the evaluation is a
    local statement (counterfactual-local if alternates are posited).  At
    communication time the pooled multi-trial estimate is an ordinary local
    statistic.  A single trial whose settings are all factual cannot test the
    bound at all: it has only one setting pair.
    """
    trace = traces[0] if isinstance(traces, (list, tuple)) else traces
    state = trace.observer_a if observer == "A" else trace.observer_b
    ledgers = state.stage_ledgers()
    if stage not in ledgers:
        raise ValueError(f"stage {stage.value} not in trace")
    far = "θb" if observer == "A" else "θa"
    ledger = ledgers[stage]
    cf_settings = tuple(n for n in ("θa", "θb") if n in ledger.free_names)
    nonlocal_cf = tuple(n for n in cf_settings if n == far)

    if stage is Stage.COMMUNICATION or (trace.preset and not posit_alternates):
        if dataset is None:
            return ViolationReport(
                stage,
                observer,
                None,
                None,
                None,
                ViolationClass.NOT_APPLICABLE,
                (),
                (),
                "a single experiment has only one factual set of measurement settings",
            )
        est = estimate_chsh(dataset, settings)
        return ViolationReport(
            stage,
            observer,
            est.value,
            est.stderr,
            abs(est.value) > 2.0,
            ViolationClass.FACTUAL_LOCAL,
            (),
            (),
            "pooled multi-trial estimate from factually communicated data",
        )

    s = chsh_value(trace.behavior, settings)
    if trace.preset and posit_alternates:
        return ViolationReport(
            stage,
            observer,
            s,
            0.0,
            abs(s) > 2.0,
            ViolationClass.COUNTERFACTUAL_LOCAL,
            ("θa", "θb"),
            (),
            "alternates of pre-agreed, locally known settings are posited",
        )

    if nonlocal_cf:
        classification = ViolationClass.COUNTERFACTUAL_NONLOCAL
        note = f"the far setting {far} enters only counterfactually at {stage.value}"
    elif cf_settings:
        classification = ViolationClass.COUNTERFACTUAL_LOCAL
        note = "only the observer's own unchosen setting is posited"
    else:
        classification = ViolationClass.FACTUAL_LOCAL
        note = ""
    return ViolationReport(
        stage,
        observer,
        s,
        0.0,
        abs(s) > 2.0,
        classification,
        cf_settings,
        nonlocal_cf,
        note,
    )


# ---------------------------------------------------------------------------
# export


#: ``dataset.csv`` columns.  Each wing's three times are when it received its own
#: setting, its own outcome and the far wing's report, in that order.
_CSV_HEADER = "trial,x,y,a,b,t_setting_A,t_outcome_A,t_reports_A,t_setting_B,t_outcome_B,t_reports_B\n"
_CSV_TIMES = (("A", "θa"), ("A", "±a"), ("A", "θb"), ("B", "θb"), ("B", "±b"), ("B", "θa"))


def dataset_to_csv(dataset: Dataset, out) -> None:
    """Stream delimited per-trial rows to the text file ``out``; requires kept records.

    Everything after the trial number is fixed by the pair block and the
    cell, so each pair's four row tails are rendered once.
    """
    if not dataset.records.size:
        raise MissingDataError("dataset was sampled without records; nothing to export")
    times = [dataset.reception_times.get(wing, {}).get(name, "") for wing, name in _CSV_TIMES]
    out.write(_CSV_HEADER)
    pairs, end = itertools.product(dataset.grid_a, dataset.grid_b), 0
    for (x, y), n in zip(pairs, dataset.n_per_pair.ravel().tolist()):
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerows(
            [setting_text(x), setting_text(y), a, b, *times] for a, b in CELL_OUTCOMES
        )
        tails = line.getvalue().splitlines(keepends=True)
        start, end = end, end + n
        for lo in range(start, end, CHUNK):
            cells = dataset.records[lo : min(lo + CHUNK, end)].tolist()
            out.write("".join([f"{k},{tails[c]}" for k, c in enumerate(cells, lo)]))
