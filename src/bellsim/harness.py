"""Trial sampling, frequency estimation, and the violation classifier.

Randomness is counter-based: the master seed keys a Philox generator and
trial ``i`` owns counter block ``i`` (four raw 64-bit words: two setting
draws, one outcome draw, one spare).  A single traced trial, a sequential
batch, and any chunked parallel batch therefore produce bit-identical results.

Outcomes are drawn by inverse CDF over the four cells of the behavior slice
in fixed cell order, in integers: a trial's cell is the number of the three
thresholds ``ceil(cum_j * 2**53)`` that the top 53 bits of its outcome word
reach.  That 53-bit draw is the one ``Generator.random`` scales to a float, so
every cell is the float inverse CDF's, bit for bit.  A zero-probability cell
has two equal thresholds and so is structurally unreachable.
A dataset keeps each trial as one ``uint8`` index into :data:`CELL_OUTCOMES`,
in trial order; the setting pair is implied by the trial's pair block, and the
reception times, the same for every trial, are read from the run's schedule
when the dataset is exported.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .angles import setting_text
from .config import ExperimentConfig
from .errors import MissingDataError, RealismViolationError
from .models import OUTCOMES, Behavior, ChshSettings, chsh_value
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
from .spacetime import Schedule

log = logging.getLogger(__name__)

#: Raw 64-bit words reserved per trial: one Philox counter block.
DRAWS_PER_TRIAL = 4
_SLOT_SETTING_A, _SLOT_SETTING_B, _SLOT_OUTCOME = 0, 1, 2

#: Fixed cell order of the threshold sampler: row-major over the table's
#: ``[a, b]`` axes, so cell ``j + 1`` starts where the running sum of cells
#: ``0 .. j`` ends.
CELL_OUTCOMES = tuple(itertools.product(OUTCOMES, repeat=2))

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


def _block_words(master_seed: int, start_trial: int, count: int) -> np.ndarray:
    """Rows ``start_trial .. start_trial+count-1`` of the per-trial raw ``uint64`` words."""
    bits = substream(master_seed, start_trial).bit_generator
    return bits.random_raw(count * DRAWS_PER_TRIAL).reshape(count, DRAWS_PER_TRIAL)


def _block_uniforms(master_seed: int, start_trial: int, count: int) -> np.ndarray:
    """The same rows as floats, as ``Generator.random`` makes them: the top 53 bits times ``2**-53``."""
    return (_block_words(master_seed, start_trial, count) >> 11) * 2.0**-53


def _threshold_hits(slab: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Row ``j`` marks the outcome words whose cell is past ``j``; a word's cell is its column sum."""
    p = slab.reshape(-1)
    cum = np.cumsum(p)
    # a float shortfall must not leave room for the dead cells after the last live one
    cum[np.flatnonzero(p > TOL)[-1]:] = 1.0
    thresholds = np.ceil(cum[:3] * 2.0**53).astype(np.uint64)
    return (words >> 11) >= thresholds[:, None]


# ---------------------------------------------------------------------------
# records and datasets


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One traced experiment's factual data point."""

    trial: int
    theta_a: Any
    theta_b: Any
    outcome_a: int
    outcome_b: int


@dataclass(frozen=True)
class TrialTrace:
    """A fully simulated trial: record, pooled state with both observers' histories, and its behavior."""

    record: TrialRecord
    pooled: PooledState
    behavior: Behavior
    preset: bool = False

    @property
    def observer_a(self) -> ObserverState:
        return self.pooled.observer_a

    @property
    def observer_b(self) -> ObserverState:
        return self.pooled.observer_b


class Dataset:
    """Per-pair outcome counts ``n(a, b, x, y)`` and, optionally, every trial's cell.

    ``records`` is a ``uint8`` array with one index into :data:`CELL_OUTCOMES`
    per trial, in trial order; it is empty when records were not kept.  Trials
    run through the setting pairs in row-major order, ``n_per_pair[i, j]`` of
    them each, so trial ``k``'s settings follow from its position.  Reception
    times are the same for every trial and belong to the run's schedule.
    """

    def __init__(self, grid_a, grid_b, counts, records=()):
        self.grid_a = tuple(grid_a)
        self.grid_b = tuple(grid_b)
        self.counts = np.asarray(counts, dtype=np.int64)
        expected = (len(self.grid_a), len(self.grid_b), 2, 2)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape}, expected {expected}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        self.records = np.asarray(records, dtype=np.uint8).reshape(-1)
        if self.records.size not in (0, self.total_trials):
            raise ValueError(f"{self.records.size} records for {self.total_trials} trials")

    @property
    def n_per_pair(self) -> np.ndarray:
        """Trials at each setting pair: the counts summed over the outcome cells."""
        return self.counts.sum(axis=(2, 3))

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


def _ledgers(config: ExperimentConfig, behavior: Behavior, theta_a, theta_b, cell: int, memo: dict) -> PooledState:
    """Both observers' ledgers through every local reception, then pooled.

    Each ledger moves only on the events its observer receives, and how it
    moves is fixed by the received ``(name, value)`` propositions and the
    run's uncertainty options.  So each observer's history is a path in a
    prefix tree over what it has received, rooted at its starting state (one
    root per preset pair, or one without preset settings).  ``memo`` maps
    each root to its observers' trees: calls that share it share every state
    along a common received prefix, so :func:`init_beliefs` runs once per
    root and :func:`receive` once per distinct (observer, received prefix).
    """
    outcome_a, outcome_b = CELL_OUTCOMES[cell]
    schedule = config.schedule
    events = schedule.trial_events(theta_a, theta_b, outcome_a, outcome_b)
    root = (theta_a, theta_b) if config.preset_settings else None
    if root not in memo:
        # a node is (state, children); its children map each next received
        # proposition to the node it leads to
        memo[root] = [(state, {}) for state in init_beliefs(behavior, schedule, preset=root)]
    roots = memo[root]

    # each wing's uncertainty about its own measurements, fixed up front;
    # a report can only carry the sender's own uncertainty about the value
    variables = {v.name: v for v in roots[0][0].initial_ledger.free}
    own_qs: dict[str, QUncertainty] = {}
    if not config.preset_settings:
        for name, value, mine in (("θa", theta_a, "A"), ("θb", theta_b, "B")):
            if config.unresolved_local_setting and mine == "A" and name == "θa":
                own_qs[name] = QUncertainty.uniform(variables[name])
            elif config.q_setting_width > 0.0:
                own_qs[name] = QUncertainty.peaked(variables[name], value, config.q_setting_width)
    if config.q_outcome_width > 0.0:
        own_qs["±a"] = QUncertainty.peaked(variables["±a"], outcome_a, config.q_outcome_width)
        own_qs["±b"] = QUncertainty.peaked(variables["±b"], outcome_b, config.q_outcome_width)
    own_qs = {k: v for k, v in own_qs.items() if not v.is_delta}

    ends = []
    for state, children in roots:
        for event in schedule.events_for(state.observer, events):
            ((name, value),) = event.payload.propositions()
            if (name, value) not in children:
                children[name, value] = (receive(state, event, own_qs.get(name)), {})
            state, children = children[name, value]
        ends.append(state)
    return pool(*ends)


def run_trial(config: ExperimentConfig, behavior: Behavior, trial_index: int, forced_settings=None) -> TrialTrace:
    """Trial ``trial_index`` of the run, driven through both observers' ledgers.

    Trial ``k`` reads counter block ``k`` of ``config.seed``: unless
    ``forced_settings`` pins them, each wing's setting is drawn from its own
    slot over the behavior's grid; the outcome cell is sampled jointly from
    the behavior's slice.  Every reception goes through the observer update
    with the config's schedule and uncertainty options, and the trial ends
    with pooled information and an extracted data point.  ``preset_pair`` is
    not read: with preset settings the caller forces the pair.
    """
    if forced_settings is not None:
        theta_a, theta_b = forced_settings
    else:
        u = _block_uniforms(config.seed, trial_index, 1)[0]
        theta_a = _choose_setting(behavior.grid_a, u[_SLOT_SETTING_A])
        theta_b = _choose_setting(behavior.grid_b, u[_SLOT_SETTING_B])
    word = _block_words(config.seed, trial_index, 1)[:, _SLOT_OUTCOME]
    cell = int(_threshold_hits(behavior.slice(theta_a, theta_b), word).sum())
    pooled = _ledgers(config, behavior, theta_a, theta_b, cell, {})
    record = TrialRecord(trial_index, theta_a, theta_b, *CELL_OUTCOMES[cell])
    return TrialTrace(record, pooled, behavior, config.preset_settings)


def trace_trials(config: ExperimentConfig, behavior: Behavior) -> list:
    """Trials ``0 .. traced_trials-1`` of the run, each as :func:`run_trial` gives it.

    Each trial's settings are forced to its pair block (or to ``preset_pair``
    with preset settings), so trial ``k`` matches trial ``k`` of the dataset
    for ``k < trials_per_pair * len(pairs)``.  Past that the pair blocks wrap
    around (``(k // trials_per_pair) % len(pairs)``) and the trials draw
    counter blocks that no dataset trial owns.
    The cells of each pair block's traced trials come from one draw of their
    counter blocks, as in :func:`run_experiment`.  Trials with the same
    (settings, outcome cell) share one pooled state, and every key shares one
    prefix tree of observer states (see :func:`_ledgers`): an observer's state
    after receiving its own setting and outcome is the same whatever the far
    wing did.  So the cost grows with the distinct received prefixes per
    observer, not with the number of (settings, outcome cell) keys.
    """
    pairs = list(itertools.product(behavior.grid_a, behavior.grid_b))
    preset_pair = config.preset_pair if config.preset_settings else None
    n = config.trials_per_pair
    histories: dict = {}
    memo: dict = {}
    traces = []
    for lo in range(0, config.traced_trials, n):
        pair = preset_pair if preset_pair is not None else pairs[(lo // n) % len(pairs)]
        words = _block_words(config.seed, lo, min(n, config.traced_trials - lo))[:, _SLOT_OUTCOME]
        for k, cell in enumerate(_threshold_hits(behavior.slice(*pair), words).sum(axis=0).tolist(), lo):
            key = (*pair, cell)
            if key not in histories:
                histories[key] = _ledgers(config, behavior, *key, memo)
            record = TrialRecord(k, *pair, *CELL_OUTCOMES[cell])
            traces.append(TrialTrace(record, histories[key], behavior, config.preset_settings))
    return traces


def run_experiment(config: ExperimentConfig, behavior: Behavior) -> Dataset:
    """Sample ``trials_per_pair`` trials of ``behavior`` at every setting pair of its grids.

    Trial ``k`` draws counter block ``k`` whichever chunk and thread sample
    it, so the dataset is identical for any worker count.  Sampled outcomes are
    checked against the model's zero cells, the realism-violation signal.
    """
    trials_per_pair, keep_records = config.trials_per_pair, config.keep_records
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
        hits = _threshold_hits(slabs[pair], _block_words(config.seed, start, count)[:, _SLOT_OUTCOME])
        if keep_records:
            hits.sum(axis=0, dtype=np.uint8, out=records[start : start + count])
        # trials past cell j, for j = -1 .. 3; each cell's count is a difference of two
        past = [count, *map(np.count_nonzero, hits), 0]
        return np.subtract(past[:-1], past[1:])

    counts = np.zeros((nx * ny, 4), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=min(config.workers, os.cpu_count() or 1)) as pool_:
        for (pair, lo), pair_counts in zip(tasks, pool_.map(sample_chunk, tasks)):
            counts[pair] += pair_counts
            if lo + CHUNK >= trials_per_pair:
                log.debug("sampled pair %d/%d: %d trials", pair + 1, nx * ny, trials_per_pair)

    dead = (counts > 0) & (slabs <= TOL)
    if dead.any():
        i, j = divmod(int(np.flatnonzero(dead.any(axis=1))[0]), ny)
        raise RealismViolationError(
            f"sampled an outcome of probability zero at settings "
            f"({setting_text(behavior.grid_a[i])}, {setting_text(behavior.grid_b[j])})"
        )

    return Dataset(behavior.grid_a, behavior.grid_b, counts.reshape(nx, ny, 2, 2), records)


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
    trace: TrialTrace,
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


def dataset_to_csv(dataset: Dataset, schedule: Schedule, out) -> None:
    """Stream delimited per-trial rows to the text file ``out``; requires kept records.

    Everything after the trial number is fixed by the pair block and the
    cell (the reception times by ``schedule``), so each pair's four row tails
    are rendered once.
    """
    if not dataset.records.size:
        raise MissingDataError("dataset was sampled without records; nothing to export")
    times = [schedule.data_reception_times(wing)[name] for wing, name in _CSV_TIMES]
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
