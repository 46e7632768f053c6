"""Trial sampling, frequency estimation, and the violation classifier.

Randomness is counter-based: the master seed keys a Philox generator and
trial ``i`` owns counter block ``i``, four raw 64-bit words of which only word
2, the outcome draw, is read.  Words 0, 1 and 3 are unread; they stay reserved
so that every trial keeps its block and every draw its value.  A traced
trial, a sequential batch, and a batch split over plain threads (no pool: no
run imports ``concurrent.futures``) therefore produce bit-identical results.

Outcomes are drawn by inverse CDF over the four cells of the behavior slice
in fixed cell order, in integers: a trial's cell is the number of the three
thresholds ``t_j = ceil(cum_j * 2**53)`` that the top 53 bits of its outcome
word reach.  That 53-bit draw is the one ``Generator.random`` scales to a
float, so every cell is the float inverse CDF's, bit for bit.  Since
``w >> 11 >= t`` exactly when ``w >= t << 11``, each pair's raw-word bounds
``t_j << 11`` are computed once per run and compared with the words as drawn.
A threshold of ``2**53`` (from the last live cell on) is never reached and has
no bound, as ``t << 11`` would wrap in ``uint64``.  A zero-probability cell
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
import threading
from enum import Enum
from typing import Any, NamedTuple

import numpy as np

from .angles import setting_text
from .config import ExperimentConfig
from .errors import ConfigError, MissingDataError, RealismViolationError
from .models import OUTCOMES, Behavior, ChshSettings, chsh_sum, chsh_value, correlators
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
from .spacetime import Schedule, reception_time

log = logging.getLogger(__name__)

#: Raw 64-bit words reserved per trial: one Philox counter block.
DRAWS_PER_TRIAL = 4
_SLOT_OUTCOME = 2

#: Fixed cell order of the threshold sampler: row-major over the table's
#: ``[a, b]`` axes, so cell ``j + 1`` starts where the running sum of cells
#: ``0 .. j`` ends.
CELL_OUTCOMES = tuple(itertools.product(OUTCOMES, repeat=2))

#: Least trials of a pair block per sampling thread.
CHUNK = 1 << 16

#: Trials whose outcome words one sampling thread holds at a time, few enough to stay in cache,
#: and rows per ``dataset.csv`` write.
BLOCK = 1 << 13


def _outcome_words(master_seed: int, start: int, count: int):
    """Yield ``(trial, words)``: the outcome words of trials ``start .. start+count-1``, BLOCK at a time."""
    bits = np.random.Philox(key=master_seed).advance(start)
    for lo in range(start, start + count, BLOCK):
        yield lo, bits.random_raw(min(BLOCK, start + count - lo) * DRAWS_PER_TRIAL)[_SLOT_OUTCOME::DRAWS_PER_TRIAL]


def _word_bounds(table: np.ndarray) -> list:
    """Each setting pair's reachable raw-word bounds, in pair order; a word's cell is how many it reaches."""
    slabs = np.reshape(table, (-1, 4))
    cum = np.cumsum(slabs, axis=1)
    for row, p in zip(cum, slabs):
        # a float shortfall must not leave room for the dead cells after the last live one
        row[np.flatnonzero(p > TOL)[-1]:] = 1.0
    return [[int(t) << 11 for t in row if t < 2**53] for row in np.ceil(cum[:, :3] * 2.0**53).tolist()]


def _cells(words, bounds: list, out):
    """Add each word's cell, the number of ``bounds`` it reaches, into the zeroed ``out``: both arrays, or both ints."""
    for b in bounds:
        out += words >= b
    return out


# ---------------------------------------------------------------------------
# records and datasets


class TrialTrace(NamedTuple):
    """A traced trial's settings, outcomes and events, both observers' pooled histories, and its behavior.

    All of it is fixed by the setting pair and the outcome cell, so trials
    with the same key share one object; a trial's number is its list position.
    """

    theta_a: Any
    theta_b: Any
    outcome_a: int
    outcome_b: int
    events: tuple
    pooled: PooledState
    behavior: Behavior

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
    them each, so trial ``k``'s settings follow from its position, and each
    pair block's records must tally to that pair's counts.  Reception times
    are the same for every trial and belong to the run's schedule.
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
        records, cells = np.asarray(records).reshape(-1), len(CELL_OUTCOMES)
        if records.size and (records.dtype.kind not in "iu" or records.min() < 0 or records.max() >= cells):
            raise ValueError(f"records must be integer cells in 0..{cells - 1}")
        self.records = records.astype(np.uint8, copy=False)
        if self.records.size not in (0, self.total_trials):
            raise ValueError(f"{self.records.size} records for {self.total_trials} trials")
        if self.records.size:
            ends = np.cumsum(self.n_per_pair.ravel()).tolist()
            pairs = itertools.product(self.grid_a, self.grid_b)
            for (x, y), lo, hi, tally in zip(pairs, [0, *ends], ends, self.counts.reshape(-1, cells)):
                # BLOCK rows at a time: bincount holds 8 bytes per record it tallies
                for i in range(lo, hi, BLOCK):
                    tally = tally - np.bincount(self.records[i : min(i + BLOCK, hi)], minlength=cells)
                if tally.any():
                    raise ValueError(
                        f"records at setting pair ({setting_text(x)}, {setting_text(y)}) disagree with its counts"
                    )

    @property
    def n_per_pair(self) -> np.ndarray:
        """Trials at each setting pair: the counts summed over the outcome cells."""
        return self.counts.sum(axis=(2, 3))

    @property
    def total_trials(self) -> int:
        return int(self.n_per_pair.sum())


# ---------------------------------------------------------------------------
# running trials


def _ledgers(config: ExperimentConfig, behavior: Behavior, events: tuple, memo: dict) -> PooledState:
    """Both observers' ledgers through every local reception of one trial's nine ``events``, then pooled.

    Each ledger moves only on the events its observer receives, and how it
    moves is fixed by the received ``(name, value)`` propositions and the
    run's uncertainty options.  So each observer's history is a path in a
    prefix tree over what it has received, rooted at its starting state (one
    root per preset pair, or one without preset settings).  ``memo`` maps
    each root to its observers' trees: calls that share it share every state
    along a common received prefix, so :func:`init_beliefs` runs once per
    root and :func:`receive` once per distinct (observer, received prefix).
    ``memo`` also holds what the whole run shares: each observer's reception
    order, as indices into a trial's events, which depends only on the
    schedule; and each report's ``q``, exact or spread, built once so that
    both observers hold the same object and :func:`pool` need not compare it.
    """
    schedule = config.schedule
    if "order" not in memo:
        wings = (schedule.worldline_a, schedule.worldline_b)
        memo["order"] = {w.observer: [e.index for e in schedule.events_for(w.observer, events)] for w in wings}
    # events 1 and 2 are the two wings' setting choices
    root = (events[1].payload.value, events[2].payload.value) if config.preset_settings else None
    if root not in memo:
        # a node is (state, children); its children map each next received
        # proposition to the node it leads to
        memo[root] = [(state, {}) for state in init_beliefs(behavior, schedule, preset=root)]
    roots = memo[root]

    # a report carries the sender's own uncertainty about its value, which
    # depends on nothing else, so the run builds each one once
    qs = memo.setdefault("qs", {})
    ends = []
    for state, children in roots:
        for i in memo["order"][state.observer]:
            event = events[i]
            name, value = event.payload.proposition
            if (name, value) not in children:
                if (name, value) not in qs:
                    qs[name, value] = _own_q(config, state.initial_ledger, name, value)
                children[name, value] = (receive(state, event, qs[name, value]), {})
            state, children = children[name, value]
        ends.append(state)
    return pool(*ends)


def _own_q(config: ExperimentConfig, ledger, name: str, value) -> QUncertainty:
    """The measuring wing's uncertainty about ``name=value``: spread, or a delta where the width makes it one.

    :func:`receive` never reads the ``q`` of a preset setting: the ledger already pins it.
    """
    variable = ledger.variable(name)
    if name in ("±a", "±b"):
        q = QUncertainty.peaked(variable, value, config.q_outcome_width)
    elif config.unresolved_local_setting and name == "θa":
        q = QUncertainty.uniform(variable)
    else:
        q = QUncertainty.peaked(variable, value, config.q_setting_width)
    return QUncertainty.delta(variable, value) if q.is_delta else q


def trace_trials(config: ExperimentConfig, behavior: Behavior) -> list:
    """Trials ``0 .. traced_trials-1`` of the run, each driven through both observers' ledgers.

    Entry ``k`` is trial ``k``: it takes the settings of its pair block (or
    ``preset_pair`` with preset settings) and samples its outcome cell from
    counter block ``k`` of ``config.seed``, so it is trial ``k`` of the dataset
    for ``k < trials_per_pair * len(pairs)``.  Past that the pair blocks wrap
    around (``(k // trials_per_pair) % len(pairs)``) and the trials draw
    counter blocks that no dataset trial owns.  Every reception goes through
    the observer update with the config's schedule and uncertainty options, and
    each trial ends with pooled information.  All traced trials draw from one
    counter stream, as in :func:`run_experiment`, and each trial's cell is its
    own word checked against its pair's bounds by :func:`_cells`, with no
    segment pass: the time per traced trial does not depend on
    ``trials_per_pair``.  Trials with the same (pair index, outcome cell) are
    one :class:`TrialTrace`, its events built once, and every key shares one
    prefix tree of observer states (see :func:`_ledgers`): an observer's state
    after receiving its own setting and outcome is the same whatever the far
    wing did.  So the cost grows with the distinct received prefixes per
    observer, not with the number of keys.
    """
    n = config.trials_per_pair
    if n < 1:
        raise ValueError("need at least one trial per setting pair")
    pairs, bounds = behavior.pairs(), _word_bounds(behavior.table)
    preset_pair = config.preset_pair if config.preset_settings else None
    preset = None if preset_pair is None else pairs.index(preset_pair)
    histories, memo, traces = {}, {}, []
    for lo, words in _outcome_words(config.seed, 0, config.traced_trials):
        for k, word in enumerate(words.tolist(), lo):
            i = preset if preset is not None else (k // n) % len(pairs)
            cell = _cells(word, bounds[i], 0)
            if (i, cell) not in histories:
                events = config.schedule.trial_events(*pairs[i], *CELL_OUTCOMES[cell])
                pooled = _ledgers(config, behavior, events, memo)
                histories[i, cell] = TrialTrace(*pairs[i], *CELL_OUTCOMES[cell], events, pooled, behavior)
            traces.append(histories[i, cell])
    return traces


def run_experiment(config: ExperimentConfig, behavior: Behavior) -> Dataset:
    """Sample ``trials_per_pair`` trials of ``behavior`` at every setting pair of its grids.

    Each pair block is split into one contiguous part per thread, part 0 in the
    calling thread.  Trial ``k`` draws counter block ``k`` whichever part samples
    it, so the dataset is identical for any CPU count.  Sampled outcomes are
    checked against the model's zero cells, the realism-violation signal.
    """
    trials_per_pair, keep_records = config.trials_per_pair, config.keep_records
    if trials_per_pair < 1:
        raise ValueError("need at least one trial per setting pair")
    nx, ny = len(behavior.grid_a), len(behavior.grid_b)
    slabs = behavior.table.reshape(nx * ny, 4)
    try:
        records = np.zeros(nx * ny * trials_per_pair if keep_records else 0, dtype=np.uint8)
    except (MemoryError, ValueError) as exc:
        raise ConfigError([("trials_per_pair", f"too many trials to keep every record: {exc}")]) from exc
    pair_bounds = _word_bounds(slabs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = max(1, min(cpus, trials_per_pair // CHUNK))
    counts, errors = np.zeros((nx * ny, threads, 4), dtype=np.int64), []  # one row per part: no lock

    def sample_part(pair, part):
        start, end = (pair * trials_per_pair + trials_per_pair * p // threads for p in (part, part + 1))
        bounds, out = pair_bounds[pair], counts[pair, part]
        try:
            for lo, words in _outcome_words(config.seed, start, end - start):
                if keep_records:
                    out += np.bincount(_cells(words, bounds, records[lo : lo + len(words)]), minlength=4)
                    continue
                # trials past cell j, j = -1 .. 3: one pass per distinct bound, none past a missing one
                reached = {b: np.count_nonzero(words >= b) for b in set(bounds)}
                past = [len(words), *(reached[b] for b in bounds), *[0] * (4 - len(bounds))]
                out += np.subtract(past[:-1], past[1:])
        except Exception as exc:
            errors.append(exc)

    import numpy.random  # numpy loads it lazily: here, not in a helper thread short of address space
    for pair in range(nx * ny):
        helpers = []
        for part in range(1, threads):
            helpers.append(threading.Thread(target=sample_part, args=(pair, part)))
            try:
                helpers[-1].start()
            except RuntimeError:  # no thread to be had, as under an address-space limit: sample here
                helpers.pop().run()
        sample_part(pair, 0)
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[0]
        log.debug("sampled pair %d/%d: %d trials", pair + 1, nx * ny, trials_per_pair)

    dead = counts.any(axis=1) & (slabs <= TOL)
    if dead.any():
        i, j = divmod(int(np.flatnonzero(dead.any(axis=1))[0]), ny)
        raise RealismViolationError(
            f"sampled an outcome of probability zero at settings "
            f"({setting_text(behavior.grid_a[i])}, {setting_text(behavior.grid_b[j])})"
        )

    return Dataset(behavior.grid_a, behavior.grid_b, counts.sum(axis=1).reshape(nx, ny, 2, 2), records)


# ---------------------------------------------------------------------------
# estimation


class EstimatedBehavior(NamedTuple):
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


class ChshEstimate(NamedTuple):
    value: float
    stderr: float
    correlators: tuple  # (x, y, estimate, stderr) per chosen pair


def estimate_chsh(dataset: Dataset, settings: ChshSettings) -> ChshEstimate:
    """The signed sum from empirical correlators, errors added in quadrature.

    Each correlator is the integer reduction of a pair's counts over its trials.
    """
    sums, trials = correlators(dataset.counts), dataset.n_per_pair
    per_pair, var = [], 0.0
    for x, y in settings.pairs():
        pair = f"setting pair ({setting_text(x)}, {setting_text(y)})"
        if x not in dataset.grid_a or y not in dataset.grid_b:
            raise MissingDataError(f"dataset lacks {pair}")
        ij = dataset.grid_a.index(x), dataset.grid_b.index(y)
        n = int(trials[ij])
        if n == 0:
            raise MissingDataError(f"no trials for {pair}")
        corr = float(sums[ij]) / n
        se = float(np.sqrt(max(1.0 - corr * corr, 0.0) / n))
        per_pair.append((x, y, corr, se))
        var += se * se
    value = chsh_sum([corr for _, _, corr, _ in per_pair])
    return ChshEstimate(value, float(np.sqrt(var)), tuple(per_pair))


# ---------------------------------------------------------------------------
# classification


class ViolationClass(Enum):
    FACTUAL_LOCAL = "factual-local"
    COUNTERFACTUAL_LOCAL = "counterfactual-local"
    COUNTERFACTUAL_NONLOCAL = "counterfactual-nonlocal"
    NOT_APPLICABLE = "not-applicable"


class ViolationReport(NamedTuple):
    """One observer's verdict on the four-term sum at one stage.

    A report left at its defaults is "not applicable": no value, no verdict,
    nothing posited.
    """

    stage: Stage
    observer: str
    s_value: float | None = None
    s_stderr: float | None = None
    violated: bool | None = None
    classification: ViolationClass = ViolationClass.NOT_APPLICABLE
    counterfactual_conditioners: tuple = ()
    nonlocal_counterfactuals: tuple = ()
    note: str = ""

    def to_dict(self) -> dict:
        return {**self._asdict(), "stage": self.stage.value, "classification": self.classification.value}


def classify_violation(
    trace: TrialTrace,
    stage: Stage,
    settings: ChshSettings,
    *,
    estimate: ChshEstimate | None = None,
    observer: str = "A",
) -> ViolationReport:
    """Attach the modality/locality class to a four-term-sum evaluation, read from the observer's ledger.

    At communication time the pooled multi-trial ``estimate`` of the run is an
    ordinary factual, local statistic; a single trial cannot test the bound
    at all, as it has only one factual setting pair.  Before then the sum is
    the analytic one, and its settings are posited: those still free in the
    observer's stage ledger, or, when both are factual (pre-agreed), the
    alternates of both.  The evaluation is nonlocal exactly when the far
    wing's setting is among the free ones, since the far setting can then
    enter only counterfactually; otherwise it is counterfactual and local.
    """
    if observer not in ("A", "B"):
        raise ValueError(f"observer must be 'A' or 'B', got {observer!r}")
    state = trace.observer_a if observer == "A" else trace.observer_b
    ledgers = state.stage_ledgers()
    if stage not in ledgers:
        raise ValueError(f"stage {stage.value} not in trace")

    if stage is Stage.COMMUNICATION:
        if estimate is None:
            return ViolationReport(
                stage, observer, note="a single experiment has only one factual set of measurement settings"
            )
        return ViolationReport(
            stage,
            observer,
            estimate.value,
            estimate.stderr,
            abs(estimate.value) > 2.0,
            ViolationClass.FACTUAL_LOCAL,
            note="pooled multi-trial estimate from factually communicated data",
        )

    far = "θb" if observer == "A" else "θa"
    posited = tuple(n for n in ("θa", "θb") if n in ledgers[stage].free_names)
    if far in posited:
        classification, nonlocal_cf = ViolationClass.COUNTERFACTUAL_NONLOCAL, (far,)
        note = f"the far setting {far} enters only counterfactually at {stage.value}"
    else:
        classification, nonlocal_cf = ViolationClass.COUNTERFACTUAL_LOCAL, ()
        posited = posited or ("θa", "θb")
        note = f"the far setting {far} is known locally, so every posited setting is local"
    s = chsh_value(trace.behavior, settings)
    return ViolationReport(stage, observer, s, 0.0, abs(s) > 2.0, classification, posited, nonlocal_cf, note)


# ---------------------------------------------------------------------------
# export


#: ``dataset.csv`` columns.  Each wing's three times are when it received its own
#: setting, its own outcome and the far wing's report, in that order.
_CSV_HEADER = b"trial,x,y,a,b,t_setting_A,t_outcome_A,t_reports_A,t_setting_B,t_outcome_B,t_reports_B\n"

#: How row ``k``'s piece starts, after the prefix ``str(k // 100)``: entry ``k % 100`` in
#: two digits for trials from 100 on, and entry ``100 + k`` in plain digits for trials 0-99.
_LEADS = np.array([b"%02d," % d for d in range(100)] + [b"%d," % d for d in range(100)], dtype=object)


def dataset_to_csv(dataset: Dataset, schedule: Schedule, out) -> None:
    """Stream delimited per-trial rows to the binary file ``out``; requires kept records.

    Everything after the trial number is fixed by the pair block and the
    cell (the reception times by ``schedule``), so each pair's four row tails
    are rendered by ``csv.writer`` and encoded once.  Row ``k`` is the prefix
    ``str(k // 100)`` (empty for trials 0-99) followed by one of the pair's
    prebuilt pieces, a lead from :data:`_LEADS` joined to a tail, so the up to
    100 rows of a hundred are one ``join`` of their pieces on the hundred's
    shared prefix.  Row ``k``'s piece is entry ``4·(k % 100) + cell``: each
    :data:`BLOCK` of rows takes its offsets ``4·(k % 100)`` as a slice of one
    pattern tiled once per call, and cuts its pieces at hundred boundaries with
    one ``reshape`` of its whole hundreds.  Each block is written as one
    ``bytes``, so the writer holds one block at a time.
    """
    if not dataset.records.size:
        raise MissingDataError("dataset was sampled without records; nothing to export")
    # each wing's first three receptions; any trial's events do, as no setting or outcome moves them
    events = schedule.trial_events(dataset.grid_a[0], dataset.grid_b[0], *CELL_OUTCOMES[0])
    wings = (schedule.worldline_a, schedule.worldline_b)
    times = [reception_time(e, w) for w in wings for e in schedule.events_for(w.observer, events)[:3]]
    out.write(_CSV_HEADER)
    offsets = np.tile(np.arange(0, 400, 4), (BLOCK + 198) // 100)
    pairs, end = itertools.product(dataset.grid_a, dataset.grid_b), 0
    for (x, y), n in zip(pairs, dataset.n_per_pair.ravel().tolist()):
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerows(
            [setting_text(x), setting_text(y), a, b, *times] for a, b in CELL_OUTCOMES
        )
        tails = np.array([t.encode() for t in line.getvalue().splitlines(keepends=True)], dtype=object)
        start, end = end, end + n
        pieces = np.add.outer(_LEADS if start < 100 else _LEADS[:100], tails).ravel()
        for lo in range(start, end, BLOCK):
            hi = min(lo + BLOCK, end)
            idx = offsets[lo % 100 : lo % 100 + hi - lo] + dataset.records[lo:hi]  # row k: pieces[idx[k - lo]]
            idx[: max(0, 100 - lo)] += 400  # trials 0-99 take the plain leads
            got = pieces[idx]
            head = min(-lo % 100, hi - lo)
            rest = head + (hi - lo - head) // 100 * 100
            rows, h = [], lo // 100
            for hundred in (got[:head].tolist(), *got[head:rest].reshape(-1, 100).tolist(), got[rest:].tolist()):
                if hundred:
                    prefix = b"%d" % h if h else b""
                    rows += prefix, prefix.join(hundred)
                    h += 1
            out.write(b"".join(rows))
