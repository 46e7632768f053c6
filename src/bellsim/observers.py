"""Per-observer belief ledgers driven by locally received events.

Each observer keeps a :class:`~bellsim.probability.TaggedJoint` over the four
data propositions (own/far setting and outcome).  Factual conditioning happens
only when an event physically arrives on the observer's worldline; anything
not yet received can still be *inquired about* counterfactually, which is
numerically ordinary conditioning but keeps the counterfactual tag.  A value
measured with a spread uncertainty ``q`` instead turns the ledger into
``p(rest | v) · q(v)``, computed as one rescale of the table along v's axis
(:func:`~bellsim.probability.reweight`).  After
both wings exchange reports, the two ledgers pool into a single product of
measurement-uncertainty factors, restricted to the cells the shared starting
table leaves possible, from which the trial's data point is read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ImpossibleEvidenceError, RealismViolationError
from .models import OUTCOMES, Behavior, ChshSettings, chsh_sum, correlators
from .probability import (
    TOL,
    Conditioner,
    Modality,
    TaggedJoint,
    Variable,
    _trusted,
    condition,
    distribution,
    keep_only,
    reweight,
)
from .spacetime import (
    PREPARED_SYMBOL,
    Detection,
    Message,
    Schedule,
    SettingChoice,
    SpacetimeEvent,
    StatePreparation,
    Worldline,
    reception_time,
    setting_symbol,
)

#: Canonical free-variable order for ledgers over the four data propositions.
CANONICAL = ("±a", "θa", "±b", "θb")


class Stage(Enum):
    """The four stage labels an observer's clock moves through."""

    INITIAL = "t0"
    SETTING = "tθ"
    DETECTION = "t±"
    COMMUNICATION = "tc"

    __hash__ = object.__hash__  # members are singletons compared by identity: hash them as objects, not by name


_STAGE_ORDER = {s: i for i, s in enumerate(Stage)}
#: The stage a reception moves the observer's clock to, by payload type.
_PAYLOAD_STAGE = {StatePreparation: Stage.INITIAL, SettingChoice: Stage.SETTING, Detection: Stage.DETECTION,
                  Message: Stage.COMMUNICATION}


#: The factual conditioners every ledger carries: the shared prepared state and the stage label.
_PREPARED = Conditioner(Variable.singleton(PREPARED_SYMBOL), PREPARED_SYMBOL, Modality.FACTUAL)
_AT_STAGE = {s: Conditioner(Variable.singleton(s.value), s.value, Modality.FACTUAL) for s in Stage}


class QUncertainty(namedtuple("QUncertainty", "variable weights")):
    """Measurement-uncertainty distribution over one variable's domain.

    ``array``, ``mode`` and ``is_delta``, kept in the instance's own dict,
    hold the checked weights as a read-only array, the domain value of the
    largest weight (ties broken by lowest domain index), and whether that
    weight is 1 within ``TOL``, an exact value.
    """

    def __new__(cls, variable: Variable, weights: tuple):
        self = super().__new__(cls, variable, weights)
        self.array = distribution(weights, (len(variable.domain),))
        self.mode = variable.domain[int(np.argmax(self.array))]
        self.is_delta = max(weights) >= 1.0 - TOL
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks again and sets array, mode and is_delta

    @classmethod
    def delta(cls, variable: Variable, value) -> "QUncertainty":
        w = [0.0] * len(variable.domain)
        w[variable.index(value)] = 1.0
        return cls(variable, tuple(w))

    @classmethod
    def peaked(cls, variable: Variable, center, width: float) -> "QUncertainty":
        """Discrete bump around ``center``; ``width`` is in grid steps, and one of 0 or below gives the delta."""
        # width**2 neither underflows nor overflows here, and past either end the weights
        # are already those of the limit: 0.0 but at the center, or 1.0 everywhere
        width = min(max(width, 1e-150), 1e150)
        k = variable.index(center)
        w = [math.exp(-((i - k) ** 2) / (2.0 * width**2)) for i in range(len(variable.domain))]
        norm = sum(w)
        return cls(variable, tuple(v / norm for v in w))

    @classmethod
    def uniform(cls, variable: Variable) -> "QUncertainty":
        n = len(variable.domain)
        return cls(variable, tuple(1.0 / n for _ in range(n)))


class ObserverState(NamedTuple):
    """One observer's information and beliefs at a point on their worldline.

    Each value the observer has received is stored once, as its measurement
    uncertainty in ``qs``: an exact (delta) ``q`` makes the value factual, a
    spread one leaves it free but measured.  The ledger's factual
    conditioners are exactly :attr:`factual` (plus the shared prepared state
    and the stage label).  States are immutable; every update returns a new
    state.
    """

    worldline: Worldline
    ledger: TaggedJoint
    stage: Stage
    clock: float
    qs: Mapping[str, QUncertainty]
    initial_ledger: TaggedJoint
    history: tuple

    @property
    def observer(self) -> str:
        return self.worldline.observer

    @property
    def factual(self) -> dict:
        """The exactly received values, in the order they were received."""
        return {name: q.mode for name, q in self.qs.items() if q.is_delta}

    def stage_ledgers(self) -> dict:
        out = dict(self.history)
        out[self.stage] = self.ledger
        return out

    @property
    def own_setting(self) -> str:
        return setting_symbol(self.observer)


def data_variables(behavior: Behavior) -> dict:
    """The four proposition variables induced by a behavior's grids."""
    return {
        "±a": Variable("±a", OUTCOMES),
        "θa": Variable("θa", tuple(behavior.grid_a)),
        "±b": Variable("±b", OUTCOMES),
        "θb": Variable("θb", tuple(behavior.grid_b)),
    }


def init_beliefs(behavior: Behavior, schedule: Schedule, *, preset=None) -> tuple:
    """Both observers' shared starting ledger over the four data propositions.

    The ledger is the behavior times a uniform prior over setting pairs,
    conditioned factually on the prepared state and the initial stage label,
    so both observers start from the same table.  Each observer sits on its
    worldline in ``schedule``.  ``preset`` optionally pins both settings
    factually from the start (the pre-agreed-settings mode).
    """
    nx, ny = len(behavior.grid_a), len(behavior.grid_b)
    variables = data_variables(behavior)
    # canonical axis order (±a, θa, ±b, θb) from table axes [x, y, a, b]
    joint = np.einsum("xyab->axby", behavior.table) * (1.0 / (nx * ny))
    conds = (_PREPARED, _AT_STAGE[Stage.INITIAL])
    free = tuple(variables[n] for n in CANONICAL)
    preset_qs = {} if preset is None else {
        name: QUncertainty.delta(variables[name], value) for name, value in zip(("θa", "θb"), preset)
    }

    def make(worldline, order):
        initial = ledger = TaggedJoint(free, joint, conds, label=worldline.observer)
        qs = {name: preset_qs[name] for name in order if name in preset_qs}
        for name, q in qs.items():
            ledger = condition(ledger, (name, q.mode), Modality.FACTUAL)
        return ObserverState(worldline, ledger, Stage.INITIAL, float("-inf"), qs, initial, ())

    # each wing conditions its own pre-agreed setting first, so A's ledger renders
    # ``…‖θb,θa,ψ0,t0)`` and B's the mirror, ``…‖θa,θb,ψ0,t0)``
    return make(schedule.worldline_a, ("θa", "θb")), make(schedule.worldline_b, ("θb", "θa"))


def receive(state: ObserverState, event: SpacetimeEvent, q: QUncertainty | None = None) -> ObserverState:
    """Factually absorb the one proposition ``(name, value)`` of an event that has reached the observer's worldline.

    With an exact (delta) uncertainty the value is conditioned factually; with
    a spread ``q`` the ledger becomes ``p(rest | v) · q'(v)`` for ``q`` kept on
    the values the ledger leaves possible (:func:`reweight`), leaving the
    variable free but locally measured.  An exact ``q`` on any value but the
    event's is a ``ValueError``.  A zero-probability reception is a realism
    violation: a factual report contradicting the observer's own table.  So is
    a spread ``q`` that weighs only values the ledger gives probability zero.
    """
    payload = event.payload
    if isinstance(payload, Message) and payload.recipient != state.observer:
        raise ValueError(f"message addressed to {payload.recipient!r} delivered to {state.observer!r}")
    target_stage = _PAYLOAD_STAGE[type(payload)]
    if _STAGE_ORDER[target_stage] < _STAGE_ORDER[state.stage]:
        raise ValueError(
            f"{state.observer} at stage {state.stage.value} cannot accept a {target_stage.value} event"
        )
    arrived = reception_time(event, state.worldline)
    if arrived < state.clock - TOL:
        raise ValueError("events must be received in causal order")
    clock = max(state.clock, arrived)

    name, value = payload.proposition
    ledger = state.ledger
    qs = state.qs
    history = state.history
    conds = ledger.conditioners
    if target_stage is not state.stage:
        history = history + ((state.stage, ledger),)
        # one stage label goes out and one comes in, so the names stay distinct
        conds = tuple(c for c in conds if c.variable.name != state.stage.value) + (_AT_STAGE[target_stage],)

    if name in (c.variable.name for c in ledger.conditioners):
        # already pinned (preset mode or duplicate delivery)
        if ledger.conditioned_value(name) != value:
            raise RealismViolationError(
                f"{state.observer} received {name}={value!r} contradicting the "
                f"already-established value {ledger.conditioned_value(name)!r}"
            )
        if conds is not ledger.conditioners:
            ledger = _trusted(TaggedJoint, ledger.array, free=ledger.free, free_names=ledger.free_names,
                              conditioners=conds, label=ledger.label)
    else:
        if q is None:
            q = QUncertainty.delta(ledger.variable(name), value)
        if q.variable.name != name:
            raise ValueError(f"uncertainty is over {q.variable.name!r}, event carries {name!r}")
        if q.is_delta and q.mode != value:
            raise ValueError(f"exact uncertainty is on {name}={q.mode!r}, event carries {name}={value!r}")
        try:
            if q.is_delta:
                ledger = condition(ledger, (name, value), Modality.FACTUAL, context=conds)
            else:
                ledger = reweight(ledger, name, q.array, context=conds)
        except ImpossibleEvidenceError as exc:
            raise RealismViolationError(
                f"{state.observer} factually received {name}={value!r}, an event of probability zero" if q.is_delta
                else f"{state.observer} measured {name} with an uncertainty that weighs only values of probability zero"
            ) from exc
        qs = {**qs, name: q}

    return ObserverState(state.worldline, ledger, target_stage, clock, qs, state.initial_ledger, history)


def inquire(state: ObserverState, targets: Iterable, counterfactuals: Iterable = ()) -> TaggedJoint:
    """Ask about targets given posited values of not-yet-received variables.

    Counterfactual inquiry is always permitted, however far outside the
    observer's light cone the posited proposition lives; the only failure is
    positing something of probability zero.
    """
    d = state.ledger
    # condition back to front so the stored (and rendered) slot order matches
    # the order the caller listed the posits in
    for name, value in reversed(list(counterfactuals)):
        if name not in d.free_names:
            raise ValueError(
                f"{name!r} is already factual for {state.observer}; "
                "counterfactual inquiry needs an unreceived variable"
            )
        d = condition(d, (name, value), Modality.COUNTERFACTUAL)
    return keep_only(d, targets)


class StageRow(NamedTuple):
    stage: Stage
    rendered_a: str
    rendered_b: str
    equal: bool

    @property
    def mark(self) -> str:
        return "y" if self.equal else "n"


class StageTable(NamedTuple):
    rows: tuple

    @property
    def pattern(self) -> tuple:
        return tuple(r.mark for r in self.rows)

    def to_dicts(self):
        return [
            {"stage": r.stage.value, "A": r.rendered_a, "B": r.rendered_b, "equal": r.mark}
            for r in self.rows
        ]


def stage_table(state_a: ObserverState, state_b: ObserverState) -> StageTable:
    """Side-by-side ledgers per stage with an entrywise-equality column."""
    la, lb = state_a.stage_ledgers(), state_b.stage_ledgers()
    if set(la) != set(lb):
        raise ValueError(
            f"incomplete run: observers completed different stages "
            f"({sorted(s.value for s in la)} vs {sorted(s.value for s in lb)})"
        )
    rows = []
    for stage in Stage:
        if stage not in la:
            continue
        da, db = la[stage], lb[stage]
        rows.append(StageRow(stage, da.render(), db.render(), da.equals(db)))
    return StageTable(tuple(rows))


class PooledState(NamedTuple):
    """The post-communication union of both observers' information."""

    ledger: TaggedJoint
    data: Mapping[str, Any]
    observer_a: ObserverState
    observer_b: ObserverState


def pool(state_a: ObserverState, state_b: ObserverState) -> PooledState:
    """Merge the two observers' information once both have reached tc.

    The pooled ledger is the product of the per-variable measurement
    uncertainties, restricted to the live support of the shared starting
    table and renormalised; exact measurements make it a point mass.  The
    trial's data point is the ledger's maximizing assignment (ties broken by
    lowest domain index).  Contradictory reports, or reports the shared starting table gave
    probability zero, violate realism.
    """
    for s in (state_a, state_b):
        if s.stage is not Stage.COMMUNICATION:
            raise ValueError(f"{s.observer} has not reached {Stage.COMMUNICATION.value}")

    for name in sorted(state_a.qs.keys() & state_b.qs.keys()):
        qa, qb = state_a.qs[name], state_b.qs[name]
        if qa is qb:  # one report, shared by both observers
            continue
        if qa.is_delta and qb.is_delta and qa.mode != qb.mode:
            raise RealismViolationError(
                f"pooled records contradict: {name}={qa.mode!r} for A but {name}={qb.mode!r} for B"
            )
        if np.max(np.abs(qa.array - qb.array)) > TOL:
            raise RealismViolationError(f"pooled uncertainty for {name} differs between observers")

    base = state_a.initial_ledger
    qs = {**state_b.qs, **state_a.qs}
    missing = [n for n in base.free_names if n not in qs]
    if missing:
        raise ValueError(f"cannot pool: no record for {missing}")

    arrays = [qs[n].array for n in base.free_names]
    pooled = arrays[0]
    for arr in arrays[1:]:
        pooled = np.multiply.outer(pooled, arr)

    # realism: the pooled belief lives on the support of the shared starting
    # table, and must overlap it; a point mass on a zero cell (a forged report) has none
    pooled = pooled * (base.array > TOL)
    overlap = float(pooled.sum())
    if overlap <= TOL:
        raise RealismViolationError(
            "pooled records lie entirely outside the shared starting table's support"
        )
    pooled = pooled / overlap

    conds = (_PREPARED, _AT_STAGE[Stage.COMMUNICATION])
    ledger = _trusted(TaggedJoint, pooled, free=base.free, free_names=base.free_names, conditioners=conds,
                      label="A∪B")
    data = {n: qs[n].mode for n in base.free_names}
    new_a, new_b = (s._replace(ledger=ledger.relabel(s.observer)) for s in (state_a, state_b))
    return PooledState(ledger, data, new_a, new_b)


def retrodict(state: ObserverState, target: str, past_stage: Stage) -> TaggedJoint:
    """Re-evaluate a past-stage likelihood with everything now known.

    The result is the past ledger conditioned on the data learned by
    communication time, rendered in two-time notation: the past stage label
    sits in the counterfactual slot, current knowledge after the double bar.
    """
    if state.stage is not Stage.COMMUNICATION:
        raise ValueError("retrodiction needs the pooled, post-communication state")
    ledgers = state.stage_ledgers()
    if past_stage not in ledgers:
        raise ValueError(f"no ledger recorded at stage {past_stage.value}")
    past = ledgers[past_stage]
    factual = state.factual
    if target not in factual:
        raise ValueError(f"{target!r} is not part of the recorded data")
    if target not in past.free_names:
        raise ValueError(f"{target!r} was already factual at {past_stage.value}")

    d = past
    conditioned = []
    for name in past.free_names:
        if name == target or name not in factual:
            continue
        d = condition(d, (name, factual[name]), Modality.FACTUAL)
        conditioned.append(name)
    d = keep_only(d, [target])

    # two-time notation: own setting first, then the freshly conditioned data,
    # then the current stage; the past stage sits in the counterfactual slot
    names = []
    if state.own_setting in factual and state.own_setting != target:
        names.append(state.own_setting)
    names.extend(n for n in conditioned if n not in names)
    conds = [Conditioner(_AT_STAGE[past_stage].variable, past_stage.value, Modality.COUNTERFACTUAL)]
    for n in names:
        conds.append(Conditioner(state.initial_ledger.variable(n), factual[n], Modality.FACTUAL))
    conds.append(_AT_STAGE[Stage.COMMUNICATION])
    return TaggedJoint(d.free, d.array, tuple(conds), label=state.observer)


def ledger_chsh_expectation(ledger: TaggedJoint, settings: ChshSettings) -> float:
    """Signed outcome expectation over whatever the ledger still distributes.

    The ledger is laid out over ``[θa, θb, ±a, ±b]``, each variable already
    pinned by conditioning as a one-hot axis at its value, and reduced to a
    probability-weighted correlator per setting pair.  Each of the four
    chosen pairs enters the signed sum once per term, even when two coincide.
    """
    roles = ("θa", "θb", "±a", "±b")
    other_free = [n for n in ledger.free_names if n not in roles]
    if other_free:
        raise ValueError(f"ledger has unexpected free variables {other_free}")
    variables = {v.name: v for v in (*ledger.free, *(c.variable for c in ledger.conditioners))}
    table, names = ledger.array, list(ledger.free_names)
    for name in roles:
        if name not in names:
            v = variables[name]
            table = np.multiply.outer(table, np.eye(len(v.domain))[v.index(ledger.conditioned_value(name))])
            names.append(name)
    # the outcome axes follow OUTCOMES, as data_variables lays them out
    grid = correlators(table.transpose([names.index(n) for n in roles]))
    theta_a, theta_b = variables["θa"], variables["θb"]
    return chsh_sum([grid[theta_a.index(x), theta_b.index(y)] for x, y in settings.pairs()])
