"""Flat 1+1D kinematics: intervals, signal reception, stage schedules.

Observers sit at fixed positions (no boosts), so lab-frame coordinates are
shared and only signal travel time reorders what each observer sees.  Units
default to c = 1 with positions in light-seconds and times in seconds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .errors import InvalidScheduleError
from .probability import TOL

#: Label of the shared prepared-state proposition.
PREPARED_SYMBOL = "ψ0"


def setting_symbol(observer: str) -> str:
    return "θ" + observer.lower()


def outcome_symbol(observer: str) -> str:
    return "±" + observer.lower()


class IntervalKind(Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


# -- event payloads ----------------------------------------------------------
# each payload carries one ``proposition``: the ``(name, value)`` pair it delivers


class _Typed:
    """Tuple-record equality that tells record types apart: ``SettingChoice("A", 1) != Detection("A", 1)``."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__, where tuple's would compare fields only
    __hash__ = tuple.__hash__


class StatePreparation(_Typed, namedtuple("StatePreparation", "label", defaults=(PREPARED_SYMBOL,))):
    __slots__ = ()
    proposition = property(lambda self: (self.label, self.label))


class SettingChoice(_Typed, namedtuple("SettingChoice", "observer value")):
    __slots__ = ()
    proposition = property(lambda self: (setting_symbol(self.observer), self.value))


class Detection(_Typed, namedtuple("Detection", "observer value")):
    __slots__ = ()
    proposition = property(lambda self: (outcome_symbol(self.observer), self.value))


class Message(_Typed, namedtuple("Message", "sender recipient body")):
    """A report from one wing to the other; ``body`` is the SettingChoice or Detection reported."""

    __slots__ = ()
    proposition = property(lambda self: self.body.proposition)


class SpacetimeEvent(_Typed, namedtuple("SpacetimeEvent", "t x payload speed index")):
    """A lab-frame event whose influence propagates at ``speed`` (<= c)."""

    __slots__ = ()

    def __new__(cls, t: float, x: float, payload, speed: float = 1.0, *, index: int):
        if not speed > 0.0:
            raise ValueError("emission speed must be positive")
        return super().__new__(cls, t, x, payload, speed, index)

    _make = classmethod(lambda cls, fields: cls(*(f := tuple(fields))[:4], index=f[4]))  # _replace checks again


class Worldline(NamedTuple):
    """A stationary observer's trajectory: a fixed position."""

    observer: str
    x: float


def interval(e1: SpacetimeEvent, e2: SpacetimeEvent, c: float = 1.0) -> IntervalKind:
    """Classify the separation by the sign of ``(c dt)^2 - dx^2``.

    ``|c dt|`` and ``|dx|`` are compared directly, not squared, so no finite
    input overflows.
    """
    ct = abs(c * (e2.t - e1.t))
    dx = abs(e2.x - e1.x)
    if ct == dx or abs(ct - dx) < TOL * max(ct, dx, 1.0):
        return IntervalKind.LIGHTLIKE
    return IntervalKind.TIMELIKE if ct > dx else IntervalKind.SPACELIKE


def reception_time(event: SpacetimeEvent, worldline: Worldline) -> float:
    """Earliest time the event's signal reaches the worldline.

    Events on the observer's own worldline are received at emission time.
    """
    return event.t + abs(event.x - worldline.x) / event.speed


def reception_order(worldline: Worldline, events) -> list:
    """Events sorted by reception time; ties broken by global event index."""
    return sorted(events, key=lambda e: (reception_time(e, worldline), e.index))


# -- the experiment's stage schedule ------------------------------------------


class Schedule(NamedTuple):
    """Validated timing and geometry for one run.

    ``t_communication`` is when the exchanged reports have *arrived*; the
    wing-to-wing messages are emitted early enough (at ``message_emit_time``)
    for their reception to complete exactly then.
    """

    worldline_a: Worldline
    worldline_b: Worldline
    t_prepare: float
    t_setting: float
    t_detection: float
    t_communication: float
    signal_speed: float
    c: float
    source_x: float

    @property
    def distance(self) -> float:
        return abs(self.worldline_a.x - self.worldline_b.x)

    @property
    def message_emit_time(self) -> float:
        return self.t_communication - self.distance / self.signal_speed

    def worldline(self, observer: str) -> Worldline:
        if observer == self.worldline_a.observer:
            return self.worldline_a
        if observer == self.worldline_b.observer:
            return self.worldline_b
        raise KeyError(observer)

    def trial_events(self, theta_a, theta_b, outcome_a, outcome_b, cache=None):
        """The nine concrete events of one trial, indexed in creation order.

        Event ``i`` is fixed by its slot and the one value it carries (none for
        the preparation), so calls that pass one ``cache`` dict build each
        ``(i, value)`` event once and share the object; a call whose nine
        events are all cached is one lookup per slot.
        """
        values = (None, theta_a, theta_b, outcome_a, outcome_b, theta_a, outcome_a, theta_b, outcome_b)
        slots, cache = tuple(enumerate(values)), {} if cache is None else cache
        try:
            return tuple([cache[slot] for slot in slots])
        except KeyError:  # some event is not built yet
            pass
        a, b = self.worldline_a, self.worldline_b
        emit = self.message_emit_time
        # slot i: its time, its place, its payload for the value, and its speed
        plan = [
            (self.t_prepare, self.source_x, lambda _: StatePreparation(), self.c),
            (self.t_setting, a.x, lambda v: SettingChoice(a.observer, v), self.c),
            (self.t_setting, b.x, lambda v: SettingChoice(b.observer, v), self.c),
            (self.t_detection, a.x, lambda v: Detection(a.observer, v), self.c),
            (self.t_detection, b.x, lambda v: Detection(b.observer, v), self.c),
            (emit, a.x, lambda v: Message(a.observer, b.observer, SettingChoice(a.observer, v)), self.signal_speed),
            (emit, a.x, lambda v: Message(a.observer, b.observer, Detection(a.observer, v)), self.signal_speed),
            (emit, b.x, lambda v: Message(b.observer, a.observer, SettingChoice(b.observer, v)), self.signal_speed),
            (emit, b.x, lambda v: Message(b.observer, a.observer, Detection(b.observer, v)), self.signal_speed),
        ]
        for i, value in slots:
            if (i, value) not in cache:
                t, x, payload, speed = plan[i]
                cache[i, value] = SpacetimeEvent(t, x, payload(value), speed, index=i)
        return tuple([cache[slot] for slot in slots])

    def events_for(self, observer: str, events):
        """The events this observer actually receives, in reception order."""
        w = self.worldline(observer)
        mine = []
        for e in events:
            p = e.payload
            if isinstance(p, (SettingChoice, Detection)) and p.observer == observer:
                mine.append(e)
            elif isinstance(p, Message) and p.recipient == observer:
                mine.append(e)
        return reception_order(w, mine)


def build_schedule(
    *,
    position_a: float = -1.0,
    position_b: float = 1.0,
    source_x: float = 0.0,
    t_prepare: float = 0.0,
    t_setting: float = 0.1,
    t_detection: float = 0.2,
    t_communication: float = 2.3,
    signal_speed: float = 1.0,
    c: float = 1.0,
) -> Schedule:
    """Validate timing and geometry, or raise :class:`InvalidScheduleError`.

    Requires finite numbers, strictly increasing stage times, distinct
    worldlines, messages emittable no earlier than detection, and space-like
    separation between each wing's measurement process and the other wing's.
    """
    for part, values in (
        ("positions", (position_a, position_b, source_x)),
        ("stage_times", (t_prepare, t_setting, t_detection, t_communication)),
        ("signal_speed", (signal_speed,)),
        ("c", (c,)),
    ):
        if not all(map(math.isfinite, values)):
            raise InvalidScheduleError(f"{part} must be finite; got {values}", part)
    if position_a == position_b:
        raise InvalidScheduleError("observer worldlines must be distinct", "positions")
    if not c > 0.0:
        raise InvalidScheduleError(f"c must be positive; got {c}", "c")
    if not (0.0 < signal_speed <= c):
        raise InvalidScheduleError(f"signal speed must lie in (0, c]; got {signal_speed}", "signal_speed")
    times = (t_prepare, t_setting, t_detection, t_communication)
    if not (times[0] < times[1] < times[2] < times[3]):
        raise InvalidScheduleError(
            f"stage times must increase strictly; got {times}"
        )
    schedule = Schedule(
        Worldline("A", position_a),
        Worldline("B", position_b),
        t_prepare,
        t_setting,
        t_detection,
        t_communication,
        signal_speed,
        c,
        source_x,
    )
    if schedule.message_emit_time < t_detection - TOL:
        raise InvalidScheduleError(
            "communication completes too early: reports would have to be sent "
            f"at t={schedule.message_emit_time} before detection at t={t_detection}"
        )
    # both wings' choice and detection events must be space-like separated; the wings share their
    # stage times, so A's detection against B's setting is A's setting against B's detection, and
    # the two detections are the two settings
    setting_a = SpacetimeEvent(t_setting, position_a, None, c, index=-1)
    for name, t in (("setting B", t_setting), ("detection B", t_detection)):
        kind = interval(setting_a, SpacetimeEvent(t, position_b, None, c, index=-2), c=c)
        if kind is not IntervalKind.SPACELIKE:
            raise InvalidScheduleError(f"setting A and {name} are {kind.value}, not space-like separated")
    return schedule
