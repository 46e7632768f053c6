import math

import pytest

from bellsim import spacetime
from bellsim import (
    Angle,
    Detection,
    IntervalKind,
    InvalidScheduleError,
    Message,
    SettingChoice,
    SpacetimeEvent,
    StatePreparation,
    Worldline,
    build_schedule,
    interval,
    reception_order,
    reception_time,
)


def ev(t, x, payload=None, speed=1.0, index=0):
    return SpacetimeEvent(t, x, payload, speed, index=index)


# -- interval classification --------------------------------------------------


def test_equal_time_separated_points_are_spacelike():
    assert interval(ev(0.0, 0.0), ev(0.0, 3.0)) is IntervalKind.SPACELIKE


def test_same_place_different_times_are_timelike():
    assert interval(ev(0.0, 1.0), ev(2.0, 1.0)) is IntervalKind.TIMELIKE


def test_light_ray_is_lightlike():
    assert interval(ev(0.0, 0.0), ev(2.0, 2.0)) is IntervalKind.LIGHTLIKE
    assert interval(ev(0.0, 0.0), ev(2.0, -2.0)) is IntervalKind.LIGHTLIKE


def test_interval_respects_configurable_speed():
    assert interval(ev(0.0, 0.0), ev(1.0, 2.0), c=2.0) is IntervalKind.LIGHTLIKE
    assert interval(ev(0.0, 0.0), ev(1.0, 1.0), c=2.0) is IntervalKind.TIMELIKE


def test_interval_of_extreme_finite_coordinates_neither_overflows_nor_gives_nan():
    assert interval(ev(0.0, 0.0), ev(2.0, 1.0), c=1e308) is IntervalKind.TIMELIKE
    assert interval(ev(-1e308, 0.0), ev(1e308, 0.0)) is IntervalKind.TIMELIKE
    assert interval(ev(0.0, -1e308), ev(0.0, 1e308)) is IntervalKind.SPACELIKE
    assert interval(ev(-1e308, -1e308), ev(1e308, 1e308)) is IntervalKind.LIGHTLIKE


# -- reception ------------------------------------------------------------------


def test_own_events_received_at_emission_time():
    w = Worldline("A", -1.0)
    assert reception_time(ev(0.4, -1.0), w) == 0.4


def test_message_delay_is_distance_over_speed():
    w = Worldline("A", -1.0)
    assert reception_time(ev(1.0, 2.0, speed=1.0), w) == pytest.approx(4.0)
    assert reception_time(ev(1.0, 2.0, speed=0.5), w) == pytest.approx(7.0)


def test_equidistant_observers_receive_simultaneously():
    source = ev(0.0, 0.0)
    ta = reception_time(source, Worldline("A", -1.0))
    tb = reception_time(source, Worldline("B", 1.0))
    assert ta == tb == 1.0


def test_own_setting_precedes_far_message():
    w = Worldline("A", -1.0)
    own = ev(0.1, -1.0, SettingChoice("A", 0), index=0)
    msg = ev(0.3, 1.0, Message("B", "A", Detection("B", 1)), index=1)
    assert reception_order(w, [msg, own]) == [own, msg]


def test_spacelike_detections_seen_in_opposite_orders():
    det_a = ev(0.2, -1.0, Detection("A", 1), index=0)
    det_b = ev(0.2, 1.0, Detection("B", -1), index=1)
    order_a = reception_order(Worldline("A", -1.0), [det_a, det_b])
    order_b = reception_order(Worldline("B", 1.0), [det_a, det_b])
    assert [e.index for e in order_a] == [0, 1]
    assert [e.index for e in order_b] == [1, 0]


def test_single_event_order_is_singleton():
    e = ev(0.0, 0.0, StatePreparation())
    assert reception_order(Worldline("A", -1.0), [e]) == [e]


def test_simultaneous_receptions_tie_break_on_index():
    w = Worldline("A", 0.0)
    e1 = ev(1.0, 2.0, None, index=5)
    e2 = ev(2.0, 1.0, None, index=3)  # both received at t=3
    assert [e.index for e in reception_order(w, [e1, e2])] == [3, 5]


def test_reception_never_precedes_emission():
    w = Worldline("A", -1.0)
    for t, x in ((0.0, 0.0), (1.5, -1.0), (2.0, 4.0)):
        assert reception_time(ev(t, x), w) >= t


# -- schedules --------------------------------------------------------------------


def test_default_schedule_is_valid_and_far_detection_unseen():
    s = build_schedule()
    events = s.trial_events(0, 0, 1, -1)
    det_a = events[3]
    det_b = events[4]
    # B's detection signal cannot have reached A by A's own detection time
    assert reception_time(det_b, s.worldline_a) > det_a.t
    assert interval(det_a, det_b) is IntervalKind.SPACELIKE


def test_far_setting_not_received_before_detection():
    s = build_schedule()
    events = s.trial_events(0, 0, 1, -1)
    set_b = events[2]
    assert reception_time(set_b, s.worldline_a) > s.t_detection


def test_trial_events_are_the_same_with_no_cache_a_partial_one_and_a_full_one(monkeypatch):
    s, theta = build_schedule(), (Angle.of(0), Angle.of(1, 4), Angle.of(1, 2))
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return SpacetimeEvent(*args, **kwargs)

    monkeypatch.setattr(spacetime, "SpacetimeEvent", counted)
    plain = s.trial_events(theta[0], theta[1], 1, -1)
    assert len(built) == 9
    # another trial fills the preparation, A's setting and its report, and B's outcome and its report
    cache = {}
    s.trial_events(theta[0], theta[2], -1, -1, cache=cache)
    shared = {slot: cache[slot] for slot in ((0, None), (1, theta[0]), (5, theta[0]), (4, -1), (8, -1))}
    built.clear()
    partial = s.trial_events(theta[0], theta[1], 1, -1, cache=cache)
    assert partial == plain and len(built) == 4
    assert all(partial[i] is event for (i, _), event in shared.items())
    built.clear()
    full = s.trial_events(theta[0], theta[1], 1, -1, cache=cache)
    assert full == plain and built == []
    assert all(a is b for a, b in zip(full, partial))


def test_schedule_has_a_worldline_for_each_wing_only():
    s = build_schedule()
    assert [s.worldline(o).observer for o in ("A", "B")] == ["A", "B"]
    with pytest.raises(KeyError):
        s.worldline("C")


def test_schedule_rejects_connectable_wings():
    with pytest.raises(InvalidScheduleError):
        build_schedule(t_setting=0.1, t_detection=2.5, t_communication=5.0)


def test_schedule_rejects_identical_worldlines():
    with pytest.raises(InvalidScheduleError):
        build_schedule(position_a=1.0, position_b=1.0)


def test_schedule_rejects_nonincreasing_stage_times():
    with pytest.raises(InvalidScheduleError):
        build_schedule(t_setting=0.2, t_detection=0.1)


def test_schedule_rejects_too_early_communication():
    # completing communication at t=1.0 over distance 2 would require
    # emission before detection
    with pytest.raises(InvalidScheduleError):
        build_schedule(t_communication=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("keyword, part", [
    ("position_a", "positions"),
    ("position_b", "positions"),
    ("source_x", "positions"),
    ("t_prepare", "stage_times"),
    ("t_setting", "stage_times"),
    ("t_detection", "stage_times"),
    ("t_communication", "stage_times"),
    ("signal_speed", "signal_speed"),
    ("c", "c"),
])
def test_schedule_rejects_non_finite_numbers(keyword, part, value):
    with pytest.raises(InvalidScheduleError, match="must be finite") as info:
        build_schedule(**{keyword: value})
    assert info.value.part == part


def test_schedule_rejects_superluminal_messages():
    with pytest.raises(InvalidScheduleError):
        build_schedule(signal_speed=2.0)


def test_messages_arrive_exactly_at_communication_time():
    s = build_schedule(t_communication=3.0, signal_speed=0.8)
    events = s.trial_events(0, 0, 1, -1)
    msg_b_to_a = events[7]
    assert reception_time(msg_b_to_a, s.worldline_a) == pytest.approx(3.0)
    # each wing learns its own setting, its own outcome, then the far wing's report
    for w, own_setting, own_outcome, report in ((s.worldline_a, 1, 3, 7), (s.worldline_b, 2, 4, 5)):
        assert reception_time(events[own_setting], w) == s.t_setting
        assert reception_time(events[own_outcome], w) == s.t_detection
        assert reception_time(events[report], w) == pytest.approx(3.0)


def test_events_for_filters_and_orders():
    s = build_schedule()
    events = s.trial_events(0, 0, 1, -1)
    mine = s.events_for("A", events)
    kinds = [type(e.payload).__name__ for e in mine]
    assert kinds == ["SettingChoice", "Detection", "Message", "Message"]
    assert all(
        e.payload.recipient == "A" for e in mine if isinstance(e.payload, Message)
    )


def test_an_event_needs_a_positive_speed_also_when_replaced():
    with pytest.raises(ValueError, match="speed must be positive"):
        ev(0.0, 0.0, speed=0.0)
    e = ev(0.1, -1.0, SettingChoice("A", 1), index=1)
    assert e._replace(t=0.2) == ev(0.2, -1.0, SettingChoice("A", 1), index=1)
    with pytest.raises(ValueError, match="speed must be positive"):
        e._replace(speed=-1.0)
