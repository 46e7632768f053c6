"""Metamorphic relations of the observer machinery: changes to a run that must not change what it reports.

Each relation transforms a config, runs both sides end to end and compares
them, so it checks the whole path from ``trial_events`` through ``receive``
and ``pool`` without a second implementation.
"""

import json

import pytest

from bellsim import build_model, parse_config, trace_trials
from bellsim.cli import EXIT_OK, main
from conftest import TRACED_CONFIGS

#: (time shift, space shift) pairs: each alone and both together, dyadic and not.
SHIFTS = ((1.0, 0.0), (0.0, 0.5), (0.375, -2.25), (0.7, 0.3))


def translated(doc: dict, dt: float, dx: float) -> dict:
    """``doc`` with all four stage times moved by ``dt``, and both wings and the source by ``dx``."""
    s = parse_config(json.dumps(doc)).schedule
    times = (s.t_prepare, s.t_setting, s.t_detection, s.t_communication)
    places = (s.worldline_a.x, s.worldline_b.x, s.source_x)
    return doc | {
        "stage_times": dict(zip(("prepare", "setting", "detection", "communication"), (t + dt for t in times))),
        "positions": dict(zip(("a", "b", "source"), (x + dx for x in places))),
    }


def stage_ledgers(doc: dict) -> list:
    """Every stage ledger of every traced trial, in trial order, down to the bytes of its array."""
    config = parse_config(json.dumps(doc))
    return [
        [
            (
                state.observer,
                stage.value,
                ledger.render(),
                ledger.free_names,
                tuple((c.variable.name, c.value, c.modality.value) for c in ledger.conditioners),
                ledger.array.tobytes(),
            )
            for state in (t.observer_a, t.observer_b)
            for stage, ledger in state.stage_ledgers().items()
        ]
        for t in trace_trials(config, build_model(config))
    ]


def run(tmp_path, name: str, doc: dict):
    """The run directory of ``doc``, run through the CLI."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([str(path), "-o", str(tmp_path / name)]) == EXIT_OK
    return tmp_path / name


def assert_events_moved(base: list, moved: list, dt: float, dx: float):
    """``moved`` is the ``base`` trace with each event's time and reception times moved by ``dt`` and place by ``dx``."""
    assert len(moved) == len(base)
    for b, m in zip(base, moved):
        assert len(m["events"]) == len(b["events"])
        for eb, em in zip(b["events"], m["events"]):
            assert em.pop("t") == pytest.approx(eb.pop("t") + dt, abs=1e-12)
            assert em.pop("x") == pytest.approx(eb.pop("x") + dx, abs=1e-12)
            for wing in ("A", "B"):
                assert em["received"].pop(wing) == pytest.approx(eb["received"].pop(wing) + dt, abs=1e-12)
    assert moved == base


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_translation_moves_the_event_coordinates_and_nothing_else(tmp_path, name):
    # only the order in which information reaches each observer matters, and a
    # shift of every time, or of every place, keeps that order
    doc = TRACED_CONFIGS[name]
    out, ledgers = run(tmp_path, "base", doc), stage_ledgers(doc)
    assert ledgers and all(ledgers)
    for dt, dx in SHIFTS:
        moved = translated(doc, dt, dx)
        assert parse_config(json.dumps(moved)).schedule != parse_config(json.dumps(doc)).schedule
        moved_out = run(tmp_path, f"moved-{dt}-{dx}", moved)
        assert (moved_out / "summary.json").read_bytes() == (out / "summary.json").read_bytes(), (dt, dx)
        assert stage_ledgers(moved) == ledgers, (dt, dx)
        trace, moved_trace = (json.loads((d / "trace.json").read_text(encoding="utf-8")) for d in (out, moved_out))
        assert_events_moved(trace, moved_trace, dt, dx)
