"""Metamorphic relations of the observer machinery: changes to a run that must not change what it reports.

Each relation transforms a config, runs both sides end to end and compares
them, so it checks the whole path from ``trial_events`` through ``receive``
and ``pool`` without a second implementation.
"""

import itertools
import json
import re

import numpy as np
import pytest

from bellsim import (
    ChshSettings,
    Stage,
    TrialTrace,
    build_model,
    build_schedule,
    classify_violation,
    harness,
    parse_config,
    trace_trials,
)
from bellsim.cli import EXIT_OK, main
from bellsim.models import marginal_spreads
from bellsim.probability import TOL
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


def test_signal_speed_moves_only_the_reports_emission(tmp_path):
    # a report is emitted so that it reaches the far wing at tc: a slower signal is
    # sent earlier and arrives at the same time, so every ledger and every artifact
    # but the reports' own coordinates keeps its bytes
    doc = TRACED_CONFIGS["spread-widths"] | {"stage_times": {"communication": 5.0}}
    fast, slow = (run(tmp_path, f"speed-{speed}", doc | {"signal_speed": speed}) for speed in (1.0, 0.5))
    for name in ("summary.json", "dataset.csv", "behavior_estimate.csv", "plot_correlator.txt"):
        assert (slow / name).read_bytes() == (fast / name).read_bytes(), name
    traces = [json.loads((d / "trace.json").read_text(encoding="utf-8")) for d in (fast, slow)]
    sent = []
    for speed, trace in zip((1.0, 0.5), traces):
        sent.append([])
        for document in trace:
            for event in document["events"]:
                if event["kind"] == "Message":
                    assert event.pop("speed") == speed
                    sent[-1].append(event.pop("t"))
                    assert event["received"].pop(event["sender"]) == sent[-1][-1]
    # each wing reports its setting and its outcome in every trial, earlier when slower
    assert len(sent[1]) == len(sent[0]) == 4 * len(traces[0])
    assert all(s < f for f, s in zip(*sent))
    assert traces[1] == traces[0]


@pytest.mark.parametrize("name", ["moved-wings", "preset", "spread-widths"])
def test_communication_time_moves_only_the_reports(tmp_path, name):
    # the reports reach each wing at tc, after every local event, so a later tc
    # moves the reports' times and nothing else: no ledger, outcome or estimate
    doc = TRACED_CONFIGS[name] | {"keep_records": True}
    stage_times = doc.get("stage_times", {})
    later = doc | {"stage_times": stage_times | {
        "communication": parse_config(json.dumps(doc)).schedule.t_communication + 2.7}}
    base, moved = run(tmp_path, "base", doc), run(tmp_path, "later", later)
    for artifact in ("summary.json", "behavior_estimate.csv", "plot_correlator.txt"):
        assert (moved / artifact).read_bytes() == (base / artifact).read_bytes(), artifact
    assert stage_ledgers(later) == stage_ledgers(doc)
    rows = [(d / "dataset.csv").read_text(encoding="utf-8").splitlines() for d in (base, moved)]
    assert rows[1][0] == rows[0][0]
    reported = [i for i, column in enumerate(rows[0][0].split(",")) if column.startswith("t_reports_")]
    assert len(reported) == 2 and len(rows[1]) == len(rows[0]) > 1
    for b, m in zip(rows[0][1:], rows[1][1:]):
        b, m = b.split(","), m.split(",")
        for i in reported:
            assert float(m[i]) == pytest.approx(float(b[i]) + 2.7, abs=1e-12)
            b[i] = m[i]
        assert m == b
    traces = [json.loads((d / "trace.json").read_text(encoding="utf-8")) for d in (base, moved)]
    reports = [[event for document in trace for event in document["events"] if event["kind"] == "Message"]
               for trace in traces]
    # each wing reports its setting and its outcome in every trial
    assert len(reports[1]) == len(reports[0]) == 4 * len(traces[0])
    for b, m in zip(*reports):
        assert m.pop("t") == pytest.approx(b.pop("t") + 2.7, abs=1e-12)
        for wing in ("A", "B"):
            assert m["received"].pop(wing) == pytest.approx(b["received"].pop(wing) + 2.7, abs=1e-12)
    assert traces[1] == traces[0]


#: The wing swap's renaming: each wing's setting and outcome, and each observer, take the other's name.
MIRROR = {"θa": "θb", "θb": "θa", "±a": "±b", "±b": "±a", "A": "B", "B": "A"}


def wing_swapped(config):
    """``config`` with the wings exchanged: the grids, the chosen settings, the preset pair and the positions."""
    c, s = config.chsh, config.schedule
    schedule = build_schedule(
        position_a=s.worldline_b.x, position_b=s.worldline_a.x, source_x=s.source_x,
        t_prepare=s.t_prepare, t_setting=s.t_setting, t_detection=s.t_detection,
        t_communication=s.t_communication, signal_speed=s.signal_speed, c=s.c,
    )
    preset_pair = config.preset_pair[::-1] if config.preset_pair else None
    return config._replace(grid_a=config.grid_b, grid_b=config.grid_a, chsh=ChshSettings(c.y0, c.y1, c.x0, c.x1),
                           preset_pair=preset_pair, schedule=schedule)


def pooled_by_key(config, behavior) -> dict:
    """The pooled state of every live ``(θa, θb, cell)`` key, all built through one shared memo as a run builds them."""
    memo, slot_events, out = {}, {}, {}
    for x, y in behavior.pairs():
        for cell, p in enumerate(behavior.slice(x, y).ravel().tolist()):
            if p > 0.0:
                events = config.schedule.trial_events(x, y, *harness.CELL_OUTCOMES[cell], cache=slot_events)
                root = (x, y) if config.preset_settings else None
                out[x, y, cell] = harness._ledgers(config, behavior, events, root, memo)
    return out


def named(ledger, rename=lambda n: n):
    """A ledger as (label, free variables, conditioners, array), renamed, with the axes sorted by their new names.

    The conditioners keep their order, which is how the ledger is written, so a
    wing swap must mirror the written order too.
    """
    free = [(rename(v.name), v.domain) for v in ledger.free]
    order = sorted(range(len(free)), key=lambda i: free[i][0])
    conditioners = [(rename(c.variable.name), c.variable.domain, c.value, c.modality) for c in ledger.conditioners]
    return rename(ledger.label), tuple(free[i] for i in order), conditioners, ledger.array.transpose(order)


def assert_same_ledger(ledger, mirror):
    """``mirror``, renamed by :data:`MIRROR`, is ``ledger``: names and conditioners exactly, the array to 1e-12."""
    *names, array = named(ledger)
    *mirror_names, mirror_array = named(mirror, lambda n: MIRROR.get(n, n))
    assert mirror_names == names
    np.testing.assert_allclose(mirror_array, array, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(set(TRACED_CONFIGS) - {"unresolved"}))
def test_wing_swap_exchanges_the_observers_ledgers(name):
    # Alice and Bob are interchangeable: exchange the wings, and each observer's
    # ledgers are the other's in the original run with the wings' names exchanged.
    # An unresolved local setting is A's alone, so that config is left out.
    config = parse_config(json.dumps(TRACED_CONFIGS[name]))
    behavior, swapped = build_model(config), wing_swapped(config)
    swapped_behavior = build_model(swapped)
    assert np.array_equal(swapped_behavior.table, behavior.table.transpose(1, 0, 3, 2))
    base, mirror = pooled_by_key(config, behavior), pooled_by_key(swapped, swapped_behavior)
    assert len(mirror) == len(base) > 0
    compared = 0
    for (x, y, cell), pooled in base.items():
        # cells run row-major over (±a, ±b), so the swapped cell exchanges the two bits
        swapped_pooled = mirror[y, x, (cell % 2) * 2 + cell // 2]
        assert {MIRROR[n]: v for n, v in swapped_pooled.data.items()} == pooled.data
        assert_same_ledger(pooled.ledger, swapped_pooled.ledger)
        for state, mirror_state in ((pooled.observer_a, swapped_pooled.observer_b),
                                    (pooled.observer_b, swapped_pooled.observer_a)):
            ledgers, mirror_ledgers = state.stage_ledgers(), mirror_state.stage_ledgers()
            assert list(mirror_ledgers) == list(ledgers)
            for stage, ledger in ledgers.items():
                assert_same_ledger(ledger, mirror_ledgers[stage])
                compared += 1
    assert compared >= 8 * len(base)


def mirrored_report(report):
    """``report`` with the wings' names exchanged by :data:`MIRROR`, its posited settings in name order."""
    return report._replace(
        observer=MIRROR[report.observer],
        counterfactual_conditioners=tuple(sorted(MIRROR[n] for n in report.counterfactual_conditioners)),
        nonlocal_counterfactuals=tuple(MIRROR[n] for n in report.nonlocal_counterfactuals),
        note=re.sub("θ[ab]", lambda m: MIRROR[m.group()], report.note),
    )


SYMMETRIC = sorted(set(TRACED_CONFIGS) - {"unresolved"})


@pytest.mark.parametrize("doc", [{}, *(TRACED_CONFIGS[n] for n in SYMMETRIC)], ids=["default", *SYMMETRIC])
def test_wing_swap_exchanges_the_observers_verdicts(doc):
    # before tc, B's verdict on a trial is A's verdict on the mirrored trial of the
    # swapped run, and the other way round: the same class, the names exchanged and
    # the same four-term sum
    config = parse_config(json.dumps(doc))
    behavior, swapped = build_model(config), wing_swapped(config)
    swapped_behavior = build_model(swapped)
    base, mirror = pooled_by_key(config, behavior), pooled_by_key(swapped, swapped_behavior)
    compared = 0
    for (x, y, cell), pooled in base.items():
        swapped_cell = (cell % 2) * 2 + cell // 2
        outcomes, mirror_outcomes = harness.CELL_OUTCOMES[cell], harness.CELL_OUTCOMES[swapped_cell]
        trace = TrialTrace(x, y, *outcomes, config.schedule.trial_events(x, y, *outcomes), pooled, behavior)
        mirror_trace = TrialTrace(y, x, *mirror_outcomes, swapped.schedule.trial_events(y, x, *mirror_outcomes),
                                  mirror[y, x, swapped_cell], swapped_behavior)
        for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION):
            for observer in ("A", "B"):
                report = classify_violation(trace, stage, config.chsh, observer=observer)
                got = mirrored_report(classify_violation(mirror_trace, stage, swapped.chsh, observer=MIRROR[observer]))
                if report.s_value is not None:
                    assert got.s_value == pytest.approx(report.s_value, rel=0.0, abs=1e-12)
                    got = got._replace(s_value=report.s_value)
                posited = tuple(sorted(report.counterfactual_conditioners))
                assert got == report._replace(counterfactual_conditioners=posited)
                compared += 1
    assert compared == 6 * len(base) > 0


#: Configs whose ``grid_a`` is relabelled: angle grids of two and three settings, and an
#: LHV model, whose A responses are listed by grid position and so move with the grid.
RELABELLED = {
    "default": {"grid_a": ["0", "pi/2"], "trials_per_pair": 20},
    **{name: TRACED_CONFIGS[name] for name in ("spread-widths", "mixed-widths", "moved-wings")},
    "lhv": {"model": "lhv", "grid_a": [0, 1], "grid_b": [0, 1], "trials_per_pair": 20,
            "lhv": {"prior": [0.25, 0.75], "response_a": [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [1.0, 0.0]]],
                    "response_b": [[[1.0, 0.0], [0.1, 0.9]], [[0.4, 0.6], [0.7, 0.3]]]}},
}


def relabelled(doc: dict, order: tuple) -> dict:
    """``doc`` with ``grid_a`` listed in ``order``, an LHV model's A responses with it, and ``chsh`` as it was."""
    moved = doc | {"grid_a": [doc["grid_a"][i] for i in order]}
    if "lhv" in doc:
        moved["lhv"] = doc["lhv"] | {"response_a": [doc["lhv"]["response_a"][i] for i in order]}
    return moved


def analytic_sections(out) -> tuple:
    """The analytic parts of a run's ``summary.json``: everything but the facet's signs, and the max facet."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    estimates, factorizability = summary["estimates"], dict(summary["factorizability"])
    factorizability.pop("worst_signs", None)
    max_facet = factorizability.pop("max_facet", None)
    return {
        "chsh": estimates["chsh"]["analytic"],
        "correlators": [(c["x"], c["y"], c["analytic"]) for c in estimates["correlators"]],
        "factorizability": factorizability,
        "no_signaling": summary["no_signaling"]["analytic"],
    }, max_facet


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelling_grid_a_permutes_the_behavior_and_keeps_the_analytic_verdicts(tmp_path, name):
    # grid_a lists labels: list them in another order, keep the chsh settings by value,
    # and the analytic table's x axis follows the order while S, each chsh correlator,
    # the factorizability verdict and both wings' no-signaling spreads stay exactly as
    # they were; the max facet sums the same four terms in another order, so it agrees
    # to rounding
    doc = RELABELLED[name]
    config = parse_config(json.dumps(doc))
    behavior = build_model(config)
    sections, max_facet = analytic_sections(run(tmp_path, "base", doc))
    orders = list(itertools.permutations(range(len(config.grid_a))))[1:]
    assert orders
    for order in orders:
        moved = parse_config(json.dumps(relabelled(doc, order)))
        assert moved.grid_a == tuple(config.grid_a[i] for i in order) and moved.chsh == config.chsh
        moved_behavior = build_model(moved)
        assert np.array_equal(moved_behavior.table, behavior.table[list(order)]), order
        assert marginal_spreads(moved_behavior.table) == marginal_spreads(behavior.table), order
        moved_sections, moved_facet = analytic_sections(run(tmp_path, f"order-{order}", relabelled(doc, order)))
        assert moved_sections == sections, order
        assert (moved_facet is None) == (max_facet is None)
        if max_facet is not None:
            assert moved_facet == pytest.approx(max_facet, rel=0.0, abs=1e-12), order


def test_an_unresolved_local_setting_keeps_b_before_tc_and_a_at_t0():
    # A's uniform q over its own setting is A's alone and first read at tθ: switching it
    # on leaves A's t0 ledger and all of B's ledgers before tc as they were, and A's
    # ledger at tθ keeps θa free
    config = parse_config(json.dumps(TRACED_CONFIGS["unresolved"]))
    assert config.unresolved_local_setting
    behavior = build_model(config)
    base = pooled_by_key(config._replace(unresolved_local_setting=False), behavior)
    unresolved = pooled_by_key(config, behavior)
    assert list(unresolved) == list(base) and base
    kept = [("A", Stage.INITIAL), *(("B", stage) for stage in (Stage.INITIAL, Stage.SETTING, Stage.DETECTION))]
    moved = 0
    for key, pooled in unresolved.items():
        states = {s.observer: s.stage_ledgers() for s in (pooled.observer_a, pooled.observer_b)}
        base_states = {s.observer: s.stage_ledgers() for s in (base[key].observer_a, base[key].observer_b)}
        for observer, stage in kept:
            ledger, base_ledger = states[observer][stage], base_states[observer][stage]
            assert ledger.render() == base_ledger.render(), (key, observer, stage)
            np.testing.assert_allclose(ledger.array, base_ledger.array, rtol=0.0, atol=TOL)
        assert "θa" in states["A"][Stage.SETTING].free_names, key
        moved += not np.allclose(states["A"][Stage.SETTING].array, base_states["A"][Stage.SETTING].array)
    # the flag does reach A's ledger at tθ
    assert moved
