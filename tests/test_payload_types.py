"""Event payloads are tuple records whose equality still tells their types apart.

With integer setting labels, a setting choice and a detection at one wing
can hold the same fields; they are different propositions, so they must
never be equal or share a dict key, and neither may the events that carry them.
"""

import hashlib
import json

from bellsim.cli import EXIT_OK, main
from bellsim.spacetime import Detection, Message, SettingChoice, SpacetimeEvent, StatePreparation
from conftest import TRACED_CONFIGS

#: sha256 of ``trace.json`` for ``TRACED_CONFIGS["pr-box"]``, whose settings are the
#: integer labels 0 and 1, pinned from a run made when the payloads were dataclasses.
PR_BOX_TRACE_SHA256 = "f629a0d688e186121660c5d7ecb6a141067076e931217fa63cb7df982849282f"


def test_payloads_with_equal_fields_and_different_types_are_unequal():
    choice, detection = SettingChoice("A", 1), Detection("A", 1)
    assert tuple(choice) == tuple(detection)
    assert choice != detection and not choice == detection
    assert len({choice: "setting", detection: "outcome"}) == 2
    assert Message("A", "B", choice) != Message("A", "B", detection)
    assert choice == SettingChoice("A", 1) and hash(choice) == hash(SettingChoice("A", 1))
    assert choice != ("A", 1) and StatePreparation() != ("ψ0",)


def test_events_carrying_payloads_of_different_types_are_unequal():
    choice, detection = (SpacetimeEvent(0.1, -1.0, p, index=1) for p in (SettingChoice("A", 1), Detection("A", 1)))
    assert choice != detection and not choice == detection
    assert len({choice: "setting", detection: "outcome"}) == 2
    assert choice == SpacetimeEvent(0.1, -1.0, SettingChoice("A", 1), index=1)
    assert choice != tuple(choice)


def test_pr_box_trace_with_integer_labels_is_byte_identical(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(TRACED_CONFIGS["pr-box"]), encoding="utf-8")
    assert main([str(config), "-o", str(tmp_path / "out")]) == EXIT_OK
    data = (tmp_path / "out" / "trace.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PR_BOX_TRACE_SHA256
