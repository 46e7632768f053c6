"""``cli._dumps_at`` against ``json.dumps`` as an oracle.

``trace.json`` splices each event and stage entry from a fragment that
``_dumps_at`` writes itself.  Every fragment must be what
``json.dumps(obj, indent=2, ensure_ascii=False)`` writes, re-indented
``depth`` levels deep: JSON escapes every newline inside a string, so each
newline of the dump is a line break and takes the extra indent.
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim.cli import _dumps_at  # noqa: E402

#: Characters JSON escapes or that take more than one UTF-8 byte: a quote, a backslash, control
#: characters, a line separator, Latin, Greek and astral letters.
AWKWARD = '"\\\n\r\t\b\f\x00\x1f\x7f éθψ±𝔸😀'

texts = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=12)
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf]))
ints = st.one_of(st.integers(-10, 10), st.integers())
scalars = st.one_of(texts, ints, floats, st.booleans(), st.none())


def dumped_at(obj, depth: int) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * depth)


@st.composite
def event_entries(draw) -> dict:
    """A dict shaped as ``cli._event_entry`` builds one, a message's three members included or not."""
    entry = {
        "index": draw(ints),
        "t": draw(floats),
        "x": draw(floats),
        "kind": draw(texts),
        "speed": draw(floats),
        "received": {"A": draw(floats), "B": draw(floats)},
    }
    if draw(st.booleans()):
        entry |= {"sender": draw(texts), "recipient": draw(texts), "body": draw(texts)}
    return entry | {"proposition": draw(texts), "value": draw(st.one_of(texts, ints))}


stage_entries = st.fixed_dictionaries({"stage": texts, "ledger": texts})
# any keys, including none, over scalars and one nested level of dicts of scalars
nested = st.dictionaries(texts, st.one_of(scalars, st.dictionaries(texts, scalars, max_size=3)), max_size=5)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.one_of(event_entries(), stage_entries, nested), st.integers(0, 6))
def test_an_entry_is_its_indented_json_dumps(obj, depth):
    assert _dumps_at(obj, depth) == dumped_at(obj, depth)


@pytest.mark.parametrize("obj", [{}, {"received": {}}, {"a": 1, "b": {}}], ids=["empty", "empty-nested", "mixed"])
def test_an_empty_dict_is_two_braces(obj):
    for depth in (0, 3):
        assert _dumps_at(obj, depth) == dumped_at(obj, depth)
