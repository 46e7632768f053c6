"""Mutation fuzz of the config surface: a bad config is a ``ConfigError`` at a key, never a crash.

Valid documents from ``conftest.valid_configs`` get junk at one key or
sub-key, with and without the CLI's flag overrides.  ``parse_config`` plus
``build_model`` must succeed or raise a ``ConfigError`` whose every path names
a config key; a few mutated documents also go through ``cli.main``, which must
exit 0, 1 or 2 with no traceback.
"""

import contextlib
import copy
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from bellsim import ConfigError, behavior_to_csv, build_model, parse_config, pr_box
from bellsim import config as config_module
from bellsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from conftest import valid_configs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: The custom model's file, named before the strategies are built and written by ``behavior_file``.
BEHAVIOR_FILE = Path(tempfile.gettempdir()) / f"bellsim-fuzz-{os.getpid()}" / "behavior.csv"

FEW_STRINGS = st.sampled_from(["", "0", "0pi", "pi/0", "pi/4", "-3pi/4", "2pi", "1e400", "custom", "lhv", "x"])


def junk(ints):
    """Values of every JSON type, some close to valid ones, with integers from ``ints``."""
    scalar = st.one_of(st.none(), st.booleans(), ints, st.floats(), FEW_STRINGS, st.text(max_size=4))
    return st.one_of(
        scalar,
        st.lists(scalar, max_size=3),
        st.lists(st.integers(0, 3) | FEW_STRINGS, min_size=1, max_size=3, unique=True),
        st.dictionaries(st.sampled_from(["a", "x0", "prior", "setting", "hidden"]), scalar, max_size=2),
    )


#: Integers for parsing alone: huge and negative counts, and seeds past 2^128.
ANY_INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**130), st.sampled_from([2**63, 2**128]))

#: Integers for a real run: counts small enough to sample and trace.
RUN_INTS = st.integers(-3, 12)

VALID = valid_configs(BEHAVIOR_FILE)


def _slots(node, top=None):
    """Every ``(container, key, top-level key)`` under ``node``: members, list items and a new member."""
    keys = [*node, "bogus"] if isinstance(node, dict) else range(len(node))
    for key in keys:
        here = key if top is None else top
        yield node, key, here
        if key != "bogus" and isinstance(node[key], (dict, list)):
            yield from _slots(node[key], here)


@st.composite
def mutated_configs(draw, values):
    """A valid document with one key or sub-key set to one of ``values``, and the top-level key it sits under."""
    doc = copy.deepcopy(draw(VALID))
    missing = [(doc, key, key) for key in sorted(config_module._KNOWN_KEYS - set(doc))]
    container, key, top = draw(st.sampled_from(missing + list(_slots(doc))))
    container[key] = draw(values)
    return doc, top


@pytest.fixture(scope="module", autouse=True)
def behavior_file():
    BEHAVIOR_FILE.parent.mkdir(exist_ok=True)
    BEHAVIOR_FILE.write_text(behavior_to_csv(pr_box()), encoding="utf-8")
    yield
    shutil.rmtree(BEHAVIOR_FILE.parent)


@hypothesis.settings(deadline=None, max_examples=40, derandomize=True)
@hypothesis.given(doc=VALID)
def test_valid_configs_parse_and_build(doc):
    behavior = build_model(parse_config(json.dumps(doc)))
    assert behavior.grid_a and behavior.grid_b


OVERRIDES = st.fixed_dictionaries({}, optional={"seed": ANY_INTS, "trials_per_pair": ANY_INTS})


@hypothesis.settings(deadline=None, max_examples=150, derandomize=True)
@hypothesis.given(case=mutated_configs(junk(ANY_INTS)), overrides=st.none() | OVERRIDES)
def test_mutated_config_parses_or_names_a_key(case, overrides):
    doc, top = case
    try:
        build_model(parse_config(json.dumps(doc), overrides))
    except ConfigError as exc:
        assert exc.errors
        for path, _ in exc.errors:
            head = re.split(r"[.\[]", path)[0]
            assert head in config_module._KNOWN_KEYS or head in doc, path
    except OSError:
        # an unreadable behavior file is an i/o failure, not a config error
        assert top == "behavior_file"


@hypothesis.settings(deadline=None, max_examples=12, derandomize=True)
@hypothesis.given(case=mutated_configs(junk(RUN_INTS)), trials=st.none() | RUN_INTS)
def test_mutated_config_through_the_cli_exits_cleanly(case, trials):
    doc, top = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        flags = [] if trials is None else ["--trials", str(trials)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(path), "-o", str(Path(tmp) / "out"), *flags])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME) or (code == EXIT_IO and top == "behavior_file")
    assert "Traceback" not in err.getvalue()
