"""Mutation fuzz of the config surface: a bad config is a ``ConfigError`` at a key, never a crash.

Valid documents from ``conftest.valid_configs`` get junk at one key or
sub-key, with and without the CLI's flag overrides.  ``parse_config`` plus
``build_model`` must succeed or raise a ``ConfigError`` whose every path names
a config key; a few mutated documents also go through ``cli.main``, which must
exit 0, 1 or 2 with no traceback.

Below the documents, the raw bytes of the config file and of a custom model's
behavior file are mutated (truncations, invalid UTF-8, byte order marks, deep
nesting, long integer literals and random bytes), and so is the command line
(``--seed`` and ``--trials`` text and unknown flags).  Through ``cli.main``
each must exit 0, or exit 1 with only ``config error at`` lines or, for a
usage error, the usage line and a ``bellsim: error:`` line; never with a
traceback.
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

import numpy as np
import pytest

from bellsim import ConfigError, behavior_to_csv, build_model, parse_config, pr_box
from bellsim import config as config_module
from bellsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from conftest import LHV_TABLES, random_behavior, valid_configs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: The custom model's file, named before the strategies are built and written by ``behavior_file``.
BEHAVIOR_FILE = Path(tempfile.gettempdir()) / f"bellsim-fuzz-{os.getpid()}" / "behavior.csv"

#: Strings close to valid values, among them a multiple of pi whose radians overflow a float.
FEW_STRINGS = st.sampled_from(
    ["", "0", "0pi", "pi/0", "pi/4", "-3pi/4", "2pi", "1" + "0" * 400 + "pi", "1e400", "custom", "lhv", "x"]
)


def junk(ints):
    """Values of every JSON type, some close to valid ones, with integers from ``ints``."""
    scalar = st.one_of(st.none(), st.booleans(), ints, st.floats(), FEW_STRINGS, st.text(max_size=4))
    return st.one_of(
        scalar,
        st.lists(scalar, max_size=3),
        st.lists(st.integers(0, 3) | FEW_STRINGS, min_size=1, max_size=3, unique=True),
        st.just([1.7e308, 1.7e308]),  # finite numbers whose sum overflows
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


@hypothesis.settings(deadline=None, max_examples=150, derandomize=True)
@hypothesis.given(doc=VALID)
def test_valid_configs_run_once_traced(doc):
    # a config that parses runs: a spread q over a value of probability zero (a
    # deterministic LHV outcome, say) is applied on the values the ledger leaves possible
    doc = {**doc, "traced_trials": max(doc.get("traced_trials", 1), 1)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _cli([path, "-o", Path(tmp) / "out"])
        assert (code, err) == (EXIT_OK, ""), doc
        assert (Path(tmp) / "out" / "trace.json").is_file()


OVERRIDES = st.fixed_dictionaries({}, optional={"seed": ANY_INTS, "trials_per_pair": ANY_INTS})

#: One mutation of each value above that random draws seldom place where it does harm: a grid
#: entry that the CHSH settings leave out, and a prior of the two-cause table.
HUGE_GRID_ENTRY = ({"grid_a": ["1" + "0" * 400 + "pi", "pi/2"], "trials_per_pair": 5,
                    "chsh": {"x0": "pi/2", "x1": "pi/2", "y0": "pi/4", "y1": "-pi/4"}}, "grid_a")
OVERFLOWING_PRIOR = ({"model": "lhv", "lhv": {**LHV_TABLES[1], "prior": [1.7e308, 1.7e308]},
                      "trials_per_pair": 5}, "lhv")


@hypothesis.settings(deadline=None, max_examples=150, derandomize=True)
@hypothesis.given(case=mutated_configs(junk(ANY_INTS)), overrides=st.none() | OVERRIDES)
@hypothesis.example(case=HUGE_GRID_ENTRY, overrides=None)
@hypothesis.example(case=OVERFLOWING_PRIOR, overrides=None)
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
@hypothesis.example(case=HUGE_GRID_ENTRY, trials=None)
@hypothesis.example(case=OVERFLOWING_PRIOR, trials=None)
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


# -- bytes and flags -----------------------------------------------------------------

#: Bytes that never occur in UTF-8: lone continuation bytes and bytes past any lead byte.
NOT_UTF8 = st.binary(min_size=1, max_size=3).map(lambda b: bytes(0x80 | c % 0x40 if c % 2 else 0xF8 | c % 8 for c in b))

#: Byte order marks: UTF-8's, which ``json`` refuses, and UTF-16's and UTF-32's, which do not decode.
BOMS = st.sampled_from([b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff", b"\xff\xfe\x00\x00"])

#: Digit runs past 2^63 (so never a count a run would sample), past the interpreter's
#: 4300-digit conversion limit, and past the csv module's 131072-character field limit.
LONG_DIGITS = st.sampled_from([20, 40, 4301, 6000, 140000]).map(lambda n: b"1" + b"0" * (n - 1))

#: Nesting that a JSON parser must refuse or reject as the wrong shape, shallow or deep.
NESTING = st.sampled_from([(b"[", b"]"), (b'{"a": ', b"}")]).flatmap(
    lambda brackets: st.sampled_from([1, 3, 1000, 100000]).map(lambda n: (brackets[0] * n, brackets[1] * n))
)


@st.composite
def mutated_bytes(draw, valid):
    """The bytes of a ``valid`` file with one byte-level mutation; a mutation may leave them valid."""
    data = draw(valid)
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["truncate", "not-utf8", "bom", "nest", "long-int", "random"]))
    if kind == "truncate":
        return data[:at]
    if kind == "not-utf8":
        return data[:at] + draw(NOT_UTF8) + data[at:]
    if kind == "bom":
        return draw(BOMS) + data
    if kind == "nest":
        head, tail = draw(NESTING)
        return head + data + tail
    if kind == "long-int":
        digits = draw(LONG_DIGITS)
        # a whole value of a count or the seed, or a run of digits anywhere
        if data.startswith(b"{") and data.rstrip().endswith(b"}") and draw(st.booleans()):
            key = draw(st.sampled_from([b"trials_per_pair", b"seed", b"traced_trials", b"q_outcome_width"]))
            body = data.rstrip()[1:-1].strip()
            return b"{" + body + (b", " if body else b"") + b'"' + key + b'": ' + digits + b"}"
        return data[:at] + digits + data[at:]
    return draw(st.binary(max_size=64))


def _cli(args) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    """Exit 0, or exit 1 with config errors only or the usage message; no traceback."""
    assert "Traceback" not in err, err
    assert code in (EXIT_OK, EXIT_CONFIG), err
    if code == EXIT_CONFIG:
        usage = err.startswith("usage: bellsim") and "bellsim: error: " in err
        assert usage or all(line.startswith("config error at ") for line in err.splitlines()), err


#: Valid config files, traced and sampled at the sizes of ``valid_configs``.
CONFIG_BYTES = VALID.map(lambda doc: json.dumps(doc).encode("utf-8"))


@hypothesis.settings(deadline=None, max_examples=60, derandomize=True)
@hypothesis.given(data=mutated_bytes(CONFIG_BYTES))
def test_config_bytes_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(data)
        _assert_clean_exit(*_cli([path, "-o", Path(tmp) / "out"]))


BEHAVIOR_BYTES = st.sampled_from([pr_box(), random_behavior(np.random.default_rng(3))]).map(
    lambda behavior: behavior_to_csv(behavior).encode("utf-8")
)


@hypothesis.settings(deadline=None, max_examples=40, derandomize=True)
@hypothesis.given(data=mutated_bytes(BEHAVIOR_BYTES))
def test_behavior_file_bytes_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        table, path = Path(tmp) / "behavior.csv", Path(tmp) / "cfg.json"
        table.write_bytes(data)
        doc = {"model": "custom", "behavior_file": str(table), "trials_per_pair": 5, "traced_trials": 2}
        path.write_text(json.dumps(doc), encoding="utf-8")
        _assert_clean_exit(*_cli([path, "-o", Path(tmp) / "out"]))


def _small_or_not_an_int(text: str) -> bool:
    """Flag text that ``int()`` does not read, or reads as a count too small or too large to sample long."""
    try:
        value = int(text)
    except ValueError:
        return True
    return value <= 50 or value >= 2**63


FLAG_TEXT = st.one_of(
    st.integers(-5, 50).map(str),
    st.integers(2**63, 2**200).map(str),
    st.sampled_from(["", " ", "abc", "1.5", "1e3", "0x10", "1_0", " 7 ", "-0", "٣", "nan", "--"]),
    st.text(max_size=6),
).filter(_small_or_not_an_int)

#: Flags no real flag starts with, so getopt cannot take one as an abbreviation.
UNKNOWN_FLAGS = st.one_of(
    st.text("abcdefgxyz-", max_size=5).map(lambda t: "--x" + t),
    st.sampled_from("abcdefgijklmnpqrstuwxyz").map(lambda c: "-" + c),
    st.sampled_from(["extra.json", "--", "-"]),
)

FLAG_ARGS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["--seed", "--trials"]), FLAG_TEXT),
        FLAG_TEXT.map(lambda t: ("--trials=" + t,)),
        UNKNOWN_FLAGS.map(lambda f: (f,)),
        st.sampled_from([("--seed",), ("--trials",)]),
    ),
    max_size=3,
).map(lambda groups: [arg for group in groups for arg in group])


@hypothesis.settings(deadline=None, max_examples=40, derandomize=True)
@hypothesis.given(flags=FLAG_ARGS)
def test_flag_text_exits_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"model": "pr-box", "trials_per_pair": 3, "traced_trials": 1}), encoding="utf-8")
        _assert_clean_exit(*_cli([path, "-o", Path(tmp) / "out", *flags]))
