"""Run configuration: JSON parsing, whole-file validation, derived builders.

A config describes one run end to end: the correlation model, the setting
grids and the four chosen pairs, trial counts and the master seed, the
geometry and stage times, measurement-uncertainty widths, and the mode flags.
Parsing reports *every* problem found, not just the first.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from functools import partial
from typing import NamedTuple

from .angles import Angle, setting_from_text, setting_text
from .errors import ConfigError, InvalidScheduleError, MissingDataError
from .models import (
    Behavior,
    ChshSettings,
    LhvModel,
    behavior_from_csv,
    lhv_behavior,
    optimal_singlet_settings,
    pr_box,
    pr_box_settings,
    singlet_behavior,
)
from .spacetime import Schedule, build_schedule

_SINGLET = optimal_singlet_settings()


class ExperimentConfig(NamedTuple):
    """One run.  The JSON bounds of its scalar fields are in ``_BOUNDS``."""

    model: str = "singlet"
    grid_a: tuple = _SINGLET.grids()[0]
    grid_b: tuple = _SINGLET.grids()[1]
    chsh: ChshSettings = _SINGLET
    trials_per_pair: int = 10000
    seed: int = 0
    # immutable, so every config can share the one default
    schedule: Schedule = build_schedule()
    q_setting_width: float = 0.0
    q_outcome_width: float = 0.0
    preset_settings: bool = False
    preset_pair: tuple | None = None
    unresolved_local_setting: bool = False
    traced_trials: int = 1
    keep_records: bool = True
    lhv: LhvModel | None = None
    behavior_file: str | None = None


#: Bytes read at most from the config file or a behavior file, each read as
#: ``read(INPUT_LIMIT + 1)`` so that an endless file is never read whole.
INPUT_LIMIT = 1 << 26


def decode_text(data: bytes, path: str) -> str:
    """``data`` as UTF-8 text with universal newlines, as a text-mode read gives it.

    Bytes that do not decode, or more than :data:`INPUT_LIMIT` of them, are a
    config error at ``path``.
    """
    if len(data) > INPUT_LIMIT:
        raise ConfigError([(path, f"file is larger than {INPUT_LIMIT} bytes")])
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([(path, f"not valid UTF-8: {exc}")]) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def build_model(config: ExperimentConfig) -> Behavior:
    """The configured behavior, built by the model's ``_MODELS`` entry alone."""
    if config.model not in _MODELS:
        raise ValueError(f"unknown model {config.model!r}")
    return _MODELS[config.model].build(config)


#: The scalar fields' JSON bounds: at least ``min``, and below ``below``.
_BOUNDS = {
    "trials_per_pair": {"min": 1}, "seed": {"min": 0, "below": 2**128},
    "q_setting_width": {"min": 0.0}, "q_outcome_width": {"min": 0.0},
    # about 3.7 kB of trace.json per default traced trial: the file stays under about 1 GB
    "traced_trials": {"min": 0, "below": 2**18},
}

#: JSON keys feeding ``build_schedule``: an object maps its keys to keyword
#: arguments; ``None`` passes a top-level number under its own name.
_SCHEDULE_KEYS = {
    "positions": {"a": "position_a", "b": "position_b", "source": "source_x"},
    "stage_times": {
        "prepare": "t_prepare",
        "setting": "t_setting",
        "detection": "t_detection",
        "communication": "t_communication",
    },
    "signal_speed": None,
    "c": None,
}

_KNOWN_KEYS = set(ExperimentConfig._fields) - {"schedule"} | set(_SCHEDULE_KEYS)


def _parse_setting(value, path, errors, fields):
    angles = _MODELS[fields["model"]].angles
    if isinstance(value, bool):
        errors.append((path, "setting must be an integer label or an angle string"))
        return None
    if isinstance(value, int):
        if angles:
            errors.append((path, "this model takes angle settings; write e.g. \"0\" or \"pi/4\""))
            return None
        return value
    if isinstance(value, str):
        try:
            return Angle.parse(value) if angles else setting_from_text(value)
        except ValueError as exc:
            errors.append((path, str(exc)))
            return None
    errors.append((path, f"setting must be an integer label or an angle string, got {value!r}"))
    return None


def _grid_errors(chsh: ChshSettings | None, preset_pair, trials_per_pair, grid_a, grid_b) -> list:
    """Chosen settings missing from the grids, written as output files write them, and trials reaching 2^63."""
    grids = {"grid_a": grid_a, "grid_b": grid_b}
    wanted = [("chsh.x0", chsh.x0, "grid_a"), ("chsh.x1", chsh.x1, "grid_a"),
              ("chsh.y0", chsh.y0, "grid_b"), ("chsh.y1", chsh.y1, "grid_b")] if chsh else []
    if preset_pair is not None:
        wanted += [("preset_pair[0]", preset_pair[0], "grid_a"), ("preset_pair[1]", preset_pair[1], "grid_b")]
    errors = [
        (path, f"setting {setting_text(value)} not in {name} ({', '.join(map(setting_text, grids[name]))})")
        for path, value, name in wanted
        if value not in grids[name]
    ]
    pairs = len(grid_a) * len(grid_b)
    if trials_per_pair is not None and trials_per_pair * pairs >= 2**63:
        errors.append(("trials_per_pair", f"{trials_per_pair} trials at each of {pairs} setting pairs reach 2^63"))
    return errors


def _members(value, path, names, errors, required=()) -> dict | None:
    """The object ``value``'s members in ``names``; None if it is not an object or is incomplete.

    Not an object, a missing ``required`` member and an unknown member are each an error at its own path.
    """
    if not isinstance(value, dict):
        errors.append((path, f"must be an object with {', '.join(names)}"))
        return None
    missing = [(f"{path}.{sub}", "missing") for sub in required if sub not in value]
    errors += missing
    errors += [(f"{path}.{sub}", "unknown key") for sub in sorted(set(value) - set(names))]
    return None if missing else {sub: value[sub] for sub in names if sub in value}


def _parse_settings(value, key, errors, fields, pair=False) -> tuple | None:
    """A grid, a non-empty list of distinct settings; with ``pair``, exactly two settings ``[x, y]``."""
    if not isinstance(value, list) or (len(value) != 2 if pair else not value):
        errors.append((key, "must be a two-element list [x, y]" if pair else "must be a non-empty list of settings"))
        return None
    out = tuple(_parse_setting(item, f"{key}[{i}]", errors, fields) for i, item in enumerate(value))
    if None in out:
        return None
    if not pair and len(set(out)) != len(out):
        errors.append((key, "settings must be distinct"))
        return None
    return out


def _parse_chsh(value, key, errors, fields) -> ChshSettings | None:
    members = _members(value, key, ChshSettings._fields, errors, required=ChshSettings._fields)
    if members is None:
        return None
    settings = {sub: _parse_setting(v, f"{key}.{sub}", errors, fields) for sub, v in members.items()}
    return None if None in settings.values() else ChshSettings(**settings)


def _parse_scalar(value, key, errors, fields=None, kind=None):
    """``value`` if it is a JSON ``kind`` within the key's ``_BOUNDS``, else None.

    ``kind`` is by default the type of the field's default.  An integer passes
    as a float, which must be finite: ``NaN`` passes every bound check, and
    ``1e400`` parses to infinity.
    """
    kind = kind or type(ExperimentConfig._field_defaults[key])
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            errors.append((key, "number too large"))
            return None
    if type(value) is not kind:
        errors.append((key, f"expected {kind.__name__}"))
        return None
    if kind is float and not math.isfinite(value):
        errors.append((key, f"must be finite, got {value}"))
        return None
    bounds = _BOUNDS.get(key, {})
    if "min" in bounds and value < bounds["min"]:
        errors.append((key, f"must be at least {bounds['min']}, got {value}"))
    elif "below" in bounds and value >= bounds["below"]:
        errors.append((key, f"must be below {bounds['below']}, got {value}"))
    return value


def _parse_schedule(value, key, errors, fields) -> Schedule | None:
    """The schedule that the document's schedule keys give, once they all read cleanly."""
    kwargs, start = {}, len(errors)
    for name, members in _SCHEDULE_KEYS.items():
        if name in value and members is None:
            kwargs[name] = _parse_scalar(value[name], name, errors, kind=float)
        elif name in value:
            for sub, member in (_members(value[name], name, members, errors) or {}).items():
                kwargs[members[sub]] = _parse_scalar(member, f"{name}.{sub}", errors, kind=float)
    # a default in place of a bad or misspelled value could fail where the document would not
    if len(errors) > start:
        return None
    try:
        return build_schedule(**kwargs)
    except InvalidScheduleError as exc:
        errors.append((exc.part, str(exc)))
        return None


def _parse_lhv(value, key, errors, fields) -> LhvModel | None:
    """Hidden-variable tables, each with one row per setting of its wing's grid."""
    tables = _members(value, key, LhvModel.TABLES + ("hidden",), errors, required=LhvModel.TABLES)
    if tables is None:
        return None
    try:
        lhv = LhvModel(
            tuple(tables["hidden"]) if "hidden" in tables else tuple(range(len(tables["prior"]))),
            tuple(tables["prior"]),
            tuple(tuple(map(tuple, x)) for x in tables["response_a"]),
            tuple(tuple(map(tuple, y)) for y in tables["response_b"]),
        )
    except (TypeError, ValueError) as exc:
        errors.append((key, f"bad hidden-variable tables: {exc}"))
        return None
    for table in LhvModel.TABLES:
        try:
            lhv.table(table)
        except (TypeError, ValueError) as exc:
            errors.append((f"{key}.{table}", f"bad hidden-variable table: {exc}"))
    for wing, grid, rows in (("a", fields["grid_a"], lhv.response_a), ("b", fields["grid_b"], lhv.response_b)):
        if grid and len(grid) != len(rows):
            errors.append((f"grid_{wing}", f"has {len(grid)} settings but {key}.response_{wing} has {len(rows)}"))
    return lhv


#: The parser of each key that every model reads, in the order errors are reported.
#: Each takes the key's JSON value, the key, the error list and the fields parsed
#: so far, and returns the key's field, or None after reporting an error.
_PARSERS = {
    "grid_a": _parse_settings,
    "grid_b": _parse_settings,
    "chsh": _parse_chsh,
    **{k: _parse_scalar for k, v in ExperimentConfig._field_defaults.items() if k in _BOUNDS or type(v) is bool},
    "schedule": _parse_schedule,
    "preset_pair": partial(_parse_settings, pair=True),
}


def _read_behavior_file(config: ExperimentConfig) -> Behavior:
    """A custom model's behavior, read from its file, whose grids must hold the chosen settings."""
    # open raises ValueError for a path with a NUL byte or a lone surrogate,
    # and csv raises csv.Error for a field past its size limit
    try:
        with open(config.behavior_file, "rb") as fh:
            behavior = behavior_from_csv(decode_text(fh.read(INPUT_LIMIT + 1), "behavior_file"))
    except (ValueError, MissingDataError, csv.Error) as exc:
        raise ConfigError([("behavior_file", str(exc))]) from exc
    errors = _grid_errors(config.chsh, config.preset_pair, config.trials_per_pair, behavior.grid_a, behavior.grid_b)
    if errors:
        raise ConfigError(errors)
    return behavior


#: Each model: whether its settings are angles rather than integer labels; its
#: default CHSH settings, whose grids are the default grids; the function that
#: builds its behavior from a config; the one key that only it reads, what that
#: key holds and the key's parser; and its grids: "free", "fixed" to the
#: defaults, or "file", read from that key's file.
_Model = namedtuple("_Model", "angles chsh build key holds parse grids", defaults=(None, "", None, "free"))
_MODELS = {
    "singlet": _Model(True, _SINGLET, lambda config: singlet_behavior(config.grid_a, config.grid_b)),
    "pr-box": _Model(False, pr_box_settings(), lambda config: pr_box(), grids="fixed"),
    "lhv": _Model(False, pr_box_settings(), lambda config: lhv_behavior(config.lhv, config.grid_a, config.grid_b),
                  "lhv", "hidden-variable tables", _parse_lhv),
    "custom": _Model(False, pr_box_settings(), _read_behavior_file, "behavior_file", "a behavior file path",
                     partial(_parse_scalar, kind=str), "file"),
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and fully validate a JSON config; raise with every error found.

    ``overrides`` maps top-level keys to values that replace the document's
    before anything is checked (the CLI's ``--seed`` and ``--trials``).  They
    pass the same checks as the file and are reported at the key's path; a
    file value they replace is never read, so it is not checked either.
    """
    try:
        raw = json.loads(text)
    # a malformed document, too deep a nesting, or an integer literal too long to convert
    except (ValueError, RecursionError) as exc:
        raise ConfigError([("", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be a JSON object")])
    raw.update(overrides or {})

    errors = [(key, "unknown key") for key in sorted(set(raw) - _KNOWN_KEYS)]
    name = raw.get("model", "singlet")
    if not isinstance(name, str) or name not in _MODELS:
        errors.append(("model", f"must be one of {tuple(_MODELS)}"))
        name = "singlet"
    model = _MODELS[name]

    # the model's default settings and grids stand until the document replaces them,
    # and the schedule keys parse together into the one field they make
    fields = {"model": name, "chsh": model.chsh}
    fields["grid_a"], fields["grid_b"] = model.chsh.grids()
    raw["schedule"] = {key: raw.pop(key) for key in _SCHEDULE_KEYS if key in raw}
    for key, parse in _PARSERS.items():
        if key in raw:
            fields[key] = parse(raw[key], key, errors, fields)
    if "preset_pair" in raw and not fields.get("preset_settings"):
        errors.append(("preset_pair", "has no effect unless preset_settings is true"))
    for owner, spec in _MODELS.items():
        if spec.key in raw and owner != name:
            errors.append((spec.key, f"only meaningful for model {owner!r}, not {name!r}"))
        elif spec.key in raw:
            fields[spec.key] = spec.parse(raw[spec.key], spec.key, errors, fields)
        elif owner == name and spec.key:
            errors.append((spec.key, f"model {owner!r} needs {spec.holds}"))

    # cross-field checks; a file's grids are checked once build_model reads it
    grid_a, grid_b = fields["grid_a"], fields["grid_b"]
    if model.grids == "file":
        errors += [(key, f"a {name} model takes its grids from {model.key}")
                   for key in ("grid_a", "grid_b") if key in raw]
    elif grid_a and grid_b:
        # a chsh that did not parse has no settings to check
        trials = fields.get("trials_per_pair")
        errors += _grid_errors(fields["chsh"], fields.get("preset_pair"), trials, grid_a, grid_b)
    # the binary-grid rule checks only the grids that parsed, each at its own key
    fixed = zip(("grid_a", "grid_b"), (grid_a, grid_b), model.chsh.grids()) if model.grids == "fixed" else ()
    errors += [(key, f"the {name} model requires binary grids [0, 1]") for key, g, d in fixed if g not in (None, d)]

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**fields)
