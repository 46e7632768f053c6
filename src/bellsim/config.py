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

MODEL_CHOICES = ("singlet", "pr-box", "lhv", "custom")
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
    workers: int = 1
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
    """The configured behavior; a custom file's grids must hold the chosen settings."""
    if config.model == "singlet":
        return singlet_behavior(config.grid_a, config.grid_b)
    if config.model == "pr-box":
        return pr_box()
    if config.model == "lhv":
        return lhv_behavior(config.lhv, config.grid_a, config.grid_b)
    if config.model == "custom":
        # open raises ValueError for a path with a NUL byte or a lone surrogate,
        # and csv raises csv.Error for a field past its size limit
        try:
            with open(config.behavior_file, "rb") as fh:
                behavior = behavior_from_csv(decode_text(fh.read(INPUT_LIMIT + 1), "behavior_file"))
        except (ValueError, MissingDataError, csv.Error) as exc:
            raise ConfigError([("behavior_file", str(exc))]) from exc
        errors = _grid_errors(config.chsh, config.preset_pair, behavior.grid_a, behavior.grid_b)
        errors += _count_errors(config.trials_per_pair, behavior.grid_a, behavior.grid_b)
        if errors:
            raise ConfigError(errors)
        return behavior
    raise ValueError(f"unknown model {config.model!r}")


#: Fields parsed by one loop, each with the JSON type of its default.
_SCALARS = {k: type(v) for k, v in ExperimentConfig._field_defaults.items() if type(v) in (bool, int, float)}

#: The scalar fields' JSON bounds: at least ``min``, and below ``below``.
_BOUNDS = {
    "trials_per_pair": {"min": 1}, "seed": {"min": 0, "below": 2**128}, "workers": {"min": 1},
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


def _parse_setting(value, path, errors, angles: bool):
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


def _parse_grid(raw, path, errors, angles: bool):
    if not isinstance(raw, list) or not raw:
        errors.append((path, "must be a non-empty list of settings"))
        return None
    out = []
    for i, item in enumerate(raw):
        v = _parse_setting(item, f"{path}[{i}]", errors, angles)
        if v is not None:
            out.append(v)
    if len(out) != len(raw):
        return None
    if len(set(out)) != len(out):
        errors.append((path, "settings must be distinct"))
        return None
    return tuple(out)


def _typed(value, kind, path, errors):
    """``value`` if it is a JSON ``kind`` (an integer passes as a float), else None.

    A float must be finite: ``NaN`` passes every bound check, and ``1e400``
    parses to infinity.
    """
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            errors.append((path, "number too large"))
            return None
    if type(value) is kind:
        if kind is float and not math.isfinite(value):
            errors.append((path, f"must be finite, got {value}"))
            return None
        return value
    errors.append((path, f"expected {kind.__name__}"))
    return None


def _bound_errors(name: str, value) -> list:
    meta = _BOUNDS.get(name, {})
    if "min" in meta and value < meta["min"]:
        return [(name, f"must be at least {meta['min']}, got {value}")]
    if "below" in meta and value >= meta["below"]:
        return [(name, f"must be below {meta['below']}, got {value}")]
    return []


def _count_errors(trials_per_pair: int, grid_a, grid_b) -> list:
    """A run's trials must stay below 2^63, the limit of its ``int64`` counts."""
    pairs = len(grid_a) * len(grid_b)
    if trials_per_pair * pairs < 2**63:
        return []
    return [("trials_per_pair", f"{trials_per_pair} trials at each of {pairs} setting pairs reach 2^63")]


def _grid_errors(chsh: ChshSettings, preset_pair, grid_a, grid_b) -> list:
    """The chosen CHSH settings and preset pair missing from the grids, written as output files write them."""
    grids = {"grid_a": grid_a, "grid_b": grid_b}
    wanted = [("chsh.x0", chsh.x0, "grid_a"), ("chsh.x1", chsh.x1, "grid_a"),
              ("chsh.y0", chsh.y0, "grid_b"), ("chsh.y1", chsh.y1, "grid_b")]
    if preset_pair is not None:
        wanted += [("preset_pair[0]", preset_pair[0], "grid_a"), ("preset_pair[1]", preset_pair[1], "grid_b")]
    return [
        (path, f"setting {setting_text(value)} not in {name} ({', '.join(map(setting_text, grids[name]))})")
        for path, value, name in wanted
        if value not in grids[name]
    ]


def _members(raw, key, names, errors, required=()) -> dict | None:
    """The object ``raw[key]``'s members in ``names``; None if it is absent, not an object or incomplete.

    Not an object, a missing ``required`` member and an unknown member are each an error at its own path.
    """
    if key not in raw:
        return None
    value = raw[key]
    if not isinstance(value, dict):
        errors.append((key, f"must be an object with {', '.join(names)}"))
        return None
    missing = [(f"{key}.{sub}", "missing") for sub in required if sub not in value]
    errors += missing
    errors += [(f"{key}.{sub}", "unknown key") for sub in sorted(set(value) - set(names))]
    return None if missing else {sub: value[sub] for sub in names if sub in value}


def _parse_schedule(raw, errors) -> Schedule | None:
    kwargs = {}
    for key, names in _SCHEDULE_KEYS.items():
        if key not in raw:
            continue
        if names is None:
            kwargs[key] = _typed(raw[key], float, key, errors)
        else:
            for sub, value in (_members(raw, key, names, errors) or {}).items():
                kwargs[names[sub]] = _typed(value, float, f"{key}.{sub}", errors)
    try:
        return build_schedule(**{k: v for k, v in kwargs.items() if v is not None})
    except InvalidScheduleError as exc:
        errors.append(("stage_times", str(exc)))
        return None


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and fully validate a JSON config; raise with every error found.

    ``overrides`` maps top-level keys to values that replace the document's
    before anything is checked (the CLI's ``--seed`` and ``--trials``).  They
    pass the same checks as the file and are reported at the key's path; a
    file value they replace is never read, so it is not checked either.
    """
    errors: list = []
    try:
        raw = json.loads(text)
    # a malformed document, too deep a nesting, or an integer literal too long to convert
    except (ValueError, RecursionError) as exc:
        raise ConfigError([("", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be a JSON object")])
    raw.update(overrides or {})

    for key in sorted(set(raw) - _KNOWN_KEYS):
        errors.append((key, "unknown key"))

    model = raw.get("model", "singlet")
    if model not in MODEL_CHOICES:
        errors.append(("model", f"must be one of {MODEL_CHOICES}"))
        model = "singlet"

    # model-appropriate grid and settings defaults; the singlet takes angles
    angles = model == "singlet"
    chsh = _SINGLET if angles else pr_box_settings()
    grid_a, grid_b = chsh.grids()
    if "grid_a" in raw:
        grid_a = _parse_grid(raw["grid_a"], "grid_a", errors, angles)
    if "grid_b" in raw:
        grid_b = _parse_grid(raw["grid_b"], "grid_b", errors, angles)

    members = _members(raw, "chsh", ChshSettings._fields, errors, required=ChshSettings._fields)
    if members is not None:
        vals = {k: _parse_setting(v, f"chsh.{k}", errors, angles) for k, v in members.items()}
        if None not in vals.values():
            chsh = ChshSettings(**vals)

    scalars = {}
    for name, kind in _SCALARS.items():
        if name in raw:
            value = _typed(raw[name], kind, name, errors)
            if value is not None:
                errors += _bound_errors(name, value)
                scalars[name] = value

    schedule = _parse_schedule(raw, errors)

    preset_pair = None
    if "preset_pair" in raw:
        if not isinstance(raw["preset_pair"], list) or len(raw["preset_pair"]) != 2:
            errors.append(("preset_pair", "must be a two-element list [x, y]"))
        else:
            px = _parse_setting(raw["preset_pair"][0], "preset_pair[0]", errors, angles)
            py = _parse_setting(raw["preset_pair"][1], "preset_pair[1]", errors, angles)
            if px is not None and py is not None:
                preset_pair = (px, py)
        if not scalars.get("preset_settings", False):
            errors.append(("preset_pair", "has no effect unless preset_settings is true"))

    lhv = None
    if model == "lhv":
        if "lhv" not in raw:
            errors.append(("lhv", "model 'lhv' needs hidden-variable tables"))
        elif (tables := _members(raw, "lhv", LhvModel.TABLES + ("hidden",), errors,
                                 required=LhvModel.TABLES)) is not None:
            try:
                hidden = tuple(tables["hidden"]) if "hidden" in tables else tuple(range(len(tables["prior"])))
                lhv = LhvModel(
                    hidden,
                    tuple(tables["prior"]),
                    tuple(tuple(map(tuple, x)) for x in tables["response_a"]),
                    tuple(tuple(map(tuple, y)) for y in tables["response_b"]),
                )
            except (TypeError, ValueError) as exc:
                errors.append(("lhv", f"bad hidden-variable tables: {exc}"))
            else:
                for field in LhvModel.TABLES:
                    try:
                        lhv.table(field)
                    except (TypeError, ValueError) as exc:
                        errors.append((f"lhv.{field}", f"bad hidden-variable table: {exc}"))
                for wing, grid, rows in (("a", grid_a, lhv.response_a), ("b", grid_b, lhv.response_b)):
                    if grid and len(grid) != len(rows):
                        reason = f"has {len(grid)} settings but lhv.response_{wing} has {len(rows)}"
                        errors.append((f"grid_{wing}", reason))
    elif "lhv" in raw:
        errors.append(("lhv", f"only meaningful for model 'lhv', not {model!r}"))

    behavior_file = None
    if model == "custom":
        if "behavior_file" in raw:
            behavior_file = _typed(raw["behavior_file"], str, "behavior_file", errors)
        else:
            errors.append(("behavior_file", "model 'custom' needs a behavior file path"))
        errors += [(k, "a custom model takes its grids from behavior_file")
                   for k in ("grid_a", "grid_b") if k in raw]
    elif "behavior_file" in raw:
        errors.append(("behavior_file", f"only meaningful for model 'custom', not {model!r}"))

    # cross-field checks; a custom model's grids are checked once its file is read
    if grid_a and grid_b and model != "custom":
        errors += _grid_errors(chsh, preset_pair, grid_a, grid_b)
        if "trials_per_pair" in scalars:
            errors += _count_errors(scalars["trials_per_pair"], grid_a, grid_b)
    if model == "pr-box" and (grid_a, grid_b) != pr_box_settings().grids():
        errors.append(("grid_a", "the pr-box model requires binary grids [0, 1]"))

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        model=model,
        grid_a=grid_a,
        grid_b=grid_b,
        chsh=chsh,
        schedule=schedule,
        preset_pair=preset_pair,
        lhv=lhv,
        behavior_file=behavior_file,
        **scalars,
    )
