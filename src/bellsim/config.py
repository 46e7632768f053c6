"""Run configuration: JSON parsing, whole-file validation, derived builders.

A config describes one run end to end: the correlation model, the setting
grids and the four chosen pairs, trial counts and the master seed, the
geometry and stage times, measurement-uncertainty widths, and the mode flags.
Parsing reports *every* problem found, not just the first.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields

from .angles import Angle, setting_from_text
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One run.  Scalar fields carry their JSON bounds as ``min``/``below`` metadata."""

    model: str = "singlet"
    grid_a: tuple = _SINGLET.grids()[0]
    grid_b: tuple = _SINGLET.grids()[1]
    chsh: ChshSettings = _SINGLET
    trials_per_pair: int = field(default=10000, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0, "below": 2**128})
    schedule: Schedule = field(default_factory=build_schedule)
    q_setting_width: float = field(default=0.0, metadata={"min": 0.0})
    q_outcome_width: float = field(default=0.0, metadata={"min": 0.0})
    preset_settings: bool = False
    preset_pair: tuple | None = None
    unresolved_local_setting: bool = False
    workers: int = field(default=1, metadata={"min": 1})
    traced_trials: int = field(default=1, metadata={"min": 0})
    keep_records: bool = True
    lhv: LhvModel | None = None
    behavior_file: str | None = None


def build_model(config: ExperimentConfig) -> Behavior:
    if config.model == "singlet":
        return singlet_behavior(config.grid_a, config.grid_b)
    if config.model == "pr-box":
        return pr_box()
    if config.model == "lhv":
        return lhv_behavior(config.lhv, config.grid_a, config.grid_b)
    if config.model == "custom":
        with open(config.behavior_file, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return behavior_from_csv(text)
        except (ValueError, MissingDataError) as exc:
            raise ConfigError([("behavior_file", str(exc))]) from exc
    raise ValueError(f"unknown model {config.model!r}")


#: Fields parsed by one loop: JSON type from the default, bounds from metadata.
_SCALARS = {f.name: f for f in fields(ExperimentConfig) if type(f.default) in (bool, int, float)}

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

_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"schedule"} | set(_SCHEDULE_KEYS)


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
    """``value`` if it is a JSON ``kind`` (an integer passes as a float), else None."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            errors.append((path, "number too large"))
            return None
    if type(value) is kind:
        return value
    errors.append((path, f"expected {kind.__name__}"))
    return None


def _bound_errors(name: str, value, path: str) -> list:
    meta = _SCALARS[name].metadata
    if "min" in meta and value < meta["min"]:
        return [(path, f"must be at least {meta['min']}, got {value}")]
    if "below" in meta and value >= meta["below"]:
        return [(path, f"must be below {meta['below']}, got {value}")]
    return []


def _parse_schedule(raw, errors) -> Schedule | None:
    kwargs = {}
    for key, names in _SCHEDULE_KEYS.items():
        if key not in raw:
            continue
        if names is None:
            kwargs[key] = _typed(raw[key], float, key, errors)
        elif not isinstance(raw[key], dict):
            errors.append((key, f"must be an object with {', '.join(names)}"))
        else:
            for sub in sorted(set(raw[key]) - set(names)):
                errors.append((f"{key}.{sub}", "unknown key"))
            for sub, name in names.items():
                if sub in raw[key]:
                    kwargs[name] = _typed(raw[key][sub], float, f"{key}.{sub}", errors)
    try:
        return build_schedule(**{k: v for k, v in kwargs.items() if v is not None})
    except InvalidScheduleError as exc:
        errors.append(("stage_times", str(exc)))
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON config; raise with every error found."""
    errors: list = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be a JSON object")])

    for key in sorted(set(raw) - _KNOWN_KEYS):
        errors.append((key, "unknown key"))

    model = raw.get("model", "singlet")
    if model not in MODEL_CHOICES:
        errors.append(("model", f"must be one of {MODEL_CHOICES}"))
        model = "singlet"

    # model-appropriate grid and settings defaults; the singlet takes angles
    angles = model == "singlet"
    chsh = optimal_singlet_settings() if angles else pr_box_settings()
    grid_a, grid_b = chsh.grids()
    if "grid_a" in raw:
        grid_a = _parse_grid(raw["grid_a"], "grid_a", errors, angles)
    if "grid_b" in raw:
        grid_b = _parse_grid(raw["grid_b"], "grid_b", errors, angles)

    if "chsh" in raw:
        if not isinstance(raw["chsh"], dict):
            errors.append(("chsh", "must be an object with x0, x1, y0, y1"))
        else:
            vals = {}
            for k in ("x0", "x1", "y0", "y1"):
                if k not in raw["chsh"]:
                    errors.append((f"chsh.{k}", "missing"))
                else:
                    vals[k] = _parse_setting(raw["chsh"][k], f"chsh.{k}", errors, angles)
            for k in sorted(set(raw["chsh"]) - {"x0", "x1", "y0", "y1"}):
                errors.append((f"chsh.{k}", "unknown key"))
            if len(vals) == 4 and all(v is not None for v in vals.values()):
                chsh = ChshSettings(**vals)

    scalars = {}
    for name, f in _SCALARS.items():
        if name in raw:
            value = _typed(raw[name], type(f.default), name, errors)
            if value is not None:
                errors += _bound_errors(name, value, name)
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

    lhv = None
    if model == "lhv":
        if "lhv" not in raw:
            errors.append(("lhv", "model 'lhv' needs hidden-variable tables"))
        elif not isinstance(raw["lhv"], dict):
            errors.append(("lhv", "must be an object"))
        else:
            tables = raw["lhv"]
            try:
                hidden = tuple(tables["hidden"]) if "hidden" in tables else tuple(range(len(tables["prior"])))
                lhv = LhvModel(
                    hidden,
                    tuple(tables["prior"]),
                    tuple(tuple(map(tuple, x)) for x in tables["response_a"]),
                    tuple(tuple(map(tuple, y)) for y in tables["response_b"]),
                )
                lhv.arrays()
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(("lhv", f"bad hidden-variable tables: {exc}"))
                lhv = None
    elif "lhv" in raw:
        errors.append(("lhv", f"only meaningful for model 'lhv', not {model!r}"))

    behavior_file = None
    if model == "custom":
        if "behavior_file" in raw:
            behavior_file = _typed(raw["behavior_file"], str, "behavior_file", errors)
        else:
            errors.append(("behavior_file", "model 'custom' needs a behavior file path"))
    elif "behavior_file" in raw:
        errors.append(("behavior_file", f"only meaningful for model 'custom', not {model!r}"))

    # cross-field checks
    if grid_a and grid_b and model != "custom":
        for name, value, grid in (
            ("chsh.x0", chsh.x0, grid_a),
            ("chsh.x1", chsh.x1, grid_a),
            ("chsh.y0", chsh.y0, grid_b),
            ("chsh.y1", chsh.y1, grid_b),
        ):
            if value not in grid:
                errors.append((name, f"setting {value!r} not in the corresponding grid"))
        if preset_pair is not None:
            if preset_pair[0] not in grid_a:
                errors.append(("preset_pair[0]", f"{preset_pair[0]!r} not in grid_a"))
            if preset_pair[1] not in grid_b:
                errors.append(("preset_pair[1]", f"{preset_pair[1]!r} not in grid_b"))
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


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Replace scalar fields under the same bounds as the JSON.

    ``overrides`` maps a field name to ``(path, value)``; a ``None`` value
    leaves the field alone, and a bad value is reported at ``path``.
    """
    errors: list = []
    values = {}
    for name, (path, value) in overrides.items():
        if value is not None:
            errors += _bound_errors(name, value, path)
            values[name] = value
    if errors:
        raise ConfigError(errors)
    return dataclasses.replace(config, **values)
