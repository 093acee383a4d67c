"""Flat key=value configuration covering every tunable threshold.

``_KEYS`` is the one list of keys: each row names the key's parser, its
validator and the field of ``PipelineConfig`` it sets, and both parsing and
dumping read it. Unknown keys are rejected, missing keys fall back to
defaults, and the effective configuration can be serialized back out so a
run's exact settings travel with its results. Per-class keys use the class
name ('car', 'pedestrian') as the middle path segment, e.g.::

    tracker.pedestrian.n1_seconds=0.2
    reid.beta3=0.8
    filter.car.aspect_lo=0.2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError, ParseError
from .formats import text_lines
from .postfilter import FilterConfig
from .reid import CAMERA_MODES, ReidConfig
from .tracker import CAR, CLASS_NAMES, PEDESTRIAN, TrackerConfig


@dataclass
class PipelineConfig:
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    reid: ReidConfig = field(default_factory=ReidConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _plain(raw: str) -> str:
    """``raw``, or ValueError for what ``int()`` and ``float()`` accept but a
    config number is not: a ``_`` digit separator or a leading ``+``."""
    if "_" in raw or raw.startswith("+"):
        raise ValueError(raw)
    return raw


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(_plain(raw))
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(_plain(raw))
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_camera(key: str, raw: str) -> str:
    val = raw.strip()
    if val not in CAMERA_MODES + ("auto",):
        raise ConfigError(f"{key}: must be static, moving or auto, got {raw!r}")
    return val


def _rejecting(bad, rule: str):
    """A validator that raises ConfigError when ``bad(value)`` holds."""

    def check(key, v):
        if bad(v):
            raise ConfigError(f"{key}: {rule}, got {v}")

    return check


def _at_least(n):
    return _rejecting(lambda v: v < n, f"must be >= {n}")


_positive = _rejecting(lambda v: v <= 0, "must be positive")
_unit_interval_open = _rejecting(lambda v: not 0.0 < v < 1.0, "must lie in (0, 1)")
_unit_interval_closed = _rejecting(lambda v: not 0.0 <= v <= 1.0, "must lie in [0, 1]")
_gate_range = _rejecting(lambda v: not 0.0 < v <= 3.0, "must lie in (0, 3]")
_no_check = _rejecting(lambda v: False, "")


# The single list of config keys: key -> (parser, validator, location).
# A location is (section, field) in PipelineConfig, plus the class id for a
# per-class dict, plus 0 (lo) or 1 (hi) for an aspect-ratio range.
_KEYS = {
    "tracker.fps": (_parse_float, _positive, ("tracker", "fps")),
    "tracker.car.n1_seconds": (_parse_float, _positive, ("tracker", "n1_seconds", CAR)),
    "tracker.pedestrian.n1_seconds":
        (_parse_float, _positive, ("tracker", "n1_seconds", PEDESTRIAN)),
    "tracker.car.gate_cost": (_parse_float, _gate_range, ("tracker", "gate_cost", CAR)),
    "tracker.pedestrian.gate_cost":
        (_parse_float, _gate_range, ("tracker", "gate_cost", PEDESTRIAN)),
    "tracker.huber_delta": (_parse_float, _positive, ("tracker", "huber_delta")),
    "tracker.huber_window": (_parse_int, _at_least(2), ("tracker", "huber_window")),
    "tracker.str_distance_factor":
        (_parse_float, _positive, ("tracker", "str_distance_factor")),
    "tracker.bank_size": (_parse_int, _at_least(1), ("tracker", "bank_size")),
    "tracker.str_enabled": (_parse_bool, _no_check, ("tracker", "str_enabled")),
    "reid.enabled": (_parse_bool, _no_check, ("reid", "enabled")),
    "reid.car.n2_seconds": (_parse_float, _positive, ("reid", "n2_seconds", CAR)),
    "reid.pedestrian.n2_seconds":
        (_parse_float, _positive, ("reid", "n2_seconds", PEDESTRIAN)),
    "reid.n3_frames": (_parse_int, _at_least(1), ("reid", "n3_frames")),
    "reid.beta1": (_parse_float, _unit_interval_open, ("reid", "beta1")),
    "reid.beta2": (_parse_float, _unit_interval_open, ("reid", "beta2")),
    "reid.beta3": (_parse_float, _unit_interval_open, ("reid", "beta3")),
    "reid.camera_mode": (_parse_camera, _no_check, ("reid", "camera_mode")),
    "filter.min_score": (_parse_float, _unit_interval_closed, ("filters", "min_score")),
    "filter.min_box_area": (_parse_float, _at_least(0), ("filters", "min_box_area")),
    "filter.car.aspect_lo":
        (_parse_float, _positive, ("filters", "aspect_ratio_range", CAR, 0)),
    "filter.car.aspect_hi":
        (_parse_float, _positive, ("filters", "aspect_ratio_range", CAR, 1)),
    "filter.pedestrian.aspect_lo":
        (_parse_float, _positive, ("filters", "aspect_ratio_range", PEDESTRIAN, 0)),
    "filter.pedestrian.aspect_hi":
        (_parse_float, _positive, ("filters", "aspect_ratio_range", PEDESTRIAN, 1)),
    "filter.min_track_len": (_parse_int, _at_least(1), ("filters", "min_track_len")),
    "filter.min_track_avg_score":
        (_parse_float, _unit_interval_closed, ("filters", "min_track_avg_score")),
    "filter.traj_iou_threshold":
        (_parse_float, _unit_interval_open, ("filters", "traj_iou_threshold")),
}


def _get(cfg: PipelineConfig, path: tuple):
    section, name, *index = path
    value = getattr(getattr(cfg, section), name)
    for i in index:
        value = value[i]
    return value


def _set(cfg: PipelineConfig, path: tuple, value):
    section, name, *index = path
    owner = getattr(cfg, section)
    if len(index) == 2:  # one end of a (lo, hi) range: rebuild the tuple
        class_id, end = index
        pair = list(getattr(owner, name)[class_id])
        pair[end] = value
        index, value = [class_id], tuple(pair)
    if index:
        getattr(owner, name)[index[0]] = value
    else:
        setattr(owner, name, value)


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse key=value lines into a validated configuration.

    ``text`` is split at ``\\n`` only, so a form feed or ``\\x85`` does not
    start a line. :func:`load_config` reads a file through
    :func:`formats.text_lines`, whose universal newlines end a line at
    ``\\r\\n`` or a lone ``\\r`` too, so there a lone ``\\r`` also starts a
    line. A bad line raises ConfigError naming ``source`` and the line.
    """
    cfg = PipelineConfig()
    for lineno, rawline in enumerate(text.split("\n"), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        parser, validate, path = _KEYS[key]
        try:
            value = parser(key, raw.strip())
            validate(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        _set(cfg, path, value)
    for class_id, (lo, hi) in cfg.filters.aspect_ratio_range.items():
        if lo >= hi:
            raise ConfigError(
                f"{source}: filter.{CLASS_NAMES[class_id]} aspect range: lo {lo} must be < hi {hi}"
            )
    return cfg


def load_config(path: str | None) -> PipelineConfig:
    """Read a config file; None or a missing value keeps every default.

    A byte that is not ASCII raises ConfigError naming its line.
    """
    if path is None:
        return PipelineConfig()
    try:
        text = "".join(line for _, line in text_lines(path, "ascii"))
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config_text(text, source=str(path))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: PipelineConfig) -> str:
    """Serialize every effective value, one key per line, sorted."""
    lines = [f"{key}={_fmt(_get(cfg, path))}" for key, (_, _, path) in sorted(_KEYS.items())]
    return "\n".join(lines) + "\n"


def save_config(cfg: PipelineConfig, path: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_config(cfg))


def resolve_for_sequence(cfg: PipelineConfig, fps: float, camera_mode: str) -> PipelineConfig:
    """Bind per-sequence facts: the frame rate and, if on auto, the camera mode."""
    reid = cfg.reid
    if reid.camera_mode == "auto":
        reid = replace(reid, camera_mode=camera_mode)
    return replace(cfg, tracker=replace(cfg.tracker, fps=fps), reid=reid)
