"""Flat key=value configuration covering every tunable threshold.

Unknown keys are rejected, missing keys fall back to defaults, and the
effective configuration can be serialized back out so a run's exact settings
travel with its results. Per-class keys use the class name ('car',
'pedestrian') as the middle path segment, e.g.::

    tracker.pedestrian.n1_seconds=0.2
    reid.beta3=0.8
    filter.car.aspect_lo=0.2
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigRangeError, ConfigTypeError, UnknownConfigKey
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
    raise ConfigTypeError(f"{key}: expected a boolean, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigTypeError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigTypeError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_camera(key: str, raw: str) -> str:
    val = raw.strip()
    if val not in CAMERA_MODES + ("auto",):
        raise ConfigRangeError(f"{key}: must be static, moving or auto, got {raw!r}")
    return val


# key -> (parser, validator); validators raise ConfigRangeError
def _positive(key, v):
    if v <= 0:
        raise ConfigRangeError(f"{key}: must be positive, got {v}")


def _unit_interval_open(key, v):
    if not (0.0 < v < 1.0):
        raise ConfigRangeError(f"{key}: must lie in (0, 1), got {v}")


def _unit_interval_closed(key, v):
    if not (0.0 <= v <= 1.0):
        raise ConfigRangeError(f"{key}: must lie in [0, 1], got {v}")


def _gate_range(key, v):
    if not (0.0 < v <= 3.0):
        raise ConfigRangeError(f"{key}: must lie in (0, 3], got {v}")


def _at_least(n):
    def check(key, v):
        if v < n:
            raise ConfigRangeError(f"{key}: must be >= {n}, got {v}")

    return check


def _no_check(key, v):
    pass


_SCHEMA = {
    "tracker.fps": (_parse_float, _positive),
    "tracker.car.n1_seconds": (_parse_float, _positive),
    "tracker.pedestrian.n1_seconds": (_parse_float, _positive),
    "tracker.car.gate_cost": (_parse_float, _gate_range),
    "tracker.pedestrian.gate_cost": (_parse_float, _gate_range),
    "tracker.huber_delta": (_parse_float, _positive),
    "tracker.huber_window": (_parse_int, _at_least(2)),
    "tracker.str_distance_factor": (_parse_float, _positive),
    "tracker.bank_size": (_parse_int, _at_least(1)),
    "tracker.str_enabled": (_parse_bool, _no_check),
    "reid.enabled": (_parse_bool, _no_check),
    "reid.car.n2_seconds": (_parse_float, _positive),
    "reid.pedestrian.n2_seconds": (_parse_float, _positive),
    "reid.n3_frames": (_parse_int, _at_least(1)),
    "reid.beta1": (_parse_float, _unit_interval_open),
    "reid.beta2": (_parse_float, _unit_interval_open),
    "reid.beta3": (_parse_float, _unit_interval_open),
    "reid.camera_mode": (_parse_camera, _no_check),
    "filter.min_score": (_parse_float, _unit_interval_closed),
    "filter.min_box_area": (_parse_float, _at_least(0)),
    "filter.car.aspect_lo": (_parse_float, _positive),
    "filter.car.aspect_hi": (_parse_float, _positive),
    "filter.pedestrian.aspect_lo": (_parse_float, _positive),
    "filter.pedestrian.aspect_hi": (_parse_float, _positive),
    "filter.min_track_len": (_parse_int, _at_least(1)),
    "filter.min_track_avg_score": (_parse_float, _unit_interval_closed),
    "filter.traj_iou_threshold": (_parse_float, _unit_interval_open),
}


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse key=value lines into a validated configuration."""
    values: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigTypeError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise UnknownConfigKey(f"{source}:{lineno}: unknown key {key!r}")
        parser, validate = _SCHEMA[key]
        value = parser(key, raw.strip())
        validate(key, value)
        values[key] = value
    return _assemble(values)


def load_config(path: str | None) -> PipelineConfig:
    """Read a config file; None or a missing value keeps every default."""
    if path is None:
        return PipelineConfig()
    with open(path, "r", encoding="ascii") as fh:
        return parse_config_text(fh.read(), source=str(path))


def _assemble(values: dict[str, object]) -> PipelineConfig:
    cfg = PipelineConfig()

    def take(key, default):
        return values.get(key, default)

    tracker = TrackerConfig(
        fps=take("tracker.fps", cfg.tracker.fps),
        n1_seconds={
            CAR: take("tracker.car.n1_seconds", cfg.tracker.n1_seconds[CAR]),
            PEDESTRIAN: take(
                "tracker.pedestrian.n1_seconds", cfg.tracker.n1_seconds[PEDESTRIAN]
            ),
        },
        gate_cost={
            CAR: take("tracker.car.gate_cost", cfg.tracker.gate_cost[CAR]),
            PEDESTRIAN: take(
                "tracker.pedestrian.gate_cost", cfg.tracker.gate_cost[PEDESTRIAN]
            ),
        },
        huber_delta=take("tracker.huber_delta", cfg.tracker.huber_delta),
        huber_window=take("tracker.huber_window", cfg.tracker.huber_window),
        str_distance_factor=take(
            "tracker.str_distance_factor", cfg.tracker.str_distance_factor
        ),
        bank_size=take("tracker.bank_size", cfg.tracker.bank_size),
        str_enabled=take("tracker.str_enabled", cfg.tracker.str_enabled),
    )
    reid = ReidConfig(
        n2_seconds={
            CAR: take("reid.car.n2_seconds", cfg.reid.n2_seconds[CAR]),
            PEDESTRIAN: take(
                "reid.pedestrian.n2_seconds", cfg.reid.n2_seconds[PEDESTRIAN]
            ),
        },
        n3_frames=take("reid.n3_frames", cfg.reid.n3_frames),
        beta1=take("reid.beta1", cfg.reid.beta1),
        beta2=take("reid.beta2", cfg.reid.beta2),
        beta3=take("reid.beta3", cfg.reid.beta3),
        camera_mode=take("reid.camera_mode", cfg.reid.camera_mode),
        enabled=take("reid.enabled", cfg.reid.enabled),
    )
    filters = FilterConfig(
        min_score=take("filter.min_score", cfg.filters.min_score),
        min_box_area=take("filter.min_box_area", cfg.filters.min_box_area),
        aspect_ratio_range={
            CAR: (
                take("filter.car.aspect_lo", cfg.filters.aspect_ratio_range[CAR][0]),
                take("filter.car.aspect_hi", cfg.filters.aspect_ratio_range[CAR][1]),
            ),
            PEDESTRIAN: (
                take(
                    "filter.pedestrian.aspect_lo",
                    cfg.filters.aspect_ratio_range[PEDESTRIAN][0],
                ),
                take(
                    "filter.pedestrian.aspect_hi",
                    cfg.filters.aspect_ratio_range[PEDESTRIAN][1],
                ),
            ),
        },
        min_track_len=take("filter.min_track_len", cfg.filters.min_track_len),
        min_track_avg_score=take(
            "filter.min_track_avg_score", cfg.filters.min_track_avg_score
        ),
        traj_iou_threshold=take(
            "filter.traj_iou_threshold", cfg.filters.traj_iou_threshold
        ),
    )
    for class_id, rng in filters.aspect_ratio_range.items():
        if rng[0] >= rng[1]:
            raise ConfigRangeError(
                f"filter.{CLASS_NAMES[class_id]} aspect range: "
                f"lo {rng[0]} must be < hi {rng[1]}"
            )
    return PipelineConfig(tracker, reid, filters)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: PipelineConfig) -> str:
    """Serialize every effective value, one key per line, sorted."""
    values = {
        "tracker.fps": cfg.tracker.fps,
        "tracker.car.n1_seconds": cfg.tracker.n1_seconds[CAR],
        "tracker.pedestrian.n1_seconds": cfg.tracker.n1_seconds[PEDESTRIAN],
        "tracker.car.gate_cost": cfg.tracker.gate_cost[CAR],
        "tracker.pedestrian.gate_cost": cfg.tracker.gate_cost[PEDESTRIAN],
        "tracker.huber_delta": cfg.tracker.huber_delta,
        "tracker.huber_window": cfg.tracker.huber_window,
        "tracker.str_distance_factor": cfg.tracker.str_distance_factor,
        "tracker.bank_size": cfg.tracker.bank_size,
        "tracker.str_enabled": cfg.tracker.str_enabled,
        "reid.enabled": cfg.reid.enabled,
        "reid.car.n2_seconds": cfg.reid.n2_seconds[CAR],
        "reid.pedestrian.n2_seconds": cfg.reid.n2_seconds[PEDESTRIAN],
        "reid.n3_frames": cfg.reid.n3_frames,
        "reid.beta1": cfg.reid.beta1,
        "reid.beta2": cfg.reid.beta2,
        "reid.beta3": cfg.reid.beta3,
        "reid.camera_mode": cfg.reid.camera_mode,
        "filter.min_score": cfg.filters.min_score,
        "filter.min_box_area": cfg.filters.min_box_area,
        "filter.car.aspect_lo": cfg.filters.aspect_ratio_range[CAR][0],
        "filter.car.aspect_hi": cfg.filters.aspect_ratio_range[CAR][1],
        "filter.pedestrian.aspect_lo": cfg.filters.aspect_ratio_range[PEDESTRIAN][0],
        "filter.pedestrian.aspect_hi": cfg.filters.aspect_ratio_range[PEDESTRIAN][1],
        "filter.min_track_len": cfg.filters.min_track_len,
        "filter.min_track_avg_score": cfg.filters.min_track_avg_score,
        "filter.traj_iou_threshold": cfg.filters.traj_iou_threshold,
    }
    lines = [f"{key}={_fmt(values[key])}" for key in sorted(values)]
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
