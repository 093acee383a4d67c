"""Synthetic sequences with exact ground truth.

Objects are axis-aligned rectangles on linear trajectories; the detector
model adds dropout, score noise and box jitter, and the embedding model
attaches a noisy copy of a per-identity orthogonal prototype to each
detection. Everything is driven by one seed, so the same spec writes
byte-identical files every time. Occlusion events hide an object entirely
(it leaves the ground truth too); dropout events only silence the detector,
the object stays in the ground truth.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .embedding import l2_normalize
from .errors import ParseError, SpecOutOfBounds
from .formats import (
    ResultRecord,
    SequenceMeta,
    json_number,
    json_str,
    json_whole,
    resolve_records,
    write_detections,
    write_records,
)
from .geometry import BBox, BinaryMask, rect_mask
from .tracker import PEDESTRIAN, Detection, serial_id


@dataclass
class ObjectSpec:
    class_id: int = PEDESTRIAN
    width: float = 12.0
    height: float = 30.0
    start_x: float = 0.0
    start_y: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    birth: int = 1
    death: int | None = None  # inclusive; None = last frame


@dataclass
class VisibilityEvent:
    """Frames [start, start+length) where an object is missing."""

    object_index: int
    start: int
    length: int


@dataclass
class DetectorModel:
    dropout: float = 0.0
    score_mean: float = 0.9
    score_sigma: float = 0.0
    jitter_sigma: float = 0.0


@dataclass
class EmbeddingModel:
    dim: int = 16
    noise_sigma: float = 0.0


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    frames: int = 100
    img_h: int = 480
    img_w: int = 640
    fps: float = 25.0
    camera_mode: str = "static"
    objects: list[ObjectSpec] = field(default_factory=list)
    occlusions: list[VisibilityEvent] = field(default_factory=list)
    dropouts: list[VisibilityEvent] = field(default_factory=list)
    detector: DetectorModel = field(default_factory=DetectorModel)
    embedding: EmbeddingModel = field(default_factory=EmbeddingModel)
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec as ``to_json`` writes it; missing fields keep their defaults.

        Invalid JSON, a field the spec does not have or a required one left
        out, a value not of its field's type (a whole number for an ``int``,
        a finite number for a ``float``), an object size that is not
        positive and an event whose ``object_index`` names no object raise
        ParseError naming the line or field.
        """
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
        spec = _build(cls, obj, "")
        for i, o in enumerate(spec.objects):
            for name in ("width", "height"):
                value = getattr(o, name)
                if value <= 0:
                    raise ParseError(
                        f"objects[{i}].{name}: expected a positive size, got {value!r}"
                    )
        for kind in ("occlusions", "dropouts"):
            for i, ev in enumerate(getattr(spec, kind)):
                if not 0 <= ev.object_index < len(spec.objects):
                    raise ParseError(
                        f"{kind}[{i}].object_index: {ev.object_index} names no object "
                        f"of {len(spec.objects)}"
                    )
        return spec


def _build(kind, obj, where: str):
    """``kind(**obj)``, each field's value checked against the field's type;
    a nested spec or list of specs is built the same way."""
    label = where or "scenario"
    if not isinstance(obj, dict):
        raise ParseError(f"{label}: expected a JSON object, got {type(obj).__name__}")
    hints = get_type_hints(kind)
    for f in fields(kind):
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ParseError(f"{label}: missing field {f.name!r}")
    values = {}
    for name, value in obj.items():
        if name not in hints:
            raise ParseError(f"{label}: unknown field {name!r}")
        values[name] = _value(hints[name], value, f"{where}.{name}" if where else name)
    return kind(**values)


_CHECKS = {str: json_str, float: json_number, int: json_whole, int | None: json_whole}


def _value(hint, value, where: str):
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a JSON list, got {type(value).__name__}")
        (item,) = get_args(hint)
        return [_build(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if is_dataclass(hint):
        return _build(hint, value, where)
    if value is None and hint == int | None:
        return None
    return _CHECKS[hint](value, where)


def _hidden_frames(events: list[VisibilityEvent], obj_index: int) -> set[int]:
    hidden: set[int] = set()
    for ev in events:
        if ev.object_index == obj_index:
            hidden.update(range(ev.start, ev.start + ev.length))
    return hidden


def _object_box(obj: ObjectSpec, frame: int) -> BBox:
    dt = frame - obj.birth
    return BBox(obj.start_x + obj.vx * dt, obj.start_y + obj.vy * dt, obj.width, obj.height)


def _check_bounds(spec: ScenarioSpec):
    for idx, obj in enumerate(spec.objects):
        death = obj.death if obj.death is not None else spec.frames
        for frame in (obj.birth, death):
            box = _object_box(obj, frame)
            if box.x < 0 or box.y < 0 or box.x + box.w > spec.img_w or box.y + box.h > spec.img_h:
                raise SpecOutOfBounds(
                    f"object {idx} leaves the {spec.img_w}x{spec.img_h} image "
                    f"at frame {frame}: {box}"
                )


def generate(
    spec: ScenarioSpec,
) -> tuple[SequenceMeta, dict[int, list[Detection]], list[ResultRecord]]:
    """Produce (meta, detections per frame, ground-truth records) for a spec."""
    _check_bounds(spec)
    n = len(spec.objects)
    if n == 0:
        raise SpecOutOfBounds("scenario has no objects")
    if spec.embedding.dim < n:
        raise SpecOutOfBounds(
            f"embedding dim {spec.embedding.dim} < {n} objects; "
            "prototypes would not be orthogonal"
        )
    rng = np.random.default_rng(spec.seed)
    prototypes = np.eye(spec.embedding.dim)[:n]

    meta = SequenceMeta(
        name=spec.name,
        fps=spec.fps,
        img_h=spec.img_h,
        img_w=spec.img_w,
        camera_mode=spec.camera_mode,
    )
    occluded = [_hidden_frames(spec.occlusions, i) for i in range(n)]
    dropped = [_hidden_frames(spec.dropouts, i) for i in range(n)]

    dets_by_frame: dict[int, list[Detection]] = {}
    gt_per_frame: dict[int, list[tuple[int, int, BinaryMask]]] = {}
    for frame in range(1, spec.frames + 1):
        for idx, obj in enumerate(spec.objects):
            death = obj.death if obj.death is not None else spec.frames
            if not (obj.birth <= frame <= death):
                continue
            if frame in occluded[idx]:
                continue
            true_box = _object_box(obj, frame)
            gt_id = serial_id(obj.class_id, idx + 1)
            gt_per_frame.setdefault(frame, []).append(
                (gt_id, obj.class_id, rect_mask(spec.img_h, spec.img_w, true_box))
            )
            # detector draws happen in a fixed order so one seed pins the file
            u = rng.random()
            jitter = rng.normal(0.0, 1.0, 2) * spec.detector.jitter_sigma
            score_noise = rng.normal(0.0, 1.0) * spec.detector.score_sigma
            emb_noise = rng.normal(0.0, 1.0, spec.embedding.dim) * spec.embedding.noise_sigma
            if frame in dropped[idx] or u < spec.detector.dropout:
                continue
            x = float(np.clip(true_box.x + jitter[0], 0.0, spec.img_w - obj.width))
            y = float(np.clip(true_box.y + jitter[1], 0.0, spec.img_h - obj.height))
            det_box = BBox(x, y, obj.width, obj.height)
            score = float(np.clip(spec.detector.score_mean + score_noise, 0.0, 1.0))
            emb = l2_normalize(prototypes[idx] + emb_noise)
            dets_by_frame.setdefault(frame, []).append(
                Detection(
                    frame=frame,
                    class_id=obj.class_id,
                    score=score,
                    box=det_box,
                    mask=rect_mask(spec.img_h, spec.img_w, det_box),
                    embedding=emb,
                )
            )
    gt_records = resolve_records(gt_per_frame, meta)
    return meta, dets_by_frame, gt_records


def generate_files(spec: ScenarioSpec, out_dir: str) -> tuple[str, str]:
    """Write the detections and ground truth; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    meta, dets_by_frame, gt_records = generate(spec)
    dets_path = os.path.join(out_dir, f"{spec.name}.jsonl")
    gt_path = os.path.join(out_dir, f"{spec.name}_gt.txt")
    write_detections(meta, dets_by_frame, dets_path)
    write_records(gt_records, gt_path)
    return dets_path, gt_path


# ---------------------------------------------------------------------------
# ready-made scenarios used by the tests and demo scripts
# ---------------------------------------------------------------------------

def scenario_clean(seed: int = 0) -> ScenarioSpec:
    """Five well-separated moving objects, a noise-free detector."""
    lanes = [30.0, 120.0, 210.0, 300.0, 390.0]
    return ScenarioSpec(
        name="clean",
        objects=[
            ObjectSpec(start_x=10.0, start_y=y, vx=2.0, vy=0.0) for y in lanes
        ],
        seed=seed,
    )


def scenario_detector_gaps(seed: int = 0) -> ScenarioSpec:
    """Stationary objects whose detector goes silent for a few frames.

    The gaps fit inside the short-term memory window, so retrieval can bridge
    them online. The camera is declared moving and the objects do not move,
    which leaves the offline merger without a usable motion direction: any
    identity split here stays split unless retrieval prevents it.
    """
    xs = [50.0, 170.0, 290.0, 410.0, 530.0]
    return ScenarioSpec(
        name="detector_gaps",
        camera_mode="moving",
        objects=[ObjectSpec(start_x=x, start_y=100.0 + 40.0 * i) for i, x in enumerate(xs)],
        dropouts=[
            VisibilityEvent(0, 40, 4),
            VisibilityEvent(1, 55, 5),
            VisibilityEvent(2, 70, 3),
        ],
        seed=seed,
    )


def scenario_long_occlusions(camera_mode: str = "static", seed: int = 0) -> ScenarioSpec:
    """Moving objects hidden for longer than the short-term memory window.

    The tracker must terminate them mid-gap; only the offline merger can
    reunite the fragments. Constant velocities make both camera-mode tests
    succeed: forward and backward extrapolations coincide in the gap, and
    the fragments' motion vectors are parallel.
    """
    lanes = [30.0, 120.0, 210.0, 300.0, 390.0]
    return ScenarioSpec(
        name=f"long_occlusions_{camera_mode}",
        camera_mode=camera_mode,
        objects=[
            ObjectSpec(start_x=10.0, start_y=y, vx=2.0, vy=0.0) for y in lanes
        ],
        occlusions=[
            VisibilityEvent(0, 30, 10),
            VisibilityEvent(1, 45, 12),
            VisibilityEvent(2, 60, 8),
        ],
        seed=seed,
    )
