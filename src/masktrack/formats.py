"""Sequence I/O: detection files, result files, overlay images.

Detections arrive as JSON lines, one object per line, after a single header
line carrying the sequence facts (name, fps, image size, camera mode). A
float array in a detection (``embedding``, ``feature_map.values``) is either
a JSON list of numbers or a string packing the same values: standard base64
of their little-endian float64 bytes, a map in C order ``(gh, gw, c)``.
:func:`write_detections` writes the packed form, which round-trips every
value bit for bit as the list form does. A detection file is read in one
batch pass: each line is parsed and checked as it is read, then the masks
of the whole file are decoded together, their run caches filled, and the
feature maps of each grid size pooled together under one attention lookup.

Results use the plain text layout common to mask-level tracking benchmarks:
``frame track_id class_id img_h img_w rle`` per line, frames ascending, with
same-frame masks guaranteed pairwise disjoint on write (overlaps lose to the
lower track id).

``mask_merge`` and ``rle_to_string`` stay imported for the benchmark, which
patches them by name.
"""

from __future__ import annotations

import base64
import colorsys
import json
import math
import os
import re
import sys
from binascii import b2a_base64
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .embedding import instance_aware_pool, spatial_attentions
from .errors import OverlapAfterResolution, ParseError, ShapeMismatch
from .geometry import (
    BBox,
    BinaryMask,
    blocks,
    fill_caches,
    mask_merge,
    paint_by_rank,
    rle_decode,
    rle_from_string,
    rle_from_strings,
    rle_to_string,
    rle_to_strings,
    slot_capacity,
)
from .tracker import CLASS_NAMES, Detection, Tracklet

RESULT_HEADER = "# frame track_id class_id img_h img_w rle"
# feature maps from the upstream detector default to this channel count
DEFAULT_FEATURE_CHANNELS = 1024


@dataclass(frozen=True)
class SequenceMeta:
    name: str
    fps: float
    img_h: int
    img_w: int
    camera_mode: str

    def __post_init__(self):
        # the name is the stem of the files written for the sequence
        if self.name in ("", ".", "..") or any(c in self.name for c in ("/", os.sep, "\0")):
            raise ParseError(f"name: expected a plain file name, got {self.name!r}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ParseError(f"sequence fps must be positive and finite, got {self.fps}")
        if self.img_h <= 0 or self.img_w <= 0:
            raise ParseError(f"bad image dims {self.img_h}x{self.img_w}")
        if self.camera_mode not in ("static", "moving"):
            raise ParseError(f"camera_mode must be static or moving, got {self.camera_mode!r}")


@dataclass(frozen=True)
class ResultRecord:
    """One line of a result file. ``source`` is the ``FILE:LINE`` it was read
    from, so a check made after reading can name it; empty in memory.

    ``decoded`` is the mask ``rle`` encodes. :func:`read_results` and
    :func:`resolve_records` hand it over, so :meth:`mask` decodes nothing for
    the records they return; a record built without it decodes ``rle`` on
    each call. A mask whose dims are not ``img_h x img_w`` raises
    ShapeMismatch.
    """

    frame: int
    track_id: int
    class_id: int
    img_h: int
    img_w: int
    rle: str
    source: str = field(default="", compare=False)
    decoded: BinaryMask | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m = self.decoded
        if m is not None and (m.height, m.width) != (self.img_h, self.img_w):
            raise ShapeMismatch(
                f"{self.source or 'record'}: mask is {m.height}x{m.width}, "
                f"the record is {self.img_h}x{self.img_w}"
            )

    def mask(self) -> BinaryMask:
        if self.decoded is not None:
            return self.decoded
        return rle_from_string(self.rle, self.img_h, self.img_w)

    def to_line(self) -> str:
        return (
            f"{self.frame} {self.track_id} {self.class_id} "
            f"{self.img_h} {self.img_w} {self.rle}"
        )


# ---------------------------------------------------------------------------
# detections
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    """A checked detection line, its mask not yet decoded."""

    frame: int
    class_id: int
    score: float
    box: BBox
    embedding: np.ndarray | None
    feature_map: np.ndarray | None


def load_detections(path: str) -> tuple[SequenceMeta, dict[int, list[Detection]]]:
    """Read a detection file; returns the sequence meta and per-frame lists.

    Frames come out sorted ascending. Each line is parsed and checked as it
    is read. The file's mask tokens are decoded together once every line is
    read, by :func:`rle_from_strings`, which gives each mask its run ends and
    area; :func:`fill_caches` then fills every extent from those run ends.
    The feature maps of each grid size are then pooled together into their
    embeddings, under one :func:`spatial_attentions` lookup. Raises ParseError or ShapeMismatch
    naming the file and line; a bad token is named before any later fault,
    of its own line or a later one. Every detection's embedding or feature
    map must have as many channels as the first one's.
    """
    meta: SequenceMeta | None = None
    # each detection's mask dims, token and FILE:LINE, decoded once every line is read
    mask_rows: list[tuple[int, int, str, str]] = []
    rows: list[_Row] = []
    channels: int | None = None  # of the first detection; every other must match
    try:
        for lineno, raw in text_lines(path, "utf-8"):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer literal past Python's digit limit
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if meta is None:
                meta = _parse_meta(obj, path, lineno)
                continue
            where = f"{path}:{lineno}"
            frame, class_id, score, bbox, token = _parse_record(obj, meta, where)
            # the line's token is checked before its features, as if decoded here
            mask_rows.append((meta.img_h, meta.img_w, token, where))
            embedding, feature_map = _parse_features(obj, where)
            box = _parse_box(bbox, frame, embedding, feature_map, meta, where)
            dim = embedding.size if embedding is not None else feature_map.shape[2]
            if channels is None:
                channels = dim
            elif dim != channels:
                raise ParseError(
                    f"{where}: {dim} feature channels, the first detection has {channels}"
                )
            rows.append(_Row(frame, class_id, score, box, embedding, feature_map))
    except (ParseError, ShapeMismatch):
        _decode(mask_rows)  # a bad token on an earlier line is named first
        raise
    if meta is None:
        raise ParseError(f"{path}: missing header line")
    masks = _decode(mask_rows)
    fill_caches(masks)
    embeddings = _pool(rows, masks)
    by_frame: dict[int, list[Detection]] = {}
    for row, mask, embedding in zip(rows, masks, embeddings):
        by_frame.setdefault(row.frame, []).append(
            Detection(row.frame, row.class_id, row.score, row.box, mask, embedding, row.feature_map)
        )
    return meta, {f: by_frame[f] for f in sorted(by_frame)}


def text_lines(path: str, encoding: str):
    """Yield (line number, text) for each line of a file in ``encoding``.

    The file is read with universal newlines: a line ends at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``, each read as ``\\n``. A form feed,
    ``\\x1c``-``\\x1e`` or ``\\x85`` does not end a line. A byte that is not
    ``encoding`` text raises ParseError naming its line.
    """
    with open(path, "r", encoding=encoding, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode(encoding)
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's stand-in
                raise ParseError(f"{path}:{lineno}: byte {byte:#04x} is not {encoding}") from None
            yield lineno, line


# The scalar checks of every JSON input, detection files and scenario specs
# alike. Each returns the value and raises ParseError naming ``what``.

_FLOAT_MAX = sys.float_info.max


def json_whole(value, what: str) -> int:
    """A JSON integer, or a float with no fraction, as an int; never a bool,
    a string or a fraction (2.7 is not frame 2)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ParseError(f"{what}: expected a whole number, got {value!r}")


def json_number(value, what: str) -> int | float:
    """A JSON int or float within the float range, as given; never a bool or
    a string."""
    if type(value) in (int, float) and abs(value) <= _FLOAT_MAX:
        return value
    raise ParseError(f"{what}: expected a finite number, got {value!r}")


def json_str(value, what: str) -> str:
    """A JSON string."""
    if type(value) is str:
        return value
    raise ParseError(f"{what}: expected a string, got {value!r}")


def _parse_meta(obj, path, lineno) -> SequenceMeta:
    try:
        return SequenceMeta(
            name=json_str(obj["name"], "name"),
            fps=float(json_number(obj["fps"], "fps")),
            img_h=json_whole(obj["img_h"], "img_h"),
            img_w=json_whole(obj["img_w"], "img_w"),
            camera_mode=json_str(obj["camera_mode"], "camera_mode"),
        )
    except KeyError as exc:
        raise ParseError(f"{path}:{lineno}: header missing field {exc}") from None
    except (TypeError, ParseError) as exc:
        raise ParseError(f"{path}:{lineno}: bad header ({exc})") from None


def _parse_record(obj, meta: SequenceMeta, where: str) -> tuple:
    """A detection's frame, class id, score, bbox values and mask token,
    checked up to the token itself."""
    try:
        frame = json_whole(obj["frame"], "frame")
        class_id = json_whole(obj["class_id"], "class_id")
        score = float(json_number(obj["score"], "score"))
        bx, by, bw, bh = (float(json_number(v, "bbox")) for v in obj["bbox"])
        mask_obj = obj["mask"]
        mh, mw = json_whole(mask_obj["h"], "mask.h"), json_whole(mask_obj["w"], "mask.w")
        token = json_str(mask_obj["counts"], "mask.counts")
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{where}: bad detection record ({exc})") from None
    if frame < 0:
        raise ParseError(f"{where}: frame {frame} below 0")
    if class_id not in CLASS_NAMES:
        raise ParseError(f"{where}: unknown class_id {class_id}")
    if not (0.0 <= score <= 1.0):
        raise ParseError(f"{where}: score {score} outside [0, 1]")
    if (mh, mw) != (meta.img_h, meta.img_w):
        raise ShapeMismatch(
            f"{where}: mask dims {mh}x{mw} != sequence {meta.img_h}x{meta.img_w}"
        )
    return frame, class_id, score, (bx, by, bw, bh), token


def _parse_features(obj, where: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A detection's ``(embedding, feature_map)``; at most one is set, the
    embedding when both are given."""
    if "embedding" in obj and obj["embedding"] is not None:
        try:
            embedding = _floats(obj["embedding"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: bad embedding ({exc})") from None
        if embedding.size == 0:
            raise ParseError(f"{where}: embedding is empty")
        if not np.isfinite(embedding).all():
            raise ParseError(f"{where}: non-finite embedding value")
        return embedding, None
    if "feature_map" in obj and obj["feature_map"] is not None:
        fm = obj["feature_map"]
        try:
            gh, gw = json_whole(fm["gh"], "gh"), json_whole(fm["gw"], "gw")
            ch = json_whole(fm.get("c", DEFAULT_FEATURE_CHANNELS), "c")
            values = _floats(fm["values"])
        except (KeyError, TypeError, ValueError, OverflowError, ParseError) as exc:
            raise ParseError(f"{where}: bad feature_map ({exc})") from None
        if min(gh, gw, ch) < 1:
            raise ParseError(f"{where}: feature_map gh, gw and c must be >= 1, got {gh}x{gw}x{ch}")
        if values.size != gh * gw * ch:
            raise ParseError(
                f"{where}: feature_map has {values.size} values, expected {gh * gw * ch}"
            )
        if not np.isfinite(values).all():
            raise ParseError(f"{where}: non-finite feature_map value")
        return None, values.reshape(gh, gw, ch)
    return None, None


def _parse_box(bbox, frame, embedding, feature_map, meta: SequenceMeta, where: str) -> BBox:
    """The detection's box, once it is known that the detection has features
    and that a feature map has a box with an area to pool under, on a frame
    whose pixel positions int64 holds (its attention looks them up)."""
    try:
        box = BBox(*bbox)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if embedding is None and feature_map is None:
        raise ParseError(
            f"{where}: detection at frame {frame} has neither an embedding nor a feature map"
        )
    if feature_map is not None and box.empty:
        raise ParseError(f"{where}: cannot sample attention under a zero-area box: {box}")
    if feature_map is not None and not slot_capacity(meta.img_h, meta.img_w):
        raise ShapeMismatch(
            f"{where}: a {meta.img_h}x{meta.img_w} mask has more pixels than int64 positions hold"
        )
    return box


def _pool(rows: list[_Row], masks: list[BinaryMask]) -> list[np.ndarray]:
    """Each row's embedding: the one it gave, or its feature map pooled under
    its mask's attention, every map of one grid size in one lookup."""
    embeddings = [row.embedding for row in rows]
    grids: dict[tuple[int, int], list[int]] = {}
    for k, row in enumerate(rows):
        if row.feature_map is not None:
            grids.setdefault(row.feature_map.shape[:2], []).append(k)
    for (gh, gw), ks in grids.items():
        attns = spatial_attentions([masks[k] for k in ks], [rows[k].box for k in ks], gh, gw)
        for k, attn in zip(ks, attns):
            embeddings[k] = instance_aware_pool(rows[k].feature_map, attn)
    return embeddings


def _floats(value) -> np.ndarray:
    """A float-array field as a flat float64 array. The field is a JSON list
    of numbers (not strings, not booleans) or the packed form: a string of
    standard base64 over little-endian float64 bytes."""
    if isinstance(value, str):
        raw = base64.b64decode(value, validate=True)  # binascii.Error is a ValueError
        if len(raw) % 8:
            raise ValueError(f"{len(raw)} packed bytes are not whole float64 values")
        return np.frombuffer(raw, dtype="<f8").astype(float)
    if not isinstance(value, list) or not {type(v) for v in value} <= {int, float}:
        raise ValueError("expected a list of numbers or a packed string")
    return np.array(value, dtype=float)


def write_detections(
    meta: SequenceMeta, by_frame: dict[int, list[Detection]], path: str
):
    """Write a detection file readable by :func:`load_detections`; a detection
    with a feature map is written with the map, which pools to its embedding.
    Both are written in the packed form.

    Every detection is checked before the file is opened: a mask whose dims
    are not the sequence's, or a feature map that is not ``(gh, gw, c)``,
    raises ShapeMismatch, and a non-finite value written (the map's, else
    the embedding's) raises ParseError, each naming the frame and the
    detection's index in it. The masks are then encoded by one
    :func:`rle_to_strings` call. Each line is ``json.dumps(rec,
    sort_keys=True)`` with its packed field left empty, the field's base64
    put in afterwards: base64 needs no escaping, so the line is the one json
    would give, without its escaper's pass over the values.
    """
    dets, values = [], []
    for frame in sorted(by_frame):
        for k, det in enumerate(by_frame[frame]):
            values.append(_written_values(det, meta, f"frame {frame}: detection {k}"))
            dets.append(det)
    tokens = rle_to_strings([det.mask for det in dets])
    header = {
        "name": meta.name,
        "fps": meta.fps,
        "img_h": meta.img_h,
        "img_w": meta.img_w,
        "camera_mode": meta.camera_mode,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for det, token, vals in zip(dets, tokens, values):
            rec = {
                "frame": det.frame,
                "class_id": det.class_id,
                "score": det.score,
                "bbox": [det.box.x, det.box.y, det.box.w, det.box.h],
                "mask": {"h": det.mask.height, "w": det.mask.width, "counts": token},
            }
            if det.feature_map is not None:
                gh, gw, ch = det.feature_map.shape
                rec["feature_map"] = {"gh": gh, "gw": gw, "c": ch, "values": ""}
            else:
                rec["embedding"] = ""
            # the packed field is the line's only "": a token's characters
            # run from '0' to 'o', so hold no quote
            head, tail = json.dumps(rec, sort_keys=True).split('""')
            fh.write(b"".join((
                head.encode("ascii"), b'"', b2a_base64(vals, newline=False), b'"',
                tail.encode("ascii"), b"\n",
            )))


def _written_values(det: Detection, meta: SequenceMeta, what: str) -> np.ndarray:
    """The float64 values a detection's packed field holds, little-endian in
    C order: its feature map's, else its embedding's, once the detection is
    known to be one :func:`load_detections` reads back."""
    mask = det.mask
    if (mask.height, mask.width) != (meta.img_h, meta.img_w):
        raise ShapeMismatch(
            f"{what}: mask is {mask.height}x{mask.width}, the sequence is {meta.img_h}x{meta.img_w}"
        )
    fmap = det.feature_map
    if fmap is not None and fmap.ndim != 3:
        raise ShapeMismatch(f"{what}: feature map has shape {fmap.shape}, expected (gh, gw, c)")
    values = np.ascontiguousarray(det.embedding if fmap is None else fmap, dtype="<f8")
    if not np.isfinite(values).all():
        raise ParseError(f"{what}: non-finite {'embedding' if fmap is None else 'feature_map'} value")
    return values


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def resolve_records(
    per_frame: dict[int, list[tuple[int, int, BinaryMask]]], meta: SequenceMeta
) -> list[ResultRecord]:
    """Turn per-frame (track_id, class_id, mask) entries into disjoint records.

    Where masks overlap, pixels stay with the lower track id; masks emptied
    by the resolution are dropped. Output is sorted by (frame, track_id).
    The entries, sorted so, are painted by :func:`paint_by_rank` in blocks
    of whole frames (:func:`blocks`: each frame weighs its foreground
    intervals, and a block holds at most the frames a table holds), each
    frame a slot of its block's interval table: a mask that meets no other
    keeps its mask object, and only the masks that lose pixels are rebuilt.
    The pieces painted where masks met are checked to be disjoint
    (:func:`_check_disjoint`), and every kept mask is encoded by one
    :func:`rle_to_strings` call. A mask whose dimensions are not the
    sequence's raises ShapeMismatch naming its frame and track, since its
    record could not be read back; so does a frame of more pixels than
    int64 positions hold.
    """
    entries = [
        (frame, track_id, class_id, mask)
        for frame in sorted(per_frame)
        for track_id, class_id, mask in sorted(per_frame[frame], key=lambda e: e[0])
    ]
    h, w = meta.img_h, meta.img_w
    for frame, track_id, _, mask in entries:
        if (mask.height, mask.width) != (h, w):
            raise ShapeMismatch(
                f"frame {frame}: track {track_id} mask is {mask.height}x{mask.width}, "
                f"the sequence is {h}x{w}"
            )
    capacity = slot_capacity(h, w)
    if entries and not capacity:
        frame, track_id = entries[0][:2]
        raise ShapeMismatch(
            f"frame {frame}: track {track_id} mask is {h}x{w}, more pixels than int64 positions hold"
        )
    frames = [list(group) for _, group in groupby(entries, key=lambda e: e[0])]
    intervals = [sum(len(e[3].run_ends) // 2 for e in group) for group in frames]
    kept: list[tuple[tuple, BinaryMask]] = []
    for lo, hi in blocks(intervals, cap=capacity):
        block = [e for group in frames[lo:hi] for e in group]
        slots = [rank for rank, group in enumerate(frames[lo:hi]) for _ in group]
        painted, pieces = paint_by_rank([e[3] for e in block], slots)
        _check_disjoint(pieces, block)
        kept += [(e, m) for e, m in zip(block, painted) if m.area]
    tokens = rle_to_strings([m for _, m in kept])
    return [
        ResultRecord(frame, track_id, class_id, h, w, token, decoded=mask)
        for ((frame, track_id, class_id, _), mask), token in zip(kept, tokens)
    ]


def _check_disjoint(pieces: tuple[np.ndarray, np.ndarray, np.ndarray], entries: list[tuple]):
    """Raise OverlapAfterResolution naming the frame and both track ids of
    the first two painted pieces that overlap. ``pieces`` is ``(starts,
    stops, owner)``, sorted by start, and ``owner`` indexes ``entries``; any
    overlap shows between neighbours."""
    starts, stops, owner = pieces
    clash = np.flatnonzero(starts[1:] < stops[:-1])
    if clash.size:
        k = int(clash[0])
        frame, first = entries[owner[k]][:2]
        second = entries[owner[k + 1]][1]
        raise OverlapAfterResolution(
            f"frame {frame}: tracks {first} and {second} overlap after resolution"
        )


def records_from_tracks(tracks: list[Tracklet], meta: SequenceMeta) -> list[ResultRecord]:
    per_frame: dict[int, list[tuple[int, int, BinaryMask]]] = {}
    for t in tracks:
        for o in t.observations:
            per_frame.setdefault(o.frame, []).append((t.id, t.class_id, o.mask))
    return resolve_records(per_frame, meta)


def write_records(records: list[ResultRecord], path: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(RESULT_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_line() + "\n")


def write_results(
    tracks: list[Tracklet], meta: SequenceMeta, path: str
) -> list[ResultRecord]:
    """Write finished tracks as a result file; returns the records written."""
    records = records_from_tracks(tracks, meta)
    write_records(records, path)
    return records


# A record line in its plain form: five fields of at most 18 digits, so
# each is below 2**63 and int() takes it, one space apart, the class a known
# id, and a token of printable ASCII. A line it matches is read to the row
# :func:`_checked_row` would give, without its checks.
_RESULT_LINE = re.compile(
    r"([0-9]{1,18}) ([0-9]{1,18}) (%s) ([0-9]{1,18}) ([0-9]{1,18}) ([!-~]+)\n?"
    % "|".join(map(str, sorted(CLASS_NAMES)))
).fullmatch


def read_results(path: str) -> list[ResultRecord]:
    """Parse a result file; validates decodability and (frame, id) uniqueness.

    The five integer fields are plain decimal digits and the class id is a
    known class; anything else raises ParseError naming the file and line.
    Each line ``_RESULT_LINE`` matches whole is read from the match; any
    other line that is not blank or a ``#`` comment is read by
    :func:`_checked_row`, whose checks raise every field error. A repeated
    (frame, track_id) is refused either way. The file's mask tokens are
    decoded together once every line is read, by :func:`rle_from_strings`,
    and each record carries its mask. A bad token raises ParseError or
    ShapeMismatch naming its line, before any fault of a later line.
    """
    rows: list[tuple] = []  # each record's fields, its mask not yet decoded
    seen: set[tuple[int, int]] = set()
    try:
        for lineno, raw in text_lines(path, "ascii"):
            where = f"{path}:{lineno}"
            match = _RESULT_LINE(raw)
            if match is not None:
                frame, track_id, class_id, img_h, img_w, token = match.groups()
                row = (int(frame), int(track_id), int(class_id), int(img_h), int(img_w),
                       token, where)
            else:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                row = _checked_row(line, where)
            key = row[:2]
            if key in seen:
                raise ParseError(f"{where}: duplicate (frame, track_id) {key}")
            seen.add(key)
            rows.append(row)
    except ParseError:
        _decode(rows)  # a bad token on an earlier line is named first
        raise
    del seen  # freed before the masks are decoded, the reader's peak
    return [ResultRecord(*row, decoded=mask) for row, mask in zip(rows, _decode(rows))]


def _checked_row(line: str, where: str) -> tuple:
    """The row of a stripped record line that ``_RESULT_LINE`` does not
    match, its fields checked one by one; a bad field raises ParseError
    naming ``where``."""
    parts = line.split(" ")
    if len(parts) != 6:
        raise ParseError(f"{where}: expected 6 fields, got {len(parts)}")
    # the line is ASCII, so isdigit admits 0-9 only: no sign, no '_'
    if not all(p.isdigit() for p in parts[:5]):
        raise ParseError(f"{where}: non-integer field")
    try:
        frame, track_id, class_id, img_h, img_w = (int(p) for p in parts[:5])
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{where}: integer field too long") from None
    if class_id not in CLASS_NAMES:
        raise ParseError(f"{where}: unknown class_id {class_id}")
    return frame, track_id, class_id, img_h, img_w, parts[5], where


def _decode(rows: list[tuple]) -> list[BinaryMask]:
    """The masks of a file's rows, each row ending with its mask's height,
    width and token and its ``FILE:LINE``, decoded together by
    :func:`rle_from_strings`. A bad token raises its error prefixed with its
    ``FILE:LINE``."""
    heights, widths, tokens, sources = ([row[k] for row in rows] for k in (-4, -3, -2, -1))
    try:
        return rle_from_strings(tokens, heights, widths)
    except (ParseError, ShapeMismatch) as exc:
        raise type(exc)(f"{sources[exc.index]}: {exc}") from None


# ---------------------------------------------------------------------------
# overlays
# ---------------------------------------------------------------------------

def _id_color(track_id: int) -> tuple[int, int, int]:
    hue = (track_id * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.65, 1.0)
    return int(r * 255), int(g * 255), int(b * 255)


def render_overlays(records: list[ResultRecord], out_dir: str) -> list[str]:
    """Paint each frame's masks in flat per-id colors into binary PPM files."""
    os.makedirs(out_dir, exist_ok=True)
    by_frame: dict[int, list[ResultRecord]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    written = []
    for frame in sorted(by_frame):
        recs = by_frame[frame]
        h, w = recs[0].img_h, recs[0].img_w
        for rec in recs:
            if (rec.img_h, rec.img_w) != (h, w):
                raise ShapeMismatch(
                    f"frame {frame}: mixed image dims {rec.img_h}x{rec.img_w} vs {h}x{w}"
                )
        canvas = np.zeros((h, w, 3), dtype=np.uint8)
        for rec in sorted(recs, key=lambda r: r.track_id):
            grid = rle_decode(rec.mask()).astype(bool)
            canvas[grid] = _id_color(rec.track_id)
        name = os.path.join(out_dir, f"frame_{frame:06d}.ppm")
        with open(name, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(canvas.tobytes())
        written.append(name)
    return written
