"""Online per-frame association of detections to tracks.

Each step matches the frame's detections against tracks seen in the previous
frame with a cost of ``2 - mask_iou - feature_similarity``, solved as a
minimum-cost assignment and gated. The cost matrix is built once per step
by a fixed number of array operations, however many tracks and pairs the
frame has: class ids and mask extents are compared by broadcast, the pairs
whose classes agree and extents meet have their intersection areas taken in
one merge of two interval tables, and the banks of each class are stacked
and compared with all of that class's detections in one cosine call. The gate
applies after the solve: a pair the solve picked whose cost exceeds the gate
is dropped, and its track is not offered another detection that frame.
Tracks that missed the previous frame get a second chance through short-term
retrieval: their box is extrapolated by robust regression and matched against
leftover detections within a distance gate of twice the object width. Tracks
silent for longer than the per-class memory window are terminated and never
matched again.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .assignment import INFEASIBLE, hungarian_solve
from .embedding import (
    FeatureBank,
    bank_similarities,
    bank_similarity,
    bank_update,
    instance_aware_pool,
    spatial_attention,
)
from .errors import ConfigError, OutOfOrderFrame, ShapeMismatch
from .geometry import BBox, BinaryMask, bbox_iou, mask_iou, may_overlap, pair_intersections
from .regression import huber_fit

CAR = 1
PEDESTRIAN = 2
CLASS_NAMES = {CAR: "car", PEDESTRIAN: "pedestrian"}


def serial_id(class_id: int, serial: int) -> int:
    """The id of a class's ``serial``-th track or object, counted from 1.

    Serials up to 999 give ``class_id * 1000 + serial``. Past that each class
    goes on in thousand-blocks that no other class uses, so ids never collide
    across classes: car serial 1 000 is 3000, pedestrian serial 1 000 is 4000.
    """
    block, rest = divmod(serial, 1000)
    return (len(CLASS_NAMES) * block + class_id) * 1000 + rest


def seconds_to_frames(seconds: float, fps: float) -> int:
    """Convert a duration to whole frames, rounding half up, at least 1.

    A product past ``sys.maxsize`` (infinite, say, for ``1e308`` seconds)
    gives ``sys.maxsize`` frames: longer than any sequence.
    """
    return max(1, int(math.floor(min(seconds * fps + 0.5, sys.maxsize))))


@dataclass
class TrackerConfig:
    fps: float = 30.0
    n1_seconds: dict[int, float] = field(
        default_factory=lambda: {CAR: 0.1, PEDESTRIAN: 0.2}
    )
    gate_cost: dict[int, float] = field(
        default_factory=lambda: {CAR: 1.7, PEDESTRIAN: 1.7}
    )
    huber_delta: float = 4.0
    huber_window: int = 10
    str_distance_factor: float = 2.0
    bank_size: int = 5
    str_enabled: bool = True

    def n1_frames(self, class_id: int) -> int:
        return seconds_to_frames(self.n1_seconds[class_id], self.fps)


@dataclass
class Detection:
    """One frame-level hypothesis: box, score, mask, appearance features.

    A detection given a feature map and no embedding pools the map under
    the mask's spatial attention when it is built, so ``embedding`` is
    always set.
    """

    frame: int
    class_id: int
    score: float
    box: BBox
    mask: BinaryMask
    embedding: np.ndarray | None = None
    feature_map: np.ndarray | None = None

    def __post_init__(self):
        if self.embedding is not None:
            return
        if self.feature_map is None:
            raise ValueError(
                f"detection at frame {self.frame} has neither an embedding nor a feature map"
            )
        gh, gw = self.feature_map.shape[:2]
        attn = spatial_attention(self.mask, self.box, gh, gw)
        self.embedding = instance_aware_pool(self.feature_map, attn)


class TrackState(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"
    TERMINATED = "terminated"


@dataclass
class Tracklet:
    """An object fragment: the detections it matched, in frame order, and its bank.

    The online tracker grows each one as a :class:`Track`; offline reid
    stitches fragments of one object, and the post-filters and the result
    writer read them. ``observations`` is append-only: a detection once in
    it is never replaced or removed, so a motion fit cached for a window of
    it (:func:`extrapolate_track`) never goes stale.
    """

    id: int
    class_id: int
    observations: list[Detection]
    bank: FeatureBank
    # each fitted window's line, keyed by (start, stop, huber_delta): see _end_fit
    _end_fits: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.observations:
            raise ValueError(f"tracklet {self.id} has no observations")
        frames = [o.frame for o in self.observations]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"tracklet {self.id} frames not strictly increasing")

    @property
    def first_frame(self) -> int:
        return self.observations[0].frame

    @property
    def last_frame(self) -> int:
        return self.observations[-1].frame

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def mean_score(self) -> float:
        return sum(o.score for o in self.observations) / len(self.observations)


@dataclass
class Track(Tracklet):
    """A fragment the online tracker extends frame by frame; ``state`` says
    whether it can still be matched."""

    state: TrackState = TrackState.ACTIVE

    @classmethod
    def spawn(cls, track_id: int, det: Detection, bank_size: int) -> Track:
        """A new track whose first observation is ``det``."""
        bank = bank_update(FeatureBank(bank_size), det.embedding, det.frame)
        return cls(track_id, det.class_id, [det], bank)

    def observe(self, det: Detection):
        """Append a matched detection; the bank refuses a frame that is not newer."""
        self.bank = bank_update(self.bank, det.embedding, det.frame)
        self.observations.append(det)
        self.state = TrackState.ACTIVE


# ---------------------------------------------------------------------------
# costs and extrapolation
# ---------------------------------------------------------------------------

def _stack(embeddings: list[np.ndarray]) -> np.ndarray:
    """Embeddings as one ``(n, d)`` array; embeddings of different shapes are refused."""
    shapes = {np.shape(e) for e in embeddings}
    if len(shapes) > 1:
        raise ShapeMismatch(f"detection embeddings differ in shape: {sorted(shapes)}")
    return np.array(embeddings, dtype=float)


def assignment_cost(tracks: list[Track], detections: list[Detection]) -> np.ndarray:
    """The ``(tracks, detections)`` cost matrix ``2 - mask IOU - bank similarity``.

    Cross-class cells are infeasible. A fixed number of array operations
    builds it, however many tracks and pairs there are: the pairs of a
    track's last mask and a same-class detection mask whose extents meet go
    through one :func:`pair_intersections` merge, and every other IOU is
    0.0; each class's banks are stacked and meet its detections in one
    :func:`bank_similarities` call.
    """
    t_cls = np.array([t.class_id for t in tracks])
    d_cls = np.array([d.class_id for d in detections])
    same = t_cls[:, None] == d_cls[None, :]
    last = [t.observations[-1].mask for t in tracks]
    masks = [d.mask for d in detections]
    ti, dj = np.nonzero(same)
    meet = may_overlap(last, masks, ti, dj)
    ti, dj = ti[meet], dj[meet]
    inter = pair_intersections(last, masks, ti, dj)
    # mask_iou's formula on the same integers, so the same bits; may_overlap
    # passes no empty mask, so no union is 0
    area_t = np.fromiter((m.area for m in last), dtype=np.int64, count=len(last))
    area_d = np.fromiter((m.area for m in masks), dtype=np.int64, count=len(masks))
    iou = np.zeros(same.shape)
    iou[ti, dj] = inter / (area_t[ti] + area_d[dj] - inter)
    sim = np.zeros(same.shape)
    for class_id in sorted({t.class_id for t in tracks}):
        cols = np.flatnonzero(d_cls == class_id)
        if cols.size:
            rows = np.flatnonzero(t_cls == class_id)
            queries = _stack([detections[j].embedding for j in cols])
            banks = [tracks[i].bank for i in rows]
            sim[np.ix_(rows, cols)] = bank_similarities(banks, queries)
    return np.where(same, 2.0 - iou - sim, INFEASIBLE)


def extrapolate_track(track: Tracklet, frames, cfg: TrackerConfig) -> list[BBox]:
    """Boxes of a fragment at ``frames``, from a robust linear fit of its top-left.

    A frame before the fragment faces its first ``huber_window`` observations,
    any other frame its last ones. One fit per fragment end: an end is fitted
    when the first frame facing it comes up, and the fragment keeps its line,
    which then serves every frame that faces that end, in this call and in
    any later one, until an observation is appended. Width and height come
    from the observation at that end, and a window of one observation gives
    that observation's box. A ``huber_window`` below 1 is refused.
    """
    if cfg.huber_window < 1:
        raise ConfigError(f"huber_window must be >= 1, got {cfg.huber_window}")
    first, ends, boxes = track.first_frame, {}, []
    for frame in frames:
        head = frame < first
        if head not in ends:
            ends[head] = _end_fit(track, head, cfg)
        anchor, line = ends[head]
        if line is None:
            boxes.append(anchor)
        else:
            sx, ix, sy, iy = line
            boxes.append(BBox(sx * frame + ix, sy * frame + iy, anchor.w, anchor.h))
    return boxes


def _end_fit(track: Tracklet, head: bool, cfg: TrackerConfig):
    """``(anchor box, (sx, ix, sy, iy) or None)`` for one end of ``track``.

    The line is fitted once per window of observations and ``huber_delta``:
    a fragment no longer than ``huber_window`` has one window at both ends,
    and one line serves both.
    """
    obs, n = track.observations, len(track.observations)
    start, stop = (0, min(cfg.huber_window, n)) if head else (max(0, n - cfg.huber_window), n)
    anchor = obs[start].box if head else obs[stop - 1].box
    if stop - start < 2:
        return anchor, None
    key = (start, stop, cfg.huber_delta)
    line = track._end_fits.get(key)
    if line is None:
        window = obs[start:stop]
        times = [o.frame for o in window]
        sx, ix = huber_fit(times, [o.box.x for o in window], delta=cfg.huber_delta)
        sy, iy = huber_fit(times, [o.box.y for o in window], delta=cfg.huber_delta)
        line = track._end_fits[key] = (sx, ix, sy, iy)
    return anchor, line


def _gated_solve(
    costs: np.ndarray, tracks: list[Track], cfg: TrackerConfig
) -> list[tuple[int, int]]:
    """Solve the assignment, then drop the pairs over their track's class gate."""
    return [
        (r, c)
        for r, c in hungarian_solve(costs)
        if costs[r, c] <= cfg.gate_cost[tracks[r].class_id]
    ]


def _link(
    tracks: list[Track],
    detections: list[Detection],
    pairs: list[tuple[int, int]],
    assigned: dict[int, Detection],
) -> list[Detection]:
    """Extend each paired track with its detection and record the pair in
    ``assigned``; every unpaired track turns LOST. Returns the unpaired
    detections."""
    for r, c in pairs:
        tracks[r].observe(detections[c])
        assigned[tracks[r].id] = detections[c]
    rows, cols = {r for r, _ in pairs}, {c for _, c in pairs}
    for r, track in enumerate(tracks):
        if r not in rows:
            track.state = TrackState.LOST
    return [d for c, d in enumerate(detections) if c not in cols]


def str_match(
    lost_tracks: list[Track],
    detections: list[Detection],
    frame: int,
    cfg: TrackerConfig,
) -> list[tuple[int, int]]:
    """Short-term retrieval: match recently lost tracks to leftover detections.

    Cost combines bank similarity with the IOU of the extrapolated box; a
    pair is feasible only when the detection's top-left lies within
    ``str_distance_factor`` times the track's last observed width of the
    extrapolated top-left. Each lost track's bank meets its feasible
    detections in one similarity call. Returns (track_index, detection_index)
    pairs.
    """
    if not lost_tracks or not detections:
        return []
    costs = np.full((len(lost_tracks), len(detections)), INFEASIBLE)
    d_cls = np.array([d.class_id for d in detections])
    boxes = [d.box for d in detections]
    for i, track in enumerate(lost_tracks):
        ex_box = extrapolate_track(track, [frame], cfg)[0]
        reach = cfg.str_distance_factor * track.observations[-1].box.w
        # math.hypot, not np.hypot: the two differ in the last bit on some pairs
        near = [
            j for j in np.flatnonzero(d_cls == track.class_id)
            if math.hypot(ex_box.x - boxes[j].x, ex_box.y - boxes[j].y) <= reach
        ]
        if not near:
            continue
        sims = bank_similarity(track.bank, _stack([detections[j].embedding for j in near]))
        for j, sim in zip(near, sims.tolist()):
            costs[i, j] = 2.0 - sim - bbox_iou(ex_box, boxes[j])
    return _gated_solve(costs, lost_tracks, cfg)


# ---------------------------------------------------------------------------
# the online tracker
# ---------------------------------------------------------------------------

class MaskTracker:
    """Sequential tracker; feed frames in increasing order, then finalize."""

    def __init__(self, config: TrackerConfig):
        self.cfg = config
        self.tracks: list[Track] = []  # every track ever spawned, in spawn order
        self._live: list[Track] = []  # the tracks not yet terminated, in spawn order
        self._serials: dict[int, int] = {}
        self._last_frame: int | None = None

    def step(self, frame: int, detections: list[Detection]) -> dict[int, Detection]:
        """Process one frame; returns {track_id: detection} for this frame."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise OutOfOrderFrame(f"frame {frame} after frame {self._last_frame}")
        for det in detections:
            if det.frame != frame:
                raise OutOfOrderFrame(
                    f"detection stamped {det.frame} fed to step({frame})"
                )
        self._refresh_states(frame)
        active = [t for t in self._live if t.state is TrackState.ACTIVE]
        lost = [t for t in self._live if t.state is TrackState.LOST]

        assigned: dict[int, Detection] = {}
        pairs = []
        if active and detections:
            pairs = _gated_solve(assignment_cost(active, detections), active, self.cfg)
        # an active track left unpaired, by the solve or by its gate, is lost from now on
        leftovers = _link(active, detections, pairs, assigned)
        if self.cfg.str_enabled and lost and leftovers:
            pairs = str_match(lost, leftovers, frame, self.cfg)
            leftovers = _link(lost, leftovers, pairs, assigned)

        for det in leftovers:
            track = self._spawn(det)
            assigned[track.id] = det

        self._last_frame = frame
        return assigned

    def finalize(self) -> list[Tracklet]:
        """Every track ever spawned, sorted by id."""
        return sorted(self.tracks, key=lambda t: t.id)

    def _refresh_states(self, frame: int):
        """Set each live track's state from the frames it missed; drop terminated ones."""
        live = []
        for t in self._live:
            missed = frame - t.last_frame - 1
            if missed > self.cfg.n1_frames(t.class_id):
                t.state = TrackState.TERMINATED
                continue
            t.state = TrackState.LOST if missed >= 1 else TrackState.ACTIVE
            live.append(t)
        self._live = live

    def _spawn(self, det: Detection) -> Track:
        serial = self._serials.get(det.class_id, 0) + 1
        self._serials[det.class_id] = serial
        track = Track.spawn(serial_id(det.class_id, serial), det, self.cfg.bank_size)
        self.tracks.append(track)
        self._live.append(track)
        return track
