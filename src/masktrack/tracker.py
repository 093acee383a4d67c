"""Online per-frame association of detections to tracks.

Each step matches the frame's detections against tracks seen in the previous
frame with a cost of ``2 - mask_iou - feature_similarity``, solved as a
minimum-cost assignment and gated. The tracks seen in the previous frame are
one per detection of that frame, so the IOU half of a step's matrix is the
IOU of the previous frame's detections with this frame's. One kernel,
:func:`frame_pair_ious`, scores such pairs of detection lists: the cells
whose classes agree and extents meet have their intersection areas taken in
one merge of two interval tables, for a block of consecutive frame pairs at
once, and every other IOU is 0.0. A tracker told the whole sequence before
its first step (:meth:`MaskTracker.prescore`) scores every step's IOU there,
in a few blocks; a step it was not told scores its own, one pair. The banks
of each class are stacked and compared with all of that class's detections
in one cosine call. The gate applies after the solve: a pair the solve
picked whose cost exceeds the gate is dropped, and its track is not offered
another detection that frame.
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
from .geometry import BBox, BinaryMask, bbox_iou, blocks, mask_iou, may_overlap, pair_intersections
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


# Consecutive frame pairs are scored in blocks (geometry.blocks) of about
# this weight: a pair weighs its cells and the intervals its merge would hold
# if every cell met (_pair_weight), so the temporaries of a block's cells and
# merge stay small for any sequence, and a merge of many crowded frames is
# split. This unit is not geometry's, so neither is the budget: at 80
# objects a budget of 16 K made the pre-pass 25 % slower.
_BLOCK_BUDGET = 1 << 17


def _pair_weight(a: list[Detection], b: list[Detection]) -> int:
    """The weight of scoring ``a`` against ``b``: its cells, and the
    intervals its merge would hold if every cell met, each mask's intervals
    once for each mask of the other side."""
    fg_a = sum(len(d.mask.run_ends) // 2 for d in a)
    fg_b = sum(len(d.mask.run_ends) // 2 for d in b)
    return len(a) * len(b) + fg_a * len(b) + fg_b * len(a)


def frame_pair_ious(
    pairs: list[tuple[list[Detection], list[Detection]]]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The mask IOU of every pair ``(a, b)`` of detection lists, as
    ``(i, j, iou)``: each cell whose classes agree and whose mask extents
    meet, and the IOU of ``a[i]`` and ``b[j]``. Every other cell's IOU is 0.0.

    Every pair's same-class cells are taken row by row (:func:`_same_class_cells`)
    and go through one :func:`may_overlap` and one :func:`pair_intersections`
    call. The IOU is :func:`mask_iou`'s formula on the same integers, so the
    same bits; ``may_overlap`` passes no empty mask, so no union is 0. Raises
    ShapeMismatch naming the first same-class cell of masks of different
    dimensions.
    """
    a = [d for side, _ in pairs for d in side]
    b = [d for _, side in pairs for d in side]
    ia, ib, pair, off_a, off_b = _same_class_cells(pairs, a, b)
    masks_a, masks_b = [d.mask for d in a], [d.mask for d in b]
    meet = may_overlap(masks_a, masks_b, ia, ib)
    ia, ib, pair = ia[meet], ib[meet], pair[meet]
    inter = pair_intersections(masks_a, masks_b, ia, ib)
    area_a = np.fromiter((m.area for m in masks_a), dtype=np.int64, count=len(a))
    area_b = np.fromiter((m.area for m in masks_b), dtype=np.int64, count=len(b))
    iou = inter / (area_a[ia] + area_b[ib] - inter)
    ia -= off_a[pair]
    ib -= off_b[pair]
    cut = np.searchsorted(pair, np.arange(len(pairs) + 1)).tolist()
    return [(ia[lo:hi], ib[lo:hi], iou[lo:hi]) for lo, hi in zip(cut, cut[1:])]


def _same_class_cells(pairs, a: list[Detection], b: list[Detection]):
    """``(ia, ib, pair, off_a, off_b)``: every cell of every pair whose
    classes agree, as indices into ``a`` and ``b``, the pairs' detections
    laid end to end, in pair order and row by row within a pair; then each
    cell's pair and each pair's first index into ``a`` and into ``b``."""
    cls_a = np.array([d.class_id for d in a])
    cls_b = np.array([d.class_id for d in b])
    n_a = np.fromiter((len(side) for side, _ in pairs), dtype=np.int64, count=len(pairs))
    n_b = np.fromiter((len(side) for _, side in pairs), dtype=np.int64, count=len(pairs))
    off_a, off_b, cells = np.cumsum(n_a) - n_a, np.cumsum(n_b) - n_b, n_a * n_b
    pair = np.repeat(np.arange(len(pairs)), cells)
    i, j = np.divmod(np.arange(pair.size) - np.repeat(np.cumsum(cells) - cells, cells), n_b[pair])
    ia, ib = off_a[pair] + i, off_b[pair] + j
    same = cls_a[ia] == cls_b[ib]
    return ia[same], ib[same], pair[same], off_a, off_b


def assignment_cost(tracks: list[Track], detections: list[Detection]) -> np.ndarray:
    """The ``(tracks, detections)`` cost matrix ``2 - mask IOU - bank similarity``.

    Cross-class cells are infeasible. The IOU is :func:`frame_pair_ious` of
    one pair, the tracks' last observations and the detections; the rest is
    :func:`_cost_from_ious`.
    """
    last = [t.observations[-1] for t in tracks]
    (i, j, ious), = frame_pair_ious([(last, detections)])
    iou = np.zeros((len(tracks), len(detections)))
    iou[i, j] = ious
    return _cost_from_ious(tracks, detections, iou)


def _cost_from_ious(
    tracks: list[Track], detections: list[Detection], iou: np.ndarray
) -> np.ndarray:
    """``2 - iou - bank similarity``, cross-class cells infeasible.

    Each class's banks are stacked and meet its detections in one
    :func:`bank_similarities` call.
    """
    t_cls = np.array([t.class_id for t in tracks])
    d_cls = np.array([d.class_id for d in detections])
    same = t_cls[:, None] == d_cls[None, :]
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
    """Sequential tracker; feed frames in increasing order, then finalize.

    A caller that knows the whole sequence can hand it to :meth:`prescore`
    before the first step; the steps then read the IOU half of their cost
    matrices from that table instead of scoring it one frame at a time.
    """

    def __init__(self, config: TrackerConfig):
        self.cfg = config
        self.tracks: list[Track] = []  # every track ever spawned, in spawn order
        self._live: list[Track] = []  # the tracks not yet terminated, in spawn order
        self._serials: dict[int, int] = {}
        self._last_frame: int | None = None
        # frame -> (previous frame's detections, its detections, i, j, iou): see prescore
        self._ious: dict[int, tuple] = {}

    def prescore(self, steps: list[tuple[int, list[Detection]]]):
        """Score the IOU half of the cost matrix of every step to come.

        ``steps`` are the ``(frame, detections)`` the steps will be fed, in
        order. The active tracks of step ``f`` are the tracks whose last
        observation is one of the detections of step ``f - 1``, one for
        each, so that step's IOU is the IOU of the two frames' detections.
        Every pair of frames ``f - 1`` and ``f``, neither of them empty, is
        scored by :func:`frame_pair_ious` in blocks (:func:`blocks`, each
        pair weighing its :func:`_pair_weight`, under ``_BLOCK_BUDGET``),
        and the table keeps the cells whose extents meet. A step takes its
        entry only when it was built for this step's very list, by identity,
        and every active track's last observation is, by identity, one of the
        entry's previous detections; it drops the entry once read. A block
        that cannot be scored (masks of different dimensions in a compared
        cell, say) is left to its steps, which then raise as they would have
        without the table.
        """
        pairs, frames = [], []
        for (f0, prev), (f1, dets) in zip(steps, steps[1:]):
            if f1 == f0 + 1 and prev and dets:
                pairs.append((prev, dets))
                frames.append(f1)
        for lo, hi in blocks([_pair_weight(*pair) for pair in pairs], _BLOCK_BUDGET):
            try:
                cells = frame_pair_ious(pairs[lo:hi])
            except ShapeMismatch:
                continue
            for frame, pair, ious in zip(frames[lo:hi], pairs[lo:hi], cells):
                self._ious[frame] = (*pair, *ious)

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
        prescored = self._ious.pop(frame, None)

        assigned: dict[int, Detection] = {}
        pairs = []
        if active and detections:
            iou = self._prescored_ious(prescored, active, detections)
            if iou is None:
                costs = assignment_cost(active, detections)
            else:
                costs = _cost_from_ious(active, detections, iou)
            pairs = _gated_solve(costs, active, self.cfg)
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

    def _prescored_ious(
        self, entry, active: list[Track], detections: list[Detection]
    ) -> np.ndarray | None:
        """The IOU of ``active`` against ``detections`` from a :meth:`prescore`
        entry, or None when it was not built for this step's list or a track's
        last observation is not among its previous detections. Each track's
        row is the row of its last observation."""
        if entry is None:
            return None
        prev, dets, i, j, ious = entry
        if dets is not detections:
            return None
        at = {id(d): k for k, d in enumerate(prev)}
        rows = [at.get(id(t.observations[-1])) for t in active]
        if None in rows:
            return None
        iou = np.zeros((len(prev), len(dets)))
        iou[i, j] = ious
        return iou[rows]

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
