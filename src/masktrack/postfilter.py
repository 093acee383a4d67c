"""Detection filters applied before tracking and track cleanup applied after.

Raw detector output carries many false positives, so detections are screened
by confidence, box size and aspect ratio before association. After tracking
and merging, short or low-confidence tracks are discarded, and near-duplicate
trajectories (average mask IOU over shared frames above a threshold) keep
only the longer member.

Dedup joins all observations on class and frame and takes the intersection
areas of every same-frame mask pair whose extents meet in one call of the
one intersection kernel, ``geometry.pair_intersections``: no loop over
frames. ``mask_iou`` stays imported for the benchmark, which patches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import mask_iou, may_overlap, pair_intersections, slot_capacity
from .tracker import CAR, PEDESTRIAN, Detection, Tracklet


@dataclass
class FilterConfig:
    min_score: float = 0.5
    min_box_area: float = 100.0
    aspect_ratio_range: dict[int, tuple[float, float]] = field(
        default_factory=lambda: {CAR: (0.2, 2.0), PEDESTRIAN: (1.0, 5.0)}
    )
    min_track_len: int = 5
    min_track_avg_score: float = 0.5
    traj_iou_threshold: float = 0.75


def filter_detections(dets: list[Detection], cfg: FilterConfig) -> list[Detection]:
    """Keep detections passing the confidence, area and aspect screens."""
    kept = []
    for det in dets:
        if det.score < cfg.min_score:
            continue
        if det.box.area < cfg.min_box_area:
            continue
        bounds = cfg.aspect_ratio_range.get(det.class_id)
        if bounds is not None:
            if det.box.w <= 0:
                continue
            ratio = det.box.h / det.box.w
            if not (bounds[0] <= ratio <= bounds[1]):
                continue
        kept.append(det)
    return kept


def prune_tracks(tracks: list[Tracklet], cfg: FilterConfig) -> list[Tracklet]:
    """Drop short tracks and tracks with low average confidence."""
    return [
        t
        for t in tracks
        if len(t) >= cfg.min_track_len and t.mean_score >= cfg.min_track_avg_score
    ]


def _trajectory_ious(tracks: list[Tracklet], groups: list[int]) -> dict[tuple[int, int], float]:
    """The trajectory IOU of every pair ``(i, j)``, ``i < j``, of tracks of one
    group whose masks share a pixel in a frame both cover, in pair order;
    every other pair's is 0.0.

    Every same-frame mask pair whose extents meet (:func:`may_overlap`) has
    its area taken by :func:`pair_intersections`, handed the masks of these
    pairs, each once, in blocks of as many pairs as int64 positions hold.
    Each IOU is ``mask_iou``'s formula on those integers; a pair's nonzero
    IOUs are summed by the builtin ``sum`` in frame order and divided by its
    shared frames. Adding a zero is exact, so every value is the per-frame
    mean to the bit.
    """
    n = len(tracks)
    masks = [o.mask for t in tracks for o in t.observations]
    frame = np.fromiter((o.frame for t in tracks for o in t.observations), dtype=np.int64, count=len(masks))
    track = np.repeat(np.arange(n), [len(t) for t in tracks])
    group = np.asarray(groups, dtype=np.int64)[track]
    # the join: a track holds one observation per frame, so once sorted, each
    # row pairs with every later row of its (group, frame) run, of a later track
    rows = np.lexsort((track, frame, group))
    opens = np.ones(rows.size + 1, dtype=bool)
    opens[1:-1] = (np.diff(group[rows]) != 0) | (np.diff(frame[rows]) != 0)
    bounds = np.flatnonzero(opens)
    later = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(rows.size) - 1
    p = np.repeat(np.arange(rows.size), later)
    q = rows[p + 1 + np.arange(p.size) - np.repeat(np.cumsum(later) - later, later)]
    p = rows[p]
    order = np.lexsort((frame[p], track[q], track[p]))  # the per-pair loop's order
    p, q = p[order], q[order]
    pair = track[p] * n + track[q]  # sorted
    meet = may_overlap(masks, masks, p, q)
    p, q, met = p[meet], q[meet], pair[meet]
    # the kernel is handed each mask of these pairs once, and no other: its
    # slots are as wide as the largest frame it is handed, so a frame past
    # int64 positions that meets no mask is no refusal
    used = np.zeros(len(masks), dtype=bool)
    used[p] = used[q] = True
    scored = [masks[k] for k in np.flatnonzero(used).tolist()]
    at = np.cumsum(used) - 1  # each used mask's index into scored
    ip, iq = at[p], at[q]
    inter = []
    block = max(min((slot_capacity(m.height, m.width) for m in scored), default=1), 1)
    for lo in range(0, p.size, block):
        inter += pair_intersections(scored, scored, ip[lo : lo + block], iq[lo : lo + block]).tolist()
    area = [m.area for m in masks]
    ious: dict[int, list[float]] = {}
    for key, x, i, j in zip(met.tolist(), inter, p.tolist(), q.tolist()):
        if x:
            ious.setdefault(key, []).append(x / (area[i] + area[j] - x))
    keys = np.fromiter(ious, dtype=np.int64, count=len(ious))
    shared = np.searchsorted(pair, keys, side="right") - np.searchsorted(pair, keys)
    return {divmod(key, n): sum(values) / count for (key, values), count in zip(ious.items(), shared.tolist())}


def trajectory_iou(a: Tracklet, b: Tracklet) -> float:
    """Average mask IOU over the frames both tracks cover; 0 if none: the
    one-pair case of the batch :func:`dedup_tracks` scores."""
    return _trajectory_ious([a, b], [0, 0]).get((0, 1), 0.0)


def dedup_tracks(tracks: list[Tracklet], cfg: FilterConfig) -> list[Tracklet]:
    """Remove duplicated trajectories, keeping the longer of each pair.

    One sweep over all same-class pairs marks the shorter one of every pair
    whose trajectory IOU exceeds the threshold (ties drop the higher id), and
    the marked set is removed. One sweep is enough: it compared every pair of
    survivors and found none above the threshold. A pair whose masks never
    meet scores 0.0, which no threshold in ``[0, 1)`` exceeds.
    """
    alive = sorted(tracks, key=lambda t: t.id)
    doomed = {
        min(alive[i], alive[j], key=lambda t: (len(t), -t.id)).id  # the shorter, or the higher id
        for (i, j), iou in _trajectory_ious(alive, [t.class_id for t in alive]).items()
        if iou > cfg.traj_iou_threshold
    }
    return [t for t in alive if t.id not in doomed]
