"""Detection filters applied before tracking and track cleanup applied after.

Raw detector output carries many false positives, so detections are screened
by confidence, box size and aspect ratio before association. After tracking
and merging, short or low-confidence tracks are discarded, and near-duplicate
trajectories (average mask IOU over shared frames above a threshold) keep
only the longer member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import mask_iou
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


def trajectory_iou(a: Tracklet, b: Tracklet) -> float:
    """Average mask IOU over the frames both tracks cover; 0 if none."""
    masks_b = {o.frame: o.mask for o in b.observations}
    ious = [
        mask_iou(o.mask, masks_b[o.frame])
        for o in a.observations
        if o.frame in masks_b
    ]
    if not ious:
        return 0.0
    return sum(ious) / len(ious)


def dedup_tracks(tracks: list[Tracklet], cfg: FilterConfig) -> list[Tracklet]:
    """Remove duplicated trajectories, keeping the longer of each pair.

    One sweep over all same-class pairs marks the shorter one of every pair
    whose trajectory IOU exceeds the threshold (ties drop the higher id), and
    the marked set is removed. One sweep is enough: it compared every pair of
    survivors and found none above the threshold.
    """
    alive = sorted(tracks, key=lambda t: t.id)
    doomed: set[int] = set()
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            if a.class_id != b.class_id:
                continue
            if trajectory_iou(a, b) <= cfg.traj_iou_threshold:
                continue
            if len(a) < len(b):
                loser = a
            elif len(b) < len(a):
                loser = b
            else:
                loser = a if a.id > b.id else b
            doomed.add(loser.id)
    return [t for t in alive if t.id not in doomed]
