"""Offline recovery of identities split by long occlusion.

Tracklet pairs that do not overlap in time, sit close enough in time, and
look alike are re-connected when their motion agrees. Static cameras bridge
the gap geometrically: both fragments are extrapolated into the gap and must
overlap on average. Moving cameras compare mean top-left displacement
vectors by cosine instead, since extrapolated positions drift with the ego
motion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .embedding import (
    bank_cross_similarities,
    bank_cross_similarity,
    cosine_similarity,
    merge_banks,
)
from .errors import ConfigError
from .geometry import bbox_iou
from .tracker import (
    CAR,
    PEDESTRIAN,
    Tracklet,
    TrackerConfig,
    extrapolate_track,
    seconds_to_frames,
)

CAMERA_MODES = ("static", "moving")


@dataclass
class ReidConfig:
    n2_seconds: dict[int, float] = field(
        default_factory=lambda: {CAR: 0.5, PEDESTRIAN: 1.0}
    )
    n3_frames: int = 5
    beta1: float = 0.6
    beta2: float = 0.5
    beta3: float = 0.8
    camera_mode: str = "auto"
    enabled: bool = True

    def n2_frames(self, class_id: int, fps: float) -> int:
        return seconds_to_frames(self.n2_seconds[class_id], fps)


def motion_vector(tracklet: Tracklet, end: str, n3: int) -> np.ndarray:
    """Mean consecutive top-left displacement ``[dx, dy]`` over the first or last ``n3`` frames.

    ``end`` is 'head' or 'tail'. A single-observation tracklet yields the
    zero vector, which has no direction. ``n3`` below 1 is refused.
    """
    if n3 < 1:
        raise ConfigError(f"n3 must be >= 1, got {n3}")
    if end == "head":
        window = tracklet.observations[: min(n3, len(tracklet))]
    elif end == "tail":
        window = tracklet.observations[-min(n3, len(tracklet)) :]
    else:
        raise ValueError(f"end must be 'head' or 'tail', got {end!r}")
    if len(window) < 2:
        return np.zeros(2)
    xs = np.array([o.box.x for o in window])
    ys = np.array([o.box.y for o in window])
    return np.array([np.mean(np.diff(xs)), np.mean(np.diff(ys))])


def candidate_pairs(
    tracklets: list[Tracklet], cfg: ReidConfig, fps: float
) -> list[tuple[int, int, float]]:
    """Ordered index pairs (u, v, sim) eligible for merging, in (u, v) order.

    The gap between u's last frame and v's first must hold 0 to n2 frames
    (u ends before v starts, within u's class's long-term window), and the
    banks must look alike (max pairwise cosine sim above beta1). Only the
    tracklets that start inside u's window are visited: two bisections of the
    tracklets sorted by first frame find them, and the banks of the
    same-class ones meet u's bank in one cosine call.
    """
    order = sorted(range(len(tracklets)), key=lambda j: tracklets[j].first_frame)
    starts = [tracklets[j].first_frame for j in order]
    pairs = []
    for i, u in enumerate(tracklets):
        lo = bisect_right(starts, u.last_frame)
        hi = bisect_right(starts, u.last_frame + cfg.n2_frames(u.class_id, fps) + 1)
        js = sorted(j for j in order[lo:hi] if tracklets[j].class_id == u.class_id)
        if js:
            sims = bank_cross_similarities(u.bank, [tracklets[j].bank for j in js])
            pairs.extend((i, j, sim) for j, sim in zip(js, sims.tolist()) if sim > cfg.beta1)
    return pairs


def static_merge_test(
    u: Tracklet, v: Tracklet, cfg: ReidConfig, tracker_cfg: TrackerConfig
) -> bool:
    """Do forward and backward extrapolations overlap across the gap?

    Every gap frame gets u extrapolated forward and v backward, from one fit
    per fragment end; the mean box IOU must exceed beta2. Adjacent tracklets
    compare u's last box with v's first directly.
    """
    gap = range(u.last_frame + 1, v.first_frame)
    if not gap:
        return bbox_iou(u.observations[-1].box, v.observations[0].box) > cfg.beta2
    forward = extrapolate_track(u, gap, tracker_cfg)
    backward = extrapolate_track(v, gap, tracker_cfg)
    ious = [bbox_iou(a, b) for a, b in zip(forward, backward)]
    return float(np.mean(ious)) > cfg.beta2


def moving_merge_test(u: Tracklet, v: Tracklet, cfg: ReidConfig) -> bool:
    """Do the two fragments move the same way?

    Compares u's tail motion with v's head motion by cosine; requires a
    positive value above beta3. A zero vector has no direction: its cosine
    is 0.0, which rejects the pair.
    """
    mu = motion_vector(u, "tail", cfg.n3_frames)
    mv = motion_vector(v, "head", cfg.n3_frames)
    return cosine_similarity(mu, mv) > max(0.0, cfg.beta3)


def _stitch(parts: list[Tracklet]) -> Tracklet:
    return Tracklet(
        id=parts[0].id,
        class_id=parts[0].class_id,
        observations=[o for p in parts for o in p.observations],
        bank=reduce(merge_banks, (p.bank for p in parts)),
    )


def merge_pass(
    tracklets: list[Tracklet],
    cfg: ReidConfig,
    tracker_cfg: TrackerConfig,
) -> list[Tracklet]:
    """Greedily merge candidate pairs until none passes.

    Candidates are taken in order of descending feature similarity; each
    tracklet gives away its tail and its head at most once per pass.
    Accepted links are stitched (chains included), keeping the earlier id,
    and the whole procedure repeats on the merged set until it is stable.
    ``cfg.camera_mode`` must already be resolved: 'auto' raises ValueError.
    """
    if cfg.camera_mode not in CAMERA_MODES:
        raise ValueError(f"camera_mode must be one of {CAMERA_MODES}, got {cfg.camera_mode!r}")
    current = sorted(tracklets, key=lambda t: t.id)
    while True:
        cands = sorted(
            (-sim, current[i].id, current[j].id, i, j)
            for i, j, sim in candidate_pairs(current, cfg, tracker_cfg.fps)
        )
        links: dict[int, int] = {}  # tail index -> head index
        heads: set[int] = set()
        for _, _, _, i, j in cands:
            if i in links or j in heads:
                continue
            if cfg.camera_mode == "static":
                ok = static_merge_test(current[i], current[j], cfg, tracker_cfg)
            else:
                ok = moving_merge_test(current[i], current[j], cfg)
            if ok:
                links[i] = j
                heads.add(j)
        if not links:
            return current
        # each chain keeps its first part's id, so the result stays in id order
        result = []
        for idx, tr in enumerate(current):
            if idx in heads:
                continue
            chain, k = [tr], idx
            while k in links:
                k = links[k]
                chain.append(current[k])
            result.append(_stitch(chain) if len(chain) > 1 else tr)
        current = result
