"""End-to-end sequence processing: filter, track, merge, prune, dedup."""

from __future__ import annotations

from .config import PipelineConfig, resolve_for_sequence
from .formats import SequenceMeta
from .postfilter import dedup_tracks, filter_detections, prune_tracks
from .reid import merge_pass
from .tracker import Detection, MaskTracker, Tracklet


def run_pipeline(
    meta: SequenceMeta,
    dets_by_frame: dict[int, list[Detection]],
    cfg: PipelineConfig,
) -> tuple[list[Tracklet], PipelineConfig]:
    """Track one sequence; returns the final tracklets and the resolved config.

    The sequence's frame rate always wins over the configured one, and a
    camera mode left on 'auto' picks up the sequence's declared mode.
    """
    cfg = resolve_for_sequence(cfg, meta.fps, meta.camera_mode)
    tracker = MaskTracker(cfg.tracker)
    for frame in sorted(dets_by_frame):
        tracker.step(frame, filter_detections(dets_by_frame[frame], cfg.filters))
    tracklets = tracker.finalize()
    if cfg.reid.enabled:
        tracklets = merge_pass(tracklets, cfg.reid, cfg.tracker)
    tracklets = prune_tracks(tracklets, cfg.filters)
    tracklets = dedup_tracks(tracklets, cfg.filters)
    return tracklets, cfg
