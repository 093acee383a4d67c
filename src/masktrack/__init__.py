"""Mask-based multi-object tracking on precomputed detections.

The pipeline: detections are screened (postfilter), associated frame by
frame with a mask-IOU + appearance cost (tracker), briefly lost tracks are
retrieved by robust box extrapolation (tracker), long occlusions are healed
offline by appearance plus motion consistency (reid), and near-duplicate
tracks are pruned (postfilter). Synthetic scenarios with exact ground truth
(synth) and mask-level accuracy metrics (metrics) close the loop.

This package re-exports the user-level API listed in ``__all__``: running
the pipeline, its config, the file formats, evaluation, the mask codec and
the synthetic scenarios. Stage internals are imported from their own module,
e.g. ``from masktrack.reid import candidate_pairs``.
"""

from .config import PipelineConfig, dump_config, load_config, parse_config_text
from .formats import (
    ResultRecord,
    SequenceMeta,
    load_detections,
    read_results,
    render_overlays,
    write_detections,
    write_results,
)
from .geometry import (
    BBox,
    BinaryMask,
    mask_iou,
    rle_decode,
    rle_encode,
    rle_from_string,
    rle_to_string,
)
from .metrics import EvalReport, evaluate, format_report
from .pipeline import run_pipeline
from .synth import (
    ScenarioSpec,
    generate,
    generate_files,
    scenario_clean,
    scenario_detector_gaps,
    scenario_long_occlusions,
)
from .tracker import CAR, PEDESTRIAN, Detection, Tracklet

__all__ = [
    "run_pipeline",
    "PipelineConfig",
    "load_config",
    "parse_config_text",
    "dump_config",
    "load_detections",
    "write_detections",
    "read_results",
    "write_results",
    "render_overlays",
    "evaluate",
    "format_report",
    "EvalReport",
    "SequenceMeta",
    "ResultRecord",
    "Detection",
    "Tracklet",
    "CAR",
    "PEDESTRIAN",
    "BBox",
    "BinaryMask",
    "mask_iou",
    "rle_encode",
    "rle_decode",
    "rle_to_string",
    "rle_from_string",
    "ScenarioSpec",
    "generate",
    "generate_files",
    "scenario_clean",
    "scenario_detector_gaps",
    "scenario_long_occlusions",
]

__version__ = "0.1.0"
