"""Mask-based multi-object tracking on precomputed detections.

The pipeline: detections are screened (postfilter), associated frame by
frame with a mask-IOU + appearance cost (tracker), briefly lost tracks are
retrieved by robust box extrapolation (tracker), long occlusions are healed
offline by appearance plus motion consistency (reid), and near-duplicate
tracks are pruned (postfilter). Synthetic scenarios with exact ground truth
(synth) and mask-level accuracy metrics (metrics) close the loop.
"""

from .assignment import INFEASIBLE, hungarian_solve
from .config import PipelineConfig, dump_config, load_config, parse_config_text
from .embedding import (
    FeatureBank,
    bank_similarity,
    bank_update,
    cosine_similarity,
    instance_aware_pool,
    spatial_attention,
)
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
    bbox_iou,
    mask_iou,
    mask_to_bbox,
    rle_decode,
    rle_encode,
    rle_from_string,
    rle_to_string,
)
from .metrics import EvalReport, ablation_compare, evaluate, format_report
from .pipeline import run_pipeline
from .postfilter import (
    FilterConfig,
    dedup_tracks,
    filter_detections,
    prune_tracks,
    trajectory_iou,
)
from .regression import huber_fit, least_squares_fit
from .reid import (
    ReidConfig,
    candidate_pairs,
    merge_pass,
    motion_vector,
    moving_merge_test,
    static_merge_test,
)
from .synth import (
    ScenarioSpec,
    generate,
    generate_files,
    scenario_clean,
    scenario_detector_gaps,
    scenario_long_occlusions,
)
from .tracker import (
    CAR,
    PEDESTRIAN,
    Detection,
    MaskTracker,
    Track,
    TrackerConfig,
    Tracklet,
    TrackState,
    assignment_cost,
    extrapolate_track,
)

__version__ = "0.1.0"
