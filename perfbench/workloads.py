"""Seeded scenario builders for the benchmark workloads.

Every workload is a fixed layout on a 375x1242 (KITTI-MOTS-sized) frame. The
seed perturbs positions and speeds by small amounts and drives the detector
noise (jitter, score and embedding noise), so different seeds give
different files of the same shape and nearly the same cost. Detector misses
come on a fixed schedule (``fixed_misses``).

``scale`` multiplies the object count (the scaling report uses 1/4 and 1/2);
``frames`` overrides the sequence length (the self-tests use tiny sizes).
"""

from __future__ import annotations

import numpy as np

from masktrack import formats, synth
from masktrack.synth import DetectorModel, EmbeddingModel, ObjectSpec, ScenarioSpec, VisibilityEvent
from masktrack.tracker import CAR, PEDESTRIAN

IMG_H, IMG_W = 375, 1242
FPS = 10.0  # KITTI rate: n1 = 1 frame (car) / 2 (pedestrian), n2 = 5 / 10

CROWD = dict(objects=16, frames=40)
FRAGMENTS = dict(objects=48, frames=240)
FEATURES = dict(objects=6, frames=200, channels=32, grid=7)

# per-slot sizes (w, h); the seed never changes a size, since mask cost
# grows with mask width
CAR_SIZES = [(72.0, 36.0), (80.0, 40.0), (88.0, 44.0), (76.0, 38.0)]
PED_SIZES = [(16.0, 44.0), (18.0, 48.0), (20.0, 52.0), (22.0, 46.0)]


def _jitter(rng, scale):
    return float(rng.uniform(-scale, scale))


def _lane_object(rng, class_id, size, y, speed, frames, slot):
    """A horizontal mover that stays inside the image for ``frames`` frames.

    Even slots move right, odd slots left; the start sits at a fixed,
    slot-dependent share of the free room, so lanes cross the same way
    for every seed.
    """
    w, h = size
    travel = speed * (frames - 1)
    room = IMG_W - w - travel
    if room < 0:
        raise ValueError(f"speed {speed} too high for {frames} frames")
    share = 0.1 + ((slot * 0.37) % 0.8) + _jitter(rng, 0.02)
    if slot % 2 == 0:
        x0, vx = share * room, speed
    else:
        x0, vx = travel + share * room, -speed
    return ObjectSpec(class_id=class_id, width=w, height=h, start_x=x0, start_y=y, vx=vx)


def fixed_misses(n: int, frames: int, period: int) -> list[VisibilityEvent]:
    """One-frame detector misses on a fixed schedule, one frame in ``period`` per object.

    Seeded dropout would change with the seed how many frames run
    short-term retrieval, and ``step_ms_p95`` would move with it.
    """
    return [
        VisibilityEvent(i, t, 1) for i in range(n) for t in range(1, frames + 1) if (t + 11 * i) % period == 0
    ]


def crowd_spec(seed: int, scale: float = 1.0, frames: int | None = None) -> ScenarioSpec:
    """Cars and pedestrians in shared lanes, half moving each way, so paths cross."""
    rng = np.random.default_rng([seed, 1])
    frames = frames or CROWD["frames"]
    n = max(2, int(round(CROWD["objects"] * scale)))
    objects = []
    for i in range(n):
        lane = (i // 4) % 2
        if i % 4 < 2:  # cars on two overlapping road lanes
            y = 200.0 + 30.0 * lane + _jitter(rng, 2.0)
            speed = 3.0 + (i % 3) * 0.8 + _jitter(rng, 0.1)
            objects.append(_lane_object(rng, CAR, CAR_SIZES[(i // 2) % 4], y, speed, frames, i))
        else:  # pedestrians on two sidewalk lanes
            y = 110.0 + 25.0 * lane + _jitter(rng, 2.0)
            speed = 1.5 + (i % 3) * 0.4 + _jitter(rng, 0.05)
            objects.append(
                _lane_object(rng, PEDESTRIAN, PED_SIZES[(i // 2) % 4], y, speed, frames, i)
            )
    # a few occlusions longer than n1 but shorter than n2, so reid has work
    occlusions = []
    for k, idx in enumerate(range(0, n, 5)):
        start = int(frames * (0.25 + 0.2 * (k % 3)))
        length = 3 if objects[idx].class_id == CAR else 4
        if start + length < frames:
            occlusions.append(VisibilityEvent(idx, start, length))
    return ScenarioSpec(
        name="crowd",
        frames=frames,
        img_h=IMG_H,
        img_w=IMG_W,
        fps=FPS,
        camera_mode="moving",
        objects=objects,
        occlusions=occlusions,
        dropouts=fixed_misses(n, frames, 20),
        detector=DetectorModel(dropout=0.0, score_mean=0.85, score_sigma=0.05, jitter_sigma=0.7),
        embedding=EmbeddingModel(dim=32, noise_sigma=0.1),
        seed=seed,
    )


def fragments_spec(seed: int, scale: float = 1.0, frames: int | None = None) -> ScenarioSpec:
    """Staggered pedestrians, each hidden every ~14 frames for 4-7 frames.

    Lifetimes are spaced evenly over a window wider than the sequence, so
    about as many pedestrians are alive in the first and last frames as in
    the middle; the per-frame cost then has one mode, not a ramp.
    """
    rng = np.random.default_rng([seed, 2])
    frames = frames or FRAGMENTS["frames"]
    n = max(2, int(round(FRAGMENTS["objects"] * scale)))
    life = max(8, frames // 4)
    spacing = (frames + life - 2) / max(1, n - 1)
    objects, occlusions = [], []
    for i in range(n):
        start = 2 - life + int(round(i * spacing))
        birth, death = max(1, start), min(frames, start + life - 1)
        if death - birth < min(life - 1, 10):
            continue  # clipped to a stub by the sequence ends
        idx = len(objects)
        w, h = PED_SIZES[i % 4]
        vx = (0.6 + 0.2 * (i % 4) + _jitter(rng, 0.05)) * (1 if i % 2 == 0 else -1)
        vy = 0.1 * ((i % 3) - 1) + _jitter(rng, 0.02)
        # columns and rows spread over the frame, far enough from the edges
        x0 = 140.0 + ((i * 7) % 12) * 86.0 + _jitter(rng, 3.0)
        y0 = 40.0 + ((i * 5) % 4) * 75.0 + _jitter(rng, 3.0)
        objects.append(
            ObjectSpec(
                class_id=PEDESTRIAN, width=w, height=h, start_x=x0, start_y=y0,
                vx=vx, vy=vy, birth=birth, death=death,
            )
        )
        # hidden for 4..7 frames: beyond n1 (2) so the track ends, within n2 (10)
        t = birth + 8 + (i % 3) + int(rng.integers(0, 2))
        k = 0
        while True:
            length = 4 + (i + k) % 4
            if t + length >= death - 5:
                break
            occlusions.append(VisibilityEvent(idx, t, length))
            t += length + 8 + int(rng.integers(0, 2))
            k += 1
    return ScenarioSpec(
        name="fragments",
        frames=frames,
        img_h=IMG_H,
        img_w=IMG_W,
        fps=FPS,
        camera_mode="static",
        objects=objects,
        occlusions=occlusions,
        dropouts=fixed_misses(len(objects), frames, 33),
        detector=DetectorModel(dropout=0.0, score_mean=0.85, score_sigma=0.05, jitter_sigma=0.4),
        embedding=EmbeddingModel(dim=max(32, n), noise_sigma=0.1),
        seed=seed,
    )


def features_spec(seed: int, scale: float = 1.0, frames: int | None = None) -> ScenarioSpec:
    """A few slow objects on a static camera, two of them briefly occluded.

    Rows are 62 px apart and no object is taller than 52 px, so no two
    masks ever overlap; were they closer, the seed's few pixels of jitter
    would decide whether neighbouring rows touch.
    """
    rng = np.random.default_rng([seed, 3])
    frames = frames or FEATURES["frames"]
    n = max(2, int(round(FEATURES["objects"] * scale)))
    objects = []
    for i in range(n):
        y = 10.0 + 62.0 * i + _jitter(rng, 3.0)
        if i % 2 == 0:
            speed = 2.0 + 0.3 * (i % 3) + _jitter(rng, 0.05)
            objects.append(_lane_object(rng, CAR, CAR_SIZES[i % 4], y, speed, frames, i))
        else:
            speed = 1.0 + 0.2 * (i % 3) + _jitter(rng, 0.05)
            objects.append(_lane_object(rng, PEDESTRIAN, PED_SIZES[i % 4], y, speed, frames, i))
    occlusions = [
        VisibilityEvent(0, frames // 3, 3),
        VisibilityEvent(1, frames // 2, 5),
    ]
    return ScenarioSpec(
        name="features",
        frames=frames,
        img_h=IMG_H,
        img_w=IMG_W,
        fps=FPS,
        camera_mode="static",
        objects=objects,
        occlusions=occlusions,
        dropouts=fixed_misses(n, frames, 33),
        detector=DetectorModel(dropout=0.0, score_mean=0.85, score_sigma=0.05, jitter_sigma=0.5),
        embedding=EmbeddingModel(dim=FEATURES["channels"], noise_sigma=0.1),
        seed=seed,
    )


SPECS = {"crowd": crowd_spec, "fragments": fragments_spec, "features": features_spec}


def attach_feature_maps(dets_by_frame, seed: int, grid: int = FEATURES["grid"]):
    """Swap each detection's embedding for a (grid, grid, C) map around it.

    Every cell holds the embedding plus independent noise, so pooling under
    any attention recovers a vector close to the original embedding.
    """
    rng = np.random.default_rng([seed, 4])
    for frame in sorted(dets_by_frame):
        for det in dets_by_frame[frame]:
            emb = det.embedding
            noise = rng.normal(0.0, 0.05, (grid, grid, emb.size))
            det.feature_map = emb[None, None, :] + noise
            det.embedding = None


def write_inputs(workload: str, seed: int, dets_path: str, gt_path: str, scale: float = 1.0,
                 frames: int | None = None):
    """What ``masktrack synth`` does for this workload: generate, then write both files."""
    meta, dets_by_frame, gt_records = synth.generate(SPECS[workload](seed, scale, frames))
    if workload == "features":
        attach_feature_maps(dets_by_frame, seed)
    formats.write_detections(meta, dets_by_frame, dets_path)
    formats.write_records(gt_records, gt_path)
