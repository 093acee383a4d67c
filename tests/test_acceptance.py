"""Acceptance suite: one test per criterion, each printing a pass line.

Benchmark-scale accuracy on real video needs real detector output and is
outside what this repository can verify; the criteria below check the same
machinery end to end on synthetic sequences with exact ground truth, plus
independent oracles for the assignment, geometry and regression primitives.
Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines).
"""

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from helpers import least_squares_fit, matching_cost

from masktrack import pipeline, reid, tracker
from masktrack.assignment import INFEASIBLE, hungarian_solve
from masktrack.config import PipelineConfig, load_config, parse_config_text
from masktrack.formats import load_detections, read_results, records_from_tracks, write_detections
from masktrack.geometry import (
    mask_intersection_area,
    mask_iou,
    rle_encode,
    rle_from_string,
    rle_to_string,
)
from masktrack.metrics import evaluate, format_report
from masktrack.pipeline import run_pipeline
from masktrack.regression import huber_fit
from masktrack.reid import ReidConfig, motion_vector, moving_merge_test
from masktrack.synth import (
    DetectorModel,
    EmbeddingModel,
    ObjectSpec,
    ScenarioSpec,
    VisibilityEvent,
    generate,
    generate_files,
    scenario_clean,
    scenario_detector_gaps,
    scenario_long_occlusions,
)
from masktrack.tracker import CAR, PEDESTRIAN

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
# the benchmark's seeded workload builders
PERFBENCH = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


def announce(name, detail=""):
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


def no_str_config():
    base = PipelineConfig()
    return PipelineConfig(replace(base.tracker, str_enabled=False), base.reid, base.filters)


def no_reid_config():
    base = PipelineConfig()
    return PipelineConfig(base.tracker, replace(base.reid, enabled=False), base.filters)


def run_scenario(spec, cfg=None):
    meta, dets, gt = generate(spec)
    tracks, _ = run_pipeline(meta, dets, cfg or PipelineConfig())
    report = evaluate(records_from_tracks(tracks, meta), gt)
    return tracks, report


def test_assignment_matches_exhaustive_minimum():
    """200 random cost matrices up to 7x7 with 10% infeasible entries."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        n, m = (int(v) for v in rng.integers(1, 8, 2))
        costs = rng.uniform(0.0, 3.0, (n, m))
        costs[rng.random((n, m)) < 0.1] = INFEASIBLE
        pairs = hungarian_solve(costs)
        best = None
        if n <= m:
            for perm in permutations(range(m), n):
                chosen = [(i, perm[i]) for i in range(n) if np.isfinite(costs[i, perm[i]])]
                key = (-len(chosen), sum(costs[r, c] for r, c in chosen))
                best = key if best is None or key < best else best
        else:
            for perm in permutations(range(n), m):
                chosen = [(perm[j], j) for j in range(m) if np.isfinite(costs[perm[j], j])]
                key = (-len(chosen), sum(costs[r, c] for r, c in chosen))
                best = key if best is None or key < best else best
        assert len(pairs) == -best[0]
        assert matching_cost(costs, pairs) == pytest.approx(best[1], abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce("assignment equals exhaustive-permutation minimum", f"{elapsed:.2f}s")


def test_mask_geometry_oracle():
    """500 random masks up to 64x64: run-level IOU vs pixel brute force and
    bit-exact string codec round trips."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(500):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        g1 = rng.random((h, w)) < rng.uniform(0, 1)
        g2 = rng.random((h, w)) < rng.uniform(0, 1)
        m1, m2 = rle_encode(g1), rle_encode(g2)
        inter = int((g1 & g2).sum())
        union = int((g1 | g2).sum())
        ref = inter / union if union else 0.0
        assert abs(mask_iou(m1, m2) - ref) <= 1e-12
        for mask in (m1, m2):
            token = rle_to_string(mask)
            back = rle_from_string(token, mask.height, mask.width)
            assert back == mask
            assert rle_to_string(back) == token
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce("mask IOU matches brute force; string codec round-trips", f"{elapsed:.2f}s")


def test_clean_scene_perfect_score():
    """Noise-free five-object scene tracks to a perfect score."""
    start = time.perf_counter()
    tracks, report = run_scenario(scenario_clean())
    elapsed = time.perf_counter() - start
    assert report.total.smotsa == 1.0
    assert report.total.ids == 0
    assert len(tracks) == 5
    assert elapsed < 2.0
    announce("clean scene: smotsa 1.0, no id switches", f"{elapsed:.2f}s")


def test_gap_retrieval_prevents_id_switches():
    """Detector gaps inside the short-term window: retrieval keeps the ids;
    disabling it costs at least one switch per gap."""
    start = time.perf_counter()
    spec = scenario_detector_gaps()
    _, with_str = run_scenario(spec)
    _, without = run_scenario(spec, no_str_config())
    elapsed = time.perf_counter() - start
    assert with_str.total.ids == 0
    assert without.total.ids >= 3
    assert elapsed < 2.0
    announce(
        "short-term retrieval bridges detector gaps",
        f"ids {with_str.total.ids} vs {without.total.ids}, {elapsed:.2f}s",
    )


def test_occlusion_merging_restores_identities():
    """Occlusions longer than the short-term window split tracks; the offline
    merger reunites them under both camera models."""
    start = time.perf_counter()
    for mode in ("static", "moving"):
        spec = scenario_long_occlusions(mode)
        meta, dets, gt = generate(spec)
        tracks, _ = run_pipeline(meta, dets, PipelineConfig())
        report = evaluate(records_from_tracks(tracks, meta), gt)
        assert report.total.ids == 0, mode
        assert len(tracks) == 5, mode
        fragments, _ = run_pipeline(meta, dets, no_reid_config())
        assert len(fragments) >= 8, mode
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    announce("occlusion merging restores identities in both camera modes", f"{elapsed:.2f}s")


def test_robust_fit_beats_least_squares():
    """20-point lines, 10% outliers at 100x magnitude clustered in one third
    of the window: the robust fit stays within 1e-2 of the true slope while
    plain least squares is off by more than 0.5."""
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    t = 5.0 * np.arange(20)
    for _ in range(20):
        slope = float(rng.uniform(0.5, 2.0))
        intercept = float(rng.uniform(5.0, 10.0))
        v = slope * t + intercept
        lo = int(rng.integers(0, 2)) * 13  # cluster sits early or late
        i, j = sorted(rng.choice(range(lo, lo + 7), size=2, replace=False))
        v[[i, j]] *= 100.0
        huber_slope, _ = huber_fit(t, v, delta=1.0)
        ls_slope, _ = least_squares_fit(t, v)
        assert abs(huber_slope - slope) < 1e-2
        assert abs(ls_slope - slope) > 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce("robust fit recovers slopes least squares cannot", f"{elapsed:.2f}s")


def test_motion_vector_telescoping_and_scale_invariance():
    """Mean displacement equals the endpoint difference exactly on 100 random
    tracklets; merge decisions ignore uniform positive velocity scaling."""
    from helpers import make_tracklet, unit

    rng = np.random.default_rng(1004)
    for _ in range(100):
        k = int(rng.integers(2, 15))
        xs = rng.integers(0, 120, k).astype(float)
        ys = rng.integers(0, 80, k).astype(float)
        tr = make_tracklet(
            2001, [(i + 1, float(xs[i]), float(ys[i])) for i in range(k)], unit(0)
        )
        n3 = int(rng.integers(2, 9))
        for end in ("head", "tail"):
            m = min(n3, k)
            wx = xs[:m] if end == "head" else xs[-m:]
            wy = ys[:m] if end == "head" else ys[-m:]
            vec = motion_vector(tr, end, n3)
            assert vec[0] == (wx[-1] - wx[0]) / (m - 1)
            assert vec[1] == (wy[-1] - wy[0]) / (m - 1)

    def fragment(track_id, start, vx, vy):
        return make_tracklet(
            track_id,
            [(start + i, 60.0 + vx * i, 40.0 + vy * i) for i in range(8)],
            unit(0),
        )

    cfg = ReidConfig()
    for _ in range(50):
        vxa, vya, vxb, vyb = rng.uniform(-3, 3, 4)
        scale = float(rng.uniform(0.05, 20.0))
        plain = moving_merge_test(fragment(2001, 1, vxa, vya), fragment(2002, 20, vxb, vyb), cfg)
        scaled = moving_merge_test(
            fragment(2001, 1, scale * vxa, scale * vya),
            fragment(2002, 20, scale * vxb, scale * vyb),
            cfg,
        )
        assert plain == scaled
    announce("motion vectors telescope exactly and decisions are scale-free")


def test_end_to_end_determinism(tmp_path):
    """The track command writes byte-identical outputs on repeat runs and the
    echoed config reloads to the identical effective configuration."""
    spec = scenario_long_occlusions("static")
    dets_path, _ = generate_files(spec, str(tmp_path / "data"))

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "masktrack", "track", dets_path, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    name = spec.name + ".txt"
    first = (outputs[0] / name).read_bytes()
    second = (outputs[1] / name).read_bytes()
    assert first == second and len(first) > 0
    assert (outputs[0] / "config.txt").read_bytes() == (outputs[1] / "config.txt").read_bytes()

    echoed = load_config(str(outputs[0] / "config.txt"))
    assert echoed.tracker.fps == spec.fps
    assert echoed.reid.camera_mode == "static"
    assert parse_config_text((outputs[0] / "config.txt").read_text()) == echoed
    announce("end-to-end runs are byte-identical; config echo round-trips")


def scenario_crossing():
    """Eight cars and eight pedestrians in two shared lanes, half of them
    moving each way, so same-frame masks overlap wherever paths cross. The
    seed scenarios never overlap, so only this one sees how overlaps are
    resolved on write."""
    objects = []
    for i in range(16):
        car = i % 4 < 2
        w, h = (60.0, 30.0) if car else (14.0, 36.0)
        speed = (4.0 if car else 2.0) + 0.5 * (i % 3)
        y = (150.0, 240.0)[(i // 2) % 2] + 3.0 * (i // 4)
        slot = i // 4
        if i % 2 == 0:
            x, vx = 20.0 + 60.0 * slot, speed
        else:
            x, vx = 620.0 - w - 60.0 * slot, -speed
        objects.append(
            ObjectSpec(
                class_id=CAR if car else PEDESTRIAN,
                width=w,
                height=h,
                start_x=x,
                start_y=y,
                vx=vx,
            )
        )
    return ScenarioSpec(
        name="crossing",
        frames=40,
        camera_mode="moving",
        objects=objects,
        detector=DetectorModel(score_mean=0.9, score_sigma=0.03, jitter_sigma=0.5),
        embedding=EmbeddingModel(dim=16, noise_sigma=0.1),
        seed=5,
    )


def scenario_reid(n=40, cars=False, name="reid"):
    """``n`` pedestrians (forty by default) on a static camera, born five
    frames apart and alive for sixty frames each, so a dozen are on screen at
    once, each in its own slot of a 4x3 grid. Every one is hidden again and
    again for 6-11 frames: longer than the tracker's 5-frame memory, so each
    occlusion ends a track, and within reid's 25-frame window, so only the
    offline merger can join the fragments.

    The sequence runs 5n + 40 frames. The embedding has a dimension per
    object past forty, its noise scaled so that the noise vector's expected
    norm stays what it is at forty. With ``cars`` every second object is a
    car, whose 3-frame memory the same occlusions exceed and whose 13-frame
    reid window they stay within."""
    frames = 5 * n + 40
    dim = max(40, n)
    objects, occlusions = [], []
    for i in range(n):
        birth = 1 + 5 * i
        death = min(frames, birth + 59)
        row, col = divmod(i % 12, 4)
        sign = 1 if (row + col) % 2 == 0 else -1
        car = cars and i % 2 == 1
        objects.append(
            ObjectSpec(
                class_id=CAR if car else PEDESTRIAN,
                width=40.0 if car else 14.0,
                height=24.0 if car else 36.0,
                start_x=100.0 + 150.0 * col,
                start_y=60.0 + 150.0 * row,
                vx=sign * (0.5 + 0.25 * (i % 3)),
                vy=0.2 * ((i % 3) - 1),
                birth=birth,
                death=death,
            )
        )
        t, k = birth + 10 + i % 4, 0
        while True:
            length = 6 + (i + k) % 6
            if t + length >= death - 8:
                break
            occlusions.append(VisibilityEvent(i, t, length))
            t += length + 10 + k % 3
            k += 1
    return ScenarioSpec(
        name=name,
        frames=frames,
        objects=objects,
        occlusions=occlusions,
        detector=DetectorModel(score_mean=0.9, score_sigma=0.03, jitter_sigma=0.5),
        embedding=EmbeddingModel(dim=dim, noise_sigma=0.1 * (40 / dim) ** 0.5),
        seed=7,
    )


def scenario_long_reid():
    """The reid scenario grown to 160 objects over 840 frames, every second
    one a car: the tracker leaves 479 tracklets for the offline merger, and
    each one's n2 window holds only the few that start soon after it ends."""
    return scenario_reid(160, cars=True, name="long_reid")


def scenario_features():
    """Six objects whose detections carry feature maps in place of
    embeddings, so every appearance vector comes from pooling under the
    mask. Two of them are hidden for longer than the tracker's memory, so
    reid compares banks of pooled vectors too."""
    lanes = [30.0, 100.0, 170.0, 240.0, 310.0, 380.0]
    return ScenarioSpec(
        name="features",
        frames=60,
        objects=[
            ObjectSpec(
                class_id=CAR if i % 2 else PEDESTRIAN,
                width=40.0 if i % 2 else 14.0,
                height=24.0 if i % 2 else 36.0,
                start_x=20.0 + 30.0 * i,
                start_y=y,
                vx=2.0 + 0.5 * i,
            )
            for i, y in enumerate(lanes)
        ],
        occlusions=[VisibilityEvent(1, 20, 10), VisibilityEvent(4, 30, 12)],
        dropouts=[VisibilityEvent(2, 15, 3)],
        detector=DetectorModel(score_mean=0.9, score_sigma=0.03, jitter_sigma=0.5),
        embedding=EmbeddingModel(dim=8, noise_sigma=0.1),
        seed=9,
    )


def scenario_twenty():
    """Ten cars and ten pedestrians under a moving camera, a car and a
    pedestrian to each of ten rows, the rows moving alternately right and
    left with a slight vertical drift. Every object is hidden once, for
    longer than the tracker's memory of its class and within reid's window,
    so only the motion-direction test can join its two fragments."""
    objects, occlusions = [], []
    for row in range(10):
        y = 15.0 + 46.0 * row
        sign = 1 if row % 2 == 0 else -1
        vy = 0.1 * ((row % 3) - 1)
        car_speed = 2.5 + 0.5 * (row % 3)
        ped_speed = 1.0 + 0.25 * (row % 3)
        car_x = 20.0 if sign > 0 else 560.0
        objects.append(ObjectSpec(CAR, 60.0, 30.0, car_x, y + 3.0, sign * car_speed, vy))
        ped_x = 380.0 if sign > 0 else 246.0
        objects.append(ObjectSpec(PEDESTRIAN, 14.0, 36.0, ped_x, y, sign * ped_speed, vy))
        occlusions.append(VisibilityEvent(2 * row, 12 + 2 * row, 6 + row % 5))
        occlusions.append(VisibilityEvent(2 * row + 1, 20 + row, 8 + 2 * (row % 5)))
    return ScenarioSpec(
        name="twenty",
        frames=60,
        camera_mode="moving",
        objects=objects,
        occlusions=occlusions,
        detector=DetectorModel(score_mean=0.9, score_sigma=0.03, jitter_sigma=0.5),
        embedding=EmbeddingModel(dim=32, noise_sigma=0.1),
        seed=13,
    )


def with_feature_maps(dets_by_frame, grid=4, seed=9):
    """Each detection again, its embedding swapped for a (grid, grid, C) map
    whose every cell holds the embedding plus independent noise."""
    rng = np.random.default_rng(seed)
    return {
        frame: [
            replace(
                det,
                embedding=None,
                feature_map=det.embedding + rng.normal(0.0, 0.05, (grid, grid, det.embedding.size)),
            )
            for det in dets
        ]
        for frame, dets in dets_by_frame.items()
    }


GOLDEN_RESULT_SHA256 = {
    "clean": "477ff2ea84755f4935d19b3b514a343f19d4be4177c9294969ce3e7ec1faf452",
    "gaps": "3b910aafa18d7893a299ba3314062ff087d5a1b00133aef3bc8ce53093816605",
    # both camera modes keep every identity, so they write the same lines
    "occlusions_static": "7672a194b4c62dc26d24e132e15bda79f0b63c263726f3792e493b8a2b657043",
    "occlusions_moving": "7672a194b4c62dc26d24e132e15bda79f0b63c263726f3792e493b8a2b657043",
    "crossing": "4f952d02b7b6ccb9ff9da7addf1c726ff1364e2811a91ac5f98fbeca330f4e3d",
    "reid": "3d2d136dab9713e359d940eb1674f0a68f90b229f2c89e3b683e310ef4dcc5e1",
    "features": "b15b0f64c242ad1a2208e46df251444e74323f24d8db940bcdffffb77d17ab71",
    "twenty": "51f4ed08ef1b333b19adee50208725aa2cecddbebde599776c0a305313d1c707",
    "long_reid": "9770e6e9a6ec451c3702c661c4927aa0328ccff3a724b2e666dd4e113c813190",
}
GOLDEN_CROSSING_GT_SHA256 = "00669fa1092d1d1bbed215df25e6135dc226b0354e7cf15c8a9fa3f856fef026"


def lines_sha256(records):
    return hashlib.sha256("\n".join(r.to_line() for r in records).encode("ascii")).hexdigest()


def overlapping_pairs(masks_by_frame):
    return sum(
        mask_intersection_area(a, b) > 0
        for masks in masks_by_frame.values()
        for i, a in enumerate(masks)
        for b in masks[i + 1 :]
    )


GOLDEN_SCENARIOS = [
    ("clean", scenario_clean()),
    ("gaps", scenario_detector_gaps()),
    ("occlusions_static", scenario_long_occlusions("static")),
    ("occlusions_moving", scenario_long_occlusions("moving")),
    ("crossing", scenario_crossing()),
    ("reid", scenario_reid()),
    ("features", scenario_features()),
    ("twenty", scenario_twenty()),
    ("long_reid", scenario_long_reid()),
]


@pytest.mark.parametrize("name, spec", GOLDEN_SCENARIOS)
def test_result_lines_match_golden_hash(name, spec):
    """The default-config result lines hash to fixed values, so a change that
    alters any written mask, id or frame fails here, not only run to run."""
    meta, dets, _ = generate(spec)
    if name == "features":
        dets = with_feature_maps(dets)
    tracks, _ = run_pipeline(meta, dets, PipelineConfig())
    assert lines_sha256(records_from_tracks(tracks, meta)) == GOLDEN_RESULT_SHA256[name]
    announce(f"{name} result lines match the golden hash")


# sha256 of format_report's table, a newline and repr(total.soft_tp), so a
# change in the last bit of the summed IOUs shows too
GOLDEN_REPORT_SHA256 = {
    "clean": "f3315d254633ba2c619913e0b31f7aa8d6165e945c0c36099c7e4290de67cb43",
    "gaps": "f9a5a32fb4154a184b0194cf2ab7b2505eef65dbb3bb324e7b2a25f597b0b798",
    "occlusions_static": "2488813e8fdb7a96457b5acd45c9e6ba4dbcf1298e5f82b86534c2c16746011c",
    "occlusions_moving": "2488813e8fdb7a96457b5acd45c9e6ba4dbcf1298e5f82b86534c2c16746011c",
    "crossing": "3b03325445a24d65a76ed911ae8db1fca2329a29081f621e9f90b13e3912b0c4",
    "reid": "35e8dd3fcf7d484a0784d5a75cd6466d04100d6739c8feb0e951937c25bf79c4",
    "features": "bd37212ffebef75eb78e3972a2d374d30e38712cf7c9da163010ecf0aa13258f",
    "twenty": "b61475f0ee8dc6e35677e33a52e83566a25c1ab0c3fd33821a2f0605574b57a1",
    "long_reid": "d53a793900714ebb61803f6479efe8feacdd3ae82236e9a2cfc05301f28c35e0",
    # the benchmark workloads at seed 7, through their detection and ground-truth files
    "crowd_seed7": "2e3402d3ad66295ed2982754adff0e4700719eb99a92f53dea50353a87634270",
    "fragments_seed7": "807ccb10b904b474a5c117c14de98706b34a0d08e9d3aec5e790f78e3795db4e",
    "features_seed7": "8fc72fcef5b9dedfe4397a8708417d64664a3856afe9d60a120df3e7eeb32726",
}


def report_sha256(report):
    text = format_report(report) + "\n" + repr(report.total.soft_tp)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name, spec", GOLDEN_SCENARIOS)
def test_eval_report_matches_golden_hash(name, spec):
    """The default-config results scored against the scenario's ground truth
    give a fixed report, down to the last bit of the summed IOUs."""
    meta, dets, gt = generate(spec)
    if name == "features":
        dets = with_feature_maps(dets)
    tracks, _ = run_pipeline(meta, dets, PipelineConfig())
    assert report_sha256(evaluate(records_from_tracks(tracks, meta), gt)) == GOLDEN_REPORT_SHA256[name]
    announce(f"{name} eval report matches the golden hash")


@pytest.mark.parametrize("workload", ["crowd", "fragments", "features"])
def test_workload_eval_report_matches_golden_hash(tmp_path, workload):
    """The same for the benchmark workloads at seed 7, read from the files
    ``masktrack synth`` would write for them."""
    dets_path, gt_path = str(tmp_path / "dets.jsonl"), str(tmp_path / "gt.txt")
    workloads.write_inputs(workload, 7, dets_path, gt_path)
    meta, dets = load_detections(dets_path)
    tracks, _ = run_pipeline(meta, dets, PipelineConfig())
    report = evaluate(records_from_tracks(tracks, meta), read_results(gt_path))
    assert report_sha256(report) == GOLDEN_REPORT_SHA256[f"{workload}_seed7"]
    announce(f"{workload} seed-7 eval report matches the golden hash")


# sha256 of the detection file and of the ground-truth file, so a change in
# any byte the writers give, not only in what is tracked from them, fails
GOLDEN_INPUT_SHA256 = {
    "crowd_seed7": (
        "24747d22f4f596608181fdf546de7c827f20e07631114d7e90a3dcd2a9ae9d35",
        "8f9a386826345c14acc7f9e96146e22a483cab05309e324fd271bd9e8b9ed009",
    ),
    "fragments_seed7": (
        "c0d0cdb3504f62eb27bfabf363061d454833fc93fa471624749d3f1bfa0e446d",
        "d14f6bb11d1407a55f5c92c291e9a701cb7904a74db419135020c37a17bd854f",
    ),
    "features_seed7": (
        "5d67f6f430eb03bf583348cd437e29f17618632c000320412a96c83959307915",
        "6ecf1c645193f8ac895ec66ab42c758072f8816fab1f2d4d571e1f45227fab9e",
    ),
    "clean": (
        "e0d90c0b0e4586d38d3481a178fb8997784ceef054a6b8a567adde27822d2365",
        "0ffd67eb50265a8b619170404f1d8803917b49cd45f78fbecee40741fcedfb5a",
    ),
    "detector_gaps": (
        "c447420a8632f5e2eb90789901c22785aec14b47809a4f5fa6d11ed8dc83f9c4",
        "1d8f474a74843c4c49267d3d9d12f465c8a7c001be61e5af20b03b5b19b9e160",
    ),
    "long_occlusions_static": (
        "6e1db71240f024cd334f0b9e120f573f5de0c07f737d96cbe62899329b1b6847",
        "f7c67d1af87c92e157f11f252a6d82e58f20cd3ede84ffdc4dee9d10855675d1",
    ),
    # the camera mode is in the header only
    "long_occlusions_moving": (
        "271ea7e9b66603ce5b3470f9d40168f3825c742eef3a729e4bd6db399d569f32",
        "f7c67d1af87c92e157f11f252a6d82e58f20cd3ede84ffdc4dee9d10855675d1",
    ),
}


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("workload", ["crowd", "fragments", "features"])
def test_workload_input_files_match_golden_hashes(tmp_path, workload):
    """The files ``masktrack synth`` writes for each benchmark workload at
    seed 7 have fixed bytes."""
    dets_path, gt_path = str(tmp_path / "dets.jsonl"), str(tmp_path / "gt.txt")
    workloads.write_inputs(workload, 7, dets_path, gt_path)
    assert (file_sha256(dets_path), file_sha256(gt_path)) == GOLDEN_INPUT_SHA256[f"{workload}_seed7"]
    announce(f"{workload} seed-7 input files match their golden hashes")


@pytest.mark.parametrize(
    "spec",
    [scenario_clean(), scenario_detector_gaps(), scenario_long_occlusions("static"),
     scenario_long_occlusions("moving")],
    ids=lambda spec: spec.name,
)
def test_scenario_files_match_golden_hashes(tmp_path, spec):
    """The files ``generate_files`` writes for each ready-made scenario have
    fixed bytes."""
    dets_path, gt_path = generate_files(spec, str(tmp_path))
    assert (file_sha256(dets_path), file_sha256(gt_path)) == GOLDEN_INPUT_SHA256[spec.name]
    announce(f"{spec.name} scenario files match their golden hashes")


def test_features_golden_hash_through_a_detection_file(tmp_path):
    """The features scenario written to a detection file (packed feature
    maps) and read back tracks to the same golden lines as in memory."""
    meta, dets, _ = generate(scenario_features())
    path = str(tmp_path / "features.jsonl")
    write_detections(meta, with_feature_maps(dets), path)
    meta, dets = load_detections(path)
    tracks, _ = run_pipeline(meta, dets, PipelineConfig())
    assert lines_sha256(records_from_tracks(tracks, meta)) == GOLDEN_RESULT_SHA256["features"]
    announce("features result lines through a detection file match the golden hash")


def test_crossing_overlaps_before_resolution_and_ground_truth_golden():
    """The crossing scenario gives overlap resolution real work on both
    sides it runs on: the tracker's masks written as results, and the
    ground truth that generate resolves. A noise-free detector draws the
    exact ground-truth boxes, so its masks are the ground truth before
    resolution."""
    spec = scenario_crossing()
    meta, dets, gt = generate(spec)
    tracks, _ = run_pipeline(meta, dets, PipelineConfig())
    written = {}
    for t in tracks:
        for o in t.observations:
            written.setdefault(o.frame, []).append(o.mask)
    _, exact, _ = generate(replace(spec, detector=DetectorModel()))
    truth = {frame: [d.mask for d in ds] for frame, ds in exact.items()}
    assert overlapping_pairs(written) >= 50
    assert overlapping_pairs(truth) >= 50
    assert lines_sha256(gt) == GOLDEN_CROSSING_GT_SHA256
    announce("crossing scenario overlaps and its ground truth matches the golden hash")


def test_reid_scenario_splits_and_merges(monkeypatch):
    """The reid scenario gives the offline merger real work: the tracker
    leaves at least 100 tracklets, and merge_pass runs at least two passes
    and makes at least 50 merges."""
    passes, sizes = [], {}
    real_pairs, real_merge = reid.candidate_pairs, pipeline.merge_pass

    def counted_pairs(*args):
        passes.append(1)
        return real_pairs(*args)

    def sized_merge(tracklets, *args):
        merged = real_merge(tracklets, *args)
        sizes.update(before=len(tracklets), after=len(merged))
        return merged

    monkeypatch.setattr(reid, "candidate_pairs", counted_pairs)
    monkeypatch.setattr(pipeline, "merge_pass", sized_merge)
    meta, dets, _ = generate(scenario_reid())
    run_pipeline(meta, dets, PipelineConfig())
    assert sizes["before"] >= 100
    assert len(passes) >= 2
    merges = sizes["before"] - sizes["after"]
    assert merges >= 50
    announce(
        "reid scenario splits and merges",
        f"{sizes['before']} tracklets, {len(passes)} passes, {merges} merges",
    )


def test_long_reid_scenario_merges_half_its_tracklets():
    """The long reid scenario stays in bounds (``generate`` refuses an object
    that leaves the image), leaves at least 400 tracklets, and merge_pass
    joins them into at most half as many."""
    meta, dets, _ = generate(scenario_long_reid())
    merged, _ = run_pipeline(meta, dets, PipelineConfig())
    split, _ = run_pipeline(meta, dets, no_reid_config())
    assert len(split) >= 400
    assert 2 * len(merged) <= len(split)
    announce("long reid scenario merges", f"{len(split)} -> {len(merged)} tracklets")


def test_fragments_fit_each_window_once(monkeypatch):
    """On the seed-7 fragments workload no robust fit repeats its inputs:
    retrieval's fits of a lost track's tail, frame after frame, and reid's
    fits of the same windows are served from the tracklet's cached line. That
    is 416 fits, two per window; without the cache it took 816."""
    calls = []
    real_fit = tracker.huber_fit

    def counted_fit(times, values, delta):
        calls.append((tuple(times), tuple(values), delta))
        return real_fit(times, values, delta=delta)

    monkeypatch.setattr(tracker, "huber_fit", counted_fit)
    meta, dets, _ = generate(workloads.fragments_spec(7))
    run_pipeline(meta, dets, PipelineConfig())
    assert len(calls) == len(set(calls)) <= 416
    announce("fragments fits each window once", f"{len(calls)} fits")


def test_twenty_object_scenario_merges_under_a_moving_camera():
    """Every hidden object of the twenty-object scenario comes back as a new
    tracklet; with reid on, the motion-direction test joins the fragments."""
    meta, dets, _ = generate(scenario_twenty())
    merged, _ = run_pipeline(meta, dets, PipelineConfig())
    split, _ = run_pipeline(meta, dets, no_reid_config())
    assert len(merged) < len(split)
    announce("twenty-object scenario merges", f"{len(split)} -> {len(merged)} tracklets")


def test_metric_self_consistency():
    """Ground truth scores 1.0 against itself; a single-frame match of IOU
    0.8 yields smotsa 0.8 with motsa 1.0."""
    _, _, gt = generate(scenario_clean())
    report = evaluate(gt, gt)
    assert report.total.motsa == 1.0
    assert report.total.smotsa == 1.0
    assert report.total.ids == 0

    from masktrack.formats import ResultRecord

    def row_record(frame, track_id, lo, hi):
        grid = np.zeros((1, 20), dtype=np.uint8)
        grid[0, lo:hi] = 1
        mask = rle_encode(grid)
        return ResultRecord(frame, track_id, 2, 1, 20, rle_to_string(mask))

    gt_one = [row_record(1, 2001, 0, 9)]
    hyp_one = [row_record(1, 3501, 1, 10)]  # overlap 8 of union 10
    report = evaluate(hyp_one, gt_one)
    assert report.total.smotsa == pytest.approx(0.8, abs=1e-12)
    assert report.total.motsa == 1.0
    announce("metrics self-consistent on exact and partial matches")
