"""Self-tests of the benchmark: seeded inputs, neutral tracing, working checks."""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(HERE, "..", "src")):
    if os.path.abspath(path) not in (os.path.abspath(p) for p in sys.path):
        sys.path.insert(0, os.path.abspath(path))

from masktrack import formats, geometry, tracker  # noqa: E402

import phases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_FRAMES = 14


def _digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _inputs(tmp_path, workload, seed, tag=""):
    dets, gt = str(tmp_path / f"{workload}{tag}.jsonl"), str(tmp_path / f"{workload}{tag}_gt.txt")
    workloads.write_inputs(workload, seed, dets, gt, frames=TINY_FRAMES)
    return dets, gt


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(tmp_path, workload):
    first = _digest(*_inputs(tmp_path, workload, 7, "a"))
    again = _digest(*_inputs(tmp_path, workload, 7, "b"))
    other = _digest(*_inputs(tmp_path, workload, 8, "c"))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_every_check(tmp_path, workload):
    dets, gt = _inputs(tmp_path, workload, 3)
    out = str(tmp_path / "result.txt")
    reps = [phases.run_sequence(dets, gt, out) for _ in range(2)]
    assert all(r["ok"] for r in reps), reps
    assert phases._check_hashes(reps) == reps[0]["sha256"]
    assert all(r["ok"] for r in reps)
    assert reps[0]["motsa"] > 0.5


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_keeps_the_result_and_restores_the_modules(tmp_path, workload):
    dets, gt = _inputs(tmp_path, workload, 5)
    plain = phases.run_sequence(dets, gt, str(tmp_path / "plain.txt"))
    originals = (tracker.mask_iou, tracker.MaskTracker.step, formats.rle_from_string)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert tracker.mask_iou is not geometry.mask_iou
        traced = phases.run_sequence(dets, gt, str(tmp_path / "traced.txt"))
    finally:
        tracer.uninstall()
    assert (tracker.mask_iou, tracker.MaskTracker.step, formats.rle_from_string) == originals
    assert traced["ok"] and traced["sha256"] == plain["sha256"]
    layers = spans.layer_metrics(tracer.finish_rep())
    assert layers["tracker.step.calls"] > 0
    assert layers["pipeline.run_pipeline.calls"] == 1
    # self time never exceeds the span's own duration
    assert 0 <= layers["pipeline.run_pipeline.self_s"] <= layers["pipeline.run_pipeline.s"]
    assert layers["geometry.rle_from_string.read.calls"] == layers["geometry.rle_from_string.metrics.calls"]
    assert set(layers) | {"synth.generate.calls", "synth.generate.s", "synth.generate.self_s",
                          "trace.overhead_ratio", "tracker.step.scaling_exponent"} == set(spans.per_layer_units())


def test_piece_clock_lines_up_repetitions_and_restores_the_modules(tmp_path):
    dets, gt = _inputs(tmp_path, "features", 4)
    marked = phases.STAGE_CALLS + phases.KERNEL_CALLS
    originals = [getattr(phases.MODULES[m], a) for m, a in marked] + [tracker.MaskTracker.step]
    clock = phases.PieceClock()
    reps = []
    for _ in range(3):
        clock.install()
        try:
            reps.append(phases.run_sequence(dets, gt, str(tmp_path / "r.txt"), clock))
        finally:
            clock.uninstall()
    assert [getattr(phases.MODULES[m], a) for m, a in marked] + [tracker.MaskTracker.step] == originals
    assert all(r["ok"] for r in reps)
    fast = phases.fastest_pieces(reps)
    assert fast["pieces"] > 4 * fast["step_samples"] > 0
    # each piece's fastest repetition never adds up to more than any repetition
    for r in reps:
        assert fast["track_s"] <= r["marks"][r["split"]] - r["marks"][0]
        assert fast["eval_s"] <= r["marks"][-1] - r["marks"][r["split"]]
    assert 0 < fast["step_ms_p50"] <= fast["step_ms_p95"]


def test_checks_catch_a_changed_or_overlapping_result(tmp_path):
    dets, gt = _inputs(tmp_path, "crowd", 2)
    reps = [phases.run_sequence(dets, gt, str(tmp_path / "r.txt")) for _ in range(2)]
    reps[1]["sha256"] = "0" * 64
    phases._check_hashes(reps)
    assert reps[0]["ok"] and not reps[1]["ok"]
    # a ground truth whose masks overlap makes evaluate raise: the run fails
    records = formats.read_results(gt)
    frame = records[0].frame
    same = [r for r in records if r.frame == frame]
    clash = formats.ResultRecord(frame, 9999, same[0].class_id, same[0].img_h, same[0].img_w, same[0].rle)
    formats.write_records(records + [clash], str(tmp_path / "bad_gt.txt"))
    bad = phases.run_sequence(dets, str(tmp_path / "bad_gt.txt"), str(tmp_path / "r2.txt"))
    assert not bad["ok"] and "Overlapping" in bad["error"]


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == spans.per_layer_units()


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "crowd", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
