from dataclasses import replace

import numpy as np
import pytest
from helpers import make_meta, make_tracklet, unit
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack.config import PipelineConfig
from masktrack.errors import OverlappingMasksInInput, ShapeMismatch
from masktrack.formats import ResultRecord, records_from_tracks
from masktrack.geometry import rle_encode, rle_to_string
from masktrack.metrics import evaluate, format_report
from masktrack.pipeline import run_pipeline
from masktrack.synth import generate, scenario_clean, scenario_detector_gaps
from masktrack.tracker import CAR, PEDESTRIAN


def record(frame, track_id, grid, class_id=2):
    mask = rle_encode(np.asarray(grid))
    return ResultRecord(frame, track_id, class_id, mask.height, mask.width, rle_to_string(mask))


def row_mask(width, lo, hi):
    grid = np.zeros((1, width), dtype=np.uint8)
    grid[0, lo:hi] = 1
    return grid


class TestEvaluate:
    def test_self_evaluation_is_perfect(self):
        tracks = [
            make_tracklet(2001, [(f, 10, 10) for f in range(1, 6)], unit(0)),
            make_tracklet(2002, [(f, 60, 40) for f in range(1, 6)], unit(1)),
        ]
        records = records_from_tracks(tracks, make_meta())
        report = evaluate(records, records)
        assert report.total.motsa == 1.0
        assert report.total.smotsa == 1.0
        assert report.total.ids == 0
        assert report.total.fn == 0 and report.total.fp == 0

    def test_empty_results(self):
        gt = [record(1, 2001, row_mask(10, 0, 5)), record(2, 2001, row_mask(10, 0, 5))]
        report = evaluate([], gt)
        assert report.total.tp == 0 and report.total.fp == 0 and report.total.ids == 0
        assert report.total.fn == 2
        assert report.total.smotsa == 0.0

    def test_one_frame_iou_080(self):
        # 9-px row vs 9-px row shifted by one: IOU 8/10
        gt = [record(1, 2001, row_mask(20, 0, 9))]
        hyp = [record(1, 3501, row_mask(20, 1, 10))]
        report = evaluate(hyp, gt)
        assert report.total.tp == 1
        assert report.total.soft_tp == pytest.approx(0.8, abs=1e-12)
        assert report.total.motsa == 1.0
        assert report.total.smotsa == pytest.approx(0.8, abs=1e-12)

    def test_low_iou_is_fp_plus_fn(self):
        gt = [record(1, 2001, row_mask(20, 0, 8))]
        hyp = [record(1, 3501, row_mask(20, 4, 12))]  # IOU 4/12 < 0.5
        report = evaluate(hyp, gt)
        assert report.total.tp == 0
        assert report.total.fp == 1
        assert report.total.fn == 1
        assert report.total.motsa == -1.0

    def test_id_switch_counted_against_last_assignment(self):
        gt = [record(f, 2001, row_mask(10, 0, 5)) for f in (1, 2, 3, 4)]
        hyp = [
            record(1, 3501, row_mask(10, 0, 5)),
            record(2, 3501, row_mask(10, 0, 5)),
            record(3, 3502, row_mask(10, 0, 5)),  # switch
            record(4, 3502, row_mask(10, 0, 5)),  # consistent again
        ]
        report = evaluate(hyp, gt)
        assert report.total.ids == 1
        assert report.total.motsa == pytest.approx((4 - 0 - 1) / 4)

    def test_id_switch_survives_gap_frames(self):
        gt = [record(f, 2001, row_mask(10, 0, 5)) for f in (1, 5)]
        hyp = [
            record(1, 3501, row_mask(10, 0, 5)),
            record(5, 3502, row_mask(10, 0, 5)),
        ]
        assert evaluate(hyp, gt).total.ids == 1

    def test_classes_scored_separately_and_pooled(self):
        gt = [
            record(1, 2001, row_mask(10, 0, 5), class_id=2),
            record(1, 1001, row_mask(10, 5, 10), class_id=1),
        ]
        hyp = [record(1, 3501, row_mask(10, 0, 5), class_id=2)]
        report = evaluate(hyp, gt)
        assert report.per_class[2].tp == 1
        assert report.per_class[1].fn == 1
        assert report.total.tp == 1 and report.total.fn == 1

    def test_cross_class_masks_never_match(self):
        gt = [record(1, 2001, row_mask(10, 0, 5), class_id=2)]
        hyp = [record(1, 1001, row_mask(10, 0, 5), class_id=1)]
        report = evaluate(hyp, gt)
        assert report.total.tp == 0
        assert report.per_class[2].fn == 1
        assert report.per_class[1].fp == 1

    def test_overlapping_input_rejected(self):
        overlapping = [
            record(1, 3501, row_mask(10, 0, 6)),
            record(1, 3502, row_mask(10, 4, 10)),
        ]
        gt = [record(1, 2001, row_mask(10, 0, 5))]
        with pytest.raises(OverlappingMasksInInput):
            evaluate(overlapping, gt)

    def test_dim_mismatch_rejected(self):
        gt = [record(1, 2001, row_mask(10, 0, 5))]
        hyp = [record(1, 3501, row_mask(12, 0, 5))]
        with pytest.raises(ShapeMismatch):
            evaluate(hyp, gt)

    def test_smotsa_never_exceeds_motsa(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            gt, hyp = [], []
            for frame in range(1, 6):
                lo = int(rng.integers(0, 5))
                gt.append(record(frame, 2001, row_mask(20, lo, lo + 8)))
                shift = int(rng.integers(0, 6))
                hyp.append(
                    record(frame, 3500 + int(rng.integers(1, 3)), row_mask(20, shift, shift + 8))
                )
            report = evaluate(hyp, gt)
            assert report.total.smotsa <= report.total.motsa + 1e-12


OBJECTS = 4


def labelled_records(frame, labels, ids, classes):
    """One record per label present in a frame's label grid (0 is background),
    so the frame's masks are disjoint; label k gets ``ids[k]`` and ``classes[k]``."""
    return [
        record(frame, ids[k], labels == k, classes[k])
        for k in range(1, OBJECTS + 1)
        if (labels == k).any()
    ]


@st.composite
def scored_sequences(draw):
    """Ground truth and a hypothesis over up to five frames of a small image.

    Each ground-truth frame is a grid of labels, one per object with a fixed
    id and class. The hypothesis frame copies it with about one pixel in four
    relabelled, and gives the labels ids from a small pool drawn afresh each
    frame, so matches, misses, false positives and id switches all occur.
    """
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 8)))
    label = st.integers(0, OBJECTS)
    classes = [None] + [draw(st.sampled_from([CAR, PEDESTRIAN])) for _ in range(OBJECTS)]
    gt_ids = [None] + [1000 * c + k for k, c in enumerate(classes[1:], start=1)]
    gt, hyp = [], []
    for frame in range(1, draw(st.integers(1, 5)) + 1):
        labels = draw(arrays(np.int8, shape, elements=label))
        noise = draw(arrays(np.int8, shape, elements=label))
        flip = draw(arrays(np.bool_, shape, elements=st.sampled_from([False, False, False, True])))
        hyp_ids = [None] + draw(st.permutations([501, 502, 503, 504, 505]))[:OBJECTS]
        gt += labelled_records(frame, labels, gt_ids, classes)
        hyp += labelled_records(frame, np.where(flip, noise, labels), hyp_ids, classes)
    return gt, hyp


class TestEvaluateProperties:
    @given(scored_sequences())
    def test_ground_truth_against_itself_is_perfect(self, sequences):
        gt, _ = sequences
        total = evaluate(gt, gt).total
        assert (total.tp, total.fp, total.fn, total.ids) == (len(gt), 0, 0, 0)
        assert total.motsa == total.smotsa == 1.0

    @given(scored_sequences(), st.data())
    def test_relabelled_hypothesis_ids_score_the_same(self, sequences, data):
        gt, hyp = sequences
        ids = sorted({r.track_id for r in hyp})
        fresh = st.lists(st.integers(1, 10**6), min_size=len(ids), max_size=len(ids), unique=True)
        new_ids = data.draw(fresh)
        relabel = dict(zip(ids, new_ids))
        relabelled = [replace(r, track_id=relabel[r.track_id]) for r in hyp]
        assert evaluate(relabelled, gt) == evaluate(hyp, gt)


class TestFormatReport:
    def test_table_shape(self):
        gt = [record(1, 2001, row_mask(10, 0, 5))]
        text = format_report(evaluate(gt, gt))
        lines = text.splitlines()
        assert lines[0].split() == ["class", "gt", "tp", "fp", "fn", "ids", "motsa", "smotsa"]
        assert lines[1].startswith("pedestrian")
        assert lines[-1].startswith("total")
        assert "1.0000" in lines[-1]


def score_configs(spec, configs):
    """(label, report) per config: the pipeline run on one generated scenario
    under that config, and scored against the scenario's ground truth."""
    meta, dets_by_frame, gt_records = generate(spec)
    rows = []
    for label, cfg in configs:
        tracks, _ = run_pipeline(meta, dets_by_frame, cfg)
        rows.append((label, evaluate(records_from_tracks(tracks, meta), gt_records)))
    return rows


class TestAblationCompare:
    def test_identical_configs_identical_rows(self):
        rows = score_configs(
            scenario_clean(), [("a", PipelineConfig()), ("b", PipelineConfig())]
        )
        assert rows[0][1] == rows[1][1]

    def test_clean_scenario_perfect_under_any_toggle(self):
        from dataclasses import replace

        base = PipelineConfig()
        no_str = PipelineConfig(
            replace(base.tracker, str_enabled=False), base.reid, base.filters
        )
        no_reid = PipelineConfig(
            base.tracker, replace(base.reid, enabled=False), base.filters
        )
        for _, report in score_configs(
            scenario_clean(), [("full", base), ("no_str", no_str), ("no_reid", no_reid)]
        ):
            assert report.total.smotsa == 1.0
            assert report.total.ids == 0

    def test_retrieval_ablation_changes_ids(self):
        from dataclasses import replace

        base = PipelineConfig()
        no_str = PipelineConfig(
            replace(base.tracker, str_enabled=False), base.reid, base.filters
        )
        rows = dict(
            score_configs(scenario_detector_gaps(), [("with", base), ("without", no_str)])
        )
        assert rows["with"].total.ids == 0
        assert rows["without"].total.ids >= 3
