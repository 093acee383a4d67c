from dataclasses import replace

import numpy as np
import pytest
from helpers import make_meta, make_tracklet, reference_evaluate, unit
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack import metrics
from masktrack.config import PipelineConfig
from masktrack.errors import MaskTrackError, OverlappingMasksInInput, ShapeMismatch
from masktrack.formats import ResultRecord, read_results, records_from_tracks
from masktrack.geometry import BinaryMask, rle_encode, rle_to_string
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


def outcome(results, ground_truth, score):
    """What ``score`` does with the inputs: its report, or its error's type and text."""
    try:
        return score(results, ground_truth)
    except (MaskTrackError, AssertionError) as exc:
        return type(exc), str(exc)


def sourced(records, name):
    """The records in the given order, each naming its line of file ``name``."""
    return [replace(r, source=f"{name}:{k}") for k, r in enumerate(records, start=1)]


@st.composite
def record_sets(draw, disjoint=True):
    """Results and ground truth over up to four frames, the frame numbers
    drawn at random and each side's records shuffled, so frames come out of
    order. A frame's ground truth is a label grid of up to four objects in
    two classes; an object absent from the grid may still get a record with
    an all-background mask. The results relabel about one pixel in four and
    draw their ids afresh each frame. Unless ``disjoint``, each result mask
    is drawn on its own, so masks of one frame often overlap."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    label = st.integers(0, OBJECTS)
    classes = [None] + [draw(st.sampled_from([CAR, PEDESTRIAN])) for _ in range(OBJECTS)]
    gt_ids = [None] + [1000 * c + k for k, c in enumerate(classes[1:], start=1)]
    gt, hyp = [], []
    for frame in draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True)):
        labels = draw(arrays(np.int8, shape, elements=label))
        noise = draw(arrays(np.int8, shape, elements=label))
        flip = draw(arrays(np.bool_, shape, elements=st.sampled_from([False, False, False, True])))
        hyp_labels = np.where(flip, noise, labels)
        hyp_ids = [None] + draw(st.permutations([501, 502, 503, 504, 505]))[:OBJECTS]
        gt += labelled_records(frame, labels, gt_ids, classes)
        if disjoint:
            hyp += labelled_records(frame, hyp_labels, hyp_ids, classes)
        else:
            hyp += [
                record(frame, hyp_ids[k], draw(arrays(np.bool_, shape)), classes[k])
                for k in range(1, OBJECTS + 1)
            ]
        for k in draw(st.sets(st.integers(1, OBJECTS))):
            if not (labels == k).any():
                gt.append(record(frame, gt_ids[k], np.zeros(shape), classes[k]))
            if disjoint and not (hyp_labels == k).any():
                hyp.append(record(frame, hyp_ids[k], np.zeros(shape), classes[k]))
    return (
        sourced(draw(st.permutations(hyp)), "res.txt"),
        sourced(draw(st.permutations(gt)), "gt.txt"),
    )


class TestEvaluateOracle:
    """``evaluate`` against the pairwise evaluator kept in ``helpers``."""

    @given(record_sets())
    def test_equals_the_pairwise_evaluator(self, sets):
        results, ground_truth = sets
        report = evaluate(results, ground_truth)
        expected = reference_evaluate(results, ground_truth)
        assert report == expected
        assert list(report.per_class) == list(expected.per_class)
        assert report.total.soft_tp == expected.total.soft_tp

    @given(record_sets(disjoint=False))
    def test_overlapping_results_fail_as_the_pairwise_evaluator_does(self, sets):
        results, ground_truth = sets
        for res, gt in ((results, ground_truth), (ground_truth, results), (ground_truth, ground_truth)):
            assert outcome(res, gt, evaluate) == outcome(res, gt, reference_evaluate)

    def test_iou_of_exactly_one_half_is_not_a_match(self):
        gt = [record(1, 2001, row_mask(10, 0, 4))]
        hyp = [record(1, 3501, row_mask(10, 2, 6))]  # 2 shared of 6
        assert evaluate(hyp, gt).total.tp == 0
        hyp = [record(1, 3501, row_mask(10, 0, 2))]  # 2 shared of 4: IOU 0.5
        report = evaluate(hyp, gt)
        assert (report.total.tp, report.total.fp, report.total.fn) == (0, 1, 1)
        assert report == reference_evaluate(hyp, gt)

    def test_masks_touching_across_a_column_wrap_do_not_overlap(self):
        # column-major: (2, 0) is the last pixel of column 0, (0, 1) the next one
        above, below = np.zeros((3, 4), bool), np.zeros((3, 4), bool)
        above[1:, 0] = True
        below[:2, 1] = True
        hyp = [record(1, 3501, above), record(1, 3502, below)]
        gt = [record(1, 2001, above | below), record(1, 2002, ~(above | below))]
        report = evaluate(hyp, gt)
        assert report == reference_evaluate(hyp, gt)
        assert (report.total.tp, report.total.fp, report.total.fn) == (0, 2, 2)

    def test_full_frames_in_neighbouring_frames_do_not_overlap(self):
        full = [record(f, 2001, np.ones((2, 3))) for f in (4, 5, 6)]
        report = evaluate(full, full)
        assert (report.total.tp, report.total.smotsa) == (3, 1.0)

    def test_scores_without_calling_a_pair_kernel(self, monkeypatch):
        """A clean multi-frame input is scored from the interval tables alone."""
        _, _, gt = generate(scenario_clean())
        hyp = [replace(r, frame=r.frame + 1, track_id=r.track_id + 500 + r.frame // 40)
               for r in gt if r.frame % 7]
        expected = reference_evaluate(hyp, gt)
        assert expected.total.tp and expected.total.fp and expected.total.ids

        def refuse(*args):
            raise AssertionError("a pair kernel was called")

        monkeypatch.setattr(metrics, "mask_iou", refuse)
        monkeypatch.setattr(metrics, "mask_intersection_area", refuse)
        assert evaluate(hyp, gt) == expected


class TestOverlapErrors:
    """The first overlapping frame in record order is named, and in it the
    first pair in record order; results are checked before ground truth."""

    def test_frames_out_of_order_name_the_first_frame_listed(self):
        results = sourced([
            record(7, 3501, row_mask(10, 0, 4)),
            record(2, 3501, row_mask(10, 0, 4)),
            record(2, 3502, row_mask(10, 3, 6)),  # overlaps 3501 in frame 2
            record(7, 3502, row_mask(10, 6, 9)),
            record(7, 3503, row_mask(10, 2, 8)),  # overlaps 3501 and 3502 in frame 7
        ], "res.txt")
        gt = [record(2, 2001, row_mask(10, 0, 4))]
        with pytest.raises(OverlappingMasksInInput, match=r"^res\.txt:5: frame 7 masks 3501 and 3503 overlap$"):
            evaluate(results, gt)
        assert outcome(results, gt, evaluate) == outcome(results, gt, reference_evaluate)

    def test_first_pair_in_record_order_is_named(self):
        # the interval order meets (3502, 3503) first; record order has (3501, 3503)
        results = sourced([
            record(1, 3501, row_mask(12, 5, 12)),
            record(1, 3502, row_mask(12, 0, 3)),
            record(1, 3503, row_mask(12, 2, 6)),
            record(1, 3504, row_mask(12, 4, 5)),
        ], "res.txt")
        with pytest.raises(OverlappingMasksInInput, match=r"^res\.txt:3: frame 1 masks 3501 and 3503 overlap$"):
            evaluate(results, [])
        assert outcome(results, [], evaluate) == outcome(results, [], reference_evaluate)

    def test_the_pair_is_named_by_one_pair_kernel_call(self, monkeypatch):
        """No per-pair intersection: every pair of the frame goes to one
        ``pair_intersections`` call."""
        def refuse(*args):
            raise AssertionError("a per-pair kernel was called")

        calls = []
        kernel = metrics.pair_intersections

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(metrics, "mask_intersection_area", refuse)
        monkeypatch.setattr(metrics, "pair_intersections", counted)
        results = sourced([record(1, 3500 + k, row_mask(12, lo, hi))
                           for k, (lo, hi) in enumerate([(0, 2), (2, 4), (4, 7), (6, 8), (8, 12)])], "res.txt")
        with pytest.raises(OverlappingMasksInInput, match=r"^res\.txt:4: frame 1 masks 3502 and 3503 overlap$"):
            evaluate(results, [])
        assert len(calls) == 1

    def test_pairs_go_in_blocks_of_the_frames_a_table_holds(self):
        """A 2**31 x 2**31 frame fills one table slot: its pairs go one per
        block, and the first overlapping one is still named."""
        side = 2**31
        n = side * side
        results = [ResultRecord(1, track_id, PEDESTRIAN, side, side, rle_to_string(BinaryMask(side, side, counts)),
                                f"res.txt:{track_id}")
                   for track_id, counts in [(1, (0, 5, n - 5)), (2, (5, 5, n - 10)), (3, (3, 4, n - 7))]]
        with pytest.raises(OverlappingMasksInInput, match=r"^res\.txt:3: frame 1 masks 1 and 3 overlap$"):
            evaluate(results, [])

    def test_results_are_checked_before_ground_truth(self):
        overlapping = [record(1, 3501, row_mask(10, 0, 6)), record(1, 3502, row_mask(10, 4, 10))]
        results, gt = sourced(overlapping, "res.txt"), sourced(overlapping, "gt.txt")
        with pytest.raises(OverlappingMasksInInput, match=r"^res\.txt:2: "):
            evaluate(results, gt)
        with pytest.raises(OverlappingMasksInInput, match=r"^gt\.txt:2: "):
            evaluate(results[:1], gt)

    def test_either_side_may_be_empty(self):
        rows = [record(f, 2001, row_mask(10, 0, 5)) for f in (3, 1)]
        assert evaluate([], []) == reference_evaluate([], [])
        only_fp = evaluate(rows, [])
        assert (only_fp.total.fp, only_fp.total.gt_count) == (2, 0)
        assert only_fp == reference_evaluate(rows, [])
        assert evaluate([], rows) == reference_evaluate([], rows)


def big_record(frame, track_id, side, source=""):
    """A record of a ``side x side`` image whose mask is 5 pixels."""
    mask = BinaryMask(side, side, (3, 5, side * side - 8))
    return ResultRecord(frame, track_id, PEDESTRIAN, side, side, rle_to_string(mask), source)


class TestTableRange:
    """Every pixel position of the sequence must fit in int64."""

    def test_a_frame_past_int64_names_the_record(self, tmp_path):
        side = 2**40
        path = tmp_path / "res.txt"
        path.write_text(big_record(1, 2001, side).to_line() + "\n")
        records = read_results(str(path))
        with pytest.raises(ShapeMismatch, match=rf"^{path}:1: 1 frames of {side}x{side} pixels"):
            evaluate(records, records)

    def test_frames_up_to_int64_are_scored_and_the_next_is_refused(self):
        side = 2**31  # one frame holds 2**62 positions, two do not fit
        one = [big_record(1, 2001, side, "res.txt:1")]
        report = evaluate(one, one)
        assert (report.total.tp, report.total.smotsa) == (1, 1.0)
        two = one + [big_record(2, 2001, side, "res.txt:2")]
        with pytest.raises(ShapeMismatch, match=r"^res\.txt:2: 2 frames of "):
            evaluate(two, one)
        with pytest.raises(ShapeMismatch, match=r"^res\.txt:2: 2 frames of "):
            evaluate(one, two[::-1])


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
