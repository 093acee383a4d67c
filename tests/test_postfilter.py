import numpy as np
from helpers import make_det, make_tracklet, unit

from masktrack.postfilter import (
    FilterConfig,
    dedup_tracks,
    filter_detections,
    prune_tracks,
    trajectory_iou,
)
from masktrack.tracker import CAR


class TestFilterDetections:
    def setup_method(self):
        self.cfg = FilterConfig()

    def test_low_score_dropped(self):
        det = make_det(1, 10, 10, unit(0), score=0.4)
        assert filter_detections([det], self.cfg) == []

    def test_flat_pedestrian_dropped(self):
        # h/w = 0.3 outside the pedestrian range (1.0, 5.0)
        det = make_det(1, 10, 10, unit(0), w=50, h=15)
        assert filter_detections([det], self.cfg) == []

    def test_small_box_dropped(self):
        det = make_det(1, 10, 10, unit(0), w=5, h=15)  # area 75 < 100
        assert filter_detections([det], self.cfg) == []

    def test_good_detection_kept(self):
        det = make_det(1, 10, 10, unit(0), score=0.9, w=16, h=40)  # h/w 2.5
        assert filter_detections([det], self.cfg) == [det]

    def test_car_aspect_range_differs(self):
        det = make_det(1, 10, 10, unit(0), class_id=CAR, w=40, h=16)  # h/w 0.4
        assert filter_detections([det], self.cfg) == [det]

    def test_order_preserved_and_idempotent(self):
        rng = np.random.default_rng(40)
        dets = [
            make_det(
                1,
                10,
                10,
                unit(0),
                score=float(rng.uniform(0, 1)),
                w=float(rng.integers(4, 30)),
                h=float(rng.integers(4, 60)),
            )
            for _ in range(50)
        ]
        once = filter_detections(dets, self.cfg)
        assert filter_detections(once, self.cfg) == once
        positions = [dets.index(d) for d in once]
        assert positions == sorted(positions)


class TestPruneTracks:
    def setup_method(self):
        self.cfg = FilterConfig()

    def test_short_track_dropped(self):
        tr = make_tracklet(2001, [(1, 10, 10), (2, 10, 10)], unit(0))
        assert prune_tracks([tr], self.cfg) == []

    def test_low_confidence_dropped(self):
        tr = make_tracklet(
            2001, [(f, 10, 10) for f in range(1, 10)], unit(0), score=0.3
        )
        assert prune_tracks([tr], self.cfg) == []

    def test_good_track_kept(self):
        tr = make_tracklet(2001, [(f, 10, 10) for f in range(1, 10)], unit(0))
        assert prune_tracks([tr], self.cfg) == [tr]

    def test_idempotent(self):
        tracks = [
            make_tracklet(2001, [(f, 10, 10) for f in range(1, 10)], unit(0)),
            make_tracklet(2002, [(1, 10, 10)], unit(0)),
        ]
        once = prune_tracks(tracks, self.cfg)
        assert prune_tracks(once, self.cfg) == once


class TestTrajectoryIou:
    def test_identical_tracks(self):
        a = make_tracklet(2001, [(f, 10, 10) for f in range(1, 6)], unit(0))
        b = make_tracklet(2002, [(f, 10, 10) for f in range(1, 6)], unit(0))
        assert trajectory_iou(a, b) == 1.0

    def test_disjoint_frames(self):
        a = make_tracklet(2001, [(1, 10, 10)], unit(0))
        b = make_tracklet(2002, [(5, 10, 10)], unit(0))
        assert trajectory_iou(a, b) == 0.0

    def test_mean_over_common_frames(self):
        # frame 1: 9-px rows offset by 1 -> IOU 8/10 = 0.8
        # frame 2: 8-px rows offset by 2 -> IOU 6/10 = 0.6
        from masktrack.embedding import FeatureBank, bank_update
        from masktrack.geometry import BBox, rect_mask
        from masktrack.tracker import Detection, Tracklet

        def obs(frame, x, w):
            box = BBox(x, 0, w, 1)
            return Detection(frame, 2, 0.9, box, rect_mask(120, 200, box), unit(0))

        bank = bank_update(FeatureBank(5), unit(0), 1)
        a = Tracklet(2001, 2, [obs(1, 0, 9), obs(2, 0, 8)], bank)
        b = Tracklet(2002, 2, [obs(1, 1, 9), obs(2, 2, 8)], bank)
        assert trajectory_iou(a, b) == 0.7


class TestDedupTracks:
    def setup_method(self):
        self.cfg = FilterConfig()

    def test_duplicate_pair_drops_shorter(self):
        long = make_tracklet(2001, [(f, 10, 10) for f in range(1, 8)], unit(0))
        short = make_tracklet(2002, [(f, 10, 10) for f in range(1, 5)], unit(0))
        out = dedup_tracks([long, short], self.cfg)
        assert [t.id for t in out] == [2001]

    def test_tie_drops_higher_id(self):
        a = make_tracklet(2001, [(f, 10, 10) for f in range(1, 5)], unit(0))
        b = make_tracklet(2002, [(f, 10, 10) for f in range(1, 5)], unit(0))
        out = dedup_tracks([a, b], self.cfg)
        assert [t.id for t in out] == [2001]

    def test_moderate_overlap_keeps_both(self):
        a = make_tracklet(2001, [(f, 10, 10) for f in range(1, 5)], unit(0), w=10)
        b = make_tracklet(2002, [(f, 15, 10) for f in range(1, 5)], unit(0), w=10)
        out = dedup_tracks([a, b], self.cfg)
        assert [t.id for t in out] == [2001, 2002]

    def test_triple_duplicates_keep_longest(self):
        t5 = make_tracklet(2001, [(f, 10, 10) for f in range(1, 7)], unit(0))
        t4 = make_tracklet(2002, [(f, 10, 10) for f in range(1, 6)], unit(0))
        t3 = make_tracklet(2003, [(f, 10, 10) for f in range(1, 5)], unit(0))
        out = dedup_tracks([t3, t5, t4], self.cfg)
        assert [t.id for t in out] == [2001]

    def test_never_removes_both_of_isolated_pair(self):
        a = make_tracklet(2001, [(f, 10, 10) for f in range(1, 6)], unit(0))
        b = make_tracklet(2002, [(f, 10, 10) for f in range(1, 8)], unit(0))
        out = dedup_tracks([a, b], self.cfg)
        assert len(out) == 1

    def test_output_pairwise_below_threshold(self):
        rng = np.random.default_rng(44)
        tracks = []
        for i in range(10):
            x = float(rng.integers(0, 4)) * 4.0
            length = int(rng.integers(2, 9))
            tracks.append(
                make_tracklet(2001 + i, [(f, x, 10) for f in range(1, length + 1)], unit(0))
            )
        out = dedup_tracks(tracks, self.cfg)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert trajectory_iou(out[i], out[j]) <= self.cfg.traj_iou_threshold

    def test_idempotent(self):
        tracks = [
            make_tracklet(2001, [(f, 10, 10) for f in range(1, 8)], unit(0)),
            make_tracklet(2002, [(f, 10, 10) for f in range(1, 5)], unit(0)),
            make_tracklet(2003, [(f, 60, 10) for f in range(1, 5)], unit(0)),
        ]
        once = dedup_tracks(tracks, self.cfg)
        assert dedup_tracks(once, self.cfg) == once
