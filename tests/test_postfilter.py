import numpy as np
import pytest
from helpers import make_det, make_tracklet, reference_dedup_tracks, reference_trajectory_iou, unit
from hypothesis import given
from hypothesis import strategies as st

from masktrack import geometry, postfilter
from masktrack.embedding import FeatureBank
from masktrack.errors import ShapeMismatch
from masktrack.geometry import BBox, BinaryMask
from masktrack.postfilter import (
    FilterConfig,
    dedup_tracks,
    filter_detections,
    prune_tracks,
    trajectory_iou,
)
from masktrack.tracker import CAR, PEDESTRIAN, Detection, Tracklet


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


def tracklet_of(track_id, class_id, masks_by_frame):
    """A tracklet whose observation at each frame carries the given mask."""
    obs = [
        Detection(frame, class_id, 0.9, BBox(0, 0, 1, 1), mask, unit(0))
        for frame, mask in sorted(masks_by_frame.items())
    ]
    return Tracklet(track_id, class_id, obs, FeatureBank(5))


def run_mask(h, w, starts_stops):
    """The mask of foreground intervals ``[start, stop)``, sorted and apart."""
    counts, at = [], 0
    for start, stop in starts_stops:
        counts += [start - at, stop - start]
        at = stop
    if at < h * w:
        counts.append(h * w - at)
    return BinaryMask(h, w, counts)


@st.composite
def frame_masks(draw, h, w):
    """The masks a frame offers its tracks: a run and the run that touches
    it where it stops (often across a column wrap, so their extents are
    apart), a run list drawn at random (often overlapping both), a single
    corner pixel, and an empty mask."""
    n = h * w
    if w > 1 and draw(st.booleans()):
        cut = h * draw(st.integers(1, w - 1))  # on a column edge
    else:
        cut = draw(st.integers(1, n - 1))
    cuts = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=8)))
    drawn = run_mask(h, w, [(a, b) for a, b in zip(cuts[0::2], cuts[1::2]) if a < b])
    return [
        run_mask(h, w, [(draw(st.integers(0, cut - 1)), cut)]),
        run_mask(h, w, [(cut, draw(st.integers(cut + 1, n)))]),
        drawn,
        run_mask(h, w, [(0, 1)]),
        BinaryMask(h, w, (n,)),
    ]


@st.composite
def dedup_scenes(draw):
    """Tracklets of two classes over up to 8 frames, whose frame ranges are
    apart, nested or partly shared, often of equal length, with masks drawn
    from each frame's offer: mostly one kind per tracklet, so that some
    pairs are near duplicates and some identical."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    offers = [draw(frame_masks(h, w)) for _ in range(8)]
    tracks = []
    for k in range(draw(st.integers(2, 6))):
        start = draw(st.integers(0, 6))
        stop = draw(st.integers(start + 1, 8))
        frames = draw(st.sets(st.integers(start, stop - 1), min_size=1)) if draw(st.booleans()) else range(start, stop)
        kind = draw(st.integers(0, 4))
        masks = {f: offers[f][draw(st.integers(0, 4)) if draw(st.integers(0, 4)) == 0 else kind] for f in frames}
        tracks.append(tracklet_of(2001 + k, draw(st.sampled_from([CAR, PEDESTRIAN])), masks))
    return draw(st.permutations(tracks))


class TestBatchDedup:
    @given(dedup_scenes(), st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9]))
    def test_equals_the_per_frame_reference(self, tracks, threshold):
        """Every trajectory IOU is the per-frame loop's, bit for bit, and
        the kept tracklets are the reference sweep's."""
        for a in tracks:
            for b in tracks:
                got, expected = trajectory_iou(a, b), reference_trajectory_iou(a, b)
                assert got.hex() == expected.hex(), (a.id, b.id)
        cfg = FilterConfig(traj_iou_threshold=threshold)
        kept = dedup_tracks(tracks, cfg)
        expected = reference_dedup_tracks(tracks, cfg)
        assert [t.id for t in kept] == [t.id for t in expected]
        assert all(x is y for x, y in zip(kept, expected))

    def test_sums_left_to_right_as_the_per_frame_loop(self):
        """IOUs whose left-to-right float sum is not the exactly rounded
        one, with a frame where the masks are apart in between: the mean is
        the builtin sum's over the frames in order, zeros included."""
        line = {1: (3, 1), 2: (5, 0), 3: (36, 1), 4: (26, 22), 5: (15, 7)}  # frame: (union, intersection)
        a = tracklet_of(2001, CAR, {f: run_mask(1, 40, [(0, u)]) for f, (u, _) in line.items()})
        b = tracklet_of(2002, CAR, {f: run_mask(1, 40, [(0, i)] if i else []) for f, (_, i) in line.items()})
        expected = sum([1 / 3, 0.0, 1 / 36, 22 / 26, 7 / 15]) / 5
        assert trajectory_iou(a, b) == reference_trajectory_iou(a, b) == expected

    def test_scores_without_a_per_frame_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mask pair was scored on its own")

        monkeypatch.setattr(postfilter, "mask_iou", refuse)
        monkeypatch.setattr(geometry, "mask_iou", refuse)
        monkeypatch.setattr(geometry, "mask_intersection_area", refuse)
        long = make_tracklet(2001, [(f, 10, 10) for f in range(1, 8)], unit(0))
        short = make_tracklet(2002, [(f, 10, 10) for f in range(1, 5)], unit(0))
        assert [t.id for t in dedup_tracks([long, short], FilterConfig())] == [2001]

    def test_two_shared_frames_of_2_62_pixels_each(self):
        """A 2**31 x 2**31 frame fills the position axis alone, so the
        shared frames are scored one pair per block."""
        h = w = 1 << 31
        n = h * w
        tail = run_mask(h, w, [(n - 10, n)])
        a = tracklet_of(2001, CAR, {1: run_mask(h, w, [(0, 10)]), 2: tail, 3: run_mask(h, w, [(0, 1)])})
        b = tracklet_of(2002, CAR, {1: run_mask(h, w, [(1, 10)]), 2: tail})
        assert trajectory_iou(a, b) == reference_trajectory_iou(a, b) == (0.9 + 1.0) / 2
        cfg = FilterConfig()
        kept = dedup_tracks([b, a], cfg)
        assert [t.id for t in kept] == [t.id for t in reference_dedup_tracks([b, a], cfg)] == [2001]

    def test_frames_past_int64_that_meet_no_mask_are_no_refusal(self):
        """Only the masks of pairs that meet go to the intersection kernel: a
        mask past int64 positions whose track shares no frame, or whose
        extent is apart from the other mask of its frame, sizes no slot."""
        h = w = 1 << 32
        small = {f: run_mask(10, 10, [(0, 20)]) for f in (1, 2, 3)}
        tracks = [
            tracklet_of(2001, CAR, small),
            tracklet_of(2002, CAR, dict(small)),
            tracklet_of(2003, CAR, {9: run_mask(h, w, [(0, 5)])}),  # shares no frame
            tracklet_of(2004, PEDESTRIAN, {5: run_mask(h, w, [(0, 5)])}),
            tracklet_of(2005, PEDESTRIAN, {5: run_mask(h, w, [(h * w - 5, h * w)])}),  # apart
        ]
        kept = dedup_tracks(tracks, FilterConfig())
        assert [t.id for t in kept] == [t.id for t in reference_dedup_tracks(tracks, FilterConfig())]
        assert [t.id for t in kept] == [2001, 2003, 2004, 2005]
        assert trajectory_iou(tracks[3], tracks[4]) == reference_trajectory_iou(tracks[3], tracks[4]) == 0.0

    def test_mixed_dims_name_the_first_pair_of_the_sweep(self):
        """As the per-frame loop, the first same-class pair in id order, and in
        it the first shared frame, whose masks differ in dims is named."""
        small, big = BinaryMask(2, 2, (4,)), BinaryMask(3, 3, (9,))
        tracks = [
            tracklet_of(2001, CAR, {1: small, 2: small}),
            tracklet_of(2002, CAR, {1: small, 2: BinaryMask(2, 3, (6,))}),
            tracklet_of(2003, CAR, {1: big}),
        ]
        with pytest.raises(ShapeMismatch) as expected:
            reference_dedup_tracks(tracks, FilterConfig())
        with pytest.raises(ShapeMismatch, match=f"^{expected.value}$"):
            dedup_tracks(tracks, FilterConfig())
