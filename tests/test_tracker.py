from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import brute_force, make_det, make_meta, unit

from masktrack import cli, pipeline, tracker
from masktrack.assignment import INFEASIBLE, hungarian_solve
from masktrack.config import PipelineConfig, resolve_for_sequence
from masktrack.embedding import FeatureBank, bank_similarity, bank_update
from masktrack.errors import ConfigError, OutOfOrderFrame, ShapeMismatch
from masktrack.formats import write_results
from masktrack.geometry import BBox, blocks, mask_iou, rect_mask, rle_encode
from masktrack.postfilter import filter_detections
from masktrack.synth import (
    generate,
    scenario_clean,
    scenario_detector_gaps,
    scenario_long_occlusions,
)
from masktrack.tracker import (
    CAR,
    PEDESTRIAN,
    Detection,
    MaskTracker,
    Track,
    Tracklet,
    TrackerConfig,
    TrackState,
    _gated_solve,
    assignment_cost,
    extrapolate_track,
    frame_pair_ious,
    seconds_to_frames,
    serial_id,
    str_match,
)


def make_track(track_id, dets):
    track = Track.spawn(track_id, dets[0], bank_size=5)
    for det in dets[1:]:
        track.observe(det)
    return track


class TestSecondsToFrames:
    def test_rounds_half_up(self):
        assert seconds_to_frames(0.2, 25.0) == 5
        assert seconds_to_frames(0.1, 25.0) == 3  # 2.5 rounds up
        assert seconds_to_frames(0.2, 30.0) == 6

    def test_at_least_one(self):
        assert seconds_to_frames(0.001, 10.0) == 1


class TestAssignmentCost:
    def test_perfect_match_is_zero(self):
        det = make_det(1, 20, 30, unit(0))
        track = make_track(2001, [det])
        same = make_det(2, 20, 30, unit(0))
        assert assignment_cost([track], [same])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_no_overlap_no_similarity_is_two(self):
        det = make_det(1, 0, 0, unit(0))
        track = make_track(2001, [det])
        far = make_det(2, 100, 60, unit(1))
        assert assignment_cost([track], [far])[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_formula_midpoint(self):
        # half-overlapping boxes of equal size give mask IOU 1/3
        det = make_det(1, 20, 30, unit(0), w=10, h=20)
        track = make_track(2001, [det])
        shifted = make_det(2, 25, 30, unit(0), w=10, h=20)
        cost = assignment_cost([track], [shifted])[0, 0]
        assert cost == pytest.approx(2.0 - 1 / 3 - 1.0, abs=1e-12)

    def test_cross_class_infeasible(self):
        det = make_det(1, 20, 30, unit(0))
        track = make_track(2001, [det])
        car = make_det(2, 20, 30, unit(0), class_id=CAR)
        assert assignment_cost([track], [car])[0, 0] == INFEASIBLE

    def test_range_bounds(self):
        rng = np.random.default_rng(14)
        det = make_det(1, 20, 30, unit(0))
        track = make_track(2001, [det])
        for _ in range(30):
            emb = rng.normal(size=8)
            other = make_det(
                2, float(rng.integers(0, 150)), float(rng.integers(0, 90)), emb
            )
            cost = assignment_cost([track], [other])[0, 0]
            assert 0.0 <= cost <= 3.0


# a small image, so that drawn boxes often overlap, touch or come out empty
SMALL_H, SMALL_W = 12, 16
MAGNITUDES = st.floats(1e-3, 10.0, allow_subnormal=False)


@st.composite
def small_boxes(draw):
    x, y = draw(st.integers(0, SMALL_W - 1)), draw(st.integers(0, SMALL_H - 1))
    return BBox(x, y, draw(st.integers(0, 8)), draw(st.integers(0, 8)))


@st.composite
def signed_rows(draw, n, width, sign):
    """``n`` rows of ``width`` values of one sign (``sign`` 0: either); any
    row may be a zero row."""
    values = MAGNITUDES if sign else MAGNITUDES | MAGNITUDES.map(lambda v: -v)
    rows = draw(arrays(float, (n, width), elements=values | st.just(0.0)))
    rows = rows * (sign or 1)
    rows[draw(arrays(bool, n))] = 0.0
    return rows


@st.composite
def association_cases(draw):
    """Tracks with banks of 1-10 rows and detections of either class, on
    masks that may be empty. A detection may be drawn near an earlier
    detection or a track's last box, with its class, so same-class masks
    overlap on both sides of many pairs. With ``opposed`` signs every bank
    row is non-negative and every detection embedding non-positive, so no
    cosine is above 0."""
    width = draw(st.integers(1, 12))
    opposed = draw(st.booleans())
    tracks = []
    for i in range(draw(st.integers(1, 4))):
        rows = draw(signed_rows(draw(st.integers(1, 10)), width, 1 if opposed else 0))
        bank = FeatureBank(5)  # keeps every row of up to ten
        for frame, row in enumerate(rows, start=1):
            bank = bank_update(bank, row, frame)
        box = draw(small_boxes())
        class_id = draw(st.sampled_from([CAR, PEDESTRIAN]))
        mask = rect_mask(SMALL_H, SMALL_W, box)
        last = Detection(len(rows), class_id, 0.9, box, mask, rows[-1])
        tracks.append(Track(2001 + i, class_id, [last], bank))
    n = draw(st.integers(1, 5))
    embs = draw(signed_rows(n, width, -1 if opposed else 0))
    dets = []
    for emb in embs:
        anchors = [(o.box, o.class_id) for o in [t.observations[-1] for t in tracks] + dets]
        if draw(st.booleans()):
            near, class_id = draw(st.sampled_from(anchors))
            dx, dy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            box = BBox(near.x + dx, near.y + dy, near.w, near.h)
        else:
            box, class_id = draw(small_boxes()), draw(st.sampled_from([CAR, PEDESTRIAN]))
        mask = rect_mask(SMALL_H, SMALL_W, box)
        dets.append(Detection(20, class_id, 0.9, box, mask, emb))
    return tracks, dets


class TestAssignmentCostMatrix:
    @given(association_cases())
    def test_each_cell_is_the_pair_formula_bit_for_bit(self, case):
        tracks, dets = case
        costs = assignment_cost(tracks, dets)
        assert costs.shape == (len(tracks), len(dets))
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                if t.class_id != d.class_id:
                    assert costs[i, j] == INFEASIBLE
                    continue
                iou = mask_iou(t.observations[-1].mask, d.mask)
                assert costs[i, j] == 2.0 - iou - bank_similarity(t.bank, [d.embedding])[0]

    def test_builds_without_a_per_pair_or_per_track_call(self, monkeypatch):
        """Crossing same-class masks go through the pair merge and the
        stacked cosine, never the per-pair IOU or the one-bank similarity."""
        dets = [make_det(1, x, 30, unit(k)) for k, x in enumerate((20, 26, 32))]
        dets.append(make_det(1, 24, 36, unit(3), CAR))
        tracks = [make_track(2001 + k, [d]) for k, d in enumerate(dets)]
        frame = [make_det(2, x, 31, unit(k)) for k, x in enumerate((22, 28, 34))]
        frame.append(make_det(2, 25, 37, unit(3), CAR))
        expected = np.array([
            [2.0 - mask_iou(t.observations[-1].mask, d.mask) - bank_similarity(t.bank, [d.embedding])[0]
             if t.class_id == d.class_id else INFEASIBLE for d in frame]
            for t in tracks
        ])
        assert (expected < 2.0).sum() == 8  # seven pedestrian pairs overlap, and the cars

        def refuse(*args):
            raise AssertionError("a per-pair or per-track kernel was called")

        monkeypatch.setattr("masktrack.tracker.mask_iou", refuse)
        monkeypatch.setattr("masktrack.tracker.bank_similarity", refuse)
        assert np.array_equal(assignment_cost(tracks, frame), expected)

    def test_mask_dims_checked_only_within_a_class(self):
        tracker = MaskTracker(track_cfg())
        tracker.step(1, [make_det(1, 20, 30, unit(0))])
        box = BBox(150, 180, 10, 20)
        # a car of other dimensions is never compared with the pedestrian
        car = Detection(2, CAR, 0.9, box, rect_mask(240, 200, box), unit(0))
        assert sorted(tracker.step(2, [car, make_det(2, 20, 30, unit(0))])) == [1001, 2001]
        # a pedestrian is, although the extents lie apart and no mask is cut
        taller = Detection(3, PEDESTRIAN, 0.9, box, rect_mask(240, 200, box), unit(0))
        with pytest.raises(ShapeMismatch, match="mask dims differ"):
            tracker.step(3, [taller])

    def test_embedding_widths_checked_within_a_class(self):
        tracker = MaskTracker(track_cfg())
        tracker.step(1, [make_det(1, 20, 30, unit(0))])
        # a car of another width is never compared with the pedestrian
        out = tracker.step(2, [make_det(2, 20, 30, unit(0)), make_det(2, 90, 30, unit(0, 4), CAR)])
        assert sorted(out) == [1001, 2001]
        with pytest.raises(ShapeMismatch):
            tracker.step(3, [make_det(3, 20, 30, unit(0)), make_det(3, 60, 30, unit(0, 4))])


class TestGatedSolve:
    @given(st.data(), st.integers(1, 5), st.integers(1, 5))
    def test_keeps_the_optimal_pairs_under_their_class_gate(self, data, n, m):
        values = st.sampled_from([INFEASIBLE, 0.0, 0.5, 1.0, 1.7]) | st.floats(0.0, 3.0)
        costs = data.draw(arrays(float, (n, m), elements=values))
        classes = data.draw(st.lists(st.sampled_from([CAR, PEDESTRIAN]), min_size=n, max_size=n))
        gates = {CAR: data.draw(st.floats(0.0, 3.0)), PEDESTRIAN: data.draw(st.floats(0.0, 3.0))}
        tracks = [SimpleNamespace(class_id=c) for c in classes]
        solved = hungarian_solve(costs)
        card, total = brute_force(costs)
        assert all(costs[r, c] < INFEASIBLE for r, c in solved)
        assert len(solved) == card
        assert sum(costs[r, c] for r, c in solved) == pytest.approx(total, abs=1e-9)
        kept = _gated_solve(costs, tracks, TrackerConfig(gate_cost=gates))
        assert kept == [(r, c) for r, c in solved if costs[r, c] <= gates[classes[r]]]


class TestExtrapolateTrack:
    def test_stationary(self):
        dets = [make_det(f, 40, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        box, = extrapolate_track(track, [9], TrackerConfig())
        assert (box.x, box.y) == (pytest.approx(40), pytest.approx(50))
        assert (box.w, box.h) == (10, 20)

    def test_linear_motion_extends(self):
        dets = [make_det(f, 10 + 2 * f, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        box, = extrapolate_track(track, [8], TrackerConfig())
        # moving +2 px/frame, 3 frames past the last observation at f=5
        assert box.x == pytest.approx(10 + 2 * 5 + 6, abs=1e-6)
        assert box.y == pytest.approx(50, abs=1e-6)

    def test_single_observation_falls_back_to_last_box(self):
        det = make_det(1, 33, 44, unit(0))
        track = make_track(2001, [det])
        box, = extrapolate_track(track, [7], TrackerConfig())
        assert (box.x, box.y) == (33, 44)

    @pytest.mark.parametrize("window", [0, -1, -10])
    def test_window_below_one_refused(self, window):
        # obs[-0:] would fit the tail on every observation; obs[:0] has no head box
        track = make_track(2001, [make_det(f, 40, 50, unit(0)) for f in range(1, 6)])
        for frame in (0, 9):
            with pytest.raises(ConfigError, match=f"huber_window must be >= 1, got {window}"):
                extrapolate_track(track, [frame], TrackerConfig(huber_window=window))

    def test_window_of_one_gives_the_end_boxes(self):
        dets = [make_det(f, 10 + 2 * f, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        assert extrapolate_track(track, [0, 9], TrackerConfig(huber_window=1)) == [
            dets[0].box, dets[-1].box]


def fresh_copy(track):
    """The same fragment as a new object, with no fit cached."""
    return Tracklet(track.id, track.class_id, list(track.observations), track.bank)


@st.composite
def walks(draw, min_size=1):
    """Detections at increasing frames with small steps in position."""
    frame, x, y, dets = 10, 60, 40, []
    for _ in range(draw(st.integers(min_size, 15))):
        frame += draw(st.integers(1, 3))
        x, y = x + draw(st.integers(-3, 3)), y + draw(st.integers(-2, 2))
        dets.append(make_det(frame, x, y, unit(0)))
    return dets


class TestExtrapolateTrackFitCache:
    @given(walks(min_size=2), st.integers(1, 8), st.floats(0.5, 8.0), st.data())
    def test_after_observe_equals_a_fresh_fit(self, dets, window, delta, data):
        cfg = TrackerConfig(huber_window=window, huber_delta=delta)
        track = make_track(2001, dets[:-1])
        frames = [track.first_frame - 2, track.last_frame + 1, track.last_frame + 4]
        assert extrapolate_track(track, frames, cfg) == extrapolate_track(fresh_copy(track), frames, cfg)
        track.observe(dets[-1])  # the tail window moves on; the cached line must not serve it
        frames = [track.first_frame - 2, track.last_frame + data.draw(st.integers(1, 6))]
        assert extrapolate_track(track, frames, cfg) == extrapolate_track(fresh_copy(track), frames, cfg)

    @given(walks(), st.integers(1, 8), st.integers(1, 8), st.floats(0.5, 8.0), st.floats(0.5, 8.0))
    def test_each_config_gets_its_own_fit(self, dets, w1, w2, d1, d2):
        track = make_track(2001, dets)
        frames = [track.first_frame - 3, track.last_frame + 2]
        configs = [TrackerConfig(huber_window=w1, huber_delta=d1),
                   TrackerConfig(huber_window=w2, huber_delta=d2)]
        want = [extrapolate_track(fresh_copy(track), frames, cfg) for cfg in configs]
        # asked in turn, each config twice, on one tracklet
        assert [extrapolate_track(track, frames, cfg) for cfg in configs * 2] == want * 2

    def test_each_window_is_fitted_once(self, monkeypatch):
        calls = []
        real_fit = tracker.huber_fit

        def counted_fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tracker, "huber_fit", counted_fit)
        cfg = TrackerConfig(huber_window=4)
        short = make_track(2001, [make_det(f, 10 + f, 50, unit(0)) for f in range(1, 5)])
        for frames in ([9], [10], [0, 9], [-3]):  # one window: head and tail are the same four
            extrapolate_track(short, frames, cfg)
        assert len(calls) == 2  # one line: a fit for x, one for y
        short.observe(make_det(5, 15, 50, unit(0)))
        extrapolate_track(short, [0, 9], cfg)  # the head window is cached, the tail moved on
        assert len(calls) == 4


class TestExtrapolateTrackProperty:
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-2, 2)),
            min_size=1,
            max_size=15,
        ),
        st.lists(st.integers(-15, 60), max_size=12),
        st.integers(1, 8),
        st.floats(0.5, 8.0),
    )
    def test_each_box_equals_the_single_frame_call(self, steps, frames, window, delta):
        frame, x, y, dets = 10, 60, 40, []
        for skip, dx, dy in steps:
            frame, x, y = frame + skip, x + dx, y + dy
            dets.append(make_det(frame, x, y, unit(0)))
        track = make_track(2001, dets)
        cfg = TrackerConfig(huber_window=window, huber_delta=delta)
        boxes = extrapolate_track(track, frames, cfg)
        assert boxes == [extrapolate_track(track, [f], cfg)[0] for f in frames]


class TestStrMatch:
    def setup_method(self):
        self.cfg = TrackerConfig(fps=25.0)

    def test_exact_position_and_embedding_matched(self):
        dets = [make_det(f, 10 + 2 * f, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        track.state = TrackState.LOST
        det = make_det(8, 10 + 2 * 8, 50, unit(0))
        assert str_match([track], [det], 8, self.cfg) == [(0, 0)]

    def test_distance_gate_blocks_far_detection(self):
        dets = [make_det(f, 40, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        # 3 widths away horizontally; identical embedding cannot save it
        det = make_det(8, 40 + 3 * 10, 50, unit(0))
        assert str_match([track], [det], 8, self.cfg) == []

    def test_higher_similarity_wins_on_tie(self):
        left = make_track(2001, [make_det(f, 30, 50, unit(0)) for f in range(1, 4)])
        right = make_track(2002, [make_det(f, 50, 50, unit(1)) for f in range(1, 4)])
        # detection equidistant from both extrapolations, embedding = unit(1)
        det = make_det(6, 40, 50, unit(1))
        matches = str_match([left, right], [det], 6, self.cfg)
        assert matches == [(1, 0)]

    def test_cost_gate_rejects_dissimilar_pair(self):
        # within reach but orthogonal appearance and no box overlap:
        # cost 2 - 0 - 0 = 2 exceeds the assignment gate
        dets = [make_det(f, 40, 50, unit(0)) for f in range(1, 6)]
        track = make_track(2001, dets)
        near = make_det(8, 52, 50, unit(1))
        assert str_match([track], [near], 8, self.cfg) == []


def track_cfg(fps=25.0, **kw):
    return TrackerConfig(fps=fps, **kw)


class TestStep:
    def test_single_track_extends(self):
        tracker = MaskTracker(track_cfg())
        tracker.step(1, [make_det(1, 20, 30, unit(0))])
        tracker.step(2, [make_det(2, 22, 30, unit(0))])
        assert len(tracker.tracks) == 1
        assert len(tracker.tracks[0].observations) == 2

    def test_ids_monotonic_per_class(self):
        tracker = MaskTracker(track_cfg())
        out = tracker.step(
            1,
            [
                make_det(1, 20, 30, unit(0)),
                make_det(1, 60, 30, unit(1)),
                make_det(1, 100, 30, unit(2), class_id=CAR, w=20, h=10),
            ],
        )
        assert sorted(out) == [1001, 2001, 2002]

    def test_termination_after_memory_window(self):
        cfg = track_cfg(fps=25.0)  # pedestrian window: 5 frames
        tracker = MaskTracker(cfg)
        tracker.step(1, [make_det(1, 20, 30, unit(0))])
        for f in range(2, 8):
            tracker.step(f, [])
        # 6 missed frames > 5: terminated, a fresh detection spawns a new id
        out = tracker.step(8, [make_det(8, 20, 30, unit(0))])
        assert list(out) == [2002]
        states = {t.id: t.state for t in tracker.tracks}
        assert states[2001] is TrackState.TERMINATED

    def test_gap_within_window_recovered_by_retrieval(self):
        cfg = track_cfg(fps=25.0)
        tracker = MaskTracker(cfg)
        for f in range(1, 4):
            tracker.step(f, [make_det(f, 20, 30, unit(0))])
        for f in range(4, 9):
            tracker.step(f, [])  # 5 missed frames == window: still lost
        out = tracker.step(9, [make_det(9, 20, 30, unit(0))])
        assert list(out) == [2001]
        assert len(tracker.tracks) == 1

    def test_retrieval_disabled_spawns_new_track(self):
        cfg = track_cfg(fps=25.0, str_enabled=False)
        tracker = MaskTracker(cfg)
        for f in range(1, 4):
            tracker.step(f, [make_det(f, 20, 30, unit(0))])
        tracker.step(4, [])
        out = tracker.step(5, [make_det(5, 20, 30, unit(0))])
        assert list(out) == [2002]

    def test_terminated_tracks_never_rematch(self):
        cfg = track_cfg(fps=25.0)
        tracker = MaskTracker(cfg)
        tracker.step(1, [make_det(1, 20, 30, unit(0))])
        for f in range(2, 9):
            tracker.step(f, [])
        for f in range(9, 14):
            tracker.step(f, [make_det(f, 20, 30, unit(0))])
        ids = {t.id for t in tracker.tracks}
        assert ids == {2001, 2002}
        assert len([t for t in tracker.tracks if t.id == 2002][0].observations) == 5

    def test_crossing_objects_keep_identities(self):
        # two objects swap sides; masks coincide mid-crossing but the
        # orthogonal embeddings order the costs
        cfg = track_cfg(fps=25.0)
        tracker = MaskTracker(cfg)
        for f in range(1, 12):
            x_a = 20.0 + 4 * (f - 1)
            x_b = 60.0 - 4 * (f - 1)
            tracker.step(
                f,
                [
                    make_det(f, x_a, 30, unit(0)),
                    make_det(f, x_b, 30, unit(1)),
                ],
            )
        tracks = {t.id: t for t in tracker.tracks}
        assert set(tracks) == {2001, 2002}
        # identity A started left and must end right
        assert tracks[2001].observations[0].box.x == 20.0
        assert tracks[2001].observations[-1].box.x == 60.0
        assert tracks[2002].observations[0].box.x == 60.0
        assert tracks[2002].observations[-1].box.x == 20.0

    def test_one_to_one_assignment_per_frame(self):
        rng = np.random.default_rng(19)
        tracker = MaskTracker(track_cfg())
        for f in range(1, 20):
            dets = [
                make_det(
                    f,
                    float(rng.integers(0, 150)),
                    float(rng.integers(0, 90)),
                    rng.normal(size=8),
                )
                for _ in range(int(rng.integers(0, 5)))
            ]
            out = tracker.step(f, dets)
            assert len(set(out)) == len(out)
        for t in tracker.tracks:
            frames = [o.frame for o in t.observations]
            assert frames == sorted(set(frames))

    def test_gate_applies_after_the_solve(self, monkeypatch):
        # the solve picks A-1 + B-2 (total 2.0) over A-2 + B-1 (2.6); B-2 then
        # fails the 1.7 gate, although gating before the solve would have
        # matched both tracks through A-2 and B-1
        tracker = MaskTracker(track_cfg(gate_cost={CAR: 1.7, PEDESTRIAN: 1.7}))
        tracker.step(1, [make_det(1, 20, 30, unit(0)), make_det(1, 60, 30, unit(1))])
        det1, det2 = make_det(2, 20, 30, unit(0)), make_det(2, 60, 30, unit(1))
        table = {(2001, 20.0): 0.0, (2001, 60.0): 1.0, (2002, 20.0): 1.6, (2002, 60.0): 2.0}
        monkeypatch.setattr(
            "masktrack.tracker.assignment_cost",
            lambda ts, ds: np.array([[table[(t.id, d.box.x)] for d in ds] for t in ts]),
        )
        out = tracker.step(2, [det1, det2])
        assert out == {2001: det1, 2003: det2}
        states = {t.id: t.state for t in tracker.tracks}
        assert states == {
            2001: TrackState.ACTIVE,
            2002: TrackState.LOST,
            2003: TrackState.ACTIVE,
        }

    def test_out_of_order_frame_rejected(self):
        tracker = MaskTracker(track_cfg())
        tracker.step(5, [])
        with pytest.raises(OutOfOrderFrame):
            tracker.step(5, [])
        with pytest.raises(OutOfOrderFrame):
            tracker.step(4, [])

    def test_mis_stamped_detection_rejected(self):
        tracker = MaskTracker(track_cfg())
        with pytest.raises(OutOfOrderFrame):
            tracker.step(2, [make_det(3, 10, 10, unit(0))])

    def test_deterministic_replay(self):
        rng = np.random.default_rng(31)
        frames = []
        for f in range(1, 30):
            frames.append(
                (
                    f,
                    [
                        make_det(
                            f,
                            float(rng.integers(0, 150)),
                            float(rng.integers(0, 90)),
                            rng.normal(size=8),
                        )
                        for _ in range(int(rng.integers(0, 4)))
                    ],
                )
            )

        def run():
            tracker = MaskTracker(track_cfg())
            for f, dets in frames:
                tracker.step(f, dets)
            return [
                (t.id, t.class_id, [(o.frame, o.box) for o in t.observations])
                for t in tracker.finalize()
            ]

        assert run() == run()

    def test_finalize_produces_sorted_tracklets(self):
        tracker = MaskTracker(track_cfg())
        tracker.step(1, [make_det(1, 20, 30, unit(0)), make_det(1, 60, 30, unit(1))])
        tracklets = tracker.finalize()
        assert [t.id for t in tracklets] == [2001, 2002]
        assert all(len(t.observations) == 1 for t in tracklets)


@st.composite
def frame_streams(draw):
    """Increasing frames, some after gaps long enough to terminate tracks,
    each with 0-4 detections of either class whose embeddings come from a
    few unit vectors."""
    frames, frame = [], 0
    for _ in range(draw(st.integers(1, 14))):
        frame += draw(st.sampled_from([1, 1, 1, 2, 4, 7]))
        dets = []
        for _ in range(draw(st.integers(0, 4))):
            class_id = draw(st.sampled_from([CAR, PEDESTRIAN]))
            w, h = (20.0, 10.0) if class_id == CAR else (10.0, 20.0)
            x = float(draw(st.integers(0, 9))) * 8.0
            y = float(draw(st.integers(0, 4))) * 8.0
            emb = unit(draw(st.integers(0, 2)))
            dets.append(make_det(frame, x, y, emb, class_id=class_id, w=w, h=h))
        frames.append((frame, dets))
    return frames


class TestTrackerInvariants:
    @settings(max_examples=100)
    @given(frame_streams())
    def test_step_invariants(self, stream):
        tracker = MaskTracker(track_cfg(fps=25.0))  # windows: car 3, pedestrian 5 frames
        spawned = {CAR: [], PEDESTRIAN: []}
        terminated: set[int] = set()
        for frame, dets in stream:
            out = tracker.step(frame, dets)
            # every detection goes to exactly one id
            assert len(out) == len(dets)
            assert {id(d) for d in out.values()} == {id(d) for d in dets}
            terminated |= {t.id for t in tracker.tracks if t.state is TrackState.TERMINATED}
            assert terminated.isdisjoint(out)
            for t in tracker.tracks:
                assert (t.state is TrackState.ACTIVE) == (t.id in out)
            for track_id, det in out.items():
                known = spawned[det.class_id]
                if track_id not in known:
                    known.append(track_id)
        for class_id, ids in spawned.items():
            assert ids == [class_id * 1000 + k for k in range(1, len(ids) + 1)]
        for tracklet in tracker.finalize():
            frames = [o.frame for o in tracklet.observations]
            assert all(a < b for a, b in zip(frames, frames[1:]))


class TestSerialId:
    def test_unique_over_both_classes(self):
        ids = [serial_id(c, s) for c in (CAR, PEDESTRIAN) for s in range(1, 5001)]
        assert len(set(ids)) == len(ids)

    def test_first_999_serials_keep_their_class_block(self):
        assert [serial_id(CAR, s) for s in (1, 999)] == [1001, 1999]
        assert [serial_id(PEDESTRIAN, s) for s in (1, 999)] == [2001, 2999]
        assert (serial_id(CAR, 1000), serial_id(PEDESTRIAN, 1000)) == (3000, 4000)

    def test_the_1001st_car_track_keeps_off_the_first_pedestrian_id(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        tracker = MaskTracker(track_cfg())  # car window: 3 frames
        for k in range(1000):  # six frames each, then a 20-frame gap
            emb = rng.standard_normal(8)
            for frame in range(26 * k + 1, 26 * k + 7):
                tracker.step(frame, [make_det(frame, 20, 30, emb, class_id=CAR)])
        for frame in range(26001, 26007):
            car = make_det(frame, 20, 30, unit(0), class_id=CAR)
            tracker.step(frame, [car, make_det(frame, 120, 30, unit(1))])
        last_two = tracker.tracks[-2:]
        assert [(t.class_id, t.id) for t in last_two] == [(CAR, 3001), (PEDESTRIAN, 2001)]
        path = tmp_path / "seq.txt"
        write_results(tracker.finalize(), make_meta(), str(path))
        assert cli.main(["eval", str(path), str(path)]) == 0, capsys.readouterr().err


@st.composite
def detection_list_pairs(draw):
    """1-6 pairs of detection lists of 0-4 detections of either class. Each
    pair has its own dims, so one block mixes frame sizes; the masks are
    random grids, empty ones and runs that wrap past a column included."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        h, w = draw(st.sampled_from([(4, 5), (6, 3), (1, 7)]))
        sides = []
        for _ in range(2):
            side = []
            for _ in range(draw(st.integers(0, 4))):
                grid = draw(arrays(bool, (h, w)))
                class_id = draw(st.sampled_from([CAR, PEDESTRIAN]))
                mask = rle_encode(grid)
                side.append(Detection(1, class_id, 0.9, BBox(0, 0, w, h), mask, unit(0)))
            sides.append(side)
        pairs.append(tuple(sides))
    return pairs


class TestFramePairIous:
    @given(detection_list_pairs(), st.integers(1, 200))
    def test_each_cell_is_mask_iou_bit_for_bit(self, pairs, budget):
        # the pre-pass's blocks under a small budget, so block boundaries
        # fall between the pairs
        cuts = blocks([tracker._pair_weight(*p) for p in pairs], budget)
        cells = [c for lo, hi in cuts for c in frame_pair_ious(pairs[lo:hi])]
        assert len(cells) == len(pairs)
        for (a, b), (rows, cols, iou) in zip(pairs, cells):
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(iou)  # each cell once
            matrix = np.zeros((len(a), len(b)))
            matrix[rows, cols] = iou
            for i, da in enumerate(a):
                for j, db in enumerate(b):
                    want = mask_iou(da.mask, db.mask) if da.class_id == db.class_id else 0.0
                    assert float(matrix[i, j]).hex() == want.hex()

    def test_blocks_split_under_the_budget(self):
        pairs = [
            ([make_det(f, 20, 30, unit(0))], [make_det(f + 1, 22, 30, unit(0))])
            for f in range(1, 6)
        ]
        whole = frame_pair_ious(pairs)
        weights = [tracker._pair_weight(*p) for p in pairs]
        assert blocks(weights, tracker._BLOCK_BUDGET) == [(0, 5)]
        assert blocks(weights, 1) == [(k, k + 1) for k in range(5)]  # one pair a block
        split = [frame_pair_ious([p])[0] for p in pairs]
        assert all(iou.size == 1 and iou[0] > 0 for _, _, iou in whole)
        for x, y in zip(split, whole):
            assert all(np.array_equal(u, v) for u, v in zip(x, y))


def spy_trackers(monkeypatch):
    """Every MaskTracker the pipeline makes, and the number of assignment_cost calls."""
    made, calls = [], []

    class Spy(MaskTracker):
        def __init__(self, config):
            super().__init__(config)
            made.append(self)

    real_cost = tracker.assignment_cost

    def counted(tracks, dets):
        calls.append(1)
        return real_cost(tracks, dets)

    monkeypatch.setattr(pipeline, "MaskTracker", Spy)
    monkeypatch.setattr(tracker, "assignment_cost", counted)
    return made, calls


def step_loop(meta, dets_by_frame):
    """The online tracker of run_pipeline as a plain step loop over the same
    filtered frames, with no table."""
    cfg = resolve_for_sequence(PipelineConfig(), meta.fps, meta.camera_mode)
    plain = MaskTracker(cfg.tracker)
    for frame in sorted(dets_by_frame):
        plain.step(frame, filter_detections(dets_by_frame[frame], cfg.filters))
    return plain.finalize()


def assert_same_tracks(got, want):
    assert [t.id for t in got] == [t.id for t in want]
    for g, w in zip(got, want):
        assert len(g.observations) == len(w.observations)
        assert all(a is b for a, b in zip(g.observations, w.observations))
        assert g.state is w.state


class TestPrescore:
    @pytest.mark.parametrize("spec", [
        scenario_clean(),
        scenario_detector_gaps(),
        scenario_long_occlusions("static"),
        scenario_long_occlusions("moving"),
    ], ids=["clean", "gaps", "occlusions_static", "occlusions_moving"])
    def test_pipeline_tracks_as_a_plain_step_loop(self, monkeypatch, spec):
        meta, dets, _ = generate(spec)
        made, calls = spy_trackers(monkeypatch)
        pipeline.run_pipeline(meta, dets, PipelineConfig())
        assert calls == []  # every step read the table
        assert_same_tracks(made[0].finalize(), step_loop(meta, dets))

    @settings(max_examples=100)
    @given(frame_streams(), st.data())
    def test_pipeline_tracks_as_a_plain_step_loop_with_gaps(self, stream, data):
        # some detections fall to the score filter, so kept lists differ from the input
        dets = {
            frame: [replace(d, score=0.3) if data.draw(st.booleans()) else d for d in frame_dets]
            for frame, frame_dets in stream
        }
        with pytest.MonkeyPatch.context() as monkeypatch:
            made, calls = spy_trackers(monkeypatch)
            pipeline.run_pipeline(make_meta(), dets, PipelineConfig())
        assert calls == []
        assert_same_tracks(made[0].finalize(), step_loop(make_meta(), dets))

    def test_a_step_on_other_lists_ignores_the_table(self, monkeypatch):
        frames = [[make_det(f, 20 + 2 * f, 30, unit(0)), make_det(f, 60 - 2 * f, 30, unit(1))]
                  for f in range(1, 5)]
        with_table, without = MaskTracker(track_cfg()), MaskTracker(track_cfg())
        with_table.prescore(list(enumerate(frames, start=1)))
        calls = []
        real_cost = tracker.assignment_cost

        def counted(tracks, dets):
            calls.append(dets[0].frame)
            return real_cost(tracks, dets)

        monkeypatch.setattr(tracker, "assignment_cost", counted)
        # frame 2 gets a copy of its list, so it scores its own IOU; frame
        # 3's entry was built against the original list of frame 2, whose
        # detections are the same objects, so frames 3 and 4 read the table
        fed = [frames[0], list(frames[1]), frames[2], frames[3]]
        outputs = [with_table.step(frame, dets) for frame, dets in enumerate(fed, start=1)]
        assert calls == [2]
        assert outputs == [without.step(frame, dets) for frame, dets in enumerate(fed, start=1)]
        assert_same_tracks(with_table.finalize(), without.finalize())

    def test_a_small_budget_scores_in_many_blocks(self, monkeypatch):
        frames = [[make_det(f, 20 + 2 * f, 30, unit(0))] for f in range(1, 7)]
        weight = tracker._pair_weight(frames[0], frames[1])  # every pair weighs this
        with_table, without = MaskTracker(track_cfg()), MaskTracker(track_cfg())
        blocked = []
        real_ious = tracker.frame_pair_ious

        def counted(pairs):
            blocked.append(len(pairs))
            return real_ious(pairs)

        with monkeypatch.context() as patched:
            patched.setattr(tracker, "frame_pair_ious", counted)
            patched.setattr(tracker, "_BLOCK_BUDGET", weight + 1)  # two pairs a block
            with_table.prescore(list(enumerate(frames, start=1)))
        assert blocked == [2, 2, 1]
        calls = []
        real_cost = tracker.assignment_cost

        def counted(tracks, dets):
            calls.append(dets[0].frame)
            return real_cost(tracks, dets)

        monkeypatch.setattr(tracker, "assignment_cost", counted)
        for frame, dets in enumerate(frames, start=1):
            assert with_table.step(frame, dets) == without.step(frame, dets)
        assert calls == [2, 3, 4, 5, 6]  # every step without the table, and none with it
        assert_same_tracks(with_table.finalize(), without.finalize())

    @pytest.mark.parametrize(
        "other", [{1}, {2}, {1, 2}], ids=["previous_frame", "this_frame", "both_frames"]
    )
    def test_a_step_next_to_other_detections_scores_its_own(self, other):
        # the frames in ``other`` are fed another list than the table was
        # built for, whose one detection is far off and unlike the rest: with
        # the table's IOU of 0.8, frame 2's cost would pass the gate
        built = [(1, [make_det(1, 20, 30, unit(0))]), (2, [make_det(2, 22, 30, unit(0))])]
        fed = [(f, [make_det(f, 90, 30, unit(1))] if f in other else dets) for f, dets in built]
        with_table, without = MaskTracker(track_cfg()), MaskTracker(track_cfg())
        with_table.prescore(built)
        for frame, dets in fed:
            assert with_table.step(frame, dets) == without.step(frame, dets)
        assert_same_tracks(with_table.finalize(), without.finalize())

    def test_mixed_dims_raise_at_their_step_as_without_the_table(self, monkeypatch):
        box = BBox(20, 30, 10, 20)
        dets = {f: [make_det(f, 20, 30, unit(0))] for f in (1, 2, 3)}
        dets[3].append(Detection(3, PEDESTRIAN, 0.9, box, rect_mask(240, 200, box), unit(1)))
        with pytest.raises(ShapeMismatch) as plain:
            step_loop(make_meta(), dets)
        made, calls = spy_trackers(monkeypatch)
        with pytest.raises(ShapeMismatch) as piped:
            pipeline.run_pipeline(make_meta(), dets, PipelineConfig())
        assert str(piped.value) == str(plain.value) == "mask dims differ: 120x200 vs 240x200"
        assert [t.last_frame for t in made[0].tracks] == [2]  # frames 1 and 2 were tracked
        assert len(calls) == 2  # the failed block's steps scored their own IOU

