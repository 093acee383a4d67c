import math

import numpy as np
import pytest
from helpers import (
    IMG_H,
    IMG_W,
    make_tracklet,
    reference_candidate_pairs,
    reference_merge_pass,
    unit,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masktrack.embedding import FeatureBank, bank_cross_similarity, bank_update
from masktrack.errors import ConfigError
from masktrack.geometry import BBox, bbox_iou, rect_mask
from masktrack.regression import huber_fit
from masktrack.reid import (
    ReidConfig,
    candidate_pairs,
    merge_pass,
    motion_vector,
    moving_merge_test,
    static_merge_test,
)
from masktrack.tracker import CAR, PEDESTRIAN, Detection, Tracklet, TrackerConfig

FPS = 25.0  # pedestrian long-term window: 25 frames


def line(track_id, frames, x0, y0, vx=0.0, vy=0.0, emb=None):
    positions = [(f, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0])) for f in frames]
    return make_tracklet(track_id, positions, unit(0) if emb is None else emb)


class TestCandidatePairs:
    def setup_method(self):
        self.cfg = ReidConfig()

    def test_overlapping_frames_excluded(self):
        a = line(2001, range(1, 20), 10, 30)
        b = line(2002, range(17, 40), 10, 30)  # shares frames 17-19
        assert candidate_pairs([a, b], self.cfg, FPS) == []

    def test_gap_beyond_window_excluded(self):
        a = line(2001, range(1, 11), 10, 30)  # ends at 10
        b = line(2002, range(37, 50), 10, 30)  # gap of 26 > 25
        assert candidate_pairs([a, b], self.cfg, FPS) == []

    def test_gap_at_window_included(self):
        a = line(2001, range(1, 11), 10, 30)
        b = line(2002, range(36, 50), 10, 30)  # gap of exactly 25
        assert candidate_pairs([a, b], self.cfg, FPS) == [(0, 1, 1.0)]

    def test_identical_banks_small_gap_included(self):
        a = line(2001, range(1, 11), 10, 30)
        b = line(2002, range(14, 30), 10, 30)
        assert candidate_pairs([a, b], self.cfg, FPS) == [(0, 1, 1.0)]

    def test_dissimilar_banks_excluded(self):
        a = line(2001, range(1, 11), 10, 30, emb=unit(0))
        b = line(2002, range(14, 30), 10, 30, emb=unit(1))
        assert candidate_pairs([a, b], self.cfg, FPS) == []

    def test_cross_class_excluded(self):
        a = line(2001, range(1, 11), 10, 30)
        b = line(1001, range(14, 30), 10, 30)
        b.class_id = 1
        assert candidate_pairs([a, b], self.cfg, FPS) == []


@st.composite
def looks(draw, first_frame):
    """A tracklet of 1-12 frames from ``first_frame`` whose embeddings are
    noisy copies of one of two prototypes, so banks meet beta1 or miss it."""
    n = draw(st.integers(1, 12))
    proto = unit(draw(st.integers(0, 1)))
    noise = st.lists(st.floats(-0.6, 0.6), min_size=8, max_size=8)
    positions = [(first_frame + k, 40.0, 30.0) for k in range(n)]
    bank = FeatureBank(5)
    for f, _, _ in positions:
        bank = bank_update(bank, proto + np.array(draw(noise)), f)
    return Tracklet(2000, PEDESTRIAN, make_tracklet(2000, positions, proto).observations, bank)


class TestCandidatePairsProperty:
    @given(st.data(), st.lists(st.integers(1, 60), min_size=2, max_size=6))
    def test_sim_is_the_pairs_cross_similarity(self, data, starts):
        tracklets = [data.draw(looks(s)) for s in starts]
        pairs = candidate_pairs(tracklets, ReidConfig(), FPS)
        for i, j, sim in pairs:
            assert sim == bank_cross_similarity(tracklets[i].bank, tracklets[j].bank)
            assert sim > ReidConfig().beta1


@st.composite
def windowed(draw):
    """2-12 tracklets of either class, each starting after an earlier one's
    last frame by a gap of exactly 0, n2 or n2 + 1 frames or any other, or
    on another's first frame. Banks hold 1 to 2 * bank_size noisy copies of
    one of two looks; ids come in any order."""
    cfg = ReidConfig()
    n = draw(st.integers(2, 12))
    ids = draw(st.permutations(range(2001, 2001 + n)))
    tracklets = []
    for track_id in ids:
        class_id = draw(st.sampled_from([CAR, PEDESTRIAN]))
        if not tracklets:
            first = draw(st.integers(1, 40))
        else:
            other = draw(st.sampled_from(tracklets))
            n2 = cfg.n2_frames(other.class_id, FPS)
            gap = draw(st.sampled_from([0, n2, n2 + 1]) | st.integers(0, 2 * n2))
            first = draw(st.sampled_from([other.last_frame + 1 + gap, other.first_frame]))
        look = unit(draw(st.integers(0, 1)), dim=16)
        positions = [(first + f, 40.0, 30.0) for f in range(draw(st.integers(1, 20)))]
        noise = st.lists(st.floats(-0.6, 0.6), min_size=16, max_size=16)
        bank = FeatureBank(5)
        for row in range(draw(st.integers(1, 10))):
            bank = bank_update(bank, look + np.array(draw(noise)), row)
        obs = make_tracklet(track_id, positions, look, class_id=class_id).observations
        tracklets.append(Tracklet(track_id, class_id, obs, bank))
    return tracklets


class TestCandidatePairsWindow:
    @given(windowed())
    def test_equals_the_all_pairs_reference_bit_for_bit(self, tracklets):
        got = candidate_pairs(tracklets, ReidConfig(), FPS)
        want = reference_candidate_pairs(tracklets, ReidConfig(), FPS)
        assert [(i, j, sim.hex()) for i, j, sim in got] == [(i, j, sim.hex()) for i, j, sim in want]


class TestMotionVector:
    def test_uniform_motion(self):
        tr = make_tracklet(2001, [(f, float(f - 1), 0.0) for f in range(1, 6)], unit(0))
        vec = motion_vector(tr, "tail", 5)
        assert tuple(vec) == (1.0, 0.0)

    def test_stationary(self):
        tr = make_tracklet(2001, [(f, 7.0, 9.0) for f in range(1, 6)], unit(0))
        vec = motion_vector(tr, "head", 5)
        assert tuple(vec) == (0.0, 0.0)
        assert math.hypot(*vec) == 0.0

    def test_telescoping_hand_case(self):
        tops = [(0, 0), (5, 2), (6, 3), (7, 4), (8, 4)]
        tr = make_tracklet(
            2001, [(f + 1, float(x), float(y)) for f, (x, y) in enumerate(tops)], unit(0)
        )
        vec = motion_vector(tr, "tail", 5)
        assert tuple(vec) == (2.0, 1.0)

    def test_telescoping_identity_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            xs = rng.integers(0, 50, k).astype(float)
            ys = rng.integers(0, 50, k).astype(float)
            tr = make_tracklet(
                2001,
                [(i + 1, float(xs[i]), float(ys[i])) for i in range(k)],
                unit(0),
            )
            n3 = int(rng.integers(2, 8))
            for end in ("head", "tail"):
                window = xs[:min(n3, k)] if end == "head" else xs[-min(n3, k):]
                wy = ys[:min(n3, k)] if end == "head" else ys[-min(n3, k):]
                vec = motion_vector(tr, end, n3)
                m = len(window)
                assert vec[0] == (window[-1] - window[0]) / (m - 1)
                assert vec[1] == (wy[-1] - wy[0]) / (m - 1)

    @pytest.mark.parametrize("n3", [0, -2])
    def test_window_below_one_refused(self, n3):
        # n3=0 took every observation for the tail and none for the head;
        # n3=-2 took obs[:-2] for the head
        tr = make_tracklet(2001, [(f, float(f), 0.0) for f in range(1, 6)], unit(0))
        for end in ("head", "tail"):
            with pytest.raises(ConfigError, match=f"n3 must be >= 1, got {n3}"):
                motion_vector(tr, end, n3)
        with pytest.raises(ConfigError):
            moving_merge_test(tr, tr, ReidConfig(n3_frames=n3))

    def test_single_observation_low_confidence(self):
        tr = make_tracklet(2001, [(1, 5.0, 5.0)], unit(0))
        vec = motion_vector(tr, "tail", 5)
        assert tuple(vec) == (0.0, 0.0)
        assert math.hypot(*vec) == 0.0


class TestStaticMergeTest:
    def setup_method(self):
        self.cfg = ReidConfig()
        self.tcfg = TrackerConfig(fps=FPS)

    def test_stationary_same_place_merges(self):
        a = line(2001, range(1, 11), 40, 30)
        b = line(2002, range(16, 26), 40, 30)
        assert static_merge_test(a, b, self.cfg, self.tcfg)

    def test_far_apart_rejected(self):
        a = line(2001, range(1, 11), 10, 30)
        b = line(2002, range(16, 26), 10 + 5 * 10, 30)  # 5 widths away
        assert not static_merge_test(a, b, self.cfg, self.tcfg)

    def test_constant_velocity_fragments_merge(self):
        # same line of motion: forward and backward extrapolation coincide
        a = line(2001, range(1, 11), 10, 30, vx=2.0)
        b = line(2002, range(18, 28), 10 + 2.0 * 17, 30, vx=2.0)
        assert static_merge_test(a, b, self.cfg, self.tcfg)

    def test_partial_overlap_thresholds(self):
        # stationary fragments offset by 2px: every gap-frame IOU is
        # (10-2)*20 / ((10+2)*20) = 2/3
        a = line(2001, range(1, 11), 40, 30)
        b = line(2002, range(16, 26), 42, 30)
        assert static_merge_test(a, b, ReidConfig(beta2=0.5), self.tcfg)
        assert not static_merge_test(a, b, ReidConfig(beta2=0.7), self.tcfg)

    def test_adjacent_fragments_compare_directly(self):
        a = line(2001, range(1, 11), 40, 30)
        b = line(2002, range(11, 21), 40, 30)  # no gap frame in between
        assert static_merge_test(a, b, self.cfg, self.tcfg)


class TestMovingMergeTest:
    def setup_method(self):
        self.cfg = ReidConfig()

    def test_parallel_motion_merges(self):
        a = line(2001, range(1, 11), 10, 30, vx=1.0)
        b = line(2002, range(16, 26), 30, 30, vx=1.0)
        assert moving_merge_test(a, b, self.cfg)

    def test_opposite_motion_rejected(self):
        a = line(2001, range(1, 11), 10, 30, vx=1.0)
        b = line(2002, range(16, 26), 60, 30, vx=-1.0)
        assert not moving_merge_test(a, b, self.cfg)

    def test_diagonal_below_beta3_rejected(self):
        # cos((1,0),(1,1)) ~ 0.707 < 0.8
        a = line(2001, range(1, 11), 10, 30, vx=1.0)
        b = line(2002, range(16, 26), 30, 30, vx=1.0, vy=1.0)
        assert not moving_merge_test(a, b, ReidConfig(beta3=0.8))
        assert moving_merge_test(a, b, ReidConfig(beta3=0.7))

    def test_zero_motion_rejected(self):
        a = line(2001, range(1, 11), 10, 30)
        b = line(2002, range(16, 26), 10, 30)
        assert not moving_merge_test(a, b, self.cfg)

    def test_scale_invariance_of_decision(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            vxa, vya = rng.uniform(-3, 3, 2)
            vxb, vyb = rng.uniform(-3, 3, 2)
            scale = float(rng.uniform(0.1, 10.0))
            a = line(2001, range(1, 11), 60, 50, vx=vxa, vy=vya)
            b = line(2002, range(16, 26), 60, 50, vx=vxb, vy=vyb)
            a2 = line(2001, range(1, 11), 60, 50, vx=scale * vxa, vy=scale * vya)
            b2 = line(2002, range(16, 26), 60, 50, vx=scale * vxb, vy=scale * vyb)
            assert moving_merge_test(a, b, self.cfg) == moving_merge_test(
                a2, b2, self.cfg
            )


class TestMergePass:
    def setup_method(self):
        self.cfg = ReidConfig(camera_mode="static")
        self.tcfg = TrackerConfig(fps=FPS)

    def test_split_object_reunited(self):
        a = line(2001, range(1, 31), 40, 30)
        b = line(2002, range(43, 70), 40, 30)  # gap 12 ~ half the window
        merged = merge_pass([a, b], self.cfg, self.tcfg)
        assert [t.id for t in merged] == [2001]
        assert len(merged[0]) == len(a) + len(b)
        assert merged[0].first_frame == 1 and merged[0].last_frame == 69

    def test_distinct_objects_untouched(self):
        a = line(2001, range(1, 31), 10, 20)
        b = line(2002, range(43, 70), 150, 90, emb=unit(1))
        merged = merge_pass([a, b], self.cfg, self.tcfg)
        assert [t.id for t in merged] == [2001, 2002]

    def test_three_way_chain_converges_to_one_id(self):
        a = line(2001, range(1, 11), 40, 30)
        b = line(2002, range(16, 26), 40, 30)
        c = line(2003, range(31, 41), 40, 30)
        merged = merge_pass([a, b, c], self.cfg, self.tcfg)
        assert [t.id for t in merged] == [2001]
        assert [o.frame for o in merged[0].observations] == (
            list(range(1, 11)) + list(range(16, 26)) + list(range(31, 41))
        )

    def test_never_merges_overlapping_and_conserves_observations(self):
        rng = np.random.default_rng(33)
        tracklets = []
        next_id = 2001
        for _ in range(12):
            start = int(rng.integers(1, 60))
            length = int(rng.integers(1, 15))
            x = float(rng.integers(0, 9)) * 20.0
            tracklets.append(
                line(
                    next_id,
                    range(start, start + length),
                    x,
                    30,
                    emb=unit(int(x // 20), dim=16),
                )
            )
            next_id += 1
        before = sorted(
            (o.frame, t.class_id, o.box.x, o.box.y)
            for t in tracklets
            for o in t.observations
        )
        merged = merge_pass(tracklets, self.cfg, self.tcfg)
        assert len(merged) <= len(tracklets)
        after = sorted(
            (o.frame, t.class_id, o.box.x, o.box.y)
            for t in merged
            for o in t.observations
        )
        assert before == after  # observation multiset conserved
        for t in merged:
            frames = [o.frame for o in t.observations]
            assert frames == sorted(frames)
            assert len(frames) == len(set(frames))

    def test_deterministic(self):
        tracklets = [
            line(2001, range(1, 11), 40, 30),
            line(2002, range(16, 26), 40, 30),
            line(2003, range(31, 41), 40, 30),
            line(2004, range(16, 26), 120, 70, emb=unit(1)),
        ]
        def run():
            out = merge_pass(tracklets, self.cfg, self.tcfg)
            return [(t.id, len(t)) for t in out]

        assert run() == run()

    def test_bad_camera_mode_rejected(self):
        with pytest.raises(ValueError):
            merge_pass([], ReidConfig(), self.tcfg)


@st.composite
def fragment(draw, first_frame, x0, y0):
    """1-15 observations from ``first_frame`` on, with frame skips; velocity
    and box size change midway, so the head and tail windows disagree."""
    n = draw(st.integers(1, 15))
    half = draw(st.integers(0, n))
    frame, x, y = first_frame, x0, y0
    positions, sizes = [], []
    for k in range(n):
        if k:
            frame += draw(st.integers(1, 3))
        slow = k < half
        vx, vy = (1.5, 0.0) if slow else (-2.0, 1.0)
        x, y = x + vx + draw(st.integers(-1, 1)), y + vy
        positions.append((frame, x, y))
        sizes.append((10.0, 20.0) if slow else (14.0, 16.0))
    boxes = [BBox(x, y, w, h) for (_, x, y), (w, h) in zip(positions, sizes)]
    obs = [
        Detection(f, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box), unit(0))
        for (f, _, _), box in zip(positions, boxes)
    ]
    bank = FeatureBank(5)
    for f, _, _ in positions:
        bank = bank_update(bank, unit(0), f)
    return Tracklet(0, PEDESTRIAN, obs, bank)


def reference_gap_iou(u, v, window, delta):
    """Mean box IOU over the gap, from one Huber line per fragment end:
    u's last ``window`` observations forward, v's first ones backward."""

    def line(obs, anchor):
        if len(obs) < 2:
            return lambda f: anchor
        frames = [o.frame for o in obs]
        sx, ix = huber_fit(frames, [o.box.x for o in obs], delta=delta)
        sy, iy = huber_fit(frames, [o.box.y for o in obs], delta=delta)
        return lambda f: BBox(sx * f + ix, sy * f + iy, anchor.w, anchor.h)

    forward = line(u.observations[-window:], u.observations[-1].box)
    backward = line(v.observations[:window], v.observations[0].box)
    gap = range(u.last_frame + 1, v.first_frame)
    if not gap:
        return bbox_iou(u.observations[-1].box, v.observations[0].box)
    return sum(bbox_iou(forward(f), backward(f)) for f in gap) / len(gap)


class TestStaticMergeReference:
    @settings(max_examples=150)
    @given(st.data(), st.integers(2, 6), st.floats(0.5, 8.0), st.floats(0.01, 0.99))
    def test_matches_huber_reference(self, data, window, delta, beta2):
        u = data.draw(fragment(1, 60.0, 40.0))
        gap = data.draw(st.integers(0, 8))
        dx, dy = data.draw(st.integers(-12, 12)), data.draw(st.integers(-6, 6))
        end = u.observations[-1].box
        v = data.draw(fragment(u.last_frame + gap + 1, end.x + dx, end.y + dy))
        ref = reference_gap_iou(u, v, window, delta)
        assume(abs(ref - beta2) > 1e-9)
        cfg, tcfg = ReidConfig(beta2=beta2), TrackerConfig(huber_window=window, huber_delta=delta)
        assert static_merge_test(u, v, cfg, tcfg) == (ref > beta2)


# two looks and a blend of them: alike (cosine 1.0 or 0.93) or unlike (0.0 or 0.37)
LOOKS = [unit(0), unit(1), (unit(0) + 0.4 * unit(1)) / np.hypot(1.0, 0.4)]


@st.composite
def split_objects(draw):
    """2-4 objects moving at constant speed, each cut into 2-5 fragments of
    1-6 frames by gaps inside or beyond the 25-frame pedestrian window, with
    ids shuffled so that id order and frame order differ."""
    cuts = []
    for _ in range(draw(st.integers(2, 4))):
        look = LOOKS[draw(st.integers(0, 2))]
        x0, y0 = draw(st.integers(20, 160)), draw(st.integers(10, 90))
        vx = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
        vy = draw(st.sampled_from([-0.5, 0.0, 0.5]))
        frame = draw(st.integers(1, 30))
        for _ in range(draw(st.integers(2, 5))):
            frames = range(frame, frame + draw(st.integers(1, 6)))
            cuts.append(([(f, x0 + vx * f, y0 + vy * f) for f in frames], look))
            frame = frames[-1] + 1 + draw(st.integers(0, 35))
    ids = draw(st.permutations(range(2001, 2001 + len(cuts))))
    return [make_tracklet(i, positions, look) for i, (positions, look) in zip(ids, cuts)]


class TestMergePassReference:
    @settings(max_examples=150, deadline=None)
    @given(split_objects(), st.sampled_from(["static", "moving"]))
    def test_matches_the_set_based_reference(self, tracklets, camera_mode):
        cfg, tcfg = ReidConfig(camera_mode=camera_mode), TrackerConfig(fps=FPS)
        got = merge_pass(tracklets, cfg, tcfg)
        want = reference_merge_pass(tracklets, cfg, tcfg)
        assert [t.id for t in got] == [t.id for t in want]
        for g, w in zip(got, want):
            assert [o.frame for o in g.observations] == [o.frame for o in w.observations]
            assert g.bank.frames == w.bank.frames
            assert np.array_equal(g.bank.rows, w.bank.rows)
