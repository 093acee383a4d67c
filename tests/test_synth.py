import numpy as np
import pytest

from masktrack import synth
from masktrack.errors import SpecOutOfBounds
from masktrack.geometry import rect_mask
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


def single_object_spec(**detector_kw):
    return ScenarioSpec(
        name="one",
        frames=10,
        img_h=100,
        img_w=100,
        objects=[ObjectSpec(start_x=20.0, start_y=30.0)],
        detector=DetectorModel(**detector_kw),
        embedding=EmbeddingModel(dim=4),
    )


class TestGenerate:
    def test_static_object_noise_free(self):
        meta, dets, gt = generate(single_object_spec())
        assert len(dets) == 10
        assert len(gt) == 10
        boxes = {(d.box.x, d.box.y) for frame in dets.values() for d in frame}
        assert boxes == {(20.0, 30.0)}
        proto = np.zeros(4)
        proto[0] = 1.0
        for frame in dets.values():
            np.testing.assert_array_equal(frame[0].embedding, proto)

    def test_full_dropout_keeps_ground_truth(self):
        meta, dets, gt = generate(single_object_spec(dropout=1.0))
        assert dets == {}
        assert len(gt) == 10

    def test_occlusion_removes_frames_from_both(self):
        spec = single_object_spec()
        spec.objects.append(ObjectSpec(start_x=60.0, start_y=30.0))
        spec.occlusions = [VisibilityEvent(object_index=1, start=5, length=3)]
        _, dets, gt = generate(spec)
        for frame in (5, 6, 7):
            assert len(dets[frame]) == 1
        for frame in (4, 8):
            assert len(dets[frame]) == 2
        gt_frames_obj2 = [r.frame for r in gt if r.track_id == 2002]
        assert gt_frames_obj2 == [1, 2, 3, 4, 8, 9, 10]

    def test_dropout_event_keeps_ground_truth(self):
        spec = single_object_spec()
        spec.dropouts = [VisibilityEvent(object_index=0, start=5, length=3)]
        _, dets, gt = generate(spec)
        assert sorted(dets) == [1, 2, 3, 4, 8, 9, 10]
        assert len(gt) == 10

    def test_out_of_bounds_rejected(self):
        spec = single_object_spec()
        spec.objects[0].vx = 50.0  # leaves the 100px image well before frame 10
        with pytest.raises(SpecOutOfBounds):
            generate(spec)

    def test_too_few_embedding_dims_rejected(self):
        spec = single_object_spec()
        spec.objects = [ObjectSpec(start_x=10.0 * i, start_y=30.0) for i in range(6)]
        with pytest.raises(SpecOutOfBounds):
            generate(spec)

    def test_jitter_stays_in_bounds(self):
        spec = single_object_spec(jitter_sigma=30.0)
        _, dets, _ = generate(spec)
        for frame in dets.values():
            for d in frame:
                assert 0 <= d.box.x <= 100 - d.box.w
                assert 0 <= d.box.y <= 100 - d.box.h

    def test_same_seed_same_output(self):
        spec = single_object_spec(dropout=0.3, jitter_sigma=1.0, score_sigma=0.05)
        a = generate(spec)
        b = generate(spec)
        assert a[2] == b[2]
        for f in a[1]:
            for da, db in zip(a[1][f], b[1][f]):
                assert da.box == db.box and da.score == db.score
                np.testing.assert_array_equal(da.embedding, db.embedding)

    def test_every_mask_is_made_through_the_module_rect_mask(self, monkeypatch):
        """Each ground-truth and detection mask comes from one call of
        ``synth.rect_mask``, looked up on the module at the call: the
        benchmark's set-up times its speed probe around that name."""
        made = []

        def counted(*args):
            made.append(rect_mask(*args))
            return made[-1]

        monkeypatch.setattr(synth, "rect_mask", counted)
        spec = single_object_spec(dropout=0.3, jitter_sigma=2.0)
        spec.objects.append(ObjectSpec(start_x=60.0, start_y=30.0))
        spec.occlusions = [VisibilityEvent(object_index=1, start=5, length=3)]
        _, dets, gt = generate(spec)
        n_dets = sum(map(len, dets.values()))
        assert len(gt) == 17 and 0 < n_dets < len(gt)
        assert len(made) == len(gt) + n_dets
        assert {id(d.mask) for f in dets.values() for d in f} <= set(map(id, made))


class TestGenerateFiles:
    def test_byte_identical_given_seed(self, tmp_path):
        spec = scenario_long_occlusions("static")
        d1, g1 = generate_files(spec, str(tmp_path / "a"))
        d2, g2 = generate_files(spec, str(tmp_path / "b"))
        assert open(d1, "rb").read() == open(d2, "rb").read()
        assert open(g1, "rb").read() == open(g2, "rb").read()

    def test_json_spec_round_trip(self):
        spec = scenario_detector_gaps()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec


class TestReadyMadeScenarios:
    def test_clean_has_five_objects_and_no_events(self):
        spec = scenario_clean()
        assert len(spec.objects) == 5
        assert spec.occlusions == [] and spec.dropouts == []

    def test_detector_gaps_fit_short_term_window(self):
        spec = scenario_detector_gaps()
        window = round(0.2 * spec.fps)
        assert spec.dropouts and all(ev.length <= window for ev in spec.dropouts)

    def test_occlusions_exceed_short_term_window(self):
        spec = scenario_long_occlusions()
        short = round(0.2 * spec.fps)
        long = round(1.0 * spec.fps)
        assert spec.occlusions
        assert all(short < ev.length <= long for ev in spec.occlusions)
