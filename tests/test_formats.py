import base64
import json
import os
import re
import tempfile
from dataclasses import FrozenInstanceError
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import (
    IMG_H,
    IMG_W,
    assert_holds_its_runs,
    counts_token,
    make_det,
    make_meta,
    make_tracklet,
    packed,
    reference_load_detections,
    reference_mask_merge,
    reference_read_results,
    reference_write_detections,
    token_counts,
    unit,
)

from masktrack import formats, geometry
from masktrack.embedding import FeatureBank, bank_update, instance_aware_pool, spatial_attention
from masktrack.errors import MaskTrackError, OverlapAfterResolution, ParseError, ShapeMismatch
from masktrack.formats import (
    ResultRecord,
    SequenceMeta,
    load_detections,
    read_results,
    records_from_tracks,
    render_overlays,
    resolve_records,
    write_detections,
    write_records,
    write_results,
)
from masktrack.geometry import (
    BBox,
    BinaryMask,
    mask_intersection_area,
    rle_decode,
    rect_mask,
    rle_encode,
    rle_from_string,
    rle_to_string,
)
from masktrack.metrics import evaluate
from masktrack.tracker import CAR, PEDESTRIAN, Detection, Tracklet


EMPTY_TOKEN = rle_to_string(BinaryMask(IMG_H, IMG_W, (IMG_H * IMG_W,)))


def det_line(frame=1, class_id=2, score=0.9, bbox=(10, 10, 10, 20), counts=None, **extra):
    mask = {"h": IMG_H, "w": IMG_W, "counts": counts or EMPTY_TOKEN}
    rec = {
        "frame": frame,
        "class_id": class_id,
        "score": score,
        "bbox": list(bbox),
        "mask": mask,
        "embedding": [1.0, 0.0],
    }
    rec.update(extra)
    return json.dumps(rec)


def header_line(**kw):
    base = {"name": "seq", "fps": 25.0, "img_h": IMG_H, "img_w": IMG_W, "camera_mode": "static"}
    base.update(kw)
    return json.dumps(base)


class TestLoadDetections:
    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n")
        meta, by_frame = load_detections(str(path))
        assert meta.name == "seq" and meta.fps == 25.0
        assert by_frame == {}

    def test_a_feature_map_on_a_frame_past_int64_positions_is_refused(self, tmp_path):
        """Its attention would read wrapped pixel positions."""
        h, w = 1 << 32, (1 << 32) + 1
        mask = {"h": h, "w": w, "counts": counts_token([h * (w - 1), 10, h - 10])}
        fmap = {"gh": 2, "gw": 1, "c": 2, "values": [1.0, 0.0, 1.0, 0.0]}
        line = det_line(bbox=(w - 1, 0, 1, 10), mask=mask, embedding=None, feature_map=fmap)
        path = tmp_path / "dets.jsonl"
        named = rf"dets\.jsonl:2: a {h}x{w} mask has more pixels than int64 positions hold$"
        # named as its line is read, before a fault of a later line
        for tail in ("", "{not json\n"):
            path.write_text(header_line(img_h=h, img_w=w) + "\n" + line + "\n" + tail)
            for load in (load_detections, reference_load_detections):
                with pytest.raises(ShapeMismatch, match=named):
                    load(str(path))

    def test_frames_sorted(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            "\n".join([header_line(), det_line(frame=3), det_line(frame=3), det_line(frame=1)])
            + "\n"
        )
        _, by_frame = load_detections(str(path))
        assert list(by_frame) == [1, 3]
        assert len(by_frame[3]) == 2

    def test_counts_sum_mismatch_flagged_with_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        bad_token = rle_to_string(BinaryMask(2, 2, (4,)))  # sums to 4, not h*w
        path.write_text(
            header_line() + "\n" + det_line(counts=bad_token) + "\n"
        )
        with pytest.raises(ShapeMismatch, match=":2"):
            load_detections(str(path))

    @pytest.mark.parametrize(
        "token, named",
        [("0o", "token truncated at character 2"), ("0\u00e94", "invalid character 'é' at 1")],
    )
    def test_bad_token_named_with_line(self, tmp_path, token, named):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n" + det_line(counts=token) + "\n")
        with pytest.raises(ParseError, match=rf"dets\.jsonl:2: {named}"):
            load_detections(str(path))

    def test_wrong_mask_dims(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        rec["mask"]["h"] = IMG_H + 1
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ShapeMismatch):
            load_detections(str(path))

    def test_missing_features(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        del rec["embedding"]
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: .*neither an embedding nor a"):
            load_detections(str(path))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n{not json\n")
        with pytest.raises(ParseError, match=":2"):
            load_detections(str(path))

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n" + det_line(score=1.5) + "\n")
        with pytest.raises(ParseError):
            load_detections(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("img_h", IMG_H + 0.5),
            ("fps", float("nan")),
            ("fps", float("inf")),
            ("fps", True),
            ("fps", "25"),
            ("fps", 10**400),
            ("img_h", f" {IMG_H} "),
            ("img_w", "2_00"),
            ("name", 7),
            ("camera_mode", ["static"]),
        ],
        ids=[
            "fractional_img_h",
            "nan_fps",
            "inf_fps",
            "bool_fps",
            "text_fps",
            "huge_integer_fps",
            "text_img_h",
            "underscore_img_w",
            "number_name",
            "list_camera_mode",
        ],
    )
    def test_bad_header_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line(**{field: value}) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:1"):
            load_detections(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            load_detections(str(path))

    def test_utf8_header_name_accepted(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        header = header_line().replace('"seq"', '"caf\u00e9"')  # raw UTF-8 once written
        path.write_bytes((header + "\n" + det_line() + "\n").encode("utf-8"))
        meta, by_frame = load_detections(str(path))
        assert meta.name == "caf\u00e9"
        assert len(by_frame[1]) == 1

    def test_undecodable_byte_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        record = det_line().encode("ascii")
        bad = record.replace(b'"score"', b'"sc\xe9re"')
        path.write_bytes(header_line().encode("ascii") + b"\n" + record + b"\n" + bad + b"\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:3: byte 0xe9 is not utf-8"):
            load_detections(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame", 2.7),
            ("frame", True),
            ("frame", -1),
            ("class_id", 2.5),
            ("class_id", 3),
            ("score", float("nan")),
            ("bbox", [10, float("nan"), 10, 20]),
            ("embedding", [1.0, float("nan")]),
            ("embedding", [float("inf"), 0.0]),
            ("embedding", ["a", 0.0]),
            ("embedding", ["0.5", 0.0]),
            ("embedding", [True, 0.0]),
            ("embedding", [[1.0, 0.0]]),
            ("embedding", 1.0),
            ("embedding", [10**400, 0.0]),
            ("feature_map", {"gh": 1, "gw": 1, "c": 2, "values": [0.5, float("nan")]}),
            ("feature_map", {"gh": 1, "gw": 1, "c": 2, "values": ["0.25", 0.5]}),
            ("feature_map", {"gh": 1, "gw": 1, "c": 2, "values": [False, 0.5]}),
            ("feature_map", {"gh": 1, "gw": 1, "c": 2, "values": [[0.25, 0.5]]}),
            ("frame", "1_0"),
            ("class_id", "2"),
            ("score", "0.9"),
            ("score", True),
            ("score", 10**400),
            ("bbox", [2, 2, 5, True]),
            ("bbox", [2, 2, 5, "20"]),
            ("mask", {"h": f" {IMG_H} ", "w": IMG_W, "counts": EMPTY_TOKEN}),
            ("mask", {"h": IMG_H, "w": IMG_W, "counts": 4}),
            ("mask", {"h": IMG_H, "w": IMG_W, "counts": None}),
            ("feature_map", {"gh": "1", "gw": 1, "c": 2, "values": [0.5, 0.5]}),
            ("feature_map", {"gh": 1, "gw": 1, "c": "2", "values": [0.5, 0.5]}),
        ],
        ids=[
            "fractional_frame",
            "bool_frame",
            "negative_frame",
            "fractional_class",
            "unknown_class",
            "nan_score",
            "nan_bbox",
            "nan_embedding",
            "inf_embedding",
            "text_embedding",
            "numeric_text_embedding",
            "bool_embedding",
            "nested_embedding",
            "scalar_embedding",
            "huge_integer_embedding",
            "nan_feature_map",
            "numeric_text_feature_map",
            "bool_feature_map",
            "nested_feature_map",
            "text_frame",
            "text_class",
            "text_score",
            "bool_score",
            "huge_integer_score",
            "bool_bbox",
            "text_bbox",
            "text_mask_height",
            "number_token",
            "null_token",
            "text_feature_map_grid",
            "text_feature_map_channels",
        ],
    )
    def test_bad_value_rejected_with_line(self, tmp_path, field, value):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        if field == "feature_map":
            del rec["embedding"]
        rec[field] = value
        path.write_text(header_line() + "\n" + det_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:3"):
            load_detections(str(path))

    @pytest.mark.parametrize(
        "features",
        [
            {"embedding": [1.0, 0.0, 0.0]},
            {"embedding": None, "feature_map": {"gh": 1, "gw": 1, "c": 3, "values": [0.0] * 3}},
        ],
        ids=["embedding", "feature_map"],
    )
    def test_channel_count_must_match_first_detection(self, tmp_path, features):
        path = tmp_path / "dets.jsonl"
        lines = [header_line(), det_line(), det_line(frame=2), det_line(frame=3, **features)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:4: 3 feature channels.* has 2"):
            load_detections(str(path))

    def test_feature_map_record(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        del rec["embedding"]
        rec["feature_map"] = {"gh": 2, "gw": 2, "c": 3, "values": list(range(12))}
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        _, by_frame = load_detections(str(path))
        det = by_frame[1][0]
        assert det.feature_map.shape == (2, 2, 3)
        # pooled as it is read, under the mask's attention on the 2x2 grid
        attn = spatial_attention(det.mask, det.box, 2, 2)
        np.testing.assert_array_equal(det.embedding, instance_aware_pool(det.feature_map, attn))

    @pytest.mark.parametrize(
        "feature_map",
        [
            {"gh": 0, "gw": 1, "c": 2, "values": []},
            {"gh": -1, "gw": -1, "c": 2, "values": [0.5, 0.5]},
            {"gh": 1, "gw": 1, "c": 0, "values": []},
        ],
        ids=["zero_rows", "negative_grid", "zero_channels"],
    )
    def test_feature_map_grid_must_be_positive(self, tmp_path, feature_map):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        del rec["embedding"]
        rec["feature_map"] = feature_map
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: feature_map gh, gw and c must be"):
            load_detections(str(path))

    def test_feature_map_under_zero_area_box_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line(bbox=(10, 10, 0, 20)))
        del rec["embedding"]
        rec["feature_map"] = {"gh": 1, "gw": 1, "c": 2, "values": [1.0, 0.0]}
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: .*zero-area box"):
            load_detections(str(path))

    def test_feature_map_size_mismatch(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        del rec["embedding"]
        rec["feature_map"] = {"gh": 2, "gw": 2, "c": 3, "values": [0.0] * 11}
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError):
            load_detections(str(path))

    def test_feature_map_channels_default_to_1024(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = json.loads(det_line())
        del rec["embedding"]
        rec["feature_map"] = {"gh": 1, "gw": 1, "values": [0.0] * 1024}
        path.write_text(header_line() + "\n" + json.dumps(rec) + "\n")
        _, by_frame = load_detections(str(path))
        assert by_frame[1][0].feature_map.shape == (1, 1, 1024)

    def test_overlong_integer_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        line = det_line().replace('"frame": 1', '"frame": 1' + "0" * 5000)
        path.write_text(header_line() + "\n" + line + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: invalid JSON"):
            load_detections(str(path))

    def test_write_then_load_round_trip(self, tmp_path):
        meta = make_meta()
        rng = np.random.default_rng(50)
        by_frame = {
            f: [
                make_det(f, float(rng.integers(0, 150)), float(rng.integers(0, 90)), rng.normal(size=4))
                for _ in range(2)
            ]
            for f in (1, 2, 5)
        }
        path = tmp_path / "dets.jsonl"
        write_detections(meta, by_frame, str(path))
        meta2, loaded = load_detections(str(path))
        assert meta2 == meta
        assert list(loaded) == [1, 2, 5]
        for f in loaded:
            for da, db in zip(by_frame[f], loaded[f]):
                assert da.box == db.box
                assert da.mask == db.mask
                assert np.allclose(da.embedding, db.embedding)

    def test_feature_map_detection_round_trips_its_map(self, tmp_path):
        rng = np.random.default_rng(52)
        by_frame = {}
        for f in (1, 3):
            box = BBox(float(rng.integers(0, 150)), float(rng.integers(0, 90)), 12.0, 22.0)
            fmap = rng.normal(size=(3, 2, 4))
            mask = rect_mask(IMG_H, IMG_W, box)
            by_frame[f] = [Detection(f, PEDESTRIAN, 0.9, box, mask, feature_map=fmap)]
        path = tmp_path / "dets.jsonl"
        write_detections(make_meta(), by_frame, str(path))
        _, loaded = load_detections(str(path))
        for f in by_frame:
            built, read = by_frame[f][0], loaded[f][0]
            assert read.feature_map is not None
            np.testing.assert_array_equal(read.feature_map, built.feature_map)
            np.testing.assert_array_equal(read.embedding, built.embedding)


def unpack(text: str) -> list[float]:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").tolist()


# values every float64 array must carry through a file bit for bit
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308, 1 / 3])
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS


@st.composite
def feature_sequences(draw):
    """A detection with a (gh, gw, c) map, from 1x1x1 to 7x7x64, and one
    with a c-channel embedding, both of edge-heavy finite values."""
    gh, gw, c = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 64))
    fmap = draw(arrays(np.float64, (gh, gw, c), elements=FINITE_FLOATS))
    emb = draw(arrays(np.float64, (c,), elements=FINITE_FLOATS))
    box = BBox(10.0, 12.0, 14.0, 22.0)
    mask = rect_mask(IMG_H, IMG_W, box)
    with np.errstate(all="ignore"):  # pooling 1e308 may overflow; the bits still compare
        return {
            1: [Detection(1, PEDESTRIAN, 0.9, box, mask, feature_map=fmap)],
            2: [Detection(2, PEDESTRIAN, 0.8, box, mask, embedding=emb)],
        }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPackedArrays:
    def test_writer_packs_little_endian_float64_in_c_order(self, tmp_path):
        fmap = np.arange(12, dtype=float).reshape(2, 2, 3) - 5.5
        box = BBox(10.0, 12.0, 14.0, 22.0)
        det = Detection(1, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box), feature_map=fmap)
        path = tmp_path / "dets.jsonl"
        write_detections(make_meta(), {1: [det]}, str(path))
        rec = json.loads(path.read_text().splitlines()[1])
        assert rec["feature_map"] == {"gh": 2, "gw": 2, "c": 3, "values": packed(fmap.ravel())}
        assert packed([1.0]) == "AAAAAAAA8D8="  # 0x3FF0000000000000, least significant byte first

    @settings(max_examples=60)
    @given(feature_sequences())
    def test_write_then_load_is_bit_identical(self, by_frame):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "dets.jsonl")
            write_detections(make_meta(), by_frame, path)
            with np.errstate(all="ignore"):
                _, loaded = load_detections(path)
        for frame, dets in by_frame.items():
            built, read = dets[0], loaded[frame][0]
            assert same_bits(read.embedding, built.embedding)
            if built.feature_map is not None:
                assert same_bits(read.feature_map, built.feature_map)

    def test_list_and_packed_forms_load_bit_equal(self, tmp_path):
        rng = np.random.default_rng(53)
        by_frame = {}
        for f in (1, 2, 4):
            box = BBox(float(rng.integers(0, 150)), float(rng.integers(0, 90)), 12.0, 22.0)
            mask = rect_mask(IMG_H, IMG_W, box)
            fmap = rng.normal(size=(3, 2, 5)) * 10.0 ** rng.integers(-150, 150, size=(3, 2, 5))
            by_frame[f] = [
                Detection(f, PEDESTRIAN, 0.9, box, mask, feature_map=fmap),
                Detection(f, PEDESTRIAN, 0.7, box, mask, embedding=rng.normal(size=5)),
            ]
        as_packed = tmp_path / "packed.jsonl"
        write_detections(make_meta(), by_frame, str(as_packed))
        header, *lines = as_packed.read_text().splitlines()
        listed = []
        for line in lines:
            rec = json.loads(line)
            if "embedding" in rec:
                rec["embedding"] = unpack(rec["embedding"])
            else:
                rec["feature_map"]["values"] = unpack(rec["feature_map"]["values"])
            listed.append(json.dumps(rec))
        as_lists = tmp_path / "lists.jsonl"
        as_lists.write_text("\n".join([header, *listed]) + "\n")
        _, from_packed = load_detections(str(as_packed))
        _, from_lists = load_detections(str(as_lists))
        for f in by_frame:
            for a, b in zip(from_packed[f], from_lists[f]):
                assert same_bits(a.embedding, b.embedding)
                assert (a.feature_map is None) == (b.feature_map is None)
                if a.feature_map is not None:
                    assert same_bits(a.feature_map, b.feature_map)

    @pytest.mark.parametrize(
        "field, text, named",
        [
            ("embedding", packed([1.0, 0.0])[:-1] + "!", "bad embedding"),
            ("embedding", packed([1.0, 0.0]).rstrip("="), "bad embedding"),
            ("embedding", packed([1.0, 0.0]) + "=", "bad embedding"),
            ("embedding", " " + packed([1.0, 0.0]), "bad embedding"),
            ("embedding", base64.b64encode(b"\0" * 12).decode(), "12 packed bytes"),
            ("embedding", "", "embedding is empty"),
            ("embedding", packed([1.0, float("nan")]), "non-finite embedding"),
            ("values", packed([0.5, float("inf")]), "non-finite feature_map"),
            ("values", packed([0.5, 0.5, 0.5]), "3 values, expected 2"),
            ("values", packed([0.5])[:-1] + "\u00e9", "bad feature_map"),
        ],
        ids=[
            "bad_alphabet",
            "missing_padding",
            "extra_padding",
            "leading_space",
            "partial_value",
            "empty",
            "nan_bytes",
            "inf_bytes",
            "count_not_grid",
            "non_ascii",
        ],
    )
    def test_bad_packed_string_rejected_with_line(self, tmp_path, field, text, named):
        rec = json.loads(det_line())
        if field == "values":
            del rec["embedding"]
            rec["feature_map"] = {"gh": 1, "gw": 1, "c": 2, "values": text}
        else:
            rec["embedding"] = text
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n" + det_line() + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=rf"dets\.jsonl:3: .*{named}"):
            load_detections(str(path))


# a run of 44 is written '\' then '1': json escapes the first
BACKSLASH_RUN = 44


@st.composite
def written_sequences(draw):
    """A sequence and its detections over one to four frames, each frame
    with up to three detections of either form: a ``(gh, gw, c)`` map with
    an embedding, or an embedding alone, both of edge-heavy finite values,
    every detection of one channel count ``c``, as the reader asks.
    Masks are empty, full or of random runs, a run of ``BACKSLASH_RUN``
    often among them; boxes and scores are any finite values a detection
    holds."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    size = h * w
    meta = SequenceMeta("seq", draw(st.sampled_from([25.0, 1 / 3, 30000 / 1001])), h, w, "static")
    cut = st.integers(1, size - 1)
    if size > 2 * BACKSLASH_RUN:
        cut = cut | st.sampled_from([BACKSLASH_RUN, size - BACKSLASH_RUN])
    coord = st.floats(-1e6, 1e6, allow_nan=False) | EDGE_FLOATS
    extent = st.floats(0.0, 1e6) | st.sampled_from([0.0, 5e-324, 1 / 3])
    c = draw(st.integers(1, 6))
    by_frame = {}
    for frame in sorted(draw(st.sets(st.integers(0, 10), min_size=1, max_size=4))):
        dets = []
        for _ in range(draw(st.integers(1, 3))):
            cuts = sorted(draw(st.sets(cut, max_size=6)) if size > 1 else [])
            counts = np.diff([0, *cuts, size]).tolist()
            if draw(st.booleans()):
                counts = [0, *counts]
            emb = draw(arrays(np.float64, (c,), elements=FINITE_FLOATS))
            fmap = None
            if draw(st.booleans()):
                gh, gw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
                fmap = draw(arrays(np.float64, (gh, gw, c), elements=FINITE_FLOATS))
            box = BBox(draw(coord), draw(coord), draw(extent), draw(extent))
            dets.append(Detection(frame, draw(st.sampled_from([1, 2])), draw(st.floats(0.0, 1.0)),
                                  box, BinaryMask(h, w, tuple(counts)), emb, fmap))
        by_frame[frame] = dets
    return meta, by_frame


class TestWriteDetections:
    @settings(max_examples=150)
    @given(written_sequences())
    @example((
        SequenceMeta("seq", 25.0, 10, 10, "static"),
        {3: [Detection(3, PEDESTRIAN, 0.5, BBox(-0.0, 1 / 3, 5e-324, 1e308),
                       BinaryMask(10, 10, (BACKSLASH_RUN, 100 - BACKSLASH_RUN)),
                       np.array([-0.0, 5e-324, 1e308, 1 / 3]),
                       np.array([-0.0, 5e-324, 1e308, 1 / 3]).reshape(1, 1, 4))],
         7: [Detection(7, CAR, 1.0, BBox(0.0, 0.0, 1.0, 1.0), BinaryMask(10, 10, (0, 100)),
                       np.array([1e308, -0.0, 1 / 3, 5e-324]))]},
    ))
    def test_equals_the_reference_writer_byte_for_byte(self, case):
        meta, by_frame = case
        with tempfile.TemporaryDirectory() as work:
            ours, theirs = os.path.join(work, "ours.jsonl"), os.path.join(work, "theirs.jsonl")
            write_detections(meta, by_frame, ours)
            reference_write_detections(meta, by_frame, theirs)
            with open(ours, "rb") as a, open(theirs, "rb") as b:
                assert a.read() == b.read()

    def test_a_backslash_in_a_token_is_escaped(self, tmp_path):
        mask = BinaryMask(IMG_H, IMG_W, (BACKSLASH_RUN, IMG_H * IMG_W - BACKSLASH_RUN))
        assert rle_to_string(mask).startswith("\\")
        det = Detection(1, PEDESTRIAN, 0.9, BBox(0.0, 0.0, 1.0, 44.0), mask, unit(0, 4))
        path = tmp_path / "dets.jsonl"
        write_detections(make_meta(), {1: [det]}, str(path))
        assert '"counts": "\\\\' in path.read_text().splitlines()[1]
        assert load_detections(str(path))[1][1][0].mask == mask

    def test_a_mask_off_the_sequence_dims_is_refused_before_the_file(self, tmp_path):
        box = BBox(10.0, 12.0, 14.0, 22.0)
        by_frame = {
            2: [make_det(2, 5.0, 5.0, unit(0, 4))],
            4: [make_det(4, 5.0, 5.0, unit(0, 4)),
                Detection(4, PEDESTRIAN, 0.9, box, rect_mask(IMG_H + 1, IMG_W, box), unit(1, 4))],
        }
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ShapeMismatch, match=rf"frame 4: detection 1: mask is {IMG_H + 1}x{IMG_W}, the sequence is {IMG_H}x{IMG_W}"):
            write_detections(make_meta(), by_frame, str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "embedding, fmap, named",
        [
            ([0.5, float("nan")], None, "non-finite embedding"),
            ([0.5, float("-inf")], None, "non-finite embedding"),
            ([0.5, 0.5], [[[0.5, float("inf")]]], "non-finite feature_map"),
            ([0.5, 0.5], [[[float("nan"), 0.5]]], "non-finite feature_map"),
        ],
        ids=["nan_embedding", "inf_embedding", "inf_map", "nan_map"],
    )
    def test_a_non_finite_value_is_refused_before_the_file(self, tmp_path, embedding, fmap, named):
        box = BBox(10.0, 12.0, 14.0, 22.0)
        bad = Detection(3, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box), np.array(embedding),
                        None if fmap is None else np.array(fmap))
        by_frame = {3: [make_det(3, 5.0, 5.0, unit(0, 2)), make_det(3, 50.0, 5.0, unit(1, 2)), bad]}
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ParseError, match=rf"frame 3: detection 2: {named} value"):
            write_detections(make_meta(), by_frame, str(path))
        assert not path.exists()

    def test_a_finite_map_with_a_non_finite_embedding_is_written(self, tmp_path):
        """Only the map is written, and the reader pools it to a finite embedding."""
        box = BBox(10.0, 12.0, 14.0, 22.0)
        det = Detection(1, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box),
                        np.array([float("nan"), 0.5]), np.full((1, 1, 2), 0.5))
        path = tmp_path / "dets.jsonl"
        write_detections(make_meta(), {1: [det]}, str(path))
        assert np.isfinite(load_detections(str(path))[1][1][0].embedding).all()

    @pytest.mark.parametrize(
        "frame, class_id, score, named",
        [
            (-1, PEDESTRIAN, 0.9, "frame -1 below 0"),
            (2, 3, 0.9, "unknown class_id 3"),
            (2, PEDESTRIAN, 1.5, r"score 1\.5 outside \[0, 1\]"),
        ],
        ids=["frame", "class_id", "score"],
    )
    def test_a_field_the_reader_refuses_is_refused_before_the_file(
        self, tmp_path, frame, class_id, score, named
    ):
        """The line the writer would give is refused on load; the writer
        refuses the detection with the reader's error instead."""
        bad = make_det(frame, 50.0, 5.0, unit(1, 4), class_id=class_id, score=score)
        by_frame = {2: [make_det(2, 5.0, 5.0, unit(0, 4)), bad]}
        written = tmp_path / "written.jsonl"
        reference_write_detections(make_meta(), by_frame, str(written))
        with pytest.raises(ParseError, match=rf"written\.jsonl:3: {named}$"):
            load_detections(str(written))
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ParseError, match=rf"^frame 2: detection 1: {named}$"):
            write_detections(make_meta(), by_frame, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("form", ["embedding", "feature_map"])
    def test_a_channel_count_off_the_first_detections_is_refused_before_the_file(
        self, tmp_path, form
    ):
        box = BBox(10.0, 12.0, 14.0, 22.0)
        fmap = np.full((1, 2, 6), 0.5) if form == "feature_map" else None
        bad = Detection(4, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box), unit(0, 6), fmap)
        by_frame = {1: [make_det(1, 5.0, 5.0, unit(0, 4))], 4: [make_det(4, 50.0, 5.0, unit(1, 4)), bad]}
        named = "6 feature channels, the first detection has 4"
        written = tmp_path / "written.jsonl"
        reference_write_detections(make_meta(), by_frame, str(written))
        with pytest.raises(ParseError, match=rf"written\.jsonl:4: {named}$"):
            load_detections(str(written))
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ParseError, match=rf"^frame 4: detection 1: {named}$"):
            write_detections(make_meta(), by_frame, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (1, 2, 2, 1)])
    def test_a_map_that_is_not_3d_is_refused_before_the_file(self, tmp_path, shape):
        box = BBox(10.0, 12.0, 14.0, 22.0)
        bad = Detection(5, PEDESTRIAN, 0.9, box, rect_mask(IMG_H, IMG_W, box), unit(0, 4),
                        np.full(shape, 0.5))
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ShapeMismatch, match=rf"frame 5: detection 0: feature map has shape {re.escape(str(shape))}"):
            write_detections(make_meta(), {1: [make_det(1, 5.0, 5.0, unit(0, 4))], 5: [bad]}, str(path))
        assert not path.exists()


# values whose pooled sums stay finite, the smallest subnormal among them
POOL_FLOATS = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324, 1 / 3])
GRIDS = [(1, 1), (2, 3), (3, 2)]
LOAD_FAULTS = ["token", "json", "missing_field", "class", "dims", "map", "channels",
               "zero_box_map", "neither", "bbox", "byte"]


@st.composite
def detection_files(draw):
    """The bytes of a small detection file: masks empty, full or of random
    runs (which wrap past a column on a short frame), boxes that may reach
    past the image, embeddings and feature maps on several grids, each in
    the list or the packed form. A quarter of the files have one fault and
    another quarter two, each one of ``LOAD_FAULTS`` on a random line."""
    h, w, c = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    header = {"name": "seq", "fps": 25.0, "img_h": h, "img_w": w, "camera_mode": "static"}
    coord, size = st.floats(-6.0, 15.0, allow_nan=False), st.floats(0.25, 12.0, allow_nan=False)
    recs = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["empty", "full", "runs"]))
        if kind == "runs":
            cuts = sorted(draw(st.sets(st.integers(1, h * w - 1), max_size=8)) if h * w > 1 else [])
            counts = np.diff([0, *cuts, h * w]).tolist()
            counts = [0, *counts] if draw(st.booleans()) else counts
        else:
            counts = [h * w] if kind == "empty" else [0, h * w]
        rec = {
            "frame": draw(st.integers(0, 5)),
            "class_id": draw(st.sampled_from([1, 2])),
            "score": draw(st.floats(0.0, 1.0)),
            "bbox": [draw(coord), draw(coord), draw(size), draw(size)],
            "mask": {"h": h, "w": w, "counts": counts_token(counts)},
        }
        as_text = draw(st.booleans())
        if draw(st.booleans()):
            gh, gw = draw(st.sampled_from(GRIDS))
            values = draw(arrays(np.float64, (gh, gw, c), elements=POOL_FLOATS))
            rec["feature_map"] = {"gh": gh, "gw": gw, "c": c,
                                  "values": packed(values) if as_text else values.ravel().tolist()}
        else:
            values = draw(arrays(np.float64, (c,), elements=POOL_FLOATS))
            rec["embedding"] = packed(values) if as_text else values.tolist()
        recs.append(rec)
    broken = {}  # record index -> a fault written into its bytes
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if recs else 0):
        at = draw(st.integers(0, len(recs) - 1))
        rec = recs[at] = dict(recs[at])
        fault = draw(st.sampled_from(LOAD_FAULTS))
        if fault in ("map", "zero_box_map", "neither"):
            rec.pop("embedding", None)
            rec.pop("feature_map", None)
        if fault == "token":
            rec["mask"] = dict(rec["mask"], counts=draw(st.sampled_from(["0{4", "0o", "", counts_token([h * w + 1])])))
        elif fault == "missing_field":
            rec.pop(draw(st.sampled_from(["frame", "score", "bbox", "mask"])), None)
        elif fault == "class":
            rec["class_id"] = 3
        elif fault == "dims" and "mask" in rec:
            rec["mask"] = dict(rec["mask"], h=h + 1)
        elif fault == "map":
            rec["feature_map"] = {"gh": 1, "gw": 1, "c": c, "values": [0.5] * (c + 1)}
        elif fault == "channels":
            rec.pop("feature_map", None)
            rec["embedding"] = [0.5] * (c + 1)
        elif fault == "zero_box_map":
            rec["bbox"] = [1.0, 1.0, 0.0, 2.0]
            rec["feature_map"] = {"gh": 1, "gw": 1, "c": c, "values": [0.5] * c}
        elif fault == "bbox":
            rec["bbox"] = [1.0, 1.0, 2.0, -1.0]
        elif fault in ("json", "byte"):
            broken[at] = fault
    lines = [json.dumps(header).encode("ascii")]
    for at, rec in enumerate(recs):
        line = json.dumps(rec).encode("ascii")
        if broken.get(at) == "json":
            line = line[:-1]
        elif broken.get(at) == "byte":
            line = line.replace(b'"class_id"', b'"cl\xe9ss_id"')
        lines.append(line)
    return b"\n".join(lines) + b"\n"


def load_outcome(load, path):
    """What ``load(path)`` returns and no error, or no result and the
    error's ``(class, message)``."""
    try:
        return load(path), None
    except MaskTrackError as exc:
        return None, (type(exc), str(exc))


class TestBatchLoad:
    @given(detection_files())
    def test_matches_the_per_line_loader(self, data):
        """The batch loader reads what the per-line loader reads, bit for
        bit, with every mask's caches filled; or it raises the same first
        error, naming the same line."""
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "dets.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            expected, error = load_outcome(reference_load_detections, path)
            loaded, batch_error = load_outcome(load_detections, path)
        assert batch_error == error
        if error:
            return
        (meta, by_frame), (ref_meta, ref_by_frame) = loaded, expected
        assert meta == ref_meta
        assert list(by_frame) == list(ref_by_frame)
        for frame, dets in by_frame.items():
            assert len(dets) == len(ref_by_frame[frame])
            for det, ref in zip(dets, ref_by_frame[frame]):
                assert (det.frame, det.class_id, det.score, det.box, det.mask) == (
                    ref.frame, ref.class_id, ref.score, ref.box, ref.mask)
                assert same_bits(det.embedding, ref.embedding)
                assert (det.feature_map is None) == (ref.feature_map is None)
                if det.feature_map is not None:
                    assert same_bits(det.feature_map, ref.feature_map)
                cache = det.mask.__dict__
                fresh = BinaryMask(det.mask.height, det.mask.width, det.mask.counts)
                assert cache["run_ends"].dtype == fresh.run_ends.dtype
                np.testing.assert_array_equal(cache["run_ends"], fresh.run_ends)
                assert (cache["area"], cache["extent"]) == (fresh.area, fresh.extent)

    @pytest.mark.parametrize(
        "line4",
        [
            b"{not json",
            det_line(frame=4).replace('"score": 0.9, ', "").encode(),
            det_line(frame=4, class_id=3).encode(),
            det_line(frame=4).replace(f'"h": {IMG_H}', f'"h": {IMG_H + 1}').encode(),
            det_line(frame=4, embedding=None, feature_map={"gh": 1, "gw": 1, "c": 2, "values": [0.5]}).encode(),
            det_line(frame=4, embedding=[1.0, 0.0, 0.0]).encode(),
            det_line(frame=4, bbox=(10, 10, 0, 20), embedding=None,
                     feature_map={"gh": 1, "gw": 1, "c": 2, "values": [0.5, 0.5]}).encode(),
            det_line(frame=4).encode().replace(b'"score"', b'"sc\xe9re"'),
        ],
        ids=["bad_json", "missing_field", "bad_class", "dims_mismatch", "bad_map",
             "channel_mismatch", "zero_area_box_with_map", "non_utf8_byte"],
    )
    def test_a_bad_token_is_named_before_a_later_line_fault(self, tmp_path, line4):
        path = tmp_path / "dets.jsonl"
        head = header_line().encode() + b"\n"
        tail = det_line(frame=3).encode() + b"\n" + line4 + b"\n"
        path.write_bytes(head + det_line().encode() + b"\n" + tail)
        with pytest.raises(MaskTrackError, match=r"dets\.jsonl:4: "):
            load_detections(str(path))  # line 4 is at fault on its own
        path.write_bytes(head + det_line(counts="0{4").encode() + b"\n" + tail)
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: invalid character '\{' at 1$"):
            load_detections(str(path))

    @pytest.mark.parametrize(
        "fields",
        [
            {"embedding": [1.0, float("nan")]},
            {"embedding": None, "feature_map": {"gh": 1, "gw": 1, "c": 2, "values": [0.5]}},
            {"bbox": (10, 10, -1, 20)},
            {"embedding": None},
            {"bbox": (10, 10, 0, 20), "embedding": None,
             "feature_map": {"gh": 1, "gw": 1, "c": 2, "values": [0.5, 0.5]}},
        ],
        ids=["bad_embedding", "bad_map", "negative_bbox", "no_features", "zero_area_box_with_map"],
    )
    def test_a_bad_token_is_named_before_a_fault_of_its_own_line(self, tmp_path, fields):
        path = tmp_path / "dets.jsonl"
        path.write_text(header_line() + "\n" + det_line(**fields) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: "):
            load_detections(str(path))  # the line is at fault with a good token
        path.write_text(header_line() + "\n" + det_line(counts="0o", **fields) + "\n")
        with pytest.raises(ParseError, match=r"dets\.jsonl:2: token truncated at character 2$"):
            load_detections(str(path))


class TestResults:
    def test_id_scheme_and_token_line(self, tmp_path):
        # a single full-frame 2x2 mask at frame 1, pedestrian serial 1
        from masktrack.embedding import FeatureBank, bank_update
        from masktrack.geometry import BBox
        from masktrack.tracker import Detection, Tracklet

        meta = SequenceMeta("tiny", 25.0, 2, 2, "static")
        mask = BinaryMask(2, 2, (0, 4))
        bank = bank_update(FeatureBank(5), unit(0), 1)
        track = Tracklet(2001, 2, [Detection(1, 2, 0.9, BBox(0, 0, 2, 2), mask, unit(0))], bank)
        path = tmp_path / "res.txt"
        write_results([track], meta, str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["1 2001 2 2 2 04"]

    def test_empty_track_set_writes_header_only(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results([], make_meta(), str(path))
        content = path.read_text().splitlines()
        assert len(content) == 1 and content[0].startswith("#")
        assert read_results(str(path)) == []

    def test_round_trip_random_tracks(self, tmp_path):
        rng = np.random.default_rng(51)
        tracks = []
        for i in range(50):
            start = int(rng.integers(1, 30))
            length = int(rng.integers(1, 12))
            x = float(rng.integers(0, 19)) * 10.0
            y = float(rng.integers(0, 2)) * 60.0
            tracks.append(
                make_tracklet(
                    2001 + i,
                    [(f, x, y) for f in range(start, start + length)],
                    unit(i % 8),
                )
            )
        path = tmp_path / "res.txt"
        written = write_results(tracks, make_meta(), str(path))
        assert read_results(str(path)) == written

    def test_overlap_resolution_prefers_lower_id(self, tmp_path):
        a = make_tracklet(2001, [(1, 10, 10)], unit(0))
        b = make_tracklet(2002, [(1, 15, 10)], unit(1))  # overlaps a by 5px
        records = write_results([a, b], make_meta(), str(tmp_path / "r.txt"))
        assert len(records) == 2
        m1, m2 = records[0].mask(), records[1].mask()
        assert mask_intersection_area(m1, m2) == 0
        assert m1.area == 10 * 20  # lower id keeps all pixels
        assert m2.area == 10 * 20 - 5 * 20

    def test_fully_swallowed_mask_dropped(self, tmp_path):
        a = make_tracklet(2001, [(1, 10, 10)], unit(0))
        b = make_tracklet(2002, [(1, 10, 10)], unit(1))  # identical box
        records = write_results([a, b], make_meta(), str(tmp_path / "r.txt"))
        assert [r.track_id for r in records] == [2001]

    def test_output_sorted_by_frame_then_id(self, tmp_path):
        tracks = [
            make_tracklet(2002, [(2, 50, 10), (3, 50, 10)], unit(1)),
            make_tracklet(2001, [(1, 10, 10), (2, 10, 10)], unit(0)),
        ]
        records = write_results(tracks, make_meta(), str(tmp_path / "r.txt"))
        keys = [(r.frame, r.track_id) for r in records]
        assert keys == sorted(keys)

    def test_mask_of_other_dims_refused_before_writing(self, tmp_path):
        # written, the 10x10 mask's record would not sum to 20*30 and
        # read_results would refuse it
        box = BBox(2, 2, 4, 4)
        det = Detection(3, PEDESTRIAN, 0.9, box, rect_mask(10, 10, box), unit(0))
        track = Tracklet(2001, PEDESTRIAN, [det], bank_update(FeatureBank(5), unit(0), 3))
        meta = SequenceMeta("seq", 25.0, 20, 30, "static")
        path = tmp_path / "r.txt"
        with pytest.raises(ShapeMismatch, match=r"^frame 3: track 2001 mask is 10x10, the sequence is 20x30$"):
            write_results([track], meta, str(path))
        assert not path.exists()

    def test_read_rejects_duplicate_frame_id(self, tmp_path):
        rec = ResultRecord(1, 2001, 2, 2, 2, "04")
        path = tmp_path / "r.txt"
        write_records([rec, rec], str(path))
        with pytest.raises(ParseError):
            read_results(str(path))

    def test_read_rejects_bad_token(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2 2 o\n")  # truncated continuation
        with pytest.raises(ParseError, match=r"r\.txt:1: token truncated"):
            read_results(str(path))

    def test_read_names_the_bad_character_and_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2 2 04\n2 2001 2 2 2 0{4\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: invalid character '\{' at 1"):
            read_results(str(path))

    @pytest.mark.parametrize(
        "line, named",
        [
            ("1_0 2001 2 2 2 04", "non-integer field"),
            ("+2 2001 2 2 2 04", "non-integer field"),
            ("-1 2001 2 2 2 04", "non-integer field"),
            ("1 2001 2 2 -2 04", "non-integer field"),
            ("1 2001 7 2 2 04", "unknown class_id 7"),
            ("1 2001 0 2 2 04", "unknown class_id 0"),
            ("1 " + "9" * 5000 + " 2 2 2 04", "integer field too long"),
        ],
        ids=["underscore", "plus_sign", "minus_sign", "negative_width", "class_7", "class_0",
             "overlong"],
    )
    def test_read_refuses_non_digit_integer_or_unknown_class(self, tmp_path, line, named):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2 2 04\n" + line + "\n")
        with pytest.raises(ParseError, match=rf"r\.txt:2: {named}"):
            read_results(str(path))

    def test_read_rejects_short_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2\n")
        with pytest.raises(ParseError):
            read_results(str(path))

    def test_read_rejects_non_ascii_byte_with_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(b"1 2001 2 2 2 04\n# caf\xc3\xa9\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: byte 0xc3 is not ascii"):
            read_results(str(path))

    def test_read_rejects_zero_image_height_with_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2 2 04\n2 2001 2 0 2 04\n")
        with pytest.raises(ShapeMismatch, match=r"r\.txt:2: mask dims"):
            read_results(str(path))

    @pytest.mark.parametrize(
        "line4",
        [b"3 2001 2 2 2 04", b"4 2001 2 2", b"4 x 2 2 2 04", b"4 2001 7 2 2 04", b"# caf\xc3\xa9"],
        ids=["duplicate_key", "field_count", "non_digit", "unknown_class", "non_ascii_byte"],
    )
    def test_a_bad_token_is_named_before_a_later_line_fault(self, tmp_path, line4):
        path = tmp_path / "r.txt"
        path.write_bytes(b"1 2001 2 2 2 04\n2 2001 2 2 2 0{4\n3 2001 2 2 2 04\n" + line4 + b"\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: invalid character '\{' at 1$"):
            read_results(str(path))

    def test_a_token_of_the_wrong_sum_is_named_before_a_later_duplicate(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2001 2 2 2 04\n2 2001 2 2 2 05\n3 2001 2 2 2 04\n3 2001 2 2 2 04\n")
        with pytest.raises(ShapeMismatch, match=r"r\.txt:2: counts sum 5 != 2\*2$"):
            read_results(str(path))

    def test_read_and_resolved_records_carry_their_masks(self, tmp_path):
        tracks = [make_tracklet(2001, [(1, 10, 10), (2, 12, 10)], unit(0)),
                  make_tracklet(2002, [(1, 15, 10)], unit(1))]
        path = tmp_path / "r.txt"
        written = write_results(tracks, make_meta(), str(path))
        for rec in written + read_results(str(path)):
            assert rec.decoded is not None
            assert rec.mask() is rec.decoded
            assert rec.decoded == rle_from_string(rec.rle, rec.img_h, rec.img_w)

    def test_a_carried_mask_of_other_dims_is_refused(self):
        mask = BinaryMask(2, 2, (0, 4))
        with pytest.raises(ShapeMismatch, match=r"^r\.txt:3: mask is 2x2, the record is 2x3$"):
            ResultRecord(1, 2001, 2, 2, 3, "04", "r.txt:3", mask)
        with pytest.raises(ShapeMismatch, match=r"^record: mask is 2x2, the record is 3x2$"):
            ResultRecord(1, 2001, 2, 3, 2, "04", decoded=mask)
        # the mask is a cache of the token: it takes no part in equality
        assert ResultRecord(1, 2001, 2, 2, 2, "04", decoded=mask) == ResultRecord(1, 2001, 2, 2, 2, "04")

    def test_proven_records_are_the_records_the_constructor_builds(self, tmp_path):
        """``read_results`` and ``resolve_records`` build their records with
        ``_proven_record``, skipping the constructor; each equals, hashes,
        prints and holds its fields as the one ``ResultRecord(...)`` builds,
        and is as frozen. The constructor still refuses a mask of other dims."""
        tracks = [make_tracklet(2001, [(1, 10, 10), (2, 12, 10)], unit(0)),
                  make_tracklet(2002, [(1, 15, 10)], unit(1))]
        path = tmp_path / "r.txt"
        records = write_results(tracks, make_meta(), str(path)) + read_results(str(path))
        mask = BinaryMask(2, 2, (0, 4))
        records.append(formats._proven_record(1, 2001, 2, 2, 2, "04", "r.txt:3", mask))
        for rec in records:
            fields = (rec.frame, rec.track_id, rec.class_id, rec.img_h, rec.img_w, rec.rle, rec.source)
            built = ResultRecord(*fields, decoded=rec.decoded)
            assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
            assert list(vars(rec).items()) == list(vars(built).items())
            with pytest.raises(FrozenInstanceError):
                rec.frame = 0
        with pytest.raises(ShapeMismatch, match=r"^r\.txt:3: mask is 2x2, the record is 2x3$"):
            ResultRecord(1, 2001, 2, 2, 3, "04", "r.txt:3", mask)


# Pieces a fuzzed result file is cut from. Each is one the per-line reader
# takes differently from a plain record, or refuses.
FIELD_GAPS = ["", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\r", "\xa0"]
LINE_EDGES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r", " \t "]
ODD_FIELDS = ["+1", "-1", "1_0", "9" * 18, "1" + "0" * 18, "9" * 19, "1" + "0" * 19, "02", "0",
              "3", "x", "\xe9", "\xc3\xa9", ""]
RESULT_FAULTS = ["token", "field", "gap", "edge", "count", "duplicate", "comment", "blank",
                 "crlf", "cr"]


@st.composite
def result_files(draw):
    """The bytes of a small result file on one small image: records of
    empty, full or random masks, blank lines and comments. Half of the files
    are bent once or twice, each time by one of ``RESULT_FAULTS`` on a
    random line: an odd field (a sign, ``_``, 18 and 19 digits, a non-ASCII
    byte), a bad or wrong-sum token, no gap or one other than one space,
    whitespace around the line, a field too few or too many, a repeated key,
    a comment after whitespace or holding a CR or a non-ASCII byte, a line
    of whitespace, or a line ending in CRLF or a lone CR. The last line may
    have no end."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lines = []  # each a [lead, fields, gaps, trail, end]
    for frame in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(["", ["# frame track_id"], [], "", "\n"])
        cuts = sorted(draw(st.sets(st.integers(1, h * w - 1), max_size=5))) if h * w > 1 else []
        counts = np.diff([0, *cuts, h * w]).tolist()
        counts = [0, *counts] if draw(st.booleans()) else counts
        fields = [str(frame), str(draw(st.integers(2001, 2003))),
                  str(draw(st.sampled_from([1, 2]))), str(h), str(w), counts_token(counts)]
        lines.append(["", fields, [" "] * 5, "", "\n"])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if lines else 0):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        fault = draw(st.sampled_from(RESULT_FAULTS))
        fields = line[1]
        if fault == "field" and len(fields) > 1:
            fields[draw(st.integers(0, min(4, len(fields) - 1)))] = draw(st.sampled_from(ODD_FIELDS))
        elif fault == "token" and fields:
            fields[-1] = draw(st.sampled_from(["0{4", "0o", "\xe9", counts_token([h * w + 1])]))
        elif fault == "gap" and line[2]:
            line[2][draw(st.integers(0, len(line[2]) - 1))] = draw(st.sampled_from(FIELD_GAPS))
        elif fault == "edge":
            line[0], line[3] = draw(st.sampled_from(LINE_EDGES)), draw(st.sampled_from(LINE_EDGES))
        elif fault == "count":
            line[1] = fields[: draw(st.integers(1, 5))] if draw(st.booleans()) else fields + ["04"]
            line[2] = [" "] * (len(line[1]) - 1)
        elif fault == "duplicate":
            lines.append(["", list(fields), list(line[2]), "", "\n"])
        elif fault == "comment":
            text = draw(st.sampled_from(["note", "caf\xe9", "a\rb", "1 2001 2 2 2 04"]))
            lines.insert(lines.index(line), [draw(st.sampled_from(LINE_EDGES)), ["#" + text], [], "", "\n"])
        elif fault == "blank":
            lines.insert(lines.index(line), [draw(st.sampled_from(LINE_EDGES)), [], [], "", "\n"])
        elif fault in ("crlf", "cr"):
            line[4] = "\r\n" if fault == "crlf" else "\r"
    text = "".join(
        lead + "".join(f + g for f, g in zip(fields, gaps + [""])) + trail + end
        for lead, fields, gaps, trail, end in lines
    )
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text.encode("latin-1")


class TestMatchedRead:
    @settings(max_examples=150)
    @given(result_files())
    @example(b"")
    @example(b"# frame track_id class_id img_h img_w rle\n1 2001 2 2 2 04\n2 2001 1 2 2 04")
    @example(b"1 2001 2 2 2 04\r\n1 2002 2 2 2 04\r\n")
    @example(b"1 2001 2 2 2 04\n  # note\r1 2002 2 2 2 04\n")
    @example(b"1 2001 2 2 2 04\n1 2001 2 2 2 04\n")
    @example(b"1 2001 2 2 2 05\n1 2001 2 2 2 04\n")
    @example(b"1 2001 2 2 2 04\n2 2001 2 2 2 05\n3 2001 2 2 2 0{4\n")
    @example(b"1 2001 2 2 2 04\n2 2001 2 0 2 04\n")
    @example(b"1 2001 2 2 2 04\n2 2001 3 2 2 04\n3 2001 0 2 2 04\n")
    @example(b"1 2001 2 2 2 04\n12001 2 2 2 04\n")
    @example(b"1 2001 2 2 2 04\n2 2001 2 2 204\n")
    @example(b"1 2001 2 999999999999999999 2 04\n")
    @example(b"9999999999999999999 2001 2 2 2 04\n")
    def test_matches_the_per_line_reader(self, data):
        """Lines read from the pattern's match or through the field checks
        give what the one-line-at-a-time oracle reads: the same records,
        sources and masks; or the reader raises its first error, naming the
        same line."""
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "r.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            expected, error = load_outcome(reference_read_results, path)
            records, read_error = load_outcome(read_results, path)
        assert read_error == error
        if error:
            return
        assert records == expected
        assert [r.source for r in records] == [r.source for r in expected]
        for rec, ref in zip(records, expected):
            assert rec.decoded == ref.decoded
            assert rec.mask() is rec.decoded
            np.testing.assert_array_equal(rec.decoded.run_ends, ref.decoded.run_ends)
            assert rec.decoded.area == ref.decoded.area

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_clean_file_never_reaches_the_field_checks(self, tmp_path, monkeypatch, end):
        """Every record line of a written file, with LF or CRLF ends, is read
        from the pattern's match: a pattern that stopped matching would
        lose the fast case unseen."""
        tracks = [make_tracklet(2001, [(1, 10, 10), (2, 12, 10)], unit(0)),
                  make_tracklet(2002, [(1, 15, 10)], unit(1))]
        path = tmp_path / "r.txt"
        written = write_results(tracks, make_meta(), str(path))
        text = path.read_text(encoding="ascii") + "\n  # a comment after spaces\n\t\n"
        path.write_bytes(text.replace("\n", end).encode("ascii"))
        expected = reference_read_results(str(path))

        def refuse(line, where):
            raise AssertionError(f"{where} reached the field checks")

        monkeypatch.setattr(formats, "_checked_row", refuse)
        records = read_results(str(path))
        assert records == written == expected
        assert [r.source for r in records] == [r.source for r in expected]
        assert [r.decoded for r in records] == [r.decoded for r in expected]


class TestDecodeOnce:
    def test_evaluate_and_overlays_decode_no_token(self, tmp_path, monkeypatch):
        """Once read, or resolved from tracks, records are scored and painted
        with the masks they carry: the per-token decoder is never called."""
        tracks = [
            make_tracklet(2001, [(1, 10, 10), (2, 12, 10)], unit(0)),
            make_tracklet(2002, [(1, 15, 10), (3, 50, 40)], unit(1)),
        ]
        path = tmp_path / "r.txt"
        written = write_results(tracks, make_meta(), str(path))
        records = read_results(str(path))

        def refuse(*args):
            raise AssertionError("a mask token was decoded again")

        monkeypatch.setattr(formats, "rle_from_string", refuse)
        monkeypatch.setattr(geometry, "rle_from_string", refuse)
        report = evaluate(records, written)
        assert (report.total.tp, report.total.fp, report.total.fn) == (len(records), 0, 0)
        assert len(render_overlays(records, str(tmp_path / "overlays"))) == 3


def run_mask(h, w, *runs):
    """The h x w mask whose foreground is the column-major pixel ranges ``runs``."""
    flat = np.zeros(h * w, dtype=bool)
    for lo, hi in runs:
        flat[lo:hi] = True
    return rle_encode(flat.reshape((h, w), order="F"))


@st.composite
def overlapping_frames(draw):
    """Per-frame (track_id, class_id, mask) entries on one small image, ids
    in any order: rectangles, random blobs, empty and full masks, and
    column-major runs, which nest, chain and often start or stop at a
    column's edge, so that neighbours touch across a column wrap."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    size = h * w
    edge = st.integers(0, size) | st.sampled_from(range(0, size + 1, h))
    per_frame = {}
    for frame in draw(st.sets(st.integers(1, 9), min_size=1, max_size=3)):
        ids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=6, unique=True))
        entries = []
        for track_id in ids:
            kind = draw(st.sampled_from(["blob", "rect", "runs", "runs", "empty", "full"]))
            if kind == "blob":
                mask = rle_encode(draw(arrays(np.bool_, (h, w), elements=st.booleans())))
            elif kind == "rect":
                grid = np.zeros((h, w), dtype=bool)
                x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
                grid[y0 : y0 + draw(st.integers(1, h)), x0 : x0 + draw(st.integers(1, w))] = True
                mask = rle_encode(grid)
            elif kind == "runs":
                runs = [sorted(draw(st.tuples(edge, edge))) for _ in range(draw(st.integers(1, 3)))]
                mask = run_mask(h, w, *runs)
            else:
                mask = run_mask(h, w, (0, size if kind == "full" else 0))
            if draw(st.booleans()):  # the same mask, built by the constructor
                mask = BinaryMask(h, w, mask.counts)
            entries.append((track_id, draw(st.sampled_from([1, 2])), mask))
        per_frame[frame] = entries
    return h, w, per_frame


def pixel_reference(h, w, per_frame):
    """Records of ``per_frame`` painted one pixel grid at a time: the oracle
    for ``resolve_records``."""
    expected = []
    for frame in sorted(per_frame):
        taken = np.zeros((h, w), dtype=bool)
        for track_id, class_id, mask in sorted(per_frame[frame], key=lambda e: e[0]):
            own = rle_decode(mask).astype(bool) & ~taken
            taken |= own
            if own.any():
                token = rle_to_string(rle_encode(own))
                expected.append(ResultRecord(frame, track_id, class_id, h, w, token))
    return expected


class TestResolveRecords:
    @given(overlapping_frames())
    # A spans B and C, and B stops before C starts; once losing, once winning
    @example((4, 3, {1: [(5, 1, run_mask(4, 3, (1, 11))), (1, 1, run_mask(4, 3, (2, 4))),
                         (3, 2, run_mask(4, 3, (6, 9)))],
                     2: [(1, 1, run_mask(4, 3, (1, 11))), (5, 1, run_mask(4, 3, (2, 4))),
                         (3, 2, run_mask(4, 3, (6, 9)))]}))
    # a chain of four, each meeting the next, ids falling along it
    @example((3, 4, {7: [(4, 1, run_mask(3, 4, (0, 4))), (3, 1, run_mask(3, 4, (3, 7))),
                         (2, 1, run_mask(3, 4, (6, 10))), (1, 1, run_mask(3, 4, (9, 12)))]}))
    # two runs touching across a column wrap, a third across both, a full and an empty mask
    @example((3, 3, {2: [(2, 1, run_mask(3, 3, (0, 3))), (1, 2, run_mask(3, 3, (3, 6))),
                         (3, 1, run_mask(3, 3, (2, 4))), (9, 1, run_mask(3, 3, (0, 9))),
                         (4, 2, run_mask(3, 3))]}))
    def test_matches_pixel_reference(self, drawn):
        """Pixels go to the lowest id that claims them; emptied masks are
        dropped. A mask that loses no pixel comes back as the same object.
        Every record's mask, given (built by ``rle_encode`` or the
        constructor) or rebuilt, holds read-only run ends and its area, as a
        decoded one, and equals, hashes and prints as its counts rebuilt."""
        h, w, per_frame = drawn
        meta = SequenceMeta("resolve", 25.0, h, w, "static")
        records = resolve_records(per_frame, meta)
        expected = pixel_reference(h, w, per_frame)
        assert records == expected
        # each record carries the mask its token encodes
        assert [r.mask() for r in records] == [rle_from_string(r.rle, h, w) for r in records]
        given_masks = {(f, t): m for f, entries in per_frame.items() for t, _, m in entries}
        for r, ref in zip(records, expected):
            mask = given_masks[r.frame, r.track_id]
            if r.decoded == mask:
                assert r.decoded is mask
            assert_holds_its_runs(r.decoded, token_counts(ref.rle))

    @given(overlapping_frames(), st.sampled_from([1, 3, 40]))
    def test_blocks_of_any_size_give_the_same_records(self, drawn, budget):
        """Frames painted a few at a time, in blocks under a small interval
        budget, give the records of one block."""
        h, w, per_frame = drawn
        meta = SequenceMeta("resolve", 25.0, h, w, "static")
        with patch.object(geometry, "_WEIGHT_BUDGET", budget):
            assert resolve_records(per_frame, meta) == pixel_reference(h, w, per_frame)

    def test_a_small_budget_paints_in_many_blocks(self):
        """Three frames of one 4-interval mask each, under a budget of 8
        intervals: the first two frames make a block and the third its own."""
        mask = run_mask(4, 4, (0, 1), (3, 5), (7, 9), (11, 13))
        per_frame = {f: [(1, 1, mask)] for f in (1, 2, 3)}
        meta = SequenceMeta("resolve", 25.0, 4, 4, "static")
        paint = patch.object(formats, "paint_by_rank", wraps=formats.paint_by_rank)
        with patch.object(geometry, "_WEIGHT_BUDGET", 8), paint as spy:
            records = resolve_records(per_frame, meta)
        assert [len(call.args[0]) for call in spy.call_args_list] == [2, 1]
        assert records == pixel_reference(4, 4, per_frame)

    def test_paints_without_a_pair_merge(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mask pair was merged")

        monkeypatch.setattr(formats, "mask_merge", refuse)
        monkeypatch.setattr(geometry, "mask_merge", refuse)
        per_frame = {1: [(2, 1, run_mask(4, 4, (0, 8))), (1, 1, run_mask(4, 4, (4, 12)))]}
        records = resolve_records(per_frame, SequenceMeta("resolve", 25.0, 4, 4, "static"))
        assert [(r.track_id, r.decoded.counts) for r in records] == [(1, (4, 8, 4)), (2, (0, 4, 12))]

    def test_frames_of_2_62_pixels_each_fill_a_table(self):
        """A 2**31 x 2**31 frame fills an interval table alone, so each frame
        is painted in a block of its own; the run-cut merge is the oracle."""
        h = w = 1 << 31
        n = h * w
        a, b = BinaryMask(h, w, (5, n - 5)), BinaryMask(h, w, (0, 10, n - 10))
        c = BinaryMask(h, w, (n - 7, 7))
        per_frame = {1: [(2, 1, a), (1, 1, b)], 2: [(3, 2, c), (4, 2, a)]}
        records = resolve_records(per_frame, SequenceMeta("huge", 25.0, h, w, "static"))
        expected = [
            (1, 1, b),
            (1, 2, reference_mask_merge(a, b, "subtract")),
            (2, 3, c),
            (2, 4, reference_mask_merge(a, c, "subtract")),
        ]
        assert [(r.frame, r.track_id, r.decoded) for r in records] == expected
        assert [r.rle for r in records] == [rle_to_string(m) for _, _, m in expected]

    def test_frames_past_int64_refused_naming_frame_and_track(self):
        h, w = 1 << 40, 1 << 30
        per_frame = {4: [(9, 1, BinaryMask(h, w, (1, h * w - 1))), (3, 1, BinaryMask(h, w, (h * w,)))]}
        with pytest.raises(ShapeMismatch, match=rf"^frame 4: track 3 mask is {h}x{w}, more pixels than int64"):
            resolve_records(per_frame, SequenceMeta("huge", 25.0, h, w, "static"))

    def test_overlap_check_names_the_frame_and_both_tracks(self):
        mask = run_mask(2, 2, (0, 2))
        entries = [(6, 3, 1, mask), (6, 8, 2, mask), (7, 1, 1, mask)]
        pieces = np.array([0, 4, 6]), np.array([2, 6, 7]), np.array([0, 1, 2])
        formats._check_disjoint(pieces, entries)  # touching pieces do not overlap
        pieces = np.array([0, 1, 6]), np.array([2, 6, 7]), np.array([0, 1, 2])
        with pytest.raises(OverlapAfterResolution, match=r"^frame 6: tracks 3 and 8 overlap after resolution$"):
            formats._check_disjoint(pieces, entries)


class TestOverlays:
    def test_renders_ppm_per_frame(self, tmp_path):
        tracks = [
            make_tracklet(2001, [(1, 10, 10), (2, 12, 10)], unit(0)),
            make_tracklet(2002, [(1, 50, 40)], unit(1)),
        ]
        records = records_from_tracks(tracks, make_meta())
        out = tmp_path / "overlays"
        written = render_overlays(records, str(out))
        assert len(written) == 2
        data = (out / "frame_000001.ppm").read_bytes()
        assert data.startswith(f"P6\n{IMG_W} {IMG_H}\n255\n".encode())
        body = data.split(b"\n", 3)[3]
        assert len(body) == IMG_W * IMG_H * 3
        # two distinct non-black colors painted
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        colors = {tuple(p) for p in pixels if tuple(p) != (0, 0, 0)}
        assert len(colors) == 2
