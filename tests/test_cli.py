import base64
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import packed

from masktrack import cli
from masktrack.config import PipelineConfig, dump_config
from masktrack.geometry import BBox, rect_mask, rle_to_string
from masktrack.synth import scenario_long_occlusions

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "masktrack", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    spec = scenario_long_occlusions("static")
    (base / "scenario.json").write_text(spec.to_json())
    return base


# names that would put a written file outside --out, or hide it
UNSAFE_NAMES = ["../escaped", "{tmp}/abs_escaped", "", ".", "..", "a\0b"]


def files_under(root):
    return {path for path in root.rglob("*") if path.is_file()}


class TestSynthCommand:
    def test_emits_both_files(self, scenario_dir):
        out = scenario_dir / "data"
        proc = run_cli("synth", str(scenario_dir / "scenario.json"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "long_occlusions_static.jsonl").exists()
        assert (out / "long_occlusions_static_gt.txt").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"name": "x",\n "frames": 10,,}\n', ["line 2", "invalid JSON"]),
            (json.dumps({"objects": [{"colour": "red"}]}), ["objects[0]", "'colour'"]),
            (json.dumps({"objects": [{}, {"height": -4.0}]}), ["objects[1].height", "-4.0"]),
            (json.dumps({"objects": [{"vx": "fast"}]}), ["objects[0].vx", "'fast'"]),
            (json.dumps({"frames": 2.5, "objects": [{}]}), ["frames", "whole number", "2.5"]),
            (
                json.dumps(
                    {"objects": [{}], "occlusions": [{"object_index": 1, "start": 3, "length": 2}]}
                ),
                ["occlusions[0].object_index", "names no object"],
            ),
            (
                json.dumps({"objects": [{}], "dropouts": [{"start": 3}]}),
                ["dropouts[0]", "'object_index'"],
            ),
            (
                json.dumps({"camera_mode": "sideways", "objects": [{}]}),
                ["camera_mode", "'sideways'"],
            ),
            (json.dumps({"objects": [{"start_x": 700.0}]}), ["object 0 leaves the 640x480 image"]),
        ],
        ids=[
            "invalid_json",
            "unknown_object_field",
            "negative_object_size",
            "text_velocity",
            "fractional_frames",
            "unknown_object_index",
            "missing_event_field",
            "unknown_camera_mode",
            "object_outside_image",
        ],
    )
    def test_bad_scenario_fails_cleanly(self, tmp_path, text, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli("synth", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"error: {path}: " in proc.stderr
        for part in named:
            assert part in proc.stderr

    @pytest.mark.parametrize("name", UNSAFE_NAMES)
    def test_scenario_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        spec = scenario_long_occlusions("static")
        spec.name = name.format(tmp=tmp_path)
        path = tmp_path / "in" / "scenario.json"
        path.parent.mkdir()
        path.write_text(spec.to_json())
        out = tmp_path / "work" / "out"
        assert cli.main(["synth", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: name: expected a plain file name")
        assert files_under(tmp_path) == {path}


class TestTrackCommand:
    def test_writes_results_and_config_echo(self, scenario_dir):
        data = scenario_dir / "data"
        if not data.exists():
            run_cli("synth", str(scenario_dir / "scenario.json"), "--out", str(data))
        out = scenario_dir / "run"
        proc = run_cli(
            "track", str(data / "long_occlusions_static.jsonl"), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "long_occlusions_static.txt").exists()
        assert (out / "config.txt").exists()
        assert "5 tracks" in proc.stdout

    def test_no_reid_leaves_fragments(self, scenario_dir):
        data = scenario_dir / "data"
        out = scenario_dir / "run_noreid"
        proc = run_cli(
            "track",
            str(data / "long_occlusions_static.jsonl"),
            "--out",
            str(out),
            "--no-reid",
        )
        assert proc.returncode == 0, proc.stderr
        assert "8 tracks" in proc.stdout

    def test_missing_file_fails_cleanly(self, tmp_path):
        proc = run_cli("track", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_bad_config_fails_cleanly(self, scenario_dir, tmp_path):
        cases = [
            (b"reid.beta3=1.5\n", "bad.cfg:1: reid.beta3"),
            ("reid.beta3=0.7\n# caf\u00e9\n".encode("utf-8"), "bad.cfg:2: byte 0xc3"),
        ]
        for content, named in cases:
            cfg = tmp_path / "bad.cfg"
            cfg.write_bytes(content)
            proc = run_cli(
                "track",
                str(scenario_dir / "data" / "long_occlusions_static.jsonl"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
            )
            assert proc.returncode == 1
            assert "error:" in proc.stderr and "Traceback" not in proc.stderr
            assert named in proc.stderr


    @pytest.mark.parametrize(
        "feature_map",
        [
            {"gh": 0, "gw": 2, "c": 2, "values": []},
            {"gh": -1, "gw": -1, "c": 2, "values": [0.5, 0.5]},
            {"gh": 1, "gw": 1, "c": 0, "values": []},
        ],
        ids=["zero_rows", "negative_grid", "zero_channels"],
    )
    def test_bad_feature_map_fails_cleanly(self, tmp_path, capsys, feature_map):
        records = fuzz_records()
        records[0].pop("embedding")
        records[0]["feature_map"] = feature_map
        path = tmp_path / "dets.jsonl"
        path.write_text(fuzz_text(records))
        assert cli.main(["track", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: feature_map gh, gw and c")

    def test_negative_frame_fails_before_anything_is_written(self, tmp_path, capsys):
        # a result line holds no sign, so such a frame could not be evaluated
        records = fuzz_records()
        records[2]["frame"] = -1
        path = tmp_path / "dets.jsonl"
        path.write_text(fuzz_text(records))
        assert cli.main(["track", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:4: frame -1 below 0")
        assert files_under(tmp_path) == {path}

    @pytest.mark.parametrize("name", UNSAFE_NAMES)
    def test_header_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        lines = fuzz_text(fuzz_records()).split("\n")
        header = json.loads(lines[0])
        header["name"] = name.format(tmp=tmp_path)
        lines[0] = json.dumps(header)
        path = tmp_path / "in" / "dets.jsonl"
        path.parent.mkdir()
        path.write_text("\n".join(lines))
        out = tmp_path / "work" / "out"
        assert cli.main(["track", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: bad header (name: expected a plain file name")
        assert files_under(tmp_path) == {path}


class TestEvalCommand:
    def test_self_eval_prints_perfect_score(self, scenario_dir):
        gt = scenario_dir / "data" / "long_occlusions_static_gt.txt"
        proc = run_cli("eval", str(gt), str(gt))
        assert proc.returncode == 0, proc.stderr
        assert "1.0000" in proc.stdout
        assert proc.stdout.splitlines()[0].split()[0] == "class"


class TestOverlayCommand:
    def test_renders_frames(self, scenario_dir, tmp_path):
        results = scenario_dir / "run" / "long_occlusions_static.txt"
        if not results.exists():
            run_cli(
                "track",
                str(scenario_dir / "data" / "long_occlusions_static.jsonl"),
                "--out",
                str(scenario_dir / "run"),
            )
        out = tmp_path / "overlays"
        proc = run_cli("overlay", str(results), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        ppms = sorted(out.glob("*.ppm"))
        assert len(ppms) == 100
        assert ppms[0].read_bytes().startswith(b"P6\n")


FUZZ_H, FUZZ_W = 24, 40


def fuzz_records():
    """Two pedestrians over the five frames a track must last, the first
    with embeddings and the second with 1x2 feature maps of two channels."""
    records = []
    for frame in range(1, 6):
        for k, (x, y) in enumerate([(2.0 + frame, 3.0), (24.0, 4.0 + frame)]):
            box = BBox(x, y, 8.0, 14.0)
            counts = rle_to_string(rect_mask(FUZZ_H, FUZZ_W, box))
            rec = {
                "frame": frame,
                "class_id": 2,
                "score": 0.9,
                "bbox": [box.x, box.y, box.w, box.h],
                "mask": {"h": FUZZ_H, "w": FUZZ_W, "counts": counts},
            }
            if k == 0:
                rec["embedding"] = [1.0, 0.1 * frame]
            else:
                values = [0.1, 1.0, 0.2 * frame, 0.9]
                rec["feature_map"] = {"gh": 1, "gw": 2, "c": 2, "values": values}
            records.append(rec)
    return records


def fuzz_text(lines):
    """A detection file: the fuzz header, then each record or ready-made line."""
    header = {"name": "fuzz", "fps": 25.0, "img_h": FUZZ_H, "img_w": FUZZ_W}
    header["camera_mode"] = "static"
    rows = [line if isinstance(line, str) else json.dumps(line) for line in lines]
    return "\n".join([json.dumps(header)] + rows) + "\n"


def key_paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the value's own included."""
    paths = [prefix]
    if isinstance(value, dict):
        for key, item in value.items():
            paths += key_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            paths += key_paths(item, prefix + (i,))
    return paths


def array_field(rec):
    """(owner, key) of a fuzz record's float array: its embedding or its map's values."""
    return (rec, "embedding") if "embedding" in rec else (rec["feature_map"], "values")


def pack_records(records):
    """Each record's float array swapped for its packed form."""
    for rec in records:
        owner, key = array_field(rec)
        owner[key] = packed(owner[key])
    return records


@st.composite
def broken_packed_strings(draw, values):
    """The packed form of ``values``, kept whole or broken: a character
    outside the base64 alphabet, padding dropped or added, bytes cut or
    added so the count is not whole float64 values, values added or
    dropped, or one value made NaN or infinite."""
    kind = draw(
        st.sampled_from(["whole", "alphabet", "padding", "bytes", "count", "non_finite"])
    )
    text = packed(values)
    if kind == "alphabet":
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(["!", "-", "_", ".", " ", "\n", "\u00e9", "="]))
        return text[:at] + char + text[at + 1 :]
    if kind == "padding":
        return draw(st.sampled_from([text.rstrip("="), text + "=", text + "==", "=" + text]))
    if kind == "bytes":
        raw = np.asarray(values, dtype="<f8").tobytes()
        cut = draw(st.integers(1, 7))
        raw = draw(st.sampled_from([raw[:-cut], raw + bytes(cut)]))
        return base64.b64encode(raw).decode("ascii")
    if kind == "count":
        return packed(draw(st.lists(st.sampled_from([0.5, 1.0]), max_size=6)))
    if kind == "non_finite":
        values = list(values)
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from([float("nan"), float("inf"), -float("inf")])
        )
        return packed(values)
    return text


# numbers near the records' own, which often leave a record valid but odd
NEAR_NUMBERS = st.integers(-2, 60) | st.floats(-60.0, 60.0)
JSON_VALUES = NEAR_NUMBERS | st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([2**70, 0.5, -0.5, 1e308, float("nan"), float("inf"), "", "x", "04"])
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["h", "w", "counts", "gh", "gw", "c", "values"]), inner),
    max_leaves=6,
)


@st.composite
def mutated_detection_files(draw):
    """The fuzz records as detection-file lines, one of them mutated: a value
    replaced or deleted at any depth, the line cut short, one character
    replaced, a feature-map record given a new box size (0 to 9 per side)
    and a new grid (``gh``, ``gw`` and ``c`` from -1 to 3) with as many
    values as the grid declares, or every array packed and one of the
    packed strings broken."""
    records = fuzz_records()
    index = draw(st.integers(0, len(records) - 1))
    rec = records[index]
    kind = draw(
        st.sampled_from(["replace", "delete", "truncate", "character", "grid", "packed"])
    )
    if kind == "packed":
        owner, key = array_field(rec)
        broken = draw(broken_packed_strings(owner[key]))
        pack_records(records)
        owner[key] = broken
    elif kind == "grid":
        index = 2 * draw(st.integers(0, len(records) // 2 - 1)) + 1
        gh, gw, c = (draw(st.integers(-1, 3)) for _ in range(3))
        records[index]["bbox"][2:] = [draw(st.integers(0, 9)), draw(st.integers(0, 9))]
        values = [0.5] * abs(gh * gw * c)
        records[index]["feature_map"] = {"gh": gh, "gw": gw, "c": c, "values": values}
    elif kind in ("replace", "delete"):
        *parents, last = draw(st.sampled_from(key_paths(rec)[1:]))
        owner = rec
        for key in parents:
            owner = owner[key]
        if kind == "replace":
            owner[last] = draw(JSON_VALUES)
        else:
            del owner[last]
    lines = [json.dumps(r) for r in records]
    if kind == "truncate":
        lines[index] = lines[index][: draw(st.integers(0, len(lines[index]) - 1))]
    elif kind == "character":
        at = draw(st.integers(0, len(lines[index]) - 1))
        char = draw(st.characters(codec="utf-8", exclude_categories=["Cs"]))
        lines[index] = lines[index][:at] + char + lines[index][at + 1 :]
    return fuzz_text(lines)


class TestTrackFuzz:
    def test_fuzz_records_track_cleanly(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(fuzz_text(fuzz_records()))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["track", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "fuzz: 2 tracks, 10 masks" in out.getvalue()

    def test_packed_records_track_as_the_listed_ones(self, tmp_path):
        outputs = []
        for name, records in [("lists", fuzz_records()), ("packed", pack_records(fuzz_records()))]:
            path = tmp_path / f"{name}.jsonl"
            path.write_text(fuzz_text(records))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["track", str(path), "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "fuzz.txt").read_text())
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 11

    @given(mutated_detection_files())
    def test_mutated_detection_line_exits_0_or_names_file_and_line(self, text):
        """However a detection line is broken, ``track`` either runs or exits 1
        with an ``error:`` line naming the file and line; it never raises."""
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "dets.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["track", path, "--out", os.path.join(work, "out")])
        assert code in (0, 1)
        if code == 1:
            assert re.match(rf"error: {re.escape(path)}:\d+: ", err.getvalue()), err.getvalue()


def fuzz_result_lines():
    """A result file's lines: the header, then two disjoint objects over five
    frames, a car and a pedestrian."""
    lines = ["# frame track_id class_id img_h img_w rle"]
    for frame in range(1, 6):
        for track_id, class_id, box in [
            (1001, 1, BBox(2.0 + frame, 3.0, 8.0, 6.0)),
            (2001, 2, BBox(24.0, 4.0 + frame, 6.0, 12.0)),
        ]:
            rle = rle_to_string(rect_mask(FUZZ_H, FUZZ_W, box))
            lines.append(f"{frame} {track_id} {class_id} {FUZZ_H} {FUZZ_W} {rle}")
    return lines


# field values near the records' own, and ones no reader should accept
RESULT_FIELDS = st.sampled_from(
    ["", "0", "1", "2", "3", "7", "-1", "1001", "2001", str(FUZZ_H), str(FUZZ_W), "1.5", "x",
     "1_0", "+2", "9" * 30, "0" + str(FUZZ_H), "PS0", "o@3", "\x7f"]
) | st.integers(-2, 60).map(str)


@st.composite
def mutated_result_files(draw):
    """The fuzz result lines with one line mutated: a field replaced, deleted
    or added, the line cut short, one character replaced, another line's
    fields copied in, or a valid mask of other image dimensions put in; the
    file may be given as the results or as the ground truth."""
    lines = fuzz_result_lines()
    index = draw(st.integers(1, len(lines) - 1))
    fields = lines[index].split(" ")
    kind = draw(
        st.sampled_from(["replace", "delete", "add", "truncate", "character", "copy", "dims"])
    )
    if kind == "dims":
        h, w = draw(st.integers(1, 30)), draw(st.integers(1, 45))
        fields[3:] = [str(h), str(w), rle_to_string(rect_mask(h, w, BBox(0.0, 0.0, 3.0, 3.0)))]
    elif kind == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(RESULT_FIELDS)
    elif kind == "delete":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(RESULT_FIELDS))
    elif kind == "copy":
        other = draw(st.sampled_from(lines[1:])).split(" ")
        at = draw(st.sampled_from([slice(1, 3), slice(3, 5), slice(3, 6), slice(5, 6)]))
        fields[at] = other[at]
    lines[index] = " ".join(fields)
    if kind == "truncate":
        lines[index] = lines[index][: draw(st.integers(0, len(lines[index]) - 1))]
    elif kind == "character":
        at = draw(st.integers(0, len(lines[index]) - 1))
        char = draw(st.characters(codec="ascii", exclude_characters="\n\r"))
        lines[index] = lines[index][:at] + char + lines[index][at + 1 :]
    return "\n".join(lines) + "\n", draw(st.booleans())


class TestEvalFuzz:
    def test_fuzz_lines_score_perfectly(self, tmp_path):
        path = tmp_path / "res.txt"
        path.write_text("\n".join(fuzz_result_lines()) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["eval", str(path), str(path)]) == 0
        assert out.getvalue().splitlines()[-1].split()[-2:] == ["1.0000", "1.0000"]

    @given(mutated_result_files())
    def test_mutated_result_line_exits_0_or_names_file_and_line(self, case):
        """However a line of the results or the ground truth is broken,
        ``eval`` either scores the pair or exits 1 with an ``error:`` line
        naming the file and line; it never raises."""
        text, as_ground_truth = case
        with tempfile.TemporaryDirectory() as work:
            clean, broken = os.path.join(work, "clean.txt"), os.path.join(work, "broken.txt")
            with open(clean, "w", encoding="ascii") as fh:
                fh.write("\n".join(fuzz_result_lines()) + "\n")
            with open(broken, "w", encoding="ascii") as fh:
                fh.write(text)
            args = [clean, broken] if as_ground_truth else [broken, clean]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["eval", *args])
        assert code in (0, 1)
        if code == 1:
            assert re.match(rf"error: {re.escape(broken)}:\d+: ", err.getvalue()), err.getvalue()


# values no config key should take quietly, and some each key takes
CONFIG_VALUES = st.sampled_from(
    ["", "nan", "NaN", "inf", "-inf", "true", "false", "yes", "no", "0", "1", "-1", "-0.5",
     "0.5", "3", "1e308", "-1e308", "1e-320", "9" * 30, "9" * 5000, "1_0", "0x10", " 2 ",
     "auto", "static", "moving", "sideways"]
) | st.floats().map(repr) | st.integers(-(10**6), 10**20).map(str)


@st.composite
def mutated_config_files(draw):
    """Every config key at its default, one line mutated: an unknown key
    added, the ``=`` dropped, the value replaced, a byte past ASCII put in,
    or one character replaced."""
    lines = [line.encode("ascii") for line in dump_config(PipelineConfig()).splitlines()]
    index = draw(st.integers(0, len(lines) - 1))
    key, value = lines[index].split(b"=", 1)
    kind = draw(st.sampled_from(["unknown", "no_equals", "value", "non_ascii", "character"]))
    if kind == "unknown":
        name = draw(st.sampled_from(["tracker.nope", "reid.beta4", "TRACKER.FPS", "tracker..fps"]))
        lines.insert(index, name.encode("ascii") + b"=1")
    elif kind == "no_equals":
        lines[index] = draw(st.sampled_from([key, key + value, key + b" " + value]))
    elif kind == "value":
        lines[index] = key + b"=" + draw(CONFIG_VALUES).encode("ascii")
    elif kind == "non_ascii":
        at = draw(st.integers(0, len(lines[index])))
        byte = bytes([draw(st.integers(0x80, 0xFF))])
        lines[index] = lines[index][:at] + byte + lines[index][at:]
    else:
        at = draw(st.integers(0, len(lines[index]) - 1))
        char = draw(st.characters(codec="ascii")).encode("ascii")
        lines[index] = lines[index][:at] + char + lines[index][at + 1 :]
    return b"\n".join(lines) + b"\n"


class TestConfigFuzz:
    def test_default_config_tracks_cleanly(self, tmp_path):
        path, cfg = tmp_path / "dets.jsonl", tmp_path / "default.cfg"
        path.write_text(fuzz_text(fuzz_records()))
        cfg.write_text(dump_config(PipelineConfig()))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            args = ["track", str(path), "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert cli.main(args) == 0
        assert "fuzz: 2 tracks, 10 masks" in out.getvalue()

    @given(mutated_config_files())
    def test_mutated_config_line_exits_0_or_names_file(self, content):
        """However a config line is broken, ``track`` either runs or exits 1
        with an ``error:`` line naming the config file, and its line when one
        line is at fault; it never raises."""
        track_with_config(content)

    def test_every_key_takes_each_edge_value_or_names_file_and_line(self):
        """Each key set to each of the values most likely to slip past a
        range check, one key per file."""
        keys = [line.split("=")[0] for line in dump_config(PipelineConfig()).splitlines()]
        for key in keys:
            for value in ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-1", "0",
                          "9" * 30, "9" * 5000, "true"]:
                track_with_config(f"{key}={value}\n".encode("ascii"))

    def test_digit_separator_or_plus_sign_named_with_line(self):
        """``int()`` and ``float()`` take ``1_0`` and ``+1``; no key does."""
        keys = [line.split("=")[0] for line in dump_config(PipelineConfig()).splitlines()]
        for key in keys:
            for value in ["1_0", "+1", "0_5", "+0.5"]:
                code, err = track_with_config(f"# run\n{key}={value}\n".encode("ascii"))
                assert code == 1 and "run.cfg:2: " + key in err, (key, value, err)

    @pytest.mark.parametrize("sep", [b"\x0c", b"\x85"])
    def test_line_break_other_than_newline_named_at_its_line(self, sep):
        code, err = track_with_config(b"# run\nreid.beta3=0.7" + sep + b"reid.beta3=1.5\n")
        assert code == 1 and "run.cfg:2: " in err, err


def track_with_config(content: bytes) -> tuple[int, str]:
    """Run ``track`` on the fuzz records under a config file holding
    ``content``: it exits 0, or exits 1 with an ``error:`` line naming the
    config file, and the line when one line is at fault. Returns the exit
    code and what went to stderr."""
    with tempfile.TemporaryDirectory() as work:
        path, cfg = os.path.join(work, "dets.jsonl"), os.path.join(work, "run.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(fuzz_text(fuzz_records()))
        with open(cfg, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        args = ["track", path, "--config", cfg, "--out", os.path.join(work, "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args)
    assert code in (0, 1), content
    if code == 1:
        assert re.match(rf"error: {re.escape(cfg)}:(\d+:)? ", err.getvalue()), err.getvalue()
    return code, err.getvalue()
