import json
import os
import subprocess
import sys

import pytest

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
        ],
        ids=["invalid_json", "unknown_object_field", "negative_object_size"],
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
            (b"reid.beta3=1.5\n", "reid.beta3"),
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
