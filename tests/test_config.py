import hashlib
from pathlib import Path

import pytest

from masktrack.config import (
    PipelineConfig,
    dump_config,
    load_config,
    parse_config_text,
    resolve_for_sequence,
)
from masktrack.errors import ConfigError
from masktrack.postfilter import FilterConfig
from masktrack.reid import ReidConfig
from masktrack.tracker import CAR, PEDESTRIAN, TrackerConfig


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == PipelineConfig()
        assert cfg.tracker.n1_seconds[PEDESTRIAN] == 0.2
        assert cfg.tracker.n1_seconds[CAR] == 0.1
        assert cfg.reid.n2_seconds[PEDESTRIAN] == 1.0
        assert cfg.reid.n2_seconds[CAR] == 0.5
        assert cfg.reid.n3_frames == 5
        assert cfg.filters.traj_iou_threshold == 0.75

    def test_none_path_gives_defaults(self):
        assert load_config(None) == PipelineConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\n   \n")
        assert cfg == PipelineConfig()


class TestOverrides:
    def test_per_class_override_is_isolated(self):
        cfg = parse_config_text("tracker.car.n1_seconds=0.3\n")
        assert cfg.tracker.n1_seconds[CAR] == 0.3
        assert cfg.tracker.n1_seconds[PEDESTRIAN] == 0.2

    def test_bool_keys(self):
        cfg = parse_config_text("tracker.str_enabled=false\nreid.enabled=false\n")
        assert not cfg.tracker.str_enabled
        assert not cfg.reid.enabled

    def test_camera_mode_value(self):
        cfg = parse_config_text("reid.camera_mode=moving\n")
        assert cfg.reid.camera_mode == "moving"


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'tracker.bogus'"):
            parse_config_text("tracker.bogus=1\n")

    def test_bad_value_names_source_and_line(self):
        with pytest.raises(ConfigError, match="run.cfg:2: reid.beta3"):
            parse_config_text("reid.enabled=true\nreid.beta3=1.5\n", source="run.cfg")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="tracker.fps"):
            parse_config_text("tracker.fps=fast\n")

    def test_beta_range(self):
        with pytest.raises(ConfigError, match="reid.beta3"):
            parse_config_text("reid.beta3=1.5\n")

    def test_gate_range(self):
        with pytest.raises(ConfigError, match="tracker.pedestrian.gate_cost"):
            parse_config_text("tracker.pedestrian.gate_cost=3.5\n")

    def test_negative_fps(self):
        with pytest.raises(ConfigError, match="tracker.fps: must be positive"):
            parse_config_text("tracker.fps=-5\n")

    def test_aspect_range_cross_check(self):
        with pytest.raises(ConfigError, match="filter.car aspect range"):
            parse_config_text("filter.car.aspect_lo=3.0\nfilter.car.aspect_hi=2.0\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_text("tracker.fps 30\n")

    def test_bad_camera_mode(self):
        with pytest.raises(ConfigError, match="reid.camera_mode"):
            parse_config_text("reid.camera_mode=sideways\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "tracker.fps",
            "tracker.car.n1_seconds",
            "tracker.pedestrian.n1_seconds",
            "tracker.huber_delta",
            "tracker.str_distance_factor",
            "reid.car.n2_seconds",
            "reid.pedestrian.n2_seconds",
            "filter.min_box_area",
            "filter.car.aspect_lo",
            "filter.car.aspect_hi",
            "filter.pedestrian.aspect_lo",
            "filter.pedestrian.aspect_hi",
        ],
    )
    def test_non_finite_number_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key}={raw}\n")

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("tracker.bank_size", "1_0"),
            ("tracker.bank_size", "+2"),
            ("reid.beta1", "0_5"),
            ("reid.beta1", "+0.5"),
            ("reid.beta1", "+0_5e-1"),
        ],
    )
    def test_digit_separator_and_plus_sign_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=rf"run\.cfg:2: {key}: expected an? "):
            parse_config_text(f"# run\n{key}={raw}\n", source="run.cfg")

    def test_exponent_sign_and_minus_still_parse(self):
        cfg = parse_config_text("filter.min_box_area=1e+2\nreid.beta1=5e-1\n")
        assert cfg.filters.min_box_area == 100.0 and cfg.reid.beta1 == 0.5
        # a minus sign parses, and the range check refuses the value
        with pytest.raises(ConfigError, match="must be >= 1, got -3"):
            parse_config_text("tracker.bank_size=-3\n")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_lines_end_at_newline_only(self, sep):
        # the separator does not end the line, so both settings are one value
        with pytest.raises(ConfigError, match=r"run\.cfg:2: reid\.beta3: expected a number"):
            parse_config_text(f"# run\nreid.beta3=0.7{sep}reid.beta3=1.5\n", source="run.cfg")

    def test_crlf_lines_still_parse(self):
        assert parse_config_text("reid.beta1=0.25\r\nreid.beta2=0.5\r\n").reid.beta2 == 0.5

    def test_a_file_read_ends_lines_at_a_lone_cr_too(self, tmp_path):
        # load_config reads with universal newlines: a lone CR starts line 2
        path = tmp_path / "run.cfg"
        path.write_bytes(b"reid.beta1=0.25\rreid.beta3=x\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: reid\.beta3: expected a number"):
            load_config(str(path))
        path.write_bytes(b"reid.beta1=0.25\rreid.beta2=0.5\r")
        assert load_config(str(path)).reid.beta2 == 0.5


class TestRoundTrip:
    def test_dump_parse_identity_on_defaults(self):
        cfg = PipelineConfig()
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_dump_parse_identity_on_overrides(self):
        text = (
            "tracker.fps=12.5\n"
            "tracker.car.n1_seconds=0.25\n"
            "tracker.huber_window=7\n"
            "reid.beta1=0.55\n"
            "reid.camera_mode=moving\n"
            "filter.min_track_len=3\n"
            "tracker.str_enabled=false\n"
        )
        cfg = parse_config_text(text)
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_resolved_config_round_trips(self):
        cfg = resolve_for_sequence(PipelineConfig(), fps=25.0, camera_mode="moving")
        assert cfg.tracker.fps == 25.0
        assert cfg.reid.camera_mode == "moving"
        assert parse_config_text(dump_config(cfg)) == cfg


class TestResolveForSequence:
    def test_auto_mode_takes_sequence_value(self):
        cfg = resolve_for_sequence(PipelineConfig(), 30.0, "static")
        assert cfg.reid.camera_mode == "static"

    def test_explicit_mode_wins(self):
        base = parse_config_text("reid.camera_mode=moving\n")
        cfg = resolve_for_sequence(base, 30.0, "static")
        assert cfg.reid.camera_mode == "moving"


# SHA-256 of dump_config(PipelineConfig()): config.txt must reproduce a run
# bit for bit, so the default dump is pinned
DEFAULT_DUMP_SHA256 = "4a70c07a6d18a87cb0170e1e555f462d73614863e42eb1a68719d3b8a3bfd748"


class TestFormat:
    def test_default_dump_matches_golden_hash(self):
        text = dump_config(PipelineConfig())
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == DEFAULT_DUMP_SHA256

    def test_every_key_round_trips_a_non_default_value(self):
        # built field by field, not parsed, so a field the key table misses
        # comes back from the dump at its default and breaks the equality
        cfg = PipelineConfig(
            tracker=TrackerConfig(
                fps=12.5,
                n1_seconds={CAR: 0.3, PEDESTRIAN: 0.4},
                gate_cost={CAR: 1.1, PEDESTRIAN: 2.9},
                huber_delta=2.5,
                huber_window=7,
                str_distance_factor=1.5,
                bank_size=3,
                str_enabled=False,
            ),
            reid=ReidConfig(
                n2_seconds={CAR: 0.75, PEDESTRIAN: 2.0},
                n3_frames=9,
                beta1=0.35,
                beta2=0.25,
                beta3=0.95,
                camera_mode="moving",
                enabled=False,
            ),
            filters=FilterConfig(
                min_score=0.25,
                min_box_area=50.0,
                aspect_ratio_range={CAR: (0.3, 2.5), PEDESTRIAN: (1.5, 4.0)},
                min_track_len=2,
                min_track_avg_score=0.7,
                traj_iou_threshold=0.6,
            ),
        )
        dumped = dump_config(cfg)
        assert parse_config_text(dumped) == cfg
        lines = dumped.splitlines()
        defaults = dump_config(PipelineConfig()).splitlines()
        assert len(lines) == len(defaults) == 27
        for line, default in zip(lines, defaults):
            assert line.split("=")[0] == default.split("=")[0]
            assert line != default


def test_readme_config_block_lists_the_defaults():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("**Config**", 1)[1].split("```\n", 2)[1]
    lines = sorted(line.split("#", 1)[0].strip() for line in block.splitlines())
    assert lines == dump_config(PipelineConfig()).splitlines()
