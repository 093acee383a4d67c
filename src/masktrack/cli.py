"""Command-line surface.

    masktrack track <detections> [--config FILE] --out DIR [--no-str] [--no-reid]
    masktrack eval <results> <ground-truth>
    masktrack synth <scenario.json> --out DIR
    masktrack overlay <results> --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import load_config, save_config
from .errors import MaskTrackError, ParseError, SpecOutOfBounds
from .formats import load_detections, read_results, render_overlays, text_lines, write_results
from .metrics import evaluate, format_report
from .pipeline import run_pipeline
from .synth import ScenarioSpec, generate_files


def _cmd_track(args) -> int:
    cfg = load_config(args.config)
    if args.no_str:
        cfg = replace(cfg, tracker=replace(cfg.tracker, str_enabled=False))
    if args.no_reid:
        cfg = replace(cfg, reid=replace(cfg.reid, enabled=False))
    meta, dets_by_frame = load_detections(args.detections)
    tracks, resolved = run_pipeline(meta, dets_by_frame, cfg)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, f"{meta.name}.txt")
    records = write_results(tracks, meta, results_path)
    save_config(resolved, os.path.join(args.out, "config.txt"))
    print(f"{meta.name}: {len(tracks)} tracks, {len(records)} masks -> {results_path}")
    return 0


def _cmd_eval(args) -> int:
    results = read_results(args.results)
    ground_truth = read_results(args.ground_truth)
    report = evaluate(results, ground_truth)
    print(format_report(report))
    return 0


def _cmd_synth(args) -> int:
    text = "".join(line for _, line in text_lines(args.scenario, "ascii"))
    try:
        dets_path, gt_path = generate_files(ScenarioSpec.from_json(text), args.out)
    except (ParseError, SpecOutOfBounds) as exc:
        raise type(exc)(f"{args.scenario}: {exc}") from None
    print(f"detections -> {dets_path}")
    print(f"ground truth -> {gt_path}")
    return 0


def _cmd_overlay(args) -> int:
    records = read_results(args.results)
    written = render_overlays(records, args.out)
    print(f"{len(written)} frames -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masktrack",
        description="Mask-based multi-object tracking on precomputed detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the full tracking pipeline")
    p_track.add_argument("detections", help="detection file (JSON lines)")
    p_track.add_argument("--config", default=None, help="key=value config file")
    p_track.add_argument("--out", required=True, help="output directory")
    p_track.add_argument(
        "--no-str", action="store_true", help="disable short-term retrieval"
    )
    p_track.add_argument(
        "--no-reid", action="store_true", help="disable offline identity merging"
    )
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("results")
    p_eval.add_argument("ground_truth")
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    p_synth.add_argument("scenario", help="scenario spec (JSON)")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_overlay = sub.add_parser("overlay", help="render result masks as PPM images")
    p_overlay.add_argument("results")
    p_overlay.add_argument("--out", required=True, help="output directory")
    p_overlay.set_defaults(func=_cmd_overlay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaskTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
