#!/usr/bin/env python3
"""Full pipeline on a synthetic sequence, through the file formats.

Generates a clean five-object scene, writes the detection and ground-truth
files, runs the tracking pipeline, and scores the result. This is the same
path the command line takes:

    masktrack synth scenario.json --out data
    masktrack track data/clean.jsonl --out run
    masktrack eval run/clean.txt data/clean_gt.txt
"""

import tempfile
from pathlib import Path

from masktrack import (
    PipelineConfig,
    evaluate,
    format_report,
    generate_files,
    load_detections,
    read_results,
    run_pipeline,
    scenario_clean,
    write_results,
)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)

    spec = scenario_clean()
    dets_path, gt_path = generate_files(spec, str(out / "data"))
    print("wrote:", dets_path)
    print("wrote:", gt_path)

    meta, dets_by_frame = load_detections(dets_path)
    print(f"sequence {meta.name}: {meta.img_w}x{meta.img_h} @ {meta.fps} fps, "
          f"{sum(len(v) for v in dets_by_frame.values())} detections")

    tracks, resolved = run_pipeline(meta, dets_by_frame, PipelineConfig())
    print("tracks out:", [t.id for t in tracks])

    results_path = out / "clean.txt"
    records = write_results(tracks, meta, str(results_path))
    print(f"result file: {len(records)} mask lines")
    print("first line:", results_path.read_text().splitlines()[1])

    report = evaluate(read_results(str(results_path)), read_results(gt_path))
    print(format_report(report))
