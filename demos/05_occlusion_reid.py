#!/usr/bin/env python3
"""Offline re-identification: healing long occlusions.

An occlusion longer than the short-term memory window terminates a track;
the object resurfaces under a fresh id. The offline merger walks candidate
tracklet pairs (time-compatible, similar in appearance) and re-connects
them when their motion agrees:

  static camera: extrapolate both fragments into the gap and require the
      boxes to overlap on average;
  moving camera: compare mean top-left displacement vectors by cosine
      (positions are unreliable under ego motion, directions less so).

Both tests pass on this scenario because the objects move linearly.
"""

from dataclasses import replace

from masktrack import (
    PipelineConfig,
    evaluate,
    format_report,
    generate,
    run_pipeline,
    scenario_long_occlusions,
)
from masktrack.formats import records_from_tracks

base = PipelineConfig()
no_merge = PipelineConfig(
    tracker=base.tracker,
    reid=replace(base.reid, enabled=False),
    filters=base.filters,
)

for mode in ("static", "moving"):
    spec = scenario_long_occlusions(mode)
    meta, dets, gt = generate(spec)
    merged, _ = run_pipeline(meta, dets, base)
    fragments, _ = run_pipeline(meta, dets, no_merge)
    report = evaluate(records_from_tracks(merged, meta), gt)
    print(f"--- camera {mode}")
    print(f"without merging: {len(fragments)} tracks "
          f"({[t.id for t in fragments]})")
    print(f"with merging:    {len(merged)} tracks "
          f"({[t.id for t in merged]})")
    print(format_report(report))
    print()
