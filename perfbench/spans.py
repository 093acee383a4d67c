"""In-memory span tracer installed around the public functions of masktrack.

Wrappers go on the *calling* module's namespace (``masktrack.tracker.mask_iou``
apart from ``masktrack.metrics.mask_iou``), so a shared geometry or embedding
kernel is charged to the layer that asked for it. A span records name, start,
end and parent; a span's self time is its duration minus the time its direct
children cover. Counters are derived only from the arguments and return
values at these boundaries. Nothing under ``src/`` is modified: ``install``
patches module attributes and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from masktrack.tracker import TrackState


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reps: list[dict] = []  # finished repetitions, spans kept as arrays
        self._new_rep()

    def _new_rep(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span that is one of ``names``."""
        for idx in reversed(self.stack):
            name = self.names[self.name_id[idx]]
            if name in names:
                return name
        return None

    def wrap(self, owner, attr: str, name, count=None, before=None):
        """Replace ``owner.attr`` by a timed wrapper.

        ``name`` is a span name or a callable returning one at call time.
        ``before(args)`` runs ahead of the call; ``count(counts, args, result,
        pre)`` afterwards, with ``pre`` what ``before`` returned.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            nid = tracer._name(name() if callable(name) else name)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer.counts, args, result, pre)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def finish_rep(self) -> dict:
        """Close the current repetition; returns its per-span totals and counts."""
        if self.stack:
            raise RuntimeError("repetition finished with open spans")
        rep = {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
        }
        nid, parent = rep["name_id"], rep["parent"]
        dur = rep["end"] - rep["start"]
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_time, minlength=n)
        summary = {
            "spans": {
                self.names[i]: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i in range(n)
                if calls[i]
            },
            "counts": dict(self.counts),
        }
        self.reps.append(rep)
        self._new_rep()
        return summary

    def write(self, path: str):
        """Write every finished repetition's spans to one .npz file.

        ``rep`` numbers the repetition (the trace id shared by its spans);
        ``parent`` indexes into the same repetition's spans, -1 at the top.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = {key: [r[key] for r in self.reps] for key in ("name_id", "start", "end", "parent")}
        columns["rep"] = [np.full(len(r["start"]), i, np.int32) for i, r in enumerate(self.reps)]
        arrays = {key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in columns.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)


# ---------------------------------------------------------------------------
# counters, from arguments and return values only
# ---------------------------------------------------------------------------

def _iou_nonzero(counts, args, result, pre):
    counts["mask_iou.calls"] += 1
    counts["mask_iou.nonzero"] += result > 0.0


def _kept(counts, args, result, pre):
    counts["filter.in"] += len(args[0])
    counts["filter.kept"] += len(result)


def _load_bytes(counts, args, result, pre):
    counts["load.bytes"] += os.path.getsize(args[0])


def _cells(counts, args, result, pre):
    counts["assignment.cells"] += np.asarray(args[0]).size


def _step_tracks(args):
    return len(args[0].tracks)


def _step_counts(counts, args, result, pre):
    counts["tracker.steps"] += 1
    counts["tracker.tracks_scanned"] += pre
    counts["tracker.tracks_live"] += sum(1 for t in args[0].tracks if t.state is not TrackState.TERMINATED)


def _pairs(counts, args, result, pre):
    n = len(args[0])
    counts["reid.passes"] += 1
    counts["reid.pairs_scanned"] += n * n
    counts["reid.candidates"] += len(result)


def _merge_test(counts, args, result, pre):
    counts["reid.merge_tests"] += 1
    counts["reid.merges"] += bool(result)


def install(tracer: Tracer):
    """Wrap every measured boundary of masktrack; undo with ``tracer.uninstall()``."""
    from masktrack import formats, metrics, pipeline, postfilter, reid, synth, tracker

    t = tracer
    # ingest, write, read, eval
    t.wrap(formats, "load_detections", "formats.load_detections", count=_load_bytes)
    t.wrap(formats, "write_results", "formats.write_results")
    t.wrap(formats, "resolve_records", "formats.resolve_records")
    t.wrap(formats, "read_results", "formats.read_results")
    t.wrap(formats, "mask_merge", "geometry.mask_merge")
    t.wrap(formats, "rle_to_string", "geometry.rle_to_string")
    decode_stage = {"formats.load_detections": "load", "formats.read_results": "read", "metrics.evaluate": "metrics"}
    t.wrap(formats, "rle_from_string",
           lambda: "geometry.rle_from_string." + decode_stage.get(t.enclosing(decode_stage), "other"))
    t.wrap(metrics, "evaluate", "metrics.evaluate")
    t.wrap(metrics, "mask_iou", "geometry.mask_iou.metrics", count=_iou_nonzero)
    t.wrap(metrics, "mask_intersection_area", "geometry.mask_intersection_area.metrics")
    # orchestration and the post-filters it calls
    t.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    t.wrap(pipeline, "filter_detections", "postfilter.filter_detections", count=_kept)
    t.wrap(pipeline, "merge_pass", "reid.merge_pass")
    t.wrap(pipeline, "prune_tracks", "postfilter.prune_tracks")
    t.wrap(pipeline, "dedup_tracks", "postfilter.dedup_tracks")
    t.wrap(postfilter, "trajectory_iou", "postfilter.trajectory_iou")
    t.wrap(postfilter, "mask_iou", "geometry.mask_iou.postfilter", count=_iou_nonzero)
    # online tracker and the kernels it calls
    t.wrap(tracker.MaskTracker, "step", "tracker.step", count=_step_counts, before=_step_tracks)
    t.wrap(tracker, "assignment_cost", "tracker.assignment_cost")
    t.wrap(tracker, "str_match", "tracker.str_match")
    t.wrap(tracker, "extrapolate_track", "tracker.extrapolate_track")
    t.wrap(tracker, "mask_iou", "geometry.mask_iou.tracker", count=_iou_nonzero)
    t.wrap(tracker, "bank_similarity", "embedding.bank_similarity")
    t.wrap(tracker, "spatial_attention", "embedding.spatial_attention")
    t.wrap(tracker, "instance_aware_pool", "embedding.instance_aware_pool")
    t.wrap(tracker, "hungarian_solve", "assignment.hungarian_solve", count=_cells)
    # reid's static test reaches huber_fit through tracker.extrapolate_boxes
    t.wrap(tracker, "huber_fit",
           lambda: "regression.huber_fit." + ("reid" if t.enclosing(("reid.static_merge_test",)) else "tracker"))
    # offline re-identification
    t.wrap(reid, "candidate_pairs", "reid.candidate_pairs", count=_pairs)
    t.wrap(reid, "bank_cross_similarity", "embedding.bank_cross_similarity")
    t.wrap(reid, "static_merge_test", "reid.static_merge_test", count=_merge_test)
    t.wrap(reid, "moving_merge_test", "reid.moving_merge_test", count=_merge_test)
    # set-up only
    t.wrap(synth, "generate", "synth.generate")


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better), in report order
# ---------------------------------------------------------------------------

TIMED = [
    "geometry.mask_iou.tracker",
    "geometry.mask_iou.postfilter",
    "geometry.mask_iou.metrics",
    "embedding.bank_similarity",
    "embedding.bank_cross_similarity",
    "embedding.pool",
    "tracker.step",
    "tracker.assignment_cost",
    "tracker.str_match",
    "tracker.extrapolate_track",
    "assignment.hungarian_solve",
    "regression.huber_fit.tracker",
    "regression.huber_fit.reid",
    "reid.merge_pass",
    "reid.candidate_pairs",
    "postfilter.filter_detections",
    "postfilter.prune_tracks",
    "postfilter.dedup_tracks",
    "postfilter.trajectory_iou",
    "formats.load_detections",
    "formats.resolve_records",
    "geometry.mask_merge",
    "geometry.rle_to_string",
    "formats.read_results",
    "geometry.rle_from_string.load",
    "geometry.rle_from_string.read",
    "geometry.rle_from_string.metrics",
    "metrics.evaluate",
    "geometry.mask_intersection_area.metrics",
    "pipeline.run_pipeline",
    "synth.generate",
]

# pooling is two calls per detection: attention sampling, then the pool itself
POOL_PARTS = ("embedding.spatial_attention", "embedding.instance_aware_pool")

EXTRA = {
    "geometry.mask_iou.nonzero_ratio": ("ratio", "higher"),
    "tracker.tracks_scanned": ("count/step", "lower"),
    "tracker.tracks_live": ("count/step", "lower"),
    "assignment.cells": ("count", "lower"),
    "reid.passes": ("count", "lower"),
    "reid.pairs_scanned": ("count", "lower"),
    "reid.candidates": ("count", "lower"),
    "reid.merge_tests": ("count", "lower"),
    "reid.merges": ("count", "lower"),
    "reid.candidate_ratio": ("ratio", "higher"),
    "reid.merge_ratio": ("ratio", "higher"),
    "postfilter.dets_kept_ratio": ("ratio", "higher"),
    "formats.load_detections.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "tracker.step.scaling_exponent": ("slope", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    units = {}
    for name in TIMED:
        units[name + ".calls"] = ("count", "lower")
        units[name + ".s"] = ("s", "lower")
        units[name + ".self_s"] = ("s", "lower")
    units.update(EXTRA)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition (a ``finish_rep`` summary).

    Times and calls are per sequence run; counts per step are means.
    """
    spans, counts = rep["spans"], rep["counts"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in TIMED:
        if name == "embedding.pool":
            parts = [spans.get(p, zero) for p in POOL_PARTS]
            span = {
                "calls": parts[1]["calls"],
                "s": parts[0]["s"] + parts[1]["s"],
                "self_s": parts[0]["self_s"] + parts[1]["self_s"],
            }
        else:
            span = spans.get(name, zero)
        out[name + ".calls"] = span["calls"]
        out[name + ".s"] = span["s"]
        out[name + ".self_s"] = span["self_s"]
    steps = counts.get("tracker.steps", 0)
    out["geometry.mask_iou.nonzero_ratio"] = _ratio(counts.get("mask_iou.nonzero", 0), counts.get("mask_iou.calls", 0))
    out["tracker.tracks_scanned"] = _ratio(counts.get("tracker.tracks_scanned", 0), steps)
    out["tracker.tracks_live"] = _ratio(counts.get("tracker.tracks_live", 0), steps)
    out["assignment.cells"] = counts.get("assignment.cells", 0)
    for key in ("passes", "pairs_scanned", "candidates", "merge_tests", "merges"):
        out["reid." + key] = counts.get("reid." + key, 0)
    out["reid.candidate_ratio"] = _ratio(out["reid.candidates"], out["reid.pairs_scanned"])
    out["reid.merge_ratio"] = _ratio(out["reid.merges"], out["reid.merge_tests"])
    out["postfilter.dets_kept_ratio"] = _ratio(counts.get("filter.kept", 0), counts.get("filter.in", 0))
    out["formats.load_detections.bytes"] = counts.get("load.bytes", 0)
    return out
