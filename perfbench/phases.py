"""The two child processes of one benchmark run.

    python3 perfbench/phases.py setup   --workload W --seed N --work DIR --trace 0|1
    python3 perfbench/phases.py measure --workload W --seed N --work DIR --trace 0|1 --seconds S

``setup`` generates and writes the inputs (``masktrack synth``) a few times
and times each. ``measure`` starts fresh, so its peak RSS holds no set-up
allocations, and repeats what a user runs, ``masktrack track`` then
``masktrack eval``, for ``--seconds`` seconds. Its timings are the sums of
each piece's fastest repetition (see ``PieceClock``). Each prints one JSON
line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from masktrack import formats, metrics, pipeline, postfilter, reid, synth, tracker
from masktrack.config import PipelineConfig, resolve_for_sequence
from masktrack.postfilter import filter_detections

import spans
import workloads

# set-up repeats at least SETUP_REPS times and for at least SETUP_SECONDS
SETUP_REPS = 3
SETUP_SECONDS = 4.0
MIN_REPS = 3
# the speed probe: a fixed pure-Python loop run before every step, in a
# piece of its own that the times leave out. Times are scaled to a core that
# runs it in PROBE_REF_US; a 2-core Xeon VM with Python 3.11 took 24-40 us.
PROBE_LOOPS = 400
PROBE_REF_US = 20.0
SCALES = (0.25, 0.5)
SCALING_PASSES = 3


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_paths(work: str, scale: float = 1.0) -> tuple[str, str]:
    tag = "" if scale == 1.0 else f"_x{scale}"
    return os.path.join(work, f"dets{tag}.jsonl"), os.path.join(work, f"gt{tag}.txt")


# calls marked at entry and exit: one per frame or per pipeline stage
STAGE_CALLS = (("pipeline", "merge_pass"), ("pipeline", "prune_tracks"),
               ("pipeline", "dedup_tracks"), ("formats", "write_records"))
# calls marked at entry only: the per-object and per-pair kernels inside the
# stages, so that a piece spans one kernel call and the code up to the next
KERNEL_CALLS = (("formats", "rle_from_string"), ("formats", "mask_merge"),
                ("metrics", "mask_iou"), ("metrics", "mask_intersection_area"),
                ("tracker", "mask_iou"), ("tracker", "bank_similarity"),
                ("tracker", "spatial_attention"), ("postfilter", "mask_iou"),
                ("reid", "bank_cross_similarity"), ("reid", "static_merge_test"),
                ("reid", "moving_merge_test"))
MODULES = {"formats": formats, "metrics": metrics, "pipeline": pipeline,
           "postfilter": postfilter, "reid": reid, "tracker": tracker}


class PieceClock:
    """Clock marks at call boundaries that cut a sequence run into pieces.

    Marks go around every ``MaskTracker.step`` and every call in
    ``STAGE_CALLS``, at the start of every call in ``KERNEL_CALLS``, and
    ``run_sequence`` adds its own between load, pipeline, write, the two
    reads and evaluate. The work between two consecutive marks is the same
    in every repetition (the result is byte-identical), so the fastest
    repetition of each piece is its cost at the best speed the host gave
    during the run. Before each step the speed probe runs between two marks
    of its own, which tells that speed. This is the one timer kept in
    untraced runs: one clock read and one append per mark.
    """

    def __init__(self):
        self.marks: list[float] = []
        self.steps: list[int] = []  # indices of each step's entry and exit marks
        self.probes: list[int] = []  # index of each probe's start mark
        self.objects: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def mark(self) -> int:
        """Add a mark now; returns its index in this repetition."""
        self.marks.append(perf_counter())
        return len(self.marks) - 1

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        marks, steps, objects, probes = self.marks, self.steps, self.objects, self.probes
        orig_step = tracker.MaskTracker.step

        def step(self_, frame, detections):
            probes.append(len(marks))
            marks.append(perf_counter())
            _probe()
            marks.append(perf_counter())
            steps.append(len(marks))
            marks.append(perf_counter())
            result = orig_step(self_, frame, detections)
            steps.append(len(marks))
            marks.append(perf_counter())
            objects.append(len(detections))
            return result

        self._patch(tracker.MaskTracker, "step", step)
        for module, attr in STAGE_CALLS:
            self._patch(MODULES[module], attr, self._around(getattr(MODULES[module], attr)))
        for module, attr in KERNEL_CALLS:
            self._patch(MODULES[module], attr, self._before(getattr(MODULES[module], attr)))

    def _around(self, fn):
        marks = self.marks

        def wrapper(*args, **kwargs):
            marks.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(perf_counter())

        return wrapper

    def _before(self, fn):
        marks = self.marks

        def wrapper(*args, **kwargs):
            marks.append(perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """This repetition's marks and (entry, exit) mark indices per step; starts the next."""
        out = (np.asarray(self.marks), np.asarray(self.steps, dtype=np.int64).reshape(-1, 2),
               np.asarray(self.probes, dtype=np.int64))
        self.marks.clear()
        self.steps.clear()
        self.probes.clear()
        return out


def _probe() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def _no_mark() -> int:
    return 0


def run_sequence(dets_path: str, gt_path: str, out_path: str, clock: PieceClock | None = None) -> dict:
    """``masktrack track`` then ``masktrack eval`` on one sequence, with checks.

    A raised error (an unreadable result file or an overlap found by
    ``evaluate`` included) marks the run failed; the caller compares hashes.
    With a ``clock``, the run also keeps its marks and step samples, and
    ``split`` is the index of the mark between track and eval.
    """
    mark = clock.mark if clock else _no_mark
    rep: dict = {"ok": False}
    try:
        mark()
        t0 = perf_counter()
        meta, dets_by_frame = formats.load_detections(dets_path)
        mark()
        tracks, _ = pipeline.run_pipeline(meta, dets_by_frame, PipelineConfig())
        mark()
        formats.write_results(tracks, meta, out_path)
        t1 = perf_counter()
        split = mark()
        del meta, dets_by_frame, tracks
        results = formats.read_results(out_path)
        mark()
        ground_truth = formats.read_results(gt_path)
        mark()
        report = metrics.evaluate(results, ground_truth)
        t2 = perf_counter()
        mark()
    except Exception as exc:  # any failure of the program counts against fail_rate
        rep["error"] = f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        if clock:
            rep["marks"], rep["steps"], rep["probes"] = clock.take()
    total = report.total
    rep.update(
        ok=True,
        track_s=t1 - t0,
        eval_s=t2 - t1,
        split=split,
        sha256=sha256(out_path),
        motsa=total.motsa,
        smotsa=total.smotsa,
        id_switches=total.ids,
    )
    return rep


def _timed_rep(work: str, clock: PieceClock) -> dict:
    clock.install()
    try:
        return run_sequence(*input_paths(work), os.path.join(work, "result.txt"), clock)
    finally:
        clock.uninstall()
        gc.collect()


def _traced_rep(work: str, tracer: spans.Tracer) -> tuple[dict, dict]:
    spans.install(tracer)
    try:
        rep = run_sequence(*input_paths(work), os.path.join(work, "result_traced.txt"))
    finally:
        tracer.uninstall()
    summary = tracer.finish_rep()
    gc.collect()
    return rep, summary


def _check_hashes(reps: list[dict]) -> str | None:
    """Fail every run whose result differs from the first good run's bytes."""
    reference = next((r["sha256"] for r in reps if r["ok"]), None)
    for r in reps:
        if r["ok"] and r["sha256"] != reference:
            r["ok"] = False
            r["error"] = f"result sha256 {r['sha256'][:12]} != {reference[:12]}"
    return reference


def fastest_pieces(reps: list[dict]) -> dict:
    """track_s, eval_s and step latencies from each piece's fastest repetition.

    Every repetition does the same work between the same marks, so the
    pieces line up across repetitions; a repetition that ran while the host
    was slow still gives its fast pieces. A frame's step latency is the sum
    of the fastest pieces between its step's entry and exit marks, and
    ``step_ms_*`` are percentiles over the frames. The probe pieces are left
    out of every time. A slow stretch that lasts the whole run slows the
    probe's fastest pieces as much as the program's, so every time is
    scaled by PROBE_REF_US over the probe's mean fastest piece; the
    ``*_raw`` values are unscaled.
    """
    first = reps[0]
    if any(r["marks"].size != first["marks"].size or r["split"] != first["split"]
           or not np.array_equal(r["steps"], first["steps"]) for r in reps):
        raise RuntimeError("repetitions of one input crossed different call boundaries")
    if first["probes"].size == 0:
        raise RuntimeError("no step ran, so the speed probe never ran")
    pieces = np.diff(np.stack([r["marks"] for r in reps]), axis=1).min(axis=0)
    ends = np.concatenate(([0.0], np.cumsum(pieces)))  # ends[i]: fastest time up to mark i
    step_ms = (ends[first["steps"][:, 1]] - ends[first["steps"][:, 0]]) * 1e3
    probe = pieces[first["probes"]]  # every probe runs in the track part
    track_raw = float(ends[first["split"]] - probe.sum())
    eval_raw = float(ends[-1] - ends[first["split"]])
    probe_us = float(probe.mean()) * 1e6
    scale = PROBE_REF_US / probe_us
    return {
        "track_s": track_raw * scale,
        "eval_s": eval_raw * scale,
        "step_ms_p50": float(np.percentile(step_ms, 50)) * scale,
        "step_ms_p95": float(np.percentile(step_ms, 95)) * scale,
        "step_ms_mean": float(step_ms.mean()) * scale,
        "step_samples": int(step_ms.size),
        "pieces": int(pieces.size),
        "probe_us": probe_us,
        "track_s_raw": track_raw,
        "eval_s_raw": eval_raw,
    }


def _scaling_point(dets_path: str) -> tuple[float, float]:
    """(objects per frame, ms per frame) of the online tracker on one input."""
    clock = PieceClock()
    passes = []
    for _ in range(SCALING_PASSES):
        # a fresh load per pass: detections cache their pooled embedding
        meta, dets_by_frame = formats.load_detections(dets_path)
        cfg = resolve_for_sequence(PipelineConfig(), meta.fps, meta.camera_mode)
        clock.install()
        try:
            trk = tracker.MaskTracker(cfg.tracker)
            for frame in sorted(dets_by_frame):
                trk.step(frame, filter_detections(dets_by_frame[frame], cfg.filters))
        finally:
            clock.uninstall()
        marks, steps, probes = clock.take()
        passes.append({"marks": marks, "steps": steps, "probes": probes, "split": 0})
    return float(np.mean(clock.objects)), fastest_pieces(passes)["step_ms_mean"]


def _scaling_exponent(points: list[tuple[float, float]]) -> float:
    """Slope of log ms/frame against log objects/frame."""
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    return float(np.polyfit(x, y, 1)[0])


def _probed(owner, attr: str, probe_times: list[float]):
    """Run the speed probe, timed on its own, before every call of ``owner.attr``."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        _probe()
        probe_times.append(perf_counter() - t0)
        return fn(*args, **kwargs)

    return wrapper


def setup(args) -> dict:
    """Generate and write the inputs a few times; traced runs also time synth.generate.

    An untraced set-up's time leaves out the probes that run before every
    mask it makes and writes, and is scaled by PROBE_REF_US over their mean.
    """
    tracer = spans.Tracer() if args.trace else None
    times, raw, generate = [], [], []
    began = perf_counter()
    while len(times) < SETUP_REPS or perf_counter() - began < SETUP_SECONDS:
        probes: list[float] = []
        originals = synth.rect_mask, formats.rle_to_string
        if tracer:  # no probes: they would count in the synth.generate span
            spans.install(tracer)
        else:
            synth.rect_mask = _probed(synth, "rect_mask", probes)
            formats.rle_to_string = _probed(formats, "rle_to_string", probes)
        t0 = perf_counter()
        try:
            workloads.write_inputs(args.workload, args.seed, *input_paths(args.work))
        finally:
            t1 = perf_counter()
            synth.rect_mask, formats.rle_to_string = originals
            if tracer:
                tracer.uninstall()
        raw.append(t1 - t0 - sum(probes))
        times.append(raw[-1] * PROBE_REF_US / (1e6 * statistics.fmean(probes)) if probes else raw[-1])
        if tracer:
            generate.append(tracer.finish_rep()["spans"]["synth.generate"])
        gc.collect()
    out = {"setup_times": times, "setup_times_raw": raw, "inputs_sha256": sha256(input_paths(args.work)[0])}
    if tracer:
        out["synth.generate"] = {
            key: statistics.median(g[key] for g in generate) for key in ("calls", "s", "self_s")
        }
        for scale in SCALES:
            workloads.write_inputs(args.workload, args.seed, *input_paths(args.work, scale), scale=scale)
    return out


def _layers(args, tracer, summaries, timed, traced, clock) -> dict:
    """Per-layer medians over the traced runs, the tracing overhead and the scaling report."""
    tracer.write(os.path.join(args.spans_dir, f"{args.workload}-seed{args.seed}.npz"))
    per_rep = [spans.layer_metrics(s) for s in summaries]
    layers = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    # like for like: the fastest untraced run against the fastest traced run
    layers["trace.overhead_ratio"] = (
        min(r["track_s"] for r in traced if r["ok"]) / min(r["track_s"] for r in timed if r["ok"])
    )
    points = [_scaling_point(input_paths(args.work, scale)[0]) for scale in SCALES]
    points.append((float(np.mean(clock.objects)), fastest_pieces(timed)["step_ms_mean"]))
    layers["tracker.step.scaling_exponent"] = _scaling_exponent(points)
    return {
        "layers": layers,
        "layer_units": {name: unit for name, (unit, _) in spans.per_layer_units().items()},
        "scaling_points": points,
    }


def measure(args) -> dict:
    """Repeat the sequence run for ``--seconds``; traced runs alternate plain and traced."""
    clock = PieceClock()
    tracer = spans.Tracer() if args.trace else None
    reps, traced, summaries = [], [], []
    deadline = perf_counter() + args.seconds
    hard_stop = perf_counter() + args.max_seconds
    while True:
        reps.append(_timed_rep(args.work, clock))
        if tracer:
            rep, summary = _traced_rep(args.work, tracer)
            traced.append(rep)
            summaries.append(summary)
        now = perf_counter()
        if (now >= deadline and len(reps) >= MIN_REPS) or now >= hard_stop:
            break
    out: dict = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    reference = _check_hashes(reps)
    for rep in traced:  # tracing must leave the output byte-identical
        if rep["ok"] and rep["sha256"] != reference:
            rep["ok"] = False
            rep["error"] = "traced result differs from untraced result"
    good = [r for r in reps if r["ok"]]
    if good:
        if tracer:
            out.update(_layers(args, tracer, summaries, good, traced, clock))
        out.update(
            motsa=good[0]["motsa"],
            smotsa=good[0]["smotsa"],
            id_switches=good[0]["id_switches"],
            **fastest_pieces(good),
        )
    out["reps"] = [{k: r.get(k) for k in ("ok", "error", "track_s", "eval_s")} for r in reps + traced]
    out["result_sha256"] = reference
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for inputs and results")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-seconds", type=float, default=120.0,
                        help="stop repeating after this long even if too few samples")
    parser.add_argument("--spans-dir", default=".", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    result = setup(args) if args.phase == "setup" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
