"""Mask-level tracking metrics against exact ground truth.

Per frame and per class, hypothesis masks match ground-truth masks when
their IOU exceeds 0.5; because both sides are pairwise disjoint such a
partner is provably unique, and the code asserts that rather than assuming
it. An identity switch is charged when a ground-truth object's matched
hypothesis id differs from the one it was most recently assigned.

    MOTSA  = (TP - FP - IDS) / |GT|
    sMOTSA = (sum of TP IOUs - FP - IDS) / |GT|

There is no loop over mask pairs, and no decoding: a record read from a
file or resolved from tracks carries its mask (``read_results`` decodes a
file's tokens once, in one batch), so each mask is decoded once, when read.
Each side's masks go into one interval table (``geometry.interval_table``),
the frames in sorted order each in its own block of pixel positions. The table
checks that a side's same-frame masks are disjoint, and a merge of the two
tables gives the intersection area of every gt/hyp pair that shares pixels.
IOU is ``mask_iou``'s formula on those integers, and frames, classes and
gt records are walked in the order a pairwise evaluator walks them, so
every count and the summed IOUs come out the same, bit for bit. An input
whose masks overlap has its first overlapping pair named by one
``geometry.pair_intersections`` pass over every pair of its first such frame.
``mask_iou`` and ``mask_intersection_area`` stay imported for the
benchmark, which patches them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OverlappingMasksInInput, ShapeMismatch
from .formats import ResultRecord
from .geometry import (
    IntervalTable,
    interval_table,
    mask_intersection_area,
    mask_iou,
    overlapping_masks,
    pair_intersections,
    slot_capacity,
    table_intersections,
)
from .tracker import CLASS_NAMES


@dataclass
class ClassStats:
    gt_count: int = 0
    tp: int = 0
    soft_tp: float = 0.0
    fp: int = 0
    fn: int = 0
    ids: int = 0

    @property
    def motsa(self) -> float:
        if self.gt_count == 0:
            return 1.0 if (self.fp == 0 and self.ids == 0) else 0.0
        return (self.tp - self.fp - self.ids) / self.gt_count

    @property
    def smotsa(self) -> float:
        if self.gt_count == 0:
            return 1.0 if (self.fp == 0 and self.ids == 0) else 0.0
        return (self.soft_tp - self.fp - self.ids) / self.gt_count


@dataclass
class EvalReport:
    per_class: dict[int, ClassStats] = field(default_factory=dict)
    total: ClassStats = field(default_factory=ClassStats)


def _table(records: list[ResultRecord], slot: dict[int, int], label: str) -> IntervalTable:
    """The interval table of one side's record masks.

    Raises OverlappingMasksInInput naming the first frame, in record order,
    whose masks overlap, and in it the first pair ``(i, j)``, ``i < j`` in
    record order: the table finds the frames, and :func:`pair_intersections`
    takes every pair of that frame at once (in blocks of
    :func:`slot_capacity` pairs, so one block unless a frame fills most of
    int64) to name the pair.
    """
    masks = [rec.mask() for rec in records]
    table = interval_table(masks, [slot[rec.frame] for rec in records])
    clashes = {records[k].frame for k in overlapping_masks(table).tolist()}
    if clashes:
        frame = next(rec.frame for rec in records if rec.frame in clashes)
        recs = [rec for rec in records if rec.frame == frame]
        frame_masks = [m for rec, m in zip(records, masks) if rec.frame == frame]
        ii, jj = np.triu_indices(len(recs), 1)  # every pair i < j, in record order
        block = slot_capacity(recs[0].img_h, recs[0].img_w)
        for lo in range(0, ii.size, block):
            i, j = ii[lo : lo + block], jj[lo : lo + block]
            hit = np.flatnonzero(pair_intersections(frame_masks, frame_masks, i, j))
            if hit.size:
                first, rec = recs[i[hit[0]]], recs[j[hit[0]]]
                raise OverlappingMasksInInput(
                    f"{rec.source or label}: frame {frame} masks "
                    f"{first.track_id} and {rec.track_id} overlap"
                )
    return table


def _by_frame_and_class(records: list[ResultRecord]) -> dict[int, dict[int, list[int]]]:
    """Record indices grouped by frame, then by class, each list in record order."""
    groups: dict[int, dict[int, list[int]]] = {}
    for k, rec in enumerate(records):
        groups.setdefault(rec.frame, {}).setdefault(rec.class_id, []).append(k)
    return groups


def evaluate(
    results: list[ResultRecord], ground_truth: list[ResultRecord]
) -> EvalReport:
    """Score a result record set against ground-truth records."""
    report = EvalReport()
    records = results + ground_truth
    if not records:
        return report
    h, w = records[0].img_h, records[0].img_w
    for rec in records:
        if (rec.img_h, rec.img_w) != (h, w):
            raise ShapeMismatch(
                f"{rec.source or 'inputs'}: image dims {rec.img_h}x{rec.img_w} "
                f"differ from {h}x{w}"
            )
    frames = sorted({rec.frame for rec in records})
    capacity = slot_capacity(h, w)
    if len(frames) > capacity:
        rec = next(rec for rec in records if rec.frame == frames[capacity])
        raise ShapeMismatch(
            f"{rec.source or 'inputs'}: {len(frames)} frames of {h}x{w} pixels "
            f"exceed the {capacity} that int64 pixel positions hold"
        )
    slot = {frame: s for s, frame in enumerate(frames)}
    hyp_table = _table(results, slot, "results")
    gt_table = _table(ground_truth, slot, "ground truth")
    hyp_area, gt_area = hyp_table.area.tolist(), gt_table.area.tolist()

    # every (gt, hyp) pair that shares pixels, sorted by gt then hyp index
    partners: dict[int, list[tuple[int, int]]] = {}
    for gi, hi, inter in zip(*(col.tolist() for col in table_intersections(gt_table, hyp_table))):
        partners.setdefault(gi, []).append((hi, inter))

    hyp_frames = _by_frame_and_class(results)
    gt_frames = _by_frame_and_class(ground_truth)
    last_assignment: dict[int, int] = {}  # gt track id -> last matched hyp id
    for frame in frames:
        hyps = hyp_frames.get(frame, {})
        gts = gt_frames.get(frame, {})
        for class_id in sorted(hyps.keys() | gts.keys()):
            h_idx = hyps.get(class_id, [])
            g_idx = gts.get(class_id, [])
            stats = report.per_class.setdefault(class_id, ClassStats())
            stats.gt_count += len(g_idx)
            matched_h: set[int] = set()
            matched_g: set[int] = set()
            for gi in g_idx:
                gt_rec = ground_truth[gi]
                for hi, inter in partners.get(gi, ()):
                    hyp_rec = results[hi]
                    if hyp_rec.class_id != class_id:
                        continue
                    # mask_iou's formula on the same ints, so the same float
                    iou = inter / (gt_area[gi] + hyp_area[hi] - inter)
                    if iou <= 0.5:
                        continue
                    # disjointness makes >0.5 partners unique; verify it
                    if gi in matched_g or hi in matched_h:
                        raise AssertionError(
                            f"frame {frame}: non-unique IOU>0.5 match for "
                            f"gt {gt_rec.track_id} / hyp {hyp_rec.track_id}"
                        )
                    matched_g.add(gi)
                    matched_h.add(hi)
                    stats.tp += 1
                    stats.soft_tp += iou
                    prev = last_assignment.get(gt_rec.track_id)
                    if prev is not None and prev != hyp_rec.track_id:
                        stats.ids += 1
                    last_assignment[gt_rec.track_id] = hyp_rec.track_id
            stats.fp += len(h_idx) - len(matched_h)
            stats.fn += len(g_idx) - len(matched_g)

    total = report.total
    for stats in report.per_class.values():
        total.gt_count += stats.gt_count
        total.tp += stats.tp
        total.soft_tp += stats.soft_tp
        total.fp += stats.fp
        total.fn += stats.fn
        total.ids += stats.ids
    return report


def format_report(report: EvalReport) -> str:
    """Render the report as an aligned text table."""
    header = f"{'class':<12}{'gt':>6}{'tp':>6}{'fp':>6}{'fn':>6}{'ids':>6}{'motsa':>9}{'smotsa':>9}"
    lines = [header]

    def row(label: str, s: ClassStats) -> str:
        return (
            f"{label:<12}{s.gt_count:>6}{s.tp:>6}{s.fp:>6}{s.fn:>6}{s.ids:>6}"
            f"{s.motsa:>9.4f}{s.smotsa:>9.4f}"
        )

    for class_id in sorted(report.per_class):
        label = CLASS_NAMES.get(class_id, f"class{class_id}")
        lines.append(row(label, report.per_class[class_id]))
    lines.append(row("total", report.total))
    return "\n".join(lines)
