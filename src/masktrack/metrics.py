"""Mask-level tracking metrics against exact ground truth.

Per frame and per class, hypothesis masks match ground-truth masks when
their IOU exceeds 0.5; because both sides are pairwise disjoint such a
partner is provably unique, and the code asserts that rather than assuming
it. An identity switch is charged when a ground-truth object's matched
hypothesis id differs from the one it was most recently assigned.

    MOTSA  = (TP - FP - IDS) / |GT|
    sMOTSA = (sum of TP IOUs - FP - IDS) / |GT|
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OverlappingMasksInInput, ShapeMismatch
from .formats import ResultRecord
from .geometry import mask_intersection_area, mask_iou
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


def _index(records: list[ResultRecord], label: str):
    """Group records by frame, decode masks, and check pairwise disjointness."""
    by_frame: dict[int, list[tuple[ResultRecord, object]]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append((rec, rec.mask()))
    for frame, entries in by_frame.items():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if mask_intersection_area(entries[i][1], entries[j][1]) > 0:
                    rec = entries[j][0]
                    raise OverlappingMasksInInput(
                        f"{rec.source or label}: frame {frame} masks "
                        f"{entries[i][0].track_id} and {rec.track_id} overlap"
                    )
    return by_frame


def evaluate(
    results: list[ResultRecord], ground_truth: list[ResultRecord]
) -> EvalReport:
    """Score a result record set against ground-truth records."""
    records = results + ground_truth
    dims = (records[0].img_h, records[0].img_w) if records else None
    for rec in records:
        if (rec.img_h, rec.img_w) != dims:
            raise ShapeMismatch(
                f"{rec.source or 'inputs'}: image dims {rec.img_h}x{rec.img_w} "
                f"differ from {dims[0]}x{dims[1]}"
            )
    hyp_frames = _index(results, "results")
    gt_frames = _index(ground_truth, "ground truth")

    report = EvalReport()
    last_assignment: dict[int, int] = {}  # gt track id -> last matched hyp id
    for frame in sorted(set(hyp_frames) | set(gt_frames)):
        hyps = hyp_frames.get(frame, [])
        gts = gt_frames.get(frame, [])
        classes = {r.class_id for r, _ in hyps} | {r.class_id for r, _ in gts}
        for class_id in sorted(classes):
            h = [(r, m) for r, m in hyps if r.class_id == class_id]
            g = [(r, m) for r, m in gts if r.class_id == class_id]
            stats = report.per_class.setdefault(class_id, ClassStats())
            stats.gt_count += len(g)
            matched_h: set[int] = set()
            matched_g: set[int] = set()
            for gi, (gt_rec, gt_mask) in enumerate(g):
                for hi, (hyp_rec, hyp_mask) in enumerate(h):
                    iou = mask_iou(gt_mask, hyp_mask)
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
            stats.fp += len(h) - len(matched_h)
            stats.fn += len(g) - len(matched_g)

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
