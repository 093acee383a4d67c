"""Small builders and oracles shared by the tests."""

import base64
from functools import reduce
from itertools import permutations

import numpy as np

from masktrack.embedding import FeatureBank, bank_cross_similarity, bank_update, merge_banks
from masktrack.errors import OverlappingMasksInInput, ParseError, ShapeMismatch
from masktrack.formats import SequenceMeta
from masktrack.geometry import BBox, mask_intersection_area, mask_iou, rect_mask
from masktrack.metrics import ClassStats, EvalReport
from masktrack.reid import moving_merge_test, static_merge_test
from masktrack.tracker import PEDESTRIAN, Detection, Tracklet

IMG_H, IMG_W = 120, 200


def unit(idx, dim=8):
    v = np.zeros(dim)
    v[idx] = 1.0
    return v


def make_det(frame, x, y, emb, class_id=PEDESTRIAN, score=0.9, w=10.0, h=20.0):
    box = BBox(x, y, w, h)
    return Detection(
        frame=frame,
        class_id=class_id,
        score=score,
        box=box,
        mask=rect_mask(IMG_H, IMG_W, box),
        embedding=np.asarray(emb, dtype=float),
    )


def matching_cost(costs, pairs):
    """Total cost of a matching; the oracle the assignment tests compare with."""
    return float(sum(costs[r, c] for r, c in pairs))


def brute_force(costs):
    """(max feasible cardinality, min total cost) by permutation enumeration."""
    costs = np.asarray(costs, dtype=float)
    n, m = costs.shape
    best = None
    # enumerate injections of the smaller side into the larger
    if n <= m:
        for perm in permutations(range(m), n):
            pairs = [(i, perm[i]) for i in range(n) if np.isfinite(costs[i, perm[i]])]
            key = (-len(pairs), sum(costs[r, c] for r, c in pairs))
            best = key if best is None or key < best else best
    else:
        for perm in permutations(range(n), m):
            pairs = [(perm[j], j) for j in range(m) if np.isfinite(costs[perm[j], j])]
            key = (-len(pairs), sum(costs[r, c] for r, c in pairs))
            best = key if best is None or key < best else best
    return -best[0], best[1]


def least_squares_fit(times, values) -> tuple[float, float]:
    """Ordinary least-squares line fit, (slope, intercept): the oracle the
    robust fit is compared with, computed as the robust fit's first step."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    design = np.stack([t, np.ones_like(t)], axis=1)
    params, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(params[0]), float(params[1])


def packed(values) -> str:
    """The packed form of a float array, as the detection-file format defines
    it: standard base64 of the values as little-endian float64, in C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def make_meta(name="seq", fps=25.0, camera_mode="static"):
    return SequenceMeta(name, fps, IMG_H, IMG_W, camera_mode)


def make_tracklet(track_id, positions, emb, class_id=PEDESTRIAN, score=0.9, w=10.0, h=20.0):
    """positions: list of (frame, x, y)."""
    obs = []
    bank = FeatureBank(5)
    for frame, x, y in positions:
        box = BBox(x, y, w, h)
        obs.append(Detection(frame, class_id, score, box, rect_mask(IMG_H, IMG_W, box),
                             np.asarray(emb, dtype=float)))
        bank = bank_update(bank, obs[-1].embedding, frame)
    return Tracklet(track_id, class_id, obs, bank)


def token_counts(token: str) -> list[int]:
    """The run lengths a mask token holds, read one character at a time: the
    oracle for ``geometry.rle_from_string``, raising its ParseErrors."""
    counts: list[int] = []
    pos = 0
    n = len(token)
    while pos < n:
        x = 0
        shift = 0
        more = True
        while more:
            if pos >= n:
                raise ParseError(f"token truncated at character {pos}")
            chunk = ord(token[pos]) - 48
            if chunk < 0 or chunk > 63:
                raise ParseError(f"invalid character {token[pos]!r} at {pos}")
            x |= (chunk & 0x1F) << shift
            more = bool(chunk & 0x20)
            pos += 1
            shift += 5
            if not more and (chunk & 0x10):
                x |= -1 << shift
        if len(counts) > 2:
            x += counts[-2]
        counts.append(x)
    return counts


def counts_token(counts) -> str:
    """The token of a run list, written one value and character at a time:
    the oracle for ``geometry.rle_to_string``."""
    out = []
    for i, c in enumerate(counts):
        x = c - counts[i - 2] if i > 2 else c
        more = True
        while more:
            chunk = x & 0x1F
            x >>= 5
            more = (x != -1) if (chunk & 0x10) else (x != 0)
            if more:
                chunk |= 0x20
            out.append(chr(chunk + 48))
    return "".join(out)


def reference_candidate_pairs(tracklets, cfg, fps):
    """Every ordered pair tested one condition at a time: the oracle for
    ``reid.candidate_pairs``."""
    pairs = []
    for i, u in enumerate(tracklets):
        for j, v in enumerate(tracklets):
            if i == j or u.class_id != v.class_id:
                continue
            if u.last_frame >= v.first_frame:
                continue
            gap = v.first_frame - u.last_frame - 1
            if gap > cfg.n2_frames(u.class_id, fps):
                continue
            sim = bank_cross_similarity(u.bank, v.bank)
            if sim > cfg.beta1:
                pairs.append((i, j, sim))
    return pairs


def reference_merge_pass(tracklets, cfg, tracker_cfg):
    """Greedy merging with separate used-tail, used-head and merged-away sets
    and a re-sort after every pass: the oracle for ``reid.merge_pass``."""
    current = sorted(tracklets, key=lambda t: t.id)
    while True:
        cands = sorted(
            (-sim, current[i].id, current[j].id, i, j)
            for i, j, sim in reference_candidate_pairs(current, cfg, tracker_cfg.fps)
        )
        tail_used, head_used, links = set(), set(), {}
        for _, _, _, i, j in cands:
            if i in tail_used or j in head_used:
                continue
            if cfg.camera_mode == "static":
                ok = static_merge_test(current[i], current[j], cfg, tracker_cfg)
            else:
                ok = moving_merge_test(current[i], current[j], cfg)
            if ok:
                links[i] = j
                tail_used.add(i)
                head_used.add(j)
        if not links:
            return current
        merged_away = set(links.values())
        result = []
        for idx, tr in enumerate(current):
            if idx in merged_away:
                continue
            if idx in links:
                chain = [tr]
                k = idx
                while k in links:
                    k = links[k]
                    chain.append(current[k])
                result.append(Tracklet(
                    tr.id,
                    tr.class_id,
                    [o for p in chain for o in p.observations],
                    reduce(merge_banks, (p.bank for p in chain)),
                ))
            else:
                result.append(tr)
        current = sorted(result, key=lambda t: t.id)


def _reference_index(records, label):
    """Group records by frame, decode masks, and check pairwise disjointness."""
    by_frame = {}
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


def reference_evaluate(results, ground_truth):
    """Every same-frame mask pair checked and scored one at a time with
    ``mask_intersection_area`` and ``mask_iou``: the oracle for
    ``metrics.evaluate``, raising its errors for overlaps and mixed dims."""
    records = results + ground_truth
    dims = (records[0].img_h, records[0].img_w) if records else None
    for rec in records:
        if (rec.img_h, rec.img_w) != dims:
            raise ShapeMismatch(
                f"{rec.source or 'inputs'}: image dims {rec.img_h}x{rec.img_w} "
                f"differ from {dims[0]}x{dims[1]}"
            )
    hyp_frames = _reference_index(results, "results")
    gt_frames = _reference_index(ground_truth, "ground truth")

    report = EvalReport()
    last_assignment = {}  # gt track id -> last matched hyp id
    for frame in sorted(set(hyp_frames) | set(gt_frames)):
        hyps = hyp_frames.get(frame, [])
        gts = gt_frames.get(frame, [])
        classes = {r.class_id for r, _ in hyps} | {r.class_id for r, _ in gts}
        for class_id in sorted(classes):
            h = [(r, m) for r, m in hyps if r.class_id == class_id]
            g = [(r, m) for r, m in gts if r.class_id == class_id]
            stats = report.per_class.setdefault(class_id, ClassStats())
            stats.gt_count += len(g)
            matched_h, matched_g = set(), set()
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
