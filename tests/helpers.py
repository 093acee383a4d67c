"""Small builders and oracles shared by the tests."""

import base64
import json
import math
from functools import reduce
from itertools import accumulate, chain, permutations

import numpy as np

from masktrack.embedding import FeatureBank, bank_cross_similarity, bank_update, merge_banks
from masktrack.errors import DegenerateInput, OverlappingMasksInInput, ParseError, ShapeMismatch
from masktrack.formats import (
    DEFAULT_FEATURE_CHANNELS,
    ResultRecord,
    SequenceMeta,
    _floats,
    _parse_meta,
    json_number,
    json_str,
    json_whole,
    text_lines,
)
from masktrack.geometry import (
    BBox,
    BinaryMask,
    IntervalTable,
    rect_mask,
    rle_decode,
    rle_from_string,
)
from masktrack.metrics import ClassStats, EvalReport
from masktrack.regression import MAX_ITER, TOL
from masktrack.reid import moving_merge_test, static_merge_test
from masktrack.tracker import CLASS_NAMES, PEDESTRIAN, Detection, Tracklet

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


def reference_huber_fit(times, values, delta) -> tuple[float, float]:
    """The robust fit with a weighted solve in every round, unit weights
    included: the oracle for ``regression.huber_fit``."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    design = np.stack([t, np.ones_like(t)], axis=1)
    params, *_ = np.linalg.lstsq(design, v, rcond=None)
    for _ in range(MAX_ITER):
        abs_r = np.abs(v - design @ params)
        weights = np.where(abs_r <= delta, 1.0, delta / np.maximum(abs_r, 1e-300))
        sqrt_w = np.sqrt(weights)
        new_params, *_ = np.linalg.lstsq(design * sqrt_w[:, None], v * sqrt_w, rcond=None)
        change = float(np.max(np.abs(new_params - params)))
        params = new_params
        if change < TOL:
            break
    return float(params[0]), float(params[1])


def reference_interval_table(masks, slots) -> IntervalTable:
    """The interval table of ``masks`` (one or more, of one frame size) read
    from their run lists, not their cached run ends: the oracle for
    ``geometry.interval_table``. The run lists are laid end to end, each
    padded to even length with an empty foreground run, and one cumulative
    sum turns them into run ends. Adding to each mask's first run the
    distance from where the previous mask ended to its slot places every
    mask at once."""
    h, w = masks[0].height, masks[0].width
    slots = np.asarray(slots, dtype=np.int64)
    runs = np.fromiter(map(len, (m.counts for m in masks)), dtype=np.int64, count=len(masks))
    runs += runs & 1
    pad = ((), (0,))
    flat = np.fromiter(
        chain.from_iterable(chain(m.counts, pad[len(m.counts) & 1]) for m in masks),
        dtype=np.int64,
        count=int(runs.sum()),
    )
    first = np.cumsum(runs) - runs
    # each padded mask sums to h * w, so mask k would start where mask k-1 ends
    flat[first] += (np.diff(slots, prepend=-1) - 1) * (h * w)
    np.cumsum(flat, out=flat)
    # foreground run 2i+1 covers [end of run 2i, end of run 2i+1)
    starts, stops = flat[0::2], flat[1::2]
    lengths = stops - starts
    area = np.add.reduceat(lengths, first // 2)
    pairs = np.flatnonzero(lengths)  # drop the padding runs
    pairs = pairs[np.argsort(starts[pairs], kind="stable")]
    owner = np.searchsorted(first // 2, pairs, side="right") - 1
    return IntervalTable(starts[pairs], stops[pairs], owner, area)


def reference_cannot_overlap(a, b) -> bool:
    """True when ``a`` or ``b`` is empty or their extents are disjoint, so
    they certainly share no pixel: the oracle for ``geometry.may_overlap``,
    which is its negation. Raises ShapeMismatch for masks of different
    dimensions, empty ones included."""
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeMismatch(f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}")
    ea, eb = a.extent, b.extent
    return ea is None or eb is None or ea[1] < eb[0] or eb[1] < ea[0] or ea[3] < eb[2] or eb[3] < ea[2]


def reference_cut(a, b):
    """``(lengths, in_a, in_b)``: two run lists of one frame cut at each
    other's run ends, each segment with its value in ``a`` and in ``b`` (a
    leading segment may be empty)."""
    ends_a, ends_b = a.run_ends, b.run_ends
    # both are strictly increasing: merge them, then drop the ends they share
    ends = np.concatenate((ends_a, ends_b))
    ends.sort(kind="stable")
    keep = np.empty(ends.size, dtype=bool)
    keep[0] = True
    np.not_equal(ends[1:], ends[:-1], out=keep[1:])
    ends = ends[keep]
    lengths = np.diff(ends, prepend=0)
    # index of the run covering each segment; odd runs are foreground
    in_a = (np.searchsorted(ends_a, ends, side="left") & 1).astype(bool)
    in_b = (np.searchsorted(ends_b, ends, side="left") & 1).astype(bool)
    return lengths, in_a, in_b


def reference_intersection_area(a, b) -> int:
    """The pixels set in both masks, zero past the extent test, else summed
    over the run cut: the oracle for ``geometry.mask_intersection_area``."""
    if reference_cannot_overlap(a, b):
        return 0
    lengths, in_a, in_b = reference_cut(a, b)
    return int(lengths[in_a & in_b].sum())


def reference_mask_iou(a, b) -> float:
    """``mask_iou``'s formula over ``reference_intersection_area``."""
    inter = reference_intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


REFERENCE_MERGE_OPS = {
    "union": lambda x, y: x | y,
    "intersect": lambda x, y: x & y,
    "subtract": lambda x, y: x & ~y,
}


def reference_mask_merge(a, b, op):
    """A set operation on the segments of the run cut, brought to canonical
    form (empty segments dropped, equal neighbours merged, a background run
    first): the oracle for ``geometry.mask_merge``."""
    lengths, in_a, in_b = reference_cut(a, b)
    keep = lengths > 0
    fg = np.concatenate(([False], REFERENCE_MERGE_OPS[op](in_a, in_b)[keep]))
    lengths = np.concatenate(([0], lengths[keep]))
    starts = np.concatenate(([0], np.flatnonzero(fg[1:] != fg[:-1]) + 1))
    return BinaryMask(a.height, a.width, np.add.reduceat(lengths, starts).tolist())


def reference_trajectory_iou(a, b) -> float:
    """The mean of ``reference_mask_iou`` over the frames both tracks cover,
    one frame at a time, in frame order; 0 if none: the oracle for
    ``postfilter.trajectory_iou``."""
    masks_b = {o.frame: o.mask for o in b.observations}
    ious = [reference_mask_iou(o.mask, masks_b[o.frame]) for o in a.observations if o.frame in masks_b]
    if not ious:
        return 0.0
    return sum(ious) / len(ious)


def reference_dedup_tracks(tracks, cfg):
    """Every same-class pair scored by ``reference_trajectory_iou`` in one
    sweep, the shorter of each pair above the threshold dropped (on a tie,
    the higher id): the oracle for ``postfilter.dedup_tracks``."""
    alive = sorted(tracks, key=lambda t: t.id)
    doomed = set()
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            if a.class_id != b.class_id:
                continue
            if reference_trajectory_iou(a, b) <= cfg.traj_iou_threshold:
                continue
            if len(a) < len(b):
                loser = a
            elif len(b) < len(a):
                loser = b
            else:
                loser = a if a.id > b.id else b
            doomed.add(loser.id)
    return [t for t in alive if t.id not in doomed]


def attention_by_decode(mask, box, grid_h, grid_w):
    """The attention grid read cell by cell from the decoded frame: the
    reference for the run-end lookup in ``embedding.spatial_attentions``."""
    frame = rle_decode(mask)
    attn = np.full((grid_h, grid_w), 0.5)
    for i in range(grid_h):
        row = math.floor(box.y + (i + 0.5) * box.h / grid_h)
        for j in range(grid_w):
            col = math.floor(box.x + (j + 0.5) * box.w / grid_w)
            if 0 <= row < mask.height and 0 <= col < mask.width and frame[row, col]:
                attn[i, j] = 1.0
    return attn


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


def assert_holds_its_runs(mask, counts):
    """``mask`` holds read-only run ends, the exact running sums of
    ``counts`` (int64, or Python ints for a frame past int64), and its area,
    gives ``counts`` back as ints, and equals, hashes and prints as the mask
    the constructor builds from ``counts``."""
    counts = tuple(counts)
    cache = mask.__dict__
    dtype = np.int64 if mask.height * mask.width <= np.iinfo(np.int64).max else object
    assert cache["run_ends"].dtype == dtype
    assert cache["run_ends"].tolist() == list(accumulate(counts))
    assert not cache["run_ends"].flags.writeable
    assert cache["area"] == sum(counts[1::2]) and type(cache["area"]) is int
    assert mask.counts == counts and all(type(c) is int for c in mask.counts)
    rebuilt = BinaryMask(mask.height, mask.width, counts)
    assert mask == rebuilt and hash(mask) == hash(rebuilt) and repr(mask) == repr(rebuilt)


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
                if reference_intersection_area(entries[i][1], entries[j][1]) > 0:
                    rec = entries[j][0]
                    raise OverlappingMasksInInput(
                        f"{rec.source or label}: frame {frame} masks "
                        f"{entries[i][0].track_id} and {rec.track_id} overlap"
                    )
    return by_frame


def reference_evaluate(results, ground_truth):
    """Every same-frame mask pair checked and scored one at a time with
    ``reference_intersection_area`` and ``reference_mask_iou``: the oracle for
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
                    iou = reference_mask_iou(gt_mask, hyp_mask)
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


def reference_load_detections(path):
    """A detection file read one line at a time: each line's token decoded
    by ``rle_from_string`` and its map pooled by ``Detection`` as the line is
    read. The oracle for ``formats.load_detections``, raising its errors."""
    meta = None
    by_frame = {}
    channels = None
    for lineno, raw in text_lines(path, "utf-8"):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if meta is None:
            meta = _parse_meta(obj, path, lineno)
            continue
        det = _reference_detection(obj, meta, f"{path}:{lineno}")
        dim = det.embedding.size
        if channels is None:
            channels = dim
        elif dim != channels:
            raise ParseError(
                f"{path}:{lineno}: {dim} feature channels, the first detection has {channels}"
            )
        by_frame.setdefault(det.frame, []).append(det)
    if meta is None:
        raise ParseError(f"{path}: missing header line")
    return meta, {f: by_frame[f] for f in sorted(by_frame)}


def _reference_detection(obj, meta, where):
    try:
        frame = json_whole(obj["frame"], "frame")
        class_id = json_whole(obj["class_id"], "class_id")
        score = float(json_number(obj["score"], "score"))
        bx, by, bw, bh = (float(json_number(v, "bbox")) for v in obj["bbox"])
        mask_obj = obj["mask"]
        mh, mw = json_whole(mask_obj["h"], "mask.h"), json_whole(mask_obj["w"], "mask.w")
        token = json_str(mask_obj["counts"], "mask.counts")
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{where}: bad detection record ({exc})") from None
    if frame < 0:
        raise ParseError(f"{where}: frame {frame} below 0")
    if class_id not in CLASS_NAMES:
        raise ParseError(f"{where}: unknown class_id {class_id}")
    if not (0.0 <= score <= 1.0):
        raise ParseError(f"{where}: score {score} outside [0, 1]")
    if (mh, mw) != (meta.img_h, meta.img_w):
        raise ShapeMismatch(
            f"{where}: mask dims {mh}x{mw} != sequence {meta.img_h}x{meta.img_w}"
        )
    try:
        mask = rle_from_string(token, mh, mw)
    except (ParseError, ShapeMismatch) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    embedding = None
    feature_map = None
    if "embedding" in obj and obj["embedding"] is not None:
        try:
            embedding = _floats(obj["embedding"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: bad embedding ({exc})") from None
        if embedding.size == 0:
            raise ParseError(f"{where}: embedding is empty")
        if not np.isfinite(embedding).all():
            raise ParseError(f"{where}: non-finite embedding value")
    elif "feature_map" in obj and obj["feature_map"] is not None:
        fm = obj["feature_map"]
        try:
            gh, gw = json_whole(fm["gh"], "gh"), json_whole(fm["gw"], "gw")
            ch = json_whole(fm.get("c", DEFAULT_FEATURE_CHANNELS), "c")
            values = _floats(fm["values"])
        except (KeyError, TypeError, ValueError, OverflowError, ParseError) as exc:
            raise ParseError(f"{where}: bad feature_map ({exc})") from None
        if min(gh, gw, ch) < 1:
            raise ParseError(f"{where}: feature_map gh, gw and c must be >= 1, got {gh}x{gw}x{ch}")
        if values.size != gh * gw * ch:
            raise ParseError(
                f"{where}: feature_map has {values.size} values, expected {gh * gw * ch}"
            )
        if not np.isfinite(values).all():
            raise ParseError(f"{where}: non-finite feature_map value")
        feature_map = values.reshape(gh, gw, ch)
    try:
        return Detection(frame, class_id, score, BBox(bx, by, bw, bh), mask, embedding, feature_map)
    except (ValueError, DegenerateInput) as exc:
        raise ParseError(f"{where}: {exc}") from None
    except ShapeMismatch as exc:  # a frame whose positions int64 cannot hold
        raise ShapeMismatch(f"{where}: {exc}") from None


def reference_read_results(path):
    """A result file read one line at a time: each line's fields checked,
    its token decoded by ``rle_from_string`` and its record built by
    ``ResultRecord`` as the line is read. The oracle for
    ``formats.read_results``, raising its errors."""
    records = []
    seen = set()
    for lineno, raw in text_lines(path, "ascii"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        parts = line.split(" ")
        if len(parts) != 6:
            raise ParseError(f"{where}: expected 6 fields, got {len(parts)}")
        if not all(p.isdigit() for p in parts[:5]):
            raise ParseError(f"{where}: non-integer field")
        try:
            frame, track_id, class_id, img_h, img_w = (int(p) for p in parts[:5])
        except ValueError:
            raise ParseError(f"{where}: integer field too long") from None
        if class_id not in CLASS_NAMES:
            raise ParseError(f"{where}: unknown class_id {class_id}")
        if (frame, track_id) in seen:
            raise ParseError(f"{where}: duplicate (frame, track_id) {(frame, track_id)}")
        seen.add((frame, track_id))
        try:
            mask = rle_from_string(parts[5], img_h, img_w)
        except (ParseError, ShapeMismatch) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        records.append(ResultRecord(frame, track_id, class_id, img_h, img_w, parts[5], where, mask))
    return records
