"""Instance-aware appearance embeddings and per-track feature banks.

A detection arrives with a spatial feature map aligned to its bounding box.
The instance mask is resampled onto the feature grid and turned into a
foreground/background weighting (1.0 inside the object, 0.5 outside), the
map is pooled under those weights, and the result is L2-normalized. The
masks of many detections on one grid size are resampled together, in one
lookup over all their foreground intervals (:func:`spatial_attentions`). Tracks
keep the embeddings of their earliest and most recent frames in a bank, one
stacked row per frame.

One cosine kernel, :func:`_max_cosine`, computes every similarity in the
package: vector against vector, banks against detections, bank against
bank, and the motion-direction check of re-identification. It reduces per
block of rows, so the rows of many banks can be stacked and meet their
detections in one call (:func:`bank_similarities`), or another bank's rows
(:func:`bank_cross_similarities`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import DegenerateInput, OutOfOrderFrame, ShapeMismatch
from .geometry import BBox, BinaryMask, foreground_intervals, slot_capacity

FOREGROUND_WEIGHT = 1.0
BACKGROUND_WEIGHT = 0.5


def spatial_attention(
    mask: BinaryMask, box: BBox, grid_h: int, grid_w: int
) -> np.ndarray:
    """Resample the mask under ``box`` onto a grid of attention weights.

    Each grid cell takes the mask value at its centre by nearest-neighbor
    lookup: foreground cells weigh 1.0, background cells 0.5. Cells whose
    centre falls outside the image count as background. A cell's pixel is
    looked up in the mask's run ends, so the frame is never decoded.
    The one-mask case of :func:`spatial_attentions`.

    Args:
        mask: Instance mask in full image coordinates.
        box: Detection box the feature grid is aligned to.
        grid_h: Grid rows.
        grid_w: Grid columns.

    Returns:
        (grid_h, grid_w) float array with values in {0.5, 1.0}.
    """
    return spatial_attentions([mask], [box], grid_h, grid_w)[0]


def spatial_attentions(
    masks: list[BinaryMask], boxes: list[BBox], grid_h: int, grid_w: int
) -> np.ndarray:
    """The attention grid of each mask under its box, all on one grid size.

    Returns a ``(len(masks), grid_h, grid_w)`` array whose entry ``k`` is
    ``spatial_attention(masks[k], boxes[k], grid_h, grid_w)``, bit for bit:
    each cell goes through the same float operations. The masks'
    :func:`~masktrack.geometry.foreground_intervals` are laid end to end,
    mask ``k``'s shifted by the pixels of the masks before it, and one
    ``searchsorted`` finds the interval that may hold each cell. The
    masks go in blocks of :func:`slot_capacity` of the largest frame, so
    every shifted position fits in int64. Lists of unequal length, and a
    frame of more pixels than int64 positions hold, raise ShapeMismatch.
    """
    if len(masks) != len(boxes):
        raise ShapeMismatch(f"{len(masks)} masks but {len(boxes)} boxes")
    if grid_h <= 0 or grid_w <= 0:
        raise ShapeMismatch(f"grid dims must be positive, got {grid_h}x{grid_w}")
    for box in boxes:
        if box.empty:
            raise DegenerateInput(f"cannot sample attention under a zero-area box: {box}")
    if not masks:
        return np.zeros((0, grid_h, grid_w))
    largest = max(masks, key=lambda m: m.height * m.width)
    block = slot_capacity(largest.height, largest.width)
    if not block:
        raise ShapeMismatch(
            f"a {largest.height}x{largest.width} mask has more pixels than int64 positions hold"
        )
    return np.concatenate([
        _attention_block(masks[lo : lo + block], boxes[lo : lo + block], grid_h, grid_w)
        for lo in range(0, len(masks), block)
    ])


def _attention_block(
    masks: list[BinaryMask], boxes: list[BBox], grid_h: int, grid_w: int
) -> np.ndarray:
    y, x, box_h, box_w = np.array([(b.y, b.x, b.h, b.w) for b in boxes], dtype=float).T[:, :, None]
    ys = y + (np.arange(grid_h) + 0.5) * box_h / grid_h
    xs = x + (np.arange(grid_w) + 0.5) * box_w / grid_w
    rows = np.floor(ys).astype(int)  # (n, grid_h)
    cols = np.floor(xs).astype(int)  # (n, grid_w)
    height = np.array([m.height for m in masks])[:, None]
    width = np.array([m.width for m in masks])[:, None]
    inside_r = (rows >= 0) & (rows < height)
    inside_c = (cols >= 0) & (cols < width)
    r_idx = np.clip(rows, 0, height - 1)
    c_idx = np.clip(cols, 0, width - 1)
    # column-major pixel index, shifted to its mask's place on the joint axis
    size = (height * width)[:, 0]
    shift = np.cumsum(size) - size
    pixels = c_idx[:, None, :] * height[:, :, None] + r_idx[:, :, None]
    pixels += shift[:, None, None]
    starts, stops, owner = foreground_intervals(masks, np.arange(len(masks)))
    starts += shift[owner]
    # a pixel is foreground when the last interval starting at or before it
    # stops after it; index -1, before every interval, reads the appended 0
    stops = np.append(stops + shift[owner], 0)
    last = np.searchsorted(starts, pixels, side="right") - 1
    fg = (stops[last] > pixels) & inside_r[:, :, None] & inside_c[:, None, :]
    return np.where(fg, FOREGROUND_WEIGHT, BACKGROUND_WEIGHT)


def l2_normalize(vec: np.ndarray) -> np.ndarray:
    """Return the unit vector; the zero vector is returned unchanged."""
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return vec
    return vec / norm


def instance_aware_pool(fmap: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """Attention-weighted average pooling over a (gh, gw, c) feature map.

    The pooled vector is L2-normalized; an all-zero pool is returned as is.
    """
    fmap = np.asarray(fmap, dtype=float)
    attn = np.asarray(attn, dtype=float)
    if fmap.ndim != 3:
        raise ShapeMismatch(f"feature map must be (gh, gw, c), got {fmap.shape}")
    if fmap.shape[:2] != attn.shape:
        raise ShapeMismatch(
            f"feature grid {fmap.shape[:2]} does not match attention {attn.shape}"
        )
    weights = attn[:, :, None]
    return l2_normalize((fmap * weights).sum(axis=(0, 1)) / attn.sum())


def _as_row(vec) -> np.ndarray:
    """``vec`` as a (1, d) float array; an embedding that is not 1-D is refused."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise ShapeMismatch(f"an embedding must be 1-D, got shape {vec.shape}")
    return vec[None, :]


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return (rows * rows).sum(axis=-1)


def _max_cosine(
    a: np.ndarray, sq_a: np.ndarray, b: np.ndarray, sq_b: np.ndarray, blocks=(0,)
) -> np.ndarray:
    """For each block of rows of ``a``, each row of ``b``'s largest cosine with
    a row of the block, clamped to [-1, 1].

    ``blocks`` holds the index of each block's first row, increasing from 0,
    and no block is empty; by default all of ``a`` is one block. ``sq_a`` and
    ``sq_b`` are the rows' squared norms; a zero row scores 0.0. Returns a
    ``(len(blocks), len(b))`` array. A dot product is an elementwise product
    summed over the last axis, not a matmul, so a pair's value does not
    depend on the other rows stacked with it.
    """
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"embedding widths differ: {a.shape[1]} vs {b.shape[1]}")
    dots = (a[:, None, :] * b[None, :, :]).sum(axis=-1)
    norms = np.sqrt(np.multiply.outer(sq_a, sq_b))
    norms[norms == 0.0] = np.inf  # 0 / inf = 0
    dots /= norms
    # clamping is monotone, so clamping the max equals the max of the clamps
    return np.clip(np.maximum.reduceat(dots, blocks, axis=0), -1.0, 1.0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]; 0.0 for a zero vector."""
    a, b = _as_row(a), _as_row(b)
    return float(_max_cosine(a, _sq_norms(a), b, _sq_norms(b))[0, 0])


@dataclass(frozen=True)
class FeatureBank:
    """Embeddings from a track's first and most recent frames, each frame once.

    ``frames`` holds distinct frames in increasing order and ``rows`` their
    embeddings stacked, one row each: every frame while there are at most
    ``2 * size``, then the first ``size`` and the last ``size``.
    """

    size: int = 5
    frames: tuple[int, ...] = ()
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return len(self.frames)

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Squared norm of each row; cached, since the bank is frozen."""
        return _sq_norms(self.rows)


def bank_update(bank: FeatureBank, emb: np.ndarray, frame: int) -> FeatureBank:
    """Add a 1-D embedding observed at ``frame``; returns a new bank.

    Frames must be strictly increasing and widths equal across updates.
    """
    row = _as_row(emb)
    if bank.frames:
        if frame <= bank.frames[-1]:
            raise OutOfOrderFrame(f"frame {frame} not after bank frame {bank.frames[-1]}")
        if row.size != bank.rows.shape[1]:
            raise ShapeMismatch(f"embedding width {row.size} != bank width {bank.rows.shape[1]}")
    return merge_banks(bank, FeatureBank(bank.size, (frame,), row))


def bank_similarities(banks: list[FeatureBank], queries: np.ndarray) -> np.ndarray:
    """Maximum cosine similarity between each query and any row of each bank.

    ``queries`` is an ``(n, d)`` stack; the result is a ``(len(banks), n)``
    array. The banks' rows are stacked and meet the queries in one cosine
    call, reduced per bank, so entry ``(k, j)`` equals the one bank ``k``
    and query ``j`` alone give.
    """
    sizes = [len(bank) for bank in banks]
    if 0 in sizes:
        raise DegenerateInput("similarity against an empty feature bank")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2:
        raise ShapeMismatch(f"queries must be an (n, d) stack, got shape {q.shape}")
    if not banks:
        return np.zeros((0, len(q)))
    widths = {bank.rows.shape[1] for bank in banks}
    if len(widths) > 1:
        raise ShapeMismatch(f"bank widths differ: {sorted(widths)}")
    rows = np.concatenate([bank.rows for bank in banks])
    sq_rows = np.concatenate([bank.sq_norms for bank in banks])
    blocks = list(accumulate(sizes[:-1], initial=0))  # each bank's first row
    return _max_cosine(rows, sq_rows, q, _sq_norms(q), blocks)


def bank_similarity(bank: FeatureBank, queries: np.ndarray) -> np.ndarray:
    """Maximum cosine similarity between each query and any bank row.

    ``queries`` is an ``(n, d)`` stack; the result is an ``(n,)`` array, entry
    ``j`` equal to the one a stack of query ``j`` alone gives. The one-bank
    case of :func:`bank_similarities`.
    """
    return bank_similarities([bank], queries)[0]


def bank_cross_similarities(bank: FeatureBank, banks: list[FeatureBank]) -> np.ndarray:
    """Maximum pairwise cosine similarity between ``bank``'s rows and each bank's rows.

    The result is a ``(len(banks),)`` array. The banks' rows are stacked and
    meet ``bank``'s rows in one cosine call, reduced per bank, so entry ``k``
    equals the one bank ``k`` alone gives, bit for bit (a maximum is exact).
    """
    sizes = [len(other) for other in banks]
    if len(bank) == 0 or 0 in sizes:
        raise DegenerateInput("cross similarity with an empty feature bank")
    if not banks:
        return np.zeros(0)
    widths = {other.rows.shape[1] for other in banks}
    if len(widths) > 1:
        raise ShapeMismatch(f"bank widths differ: {sorted(widths)}")
    rows = np.concatenate([other.rows for other in banks])
    sq_rows = np.concatenate([other.sq_norms for other in banks])
    # each stacked row's largest cosine with a row of ``bank``, then each bank's largest
    best = _max_cosine(bank.rows, bank.sq_norms, rows, sq_rows)[0]
    return np.maximum.reduceat(best, list(accumulate(sizes[:-1], initial=0)))


def bank_cross_similarity(a: FeatureBank, b: FeatureBank) -> float:
    """Maximum pairwise cosine similarity between two banks' rows. The
    one-bank case of :func:`bank_cross_similarities`."""
    return float(bank_cross_similarities(a, [b])[0])


def merge_banks(earlier: FeatureBank, later: FeatureBank) -> FeatureBank:
    """Bank for a track stitched from an earlier and a later fragment."""
    size, frames = earlier.size, earlier.frames + later.frames
    parts = [bank.rows for bank in (earlier, later) if bank.frames]
    rows = np.concatenate(parts) if parts else earlier.rows
    if len(frames) > 2 * size:
        frames = frames[:size] + frames[-size:]
        rows = np.concatenate((rows[:size], rows[-size:]))
    return FeatureBank(size, frames, rows)
