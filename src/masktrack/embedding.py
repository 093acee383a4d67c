"""Instance-aware appearance embeddings and per-track feature banks.

A detection arrives with a spatial feature map aligned to its bounding box.
The instance mask is resampled onto the feature grid and turned into a
foreground/background weighting (1.0 inside the object, 0.5 outside), the
map is pooled under those weights, and the result is L2-normalized. Tracks
keep the embeddings of their earliest and most recent frames in a bank and
compare against it by pairwise maximum cosine similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, OutOfOrderFrame, ShapeMismatch
from .geometry import BBox, BinaryMask

FOREGROUND_WEIGHT = 1.0
BACKGROUND_WEIGHT = 0.5


def spatial_attention(
    mask: BinaryMask, box: BBox, grid_h: int, grid_w: int
) -> np.ndarray:
    """Resample the mask under ``box`` onto a grid of attention weights.

    Each grid cell takes the mask value at its centre by nearest-neighbor
    lookup: foreground cells weigh 1.0, background cells 0.5. Cells whose
    centre falls outside the image count as background. A cell's pixel is
    looked up in the mask's cached run ends, so the frame is never decoded.

    Args:
        mask: Instance mask in full image coordinates.
        box: Detection box the feature grid is aligned to.
        grid_h: Grid rows.
        grid_w: Grid columns.

    Returns:
        (grid_h, grid_w) float array with values in {0.5, 1.0}.
    """
    if grid_h <= 0 or grid_w <= 0:
        raise ShapeMismatch(f"grid dims must be positive, got {grid_h}x{grid_w}")
    if box.empty:
        raise DegenerateInput(f"cannot sample attention under a zero-area box: {box}")
    ys = box.y + (np.arange(grid_h) + 0.5) * box.h / grid_h
    xs = box.x + (np.arange(grid_w) + 0.5) * box.w / grid_w
    rows = np.floor(ys).astype(int)
    cols = np.floor(xs).astype(int)
    inside_r = (rows >= 0) & (rows < mask.height)
    inside_c = (cols >= 0) & (cols < mask.width)
    r_idx = np.clip(rows, 0, mask.height - 1)
    c_idx = np.clip(cols, 0, mask.width - 1)
    # column-major pixel index; the run holding it is foreground when odd
    pixels = c_idx[None, :] * mask.height + r_idx[:, None]
    odd_run = np.searchsorted(mask.run_ends, pixels, side="right") & 1
    fg = (odd_run == 1) & inside_r[:, None] & inside_c[None, :]
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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    A zero vector on either side gives 0.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    sq_a = float(a @ a)
    sq_b = float(b @ b)
    if sq_a == 0.0 or sq_b == 0.0:
        return 0.0
    sim = float(a @ b) / math.sqrt(sq_a * sq_b)
    return min(1.0, max(-1.0, sim))


@dataclass(frozen=True)
class FeatureBank:
    """Embeddings from a track's first and most recent frames, each frame once.

    ``entries`` holds distinct (frame, vector) pairs in frame order: every
    frame while there are at most ``2 * size``, then the first ``size`` and
    the last ``size``.
    """

    size: int = 5
    entries: tuple[tuple[int, np.ndarray], ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def last_frame(self) -> int | None:
        return self.entries[-1][0] if self.entries else None


def bank_update(bank: FeatureBank, emb: np.ndarray, frame: int) -> FeatureBank:
    """Add an embedding observed at ``frame``; returns a new bank.

    Frames must be strictly increasing across updates.
    """
    last = bank.last_frame
    if last is not None and frame <= last:
        raise OutOfOrderFrame(f"frame {frame} not after bank frame {last}")
    return merge_banks(bank, FeatureBank(bank.size, ((frame, emb),)))


def _max_sim_against(entries, query: np.ndarray) -> float:
    # same arithmetic as cosine_similarity, with the query norm hoisted
    q = np.asarray(query, dtype=float)
    sq_q = float(q @ q)
    best = -1.0
    for _, emb in entries:
        sq_e = float(emb @ emb)
        if sq_q == 0.0 or sq_e == 0.0:
            sim = 0.0
        else:
            sim = min(1.0, max(-1.0, float(emb @ q) / math.sqrt(sq_e * sq_q)))
        if sim > best:
            best = sim
    return best


def bank_similarity(bank: FeatureBank, query: np.ndarray) -> float:
    """Maximum cosine similarity between the query and any bank entry."""
    if len(bank) == 0:
        raise DegenerateInput("similarity against an empty feature bank")
    return _max_sim_against(bank.entries, query)


def bank_cross_similarity(a: FeatureBank, b: FeatureBank) -> float:
    """Maximum pairwise cosine similarity between two banks' entries."""
    if len(a) == 0 or len(b) == 0:
        raise DegenerateInput("cross similarity with an empty feature bank")
    return max(_max_sim_against(a.entries, eb) for _, eb in b.entries)


def merge_banks(earlier: FeatureBank, later: FeatureBank) -> FeatureBank:
    """Bank for a track stitched from an earlier and a later fragment."""
    size, entries = earlier.size, earlier.entries + later.entries
    if len(entries) > 2 * size:
        entries = entries[:size] + entries[-size:]
    return FeatureBank(size, entries)
