"""Binary instance masks stored as column-major run-length encodings.

Masks are immutable. The run list always starts with a background run
(possibly of length zero), alternates background/foreground, and sums to
``height * width``. Every two-mask operation (intersection area, the set
operations) goes through one run cut, :func:`_cut`, which works on the
cumulative run ends each mask caches, so its cost scales with the number of
runs rather than the number of pixels. IOU is the intersection area over
the two cached areas less it. Every computed run list is brought to
canonical form by one function, :func:`_from_segments`.

Most mask pairs a tracker or an evaluator meets lie far apart. Each mask
also caches its foreground extent (the columns and rows it spans), and
:func:`cannot_overlap` compares two extents: when they are disjoint, or a
mask is empty, the masks share no pixel, so IOU and intersection area are
zero without a cut. The test is exact; it never rules out a pair that
touches. :func:`may_overlap` is the same test over two lists of masks at
once, one broadcast over their extent arrays.

Scoring a whole sequence compares many masks at once, and goes through one
structure instead of a pair loop: an :class:`IntervalTable` holds the
foreground intervals of a list of masks, each mask placed in the block of
pixel positions of its slot (its frame), sorted by start. Neighbouring
intervals show whether a slot's masks overlap (:func:`overlapping_masks`),
and two disjoint tables merge by binary search into the exact intersection
area of every pair that shares pixels (:func:`table_intersections`).

Building a mask coerces its fields with ``operator.index`` (a float or a
str is refused) and checks the run list with ``min``, ``in`` and ``sum``;
only a run list that fails is walked, to name the bad index. The compressed
token codec (:func:`rle_from_string`, :func:`rle_to_string`) has no loop
per character: a token is checked with one regex search, its one-character
values are read through a translation table into a signed-byte array, only
longer values are decoded in Python, and the delta chains are undone with
``itertools.accumulate``. Encoding looks the characters of each small delta
up in a table. Non-canonical tokens, with needless continuation characters,
decode as the shortest form would.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ShapeMismatch


def _integer(value, what: str) -> int:
    """``operator.index(value)``: an int or numpy integer, never a float or str."""
    try:
        return operator.index(value)
    except TypeError:
        raise ShapeMismatch(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class BinaryMask:
    """Run-length encoded binary mask.

    Attributes:
        height: Image height in pixels.
        width: Image width in pixels.
        counts: Run lengths in column-major pixel order, background first.
    """

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "height", _integer(self.height, "mask height"))
        object.__setattr__(self, "width", _integer(self.width, "mask width"))
        if self.height <= 0 or self.width <= 0:
            raise ShapeMismatch(f"mask dims must be positive, got {self.height}x{self.width}")
        try:
            counts = tuple(map(operator.index, self.counts))
        except TypeError:  # name the first run that is not an integer
            counts = tuple(_integer(c, f"run length at index {i}") for i, c in enumerate(self.counts))
        object.__setattr__(self, "counts", counts)
        if min(counts, default=0) < 0 or 0 in counts[1:]:
            # name the first bad run
            for i, c in enumerate(counts):
                if c < 0:
                    raise ShapeMismatch(f"negative run length {c} at index {i}")
                if c == 0 and i > 0:
                    raise ShapeMismatch(f"zero-length run at index {i} (non-canonical)")
        total = sum(counts)
        if total != self.height * self.width:
            raise ShapeMismatch(f"counts sum {total} != {self.height}*{self.width}")

    @cached_property
    def area(self) -> int:
        """Number of foreground pixels; cached like :attr:`run_ends`."""
        return sum(self.counts[1::2])

    @cached_property
    def run_ends(self) -> np.ndarray:
        """Cumulative run ends: run ``i`` covers pixels up to ``run_ends[i]``.

        Cached on first use; the mask is frozen, so the cache cannot go stale.
        """
        return np.cumsum(self.counts)

    @cached_property
    def extent(self) -> tuple[int, int, int, int] | None:
        """``(col_min, col_max, row_min, row_max)`` of the foreground, inclusive.

        ``None`` for an empty mask. Cached like :attr:`run_ends`.
        """
        ends = self.run_ends
        # odd runs are foreground; a canonical run list has no empty one
        last = ends[1::2] - 1
        if not last.size:
            return None
        first = ends[0::2][: last.size]
        h = self.height
        col_first, col_last = first // h, last // h
        if (col_last > col_first).any():
            # a run that wraps past a column reaches both the last row and the first
            row_min, row_max = 0, h - 1
        else:
            row_min, row_max = int((first % h).min()), int((last % h).max())
        return int(col_first[0]), int(col_last[-1]), row_min, row_max


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y), width w, height h."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite bbox field {name}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative bbox size {self.w}x{self.h}")

    @property
    def empty(self) -> bool:
        return self.w <= 0 or self.h <= 0

    @property
    def area(self) -> float:
        return self.w * self.h


# ---------------------------------------------------------------------------
# pixel-grid codec
# ---------------------------------------------------------------------------

def rle_decode(mask: BinaryMask) -> np.ndarray:
    """Expand a mask to a dense height x width uint8 grid."""
    values = np.arange(len(mask.counts), dtype=np.uint8) & 1
    flat = np.repeat(values, mask.counts)
    return flat.reshape((mask.height, mask.width), order="F")


def rle_encode(grid: np.ndarray) -> BinaryMask:
    """Encode a dense 2-D {0,1} grid into canonical run lengths.

    Inverse of :func:`rle_decode`: ``rle_decode(rle_encode(g))`` equals ``g``.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ShapeMismatch(f"grid must be 2-D, got shape {grid.shape}")
    h, w = grid.shape
    flat = grid.ravel(order="F") != 0
    # one segment per run of equal pixels, not per pixel
    starts = np.flatnonzero(np.diff(flat, prepend=~flat[:1]))
    return _from_segments(h, w, flat[starts], np.diff(starts, append=flat.size))


# ---------------------------------------------------------------------------
# compressed string codec
# ---------------------------------------------------------------------------
# Counts are delta-coded (each count from the fourth onward is stored relative
# to the count two positions back) and written LEB128-style: 5 value bits per
# character, low bits first, bit 6 as the continuation flag, all offset by 48
# so tokens stay printable ASCII. Negative deltas rely on sign extension.

_BAD_CHAR = re.compile(r"[^0-o]")
# a value of two or more characters: continuation characters, then a last one
_LONG_VALUE = re.compile(rb"[P-o]+[0-O]")
# the value of each character that ends a value, '0'..'O', as a signed byte
_SHORT_VALUES = bytes.maketrans(
    bytes(range(48, 80)), bytes((c - 32 if c & 0x10 else c) & 0xFF for c in range(32))
)


def _encode_value(x: int) -> str:
    out = []
    more = True
    while more:
        chunk = x & 0x1F
        x >>= 5
        more = (x != -1) if (chunk & 0x10) else (x != 0)
        if more:
            chunk |= 0x20
        out.append(chr(chunk + 48))
    return "".join(out)


def _decode_value(chars: bytes) -> int:
    x = 0
    for shift, c in zip(range(0, 5 * len(chars), 5), chars):
        x |= ((c - 48) & 0x1F) << shift
    if (chars[-1] - 48) & 0x10:
        x -= 1 << (5 * len(chars))
    return x


class _Codes(dict):
    """The characters of every value below 2**9 in magnitude, which is nearly
    every delta; a larger value is encoded when it is looked up, not kept."""

    def __missing__(self, x: int) -> str:
        return _encode_value(x)


_CODES = _Codes((x, _encode_value(x)) for x in range(1 - (1 << 9), 1 << 9))


def rle_to_string(mask: BinaryMask) -> str:
    """Serialize run lengths to the compact printable token."""
    counts = mask.counts
    deltas = map(operator.sub, counts[3:], counts[1:])
    return "".join(map(_CODES.__getitem__, chain(counts[:3], deltas)))


def rle_from_string(token: str, height: int, width: int) -> BinaryMask:
    """Parse a compact token back into a mask of the given dimensions.

    A non-canonical value (``"P0"`` for 0) decodes like any other.
    """
    bad = _BAD_CHAR.search(token)
    if bad:
        raise ParseError(f"invalid character {bad.group()!r} at {bad.start()}")
    if token[-1:] >= "P":
        raise ParseError(f"token truncated at character {len(token)}")
    raw = token.encode("ascii")
    values = array("b", raw.translate(_SHORT_VALUES))
    spans = [m.span() for m in _LONG_VALUE.finditer(raw)]
    if spans:
        short, values, prev = values, [], 0
        for start, end in spans:
            values += short[prev:start]
            values.append(_decode_value(raw[start:end]))
            prev = end
        values += short[prev:]
    # undo the delta coding: the odd counts and the even ones from the third
    # are running sums of their own chain
    counts = list(values)
    counts[1::2] = accumulate(values[1::2])
    counts[2::2] = accumulate(values[2::2])
    return BinaryMask(height, width, counts)


# ---------------------------------------------------------------------------
# run-level set operations
# ---------------------------------------------------------------------------

def _check_dims(a: BinaryMask, b: BinaryMask):
    if a.height != b.height or a.width != b.width:
        raise ShapeMismatch(
            f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def cannot_overlap(a: BinaryMask, b: BinaryMask) -> bool:
    """True when ``a`` and ``b`` certainly share no pixel.

    That is when either mask is empty or their extents are disjoint. A
    False answer promises nothing: the masks may still be disjoint. Raises
    ShapeMismatch for masks of different dimensions, empty ones included.
    """
    _check_dims(a, b)
    ea, eb = a.extent, b.extent
    return (
        ea is None
        or eb is None
        or ea[1] < eb[0]
        or eb[1] < ea[0]
        or ea[3] < eb[2]
        or eb[3] < ea[2]
    )


# the extent row of an empty mask: its first column and row lie past every last one
_NO_EXTENT = (np.inf, -np.inf, np.inf, -np.inf)


def _extent_rows(masks: list[BinaryMask]) -> np.ndarray:
    return np.array([m.extent or _NO_EXTENT for m in masks], dtype=float).reshape(-1, 4)


def may_overlap(a: list[BinaryMask], b: list[BinaryMask], pairs: np.ndarray) -> np.ndarray:
    """``not cannot_overlap(a[i], b[j])`` for every pair asked about, by broadcast.

    ``pairs`` is a ``(len(a), len(b))`` boolean array of the pairs asked
    about; the result is False outside it. Raises ShapeMismatch when a pair
    asked about has masks of different dimensions, empty ones included, as
    :func:`cannot_overlap` does.
    """
    dims_a = np.array([(m.height, m.width) for m in a]).reshape(-1, 2)
    dims_b = np.array([(m.height, m.width) for m in b]).reshape(-1, 2)
    differ = pairs & (dims_a[:, None, :] != dims_b[None, :, :]).any(axis=-1)
    if differ.any():
        i, j = np.argwhere(differ)[0]
        _check_dims(a[i], b[j])
    ea = _extent_rows(a).T[:, :, None]  # (4, len(a), 1): one plane per bound
    eb = _extent_rows(b).T[:, None, :]
    return pairs & (eb[0] <= ea[1]) & (ea[0] <= eb[1]) & (eb[2] <= ea[3]) & (ea[2] <= eb[3])


def _cut(a: BinaryMask, b: BinaryMask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut two run lists of equal dimensions at each other's boundaries.

    Every resulting segment has one value per mask, so intersection, union
    and the set operations reduce to integer sums or boolean ops over
    segments. Returns ``(lengths, in_a, in_b)``: the segment lengths (a
    leading one may be empty) and, for each segment, whether it is
    foreground in ``a`` and in ``b``.
    """
    ends_a, ends_b = a.run_ends, b.run_ends
    # both are strictly increasing: merge them, then drop the ends they share
    ends = np.concatenate((ends_a, ends_b))
    ends.sort(kind="stable")  # timsort finds the two sorted runs and merges them
    keep = np.empty(ends.size, dtype=bool)
    keep[0] = True
    np.not_equal(ends[1:], ends[:-1], out=keep[1:])
    ends = ends[keep]
    lengths = np.diff(ends, prepend=0)
    # index of the run covering each segment; odd runs are foreground
    in_a = (np.searchsorted(ends_a, ends, side="left") & 1).astype(bool)
    in_b = (np.searchsorted(ends_b, ends, side="left") & 1).astype(bool)
    return lengths, in_a, in_b


def _from_segments(height: int, width: int, fg: np.ndarray, lengths: np.ndarray) -> BinaryMask:
    """Canonical mask from consecutive segments and their foreground flags.

    Empty segments are dropped and equal neighbours merged. A zero-length
    background segment goes in front, so the run list starts with a
    background run, empty when the first pixel is foreground.
    """
    keep = lengths > 0
    fg = np.concatenate(([False], fg[keep]))
    lengths = np.concatenate(([0], lengths[keep]))
    starts = np.concatenate(([0], np.flatnonzero(fg[1:] != fg[:-1]) + 1))
    return BinaryMask(height, width, np.add.reduceat(lengths, starts).tolist())


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two masks, computed on the runs.

    The union is the two cached areas less the intersection. Returns 0.0
    when the masks share no pixel, so also when the union is empty.
    """
    inter = mask_intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def mask_intersection_area(a: BinaryMask, b: BinaryMask) -> int:
    """Number of pixels set in both masks."""
    if cannot_overlap(a, b):
        return 0
    lengths, in_a, in_b = _cut(a, b)
    return int(lengths[in_a & in_b].sum())


# ---------------------------------------------------------------------------
# many-mask interval tables
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def slot_capacity(height: int, width: int) -> int:
    """How many ``height x width`` frames an interval table can hold.

    A table places the masks of slot ``s`` at pixel positions from
    ``s * height * width`` onward, and every position must fit in int64.
    """
    return _INT64_MAX // (height * width)


class IntervalTable(NamedTuple):
    """The foreground intervals of many masks laid out on one position axis.

    Interval ``k`` covers positions ``[starts[k], stops[k])`` and belongs to
    mask ``owner[k]``; ``area[m]`` is the foreground pixel count of mask
    ``m``, one entry per mask the table was built from. The intervals are
    sorted by start; those of one mask never overlap.
    """

    starts: np.ndarray
    stops: np.ndarray
    owner: np.ndarray
    area: np.ndarray


def interval_table(masks: list[BinaryMask], slots: list[int]) -> IntervalTable:
    """Build the interval table of ``masks``, mask ``k`` placed in ``slots[k]``.

    Masks in one slot share positions, so their intervals can overlap; masks
    in different slots never meet. All masks must have the same dimensions.
    The run lists are read in one pass: they are laid end to end, each padded
    to even length with an empty foreground run, and one cumulative sum turns
    them into run ends. Adding to each mask's first run the distance from
    where the previous mask ended to its slot places every mask at once.
    Raises ShapeMismatch for mixed dimensions, or for a slot past
    :func:`slot_capacity`.
    """
    if not masks:
        empty = np.zeros(0, dtype=np.int64)
        return IntervalTable(empty, empty, empty, empty)
    for m in masks:
        _check_dims(masks[0], m)
    h, w = masks[0].height, masks[0].width
    slots = np.asarray(slots, dtype=np.int64)
    capacity = slot_capacity(h, w)
    if slots.min() < 0 or slots.max() >= capacity:
        raise ShapeMismatch(
            f"slots {slots.min()}..{slots.max()} outside the {capacity} frames of "
            f"{h}x{w} pixels that int64 positions hold"
        )
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
    del lengths
    pairs = pairs[np.argsort(starts[pairs], kind="stable")]
    starts, stops = starts[pairs], stops[pairs]
    del flat
    owner = np.searchsorted(first // 2, pairs, side="right") - 1
    return IntervalTable(starts, stops, owner, area)


def overlapping_masks(table: IntervalTable) -> np.ndarray:
    """Owners of the intervals that start before the previous one stops.

    Empty exactly when the table's masks are pairwise disjoint: the
    intervals are sorted by start, so any overlap shows between neighbours.
    Both neighbours of such a pair lie in one slot.
    """
    return table.owner[1:][table.starts[1:] < table.stops[:-1]]


def table_intersections(
    a: IntervalTable, b: IntervalTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, area)`` for every mask ``i`` of ``a`` and ``j`` of ``b`` that share pixels.

    ``area`` is the exact pixel count ``mask_intersection_area`` gives; rows
    are sorted by ``(i, j)``. Both tables must be disjoint (no
    :func:`overlapping_masks`): then their stops are sorted too, and the
    intervals of ``b`` meeting one interval of ``a`` are a contiguous range
    found by two binary searches.
    """
    # the pair arrays are the largest an evaluation allocates, so each
    # temporary is updated in place or dropped as soon as it is used
    lo = np.searchsorted(b.stops, a.starts, side="right")
    hits = np.searchsorted(b.starts, a.stops, side="left")
    hits -= lo
    ai = np.repeat(np.arange(a.starts.size), hits)
    # the k-th hit of interval ai is interval lo[ai] + k of b
    lo -= np.cumsum(hits) - hits
    bi = np.repeat(lo, hits)
    del lo, hits
    bi += np.arange(bi.size)
    area = np.minimum(a.stops[ai], b.stops[bi])
    area -= np.maximum(a.starts[ai], b.starts[bi])
    n = b.area.size
    key = a.owner[ai]
    del ai
    key *= n
    key += b.owner[bi]
    del bi
    order = np.argsort(key, kind="stable")
    key, area = key[order], area[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[first]
    return key // n, key % n, np.add.reduceat(area, first)


_MERGE_OPS = {
    "union": lambda x, y: x | y,
    "intersect": lambda x, y: x & y,
    "subtract": lambda x, y: x & ~y,
}


def mask_merge(a: BinaryMask, b: BinaryMask, op: str) -> BinaryMask:
    """Combine two masks; ``op`` is one of 'union', 'intersect', 'subtract'."""
    _check_dims(a, b)
    if op not in _MERGE_OPS:
        raise ValueError(f"unknown op {op!r}")
    lengths, in_a, in_b = _cut(a, b)
    return _from_segments(a.height, a.width, _MERGE_OPS[op](in_a, in_b), lengths)


def bbox_iou(a: BBox, b: BBox) -> float:
    """Rectangle IOU; degenerate boxes give 0."""
    if a.empty or b.empty:
        return 0.0
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def rect_mask(height: int, width: int, box: BBox) -> BinaryMask:
    """Rasterize an axis-aligned rectangle, clipped to the image."""
    x0 = max(0, int(round(box.x)))
    y0 = max(0, int(round(box.y)))
    x1 = min(width, int(round(box.x + box.w)))
    y1 = min(height, int(round(box.y + box.h)))
    if x1 <= x0 or y1 <= y0:
        return BinaryMask(height, width, (height * width,))
    # Canonical counts written directly (synth rasterizes every box, and a
    # pass through _from_segments costs more than the rest of this function):
    # one foreground run per column with the rows outside the box between
    # them, fused into one run when the box spans the full height; the last
    # gap becomes the trailing background run, dropped when it is empty.
    run_h = y1 - y0
    if run_h == height:
        counts = [x0 * height, (x1 - x0) * height]
    else:
        counts = [x0 * height + y0] + [run_h, height - run_h] * (x1 - x0)
        counts.pop()
    tail = (width - x1) * height + height - y1
    if tail:
        counts.append(tail)
    return BinaryMask(height, width, counts)
