"""Binary instance masks stored as column-major run-length encodings.

Masks are immutable. The run list always starts with a background run
(possibly of length zero), alternates background/foreground, and sums to
``height * width``. A mask stores one form of it, the cumulative run ends
(int64, or Python ints for a frame past int64), with its area; the run
lengths, ``counts``, are derived from the run ends when asked for, and only
the mask itself and the per-mask encoder :func:`rle_to_string` ask. Every
operation reads the mask through its run ends, so its cost scales with the
number of runs rather than the number of pixels.

Most mask pairs a tracker or a post-filter meets lie far apart. Each mask
also caches its foreground extent (the columns and rows it spans), and
:func:`may_overlap` compares the extents of a list of mask pairs at once:
when they are disjoint, or a mask is empty, the masks share no pixel, so
their intersection is zero without touching their runs. The test is exact;
it never rules out a pair that touches.

Many masks at once go through one function, :func:`foreground_intervals`,
which reads their foreground intervals from the stored run ends, each mask
once however many entries name it; each caller places the intervals on its
own axis. An :class:`IntervalTable` holds the intervals of a list of masks,
each mask placed in the block of pixel positions of its slot (its frame),
sorted by start. Neighbouring intervals show whether a slot's masks overlap
(:func:`overlapping_masks`), and two disjoint tables merge by binary search
into the exact intersection area of every pair that shares pixels
(:func:`table_intersections`). A list of chosen pairs, such as a tracker's
candidate matches, goes through the same merge (:func:`pair_intersections`),
each pair in a slot of its own: the one intersection kernel. IOU is the
intersection area over the two stored areas less it. :func:`paint_by_rank`
makes a table's masks disjoint, each segment where they meet going to the
earliest mask. One builder, :func:`_from_intervals`, gives every computed
run list its canonical form. A single pair (:func:`mask_iou`,
:func:`mask_merge`) is a one-item case of these kernels.
:func:`fill_caches` takes many masks' extents from the intervals too.

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

A file's tokens are decoded together by :func:`rle_from_strings`, in blocks
of about 16 K characters: one byte array, whose one-character values are
read through the same translation table and whose longer values are put
together in a few rounds over their subset, and the delta chains undone
with cumulative sums restarted at each token; one more such sum gives the
run ends. A mask it has proven is built without the constructor's checks
and holds a read-only view of those run ends, and its area; no run-length
tuple is built. A token it cannot prove valid, such as a bad one, goes through
:func:`rle_from_string`, so both accept the same tokens and raise the same
first error.

A file's masks are encoded together by :func:`rle_to_strings`, in blocks of
about 16 K run ends: the counts and their deltas from the stored run ends,
each value's character count from its magnitude, and one ``repeat`` that
spreads each value over its characters, whose bits are then shifted out in
place. A mask past 2**40 pixels goes through :func:`rle_to_string`, which
stays the authority.

Every many-item kernel that cuts its batch under a weight budget takes its
slices from one rule, :func:`blocks`: a slice takes items until the weight
taken reaches the budget, optionally capped at a number of items.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ShapeMismatch


_INT64_MAX = int(np.iinfo(np.int64).max)


def _integer(value, what: str) -> int:
    """``operator.index(value)``: an int or numpy integer, never a float or str."""
    try:
        return operator.index(value)
    except TypeError:
        raise ShapeMismatch(f"{what} must be an integer, got {value!r}") from None


class BinaryMask:
    """Run-length encoded binary mask.

    A mask holds its dims, its cumulative run ends and its area; the run
    lengths are derived from the run ends when asked for. Masks are
    immutable, and equal, hash and print as ``(height, width, counts)``.

    Attributes:
        height: Image height in pixels.
        width: Image width in pixels.
        run_ends: Cumulative run ends, read-only: run ``i`` covers the
            pixels up to ``run_ends[i]``. int64, or Python ints in an object
            array for a frame of more pixels than int64 holds.
        area: Number of foreground pixels.
        counts: Run lengths in column-major pixel order, background first.
    """

    def __init__(self, height: int, width: int, counts: tuple[int, ...]):
        height = _integer(height, "mask height")
        width = _integer(width, "mask width")
        if height <= 0 or width <= 0:
            raise ShapeMismatch(f"mask dims must be positive, got {height}x{width}")
        try:
            counts = tuple(map(operator.index, counts))
        except TypeError:  # name the first run that is not an integer
            counts = tuple(_integer(c, f"run length at index {i}") for i, c in enumerate(counts))
        if min(counts, default=0) < 0 or 0 in counts[1:]:
            # name the first bad run
            for i, c in enumerate(counts):
                if c < 0:
                    raise ShapeMismatch(f"negative run length {c} at index {i}")
                if c == 0 and i > 0:
                    raise ShapeMismatch(f"zero-length run at index {i} (non-canonical)")
        ends = list(accumulate(counts))
        total = ends[-1] if ends else 0
        if total != height * width:
            raise ShapeMismatch(f"counts sum {total} != {height}*{width}")
        # exact past int64 too: such a frame's run ends stay Python ints
        ends = np.array(ends, dtype=np.int64 if total <= _INT64_MAX else object)
        ends.flags.writeable = False
        # the checked tuple is kept as the counts cache
        self.__dict__.update(
            height=height, width=width, run_ends=ends, area=sum(counts[1::2]), counts=counts
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal run ends are equal counts, so no counts are derived
        same_dims = (self.height, self.width) == (other.height, other.width)
        return same_dims and np.array_equal(self.run_ends, other.run_ends)

    def __hash__(self):
        return hash((self.height, self.width, self.counts))

    def __repr__(self):
        return f"BinaryMask(height={self.height!r}, width={self.width!r}, counts={self.counts!r})"

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """Run lengths, derived from :attr:`run_ends` on first use and cached."""
        ends = self.run_ends.tolist()
        return tuple(map(operator.sub, ends, [0, *ends[:-1]]))

    @cached_property
    def extent(self) -> tuple[int, int, int, int] | None:
        """``(col_min, col_max, row_min, row_max)`` of the foreground, inclusive.

        ``None`` for an empty mask. Cached on first use, or filled together
        with other masks' by :func:`fill_caches`.
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
    counts = np.diff(mask.run_ends, prepend=0)
    values = np.arange(counts.size, dtype=np.uint8) & 1
    flat = np.repeat(values, counts)
    return flat.reshape((mask.height, mask.width), order="F")


def rle_encode(grid: np.ndarray) -> BinaryMask:
    """Encode a dense 2-D {0,1} grid into canonical run lengths.

    Inverse of :func:`rle_decode`: ``rle_decode(rle_encode(g))`` equals ``g``.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ShapeMismatch(f"grid must be 2-D, got shape {grid.shape}")
    h, w = grid.shape
    if h <= 0 or w <= 0:
        raise ShapeMismatch(f"mask dims must be positive, got {h}x{w}")
    # the foreground edges: every even one starts an interval, every odd one stops it
    edges = np.flatnonzero(np.diff(grid.ravel(order="F") != 0, prepend=False, append=False))
    return _one_mask(h, w, edges[0::2], edges[1::2])


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


# The many-mask kernels take their items in blocks (:func:`blocks`) of about
# this weight: characters to decode, run ends to encode or read, foreground
# intervals to paint. Each unit makes a few int64 temporaries, so they stay
# small for any file.
_WEIGHT_BUDGET = 1 << 14


def blocks(weights: list[int], budget: int | None = None, cap: int | None = None) -> list[tuple[int, int]]:
    """``(lo, hi)`` of consecutive slices of the items ``weights`` weighs,
    covering them all. A slice takes its first item, then the next while the
    weight it has taken is under ``budget`` (``_WEIGHT_BUDGET``, as it is at
    the call, when None) and it holds fewer than ``cap`` items (any number
    when None). Weights are non-negative."""
    if budget is None:
        budget = _WEIGHT_BUDGET
    taken = list(accumulate(weights, initial=0))  # taken[k]: the weight of the first k items
    n, cuts = len(taken) - 1, [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        stop = n if cap is None else min(n, lo + cap)
        # the first end past lo whose slice weighs the budget, else stop
        cuts.append(bisect_left(taken, taken[lo] + budget, lo + 1, stop))
    return list(zip(cuts, cuts[1:]))


# A token goes through rle_from_string instead when its frame holds more
# pixels, it is longer, or one of its values has more characters. Within
# these, a value has at most 60 bits, and a token's counts, each at most
# 2**40, sum to at most 2**62: every int64 below is exact where it matters.
_BATCH_AREA = 1 << 40
_BATCH_CHARS = 1 << 22
_VALUE_CHARS = 12


def _batch_dims(token: str, height, width) -> tuple[int, int] | None:
    """``(height, width)`` as ints when the batch can prove ``token`` right
    or wrong, else None."""
    try:
        h, w = operator.index(height), operator.index(width)
    except TypeError:
        return None
    if h <= 0 or w <= 0 or h * w > _BATCH_AREA:
        return None
    if not token or len(token) > _BATCH_CHARS or not token.isascii():
        return None
    return h, w


def _decode_block(
    tokens: list[str], areas: list[int]
) -> tuple[np.ndarray, list[tuple[int, int, int] | None]]:
    """The block's run ends, read-only, and for each token ``(lo, hi,
    area)`` when it decodes to a valid mask of ``areas[k]`` pixels, whose run
    ends are ``ends[lo:hi]`` and whose foreground is ``area``; else None: a
    bad character, a truncated token, a value longer than ``_VALUE_CHARS``
    characters, or a run list ``BinaryMask`` refuses.

    Every token is non-empty ASCII. The tokens are read as one byte array,
    checked for a bad character by its ``min`` and ``max``; only a block
    that holds one looks for its tokens. Every value is first read from its
    last character alone, through ``_SHORT_VALUES``: a character below 'P'
    ends its value and carries its top 5 bits, the sign bit among them, so
    that is the whole of a one-character value, which nine values in ten
    are. Only the longer values take more, in a few rounds over their
    subset: each round shifts the values that have a next lower character
    up 5 bits and puts it in. Each delta chain is then one cumulative sum
    over a stride-2 view, restarted at every token by taking the chain
    before it off its first value; so are the run ends. int64 wraps, so a
    chain is exact up to its first count outside ``[0, area]``, which marks
    the token bad, and the counts of a good token sum exactly. The checks
    of the counts are reduced per token only in a block where one fails.
    """
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    stop = np.cumsum(lengths)
    start = stop - lengths
    last = stop - 1
    text = "".join(tokens).encode("ascii")
    raw = np.frombuffer(text, dtype=np.uint8)
    if raw.min() < 48 or raw.max() > 111:  # a character outside '0'..'o'
        bad = np.logical_or.reduceat((raw < 48) | (raw > 111), start)
    else:
        bad = np.zeros(len(tokens), dtype=bool)
    bad |= raw[last] >= 80  # truncated: its last value goes on
    # a character from 'P' on continues its value; a token's last character
    # ends it anyway, so no value runs on into the next token
    more = raw >= 80
    more[last] = False
    cont = np.flatnonzero(more)
    counts = np.frombuffer(text.translate(_SHORT_VALUES), dtype=np.int8)
    if cont.size:
        counts = counts[~more]  # each value's last character
    counts = counts.astype(np.int64)
    first = start - np.searchsorted(cont, start)  # each token's first value
    if cont.size:
        # the last character of each longer value, and its place among the
        # values: its position less the continuation characters up to it
        tail = cont + 1
        k = np.flatnonzero(~more[tail])
        tail = tail[k]
        slot = tail - k - 1
        value = counts[slot]
        live = np.arange(tail.size)
        at = tail - 1
        for _ in range(_VALUE_CHARS - 1):
            # a character from 'P' on carries 5 bits below those it precedes
            value[live] = (value[live] << 5) | (raw[at] - 80)
            # a value's first character follows one that ends a value: at 0,
            # more[-1] is the block's last character
            go = more[at - 1]
            live, at = live[go], at[go] - 1
            if not live.size:
                break
        if live.size:  # values of more than _VALUE_CHARS characters
            bad[np.searchsorted(stop, tail[live], side="right")] = True
        counts[slot] = value
    # undo the delta coding: a token's odd counts, and its even ones from the
    # third, are running sums of their own chain. Each chain is a contiguous
    # part of one stride-2 view; so is the first count, a part of its own.
    # Taking each part's total off the first value of the part after it
    # makes one cumulative sum over the view restart at every part.
    nv = np.diff(first, append=counts.size)
    parts = (first[:, None] + np.arange(3))[np.arange(3) < nv[:, None]]
    for parity in (0, 1):
        chain = counts[parity::2]
        seg = parts[(parts & 1) == parity] // 2
        chain[seg[1:]] -= np.add.reduceat(chain, seg)[:-1]
        np.cumsum(chain, out=chain)
    area = np.array(areas, dtype=np.int64)
    # a negative count, or an empty run after a token's first
    short = counts <= 0
    short[first] = counts[first] < 0
    if short.any():
        bad |= np.logical_or.reduceat(short, first)
    if counts.max() > area.min():
        bad |= np.maximum.reduceat(counts, first) > area
    total = np.add.reduceat(counts, first)
    bad |= total != area
    # the runs at odd places of the block, summed per token: a token's
    # foreground when it starts at an even place, else its background
    odd = np.zeros(counts.size // 2 + 1, dtype=np.int64)
    np.cumsum(counts[1::2], out=odd[1:])
    fg = odd[(first + nv) // 2] - odd[first // 2]
    fg = np.where(first & 1, area - fg, fg)
    # the run ends: one cumulative sum, restarted at each token by taking the
    # token before it off its first run (exact, as int64 wraps)
    counts[first[1:]] -= total[:-1]
    ends = np.cumsum(counts, out=counts)
    ends.flags.writeable = False
    spans = list(zip(first.tolist(), (first + nv).tolist(), fg.tolist()))
    for k in np.flatnonzero(bad).tolist():
        spans[k] = None
    return ends, spans


def _proven_mask(height: int, width: int, run_ends: np.ndarray, area: int) -> BinaryMask:
    """A mask built without ``BinaryMask``'s checks, for run ends
    :func:`_decode_block` has proven or :func:`_from_intervals` or
    :func:`rect_mask` has built: read-only int64 (Python ints past int64),
    the first non-negative, each later one above the one before it, the last
    ``height * width``; ``area`` is the foreground."""
    mask = object.__new__(BinaryMask)
    mask.__dict__.update(height=height, width=width, run_ends=run_ends, area=area)
    return mask


def rle_from_strings(tokens: list[str], heights: list[int], widths: list[int]) -> list[BinaryMask]:
    """``rle_from_string(tokens[k], heights[k], widths[k])`` for every ``k``,
    decoded together in a few numpy passes over blocks of tokens
    (:func:`_decode_block`).

    :func:`rle_from_string` stays the authority: a token the batch cannot
    prove valid (a bad character, a truncated or empty token, dims that are
    not positive, a value longer than 12 characters, a frame past 2**40
    pixels) goes through it, in order. So the masks, and the first error
    raised, are the ones the per-token loop gives; the error carries the
    token's position as its ``index`` attribute. One loop over a block's
    tokens builds each proven mask, holding a read-only view of the block's
    run ends, and sends every other token through :func:`rle_from_string`.
    Lists of unequal length raise ShapeMismatch.
    """
    if not len(tokens) == len(heights) == len(widths):
        raise ShapeMismatch(f"{len(tokens)} tokens, {len(heights)} heights, {len(widths)} widths")
    dims = [_batch_dims(t, h, w) for t, h, w in zip(tokens, heights, widths)]
    masks: list[BinaryMask] = []
    for lo, hi in blocks([len(t) if d else 0 for t, d in zip(tokens, dims)]):
        batch = [i for i in range(lo, hi) if dims[i]]
        areas = [dims[i][0] * dims[i][1] for i in batch]
        ends, spans = _decode_block([tokens[i] for i in batch], areas) if batch else (None, [])
        spans = iter(spans)
        for i, d in enumerate(dims[lo:hi], lo):
            span = d and next(spans)
            if span:
                a, b, area = span
                masks.append(_proven_mask(*d, ends[a:b], area))
                continue
            try:
                masks.append(rle_from_string(tokens[i], heights[i], widths[i]))
            except (ParseError, ShapeMismatch) as exc:
                exc.index = i
                raise
    return masks


# The largest magnitude a value of k characters holds, for k = 1 .. 12: it
# has 5k bits, the top one its sign (the magnitude of a negative x is ~x).
_CHAR_LIMITS = np.left_shift(1, 5 * np.arange(1, 13, dtype=np.int64) - 1) - 1


def rle_to_strings(masks: list[BinaryMask]) -> list[str]:
    """``rle_to_string(m)`` for every mask, encoded together in a few numpy
    passes over blocks of the masks, each mask weighing its run ends
    (:func:`blocks`).

    The counts and their deltas come from the run ends, each value's
    character count from its magnitude, and one ``repeat`` spreads every
    value over its characters. :func:`rle_to_string` stays the authority: a
    mask past 2**40 pixels goes through it.
    """
    batch = [m for m in masks if m.height * m.width <= _BATCH_AREA]
    encoded: list[str] = []
    for lo, hi in blocks([len(m.run_ends) for m in batch]):
        ends = [m.run_ends for m in batch[lo:hi]]
        runs = np.fromiter(map(len, ends), dtype=np.int64, count=len(ends))
        first = np.cumsum(runs) - runs
        flat = np.concatenate(ends)
        counts = np.diff(flat, prepend=0)
        counts[first] = flat[first]
        # each count from a mask's fourth on is written less the count two back
        values = counts.copy()
        values[2:] -= counts[:-2]
        lead = (first[:, None] + np.arange(3))[np.arange(3) < runs[:, None]]
        values[lead] = counts[lead]
        magnitude = np.where(values < 0, ~values, values)
        chars = np.searchsorted(_CHAR_LIMITS, magnitude) + 1
        last = np.cumsum(chars) - 1  # each value's last character
        # character j of a value carries its bits 5j .. 5j+4, and all but the
        # last set the continuation bit
        shift = np.arange(last[-1] + 1) - np.repeat(last + 1 - chars, chars)
        shift *= 5
        text = np.repeat(values, chars)
        text >>= shift
        text &= 31
        text += 48 + 32
        text[last] -= 32
        text = text.astype(np.uint8).tobytes().decode("ascii")
        stops = (last[first + runs - 1] + 1).tolist()
        encoded += map(text.__getitem__, map(slice, [0, *stops[:-1]], stops))
    if len(batch) == len(masks):
        return encoded
    tokens = iter(encoded)
    return [next(tokens) if m.height * m.width <= _BATCH_AREA else rle_to_string(m) for m in masks]


def fill_caches(masks: list[BinaryMask]) -> None:
    """Fill the ``extent`` cache of many masks at once, with what each mask
    computes on first use.

    The extents come from the :func:`foreground_intervals` of the masks,
    read in one pass over the run ends of each block of masks, each mask
    weighing its run ends (:func:`blocks`). A mask of more pixels than int64
    holds is left to fill its own.
    """
    masks = [m for m in masks if m.height * m.width <= _INT64_MAX]
    for lo, hi in blocks([len(m.run_ends) for m in masks]):
        _fill_extents(masks[lo:hi])


def _fill_extents(masks: list[BinaryMask]) -> None:
    starts, stops, owner = foreground_intervals(masks, np.arange(len(masks)))
    h = np.array([m.height for m in masks], dtype=np.int64)[owner]
    col_first, row_first = np.divmod(starts, h)
    col_last, row_last = np.divmod(stops - 1, h)
    group = np.flatnonzero(np.diff(owner, prepend=-1))  # each non-empty mask's first interval
    # a run that wraps past a column reaches both the last row and the first
    wraps = np.logical_or.reduceat(col_last > col_first, group)
    row_min = np.where(wraps, 0, np.minimum.reduceat(row_first, group))
    row_max = np.where(wraps, h[group] - 1, np.maximum.reduceat(row_last, group))
    col_max = np.maximum.reduceat(col_last, group)
    bounds = zip(col_first[group].tolist(), col_max.tolist(), row_min.tolist(), row_max.tolist())
    for m in masks:
        m.__dict__["extent"] = None  # unless it has an interval
    for k, extent in zip(owner[group].tolist(), bounds):
        masks[k].__dict__["extent"] = extent


# ---------------------------------------------------------------------------
# mask pairs
# ---------------------------------------------------------------------------

def _check_dims(a: BinaryMask, b: BinaryMask):
    if a.height != b.height or a.width != b.width:
        raise ShapeMismatch(
            f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def _check_pair_dims(a: list[BinaryMask], b: list[BinaryMask], ia: np.ndarray, ib: np.ndarray) -> set:
    """The ``(height, width)`` set of ``a`` and ``b``; when it holds two or
    more, the first pair ``(a[ia[p]], b[ib[p]])`` of different dims raises."""
    dims = {(m.height, m.width) for m in chain(a, b)}
    if len(dims) > 1:
        dims_a, dims_b = (np.array([(m.height, m.width) for m in side]).reshape(-1, 2) for side in (a, b))
        differ = (dims_a[ia] != dims_b[ib]).any(axis=1)
        if differ.any():
            p = int(np.argmax(differ))
            _check_dims(a[ia[p]], b[ib[p]])
    return dims


# the extent row of an empty mask: its first column and row lie past every last one
_NO_EXTENT = (np.inf, -np.inf, np.inf, -np.inf)


def _extent_rows(masks: list[BinaryMask]) -> np.ndarray:
    rows = chain.from_iterable([m.extent or _NO_EXTENT for m in masks])
    return np.fromiter(rows, dtype=float, count=4 * len(masks)).reshape(-1, 4)


def may_overlap(a: list[BinaryMask], b: list[BinaryMask], ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """For every pair ``p``, False when ``a[ia[p]]`` and ``b[ib[p]]`` certainly
    share no pixel: a mask is empty or their extents are disjoint.

    One broadcast over the pairs' extent rows; a True answer promises
    nothing. Raises ShapeMismatch naming the first pair of masks of
    different dimensions, empty ones included.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    _check_pair_dims(a, b, ia, ib)
    rows = _extent_rows(a)
    ea = rows[ia].T  # (4, pairs): one row per bound
    eb = (rows if b is a else _extent_rows(b))[ib].T
    return (eb[0] <= ea[1]) & (ea[0] <= eb[1]) & (eb[2] <= ea[3]) & (ea[2] <= eb[3])


# ---------------------------------------------------------------------------
# many-mask interval tables
# ---------------------------------------------------------------------------

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


def foreground_intervals(
    masks: list[BinaryMask], which: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, stops, entry)``: the foreground intervals of ``masks[which[e]]``
    for every entry ``e``, in entry order.

    Interval ``k`` covers the pixels ``[starts[k], stops[k])`` of its mask's
    frame and belongs to entry ``entry[k]``; a mask's intervals are sorted
    and never empty. They are read in one pass over the masks' stored run
    ends, each mask once however many entries name it: foreground run
    ``2i+1`` of a mask covers ``[run_ends[2i], run_ends[2i+1])``. Each
    caller places the intervals on its own axis.
    """
    ends = [m.run_ends for m in masks]
    runs = np.fromiter(map(len, ends), dtype=np.int64, count=len(ends))
    first = np.cumsum(runs) - runs
    fg = (runs // 2)[which]  # foreground runs of each entry's mask
    before = np.cumsum(fg) - fg
    entry = np.repeat(np.arange(which.size), fg)
    # the i-th interval of an entry starts at end 2i of its mask
    at = np.repeat(first[which] - 2 * before, fg) + 2 * np.arange(entry.size)
    flat = np.concatenate(ends)
    return flat[at], flat[at + 1], entry


def interval_table(masks: list[BinaryMask], slots: list[int]) -> IntervalTable:
    """Build the interval table of ``masks``, mask ``k`` placed in ``slots[k]``.

    Masks in one slot share positions, so their intervals can overlap; masks
    in different slots never meet. All masks must have the same dimensions.
    Each mask's :func:`foreground_intervals` are shifted by its slot's first
    position, and one stable sort by start orders them. Raises ShapeMismatch
    for lists of unequal length, for mixed dimensions, or for a slot past
    :func:`slot_capacity`.
    """
    if len(masks) != len(slots):
        raise ShapeMismatch(f"{len(masks)} masks but {len(slots)} slots")
    if not masks:
        empty = np.zeros(0, dtype=np.int64)
        return IntervalTable(empty, empty, empty, empty)
    every = np.arange(len(masks))
    _check_pair_dims(masks[:1], masks, np.zeros_like(every), every)
    h, w = masks[0].height, masks[0].width
    slots = np.asarray(slots, dtype=np.int64)
    capacity = slot_capacity(h, w)
    if slots.min() < 0 or slots.max() >= capacity:
        raise ShapeMismatch(
            f"slots {slots.min()}..{slots.max()} outside the {capacity} frames of "
            f"{h}x{w} pixels that int64 positions hold"
        )
    starts, stops, owner = foreground_intervals(masks, every)
    offset = slots[owner] * (h * w)
    starts += offset
    stops += offset
    order = np.argsort(starts, kind="stable")
    area = np.fromiter((m.area for m in masks), dtype=np.int64, count=len(masks))
    return IntervalTable(starts[order], stops[order], owner[order], area)


def overlapping_masks(table: IntervalTable) -> np.ndarray:
    """Owners of the intervals that start before the previous one stops.

    Empty exactly when the table's masks are pairwise disjoint: the
    intervals are sorted by start, so any overlap shows between neighbours.
    Both neighbours of such a pair lie in one slot.
    """
    return table.owner[1:][table.starts[1:] < table.stops[:-1]]


def paint_by_rank(
    masks: list[BinaryMask], slots: list[int]
) -> tuple[list[BinaryMask], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each mask less the pixels held by an earlier mask of its slot, and
    the pieces painted where masks met.

    The masks go into one :func:`interval_table`, with the limits it sets.
    An interval that starts before the running maximum of the earlier stops
    overlaps an earlier one, so one ``np.maximum.accumulate`` splits the
    table into groups of intervals that chain by overlap. Inside the groups
    of two or more, the table is cut at every start and stop (a sort and a
    neighbour compare), and each segment goes to the earliest mask that
    covers it. A mask that loses no pixel, such as one with no interval in
    such a group, comes back as the same object. One that lost pixels is
    rebuilt from the segments it keeps and its other intervals, touching
    neighbours merged, by :func:`_from_intervals`; it is empty when it kept
    nothing.

    The pieces are ``(starts, stops, owner)`` of every segment kept inside
    a group, sorted by start, on the table's axis: disjoint, unless the
    painting went wrong. Outside the groups no interval meets another.
    """
    table = interval_table(masks, slots)
    starts, stops, owner = table.starts, table.stops, table.owner
    # opens[k]: interval k starts a group (the last entry closes the last group)
    opens = np.ones(starts.size + 1, dtype=bool)
    np.greater_equal(starts[1:], np.maximum.accumulate(stops)[:-1], out=opens[1:-1])
    contested = ~(opens[:-1] & opens[1:])
    if not contested.any():
        empty = np.zeros(0, dtype=np.int64)
        return list(masks), (empty, empty, empty)
    c_starts, c_stops, c_owner = starts[contested], stops[contested], owner[contested]
    # the cuts: every start and stop in the groups, sorted, each kept once
    cuts = np.concatenate((c_starts, c_stops))
    cuts.sort()
    keep = np.empty(cuts.size, dtype=bool)
    keep[0] = True
    np.not_equal(cuts[1:], cuts[:-1], out=keep[1:])
    cuts = cuts[keep]
    # interval k covers segments lo[k] .. lo[k] + span[k] - 1, segment s
    # being [cuts[s], cuts[s + 1])
    lo = np.searchsorted(cuts, c_starts)
    span = np.searchsorted(cuts, c_stops) - lo
    seg = np.repeat(lo - (np.cumsum(span) - span), span) + np.arange(span.sum())
    who = np.repeat(c_owner, span)
    winner = np.full(cuts.size, len(masks), dtype=np.int64)
    np.minimum.at(winner, seg, who)
    won = who == winner[seg]
    lost = np.zeros(len(masks), dtype=bool)
    lost[who[~won]] = True
    seg, who = seg[won], who[won]
    order = np.argsort(seg, kind="stable")
    seg, who = seg[order], who[order]
    pieces = cuts[seg], cuts[seg + 1], who
    # each mask that lost pixels: its kept segments and its uncontested intervals
    other = ~contested & lost[owner]
    mine = lost[who]
    p_starts = np.concatenate((starts[other], pieces[0][mine]))
    p_stops = np.concatenate((stops[other], pieces[1][mine]))
    p_owner = np.concatenate((owner[other], who[mine]))
    order = np.lexsort((p_starts, p_owner))
    painted = list(masks)
    h, w = masks[0].height, masks[0].width
    offset = np.asarray(slots, dtype=np.int64)[p_owner[order]] * (h * w)
    which = np.flatnonzero(lost)
    rebuilt = _from_intervals(h, w, p_starts[order] - offset, p_stops[order] - offset, p_owner[order], which)
    for k, mask in zip(which.tolist(), rebuilt):
        painted[k] = mask
    return painted, pieces


def _from_intervals(
    height: int, width: int, starts: np.ndarray, stops: np.ndarray, owner: np.ndarray, which: np.ndarray
) -> list[BinaryMask]:
    """The mask of each owner in ``which`` (ascending) from its foreground
    intervals ``[starts[k], stops[k])``, which lie in its frame, are sorted
    by ``(owner, start)``, never empty and never overlap; touching ones are
    merged here. An owner with no interval gets an empty mask. Each mask
    holds a read-only view of one array of run ends, and its area."""
    size = height * width
    # a run starts wherever the owner changes or the previous interval stops short
    new = np.ones(starts.size + 1, dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=new[1:-1])
    new[1:-1] |= starts[1:] != stops[:-1]
    starts, stops, owner = starts[new[:-1]], stops[new[1:]], owner[new[:-1]]
    lo, hi = np.searchsorted(owner, which), np.searchsorted(owner, which, side="right")
    fg = np.concatenate(([0], np.cumsum(stops - starts)))
    area = fg[hi] - fg[lo]
    # each owner's run ends: its starts and stops in turn, then the frame's
    # end, unless its last interval reaches it
    room = 2 * (hi - lo) + 1
    base = np.cumsum(room) - room
    ends = np.empty(room.sum(), dtype=np.int64)
    at = np.repeat(base - 2 * lo, hi - lo) + 2 * np.arange(starts.size)
    ends[at] = starts
    ends[at + 1] = stops
    tail = base + room - 1
    ends[tail] = size
    stop = tail + 1 - ((hi > lo) & (ends[tail - 1] == size))
    ends.flags.writeable = False
    return [
        _proven_mask(height, width, ends[a:b], n)
        for a, b, n in zip(base.tolist(), stop.tolist(), area.tolist())
    ]


def _one_mask(height: int, width: int, starts: np.ndarray, stops: np.ndarray) -> BinaryMask:
    """The mask whose foreground is the sorted intervals ``[starts[k], stops[k])``."""
    owner = np.zeros(starts.size, dtype=np.int64)
    return _from_intervals(height, width, starts, stops, owner, np.zeros(1, dtype=np.int64))[0]


def table_intersections(
    a: IntervalTable, b: IntervalTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, area)`` for every mask ``i`` of ``a`` and ``j`` of ``b`` that share pixels.

    ``area`` is the exact number of pixels the two masks share; rows
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


def pair_intersections(
    a: list[BinaryMask], b: list[BinaryMask], ia: np.ndarray, ib: np.ndarray
) -> np.ndarray:
    """The intersection area of ``a[ia[p]]`` and ``b[ib[p]]`` for every pair ``p``, in int64.

    Each pair gets a slot of its own on one position axis, as wide as the
    largest frame among the masks, so each side's table holds one mask per
    slot and is disjoint, and one :func:`table_intersections` merge gives
    every pair's area at once. A mask may appear in many pairs, and ``a``
    may be ``b``. Raises ShapeMismatch for index lists of unequal length,
    for a pair of masks of different dimensions, or for more slots than
    int64 positions hold.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    if ia.size != ib.size:
        raise ShapeMismatch(f"{ia.size} indices into a but {ib.size} into b")
    if ia.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = ia.size
    slot = max(h * w for h, w in _check_pair_dims(a, b, ia, ib))
    if n > _INT64_MAX // slot:
        raise ShapeMismatch(f"{n} slots of {slot} pixels overflow int64 positions")
    masks, shift = (a, 0) if a is b else (a + b, len(a))  # one list as both sides is read once
    which = np.concatenate((ia, ib + shift))
    starts, stops, entry = foreground_intervals(masks, which)
    k = entry.searchsorted(n)  # the intervals of side a come first
    entry[k:] -= n  # each interval's pair
    offset = entry * slot
    starts += offset
    stops += offset
    area = np.fromiter((m.area for m in masks), dtype=np.int64, count=len(masks))[which]
    pair, _, area = table_intersections(
        IntervalTable(starts[:k], stops[:k], entry[:k], area[:n]),
        IntervalTable(starts[k:], stops[k:], entry[k:], area[n:]),
    )
    out = np.zeros(ia.size, dtype=np.int64)
    out[pair] = area  # a slot meets only the same slot of the other side
    return out


# ---------------------------------------------------------------------------
# one mask pair: the one-item cases of the batch kernels
# ---------------------------------------------------------------------------

def mask_intersection_area(a: BinaryMask, b: BinaryMask) -> int:
    """Number of pixels set in both masks: one :func:`pair_intersections` pair."""
    return int(pair_intersections([a], [b], [0], [0])[0])


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two masks, computed on the runs.

    The union is the two stored areas less the intersection. Returns 0.0
    when the masks share no pixel, so also when the union is empty.
    """
    inter = mask_intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def mask_merge(a: BinaryMask, b: BinaryMask, op: str) -> BinaryMask:
    """Combine two masks; ``op`` is one of 'union', 'intersect', 'subtract'.

    ``a`` less ``b`` is ``a`` painted under ``b`` (:func:`paint_by_rank`),
    ``a`` and ``b`` is ``a`` painted under that, and the union is the
    intervals of ``a`` and of ``b`` painted under ``a``, in one run list.
    """
    _check_dims(a, b)
    if op not in ("union", "intersect", "subtract"):
        raise ValueError(f"unknown op {op!r}")
    if op == "union":
        starts, stops, _ = foreground_intervals([a, paint_by_rank([a, b], [0, 0])[0][1]], np.arange(2))
        order = np.argsort(starts)
        return _one_mask(a.height, a.width, starts[order], stops[order])
    rest = paint_by_rank([b, a], [0, 0])[0][1]
    if op == "intersect":
        return paint_by_rank([rest, a], [0, 0])[0][1]
    return rest


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
    height = _integer(height, "mask height")
    width = _integer(width, "mask width")
    x0 = max(0, int(round(box.x)))
    y0 = max(0, int(round(box.y)))
    x1 = min(width, int(round(box.x + box.w)))
    y1 = min(height, int(round(box.y + box.h)))
    if x1 <= x0 or y1 <= y0:
        return BinaryMask(height, width, (height * width,))
    # Canonical run ends written directly (synth rasterizes every box, and a
    # pass through _from_intervals costs more than the rest of this function):
    # each column's foreground run starts at row y0 and stops at row y1, the
    # runs fused into one when the box spans the full height; the frame's
    # end closes the trailing background run, dropped when it is empty.
    size = height * width
    dtype = np.int64 if size <= _INT64_MAX else object
    if y1 - y0 == height:
        ends = np.array((x0 * height, x1 * height, size), dtype=dtype)
    else:
        ends = np.full(2 * (x1 - x0) + 1, size, dtype=dtype)
        cols = np.arange(x0 * height, x1 * height, height, dtype=dtype)
        np.add(cols, y0, out=ends[0:-1:2])
        np.add(cols, y1, out=ends[1:-1:2])
    if ends[-2] == size:
        ends = ends[:-1]
    ends.flags.writeable = False
    return _proven_mask(height, width, ends, (x1 - x0) * (y1 - y0))
