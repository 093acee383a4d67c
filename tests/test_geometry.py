import numpy as np
import pytest
from helpers import counts_token, token_counts
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack.errors import MaskTrackError, ParseError, ShapeMismatch
from masktrack.geometry import (
    BBox,
    BinaryMask,
    _cut,
    bbox_iou,
    cannot_overlap,
    interval_table,
    mask_intersection_area,
    mask_iou,
    mask_merge,
    may_overlap,
    overlapping_masks,
    rect_mask,
    rle_decode,
    rle_encode,
    rle_from_string,
    rle_to_string,
    slot_capacity,
    table_intersections,
)


def random_mask(rng, max_side=64):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    density = rng.uniform(0.0, 1.0)
    return (rng.random((h, w)) < density).astype(np.uint8)


@st.composite
def grids(draw, shape):
    """A boolean grid: random, all background, all foreground, or random
    with the first pixel set (so the run list opens with an empty run)."""
    kind = draw(st.sampled_from(["random", "zeros", "ones", "leading_fg"]))
    if kind == "zeros":
        return np.zeros(shape, dtype=bool)
    if kind == "ones":
        return np.ones(shape, dtype=bool)
    grid = draw(arrays(np.bool_, shape, elements=st.booleans()))
    if kind == "leading_fg":
        grid[0, 0] = True
    return grid


# where the second grid's foreground may start, past the last row or column
# the first grid's foreground reaches: with a gap, right next to it (extents
# disjoint but touching), or on that same line (extents share one line)
LAYOUT_OFFSETS = {"apart": 2, "adjacent": 1, "shared_line": 0}


@st.composite
def grid_pairs(draw, max_side=24, shape=None):
    """Two grids of one shape, drawn independently or with the second
    confined to the rows or columns past the first one's foreground."""
    shape = shape or (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    g1, g2 = draw(grids(shape)), draw(grids(shape))
    layout = draw(st.sampled_from(["free", *LAYOUT_OFFSETS]))
    if layout != "free" and g1.any():
        axis = draw(st.sampled_from([0, 1]))
        last = np.flatnonzero(g1.any(axis=1 - axis))[-1]
        cleared = [slice(None), slice(None)]
        cleared[axis] = slice(None, last + LAYOUT_OFFSETS[layout])
        g2[tuple(cleared)] = False
    return g1, g2


@st.composite
def clipped_rects(draw, max_side=30):
    """(height, width, box) with boxes that may be empty, span the full
    height, or run past the right or bottom edge (no trailing background)."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    x, y = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    bw, bh = draw(st.integers(0, w - x + 2)), draw(st.integers(0, h - y + 2))
    edge = draw(st.sampled_from(["inside", "full_height", "right", "bottom", "corner"]))
    if edge == "full_height":
        y, bh = 0, h
    if edge in ("right", "corner"):
        bw = w - x + draw(st.integers(0, 2))
    if edge in ("bottom", "corner"):
        bh = h - y + draw(st.integers(0, 2))
    return h, w, BBox(x, y, bw, bh)


# any text over '(' .. 'x', which holds every token character and some on
# each side, plus a non-ASCII one; or only token characters, so more decode
TOKEN_TEXT = st.text(st.characters(min_codepoint=40, max_codepoint=120) | st.just("é")) | st.text(
    st.characters(min_codepoint=48, max_codepoint=111)
)
# runs small and large, so deltas cross 2**9 both ways, and past 2**64;
# an empty tail leaves a lone background run
_RUN = st.integers(1, 40) | st.integers(1, 5000) | st.integers(2**64, 2**66)
CANONICAL_COUNTS = st.builds(lambda first, rest: [first, *rest], st.integers(0, 5000), st.lists(_RUN)).filter(
    lambda c: sum(c) > 0
)


def outcome(build):
    """``build()``, or the class and message of the MaskTrackError it raises."""
    try:
        return build()
    except MaskTrackError as exc:
        return type(exc), str(exc)


class TestDecode:
    def test_all_background(self):
        grid = rle_decode(BinaryMask(2, 2, (4,)))
        assert grid.tolist() == [[0, 0], [0, 0]]

    def test_all_foreground(self):
        grid = rle_decode(BinaryMask(2, 2, (0, 4)))
        assert grid.tolist() == [[1, 1], [1, 1]]

    def test_column_major_single_pixel(self):
        # first pixel in column-major order is (row 0, col 0)
        grid = rle_decode(BinaryMask(2, 2, (0, 1, 3)))
        assert grid[0, 0] == 1
        assert grid.sum() == 1

    def test_counts_sum_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch, match="counts sum 3"):
            BinaryMask(2, 2, (3,))

    def test_negative_run_rejected(self):
        with pytest.raises(ShapeMismatch, match="negative run length"):
            BinaryMask(2, 2, (-1, 5))

    def test_internal_zero_run_rejected(self):
        with pytest.raises(ShapeMismatch, match="zero-length run"):
            BinaryMask(2, 2, (2, 0, 2))

    def test_first_bad_run_is_named(self):
        with pytest.raises(ShapeMismatch, match="zero-length run at index 2"):
            BinaryMask(2, 2, (1, 3, 0, -1))
        with pytest.raises(ShapeMismatch, match="negative run length -1 at index 1"):
            BinaryMask(2, 2, (1, -1, 0, 4))

    @pytest.mark.parametrize(
        "counts, index",
        [((1.7, 3.2), 0), (("1", "3"), 0), ((1, 2.0, 1), 1), ((1, None, 3), 1)],
    )
    def test_non_integral_run_rejected(self, counts, index):
        with pytest.raises(ShapeMismatch, match=f"run length at index {index} must be an integer"):
            BinaryMask(1, 4, counts)

    @pytest.mark.parametrize(
        "dims, field",
        [((2.0, 2), "height"), ((2, 2.0), "width"), (("2", 2), "height")],
    )
    def test_non_integral_dims_rejected(self, dims, field):
        with pytest.raises(ShapeMismatch, match=f"mask {field} must be an integer"):
            BinaryMask(*dims, (4,))

    def test_numpy_integers_become_ints(self):
        mask = BinaryMask(np.int64(2), np.int32(2), np.array([1, 3]))
        assert mask == BinaryMask(2, 2, (1, 3))
        assert type(mask.height) is int and type(mask.width) is int
        assert all(type(c) is int for c in mask.counts)


class TestEncode:
    def test_all_zero(self):
        assert rle_encode(np.zeros((3, 3))).counts == (9,)

    def test_all_one(self):
        assert rle_encode(np.ones((3, 3))).counts == (0, 9)

    def test_single_pixel_inverse_of_decode(self):
        grid = np.zeros((2, 2), dtype=np.uint8)
        grid[0, 0] = 1
        assert rle_encode(grid).counts == (0, 1, 3)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            grid = random_mask(rng, 40)
            mask = rle_encode(grid)
            assert (rle_decode(mask) == grid).all()
            # re-encoding the decoded grid reproduces the canonical counts
            assert rle_encode(rle_decode(mask)) == mask


class TestStringCodec:
    def test_round_trip_small(self):
        for counts, (h, w) in [((4,), (2, 2)), ((0, 1, 3), (2, 2)), ((0, 4), (2, 2))]:
            mask = BinaryMask(h, w, counts)
            assert rle_from_string(rle_to_string(mask), h, w) == mask

    def test_known_tokens(self):
        # small counts map to single chars offset by 48
        assert rle_to_string(BinaryMask(2, 2, (0, 4))) == "04"
        assert rle_to_string(BinaryMask(2, 2, (4,))) == "4"
        assert rle_to_string(BinaryMask(2, 2, (0, 1, 3))) == "013"
        # 31 needs a continuation character
        assert rle_to_string(BinaryMask(8, 4, (31, 1))) == "o01"

    def test_delta_coding_kicks_in_from_fourth_count(self):
        # counts (1,1,1,1): fourth value stored as 1 - counts[1] = 0
        assert rle_to_string(BinaryMask(2, 2, (1, 1, 1, 1))) == "1110"

    def test_negative_delta_sign_extension(self):
        mask = BinaryMask(3, 4, (2, 5, 1, 1, 3))
        token = rle_to_string(mask)
        assert rle_from_string(token, 3, 4) == mask

    def test_truncated_token(self):
        token = rle_to_string(BinaryMask(8, 4, (31, 1)))
        with pytest.raises(ParseError, match="truncated"):
            rle_from_string(token[:1], 8, 4)

    def test_invalid_character(self):
        with pytest.raises(ParseError, match="invalid character"):
            rle_from_string("\x1f", 2, 2)

    def test_non_ascii_character_named(self):
        with pytest.raises(ParseError, match="invalid character 'é' at 1"):
            rle_from_string("0é4", 2, 2)

    def test_wrong_dims_after_decode(self):
        token = rle_to_string(BinaryMask(2, 2, (0, 4)))
        with pytest.raises(ShapeMismatch, match="counts sum"):
            rle_from_string(token, 3, 3)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            mask = rle_encode(random_mask(rng))
            token = rle_to_string(mask)
            assert rle_from_string(token, mask.height, mask.width) == mask

    def test_non_canonical_value_accepted(self):
        # "P0" spells 0 with a needless continuation character
        assert rle_from_string("P04", 2, 2).counts == (0, 4)
        assert rle_from_string("PP04", 2, 2).counts == (0, 4)
        assert rle_from_string("oP01", 8, 4).counts == (31, 1)  # "o01" written long

    @given(TOKEN_TEXT, st.integers(1, 4))
    @example("P04", 2)
    @example("o01", 4)
    @example("0\x7f", 1)
    def test_decoder_matches_the_per_character_oracle(self, token, height):
        """Any text decodes to the oracle's counts, or fails with its error
        class and message."""
        try:
            counts = token_counts(token)
        except ParseError as exc:
            expected = (ParseError, str(exc))
            height, width = 1, 1
        else:
            total = sum(counts)
            if total <= 0 or total % height:
                height = 1
            width = max(total // height, 1)
            expected = outcome(lambda: BinaryMask(height, width, counts).counts)
        assert outcome(lambda: rle_from_string(token, height, width).counts) == expected

    @given(CANONICAL_COUNTS)
    @example([6])
    @example([0, 2**64 + 5])
    def test_encoder_matches_the_per_character_oracle(self, counts):
        mask = BinaryMask(1, sum(counts), counts)
        token = rle_to_string(mask)
        assert token == counts_token(counts)
        assert rle_from_string(token, 1, sum(counts)) == mask


@st.composite
def run_mask_pairs(draw, max_side=12):
    """Two masks of one shape, each built from a random run list rather than
    a grid: cut at up to 12 pixel indices (none gives an empty or a full
    mask), background or foreground first."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    pair = []
    for _ in range(2):
        cuts = sorted(draw(st.sets(st.integers(1, h * w), max_size=12)) - {h * w})
        counts = np.diff([0, *cuts, h * w]).tolist()
        if draw(st.booleans()):
            counts = [0, *counts]  # foreground first
        pair.append(BinaryMask(h, w, counts))
    return pair


class TestMaskIou:
    def test_identity_is_one(self):
        mask = rle_encode(np.eye(5))
        assert mask_iou(mask, mask) == 1.0

    def test_disjoint_is_zero(self):
        a = rle_encode(np.array([[1, 0], [0, 0]]))
        b = rle_encode(np.array([[0, 0], [0, 1]]))
        assert mask_iou(a, b) == 0.0

    def test_hand_case_one_third(self):
        a = rle_encode(np.array([[1, 1], [0, 0]]))  # (0,0), (0,1)
        b = rle_encode(np.array([[0, 1], [0, 1]]))  # (0,1), (1,1)
        assert mask_iou(a, b) == pytest.approx(1 / 3, abs=1e-15)

    def test_empty_union_is_zero(self):
        a = BinaryMask(2, 2, (4,))
        assert mask_iou(a, a) == 0.0

    def test_shape_mismatch(self):
        pairs = [
            (BinaryMask(2, 2, (4,)), BinaryMask(2, 3, (6,))),
            # an empty mask passes the extent gate, but not the dims check
            (BinaryMask(4, 4, (16,)), BinaryMask(5, 5, (0, 25))),
        ]
        for op in (mask_iou, mask_intersection_area, cannot_overlap):
            for a, b in pairs:
                with pytest.raises(ShapeMismatch):
                    op(a, b)

    @given(grid_pairs(max_side=31))
    def test_matches_pixel_brute_force(self, pair):
        g1, g2 = pair
        m1, m2 = rle_encode(g1), rle_encode(g2)
        inter = int((g1 & g2).sum())
        union = int((g1 | g2).sum())
        got = mask_iou(m1, m2)
        assert got == (inter / union if union else 0.0)
        assert mask_intersection_area(m1, m2) == inter
        # the gate never rules out a pair that shares a pixel
        assert not (cannot_overlap(m1, m2) and inter)
        # symmetry
        assert got == mask_iou(m2, m1)
        assert mask_intersection_area(m2, m1) == inter
        assert 0.0 <= got <= 1.0

    @given(run_mask_pairs())
    def test_equals_the_iou_of_the_decoded_grids(self, pair):
        """IOU from the cached areas and the run cut is the pixel-grid IOU,
        bit for bit, on masks made from run lists (empty ones included)."""
        a, b = pair
        ga, gb = rle_decode(a).astype(bool), rle_decode(b).astype(bool)
        inter, union = int((ga & gb).sum()), int((ga | gb).sum())
        assert mask_iou(a, b) == (inter / union if union else 0.0)
        assert (a.area, b.area) == (int(ga.sum()), int(gb.sum()))


class TestCut:
    @given(grid_pairs(max_side=31))
    def test_segments_end_where_either_mask_has_a_run_end(self, pair):
        """The merged run ends are the sorted union of both masks' run ends,
        as ``np.union1d`` gives it, and each segment carries both masks' values."""
        a, b = (rle_encode(g) for g in pair)
        lengths, in_a, in_b = _cut(a, b)
        np.testing.assert_array_equal(np.cumsum(lengths), np.union1d(a.run_ends, b.run_ends))
        for grid, flags in zip(pair, (in_a, in_b)):
            pixels = np.repeat(flags, lengths)
            np.testing.assert_array_equal(pixels, grid.ravel(order="F"))


@st.composite
def mask_lists(draw, max_side=16):
    """Two lists of masks of one shape, taken from grid pairs, so that pairs
    across the lists lie apart, touch, share a line or overlap."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    pairs = draw(st.lists(grid_pairs(shape=shape), min_size=1, max_size=4))
    a = [rle_encode(g1) for g1, _ in pairs]
    b = [rle_encode(g2) for _, g2 in pairs]
    return a[: draw(st.integers(0, len(a)))], b


class TestMayOverlap:
    @given(mask_lists(), st.data())
    def test_agrees_with_cannot_overlap_on_every_pair(self, lists, data):
        a, b = lists
        expected = np.array([[not cannot_overlap(x, y) for y in b] for x in a], dtype=bool)
        expected = expected.reshape(len(a), len(b))
        assert np.array_equal(may_overlap(a, b, np.ones_like(expected)), expected)
        pairs = data.draw(arrays(np.bool_, expected.shape))
        assert np.array_equal(may_overlap(a, b, pairs), expected & pairs)

    def test_dims_checked_only_on_the_pairs_asked_about(self):
        a = [BinaryMask(4, 4, (16,)), BinaryMask(4, 4, (0, 16))]
        b = [BinaryMask(4, 4, (0, 16)), BinaryMask(5, 5, (0, 25))]
        with pytest.raises(ShapeMismatch, match="4x4 vs 5x5"):
            may_overlap(a, b, np.ones((2, 2), dtype=bool))
        pairs = np.array([[True, False], [True, False]])
        assert may_overlap(a, b, pairs).tolist() == [[False, False], [True, False]]


@st.composite
def slotted_masks(draw, disjoint=True, max_side=6):
    """Two lists of masks of one shape, each mask given a slot from a few
    drawn at random and the lists shuffled, so slots come out of order.

    Slot by slot a side is a label grid, so its masks are disjoint, or with
    ``disjoint`` false one random grid per mask, so they often overlap. Any
    mask may be all background or all foreground, and masks of one slot
    often touch across a column wrap.
    """
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    slots = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    sides = []
    for _ in range(2):
        side = []
        for slot in slots:
            labels = draw(arrays(np.int8, shape, elements=st.integers(0, 3)))
            for k in range(1, 4):
                grid = labels == k if disjoint else draw(grids(shape))
                if grid.any() or draw(st.booleans()):
                    side.append((rle_encode(grid), slot))
        side = draw(st.permutations(side))
        sides.append(([m for m, _ in side], [s for _, s in side]))
    return sides


def pairwise_intersections(a, slots_a, b, slots_b):
    return [
        (i, j, mask_intersection_area(x, y))
        for i, (x, s) in enumerate(zip(a, slots_a))
        for j, (y, t) in enumerate(zip(b, slots_b))
        if s == t and mask_intersection_area(x, y)
    ]


class TestIntervalTable:
    @given(slotted_masks())
    def test_intersections_equal_the_pairwise_areas(self, sides):
        (a, slots_a), (b, slots_b) = sides
        ta, tb = interval_table(a, slots_a), interval_table(b, slots_b)
        assert overlapping_masks(ta).size == overlapping_masks(tb).size == 0
        got = list(zip(*(col.tolist() for col in table_intersections(ta, tb))))
        assert got == pairwise_intersections(a, slots_a, b, slots_b)
        assert ta.area.tolist() == [m.area for m in a]

    @given(slotted_masks(disjoint=False))
    def test_overlaps_found_in_every_slot_that_has_one(self, sides):
        (masks, slots), _ = sides
        pairs = pairwise_intersections(masks, slots, masks, slots)
        clashing = {slots[i] for i, j, _ in pairs if i < j}
        owners = overlapping_masks(interval_table(masks, slots)).tolist()
        assert {slots[k] for k in owners} == clashing

    def test_intervals_are_sorted_and_placed_by_slot(self):
        full, empty = BinaryMask(2, 3, (0, 6)), BinaryMask(2, 3, (6,))
        wrap = BinaryMask(2, 3, (1, 2, 3))  # (1, 0) and (0, 1): across the column wrap
        table = interval_table([wrap, empty, full, full], [4, 0, 2, 3])
        assert table.starts.tolist() == [12, 18, 25]
        assert table.stops.tolist() == [18, 24, 27]
        assert table.owner.tolist() == [2, 3, 0]
        assert table.area.tolist() == [2, 0, 6, 6]
        assert overlapping_masks(table).size == 0  # frames 2 and 3 touch, never overlap
        assert overlapping_masks(interval_table([wrap, full], [1, 1])).tolist() == [0]

    def test_empty_tables(self):
        empty = interval_table([], [])
        one = interval_table([BinaryMask(2, 2, (1, 3))], [0])
        for a, b in ((empty, empty), (empty, one), (one, empty)):
            assert [col.size for col in table_intersections(a, b)] == [0, 0, 0]
        assert overlapping_masks(empty).size == 0

    def test_slot_past_int64_positions_refused(self):
        side = 2**31  # one frame holds 2**62 positions
        assert slot_capacity(side, side) == 1
        mask = BinaryMask(side, side, (3, 5, side * side - 8))
        assert interval_table([mask], [0]).stops.tolist() == [8]
        with pytest.raises(ShapeMismatch, match="int64"):
            interval_table([mask, mask], [0, 1])
        big = BinaryMask(2**40, 2**40, (2**80,))
        with pytest.raises(ShapeMismatch, match="int64"):
            interval_table([big], [0])
        with pytest.raises(ShapeMismatch, match="int64"):
            interval_table([BinaryMask(1, 1, (1,))], [-1])

    def test_mixed_dims_refused(self):
        with pytest.raises(ShapeMismatch):
            interval_table([BinaryMask(2, 2, (4,)), BinaryMask(1, 4, (4,))], [0, 1])


class TestMaskMerge:
    @given(grid_pairs())
    def test_ops_match_numpy(self, pair):
        g1, g2 = pair
        m1, m2 = rle_encode(g1), rle_encode(g2)
        for op, ref in (("union", g1 | g2), ("intersect", g1 & g2), ("subtract", g1 & ~g2)):
            got = mask_merge(m1, m2, op)
            # canonical runs, not only the same pixels
            assert got.counts == rle_encode(ref).counts, op
            assert (rle_decode(got) == ref).all(), op
        assert mask_intersection_area(m1, m2) == mask_merge(m1, m2, "intersect").area
        with pytest.raises(ValueError):
            mask_merge(m1, m2, "xor")


class TestExtent:
    @given(grid_pairs())
    def test_matches_numpy_bbox(self, pair):
        for grid in pair:
            mask = rle_encode(grid)
            if not grid.any():
                assert mask.extent is None
                continue
            rows = np.flatnonzero(grid.any(axis=1))
            cols = np.flatnonzero(grid.any(axis=0))
            assert mask.extent == (cols[0], cols[-1], rows[0], rows[-1])


class TestMaskToBbox:
    """The tight box of a mask, read from ``BinaryMask.extent``:
    ``(col_min, col_max, row_min, row_max)``, inclusive."""

    def test_full_mask(self):
        assert BinaryMask(4, 6, (0, 24)).extent == (0, 5, 0, 3)

    def test_single_pixel(self):
        grid = np.zeros((4, 6), dtype=np.uint8)
        grid[2, 3] = 1
        assert rle_encode(grid).extent == (3, 3, 2, 2)

    def test_l_shape(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[1:4, 0] = 1  # vertical bar rows 1-3
        grid[3, 0:3] = 1  # horizontal bar cols 0-2
        assert rle_encode(grid).extent == (0, 2, 1, 3)

    def test_empty_mask_flagged(self):
        assert BinaryMask(4, 4, (16,)).extent is None

    def test_matches_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            grid = random_mask(rng, 20)
            extent = rle_encode(grid).extent
            if not grid.any():
                assert extent is None
                continue
            rows = np.where(grid.any(axis=1))[0]
            cols = np.where(grid.any(axis=0))[0]
            col_min, col_max, row_min, row_max = extent
            assert (col_min, row_min) == (cols[0], rows[0])
            assert (col_max - col_min + 1, row_max - row_min + 1) == (
                cols[-1] - cols[0] + 1,
                rows[-1] - rows[0] + 1,
            )


class TestBBox:
    def test_identical(self):
        box = BBox(1, 2, 10, 20)
        assert bbox_iou(box, box) == 1.0

    def test_disjoint(self):
        assert bbox_iou(BBox(0, 0, 10, 10), BBox(30, 0, 10, 10)) == 0.0

    def test_half_overlap(self):
        assert bbox_iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_degenerate_is_zero(self):
        assert bbox_iou(BBox(0, 0, 0, 10), BBox(0, 0, 10, 10)) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 5)


class TestRectMask:
    def test_full_frame(self):
        assert rect_mask(4, 6, BBox(0, 0, 6, 4)).counts == (0, 24)

    @given(clipped_rects())
    def test_matches_numpy_raster(self, rect):
        h, w, box = rect
        x, y, bw, bh = int(box.x), int(box.y), int(box.w), int(box.h)
        ref = np.zeros((h, w), dtype=np.uint8)
        ref[y : min(h, y + bh), x : min(w, x + bw)] = 1
        got = rect_mask(h, w, box)
        assert got.counts == rle_encode(ref).counts
        assert (rle_decode(got) == ref).all()
