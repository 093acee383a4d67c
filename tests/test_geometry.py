from dataclasses import FrozenInstanceError
from unittest.mock import patch

import numpy as np
import pytest
from helpers import (
    assert_holds_its_runs,
    attention_by_decode,
    counts_token,
    reference_cannot_overlap,
    reference_cut,
    reference_interval_table,
    reference_mask_merge,
    token_counts,
)
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack import geometry
from masktrack.embedding import spatial_attentions
from masktrack.errors import MaskTrackError, ParseError, ShapeMismatch
from masktrack.geometry import (
    BBox,
    BinaryMask,
    bbox_iou,
    blocks,
    fill_caches,
    interval_table,
    mask_intersection_area,
    mask_iou,
    mask_merge,
    may_overlap,
    overlapping_masks,
    pair_intersections,
    rect_mask,
    rle_decode,
    rle_encode,
    rle_from_string,
    rle_from_strings,
    rle_to_string,
    rle_to_strings,
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

    def test_a_mask_is_its_dims_and_counts(self):
        """Equal, hashed, printed and frozen as ``(height, width, counts)``:
        the same runs on other dims are another mask."""
        mask = BinaryMask(2, 3, (1, 2, 3))
        assert mask == BinaryMask(2, 3, [1, 2, 3]) and hash(mask) == hash((2, 3, (1, 2, 3)))
        assert mask != BinaryMask(3, 2, (1, 2, 3)) and mask != BinaryMask(2, 3, (1, 3, 2))
        assert mask != (2, 3, (1, 2, 3))
        assert repr(mask) == "BinaryMask(height=2, width=3, counts=(1, 2, 3))"
        for name in ("height", "run_ends", "counts"):
            with pytest.raises(FrozenInstanceError):
                setattr(mask, name, 1)
        with pytest.raises(FrozenInstanceError):
            del mask.area

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

    @given(grid_pairs())
    def test_builds_the_checked_mask_with_its_caches(self, pair):
        """The mask passes the constructor's checks, and its run ends and
        area come filled with what it would compute on first use."""
        grid = pair[0]
        mask = rle_encode(grid)
        assert BinaryMask(*grid.shape, mask.counts) == mask
        assert all(type(c) is int for c in mask.counts)
        assert mask.__dict__["run_ends"].tolist() == np.cumsum(mask.counts).tolist()
        assert mask.__dict__["area"] == int(grid.sum())

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_dims_refused(self, shape):
        h, w = shape
        with pytest.raises(ShapeMismatch, match=f"^mask dims must be positive, got {h}x{w}$"):
            rle_encode(np.zeros(shape))

    def test_grid_not_2d_refused(self):
        with pytest.raises(ShapeMismatch, match="grid must be 2-D"):
            rle_encode(np.zeros(4))


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


def lengthen(token: str, at: int, extra: int) -> str:
    """``token`` with the value ending at character ``at`` written with
    ``extra`` needless continuation characters, as a non-canonical encoder
    might: the same low bits, then sign-fill groups."""
    negative = (ord(token[at]) - 48) & 16
    fill, last = ("o", "O") if negative else ("P", "0")
    return token[:at] + chr(ord(token[at]) + 32) + fill * (extra - 1) + last + token[at + 1 :]


# run lists small and large, up to a frame of 2**40 pixels and past it
BATCH_COUNTS = st.one_of(
    CANONICAL_COUNTS,
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
    st.sampled_from([[2**40], [0, 2**40], [1, 2**40 - 1], [2**40 - 3, 2, 1]]),
)


@st.composite
def token_batches(draw):
    """(tokens, heights, widths): tokens of drawn run lists, some written long
    (past 12 characters a value). Half the batches also hold faults: a
    character fuzzed, a token cut short, empty or arbitrary text, and dims
    that miss the counts, are 0, or make a 2**40 x 2**40 frame."""
    faulty = draw(st.booleans())
    edits = ["none", "none", "long"] + (["fuzz", "cut", "empty", "text"] if faulty else [])
    fits = ["fit", "fit"] + (["miss", "zero", "huge"] if faulty else [])
    tokens, heights, widths = [], [], []
    for _ in range(draw(st.integers(0, 10))):
        counts = draw(BATCH_COUNTS)
        token = counts_token(counts)
        edit = draw(st.sampled_from(edits))
        if edit == "long":
            ends = [i for i, c in enumerate(token) if c < "P"]
            token = lengthen(token, draw(st.sampled_from(ends)), draw(st.integers(1, 14)))
        elif edit == "fuzz":
            at = draw(st.integers(0, len(token) - 1))
            char = draw(st.characters(min_codepoint=40, max_codepoint=120) | st.just("é"))
            token = token[:at] + char + token[at + 1 :]
        elif edit == "cut":
            token = token[: draw(st.integers(0, len(token) - 1))]
        elif edit == "empty":
            token = ""
        elif edit == "text":
            token = draw(TOKEN_TEXT)
        total = sum(counts)
        height = draw(st.sampled_from([h for h in (1, 2, 3, 4) if total % h == 0]))
        dims = draw(st.sampled_from(fits))
        width = total // height + (dims == "miss")
        if dims == "zero":
            height = 0
        elif dims == "huge":
            height, width = 2**40, 2**40
        tokens.append(token)
        heights.append(height)
        widths.append(width)
    return tokens, heights, widths


def per_token(tokens, heights, widths):
    """(masks, None) from ``rle_from_string`` one token at a time, or the
    masks before the first error and ``(index, class, message)`` of it."""
    masks = []
    for k, (token, h, w) in enumerate(zip(tokens, heights, widths)):
        try:
            masks.append(rle_from_string(token, h, w))
        except MaskTrackError as exc:
            return masks, (k, type(exc), str(exc))
    return masks, None


class TestBlocks:
    @given(
        st.lists(st.one_of(st.just(0), st.integers(0, 20)), max_size=30),
        st.integers(1, 60),
        st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_slices_follow_the_greedy_rule(self, weights, budget, cap):
        """Consecutive slices that cover every item, each of 1 to ``cap``
        items, that end only at the last item, at ``cap`` items, or once
        their weight reaches the budget, and weigh under it less their last
        item: the rule of every loop ``blocks`` replaced."""
        cuts = blocks(weights, budget, cap)
        ends = [0, *(hi for _, hi in cuts)]
        assert cuts == list(zip(ends, ends[1:])) and ends[-1] == len(weights)
        limit = len(weights) if cap is None else cap
        for lo, hi in cuts:
            assert 1 <= hi - lo <= limit
            assert sum(weights[lo : hi - 1]) < budget
            assert hi == len(weights) or hi - lo == cap or sum(weights[lo:hi]) >= budget

    def test_the_default_budget_is_read_at_the_call(self):
        with patch.object(geometry, "_WEIGHT_BUDGET", 2):
            assert blocks([1, 1, 1, 1, 1]) == [(0, 2), (2, 4), (4, 5)]
        assert blocks([1, 1, 1, 1, 1]) == [(0, 5)]

    def test_a_heavy_item_fills_a_slice_alone_and_cap_cuts_light_ones(self):
        assert blocks([0, 9, 0, 0, 0, 0], 5) == [(0, 2), (2, 6)]
        assert blocks([0, 9, 0, 0, 0, 0], 5, cap=3) == [(0, 2), (2, 5), (5, 6)]
        assert blocks([], 5, cap=3) == []


class TestBatchEncode:
    @given(st.lists(BATCH_COUNTS, max_size=10), st.sampled_from([1, 5, 64, geometry._WEIGHT_BUDGET]), st.booleans())
    @example([[0, 2**40], [2**40], [3, 2**64 + 5, 7], [6], [1, 2**40 - 1]], 5, True)
    def test_matches_the_per_character_oracle(self, runs, block, decode):
        """Blocks of any size encode what the per-character oracle writes,
        from run ends the masks cached or the batch decoder filled; a frame
        past 2**40 pixels goes through ``rle_to_string``."""
        masks = [BinaryMask(1, sum(c), c) for c in runs]
        if decode:
            batch = [m for m in masks if m.width <= 2**40]
            decoded = iter(rle_from_strings([counts_token(m.counts) for m in batch], [1] * len(batch),
                                            [m.width for m in batch]))
            masks = [next(decoded) if m.width <= 2**40 else m for m in masks]
        with patch.object(geometry, "_WEIGHT_BUDGET", block):
            assert rle_to_strings(masks) == [counts_token(c) for c in runs]

    def test_an_empty_list(self):
        assert rle_to_strings([]) == []

    def test_a_small_budget_encodes_in_many_blocks(self):
        masks = [BinaryMask(4, 8, (3, 9, 20))] * 5  # 3 run ends each
        cuts = []

        def spy(*args):
            cuts.append(blocks(*args))
            return cuts[-1]

        with patch.object(geometry, "_WEIGHT_BUDGET", 6), patch.object(geometry, "blocks", spy):
            tokens = rle_to_strings(masks)
        assert cuts == [[(0, 2), (2, 4), (4, 5)]]
        assert tokens == [rle_to_string(m) for m in masks]


class TestBatchDecode:
    @given(token_batches(), st.sampled_from([1, 2, 5, 16, 64, geometry._WEIGHT_BUDGET]))
    @example((["04", "P04", "0}4", "o01"], [2, 2, 2, 4], [2, 2, 2, 8]), 2)
    @example((["4", "04", ""], [2, 2, 2], [2, 2, 2]), 1)
    @example(([counts_token([0, 2**40])], [2**40], [1]), 16)
    def test_matches_the_per_token_decoder(self, batch, block):
        """Blocks of any size decode what the per-token loop decodes, equal to
        the per-character oracle, or raise its first error at its index."""
        tokens, heights, widths = batch
        expected, error = per_token(tokens, heights, widths)
        with patch.object(geometry, "_WEIGHT_BUDGET", block):
            try:
                masks = rle_from_strings(tokens, heights, widths)
            except MaskTrackError as exc:
                assert (exc.index, type(exc), str(exc)) == error
                return
        assert error is None
        assert masks == expected
        assert [m.counts for m in masks] == [tuple(token_counts(t)) for t in tokens]

    @given(token_batches(), st.sampled_from([1, 5, 64, geometry._WEIGHT_BUDGET]))
    @example(([counts_token([3, 2**41 - 3])], [2**41], [1]), 64)
    def test_proven_masks_hold_their_run_ends_and_area(self, batch, block):
        """Every mask, whether the batch proves it or the constructor builds
        it through ``rle_from_string`` (a frame past 2**40 pixels, a value
        past 12 characters), holds read-only run ends, the exact running
        sums of the token's counts, and its area, and equals, hashes and
        prints as the mask rebuilt from those counts."""
        tokens, heights, widths = batch
        with patch.object(geometry, "_WEIGHT_BUDGET", block):
            try:
                masks = rle_from_strings(tokens, heights, widths)
            except MaskTrackError:
                return
        for m, token in zip(masks, tokens):
            assert_holds_its_runs(m, token_counts(token))

    def test_an_empty_batch(self):
        assert rle_from_strings([], [], []) == []

    def test_a_small_budget_decodes_in_many_blocks(self):
        token = rle_to_string(BinaryMask(4, 8, (3, 9, 20)))
        decode = patch.object(geometry, "_decode_block", wraps=geometry._decode_block)
        with patch.object(geometry, "_WEIGHT_BUDGET", len(token) * 2), decode as spy:
            masks = rle_from_strings([token] * 5, [4] * 5, [8] * 5)
        assert spy.call_count == 3
        assert masks == [BinaryMask(4, 8, (3, 9, 20))] * 5

    def test_lists_of_unequal_length_refused(self):
        tokens = [counts_token([3, 9, 20])] * 3
        with pytest.raises(ShapeMismatch, match="^3 tokens, 1 heights, 1 widths$"):
            rle_from_strings(tokens, [4], [8])

    def test_errors_name_the_first_bad_token_across_blocks(self):
        good = rle_to_string(BinaryMask(4, 8, (3, 9, 20)))
        tokens = [good] * 5 + ["0{4", good, "o"]
        with patch.object(geometry, "_WEIGHT_BUDGET", len(good) * 2):
            with pytest.raises(ParseError, match=r"^invalid character '\{' at 1$") as info:
                rle_from_strings(tokens, [4] * 8, [8] * 8)
        assert info.value.index == 5


    def test_proven_run_lists_skip_the_constructor_checks(self):
        """A token the batch proves is built without BinaryMask's re-check,
        into the fields the constructor would make; one it cannot prove still
        goes through the checks."""
        counts = [[3, 9, 20], [32], [0, 32], [1, 1, 30]]
        tokens = [counts_token(c) for c in counts]
        heights, widths = [np.int64(4)] * 4, [8] * 4
        checks = []
        original = BinaryMask.__init__

        def counted(mask, *args):
            checks.append(mask)
            original(mask, *args)

        with patch.object(BinaryMask, "__init__", counted):
            masks = rle_from_strings(tokens, heights, widths)
            assert checks == []
            with pytest.raises(ShapeMismatch, match=r"^counts sum 33 != 4\*8$"):
                rle_from_strings([*tokens, counts_token([1, 32])], heights + [4], widths + [8])
        assert masks == [BinaryMask(4, 8, c) for c in counts]
        for m, c in zip(masks, counts):
            assert (type(m.height), type(m.width), type(m.counts)) == (int, int, tuple)
            assert m.counts == tuple(c) and all(type(x) is int for x in m.counts)


@st.composite
def mask_lists(draw):
    """Masks of mixed small dims: empty, full, or cut at random pixels,
    background or foreground first, so that runs wrap past columns."""
    masks = []
    for _ in range(draw(st.integers(0, 12))):
        h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        cuts = sorted(draw(st.sets(st.integers(1, h * w), max_size=10)) - {h * w})
        counts = np.diff([0, *cuts, h * w]).tolist()
        if draw(st.booleans()):
            counts = [0, *counts]
        masks.append(BinaryMask(h, w, counts))
    return masks


class TestFillCaches:
    @given(mask_lists(), st.sampled_from([1, 5, geometry._WEIGHT_BUDGET]))
    def test_fills_the_extent_each_mask_computes(self, masks, block):
        """In blocks of any number of runs."""
        with patch.object(geometry, "_WEIGHT_BUDGET", block):
            fill_caches(masks)
        for m in masks:
            assert m.__dict__["extent"] == BinaryMask(m.height, m.width, m.counts).extent

    def test_a_small_budget_reads_in_many_blocks(self):
        masks = [BinaryMask(4, 8, (3, 9, 20)) for _ in range(5)]  # 3 run ends each
        fill = patch.object(geometry, "_fill_extents", wraps=geometry._fill_extents)
        with patch.object(geometry, "_WEIGHT_BUDGET", 6), fill as spy:
            fill_caches(masks)
        assert spy.call_count == 3
        assert [m.__dict__["extent"] for m in masks] == [BinaryMask(4, 8, (3, 9, 20)).extent] * 5

    def test_frames_past_the_batch_area_or_int64_are_no_refusal(self):
        """Frames past 2**40 pixels, more of them than slot_capacity allows,
        are filled exactly; a frame past int64 is left to fill its own extent."""
        h, w = 1 << 31, 1 << 31  # 2**62 pixels: one slot per table
        masks = [BinaryMask(h, w, (5, h * w - 5)), BinaryMask(h, w, (h * w - 7, 7)),
                 BinaryMask(h, w, (0, h * w)), BinaryMask(h, w, (h * w,))]
        past = BinaryMask(1 << 40, 1 << 30, (1, (1 << 70) - 1))
        assert slot_capacity(h, w) < len(masks)
        fill_caches([*masks, past])
        for m in masks:
            assert m.__dict__["extent"] == BinaryMask(m.height, m.width, m.counts).extent
        assert "extent" not in past.__dict__
        assert (past.area, past.extent) == (2**70 - 1, (0, 2**30 - 1, 0, 2**40 - 1))


class TestOneRunEndLayout:
    @given(mask_lists(), st.sampled_from([None, 1, 5, 64]), st.data())
    def test_every_many_mask_reader_equals_the_per_mask_values(self, masks, block, data):
        """``interval_table`` equals the padded-count reference, and
        ``pair_intersections``, ``spatial_attentions`` and ``fill_caches``
        equal each mask's own values, bit for bit: whether the run ends were
        cached by the batch decoder (in blocks of ``block`` characters) or by
        the masks themselves. Masks may be empty or full, and their runs
        often wrap past a column."""
        fresh = [BinaryMask(m.height, m.width, m.counts) for m in masks]
        if block:
            tokens = [rle_to_string(m) for m in masks]
            with patch.object(geometry, "_WEIGHT_BUDGET", block):
                masks = rle_from_strings(tokens, [m.height for m in masks], [m.width for m in masks])
            assert all("run_ends" in m.__dict__ for m in masks)
        by_dims = {}
        for k, m in enumerate(masks):
            by_dims.setdefault((m.height, m.width), []).append(k)
        for ks in by_dims.values():
            slots = data.draw(st.lists(st.integers(0, 3), min_size=len(ks), max_size=len(ks)))
            got = interval_table([masks[k] for k in ks], slots)
            want = reference_interval_table([fresh[k] for k in ks], slots)
            for col, ref in zip(got, want):
                assert col.dtype == ref.dtype and col.tolist() == ref.tolist()
        same = [(i, j) for i, a in enumerate(masks) for j, b in enumerate(masks)
                if (a.height, a.width) == (b.height, b.width)]
        pairs = data.draw(st.lists(st.sampled_from(same), max_size=12)) if same else []
        ia, ib = [i for i, _ in pairs], [j for _, j in pairs]
        assert pair_intersections(masks, masks, ia, ib).tolist() == [
            mask_intersection_area(fresh[i], fresh[j]) for i, j in pairs]
        coord, size = st.floats(-4.0, 12.0), st.floats(0.25, 12.0)
        boxes = [BBox(*data.draw(st.tuples(coord, coord, size, size))) for _ in masks]
        grid_h, grid_w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        attns = spatial_attentions(masks, boxes, grid_h, grid_w)
        for m, box, attn in zip(fresh, boxes, attns):
            assert attn.tobytes() == attention_by_decode(m, box, grid_h, grid_w).tobytes()
        fill_caches(masks)
        assert [m.__dict__["extent"] for m in masks] == [m.extent for m in fresh]


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
        for op in (mask_iou, mask_intersection_area):
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
        assert not (reference_cannot_overlap(m1, m2) and inter)
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
        lengths, in_a, in_b = reference_cut(a, b)
        np.testing.assert_array_equal(np.cumsum(lengths), np.union1d(a.run_ends, b.run_ends))
        for grid, flags in zip(pair, (in_a, in_b)):
            pixels = np.repeat(flags, lengths)
            np.testing.assert_array_equal(pixels, grid.ravel(order="F"))


@st.composite
def mask_list_pairs(draw, max_side=16):
    """Two lists of masks of one shape, taken from grid pairs, so that pairs
    across the lists lie apart, touch, share a line or overlap."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    pairs = draw(st.lists(grid_pairs(shape=shape), min_size=1, max_size=4))
    a = [rle_encode(g1) for g1, _ in pairs]
    b = [rle_encode(g2) for _, g2 in pairs]
    return a[: draw(st.integers(0, len(a)))], b


class TestMayOverlap:
    @given(mask_list_pairs(), st.data())
    def test_agrees_with_cannot_overlap_on_every_pair(self, lists, data):
        a, b = lists
        every = [(i, j) for i in range(len(a)) for j in range(len(b))]
        pairs = data.draw(st.lists(st.sampled_from(every), max_size=12)) if every else []
        ia, ib = [i for i, _ in pairs], [j for _, j in pairs]
        expected = [not reference_cannot_overlap(a[i], b[j]) for i, j in pairs]
        assert may_overlap(a, b, ia, ib).tolist() == expected
        # one list on both sides, as dedup passes it
        both = [(i, j) for i in range(len(b)) for j in range(len(b))]
        expected = [not reference_cannot_overlap(b[i], b[j]) for i, j in both]
        assert may_overlap(b, b, *zip(*both)).tolist() == expected

    def test_dims_checked_only_on_the_pairs_asked_about(self):
        a = [BinaryMask(4, 4, (16,)), BinaryMask(4, 4, (0, 16))]
        b = [BinaryMask(4, 4, (0, 16)), BinaryMask(5, 5, (0, 25))]
        with pytest.raises(ShapeMismatch, match="4x4 vs 5x5"):
            may_overlap(a, b, [0, 1, 1], [0, 0, 1])
        assert may_overlap(a, b, [0, 1], [0, 0]).tolist() == [False, True]
        assert may_overlap(a, b, [], []).tolist() == []


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

    def test_mixed_dims_error_names_the_first_mask_that_differs(self):
        masks = [BinaryMask(2, 2, (4,)), BinaryMask(2, 2, (0, 4)), BinaryMask(1, 4, (4,)), BinaryMask(3, 3, (9,))]
        with pytest.raises(ShapeMismatch, match="^mask dims differ: 2x2 vs 1x4$"):
            interval_table(masks, [0, 1, 2, 3])

    def test_lists_of_unequal_length_refused(self):
        mask = BinaryMask(2, 2, (1, 3))
        with pytest.raises(ShapeMismatch, match="^3 masks but 2 slots$"):
            interval_table([mask] * 3, [0, 1])


@st.composite
def paired_masks(draw, max_side=8):
    """Two lists of masks of one shape and pairs between them. Each mask is
    its own grid, so masks of one side often overlap; any mask may be empty
    or full, or have runs that wrap past a column. A mask may be in many
    pairs, and there may be no pair at all."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    a = [rle_encode(draw(grids(shape))) for _ in range(draw(st.integers(1, 4)))]
    b = [rle_encode(draw(grids(shape))) for _ in range(draw(st.integers(1, 4)))]
    pair = st.tuples(st.integers(0, len(a) - 1), st.integers(0, len(b) - 1))
    return a, b, draw(st.lists(pair, max_size=10))


class TestPairIntersections:
    @given(paired_masks())
    def test_equals_the_pairwise_area(self, drawn):
        a, b, pairs = drawn
        ia = np.array([i for i, _ in pairs], dtype=np.int64)
        ib = np.array([j for _, j in pairs], dtype=np.int64)
        got = pair_intersections(a, b, ia, ib)
        assert got.dtype == np.int64
        assert got.tolist() == [mask_intersection_area(a[i], b[j]) for i, j in pairs]

    def test_wrapping_runs_and_repeated_masks(self):
        full, empty = BinaryMask(2, 3, (0, 6)), BinaryMask(2, 3, (6,))
        wrap = BinaryMask(2, 3, (1, 2, 3))  # (1, 0) and (0, 1): across the column wrap
        lower = BinaryMask(2, 3, (1, 1, 1, 1, 1, 1))  # the bottom row
        a, b = [wrap, full, empty], [lower, wrap, full]
        ia, ib = np.array([0, 0, 0, 1, 1, 2, 0]), np.array([0, 1, 2, 0, 2, 2, 0])
        assert pair_intersections(a, b, ia, ib).tolist() == [1, 2, 2, 3, 6, 0, 1]
        assert pair_intersections(a, b, [], []).tolist() == []

    def test_pairs_of_different_frames(self):
        small, big = BinaryMask(2, 2, (1, 2, 1)), BinaryMask(3, 3, (0, 5, 4))
        pairs = [small, big], [big, small]
        assert pair_intersections(*pairs, [0, 1, 0], [1, 0, 1]).tolist() == [2, 5, 2]
        with pytest.raises(ShapeMismatch, match="mask dims differ: 3x3 vs 2x2"):
            pair_intersections(*pairs, [0, 1], [1, 1])

    def test_slots_past_int64_positions_refused(self):
        side = 2**31  # one frame holds 2**62 positions
        mask = BinaryMask(side, side, (3, 5, side * side - 8))
        assert pair_intersections([mask], [mask], [0], [0]).tolist() == [5]
        with pytest.raises(ShapeMismatch, match="int64"):
            pair_intersections([mask], [mask], [0, 0], [0, 0])

    def test_index_lists_of_unequal_length_refused(self):
        a, b = [BinaryMask(5, 5, (0, 25)), BinaryMask(5, 5, (25,))], [BinaryMask(5, 5, (0, 25))]
        with pytest.raises(ShapeMismatch, match="^2 indices into a but 1 into b$"):
            pair_intersections(a, b, [0, 1], [0])


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

    @given(run_mask_pairs())
    def test_equals_the_run_cut_reference(self, pair):
        """On masks made from run lists, each op gives the run cut's
        canonical mask, with its run ends and area as the mask computes them."""
        a, b = pair
        for op in ("union", "intersect", "subtract"):
            got = mask_merge(a, b, op)
            assert got == reference_mask_merge(a, b, op), op
            assert got.run_ends.tolist() == np.cumsum(got.counts).tolist(), op
            assert got.area == sum(got.counts[1::2]), op

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="^mask dims differ: 2x2 vs 2x3$"):
            mask_merge(BinaryMask(2, 2, (4,)), BinaryMask(2, 3, (6,)), "union")


class TestFramesPastInt64:
    """A frame of more pixels than int64 positions hold is refused by the
    one-pair operations, as by every batch kernel they are cases of."""

    H, W = 1 << 40, 1 << 30

    def masks(self):
        n = self.H * self.W
        return BinaryMask(self.H, self.W, (1, n - 1)), BinaryMask(self.H, self.W, (0, 2, n - 2))

    def test_mask_iou_refuses(self):
        for op in (mask_iou, mask_intersection_area):
            with pytest.raises(ShapeMismatch, match="int64"):
                op(*self.masks())

    @pytest.mark.parametrize("op", ["union", "intersect", "subtract"])
    def test_mask_merge_refuses(self, op):
        with pytest.raises(ShapeMismatch, match="int64"):
            mask_merge(*self.masks(), op)

    def test_run_ends_are_exact_python_ints(self):
        """Run ends past int64 are neither rounded nor wrapped, and the
        extent read from them is exact."""
        wide = BinaryMask(1, 2**64 + 2, (2**64 - 20, 10, 12))
        assert wide.extent == (2**64 - 20, 2**64 - 11, 0, 0)
        assert_holds_its_runs(wide, (2**64 - 20, 10, 12))
        tall = BinaryMask(2**32, 2**31, (2**62, 2**62))
        assert tall.run_ends[-1] == 2**63 and tall.extent == (2**30, 2**31 - 1, 0, 2**32 - 1)
        assert_holds_its_runs(tall, (2**62, 2**62))
        # the largest frame int64 holds keeps int64 run ends
        assert_holds_its_runs(BinaryMask(1, 2**63 - 1, (5, 2**63 - 6)), (5, 2**63 - 6))

    def test_the_largest_frame_int64_holds_is_merged(self):
        """A 2**31 x 2**31 frame still fits: one slot of 2**62 positions."""
        h = w = 1 << 31
        n = h * w
        a, b = BinaryMask(h, w, (3, 5, n - 8)), BinaryMask(h, w, (5, 10, n - 15))
        assert mask_iou(a, b) == 3 / 12
        for op in ("union", "intersect", "subtract"):
            assert mask_merge(a, b, op) == reference_mask_merge(a, b, op), op


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

    @given(clipped_rects())
    def test_equals_the_checked_constructor(self, rect):
        h, w, box = rect
        got = rect_mask(h, w, box)
        built = BinaryMask(h, w, rle_encode(rle_decode(got)).counts)
        assert got == built and hash(got) == hash(built)
        assert got.area == built.area and rle_to_string(got) == rle_to_string(built)
        assert got.run_ends.dtype == np.int64 and not got.run_ends.flags.writeable

    def test_a_frame_past_int64_keeps_exact_run_ends(self):
        side = 2**33
        got = rect_mask(side, side, BBox(3, 5, 2, 7))
        assert got == BinaryMask(side, side, (3 * side + 5, 7, side - 7, 7, side * side - 4 * side - 12))
        assert got.area == 14

    def test_dims_must_be_integers(self):
        with pytest.raises(ShapeMismatch):
            rect_mask(10.0, 12, BBox(1, 1, 2, 2))
