import math

import numpy as np
import pytest
from helpers import attention_by_decode
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack.embedding import (
    FeatureBank,
    bank_cross_similarities,
    bank_cross_similarity,
    bank_similarities,
    bank_similarity,
    bank_update,
    cosine_similarity,
    instance_aware_pool,
    l2_normalize,
    merge_banks,
    spatial_attention,
    spatial_attentions,
)
from masktrack.errors import DegenerateInput, OutOfOrderFrame, ShapeMismatch
from masktrack.geometry import BBox, BinaryMask, rle_encode, slot_capacity


class TestSpatialAttention:
    def test_fully_foreground(self):
        mask = BinaryMask(8, 8, (0, 64))
        attn = spatial_attention(mask, BBox(0, 0, 8, 8), 3, 3)
        assert (attn == 1.0).all()

    def test_fully_background(self):
        mask = BinaryMask(8, 8, (64,))
        attn = spatial_attention(mask, BBox(0, 0, 8, 8), 3, 3)
        assert (attn == 0.5).all()

    def test_left_half_foreground(self):
        grid = np.zeros((8, 8), dtype=np.uint8)
        grid[:, :4] = 1
        attn = spatial_attention(rle_encode(grid), BBox(0, 0, 8, 8), 2, 2)
        assert (attn[:, 0] == 1.0).all()
        assert (attn[:, 1] == 0.5).all()

    def test_values_restricted(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            grid = (rng.random((16, 16)) < 0.5).astype(np.uint8)
            attn = spatial_attention(rle_encode(grid), BBox(2, 3, 9, 7), 4, 5)
            assert set(np.unique(attn)) <= {0.5, 1.0}

    def test_box_outside_image_is_background(self):
        mask = BinaryMask(4, 4, (0, 16))
        attn = spatial_attention(mask, BBox(10, 10, 4, 4), 2, 2)
        assert (attn == 0.5).all()

    def test_empty_box(self):
        with pytest.raises(DegenerateInput, match="zero-area box"):
            spatial_attention(BinaryMask(4, 4, (16,)), BBox(0, 0, 0, 4), 2, 2)


@st.composite
def attention_cases(draw):
    """A mask, a box that may reach past any image edge, and a grid size."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    grid = draw(arrays(np.bool_, (h, w), elements=st.booleans()))
    coord = st.floats(-6.0, 22.0, allow_nan=False)
    size = st.floats(0.25, 24.0, allow_nan=False)
    box = BBox(draw(coord), draw(coord), draw(size), draw(size))
    return rle_encode(grid), box, draw(st.integers(1, 8)), draw(st.integers(1, 8))


class TestSpatialAttentionProperty:
    @given(attention_cases())
    def test_matches_decoded_frame(self, case):
        mask, box, grid_h, grid_w = case
        np.testing.assert_array_equal(
            spatial_attention(mask, box, grid_h, grid_w),
            attention_by_decode(mask, box, grid_h, grid_w),
        )


@st.composite
def attention_batches(draw):
    """Masks of mixed small dims, each under a box that may reach past any
    image edge, and one grid size for all."""
    masks, boxes = [], []
    coord = st.floats(-6.0, 22.0, allow_nan=False)
    size = st.floats(0.25, 24.0, allow_nan=False)
    for _ in range(draw(st.integers(0, 8))):
        h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        masks.append(rle_encode(draw(arrays(np.bool_, (h, w), elements=st.booleans()))))
        boxes.append(BBox(draw(coord), draw(coord), draw(size), draw(size)))
    return masks, boxes, draw(st.integers(1, 6)), draw(st.integers(1, 6))


class TestSpatialAttentions:
    @given(attention_batches())
    def test_each_entry_is_its_masks_attention(self, batch):
        """Entry k is mask k's attention alone, bit for bit, and the grid
        read from its decoded frame."""
        masks, boxes, grid_h, grid_w = batch
        attns = spatial_attentions(masks, boxes, grid_h, grid_w)
        assert attns.shape == (len(masks), grid_h, grid_w) and attns.dtype == np.float64
        for mask, box, attn in zip(masks, boxes, attns):
            assert attn.tobytes() == spatial_attention(mask, box, grid_h, grid_w).tobytes()
            np.testing.assert_array_equal(attn, attention_by_decode(mask, box, grid_h, grid_w))

    def test_a_cell_outside_the_image_is_background(self):
        full = BinaryMask(4, 4, (0, 16))
        attns = spatial_attentions([full, full], [BBox(0, 0, 4, 4), BBox(2, -2, 4, 4)], 2, 2)
        assert (attns[0] == 1.0).all()
        np.testing.assert_array_equal(attns[1], [[0.5, 0.5], [1.0, 0.5]])

    def test_more_frames_than_int64_positions_hold(self):
        """Frames of 2**62 pixels, more than one table slot holds, each get
        the attention they get alone."""
        h = w = 1 << 31
        masks = [BinaryMask(h, w, (3, 4, h * w - 7)), BinaryMask(h, w, (h * w - 7, 7)),
                 BinaryMask(h, w, (h * w,))]
        boxes = [BBox(0, 0, 1, 8), BBox(w - 2, h - 2, 4, 4), BBox(1, 1, 2, 2)]
        assert slot_capacity(h, w) < len(masks)
        attns = spatial_attentions(masks, boxes, 2, 2)
        for mask, box, attn in zip(masks, boxes, attns):
            assert attn.tobytes() == spatial_attention(mask, box, 2, 2).tobytes()
        np.testing.assert_array_equal(attns[:, :, 0], [[0.5, 1.0], [1.0, 0.5], [0.5, 0.5]])

    def test_no_masks_and_bad_inputs(self):
        assert spatial_attentions([], [], 2, 3).shape == (0, 2, 3)
        mask = BinaryMask(4, 4, (16,))
        with pytest.raises(DegenerateInput, match="zero-area box"):
            spatial_attentions([mask, mask], [BBox(0, 0, 2, 2), BBox(0, 0, 2, 0)], 2, 2)
        with pytest.raises(ShapeMismatch, match="grid dims must be positive"):
            spatial_attentions([mask], [BBox(0, 0, 2, 2)], 0, 2)

    def test_lists_of_unequal_length_refused(self):
        """Each mask needs its own box: neither list is broadcast over the other."""
        mask, box = BinaryMask(4, 4, (5, 6, 5)), BBox(0, 0, 4, 4)
        with pytest.raises(ShapeMismatch, match="^3 masks but 1 boxes$"):
            spatial_attentions([mask] * 3, [box], 2, 2)
        with pytest.raises(ShapeMismatch, match="^1 masks but 3 boxes$"):
            spatial_attentions([mask], [box] * 3, 2, 2)


class TestInstanceAwarePool:
    def test_constant_map_pools_to_constant(self):
        fmap = np.full((3, 3, 4), 2.5)
        attn = np.full((3, 3), 0.5)
        attn[0, 0] = 1.0
        pooled = instance_aware_pool(fmap, attn)
        assert pooled == pytest.approx([0.5] * 4)  # the unit vector along (2.5, ...)

    def test_weighted_mean_hand_case(self):
        fmap = np.array([[[1.0, 1.0], [3.0, 1.0]]])  # 1x2 grid, two channels
        attn = np.array([[1.0, 0.5]])
        pooled = instance_aware_pool(fmap, attn)
        # weighted means 5/3 and 1: the direction keeps their ratio
        assert pooled[0] / pooled[1] == pytest.approx(5 / 3)

    def test_uniform_attention_equals_mean_pool(self):
        rng = np.random.default_rng(4)
        fmap = rng.normal(size=(5, 4, 7))
        attn = np.ones((5, 4))
        pooled = instance_aware_pool(fmap, attn)
        np.testing.assert_array_equal(pooled, l2_normalize(fmap.mean(axis=(0, 1))))

    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(6)
        fmap = rng.normal(size=(3, 3, 8))
        attn = np.where(rng.random((3, 3)) < 0.5, 1.0, 0.5)
        pooled = instance_aware_pool(fmap, attn)
        assert np.linalg.norm(pooled) == pytest.approx(1.0, abs=1e-9)

    def test_zero_map_left_unnormalized(self):
        pooled = instance_aware_pool(np.zeros((2, 2, 3)), np.ones((2, 2)))
        assert (pooled == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            instance_aware_pool(np.zeros((2, 2, 3)), np.ones((3, 2)))


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([0.3, -2.0, 5.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_value(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            alpha = float(rng.uniform(0.01, 100.0))
            assert cosine_similarity(a, b) == pytest.approx(
                cosine_similarity(b, a), abs=1e-15
            )
            assert cosine_similarity(alpha * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-12
            )
            assert -1.0 <= cosine_similarity(a, b) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cosine_similarity([1.0], [1.0, 2.0])


def build_bank(vectors, size=5):
    bank = FeatureBank(size)
    for frame, vec in enumerate(vectors, start=1):
        bank = bank_update(bank, np.asarray(vec, dtype=float), frame)
    return bank


class TestFeatureBank:
    def test_few_updates_fill_head_and_tail(self):
        bank = build_bank([[1, 0], [0, 1], [1, 1]])
        assert list(bank.frames) == [1, 2, 3]

    def test_twelve_updates_keep_first_and_last_five(self):
        bank = build_bank([[float(i), 1.0] for i in range(12)])
        assert list(bank.frames) == [1, 2, 3, 4, 5, 8, 9, 10, 11, 12]

    def test_non_monotonic_frame_rejected(self):
        bank = build_bank([[1, 0]])
        with pytest.raises(OutOfOrderFrame, match="frame 1 not after bank frame 1"):
            bank_update(bank, np.array([0.0, 1.0]), 1)

    def test_similarity_picks_identical_entry(self):
        q = np.array([0.0, 1.0])
        bank = build_bank([[1, 0], [0, 1]])
        assert bank_similarity(bank, [q])[0] == pytest.approx(1.0)

    def test_singleton_bank(self):
        q = np.array([2.0, 0.0])
        bank = build_bank([[1, 0]])
        assert bank_similarity(bank, [q])[0] == pytest.approx(1.0)

    def test_equal_pairwise_sims(self):
        q = np.array([1.0, 1.0]) / np.sqrt(2)
        bank = build_bank([[1, 0], [0, 1]])
        assert bank_similarity(bank, [q])[0] == pytest.approx(1 / np.sqrt(2))

    def test_empty_bank_raises(self):
        with pytest.raises(DegenerateInput, match="empty feature bank"):
            bank_similarity(FeatureBank(), np.array([[1.0]]))

    def test_update_rejects_an_embedding_of_another_width(self):
        bank = build_bank([[1, 0, 0, 0]])
        with pytest.raises(ShapeMismatch, match="embedding width 3 != bank width 4"):
            bank_update(bank, np.ones(3), 2)

    def test_update_rejects_an_embedding_that_is_not_1d(self):
        bank = build_bank([[1, 0, 0, 0]])
        with pytest.raises(ShapeMismatch, match="must be 1-D"):
            bank_update(bank, np.ones((1, 4)), 2)
        with pytest.raises(ShapeMismatch, match="must be 1-D"):
            bank_update(FeatureBank(), np.float64(1.0), 1)

    def test_similarity_takes_a_stack_of_queries(self):
        bank = build_bank([[1, 0], [0, 1]])
        sims = bank_similarity(bank, np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 0.0]]))
        assert sims.shape == (3,)
        assert sims.tolist() == [pytest.approx(1 / np.sqrt(2)), 0.0, 0.0]
        assert bank_similarity(bank, np.empty((0, 2))).shape == (0,)
        for queries in (np.array([1.0, 1.0]), np.ones((1, 1, 2))):
            with pytest.raises(ShapeMismatch, match=r"an \(n, d\) stack"):
                bank_similarity(bank, queries)

    def test_stacked_similarity_checks_every_bank(self):
        banks = [build_bank([[1, 0]]), build_bank([[0, 1], [1, 1]])]
        assert bank_similarities(banks, np.array([[1.0, 0.0]])).tolist() == [
            [1.0], [pytest.approx(1 / np.sqrt(2))]]
        assert bank_similarities([], np.ones((3, 2))).shape == (0, 3)
        with pytest.raises(DegenerateInput, match="empty feature bank"):
            bank_similarities([banks[0], FeatureBank()], np.ones((1, 2)))
        with pytest.raises(ShapeMismatch, match=r"bank widths differ: \[2, 3\]"):
            bank_similarities([banks[0], build_bank([[1, 0, 0]])], np.ones((1, 2)))

    def test_similarity_rejects_a_query_of_another_width(self):
        bank = build_bank([[1, 0, 0, 0]])
        with pytest.raises(ShapeMismatch, match="embedding widths differ: 4 vs 1"):
            bank_similarity(bank, np.ones((1, 1)))

    def test_matches_brute_force_max(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            vecs = rng.normal(size=(int(rng.integers(1, 15)), 4))
            bank = build_bank(vecs.tolist())
            q = rng.normal(size=4)
            ref = max(cosine_similarity(v, q) for v in bank.rows)
            assert bank_similarity(bank, [q])[0] == ref
            assert bank_similarity(bank, [q])[0] <= 1.0

    def test_cross_similarity(self):
        a = build_bank([[1, 0]])
        b = build_bank([[0, 1], [1, 0]])
        assert bank_cross_similarity(a, b) == pytest.approx(1.0)

    def test_cross_similarities_check_every_bank(self):
        a = build_bank([[1, 0]])
        banks = [build_bank([[0, 1], [1, 0]]), build_bank([[0, 1]]), build_bank([[1, 1]])]
        assert bank_cross_similarities(a, banks).tolist() == [
            1.0, 0.0, pytest.approx(1 / np.sqrt(2))]
        assert bank_cross_similarities(a, []).shape == (0,)
        with pytest.raises(DegenerateInput, match="empty feature bank"):
            bank_cross_similarities(a, [banks[0], FeatureBank()])
        with pytest.raises(DegenerateInput, match="empty feature bank"):
            bank_cross_similarities(FeatureBank(), banks)
        with pytest.raises(ShapeMismatch, match=r"bank widths differ: \[2, 3\]"):
            bank_cross_similarities(a, [banks[0], build_bank([[1, 0, 0]])])
        with pytest.raises(ShapeMismatch, match="embedding widths differ: 3 vs 2"):
            bank_cross_similarities(build_bank([[1, 0, 0]]), banks)

    def test_merge_banks_keeps_boundary_frames(self):
        early = build_bank([[float(i), 1.0] for i in range(8)])  # frames 1..8
        late = FeatureBank(5)
        for frame in range(20, 32):
            late = bank_update(late, np.array([0.0, float(frame)]), frame)
        merged = merge_banks(early, late)
        assert list(merged.frames) == [1, 2, 3, 4, 5, 27, 28, 29, 30, 31]

    def test_merge_banks_short_fragments(self):
        early = build_bank([[1.0, 0.0]] * 2)  # frames 1, 2
        late = FeatureBank(5)
        for frame in (10, 11):
            late = bank_update(late, np.array([0.0, 1.0]), frame)
        merged = merge_banks(early, late)
        assert list(merged.frames) == [1, 2, 10, 11]


def frame_runs(max_len):
    """Strictly increasing frames from 1 on, with skips."""
    return st.lists(st.integers(1, 4), max_size=max_len).map(
        lambda steps: [sum(steps[: k + 1]) for k in range(len(steps))]
    )


def updated(bank, frames):
    for f in frames:
        bank = bank_update(bank, np.array([float(f), 1.0]), f)
    return bank


class TestFeatureBankProperties:
    @given(st.integers(1, 6), frame_runs(30))
    def test_entries_are_the_distinct_first_and_last_frames(self, size, frames):
        bank = updated(FeatureBank(size), frames)
        expected = sorted(set(frames[:size]) | set(frames[-size:]))
        assert list(bank.frames) == expected
        assert all(v[0] == f for f, v in zip(bank.frames, bank.rows))
        assert len(bank) == len(expected)

    @given(st.integers(1, 6), frame_runs(30), st.integers(0, 30))
    def test_merge_equals_building_from_both_fragments(self, size, frames, cut):
        earlier, later = frames[:cut], frames[cut:]
        merged = merge_banks(updated(FeatureBank(size), earlier), updated(FeatureBank(size), later))
        whole = updated(FeatureBank(size), frames)
        assert merged.size == whole.size
        assert len(merged.frames) == len(whole.frames)
        assert merged.frames == whole.frames and np.array_equal(merged.rows, whole.rows)


# Magnitudes below 1e-3 become exact zeros, so no squared norm underflows
# and many rows hold zeros.
ELEMENT = st.floats(-10.0, 10.0, allow_subnormal=False).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


@st.composite
def row_sets(draw, width):
    """1-10 rows of ``width`` values; any of them may be a zero row."""
    n = draw(st.integers(1, 10))
    rows = draw(arrays(float, (n, width), elements=ELEMENT))
    rows[draw(arrays(bool, n))] = 0.0
    return rows


def fsum_cosine(a, b):
    """The cosine with every sum taken exactly."""
    sq = math.fsum(x * x for x in a) * math.fsum(y * y for y in b)
    if sq == 0.0:
        return 0.0
    return min(1.0, max(-1.0, math.fsum(x * y for x, y in zip(a, b)) / math.sqrt(sq)))


class TestMaxCosineProperty:
    """Widths from 8 on reach numpy's unrolled sum, where a matmul or a sum
    over other rows would round differently."""

    @given(st.data(), st.integers(1, 40))
    def test_bank_similarities_are_the_max_of_pairwise_cosines(self, data, width):
        a, b = data.draw(row_sets(width)), data.draw(row_sets(width))
        bank_a = build_bank(a)  # a size-5 bank keeps all of up to ten rows
        pairs = [[cosine_similarity(x, y) for y in b] for x in a]
        cross = bank_cross_similarity(bank_a, build_bank(b))
        assert cross == max(max(row) for row in pairs)
        for j, y in enumerate(b):
            assert bank_similarity(bank_a, [y])[0] == max(row[j] for row in pairs)
        # a stack of queries gives each query's own value, bit for bit
        assert bank_similarity(bank_a, b).tolist() == [bank_similarity(bank_a, [y])[0] for y in b]
        assert abs(cross - max(fsum_cosine(x, y) for x in a for y in b)) <= 1e-12
        assert all(pairs[i][j] == 0.0 for i, x in enumerate(a) for j, y in enumerate(b)
                   if not (x.any() and y.any()))

    @given(st.data(), st.integers(1, 40))
    def test_stacked_banks_give_each_bank_its_own_values(self, data, width):
        banks = [build_bank(data.draw(row_sets(width))) for _ in range(data.draw(st.integers(1, 5)))]
        queries = data.draw(row_sets(width))
        stacked = bank_similarities(banks, queries)
        assert stacked.shape == (len(banks), len(queries))
        for row, bank in zip(stacked.tolist(), banks):
            # bit for bit: each query's largest cosine over this bank's rows alone
            assert row == [max(cosine_similarity(x, y) for x in bank.rows) for y in queries]
            assert row == bank_similarity(bank, queries).tolist()

    @given(st.data(), st.integers(1, 40))
    def test_stacked_cross_banks_give_each_bank_its_own_value(self, data, width):
        bank = build_bank(data.draw(row_sets(width)))
        banks = [build_bank(data.draw(row_sets(width))) for _ in range(data.draw(st.integers(1, 5)))]
        # bit for bit: the largest cosine over every pair of rows of the two banks alone
        assert bank_cross_similarities(bank, banks).tolist() == [
            max(cosine_similarity(x, y) for x in bank.rows for y in other.rows) for other in banks]
        assert bank_cross_similarities(bank, banks).tolist() == [
            bank_cross_similarity(bank, other) for other in banks]


class TestL2Normalize:
    def test_unit_output(self):
        v = l2_normalize(np.array([3.0, 4.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_passthrough(self):
        assert (l2_normalize(np.zeros(3)) == 0).all()
