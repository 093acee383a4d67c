#!/usr/bin/env python3
"""Masks as run-length encodings: codec, string tokens, geometry.

Every instance mask in this package is a column-major run-length encoding:
a list of run lengths that alternates background/foreground, background
first. All geometry (IOU, extents, set operations) works directly on
the runs, so nothing here ever materializes a full image unless you ask.
"""

import numpy as np

from masktrack import (
    BBox,
    mask_iou,
    rle_decode,
    rle_encode,
    rle_from_string,
    rle_to_string,
)
from masktrack.geometry import bbox_iou

# A small blob in an 8x10 image.
grid = np.zeros((8, 10), dtype=np.uint8)
grid[2:6, 3:7] = 1
grid[4, 7] = 1

mask = rle_encode(grid)
print("grid:\n", grid)
print("runs (column-major, background first):", mask.counts)
print("foreground area:", mask.area)

# The dense grid comes back unchanged.
assert (rle_decode(mask) == grid).all()

# The compact string token is what result files carry. It is a printable
# ASCII encoding (5 value bits per character, offset 48) with the counts
# delta-coded, and it round-trips exactly.
token = rle_to_string(mask)
print("string token:", token)
assert rle_from_string(token, mask.height, mask.width) == mask

# IOU straight from the runs.
shifted = rle_encode(np.roll(grid, 1, axis=1))
print("IOU with a 1px-shifted copy:", round(mask_iou(mask, shifted), 4))

# The foreground extent, also from the runs: the first and last column and
# row the mask covers (None for an empty mask).
print("extent (col_min, col_max, row_min, row_max):", mask.extent)

# Plain rectangle IOU for comparison.
print(
    "box IOU of (0,0,10,10) vs (5,0,10,10):",
    round(bbox_iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)), 4),
)
