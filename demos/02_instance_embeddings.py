#!/usr/bin/env python3
"""Instance-aware embeddings: attention pooling and feature banks.

A detection's appearance vector comes from a spatial feature map aligned to
its bounding box. The instance mask is resampled onto the feature grid and
becomes a weighting: foreground cells count 1.0, background cells 0.5.
Pooling under those weights, then normalizing, gives a vector that leans on
the object rather than whatever the box happens to include.
"""

import numpy as np

from masktrack import BBox, rle_encode
from masktrack.embedding import (
    FeatureBank,
    bank_similarity,
    bank_update,
    cosine_similarity,
    instance_aware_pool,
    spatial_attention,
)

rng = np.random.default_rng(0)

# An object occupying the left half of its box.
img = np.zeros((32, 32), dtype=np.uint8)
img[8:24, 4:12] = 1
mask = rle_encode(img)
box = BBox(4, 8, 16, 16)  # box twice as wide as the object

attn = spatial_attention(mask, box, grid_h=4, grid_w=4)
print("attention weights (1.0 = object, 0.5 = background):\n", attn)

# Feature map: the object region carries a distinct signature, the
# background carries noise. Instance-aware pooling suppresses the noise
# relative to plain average pooling.
signature = np.array([1.0, 0.0, 0.0, 0.0])
noise = np.array([0.0, 1.0, 0.0, 0.0])
fmap = np.empty((4, 4, 4))
for i in range(4):
    for j in range(4):
        fmap[i, j] = signature if attn[i, j] == 1.0 else noise

weighted = instance_aware_pool(fmap, attn)
plain = instance_aware_pool(fmap, np.ones_like(attn))
print("cosine(signature, weighted pool):", round(cosine_similarity(signature, weighted), 4))
print("cosine(signature, plain pool):   ", round(cosine_similarity(signature, plain), 4))

# Tracks keep a bank of embeddings: the first five frames and the most
# recent five, never averaged. Similarity against the bank is the maximum
# over its rows, so an old appearance can still claim its track.
bank = FeatureBank(size=5)
early_look = np.array([1.0, 0.0, 0.0, 0.0])
late_look = np.array([0.0, 0.0, 1.0, 0.0])
for frame in range(1, 13):
    look = early_look if frame <= 5 else late_look
    bank = bank_update(bank, look + rng.normal(0, 0.05, 4), frame)

# Queries go in as one (n, d) stack and come back as one similarity each.
early_sim, late_sim = bank_similarity(bank, np.stack([early_look, late_look]))
print("bank frames:", bank.frames)
print("similarity to the early appearance:", round(float(early_sim), 3))
print("similarity to the late appearance: ", round(float(late_sim), 3))
