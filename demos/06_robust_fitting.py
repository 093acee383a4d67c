#!/usr/bin/env python3
"""Why box extrapolation uses a robust line fit.

Track positions are mostly clean, but a bad detection can land far off. A
least-squares line chases such outliers; the robust fit caps their influence
(quadratic loss inside delta, linear beyond), so a burst of corrupt samples
barely moves the recovered motion.
"""

import numpy as np

from masktrack.regression import huber_fit

rng = np.random.default_rng(7)

t = 5.0 * np.arange(20)
true_slope, true_intercept = 1.4, 8.0
v = true_slope * t + true_intercept

# two corrupt samples late in the window, 100x their true value
v[[16, 18]] *= 100.0

huber_slope, huber_icpt = huber_fit(t, v, delta=1.0)
# ordinary least squares: the line minimizing the summed squared residuals
ls_slope, ls_icpt = np.linalg.lstsq(np.stack([t, np.ones_like(t)], axis=1), v, rcond=None)[0]

print(f"true line:          v = {true_slope:.3f} t + {true_intercept:.2f}")
print(f"robust fit:         v = {huber_slope:.3f} t + {huber_icpt:.2f}")
print(f"least squares fit:  v = {ls_slope:.3f} t + {ls_icpt:.2f}")
print()
print(f"slope error, robust:        {abs(huber_slope - true_slope):.4f}")
print(f"slope error, least squares: {abs(ls_slope - true_slope):.4f}")
print()

# What that means for a track extrapolated 10 frames ahead:
target = t[-1] + 10
print(f"position 10 frames past the window (truth {true_slope * target + true_intercept:.0f}):")
print(f"  robust fit predicts        {huber_slope * target + huber_icpt:9.0f}")
print(f"  least squares fit predicts {ls_slope * target + ls_icpt:9.0f}")
