"""Robust 1-D line fitting for box extrapolation.

The loss is quadratic for residuals up to ``delta`` and linear beyond,
minimized by iteratively reweighted least squares: outliers get weight
``delta / |r|``, inliers weight 1. A round whose residuals are all within
``delta`` weighs every point 1, so it takes the ordinary least-squares
solution, which is solved once per fit. When every residual at that
solution is within ``delta``, the fit is plain least squares after one
solve. Iteration stops once no parameter moves by ``TOL`` or more, or
after ``MAX_ITER`` rounds.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput

TOL = 1e-9
MAX_ITER = 50


def huber_fit(times, values, delta: float = 4.0) -> tuple[float, float]:
    """Fit v = slope * t + intercept under the Huber loss.

    Args:
        times: Sample positions; at least two distinct values required.
        values: Observations, same length as ``times``.
        delta: Residual scale where the loss switches quadratic -> linear.

    Returns:
        (slope, intercept).
    """
    t, v = _validate(times, values)
    design = np.stack([t, np.ones_like(t)], axis=1)
    ols, *_ = np.linalg.lstsq(design, v, rcond=None)
    params = ols
    for _ in range(MAX_ITER):
        residuals = v - design @ params
        abs_r = np.abs(residuals)
        inlier = abs_r <= delta
        if inlier.all():
            # every weight is 1, so the weighted solve is the ordinary one
            new_params = ols
        else:
            weights = np.where(inlier, 1.0, delta / np.maximum(abs_r, 1e-300))
            sqrt_w = np.sqrt(weights)
            new_params, *_ = np.linalg.lstsq(
                design * sqrt_w[:, None], v * sqrt_w, rcond=None
            )
        change = float(np.max(np.abs(new_params - params)))
        params = new_params
        if change < TOL:
            break
    return float(params[0]), float(params[1])


def _validate(times, values) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise DegenerateInput(f"bad sample shapes {t.shape} vs {v.shape}")
    if t.size < 2:
        raise DegenerateInput(f"need at least 2 samples, got {t.size}")
    if np.all(t == t[0]):
        raise DegenerateInput("all sample positions identical")
    return t, v
