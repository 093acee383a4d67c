"""Minimum-cost bipartite matching with infeasible entries.

Infeasible pairs are marked with ``INFEASIBLE`` (+inf). The solver returns
the cheapest matching that first maximizes the number of feasible pairs,
which is what padding infeasible entries with a dominating constant buys.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

INFEASIBLE = float("inf")


def hungarian_solve(costs: np.ndarray) -> list[tuple[int, int]]:
    """Solve the assignment problem on a rectangular cost matrix.

    Args:
        costs: 2-D array; ``INFEASIBLE`` entries can never be matched.

    Returns:
        (row, col) pairs sorted by row; rows/columns appear at most once.
    """
    costs = np.atleast_2d(np.asarray(costs, dtype=float))
    if costs.size == 0:
        return []
    if np.isnan(costs).any():
        raise ValueError("cost matrix contains NaN")
    feasible = np.isfinite(costs)
    if not feasible.any():
        return []
    finite = costs[feasible]
    k = min(costs.shape)
    big = 2.0 * k * max(abs(float(finite.max())), abs(float(finite.min())), 1.0) + 1.0
    padded = np.where(feasible, costs, big)
    rows, cols = linear_sum_assignment(padded)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if np.isfinite(costs[r, c])]
