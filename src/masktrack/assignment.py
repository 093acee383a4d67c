"""Minimum-cost bipartite matching with infeasible entries.

Infeasible pairs are marked with ``INFEASIBLE`` (+inf). The solver returns
the cheapest matching that first maximizes the number of feasible pairs,
which is what padding infeasible entries with a dominating constant buys.

The padded matrix is solved by Crouse's shortest augmenting path algorithm
(D. F. Crouse, "On implementing 2D rectangular assignment algorithms",
IEEE TAES 2016), ported from scipy's ``rectangular_lsap.cpp`` to Python
lists, so it gives the pairs ``scipy.optimize.linear_sum_assignment`` gives
on the same matrix, ties included:

- rows are added in order, a matrix with more rows than columns transposed;
- each scan visits the remaining columns from the last to the first, and
  the chosen one is removed by moving the last into its place;
- the tie rule: a scan takes the first column of the lowest path cost,
  replaced by any later free column of that cost;
- every reduced cost ``min_val + cost - u[i] - v[j]`` and every dual update
  is the same float expression, in the same order.

One shortcut comes first. While the column duals ``v`` are still 0.0, a
row whose lowest columns include a free one is assigned by its first scan
alone, to the first free one, and leaves ``v`` at 0.0. So rows are taken in
order from one row minimum over the matrix as long as each finds a free
lowest column; from the first row that does not, Crouse's loop runs as in
scipy.
"""

from __future__ import annotations

import numpy as np

INFEASIBLE = float("inf")


def hungarian_solve(costs: np.ndarray) -> list[tuple[int, int]]:
    """Solve the assignment problem on a rectangular cost matrix.

    Finite costs so large that the padding would overflow are solved scaled
    by a power of two, which keeps every normal cost's order and ties.

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
    top = max(abs(float(finite.max())), abs(float(finite.min())), 1.0)
    scale = 1.0
    while 2.0 * k * (top * scale) + 1.0 == INFEASIBLE:
        scale *= 0.5
    if scale != 1.0:
        costs = costs * scale
    big = 2.0 * k * (top * scale) + 1.0
    padded = np.where(feasible, costs, big)
    if costs.shape[0] > costs.shape[1]:
        pairs = sorted((r, c) for c, r in enumerate(_solve_wide(padded.T)))
    else:
        pairs = enumerate(_solve_wide(padded))
    ok = feasible.tolist()
    return [(r, c) for r, c in pairs if ok[r][c]]


def _solve_wide(cost: np.ndarray) -> list[int]:
    """The column of each row in the minimum-cost assignment of a finite
    matrix with no more rows than columns, as scipy's solver picks them."""
    nr, nc = cost.shape
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    # while v is all 0.0, a row's first scan reads its costs; when its lowest
    # columns include a free one it takes the first such and leaves v at 0.0
    cur = 0
    for low, j in zip(cost.min(axis=1).tolist(), cost.argmin(axis=1).tolist()):
        if row4col[j] >= 0:
            j = next((j for j in np.flatnonzero(cost[cur] == low).tolist() if row4col[j] < 0), -1)
            if j < 0:
                break
        u[cur] = low
        col4row[cur] = j
        row4col[j] = cur
        cur += 1
    if cur < nr:
        rows = cost.tolist()
        for cur in range(cur, nr):
            _augment(cur, rows, u, v, col4row, row4col)
    return col4row


def _augment(cur: int, rows: list[list[float]], u: list[float], v: list[float],
             col4row: list[int], row4col: list[int]) -> None:
    """Add row ``cur`` along the shortest augmenting path, updating the
    duals and the assignment in place (scipy's ``augmenting_path`` and the
    body of its ``solve`` loop)."""
    nc = len(v)
    inf = INFEASIBLE
    spc = [inf] * nc  # shortest path cost to each column
    path = [-1] * nc
    remaining = list(range(nc - 1, -1, -1))
    tree_rows = []  # rows reached besides cur
    tree_cols = []
    i = cur
    min_val = 0.0
    while True:
        ci = rows[i]
        ui = u[i]
        lowest = inf
        sink = -1
        for j in remaining:
            r = min_val + ci[j] - ui - v[j]
            s = spc[j]
            if r < s:
                path[j] = i
                spc[j] = s = r
            if s <= lowest and (s < lowest or row4col[j] < 0):
                lowest = s
                sink = j
        if lowest == inf:
            raise ValueError("cost matrix is infeasible")
        min_val = lowest
        tree_cols.append(sink)
        index = remaining.index(sink)
        remaining[index] = remaining[-1]
        remaining.pop()
        i = row4col[sink]
        if i < 0:
            break
        tree_rows.append(i)
    u[cur] += min_val
    for i in tree_rows:
        u[i] += min_val - spc[col4row[i]]
    for j in tree_cols:
        v[j] -= min_val - spc[j]
    j = sink
    while True:
        i = path[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == cur:
            break
