import numpy as np
import pytest
from helpers import brute_force, matching_cost

from masktrack.assignment import INFEASIBLE, hungarian_solve


class TestHungarianSolve:
    def test_single_cell(self):
        costs = np.array([[5.0]])
        assert hungarian_solve(costs) == [(0, 0)]
        assert matching_cost(costs, [(0, 0)]) == 5.0

    def test_off_diagonal_beats_diagonal(self):
        costs = np.array([[1.0, 2.0], [2.0, 4.0]])
        pairs = hungarian_solve(costs)
        assert sorted(pairs) == [(0, 1), (1, 0)]
        assert matching_cost(costs, pairs) == 4.0

    def test_only_feasible_matching(self):
        costs = np.array([[INFEASIBLE, 1.0], [1.0, INFEASIBLE]])
        assert sorted(hungarian_solve(costs)) == [(0, 1), (1, 0)]

    def test_empty_matrix(self):
        assert hungarian_solve(np.zeros((0, 3))) == []
        assert hungarian_solve(np.zeros((3, 0))) == []

    def test_all_infeasible(self):
        costs = np.full((2, 2), INFEASIBLE)
        assert hungarian_solve(costs) == []

    def test_rows_and_cols_used_at_most_once(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, m = rng.integers(1, 9, 2)
            costs = rng.uniform(0, 3, (n, m))
            pairs = hungarian_solve(costs)
            rows = [r for r, _ in pairs]
            cols = [c for _, c in pairs]
            assert len(rows) == len(set(rows))
            assert len(cols) == len(set(cols))
            assert len(pairs) == min(n, m)

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = rng.integers(1, 8, 2)
            costs = rng.uniform(-2.0, 10.0, (n, m))
            costs[rng.random((n, m)) < 0.1] = INFEASIBLE
            pairs = hungarian_solve(costs)
            card, cost = brute_force(costs)
            assert len(pairs) == card
            assert matching_cost(costs, pairs) == pytest.approx(cost, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        costs = rng.uniform(0, 1, (6, 6))
        first = hungarian_solve(costs)
        for _ in range(5):
            assert hungarian_solve(costs) == first

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hungarian_solve(np.array([[np.nan]]))
