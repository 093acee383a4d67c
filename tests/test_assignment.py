import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import brute_force, matching_cost
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masktrack.assignment import INFEASIBLE, hungarian_solve

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


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


class TestHugeCosts:
    """Finite costs so large that the padding constant would overflow."""

    def test_one_pair_beside_infeasible_columns(self):
        costs = np.array([[1e308, INFEASIBLE], [1e308, INFEASIBLE]])
        pairs = hungarian_solve(costs)
        card, cost = brute_force(costs)
        assert len(pairs) == card == 1
        assert matching_cost(costs, pairs) == cost == 1e308

    @pytest.mark.parametrize(
        "costs",
        [
            [[1e308, 5e307, INFEASIBLE], [4e307, 1e308, 3e307]],
            [[-1e308, 2.0], [3.0, -5e307], [INFEASIBLE, 1.0]],
            [[1.5e308, 1.0, INFEASIBLE], [1.0, 1.5e308, INFEASIBLE], [2.0, 1.7e308, INFEASIBLE]],
        ],
    )
    def test_matches_exhaustive_minimum(self, costs):
        costs = np.array(costs)
        pairs = hungarian_solve(costs)
        card, cost = brute_force(costs)
        assert len(pairs) == card
        assert matching_cost(costs, pairs) == cost


# costs with many ties: small integers, tenths (whose sums round, so the
# order of each float expression shows), a dominating value
TIED_COST = (
    st.integers(-3, 3).map(float)
    | st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e6, INFEASIBLE])
    | st.floats(-2.0, 2.0).map(lambda x: round(x, 1))
)


def scipy_pairs(costs: np.ndarray) -> list[tuple[int, int]]:
    """scipy's solver on the matrix ``hungarian_solve`` pads, its feasible pairs kept."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    if costs.size == 0:
        return []
    feasible = np.isfinite(costs)
    if not feasible.any():
        return []
    finite = costs[feasible]
    big = 2.0 * min(costs.shape) * max(abs(finite.max()), abs(finite.min()), 1.0) + 1.0
    rows, cols = linear_sum_assignment(np.where(feasible, costs, big))
    return [(int(r), int(c)) for r, c in zip(rows, cols) if feasible[r, c]]


class TestMatchesScipy:
    """The in-package solver picks scipy's pairs, ties included."""

    @given(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=TIED_COST)
        )
    )
    def test_same_pairs_as_scipy(self, costs):
        assert hungarian_solve(costs) == scipy_pairs(costs)

    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    def test_same_pairs_as_scipy_on_real_costs_both_ways_round(self, costs):
        assert hungarian_solve(costs) == scipy_pairs(costs)
        assert hungarian_solve(costs.T) == scipy_pairs(costs.T)

    def test_same_pairs_as_scipy_where_rounding_decides(self):
        # about one matrix in 300 of these picks other pairs if a dual
        # update is summed in another order
        rng = np.random.default_rng(9)
        values = np.array([0.1, 0.2, 0.3, 0.7, 1e6, INFEASIBLE, -1.0, 0.0, 1.0, 2.0])
        for k in range(3000):
            shape = rng.integers(2, 10, 2)
            costs = rng.choice(values, shape) if k % 2 else np.round(rng.normal(0, 1, shape), 1)
            assert hungarian_solve(costs) == scipy_pairs(costs)


def test_no_scipy_module_loads():
    code = (
        "import sys\n"
        "import masktrack.cli, masktrack.pipeline, masktrack.metrics, masktrack.formats\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
