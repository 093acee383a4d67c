import numpy as np
import pytest
from helpers import least_squares_fit, reference_huber_fit
from hypothesis import given
from hypothesis import strategies as st

from masktrack.errors import DegenerateInput
from masktrack.regression import huber_fit


class TestHuberFit:
    def test_exact_line(self):
        slope, intercept = huber_fit([0, 1, 2], [0, 1, 2], delta=1.0)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        slope, intercept = huber_fit([0, 1, 2], [5, 5, 5], delta=1.0)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(5.0, abs=1e-12)

    def test_leverage_outlier_small_sample(self):
        # Four exact inliers on v=t plus (4, 100). With delta=1 the loss
        # minimizer is slope 1.5, intercept -0.5: the stationarity sums
        # sum(psi(r)) = 0.5 + 0 - 0.5 - 1 + 1 and sum(psi(r)*t) =
        # 0 + 0 - 1 - 3 + 4 both vanish there, and the reference IRLS run
        # lands on the same point. Least squares is pulled far harder.
        slope, intercept = huber_fit([0, 1, 2, 3, 4], [0, 1, 2, 3, 100], delta=1.0)
        assert slope == pytest.approx(1.5, abs=1e-5)
        assert intercept == pytest.approx(-0.5, abs=1e-5)
        ls_slope, _ = least_squares_fit([0, 1, 2, 3, 4], [0, 1, 2, 3, 100])
        assert abs(ls_slope - 1.0) > abs(slope - 1.0)

    def test_equals_least_squares_when_no_outliers(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            t = np.sort(rng.uniform(0, 10, 8))
            t[0], t[-1] = 0.0, 10.0  # keep spread
            v = 2.0 * t - 3.0 + rng.uniform(-0.1, 0.1, 8)
            huber = huber_fit(t, v, delta=100.0)
            ols = least_squares_fit(t, v)
            # all residuals far below delta: IRLS stops at the OLS point
            assert huber == ols

    def test_many_point_outlier_resistance(self):
        t = np.arange(20.0)
        v = 1.0 * t
        v[[6, 13]] = 100.0 * v[[6, 13]]
        slope, _ = huber_fit(t, v, delta=1.0)
        ls_slope, _ = least_squares_fit(t, v)
        assert abs(slope - 1.0) < 1e-2
        assert abs(ls_slope - 1.0) > 0.5

    def test_unit_weight_solve_counted_once(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        huber_fit([0, 1, 2, 3], [0.0, 1.1, 1.9, 3.0], delta=1.0)
        assert len(calls) == 1  # every residual inlier: the ordinary solve only

    def test_degenerate_all_same_t(self):
        with pytest.raises(DegenerateInput):
            huber_fit([3, 3, 3], [1, 2, 3], delta=1.0)

    def test_degenerate_single_sample(self):
        with pytest.raises(DegenerateInput):
            huber_fit([1], [1], delta=1.0)


# small integers and halves, so lines through them are exact and residuals
# often sit right at delta; a few values far off the line make outliers
SAMPLES = st.integers(-40, 40).map(lambda k: k / 2) | st.floats(-1e3, 1e3, allow_subnormal=False)


class TestHuberFitProperty:
    @given(
        st.lists(st.tuples(st.integers(0, 30), SAMPLES), min_size=2, max_size=12, unique_by=lambda p: p[0]),
        st.sampled_from([0.5, 1.0, 4.0]) | st.floats(1e-3, 1e3),
    )
    def test_equals_the_loop_that_solves_every_round(self, points, delta):
        times = [t for t, _ in points]
        values = [v for _, v in points]
        assert huber_fit(times, values, delta=delta) == reference_huber_fit(times, values, delta)


class TestLeastSquaresFit:
    def test_exact_line(self):
        slope, intercept = least_squares_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
