import numpy as np
import pytest

from fxam.smoothers import (
    curvature_penalty,
    default_bandwidth,
    epanechnikov,
    fast_kernel_smooth,
    naive_kernel_smooth,
    penalized_smooth,
    second_difference_matrix,
    smoother_matrix,
)


def random_smooth_inputs(rng, max_n=10_000):
    n = int(rng.integers(5, max_n + 1))
    x = np.sort(rng.uniform(-50, 50, n))
    y = rng.normal(0, 3, n)
    w = rng.uniform(0.5, 4.0, n)
    h = float(rng.uniform(0.05, 40.0))
    return x, y, w, h


class TestEpanechnikov:
    def test_peak_value(self):
        assert epanechnikov(0.0) == 0.75

    def test_support_boundary(self):
        assert epanechnikov(1.0) == 0.0
        assert epanechnikov(-1.0) == 0.0
        assert epanechnikov(1.5) == 0.0

    def test_interior_value(self):
        assert epanechnikov(0.5) == pytest.approx(0.5625)

    def test_vectorized(self):
        u = np.array([-2.0, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(
            epanechnikov(u), [0.0, 0.75, 0.5625, 0.0]
        )


class TestNaiveKernelSmooth:
    def test_constant_reproduced(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 10, 50))
        fit = naive_kernel_smooth(x, np.full(50, 3.25), 1.0)
        np.testing.assert_allclose(fit, 3.25)

    def test_single_point(self):
        np.testing.assert_allclose(
            naive_kernel_smooth(np.array([0.0]), np.array([5.0]), 1.0), [5.0]
        )

    def test_disjoint_windows(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 2.0])
        np.testing.assert_allclose(naive_kernel_smooth(x, y, 0.5), y)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            naive_kernel_smooth(np.array([]), np.array([]), 1.0)


class TestFastKernelSmooth:
    def test_matches_naive_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x, y, w, h = random_smooth_inputs(rng, max_n=3000)
            naive = naive_kernel_smooth(x, y, h, w)
            fast = fast_kernel_smooth(x, y, h, w)
            np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-12)

    def test_constant_reproduced(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-5, 5, 200))
        fit = fast_kernel_smooth(x, np.full(200, -1.5), 0.7)
        np.testing.assert_allclose(fit, -1.5)

    def test_weights_equal_multiplicity(self):
        xw = np.array([0.0, 0.1])
        yw = np.array([0.0, 3.0])
        weighted = fast_kernel_smooth(xw, yw, 1.0, np.array([2.0, 1.0]))
        expanded = fast_kernel_smooth(
            np.array([0.0, 0.0, 0.1]), np.array([0.0, 0.0, 3.0]), 1.0
        )
        np.testing.assert_allclose(weighted, expanded[[0, 2]])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            fast_kernel_smooth(np.array([1.0, 0.0]), np.zeros(2), 1.0)


class TestPenalizedSmooth:
    def test_zero_penalty_interpolates(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 5, 30))
        y = rng.normal(0, 1, 30)
        np.testing.assert_array_equal(penalized_smooth(x, y, 0.0), y)

    def test_linear_functions_pass_through(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.uniform(0.5, 1.5, 60))
        y = 3.0 * x - 2.0
        for lam in (0.1, 10.0, 1e4):
            np.testing.assert_allclose(
                penalized_smooth(x, y, lam), y, rtol=1e-9, atol=1e-8
            )

    def test_huge_penalty_gives_least_squares_line(self):
        # closed-form simple regression on (0,1,2) -> (0,1,4):
        # slope 2, intercept -1/3
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 4.0])
        fit = penalized_smooth(x, y, 1e12)
        np.testing.assert_allclose(
            fit, [-1.0 / 3.0, 5.0 / 3.0, 11.0 / 3.0], atol=1e-4
        )

    def test_two_points_returned_unchanged(self):
        out = penalized_smooth(np.array([0.0, 1.0]), np.array([4.0, 7.0]),
                               100.0)
        np.testing.assert_array_equal(out, [4.0, 7.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            x = np.cumsum(rng.uniform(0.3, 1.5, n))
            y = rng.normal(0, 2, n)
            w = rng.uniform(0.5, 3.0, n)
            lam = float(rng.uniform(0.01, 50))
            d2 = second_difference_matrix(x)
            dense = np.linalg.solve(
                np.diag(w) + lam * d2.T @ d2, w * y
            )
            np.testing.assert_allclose(
                penalized_smooth(x, y, lam, w), dense, rtol=1e-9, atol=1e-10
            )

    def test_rejects_duplicate_knots(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            penalized_smooth(np.array([0.0, 0.0, 1.0]), np.zeros(3), 1.0)


class TestSmootherMatrix:
    def test_penalized_zero_penalty_is_identity(self):
        x = np.arange(10.0)
        np.testing.assert_array_equal(
            smoother_matrix("penalized", x, 0.0), np.eye(10)
        )

    def test_penalized_symmetric_and_shrinking(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            knots = np.cumsum(rng.uniform(0.5, 2.0, n))
            lam = float(rng.choice([0.01, 1.0, 100.0]))
            m = smoother_matrix("penalized", knots, lam)
            assert np.max(np.abs(m - m.T)) < 1e-10
            eigenvalues = np.linalg.eigvalsh((m + m.T) / 2)
            assert eigenvalues.min() > -1e-9
            assert eigenvalues.max() < 1 + 1e-9

    def test_kernel_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        knots = np.sort(rng.uniform(0, 20, 80))
        m = smoother_matrix("kernel", knots, 2.0)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_matrix_applies_like_the_smoother(self):
        rng = np.random.default_rng(13)
        knots = np.cumsum(rng.uniform(0.4, 1.4, 50))
        y = rng.normal(0, 1, 50)
        m = smoother_matrix("penalized", knots, 3.0)
        np.testing.assert_allclose(
            m @ y, penalized_smooth(knots, y, 3.0), atol=1e-10
        )

    def test_size_bound(self):
        with pytest.raises(ValueError, match="test support"):
            smoother_matrix("penalized", np.arange(501.0), 1.0)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            smoother_matrix("cubic", np.arange(5.0), 1.0)


class TestHelpers:
    def test_default_bandwidth_rule(self):
        x = np.linspace(0, 10, 100)
        assert default_bandwidth(x) == pytest.approx(
            0.5 * 10 * 100 ** (-0.2)
        )

    def test_default_bandwidth_constant_input(self):
        assert default_bandwidth(np.zeros(5)) == 1.0

    def test_curvature_zero_for_linear(self):
        x = np.cumsum(np.random.default_rng(0).uniform(0.5, 1.5, 20))
        assert curvature_penalty(x, 2 * x + 1) == pytest.approx(0.0, abs=1e-18)

    def test_curvature_matches_dense_operator(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.5, 1.5, 25))
        f = rng.normal(0, 1, 25)
        d2 = second_difference_matrix(x)
        assert curvature_penalty(x, f) == pytest.approx(
            float(f @ d2.T @ d2 @ f)
        )
