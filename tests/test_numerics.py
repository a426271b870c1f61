import numpy as np
import pytest

from chronident.numerics import weighted_least_squares


class TestWeightedLeastSquares:
    def test_identity_system(self):
        b = np.array([3.0, -1.0, 2.0])
        x, diag = weighted_least_squares(np.eye(3), b, np.array([1.0, 4.0, 0.5]))
        np.testing.assert_allclose(x, b)
        assert diag.rank == 3

    def test_square_invertible_ignores_weights(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4)
        x1, _ = weighted_least_squares(A, b, np.ones(4))
        x2, _ = weighted_least_squares(A, b, rng.uniform(0.5, 10.0, 4))
        np.testing.assert_allclose(x1, np.linalg.solve(A, b), rtol=1e-10)
        np.testing.assert_allclose(x2, x1, rtol=1e-10)

    def test_matches_normal_equation_oracle(self):
        # well-conditioned planted system, checked against (A^T W A) x = A^T W b
        rng = np.random.default_rng(1)
        A = rng.normal(size=(50, 10))
        x_true = rng.normal(size=10)
        b = A @ x_true + 0.01 * rng.normal(size=50)
        w = rng.uniform(0.2, 5.0, 50)
        x, diag = weighted_least_squares(A, b, w)
        normal = A.T @ (w[:, None] * A)
        oracle = np.linalg.solve(normal, A.T @ (w * b))
        np.testing.assert_allclose(x, oracle, rtol=1e-10)
        np.testing.assert_allclose(diag.se, np.sqrt(np.diag(np.linalg.inv(normal))), rtol=1e-10)
        assert diag.null_directions.shape == (0, 10)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(30, 6))
        b = rng.normal(size=30)
        w = rng.uniform(0.1, 2.0, 30)
        x1, _ = weighted_least_squares(A, b, w)
        x2, _ = weighted_least_squares(A, b, 1e6 * w)
        np.testing.assert_allclose(x1, x2, rtol=1e-10)

    def test_rank_deficient_reports_rank(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        x, diag = weighted_least_squares(A, np.array([2.0, 4.0, 6.0]), np.ones(3))
        assert diag.rank == 1
        np.testing.assert_allclose(x, [1.0, 1.0])  # minimum-norm split
        assert diag.null_directions.shape == (1, 2)
        null = diag.null_directions[0]
        assert abs(abs(null @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) < 1e-12

    def test_wide_minimum_norm(self):
        # fewer rows than columns: the null space has cols - rows directions
        A = np.array([[1.0, 1.0, 0.0]])
        x, diag = weighted_least_squares(A, np.array([2.0]), np.ones(1))
        np.testing.assert_allclose(x, [1.0, 1.0, 0.0])
        assert diag.rank == 1
        assert diag.null_directions.shape == (2, 3)
        np.testing.assert_allclose(diag.null_directions @ A.T, 0.0, atol=1e-15)

    def test_zero_matrix(self):
        x, diag = weighted_least_squares(np.zeros((3, 2)), np.ones(3), np.ones(3))
        np.testing.assert_array_equal(x, np.zeros(2))
        assert diag.rank == 0
        assert np.all(np.isinf(diag.se))

    def test_unit_weight_matches_lstsq(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 4))
        b = rng.normal(size=12)
        x, _ = weighted_least_squares(A, b, np.ones(12))
        np.testing.assert_allclose(x, np.linalg.lstsq(A, b, rcond=None)[0], atol=1e-12)

    def test_minimum_scaled_norm_property(self):
        # columns are equilibrated, so an underdetermined solve returns the
        # solution of least norm in column-scaled coordinates
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rng.normal(size=(3, 7))
            x = rng.normal(size=7)
            x_hat, _ = weighted_least_squares(A, A @ x, np.ones(3))
            np.testing.assert_allclose(A @ x_hat, A @ x, atol=1e-10)
            col = np.linalg.norm(A, axis=0)
            assert np.linalg.norm(col * x_hat) <= np.linalg.norm(col * x) + 1e-10

    def test_descent_sanity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(20, 5))
            b = rng.normal(size=20)
            w = rng.uniform(0.1, 3.0, 20)
            x, diag = weighted_least_squares(A, b, w)
            zero_resid = np.linalg.norm(np.sqrt(w) * b)
            assert diag.residual_norm <= zero_resid + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weighted_least_squares(np.eye(3), np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            weighted_least_squares(np.eye(2), np.ones(2), np.array([1.0, 0.0]))
