import numpy as np
import pytest

from chronident import build_mdm_system, build_regression, theta_alpha_from_params
from chronident.errors import UnidentifiableError
from chronident.ident_acov import theta_a_from_params
from chronident.model import upper_triangle_pairs
from chronident.numerics import wishart_fit, wishart_variance
from chronident.stability import AcovEstimate, log_spaced_grid

from conftest import random_params


def acov_system(n, grid, n_steps):
    """ACOV-shaped design for n clocks and the 1/nu = m/N of its moments,
    laid out as (channel pairs, taus)."""
    pairs = tuple(upper_triangle_pairs(n - 1))
    scale = np.broadcast_to(grid.m_values / n_steps, (len(pairs), len(grid)))
    layout = AcovEstimate(grid=grid, pairs=pairs, sigma2=np.zeros(scale.shape), scale=scale)
    return build_regression(layout, n), scale


def normal_equation_pass(design, sample, moments, scale):
    """One pass of the fit from (A^T W A) x = A^T W b, W the inverse Wishart
    variance of ``moments``: x, sqrt(diag((A^T W A)^-1)) and the weighted
    residual."""
    w = 1.0 / wishart_variance(moments, scale).ravel()
    normal = design.T @ (w[:, None] * design)
    x = np.linalg.solve(normal, design.T @ (w * sample.ravel()))
    resid = np.linalg.norm(np.sqrt(w) * (sample.ravel() - design @ x))
    return x, np.sqrt(np.diag(np.linalg.inv(normal))), resid


class TestWeightedLeastSquares:
    """``wishart_fit``, the package's weighted least-squares fit."""

    def test_identity_system(self):
        sample = np.array([[3.0], [1.0], [2.0]])
        theta, diag = wishart_fit(np.eye(3), sample, 0.01, 2)
        np.testing.assert_allclose(theta, sample.ravel())
        assert diag["rank"] == 3

    def test_square_invertible_ignores_weights(self):
        # an invertible design is fitted exactly whatever the weights
        rng = np.random.default_rng(5)
        A = rng.uniform(0.1, 1.0, (3, 3)) + 4 * np.eye(3)
        sample = A @ rng.uniform(0.5, 2.0, 3)
        x1, _ = wishart_fit(A, sample[:, None], 0.01, 2)
        x2, _ = wishart_fit(A, sample[:, None], rng.uniform(0.001, 0.1, (3, 1)), 2)
        np.testing.assert_allclose(x1, np.linalg.solve(A, sample), rtol=1e-10)
        np.testing.assert_allclose(x2, x1, rtol=1e-10)

    def test_exact_recovery_acov_design(self):
        rng = np.random.default_rng(0)
        for n in (3, 4):
            truth = theta_a_from_params(random_params(rng, n))
            design, scale = acov_system(n, log_spaced_grid(10, 64, 1.0), 1000)
            theta, diag = wishart_fit(design, (design @ truth).reshape(scale.shape), scale, n)
            np.testing.assert_allclose(theta, truth, rtol=1e-10)
            assert diag["rank"] == design.shape[1]
            assert diag["clamped"] == []
            assert diag["residual"] < 1e-9

    def test_exact_recovery_mdm_design(self):
        rng = np.random.default_rng(1)
        for n, L in ((3, 5), (4, 6)):
            truth = theta_alpha_from_params(random_params(rng, n))
            system = build_mdm_system(n, 1.0, L)
            sample = (system.theta_map @ truth).reshape(-1, 1)
            theta, diag = wishart_fit(system.theta_map, sample, 1.0 / 500, n)
            np.testing.assert_allclose(theta, truth, rtol=1e-10)
            assert diag["rank"] == system.theta_map.shape[1]
            assert diag["clamped"] == []

    def test_matches_normal_equation_oracle(self):
        # noisy moments of a well-conditioned ACOV design; the second pass
        # is weighted by the Wishart variance of the first pass's fit
        rng = np.random.default_rng(2)
        design, scale = acov_system(4, log_spaced_grid(8, 16, 1.0), 1000)
        exact = (design @ theta_a_from_params(random_params(rng, 4))).reshape(scale.shape)
        sample = exact * (1.0 + 0.01 * rng.normal(size=exact.shape))
        theta, diag = wishart_fit(design, sample, scale, 4)
        first, _, _ = normal_equation_pass(design, sample, sample, scale)
        fitted = (design @ first).reshape(sample.shape)
        oracle, se, resid = normal_equation_pass(design, sample, fitted, scale)
        assert diag["clamped"] == []
        np.testing.assert_allclose(theta, oracle, rtol=1e-8)
        np.testing.assert_allclose(diag["se"], se, rtol=1e-8)
        np.testing.assert_allclose(diag["residual"], resid, rtol=1e-8)

    def test_residual_is_taken_before_the_clamp(self):
        # moments planted with a negative r_11 are fitted exactly; r_11 is
        # then clamped, but the residual is that of the unclamped solution
        rng = np.random.default_rng(3)
        bad = theta_a_from_params(random_params(rng, 3))
        bad[6] = -0.01 * bad[6]  # [q1 x 3, q2 x 3, r upper, f upper]
        design, scale = acov_system(3, log_spaced_grid(8, 16, 1.0), 1000)
        theta, diag = wishart_fit(design, (design @ bad).reshape(scale.shape), scale, 3)
        assert diag["clamped"] == ["r_11"]
        assert theta[6] > 0.0
        assert diag["residual"] < 1e-9

    def test_descent_sanity(self):
        # the fit leaves no more weighted residual than theta = 0 does,
        # under the second pass's weights
        rng = np.random.default_rng(6)
        design, scale = acov_system(3, log_spaced_grid(8, 16, 1.0), 1000)
        for _ in range(10):
            exact = (design @ theta_a_from_params(random_params(rng, 3))).reshape(scale.shape)
            sample = exact * (1.0 + 0.05 * rng.normal(size=exact.shape))
            _, diag = wishart_fit(design, sample, scale, 3)
            first, _, _ = normal_equation_pass(design, sample, sample, scale)
            fitted = (design @ first).reshape(sample.shape)
            w = 1.0 / wishart_variance(fitted, scale).ravel()
            assert diag["residual"] <= np.linalg.norm(np.sqrt(w) * sample.ravel())

    def test_weight_scaling_invariance(self):
        # nu multiplies every weight alike: theta is unchanged, se scales
        # with sqrt(1/nu)
        rng = np.random.default_rng(4)
        design, scale = acov_system(4, log_spaced_grid(8, 16, 1.0), 1000)
        exact = (design @ theta_a_from_params(random_params(rng, 4))).reshape(scale.shape)
        sample = exact * (1.0 + 0.01 * rng.normal(size=exact.shape))
        theta1, diag1 = wishart_fit(design, sample, scale, 4)
        theta2, diag2 = wishart_fit(design, sample, 1e6 * scale, 4)
        np.testing.assert_allclose(theta2, theta1, rtol=1e-10)
        np.testing.assert_allclose(diag2["se"], 1e3 * diag1["se"], rtol=1e-10)

    @pytest.mark.parametrize(
        "design, nulls",
        [
            (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [2.0, 3.0, 1.0]]), 1),
            (np.array([[1.0, 1.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 3.0]]), 2),
            (np.zeros((3, 2)), 2),
        ],
        ids=["square", "wide", "zero"],
    )
    def test_rank_deficient_raises_with_null_directions(self, design, nulls):
        # sample: vech of a 2 x 2 covariance, as the design's 3 rows need
        sample = np.array([[2.0], [0.5], [3.0]])
        with pytest.raises(UnidentifiableError, match=f"; {nulls} unidentifiable") as exc_info:
            wishart_fit(design, sample, 0.01, 2)
        null = exc_info.value.null_directions
        assert null.shape == (nulls, design.shape[1])
        np.testing.assert_allclose(np.linalg.norm(null, axis=1), 1.0)
        np.testing.assert_allclose(design @ null.T, 0.0, atol=1e-12)

    def test_rank_deficient_reports_rank(self):
        # the two columns can only be told apart along (1, -1)
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(UnidentifiableError, match="rank 1 < 2 parameters") as exc_info:
            wishart_fit(design, np.array([[2.0], [4.0], [6.0]]), 0.01, 2)
        null = exc_info.value.null_directions[0]
        assert abs(abs(null @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            wishart_fit(np.eye(3), np.ones((6, 1)), 0.01, 2)
        with pytest.raises(ValueError, match="incompatible shapes"):
            wishart_fit(np.ones(3), np.ones((3, 1)), 0.01, 2)
