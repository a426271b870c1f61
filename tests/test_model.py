import numpy as np
import pytest

from chronident import (
    ClockParams,
    EnsembleParams,
    assemble_ensemble,
    clock_drift_mean,
    clock_noise_cov,
    clock_transition,
    ensemble_structure,
    analytic_acov,
    pack_theta,
    second_difference_moments,
    theta_alpha_from_params,
    unpack_theta,
)
from chronident.model import (
    dump_ensemble_config,
    load_ensemble_config,
    params_from_theta_alpha,
    symmetric_to_upper,
    theta_length,
    upper_to_symmetric,
    upper_triangle_indices,
    upper_triangle_pairs,
)

from conftest import random_params


class TestClockTransition:
    def test_reference_period(self):
        np.testing.assert_array_equal(clock_transition(5.0), [[1.0, 5.0], [0.0, 1.0]])

    def test_zero_period_is_identity(self):
        np.testing.assert_array_equal(clock_transition(0.0), np.eye(2))

    def test_matrix_power_matches_longer_step(self):
        # three steps of 5 s equal one step of 15 s
        np.testing.assert_allclose(
            np.linalg.matrix_power(clock_transition(5.0), 3), clock_transition(15.0)
        )

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            clock_transition(-1.0)


class TestClockNoiseCov:
    def test_reference_values(self):
        # direct evaluation of the closed form for q1=1.5e-27, q2=2e-35, Ts=5
        q1, q2, ts = 1.5e-27, 2e-35, 5.0
        expected = np.array(
            [
                [q1 * ts + q2 * ts**3 / 3.0, q2 * ts**2 / 2.0],
                [q2 * ts**2 / 2.0, q2 * ts],
            ]
        )
        got = clock_noise_cov(q1, q2, ts)
        np.testing.assert_allclose(got, expected, rtol=0.0)
        np.testing.assert_allclose(got[0, 0], 7.50000083e-27, rtol=1e-6)
        np.testing.assert_allclose(got[0, 1], 2.5e-34)
        np.testing.assert_allclose(got[1, 1], 1.0e-34)

    def test_pure_white_fm(self):
        np.testing.assert_array_equal(
            clock_noise_cov(1.0, 0.0, 1.0), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_determinant_positive(self):
        # det = q1 q2 Ts^2 + q2^2 Ts^4 / 12 > 0 whenever q1, q2 > 0
        rng = np.random.default_rng(1)
        for _ in range(50):
            q1, q2, ts = rng.uniform(0.1, 10.0, 3)
            Q = clock_noise_cov(q1, q2, ts)
            assert np.linalg.det(Q) > 0.0
            np.testing.assert_allclose(Q, Q.T)
            assert np.linalg.eigvalsh(Q).min() > 0.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            clock_noise_cov(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            clock_noise_cov(1.0, 1.0, -2.0)


class TestClockDriftMean:
    def test_reference_values(self):
        np.testing.assert_allclose(clock_drift_mean(8e-21, 5.0), [1.0e-19, 4.0e-20])
        np.testing.assert_allclose(clock_drift_mean(3e-21, 5.0), [3.75e-20, 1.5e-20])

    def test_zero_drift(self):
        np.testing.assert_array_equal(clock_drift_mean(0.0, 5.0), [0.0, 0.0])


class TestAssembleEnsemble:
    def test_dimensions(self, maser_params, maser_model):
        F, H = ensemble_structure(maser_params.n, 5.0)
        assert F.shape == (8, 8)
        assert H.shape == (3, 8)
        assert maser_model.Q.shape == (8, 8)
        assert maser_model.mu.shape == (8,)

    def test_measurement_rows(self):
        _, H = ensemble_structure(4, 5.0)
        for i in range(3):
            expected = np.zeros(8)
            expected[0] = -1.0
            expected[2 * (i + 1)] = 1.0
            np.testing.assert_array_equal(H[i], expected)

    def test_two_clock_single_difference(self):
        _, H = ensemble_structure(2, 1.0)
        np.testing.assert_array_equal(H, [[-1.0, 0.0, 1.0, 0.0]])

    def test_q_block_placement(self, maser_params, maser_model):
        clk2 = maser_params.clocks[1]
        np.testing.assert_array_equal(
            maser_model.Q[2:4, 2:4], clock_noise_cov(clk2.q1, clk2.q2, 5.0)
        )
        # off-block entries stay zero
        assert np.all(maser_model.Q[0:2, 2:4] == 0.0)

    def test_single_clock_rejected(self):
        params = EnsembleParams(clocks=(ClockParams(1e-27, 1e-36),), R=np.zeros((0, 0)))
        with pytest.raises(ValueError):
            assemble_ensemble(params, 1.0)

    def test_common_phase_offset_invisible(self):
        common = np.kron(np.ones(4), [1.0, 0.0])
        _, H = ensemble_structure(4, 5.0)
        np.testing.assert_array_equal(H @ common, np.zeros(3))

    def test_transition_semigroup(self):
        F, _ = ensemble_structure(4, 5.0)
        for m in range(4):
            Fm = np.linalg.matrix_power(F, m)
            np.testing.assert_allclose(
                Fm, np.kron(np.eye(4), clock_transition(m * 5.0)), atol=1e-12
            )

    def test_q_blocks_symmetric_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(2, 6)))
            model = assemble_ensemble(params, float(rng.uniform(0.5, 10.0)))
            for i in range(params.n):
                block = model.Q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
                np.testing.assert_allclose(block, block.T)
                assert np.linalg.eigvalsh(block).min() >= 0.0


class TestSecondDifferenceMoments:
    def test_two_clock_closed_form(self):
        # columns q1 (pivot, clock 2), q2 (pivot, clock 2), r_11 at lags 0-3;
        # each clock is an MA(1), R's white noise reaches lag 2
        h = 3.0
        expected = np.array(
            [
                [2 * h, 2 * h, 2 * h**3 / 3, 2 * h**3 / 3, 6.0],
                [-h, -h, h**3 / 6, h**3 / 6, -4.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        got = second_difference_moments(2, h, np.arange(4))
        assert got.shape == (4, 1, 5)
        np.testing.assert_allclose(got[:, 0], expected, rtol=1e-15, atol=0.0)
        # h and lag broadcast against each other
        both = second_difference_moments(2, np.array([1.0, h]), np.arange(4)[:, None])
        assert both.shape == (4, 2, 1, 5)
        np.testing.assert_array_equal(both[:, 1], got)

    def test_clock_terms_match_noise_blocks(self):
        # a clock's phase second difference over two steps of h with noise
        # block [[a, b], [b, c]] has autocovariance h^2 c + 2a - 2hb at lag 0
        # and hb - a at lag 1
        for h in (0.7, 5.0, 5000.0):
            for q1, q2 in ((1.0, 0.0), (0.0, 1.0)):
                (a, b), (_, c) = clock_noise_cov(q1, q2, h)
                gamma = [h**2 * c + 2 * a - 2 * h * b, h * b - a]
                got = second_difference_moments(2, h, np.arange(2))[:, 0, 1 if q1 else 3]
                np.testing.assert_allclose(got, gamma, rtol=1e-14)

    def test_four_clock_pair_pattern(self):
        # the pivot's terms on every pair, clock i+1's on (i, i), R_ij on (i, j)
        n = 4
        moments = second_difference_moments(n, 2.0, np.arange(3))
        for p, (i, j) in enumerate(upper_triangle_pairs(n - 1)):
            clocks = {0, i} if i == j else {0}
            noise = clocks | {n + c for c in clocks}
            assert set(np.flatnonzero(moments[0, p])) == noise | {2 * n + p}
            assert set(np.flatnonzero(moments[1, p])) == noise | {2 * n + p}
            assert set(np.flatnonzero(moments[2, p])) == {2 * n + p}

    def test_lag_zero_is_analytic_acov(self, maser_params):
        # the AVAR is half the lag-0 second-difference moment over tau^2,
        # plus the drift's (delta_i delta_j tau^2) / 2
        taus = np.array([5.0, 35.0, 1000.0, 1e5, 1.578e7])
        moments = second_difference_moments(4, taus, 0) @ theta_alpha_from_params(maser_params)
        delta = maser_params.drifts()[1:] - maser_params.clocks[0].d
        for p, (i, j) in enumerate(upper_triangle_pairs(3)):
            got = moments[:, p] / (2 * taus**2) + delta[i - 1] * delta[j - 1] * taus**2 / 2
            expected = [analytic_acov(maser_params, i, j, tau) for tau in taus]
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)


class TestThetaPacking:
    def test_lengths(self):
        assert theta_length(4) == 18
        assert theta_length(2) == 7

    def test_reference_round_trip(self, maser_params):
        theta = pack_theta(maser_params)
        assert theta.shape == (18,)
        back = unpack_theta(theta, 4)
        for a, b in zip(back.clocks, maser_params.clocks):
            assert (a.q1, a.q2, a.d) == (b.q1, b.q2, b.d)
        np.testing.assert_array_equal(back.R, maser_params.R)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            params = random_params(rng, n)
            theta = pack_theta(params)
            assert theta.shape == (theta_length(n),)
            back = unpack_theta(theta, n)
            np.testing.assert_array_equal(pack_theta(back), theta)
            # the same layout with the drifts split off and put back
            split = params_from_theta_alpha(theta_alpha_from_params(params), params.drifts())
            np.testing.assert_array_equal(pack_theta(split), theta)

    def test_unpack_then_pack_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            theta = rng.uniform(0.1, 2.0, theta_length(n))
            np.testing.assert_array_equal(pack_theta(unpack_theta(theta, n)), theta)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unpack_theta(np.ones(17), 4)


class TestUpperTriangle:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(4, 4))
        mat = mat + mat.T
        np.testing.assert_array_equal(
            upper_to_symmetric(symmetric_to_upper(mat), 4), mat
        )

    def test_ordering_row_major(self):
        upper = symmetric_to_upper(np.array([[1.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(upper, [1.0, 2.0, 3.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            upper_to_symmetric(np.ones(4), 2)

    def test_indices_are_cached_and_read_only(self):
        rows, cols = upper_triangle_indices(5)
        np.testing.assert_array_equal(rows, np.triu_indices(5)[0])
        np.testing.assert_array_equal(cols, np.triu_indices(5)[1])
        assert upper_triangle_indices(5)[0] is rows
        for index in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1


class TestValidation:
    def test_negative_intensities_rejected(self):
        with pytest.raises(ValueError):
            ClockParams(q1=-1.0, q2=1.0).validate()
        with pytest.raises(ValueError):
            ClockParams(q1=1.0, q2=-1.0).validate()

    def test_nonfinite_drift_rejected(self):
        with pytest.raises(ValueError):
            ClockParams(q1=1.0, q2=1.0, d=np.nan).validate()

    def test_asymmetric_r_rejected(self):
        params = EnsembleParams(
            clocks=(ClockParams(1, 1), ClockParams(1, 1), ClockParams(1, 1)),
            R=np.array([[1.0, 0.5], [0.2, 1.0]]),
        )
        with pytest.raises(ValueError):
            params.validate()

    def test_indefinite_r_rejected(self):
        params = EnsembleParams(
            clocks=(ClockParams(1, 1), ClockParams(1, 1), ClockParams(1, 1)),
            R=np.array([[1.0, 2.0], [2.0, 1.0]]),
        )
        with pytest.raises(ValueError):
            params.validate()


class TestConfigFile:
    def test_round_trip(self, tmp_path, maser_params):
        path = tmp_path / "ensemble.json"
        dump_ensemble_config(maser_params, 5.0, path, n_steps=1000, seed=7)
        params, ts, extras = load_ensemble_config(path)
        assert ts == 5.0
        assert extras == {"n_steps": 1000, "seed": 7}
        np.testing.assert_array_equal(pack_theta(params), pack_theta(maser_params))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ts_seconds": 5.0, "clocks": []}')
        with pytest.raises(ValueError, match="r_upper"):
            load_ensemble_config(path)

    def test_malformed_clocks(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ts_seconds": 5.0, "clocks": [{"q1": 1.0}], "r_upper": []}')
        with pytest.raises(ValueError):
            load_ensemble_config(path)
