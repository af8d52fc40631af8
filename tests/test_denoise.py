import numpy as np
import pytest

from curveband import (ContractViolation, IrlsConfig, PointSet,
                       graph_laplacian, irls_weights, klr_denoise,
                       point_cloud_mse, point_cloud_snr)
from curveband.denoise import solve_quadratic
from curveband.experiments import denoise_trial, noisy_curve_samples
from curveband.lifting import gaussian_kernel_matrix


class TestIrlsWeights:
    def test_single_point(self):
        x = np.array([[0.5], [0.5]])
        gamma, sigma = 0.1, 0.2
        p, w = irls_weights(gaussian_kernel_matrix(x, sigma), sigma, gamma)
        assert abs(p[0, 0] - (1 + gamma) ** -0.5) <= 1e-12
        assert abs(w[0, 0] - (-(1 + gamma) ** -0.5 / sigma ** 2)) <= 1e-12

    def test_far_apart_points_give_diagonal_weights(self):
        # kernel is numerically the identity, so P = (1+gamma)^(-1/2) I
        sigma, gamma = 0.01, 0.25
        x = np.array([[0.1, 0.5, 0.9], [0.1, 0.5, 0.9]])
        p, w = irls_weights(gaussian_kernel_matrix(x, sigma), sigma, gamma)
        expected = (1 + gamma) ** -0.5
        assert np.abs(p - expected * np.eye(3)).max() <= 1e-12
        assert np.abs(np.diag(w) - (-expected / sigma ** 2)).max() <= 1e-10
        assert np.abs(w - np.diag(np.diag(w))).max() <= 1e-10

    def test_half_inverse_squares_to_inverse(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(2, 5))
        gamma, sigma = 0.05, 0.15
        k = gaussian_kernel_matrix(x, sigma)
        p, _ = irls_weights(k, sigma, gamma)
        assert np.abs(p @ p - np.linalg.inv(k + gamma * np.eye(5))).max() <= 1e-8

    def test_gamma_must_be_positive(self):
        with pytest.raises(ContractViolation):
            irls_weights(np.ones((3, 3)), 0.1, 0.0)  # 3 coincident points


class TestGraphLaplacian:
    def test_zero_weights(self):
        assert np.array_equal(graph_laplacian(np.zeros((3, 3))),
                              np.zeros((3, 3)))

    def test_two_node_exchange(self):
        lap = graph_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((12, 12))
        w = 0.5 * (w + w.T)
        lap = graph_laplacian(w)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolation):
            graph_laplacian(np.zeros((2, 3)))


class TestSolveQuadratic:
    def test_lambda_zero_returns_input(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((3, 8))
        lap = graph_laplacian(np.abs(rng.standard_normal((8, 8))))
        assert np.array_equal(solve_quadratic(y, lap, 0.0), y)

    def test_hand_solved_two_point_case(self):
        y = np.array([[0.0, 1.0], [0.0, 0.0]])
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        x = solve_quadratic(y, lap, 1.0)
        assert np.abs(x - np.array([[1 / 3, 2 / 3], [0.0, 0.0]])).max() <= 1e-12

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((2, 10))
        w = np.abs(rng.standard_normal((10, 10)))
        lap = graph_laplacian(0.5 * (w + w.T))
        lam = 0.7
        x = solve_quadratic(y, lap, lam)
        grad = 2 * (x - y) + lam * x @ (lap + lap.T)
        assert np.abs(grad).max() <= 1e-8

    def test_finite_difference_gradient_check(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2, 6))
        x = rng.standard_normal((2, 6))
        w = rng.standard_normal((6, 6))
        lap = graph_laplacian(0.5 * (w + w.T))
        lam = 0.3

        def objective(z):
            return (np.linalg.norm(z - y) ** 2
                    + lam * np.trace(z @ lap @ z.T))

        analytic = 2 * (x - y) + lam * x @ (lap + lap.T)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up = x.copy()
                dn = x.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                numeric[i, j] = (objective(up) - objective(dn)) / (2 * eps)
        rel = np.abs(numeric - analytic).max() / np.abs(analytic).max()
        assert rel <= 1e-5

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((2, 9))
        w = np.abs(rng.standard_normal((9, 9)))
        w = 0.5 * (w + w.T)
        lap = graph_laplacian(w)
        t = np.array([[0.37], [-1.2]])
        a = solve_quadratic(y + t, lap, 0.9)
        b = solve_quadratic(y, lap, 0.9) + t
        assert np.abs(a - b).max() <= 1e-10


class TestKlrDenoise:
    def test_tiny_lambda_leaves_points_nearly_unchanged(self):
        clean, _ = noisy_curve_samples(0, 120, 0.0)
        cfg = IrlsConfig(lam=1e-8, max_iters=10, rel_tol=0.0)
        out, _ = klr_denoise(clean, cfg)
        rel = (np.linalg.norm(out.points - clean.points)
               / np.linalg.norm(clean.points))
        assert rel <= 1e-3

    def test_improves_snr_on_noisy_curve(self):
        snr_in, snr_out = denoise_trial(0, 400, 0.01)
        assert snr_out > snr_in

    def test_surrogate_cost_descends_within_iterations(self):
        _, noisy = noisy_curve_samples(1, 300, 0.01)
        _, trace = klr_denoise(noisy)
        costs = np.array(trace.costs)
        before = np.array(trace.costs_before)
        frac = np.mean(costs <= before + 1e-12)
        assert frac >= 0.9

    def test_surrogate_costs_match_trace_formula(self):
        # reference |X-Y|_F^2 + lam tr(K(X) P) with the matrix product, for
        # the one iteration from X = Y
        _, noisy = noisy_curve_samples(5, 100, 0.01)
        cfg = IrlsConfig(max_iters=1)
        out, trace = klr_denoise(noisy, cfg)
        k0 = gaussian_kernel_matrix(noisy.points, cfg.sigma)
        p, _ = irls_weights(k0, cfg.sigma, cfg.gamma0)
        k1 = gaussian_kernel_matrix(out.points, cfg.sigma)
        expected = [cfg.lam * np.trace(k0 @ p),
                    np.linalg.norm(out.points - noisy.points) ** 2
                    + cfg.lam * np.trace(k1 @ p)]
        np.testing.assert_allclose([trace.costs_before[0], trace.costs[0]],
                                   expected, rtol=1e-12, atol=0)

    def test_permutation_equivariance(self):
        _, noisy = noisy_curve_samples(2, 80, 0.01)
        cfg = IrlsConfig(max_iters=8, rel_tol=0.0)
        base, _ = klr_denoise(noisy, cfg)
        rng = np.random.default_rng(6)
        perm = rng.permutation(80)
        shuffled = PointSet(2, noisy.points[:, perm])
        out, _ = klr_denoise(shuffled, cfg)
        assert np.abs(out.points - base.points[:, perm]).max() <= 1e-8

    def test_deterministic(self):
        _, noisy = noisy_curve_samples(3, 60, 0.02)
        cfg = IrlsConfig(max_iters=5, rel_tol=0.0)
        a, ta = klr_denoise(noisy, cfg)
        b, tb = klr_denoise(noisy, cfg)
        assert np.array_equal(a.points, b.points)
        assert ta.costs == tb.costs

    def test_trace_has_bounded_rows_and_decaying_gamma(self):
        _, noisy = noisy_curve_samples(4, 60, 0.01)
        cfg = IrlsConfig(max_iters=7, rel_tol=0.0, gamma0=1e-2, eta=1.5)
        _, trace = klr_denoise(noisy, cfg)
        assert len(trace.iterations) <= cfg.max_iters
        gammas = np.array(trace.gammas)
        assert np.allclose(gammas, 1e-2 / 1.5 ** np.arange(len(gammas)))

    def test_works_in_three_dimensions(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 2 * np.pi, 150)
        helix = np.stack([0.5 + 0.3 * np.cos(t), 0.5 + 0.3 * np.sin(t),
                          0.5 + 0.1 * np.cos(2 * t)])
        noisy = PointSet(3, helix + 0.01 * rng.standard_normal(helix.shape))
        truth = PointSet(3, helix)
        out, _ = klr_denoise(noisy)
        assert point_cloud_snr(truth, out) > point_cloud_snr(truth, noisy)

    def test_needs_two_points(self):
        with pytest.raises(ContractViolation):
            klr_denoise(PointSet(2, np.zeros((2, 1))))

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            IrlsConfig(eta=1.0)
        with pytest.raises(ContractViolation):
            IrlsConfig(sigma=-0.1)

    @pytest.mark.parametrize("field", ["lam", "sigma", "gamma0", "eta",
                                       "rel_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ContractViolation, match="finite"):
            IrlsConfig(**{field: value})

    def test_negative_rel_tol_rejected(self):
        with pytest.raises(ContractViolation, match="rel_tol"):
            IrlsConfig(rel_tol=-1e-5)


class TestPointCloudMetrics:
    def test_identical_sets_zero_mse(self):
        pts = PointSet(2, np.random.default_rng(8).uniform(0, 1, (2, 30)))
        assert point_cloud_mse(pts, pts) == 0.0
        assert point_cloud_snr(pts, pts) == np.inf

    def test_single_pair_distance_squared(self):
        d = 0.37
        a = PointSet(2, np.array([[0.0], [0.0]]))
        b = PointSet(2, np.array([[0.0], [d]]))
        assert abs(point_cloud_mse(a, b) - d * d) <= 1e-15

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        a = PointSet(2, rng.uniform(0, 1, (2, 100)))
        b = PointSet(2, rng.uniform(0, 1, (2, 80)))
        d2 = np.sum((a.points.T[:, None, :] - b.points.T[None, :, :]) ** 2,
                    axis=2)
        expected = 0.5 * d2.min(axis=1).mean() + 0.5 * d2.min(axis=0).mean()
        assert abs(point_cloud_mse(a, b) - expected) <= 1e-12

    def test_snr_formula(self):
        # predicted cloud of unit power at squared distance 0.1: 10 dB
        d = np.sqrt(0.1)
        a = PointSet(2, np.array([[1.0], [0.0]]))
        b = PointSet(2, np.array([[1.0], [d]]))
        b.points[0, 0] = np.sqrt(1.0 - d * d)  # keep |b| = 1
        mse = point_cloud_mse(a, b)
        got = point_cloud_snr(a, b)
        assert abs(got - 10 * np.log10(1.0 / mse)) <= 1e-12

    def test_snr_decreases_with_noise(self):
        rng = np.random.default_rng(10)
        truth = PointSet(2, rng.uniform(0, 1, (2, 200)))
        snrs = []
        for std in (0.005, 0.01, 0.02):
            noise = np.random.default_rng(11).standard_normal((2, 200))
            noisy = PointSet(2, truth.points + std * noise)
            snrs.append(point_cloud_snr(truth, noisy))
        assert snrs[0] > snrs[1] > snrs[2]

    def test_empty_rejected(self):
        pts = PointSet(2, np.zeros((2, 3)))
        with pytest.raises(ContractViolation):
            point_cloud_mse(pts, PointSet.empty(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            point_cloud_mse(PointSet(2, np.zeros((2, 3))),
                            PointSet(3, np.zeros((3, 3))))
