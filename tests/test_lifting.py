import numpy as np
import pytest

from curveband import (FrequencySupport, PointSet, TrigPolynomial,
                       dirichlet_gram, extract_zero_level_set, feature_matrix,
                       random_curve, sample_curve)
from curveband.curve_model import multiply
from curveband.errors import ContractViolation
from curveband.lifting import gaussian_kernel_matrix
from curveband.recovery import rank_bound
from oracles import support_indices


def random_points(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    return PointSet(dim, rng.uniform(0, 1, size=(dim, n)))


def feature_map(x, support):
    """Feature vector of one point: the single column of its feature matrix."""
    return feature_matrix(PointSet(2, np.reshape(x, (2, 1))), support).data[:, 0]


class TestFeatureMap:
    def test_origin_gives_all_ones(self):
        v = feature_map((0.0, 0.0), FrequencySupport(5, 3))
        assert np.allclose(v, 1.0)

    def test_half_half_alternates_sign(self):
        support = FrequencySupport(3, 3)
        v = feature_map((0.5, 0.5), support)
        expected = np.array([(-1.0) ** (k[0] + k[1])
                             for k in support_indices(support)])
        assert np.abs(v - expected).max() <= 1e-12

    def test_unit_modulus(self):
        v = feature_map((0.1234, 0.876), FrequencySupport(7, 5))
        assert np.abs(np.abs(v) - 1.0).max() <= 1e-14


class TestFeatureMatrix:
    def test_empty_point_set_shape(self):
        m = feature_matrix(PointSet(2, np.zeros((2, 0))),
                           FrequencySupport(3, 3))
        assert m.data.shape == (9, 0)

    def test_dim_other_than_2_rejected(self):
        with pytest.raises(ContractViolation, match="needs dim 2, got 3"):
            feature_matrix(random_points(4, 0, dim=3), FrequencySupport(3, 3))

    def test_analytic_annihilation(self):
        # points on cos(2 pi x1) = 0 with c = (1/2, 0, 1/2)
        support = FrequencySupport(3, 1)
        x1 = np.array([0.25, 0.75, 0.25, 0.75, 0.25])
        x2 = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        pts = PointSet(2, np.stack([x1, x2]))
        c = np.array([0.5, 0.0, 0.5])
        residual = c @ feature_matrix(pts, support).data
        assert np.abs(residual).max() <= 1e-12

    def test_rasterized_annihilation(self):
        poly = random_curve(FrequencySupport(3, 3), 17)
        curve = extract_zero_level_set(poly, 512)
        pts = sample_curve(curve, 50, seed=4)
        residual = poly.coeffs @ feature_matrix(pts, poly.support).data
        assert np.abs(residual).max() <= 1e-3

    def test_columns_match_feature_map(self):
        support = FrequencySupport(5, 3)
        pts = random_points(7, 0)
        m = feature_matrix(pts, support).data
        for i in range(7):
            expected = np.exp(2j * np.pi
                              * (support_indices(support) @ pts.points[:, i]))
            assert np.allclose(m[:, i], expected)


class TestDirichletGram:
    def test_dim_other_than_2_rejected(self):
        with pytest.raises(ContractViolation, match="needs dim 2, got 3"):
            dirichlet_gram(random_points(4, 0, dim=3), FrequencySupport(3, 3))

    def test_diagonal_is_support_size(self):
        k = dirichlet_gram(random_points(20, 1), FrequencySupport(5, 7))
        assert np.allclose(k.data.diagonal(), 35.0)

    def test_half_shift_value(self):
        pts = PointSet(2, np.array([[0.1, 0.6], [0.4, 0.4]]))
        k = dirichlet_gram(pts, FrequencySupport(3, 3))
        # direct summation over the support
        direct = sum(np.exp(2j * np.pi * (a * 0.5 + b * 0.0))
                     for a in (-1, 0, 1) for b in (-1, 0, 1))
        assert abs(k.data[0, 1] - direct) <= 1e-12
        assert abs(k.data[0, 1] - (-3.0)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 4), (9, 9), (2, 6)])
    def test_matches_conjugate_feature_pairing(self, shape):
        support = FrequencySupport(*shape)
        pts = random_points(40, hash(shape) % 1000)
        phi = feature_matrix(pts, support).data
        k = dirichlet_gram(pts, support)
        assert np.abs(k.data - np.conj(phi).T @ phi).max() <= 1e-10

    @pytest.mark.parametrize("k", [3, 8, 9, 15, 21])
    def test_matches_feature_pairing_across_the_seam(self, k):
        # pairs that straddle the seam (delta/2 and 1 - delta/2) or lie delta
        # apart; the kernel is 1-periodic, so the seam costs no accuracy
        support = FrequencySupport(k, k)
        for delta in (0.3, 1e-3, 1e-5, 1e-6, 1e-7, 3e-8, 1e-9, 1e-11, 1e-14, 0.0):
            pts = PointSet(2, np.array([
                [delta / 2, 1 - delta / 2, 0.3, 0.3 + delta],
                [0.6, 0.6 + delta, 1 - delta / 2, delta / 2]]))
            phi = feature_matrix(pts, support).data
            k_data = dirichlet_gram(pts, support).data
            assert np.abs(k_data - np.conj(phi).T @ phi).max() <= 1e-12, delta

    def test_near_coincident_points_give_the_support_size(self):
        eps = 1e-12
        pts = PointSet(2, np.array([[0.3, 0.3 + eps], [0.7, 0.7]]))
        k = dirichlet_gram(pts, FrequencySupport(5, 5))
        assert np.allclose(k.data, 25.0, atol=1e-6)

    def test_positive_semidefinite(self):
        k = dirichlet_gram(random_points(30, 5), FrequencySupport(5, 5)).data
        eigs = np.linalg.eigvalsh(0.5 * (k + np.conj(k).T))
        assert eigs.min() >= -1e-8 * np.abs(k).max()

    def test_hermitian(self):
        k = dirichlet_gram(random_points(15, 6), FrequencySupport(4, 3)).data
        assert np.abs(k - np.conj(k).T).max() <= 1e-12

    def test_gram_rank_bounded_for_curve_samples(self):
        # samples of a 3x3 curve lifted on a 5x5 support: the Gram matrix
        # inherits the feature-matrix rank bound
        inner = FrequencySupport(3, 3)
        outer = FrequencySupport(5, 5)
        from curveband.experiments import curve_with_zero_set
        _, curve = curve_with_zero_set(inner, 8, 512)
        pts = sample_curve(curve, 70, seed=9)  # > (5+5)(3+3) = 60
        k = dirichlet_gram(pts, outer).data
        eigs = np.maximum(np.linalg.eigvalsh(0.5 * (k + np.conj(k).T)), 0.0)
        svals = np.sqrt(eigs)
        # 1e-3: the known-support cut of samples read off a 512 grid
        measured = int(np.count_nonzero(svals > 1e-3 * svals.max()))
        assert measured <= rank_bound(outer, inner)


class TestGaussianKernel:
    def test_unit_diagonal(self):
        k = gaussian_kernel_matrix(random_points(10, 2).points, 0.2)
        assert np.allclose(k.diagonal(), 1.0)

    def test_distance_sigma_sqrt2(self):
        sigma = 0.13
        pts = PointSet(2, np.array([[0.2, 0.2 + sigma * np.sqrt(2)],
                                    [0.5, 0.5]]))
        k = gaussian_kernel_matrix(pts.points, sigma)
        assert abs(k[0, 1] - np.exp(-1.0)) <= 1e-12

    def test_matches_naive_pairwise_loop(self):
        pts = random_points(3, 3, dim=3)
        sigma = 0.25
        k = gaussian_kernel_matrix(pts.points, sigma)
        for i in range(3):
            for j in range(3):
                d2 = np.sum((pts.points[:, i] - pts.points[:, j]) ** 2)
                assert abs(k[i, j] - np.exp(-d2 / (2 * sigma ** 2))) <= 1e-14

    def test_entries_in_unit_interval_and_decreasing(self):
        x = np.zeros((2, 5))
        x[0] = [0.0, 0.1, 0.2, 0.3, 0.4]
        k = gaussian_kernel_matrix(x, 0.15)
        row = k[0]
        assert np.all(row > 0) and np.all(row <= 1)
        assert np.all(np.diff(row) < 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exactly_symmetric(self, dim):
        # the denoise update factors the F-order view of a system built
        # from this kernel, which is only the same matrix if it is symmetric
        k = gaussian_kernel_matrix(random_points(300, 4, dim=dim).points, 0.1)
        assert np.array_equal(k, k.T)

    def test_written_into_out(self):
        x = random_points(40, 5, dim=3).points
        out = np.full((40, 40), np.nan)
        k = gaussian_kernel_matrix(x, 0.2, out=out)
        assert k is out
        assert np.array_equal(k, gaussian_kernel_matrix(x, 0.2))

    def test_invalid_sigma(self):
        with pytest.raises(ContractViolation):
            gaussian_kernel_matrix(random_points(4, 0).points, 0.0)

