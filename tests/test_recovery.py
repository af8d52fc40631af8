import logging

import numpy as np
import pytest

from curveband import (AmbiguousSupport, ContractViolation, FrequencySupport,
                       PointSet, Polyline, SumOfSquares,
                       TrigPolynomial, chamfer_distance, estimate_coefficients,
                       evaluate, evaluate_on_grid, extract_zero_level_set,
                       hermitian_align, multiply, nullspace_basis, random_curve,
                       rank_bound, recover_curve, sample_curve, shift_set)
from curveband.experiments import (curve_with_zero_set, overcomplete_trial,
                                   union_curve)
from curveband.recovery import rasterized_rank_tol
from oracles import count_common_zeros, refine_to_zero_set


def line_pair_points(n=12, seed=0):
    """Exact points on cos(2 pi x1) = 0 (the two lines x1 = 1/4, 3/4)."""
    rng = np.random.default_rng(seed)
    x1 = np.where(np.arange(n) % 2 == 0, 0.25, 0.75)
    return PointSet(2, np.stack([x1, rng.uniform(0, 1, n)]))


class TestEstimateCoefficients:
    def test_analytic_line_pair(self):
        support = FrequencySupport(3, 1)
        est = estimate_coefficients(line_pair_points(), support)
        c = np.array([0.5, 0.0, 0.5])
        corr = abs(np.vdot(c, est.coeffs)) / np.linalg.norm(c)
        assert corr >= 1.0 - 1e-10

    def test_phase_normalization(self):
        est = estimate_coefficients(line_pair_points(), FrequencySupport(3, 1))
        pivot = est.coeffs[np.argmax(np.abs(est.coeffs))]
        assert abs(pivot.imag) <= 1e-12 and pivot.real > 0

    def test_invariant_under_reordering_and_duplication(self):
        # exact zeros: duplication reweights the least squares, which only
        # leaves the minimizer untouched when the residuals vanish
        poly, curve = curve_with_zero_set(FrequencySupport(3, 3), 2, 256)
        pts = refine_to_zero_set(poly, sample_curve(curve, 40, seed=0))
        base = estimate_coefficients(pts, FrequencySupport(3, 3)).coeffs
        rng = np.random.default_rng(1)
        perm = rng.permutation(40)
        shuffled = PointSet(2, pts.points[:, perm])
        dup = PointSet(2, np.concatenate([pts.points, pts.points[:, :15]],
                                         axis=1))
        for variant in (shuffled, dup):
            c = estimate_coefficients(variant, FrequencySupport(3, 3)).coeffs
            assert np.abs(c - base).max() <= 1e-10

    def test_too_few_points_is_ambiguous(self):
        pts = PointSet(2, np.array([[0.2, 0.8], [0.3, 0.6]]))
        with pytest.raises(AmbiguousSupport):
            estimate_coefficients(pts, FrequencySupport(3, 3))

    def test_empty_point_set_rejected(self):
        with pytest.raises(ContractViolation):
            estimate_coefficients(PointSet.empty(2), FrequencySupport(3, 3))


class TestShiftSet:
    def test_equal_supports_single_shift(self):
        s = FrequencySupport(5, 5)
        shifts = shift_set(s, s)
        assert shifts.shape == (1, 2)
        assert tuple(shifts[0]) == (0, 0)

    @pytest.mark.parametrize("outer,inner,count", [
        ((11, 11), (5, 5), 49),
        ((5, 5), (3, 3), 9),
        ((7, 5), (3, 3), 15),
    ])
    def test_counts_match_brute_enumeration(self, outer, inner, count):
        big = FrequencySupport(*outer)
        small = FrequencySupport(*inner)
        shifts = shift_set(big, small)
        assert shifts.shape[0] == count
        # brute force: try every shift in a generous window
        small_idx = small.indices()
        found = []
        for l1 in range(-12, 13):
            for l2 in range(-12, 13):
                moved = small_idx + np.array([l1, l2])
                if all(big.contains((int(a), int(b))) for a, b in moved):
                    found.append((l1, l2))
        assert sorted(map(tuple, shifts)) == sorted(found)

    def test_inner_must_fit(self):
        with pytest.raises(ContractViolation):
            shift_set(FrequencySupport(3, 3), FrequencySupport(5, 3))


class TestRankBound:
    def test_equal_supports(self):
        s = FrequencySupport(4, 4)
        assert rank_bound(s, s) == 15

    def test_known_values(self):
        assert rank_bound(FrequencySupport(11, 11), FrequencySupport(5, 5)) == 72
        assert rank_bound(FrequencySupport(5, 5), FrequencySupport(3, 3)) == 16


class TestNullspaceBasis:
    def test_line_pair_single_vector_matches_estimate(self):
        support = FrequencySupport(3, 1)
        pts = line_pair_points(16, 3)
        basis = nullspace_basis(pts, support)
        assert basis.q == 1
        est = estimate_coefficients(pts, support)
        corr = abs(np.vdot(basis.vectors[0], est.coeffs))
        assert corr >= 1.0 - 1e-10

    def test_vectors_orthonormal(self):
        _, truth, _, _ = union_curve(1, 256)
        pts = sample_curve(truth, 230, seed=5)
        basis = nullspace_basis(pts, FrequencySupport(11, 11),
                                rasterized_rank_tol(256))
        gram = basis.vectors @ np.conj(basis.vectors).T
        assert np.abs(gram - np.eye(basis.q)).max() <= 1e-10

    def test_refined_samples_give_exact_null_dimension(self):
        # Newton-refined samples are exact zeros, so the analytic tolerance
        # recovers the shift-set null dimension and tiny residuals.
        product, truth, _, _ = union_curve(2, 512)
        pts = refine_to_zero_set(product, sample_curve(truth, 230, seed=6))
        assert np.abs(evaluate(product, pts)).max() <= 1e-12
        outer = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, rank_tol=1e-8)
        assert basis.q == 49
        assert basis.rank == rank_bound(outer, product.support)
        from curveband.lifting import feature_matrix
        residuals = basis.vectors @ feature_matrix(pts, outer).data
        assert np.abs(residuals).max() <= 1e-6  # vectors are unit norm

    def test_rank_margins_of_exact_and_full_rank_bases(self):
        exact = nullspace_basis(line_pair_points(16, 3), FrequencySupport(3, 1))
        above, below = exact.rank_margins(1e-6)
        assert exact.q == 1 and above > 1.0 and below > 1e6
        rng = np.random.default_rng(4)
        full = nullspace_basis(PointSet(2, rng.uniform(0, 1, (2, 20))),
                               FrequencySupport(3, 3))
        above, below = full.rank_margins(1e-6)
        assert full.q == 0 and np.isfinite(above) and below == np.inf

    def test_overcomplete_study_rank_cut_has_margin(self):
        # Curve 6 is the ill-conditioned criterion-3 curve: its smallest
        # kept singular value sits closest to the cut.
        r = overcomplete_trial(6, FrequencySupport(11, 11), n_samples=220,
                               grid_res=512)
        assert (r["rank"], r["q"]) == (72, 49)
        assert r["margin_above"] >= 10.0
        assert r["margin_below"] >= 10.0

    def test_degenerate_undersampling_gives_large_null_space(self):
        pts = PointSet(2, np.random.default_rng(0).uniform(0, 1, (2, 10)))
        basis = nullspace_basis(pts, FrequencySupport(7, 7))
        assert basis.q >= 49 - 10


class TestSumOfSquares:
    def test_nonnegative_everywhere(self):
        _, truth, _, _ = union_curve(3, 256)
        pts = sample_curve(truth, 230, seed=7)
        sos = SumOfSquares(nullspace_basis(pts, FrequencySupport(11, 11),
                                           rasterized_rank_tol(256)))
        rng = np.random.default_rng(8)
        vals = sos(PointSet(2, rng.uniform(0, 1, size=(2, 10000))))
        assert vals.min() >= 0.0

    def test_single_vector_reduces_to_squared_modulus(self):
        support = FrequencySupport(3, 1)
        pts = line_pair_points(16, 9)
        basis = nullspace_basis(pts, support)
        assert basis.q == 1
        sos = SumOfSquares(basis)
        probe = PointSet(2, np.random.default_rng(10).uniform(0, 1, (2, 200)))
        direct = np.abs(evaluate(TrigPolynomial(support, basis.vectors[0]),
                                 probe)) ** 2
        assert np.abs(sos(probe) - direct).max() <= 1e-10

    def test_polynomial_route_matches_feature_route(self):
        _, truth, _, _ = union_curve(4, 256)
        pts = sample_curve(truth, 230, seed=11)
        sos = SumOfSquares(nullspace_basis(pts, FrequencySupport(7, 7),
                                           rasterized_rank_tol(256)))
        probe = PointSet(2, np.random.default_rng(12).uniform(0, 1, (2, 64)))
        grid_vals = evaluate_on_grid(sos.polynomial, 64).real
        direct = sos(PointSet(2, np.stack([np.arange(64) / 64,
                                           np.zeros(64)])))
        assert np.abs(grid_vals[:, 0] - direct).max() <= 1e-8
        assert np.abs(sos(probe).imag).max() if np.iscomplexobj(sos(probe)) else True

    def test_empty_basis_rejected(self):
        from curveband.recovery import NullspaceBasis
        empty = NullspaceBasis(FrequencySupport(3, 3),
                               np.zeros((0, 9), dtype=complex), np.zeros(9))
        with pytest.raises(ContractViolation):
            SumOfSquares(empty)


class TestHermitianAlign:
    def test_recovers_real_polynomial_from_rotated_coefficients(self):
        poly = random_curve(FrequencySupport(5, 5), 30)
        rotated = TrigPolynomial(poly.support,
                                 poly.coeffs * np.exp(0.73j))
        aligned = hermitian_align(rotated)
        assert aligned is not None
        sign = np.sign(np.vdot(aligned.coeffs, poly.coeffs).real)
        assert np.abs(aligned.coeffs - sign * poly.coeffs).max() <= 1e-10

    def test_rejects_generic_complex_vector(self):
        rng = np.random.default_rng(31)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert hermitian_align(TrigPolynomial(FrequencySupport(3, 3), c)) is None


class TestRecoverCurve:
    def test_known_support_regime(self):
        grid_res = 256
        _, truth = curve_with_zero_set(FrequencySupport(3, 3), 12, grid_res)
        pts = sample_curve(truth, 36, seed=13)
        recovered = recover_curve(pts, FrequencySupport(3, 3), grid_res)
        assert chamfer_distance(recovered, truth) <= 2.0 / grid_res

    def test_overestimated_support_regime(self):
        grid_res = 512
        _, truth, _, _ = union_curve(5, grid_res)
        pts = sample_curve(truth, 220, seed=14)
        recovered = recover_curve(pts, FrequencySupport(11, 11), grid_res)
        assert chamfer_distance(recovered, truth) <= 4.0 / grid_res

    def test_undersampled_variant_usually_succeeds(self):
        grid_res = 512
        wins = 0
        for seed in range(5):
            _, truth, _, _ = union_curve(seed + 100, grid_res)
            pts = sample_curve(truth, 100, seed=15)
            recovered = recover_curve(pts, FrequencySupport(11, 11), grid_res)
            if not recovered.is_empty:
                wins += chamfer_distance(recovered, truth) <= 4.0 / grid_res
        assert wins >= 3


    def test_small_grid_rejected_on_both_paths(self):
        single = line_pair_points(16, 9)  # one null vector on 3x1
        with pytest.raises(ContractViolation):
            recover_curve(single, FrequencySupport(3, 1), grid_res=8)
        scattered = PointSet(2, np.random.default_rng(0).uniform(0, 1, (2, 10)))
        with pytest.raises(ContractViolation):  # sum-of-squares path
            recover_curve(scattered, FrequencySupport(7, 7), grid_res=8)

    def test_too_few_samples_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(line_pair_points(16, 9), FrequencySupport(3, 1), 64)
            assert not caplog.records
            recover_curve(line_pair_points(2, 3), FrequencySupport(3, 3), 64)
        assert len(caplog.records) == 1
        assert "underdetermined" in caplog.records[0].getMessage()


class TestChamferDistance:
    def test_identical_polylines(self):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 16, 128)
        assert chamfer_distance(curve, curve) == 0.0

    def test_parallel_lines_offset(self):
        d = 0.07
        x2 = np.linspace(0, 1, 400, endpoint=False)
        a = Polyline([np.stack([np.full(400, 0.3), x2], axis=1)])
        b = Polyline([np.stack([np.full(400, 0.3 + d), x2], axis=1)])
        assert abs(chamfer_distance(a, b) - d) <= 0.01 * d

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        a = Polyline([rng.uniform(0, 1, (50, 2))])
        b = Polyline([rng.uniform(0, 1, (50, 2))])
        va, vb = a.vertex_array(), b.vertex_array()
        d2 = np.sum((va[:, None, :] - vb[None, :, :]) ** 2, axis=2)
        expected = 0.5 * (np.sqrt(d2.min(axis=1)).mean()
                          + np.sqrt(d2.min(axis=0)).mean())
        assert abs(chamfer_distance(a, b) - expected) <= 1e-12

    def test_empty_input_rejected(self):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 16, 128)
        with pytest.raises(ContractViolation):
            chamfer_distance(curve, Polyline([]))


class TestAnnihilationResolution:
    def test_residual_shrinks_with_grid_resolution(self):
        poly = random_curve(FrequencySupport(3, 3), 21)
        sup_norms = []
        for grid_res in (128, 256, 512):
            curve = extract_zero_level_set(poly, grid_res)
            pts = sample_curve(curve, 80, seed=18)
            from curveband.lifting import feature_matrix
            residual = poly.coeffs @ feature_matrix(pts, poly.support).data
            sup_norms.append(np.abs(residual).max())
        assert sup_norms[0] > sup_norms[1] > sup_norms[2]
        assert sup_norms[2] <= 1e-3


class TestCommonZeroBounds:
    def test_real_curve_intersections_respect_degree_product(self):
        # two random real 3x3 curves: at most (3+3)(3+3) = 36 intersections
        found_any = 0
        for seed in range(4):
            pa = random_curve(FrequencySupport(3, 3), seed + 200)
            pb = random_curve(FrequencySupport(3, 3), seed + 300)
            count = count_common_zeros(pa, pb, bound_hint=36)
            found_any += count > 0
        assert found_any >= 1  # random curve pairs typically do intersect

    def test_complex_2x2_pairs_respect_bound(self):
        # two complex equations in two real unknowns share no zero in
        # general, so each pair gets one planted: shifting the (0,0)
        # coefficient by minus the value at z makes both vanish at z
        rng = np.random.default_rng(40)
        support = FrequencySupport(2, 2)
        dc = support.index_of((0, 0))
        for _ in range(10):
            coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            z = PointSet(2, rng.uniform(0, 1, (2, 1)))
            for c in coeffs:
                c[dc] -= evaluate(TrigPolynomial(support, c), z)[0]
            pa = TrigPolynomial(support, coeffs[0])
            pb = TrigPolynomial(support, coeffs[1])
            assert count_common_zeros(pa, pb, bound_hint=16) >= 1
