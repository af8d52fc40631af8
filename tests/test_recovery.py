import functools
import logging

import numpy as np
import pytest

from curveband import (ContractViolation, FrequencySupport, NumericalFailure,
                       PointSet, Polyline, SumOfSquares,
                       TrigPolynomial, chamfer_distance, estimate_coefficients,
                       evaluate_on_grid, extract_zero_level_set,
                       nullspace_basis, random_curve, rank_bound,
                       recover_curve, sample_curve)
from curveband.curve_model import wrap_delta
from curveband.experiments import (_recovery_error, child_seed,
                                   curve_with_zero_set, offcurve_probes,
                                   overcomplete_trial, union_curve)
from curveband.recovery import _feature_svd
from oracles import (count_common_zeros, evaluate, feature_svd_reference,
                     minimal_rectangle_by_svd, recover_curve_reference,
                     refine_to_zero_set, shift_set_reference,
                     sum_of_squares_by_rows)


def line_pair_points(n=12, seed=0):
    """Exact points on cos(2 pi x1) = 0 (the two lines x1 = 1/4, 3/4)."""
    rng = np.random.default_rng(seed)
    x1 = np.where(np.arange(n) % 2 == 0, 0.25, 0.75)
    return PointSet(2, np.stack([x1, rng.uniform(0, 1, n)]))


class TestEstimateCoefficients:
    def test_analytic_line_pair(self):
        support = FrequencySupport(3, 1)
        est = estimate_coefficients(line_pair_points(), support, 512)
        c = np.array([0.5, 0.0, 0.5])
        corr = abs(np.vdot(c, est.coeffs)) / np.linalg.norm(c)
        assert corr >= 1.0 - 1e-10

    def test_invariant_under_reordering_and_duplication(self):
        # exact zeros: duplication reweights the least squares, which only
        # leaves the minimizer untouched when the residuals vanish; the
        # estimate is unique up to a global phase, compared after aligning
        poly, curve = curve_with_zero_set(FrequencySupport(3, 3), 2, 256)
        pts = refine_to_zero_set(poly, sample_curve(curve, 40, seed=0))
        support = FrequencySupport(3, 3)
        base = estimate_coefficients(pts, support, 256).coeffs
        rng = np.random.default_rng(1)
        perm = rng.permutation(40)
        shuffled = PointSet(2, pts.points[:, perm])
        dup = PointSet(2, np.concatenate([pts.points, pts.points[:, :15]],
                                         axis=1))
        for variant in (shuffled, dup):
            c = estimate_coefficients(variant, support, 256).coeffs
            phase = np.vdot(c, base)
            assert np.abs(c * phase / abs(phase) - base).max() <= 1e-10

    def test_too_few_points_is_ambiguous(self):
        pts = PointSet(2, np.array([[0.2, 0.8], [0.3, 0.6]]))
        with pytest.raises(NumericalFailure, match="dimension > 1"):
            estimate_coefficients(pts, FrequencySupport(3, 3), 512)

    def test_empty_point_set_rejected(self):
        with pytest.raises(ContractViolation):
            estimate_coefficients(PointSet.empty(2), FrequencySupport(3, 3),
                                  512)


class TestShiftSet:
    def test_equal_supports_single_shift(self):
        s = FrequencySupport(5, 5)
        assert rank_bound(s, s) == len(s) - 1
        assert shift_set_reference(s, s).tolist() == [[0, 0]]

    @pytest.mark.parametrize("outer,inner,count", [
        ((11, 11), (5, 5), 49),
        ((5, 5), (3, 3), 9),
        ((7, 5), (3, 3), 15),
        ((4, 4), (2, 3), 6),
    ])
    def test_counts_match_brute_enumeration(self, outer, inner, count):
        big = FrequencySupport(*outer)
        small = FrequencySupport(*inner)
        # brute force: try every shift in a generous window
        small_idx = small.indices()
        inside = set(map(tuple, big.indices()))
        found = []
        for l1 in range(-12, 13):
            for l2 in range(-12, 13):
                moved = small_idx + np.array([l1, l2])
                if all((int(a), int(b)) in inside for a, b in moved):
                    found.append((l1, l2))
        assert len(found) == count
        assert rank_bound(big, small) == len(big) - count
        assert sorted(map(tuple, shift_set_reference(big, small))) == found

    def test_inner_must_fit(self):
        for outer, inner in (((3, 3), (5, 3)), ((3, 3), (3, 5))):
            with pytest.raises(ContractViolation):
                rank_bound(FrequencySupport(*outer), FrequencySupport(*inner))


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
        basis = nullspace_basis(pts, support, 512)
        assert basis.q == 1
        est = estimate_coefficients(pts, support, 512)
        corr = abs(np.vdot(basis.vectors[0], est.coeffs))
        assert corr >= 1.0 - 1e-10

    def test_vectors_orthonormal(self):
        _, truth, _, _ = union_curve(1, 256)
        pts = sample_curve(truth, 230, seed=5)
        basis = nullspace_basis(pts, FrequencySupport(11, 11), 256)
        gram = basis.vectors @ np.conj(basis.vectors).T
        assert np.abs(gram - np.eye(basis.q)).max() <= 1e-10

    def test_refined_samples_give_exact_null_dimension(self):
        # Newton-refined samples are exact zeros, so the rank decision
        # recovers the shift-set null dimension and tiny residuals.
        product, truth, _, _ = union_curve(2, 512)
        pts = refine_to_zero_set(product, sample_curve(truth, 230, seed=6))
        assert np.abs(evaluate(product, pts)).max() <= 1e-12
        outer = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        assert basis.q == 49
        assert basis.rank == rank_bound(outer, product.support)
        from curveband.lifting import feature_matrix
        residuals = basis.vectors @ feature_matrix(pts, outer).data
        assert np.abs(residuals).max() <= 1e-6  # vectors are unit norm

    def test_rank_margins_of_exact_and_full_rank_bases(self):
        exact = nullspace_basis(line_pair_points(16, 3),
                                FrequencySupport(3, 1), 512)
        above, below = exact.margins
        assert exact.q == 1 and above > 1.0 and below > 1e6
        rng = np.random.default_rng(4)
        full = nullspace_basis(PointSet(2, rng.uniform(0, 1, (2, 20))),
                               FrequencySupport(3, 3), 512)
        above, below = full.margins
        assert full.q == 0 and np.isfinite(above) and below == np.inf

    @pytest.mark.parametrize("seed", range(4))
    def test_three_by_seven_curves_take_the_rank_of_their_support(self, seed):
        # the 11x11 spectrum cut at 1e-3 gave ranks 74, 64, 72 and 70 here
        _, curve = curve_with_zero_set(FrequencySupport(3, 7), seed, 512)
        pts = sample_curve(curve, 200, seed=seed)
        outer = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        assert basis.rank == rank_bound(outer, FrequencySupport(3, 7)) == 76
        assert min(basis.margins) >= 10.0

    def test_rank_never_exceeds_the_sample_count(self):
        # 5x5 decides (bound 72), but 60 samples leave 61 exact null
        # directions, and the basis keeps all of them
        _, truth, _, _ = union_curve(0, 512)
        pts = sample_curve(truth, 60, seed=0)
        outer = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        rect, _ = minimal_rectangle_by_svd(pts, outer, basis.cut)
        assert rect == FrequencySupport(5, 5)
        assert (basis.rank, basis.q) == (60, 61)

    @pytest.mark.parametrize("inputs", ["union6", "3x7"])
    def test_rectangle_search_matches_per_rectangle_svd(self, inputs):
        # the oracle takes one SVD per rectangle, centred rather than in the
        # corner of the support, instead of sub-blocks of one Gram
        if inputs == "union6":
            _, truth, _, _ = union_curve(6, 512)
            pts = sample_curve(truth, 220, seed=child_seed(6, 1))
        else:
            _, truth = curve_with_zero_set(FrequencySupport(3, 7), 1, 512)
            pts = sample_curve(truth, 200, seed=1)
        outer = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        rect, margins = minimal_rectangle_by_svd(pts, outer, basis.cut)
        assert basis.rank == rank_bound(outer, rect)
        assert np.allclose(basis.margins, margins, rtol=1e-2)

    def test_overcomplete_study_rank_cut_has_margin(self):
        # Curve 6 is the ill-conditioned criterion-3 curve: its smallest
        # kept singular value sits closest to the cut.
        r = overcomplete_trial(6, FrequencySupport(11, 11), n_samples=220,
                               grid_res=512)
        assert (r["rank"], r["q"]) == (72, 49)
        assert r["margin_above"] >= 10.0
        assert r["margin_below"] >= 10.0

    def test_overcomplete_study_takes_one_feature_svd(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _feature_svd(*args)

        monkeypatch.setattr("curveband.recovery._feature_svd", counted)
        r = overcomplete_trial(0, FrequencySupport(11, 11), n_samples=220,
                               grid_res=512)
        assert len(calls) == 1
        assert set(r) == {"q", "rank", "margin_above", "margin_below",
                          "on_p95", "off_median"}

    def test_fallback_to_the_spectral_count_warns(self, caplog):
        # criterion-3 curve 6 with noise of about 1 px at 512: on this draw
        # no rectangle decides, and the rank is the spectral count
        _, truth, _, _ = union_curve(6, 512)
        pts = sample_curve(truth, 220, seed=child_seed(6, 1))
        noise = 0.002 * np.random.default_rng(36).standard_normal((2, 220))
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            basis = nullspace_basis(PointSet(2, pts.points + noise),
                                    FrequencySupport(11, 11), 512)
        assert basis.rank == 106
        assert [r.getMessage() for r in caplog.records] == [
            "no rectangle decides the rank at cut 0.00015: spectral rank "
            "106, margins %.3g above and %.3g below" % basis.margins]
        assert 1.0 < min(basis.margins) < 1.5

    def test_narrow_rectangle_decision_warns(self, caplog):
        # on this draw of the same noise an 11x8 rectangle decides, with a
        # smaller one read below the cut: a margin under 1
        _, truth, _, _ = union_curve(6, 512)
        pts = sample_curve(truth, 220, seed=child_seed(6, 1))
        noise = 0.002 * np.random.default_rng(19).standard_normal((2, 220))
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            basis = nullspace_basis(PointSet(2, pts.points + noise),
                                    FrequencySupport(11, 11), 512)
        assert basis.rank == 117
        assert min(basis.margins) < 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "rectangle 11x8 decides rank 117 at cut 0.00015 by narrow "
            "margins %.3g above and %.3g below" % basis.margins]

    def test_clean_rectangle_decision_is_silent(self, caplog):
        _, truth, _, _ = union_curve(6, 512)
        pts = sample_curve(truth, 220, seed=child_seed(6, 1))
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            basis = nullspace_basis(pts, FrequencySupport(11, 11), 512)
        assert basis.rank == 72
        assert min(basis.margins) >= 12.0
        assert caplog.records == []

    def test_degenerate_undersampling_gives_large_null_space(self):
        pts = PointSet(2, np.random.default_rng(0).uniform(0, 1, (2, 10)))
        basis = nullspace_basis(pts, FrequencySupport(7, 7), 512)
        assert basis.q >= 49 - 10


class TestFeatureSvd:
    """The real lift of the centred support against the complex SVD."""

    SHAPES = [(11, 11), (10, 10), (4, 7), (7, 4), (1, 2)]

    @staticmethod
    def curve_points(n):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 3, 512)
        return sample_curve(curve, n, seed=0)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("size", ["tall", "wide", "one"])
    def test_matches_complex_svd(self, shape, size):
        support = FrequencySupport(*shape)
        n = {"tall": len(support) + 30, "wide": max(1, len(support) // 2),
             "one": 1}[size]
        pts = self.curve_points(n)
        s, _ = _feature_svd(pts, support)
        s_ref, vh_ref = feature_svd_reference(pts, support)
        assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0]
        basis = nullspace_basis(pts, support, 512)
        null_ref = np.conj(vh_ref[basis.rank:])
        projector = basis.vectors.T @ np.conj(basis.vectors)
        assert np.abs(projector - null_ref.T @ np.conj(null_ref)).max() <= 1e-10
        try:
            c = estimate_coefficients(pts, support, 512).coeffs
        except NumericalFailure as exc:
            assert "dimension > 1" in str(exc)
            assert s_ref[-2] < 1e-3 * s_ref[0]
            return
        c_ref = np.conj(vh_ref[-1])
        phase = np.vdot(c, c_ref)
        assert np.abs(c * phase / abs(phase) - c_ref).max() <= 1e-10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_null_direction_matches_complex_svd(self, shape):
        # a jittered k1 x k2 grid less one node: its feature matrix is near a
        # scaled DFT with one row gone, so it has one null direction and
        # estimate_coefficients answers on every support
        support = FrequencySupport(*shape)
        rng = np.random.default_rng(len(support))
        nodes = np.indices(shape).reshape(2, -1)[:, 1:] + 0.5
        jitter = rng.uniform(-0.1, 0.1, nodes.shape)
        pts = PointSet(2, (nodes + jitter) / np.array(shape)[:, None])
        c = estimate_coefficients(pts, support, 512).coeffs
        c_ref = np.conj(feature_svd_reference(pts, support)[1][-1])
        phase = np.vdot(c, c_ref)
        assert np.abs(c * phase / abs(phase) - c_ref).max() <= 1e-10

    def test_takes_one_real_svd_per_call(self, monkeypatch):
        dtypes = []
        svd = np.linalg.svd

        def recorder(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorder)
        pts = self.curve_points(60)
        nullspace_basis(pts, FrequencySupport(5, 5), 512)
        assert dtypes == [np.float64]
        dtypes.clear()
        estimate_coefficients(pts, FrequencySupport(3, 3), 512)
        assert dtypes == [np.float64]


class TestSumOfSquares:
    def test_nonnegative_everywhere(self):
        _, truth, _, _ = union_curve(3, 256)
        pts = sample_curve(truth, 230, seed=7)
        basis = nullspace_basis(pts, FrequencySupport(11, 11), 256)
        sos = SumOfSquares(basis.support, basis.vectors)
        rng = np.random.default_rng(8)
        vals = sos(PointSet(2, rng.uniform(0, 1, size=(2, 10000))))
        assert vals.min() >= 0.0

    def test_single_vector_reduces_to_squared_modulus(self):
        support = FrequencySupport(3, 1)
        pts = line_pair_points(16, 9)
        basis = nullspace_basis(pts, support, 512)
        assert basis.q == 1
        sos = SumOfSquares(support, basis.vectors)
        probe = PointSet(2, np.random.default_rng(10).uniform(0, 1, (2, 200)))
        direct = np.abs(evaluate(TrigPolynomial(support, basis.vectors[0]),
                                 probe)) ** 2
        assert np.abs(sos(probe) - direct).max() <= 1e-10

    def test_polynomial_route_matches_feature_route(self):
        # an odd and an even support: the autocorrelation grid is centred
        # on the doubled support either way
        _, truth, _, _ = union_curve(4, 256)
        pts = sample_curve(truth, 230, seed=11)
        probe = PointSet(2, np.random.default_rng(12).uniform(0, 1, (2, 64)))
        for shape in ((7, 7), (8, 6)):
            basis = nullspace_basis(pts, FrequencySupport(*shape), 256)
            sos = SumOfSquares(basis.support, basis.vectors)
            grid_vals = evaluate_on_grid(sos.polynomial, 64).real
            direct = sos(PointSet(2, np.stack([np.arange(64) / 64,
                                               np.zeros(64)])))
            assert np.abs(grid_vals[:, 0] - direct).max() <= 1e-8
            vals = sos(probe)
            assert np.isrealobj(vals) and vals.min() >= 0.0
            poly_vals = evaluate(sos.polynomial, probe)
            assert np.abs(poly_vals.imag).max() <= 1e-12 * vals.max()
            assert np.abs(poly_vals.real - vals).max() <= 1e-8

    # odd, even and 2x2 supports; one vector, a 9x9 segmentation-sized
    # trailing set, and the whole space
    @pytest.mark.parametrize("shape, q", [
        ((5, 5), 1), ((5, 5), 25), ((9, 9), 51), ((8, 6), 1), ((8, 6), 48),
        ((2, 2), 1), ((2, 2), 4),
    ])
    def test_projector_build_matches_per_row_build(self, shape, q):
        n = shape[0] * shape[1]
        rng = np.random.default_rng(n + q)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rows = np.linalg.qr(a)[0][:, :q].T
        support = FrequencySupport(*shape)
        expected = sum_of_squares_by_rows(support, rows).ravel()
        coeffs = SumOfSquares(support, rows).polynomial.coeffs
        scale = np.abs(expected).max()
        assert np.abs(coeffs - expected).max() <= 1e-13 * scale
        # a unitary rotation of the rows spans the same space
        u = np.linalg.qr(rng.standard_normal((q, q))
                         + 1j * rng.standard_normal((q, q)))[0]
        coeffs_rotated = SumOfSquares(support, u @ rows).polynomial.coeffs
        assert np.abs(coeffs_rotated - coeffs).max() <= 1e-13 * scale

    def test_empty_basis_rejected(self):
        with pytest.raises(ContractViolation):
            SumOfSquares(FrequencySupport(3, 3),
                         np.zeros((0, 9), dtype=complex))

    # gamma at points is read off the polynomial alone; on the criterion-4
    # samples and off-curve probes it matches both the per-row coefficient
    # reference and the rows' own sums of squares
    @pytest.mark.parametrize("seed", [0, 5])
    def test_point_values_match_the_row_references(self, seed):
        support = FrequencySupport(11, 11)
        _, truth, _, _ = union_curve(seed, 512)
        pts = sample_curve(truth, 220, seed=child_seed(seed, 1))
        probes = offcurve_probes(truth, 2000, child_seed(seed, 3))
        basis = nullspace_basis(pts, support, 512)
        sos = SumOfSquares(basis.support, basis.vectors)
        by_rows = TrigPolynomial(
            FrequencySupport(21, 21),
            sum_of_squares_by_rows(support, basis.vectors).ravel())
        squares = [sum(np.abs(evaluate(TrigPolynomial(support, row),
                                       where)) ** 2 for row in basis.vectors)
                   for where in (pts, probes)]
        tol = 1e-12 * squares[1].max()  # max gamma: the probes hold it
        for where, sq in zip((pts, probes), squares):
            gamma = sos(where)
            assert np.abs(gamma - evaluate(by_rows, where).real).max() <= tol
            assert np.abs(gamma - sq).max() <= tol


class TestOffcurveProbes:
    def test_distance_is_measured_across_the_seam(self):
        # a vertical line at x1 = 0.005: a probe at x1 = 0.99 is 0.015 away
        # across the seam, though 0.985 away in the plane
        x2 = np.arange(1000) / 1000
        curve = Polyline([np.stack([np.full(1000, 0.005), x2], axis=1)])
        probes = offcurve_probes(curve, 2000, 0).points.T
        d = wrap_delta(probes[:, None, :] - curve.vertex_array()[None])
        assert np.sqrt((d ** 2).sum(axis=2)).min(axis=1).min() > 0.02


class TestRealNullVectors:
    """The real SVD returns exactly hermitian vectors on odd supports. For
    such a c the sum of c[k] c[-k] is the sum of |c[k]|^2, whose imaginary
    part is exactly 0, so the phase alignment recovery used to run
    multiplied c by exactly 1 and symmetrized it to itself."""

    @staticmethod
    @functools.cache
    def phase_sweep_estimates():
        # known_support_trial's draws: k = 3, 5, 7, seed 0, 4 trials, at
        # the benchmark sweep's sample counts around the (2k)^2 bound
        estimates = []
        for k in (3, 5, 7):
            support = FrequencySupport(k, k)
            for f in (0.25, 0.5, 0.75, 1.25, 1.5, 2.0):
                n = round(f * (2 * k) ** 2)
                for t in range(4):
                    seed = child_seed(0, k, n, t)
                    _, truth = curve_with_zero_set(support, seed, 256)
                    pts = sample_curve(truth, n, seed=child_seed(seed, 1))
                    try:
                        estimates.append(
                            estimate_coefficients(pts, support, 256))
                    except NumericalFailure as exc:
                        assert "dimension > 1" in str(exc)
        return tuple(estimates)

    @staticmethod
    def criterion3_points(curve):
        _, truth, _, _ = union_curve(curve, 512)
        return sample_curve(truth, 220, seed=child_seed(curve, 1))

    # the null-space rows of each support, the criterion-3 estimate on the
    # known 5x5 support and the phase sweep's estimates
    @pytest.mark.parametrize("curve", range(4))
    @pytest.mark.parametrize("shape", [(5, 5), (7, 7), (11, 11), (9, 11)])
    def test_nullspace_rows_are_exactly_hermitian(self, curve, shape):
        pts = self.criterion3_points(curve)
        basis = nullspace_basis(pts, FrequencySupport(*shape), 512)
        assert basis.q >= 1
        sweep = self.phase_sweep_estimates()
        assert len(sweep) >= 60
        estimates = [estimate_coefficients(pts, FrequencySupport(5, 5), 512),
                     *sweep]
        assert all(est.hermitian for est in estimates)
        for c in [*basis.vectors, *(est.coeffs for est in estimates)]:
            assert np.array_equal(c[::-1], np.conj(c))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
    def test_even_axis_estimate_is_not_hermitian(self, shape):
        support = FrequencySupport(*shape)
        pts = PointSet(2, np.random.default_rng(40).uniform(0, 1, (2, 40)))
        assert not estimate_coefficients(pts, support, 256).hermitian
        # so the known-support trial scores it as a failure
        _, truth = curve_with_zero_set(FrequencySupport(3, 3), 41, 256)
        assert _recovery_error(pts, support, truth, 256) == np.inf


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

    @staticmethod
    def assert_same_polyline(a, b):
        assert len(a.components) == len(b.components) > 0
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca, cb)

    @pytest.mark.parametrize("shape", [(11, 11), (10, 10)])
    @pytest.mark.parametrize("curve", range(4))
    def test_level_matches_the_median_rule_on_criterion3(self, curve, shape):
        # the former level, 3x the median of gamma over the samples, never
        # rose above the resolvable floor, so dropping it moves no vertex
        _, truth, _, _ = union_curve(curve, 512)
        pts = sample_curve(truth, 220, seed=child_seed(curve, 1))
        support = FrequencySupport(*shape)
        self.assert_same_polyline(recover_curve(pts, support, 512),
                                  recover_curve_reference(pts, support, 512))

    def test_level_matches_the_median_rule_on_noisy_samples(self):
        # of curves 0 and 6 with noise std 0.0005, 0.002 and 0.005 (draws
        # 0-2), this draw brings the median rule closest to the floor: the
        # floor is 13.8x three times the median
        _, truth, _, _ = union_curve(6, 512)
        pts = sample_curve(truth, 220, seed=child_seed(6, 1))
        noise = 0.005 * np.random.default_rng(2).standard_normal((2, 220))
        noisy = PointSet(2, (pts.points + noise) % 1.0)
        support = FrequencySupport(11, 11)
        self.assert_same_polyline(recover_curve(noisy, support, 512),
                                  recover_curve_reference(noisy, support, 512))

    def test_small_grid_rejected_on_both_paths(self):
        single = line_pair_points(16, 9)  # one null vector on 3x1
        with pytest.raises(ContractViolation):
            recover_curve(single, FrequencySupport(3, 1), 8)
        scattered = PointSet(2, np.random.default_rng(0).uniform(0, 1, (2, 10)))
        with pytest.raises(ContractViolation):  # sum-of-squares path
            recover_curve(scattered, FrequencySupport(7, 7), 8)

    @pytest.mark.parametrize("grid_res", [-1, 0, 1, 8, 15])
    def test_grid_below_16_rejected(self, grid_res):
        # every cut is derived from grid_res, so each entry point checks it
        pts = line_pair_points(16, 9)
        for call in (nullspace_basis, estimate_coefficients):
            with pytest.raises(ContractViolation, match="grid_res"):
                call(pts, FrequencySupport(3, 1), grid_res)
        with pytest.raises(ContractViolation, match="grid_res"):
            recover_curve(pts, FrequencySupport(5, 5), grid_res)

    def test_too_few_samples_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(line_pair_points(16, 9), FrequencySupport(3, 1), 64)
            assert not caplog.records
            recover_curve(line_pair_points(2, 3), FrequencySupport(3, 3), 64)
        # two samples are too few for any rectangle to decide the rank
        assert len(caplog.records) == 2
        assert "no rectangle decides" in caplog.records[0].getMessage()
        assert "underdetermined" in caplog.records[1].getMessage()


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
        dc = np.flatnonzero(~support.indices().any(axis=1)).item()
        for _ in range(10):
            coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            z = PointSet(2, rng.uniform(0, 1, (2, 1)))
            for c in coeffs:
                c[dc] -= evaluate(TrigPolynomial(support, c), z)[0]
            pa = TrigPolynomial(support, coeffs[0])
            pb = TrigPolynomial(support, coeffs[1])
            assert count_common_zeros(pa, pb, bound_hint=16) >= 1
