import functools
import logging

import numpy as np
import pytest

from curveband import (FrequencySupport, PointSet, TrigPolynomial,
                       extract_zero_level_set, random_curve, sample_curve)
from curveband import experiments
from curveband.curve_model import Polyline, evaluate_on_grid, wrap_delta
from curveband.errors import ContractViolation, NumericalFailure
from curveband.experiments import (_recovery_error, child_seed,
                                   curve_with_zero_set, known_support_trial,
                                   offcurve_probes, overcomplete_trial,
                                   phase_transition, union_curve)
from curveband.recovery import (SumOfSquares, _feature_lift, _feature_svd,
                                chamfer_distance, estimate_coefficients,
                                gram_estimate, nullspace_basis, rank_bound,
                                recover_curve)
from oracles import (chamfer_distance_reference, count_common_zeros,
                     evaluate, feature_svd_reference,
                     minimal_rectangle_by_svd, nullspace_basis_reference,
                     recover_curve_reference, refine_to_zero_set,
                     shift_set_reference, sum_of_squares_by_rows,
                     support_indices)


def line_pair_points(n=12, seed=0):
    """Exact points on cos(2 pi x1) = 0 (the two lines x1 = 1/4, 3/4)."""
    rng = np.random.default_rng(seed)
    x1 = np.where(np.arange(n) % 2 == 0, 0.25, 0.75)
    return PointSet(2, np.stack([x1, rng.uniform(0, 1, n)]))


def criterion3_points(curve):
    """Criterion-3 curve `curve`'s 220 samples at grid 512."""
    _, truth, _, _ = union_curve(curve, 512)
    return sample_curve(truth, 220, seed=child_seed(curve, 1))


def svd_spy(monkeypatch):
    """(columns, returns vectors) of each np.linalg.svd call that follows."""
    calls = []
    svd = np.linalg.svd

    def recorder(a, *args, **kwargs):
        calls.append((np.shape(a)[-1], kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorder)
    return calls


def noisy_union6(noise_seed):
    """Criterion-3 curve 6's 220 samples at grid 512, plus Gaussian noise of
    std 0.002 (about 1 px) drawn from default_rng(noise_seed) unless that is
    None."""
    _, truth, _, _ = union_curve(6, 512)
    pts = sample_curve(truth, 220, seed=child_seed(6, 1))
    if noise_seed is None:
        return pts
    rng = np.random.default_rng(noise_seed)
    return PointSet(2, pts.points + 0.002 * rng.standard_normal((2, 220)))


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
            estimate_coefficients(PointSet(2, np.zeros((2, 0))),
                                  FrequencySupport(3, 3), 512)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
    def test_small_loop_is_recovered(self):
        # a 0.13 x 0.12 loop: s2/s_max is 1.3e-4, under the known-support
        # cut (2e-3 at grid 256), yet the smallest singular vector lies
        # 0.016 px from the truth
        seed = child_seed(5, 3, 0)
        _, truth = curve_with_zero_set(FrequencySupport(3, 3), seed, 256)
        pts = sample_curve(truth, 40, seed=child_seed(seed, 1))
        est = estimate_coefficients(pts, FrequencySupport(3, 3), 256)
        assert chamfer_distance(extract_zero_level_set(est, 256),
                                truth) <= 3 / 256


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
        small_idx = support_indices(small)
        inside = set(map(tuple, support_indices(big)))
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

    @pytest.mark.parametrize("noise_seed, rect", [
        (None, FrequencySupport(5, 5)), (36, None),
        (19, FrequencySupport(11, 8))], ids=["clean", "fallback", "narrow"])
    def test_decides_and_records_the_rectangle_silently(self, caplog,
                                                        noise_seed, rect):
        # the warning belongs to recover_curve, the one function that acts
        # on the decision; the CLI's rank report and overcomplete_trial
        # read the basis without it
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            basis = nullspace_basis(noisy_union6(noise_seed),
                                    FrequencySupport(11, 11), 512)
        assert basis.rect == rect
        assert caplog.records == []

    # the rank decision from the searched columns' Gram against the one
    # from the Gram the full-support SVD rebuilds: rounding moves the
    # margins, not the decision, and both take the vectors from _feature_svd
    @pytest.mark.parametrize("curve, k", [
        *((c, k) for k in (11, 15, 21) for c in range(10)),
        ("spectral", 11), ("repeated", 3)])
    def test_decision_matches_the_gram_from_the_svd(self, curve, k):
        if curve == "spectral":
            pts = noisy_union6(36)
        elif curve == "repeated":
            pts = PointSet(2, np.tile([[0.3], [0.6]], 3))
        else:
            pts = criterion3_points(curve)
        support = FrequencySupport(k, k)
        basis = nullspace_basis(pts, support, 512)
        ref = nullspace_basis_reference(pts, support, 512)
        assert (basis.rank, basis.rect, basis.q) == (ref.rank, ref.rect, ref.q)
        assert basis.cut == ref.cut
        assert np.allclose(basis.margins, ref.margins, rtol=1e-3, atol=0)
        assert np.array_equal(basis.vectors, ref.vectors)

    def test_vectors_are_computed_on_first_read(self, monkeypatch):
        # an odd rectangle smaller than the support decides: the decision
        # takes the singular values alone, the first read the full SVD
        calls = svd_spy(monkeypatch)
        basis = nullspace_basis(criterion3_points(0), FrequencySupport(11, 11),
                                512)
        assert basis.rect == FrequencySupport(5, 5)
        assert calls == [(121, False)]
        assert basis.vectors.shape == (basis.q, 121) == (49, 121)
        assert basis.vectors is basis.vectors
        assert calls == [(121, False), (121, True)]

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


class TestGramEstimate:
    """The phase sweep's Gram route against estimate_coefficients' SVD."""

    N_VALUES = [5, 10, 15, 20, 25, 30, 36, 40, 50, 60, 75, 90, 110, 130, 150,
                170, 196, 200, 215, 230]

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_agrees_with_the_svd_on_the_criterion2_draws(self, k):
        support = FrequencySupport(k, k)
        cut = 1e-3 * 512 / 256
        closest = np.inf  # s_2 / s_max over the cut, as a factor >= 1
        for t in range(10):
            seed = child_seed(2024, k, self.N_VALUES[-1], t)
            _, truth = curve_with_zero_set(support, seed, 256)
            full = sample_curve(truth, self.N_VALUES[-1],
                                seed=child_seed(seed, 1)).points
            r = _feature_lift(PointSet(2, full), support)[1]
            for n in self.N_VALUES:
                sub = PointSet(2, full[:, :n])
                s = _feature_svd(sub, support)[0]
                if s[-2] > 0:
                    ratio = s[-2] / s[0] / cut
                    closest = min(closest, max(ratio, 1 / ratio))
                try:
                    svd = estimate_coefficients(sub, support, 256)
                except NumericalFailure:
                    with pytest.raises(NumericalFailure):
                        gram_estimate(r[:n].T @ r[:n], support, 256)
                    continue
                gram = gram_estimate(r[:n].T @ r[:n], support, 256)
                assert gram.hermitian
                err = min(np.abs(gram.coeffs - svd.coeffs).max(),
                          np.abs(gram.coeffs + svd.coeffs).max())
                assert err <= 3e-11, (t, n)
        # no reading within rounding of the cut, so the agreement is no
        # accident; the closest, k = 7, trial 3, N = 60, is 1.024x the cut
        assert closest >= 1.01


class TestSumOfSquares:
    def test_nonnegative_everywhere(self):
        _, truth, _, _ = union_curve(3, 256)
        pts = sample_curve(truth, 230, seed=7)
        support = FrequencySupport(11, 11)
        basis = nullspace_basis(pts, support, 256)
        sos = SumOfSquares(support, basis.vectors)
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
            support = FrequencySupport(*shape)
            basis = nullspace_basis(pts, support, 256)
            sos = SumOfSquares(support, basis.vectors)
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
        sos = SumOfSquares(support, basis.vectors)
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

    # the null-space rows of each support, the criterion-3 estimate on the
    # known 5x5 support and the phase sweep's estimates
    @pytest.mark.parametrize("curve", range(4))
    @pytest.mark.parametrize("shape", [(5, 5), (7, 7), (11, 11), (9, 11)])
    def test_nullspace_rows_are_exactly_hermitian(self, curve, shape):
        pts = criterion3_points(curve)
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


class TestTrialFailures:
    # a nonzero constant: hermitian, with an empty zero set on every grid
    CONSTANT = TrigPolynomial(FrequencySupport(1, 1), [1.0], hermitian=True)

    def test_curve_draw_gives_up_after_the_attempt_cap(self, monkeypatch):
        seeds = []

        def constant(support, seed):
            seeds.append(seed)
            return self.CONSTANT
        monkeypatch.setattr(experiments, "random_curve", constant)
        with pytest.raises(NumericalFailure, match="non-empty zero set"):
            curve_with_zero_set(FrequencySupport(3, 3), 0, 64)
        assert len(seeds) == experiments._MAX_CURVE_ATTEMPTS

    def test_estimate_with_an_empty_zero_set_scores_inf(self, monkeypatch):
        _, truth = curve_with_zero_set(FrequencySupport(3, 3), 41, 256)
        monkeypatch.setattr(experiments, "estimate_coefficients",
                            lambda pts, support, grid_res: self.CONSTANT)
        assert _recovery_error(sample_curve(truth, 20, seed=1),
                               FrequencySupport(3, 3), truth, 256) == np.inf


class TestPhaseTransition:
    K_VALUES, N_VALUES, TRIALS, SEED, GRID_RES = [3, 5], [10, 30, 60], 3, 4, 64

    def sweep(self, threads=1):
        return phase_transition(self.K_VALUES, self.N_VALUES, self.TRIALS,
                                self.SEED, self.GRID_RES, threads)

    @pytest.mark.parametrize("k_values, n_values", [([], [10]), ([3], [])])
    def test_empty_range_rejected(self, k_values, n_values):
        with pytest.raises(ContractViolation, match="non-empty ranges"):
            phase_transition(k_values, n_values, self.TRIALS, self.SEED,
                             self.GRID_RES, 1)

    def test_one_curve_per_k_and_trial(self, monkeypatch):
        seeds = []

        def counting(support, seed, grid_res):
            seeds.append((support.k1, seed))
            return curve_with_zero_set(support, seed, grid_res)
        monkeypatch.setattr(experiments, "curve_with_zero_set", counting)
        self.sweep(threads=2)
        assert sorted(seeds) == [(k, child_seed(self.SEED, k, 60, t))
                                 for k in self.K_VALUES
                                 for t in range(self.TRIALS)]

    def test_last_column_is_the_largest_n_trial(self):
        expected = [np.mean([known_support_trial(
            FrequencySupport(k, k), 60, child_seed(self.SEED, k, 60, t),
            self.GRID_RES, None) <= 3 / self.GRID_RES
            for t in range(self.TRIALS)]) for k in self.K_VALUES]
        assert np.array_equal(self.sweep()[:, -1], expected)

    def test_cell_n_scores_the_first_n_samples(self, monkeypatch):
        calls = []

        def recording(gram, support, grid_res):
            calls.append((support.k1, gram))
            return gram_estimate(gram, support, grid_res)
        monkeypatch.setattr(experiments, "gram_estimate", recording)
        freq = self.sweep()
        monkeypatch.undo()
        # one pool thread runs the calls in (k, trial, N) order
        calls = np.array(calls, dtype=object).reshape(
            len(self.K_VALUES), self.TRIALS, len(self.N_VALUES), 2)
        ok = np.zeros(calls.shape[:3], dtype=bool)
        for ki, k in enumerate(self.K_VALUES):
            support = FrequencySupport(k, k)
            for t in range(self.TRIALS):
                seed = child_seed(self.SEED, k, 60, t)
                _, truth = curve_with_zero_set(support, seed, self.GRID_RES)
                full = sample_curve(truth, 60, seed=child_seed(seed, 1))
                for ni, n in enumerate(self.N_VALUES):
                    got_k, got = calls[ki, t, ni]
                    sub = PointSet(2, full.points[:, :n])
                    r = _feature_lift(sub, support)[1]
                    assert got_k == k
                    assert np.array_equal(got, r.T @ r)
                    ok[ki, t, ni] = _recovery_error(
                        sub, support, truth,
                        self.GRID_RES) <= 3 / self.GRID_RES
        assert np.array_equal(freq, ok.mean(axis=1))

    def test_zero_samples_fail_and_leave_the_other_cells(self):
        # N = 0 alone lifts no samples; beside other N, its Gram would be
        # 0, which no cut rejects
        assert np.array_equal(phase_transition([3], [0], 1, 0, 64, 1), [[0]])
        assert np.array_equal(phase_transition([3], [0, 9, 40], 1, 0, 64, 1),
                              [[0, 1, 1]])

    @pytest.mark.parametrize("k", [2, 1, 0, -3])
    def test_even_or_small_k_rejected_before_any_work(self, k, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a curve was drawn")
        monkeypatch.setattr(experiments, "curve_with_zero_set", no_draws)
        with pytest.raises(ContractViolation, match="odd support sizes"):
            phase_transition([3, k], [10], 1, 0, 64, 1)

    # the benchmark's op shapes: N at multiples of the (2k)^2 bound
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cells_equal_the_exact_decision_on_the_benchmark_shapes(self,
                                                                     seed):
        for k in (3, 5, 7):
            support = FrequencySupport(k, k)
            n_values = [round(f * (2 * k) ** 2)
                        for f in (0.25, 0.5, 0.75, 1.25, 1.5, 2.0)]
            exact = []
            for t in range(4):
                trial_seed = child_seed(seed, k, n_values[-1], t)
                _, truth = curve_with_zero_set(support, trial_seed, 256)
                full = sample_curve(truth, n_values[-1],
                                    seed=child_seed(trial_seed, 1)).points
                exact.append([_recovery_error(PointSet(2, full[:, :n]),
                                              support, truth, 256) <= 3 / 256
                              for n in n_values])
            assert np.array_equal(
                phase_transition([k], n_values, 4, seed, 256, 1)[0],
                np.mean(exact, axis=0)), k


def seam_line(offset):
    """The real 3x3 polynomial -sin(2 pi (x1 - offset)), zero on the lines
    x1 = offset and x1 = offset + 1/2."""
    coeffs = np.zeros(9, dtype=complex)
    coeffs[7] = -np.exp(-2j * np.pi * offset) / 2j  # frequency (1, 0)
    coeffs[1] = np.conj(coeffs[7])                  # frequency (-1, 0)
    return TrigPolynomial(FrequencySupport(3, 3), coeffs, hermitian=True)


class TestPhaseTransitionFallback:
    """Cells that the crossing-point bound cannot decide take the exact
    decision of known_support_trial, `_recovery_error`, and only those."""

    GRID_RES, N = 64, 20

    def sweep_cell(self, monkeypatch, truth_poly, estimate):
        """(the one-cell sweep's decision, the exact decision, the calls of
        the exact path) for a set truth and estimate."""
        def drawn(support, seed, grid_res):
            return truth_poly, extract_zero_level_set(truth_poly, grid_res)
        monkeypatch.setattr(experiments, "curve_with_zero_set", drawn)
        # the cell's Gram route and the exact path both take the estimate
        monkeypatch.setattr(experiments, "gram_estimate",
                            lambda gram, support, grid_res: estimate)
        monkeypatch.setattr(experiments, "estimate_coefficients",
                            lambda pts, support, grid_res: estimate)
        truth = extract_zero_level_set(truth_poly, self.GRID_RES)
        pts = PointSet(2, np.zeros((2, self.N)))  # unread: the estimate is set
        exact = _recovery_error(pts, FrequencySupport(3, 3), truth,
                                self.GRID_RES) <= 3 / self.GRID_RES
        calls = []

        def counted(*args):
            calls.append(args)
            return _recovery_error(*args)
        monkeypatch.setattr(experiments, "_recovery_error", counted)
        freq = phase_transition([3], [self.N], 1, 0, self.GRID_RES, 1)
        return bool(freq[0, 0]), exact, len(calls)

    def test_bound_decides_a_close_recovery(self, monkeypatch):
        assert self.sweep_cell(monkeypatch, seam_line(0.1 / self.GRID_RES),
                               seam_line(0.2 / self.GRID_RES)) == (
            True, True, 0)

    def test_vertex_on_a_grid_node(self, monkeypatch):
        # the estimate is exactly 0 on row 0, so its crossings from row
        # n-1 land on the nodes (0, j/n); the truth lies 0.3 px away
        estimate = seam_line(0.0)
        assert np.all(evaluate_on_grid(estimate, self.GRID_RES).real[0] == 0)
        assert self.sweep_cell(monkeypatch, seam_line(0.3 / self.GRID_RES),
                               estimate) == (True, True, 0)

    def test_pairs_straddling_the_seam(self, monkeypatch):
        # the truth's vertices sit at x1 = 0.0, the estimate's on the same
        # grid edges at x1 = 1 - 0.2 px: about 1 apart in the plane, which
        # the bound measures, and 0.2 px apart on the torus
        assert self.sweep_cell(monkeypatch, seam_line(0.0),
                               seam_line(-0.2 / self.GRID_RES)) == (
            True, True, 1)

    def test_recovery_far_from_the_truth(self, monkeypatch):
        assert self.sweep_cell(monkeypatch, seam_line(0.1),
                               seam_line(0.3)) == (False, False, 1)

    def test_empty_recovered_zero_set(self, monkeypatch):
        constant = TrigPolynomial(FrequencySupport(3, 3),
                                  np.eye(9)[4].astype(complex), hermitian=True)
        assert self.sweep_cell(monkeypatch, seam_line(0.1), constant) == (
            False, False, 1)


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

    @staticmethod
    def spy_paths(monkeypatch):
        """Counts of the SVDs and sum-of-squares builds that follow."""
        counts = {"svd": 0, "sos": 0}
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            counts["svd"] += 1
            return svd(*args, **kwargs)

        class CountedSumOfSquares(SumOfSquares):
            def __init__(self, *args):
                counts["sos"] += 1
                super().__init__(*args)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr("curveband.recovery.SumOfSquares",
                            CountedSumOfSquares)
        return counts

    # the sum-of-squares fallback, reached on these inputs by failing the
    # rectangle's own estimate: the former level, 3x the median of gamma
    # over the samples, never rose above the resolvable floor, so dropping
    # it moves no vertex
    @pytest.mark.parametrize("shape", [(11, 11), (10, 10)])
    @pytest.mark.parametrize("curve", range(4))
    def test_level_matches_the_median_rule_on_criterion3(self, curve, shape,
                                                         monkeypatch):
        def fails(*args):
            raise NumericalFailure("null space has dimension > 1")

        monkeypatch.setattr("curveband.recovery.estimate_coefficients", fails)
        _, truth, _, _ = union_curve(curve, 512)
        pts = sample_curve(truth, 220, seed=child_seed(curve, 1))
        support = FrequencySupport(*shape)
        self.assert_same_polyline(recover_curve(pts, support, 512),
                                  recover_curve_reference(pts, support, 512))

    # ROADMAP item 3 measured 0.0025-0.0112 px; the sum-of-squares band
    # read 1.72-2.34 px
    @pytest.mark.parametrize("curve", range(10))
    def test_odd_rectangle_contours_its_own_polynomial(self, curve,
                                                       monkeypatch):
        _, truth, _, _ = union_curve(curve, 512)
        pts = sample_curve(truth, 220, seed=child_seed(curve, 1))
        rect = nullspace_basis(pts, FrequencySupport(11, 11), 512).rect
        expected = extract_zero_level_set(
            estimate_coefficients(pts, rect, 512), 512)
        counts = self.spy_paths(monkeypatch)
        recovered = recover_curve(pts, FrequencySupport(11, 11), 512)
        assert rect == FrequencySupport(5, 5)
        assert counts == {"svd": 2, "sos": 0}
        self.assert_same_polyline(recovered, expected)
        assert chamfer_distance(recovered, truth) * 512 <= 0.05

    # at 41x41 the rank decision reads only the columns of the rectangles of
    # area <= N: the full support's singular values, never its vectors
    def test_wide_support_contours_the_rectangle_polynomial(self,
                                                            monkeypatch):
        pts = criterion3_points(0)
        expected = recover_curve(pts, FrequencySupport(11, 11), 512)
        calls = svd_spy(monkeypatch)
        self.assert_same_polyline(
            recover_curve(pts, FrequencySupport(41, 41), 512), expected)
        assert (41 * 41, False) in calls
        assert all(cols <= 25 for cols, vectors in calls if vectors)

    def test_wide_support_decision_is_silent(self, caplog):
        # 220 samples < |support| - 1 = 1680, but the 5x5 rectangle that
        # decides is determined by them (margins 309 and 19)
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(criterion3_points(0), FrequencySupport(41, 41), 512)
        assert caplog.records == []

    def test_known_support_takes_one_svd(self, monkeypatch):
        grid_res, support = 256, FrequencySupport(3, 3)
        _, truth = curve_with_zero_set(support, 12, grid_res)
        pts = sample_curve(truth, 36, seed=13)
        basis = nullspace_basis(pts, support, grid_res)
        expected = extract_zero_level_set(
            TrigPolynomial(support, basis.vectors[0], hermitian=True),
            grid_res)
        counts = self.spy_paths(monkeypatch)
        recovered = recover_curve(pts, support, grid_res)
        assert basis.q == 1
        assert counts == {"svd": 1, "sos": 0}
        self.assert_same_polyline(recovered, expected)

    # repeated samples of one point: a 1x2 rectangle decides, and no odd
    # rectangle is minimal for them
    @pytest.mark.parametrize("copies", [3, 20])
    def test_even_rectangle_takes_the_sum_of_squares(self, copies,
                                                     monkeypatch):
        pts = PointSet(2, np.tile([[0.3], [0.6]], copies))
        support = FrequencySupport(3, 3)
        assert nullspace_basis(pts, support, 512).rect == FrequencySupport(1, 2)
        counts = self.spy_paths(monkeypatch)
        assert not recover_curve(pts, support, 512).is_empty
        assert counts == {"svd": 1, "sos": 1}

    def test_spectral_fallback_takes_the_sum_of_squares(self, monkeypatch):
        pts, support = noisy_union6(36), FrequencySupport(11, 11)
        assert nullspace_basis(pts, support, 512).rect is None
        counts = self.spy_paths(monkeypatch)
        assert not recover_curve(pts, support, 512).is_empty
        assert counts == {"svd": 1, "sos": 1}

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

    def test_fallback_to_the_spectral_count_warns(self, caplog):
        # criterion-3 curve 6 with noise of about 1 px at 512: on this draw
        # no rectangle decides, and the rank is the spectral count
        pts, outer = noisy_union6(36), FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(pts, outer, 512)
        assert basis.rank == 106
        assert [r.getMessage() for r in caplog.records] == [
            "no rectangle decides; spectral rank 106 at cut 0.00015, "
            "margins %.3g above and %.3g below" % basis.margins]
        assert 1.0 < min(basis.margins) < 1.5

    def test_narrow_rectangle_decision_warns(self, caplog):
        # on this draw of the same noise an 11x8 rectangle decides, with a
        # smaller one read below the cut: a margin under 1
        pts, outer = noisy_union6(19), FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(pts, outer, 512)
        assert basis.rank == 117
        assert min(basis.margins) < 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "rectangle 11x8 decides rank 117 at cut 0.00015, "
            "margins %.3g above and %.3g below" % basis.margins]

    def test_clean_rectangle_decision_is_silent(self, caplog):
        pts, outer = noisy_union6(None), FrequencySupport(11, 11)
        basis = nullspace_basis(pts, outer, 512)
        with caplog.at_level(logging.WARNING, logger="curveband.recovery"):
            recover_curve(pts, outer, 512)
        assert basis.rank == 72
        assert min(basis.margins) >= 12.0
        assert caplog.records == []


class TestChamferDistance:
    def test_identical_polylines(self):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 16, 128)
        assert chamfer_distance(curve, curve) == 0.0

    def test_parallel_lines_offset(self):
        d = 0.07
        x2 = np.linspace(0, 1, 400, endpoint=False)
        for x1 in (0.3, 0.965):  # the second pair straddles the seam
            a = Polyline([np.stack([np.full(400, x1), x2], axis=1)])
            b = Polyline([np.stack([np.full(400, x1 + d), x2], axis=1)])
            assert abs(chamfer_distance(a, b) - d) <= 0.01 * d, x1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        a = Polyline([rng.uniform(0, 1, (50, 2))])
        b = Polyline([rng.uniform(0, 1, (50, 2))])
        assert abs(chamfer_distance(a, b)
                   - chamfer_distance_reference(a, b)) <= 1e-12

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
        dc = np.flatnonzero(~support_indices(support).any(axis=1)).item()
        for _ in range(10):
            coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            z = PointSet(2, rng.uniform(0, 1, (2, 1)))
            for c in coeffs:
                c[dc] -= evaluate(TrigPolynomial(support, c), z)[0]
            pa = TrigPolynomial(support, coeffs[0])
            pb = TrigPolynomial(support, coeffs[1])
            assert count_common_zeros(pa, pb, bound_hint=16) >= 1
