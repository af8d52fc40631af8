import numpy as np
import pytest

from curveband import (ContractViolation, FrequencySupport, GrayImage,
                       PointSet, chamfer_distance, evaluate, segment)
from curveband.experiments import (circle_polyline, curve_phantom,
                                   curve_with_zero_set, disk_phantom,
                                   edge_contours, multi_disk_phantom)
from curveband.recovery import rank_bound
from curveband.segmentation import (build_lift, gradient_spectrum,
                                    trailing_energy)


def materialize_by_oracle(lift):
    """Independent dense assembly: column k of the lift is the valid
    convolution with a unit impulse at frequency offset k."""
    support = lift.filter_support
    s0, s1 = lift.spectra
    g1, g2 = support.shape
    lo1, _ = support.axis_range(0)
    lo2, _ = support.axis_range(1)
    v1, v2 = lift.valid_shape
    cols = []
    for k in support.indices():
        block = []
        for s in (s0, s1):
            out = np.empty((v1, v2), dtype=complex)
            for m1 in range(v1):
                for m2 in range(v2):
                    # conv[m] = sum_k c[k] S[m - k]; valid offset puts m at
                    # (m1 + g1 - 1 + lo1, m2 + g2 - 1 + lo2)
                    i = m1 + (g1 - 1) + lo1 - int(k[0])
                    j = m2 + (g2 - 1) + lo2 - int(k[1])
                    out[m1, m2] = s[i, j]
            block.append(out.ravel())
        cols.append(np.concatenate(block))
    return np.stack(cols, axis=1)


class TestGrayImage:
    def test_minimum_dimensions(self):
        with pytest.raises(ContractViolation):
            GrayImage(np.zeros((8, 32)))

    def test_range_enforced(self):
        with pytest.raises(ContractViolation):
            GrayImage(np.full((16, 16), 1.5))


class TestGradientSpectrum:
    def test_constant_image_has_zero_gradients(self):
        img = GrayImage(np.full((24, 24), 0.5))
        g0, g1 = gradient_spectrum(img)
        assert np.abs(g0).max() <= 1e-12
        assert np.abs(g1).max() <= 1e-12

    def test_vertical_edge_concentrates_in_horizontal_channel(self):
        pix = np.zeros((32, 32))
        pix[:, 16:] = 1.0
        g0, g1 = gradient_spectrum(GrayImage(pix))
        assert np.abs(g0).max() <= 1e-12  # no variation along rows
        spatial = np.fft.ifft2(g1).real
        nonzero_cols = np.unique(np.nonzero(np.abs(spatial) > 1e-9)[1])
        assert set(nonzero_cols) == {15, 31}

    def test_difference_route_equals_multiplier_route(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.uniform(0, 1, (32, 32)))
        g0, g1 = gradient_spectrum(img)
        f_hat = np.fft.fft2(img.pixels)
        m0 = np.exp(2j * np.pi * np.fft.fftfreq(32))[:, None] - 1.0
        m1 = np.exp(2j * np.pi * np.fft.fftfreq(32))[None, :] - 1.0
        assert np.abs(g0 - m0 * f_hat).max() <= 1e-10
        assert np.abs(g1 - m1 * f_hat).max() <= 1e-10


class TestToeplitzLift:
    def test_impulse_filter_crops_spectra(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.uniform(0, 1, (16, 16)))
        support = FrequencySupport(3, 3)
        lift = build_lift(img, support)
        c = np.zeros(9)
        c[support.index_of((0, 0))] = 1.0
        out = lift.apply(c)
        v1, v2 = lift.valid_shape
        crops = [s[1:1 + v1, 1:1 + v2].ravel() for s in lift.spectra]
        assert np.abs(out - np.concatenate(crops)).max() <= 1e-12

    def test_constant_image_annihilated_by_everything(self):
        img = GrayImage(np.full((20, 20), 0.3))
        lift = build_lift(img, FrequencySupport(3, 3))
        rng = np.random.default_rng(2)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.abs(lift.apply(c)).max() <= 1e-12

    def test_matches_materialized_oracle(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.uniform(0, 1, (16, 16)))
        lift = build_lift(img, FrequencySupport(3, 3))
        direct = lift.materialize()
        oracle = materialize_by_oracle(lift)
        assert np.abs(direct - oracle).max() <= 1e-10
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.abs(lift.apply(c) - oracle @ c).max() <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.uniform(0, 1, (24, 24)))
        lift = build_lift(img, FrequencySupport(5, 3))
        c1 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        c2 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        lhs = lift.apply(0.7 * c1 - 1.3j * c2)
        rhs = 0.7 * lift.apply(c1) - 1.3j * lift.apply(c2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_size_mismatch_rejected(self):
        img = GrayImage(np.full((16, 16), 0.5))
        lift = build_lift(img, FrequencySupport(3, 3))
        with pytest.raises(ContractViolation):
            lift.apply(np.zeros(8))


class TestSegment:
    def test_disk_phantom_reconstruction_and_edges(self):
        img = disk_phantom(64, radius=0.3)
        support = FrequencySupport(9, 9)
        result = segment(img, rank=30, lam=1e-5, filter_support=support,
                         max_iters=8)
        rel_err = (np.linalg.norm(result.f_star.pixels - img.pixels)
                   / np.linalg.norm(img.pixels))
        assert rel_err <= 1e-2
        contours = edge_contours(result.edge_map)
        assert not contours.is_empty
        err_px = chamfer_distance(contours, circle_polyline(radius=0.3)) * 64
        assert err_px <= 2.0
        # edge map is small on the circle, larger elsewhere
        em = result.edge_map.pixels
        yy, xx = np.meshgrid((np.arange(64) + 0.5) / 64,
                             (np.arange(64) + 0.5) / 64, indexing="ij")
        r = np.sqrt((yy - 0.5) ** 2 + (xx - 0.5) ** 2)
        on_band = np.abs(r - 0.3) < 1.5 / 64
        off_band = np.abs(r - 0.3) > 6.0 / 64
        assert np.median(em[on_band]) < 0.1 * np.median(em[off_band])

    def test_trailing_energy_decreases(self):
        img = disk_phantom(64, radius=0.25)
        support = FrequencySupport(9, 9)
        rank = 30
        before = trailing_energy(build_lift(img, support), rank)
        result = segment(img, rank=rank, lam=1e-2, filter_support=support,
                         max_iters=8)
        after = trailing_energy(build_lift(result.f_star, support), rank)
        assert after < before

    def test_rank_sweep_complexity_monotone(self):
        img = multi_disk_phantom(64)
        support = FrequencySupport(9, 9)
        lengths = []
        for rank in (15, 30, 45):
            result = segment(img, rank=rank, lam=1e-3,
                             filter_support=support, max_iters=6)
            lengths.append(edge_contours(result.edge_map).total_length())
        assert lengths[0] <= lengths[1] <= lengths[2]

    def test_stability_under_resegmentation(self):
        img = disk_phantom(64, radius=0.3)
        support = FrequencySupport(7, 7)
        first = segment(img, rank=30, lam=1e-2, filter_support=support,
                        max_iters=6)
        second = segment(first.f_star, rank=30, lam=1e-2,
                         filter_support=support, max_iters=6)
        change_first = np.linalg.norm(first.f_star.pixels - img.pixels)
        change_second = np.linalg.norm(second.f_star.pixels
                                       - first.f_star.pixels)
        assert change_second <= change_first + 1e-9

    def test_bandlimited_edge_phantom_is_nearly_low_rank(self):
        inner = FrequencySupport(3, 3)
        outer = FrequencySupport(7, 7)
        bound = rank_bound(outer, inner)
        for seed in (3, 4):
            poly, _ = curve_with_zero_set(inner, seed, 256)
            fractions = []
            for size in (64, 128):
                lift = build_lift(curve_phantom(poly, size), outer)
                s = np.linalg.svd(lift.materialize(), compute_uv=False)
                fractions.append(float(np.sum(s[bound:] ** 2) / np.sum(s ** 2)))
                measured = int(np.count_nonzero(s > (4.0 / size) * s[0]))
                assert measured <= bound + 5
            # the trailing tail is discretization error: it shrinks with size
            assert fractions[1] < fractions[0]
            assert fractions[1] <= 5e-3

    # iterations, converged and objective_history of segment on
    # disk_phantom(32) with a 7x7 filter and rank 20, recorded from the
    # implementation that evaluated the last iterate in a copy of the loop
    # body after the loop
    @pytest.mark.parametrize("lam, max_iters, iterations, converged, history", [
        (1e-2, 3, 3, False, [226.02486312684906, 89.49383142518076,
                             79.347957565752, 75.3752490393213]),
        (1e-2, 0, 0, False, [226.02486312684906]),
        (1e-4, 3, 2, True, [2.2602486312684906, 2.1608547894183516,
                            2.162333062356102]),
    ])
    def test_pinned_iteration_record(self, lam, max_iters, iterations,
                                     converged, history):
        result = segment(disk_phantom(32), rank=20, lam=lam,
                         filter_support=FrequencySupport(7, 7),
                         max_iters=max_iters)
        assert result.iterations == iterations
        assert result.converged is converged
        np.testing.assert_allclose(result.objective_history, history,
                                   rtol=1e-12, atol=0)

    def test_invalid_rank_rejected(self):
        img = disk_phantom(32)
        with pytest.raises(ContractViolation):
            segment(img, rank=200, lam=1.0,
                    filter_support=FrequencySupport(5, 5))

    def test_invalid_lambda_rejected(self):
        img = disk_phantom(32)
        with pytest.raises(ContractViolation):
            segment(img, rank=5, lam=0.0, filter_support=FrequencySupport(5, 5))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected_before_any_work(self, lam,
                                                        monkeypatch):
        def no_lift(*args):
            raise AssertionError("lift built before lam was checked")

        monkeypatch.setattr("curveband.segmentation.build_lift", no_lift)
        with pytest.raises(ContractViolation, match="lam"):
            segment(disk_phantom(32), rank=5, lam=lam,
                    filter_support=FrequencySupport(5, 5))

    def test_wide_lift_edge_map_uses_every_trailing_filter(self):
        # 16 px with a 13x13 filter: the lift has 2 * 4 * 4 = 32 rows and
        # 169 columns, so its null space alone has dimension >= 137
        img = disk_phantom(16)
        support = FrequencySupport(13, 13)
        rank = 5
        lift = build_lift(img, support)
        m = materialize_by_oracle(lift)
        assert m.shape == (32, 169)
        vh = np.linalg.svd(m, full_matrices=True)[2]
        trailing = np.conj(vh[rank:])                    # (164, 169)
        c = np.arange(16) / 16
        yy, xx = np.meshgrid(c, c, indexing="ij")
        grid = np.stack([yy.ravel(), xx.ravel()])
        values = trailing @ np.exp(2j * np.pi * (support.indices() @ grid))
        expected = np.sum(np.abs(values) ** 2, axis=0).reshape(16, 16)
        expected /= expected.max()
        result = segment(img, rank=rank, lam=1.0, filter_support=support,
                         max_iters=0)
        np.testing.assert_allclose(result.edge_map.pixels, expected,
                                   rtol=0, atol=1e-9)


class TestCurvePhantom:
    def test_matches_direct_evaluation_at_pixel_centres(self):
        poly, _ = curve_with_zero_set(FrequencySupport(5, 5), 7, 256)
        size = 48
        c = (np.arange(size) + 0.5) / size
        yy, xx = np.meshgrid(c, c, indexing="ij")
        vals = evaluate(poly, PointSet(2, np.stack([yy.ravel(), xx.ravel()])))
        expected = (vals.real > 0).reshape(size, size).astype(float)
        assert np.array_equal(curve_phantom(poly, size).pixels, expected)
