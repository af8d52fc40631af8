import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from curveband import FrequencySupport, PointSet
from curveband.errors import ContractViolation
from curveband.experiments import (circle_polyline, curve_with_zero_set,
                                   disk_phantom, edge_contours,
                                   multi_disk_phantom)
from curveband.recovery import chamfer_distance, rank_bound
from curveband.segmentation import (GrayImage, ToeplitzLift, _gradients,
                                    _gram_spectrum, _update_system,
                                    build_lift, segment, trailing_energy)
from oracles import (curve_phantom, edge_weights_by_svd, evaluate,
                     gradient_channels, gradient_operator,
                     lift_spectrum_by_svd, segment_by_spsolve,
                     support_indices, update_system_by_products)


def materialize_by_oracle(lift):
    """Independent dense assembly: column k of the lift is the circular
    convolution with a unit impulse at frequency offset k."""
    s0, s1 = gradient_channels(lift.image)
    n1, n2 = s0.shape
    cols = []
    for k in support_indices(lift.filter_support):
        block = []
        for s in (s0, s1):
            out = np.empty((n1, n2), dtype=complex)
            for m1 in range(n1):
                for m2 in range(n2):
                    # conv[m] = sum_k c[k] S[m - k], indices mod n
                    out[m1, m2] = s[(m1 - int(k[0])) % n1,
                                    (m2 - int(k[1])) % n2]
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

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(ContractViolation, match="2-D"):
            GrayImage(np.zeros((16, 16, 3)))

    def test_nan_pixel_rejected(self):
        pixels = np.full((16, 16), 0.5)
        pixels[3, 4] = np.nan
        with pytest.raises(ContractViolation, match="finite"):
            GrayImage(pixels)


def gradient_spectrum(img):
    """The lift's two channels in numpy fft layout: a 1x1 filter's only
    column is both fftshifted channels stacked."""
    col = build_lift(img, FrequencySupport(1, 1)).materialize()[:, 0]
    return tuple(np.fft.ifftshift(s)
                 for s in col.reshape(2, *img.pixels.shape))


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
    def test_zero_frequency_impulse_returns_whole_spectra(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.uniform(0, 1, (16, 16)))
        support = FrequencySupport(3, 3)
        lift = build_lift(img, support)
        c = np.zeros(9)
        c[np.flatnonzero(~support_indices(support).any(axis=1)).item()] = 1.0
        out = lift.materialize() @ c
        whole = [s.ravel() for s in gradient_channels(img)]
        assert np.abs(out - np.concatenate(whole)).max() <= 1e-12

    def test_constant_image_annihilated_by_everything(self):
        img = GrayImage(np.full((20, 20), 0.3))
        lift = build_lift(img, FrequencySupport(3, 3))
        rng = np.random.default_rng(2)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.abs(lift.materialize() @ c).max() <= 1e-12

    def test_matches_materialized_oracle(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.uniform(0, 1, (16, 16)))
        lift = build_lift(img, FrequencySupport(3, 3))
        direct = lift.materialize()
        oracle = materialize_by_oracle(lift)
        assert np.abs(direct - oracle).max() <= 1e-10
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.abs(direct @ c - oracle @ c).max() <= 1e-10

    def test_matches_oracle_on_non_square_lift(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.uniform(0, 1, (24, 40)))
        lift = build_lift(img, FrequencySupport(7, 5))
        m = lift.materialize()
        assert m.shape == (2 * 24 * 40, 7 * 5)
        assert np.array_equal(m, materialize_by_oracle(lift))

    # the FFT Gram against M^H M of the materialized lift: non-square images
    # and filters, an even filter, a 13x13 filter on 16 px, a filter one
    # frequency tall, a 2x2 filter, a filter as tall as the image, and a
    # filter equal to the image
    @pytest.mark.parametrize("shape, k", [
        ((24, 40), (7, 5)), ((40, 24), (4, 9)), ((32, 32), (8, 6)),
        ((16, 16), (13, 13)), ((16, 16), (1, 5)), ((16, 20), (2, 2)),
        ((16, 20), (16, 3)), ((17, 16), (17, 16)),
    ])
    def test_gram_spectrum_matches_materialized_gram(self, shape, k):
        rng = np.random.default_rng(5)
        lift = build_lift(GrayImage(rng.uniform(0, 1, shape)),
                          FrequencySupport(*k))
        m = lift.materialize()
        gram = m.conj().T @ m
        lam, v = _gram_spectrum(lift.image.pixels, k)
        assert np.all(np.diff(lam) <= 0)
        rebuilt = (v * lam) @ v.conj().T
        assert np.abs(rebuilt - gram).max() <= 1e-13 * np.abs(gram).max()

    def test_trailing_energy_memory_stays_below_the_lift(self):
        # the 128 px / 15x15 lift is 32768 x 225 complex, 112.5 MiB
        tracemalloc.start()
        try:
            trailing_energy(build_lift(disk_phantom(128, radius=0.3),
                                       FrequencySupport(15, 15)), 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


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
    # disk_phantom(32, radius=0.3) with a 7x7 filter and rank 20, recorded
    # from the implementation whose objective and update both read the
    # circular lift; the SVD-oracle tests below are the independent check
    @pytest.mark.parametrize("lam, max_iters, iterations, converged, history", [
        (1e-2, 3, 3, False, [323.8038364165786, 96.42805376243231,
                             86.33945574268598, 84.29181037937573]),
        (1e-2, 0, 0, False, [323.8038364165786]),
        (1e-4, 3, 3, True, [3.238038364165786, 2.830440996336916,
                            2.8298259655052123, 2.8297598689426295]),
    ])
    def test_pinned_iteration_record(self, lam, max_iters, iterations,
                                     converged, history):
        result = segment(disk_phantom(32, radius=0.3), rank=20, lam=lam,
                         filter_support=FrequencySupport(7, 7),
                         max_iters=max_iters)
        assert result.iterations == iterations
        assert result.converged is converged
        np.testing.assert_allclose(result.objective_history, history,
                                   rtol=1e-12, atol=0)

    # the same record for a segment workload op, multi_disk_phantom(64) with
    # a 9x9 filter, rank 45 and lam 1e-3, recorded from the same
    # implementation
    def test_pinned_iteration_record_at_workload_size(self):
        result = segment(multi_disk_phantom(64), rank=45, lam=1e-3,
                         filter_support=FrequencySupport(9, 9), max_iters=6)
        assert result.iterations == 6
        assert result.converged is False
        np.testing.assert_allclose(
            result.objective_history,
            [23.84221460092244, 10.389318271994048, 6.404660576505622,
             6.105637591249499, 6.0861435776409545, 6.079179912961061,
             6.076447130831765], rtol=1e-12, atol=0)

    # each update minimizes a majorizer of the objective (the trailing
    # energy with the filters of the current iterate held fixed), so the
    # objective never rises: the criterion-9 disk at both of its lambdas,
    # and the input of the CLI objective test
    @pytest.mark.parametrize("image, k, rank, lam, max_iters", [
        pytest.param(lambda: disk_phantom(64, radius=0.3), 9, 30, 1e-5, 8,
                     id="disk64-lam1e-5"),
        pytest.param(lambda: disk_phantom(64, radius=0.3), 9, 30, 1e-2, 8,
                     id="disk64-lam1e-2"),
        pytest.param(lambda: disk_phantom(32, radius=0.25), 5, 12, 1e-3, 8,
                     id="disk32-5x5"),
    ])
    def test_objective_never_rises(self, image, k, rank, lam, max_iters):
        history = segment(image(), rank=rank, lam=lam,
                          filter_support=FrequencySupport(k, k),
                          max_iters=max_iters).objective_history
        assert len(history) > 2
        assert np.all(np.diff(history) <= 0), history

    # the Gram eigendecomposition against a dense SVD of the lift: the
    # criterion-9 disk, the workload's multi-disk ranks and a 13x13 filter
    # on 16 px (a wide lift when the lift kept only the windows inside the
    # spectrum), whose 164 trailing filters all enter the edge map
    @pytest.mark.parametrize("image, k, rank", [
        pytest.param(lambda: disk_phantom(32, radius=0.3), 7, 20,
                     id="disk32-7x7"),
        pytest.param(lambda: multi_disk_phantom(64), 9, 15, id="multi64-r15"),
        pytest.param(lambda: multi_disk_phantom(64), 9, 30, id="multi64-r30"),
        pytest.param(lambda: multi_disk_phantom(64), 9, 45, id="multi64-r45"),
        pytest.param(lambda: disk_phantom(16, radius=0.3), 13, 5,
                     id="wide16-13x13"),
    ])
    def test_gram_spectrum_matches_svd_oracle(self, image, k, rank):
        img = image()
        support = FrequencySupport(k, k)
        lift = build_lift(img, support)
        s, _ = lift_spectrum_by_svd(lift)
        expected = float(np.sum(s[rank:] ** 2))
        assert abs(trailing_energy(lift, rank) - expected) <= 1e-10 * expected
        weights = edge_weights_by_svd(lift, rank, img.pixels.shape)
        result = segment(img, rank=rank, lam=1.0, filter_support=support,
                         max_iters=0)
        np.testing.assert_allclose(result.edge_map.pixels,
                                   weights / weights.max(), rtol=0, atol=1e-9)

    # the q = |support| - rank trailing filters are orthonormal and a filter
    # no larger than the image puts no two frequencies on one grid point, so
    # by Parseval the weights that segment normalizes average q: never all
    # zero, and the peak pixel of the edge map is exactly 1 (at rank 0 the
    # map is constant)
    @pytest.mark.parametrize("image, shape, rank", [
        pytest.param(lambda: disk_phantom(16, radius=0.3), (15, 15), 5,
                     id="15x15-on-16px"),
        pytest.param(lambda: GrayImage(np.random.default_rng(6).uniform(
            0, 1, (24, 40))), (7, 5), 10, id="24x40-7x5"),
        pytest.param(lambda: disk_phantom(32, radius=0.25), (5, 5), 0,
                     id="rank0"),
    ])
    def test_edge_weights_average_q(self, image, shape, rank):
        img = image()
        support = FrequencySupport(*shape)
        result = segment(img, rank=rank, lam=1e-2, filter_support=support,
                         max_iters=2)
        weights = edge_weights_by_svd(build_lift(result.f_star, support),
                                      rank, img.pixels.shape)
        q = len(support) - rank
        assert abs(weights.mean() - q) <= 1e-9 * q
        assert result.edge_map.pixels.max() == 1.0
        if rank == 0:
            assert np.ptp(weights) <= 1e-9 * q

    # the smallest eigen-gap over every evaluated iterate is named, once.
    # The 32 px disk's own Gram (5x5) cuts at rank 6 between eigenvalues
    # 1.0027 apart; two updates widen that gap to 1.14 at the returned
    # iterate, but the updates rest on iterate 0, so both runs warn. The
    # criterion-9 disk at lam 1e-2 reads 1.0622, 1.0791, 1.0715, 1.0511,
    # 1.0312, 1.0159, 1.0055, 1.0013 and 1.1718 over its nine iterates
    @pytest.mark.parametrize("image, rank, lam, size, max_iters, message", [
        pytest.param(disk_phantom(32, radius=0.28), 6, 1e-4, 5, 0,
                     "eigen-gap 1.0027 at rank 6 is under 1.01 at iterate 0",
                     id="disk32-0"),
        pytest.param(disk_phantom(32, radius=0.28), 6, 1e-4, 5, 2,
                     "eigen-gap 1.0027 at rank 6 is under 1.01 at iterate 0",
                     id="disk32-2"),
        pytest.param(disk_phantom(64, radius=0.3), 30, 1e-2, 9, 8,
                     "eigen-gap 1.0013 at rank 30 is under 1.01 at iterate 7",
                     id="criterion9-disk"),
    ])
    def test_narrow_eigen_gap_warns(self, caplog, image, rank, lam, size,
                                    max_iters, message):
        with caplog.at_level(logging.WARNING,
                             logger="curveband.segmentation"):
            segment(image, rank=rank, lam=lam,
                    filter_support=FrequencySupport(size, size),
                    max_iters=max_iters)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert message in messages[0]

    def test_wide_eigen_gaps_are_silent(self, caplog):
        # the criterion-9 disk at lam 1e-5 converges after two updates, its
        # iterates reading 1.0622, 1.0697 and 1.0700
        with caplog.at_level(logging.WARNING,
                             logger="curveband.segmentation"):
            segment(disk_phantom(64, radius=0.3), rank=30, lam=1e-5,
                    filter_support=FrequencySupport(9, 9), max_iters=8)
        assert caplog.records == []

    def test_segment_calls_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("segment called numpy.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        result = segment(disk_phantom(64, radius=0.3), rank=30, lam=1e-5,
                         filter_support=FrequencySupport(9, 9), max_iters=2)
        assert result.iterations == 2

    def test_segment_never_materializes_the_lift(self, monkeypatch):
        def no_materialize(self):
            raise AssertionError("ToeplitzLift.materialize called")

        monkeypatch.setattr(ToeplitzLift, "materialize", no_materialize)
        result = segment(disk_phantom(64, radius=0.3), rank=30, lam=1e-5,
                         filter_support=FrequencySupport(9, 9), max_iters=2)
        assert result.iterations == 2
        lift = build_lift(disk_phantom(64, radius=0.3), FrequencySupport(9, 9))
        assert trailing_energy(lift, 30) > 0

    # the stacked operator of the reference update system against the two
    # np.roll differences of the Gram, on non-square images
    @pytest.mark.parametrize("shape", [(16, 24), (25, 17)])
    def test_gradient_operator_equals_stacked_gradients(self, shape):
        f = np.random.default_rng(6).uniform(0, 1, shape)
        stacked = np.concatenate([g.ravel() for g in _gradients(f)])
        assert np.array_equal(gradient_operator(*shape) @ f.ravel(), stacked)

    # the 5-point stencil against I + c G^T S G by sparse products, entry
    # by entry, with weights that include exact zeros
    @pytest.mark.parametrize("shape", [(16, 24), (25, 17), (64, 64)])
    def test_update_system_equals_the_sparse_products(self, shape):
        rng = np.random.default_rng(9)
        weights = rng.uniform(0, 81, shape) * (rng.uniform(size=shape) > 0.2)
        for c in (1e-3 * weights.size, 100.0):
            system = _update_system(weights, c)
            assert system.format == "csc"
            expected = update_system_by_products(weights, c).toarray()
            assert np.abs(system.toarray() - expected).max() <= (
                1e-14 * np.abs(expected).max())

    # segment's update system I + c G^T S G is an M-matrix with unit row
    # sums, so its solution lies in the range of the right-hand side and
    # the clip of each solve removes only rounding; the weights of a 9x9
    # filter's sum-of-squares of unit vectors lie in [0, 81]
    @pytest.mark.parametrize("shape", [(16, 24), (25, 17), (64, 64)])
    def test_update_system_keeps_the_solution_in_range(self, shape):
        rng = np.random.default_rng(8)
        for c in (1e-3 * np.prod(shape), 1e-2 * np.prod(shape), 100.0):
            # CSC as built: splu would warn on any other format
            system = _update_system(rng.uniform(0, 81, shape), c)
            assert (system - sp.diags(system.diagonal())).max() <= 0
            row_sums = np.asarray(system.sum(axis=1)).ravel()
            assert np.abs(row_sums - 1).max() <= 1e-10
            h = rng.uniform(0, 1, np.prod(shape))
            f = splu(system, permc_spec="MMD_AT_PLUS_A", relax=1,
                     panel_size=4).solve(h)
            assert h.min() - 1e-12 <= f.min() and f.max() <= h.max() + 1e-12

    # the SuperLU factor with unrelaxed supernodes on the 5-point system
    # against the earlier update: spsolve with default supernodes on the
    # system of sparse products; the criterion-9 disk and one multi-disk
    # rank. Each solve differs by rounding (under 1e-13). The Gram of the
    # lam 1e-2 disk's seventh iterate has an eigen-gap of 1.0013, so its
    # trailing filters turn with that rounding: f_star moves by 5.2e-11
    @pytest.mark.parametrize("image, rank, lam, max_iters, f_tol", [
        pytest.param(disk_phantom(64, radius=0.3), 30, 1e-5, 8, 1e-12,
                     id="disk-1e-5"),
        pytest.param(disk_phantom(64, radius=0.3), 30, 1e-2, 8, 1e-10,
                     id="disk-1e-2"),
        pytest.param(multi_disk_phantom(64), 30, 1e-3, 6, 1e-12,
                     id="multi-disk-30"),
    ])
    def test_segment_matches_the_spsolve_loop(self, image, rank, lam,
                                              max_iters, f_tol):
        support = FrequencySupport(9, 9)
        result = segment(image, rank=rank, lam=lam, filter_support=support,
                         max_iters=max_iters)
        f_ref, history_ref = segment_by_spsolve(image, rank, lam, support,
                                                max_iters)
        assert result.iterations == len(history_ref) - 1
        assert np.abs(result.f_star.pixels - f_ref).max() <= f_tol
        np.testing.assert_allclose(result.objective_history, history_ref,
                                   rtol=1e-12, atol=0)

    def test_invalid_rank_rejected(self):
        img = disk_phantom(32, radius=0.3)
        with pytest.raises(ContractViolation):
            segment(img, rank=200, lam=1.0,
                    filter_support=FrequencySupport(5, 5), max_iters=15)

    def test_invalid_lambda_rejected(self):
        img = disk_phantom(32, radius=0.3)
        with pytest.raises(ContractViolation):
            segment(img, rank=5, lam=0.0,
                    filter_support=FrequencySupport(5, 5), max_iters=15)

    # a negative max_iters rides along: it is rejected at the same point
    @pytest.mark.parametrize("lam, max_iters, match", [
        pytest.param(np.nan, 3, "lam", id="nan"),
        pytest.param(np.inf, 3, "lam", id="inf"),
        pytest.param(1.0, -3, "max_iters", id="max_iters-3"),
    ])
    def test_non_finite_lambda_rejected_before_any_work(self, lam, max_iters,
                                                        match, monkeypatch):
        def no_lift(*args):
            raise AssertionError("lift built before the settings were checked")

        monkeypatch.setattr("curveband.segmentation.build_lift", no_lift)
        with pytest.raises(ContractViolation, match=match):
            segment(disk_phantom(32, radius=0.3), rank=5, lam=lam,
                    filter_support=FrequencySupport(5, 5), max_iters=max_iters)

    def test_non_finite_objective_still_returns_an_iterate(self):
        # lam * trailing energy overflows to inf; the first iterate is kept
        img = disk_phantom(64, radius=0.3)
        with np.errstate(over="ignore"):
            result = segment(img, rank=30, lam=1e308,
                             filter_support=FrequencySupport(9, 9),
                             max_iters=0)
        assert result.objective_history[0] == np.inf
        assert np.array_equal(result.f_star.pixels, img.pixels)
        assert np.isfinite(result.edge_map.pixels).all()
        assert result.edge_map.pixels.max() == 1.0


class TestCurvePhantom:
    def test_matches_direct_evaluation_at_pixel_centres(self):
        poly, _ = curve_with_zero_set(FrequencySupport(5, 5), 7, 256)
        size = 48
        c = (np.arange(size) + 0.5) / size
        yy, xx = np.meshgrid(c, c, indexing="ij")
        vals = evaluate(poly, PointSet(2, np.stack([yy.ravel(), xx.ravel()])))
        expected = (vals.real > 0).reshape(size, size).astype(float)
        assert np.array_equal(curve_phantom(poly, size).pixels, expected)
