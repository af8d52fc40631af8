import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import convolve2d

import curveband
from curveband import (FrequencySupport, PointSet, TrigPolynomial,
                       extract_zero_level_set, feature_matrix, random_curve,
                       sample_curve)
from curveband.curve_model import (Polyline, _crossings, _exp_table,
                                   contour_periodic_grid, evaluate_on_grid,
                                   multiply, wrap_delta)
from curveband.errors import ContractViolation
from curveband.experiments import (disk_phantom, known_support_trial,
                                   multi_disk_phantom, phase_transition,
                                   union_curve)
from curveband.recovery import SumOfSquares
from oracles import (contour_periodic_grid_reference, evaluate,
                     evaluate_on_grid_reference, random_curve_reference,
                     support_indices)


def naive_evaluate(poly, x):
    """Independent double loop over the support."""
    total = 0.0 + 0.0j
    for k, c in zip(support_indices(poly.support), poly.coeffs):
        total += c * np.exp(2j * np.pi * (k[0] * x[0] + k[1] * x[1]))
    return total


def grid_points(n, seed):
    rng = np.random.default_rng(seed)
    return PointSet(2, rng.uniform(0, 1, size=(2, n)))


class TestFrequencySupport:
    def test_cardinality_and_degree(self):
        s = FrequencySupport(3, 5)
        assert len(s) == 15
        assert sum(s.shape) == 8

    def test_enumeration_order_is_row_major(self):
        s = FrequencySupport(3, 2)
        expected = [(-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0)]
        assert [tuple(k) for k in support_indices(s)] == expected
        # the library's own order: the feature-matrix rows at one point
        rows = feature_matrix(PointSet(2, [[0.1], [0.37]]), s).data[:, 0]
        phase = np.array(expected) @ [0.1, 0.37]
        assert np.abs(rows - np.exp(2j * np.pi * phase)).max() <= 1e-14

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ContractViolation):
            FrequencySupport(0, 3)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_frequencies_are_the_centred_range(self, k):
        for s, axis in ((FrequencySupport(k, 2), 0), (FrequencySupport(3, k), 1)):
            assert (list(s.frequencies(axis))
                    == list(range(-(k // 2), (k - 1) // 2 + 1)))


@pytest.mark.parametrize("coeffs", [np.ones(8), [1.0, 2.0, np.nan, 0.0],
                                    [0.0, 0.0, 1j * np.inf, 0.0]])
def test_trig_polynomial_rejects_bad_coefficients(coeffs):
    with pytest.raises(ContractViolation):
        TrigPolynomial(FrequencySupport(2, 2), coeffs)


@pytest.mark.parametrize("points", [np.zeros((3, 4)), np.zeros(4),
                                    [[0.0, np.inf], [0.5, 0.5]]])
def test_point_set_rejects_bad_points(points):
    with pytest.raises(ContractViolation):
        PointSet(2, points)


class TestPolyline:
    def test_empty_polyline_gives_empty_arrays(self):
        curve = Polyline([])
        assert curve.vertex_array().shape == (0, 2)
        assert [a.shape for a in curve.segment_arrays()] == [(0, 2), (0, 2),
                                                              (0,)]
        assert curve.total_length() == 0.0

    def test_single_vertex_component_adds_no_length(self):
        square = np.array([[0.1, 0.1], [0.1, 0.3], [0.3, 0.3], [0.3, 0.1]])
        curve = Polyline([np.array([[0.7, 0.7]]), square])
        assert curve.total_length() == Polyline([square]).total_length()
        assert np.isclose(curve.total_length(), 0.8)
        pts = sample_curve(curve, 200, seed=4).points
        assert np.all((pts >= 0.1 - 1e-12) & (pts <= 0.3 + 1e-12))


@pytest.mark.parametrize("d", [0.5, -0.5, 1.5, -1.5])
def test_wrap_delta_maps_half_to_minus_half(d):
    # the minimum image lies in [-1/2, 1/2): +-1/2 both map to -1/2
    assert wrap_delta(np.array([d]))[0] == -0.5


class TestEvaluate:
    def test_constant_polynomial(self):
        poly = TrigPolynomial(FrequencySupport(1, 1), [1.0])
        vals = evaluate(poly, grid_points(20, 0))
        assert np.allclose(vals, 1.0 + 0.0j)

    def test_hermitian_values_are_real(self):
        poly = random_curve(FrequencySupport(5, 5), 3)
        vals = evaluate(poly, grid_points(500, 1))
        assert np.abs(vals.imag).max() <= 1e-12

    def test_matches_naive_double_sum(self):
        poly = random_curve(FrequencySupport(3, 3), 11)
        x = (0.3, 0.7)
        got = evaluate(poly, PointSet(2, np.array([[x[0]], [x[1]]])))[0]
        assert abs(got - naive_evaluate(poly, x)) <= 1e-12

    def test_grid_evaluation_matches_pointwise(self):
        poly = random_curve(FrequencySupport(3, 5), 2)
        grid = evaluate_on_grid(poly, 16)
        for i in (0, 5, 11):
            for j in (0, 7, 15):
                assert abs(grid[i, j] - naive_evaluate(poly, (i / 16, j / 16))) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        poly = TrigPolynomial(FrequencySupport(1, 1), [1.0])
        with pytest.raises(ContractViolation):
            evaluate(poly, PointSet(3, np.zeros((3, 4))))


class TestExpTables:
    """evaluate_on_grid's cached exp tables."""

    def test_cached_table_rejects_writes(self):
        table = _exp_table(64, FrequencySupport(3, 5), 1)
        assert table is _exp_table(64, FrequencySupport(3, 5), 1)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("shape", [(3, 3), (4, 7), (6, 5), (2, 2)])
    @pytest.mark.parametrize("grid_res", [16, 256, (64, 48), (17, 32)])
    def test_values_equal_the_uncached_build(self, shape, grid_res):
        rng = np.random.default_rng(sum(shape))
        support = FrequencySupport(*shape)
        poly = TrigPolynomial(support, rng.standard_normal(len(support))
                              + 1j * rng.standard_normal(len(support)))
        for _ in range(2):  # the second call reads the cached tables
            assert np.array_equal(evaluate_on_grid(poly, grid_res),
                                  evaluate_on_grid_reference(poly, grid_res))

    @pytest.mark.parametrize("grid_res", [128, (96, 80)])
    def test_sum_of_squares_on_the_doubled_support(self, grid_res):
        # two 3x3 rows give a hermitian 5x5 polynomial
        rows = np.stack([random_curve(FrequencySupport(3, 3), s).coeffs
                         for s in (1, 2)])
        sos = SumOfSquares(FrequencySupport(3, 3), rows)
        assert sos.polynomial.support == FrequencySupport(5, 5)
        assert np.array_equal(
            sos.evaluate_grid(grid_res),
            evaluate_on_grid_reference(sos.polynomial, grid_res).real)

    def test_sweep_threads_give_the_one_thread_cells(self):
        # the pool threads share the tables: four of them, more than the
        # cores, race to fill the emptied cache, switching every 1 us
        args = [3, 5, 7], [10, 30, 60, 120], 4, 7, 64
        serial = phase_transition(*args, 1)
        _exp_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = phase_transition(*args, 4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial)


def test_import_leaves_scipy_signal_unloaded():
    src = str(Path(curveband.__file__).resolve().parents[1])
    code = "import sys, curveband; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestConvolveFull:
    """multiply's coefficient grid is the full 2-D convolution of its
    factors' grids, on every pair of shapes multiply accepts."""

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((1, 1), (1, 1)), ((1, 1), (5, 3)), ((4, 7), (1, 1)),
        ((3, 5), (2, 4)), ((8, 6), (7, 5)), ((11, 11), (11, 11)),
    ])
    def test_matches_convolve2d(self, shape_a, shape_b):
        rng = np.random.default_rng(sum(shape_a) * 31 + sum(shape_b))
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        pairs = [(a, b), (a.real, b), (a, b.real)]
        if all(k % 2 for k in shape_a):  # multiply rejects even x even axes
            pairs.append((a, np.conj(a[::-1, ::-1])))
        for x, y in pairs:
            ref = convolve2d(x, y, mode="full")
            prod = multiply(TrigPolynomial(FrequencySupport(*x.shape), x),
                            TrigPolynomial(FrequencySupport(*y.shape), y))
            assert prod.support.shape == ref.shape
            out = prod.coeff_grid()
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


class TestMultiply:
    def test_identity_with_constant_one(self):
        a = random_curve(FrequencySupport(3, 3), 5)
        one = TrigPolynomial(FrequencySupport(1, 1), [1.0])
        prod = multiply(a, one)
        assert prod.support.shape == a.support.shape
        assert np.allclose(prod.coeffs, a.coeffs)

    def test_support_sizes_add(self):
        a = random_curve(FrequencySupport(3, 3), 1)
        b = random_curve(FrequencySupport(3, 3), 2)
        assert multiply(a, b).support.shape == (5, 5)

    def test_pointwise_product_on_random_points(self):
        rng = np.random.default_rng(0)
        for trial in range(4):
            k = rng.integers(1, 4, size=4) * 2 + 1  # odd sizes up to 7
            a = random_curve(FrequencySupport(int(k[0]), int(k[1])), trial)
            b = random_curve(FrequencySupport(int(k[2]), int(k[3])), trial + 50)
            prod = multiply(a, b)
            pts = grid_points(100, trial)
            lhs = evaluate(prod, pts)
            rhs = evaluate(a, pts) * evaluate(b, pts)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_mixed_parity_supports(self):
        rng = np.random.default_rng(7)
        a = TrigPolynomial(FrequencySupport(4, 3),
                           rng.standard_normal(12) + 1j * rng.standard_normal(12))
        b = TrigPolynomial(FrequencySupport(3, 2),
                           rng.standard_normal(6) + 1j * rng.standard_normal(6))
        prod = multiply(a, b)
        assert prod.support.shape == (6, 4)
        pts = grid_points(50, 8)
        assert np.abs(evaluate(prod, pts)
                      - evaluate(a, pts) * evaluate(b, pts)).max() <= 1e-10

    def test_two_even_axes_rejected(self):
        rng = np.random.default_rng(1)
        a = TrigPolynomial(FrequencySupport(2, 3), rng.standard_normal(6))
        b = TrigPolynomial(FrequencySupport(2, 3), rng.standard_normal(6))
        with pytest.raises(ContractViolation):
            multiply(a, b)

    def test_zero_polynomial_rejected(self):
        a = random_curve(FrequencySupport(3, 3), 0)
        zero = TrigPolynomial(FrequencySupport(1, 1), [0.0])
        with pytest.raises(ContractViolation):
            multiply(a, zero)


class TestExtractZeroLevelSet:
    def test_no_zeros_gives_empty_polyline(self):
        poly = TrigPolynomial(FrequencySupport(1, 1), [1.0], hermitian=True)
        assert extract_zero_level_set(poly, 64).is_empty

    def test_cosine_gives_two_vertical_lines(self):
        support = FrequencySupport(3, 1)
        poly = TrigPolynomial(support, [0.5, 0.0, 0.5], hermitian=True)
        curve = extract_zero_level_set(poly, 128)
        assert len(curve.components) == 2
        x1 = curve.vertex_array()[:, 0]
        dist = np.minimum(np.abs(x1 - 0.25), np.abs(x1 - 0.75))
        assert dist.max() <= 1.0 / 128

    def test_vertices_nearly_annihilate_psi(self):
        poly = random_curve(FrequencySupport(3, 3), 21)
        grid_res = 256
        curve = extract_zero_level_set(poly, grid_res)
        assert not curve.is_empty
        verts = curve.vertex_array()
        vals = np.abs(evaluate(poly, PointSet(2, verts.T)))
        grid = evaluate_on_grid(poly, grid_res).real
        grad_max = max(np.abs(np.diff(grid, axis=0)).max(),
                       np.abs(np.diff(grid, axis=1)).max()) * grid_res
        assert vals.max() < 10.0 * grad_max / grid_res

    def test_components_are_closed_loops(self):
        poly = random_curve(FrequencySupport(5, 5), 9)
        curve = extract_zero_level_set(poly, 128)
        assert not curve.is_empty
        for v in curve.components:
            # every segment, the one from the last vertex back to the first
            # included, joins two edges of one grid cell
            step = wrap_delta(np.roll(v, -1, axis=0) - v)
            assert np.linalg.norm(step, axis=1).max() <= np.sqrt(2) / 128
            assert v.shape[0] >= 3

    def test_consecutive_vertices_distinct(self):
        poly = random_curve(FrequencySupport(3, 3), 4)
        curve = extract_zero_level_set(poly, 128)
        for v in curve.components:
            d = v - np.roll(v, 1, axis=0)
            assert np.all(np.any(d != 0, axis=1))

    def test_low_resolution_rejected(self):
        poly = random_curve(FrequencySupport(3, 3), 4)
        with pytest.raises(ContractViolation):
            extract_zero_level_set(poly, 8)

    def test_non_hermitian_rejected(self):
        poly = TrigPolynomial(FrequencySupport(3, 3), np.ones(9))
        with pytest.raises(ContractViolation):
            extract_zero_level_set(poly, 64)


def contour_fields():
    """Named scalar fields covering the tracer's cases: smooth curves,
    products with many components, a non-square grid, exact zeros, an
    integer grid, no crossing at all, saddles in every cell (also on 2-wide
    grids), piecewise-constant images, a saddle in the wrap cell and a
    loop across both seams."""
    for k in (3, 5, 7):
        for res in (16, 64, 256):
            for seed in range(3):
                poly = random_curve(FrequencySupport(k, k), seed)
                yield f"k{k}-res{res}-seed{seed}", evaluate_on_grid(poly, res).real
    for seed in (0, 1):
        product, _, _, _ = union_curve(seed, 512)
        yield f"union{seed}-512", evaluate_on_grid(product, 512).real
    poly = random_curve(FrequencySupport(5, 5), 3)
    yield "non-square", evaluate_on_grid(poly, (96, 160)).real
    rng = np.random.default_rng(0)
    for shape in ((2, 2), (2, 5), (7, 3), (40, 40)):
        for t in range(5):
            yield f"rounded-noise-{shape}-{t}", np.round(
                0.5 * rng.standard_normal(shape))
    yield "all-zero", np.zeros((32, 32))
    checker = (-1.0) ** np.add.outer(np.arange(32), np.arange(32))
    yield "checkerboard", checker
    yield "checkerboard-jittered", checker * rng.uniform(0.5, 1.5, (32, 32))
    yield "integer-noise", rng.integers(-2, 3, size=(24, 24))
    # saddle at cell (0, 0) whose center sign flips if a+b+c+d is reordered
    yield "saddle-rounding", np.array([[1.0, -1e-17, 1.0, -1.0],
                                       [-1.0, 1e-16, -1.0, 1.0]] * 2)
    # saddles whose center sign is set by the nudge of their zero corner
    yield "saddle-zero-corner", np.tile([[0.0, 1e-300], [1e-300, -1.5e-300]],
                                        (2, 2))
    for name, img in (("disk", disk_phantom(64, radius=0.3)),
                      ("multi-disk", multi_disk_phantom(64))):
        for level in (0.0, 0.1, 0.5):
            yield f"{name}-{level}", img.pixels - level
    # every cell a saddle and every edge a side of two saddles, with both
    # pairings of a saddle's crossings
    yield "checkerboard-2x2", np.array([[1.0, -2.0], [-3.0, 5.0]])
    yield "checkerboard-2x4", (-1.0) ** np.add.outer(
        np.arange(2), np.arange(4)) * np.arange(1.0, 9.0).reshape(2, 4) ** 2
    # a saddle in the wrap cell (n1-1, n2-1), whose center keeps its two
    # negative corners (0, n2-1) and (n1-1, 0) apart
    wrap_saddle = np.ones((6, 8))
    wrap_saddle[0, 0], wrap_saddle[0, 7], wrap_saddle[5, 0] = 4.0, -2.0, -2.0
    yield "saddle-wrap-cell", wrap_saddle
    # one loop around the grid origin, crossing both seams
    x1, x2 = np.meshgrid(wrap_delta(np.arange(24) / 24),
                         wrap_delta(np.arange(40) / 40), indexing="ij")
    yield "loop-both-seams", (x1 / 0.2) ** 2 + (x2 / 0.15) ** 2 - 1.0


class TestContourPeriodicGrid:
    def test_matches_reference_tracer_exactly(self):
        for name, values in contour_fields():
            curve = contour_periodic_grid(values)
            expected = contour_periodic_grid_reference(values)
            assert len(curve.components) == len(expected), name
            for comp, (verts, closed) in zip(curve.components, expected):
                assert closed, name
                assert np.array_equal(comp, verts), name

    def test_fields_cover_saddles_zeros_and_empty(self):
        fields = dict(contour_fields())
        assert contour_periodic_grid(fields["all-zero"]).is_empty
        checker = contour_periodic_grid(fields["checkerboard"])
        assert checker.num_vertices() == 2 * 32 * 32
        assert np.any(fields["rounded-noise-(40, 40)-0"] == 0.0)

    def test_crossings_are_the_contour_vertices(self):
        """The phase sweep's crossing points (one sign test per axis, no
        walk) are the contour's vertices, each once, also where a crossing
        rounds onto a grid node; every loop has at least 2 of them."""
        rng = np.random.default_rng(1)
        fields = list(contour_fields()) + [
            (f"normal-{shape}", rng.standard_normal(shape))
            for shape in ((2, 7), (16, 16), (64, 48), (256, 256))]
        on_node = 0
        for name, values in fields:
            edges, xy = _crossings(values)
            assert np.all(np.diff(edges) > 0), name
            curve = contour_periodic_grid(values)
            assert Counter(map(tuple, xy.tolist())) == Counter(
                map(tuple, curve.vertex_array().tolist())), name
            assert all(c.shape[0] >= 2 for c in curve.components), name
            # a vertex on a node (i/n1, j/n2): a coordinate can equal only
            # the node coordinate nearest to it
            on = [(np.arange(n) / n)[np.rint(x * n).astype(int) % n] == x
                  for x, n in zip(xy.T, values.shape)]
            on_node += bool(np.any(on[0] & on[1]))
        assert 0 < on_node < len(fields)

    def test_isolated_zero_node_is_a_zero_length_loop(self):
        # zeros count as negative: the four edges at the node cross, and
        # each crossing rounds onto the node
        values = np.ones((16, 16))
        values[3, 4] = 0.0
        curve = contour_periodic_grid(values)
        assert len(curve.components) == 1
        assert np.array_equal(curve.components[0],
                              np.tile([3 / 16, 4 / 16], (4, 1)))
        assert curve.total_length() == 0.0
        with pytest.raises(ContractViolation, match="no curve to sample"):
            sample_curve(curve, 5, seed=0)
        line = Polyline([np.stack([np.full(64, 0.7),
                                   np.arange(64) / 64], axis=1)])
        both = sample_curve(Polyline(curve.components + line.components),
                            200, seed=0)
        assert np.all(both.points[0] == 0.7)

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1), (0, 4), (8,)])
    def test_grid_below_2x2_rejected(self, shape):
        with pytest.raises(ContractViolation):
            contour_periodic_grid(np.ones(shape))


class TestSampleCurve:
    def _line_curve(self, grid_res=128):
        support = FrequencySupport(3, 1)
        poly = TrigPolynomial(support, [0.5, 0.0, 0.5], hermitian=True)
        return poly, extract_zero_level_set(poly, grid_res)

    def test_zero_samples(self):
        _, curve = self._line_curve()
        pts = sample_curve(curve, 0, seed=0)
        assert pts.n_points == 0

    def test_samples_stay_on_vertical_lines(self):
        _, curve = self._line_curve()
        pts = sample_curve(curve, 10, seed=1)
        dist = np.minimum(np.abs(pts.points[0] - 0.25),
                          np.abs(pts.points[0] - 0.75))
        assert dist.max() <= 1.0 / 128

    def test_sample_residual_matches_rasterization(self):
        poly = random_curve(FrequencySupport(3, 3), 21)
        grid_res = 256
        curve = extract_zero_level_set(poly, grid_res)
        pts = sample_curve(curve, 60, seed=2)
        grid = evaluate_on_grid(poly, grid_res).real
        grad_max = max(np.abs(np.diff(grid, axis=0)).max(),
                       np.abs(np.diff(grid, axis=1)).max()) * grid_res
        vals = np.abs(evaluate(poly, pts))
        assert vals.max() < 10.0 * grad_max / grid_res

    def test_deterministic_given_seed(self):
        _, curve = self._line_curve()
        a = sample_curve(curve, 25, seed=42)
        b = sample_curve(curve, 25, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_restricted_region(self):
        _, curve = self._line_curve()
        pts = sample_curve(curve, 30, seed=3, region=(0.0, 0.5))
        assert np.all(pts.points[0] < 0.5)

    def test_empty_region_raises(self):
        _, curve = self._line_curve()
        with pytest.raises(ContractViolation, match="requested region"):
            sample_curve(curve, 5, seed=0, region=(0.4, 0.45))

    def test_empty_curve_rejected(self):
        with pytest.raises(ContractViolation):
            sample_curve(Polyline([]), 5, seed=0)

    def test_known_support_trial_takes_only_the_left_half(self):
        with pytest.raises(ContractViolation):
            known_support_trial(FrequencySupport(3, 3), 10, 0, 256,
                                restrict="right")


class TestRandomCurve:
    def test_hermitian_invariant(self):
        poly = random_curve(FrequencySupport(5, 5), 13)
        assert poly.hermitian
        g = poly.coeff_grid()
        assert np.abs(g[::-1, ::-1] - np.conj(g)).max() == 0.0
        grid = evaluate_on_grid(poly, 64)
        assert np.abs(grid.imag).max() <= 1e-12

    def test_unit_norm(self):
        poly = random_curve(FrequencySupport(7, 7), 3)
        assert abs(np.linalg.norm(poly.coeffs) - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        a = random_curve(FrequencySupport(5, 5), 99)
        b = random_curve(FrequencySupport(5, 5), 99)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = random_curve(FrequencySupport(5, 5), 100)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_even_support_rejected(self):
        with pytest.raises(ContractViolation):
            random_curve(FrequencySupport(4, 3), 0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (3, 5),
                                       (11, 11)])
    @pytest.mark.parametrize("seed", [0, 7, [3, 1], [12, 0, 5]])
    def test_one_draw_matches_per_index_loop(self, shape, seed):
        support = FrequencySupport(*shape)
        assert np.array_equal(random_curve(support, seed).coeffs,
                              random_curve_reference(support, seed).coeffs)

    def test_seeded_5x5_has_nonempty_zero_set(self):
        from curveband.experiments import curve_with_zero_set
        _, curve = curve_with_zero_set(FrequencySupport(5, 5), 0, 512)
        assert not curve.is_empty
