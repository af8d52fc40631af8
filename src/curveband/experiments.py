"""Reusable experiment drivers: seeded curve generation with retries,
known-support recovery trials, phase-transition sweeps, over-estimated
support (null-space) studies, denoising trials, and synthetic phantoms.

Every routine is deterministic given its seed; trial-level parallelism
derives one child seed per trial index (in the phase sweep, per (k, trial)
pair) and reduces in index order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, _crossings, contour_periodic_grid,
                          evaluate_on_grid, extract_zero_level_set, multiply,
                          random_curve, sample_curve)
from .denoise import IrlsConfig, klr_denoise, point_cloud_snr
from .errors import ContractViolation, NumericalFailure
from .recovery import (SumOfSquares, _feature_lift, chamfer_distance,
                       estimate_coefficients, gram_estimate, nullspace_basis)
from .segmentation import GrayImage

# Random polynomials drawn per curve before giving up on a non-empty zero set.
_MAX_CURVE_ATTEMPTS = 64
# Off-curve probes keep at least this distance from the curve.
_PROBE_MIN_DISTANCE = 0.02
# Level of the (max-normalized) edge map at which edges are contoured.
_EDGE_LEVEL = 0.02


def child_seed(seed, *extra) -> list[int]:
    """Flatten a seed (int or sequence) plus extra words into one seed list."""
    base = [int(s) for s in seed] if np.iterable(seed) else [int(seed)]
    return base + [int(e) for e in extra]


def curve_with_zero_set(support: FrequencySupport, seed, grid_res: int = 512
                        ) -> tuple[TrigPolynomial, Polyline]:
    """Draw random real polynomials until one has a non-empty zero set."""
    for attempt in range(_MAX_CURVE_ATTEMPTS):
        poly = random_curve(support, child_seed(seed, attempt))
        curve = extract_zero_level_set(poly, grid_res)
        if not curve.is_empty:
            return poly, curve
    raise NumericalFailure(
        f"no curve with a non-empty zero set in {_MAX_CURVE_ATTEMPTS} attempts")


def _recovery_error(pts: PointSet, support: FrequencySupport,
                    truth: Polyline, grid_res: int) -> float:
    """Curve error of the known-support recovery from `pts` against `truth`
    (inf = failed: an ambiguous estimate, no samples, or an empty curve on
    either side)."""
    try:
        est = estimate_coefficients(pts, support, grid_res)
        return chamfer_distance(extract_zero_level_set(est, grid_res), truth)
    except (NumericalFailure, ContractViolation):
        return np.inf


def known_support_trial(support: FrequencySupport, n_samples: int, seed,
                        grid_res: int, restrict: str | None) -> float:
    """One recovery with known support; returns the curve error (inf = failed).

    `restrict="left"` limits sampling to the left half of the curve's
    first-axis extent; any other value but None is rejected before any work.
    """
    if restrict not in (None, "left"):
        raise ContractViolation(f"unknown restrict {restrict!r}")
    _, truth = curve_with_zero_set(support, seed, grid_res)
    region = None
    if restrict:
        x1 = truth.vertex_array()[:, 0]
        lo, hi = float(x1.min()), float(x1.max())
        region = (lo, 0.5 * (lo + hi))
    pts = sample_curve(truth, n_samples, seed=child_seed(seed, 1), region=region)
    return _recovery_error(pts, support, truth, grid_res)


def _chamfer_bound(rec, truth, truth_tree) -> float:
    """Upper bound on chamfer_distance between two contours, each given by
    its crossing set (curve_model._crossings), with `truth_tree` a planar
    KD-tree of the truth's vertices; phase_transition states the bound."""
    from scipy.spatial import cKDTree  # here: the CLI imports experiments
    (r_edges, r_xy), (t_edges, t_xy) = rec, truth
    at = np.minimum(np.searchsorted(t_edges, r_edges), t_edges.size - 1)
    paired = t_edges[at] == r_edges
    pair_sum = np.hypot(*(r_xy[paired] - t_xy[at[paired]]).T).sum()
    t_alone = np.ones(t_edges.size, dtype=bool)
    t_alone[at[paired]] = False
    r_alone = r_xy[~paired]
    r_sum = pair_sum + truth_tree.query(r_alone)[0].sum()
    t_sum = pair_sum + cKDTree(r_alone).query(t_xy[t_alone])[0].sum()
    return 0.5 * (r_sum / r_edges.size + t_sum / t_edges.size)


def phase_transition(k_values, n_values, trials: int, seed, grid_res: int,
                     threads: int) -> np.ndarray:
    """Success frequency per (support size, sample count) cell.

    Success means the recovered curve lies within 3 grid cells (3/grid_res)
    of the truth, in chamfer_distance. Each (k, trial) pair draws one truth
    curve and one sequence of max(n_values) samples, seeded as the
    largest-N cell, and scores every N on the first N samples; the cells of
    a row share those draws. Every pair runs on one pool of `threads`
    workers with its own seed, so the result does not depend on `threads`.
    Returns an array of shape (len(k_values), len(n_values)). Every k must
    be odd and at least 3: a 1x1 support is a constant.

    A pair lifts its samples once (recovery._feature_lift); each N
    estimates from the Gram of the lift's first N rows (gram_estimate: one
    eigh, the same cut and, but within rounding of the cut, the same
    decision as estimate_coefficients' SVD, and its vector up to sign
    within about 3e-11 at grid 256). N = 0 fails, as that SVD rejects it.

    A cell is decided without contouring the estimate when an upper bound
    on its Chamfer distance is below 3/grid_res (less 1e-9 of it, for the
    rounding of the means). The bound reads both grids' crossing sets
    (curve_model._crossings). A vertex's nearest neighbour on the other
    curve is no farther than that curve's vertex on the same grid edge, in
    the plane; a recovered vertex with no such partner takes its planar
    KD-tree distance to the truth, and a truth vertex with none its
    distance to the unpartnered recovered vertices (a subset, so no nearer;
    inf when there are none). Where the bound is above the threshold (a
    pair straddling the seam is about 1 apart in the plane) or the estimate
    has no crossing, the cell takes known_support_trial's exact decision
    (_recovery_error), so each cell equals it.
    """
    if len(k_values) == 0 or len(n_values) == 0:
        raise ContractViolation("phase transition needs non-empty ranges")
    if trials < 1 or threads < 1 or min(n_values) < 0:
        raise ContractViolation(
            f"phase transition needs trials >= 1, threads >= 1 and sample "
            f"counts >= 0, got {trials}, {threads} and {min(n_values)}")
    bad_k = [k for k in k_values if k < 3 or k % 2 == 0]
    if bad_k:
        raise ContractViolation(
            f"phase transition needs odd support sizes k >= 3, got {bad_k}")
    from scipy.spatial import cKDTree  # here: the CLI imports experiments
    n_max = int(max(n_values))
    jobs = [(int(k), t) for k in k_values for t in range(trials)]
    threshold = 3.0 / grid_res

    def run(job):
        k, t = job
        support = FrequencySupport(k, k)
        trial_seed = child_seed(seed, k, n_max, t)
        poly, truth = curve_with_zero_set(support, trial_seed, grid_res)
        pts = sample_curve(truth, n_max, seed=child_seed(trial_seed, 1)).points
        r = _feature_lift(PointSet(2, pts), support)[1] if n_max else None
        truth_cross = _crossings(evaluate_on_grid(poly, grid_res).real)
        tree = cKDTree(truth_cross[1])

        def cell(n):
            if n == 0:  # estimate_coefficients rejects an empty sample
                return False
            try:
                est = gram_estimate(r[:n].T @ r[:n], support, grid_res)
            except NumericalFailure:
                return False
            rec = _crossings(evaluate_on_grid(est, grid_res).real)
            if (rec[0].size and _chamfer_bound(rec, truth_cross, tree)
                    <= threshold * (1.0 - 1e-9)):
                return True
            return _recovery_error(PointSet(2, pts[:, :n]), support, truth,
                                   grid_res) <= threshold
        return [cell(int(n)) for n in n_values]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ok = list(pool.map(run, jobs))
    return np.reshape(ok, (len(k_values), trials, len(n_values))).mean(axis=1)


def union_curve(seed, grid_res: int
                ) -> tuple[TrigPolynomial, Polyline, Polyline, Polyline]:
    """Product of two random 3x3 factors: (product poly, product curve,
    factor-1 curve, factor-2 curve)."""
    support = FrequencySupport(3, 3)
    p1, c1 = curve_with_zero_set(support, child_seed(seed, 11), grid_res)
    p2, c2 = curve_with_zero_set(support, child_seed(seed, 22), grid_res)
    product = multiply(p1, p2)
    return product, extract_zero_level_set(product, grid_res), c1, c2


def union_split_trial(seed, n_first: int, n_second: int) -> float:
    """Recover a two-component union from a per-component sample split, on
    a 256 grid; returns the curve error (inf = failed)."""
    grid_res = 256
    product, truth, c1, c2 = union_curve(seed, grid_res)
    pts = PointSet(2, np.concatenate(
        [sample_curve(c1, n_first, seed=child_seed(seed, 1)).points,
         sample_curve(c2, n_second, seed=child_seed(seed, 2)).points], axis=1))
    return _recovery_error(pts, product.support, truth, grid_res)


def offcurve_probes(curve: Polyline, n: int, seed) -> PointSet:
    """Uniform points in the unit square at least _PROBE_MIN_DISTANCE from
    the curve, in minimum-image distance on the torus. A contour vertex can
    read exactly 1.0, which cKDTree's periodic box rejects: mod 1 it is 0."""
    from scipy.spatial import cKDTree  # here: the CLI imports experiments
    tree = cKDTree(curve.vertex_array() % 1.0, boxsize=1.0)
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < n:
        cand = rng.uniform(0.0, 1.0, size=(4 * n, 2))
        dist = tree.query(cand)[0]
        kept.extend(cand[dist > _PROBE_MIN_DISTANCE][: n - len(kept)])
    return PointSet(2, np.array(kept).T)


def overcomplete_trial(seed, outer: FrequencySupport, n_samples: int,
                       grid_res: int) -> dict:
    """Null-space study on a 5x5 union curve with an over-estimated support.

    The samples are drawn from the grid_res rasterization of the curve, as
    `curveband recover` reads them, and take the same rank decision: the
    smallest annihilating rectangle (recovery.nullspace_basis).

    Returns the measured rank and null-space dimension, the two margins of
    that decision (NullspaceBasis.margins), and the on/off-curve separation
    statistics of the sum-of-squares values.
    """
    _, truth, _, _ = union_curve(seed, grid_res)
    pts = sample_curve(truth, n_samples, seed=child_seed(seed, 1))
    basis = nullspace_basis(pts, outer, grid_res)
    margin_above, margin_below = basis.margins
    result = {"q": basis.q, "rank": basis.rank, "margin_above": margin_above,
              "margin_below": margin_below}
    if basis.q >= 1:
        sos = SumOfSquares(outer, basis.vectors)
        off = offcurve_probes(truth, 2000, child_seed(seed, 3))
        result["on_p95"] = float(np.quantile(sos(pts), 0.95))
        result["off_median"] = float(np.median(sos(off)))
    return result


def noisy_curve_samples(seed, n_samples: int, noise_std: float
                        ) -> tuple[PointSet, PointSet]:
    """(clean, noisy) samples of a random 3x3 curve with Gaussian
    perturbations."""
    _, curve = curve_with_zero_set(FrequencySupport(3, 3), child_seed(seed, 5))
    clean = sample_curve(curve, n_samples, seed=child_seed(seed, 6))
    rng = np.random.default_rng(child_seed(seed, 7))
    noisy = clean.points + noise_std * rng.standard_normal(clean.points.shape)
    return clean, PointSet(2, noisy)


def denoise_trial(seed, n_samples: int, noise_std: float
                  ) -> tuple[float, float]:
    """(input SNR, output SNR) of one kernel low-rank denoising run with the
    default IrlsConfig."""
    clean, noisy = noisy_curve_samples(seed, n_samples, noise_std)
    denoised, _ = klr_denoise(noisy, IrlsConfig())
    return (point_cloud_snr(clean, noisy), point_cloud_snr(clean, denoised))


# ---------------------------------------------------------------------------
# synthetic phantoms for segmentation


def _disks(size: int, disks) -> GrayImage:
    """Disks ((cy, cx), r, level) painted in order, pixels at (i+1/2)/size."""
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    img = np.zeros((size, size))
    for (cy, cx), r, a in disks:
        img = np.where((yy - cy) ** 2 + (xx - cx) ** 2 < r ** 2, a, img)
    return GrayImage(img)


def disk_phantom(size: int, radius: float, center=(0.5, 0.5)) -> GrayImage:
    """Filled-disk indicator image."""
    return _disks(size, [(center, radius, 1.0)])


def multi_disk_phantom(size: int) -> GrayImage:
    """One strong disk plus three progressively fainter ones."""
    return _disks(size, [((0.35, 0.35), 0.2, 0.9), ((0.7, 0.65), 0.12, 0.45),
                         ((0.3, 0.75), 0.09, 0.25), ((0.72, 0.25), 0.07, 0.12)])


def edge_contours(edge_map: GrayImage) -> Polyline:
    """Contours of the (max-normalized) edge map at the small level
    _EDGE_LEVEL; the edge set is where the map is near zero. Vertices are in
    the library's grid frame, with pixel (i, j) at (i/n1, j/n2)."""
    return contour_periodic_grid(edge_map.pixels - _EDGE_LEVEL)


def circle_polyline(radius: float) -> Polyline:
    """Dense circle (720 vertices) centred in the unit square, for phantom
    comparisons (coords = (y, x))."""
    t = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    v = np.stack([0.5 + radius * np.sin(t),
                  0.5 + radius * np.cos(t)], axis=1) % 1.0
    return Polyline([v])
