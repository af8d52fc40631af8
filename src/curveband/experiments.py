"""Reusable experiment drivers: seeded curve generation with retries,
known-support recovery trials, phase-transition sweeps, over-estimated
support (null-space) studies, denoising trials, and synthetic phantoms.

Every routine is deterministic given its seed; trial-level parallelism
derives one child seed per trial index and reduces in index order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, contour_periodic_grid,
                          evaluate_on_grid, extract_zero_level_set, multiply,
                          project_to_zero_set, random_curve, sample_curve)
from .denoise import IrlsConfig, klr_denoise, point_cloud_snr
from .errors import AmbiguousSupport, ContractViolation, NumericalFailure
from .recovery import (ANALYTIC_RANK_TOL, SumOfSquares, chamfer_distance,
                       estimate_coefficients, hermitian_align,
                       nullspace_basis, rasterized_rank_tol, recover_curve)
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


def half_region(curve: Polyline, side: str = "left"
                ) -> tuple[float, float, float, float]:
    """Axis-aligned rectangle covering one half of the curve's bounding box."""
    x1min, x1max, x2min, x2max = curve.bounding_box()
    mid = 0.5 * (x1min + x1max)
    if side == "left":
        return (x1min, mid, 0.0, 1.0)
    if side == "right":
        return (mid, x1max, 0.0, 1.0)
    raise ContractViolation(f"unknown side {side!r}")


def _recovery_error(pts: PointSet, support: FrequencySupport,
                    truth: Polyline, grid_res: int) -> float:
    """Curve error of the known-support recovery from `pts` against `truth`
    (inf = failed: ambiguous or rejected estimate, no real-valued alignment,
    or an empty curve on either side)."""
    try:
        est = estimate_coefficients(pts, support, rasterized_rank_tol(grid_res))
    except (AmbiguousSupport, ContractViolation):
        return np.inf
    aligned = hermitian_align(est)
    if aligned is None:
        return np.inf
    recovered = extract_zero_level_set(aligned, grid_res)
    if recovered.is_empty or truth.is_empty:
        return np.inf
    return chamfer_distance(recovered, truth)


def known_support_trial(support: FrequencySupport, n_samples: int, seed,
                        grid_res: int = 256, restrict: str | None = None
                        ) -> float:
    """One recovery with known support; returns the curve error (inf = failed).

    `restrict` limits sampling to the left/right half of the curve's
    bounding box.
    """
    _, truth = curve_with_zero_set(support, seed, grid_res)
    region = half_region(truth, restrict) if restrict else None
    pts = sample_curve(truth, n_samples, seed=child_seed(seed, 1), region=region)
    return _recovery_error(pts, support, truth, grid_res)


def phase_transition(k_values, n_values, trials: int, seed,
                     grid_res: int = 256, threads: int = 1) -> np.ndarray:
    """Success frequency per (support size, sample count) cell.

    Success means the recovered curve lies within 3 grid cells (3/grid_res)
    of the truth. Every trial runs on one pool of `threads` workers; each
    has its own seed, so the result does not depend on `threads`. Returns an
    array of shape (len(k_values), len(n_values)).
    """
    if len(k_values) == 0 or len(n_values) == 0:
        raise ContractViolation("phase transition needs non-empty ranges")
    if trials < 1 or threads < 1 or min(n_values) < 0:
        raise ContractViolation(
            f"phase transition needs trials >= 1, threads >= 1 and sample "
            f"counts >= 0, got {trials}, {threads} and {min(n_values)}")
    jobs = [(ki, ni, t) for ki in range(len(k_values))
            for ni in range(len(n_values)) for t in range(trials)]

    def run(job):
        ki, ni, t = job
        k = int(k_values[ki])
        err = known_support_trial(
            FrequencySupport(k, k), int(n_values[ni]),
            seed=child_seed(seed, k, int(n_values[ni]), t), grid_res=grid_res)
        return err <= 3.0 / grid_res

    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(run, jobs))
    freq = np.zeros((len(k_values), len(n_values)))
    for (ki, ni, _), ok in zip(jobs, outcomes):
        freq[ki, ni] += ok
    return freq / trials


def union_curve(seed, grid_res: int = 512
                ) -> tuple[TrigPolynomial, Polyline, Polyline, Polyline]:
    """Product of two random 3x3 factors: (product poly, product curve,
    factor-1 curve, factor-2 curve)."""
    support = FrequencySupport(3, 3)
    p1, c1 = curve_with_zero_set(support, child_seed(seed, 11), grid_res)
    p2, c2 = curve_with_zero_set(support, child_seed(seed, 22), grid_res)
    product = multiply(p1, p2)
    return product, extract_zero_level_set(product, grid_res), c1, c2


def union_split_trial(seed, n_first: int, n_second: int,
                      grid_res: int = 256) -> float:
    """Recover a two-component union from a per-component sample split;
    returns the curve error (inf = failed)."""
    product, truth, c1, c2 = union_curve(seed, grid_res)
    parts = []
    if n_first:
        parts.append(sample_curve(c1, n_first, seed=child_seed(seed, 1)).points)
    if n_second:
        parts.append(sample_curve(c2, n_second, seed=child_seed(seed, 2)).points)
    pts = PointSet(2, np.concatenate(parts, axis=1))
    return _recovery_error(pts, product.support, truth, grid_res)


def offcurve_probes(curve: Polyline, n: int, seed) -> PointSet:
    """Uniform points in the unit square at least _PROBE_MIN_DISTANCE from
    the curve."""
    tree = cKDTree(curve.vertex_array())
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < n:
        cand = rng.uniform(0.0, 1.0, size=(4 * n, 2))
        dist = tree.query(cand)[0]
        kept.extend(cand[dist > _PROBE_MIN_DISTANCE][: n - len(kept)])
    return PointSet(2, np.array(kept).T)


def overcomplete_trial(seed, outer: FrequencySupport | None = None,
                       n_samples: int = 220, grid_res: int = 512) -> dict:
    """Null-space study on a 5x5 union curve with an over-estimated support.

    The samples are drawn from the grid_res rasterization of the curve and
    then Newton-projected onto the analytic zero set of the product
    polynomial, so they lie on the curve the rank theorem is about; the
    rank is decided at ANALYTIC_RANK_TOL. Rasterized samples carry a
    relative singular-value floor near 4e-5 that ill-conditioned curves
    reach, which no rank cut separates from the true spectrum.

    Returns the measured rank and null-space dimension, the two rank-cut
    margins (s[rank-1]/cut and cut/s[rank]), the curve error of the
    sum-of-squares recovery, and the on/off-curve separation statistics of
    the sum-of-squares values.
    """
    outer = outer or FrequencySupport(11, 11)
    product, truth, _, _ = union_curve(seed, grid_res)
    pts = project_to_zero_set(
        product, sample_curve(truth, n_samples, seed=child_seed(seed, 1)))
    basis = nullspace_basis(pts, outer, ANALYTIC_RANK_TOL)
    margin_above, margin_below = basis.rank_margins(ANALYTIC_RANK_TOL)
    result = {"q": basis.q, "rank": basis.rank, "margin_above": margin_above,
              "margin_below": margin_below, "chamfer": np.inf}
    recovered = recover_curve(pts, outer, grid_res, ANALYTIC_RANK_TOL)
    if not recovered.is_empty:
        result["chamfer"] = chamfer_distance(recovered, truth)
    if basis.q >= 1:
        sos = SumOfSquares(basis)
        on_vals = sos(pts)
        off_vals = sos(offcurve_probes(truth, 2000, child_seed(seed, 3)))
        result["on_p95"] = float(np.quantile(on_vals, 0.95))
        result["off_median"] = float(np.median(off_vals))
    return result


def noisy_curve_samples(seed, n_samples: int = 400, noise_std: float = 0.01,
                        support: FrequencySupport | None = None,
                        grid_res: int = 512) -> tuple[PointSet, PointSet]:
    """(clean, noisy) samples of a random curve with Gaussian perturbations."""
    support = support or FrequencySupport(3, 3)
    _, curve = curve_with_zero_set(support, child_seed(seed, 5), grid_res)
    clean = sample_curve(curve, n_samples, seed=child_seed(seed, 6))
    rng = np.random.default_rng(child_seed(seed, 7))
    noisy = clean.points + noise_std * rng.standard_normal(clean.points.shape)
    return clean, PointSet(2, noisy)


def denoise_trial(seed, n_samples: int = 400, noise_std: float = 0.01,
                  cfg: IrlsConfig | None = None) -> tuple[float, float]:
    """(input SNR, output SNR) of one kernel low-rank denoising run."""
    clean, noisy = noisy_curve_samples(seed, n_samples, noise_std)
    denoised, _ = klr_denoise(noisy, cfg)
    return (point_cloud_snr(clean, noisy), point_cloud_snr(clean, denoised))


# ---------------------------------------------------------------------------
# synthetic phantoms for segmentation


def disk_phantom(size: int = 64, center=(0.5, 0.5),
                 radius: float = 0.3) -> GrayImage:
    """Filled-disk indicator image (pixel centers at (i+1/2)/size)."""
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    inside = (yy - center[0]) ** 2 + (xx - center[1]) ** 2 < radius ** 2
    return GrayImage(inside.astype(float))


def multi_disk_phantom(size: int = 64) -> GrayImage:
    """One strong disk plus three progressively fainter ones."""
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    img = np.zeros((size, size))
    disks = [((0.35, 0.35), 0.2, 0.9), ((0.7, 0.65), 0.12, 0.45),
             ((0.3, 0.75), 0.09, 0.25), ((0.72, 0.25), 0.07, 0.12)]
    for (cy, cx), r, a in disks:
        img = np.where((yy - cy) ** 2 + (xx - cx) ** 2 < r ** 2, a, img)
    return GrayImage(img)


def curve_phantom(poly: TrigPolynomial, size: int = 64) -> GrayImage:
    """Indicator of {psi > 0} sampled at pixel centers: a piecewise-constant
    image whose edge set is exactly a band-limited curve."""
    # pixel centers: a half-pixel shift, c_k times exp(j pi (k1 + k2) / size)
    k = poly.support.indices()
    shifted = TrigPolynomial(
        poly.support, poly.coeffs * np.exp(1j * np.pi * k.sum(axis=1) / size))
    vals = evaluate_on_grid(shifted, size).real
    return GrayImage((vals > 0).astype(float))


def edge_contours(edge_map: GrayImage) -> Polyline:
    """Contours of the (max-normalized) edge map at the small level
    _EDGE_LEVEL; the edge set is where the map is near zero."""
    return contour_periodic_grid(edge_map.pixels - _EDGE_LEVEL)


def circle_polyline(radius: float = 0.3) -> Polyline:
    """Dense circle (720 vertices) centred in the unit square, for phantom
    comparisons (coords = (y, x))."""
    t = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    v = np.stack([0.5 + radius * np.sin(t),
                  0.5 + radius * np.cos(t)], axis=1) % 1.0
    return Polyline([v])
