"""Curve recovery from point samples.

With the frequency support known, the coefficient vector is the smallest
right singular vector of the transposed feature matrix. With the support
over-estimated, the feature matrix has a multi-dimensional null space; every
null vector factors through the true curve, and the sum-of-squares of the
null-space polynomials vanishes exactly on it. This module implements both
routes plus the combinatorics (shift sets, rank bounds) and the curve-error
metric used to score recoveries.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d
from scipy.spatial import cKDTree

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, contour_periodic_grid,
                          evaluate_on_grid, extract_zero_level_set)
from .errors import AmbiguousSupport, ContractViolation, NumericalFailure
from .lifting import feature_matrix

_log = logging.getLogger(__name__)

# Singular values below tol * sigma_max count as null directions. Analytic
# (exact) samples sit at machine noise; rasterized samples sit at the
# marching-squares interpolation error, which scales like 1/grid_res^2 but
# is thresholded conservatively at the 1e-3 scale of a 512 grid. That
# rasterization floor is near 4e-5 (relative) for 5x5 union curves on an
# 11x11 support at grid 512, and an ill-conditioned curve has true singular
# values below 1e-4 that sink into it, so no cut on rasterized samples
# separates them. Exact rank decisions need on-curve samples
# (curve_model.project_to_zero_set) ranked at ANALYTIC_RANK_TOL.
ANALYTIC_RANK_TOL = 1e-6

# hermitian_align rejects a vector whose asymmetry |c[-k] - conj(c[k])|,
# after phase alignment, exceeds this fraction of its largest coefficient.
_HERMITIAN_DEFECT_TOL = 0.05


def rasterized_rank_tol(grid_res: int = 512) -> float:
    """Default rank tolerance for samples read off a grid_res rasterization."""
    return 1e-3 * (512.0 / grid_res)


@dataclass
class NullspaceBasis:
    """Orthonormal basis of the numerical null space of a feature matrix.

    `vectors` has shape (Q, |support|): row i holds the coefficients of one
    annihilating polynomial. `singular_values` is the full spectrum
    (descending, zero-padded to |support|) behind the rank decision.
    """

    support: FrequencySupport
    vectors: np.ndarray
    singular_values: np.ndarray

    @property
    def q(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return len(self.support) - self.q

    def rank_margins(self, rank_tol: float) -> tuple[float, float]:
        """How far the rank decision at rank_tol is from flipping.

        Returns (s[rank-1] / cut, cut / s[rank]) with cut = rank_tol *
        s[0]: the smallest kept singular value over the cut, and the cut
        over the largest dropped one. Both are at least 1; a missing or zero
        singular value gives inf.
        """
        s = self.singular_values
        cut = rank_tol * s[0]
        above = s[self.rank - 1] / cut if self.rank > 0 else np.inf
        below = cut / s[self.rank] if self.q > 0 and s[self.rank] > 0 else np.inf
        return float(above), float(below)


def _right_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of m (descending, zero-padded to its column count)
    and all of its right singular vectors. A wide m needs the full SVD for
    that; the thin SVD of a tall m already returns every one."""
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    s_full = np.zeros(m.shape[1])
    s_full[:s.size] = s
    return s_full, vh


def _feature_svd(pts: PointSet, support: FrequencySupport
                 ) -> tuple[np.ndarray, np.ndarray]:
    """_right_svd of the transposed feature matrix."""
    if pts.n_points < 1:
        raise ContractViolation("the feature-matrix SVD needs at least 1 point")
    return _right_svd(feature_matrix(pts, support).data.T)


def estimate_coefficients(pts: PointSet, support: FrequencySupport,
                          rank_tol: float = ANALYTIC_RANK_TOL
                          ) -> TrigPolynomial:
    """Coefficients of the curve through the points, support known.

    Returns the unit-norm minimizer of sum_i |psi(x_i)|^2, i.e. the right
    singular vector of the transposed feature matrix with smallest singular
    value, phase-normalized so the largest-magnitude coefficient is real
    positive. Raises AmbiguousSupport when a second singular value also
    falls below rank_tol * sigma_max.
    """
    s_full, vh = _feature_svd(pts, support)
    if len(support) >= 2 and s_full[-2] < rank_tol * s_full[0]:
        raise AmbiguousSupport(
            "null space has dimension > 1 at tolerance "
            f"{rank_tol:g}; use nullspace_basis for over-estimated supports")
    c = np.conj(vh[-1])
    return TrigPolynomial(support, _phase_normalize(c))


def _phase_normalize(c: np.ndarray) -> np.ndarray:
    """Rotate a unit vector so its largest-magnitude entry is real positive.

    Magnitude ties (exact for conjugate-mirrored coefficients) are broken by
    the lowest index, with a relative tie band so floating-point noise cannot
    flip the pivot between runs.
    """
    mags = np.abs(c)
    pivot = c[np.flatnonzero(mags >= (1.0 - 1e-6) * mags.max())[0]]
    return c * (np.conj(pivot) / np.abs(pivot))


def shift_set(outer: FrequencySupport, inner: FrequencySupport) -> np.ndarray:
    """All integer shifts l such that inner translated by l stays in outer.

    Shape (count, 2); for centered rectangles the count is
    (l1-k1+1)(l2-k2+1).
    """
    if not inner.fits_inside(outer):
        raise ContractViolation("inner support must fit inside outer support")
    lo = [outer.axis_range(d)[0] - inner.axis_range(d)[0] for d in (0, 1)]
    hi = [outer.axis_range(d)[1] - inner.axis_range(d)[1] for d in (0, 1)]
    a, b = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                       np.arange(lo[1], hi[1] + 1), indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def rank_bound(outer: FrequencySupport, inner: FrequencySupport) -> int:
    """Upper bound |outer| - #shifts on the feature-matrix rank when the
    points lie on a curve with the inner support."""
    return len(outer) - shift_set(outer, inner).shape[0]


def nullspace_basis(pts: PointSet, support: FrequencySupport,
                    rank_tol: float = ANALYTIC_RANK_TOL) -> NullspaceBasis:
    """Orthonormal numerical null space of the transposed feature matrix."""
    s_full, vh = _feature_svd(pts, support)
    rank = int(np.count_nonzero(s_full > rank_tol * s_full[0]))
    return NullspaceBasis(support, np.conj(vh[rank:]), s_full)


class SumOfSquares:
    """gamma(x) = sum_i |mu_i(x)|^2 over a null-space basis.

    Nonnegative everywhere and vanishing only on the common zero set of the
    basis polynomials. Also materialized as a hermitian trig polynomial on
    the doubled support (the autocorrelation of each basis grid), which is
    what grid evaluation and contouring use.
    """

    def __init__(self, basis: NullspaceBasis):
        if basis.q < 1:
            raise ContractViolation("sum of squares needs a non-empty basis")
        self.basis = basis
        k1, k2 = basis.support.shape
        acc = np.zeros((2 * k1 - 1, 2 * k2 - 1), dtype=complex)
        for row in basis.vectors:
            g = row.reshape(k1, k2)
            acc += convolve2d(g, np.conj(g[::-1, ::-1]), mode="full")
        acc = 0.5 * (acc + np.conj(acc[::-1, ::-1]))
        self.polynomial = TrigPolynomial(
            FrequencySupport(2 * k1 - 1, 2 * k2 - 1), acc.ravel(),
            hermitian=True)

    def __call__(self, pts: PointSet) -> np.ndarray:
        """Evaluate gamma at the points; real nonnegative, length N."""
        phi = feature_matrix(pts, self.basis.support).data
        v = self.basis.vectors @ phi
        return np.maximum(np.abs(v) ** 2, 0.0).sum(axis=0)

    def evaluate_grid(self, grid_res) -> np.ndarray:
        """gamma on the uniform periodic grid (int or (n1, n2))."""
        return evaluate_on_grid(self.polynomial, grid_res).real


def hermitian_align(poly: TrigPolynomial) -> TrigPolynomial | None:
    """Rotate a coefficient vector by a global phase so it becomes hermitian.

    A vector that equals exp(j a) times a real-valued polynomial's
    coefficients satisfies sum_k c[k] c[-k] = exp(2j a) |c|^2, which pins the
    phase. Returns the symmetrized hermitian polynomial, or None when the
    residual asymmetry exceeds _HERMITIAN_DEFECT_TOL (relative) -- i.e. the
    vector is not a phase rotation of a real polynomial.
    """
    if poly.support.k1 % 2 == 0 or poly.support.k2 % 2 == 0:
        return None
    g = poly.coeff_grid()
    pairing = np.sum(g * g[::-1, ::-1])
    if np.abs(pairing) < 1e-12:
        return None
    aligned = g * np.exp(-0.5j * np.angle(pairing))
    defect = np.abs(aligned[::-1, ::-1] - np.conj(aligned)).max()
    scale = np.abs(aligned).max()
    if scale == 0 or defect > _HERMITIAN_DEFECT_TOL * scale:
        return None
    sym = 0.5 * (aligned + np.conj(aligned[::-1, ::-1]))
    return TrigPolynomial(poly.support, sym.ravel(), hermitian=True)


def recover_curve(pts: PointSet, support: FrequencySupport,
                  grid_res: int = 512,
                  rank_tol: float | None = None) -> Polyline:
    """Recover a curve from samples with a (possibly over-estimated) support.

    Runs the null-space decomposition; with a single null vector the real
    representative is contoured directly, otherwise the sum-of-squares
    polynomial is contoured at an automatically calibrated level: 3x the
    median over the input samples, floored at the smallest level the
    contouring grid can actually resolve (estimated from gamma at the grid
    corners adjacent to the samples). Rejects grid_res < 16 before any work
    and logs a warning when N < |support| - 1 (underdetermined null space).
    """
    if grid_res < 16:
        raise ContractViolation("grid_res must be at least 16")
    if pts.n_points < len(support) - 1:
        _log.warning("%d samples < |support| - 1 = %d: underdetermined null "
                     "space", pts.n_points, len(support) - 1)
    if rank_tol is None:
        rank_tol = rasterized_rank_tol(grid_res)
    basis = nullspace_basis(pts, support, rank_tol)
    if basis.q == 0:
        raise NumericalFailure(
            "no null-space vector at tolerance; the support may be too small "
            "or the samples too noisy")
    if basis.q == 1:
        aligned = hermitian_align(
            TrigPolynomial(basis.support, basis.vectors[0]))
        if aligned is not None:
            return extract_zero_level_set(aligned, grid_res)
    sos = SumOfSquares(basis)
    level = 3.0 * float(np.median(sos(pts)))
    grid = sos.evaluate_grid(grid_res)
    level = max(level, _resolvable_level(grid, pts))
    return contour_periodic_grid(grid - level)


def _resolvable_level(grid: np.ndarray, pts: PointSet) -> float:
    """Smallest contour level the grid can resolve around the samples.

    For each sample, takes the largest gamma over the four grid corners of
    the cell containing it; the marching-squares sublevel band is only
    detected where those corners drop below the level, so the level is
    floored slightly above a high quantile of these corner maxima.
    """
    n = grid.shape[0]
    ij = np.floor(pts.points * n).astype(int) % n
    i, j = ij[0], ij[1]
    ip, jp = (i + 1) % n, (j + 1) % n
    corner_max = np.max(
        np.stack([grid[i, j], grid[ip, j], grid[i, jp], grid[ip, jp]]), axis=0)
    return 1.25 * float(np.quantile(corner_max, 0.95))


def chamfer_distance(a: Polyline, b: Polyline) -> float:
    """Symmetric mean nearest-neighbor distance between the vertex sets.

    The mean (rather than sum) keeps the metric invariant to vertex density.
    """
    if a.is_empty or b.is_empty:
        raise ContractViolation("chamfer distance needs non-empty polylines")
    va, vb = a.vertex_array(), b.vertex_array()
    d_ab = cKDTree(vb).query(va)[0]
    d_ba = cKDTree(va).query(vb)[0]
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
