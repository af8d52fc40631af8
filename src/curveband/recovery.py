"""Curve recovery from point samples.

With the frequency support known, the coefficient vector is the smallest
right singular vector of the transposed feature matrix. With the support
over-estimated, the feature matrix has a multi-dimensional null space,
spanned by the shifts of the curve's minimal polynomial. Its rank is decided
from the smallest rectangle whose feature matrix annihilates the samples,
and is then the shift count `rank_bound`; recover_curve states which
polynomial each case contours. This module implements the recovery, that
count and the curve-error metric used to score recoveries.

Both work on the feature matrix in real arithmetic: centring the support
scales each sample row by a unit phase, and pairing each frequency with its
negative is a unitary change of columns to cos/sin features, so neither
changes the singular values or the right singular subspaces. On a support
with both sides odd the centre is 0, so every right singular vector comes
back exactly hermitian, c[-k] = conj(c[k]), by construction: it is the
coefficient vector of a real polynomial and is contoured as it is. The
known-support estimate takes the SVD of that real lift, or, where a caller
holds the lift's Gram (the phase sweep), the Gram's eigh (gram_estimate).

The rank is decided from the Gram of the feature columns that the searched
rectangles cover. When a rectangle with both sides odd, smaller than the
support, decides, only the full support's singular values are taken (for
the floating-point rank cap), and its null-space basis only if a route
reads it; otherwise the rank decision takes the SVD with all its vectors.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, contour_periodic_grid,
                          evaluate_on_grid, extract_zero_level_set)
from .errors import ContractViolation, NumericalFailure
from .lifting import feature_matrix

_log = logging.getLogger(__name__)

# Relative singular-value cuts (s / s_max) for samples read off a grid_res
# rasterization, stated at grid 512. The samples sit off the zero set by the
# marching-squares interpolation error, which scales like grid_res^-2.
# - The known-support cut scales by 512 / grid_res, a conservative bound.
# - The rank cut scales by (512 / grid_res)^2. On 5x5 union curves with an
#   11x11 support (220 samples), the curve's own rectangle reads at most
#   1.2e-5 at grid 512 (4.6e-5 at 256) and every smaller one at least
#   2.45e-3, so 1.5e-4 leaves 12x or more on both sides. The 11x11 spectrum
#   alone has no such gap: s72 / s73 is 5.6e-5 / 4.3e-5 on the worst curve.
_KNOWN_SUPPORT_CUT = 1e-3
_RANK_CUT = 1.5e-4

# A rectangle's rank decision with either margin under this factor rests on
# one rectangle's spectrum near the cut, as noisy samples give, so it is
# logged. Clean rasterized samples clear it: both margins are at least 12 on
# every criterion-3 input.
_NARROW_MARGIN = 10.0


def _grid_scale(grid_res: int) -> float:
    """512 / grid_res. Rejects grid_res < 16, the smallest grid
    extract_zero_level_set takes."""
    if grid_res < 16:
        raise ContractViolation(f"grid_res must be at least 16, got {grid_res}")
    return 512.0 / grid_res


@dataclass
class NullspaceBasis:
    """Orthonormal basis of the numerical null space of the transposed
    feature matrix of `pts` on `support`.

    `rank` is the decided rank and `q` = |support| - rank the null-space
    dimension. `vectors` has shape (q, |support|): row i holds the
    coefficients of one annihilating polynomial. Unless nullspace_basis
    kept them, they are computed on first read (_feature_svd). `cut` is the
    relative singular-value cut the rank was decided at, `rect` the
    rectangle that decided it (None when the spectrum did), and `margins` =
    (above, below) how far that decision is from flipping (inf when nothing
    bounds it). Decided by a rectangle: the smallest s / s_max that must
    stay above the cut over it, and the cut over the rectangle's s_min /
    s_max. Decided by the spectrum: s[rank-1] / s_max over the cut, and the
    cut over s[rank] / s_max.
    """

    pts: PointSet
    support: FrequencySupport
    rank: int
    cut: float
    rect: FrequencySupport | None
    margins: tuple[float, float]

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        return np.conj(_feature_svd(self.pts, self.support)[1][self.rank:])

    @property
    def q(self) -> int:
        return len(self.support) - self.rank


def _feature_lift(pts: PointSet, support: FrequencySupport
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(m, r): the transposed feature matrix with row i scaled by the unit
    phase exp(-2j pi c.x_i) of the support's centre c (0 on an odd axis,
    -1/2 on an even one), and its real lift r = m T, where the unitary T
    pairs index i (frequency k - c) with n-1-i (c - k) into sqrt(2) cos and
    sqrt(2) sin features, and takes the centre of an odd support to the
    constant. Neither the row phases nor T change the singular values."""
    if pts.n_points < 1:
        raise ContractViolation("the feature-matrix SVD needs at least 1 point")
    n, h = len(support), len(support) // 2
    centre = (np.array(support.shape) % 2 - 1) / 2
    m = (feature_matrix(pts, support).data
         * np.exp(-2j * np.pi * (centre @ pts.points))).T
    r = np.sqrt(2.0) * np.where(np.arange(n) < n - h, m.real, m.imag)
    r[:, h:n - h] = 1.0
    return m, r


def _feature_svd(pts: PointSet, support: FrequencySupport
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of the transposed feature matrix (descending,
    zero-padded to |support|) and all of its right singular vectors."""
    return _lift_svd(_feature_lift(pts, support)[1])


def _lift_svd(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_feature_svd from the real lift r (_feature_lift). A wide r needs
    the full SVD for all the right singular vectors; the thin SVD of a tall
    r returns all."""
    _, s, vr = np.linalg.svd(r, full_matrices=r.shape[0] < r.shape[1])
    return np.pad(s, (0, r.shape[1] - s.size)), _hermitian_rows(vr)


def _hermitian_rows(vr: np.ndarray) -> np.ndarray:
    """vh = vr T^H: rows vr of the real lift's coefficient space (as
    _feature_lift defines T) mapped back to the support. On an odd support
    index n-1-i is frequency -k, so the slice assignments below make every
    row of vh exactly hermitian, c[-k] = conj(c[k]), and its centre entry
    real: not up to rounding, since they copy it."""
    n, h = vr.shape[1], vr.shape[1] // 2
    vh = vr.astype(complex)
    vh[:, :h] = (vr[:, :h] - 1j * vr[:, ::-1][:, :h]) / np.sqrt(2.0)
    vh[:, n - h:] = np.conj(vh[:, :h][:, ::-1])
    return vh


def estimate_coefficients(pts: PointSet, support: FrequencySupport,
                          grid_res: int) -> TrigPolynomial:
    """Coefficients of the curve through the points, support known.

    Returns the unit-norm minimizer of sum_i |psi(x_i)|^2, i.e. the right
    singular vector of the transposed feature matrix with smallest singular
    value: a real polynomial, up to sign, flagged hermitian when both sides
    of the support are odd (on an even side it is real only after a
    half-frequency shift, so it stays unflagged). The samples are read off a
    grid_res rasterization. Raises NumericalFailure when a second singular
    value also falls below the known-support cut times sigma_max.
    """
    tol = _KNOWN_SUPPORT_CUT * _grid_scale(grid_res)
    s_full, vh = _feature_svd(pts, support)
    if len(support) >= 2 and s_full[-2] < tol * s_full[0]:
        raise NumericalFailure(
            f"null space has dimension > 1 at tolerance {tol:g}; use "
            "nullspace_basis for over-estimated supports")
    return TrigPolynomial(support, np.conj(vh[-1]),
                          hermitian=bool(support.k1 % 2 and support.k2 % 2))


def gram_estimate(gram: np.ndarray, support: FrequencySupport,
                  grid_res: int) -> TrigPolynomial:
    """estimate_coefficients from the Gram r^T r of the samples' real lift
    r (_feature_lift), by one eigh: the same cut on s = sqrt(max(lambda, 0))
    and the eigenvector of lambda_min. The Gram rounds lambda by about
    u lambda_max (u the unit roundoff); a passing decision has
    lambda_2 / lambda_max >= cut^2 (4e-6 at grid 256), so the vector lies
    within about u lambda_max / (lambda_2 - lambda_min) <= 3e-11 of the
    SVD's, up to sign, and the decision agrees with the SVD's except for
    readings within rounding of the cut.
    """
    tol = _KNOWN_SUPPORT_CUT * _grid_scale(grid_res)
    lam, v = np.linalg.eigh(gram)
    s = np.sqrt(np.maximum(lam, 0.0))
    if s.size >= 2 and s[1] < tol * s[-1]:
        raise NumericalFailure(
            f"null space has dimension > 1 at tolerance {tol:g}")
    return TrigPolynomial(support, np.conj(_hermitian_rows(v[:, :1].T)[0]),
                          hermitian=bool(support.k1 % 2 and support.k2 % 2))


def rank_bound(outer: FrequencySupport, inner: FrequencySupport) -> int:
    """Upper bound |outer| - (K1-k1+1)(K2-k2+1) on the feature-matrix rank
    when the points lie on a curve with the inner support: one null vector
    per shift of the inner rectangle that stays inside the outer one."""
    if inner.k1 > outer.k1 or inner.k2 > outer.k2:
        raise ContractViolation("inner support must fit inside outer support")
    return len(outer) - (outer.k1 - inner.k1 + 1) * (outer.k2 - inner.k2 + 1)


@functools.lru_cache(maxsize=16)
def _rectangles_by_area(k1: int, k2: int
                        ) -> list[tuple[int, list[FrequencySupport],
                                        np.ndarray]]:
    """(area, rectangles, index stack) per area >= 2 of the rectangles in a
    k1 x k2 support. Row r of the stack indexes rectangle r in the corner:
    moving it by l scales each sample's row by exp(2j pi l.x), a unitary
    diagonal that leaves its singular values unchanged."""
    shapes: dict[int, list[tuple[int, int]]] = {}
    for a1 in range(1, k1 + 1):
        for a2 in range(1, k2 + 1):
            if a1 * a2 >= 2:
                shapes.setdefault(a1 * a2, []).append((a1, a2))
    return [(area, [FrequencySupport(*s) for s in group],
             np.array([(np.arange(a1)[:, None] * k2 + np.arange(a2)).ravel()
                       for a1, a2 in group]))
            for area, group in sorted(shapes.items())]


def _minimal_rectangle(m: np.ndarray, support: FrequencySupport,
                       n_points: int, cut: float
                       ) -> tuple[FrequencySupport | None,
                                  tuple[float, float] | None]:
    """(rectangle, margins) for the smallest rectangle, in area order up to
    n_points, whose feature matrix has a 1-D null space at the cut: its
    smallest s / s_max is below the cut and its second is not. m is the
    transposed feature matrix on the support, rows scaled by any unit
    phases. Each spectrum is read off a principal sub-block of the Gram
    m_U^H m_U of the columns U the searched rectangles cover, the corner
    indices (i1, i2) with (i1 + 1)(i2 + 1) <= n_points, one eigvalsh call
    per area. Every rectangle of an area is visited, since the nearest miss
    need not nest in the answer. (None, None) when no rectangle decides."""
    i1, i2 = np.divmod(np.arange(len(support)), support.k2)
    in_u = (i1 + 1) * (i2 + 1) <= n_points
    pos = np.cumsum(in_u) - 1  # column of U that holds each index in U
    m_u = m[:, in_u]
    gram = np.conj(m_u.T) @ m_u
    closest = np.inf  # smallest s_min / s_max over the smaller areas
    for area, rects, idx in _rectangles_by_area(*support.shape):
        if area > n_points:
            break
        sub = pos[idx]
        lam = np.linalg.eigvalsh(gram[sub[:, :, None], sub[:, None, :]])
        ratio = np.sqrt(np.maximum(lam[:, :2], 0.0) / lam[:, -1:])
        decides = (ratio[:, 0] < cut) & (ratio[:, 1] >= cut)
        if decides.any():
            j = np.flatnonzero(decides)[np.argmin(ratio[decides, 0])]
            s_min, s_next = ratio[j]
            below = cut / s_min if s_min > 0 else np.inf
            return rects[j], (float(min(closest, s_next) / cut), float(below))
        closest = min(closest, ratio[:, 0].min())
    return None, None


def nullspace_basis(pts: PointSet, support: FrequencySupport,
                    grid_res: int) -> NullspaceBasis:
    """Orthonormal numerical null space of the transposed feature matrix of
    samples read off a grid_res rasterization. Its rank is rank_bound of the
    smallest annihilating rectangle, capped by the samples' floating-point
    rank (at most N: repeated samples count once), or, when no rectangle
    decides, the count of singular values above the cut times sigma_max.
    When a rectangle with both sides odd, smaller than the support,
    decides, the vectors wait for their first read."""
    cut = _RANK_CUT * _grid_scale(grid_res) ** 2
    m, r = _feature_lift(pts, support)
    rect, margins = _minimal_rectangle(m, support, pts.n_points, cut)
    odd_rect = (rect is not None and rect != support
                and rect.k1 % 2 and rect.k2 % 2)
    if odd_rect:
        s_full = np.linalg.svd(r, compute_uv=False)
    else:
        s_full, vh = _lift_svd(r)
    if rect is not None:
        tol = s_full[0] * max(pts.n_points, len(support)) * np.finfo(float).eps
        rank = min(rank_bound(support, rect), np.count_nonzero(s_full > tol))
    else:
        # rank >= 1: rel[0] = 1 and the cut is at most 1.5e-4 * 32^2 < 0.16
        rel = s_full / s_full[0]
        rank = np.count_nonzero(rel > cut)
        below = cut / rel[rank] if rank < rel.size and rel[rank] else np.inf
        margins = (float(rel[rank - 1] / cut), float(below))
    basis = NullspaceBasis(pts, support, rank, cut, rect, margins)
    if not odd_rect:
        basis.vectors = np.conj(vh[rank:])
    return basis


class SumOfSquares:
    """gamma(x) = sum_i |mu_i(x)|^2 over the rows mu_i of a null-space basis.

    `rows` has shape (q, |support|), q >= 1, one coefficient vector per
    row. gamma is nonnegative everywhere and vanishes only on the common
    zero set of the row polynomials. It is held only as `polynomial`, a
    hermitian trig polynomial on the doubled support, which every
    evaluation reads: with V the rows, the coefficient at lag d sums the
    null-space projector P = V^T conj(V) over every index pair a - b = d
    (the summed autocorrelations of the row grids). P, and so gamma, is
    unchanged by any unitary rotation of the rows. Its point values round
    absolutely, by about u sum_d |c_d| for u the machine epsilon, so one
    that close to 0 may read below 0: at most 2.5e-13 off the rows' own sums
    of squares on the criterion-4 curves, where sum_d |c_d| is 390 to 490.
    """

    def __init__(self, support: FrequencySupport, rows: np.ndarray):
        if rows.shape[0] < 1:
            raise ContractViolation("sum of squares needs a non-empty basis")
        k1, k2 = support.shape
        n1, n2 = 2 * k1 - 1, 2 * k2 - 1
        i1, i2 = np.divmod(np.arange(k1 * k2), k2)
        lag = ((i1[:, None] - i1 + k1 - 1) * n2
               + (i2[:, None] - i2 + k2 - 1)).ravel()
        p = (rows.T @ np.conj(rows)).ravel()
        acc = (np.bincount(lag, p.real, n1 * n2)
               + 1j * np.bincount(lag, p.imag, n1 * n2)).reshape(n1, n2)
        acc = 0.5 * (acc + np.conj(acc[::-1, ::-1]))
        self.polynomial = TrigPolynomial(
            FrequencySupport(n1, n2), acc.ravel(), hermitian=True)

    def __call__(self, pts: PointSet) -> np.ndarray:
        """Evaluate gamma at the points; real, length N."""
        p = self.polynomial
        return (p.coeffs @ feature_matrix(pts, p.support).data).real

    def evaluate_grid(self, grid_res) -> np.ndarray:
        """gamma on the uniform periodic grid (int or (n1, n2))."""
        return evaluate_on_grid(self.polynomial, grid_res).real


def recover_curve(pts: PointSet, support: FrequencySupport,
                  grid_res: int) -> Polyline:
    """Recover a curve from samples with a (possibly over-estimated) support.

    Runs the null-space decomposition of samples read off a grid_res
    rasterization and contours, with a single null vector on a support with
    both sides odd, that vector (a real polynomial); else, when a rectangle
    with both sides odd decides the rank, its own polynomial
    (estimate_coefficients, about 0.01 px from the truth on the criterion-3
    inputs) unless that raises NumericalFailure; else the sum-of-squares
    polynomial, which vanishes exactly on the curve, at the smallest level
    the grid resolves around the samples (_resolvable_level: a thin band
    with two loops per curve component, about 2 px from the truth on the
    same inputs).
    The second route reads no vector of the support's null space. Rejects
    grid_res < 16 before any work. Logs a warning when no rectangle decides
    the rank or one decides it by a margin under _NARROW_MARGIN, and, on
    the sum-of-squares route, when N < |support| - 1 (underdetermined null
    space).
    """
    basis = nullspace_basis(pts, support, grid_res)
    if basis.rect is None or min(basis.margins) < _NARROW_MARGIN:
        how = ("no rectangle decides; spectral" if basis.rect is None
               else "rectangle %dx%d decides" % basis.rect.shape)
        _log.warning("%s rank %d at cut %g, margins %.3g above and %.3g below",
                     how, basis.rank, basis.cut, *basis.margins)
    if basis.q == 0:
        raise NumericalFailure(
            "no null-space vector at tolerance; the support may be too small "
            "or the samples too noisy")
    if basis.q == 1 and support.k1 % 2 and support.k2 % 2:
        return extract_zero_level_set(
            TrigPolynomial(support, basis.vectors[0], hermitian=True),
            grid_res)
    rect = basis.rect
    if rect is not None and rect.k1 % 2 and rect.k2 % 2:
        try:  # rect's second s / s_max clears the rank cut, maybe not this
            return extract_zero_level_set(
                estimate_coefficients(pts, rect, grid_res), grid_res)
        except NumericalFailure:
            pass
    if pts.n_points < len(support) - 1:
        _log.warning("%d samples < |support| - 1 = %d: underdetermined null "
                     "space", pts.n_points, len(support) - 1)
    grid = SumOfSquares(support, basis.vectors).evaluate_grid(grid_res)
    return contour_periodic_grid(grid - _resolvable_level(grid, pts))


def _resolvable_level(grid: np.ndarray, pts: PointSet) -> float:
    """Smallest contour level the grid can resolve around the samples.

    For each sample, takes the largest gamma over the four grid corners of
    the cell containing it; the marching-squares sublevel band is only
    detected where those corners drop below the level, so the level sits
    slightly above a high quantile of these corner maxima.
    """
    n = grid.shape[0]
    i, j = np.floor(pts.points * n).astype(int) % n
    ip, jp = (i + 1) % n, (j + 1) % n
    corner_max = np.max(
        np.stack([grid[i, j], grid[ip, j], grid[i, jp], grid[ip, jp]]), axis=0)
    return 1.25 * float(np.quantile(corner_max, 0.95))


def chamfer_distance(a: Polyline, b: Polyline) -> float:
    """Symmetric mean nearest-neighbor distance between the vertex sets, in
    minimum-image distance on the unit torus.

    The mean (rather than sum) keeps the metric invariant to vertex density.
    """
    if a.is_empty or b.is_empty:
        raise ContractViolation("chamfer distance needs non-empty polylines")
    from scipy.spatial import cKDTree  # here: `recover` loads no scipy
    # The periodic box takes [0, 1) only: x % 1.0 reads 1.0 for x = -1e-20,
    # and a second % 1.0 maps that to 0.
    va, vb = (c.vertex_array() % 1.0 % 1.0 for c in (a, b))
    d_ab = cKDTree(vb, boxsize=1.0).query(va)[0]
    d_ba = cKDTree(va, boxsize=1.0).query(vb)[0]
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
