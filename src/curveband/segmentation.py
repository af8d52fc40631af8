"""Piecewise-constant segmentation by structured low-rank gradient lifting.

The Fourier coefficients of the gradient of a piecewise-constant image are
annihilated by convolution with the coefficients of any band-limited
function vanishing on the edge set. Stacking the circular convolutions of
the two gradient spectra with all candidate filters (every window of each
spectrum, wrapped on the torus of frequencies) yields a structured
lift whose trailing singular values measure edge complexity; segmentation
penalizes them while staying close to the input image. Both the squared
singular values and the right singular vectors of the lift M come from an
eigendecomposition of its Gram M^H M, which is n1 n2 times the DFT of the
image's periodic gradient energy, so `segment` forms neither M nor the
spectra. Because the lift is circular, its trailing energy for fixed
filters is a weighted gradient energy of the image, so each image update,
a SuperLU solve of a 5-point system (MMD ordering, unrelaxed supernodes),
minimizes a majorizer of the objective and cannot raise it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve_model import FrequencySupport
from .errors import ContractViolation, NumericalFailure
from .recovery import SumOfSquares

_log = logging.getLogger(__name__)

# segment stops once an update moves f by less than this (relative).
_SEGMENT_REL_TOL = 1e-3

# segment warns when the eigen-gap lam[rank - 1] / lam[rank] of any evaluated
# iterate's Gram is under this factor, as its edge weights, and the update or
# edge map read off them, then move with rounding: at a gap of 1.008 a ~1e-15
# relative change of the Gram moved 4 of 4096 edge pixels of a 64 px disk. At
# the returned iterate the criterion-9 disk reads 1.070 at lambda 1e-5 and
# 1.172 at 1e-2 (its iterate 7 there reads 1.0013), its multi-disk ranks 1.58
# to 3.75, the benchmark's segment ops 1.061 to 3.75 on seeds 1-5, and the
# other test inputs 1.017 and up.
_NARROW_GAP = 1.01


@dataclass
class GrayImage:
    """Grayscale image, row-major pixels in [0, 1], dimensions >= 16."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2:
            raise ContractViolation("image must be 2-D")
        if p.shape[0] < 16 or p.shape[1] < 16:
            raise ContractViolation("image dimensions must be at least 16")
        if not np.all(np.isfinite(p)):
            raise ContractViolation("pixels must be finite")
        if p.min() < -1e-9 or p.max() > 1 + 1e-9:
            raise ContractViolation("pixels must lie in [0, 1]")
        self.pixels = np.clip(p, 0.0, 1.0)


def _gradients(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Periodic forward differences f[x + e_i] - f[x] along axes 0 and 1."""
    return np.roll(f, -1, axis=0) - f, np.roll(f, -1, axis=1) - f


@dataclass
class ToeplitzLift:
    """Linear operator mapping a filter to the circular 2-D convolutions of
    the two gradient spectra of `image` with it, stacked over channels."""

    filter_support: FrequencySupport
    image: GrayImage

    def materialize(self) -> np.ndarray:
        """Dense (2 n1 n2) x (g1 g2) matrix, columns in support enumeration
        order. Its channels s are the DFTs of the periodic forward
        differences of the pixels along axis 0 and axis 1, fftshifted to the
        centered frequency lattice: the image spectrum times
        exp(2 pi j k/n) - 1 along each axis. Row j of a channel s holds
        s[j - k], indices mod n, at the column of frequency k, so M c stacks
        the circular convolutions."""
        g1, g2 = self.filter_support.shape
        pad = (((g1 - 1) // 2, g1 // 2), ((g2 - 1) // 2, g2 // 2))
        return np.stack([
            sliding_window_view(
                np.pad(np.fft.fftshift(np.fft.fft2(g)), pad, mode="wrap"),
                (g1, g2))[:, :, ::-1, ::-1]
            for g in _gradients(self.image.pixels)]).reshape(-1, g1 * g2)


def build_lift(img: GrayImage, filter_support: FrequencySupport) -> ToeplitzLift:
    """The lift of the image's gradient spectra; nothing is computed."""
    rows, cols = img.pixels.shape
    if filter_support.k1 > rows or filter_support.k2 > cols:
        raise ContractViolation(
            f"filter support {filter_support.k1}x{filter_support.k2} larger "
            f"than the {rows}x{cols} image")
    return ToeplitzLift(filter_support, img)


def _gram_spectrum(f: np.ndarray, filter_shape: tuple[int, int]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Gram G = M^H M of the lift M of pixels f with a
    filter_shape filter, descending and clamped at 0 (the squared singular
    values of M), and the matching unit eigenvectors as columns (its right
    singular vectors). M is never formed.

    Row j of a channel s holds s[j - k] at the column of frequency k,
    indices mod n, so G[k, k'] = R[(k - k') mod n] for the circular
    autocorrelation R of s, summed over both channels. Each s is the
    shifted DFT of a gradient channel g, so |fft2(s)[x]| = n1 n2 |g(-x)|
    (the shift only adds a phase), and R = n1 n2 fft2(E) for the periodic
    gradient energy E = g0^2 + g1^2 of the pixels (the GIRAF Gram of Ongie
    & Jacob, IEEE TCI 2017). Cost O(n1 n2 log(n1 n2) + k^3) for k = g1 g2.
    Against M^H M of the materialized lift it differs by at most 4.1e-15 of
    the largest entry (64 px phantoms with 9x9 and 15x15 filters, random 16
    to 80 px images with filters up to 15x15, a filter equal to the image)."""
    g1, g2 = filter_shape
    d1, d2 = ((np.arange(g)[:, None] - np.arange(g)) % n  # (a - a') mod n
              for g, n in zip(filter_shape, f.shape))
    r = f.size * np.fft.fft2(sum(g ** 2 for g in _gradients(f)))
    gram = r[d1[:, None, :, None], d2[None, :, None, :]].reshape(g1 * g2, -1)
    lam, v = np.linalg.eigh(gram)
    return np.maximum(lam[::-1], 0.0), v[:, ::-1]


def trailing_energy(lift: ToeplitzLift, rank: int) -> float:
    """Sum of squared singular values beyond `rank`."""
    return float(np.sum(_gram_spectrum(lift.image.pixels,
                                       lift.filter_support.shape)[0][rank:]))


@dataclass
class SegmentResult:
    f_star: GrayImage
    edge_map: GrayImage
    converged: bool
    iterations: int
    objective_history: list[float]


def _update_system(weights: np.ndarray, c: float) -> "sp.csc_matrix":
    """I + c G^T S G in CSC, G the periodic differences of `_gradients`, S
    the weights w on both: 1 + c (2 w(p) + w(p - e0) + w(p - e1)) at (p, p),
    -c w(p) at (p, p + e) and -c w(p - e) at (p, p - e), for e = e0, e1."""
    import scipy.sparse as sp  # here: the CLI imports segmentation
    idx = np.arange(weights.size).reshape(weights.shape)
    w_back = [np.roll(weights, 1, axis=a) for a in (0, 1)]  # w(p - e)
    data = [1.0 + c * (2.0 * weights + w_back[0] + w_back[1]), -c * weights,
            -c * w_back[0], -c * weights, -c * w_back[1]]
    cols = [idx] + [np.roll(idx, s, axis=a) for a in (0, 1) for s in (-1, 1)]
    return sp.csc_matrix((np.ravel(data), (np.tile(idx.ravel(), 5),
                                           np.ravel(cols))), (idx.size,) * 2)


def segment(h: GrayImage, rank: int, lam: float,
            filter_support: FrequencySupport, max_iters: int) -> SegmentResult:
    """Piecewise-constant approximation of `h` plus its edge map.

    One loop from f = h: each pass evaluates f (the eigendecomposition of
    the Gram of its lift gives the objective and the edge weight map, the
    sum-of-squares of the trailing eigenvectors), then stops if the last
    update moved f by less than _SEGMENT_REL_TOL or max_iters updates were
    made, else sets f to the SuperLU solve (MMD on A^T + A, relax 1, panel
    size 4), clipped to [0, 1], of the SPD 5-point system I + c G^T S G,
    c = lam n1 n2 (Parseval), that penalizes gradient energy weighted by
    that map (the trailing-energy penalty with the filters held fixed, a
    majorizer of the objective, so no update raises it). Its off-diagonals
    are nonpositive and its rows sum to 1, so the solution lies in
    [min h, max h]: the clip removes rounding, or the error of a solve that
    an extreme lam leaves ill-conditioned, which GrayImage would reject.
    Returns the last evaluated iterate, flagged if not converged;
    `iterations`, len(objective_history) - 1, counts updates. Logs one
    warning, naming the smallest eigen-gap lam[rank - 1] / lam[rank] over
    the evaluated iterates' Grams and its iterate (0 is h), when that gap is
    under _NARROW_GAP. Rejects a lam that is not positive and finite, or a
    negative max_iters, before any work, and raises NumericalFailure when
    lam overflows the update system.
    """
    if not 0 < lam < np.inf:
        raise ContractViolation(f"lam must be positive and finite, got {lam}")
    if max_iters < 0:
        raise ContractViolation(f"max_iters must be >= 0, got {max_iters}")
    build_lift(h, filter_support)  # rejects a filter larger than the image
    if not 0 <= rank < len(filter_support):
        raise ContractViolation(
            f"rank must lie in [0, {len(filter_support)}) for this lift")

    f = h.pixels.copy()
    history = []
    converged = False
    narrowest = (np.inf, 0)  # smallest eigen-gap over the iterates, and where
    while True:
        s2, v = _gram_spectrum(f, filter_support.shape)
        gap = s2[rank - 1] / s2[rank] if rank and s2[rank] > 0 else np.inf
        narrowest = min(narrowest, (gap, len(history)))
        # a Python float product overflows to inf without a warning
        objective = float(np.linalg.norm(f - h.pixels) ** 2
                          + lam * float(np.sum(s2[rank:])))
        history.append(objective)
        sos = SumOfSquares(filter_support, v[:, rank:].T)
        weights = np.maximum(sos.evaluate_grid(f.shape), 0.0)
        if converged or len(history) > max_iters:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            system = _update_system(weights, lam * f.size)
        if not np.isfinite(system.data).all():
            raise NumericalFailure(
                f"lam = {lam:g} (--lambda) overflows the update system")
        from scipy.sparse.linalg import splu  # here, as in _update_system
        # MMD on A^T + A, unrelaxed supernodes, panel 4: 4.9 / 199 ms per
        # solve at 64 / 256 px, 7.8 / 300 ms at default relax (2-vCPU box)
        x = splu(system, permc_spec="MMD_AT_PLUS_A", relax=1,
                 panel_size=4).solve(h.pixels.ravel())
        f_new = np.clip(x.reshape(f.shape), 0.0, 1.0)
        step = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1e-30)
        f, converged = f_new, bool(step < _SEGMENT_REL_TOL)

    gap, at = narrowest
    if gap < _NARROW_GAP:
        _log.warning("segment: eigen-gap %.4f at rank %d is under %g at "
                     "iterate %d, so what follows it rests on a "
                     "near-degenerate rank cut", gap, rank, _NARROW_GAP, at)
    # The q >= 1 trailing filters are orthonormal and no two of their
    # frequencies alias on the grid (build_lift rejects a filter larger
    # than the image), so by Parseval the weights average q: max > 0.
    return SegmentResult(GrayImage(f), GrayImage(weights / weights.max()),
                         converged, len(history) - 1, history)
