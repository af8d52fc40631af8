"""Piecewise-constant segmentation by structured low-rank gradient lifting.

The Fourier coefficients of the gradient of a piecewise-constant image are
annihilated by convolution with the coefficients of any band-limited
function vanishing on the edge set. Stacking the valid-region convolutions
of the two gradient spectra with all candidate filters yields a block
Toeplitz operator whose trailing singular values measure edge complexity;
segmentation penalizes them while staying close to the input image. Both
the squared singular values and the right singular vectors of the lift M
come from an eigendecomposition of its Gram M^H M, summed per window row
so M is never formed; image updates are SPD symmetric-mode sparse LU solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas
from scipy.sparse.linalg import splu

from .curve_model import FrequencySupport
from .errors import ContractViolation, NumericalFailure
from .recovery import SumOfSquares

# segment stops once an update moves f by less than this (relative).
_SEGMENT_REL_TOL = 1e-3


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
        if p.size and (p.min() < -1e-9 or p.max() > 1 + 1e-9):
            raise ContractViolation("pixels must lie in [0, 1]")
        self.pixels = np.clip(p, 0.0, 1.0)


def gradient_spectrum(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """DFTs of the two periodic finite-difference gradient channels.

    Returns (g0_hat, g1_hat) in numpy fft layout, where g0 differences along
    axis 0 (rows) and g1 along axis 1 (columns). Identical to multiplying
    the image spectrum by exp(2 pi j k/n) - 1 along each axis.
    """
    f = img.pixels
    g0 = np.roll(f, -1, axis=0) - f
    g1 = np.roll(f, -1, axis=1) - f
    return np.fft.fft2(g0), np.fft.fft2(g1)


@dataclass
class ToeplitzLift:
    """Linear operator mapping a filter to the valid 2-D convolutions of the
    two centered gradient spectra with it, stacked over channels.

    `spectra` are fftshifted so array indexing matches the centered integer
    frequency lattice.
    """

    filter_support: FrequencySupport
    spectra: tuple[np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        vh, vw, g1, g2 = self.windows()[0].shape
        return (2 * vh * vw, g1 * g2)

    def windows(self) -> list[np.ndarray]:
        """Per-channel (vh, vw, g1, g2) views; window (i, j) is row (i, j)."""
        g1, g2 = self.filter_support.shape
        return [sliding_window_view(s, (g1, g2))[:, :, ::-1, ::-1]
                for s in self.spectra]

    def materialize(self) -> np.ndarray:
        """Dense matrix with columns in support enumeration order."""
        return np.stack(self.windows()).reshape(self.shape)


def build_lift(img: GrayImage, filter_support: FrequencySupport) -> ToeplitzLift:
    """Gradient spectra of the image, centered and wrapped in a lift."""
    rows, cols = img.pixels.shape
    if filter_support.k1 > rows or filter_support.k2 > cols:
        raise ContractViolation(
            f"filter support {filter_support.k1}x{filter_support.k2} larger "
            f"than the {rows}x{cols} image")
    g0, g1 = gradient_spectrum(img)
    return ToeplitzLift(filter_support,
                        (np.fft.fftshift(g0), np.fft.fftshift(g1)))


def _gram_spectrum(lift: ToeplitzLift) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the lift's Gram M^H M, descending and clamped at 0 (the
    squared singular values of M), and the matching unit eigenvectors as
    columns (its right singular vectors). M is never formed: BLAS zherk adds
    one window row at a time into the lower triangle of conj(M^H M)."""
    k = len(lift.filter_support)
    gram = np.zeros((k, k), dtype=complex, order="F")
    for win in lift.windows():
        for row in win:
            gram = blas.zherk(1.0, row.reshape(-1, k).T, beta=1.0, c=gram,
                              lower=1, overwrite_c=1)
    lam, v = np.linalg.eigh(gram.conj())  # eigh reads the lower triangle
    return np.maximum(lam[::-1], 0.0), v[:, ::-1]


def trailing_energy(lift: ToeplitzLift, rank: int) -> float:
    """Sum of squared singular values beyond `rank`."""
    return float(np.sum(_gram_spectrum(lift)[0][rank:]))


@dataclass
class SegmentResult:
    f_star: GrayImage
    edge_map: GrayImage
    converged: bool
    iterations: int
    objective_history: list[float]


def _difference_operators(h: int, w: int) -> tuple[sp.spmatrix, sp.spmatrix]:
    def diff(n):  # periodic forward difference x[i + 1 mod n] - x[i]
        return sp.diags([-1.0, 1.0, 1.0], [0, 1, 1 - n], shape=(n, n))
    return (sp.kron(diff(h), sp.eye(w), format="csr"),
            sp.kron(sp.eye(h), diff(w), format="csr"))


def segment(h: GrayImage, rank: int, lam: float,
            filter_support: FrequencySupport, max_iters: int) -> SegmentResult:
    """Piecewise-constant approximation of `h` plus its edge map.

    One loop from f = h: each pass evaluates f (the eigendecomposition of
    the Gram of its lifted gradient spectra, summed by window row without
    forming the lift, gives the objective and the edge weight map, the
    sum-of-squares of the trailing eigenvectors), then stops if the last
    update moved f by less than _SEGMENT_REL_TOL or max_iters updates were
    made, else updates f by a symmetric-mode sparse LU solve of the SPD
    system that penalizes gradient energy weighted by that map (the
    circular-convolution form of the trailing-energy penalty). Returns the
    best evaluated iterate by objective, flagged if not converged;
    `iterations` counts updates. Rejects a lam that is not positive and
    finite, or a negative max_iters, before any work, and raises
    NumericalFailure when lam is so large that the update system overflows.
    """
    if not 0 < lam < np.inf:
        raise ContractViolation(f"lam must be positive and finite, got {lam}")
    if max_iters < 0:
        raise ContractViolation(f"max_iters must be >= 0, got {max_iters}")
    lift = build_lift(h, filter_support)
    top = min(lift.shape)
    if not 0 <= rank < top:
        raise ContractViolation(f"rank must lie in [0, {top}) for this lift")
    hh, ww = h.pixels.shape
    d0, d1 = _difference_operators(hh, ww)
    h_flat = h.pixels.ravel()
    scale = hh * ww  # Parseval factor between spectrum and pixel sums

    f = h.pixels.copy()
    best = None  # (objective, f, weights); the first iterate always seeds it
    history = []
    converged = False
    iterations = 0
    while True:
        s2, v = _gram_spectrum(lift)
        # a Python float product overflows to inf without a warning
        objective = float(np.linalg.norm(f - h.pixels) ** 2
                          + lam * float(np.sum(s2[rank:])))
        history.append(objective)
        sos = SumOfSquares(filter_support, v[:, rank:].T)
        weights = np.maximum(sos.evaluate_grid((hh, ww)), 0.0)
        if best is None or objective < best[0]:
            best = (objective, f.copy(), weights)
        if converged or iterations >= max_iters:
            break
        iterations += 1
        s_diag = sp.diags(weights.ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            system = (sp.eye(hh * ww) + (lam * scale)
                      * (d0.T @ s_diag @ d0 + d1.T @ s_diag @ d1))
        if not np.isfinite(system.data).all():
            raise NumericalFailure(
                f"lam = {lam:g} (--lambda) overflows the update system")
        # SPD (weights >= 0, lam * scale > 0): diagonal pivots are safe
        f_new = splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True}
                     ).solve(h_flat).reshape(hh, ww)
        step = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1e-30)
        f = f_new
        converged = bool(step < _SEGMENT_REL_TOL)
        lift = build_lift(GrayImage(np.clip(f, 0.0, 1.0)), filter_support)

    _, f_best, edge_raw = best
    peak = edge_raw.max()
    edge = edge_raw / peak if peak > 0 else edge_raw
    return SegmentResult(GrayImage(np.clip(f_best, 0.0, 1.0)),
                         GrayImage(edge), converged, iterations, history)
