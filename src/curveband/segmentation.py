"""Piecewise-constant segmentation by structured low-rank gradient lifting.

The Fourier coefficients of the gradient of a piecewise-constant image are
annihilated by convolution with the coefficients of any band-limited
function vanishing on the edge set. Stacking the valid-region convolutions
of the two gradient spectra with all candidate filters yields a block
Toeplitz operator whose trailing singular values measure edge complexity;
segmentation penalizes them while staying close to the input image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import convolve2d
from scipy.sparse.linalg import spsolve

from .curve_model import FrequencySupport
from .errors import ContractViolation
from .recovery import NullspaceBasis, SumOfSquares, _right_svd

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

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


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
    def valid_shape(self) -> tuple[int, int]:
        h, w = self.spectra[0].shape
        return (h - self.filter_support.k1 + 1,
                w - self.filter_support.k2 + 1)

    @property
    def shape(self) -> tuple[int, int]:
        v = self.valid_shape
        return (2 * v[0] * v[1], len(self.filter_support))

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Stacked valid convolutions; `coeffs` in support enumeration order."""
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != len(self.filter_support):
            raise ContractViolation(
                f"expected {len(self.filter_support)} coefficients, got {c.size}")
        grid = c.reshape(self.filter_support.shape)
        return np.concatenate(
            [convolve2d(s, grid, mode="valid").ravel() for s in self.spectra])

    def materialize(self) -> np.ndarray:
        """Dense matrix with columns in support enumeration order."""
        g1, g2 = self.filter_support.shape
        blocks = []
        for s in self.spectra:
            win = sliding_window_view(s, (g1, g2))
            flat = win.reshape(-1, g1 * g2)
            blocks.append(flat[:, ::-1])  # both filter axes flipped
        return np.concatenate(blocks, axis=0)


def build_lift(img: GrayImage, filter_support: FrequencySupport) -> ToeplitzLift:
    """Gradient spectra of the image, centered and wrapped in a lift."""
    if (filter_support.k1 > img.height or filter_support.k2 > img.width):
        raise ContractViolation("filter support larger than the image")
    g0, g1 = gradient_spectrum(img)
    return ToeplitzLift(filter_support,
                        (np.fft.fftshift(g0), np.fft.fftshift(g1)))


def trailing_energy(lift: ToeplitzLift, rank: int) -> float:
    """Sum of squared singular values beyond `rank`."""
    s = np.linalg.svd(lift.materialize(), compute_uv=False)
    return float(np.sum(s[rank:] ** 2))


@dataclass
class SegmentResult:
    f_star: GrayImage
    edge_map: GrayImage
    converged: bool
    iterations: int
    objective_history: list[float]


def _difference_operators(h: int, w: int) -> tuple[sp.spmatrix, sp.spmatrix]:
    shift_h = sp.eye(h, format="csr")[list(range(1, h)) + [0], :]
    shift_w = sp.eye(w, format="csr")[list(range(1, w)) + [0], :]
    d0 = sp.kron(shift_h, sp.eye(w)) - sp.eye(h * w)
    d1 = sp.kron(sp.eye(h), shift_w) - sp.eye(h * w)
    return d0.tocsr(), d1.tocsr()


def segment(h: GrayImage, rank: int, lam: float,
            filter_support: FrequencySupport,
            max_iters: int = 15) -> SegmentResult:
    """Piecewise-constant approximation of `h` plus its edge map.

    One loop from f = h: each pass evaluates f (an SVD of its lifted
    gradient spectra gives the objective and the edge weight map, the
    sum-of-squares of the trailing right singular filters), then stops if
    the last update moved f by less than _SEGMENT_REL_TOL or max_iters
    updates were made, else updates f by a sparse direct solve of the
    quadratic that penalizes gradient energy weighted by that map (the
    circular-convolution form of the trailing-energy penalty). Returns the
    best evaluated iterate by objective, flagged if not converged;
    `iterations` counts updates. Rejects a lam that is not positive and
    finite before any work.
    """
    if not 0 < lam < np.inf:
        raise ContractViolation(f"lam must be positive and finite, got {lam}")
    lift0 = build_lift(h, filter_support)
    if not 0 <= rank < min(lift0.shape):
        raise ContractViolation(
            f"rank must lie in [0, {min(lift0.shape)}) for this lift")
    hh, ww = h.pixels.shape
    d0, d1 = _difference_operators(hh, ww)
    h_flat = h.pixels.ravel()
    scale = hh * ww  # Parseval factor between spectrum and pixel sums

    f = h.pixels.copy()
    best = (np.inf, f, None)
    history = []
    converged = False
    iterations = 0
    while True:
        lift = build_lift(GrayImage(np.clip(f, 0.0, 1.0)), filter_support)
        s, vh = _right_svd(lift.materialize())
        objective = float(np.linalg.norm(f - h.pixels) ** 2
                          + lam * np.sum(s[rank:] ** 2))
        history.append(objective)
        basis = NullspaceBasis(filter_support, np.conj(vh[rank:]), s)
        weights = np.maximum(SumOfSquares(basis).evaluate_grid((hh, ww)), 0.0)
        if objective < best[0]:
            best = (objective, f.copy(), weights)
        if converged or iterations >= max_iters:
            break
        iterations += 1
        s_diag = sp.diags(weights.ravel())
        system = (sp.eye(hh * ww)
                  + (lam * scale) * (d0.T @ s_diag @ d0 + d1.T @ s_diag @ d1))
        f_new = spsolve(system.tocsc(), h_flat).reshape(hh, ww)
        step = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1e-30)
        f = f_new
        converged = bool(step < _SEGMENT_REL_TOL)

    _, f_best, edge_raw = best
    peak = edge_raw.max()
    edge = edge_raw / peak if peak > 0 else edge_raw
    return SegmentResult(GrayImage(np.clip(f_best, 0.0, 1.0)),
                         GrayImage(edge), converged, iterations, history)
