"""Exponential feature maps, feature matrices, and kernel (Gram) matrices.

A point x is lifted to the vector of complex exponentials exp(j 2 pi k.x)
over a frequency support. Points on a band-limited curve have feature maps
lying in the hyperplane normal to the curve's coefficient vector, which is
what every recovery routine in this library exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve_model import FrequencySupport, PointSet, wrap_delta
from .errors import ContractViolation

@dataclass
class FeatureMatrix:
    """Columns are feature maps of the points, shape (|support|, N)."""

    data: np.ndarray


@dataclass
class KernelMatrix:
    """N x N pairwise kernel values: the conjugate pairing of exponential
    features (Hermitian, positive semidefinite, diagonal = |support|)."""

    data: np.ndarray


def feature_matrix(pts: PointSet, support: FrequencySupport) -> FeatureMatrix:
    """Feature maps exp(j 2 pi k.x) of all points as columns, rows in
    support enumeration order."""
    if pts.dim != 2:
        raise ContractViolation(f"feature lifting needs dim 2, got {pts.dim}")
    e1 = np.exp(2j * np.pi * np.outer(support.frequencies(0), pts.points[0]))
    e2 = np.exp(2j * np.pi * np.outer(support.frequencies(1), pts.points[1]))
    return FeatureMatrix((e1[:, None] * e2).reshape(len(support), -1))


def _dirichlet_1d(delta: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sum_{a in freqs} exp(j 2 pi a t) over consecutive integers `freqs`,
    elementwise. The sum is 1-periodic, so t is wrapped into [-1/2, 1/2),
    where sin(pi t) vanishes only at t = 0; the ratio sin(pi k t)/sin(pi t)
    takes its limit k there, times the phase of the centre of `freqs`."""
    t = wrap_delta(delta)
    s = np.sin(np.pi * t)
    k = len(freqs)
    ratio = np.where(s == 0, k, np.sin(np.pi * k * t) / np.where(s == 0, 1.0, s))
    return ratio * np.exp(2j * np.pi * (freqs[0] + freqs[-1]) / 2 * t)


def dirichlet_gram(pts: PointSet, support: FrequencySupport) -> KernelMatrix:
    """Gram matrix of exponential features under conjugate pairing.

    Entry (i, j) = sum_{k in support} exp(j 2 pi k.(x_j - x_i)), evaluated in
    closed form as a product of 1-D Dirichlet kernels.
    """
    if pts.dim != 2:
        raise ContractViolation(f"dirichlet gram needs dim 2, got {pts.dim}")
    x = pts.points
    d1 = x[0][None, :] - x[0][:, None]
    d2 = x[1][None, :] - x[1][:, None]
    return KernelMatrix(_dirichlet_1d(d1, support.frequencies(0))
                        * _dirichlet_1d(d2, support.frequencies(1)))


def gaussian_kernel_matrix(x: np.ndarray, sigma: float,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian kernel exp(-|xi-xj|^2 / 2 sigma^2) of column-per-point
    coordinates in any dimension, shape (N, N), unit diagonal.

    Exactly symmetric: entry (j, i) sums the negated differences of entry
    (i, j), squared, in the same order. Computed in one N x N array, `out`
    when given (C-contiguous float64, overwritten), with no temporary."""
    if sigma <= 0:
        raise ContractViolation("sigma must be positive")
    from scipy.spatial.distance import cdist  # here: only denoise calls it
    k = cdist(x.T, x.T, "sqeuclidean", out=out)
    np.negative(k, out=k)
    k /= 2.0 * sigma * sigma
    return np.exp(k, out=k)
