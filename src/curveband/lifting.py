"""Exponential feature maps, feature matrices, and kernel (Gram) matrices.

A point x is lifted to the vector of complex exponentials exp(j 2 pi k.x)
over a frequency support. Points on a band-limited curve have feature maps
lying in the hyperplane normal to the curve's coefficient vector, which is
what every recovery routine in this library exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .curve_model import FrequencySupport, PointSet
from .errors import ContractViolation

# Below this, sin(pi*d) is too close to 0 for the closed-form Dirichlet
# ratio; those entries fall back to the direct series.
_DIRICHLET_SERIES_CUTOFF = 1e-9


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
    (lo1, hi1), (lo2, hi2) = support.axis_range(0), support.axis_range(1)
    e1 = np.exp(2j * np.pi * np.outer(np.arange(lo1, hi1 + 1), pts.points[0]))
    e2 = np.exp(2j * np.pi * np.outer(np.arange(lo2, hi2 + 1), pts.points[1]))
    return FeatureMatrix((e1[:, None] * e2).reshape(len(support), -1))


def _dirichlet_1d(delta: np.ndarray, k: int) -> np.ndarray:
    """sum_{a in centered range of size k} exp(j 2 pi a t), elementwise."""
    t = np.asarray(delta, dtype=float)
    s = np.sin(np.pi * t)
    small = np.abs(s) < _DIRICHLET_SERIES_CUTOFF
    safe = np.where(small, 1.0, s)
    out = (np.sin(np.pi * k * t) / safe).astype(complex)
    if k % 2 == 0:
        out *= np.exp(-1j * np.pi * t)
    if np.any(small):
        lo = -(k // 2)
        freqs = np.arange(lo, lo + k)
        ts = t[small]
        out[small] = np.exp(2j * np.pi * np.outer(ts, freqs)).sum(axis=1)
    return out


def dirichlet_gram(pts: PointSet, support: FrequencySupport) -> KernelMatrix:
    """Gram matrix of exponential features under conjugate pairing.

    Entry (i, j) = sum_{k in support} exp(j 2 pi k.(x_j - x_i)), evaluated in
    closed form as a product of 1-D Dirichlet kernels with a series fallback
    near removable singularities.
    """
    if pts.dim != 2:
        raise ContractViolation(f"dirichlet gram needs dim 2, got {pts.dim}")
    x = pts.points
    d1 = x[0][None, :] - x[0][:, None]
    d2 = x[1][None, :] - x[1][:, None]
    return KernelMatrix(_dirichlet_1d(d1, support.k1) * _dirichlet_1d(d2, support.k2))


def gaussian_kernel_matrix(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel exp(-|xi-xj|^2 / 2 sigma^2) of column-per-point
    coordinates in any dimension, shape (N, N), unit diagonal."""
    if sigma <= 0:
        raise ContractViolation("sigma must be positive")
    d2 = cdist(x.T, x.T, "sqeuclidean")
    return np.exp(-d2 / (2.0 * sigma * sigma))
