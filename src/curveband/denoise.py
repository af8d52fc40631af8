"""Kernel low-rank IRLS denoising of point clouds.

Noisy samples of a low-complexity curve have an (approximately) low-rank
feature matrix; its nuclear norm is minimized through the Gaussian kernel
matrix, alternating between a half-inverse weight matrix, a graph Laplacian
built from it, and a closed-form quadratic update of the points. Works in
any ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .curve_model import PointSet
from .errors import ContractViolation, NumericalFailure
from .lifting import gaussian_kernel_matrix


@dataclass
class IrlsConfig:
    """Knobs of the IRLS loop.

    lam trades data fidelity against feature-matrix rank; sigma is the
    Gaussian kernel width (domain is the unit box); gamma0 is the initial
    inverse regularizer, divided by eta (> 1) each iteration.
    """

    lam: float = 3e-3
    sigma: float = 0.1
    gamma0: float = 1e-2
    eta: float = 1.3
    max_iters: int = 100
    rel_tol: float = 1e-5

    def __post_init__(self):
        if self.lam < 0 or self.sigma <= 0 or self.gamma0 <= 0:
            raise ContractViolation("lam, sigma, gamma0 must be positive")
        if self.eta <= 1:
            raise ContractViolation("eta must exceed 1")
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be at least 1")


@dataclass
class DenoiseTrace:
    """Per-iteration diagnostics.

    `costs` is the surrogate |X-Y|_F^2 + lam tr(K(X) P) after each update,
    `costs_before` the same surrogate at the pre-update iterate (same P), so
    per-iteration descent can be audited.
    """

    iterations: list[int] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    costs_before: list[float] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    rel_changes: list[float] = field(default_factory=list)


def irls_weights(k: np.ndarray, sigma: float, gamma: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Half-inverse kernel weight P = (K + gamma I)^(-1/2) and the derived
    weight matrix W = -(1/sigma^2) K * P (elementwise product), for K the
    Gaussian kernel matrix of width sigma of the iterate.

    Eigenvalues of K below 0 (floating-point leakage; K is PSD) are clamped
    to 0 before the shift.
    """
    if gamma <= 0:
        raise ContractViolation("gamma must be positive")
    try:
        w, u = np.linalg.eigh(k)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"kernel eigendecomposition failed: {exc}")
    w = np.maximum(w, 0.0)  # K is PSD; clamp floating-point leakage
    p = (u * (w + gamma) ** -0.5) @ u.T
    return p, -(k * p) / (sigma * sigma)


def graph_laplacian(w: np.ndarray) -> np.ndarray:
    """L = D - W with D the diagonal of row sums; rows of L sum to zero."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolation("weight matrix must be square")
    return np.diag(w.sum(axis=1)) - w


def solve_quadratic(y, laplacian: np.ndarray, lam: float) -> np.ndarray:
    """argmin_X |X - Y|_F^2 + lam * trace(X L X^T), solved in closed form.

    Only the symmetric part of L enters the quadratic form:
    X = Y (I + lam (L + L^T)/2)^(-1).
    """
    y = y.points if isinstance(y, PointSet) else np.asarray(y, dtype=float)
    sym = 0.5 * (laplacian + laplacian.T)
    system = np.eye(sym.shape[0]) + lam * sym
    try:
        return np.linalg.solve(system, y.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"quadratic update is singular: {exc}")


def klr_denoise(noisy: PointSet, cfg: IrlsConfig | None = None
                ) -> tuple[PointSet, DenoiseTrace]:
    """Denoise a point cloud by kernel low-rank IRLS.

    Alternates the weight/Laplacian update computed on the current iterate
    with the closed-form quadratic solve, shrinking the regularizer by eta
    each pass, until the relative iterate change drops below rel_tol or
    max_iters is hit.
    """
    if noisy.n_points < 2:
        raise ContractViolation("denoising needs at least 2 points")
    cfg = cfg or IrlsConfig()
    y = noisy.points
    x = y.copy()
    gamma = cfg.gamma0
    trace = DenoiseTrace()
    k_cur = gaussian_kernel_matrix(x, cfg.sigma)
    for it in range(1, cfg.max_iters + 1):
        p, w = irls_weights(k_cur, cfg.sigma, gamma)
        cost_before = float(np.linalg.norm(x - y) ** 2
                            + cfg.lam * np.trace(k_cur @ p).real)
        x_new = solve_quadratic(y, graph_laplacian(w), cfg.lam)
        k_new = gaussian_kernel_matrix(x_new, cfg.sigma)
        cost = float(np.linalg.norm(x_new - y) ** 2
                     + cfg.lam * np.trace(k_new @ p).real)
        denom = np.linalg.norm(x)
        rel = float(np.linalg.norm(x_new - x) / denom) if denom > 0 else 0.0
        trace.iterations.append(it)
        trace.costs.append(cost)
        trace.costs_before.append(cost_before)
        trace.gammas.append(gamma)
        trace.rel_changes.append(rel)
        if not np.isfinite(cost) or not np.all(np.isfinite(x_new)):
            raise NumericalFailure("non-finite iterate in IRLS", trace=trace)
        x, k_cur = x_new, k_new  # the cost's kernel is the next pass's
        gamma /= cfg.eta
        if rel < cfg.rel_tol:
            break
    return PointSet(noisy.dim, x), trace


def point_cloud_mse(truth: PointSet, pred: PointSet) -> float:
    """Symmetric nearest-neighbor mean of squared distances, half weight on
    each direction."""
    if truth.n_points == 0 or pred.n_points == 0:
        raise ContractViolation("MSE needs non-empty point sets")
    if truth.dim != pred.dim:
        raise ContractViolation("point sets must share a dimension")
    a, b = truth.points.T, pred.points.T
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return 0.5 * float(np.mean(d_ab ** 2)) + 0.5 * float(np.mean(d_ba ** 2))


def point_cloud_snr(truth: PointSet, pred: PointSet) -> float:
    """10 log10(mean |y|^2 / MSE) in dB over the predicted cloud y;
    +inf when the MSE vanishes."""
    mse = point_cloud_mse(truth, pred)
    power = float(np.mean(np.sum(pred.points ** 2, axis=0)))
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(power / mse)
