"""Independent reference implementations shared by the test modules."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.signal import convolve2d
from scipy.spatial.distance import cdist
from scipy.sparse.linalg import spsolve

from curveband import (FrequencySupport, PointSet, TrigPolynomial,
                       extract_zero_level_set, feature_matrix)
from curveband.curve_model import (_ZERO_NUDGE, contour_periodic_grid,
                                   evaluate_on_grid)
from curveband.denoise import _WEIGHT_REL_TOL, DenoiseTrace, _pivoted_cholesky
from curveband.errors import ContractViolation, NumericalFailure
from curveband.recovery import (_RANK_CUT, SumOfSquares, _feature_svd,
                                _rectangles_by_area, _resolvable_level,
                                nullspace_basis, rank_bound)
from curveband.segmentation import (_SEGMENT_REL_TOL, GrayImage,
                                    _gram_spectrum)


def support_indices(support):
    """All frequency pairs of a FrequencySupport, shape (k1*k2, 2), in its
    enumeration order (row-major, first axis slowest)."""
    a, b = np.meshgrid(support.frequencies(0), support.frequencies(1),
                       indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def gradient_channels(img):
    """The two channels of the segmentation lift: the DFTs of the periodic
    forward differences of the pixels along axis 0 and axis 1, fftshifted
    to the centered frequency lattice."""
    p = img.pixels
    return tuple(np.fft.fftshift(np.fft.fft2(np.roll(p, -1, axis=a) - p))
                 for a in (0, 1))


def evaluate(poly, pts):
    """psi at each point, by the direct sum over the support; a complex array
    of length N."""
    if pts.dim != 2:
        raise ContractViolation(f"curve evaluation needs dim 2, got {pts.dim}")
    k = support_indices(poly.support)       # (|support|, 2)
    phase = k @ pts.points                  # (|support|, N)
    return poly.coeffs @ np.exp(2j * np.pi * phase)


def evaluate_on_grid_reference(poly, grid_res):
    """evaluate_on_grid as it read before its exp tables were cached: both
    tables built afresh on every call, by the same expressions, so its
    values are bit-identical to the library's."""
    n1, n2 = (grid_res, grid_res) if np.isscalar(grid_res) else grid_res
    f1, f2 = poly.support.frequencies(0), poly.support.frequencies(1)
    e1 = np.exp(2j * np.pi * np.outer(np.arange(n1) / n1, f1))
    e2 = np.exp(2j * np.pi * np.outer(np.arange(n2) / n2, f2))
    return e1 @ poly.coeff_grid() @ e2.T


def shift_set_reference(outer, inner):
    """All integer shifts l such that inner translated by l stays in outer,
    shape (count, 2); the shift list that `curveband.rank_bound` counts in
    closed form."""
    if inner.k1 > outer.k1 or inner.k2 > outer.k2:
        raise ContractViolation("inner support must fit inside outer support")
    first = [outer.frequencies(d)[0] - inner.frequencies(d)[0] for d in (0, 1)]
    last = [outer.frequencies(d)[-1] - inner.frequencies(d)[-1] for d in (0, 1)]
    a, b = np.meshgrid(np.arange(first[0], last[0] + 1),
                       np.arange(first[1], last[1] + 1), indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def random_curve_reference(support, seed):
    """Random hermitian unit-norm polynomial drawn one support index at a
    time in enumeration order; the reference for `curveband.random_curve`,
    which takes the same normals in one draw."""
    if support.k1 % 2 == 0 or support.k2 % 2 == 0:
        raise ContractViolation("random_curve requires odd support sizes")
    rng = np.random.default_rng(seed)
    grid = np.zeros(support.shape, dtype=complex)
    c1 = support.k1 // 2
    c2 = support.k2 // 2
    for k in support_indices(support):
        a, b = int(k[0]), int(k[1])
        if a == 0 and b == 0:
            grid[c1, c2] = rng.standard_normal()
        elif a > 0 or (a == 0 and b > 0):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            grid[c1 + a, c2 + b] = z
            grid[c1 - a, c2 - b] = np.conj(z)
    coeffs = grid.ravel()
    return TrigPolynomial(support, coeffs / np.linalg.norm(coeffs),
                          hermitian=True)


def curve_phantom(poly, size=64):
    """Indicator of {psi > 0} sampled at pixel centers: a piecewise-constant
    image whose edge set is exactly a band-limited curve."""
    # pixel centers: a half-pixel shift, c_k times exp(j pi (k1 + k2) / size)
    k = support_indices(poly.support)
    shifted = TrigPolynomial(
        poly.support, poly.coeffs * np.exp(1j * np.pi * k.sum(axis=1) / size))
    vals = evaluate_on_grid(shifted, size).real
    return GrayImage((vals > 0).astype(float))


def derivative_coeffs(poly, axis):
    """Coefficients of the partial derivative along one axis."""
    k = support_indices(poly.support)[:, axis]
    return TrigPolynomial(poly.support, poly.coeffs * (2j * np.pi * k))


def refine_to_zero_set(poly, pts, iters=6):
    """Newton-project points onto {psi = 0} of a real-valued polynomial."""
    x = pts.points.copy()
    dx1 = derivative_coeffs(poly, 0)
    dx2 = derivative_coeffs(poly, 1)
    for _ in range(iters):
        p = PointSet(2, x)
        val = evaluate(poly, p).real
        g = np.stack([evaluate(dx1, p).real, evaluate(dx2, p).real])
        x = (x - g * (val / np.maximum(np.sum(g * g, axis=0), 1e-30))) % 1.0
    return PointSet(2, x)


def minimal_rectangle_by_svd(pts, support, cut):
    """The rectangle that decides the over-complete rank, and the margins of
    that decision, by one SVD of each rectangle's own (centred) feature
    matrix, visited shape by shape in area order; the reference for the
    Gram sub-block search in `curveband.nullspace_basis`. Returns
    (None, None) when no rectangle decides."""
    closest = np.inf
    for area in range(2, min(len(support), pts.n_points) + 1):
        ratios = []
        for a1 in range(1, support.k1 + 1):
            if area % a1 == 0 and area // a1 <= support.k2:
                rect = FrequencySupport(a1, area // a1)
                s = np.linalg.svd(feature_matrix(pts, rect).data.T,
                                  compute_uv=False)
                ratios.append((s[-1] / s[0], s[-2] / s[0], rect))
        found = [r for r in ratios if r[0] < cut <= r[1]]
        if found:
            s_min, s_next, rect = min(found, key=lambda r: r[0])
            return rect, (min(closest, s_next) / cut, cut / s_min)
        closest = min([closest] + [r[0] for r in ratios])
    return None, None


def feature_svd_reference(pts, support):
    """Singular values of the transposed feature matrix m (descending,
    zero-padded to |support|) and all of its right singular vectors, by the
    complex SVD of m; the reference for the real lift of
    `curveband.recovery._feature_svd`. A wide m needs the full SVD for that;
    the thin SVD of a tall m returns all."""
    if pts.n_points < 1:
        raise ContractViolation("the feature-matrix SVD needs at least 1 point")
    m = feature_matrix(pts, support).data.T
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    s_full = np.zeros(m.shape[1])
    s_full[:s.size] = s
    return s_full, vh


def nullspace_basis_reference(pts, support, grid_res):
    """`curveband.recovery.nullspace_basis` as it was before the rank
    decision read the Gram off the searched columns: the full-support SVD
    with all its vectors, the |support| x |support| Gram built from it, and
    the same area-ordered sub-block search on that Gram. Returns the basis's
    fields (vectors, cut, rect, margins, rank, q) as a namespace."""
    cut = _RANK_CUT * (512.0 / grid_res) ** 2
    s_full, vh = _feature_svd(pts, support)
    gram = (np.conj(vh.T) * s_full ** 2) @ vh
    rect, margins, closest = None, None, np.inf
    for area, rects, idx in _rectangles_by_area(*support.shape):
        if area > pts.n_points:
            break
        lam = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        ratio = np.sqrt(np.maximum(lam[:, :2], 0.0) / lam[:, -1:])
        decides = (ratio[:, 0] < cut) & (ratio[:, 1] >= cut)
        if decides.any():
            j = np.flatnonzero(decides)[np.argmin(ratio[decides, 0])]
            s_min, s_next = ratio[j]
            below = cut / s_min if s_min > 0 else np.inf
            rect, margins = rects[j], (min(closest, s_next) / cut, below)
            break
        closest = min(closest, ratio[:, 0].min())
    if rect is not None:
        tol = s_full[0] * max(pts.n_points, len(support)) * np.finfo(float).eps
        rank = min(rank_bound(support, rect), np.count_nonzero(s_full > tol))
    else:
        rel = s_full / s_full[0]
        rank = np.count_nonzero(rel > cut)
        below = cut / rel[rank] if rank < rel.size and rel[rank] else np.inf
        margins = (rel[rank - 1] / cut, below)
    return SimpleNamespace(vectors=np.conj(vh[rank:]), cut=cut, rect=rect,
                           margins=margins, rank=rank, q=len(support) - rank)


def recover_curve_reference(pts, support, grid_res):
    """`curveband.recover_curve` with its former sum-of-squares level:
    3x the median of gamma over the samples, floored by `_resolvable_level`.
    The floor always bound, so the median term was dropped; this is the
    reference that shows the contours did not move."""
    basis = nullspace_basis(pts, support, grid_res)
    if basis.q == 0:
        raise NumericalFailure(
            "no null-space vector at tolerance; the support may be too small "
            "or the samples too noisy")
    if basis.q == 1 and support.k1 % 2 and support.k2 % 2:
        return extract_zero_level_set(
            TrigPolynomial(support, basis.vectors[0], hermitian=True),
            grid_res)
    sos = SumOfSquares(support, basis.vectors)
    level = 3.0 * float(np.median(sos(pts)))
    grid = sos.evaluate_grid(grid_res)
    level = max(level, _resolvable_level(grid, pts))
    return contour_periodic_grid(grid - level)


def count_common_zeros(pa, pb, grid=128, bound_hint=64):
    """Number of solutions of pa(x) = pb(x) = 0 in the unit square, found by
    dense grid search plus Gauss-Newton refinement. Asserts the count stays
    within bound_hint.

    Gauss-Newton runs on all (at most 400) candidates at once; each one
    stops after 30 steps or after a step shorter than 1e-14, as it would
    alone.
    """
    ga = np.abs(evaluate_on_grid(pa, grid)) ** 2
    gb = np.abs(evaluate_on_grid(pb, grid)) ** 2
    f = ga + gb
    floor = np.quantile(f, 0.02)
    cand = np.argwhere(f <= max(floor, 1e-8))
    derivs = [(derivative_coeffs(p, 0), derivative_coeffs(p, 1))
              for p in (pa, pb)]
    x = cand[:400].T / grid                       # (2, candidates)
    active = np.ones(x.shape[1], dtype=bool)
    for _ in range(30):
        if not active.any():
            break
        p = PointSet(2, x[:, active])
        va, vb = evaluate(pa, p), evaluate(pb, p)
        r = np.stack([va.real, va.imag, vb.real, vb.imag], axis=1)
        rows = []
        for d1, d2 in derivs:
            g1, g2 = evaluate(d1, p), evaluate(d2, p)
            rows += [np.stack([g1.real, g2.real], axis=1),
                     np.stack([g1.imag, g2.imag], axis=1)]
        jac = np.stack(rows, axis=1)              # (active, 4, 2)
        # rtol=None cuts at max(M, N) * eps, as lstsq(rcond=None) does
        step = np.einsum("mij,mj->mi", np.linalg.pinv(jac, rtol=None), r)
        x[:, active] = (x[:, active] - step.T) % 1.0
        active[active] = np.linalg.norm(step, axis=1) >= 1e-14
    p = PointSet(2, x)
    on_both = ((np.abs(evaluate(pa, p)) < 1e-9)
               & (np.abs(evaluate(pb, p)) < 1e-9))
    distinct = []
    for z in x[:, on_both].T:
        if all(np.linalg.norm((z - y + 0.5) % 1.0 - 0.5) > 1e-5
               for y in distinct):
            distinct.append(z)
    assert len(distinct) <= bound_hint
    return len(distinct)


def contour_periodic_grid_reference(values):
    """Zero contour of a real scalar field sampled on a periodic grid, traced
    over a dict-of-lists edge adjacency with tuple edge keys; the reference
    for `curveband.contour_periodic_grid`.

    Grid point (i, j) sits at coordinates (i/n1, j/n2). Returns one
    (vertices, closed) pair per component.
    """
    v = np.where(values == 0.0, _ZERO_NUDGE, values)
    n1, n2 = v.shape
    pos = v > 0
    b00 = pos
    b10 = np.roll(pos, -1, axis=0)
    b01 = np.roll(pos, -1, axis=1)
    b11 = np.roll(b10, -1, axis=1)
    case = (b00.astype(np.int8) + 2 * b10 + 4 * b11 + 8 * b01)
    active = np.argwhere((case != 0) & (case != 15))
    if active.size == 0:
        return []

    # Edge keys: ('a0', i, j) runs from grid point (i,j) towards axis 0,
    # ('a1', i, j) towards axis 1. Indices are taken mod the grid shape.
    adjacency: dict[tuple, list] = {}

    def link(e, f):
        adjacency.setdefault(e, []).append(f)
        adjacency.setdefault(f, []).append(e)

    for i, j in active:
        i = int(i)
        j = int(j)
        ip = (i + 1) % n1
        jp = (j + 1) % n2
        sa, sb, sc, sd = pos[i, j], pos[ip, j], pos[ip, jp], pos[i, jp]
        e_ab = ("a0", i, j)
        e_dc = ("a0", i, jp)
        e_ad = ("a1", i, j)
        e_bc = ("a1", ip, j)
        crossed = []
        if sa != sb:
            crossed.append(e_ab)
        if sb != sc:
            crossed.append(e_bc)
        if sd != sc:
            crossed.append(e_dc)
        if sa != sd:
            crossed.append(e_ad)
        if len(crossed) == 2:
            link(crossed[0], crossed[1])
        elif len(crossed) == 4:
            # Saddle cell; split by the sign of the cell-center average.
            center = 0.25 * (v[i, j] + v[ip, j] + v[ip, jp] + v[i, jp])
            if (center > 0) == sa:
                link(e_ab, e_bc)
                link(e_ad, e_dc)
            else:
                link(e_ab, e_ad)
                link(e_bc, e_dc)

    def edge_position(e):
        kind, i, j = e
        if kind == "a0":
            v0, v1 = v[i, j], v[(i + 1) % n1, j]
            t = v0 / (v0 - v1)
            return np.array([((i + t) / n1) % 1.0, j / n2])
        v0, v1 = v[i, j], v[i, (j + 1) % n2]
        t = v0 / (v0 - v1)
        return np.array([i / n1, ((j + t) / n2) % 1.0])

    components = []
    visited = set()
    for start in adjacency:
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        prev, cur = None, start
        closed = True
        while True:
            nbrs = adjacency[cur]
            if len(nbrs) != 2:
                closed = False  # defensive; should not happen on a torus
                break
            nxt = nbrs[1] if nbrs[0] == prev else nbrs[0]
            if nxt == start:
                break
            loop.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        components.append((np.array([edge_position(e) for e in loop]),
                           closed))
    return components


def chamfer_distance_reference(a, b):
    """Symmetric mean nearest-neighbor distance between the vertex sets of
    two polylines over every vertex pair, in minimum-image distance on the
    unit torus; the reference for `curveband.recovery.chamfer_distance`."""
    gap = np.abs(a.vertex_array()[:, None, :] - b.vertex_array()[None, :, :])
    gap = np.minimum(gap % 1.0, 1.0 - gap % 1.0)
    d = np.sqrt(np.sum(gap ** 2, axis=2))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def irls_weights_reference(k, sigma, gamma):
    """Half-inverse kernel weight P = (K + gamma I)^(-1/2) and the derived
    weight matrix W = -(1/sigma^2) K * P (elementwise product), from the full
    eigendecomposition of K; the reference for `curveband.irls_weights`.

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


def _factored_weights_allocating(k, sigma, gamma):
    """`curveband.denoise.irls_weights` as it was before it wrote W over K:
    each step a fresh array, K left as it was."""
    tol = max(2.0 * _WEIGHT_REL_TOL * gamma,
              k.shape[0] * np.finfo(float).eps * np.diag(k).max())
    rows = _pivoted_cholesky(k, tol)
    lam, v = np.linalg.eigh(rows @ rows.T)
    lam = np.maximum(lam, 0.0)
    root, root_gamma = np.sqrt(lam + gamma), np.sqrt(gamma)
    h = -1.0 / (root * root_gamma * (root + root_gamma))
    c = np.sqrt(-h)[:, None] * (v.T @ rows)
    p = -(c.T @ c)
    p[np.diag_indices_from(p)] += 1.0 / root_gamma
    return p, -(k * p) / (sigma * sigma)


def _cholesky_update_allocating(y, w, lam):
    """`curveband.denoise._update` as it was before it built A over W: A in
    a fresh array, which the Cholesky factor copies to Fortran order."""
    a = -lam * w
    a[np.diag_indices_from(a)] += 1.0 + lam * w.sum(axis=1)
    factor = scipy.linalg.cho_factor(a, overwrite_a=True, check_finite=False)
    return scipy.linalg.cho_solve(factor, y.T, check_finite=False).T


def _gaussian_kernel_allocating(x, sigma):
    """`curveband.lifting.gaussian_kernel_matrix` with a fresh array per
    step."""
    d2 = cdist(x.T, x.T, "sqeuclidean")
    return np.exp(-d2 / (2.0 * sigma * sigma))


def klr_denoise_reference(noisy, cfg):
    """`curveband.denoise.klr_denoise`'s IRLS loop as it was before it ran in
    two reused N x N arrays: about eight fresh N x N arrays per iteration,
    in the same operations and order, so its points and trace are the
    in-place loop's to the bit. No checks, warning or error mapping."""
    y = noisy.points
    x = y.copy()
    gamma = cfg.gamma0
    trace = DenoiseTrace()
    k_cur = _gaussian_kernel_allocating(x, cfg.sigma)
    for it in range(1, cfg.max_iters + 1):
        p, w = _factored_weights_allocating(k_cur, cfg.sigma, gamma)
        x_new = _cholesky_update_allocating(y, w, cfg.lam)
        k_new = _gaussian_kernel_allocating(x_new, cfg.sigma)
        cost_before = float(np.linalg.norm(x - y) ** 2
                            - cfg.lam * cfg.sigma ** 2 * w.sum())
        cost = float(np.linalg.norm(x_new - y) ** 2
                     + cfg.lam * np.einsum("ij,ij->", k_new, p))
        denom = np.linalg.norm(x)
        rel = float(np.linalg.norm(x_new - x) / denom) if denom > 0 else 0.0
        trace.iterations.append(it)
        trace.costs.append(cost)
        trace.costs_before.append(cost_before)
        trace.gammas.append(gamma)
        trace.rel_changes.append(rel)
        x, k_cur = x_new, k_new
        gamma /= cfg.eta
        if rel < cfg.rel_tol:
            break
    return PointSet(noisy.dim, x), trace


def lift_spectrum_by_svd(lift):
    """Singular values of the materialized lift (descending) and all of its
    right singular vectors, as rows of vh, from a dense SVD; the lift is
    tall, so the thin SVD returns all. The reference for the Gram
    eigendecomposition in `curveband.segment` and
    `curveband.segmentation.trailing_energy`."""
    _, s, vh = np.linalg.svd(lift.materialize(), full_matrices=False)
    return s, vh


def edge_weights_by_svd(lift, rank, shape):
    """The segmentation edge weight map: the sum of |psi|^2 over the trailing
    right singular filters psi of the lift beyond `rank`, each evaluated
    directly at the grid points (i/n1, j/n2)."""
    support = lift.filter_support
    _, vh = lift_spectrum_by_svd(lift)
    n1, n2 = shape
    yy, xx = np.meshgrid(np.arange(n1) / n1, np.arange(n2) / n2,
                         indexing="ij")
    grid = np.stack([yy.ravel(), xx.ravel()])
    phases = np.exp(2j * np.pi * (support_indices(support) @ grid))
    values = np.conj(vh[rank:]) @ phases
    return np.sum(np.abs(values) ** 2, axis=0).reshape(n1, n2)


def gradient_operator(h, w):
    """G of shape (2 h w, h w): G f.ravel() stacks the raveled periodic
    forward differences of an h x w image f along axis 0, then axis 1, the
    arrays `curveband.segmentation._gradients(f)` returns."""
    def diff(n):  # periodic forward difference x[i + 1 mod n] - x[i]
        return sp.diags([-1.0, 1.0, 1.0], [0, 1, 1 - n], shape=(n, n))
    return sp.vstack([sp.kron(diff(h), sp.eye(w)),
                      sp.kron(sp.eye(h), diff(w))], format="csr")


def update_system_by_products(weights, c):
    """segment's update system I + c G^T S G by sparse products, S the edge
    weights on both channels of G; CSC, as the products give it. The
    reference for `curveband.segmentation._update_system`."""
    g = gradient_operator(*weights.shape)
    s_diag = sp.diags(np.tile(weights.ravel(), 2))
    return sp.eye(weights.size) + c * (g.T @ s_diag @ g)


def segment_by_spsolve(h, rank, lam, support, max_iters):
    """`curveband.segment`'s loop with each update system built by sparse
    products and solved by `spsolve` (MMD on A^T + A, SuperLU's default
    supernodes); (f_star pixels, objective history)."""
    hh, ww = h.pixels.shape
    f, history, converged = h.pixels.copy(), [], False
    while True:
        s2, v = _gram_spectrum(f, support.shape)
        history.append(float(np.linalg.norm(f - h.pixels) ** 2
                             + lam * float(np.sum(s2[rank:]))))
        weights = np.maximum(
            SumOfSquares(support, v[:, rank:].T).evaluate_grid((hh, ww)), 0.0)
        if converged or len(history) > max_iters:
            return f, history
        system = update_system_by_products(weights, lam * hh * ww)
        x = spsolve(system, h.pixels.ravel(), permc_spec="MMD_AT_PLUS_A")
        f_new = np.clip(x.reshape(hh, ww), 0.0, 1.0)
        step = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1e-30)
        f, converged = f_new, step < _SEGMENT_REL_TOL


def sum_of_squares_by_rows(support, rows):
    """Coefficient grid of the sum-of-squares of null-space basis rows, one
    full autocorrelation per row, summed and made hermitian; the reference
    for the projector build of `curveband.SumOfSquares`."""
    k1, k2 = support.shape
    acc = np.zeros((2 * k1 - 1, 2 * k2 - 1), dtype=complex)
    for row in rows:
        g = row.reshape(k1, k2)
        acc += convolve2d(g, np.conj(g[::-1, ::-1]))
    return 0.5 * (acc + np.conj(acc[::-1, ::-1]))


# The per-vertex text writers that `curveband.io` replaced with one %-format
# call per block; kept verbatim as the byte-for-byte reference.


def save_polyline_csv_reference(curve, path):
    lines = []
    for cid, comp in enumerate(curve.components):
        for v in comp:
            lines.append(f"{cid},{v[0]:.17g},{v[1]:.17g}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def svg_paths_reference(curve):
    """Path strings; components are split where they cross the domain seam."""
    paths = []
    for v in curve.components:
        if v.shape[0] >= 2:
            v = np.vstack([v, v[:1]])
        seam = np.any(np.abs(np.diff(v, axis=0)) > 0.5, axis=1)  # seam crossing
        for run in np.split(v, np.flatnonzero(seam) + 1):
            if len(run) < 2:
                continue
            d = "M " + " L ".join(f"{p[0]:.6f} {p[1]:.6f}" for p in run)
            paths.append(d)
    return paths


def save_polyline_svg_reference(curve, path, points=None):
    body = [f'<path d="{d}" fill="none" stroke="#c22" '
            'stroke-width="0.003"/>' for d in svg_paths_reference(curve)]
    if points is not None:
        body += [f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.005" fill="#26c"/>'
                 for x, y in points.points.T]
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">\n'
           + "\n".join(body) + "\n</svg>\n")
    Path(path).write_text(svg)


def save_heatmap_svg_reference(freq, k_values, n_values, path):
    """The phase-transition heatmap written one cell and one guide vertex at
    a time; a guide vertex outside the N range is skipped."""
    cell = 10.0
    body = []
    for i in range(len(k_values)):
        for j in range(len(n_values)):
            shade = int(round(255 * freq[i, j]))
            body.append(
                f'<rect x="{j * cell:.1f}" y="{i * cell:.1f}" '
                f'width="{cell:.1f}" height="{cell:.1f}" '
                f'fill="rgb({shade},{shade},{shade})"/>')
    n_arr = np.asarray(n_values, dtype=float)
    ks = np.asarray(k_values, dtype=float)
    for values, color in ((ks * ks, "#26c"), ((2 * ks) ** 2, "#c22")):
        pts = []
        for i, v in enumerate(values):
            if not n_arr[0] <= v <= n_arr[-1]:
                continue
            j = float(np.interp(v, n_arr, np.arange(len(n_arr))))
            pts.append(f"{(j + 0.5) * cell:.2f},{(i + 0.5) * cell:.2f}")
        body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {len(n_values) * cell:.1f} '
           f'{len(k_values) * cell:.1f}">\n' + "\n".join(body) + "\n</svg>\n")
    Path(path).write_text(svg)
