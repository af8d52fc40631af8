"""Band-limited level-set curves.

A curve is the zero level set of a trigonometric polynomial

    psi(x) = sum_k c_k exp(j 2 pi k.x),   x in [0,1)^2,

with coefficients c_k supported on a small centered rectangle of integer
frequencies. This module holds the coefficient-grid representation and the
geometric plumbing around it: evaluation on a periodic grid, products
(curve unions), rasterization of the zero set on that grid, and arc-length
sampling of the rasterized curve. Samples read off the rasterization lie
within a grid cell of the zero set; the rank decisions in `recovery` take
that error into account.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation

# Values exactly 0 on the sampling grid are nudged onto the negative side so
# every sign change falls strictly inside a grid edge.
_ZERO_NUDGE = -1e-300


@dataclass(frozen=True)
class FrequencySupport:
    """Centered rectangular set of integer frequency pairs.

    Axis d runs over {-floor(kd/2), ..., floor((kd-1)/2)}. Enumeration is
    row-major (first axis slowest); every coefficient array in the library
    follows this order.
    """

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ContractViolation("support sizes must be positive")

    def __len__(self):
        return self.k1 * self.k2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k1, self.k2)

    def frequencies(self, axis: int) -> np.ndarray:
        """The centered integer frequencies along `axis` (0 or 1), ascending."""
        k = self.shape[axis]
        return np.arange(k) - k // 2

    def indices(self) -> np.ndarray:
        """All frequency pairs, shape (k1*k2, 2), enumeration order."""
        a, b = np.meshgrid(self.frequencies(0), self.frequencies(1),
                           indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=1)


@dataclass
class TrigPolynomial:
    """Trigonometric polynomial given by coefficients on a FrequencySupport.

    `coeffs` is complex, length k1*k2, in support enumeration order. When
    `hermitian` is set, c[-k] = conj(c[k]) holds and the polynomial is
    real-valued on [0,1)^2.
    """

    support: FrequencySupport
    coeffs: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if c.size != len(self.support):
            raise ContractViolation(
                f"expected {len(self.support)} coefficients, got {c.size}")
        if not np.all(np.isfinite(c.view(float))):
            raise ContractViolation("coefficients must be finite")
        self.coeffs = c

    def coeff_grid(self) -> np.ndarray:
        """Coefficients as a (k1, k2) grid."""
        return self.coeffs.reshape(self.support.shape)


@dataclass
class PointSet:
    """N points in dimension `dim`, one column per point."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[0] != self.dim:
            raise ContractViolation(
                f"points must have shape ({self.dim}, N), got {p.shape}")
        if p.size and not np.all(np.isfinite(p)):
            raise ContractViolation("point coordinates must be finite")
        self.points = p

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(dim, np.zeros((dim, 0)))


@dataclass
class Polyline:
    """Ordered vertex lists approximating a curve in the periodic unit square.

    Each component is an (M, 2) array of coordinates in [0,1)^2 forming a
    closed loop. Segments that cross the domain seam are stored with wrapped
    coordinates; geometric helpers use minimum-image deltas.
    """

    components: list[np.ndarray] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.components

    def num_vertices(self) -> int:
        return sum(c.shape[0] for c in self.components)

    def vertex_array(self) -> np.ndarray:
        """All vertices stacked, shape (total, 2)."""
        if self.is_empty:
            return np.zeros((0, 2))
        return np.concatenate(self.components, axis=0)

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, deltas, lengths) over all segments of all components,
        the closing segment of each loop included.

        Deltas are minimum-image, so seam-crossing segments keep their true
        (short) length.
        """
        loops = [c for c in self.components if c.shape[0] >= 2]
        if not loops:
            return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)
        s = np.concatenate(loops, axis=0)
        d = wrap_delta(np.concatenate([np.roll(v, -1, axis=0) for v in loops]) - s)
        return s, d, np.linalg.norm(d, axis=1)

    def total_length(self) -> float:
        return float(self.segment_arrays()[2].sum())


def wrap_delta(d: np.ndarray) -> np.ndarray:
    """Map coordinate differences to the minimum-image representative in
    [-1/2, 1/2)."""
    return (d + 0.5) % 1.0 - 0.5


# ---------------------------------------------------------------------------
# evaluation and products


def evaluate_on_grid(poly: TrigPolynomial, grid_res) -> np.ndarray:
    """Evaluate psi on the uniform periodic grid x = (i/n1, j/n2).

    `grid_res` is an int (square grid) or an (n1, n2) pair. Uses the
    separable structure, so large grids stay cheap.
    """
    n1, n2 = (grid_res, grid_res) if np.isscalar(grid_res) else grid_res
    f1, f2 = poly.support.frequencies(0), poly.support.frequencies(1)
    e1 = np.exp(2j * np.pi * np.outer(np.arange(n1) / n1, f1))
    e2 = np.exp(2j * np.pi * np.outer(np.arange(n2) / n2, f2))
    return e1 @ poly.coeff_grid() @ e2.T


def multiply(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    """Pointwise product of two polynomials via coefficient convolution.

    The product support is (k1a+k1b-1, k2a+k2b-1). Two even sizes along the
    same axis are rejected: their centered index ranges sum to a range that
    is not centered, so the result could not be represented on a
    FrequencySupport without shifting the spectrum.
    """
    if not (a.coeffs.any() and b.coeffs.any()):
        raise ContractViolation("multiply requires nonzero polynomials")
    for axis in (0, 1):
        ka = (a.support.k1, a.support.k2)[axis]
        kb = (b.support.k1, b.support.k2)[axis]
        if ka % 2 == 0 and kb % 2 == 0:
            raise ContractViolation(
                "product of two even-sized supports along an axis is not centered")
    grid = _convolve_full(a.coeff_grid(), b.coeff_grid())
    support = FrequencySupport(a.support.k1 + b.support.k1 - 1,
                               a.support.k2 + b.support.k2 - 1)
    return TrigPolynomial(support, grid.ravel(),
                          hermitian=a.hermitian and b.hermitian)


def _convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D convolution of coefficient grids, shape (a1+b1-1, a2+b2-1):
    every window of `a` zero-padded by b's size minus one, contracted
    against the flipped `b`."""
    b1, b2 = b.shape
    padded = np.pad(a, ((b1 - 1, b1 - 1), (b2 - 1, b2 - 1)))
    return np.einsum("ijkl,kl->ij", sliding_window_view(padded, b.shape),
                     b[::-1, ::-1])


def random_curve(support: FrequencySupport, seed) -> TrigPolynomial:
    """Random real-valued polynomial: i.i.d. complex normal coefficients on
    the half-grid, conjugate-mirrored, real at k=0, unit l2 norm.

    Requires odd support sizes (the centered grid must be symmetric).
    A non-empty zero set is not guaranteed; callers retry with a new seed.
    """
    if support.k1 % 2 == 0 or support.k2 % 2 == 0:
        raise ContractViolation("random_curve requires odd support sizes")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(1 + 2 * (len(support) // 2))
    after = z[1::2] + 1j * z[2::2]  # the half-grid after the centre, row-major
    coeffs = np.concatenate([np.conj(after[::-1]), z[:1], after])
    return TrigPolynomial(support, coeffs / np.linalg.norm(coeffs),
                          hermitian=True)


# ---------------------------------------------------------------------------
# zero-set rasterization (marching squares on the periodic grid)


def extract_zero_level_set(poly: TrigPolynomial, grid_res: int) -> Polyline:
    """Marching-squares contour of Re(psi) on a periodic grid over [0,1)^2.

    Vertices are linear interpolations along grid-cell edges, so each
    satisfies |psi| up to the grid-cell variation of psi. An empty level
    set yields an empty Polyline.
    """
    if grid_res < 16:
        raise ContractViolation("grid_res must be at least 16")
    if not poly.hermitian:
        raise ContractViolation("level-set extraction needs a hermitian "
                                "(real-valued) polynomial")
    values = evaluate_on_grid(poly, grid_res).real
    return contour_periodic_grid(values)


def contour_periodic_grid(values: np.ndarray) -> Polyline:
    """Zero contour of a real scalar field sampled on a periodic grid.

    Grid point (i, j) sits at coordinates (i/n1, j/n2); the grid must be at
    least 2x2. All components are closed loops on the torus. Components
    start at crossed grid edges in the order a row-major scan of the cells
    first links them, and head towards the edge each was first linked to.
    """
    v = np.where(values == 0.0, _ZERO_NUDGE, values)
    if v.ndim != 2 or min(v.shape) < 2:
        raise ContractViolation(
            f"periodic contouring needs a grid of at least 2x2, got {v.shape}")
    n1, n2 = v.shape
    pos = v > 0
    b10 = np.roll(pos, -1, axis=0)
    i, j = np.nonzero((pos != b10) | (pos != np.roll(pos, -1, axis=1))
                      | (pos != np.roll(b10, -1, axis=1)))
    if i.size == 0:
        return Polyline([])

    # Corners a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1) of the active cells
    # and their edges in slot order ab, bc, dc, ad. Edge ids: i*n2 + j for
    # the edge from (i, j) along axis 0, n1*n2 + i*n2 + j along axis 1.
    ip = (i + 1) % n1
    jp = (j + 1) % n2
    a, b, c, d = v[i, j], v[ip, j], v[ip, jp], v[i, jp]
    sa, sb, sc, sd = a > 0, b > 0, c > 0, d > 0
    crossed = np.stack([sa != sb, sb != sc, sd != sc, sa != sd], axis=1)
    slot_edges = np.stack([i * n2 + j, n1 * n2 + ip * n2 + j,
                           i * n2 + jp, n1 * n2 + i * n2 + j], axis=1)
    # A two-crossing cell links its crossed slots. A saddle cell links two
    # slot pairs, split by the sign of the cell-center average.
    saddle = crossed.all(axis=1)
    center_like_a = (0.25 * (a + b + c + d) > 0) == sa
    pairs = np.where(center_like_a[:, None, None], [[0, 1], [3, 2]],
                     [[0, 3], [1, 2]])
    pairs[~saddle, 0] = np.nonzero(crossed[~saddle])[1].reshape(-1, 2)
    cell = np.repeat(np.arange(i.size), 1 + saddle)
    used = np.stack([np.ones_like(saddle), saddle], axis=1)
    ends = slot_edges[cell[:, None], pairs[used]].ravel()

    # Every crossed edge ends exactly two links. The stable sort puts its two
    # occurrences side by side, first occurrence first; the neighbour at an
    # occurrence is the other end of that link.
    order = np.argsort(ends, kind="stable")
    edges = ends[order[::2]]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) // 2
    first, second = rank[order ^ 1].reshape(-1, 2).T.tolist()

    # Crossing positions by linear interpolation along each edge; t moves
    # only the coordinate along the edge's axis (the other gets an exact 0).
    axis1, ei, ej = np.unravel_index(edges, (2, n1, n2))
    v0 = v[ei, ej]
    t = v0 / (v0 - v[(ei + 1 - axis1) % n1, (ej + axis1) % n2])
    xy = np.stack([((ei + t * (1 - axis1)) / n1) % 1.0,
                   ((ej + t * axis1) / n2) % 1.0], axis=1)

    # Walk each loop once, from its first edge in start order, then drop
    # vertices that repeat their predecessor.
    components = []
    visited = np.zeros(edges.size, dtype=bool)
    for start in np.argsort(order[::2]).tolist():
        if visited[start]:
            continue
        loop, prev, cur = [start], -1, start
        while True:
            nxt = second[cur] if first[cur] == prev else first[cur]
            if nxt == start:
                break
            loop.append(nxt)
            prev, cur = cur, nxt
        visited[loop] = True
        verts = xy[loop]
        verts = verts[np.any(verts != np.roll(verts, 1, axis=0), axis=1)]
        if verts.shape[0] >= 2:
            components.append(verts)
    return Polyline(components)


# ---------------------------------------------------------------------------
# sampling points from a rasterized curve


def sample_curve(curve: Polyline, n: int, seed,
                 region: tuple[float, float] | None = None) -> PointSet:
    """Draw `n` points on the polyline, uniformly with respect to arc length.

    With `region` = (x1_min, x1_max), only segments whose midpoint (mod 1)
    has its first coordinate in that interval are sampled; segments are one
    grid cell long, so the boundary fuzz is below the rasterization scale.
    """
    if n == 0:
        return PointSet.empty(2)
    if curve.is_empty:
        raise ContractViolation("cannot sample from an empty curve")
    starts, deltas, lengths = curve.segment_arrays()
    keep = lengths > 0
    if region is not None:
        mid = (starts[:, 0] + 0.5 * deltas[:, 0]) % 1.0
        keep &= (mid >= region[0]) & (mid <= region[1])
    starts, deltas, lengths = starts[keep], deltas[keep], lengths[keep]
    if lengths.size == 0:
        raise ContractViolation("no curve available in the requested region")
    cum = np.cumsum(lengths)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, cum[-1], size=n)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(lengths) - 1)
    offset = u - (cum[idx] - lengths[idx])
    frac = offset / lengths[idx]
    pts = (starts[idx] + frac[:, None] * deltas[idx]) % 1.0
    return PointSet(2, pts.T)
