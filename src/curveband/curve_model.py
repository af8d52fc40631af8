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

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation

# Values exactly 0 on the sampling grid count as negative, and are nudged onto
# that side where they are interpolated. A crossing can still round onto a
# grid node; it is kept, so every crossed grid edge gives one vertex.
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
        if not np.all(np.isfinite(p)):
            raise ContractViolation("point coordinates must be finite")
        self.points = p

    @property
    def n_points(self) -> int:
        return self.points.shape[1]


@dataclass
class Polyline:
    """Ordered vertex lists approximating a curve in the periodic unit square.

    Each component is an (M, 2) array of coordinates in [0,1)^2 forming a
    closed loop. A contour's loops have M >= 2, and consecutive vertices
    coincide only where crossings round onto a grid node. Segments that
    cross the domain seam are stored with wrapped coordinates; geometric
    helpers use minimum-image deltas.
    """

    components: list[np.ndarray]

    @property
    def is_empty(self) -> bool:
        return not self.components

    def num_vertices(self) -> int:
        return sum(c.shape[0] for c in self.components)

    def vertex_array(self) -> np.ndarray:
        """All vertices stacked, shape (total, 2)."""
        return np.concatenate([np.zeros((0, 2)), *self.components])

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, deltas, lengths) over all segments of all components,
        the closing segment of each loop included.

        Deltas are minimum-image, so seam-crossing segments keep their true
        (short) length.
        """
        s = self.vertex_array()
        d = wrap_delta(Polyline([np.roll(c, -1, axis=0)
                                 for c in self.components]).vertex_array() - s)
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
    return (_exp_table(n1, poly.support, 0) @ poly.coeff_grid()
            @ _exp_table(n2, poly.support, 1).T)


@functools.lru_cache(maxsize=32)
def _exp_table(n: int, support: FrequencySupport, axis: int) -> np.ndarray:
    """exp(2j pi (i/n) f) for i < n and f the support's frequencies along
    `axis`: one factor of evaluate_on_grid. Read-only, as threads share it."""
    e = np.exp(2j * np.pi * np.outer(np.arange(n) / n,
                                     support.frequencies(axis)))
    e.flags.writeable = False
    return e


def multiply(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    """Pointwise product of two polynomials via coefficient convolution.

    The product support is (k1a+k1b-1, k2a+k2b-1): every window of a's grid
    zero-padded by b's size minus one, contracted against b's flipped grid.
    Two even sizes along the same axis are rejected: their centered index
    ranges sum to a range that is not centered, so the result could not be
    represented on a FrequencySupport without shifting the spectrum.
    """
    if not (a.coeffs.any() and b.coeffs.any()):
        raise ContractViolation("multiply requires nonzero polynomials")
    for ka, kb in zip(a.support.shape, b.support.shape):
        if ka % 2 == 0 and kb % 2 == 0:
            raise ContractViolation(
                "product of two even-sized supports along an axis is not centered")
    b1, b2 = b.support.shape
    padded = np.pad(a.coeff_grid(), ((b1 - 1, b1 - 1), (b2 - 1, b2 - 1)))
    grid = np.einsum("ijkl,kl->ij", sliding_window_view(padded, (b1, b2)),
                     b.coeff_grid()[::-1, ::-1])
    return TrigPolynomial(FrequencySupport(*grid.shape), grid.ravel(),
                          hermitian=a.hermitian and b.hermitian)


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
    set yields an empty Polyline; an isolated exact-zero grid node, a
    zero-length loop at that node.
    """
    if grid_res < 16:
        raise ContractViolation("grid_res must be at least 16")
    if not poly.hermitian:
        raise ContractViolation("level-set extraction needs a hermitian "
                                "(real-valued) polynomial")
    values = evaluate_on_grid(poly, grid_res).real
    return contour_periodic_grid(values)


def _nudged(values: np.ndarray) -> np.ndarray:
    """`values` with exact zeros moved to _ZERO_NUDGE."""
    return np.where(values == 0.0, _ZERO_NUDGE, values)


def _crossings(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The crossed edges of a periodic grid, by one sign test along each
    axis, and one (x1, x2) zero crossing on each, by linear interpolation
    along the edge; t moves only the coordinate along the edge's axis (the
    other gets an exact 0). Edge ids, sorted: i*n2 + j for the edge from
    grid point (i, j) along axis 0, n1*n2 + i*n2 + j along axis 1.
    contour_periodic_grid links these vertices into its loops."""
    n1, n2 = values.shape
    pos = values > 0
    edges = np.flatnonzero([pos != np.roll(pos, -1, axis=0),
                            pos != np.roll(pos, -1, axis=1)])
    axis1, ei, ej = np.unravel_index(edges, (2, n1, n2))
    v0, v1 = _nudged(values[[ei, (ei + 1 - axis1) % n1],
                            [ej, (ej + axis1) % n2]])
    t = v0 / (v0 - v1)
    return edges, np.stack([((ei + t * (1 - axis1)) / n1) % 1.0,
                            ((ej + t * axis1) / n2) % 1.0], axis=1)


def contour_periodic_grid(values: np.ndarray) -> Polyline:
    """Zero contour of a real scalar field sampled on a periodic grid.

    Grid point (i, j) sits at coordinates (i/n1, j/n2); the grid must be at
    least 2x2. All components are closed loops on the torus, with one
    vertex per crossed grid edge (_crossings) in loop order. Components
    start at crossed grid edges in the order a row-major scan of the cells
    first links them, and head towards the edge each was first linked to.
    """
    v = np.asarray(values)
    if v.ndim != 2 or min(v.shape) < 2:
        raise ContractViolation(
            f"periodic contouring needs a grid of at least 2x2, got {v.shape}")
    n1, n2 = v.shape
    edges, xy = _crossings(v)

    # A cell with corners a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1) has its
    # sides in slot order ab, bc, dc, ad. An axis-0 edge (i, j) is side ab
    # of cell (i, j) and dc of (i, j-1); an axis-1 edge (i, j) is side ad of
    # (i, j) and bc of (i-1, j). Sorted by cell, row-major, then by slot, a
    # cell's crossings lie side by side, and each two in a row form a link
    # (`ends` holds positions into `edges`).
    axis1, i, j = np.unravel_index(edges, (2, n1, n2))
    cell_slot = np.concatenate([
        4 * (i * n2 + j) + 3 * axis1,
        4 * ((i - axis1) % n1 * n2 + (j + axis1 - 1) % n2) + 2 - axis1])
    occurrence = np.argsort(cell_slot)
    ends = occurrence % edges.size
    # A saddle cell crosses all four sides: it links two slot pairs, split by
    # the sign of the cell-center average.
    cell = cell_slot[occurrence] // 4
    s = np.flatnonzero(cell[3:] == cell[:-3])
    i, j = np.divmod(cell[s], n2)
    ip = (i + 1) % n1
    jp = (j + 1) % n2
    a, b, c, d = _nudged(v[[i, ip, ip, i], [j, j, jp, jp]])
    center_like_a = (0.25 * (a + b + c + d) > 0) == (a > 0)
    links = np.where(center_like_a[:, None], [0, 1, 3, 2], [0, 3, 1, 2])
    ends[s[:, None] + np.arange(4)] = ends[s[:, None] + links]

    # Every crossed edge ends exactly two links. The stable sort puts its two
    # occurrences side by side, first occurrence first; the neighbour at an
    # occurrence is the other end of that link.
    order = np.argsort(ends, kind="stable")
    first, second = ends[order ^ 1].reshape(-1, 2).T.tolist()

    # Walk each loop once, from its first edge in start order.
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
        components.append(xy[loop])
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
    starts, deltas, lengths = curve.segment_arrays()
    keep = lengths > 0
    if region is not None:
        mid = (starts[:, 0] + 0.5 * deltas[:, 0]) % 1.0
        keep &= (mid >= region[0]) & (mid <= region[1])
    starts, deltas, lengths = starts[keep], deltas[keep], lengths[keep]
    if lengths.size == 0:
        raise ContractViolation("no curve to sample in the requested region")
    cum = np.cumsum(lengths)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, cum[-1], size=n)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(lengths) - 1)
    offset = u - (cum[idx] - lengths[idx])
    frac = offset / lengths[idx]
    pts = (starts[idx] + frac[:, None] * deltas[idx]) % 1.0
    return PointSet(2, pts.T)
