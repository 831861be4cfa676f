"""Grid descriptors, the masked 5-point stencil and the Field container.

Every grid owns its geometry through the same members: `dim`, the space
dimension of the fields it carries; `hole`, its HoleSpec or None;
`radii()`, each node's distance from the origin; `hole_mask()`, True on
the nodes inside the hole (on a masked grid, PlanarGrid or AxisymGrid,
one read-only array built on the first call); and `spacing`, the finest
node spacing, which caps a run's steps. Code that judges a field against
the profile (`asymptotics.error_norms`, `profiles.asymptotic_mass`) reads
only these. Every constructor checks the node budget MAX_NODES, and a
masked grid's also the byte budget MAX_MASKED_BYTES of a run on it,
before any array is made.

Every grid's `stencil()`, (lo, up) or (lo0, up0, lo1, up1), is the one
source of its link coefficients, and `radial_links` the one radial link
formula with its parity row. `masked_laplacian`, `fastsolve.SineModes`,
`radial.radial_operator` and `stiffness`, the bound that sizes a warm-up,
read the stencil; `hole_links` is the one walk of the links into the hole.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ..domain import BallHole, HoleSpec, RectHole, sphere_surface_area
from ..errors import GeometryError, PreconditionError

# The most nodes one grid may hold, checked before any of its arrays is
# made: a tiny spacing or a huge radius exits as a bad input instead of
# allocating until memory runs out. The largest grid of the tests, demos
# and benchmark is the 515 x 515 planar profile grid at R = 64 (2.7e5
# nodes); 10^7 nodes are 80 MB per float array.
MAX_NODES = 10 ** 7

# A run on a masked grid (PlanarGrid, AxisymGrid) holds about
# MASKED_NODE_BYTES per node: its datum, masks, weights, mode vectors and a
# snapshot (115 B measured on planar runs to r_out = 20 at h = 0.2 to 0.05),
# and the n0 x n0 axis-0 eigenbasis of `fastsolve.SineModes`, 8 n0^2 bytes,
# whose dense transforms cost O(n0^3) each. MAX_MASKED_BYTES caps that
# estimate, so a grid under MAX_NODES that would still need gigabytes and
# seconds per transform is a bad input too.
MASKED_NODE_BYTES = 115
MAX_MASKED_BYTES = 10 ** 9


def _check_nodes(shape, masked: bool = False) -> None:
    """Reject a grid whose node shape holds more than MAX_NODES nodes or, for
    a masked grid, whose run needs more than MAX_MASKED_BYTES."""
    count = math.prod(shape)
    if count > MAX_NODES:
        raise GeometryError(f"a grid of about 10^{math.log10(count):.1f} nodes exceeds "
                            f"the budget of 10^{math.log10(MAX_NODES):g} nodes")
    need = MASKED_NODE_BYTES * count + 8 * shape[0] ** 2 if masked else 0
    if need > MAX_MASKED_BYTES:
        raise GeometryError(f"a masked grid of {shape[0]} x {shape[1]} nodes needs about "
                            f"{need / 1e9:.2f} GB, over the budget of "
                            f"{MAX_MASKED_BYTES / 1e9:g} GB")


def _hole_mask(hole, c0, c1, eps) -> np.ndarray:
    """The read-only mask of the nodes (c0[i], c1[j]) inside or on the
    boundary of a centred hole, all False for None."""
    if hole is None:
        mask = np.zeros((c0.size, c1.size), dtype=bool)
    else:
        mask = hole_nodes(hole, *np.meshgrid(c0, c1, indexing="ij"), eps)
    mask.flags.writeable = False
    return mask


def radial_links(r, h: float, k: int) -> tuple:
    """Link coefficients (lo, up) of u_rr + (k/r) u_r at the nodes r, spacing h.

    Centred differences where r > 0; at r = 0 the parity row (ghost
    u_{-1} = u_1, operator (k + 1) u_rr): lo = 0, up = 2 (k + 1) / h^2.
    """
    drift = np.divide(k, 2.0 * h * r, out=np.zeros(r.shape), where=r > 0)
    lo, up = 1.0 / h ** 2 - drift, 1.0 / h ** 2 + drift
    axis = r == 0
    lo[axis], up[axis] = 0.0, 2.0 * (k + 1) / h ** 2
    return lo, up


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [a, r_out]; a = 0 switches to ball/whole-space mode.

    Nodes r_i = a + i h with h = (r_out - a) / n_r, so r_0 = a and
    r_{n_r} = r_out. The hole is the ball of radius a (None for a = 0).
    """

    a: float
    r_out: float
    n_r: int
    dim: int = 3

    def __post_init__(self):
        if self.a < 0:
            raise GeometryError(f"hole radius must be >= 0, got {self.a}")
        if self.r_out <= self.a:
            raise GeometryError("r_out must exceed the hole radius")
        if self.n_r < 64:
            raise GeometryError(f"n_r must be at least 64, got {self.n_r}")
        _check_nodes(self.shape)
        if self.dim not in (2, 3):
            raise GeometryError(f"dim must be 2 or 3, got {self.dim}")

    @property
    def h(self) -> float:
        return (self.r_out - self.a) / self.n_r

    spacing = h

    @property
    def shape(self):
        return (self.n_r + 1,)

    @property
    def hole(self) -> Optional[BallHole]:
        return BallHole(self.a) if self.a > 0 else None

    def nodes(self) -> np.ndarray:
        return self.a + np.arange(self.n_r + 1) * self.h

    def radii(self) -> np.ndarray:
        return self.nodes()

    def hole_mask(self) -> np.ndarray:
        """All False: node 0 at r = a is an unknown, not a hole node."""
        return np.zeros(self.shape, dtype=bool)

    def volume_weights(self) -> np.ndarray:
        """Trapezoid weights including the surface measure omega r^(N-1) h."""
        r = self.nodes()
        w = np.ones_like(r)
        w[0] = w[-1] = 0.5
        return sphere_surface_area(self.dim) * w * r ** (self.dim - 1) * self.h

    def stencil(self):
        """Link coefficients (lo, up) of u_rr + (N-1)/r u_r; `radial_operator`
        folds in the hole and far rows."""
        return radial_links(self.nodes(), self.h, self.dim - 1)


def stiffness(grid) -> float:
    """Gershgorin bound lam_bar on the spectrum of -L for the grid's stencil.

    A row's diagonal is minus the sum of its links, so lam_bar is
    2 sum_axes max(lo + up) over the (lo, up) pairs of `stencil()`. It also
    bounds a masked run's operator with a hole ghost factor g in [-1, 1]
    (`hole_ghost`): a row whose links into the hole sum to s gains g s on
    its diagonal and loses s of its links, so its Gershgorin sum falls by
    (1 + g) s. A radial Robin hole row is not bounded by it
    (`radial.radial_stiffness`).
    """
    links = grid.stencil()
    return 2.0 * sum(float(np.max(lo + up)) for lo, up in zip(links[::2], links[1::2]))


def hole_nodes(hole: HoleSpec, X, Y, eps: float) -> np.ndarray:
    """True on the nodes (X, Y) inside or on the boundary of a centred hole."""
    if isinstance(hole, BallHole):
        return X ** 2 + Y ** 2 <= hole.radius ** 2 + eps
    if isinstance(hole, RectHole):
        return (np.abs(X) <= hole.half_width_x + eps) & (
            np.abs(Y) <= hole.half_width_y + eps
        )
    raise GeometryError(f"unsupported hole {hole!r}")


@dataclass(frozen=True)
class PlanarGrid:
    """Uniform node-centred grid on the square [-half_width, half_width]^2.

    Nodes on the outer edge are pinned to zero (far Dirichlet); nodes inside
    the hole are inactive. n is the cell count per side (n + 1 nodes).
    """

    half_width: float
    n: int
    hole: Optional[HoleSpec] = None
    dim = 2

    def __post_init__(self):
        if self.half_width <= 0:
            raise GeometryError("half_width must be positive")
        if self.n < 16:
            raise GeometryError(f"n must be at least 16, got {self.n}")
        _check_nodes(self.shape, masked=True)
        if self.hole is not None:
            if self.hole.circumscribed_radius >= self.half_width:
                raise GeometryError("hole must lie strictly inside the grid square")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    spacing = h

    @property
    def shape(self):
        return (self.n + 1, self.n + 1)

    def coords(self) -> np.ndarray:
        return -self.half_width + np.arange(self.n + 1) * self.h

    def meshgrid(self):
        c = self.coords()
        return np.meshgrid(c, c, indexing="ij")

    def radii(self) -> np.ndarray:
        c2 = self.coords() ** 2
        return np.sqrt(np.add.outer(c2, c2))

    @cached_property
    def _hole(self) -> np.ndarray:
        return _hole_mask(self.hole, self.coords(), self.coords(), 1e-12 * self.half_width)

    def hole_mask(self) -> np.ndarray:
        """True on nodes inside (or on) the hole boundary: one read-only
        array per grid, built on the first call."""
        return self._hole

    def edge_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m

    def active_mask(self) -> np.ndarray:
        return ~self.hole_mask() & ~self.edge_mask()

    def volume_weights(self) -> np.ndarray:
        w = np.full((self.n + 1, self.n + 1), self.h ** 2)
        w[self.hole_mask()] = 0.0
        return w

    def stencil(self):
        """Link coefficients (lo0, up0, lo1, up1) of the 5-point Laplacian."""
        c = np.full(self.n + 1, 1.0 / self.h ** 2)
        return c, c, c, c


@dataclass(frozen=True)
class AxisymGrid:
    """Cylindrical (rho, z) grid for axisymmetric 3d fields about the z-axis.

    rho in [0, rho_max] with n_rho cells, z in [-z_half, z_half] with n_z
    cells. The fields are dim 3, and radii() is the distance
    sqrt(rho^2 + z^2) from the origin. hole is a centred BallHole, whose
    nodes rho^2 + z^2 <= radius^2 hole_mask() marks with the planar
    grid's `hole_nodes`, or None for no hole.
    """

    rho_max: float
    z_half: float
    n_rho: int
    n_z: int
    hole: Optional[BallHole] = None
    dim = 3

    def __post_init__(self):
        if self.rho_max <= 0 or self.z_half <= 0:
            raise GeometryError("rho_max and z_half must be positive")
        if self.n_rho < 16 or self.n_z < 16:
            raise GeometryError("n_rho and n_z must be at least 16")
        _check_nodes(self.shape, masked=True)
        if self.hole is not None:
            if not isinstance(self.hole, BallHole):
                raise GeometryError(f"axisymmetric grids take a ball hole, got {self.hole!r}")
            if self.hole.radius >= min(self.rho_max, self.z_half):
                raise GeometryError("hole must lie strictly inside the grid")

    @property
    def h_rho(self) -> float:
        return self.rho_max / self.n_rho

    @property
    def h_z(self) -> float:
        return 2.0 * self.z_half / self.n_z

    @property
    def spacing(self) -> float:
        return min(self.h_rho, self.h_z)

    @property
    def shape(self):
        return (self.n_rho + 1, self.n_z + 1)

    def rho_nodes(self) -> np.ndarray:
        return np.arange(self.n_rho + 1) * self.h_rho

    def z_nodes(self) -> np.ndarray:
        return -self.z_half + np.arange(self.n_z + 1) * self.h_z

    def meshgrid(self):
        return np.meshgrid(self.rho_nodes(), self.z_nodes(), indexing="ij")

    def radii(self) -> np.ndarray:
        return np.sqrt(np.add.outer(self.rho_nodes() ** 2, self.z_nodes() ** 2))

    @cached_property
    def _hole(self) -> np.ndarray:
        return _hole_mask(self.hole, self.rho_nodes(), self.z_nodes(), 1e-12)

    def hole_mask(self) -> np.ndarray:
        """True on nodes inside (or on) the hole boundary: one read-only
        array per grid, built on the first call."""
        return self._hole

    def edge_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[-1, :] = True                 # rho = rho_max
        m[:, 0] = m[:, -1] = True       # z = +- z_half
        return m

    def active_mask(self) -> np.ndarray:
        return ~self.hole_mask() & ~self.edge_mask()

    def volume_weights(self) -> np.ndarray:
        """Cell weights for 2 pi * integral integral u rho drho dz.

        Ring cells carry 2 pi rho_i h_rho h_z; the axis carries its
        control-volume pi (h_rho/2)^2 h_z, which makes the discrete mass
        exchange with the first ring telescope exactly (the parity row is
        the finite-volume flux of that cell). Trapezoid halving applies
        at the outer edges, where fields vanish anyway.
        """
        R, _ = self.meshgrid()
        w = np.ones_like(R)
        w[-1, :] *= 0.5
        w[:, 0] *= 0.5
        w[:, -1] *= 0.5
        w = 2.0 * math.pi * w * R * self.h_rho * self.h_z
        w[0, :] = math.pi * (self.h_rho / 2.0) ** 2 * self.h_z
        w[0, 0] *= 0.5
        w[0, -1] *= 0.5
        w[self.hole_mask()] = 0.0
        return w

    def stencil(self):
        """Link coefficients (lo0, up0, lo1, up1) of u_rhorho + u_rho/rho + u_zz,
        with the dim-2 `radial_links` along rho (the parity row on the axis)."""
        lo0, up0 = radial_links(self.rho_nodes(), self.h_rho, 1)
        cz = np.full(self.n_z + 1, 1.0 / self.h_z ** 2)
        return lo0, up0, cz, cz


def hole_ghost(theta, h: float) -> float:
    """Factor g of the ghost value g * u that a hole neighbour takes.

    0 for Dirichlet, 1 for Neumann, and for Robin (1 - b h/2) / (1 + b h/2),
    b = cot(pi theta/2): second order at the face halfway to the hole node,
    but `hole_nodes` puts the boundary nodes into the hole, so that face is
    h/2 outside the boundary and a masked Robin run is first order in h.
    """
    if theta.is_dirichlet:
        return 0.0
    if theta.is_neumann:
        return 1.0
    b = theta.robin_b
    return (1.0 - 0.5 * b * h) / (1.0 + 0.5 * b * h)


def _shifted(mask):
    """mask at the (i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1) neighbours,
    False past the sides of the array."""
    pad = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask
    return pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2]


def hole_links(active, hole, stencil):
    """(sums, rim): each active node's link coefficients into the hole, added
    in `masked_laplacian`'s link order and zero off the active nodes, and
    the mask of the hole nodes next to an active node."""
    lo0, up0, lo1, up1 = stencil
    up_h, lo_h, right_h, left_h = _shifted(hole)
    sums = up0[:, None] * up_h + lo0[:, None] * lo_h + up1 * right_h + lo1 * left_h
    sums[~active] = 0.0
    return sums, hole & np.logical_or.reduce(_shifted(active))


def hole_weights(grid, ghost: float, links) -> np.ndarray:
    """Hole-flux weights over the active nodes of a PlanarGrid or AxisymGrid,
    from links = `hole_links` of the grid's masks and stencil.

    hole_w . u is the hole part of the discrete mass rate w^T L u (w the
    volume weights, L the `masked_laplacian` of grid.stencil() with hole
    ghost factor `ghost`), which the ledger records as the flux through
    the hole; the rest of w^T L u is the far-edge leakage.
    """
    active = grid.active_mask()
    sums, _ = links
    return (ghost - 1.0) * grid.volume_weights()[active] * sums[active]


def masked_laplacian(active, hole, stencil, hole_ghost, idx=None):
    """Stencil matrix over the unknowns of a masked 2d node array.

    stencil is (lo0, up0, lo1, up1): node (i, j) links to (i - 1, j) and
    (i + 1, j) with coefficients lo0[i] and up0[i], and to (i, j - 1) and
    (i, j + 1) with lo1[j] and up1[j]; a link applies where its
    coefficient is nonzero. An active neighbour gives an entry in its
    unknown's column. A hole neighbour stands for the ghost value
    hole_ghost * u: 0 for Dirichlet, the Robin face factor, 1 for Neumann
    (the link drops out). Any other neighbour lies on the outer edge,
    whose value is zero or moves to a right-hand side.

    idx maps each active node to its unknown, 0 .. n - 1 (its value off
    the active nodes is not read); without it every active node is its
    own unknown, numbered in row-major order. Nodes that share an unknown
    are mirror images, whose rows agree: the first of them in row-major
    order owns the unknown and gives its row, and the entries that its
    links put in one column are summed.

    Returns (L, edge_coef). L acts on the vector of unknowns, as the
    canonical CSC arrays (n, data, indices, indptr): row indices sorted
    within each column, mirrored entries summed into one, explicit zeros
    kept, indices and indptr of C int; these are the arrays
    scipy.sparse.csr_matrix((data, (rows, cols))).tocsc() gives.
    edge_coef sums each unknown's link coefficients to the outer edge.
    """
    I, J = np.where(active)
    if idx is None:
        idx = -np.ones(active.shape, dtype=np.int64)
        idx[I, J] = np.arange(I.size)
    else:
        idx = np.where(active, idx, -1)
        unknowns, first = np.unique(idx[I, J], return_index=True)
        if not np.array_equal(unknowns, np.arange(unknowns.size)):
            raise PreconditionError("idx must number the unknowns 0 .. n - 1")
        I, J = I[first], J[first]  # the owners, in the order of their unknowns
    n = I.size
    me = np.arange(n)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    edge_coef = np.zeros(n)
    lo0, up0, lo1, up1 = stencil
    for c, di, dj in ((up0[I], 1, 0), (lo0[I], -1, 0), (up1[J], 0, 1), (lo1[J], 0, -1)):
        sel = c != 0.0
        c, nb_i, nb_j = c[sel], I[sel] + di, J[sel] + dj
        nb_idx = idx[nb_i, nb_j]
        nb_hole = hole[nb_i, nb_j]
        nb_active = nb_idx >= 0
        rows.append(me[sel][nb_active])
        cols.append(nb_idx[nb_active])
        vals.append(c[nb_active])
        diag[sel] -= np.where(nb_hole, (1.0 - hole_ghost) * c, c)
        edge_coef[sel] += np.where(nb_active | nb_hole, 0.0, c)
    rows, cols = np.concatenate(rows + [me]), np.concatenate(cols + [me])
    order = np.lexsort((rows, cols))  # by column, then by row
    rows, cols = rows[order], cols[order]
    # one entry per (row, column): the first of each run of equal keys
    start = np.flatnonzero(np.concatenate(([True], (rows[1:] != rows[:-1])
                                           | (cols[1:] != cols[:-1]))))
    data = np.add.reduceat(np.concatenate(vals + [diag])[order], start)
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols[start], minlength=n), out=indptr[1:])
    return (n, data, rows[start].astype(np.intc), indptr), edge_coef


@dataclass
class Field:
    """A discrete field u(., t): values on a grid's nodes plus its time stamp."""

    grid: object
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise PreconditionError(f"field values of shape {self.values.shape} do not "
                                    f"match the grid's node shape {self.grid.shape}")

    def lock(self) -> "Field":
        """Mark the values read-only; emitted snapshots are immutable."""
        self.values.flags.writeable = False
        return self

    def weights(self) -> np.ndarray:
        return self.grid.volume_weights()

    def integral(self) -> float:
        return float(np.sum(self.weights() * self.values))
