"""Masked 5-point Crank-Nicolson evolution on planar (dim 2) grids.

The hole enters through the node mask: Dirichlet pins masked nodes to
zero, Neumann drops the links crossing the hole boundary, and Robin
replaces the masked neighbour by the second-order face ghost
u_ghost = u (1 - b h/2) / (1 + b h/2). The operator comes from the shared
masked-stencil assembler `grids.masked_laplacian`; a run never assembles
it, since the ledger's hole-flux weights come from the masks alone
(`grids.hole_link_sums`). The time loop is the shared `march`. Each step
is a full direct solve (no operator splitting) by `fastsolve.MaskedCNSolve`,
built once per run: a sine transform in y, one stacked tridiagonal solve
in x and a capacitance correction for the hole.
"""

import numpy as np

from ..domain import ExteriorDomain, ThetaBoundary
from ..errors import GeometryError, PreconditionError
from .config import StepperConfig
from .fastsolve import MaskedCNSolve
from .grids import (
    FIVE_POINT,
    Field,
    PlanarGrid,
    hole_ghost,
    hole_link_sums,
    masked_laplacian,
)
from .march import march_masked


def _links(grid: PlanarGrid):
    inv_h2 = 1.0 / grid.h ** 2
    return [(True, inv_h2, di, dj) for di, dj in FIVE_POINT]


def planar_hole_w(grid: PlanarGrid, theta: ThetaBoundary) -> np.ndarray:
    """Hole-flux weights over the active nodes, read off the masks.

    hole_w . u is the hole part of the discrete mass rate h^2 sum(L u) of
    the planar_operator L, which the ledger records as the flux through
    the hole.
    """
    active, hole = grid.active_mask(), grid.hole_mask()
    return ((hole_ghost(theta, grid.h) - 1.0) * grid.volume_weights()[active]
            * hole_link_sums(active, hole, _links(grid)))


def planar_operator(grid: PlanarGrid, theta: ThetaBoundary):
    """Sparse Laplacian over active nodes plus its hole-flux weights.

    Returns (L, hole_w): L acts on the vector of active node values and
    hole_w = planar_hole_w(grid, theta).
    """
    L, _ = masked_laplacian(grid.active_mask(), grid.hole_mask(), _links(grid),
                            hole_ghost(theta, grid.h))
    return L, planar_hole_w(grid, theta)


def planar_solver(grid: PlanarGrid, theta: ThetaBoundary, dt: float) -> MaskedCNSolve:
    """Solver of I - dt/2 L for the planar_operator L over the active nodes."""
    c = np.full(grid.n - 1, 1.0 / grid.h ** 2)
    return MaskedCNSolve(grid.active_mask(), grid.hole_mask(), slice(1, grid.n),
                         c, -2.0 * c, c, c[0], hole_ghost(theta, grid.h), dt)


def evolve_planar(domain: ExteriorDomain, theta: ThetaBoundary, u0: Field,
                  cfg: StepperConfig):
    """Evolve a planar datum; returns (snapshots, ledger).

    The datum must vanish on masked (hole) nodes; outer-edge values are
    pinned to zero. Mass is the cell sum h^2 sum(u) over unmasked nodes;
    the ledger flux is the discrete flux through hole faces only.
    """
    grid = u0.grid
    if not isinstance(grid, PlanarGrid):
        raise PreconditionError("evolve_planar requires a Field on a PlanarGrid")
    if domain.dim != 2:
        raise GeometryError("evolve_planar requires dim 2")
    if grid.hole != domain.hole:
        raise GeometryError("grid hole does not match the domain hole")
    if abs(grid.half_width - domain.far_radius) > 1e-9 * domain.far_radius:
        raise GeometryError("grid half_width does not match domain.far_radius")
    if cfg.dt > grid.h * (1.0 + 1e-12):
        raise PreconditionError("accuracy guard: dt exceeds grid spacing h")
    values = np.array(u0.values, dtype=float)
    if values.shape != (grid.n + 1, grid.n + 1):
        raise PreconditionError("datum shape does not match the grid")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    hole = grid.hole_mask()
    scale = max(1.0, float(np.max(np.abs(values))))
    if np.any(np.abs(values[hole]) > 1e-9 * scale):
        raise PreconditionError("datum must vanish on hole nodes")
    values[hole] = 0.0
    values[grid.edge_mask()] = 0.0

    return march_masked(grid, values, planar_hole_w(grid, theta), cfg,
                        planar_solver(grid, theta, cfg.dt), "planar")
