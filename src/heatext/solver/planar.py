"""Masked 5-point Crank-Nicolson evolution on planar (dim 2) grids.

The hole enters through the node mask: Dirichlet pins masked nodes to
zero, Neumann drops the links crossing the hole boundary, and Robin
replaces the masked neighbour by the face ghost u (1 - b h/2) / (1 + b h/2)
of `grids.hole_ghost`, h/2 outside the hole boundary, so the Robin mass is
first order in h (3.4% low for rect:1x1, theta = 0.5, h = 1/2). The stencil is
`PlanarGrid.stencil()`; the run itself is the masked-grid run
`march.march_masked` shared with the axisymmetric solver. It marches the
values in the box operator's joint eigenbasis (sine modes in y, the
eigenvectors of the x tridiagonal in x; `fastsolve.SineModes`, built
once per run): the datum is transformed once and the values are read
back only at the snapshot times. Each step is a full direct solve (no
operator splitting) by `fastsolve.MaskedCNSolve`, built once per step
size: an elementwise multiply by the box inverse and a rank-r
capacitance correction for the hole, with no transform. `march_masked` checks
the run contract `march.check_run`, the hole and outer-edge nodes pinned.
"""

from ..domain import ExteriorDomain, ThetaBoundary
from ..errors import GeometryError, PreconditionError
from .config import StepperConfig
from .grids import Field, PlanarGrid, hole_ghost, stiffness
from .march import march_masked


def evolve_planar(domain: ExteriorDomain, theta: ThetaBoundary, u0: Field,
                  cfg: StepperConfig):
    """Evolve a planar datum; returns (snapshots, ledger).

    The datum must vanish on the hole and outer-edge nodes, which the
    scheme pins. Mass is the cell sum h^2 sum(u) over unmasked nodes; the
    ledger flux is the discrete flux through hole faces only.
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
    return march_masked(grid, u0, hole_ghost(theta, grid.h),
                        cfg.stops(stiffness(grid), grid.spacing), "planar", cfg.snapshot_times)
