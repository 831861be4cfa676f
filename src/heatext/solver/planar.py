"""Masked 5-point Crank-Nicolson evolution on planar (dim 2) grids.

The hole enters through the node mask: Dirichlet pins masked nodes to
zero, Neumann drops the links crossing the hole boundary, and Robin
replaces the masked neighbour by the face ghost u (1 - b h/2) / (1 + b h/2)
of `grids.hole_ghost`, h/2 outside the hole boundary. Around a rect hole
the Robin mass is then first order in h (3.4% low for rect:1x1, theta = 0.5,
h = 1/2); around a ball hole at 0 < theta < 1 it does not converge (each
staircase face takes the full Robin term: at theta = 0.5 the mass at t = 4
stays 2.35% and 2.27% below a fine radial run's at h = 1/16 and 1/32). The stencil is
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

from ..domain import ThetaBoundary, check_exterior
from ..errors import PreconditionError
from .config import StepperConfig
from .grids import Field, PlanarGrid, hole_ghost, stiffness
from .march import march_masked


def evolve_planar(theta: ThetaBoundary, u0: Field, cfg: StepperConfig):
    """Evolve a planar datum; returns (snapshots, ledger).

    The truncated domain is the grid's square around its hole, whose half
    width must be at least 4x the hole's circumscribed radius
    (`domain.check_exterior`). The datum must vanish on the hole and
    outer-edge nodes, which the scheme pins. Mass is the cell sum
    h^2 sum(u) over unmasked nodes; the ledger flux is the discrete flux
    through hole faces only.
    """
    grid = u0.grid
    if not isinstance(grid, PlanarGrid):
        raise PreconditionError("evolve_planar requires a Field on a PlanarGrid")
    check_exterior(2, grid.hole, grid.half_width)
    return march_masked(grid, u0, hole_ghost(theta, grid.h),
                        cfg.stops(stiffness(grid), grid.spacing), "planar", cfg.snapshot_times)
