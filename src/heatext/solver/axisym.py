"""Axisymmetric (rho, z) Crank-Nicolson evolution for dim-3 fields.

Cylindrical Laplacian u_rhorho + u_rho/rho + u_zz with the parity row
4 (u_1 - u_0)/h^2 on the axis, written once in `AxisymGrid.stencil()`.
The ball hole is a masked staircase with Dirichlet nodes; only Dirichlet
hole conditions are supported here (a staircase Robin condition would
degrade to first order). The run itself is the masked-grid run
`march.march_masked` shared with the planar solver, in the box
operator's joint eigenbasis of the scaled values (sine modes in z, the
eigenvectors of the symmetrised rho tridiagonal, parity row included, in
rho; `fastsolve.SineModes`, built once per run): the datum is
transformed once and the values are read back only at the snapshots.
Each step is a direct solve by `fastsolve.MaskedCNSolve`, built once per
step size: an elementwise multiply by the box inverse and a rank-r
capacitance correction on the hole staircase, with no transform.
Used for off-axis sources: kernel probes and domain-comparison checks.
`march_masked` checks the run contract `march.check_run` for both, the
hole and outer-edge nodes pinned and the accuracy guard on every step
cap, with h = min(h_rho, h_z).
"""

from ..domain import ThetaBoundary, check_exterior
from ..errors import PreconditionError, UnsupportedFeatureError
from .config import StepperConfig
from .grids import AxisymGrid, Field, stiffness
from .march import march_masked


def evolve_axisym(theta: ThetaBoundary, u0: Field, cfg: StepperConfig):
    """Evolve an axisymmetric datum around the grid's ball hole (Dirichlet only).

    Mass is 2 pi * double integral of u rho drho dz (trapezoid); the ledger
    flux sums the discrete mass rate through hole faces.
    """
    if not theta.is_dirichlet:
        raise UnsupportedFeatureError(
            "axisymmetric evolution supports Dirichlet hole conditions only"
        )
    grid = u0.grid
    if not isinstance(grid, AxisymGrid):
        raise PreconditionError("evolve_axisym requires a Field on an AxisymGrid")
    check_exterior(3, grid.hole)
    return _axisym_run(grid, u0, cfg.stops(stiffness(grid), grid.spacing), cfg.snapshot_times)


def _axisym_run(grid: AxisymGrid, u0: Field, stops, snap_times):
    """The Dirichlet run on the grid's own hole, without the hole check;
    the exterior kernel probe calls it directly, on the grid it builds."""
    return march_masked(grid, u0, 0.0, stops, "axisymmetric", snap_times)
