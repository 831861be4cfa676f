"""Axisymmetric (rho, z) Crank-Nicolson evolution for dim-3 fields.

Cylindrical Laplacian u_rhorho + u_rho/rho + u_zz with the parity row
4 (u_1 - u_0)/h^2 on the axis, written once in `AxisymGrid.stencil()`.
The ball hole is a masked staircase with Dirichlet nodes; only Dirichlet
hole conditions are supported here (a staircase Robin condition would
degrade to first order). The run itself is the masked-grid run
`march.march_masked` shared with the planar solver, on the sine modes in
z of the scaled values: the datum is transformed once and the values are
read back only at the stops. Each step is a direct solve by
`fastsolve.MaskedCNSolve`: one stacked tridiagonal solve in rho and a
capacitance correction on the hole staircase, with no sine transform.
Used for off-axis sources: kernel probes and domain-comparison checks.
"""

from ..domain import BallHole, ExteriorDomain, ThetaBoundary
from ..errors import GeometryError, PreconditionError, UnsupportedFeatureError
from .config import StepperConfig
from .grids import AxisymGrid, Field
from .march import march_masked


def evolve_axisym(domain: ExteriorDomain, theta: ThetaBoundary, u0: Field,
                  cfg: StepperConfig):
    """Evolve an axisymmetric datum around a ball hole (Dirichlet only).

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
    if domain.dim != 3 or not isinstance(domain.hole, BallHole):
        raise GeometryError("evolve_axisym requires a dim-3 ball-hole domain")
    if abs(grid.hole_radius - domain.hole.radius) > 1e-12:
        raise GeometryError("grid hole radius does not match the domain")
    return _axisym_run(grid, u0, cfg.stops(), cfg.ledger_stride)


def _axisym_run(grid: AxisymGrid, u0: Field, stops, ledger_stride=1):
    """Dirichlet run through the `march` stops on the grid's own hole,
    without the domain checks.

    The kernel probes call it directly, on the grid they build around the
    ball hole.
    """
    cap = max((c for _, c in stops), default=0.0)
    if cap > max(grid.h_rho, grid.h_z) * (1.0 + 1e-12):
        raise PreconditionError("accuracy guard: dt exceeds grid spacing")
    return march_masked(grid, u0, 0.0, stops, ledger_stride, "axisymmetric")
