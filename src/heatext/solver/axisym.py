"""Axisymmetric (rho, z) Crank-Nicolson evolution for dim-3 fields.

Cylindrical Laplacian u_rhorho + u_rho/rho + u_zz with the parity row
4 (u_1 - u_0)/h^2 on the axis. The ball hole is a masked staircase with
Dirichlet nodes; only Dirichlet hole conditions are supported here (a
staircase Robin condition would degrade to first order). The operator
comes from the shared masked-stencil assembler `grids.masked_laplacian`,
the ledger's hole-flux weights from the masks alone (`grids.hole_link_sums`),
and the time loop is the shared `march`. Each step is a direct solve by
`fastsolve.MaskedCNSolve`: a sine transform in z, one stacked tridiagonal
solve in rho and a capacitance correction on the hole staircase. Used for
off-axis sources: kernel probes and domain-comparison checks.
"""

import numpy as np

from ..domain import BallHole, ExteriorDomain, ThetaBoundary
from ..errors import GeometryError, PreconditionError, UnsupportedFeatureError
from .config import StepperConfig
from .fastsolve import MaskedCNSolve
from .grids import AxisymGrid, Field, hole_link_sums, masked_laplacian
from .march import march_masked


def _rho_links(grid: AxisymGrid):
    """Inward and outward rho link coefficients of the rows 0 .. n_rho - 1.

    The axis row is the parity row 4 (u_1 - u_0)/h^2 (no inward link);
    off the axis the centred stencil of u_rhorho + u_rho/rho.
    """
    hr = grid.h_rho
    rho = grid.rho_nodes()[1:grid.n_rho]
    c_in = np.zeros(grid.n_rho)
    c_out = np.full(grid.n_rho, 4.0 / hr ** 2)
    c_in[1:] = 1.0 / hr ** 2 - 1.0 / (2.0 * rho * hr)
    c_out[1:] = 1.0 / hr ** 2 + 1.0 / (2.0 * rho * hr)
    return c_in, c_out


def _links(grid: AxisymGrid, active):
    I, _ = np.where(active)
    c_in, c_out = _rho_links(grid)
    cz = 1.0 / grid.h_z ** 2
    return [(True, cz, 0, 1), (True, cz, 0, -1),
            (True, c_out[I], 1, 0), (I > 0, c_in[I], -1, 0)]


def axisym_hole_w(grid: AxisymGrid) -> np.ndarray:
    """Hole-flux weights over the active nodes, read off the masks.

    The discrete mass rate through hole faces is hole_w . u, matching the
    volume weights used for the mass so that dM/dt = hole flux + far-edge
    flux holds exactly at the discrete level.
    """
    active = grid.active_mask()
    return -grid.volume_weights()[active] * hole_link_sums(
        active, grid.hole_mask(), _links(grid, active))


def axisym_operator(grid: AxisymGrid):
    """Sparse cylindrical Laplacian over active nodes (hole is Dirichlet).

    Returns (L, hole_w) with hole_w = axisym_hole_w(grid).
    """
    active = grid.active_mask()
    L, _ = masked_laplacian(active, grid.hole_mask(), _links(grid, active), 0.0)
    return L, axisym_hole_w(grid)


def axisym_solver(grid: AxisymGrid, dt: float) -> MaskedCNSolve:
    """Solver of I - dt/2 L for the axisym_operator L over the active nodes."""
    c_in, c_out = _rho_links(grid)
    return MaskedCNSolve(grid.active_mask(), grid.hole_mask(), slice(0, grid.n_rho),
                         c_in, -(c_in + c_out), c_out, 1.0 / grid.h_z ** 2, 0.0, dt)


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
    return _axisym_run(grid, u0, cfg)


def _axisym_run(grid: AxisymGrid, u0: Field, cfg: StepperConfig):
    """Shared stepping core; also used hole-free by the kernel probes."""
    if cfg.dt > max(grid.h_rho, grid.h_z) * (1.0 + 1e-12):
        raise PreconditionError("accuracy guard: dt exceeds grid spacing")
    values = np.array(u0.values, dtype=float)
    if values.shape != (grid.n_rho + 1, grid.n_z + 1):
        raise PreconditionError("datum shape does not match the grid")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    values[grid.hole_mask()] = 0.0
    values[grid.edge_mask()] = 0.0

    return march_masked(grid, values, axisym_hole_w(grid), cfg,
                        axisym_solver(grid, cfg.dt), "axisymmetric")
