"""Crank-Nicolson evolution of radial fields: u_t = u_rr + (N-1)/r u_r.

Hole boundary at r = a by ghost node: Dirichlet pins u(a) = 0; Robin and
Neumann fold u_r(a) = b u(a) into the first stencil row at second order
(b = cot(pi theta/2); the sign follows from du/dn = -du/dr at the hole).
a = 0 switches to the smooth-origin parity row used for ball domains and
whole-space probes. The truncation boundary is homogeneous Dirichlet.

The stencil is symmetric with respect to the volume weights, so a
diagonal D makes I - dt/2 L symmetric positive definite. A run factors
that form once (`fastsolve.symmetric_factor`, LAPACK dpttrf) on the
coupled nodes and each step is one dpttrs solve. The far node, whose
value stays zero, is left out; node 0 is back-substituted from its row
when it is the Dirichlet hole node or, for a = 0 in dim 3, when node 1
has no link to it. The march runs in the scaled variable v = D u, so no
step pays for the scaling: the mass weights are w / D, and the hole flux
and the snapshots read u = v / D. The time loop is the shared `march`.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpttrs

from ..domain import (
    BallHole,
    ExteriorDomain,
    ThetaBoundary,
    sphere_surface_area,
)
from ..errors import GeometryError, NumericalError, PreconditionError
from .config import StepperConfig
from .fastsolve import symmetric_factor
from .grids import Field, RadialGrid
from .march import march

BC_TOL = 1e-9  # relative tolerance for Dirichlet compatibility of the datum


def radial_operator(grid: RadialGrid, theta: ThetaBoundary):
    """Tridiagonal second-order discretisation of the radial Laplacian.

    Returns (lower, diag, upper) with the boundary rows folded in:
    Dirichlet / far rows are identically zero, so Crank-Nicolson leaves
    those nodes fixed at their (zero) initial values.
    """
    r = grid.nodes()
    h = grid.h
    n = r.size
    dim = grid.dim
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    i = np.arange(1, n - 1)
    lo[i] = 1.0 / h ** 2 - (dim - 1) / (2.0 * h * r[i])
    di[i] = -2.0 / h ** 2
    up[i] = 1.0 / h ** 2 + (dim - 1) / (2.0 * h * r[i])
    if grid.a == 0.0:
        # smooth origin: Laplacian of a radial function at r=0 is N u_rr,
        # with the parity ghost u_{-1} = u_1
        di[0] = -2.0 * dim / h ** 2
        up[0] = 2.0 * dim / h ** 2
    elif theta.is_dirichlet:
        pass  # zero row keeps u(a) = 0
    else:
        b = theta.robin_b
        di[0] = -2.0 * (1.0 + h * b) / h ** 2 + (dim - 1) * b / r[0]
        up[0] = 2.0 / h ** 2
        if not math.isfinite(di[0]):
            raise GeometryError(f"theta = {theta.theta!r} is too small: the Robin row "
                                f"with b = cot(pi theta/2) = {b:.3e} is not finite")
    return lo, di, up


def _crank_nicolson_run(grid, theta, u0_values, cfg, omega):
    lo, di, up = radial_operator(grid, theta)
    half = 0.5 * cfg.dt
    n = grid.n_r  # unknowns: every node but the far one
    first = 0 if up[0] != 0.0 and lo[1] != 0.0 else 1  # first node of the coupled block
    try:
        block, d, e = symmetric_factor(-half * lo[first:n], 1.0 - half * di[first:n],
                                       -half * up[first:n])
    except NumericalError as exc:
        # only a Robin row can do this: its diagonal turns positive for
        # h > 2 a / (N - 1), and L gets an eigenvalue >= 2 / dt, which the
        # Crank-Nicolson step amplifies
        raise NumericalError(f"{exc}; the Robin row makes the radial operator grow "
                             f"on this grid: h = {grid.h:g} is too coarse for the hole "
                             f"(a = {grid.a:g}, theta = {theta.theta:g})") from exc
    scale = np.ones(n)
    scale[first:] = block
    a00, a01 = 1.0 - half * di[0], -half * up[0]  # row 0; D = 1 on nodes 0 and first

    def solve(v):
        x = v.copy()
        x[first:] = dpttrs(d, e, x[first:], overwrite_b=True)[0]  # no-op copy when in place
        if first:
            x[0] = (x[0] - a01 * x[1]) / a00
        return x

    w = grid.volume_weights()[:n] / scale
    a_pow = grid.a ** (grid.dim - 1)
    dirichlet_hole = grid.a > 0.0 and theta.is_dirichlet

    def flux(v):
        if grid.a == 0.0:
            return 0.0
        u = v[:3] / scale[:3]
        if dirichlet_hole:
            u_r = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * grid.h)
            return omega * a_pow * (-u_r)
        # Robin/Neumann: the condition itself gives du/dn = -b u(a) exactly
        return -omega * a_pow * theta.robin_b * u[0]

    def to_field(v, t):
        u = np.zeros(n + 1)
        u[:n] = v / scale
        return Field(grid, u, t).lock()

    return march(u0_values[:n] * scale, cfg, solve, lambda v: float(w @ v), flux,
                 to_field, "radial")


def _check_datum(grid, theta, values):
    if values.shape != (grid.n_r + 1,):
        raise PreconditionError(
            f"datum shape {values.shape} does not match grid ({grid.n_r + 1},)"
        )
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(values))))
    if grid.a > 0.0 and theta.is_dirichlet and abs(values[0]) > BC_TOL * scale:
        raise PreconditionError(
            f"Dirichlet datum must vanish at the hole: u0(a) = {values[0]:.3e}"
        )


def evolve_radial(domain: ExteriorDomain, theta: ThetaBoundary, u0: Field,
                  cfg: StepperConfig):
    """Evolve a radial datum on the truncated exterior domain.

    Returns (snapshots, ledger). Snapshots are immutable Fields at the
    requested times; the ledger holds (t, mass, hole flux) rows at every
    ledger_stride-th step.
    """
    grid = u0.grid
    if not isinstance(grid, RadialGrid):
        raise PreconditionError("evolve_radial requires a Field on a RadialGrid")
    if not isinstance(domain.hole, BallHole):
        raise GeometryError("radial evolution requires a ball hole")
    if abs(grid.a - domain.hole.radius) > 1e-12:
        raise GeometryError("grid inner radius does not match the hole radius")
    if abs(grid.r_out - domain.far_radius) > 1e-9 * domain.far_radius:
        raise GeometryError("grid outer radius does not match domain.far_radius")
    if grid.dim != domain.dim:
        raise GeometryError("grid dimension does not match the domain")
    if cfg.dt > grid.h * (1.0 + 1e-12):
        raise PreconditionError(
            f"accuracy guard: dt = {cfg.dt} exceeds grid spacing h = {grid.h}"
        )
    values = np.array(u0.values, dtype=float)
    _check_datum(grid, theta, values)
    if theta.is_dirichlet:
        values[0] = 0.0
    values[-1] = 0.0
    omega = sphere_surface_area(domain.dim)
    return _crank_nicolson_run(grid, theta, values, cfg, omega)


def evolve_ball(radius: float, u0: Field, cfg: StepperConfig):
    """Evolve inside the ball B(0, radius) with Dirichlet boundary (dim 3).

    The grid must be a RadialGrid with a = 0 and r_out = radius; the
    origin uses the parity row, the ball boundary absorbs. Used for the
    eigen-decay checks of the optimal-datum construction.
    """
    grid = u0.grid
    if not isinstance(grid, RadialGrid) or grid.a != 0.0:
        raise PreconditionError("evolve_ball requires a RadialGrid with a = 0")
    if abs(grid.r_out - radius) > 1e-12 * max(1.0, radius):
        raise PreconditionError("grid outer radius must equal the ball radius")
    if cfg.dt > grid.h * (1.0 + 1e-12):
        raise PreconditionError("accuracy guard: dt exceeds grid spacing")
    values = np.array(u0.values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    values[-1] = 0.0
    omega = sphere_surface_area(grid.dim)
    return _crank_nicolson_run(grid, ThetaBoundary(1.0), values, cfg, omega)
