"""Crank-Nicolson evolution of radial fields: u_t = u_rr + (N-1)/r u_r.

The links are `RadialGrid.stencil()`, with the smooth-origin parity row
at r = 0 (a = 0: ball domains, whole-space probes). `radial_operator`
folds in the far row (homogeneous Dirichlet) and the hole row at r = a by
ghost node: Dirichlet pins u(a) = 0; Robin and Neumann fold u_r(a) = b u(a)
into it at second order (b = cot(pi theta/2), du/dn = -du/dr at the hole).

The stencil is symmetric with respect to the volume weights, so a
diagonal D makes I - dt/2 L symmetric positive definite; D depends on
the stencil only, not on dt. A run factors that form once per step size
(`fastsolve.symmetric_factor`, LAPACK dpttrf) on the coupled nodes and
each step is one dpttrs solve; both are scipy's LAPACK routines, which
`fastsolve` loads from their compiled extension without scipy.linalg.
The far node, whose value stays zero, is left out; node 0 is
back-substituted from its row when it is the Dirichlet hole node or, for
a = 0 in dim 3, when node 1 has no link to it. The march runs in the
scaled variable v = D u, so no step pays for the scaling: the ledger's
mass and hole-flux weight vectors, built once before the first step,
carry the 1 / D, and the snapshots read u = v / D.

A run marches on a window of nodes [first, end) and holds v at exactly 0
from end on. Each step solves the leading k = end - first coupled nodes
with the leading slices d[:k], e[:k - 1] of its step size's factor, since
the factor of a leading block is the leading part of the factor. The
inverse of I - dt/2 L decays geometrically away from the datum (Demko,
Moss & Smith, Math. Comp. 43 (1984) 491), and that gives an exact bound
on what the window leaves out. Past the window the right-hand side is 0,
so the forward sweep decays there by the multipliers |e| <= q < 1, and
the untruncated solution has |x*(end)| <= q d[k - 1] |x(end - 1)| /
(d_min (1 - q^2)), q and d_min taken over the nodes past the smallest
window; the windowed solve is off by at most that at every node. When
the bound is not below the floor FLOOR max|u0|, the window widens by
WINDOW_LATTICE nodes and the step is solved again, so every committed
solve is within the floor of the full one (in u = v / D too, as D >= 1).
The march takes twice the solve: dpttrs runs on d / 2 (q, d_min and the
bound come from d), which doubles its result exactly outside the
subnormal range, and node 0 is back-substituted from 2 v[0]. The window
check's halved d[k - 1] times the doubled x is the plain solve's product.
Without the window the solve's decaying tail runs through the subnormal
range, which is many times slower than normal arithmetic on x86; the
t = 200 truncation audit's snapshots hold no value in that range.
Window ends lie on a lattice of WINDOW_LATTICE nodes. Runs at different
theta then end their windows at the same nodes or the larger solution's
further out; with free ends a wider window's tiny positive values face
exact zeros and break the exact ordering in theta of uniform-step runs.
The floor is the same for every theta, and small enough that the
round-off its perturbation seeds in nodes that diffusion later fills
stays out of the ledger's sums: at 1e-100 a Neumann run's M(50) moved
by 2 ulp, at 1e-200 the CLI's ledgers and rates match the full solve's
byte for byte.
The time loop is the shared `march`, which writes a ledger row at t = 0
and after every step and a snapshot only at the snapshot times (the
ladder stops take none). The dim-3 elliptic profile solves these rows
with the same factor.
Every radial run (`evolve_radial`, `evolve_ball`, the whole-space kernel
probe) checks the run contract `march.check_run` in `_crank_nicolson_run`,
with the far node and the Dirichlet hole node (a > 0) pinned. The
evolutions' start-up (`StepperConfig.stops`) is sized by
`radial_stiffness`, the Gershgorin bound of `radial_operator` with its
Robin hole row: at theta = 0.001 that row puts the top of the spectrum
5.4 times above the stencil's bound, and a start-up that left its mode
undamped would leave the ledger's hole flux -b u(a) dominated by it.
"""

import math

import numpy as np

from ..domain import ThetaBoundary, check_exterior, sphere_surface_area
from ..errors import GeometryError, NumericalError, PreconditionError
from .config import StepperConfig
from .fastsolve import dpttrs, symmetric_factor, tridiagonal_scale
from .grids import Field, RadialGrid
from .march import check_run, march

FLOOR = 1e-200  # the error a windowed solve may commit, relative to max|u0|
WINDOW_LATTICE = 256  # window ends are multiples of this many nodes (or n)


def radial_operator(grid: RadialGrid, theta: ThetaBoundary):
    """Tridiagonal second-order discretisation of the radial Laplacian.

    Returns (lower, diag, upper): `grid.stencil()` with row 0 and the far
    row folded in. Dirichlet / far rows are identically zero, so
    Crank-Nicolson leaves those nodes fixed at their (zero) initial values.
    """
    h = grid.h
    lo, up = grid.stencil()
    di = np.full(lo.size, -2.0 / h ** 2)
    lo[0] = lo[-1] = di[-1] = up[-1] = 0.0
    if grid.a == 0.0:
        # smooth origin: the stencil's parity row, N u_rr with u_{-1} = u_1
        di[0] = -up[0]
    elif theta.is_dirichlet:
        di[0] = up[0] = 0.0  # zero row keeps u(a) = 0
    else:
        b = theta.robin_b
        di[0] = -2.0 * (1.0 + h * b) / h ** 2 + (grid.dim - 1) * b / grid.a
        up[0] = 2.0 / h ** 2
        if not math.isfinite(di[0]):
            raise GeometryError(f"theta = {theta.theta!r} is too small: the Robin row "
                                f"with b = cot(pi theta/2) = {b:.3e} is not finite")
    return lo, di, up


def radial_stiffness(grid: RadialGrid, theta: ThetaBoundary) -> float:
    """Gershgorin bound on the spectrum of -L for `radial_operator`: the
    largest |lo| + |di| + |up| over its rows. A Robin hole row adds
    2 b / h - (N - 1) b / a to the stencil's bound `grids.stiffness`, which
    grows without limit as theta -> 0."""
    lo, di, up = radial_operator(grid, theta)
    return float(np.max(np.abs(lo) + np.abs(di) + np.abs(up)))


def _crank_nicolson_run(grid, theta, u0_values, stops, snap_times):
    dirichlet_hole = grid.a > 0.0 and theta.is_dirichlet
    values = check_run(u0_values, [0] if dirichlet_hole else [], [-1], stops, grid.spacing)
    lo, di, up = radial_operator(grid, theta)
    n = grid.n_r  # unknowns: every node but the far one
    first = 0 if up[0] != 0.0 and lo[1] != 0.0 else 1  # first node of the coupled block
    floor = FLOOR * float(np.max(np.abs(values)))
    # the window [first, end): the first lattice end past the datum's support
    support = np.flatnonzero(values[:n])
    end = min(n, (support[-1] // WINDOW_LATTICE + 1 if support.size else 1) * WINDOW_LATTICE)

    scale = np.ones(n)  # symmetric_factor's D, the same for every dt
    scale[first:] = tridiagonal_scale(lo[first:n], up[first:n])
    v0 = values[:n] * scale
    # solve2's output, never its argument; the march is done with v0 after
    # the first step, and both arrays are 0 from end on
    buffers = (v0, np.zeros(n))

    def factor(dt):
        nonlocal end
        half = 0.5 * dt
        try:
            _, d, e = symmetric_factor(-half * lo[first:n], 1.0 - half * di[first:n],
                                       -half * up[first:n])
        except NumericalError as exc:
            # only a Robin row can do this: its diagonal turns positive for
            # h > 2 a / (N - 1), and L gets an eigenvalue >= 2 / dt, which the
            # Crank-Nicolson step amplifies
            raise NumericalError(f"{exc}; the Robin row makes the radial operator grow "
                                 f"on this grid: h = {grid.h:g} is too coarse for the hole "
                                 f"(a = {grid.a:g}, theta = {theta.theta:g})") from exc
        a00, a01 = 1.0 - half * di[0], -half * up[0]  # row 0; D = 1 on nodes 0 and first
        # every window end short of n is a lattice node, so it leaves at least
        # WINDOW_LATTICE - first coupled nodes in the window: over the rest, q
        # bounds |e| and d_min bounds d from below
        q = float(np.max(np.abs(e[WINDOW_LATTICE - first - 1:]), initial=0.0))
        d_min = float(np.min(d[WINDOW_LATTICE - first:], initial=np.inf))
        if q >= 1.0:  # no decay to bound the tail by: solve on every node
            end = n
        bound = q / (d_min * (1.0 - q * q)) if q < 1.0 else 0.0
        d = 0.5 * d  # dpttrs on the halved d returns twice the solve, exactly

        def solve2(v):
            nonlocal end
            x = buffers[v is buffers[0]]
            while True:
                k = end - first
                x[first:end] = v[first:end]
                x[first:end] = dpttrs(d[:k], e[:k - 1], x[first:end],
                                      overwrite_b=True)[0]  # no-op copy when in place
                # the halved d times the doubled x: the bound on the plain solve
                if end == n or bound * d[k - 1] * abs(x[end - 1]) < floor:
                    break
                end = min(end + WINDOW_LATTICE, n)  # v is 0 from the old end on
            if first:
                x[0] = (2.0 * v[0] - a01 * x[1]) / a00
            return x

        return solve2

    mass_w = grid.volume_weights()[:n] / scale
    # the hole flux omega a^(N-1) du/dn on u = v / D, du/dn = -du/dr
    flux_w = np.zeros(n)
    if grid.a > 0.0:
        omega_a = sphere_surface_area(grid.dim) * grid.a ** (grid.dim - 1)
        if dirichlet_hole:  # one-sided second-order du/dr at r = a
            flux_w[:3] = omega_a * np.array([3.0, -4.0, 1.0]) / (2.0 * grid.h) / scale[:3]
        else:  # Robin/Neumann: the condition itself gives du/dn = -b u(a) exactly
            flux_w[0] = -omega_a * theta.robin_b / scale[0]

    def to_field(v, t):
        u = np.zeros(n + 1)
        u[:n] = v / scale
        return Field(grid, u, t).lock()

    return march(v0, stops, factor, mass_w, flux_w, to_field, "radial",
                 snap_times)


def evolve_radial(theta: ThetaBoundary, u0: Field, cfg: StepperConfig):
    """Evolve a radial datum on the truncated exterior domain, which is its
    grid: [a, r_out] with the ball hole of radius a > 0, r_out >= 4 a
    (`domain.check_exterior`).

    Returns (snapshots, ledger). Snapshots are immutable Fields at
    exactly cfg.snapshot_times, on the stops of `StepperConfig.stops`; the
    ledger holds a (t, mass, hole flux) row at t = 0 and after every step.
    """
    grid = u0.grid
    if not isinstance(grid, RadialGrid):
        raise PreconditionError("evolve_radial requires a Field on a RadialGrid")
    check_exterior(grid.dim, grid.hole, grid.r_out)
    stops = cfg.stops(radial_stiffness(grid, theta), grid.spacing)
    return _crank_nicolson_run(grid, theta, u0.values, stops, cfg.snapshot_times)


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
    theta = ThetaBoundary(1.0)
    stops = cfg.stops(radial_stiffness(grid, theta), grid.spacing)
    return _crank_nicolson_run(grid, theta, u0.values, stops, cfg.snapshot_times)
