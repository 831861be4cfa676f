"""The Crank-Nicolson march shared by the radial, planar and axisymmetric solvers.

A solver supplies solve(b) = (I - dt/2 L)^{-1} b for its operator L, the
mass and hole-flux functionals of its ledger, and the map from the
unknown vector to a snapshot Field. `march` owns everything else: the
step, the ledger rows, the snapshot steps and the finiteness checks. With
A = I - dt/2 L the right-hand side matrix is B = I + dt/2 L = 2I - A, so
the step u+ = A^{-1} B u is u+ = 2 solve(u) - u and needs no matvec with L.

The radial solver builds its own symmetric tridiagonal solve
(`fastsolve.symmetric_factor`) and marches in a scaled variable. The
planar and axisymmetric solvers share `march_masked`, which does all of a
masked-grid run from the grid's stencil: the datum checks, the hole-flux
weights, the `fastsolve.MaskedCNSolve` build and the march.
"""

import numpy as np

from ..errors import NumericalError, PreconditionError
from .fastsolve import MaskedCNSolve
from .grids import Field, hole_weights
from .ledger import MassLedger

CHECK_EVERY = 200  # steps between finiteness checks of the march


def march(u, cfg, solve, mass, flux, to_field, what):
    """Advance u through cfg.n_steps Crank-Nicolson steps; returns (snapshots, ledger).

    Ledger rows (t, mass(u), flux(u)) are written at t = 0, every
    ledger_stride-th step, the last step and every snapshot step;
    to_field(u, t) builds each locked snapshot. Values are checked for
    finiteness every CHECK_EVERY steps and at the end; `what` names the
    evolution in the error.
    """
    dt = cfg.dt
    n_steps = cfg.n_steps
    snap_steps = cfg.snapshot_steps()
    ledger = MassLedger()
    ledger.append(0.0, mass(u), flux(u))
    snaps = [to_field(u, 0.0)] if 0 in snap_steps else []
    for k in range(1, n_steps + 1):
        u = 2.0 * solve(u) - u
        if k % CHECK_EVERY == 0 and not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite values in {what} evolution", step=k)
        if k % cfg.ledger_stride == 0 or k == n_steps or k in snap_steps:
            ledger.append(k * dt, mass(u), flux(u))
        if k in snap_steps:
            snaps.append(to_field(u, k * dt))
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite values in {what} evolution", step=n_steps)
    return snaps, ledger


def march_masked(grid, u0, ghost, cfg, what):
    """march a datum on a PlanarGrid or AxisymGrid; returns (snapshots, ledger).

    The datum must have the grid's node shape, be finite and vanish on the
    hole nodes; only its active-node values enter. ghost is the hole ghost
    factor of `grids.hole_ghost`. The mass is the volume-weighted sum over
    the active nodes and the ledger flux is the hole flux
    `grids.hole_weights` . u.
    """
    active, hole = grid.active_mask(), grid.hole_mask()
    values = np.asarray(u0.values, dtype=float)
    if values.shape != active.shape:
        raise PreconditionError("datum shape does not match the grid")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(values))))
    if np.any(np.abs(values[hole]) > 1e-9 * scale):
        raise PreconditionError("datum must vanish on hole nodes")
    w_vec = grid.volume_weights()[active]
    hole_w = hole_weights(grid, ghost)
    solve = MaskedCNSolve(active, hole, grid.stencil(), ghost, cfg.dt)

    def to_field(u_vec, t):
        full = np.zeros(active.shape)
        full[active] = u_vec
        return Field(grid, full, t).lock()

    return march(values[active], cfg, solve,
                 lambda u: float(np.sum(w_vec * u)),
                 lambda u: float(hole_w @ u), to_field, what)
