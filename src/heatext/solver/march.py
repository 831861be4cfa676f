"""The Crank-Nicolson march shared by the radial, planar and axisymmetric solvers.

A solver supplies solve(b) = (I - dt/2 L)^{-1} b for its operator L (the
factorisation lives in the solver module), the mass and hole-flux
functionals of its ledger, and the map from the unknown vector to a
snapshot Field. `march` owns everything else: the step, the ledger rows,
the snapshot steps and the finiteness checks. With A = I - dt/2 L the
right-hand side matrix is B = I + dt/2 L = 2I - A, so the step
u+ = A^{-1} B u is u+ = 2 solve(u) - u and needs no matvec with L.
"""

import numpy as np

from ..errors import NumericalError
from .grids import Field
from .ledger import MassLedger


def march(u, cfg, solve, mass, flux, to_field, what):
    """Advance u through cfg.n_steps Crank-Nicolson steps; returns (snapshots, ledger).

    Ledger rows (t, mass(u), flux(u)) are written at t = 0, every
    ledger_stride-th step, the last step and every snapshot step;
    to_field(u, t) builds each locked snapshot. Values are checked for
    finiteness every check_every steps and at the end; `what` names the
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
        if k % cfg.check_every == 0 and not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite values in {what} evolution", step=k)
        if k % cfg.ledger_stride == 0 or k == n_steps or k in snap_steps:
            ledger.append(k * dt, mass(u), flux(u))
        if k in snap_steps:
            snaps.append(to_field(u, k * dt))
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite values in {what} evolution", step=n_steps)
    return snaps, ledger


def march_masked(grid, values, hole_w, cfg, solve, what):
    """march on the active nodes of a masked grid.

    values is the full node array, zero off the active nodes; hole_w are
    the operator's hole-flux weights, so the ledger flux is hole_w . u.
    solve is the once-built solver of I - dt/2 L over the active nodes
    (`fastsolve.MaskedCNSolve`). The mass is the volume-weighted sum over
    the active nodes.
    """
    active = grid.active_mask()
    w_vec = grid.volume_weights()[active]

    def to_field(u_vec, t):
        full = np.zeros_like(values)
        full[active] = u_vec
        return Field(grid, full, t).lock()

    return march(values[active], cfg, solve,
                 lambda u: float(np.sum(w_vec * u)),
                 lambda u: float(hole_w @ u), to_field, what)
