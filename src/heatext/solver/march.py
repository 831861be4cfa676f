"""The Crank-Nicolson march shared by the radial, planar and axisymmetric solvers.

A solver supplies one step u -> u+ of the scheme (its operator and its
factorisation live in the solver module), the mass and hole-flux
functionals of its ledger, and the map from the unknown vector to a
snapshot Field. `march` owns everything else: the ledger rows, the
snapshot steps and the finiteness checks.
"""

import numpy as np
import scipy.sparse as sp

from ..errors import NumericalError
from .grids import Field
from .ledger import MassLedger


def march(u, cfg, step, mass, flux, to_field, what):
    """Advance u through cfg.n_steps calls of step; returns (snapshots, ledger).

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
        u = step(u)
        if k % cfg.check_every == 0 and not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite values in {what} evolution", step=k)
        if k % cfg.ledger_stride == 0 or k == n_steps or k in snap_steps:
            ledger.append(k * dt, mass(u), flux(u))
        if k in snap_steps:
            snaps.append(to_field(u, k * dt))
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite values in {what} evolution", step=n_steps)
    return snaps, ledger


def march_masked(grid, values, L, hole_w, cfg, factor, what):
    """march on the active nodes of a masked grid with a sparse operator L.

    values is the full node array, zero off the active nodes; hole_w are
    the operator's hole-flux weights, so the ledger flux is hole_w . u.
    factor is the sparse LU routine, passed in by the solver module; the
    matrix I - dt/2 L is factored once and reused by every step. The mass
    is the volume-weighted sum over the active nodes.
    """
    active = grid.active_mask()
    n = L.shape[0]
    dt = cfg.dt
    A = (sp.identity(n, format="csr") - 0.5 * dt * L).tocsc()
    B = (sp.identity(n, format="csr") + 0.5 * dt * L).tocsr()
    try:
        lu = factor(A)
    except RuntimeError as exc:  # singular factorisation
        raise NumericalError(f"sparse factorisation failed: {exc}")
    w_vec = grid.volume_weights()[active]

    def to_field(u_vec, t):
        full = np.zeros_like(values)
        full[active] = u_vec
        return Field(grid, full, t).lock()

    return march(values[active], cfg, lambda u: lu.solve(B @ u),
                 lambda u: float(np.sum(w_vec * u)),
                 lambda u: float(hole_w @ u), to_field, what)
