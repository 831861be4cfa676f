"""The Crank-Nicolson march shared by the radial, planar and axisymmetric solvers.

A run is a list of stops (time, step cap). The march covers the interval
before each stop in `step_count` equal steps and lands on its time
exactly. It builds a snapshot Field only at the stops whose times are
the run's snapshot times: an evolution's ladder stops and a kernel
probe's warm-up end take none. A solver
supplies factor(dt), returning solve(b) = (I - dt/2 L)^{-1} b for its
operator L (called once per distinct step size), the mass and hole-flux
weight vectors of its ledger, fixed before the first step, and the map
from the unknown vector to a snapshot Field. `march` owns everything
else: the step, the ledger rows (one at t = 0 and one after every step,
each the dot products of the weight vectors with the unknown vector),
the snapshots and the finiteness checks. With A = I - dt/2 L the
right-hand side matrix is B = I + dt/2 L = 2I - A, so the step
u+ = A^{-1} B u is u+ = 2 solve(u) - u and needs no matvec with L.
solve may return a buffer that it reuses on a later call, but never its
argument: the march forms 2 solve(u) - u in place in the returned array,
which then becomes u, so a step allocates no vector of its own.

The radial solver builds its own symmetric tridiagonal solve
(`fastsolve.symmetric_factor`) and marches in a scaled variable. The
planar and axisymmetric solvers share `march_masked`, which does all of a
masked-grid run from the grid's stencil: `check_run`, the hole-flux
weights, the box operator's joint eigenbasis (`fastsolve.SineModes`,
built once per run), the `fastsolve.MaskedCNSolve` builds (one per step
size: a diagonal inverse and a capacitance LU) and the march, which runs
on the eigenbasis's mode vectors: a step is an elementwise multiply plus
a rank-r capacitance correction, with no transform, and the values are
read back only at the snapshots.

`check_run` is the one run contract. Both grid-level runs,
`radial._crank_nicolson_run` and `march_masked`, check it once before the
first step, so every evolution and both kernel-probe paths do: the datum
is finite and vanishes (to 1e-9 of its size) on the nodes the scheme
pins, which then enter as exactly 0; stop times strictly increase from
t >= 0; the accuracy guard: each step cap lies in
(0, max(h, GROWTH t_prev)], h the grid spacing and t_prev the stop before
it (0 for the first). So the first cap is at most h, and the caps grow no
faster than `config.graded_stops` lets them; the step budget: the stops
take at most MAX_STEPS steps. The entry points check the grid against the
domain, and `StepperConfig.stops` checks dt against h.
"""

import math

import numpy as np

from ..errors import NumericalError, PreconditionError
from .config import GROWTH
from .fastsolve import MaskedCNSolve, SineModes, capacitance_nodes
from .grids import Field, hole_links, hole_weights
from .ledger import MassLedger

CHECK_EVERY = 200  # steps between finiteness checks of the march
# The most steps one run may take, 50 times the 20 000 of a kernel probe to
# t = 1 000 at its cap 0.05; the longest run of the tests takes 4 701 steps,
# of the demos 1 885 and of the benchmark 1 060. Only the start-up's damping
# rule asks for more, when the Robin hole row's b = cot(pi theta/2) is huge:
# a radial run to t = 2 would take 2.6e7 steps at theta = 1e-12 and 2.8e16
# at theta = 1e-30, with a ledger row per step. 10^6 steps on the sweep's
# 4 207-node radial grid take about 36 s on a 2-core x86 VM (36 us a step,
# timed over 2 * 10^5 steps of a theta = 1e-12 run to t = 2).
MAX_STEPS = 10 ** 6


def step_count(span: float, cap: float) -> int:
    """Fewest equal steps no larger than cap that cover span (0 for span 0);
    a span within round-off (1e-9 relative) of n caps takes n steps."""
    return math.ceil(span / cap * (1.0 - 1e-9))


def check_run(values, hole, edge, stops, spacing):
    """Check the run contract; returns the datum as a new float array that
    is exactly 0 on the pinned nodes hole and edge (masks or index lists)."""
    values = np.array(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("initial datum contains non-finite values")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    for pinned, where in ((hole, "hole nodes"), (edge, "far-edge nodes")):
        if np.any(np.abs(values[pinned]) > tol):
            raise PreconditionError(f"datum must vanish on {where} (to {tol:.1e})")
        values[pinned] = 0.0
    times, caps = [t for t, _ in stops], [c for _, c in stops]
    if times != sorted(set(times)) or not all(0.0 <= t < math.inf for t in times):
        raise PreconditionError(f"stop times must strictly increase from t >= 0, got {times}")
    for t_prev, cap in zip([0.0] + times, caps):
        bound = max(spacing, GROWTH * t_prev)
        if not 0.0 < cap <= bound * (1.0 + 1e-12):
            raise PreconditionError(f"accuracy guard: the step cap {cap:g} after "
                                    f"t = {t_prev:g} must lie in (0, {bound:g}]")
    steps = sum(step_count(t - t_prev, cap) for t_prev, (t, cap) in zip([0.0] + times, stops))
    if steps > MAX_STEPS:
        raise PreconditionError(f"step budget: the stops take {steps:.3g} steps, more than "
                                f"{MAX_STEPS:.0e}")
    return values


def march(u, stops, factor, mass_w, flux_w, to_field, what, snap_times):
    """Advance u from t = 0 through the stops; returns (snapshots, ledger).

    stops are (time, cap) pairs with increasing times. to_field(u, t)
    builds the locked snapshot taken at every stop whose time is in
    snap_times. A ledger row (t, mass_w . u, flux_w . u) is written at
    t = 0 and after every step, at the stop's own time after its last step.
    Values are checked for finiteness every CHECK_EVERY steps and at the
    end; `what` names the evolution in the error.
    """
    plan, t_prev = [], 0.0  # (t_prev, t_stop, steps, dt) of each stop
    for t_stop, cap in stops:
        n = step_count(t_stop - t_prev, cap)
        plan.append((t_prev, t_stop, n, (t_stop - t_prev) / n if n else 0.0))
        t_prev = t_stop
    last = {dt: i for i, (*_, dt) in enumerate(plan)}  # a solver is freed after its last stop
    solvers = {}
    ledger = MassLedger()
    ledger.append(0.0, mass_w @ u, flux_w @ u)
    snaps, k = [], 0
    for i, (t_prev, t_stop, n, dt) in enumerate(plan):
        if n and dt not in solvers:
            solvers[dt] = factor(dt)
        for j in range(1, n + 1):
            x = solvers[dt](u)
            x *= 2.0
            x -= u
            u = x
            k += 1
            if k % CHECK_EVERY == 0 and not np.all(np.isfinite(u)):
                raise NumericalError(f"non-finite values in {what} evolution", step=k)
            ledger.append(t_stop if j == n else t_prev + j * dt, mass_w @ u, flux_w @ u)
        if last[dt] == i:
            solvers.pop(dt, None)
        if t_stop in snap_times:
            snaps.append(to_field(u, t_stop))
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite values in {what} evolution", step=k)
    return snaps, ledger


def march_masked(grid, u0, ghost, stops, what, snap_times):
    """march a datum on a PlanarGrid or AxisymGrid; returns (snapshots, ledger).

    snap_times is that of `march`. The hole and outer-edge nodes are
    pinned (`check_run`); only the datum's active-node values enter. ghost
    is the hole ghost factor of `grids.hole_ghost`. The mass is the
    volume-weighted sum over the active nodes and the ledger flux is the
    hole flux `grids.hole_weights` . u. The run walks `grids.hole_links`
    once, for those weights and for the capacitance nodes of every solver
    build (`fastsolve.capacitance_nodes`). The march runs on the mode
    vectors of `fastsolve.SineModes`, the box's eigenbasis, which the run
    computes once and every step size's `fastsolve.MaskedCNSolve` shares:
    both functionals are dot products with their mode vectors, and values
    are read back only at the snapshots.
    """
    active, hole = grid.active_mask(), grid.hole_mask()
    check_run(u0.values, hole, grid.edge_mask(), stops, grid.spacing)
    stencil = grid.stencil()
    modes = SineModes(active, stencil)
    mass_w = modes.functional(grid.volume_weights()[active])
    links = hole_links(active, hole, stencil)
    flux_w = modes.functional(hole_weights(grid, ghost, links))
    cap_nodes = capacitance_nodes(links, ghost)
    del links  # the march holds the capacitance nodes' indices, not full-grid arrays

    def factor(dt):
        return MaskedCNSolve(modes, hole, ghost, dt, cap_nodes).solve_modes

    def to_field(u_modes, t):
        full = np.zeros(active.shape)
        full[active] = modes.from_modes(u_modes)
        return Field(grid, full, t).lock()

    return march(modes.to_modes(u0.values[active]), stops, factor, mass_w, flux_w,
                 to_field, what, snap_times)
