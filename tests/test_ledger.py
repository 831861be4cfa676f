"""Every run path's ledger against its own snapshots.

A march writes one ledger row at t = 0 and one after every step. At each
stop the row's mass must be the snapshot's own integral, and on the radial
path the row's hole flux must be the documented formula evaluated on the
unscaled snapshot: omega a^(N-1) du/dn at r = a, with the one-sided
second-order du/dr under Dirichlet and du/dn = -b u(a) under Robin and
Neumann.
"""

import numpy as np
import pytest

from heatext.constructions import ball_eigenfunction
from heatext.domain import BallHole, RectHole, ThetaBoundary, sphere_surface_area
from heatext.presets import make_planar_datum, make_radial_datum
from heatext.solver import (
    AxisymGrid,
    Field,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_axisym,
    evolve_ball,
    evolve_planar,
    evolve_radial,
    kernel_probe,
    mollifier_bump,
)
from heatext.solver.grids import stiffness
from heatext.solver.march import step_count
from heatext.solver.radial import radial_stiffness

TOL = 1e-12
CFG = StepperConfig(dt=1.0 / 16.0, snapshot_times=(0.5, 2.0))


def _steps(stops):
    t_prev, n = 0.0, 0
    for t, cap in stops:
        n += step_count(t - t_prev, cap)
        t_prev = t
    return n


def _run(kind):
    """(snapshots, ledger, stops, theta or None) of one run path."""
    if kind.startswith("radial"):
        theta = ThetaBoundary(float(kind.split()[-1]))
        grid = RadialGrid(a=1.0, r_out=9.0, n_r=128, dim=3)
        u0 = make_radial_datum("gaussian-bump:4,1", grid, theta)
        snaps, ledger = evolve_radial(theta, u0, CFG)
        return snaps, ledger, CFG.stops(radial_stiffness(grid, theta), grid.spacing), theta
    if kind == "ball":
        grid = RadialGrid(a=0.0, r_out=1.0, n_r=64, dim=3)
        u0 = Field(grid, ball_eigenfunction(grid.nodes()))
        cfg = StepperConfig(dt=1.0 / 256.0, snapshot_times=(0.05, 0.2))
        snaps, ledger = evolve_ball(1.0, u0, cfg)
        return snaps, ledger, cfg.stops(radial_stiffness(grid, ThetaBoundary(1.0)),
                                        grid.spacing), None
    if kind == "planar":
        grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
        u0 = make_planar_datum("gaussian-bump:2.5,0.5,1", grid)
        snaps, ledger = evolve_planar(ThetaBoundary(0.5), u0, CFG)
        return snaps, ledger, CFG.stops(stiffness(grid), grid.spacing), None
    if kind == "axisym":
        grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
        R, Z = grid.meshgrid()
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 2.5) ** 2), 1.0)
        u0[grid.hole_mask() | grid.edge_mask()] = 0.0
        snaps, ledger = evolve_axisym(ThetaBoundary(0.0), Field(grid, u0), CFG)
        return snaps, ledger, CFG.stops(stiffness(grid), grid.spacing), None
    times = (0.5, 1.0)
    if kind == "whole-space probe":
        probe = kernel_probe(None, 0.0, 0.5, times, n_r=256)
    else:
        probe = kernel_probe(BallHole(1.0), 3.0, 0.5, times, n_rho=32, n_z=64)
    cap = min(0.05, probe.snapshots[0].grid.spacing)
    return probe.snapshots, probe.ledger, (probe.warmup,) + tuple((t, cap) for t in times), None


def _radial_flux(snap, theta):
    """(omega a^(N-1) du/dn at r = a on the snapshot, the size of its terms)."""
    grid, u = snap.grid, snap.values
    omega_a = sphere_surface_area(grid.dim) * grid.a ** (grid.dim - 1)
    if theta.is_dirichlet:
        terms = omega_a * np.array([3.0, -4.0, 1.0]) * u[:3] / (2.0 * grid.h)
    else:
        terms = np.array([-omega_a * theta.robin_b * u[0]])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


RUN_PATHS = ["radial 0", "radial 0.5", "radial 1", "ball", "planar", "axisym",
             "whole-space probe", "exterior probe"]


@pytest.mark.parametrize("kind", RUN_PATHS)
def test_every_ledger_row_matches_its_run(kind):
    snaps, ledger, stops, theta = _run(kind)
    t, m, f = ledger.as_arrays()
    # a row at t = 0 and one after every step, at increasing times
    assert len(ledger) == _steps(stops) + 1
    assert t[0] == 0.0 and np.all(np.diff(t) > 0.0) and t[-1] == stops[-1][0]
    if kind in ("ball", "whole-space probe", "radial 1"):
        assert not np.any(f)  # no hole, or a Neumann one: no hole flux
    for snap in snaps:
        row = ledger.times.index(snap.time)
        want = snap.integral()
        assert abs(m[row] - want) <= TOL * abs(want)
        if theta is not None:
            flux, size = _radial_flux(snap, theta)
            assert abs(f[row] - flux) <= TOL * size
