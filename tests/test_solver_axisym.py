import math

import numpy as np
import pytest

from heatext.domain import BallHole, ExteriorDomain, ThetaBoundary
from heatext.errors import PreconditionError, UnsupportedFeatureError
from heatext.gaussian import GaussianParams, gaussian_value
from heatext.solver import (
    AxisymGrid,
    Field,
    StepperConfig,
    evolve_axisym,
    kernel_probe,
    mollifier_bump,
    probe_smearing_estimate,
)

DIRICHLET = ThetaBoundary(0.0)


def _domain(t_max=5.0):
    return ExteriorDomain(3, BallHole(1.0),
                          1.0 + 6.0 * math.sqrt(4.0 * t_max))


def test_whole_space_probe_matches_kernel_peak():
    # hole disabled: the probe must reproduce the free-space kernel at the
    # peak to 1e-3 relative (exact kernel is the oracle)
    probe = kernel_probe(None, 0.0, 0.09, (1.0,), n_r=4096, pad=8.0)
    peak = probe.peak(1.0)
    exact = gaussian_value(0.0, GaussianParams(3, 1.0))
    assert abs(peak - exact) / exact <= 1e-3


def test_probe_unit_mass_and_mass_loss():
    probe = kernel_probe(_domain(), 3.0, 0.5, (5.0,), n_rho=128, n_z=256)
    t, m, _ = probe.ledger.as_arrays()
    assert m[0] == pytest.approx(1.0, abs=1e-12)
    assert m[-1] < 1.0  # Dirichlet absorption


def test_probe_dominated_by_free_space_kernel():
    # the exterior solution sits below the free-space kernel up to the
    # staircase/scheme error band at this resolution (O(h^2), h ~ 0.15)
    probe = kernel_probe(_domain(), 3.0, 0.5, (5.0,), n_rho=128, n_z=256)
    s = probe.snapshot_at(5.0)
    grid = s.grid
    R, Z = grid.meshgrid()
    d = np.sqrt(R ** 2 + (Z - 3.0) ** 2)
    g = gaussian_value(d, GaussianParams(3, 5.0))
    tol = 0.05 * float(np.max(g))
    assert np.all(s.values <= g + tol)


def test_probe_z_symmetry_without_hole():
    # source on the symmetry plane of a hole-free axisymmetric grid
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=96, n_z=192, hole_radius=0.0)
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + Z ** 2), 0.5)
    cfg = StepperConfig(dt=0.05, snapshot_times=(1.0,))
    from heatext.solver.axisym import _axisym_run
    snaps, _ = _axisym_run(grid, Field(grid, u0), cfg.stops())
    v = snaps[-1].values
    assert float(np.max(np.abs(v - v[:, ::-1]))) <= 1e-12


def test_probe_reflected_source():
    # sources at +z0 and -z0 give mirror-image solutions (the hole is
    # centred, so the discrete operator commutes with z -> -z)
    grid = AxisymGrid(rho_max=10.0, z_half=10.0, n_rho=96, n_z=192,
                      hole_radius=1.0)
    R, Z = grid.meshgrid()
    w = grid.volume_weights()
    cfg = StepperConfig(dt=0.05, snapshot_times=(2.0,))
    from heatext.solver.axisym import _axisym_run
    outs = {}
    for z0 in (3.0, -3.0):
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - z0) ** 2), 0.5)
        u0[grid.hole_mask()] = 0.0
        u0 /= float(np.sum(w * u0))
        snaps, _ = _axisym_run(grid, Field(grid, u0), cfg.stops())
        outs[z0] = snaps[-1].values
    assert float(np.max(np.abs(outs[-3.0] - outs[3.0][:, ::-1]))) <= 1e-10


def test_probe_answers_at_the_requested_times():
    # 0.73 is not a whole number of main-phase steps after the warm-up;
    # the probe still stops there, and its ledger has a row at that time
    probe = kernel_probe(_domain(10.0), 3.0, 0.5, (0.73, 10.0), n_rho=64, n_z=128)
    assert probe.snapshot_at(0.73).time == 0.73
    assert [s.time for s in probe.snapshots] == [0.73, 10.0]
    assert 0.73 in probe.ledger.times and probe.ledger.times[-1] == 10.0
    with pytest.raises(KeyError):
        probe.snapshot_at(0.7)


def test_probe_smearing_audit():
    # L1 distance between width-w and width-w/2 probes; at this coarse
    # resolution the estimate is representation-limited but still small
    # against the order-one L1 scale of the probes
    est = probe_smearing_estimate(_domain(2.0), 3.0, 0.5, (2.0,),
                                  n_rho=128, n_z=256)
    assert est[2.0] < 0.25
    # a wider, well-resolved pair gives a tighter estimate
    est_wide = probe_smearing_estimate(_domain(2.0), 3.0, 0.8, (2.0,),
                                       n_rho=128, n_z=256)
    assert est_wide[2.0] < 0.15


def test_gap_at_early_time_is_smearing_scale():
    # with the mollifier far from the hole and t small, both kernels
    # approximate the same point mass: the gap reduces to smearing
    from heatext.asymptotics import kernel_l1_gap
    from heatext.profiles import profile_radial_closed_form
    probe = kernel_probe(_domain(2.0), 6.0, 0.4, (0.5,), n_rho=192, n_z=384,
                         pad=8.0)
    prof = profile_radial_closed_form(3, 1.0, DIRICHLET)
    rep = kernel_l1_gap(probe, 0.5, prof)
    assert rep.gap <= 0.1  # far below the ~0.33 bound at this source


def test_non_dirichlet_rejected():
    dom = _domain()
    with pytest.raises(UnsupportedFeatureError):
        kernel_probe(dom, 3.0, 0.5, (1.0,), theta=ThetaBoundary(0.5))
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=32, n_z=64, hole_radius=1.0)
    u0 = Field(grid, np.zeros((33, 65)))
    with pytest.raises(UnsupportedFeatureError):
        evolve_axisym(ExteriorDomain(3, BallHole(1.0), 8.0), ThetaBoundary(1.0),
                      u0, StepperConfig(dt=0.05, snapshot_times=(0.5,)))


def test_source_too_close_rejected():
    with pytest.raises(PreconditionError):
        kernel_probe(_domain(), 1.5, 0.5, (1.0,))


def test_evolve_axisym_mass_decreases():
    dom = _domain(2.0)
    grid = AxisymGrid(rho_max=10.0, z_half=10.0, n_rho=128, n_z=256,
                      hole_radius=1.0)
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 3.0) ** 2), 0.8)
    cfg = StepperConfig(dt=0.05, snapshot_times=(2.0,))
    snaps, ledger = evolve_axisym(dom_for_grid(grid), DIRICHLET,
                                  Field(grid, u0), cfg)
    t, m, f = ledger.as_arrays()
    assert m[-1] < m[0]
    assert np.all(f <= 1e-15)
    assert float(np.min(snaps[-1].values)) >= -1e-12


def dom_for_grid(grid):
    return ExteriorDomain(3, BallHole(grid.hole_radius),
                          max(grid.rho_max, 4.0 * grid.hole_radius))
