import math
import re

import numpy as np
import pytest

from heatext.domain import BallHole, ThetaBoundary
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
from heatext.solver.axisym import _axisym_run
from heatext.solver.config import WARMUP_DAMPING, warmup_steps
from heatext.solver.march import step_count
from heatext.solver.radial import radial_operator

DIRICHLET = ThetaBoundary(0.0)


def _mode_factor(lam, t0, n):
    """|CN amplification|^n of the mode with eigenvalue lam over n equal
    steps covering [0, t0]."""
    x = lam * t0 / n
    return (abs(1.0 - 0.5 * x) / (1.0 + 0.5 * x)) ** n


def _axisym_lam_bar(grid):
    lo0, up0, lo1, up1 = grid.stencil()
    return 2.0 * (float(np.max(lo0 + up0)) + float(np.max(lo1 + up1)))


def _warmup_contract(lam_bar, warmup):
    """The probe's warm-up stop damps the grid's stiffest mode by WARMUP_DAMPING;
    returns its step count."""
    t0, cap = warmup
    n = step_count(t0, cap)
    assert _mode_factor(lam_bar, t0, n) <= WARMUP_DAMPING
    return n


def test_warmup_steps_damp_the_stiff_modes():
    # the damping rule by plain arithmetic: N steps over [0, t0 = 1] leave
    # every mode from ln(1/eps) up to lam_bar with at most eps of its amplitude
    for lam_bar in np.geomspace(10.0, 1e8, 29):
        n = warmup_steps(lam_bar, 1.0)
        assert n >= 8
        for lam in np.geomspace(math.log(1.0 / WARMUP_DAMPING), lam_bar, 200):
            assert _mode_factor(lam, 1.0, n) <= WARMUP_DAMPING * (1.0 + 1e-12)


HOLE = BallHole(1.0)


def test_free_space_probe_matches_kernel_peak():
    # hole disabled: the probe must reproduce the free-space kernel at the
    # peak to 1e-3 relative (exact kernel is the oracle)
    probe = kernel_probe(None, 0.0, 0.09, (1.0,), n_r=4096, pad=8.0)
    peak = probe.peak(1.0)
    exact = gaussian_value(0.0, GaussianParams(3, 1.0))
    assert abs(peak - exact) / exact <= 1e-3
    # the warm-up is sized by the stiffest row, the parity row 12 / h^2
    lo, di, up = radial_operator(probe.snapshots[0].grid, ThetaBoundary(1.0))
    lam_bar = float(np.max(np.abs(lo) + np.abs(di) + np.abs(up)))
    assert _warmup_contract(lam_bar, probe.warmup) == 678


def test_probe_warmup_matches_the_fine_warmup():
    # on the benchmark's 96 x 192 grid the damping warm-up takes 40 steps
    # (the regular cap 0.05 binds) and lands within 1e-4 in L1 of a run
    # whose warm-up takes 512 steps of w^2 / 64
    w, y, times = 0.5, 3.0, (5.0, 10.0)
    probe = kernel_probe(HOLE, y, w, times, n_rho=96, n_z=192)
    grid = probe.snapshots[0].grid
    assert _warmup_contract(_axisym_lam_bar(grid), probe.warmup) == 40
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - y) ** 2), w)
    u0[grid.hole_mask()] = 0.0
    u0 /= float(np.sum(grid.volume_weights() * u0))
    t0 = probe.warmup[0]
    stops = ((t0, w ** 2 / 64.0),) + tuple((t, 0.05) for t in times)
    fine, _ = _axisym_run(grid, Field(grid, u0), stops, [t for t, _ in stops])
    for snap in fine[1:]:
        diff = np.abs(snap.values - probe.snapshot_at(snap.time).values)
        assert float(np.sum(grid.volume_weights() * diff)) <= 1e-4


def test_c11_probe_warmup_steps(kernel_probe_matrix):
    probe = kernel_probe_matrix[0][3.0]
    assert _warmup_contract(_axisym_lam_bar(probe.snapshots[0].grid), probe.warmup) == 73


def test_probe_unit_mass_and_mass_loss():
    probe = kernel_probe(HOLE, 3.0, 0.5, (5.0,), n_rho=128, n_z=256)
    t, m, _ = probe.ledger.as_arrays()
    assert m[0] == pytest.approx(1.0, abs=1e-12)
    assert m[-1] < 1.0  # Dirichlet absorption


def test_probe_dominated_by_free_space_kernel():
    # the exterior solution sits below the free-space kernel up to the
    # staircase/scheme error band at this resolution (O(h^2), h ~ 0.15)
    probe = kernel_probe(HOLE, 3.0, 0.5, (5.0,), n_rho=128, n_z=256)
    s = probe.snapshot_at(5.0)
    grid = s.grid
    R, Z = grid.meshgrid()
    d = np.sqrt(R ** 2 + (Z - 3.0) ** 2)
    g = gaussian_value(d, GaussianParams(3, 5.0))
    tol = 0.05 * float(np.max(g))
    assert np.all(s.values <= g + tol)


def test_probe_z_symmetry_without_hole():
    # source on the symmetry plane of a hole-free axisymmetric grid
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=96, n_z=192, hole=None)
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + Z ** 2), 0.5)
    snaps, _ = _axisym_run(grid, Field(grid, u0), ((1.0, 0.05),), (1.0,))
    v = snaps[-1].values
    assert float(np.max(np.abs(v - v[:, ::-1]))) <= 1e-12


def test_probe_reflected_source():
    # sources at +z0 and -z0 give mirror-image solutions (the hole is
    # centred, so the discrete operator commutes with z -> -z)
    grid = AxisymGrid(rho_max=10.0, z_half=10.0, n_rho=96, n_z=192,
                      hole=BallHole(1.0))
    R, Z = grid.meshgrid()
    w = grid.volume_weights()
    outs = {}
    for z0 in (3.0, -3.0):
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - z0) ** 2), 0.5)
        u0[grid.hole_mask()] = 0.0
        u0 /= float(np.sum(w * u0))
        snaps, _ = _axisym_run(grid, Field(grid, u0), ((2.0, 0.05),), (2.0,))
        outs[z0] = snaps[-1].values
    assert float(np.max(np.abs(outs[-3.0] - outs[3.0][:, ::-1]))) <= 1e-10


def test_probe_answers_at_the_requested_times():
    # 0.73 is not a whole number of main-phase steps after the warm-up;
    # the probe still stops there, and its ledger has a row at that time
    probe = kernel_probe(HOLE, 3.0, 0.5, (0.73, 10.0), n_rho=64, n_z=128)
    assert probe.snapshot_at(0.73).time == 0.73
    assert [s.time for s in probe.snapshots] == [0.73, 10.0]
    assert 0.73 in probe.ledger.times and probe.ledger.times[-1] == 10.0
    with pytest.raises(KeyError):
        probe.snapshot_at(0.7)


def test_probe_smearing_audit():
    # L1 distance between width-w and width-w/2 probes; at this coarse
    # resolution the estimate is representation-limited but still small
    # against the order-one L1 scale of the probes
    est = probe_smearing_estimate(HOLE, 3.0, 0.5, (2.0,),
                                  n_rho=128, n_z=256)
    assert est[2.0] < 0.25
    # a wider, well-resolved pair gives a tighter estimate
    est_wide = probe_smearing_estimate(HOLE, 3.0, 0.8, (2.0,),
                                       n_rho=128, n_z=256)
    assert est_wide[2.0] < 0.15


def test_gap_at_early_time_is_smearing_scale():
    # with the mollifier far from the hole and t small, both kernels
    # approximate the same point mass: the gap reduces to smearing
    from heatext.asymptotics import kernel_l1_gap
    probe = kernel_probe(HOLE, 6.0, 0.4, (0.5,), n_rho=192, n_z=384, pad=8.0)
    rep = kernel_l1_gap(probe, 0.5)
    assert rep.gap <= 0.1  # far below the ~0.33 bound at this source


def test_non_dirichlet_rejected():
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=32, n_z=64, hole=BallHole(1.0))
    u0 = Field(grid, np.zeros((33, 65)))
    with pytest.raises(UnsupportedFeatureError):
        evolve_axisym(ThetaBoundary(1.0), u0, StepperConfig(dt=0.05, snapshot_times=(0.5,)))


def test_source_too_close_rejected():
    with pytest.raises(PreconditionError):
        kernel_probe(HOLE, 1.5, 0.5, (1.0,))


def test_under_resolved_probe_rejected():
    # the grid spacing must not exceed the mollifier width: a far source
    # stretches the axisymmetric z-spacing, a coarse whole-space grid its h
    with pytest.raises(PreconditionError, match="exceeds the mollifier width"):
        kernel_probe(HOLE, 100.0, 0.5, (2.0,), n_rho=96, n_z=192)
    with pytest.raises(PreconditionError, match="exceeds the mollifier width"):
        kernel_probe(None, 0.0, 0.09, (1.0,), n_r=64, pad=8.0)


@pytest.mark.parametrize("times", [(5.0, 5.0), (10.0, 5.0)])
def test_probe_times_must_strictly_increase(times):
    # a repeated time is not merged and an out-of-order list not sorted
    # without a word, on either probe path; the message lists the times
    # passed, not the stops with the warm-up before them
    message = re.escape(f"probe times must strictly increase, got {list(times)}")
    with pytest.raises(PreconditionError, match=message):
        kernel_probe(None, 0.0, 0.5, times, n_r=256)
    with pytest.raises(PreconditionError, match=message):
        kernel_probe(HOLE, 3.0, 0.5, times, n_rho=64, n_z=128)


def test_evolve_axisym_mass_decreases():
    grid = AxisymGrid(rho_max=10.0, z_half=10.0, n_rho=128, n_z=256,
                      hole=BallHole(1.0))
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 3.0) ** 2), 0.8)
    cfg = StepperConfig(dt=0.05, snapshot_times=(2.0,))
    snaps, ledger = evolve_axisym(DIRICHLET, Field(grid, u0), cfg)
    t, m, f = ledger.as_arrays()
    assert m[-1] < m[0]
    assert np.all(f <= 1e-15)
    assert float(np.min(snaps[-1].values)) >= -1e-12


@pytest.mark.parametrize("cap, ok", [(0.125, True), (0.2, False)])
def test_axisym_step_cap_must_not_exceed_the_finer_spacing(cap, ok):
    # h_z = 0.125 < cap = 0.2 < h_rho = 0.25: the cap exceeds one spacing
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=32, n_z=128, hole=BallHole(1.0))
    u0 = Field(grid, np.zeros(grid.shape))
    cfg = StepperConfig(dt=cap, snapshot_times=(cap,))
    if ok:
        evolve_axisym(DIRICHLET, u0, cfg)
    else:
        with pytest.raises(PreconditionError, match="accuracy guard"):
            evolve_axisym(DIRICHLET, u0, cfg)
