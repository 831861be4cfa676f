import numpy as np
import pytest

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.errors import GeometryError, PreconditionError
from heatext.presets import make_planar_datum
from heatext.solver import (
    Field,
    PlanarGrid,
    StepperConfig,
    evolve_planar,
    mass_balance_residual,
)

DIRICHLET = ThetaBoundary(0.0)
NEUMANN = ThetaBoundary(1.0)


def _setup(half_width=12.0, n=96, hole=None):
    hole = hole or RectHole(1.0, 1.0)
    return PlanarGrid(half_width=half_width, n=n, hole=hole)


@pytest.fixture(scope="module")
def dirichlet_run():
    grid = _setup()
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.125, snapshot_times=(1.0, 5.0, 10.0))
    snaps, ledger = evolve_planar(DIRICHLET, u0, cfg)
    return grid, u0, snaps, ledger


def test_dirichlet_mass_strictly_decreasing(dirichlet_run):
    _, _, _, ledger = dirichlet_run
    t, m, f = ledger.as_arrays()
    assert np.all(np.diff(m) < 0.0)
    assert m[-1] / m[0] < 0.9  # substantial absorption for a bump near the hole
    assert np.all(f <= 0.0)


def test_dirichlet_balance_residual(dirichlet_run):
    # the ledger flux counts hole faces only; far-edge leakage is below
    # the tolerance for this compact datum and horizon
    _, _, _, ledger = dirichlet_run
    assert mass_balance_residual(ledger) <= 2e-3


def test_positivity_and_contraction(dirichlet_run):
    _, _, snaps, _ = dirichlet_run
    sups = []
    for s in snaps:
        assert float(np.min(s.values)) >= -1e-12
        sups.append(float(np.max(s.values)))
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))


def test_neumann_mass_conserved():
    # horizon sized so the far-edge Gaussian tail sits below the tolerance
    grid = _setup(half_width=16.0, n=128)
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.125, snapshot_times=(2.0,))
    _, ledger = evolve_planar(NEUMANN, u0, cfg)
    t, m, f = ledger.as_arrays()
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-4
    assert np.all(f == 0.0)


def test_robin_between_dirichlet_and_neumann():
    grid = _setup()
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.125, snapshot_times=(5.0,))
    finals = {}
    for theta in (0.0, 0.5, 1.0):
        snaps, _ = evolve_planar(ThetaBoundary(theta), u0, cfg)
        finals[theta] = snaps[-1].values
    assert float(np.max(finals[0.0] - finals[0.5])) <= 1e-8
    assert float(np.max(finals[0.5] - finals[1.0])) <= 1e-8


def test_reflection_symmetry():
    # symmetric datum about the x axis with a symmetric hole stays symmetric
    grid = _setup(n=96)
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.25, snapshot_times=(2.0,))
    snaps, _ = evolve_planar(DIRICHLET, u0, cfg)
    v = snaps[-1].values
    assert float(np.max(np.abs(v - v[:, ::-1]))) <= 1e-12


def test_ball_hole_rasterised():
    grid = _setup(hole=BallHole(1.0))
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.125, snapshot_times=(2.0,))
    snaps, ledger = evolve_planar(DIRICHLET, u0, cfg)
    t, m, _ = ledger.as_arrays()
    assert m[-1] < m[0]
    assert np.all(snaps[-1].values[grid.hole_mask()] == 0.0)


def test_datum_on_hole_rejected():
    grid = _setup()
    vals = np.ones((grid.n + 1, grid.n + 1))
    cfg = StepperConfig(dt=0.125, snapshot_times=(1.0,))
    with pytest.raises(PreconditionError):
        evolve_planar(DIRICHLET, Field(grid, vals), cfg)


def test_accuracy_guard():
    grid = _setup()
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=1.0, snapshot_times=(1.0,))  # dt > h = 0.25
    with pytest.raises(PreconditionError):
        evolve_planar(DIRICHLET, u0, cfg)


@pytest.mark.parametrize("half_width, ok", [(5.5, False), (6.0, True)])
def test_grid_is_the_truncated_domain(half_width, ok):
    # the half width is the far radius, at least 4x the hole's circumscribed
    # radius sqrt(2) (5.66)
    grid = PlanarGrid(half_width=half_width, n=44, hole=RectHole(1.0, 1.0))
    u0 = Field(grid, np.zeros(grid.shape))
    cfg = StepperConfig(dt=0.125, snapshot_times=(0.25,))
    if ok:
        evolve_planar(DIRICHLET, u0, cfg)
    else:
        with pytest.raises(GeometryError, match="at least 4x"):
            evolve_planar(DIRICHLET, u0, cfg)
