"""Shared session fixtures: the heavy evolution runs reused across the
acceptance criteria."""

import math
import time
from dataclasses import dataclass

import pytest

from heatext.constructions import explicit_solution
from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.presets import make_planar_datum
from heatext.profiles import asymptotic_mass, profile_closed_form
from heatext.solver import (
    Field,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_planar,
    evolve_radial,
    kernel_probe,
)

H_ACC = 1.0 / 64.0
DT_ACC = 1.0 / 128.0


@dataclass
class RadialRun:
    grid: RadialGrid
    theta: ThetaBoundary
    u0: Field
    snapshots: list
    ledger: object
    m: float
    elapsed: float

    def snapshot_at(self, t):
        for s in self.snapshots:
            if abs(s.time - t) < 1e-9:
                return s
        raise KeyError(t)


def radial_explicit_run(t_max, snapshot_times, theta=ThetaBoundary(0.0),
                        r_out_scale=1.0, h=H_ACC, dt=DT_ACC):
    a = 1.0
    r_req = (a + 6.0 * math.sqrt(4.0 * t_max)) * r_out_scale
    n = int(math.ceil((r_req - a) / h))
    grid = RadialGrid(a=a, r_out=a + n * h, n_r=n, dim=3)
    vals = explicit_solution(grid.nodes(), 0.0)
    vals[-1] = 0.0
    u0 = Field(grid, vals, 0.0)
    cfg = StepperConfig(dt=dt, snapshot_times=tuple(snapshot_times))
    t0 = time.perf_counter()
    snaps, ledger = evolve_radial(theta, u0, cfg)
    elapsed = time.perf_counter() - t0
    profile = profile_closed_form(3, BallHole(a), theta)
    m = asymptotic_mass(u0, profile)
    return RadialRun(grid, theta, u0, snaps, ledger, m, elapsed)


@pytest.fixture(scope="session")
def run_t100():
    return radial_explicit_run(100.0, (1.0, 10.0, 100.0))


@pytest.fixture(scope="session")
def run_t200():
    return radial_explicit_run(200.0, (10.0, 20.0, 100.0, 200.0))


@pytest.fixture(scope="session")
def run_t100_audit():
    return radial_explicit_run(100.0, (1.0, 10.0, 100.0), r_out_scale=2.0)


@pytest.fixture(scope="session")
def run_t200_audit():
    return radial_explicit_run(200.0, (10.0, 20.0, 100.0, 200.0), r_out_scale=2.0)


@pytest.fixture(scope="session")
def neumann_t100():
    return radial_explicit_run(100.0, (100.0,), theta=ThetaBoundary(1.0))


@pytest.fixture(scope="session")
def theta_family_t10():
    return {theta: radial_explicit_run(10.0, (1.0, 10.0), theta=ThetaBoundary(theta))
            for theta in (0.0, 0.5, 1.0)}


@pytest.fixture(scope="session")
def planar_masloss_run():
    hole = RectHole(1.0, 1.0)
    h = 0.5
    t_max = 100.0
    r_req = hole.circumscribed_radius + 6.0 * math.sqrt(4.0 * t_max)
    n = 2 * int(math.ceil(r_req / h))
    grid = PlanarGrid(half_width=n * h / 2.0, n=n, hole=hole)
    u0 = make_planar_datum("gaussian-bump:3,0,1.5", grid)
    cfg = StepperConfig(dt=0.25, snapshot_times=(1.0, 10.0, 100.0))
    t0 = time.perf_counter()
    snaps, ledger = evolve_planar(ThetaBoundary(0.0), u0, cfg)
    elapsed = time.perf_counter() - t0
    return grid, u0, snaps, ledger, elapsed


@pytest.fixture(scope="session")
def kernel_probe_matrix():
    """Probes at |y| in {3, 6}, each with snapshots at t in {5, 10}."""
    a = 1.0
    t_max = 10.0
    out = {}
    t0 = time.perf_counter()
    for y in (3.0, 6.0):
        out[y] = kernel_probe(BallHole(a), y, 0.5, (5.0, 10.0), n_rho=256, n_z=512)
    elapsed = time.perf_counter() - t0
    return out, elapsed
