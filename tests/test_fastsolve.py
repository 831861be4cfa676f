"""The DST + capacitance solver against sparse LU, the masked marches it
drives against a reference march stepped by splu and B @ u, and the
symmetric tridiagonal factor they share with the radial march."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrs
from scipy.sparse.linalg import splu

from heatext.domain import BallHole, ExteriorDomain, RectHole, ThetaBoundary
from heatext.errors import NumericalError, PreconditionError
from heatext.presets import make_planar_datum
from heatext.solver import (
    AxisymGrid,
    Field,
    PlanarGrid,
    StepperConfig,
    evolve_axisym,
    evolve_planar,
    mollifier_bump,
)
from heatext.solver.fastsolve import MaskedCNSolve, symmetric_factor
from heatext.solver.grids import hole_ghost, hole_weights, masked_laplacian

TOL = 1e-12


def _operator(grid, ghost):
    """(L, hole_w) of a masked grid: its stencil assembled, its hole-flux weights."""
    L, _ = masked_laplacian(grid.active_mask(), grid.hole_mask(), grid.stencil(), ghost)
    return L, hole_weights(grid, ghost)


def _solver(grid, ghost, dt):
    return MaskedCNSolve(grid.active_mask(), grid.hole_mask(), grid.stencil(), ghost, dt)


def _planar_ghost(grid, theta):
    return hole_ghost(ThetaBoundary(theta), grid.h)


def _cn_matrices(L, dt):
    eye = sp.identity(L.shape[0], format="csr")
    return (eye - 0.5 * dt * L).tocsc(), (eye + 0.5 * dt * L).tocsr()


def _check_against_splu(L, solver, dt):
    A, _ = _cn_matrices(L, dt)
    lu = splu(A)
    rng = np.random.default_rng(11)
    for b in (rng.random(L.shape[0]), rng.standard_normal(L.shape[0])):
        want = lu.solve(b)
        got = solver(b)
        assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))
        assert np.max(np.abs(A @ got - b)) <= TOL * np.max(np.abs(b))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("hole", [RectHole(1.0, 1.0), BallHole(1.3), RectHole(2.1, 1.3)])
def test_planar_solve_matches_splu(theta, hole):
    grid = PlanarGrid(half_width=6.0, n=48, hole=hole)
    L, _ = _operator(grid, _planar_ghost(grid, theta))
    _check_against_splu(L, _solver(grid, _planar_ghost(grid, theta), 0.2), 0.2)


def test_capacitance_nodes_skip_the_hole_interior():
    # h = 0.25: the 2.1 x 1.3 hole has nodes that touch no active node
    grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(2.1, 1.3))
    hole = grid.hole_mask()
    touching = hole & (np.roll(~hole, 1, 0) | np.roll(~hole, -1, 0)
                       | np.roll(~hole, 1, 1) | np.roll(~hole, -1, 1))
    assert touching.sum() < hole.sum()
    assert _solver(grid, _planar_ghost(grid, 0.0), 0.2).rank == touching.sum()
    # Robin adds the active nodes next to the hole
    near = ~hole & (np.roll(hole, 1, 0) | np.roll(hole, -1, 0)
                    | np.roll(hole, 1, 1) | np.roll(hole, -1, 1))
    assert _solver(grid, _planar_ghost(grid, 0.5), 0.2).rank == touching.sum() + near.sum()


def test_planar_hole_benchmark_grid_ranks():
    grid = PlanarGrid(half_width=61.5, n=246, hole=RectHole(1.0, 1.0))
    assert int(grid.active_mask().sum()) == 60000
    assert _solver(grid, _planar_ghost(grid, 0.0), 0.25).rank == 16
    assert _solver(grid, _planar_ghost(grid, 0.5), 0.25).rank == 36


@pytest.mark.parametrize("hole_radius", [1.0, 0.0])
def test_axisym_solve_matches_splu(hole_radius):
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole_radius=hole_radius)
    L, _ = _operator(grid, 0.0)
    solver = _solver(grid, 0.0, 0.1)
    assert (solver.rank == 0) == (hole_radius == 0.0)
    _check_against_splu(L, solver, 0.1)


def _random_tridiagonal(rng, n, blocks):
    """Off-diagonals of one sign and diagonally dominant rows, so that the
    symmetrised matrices are positive definite."""
    lo, up = -rng.uniform(0.1, 2.0, n), -rng.uniform(0.1, 2.0, n)
    di = rng.uniform(1.0, 3.0, (blocks, n)) + np.abs(lo) + np.abs(up)
    return lo, di, up


@pytest.mark.parametrize("blocks", [1, 3])
def test_symmetric_factor_solves_the_tridiagonal(blocks):
    rng = np.random.default_rng(7)
    n = 40
    lo, di, up = _random_tridiagonal(rng, n, blocks)
    scale, d, e = symmetric_factor(lo, di if blocks > 1 else di[0], up)
    b = rng.standard_normal((blocks, n))
    x, info = dpttrs(d, e, (scale * b).ravel())
    assert info == 0
    x = x.reshape(blocks, n) / scale
    for k in range(blocks):
        A = np.diag(di[k]) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
        want = np.linalg.solve(A, b[k])
        assert np.max(np.abs(x[k] - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")  # fails before a sqrt of a negative number
@pytest.mark.parametrize("defect, message", [("zero", "coupling product"),
                                             ("sign", "coupling product"),
                                             ("nan", "coupling product"),
                                             ("inf", "coupling product"),
                                             ("indefinite", "positive definite")])
def test_symmetric_factor_fails_loudly(defect, message):
    lo, di, up = _random_tridiagonal(np.random.default_rng(8), 12, 1)
    if defect == "zero":
        lo[5] = 0.0
    elif defect == "sign":
        lo[5] = 0.5
    elif defect == "nan":
        up[4] = np.nan
    elif defect == "inf":
        up[4] = -np.inf
    else:
        di[0, 6] = -1.0
    with pytest.raises(NumericalError, match=message):
        symmetric_factor(lo, di, up)


@pytest.mark.parametrize("ghost", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_axisym_solve_matches_splu_at_random_radii(seed, ghost):
    # the rho stencil is not symmetric, so the stacked solve is scaled
    # (D != 1); ghost != 0 adds the active capacitance nodes next to the hole
    rng = np.random.default_rng(seed)
    radius, dt = rng.uniform(0.4, 3.5), rng.uniform(0.02, 0.3)
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole_radius=radius)
    L, _ = _operator(grid, ghost)
    _check_against_splu(L, _solver(grid, ghost, dt), dt)


def test_singular_capacitance_matrix_raises():
    # an active node whose four neighbours are all hole nodes, with a ghost
    # factor that makes its row of I - dt/2 L vanish: 1 + 0.25 (1 - g) 16 = 0
    active = np.zeros((12, 12), dtype=bool)
    active[1:-1, 1:-1] = True
    hole = np.zeros_like(active)
    for i, j in ((5, 6), (7, 6), (6, 5), (6, 7)):
        hole[i, j], active[i, j] = True, False
    c = np.full(12, 4.0)  # h = 0.5
    with pytest.raises(NumericalError, match="capacitance"):
        MaskedCNSolve(active, hole, (c, c, c, c), 1.25, 0.5)
    # the same links assembled sparsely: the row is exactly zero
    L, _ = masked_laplacian(active, hole, (c, c, c, c), 1.25)
    A, _ = _cn_matrices(L, 0.5)
    assert np.min(np.abs(A).sum(axis=1)) == 0.0


def _reference_march(values, L, hole_w, weights, cfg):
    """Crank-Nicolson stepped as u+ = splu(A).solve(B @ u)."""
    A, B = _cn_matrices(L, cfg.dt)
    lu = splu(A)
    u = values.copy()
    rows = [(0.0, weights @ u, hole_w @ u)]
    snaps = []
    snap_steps = cfg.snapshot_steps()
    for k in range(1, cfg.n_steps + 1):
        u = lu.solve(B @ u)
        rows.append((k * cfg.dt, weights @ u, hole_w @ u))
        if k in snap_steps:
            snaps.append(u.copy())
    return np.array(rows), snaps


def _check_march(grid, snaps, ledger, want_rows, want_snaps):
    got = np.column_stack(ledger.as_arrays())
    assert got.shape == want_rows.shape
    assert np.array_equal(got[:, 0], want_rows[:, 0])
    for col in (1, 2):
        scale = np.max(np.abs(want_rows[:, col]))
        assert np.max(np.abs(got[:, col] - want_rows[:, col])) <= TOL * scale
    active = grid.active_mask()
    assert len(snaps) == len(want_snaps)
    for s, want in zip(snaps, want_snaps):
        assert np.max(np.abs(s.values[active] - want)) <= TOL * np.max(np.abs(want))
        assert np.all(s.values[~active] == 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("hole", [RectHole(1.0, 1.0), BallHole(1.3)])
def test_planar_march_matches_splu_reference(theta, hole):
    grid = PlanarGrid(half_width=6.0, n=48, hole=hole)
    tb = ThetaBoundary(theta)
    u0 = make_planar_datum("gaussian-bump:2.5,0.5,1", grid)
    cfg = StepperConfig(dt=0.125, snapshot_times=(0.5, 2.0))
    snaps, ledger = evolve_planar(ExteriorDomain(2, hole, 6.0), tb, u0, cfg)
    L, hole_w = _operator(grid, hole_ghost(tb, grid.h))
    active = grid.active_mask()
    rows, want = _reference_march(u0.values[active], L, hole_w,
                                  grid.volume_weights()[active], cfg)
    _check_march(grid, snaps, ledger, rows, want)


def test_axisym_march_matches_splu_reference():
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole_radius=1.0)
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 2.5) ** 2), 1.0)
    u0[grid.hole_mask() | grid.edge_mask()] = 0.0
    cfg = StepperConfig(dt=0.1, snapshot_times=(0.5, 2.0))
    snaps, ledger = evolve_axisym(ExteriorDomain(3, BallHole(1.0), 6.0),
                                  ThetaBoundary(0.0), Field(grid, u0), cfg)
    L, hole_w = _operator(grid, 0.0)
    active = grid.active_mask()
    rows, want = _reference_march(u0[active], L, hole_w,
                                  grid.volume_weights()[active], cfg)
    _check_march(grid, snaps, ledger, rows, want)


def _masked_run(kind):
    """A grid and its evolve call, for the planar and the axisymmetric runs."""
    if kind == "planar":
        grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
        domain = ExteriorDomain(2, grid.hole, 6.0)
        return grid, lambda u0, cfg: evolve_planar(domain, ThetaBoundary(0.5), u0, cfg)
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole_radius=1.0)
    domain = ExteriorDomain(3, BallHole(1.0), 6.0)
    return grid, lambda u0, cfg: evolve_axisym(domain, ThetaBoundary(0.0), u0, cfg)


@pytest.mark.parametrize("defect, message", [("shape", "shape"),
                                             ("non-finite", "non-finite"),
                                             ("hole", "vanish on hole nodes")])
@pytest.mark.parametrize("kind", ["planar", "axisym"])
def test_masked_runs_check_the_datum(kind, defect, message):
    grid, run = _masked_run(kind)
    values = np.where(grid.active_mask(), 1.0, 0.0)
    if defect == "shape":
        values = values[:-1]
    elif defect == "non-finite":
        values[1, 1] = np.nan
    else:
        values[grid.hole_mask()] = 1e-3
    with pytest.raises(PreconditionError, match=message):
        run(Field(grid, values), StepperConfig(dt=0.1, snapshot_times=(0.2,)))
