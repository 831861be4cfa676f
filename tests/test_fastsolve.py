"""The numpy DST-I against scipy's, column by column and in memory bounded
by its output, the box eigenbasis against the
symmetrised axis-0 tridiagonal, the eigenbasis + capacitance solver
against sparse LU, the masked marches it drives against reference
marches stepped by splu and B @ u and by the node-space solve, the
mode-space march's independence of the hole entries and its set-up
counts (solver builds, transforms, eigendecompositions and walks of the
hole links), the symmetric tridiagonal factor of the radial march, and
the SuperLU solve on the assembler's CSC arrays against scipy's spsolve."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dst
from scipy.linalg.lapack import dpttrs
from scipy.sparse.linalg import splu, spsolve

from heatext.domain import BallHole, ExteriorDomain, RectHole, ThetaBoundary
from heatext.errors import NumericalError, PreconditionError
from heatext.presets import make_planar_datum
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
    mollifier_bump,
)
from heatext.solver import fastsolve
from heatext.solver import grids as grids_module
from heatext.solver import march as march_module
from heatext.solver.axisym import _axisym_run
from heatext.solver.fastsolve import (
    MaskedCNSolve,
    SineModes,
    capacitance_nodes,
    dst1,
    symmetric_factor,
)
from heatext.solver.grids import hole_ghost, hole_links, hole_weights, masked_laplacian, stiffness
from heatext.solver.march import march, march_masked, step_count
from heatext.solver.radial import _crank_nicolson_run, radial_stiffness

TOL = 1e-12


def _operator(grid, ghost):
    """(L, hole_w) of a masked grid: its stencil assembled, its hole-flux weights."""
    L, _ = masked_laplacian(grid.active_mask(), grid.hole_mask(), grid.stencil(), ghost)
    return _csc(L), hole_weights(grid, ghost, _links(grid))


def _links(grid):
    """`hole_links` of a masked grid."""
    return hole_links(grid.active_mask(), grid.hole_mask(), grid.stencil())


def _csc(L):
    """scipy's CSC matrix of `masked_laplacian`'s arrays (n, data, indices, indptr)."""
    n, data, indices, indptr = L
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _solver(grid, ghost, dt):
    return MaskedCNSolve(SineModes(grid.active_mask(), grid.stencil()), grid.hole_mask(),
                         ghost, dt, capacitance_nodes(_links(grid), ghost))


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


@pytest.mark.parametrize("y", [2.5, 3.5])
def test_kernel_probe_benchmark_grid_rank(y):
    # the kernel-probe workload's grid (pad 4 sqrt(4 t_max), t_max = 10):
    # the hole rim reaches the axis row, whose rho links have no inward side
    pad = 4.0 * np.sqrt(40.0)
    grid = AxisymGrid(rho_max=pad, z_half=y + pad, n_rho=96, n_z=192, hole=BallHole(1.0))
    assert grid.hole_mask()[0].any()
    assert _solver(grid, 0.0, 0.05).rank == 11


@pytest.mark.parametrize("radius", [1.0, 0.0])
def test_axisym_solve_matches_splu(radius):
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96,
                      hole=BallHole(radius) if radius else None)
    L, _ = _operator(grid, 0.0)
    solver = _solver(grid, 0.0, 0.1)
    assert (solver.rank == 0) == (grid.hole is None)
    _check_against_splu(L, solver, 0.1)


def _random_tridiagonal(rng, n):
    """Off-diagonals of one sign and diagonally dominant rows, so that the
    symmetrised matrix is positive definite."""
    lo, up = -rng.uniform(0.1, 2.0, n), -rng.uniform(0.1, 2.0, n)
    di = rng.uniform(1.0, 3.0, n) + np.abs(lo) + np.abs(up)
    return lo, di, up


@pytest.mark.parametrize("n", [1, 2, 95, 96, 191, 245])
@pytest.mark.parametrize("columns", [None, 4, 33, 96, 245])
def test_dst1_is_scipys_orthonormal_dst_and_its_own_inverse(n, columns):
    x = np.random.default_rng(n).standard_normal(n if columns is None else (n, columns))
    tol = 1e-14 * np.max(np.abs(x))
    got = dst1(x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - dst(x, type=1, axis=0, norm="ortho"))) <= tol
    assert np.max(np.abs(dst1(got) - x)) <= tol
    # columns go through the FFT in chunks of fastsolve.DST_COLUMNS: each
    # column's transform is bitwise that of the column alone, whatever
    # chunk it lands in, so snapshots do not depend on the chunk width
    if columns is not None:
        for j in range(columns):
            assert np.array_equal(got[:, j], dst1(x[:, j]))


def test_dst1_memory_is_bounded_by_its_output():
    # the odd extension and its complex FFT are built DST_COLUMNS columns
    # at a time, so the traced peak is at most about twice the output
    x = np.random.default_rng(27).standard_normal((245, 245))
    tracemalloc.start()
    try:
        got = dst1(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.nbytes


@pytest.mark.parametrize("routine", ["dstevd", "dense_stevd"])
@pytest.mark.parametrize("kind", ["planar", "axisym"])
def test_box_eigenbasis_diagonalises_the_symmetrised_axis0_tridiagonal(monkeypatch, kind,
                                                                       routine):
    # the axisym rho stencil has the parity row and D != 1; dense_stevd is
    # the routine of scipy releases whose _flapack binds no dstevd
    monkeypatch.setattr(fastsolve, "dstevd", getattr(fastsolve, routine))
    if kind == "planar":
        grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
    else:
        grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
    lo0, up0, _, _ = grid.stencil()
    space = SineModes(grid.active_mask(), grid.stencil())
    lo, up = lo0[space.rows], up0[space.rows]
    T0 = np.diag(-(lo + up)) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    D = space.scale
    sym = D[:, None] * T0 / D[None, :]
    assert (kind == "axisym") == (np.ptp(D) > 0.0)
    assert np.max(np.abs(sym - sym.T)) <= 1e-13 * np.max(np.abs(sym))
    Q, mu = space.basis, space.mu
    assert Q.shape == (space.shape[1],) * 2 and mu.shape == (space.shape[1],)
    assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[0]))) <= 1e-13
    assert np.max(np.abs((Q * mu) @ Q.T - sym)) <= 1e-13 * np.max(np.abs(sym))


def test_symmetric_factor_solves_the_tridiagonal():
    rng = np.random.default_rng(7)
    n = 40
    lo, di, up = _random_tridiagonal(rng, n)
    scale, d, e = symmetric_factor(lo, di, up)
    b = rng.standard_normal(n)
    x, info = dpttrs(d, e, scale * b)
    assert info == 0
    x = x / scale
    A = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    want = np.linalg.solve(A, b)
    assert np.max(np.abs(x - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")  # fails before a sqrt of a negative number
@pytest.mark.parametrize("defect, message", [("zero", "coupling product"),
                                             ("sign", "coupling product"),
                                             ("nan", "coupling product"),
                                             ("inf", "coupling product"),
                                             ("indefinite", "positive definite")])
def test_symmetric_factor_fails_loudly(defect, message):
    lo, di, up = _random_tridiagonal(np.random.default_rng(8), 12)
    if defect == "zero":
        lo[5] = 0.0
    elif defect == "sign":
        lo[5] = 0.5
    elif defect == "nan":
        up[4] = np.nan
    elif defect == "inf":
        up[4] = -np.inf
    else:
        di[6] = -1.0
    with pytest.raises(NumericalError, match=message):
        symmetric_factor(lo, di, up)


@pytest.mark.parametrize("ghost", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_axisym_solve_matches_splu_at_random_radii(seed, ghost):
    # the rho stencil is not symmetric, so the axis-0 eigenbasis is that of
    # the scaled tridiagonal (D != 1); ghost != 0 adds the active
    # capacitance nodes next to the hole
    rng = np.random.default_rng(seed)
    radius, dt = rng.uniform(0.4, 3.5), rng.uniform(0.02, 0.3)
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(radius))
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
        MaskedCNSolve(SineModes(active, (c, c, c, c)), hole, 1.25, 0.5,
                      capacitance_nodes(hole_links(active, hole, (c, c, c, c)), 1.25))
    # the same links assembled sparsely: the row is exactly zero
    L, _ = masked_laplacian(active, hole, (c, c, c, c), 1.25)
    A, _ = _cn_matrices(_csc(L), 0.5)
    assert np.min(np.abs(A).sum(axis=1)) == 0.0


# ------------------------------------------- the SuperLU solve on CSC arrays

@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_spsolve_is_scipys_spsolve_bit_for_bit(theta):
    grid = PlanarGrid(half_width=4.0, n=32, hole=RectHole(1.0, 0.5))
    L, _ = masked_laplacian(grid.active_mask(), grid.hole_mask(), grid.stencil(),
                            _planar_ghost(grid, theta))
    b = np.random.default_rng(5).standard_normal(L[0])
    want = spsolve(_csc(L), b, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(fastsolve.spsolve(L, b), want)


def test_spsolve_raises_on_an_exactly_singular_matrix():
    ones = (2, np.ones(4), np.array([0, 1, 0, 1], dtype=np.intc),
            np.array([0, 2, 4], dtype=np.intc))
    with pytest.raises(NumericalError, match="singular"):
        fastsolve.spsolve(ones, np.ones(2))


def _splu_steps(L):
    """step(dt): u -> splu(A).solve(B @ u), Crank-Nicolson stepped by sparse LU."""
    def step(dt):
        A, B = _cn_matrices(L, dt)
        lu = splu(A)
        return lambda u: lu.solve(B @ u)
    return step


def _node_steps(grid, ghost):
    """step(dt): u -> 2 solve(u) - u with the node-space MaskedCNSolve call."""
    def step(dt):
        solve = _solver(grid, ghost, dt)
        return lambda u: 2.0 * solve(u) - u
    return step


def _reference_march(values, hole_w, weights, stops, step):
    """Crank-Nicolson stepped by step(dt) through the stops; one step per
    distinct step size is built, and none for an interval without steps."""
    u = values.copy()
    rows = [(0.0, weights @ u, hole_w @ u)]
    snaps = []
    steps = {}
    t_prev = 0.0
    for t_stop, cap in stops:
        n = step_count(t_stop - t_prev, cap)
        if n:
            dt = (t_stop - t_prev) / n
            if dt not in steps:
                steps[dt] = step(dt)
        for j in range(1, n + 1):
            u = steps[dt](u)
            rows.append((t_stop if j == n else t_prev + j * dt, weights @ u, hole_w @ u))
        snaps.append(u.copy())
        t_prev = t_stop
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
    rows, want = _reference_march(u0.values[active], hole_w, grid.volume_weights()[active],
                                  cfg.stops(stiffness(grid), grid.spacing), _splu_steps(L))
    _check_march(grid, snaps, ledger, rows, want)


def test_axisym_march_matches_splu_reference():
    grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
    R, Z = grid.meshgrid()
    u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 2.5) ** 2), 1.0)
    u0[grid.hole_mask() | grid.edge_mask()] = 0.0
    cfg = StepperConfig(dt=0.1, snapshot_times=(0.5, 2.0))
    snaps, ledger = evolve_axisym(ExteriorDomain(3, BallHole(1.0), 6.0),
                                  ThetaBoundary(0.0), Field(grid, u0), cfg)
    L, hole_w = _operator(grid, 0.0)
    active = grid.active_mask()
    rows, want = _reference_march(u0[active], hole_w, grid.volume_weights()[active],
                                  cfg.stops(stiffness(grid), grid.spacing), _splu_steps(L))
    _check_march(grid, snaps, ledger, rows, want)


def _probe_stops(cfg):
    """The stops of a kernel probe's main phase: each time with cap dt."""
    return tuple((t, cfg.dt) for t in cfg.snapshot_times)


def _run_path(kind):
    """(grid, a datum that meets the run contract, its hole nodes, the run)
    of each run path: the four evolve entry points and the whole-space and
    exterior kernel-probe runs."""
    if kind == "planar":
        grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
        domain = ExteriorDomain(2, grid.hole, 6.0)
        run = lambda u0, cfg: evolve_planar(domain, ThetaBoundary(0.5), u0, cfg)
    elif kind in ("axisym", "exterior probe"):
        grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
        domain = ExteriorDomain(3, BallHole(1.0), 6.0)
        run = lambda u0, cfg: evolve_axisym(domain, ThetaBoundary(0.0), u0, cfg)
        if kind == "exterior probe":
            run = lambda u0, cfg: _axisym_run(grid, u0, _probe_stops(cfg), cfg.snapshot_times)
    if kind in ("planar", "axisym", "exterior probe"):
        return grid, np.where(grid.active_mask(), 1.0, 0.0), grid.hole_mask(), run
    if kind == "radial":
        grid = RadialGrid(a=1.0, r_out=9.0, n_r=64, dim=3)
        domain = ExteriorDomain(3, BallHole(1.0), 9.0)
        run = lambda u0, cfg: evolve_radial(domain, ThetaBoundary(0.0), u0, cfg)
    else:
        grid = RadialGrid(a=0.0, r_out=8.0, n_r=64, dim=3)
        run = lambda u0, cfg: evolve_ball(8.0, u0, cfg)
        if kind == "whole-space probe":
            run = lambda u0, cfg: _crank_nicolson_run(grid, ThetaBoundary(1.0), u0.values,
                                                      _probe_stops(cfg), cfg.snapshot_times)
    hole = [0] if kind == "radial" else []  # the Dirichlet hole node
    values = np.ones(grid.shape)
    values[hole] = values[-1] = 0.0
    return grid, values, hole, run


RUN_PATHS = ["planar", "axisym", "radial", "ball", "whole-space probe", "exterior probe"]
RUN_DEFECTS = [("shape", "shape"), ("non-finite", "non-finite"),
               ("hole", "vanish on hole nodes"), ("far edge", "vanish on far-edge nodes"),
               ("cap above spacing", "accuracy guard"),
               ("stops out of order", "strictly increase")]


@pytest.mark.parametrize("kind, defect, message", [
    (kind, defect, message) for kind in RUN_PATHS for defect, message in RUN_DEFECTS
    if defect != "hole" or kind not in ("ball", "whole-space probe")])  # no hole there
def test_masked_runs_check_the_datum(kind, defect, message):
    # every run path checks one contract: the datum on the grid's nodes,
    # finite and zero on the nodes the scheme pins, stop times strictly
    # increasing and every step cap within the grid spacing
    grid, values, hole, run = _run_path(kind)
    cfg = StepperConfig(dt=0.1, snapshot_times=(0.2,))
    if defect == "shape":
        values = values[:-1]
    elif defect == "non-finite":
        values[(1,) * values.ndim] = np.nan
    elif defect == "hole":
        values[hole] = 1e-3
    elif defect == "far edge":
        values[..., -1] = 1e-3
    elif defect == "cap above spacing":
        cfg = StepperConfig(dt=1.0, snapshot_times=(2.0,))
    else:
        cfg = StepperConfig(dt=0.1, snapshot_times=(0.2, 0.1))
    with pytest.raises(PreconditionError, match=message):
        run(Field(grid, values), cfg)


def test_a_repeated_snapshot_time_is_one_stop_and_disorder_an_error():
    # StepperConfig merges a time repeated in a row, never one out of order
    grid, values, _, run = _run_path("radial")
    cfg = StepperConfig(dt=0.1, snapshot_times=(0.0, 0.5, 0.5, 1.0))
    lam_bar = radial_stiffness(grid, ThetaBoundary(0.0))
    assert cfg.stops(lam_bar, grid.spacing) == ((0.0, 0.1), (0.5, 0.1), (1.0, 0.1))
    with pytest.raises(PreconditionError, match="strictly increase"):
        run(Field(grid, values), StepperConfig(dt=0.1, snapshot_times=(0.5, 1.0, 0.5)))


def test_pinned_values_enter_as_exactly_zero():
    # values on the pinned nodes within 1e-9 of the datum's size pass the
    # check and then enter as 0, in the t = 0 snapshot too
    grid, values, _, run = _run_path("radial")
    values[0] = values[-1] = 1e-12
    snaps, _ = run(Field(grid, values), StepperConfig(dt=0.1, snapshot_times=(0.0,)))
    assert snaps[0].values[0] == 0.0 and snaps[0].values[-1] == 0.0


# ------------------------------------------------------------ mode-space march

# a warm-up cap, then a main cap, as a kernel probe takes them
TWO_CAP_STOPS = ((0.25, 0.25 / 16), (1.0, 0.125), (2.0, 0.125))
TWO_CAP_TIMES = tuple(t for t, _ in TWO_CAP_STOPS)


def _masked_case(kind):
    """(grid, ghost, datum values) of the mode-space march checks."""
    if kind == "axisym":
        grid = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
        R, Z = grid.meshgrid()
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 2.5) ** 2), 1.0)
        u0[grid.hole_mask() | grid.edge_mask()] = 0.0
        return grid, 0.0, u0
    grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
    theta = {"dirichlet": 0.0, "robin": 0.5, "neumann": 1.0}[kind]
    u0 = make_planar_datum("gaussian-bump:2.5,0.5,1", grid).values
    return grid, _planar_ghost(grid, theta), u0


CASES = ["dirichlet", "robin", "neumann", "axisym"]


@pytest.mark.parametrize("kind", CASES)
def test_mode_march_matches_node_space_steps(kind):
    grid, ghost, u0 = _masked_case(kind)
    assert (ghost != 0.0) == (kind in ("robin", "neumann"))
    snaps, ledger = march_masked(grid, Field(grid, u0), ghost, TWO_CAP_STOPS, kind, TWO_CAP_TIMES)
    active = grid.active_mask()
    rows, want = _reference_march(u0[active], hole_weights(grid, ghost, _links(grid)),
                                  grid.volume_weights()[active], TWO_CAP_STOPS,
                                  _node_steps(grid, ghost))
    _check_march(grid, snaps, ledger, rows, want)


def _box_modes(space, box):
    """The mode vector of box values given on every box node, (n0, n1),
    already scaled by D: scipy's DST along axis 1, then Q0^T along axis 0."""
    return (dst(box.T, type=1, axis=0, norm="ortho") @ space.basis).ravel()


def _box_values(space, modes):
    """u on every box node (hole nodes included): Q0 undone along axis 0,
    then the unrestricted inverse DST along axis 1."""
    box = dst(modes.reshape(space.shape) @ space.basis.T, type=1, axis=0, norm="ortho").T
    return box / space.scale[:, None]


@pytest.mark.parametrize("dt", [0.125, 0.125 / 16])
@pytest.mark.parametrize("kind", CASES)
def test_march_kernel_is_twice_the_splu_solve(kind, dt):
    # the kernel writes over whatever out holds and leaves its argument as
    # it was; solve_modes is its output halved, exactly
    grid, ghost, _ = _masked_case(kind)
    solver = _solver(grid, ghost, dt)
    space = solver.space
    A, _ = _cn_matrices(_operator(grid, ghost)[0], dt)
    lu = splu(A)
    rng = np.random.default_rng(5)
    for b in (rng.random(A.shape[0]), rng.standard_normal(A.shape[0])):
        modes = space.to_modes(b)
        arg = modes.copy()
        out = np.full(modes.size, np.nan)
        assert solver.solve2_modes(modes, out) is out
        assert np.array_equal(modes, arg)
        assert np.array_equal(solver.solve_modes(modes), 0.5 * out)
        want = lu.solve(b)
        got = space.from_modes(0.5 * out)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_masked_steps_allocate_no_mode_vector(monkeypatch):
    # the kernel writes into the run's buffers: over steps 2-21
    # the traced peak grows by less than one mode vector. On the planar-hole
    # benchmark's grid a mode vector is 480 kB and the kernel's (n1 x rank)
    # temporaries 71 kB each; on the 47 x 47 box of the cases above, rank 68
    # makes those as large as a mode vector
    grid = PlanarGrid(half_width=61.5, n=246, hole=RectHole(1.0, 1.0))
    ghost = _planar_ghost(grid, 0.5)
    u0 = make_planar_datum("gaussian-bump:2.5,0.5,1", grid).values
    marks = []

    class Traced(MaskedCNSolve):
        def solve2_modes(self, modes, out):
            if len(marks) == 1:  # tracing starts as step 2 does
                tracemalloc.start()
            marks.append(tracemalloc.get_traced_memory())
            return super().solve2_modes(modes, out)

    monkeypatch.setattr(march_module, "MaskedCNSolve", Traced)
    try:
        march_masked(grid, Field(grid, u0), ghost, ((3.0, 0.125),), "robin", (3.0,))
    finally:
        tracemalloc.stop()
    assert len(marks) == 24 and marks[1] == (0, 0)
    size = np.prod(SineModes(grid.active_mask(), grid.stencil()).shape)
    assert marks[21][1] < 8 * size  # the peak as step 22 starts


@pytest.mark.parametrize("kind", CASES)
def test_solve_modes_ignores_the_hole_entries(kind):
    grid, ghost, _ = _masked_case(kind)
    solver = _solver(grid, ghost, 0.125)
    space = solver.space
    assert solver.rank > 0
    box_hole = grid.hole_mask()[space.rows, 1:-1]
    rng = np.random.default_rng(31)
    for _ in range(3):
        modes = rng.standard_normal(space.shape[0] * space.shape[1])
        bump = np.zeros(box_hole.shape)  # values on the hole nodes only
        bump[box_hole] = 10.0 * rng.standard_normal(int(box_hole.sum()))
        moved = modes + _box_modes(space, bump)
        assert np.max(np.abs(moved - modes)) > 0.1
        want = space.from_modes(solver.solve_modes(modes))
        got = space.from_modes(solver.solve_modes(moved))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", CASES)
def test_hole_entries_of_the_marched_modes_stay_at_round_off(kind):
    grid, ghost, u0 = _masked_case(kind)
    active, hole = grid.active_mask(), grid.hole_mask()
    modes = SineModes(active, grid.stencil())

    cap_nodes = capacitance_nodes(_links(grid), ghost)

    def factor(dt):
        solver = MaskedCNSolve(modes, hole, ghost, dt, cap_nodes)
        return lambda v: solver.solve2_modes(v, np.empty(v.size))

    stops = TWO_CAP_STOPS + ((8.0, 0.125),)
    zero = np.zeros(modes.shape[0] * modes.shape[1])
    states, _ = march(modes.to_modes(u0[active]), stops, factor, zero, zero,
                      lambda u, t: u.copy(), kind, [t for t, _ in stops])
    # measured against the datum: the run decays, the round-off does not
    box_hole = hole[modes.rows, 1:-1]
    for state in states:
        box = _box_values(modes, state)
        assert np.max(np.abs(box[box_hole])) <= 1e-12 * np.max(np.abs(u0))


def _counted_builds(monkeypatch):
    """The dt of every MaskedCNSolve that march_masked builds, in order."""
    built = []

    class Counted(MaskedCNSolve):
        def __init__(self, space, hole, ghost, dt, cap_nodes):
            built.append(dt)
            super().__init__(space, hole, ghost, dt, cap_nodes)

    monkeypatch.setattr(march_module, "MaskedCNSolve", Counted)
    return built


@pytest.mark.parametrize("times, builds", [((0.0,), []),
                                           ((0.0, 0.5), [0.125]),
                                           ((0.0, 0.5, 0.5, 1.0), [0.125])])
def test_masked_run_builds_no_solver_for_steps_never_taken(monkeypatch, times, builds):
    grid, ghost, u0 = _masked_case("robin")
    built = _counted_builds(monkeypatch)
    cfg = StepperConfig(dt=0.125, snapshot_times=times)
    snaps, ledger = evolve_planar(ExteriorDomain(2, grid.hole, 6.0), ThetaBoundary(0.5),
                                  Field(grid, u0), cfg)
    assert built == builds
    assert [s.time for s in snaps] == list(dict.fromkeys(times))
    assert np.max(np.abs(snaps[0].values - u0)) <= 1e-14 * np.max(np.abs(u0))
    t, m, _ = ledger.as_arrays()
    assert t[0] == 0.0 and len(t) == 1 + round(times[-1] / 0.125)
    weights = grid.volume_weights()
    assert abs(m[0] - np.sum(weights * u0)) <= 1e-14 * np.sum(weights * u0)


def test_masked_run_builds_one_solver_per_step_size(monkeypatch):
    grid, ghost, u0 = _masked_case("axisym")
    built = _counted_builds(monkeypatch)
    stops = TWO_CAP_STOPS + ((2.5, 0.125), (2.5 + 0.25 / 16, 0.25 / 16))
    march_masked(grid, Field(grid, u0), ghost, stops, "axisymmetric", [t for t, _ in stops])
    assert built == [0.25 / 16, 0.125]


def test_masked_run_frees_each_solver_after_its_last_stop(monkeypatch):
    # to t = 60 the run takes dt = 0.125 through the start-up and the first
    # ladder rung, then a larger step on each rung: one build per step size,
    # each solver freed after its last stop, so none is alive at the next build
    grid, ghost, u0 = _masked_case("robin")
    live, alive_at_build = weakref.WeakSet(), []

    class Counted(MaskedCNSolve):
        def __init__(self, space, hole, ghost, dt, cap_nodes):
            alive_at_build.append((dt, len(live)))
            super().__init__(space, hole, ghost, dt, cap_nodes)
            live.add(self)

    monkeypatch.setattr(march_module, "MaskedCNSolve", Counted)
    cfg = StepperConfig(dt=0.125, snapshot_times=(0.0, 60.0))
    evolve_planar(ExteriorDomain(2, grid.hole, 6.0), ThetaBoundary(0.5), Field(grid, u0), cfg)
    steps = [dt for dt, _ in alive_at_build]
    assert len(steps) >= 4 and len(set(steps)) == len(steps)
    assert [n for _, n in alive_at_build] == [0] * len(steps)
    assert len(live) == 0


@pytest.mark.parametrize("cap", [0.125, 0.125 / 4])
def test_masked_run_transforms_once_per_stop(monkeypatch, cap):
    # the datum and the two ledger functionals, then one inverse per stop,
    # however many steps the run takes
    calls = []
    real = fastsolve.dst1

    def counted(x):
        calls.append(1)
        return real(x)

    monkeypatch.setattr(fastsolve, "dst1", counted)
    for kind in ("robin", "axisym"):
        calls.clear()
        grid, ghost, u0 = _masked_case(kind)
        stops = ((0.5, cap), (1.0, cap), (2.0, cap))
        march_masked(grid, Field(grid, u0), ghost, stops, kind, [t for t, _ in stops])
        assert len(calls) == 3 + len(stops)


def test_masked_run_decomposes_the_box_once(monkeypatch):
    # the axis-0 eigenbasis reads only the stencil: one dstevd per run,
    # however many step sizes the run builds a solver for
    grid, ghost, u0 = _masked_case("robin")
    real = fastsolve.dstevd
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fastsolve, "dstevd", counted)
    built = _counted_builds(monkeypatch)
    march_masked(grid, Field(grid, u0), ghost, TWO_CAP_STOPS, "robin", TWO_CAP_TIMES)
    assert len(set(built)) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("kind, walks", [("dirichlet", 1), ("axisym", 1), ("robin", 1)])
def test_masked_run_walks_the_hole_links_only_where_their_sums_are_read(monkeypatch, kind,
                                                                        walks):
    # a run walks the links once, for the ledger's hole-flux weights and
    # the capacitance nodes that every solver build takes
    grid, ghost, u0 = _masked_case(kind)
    real = grids_module.hole_links
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(grids_module, "hole_links", counted)
    monkeypatch.setattr(march_module, "hole_links", counted)
    built = _counted_builds(monkeypatch)
    march_masked(grid, Field(grid, u0), ghost, TWO_CAP_STOPS, kind, TWO_CAP_TIMES)
    assert len(built) == 2  # two step sizes
    assert len(calls) == walks
