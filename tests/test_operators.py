"""The masked operators and their ledger flux.

For Crank-Nicolson the discrete mass rate is w^T L u (w the volume
weights). The hole-flux weights of the planar and axisymmetric grids
must be exactly the hole part of it: w^T L - hole_w is then nonzero only
on nodes linked to the outer edge, where the remainder is the far-edge
leakage.
"""

import numpy as np
import pytest

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.solver import AxisymGrid, PlanarGrid
from heatext.solver.grids import hole_ghost, hole_weights, masked_laplacian


def _operator(grid, ghost):
    """(L, hole_w) of a masked grid: its stencil assembled, its hole-flux weights."""
    L, _ = masked_laplacian(grid.active_mask(), grid.hole_mask(), grid.stencil(), ghost)
    return L, hole_weights(grid, ghost)


def _next_to_edge(grid):
    """Active nodes with a neighbour on the outer edge, as an active vector."""
    edge = grid.edge_mask()
    near = np.zeros_like(edge)
    near[1:, :] |= edge[:-1, :]
    near[:-1, :] |= edge[1:, :]
    near[:, 1:] |= edge[:, :-1]
    near[:, :-1] |= edge[:, 1:]
    return near[grid.active_mask()]


def _check_flux_tie(grid, L, hole_w):
    w = grid.volume_weights()[grid.active_mask()]
    near_edge = _next_to_edge(grid)
    rest = L.T @ w - hole_w  # per-node coefficient of w^T L u - flux(u)
    scale = float(np.max(np.abs(L.T @ w)))
    assert np.max(np.abs(rest[~near_edge])) <= 1e-12 * scale
    assert np.all(np.abs(rest[near_edge]) > 1e-6 * scale)
    # the same statement for a random u that vanishes next to the edge
    u = np.random.default_rng(7).random(w.size)
    u[near_edge] = 0.0
    assert float(w @ (L @ u)) == pytest.approx(float(hole_w @ u), rel=1e-12)
    assert np.any(hole_w != 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("hole", [RectHole(1.0, 1.0), BallHole(1.3)])
def test_planar_hole_flux_is_hole_part_of_mass_rate(theta, hole):
    grid = PlanarGrid(half_width=6.0, n=48, hole=hole)
    L, hole_w = _operator(grid, hole_ghost(ThetaBoundary(theta), grid.h))
    _check_flux_tie(grid, L, hole_w)


def test_planar_neumann_has_no_hole_flux():
    grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
    L, hole_w = _operator(grid, hole_ghost(ThetaBoundary(1.0), grid.h))
    assert np.all(hole_w == 0.0)
    w = grid.volume_weights()[grid.active_mask()]
    rest = L.T @ w
    assert np.max(np.abs(rest[~_next_to_edge(grid)])) <= 1e-12 * np.max(np.abs(rest))


def test_axisym_hole_flux_is_hole_part_of_mass_rate():
    grid = AxisymGrid(rho_max=6.0, z_half=6.0, n_rho=48, n_z=96, hole=BallHole(1.0))
    L, hole_w = _operator(grid, 0.0)
    _check_flux_tie(grid, L, hole_w)


# ---------------------------------------- hole-flux weights from the masks

def _hole_sums_by_link(grid, links):
    """Per-link accumulation of the hole-link coefficients on the full node
    array, in link order: the sums the sparse assembly used to return."""
    hole = grid.hole_mask()
    acc = np.zeros(hole.shape)
    for applies, coef, di, dj in links:
        nb_hole = np.roll(hole, (-di, -dj), axis=(0, 1))
        acc += np.where(applies & nb_hole, coef, 0.0)
    return acc[grid.active_mask()]


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_planar_hole_w_is_bit_identical_on_the_benchmark_grid(theta):
    grid = PlanarGrid(half_width=61.5, n=246, hole=RectHole(1.0, 1.0))
    tb = ThetaBoundary(theta)
    inv_h2 = 1.0 / grid.h ** 2
    sums = _hole_sums_by_link(grid, [(True, inv_h2, 1, 0), (True, inv_h2, -1, 0),
                                     (True, inv_h2, 0, 1), (True, inv_h2, 0, -1)])
    want = (hole_ghost(tb, grid.h) - 1.0) * grid.volume_weights()[grid.active_mask()] * sums
    assert np.array_equal(hole_weights(grid, hole_ghost(tb, grid.h)), want)
    assert np.array_equal(_operator(grid, hole_ghost(tb, grid.h))[1], want)


def test_axisym_hole_w_is_bit_identical_on_the_kernel_probe_grid():
    grid = AxisymGrid(rho_max=25.3, z_half=28.0, n_rho=96, n_z=192, hole=BallHole(1.0))
    c_in, c_out = (c[:-1] for c in grid.stencil()[:2])  # rows 0 .. n_rho - 1
    cz = 1.0 / grid.h_z ** 2
    rows = np.arange(grid.n_rho + 1)[:, None]
    c_in_full = np.append(c_in, 0.0)[:, None]
    c_out_full = np.append(c_out, 0.0)[:, None]
    sums = _hole_sums_by_link(grid, [(True, cz, 0, 1), (True, cz, 0, -1),
                                     (True, c_out_full, 1, 0),
                                     (rows > 0, c_in_full, -1, 0)])
    want = -grid.volume_weights()[grid.active_mask()] * sums
    assert np.any(want != 0.0)
    assert np.array_equal(hole_weights(grid, 0.0), want)
    assert np.array_equal(_operator(grid, 0.0)[1], want)
