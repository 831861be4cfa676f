"""The masked operators and their ledger flux.

For Crank-Nicolson the discrete mass rate is w^T L u (w the volume
weights). The hole-flux weights of the planar and axisymmetric grids
must be exactly the hole part of it: w^T L - hole_w is then nonzero only
on nodes linked to the outer edge, where the remainder is the far-edge
leakage.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.solver import AxisymGrid, PlanarGrid, RadialGrid
from heatext.solver.grids import (
    hole_ghost,
    hole_links,
    hole_weights,
    masked_laplacian,
    radial_links,
)


def _operator(grid, ghost):
    """(L, hole_w) of a masked grid: its stencil assembled, its hole-flux weights."""
    (n, data, indices, indptr), _ = masked_laplacian(grid.active_mask(), grid.hole_mask(),
                                                     grid.stencil(), ghost)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n)), _hole_w(grid, ghost)


def _hole_w(grid, ghost):
    """`hole_weights` on the grid's own `hole_links`."""
    return hole_weights(grid, ghost, hole_links(grid.active_mask(), grid.hole_mask(),
                                                grid.stencil()))


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
    assert np.array_equal(_hole_w(grid, hole_ghost(tb, grid.h)), want)
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
    assert np.array_equal(_hole_w(grid, 0.0), want)
    assert np.array_equal(_operator(grid, 0.0)[1], want)


# ------------------------------------------------ the assembler's CSC arrays

def _loop_laplacian(active, hole, stencil, ghost):
    """Reference: (rows, cols, vals, edge_coef) of the masked stencil, node by
    node, each node's links in the assembler's order."""
    lo0, up0, lo1, up1 = stencil
    idx = -np.ones(active.shape, dtype=int)
    idx[active] = np.arange(int(active.sum()))
    rows, cols, vals, edge = [], [], [], []
    for i, j in zip(*np.nonzero(active)):
        diag = edge_sum = 0.0
        for c, ni, nj in ((up0[i], i + 1, j), (lo0[i], i - 1, j),
                          (up1[j], i, j + 1), (lo1[j], i, j - 1)):
            if c == 0.0:
                continue
            if active[ni, nj]:
                rows.append(idx[i, j])
                cols.append(idx[ni, nj])
                vals.append(c)
                diag -= c
            elif hole[ni, nj]:
                diag -= (1.0 - ghost) * c
            else:
                diag -= c
                edge_sum += c
        rows.append(idx[i, j])
        cols.append(idx[i, j])
        vals.append(diag)
        edge.append(edge_sum)
    return rows, cols, vals, np.array(edge)


@pytest.mark.parametrize("grid, theta", [
    (PlanarGrid(half_width=4.0, n=32, hole=RectHole(1.0, 0.5)), 0.5),  # Robin
    (AxisymGrid(rho_max=4.0, z_half=4.0, n_rho=24, n_z=48, hole=BallHole(1.3)), 0.0),
])
def test_masked_laplacian_arrays_are_scipys_canonical_csc(grid, theta):
    active, hole, stencil = grid.active_mask(), grid.hole_mask(), grid.stencil()
    ghost = hole_ghost(ThetaBoundary(theta), grid.spacing)
    (n, data, indices, indptr), edge_coef = masked_laplacian(active, hole, stencil, ghost)
    rows, cols, vals, edge = _loop_laplacian(active, hole, stencil, ghost)
    # scipy's CSR of the triplets, converted to CSC, listed in a shuffled order
    order = np.random.default_rng(3).permutation(len(rows))
    want = sp.csr_matrix((np.array(vals)[order], (np.array(rows)[order],
                                                   np.array(cols)[order])),
                         shape=(n, n)).tocsc()
    assert n == int(active.sum())
    assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
    assert np.array_equal(data, want.data)
    assert indices.dtype == indptr.dtype == np.intc
    assert np.array_equal(edge_coef, edge)


# ---------------------------------------------------- the one link source

def test_radial_links_parity_row():
    # u_rr + (2/r) u_r at r = 0, 1, 2, 3 (h = 1): the parity row 3 u_rr at
    # the origin, the centred links 1 -+ 1/r elsewhere
    lo, up = radial_links(np.arange(4.0), 1.0, 2)
    assert np.array_equal(lo, [0.0, 0.0, 0.5, 1.0 - 1.0 / 3.0])
    assert np.array_equal(up, [6.0, 2.0, 1.5, 1.0 + 1.0 / 3.0])


def test_axisym_rho_links_are_the_dim2_radial_links():
    grid = AxisymGrid(rho_max=25.3, z_half=28.0, n_rho=96, n_z=192, hole=BallHole(1.0))
    radial = RadialGrid(0.0, grid.rho_max, grid.n_rho, dim=2)
    assert np.array_equal(grid.stencil()[:2], radial.stencil())
