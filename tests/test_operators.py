"""The masked operators and their ledger flux.

For Crank-Nicolson the discrete mass rate is w^T L u (w the volume
weights). The hole-flux weights of the planar and axisymmetric grids
must be exactly the hole part of it: w^T L - hole_w is then nonzero only
on nodes linked to the outer edge, where the remainder is the far-edge
leakage.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.errors import GeometryError, PreconditionError
from heatext.records import fields
from heatext.solver import AxisymGrid, PlanarGrid, RadialGrid
from heatext.solver.grids import (
    MASKED_NODE_BYTES,
    MAX_MASKED_BYTES,
    MAX_NODES,
    hole_ghost,
    hole_links,
    hole_nodes,
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


@pytest.mark.parametrize("hole", [BallHole(1.3), RectHole(1.0, 1.0)])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_folded_masked_laplacian_arrays_are_scipys_canonical_csc(hole, theta):
    # the quadrant x, y >= 0 of a centred grid, with the axis links folded
    # (the parity row), then folded across the diagonal onto j <= i: the
    # arrays are scipy's restriction of the quadrant matrix to the owners'
    # rows with the columns of mirror images summed
    grid = PlanarGrid(half_width=4.0, n=32, hole=hole)
    active, hole_mask = grid.active_mask()[16:, 16:], grid.hole_mask()[16:, 16:]
    assert np.array_equal(active, active.T) and np.array_equal(hole_mask, hole_mask.T)
    lo, up = radial_links(np.arange(17.0), 1.0, 0)
    stencil, ghost = (lo, up, lo, up), hole_ghost(ThetaBoundary(theta), grid.h)
    octant = np.tril(active)
    idx = -np.ones(active.shape, dtype=np.int64)
    idx[octant] = np.arange(int(octant.sum()))
    idx = np.maximum(idx, idx.T)
    (n, data, indices, indptr), edge_coef = masked_laplacian(active, hole_mask, stencil,
                                                             ghost, idx)
    (nq, qdata, qindices, qindptr), qedge = masked_laplacian(active, hole_mask, stencil, ghost)
    quad = sp.csc_matrix((qdata, qindices, qindptr), shape=(nq, nq)).tocoo()
    node = idx[active]  # each quadrant unknown's octant unknown
    first = np.unique(node, return_index=True)[1]  # each owner, first in row-major order
    owner = np.zeros(nq, dtype=bool)
    owner[first] = True
    keep = owner[quad.row]
    want = sp.csr_matrix((quad.data[keep], (node[quad.row[keep]], node[quad.col[keep]])),
                         shape=(n, n)).tocsc()
    assert n == int(octant.sum()) < nq
    assert indices.dtype == indptr.dtype == np.intc
    for c in range(n):  # sorted rows, no duplicates
        assert np.all(np.diff(indices[indptr[c]:indptr[c + 1]]) > 0)
    assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
    assert np.array_equal(data, want.data)
    assert np.array_equal(edge_coef, qedge[first])
    # the diagonal nodes' two links across the diagonal were summed
    assert data.size < int(keep.sum())


def test_masked_laplacian_rejects_a_gap_in_the_unknowns():
    active = np.ones((4, 4), dtype=bool)
    idx = np.arange(16).reshape(4, 4)
    idx[0, 0] = 16
    c = np.ones(4)
    with pytest.raises(PreconditionError, match="0 .. n - 1"):
        masked_laplacian(active, ~active, (c, c, c, c), 0.0, idx)


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


def test_grids_reject_more_nodes_than_the_budget():
    # the budget is checked in the constructor, before any array is made:
    # a tiny spacing or a huge radius is a bad input, not a memory failure.
    # A masked grid just under the node budget is over the byte budget
    # (test_masked_grids_reject_a_run_over_the_byte_budget)
    side = math.isqrt(MAX_NODES)
    RadialGrid(a=1.0, r_out=2.0, n_r=MAX_NODES - 1)
    for make in (lambda: RadialGrid(a=1.0, r_out=2.0, n_r=MAX_NODES),
                 lambda: PlanarGrid(half_width=4.0, n=side),
                 lambda: AxisymGrid(rho_max=4.0, z_half=4.0, n_rho=side, n_z=side - 1),
                 lambda: PlanarGrid(half_width=4.0, n=10 ** 400)):
        with pytest.raises(GeometryError, match="budget"):
            make()


@pytest.mark.parametrize("kwargs, message", [
    (dict(a=-1.0), "hole radius must be >= 0, got -1.0"),
    (dict(r_out=1.0), "r_out must exceed the hole radius"),
    (dict(n_r=63), "n_r must be at least 64, got 63"),
    (dict(dim=4), "dim must be 2 or 3, got 4"),
], ids=["negative-a", "r_out-at-a", "n_r-63", "dim-4"])
def test_radial_grid_rejects_its_bad_inputs(kwargs, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        RadialGrid(**{**dict(a=1.0, r_out=8.0, n_r=64, dim=3), **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    (dict(half_width=0.0), "half_width must be positive"),
    (dict(n=15), "n must be at least 16, got 15"),
    (dict(hole=BallHole(4.0)), "hole must lie strictly inside the grid square"),
], ids=["half_width-0", "n-15", "hole-outside"])
def test_planar_grid_rejects_its_bad_inputs(kwargs, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        PlanarGrid(**{**dict(half_width=4.0, n=16, hole=RectHole(1.0, 1.0)), **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    (dict(rho_max=0.0), "rho_max and z_half must be positive"),
    (dict(n_rho=15), "n_rho and n_z must be at least 16"),
    (dict(hole=RectHole(1.0, 1.0)),
     "axisymmetric grids take a ball hole, got RectHole(half_width_x=1.0, half_width_y=1.0)"),
    (dict(hole=BallHole(4.0)), "hole must lie strictly inside the grid"),
], ids=["rho_max-0", "n_rho-15", "rect-hole", "hole-outside"])
def test_axisym_grid_rejects_its_bad_inputs(kwargs, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        AxisymGrid(**{**dict(rho_max=4.0, z_half=8.0, n_rho=16, n_z=16, hole=BallHole(1.0)),
                      **kwargs})


def _masked_bytes(rows, cols):
    return MASKED_NODE_BYTES * rows * cols + 8 * rows ** 2


def test_masked_grids_reject_a_run_over_the_byte_budget():
    # a masked run holds about MASKED_NODE_BYTES per node and the dense
    # n0 x n0 eigenbasis; the largest grids under the byte budget are
    # built, and one more node row is rejected, all without their arrays
    side = rows = 2
    while _masked_bytes(side + 1, side + 1) <= MAX_MASKED_BYTES:
        side += 1
    n_z = 2000
    while _masked_bytes(rows + 1, n_z + 1) <= MAX_MASKED_BYTES:
        rows += 1
    assert side ** 2 < MAX_NODES and rows * (n_z + 1) < MAX_NODES
    tracemalloc.start()
    try:
        PlanarGrid(half_width=40.0, n=side - 1, hole=RectHole(1.0, 1.0))
        AxisymGrid(rho_max=40.0, z_half=40.0, n_rho=rows - 1, n_z=n_z, hole=BallHole(1.0))
        assert tracemalloc.get_traced_memory()[1] < 10 ** 5
        for make in (lambda: PlanarGrid(half_width=40.0, n=side, hole=RectHole(1.0, 1.0)),
                     lambda: AxisymGrid(rho_max=40.0, z_half=40.0, n_rho=rows, n_z=n_z)):
            with pytest.raises(GeometryError, match="over the budget of 1 GB"):
                make()
        assert tracemalloc.get_traced_memory()[1] < 10 ** 5
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", [
    PlanarGrid(half_width=6.0, n=48, hole=RectHole(2.1, 1.3)),
    PlanarGrid(half_width=6.0, n=48),
    AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0)),
    AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96),
])
def test_hole_mask_is_one_read_only_array_per_grid(grid):
    mask = grid.hole_mask()
    assert grid.hole_mask() is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = True
    X, Y = grid.meshgrid()
    eps = 1e-12 * grid.half_width if isinstance(grid, PlanarGrid) else 1e-12
    want = (np.zeros(X.shape, dtype=bool) if grid.hole is None
            else hole_nodes(grid.hole, X, Y, eps))
    assert np.array_equal(mask, want)
    # a grid equal to this one builds its own mask, of the same nodes
    twin = type(grid)(**{f.name: getattr(grid, f.name) for f in fields(grid)})
    assert twin == grid and twin.hole_mask() is not mask
    assert np.array_equal(twin.hole_mask(), mask)
