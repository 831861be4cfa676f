"""The masked operators and their ledger flux.

For Crank-Nicolson the discrete mass rate is w^T L u (w the volume
weights). The hole-flux weights of planar_operator and axisym_operator
must be exactly the hole part of it: w^T L - hole_w is then nonzero only
on nodes linked to the outer edge, where the remainder is the far-edge
leakage.
"""

import numpy as np
import pytest

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.solver import AxisymGrid, PlanarGrid
from heatext.solver.axisym import axisym_operator
from heatext.solver.planar import planar_operator


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
    L, hole_w = planar_operator(grid, ThetaBoundary(theta))
    _check_flux_tie(grid, L, hole_w)


def test_planar_neumann_has_no_hole_flux():
    grid = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
    L, hole_w = planar_operator(grid, ThetaBoundary(1.0))
    assert np.all(hole_w == 0.0)
    w = grid.volume_weights()[grid.active_mask()]
    rest = L.T @ w
    assert np.max(np.abs(rest[~_next_to_edge(grid)])) <= 1e-12 * np.max(np.abs(rest))


def test_axisym_hole_flux_is_hole_part_of_mass_rate():
    grid = AxisymGrid(rho_max=6.0, z_half=6.0, n_rho=48, n_z=96, hole_radius=1.0)
    L, hole_w = axisym_operator(grid)
    _check_flux_tie(grid, L, hole_w)
