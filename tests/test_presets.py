import math

import numpy as np
import pytest

from heatext.domain import DIRICHLET, NEUMANN, RectHole, ThetaBoundary
from heatext.errors import ConfigError
from heatext.presets import make_planar_datum, make_radial_datum, parse_preset
from heatext.solver import PlanarGrid, RadialGrid


def test_radial_bump_under_dirichlet_vanishes_at_the_hole():
    # the bump minus its hole trace times the harmonic factor a/r, clipped
    # at 0: exactly 0 at r = a, and away from the hole the Neumann bump up
    # to a change below trace a/r (1.3e-5 at the peak r = 4)
    grid = RadialGrid(a=1.0, r_out=20.0, n_r=608, dim=3)
    r = grid.nodes()
    plain = make_radial_datum("gaussian-bump:4,1", grid, NEUMANN).values
    assert np.array_equal(plain[:-1], np.exp(-((r[:-1] - 4.0) / 1.0) ** 2))
    assert plain[-1] == 0.0
    dirichlet = make_radial_datum("gaussian-bump:4,1", grid, DIRICHLET).values
    assert dirichlet[0] == 0.0
    assert np.all(dirichlet >= 0.0)
    change = plain - dirichlet
    trace = plain[0]  # exp(-9)
    assert np.all(change >= 0.0)
    assert np.all(change <= trace / r + 1e-15)
    kept = plain > trace / r
    np.testing.assert_allclose(dirichlet[kept], (plain - trace / r)[kept], rtol=0.0, atol=1e-15)
    assert not np.any(dirichlet[~kept])
    assert np.max(dirichlet) == pytest.approx(np.max(plain), abs=trace / 4.0)
    # a Robin hole keeps the plain bump
    robin = make_radial_datum("gaussian-bump:4,1", grid, ThetaBoundary(0.5)).values
    assert np.array_equal(robin, plain)


def test_radial_indicator_shell():
    grid = RadialGrid(a=1.0, r_out=12.0, n_r=176, dim=3)
    r = grid.nodes()
    u0 = make_radial_datum("indicator-shell:2,11.5", grid, NEUMANN)
    # the shell ends inside the grid, so the far-node zero drops nothing
    assert np.array_equal(u0.values, np.where((r >= 2.0) & (r <= 11.5), 1.0, 0.0))
    # trapezoid mass: the exact 4 pi (r2^3 - r1^3) / 3 plus a half cell at
    # each end, 2 pi h (r1^2 + r2^2), to O(h^2)
    h = grid.h
    exact = 4.0 * math.pi * (11.5 ** 3 - 2.0 ** 3) / 3.0
    assert u0.integral() == pytest.approx(
        exact + 2.0 * math.pi * h * (2.0 ** 2 + 11.5 ** 2), rel=1e-4)


@pytest.mark.parametrize("spec", ["indicator-shell:2,12", "indicator-shell:2,13",
                                  "indicator-shell:0.5,3", "indicator-shell:3,2"])
def test_radial_indicator_shell_bounds(spec):
    # a shell must start outside the hole and end inside the grid: one that
    # reached r_out would lose the far node's half cell without a word
    grid = RadialGrid(a=1.0, r_out=12.0, n_r=176, dim=3)
    with pytest.raises(ConfigError, match="indicator-shell"):
        make_radial_datum(spec, grid, NEUMANN)


def test_planar_indicator_shell():
    grid = PlanarGrid(half_width=8.0, n=64, hole=RectHole(1.0, 1.0))
    u0 = make_planar_datum("indicator-shell:2,4", grid)
    X, Y = grid.meshgrid()
    R = np.sqrt(X ** 2 + Y ** 2)
    shell = (R >= 2.0) & (R <= 4.0)
    assert np.array_equal(u0.values, np.where(shell, 1.0, 0.0))
    assert not np.any(u0.values[grid.hole_mask()])
    # a cell sum of 1 per shell node, about the annulus area 12 pi
    assert u0.integral() == pytest.approx(grid.h ** 2 * np.count_nonzero(shell))
    assert u0.integral() == pytest.approx(12.0 * math.pi, rel=0.05)


@pytest.mark.parametrize("spec", ["indicator-shell:2,8", "indicator-shell:6,9"])
def test_planar_indicator_shell_ends_inside_the_grid(spec):
    grid = PlanarGrid(half_width=8.0, n=64, hole=RectHole(1.0, 1.0))
    with pytest.raises(ConfigError, match="inside the grid"):
        make_planar_datum(spec, grid)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("arg", ["4,2", "3,3", "-1,2"])
def test_indicator_shell_bounds_are_ordered(dim, arg):
    # an inverted, empty or negative shell is an error in both dims, before
    # any grid exists: in dim 2 nothing else would stop an all-zero datum
    with pytest.raises(ConfigError, match="0 <= r1 < r2"):
        parse_preset(f"indicator-shell:{arg}", dim)
