"""Named initial data used by the command line and the test suites.

`PRESETS` is the one table of preset names and default parameters per run
dim (3: radial data, 2: planar); `parse_preset` reads it for the builders
and for `RunConfig.resolved`, before any output. Descriptors:
    explicit-remark             the exact-solution datum (dim 3, a = 1)
    gaussian-bump:c,w           bump exp(-(r-c)^2/w^2); dim 2: cx,cy,w
    indicator-shell:r1,r2       indicator of r1 <= r <= r2, inside the grid
"""

import math

import numpy as np

from .constructions import explicit_solution
from .domain import ThetaBoundary
from .errors import ConfigError
from .solver.grids import Field, PlanarGrid, RadialGrid

PRESETS = {
    3: {"explicit-remark": (), "gaussian-bump": (4.0, 1.0), "indicator-shell": (1.5, 2.5)},
    2: {"gaussian-bump": (3.0, 0.0, 1.5), "indicator-shell": (2.0, 4.0)},
}


def parse_preset(spec: str, dim: int):
    """(name, parameters) of a preset descriptor for a dim-`dim` run, the
    defaults when it gives none; ConfigError for an unknown name or bad
    parameters, a NaN or infinite one or a shell with r1 < 0 or r1 >= r2
    included."""
    name, _, arg = spec.partition(":")
    if name not in PRESETS[dim]:
        raise ConfigError(f"unknown dim-{dim} preset '{name}' "
                          f"(expected one of {', '.join(PRESETS[dim])})")
    default = PRESETS[dim][name]
    try:
        params = tuple(float(p) for p in arg.split(",") if p) or default
    except ValueError as exc:
        raise ConfigError(f"bad numeric parameter in '{arg}'") from exc
    if len(params) != len(default):
        raise ConfigError(f"{name} expects {len(default)} parameters, got '{arg}'")
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"{name} parameters must be finite, got '{arg}'")
    if name == "gaussian-bump" and params[-1] <= 0:
        raise ConfigError("bump width must be positive")
    if name == "indicator-shell" and not 0.0 <= params[0] < params[1]:
        raise ConfigError(f"indicator-shell bounds must satisfy 0 <= r1 < r2, got '{arg}'")
    return name, params


def make_radial_datum(spec: str, grid: RadialGrid, theta: ThetaBoundary) -> Field:
    """Build a radial initial datum from a preset descriptor, zero at the
    far node.

    Dirichlet runs require u0(a) = 0; the bump preset subtracts its hole
    trace times the harmonic factor (a/r)^(N-2) so the compatibility is
    exact without changing the far field.
    """
    name, params = parse_preset(spec, 3)
    r = grid.nodes()
    if name == "explicit-remark":
        if grid.a != 1.0 or grid.dim != 3:
            raise ConfigError("explicit-remark requires dim 3 and hole radius 1")
        vals = explicit_solution(r, 0.0)
    elif name == "gaussian-bump":
        c, w = params
        vals = np.exp(-((r - c) / w) ** 2)
        if theta.is_dirichlet and grid.a > 0:
            vals = vals - vals[0] * (grid.a / r) ** (grid.dim - 2)
            vals = np.maximum(vals, 0.0)
    else:  # indicator-shell
        r1, r2 = params
        if not grid.a <= r1 < r2 < grid.r_out:
            raise ConfigError("indicator-shell bounds must satisfy a <= r1 < r2 < r_out")
        vals = np.where((r >= r1) & (r <= r2), 1.0, 0.0)
    vals[-1] = 0.0  # the smooth data's tails; a shell ends inside the grid
    return Field(grid, vals, 0.0)


def make_planar_datum(spec: str, grid: PlanarGrid) -> Field:
    """Build a planar initial datum, zero on the hole and outer-edge nodes."""
    name, params = parse_preset(spec, 2)
    X, Y = grid.meshgrid()
    if name == "gaussian-bump":
        cx, cy, w = params
        vals = np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2) / w ** 2))
    else:  # indicator-shell
        r1, r2 = params
        if not r2 < grid.half_width:
            raise ConfigError("indicator-shell must end inside the grid: r2 < half_width")
        R = np.sqrt(X ** 2 + Y ** 2)
        vals = np.where((R >= r1) & (R <= r2), 1.0, 0.0)
    vals[~grid.active_mask()] = 0.0  # the hole and outer-edge nodes the run pins
    return Field(grid, vals, 0.0)
