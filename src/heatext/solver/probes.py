"""Kernel probes: evolve a unit-mass mollifier to approximate a kernel column.

The probe datum is the compactly supported bump (1 - (d/w)^2)^4 scaled to
unit discrete mass at the source point y. Evolving it approximates the
heat kernel k(., y, t) up to mollifier smearing, which is estimated by
halving the width and comparing. Two code paths:

  - whole space (hole None): the problem is radial about y, solved on
    a 1d grid in s = |x - y| with the smooth-origin parity row;
  - exterior domain (Dirichlet ball hole): the source sits on the z-axis
    at distance y from the origin and the evolution is axisymmetric.

A probe is one uniform `march` run. Its first stop is the warm-up end
t0 = min(8 w^2, t_min / 2), which takes no snapshot; the requested times
follow at the regular cap, each with its snapshot. The warm-up damps the
stiff modes of the sharp datum, which Crank-Nicolson barely damps: for
lam dt >> 1 its amplification is about -(1 - 4 / (lam dt)), so N equal
steps over [0, t0] leave a mode of eigenvalue lam with a factor of about
exp(-4 N^2 / (lam t0)). With lam_bar = `grids.stiffness` of the probe's
own grid, the Gershgorin bound on the spectrum of -L, `config.warmup_steps`
takes N = max(8, ceil(sqrt(ln(1/eps) lam_bar t0 / 4))), which makes that
factor at most eps = WARMUP_DAMPING, a tenth of the tightest probe gate,
for every eigenvalue from ln(1/eps) / t0 up to lam_bar; the regular cap
may add steps. The warm-up's cost thus follows the grid's stiffness, and
an evolution's start-up is sized by the same rule. Under-damped stiff
modes are what make the whole-space peak miss its 1e-3 gate.
The requested times are stops of the run, which checks them on both paths
with the run contract `march.check_run`: a repeated or out-of-order time
is an error, never merged or sorted.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..domain import BallHole, ThetaBoundary, check_exterior
from ..errors import PreconditionError
from .axisym import _axisym_run
from .config import warmup_steps
from .grids import AxisymGrid, Field, RadialGrid, stiffness
from .ledger import MassLedger
from .radial import _crank_nicolson_run

WARMUP_SPAN_WIDTHS = 8.0   # the warm-up covers 8 w^2 time units


def mollifier_bump(dist, width: float):
    """Compact C^3 bump (1 - (d/w)^2)^4 on d < w, zero outside (unnormalised)."""
    d = np.asarray(dist, dtype=float)
    s2 = (d / width) ** 2
    out = np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 4, 0.0)
    return out if out.ndim else float(out)


@dataclass
class ProbeResult:
    """Snapshots of a kernel probe plus bookkeeping for gap checks."""

    snapshots: List[Field]
    ledger: MassLedger
    y_dist: float
    whole_space: bool
    warmup: Tuple[float, float]  # the warm-up stop (t0, step cap) of the march

    def snapshot_at(self, t: float) -> Field:
        """The snapshot taken at exactly time t; KeyError when there is none."""
        for s in self.snapshots:
            if s.time == t:
                return s
        raise KeyError(f"no snapshot at t = {t}")

    def peak(self, t: float) -> float:
        return float(np.max(self.snapshot_at(t).values))


def kernel_probe(hole: Optional[BallHole], y_dist: float,
                 mollifier_width: float, times: Tuple[float, ...], *,
                 n_rho: int = 256, n_z: int = 512, n_r: int = 2048,
                 pad: Optional[float] = None) -> ProbeResult:
    """Evolve a unit-mass mollifier at distance y_dist from the origin.

    hole None runs the whole-space radial path; otherwise the hole must be
    a ball (`domain.check_exterior` in dim 3), which the probe treats as
    Dirichlet, and the source must satisfy dist(y, hole) > 2 * mollifier_width.
    The grid spacing (h, or max(h_rho, h_z) on the axisymmetric grid) must
    not exceed mollifier_width, or the datum falls between the nodes; the
    width, y_dist and the pad must be finite, the times positive, finite
    and strictly increasing.
    """
    if not 0 < mollifier_width < math.inf:
        raise PreconditionError(
            f"mollifier_width must be positive and finite, got {mollifier_width}")
    if not math.isfinite(y_dist):
        raise PreconditionError(f"the source distance must be finite, got {y_dist}")
    if not times or not all(0 < t < math.inf for t in times):
        raise PreconditionError(f"probe times must be positive and finite, got {list(times)}")
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        raise PreconditionError(f"probe times must strictly increase, got {list(times)}")
    if pad is None:
        pad = 4.0 * math.sqrt(4.0 * max(times))
    if not 0 < pad < math.inf:
        raise PreconditionError(f"the pad must be positive and finite, got {pad}")

    if hole is None:
        # radial about the source; y_dist only shifts labels, not the solve
        grid = RadialGrid(a=0.0, r_out=mollifier_width + pad, n_r=n_r, dim=3)
        u0 = mollifier_bump(grid.nodes(), mollifier_width)
        h = grid.h
    else:
        check_exterior(3, hole)  # a dim-3 hole is a ball
        a = hole.radius
        if y_dist - a <= 2.0 * mollifier_width:
            raise PreconditionError(
                f"source too close to the hole: dist = {y_dist - a}, "
                f"need > {2.0 * mollifier_width}"
            )
        grid = AxisymGrid(rho_max=pad, z_half=y_dist + pad, n_rho=n_rho, n_z=n_z,
                          hole=hole)
        R, Z = grid.meshgrid()
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - y_dist) ** 2), mollifier_width)
        h = max(grid.h_rho, grid.h_z)
    if h > mollifier_width:
        raise PreconditionError(
            f"grid spacing {h:.4g} exceeds the mollifier width {mollifier_width:g}: "
            f"the probe datum is not resolved")
    m0 = float(np.sum(grid.volume_weights() * u0))
    u0 /= m0

    t0 = min(WARMUP_SPAN_WIDTHS * mollifier_width ** 2, 0.5 * times[0])
    dt_cap = min(0.05, grid.spacing)
    warmup = (t0, min(t0 / warmup_steps(stiffness(grid), t0), dt_cap))
    stops = (warmup,) + tuple((t, dt_cap) for t in times)
    if hole is None:
        snaps, ledger = _crank_nicolson_run(grid, ThetaBoundary(1.0), u0, stops, times)
    else:
        snaps, ledger = _axisym_run(grid, Field(grid, u0), stops, times)
    return ProbeResult(snaps, ledger, y_dist, hole is None, warmup)


def probe_smearing_estimate(hole: Optional[BallHole], y_dist: float,
                            mollifier_width: float, times: Tuple[float, ...],
                            **kwargs) -> dict:
    """L1 distance between the probes at width w and w/2, per time.

    Both probes carry unit mass, so the returned value is already the
    relative smearing scale; a small value certifies that the probe is
    close to the ideal kernel column at the probed times.
    """
    full = kernel_probe(hole, y_dist, mollifier_width, times, **kwargs)
    half = kernel_probe(hole, y_dist, 0.5 * mollifier_width, times, **kwargs)
    out = {}
    for t in times:
        s_full = full.snapshot_at(t)
        s_half = half.snapshot_at(t)
        w = s_full.grid.volume_weights()
        out[t] = float(np.sum(w * np.abs(s_full.values - s_half.values)))
    return out
