"""Kernel probes: evolve a unit-mass mollifier to approximate a kernel column.

The probe datum is the compactly supported bump (1 - (d/w)^2)^4 scaled to
unit discrete mass at the source point y. Evolving it approximates the
heat kernel k(., y, t) up to mollifier smearing, which is estimated by
halving the width and comparing. Two code paths:

  - whole space (domain None): the problem is radial about y, solved on
    a 1d grid in s = |x - y| with the smooth-origin parity row;
  - exterior domain (Dirichlet ball hole): the source sits on the z-axis
    at distance y from the origin and the evolution is axisymmetric.

A probe is one `march` run. Its first stop, the warm-up end
t0 = min(8 w^2, t_min / 2) with step cap w^2/64 (at least 8 steps),
resolves the sharp initial transient (Crank-Nicolson time error scales
with (dt / w^2)^2 there); the requested times follow at the regular cap.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..domain import BallHole, ExteriorDomain, ThetaBoundary
from ..errors import PreconditionError
from .axisym import _axisym_run
from .grids import AxisymGrid, Field, RadialGrid
from .ledger import MassLedger
from .radial import _crank_nicolson_run

WARMUP_SPAN_WIDTHS = 8.0   # the warm-up covers 8 w^2 time units
WARMUP_STEPS = 512         # in steps of 8 w^2 / 512 = w^2 / 64
LEDGER_STRIDE = 4          # steps per ledger row: a row costs about a tenth of a step


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
    mollifier_width: float
    whole_space: bool
    initial_mass: float  # discrete mass before normalisation to 1

    def snapshot_at(self, t: float) -> Field:
        """The snapshot taken at exactly time t; KeyError when there is none."""
        for s in self.snapshots:
            if s.time == t:
                return s
        raise KeyError(f"no snapshot at t = {t}")

    def peak(self, t: float) -> float:
        return float(np.max(self.snapshot_at(t).values))


def kernel_probe(domain: Optional[ExteriorDomain], y_dist: float,
                 mollifier_width: float, times: Tuple[float, ...], *,
                 n_rho: int = 256, n_z: int = 512, n_r: int = 2048,
                 pad: Optional[float] = None) -> ProbeResult:
    """Evolve a unit-mass mollifier at distance y_dist from the origin.

    domain None runs the whole-space radial path (the hole disabled);
    otherwise the domain must have a ball hole, which the probe treats as
    Dirichlet, and the source must satisfy dist(y, hole) > 2 * mollifier_width.
    """
    if mollifier_width <= 0:
        raise PreconditionError("mollifier_width must be positive")
    times = tuple(sorted({float(t) for t in times}))
    if not times or times[0] <= 0:
        raise PreconditionError("probe times must be positive")
    t_max = times[-1]
    if pad is None:
        pad = 4.0 * math.sqrt(4.0 * t_max)

    if domain is None:
        # radial about the source; y_dist only shifts labels, not the solve
        grid = RadialGrid(a=0.0, r_out=mollifier_width + pad, n_r=n_r, dim=3)
        u0 = mollifier_bump(grid.nodes(), mollifier_width)
        dt_cap = min(0.05, grid.h)
    else:
        if not isinstance(domain.hole, BallHole) or domain.dim != 3:
            raise PreconditionError("kernel probes need a dim-3 ball-hole domain")
        a = domain.hole.radius
        if y_dist - a <= 2.0 * mollifier_width:
            raise PreconditionError(
                f"source too close to the hole: dist = {y_dist - a}, "
                f"need > {2.0 * mollifier_width}"
            )
        grid = AxisymGrid(rho_max=pad, z_half=y_dist + pad, n_rho=n_rho, n_z=n_z,
                          hole=domain.hole)
        R, Z = grid.meshgrid()
        u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - y_dist) ** 2), mollifier_width)
        u0[grid.hole_mask()] = 0.0
        dt_cap = min(0.05, grid.h_rho, grid.h_z)
    m0 = float(np.sum(grid.volume_weights() * u0))
    u0 /= m0

    t0 = min(WARMUP_SPAN_WIDTHS * mollifier_width ** 2, 0.5 * times[0])
    warm_cap = min(WARMUP_SPAN_WIDTHS * mollifier_width ** 2 / WARMUP_STEPS, t0 / 8.0)
    stops = ((t0, warm_cap),) + tuple((t, dt_cap) for t in times)
    if domain is None:
        snaps, ledger = _crank_nicolson_run(grid, ThetaBoundary(1.0), u0, stops,
                                            LEDGER_STRIDE)
    else:
        snaps, ledger = _axisym_run(grid, Field(grid, u0), stops, LEDGER_STRIDE)
    # snaps[0] is the warm-up end, not a requested time
    return ProbeResult(snaps[1:], ledger, y_dist, mollifier_width, domain is None, m0)


def probe_smearing_estimate(domain: Optional[ExteriorDomain], y_dist: float,
                            mollifier_width: float, times: Tuple[float, ...],
                            **kwargs) -> dict:
    """L1 distance between the probes at width w and w/2, per time.

    Both probes carry unit mass, so the returned value is already the
    relative smearing scale; a small value certifies that the probe is
    close to the ideal kernel column at the probed times.
    """
    full = kernel_probe(domain, y_dist, mollifier_width, times, **kwargs)
    half = kernel_probe(domain, y_dist, 0.5 * mollifier_width, times, **kwargs)
    out = {}
    for t in times:
        s_full = full.snapshot_at(t)
        s_half = half.snapshot_at(t)
        w = s_full.grid.volume_weights()
        out[t] = float(np.sum(w * np.abs(s_full.values - s_half.values)))
    return out
