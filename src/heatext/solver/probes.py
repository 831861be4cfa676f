"""Kernel probes: evolve a unit-mass mollifier to approximate a kernel column.

The probe datum is the compactly supported bump (1 - (d/w)^2)^4 scaled to
unit discrete mass at the source point y. Evolving it approximates the
heat kernel k(., y, t) up to mollifier smearing, which is estimated by
halving the width and comparing. Two code paths:

  - whole space (domain None): the problem is radial about y, solved on
    a 1d grid in s = |x - y| with the smooth-origin parity row;
  - exterior domain (Dirichlet ball hole): the source sits on the z-axis
    at distance y from the origin and the evolution is axisymmetric.

Stepping is two-phase: a warmup over [0, 8 w^2] at dt = w^2/64 resolves
the sharp initial transient (Crank-Nicolson time error scales with
(dt / w^2)^2 there), then the regular step carries the smooth field.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..domain import BallHole, ExteriorDomain, ThetaBoundary, DIRICHLET
from ..errors import PreconditionError, UnsupportedFeatureError
from .axisym import _axisym_run
from .config import StepperConfig
from .grids import AxisymGrid, Field, RadialGrid
from .ledger import TIME_MATCH_TOL, MassLedger
from .radial import _crank_nicolson_run

WARMUP_SPAN_WIDTHS = 8.0   # warmup covers 8 w^2 time units
WARMUP_STEPS = 512


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
        best = min(self.snapshots, key=lambda s: abs(s.time - t))
        if abs(best.time - t) > TIME_MATCH_TOL * max(1.0, t):
            raise KeyError(f"no snapshot near t = {t} (closest: {best.time})")
        return best

    def peak(self, t: float) -> float:
        return float(np.max(self.snapshot_at(t).values))


def _two_phase_run(run_fn, u0_values, times: Tuple[float, ...], width: float,
                   dt_cap: float, dt: Optional[float]):
    """Warmup at fine dt, then the main phase; snapshots merged with
    absolute time stamps."""
    t_min, t_max = times[0], times[-1]
    t0 = min(WARMUP_SPAN_WIDTHS * width ** 2, 0.5 * t_min)
    n_warm = max(8, int(math.ceil(t0 / (width ** 2 / (WARMUP_STEPS / WARMUP_SPAN_WIDTHS)))))
    cfg1 = StepperConfig(dt=t0 / n_warm, snapshot_times=(t0,),
                         ledger_stride=max(1, n_warm // 4))
    snaps1, led1 = run_fn(u0_values, cfg1)
    u_mid = np.array(snaps1[-1].values)

    span = t_max - t0
    if dt is None:
        n2 = max(2, int(math.ceil(span / dt_cap)))
        dt = span / n2
    snap_offsets = sorted({max(dt, round((t - t0) / dt) * dt) for t in times})
    cfg2 = StepperConfig(dt=dt, snapshot_times=tuple(snap_offsets))
    snaps2, led2 = run_fn(u_mid, cfg2)

    snapshots = [Field(s.grid, s.values, t0 + s.time) for s in snaps2]
    ledger = MassLedger()
    for t, m, f in zip(*led1.as_arrays()):
        ledger.append(t, m, f)
    t2, m2, f2 = led2.as_arrays()
    for t, m, f in zip(t2[1:], m2[1:], f2[1:]):
        ledger.append(t0 + t, m, f)
    return snapshots, ledger


def kernel_probe(domain: Optional[ExteriorDomain], y_dist: float,
                 mollifier_width: float, times: Tuple[float, ...], *,
                 theta: ThetaBoundary = DIRICHLET,
                 n_rho: int = 256, n_z: int = 512, n_r: int = 2048,
                 dt: Optional[float] = None, pad: Optional[float] = None) -> ProbeResult:
    """Evolve a unit-mass mollifier at distance y_dist from the origin.

    domain None runs the whole-space radial path (the hole disabled);
    otherwise the domain must have a Dirichlet ball hole and the source
    must satisfy dist(y, hole) > 2 * mollifier_width.
    """
    if mollifier_width <= 0:
        raise PreconditionError("mollifier_width must be positive")
    times = tuple(sorted(float(t) for t in times))
    if not times or times[0] <= 0:
        raise PreconditionError("probe times must be positive")
    t_max = times[-1]
    if pad is None:
        pad = 4.0 * math.sqrt(4.0 * t_max)

    if domain is None:
        # radial about the source; y_dist only shifts labels, not the solve
        r_out = mollifier_width + pad
        grid = RadialGrid(a=0.0, r_out=r_out, n_r=n_r, dim=3)
        s = grid.nodes()
        u0 = mollifier_bump(s, mollifier_width)
        w = grid.volume_weights()
        m0 = float(np.sum(w * u0))
        u0 /= m0

        def run_fn(values, cfg):
            return _crank_nicolson_run(grid, ThetaBoundary(1.0), values, cfg)

        dt_cap = min(0.05, grid.h)
        snaps, ledger = _two_phase_run(run_fn, u0, times, mollifier_width,
                                       dt_cap, dt)
        return ProbeResult(snaps, ledger, y_dist, mollifier_width, True, m0)

    if not theta.is_dirichlet:
        raise UnsupportedFeatureError("kernel probes support Dirichlet holes only")
    if not isinstance(domain.hole, BallHole) or domain.dim != 3:
        raise PreconditionError("kernel probes need a dim-3 ball-hole domain")
    a = domain.hole.radius
    if y_dist - a <= 2.0 * mollifier_width:
        raise PreconditionError(
            f"source too close to the hole: dist = {y_dist - a}, "
            f"need > {2.0 * mollifier_width}"
        )
    rho_max = pad
    z_half = y_dist + pad
    grid = AxisymGrid(rho_max=rho_max, z_half=z_half, n_rho=n_rho, n_z=n_z,
                      hole_radius=a)
    R, Z = grid.meshgrid()
    d = np.sqrt(R ** 2 + (Z - y_dist) ** 2)
    u0 = mollifier_bump(d, mollifier_width)
    u0[grid.hole_mask()] = 0.0
    w = grid.volume_weights()
    m0 = float(np.sum(w * u0))
    u0 /= m0

    def run_fn(values, cfg):
        return _axisym_run(grid, Field(grid, values), cfg)

    dt_cap = min(0.05, grid.h_rho, grid.h_z)
    snaps, ledger = _two_phase_run(run_fn, u0, times, mollifier_width,
                                   dt_cap, dt)
    for s in snaps:
        s.lock()
    return ProbeResult(snaps, ledger, y_dist, mollifier_width, False, m0)


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
