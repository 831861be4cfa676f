"""Time-stepping configuration (scheme fixed: Crank-Nicolson, far Dirichlet).

A run's steps are set by its stops, (time, step cap) pairs that the march
reaches exactly. Every evolution takes the graded stops of `graded_stops`:
a start-up of steps of at most dt, then a geometric ladder on which the
step grows with t, since the solution's time scale does. Crank-Nicolson's
local error then stays second order in the growth GROWTH.
"""

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import PreconditionError

GROWTH = 0.005        # a step cap after the start-up: max(dt, GROWTH * t_prev)
LADDER_RATIO = 1.25   # consecutive ladder stops
WARMUP_DAMPING = 1e-4  # a warm-up damps every mode of the grid at least this much


def warmup_steps(lam_bar: float, t0: float) -> int:
    """Equal Crank-Nicolson steps over [0, t0] (at least 8) that damp every
    mode of -L with eigenvalue from ln(1/WARMUP_DAMPING) / t0 up to lam_bar
    by a factor of at most WARMUP_DAMPING.

    For lam dt >> 1 the amplification is about -(1 - 4 / (lam dt)), so N
    equal steps leave a factor of about exp(-4 N^2 / (lam t0)); the count is
    N = max(8, ceil(sqrt(ln(1/WARMUP_DAMPING) lam_bar t0 / 4))). Steps of at
    most t0 / N damp at least as much. For a lam_bar t0 near the float
    limit, N is the product of the roots, which stays finite.
    """
    n = math.sqrt(math.log(1.0 / WARMUP_DAMPING) * lam_bar * t0 / 4.0)
    if n == math.inf:  # the product overflows, its root does not
        n = math.sqrt(lam_bar) * math.sqrt(math.log(1.0 / WARMUP_DAMPING) * t0 / 4.0)
    return max(8, math.ceil(n))


def graded_stops(times, dt: float, growth: float, lam_bar: float):
    """The stops of a run to the given times, in their order.

    Start-up: up to t_s = dt / growth, steps of at most dt / 2^k, the
    largest such cap at most t_s / warmup_steps(lam_bar, t_s), which damps
    every mode of the run's operator, whose spectrum lam_bar bounds, before
    a step grows. Halving dt gives runs whose bounds differ a little, such
    as a sweep's Robin thetas, one start-up, so a pointwise comparison of
    their snapshots does not see different start-up residues.
    Ladder: stops at t_s LADDER_RATIO^k, merged with the times, each
    covered with cap max(dt, growth t_prev), t_prev the stop before it. A
    run that ends by t_s, on a grid where the start-up cap is dt, stops
    only at its times, each with cap dt.
    """
    t_s = dt / growth
    startup = dt
    while startup > t_s / warmup_steps(lam_bar, t_s):
        startup /= 2.0
    end = max(times, default=0.0)
    rungs = []
    while t_s * LADDER_RATIO ** len(rungs) < end:
        rungs.append(t_s * LADDER_RATIO ** len(rungs))
    stops, t_prev = [], 0.0
    for t in times:
        for stop in [r for r in rungs if t_prev < r < t] + [t]:
            stops.append((stop, startup if stop <= t_s else max(dt, growth * t_prev)))
            t_prev = stop
    return tuple(stops)


@dataclass(frozen=True)
class StepperConfig:
    """Step cap and snapshot times for one evolution.

    The scheme is Crank-Nicolson with homogeneous Dirichlet at the
    truncation boundary. dt is the run's step up to t_s = dt / GROWTH
    (halved while the start-up damping rule asks for it); after t_s the
    cap grows as GROWTH t (`graded_stops`), with stops between the
    snapshot times. Each snapshot time, a repeated one once, is a
    `march.march` stop, reached exactly, never rounded, and the run
    returns its snapshots at exactly those times. The run checks the stops
    against its contract, `march.check_run`. The run's ledger has a
    mass/flux row at t = 0 and after every step, which keeps the trapezoid
    time-integration error of the balance check at the step scale.
    """

    dt: float
    snapshot_times: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    def stops(self, lam_bar: float, spacing: float) -> Tuple[Tuple[float, float], ...]:
        """(time, step cap) stops of the march on a grid of spacing h: each
        snapshot time, a repeated one once, and the ladder between them,
        after a start-up sized by lam_bar, the Gershgorin bound of the run's
        own operator (`radial.radial_stiffness`, `grids.stiffness`).

        dt must lie in (0, h] (to 1e-12 of h), the accuracy guard on the
        run's step, or this raises PreconditionError. `march.check_run`
        checks each cap of the stops against h too, but a start-up halved
        to h by the damping rule and a ladder that starts at GROWTH t_s = dt
        would pass that check.
        """
        if not 0.0 < self.dt <= spacing * (1.0 + 1e-12):
            raise PreconditionError(f"accuracy guard: dt = {self.dt:g} must lie in "
                                    f"(0, h = {spacing:g}]")
        times = self.snapshot_times
        times = tuple(t for t, prev in zip(times, (None,) + times) if t != prev)
        return graded_stops(times, self.dt, GROWTH, lam_bar)
