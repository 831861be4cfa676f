"""Time-stepping configuration (scheme fixed: Crank-Nicolson, far Dirichlet)."""

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class StepperConfig:
    """Step cap and snapshot times for one evolution.

    The scheme is Crank-Nicolson with homogeneous Dirichlet at the
    truncation boundary. dt caps every step. Each snapshot time, a repeated
    one once, is a `march.march` stop, reached exactly, never rounded; the run
    checks the stops and dt against its contract, `march.check_run`. The
    run's ledger has a mass/flux row at t = 0 and after every step, which
    keeps the trapezoid time-integration error of the balance check at the
    dt scale.
    """

    dt: float
    snapshot_times: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    def stops(self) -> Tuple[Tuple[float, float], ...]:
        """(time, step cap) for each snapshot time, a repeated one once: the march's stops."""
        times = self.snapshot_times
        return tuple((t, self.dt) for t, prev in zip(times, (None,) + times) if t != prev)
