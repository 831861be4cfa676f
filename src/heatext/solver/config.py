"""Time-stepping configuration (scheme fixed: Crank-Nicolson, far Dirichlet)."""

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import PreconditionError


@dataclass(frozen=True)
class StepperConfig:
    """Step cap, snapshot times, and ledger density for one evolution.

    The scheme is Crank-Nicolson with homogeneous Dirichlet at the
    truncation boundary. dt caps every step and must not exceed the grid
    spacing (accuracy guard; the scheme itself is unconditionally
    stable). Each snapshot time is a `march.march` stop, reached exactly,
    never rounded. ledger_stride is the step interval between mass/flux
    rows; 1 keeps the trapezoid time-integration error of the balance
    check at the dt scale.
    """

    dt: float
    snapshot_times: Tuple[float, ...]
    ledger_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise PreconditionError(f"dt must be positive, got {self.dt}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(0.0 <= t < math.inf for t in times):
            raise PreconditionError("snapshot times must be finite and nonnegative")
        if list(times) != sorted(times):
            raise PreconditionError("snapshot times must be increasing")
        if self.ledger_stride < 1:
            raise PreconditionError("ledger_stride must be >= 1")
        object.__setattr__(self, "snapshot_times", times)

    def stops(self) -> Tuple[Tuple[float, float], ...]:
        """(time, step cap) for each distinct snapshot time, the march's stops."""
        return tuple((t, self.dt) for t in dict.fromkeys(self.snapshot_times))
