"""Time-stepping configuration (scheme fixed: Crank-Nicolson, far Dirichlet)."""

from dataclasses import dataclass
from typing import Tuple

from ..errors import PreconditionError


@dataclass(frozen=True)
class StepperConfig:
    """Step cap, snapshot times, and ledger density for one evolution.

    The scheme is Crank-Nicolson with homogeneous Dirichlet at the
    truncation boundary. dt caps every step. Each snapshot time, a repeated
    one once, is a `march.march` stop, reached exactly, never rounded; the run
    checks the stops and dt against its contract, `march.check_run`.
    ledger_stride is the step interval between mass/flux rows; 1 keeps
    the trapezoid time-integration error of the balance check at the dt
    scale.
    """

    dt: float
    snapshot_times: Tuple[float, ...]
    ledger_stride: int = 1

    def __post_init__(self):
        if self.ledger_stride < 1:
            raise PreconditionError("ledger_stride must be >= 1")
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    def stops(self) -> Tuple[Tuple[float, float], ...]:
        """(time, step cap) for each snapshot time, a repeated one once: the march's stops."""
        times = self.snapshot_times
        return tuple((t, self.dt) for t, prev in zip(times, (None,) + times) if t != prev)
