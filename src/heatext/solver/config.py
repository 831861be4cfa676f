"""Time-stepping configuration (scheme fixed: Crank-Nicolson, far Dirichlet)."""

from dataclasses import dataclass
from typing import Tuple

from ..errors import PreconditionError


@dataclass(frozen=True)
class StepperConfig:
    """dt, snapshot times, and ledger density for one evolution.

    The scheme is Crank-Nicolson with homogeneous Dirichlet at the
    truncation boundary. dt must not exceed the grid spacing (accuracy
    guard; the scheme itself is unconditionally stable). ledger_stride
    is the step interval between mass/flux rows; 1 keeps the trapezoid
    time-integration error of the balance check at the dt scale.
    """

    dt: float
    snapshot_times: Tuple[float, ...]
    ledger_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise PreconditionError(f"dt must be positive, got {self.dt}")
        times = tuple(float(t) for t in self.snapshot_times)
        if any(t < 0 for t in times):
            raise PreconditionError("snapshot times must be nonnegative")
        if list(times) != sorted(times):
            raise PreconditionError("snapshot times must be increasing")
        if self.ledger_stride < 1:
            raise PreconditionError("ledger_stride must be >= 1")
        object.__setattr__(self, "snapshot_times", times)

    @property
    def n_steps(self) -> int:
        if not self.snapshot_times:
            return 0
        return int(round(self.snapshot_times[-1] / self.dt))

    def snapshot_steps(self) -> dict:
        """Map step index -> requested time for every snapshot."""
        return {int(round(t / self.dt)): t for t in self.snapshot_times}
