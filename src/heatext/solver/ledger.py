"""Mass ledger: time series of total mass and hole-boundary flux, with
rows at the exact times of a march's steps and stops."""

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import PreconditionError


@dataclass
class MassLedger:
    """Rows (t, M(t), F(t)) with F the flux through the hole boundary.

    For nonnegative data the mass is nonincreasing under Dirichlet/Robin
    conditions and constant (up to discretisation) under Neumann; the
    flux is what drains it: dM/dt = F.
    """

    times: List[float] = field(default_factory=list)
    masses: List[float] = field(default_factory=list)
    fluxes: List[float] = field(default_factory=list)

    def append(self, t: float, mass: float, flux: float) -> None:
        self.times.append(float(t))
        self.masses.append(float(mass))
        self.fluxes.append(float(flux))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self):
        return (
            np.asarray(self.times, dtype=float),
            np.asarray(self.masses, dtype=float),
            np.asarray(self.fluxes, dtype=float),
        )

    def mass_at(self, t: float) -> float:
        """Mass of the row at exactly time t; KeyError when there is none."""
        try:
            return self.masses[self.times.index(t)]
        except ValueError:
            raise KeyError(f"no ledger row at t = {t}") from None


def mass_balance_residual(ledger: MassLedger) -> float:
    """Discrete defect of dM/dt = F, normalised by the initial mass.

    Returns max_k |M(t_{k+1}) - M(t_k) - trapezoid(F; t_k, t_{k+1})| / M(t_0).
    """
    if len(ledger) < 3:
        raise PreconditionError("mass balance residual needs at least 3 ledger rows")
    t, m, f = ledger.as_arrays()
    dm = np.diff(m)
    int_f = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
    scale = abs(m[0])
    if scale == 0.0:
        return float(np.max(np.abs(dm - int_f)))
    return float(np.max(np.abs(dm - int_f)) / scale)
