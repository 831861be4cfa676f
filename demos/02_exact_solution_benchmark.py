"""Benchmark the radial solver against an exact exterior-domain solution.

Outside the unit ball with an absorbing (Dirichlet) boundary there is a
closed-form solution whose mass law is explicit:

    M(t) = 2 pi^(3/2) + 2 pi (t+1)^(-1/2),

so both the field values and the bookkeeping (mass, boundary flux) can
be checked against ground truth.
"""

import math

import numpy as np

from heatext import (
    Field,
    RadialGrid,
    StepperConfig,
    ThetaBoundary,
    evolve_radial,
    explicit_solution,
    explicit_solution_mass,
    mass_balance_residual,
)

T_MAX = 20.0
H = 1.0 / 64.0

a = 1.0
r_req = a + 6.0 * math.sqrt(4.0 * T_MAX)
n = int(math.ceil((r_req - a) / H))
grid = RadialGrid(a=a, r_out=a + n * H, n_r=n, dim=3)

vals = explicit_solution(grid.nodes(), 0.0)
vals[-1] = 0.0
u0 = Field(grid, vals, 0.0)

cfg = StepperConfig(dt=1.0 / 128.0, snapshot_times=(1.0, 5.0, 20.0))
snaps, ledger = evolve_radial(ThetaBoundary(0.0), u0, cfg)

r = grid.nodes()
win = r <= 21.0
print(f"grid: {n} cells, h = {H:g}, far radius {grid.r_out:g}\n")
print(" t      sup rel err    M(t) numeric   M(t) exact")
for s in snaps:
    exact = explicit_solution(r, s.time)
    err = np.max(np.abs(s.values - exact)[win]) / np.max(exact[win])
    print(f"{s.time:5.1f}   {err:10.2e}   {ledger.mass_at(s.time):12.6f}  "
          f"{explicit_solution_mass(s.time):12.6f}")

res = mass_balance_residual(ledger)
print(f"\nmass balance residual (dM/dt vs boundary flux): {res:.2e}")
print(f"flux at t=0: {ledger.fluxes[0]:+.5f}  (exact -pi = {-math.pi:+.5f})")
