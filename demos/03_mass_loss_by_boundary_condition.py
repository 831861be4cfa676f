"""Mass loss through the hole, boundary condition by boundary condition.

One nonnegative datum, three conditions. Dirichlet absorbs everything
the boundary touches, Robin absorbs at a finite rate, Neumann reflects.
The retained mass converges to the profile-weighted integral of the
datum, and solutions order pointwise: Dirichlet <= Robin <= Neumann.

Also shows the dim-2 phenomenon: even a distant bump eventually loses
all its mass through an absorbing hole.
"""

import math

import numpy as np

from heatext import (
    BallHole,
    Field,
    PlanarGrid,
    RadialGrid,
    RectHole,
    StepperConfig,
    ThetaBoundary,
    asymptotic_mass,
    evolve_planar,
    evolve_radial,
    explicit_solution,
    profile_closed_form,
)
from heatext.presets import make_planar_datum

T_MAX = 50.0
H = 1.0 / 32.0

a = 1.0
n = int(math.ceil((a + 6.0 * math.sqrt(4.0 * T_MAX) - a) / H))
grid = RadialGrid(a=a, r_out=a + n * H, n_r=n, dim=3)
vals = explicit_solution(grid.nodes(), 0.0)
vals[-1] = 0.0
u0 = Field(grid, vals, 0.0)
cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(T_MAX,))

print("dim 3, unit-ball hole, shared datum:")
print(" theta    M(0)      M(50)     predicted limit (int Phi u0)")
finals = {}
for theta in (0.0, 0.5, 1.0):
    tb = ThetaBoundary(theta)
    snaps, ledger = evolve_radial(tb, u0, cfg)
    m_pred = asymptotic_mass(u0, profile_closed_form(3, BallHole(a), tb))
    finals[theta] = snaps[-1].values
    print(f" {theta:4.2f}  {ledger.masses[0]:8.4f}  {ledger.mass_at(T_MAX):8.4f}"
          f"   {m_pred:8.4f}")

print("\npointwise ordering at t=50: "
      f"max(dirichlet - robin) = {np.max(finals[0.0] - finals[0.5]):.2e}, "
      f"max(robin - neumann) = {np.max(finals[0.5] - finals[1.0]):.2e}")

# dim 2: all mass goes eventually
hole = RectHole(1.0, 1.0)
pg = PlanarGrid(half_width=40.0, n=160, hole=hole)
pu0 = make_planar_datum("gaussian-bump:3,0,1.5", pg)
pcfg = StepperConfig(dt=0.5, snapshot_times=(1.0, 10.0, 50.0))
_, pledger = evolve_planar(ThetaBoundary(0.0), pu0, pcfg)
print("\ndim 2, Dirichlet rectangle hole, bump at distance 3:")
for t in (1.0, 10.0, 50.0):
    print(f"  M({t:3g}) / M(0) = {pledger.mass_at(t) / pledger.masses[0]:.4f}")
print("(the dim-2 limit is zero: the profile vanishes identically)")
