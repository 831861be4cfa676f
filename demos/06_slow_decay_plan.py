"""No universal rate: data realising any prescribed decay floor.

The convergence u -> m Phi G has no rate valid for all integrable data.
Given any decreasing g -> 0, placing rescaled ball eigenfunctions in
far-apart balls produces a datum whose L1 error exceeds g(t) for all
late t. Each ball keeps three quarters of its mass on its watch
[t_n, t_{n+1}] (eigen-decay), while the Gaussian mass over that ball is
negligible by construction.

The plan generator computes (t_n, R_n, |x_n|); the unit-ball run checks
the eigen-decay rate that powers the whole construction.
"""

import numpy as np

from heatext import (
    BALL_EIGENVALUE,
    Field,
    RadialGrid,
    StepperConfig,
    SubSuperParams,
    ThetaBoundary,
    ball_eigenfunction,
    evolve_ball,
    optimal_datum_plan,
    optimality_check_l1,
    profile_radial_closed_form,
    supersolution_report,
)
from heatext.constructions import parse_g_spec

g, label = parse_g_spec("recip:4")
plan = optimal_datum_plan(g, 4, g_label=label)
print(f"plan for g(t) = 1/(t+4), floors g(t_n) = 2^-(n+2):")
print("  n     t_n        R_n        |x_n|        weight")
for row in plan.rows:
    print(f"  {row.n}  {row.t_n:9.2f}  {row.radius:8.1f}  {row.center_dist:12.1f}"
          f"   {row.weight:.4f}")

print("\nunit-ball eigen-decay check (mass must follow exp(-pi^2 t)):")
grid = RadialGrid(a=0.0, r_out=1.0, n_r=512, dim=3)
u0 = Field(grid, ball_eigenfunction(grid.nodes()))
cfg = StepperConfig(dt=1.0 / 2048.0, snapshot_times=(0.35,))
_, ledger = evolve_ball(1.0, u0, cfg)
t, m, _ = ledger.as_arrays()
slope = float(np.polyfit(t[t > 0], np.log(m[t > 0]), 1)[0])
print(f"  fitted exponent {slope:.4f} vs -pi^2 = {-BALL_EIGENVALUE:.4f}")

s = np.linspace(0.0, 0.4, 400)
rep = optimality_check_l1(plan, 2, s, np.exp(-BALL_EIGENVALUE * s))
print(f"  component n=2: {rep.component_mass_text()},\n  gaussian term "
      f"{rep.gaussian_term_max:.2e} "
      f"<= {rep.gaussian_term_cap:.2e} -> lower bound {rep.lower_bound:.4f}")

print("\nnear-hole supersolution (the machinery of the sup-norm proof):")
z_rep = supersolution_report(SubSuperParams(gamma=0.25, kappa=1.0),
                             profile_radial_closed_form(3, 1.0, ThetaBoundary(0.0)))
print(z_rep.text())
