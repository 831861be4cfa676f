"""Asymptotic profiles of an exterior domain, three ways.

The profile Phi is the bounded harmonic function that carries the
boundary condition at the hole and tends to 1 at infinity. It decides
how much mass a solution keeps: Dirichlet absorbs the most (Phi < 1
near the hole), Neumann keeps everything (Phi = 1).

This script builds the closed form for the unit-ball hole, reproduces
it with truncated harmonic solves plus extrapolation, and shows the
dim-2 degeneracy where the truncated solves sink toward zero.
"""

import os

import numpy as np

from heatext import (
    BallHole,
    ThetaBoundary,
    profile_closed_form,
    profile_decay_check,
    profile_elliptic,
)
from heatext.svgplot import line_plot_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# closed forms for a few boundary conditions
series = []
for theta in (0.0, 0.25, 0.5, 1.0):
    table = profile_closed_form(3, BallHole(1.0), ThetaBoundary(theta))
    c = table.coefficient
    print(f"theta = {theta:4.2f}: Phi(r) = 1 - {c:.4f} / r, Phi(2) = {table.evaluate(2.0):.4f}")
    series.append((table.r, table.values, f"theta={theta:g}"))
line_plot_svg(os.path.join(OUT, "profiles.svg"), series, xlabel="r",
              ylabel="Phi", title="asymptotic profiles, unit ball hole")

# elliptic route: solve on Omega intersect B(0, R), boundary value 1 at R,
# and extrapolate the known 1/(R - q) boundary influence away
elliptic = profile_elliptic(3, BallHole(1.0), ThetaBoundary(0.0), (8.0, 16.0, 32.0))
closed = profile_closed_form(3, BallHole(1.0), ThetaBoundary(0.0))
agree = np.max(np.abs(closed.evaluate(elliptic.r) - elliptic.values))
print(f"\nelliptic limit vs closed form: sup difference {agree:.2e}")
for R, vals in sorted(elliptic.per_radius.items()):
    i = np.argmin(np.abs(elliptic.r - 2.0))
    print(f"  phi_R(2) at R={R:4g}: {vals[i]:.6f}  (limit 0.5)")

# derivative decay: |D^k Phi| falls like r^-(1+k) in dim 3
for order in (0, 1, 2):
    rep = profile_decay_check(closed, order)
    print(f"decay fit, order {order}: exponent {rep.exponent:+.3f} "
          f"(target <= {rep.target:+.2f})")

# dim 2: the truncated solves keep sinking; the limit is zero
table2 = profile_elliptic(2, BallHole(1.0), ThetaBoundary(0.0), (8.0, 16.0, 32.0), h=0.25)
g = table2.planar_fields[8.0].grid
i, j = round((4.0 + g.half_width) / g.h), round(g.half_width / g.h)
print("\ndim 2, Dirichlet disk hole: phi_R at the point (4, 0):")
for R in (8.0, 16.0, 32.0):
    print(f"  R={R:4g}: {table2.planar_fields[R].values[i, j]:.5f}")
print("monotone violations:", table2.elliptic_monotone_violations())
print(f"\nplots under {OUT}")
