"""How the retained mass spreads: m Phi G describes the late-time field.

The solution of the exterior problem approaches the whole-space Gaussian
carrying the retained mass m, corrected by the profile Phi near the
hole. The scaled error norms

    t^((N/2)(1 - 1/p)) || u - m Phi G ||_p,   p = 1, 2, inf

all tend to zero; this script watches them fall over two decades and
fits the decay rate of the raw sup error.
"""

import math
import os

from heatext import (
    BallHole,
    Field,
    RadialGrid,
    RateSeries,
    StepperConfig,
    ThetaBoundary,
    asymptotic_mass,
    evolve_radial,
    explicit_solution,
    profile_closed_form,
    rate_fit,
)
from heatext.svgplot import line_plot_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

T_MAX = 100.0
H = 1.0 / 32.0
a = 1.0
n = int(math.ceil(6.0 * math.sqrt(4.0 * T_MAX) / H))
grid = RadialGrid(a=a, r_out=a + n * H, n_r=n, dim=3)
vals = explicit_solution(grid.nodes(), 0.0)
vals[-1] = 0.0
u0 = Field(grid, vals, 0.0)

times = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=times)
snaps, ledger = evolve_radial(ThetaBoundary(0.0), u0, cfg)

profile = profile_closed_form(3, BallHole(a), ThetaBoundary(0.0))
m = asymptotic_mass(u0, profile)
print(f"retained mass m = {m:.6f} (closed form 2 pi^1.5 = {2 * math.pi ** 1.5:.6f})\n")

series = RateSeries.from_snapshots(snaps, m, profile, ledger)
print("   t     scaled L1     scaled L2     scaled sup")
for i, t in enumerate(series.times):
    print(f"{t:6.1f}  {series.scaled[1.0][i]:.4e}  {series.scaled[2.0][i]:.4e}"
          f"  {series.scaled[math.inf][i]:.4e}")

fit = rate_fit(series.times, series.raw[math.inf], (10.0, 100.0))
print(f"\nraw sup-error decay exponent over [10, 100]: {fit.exponent:.3f} "
      "(strictly better than the -1.5 of the field itself)")

line_plot_svg(os.path.join(OUT, "scaled_errors.svg"),
              [(series.times, series.scaled[p], f"p={'inf' if math.isinf(p) else '%g' % p}")
               for p in (1.0, 2.0, math.inf)],
              xlabel="t", ylabel="scaled error", title="scaled error norms",
              logx=True, logy=True)
print(f"plot under {OUT}")
