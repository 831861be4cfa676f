"""Kernel columns: how close is the exterior-domain kernel to the free one?

Evolving a unit-mass mollifier at y approximates the kernel column
k(., y, t). Its L1 distance from the free-space Gaussian centred at y is
controlled by

    2 (1 - Phi0(y)) + (Gaussian mass inside the hole),

so distant sources barely feel the hole. The script probes two source
distances and compares gap against bound.
"""

from heatext import (
    BallHole,
    GaussianParams,
    ThetaBoundary,
    gaussian_value,
    kernel_l1_gap,
    kernel_probe,
    profile_radial_closed_form,
)

T = 5.0
profile0 = profile_radial_closed_form(3, 1.0, ThetaBoundary(0.0))

print("whole-space sanity: probe with the hole disabled")
free = kernel_probe(None, 0.0, 0.09, (1.0,), n_r=4096, pad=8.0)
peak = free.peak(1.0)
exact = gaussian_value(0.0, GaussianParams(3, 1.0))
print(f"  peak at t=1: {peak:.6f} vs exact kernel {exact:.6f} "
      f"(rel {abs(peak - exact) / exact:.1e})\n")

print(f"exterior domain, absorbing unit-ball hole, t = {T:g}:")
print("  |y|   L1 gap    bound   retained probe mass")
for y in (3.0, 6.0):
    probe = kernel_probe(BallHole(1.0), y, 0.5, (T,), n_rho=160, n_z=320)
    rep = kernel_l1_gap(probe, T, profile0)
    t, m, _ = probe.ledger.as_arrays()
    print(f"  {y:3g}   {rep.gap:.4f}   {rep.bound:.4f}   {m[-1]:.4f}")
print("\nthe gap shrinks as the source moves away: the hole becomes invisible")
