"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion.

Heavy runs (h = 1/64, dt = 1/128, far radius by the sizing rule) are
session fixtures in conftest.py and shared across criteria; the
truncation audit reruns them at twice the far radius and demands
unchanged verdicts.
"""

import math
import os

import numpy as np

import heatext.asymptotics as asym
from heatext.constructions import (
    BALL_EIGENVALUE,
    EXPLICIT_ASYMPTOTIC_MASS,
    SubSuperParams,
    ball_eigenfunction,
    explicit_solution,
    explicit_solution_mass,
    optimal_datum_plan,
    parse_g_spec,
    plan_condition_values,
    supersolution_report,
)
from heatext.domain import BallHole, ThetaBoundary
from heatext.gaussian import (
    GaussianParams,
    gaussian_l1_time_shift_bound,
    gaussian_l1_time_shift_quadrature,
    gaussian_mass_quadrature,
    gaussian_value,
)
from heatext.profiles import profile_closed_form, profile_decay_check, profile_elliptic
from heatext.solver import Field, RadialGrid, StepperConfig, evolve_ball
from heatext.svgplot import line_plot_svg

M_ASYM = EXPLICIT_ASYMPTOTIC_MASS
DIRICHLET = ThetaBoundary(0.0)


def _report(num, name, passed, detail):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {num}: {name}: {detail}"


# ---------------------------------------------------------------- helpers
# criteria 1-5 as verdict functions so the truncation audit can rerun them

def _c1_values(run):
    r = run.grid.nodes()
    win = r <= 21.0
    errs = {}
    for s in run.snapshots:
        exact = explicit_solution(r, s.time)
        errs[s.time] = float(np.max(np.abs(s.values - exact)[win])
                             / np.max(np.abs(exact)[win]))
    return errs


def _c2_values(run):
    t, m, _ = run.ledger.as_arrays()
    mass_dev = float(np.max(np.abs(m - explicit_solution_mass(t))) / m[0])
    from heatext.solver import mass_balance_residual
    return mass_dev, mass_balance_residual(run.ledger)


def _c3_values(run):
    gap = abs(run.ledger.mass_at(200.0) - M_ASYM)
    quad_gap = abs(run.m - M_ASYM)
    return gap, quad_gap


def _c4_values(run):
    prof = profile_closed_form(3, BallHole(1.0), DIRICHLET)
    s10 = asym.error_norms(run.snapshot_at(10.0), M_ASYM, prof)[math.inf][1]
    s100 = asym.error_norms(run.snapshot_at(100.0), M_ASYM, prof)[math.inf][1]
    return s10, s100


def _c5_values(run):
    prof = profile_closed_form(3, BallHole(1.0), DIRICHLET)
    r20 = asym.error_norms(run.snapshot_at(20.0), M_ASYM, prof)[1.0][0]
    r200 = asym.error_norms(run.snapshot_at(200.0), M_ASYM, prof)[1.0][0]
    return r20, r200


def _verdicts_1_to_5(run100, run200):
    errs = _c1_values(run100)
    mass_dev, balance = _c2_values(run100)
    gap3, quad3 = _c3_values(run200)
    s10, s100 = _c4_values(run200)
    r20, r200 = _c5_values(run200)
    return {
        1: max(errs.values()) <= 1e-3,
        2: mass_dev <= 2e-3 and balance <= 2e-3,
        3: gap3 <= 0.47 and quad3 <= 1e-6,
        4: s100 <= 0.5 * s10,
        5: r200 <= 0.5 * r20,
    }


# ---------------------------------------------------------------- criteria

def test_c01_exact_solution_regression(run_t100):
    errs = _c1_values(run_t100)
    worst = max(errs.values())
    passed = worst <= 1e-3 and run_t100.elapsed < 30.0
    _report(1, "exact-solution regression",
            passed,
            f"max rel error {worst:.3e} (tol 1e-3) at t in {sorted(errs)}, "
            f"runtime {run_t100.elapsed:.1f}s (target < 30s)")


def test_c02_mass_law_and_balance(run_t100):
    mass_dev, balance = _c2_values(run_t100)
    _report(2, "mass law and balance residual",
            mass_dev <= 2e-3 and balance <= 2e-3,
            f"mass dev {mass_dev:.3e}, balance residual {balance:.3e} (tol 2e-3)")


def test_c03_asymptotic_mass(run_t200):
    gap, quad_gap = _c3_values(run_t200)
    _report(3, "asymptotic mass",
            gap <= 0.47 and quad_gap <= 1e-6,
            f"|M(200) - m| = {gap:.4f} (tol 0.47), "
            f"quadrature gap {quad_gap:.2e} (tol 1e-6)")


def test_c04_sup_norm_convergence(run_t200):
    s10, s100 = _c4_values(run_t200)
    _report(4, "sup-norm convergence (scaled error halves per decade)",
            s100 <= 0.5 * s10,
            f"t^1.5 sup error: {s100:.4e} at t=100 vs {s10:.4e} at t=10 "
            f"(ratio {s100 / s10:.3f} <= 0.5)")


def test_c05_l1_convergence(run_t200):
    r20, r200 = _c5_values(run_t200)
    prof = profile_closed_form(3, BallHole(1.0), DIRICHLET)
    ladder = [asym.error_norms(run_t200.snapshot_at(t), M_ASYM, prof)[1.0][0]
              for t in (10.0, 20.0, 100.0, 200.0)]
    decreasing = all(a > b for a, b in zip(ladder, ladder[1:]))
    _report(5, "L1 convergence (raw error halves per decade)",
            r200 <= 0.5 * r20 and decreasing,
            f"L1 error: {r200:.4e} at t=200 vs {r20:.4e} at t=20 "
            f"(ratio {r200 / r20:.3f} <= 0.5), decreasing on [10, 200]: {decreasing}")


def test_c06_interpolation(run_t200):
    prof = profile_closed_form(3, BallHole(1.0), DIRICHLET)
    worst = -math.inf
    for t in (10.0, 100.0):
        norms = asym.error_norms(run_t200.snapshot_at(t), M_ASYM, prof)
        excess = norms[2.0][1] - (math.sqrt(norms[1.0][1] * norms[math.inf][1]) + 1e-6)
        worst = max(worst, excess)
    _report(6, "Lp interpolation consistency", worst <= 0.0,
            f"max excess over sqrt(p1 x pinf) + 1e-6: {worst:.3e}")


def test_c07_theta_monotonicity(theta_family_t10):
    worst = 0.0
    for t in (1.0, 10.0):
        s0 = theta_family_t10[0.0].snapshot_at(t).values
        s5 = theta_family_t10[0.5].snapshot_at(t).values
        s1 = theta_family_t10[1.0].snapshot_at(t).values
        worst = max(worst, float(np.max(s0 - s5)), float(np.max(s5 - s1)))
    _report(7, "theta monotonicity", worst <= 1e-8,
            f"max pointwise ordering violation {worst:.3e} (tol 1e-8)")


def test_c08_neumann_conservation(neumann_t100):
    t, m, _ = neumann_t100.ledger.as_arrays()
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    _report(8, "Neumann conservation", drift <= 1e-4,
            f"max relative drift {drift:.3e} over t in [0, 100] (tol 1e-4)")


def test_c09_dim2_mass_loss(planar_masloss_run):
    _, _, _, ledger, elapsed = planar_masloss_run
    m1 = ledger.mass_at(1.0)
    m10 = ledger.mass_at(10.0)
    m100 = ledger.mass_at(100.0)
    m0 = ledger.masses[0]
    passed = m100 < m10 < m1 and m100 / m0 <= 0.9
    _report(9, "dim-2 Dirichlet mass loss", passed,
            f"M(1)={m1:.4f} > M(10)={m10:.4f} > M(100)={m100:.4f}, "
            f"M(100)/M(0) = {m100 / m0:.3f} <= 0.9 ({elapsed:.0f}s)")


def test_c10_profile_suite():
    msgs, ok = [], True

    closed = profile_closed_form(3, BallHole(1.0), DIRICHLET)
    h = 1.0 / 256.0
    for theta in (DIRICHLET, ThetaBoundary(0.5)):
        cf = profile_closed_form(3, BallHole(1.0), theta)
        el = profile_elliptic(3, BallHole(1.0), theta, (8.0, 16.0, 32.0), h=h)
        agree = float(np.max(np.abs(cf.evaluate(el.r) - el.values)))
        ok &= agree <= 1e-4
        msgs.append(f"theta={theta.theta:g} agreement {agree:.2e}")
        ok &= el.elliptic_monotone_violations(tol=1e-13) == 0
        ok &= abs(el.boundary_residual()) <= 50.0 * h ** 2
    ok &= abs(closed.boundary_residual()) <= 1e-10

    el2 = profile_elliptic(2, BallHole(1.0), DIRICHLET, (8.0, 16.0, 32.0, 64.0), h=0.25)
    viol = el2.elliptic_monotone_violations(tol=1e-12)
    ok &= viol == 0
    msgs.append(f"dim-2 monotone violations {viol}")

    for order in (0, 1, 2):
        rep = profile_decay_check(closed, order)
        ok &= rep.passed
        msgs.append(f"decay order {order}: {rep.exponent:.3f} <= {rep.target:g}")
    _report(10, "profile suite", ok, "; ".join(msgs))


def test_c11_kernel_gap_matrix(kernel_probe_matrix):
    probes, elapsed = kernel_probe_matrix
    ok = elapsed < 300.0
    msgs = [f"runtime {elapsed:.0f}s (target < 300s)"]
    gaps = {}
    for y in (3.0, 6.0):
        for t in (5.0, 10.0):
            rep = asym.kernel_l1_gap(probes[y], t)
            gaps[(y, t)] = rep.gap
            ok &= rep.passed
            msgs.append(f"y={y:g},t={t:g}: gap {rep.gap:.3f} <= bound {rep.bound:.3f}")
    ok &= gaps[(6.0, 10.0)] < gaps[(3.0, 10.0)]
    msgs.append(f"ordering gap(6)={gaps[(6.0, 10.0)]:.3f} < gap(3)={gaps[(3.0, 10.0)]:.3f}")
    _report(11, "kernel column comparison", ok, "; ".join(msgs))


def test_c12_gaussian_module():
    ok = True
    msgs = []
    worst_norm = 0.0
    for dim in (2, 3):
        for t in (0.1, 1.0, 10.0):
            dev = abs(gaussian_mass_quadrature(GaussianParams(dim, t)) - 1.0)
            worst_norm = max(worst_norm, dev)
    ok &= worst_norm <= 1e-8
    msgs.append(f"normalisation dev {worst_norm:.1e} (tol 1e-8)")

    rng = np.random.default_rng(5)
    worst_ss = 0.0
    for _ in range(40):
        lam, x, t = rng.uniform(0.5, 3.0), rng.uniform(0.0, 4.0), rng.uniform(0.2, 9.0)
        lhs = gaussian_value(x, GaussianParams(3, t))
        rhs = lam ** 3 * gaussian_value(lam * x, GaussianParams(3, lam ** 2 * t))
        worst_ss = max(worst_ss, abs(lhs - rhs) / lhs)
    ok &= worst_ss <= 1e-13
    msgs.append(f"self-similarity dev {worst_ss:.1e} (machine)")

    worst_shift = -math.inf
    for (t, d) in ((10.0, 1.0), (100.0, 1.0), (50.0, 5.0)):
        quad = gaussian_l1_time_shift_quadrature(t, d, 3)
        bound = gaussian_l1_time_shift_bound(t, d, 3)
        worst_shift = max(worst_shift, quad - bound)
    ok &= worst_shift <= 1e-8
    msgs.append(f"time-shift: max (quadrature - bound) = {worst_shift:.2e} (tol 1e-8)")
    _report(12, "Gaussian kernel module", ok, "; ".join(msgs))


def test_c13_herraiz_figure(tmp_path):
    comp = asym.herraiz_compare(100.0)
    svg = line_plot_svg(
        str(tmp_path / "herraiz.svg"),
        [(comp.r, comp.exact, "exact"),
         (comp.r, comp.theorem_pred, "retained-mass prediction"),
         (comp.r, comp.herraiz_pred, "initial-mass prediction")],
        xlabel="r", ylabel="u", title="late-time comparison, t=100")
    ok = comp.gap_theorem <= 0.1 and comp.gap_herraiz >= 0.4 and os.path.exists(svg)
    _report(13, "figure reproduction", ok,
            f"sup-relative gaps: retained-mass {comp.gap_theorem:.3f} <= 0.1, "
            f"initial-mass {comp.gap_herraiz:.3f} >= 0.4; SVG emitted")


def test_c14_optimality_constructions():
    ok = True
    msgs = []
    g, _ = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 4)
    for row in plan.rows:
        vals = plan_condition_values(plan, row)
        ok &= all(v >= 0.0 for v in vals.values())
    msgs.append(f"plan conditions re-validate on {len(plan.rows)} rows")

    grid = RadialGrid(a=0.0, r_out=1.0, n_r=512, dim=3)
    u0 = Field(grid, ball_eigenfunction(grid.nodes()))
    cfg = StepperConfig(dt=1.0 / 2048.0, snapshot_times=(0.35,))
    _, ledger = evolve_ball(u0, cfg)
    t, m, _ = ledger.as_arrays()
    sel = t > 0
    slope = float(np.polyfit(t[sel], np.log(m[sel]), 1)[0])
    lam = BALL_EIGENVALUE
    ok &= abs(slope + lam) <= 0.01 * lam
    msgs.append(f"eigen-decay exponent {slope:.4f} vs -pi^2 = {-lam:.4f} (1%)")

    rep = supersolution_report(SubSuperParams(gamma=0.25, kappa=1.0),
                               profile_closed_form(3, BallHole(1.0), DIRICHLET))
    ok &= rep.all_passed
    ok &= all(rep.fitted[k] > 0 for k in ("c", "delta", "m", "C2"))
    msgs.append("supersolution report items (i)-(iv) pass, fitted constants positive")
    _report(14, "optimality constructions", ok, "; ".join(msgs))


def test_c15_truncation_audit(run_t100, run_t200, run_t100_audit, run_t200_audit):
    base = _verdicts_1_to_5(run_t100, run_t200)
    audit = _verdicts_1_to_5(run_t100_audit, run_t200_audit)
    flips = [k for k in base if base[k] != audit[k]]
    ok = not flips and all(base.values())
    _report(15, "truncation audit (criteria 1-5 at 2x far radius)", ok,
            f"base {base}, flips at 2x r_out: {flips or 'none'}")
