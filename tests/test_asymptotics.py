import math

import numpy as np
import pytest

from heatext.asymptotics import (
    RateSeries,
    RegionSpec,
    error_norms,
    herraiz_compare,
    kernel_l1_gap,
    mass_convergence,
    optimality_check_l1,
    optimality_check_linf,
    rate_fit,
    scaling_exponent,
)
from heatext.constructions import (
    BALL_EIGENVALUE,
    EXPLICIT_ASYMPTOTIC_MASS,
    PSI_PEAK,
    explicit_solution,
    explicit_solution_mass,
    optimal_datum_plan,
    parse_g_spec,
)
from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.errors import PreconditionError
from heatext.gaussian import (
    GaussianParams,
    gaussian_l1_time_shift_bound,
    gaussian_value,
)
from heatext.profiles import profile_planar, profile_radial_closed_form
from heatext.solver import (
    Field,
    MassLedger,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_radial,
    kernel_probe,
)

DIRICHLET = ThetaBoundary(0.0)
M_ASYM = EXPLICIT_ASYMPTOTIC_MASS


def _field_from_closed_form(t, h=1.0 / 128.0, r_out=101.0):
    n = int(round((r_out - 1.0) / h))
    grid = RadialGrid(a=1.0, r_out=1.0 + n * h, n_r=n, dim=3)
    return Field(grid, explicit_solution(grid.nodes(), t), t)


def _profile():
    return profile_radial_closed_form(3, 1.0, DIRICHLET)


# --------------------------------------------------------------- norms

def test_error_norms_identity_case():
    # u = m Phi G exactly gives zero norms
    grid = RadialGrid(a=1.0, r_out=65.0, n_r=4096, dim=3)
    r = grid.nodes()
    t = 4.0
    vals = M_ASYM * (1.0 - 1.0 / r) * gaussian_value(r, GaussianParams(3, t))
    norms = error_norms(Field(grid, vals, t), M_ASYM, _profile())
    for p, (raw, scaled) in norms.items():
        assert raw == 0.0 and scaled == 0.0


def test_scaling_exponents():
    assert scaling_exponent(3, 1.0) == 0.0
    assert scaling_exponent(3, math.inf) == 1.5
    assert scaling_exponent(3, 2.0) == pytest.approx(0.75)
    assert scaling_exponent(2, math.inf) == 1.0


def test_scaled_sup_error_halves_between_decades():
    # closed-form fields sampled on the grid: the scaled sup error at
    # t = 100 is less than half its value at t = 10
    norms10 = error_norms(_field_from_closed_form(10.0), M_ASYM, _profile())
    norms100 = error_norms(_field_from_closed_form(100.0), M_ASYM, _profile())
    assert norms100[math.inf][1] <= 0.5 * norms10[math.inf][1]
    ratio = norms100[math.inf][1] / norms10[math.inf][1]
    assert 0.3 < ratio < 0.5  # the decade factor is ~0.46 for this run


def test_interpolation_inequality_exact_on_grid():
    for t in (10.0, 100.0):
        norms = error_norms(_field_from_closed_form(t), M_ASYM, _profile())
        s1, s2, si = norms[1.0][1], norms[2.0][1], norms[math.inf][1]
        assert s2 <= math.sqrt(s1 * si) + 1e-6


def test_region_split_sup_is_max_of_sides():
    f = _field_from_closed_form(25.0)
    region = RegionSpec(1.0)
    full = error_norms(f, M_ASYM, _profile())[math.inf][0]
    near = error_norms(f, M_ASYM, _profile(), region=region, side="near")[math.inf][0]
    far = error_norms(f, M_ASYM, _profile(), region=region, side="far")[math.inf][0]
    assert max(near, far) == pytest.approx(full, rel=0.0, abs=0.0)


def test_region_requires_valid_side():
    f = _field_from_closed_form(25.0)
    with pytest.raises(PreconditionError):
        error_norms(f, M_ASYM, _profile(), region=RegionSpec(1.0), side="middle")


def test_error_norms_reject_a_profile_of_another_dimension():
    grid = PlanarGrid(half_width=8.0, n=32, hole=BallHole(1.0))
    f = Field(grid, np.zeros(grid.shape), 1.0)
    error_norms(f, 0.0, profile_radial_closed_form(2, 1.0, DIRICHLET))
    with pytest.raises(PreconditionError, match="dimension"):
        error_norms(f, 0.0, _profile())


def test_error_norms_reject_a_profile_of_another_hole():
    # a rect hole's profile is built on the rect, not on its circumscribed ball
    hole = RectHole(1.0, 1.0)
    grid = PlanarGrid(half_width=8.0, n=32, hole=hole)
    f = Field(grid, np.zeros(grid.shape), 1.0)
    error_norms(f, 0.0, profile_planar(hole, DIRICHLET))
    with pytest.raises(PreconditionError, match="hole"):
        error_norms(f, 0.0, profile_radial_closed_form(2, hole.circumscribed_radius,
                                                       DIRICHLET))


def test_neumann_l1_error_bounded_by_time_shift():
    # Neumann datum G(., 1): solution is a time-shifted Gaussian up to the
    # hole reflection, so the L1 distance from m G(., t) stays within the
    # pure time-shift bound plus a hole-sized margin
    t_end = 50.0
    h = 1.0 / 16.0
    r_req = 1.0 + 6.0 * math.sqrt(4.0 * t_end)
    n = int(math.ceil((r_req - 1.0) / h))
    grid = RadialGrid(a=1.0, r_out=1.0 + n * h, n_r=n, dim=3)
    r = grid.nodes()
    u0 = Field(grid, gaussian_value(r, GaussianParams(3, 1.0)), 0.0)
    m = u0.integral()  # Neumann profile is 1
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(t_end,))
    snaps, _ = evolve_radial(ThetaBoundary(1.0), u0, cfg)
    norms = error_norms(snaps[-1], m, profile_radial_closed_form(3, 1.0, ThetaBoundary(1.0)))
    bound = gaussian_l1_time_shift_bound(t_end, 1.0, 3)
    # margin: the datum mass near the hole that the reflection rearranges
    assert norms[1.0][0] <= bound + 0.05


# --------------------------------------------------------------- fits

def test_rate_fit_recovers_exact_power():
    t = np.geomspace(1.0, 100.0, 12)
    fit = rate_fit(t, t ** -2.0, (1.0, 100.0))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-10)
    assert fit.residual <= 1e-12


def test_rate_fit_excludes_nonpositive():
    t = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    v = t ** -1.5
    v[2] = 0.0
    fit = rate_fit(t, v, (1.0, 32.0))
    assert fit.n_excluded == 1
    assert fit.exponent == pytest.approx(-1.5, abs=1e-9)


def test_rate_fit_needs_four_rows():
    with pytest.raises(PreconditionError):
        rate_fit([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], (1.0, 4.0))


def test_rate_fit_sup_norm_exponent_of_explicit_solution():
    # sup-norm decay of the closed form: exponent near -1.5 over late times
    ts = np.array([50.0, 100.0, 200.0, 400.0])
    sups = []
    for t in ts:
        r = np.linspace(1.0, 1.0 + 12.0 * math.sqrt(t + 1.0), 200001)
        sups.append(float(np.max(explicit_solution(r, t))))
    fit = rate_fit(ts, np.array(sups), (50.0, 400.0))
    assert fit.exponent == pytest.approx(-1.5, abs=0.1)


def test_scaled_sup_error_decays_strictly_better_than_rate():
    # raw sup error of u - m Phi G decays strictly faster than t^(-3/2)
    ts = np.array([25.0, 50.0, 100.0, 200.0])
    raws = [error_norms(_field_from_closed_form(t, h=1.0 / 64.0, r_out=195.0),
                        M_ASYM, _profile())[math.inf][0] for t in ts]
    fit = rate_fit(ts, np.array(raws), (25.0, 200.0))
    assert fit.exponent <= -1.6


# --------------------------------------------------------------- mass

def test_mass_convergence_monotone_gap():
    ledger = MassLedger()
    for t in np.linspace(0.0, 99.0, 100):
        ledger.append(t, explicit_solution_mass(t), 0.0)
    rep = mass_convergence(ledger, M_ASYM)
    assert rep.nonincreasing
    # closed form: gap(99) = 2 pi / 10
    assert rep.final_gap == pytest.approx(2.0 * math.pi / 10.0, rel=1e-12)


def test_mass_convergence_detects_increase():
    ledger = MassLedger()
    ledger.append(0.0, 10.0, 0.0)
    ledger.append(1.0, 9.0, 0.0)
    ledger.append(2.0, 9.5, 0.0)
    rep = mass_convergence(ledger, 8.0)
    assert not rep.nonincreasing


# --------------------------------------------------------------- rate series

def test_rate_series_rows_and_gap():
    snaps = [_field_from_closed_form(t, h=1.0 / 32.0, r_out=81.0)
             for t in (10.0, 40.0)]
    ledger = MassLedger()
    for t in (0.0, 10.0, 40.0):
        ledger.append(t, explicit_solution_mass(t), 0.0)
    series = RateSeries.from_snapshots(snaps, M_ASYM, _profile(), ledger)
    assert series.times.tolist() == [10.0, 40.0]
    assert np.all(series.mass_gap > 0.0)
    rows = series.rows()
    assert len(rows) == 6  # two times x three norms
    labels = {row[1] for row in rows}
    assert labels == {"1", "2", "inf"}


# --------------------------------------------------------------- herraiz

def test_herraiz_comparison_at_t100():
    comp = herraiz_compare(100.0)
    # the initial-mass prediction overshoots by the mass ratio ~ 1.564
    mass_ratio = explicit_solution_mass(0.0) / M_ASYM
    assert mass_ratio == pytest.approx(1.5641895, rel=1e-6)
    assert comp.peak_ratio == pytest.approx(1.54, abs=0.03)
    assert comp.gap_theorem < 0.1
    assert comp.gap_herraiz > 0.4
    assert comp.gap_theorem < comp.gap_herraiz


def test_herraiz_gap_shrinks_with_time():
    g100 = herraiz_compare(100.0).gap_theorem
    g1000 = herraiz_compare(1000.0).gap_theorem
    assert g1000 < g100


def test_herraiz_profile_off_mass_ratio_only():
    comp = herraiz_compare(100.0, use_profile=False)
    ratio = explicit_solution_mass(0.0) / M_ASYM
    assert np.allclose(comp.herraiz_pred, ratio * comp.theorem_pred, rtol=1e-14)


def test_herraiz_requires_late_time():
    with pytest.raises(PreconditionError):
        herraiz_compare(5.0)


def test_herraiz_rejects_a_time_whose_curves_overflow():
    assert herraiz_compare(1e150).gap_theorem < 1e-12
    for t in (1e154, 1e300):
        with pytest.raises(PreconditionError, match="not finite"):
            herraiz_compare(t)


# --------------------------------------------------------------- optimality

def _unit_ball_trace():
    s = np.linspace(0.0, 0.4, 200)
    return s, np.exp(-BALL_EIGENVALUE * s)


def test_optimality_l1_chain():
    g, _ = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 3)
    s, m = _unit_ball_trace()
    # scale the trace window to cover t_{n+1} / R_n^2 for n = 2
    row = plan.rows[1]
    s_needed = row.t_next / row.radius ** 2
    s = np.linspace(0.0, max(0.4, 1.1 * s_needed), 400)
    rep = optimality_check_l1(plan, 2, s, np.exp(-BALL_EIGENVALUE * s))
    assert rep.passed
    assert rep.component_mass_min >= rep.component_mass_floor
    assert rep.gaussian_term_max <= rep.gaussian_term_cap
    assert rep.lower_bound >= rep.g_floor


def test_optimality_l1_rejects_short_trace():
    g, _ = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 3)
    with pytest.raises(PreconditionError):
        optimality_check_l1(plan, 2, [0.0, 0.001], [1.0, 0.99])


def test_optimality_linf_bound():
    expected = math.exp(-BALL_EIGENVALUE) * PSI_PEAK
    rep = optimality_check_linf(100.0, expected * 1.001)
    assert rep.passed
    assert rep.gaussian_term <= 0.5 * expected * (1.0 + 1e-9)
    assert rep.operator_lower_bound >= 0.49 * expected
    # a badly wrong centre value fails
    assert not optimality_check_linf(100.0, expected * 2.0).passed


# --------------------------------------------------------------- kernel gap

def test_kernel_gap_requires_unit_mass():
    from heatext.solver.probes import ProbeResult
    ledger = MassLedger()
    ledger.append(0.0, 0.5, 0.0)
    probe = ProbeResult([], ledger, 3.0, False, (2.0, 0.05))
    with pytest.raises(PreconditionError):
        kernel_l1_gap(probe, 1.0, _profile())


def test_kernel_gap_bound_values():
    # closed-form bound at |y| = 3, t = 10: 2/3 plus a ~3e-3 hole term
    from heatext.gaussian import gaussian_ball_integral
    phi = _profile().evaluate(3.0)
    bound = 2.0 * (1.0 - phi) + gaussian_ball_integral(3.0, 1.0, 10.0)
    assert bound == pytest.approx(0.669, abs=2e-3)
    phi6 = _profile().evaluate(6.0)
    bound6 = 2.0 * (1.0 - phi6) + gaussian_ball_integral(6.0, 1.0, 10.0)
    assert bound6 == pytest.approx(0.335, abs=2e-3)


def test_kernel_gap_bound_terms_match_independent_oracles():
    # the report's terms on a small probe, recomputed: 2 (1 - Phi0(y)) from
    # Phi0(y) = 1 - a / y, and the Gaussian mass in the ball by a 1-d
    # trapezoid in r of the closed-form angular integral
    # 2 pi (4 pi t)^(-3/2) int_0^a r^2 (2 t / (r y)) (e^-(r-y)^2/4t - e^-(r+y)^2/4t) dr
    a, y, t = 1.0, 3.0, 1.0
    probe = kernel_probe(BallHole(a), y, 0.5, (t,), n_rho=32, n_z=64)
    rep = kernel_l1_gap(probe, t, _profile())
    assert rep.profile_term == pytest.approx(2.0 * (a / y), rel=0, abs=1e-12)
    r = np.linspace(0.0, a, 200001)
    # r^2 (2 t / (r y)) = 2 t r / y, which is 0 at r = 0
    integrand = (2.0 * t * r / y) * (np.exp(-(r - y) ** 2 / (4.0 * t))
                                     - np.exp(-(r + y) ** 2 / (4.0 * t)))
    hole_mass = 2.0 * math.pi * (4.0 * math.pi * t) ** -1.5 * np.trapezoid(integrand, r)
    assert rep.hole_term == pytest.approx(hole_mass, rel=1e-6)
    assert rep.bound == rep.profile_term + rep.hole_term
