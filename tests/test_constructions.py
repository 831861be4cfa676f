import math

import numpy as np
import pytest

from heatext.constructions import (
    BALL_EIGENVALUE,
    EXPLICIT_ASYMPTOTIC_MASS,
    PSI_PEAK,
    SubSuperParams,
    ball_eigenfunction,
    explicit_solution,
    explicit_solution_mass,
    optimal_datum_plan,
    parse_g_spec,
    plan_condition_values,
    radial_z,
    supersolution_Z,
    supersolution_report,
)
from heatext.domain import ThetaBoundary
from heatext.errors import GeometryError, PreconditionError
from heatext.profiles import profile_radial_closed_form


# ---------------------------------------------------------- explicit solution

def test_explicit_solution_values():
    assert explicit_solution(1.0, 0.0) == 0.0
    assert explicit_solution(1.0, 7.3) == 0.0  # Dirichlet boundary for all t
    assert explicit_solution(2.0, 0.0) == pytest.approx(math.exp(-0.25) / 8.0,
                                                        rel=1e-14)
    with pytest.raises(GeometryError):
        explicit_solution(0.5, 1.0)


def test_explicit_solution_heat_equation_residual():
    # finite-difference residual of u_t - u_rr - (2/r) u_r at 100 points
    rng = np.random.default_rng(11)
    d = 1e-3
    for _ in range(100):
        r = rng.uniform(1.2, 20.0)
        t = rng.uniform(0.2, 50.0)
        u_t = (explicit_solution(r, t + d) - explicit_solution(r, t - d)) / (2 * d)
        u_p = explicit_solution(r + d, t)
        u_m = explicit_solution(r - d, t)
        u_0 = explicit_solution(r, t)
        u_rr = (u_p - 2 * u_0 + u_m) / d ** 2
        u_r = (u_p - u_m) / (2 * d)
        assert abs(u_t - u_rr - 2.0 / r * u_r) <= 1e-6


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
def test_explicit_solution_mass_quadrature(t):
    # radial quadrature oracle against the closed-form mass law
    r = np.linspace(1.0, 1.0 + 30.0 * math.sqrt(t + 1.0), 2000001)
    quad = 4.0 * math.pi * np.trapezoid(explicit_solution(r, t) * r ** 2, r)
    assert quad == pytest.approx(explicit_solution_mass(t), abs=1e-6)


def test_explicit_solution_mass_values():
    assert explicit_solution_mass(0.0) == pytest.approx(
        2.0 * math.pi ** 1.5 + 2.0 * math.pi, rel=1e-14)
    assert EXPLICIT_ASYMPTOTIC_MASS == pytest.approx(2.0 * math.pi ** 1.5, rel=1e-15)
    # dM/dt at t = 0 equals -pi: matches the flux 4 pi (-u_r(1,0)) with
    # u_r(1,0) = 1/4 from the one-sided derivative of the closed form
    d = 1e-6
    dmdt = (explicit_solution_mass(d) - explicit_solution_mass(0.0)) / d
    assert dmdt == pytest.approx(-math.pi, rel=1e-5)
    h = 1e-6
    u_r = (explicit_solution(1.0 + h, 0.0) - 0.0) / h
    assert 4.0 * math.pi * (-u_r) == pytest.approx(-math.pi, rel=1e-5)


# ---------------------------------------------------------- eigenfunction

def test_ball_eigenfunction_facts():
    # eigenvalue pi^2; L1 normalisation via the oracle
    # integral_0^1 r sin(pi r) dr = 1/pi
    r = np.linspace(0.0, 1.0, 1000001)
    assert np.trapezoid(r * np.sin(math.pi * r), r) == pytest.approx(
        1.0 / math.pi, rel=1e-10)
    mass = 4.0 * math.pi * np.trapezoid(ball_eigenfunction(r) * r ** 2, r)
    assert mass == pytest.approx(1.0, rel=1e-10)
    assert ball_eigenfunction(0.0) == pytest.approx(PSI_PEAK, rel=1e-12)
    assert PSI_PEAK == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert BALL_EIGENVALUE == pytest.approx(math.pi ** 2, rel=1e-15)
    # it is an eigenfunction: -Lap psi = pi^2 psi (finite differences)
    d = 1e-4
    for rv in (0.3, 0.55, 0.8):
        u_p, u_0, u_m = (ball_eigenfunction(rv + d), ball_eigenfunction(rv),
                         ball_eigenfunction(rv - d))
        lap = (u_p - 2 * u_0 + u_m) / d ** 2 + (u_p - u_m) / (d * rv)
        assert -lap == pytest.approx(math.pi ** 2 * u_0, rel=1e-5)


# ---------------------------------------------------------- radial z

def test_radial_z_identity():
    value, residual = radial_z(5.0, 0.4)
    assert value == pytest.approx(5.0 ** -0.4, rel=1e-14)
    assert residual <= 1e-8


def test_radial_z_coefficient():
    # gamma (N - 2 - gamma) = 3/16 for N = 3, gamma = 1/4
    gamma = 0.25
    assert gamma * (3 - 2 - gamma) == pytest.approx(3.0 / 16.0, rel=1e-15)
    _, residual = radial_z(2.0, gamma)
    assert residual <= 1e-8


def test_radial_z_gamma_zero_degenerates():
    value, residual = radial_z(3.0, 0.0)
    assert value == 1.0 and residual == 0.0


def test_radial_z_domain_errors():
    with pytest.raises(GeometryError):
        radial_z(0.0, 0.5)
    with pytest.raises(GeometryError):
        radial_z(1.0, 1.0)


# ---------------------------------------------------------- supersolution

def _dirichlet_profile():
    return profile_radial_closed_form(3, 1.0, ThetaBoundary(0.0))


def test_supersolution_value_and_normal_derivative():
    params = SubSuperParams(gamma=0.25, kappa=1.0)
    prof = _dirichlet_profile()
    # Psi(r) = 1/r, so dPsi/dn = -Psi'(1) = +1 at the hole and kappa = 1
    # already makes dZ/dn positive
    z_val = supersolution_Z(params, prof, 2.0, 4.0)
    expect = 4.0 ** (-(3 + 0.25) / 2.0) * (2.0 ** -0.25 + 1.0 / 2.0)
    assert z_val == pytest.approx(expect, rel=1e-12)
    rep = supersolution_report(params, prof)
    assert rep.fitted["m"] > 0.0


def test_supersolution_report_passes():
    params = SubSuperParams(gamma=0.25, kappa=1.0)
    rep = supersolution_report(params, _dirichlet_profile())
    assert rep.all_passed
    assert rep.fitted["c"] > 0.0 and rep.fitted["delta"] > 0.0
    # C2 = sup Psi / z = 1 at the hole for a = 1
    assert rep.fitted["C2"] == pytest.approx(1.0, rel=1e-6)
    assert "PASS" in rep.text()


def test_supersolution_requires_dirichlet_profile():
    params = SubSuperParams(gamma=0.25, kappa=1.0)
    neumann = profile_radial_closed_form(3, 1.0, ThetaBoundary(1.0))
    with pytest.raises(PreconditionError):
        supersolution_report(params, neumann)


def test_subsuper_params_validation():
    with pytest.raises(GeometryError):
        SubSuperParams(gamma=1.5, kappa=1.0)
    with pytest.raises(GeometryError):
        SubSuperParams(gamma=0.25, kappa=-1.0)


# ---------------------------------------------------------- datum plan

def test_plan_recip_t1():
    # g(t) = 1/(t+4): t_1 solves 1/(t+4) = 1/8, so t_1 = 4 (bisection
    # must agree with the algebra)
    g, _ = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 4)
    assert plan.rows[0].t_n == pytest.approx(4.0, abs=1e-8)
    assert plan.rows[0].t_next == pytest.approx(12.0, abs=1e-8)


def test_plan_radius_threshold():
    # condition (i) needs R >= pi sqrt(t_{n+1} / ln(4/3)) ~ 5.857 sqrt(t_{n+1})
    g, _ = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 4)
    for row in plan.rows:
        r_min = math.pi * math.sqrt(row.t_next / math.log(4.0 / 3.0))
        assert r_min <= row.radius <= r_min + 1.0
        assert math.pi * math.sqrt(1.0 / math.log(4.0 / 3.0)) == pytest.approx(
            5.857, abs=1e-3)


def test_plan_conditions_and_monotonicity():
    g, label = parse_g_spec("recip:4")
    plan = optimal_datum_plan(g, 5)
    rows = plan.rows
    assert all(a.t_n < b.t_n for a, b in zip(rows, rows[1:]))
    assert all(a.radius < b.radius for a, b in zip(rows, rows[1:]))
    assert all(a.center_dist < b.center_dist for a, b in zip(rows, rows[1:]))
    for row in rows:
        assert row.weight == 2.0 ** (-row.n)
        assert g(row.t_n) == pytest.approx(2.0 ** (-(row.n + 2)), rel=1e-9)
        vals = plan_condition_values(plan, row)
        assert all(v >= 0.0 for v in vals.values())


def test_plan_input_validation():
    with pytest.raises(PreconditionError):
        optimal_datum_plan(lambda t: 1.0 + t, 3)  # increasing
    with pytest.raises(PreconditionError):
        g, _ = parse_g_spec("recip:4")
        optimal_datum_plan(g, 9)  # n_max cap
    with pytest.raises(PreconditionError):
        parse_g_spec("linear:3")


def test_powlog_spec():
    g, _ = parse_g_spec("powlog:10")
    plan = optimal_datum_plan(g, 2)
    for row in plan.rows:
        assert g(row.t_n) == pytest.approx(2.0 ** (-(row.n + 2)), rel=1e-9)
