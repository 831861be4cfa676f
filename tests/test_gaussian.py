import math

import numpy as np
import pytest

from heatext.errors import GeometryError
from heatext.gaussian import (
    GaussianParams,
    adaptive_radial_integral,
    gaussian_ball_integral,
    gaussian_l1_time_shift_bound,
    gaussian_l1_time_shift_quadrature,
    gaussian_lp_norm,
    gaussian_mass_quadrature,
    gaussian_value,
)


def test_value_at_origin():
    assert gaussian_value(0.0, GaussianParams(3, 1.0)) == pytest.approx(
        (4.0 * math.pi) ** -1.5, rel=1e-14)
    assert gaussian_value(0.0, GaussianParams(2, 2.0)) == pytest.approx(
        1.0 / (8.0 * math.pi), rel=1e-14)


def test_params_validation():
    with pytest.raises(GeometryError):
        GaussianParams(3, 0.0)
    with pytest.raises(GeometryError):
        GaussianParams(5, 1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(GeometryError):
            GaussianParams(3, t)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_unit_mass(dim, t):
    assert gaussian_mass_quadrature(GaussianParams(dim, t)) == pytest.approx(
        1.0, abs=1e-8)


def test_self_similarity_machine_precision():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = rng.uniform(0.5, 4.0)
        x = rng.uniform(0.0, 5.0)
        t = rng.uniform(0.1, 20.0)
        n = int(rng.integers(2, 4))
        lhs = gaussian_value(x, GaussianParams(n, t))
        rhs = lam ** n * gaussian_value(lam * x, GaussianParams(n, lam ** 2 * t))
        assert lhs == pytest.approx(rhs, rel=5e-14)


def test_self_similarity_factor_two():
    # G(1, 1) = 8 G(2, 4) in dim 3
    assert gaussian_value(1.0, GaussianParams(3, 1.0)) == pytest.approx(
        8.0 * gaussian_value(2.0, GaussianParams(3, 4.0)), rel=1e-14)


def test_lp_norm_limits():
    p = GaussianParams(3, 2.5)
    assert gaussian_lp_norm(1.0, p) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_lp_norm(math.inf, p) == pytest.approx(
        gaussian_value(0.0, p), rel=1e-14)
    with pytest.raises(GeometryError):
        gaussian_lp_norm(0.5, p)


@pytest.mark.parametrize("dim,t,p_exp", [(3, 1.0, 2.0), (2, 0.5, 3.0), (3, 4.0, 1.5)])
def test_lp_norm_against_quadrature(dim, t, p_exp):
    params = GaussianParams(dim, t)
    quad = adaptive_radial_integral(
        lambda r: gaussian_value(r, params) ** p_exp, dim, 12.0 * math.sqrt(t),
        tol=1e-13) ** (1.0 / p_exp)
    assert gaussian_lp_norm(p_exp, params) == pytest.approx(quad, rel=1e-9)


def test_time_shift_bound_value():
    # 2 ((101/100)^(3/2) - 1), evaluated independently
    expect = 2.0 * (1.01 ** 1.5 - 1.0)
    assert gaussian_l1_time_shift_bound(100.0, 1.0, 3) == pytest.approx(
        expect, rel=1e-12)


def test_time_shift_bound_dominates_quadrature():
    for (t, d, dim) in [(100.0, 1.0, 3), (10.0, 2.0, 3), (50.0, 5.0, 2)]:
        quad = gaussian_l1_time_shift_quadrature(t, d, dim)
        bound = gaussian_l1_time_shift_bound(t, d, dim)
        assert quad <= bound + 1e-8


def test_time_shift_bound_monotonicity():
    ts = np.linspace(1.0, 100.0, 40)
    vals_t = [gaussian_l1_time_shift_bound(t, 1.0, 3) for t in ts]
    assert all(a > b for a, b in zip(vals_t, vals_t[1:]))  # decreasing in t
    ds = np.linspace(0.1, 10.0, 40)
    vals_d = [gaussian_l1_time_shift_bound(10.0, d, 3) for d in ds]
    assert all(a < b for a, b in zip(vals_d, vals_d[1:]))  # increasing in d
    assert gaussian_l1_time_shift_bound(10.0, 1e-12, 3) == pytest.approx(0.0, abs=1e-11)


def test_ball_integral_against_cartesian_sum():
    # brute-force oracle: midpoint sum over a fine cartesian grid of the ball
    a, d, t = 1.0, 3.0, 10.0
    n = 120
    h = 2.0 * a / n
    c = -a + (np.arange(n) + 0.5) * h
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    inside = X ** 2 + Y ** 2 + Z ** 2 <= a ** 2
    dist2 = X ** 2 + Y ** 2 + (Z - d) ** 2
    vals = np.exp(-dist2 / (4.0 * t)) / (4.0 * math.pi * t) ** 1.5
    oracle = float(np.sum(vals[inside]) * h ** 3)
    assert gaussian_ball_integral(d, a, t) == pytest.approx(oracle, rel=5e-3)


def test_disc_integral_against_cartesian_sum():
    # the dim-2 branch (the i0e shell average) against a midpoint sum over
    # a cartesian grid of the disc
    a, d, t = 1.0, 3.0, 10.0
    n = 400
    h = 2.0 * a / n
    c = -a + (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(c, c, indexing="ij")
    inside = X ** 2 + Y ** 2 <= a ** 2
    vals = np.exp(-(X ** 2 + (Y - d) ** 2) / (4.0 * t)) / (4.0 * math.pi * t)
    oracle = float(np.sum(vals[inside]) * h ** 2)
    assert gaussian_ball_integral(d, a, t, dim=2) == pytest.approx(oracle, rel=5e-3)


def test_ball_integral_centered_source():
    # d = 0 reduces to the radial integral over [0, a]
    a, t = 1.0, 2.0
    r = np.linspace(0.0, a, 100001)
    oracle = 4.0 * math.pi * np.trapezoid(
        r ** 2 * np.exp(-r ** 2 / (4.0 * t)), r) / (4.0 * math.pi * t) ** 1.5
    assert gaussian_ball_integral(0.0, a, t) == pytest.approx(oracle, rel=1e-6)
