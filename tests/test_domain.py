import math

import numpy as np
import pytest

from heatext.domain import (
    BallHole,
    RectHole,
    ThetaBoundary,
    check_exterior,
    outward_normal_sign_at_hole,
    required_far_radius,
    robin_coefficient,
    sphere_surface_area,
)
from heatext.errors import GeometryError


def test_robin_coefficient_neumann_is_zero():
    assert robin_coefficient(1.0) == pytest.approx(0.0, abs=1e-15)


def test_robin_coefficient_analytic_values():
    # cot(pi/4) and cot(pi/6), evaluated independently
    assert robin_coefficient(0.5) == pytest.approx(1.0, rel=1e-14)
    assert robin_coefficient(1.0 / 3.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_robin_coefficient_rejects_dirichlet_sentinel():
    with pytest.raises(GeometryError):
        robin_coefficient(0.0)
    with pytest.raises(GeometryError):
        robin_coefficient(1.5)


def test_robin_coefficient_strictly_decreasing_and_limits():
    thetas = np.linspace(0.01, 1.0, 200)
    vals = np.array([robin_coefficient(t) for t in thetas])
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert robin_coefficient(1e-8) > 1e7      # blows up toward Dirichlet
    assert robin_coefficient(1.0 - 1e-8) < 1e-7


def test_theta_boundary_flags_and_b():
    assert ThetaBoundary(0.0).is_dirichlet
    assert ThetaBoundary(0.0).robin_b == math.inf
    assert ThetaBoundary(1.0).is_neumann
    assert ThetaBoundary(1.0).robin_b == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(GeometryError):
        ThetaBoundary(-0.1)


def test_theta_boundary_rejects_a_theta_whose_robin_b_overflows():
    # cot(pi theta/2) overflows to inf for a subnormal theta, and the Robin
    # ghost factor (1 - b h/2) / (1 + b h/2) would be nan
    for theta in (2.2e-313, 5e-324):
        with pytest.raises(GeometryError, match="not finite"):
            ThetaBoundary(theta)
    assert math.isfinite(ThetaBoundary(1e-300).robin_b)


def test_outward_normal_sign():
    assert outward_normal_sign_at_hole() == -1
    # Dirichlet profile in dim 3: Phi = 1 - 1/r, so dPhi/dn = -Phi'(1) = -1
    # at the unit-ball hole (differentiate the closed form)
    dphi_dr = 1.0  # Phi'(r) = 1/r^2 at r = 1
    assert outward_normal_sign_at_hole() * dphi_dr == -1.0


def test_sphere_surface_area():
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    with pytest.raises(GeometryError):
        sphere_surface_area(4)


def test_sphere_surface_area_radial_integration():
    # integral over R^3 of exp(-|x|) = 4 pi integral r^2 exp(-r) dr = 8 pi
    r = np.linspace(0.0, 60.0, 400001)
    val = sphere_surface_area(3) * np.trapezoid(r ** 2 * np.exp(-r), r)
    assert val == pytest.approx(8.0 * math.pi, rel=1e-9)


def test_check_exterior_rules():
    check_exterior(3, BallHole(1.0), 10.0)
    check_exterior(3, BallHole(1.0), 4.0)
    check_exterior(2, RectHole(1.0, 2.0), 12.0)
    check_exterior(3, BallHole(1.0))  # no far radius: the dimension and hole alone
    with pytest.raises(GeometryError, match="at least 4x"):
        check_exterior(3, BallHole(1.0), 3.0)
    with pytest.raises(GeometryError, match="at least 4x"):
        check_exterior(2, RectHole(1.0, 2.0), 8.9)  # 4 sqrt(5) = 8.94
    for far in (math.inf, math.nan):
        with pytest.raises(GeometryError, match="finite"):
            check_exterior(3, BallHole(1.0), far)
    with pytest.raises(GeometryError, match="only supported in dim 2"):
        check_exterior(3, RectHole(1.0, 1.0))
    with pytest.raises(GeometryError, match="dim must be 2 or 3"):
        check_exterior(4, BallHole(1.0), 10.0)
    with pytest.raises(GeometryError, match="needs a ball or rect hole"):
        check_exterior(3, None, 10.0)


@pytest.mark.parametrize("make", [
    lambda v: BallHole(v),
    lambda v: RectHole(1.0, v),
    lambda v: RectHole(v, 1.0),
])
@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_hole_sizes_must_be_positive_and_finite(make, size):
    # a NaN size fails no "<= 0" test, so it is rejected by name here rather
    # than as a hole that does not fit inside a far ball of radius nan
    with pytest.raises(GeometryError, match="positive and finite"):
        make(size)


def test_rect_hole_circumscribed_radius():
    assert RectHole(3.0, 4.0).circumscribed_radius == pytest.approx(5.0)


def test_required_far_radius_rule():
    r = required_far_radius(BallHole(1.0), 100.0)
    assert r == pytest.approx(1.0 + 6.0 * math.sqrt(400.0))
    # tiny horizons still respect the 4x geometric floor
    assert required_far_radius(BallHole(1.0), 0.0) == pytest.approx(4.0)
