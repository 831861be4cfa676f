import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.errors import GeometryError, PreconditionError
from heatext.profiles import (
    _planar_truncated_solve,
    _radial_truncated_solve,
    asymptotic_mass,
    profile_coefficient,
    profile_decay_check,
    profile_elliptic,
    profile_planar,
    profile_radial_closed_form,
    psi_from_profile,
)
from heatext.solver.grids import (
    AxisymGrid,
    Field,
    PlanarGrid,
    RadialGrid,
    hole_ghost,
    hole_nodes,
    masked_laplacian,
)

DIRICHLET = ThetaBoundary(0.0)
NEUMANN = ThetaBoundary(1.0)
ROBIN_HALF = ThetaBoundary(0.5)  # b = 1


# ------------------------------------------------------------ closed form

def test_dirichlet_closed_form():
    p = profile_radial_closed_form(3, 1.0, DIRICHLET)
    assert p.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)
    assert p.evaluate(2.0) == pytest.approx(0.5, rel=1e-14)
    assert p.evaluate(1e6) == pytest.approx(1.0, abs=1e-5)


def test_neumann_profile_is_one():
    p = profile_radial_closed_form(3, 1.0, NEUMANN)
    r = np.linspace(1.0, 50.0, 100)
    assert np.allclose(p.evaluate(r), 1.0)
    assert p.coefficient == 0.0


def test_robin_coefficient_solves_the_boundary_condition():
    # oracle: solve -Phi'(a) + b Phi(a) = 0 for Phi = 1 - c (a/r)^(N-2)
    # by hand: c = a b / (a b + N - 2); for a = 1, b = 1, N = 3: c = 1/2
    p = profile_radial_closed_form(3, 1.0, ROBIN_HALF)
    assert p.coefficient == pytest.approx(0.5, rel=1e-14)
    assert p.evaluate(1.0) == pytest.approx(0.5, rel=1e-14)
    assert abs(p.boundary_residual()) < 1e-12


def test_closed_form_bc_residual_all_thetas():
    for theta in (0.0, 0.2, 0.5, 0.8, 1.0):
        p = profile_radial_closed_form(3, 1.5, ThetaBoundary(theta))
        assert abs(p.boundary_residual()) < 1e-10


def test_profile_bounds_and_theta_monotonicity():
    r = np.linspace(1.0, 100.0, 500)
    prev_c = math.inf
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = profile_radial_closed_form(3, 1.0, ThetaBoundary(theta))
        vals = p.evaluate(r)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        c = p.coefficient
        assert c <= prev_c + 1e-15  # c nonincreasing in theta
        prev_c = c
    assert profile_coefficient(3, 1.0, DIRICHLET) == 1.0
    assert profile_coefficient(3, 1.0, NEUMANN) == 0.0


def test_profile_coefficient_rejects_an_overflowing_theta():
    # b = cot(pi theta/2) = 6.4e307 is finite, a b is not for a = 4
    tiny = ThetaBoundary(1e-308)
    assert profile_coefficient(3, 1.0, tiny) == 1.0
    with pytest.raises(GeometryError, match="theta = 1e-308"):
        profile_coefficient(3, 4.0, tiny)


def test_dim2_degenerate_profiles():
    # the closed form with N = 2 is the constant 1 - c, exactly, for any hole
    r = np.array([0.5, 1.0, 1.5, 5.0, 1e6, math.inf])
    for theta, c in ((DIRICHLET, 1.0), (ROBIN_HALF, 1.0), (NEUMANN, 0.0)):
        for p in (profile_radial_closed_form(2, 1.0, theta),
                  profile_planar(RectHole(1.0, 0.5), theta)):
            assert p.coefficient == c
            assert np.all(p.values == 1.0 - c) and np.all(p.evaluate(r) == 1.0 - c)
            assert abs(p.boundary_residual()) < 1e-16


# ------------------------------------------------------------ elliptic

def test_elliptic_radial_dirichlet_matches_closed_form():
    table = profile_elliptic(3, BallHole(1.0), DIRICHLET, (8.0, 16.0, 32.0))
    # oracle: the closed form 1 - 1/r
    exact = 1.0 - 1.0 / table.r
    assert float(np.max(np.abs(table.values - exact))) <= 1e-4
    assert table.evaluate(2.0) == pytest.approx(0.5, abs=1e-4)


def test_elliptic_radial_robin_matches_closed_form():
    table = profile_elliptic(3, BallHole(1.0), ROBIN_HALF, (8.0, 16.0, 32.0))
    exact = 1.0 - 0.5 / table.r
    assert float(np.max(np.abs(table.values - exact))) <= 1e-4


def test_elliptic_table_continues_harmonically_past_its_end():
    # the table ends at min(R) = 8; beyond it evaluate continues with
    # 1 - C/r, C matched to the last sample, which tracks the closed form
    # 1 - c/r with the last sample's error times r[-1]/r
    table = profile_elliptic(3, BallHole(1.0), ROBIN_HALF, (8.0, 16.0, 32.0))
    closed = profile_radial_closed_form(3, 1.0, ROBIN_HALF)
    end = table.r[-1]
    assert end == 8.0
    r = np.geomspace(end, 1e4, 50)[1:]
    tail = table.evaluate(r)
    np.testing.assert_allclose((1.0 - tail) * r, (1.0 - table.values[-1]) * end,
                               rtol=1e-12)
    end_err = abs(table.values[-1] - float(closed.evaluate(end)))
    assert 0.0 < end_err <= 1e-4
    np.testing.assert_allclose(np.abs(tail - closed.evaluate(r)) * r, end_err * end,
                               rtol=1e-5)
    assert np.all(np.diff(tail) > 0.0) and tail[-1] < 1.0


def test_elliptic_radial_neumann_is_exactly_one():
    table = profile_elliptic(3, BallHole(1.0), NEUMANN, (8.0, 16.0))
    for vals in table.per_radius.values():
        assert np.allclose(vals, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("cells", [256, 64])
@pytest.mark.parametrize("ratio", [8.0, 16.0, 32.0])
def test_truncated_dirichlet_solve_is_discrete_harmonic_exact(a, cells, ratio):
    # 1/r is discrete-harmonic on the radial stencil in dim 3, so the
    # truncated solve is (1 - a/r)/(1 - a/R) up to round-off
    R = ratio * a
    r, phi = _radial_truncated_solve(3, a, DIRICHLET, R, a / cells)
    assert r[0] == a and r[-1] == pytest.approx(R, rel=1e-14)
    exact = (1.0 - a / r) / (1.0 - a / R)
    assert float(np.max(np.abs(phi - exact))) <= 1e-9


def test_elliptic_monotone_in_truncation_radius():
    table = profile_elliptic(3, BallHole(1.0), DIRICHLET, (8.0, 16.0, 32.0))
    assert table.elliptic_monotone_violations(tol=1e-13) == 0
    # every table stays inside [0, 1]; the extrapolated limit sits below
    # every truncated solve
    assert np.all(table.values >= 0.0) and np.all(table.values <= 1.0)
    for vals in table.per_radius.values():
        assert np.all(vals >= -1e-13) and np.all(vals <= 1.0 + 1e-13)
        assert np.all(table.values <= vals + 1e-12)


def test_elliptic_planar_dim2_monotone_decrease():
    table = profile_elliptic(2, BallHole(1.0), DIRICHLET, (8.0, 16.0, 32.0), h=0.25)
    assert table.elliptic_monotone_violations(tol=1e-12) == 0
    assert table.coefficient == 1.0
    assert np.all(table.evaluate(np.array([1.0, 4.0, 1e6])) == 0.0)
    # the truncated solutions head toward 0 at a fixed probe point
    g = table.planar_fields[8.0].grid
    i = round((4.0 + g.half_width) / g.h)
    j = round(g.half_width / g.h)
    vals = [table.planar_fields[R].values[i, j] for R in (8.0, 16.0, 32.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_elliptic_planar_solves_the_largest_radius_first(monkeypatch):
    # each solve is independent, so the order changes no value; the largest
    # solve goes first so that it does not land in the holes a smaller
    # solve left on the heap. The fields stay in the order of the radii.
    import heatext.profiles as profiles
    order = []

    def recorded(hole, theta, R, h):
        order.append(R)
        return _planar_truncated_solve(hole, theta, R, h)

    monkeypatch.setattr(profiles, "_planar_truncated_solve", recorded)
    table = profile_elliptic(2, BallHole(1.0), DIRICHLET, (6.0, 9.0, 12.0), h=0.5)
    assert order == [12.0, 9.0, 6.0]
    assert list(table.planar_fields) == [6.0, 9.0, 12.0]
    small = _planar_truncated_solve(BallHole(1.0), DIRICHLET, 6.0, 0.5)
    assert table.planar_fields[6.0].grid == small.grid
    assert np.array_equal(table.planar_fields[6.0].values, small.values)


def test_elliptic_bc_residual_second_order():
    h = 1.0 / 256.0
    table = profile_elliptic(3, BallHole(1.0), ROBIN_HALF, (8.0, 16.0, 32.0), h=h)
    assert abs(table.boundary_residual()) <= 50.0 * h ** 2


def test_elliptic_rejects_bad_radius_list():
    with pytest.raises(PreconditionError):
        profile_elliptic(3, BallHole(1.0), DIRICHLET, (8.0,))
    with pytest.raises(PreconditionError):
        profile_elliptic(3, BallHole(1.0), DIRICHLET, (1.5, 8.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite"):
            profile_elliptic(3, BallHole(1.0), DIRICHLET, (8.0, bad))


def test_planar_elliptic_names_R_and_h_when_the_lattice_is_too_small(monkeypatch):
    # ceil(R / h) + 1 >= 8 nodes on a half axis, checked before any solve
    import heatext.profiles as profiles
    solved = []
    monkeypatch.setattr(profiles, "_planar_truncated_solve",
                        lambda *args: solved.append(args))
    with pytest.raises(PreconditionError, match=r"min\(R_list\) = 1 is too small for the "
                       r"lattice spacing h = 0\.25: .* that is R > 1\.5"):
        profile_elliptic(2, RectHole(0.01, 0.01), DIRICHLET, (1.0, 2.0))
    with pytest.raises(PreconditionError, match="h = 0.5"):
        profile_elliptic(2, RectHole(0.01, 0.01), DIRICHLET, (3.0, 8.0), h=0.5)
    for bad in (0.0, -0.25, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="spacing h must be positive and finite"):
            profile_elliptic(2, RectHole(0.01, 0.01), DIRICHLET, (8.0, 16.0), h=bad)
    assert solved == []
    # the smallest radius the lattice takes: ceil(R / h) = 7
    monkeypatch.undo()
    table = profile_elliptic(2, RectHole(0.01, 0.01), DIRICHLET, (1.5001, 2.0))
    assert table.planar_fields[1.5001].grid.n == 16


# ------------------------------------------------------------ planar fold

def _full_grid_solve(hole, theta, R, h):
    """Oracle: the truncated problem on the whole disc, one spsolve.

    Returns (phi, symmetric): phi on the full node array, and whether the
    full-grid masks are mirror-symmetric in x and in y.
    """
    m = int(math.ceil(R / h)) + 1
    grid = PlanarGrid(half_width=m * h, n=2 * m, hole=hole)
    X, Y = grid.meshgrid()
    hole_mask = grid.hole_mask()
    active = (X ** 2 + Y ** 2 < R ** 2 - 1e-12) & ~hole_mask
    unit = np.ones(2 * m + 1)
    (n, data, indices, indptr), far = masked_laplacian(
        active, hole_mask, (unit, unit, unit, unit), hole_ghost(theta, h))
    phi = np.ones(active.shape)
    phi[hole_mask] = 0.0
    phi[active] = spsolve(sp.csc_matrix((data, indices, indptr), shape=(n, n)), -far)
    symmetric = all(np.array_equal(a, a[::-1]) and np.array_equal(a, a[:, ::-1])
                    for a in (active, hole_mask))
    return phi, symmetric


@pytest.mark.parametrize("R", [8.0, 16.0])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("hole", [BallHole(1.0), RectHole(1.0, 0.5), RectHole(1.0, 1.0)])
def test_planar_quadrant_fold_matches_full_grid(hole, theta, R):
    tb = ThetaBoundary(theta)
    want, symmetric = _full_grid_solve(hole, tb, R, 0.25)
    assert symmetric
    got = _planar_truncated_solve(hole, tb, R, 0.25)
    assert got.values.shape == want.shape
    assert float(np.max(np.abs(got.values - want))) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("hole", [BallHole(1.0), RectHole(1.0, 0.5)])
def test_planar_fold_keeps_monotone_in_radius(hole, theta):
    table = profile_elliptic(2, hole, ThetaBoundary(theta), (8.0, 16.0), h=0.25)
    assert table.elliptic_monotone_violations(tol=1e-12) == 0


def test_planar_profile_is_mirror_symmetric():
    # at h = 1/3 the full lattice -half_width + i h rounds, and a node at
    # |x| = R = 64 used to fall inside the disc on one side only
    f = _planar_truncated_solve(BallHole(1.0), DIRICHLET, 64.0, 1.0 / 3.0)
    assert np.array_equal(f.values, f.values[::-1, :])
    assert np.array_equal(f.values, f.values[:, ::-1])
    assert np.array_equal(f.values, f.values.T)  # the octant fold's image


def _quadrant_active(hole, R, h):
    """The active nodes of the truncated solve's quadrant x, y >= 0."""
    m = int(math.ceil(R / h)) + 1
    X, Y = np.meshgrid(np.arange(m + 1) * h, np.arange(m + 1) * h, indexing="ij")
    return (X ** 2 + Y ** 2 < R ** 2 - 1e-12) & ~hole_nodes(hole, X, Y, 1e-12 * m * h)


@pytest.mark.parametrize("hole, octant", [(BallHole(1.0), True), (RectHole(1.0, 1.0), True),
                                          (RectHole(1.0, 0.5), False)])
def test_planar_solve_folds_onto_the_octant_when_x_y_symmetric(monkeypatch, hole, octant):
    # a hole symmetric under x <-> y is solved on the nodes j <= i of the
    # quadrant; any other keeps one unknown per active quadrant node
    import heatext.profiles as profiles
    sizes = []
    solve = profiles.spsolve

    def recorded(L, b):
        sizes.append(L[0])
        return solve(L, b)

    monkeypatch.setattr(profiles, "spsolve", recorded)
    f = _planar_truncated_solve(hole, ROBIN_HALF, 16.0, 0.25)
    active = _quadrant_active(hole, 16.0, 0.25)
    want = np.tril(active).sum() if octant else active.sum()
    assert sizes == [want]
    assert np.array_equal(f.values, f.values.T) == octant


@settings(max_examples=20, deadline=None)
@given(ball=st.booleans(), size=st.floats(0.3, 2.0),
       aspect=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
       theta=st.floats(0.0, 1.0, allow_subnormal=False), h=st.sampled_from([0.25, 0.5]),
       R_extra=st.floats(0.5, 6.0))
def test_planar_fold_property(ball, size, aspect, theta, h, R_extra):
    hole = BallHole(size) if ball else RectHole(size, size * aspect)
    R = min(12.0, max(2.0 * hole.circumscribed_radius, 8.0 * h) + R_extra)
    tb = ThetaBoundary(theta)
    got = _planar_truncated_solve(hole, tb, R, h).values
    # [0, 1] up to round-off: the Neumann solve returns 1 to within 1e-15
    assert np.all(got >= -1e-13) and np.all(got <= 1.0 + 1e-13)
    want, symmetric = _full_grid_solve(hole, tb, R, h)
    if symmetric:
        assert float(np.max(np.abs(got - want))) <= 1e-12


# ------------------------------------------------------------ mass

def _explicit_datum_grid(h=1.0 / 256.0, r_out=41.0):
    n = int(round((r_out - 1.0) / h))
    grid = RadialGrid(a=1.0, r_out=1.0 + n * h, n_r=n, dim=3)
    r = grid.nodes()
    vals = np.exp(-((r - 1.0) ** 2) / 4.0) * (r - 1.0) / (4.0 * r)
    return Field(grid, vals, 0.0)


def test_asymptotic_mass_explicit_datum():
    # oracle: 4 pi int Phi u0 r^2 dr = pi int_0^inf s^2 exp(-s^2/4) ds = 2 pi^(3/2)
    s = np.linspace(0.0, 60.0, 2000001)
    oracle = math.pi * float(np.trapezoid(s ** 2 * np.exp(-s ** 2 / 4.0), s))
    assert oracle == pytest.approx(2.0 * math.pi ** 1.5, rel=1e-10)
    u0 = _explicit_datum_grid()
    profile = profile_radial_closed_form(3, 1.0, DIRICHLET)
    assert asymptotic_mass(u0, profile) == pytest.approx(oracle, abs=2e-6)


def test_asymptotic_mass_neumann_conserves():
    u0 = _explicit_datum_grid()
    profile = profile_radial_closed_form(3, 1.0, NEUMANN)
    assert asymptotic_mass(u0, profile) == u0.integral()


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_asymptotic_mass_planar_is_exact(theta):
    # Phi is the constant 1 (Neumann) or 0, so m is u0's integral or 0
    hole = RectHole(1.0, 1.0)
    grid = PlanarGrid(half_width=8.0, n=64, hole=hole)
    X, Y = grid.meshgrid()
    u0 = Field(grid, np.where(grid.hole_mask(), 0.0, np.exp(-(X - 3.0) ** 2 - Y ** 2)))
    assert u0.integral() > 0.0
    m = asymptotic_mass(u0, profile_planar(hole, ThetaBoundary(theta)))
    assert m == (u0.integral() if theta == 1.0 else 0.0)


def test_asymptotic_mass_shrinking_shell_vanishes():
    # datum concentrated on a shell hugging the hole, where Phi -> 0
    profile = profile_radial_closed_form(3, 1.0, DIRICHLET)
    masses = []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        grid = RadialGrid(a=1.0, r_out=5.0, n_r=4096, dim=3)
        r = grid.nodes()
        vals = np.where((r >= 1.0) & (r <= 1.0 + eps), 1.0, 0.0)
        m = asymptotic_mass(Field(grid, vals), profile)
        norm = Field(grid, vals).integral()
        masses.append(m / norm)
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 0.05


def test_asymptotic_mass_grid_mismatch():
    u0 = _explicit_datum_grid()
    profile = profile_radial_closed_form(3, 2.0, DIRICHLET)  # wrong hole
    with pytest.raises(PreconditionError):
        asymptotic_mass(u0, profile)


def test_asymptotic_mass_axisym_hole_mismatch():
    grid = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=32, n_z=64, hole=BallHole(1.0))
    R, Z = grid.meshgrid()
    u0 = Field(grid, np.where(grid.hole_mask(), 0.0, np.exp(-R ** 2 - (Z - 3.0) ** 2)))
    m = asymptotic_mass(u0, profile_radial_closed_form(3, 1.0, DIRICHLET))
    assert 0.0 < m < u0.integral()
    with pytest.raises(PreconditionError, match="hole"):
        asymptotic_mass(u0, profile_radial_closed_form(3, 2.0, DIRICHLET))  # wrong hole


# ------------------------------------------------------------ decay fits

def test_decay_exponents_closed_form():
    p = profile_radial_closed_form(3, 1.0, DIRICHLET)
    rep0 = profile_decay_check(p, 0)
    assert rep0.passed and rep0.exponent == pytest.approx(-1.0, abs=1e-6)
    rep1 = profile_decay_check(p, 1)
    assert rep1.passed and rep1.exponent == pytest.approx(-2.0, abs=1e-5)
    rep2 = profile_decay_check(p, 2)
    assert rep2.passed and rep2.exponent == pytest.approx(-3.0, abs=1e-3)


def test_decay_check_neumann_skipped():
    p = profile_radial_closed_form(3, 1.0, NEUMANN)
    rep = profile_decay_check(p, 0)
    assert rep.skipped and rep.passed


@pytest.mark.parametrize("order", [0, 1, 2])
def test_decay_check_elliptic_neumann_skipped(order):
    # the sampled Neumann table is exactly 1, so 1 - Phi vanishes on the ladder
    table = profile_elliptic(3, BallHole(1.0), NEUMANN, (32.0, 64.0))
    assert table.coefficient is None and np.all(table.values == 1.0)
    rep = profile_decay_check(table, order)
    assert rep.skipped and rep.passed


# ------------------------------------------------------------ psi

def test_psi_complement_and_amplitude():
    p = profile_radial_closed_form(3, 1.0, DIRICHLET)
    psi = psi_from_profile(p)
    r = np.linspace(1.0, 50.0, 200)
    assert np.allclose(psi.evaluate(r), 1.0 / r, atol=1e-10)
    assert psi.amplitude == pytest.approx(1.0, rel=1e-6)
    assert np.all(psi.evaluate(r) <= psi.amplitude / r + 1e-12)
    with pytest.raises(PreconditionError):
        psi_from_profile(profile_radial_closed_form(3, 1.0, NEUMANN))
