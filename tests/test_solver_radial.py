import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from heatext.constructions import (
    BALL_EIGENVALUE,
    ball_eigenfunction,
    explicit_solution,
    explicit_solution_mass,
)
from heatext.domain import BallHole, ThetaBoundary
from heatext.errors import GeometryError, NumericalError, PreconditionError
from heatext.solver import (
    AxisymGrid,
    Field,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_axisym,
    evolve_ball,
    evolve_planar,
    evolve_radial,
    kernel_probe,
    mass_balance_residual,
)
from heatext.presets import make_radial_datum
from heatext.solver import radial as radial_module
from heatext.solver.fastsolve import dpttrs, symmetric_factor
from heatext.solver.march import MAX_STEPS, step_count
from heatext.solver.probes import mollifier_bump
from heatext.solver.radial import _crank_nicolson_run, radial_operator, radial_stiffness

DIRICHLET = ThetaBoundary(0.0)
NEUMANN = ThetaBoundary(1.0)


def _setup(t_max, h=1.0 / 32.0, dim=3, a=1.0):
    r_out_req = a + 6.0 * math.sqrt(4.0 * t_max)
    n = int(math.ceil((r_out_req - a) / h))
    return RadialGrid(a=a, r_out=a + n * h, n_r=n, dim=dim)


def _explicit_datum(grid):
    vals = explicit_solution(grid.nodes(), 0.0)
    vals[-1] = 0.0
    return Field(grid, vals, 0.0)


@pytest.fixture(scope="module")
def explicit_run():
    grid = _setup(10.0, h=1.0 / 32.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(1.0, 10.0))
    snaps, ledger = evolve_radial(DIRICHLET, _explicit_datum(grid), cfg)
    return grid, snaps, ledger


class TestExplicitSolutionRegression:
    """The exact solution is the oracle for the radial Dirichlet path."""

    @pytest.fixture
    def run(self, explicit_run):
        return explicit_run

    def test_pointwise_error(self, run):
        grid, snaps, _ = run
        r = grid.nodes()
        win = r <= 21.0
        for s in snaps:
            exact = explicit_solution(r, s.time)
            err = np.max(np.abs(s.values - exact)[win]) / np.max(np.abs(exact)[win])
            assert err <= 1e-3

    def test_mass_law(self, run):
        _, _, ledger = run
        t, m, _ = ledger.as_arrays()
        expect = explicit_solution_mass(t)
        assert np.max(np.abs(m - expect)) / m[0] <= 2e-3

    def test_balance_residual(self, run):
        _, _, ledger = run
        assert mass_balance_residual(ledger) <= 2e-3

    def test_initial_flux_matches_hand_derivative(self, run):
        # u_r(1, 0) = 1/4 by expanding the closed form, so F(0) = -pi;
        # the one-sided derivative is O(h^2) and h = 1/32 here
        _, _, ledger = run
        assert ledger.fluxes[0] == pytest.approx(-math.pi, rel=5e-3)

    def test_positivity(self, run):
        _, snaps, _ = run
        for s in snaps:
            assert float(np.min(s.values)) >= -1e-12

    def test_contraction_in_l1_and_sup(self, run):
        _, snaps, ledger = run
        t, m, _ = ledger.as_arrays()
        assert np.all(np.diff(m) <= 1e-12 * m[0])
        sups = [float(np.max(s.values)) for s in snaps]
        assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))


def test_neumann_mass_conserved():
    grid = _setup(10.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(10.0,))
    _, ledger = evolve_radial(NEUMANN, _explicit_datum(grid), cfg)
    t, m, f = ledger.as_arrays()
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-4
    assert np.all(f == 0.0)  # flux from the boundary identity du/dn = -b u


def test_neumann_balance_residual_is_drift():
    grid = _setup(5.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(5.0,))
    _, ledger = evolve_radial(NEUMANN, _explicit_datum(grid), cfg)
    assert mass_balance_residual(ledger) <= 1e-4


def test_robin_flux_identity():
    # dM/dt = -omega a^2 b u(a): cross-check the ledger flux against the
    # mass derivative measured from the ledger itself
    grid = _setup(2.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(2.0,))
    _, ledger = evolve_radial(ThetaBoundary(0.5), _explicit_datum(grid), cfg)
    assert mass_balance_residual(ledger) <= 2e-3
    t, m, f = ledger.as_arrays()
    mid = len(t) // 2
    dmdt = (m[mid + 1] - m[mid - 1]) / (t[mid + 1] - t[mid - 1])
    assert dmdt == pytest.approx(f[mid], rel=5e-2)


def test_balance_residual_needs_three_rows():
    from heatext.solver import MassLedger
    ledger = MassLedger()
    ledger.append(0.0, 1.0, 0.0)
    ledger.append(1.0, 0.9, -0.1)
    with pytest.raises(PreconditionError):
        mass_balance_residual(ledger)


def test_mass_at_rejects_times_without_a_row():
    from heatext.solver import MassLedger
    ledger = MassLedger()
    for t, m in ((0.0, 1.0), (1.0, 0.9), (10.0, 0.5)):
        ledger.append(t, m, 0.0)
    assert ledger.mass_at(10.0) == 0.5
    assert ledger.mass_at(1.0) == 0.9
    for t in (1.04, 5.0):
        with pytest.raises(KeyError):
            ledger.mass_at(t)
    with pytest.raises(KeyError):
        ledger.mass_at(11.0)


def test_field_rejects_values_off_the_grid_nodes():
    with pytest.raises(PreconditionError, match="shape"):
        Field(RadialGrid(1.0, 9.0, 64, 3), np.ones(70))


def _bump_run(cfg, h=0.25):
    """A Dirichlet run of a bump datum on a 64-cell grid of spacing h."""
    grid = RadialGrid(a=1.0, r_out=1.0 + 64 * h, n_r=64, dim=3)
    r = grid.nodes()
    vals = np.where(np.abs(r - 4.0) < 2.0, (1.0 - ((r - 4.0) / 2.0) ** 2) ** 2, 0.0)
    return evolve_radial(DIRICHLET, Field(grid, vals), cfg)


def test_snapshot_time_off_the_step_grid_is_reached_exactly():
    # 1.0 is not a multiple of dt = 0.3: four equal steps of 0.25
    snaps, ledger = _bump_run(StepperConfig(dt=0.3, snapshot_times=(1.0,)), h=0.3)
    assert snaps[-1].time == 1.0
    assert ledger.times == [0.0, 0.25, 0.5, 0.75, 1.0]


@settings(max_examples=40, deadline=None)
@given(cap=st.floats(0.02, 0.25),
       spans=st.lists(st.tuples(st.integers(0, 5),
                                st.one_of(st.just(0.0), st.floats(0.05, 0.95))),
                      min_size=1, max_size=4))
@example(cap=0.25, spans=[(0, 0.5), (3, 0.0), (1, 0.37)])
def test_march_stops_at_every_requested_time(cap, spans):
    # each span between snapshots is k caps plus a fraction f of one; the
    # march takes exactly k steps (f = 0) or k + 1 equal smaller ones
    spans = [(k, f) for k, f in spans if k or f] or [(1, 0.0)]
    times = tuple(np.cumsum([(k + f) * cap for k, f in spans]))
    cfg = StepperConfig(dt=cap, snapshot_times=times)
    snaps, ledger = _bump_run(cfg)
    assert [s.time for s in snaps] == list(times)
    assert all(t in ledger.times for t in times)
    steps = np.diff(ledger.times)
    assert np.all(steps <= cap * (1.0 + 1e-9) + 4.0 * np.spacing(times[-1]))
    assert len(steps) == sum(k + (f > 0.0) for k, f in spans)


def test_zero_datum_short_circuits():
    grid = _setup(1.0)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(0.5, 1.0))
    u0 = Field(grid, np.zeros(grid.n_r + 1), 0.0)
    snaps, ledger = evolve_radial(DIRICHLET, u0, cfg)
    for s in snaps:
        assert np.all(s.values == 0.0)
    t, m, f = ledger.as_arrays()
    assert np.all(m == 0.0) and np.all(f == 0.0)


def test_theta_ordering_pointwise():
    grid = _setup(2.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(0.5, 2.0))
    u0 = _explicit_datum(grid)
    runs = {}
    for theta in (0.0, 0.5, 1.0):
        runs[theta], _ = evolve_radial(ThetaBoundary(theta), u0, cfg)
    for s0, s5, s1 in zip(runs[0.0], runs[0.5], runs[1.0]):
        assert float(np.max(s0.values - s5.values)) <= 1e-8
        assert float(np.max(s5.values - s1.values)) <= 1e-8


def test_snapshots_are_locked():
    grid = _setup(1.0)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(1.0,))
    snaps, _ = evolve_radial(DIRICHLET, _explicit_datum(grid), cfg)
    with pytest.raises(ValueError):
        snaps[0].values[0] = 1.0


def test_dirichlet_datum_precondition():
    grid = _setup(1.0)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(1.0,))
    values = np.ones(grid.n_r + 1)
    values[-1] = 0.0  # the far node is pinned under every theta
    bad = Field(grid, values, 0.0)
    with pytest.raises(PreconditionError):
        evolve_radial(DIRICHLET, bad, cfg)
    # the same datum is fine under Neumann
    evolve_radial(NEUMANN, bad, cfg)
    # a nonzero far node is not dropped without a word
    with pytest.raises(PreconditionError, match="far-edge"):
        evolve_radial(NEUMANN, Field(grid, np.ones(grid.n_r + 1), 0.0), cfg)


def test_accuracy_guard_dt_le_h():
    grid = _setup(1.0, h=1.0 / 32.0)
    cfg = StepperConfig(dt=1.0 / 16.0, snapshot_times=(1.0,))
    with pytest.raises(PreconditionError):
        evolve_radial(DIRICHLET, _explicit_datum(grid), cfg)


@pytest.mark.parametrize("r_out, ok", [(3.5, False), (4.0 - 1e-12, False), (4.0, True)])
def test_grid_is_the_truncated_domain(r_out, ok):
    # the grid's r_out is the far radius, which must be at least 4 a
    grid = RadialGrid(a=1.0, r_out=r_out, n_r=96, dim=3)
    u0 = Field(grid, np.zeros(grid.shape))
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(0.125,))
    if ok:
        evolve_radial(DIRICHLET, u0, cfg)
    else:
        with pytest.raises(GeometryError, match="at least 4x"):
            evolve_radial(DIRICHLET, u0, cfg)


def test_a_grid_without_a_hole_is_not_an_exterior_domain():
    # a = 0 is the ball or the whole space: evolve_ball and the probes run it
    grid = RadialGrid(a=0.0, r_out=8.0, n_r=64, dim=3)
    cfg = StepperConfig(dt=1.0 / 16.0, snapshot_times=(0.125,))
    with pytest.raises(GeometryError, match="needs a ball or rect hole"):
        evolve_radial(DIRICHLET, Field(grid, np.zeros(grid.shape)), cfg)


_RADIAL = RadialGrid(a=1.0, r_out=8.0, n_r=64, dim=3)
_PLANAR = PlanarGrid(half_width=8.0, n=16, hole=BallHole(1.0))
_AXISYM = AxisymGrid(rho_max=8.0, z_half=8.0, n_rho=16, n_z=16, hole=BallHole(1.0))


@pytest.mark.parametrize("run, grid, message", [
    (lambda u0, cfg: evolve_radial(DIRICHLET, u0, cfg), _PLANAR,
     "evolve_radial requires a Field on a RadialGrid"),
    (lambda u0, cfg: evolve_planar(DIRICHLET, u0, cfg), _RADIAL,
     "evolve_planar requires a Field on a PlanarGrid"),
    (lambda u0, cfg: evolve_axisym(DIRICHLET, u0, cfg), _PLANAR,
     "evolve_axisym requires a Field on an AxisymGrid"),
    (evolve_ball, _RADIAL, "evolve_ball requires a RadialGrid with a = 0"),
    (evolve_ball, _AXISYM, "evolve_ball requires a RadialGrid with a = 0"),
], ids=["radial", "planar", "axisym", "ball-with-hole", "ball-axisym"])
def test_entry_points_reject_a_field_on_another_grid(run, grid, message):
    cfg = StepperConfig(dt=1.0 / 16.0, snapshot_times=(0.125,))
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        run(Field(grid, np.zeros(grid.shape)), cfg)


def test_nonfinite_datum_rejected():
    grid = _setup(1.0)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(1.0,))
    vals = np.zeros(grid.n_r + 1)
    vals[5] = np.nan
    with pytest.raises(PreconditionError):
        evolve_radial(DIRICHLET, Field(grid, vals), cfg)


@pytest.mark.parametrize("size", [70, 61, 65])
def test_ball_datum_is_checked(size):
    # a 65-node ball grid: a datum of the wrong length, or a non-finite
    # one, is rejected before the march
    grid = RadialGrid(a=0.0, r_out=1.0, n_r=64, dim=3)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(0.25,))
    vals = np.zeros(size)
    if size == grid.n_r + 1:
        vals[5] = np.inf
    with pytest.raises(PreconditionError):
        evolve_ball(Field(grid, vals), cfg)


@pytest.fixture(scope="module")
def long_coarse_run():
    # asymptotic-regime fits need late windows: the closed form's
    # (r-1)/r factor keeps early-window slopes above the limit rate
    grid = _setup(400.5, h=1.0 / 16.0)
    times = (50.0, 50.5, 100.0, 100.5, 200.0, 200.5, 400.0, 400.5)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=times)
    snaps, _ = evolve_radial(DIRICHLET, _explicit_datum(grid), cfg)
    return grid, snaps


def test_smoothing_sup_norm_exponent(long_coarse_run):
    # ||u(t)||_inf decays like (t+1)^(-3/2); fitted over [50, 400]
    grid, snaps = long_coarse_run
    fit_snaps = [s for s in snaps if s.time in (50.0, 100.0, 200.0, 400.0)]
    sups = np.array([float(np.max(s.values)) for s in fit_snaps])
    ts = np.array([s.time for s in fit_snaps])
    slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert slope <= -3.0 / 2.0 + 0.1
    scaled = ts ** 1.5 * sups
    assert np.all(scaled <= 0.26)  # bounded; the limit value is 1/4


def test_time_derivative_decay_exponent(long_coarse_run):
    # |du/dt| at a fixed interior point decays with exponent <= -(N/2+1)+0.15
    grid, snaps = long_coarse_run
    i_probe = int(round((3.0 - 1.0) / grid.h))  # r = 3
    mids, duds = [], []
    for t_lo in (50.0, 100.0, 200.0, 400.0):
        s_lo = next(s for s in snaps if s.time == t_lo)
        s_hi = next(s for s in snaps if abs(s.time - (t_lo + 0.5)) < 1e-9)
        mids.append(t_lo + 0.25)
        duds.append(abs(s_hi.values[i_probe] - s_lo.values[i_probe]) / 0.5)
    slope = np.polyfit(np.log(mids), np.log(duds), 1)[0]
    assert slope <= -(3.0 / 2.0 + 1.0) + 0.15


def test_free_space_domination():
    # Dirichlet solution is bounded by the free-space evolution of the
    # same datum; free-space oracle computed by dense quadrature of the
    # kernel representation at one late time
    grid = _setup(5.0, h=1.0 / 32.0)
    cfg = StepperConfig(dt=1.0 / 64.0, snapshot_times=(5.0,))
    u0 = _explicit_datum(grid)
    snaps, _ = evolve_radial(DIRICHLET, u0, cfg)
    s = snaps[0]
    r = grid.nodes()
    t = s.time
    # free-space radial convolution: u(r) = int k(r, s) u0(s) s^2 ds with the
    # spherical-average kernel (2 pi s / r) (4 pi t)^(-3/2) 2t/s/r ... use
    # the exact 1d reduction via sinh
    src = u0.values
    out = np.zeros_like(r)
    for i, rv in enumerate(r[:: max(1, len(r) // 200)]):
        ri = rv if rv > 0 else 1e-9
        arg = ri * r / (2.0 * t)
        kern = (np.exp(-(ri ** 2 + r ** 2) / (4.0 * t)) / (4.0 * math.pi * t) ** 1.5
                * np.where(arg > 0, np.sinh(np.minimum(arg, 700.0)) / np.maximum(arg, 1e-300), 1.0))
        val = 4.0 * math.pi * np.trapezoid(kern * src * r ** 2, r)
        idx = i * max(1, len(r) // 200)
        out[idx] = val
        assert s.values[idx] <= val + 1e-6


def test_ball_eigen_decay_coarse():
    # unit-ball run with the first eigenfunction: mass decays as exp(-pi^2 t)
    grid = RadialGrid(a=0.0, r_out=1.0, n_r=128, dim=3)
    vals = ball_eigenfunction(grid.nodes())
    cfg = StepperConfig(dt=1.0 / 1024.0, snapshot_times=(0.2,))
    snaps, ledger = evolve_ball(Field(grid, vals), cfg)
    t, m, _ = ledger.as_arrays()
    expect = m[0] * np.exp(-BALL_EIGENVALUE * t)
    assert np.max(np.abs(m - expect) / expect) <= 1e-3
    # eigenfunction normalisation: unit mass on the ball
    assert m[0] == pytest.approx(1.0, abs=2e-4)


def test_domain_monotonicity_ball_inside_exterior():
    # a Dirichlet ball solution sits below the exterior-domain solution:
    # compare the ball run (radius 1.5 around r0 = 4) with the exterior run
    # restricted along the radial line through the ball centre
    a, r0, R = 1.0, 4.0, 1.5
    grid = _setup(0.5, h=1.0 / 64.0)
    r = grid.nodes()
    width = 0.75
    bump = np.where(np.abs(r - r0) < width, (1.0 - ((r - r0) / width) ** 2) ** 2, 0.0)
    cfg = StepperConfig(dt=1.0 / 128.0, snapshot_times=(0.5,))
    snaps, _ = evolve_radial(DIRICHLET, Field(grid, bump), cfg)
    # ball solution about r0 with the same (radial about r0) datum; its
    # radial coordinate is s = |x - r0 e|, valid on the segment through r0
    ball_grid = RadialGrid(a=0.0, r_out=R, n_r=192, dim=3)
    s = ball_grid.nodes()
    ball_datum = np.where(s < width, (1.0 - (s / width) ** 2) ** 2, 0.0)
    ball_snaps, _ = evolve_ball(Field(ball_grid, ball_datum), cfg)
    ball_vals = ball_snaps[0].values
    sel = np.abs(r - r0) <= 0.9 * R
    interp = np.interp(np.abs(r[sel] - r0), s, ball_vals)
    assert np.all(interp <= snaps[0].values[sel] + 5e-4)


def _steps(stops):
    """The number of steps the march takes through the stops."""
    t_prev, n = 0.0, 0
    for t, cap in stops:
        n += step_count(t - t_prev, cap)
        t_prev = t
    return n


def _banded_reference(grid, theta, values, stops):
    """Crank-Nicolson stepped as u+ = solve_banded(A, B u) through the stops:
    (masses, snapshots)."""
    lo, di, up = radial_operator(grid, theta)
    w = grid.volume_weights()
    u = values.copy()
    masses, snaps = [float(w @ u)], []
    t_prev = 0.0
    for t_stop, cap in stops:
        n = step_count(t_stop - t_prev, cap)
        if n:  # no band for an interval without steps
            half = 0.5 * (t_stop - t_prev) / n
            ab = np.zeros((3, values.size))
            ab[0, 1:] = -half * up[:-1]
            ab[1, :] = 1.0 - half * di
            ab[2, :-1] = -half * lo[1:]
        for _ in range(n):
            rhs = (1.0 + half * di) * u
            rhs[:-1] += half * up[:-1] * u[1:]
            rhs[1:] += half * lo[1:] * u[:-1]
            u = solve_banded((1, 1), ab, rhs)
            masses.append(float(w @ u))
        snaps.append(u)
        t_prev = t_stop
    return np.array(masses), snaps


def _check_banded(grid, theta, values, stops, snaps, ledger):
    masses, want = _banded_reference(grid, theta, values, stops)
    _, m, _ = ledger.as_arrays()
    assert np.max(np.abs(m - masses)) <= 1e-12 * np.max(np.abs(masses))
    assert len(snaps) == len(want)
    for s, u in zip(snaps, want):
        assert np.max(np.abs(s.values - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_factored_step_matches_banded_reference(theta):
    grid = _setup(2.0, h=1.0 / 16.0)
    r = grid.nodes()
    vals = np.where(np.abs(r - 3.0) < 1.0, (1.0 - (r - 3.0) ** 2) ** 2, 0.0)
    cfg = StepperConfig(dt=1.0 / 32.0, snapshot_times=(0.5, 2.0))
    tb = ThetaBoundary(theta)
    snaps, ledger = evolve_radial(tb, Field(grid, vals), cfg)
    stops = cfg.stops(radial_stiffness(grid, tb), grid.spacing)
    _check_banded(grid, tb, vals, stops, snaps, ledger)


def test_factored_ball_step_matches_banded_reference():
    grid = RadialGrid(a=0.0, r_out=1.0, n_r=128, dim=3)
    vals = ball_eigenfunction(grid.nodes())
    vals[-1] = 0.0
    cfg = StepperConfig(dt=1.0 / 256.0, snapshot_times=(0.05, 0.2))
    snaps, ledger = evolve_ball(Field(grid, vals), cfg)
    stops = cfg.stops(radial_stiffness(grid, ThetaBoundary(1.0)), grid.spacing)
    _check_banded(grid, ThetaBoundary(1.0), vals, stops, snaps, ledger)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       a=st.one_of(st.just(0.0), st.floats(0.25, 3.0)),
       theta=st.floats(0.0, 1.0, allow_subnormal=False),
       n_r=st.integers(64, 160),
       h=st.floats(1.0 / 64.0, 1.0 / 8.0),
       dt_over_h=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=3, a=0.0, theta=1.0, n_r=64, h=1.0 / 64.0, dt_over_h=1.0, seed=0)
@example(dim=2, a=0.0, theta=1.0, n_r=64, h=1.0 / 8.0, dt_over_h=1.0, seed=1)
@example(dim=3, a=1.0, theta=0.0, n_r=64, h=1.0 / 16.0, dt_over_h=0.5, seed=2)
@example(dim=2, a=0.25, theta=1.0, n_r=64, h=1.0 / 8.0, dt_over_h=1.0, seed=3)
@example(dim=3, a=3.0, theta=1e-300, n_r=64, h=1.0 / 64.0, dt_over_h=1.0, seed=4)
def test_symmetric_step_matches_banded_reference(dim, a, theta, n_r, h, dt_over_h, seed):
    # Dirichlet, Robin and Neumann hole rows, the parity row (a = 0) and the
    # decoupled node 0 of a = 0 in dim 3
    n_r = max(n_r, int(math.ceil(3.0 * a / h)) + 1)  # r_out >= 4 a
    grid = RadialGrid(a=a, r_out=a + n_r * h, n_r=n_r, dim=dim)
    tb = ThetaBoundary(theta)
    values = np.random.default_rng(seed).random(n_r + 1)
    values[-1] = 0.0
    if a > 0.0 and tb.is_dirichlet:
        values[0] = 0.0
    dt = dt_over_h * h
    cfg = StepperConfig(dt=dt, snapshot_times=(dt,))

    def run():
        if a == 0.0:
            return evolve_ball(Field(grid, values), cfg)
        return evolve_radial(tb, Field(grid, values), cfg)

    try:
        radial_operator(grid, tb)
    except GeometryError:
        # only a theta whose Robin row overflows
        assert a > 0.0 and theta < 1e-290
        with pytest.raises(GeometryError, match="theta"):
            run()
        return
    if _steps(cfg.stops(radial_stiffness(grid, tb), grid.spacing)) > MAX_STEPS:
        # only a Robin row whose b = cot(pi theta/2) asks the start-up for
        # more steps than a run may take
        assert a > 0.0 and theta < 1e-6
        with pytest.raises(PreconditionError, match="step budget"):
            run()
        return
    # the step itself, one of dt: the evolution's start-up takes 2^k steps
    # of dt / 2^k, up to MAX_STEPS for a tiny theta, and over 16 384 steps
    # (theta = 1e-10) the round-off of the two factorisations drifts apart by
    # 1.4e-12 of the mass
    stops = ((dt, dt),)
    snaps, ledger = _crank_nicolson_run(grid, tb, values, stops, (dt,))
    _check_banded(grid, tb, values, stops, snaps, ledger)


def test_robin_row_overflow_is_a_geometry_error():
    # b = cot(pi theta/2) = 6.4e307 is finite, the Robin row is not
    grid = _setup(1.0)
    with pytest.raises(GeometryError, match="theta = 1e-308"):
        radial_operator(grid, ThetaBoundary(1e-308))
    lo, di, up = radial_operator(grid, ThetaBoundary(1e-300))
    assert np.all(np.isfinite(di))


def test_coarse_robin_grid_that_crank_nicolson_would_amplify_fails_loudly():
    # h = 0.5 > 2 a / (N - 1) = 0.1: the Robin row's diagonal is positive and
    # L has an eigenvalue above 2 / dt, whose Crank-Nicolson factor is < -1
    a, h, dt = 0.1, 0.5, 0.5
    grid = RadialGrid(a=a, r_out=a + 64 * h, n_r=64, dim=3)
    tb = ThetaBoundary(0.001)
    lo, di, up = radial_operator(grid, tb)
    L = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    assert np.max(np.linalg.eigvals(L).real) > 2.0 / dt
    r = grid.nodes()
    u0 = Field(grid, np.where(np.abs(r - 3.0) < 1.0, 1.0 - (r - 3.0) ** 2, 0.0))
    with pytest.raises(NumericalError, match="too coarse for the hole"):
        evolve_radial(tb, u0, StepperConfig(dt=dt, snapshot_times=(1.0,)))


# ------------------------------------------------------------ the march's window

WINDOW_CASES = [pytest.param((dim, theta), id=f"dim{dim}-{kind}") for dim in (2, 3)
                for theta, kind in ((0.0, "dirichlet"), (0.5, "robin"), (1.0, "neumann"))]
WINDOW_CASES += [pytest.param(case, id=case) for case in ("ball", "probe")]


def _window_run(case):
    """(snapshot values, ledger, max|u0|) of one run whose datum ends far
    inside its grid: dims 2 and 3 around a Dirichlet, Robin or Neumann hole,
    the ball (a = 0) and the whole-space kernel probe (a = 0)."""
    h, n, times = 1.0 / 16.0, 4096, (0.5, 2.0)
    if case == "probe":
        width = 0.25
        probe = kernel_probe(None, 3.0, width, times, n_r=n // 2, pad=24.0)
        grid = probe.snapshots[0].grid
        bump = mollifier_bump(grid.nodes(), width)
        peak = float(np.max(bump) / np.sum(grid.volume_weights() * bump))
        return [s.values for s in probe.snapshots], probe.ledger, peak
    cfg = StepperConfig(dt=h, snapshot_times=times)
    if case == "ball":
        grid = RadialGrid(a=0.0, r_out=n * h, n_r=n, dim=3)
        u0 = Field(grid, np.exp(-grid.nodes() ** 2))
        snaps, ledger = evolve_ball(u0, cfg)
    else:
        dim, theta = case
        grid = RadialGrid(a=1.0, r_out=1.0 + n * h, n_r=n, dim=dim)
        tb = ThetaBoundary(theta)
        u0 = make_radial_datum("gaussian-bump:3,0.5", grid, tb)
        snaps, ledger = evolve_radial(tb, u0, cfg)
    return [s.values for s in snaps], ledger, float(np.max(np.abs(u0.values)))


def _committed(sizes):
    """The solve size of each step: a step re-solves on a wider window until
    its bound holds, and the next step starts from the window it kept."""
    return [size for size, after in zip(sizes, sizes[1:] + [0]) if after <= size]


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_windowed_march_matches_the_full_solve(monkeypatch, case):
    sizes = []
    real = radial_module.dpttrs

    def counted(d, e, b, overwrite_b=0):
        sizes.append(d.size)
        return real(d, e, b, overwrite_b=overwrite_b)

    monkeypatch.setattr(radial_module, "dpttrs", counted)
    snaps, ledger, peak = _window_run(case)
    windowed = _committed(sizes)
    monkeypatch.setattr(radial_module, "FLOOR", 0.0)  # every step solves on every node
    sizes.clear()
    full_snaps, full_ledger, _ = _window_run(case)
    full = _committed(sizes)
    assert len(windowed) == len(full) == len(ledger) - 1
    assert set(full) == {max(sizes)}
    assert min(windowed) < max(sizes) / 2  # the window did narrow the early steps
    for got, want in zip(ledger.as_arrays()[1:], full_ledger.as_arrays()[1:]):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for got, want in zip(snaps, full_snaps):
        tol = radial_module.FLOOR * peak + 4.0 * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol


def _recorded(monkeypatch):
    """(steps, factors): every step's (dt, argument, result) of the radial
    solves that the runs after this call commit, and their factor functions.
    A factor's solver returns twice the solve, so the result recorded is its
    output halved, which is exact."""
    steps, factors, real_march = [], [], radial_module.march

    def recording(u, stops, factor, *args):
        factors.append(factor)

        def recorded(dt):
            solve2 = factor(dt)

            def step(v, x):
                solve2(v, x)
                steps.append((dt, v.copy(), 0.5 * x))
            return step
        return real_march(u, stops, recorded, *args)

    monkeypatch.setattr(radial_module, "march", recording)
    return steps, factors


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_every_windowed_step_is_within_the_floor_of_the_full_solve(monkeypatch, case):
    steps, factors = _recorded(monkeypatch)
    floor = radial_module.FLOOR * _window_run(case)[2]
    windowed = steps[:]
    monkeypatch.setattr(radial_module, "FLOOR", 0.0)
    _window_run(case)
    full = factors[-1]  # its run widened the window to every node
    solves = {dt: full(dt) for dt, _, _ in windowed}
    for dt, v, x in windowed:
        want = np.zeros(v.size)
        solves[dt](v, want)
        want *= 0.5
        assert np.all(np.abs(x - want) <= floor + 4.0 * np.finfo(float).eps * np.abs(want))


# the sweep's grid (h = 1/64, r_out for t_max = 30) and evolve's datum on
# its snapshot times, and the stiff Robin row of theta = 0.001 under the
# start-up, on rough data; and the ball (a = 0, dim 3), whose node 0 is
# back-substituted from its parity row
SOLVE2_CASES = [pytest.param("explicit-remark", theta, (1.0, 10.0, 30.0), id=f"sweep-{theta:g}")
                for theta in (0.0, 0.2, 1.0)]
SOLVE2_CASES += [pytest.param("indicator-shell:1,2", 0.001, (1.0, 2.0), id="shell-0.001"),
                 pytest.param("ball", 1.0, (0.5, 2.0), id="ball")]
SUBNORMAL_ULP = 2.0 ** -1074


@pytest.mark.parametrize("preset, theta, times", SOLVE2_CASES)
def test_every_committed_solve2_is_twice_the_plain_windowed_solve(monkeypatch, preset, theta,
                                                                 times):
    # halving d doubles each of dpttrs's operations exactly, so the march's
    # solve2 is twice the plain solve on the window it commits, bit for bit
    # wherever the plain solve stays out of the subnormal range. A window's
    # far tail can decay into it, where the plain solve rounds on the
    # absolute grid SUBNORMAL_ULP and solve2, one binade higher, does not:
    # on the sweep grid 10 of 1 060 steps differ, by at most 16 ulp of that
    # grid, at nodes below 3e-307
    if preset == "ball":
        grid = RadialGrid(a=0.0, r_out=64.0, n_r=4096, dim=3)
    else:
        grid = RadialGrid(a=1.0, r_out=1.0 + 4207 / 64.0, n_r=4207, dim=3)
    tb = ThetaBoundary(theta)
    lo, di, up = radial_operator(grid, tb)
    n = grid.n_r
    first = 0 if up[0] != 0.0 and lo[1] != 0.0 else 1
    factors, sizes, checked = {}, [], []
    real_dpttrs, real_march = radial_module.dpttrs, radial_module.march

    def plain(dt, v, k):
        """The plain solve of v on the window of k coupled nodes, 0 past it."""
        half = 0.5 * dt
        if dt not in factors:
            factors[dt] = symmetric_factor(-half * lo[first:n], 1.0 - half * di[first:n],
                                           -half * up[first:n])[1:]
        d, e = factors[dt]
        x = np.zeros(n)
        x[first:first + k] = dpttrs(d[:k], e[:k - 1], v[first:first + k])[0]
        if first:
            x[0] = (v[0] + half * up[0] * x[1]) / (1.0 - half * di[0])
        return x

    def counted(d, e, b, overwrite_b=0):
        sizes.append(d.size)
        return real_dpttrs(d, e, b, overwrite_b=overwrite_b)

    def recording(u, stops, factor, *args):
        def checked_factor(dt):
            solve2 = factor(dt)

            def step(v, x):
                arg = v.copy()
                solve2(v, x)
                want = 2.0 * plain(dt, arg, sizes[-1])
                normal = np.abs(want) >= 1e-300
                assert np.array_equal(x[normal], want[normal])
                assert np.max(np.abs(x - want)) <= 16 * SUBNORMAL_ULP
                checked.append((sizes[-1], not np.array_equal(x, want)))
            return step
        return real_march(u, stops, checked_factor, *args)

    monkeypatch.setattr(radial_module, "dpttrs", counted)
    monkeypatch.setattr(radial_module, "march", recording)
    cfg = StepperConfig(grid.h / 2.0, times)
    if preset == "ball":
        assert first == 1 and lo[1] == 0.0
        evolve_ball(Field(grid, np.exp(-grid.nodes() ** 2)), cfg)
    else:
        evolve_radial(tb, make_radial_datum(preset, grid, tb), cfg)
    assert len(checked) > 100
    assert min(k for k, _ in checked) < n - first  # the window did narrow
    assert sum(moved for _, moved in checked) <= 0.02 * len(checked)


def test_audit_snapshots_hold_no_subnormal_value(run_t200_audit):
    # the window holds the far nodes at exactly 0 instead of letting the
    # solve's decaying tail underflow through the subnormal range
    for snap in run_t200_audit.snapshots:
        size = np.abs(snap.values)
        assert np.all((size == 0.0) | (size >= sys.float_info.min)), snap.time
