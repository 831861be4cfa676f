"""The graded time grid: its stops, its accuracy guard, the step budget, a
spectral oracle for the radial march on it, its order in the growth, rough
data on it and the small-theta hole flux it gets right.

Every evolution (`StepperConfig.stops`: the library entry points, every
CLI run, the fixtures and the demos) keeps steps of at most dt, fewer if
the start-up damping rule binds for the Gershgorin bound of its own
operator, up to t_s = dt / GROWTH and then stops on a x1.25 ladder with
cap max(dt, GROWTH t_prev).
"""

import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from heatext.cli import main
from heatext.constructions import explicit_solution, explicit_solution_mass
from heatext.domain import BallHole, RectHole, ThetaBoundary, required_far_radius
from heatext.errors import PreconditionError
from heatext.presets import make_planar_datum, make_radial_datum
from heatext.solver import (
    AxisymGrid,
    Field,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_radial,
    mollifier_bump,
)
from heatext.solver import march as march_module
from heatext.solver import planar as planar_module
from heatext.solver import radial as radial_module
from heatext.solver.config import GROWTH, LADDER_RATIO, WARMUP_DAMPING, graded_stops, warmup_steps
from heatext.solver.grids import stiffness
from heatext.solver.march import MAX_STEPS, march_masked, step_count
from heatext.solver.radial import _crank_nicolson_run, radial_operator, radial_stiffness


def _radial_grid(n_r=1024, h=1.0 / 64.0):
    return RadialGrid(a=1.0, r_out=1.0 + n_r * h, n_r=n_r, dim=3)


def _step_sizes(stops):
    """The step size of each step the march takes through the stops."""
    out, t_prev = [], 0.0
    for t, cap in stops:
        n = step_count(t - t_prev, cap)
        out += [(t - t_prev) / max(n, 1)] * n
        t_prev = t
    return out


# ----------------------------------------------------------------- stops

def test_graded_stops_follow_the_ladder_and_the_caps():
    grid = _radial_grid()
    dt, times = grid.h / 2.0, (1.0, 10.0, 30.0)
    lam_bar = radial_stiffness(grid, ThetaBoundary(0.5))
    stops = StepperConfig(dt, times).stops(lam_bar, grid.spacing)
    t_s = dt / GROWTH
    # the damping rule binds on this grid: 244 steps, so 400 of dt / 2, not 200
    assert t_s / 244 < dt and warmup_steps(lam_bar, t_s) == 244
    startup = dt / 2.0
    rungs = [t_s * LADDER_RATIO ** k for k in range(20) if t_s * LADDER_RATIO ** k < 30.0]
    assert [t for t, _ in stops] == sorted(set(times) | set(rungs))
    t_prev = 0.0
    for t, cap in stops:
        assert cap == (startup if t <= t_s else max(dt, GROWTH * t_prev))
        t_prev = t
    assert len(_step_sizes(stops)) == 1060  # 3 840 uniform steps of dt
    # a start-up of dt / 2^k gives a sweep's thetas one time grid
    for theta in (0.0, 0.2, 1.0):
        lam = radial_stiffness(grid, ThetaBoundary(theta))
        assert StepperConfig(dt, times).stops(lam, grid.spacing) == stops


def _symmetrised(grid, theta):
    """(first, d, diag, offdiag): the D-symmetrised S = D L D^-1 of
    `radial_operator` on its coupled nodes first..n-1."""
    lo, di, up = radial_operator(grid, theta)
    n = grid.n_r
    first = 1 if theta.is_dirichlet else 0  # the Dirichlet hole node stays 0
    lo, di, up = lo[first:n], di[first:n], up[first:n]
    d = np.concatenate(([1.0], np.cumprod(np.sqrt(up[:-1] / lo[1:]))))
    return first, d, di, np.sqrt(lo[1:] * up[:-1])


@pytest.mark.parametrize("theta", [0.001, 0.5])
def test_graded_start_up_damps_the_operators_stiffest_mode(theta):
    # the start-up is sized by the Gershgorin bound of the run's operator, so
    # at theta = 0.001, whose Robin hole row puts the top of the spectrum of
    # -L 5.4 times above the stencil's bound, every mode from ln(1/eps) / t_s
    # up to the largest eigenvalue still leaves it with at most eps of its
    # amplitude; a datum that touches the hole has that mode and loses it
    grid = _radial_grid()
    tb = ThetaBoundary(theta)
    dt = grid.h / 2.0
    t_s = dt / GROWTH
    first, d, di, off = _symmetrised(grid, tb)
    lam, V = eigh_tridiagonal(-di, -off, select="i", select_range=(di.size - 1, di.size - 1))
    lam_max = float(lam[0])
    assert lam_max <= radial_stiffness(grid, tb)
    assert lam_max == pytest.approx(-eigvalsh_tridiagonal(di, off)[0], rel=1e-12)
    if theta < 0.01:
        assert lam_max > 5.0 * stiffness(grid)
    cfg = StepperConfig(dt, (t_s,))
    steps = np.array(_step_sizes(cfg.stops(radial_stiffness(grid, tb), grid.spacing)))
    assert steps.sum() == pytest.approx(t_s, rel=1e-12)
    for lam in np.append(np.geomspace(math.log(1.0 / WARMUP_DAMPING) / t_s, lam_max, 50),
                         lam_max):
        z = lam * steps
        assert np.prod(np.abs((1.0 - 0.5 * z) / (1.0 + 0.5 * z))) <= WARMUP_DAMPING
    u0 = make_radial_datum("indicator-shell:1,2", grid, tb)
    (snap,), _ = evolve_radial(tb, u0, cfg)
    top = V[:, 0]
    c0 = top @ (d * u0.values[first:grid.n_r])
    assert abs(c0) > 1e-3
    assert abs(top @ (d * snap.values[first:grid.n_r])) <= WARMUP_DAMPING * abs(c0)


def test_a_graded_run_that_ends_by_t_s_is_the_uniform_run(tmp_path, monkeypatch):
    # the benchmark's planar-hole argv at the CLI's planar default h = 0.5,
    # dt = 0.25: t_s = 50 > t_max = 25, and the damping rule does not bind
    # (61 steps over [0, 50] allow 0.82 > dt), so its stops are its
    # snapshot times, each with cap dt
    taken = []

    def recorded(grid, u0, ghost, stops, what, snap_times):
        taken.append(stops)
        return march_masked(grid, u0, ghost, stops, what, snap_times)

    monkeypatch.setattr(planar_module, "march_masked", recorded)
    argv = ["evolve", "--dim", "2", "--hole", "rect:1x1", "--preset", "gaussian-bump:3,0,1.5",
            "--study", "balance", "--t-max", "25", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert taken == [((1.0, 0.25), (10.0, 0.25), (25.0, 0.25))]


def test_small_theta_hole_flux_follows_the_mass_rate():
    # theta = 0.001: the Robin hole row's stiff mode, eigenvalue about
    # 2 b / h with b = 637, is damped by the start-up. Uniform steps of dt
    # to t = 1 (lam dt = 694) leave about half of it at the hole node, 0.43
    # there, and the ledger's flux -b u(a) reads -3 440 against a mass rate
    # of -2.6
    grid = _radial_grid()
    tb = ThetaBoundary(0.001)
    u0 = make_radial_datum("indicator-shell:1,2", grid, tb)
    cfg = StepperConfig(grid.h / 2.0, (1.0, 2.0))
    snaps, ledger = evolve_radial(tb, u0, cfg)
    t, m, f = ledger.as_arrays()
    i = ledger.times.index(1.0)
    rate = (m[i + 1] - m[i - 1]) / (t[i + 1] - t[i - 1])
    assert -3.0 < f[i] < -2.4
    assert abs(f[i] - rate) <= 0.05 * abs(rate)
    assert abs(snaps[0].values[0]) <= 1e-3


def test_graded_snapshots_are_the_snapshot_times_only():
    grid = _radial_grid(n_r=512)
    theta = ThetaBoundary(0.5)
    u0 = make_radial_datum("gaussian-bump:3,0.5", grid, theta)
    cfg = StepperConfig(grid.h / 2.0, (0.0, 1.0, 10.0, 10.0, 20.0))
    snaps, ledger = evolve_radial(theta, u0, cfg)
    assert [s.time for s in snaps] == [0.0, 1.0, 10.0, 20.0]
    stops = cfg.stops(radial_stiffness(grid, theta), grid.spacing)
    assert len(stops) > len(snaps)
    assert len(ledger) == len(_step_sizes(stops)) + 1
    for s in snaps:
        assert abs(ledger.mass_at(s.time) - s.integral()) <= 1e-12 * abs(s.integral())


def test_graded_stops_keep_a_disordered_time_for_the_run_to_reject():
    grid = _radial_grid(n_r=256)
    theta = ThetaBoundary(1.0)
    cfg = StepperConfig(grid.h / 2.0, (5.0, 1.0))
    assert [t for t, _ in cfg.stops(radial_stiffness(grid, theta), grid.spacing)][-1] == 1.0
    u0 = make_radial_datum("gaussian-bump:3,0.5", grid, theta)
    with pytest.raises(PreconditionError, match="strictly increase"):
        evolve_radial(theta, u0, cfg)


# ----------------------------------------------------------------- guard

def _no_march(*args, **kwargs):
    raise AssertionError("the run stepped before its contract was checked")


def _times(stops):
    return [t for t, _ in stops]


def _guard_cases():
    """(run(stops), h) of the radial and both masked run paths, graded."""
    radial = _radial_grid(n_r=256)
    values = make_radial_datum("gaussian-bump:3,0.5", radial, ThetaBoundary(0.5)).values
    planar = PlanarGrid(half_width=6.0, n=48, hole=RectHole(1.0, 1.0))
    planar_u0 = make_planar_datum("gaussian-bump:2.5,0.5,1", planar)
    axisym = AxisymGrid(rho_max=6.0, z_half=7.0, n_rho=40, n_z=96, hole=BallHole(1.0))
    R, Z = axisym.meshgrid()
    axisym_u0 = mollifier_bump(np.sqrt(R ** 2 + (Z - 2.5) ** 2), 1.0)
    axisym_u0[axisym.hole_mask() | axisym.edge_mask()] = 0.0
    return {
        "radial": (lambda stops: _crank_nicolson_run(radial, ThetaBoundary(0.5), values, stops,
                                                     _times(stops)), radial.spacing),
        "planar": (lambda stops: march_masked(planar, planar_u0, 0.5, stops, "planar",
                                              _times(stops)), planar.spacing),
        "axisym": (lambda stops: march_masked(axisym, Field(axisym, axisym_u0), 0.0, stops,
                                              "axisymmetric", _times(stops)), axisym.spacing),
    }


@pytest.mark.parametrize("kind", ["radial", "planar", "axisym"])
@pytest.mark.parametrize("defect", ["late cap", "start-up cap"])
def test_graded_guard_rejects_a_cap_before_the_first_step(monkeypatch, kind, defect):
    run, h = _guard_cases()[kind]
    monkeypatch.setattr(march_module, "march", _no_march)
    monkeypatch.setattr(radial_module, "march", _no_march)
    t_late = 4.0 * h / GROWTH  # the bound there is GROWTH t_late = 4 h
    if defect == "late cap":
        stops = ((h, h), (t_late, h), (t_late * 1.25, GROWTH * t_late * 1.001))
    else:
        stops = ((h, h * 1.001), (t_late, h), (t_late * 1.25, GROWTH * t_late))
    with pytest.raises(PreconditionError, match="accuracy guard"):
        run(stops)
    # the same run with every cap on its bound gets past the guard
    ok = ((h, h), (t_late, h), (t_late * 1.25, GROWTH * t_late))
    with pytest.raises(AssertionError, match="before its contract"):
        run(ok)


@pytest.mark.parametrize("kind", ["radial", "planar", "axisym"])
def test_step_budget_rejects_a_run_before_its_first_step(monkeypatch, kind):
    run, h = _guard_cases()[kind]
    monkeypatch.setattr(march_module, "march", _no_march)
    monkeypatch.setattr(radial_module, "march", _no_march)
    # MAX_STEPS / 2 + MAX_STEPS / 2 + 1 steps over two stops, then MAX_STEPS
    with pytest.raises(PreconditionError, match="step budget"):
        run(((0.5, 1.0 / MAX_STEPS), (1.0, 1.0 / (MAX_STEPS + 2))))
    with pytest.raises(AssertionError, match="before its contract"):
        run(((0.5, 1.0 / MAX_STEPS), (1.0, 1.0 / MAX_STEPS)))


@pytest.mark.parametrize("theta", ["1e-12", "1e-30", "1e-306"])
def test_a_run_over_the_step_budget_exits_3_before_its_ledger(tmp_path, capsys, theta):
    # a Robin row's b = cot(pi theta/2) sizes the start-up: 2.6e7 steps to
    # t = 2 at theta = 1e-12, 2.8e16 at 1e-30; at 1e-306 the damping rule's
    # count lam_bar t_s overflows, and its root does not
    argv = ["evolve", "--theta", theta, "--study", "mass", "--t-max", "2", "--out",
            str(tmp_path)]
    assert main(argv) == 3
    assert "step budget" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/ledger.csv"))


# ----------------------------------------------------------------- oracle

def _spectral_oracle(grid, theta, u0, stops, snap_times):
    """The Crank-Nicolson solution through the stops from the eigenpairs of
    the D-symmetrised radial operator S = D L D^-1 on its coupled nodes:
    u = D^-1 V prod_k R(lam dt_k) V^T D u0, R(z) = (1 + z/2) / (1 - z/2)."""
    n = grid.n_r
    first, d, di, off = _symmetrised(grid, theta)
    lam, V = eigh_tridiagonal(di, off)
    coef = V.T @ (d * u0[first:n])
    out, t_prev = {}, 0.0
    for t, cap in stops:
        k = step_count(t - t_prev, cap)
        if k:
            z = lam * (t - t_prev) / k
            coef = coef * ((1.0 + 0.5 * z) / (1.0 - 0.5 * z)) ** k
        if t in snap_times:
            u = np.zeros(n + 1)
            u[first:n] = V @ coef / d
            out[t] = u
        t_prev = t
    return out


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_graded_march_matches_the_spectral_oracle(theta):
    grid = _radial_grid()
    tb = ThetaBoundary(theta)
    r = grid.nodes()
    u0 = (r - 1.0) * np.exp(-(r - 3.0) ** 2)
    u0[-1] = 0.0
    cfg = StepperConfig(grid.h / 2.0, (1.0, 5.0, 20.0))
    stops = cfg.stops(radial_stiffness(grid, tb), grid.spacing)
    assert len(set(_step_sizes(stops))) > 10  # a real ladder, not one step size
    snaps, _ = evolve_radial(tb, Field(grid, u0), cfg)
    want = _spectral_oracle(grid, tb, u0, stops, cfg.snapshot_times)
    for s in snaps:
        ref = want[s.time]
        assert np.max(np.abs(s.values - ref)) <= 1e-10 * np.max(np.abs(ref))


# ----------------------------------------------------------------- order

def test_graded_error_is_second_order_in_the_growth():
    # ladders at GROWTH, GROWTH/2 and GROWTH/4 from the same ladder function,
    # against the closed-form Dirichlet solution at T = 50. At h = 1/256 the
    # spatial error of the mass (7e-11 in a uniform run at dt = h/2) is under
    # 2% of the smallest time error here, so the errors show the order in eps
    T, h = 50.0, 1.0 / 256.0
    r_out = required_far_radius(BallHole(1.0), T)
    n_r = math.ceil((r_out - 1.0) / h)
    grid = RadialGrid(a=1.0, r_out=1.0 + n_r * h, n_r=n_r, dim=3)
    r = grid.nodes()
    u0 = explicit_solution(r, 0.0)
    u0[-1] = 0.0
    exact, exact_mass = explicit_solution(r, T), explicit_solution_mass(T)
    sup, mass = [], []
    for eps in (GROWTH, GROWTH / 2.0, GROWTH / 4.0):
        stops = graded_stops((T,), h / 2.0, eps, radial_stiffness(grid, ThetaBoundary(0.0)))
        snaps, ledger = _crank_nicolson_run(grid, ThetaBoundary(0.0), u0, stops, (T,))
        sup.append(np.max(np.abs(snaps[0].values - exact)) / np.max(exact))
        mass.append(abs(ledger.mass_at(T) - exact_mass) / exact_mass)
    for errors in (sup, mass):
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.8), (errors, orders)


# ----------------------------------------------------------------- rough data

def _ordering_defect(runs):
    """Largest u_theta - u_theta' over consecutive thetas and the snapshots,
    absolute and relative to the larger of the two values at that node."""
    worst = rel = 0.0
    for snaps1, snaps2 in zip(runs, runs[1:]):
        for s1, s2 in zip(snaps1, snaps2):
            d = s1.values - s2.values
            size = np.maximum(np.abs(s1.values), np.abs(s2.values))
            worst = max(worst, float(np.max(d)))
            rel = max(rel, float(np.max(np.divide(d, size, out=np.zeros_like(d),
                                                  where=size > 0))))
    return worst, rel


def test_graded_sweep_keeps_rough_data_ordered(tmp_path, capsys):
    argv = ["sweep", "--preset", "indicator-shell:2,4", "--check", "monotone",
            "--study", "mass", "--t-max", "30", "--out", str(tmp_path)]
    assert main(argv) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if "ordering" in ln][0]
    assert line.startswith("[PASS]")
    printed = float(re.search(r"max violation (\S+)", line).group(1))
    # the same sweep on uniform steps of dt and on the graded grid: the
    # uniform run is ordered exactly, and the graded one to round-off of
    # each node's value (5.7e-42 at r = 18.8, t = 1, where u = 1.9e-26)
    grid = _radial_grid(n_r=4207)  # the CLI grid: h = 1/64, r_out = 66.73
    dt, times = grid.h / 2.0, (1.0, 10.0, 30.0)
    defects = {}
    for graded in (False, True):
        runs = []
        for theta in (0.0, 0.5, 1.0):
            tb = ThetaBoundary(theta)
            u0 = make_radial_datum("indicator-shell:2,4", grid, tb)
            if graded:
                stops = StepperConfig(dt, times).stops(radial_stiffness(grid, tb), grid.spacing)
            else:
                stops = ((1.0, dt), (10.0, dt), (30.0, dt))
            runs.append(_crank_nicolson_run(grid, tb, u0.values, stops, times)[0])
        defects[graded] = _ordering_defect(runs)
    assert defects[False] == (0.0, 0.0)
    worst, rel = defects[True]
    assert float(f"{worst:.3e}") == printed
    assert rel <= 1e-15
