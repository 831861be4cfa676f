"""Quantitative asymptotics: error norms against m Phi G, rate fits, mass
convergence, kernel-column comparisons, and the optimality constructions.

The central quantity is the scaled error t^((N/2)(1-1/p)) ||u - m Phi G||_p,
which tends to zero for integrable data. Region splits separate the
near-hole zone |x|^2 <= delta t from the far field.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constructions import (
    BALL_EIGENVALUE,
    EXPLICIT_ASYMPTOTIC_MASS,
    OptimalDatumPlan,
    PSI_PEAK,
    explicit_solution,
    explicit_solution_mass,
    plan_condition_values,
)
from .errors import PreconditionError
from .gaussian import GaussianParams, gaussian_ball_integral, gaussian_value
from .profiles import ProfileTable
from .solver.grids import Field
from .solver.ledger import MassLedger
from .solver.probes import ProbeResult

P_NORMS = (1.0, 2.0, math.inf)  # the exponents every norm set holds
# the L1 chain's component mass may fall this fraction below its floor
# (3/4) 2^-n: room for the discretisation of the ball run's mass trace
COMPONENT_MASS_SLACK = 1e-2


@dataclass(frozen=True)
class RegionSpec:
    """Split radius: near region |x|^2 <= delta t, far region |x|^2 >= delta t."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise PreconditionError("delta must be positive")


def scaling_exponent(dim: int, p: float) -> float:
    if math.isinf(p):
        return dim / 2.0
    return (dim / 2.0) * (1.0 - 1.0 / p)


def error_norms(snapshot: Field, m: float, profile: ProfileTable,
                region: Optional[RegionSpec] = None,
                side: str = "near") -> Dict[float, Tuple[float, float]]:
    """Norms of u(., t) - m Phi G(., t), raw and scaled.

    Returns {p: (raw, scaled)} for p = 1, 2, inf, with
    scaled = t^((N/2)(1-1/p)) * raw.
    With a RegionSpec, norms are restricted to the near or far side; the
    split node set includes the interface in both sides, so the full sup
    norm equals max(near sup, far sup) exactly.
    """
    t = snapshot.time
    if t <= 0:
        raise PreconditionError("error norms require snapshot.time > 0")
    grid = snapshot.grid
    dim = grid.dim
    phi = profile.on_grid(grid)
    radii = grid.radii()
    g = gaussian_value(radii, GaussianParams(dim, t))
    err = snapshot.values - m * phi * g
    w = snapshot.weights()
    include = ~grid.hole_mask()
    if region is not None:
        if side == "near":
            include = include & (radii ** 2 <= region.delta * t)
        elif side == "far":
            include = include & (radii ** 2 >= region.delta * t)
        else:
            raise PreconditionError("side must be 'near' or 'far'")
    out: Dict[float, Tuple[float, float]] = {}
    abs_err = np.abs(err)
    for p in P_NORMS:
        if math.isinf(p):
            raw = float(np.max(abs_err[include])) if np.any(include) else 0.0
        else:
            raw = float(np.sum((w * abs_err ** p)[include]) ** (1.0 / p))
        out[p] = (raw, t ** scaling_exponent(dim, p) * raw)
    return out


@dataclass
class RateSeries:
    """Time-indexed error norms, masses, and mass gaps for rate fitting."""

    times: np.ndarray
    raw: Dict[float, np.ndarray]
    scaled: Dict[float, np.ndarray]
    mass: np.ndarray
    mass_gap: np.ndarray

    @classmethod
    def from_snapshots(cls, snapshots: List[Field], m: float,
                       profile: ProfileTable, ledger: MassLedger) -> "RateSeries":
        times = np.array([s.time for s in snapshots if s.time > 0])
        raw = {p: np.empty(times.size) for p in P_NORMS}
        scaled = {p: np.empty(times.size) for p in P_NORMS}
        mass = np.empty(times.size)
        i = 0
        for s in snapshots:
            if s.time <= 0:
                continue
            norms = error_norms(s, m, profile)
            for p in P_NORMS:
                raw[p][i], scaled[p][i] = norms[p]
            mass[i] = ledger.mass_at(s.time)
            i += 1
        return cls(times, raw, scaled, mass, np.abs(mass - m))

    def rows(self) -> List[tuple]:
        out = []
        for i, t in enumerate(self.times):
            for p in self.raw:
                label = "inf" if math.isinf(p) else ("%g" % p)
                out.append((float(t), label, float(self.raw[p][i]),
                            float(self.scaled[p][i]), float(self.mass[i]),
                            float(self.mass_gap[i])))
        return out


@dataclass
class RateFit:
    exponent: float
    intercept: float
    residual: float
    n_used: int
    n_excluded: int


def rate_fit(times, values, window: Tuple[float, float]) -> RateFit:
    """Least-squares slope of log(values) against log(t) inside the window.

    Nonpositive values are excluded (and counted); fewer than 4 usable
    rows is an error.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    usable = sel & (v > 0)
    n_excluded = int(np.sum(sel) - np.sum(usable))
    if int(np.sum(usable)) < 4:
        raise PreconditionError(
            f"rate fit needs >= 4 positive rows in the window, found {int(np.sum(usable))}"
        )
    x = np.log(t[usable])
    y = np.log(v[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), resid, int(np.sum(usable)), n_excluded)


@dataclass
class MassConvergenceReport:
    times: np.ndarray
    gaps: np.ndarray
    final_gap: float
    nonincreasing: bool
    max_increase: float


def mass_convergence(ledger: MassLedger, m: float,
                     tol: float = 1e-9) -> MassConvergenceReport:
    """Gap series |M(t) - m|; for nonnegative data it must shrink monotonically."""
    if len(ledger) == 0:
        raise PreconditionError("mass convergence requires a nonempty ledger")
    t, mass, _ = ledger.as_arrays()
    gaps = np.abs(mass - m)
    inc = np.diff(gaps)
    max_inc = float(np.max(inc)) if inc.size else 0.0
    scale = max(abs(mass[0]), 1e-300)
    return MassConvergenceReport(t, gaps, float(gaps[-1]),
                                 bool(max_inc <= tol * scale), max_inc)


@dataclass
class KernelGapReport:
    gap: float
    bound: float
    profile_term: float
    hole_term: float
    passed: bool


def kernel_l1_gap(probe: ProbeResult, t: float, profile0: ProfileTable) -> KernelGapReport:
    """L1 distance of the probe from the free-space kernel, against its bound.

    gap = integral |probe(x, t) - G(x - y, t)| dx over the domain;
    bound = 2 (1 - Phi0(y)) + integral of G(. - y) over the hole. The
    check passes when gap <= bound + 0.05, a tolerance that absorbs
    mollifier smearing and staircase discretisation.
    """
    if probe.whole_space:
        raise PreconditionError("the kernel gap compares an exterior-domain probe")
    if not profile0.theta.is_dirichlet:
        raise PreconditionError("the gap bound uses the Dirichlet profile")
    _, masses, _ = probe.ledger.as_arrays()
    if abs(masses[0] - 1.0) > 0.01:
        raise PreconditionError(
            f"probe is not unit mass at t = 0: {masses[0]:.4f}"
        )
    snap = probe.snapshot_at(t)
    grid = snap.grid
    R, Z = grid.meshgrid()
    d = np.sqrt(R ** 2 + (Z - probe.y_dist) ** 2)
    g = gaussian_value(d, GaussianParams(3, t))
    w = grid.volume_weights()
    keep = ~grid.hole_mask()
    gap = float(np.sum((w * np.abs(snap.values - g))[keep]))
    a = profile0.hole.circumscribed_radius
    phi_y = float(profile0.evaluate(probe.y_dist))
    hole_term = gaussian_ball_integral(probe.y_dist, a, t, dim=3)
    bound = 2.0 * (1.0 - phi_y) + hole_term
    return KernelGapReport(gap, bound, 2.0 * (1.0 - phi_y), hole_term,
                           passed=bool(gap <= bound + 0.05))


@dataclass
class HerraizComparison:
    """Exact solution against the two closed-form late-time predictions.

    theorem_pred uses the retained (asymptotic) mass; herraiz_pred uses
    the full initial mass, which overestimates because it ignores the
    mass lost through the hole.
    """

    t: float
    r: np.ndarray
    exact: np.ndarray
    theorem_pred: np.ndarray
    herraiz_pred: np.ndarray
    gap_theorem: float
    gap_herraiz: float
    peak_ratio: float


def herraiz_compare(t: float, use_profile: bool = True) -> HerraizComparison:
    """Three curves at 4096 radii on [1, 1 + 8 sqrt(t)] for the
    explicit-solution run.

    Gap metrics are sup |pred - exact| / sup |exact| over the window
    (pointwise ratios are meaningless in the far tail where all curves
    vanish). use_profile=False drops the profile factor from both
    predictions, which then differ by the mass ratio alone.
    """
    if t < 10.0:
        raise PreconditionError("the comparison is a late-time statement; use t >= 10")
    params = GaussianParams(3, t)  # rejects a t that is not finite
    r = np.linspace(1.0, 1.0 + 8.0 * math.sqrt(t), 4096)
    try:
        # the curves scale as t^(-3/2); past t ~ 1e153 the explicit
        # solution's normaliser 4 r (t + 1)^(3/2) overflows on the window
        with np.errstate(over="raise"):
            exact = explicit_solution(r, t)
            g = gaussian_value(r, params)
    except (OverflowError, FloatingPointError):
        raise PreconditionError(f"the curves at t = {t:g} are not finite") from None
    phi = 1.0 - 1.0 / r if use_profile else np.ones_like(r)
    m_asym = EXPLICIT_ASYMPTOTIC_MASS
    m_init = explicit_solution_mass(0.0)
    theorem = m_asym * phi * g
    herraiz = m_init * phi * g
    peak = float(np.max(exact))
    gap_t = float(np.max(np.abs(theorem - exact))) / peak
    gap_h = float(np.max(np.abs(herraiz - exact))) / peak
    return HerraizComparison(t, r, exact, theorem, herraiz, gap_t, gap_h,
                             float(np.max(herraiz) / peak))


@dataclass
class OptimalityReport:
    n: int
    conditions: Dict[str, float]
    eigen_trace_max_rel_err: float
    component_mass_min: float
    component_mass_floor: float
    gaussian_term_max: float
    gaussian_term_cap: float
    lower_bound: float
    g_floor: float
    passed: bool

    def component_mass_text(self) -> str:
        """The component mass against the threshold it is judged by, and its
        margin over the floor (3/4) 2^-n itself."""
        judged = self.component_mass_floor * (1.0 - COMPONENT_MASS_SLACK)
        return (f"component mass {self.component_mass_min:.7f} >= {judged:.7f} "
                f"({1.0 - COMPONENT_MASS_SLACK:.0%} of the floor "
                f"{self.component_mass_floor:.7f}, margin "
                f"{self.component_mass_min - self.component_mass_floor:.2e})")


def optimality_check_l1(plan: OptimalDatumPlan, n: int,
                        ball_times, ball_masses) -> OptimalityReport:
    """Check the n-th component of the slow-decay construction.

    ball_times/ball_masses: mass trace of a unit-ball Dirichlet run with
    the L1-normalised eigenfunction datum; it must match exp(-pi^2 s) to
    a relative 1e-3. The component then retains mass >= (3/4) 2^-n on
    [t_n, t_{n+1}] by scaling, while the Gaussian mass over B(x_n, R_n)
    stays below 2^-(n+2), so the L1 gap exceeds 2^-(n+1) >= g(t) there.
    """
    row = next((r for r in plan.rows if r.n == n), None)
    if row is None:
        raise PreconditionError(f"plan has no row n = {n}")
    vals = plan_condition_values(plan, row)
    bad = [k for k, v in vals.items() if v < 0]
    if bad:
        raise PreconditionError(f"plan row n={n} violates conditions: {bad}")

    s = np.asarray(ball_times, dtype=float)
    mass = np.asarray(ball_masses, dtype=float)
    expected = mass[0] * np.exp(-BALL_EIGENVALUE * s)
    rel = np.abs(mass - expected) / np.maximum(np.abs(expected), 1e-300)
    trace_err = float(np.max(rel))

    # component mass on [t_n, t_{n+1}] via the ball scaling s = t / R_n^2
    s_window = np.linspace(row.t_n, row.t_next, 65) / row.radius ** 2
    if s_window[-1] > s[-1] + 1e-12:
        raise PreconditionError(
            f"ball trace too short: need s up to {s_window[-1]:.4g}, have {s[-1]:.4g}"
        )
    m_interp = np.interp(s_window, s, mass)
    comp_mass = row.weight * m_interp / mass[0]
    comp_min = float(np.min(comp_mass))
    floor = 0.75 * row.weight

    g_terms = [gaussian_ball_integral(row.center_dist, row.radius, t)
               for t in np.linspace(row.t_n, row.t_next, 9)]
    g_max = float(np.max(g_terms))
    g_cap = 2.0 ** (-(n + 2))

    lower = 2.0 ** (-(n + 1))
    g_floor = plan.g(row.t_n)  # g(t) <= g(t_n) = 2^-(n+2) <= lower on the window
    passed = (trace_err <= 1e-3
              and comp_min >= floor * (1.0 - COMPONENT_MASS_SLACK)
              and g_max <= g_cap
              and lower >= g_floor)
    return OptimalityReport(n, vals, trace_err, comp_min, floor, g_max, g_cap,
                            lower, g_floor, passed)


@dataclass
class LinfOptimalityReport:
    t: float
    witness_dist: float
    gaussian_term: float
    ball_center_value: float
    expected_center_value: float
    operator_lower_bound: float
    passed: bool


def optimality_check_linf(t: float, ball_center_value: float) -> LinfOptimalityReport:
    """Lower bound ||T(t)|| >= e^(-lam) psi(0) / 2 for the scaled-error operator.

    T(t) u0 = t^(N/2) (u(., t) - m G(., t)). With the eigenfunction datum
    scaled to the ball of radius sqrt(t) centred far out, the ball run
    gives t^(N/2) u >= e^(-lam) psi(0) at the centre, while the witness
    distance makes the Gaussian term at most half of that.
    ball_center_value: centre value of the unit-ball run at s = 1; it must
    match e^(-lam) psi(0) to a relative 0.02.
    """
    lam, peak = BALL_EIGENVALUE, PSI_PEAK
    expected = math.exp(-lam) * peak
    target = 0.5 * expected
    # witness distance: t^(3/2) G(x0, t) <= target, that is
    # exp(-x0^2/4t) <= target (4 pi)^(3/2) = 9.05e-4 < 1
    x0 = math.sqrt(-4.0 * t * math.log(target * (4.0 * math.pi) ** 1.5))
    g_term = t ** 1.5 * gaussian_value(x0, GaussianParams(3, t))
    rel_err = abs(ball_center_value - expected) / expected
    lower = ball_center_value - g_term
    passed = (rel_err <= 0.02) and (lower >= target * (1.0 - 0.02) - 1e-12)
    return LinfOptimalityReport(t, x0, float(g_term), ball_center_value, expected,
                                float(lower), passed)
