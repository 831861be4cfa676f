"""Explicit objects used by the quantitative checks.

Contents: the exact radial solution outside the unit ball (dim 3,
Dirichlet) and its mass law; the first Dirichlet eigenpair of the unit
ball; the auxiliary radial function z = |x|^(-gamma) and the decaying
supersolution built from it; and the plan generator for the slow-decay
counterexample datum (rescaled eigenfunctions in far-apart balls).
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import GeometryError, PreconditionError
from .profiles import ProfileTable, psi_from_profile

# first Dirichlet eigenpair of the unit ball in dim 3:
# eigenfunction sin(pi r)/r, eigenvalue pi^2; L1-normalised below
BALL_EIGENVALUE = math.pi ** 2
PSI_PEAK = math.pi / 4.0  # value at the origin of the L1-normalised eigenfunction

EXPLICIT_ASYMPTOTIC_MASS = 2.0 * math.pi ** 1.5


def ball_eigenfunction(r):
    """L1-normalised first Dirichlet eigenfunction sin(pi r) / (4 r) of the
    unit ball: positive, with unit integral over the ball."""
    rr = np.asarray(r, dtype=float)
    out = np.empty_like(rr)
    small = np.abs(rr) < 1e-12
    out[~small] = np.sin(math.pi * rr[~small]) / (4.0 * rr[~small])
    out[small] = PSI_PEAK
    return out if out.ndim else float(out)


def explicit_solution(r, t):
    """Exact Dirichlet solution outside the unit ball in dim 3.

    u(r, t) = exp(-(r-1)^2 / (4(t+1))) (r-1) / (4 r (t+1)^(3/2)),
    which vanishes at r = 1 and solves the radial heat equation exactly.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 1.0 - 1e-12):
        raise GeometryError("explicit solution is defined for r >= 1")
    tau = np.asarray(t, dtype=float) + 1.0
    if np.any(tau <= 0):
        raise GeometryError("explicit solution requires t >= 0")
    rr = np.maximum(rr, 1.0)
    out = np.exp(-((rr - 1.0) ** 2) / (4.0 * tau)) * (rr - 1.0) / (4.0 * rr * tau ** 1.5)
    return out if out.ndim else float(out)


def explicit_solution_mass(t) -> float:
    """Closed-form mass M(t) = 2 pi^(3/2) + 2 pi (t+1)^(-1/2) of the run above."""
    tau = np.asarray(t, dtype=float) + 1.0
    out = EXPLICIT_ASYMPTOTIC_MASS + 2.0 * math.pi / np.sqrt(tau)
    return out if out.ndim else float(out)


def radial_z(x_norm: float, gamma: float) -> Tuple[float, float]:
    """Value of z = x^(-gamma) and the residual of -Lap z = gamma(1-gamma) z / x^2
    in dim 3.

    The Laplacian is evaluated by fourth-order central differences, so the
    returned residual is at the 1e-8 scale or below for moderate x_norm.
    """
    if x_norm <= 0:
        raise GeometryError("x_norm must be positive")
    if not 0.0 <= gamma < 1.0:
        raise GeometryError("gamma must lie in [0, 1)")
    value = x_norm ** (-gamma)
    if gamma == 0.0:
        return 1.0, 0.0
    d = 0.01 * x_norm

    def z(x):
        return x ** (-gamma)

    x = x_norm
    z_p2, z_p1, z_0, z_m1, z_m2 = z(x + 2 * d), z(x + d), z(x), z(x - d), z(x - 2 * d)
    d1 = (-z_p2 + 8.0 * z_p1 - 8.0 * z_m1 + z_m2) / (12.0 * d)
    d2 = (-z_p2 + 16.0 * z_p1 - 30.0 * z_0 + 16.0 * z_m1 - z_m2) / (12.0 * d * d)
    lap = d2 + 2.0 / x * d1
    residual = abs(-lap - gamma * (1.0 - gamma) * z_0 / x ** 2)
    return value, residual


@dataclass(frozen=True)
class SubSuperParams:
    """Parameters of the decaying supersolution Z = t^(-(N+gamma)/2) (z + kappa Psi)."""

    gamma: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise GeometryError("gamma must lie in (0, 1)")
        if self.kappa <= 0:
            raise GeometryError("kappa must be positive")


def supersolution_Z(params: SubSuperParams, profile0: ProfileTable, x_norm, t):
    """Z(x, t) = t^(-(N+gamma)/2) (x^(-gamma) + kappa (1 - Phi0(x)))."""
    psi = psi_from_profile(profile0)
    rr = np.asarray(x_norm, dtype=float)
    tt = np.asarray(t, dtype=float)
    if np.any(tt <= 0):
        raise PreconditionError("Z is defined for t > 0")
    n = profile0.dim
    out = tt ** (-(n + params.gamma) / 2.0) * (
        rr ** (-params.gamma) + params.kappa * psi.evaluate(rr)
    )
    return out if out.ndim else float(out)


@dataclass
class ZReportItem:
    name: str
    passed: bool
    witness: str


@dataclass
class ZReport:
    items: List[ZReportItem]
    fitted: Dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(it.passed for it in self.items)

    def text(self) -> str:
        lines = []
        for it in self.items:
            lines.append(f"[{'PASS' if it.passed else 'FAIL'}] {it.name}: {it.witness}")
        lines.append("fitted: " + ", ".join(f"{k}={v:.6g}" for k, v in self.fitted.items()))
        return "\n".join(lines)


def supersolution_report(params: SubSuperParams, profile0: ProfileTable) -> ZReport:
    """Numerical verification of the supersolution properties on sample grids:
    400 geometric radii on [a, 64] and 25 geometric times on [1, 1e4].

    Checks: (i) positivity; (ii) t^(N/2) Z decreasing in t uniformly;
    (iii) dZ/dn at the hole bounded below by m / (1 + t^(N/2+1)) with a
    fitted m > 0; (iv) heat-operator residual Z_t - Lap Z bounded below by
    c t^(-(N+gamma)/2) z/|x|^2 on |x|^2 <= delta t with fitted (c, delta).
    Fitted constants are outputs, not asserted targets.
    """
    if not profile0.theta.is_dirichlet:
        raise PreconditionError("the supersolution requires the Dirichlet profile")
    n = profile0.dim
    if n < 3:
        raise PreconditionError("supersolution checks require dim >= 3")
    a = profile0.hole.circumscribed_radius
    gamma, kappa = params.gamma, params.kappa
    psi = psi_from_profile(profile0)
    r = np.geomspace(a, 64.0, 400)
    t_grid = np.geomspace(1.0, 1e4, 25)

    items = []
    fitted: Dict[str, float] = {}

    # (i) positivity
    base = r ** (-gamma) + kappa * psi.evaluate(r)
    zmin = float(np.min(base))
    items.append(ZReportItem(
        "positivity", zmin > 0.0,
        f"min over r grid of (z + kappa Psi) = {zmin:.6g}"))

    # (ii) t^(N/2) Z = t^(-gamma/2) (z + kappa Psi) decreasing in t
    tails = np.outer(t_grid ** (-gamma / 2.0), base)
    monotone = bool(np.all(np.diff(tails, axis=0) <= 0.0))
    sup_late = float(np.max(tails[-1]))
    items.append(ZReportItem(
        "uniform decay of t^(N/2) Z", monotone and sup_late < float(np.max(tails[0])),
        f"sup at t={t_grid[-1]:.3g} is {sup_late:.3g}, decreasing in t: {monotone}"))

    # (iii) normal derivative at the hole: dZ/dn = -dZ/dr at r = a
    # (forward difference; the domain only exists for r >= a)
    h = 1e-5 * a
    dbase_dr = ((a + h) ** (-gamma) + kappa * float(psi.evaluate(a + h))
                - base[0]) / h
    dZdn_factor = -dbase_dr  # positive when z + kappa Psi decreases outward
    m_candidates = dZdn_factor * t_grid ** (-(n + gamma) / 2.0) * (1.0 + t_grid ** (n / 2.0 + 1.0))
    m_fit = float(np.min(m_candidates))
    fitted["m"] = m_fit
    items.append(ZReportItem(
        "hole normal derivative", m_fit > 0.0,
        f"fitted m = {m_fit:.6g} (dZ/dn factor at r=a: {dZdn_factor:.6g})"))

    # (iv) residual bound on |x|^2 <= delta t
    big_c = gamma * (n - 2 - gamma)
    big_d = (n + gamma) / 2.0
    ratio = psi.evaluate(r) / r ** (-gamma)
    c2 = float(np.max(ratio))
    fitted["C2"] = c2
    delta_fit = big_c / (2.0 * big_d * (1.0 + kappa * c2))
    c_fit = big_c - delta_fit * big_d * (1.0 + kappa * c2)
    fitted["delta"] = delta_fit
    fitted["c"] = c_fit
    ok = c_fit > 0.0
    witness_pt = ""
    for t in t_grid:
        rr = r[r ** 2 <= delta_fit * t]
        if rr.size == 0:
            continue
        z_vals = rr ** (-gamma)
        lhs = t ** (-(n + gamma) / 2.0) * (
            big_c * z_vals / rr ** 2 - big_d * (z_vals + kappa * psi.evaluate(rr)) / t
        )
        rhs = c_fit * t ** (-(n + gamma) / 2.0) * z_vals / rr ** 2
        bad = lhs < rhs * (1.0 - 1e-9)
        if np.any(bad):
            ok = False
            witness_pt = f" violation at r={rr[bad][0]:.4g}, t={t:.4g}"
            break
    items.append(ZReportItem(
        "heat-operator residual on |x|^2 <= delta t", ok,
        f"fitted c = {c_fit:.6g}, delta = {delta_fit:.6g}, C2 = {c2:.6g}" + witness_pt))
    fitted["kappa"] = kappa
    return ZReport(items, fitted)


@dataclass(frozen=True)
class PlanRow:
    n: int
    t_n: float
    t_next: float
    radius: float
    center_dist: float
    weight: float


@dataclass
class OptimalDatumPlan:
    """Sequence (t_n, R_n, |x_n|, 2^-n) realising a prescribed decay floor g,
    in dim 3 outside the unit ball."""

    g: Callable[[float], float]
    g_label: str
    eigenvalue: float
    rows: List[PlanRow]


def _bisect_decreasing(g, target, t_lo, t_hi):
    for _ in range(400):
        mid = 0.5 * (t_lo + t_hi)
        if g(mid) > target:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-12 * max(1.0, t_hi):
            break
    return 0.5 * (t_lo + t_hi)


def _gaussian_smallness_rhs(n: int, t_n: float, radius: float) -> float:
    """(4 pi t_n)^(3/2) / (2^(n+2) |B(0, R_n)|), the bound that the Gaussian
    smallness condition puts on exp(-(|x_n| - R_n) / (4 t_{n+1})).

    R_n >= pi sqrt(t_n / ln(4/3)) makes it at most
    3 (4 pi ln(4/3))^(3/2) / (4 pi^4 2^(n+2)) <= 6.6e-3 for n >= 1.
    """
    ball_vol = 4.0 / 3.0 * math.pi * radius ** 3
    return (4.0 * math.pi * t_n) ** 1.5 / (2.0 ** (n + 2) * ball_vol)


def plan_condition_values(plan: OptimalDatumPlan, row: PlanRow) -> Dict[str, float]:
    """The three construction conditions as residuals (all must be >= 0)."""
    lam = plan.eigenvalue
    rhs3 = _gaussian_smallness_rhs(row.n, row.t_n, row.radius)
    return {
        "eigen_decay": math.exp(-lam * row.t_next / row.radius ** 2) - 0.75,
        "separation": row.center_dist - (row.radius + 1.0),
        "gaussian_smallness": rhs3 - math.exp(
            -(row.center_dist - row.radius) / (4.0 * row.t_next)
        ),
    }


def optimal_datum_plan(g: Callable[[float], float], n_max: int,
                       g_label: str = "custom") -> OptimalDatumPlan:
    """Construct (t_n, R_n, |x_n|) for n = 1..n_max from a decreasing g -> 0.

    t_n solves g(t_n) = 2^-(n+2) by bisection; R_n is the smallest integer
    radius with exp(-lam t_{n+1} / R_n^2) >= 3/4; |x_n| is found by
    bisection as the smallest centre distance satisfying the separation
    and Gaussian-smallness conditions. All rows are re-validated.
    """
    if n_max < 1 or n_max > 8:
        raise PreconditionError("n_max must lie in 1..8")
    lam = BALL_EIGENVALUE

    # probe that g is decreasing to 0
    t_hi = 1.0
    target_last = 2.0 ** (-(n_max + 3))
    while g(t_hi) > target_last:
        t_hi *= 2.0
        if t_hi > 1e18:
            raise PreconditionError("g does not decay to 0 on the probed range")
    probes = np.geomspace(1e-6, t_hi, 64)
    gv = np.array([g(t) for t in probes])
    if np.any(np.diff(gv) > 1e-12) or np.any(gv <= 0):
        raise PreconditionError("g must be positive and nonincreasing")

    t_list = []
    for n in range(1, n_max + 2):
        target = 2.0 ** (-(n + 2))
        if g(0.0) <= target:
            raise PreconditionError(f"g(0) <= {target}; no solution for t_{n}")
        t_list.append(_bisect_decreasing(g, target, 0.0, t_hi))

    rows: List[PlanRow] = []
    for n in range(1, n_max + 1):
        t_n, t_next = t_list[n - 1], t_list[n]
        radius = float(math.ceil(math.pi * math.sqrt(t_next / math.log(4.0 / 3.0))))
        rhs3 = _gaussian_smallness_rhs(n, t_n, radius)
        x_min_sep = radius + 1.0
        # shortfall is decreasing and vanishes at need > radius (rhs3 < 1,
        # see _gaussian_smallness_rhs), so [radius, 2 need] brackets its root
        need = radius - 4.0 * t_next * math.log(rhs3)

        def shortfall(x):
            # decreasing in x; zero at the smallest admissible centre
            return math.exp(-(x - radius) / (4.0 * t_next)) - rhs3

        x_n = _bisect_decreasing(shortfall, 0.0, radius, max(need * 2.0, x_min_sep * 2.0))
        x_n = max(x_n * (1.0 + 1e-9) + 1e-9, x_min_sep + 1e-6 * radius)
        rows.append(PlanRow(n, t_n, t_next, radius, x_n, 2.0 ** (-n)))

    plan = OptimalDatumPlan(g, g_label, lam, rows)
    for row in plan.rows:
        vals = plan_condition_values(plan, row)
        for name, v in vals.items():
            if v < 0:
                raise PreconditionError(
                    f"plan row n={row.n} violates condition '{name}' by {-v:.3e}"
                )
    return plan


def parse_g_spec(spec: str) -> Tuple[Callable[[float], float], str]:
    """Parse a decay-floor descriptor: 'recip:c' -> 1/(t+c), 'powlog:c' -> 1/log(t+c)."""
    kind, _, arg = spec.partition(":")
    try:
        c = float(arg) if arg else {"recip": 1.0, "powlog": math.e}[kind]
    except (KeyError, ValueError):
        raise PreconditionError(f"bad g spec '{spec}' (recip:c or powlog:c, c a number)") from None
    if kind == "recip":
        if not 1.0 < c < math.inf:
            raise PreconditionError("recip:c requires a finite c > 1 so that g <= 1")
        return (lambda t: 1.0 / (t + c)), spec
    if kind == "powlog":
        if not math.e <= c < math.inf:
            raise PreconditionError("powlog:c requires a finite c >= e")
        return (lambda t: 1.0 / math.log(t + c)), spec
    raise PreconditionError(f"unknown g spec '{spec}'")
