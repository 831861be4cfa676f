"""Asymptotic profiles: the bounded harmonic function with B_theta = 0 at the
hole and value 1 at infinity.

A profile is either the closed form around a hole of circumscribed
radius a,

    Phi(r) = 1 - c (a/r)^(N-2),   c = 1 (Dirichlet),
                                  c = a b / (a b + N - 2) (Robin, b = cot(pi theta/2)),
                                  c = 0 (Neumann),

or a sampled radial table. In dim >= 3 around a ball the closed form
satisfies the boundary condition exactly (with du/dn = -du/dr at r = a)
and tends to 1 at infinity. Dim 2 is the case N = 2 of the same formula,
for any hole: Phi is the constant 1 - c, that is 0 (all mass is lost)
unless the condition is Neumann (1, all mass is kept).
The elliptic route solves the truncated problems phi_R = 1 on |x| = R and
extrapolates R -> infinity. In dim 2 it uses the masked 5-point stencil of
the shared assembler `solver.grids.masked_laplacian`, on the quadrant
x, y >= 0 only: the hole and the disc are centred, so phi_R is even in x
and in y, and the folded problem (axis links doubled: the k = 0 parity
row of `solver.grids.radial_links`) has exactly the restriction of the
full solution as its solution; it is unfolded into the full field. When
the quadrant's masks are also symmetric under x <-> y (a ball, a square
rect), the quadrant folds once more onto the octant 0 <= y <= x, with
about half the unknowns. The folded system is solved by SuperLU
(`spsolve`, from `solver.fastsolve`: scipy's compiled gssv on the
assembler's CSC arrays, without scipy.sparse). In dim 3 it solves the
evolution's rows (`radial_operator`), on which 1/r is exactly
discrete-harmonic, with the march's symmetric factor and LAPACK dpttrs;
the boundary influence is proportional to 1/(R - q) with offset
q = a^2 b / (1 + a b) (q = a for Dirichlet), which the two-point
extrapolation uses.
"""

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .domain import (
    BallHole,
    ExteriorDomain,
    HoleSpec,
    ThetaBoundary,
)
from .errors import GeometryError, NumericalError, PreconditionError
from .solver.fastsolve import dpttrs, spsolve, symmetric_factor
from .solver.grids import (
    Field,
    PlanarGrid,
    RadialGrid,
    hole_ghost,
    hole_nodes,
    masked_laplacian,
    radial_links,
)
from .solver.radial import radial_operator


def profile_coefficient(dim: int, a: float, theta: ThetaBoundary) -> float:
    """Coefficient c of the closed form Phi = 1 - c (a/r)^(N-2).

    In dim 2 the profile is the constant 1 - c: c = 0 under Neumann, else 1.
    """
    if theta.is_neumann:
        return 0.0
    if dim == 2 or theta.is_dirichlet:
        return 1.0
    ab = a * theta.robin_b
    if not math.isfinite(ab):
        raise GeometryError(f"theta = {theta.theta!r} is too small for a hole of radius "
                            f"{a:g}: a cot(pi theta/2) is not finite")
    return ab / (ab + dim - 2)


@dataclass
class ProfileTable:
    """Asymptotic profile sampled on the radii r in [a, r_max].

    A closed form sets `coefficient` c, and `evaluate` returns
    1 - c (a/r)^(N-2), a the hole's circumscribed radius. Otherwise
    `evaluate` interpolates (r, values) and continues the table
    harmonically beyond r[-1]. Elliptic tables also keep their truncated
    solves: per_radius on r (dim 3) or planar_fields (dim 2).
    """

    dim: int
    hole: HoleSpec
    theta: ThetaBoundary
    r: np.ndarray
    values: np.ndarray
    coefficient: Optional[float] = None
    per_radius: Optional[Dict[float, np.ndarray]] = None
    planar_fields: Optional[Dict[float, Field]] = None

    def evaluate(self, radii):
        """Profile values at the given radii (vectorised)."""
        rr = np.asarray(radii, dtype=float)
        if self.coefficient is not None:
            a = self.hole.circumscribed_radius
            return 1.0 - self.coefficient * (a / rr) ** (self.dim - 2)
        out = np.interp(rr, self.r, self.values)
        # harmonic continuation beyond the table: 1 - C r^(2-N)
        tail = rr > self.r[-1]
        if np.any(tail):
            c_tail = (1.0 - self.values[-1]) * self.r[-1] ** (self.dim - 2)
            out = np.where(tail, 1.0 - c_tail * rr ** (2.0 - self.dim), out)
        return out

    def on_grid(self, grid) -> np.ndarray:
        """Profile values at a grid's nodes, radii clamped to the hole's
        circumscribed radius a (nodes inside it get Phi(a))."""
        if grid.dim != self.dim:
            raise PreconditionError("profile dimension does not match the field grid")
        if grid.hole != self.hole:
            raise PreconditionError("profile hole does not match the field grid")
        return self.evaluate(np.maximum(grid.radii(), self.hole.circumscribed_radius))

    def boundary_residual(self) -> float:
        """Residual of sin(pi theta/2) dPhi/dn + cos(pi theta/2) Phi at r = a."""
        a = self.hole.circumscribed_radius
        half = 0.5 * math.pi * self.theta.theta
        if self.coefficient is not None:
            c = self.coefficient
            phi_a = 1.0 - c
            dphi_dr = c * (self.dim - 2) / a
        else:
            h = self.r[1] - self.r[0]
            phi_a = self.values[0]
            dphi_dr = (-3.0 * self.values[0] + 4.0 * self.values[1]
                       - self.values[2]) / (2.0 * h)
        return math.sin(half) * (-dphi_dr) + math.cos(half) * phi_a

    def elliptic_monotone_violations(self, tol: float = 0.0) -> int:
        """Count pointwise increases of phi_R as R grows (0 expected)."""
        if self.per_radius is None and self.planar_fields is None:
            raise PreconditionError("monotonicity check requires an elliptic table")
        count = 0
        if self.per_radius is not None:
            radii = sorted(self.per_radius)
            for r1, r2 in zip(radii, radii[1:]):
                count += int(np.sum(self.per_radius[r2] > self.per_radius[r1] + tol))
        else:
            radii = sorted(self.planar_fields)
            for r1, r2 in zip(radii, radii[1:]):
                f1, f2 = self.planar_fields[r1], self.planar_fields[r2]
                m = f1.grid.active_mask()
                count += int(np.sum(f2.values[m] > f1.values[m] + tol))
        return count


def _closed_form(dim: int, hole: HoleSpec, theta: ThetaBoundary) -> ProfileTable:
    """The closed-form table at 512 radii on [a, 64 a], a the hole's
    circumscribed radius."""
    a = hole.circumscribed_radius
    c = profile_coefficient(dim, a, theta)
    r = np.linspace(a, 64.0 * a, 512)
    return ProfileTable(dim, hole, theta, r, 1.0 - c * (a / r) ** (dim - 2), c)


def profile_radial_closed_form(dim: int, a: float, theta: ThetaBoundary) -> ProfileTable:
    """Closed-form profile around a ball hole of radius a (dim 2 or 3)."""
    return _closed_form(dim, BallHole(a), theta)


def profile_planar(hole: HoleSpec, theta: ThetaBoundary) -> ProfileTable:
    """The dim-2 profile of any hole: the closed form with N = 2, which is
    the constant 1 under Neumann and the constant 0 otherwise."""
    return _closed_form(2, hole, theta)


def _radial_truncated_solve(dim: int, a: float, theta: ThetaBoundary,
                            R: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Radial Laplace solve on [a, R], phi(R) = 1, on `radial_operator`'s rows.

    Solves -L psi = -L 1 for psi = 1 - phi with the march's symmetric factor:
    psi(R) = 0 and the right-hand side sits on the hole row only (zero for
    Neumann, so phi is exactly 1).
    """
    n = int(round((R - a) / h))
    grid = RadialGrid(a, a + n * h, n, dim)
    lo, di, up = radial_operator(grid, theta)
    psi = np.zeros(n + 1)
    first = int(theta.is_dirichlet)
    if first:
        psi[:2] = 1.0, lo[1]  # psi(a) = 1, moved to row 1
    else:
        psi[0] = -(di[0] + up[0])
    scale, d, e = symmetric_factor(-lo[first:n], -di[first:n], -up[first:n])
    psi[first:n] = dpttrs(d, e, scale * psi[first:n])[0] / scale
    phi = 1.0 - psi
    if not np.all(np.isfinite(phi)):
        raise NumericalError("radial harmonic solve produced non-finite values")
    return grid.nodes(), phi


_MIN_HALF_NODES = 8  # m >= 8: PlanarGrid takes no fewer than 16 cells a side


def _planar_lattice(hole: HoleSpec, R: float, h: float) -> PlanarGrid:
    """The grid of the truncated solve at radius R: the nodes i h, j h of
    the global lattice with |i|, |j| <= ceil(R / h) + 1."""
    m = int(math.ceil(R / h)) + 1
    return PlanarGrid(half_width=m * h, n=2 * m, hole=hole)


def _planar_truncated_solve(hole: HoleSpec, theta: ThetaBoundary, R: float,
                            h: float) -> Field:
    """Masked 5-point Laplace solve on B(0,R) \\ hole with phi = 1 at |x| = R.

    All radii share one global lattice (spacing h, centred at the origin)
    so the discrete problems nest and the R-monotonicity is exact.

    The hole and the disc are centred at the origin, so the problem is
    mirror-symmetric in x and in y and phi is even in both. It is solved
    on the quadrant x, y >= 0 alone: a link across an axis reaches the
    mirror image of the node behind it, so on the axis row the outward
    link counts twice and the inward one drops out. A solution of this
    system unfolds to a solution of the full problem, and the full
    solution, being unique and even, restricts to a solution of this
    system; so the fold is exact, not an approximation. The quadrant masks
    use the quadrant's own coordinates i h, which makes the returned field
    mirror-symmetric by construction.

    When the quadrant's active and hole masks equal their transposes, the
    problem is symmetric under x <-> y as well (both axes take the same
    links and the ghost factor is one number), and phi is too. The solve
    then keeps the octant j <= i alone: a node above the diagonal shares
    the unknown of its image (j, i), and a diagonal node's two links to
    the far side of the diagonal land on one image, whose entries are
    summed. The same argument makes this second fold exact, and the
    unknown map unfolds the octant into the quadrant, so the field is
    symmetric under x <-> y by construction.
    """
    grid = _planar_lattice(hole, R, h)
    m = grid.n // 2
    X, Y = np.meshgrid(np.arange(m + 1) * h, np.arange(m + 1) * h, indexing="ij")
    hole_mask = hole_nodes(hole, X, Y, 1e-12 * grid.half_width)
    active = (X ** 2 + Y ** 2 < R ** 2 - 1e-12) & ~hole_mask
    del X, Y  # not held through the sparse solve, the run's memory peak
    if not np.any(active):
        raise GeometryError("truncation radius leaves no active nodes")
    # unit links, the axis row's inward link folded onto its outward one:
    # the parity row of the k = 0 radial links; the far nodes outside the
    # circle carry phi = 1, which moves to the right-hand side
    lo, up = radial_links(np.arange(m + 1.0), 1.0, 0)
    idx = None
    if np.array_equal(active, active.T) and np.array_equal(hole_mask, hole_mask.T):
        # the octant j <= i numbered; a node above the diagonal takes the
        # unknown of its image
        octant = active & np.tri(m + 1, dtype=bool)
        idx = -np.ones(active.shape, dtype=np.int64)
        idx[octant] = np.arange(int(octant.sum()))
        idx = np.maximum(idx, idx.T)
    L, far_coef = masked_laplacian(active, hole_mask, (lo, up, lo, up),
                                   hole_ghost(theta, h), idx)
    phi_vec = spsolve(L, -far_coef)
    if not np.all(np.isfinite(phi_vec)):
        raise NumericalError("planar harmonic solve produced non-finite values")
    quad = np.ones((m + 1, m + 1))
    quad[hole_mask] = 0.0
    quad[active] = phi_vec if idx is None else phi_vec[idx[active]]
    half = np.concatenate([quad[:0:-1], quad])
    return Field(grid, np.concatenate([half[:, :0:-1], half], axis=1), 0.0).lock()


def profile_elliptic(domain: ExteriorDomain, theta: ThetaBoundary,
                     R_list, h: Optional[float] = None) -> ProfileTable:
    """Profile by truncated harmonic solves at each R in R_list.

    dim 3 (ball hole): radial second-order solves (RadialGrid rejects an h
    with < 64 cells below min(R), exit 3); the limit table is the
    two-point extrapolation in 1/(R - q) of the two largest radii.
    dim 2: masked 5-point solves on a shared lattice of spacing h (0.25
    by default; min(R) > 6 h, so that each grid has ceil(R / h) + 1 >= 8
    nodes on a half axis, else PreconditionError before any solve); no
    extrapolation: the limit is `profile_planar`'s constant, and the per-R
    fields demonstrate the monotone decrease toward it.
    """
    radii = tuple(float(R) for R in R_list)
    if not all(math.isfinite(R) for R in radii):
        raise PreconditionError(f"R_list must hold finite radii, got {radii}")
    if len(radii) < 2 or list(radii) != sorted(set(radii)):
        raise PreconditionError("R_list must contain >= 2 strictly increasing radii")
    rc = domain.hole.circumscribed_radius
    if radii[0] <= 2.0 * rc:
        raise PreconditionError(
            f"min(R_list) must exceed twice the hole circumscribed radius ({2.0 * rc})"
        )

    if domain.dim == 3:
        if not isinstance(domain.hole, BallHole):
            raise GeometryError("dim-3 elliptic profiles require a ball hole")
        a = domain.hole.radius
        if h is None:
            h = a / 256.0
        if theta.is_neumann:
            q = 0.0
        elif theta.is_dirichlet:
            q = a
        else:
            b = theta.robin_b
            q = a * a * b / (1.0 + a * b)
        solves = {}
        for R in radii:
            r_R, phi_R = _radial_truncated_solve(domain.dim, a, theta, R, h)
            solves[R] = (r_R, phi_R)
        n_common = min(v[0].size for v in solves.values())
        r_common = solves[radii[0]][0][:n_common]
        per_radius = {R: v[1][:n_common].copy() for R, v in solves.items()}
        R1, R2 = radii[-2], radii[-1]
        y1, y2 = 1.0 / (R1 - q), 1.0 / (R2 - q)
        extrap = (y1 * per_radius[R2] - y2 * per_radius[R1]) / (y1 - y2)
        extrap = np.clip(extrap, 0.0, 1.0)
        return ProfileTable(domain.dim, domain.hole, theta, r_common, extrap,
                            per_radius=per_radius)

    # dim 2: masked planar solves on one nested lattice, each restricted to
    # the coarsest (smallest R) grid as soon as it is solved, so no full
    # field is held through the next solve. The largest R is solved first,
    # on a heap that no earlier SuperLU solve has left holes in: the run's
    # peak then no longer depends on where those holes fell.
    if h is None:
        h = 0.25
    if not (math.isfinite(h) and h > 0.0):
        raise PreconditionError(f"the lattice spacing h must be positive and finite, got {h}")
    if math.ceil(radii[0] / h) + 1 < _MIN_HALF_NODES:
        raise PreconditionError(
            f"min(R_list) = {radii[0]:g} is too small for the lattice spacing h = {h:g}: "
            f"the planar solve needs ceil(R / h) + 1 >= {_MIN_HALF_NODES}, "
            f"that is R > {(_MIN_HALF_NODES - 2) * h:g}")
    small = _planar_lattice(domain.hole, radii[0], h)
    per_fields = {}
    for R in reversed(radii):
        f = _planar_truncated_solve(domain.hole, theta, R, h)
        off = round((f.grid.half_width - small.half_width) / h)
        keep = slice(off, off + small.n + 1)
        per_fields[R] = Field(small, f.values[keep, keep].copy(), 0.0).lock()
        del f
    return replace(profile_planar(domain.hole, theta),
                   planar_fields={R: per_fields[R] for R in radii})


def asymptotic_mass(u0: Field, profile: ProfileTable) -> float:
    """Mass retained as t -> infinity: integral of Phi * u0 over the domain."""
    phi = profile.on_grid(u0.grid)
    return float(np.sum(u0.grid.volume_weights() * phi * u0.values))


@dataclass
class DecayFitReport:
    """Log-log fit of a profile derivative against radius."""

    order: int
    exponent: float
    amplitude: float
    target: float
    passed: bool
    skipped: bool = False
    reason: str = ""


def profile_decay_check(profile: ProfileTable, order: int) -> DecayFitReport:
    """Fit the decay exponent of |D^order Phi| (order 0 uses 1 - Phi).

    Finite differences on the dyadic radius ladder 2a, 4a, ..., 128a (cut
    at r[-1]/2 for a sampled table); passes when the fitted exponent is at
    most -(N - 2 + order) + 0.1.
    """
    if order < 0 or order > 2:
        raise PreconditionError("order must be 0, 1, or 2")
    if profile.dim < 3:
        raise PreconditionError("decay checks require dim >= 3")
    target = -(profile.dim - 2 + order) + 0.1
    a = profile.hole.circumscribed_radius
    radii = a * 2.0 ** np.arange(1, 8)
    if profile.coefficient is None:
        radii = radii[radii <= profile.r[-1] / 2.0]
    if radii.size < 4:
        raise PreconditionError("not enough samples for a decay fit")
    psi = 1.0 - profile.evaluate(radii)
    if not np.any(psi):
        return DecayFitReport(order, 0.0, 0.0, target, True, skipped=True,
                              reason="1 - Phi vanishes on the ladder")
    delta = 1e-3 * radii
    if order == 0:
        vals = psi
    elif order == 1:
        vals = np.abs(profile.evaluate(radii + delta)
                      - profile.evaluate(radii - delta)) / (2.0 * delta)
    else:
        vals = np.abs(profile.evaluate(radii + delta) - 2.0 * profile.evaluate(radii)
                      + profile.evaluate(radii - delta)) / delta ** 2
    good = vals > 0
    if int(good.sum()) < 4:
        raise PreconditionError("profile derivative vanishes on the ladder")
    slope, intercept = np.polyfit(np.log(radii[good]), np.log(vals[good]), 1)
    return DecayFitReport(order, float(slope), float(math.exp(intercept)), target,
                          passed=bool(slope <= target))


@dataclass
class PsiTable:
    """Complement Psi = 1 - Phi(Dirichlet), with its fitted decay amplitude."""

    profile: ProfileTable
    amplitude: float  # fitted C with Psi <= C / r^(N-2)

    def evaluate(self, radii):
        return 1.0 - self.profile.evaluate(radii)


def psi_from_profile(profile0: ProfileTable) -> PsiTable:
    """Build Psi = 1 - Phi from a Dirichlet profile table."""
    if not profile0.theta.is_dirichlet:
        raise PreconditionError("Psi is defined from the Dirichlet profile")
    psi = 1.0 - profile0.evaluate(profile0.r)
    return PsiTable(profile0, float(np.max(psi * profile0.r ** (profile0.dim - 2))))
