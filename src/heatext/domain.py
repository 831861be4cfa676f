"""Exterior-domain geometry and boundary-condition conventions.

The domain is the complement of a compact hole containing the origin,
truncated computationally at a far radius: a run's grid is that
truncation, which `check_exterior` checks. Boundary conditions are
parametrised by theta in [0, 1]:

    theta = 0   Dirichlet   (u = 0 on the hole)
    theta in (0, 1)  Robin  (du/dn + b u = 0 with b = cot(pi theta / 2))
    theta = 1   Neumann     (du/dn = 0)

Sign convention: the outward normal of the domain on the hole boundary
points into the hole, so for radial fields du/dn = -du/dr at r = a.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import GeometryError


@dataclass(frozen=True)
class BallHole:
    """Ball of given radius centred at the origin (dim 2 or 3)."""

    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise GeometryError(f"ball hole radius must be positive and finite, got {self.radius}")

    @property
    def circumscribed_radius(self) -> float:
        return self.radius


@dataclass(frozen=True)
class RectHole:
    """Axis-aligned rectangle |x| <= wx, |y| <= wy centred at the origin (dim 2 only)."""

    half_width_x: float
    half_width_y: float

    def __post_init__(self):
        if not (0.0 < self.half_width_x < math.inf and 0.0 < self.half_width_y < math.inf):
            raise GeometryError(f"rectangle half-widths must be positive and finite, got "
                                f"{self.half_width_x} and {self.half_width_y}")

    @property
    def circumscribed_radius(self) -> float:
        return math.hypot(self.half_width_x, self.half_width_y)


HoleSpec = Union[BallHole, RectHole]


def robin_coefficient(theta: float) -> float:
    """Robin coefficient b = cot(pi theta / 2) for theta in (0, 1].

    Dividing sin(pi theta/2) du/dn + cos(pi theta/2) u = 0 by
    sin(pi theta/2) yields du/dn + b u = 0 with the returned b.
    theta = 1 gives b = 0 (Neumann); theta -> 0+ gives b -> +inf.
    theta = 0 itself is the Dirichlet sentinel, not a coefficient.
    """
    if not 0.0 < theta <= 1.0:
        raise GeometryError(f"robin_coefficient requires theta in (0, 1], got {theta}")
    if theta == 1.0:
        return 0.0
    half = 0.5 * math.pi * theta
    return math.cos(half) / math.sin(half)


@dataclass(frozen=True)
class ThetaBoundary:
    """Boundary condition selector, constant on the (single) hole boundary."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise GeometryError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.is_dirichlet and not math.isfinite(self.robin_b):
            raise GeometryError(
                f"theta = {self.theta!r} is too small: cot(pi theta/2) is not finite"
            )

    @property
    def is_dirichlet(self) -> bool:
        return self.theta == 0.0

    @property
    def is_neumann(self) -> bool:
        return self.theta == 1.0

    @property
    def robin_b(self) -> float:
        """cot(pi theta/2); +inf sentinel for the Dirichlet case."""
        if self.is_dirichlet:
            return math.inf
        return robin_coefficient(self.theta)


DIRICHLET = ThetaBoundary(0.0)
NEUMANN = ThetaBoundary(1.0)


def outward_normal_sign_at_hole() -> int:
    """Sign relating the outward normal to the radial direction at the hole.

    Returns -1: on the hole boundary the outward normal of the exterior
    domain points toward the hole interior, hence du/dn = -du/dr there.
    """
    return -1


def sphere_surface_area(dim: int) -> float:
    """Surface area of the unit sphere: 2 pi (dim 2), 4 pi (dim 3).

    Converts radial integrands to volume integrals:
    integral_Omega f(|x|) dx = sphere_surface_area(N) * integral f(r) r^(N-1) dr.
    """
    if dim == 2:
        return 2.0 * math.pi
    if dim == 3:
        return 4.0 * math.pi
    raise GeometryError(f"dim must be 2 or 3, got {dim}")


def check_exterior(dim: int, hole: HoleSpec, far_radius: Optional[float] = None) -> None:
    """GeometryError unless dim is 2 or 3, the hole a ball or (in dim 2) a
    rect, and far_radius finite and at least 4x the hole's circumscribed
    radius. The evolutions pass their grid's far radius; None checks the
    dimension and the hole alone, for the kernel probe and the elliptic
    profile, which size their own grids."""
    if dim not in (2, 3):
        raise GeometryError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(hole, (BallHole, RectHole)):
        raise GeometryError(f"an exterior domain needs a ball or rect hole, got {hole!r}")
    if isinstance(hole, RectHole) and dim != 2:
        raise GeometryError("rectangle holes are only supported in dim 2")
    if far_radius is None:
        return
    rc = hole.circumscribed_radius
    if not 4.0 * rc <= far_radius < math.inf:
        raise GeometryError(
            f"the far radius must be finite and at least 4x the hole circumscribed "
            f"radius ({4.0 * rc}), got {far_radius}"
        )


def required_far_radius(hole: HoleSpec, t_max: float) -> float:
    """Truncation radius keeping Gaussian tail leakage below ~1e-6 relative mass.

    Rule: hole circumscribed radius + 6 sqrt(4 t_max), i.e. six standard
    deviations of the heat kernel at the final time (an exp(-9) tail).
    """
    if t_max < 0:
        raise GeometryError(f"t_max must be nonnegative, got {t_max}")
    r = hole.circumscribed_radius + 6.0 * math.sqrt(4.0 * t_max)
    return max(r, 4.0 * hole.circumscribed_radius)
