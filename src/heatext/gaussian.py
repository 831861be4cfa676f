"""Whole-space heat kernel: values, Lp norms, and the L1 time-shift bound.

G(x, t) = exp(-|x|^2 / 4t) / (4 pi t)^(N/2)

The kernel has unit mass for every t > 0 and the exact self-similarity
G(x, t) = lam^N G(lam x, lam^2 t).
"""

import math

import numpy as np

from .domain import sphere_surface_area
from .errors import GeometryError, NumericalError
from .records import record


@record(frozen=True)
class GaussianParams:
    dim: int
    time: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GeometryError(f"dim must be 2 or 3, got {self.dim}")
        if not 0 < self.time < math.inf:
            raise GeometryError(f"time must be positive and finite, got {self.time}")


def gaussian_value(x_norm, params: GaussianParams):
    """Kernel value at distance x_norm from the centre. Vectorised in x_norm."""
    x = np.asarray(x_norm, dtype=float)
    t = params.time
    out = np.exp(-x * x / (4.0 * t)) / (4.0 * math.pi * t) ** (params.dim / 2.0)
    return out if out.ndim else float(out)


def gaussian_lp_norm(p_exp: float, params: GaussianParams) -> float:
    """Closed-form ||G(., t)||_Lp = (4 pi t)^(-(N/2)(1-1/p)) * p^(-N/(2p)).

    Limit conventions: p = 1 gives 1 (unit mass), p = inf gives the
    peak value (4 pi t)^(-N/2).
    """
    if p_exp < 1:
        raise GeometryError(f"p must be >= 1, got {p_exp}")
    n, t = params.dim, params.time
    if math.isinf(p_exp):
        return (4.0 * math.pi * t) ** (-n / 2.0)
    return (4.0 * math.pi * t) ** (-(n / 2.0) * (1.0 - 1.0 / p_exp)) * p_exp ** (
        -n / (2.0 * p_exp)
    )


def gaussian_l1_time_shift_bound(t: float, d: float, dim: int) -> float:
    """Upper bound 2(((t+d)/t)^(N/2) - 1) for the L1 distance of G(., t) and G(., t+d).

    Decreasing in t, increasing in d, and -> 0 as t -> infinity, which is
    what makes time-shifted Gaussians interchangeable at late times.
    """
    if not t > 0 or not d > 0:
        raise GeometryError(f"need t > 0 and d > 0, got t={t}, d={d}")
    if dim not in (2, 3):
        raise GeometryError(f"dim must be 2 or 3, got {dim}")
    return 2.0 * (((t + d) / t) ** (dim / 2.0) - 1.0)


def adaptive_radial_integral(fn, dim: int, r_max: float, tol: float) -> float:
    """Integral over R^N of a radial integrand fn(r) by composite trapezoid.

    The node count doubles from 256 cells until two successive estimates
    differ by less than tol (NumericalError past 2^22 cells). fn must
    accept a numpy array of radii.
    """
    omega = sphere_surface_area(dim)
    n = 256
    prev = None
    while n <= 2 ** 22:
        r = np.linspace(0.0, r_max, n + 1)
        val = omega * float(np.trapezoid(fn(r) * r ** (dim - 1), r))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    raise NumericalError(f"radial quadrature did not reach tol={tol}", residual=abs(val - prev))


def gaussian_mass_quadrature(params: GaussianParams) -> float:
    """Quadrature of the kernel over R^N; equals 1 up to the quadrature tol 1e-10."""
    cutoff = 12.0 * math.sqrt(params.time)
    return adaptive_radial_integral(lambda r: gaussian_value(r, params), params.dim, cutoff,
                                    1e-10)


def gaussian_l1_time_shift_quadrature(t: float, d: float, dim: int) -> float:
    """Quadrature (tol 1e-10) of integral |G(x,t) - G(x,t+d)| dx, the quantity
    the bound caps."""
    pa, pb = GaussianParams(dim, t), GaussianParams(dim, t + d)
    cutoff = 12.0 * math.sqrt(t + d)
    return adaptive_radial_integral(
        lambda r: np.abs(gaussian_value(r, pa) - gaussian_value(r, pb)), dim, cutoff, 1e-10
    )


def gaussian_ball_integral(center_dist: float, radius: float, time: float,
                           dim: int = 3) -> float:
    """Integral of G(x - y, t) over the ball B(0, radius), with |y| = center_dist.

    Reduces to a 1d trapezoid quadrature on 4001 shell radii using the
    closed-form average of exp(-|x - y|^2/4t) over a sphere of radius s.
    """
    if radius <= 0 or time <= 0 or center_dist < 0:
        raise GeometryError("need radius > 0, time > 0, center_dist >= 0")
    s = np.linspace(0.0, radius, 4001)
    d = center_dist
    t = time
    if dim == 3:
        shell = np.empty_like(s)
        sm = s > 0
        if d > 0:
            # exp(-(s^2+d^2)/4t) sinh(sd/2t) written as a difference of
            # bounded exponentials to avoid overflow for far centres
            diff = (np.exp(-((s[sm] - d) ** 2) / (4.0 * t))
                    - np.exp(-((s[sm] + d) ** 2) / (4.0 * t)))
            shell[sm] = 4.0 * math.pi * s[sm] * t / d * diff
        else:
            shell[sm] = 4.0 * math.pi * s[sm] ** 2 * np.exp(-s[sm] ** 2 / (4.0 * t))
        shell[~sm] = 0.0
        return float(np.trapezoid(shell, s)) / (4.0 * math.pi * t) ** 1.5
    if dim == 2:
        # imported here: no CLI run takes this branch, so none loads scipy.special
        from scipy.special import i0e

        # i0e is the scaled Bessel function: i0(x) = i0e(x) exp(x)
        shell = 2.0 * math.pi * s * np.exp(-((s - d) ** 2) / (4.0 * t)) * i0e(
            s * d / (2.0 * t))
        return float(np.trapezoid(shell, s)) / (4.0 * math.pi * t)
    raise GeometryError(f"dim must be 2 or 3, got {dim}")
