"""heatext: heat-equation asymptotics on exterior domains.

Numerical verification of mass loss, asymptotic profiles, Gaussian
spatial spreading, kernel comparisons, and the optimality
counterexamples for the heat equation outside a compact hole with
Dirichlet/Robin/Neumann boundary conditions.
"""

from .domain import (
    BallHole,
    DIRICHLET,
    NEUMANN,
    RectHole,
    ThetaBoundary,
    check_exterior,
    required_far_radius,
    robin_coefficient,
    sphere_surface_area,
)
from .gaussian import (
    GaussianParams,
    gaussian_ball_integral,
    gaussian_l1_time_shift_bound,
    gaussian_lp_norm,
    gaussian_value,
)
from .profiles import (
    ProfileTable,
    PsiTable,
    asymptotic_mass,
    profile_closed_form,
    profile_decay_check,
    profile_elliptic,
    psi_from_profile,
)
from .solver import (
    AxisymGrid,
    Field,
    MassLedger,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_axisym,
    evolve_ball,
    evolve_planar,
    evolve_radial,
    kernel_probe,
    mass_balance_residual,
    probe_smearing_estimate,
)
from .asymptotics import (
    RateSeries,
    RegionSpec,
    error_norms,
    herraiz_compare,
    kernel_l1_gap,
    mass_convergence,
    optimality_check_l1,
    optimality_check_linf,
    rate_fit,
)
from .constructions import (
    BALL_EIGENVALUE,
    EXPLICIT_ASYMPTOTIC_MASS,
    OptimalDatumPlan,
    PSI_PEAK,
    SubSuperParams,
    ball_eigenfunction,
    explicit_solution,
    explicit_solution_mass,
    optimal_datum_plan,
    radial_z,
    supersolution_Z,
    supersolution_report,
)

__version__ = "0.1.0"
