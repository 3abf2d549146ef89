"""Degenerate Schrodinger systems with fractional-integral boundary damping.

Simulation and spectral-analysis lab: finite-volume generator assembly,
exactly-contractive time stepping, resolvent-norm scans with power-law fits,
and a Bessel-series closed-form oracle for the power-law coefficient case.
"""

__version__ = "0.1.0"

from .diffusive import (
    KernelCheck,
    XiGrid,
    build_xi_quadrature,
    direct_fractional_integral,
    evolve_psi_forced,
    kernel_check,
    kernel_exact,
    kernel_value,
)
from .evolution import (
    DecayFit,
    EnergyTrace,
    InitialPreset,
    fit_decay_exponent,
    prepare_initial_state,
    project_out_near_kernel,
    simulate,
    step_implicit_midpoint,
)
from .model import (
    BoundaryClass,
    DegeneracyReport,
    PowerLawKappa,
    ProblemSpec,
    StateVector,
    TabulatedKappa,
    Variant,
    classify_kappa,
    derive_constants,
    energy,
    inner_product,
    tabulate_kappa,
    weighted_norm,
)
from .operator import (
    SystemOperator,
    XGrid,
    apply_operator,
    assemble_operator,
    build_x_grid,
    default_grading,
    export_operator,
)
from .resolvent import (
    ExponentPrediction,
    ResolventScan,
    ScanRegime,
    forcing_integral,
    resolvent_norm,
    resolvent_norm_dense,
    scan_resolvent,
    solve_resolvent,
    theoretical_exponents,
    verify_determinant_scaling,
)
from .bessel import (
    AnalyticResolvent,
    BesselParams,
    analytic_case_Pprime_poweralpha,
    analytic_resolvent_P,
    bessel_j,
    bessel_j_prime,
    theta_norm_sq,
    theta_norm_sq_small_r,
    theta_pm,
    theta_prime_at_one,
)

__all__ = [name for name in dir() if not name.startswith("_")]
