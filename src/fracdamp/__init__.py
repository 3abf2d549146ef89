"""Degenerate Schrodinger systems with fractional-integral boundary damping.

Simulation and spectral-analysis lab: finite-volume generator assembly,
exactly-contractive time stepping, resolvent-norm scans with power-law fits,
and a Bessel-series closed-form oracle for the power-law coefficient case.
"""

__version__ = "0.1.0"

from .bessel import analytic_resolvent_P
from .diffusive import build_xi_quadrature, kernel_check
from .errors import FracdampError, NumericalError
from .evolution import fit_decay_exponent, prepare_initial_state, simulate
from .model import PowerLawKappa, ProblemSpec, StateVector, Variant
from .operator import assemble_operator, build_x_grid, default_grading
from .resolvent import (
    MIN_SCAN_POINTS,
    forcing_integral,
    scan_resolvent,
    solve_resolvent,
    theoretical_exponents,
)

# what the command line uses, plus the state type its functions exchange
__all__ = [
    "FracdampError",
    "MIN_SCAN_POINTS",
    "NumericalError",
    "PowerLawKappa",
    "ProblemSpec",
    "StateVector",
    "Variant",
    "analytic_resolvent_P",
    "assemble_operator",
    "build_x_grid",
    "build_xi_quadrature",
    "default_grading",
    "fit_decay_exponent",
    "forcing_integral",
    "kernel_check",
    "prepare_initial_state",
    "scan_resolvent",
    "simulate",
    "solve_resolvent",
    "theoretical_exponents",
]
