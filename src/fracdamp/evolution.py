"""Time integration, energy traces and decay-exponent fitting.

The one-step map is the implicit midpoint rule (a Cayley transform of the
generator): exactly norm-conserving when the damping weight is zero and
exactly contractive otherwise, so "energy never increases" is a hard
property of the scheme, not an accuracy statement.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from ._csv import write_csv
from .errors import FitDataError, NumericalError, ParameterError
from .model import StateVector, _check_compatible, energy, weighted_norm
from .operator import SystemOperator
from .resolvent import _fit_line, _ShiftedSystem, damped_eigenvalues, smallest_singular_value

#: Eigenvalues of modulus at or below this are roundoff, not resolved modes.
_RESOLVED_EIGENVALUE = 1e-8
#: Inverse-iteration steps that build the lowest mode's eigenvector.
_INVERSE_STEPS = 3


class InitialPreset(str, enum.Enum):
    SMOOTH_BUMP = "smooth-bump"
    LOWEST_MODE = "lowest-mode"


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled run history: energy E, dissipation rate D <= 0, damping flux.

    ``coupled_modes`` is the number of field modes the march stepped, and
    ``uncoupled_energy`` the part of every E held by the field modes left
    out, which do not reach the damped cell: the damping never removes it.
    """

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    flux: np.ndarray
    coupled_modes: int = 0
    uncoupled_energy: float = 0.0

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "E", "D", "flux_re", "flux_im"],
                  [self.t, self.E, self.D, self.flux.real, self.flux.imag])


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    r_squared: float


def _step_count(t_final: float, dt: float) -> int:
    """The number of midpoint steps of a march to t_final; a t_final or dt
    that is not positive and finite, or whose ratio overflows, raises
    ParameterError."""
    # written so that nan fails it; t_final/dt overflows for a tiny dt
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf and t_final / dt < math.inf):
        raise ParameterError(
            f"t_final and dt must be positive and finite, with a finite step count, "
            f"got {t_final}, {dt}"
        )
    return max(1, int(round(t_final / dt)))  # the trace ends at this count times dt


def simulate(op: SystemOperator, y0: StateVector, t_final: float, dt: float) -> EnergyTrace:
    """March Y' = A Y and record the decimated energy trace.

    The march steps the field modes that reach the damped cell, with no
    n x n array (``_kernels.field_modes`` and ``midpoint_march``): the
    coupled modes of ``op.field_spectrum`` and any decoupled one (weight
    below eps) whose boundary term is above rounding.  The energy of the
    modes left out is the trace's ``uncoupled_energy``.  A field block that
    is not self-adjoint in the h inner product raises NumericalError.  The
    trace contains E, the discrete dissipation rate D (exact energy
    derivative at the sample), and the boundary damping flux read from the
    coupling row.  Samples are taken at the stride that keeps about 2000
    samples and at the last step.  A t_final or dt that is not positive and
    finite raises ParameterError (``_step_count``).
    """
    n_steps = _step_count(t_final, dt)
    _check_compatible(y0, op)
    steps = np.arange(0, n_steps + 1, max(1, n_steps // 2000), dtype=np.int64)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    try:
        spectrum = op.field_spectrum
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"field eigenvalues failed: {exc}") from exc
    b = op.boundary_index
    h = op.xgrid.h
    ell, s, alpha0, remainder = _kernels.field_modes(op.l_diag, spectrum, b, np.sqrt(h) * y0.y)
    e_out, d_out, s_out = _kernels.midpoint_march(
        ell, s, h[b], op.zeta, op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2,
        alpha0, y0.psi, 0.5 * remainder, float(dt), steps,
    )
    sign = -1.0 if b == 0 else 1.0  # the flux is -i zeta S at x=0, +i zeta S at x=1
    flux = sign * 1j * op.zeta * s_out
    return EnergyTrace(t=steps * dt, E=e_out, D=d_out, flux=flux,
                       coupled_modes=int(ell.size), uncoupled_energy=0.5 * remainder)


# ---------------------------------------------------------------------------
# initial-state preparation
# ---------------------------------------------------------------------------


def _lowest_mode(op: SystemOperator, report: Optional[dict] = None) -> StateVector:
    """Slowest-decaying resolved eigenmode: the largest Re lambda among the
    eigenvalues of modulus above _RESOLVED_EIGENVALUE.

    The eigenvalues come from the secular census
    (``resolvent.damped_eigenvalues``), which resolves real parts far below
    eps |lambda|: a decoupled field mode (weight below eps) has Re lambda = 0
    exactly, a coupled root Re lambda < 0.  Values within 64 eps of the
    largest real part, relative to it, are tied, and the tie goes to the
    smallest |lambda|: on P a decoupled field mode, on P' the relaxation
    root next to -xi_min^2 (see the README).  The eigenvector comes from
    _INVERSE_STEPS steps of inverse iteration with the shifted solver of
    ``resolvent`` taken at lam - A, O(n + m) each and no dense matrix, from
    the all-ones vector and normalized in the weighted norm at each step;
    its eigen-residual is checked.  If `report` is a dict, the mode's eigenvalue, boundary weight,
    field energy share, residual and relative residual (over max(|lambda|,
    max |ell_k|)) and the census counts, trace defect and wall time are
    stored in it.  The trace defect |sum lambda - tr A| / sum |lambda| checks
    the census as a whole: tr A = i sum l_diag - sum xi^2 in closed form,
    since the rank-two coupling has zero trace.
    """
    clock = time.perf_counter()
    census = damped_eigenvalues(op)
    census_s = time.perf_counter() - clock
    vals = census.values[np.abs(census.values) > _RESOLVED_EIGENVALUE]
    if not vals.size:
        raise NumericalError("no resolved nonzero eigenmode found")
    top = vals.real.max()
    tied = vals[vals.real >= top - 64.0 * np.finfo(float).eps * abs(top)]
    lam = complex(tied[np.argmin(np.abs(tied))])
    system = _ShiftedSystem(op, -1j * lam)  # i (-i lam) - A = lam - A
    sw = np.sqrt(op.weights)
    z = np.ones(op.dimension, dtype=np.complex128)
    for _ in range(_INVERSE_STEPS):
        z = system.solve(z)
        z /= np.linalg.norm(sw * z)
    n = op.xgrid.x.size
    mode = StateVector(y=z[:n], psi=z[n:])
    resid = _mode_residual(op, mode, lam)
    if resid > 1e-6:
        raise NumericalError(
            f"eigenmode residual {resid:.3e} too large", {"eigenvalue": lam}
        )
    if report is not None:
        field = StateVector(y=mode.y, psi=np.zeros_like(mode.psi))
        b = op.boundary_index
        vals = census.values
        trace = 1j * op.l_diag.sum() - np.sum(op.xigrid.xi**2)
        report.update({
            "eigenvalue": [lam.real, lam.imag],
            "boundary_weight": 0.5 * op.xgrid.h[b] * abs(mode.y[b]) ** 2 / energy(field, op),
            "field_energy_share": energy(field, op) / energy(mode, op),
            "residual": resid,
            # the absolute residual's rounding floor grows with max |ell|
            "relative_residual": resid / max(abs(lam),
                                             float(np.abs(op.field_spectrum.ell).max())),
            "census": {"expected": census.expected, "unconverged": census.unconverged,
                       "recovered": census.recovered,
                       "max_newton_iterations": int(census.iterations.max()),
                       "trace_defect": float(abs(vals.sum() - trace) / np.abs(vals).sum())},
            "census_s": census_s,
        })
    return mode


def _mode_residual(op: SystemOperator, state: StateVector, lam: complex) -> float:
    ay = op.apply(state)
    resid = StateVector(y=ay.y - lam * state.y, psi=ay.psi - lam * state.psi)
    return weighted_norm(resid, op) / weighted_norm(state, op)


def prepare_initial_state(
    op: SystemOperator,
    preset: InitialPreset | str = InitialPreset.SMOOTH_BUMP,
    report: Optional[dict] = None,
) -> StateVector:
    """Build a unit-energy initial state compatible with the damped boundary.

    The smooth bump x^2 (1-x)^2 has vanishing flux at both ends, so it is
    compatible with the damped boundary row for either variant; it is
    returned as it is, since a damped operator has no kernel to remove.  The
    lowest-mode preset returns the resolved eigenmode with the largest
    Re lambda, ties at rounding going to the smallest |lambda| (see
    ``_lowest_mode``); on variant P that is a decoupled field mode (weight
    below eps).  If `report` is a dict, what the preparation measured
    is stored in it: for the bump sigma_min(A), one resolvent solve at
    lambda = 0, which reads the slowest relaxation rate (about xi_min^2);
    for the lowest mode what ``_lowest_mode`` reports.
    """
    preset = InitialPreset(preset)
    if preset is InitialPreset.LOWEST_MODE:
        state = _lowest_mode(op, report)
    else:
        x = op.xgrid.x
        y = (x**2 * (1.0 - x) ** 2).astype(complex)
        state = StateVector(y=y, psi=np.zeros(op.xigrid.xi.size, dtype=complex))
        if report is not None:
            report["sigma_min"] = smallest_singular_value(op)
    e0 = energy(state, op)
    if e0 <= 0.0:
        raise NumericalError("prepared state has zero energy")
    scale = 1.0 / math.sqrt(e0)
    return StateVector(y=scale * state.y, psi=scale * state.psi)


def fit_decay_exponent(trace: EnergyTrace, window: Tuple[float, float]) -> DecayFit:
    """Least-squares line on (log t, log E); exponent is the negated slope."""
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ParameterError(f"fit window must satisfy 0 < lo < hi, got {window}")
    mask = (trace.t >= lo) & (trace.t <= hi)
    if mask.sum() < 20:
        raise FitDataError(
            f"need >= 20 trace samples inside the window, found {int(mask.sum())}"
        )
    e = trace.E[mask]
    if np.any(e <= 0.0):
        raise FitDataError("energy hits zero or negative values inside the fit window")
    slope, intercept, r2 = _fit_line(np.log(trace.t[mask]), np.log(e))
    return DecayFit(exponent=-slope, intercept=intercept, r_squared=r2)
