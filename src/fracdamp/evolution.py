"""Time integration, energy traces and decay-exponent fitting.

The one-step map is the implicit midpoint rule (a Cayley transform of the
generator): exactly norm-conserving when the damping weight is zero and
exactly contractive otherwise, so "energy never increases" is a hard
property of the scheme, not an accuracy statement.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from . import _kernels
from ._csv import write_csv
from .errors import FitDataError, NumericalError, ParameterError, ShapeError
from .model import StateVector, energy
from .operator import SystemOperator
from .resolvent import _fit_line, smallest_singular_value

#: Eigenvalues of modulus at or below this are roundoff, not resolved modes.
_RESOLVED_EIGENVALUE = 1e-8


class InitialPreset(str, enum.Enum):
    SMOOTH_BUMP = "smooth-bump"
    LOWEST_MODE = "lowest-mode"


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled run history: energy E, dissipation rate D <= 0, damping flux."""

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    flux: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "E", "D", "flux_re", "flux_im"],
                  [self.t, self.E, self.D, self.flux.real, self.flux.imag])


@dataclass(frozen=True)
class DecayFit:
    window: Tuple[float, float]
    exponent: float
    intercept: float
    r_squared: float


def _midpoint_arrays(op: SystemOperator):
    return (
        op.l_sub, op.l_diag, op.l_sup, op.xgrid.h, op.boundary_index,
        op.zeta, op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2,
    )


def simulate(
    op: SystemOperator,
    y0: StateVector,
    t_final: float,
    dt: float,
    sample_stride: Optional[int] = None,
) -> EnergyTrace:
    """March Y' = A Y and record the decimated energy trace.

    The march steps in the eigenbasis of the field block (see
    ``_kernels.midpoint_march``); a field block that is not self-adjoint in
    the h inner product raises NumericalError.  The trace contains E, the
    discrete dissipation rate D (exact energy derivative at the sample), and
    the boundary damping flux read from the coupling row.  Samples are
    taken every ``sample_stride`` steps (a positive integer; by default the
    stride that keeps about 2000 samples) and at the last step.
    """
    if dt <= 0 or t_final <= 0:
        raise ParameterError(f"t_final and dt must be positive, got {t_final}, {dt}")
    if y0.y.size != op.xgrid.x.size or y0.psi.size != op.xigrid.xi.size:
        raise ShapeError("initial state does not match operator grids")
    n_steps = max(1, int(round(t_final / dt)))  # trace ends at n_steps*dt
    if sample_stride is None:
        sample_stride = max(1, n_steps // 2000)
    elif not isinstance(sample_stride, numbers.Integral) or sample_stride < 1:
        raise ParameterError(f"sample_stride must be a positive integer, got {sample_stride!r}")
    steps = np.arange(0, n_steps + 1, sample_stride, dtype=np.int64)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    try:
        e_out, d_out, s_out, _ = _kernels.midpoint_march(
            *_midpoint_arrays(op), y0.y, y0.psi, float(dt), n_steps, steps,
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"time march failed: {exc}", {"dt": dt, "n_steps": n_steps}) from exc
    flux = op.flux_sign * 1j * op.zeta * s_out
    return EnergyTrace(t=steps * dt, E=e_out, D=d_out, flux=flux)


# ---------------------------------------------------------------------------
# initial-state preparation
# ---------------------------------------------------------------------------


def _weighted_eig(op: SystemOperator, left: bool = False):
    """Dense eig of the weighted similarity: (vals, vr), or (vals, vl, vr) with left."""
    try:
        return sla.eig(op.weighted_dense(), left=left)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc


def project_out_near_kernel(
    op: SystemOperator, state: StateVector, tol: float = _RESOLVED_EIGENVALUE
) -> StateVector:
    """Remove components along discrete modes with |eigenvalue| < tol.

    Cheap path first: if the smallest singular value of A exceeds tol there
    is nothing to remove.  Otherwise an oblique spectral projector is built
    from the left/right eigenvectors of the weighted similarity matrix.
    """
    if smallest_singular_value(op) >= tol:
        return state
    vals, vl, vr = _weighted_eig(op, left=True)
    sel = np.abs(vals) < tol
    if not np.any(sel):
        return state
    sw = np.sqrt(op.weights)
    z = sw * np.concatenate((state.y, state.psi))
    v = vr[:, sel]
    wl = vl[:, sel]
    coeff = np.linalg.solve(wl.conj().T @ v, wl.conj().T @ z)
    z = z - v @ coeff
    z = z / sw
    n = op.xgrid.x.size
    return StateVector(y=z[:n], psi=z[n:])


def _lowest_mode(op: SystemOperator) -> StateVector:
    """Slowest-decaying resolved eigenmode: the largest Re lambda among the
    eigenvalues of modulus above _RESOLVED_EIGENVALUE.

    Right eigenvectors only; the mode is mapped back to the H geometry and
    its eigen-residual checked.
    """
    vals, vr = _weighted_eig(op)
    ok = np.abs(vals) > _RESOLVED_EIGENVALUE
    if not np.any(ok):
        raise NumericalError("no resolved nonzero eigenmode found")
    idx = np.flatnonzero(ok)[np.argmax(vals[ok].real)]
    z = vr[:, idx] / np.sqrt(op.weights)
    n = op.xgrid.x.size
    mode = StateVector(y=z[:n], psi=z[n:])
    resid = _mode_residual(op, mode, vals[idx])
    if resid > 1e-6:
        raise NumericalError(
            f"eigenmode residual {resid:.3e} too large", {"eigenvalue": vals[idx]}
        )
    return mode


def _mode_residual(op: SystemOperator, state: StateVector, lam: complex) -> float:
    from .model import weighted_norm

    ay = op.apply(state)
    resid = StateVector(y=ay.y - lam * state.y, psi=ay.psi - lam * state.psi)
    return weighted_norm(resid, op) / weighted_norm(state, op)


def prepare_initial_state(
    op: SystemOperator,
    preset: InitialPreset | str = InitialPreset.SMOOTH_BUMP,
) -> StateVector:
    """Build a unit-energy initial state compatible with the damped boundary.

    The smooth bump x^2 (1-x)^2 has vanishing flux at both ends, so it is
    compatible with the damped boundary row for either variant; it is
    projected off the modes with |eigenvalue| < _RESOLVED_EIGENVALUE, which
    a damped operator does not have at the default grids (the guard's
    lambda=0 solve then skips the projection).  The lowest-mode preset
    returns the slowest decaying resolved eigenmode.
    """
    preset = InitialPreset(preset)
    if preset is InitialPreset.LOWEST_MODE:
        state = _lowest_mode(op)
    else:
        x = op.xgrid.x
        y = (x**2 * (1.0 - x) ** 2).astype(complex)
        state = StateVector(y=y, psi=np.zeros(op.xigrid.xi.size, dtype=complex))
        state = project_out_near_kernel(op, state)
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
    return DecayFit(window=(float(lo), float(hi)), exponent=-slope,
                    intercept=intercept, r_squared=r2)
