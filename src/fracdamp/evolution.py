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
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from . import _kernels
from ._csv import write_csv
from .errors import FitDataError, NumericalError, ParameterError, ShapeError
from .model import StateVector, energy
from .operator import SystemOperator
from .resolvent import (
    _field_eigenvector,
    _fit_line,
    damped_eigenvalues,
    smallest_singular_value,
)

#: Eigenvalues of modulus at or below this are roundoff, not resolved modes.
_RESOLVED_EIGENVALUE = 1e-8
#: Closest distance, relative to the largest field frequency, at which the
#: eigenvector's complement solve is made next to a field frequency.
_NUDGE = 1e-12


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
    window: Tuple[float, float]
    exponent: float
    intercept: float
    r_squared: float


def simulate(
    op: SystemOperator,
    y0: StateVector,
    t_final: float,
    dt: float,
    sample_stride: Optional[int] = None,
) -> EnergyTrace:
    """March Y' = A Y and record the decimated energy trace.

    The march steps the field modes that reach the damped cell (see
    ``_kernels.midpoint_march``).  They, and the initial field's coordinates
    along them, come from the frequencies and boundary weights of
    ``op.field_spectrum`` through ``_kernels.field_modes``, with no n x n
    array; the energy of the modes left out is the trace's
    ``uncoupled_energy``.  A field block that is not self-adjoint in the h
    inner product raises NumericalError.  The trace contains E, the
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
        spectrum = op.field_spectrum
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"field eigenvalues failed: {exc}") from exc
    b = op.boundary_index
    h = op.xgrid.h
    ell, s, alpha0, remainder = _kernels.field_modes(
        op.l_diag, spectrum.off, b, spectrum.ell, spectrum.weight, np.sqrt(h) * y0.y
    )
    e_out, d_out, s_out, _ = _kernels.midpoint_march(
        ell, s, h[b], op.zeta, op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2,
        alpha0, y0.psi, 0.5 * remainder, float(dt), n_steps, steps,
    )
    flux = op.flux_sign * 1j * op.zeta * s_out
    return EnergyTrace(t=steps * dt, E=e_out, D=d_out, flux=flux,
                       coupled_modes=int(ell.size), uncoupled_energy=0.5 * remainder)


# ---------------------------------------------------------------------------
# initial-state preparation
# ---------------------------------------------------------------------------


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
    try:
        vals, vl, vr = sla.eig(op.weighted_dense(), left=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
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


def _mode_vector(op: SystemOperator, lam: complex) -> StateVector:
    """Eigenvector of A for its eigenvalue lam, from O(n + m) work.

    In the symmetrized field coordinates u = h^{1/2} y an eigenpair obeys
    (lam - iT) u = -G(lam) u_b e_b, with G the relaxation sum of
    ``resolvent._Characteristic``, and psi_k = eta_k y_b / (lam + xi_k^2).
    So u is proportional to (lam - iT)^{-1} e_b.  That solve is singular to
    working precision when lam sits within rounding of a field frequency
    i ell_k of small boundary weight, so u is split along the unit
    eigenvector q_k of the nearest frequency (inverse iteration; its
    boundary entry s = q_k[b] is resolved even where ``field_spectrum``
    reads weight 0): u = q_k - G s r / (1 + G r_b), with r = (lam - iT)^{-1}
    (e_b - s q_k) taken off q_k, one complex tridiagonal solve.  Within
    _NUDGE of i ell_k that solve is made that far from it along the real
    axis, which moves r by about _NUDGE over the gap to the other frequencies.
    """
    spectrum = op.field_spectrum
    b = op.boundary_index
    k = int(np.argmin(np.abs(lam - 1j * spectrum.ell)))
    q = _field_eigenvector(op.l_diag, spectrum.off, spectrum.ell[k], b)
    s = q[b]
    rhs = -s * q.astype(np.complex128)
    rhs[b] += 1.0
    nudge = _NUDGE * max(np.abs(spectrum.ell).max(), 1.0)
    shift = lam if abs(lam - 1j * spectrum.ell[k]) > nudge else 1j * spectrum.ell[k] + nudge
    off = -1j * spectrum.off
    try:
        _kernels.TridiagFactor(off, shift - 1j * op.l_diag, off).solve_in_place(rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"eigenvector solve failed: {exc}", {"eigenvalue": lam}) from exc
    r = rhs - np.dot(q, rhs) * q
    xi2 = op.xigrid.xi**2
    g = op.zeta / op.xgrid.h[b] * np.dot(op.xigrid.w * op.xigrid.eta**2, 1.0 / (lam + xi2))
    u = q - (g * s / (1.0 + g * r[b])) * r
    y = u / np.sqrt(op.xgrid.h)
    return StateVector(y=y, psi=op.xigrid.eta * y[b] / (lam + xi2))


def _lowest_mode(op: SystemOperator, report: Optional[dict] = None) -> StateVector:
    """Slowest-decaying resolved eigenmode: the largest Re lambda among the
    eigenvalues of modulus above _RESOLVED_EIGENVALUE.

    The eigenvalues come from the secular census
    (``resolvent.damped_eigenvalues``), which resolves real parts far below
    eps |lambda|: a field mode of weight 0 has Re lambda = 0 exactly, a
    coupled root Re lambda < 0.  Values within 64 eps of the largest real
    part, relative to it, are tied, and the tie goes to the smallest
    |lambda|.  On variant P the largest real part is the 0 of the field
    modes of weight 0, so the mode is the one of them with the smallest
    frequency: its boundary weight is about 1e-17 at nx=400 and it does not
    feel the damping.  On P' every field mode is coupled and the mode is the
    relaxation root next to -xi_min^2, with |lambda| just above
    _RESOLVED_EIGENVALUE.  The eigenvector is built without a dense matrix
    (``_mode_vector``) and its eigen-residual checked.  If `report` is a
    dict, the mode's eigenvalue, boundary weight, field energy share and
    residual and the census counts and wall time are stored in it.
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
    mode = _mode_vector(op, lam)
    resid = _mode_residual(op, mode, lam)
    if resid > 1e-6:
        raise NumericalError(
            f"eigenmode residual {resid:.3e} too large", {"eigenvalue": lam}
        )
    if report is not None:
        field = StateVector(y=mode.y, psi=np.zeros_like(mode.psi))
        b = op.boundary_index
        report.update({
            "eigenvalue": [lam.real, lam.imag],
            "boundary_weight": 0.5 * op.xgrid.h[b] * abs(mode.y[b]) ** 2 / energy(field, op),
            "field_energy_share": energy(field, op) / energy(mode, op),
            "residual": resid,
            "census": {"found": int(np.count_nonzero(census.converged[-census.expected:])),
                       "expected": census.expected, "unconverged": census.unconverged,
                       "recovered": census.recovered,
                       "max_newton_iterations": int(census.iterations.max())},
            "census_s": census_s,
        })
    return mode


def _mode_residual(op: SystemOperator, state: StateVector, lam: complex) -> float:
    from .model import weighted_norm

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
    projected off the modes with |eigenvalue| < _RESOLVED_EIGENVALUE, which
    a damped operator does not have at the default grids (the guard's
    lambda=0 solve reads sigma_min(A) above the threshold and the projection
    is skipped).  The lowest-mode preset returns the resolved eigenmode with
    the largest Re lambda, ties at rounding going to the smallest |lambda|
    (see ``_lowest_mode``).  If `report` is a dict, what the preparation
    measured is stored in it: for the bump sigma_min(A) and whether the
    projection ran, for the lowest mode what ``_lowest_mode`` reports.
    """
    preset = InitialPreset(preset)
    if preset is InitialPreset.LOWEST_MODE:
        state = _lowest_mode(op, report)
    else:
        x = op.xgrid.x
        y = (x**2 * (1.0 - x) ** 2).astype(complex)
        state = StateVector(y=y, psi=np.zeros(op.xigrid.xi.size, dtype=complex))
        sigma = smallest_singular_value(op)
        if sigma < _RESOLVED_EIGENVALUE:
            state = project_out_near_kernel(op, state)
        if report is not None:
            report.update({"sigma_min": sigma, "projected": bool(sigma < _RESOLVED_EIGENVALUE)})
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
