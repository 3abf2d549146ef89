"""Resolvent-norm estimation, power-law fits and decay-rate translation.

The norm ||(i*lam - A)^{-1}|| in the weighted geometry is 1/sigma_min of the
weighted similarity of (i*lam - A).  sigma_min comes from a Lanczos
iteration on the inverse normal operator, each step being two banded solves
through the Schur complement onto the field block (the relaxation block is
diagonal, so its elimination adds a single complex impedance entry at the
damped cell -- the discrete counterpart of the rho*(i*lam)^(beta-1)
boundary impedance).  Each solve fills one fresh output buffer, and the
Lanczos iteration overwrites the vector its matvec returns.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from . import bessel
from ._kernels import TridiagFactor
from .errors import (
    ConfigurationError,
    FitDataError,
    ParameterError,
    SpectralCollisionError,
)
from .model import ProblemSpec, Variant, nu_of_alpha
from .operator import SystemOperator


class ScanRegime(str, enum.Enum):
    NEAR_ZERO = "near_zero"
    HIGH_FREQUENCY = "high_frequency"


@dataclass(frozen=True)
class ScanFit:
    exponent: float
    r_squared: float
    window: Tuple[int, int]  # inclusive index range of the fitted sub-window


@dataclass(frozen=True)
class ResolventScan:
    lam: np.ndarray
    norm: np.ndarray
    regime: ScanRegime
    fit: ScanFit

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "norm"])
            for lam, nrm in zip(self.lam, self.norm):
                writer.writerow([format(lam, ".17g"), format(nrm, ".17g")])


@dataclass(frozen=True)
class ExponentPrediction:
    """Theoretical low/high-frequency exponents and the induced decay rate."""

    theta: float
    upsilon: float
    varsigma: float
    decay_exponent: float
    upsilon_provenance: str


# ---------------------------------------------------------------------------
# factorized shifted systems
# ---------------------------------------------------------------------------


class _ShiftedSystem:
    """Solves with M = i*lam - A and its conjugate transpose.

    The relaxation rows are eliminated exactly; what remains is the field
    tridiagonal with the boundary impedance zeta/h_b * sum w eta^2/(i lam + xi^2)
    added at the damped cell.  Both solves leave their input unchanged and
    return a fresh array; the field part is solved in place in its leading
    n entries.
    """

    def __init__(self, op: SystemOperator, lam: float):
        if op.zeta <= 0.0:
            raise ConfigurationError("resolvent analysis requires a damped operator (zeta > 0)")
        self.op = op
        self.lam = float(lam)
        self.n = op.xgrid.x.size
        self.b = op.boundary_index
        xi2 = op.xigrid.xi**2
        denom = 1j * lam + xi2
        if np.any(np.abs(denom) == 0.0):
            raise SpectralCollisionError(lam, complex(-xi2[np.argmin(np.abs(denom))]))
        eta = op.xigrid.eta
        weta = op.xigrid.w * eta
        fold = op.zeta / op.xgrid.h[self.b]
        g = fold * np.dot(weta * eta, 1.0 / denom)
        # per-shift constants of the elimination, so a solve is one zgttrs,
        # one dot product and three in-place vector operations
        self._inv_denom = 1.0 / denom
        self._inv_denom_conj = np.conj(self._inv_denom)
        self._fold_weta = fold * weta
        self._couple = self._fold_weta * self._inv_denom
        self._couple_adj = eta * self._inv_denom_conj
        self._eta = eta

        dl = -1j * op.l_sub
        du = -1j * op.l_sup
        d = (1j * lam - 1j * op.l_diag).astype(np.complex128)
        d[self.b] += g
        try:
            self._fwd = TridiagFactor(dl, d, du)
            self._adj = TridiagFactor(np.conj(du), np.conj(d), np.conj(dl))
        except np.linalg.LinAlgError as exc:
            raise SpectralCollisionError(lam, 1j * lam, str(exc)) from exc

    @property
    def weights(self) -> np.ndarray:
        return self.op.weights

    def solve(self, f):
        """z with (i lam - A) z = f, f stacked as (f_y ; f_psi)."""
        n, b = self.n, self.b
        fp = f[n:]
        z = np.empty(f.shape, dtype=np.complex128)
        zy, zp = z[:n], z[n:]
        zy[...] = f[:n]
        zy[b] -= np.dot(self._couple, fp)
        self._fwd.solve_in_place(zy)
        np.multiply(self._eta, zy[b], out=zp)
        zp += fp
        zp *= self._inv_denom
        return z

    def solve_adjoint(self, f):
        """z with (i lam - A)^H z = f."""
        n, b = self.n, self.b
        fp = f[n:]
        z = np.empty(f.shape, dtype=np.complex128)
        zy, zp = z[:n], z[n:]
        zy[...] = f[:n]
        zy[b] += np.dot(self._couple_adj, fp)
        self._adj.solve_in_place(zy)
        np.multiply(self._fold_weta, -zy[b], out=zp)
        zp += fp
        zp *= self._inv_denom_conj
        return z


def _shifted_system(op, lam: float):
    # any object with a shifted_system(lam) method (solve, solve_adjoint and
    # weights) can stand in for an assembled operator
    if isinstance(op, SystemOperator):
        return _ShiftedSystem(op, lam)
    if hasattr(op, "shifted_system"):
        return op.shifted_system(lam)
    raise ConfigurationError(f"cannot build a resolvent system for {type(op).__name__}")


def resolvent_norm(
    op,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 200,
    seed: int = 0,
) -> float:
    """||(i lam - A)^{-1}|| in the weighted operator norm.

    Lanczos iteration on the inverse normal operator with relative value
    tolerance `tol` and step cap `max_iter`; on stagnation the iteration
    restarts once from a fresh random vector, and if that stagnates too the
    larger of the two final Ritz values (both lower bounds) is returned.
    Raises SpectralCollisionError when the shift is numerically an
    eigenvalue.

    The iteration overwrites the vector each matvec returns, so the shifted
    system's solve and solve_adjoint must return a fresh array.
    """
    sys_ = _shifted_system(op, lam)
    # complex copies, so the scalings below multiply without a dtype cast
    sw = np.sqrt(sys_.weights).astype(np.complex128)
    inv_w = (1.0 / sys_.weights).astype(np.complex128)
    rng = np.random.default_rng(seed)
    dim = sw.size

    def _normal_inverse_matvec(v):
        # sw * M^{-1} W^{-1} M^{-H} (sw * v): the weighted-adjoint inverse,
        # then the weighted inverse, scaled in place on the solves' outputs
        u = sys_.solve_adjoint(sw * v)
        u *= inv_w
        z = sys_.solve(u)
        z *= sw
        return z

    def _blow_up():
        return SpectralCollisionError(lam, 1j * lam, "resolvent blow-up in iteration")

    # a solve that blows up to inf makes the complex scalings compute inf*0;
    # the finiteness checks report that as a collision, so numpy's own
    # warnings are silenced, once per shift rather than per matvec
    with np.errstate(invalid="ignore", over="ignore"):
        if dim == 1:
            z = _normal_inverse_matvec(np.ones(1))
            if not np.isfinite(z[0]):
                raise _blow_up()
            return float(np.abs(z[0])) ** 0.5

        # Lanczos on the Hermitian inverse normal operator, driven by the
        # factorized Schur-complement solves.  The top Ritz VALUE is wanted, not
        # a vector, so value stabilization is the stopping criterion -- a plain
        # power iteration stalls on the quasi-continuum of near-minimal singular
        # values, the Krylov value does not.
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v0 /= np.linalg.norm(v0)
        try:
            theta, converged = _lanczos_top_value(_normal_inverse_matvec, v0, tol, max_iter)
            if not converged:
                # stagnation: restart once from a fresh vector, keep the best value
                v1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                v1 /= np.linalg.norm(v1)
                t2, converged = _lanczos_top_value(_normal_inverse_matvec, v1, tol, max_iter)
                theta = t2 if converged else max(theta, t2)
        except FloatingPointError as exc:
            raise _blow_up() from exc
    if not np.isfinite(theta) or theta <= 0.0:
        raise SpectralCollisionError(lam, 1j * lam, "non-finite resolvent estimate")
    return math.sqrt(theta)


def _lanczos_top_value(matvec, v0, tol, max_steps):
    """Largest eigenvalue of a Hermitian PSD operator by Lanczos.

    Full reorthogonalization; stops when the top Ritz value is stable to
    `tol` relative over two consecutive Krylov dimensions.  Returns the last
    top Ritz value (a lower bound, 0.0 if no step ran) and whether it
    converged; False means the run stagnated at `max_steps`.  Raises
    FloatingPointError when a matvec result is not finite, which shows in
    the diagonal entry alpha_k = Re q_k^H w.

    The iteration owns, and overwrites, the vector each matvec returns.
    Each step costs one matvec, two axpy (the three-term update), two gemv
    (the reorthogonalization against the column-major basis, Q^H w and
    w - Q c, on views without copies), one nrm2 and one dstebz bisection
    for the top Ritz value alone.
    """
    dim = v0.size
    max_steps = min(max_steps, dim)
    # every column is written before it is read
    q = np.empty((dim, max_steps + 1), dtype=np.complex128, order="F")
    q[:, 0] = v0
    alphas = np.empty(max_steps)
    betas = np.empty(max_steps)
    theta_prev = None
    hits = 0
    theta = 0.0
    for k in range(max_steps):
        qk = q[:, k]
        w = matvec(qk)
        a = np.vdot(qk, w).real
        if not math.isfinite(a):
            raise FloatingPointError("non-finite matvec result")
        alphas[k] = a
        w = _blas.zaxpy(qk, w, a=-a)
        if k:
            w = _blas.zaxpy(q[:, k - 1], w, a=-betas[k - 1])
        # full reorthogonalization keeps the basis usable past convergence
        basis = q[:, : k + 1]
        coeff = _blas.zgemv(1.0, basis, w, trans=2)
        w = _blas.zgemv(-1.0, basis, coeff, beta=1.0, y=w, overwrite_y=True)
        b = _blas.dznrm2(w)
        if k == 0:
            theta = a
        else:
            # range 2 = by index; LAPACK indices are 1-based
            m, ritz, _, _, info = _lapack.dstebz(
                alphas[: k + 1], betas[:k], 2, 0.0, 0.0, k + 1, k + 1, 0.0, "E"
            )
            if info != 0 or m != 1:
                raise np.linalg.LinAlgError(f"dstebz failed with info={info}, m={m}")
            theta = float(ritz[0])
        if theta_prev is not None and abs(theta - theta_prev) <= tol * max(abs(theta), 1e-300):
            hits += 1
            if hits >= 2:
                return theta, True
        else:
            hits = 0
        theta_prev = theta
        if b <= 1e-14 * max(abs(a), 1.0):
            return theta, True  # invariant subspace exhausted
        betas[k] = b
        np.divide(w, b, out=q[:, k + 1])
    return theta, False


def smallest_singular_value(op, lam: float = 0.0) -> float:
    """sigma_min(i lam - A) in the weighted geometry (1/resolvent norm)."""
    try:
        return 1.0 / resolvent_norm(op, lam)
    except SpectralCollisionError:
        return 0.0


def solve_resolvent(op: SystemOperator, lam: float, f_y, f_psi):
    """Solve (i lam - A) Y = F, returning the state (y, psi) components."""
    from .model import StateVector

    sys_ = _ShiftedSystem(op, lam)
    f = np.concatenate(
        (np.asarray(f_y, dtype=np.complex128), np.asarray(f_psi, dtype=np.complex128))
    )
    z = sys_.solve(f)
    return StateVector(y=z[: sys_.n], psi=z[sys_.n :])


def forcing_integral(op: SystemOperator, lam: float, f_psi) -> complex:
    """The mode-forcing boundary constant -i zeta sum w eta f_psi/(i lam + xi^2)."""
    xi2 = op.xigrid.xi**2
    return complex(
        -1j * op.zeta * np.dot(op.xigrid.w * op.xigrid.eta,
                               np.asarray(f_psi, complex) / (1j * lam + xi2))
    )


# ---------------------------------------------------------------------------
# scans and fits
# ---------------------------------------------------------------------------


def _fit_line(x, y):
    """Least-squares line y ~ slope*x + intercept: (slope, intercept, R^2).

    R^2 is 1 when y is constant: the flat line fits it exactly, whatever
    roundoff polyfit leaves in the residual.  Equal values are tested as
    such, because the rounded mean can leave ss_tot a few ulps above 0.
    """
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    flat = ss_tot == 0.0 or bool(np.all(y == y[0]))
    r2 = 1.0 if flat else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _stable_window_fit(logx, logy, min_points: int = 8, slope_band: float = 0.10):
    """Longest contiguous sub-window whose local slope varies < slope_band.

    The band is relative to the window-mean slope, with an absolute floor of
    0.1 slope units so that flat curves (norms saturating to a constant)
    still admit a window.  Ties break toward the smallest slope spread, then
    the leftmost window.  Returns (i0, i1, exponent, r_squared) inclusive.

    Lengths are searched longest-first, so the search stops at the first
    length that admits a window.
    """
    n = logx.size
    if n < min_points:
        raise FitDataError(f"need >= {min_points} scan points, got {n}")
    slopes = np.diff(logy) / np.diff(logx)
    for length in range(n, min_points - 1, -1):
        best = None
        for i in range(n - length + 1):
            sl = slopes[i : i + length - 1]
            m = sl.mean()
            if np.max(np.abs(sl - m)) < slope_band * max(abs(m), 0.1):
                spread = float(np.std(sl))
                if best is None or spread < best[0]:
                    best = (spread, i)
        if best is not None:
            i0, i1 = best[1], best[1] + length - 1
            slope, _, r2 = _fit_line(logx[i0 : i1 + 1], logy[i0 : i1 + 1])
            return i0, i1, slope, r2
    raise FitDataError(
        "fewer than 8 usable points: no sub-window with stable local slope"
    )


def scan_resolvent(op, lambdas, regime: Optional[ScanRegime] = None) -> ResolventScan:
    """Norms over a log-spaced |lambda| grid plus an automatic power-law fit.

    The fitted `exponent` is the log-log slope (so a 1/|lambda| blow-up reads
    as -1).  Lambda values may be negative (the operator is not symmetric in
    the sign); the grid must be sorted by |lambda| within one sign.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size < 2:
        raise ParameterError("lambdas must be a 1-d array with >= 2 entries")
    if regime is None:
        regime = (
            ScanRegime.NEAR_ZERO if np.max(np.abs(lambdas)) <= 1.0 else ScanRegime.HIGH_FREQUENCY
        )
    norms = np.array([resolvent_norm(op, lam) for lam in lambdas])
    i0, i1, slope, r2 = _stable_window_fit(np.log(np.abs(lambdas)), np.log(norms))
    return ResolventScan(
        lam=lambdas, norm=norms, regime=ScanRegime(regime),
        fit=ScanFit(exponent=slope, r_squared=r2, window=(i0, i1)),
    )


def theoretical_exponents(spec: ProblemSpec) -> ExponentPrediction:
    """Predicted resolvent exponents and the induced polynomial decay rate.

    theta and upsilon are exponents of upper estimates,
    ||(i lam - A)^{-1}|| = O(|lam|^-theta) as lam -> 0 and O(|lam|^upsilon)
    as |lam| -> inf; they are not claimed to be attained.  decay_exponent =
    2/varsigma is the guaranteed polynomial decay rate these bounds give
    (Borichev-Tomilov), and a guaranteed rate needs only the upper bounds.
    The power-law branch theta = 1 is the sharpened estimate; the
    general-coefficient theta = 2-beta is the cruder one and is not claimed
    sharp (a scan of kappa = x^1.5 reads the relaxation floor 1/|lam|).  For
    damping at the degenerate end the high-frequency value is only known
    from the exponentially tempered variant of the kernel, which the
    provenance string records.
    """
    beta = spec.beta
    if spec.variant is Variant.P:
        theta = 1.0
        alpha = spec.alpha
        upsilon = max(1.0, (4.0 - 3.0 * alpha) / (4.0 - 2.0 * alpha) - beta)
        provenance = (
            "high-frequency exponent quoted from the tempered-kernel (gamma>0) "
            "theory; not proven for gamma=0"
        )
    else:
        upsilon = 1.0 - beta
        # the sharpened power-law branch is established for alpha in (0,1)
        # (the transformed fundamental pair degenerates at alpha = 1); all
        # other coefficients get the general-coefficient exponent
        if spec.alpha is not None and spec.alpha < 1.0:
            theta = 1.0
            provenance = "power-law coefficient branch: theta=1, upsilon=1-beta"
        else:
            theta = 2.0 - beta
            provenance = "general-coefficient branch: theta=2-beta, upsilon=1-beta"
    varsigma = max(theta, upsilon)
    return ExponentPrediction(
        theta=float(theta), upsilon=float(upsilon), varsigma=float(varsigma),
        decay_exponent=float(2.0 / varsigma), upsilon_provenance=provenance,
    )


@dataclass(frozen=True)
class DeterminantFit:
    exponent: float
    intercept: float
    r_squared: float
    mu: np.ndarray
    values: np.ndarray


def verify_determinant_scaling(
    alpha: float,
    beta: float,
    rho: float,
    mu_grid,
    mode: str = "variant_p",
) -> DeterminantFit:
    """Fit log|D| against log|mu| on a small-|mu| grid.

    mode="variant_p" uses the two-constant connection determinant
    D = (1-alpha) d+ theta_-'(1) - i rho theta_+'(1) (i lam)^(beta-1) d-;
    mode="pprime_power" uses the single-equation bracket
    theta_+'(1) - i rho (i lam)^(beta-1) theta_+(1).
    Expected slopes: 2 beta - 2, resp. 2 beta + nu_alpha - 2.
    """
    mu_grid = np.asarray(mu_grid, dtype=np.complex128)
    if np.any(np.abs(mu_grid) > 0.1):
        raise ParameterError("determinant scaling is a small-|mu| check (|mu| <= 0.1)")
    nu = nu_of_alpha(alpha)
    c_plus, c_minus = bessel.leading_coefficients(nu)
    vals = np.empty(mu_grid.size, dtype=np.complex128)
    for k, mu in enumerate(mu_grid):
        lam = -(mu**2)
        il_pow = np.exp((beta - 1.0) * np.log(1j * lam))
        dtp1, dtm1 = bessel.theta_prime_at_one(mu, alpha)
        scale = (2.0 / (2.0 - alpha)) * mu
        if mode == "variant_p":
            d_plus = c_plus * scale**nu
            d_minus = c_minus * scale ** (-nu)
            vals[k] = (1.0 - alpha) * d_plus * dtm1 - 1j * rho * dtp1 * il_pow * d_minus
        elif mode == "pprime_power":
            tp1 = complex(bessel.theta_pm(1.0, mu, alpha)[0])
            vals[k] = dtp1 - 1j * rho * il_pow * tp1
        else:
            raise ParameterError(f"unknown determinant mode {mode!r}")
    slope, intercept, r2 = _fit_line(np.log(np.abs(mu_grid)), np.log(np.abs(vals)))
    return DeterminantFit(
        exponent=slope, intercept=intercept, r_squared=r2, mu=mu_grid, values=vals,
    )
