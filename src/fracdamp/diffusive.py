"""Relaxation-mode quadrature realizing the singular damping kernel.

The memory kernel rho*tau**(-beta)/Gamma(1-beta), untempered, is written
exactly as zeta * integral of |xi|**(2*beta-1) * exp(-xi^2*tau) over the
real xi axis, which turns the convolution damping into local-in-time
relaxation modes psi(xi,t).  This module builds the xi quadrature, checks it
against the closed-form kernel, and provides a direct convolution oracle and
the forced modes, whose flux is the same convolution with the quadrature
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._csv import write_csv
from .errors import GridError, ParameterError
from .model import _freeze, derive_constants

#: Safety factors defining where the default quadrature reproduces the kernel
#: to about 1e-4 relative: tau in [_TAU_LO_FACTOR/xi_max^2, _TAU_HI_FACTOR/xi_min^2].
_TAU_LO_FACTOR = 20.0
_TAU_HI_FACTOR = 5e-4


@dataclass(frozen=True)
class XiGrid:
    """Half-axis log-spaced relaxation nodes with doubled even-integrand weights."""

    xi: np.ndarray
    w: np.ndarray
    eta: np.ndarray
    beta: float
    xi_min: float
    xi_max: float

    def __post_init__(self):
        _freeze(self, ("xi", "w", "eta"))
        if np.any(self.w <= 0) or np.any(self.eta <= 0):
            raise ParameterError("xi-grid weights and eta must be strictly positive")

    @property
    def resolved_tau_window(self):
        """(tau_lo, tau_hi) where kernel_value tracks the closed form to ~1e-4."""
        return (_TAU_LO_FACTOR / self.xi_max**2, _TAU_HI_FACTOR / self.xi_min**2)


def build_xi_quadrature(
    beta: float, n_xi: int = 200, xi_min: float = 1e-4, xi_max: float = 1e4
) -> XiGrid:
    """Log-trapezoid quadrature for even integrands of the form eta(xi)^2*g(xi^2).

    Nodes are log-spaced on [xi_min, xi_max]; weights carry the log-space
    Jacobian, are doubled (both half-axes), and the first weight absorbs the
    analytically integrated power-law tail below xi_min.  Without that tail
    mass the kernel misses O((xi_min^2*tau)^beta) relative for beta < 1/2.
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0,1), got beta={beta}")
    if n_xi < 16:
        raise ParameterError(f"n_xi must be >= 16, got n_xi={n_xi}")
    if not (0.0 < xi_min < xi_max):
        raise ParameterError(
            f"require 0 < xi_min < xi_max, got xi_min={xi_min}, xi_max={xi_max}"
        )
    u = np.linspace(math.log(xi_min), math.log(xi_max), int(n_xi))
    xi = np.exp(u)
    du = u[1] - u[0]
    trap = np.full(n_xi, du)
    trap[0] = trap[-1] = 0.5 * du
    w = 2.0 * trap * xi
    w = w.copy()
    w[0] += xi_min / beta  # tail: 2*int_0^xi_min xi^(2b-1) dxi / eta(xi_min)^2
    eta = xi ** ((2.0 * beta - 1.0) / 2.0)
    return XiGrid(xi=xi, w=w, eta=eta, beta=beta, xi_min=float(xi_min), xi_max=float(xi_max))


def kernel_value(grid: XiGrid, tau: float, rho: float) -> float:
    """Quadrature value zeta * sum w_k eta_k^2 exp(-xi_k^2 tau)."""
    if not 0.0 < tau < math.inf:  # false for nan
        raise ParameterError(f"tau must be finite and positive, got tau={tau}")
    zeta = derive_constants(grid.beta, rho)
    return float(zeta * np.dot(grid.w * grid.eta**2, np.exp(-grid.xi**2 * tau)))


def kernel_exact(tau, beta: float, rho: float):
    """Closed form rho * tau^(-beta) / Gamma(1-beta)."""
    tau = np.asarray(tau, dtype=float)
    return rho * tau ** (-beta) / math.gamma(1.0 - beta)


@dataclass(frozen=True)
class KernelCheck:
    """Pointwise comparison of the quadrature kernel with its closed form.

    Rows outside the grid's resolved tau window are excluded from
    `max_rel_error`.
    """

    tau: np.ndarray
    quadrature_value: np.ndarray
    exact_value: np.ndarray
    rel_error: np.ndarray
    max_rel_error: float

    def to_csv(self, path) -> None:
        write_csv(path, ["tau", "quadrature", "exact", "rel_error"],
                  [self.tau, self.quadrature_value, self.exact_value, self.rel_error])


def kernel_check(grid: XiGrid, rho: float, taus) -> KernelCheck:
    """The kernel at every tau, and its largest relative error over the taus
    in the grid's resolved window; an empty window, or no tau in it, raises
    ParameterError before any quadrature is evaluated."""
    taus = np.asarray(taus, dtype=float)
    lo, hi = grid.resolved_tau_window
    if lo >= hi:
        raise ParameterError(
            f"the xi range xi_min={grid.xi_min:g}, xi_max={grid.xi_max:g} resolves no tau "
            f"({_TAU_LO_FACTOR:g}/xi_max^2 >= {_TAU_HI_FACTOR:g}/xi_min^2)"
        )
    mask = (taus >= lo) & (taus <= hi)
    if not mask.any():
        raise ParameterError(
            f"no tau lies in the quadrature's resolved window [{lo:.3g}, {hi:.3g}], "
            "so nothing would be checked"
        )
    quad = np.array([kernel_value(grid, t, rho) for t in taus])
    exact = kernel_exact(taus, grid.beta, rho)
    rel = np.abs(quad - exact) / np.abs(exact)
    return KernelCheck(tau=taus, quadrature_value=quad, exact_value=exact,
                       rel_error=rel, max_rel_error=float(rel[mask].max()))


def direct_fractional_integral(w, t_grid, beta: float) -> np.ndarray:
    """Convolution oracle: (1/Gamma(1-beta)) int_0^t (t-s)^-beta w(s) ds.

    Product-rectangle rule: w is piecewise constant per cell (cell value =
    mean of the endpoint samples) and the singular kernel is integrated
    exactly over every cell.  Requires a uniform time grid.
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0,1), got beta={beta}")
    w = np.asarray(w, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size != w.size or t.size < 2:
        raise GridError("w and t_grid must be matching 1-d arrays with >= 2 entries")
    dt = t[1] - t[0]
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-8, atol=1e-12):
        raise GridError("direct_fractional_integral requires a uniform time grid")
    n = t.size - 1
    m = np.arange(1, n + 1, dtype=float)
    lag = dt ** (1.0 - beta) * (m ** (1.0 - beta) - (m - 1.0) ** (1.0 - beta))
    lag /= math.gamma(2.0 - beta)
    w_avg = 0.5 * (w[:-1] + w[1:])
    return _kernels.frac_conv(w_avg, lag)


def evolve_psi_forced(grid: XiGrid, boundary_signal, dt: float):
    """Drive the relaxation modes with a real boundary signal, mode-exactly per step.

    Each mode obeys psi_k' = -xi_k^2 psi_k + eta_k s(t) from psi_k(0)=0 under
    the exponential integrator, the signal held at its per-step mean s_avg.
    Returns (psi_final, flux): the modes at the last sample and, at every
    sample, flux(t) = zeta sum w_k eta_k psi_k(t), with zeta the weight at
    rho = 1 (the kernel tau^(-beta)/Gamma(1-beta)).  That flux is the causal
    product-rectangle convolution of s_avg with the quadrature kernel's cell
    integrals K[m] = zeta sum_k w_k eta_k^2 exp(-xi_k^2 m dt) g_k,
    g_k = (1 - exp(-xi_k^2 dt))/xi_k^2, so it goes through the same FFT
    product as ``direct_fractional_integral``; the final modes are
    psi_k = g_k eta_k sum_j exp(-xi_k^2 (n-1-j) dt) s_avg[j].

    Over the n = len(s_avg) lags j = aB + b, B = ceil(sqrt(n)), the decay
    factors as exp(-xi_k^2 aB dt) exp(-xi_k^2 b dt): a coarse m x ceil(n/B)
    and a fine m x B table, m (B + n/B) exponentials in place of m n.  The
    kernel is then one product of the two tables, and the final modes one
    product of the fine table with the reversed signal laid out as
    ceil(n/B) x B rows; the work arrays are O(m sqrt(n) + n).
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got dt={dt}")
    if np.iscomplexobj(boundary_signal):
        raise ParameterError("boundary_signal must be real")
    s = np.asarray(boundary_signal, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise GridError("boundary_signal must be a 1-d series with >= 2 samples")
    zeta = derive_constants(grid.beta, 1.0)
    s_avg = 0.5 * (s[:-1] + s[1:])
    n = s_avg.size
    fine_len = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    coarse_len = -(-n // fine_len)
    xi2 = grid.xi**2
    gain = -np.expm1(-xi2 * dt) / xi2  # expm1 avoids cancellation for tiny xi^2*dt
    fine = np.exp(np.outer(-xi2, dt * np.arange(fine_len)))  # exp(-xi_k^2 b dt)
    coarse = np.exp(np.outer(-xi2, dt * fine_len * np.arange(coarse_len)))  # exp(-xi_k^2 aB dt)
    # s_rev[aB + b], the reversed signal zero-padded to coarse_len rows of fine_len
    s_rev = np.zeros(coarse_len * fine_len)
    s_rev[:n] = s_avg[::-1]
    partial = fine @ s_rev.reshape(coarse_len, fine_len).T  # (m, coarse_len)
    psi = gain * grid.eta * np.einsum("ka,ka->k", coarse, partial)
    coarse *= (zeta * grid.w * grid.eta**2 * gain)[:, None]
    kernel = (coarse.T @ fine).ravel()[:n]  # K[aB + b]
    del fine, coarse, partial, s_rev  # the FFT's arrays set the peak memory
    return psi, _kernels.frac_conv(s_avg, kernel)
