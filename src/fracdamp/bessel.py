"""Closed-form resolvent solution of variant P for the power-law coefficient
kappa = x^alpha, the oracle of ``oracle-compare``.

The resolvent ODE -lambda*y + (x^alpha y_x)_x = i f1 transforms to Bessel
form; its fundamental pair is

    theta_pm(x) = x^((1-alpha)/2) * J_{+-nu}( (2/(2-alpha)) mu x^((2-alpha)/2) )

with mu = i*sqrt(lambda) and nu = (1-alpha)/(2-alpha).  Everything here is
evaluated by the defining power series (the oracle is a near-zero
instrument, |z| <= 20), giving an implementation fully independent of the
finite-volume solver it validates.  Its Gamma values come from
scipy's Gamma ufunc, loaded by file path on the first call
(``_kernels._load_scipy_extension``), not from the ``scipy.special``
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import NearSingularError, ParameterError
from .model import nu_of_alpha

_Z_MAX = 20.0
_SERIES_TOL = 1e-17
_SERIES_CAP = 200


def lambda_max(alpha: float) -> float:
    """The largest lambda the oracle holds at: the series argument
    |z| = (2/(2-alpha)) sqrt(lambda) x^((2-alpha)/2) is largest at x = 1 and
    must stay <= _Z_MAX."""
    return (_Z_MAX * (2.0 - alpha) / 2.0) ** 2


def _gamma(x):
    """scipy's Gamma ufunc (``scipy.special.gamma``), from its extension
    ``scipy.special._special_ufuncs`` loaded at first use: only this oracle
    needs it, and the ``scipy.special`` package would cost about 23 MB and
    0.25 s."""
    from ._kernels import _load_scipy_extension

    return _load_scipy_extension("special", "_special_ufuncs").gamma(x)


def leading_coefficients(nu: float):
    """Small-argument series prefactors c+ = 2^-nu/Gamma(1+nu), c- = 2^nu/Gamma(1-nu)."""
    return 2.0 ** (-nu) / _gamma(1.0 + nu), 2.0**nu / _gamma(1.0 - nu)


def bessel_j(nu: float, z):
    """First-kind Bessel function by power series, principal branch of (z/2)^nu.

    Valid for nu > -1 and |z| <= 20; terms are added until they fall below
    _SERIES_TOL relative to the running sum (at most _SERIES_CAP terms).
    """
    if nu <= -1.0:
        raise ParameterError(f"series evaluation requires nu > -1, got nu={nu}")
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(np.abs(z) > _Z_MAX):
        raise ParameterError(
            f"|z| must be <= {_Z_MAX} (near-zero oracle range), got max |z|="
            f"{np.abs(z).max():.3g}"
        )
    q = -0.25 * z * z
    term = np.full(z.shape, 1.0 / _gamma(nu + 1.0), dtype=np.complex128)
    total = term.copy()
    for m in range(1, _SERIES_CAP + 1):
        term = term * q / (m * (nu + m))
        total += term
        if np.all(np.abs(term) <= _SERIES_TOL * np.abs(total)):
            break
    out = np.empty_like(total)
    nz = z != 0
    out[nz] = np.exp(nu * np.log(z[nz] / 2.0)) * total[nz]
    if np.any(~nz):
        if nu > 0:
            out[~nz] = 0.0
        elif nu == 0:
            out[~nz] = 1.0
        else:
            out[~nz] = np.inf
    return out[0] if scalar else out


def _nu_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got alpha={alpha}")
    return nu_of_alpha(alpha)


def theta_pm(x, mu: complex, alpha: float):
    """The fundamental pair theta_+ (vanishing at 0) and theta_- (finite at 0)."""
    nu = _nu_alpha(alpha)
    x = np.asarray(x, dtype=float)
    arg = (2.0 / (2.0 - alpha)) * mu * x ** ((2.0 - alpha) / 2.0)
    amp = x ** ((1.0 - alpha) / 2.0)
    return amp * bessel_j(nu, arg), amp * bessel_j(-nu, arg)


def theta_prime(x, mu: complex, alpha: float):
    """Closed-form derivatives (theta_+', theta_-') at arbitrary points.

    theta_+' = (1-alpha) x^(-(1+alpha)/2) J_nu(z) - mu x^((1-2 alpha)/2) J_{nu+1}(z)
    and theta_-' = -mu x^((1-2 alpha)/2) J_{1-nu}(z) with z the transformed
    argument; the J_{-nu} amplitude term cancels identically.
    """
    nu = _nu_alpha(alpha)
    x = np.asarray(x, dtype=float)
    z = (2.0 / (2.0 - alpha)) * mu * x ** ((2.0 - alpha) / 2.0)
    tp = (1.0 - alpha) * x ** (-(1.0 + alpha) / 2.0) * bessel_j(nu, z) - mu * x ** (
        (1.0 - 2.0 * alpha) / 2.0
    ) * bessel_j(nu + 1.0, z)
    tm = -mu * x ** ((1.0 - 2.0 * alpha) / 2.0) * bessel_j(1.0 - nu, z)
    return tp, tm


def theta_prime_at_one(mu: complex, alpha: float):
    """(theta_+'(1), theta_-'(1)) in closed form."""
    tp, tm = theta_prime(1.0, mu, alpha)
    return complex(tp), complex(tm)


@dataclass(frozen=True)
class AnalyticResolvent:
    """Closed-form resolvent solution sampled on a spatial grid: y, and the
    coefficients y = A theta_+ + B theta_- (plus the particular part) with
    the connection determinant D at mu = i sqrt(lambda)."""

    mu: complex
    A: complex
    B: complex
    D: complex
    alpha: float
    y: np.ndarray


def _vp_prefactor(alpha: float) -> float:
    nu = _nu_alpha(alpha)
    return (math.pi / (2.0 * math.sin(nu * math.pi))) * (2.0 / (2.0 - alpha))


def _cumtrapz(f, x):
    out = np.zeros_like(f, dtype=np.complex128)
    out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))
    return out


def _variation_terms(x, f1, mu, alpha):
    """Cumulative integrals I_pm(x) = int_0^x i f1 theta_pm dX (trapezoid on x)."""
    tp, tm = theta_pm(x, mu, alpha)
    i_plus = _cumtrapz(1j * f1 * tp, x)
    i_minus = _cumtrapz(1j * f1 * tm, x)
    return tp, tm, i_plus, i_minus


def _check_determinant(d, scale):
    if not np.isfinite(d) or abs(d) < 1e-14 * max(1.0, scale):
        raise NearSingularError(
            f"connection determinant |D|={abs(d):.3e} is numerically singular",
            {"D": d},
        )


def analytic_resolvent_P(
    lam: float,
    x,
    f1,
    C: complex,
    alpha: float,
    beta: float,
    rho: float,
) -> AnalyticResolvent:
    """Resolvent solution for damping at the degenerate end.

    Boundary data: weighted flux at 0 equals -i rho (i lam)^(beta-1) y(0) + C
    and y'(1) = 0.  C is the mode-forcing integral, computed externally by
    the relaxation-mode quadrature.  f1 is sampled on x; the inhomogeneous
    term uses trapezoid quadrature on that grid.
    """
    nu = _nu_alpha(alpha)
    if not 0.0 < lam < math.inf:  # written so that nan fails it
        raise ParameterError(f"lambda must be finite and positive, got lambda={lam}")
    mu = 1j * math.sqrt(lam)
    x = np.asarray(x, dtype=float)
    f1 = np.zeros_like(x, dtype=np.complex128) if f1 is None else np.asarray(f1, dtype=np.complex128)
    il_pow = np.exp((beta - 1.0) * np.log(1j * lam))  # principal branch
    c_plus, c_minus = leading_coefficients(nu)
    scale = (2.0 / (2.0 - alpha)) * mu
    d_plus = c_plus * scale**nu
    d_minus = c_minus * scale ** (-nu)
    dtp1, dtm1 = theta_prime_at_one(mu, alpha)  # theta_+'(1), theta_-'(1)

    pref = _vp_prefactor(alpha)
    tp, tm, i_plus, i_minus = _variation_terms(x, f1, mu, alpha)
    c_tilde = pref * (i_plus[-1] * dtm1 - dtp1 * i_minus[-1])

    term_a = (1.0 - alpha) * d_plus * dtm1
    term_b = 1j * rho * dtp1 * il_pow * d_minus
    d_det = term_a - term_b
    _check_determinant(d_det, max(abs(term_a), abs(term_b)))

    a_coef = (dtm1 * C - 1j * rho * il_pow * d_minus * c_tilde) / d_det
    b_coef = (-dtp1 * C + (1.0 - alpha) * d_plus * c_tilde) / d_det

    y = a_coef * tp + b_coef * tm - pref * (i_plus * tm - tp * i_minus)
    return AnalyticResolvent(mu=complex(mu), A=complex(a_coef), B=complex(b_coef),
                             D=complex(d_det), alpha=float(alpha), y=y)

