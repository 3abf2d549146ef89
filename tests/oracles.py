"""Closed-form steps of the paper's proofs, checked by the tests.

No command runs these: the connection-determinant and bracket scaling laws
(criterion 9), the profile-norm (Lommel) identities (criterion 10), the
closed-form resolvent for damping at x=1 and a log-spaced coefficient
sampler.  They are built on the Bessel series of ``fracdamp.bessel``, which
the ``oracle-compare`` command uses.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fracdamp.bessel import (
    AnalyticResolvent,
    _check_determinant,
    _nu_alpha,
    _Z_MAX,
    bessel_j,
    leading_coefficients,
    theta_pm,
    theta_prime,
)
from fracdamp.errors import ParameterError
from fracdamp.model import TabulatedKappa


def bessel_j_prime(nu: float, z):
    """d/dz J_nu via J_nu' = (nu/z) J_nu - J_{nu+1} (orders stay > -1)."""
    z = np.asarray(z, dtype=np.complex128)
    return (nu / z) * bessel_j(nu, z) - bessel_j(nu + 1.0, z)


# ---------------------------------------------------------------------------
# criterion 9: small-|mu| scaling of the connection determinants
# ---------------------------------------------------------------------------


class DeterminantFit(NamedTuple):
    """Least-squares line log|D| ~ exponent * log|mu| + intercept."""

    exponent: float
    intercept: float


def _il_pow(mu, beta):
    """(i lam)^(beta-1) on the principal branch, lam = -mu^2."""
    lam = -(mu**2)
    return np.exp((beta - 1.0) * np.log(1j * lam))


def _loglog_fit(mu_grid, determinant) -> DeterminantFit:
    mu_grid = np.asarray(mu_grid, dtype=np.complex128)
    if np.any(np.abs(mu_grid) > 0.1):
        raise ParameterError("determinant scaling is a small-|mu| check (|mu| <= 0.1)")
    values = np.array([determinant(mu) for mu in mu_grid])
    slope, intercept = np.polyfit(np.log(np.abs(mu_grid)), np.log(np.abs(values)), 1)
    return DeterminantFit(exponent=float(slope), intercept=float(intercept))


def determinant_scaling_p(alpha: float, beta: float, rho: float, mu_grid) -> DeterminantFit:
    """Fit of the two-constant connection determinant of damping at x=0,

    D = (1-alpha) d+ theta_-'(1) - i rho theta_+'(1) (i lam)^(beta-1) d-,
    on a small-|mu| grid; the expected slope is 2 beta - 2.
    """
    nu = _nu_alpha(alpha)
    c_plus, c_minus = leading_coefficients(nu)

    def determinant(mu):
        dtp1, dtm1 = theta_prime(1.0, mu, alpha)
        scale = (2.0 / (2.0 - alpha)) * mu
        d_plus, d_minus = c_plus * scale**nu, c_minus * scale ** (-nu)
        return (1.0 - alpha) * d_plus * dtm1 - 1j * rho * dtp1 * _il_pow(mu, beta) * d_minus

    return _loglog_fit(mu_grid, determinant)


def bracket_scaling_pprime(alpha: float, beta: float, rho: float, mu_grid) -> DeterminantFit:
    """Fit of the single-equation bracket of damping at x=1,

    theta_+'(1) - i rho (i lam)^(beta-1) theta_+(1), on a small-|mu| grid;
    the expected slope is 2 beta + nu_alpha - 2.
    """

    def bracket(mu):
        tp1 = complex(theta_pm(1.0, mu, alpha)[0])
        return theta_prime(1.0, mu, alpha)[0] - 1j * rho * _il_pow(mu, beta) * tp1

    return _loglog_fit(mu_grid, bracket)


# ---------------------------------------------------------------------------
# criterion 10: the profile norm of theta_+
# ---------------------------------------------------------------------------


def _lommel(nu: float, r) -> complex:
    """int_0^1 t * J_nu(r t)^2 dt = (1/(2 r^2)) [(r J_nu)^2 + (r J_{nu+1})^2 - 2 nu r J_nu J_{nu+1}]."""
    jn = bessel_j(nu, r)
    jn1 = bessel_j(nu + 1.0, r)
    return ((r * jn) ** 2 + (r * jn1) ** 2 - 2.0 * nu * r * jn * jn1) / (2.0 * r * r)


def theta_norm_sq(r: complex, alpha: float) -> complex:
    """Squared profile norm int_0^1 theta_+(x)^2 dx as a function of r = 2 mu/(2-alpha).

    Analytic in r (squares, not moduli); for real r it equals the L2 norm of
    theta_+.  r=0 is removable: the small-r form is
    (1/(2-alpha)) c_+^2 r^(2 nu) / (1 + nu).
    """
    nu = _nu_alpha(alpha)
    r = complex(r)
    if abs(r) > _Z_MAX:
        raise ParameterError(f"|r| must be <= {_Z_MAX}, got |r|={abs(r):.3g}")
    if r == 0:
        return 0.0 + 0.0j
    return (2.0 / (2.0 - alpha)) * _lommel(nu, r)


def theta_norm_sq_small_r(r: complex, alpha: float) -> complex:
    """Leading small-r asymptote of theta_norm_sq.

    Note the 1/(1+nu) factor: it follows from integrating the leading series
    term x^(2 nu + 1) term of t*J_nu(rt)^2 and is required for the asymptote
    to actually match the closed form.
    """
    nu = _nu_alpha(alpha)
    c_plus, _ = leading_coefficients(nu)
    r = complex(r)
    return (1.0 / (2.0 - alpha)) * c_plus**2 * r ** (2.0 * nu) / (1.0 + nu)


# ---------------------------------------------------------------------------
# closed-form resolvents
# ---------------------------------------------------------------------------


def eval_homogeneous(res: AnalyticResolvent, xq):
    """A*theta_+ + B*theta_- at arbitrary points."""
    tp, tm = theta_pm(xq, res.mu, res.alpha)
    return res.A * tp + res.B * tm


def analytic_case_Pprime_poweralpha(
    lam: float,
    x,
    C: complex,
    alpha: float,
    beta: float,
    rho: float,
) -> AnalyticResolvent:
    """Resolvent solution for damping at x=1 with kappa = x^alpha, alpha in (0,1).

    The Dirichlet condition at the degenerate end forces B = 0; one linear
    equation with bracket theta_+'(1) - i rho (i lam)^(beta-1) theta_+(1)
    determines A.  The bracket plays the role of the connection determinant.
    """
    _nu_alpha(alpha)  # alpha in (0, 1)
    if not 0.0 < lam < math.inf:  # written so that nan fails it
        raise ParameterError(f"lambda must be finite and positive, got lambda={lam}")
    mu = 1j * math.sqrt(lam)
    il_pow = np.exp((beta - 1.0) * np.log(1j * lam))
    tp1_prime = theta_prime(1.0, mu, alpha)[0]
    tp1 = complex(theta_pm(1.0, mu, alpha)[0])

    bracket = tp1_prime - 1j * rho * il_pow * tp1
    _check_determinant(bracket, max(abs(tp1_prime), abs(1j * rho * il_pow * tp1)))

    a_coef = -C / bracket

    y = a_coef * theta_pm(x, mu, alpha)[0]
    return AnalyticResolvent(mu=complex(mu), A=complex(a_coef), B=0.0 + 0.0j,
                             D=complex(bracket), alpha=float(alpha), y=y)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def tabulate_kappa(fn, n: int = 400, x_min: float = 1e-8) -> TabulatedKappa:
    """Sample a coefficient on a log-spaced grid accumulating at x=0.

    The degeneracy ratio x|kappa'|/kappa is typically extremal in the
    degenerate limit, so samples concentrate there.
    """
    x = np.geomspace(x_min, 1.0, int(n))
    return TabulatedKappa(x=x, values=np.asarray(fn(x), dtype=float))
