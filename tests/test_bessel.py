import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from fracdamp.bessel import (
    theta_prime,
    analytic_resolvent_P,
    bessel_j,
    leading_coefficients,
    theta_pm,
)
from fracdamp.errors import NearSingularError, ParameterError
from fracdamp.operator import build_x_grid
from oracles import (
    _lommel,
    analytic_case_Pprime_poweralpha,
    bessel_j_prime,
    eval_homogeneous,
    theta_norm_sq,
    theta_norm_sq_small_r,
)


class TestBesselJ:
    def test_half_integer_closed_form(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z; at z = pi/2 this is 2/pi
        val = bessel_j(0.5, math.pi / 2.0)
        assert complex(val).real == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_at_zero(self):
        assert complex(bessel_j(0.3, 0.0)) == 0.0
        assert complex(bessel_j(0.0, 0.0)) == 1.0

    @pytest.mark.parametrize("nu", [0.1, 1.0 / 3.0, 0.45, 0.7, 1.3])
    def test_against_scipy_real_axis(self, nu):
        # alternating-series cancellation grows with |z|: the peak term is
        # ~(z/2)^(2m*)/(m*!)^2, so full precision holds only for moderate z
        z = np.linspace(0.05, 10.0, 25)
        ours = bessel_j(nu, z)
        ref = sps.jv(nu, z)
        assert np.max(np.abs(ours - ref)) < 1e-12 * np.max(np.abs(ref))
        z = np.linspace(10.0, 18.0, 9)
        assert np.max(np.abs(bessel_j(nu, z) - sps.jv(nu, z))) < 1e-8

    def test_against_scipy_imaginary_axis(self):
        z = 1j * np.linspace(0.1, 10.0, 21)
        ours = bessel_j(0.25, z)
        ref = sps.jv(0.25, z)
        assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-12

    def test_wronskian_value(self):
        # J_nu J_{-nu}' - J_nu' J_{-nu} = -2 sin(nu pi)/(pi z)
        nu, z = 1.0 / 3.0, 1.0
        w = bessel_j(nu, z) * bessel_j_prime(-nu, z) - bessel_j_prime(nu, z) * bessel_j(-nu, z)
        assert complex(w).real == pytest.approx(-2.0 * math.sin(nu * math.pi) / math.pi, rel=1e-12)
        assert complex(w).real == pytest.approx(-0.5513289, abs=1e-7)

    def test_wronskian_precision_sweep(self):
        worst = 0.0
        for nu in np.linspace(0.1, 0.45, 8):
            for z in np.geomspace(0.1, 10.0, 25):
                w = bessel_j(nu, z) * bessel_j_prime(-nu, z) - bessel_j_prime(nu, z) * bessel_j(-nu, z)
                exact = -2.0 * math.sin(nu * math.pi) / (math.pi * z)
                worst = max(worst, abs(complex(w) - exact) / abs(exact))
        assert worst < 1e-12

    def test_wronskian_imaginary_axis_product_scale(self):
        # on the imaginary axis the two products cancel by up to ~1e9, so
        # precision is measured relative to the product magnitude
        worst = 0.0
        for nu in (0.1, 0.45):
            for z in 1j * np.geomspace(0.1, 10.0, 9):
                p1 = bessel_j(nu, z) * bessel_j_prime(-nu, z)
                p2 = bessel_j_prime(nu, z) * bessel_j(-nu, z)
                exact = -2.0 * math.sin(nu * math.pi) / (math.pi * z)
                worst = max(worst, abs((p1 - p2) - exact) / (abs(p1) + abs(p2)))
        assert worst < 1e-13

    def test_range_guard(self):
        with pytest.raises(ParameterError):
            bessel_j(0.5, 25.0)
        with pytest.raises(ParameterError):
            bessel_j(-1.5, 1.0)

    def test_series_cap_is_converged(self, monkeypatch):
        from fracdamp import bessel

        z = 19.9
        a = bessel_j(0.3, z)
        monkeypatch.setattr(bessel, "_SERIES_CAP", 400)
        b = bessel_j(0.3, z)
        assert abs(a - b) <= 1e-14 * abs(b)


class TestThetaPair:
    def test_leading_asymptotics_plus(self):
        alpha, mu = 0.5, 0.02j
        nu = (1 - alpha) / (2 - alpha)
        c_plus, _ = leading_coefficients(nu)
        x = 1e-6
        tp, _ = theta_pm(x, mu, alpha)
        lead = c_plus * ((2.0 / (2.0 - alpha)) * mu) ** nu * x ** (1.0 - alpha)
        assert complex(tp) == pytest.approx(lead, rel=1e-6)

    def test_leading_asymptotics_minus(self):
        alpha, mu = 0.5, 0.02j
        nu = (1 - alpha) / (2 - alpha)
        _, c_minus = leading_coefficients(nu)
        x = 1e-6
        _, tm = theta_pm(x, mu, alpha)
        lead = c_minus * ((2.0 / (2.0 - alpha)) * mu) ** (-nu)
        assert complex(tm) == pytest.approx(lead, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_ode_residual(self, alpha):
        # theta_pm solve (x^alpha y')' = mu^2 y: differentiate the analytic
        # weighted flux once by centered differences and compare
        mu = 0.4j
        h = 1e-6
        x = np.linspace(0.3, 0.9, 121)
        for component in (0, 1):
            flux = lambda s: s**alpha * theta_prime(s, mu, alpha)[component]
            # (x^alpha theta')' = lam*theta with lam = -mu^2
            resid = (flux(x + h) - flux(x - h)) / (2 * h) + mu**2 * theta_pm(x, mu, alpha)[component]
            assert np.max(np.abs(resid)) < 1e-8

    def test_theta_prime_formula_against_fd(self):
        alpha, mu = 0.4, 0.3j
        tp1, tm1 = theta_prime(1.0, mu, alpha)
        h = 1e-6
        fd_p = (theta_pm(1 + h, mu, alpha)[0] - theta_pm(1 - h, mu, alpha)[0]) / (2 * h)
        fd_m = (theta_pm(1 + h, mu, alpha)[1] - theta_pm(1 - h, mu, alpha)[1]) / (2 * h)
        assert tp1 == pytest.approx(complex(fd_p), rel=1e-8)
        assert tm1 == pytest.approx(complex(fd_m), rel=1e-8)


class TestThetaNorm:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    def test_against_adaptive_quadrature(self, mu):
        alpha = 0.5
        r = 2.0 * mu / (2.0 - alpha)
        val = theta_norm_sq(r, alpha)
        oracle, err = quad(
            lambda x: complex(theta_pm(x, mu, alpha)[0]).real ** 2, 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert complex(val).real == pytest.approx(oracle, rel=1e-8)
        assert abs(complex(val).imag) < 1e-14

    def test_small_r_asymptote(self):
        alpha = 0.5
        for r in (1e-3, 1e-3 * 1j):
            val = theta_norm_sq(r, alpha)
            asym = theta_norm_sq_small_r(r, alpha)
            assert abs(val - asym) / abs(asym) < 1e-4

    def test_half_integer_lommel_closed_form(self):
        # J_{1/2} reduces to elementary functions:
        # int_0^1 t J_{1/2}(rt)^2 dt = (1/(pi r)) (1 - sin(2r)/(2r))
        for r in (0.7, 1.7, 3.1):
            lhs = complex(_lommel(0.5, r))
            rhs = (1.0 / (math.pi * r)) * (1.0 - math.sin(2 * r) / (2 * r))
            assert lhs.real == pytest.approx(rhs, rel=1e-10)
            assert abs(lhs.imag) < 1e-15

    def test_removable_origin(self):
        assert theta_norm_sq(0.0, 0.5) == 0.0


class TestAnalyticResolventP:
    def test_zero_data_zero_solution(self):
        x = build_x_grid(64).x
        res = analytic_resolvent_P(1e-3, x, 0.0, 0.5, 0.5, 1.0)
        assert np.all(res.y == 0)
        assert res.A == 0 and res.B == 0

    def test_boundary_conditions(self):
        # the homogeneous evaluator gives y exactly at arbitrary points
        lam, alpha, beta, rho, c = 1e-3, 0.5, 0.5, 1.0, 1.0
        x = build_x_grid(128).x
        res = analytic_resolvent_P(lam, x, c, alpha, beta, rho)
        h = 1e-6
        dy1 = (eval_homogeneous(res, 1.0 + h) - eval_homogeneous(res, 1.0 - h)) / (2 * h)
        assert abs(dy1) < 1e-8 * np.abs(res.y).max()
        # flux condition at 0: A (1-alpha) d+ + i rho (i lam)^(beta-1) B d- = C
        nu = (1 - alpha) / (2 - alpha)
        c_plus, c_minus = leading_coefficients(nu)
        scale = (2.0 / (2.0 - alpha)) * res.mu
        d_plus, d_minus = c_plus * scale**nu, c_minus * scale ** (-nu)
        il_pow = np.exp((beta - 1) * np.log(1j * lam))
        lhs = res.A * (1 - alpha) * d_plus + 1j * rho * il_pow * res.B * d_minus
        assert lhs == pytest.approx(c, rel=1e-8)

    def test_origin_value_from_constants(self):
        lam, alpha, beta, rho = 1e-3, 0.5, 0.5, 1.0
        x = build_x_grid(64).x
        res = analytic_resolvent_P(lam, x, 1.0, alpha, beta, rho)
        nu = (1 - alpha) / (2 - alpha)
        _, c_minus = leading_coefficients(nu)
        d_minus = c_minus * ((2.0 / (2.0 - alpha)) * res.mu) ** (-nu)
        # |y(0)| = |B d-|: evaluate at a tiny x where theta_+ has died off
        y_near_zero = eval_homogeneous(res, 1e-18)
        assert abs(y_near_zero) == pytest.approx(abs(res.B * d_minus), rel=1e-10)

    def test_ode_residual_second_order(self):
        lam, alpha, beta, rho = 1e-2, 0.5, 0.5, 1.0
        x = build_x_grid(64).x
        res = analytic_resolvent_P(lam, x, 1.0, alpha, beta, rho)

        def residual(h):
            xs = np.linspace(0.3, 0.9, 31)
            flux = lambda s: s**alpha * (
                (eval_homogeneous(res, s + h) - eval_homogeneous(res, s - h)) / (2 * h)
            )
            fluxdiv = (flux(xs + h) - flux(xs - h)) / (2 * h)
            return np.max(np.abs(fluxdiv - lam * eval_homogeneous(res, xs)))

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    def test_near_singular_determinant_guard(self):
        from fracdamp.bessel import _check_determinant

        with pytest.raises(NearSingularError):
            _check_determinant(1e-20 + 0j, 1.0)
        with pytest.raises(NearSingularError):
            _check_determinant(complex("nan"), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1e-3, math.nan, math.inf])
    def test_lambda_not_finite_and_positive_is_a_parameter_error(self, lam):
        # nan passed a lam <= 0 guard and failed later as NearSingularError
        with pytest.raises(ParameterError):
            analytic_resolvent_P(lam, build_x_grid(32).x, 1.0, 0.5, 0.5, 1.0)


class TestAnalyticPprimePower:
    def test_zero_data(self):
        x = build_x_grid(32).x
        res = analytic_case_Pprime_poweralpha(1e-3, x, 0.0, 0.5, 0.5, 1.0)
        assert np.all(res.y == 0)

    @pytest.mark.parametrize("lam", [0.0, -1e-3, math.nan, math.inf])
    def test_lambda_not_finite_and_positive_is_a_parameter_error(self, lam):
        with pytest.raises(ParameterError):
            analytic_case_Pprime_poweralpha(lam, build_x_grid(32).x, 1.0, 0.5, 0.5, 1.0)

    def test_dirichlet_at_origin_by_construction(self):
        x = build_x_grid(64).x
        res = analytic_case_Pprime_poweralpha(1e-3, x, 1.0, 0.5, 0.5, 1.0)
        assert res.B == 0
        # theta_+ ~ x^(1-alpha), so the trace at the origin vanishes
        assert abs(eval_homogeneous(res, 1e-30)) < 1e-12 * np.abs(res.y).max()

    def test_matches_the_discrete_resolvent_at_first_order(self):
        # the oracle-compare setup on P' (alpha = beta = 0.5, grade 2, nxi 800,
        # xi in [1e-4, 1e6], lambda = 1e-3, f_psi = eta exp(-xi^2)): the
        # relative h-weighted L2 error measured 2.29e-3, 1.15e-3, 5.76e-4 and
        # 2.88e-4 at nx = 100 to 800, order 1.0 (P reads 2.2e-5 to 2.9e-6)
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.model import PowerLawKappa, ProblemSpec, Variant
        from fracdamp.operator import assemble_operator
        from fracdamp.resolvent import forcing_integral, solve_resolvent

        lam, alpha, beta, rho = 1e-3, 0.5, 0.5, 1.0
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(alpha), beta=beta,
                           rho=rho)
        xig = build_xi_quadrature(beta, 800, 1e-4, 1e6)
        f_psi = xig.eta * np.exp(-xig.xi**2)
        errors = []
        for nx in (100, 200, 400, 800):
            xg = build_x_grid(nx, 2.0)
            op = assemble_operator(spec, xg, xig)
            zd = solve_resolvent(op, lam, np.zeros(nx), f_psi)
            oracle = analytic_case_Pprime_poweralpha(
                lam, xg.x, forcing_integral(op, lam, f_psi), alpha, beta, rho)
            errors.append(math.sqrt(np.dot(xg.h, np.abs(zd.y - oracle.y) ** 2)
                                    / np.dot(xg.h, np.abs(oracle.y) ** 2)))
        assert errors == pytest.approx([2.29e-3, 1.15e-3, 5.76e-4, 2.88e-4], rel=0.02)
        assert all(a > 1.9 * b for a, b in zip(errors, errors[1:]))

    def test_bracket_scaling_exponent(self):
        # |bracket| ~ |mu|^(2 beta + nu - 2): checked through
        # oracles.bracket_scaling_pprime, here just the raw values
        lam_grid = np.geomspace(1e-6, 1e-4, 10)
        alpha, beta, rho = 0.5, 0.5, 1.0
        nu = (1 - alpha) / (2 - alpha)
        x = build_x_grid(32).x
        vals = []
        for lam in lam_grid:
            res = analytic_case_Pprime_poweralpha(lam, x, 1.0, alpha, beta, rho)
            vals.append(abs(res.D))
        slope = np.polyfit(np.log(np.sqrt(lam_grid)), np.log(vals), 1)[0]
        assert slope == pytest.approx(2 * beta + nu - 2.0, abs=0.05)
