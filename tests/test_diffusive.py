import math

import numpy as np
import pytest

from fracdamp import _kernels
from fracdamp.diffusive import (
    build_xi_quadrature,
    direct_fractional_integral,
    evolve_psi_forced,
    kernel_check,
    kernel_value,
)
from fracdamp.errors import GridError, ParameterError
from fracdamp.model import derive_constants


def _psi_march_oracle(grid, signal, dt):
    """The forced relaxation march one time step at a time: every mode
    advanced by the exponential integrator under the per-step mean signal,
    the flux zeta sum w eta psi (rho = 1) read after each step."""
    zeta = derive_constants(grid.beta, 1.0)
    xi2, eta = grid.xi**2, grid.eta
    decay = np.exp(-xi2 * dt)
    gain = -np.expm1(-xi2 * dt) / xi2
    s_avg = 0.5 * (signal[:-1] + signal[1:])
    psi = np.zeros(xi2.size)
    flux = np.zeros(s_avg.size + 1)
    for n, s in enumerate(s_avg):
        psi = decay * psi + gain * eta * s
        flux[n + 1] = zeta * np.dot(grid.w * eta, psi)
    return psi, flux


def _psi_mode_oracle(grid, signal, dt):
    """The forced modes one mode at a time: each mode's decay exp(-xi_k^2 j dt)
    at every lag j, dotted with the reversed mean signal for the final mode
    and summed into the kernel's cell integrals, whose causal convolution
    with the mean signal (``frac_conv``) is the flux (rho = 1)."""
    zeta = derive_constants(grid.beta, 1.0)
    xi2, eta = grid.xi**2, grid.eta
    gain = -np.expm1(-xi2 * dt) / xi2
    s_avg = 0.5 * (signal[:-1] + signal[1:])
    lags = dt * np.arange(s_avg.size)
    kernel = np.zeros(s_avg.size)
    psi = np.empty(xi2.size)
    for k in range(xi2.size):
        decay = np.exp(-xi2[k] * lags)
        psi[k] = gain[k] * eta[k] * np.dot(decay, s_avg[::-1])
        kernel += zeta * grid.w[k] * eta[k] ** 2 * gain[k] * decay
    return psi, _kernels.frac_conv(s_avg, kernel)


class TestXiGrid:
    def test_eta_constant_at_half(self):
        grid = build_xi_quadrature(0.5, 200)
        np.testing.assert_allclose(grid.eta, 1.0, rtol=1e-14)

    def test_eta_power(self):
        grid = build_xi_quadrature(0.75, 64, 1e-2, 1e2)
        k = np.argmin(np.abs(grid.xi - 4.0))
        # eta = |xi|^((2*0.75-1)/2) = xi^0.25
        assert grid.eta[k] == pytest.approx(grid.xi[k] ** 0.25, rel=1e-13)
        grid_at_4 = 4.0**0.25
        assert grid_at_4 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_weights_positive_nodes_in_range(self):
        grid = build_xi_quadrature(0.3, 128, 1e-3, 1e3)
        assert np.all(grid.w > 0)
        assert np.all((grid.xi >= 1e-3) & (grid.xi <= 1e3))

    def test_invalid_ranges(self):
        with pytest.raises(ParameterError):
            build_xi_quadrature(0.5, 64, 1.0, 0.1)
        with pytest.raises(ParameterError):
            build_xi_quadrature(0.5, 8)
        with pytest.raises(ParameterError):
            build_xi_quadrature(1.5, 64)


class TestKernelValue:
    def test_half_beta_closed_form(self):
        grid = build_xi_quadrature(0.5, 200)
        assert kernel_value(grid, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-6
        )

    def test_tau_scaling(self):
        grid = build_xi_quadrature(0.5, 200)
        v1 = kernel_value(grid, 1.0, 1.0)
        v4 = kernel_value(grid, 4.0, 1.0)
        assert v4 == pytest.approx(0.5 * v1, rel=1e-6)
        assert v4 == pytest.approx(0.2820948, rel=1e-6)

    def test_monotone_decay_to_zero(self):
        grid = build_xi_quadrature(0.4, 128)
        taus = np.geomspace(1e-2, 1e4, 40)
        vals = [kernel_value(grid, t, 1.0) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2 * vals[0]

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_not_finite_and_positive_is_refused(self, tau):
        # nan passed the old tau <= 0 guard, and kernel_check then dropped
        # its row from max_rel_error without saying so
        grid = build_xi_quadrature(0.5, 64)
        with pytest.raises(ParameterError, match="tau"):
            kernel_value(grid, tau, 1.0)
        with pytest.raises(ParameterError, match="tau"):
            kernel_check(grid, 1.0, [1.0, tau])

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_kernel_equivalence_over_resolved_window(self, beta):
        grid = build_xi_quadrature(beta)
        lo, hi = grid.resolved_tau_window
        taus = np.geomspace(lo, hi, 101)
        check = kernel_check(grid, 1.0, taus)
        assert check.max_rel_error == check.rel_error.max()
        assert check.max_rel_error < 1e-4

    def test_node_doubling_monotone(self):
        taus = np.geomspace(1e-2, 1e2, 41)
        errs = []
        for n in (20, 40, 80, 160):
            grid = build_xi_quadrature(0.5, n)
            errs.append(kernel_check(grid, 1.0, taus).max_rel_error)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_kernel_check_flags_out_of_window(self):
        grid = build_xi_quadrature(0.5, 64, 1e-2, 1e2)
        lo, hi = grid.resolved_tau_window
        taus = np.array([lo / 100.0, math.sqrt(lo * hi), hi * 100.0])
        check = kernel_check(grid, 1.0, taus)
        assert check.max_rel_error == check.rel_error[1] < check.rel_error[[0, 2]].min()

    def test_kernel_check_with_no_tau_in_window_is_refused(self, monkeypatch):
        # max_rel_error was nan, which the CLI wrote into its manifest
        from fracdamp import diffusive

        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature was evaluated")

        monkeypatch.setattr(diffusive, "kernel_value", refuse)
        grid = build_xi_quadrature(0.5)
        lo, hi = grid.resolved_tau_window
        with pytest.raises(ParameterError, match=r"resolved window \[2e-07, 5e\+04\]"):
            kernel_check(grid, 1.0, [lo / 10.0, hi * 10.0])

    def test_csv_export_header(self, tmp_path):
        grid = build_xi_quadrature(0.5, 64)
        check = kernel_check(grid, 1.0, np.geomspace(0.1, 10, 9))
        path = tmp_path / "kernel.csv"
        check.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,quadrature,exact,rel_error"
        assert len(lines) == 10


class TestDirectFractionalIntegral:
    def test_constant_signal_closed_form(self):
        beta = 0.5
        t = np.linspace(0.0, 1.0, 2001)
        out = direct_fractional_integral(np.ones_like(t), t, beta)
        expected = t ** (1.0 - beta) / math.gamma(2.0 - beta)
        np.testing.assert_allclose(out[1:], expected[1:], rtol=1e-12)
        assert out[-1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_zero_signal(self):
        t = np.linspace(0.0, 2.0, 101)
        out = direct_fractional_integral(np.zeros_like(t), t, 0.3)
        assert np.all(out == 0.0)

    def test_linear_signal_power_rule(self):
        # closed form t^(2-beta)/Gamma(3-beta); the averaged-rectangle rule
        # is second order, so a fine grid pins it well below 1e-5.
        beta = 0.5
        t = np.linspace(0.0, 1.0, 4001)
        out = direct_fractional_integral(t, t, beta)
        expected = 1.0 / math.gamma(2.5)
        assert expected == pytest.approx(0.7522528, abs=1e-7)
        assert out[-1] == pytest.approx(expected, rel=1e-5)

    def test_linear_signal_grid_convergence(self):
        beta = 0.3
        errs = []
        for n in (250, 500, 1000):
            t = np.linspace(0.0, 1.0, n + 1)
            out = direct_fractional_integral(t, t, beta)
            errs.append(abs(out[-1] - 1.0 / math.gamma(3.0 - beta)))
        assert errs[0] > errs[1] > errs[2]

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.35, 0.4])
        with pytest.raises(GridError):
            direct_fractional_integral(np.ones_like(t), t, 0.5)


class TestEvolvePsiForced:
    def test_zero_signal(self):
        grid = build_xi_quadrature(0.5, 64)
        t = np.linspace(0.0, 1.0, 101)
        psi, flux = evolve_psi_forced(grid, np.zeros_like(t), 0.01)
        assert np.all(psi == 0.0)
        assert np.all(flux == 0.0)

    def test_single_mode_closed_form(self):
        grid = build_xi_quadrature(0.5, 64, 1e-2, 1e2)
        dt, n = 1e-3, 5000
        t = np.linspace(0.0, n * dt, n + 1)
        psi, _ = evolve_psi_forced(grid, np.ones_like(t), dt)
        expected = grid.eta * -np.expm1(-grid.xi**2 * t[-1]) / grid.xi**2
        np.testing.assert_allclose(psi, expected, rtol=1e-10)

    def test_unit_signal_flux_matches_closed_form(self):
        beta = 0.5
        grid = build_xi_quadrature(beta, 200)
        dt = 1e-3
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        _, flux = evolve_psi_forced(grid, np.ones_like(t), dt)
        expected = t[-1] ** (1.0 - beta) / math.gamma(2.0 - beta)
        assert flux[-1].real == pytest.approx(expected, rel=1e-3)
        assert abs(flux[-1].imag) < 1e-12

    def test_flux_matches_direct_integral_smooth_signal(self):
        # sup-normalized comparison: the oracle crosses zero for an
        # oscillatory signal, so pointwise relative error is meaningless
        beta = 0.5
        grid = build_xi_quadrature(beta, 200)
        dt = 1e-3
        t = np.arange(0.0, 5.0 + dt / 2, dt)
        signal = np.sin(t)
        _, flux = evolve_psi_forced(grid, signal, dt)
        oracle = direct_fractional_integral(signal, t, beta)
        sup = np.abs(oracle).max()
        mask = t >= 0.1
        assert np.max(np.abs(flux.real - oracle)[mask]) / sup < 1e-3

    def test_flux_equivalence_positive_signal_pointwise(self):
        beta = 0.3
        grid = build_xi_quadrature(beta, 200)
        dt = 1e-3
        t = np.arange(0.0, 2.0 + dt / 2, dt)
        signal = 1.0 + 0.5 * np.tanh(t)
        _, flux = evolve_psi_forced(grid, signal, dt)
        oracle = direct_fractional_integral(signal, t, beta)
        mask = t >= 0.1
        rel = np.abs(flux.real - oracle)[mask] / np.abs(oracle)[mask]
        assert rel.max() < 1e-3

    @pytest.mark.parametrize("beta", [0.5, 0.3])
    def test_matches_the_per_step_march(self, beta):
        # default grid, xi^2 up to 1e8: modes from fully resolved to ones
        # that relax within a step; a signal of both signs
        grid = build_xi_quadrature(beta)
        dt = 1e-3
        t = dt * np.arange(4001)
        signal = np.sin(3.0 * t) - 0.2 + 0.5 * np.cos(40.0 * t)
        psi, flux = evolve_psi_forced(grid, signal, dt)
        want_psi, want_flux = _psi_march_oracle(grid, signal, dt)
        assert flux.shape == want_flux.shape and psi.shape == want_psi.shape
        assert flux[0] == 0.0
        np.testing.assert_allclose(flux, want_flux, rtol=0, atol=1e-12 * np.abs(want_flux).max())
        np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-12 * np.abs(want_psi).max())

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 15, 16, 17, 20000])
    @pytest.mark.parametrize("kind", ["zero", "sign-changing"])
    def test_factored_tables_match_the_per_mode_loop(self, n_steps, kind):
        # squares, their neighbours and a partial last row of the lag table;
        # on the default grid xi^2 dt runs from 1e-11 to 1e5, so the tables'
        # rows of the fast modes underflow to 0
        grid = build_xi_quadrature(0.5)
        dt = 1e-3
        assert (grid.xi[0] ** 2 * dt, grid.xi[-1] ** 2 * dt) == pytest.approx((1e-11, 1e5))
        t = dt * np.arange(n_steps + 1)
        signal = np.zeros_like(t) if kind == "zero" else np.sin(3.0 * t + 0.4) - 0.3
        psi, flux = evolve_psi_forced(grid, signal, dt)
        want_psi, want_flux = _psi_mode_oracle(grid, signal, dt)
        assert flux.shape == want_flux.shape and psi.shape == want_psi.shape
        if kind == "zero":
            assert np.all(psi == 0.0) and np.all(flux == 0.0)
            return
        np.testing.assert_allclose(flux, want_flux, rtol=0, atol=1e-13 * np.abs(want_flux).max())
        np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-13 * np.abs(want_psi).max())

    def test_complex_signal_refused(self):
        grid = build_xi_quadrature(0.5, 64)
        with pytest.raises(ParameterError, match="real"):
            evolve_psi_forced(grid, np.ones(11) + 1j, 0.1)


class TestRhoValidation:
    # zeta = rho sin(beta pi)/pi comes from derive_constants alone, which
    # rejects rho <= 0 instead of yielding a zero or negative kernel
    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_kernel_check_rejects_nonpositive_rho(self, rho):
        grid = build_xi_quadrature(0.5, 64)
        with pytest.raises(ParameterError, match="rho"):
            kernel_check(grid, rho, np.geomspace(1e-2, 1e2, 5))
