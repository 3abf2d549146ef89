import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import eigvals_dense, make_operator, march_args, random_state
from fracdamp import _kernels
from fracdamp import resolvent as resolvent_module
from fracdamp import evolution as evolution_module
from fracdamp.errors import FitDataError, NumericalError, ParameterError, ShapeError
from fracdamp.evolution import (
    EnergyTrace,
    fit_decay_exponent,
    prepare_initial_state,
    simulate,
)
from fracdamp.model import StateVector, Variant, energy, weighted_norm


def _one_step(op, state, dt):
    """The weighted norm sqrt(2E) after one midpoint step of the march kernel,
    having checked the one before it."""
    e, _, _ = _kernels.midpoint_march(*march_args(
        op.l_diag, op.l_off, op.xgrid.h, op.boundary_index,
        op.zeta, op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2,
        state.y, state.psi, dt, np.array([0, 1], dtype=np.int64),
    ))
    before, after = np.sqrt(2.0 * e)
    assert before == pytest.approx(weighted_norm(state, op), rel=1e-12)
    return after


class TestStep:
    def test_zero_fixed_point(self, small_op):
        # every weight of the norm is positive, so norm 0 is the zero state
        n, m = small_op.xgrid.x.size, small_op.xigrid.xi.size
        assert _one_step(small_op, StateVector(y=np.zeros(n), psi=np.zeros(m)), 0.01) == 0

    def test_undamped_isometry(self, rng):
        op = replace(make_operator(), zeta=0.0)
        for _ in range(20):
            state = random_state(op, rng)
            norm = _one_step(op, state, 0.02)
            assert norm == pytest.approx(weighted_norm(state, op), rel=1e-12)

    def test_damped_contractivity(self, small_op, rng):
        for _ in range(100):
            state = random_state(small_op, rng)
            norm = _one_step(small_op, state, 0.05)
            assert norm <= weighted_norm(state, small_op) * (1.0 + 1e-12)

    def test_bad_dt(self, small_op, rng):
        with pytest.raises(ParameterError):
            simulate(small_op, random_state(small_op, rng), 1.0, -0.1)


class TestSimulate:
    def test_zero_initial_state(self, small_op):
        n, m = small_op.xgrid.x.size, small_op.xigrid.xi.size
        trace = simulate(small_op, StateVector(y=np.zeros(n), psi=np.zeros(m)), 1.0, 0.01)
        assert np.all(trace.E == 0)

    def test_undamped_conservation(self, rng):
        op = replace(make_operator(nx=64, nxi=48), zeta=0.0)
        state = random_state(op, rng)
        scale = 1.0 / math.sqrt(energy(state, op))
        state = StateVector(y=scale * state.y, psi=scale * state.psi)
        trace = simulate(op, state, 10.0, 1e-3)  # 10^4 steps, 2001 samples
        assert trace.t.size == 2001
        assert np.abs(trace.E - trace.E[0]).max() <= 1e-12

    @pytest.mark.parametrize("t_final,dt", [(math.nan, 0.01), (math.inf, 0.01), (1.0, math.inf),
                                            (1.0, math.nan), (1e300, 1e-300)])
    def test_non_finite_times_are_refused(self, small_op, rng, t_final, dt):
        with pytest.raises(ParameterError, match="finite"):
            simulate(small_op, random_state(small_op, rng), t_final, dt)

    @pytest.mark.parametrize("t_final,dt,stride,n_samples", [
        (0.004, 0.01, 1, 2),      # under one step: the march still takes one
        (0.1, 0.01, 1, 11),       # few steps: every step is a sample
        (4.001, 1e-3, 2, 2002),   # 4001 steps: stride 2, then the last step
    ])
    def test_samples_at_the_default_stride_and_the_last_step(
        self, small_op, rng, t_final, dt, stride, n_samples,
    ):
        trace = simulate(small_op, random_state(small_op, rng), t_final, dt)
        n_steps = max(1, round(t_final / dt))
        steps = np.rint(trace.t / dt).astype(np.int64)
        assert steps.size == n_samples and steps[0] == 0 and steps[-1] == n_steps
        assert np.all(np.diff(steps[:-1]) == stride) and 0 < steps[-1] - steps[-2] <= stride
        assert trace.t[-1] == pytest.approx(n_steps * dt, rel=1e-15)

    def test_state_of_another_grid_is_refused(self, small_op, rng):
        state = random_state(make_operator(nx=32, nxi=64), rng)
        with pytest.raises(ShapeError, match=r"state of shape \(32, 64\) does not match "
                                              r"operator grids \(64, 64\)"):
            simulate(small_op, state, 0.1, 0.01)

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_march_needs_no_dense_field_eigenbasis(self, variant, monkeypatch, rng):
        import scipy.linalg
        from scipy.linalg import lapack

        def refuse(*args, **kwargs):
            raise AssertionError("dense field eigenbasis in the march")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        # the package calls LAPACK through the extension module it loads,
        # not through scipy.linalg.lapack's names
        monkeypatch.setattr(lapack, "dstemr", refuse)
        monkeypatch.setattr(_kernels._lapack, "dstemr", refuse)
        op = make_operator(variant, nx=48, nxi=32)
        state = random_state(op, rng)
        trace = simulate(op, state, 0.5, 0.01)
        assert trace.E[0] == pytest.approx(energy(state, op), rel=1e-12)
        assert np.all(np.diff(trace.E) <= 1e-12 * trace.E[0])

    def test_uncoupled_energy_is_held_by_modes_off_the_damped_cell(self, rng):
        # on P at nx=100 40 field modes are decoupled in field_spectrum; the
        # energy the march leaves out lies in those modes, and it includes
        # every mode whose boundary entry is below 1e-20
        from conftest import field_eigenbasis

        op = make_operator(Variant.P, nx=100, nxi=64)
        state = random_state(op, rng)
        trace = simulate(op, state, 0.5, 0.01)
        _, basis = field_eigenbasis(op.l_diag, op.l_off)
        energies = 0.5 * np.abs(basis.T @ (np.sqrt(op.xgrid.h) * state.y)) ** 2
        b = op.boundary_index
        decoupled = energies[~op.field_spectrum.coupled].sum()
        unreached = energies[np.abs(basis[b]) < 1e-20].sum()
        assert unreached > 0.0
        rounding = 1e-12 * trace.E[0]
        assert unreached - rounding <= trace.uncoupled_energy <= decoupled + rounding

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_march_count_and_census_read_one_coupled_mask(self, variant, rng):
        # the census finds a root for each coupled field mode, the count
        # takes every other field mode as an exact singular value, and the
        # march carries every coupled mode
        op = make_operator(variant, nx=100, nxi=64)
        spectrum = op.field_spectrum
        coupled = spectrum.coupled
        if variant is Variant.P:
            assert 0 < np.count_nonzero(coupled) < coupled.size
        census = resolvent_module.damped_eigenvalues(op)
        assert census.expected == np.count_nonzero(coupled) + op.xigrid.xi.size
        assert np.array_equal(op.modal_constants.free, np.flatnonzero(~coupled))
        state = random_state(op, rng)
        trace = simulate(op, state, 0.1, 0.01)
        freq, *_ = _kernels.field_modes(op.l_diag, op.l_off, spectrum, op.boundary_index,
                                        np.sqrt(op.xgrid.h) * state.y)
        assert trace.coupled_modes == freq.size
        assert np.all(np.isin(spectrum.ell[coupled], freq))

    def test_energy_monotone_and_dissipation_sign(self, small_op, rng):
        state = random_state(small_op, rng)
        trace = simulate(small_op, state, 2.0, 1e-3)  # every step is a sample
        assert np.all(np.diff(trace.E) <= 1e-12 * trace.E[:-1] + 1e-300)
        assert np.all(trace.D <= 0.0)

    def test_energy_balance_midpoint_order(self, small_op, rng):
        # E_{n+1}-E_n equals dt * D(midpoint state) exactly; against the
        # trapezoid of the sampled D the per-step defect is O(dt^3), so the
        # accumulated defect drops ~4x when dt halves.
        state = random_state(small_op, rng)

        def accumulated_defect(dt):
            trace = simulate(small_op, state, 0.5, dt)  # every step is a sample
            defect = np.diff(trace.E) - dt * 0.5 * (trace.D[1:] + trace.D[:-1])
            return np.abs(defect).sum()

        d1, d2 = accumulated_defect(2e-3), accumulated_defect(1e-3)
        assert d1 / d2 == pytest.approx(4.0, rel=0.1)

    def test_flux_recorded_from_coupling_row(self, small_op, rng):
        state = random_state(small_op, rng)
        trace = simulate(small_op, state, 0.1, 1e-3)
        assert trace.flux.dtype == np.complex128
        assert np.abs(trace.flux).max() > 0

    def test_trace_csv(self, tmp_path, small_op, rng):
        trace = simulate(small_op, random_state(small_op, rng), 0.1, 0.01)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,E,D,flux_re,flux_im"


class TestPrepare:
    def test_smooth_bump_compatibility(self, small_op):
        state = prepare_initial_state(small_op, "smooth-bump")
        assert energy(state, small_op) == pytest.approx(1.0, rel=1e-12)

        # x^2(1-x)^2 has zero derivative at both endpoints: the weighted flux
        # x^alpha y'(x) -> 0 as x -> 0 and y'(1) = 0 exactly, so the state is
        # compatible with psi = 0 at the damped end.
        def dpoly(x):
            return 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)

        assert abs(1e-8**0.5 * dpoly(1e-8)) < 1e-8
        assert dpoly(1.0) == 0.0
        assert np.all(state.psi == 0)

    def test_lowest_mode_is_eigenmode(self):
        op = make_operator(nx=32, nxi=24, xi_min=1e-2, xi_max=1e2)
        state = prepare_initial_state(op, "lowest-mode")
        ay = op.apply(state)
        # Rayleigh quotient in the weighted product
        from fracdamp.model import inner_product

        lam = inner_product(ay, state, op) / inner_product(state, state, op)
        resid = StateVector(y=ay.y - lam * state.y, psi=ay.psi - lam * state.psi)
        assert weighted_norm(resid, op) < 1e-8 * weighted_norm(state, op)
        assert abs(lam) > 1e-8

    @pytest.mark.parametrize("variant,alpha,g", [(Variant.P, 0.5, 1.0),
                                                 (Variant.PPRIME, 0.5, 1.0),
                                                 (Variant.PPRIME, 1.5, 2.0)])
    def test_lowest_mode_has_the_largest_real_part(self, variant, alpha, g):
        op = make_operator(variant, alpha=alpha, nx=64, g=g)
        report = {}
        prepare_initial_state(op, "lowest-mode", report=report)
        dense = eigvals_dense(op)
        resolved = dense[np.abs(dense) > 1e-8]
        re, im = report["eigenvalue"]
        assert abs(complex(re, im)) > 1e-8
        assert abs(re - resolved.real.max()) <= 64 * np.finfo(float).eps * np.abs(dense).max()

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_lowest_mode_needs_no_dense_eig(self, variant, monkeypatch):
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on the lowest-mode path")

        for module, name in ((scipy.linalg, "eig"), (scipy.linalg, "eigvals"),
                             (np.linalg, "eig"), (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, refuse)
        op = make_operator(variant, nx=48, nxi=32)
        state = prepare_initial_state(op, "lowest-mode")
        assert energy(state, op) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_lowest_mode_residual_at_the_benchmark_grid(self, variant):
        # nx=400, nxi=200 and xi in [1e-4, 1e4]: on P most field modes are
        # decoupled in field_spectrum, yet their boundary entries reach 1e-8
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.model import PowerLawKappa, ProblemSpec
        from fracdamp.operator import assemble_operator, build_x_grid

        spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        op = assemble_operator(spec, build_x_grid(400, 1.0),
                               build_xi_quadrature(0.5, 200, 1e-4, 1e4))
        report = {}
        prepare_initial_state(op, "lowest-mode", report=report)
        assert report["residual"] <= 1e-8
        # the absolute residual's rounding floor grows with max |ell| (2.5e-11
        # here, 3.2e-9 at nx=3200); relative to it the residual is at eps
        assert report["relative_residual"] <= 64 * np.finfo(float).eps
        assert report["census"]["trace_defect"] <= 64 * np.finfo(float).eps

    def test_trace_defect_sees_one_moved_root(self, monkeypatch):
        # the census of the benchmark grid with its largest root moved by
        # 1e-10 of its modulus: the sum of the eigenvalues misses tr A
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.model import PowerLawKappa, ProblemSpec
        from fracdamp.operator import assemble_operator, build_x_grid

        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        op = assemble_operator(spec, build_x_grid(400, 1.0),
                               build_xi_quadrature(0.5, 200, 1e-4, 1e4))
        census = resolvent_module.damped_eigenvalues(op)
        values = census.values.copy()
        k = int(np.argmax(np.abs(values)))
        values[k] *= 1.0 + 1e-10
        monkeypatch.setattr(evolution_module, "damped_eigenvalues",
                            lambda op: census._replace(values=values))
        report = {}
        prepare_initial_state(op, "lowest-mode", report=report)
        assert report["census"]["trace_defect"] > 64 * np.finfo(float).eps

    def test_incomplete_census_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(resolvent_module, "_NEWTON_STEPS", 1)
        with pytest.raises(NumericalError) as exc:
            prepare_initial_state(make_operator(Variant.PPRIME, nx=48, nxi=32), "lowest-mode")
        diag = exc.value.diagnostics
        assert diag["found"] < diag["expected"]
        assert set(diag) >= {"unconverged", "recovered", "max_newton_iterations"}

    def test_smooth_bump_report(self, small_op):
        report = {}
        prepare_initial_state(small_op, report=report)
        assert set(report) == {"sigma_min"}
        assert report["sigma_min"] >= 0.5 * small_op.xigrid.xi_min**2

    def test_smooth_bump_is_returned_as_it_is_when_sigma_min_is_tiny(self, monkeypatch):
        # at xi_min = 7e-5 the lambda=0 solve reads sigma_min(A) ~ xi_min^2,
        # below 1e-8; the slowest relaxation mode is not a kernel, so the
        # bump comes back as it is, with no dense eigensolve
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve while preparing the smooth bump")

        for module, name in ((scipy.linalg, "eig"), (scipy.linalg, "eigvals"),
                             (np.linalg, "eig"), (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, refuse)
        op = make_operator(nx=100, nxi=64, xi_min=7e-5, xi_max=1e4)
        report = {}
        state = prepare_initial_state(op, report=report)
        x = op.xgrid.x
        bump = StateVector(y=x**2 * (1.0 - x) ** 2, psi=np.zeros(op.xigrid.xi.size))
        np.testing.assert_allclose(state.y, bump.y / math.sqrt(energy(bump, op)),
                                   rtol=1e-15, atol=0)
        assert np.all(state.psi == 0)
        assert set(report) == {"sigma_min"}
        assert 0.0 < report["sigma_min"] < 1e-8


class TestDecayFit:
    def _trace(self, fn, t0=1.0, t1=100.0, n=200):
        t = np.geomspace(t0, t1, n)
        e = fn(t)
        return EnergyTrace(t=t, E=e, D=np.zeros_like(t), flux=np.zeros(n, dtype=complex))

    def test_exact_power_law(self):
        fit = fit_decay_exponent(self._trace(lambda t: 5.0 * t**-2.0), (1.0, 100.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-10)

    def test_fractional_exponent(self):
        fit = fit_decay_exponent(self._trace(lambda t: 3.0 * t ** (-2.0 / 1.5)), (1.0, 100.0))
        assert fit.exponent == pytest.approx(1.3333, abs=1e-3)

    def test_window_restriction(self):
        t = np.geomspace(1.0, 100.0, 300)
        e = np.where(t < 10.0, 1.0, (t / 10.0) ** -2.0)
        trace = EnergyTrace(t=t, E=e, D=np.zeros_like(t), flux=np.zeros(300, dtype=complex))
        fit = fit_decay_exponent(trace, (10.0, 100.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_too_few_samples(self):
        trace = self._trace(lambda t: t**-1.0, n=30)
        with pytest.raises(FitDataError):
            fit_decay_exponent(trace, (50.0, 100.0))

    def test_nonpositive_energy_rejected(self):
        trace = self._trace(lambda t: t**-1.0 - 0.05)
        with pytest.raises(FitDataError):
            fit_decay_exponent(trace, (1.0, 100.0))

    def test_bad_window(self):
        trace = self._trace(lambda t: t**-1.0)
        with pytest.raises(ParameterError):
            fit_decay_exponent(trace, (5.0, 2.0))

    def test_flat_energy(self):
        # a conserved energy (undamped run): exponent 0, fitted exactly
        fit = fit_decay_exponent(self._trace(lambda t: np.full(t.size, 0.7)), (1.0, 100.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0
