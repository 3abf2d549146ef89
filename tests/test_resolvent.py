import math

import numpy as np
import pytest

from conftest import DiagonalOperator, make_operator
from fracdamp.errors import FitDataError, ParameterError, SpectralCollisionError
from fracdamp.model import PowerLawKappa, ProblemSpec, StateVector, Variant
from fracdamp.resolvent import (
    ScanRegime,
    _ShiftedSystem,
    _fit_line,
    _lanczos_top_value,
    _stable_window_fit,
    forcing_integral,
    resolvent_norm,
    resolvent_norm_dense,
    scan_resolvent,
    solve_resolvent,
    theoretical_exponents,
    verify_determinant_scaling,
)


class TestStubOperators:
    def test_minus_identity_closed_form(self):
        stub = DiagonalOperator(-np.ones(7))
        assert resolvent_norm(stub, 0.0) == pytest.approx(1.0, rel=1e-8)
        assert resolvent_norm(stub, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-8)

    def test_diagonal_family_reproduces_closed_form(self):
        rng = np.random.default_rng(7)
        diag = -(0.5 + rng.random(12)) - 1j * rng.standard_normal(12)
        stub = DiagonalOperator(diag)
        for lam in (0.0, 0.3, -0.8, 2.0):
            expected = (1.0 / np.abs(1j * lam - diag)).max()
            assert resolvent_norm(stub, lam) == pytest.approx(expected, rel=1e-8)

    def test_weighted_diagonal(self):
        # weights do not change a diagonal operator norm
        diag = np.array([-1.0, -2.0, -0.25])
        stub = DiagonalOperator(diag, weights=np.array([0.1, 2.0, 5.0]))
        assert resolvent_norm(stub, 0.5) == pytest.approx(
            (1.0 / np.abs(0.5j - diag)).max(), rel=1e-8
        )

    def test_sign_symmetry_with_conjugation(self):
        # for a real-diagonal stub, lambda -> -lambda composed with state
        # conjugation is an exact symmetry of the norms
        diag = np.array([-1.0, -0.5, -2.0, -0.1])
        stub = DiagonalOperator(diag)
        for lam in (0.05, 0.4, 1.7):
            assert resolvent_norm(stub, lam) == pytest.approx(
                resolvent_norm(stub, -lam), rel=1e-8
            )

    def test_spectral_collision(self):
        stub = DiagonalOperator(np.array([1j * 2.0, -1.0]))
        with pytest.raises(SpectralCollisionError) as exc:
            resolvent_norm(stub, 2.0)
        assert exc.value.nearest_eigenvalue == pytest.approx(2.0j)


class _CountingDiagonal(DiagonalOperator):
    """DiagonalOperator whose shifted systems count their solves.

    The `fail_at`-th solve, if given, returns NaN everywhere.
    """

    def __init__(self, diag, fail_at=None):
        super().__init__(diag)
        self.solves = 0
        self.fail_at = fail_at

    def shifted_system(self, lam):
        inner = super().shifted_system(lam)
        outer = self

        def counted(solve):
            def run(f):
                outer.solves += 1
                z = solve(f)
                return np.full_like(z, np.nan) if outer.solves == outer.fail_at else z

            return run

        class _Counted:
            weights = inner.weights
            solve = staticmethod(counted(inner.solve))
            solve_adjoint = staticmethod(counted(inner.solve_adjoint))

        return _Counted()


class TestLanczos:
    def test_top_value_and_step_count_are_pinned(self):
        rng = np.random.default_rng(20261017)
        n = 60
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = b @ b.conj().T / n
        calls = 0

        def matvec(v):
            nonlocal calls
            calls += 1
            return m @ v

        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        theta, converged = _lanczos_top_value(matvec, v0, 1e-8, 200)
        assert converged
        assert theta == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-8)
        # step count of the reference iteration (row-major basis, Ritz values
        # from eigh_tridiagonal): a change of kernels must not move it
        assert calls == 18

    def test_stagnation_restarts_then_forces(self):
        # well-separated moduli: three Krylov steps never stabilise the top
        # Ritz value, so the first run and the restart both stagnate and the
        # larger of their two final values answers, with no third run
        diag = -np.geomspace(0.05, 50.0, 12) - 1j * np.linspace(-1.0, 1.0, 12)
        stub = _CountingDiagonal(diag)
        lam = 0.3
        norm = resolvent_norm(stub, lam, max_iter=3)
        exact = (1.0 / np.abs(1j * lam - diag)).max()
        assert np.isfinite(norm) and norm > 0.0
        assert norm <= exact * (1.0 + 1e-12)
        # 2 runs x 3 steps, each step one solve and one adjoint solve
        assert stub.solves == 2 * 3 * 2

    @pytest.mark.parametrize("k", [2, 5])
    def test_blow_up_in_iteration(self, k):
        # the k-th solve returns NaN; the iteration sees it in its diagonal
        # entry after the step's second solve and reports a collision
        stub = _CountingDiagonal(-np.geomspace(0.05, 50.0, 12), fail_at=k)
        with pytest.raises(SpectralCollisionError, match="resolvent blow-up in iteration"):
            resolvent_norm(stub, 0.3)
        assert stub.solves == 2 * math.ceil(k / 2)


class TestAssembledNorms:
    def test_against_dense_svd_oracle(self):
        op = make_operator(nx=100, nxi=50, xi_min=1e-4, xi_max=1e4)
        for lam in (1e-3, 1e-2, 0.3):
            it = resolvent_norm(op, lam)
            dense = resolvent_norm_dense(op, lam)
            assert it == pytest.approx(dense, rel=1e-6)
        # general coefficient at the outer end (criterion 5): the dense norm
        # sits on the relaxation floor 1/|lambda|, so the floor belongs to the
        # operator, and Lanczos reaches it rather than undershooting it
        for beta in (0.3, 0.5):
            op = make_operator(Variant.PPRIME, alpha=1.5, beta=beta, nx=100, nxi=60,
                               g=2.0, xi_min=1e-4, xi_max=1e4)
            for lam in (1e-4, 1e-3, 1e-2, 1e-1):
                it = resolvent_norm(op, lam)
                dense = resolvent_norm_dense(op, lam)
                assert it == pytest.approx(dense, rel=1e-6)
                assert lam * dense >= 1.0 - 1e-6
                assert lam * it >= 1.0 - 1e-6

    def test_negative_lambda_solves(self):
        op = make_operator(nx=48, nxi=32)
        n1 = resolvent_norm(op, -1e-2)
        dense = resolvent_norm_dense(op, -1e-2)
        assert n1 == pytest.approx(dense, rel=1e-6)

    def test_solve_residual(self, rng):
        op = make_operator(nx=40, nxi=24)
        lam = 3e-2
        fy = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        fp = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        z = solve_resolvent(op, lam, fy, fp)
        az = op.apply(z)
        res_y = 1j * lam * z.y - az.y - fy
        res_p = 1j * lam * z.psi - az.psi - fp
        scale = max(np.abs(z.y).max(), np.abs(z.psi).max())
        assert np.abs(res_y).max() < 1e-10 * scale
        assert np.abs(res_p).max() < 1e-10 * scale

    def test_undamped_operator_rejected(self):
        op = make_operator(zeta_override=0.0)
        from fracdamp.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            resolvent_norm(op, 0.1)


class TestShiftedSystem:
    @staticmethod
    def _dense_shifted(op, lam):
        # i lam - A, column by column from op.apply on unit vectors
        n, m = op.xgrid.x.size, op.xigrid.xi.size
        a = np.empty((n + m, n + m), dtype=np.complex128)
        for j in range(n + m):
            e = np.zeros(n + m, dtype=np.complex128)
            e[j] = 1.0
            out = op.apply(StateVector(y=e[:n], psi=e[n:]))
            a[:, j] = np.concatenate((out.y, out.psi))
        return 1j * lam * np.eye(n + m) - a

    @pytest.mark.parametrize("lam", [3e-2, -3e-2, 5.0, -5.0])
    def test_residuals_against_dense(self, lam, rng):
        op = make_operator(nx=40, nxi=24)
        m = self._dense_shifted(op, lam)
        sys_ = _ShiftedSystem(op, lam)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for solve, mat in ((sys_.solve, m), (sys_.solve_adjoint, m.conj().T)):
            z = solve(f)
            assert np.abs(mat @ z - f).max() < 1e-10 * np.abs(z).max()

    def test_solves_keep_input_and_return_fresh_array(self, rng):
        # the Lanczos update overwrites what a solve returns
        op = make_operator(nx=40, nxi=24)
        sys_ = _ShiftedSystem(op, 0.1)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        kept = f.copy()
        for solve in (sys_.solve, sys_.solve_adjoint):
            z1 = solve(f)
            z2 = solve(f)
            np.testing.assert_array_equal(f, kept)
            np.testing.assert_array_equal(z1, z2)
            assert not np.shares_memory(z1, f)
            assert not np.shares_memory(z1, z2)


def _brute_force_window_fit(logx, logy, min_points=8, slope_band=0.10):
    """Every sub-window scanned, the best by (length, -spread, -start)."""
    n = logx.size
    if n < min_points:
        raise FitDataError(f"need >= {min_points} scan points, got {n}")
    slopes = np.diff(logy) / np.diff(logx)
    best = None
    for i in range(n):
        for j in range(i + min_points - 1, n):
            sl = slopes[i:j]
            m = sl.mean()
            ok = np.max(np.abs(sl - m)) < slope_band * max(abs(m), 0.1)
            if ok:
                key = (j - i + 1, -float(np.std(sl)), -i)
                if best is None or key > best[0]:
                    best = (key, (i, j))
    if best is None:
        raise FitDataError("no sub-window with stable local slope")
    i0, i1 = best[1]
    slope, _, r2 = _fit_line(logx[i0 : i1 + 1], logy[i0 : i1 + 1])
    return i0, i1, slope, r2


class TestWindowFit:
    def _assert_same_as_brute_force(self, logx, logy):
        try:
            expected = _brute_force_window_fit(logx, logy)
        except FitDataError:
            with pytest.raises(FitDataError):
                _stable_window_fit(logx, logy)
            return False
        assert _stable_window_fit(logx, logy) == expected
        return True

    def test_noisy_curves_match_brute_force(self):
        rng = np.random.default_rng(20261018)
        fitted = 0
        for _ in range(120):
            n = int(rng.integers(8, 31))
            logx = np.log(np.geomspace(1e-4, 1e-1, n))
            slope = rng.uniform(-2.0, 0.5)
            noise = rng.choice([0.0, 0.01, 0.03, 0.1])
            logy = slope * logx + noise * np.cumsum(rng.standard_normal(n))
            fitted += self._assert_same_as_brute_force(logx, logy)
        # both outcomes are exercised
        assert 0 < fitted < 120

    def test_exact_ties_match_brute_force(self):
        # three identical runs of slopes separated by steep steps: the three
        # longest windows have bit-identical spreads, and the leftmost wins
        run = [1.0, 1.0625, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        slopes = np.array(run + [3.0] + run + [3.0] + run)
        logx = np.arange(slopes.size + 1, dtype=float)
        logy = np.concatenate(([0.0], np.cumsum(slopes)))
        assert self._assert_same_as_brute_force(logx, logy)
        assert _stable_window_fit(logx, logy)[:2] == (0, 8)

    def test_saturated_head_matches_brute_force(self):
        rng = np.random.default_rng(3)
        lam = np.geomspace(1e-4, 1e-1, 25)
        for floor in (1e-4, 2e-4, 1e-3):
            logy = np.log(1.0 / (lam + floor)) + 1e-3 * rng.standard_normal(25)
            assert self._assert_same_as_brute_force(np.log(lam), logy)

    def test_no_stable_window_raises(self):
        # local slopes alternate between 1 and -1: no window of 8 points
        logx = np.arange(20, dtype=float)
        logy = np.where(np.arange(20) % 2 == 0, 0.0, 1.0)
        assert not self._assert_same_as_brute_force(logx, logy)

    def test_exact_power_law(self):
        lam = np.geomspace(1e-4, 1e-1, 20)
        norms = 2.7 * lam**-1.5
        i0, i1, slope, r2 = _stable_window_fit(np.log(lam), np.log(norms))
        assert (i0, i1) == (0, 19)
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_window_selection_skips_saturated_head(self):
        lam = np.geomspace(1e-4, 1e-1, 24)
        norms = 1.0 / (lam + 2e-4)  # saturates below lambda ~ 2e-4
        i0, i1, slope, _ = _stable_window_fit(np.log(lam), np.log(norms))
        assert i0 > 0  # the flat head is excluded
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_insufficient_points(self):
        lam = np.geomspace(1e-3, 1e-1, 6)
        with pytest.raises(FitDataError):
            _stable_window_fit(np.log(lam), np.log(1.0 / lam))

    def test_flat_curve_fits_with_unit_r_squared(self):
        # constant log-norms: ss_tot is exactly 0 and the flat line fits them
        lam = np.geomspace(1e-3, 1e-1, 10)
        i0, i1, slope, r2 = _stable_window_fit(np.log(lam), np.full(10, np.log(0.7)))
        assert (i0, i1) == (0, 9)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0


class TestScans:
    def test_scan_requires_grid(self):
        stub = DiagonalOperator(-np.ones(4))
        with pytest.raises(ParameterError):
            scan_resolvent(stub, np.array([0.1]))

    def test_scan_csv(self, tmp_path):
        stub = DiagonalOperator(-np.ones(4))
        scan = scan_resolvent(stub, np.geomspace(1e-3, 1e-1, 10))
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,norm"
        assert len(lines) == 11

    def test_flat_scan(self):
        # |1j*lam + 1e9| rounds to 1e9 over the whole grid: every norm is equal
        stub = DiagonalOperator(np.full(4, -1e9))
        scan = scan_resolvent(stub, np.geomspace(1e-3, 1e-1, 10))
        np.testing.assert_allclose(scan.norm, 1e-9, rtol=1e-8)
        assert scan.fit.exponent == pytest.approx(0.0, abs=1e-6)
        assert scan.fit.r_squared == 1.0

    def test_variant_p_near_zero_slope(self):
        op = make_operator(nx=120, nxi=80, xi_min=1e-4, xi_max=1e4)
        scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 13))
        assert scan.regime is ScanRegime.NEAR_ZERO
        assert scan.fit.exponent == pytest.approx(-1.0, abs=0.1)

    def test_exponent_stable_under_refinement(self):
        slopes = []
        for nx, nxi in ((100, 64), (200, 128)):
            op = make_operator(nx=nx, nxi=nxi, xi_min=1e-4, xi_max=1e4)
            scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 13))
            slopes.append(scan.fit.exponent)
        assert abs(slopes[0] - slopes[1]) < 0.05


class TestTheoreticalExponents:
    def test_variant_p(self):
        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        pred = theoretical_exponents(spec)
        assert pred.theta == 1.0
        assert pred.varsigma == 1.0
        assert pred.decay_exponent == 2.0
        assert "gamma>0" in pred.upsilon_provenance

    def test_pprime_power(self):
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        pred = theoretical_exponents(spec)
        assert pred.theta == 1.0
        assert pred.upsilon == 0.5
        assert pred.varsigma == 1.0
        assert pred.decay_exponent == 2.0

    def test_pprime_general(self):
        from fracdamp.model import tabulate_kappa

        spec = ProblemSpec(
            variant=Variant.PPRIME,
            kappa=tabulate_kappa(lambda x: x**1.5, n=300),
            beta=0.5,
            rho=1.0,
        )
        pred = theoretical_exponents(spec)
        assert pred.theta == 1.5
        assert pred.decay_exponent == pytest.approx(2.0 / 1.5)

    def test_pprime_power_above_one_is_general(self):
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(1.5), beta=0.3, rho=1.0)
        pred = theoretical_exponents(spec)
        assert pred.theta == pytest.approx(1.7)
        assert pred.decay_exponent == pytest.approx(2.0 / 1.7)

    def test_theta_at_least_one(self):
        for beta in (0.1, 0.5, 0.9):
            from fracdamp.model import tabulate_kappa

            spec = ProblemSpec(
                variant=Variant.PPRIME,
                kappa=tabulate_kappa(lambda x: x**1.2, n=300),
                beta=beta,
                rho=1.0,
            )
            assert theoretical_exponents(spec).theta >= 1.0


class TestDeterminantScaling:
    def test_variant_p_slope_half_beta(self):
        mu = 1j * np.geomspace(1e-3, 3e-2, 20)
        fit = verify_determinant_scaling(0.5, 0.5, 1.0, mu)
        assert fit.exponent == pytest.approx(2 * 0.5 - 2.0, abs=0.05)

    def test_variant_p_slope_beta_075(self):
        mu = 1j * np.geomspace(1e-3, 3e-2, 20)
        fit = verify_determinant_scaling(0.5, 0.75, 1.0, mu)
        assert fit.exponent == pytest.approx(2 * 0.75 - 2.0, abs=0.05)

    def test_rho_shifts_offset_not_slope(self):
        mu = 1j * np.geomspace(1e-3, 1e-2, 12)
        f1 = verify_determinant_scaling(0.5, 0.5, 1.0, mu)
        f10 = verify_determinant_scaling(0.5, 0.5, 10.0, mu)
        assert f10.exponent == pytest.approx(f1.exponent, abs=0.01)
        assert f10.intercept - f1.intercept == pytest.approx(math.log(10.0), abs=0.02)

    def test_pprime_bracket_slope(self):
        alpha, beta = 0.5, 0.5
        nu = (1 - alpha) / (2 - alpha)
        mu = 1j * np.geomspace(1e-3, 1e-2, 12)
        fit = verify_determinant_scaling(alpha, beta, 1.0, mu, mode="pprime_power")
        assert fit.exponent == pytest.approx(2 * beta + nu - 2.0, abs=0.05)

    def test_large_mu_rejected(self):
        with pytest.raises(ParameterError):
            verify_determinant_scaling(0.5, 0.5, 1.0, 1j * np.array([0.5]))


class TestForcingIntegral:
    def test_matches_impedance_identity(self):
        # with f_psi = eta, the integral reduces to -i * rho * (i lam)^(beta-1)
        op = make_operator(nx=32, nxi=400, xi_min=1e-4, xi_max=1e6)
        lam, beta, rho = 1e-3, 0.5, 1.0
        c = forcing_integral(op, lam, op.xigrid.eta)
        expected = -1j * rho * np.exp((beta - 1.0) * np.log(1j * lam))
        assert c == pytest.approx(expected, rel=1e-5)
