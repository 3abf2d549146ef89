import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import eigvals_dense, make_operator, resolvent_norm_dense
from fracdamp.errors import (
    ConfigurationError,
    FitDataError,
    NumericalError,
    ParameterError,
    SpectralCollisionError,
)
from fracdamp.model import PowerLawKappa, ProblemSpec, StateVector, Variant
from fracdamp import resolvent as resolvent_module
from fracdamp.resolvent import (
    MIN_SCAN_POINTS,
    _Secular,
    _ShiftedSystem,
    _fit_line,
    _stable_window_fit,
    build_modal_constants,
    damped_eigenvalues,
    forcing_integral,
    resolvent_norm,
    scan_resolvent,
    smallest_singular_value,
    solve_resolvent,
    theoretical_exponents,
)
from oracles import bracket_scaling_pprime, determinant_scaling_p, tabulate_kappa


def _secular(delta, x2, n_field):
    # the modes of i lam - A at lam = 0, with poles -delta
    return _Secular(build_modal_constants(-np.asarray(delta, complex), x2, n_field), 0.0)


def _secular_sigma(delta, x2, n_field):
    return _secular(delta, x2, n_field).smallest().sigma


def _modal_matrix(delta, x2, n_field):
    """Dense M = diag(delta) + e_s e_a^T - e_a e_s^T with s, a >= 0."""
    x = np.sqrt(x2)
    es = np.where(np.arange(x.size) < n_field, x, 0.0)
    ea = x - es
    return np.diag(delta) + np.outer(es, ea) - np.outer(ea, es)


def _modal_problem(op, lam):
    # as resolvent_norm poses it: the decoupled field modes enter with weight 0
    spectrum = op.field_spectrum
    delta = np.concatenate((1j * (lam - spectrum.ell), op.xigrid.xi**2 + 1j * lam))
    x2 = np.concatenate((np.where(spectrum.coupled, spectrum.weight, 0.0), op.relaxation_weights))
    return delta, x2, spectrum.ell.size


class TestStubOperators:
    """Decoupled secular problems (relaxation weights a = 0): closed forms."""

    def test_minus_identity_closed_form(self):
        # A = -I: |i lam + 1| = sqrt(1 + lam^2) for every mode
        for lam, expected in ((0.0, 1.0), (1.0, math.sqrt(2.0))):
            delta = np.full(7, 1.0 + 1j * lam)
            assert _secular_sigma(delta, np.zeros(7), 3) == pytest.approx(expected, rel=1e-14)

    def test_diagonal_family_reproduces_closed_form(self):
        rng = np.random.default_rng(7)
        diag = -(0.5 + rng.random(12)) - 1j * rng.standard_normal(12)
        for lam in (0.0, 0.3, -0.8, 2.0):
            delta = 1j * lam - diag
            assert _secular_sigma(delta, np.zeros(12), 5) == pytest.approx(
                np.abs(delta).min(), rel=1e-14
            )

    def test_weighted_diagonal(self):
        # a = 0 removes the coupling e_s e_a^T - e_a e_s^T whatever the field
        # weights s: sigma_min = min |delta|, the norm 1/min |delta|
        rng = np.random.default_rng(11)
        delta = 1j * rng.standard_normal(10) + np.concatenate((np.zeros(6), rng.random(4)))
        x2 = np.concatenate((rng.random(6), np.zeros(4)))
        assert _secular_sigma(delta, x2, 6) == pytest.approx(np.abs(delta).min(), rel=1e-13)

    def test_sign_symmetry_with_conjugation(self):
        # real s, a and real parts of delta: M(-lam) = conj M(lam), so the
        # singular values and sigma_min agree
        rng = np.random.default_rng(5)
        d = np.concatenate((1j * rng.standard_normal(8), rng.random(6)))
        x2 = rng.random(14)
        for lam in (0.05, 0.4, 1.7):
            assert _secular_sigma(d + 1j * lam, x2, 8) == pytest.approx(
                _secular_sigma(np.conj(d) - 1j * lam, x2, 8), rel=1e-12
            )

    def test_spectral_collision(self):
        # a field mode that does not reach the damped cell (decoupled, weight
        # below eps) is an undamped eigenvalue i*ell_k: the shift lam = ell_k
        # is singular
        op = make_operator(nx=100, nxi=60, xi_min=1e-4, xi_max=1e4)
        spectrum = op.field_spectrum
        k = int(np.flatnonzero(~spectrum.coupled)[0])
        lam = float(spectrum.ell[k])
        with pytest.raises(SpectralCollisionError) as exc:
            resolvent_norm(op, lam)
        assert exc.value.nearest_eigenvalue == pytest.approx(1j * lam)


class TestSecular:
    @pytest.mark.parametrize("variant,alpha,g", [(Variant.P, 0.5, 1.0),
                                                 (Variant.PPRIME, 1.5, 2.0)])
    def test_counts_match_dense_svd_counts(self, variant, alpha, g):
        # the closed-form count near zero and at high frequency, on both
        # signs of lam
        rng = np.random.default_rng(3)
        op = make_operator(variant, alpha=alpha, nx=48, nxi=32, g=g)
        for lam in (0.0, 1e-3, -1e-2, 1e-2, -3.0, 40.0, -300.0, 2e3):
            delta, x2, n = _modal_problem(op, lam)
            sv = np.linalg.svd(_modal_matrix(delta, x2, n), compute_uv=False)
            sec = _Secular(op.modal_constants, lam)
            # between neighbouring singular values, well away from both
            mids = np.sqrt(sv[1:] * sv[:-1])[np.abs(np.log(sv[1:] / sv[:-1])) > 1e-6]
            for sigma in rng.choice(mids, size=12, replace=False):
                assert sec.count(sigma) == np.count_nonzero(sv < sigma)

    @pytest.mark.parametrize("variant,alpha,g", [(Variant.P, 0.5, 1.0),
                                                 (Variant.PPRIME, 1.5, 2.0)])
    def test_count_where_the_field_block_is_singular(self, variant, alpha, g):
        # between two field poles the eigenvalue pf - |qf| of the field
        # block A_f of G falls through zero; where it is 0 to rounding, the
        # count eliminates the relaxation block A_r and still matches
        op = make_operator(variant, alpha=alpha, nx=48, nxi=32, g=g)
        checked = 0
        for lam in (1e-2, 40.0, -300.0):
            delta, x2, n = _modal_problem(op, lam)
            sv = np.linalg.svd(_modal_matrix(delta, x2, n), compute_uv=False)
            sec = _Secular(op.modal_constants, lam)

            def f0(sigma):
                pf, qf, _, _ = sec._sums(sigma, sec._none)
                return pf - abs(qf)

            poles = np.sort(sec.r[: sec.k])
            for lo, hi in zip(poles[:-1] * (1.0 + 1e-9), poles[1:] * (1.0 - 1e-9)):
                if not (lo < hi and f0(lo) > 0.0 > f0(hi)):
                    continue
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    lo, hi = (mid, hi) if f0(mid) > 0.0 else (lo, mid)
                # next to adjacent floats the eigenvalue is a millionth of
                # the block's size, or less
                pf, qf, pr, qr = sec._sums(lo, sec._none)
                assert abs(pf - abs(qf)) <= 1e-6 * (abs(pf) + abs(qf))
                e = resolvent_module._schur(pr, qr, pf, qf)  # A_r eliminated
                neg = sum(v < 0.0 for v in (e[0], e[1], e[2] - abs(e[3]), e[2] + abs(e[3])))
                assert resolvent_module._inertia(pf, qf, pr, qr) == neg
                if np.abs(np.log(sv / lo)).min() > 1e-8:
                    assert sec.count(lo) == np.count_nonzero(sv < lo)
                    checked += 1
        assert checked >= 3

    def test_decoupled_closed_form(self):
        # a = 0 on the assembled operator's field modes: 1/min |delta|
        op = make_operator(nx=64, nxi=32)
        delta, x2, n = _modal_problem(op, 0.3)
        x2[n:] = 0.0
        assert 1.0 / _secular_sigma(delta, x2, n) == pytest.approx(
            1.0 / np.abs(delta).min(), rel=1e-13
        )

    def test_one_solve_per_shift_and_deterministic(self):
        op = make_operator(nx=64, nxi=32)
        solves = []

        class Counting:
            # the shifted_system protocol of operator proxies
            def __getattr__(self, name):
                return getattr(op, name)

            def shifted_system(self, lam):
                inner = _ShiftedSystem(op, lam)

                class System:
                    weights = inner.weights

                    @staticmethod
                    def solve(f):
                        solves.append(lam)
                        return inner.solve(f)

                return System()

        report = []
        first = resolvent_norm(Counting(), 0.05, report=report)
        assert solves == [0.05]
        assert resolvent_norm(op, 0.05) == first
        (shift,) = report
        assert shift.norm == first
        assert abs(shift.certificate_gap) < 1e-10  # sigma_min * norm - 1


class TestSearchBranches:
    """Each way the search for sigma_min can end other than on the closed form."""

    def test_escalation_past_the_modal_upper_bound_is_a_numerical_error(self, monkeypatch):
        # no free mode caps the search, and no count ever reaches 1: the
        # last gap point doubles 64 times and the search gives up
        monkeypatch.setattr(_Secular, "count", lambda self, sigma: 0)
        rng = np.random.default_rng(4)
        sec = _secular(1j * rng.standard_normal(8) + rng.random(8), rng.random(8) + 0.1, 5)
        with pytest.raises(NumericalError, match="modal upper bound") as info:
            sec.smallest()
        assert info.value.diagnostics["upper_bound"] == sec.upper_bound()

    def test_escalation_up_to_a_free_mode_returns_it(self, monkeypatch):
        # a free mode caps the escalation: its pole is sigma_min
        monkeypatch.setattr(_Secular, "count", lambda self, sigma: 0)
        x2 = np.full(8, 0.5)
        x2[2] = 0.0
        delta = 1j * np.arange(1.0, 9.0)
        root = _secular(delta, x2, 5).smallest()
        assert (root.free, root.sigma) == (2, 3.0)

    def test_a_count_that_never_falls_reaches_the_zero_floor(self, monkeypatch):
        # the bracket below the first pole moves down by factors of 4 to
        # eps^2 of its start: sigma_min is 0, a singular shift
        monkeypatch.setattr(_Secular, "count", lambda self, sigma: 1)
        op = make_operator(nx=32, nxi=16)
        assert _Secular(op.modal_constants, 0.1).smallest().sigma == 0.0
        with pytest.raises(SpectralCollisionError, match="sigma_min is 0"):
            resolvent_norm(op, 0.1)

    @pytest.mark.parametrize("lam", [1e-3, 0.0042, 300.0])
    def test_without_the_closed_form_zheev_counts_the_same(self, lam, monkeypatch):
        # a closed form that meets a singular block hands the count to
        # zheev; with every count there the search ends on the same norm
        op = make_operator(Variant.P, nx=200, nxi=200, xi_min=1e-4, xi_max=1e4)
        reports = []
        want = resolvent_norm(op, lam, report=reports)
        monkeypatch.setattr(resolvent_module, "_inertia", lambda *sums: None)
        again = []
        assert resolvent_norm(op, lam, report=again) == pytest.approx(want, rel=1e-12)
        assert abs(again[0].certificate_gap) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-3, 0.0042, 300.0])
    def test_without_a_crossing_value_bisection_ends_on_the_same_norm(self, lam, monkeypatch):
        # no diagonal block keeping its inertia over the bracket: the value
        # is nan and the search bisects in t, to the same 4-eps bracket
        op = make_operator(Variant.P, nx=200, nxi=200, xi_min=1e-4, xi_max=1e4)
        reports = []
        want = resolvent_norm(op, lam, report=reports)
        monkeypatch.setattr(_Secular, "_crossing", lambda self, *args: lambda x: math.nan)
        again = []
        assert resolvent_norm(op, lam, report=again) == pytest.approx(want, rel=1e-12)
        assert again[0].evaluations > reports[0].evaluations


class TestEvaluationCounts:
    """The counts the search spends at nx=200 (nxi=200, xi in [1e-4, 1e4]):
    25 lambdas near zero and 25 at high frequency, the benchmark scans'
    ranges.  The median may not exceed the one measured here, nor the
    maximum the one measured plus 2: a count whose sign decision on a
    rounded sum falls the other way under another BLAS build moves by one.
    A slower search fails here on an exact count."""

    @pytest.mark.parametrize("variant,low,high", [
        (Variant.P, (11, 16), (12, 14)),
        (Variant.PPRIME, (10, 13), (12, 14)),
    ], ids=["P", "Pprime"])
    def test_median_and_maximum(self, variant, low, high):
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.operator import assemble_operator, build_x_grid, default_grading

        spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        op = assemble_operator(spec, build_x_grid(200, default_grading(spec)),
                               build_xi_quadrature(0.5, 200))
        for pins, lams in ((low, np.geomspace(1e-4, 1e-1, 25)),
                           (high, np.geomspace(1e1, 1e4, 25))):
            counts = [r.evaluations for r in scan_resolvent(op, lams).shifts]
            median, maximum = pins
            assert np.median(counts) <= median and max(counts) <= maximum + 2, counts


class TestAssembledNorms:
    def test_against_dense_svd_oracle(self):
        op = make_operator(nx=100, nxi=50, xi_min=1e-4, xi_max=1e4)
        for lam in (1e-3, 1e-2, 0.3):
            it = resolvent_norm(op, lam)
            dense = resolvent_norm_dense(op, lam)
            assert it == pytest.approx(dense, rel=1e-6)
        # general coefficient at the outer end (criterion 5): the dense norm
        # sits on the relaxation floor 1/|lambda|, so the floor belongs to the
        # operator, and the secular solve reaches it
        for beta in (0.3, 0.5):
            op = make_operator(Variant.PPRIME, alpha=1.5, beta=beta, nx=100, nxi=60,
                               g=2.0, xi_min=1e-4, xi_max=1e4)
            for lam in (1e-4, 1e-3, 1e-2, 1e-1):
                it = resolvent_norm(op, lam)
                dense = resolvent_norm_dense(op, lam)
                assert it == pytest.approx(dense, rel=1e-6)
                assert lam * dense >= 1.0 - 1e-6
                assert lam * it >= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "variant,alpha,g",
        [(Variant.P, 0.5, 1.0), (Variant.PPRIME, 0.5, 1.0), (Variant.PPRIME, 1.5, 2.0)],
        ids=["P", "Pprime-0.5", "Pprime-1.5"],
    )
    def test_matches_dense_oracle_at_resonances(self, variant, alpha, g):
        # xi in [1e-3, 1e2] keeps the dense SVD itself accurate at lam = 0;
        # the grid holds lam = 0, lam = ell_k exactly for coupled field modes
        # and negative lam next to them (the resonances i*ell_k)
        op = make_operator(variant, alpha=alpha, nx=100, nxi=60, g=g)
        spectrum = op.field_spectrum
        coupled = np.flatnonzero(spectrum.weight > 1e-8)
        ells = spectrum.ell[coupled[-4:]]
        lams = [0.0, 1e-3, 0.3, 25.0, -0.3]
        lams += [float(e) for e in ells]
        lams += [float(e) * (1.0 + 1e-7) for e in ells] + [float(e) - 1e-3 for e in ells]
        for lam in lams:
            assert resolvent_norm(op, lam) == pytest.approx(
                resolvent_norm_dense(op, lam), rel=1e-6
            ), lam

    @pytest.mark.parametrize("nx", [40, 100])
    def test_decoupled_field_mode_carries_sigma_min(self, nx):
        # next to a decoupled field frequency ell_k (weight below eps) on P,
        # sigma_min is the free pole |lam - ell_k|, whose singular vector is
        # the field eigenvector q_k itself
        op = make_operator(Variant.P, nx=nx, nxi=24)
        spectrum = op.field_spectrum
        for k in np.flatnonzero(~spectrum.coupled)[:2]:
            gap = np.abs(np.delete(spectrum.ell, k) - spectrum.ell[k]).min()
            for step in (1e-3, 1e-6):
                lam = float(spectrum.ell[k] + step * gap)
                assert _Secular(op.modal_constants, lam).smallest().free == k
                reports = []
                norm = resolvent_norm(op, lam, report=reports)
                assert norm == pytest.approx(resolvent_norm_dense(op, lam), rel=1e-8)
                assert reports[0].field_share == pytest.approx(1.0, abs=1e-12)

    def test_random_operators_match_solved_inverse(self):
        # coefficients, damping, grids and shifts drawn at random, lam = ell_k
        # among them; the oracle is the largest singular value of the
        # inverse built column by column from shifted solves.  A shift at an
        # undamped (decoupled) field frequency is a collision.
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.operator import assemble_operator, build_x_grid

        rng = np.random.default_rng(2026)
        for _ in range(6):
            variant = Variant.P if rng.random() < 0.5 else Variant.PPRIME
            alpha = rng.uniform(0.1, 0.95) if variant is Variant.P else rng.uniform(0.1, 1.9)
            beta = rng.uniform(0.1, 0.9)
            spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(alpha), beta=beta,
                               rho=10 ** rng.uniform(-1, 1))
            op = assemble_operator(
                spec, build_x_grid(int(rng.integers(16, 80)), float(rng.choice([1.0, 2.0]))),
                build_xi_quadrature(beta, int(rng.integers(16, 48)), 10 ** rng.uniform(-4, -1),
                                    10 ** rng.uniform(1, 4)),
            )
            spectrum = op.field_spectrum
            lams = [0.0, *(10 ** rng.uniform(-5, 4, 3)), *(-(10 ** rng.uniform(-5, 4, 3))),
                    float(rng.choice(spectrum.ell[spectrum.weight > 1e-6]))]
            n_all = op.dimension
            sw = np.sqrt(op.weights)
            for lam in lams:
                system = _ShiftedSystem(op, lam)
                inverse = np.stack([sw * system.solve(np.eye(n_all)[j] / sw[j])
                                    for j in range(n_all)], axis=1)
                oracle = np.linalg.svd(inverse, compute_uv=False)[0]
                assert resolvent_norm(op, lam) == pytest.approx(oracle, rel=1e-8), lam
            undamped = spectrum.ell[~spectrum.coupled]
            if undamped.size:
                with pytest.raises(SpectralCollisionError):
                    resolvent_norm(op, float(undamped[0]))

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

    def test_shifted_solves_need_no_field_spectrum(self, rng):
        # the relaxation weights a_k^2 of the boundary impedance are formed
        # without the field eigensolve, which oracle-compare never needs
        op = make_operator(nx=40, nxi=24)
        solve_resolvent(op, 3e-2, rng.standard_normal(40), rng.standard_normal(24))
        assert "field_spectrum" not in vars(op)
        np.testing.assert_allclose(
            op.relaxation_weights,
            op.zeta * op.xigrid.w * op.xigrid.eta**2 / op.xgrid.h[op.boundary_index],
            rtol=1e-15,
        )

    def test_undamped_operator_rejected(self):
        op = replace(make_operator(), zeta=0.0)

        with pytest.raises(ConfigurationError):
            resolvent_norm(op, 0.1)

    def test_certificate_off_the_secular_value_is_a_numerical_error(self, monkeypatch):
        # a tolerance below zero: no certificate can agree with 1/sigma
        monkeypatch.setattr(resolvent_module, "_CERTIFICATE_RTOL", -1.0)
        with pytest.raises(NumericalError, match="certificate disagrees") as info:
            resolvent_norm(make_operator(nx=32, nxi=24), 0.1)
        diag = info.value.diagnostics
        assert set(diag) == {"lambda", "sigma", "certificate", "gap", "local_condition",
                             "evaluations"}
        assert diag["lambda"] == 0.1
        assert diag["certificate"] * diag["sigma"] == pytest.approx(1.0, abs=1e-7)


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
        z = sys_.solve(f)
        assert np.abs(m @ z - f).max() < 1e-10 * np.abs(z).max()

    def test_solves_keep_input_and_return_fresh_array(self, rng):
        op = make_operator(nx=40, nxi=24)
        sys_ = _ShiftedSystem(op, 0.1)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        kept = f.copy()
        z1 = sys_.solve(f)
        z2 = sys_.solve(f)
        np.testing.assert_array_equal(f, kept)
        np.testing.assert_array_equal(z1, z2)
        assert not np.shares_memory(z1, f)
        assert not np.shares_memory(z1, z2)

    def test_failed_factorization_is_a_spectral_collision(self, monkeypatch):
        # zgttrf's info > 0 is an exactly zero pivot: the shift is on an
        # eigenvalue, and sigma_min at that shift reads 0
        from fracdamp import _kernels

        zgttrf = _kernels._lapack.zgttrf
        monkeypatch.setattr(_kernels._lapack, "zgttrf", lambda *args: (*zgttrf(*args)[:-1], 1))
        op = make_operator(nx=40, nxi=24)
        with pytest.raises(SpectralCollisionError, match="LAPACK zgttrf failed with info=1"):
            _ShiftedSystem(op, 0.1)
        assert smallest_singular_value(op) == 0.0

    def test_an_object_that_is_not_an_operator_is_refused(self):
        with pytest.raises(ConfigurationError, match="cannot build a resolvent system for object"):
            resolvent_module._shifted_system(object(), 1.0)


# (variant, alpha, grading): P with its zero Neumann frequency, P' with the
# Dirichlet-type and the weighted-Neumann end
CENSUS_CASES = [(Variant.P, 0.5, 1.0), (Variant.PPRIME, 0.5, 1.0), (Variant.PPRIME, 1.5, 2.0)]


class TestDampedEigenvalues:
    @staticmethod
    def _match(dense, values):
        """Largest distance of a one-to-one pairing, relative to max(|lambda|, 1)."""
        from scipy.optimize import linear_sum_assignment

        dist = np.abs(dense[:, None] - values[None, :])
        rows, cols = linear_sum_assignment(dist)
        return float((dist[rows, cols] / np.maximum(np.abs(dense[rows]), 1.0)).max())

    @pytest.mark.parametrize("beta", [0.3, 0.5])
    @pytest.mark.parametrize("variant,alpha,g", CENSUS_CASES)
    def test_matches_dense_eig(self, variant, alpha, g, beta):
        # the relaxation band holds mid-band roots a few hundredths off the
        # real axis and roots within 1e-6 of their poles; on P and on P'
        # alpha=1.5 the zero field frequency continues into the band
        op = make_operator(variant, alpha=alpha, beta=beta, nx=100, g=g)
        census = damped_eigenvalues(op)
        coupled = int(np.count_nonzero(op.field_spectrum.coupled))
        assert census.expected == coupled + op.xigrid.xi.size
        assert census.values.size == op.dimension
        assert self._match(eigvals_dense(op), census.values) <= 1e-9

    def test_undamped_operator_is_refused(self):
        with pytest.raises(ConfigurationError, match="requires a damped operator"):
            damped_eigenvalues(replace(make_operator(nx=32, nxi=16), zeta=0.0))

    def test_census_appends_a_recovered_root(self):
        # a coarse P grid with a narrow relaxation band: one root is reached
        # by no start and is found by deflated Newton inside the census
        op = make_operator(Variant.P, alpha=0.7, beta=0.3, nx=16, nxi=16,
                           xi_min=1e-2, xi_max=1e2)
        census = damped_eigenvalues(op)
        assert census.recovered >= 1
        assert census.values.size == op.dimension
        assert self._match(eigvals_dense(op), census.values) <= 1e-9

    @pytest.mark.parametrize("variant,alpha,g", [CENSUS_CASES[0], CENSUS_CASES[2]])
    def test_deflation_recovers_a_left_out_root(self, variant, alpha, g):
        # the roots next to -1: mid-band relaxation roots and the damped
        # continuation of the zero field frequency, which sits next to
        # neither pole family
        op = make_operator(variant, alpha=alpha, beta=0.3, nx=100, g=g)
        census = damped_eigenvalues(op)
        roots = census.values[-census.expected:]
        char = resolvent_module._Characteristic(op)
        w0 = char.recovery_starts()[0]
        for k in np.argsort(np.abs(roots + 1.0))[:8]:
            w, ok, _ = char.deflated_root(w0, np.delete(roots, k))
            assert ok
            assert abs(w - roots[k]) <= 1e-9 * max(abs(roots[k]), 1.0)


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
    return (i0, i1, *_fit_line(logx[i0 : i1 + 1], logy[i0 : i1 + 1]))


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
        i0, i1, slope, _, r2 = _stable_window_fit(np.log(lam), np.log(norms))
        assert (i0, i1) == (0, 19)
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_window_selection_skips_saturated_head(self):
        lam = np.geomspace(1e-4, 1e-1, 24)
        norms = 1.0 / (lam + 2e-4)  # saturates below lambda ~ 2e-4
        i0, i1, slope, _, _ = _stable_window_fit(np.log(lam), np.log(norms))
        assert i0 > 0  # the flat head is excluded
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_insufficient_points(self):
        lam = np.geomspace(1e-3, 1e-1, 6)
        with pytest.raises(FitDataError):
            _stable_window_fit(np.log(lam), np.log(1.0 / lam))

    def test_flat_curve_fits_with_unit_r_squared(self):
        # constant log-norms: ss_tot is exactly 0 and the flat line fits them
        lam = np.geomspace(1e-3, 1e-1, 10)
        i0, i1, slope, _, r2 = _stable_window_fit(np.log(lam), np.full(10, np.log(0.7)))
        assert (i0, i1) == (0, 9)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0


class TestScans:
    def test_scan_requires_grid(self):
        with pytest.raises(ParameterError):
            scan_resolvent(make_operator(nx=32, nxi=16), np.array([0.1]))

    def test_too_few_lambdas_are_refused_before_any_norm(self, monkeypatch):
        calls = []

        def counting_norm(op, lam, *, report=None):
            calls.append(lam)
            return 1.0

        monkeypatch.setattr(resolvent_module, "resolvent_norm", counting_norm)
        lams = np.geomspace(1e-3, 1e-1, MIN_SCAN_POINTS - 1)
        with pytest.raises(ParameterError, match=f">= {MIN_SCAN_POINTS} lambdas"):
            scan_resolvent(make_operator(nx=32, nxi=16), lams)
        assert calls == []
        scan_resolvent(make_operator(nx=32, nxi=16), np.geomspace(1e-3, 1e-1, MIN_SCAN_POINTS))
        assert len(calls) == MIN_SCAN_POINTS

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
    def test_scan_refuses_zero_and_non_finite_lambda(self, bad):
        with pytest.raises(ParameterError, match="finite and nonzero"):
            scan_resolvent(make_operator(nx=32, nxi=24), [1e-3, bad, 1e-1])

    @pytest.mark.parametrize("lams", [
        np.full(MIN_SCAN_POINTS, 1e-3),  # repeated: every norm the same
        np.geomspace(1e-3, 1e-1, MIN_SCAN_POINTS)[[0, 2, 1, 3, 4, 5, 6, 7]],  # unsorted
        np.geomspace(1e-3, 1e-1, MIN_SCAN_POINTS) * np.repeat([-1.0, 1.0], 4),  # mixed sign
    ], ids=["repeated", "unsorted", "mixed-sign"])
    def test_scan_refuses_a_grid_that_is_not_one_signed_and_monotone(self, lams, monkeypatch):
        calls = []
        monkeypatch.setattr(resolvent_module, "resolvent_norm",
                            lambda op, lam, *, report=None: calls.append(lam))
        with pytest.raises(ParameterError, match="strictly monotone"):
            scan_resolvent(make_operator(nx=32, nxi=24), lams)
        assert calls == []

    def test_scan_refuses_a_two_dimensional_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(resolvent_module, "resolvent_norm",
                            lambda op, lam, *, report=None: calls.append(lam))
        lams = np.geomspace(1e-3, 1e-1, 2 * MIN_SCAN_POINTS).reshape(2, MIN_SCAN_POINTS)
        with pytest.raises(ParameterError, match="1-d array"):
            scan_resolvent(make_operator(nx=32, nxi=24), lams)
        assert calls == []

    def test_scan_takes_a_descending_grid(self):
        scan = scan_resolvent(make_operator(nx=32, nxi=24), np.geomspace(-1e-1, -1e-3, 8))
        assert scan.norm.shape == (8,)

    def test_scan_csv(self, tmp_path):
        scan = scan_resolvent(make_operator(nx=32, nxi=16), np.geomspace(1e-3, 1e-1, 10))
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,norm"
        assert len(lines) == 11
        # telemetry stays out of the CSV: one report per shift, stage times
        assert [r.lam for r in scan.shifts] == list(scan.lam)
        assert set(scan.stage_s) == {"eigensolve", "shifts", "fit"}

    def test_flat_scan(self, monkeypatch):
        # a norm curve that is exactly constant: the fit is the flat line
        def flat_norm(op, lam, *, report=None):
            return 1e-9

        monkeypatch.setattr(resolvent_module, "resolvent_norm", flat_norm)
        scan = scan_resolvent(make_operator(nx=32, nxi=16), np.geomspace(1e-3, 1e-1, 10))
        np.testing.assert_allclose(scan.norm, 1e-9, rtol=1e-8)
        assert scan.fit.exponent == pytest.approx(0.0, abs=1e-6)
        assert scan.fit.r_squared == 1.0

    def test_scan_without_a_stable_window_keeps_its_norms(self, monkeypatch):
        # local slopes alternating between +1 and -1: no window of 8 points
        lams = np.geomspace(1e-3, 1e-1, 12)
        zigzag = dict(zip(lams, np.where(np.arange(12) % 2 == 0, 1.0, 2.0)))

        def zigzag_norm(op, lam, *, report=None):
            return zigzag[lam]

        monkeypatch.setattr(resolvent_module, "resolvent_norm", zigzag_norm)
        scan = scan_resolvent(make_operator(nx=32, nxi=16), lams)
        assert scan.fit is None
        assert "no sub-window of 8 or more points with stable local slope" in scan.fit_error
        np.testing.assert_array_equal(scan.norm, [zigzag[v] for v in lams])
        assert set(scan.stage_s) == {"eigensolve", "shifts", "fit"}

    def test_scans_repeat_exactly(self):
        lams = np.geomspace(1e-4, 1e-1, 13)
        first = scan_resolvent(make_operator(nx=64, nxi=32), lams)
        again = scan_resolvent(make_operator(nx=64, nxi=32), lams)
        np.testing.assert_array_equal(first.norm, again.norm)

    @pytest.mark.parametrize("variant,alpha", [(Variant.P, 0.5), (Variant.PPRIME, 0.5),
                                               (Variant.PPRIME, 1.5)])
    def test_field_share_vanishes_near_zero(self, variant, alpha):
        # the scan-low configurations (README grids, nx=800, nxi=200): below
        # lam = 3.2e-3 the top singular vector lives in the relaxation block,
        # so the near-zero slope is the relaxation floor's
        from fracdamp.diffusive import build_xi_quadrature
        from fracdamp.operator import assemble_operator, build_x_grid, default_grading

        spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(alpha), beta=0.5, rho=1.0)
        op = assemble_operator(spec, build_x_grid(800, default_grading(spec)),
                               build_xi_quadrature(0.5, 200))
        lams = np.geomspace(1e-4, 1e-1, 25)
        scan = scan_resolvent(op, lams[lams <= 3.2e-3])
        assert max(r.field_share for r in scan.shifts) < 1e-6

    def test_variant_p_near_zero_slope(self):
        op = make_operator(nx=120, nxi=80, xi_min=1e-4, xi_max=1e4)
        scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 13))
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
        assert pred.decay_exponent == 2.0
        assert pred.upsilon == 1.0

    def test_pprime_power(self):
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        pred = theoretical_exponents(spec)
        assert pred.theta == 1.0
        assert pred.upsilon == 0.5
        assert pred.decay_exponent == 2.0

    def test_pprime_general(self):
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
        fit = determinant_scaling_p(0.5, 0.5, 1.0, mu)
        assert fit.exponent == pytest.approx(2 * 0.5 - 2.0, abs=0.05)

    def test_variant_p_slope_beta_075(self):
        mu = 1j * np.geomspace(1e-3, 3e-2, 20)
        fit = determinant_scaling_p(0.5, 0.75, 1.0, mu)
        assert fit.exponent == pytest.approx(2 * 0.75 - 2.0, abs=0.05)

    def test_rho_shifts_offset_not_slope(self):
        mu = 1j * np.geomspace(1e-3, 1e-2, 12)
        f1 = determinant_scaling_p(0.5, 0.5, 1.0, mu)
        f10 = determinant_scaling_p(0.5, 0.5, 10.0, mu)
        assert f10.exponent == pytest.approx(f1.exponent, abs=0.01)
        assert f10.intercept - f1.intercept == pytest.approx(math.log(10.0), abs=0.02)

    def test_pprime_bracket_slope(self):
        alpha, beta = 0.5, 0.5
        nu = (1 - alpha) / (2 - alpha)
        mu = 1j * np.geomspace(1e-3, 1e-2, 12)
        fit = bracket_scaling_pprime(alpha, beta, 1.0, mu)
        assert fit.exponent == pytest.approx(2 * beta + nu - 2.0, abs=0.05)

    def test_large_mu_rejected(self):
        with pytest.raises(ParameterError):
            determinant_scaling_p(0.5, 0.5, 1.0, 1j * np.array([0.5]))


class TestForcingIntegral:
    def test_matches_impedance_identity(self):
        # with f_psi = eta, the integral reduces to -i * rho * (i lam)^(beta-1)
        op = make_operator(nx=32, nxi=400, xi_min=1e-4, xi_max=1e6)
        lam, beta, rho = 1e-3, 0.5, 1.0
        c = forcing_integral(op, lam, op.xigrid.eta)
        expected = -1j * rho * np.exp((beta - 1.0) * np.log(1j * lam))
        assert c == pytest.approx(expected, rel=1e-5)
