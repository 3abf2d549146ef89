import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import dense, dissipation, make_operator, random_state, resolvent_norm_dense
from fracdamp.errors import ConfigurationError, ParameterError, ShapeError
from fracdamp.model import (
    PowerLawKappa,
    ProblemSpec,
    StateVector,
    Variant,
    inner_product,
)
from fracdamp.operator import (
    _fv_tridiag,
    assemble_operator,
    build_x_grid,
    default_grading,
)
from fracdamp.diffusive import build_xi_quadrature


class TestXGrid:
    def test_uniform_nodes(self):
        # n=4 is below the production minimum; check the formula at n=16
        grid = build_x_grid(16, 1.0)
        np.testing.assert_allclose(grid.x, np.arange(1, 17) / 16.0, rtol=1e-15)

    def test_graded_nodes(self):
        grid = build_x_grid(16, 2.0)
        np.testing.assert_allclose(grid.x, (np.arange(1, 17) / 16.0) ** 2, rtol=1e-15)

    @pytest.mark.parametrize("n,g", [(16, 1.0), (100, 2.0), (333, 3.5), (1000, 4.0)])
    def test_widths_sum_to_one(self, n, g):
        grid = build_x_grid(n, g)
        assert grid.h.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(grid.h > 0)

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            build_x_grid(8, 1.0)
        with pytest.raises(ParameterError):
            build_x_grid(32, 0.5)
        with pytest.raises(ParameterError):
            build_x_grid(32, 5.0)

    def test_default_grading_rule(self):
        weak = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        strong = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(1.5), beta=0.5, rho=1.0)
        assert default_grading(weak) == 1.0
        assert default_grading(strong) == 2.0


class TestAssembly:
    def test_dimension(self, small_op):
        assert small_op.dimension == small_op.xgrid.x.size + small_op.xigrid.xi.size

    @pytest.mark.parametrize(
        "variant,alpha",
        [(Variant.P, 0.5), (Variant.PPRIME, 0.5), (Variant.PPRIME, 1.5), (Variant.P, 0.9)],
    )
    def test_dissipativity_identity(self, variant, alpha, rng):
        # the discrete energy-derivative identity, exact up to roundoff
        op = make_operator(variant=variant, alpha=alpha, nx=48, nxi=48)
        for _ in range(100):
            state = random_state(op, rng)
            lhs = inner_product(op.apply(state), state, op).real
            rhs = dissipation(op, state)
            scale = abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_variant_p_with_strong_degeneracy_rejected(self):
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(1.5), beta=0.5, rho=1.0)
        xg = build_x_grid(32)
        xig = build_xi_quadrature(0.5, 32)
        op = assemble_operator(spec, xg, xig)
        # no Dirichlet ghost flux (m_kappa >= 1): h_0 l_diag[0] is minus the
        # conductance l_off[0] sqrt(h_0 h_1) of the first interface
        h = xg.h
        assert op.l_diag[0] * h[0] == pytest.approx(-op.l_off[0] * np.sqrt(h[0] * h[1]),
                                                    rel=1e-14)
        with pytest.raises(ConfigurationError):
            ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(1.5), beta=0.5, rho=1.0)

    def test_beta_mismatch_rejected(self):
        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        with pytest.raises(ConfigurationError):
            assemble_operator(spec, build_x_grid(32), build_xi_quadrature(0.4, 32))

    def test_pde_block_spectrum_sanity(self):
        # kappa == 1, Dirichlet at 0, Neumann at 1: eigenvalues of the field
        # block are i times -((k+1/2) pi)^2; dense eigensolve oracle at n=400
        grid = build_x_grid(400, 1.0)
        diag, off = _fv_tridiag(lambda x: np.ones_like(np.asarray(x, float)), grid, True)
        vals = eigh_tridiagonal(-diag, -off, select="i", select_range=(0, 3))[0]
        target = ((np.arange(4) + 0.5) * np.pi) ** 2
        np.testing.assert_allclose(vals, target, rtol=1e-2)

    def test_pde_block_weighted_symmetric_nonpositive(self, small_op):
        # h L = D^{1/2} T D^{1/2} (D = diag h) is symmetric by construction
        # and congruent to T, so it is nonpositive when T is
        t = np.diag(small_op.l_diag) + np.diag(small_op.l_off, -1) + np.diag(small_op.l_off, 1)
        eigs = np.linalg.eigvalsh(t)
        assert eigs.max() <= 1e-12 * abs(eigs.min())

    @pytest.mark.parametrize("nx", [32, 64])
    @pytest.mark.parametrize(
        "variant,alpha,g",
        [(Variant.P, 0.5, 1.0), (Variant.PPRIME, 0.5, 1.0), (Variant.PPRIME, 1.5, 2.0)],
    )
    def test_no_kernel(self, variant, alpha, g, nx):
        # Re<AY,Y> = -zeta sum w xi^2 |psi|^2 forces psi = 0 on a kernel
        # vector, then y_b = 0 and L y = 0, so y = 0: sigma_min(A) sits at
        # the slowest relaxation rate xi_min^2, not at 0
        op = make_operator(variant, alpha=alpha, nx=nx, g=g)
        sigma_min = 1.0 / resolvent_norm_dense(op, 0.0)
        assert sigma_min >= 0.5 * op.xigrid.xi_min**2


class TestApply:
    def test_zero_maps_to_zero(self, small_op):
        n, m = small_op.xgrid.x.size, small_op.xigrid.xi.size
        out = small_op.apply(StateVector(y=np.zeros(n), psi=np.zeros(m)))
        assert np.all(out.y == 0) and np.all(out.psi == 0)

    def test_linearity(self, small_op, rng):
        s1 = random_state(small_op, rng)
        s2 = random_state(small_op, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        combo = StateVector(y=a * s1.y + b * s2.y, psi=a * s1.psi + b * s2.psi)
        lhs = small_op.apply(combo)
        r1, r2 = small_op.apply(s1), small_op.apply(s2)
        np.testing.assert_allclose(lhs.y, a * r1.y + b * r2.y, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(lhs.psi, a * r1.psi + b * r2.psi, rtol=1e-13, atol=1e-13)

    def test_psi_only_state_block_structure(self, small_op, rng):
        n, m = small_op.xgrid.x.size, small_op.xigrid.xi.size
        psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        out = small_op.apply(StateVector(y=np.zeros(n), psi=psi))
        np.testing.assert_allclose(out.psi, -small_op.xigrid.xi**2 * psi, rtol=1e-14)
        mask = np.ones(n, dtype=bool)
        mask[small_op.boundary_index] = False
        assert np.all(out.y[mask] == 0)
        assert out.y[small_op.boundary_index] != 0

    def test_constant_field_not_in_kernel_variant_p(self, small_op):
        n, m = small_op.xgrid.x.size, small_op.xigrid.xi.size
        out = small_op.apply(StateVector(y=np.ones(n), psi=np.zeros(m)))
        np.testing.assert_allclose(out.psi, small_op.xigrid.eta, rtol=1e-14)
        assert np.linalg.norm(out.psi) > 0

    def test_constant_field_not_annihilated_pprime_dirichlet(self):
        op = make_operator(variant=Variant.PPRIME, alpha=0.5)
        n, m = op.xgrid.x.size, op.xigrid.xi.size
        out = op.apply(StateVector(y=np.ones(n), psi=np.zeros(m)))
        # Dirichlet ghost at 0 produces a nonzero divergence in the first cell
        assert abs(out.y[0]) > 0

    def test_shape_error(self, small_op):
        with pytest.raises(ShapeError):
            small_op.apply(StateVector(y=np.ones(3), psi=np.ones(2)))

    def test_dense_matches_apply(self, small_op, rng):
        state = random_state(small_op, rng)
        z = np.concatenate((state.y, state.psi))
        ref = dense(small_op) @ z
        out = small_op.apply(state)
        np.testing.assert_allclose(np.concatenate((out.y, out.psi)), ref, rtol=1e-12)

