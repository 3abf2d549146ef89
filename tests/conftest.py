import numpy as np
import pytest

from fracdamp.diffusive import build_xi_quadrature
from fracdamp.errors import ParameterError, SpectralCollisionError
from fracdamp.model import PowerLawKappa, ProblemSpec, Variant
from fracdamp.operator import assemble_operator, build_x_grid


def make_operator(
    variant=Variant.P,
    alpha=0.5,
    beta=0.5,
    rho=1.0,
    nx=64,
    nxi=64,
    g=1.0,
    xi_min=1e-3,
    xi_max=1e2,
):
    """Small assembled operator for structural tests (modest xi range keeps

    dense eigenproblems well conditioned)."""
    spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(alpha), beta=beta, rho=rho)
    xg = build_x_grid(nx, g)
    xig = build_xi_quadrature(beta, nxi, xi_min, xi_max)
    return assemble_operator(spec, xg, xig)


def resolvent_norm_dense(op, lam: float) -> float:
    """Dense full-SVD oracle for ||(i lam - A)^{-1}|| on small instances."""
    a = op.weighted_dense()
    s = np.linalg.svd(1j * lam * np.eye(a.shape[0]) - a, compute_uv=False)
    return float(1.0 / s[-1])


@pytest.fixture
def small_op():
    return make_operator()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_state(op, rng):
    from fracdamp.model import StateVector

    n, m = op.xgrid.x.size, op.xigrid.xi.size
    return StateVector(
        y=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        psi=rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )


class DiagonalOperator:
    """Diagonal operator with closed-form resolvent norms.

    It stands in for an assembled operator through the ``shifted_system(lam)``
    protocol that ``resolvent_norm`` accepts.
    """

    def __init__(self, diag, weights=None):
        self.diag = np.asarray(diag, dtype=np.complex128)
        w = np.ones(self.diag.size) if weights is None else np.asarray(weights, float)
        if np.any(w <= 0):
            raise ParameterError("stub weights must be positive")
        self.weights = w
        self.zeta = 1.0

    def shifted_system(self, lam: float):
        return _DiagonalShifted(self, lam)


class _DiagonalShifted:
    def __init__(self, op: DiagonalOperator, lam: float):
        self.denom = 1j * lam - op.diag
        if np.any(np.abs(self.denom) < 1e-300):
            k = int(np.argmin(np.abs(self.denom)))
            raise SpectralCollisionError(lam, complex(op.diag[k]))
        self.weights = op.weights

    def solve(self, f):
        return f / self.denom

    def solve_adjoint(self, f):
        return f / np.conj(self.denom)
