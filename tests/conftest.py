import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fracdamp import _kernels
from fracdamp.diffusive import build_xi_quadrature
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


def dense(op) -> np.ndarray:
    """The assembled generator A as a dense (n + m) x (n + m) array."""
    n = op.xgrid.x.size
    m = op.xigrid.xi.size
    a = np.zeros((n + m, n + m), dtype=np.complex128)
    # the field block i L = i D^{-1/2} T D^{1/2} (D = diag h)
    sh = np.sqrt(op.xgrid.h)
    t = np.diag(op.l_diag) + np.diag(op.l_off, -1) + np.diag(op.l_off, 1)
    a[:n, :n] = 1j * t * (sh[None, :] / sh[:, None])
    b = op.boundary_index
    a[b, n:] += -(op.zeta / op.xgrid.h[b]) * op.xigrid.w * op.xigrid.eta
    a[n:, b] += op.xigrid.eta
    a[n + np.arange(m), n + np.arange(m)] = -op.xigrid.xi**2
    return a


def dissipation(op, state) -> float:
    """-zeta * sum w_k xi_k^2 |psi_k|^2 <= 0: the right-hand side of the
    discrete dissipation identity Re<A Y, Y>_H = dE/dt."""
    return float(-op.zeta * np.dot(op.xigrid.w * op.xigrid.xi**2, np.abs(state.psi) ** 2))


def weighted_dense(op) -> np.ndarray:
    """Similarity W^(1/2) A W^(-1/2), whose Euclidean geometry is the H one."""
    sw = np.sqrt(op.weights)
    return dense(op) * (sw[:, None] / sw[None, :])


def resolvent_norm_dense(op, lam: float) -> float:
    """Dense full-SVD oracle for ||(i lam - A)^{-1}|| on small instances."""
    a = weighted_dense(op)
    s = np.linalg.svd(1j * lam * np.eye(a.shape[0]) - a, compute_uv=False)
    return float(1.0 / s[-1])


def eigvals_dense(op) -> np.ndarray:
    """Dense-eig oracle for the eigenvalues of A on small instances."""
    return np.linalg.eigvals(weighted_dense(op))


def field_eigenbasis(l_diag, l_off):
    """Dense MRRR oracle (LAPACK dstemr): the eigenpairs (ell, S) of the
    symmetric field tridiagonal T = S diag(ell) S^T, S a dense orthogonal
    n x n array."""
    return eigh_tridiagonal(l_diag, l_off, lapack_driver="stemr")


def march_args(l_diag, l_off, h, b, zeta, w, eta, xi2, y0, psi0, dt, steps):
    """The arguments of ``_kernels.midpoint_march`` for a nodal initial state,
    prepared as ``evolution.simulate`` prepares them: the coupled modes of the
    field spectrum, the initial field's coordinates along them and the energy
    of the rest."""
    l_diag = np.asarray(l_diag)
    spectrum = _kernels.field_spectrum(l_diag, l_off, b)
    ell, s, alpha0, remainder = _kernels.field_modes(l_diag, l_off, spectrum, b, np.sqrt(h) * y0)
    return (ell, s, h[b], zeta, w, eta, xi2, alpha0, psi0, 0.5 * remainder, dt, steps)


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
