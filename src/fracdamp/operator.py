"""Finite-volume assembly of the coupled generator.

The field block is the flux-form second difference i*(kappa y_x)_x on a
graded mesh with no node at x=0, stored once as the symmetric tridiagonal T
that the field spectrum, the march and the resolvent read; the relaxation
block is diagonal; the two couple through one boundary cell.  The coupling
signs are chosen so that the discrete dissipation identity

    Re<A Y, Y>_H = -zeta * sum_k w_k xi_k^2 |psi_k|^2

holds exactly (to roundoff) for every state, mirroring the continuous
boundary cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .diffusive import XiGrid
from .errors import ConfigurationError, ParameterError
from .model import ProblemSpec, StateVector, Variant, _check_compatible, _freeze


@dataclass(frozen=True)
class XGrid:
    """Graded spatial mesh x_i = (i/n)**g, i=1..n, with dual-cell widths.

    Cell interfaces sit midway between nodes, with the outer interfaces
    pinned to 0 and 1, so the widths always sum to 1 exactly.
    """

    x: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        _freeze(self, ("x", "h"))


def build_x_grid(n: int, g: float = 1.0) -> XGrid:
    if n < 16:
        raise ParameterError(f"n must be >= 16, got n={n}")
    if not (1.0 <= g <= 4.0):
        raise ParameterError(f"grading exponent g must lie in [1,4], got g={g}")
    i = np.arange(1, n + 1, dtype=float)
    x = (i / n) ** g
    interfaces = np.empty(n + 1)
    interfaces[0] = 0.0
    interfaces[-1] = 1.0
    interfaces[1:-1] = 0.5 * (x[:-1] + x[1:])
    h = np.diff(interfaces)
    return XGrid(x=x, h=h)


def default_grading(spec: ProblemSpec) -> float:
    """g=2 when the degeneracy is strong (m_kappa >= 1), else 1."""
    return 2.0 if spec.m_kappa >= 1.0 else 1.0


def _fv_tridiag(kappa: Callable, xgrid: XGrid, dirichlet_left: bool):
    """Diagonal and off-diagonal of T = D^{1/2} L D^{-1/2} (D = diag h), for
    the real tridiagonal L with (L y)_i = ((kappa y_x)_x)_i in flux form.

    Interface conductances a are kappa(midpoint)/(node spacing), so L has
    sub-diagonal a/h[1:] and super-diagonal a/h[:-1]; L is self-adjoint in
    the h inner product and T is symmetric, with off-diagonal
    sqrt(sub * sup).  The outer fluxes at x=0 and x=1 are zero here;
    'dirichlet_left' adds the ghost-cell flux kappa(x_1/2) * y_1 / x_1
    instead.  Boundary coupling fluxes are applied separately by the
    operator.
    """
    x, h = xgrid.x, xgrid.h
    n = x.size
    mid = 0.5 * (x[:-1] + x[1:])
    a = np.asarray(kappa(mid), dtype=float) / np.diff(x)
    a_left = float(kappa(0.5 * x[0])) / x[0] if dirichlet_left else 0.0
    diag = np.empty(n)
    diag[0] = -(a_left + a[0]) / h[0] if n > 1 else -a_left / h[0]
    diag[1:-1] = -(a[:-1] + a[1:])[: n - 2] / h[1:-1]
    diag[-1] = -a[-1] / h[-1]
    sub = a / h[1:]
    sup = a / h[:-1]
    return diag, np.copysign(np.sqrt(sub * sup), sup)


class ShiftConstants(NamedTuple):
    """The shift-independent arrays of the shifted solves with i*lam - A.

    ``sqrt_weights`` is the square root of the weighted inner product's
    diagonal (sqrt h ; sqrt(zeta w)), ``i_diag`` and ``neg_i_off`` are
    i*l_diag and -i*l_off, and ``coupling`` is zeta sqrt(h_b)/h_b * w * eta,
    the relaxation rows' weights in the damped cell's equation.
    """

    sqrt_weights: np.ndarray
    i_diag: np.ndarray
    neg_i_off: np.ndarray
    coupling: np.ndarray


@dataclass(frozen=True)
class SystemOperator:
    """Assembled discrete generator with its weighted inner product.

    l_diag/l_off hold the symmetric tridiagonal T = D^{1/2} L D^{-1/2}
    (D = diag h) of the real field tridiagonal L, the field block being
    i*L = i D^{-1/2} T D^{1/2}; `boundary_index` is the damped cell: 0
    (x=0) for variant P, the last cell (x=1) for the primed variant.
    """

    xgrid: XGrid
    xigrid: XiGrid
    zeta: float
    boundary_index: int
    l_diag: np.ndarray
    l_off: np.ndarray

    def __post_init__(self):
        _freeze(self, ("l_diag", "l_off"))

    @property
    def dimension(self) -> int:
        return self.xgrid.x.size + self.xigrid.xi.size

    @property
    def weights(self) -> np.ndarray:
        """Diagonal of the weighted inner product, (h_i ; zeta*w_k)."""
        return np.concatenate((self.xgrid.h, self.zeta * self.xigrid.w))

    def apply(self, state: StateVector) -> StateVector:
        _check_compatible(state, self)
        y, psi = state.y, state.psi
        sqrt_h = np.sqrt(self.xgrid.h)
        v = sqrt_h * y  # L y = D^{-1/2} T D^{1/2} y
        ty = self.l_diag * v
        if y.size > 1:
            ty[:-1] += self.l_off * v[1:]
            ty[1:] += self.l_off * v[:-1]
        out_y = 1j * ty / sqrt_h
        s = np.dot(self.xigrid.w * self.xigrid.eta, psi)
        out_y[self.boundary_index] -= (self.zeta / self.xgrid.h[self.boundary_index]) * s
        out_psi = -self.xigrid.xi**2 * psi + self.xigrid.eta * y[self.boundary_index]
        return StateVector(y=out_y, psi=out_psi)

    @cached_property
    def relaxation_weights(self) -> np.ndarray:
        """a_k^2 = zeta w_k eta_k^2 / h_b, the relaxation modes' squared couplings."""
        return self.zeta * self.xigrid.w * self.xigrid.eta**2 / self.xgrid.h[self.boundary_index]

    @cached_property
    def field_spectrum(self) -> _kernels.FieldSpectrum:
        """The field modes, their boundary weights and which are coupled, once
        per operator (``_kernels.field_spectrum``: O(n) memory, no n x n basis)."""
        return _kernels.field_spectrum(self.l_diag, self.l_off, self.boundary_index)

    @cached_property
    def shift_constants(self) -> ShiftConstants:
        """What every shifted solve shares, once per operator; no field
        eigensolve."""
        h, b = self.xgrid.h, self.boundary_index
        sqrt_w = np.sqrt(self.weights)
        return ShiftConstants(
            sqrt_weights=sqrt_w,
            i_diag=1j * self.l_diag,
            neg_i_off=-1j * self.l_off,
            coupling=(self.zeta * sqrt_w[b] / h[b]) * self.xigrid.w * self.xigrid.eta,
        )

    @cached_property
    def modal_constants(self):
        """What every resolvent shift and the eigenvalue census share, once
        per operator (``resolvent.modal_constants``, which owns their
        layout)."""
        from .resolvent import modal_constants

        return modal_constants(self)


def assemble_operator(spec: ProblemSpec, xgrid: XGrid, xigrid: XiGrid) -> SystemOperator:
    """Build the discrete generator for either variant, damped with spec.zeta.

    The field block does not depend on zeta, so dataclasses.replace(op,
    zeta=0.0) is the same system with the damping severed (exactly
    conservative).
    """
    if abs(xigrid.beta - spec.beta) > 1e-12:
        raise ConfigurationError(
            f"xi-grid was built for beta={xigrid.beta}, problem has beta={spec.beta}"
        )
    diag, off = _fv_tridiag(spec.kappa, xgrid, spec.dirichlet_at_zero)
    return SystemOperator(
        xgrid=xgrid,
        xigrid=xigrid,
        zeta=spec.zeta,
        boundary_index=0 if spec.variant is Variant.P else xgrid.x.size - 1,
        l_diag=diag,
        l_off=off,
    )
