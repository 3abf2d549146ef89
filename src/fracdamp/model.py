"""Problem configuration, degeneracy measure and discrete energy.

A problem couples a Schrodinger-type field y on (0,1] whose diffusion
coefficient kappa vanishes at x=0 with a family of boundary relaxation modes
psi(xi).  The damping strength enters through the weight
zeta = rho*sin(beta*pi)/pi; the position of the degeneracy measure
m_kappa = sup x|kappa'(x)|/kappa(x) relative to 1 selects the boundary
condition at the degenerate end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import (
    CoefficientError,
    ConfigurationError,
    HypothesisViolationError,
    ParameterError,
    ShapeError,
)


class Variant(str, enum.Enum):
    """Which end carries the fractional damping.

    P      - damping acts at the degenerate end x=0, free Neumann end at x=1.
    Pprime - damping acts at x=1; the condition at x=0 follows the degeneracy
             class (Dirichlet for m_kappa < 1, zero weighted flux otherwise).
    """

    P = "P"
    PPRIME = "Pprime"


def _freeze(obj, names, dtype=float) -> None:
    """Store each named field of a frozen dataclass as a read-only copy, so
    that the caller's own array stays writable."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def derive_constants(beta: float, rho: float) -> float:
    """The diffusive weight zeta = rho*sin(beta*pi)/pi of the damping."""
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0,1), got beta={beta}")
    if not (rho > 0.0):
        raise ParameterError(f"rho must be positive, got rho={rho}")
    return rho * math.sin(beta * math.pi) / math.pi


@dataclass(frozen=True)
class PowerLawKappa:
    """kappa(x) = x**alpha with 0 < alpha < 2."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must lie in (0,2), got alpha={self.alpha}")

    def __call__(self, x):
        return np.power(np.asarray(x, dtype=float), self.alpha)


@dataclass(frozen=True)
class TabulatedKappa:
    """kappa given by samples on (0,1]; kappa(0)=0 is implied.

    Evaluation interpolates linearly between samples (anchored at (0,0));
    points beyond the last sample reuse the last value.
    """

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("x", "values"))
        x, v = self.x, self.values
        if x.ndim != 1 or x.shape != v.shape or x.size < 3:
            raise CoefficientError("tabulated kappa needs matching 1-d arrays with >= 3 samples")
        if np.any(np.diff(x) <= 0):
            raise CoefficientError("tabulated kappa sample locations must be strictly increasing")
        if x[0] <= 0.0 or x[-1] > 1.0:
            raise CoefficientError("tabulated kappa samples must lie in (0, 1]")
        if np.any(v <= 0.0):
            raise CoefficientError("tabulated kappa must be positive at every sample")

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        return np.interp(xq, np.concatenate(([0.0], self.x)), np.concatenate(([0.0], self.values)))


KappaSpec = Union[PowerLawKappa, TabulatedKappa]


def degeneracy_measure(kappa: KappaSpec) -> float:
    """The degeneracy measure m_kappa = sup x|kappa'(x)|/kappa(x).

    Power laws give m_kappa = alpha exactly.  Tabulated coefficients are
    measured by maximizing x|kappa'|/kappa over the interior samples with a
    centered (three-point, nonuniform) finite difference; no interpolation
    refinement is attempted.
    """
    if isinstance(kappa, PowerLawKappa):
        m = float(kappa.alpha)
    elif isinstance(kappa, TabulatedKappa):
        x, v = kappa.x, kappa.values
        hp = x[2:] - x[1:-1]
        hm = x[1:-1] - x[:-2]
        deriv = (
            v[2:] * hm**2 - v[:-2] * hp**2 + v[1:-1] * (hp**2 - hm**2)
        ) / (hp * hm * (hp + hm))
        ratio = x[1:-1] * np.abs(deriv) / v[1:-1]
        m = float(ratio.max())
    else:
        raise CoefficientError(f"unsupported kappa specification {type(kappa).__name__}")
    if m >= 2.0:
        raise HypothesisViolationError(
            f"degeneracy measure m_kappa={m:.6g} violates the hypothesis m_kappa < 2"
        )
    return m


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem description.

    The damping kernel is rho*tau**(-beta)/Gamma(1-beta), untempered; a
    JSON document may still carry "gamma": 0, and from_json refuses any
    other value.
    """

    variant: Variant
    kappa: KappaSpec
    beta: float
    rho: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError as exc:
            raise ConfigurationError(f"unknown variant {self.variant!r}") from exc
        derive_constants(self.beta, self.rho)  # checks beta and rho
        if self.variant is Variant.P:
            if not isinstance(self.kappa, PowerLawKappa) or not (0.0 < self.kappa.alpha < 1.0):
                raise ConfigurationError(
                    "variant P requires a power-law coefficient with alpha in (0,1)"
                )
        self.m_kappa  # checks the hypothesis m_kappa < 2

    @property
    def alpha(self) -> Optional[float]:
        return self.kappa.alpha if isinstance(self.kappa, PowerLawKappa) else None

    @property
    def zeta(self) -> float:
        return derive_constants(self.beta, self.rho)

    @cached_property
    def m_kappa(self) -> float:
        return degeneracy_measure(self.kappa)

    @property
    def dirichlet_at_zero(self) -> bool:
        """The condition at x=0: Dirichlet on P' with m_kappa < 1, else zero
        (weighted) flux.  On P, x=0 is the damped end and m_kappa < 1 always."""
        return self.variant is Variant.PPRIME and self.m_kappa < 1.0

    # -- serialization (derived fields are always recomputed) ---------------

    def to_json(self) -> dict:
        doc = {"variant": self.variant.value, "beta": self.beta, "rho": self.rho}
        if isinstance(self.kappa, PowerLawKappa):
            doc["alpha"] = self.kappa.alpha
        else:
            doc["kappa_samples"] = {
                "x": self.kappa.x.tolist(),
                "values": self.kappa.values.tolist(),
            }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ProblemSpec":
        if doc.get("gamma", 0) != 0:
            raise ConfigurationError(
                f"the damping kernel is untempered; 'gamma' must be 0, got {doc['gamma']!r}")
        if "alpha" in doc and "kappa_samples" in doc:
            raise ConfigurationError("give either 'alpha' or 'kappa_samples', not both")
        if "alpha" not in doc and "kappa_samples" not in doc:
            raise ConfigurationError("problem JSON needs 'alpha' or 'kappa_samples'")
        try:
            variant, beta, rho = doc["variant"], float(doc["beta"]), float(doc["rho"])
            if "alpha" in doc:
                alpha = float(doc["alpha"])
            else:
                x, values = (np.asarray(doc["kappa_samples"][k], float) for k in ("x", "values"))
        except KeyError as exc:
            raise ConfigurationError(f"problem JSON needs {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"problem JSON has a malformed value: {exc}") from None
        kappa = PowerLawKappa(alpha) if "alpha" in doc else TabulatedKappa(x, values)
        return cls(variant=variant, kappa=kappa, beta=beta, rho=rho)


@dataclass(frozen=True)
class StateVector:
    """One point of the discrete state space: field values y plus modes psi."""

    y: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _freeze(self, ("y", "psi"), dtype=np.complex128)
        if self.y.ndim != 1 or self.psi.ndim != 1:
            raise ShapeError("state components must be 1-d arrays")


def _check_compatible(state: StateVector, op) -> None:
    if state.y.size != op.xgrid.x.size or state.psi.size != op.xigrid.xi.size:
        raise ShapeError(
            f"state of shape ({state.y.size}, {state.psi.size}) does not match "
            f"operator grids ({op.xgrid.x.size}, {op.xigrid.xi.size})"
        )


def inner_product(a: StateVector, b: StateVector, op) -> complex:
    """Weighted scalar product sum h_i y_i conj(yb_i) + zeta sum w_k psi_k conj(psib_k)."""
    _check_compatible(a, op)
    _check_compatible(b, op)
    return complex(
        np.dot(op.xgrid.h, a.y * np.conj(b.y))
        + op.zeta * np.dot(op.xigrid.w, a.psi * np.conj(b.psi))
    )


def weighted_norm(state: StateVector, op) -> float:
    return math.sqrt(max(inner_product(state, state, op).real, 0.0))


def energy(state: StateVector, op) -> float:
    """Discrete energy 0.5 sum h|y|^2 + (zeta/2) sum w|psi|^2 = 0.5 ||Y||^2."""
    _check_compatible(state, op)
    val = 0.5 * (
        np.dot(op.xgrid.h, np.abs(state.y) ** 2)
        + op.zeta * np.dot(op.xigrid.w, np.abs(state.psi) ** 2)
    )
    return float(val)
