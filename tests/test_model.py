import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import make_operator, random_state
from fracdamp import bessel
from fracdamp.errors import (
    CoefficientError,
    ConfigurationError,
    HypothesisViolationError,
    ParameterError,
    ShapeError,
)
from fracdamp.model import (
    PowerLawKappa,
    ProblemSpec,
    StateVector,
    TabulatedKappa,
    Variant,
    degeneracy_measure,
    derive_constants,
    energy,
    inner_product,
)
from oracles import tabulate_kappa


class TestDeriveConstants:
    def test_half_half(self):
        assert derive_constants(0.5, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_quarter(self):
        zeta = derive_constants(0.25, 2.0)
        assert zeta == pytest.approx(2.0 * math.sin(math.pi / 4.0) / math.pi, abs=1e-15)
        assert zeta == pytest.approx(0.4501582, abs=1e-7)

    def test_beta_to_one_limit(self):
        zeta = derive_constants(1.0 - 1e-12, 1.0)
        assert 0.0 < zeta < 1e-11

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(beta=0.0, rho=1.0), "beta"),
            (dict(beta=1.0, rho=1.0), "beta"),
            (dict(beta=0.5, rho=0.0), "rho"),
        ],
    )
    def test_out_of_range_names_parameter(self, kwargs, name):
        with pytest.raises(ParameterError, match=name):
            derive_constants(**kwargs)

    def test_reflection_identity(self):
        # zeta * Gamma(beta) * Gamma(1-beta) == rho is what makes the
        # relaxation-mode kernel reproduce the singular kernel exactly.
        for beta in np.arange(0.1, 0.95, 0.1):
            for rho in (0.5, 1.0, 3.0):
                zeta = derive_constants(float(beta), rho)
                value = zeta * math.gamma(beta) * math.gamma(1.0 - beta)
                assert value == pytest.approx(rho, rel=1e-12)


def _pprime(kappa):
    return ProblemSpec(variant=Variant.PPRIME, kappa=kappa, beta=0.5, rho=1.0)


class TestClassifyKappa:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99, 1.0, 1.5, 1.9])
    def test_power_law_exact(self, alpha):
        assert degeneracy_measure(PowerLawKappa(alpha)) == alpha
        assert _pprime(PowerLawKappa(alpha)).dirichlet_at_zero is (alpha < 1.0)
        if alpha < 1.0:  # on P, x=0 is the damped end
            spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(alpha), beta=0.5, rho=1.0)
            assert spec.dirichlet_at_zero is False

    def test_tabulated_linear(self):
        # dense-sample maximization oracle: x * 1 / x == 1 everywhere
        kappa = tabulate_kappa(lambda x: x, n=2000)
        assert abs(degeneracy_measure(kappa) - 1.0) < 1e-6
        assert _pprime(kappa).dirichlet_at_zero is False

    def test_tabulated_sqrt(self):
        kappa = tabulate_kappa(lambda x: np.sqrt(x), n=2000)
        assert abs(degeneracy_measure(kappa) - 0.5) < 1e-4
        assert _pprime(kappa).dirichlet_at_zero is True

    def test_nonpositive_sample_rejected(self):
        x = np.linspace(0.01, 1.0, 50)
        v = np.ones_like(x)
        v[10] = -1.0
        with pytest.raises(CoefficientError):
            TabulatedKappa(x=x, values=v)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            degeneracy_measure(tabulate_kappa(lambda x: x**3, n=500))


class TestProblemSpec:
    def test_variant_p_requires_power_alpha_below_one(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(1.5), beta=0.5, rho=1.0)
        with pytest.raises(ConfigurationError):
            ProblemSpec(
                variant=Variant.P,
                kappa=tabulate_kappa(lambda x: np.sqrt(x)),
                beta=0.5,
                rho=1.0,
            )

    def test_derived_fields(self):
        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=2.0)
        assert spec.zeta == pytest.approx(2.0 / math.pi)
        assert spec.m_kappa == 0.5
        assert spec.zeta > 0.0

    def test_nu_alpha_one_formula_and_one_guard(self):
        for a in (0.1, 1.0 / 3.0, 0.5, 0.9):
            assert bessel._nu_alpha(a) == (1.0 - a) / (2.0 - a)
        for a in (0.0, 1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ParameterError, match="alpha"):
                bessel._nu_alpha(a)

    @pytest.mark.parametrize("gamma", [0.5, -1.0, math.nan, "0.5"])
    def test_json_nonzero_gamma_refused(self, gamma):
        # the kernel is untempered: a tempered request fails, never runs untempered
        doc = {"variant": "P", "alpha": 0.5, "beta": 0.5, "rho": 1.0, "gamma": gamma}
        with pytest.raises(ConfigurationError, match="gamma"):
            ProblemSpec.from_json(doc)

    @pytest.mark.parametrize("change, match", [
        ({"variant": "Q"}, "variant"),
        ({"beta": "x"}, "malformed"),
        ({"alpha": None}, "malformed"),
        ({"rho": [1.0]}, "malformed"),
        ({"kappa_samples": {"x": [0.25, 0.5, 1.0]}, "variant": "Pprime"}, "'values'"),
    ], ids=["variant", "beta", "alpha", "rho", "kappa-samples"])
    def test_json_malformed_value_is_a_configuration_error(self, change, match):
        doc = {"variant": "P", "alpha": 0.5, "beta": 0.5, "rho": 1.0, **change}
        if "kappa_samples" in change:
            del doc["alpha"]
        with pytest.raises(ConfigurationError, match=match):
            ProblemSpec.from_json(doc)

    def test_json_round_trip_power(self):
        spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(1.5), beta=0.3, rho=2.0)
        doc = spec.to_json()
        assert set(doc) == {"variant", "alpha", "beta", "rho"}
        back = ProblemSpec.from_json(json.loads(json.dumps(doc)))
        assert back == spec

    def test_json_round_trip_tabulated(self):
        spec = ProblemSpec(
            variant=Variant.PPRIME,
            kappa=tabulate_kappa(lambda x: x * (1 + 0.1 * x), n=60),
            beta=0.4,
            rho=1.5,
        )
        doc = spec.to_json()
        assert set(doc) == {"variant", "kappa_samples", "beta", "rho"}
        back = ProblemSpec.from_json(doc)
        assert back.m_kappa == pytest.approx(spec.m_kappa)
        np.testing.assert_allclose(back.kappa.values, spec.kappa.values)

    def test_json_never_serializes_derived(self):
        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
        assert "zeta" not in spec.to_json()
        assert "m_kappa" not in spec.to_json()


class TestEnergy:
    def test_constant_field(self, small_op):
        nx = small_op.xgrid.x.size
        state = StateVector(y=np.ones(nx), psi=np.zeros(small_op.xigrid.xi.size))
        assert energy(state, small_op) == pytest.approx(0.5, rel=1e-14)

    def test_zero_state(self, small_op):
        nx = small_op.xgrid.x.size
        state = StateVector(y=np.zeros(nx), psi=np.zeros(small_op.xigrid.xi.size))
        assert energy(state, small_op) == 0.0

    def test_mode_profile_against_quadrature(self):
        # a log-Gaussian profile decays fast enough at both grid ends that
        # the log-trapezoid sum is spectrally accurate; the closed form of
        # int_0^inf exp(-(ln s)^2) ds = sqrt(pi) exp(1/4) is the oracle.
        op = make_operator(nxi=200, xi_min=1e-4, xi_max=1e4)
        xi = op.xigrid.xi

        def profile(x):
            return np.exp(-0.5 * np.log(x) ** 2)

        state = StateVector(y=np.zeros(op.xgrid.x.size), psi=profile(xi))
        e = energy(state, op)
        integral = math.sqrt(math.pi) * math.exp(0.25)
        expected = 0.5 * op.zeta * 2.0 * integral  # both half-axes
        assert e == pytest.approx(expected, rel=1e-10)

    def test_energy_is_half_inner_product(self, small_op, rng):
        for _ in range(20):
            state = random_state(small_op, rng)
            ip = inner_product(state, state, small_op)
            assert abs(ip.imag) <= 1e-13 * abs(ip.real)
            assert energy(state, small_op) == pytest.approx(0.5 * ip.real, rel=1e-13)

    def test_shape_mismatch(self, small_op):
        state = StateVector(y=np.ones(3), psi=np.zeros(4))
        with pytest.raises(ShapeError):
            energy(state, small_op)

    def test_state_immutable(self, small_op):
        state = StateVector(y=np.ones(4), psi=np.zeros(4))
        with pytest.raises((ValueError, RuntimeError)):
            state.y[0] = 2.0


@pytest.mark.parametrize("kind", ["StateVector", "XGrid", "XiGrid", "TabulatedKappa",
                                  "SystemOperator"])
def test_frozen_fields_are_copies(small_op, kind):
    # the stored field is a read-only copy, so the caller's array stays
    # writable even when it already has the field's dtype
    x = np.linspace(0.25, 1.0, 4)
    obj, names = {
        "StateVector": (StateVector(y=np.zeros(4), psi=np.zeros(3)), ("y", "psi")),
        "XGrid": (small_op.xgrid, ("x", "h")),
        "XiGrid": (small_op.xigrid, ("xi", "w", "eta")),
        "TabulatedKappa": (TabulatedKappa(x=x, values=x), ("x", "values")),
        "SystemOperator": (small_op, ("l_diag", "l_off")),
    }[kind]
    given = {name: np.array(getattr(obj, name)) for name in names}
    built = dataclasses.replace(obj, **given)
    for name, arr in given.items():
        arr += 1.0
        assert not getattr(built, name).flags.writeable
        assert not np.shares_memory(getattr(built, name), arr)
