"""Acceptance suite: one test per quantitative criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see all lines).

Criterion 5 checks the general-coefficient near-zero estimate
||(i lam - A)^{-1}|| = O(|lam|^-(2-beta)) for kappa = x^1.5 as what it is, an
upper bound: only upper resolvent bounds drive the guaranteed decay rate
(Borichev-Tomilov).  The relaxation continuum puts (-inf, 0] in the spectrum
of A, so ||R(i lam)|| >= 1/|lam| for every coefficient; the measured slope is
that floor, -1 on both signs of lambda.  The test brackets the slope between
the bound and the floor and prints both, so the gap between the measured
slope and -(2-beta) stays visible.  Whether -(2-beta) is attained by the
field block is an open question, not an assertion.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dissipation, random_state
from fracdamp.bessel import analytic_resolvent_P, theta_pm
from fracdamp.diffusive import build_xi_quadrature, evolve_psi_forced, kernel_check
from fracdamp.evolution import fit_decay_exponent, prepare_initial_state, simulate
from fracdamp.model import (
    PowerLawKappa,
    ProblemSpec,
    StateVector,
    Variant,
    energy,
    inner_product,
)
from fracdamp.operator import assemble_operator, build_x_grid
from fracdamp.resolvent import (
    forcing_integral,
    scan_resolvent,
    solve_resolvent,
    theoretical_exponents,
)
from oracles import (
    bracket_scaling_pprime,
    determinant_scaling_p,
    theta_norm_sq,
    theta_norm_sq_small_r,
)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _operator(variant, alpha, beta, rho=1.0, nx=400, nxi=200, g=1.0,
              xi_min=1e-4, xi_max=1e4):
    spec = ProblemSpec(variant=variant, kappa=PowerLawKappa(alpha), beta=beta, rho=rho)
    return assemble_operator(
        spec, build_x_grid(nx, g), build_xi_quadrature(beta, nxi, xi_min, xi_max)
    )


def test_01_kernel_equivalence():
    taus = np.geomspace(1e-2, 1e2, 121)
    worst = {}
    for beta in (0.3, 0.5, 0.7):
        grid = build_xi_quadrature(beta)  # default grid
        worst[beta] = kernel_check(grid, 1.0, taus).max_rel_error
    ok = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"beta={b}: {v:.2e}" for b, v in worst.items()) + " < 1e-4"
    assert report(1, "kernel equivalence", ok, detail)


def test_02_flux_equivalence():
    beta = 0.5
    grid = build_xi_quadrature(beta)
    dt = 1e-3
    t = np.arange(0.0, 10.0 + dt / 2, dt)
    _, flux = evolve_psi_forced(grid, np.ones_like(t), dt)  # rho = 1
    exact = t[1:] ** (1.0 - beta) / math.gamma(2.0 - beta)
    mask = t[1:] >= 0.1
    rel = np.abs(flux[1:].real - exact)[mask] / exact[mask]
    ok = rel.max() < 1e-3
    assert report(2, "flux equivalence", ok, f"max rel err {rel.max():.2e} < 1e-3 on t in [0.1,10]")


def test_03_discrete_dissipativity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for variant, alpha in ((Variant.P, 0.5), (Variant.PPRIME, 0.5), (Variant.PPRIME, 1.5)):
        op = _operator(variant, alpha, 0.5, nx=64, nxi=64, xi_min=1e-3, xi_max=1e2)
        for _ in range(100):
            state = random_state(op, rng)
            lhs = inner_product(op.apply(state), state, op).real
            rhs = dissipation(op, state)
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    ok = worst <= 1e-12
    assert report(3, "discrete dissipativity", ok, f"max rel residual {worst:.2e} <= 1e-12")


def test_04_near_zero_exponent_variant_p():
    op = _operator(Variant.P, 0.5, 0.5, nx=800, nxi=200)
    scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 25))
    ok = abs(scan.fit.exponent - (-1.0)) <= 0.15
    assert report(4, "near-zero exponent, damping at degenerate end", ok,
                  f"slope {scan.fit.exponent:.4f} vs -1.00 +/- 0.15")


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_05_near_zero_exponent_pprime_general(beta):
    # target: the general-coefficient bound -(2-beta) +/- 0.15 for kappa =
    # x^1.5.  It is an upper estimate, so the fitted slope may not be steeper
    # than it; the relaxation floor 1/|lambda| keeps the slope from being
    # shallower than -1 (same tolerance) and holds pointwise to 1e-6 -- a
    # norm the solver undershoots fails it.
    op = _operator(Variant.PPRIME, 1.5, beta, nx=800, nxi=200, g=2.0)
    scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 25))
    spec = ProblemSpec(variant=Variant.PPRIME, kappa=PowerLawKappa(1.5), beta=beta, rho=1.0)
    bound = -theoretical_exponents(spec).theta
    floor = -1.0
    slope = scan.fit.exponent
    floor_ratio = float(np.min(np.abs(scan.lam) * scan.norm))
    ok = bound - 0.15 <= slope <= floor + 0.15 and floor_ratio >= 1.0 - 1e-6
    assert report(5, f"near-zero exponent, general coefficient (beta={beta})", ok,
                  f"slope {slope:.4f} in [bound {bound:.2f}, floor {floor:.2f}] +/- 0.15, "
                  f"gap to bound {slope - bound:.2f}, "
                  f"min |lambda|*||R|| {floor_ratio:.8f} >= 1 - 1e-6")


def test_06_near_zero_exponent_pprime_power():
    op = _operator(Variant.PPRIME, 0.5, 0.5, nx=800, nxi=200)
    scan = scan_resolvent(op, np.geomspace(1e-4, 1e-1, 25))
    ok = abs(scan.fit.exponent - (-1.0)) <= 0.15
    assert report(6, "near-zero exponent, power coefficient at outer end", ok,
                  f"slope {scan.fit.exponent:.4f} vs -1.00 +/- 0.15")


def test_07_energy_decay_exponent_variant_p():
    op = _operator(Variant.P, 0.5, 0.5, rho=1.0, nx=400, nxi=200)
    y0 = prepare_initial_state(op, "smooth-bump")
    trace = simulate(op, y0, 200.0, 0.005)
    fit = fit_decay_exponent(trace, (20.0, 200.0))
    ok = (1.6 <= fit.exponent <= 2.4) and fit.r_squared > 0.98
    assert report(7, "energy decay exponent, damping at degenerate end", ok,
                  f"exponent {fit.exponent:.3f} in [1.6,2.4], r^2 {fit.r_squared:.4f} > 0.98")


def test_08_oracle_cross_validation():
    alpha, beta, rho, lam = 0.5, 0.5, 1.0, 1e-3
    spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(alpha), beta=beta, rho=rho)
    xig = build_xi_quadrature(beta, 1600, 1e-4, 1e6)
    f_psi = xig.eta * np.exp(-xig.xi**2)
    errs = []
    nxs = [100, 200, 400, 800, 1600]
    for nx in nxs:
        xg = build_x_grid(nx, 3.0)
        op = assemble_operator(spec, xg, xig)
        c = forcing_integral(op, lam, f_psi)
        zd = solve_resolvent(op, lam, np.zeros(nx), f_psi)
        oracle = analytic_resolvent_P(lam, xg.x, c, alpha, beta, rho)
        errs.append(float(np.sqrt(np.dot(xg.h, np.abs(zd.y - oracle.y) ** 2))))
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    order = -np.polyfit(np.log2(nxs), np.log2(errs), 1)[0]
    ok = decreasing and order >= 1.0
    assert report(8, "oracle cross-validation", ok,
                  f"errors {['%.2e' % e for e in errs]}, observed order {order:.2f} >= 1")


def test_09_determinant_scaling():
    results = []
    mu = 1j * np.geomspace(1e-3, 3e-2, 20)
    for beta in (0.5, 0.75):
        fit = determinant_scaling_p(0.5, beta, 1.0, mu)
        target = 2.0 * beta - 2.0
        results.append((f"two-constant beta={beta}", fit.exponent, target))
    mu2 = 1j * np.geomspace(1e-3, 1e-2, 16)
    fitb = bracket_scaling_pprime(0.5, 0.5, 1.0, mu2)
    nu = (1.0 - 0.5) / (2.0 - 0.5)
    results.append(("bracket", fitb.exponent, 2.0 * 0.5 + nu - 2.0))
    ok = all(abs(got - want) <= 0.05 for _, got, want in results)
    detail = "; ".join(f"{name}: {got:.3f} vs {want:.3f}" for name, got, want in results)
    assert report(9, "determinant scaling", ok, detail + " (+/- 0.05)")


def test_10_theta_norm_formula():
    from scipy.integrate import quad

    alpha = 0.5
    worst_quad = 0.0
    for mu in (0.1, 0.5, 1.0):
        r = 2.0 * mu / (2.0 - alpha)
        val = complex(theta_norm_sq(r, alpha)).real
        oracle, _ = quad(
            lambda x: complex(theta_pm(x, mu, alpha)[0]).real ** 2, 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        worst_quad = max(worst_quad, abs(val - oracle) / abs(oracle))
    r = 1e-3
    asym_rel = abs(theta_norm_sq(r, alpha) - theta_norm_sq_small_r(r, alpha)) / abs(
        theta_norm_sq_small_r(r, alpha)
    )
    ok = worst_quad < 1e-8 and asym_rel < 1e-4
    assert report(10, "profile-norm formula", ok,
                  f"vs quadrature {worst_quad:.2e} < 1e-8, small-r asymptote {asym_rel:.2e} < 1e-4")


def test_11_undamped_conservation():
    rng = np.random.default_rng(99)
    op = replace(_operator(Variant.P, 0.5, 0.5, nx=64, nxi=48, xi_min=1e-3, xi_max=1e2),
                 zeta=0.0)
    state = random_state(op, rng)
    scale = 1.0 / math.sqrt(energy(state, op))
    state = StateVector(y=scale * state.y, psi=scale * state.psi)
    trace = simulate(op, state, 10.0, 1e-3)  # 10^4 steps, 2001 samples
    drift = np.abs(trace.E - trace.E[0]).max()
    ok = drift <= 1e-12
    assert report(11, "undamped conservation", ok, f"max |E-E0| {drift:.2e} <= 1e-12 over 1e4 steps")
