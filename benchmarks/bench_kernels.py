#!/usr/bin/env python3
"""Timings of the hot kernels, and of the numba path against the numpy path.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

The script times the three hot kernels on production-sized inputs: the
implicit-midpoint march, the forced relaxation march and the singular-kernel
convolution.  The two marches have a numpy and a numba path; the numba column
is filled only when the numba path is importable.  The convolution has a
single FFT implementation, timed in the numpy column.
"""

import time

import numpy as np

from fracdamp import _kernels
from fracdamp.diffusive import build_xi_quadrature
from fracdamp.model import PowerLawKappa, ProblemSpec, Variant
from fracdamp.operator import assemble_operator, build_x_grid


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def march_case():
    spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(0.5), beta=0.5, rho=1.0)
    op = assemble_operator(spec, build_x_grid(400), build_xi_quadrature(0.5, 200))
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    psi0 = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    n_steps = 20000
    steps = np.arange(0, n_steps + 1, 100, dtype=np.int64)
    args = (op.l_sub, op.l_diag, op.l_sup, op.xgrid.h, op.boundary_index,
            op.zeta, op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2,
            y0, psi0, 5e-3, n_steps, steps)
    return args


def psi_case():
    grid = build_xi_quadrature(0.5, 200)
    s = np.ones(20000)
    return (grid.xi**2, grid.eta, grid.w * grid.eta, 1.0 / np.pi, s, 1e-3)


def conv_case():
    rng = np.random.default_rng(1)
    n = 20000
    w = rng.standard_normal(n)
    m = np.arange(1, n + 1, dtype=float)
    lag = (m**0.5 - (m - 1) ** 0.5) * 1e-2
    return (w, lag)


def main():
    if not _kernels.JIT_ENABLED:
        print("numba backend unavailable (FRACDAMP_KERNELS=numpy or numba missing);")
        print("only the numpy path can be timed.")
    cases = [
        ("midpoint march (nx=400, 2e4 steps)", "midpoint_march", march_case()),
        ("forced psi march (200 modes, 2e4 steps)", "psi_march", psi_case()),
    ]
    print(f"{'kernel':<44} {'numpy':>10} {'numba':>10} {'speedup':>9}")
    for label, name, args in cases:
        t_np = timeit(lambda: getattr(_kernels, name + "_numpy")(*args))
        if _kernels.JIT_ENABLED:
            jit_fn = getattr(_kernels, name + "_numba")
            jit_fn(*args)  # compile outside the timed region
            t_nb = timeit(lambda: jit_fn(*args))
            print(f"{label:<44} {t_np:>9.3f}s {t_nb:>9.3f}s {t_np / t_nb:>8.1f}x")
        else:
            print(f"{label:<44} {t_np:>9.3f}s {'-':>10} {'-':>9}")
    conv_args = conv_case()
    t_conv = timeit(lambda: _kernels.frac_conv(*conv_args))
    print(f"{'fractional convolution (2e4 samples, FFT)':<44} {t_conv:>9.3f}s {'-':>10} {'-':>9}")


if __name__ == "__main__":
    main()
