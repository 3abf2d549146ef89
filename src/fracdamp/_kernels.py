"""Hot numerical kernels with optional JIT compilation.

Three inner loops dominate runtime: the implicit-midpoint time march, the
forced relaxation-mode march, and the singular-kernel convolution.

The convolution ``frac_conv`` has one implementation, a real FFT product
through ``numpy.fft``.  The two marches each have a numba ``@njit``
implementation and a plain numpy/LAPACK implementation; the numpy time march
uses the Cayley form of the midpoint map, one tridiagonal solve and no
operator apply per step.  The environment variable ``FRACDAMP_KERNELS``
selects the march path:

* ``auto`` (default) - numba when importable, numpy otherwise;
* ``numba``          - require the compiled path, fail if numba is missing;
* ``numpy``          - force the plain path.

Both march paths compute the same one-step map; results agree to roundoff.
See ``benchmarks/bench_kernels.py`` for timings.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.linalg import lapack as _lapack

_REQUESTED = os.environ.get("FRACDAMP_KERNELS", "auto").strip().lower()
if _REQUESTED not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"FRACDAMP_KERNELS must be one of auto|numba|numpy, got {_REQUESTED!r}"
    )

_HAVE_NUMBA = False
if _REQUESTED in ("auto", "numba"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _REQUESTED == "numba":
            raise

JIT_ENABLED = _HAVE_NUMBA


def backend_name() -> str:
    return "numba" if JIT_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def frac_conv(w_avg: np.ndarray, lag_weights: np.ndarray) -> np.ndarray:
    """Causal convolution out[n] = sum_{j<n} w_avg[j] * lag_weights[n-1-j].

    Returns an array one longer than ``w_avg`` (out[0] = 0).  One real FFT
    product of length the smallest power of two >= 2n-1, so no circular
    wrap-around reaches the n entries kept.
    """
    n = w_avg.size
    out = np.zeros(n + 1)
    if n:
        nfft = 1 << (2 * n - 2).bit_length()
        spec = np.fft.rfft(w_avg, nfft) * np.fft.rfft(lag_weights[:n], nfft)
        out[1:] = np.fft.irfft(spec, nfft)[:n]
    return out


def psi_march_numpy(xi2, eta, weta, zeta, s_avg, dt):
    """March psi_k' = -xi_k^2 psi_k + eta_k s(t) exactly per step.

    ``s_avg`` holds the per-step constant forcing values.  Returns the full
    mode history (n_steps+1, n_modes) and the damping flux zeta*sum(w eta psi).
    """
    n_steps = s_avg.size
    decay = np.exp(-xi2 * dt)
    gain = -np.expm1(-xi2 * dt) / xi2  # expm1 avoids cancellation for tiny xi^2*dt
    psi_hist = np.zeros((n_steps + 1, xi2.size), dtype=np.complex128)
    flux = np.zeros(n_steps + 1, dtype=np.complex128)
    psi = np.zeros(xi2.size, dtype=np.complex128)
    for n in range(n_steps):
        psi = decay * psi + gain * eta * s_avg[n]
        psi_hist[n + 1] = psi
        flux[n + 1] = zeta * np.dot(weta, psi)
    return psi_hist, flux


def midpoint_march_numpy(
    l_sub, l_diag, l_sup, h, b_idx, zeta, w, eta, xi2,
    y0, psi0, dt, n_steps, sample_steps,
):
    """Implicit-midpoint march of the coupled (y, psi) system in Cayley form.

    With c = dt/2 the midpoint map is (I - cA)^{-1}(I + cA) = 2(I - cA)^{-1} - I,
    so a step is u' = 2v - u where (I - cA) v = u, and A is never applied.
    The psi block of that solve is eliminated exactly (it is diagonal),
    leaving one complex tridiagonal solve per step with a single modified
    diagonal entry at the damped boundary cell.  Its right-hand side is y
    with one boundary correction from psi; the matrix is factored halved (an
    exact scaling), so the solve returns 2v and y' = 2v - y is one
    subtraction; psi' follows from the boundary value of 2v alone.  Samples
    are taken at the step indices listed in ``sample_steps`` (sorted, starting
    at 0 and ending at n_steps).
    """
    c = 0.5 * dt
    dl = -0.5j * c * l_sub
    du = -0.5j * c * l_sup
    d = 0.5 - 0.5j * c * l_diag
    inv = 1.0 / (1.0 + c * xi2)
    gmod = (0.5 * c * c * zeta / h[b_idx]) * np.dot(w * eta * eta, inv)
    d = d.astype(np.complex128)
    d[b_idx] += gmod
    dlf, df, duf, du2, ipiv, info = _lapack.zgttrf(dl.astype(np.complex128), d, du.astype(np.complex128))
    if info != 0:
        raise np.linalg.LinAlgError(f"zgttrf failed with info={info}")

    weta = w * eta
    # psi's share of the boundary right-hand side, and the weights of 2v[b]
    # in psi'; complex, so that the per-step dot and product do not cast
    q_bound = ((c * zeta / h[b_idx]) * weta * inv).astype(np.complex128)
    a_psi = 2.0 * inv - 1.0
    g_psi = (c * eta * inv).astype(np.complex128)

    n_samp = sample_steps.size
    e_out = np.zeros(n_samp)
    d_out = np.zeros(n_samp)
    s_out = np.zeros(n_samp, dtype=np.complex128)

    y = y0.astype(np.complex128).copy()
    psi = psi0.astype(np.complex128).copy()

    def _record(k):
        e_out[k] = 0.5 * (np.dot(h, np.abs(y) ** 2) + zeta * np.dot(w, np.abs(psi) ** 2))
        d_out[k] = -zeta * np.dot(w * xi2, np.abs(psi) ** 2)
        s_out[k] = np.dot(weta, psi)

    zgttrs = _lapack.zgttrs
    done = 0
    # march interval by interval between samples; the last stop ends the run
    for k, stop in enumerate(sample_steps.tolist() + [n_steps]):
        for _ in range(stop - done):
            v = y.copy()
            v[b_idx] -= np.dot(q_bound, psi)
            v, info = zgttrs(dlf, df, duf, du2, ipiv, v, overwrite_b=1)  # 2v
            if info != 0:
                raise np.linalg.LinAlgError(f"zgttrs failed with info={info}")
            vb = v[b_idx]
            v -= y
            y = v
            psi *= a_psi
            psi += g_psi * vb
        done = stop
        if k < n_samp:
            _record(k)
    return e_out, d_out, s_out, y, psi


# ---------------------------------------------------------------------------
# numba implementations (compiled lazily at first call)
# ---------------------------------------------------------------------------

if JIT_ENABLED:

    @njit(cache=True)
    def _psi_march_jit(xi2, eta, weta, zeta, s_avg, dt):
        n_modes = xi2.size
        n_steps = s_avg.size
        decay = np.exp(-xi2 * dt)
        gain = -np.expm1(-xi2 * dt) / xi2
        psi_hist = np.zeros((n_steps + 1, n_modes), dtype=np.complex128)
        flux = np.zeros(n_steps + 1, dtype=np.complex128)
        psi = np.zeros(n_modes, dtype=np.complex128)
        for n in range(n_steps):
            acc = 0.0 + 0.0j
            for kk in range(n_modes):
                psi[kk] = decay[kk] * psi[kk] + gain[kk] * eta[kk] * s_avg[n]
                psi_hist[n + 1, kk] = psi[kk]
                acc += weta[kk] * psi[kk]
            flux[n + 1] = zeta * acc
        return psi_hist, flux

    @njit(cache=True)
    def _midpoint_march_jit(
        l_sub, l_diag, l_sup, h, b_idx, zeta, w, eta, xi2,
        y0, psi0, dt, n_steps, sample_steps,
    ):
        n = y0.size
        m_modes = xi2.size
        c = 0.5 * dt

        # Thomas factorization of the Schur-complement tridiagonal.  The
        # matrix I - i*c*L (+ positive boundary modification) is strictly
        # diagonally dominant, so no pivoting is needed.
        dmod = np.empty(n, dtype=np.complex128)
        for i in range(n):
            dmod[i] = 1.0 - 1j * c * l_diag[i]
        inv = np.empty(m_modes)
        gmod = 0.0
        for kk in range(m_modes):
            inv[kk] = 1.0 / (1.0 + c * xi2[kk])
            gmod += w[kk] * eta[kk] * eta[kk] * inv[kk]
        dmod[b_idx] += (c * c * zeta / h[b_idx]) * gmod

        mult = np.zeros(n, dtype=np.complex128)
        dfac = np.empty(n, dtype=np.complex128)
        dfac[0] = dmod[0]
        for i in range(1, n):
            mult[i] = (-1j * c * l_sub[i - 1]) / dfac[i - 1]
            dfac[i] = dmod[i] - mult[i] * (-1j * c * l_sup[i - 1])

        fold = c * zeta / h[b_idx]
        n_samp = sample_steps.size
        e_out = np.zeros(n_samp)
        d_out = np.zeros(n_samp)
        s_out = np.zeros(n_samp, dtype=np.complex128)

        y = y0.copy()
        psi = psi0.copy()
        ry = np.empty(n, dtype=np.complex128)
        rpsi = np.empty(m_modes, dtype=np.complex128)

        k = 0
        if sample_steps[0] == 0:
            ey = 0.0
            for i in range(n):
                ey += h[i] * (y[i].real ** 2 + y[i].imag ** 2)
            ep = 0.0
            dd = 0.0
            ss = 0.0 + 0.0j
            for kk in range(m_modes):
                p2 = psi[kk].real ** 2 + psi[kk].imag ** 2
                ep += w[kk] * p2
                dd += w[kk] * xi2[kk] * p2
                ss += w[kk] * eta[kk] * psi[kk]
            e_out[0] = 0.5 * (ey + zeta * ep)
            d_out[0] = -zeta * dd
            s_out[0] = ss
            k = 1

        for step in range(1, n_steps + 1):
            s_bound = 0.0 + 0.0j
            for kk in range(m_modes):
                s_bound += w[kk] * eta[kk] * psi[kk]
            for i in range(n):
                acc = l_diag[i] * y[i]
                if i > 0:
                    acc += l_sub[i - 1] * y[i - 1]
                if i < n - 1:
                    acc += l_sup[i] * y[i + 1]
                ry[i] = y[i] + 1j * c * acc
            ry[b_idx] -= fold * s_bound
            yb = y[b_idx]
            qacc = 0.0 + 0.0j
            for kk in range(m_modes):
                rpsi[kk] = (1.0 - c * xi2[kk]) * psi[kk] + c * eta[kk] * yb
                qacc += w[kk] * eta[kk] * rpsi[kk] * inv[kk]
            ry[b_idx] -= fold * qacc

            # forward/backward sweeps
            ry[0] = ry[0]
            for i in range(1, n):
                ry[i] = ry[i] - mult[i] * ry[i - 1]
            y[n - 1] = ry[n - 1] / dfac[n - 1]
            for i in range(n - 2, -1, -1):
                y[i] = (ry[i] - (-1j * c * l_sup[i]) * y[i + 1]) / dfac[i]

            ybn = y[b_idx]
            for kk in range(m_modes):
                psi[kk] = (rpsi[kk] + c * eta[kk] * ybn) * inv[kk]

            if k < n_samp and step == sample_steps[k]:
                ey = 0.0
                for i in range(n):
                    ey += h[i] * (y[i].real ** 2 + y[i].imag ** 2)
                ep = 0.0
                dd = 0.0
                ss = 0.0 + 0.0j
                for kk in range(m_modes):
                    p2 = psi[kk].real ** 2 + psi[kk].imag ** 2
                    ep += w[kk] * p2
                    dd += w[kk] * xi2[kk] * p2
                    ss += w[kk] * eta[kk] * psi[kk]
                e_out[k] = 0.5 * (ey + zeta * ep)
                d_out[k] = -zeta * dd
                s_out[k] = ss
                k += 1
        return e_out, d_out, s_out, y, psi

    def psi_march_numba(xi2, eta, weta, zeta, s_avg, dt):
        return _psi_march_jit(
            np.ascontiguousarray(xi2, dtype=np.float64),
            np.ascontiguousarray(eta, dtype=np.float64),
            np.ascontiguousarray(weta, dtype=np.float64),
            float(zeta),
            np.ascontiguousarray(s_avg, dtype=np.complex128),
            float(dt),
        )

    def midpoint_march_numba(
        l_sub, l_diag, l_sup, h, b_idx, zeta, w, eta, xi2,
        y0, psi0, dt, n_steps, sample_steps,
    ):
        return _midpoint_march_jit(
            np.ascontiguousarray(l_sub, dtype=np.float64),
            np.ascontiguousarray(l_diag, dtype=np.float64),
            np.ascontiguousarray(l_sup, dtype=np.float64),
            np.ascontiguousarray(h, dtype=np.float64),
            int(b_idx),
            float(zeta),
            np.ascontiguousarray(w, dtype=np.float64),
            np.ascontiguousarray(eta, dtype=np.float64),
            np.ascontiguousarray(xi2, dtype=np.float64),
            np.ascontiguousarray(y0, dtype=np.complex128),
            np.ascontiguousarray(psi0, dtype=np.complex128),
            float(dt),
            int(n_steps),
            np.ascontiguousarray(sample_steps, dtype=np.int64),
        )


# Selected aliases used by the rest of the package.
if JIT_ENABLED:
    psi_march = psi_march_numba
    midpoint_march = midpoint_march_numba
else:
    psi_march = psi_march_numpy
    midpoint_march = midpoint_march_numpy
