"""Hot numerical kernels, one numpy/LAPACK implementation each.

Three inner loops dominate runtime: the implicit-midpoint time march, the
forced relaxation-mode march, and the singular-kernel convolution.  The time
march uses the Cayley form of the midpoint map, one tridiagonal solve and no
operator apply per step; the relaxation march keeps only the current modes;
the convolution is one real FFT product through ``numpy.fft``.  The
tridiagonal LU wrapper serves both the march and the resolvent solves.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack as _lapack


def backend_name() -> str:
    """Name of the kernel implementation, recorded in every run manifest."""
    return "numpy"


class TridiagFactor:
    """Pivoted LU of a complex tridiagonal via LAPACK gttrf/gttrs."""

    def __init__(self, dl, d, du):
        *lu, info = _lapack.zgttrf(
            np.asarray(dl, dtype=np.complex128),
            np.asarray(d, dtype=np.complex128),
            np.asarray(du, dtype=np.complex128),
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"zgttrf failed with info={info}")
        self._lu = lu

    def solve_in_place(self, b):
        """Overwrite b, a contiguous complex128 vector, with the solution."""
        _, info = _lapack.zgttrs(*self._lu, b, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgttrs failed with info={info}")


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


def psi_march(xi2, eta, weta, zeta, s_avg, dt):
    """March psi_k' = -xi_k^2 psi_k + eta_k s(t) exactly per step.

    ``s_avg`` holds the per-step constant forcing values.  Returns the final
    modes and the damping flux zeta*sum(w eta psi) at every step; the mode
    history is not kept.
    """
    n_steps = s_avg.size
    decay = np.exp(-xi2 * dt)
    gain = -np.expm1(-xi2 * dt) / xi2  # expm1 avoids cancellation for tiny xi^2*dt
    flux = np.zeros(n_steps + 1, dtype=np.complex128)
    psi = np.zeros(xi2.size, dtype=np.complex128)
    for n in range(n_steps):
        psi = decay * psi + gain * eta * s_avg[n]
        flux[n + 1] = zeta * np.dot(weta, psi)
    return psi, flux


def midpoint_march(
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
    lu = TridiagFactor(dl, d, du)

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

    done = 0
    # march interval by interval between samples; the last stop ends the run
    for k, stop in enumerate(sample_steps.tolist() + [n_steps]):
        for _ in range(stop - done):
            v = y.copy()
            v[b_idx] -= np.dot(q_bound, psi)
            lu.solve_in_place(v)  # 2v
            vb = v[b_idx]
            v -= y
            y = v
            psi *= a_psi
            psi += g_psi * vb
        done = stop
        if k < n_samp:
            _record(k)
    return e_out, d_out, s_out, y, psi
