"""Hot numerical kernels, one numpy/LAPACK implementation each.

Two inner loops dominate runtime: the implicit-midpoint time march and the
singular-kernel convolution.  The time march steps in the eigenbasis of the
field block: one O(n^2) MRRR eigensolve (LAPACK dstemr) per march, then no
solve and no operator apply per step; the steps between two samples are
advanced in blocks of up to _MARCH_BLOCK, each two matrix products and one
scaling.  The orthogonal n x n basis is a dense float64 array, 1.3 MB at
nx=400, 20 MB at nx=1600 and 82 MB at nx=3200.  The convolution is one real
FFT product through ``numpy.fft``; it serves both the closed-form kernel and
the forced relaxation modes, whose flux is the same causal convolution with
the quadrature kernel's cell integrals.  The resolvent needs only the field
frequencies and the eigenvectors' entries at the damped cell, which
``boundary_weights`` gives in O(n) memory; the tridiagonal LU wrapper serves
its shifted solves.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import lapack as _lapack

from .errors import NumericalError

#: Largest relative defect |h_i l_sup_i - h_{i+1} l_sub_i| / max|h_i l_sup_i|
#: of a field tridiagonal accepted as self-adjoint in the h inner product
#: (flux-form assembly leaves about 3e-16).
_SELF_ADJOINT_TOL = 1e-12

#: Most midpoint steps advanced by one pair of block products; the cached
#: block matrices of a march hold 4 * _MARCH_BLOCK * (n + m) complex entries
#: per distinct block length.
_MARCH_BLOCK = 32


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


def symmetrized_offdiagonal(l_sub, l_sup, h):
    """Off-diagonal of D^{1/2} L D^{-1/2} (D = diag h) for the field tridiagonal L.

    L is self-adjoint in <u, v>_h = sum h u conj(v) exactly when
    h_i l_sup_i = h_{i+1} l_sub_i, as for every flux-form assembly; then the
    symmetrized matrix has off-diagonal sqrt(l_sub l_sup) and diagonal
    l_diag.  A tridiagonal that is not h-self-adjoint to _SELF_ADJOINT_TOL
    raises NumericalError.
    """
    flux = h[:-1] * l_sup
    scale = np.abs(flux).max(initial=0.0)
    defect = np.abs(flux - h[1:] * l_sub).max(initial=0.0)
    if not defect <= _SELF_ADJOINT_TOL * scale:
        raise NumericalError(
            "field block is not self-adjoint in the h inner product",
            {"self_adjoint_defect": float(defect / scale) if scale else float(defect)},
        )
    return np.copysign(np.sqrt(l_sub * l_sup), l_sup)


def field_eigenbasis(l_sub, l_diag, l_sup, h):
    """Eigenpairs (ell, S) of the field tridiagonal L in the h inner product.

    L = D^{-1/2} S diag(ell) S^T D^{1/2} with S orthogonal, from the
    symmetrized tridiagonal of ``symmetrized_offdiagonal`` (which refuses a
    block that is not h-self-adjoint).  MRRR (LAPACK dstemr) returns all n
    pairs in O(n^2) time; S is a dense real n x n array.
    """
    off = symmetrized_offdiagonal(l_sub, l_sup, h)
    return eigh_tridiagonal(l_diag, off, lapack_driver="stemr")


def boundary_weights(d, off, b):
    """Eigenvalues ell of the symmetric tridiagonal T = (d, off) and the squares
    w_k = q_k[b]^2 of its orthonormal eigenvectors at the end row b, in O(n) memory.

    ell comes from LAPACK dsterf.  With b eliminated last, the last pivot
    p(z) of the LDL^T factorization of z - T is det(z - T)/det(z - T_b), T_b
    being T without row and column b, so at an eigenvalue w_k = 1/p'(ell_k).
    One pivot recurrence carries p and p' for all n eigenvalues at once
    (O(n^2) time); one Newton step ell_k - p w_k refines each eigenvalue and
    a second pass gives the weights.  Where ell_k is also, to rounding, an
    eigenvalue of T_b, p is 0/0 and the residual |p w_k| of the second pass
    stays above rounding: such a mode does not reach row b, its weight is
    0 and it keeps its dsterf eigenvalue.
    """
    n = d.size
    if b not in (0, n - 1):
        raise ValueError(f"row {b} is not an end row of a tridiagonal of size {n}")
    ell, info = _lapack.dsterf(d, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf failed with info={info}")
    dd, ee2 = (d, off * off) if b == n - 1 else (d[::-1], (off * off)[::-1])
    scale = np.abs(ell).max(initial=0.0)
    tiny = np.finfo(float).tiny

    def last_pivot(z):
        # p_i = z - d_i - e_{i-1}^2 / p_{i-1}, p_i' = 1 + e_{i-1}^2 p_{i-1}' / p_{i-1}^2,
        # in place; an exact zero pivot becomes the tiny one, as in a Sturm count
        piv = z - dd[0]
        dpiv = np.ones_like(z)
        q = np.empty_like(z)
        for i in range(1, n):
            if not piv.all():
                piv[piv == 0.0] = tiny
            np.divide(ee2[i - 1], piv, out=q)
            dpiv *= q
            dpiv /= piv
            dpiv += 1.0
            np.subtract(z, dd[i], out=piv)
            piv -= q
        return piv, dpiv

    rounding = 64.0 * np.finfo(float).eps * scale
    with np.errstate(over="ignore", invalid="ignore"):
        piv, dpiv = last_pivot(ell)
        step = piv / dpiv
        refined = np.where(np.abs(step) <= 1e6 * rounding, ell - step, ell)
        piv, dpiv = last_pivot(refined)
        w = 1.0 / dpiv
        resolved = (np.abs(piv * w) <= rounding) & np.isfinite(w)
    # a mode that does not reach row b keeps its dsterf eigenvalue
    return np.where(resolved, refined, ell), np.where(resolved, w, 0.0)


def _real_matmul(a, z):
    """a @ z for a real matrix a and a complex vector z.

    Two real matrix-vector products, on the real and the imaginary part, so
    a is never copied to complex.
    """
    out = np.empty(a.shape[0], dtype=np.complex128)
    out.real = a @ z.real
    out.imag = a @ z.imag
    return out


def _march_block(scale, left, right, k):
    """(Q, R, scale^k) advancing k steps of u' = scale*u - right @ (left @ u).

    That step is u' = M u with M = diag(scale) - right @ left.  The rows of
    Q are the 2-row readers Q_j = left M^j, j < k, built without a solve by
    Q_{j+1} = Q_j scale - (Q_j right) left, so d = Q u_0 holds every
    step's (left @ u_j).  The columns of R are the spreaders
    scale^(k-1-j) right in the same order, so u_k = scale^k u_0 - R d.
    """
    size = scale.size
    readers = np.empty((k, 2, size), dtype=np.complex128)
    readers[0] = left
    powers = np.ones((k, size), dtype=np.complex128)  # powers[j] = scale^(k-1-j)
    for j in range(1, k):
        np.multiply(readers[j - 1], scale, out=readers[j])
        readers[j] -= (readers[j - 1] @ right) @ left
        np.multiply(powers[k - j], scale, out=powers[k - 1 - j])
    spreaders = (powers[:, :, None] * right).transpose(1, 0, 2).reshape(size, 2 * k)
    return readers.reshape(2 * k, size), spreaders, powers[0] * scale


def midpoint_march(
    l_sub, l_diag, l_sup, h, b_idx, zeta, w, eta, xi2,
    y0, psi0, dt, n_steps, sample_steps,
):
    """Implicit-midpoint march of the coupled (y, psi) system in the field eigenbasis.

    With c = dt/2 the midpoint map is u' = 2v - u where (I - cA) v = u.  The
    psi block of that solve is diagonal and is eliminated exactly, leaving
    the field matrix 1/2 - (ic/2) L plus gmod at the damped cell b, halved so
    that the solve returns 2v.  In the coordinates alpha = S^T h^{1/2} y of
    ``field_eigenbasis`` that matrix is diag(1/l) + gmod s s^T with
    l = 1/(1/2 - ic ell/2) and s = S[b, :], so Sherman-Morrison solves it in
    closed form; its denominator 1 + gmod s.(l s) has real part >= 1.  The
    step on u = (alpha, psi) is then a diagonal map plus a rank-two term:
    alpha is rotated by the unit-modulus l - 1 and psi scaled by its
    relaxation factor, and both are corrected along fixed vectors by
    multiples of the two products p.alpha (p = l s) and q.psi (psi's share of
    the boundary right-hand side).  No solve and no operator apply: the
    steps between two samples are taken in blocks of at most _MARCH_BLOCK,
    each one (2k x N) product, one scaling and one (N x 2k) product on the
    N = n + m coordinates (``_march_block``).  The energy is |alpha|^2/2
    plus the psi part, since S is orthogonal.  Samples are taken at the
    step indices listed in ``sample_steps`` (sorted, starting at 0 and
    ending at n_steps).  Returns the sampled energy E, dissipation rate D
    and boundary sum w.(eta psi), and the final modes psi; the final field
    is not mapped back out of the basis.
    """
    ell, basis = field_eigenbasis(l_sub, l_diag, l_sup, h)
    n = ell.size
    c = 0.5 * dt
    inv = 1.0 / (1.0 + c * xi2)
    gmod = (0.5 * c * c * zeta / h[b_idx]) * np.dot(w * eta * eta, inv)
    gain = 1.0 / (0.5 - 0.5j * c * ell)
    s = basis[b_idx]
    p = gain * s
    sp = complex(np.dot(s, p))
    kappa = gmod / (1.0 + gmod * sp)
    r = math.sqrt(h[b_idx])
    weta = w * eta
    q = (c * zeta / h[b_idx]) * weta * inv
    g_psi = c * eta * inv

    # With pa = p.alpha and sig = q.psi, the boundary value of 2v is
    # t (1 - kappa sp) / r where t = pa - r sp sig, and
    #   alpha' = (l - 1) alpha - (r sig + kappa t) p,
    #   psi'   = (2 inv - 1) psi + (t (1 - kappa sp) / r) g_psi,
    # that is u' = scale*u - right @ (left @ u) with the 2 x (n+m) `left`
    # reading (pa, sig) and the (n+m) x 2 `right` spreading them.
    vb = (1.0 - kappa * sp) / r
    scale = np.concatenate((gain - 1.0, 2.0 * inv - 1.0))
    left = np.zeros((2, scale.size), dtype=np.complex128)
    left[0, :n] = p
    left[1, n:] = q
    right = np.zeros((scale.size, 2), dtype=np.complex128, order="F")
    right[:n, 0] = kappa * p
    right[:n, 1] = (r - kappa * r * sp) * p
    right[n:, 0] = -vb * g_psi
    right[n:, 1] = (vb * r * sp) * g_psi

    n_samp = sample_steps.size
    s_out = np.zeros(n_samp, dtype=np.complex128)
    # E and D are weighted sums of the squared real and imaginary parts of u
    readout = np.zeros((2, 2 * scale.size))
    readout[0, : 2 * n] = 0.5
    readout[0, 2 * n :] = np.repeat(0.5 * zeta * w, 2)
    readout[1, 2 * n :] = np.repeat(-zeta * w * xi2, 2)
    ed = np.zeros((n_samp, 2))
    squares = np.empty(2 * scale.size)

    u = np.empty(scale.size, dtype=np.complex128)
    u[:n] = _real_matmul(basis.T, np.sqrt(h) * y0)
    u[n:] = psi0
    psi = u[n:]
    tmp = np.empty_like(u)
    blocks = {}

    done = 0
    # march interval by interval between samples; the last stop ends the run
    for k, stop in enumerate(sample_steps.tolist() + [n_steps]):
        while done < stop:
            length = min(stop - done, _MARCH_BLOCK)
            if length not in blocks:
                blocks[length] = _march_block(scale, left, right, length)
            readers, spreaders, scale_k = blocks[length]
            d = np.dot(readers, u)
            u *= scale_k
            np.dot(spreaders, d, out=tmp)
            u -= tmp
            done += length
        if k < n_samp:
            np.square(u.view(np.float64), out=squares)
            np.dot(readout, squares, out=ed[k])
            s_out[k] = np.dot(weta, psi)
    e_out, d_out = ed.T.copy()
    return e_out, d_out, s_out, psi.copy()
