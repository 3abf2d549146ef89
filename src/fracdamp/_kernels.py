"""Hot numerical kernels, one numpy/LAPACK implementation each.

The field spectrum (``field_spectrum``: frequencies, boundary weights and
coupled modes of the symmetric field tridiagonal T that the operator
stores, from a few passes of one pivot recurrence, ``_sweep``, in O(n)
memory) serves the time march, the resolvent and the eigenvalue census.
The implicit-midpoint march (``midpoint_march``) steps the field modes
that reach the damped cell in their eigen-coordinates
(``field_modes``) by blocks of matrix products, with no n x n array.
The singular-kernel convolution (``frac_conv``) is one real FFT product,
for the closed-form kernel and the forced relaxation modes of
``diffusive.evolve_psi_forced``.  Every LAPACK call of the package goes
through ``lapack``, the one check of a routine's ``info``, to the routines
of ``_lapack`` (below); ``_load_scipy_extension`` is the one loader of
scipy extension modules: it loads LAPACK at import and, for the Bessel
oracle, scipy's Gamma ufunc.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import NumericalError


def _load_scipy_extension(subpackage, module):
    """scipy's extension module ``scipy.<subpackage>.<module>``, loaded by file path.

    Importing a scipy subpackage runs all of it: ``scipy.linalg`` (with
    scipy's array-API layer, numpy.testing and numpy.f2py) takes about
    0.25 s on a 2-vCPU Xeon VM, and ``scipy.special`` 0.25 s and 23 MB of
    resident memory; even ``import scipy`` runs package code.  The one
    extension needed, found in the subpackage's folder of scipy's import
    spec, loads in a few ms.  It is registered under its dotted name, so a
    later import of the subpackage reuses it and hands out the same objects.
    A missing scipy, or a missing file, raises ImportError naming what was
    searched, and nothing is registered.
    """
    name = f"scipy.{subpackage}.{module}"
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], subpackage)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, module + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's extension {module} is not in {directory}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    sys.modules[name] = loaded
    return loaded


#: dsterf (here), zgttrf, zgttrs, zheev and dgtsv (``resolvent``), each
#: called through ``lapack``
_lapack = _load_scipy_extension("linalg", "_flapack")

#: Most midpoint steps advanced by one pair of block products; the cached
#: block matrices of a march hold 4 * _MARCH_BLOCK * (K + m) complex entries
#: per distinct block length, K being the field modes marched.
_MARCH_BLOCK = 32

#: Sampled states of a march read out together: E, D and the boundary sum of
#: each batch are three matrix-vector products.
_READOUT_BATCH = 16

#: Smallest weight q_k[row]^2 at which ``field_spectrum`` reads a mode at an
#: end row; the relative error of a weight w there is about eps / w.
_RESOLVED_WEIGHT = 1e-6

_TINY = np.finfo(float).tiny


def backend_name() -> str:
    """Name of the kernel implementation, recorded in every run manifest."""
    return "numpy"


def lapack(routine, *args, **kwargs):
    """The outputs of the LAPACK ``routine`` of ``_lapack`` called with the
    arguments given, as a list without the final ``info``.  A nonzero info
    raises NumericalError naming the routine and its info."""
    *out, info = getattr(_lapack, routine)(*args, **kwargs)
    if info != 0:
        raise NumericalError(f"LAPACK {routine} failed with info={info}",
                             {"routine": routine, "info": int(info)})
    return out


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
        spec = np.fft.rfft(w_avg, nfft)
        spec *= np.fft.rfft(lag_weights[:n], nfft)
        out[1:] = np.fft.irfft(spec, nfft)[:n]
    return out


class _Elimination(NamedTuple):
    """T = (d, off) with its rows ordered so that one end row is eliminated
    last (``flip``: the order is reversed): the off-diagonal ``e`` and the
    reference pivots ``ref`` of the LDL^T factorization of -T in that order,
    with the ratios g_i = e_{i-1}^2 / ref_{i-1}."""

    e: np.ndarray
    ref: np.ndarray
    g: np.ndarray
    flip: bool


def _elimination(d, off, last):
    """The elimination of T = (d, off) with the end row ``last`` last.

    The field block has no positive eigenvalue, so the factorization of -T
    is definite: its last pivot is 0 to rounding when T is singular and is
    never divided by.  An exact zero among the others becomes the tiny one,
    as in a Sturm count.
    """
    n = d.size
    if last not in (0, n - 1):
        raise ValueError(f"row {last} is not an end row of a tridiagonal of size {n}")
    flip = last != n - 1
    dd, ee = (d[::-1], off[::-1]) if flip else (d, off)
    ee2 = ee * ee
    ref = [-dd[0]]
    for di, e2 in zip(dd[1:].tolist(), ee2.tolist()):
        ref.append(-di - e2 / (ref[-1] or _TINY))
    ref = np.array(ref)
    prev = ref[:-1].copy()
    prev[prev == 0.0] = _TINY
    return _Elimination(ee, ref, ee2 / prev, flip)


def _sweep(el, mu, derivative=False, ratio=False, z=None):
    """One pass of the LDL^T recurrence of mu - T in the order of ``el``, for
    all mu at once (O(n) steps): the last pivot p(mu) and the rows t (the
    last pivot's differential part), then p'(mu) if ``derivative``, the
    product rho(mu) of the multipliers e_i / p_i if ``ratio``, and the real
    and imaginary parts of the last entry r(mu) of the vector z (natural row
    order) eliminated alongside, if given.

    The pivots are carried in differential form, p_i = ref_i + t_i with
    t_i = mu + g_i t_{i-1} / p_{i-1}: mu is never added to a diagonal entry,
    so the rounding of the large entries at fine cells does not move the
    small eigenvalues.  With first row f and last row l, (mu - T) x = e_l has
    x_f / x_l = rho(mu), and e_l . (mu - T)^{-1} z = r(mu) / p(mu).  At an
    eigenvalue ell_k with unit eigenvector q_k these are q_k[f] / q_k[l] and
    a pole of residue q_k[l] (q_k . z), so q_k . z = r(ell_k) q_k[l], and the
    weight q_k[l]^2 is 1 / p'(ell_k).  A pivot that is exactly 0 leaves
    non-finite values in its column, which the callers treat as unresolved.
    """
    n = el.ref.size
    one, zero = np.ones_like(mu), np.zeros_like(mu)
    # per row: its coefficient, its value at the first row, what each step adds
    rows = [(el.g, mu, mu)]
    if derivative:
        rows.append((el.e * el.e, one, one))
    if ratio:
        rows.append((el.e, one, zero))
    coef, start, add = (list(r) for r in zip(*rows))
    nb = len(rows)
    add = np.array(add)
    if z is not None:
        zz = np.stack((np.real(z), np.imag(z)), axis=1)
        zz = (zz[::-1] if el.flip else zz)[:, :, None]
        coef += [el.e, el.e]
        start += [zz[0, 0] * one, zz[0, 1] * one]
    coef = np.stack(coef, axis=1)[:, :, None]
    x = np.array(start)
    ref = el.ref.tolist()
    piv = ref[0] + mu
    m = np.empty_like(x)
    # views made once: the loop is a few ufunc calls per row
    t, head, tail, m1 = x[0], x[:nb], x[nb:], m[1:2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c, r, zi in zip(coef, ref[1:], [None] * (n - 1) if z is None else zz[1:]):
            # (t, p', rho, r) <- (g t, e^2 p' / p, e rho, e r) / p + (mu, 1, 0, z_i)
            np.divide(c, piv, out=m)
            if derivative:
                m1 /= piv
            x *= m
            head += add
            if zi is not None:
                tail += zi
            np.add(t, r, out=piv)
    return piv, x


class FieldSpectrum(NamedTuple):
    """The field modes as the march, the resolvent and the census read them.

    ``ell`` are the eigenvalues of the symmetric field tridiagonal T,
    ``weight`` the boundary weights q_k[b]^2 of its
    orthonormal eigenvectors q_k at the damped row b, and ``coupled`` marks
    the weights >= eps (they sum to 1).  A mode is read at b or, where
    ``far``, at the other end row; ``entry`` is q_k there, with q_k[b] >= 0.
    """

    ell: np.ndarray
    weight: np.ndarray
    coupled: np.ndarray
    far: np.ndarray
    entry: np.ndarray


def field_spectrum(d, off, b):
    """The ``FieldSpectrum`` of T = (d, off) with damped end row b, in O(n) memory.

    ell comes from LAPACK dsterf.  With an end row r eliminated last, the
    last pivot p(z) of the LDL^T factorization of z - T is
    det(z - T)/det(z - T_r), so q_k[r]^2 = 1/p'(ell_k).  One pivot
    recurrence (``_sweep``) with b last carries p and p' for all n
    eigenvalues at once (O(n^2) time); one Newton step refines each
    eigenvalue and a second pass gives the weights.  Where ell_k is also,
    to rounding, an eigenvalue of T without row b, p is 0/0 and its
    residual stays above rounding: the mode is not resolved at b.  Below
    _RESOLVED_WEIGHT a weight read at b loses its accuracy; such a mode, or
    one not resolved at b, is read from the other end row a when its weight
    there is at least _RESOLVED_WEIGHT and larger.  One pass with a last
    gives q_k[a]^2 and rho_k = q_k[b] / q_k[a], a product of multipliers
    that keeps its relative accuracy however small q_k[b] is: the weight is
    q_k[a]^2 rho_k^2, the entry q_k[a] takes the sign of rho_k, and the
    Newton step at a refines the frequency of a mode not resolved at b.
    """
    (ell,) = lapack("dsterf", d, off)
    near = _elimination(d, off, b)
    rounding = 64.0 * np.finfo(float).eps * np.abs(ell).max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        piv, x = _sweep(near, ell, derivative=True)
        step = piv / x[1]
        refined = np.where(np.abs(step) <= 1e6 * rounding, ell - step, ell)
        piv, x = _sweep(near, refined, derivative=True)
        w = 1.0 / x[1]
        resolved = (np.abs(piv * w) <= rounding) & np.isfinite(w)
    ell = np.where(resolved, refined, ell)
    weight = np.where(resolved, w, 0.0)
    far = np.zeros(d.size, dtype=bool)
    entry = np.sqrt(weight)
    weak = np.flatnonzero(weight < _RESOLVED_WEIGHT)
    if weak.size:
        piv, (_, dpiv, rho) = _sweep(
            _elimination(d, off, d.size - 1 - b), ell[weak], derivative=True, ratio=True
        )
        with np.errstate(over="ignore", invalid="ignore"):
            w_a = 1.0 / dpiv
            step = piv * w_a
            better = ((w_a >= np.maximum(weight[weak], _RESOLVED_WEIGHT))
                      & (np.abs(step) <= rounding) & np.isfinite(rho) & (rho != 0.0))
        idx, w_a, rho = weak[better], w_a[better], rho[better]
        # a resolved mode keeps the step at b: on random tridiagonals it lands
        # about 1 ulp from the eigenvalue, the step at a about 2
        ell[idx] -= np.where(resolved[idx], 0.0, step[better])
        weight[idx] = w_a * rho * rho
        entry[idx] = np.copysign(np.sqrt(w_a), rho)
        far[idx] = True
    return FieldSpectrum(ell, weight, weight >= np.finfo(float).eps, far, entry)


def field_modes(d, off, spectrum, b, z):
    """The field modes a march carries: frequencies, boundary entries
    s_k = q_k[b] > 0 and coordinates c_k = q_k . z of the vector z, for the
    ``FieldSpectrum`` of the field tridiagonal T = (d, off) with damped
    end row b, with the remainder ||z||^2 - sum |c_k|^2 that the modes left
    out hold; O(n) memory and one pass of ``_sweep`` per end row.

    c_k = r(ell_k) q_k[end] is the residue of z at the end row the mode is
    read from.  The march carries the coupled modes and those whose
    boundary term s_k |c_k| is above eps ||z||, which needs s_k > eps; the
    others do not meet the damping to rounding and are not swept.  A
    remainder below -n eps ||z||^2, more than the rounding of n
    coordinates, raises NumericalError (P and P' up to n = 3200 read at
    least -0.05 n eps ||z||^2).
    """
    n = d.size
    eps = np.finfo(float).eps
    norm2 = float(np.vdot(z, z).real)
    s = np.sqrt(spectrum.weight)
    c = np.zeros(n, dtype=np.complex128)
    for far, last in ((False, b), (True, n - 1 - b)):
        idx = np.flatnonzero((spectrum.far == far) & (s > eps))
        if idx.size:
            _, x = _sweep(_elimination(d, off, last), spectrum.ell[idx], z=z)
            c[idx] = spectrum.entry[idx] * (x[1] + 1j * x[2])
    carried = spectrum.coupled | (s * np.abs(c) > eps * math.sqrt(norm2))
    c = c[carried]
    remainder = norm2 - float(np.vdot(c, c).real)
    if not (np.isfinite(remainder) and remainder >= -n * eps * norm2):
        raise NumericalError(
            "field coordinates hold more than the norm of the field",
            {"remainder": remainder, "norm_squared": norm2, "modes": int(c.size)},
        )
    return spectrum.ell[carried], s[carried], c, remainder


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
    ell, s, h_b, zeta, w, eta, xi2,
    alpha0, psi0, uncoupled_energy, dt, sample_steps,
):
    """Implicit-midpoint march of the coupled (y, psi) system on the field modes
    that reach the damped cell.

    The march takes K field modes as ``field_modes`` returns them:
    frequencies ell, boundary entries s_k = q_k[b] and the coordinates
    alpha0_k = q_k . h^{1/2} y0 of the initial field, with the cell width
    h_b at the damped cell b.  A mode left out only rotates; its energy is
    the constant ``uncoupled_energy``, added to every E.  With c = dt/2 the
    midpoint map is u' = 2v - u where (I - cA) v = u.  The psi block of
    that solve is diagonal and is eliminated exactly, leaving the field
    matrix 1/2 - (ic/2) L plus gmod at the damped cell, halved so that the
    solve returns 2v.  In the mode coordinates alpha that matrix is
    diag(1/l) + gmod s s^T with l = 1/(1/2 - ic ell/2), so Sherman-Morrison
    solves it in closed form; its denominator 1 + gmod s.(l s) has real
    part >= 1.  The step on u = (alpha, psi) is then a diagonal map plus a
    rank-two term: alpha is rotated by the unit-modulus l - 1 and psi
    scaled by its relaxation factor, and both are corrected along fixed
    vectors by multiples of p.alpha (p = l s) and q.psi (psi's share of the
    boundary right-hand side).  The steps between two samples are taken in
    blocks of at most _MARCH_BLOCK, each one (2k x N) product, one scaling
    and one (N x 2k) product on the N = K + m coordinates
    (``_march_block``).  Samples are taken at the sorted step indices
    ``sample_steps`` (from 0; the last one ends the march) and read out
    _READOUT_BATCH at a time: E and D each by one real product of the
    squared real and imaginary parts with a readout row, the boundary sums
    by one complex product.  Matrix-vector products only: a BLAS gemm's packing buffers
    would add about 0.4 MB of resident memory to a march.  Returns the
    sampled energy E, dissipation rate D and boundary sum w.(eta psi).
    """
    n = ell.size
    c = 0.5 * dt
    inv = 1.0 / (1.0 + c * xi2)
    gmod = (0.5 * c * c * zeta / h_b) * np.dot(w * eta * eta, inv)
    gain = 1.0 / (0.5 - 0.5j * c * ell)
    p = gain * s
    sp = complex(np.dot(s, p))
    kappa = gmod / (1.0 + gmod * sp)
    r = math.sqrt(h_b)
    weta = w * eta
    q = (c * zeta / h_b) * weta * inv
    g_psi = c * eta * inv

    # With pa = p.alpha and sig = q.psi, the boundary value of 2v is
    # t (1 - kappa sp) / r where t = pa - r sp sig, and
    #   alpha' = (l - 1) alpha - (r sig + kappa t) p,
    #   psi'   = (2 inv - 1) psi + (t (1 - kappa sp) / r) g_psi,
    # that is u' = scale*u - right @ (left @ u) with the 2 x (K+m) `left`
    # reading (pa, sig) and the (K+m) x 2 `right` spreading them.
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
    ed = np.zeros((2, n_samp))
    batch_len = min(n_samp, _READOUT_BATCH)
    states = np.empty((batch_len, scale.size), dtype=np.complex128)
    weta_c = weta.astype(np.complex128)  # np.dot with out= takes one dtype

    u = np.empty(scale.size, dtype=np.complex128)
    u[:n] = alpha0
    u[n:] = psi0
    tmp = np.empty_like(u)
    blocks = {}

    done = 0
    # march interval by interval between samples
    for k, stop in enumerate(sample_steps.tolist()):
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
        j = k % batch_len
        states[j] = u
        if j == batch_len - 1 or k == n_samp - 1:
            np.dot(states[: j + 1, n:], weta_c, out=s_out[k - j : k + 1])
            squares = states[: j + 1].view(np.float64)
            np.square(squares, out=squares)  # in place: the states are read
            np.dot(squares, readout[0], out=ed[0, k - j : k + 1])
            np.dot(squares, readout[1], out=ed[1, k - j : k + 1])
    e_out, d_out = ed
    e_out += uncoupled_energy
    return e_out, d_out, s_out
