"""Resolvent norms, power-law fits and decay-rate translation.

The norm ||(i*lam - A)^{-1}|| in the weighted geometry is 1/sigma_min of the
weighted similarity of i*lam - A.  In the h-orthonormal eigenbasis of the
field block (frequencies ell_k, boundary row s of the basis; see
``SystemOperator.field_spectrum``) and the weighted relaxation coordinates,
i*lam - A is the diagonal Delta = diag(i(lam - ell), i lam + xi^2) plus the
rank-two coupling e_s e_a^T - e_a e_s^T through the damped cell.  Its
singular values below any sigma are counted exactly by a 4 x 4 Hermitian
secular matrix (Golub 1973; Haynsworth inertia additivity), and sigma_min
is found by bisection on that count, finished by a safeguarded secant
(``_Secular``).  The singular vector is mapped to nodal coordinates with two
real tridiagonal solves, and one solve with the assembled i*lam - A, through
the Schur complement onto the field block (the relaxation block is
diagonal, so its elimination adds a single complex impedance entry at the
damped cell -- the discrete counterpart of the rho*(i*lam)^(beta-1)
boundary impedance), measures the returned norm and certifies sigma_min.
The same coordinates give the eigenvalues of A as the roots of one scalar
secular function, without a dense matrix (``damped_eigenvalues``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ._csv import write_csv
from ._kernels import TridiagFactor, _lapack
from .errors import (
    ConfigurationError,
    FitDataError,
    NumericalError,
    ParameterError,
    SpectralCollisionError,
)
from .model import ProblemSpec, StateVector, Variant
from .operator import SystemOperator


@dataclass(frozen=True)
class ScanFit:
    exponent: float
    r_squared: float
    window: Tuple[int, int]  # inclusive index range of the fitted sub-window
    max_residual: float  # largest |log norm - fitted line| inside the window


@dataclass(frozen=True)
class ResolventScan:
    """A scan's norms and fit, with what each shift measured.

    ``fit`` is None when no window of the norms can be fitted, and
    ``fit_error`` then says why.  ``shifts`` holds one ShiftReport per
    lambda and ``stage_s`` the wall times of the field eigensolve, the
    shifts and the fit; both are telemetry, not part of ``to_csv``.
    """

    lam: np.ndarray
    norm: np.ndarray
    fit: Optional[ScanFit]
    fit_error: Optional[str] = None
    shifts: Tuple[ShiftReport, ...] = ()
    stage_s: Optional[dict] = None

    def to_csv(self, path) -> None:
        write_csv(path, ["lambda", "norm"], [self.lam, self.norm])


@dataclass(frozen=True)
class ExponentPrediction:
    """Theoretical low/high-frequency exponents and the induced decay rate."""

    theta: float
    upsilon: float
    decay_exponent: float


# ---------------------------------------------------------------------------
# factorized shifted systems
# ---------------------------------------------------------------------------


class _ShiftedSystem:
    """Solves with M = i*lam - A.

    The relaxation rows are eliminated exactly; what remains is the field
    tridiagonal with the boundary impedance zeta/h_b * sum w eta^2/(i lam + xi^2)
    added at the damped cell.  `lam` may be complex: lam = -i z gives
    z - A, as inverse iteration at an eigenvalue z needs.  A solve leaves
    its input unchanged and returns a fresh array; the field part is solved
    in place in its leading n entries.
    """

    def __init__(self, op: SystemOperator, lam: complex):
        if op.zeta <= 0.0:
            raise ConfigurationError("resolvent analysis requires a damped operator (zeta > 0)")
        self.op = op
        self.n = op.xgrid.x.size
        self.b = op.boundary_index
        xi2 = op.xigrid.xi**2
        denom = 1j * lam + xi2
        if np.any(np.abs(denom) == 0.0):
            raise SpectralCollisionError(lam, complex(-xi2[np.argmin(np.abs(denom))]))
        # per-shift constants of the elimination, so a solve is one zgttrs,
        # one dot product and three in-place vector operations
        self._inv_denom = 1.0 / denom
        self._eta = op.xigrid.eta
        g = np.dot(op.relaxation_weights, self._inv_denom)
        self._couple = (op.zeta / op.xgrid.h[self.b]) * op.xigrid.w * self._eta * self._inv_denom

        d = (1j * lam - 1j * op.l_diag).astype(np.complex128)
        d[self.b] += g
        try:
            self._fwd = TridiagFactor(-1j * op.l_sub, d, -1j * op.l_sup)
        except np.linalg.LinAlgError as exc:
            raise SpectralCollisionError(lam, 1j * lam, str(exc)) from exc

    @property
    def weights(self) -> np.ndarray:
        return self.op.weights

    def solve(self, f):
        """z with (i lam - A) z = f, f stacked as (f_y ; f_psi)."""
        n, b = self.n, self.b
        fp = f[n:]
        z = np.empty(f.shape, dtype=np.complex128)
        zy, zp = z[:n], z[n:]
        zy[...] = f[:n]
        zy[b] -= np.dot(self._couple, fp)
        self._fwd.solve_in_place(zy)
        np.multiply(self._eta, zy[b], out=zp)
        zp += fp
        zp *= self._inv_denom
        return z


def _shifted_system(op, lam: float):
    # an assembled operator, or a proxy for one (its attributes, plus a
    # shifted_system(lam) method returning an object with solve and weights)
    if isinstance(op, SystemOperator):
        return _ShiftedSystem(op, lam)
    if hasattr(op, "shifted_system"):
        return op.shifted_system(lam)
    raise ConfigurationError(f"cannot build a resolvent system for {type(op).__name__}")


# ---------------------------------------------------------------------------
# singular values in the field eigenbasis
# ---------------------------------------------------------------------------

#: Poles r_k within this share of sigma are kept as bordered rows of the
#: secular matrix instead of being divided out.
_BORDER = 1e-12
#: The safeguarded secant stops at this relative bracket width.
_SIGMA_RTOL = 4.0 * np.finfo(float).eps
#: A certificate ||R u||/||u|| that differs from 1/sigma by more than this
#: share, plus 64 eps times the local condition (the diagonal entry of the
#: mode that carries the singular vector over sigma), is refused.  The
#: global bound eps*cond(i lam - A) would reach 1 at lam = 0, where the
#: structured solve and the secular value agree to about 1e-12.
_CERTIFICATE_RTOL = 1e-7


@dataclass(frozen=True)
class ShiftReport:
    """What one resolvent norm measured, for scan diagnostics.

    ``field_share`` is the share of the top singular vector of the resolvent
    in the field block, ``evaluations`` the number of singular-value counts
    and ``certificate_gap`` = sigma_min*||R u||/||u|| - 1.
    """

    lam: float
    norm: float
    field_share: float
    evaluations: int
    certificate_gap: float


class _Root(NamedTuple):
    """sigma_min of a secular problem and what its singular vector needs.

    Either ``free``, the index of a decoupled mode (weight 0 here) whose
    exact singular value it is, or the bordered poles and the null vector
    (t, tau) of the bordered secular matrix at sigma.
    """

    sigma: float
    border: np.ndarray = np.zeros(0, dtype=int)
    null: Optional[np.ndarray] = None
    free: int = -1


class _Secular:
    """Singular values of M = diag(delta) + e_s e_a^T - e_a e_s^T.

    This is i lam - A in the weighted field eigenbasis: delta holds
    i(lam - ell_k) for the n field modes and i lam + xi_k^2 for the
    relaxation modes, and x2 = (s^2; a^2) the squared coupling weights
    (e_s = (s; 0), e_a = (0; a); only squares enter, so s >= 0 is taken,
    which orients each field eigenvector by its boundary entry).  With
    r_k = |delta_k| the poles, the number of singular values below sigma is
    #{r_k < sigma} + neg G(sigma) - 2 (Haynsworth inertia additivity on the
    augmented matrix [[0, M], [M^H, 0]]).  G(sigma) is 4 x 4 Hermitian on
    the coordinates (field top, relaxation top, field bottom, relaxation
    bottom): with d_k = 1/((sigma - r_k)(sigma + r_k)), mode k adds
    x_k^2 sigma d_k to both diagonal entries of its coordinate pair (0, 2)
    or (1, 3) and x_k^2 delta_k d_k to the pair's upper off-diagonal, and
    -K links field top to relaxation bottom (-1) and relaxation top to
    field bottom (+1).  Poles within _BORDER*sigma are
    bordered instead of divided out: the pair's term for the eigenvalue
    +r_k of [[0, delta_k], [conj delta_k, 0]] becomes a row
    (x_k/sqrt 2)(e_p + (delta_k/r_k) e_p+2) with diagonal -(sigma - r_k),
    and neg of the bordered matrix replaces their share of the count.
    Modes of weight 0 (decoupled) are exact singular values r_k and enter
    the count only.
    """

    def __init__(self, delta, x2, n_field):
        self.delta = delta
        r = np.abs(delta)
        coupled = x2 > 0.0
        self.free = np.flatnonzero(~coupled)
        self.free_r = np.sort(r[self.free])
        idx = np.flatnonzero(coupled)
        self.idx = idx
        self.r = r[idx]
        self.x2 = x2[idx]
        self.dl = delta[idx]
        self.field = idx < n_field
        self.order = np.argsort(self.r)
        self.r_sorted = self.r[self.order]
        # the four far sums as one real product: sigma-weights of the field
        # and relaxation diagonals, then Re and Im of the off-diagonals
        xd = self.x2 * self.dl
        fw = self.field.astype(float)
        rw = 1.0 - fw
        sums = np.empty((idx.size, 6))
        sums[:, 0] = self.x2 * fw
        sums[:, 1] = self.x2 * rw
        sums[:, 2] = xd.real * fw
        sums[:, 3] = xd.imag * fw
        sums[:, 4] = xd.real * rw
        sums[:, 5] = xd.imag * rw
        self._sums = sums
        self.evaluations = 0
        self._seen = {}

    # -- the count -------------------------------------------------------

    def near(self, lo, hi):
        """Positions (in the coupled arrays) of the poles in [lo, hi), and
        the number of poles below lo."""
        i0, i1 = self.r_sorted.searchsorted((lo, hi))
        return self.order[i0:i1], int(i0)

    def matrix(self, sigma, border):
        """The secular matrix at sigma with the poles `border` bordered.

        Only the lower triangle is filled (the LAPACK eigensolvers read
        that one), and the matrix is symmetrically equilibrated: the
        congruence keeps its inertia and its zero crossings, while the
        eigensolver sees entries of modulus <= 1.  Returns the matrix and
        the scaling.
        """
        self.evaluations += 1
        r = self.r
        den = (sigma - r) * (sigma + r)
        nb = border.size
        if nb:
            den[border] = np.inf  # their terms are the bordered rows
        d = 1.0 / den
        pf, pr, qf_re, qf_im, qr_re, qr_im = d @ self._sums
        pf *= sigma
        pr *= sigma
        if not nb:
            # 4 x 4: each row's largest entry is known in closed form
            sf = 1.0 / math.sqrt(max(abs(pf), math.hypot(qf_re, qf_im), 1.0))
            sr = 1.0 / math.sqrt(max(abs(pr), math.hypot(qr_re, qr_im), 1.0))
            ff, rr, fr = sf * sf, sr * sr, sf * sr
            g = np.zeros((4, 4), dtype=np.complex128)
            g[0, 0] = g[2, 2] = pf * ff
            g[1, 1] = g[3, 3] = pr * rr
            g[2, 0] = complex(qf_re * ff, -qf_im * ff)
            g[3, 1] = complex(qr_re * rr, -qr_im * rr)
            g[3, 0] = -fr
            g[2, 1] = fr
            return g, np.array((sf, sr, sf, sr))
        g = np.zeros((4 + nb, 4 + nb), dtype=np.complex128)
        g[0, 0] = g[2, 2] = pf
        g[1, 1] = g[3, 3] = pr
        g[2, 0] = complex(qf_re, -qf_im)
        g[3, 1] = complex(qr_re, -qr_im)
        g[3, 0] = -1.0
        g[2, 1] = 1.0
        rb, x2b = r[border], self.x2[border]
        p = np.where(self.field[border], 0, 1)
        phase = self.dl[border] / rb
        gterm = 0.5 * x2b / (sigma + rb)
        np.add.at(g, (p, p), gterm)
        np.add.at(g, (p + 2, p + 2), gterm)
        np.add.at(g, (p + 2, p), -gterm * np.conj(phase))
        rows = 4 + np.arange(nb)
        xb = np.sqrt(0.5 * x2b)
        g[rows, p] = xb
        g[rows, p + 2] = xb * phase
        g[rows, rows] = -(sigma - rb)
        mag = np.abs(g)
        scale = 1.0 / np.sqrt(np.maximum(mag.max(axis=0), mag.max(axis=1)))
        g *= scale[:, None] * scale[None, :]
        return g, scale

    def eigenvalues(self, sigma, border):
        """Ascending eigenvalues of the (equilibrated) secular matrix.

        Remembered per (sigma, border): a bracket end is evaluated once.
        """
        key = (sigma, border.tobytes())
        w = self._seen.get(key)
        if w is None:
            w, _, info = _lapack.zheev(self.matrix(sigma, border)[0], compute_v=0, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"zheev failed with info={info}")
            self._seen[key] = w
        return w

    def count(self, sigma):
        """Number of singular values below sigma."""
        border, below = self.near(sigma * (1.0 - _BORDER), sigma * (1.0 + _BORDER))
        neg = int(np.count_nonzero(self.eigenvalues(sigma, border) < 0.0))
        return int(self.free_r.searchsorted(sigma)) + below + neg - 2

    # -- the smallest singular value ----------------------------------------

    def upper_bound(self):
        """||M e_k|| over the unit modal vectors, the least of which bounds sigma_min."""
        s2 = float(np.sum(self.x2[self.field]))
        a2 = float(np.sum(self.x2[~self.field]))
        other = np.where(self.field, a2, s2)
        return float(np.sqrt(self.r**2 + self.x2 * other).min(initial=np.inf))

    def smallest(self):
        """sigma_min as a _Root, from which ``singular_vector`` builds its vector.

        The coupled poles are grouped into clusters (neighbours closer than
        _BORDER relative).  The count just below each cluster finds, by a
        galloping then binary search, the first cluster with a singular
        value below it; sigma_min then lies in the pole-free gap before
        that cluster or inside the previous cluster, whose poles are
        bordered.  A safeguarded secant finishes on that bracket.
        """
        # the least exact singular value of a decoupled mode caps the search
        cap = self.free_r[0] * (1.0 - _SIGMA_RTOL) if self.free_r.size else np.inf
        # poles at 0 lie below every sigma > 0 and are never bordered
        first = int(self.r_sorted.searchsorted(0.0, side="right"))
        rs = self.r_sorted[first : int(self.r_sorted.searchsorted(cap))]
        cut = np.flatnonzero(rs[1:] * (1.0 - _BORDER) > rs[:-1] * (1.0 + _BORDER)) + 1
        starts = np.concatenate(([0], cut)) if rs.size else np.zeros(0, dtype=int)
        ends = np.concatenate((cut, [rs.size])) - 1 if rs.size else np.zeros(0, dtype=int)
        # just below each cluster, outside the bordering window of count
        below = rs[starts] * (1.0 - 2.0 * _BORDER)
        bound = self.upper_bound()
        top = min(bound, cap)
        points = np.append(below[below < top], top)

        def has_root_below(c):
            if c < points.size - 1:
                return self.count(points[c]) >= 1
            for _ in range(64):
                if self.count(points[c]) >= 1:
                    return True
                if points[c] == cap:
                    return False
                points[c] = min(2.0 * points[c], cap)
            raise NumericalError("no singular value below the modal upper bound",
                                 {"upper_bound": bound})

        # the first gap point with a singular value below it
        lo_c, step = -1, 1
        while True:
            c = min(lo_c + step, points.size - 1)
            if has_root_below(c):
                break
            if c == points.size - 1:
                # none below the cap: a decoupled mode is the smallest
                k = self.free[int(np.argmin(np.abs(self.delta[self.free])))]
                return _Root(float(np.abs(self.delta[k])), free=int(k))
            lo_c, step = c, 2 * step
        hi_c = c
        while hi_c - lo_c > 1:
            mid = (lo_c + hi_c) // 2
            if has_root_below(mid):
                hi_c = mid
            else:
                lo_c = mid
        hi = float(points[hi_c])
        no_border = np.zeros(0, dtype=int)
        if hi_c == 0:
            lo = 0.5 * hi
            floor = hi * np.finfo(float).eps ** 2
            while self.count(lo) >= 1:
                hi, lo = lo, 0.25 * lo
                if lo < floor:
                    return _Root(0.0)
            return self._secant(lo, hi, no_border)
        c = hi_c - 1  # sigma_min is in cluster c or in the gap after it
        lo = float(points[c])
        above = float(rs[ends[c]] * (1.0 + 2.0 * _BORDER))
        if above < hi and self.count(above) == 0:
            return self._secant(above, hi, no_border)
        cluster = self.order[first + starts[c] : first + ends[c] + 1]
        return self._secant(lo, min(above, hi), cluster)

    def _secant(self, lo, hi, border):
        """Illinois regula falsi on the eigenvalue of G that crosses zero.

        The bordered poles are fixed over [lo, hi] and no other pole lies
        in it, so that eigenvalue (index j, the number of negative
        eigenvalues at lo) is continuous there; its sign decides each side.
        """
        ev = self.eigenvalues(lo, border)
        j = int(np.count_nonzero(ev < 0.0))
        f_lo = ev[j]
        f_hi = self.eigenvalues(hi, border)[j]
        side = 0
        for _ in range(200):
            if hi - lo <= _SIGMA_RTOL * hi:
                break
            sigma = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else 0.5 * (lo + hi)
            if not lo < sigma < hi:
                sigma = 0.5 * (lo + hi)
            ev = self.eigenvalues(sigma, border)
            f = ev[j]
            if np.count_nonzero(ev < 0.0) > j:
                hi, f_hi = sigma, f
                if side == 1:
                    f_lo *= 0.5
                side = 1
            else:
                lo, f_lo = sigma, f
                if side == -1:
                    f_hi *= 0.5
                side = -1
            if f == 0.0:
                break
        sigma = lo if abs(f_lo) < abs(f_hi) else hi
        g, scale = self.matrix(sigma, border)
        _, vecs, info = _lapack.zheev(g, compute_v=1, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zheev failed with info={info}")
        return _Root(sigma, border=border, null=scale * vecs[:, j])

    def singular_vector(self, root):
        """Left singular vector u (modal coordinates) for sigma_min.

        With (t, tau) the null vector of the bordered matrix, a far mode has
        u_k = x_k (sigma t_p + delta_k t_p+2) / ((sigma - r_k)(sigma + r_k)),
        a bordered one u_k = tau_k/sqrt 2 + x_k (t_p - delta_k/r_k t_p+2) / (2(sigma + r_k)),
        p = 0 for field and 1 for relaxation modes.
        """
        u = np.zeros(self.delta.size, dtype=np.complex128)
        if root.free >= 0:
            u[root.free] = 1.0
            return u
        sigma, border = root.sigma, root.border
        t, tau = root.null[:4], root.null[4:]
        r = self.r
        tp = np.where(self.field, t[0], t[1])
        tq = np.where(self.field, t[2], t[3])
        with np.errstate(divide="ignore", invalid="ignore"):
            uc = np.sqrt(self.x2) * (sigma * tp + self.dl * tq) / ((sigma - r) * (sigma + r))
        if border.size:
            rb, db = r[border], self.dl[border]
            xb = np.sqrt(self.x2[border])
            uc[border] = tau / math.sqrt(2.0) + xb * (tp[border] - db / rb * tq[border]) / (
                2.0 * (sigma + rb)
            )
        u[self.idx] = uc
        return u


def _tridiagonal_solve(l_diag, off, shift, rhs):
    """(T - shift)^{-1} rhs for the symmetrized field tridiagonal T (LAPACK dgtsv).

    Used at shifts on or next to an eigenvalue of T, whose eigenvector the
    caller replaces or wants: if T - shift is singular to working precision,
    the shift moves by a few ulps of the largest diagonal entry.
    """
    ulp = np.spacing(np.abs(l_diag).max())
    for nudge in (0.0, 4.0 * ulp, 64.0 * ulp):
        *_, x, info = _lapack.dgtsv(off, l_diag - (shift + nudge), off, rhs)
        if info == 0:
            return x
    raise NumericalError(
        "field tridiagonal is singular at a singular-vector shift",
        {"shift": float(shift), "info": int(info)},
    )


def _field_eigenvector(l_diag, off, ell_k, b):
    """Unit eigenvector of T for its eigenvalue ell_k, with entry b >= 0.

    Three steps of inverse iteration at the eigenvalue.
    """
    x = np.full(l_diag.size, 1.0 / math.sqrt(l_diag.size))
    for _ in range(3):
        x = _tridiagonal_solve(l_diag, off, ell_k, x)
        x /= np.linalg.norm(x)
    return x if x[b] >= 0.0 else -x


def _field_vector(spectrum, l_diag, b, lam, sigma, t, u_field, bordered):
    """S u_field for the field part of a singular vector, without S.

    Summed over the eigenpairs (ell_k, q_k) of the symmetrized tridiagonal
    T, the far field modes give
    ((t0 + i t2)/2) (T - (lam - sigma))^{-1} e_b - ((t0 - i t2)/2) (T - (lam + sigma))^{-1} e_b,
    two real tridiagonal solves.  A bordered field mode's component along
    its eigenvector q_k is replaced by its own coordinate u_k.
    """
    rhs = np.zeros(l_diag.size)
    rhs[b] = 1.0
    z = 0.5 * (t[0] + 1j * t[2]) * _tridiagonal_solve(l_diag, spectrum.off, lam - sigma, rhs)
    z -= 0.5 * (t[0] - 1j * t[2]) * _tridiagonal_solve(l_diag, spectrum.off, lam + sigma, rhs)
    for k in bordered:
        q = _field_eigenvector(l_diag, spectrum.off, spectrum.ell[k], b)
        z += (u_field[k] - np.dot(q, z)) * q
    return z


def _secular(op, lam: float) -> _Secular:
    """i lam - A as ``_Secular`` takes it, the decoupled field modes with weight 0."""
    spectrum = op.field_spectrum
    delta = np.concatenate((1j * (lam - spectrum.ell), op.xigrid.xi**2 + 1j * lam))
    x2 = np.concatenate((np.where(spectrum.coupled, spectrum.weight, 0.0), op.relaxation_weights))
    return _Secular(delta, x2, spectrum.ell.size)


def resolvent_norm(op, lam: float, *, report: Optional[list] = None) -> float:
    """||(i lam - A)^{-1}|| in the weighted operator norm.

    sigma_min of i lam - A comes from an exact singular-value count in the
    field eigenbasis (``_Secular``): bisection on the count, then a
    safeguarded secant.  Its singular vector u is mapped to nodal
    coordinates and one shifted solve measures ||R u||_W / ||u||_W, which is
    returned: a lower bound for the norm, within _CERTIFICATE_RTOL (plus a
    rounding term that grows with the local condition) of 1/sigma, or
    NumericalError.  A shift at which sigma_min is
    0 raises SpectralCollisionError.  If `report` is a list, the shift's
    ShiftReport is appended to it.
    """
    sys_ = _shifted_system(op, lam)
    spectrum = op.field_spectrum
    n = spectrum.ell.size
    b = op.boundary_index
    xi2 = op.xigrid.xi**2
    sec = _secular(op, lam)
    root = sec.smallest()
    sigma = root.sigma
    if not sigma > 0.0:
        raise SpectralCollisionError(lam, 1j * lam, "singular shift: sigma_min is 0")
    u = sec.singular_vector(root)
    scale = 1.0 / np.linalg.norm(u)
    u *= scale
    # the local condition: the size of the diagonal entry of the mode that
    # carries the vector over sigma_min; past 1/(8 eps) the shift is
    # singular to working precision
    k = int(np.argmax(np.abs(u)))
    cond = (abs(lam) + (abs(spectrum.ell[k]) if k < n else xi2[k - n])) / sigma
    if cond >= 1.0 / (8.0 * np.finfo(float).eps):
        raise SpectralCollisionError(
            lam, 1j * lam, f"shift i*{lam:g} is numerically an eigenvalue (sigma_min {sigma:.3g})"
        )
    uf = u[:n]
    field_share = float(np.vdot(uf, uf).real)
    # every relaxation weight a_k^2 is positive (zeta > 0), so a decoupled
    # mode is a field mode
    if root.free >= 0:
        zf = _field_eigenvector(op.l_diag, spectrum.off, spectrum.ell[root.free], b)
    else:
        bordered = sec.idx[root.border]
        zf = _field_vector(spectrum, op.l_diag, b, lam, sigma, scale * root.null[:4], uf,
                           bordered[bordered < n])
    weights = sys_.weights
    sw = np.sqrt(weights)
    y = np.concatenate((zf, u[n:])) / sw
    with np.errstate(invalid="ignore", over="ignore"):
        z = sys_.solve(y)
        cert = float(np.linalg.norm(sw * z) / np.linalg.norm(sw * y))
    if not np.isfinite(cert) or cert <= 0.0:
        raise SpectralCollisionError(lam, 1j * lam, "non-finite resolvent certificate")
    gap = cert * sigma - 1.0
    if not abs(gap) <= _CERTIFICATE_RTOL + 64.0 * np.finfo(float).eps * cond:
        raise NumericalError(
            "resolvent certificate disagrees with the secular singular value",
            {"lambda": lam, "sigma": sigma, "certificate": cert, "gap": gap,
             "local_condition": cond, "evaluations": sec.evaluations},
        )
    if report is not None:
        report.append(ShiftReport(lam=float(lam), norm=cert, field_share=field_share,
                                  evaluations=sec.evaluations, certificate_gap=gap))
    return cert


def smallest_singular_value(op) -> float:
    """sigma_min(A) in the weighted geometry (1/resolvent norm at lambda = 0)."""
    try:
        return 1.0 / resolvent_norm(op, 0.0)
    except SpectralCollisionError:
        return 0.0


# ---------------------------------------------------------------------------
# eigenvalues as roots of the secular equation
# ---------------------------------------------------------------------------

#: Newton iterations allowed per root, and deflation sweeps per recovery;
#: a root that has not converged within them is not counted.
_NEWTON_STEPS = 60
#: A Newton step below this share of the root's modulus ends its iteration.
_NEWTON_RTOL = 16.0 * np.finfo(float).eps
#: Converged roots closer than this share of their modulus are one root.
_DISTINCT_RTOL = 1e-10
#: Bisection steps that bracket each relaxation-band root on the real axis.
_BRACKET_STEPS = 30
#: Entries per row block of the secular sums (1 MB of complex temporaries).
_SUM_BLOCK = 1 << 16


class DampedEigenvalues(NamedTuple):
    """The eigenvalues of A and how the secular census found them.

    ``values`` holds all n + m eigenvalues: first i ell_k for the field
    modes that are decoupled (weight below eps, so exact), then the K + m
    roots of 1 + F G, K being the number of coupled field modes; a census
    is only returned complete.  ``iterations`` are the Newton iterations
    per value (decoupled modes: 0).  ``unconverged`` counts the Newton
    starts that did not converge (starts that converge to a root another
    start found are merged, not counted), and ``recovered`` the roots that
    deflated Newton found after them.
    """

    values: np.ndarray
    iterations: np.ndarray
    expected: int
    unconverged: int
    recovered: int


def _secular_sums(z, poles, w2):
    """sum w2/(z - p) and sum w2/(z - p)^2 over the poles p, for each z.

    Evaluated in row blocks of at most _SUM_BLOCK table entries, so no
    len(z) x len(poles) array is formed.
    """
    s0 = np.empty(z.size, dtype=np.complex128)
    s1 = np.empty(z.size, dtype=np.complex128)
    rows = max(1, _SUM_BLOCK // max(poles.size, 1))
    w2 = w2.astype(np.complex128)
    for i in range(0, z.size, rows):
        d = np.subtract.outer(z[i : i + rows], poles)
        np.reciprocal(d, out=d)
        s0[i : i + rows] = d @ w2
        d *= d
        s1[i : i + rows] = d @ w2
    return s0, s1


class _Characteristic:
    """det(z - A) = det Delta(z) (1 + F(z) G(z)), as the census needs it.

    In the weighted field eigenbasis z - A is diag(z - i ell, z + xi^2)
    plus the rank-two coupling e_s e_a^T - e_a e_s^T of ``_Secular``, so
    with the field weights s_k^2 and the relaxation weights a_k^2
    (``op.relaxation_weights``)
        F(z) = sum s_k^2 / (z - i ell_k),   G(z) = sum a_k^2 / (z + xi_k^2).
    Only the coupled field modes of ``op.field_spectrum`` are poles; a
    decoupled one (weight below eps) is an exact eigenvalue.  Newton runs
    on the forms that stay regular at the poles a root sits next to:
    1/F + G near the field poles and in the open band, 1/G + F next to a
    relaxation pole.
    """

    def __init__(self, op):
        spectrum = op.field_spectrum
        self.ell = spectrum.ell[spectrum.coupled]
        self.s2 = spectrum.weight[spectrum.coupled]
        self.field_poles = 1j * self.ell
        self.relax_poles = (-op.xigrid.xi**2).astype(np.complex128)
        self.a2 = op.relaxation_weights

    def terms(self, z):
        """F, F', G, G' at each z."""
        f, df = _secular_sums(z, self.field_poles, self.s2)
        g, dg = _secular_sums(z, self.relax_poles, self.a2)
        return f, -df, g, -dg

    def newton(self, z, near_relax):
        """Newton from each start z, on 1/G + F where near_relax, else on 1/F + G.

        Safeguarded: iterates stay in the closed left half-plane, and a
        start stops when its step falls below _NEWTON_RTOL of its modulus
        (converged) or is not finite (a pole was hit); no start runs more
        than _NEWTON_STEPS iterations.  Returns (roots, converged, iterations).
        """
        z = z.astype(np.complex128)
        converged = np.zeros(z.size, dtype=bool)
        iterations = np.zeros(z.size, dtype=np.int64)
        active = np.flatnonzero(np.isfinite(z))
        for _ in range(_NEWTON_STEPS):
            if not active.size:
                break
            za = z[active]
            relax = near_relax[active]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f, df, g, dg = self.terms(za)
                step = np.where(relax, (1.0 / g + f) / (df - dg / g**2),
                                (1.0 / f + g) / (dg - df / f**2))
            finite = np.isfinite(step)
            za = np.where(finite, za - step, za)
            # every eigenvalue has Re <= 0 (Re <A Y, Y> <= 0), so an iterate is
            # put back onto that closed half-plane, which brings it no
            # farther from any root
            za.real = np.minimum(za.real, 0.0)
            z[active] = za
            iterations[active] += 1
            done = finite & (np.abs(step) <= _NEWTON_RTOL * np.abs(za))
            converged[active[done]] = True
            active = active[finite & ~done]
        return z, converged, iterations

    def gap_starts(self):
        """One real start per gap between consecutive relaxation poles.

        On the negative axis G is real and falls from +inf to -inf across
        each gap, while Re F < 0 keeps 1/F finite; the start is where
        G + Re(1/F) changes sign, found by bisection in real arithmetic.
        """
        order = np.argsort(self.relax_poles.real)
        edges, a2 = self.relax_poles.real[order], self.a2[order]
        lo, hi = edges[:-1].copy(), edges[1:].copy()
        ell2 = self.ell**2
        for _ in range(_BRACKET_STEPS):
            mid = 0.5 * (lo + hi)
            g = (1.0 / np.subtract.outer(mid, edges)) @ a2
            inv = 1.0 / np.add.outer(mid**2, ell2)
            f_re = mid * (inv @ self.s2)
            f_im = inv @ (self.s2 * self.ell)
            right = g + f_re / (f_re**2 + f_im**2) > 0.0
            lo = np.where(right, mid, lo)
            hi = np.where(right, hi, mid)
        return 0.5 * (lo + hi)

    def pole_starts(self):
        """Starts next to each pole, the first Newton step from it on the form
        regular there: i ell - s^2 G(i ell) for the field poles, then
        p - a^2 F(p) for the relaxation poles p."""
        g = _secular_sums(self.field_poles, self.relax_poles, self.a2)[0]
        f = _secular_sums(self.relax_poles, self.field_poles, self.s2)[0]
        return np.concatenate((self.field_poles - self.s2 * g, self.relax_poles - self.a2 * f))

    def deflated_root(self, w, found):
        """Newton from w with the found roots divided out (Maehly 1954).

        With P = (1 + F G) prod(z - poles) the characteristic polynomial,
        P'/P - sum 1/(z - r) over the found roots r is the logarithmic
        derivative of P with those roots removed, so each step heads for a
        root not yet found.  Returns (root, converged, iterations).
        """
        poles = np.concatenate((self.field_poles, self.relax_poles))
        w = np.array([w], dtype=np.complex128)
        for it in range(1, _NEWTON_STEPS + 1):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f, df, g, dg = self.terms(w)
                log_d = ((df * g + f * dg) / (1.0 + f * g)
                         + _secular_sums(w, poles, np.ones(poles.size))[0]
                         - _secular_sums(w, found, np.ones(found.size))[0])
                step = 1.0 / log_d
            if not np.isfinite(step[0]):
                return w[0], False, it
            w -= step
            if abs(step[0]) <= _NEWTON_RTOL * abs(w[0]):
                return w[0], True, it
        return w[0], False, _NEWTON_STEPS

    def recovery_starts(self):
        """Deflation starts away from both pole families: the rays at
        +-3 pi/4 through the band, one point per decade of |pole|."""
        scale = np.abs(np.concatenate((self.field_poles, self.relax_poles)))
        scale = scale[scale > 0.0]
        decades = np.arange(math.floor(math.log10(scale.min())),
                            math.ceil(math.log10(scale.max())) + 1)
        radius = 10.0 ** np.repeat(decades, 2)
        return radius * np.tile(np.exp([0.75j * np.pi, -0.75j * np.pi]), decades.size)


def _distinct(z):
    """Indices of z without repeats: roots within _DISTINCT_RTOL of their modulus are one."""
    mod = np.abs(z)
    order = np.argsort(mod, kind="stable")
    zs, mod = z[order], mod[order]
    tol = _DISTINCT_RTOL * mod
    keep = np.ones(zs.size, dtype=bool)
    for i in range(zs.size):
        if not keep[i]:
            continue
        j = i + 1
        while j < zs.size and mod[j] - mod[i] <= tol[i]:
            if abs(zs[j] - zs[i]) <= tol[i]:
                keep[j] = False
            j += 1
    return order[keep]


def damped_eigenvalues(op) -> DampedEigenvalues:
    """All eigenvalues of A, from the secular form of its characteristic polynomial.

    A decoupled field mode of ``op.field_spectrum`` (weight below eps) is
    taken as the exact eigenvalue i ell_k.  The other K + m eigenvalues are
    the roots of 1 + F G (see ``_Characteristic``), found by safeguarded
    Newton from three families of starts: next to each coupled field pole,
    next to each relaxation pole, and one bracketed on the real axis in
    each gap between consecutive relaxation poles.  Converged roots are
    merged; roots still missing (such as the continuation of a zero field
    frequency into the relaxation band) are recovered one at a time by
    Newton with the found roots divided out.  Each evaluation costs
    O(n + m); no dense matrix is formed.  Unless K + m distinct converged
    roots result, NumericalError is raised with the census counts.
    """
    if op.zeta <= 0.0:
        raise ConfigurationError("the eigenvalue census requires a damped operator (zeta > 0)")
    char = _Characteristic(op)
    n_field, n_relax = char.field_poles.size, char.relax_poles.size
    expected = n_field + n_relax

    starts = np.concatenate((char.pole_starts(), char.gap_starts()))
    near_relax = np.zeros(starts.size, dtype=bool)
    near_relax[n_field : n_field + n_relax] = True
    z, converged, iterations = char.newton(starts, near_relax)
    good = np.flatnonzero(converged)
    keep = good[_distinct(z[good])]
    roots, iters = z[keep], iterations[keep]
    unconverged = int(starts.size - good.size)
    recovered = 0
    # roots still missing, one at a time, by deflated Newton from fixed
    # points and then from the starts that did not converge
    for w0 in np.concatenate((char.recovery_starts(), starts[~converged])):
        if roots.size >= expected:
            break
        w, ok, its = char.deflated_root(w0, roots)
        if ok and np.all(np.abs(roots - w) > _DISTINCT_RTOL * abs(w)):
            roots = np.append(roots, w)
            iters = np.append(iters, its)
            recovered += 1
    if roots.size != expected:
        raise NumericalError(
            "eigenvalue census incomplete",
            {"found": int(roots.size), "expected": expected, "unconverged": unconverged,
             "recovered": recovered, "max_newton_iterations": int(iterations.max(initial=0))},
        )
    decoupled = 1j * op.field_spectrum.ell[~op.field_spectrum.coupled]
    return DampedEigenvalues(
        values=np.concatenate((decoupled, roots)),
        iterations=np.concatenate((np.zeros(decoupled.size, dtype=np.int64), iters)),
        expected=expected,
        unconverged=unconverged,
        recovered=recovered,
    )


def solve_resolvent(op: SystemOperator, lam: float, f_y, f_psi):
    """Solve (i lam - A) Y = F, returning the state (y, psi) components."""
    sys_ = _ShiftedSystem(op, lam)
    f = np.concatenate(
        (np.asarray(f_y, dtype=np.complex128), np.asarray(f_psi, dtype=np.complex128))
    )
    z = sys_.solve(f)
    return StateVector(y=z[: sys_.n], psi=z[sys_.n :])


def forcing_integral(op: SystemOperator, lam: float, f_psi) -> complex:
    """The mode-forcing boundary constant -i zeta sum w eta f_psi/(i lam + xi^2)."""
    xi2 = op.xigrid.xi**2
    return complex(
        -1j * op.zeta * np.dot(op.xigrid.w * op.xigrid.eta,
                               np.asarray(f_psi, complex) / (1j * lam + xi2))
    )


# ---------------------------------------------------------------------------
# scans and fits
# ---------------------------------------------------------------------------


def _fit_line(x, y):
    """Least-squares line y ~ slope*x + intercept: (slope, intercept, R^2).

    R^2 is 1 when y is constant: the flat line fits it exactly, whatever
    roundoff polyfit leaves in the residual.  Equal values are tested as
    such, because the rounded mean can leave ss_tot a few ulps above 0.
    """
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    flat = ss_tot == 0.0 or bool(np.all(y == y[0]))
    r2 = 1.0 if flat else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


#: Fewest lambdas a scan takes, and the fewest points a fitted window holds.
MIN_SCAN_POINTS = 8
#: A window's local slopes stay within this share of their mean (floor 0.1).
_SLOPE_BAND = 0.10


def _stable_window_fit(logx, logy):
    """Longest contiguous sub-window whose local slope varies < _SLOPE_BAND.

    The band is relative to the window-mean slope, with an absolute floor of
    0.1 slope units so that flat curves (norms saturating to a constant)
    still admit a window.  Ties break toward the smallest slope spread, then
    the leftmost window.  Returns the inclusive window (i0, i1) and the
    window's line fit (exponent, intercept, r_squared).

    Lengths are searched longest-first, so the search stops at the first
    length that admits a window.
    """
    n = logx.size
    if n < MIN_SCAN_POINTS:
        raise FitDataError(f"need >= {MIN_SCAN_POINTS} scan points, got {n}")
    slopes = np.diff(logy) / np.diff(logx)
    for length in range(n, MIN_SCAN_POINTS - 1, -1):
        best = None
        for i in range(n - length + 1):
            sl = slopes[i : i + length - 1]
            m = sl.mean()
            if np.max(np.abs(sl - m)) < _SLOPE_BAND * max(abs(m), 0.1):
                spread = float(np.std(sl))
                if best is None or spread < best[0]:
                    best = (spread, i)
        if best is not None:
            i0, i1 = best[1], best[1] + length - 1
            return (i0, i1, *_fit_line(logx[i0 : i1 + 1], logy[i0 : i1 + 1]))
    raise FitDataError(
        f"no sub-window of {MIN_SCAN_POINTS} or more points with stable local slope"
    )


def scan_resolvent(op, lambdas) -> ResolventScan:
    """Norms over a log-spaced |lambda| grid plus an automatic power-law fit.

    The fitted `exponent` is the log-log slope (so a 1/|lambda| blow-up reads
    as -1); norms with no stable window are returned with no fit and the
    fit's message.  Lambda values may be negative (the operator is not
    symmetric in the sign); they must share one sign, and |lambda| must be
    strictly increasing or strictly decreasing.  A lambda that is zero or
    not finite, a grid of mixed sign or with |lambda| not strictly
    monotone, or fewer than MIN_SCAN_POINTS lambdas raise ParameterError
    before the field eigensolve.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1:
        raise ParameterError("lambdas must be a 1-d array")
    if not np.all(np.isfinite(lambdas) & (lambdas != 0.0)):
        raise ParameterError(f"lambdas must be finite and nonzero, got {lambdas}")
    one_sign = np.all(lambdas > 0.0) or np.all(lambdas < 0.0)
    step = np.diff(np.abs(lambdas))
    if not (one_sign and (np.all(step > 0.0) or np.all(step < 0.0))):
        raise ParameterError(
            f"lambdas must share one sign, with |lambda| strictly monotone, got {lambdas}")
    if lambdas.size < MIN_SCAN_POINTS:
        raise ParameterError(f"a scan needs >= {MIN_SCAN_POINTS} lambdas, got {lambdas.size}")
    clock = time.perf_counter()
    op.field_spectrum  # the field eigensolve, once per operator
    stage_s = {"eigensolve": time.perf_counter() - clock}
    clock = time.perf_counter()
    reports = []
    norms = np.array([resolvent_norm(op, lam, report=reports) for lam in lambdas])
    stage_s["shifts"] = time.perf_counter() - clock
    clock = time.perf_counter()
    logx, logy = np.log(np.abs(lambdas)), np.log(norms)
    fit, fit_error = None, None
    try:
        i0, i1, slope, intercept, r2 = _stable_window_fit(logx, logy)
    except FitDataError as exc:
        fit_error = str(exc)  # the norms stand without a fit
    else:
        x, y = logx[i0 : i1 + 1], logy[i0 : i1 + 1]
        residual = float(np.abs(y - (slope * x + intercept)).max())
        fit = ScanFit(exponent=slope, r_squared=r2, window=(i0, i1), max_residual=residual)
    stage_s["fit"] = time.perf_counter() - clock
    return ResolventScan(lam=lambdas, norm=norms, fit=fit, fit_error=fit_error,
                         shifts=tuple(reports), stage_s=stage_s)


def theoretical_exponents(spec: ProblemSpec) -> ExponentPrediction:
    """Predicted resolvent exponents and the induced polynomial decay rate.

    theta and upsilon are exponents of upper estimates,
    ||(i lam - A)^{-1}|| = O(|lam|^-theta) as lam -> 0 and O(|lam|^upsilon)
    as |lam| -> inf; they are not claimed to be attained.  decay_exponent =
    2/varsigma, varsigma = max(theta, upsilon), is the guaranteed polynomial
    decay rate these bounds give (Borichev-Tomilov), and a guaranteed rate
    needs only the upper bounds.
    The power-law branch theta = 1 is the sharpened estimate; the
    general-coefficient theta = 2-beta is the cruder one and is not claimed
    sharp (a scan of kappa = x^1.5 reads the relaxation floor 1/|lam|).  For
    damping at the degenerate end upsilon = 1 and decay_exponent = 2; the
    high-frequency value is quoted from the theory of the exponentially
    tempered kernel (gamma > 0), and it is not proven for the untempered
    kernel (gamma = 0) used here.  On the primed variant upsilon = 1 - beta
    on both branches.
    """
    if spec.variant is Variant.P:
        # the quoted max(1, (4 - 3 alpha)/(4 - 2 alpha) - beta) is 1: its
        # second argument is 1 - alpha/(4 - 2 alpha) - beta < 1
        return ExponentPrediction(theta=1.0, upsilon=1.0, decay_exponent=2.0)
    upsilon = 1.0 - spec.beta
    # the sharpened power-law branch is established for alpha in (0,1)
    # (the transformed fundamental pair degenerates at alpha = 1); all
    # other coefficients get the general-coefficient exponent
    theta = 1.0 if spec.alpha is not None and spec.alpha < 1.0 else 2.0 - spec.beta
    return ExponentPrediction(theta=float(theta), upsilon=float(upsilon),
                              decay_exponent=float(2.0 / max(theta, upsilon)))

