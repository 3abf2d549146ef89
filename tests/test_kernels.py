import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import field_eigenbasis, make_operator, march_args
from fracdamp import _kernels
from fracdamp.errors import NumericalError
from fracdamp.model import Variant


def _march_args(n=24, m=16, seed=3):
    """Random march inputs whose field block is in flux form, as assembled:
    conductances a give T the off-diagonal a / sqrt(h_i h_{i+1})."""
    rng = np.random.default_rng(seed)
    a = rng.random(n - 1) + 0.5
    h = rng.random(n) + 0.5
    h /= h.sum()
    l_off = a / np.sqrt(h[:-1] * h[1:])
    l_diag = -(rng.random(n) + 1.0)
    xi2 = np.geomspace(1e-2, 1e2, m) ** 2
    w = rng.random(m) + 0.5
    eta = rng.random(m) + 0.5
    y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    steps = np.array([0, 1, 7, 10], dtype=np.int64)
    # the damped cell is an end row, as in both variants
    return (l_diag, l_off, h, n - 1, 0.3, w, eta, xi2, y0, psi0, 1e-3, steps)


def _dense_midpoint_oracle(l_diag, l_off, h, b, zeta, w, eta, xi2,
                           y0, psi0, dt, sample_steps):
    """The midpoint map solve(I - cA, (I + cA) u) with A assembled densely."""
    n, m = y0.size, xi2.size
    a = np.zeros((n + m, n + m), dtype=np.complex128)
    sh = np.sqrt(h)
    t = np.diag(l_diag) + np.diag(l_off, -1) + np.diag(l_off, 1)
    a[:n, :n] = 1j * t * (sh[None, :] / sh[:, None])  # i D^{-1/2} T D^{1/2}
    a[b, n:] = -(zeta / h[b]) * w * eta
    a[n:, b] = eta
    a[n:, n:] = -np.diag(xi2)
    c = 0.5 * dt
    eye = np.eye(n + m)
    u = np.concatenate((y0, psi0)).astype(np.complex128)
    e_out, d_out, s_out = [], [], []
    for step in range(sample_steps[-1] + 1):
        if step:
            u = np.linalg.solve(eye - c * a, (eye + c * a) @ u)
        if step in sample_steps:
            y, psi = u[:n], u[n:]
            e_out.append(0.5 * (h @ np.abs(y) ** 2 + zeta * w @ np.abs(psi) ** 2))
            d_out.append(-zeta * (w * xi2) @ np.abs(psi) ** 2)
            s_out.append((w * eta) @ psi)
    return np.array(e_out), np.array(d_out), np.array(s_out)


def _operator_march_args(variant, dt=0.01, nx=24, nxi=16):
    """March inputs from an assembled operator, with sample intervals longer
    than the block cap (33 -> 100 is split) and a ragged tail (100 -> 150)."""
    op = make_operator(variant=variant, nx=nx, nxi=nxi)
    rng = np.random.default_rng(5)
    n, m = op.xgrid.x.size, op.xigrid.xi.size
    y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    steps = np.array([0, 1, 33, 100, 150], dtype=np.int64)
    assert np.diff(steps).max() > _kernels._MARCH_BLOCK
    return (op.l_diag, op.l_off, op.xgrid.h, op.boundary_index, op.zeta,
            op.xigrid.w, op.xigrid.eta, op.xigrid.xi**2, y0, psi0, dt, steps)


def _assert_matches_dense_oracle(args):
    got = _kernels.midpoint_march(*march_args(*args))
    want = _dense_midpoint_oracle(*args)
    assert len(got) == len(want)
    for name, x, y in zip(("E", "D", "S"), got, want):
        assert x.shape == y.shape, name
        np.testing.assert_allclose(
            x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max(), err_msg=name
        )


class TestNumpyKernels:
    def test_midpoint_march_matches_dense_oracle(self):
        _assert_matches_dense_oracle(_march_args())

    @pytest.mark.parametrize("extra", [-_kernels._READOUT_BATCH + 1, -1, 0, 1,
                                       _kernels._READOUT_BATCH + 1])
    def test_sample_counts_around_the_readout_batch_match_dense_oracle(self, extra):
        # 1, batch - 1, batch, batch + 1 and 2 batch + 1 samples: a lone
        # sample, a partial batch, a full one and a batch's last sample alone
        count = _kernels._READOUT_BATCH + extra
        args = list(_march_args())
        args[-1] = 2 * np.arange(count, dtype=np.int64)
        _assert_matches_dense_oracle(tuple(args))

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_split_sample_intervals_match_dense_oracle(self, variant):
        _assert_matches_dense_oracle(_operator_march_args(variant))

    def test_decoupled_field_modes_match_dense_oracle(self):
        # on P at nx=100, nxi=64, 40 of the 100 field modes do not reach the
        # damped cell: the march leaves them out and keeps their energy as a
        # constant, which the dense map has to agree with
        args = _operator_march_args(Variant.P, nx=100, nxi=64)
        l_diag, l_off, _, b = args[:4]
        spectrum = _kernels.field_spectrum(np.asarray(l_diag), l_off, b)
        assert np.count_nonzero(~spectrum.coupled) > 0
        _assert_matches_dense_oracle(args)

    @pytest.mark.parametrize("variant", [Variant.P, Variant.PPRIME])
    def test_midpoint_march_repeats_bit_for_bit(self, variant):
        # byte-identical trace.csv reruns rest on this
        args = march_args(*_operator_march_args(variant))
        first = _kernels.midpoint_march(*args)
        second = _kernels.midpoint_march(*args)
        for name, x, y in zip(("E", "D", "S"), first, second):
            assert np.array_equal(x, y), name

    def test_frac_conv_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        n = 500
        w = rng.standard_normal(n)
        lag = rng.random(n)
        want = np.zeros(n + 1)
        for k in range(1, n + 1):
            want[k] = sum(w[j] * lag[k - 1 - j] for j in range(k))
        got = _kernels.frac_conv(w, lag)
        assert got[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestFieldEigenbasis:
    @pytest.mark.parametrize(
        "variant, alpha, g, dirichlet",
        [
            (Variant.P, 0.5, 1.0, False),
            (Variant.PPRIME, 0.5, 1.0, True),
            (Variant.PPRIME, 1.5, 2.0, False),
        ],
    )
    def test_orthonormal_basis_diagonalizes_the_symmetrized_field_block(
        self, variant, alpha, g, dirichlet
    ):
        op = make_operator(variant=variant, alpha=alpha, nx=48, g=g)
        # a Dirichlet end adds the ghost flux kappa(x_1/2)/x_1 to the first row
        x, h = op.xgrid.x, op.xgrid.h
        # (the interface conductance a_0 is l_off[0] sqrt(h_0 h_1))
        a0 = op.l_off[0] * np.sqrt(h[0] * h[1])
        ghost = -(op.l_diag[0] * h[0] + a0)
        assert ghost == (pytest.approx((0.5 * x[0]) ** alpha / x[0], rel=1e-12) if dirichlet
                         else pytest.approx(0.0, abs=1e-14 * a0))
        ell, basis = field_eigenbasis(op.l_diag, op.l_off)
        n = op.xgrid.x.size
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), rtol=0, atol=1e-13)
        tmat = np.diag(op.l_diag) + np.diag(op.l_off, -1) + np.diag(op.l_off, 1)
        scale = np.abs(tmat).max()
        np.testing.assert_allclose(basis @ np.diag(ell) @ basis.T, tmat, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "variant, alpha, g",
        [(Variant.P, 0.5, 1.0), (Variant.PPRIME, 0.5, 1.0), (Variant.PPRIME, 1.5, 2.0)],
    )
    def test_boundary_weights_are_the_squared_boundary_row(self, variant, alpha, g):
        op = make_operator(variant=variant, alpha=alpha, nx=200, g=g)
        b = op.boundary_index
        ell, basis = field_eigenbasis(op.l_diag, op.l_off)
        spectrum = _kernels.field_spectrum(np.asarray(op.l_diag), op.l_off, b)
        got_ell, weight = spectrum.ell, spectrum.weight
        scale = np.abs(ell).max()
        np.testing.assert_allclose(got_ell, ell, rtol=0, atol=1e-13 * scale)
        # relative accuracy where the mode reaches the damped cell, absolute
        # (to rounding) where it does not
        np.testing.assert_allclose(weight, basis[b] ** 2, rtol=1e-8, atol=1e-14)
        assert weight.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "variant, alpha, g, nx",
        [(Variant.P, 0.5, 1.0, 24), (Variant.P, 0.5, 1.0, 100), (Variant.P, 0.9, 1.0, 24),
         (Variant.P, 0.9, 1.0, 100), (Variant.PPRIME, 0.5, 1.0, 100),
         (Variant.PPRIME, 1.5, 2.0, 100)],
    )
    def test_field_spectrum_weights_and_coupling_match_dense_oracle(self, variant, alpha, g, nx):
        # on P most weights lie far below 1e-6 and are read from the other end
        # row; every weight that can couple is accurate, and the coupled mask
        # is the oracle's wherever the oracle weight is not within a factor 2
        # of eps
        op = make_operator(variant=variant, alpha=alpha, nx=nx, g=g)
        ell, basis = field_eigenbasis(op.l_diag, op.l_off)
        spectrum = _kernels.field_spectrum(np.asarray(op.l_diag), op.l_off, op.boundary_index)
        np.testing.assert_allclose(spectrum.ell, ell, rtol=0, atol=1e-13 * np.abs(ell).max())
        want = basis[op.boundary_index] ** 2
        eps = np.finfo(float).eps
        above = spectrum.weight >= eps
        np.testing.assert_allclose(spectrum.weight[above], want[above], rtol=1e-8, atol=0)
        clear = (want > 2.0 * eps) | (want < 0.5 * eps)
        assert np.array_equal(spectrum.coupled[clear], want[clear] >= eps)
        if variant is Variant.P:
            assert np.any(spectrum.far & spectrum.coupled)

    @pytest.mark.parametrize(
        "variant, alpha, g, nx",
        [(Variant.P, 0.5, 1.0, 100), (Variant.P, 0.5, 1.0, 200),
         (Variant.PPRIME, 0.5, 1.0, 200), (Variant.PPRIME, 1.5, 2.0, 200)],
    )
    def test_field_modes_are_the_basis_modes(self, variant, alpha, g, nx):
        op = make_operator(variant=variant, alpha=alpha, nx=nx, g=g)
        b = op.boundary_index
        ell, basis = field_eigenbasis(op.l_diag, op.l_off)
        spectrum = _kernels.field_spectrum(np.asarray(op.l_diag), op.l_off, b)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(ell.size) + 1j * rng.standard_normal(ell.size)
        freq, s, c, remainder = _kernels.field_modes(np.asarray(op.l_diag), op.l_off, spectrum, b, z)
        # every coupled mode is carried, and each carried mode is one
        # eigenpair of the dense basis
        assert np.count_nonzero(spectrum.coupled) <= freq.size <= ell.size
        idx = np.abs(freq[:, None] - ell[None, :]).argmin(axis=1)
        assert np.unique(idx).size == idx.size
        scale = np.abs(ell).max()
        np.testing.assert_allclose(freq, ell[idx], rtol=0, atol=1e-13 * scale)
        want_s = np.abs(basis[b, idx])
        want_c = (basis.T @ z)[idx] * np.sign(basis[b, idx])
        norm = np.linalg.norm(z)
        # what reaches the damped cell, s_k and s_k c_k, is exact to rounding
        # down to the smallest entries; the coordinates that hold the norm are
        # resolved, and so is the energy of the modes left out
        np.testing.assert_allclose(s, want_s, rtol=1e-6, atol=1e-15)
        np.testing.assert_allclose(s * c, want_s * want_c, rtol=0, atol=1e-14 * norm)
        held = np.abs(want_c) > 1e-3 * norm
        np.testing.assert_allclose(c[held], want_c[held], rtol=0, atol=1e-12 * norm)
        left = np.ones(ell.size, dtype=bool)
        left[idx] = False
        assert remainder == pytest.approx(np.sum(np.abs(basis.T @ z)[left] ** 2),
                                          abs=1e-12 * norm**2)
        # a mode left out reaches the damped cell only below rounding
        assert np.all(np.abs(basis[b, left] * (basis.T @ z)[left]) <= 1e-15 * norm)

    @pytest.mark.parametrize("row", [1, 22])
    def test_elimination_refuses_a_row_that_is_not_an_end_row(self, row):
        d = -np.arange(1.0, 25.0)
        with pytest.raises(ValueError, match=f"row {row} is not an end row"):
            _kernels._elimination(d, np.ones(23), row)

    def test_field_modes_refuse_more_than_the_norm(self):
        # quadrupled weights double every coordinate: the remainder
        # ||z||^2 - sum |c_k|^2 turns negative far beyond rounding
        op = make_operator(variant=Variant.PPRIME, nx=48)
        spectrum = op.field_spectrum
        spectrum = spectrum._replace(weight=4.0 * spectrum.weight, entry=2.0 * spectrum.entry)
        z = np.sqrt(op.xgrid.h) * (1.0 + op.xgrid.x)
        with pytest.raises(NumericalError, match="norm") as info:
            _kernels.field_modes(np.asarray(op.l_diag), op.l_off, spectrum, op.boundary_index, z)
        assert info.value.diagnostics["remainder"] < 0.0


class TestLapackLoader:
    def test_import_footprint_in_a_fresh_interpreter(self):
        # what CI's import-footprint step asserts, where neither extension is
        # loaded yet: the CLI loads scipy's LAPACK extension by file path,
        # running no scipy package code, and a later import of scipy.linalg
        # hands out the same routines; the oracle loads scipy's Gamma
        # extension the same way, without the scipy.special package, and a
        # later import of it hands out that ufunc
        code = """
import sys
import fracdamp.cli
from fracdamp import _kernels
loaded = [name for name in ("scipy", "scipy.linalg", "scipy.special") if name in sys.modules]
assert not loaded, loaded
import scipy.linalg.lapack as lapack
for name in ("dsterf", "zgttrf", "zgttrs", "zheev", "dgtsv"):
    assert getattr(_kernels._lapack, name) is getattr(lapack, name), name
fracdamp.analytic_resolvent_P(1e-3, [0.25, 0.5, 1.0], 0.0, 0.5, 0.5, 1.0)
assert "scipy.special" not in sys.modules
ufuncs = sys.modules["scipy.special._special_ufuncs"]
import scipy.special
assert scipy.special.gamma is ufuncs.gamma
"""
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("subpackage, module", [("linalg", "_flapack"),
                                                    ("special", "_special_ufuncs")])
    def test_missing_extension_names_the_directory_searched(
        self, tmp_path, monkeypatch, subpackage, module
    ):
        name = f"scipy.{subpackage}.{module}"
        spec = importlib.util.spec_from_file_location(
            "scipy", tmp_path / "__init__.py", submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda *args, **kwargs: spec)
        monkeypatch.delitem(sys.modules, name, raising=False)
        with pytest.raises(ImportError) as info:
            _kernels._load_scipy_extension(subpackage, module)
        assert str(tmp_path / subpackage) in str(info.value)
        assert name not in sys.modules

    def test_missing_scipy_is_an_import_error(self, monkeypatch):
        name = "scipy.special._special_ufuncs"
        monkeypatch.setattr(importlib.util, "find_spec", lambda *args, **kwargs: None)
        monkeypatch.delitem(sys.modules, name, raising=False)
        with pytest.raises(ImportError, match="scipy"):
            _kernels._load_scipy_extension("special", "_special_ufuncs")
        assert name not in sys.modules
