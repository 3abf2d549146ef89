import numpy as np

from fracdamp import _kernels


def _march_args(n=24, m=16, seed=3):
    rng = np.random.default_rng(seed)
    l_sub = rng.random(n - 1)
    l_sup = rng.random(n - 1)
    l_diag = -(rng.random(n) + 1.0)
    h = np.full(n, 1.0 / n)
    xi2 = np.geomspace(1e-2, 1e2, m) ** 2
    w = rng.random(m) + 0.5
    eta = rng.random(m) + 0.5
    y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    steps = np.array([0, 1, 7, 10], dtype=np.int64)
    return (l_sub, l_diag, l_sup, h, 2, 0.3, w, eta, xi2, y0, psi0, 1e-3, 10, steps)


def _dense_midpoint_oracle(l_sub, l_diag, l_sup, h, b, zeta, w, eta, xi2,
                           y0, psi0, dt, n_steps, sample_steps):
    """The midpoint map solve(I - cA, (I + cA) u) with A assembled densely."""
    n, m = y0.size, xi2.size
    a = np.zeros((n + m, n + m), dtype=np.complex128)
    a[:n, :n] = 1j * (np.diag(l_diag) + np.diag(l_sub, -1) + np.diag(l_sup, 1))
    a[b, n:] = -(zeta / h[b]) * w * eta
    a[n:, b] = eta
    a[n:, n:] = -np.diag(xi2)
    c = 0.5 * dt
    eye = np.eye(n + m)
    u = np.concatenate((y0, psi0)).astype(np.complex128)
    e_out, d_out, s_out = [], [], []
    for step in range(n_steps + 1):
        if step:
            u = np.linalg.solve(eye - c * a, (eye + c * a) @ u)
        if step in sample_steps:
            y, psi = u[:n], u[n:]
            e_out.append(0.5 * (h @ np.abs(y) ** 2 + zeta * w @ np.abs(psi) ** 2))
            d_out.append(-zeta * (w * xi2) @ np.abs(psi) ** 2)
            s_out.append((w * eta) @ psi)
    return np.array(e_out), np.array(d_out), np.array(s_out), u[:n], u[n:]


class TestNumpyKernels:
    def test_midpoint_march_matches_dense_oracle(self):
        args = _march_args()
        got = _kernels.midpoint_march(*args)
        want = _dense_midpoint_oracle(*args)
        for name, x, y in zip(("E", "D", "S", "y", "psi"), got, want):
            assert x.shape == y.shape, name
            np.testing.assert_allclose(
                x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max(), err_msg=name
            )

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
