import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact.polymat import PolymatError, spectrum_on_grid, whittle_factor

import synthetic


def spectrum_lags(causal):
    """Lags R_k = sum_j L_{j+k} L_j^T, k = 0..m, of R = L L~ for causal
    coefficients L_0..L_m."""
    m = len(causal) - 1
    return np.stack([np.einsum("jab,jcb->ac", causal[k:], causal[:m + 1 - k])
                     for k in range(m + 1)])


def causal_product(a, b):
    """Coefficients c_k = sum_j a_j b_{k-j} of the product of two causal
    matrix polynomials."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:])
    for j, aj in enumerate(a):
        out[j:j + len(b)] += aj @ b
    return out


def causal_series_inverse(p, n):
    """First n coefficients of 1/p(z) for causal scalar p, by long division."""
    b = np.zeros(n)
    b[0] = 1.0 / p[0]
    for k in range(1, n):
        upper = min(k, len(p) - 1)
        b[k] = -np.dot(p[1:upper + 1], b[k - 1::-1][:upper]) / p[0]
    return b


def cepstral_factor(a, n):
    """Minimum-phase p with p(z) p(1/z) = a(z), and 1/p, by the cepstrum.

    a holds the symmetric lags -m..m of a positive scalar spectrum; the
    causal half of log a on the n-point grid gives log p.  Independent of
    the package's factorization.
    """
    m = len(a) // 2
    x = np.zeros(n)
    x[:m + 1] = a[m:]
    x[n - m:] = a[:m]
    cep = np.fft.ifft(np.log(np.fft.fft(x).real)).real
    half = np.zeros(n)
    half[0] = 0.5 * cep[0]
    half[1:n // 2] = cep[1:n // 2]
    half[n // 2] = 0.5 * cep[n // 2]
    log_p = np.fft.fft(half)
    return (np.fft.ifft(np.exp(log_p)).real,
            np.fft.ifft(np.exp(-log_p)).real)


def padded(inverse, n):
    """The first n coefficients of L^{-1}, zero beyond its order."""
    out = np.zeros((n,) + inverse.shape[1:])
    out[:min(n, len(inverse))] = inverse[:n]
    return out


def autoregression(inverse):
    """Phi_k of L^{-1}(z) = C (I - sum_k Phi_k z^{-k}), and C."""
    return -np.linalg.solve(inverse[0][None], inverse[1:]), inverse[0]


def companion_radius(phi):
    p, d, _ = phi.shape
    comp = np.zeros((p * d, p * d))
    comp[:d] = np.concatenate(list(phi), axis=1)
    comp[d:, :-d] = np.eye((p - 1) * d)
    return np.abs(np.linalg.eigvals(comp)).max()


def wilson_inverse_factor(lags, n, max_iter=200, tol=1e-13):
    """Causal coefficients of L^{-1} by Wilson's (1972) Newton iteration.

    Solves psi psi^H = S on the n-point grid for causal minimum-phase
    psi, then rotates so that L^{-1} at lag 0 is lower triangular with a
    positive diagonal.  Independent of the package's factorization.
    """
    m, d = lags.shape[0] - 1, lags.shape[1]
    x = np.zeros((n, d, d))
    x[:m + 1] = lags
    x[n - m:] = lags[:0:-1].transpose(0, 2, 1)
    spec = np.fft.fft(x, axis=0)
    psi = np.tile(np.linalg.cholesky(lags[0]).astype(complex), (n, 1, 1))
    lower = np.tril(np.ones((d, d)), -1) + 0.5 * np.eye(d)
    for _ in range(max_iter):
        pinv = np.linalg.inv(psi)
        g = pinv @ spec @ pinv.conj().transpose(0, 2, 1) + np.eye(d)
        gam = np.fft.ifft(g, axis=0)
        plus = np.zeros_like(gam)
        plus[0] = lower * gam[0]
        plus[1:n // 2] = gam[1:n // 2]
        plus[n // 2] = 0.5 * gam[n // 2]
        new = psi @ np.fft.fft(plus, axis=0)
        step = np.abs(new - psi).max() / np.abs(new).max()
        psi = new
        if step < tol:
            break
    psi0 = np.fft.ifft(psi, axis=0)[0].real
    rot = np.linalg.solve(psi0, np.linalg.cholesky(psi0 @ psi0.T))
    linv = np.fft.ifft(rot.T @ np.linalg.inv(psi), axis=0)
    return linv.real, np.abs(linv.imag).max()


class TestSpectrumOnGrid:
    def test_constant_is_symmetrized(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = spectrum_on_grid(mat[None], 8)
        assert np.allclose(w, 0.5 * (mat + mat.T)[None], atol=1e-14)

    def test_single_lag(self):
        # lag 1 only: R(omega) = B e^{-i omega} + B^T e^{i omega}
        b = np.array([[0.5, 0.1], [-0.2, 0.4]])
        lags = np.stack([np.zeros((2, 2)), b])
        w = spectrum_on_grid(lags, 16)
        om = 2 * np.pi * np.arange(16) / 16
        expect = (np.exp(-1j * om)[:, None, None] * b[None]
                  + np.exp(1j * om)[:, None, None] * b.T[None])
        assert np.allclose(w, expect, atol=1e-13)

    def test_grid_too_small_rejected(self):
        lags = np.arange(9.0)[:, None, None]
        with pytest.raises(PolymatError):
            spectrum_on_grid(lags, 16)
        assert spectrum_on_grid(lags, 17).shape == (17, 1, 1)

    @given(st.integers(0, 4), st.integers(1, 2), st.integers(0, 3),
           st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_parseval_and_hermitian(self, m, d, extra, seed):
        rng = np.random.default_rng(seed)
        lags = rng.normal(size=(m + 1, d, d))
        lags[0] = lags[0] + lags[0].T
        n = 2 * m + 1 + extra
        w = spectrum_on_grid(lags, n)
        mean_sq = np.mean(np.sum(np.abs(w) ** 2, axis=(1, 2)))
        coef_sq = np.sum(lags[0] ** 2) + 2.0 * np.sum(lags[1:] ** 2)
        assert abs(mean_sq - coef_sq) <= 1e-12 * max(coef_sq, 1.0)
        herm = np.abs(w - w.conj().transpose(0, 2, 1)).max()
        assert herm <= 1e-12 * max(np.abs(w).max(), 1.0)


class TestScalarFactor:
    def test_constant(self):
        f = whittle_factor(np.array([[[4.0]]]))
        assert f.order == 0
        assert np.allclose(f.inverse, [[[0.5]]])
        assert f.l_at_one[0, 0] == pytest.approx(2.0, rel=1e-15)
        assert f.residual < 1e-15

    def test_known_quadratic(self):
        # (1 + 0.5 z^{-1})(1 + 0.5 z) = 1.25 + 0.5 z + 0.5 z^{-1}; the
        # inverse factor is the geometric series of -0.5
        f = whittle_factor(np.array([[[1.25]], [[0.5]]]))
        assert np.abs(f.inverse[:20, 0, 0]
                      - (-0.5) ** np.arange(20)).max() <= 1e-9
        assert f.l_at_one[0, 0] == pytest.approx(1.5, rel=1e-9)
        assert f.residual <= 1e-9

    def test_agrees_with_root_splitting(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            roots = rng.uniform(-0.9, 0.9, size=4)
            p_true = np.poly(roots) * rng.uniform(0.5, 2.0)
            if p_true[0] < 0:
                p_true = -p_true
            a = np.convolve(p_true, p_true[::-1])   # lags -4..4
            # root-splitting oracle: the roots of z^4 a(z) inside the circle
            inside = np.roots(a[::-1])
            inside = inside[np.abs(inside) < 1.0]
            p = np.real(np.poly(inside))
            p *= np.sqrt(a[4] / float(p @ p))
            assert np.abs(p - p_true).max() <= 1e-8 * np.abs(p_true).max()
            f = whittle_factor(a[4:, None, None])
            ref = causal_series_inverse(p, 60)
            assert np.abs(padded(f.inverse, 60)[:, 0, 0] - ref).max() \
                <= 1e-8 * np.abs(ref).max()
            assert f.l_at_one[0, 0] == pytest.approx(p.sum(), rel=1e-8)

    def test_cepstral_agrees_with_root_splitting(self):
        # Kolmogorov's cepstral factor, written here, is a second oracle:
        # it must agree with root splitting and with the Whittle inverse
        rng = np.random.default_rng(11)
        n = 4096
        for _ in range(10):
            roots = rng.uniform(-0.9, 0.9, size=4)
            p_true = np.poly(roots) * rng.uniform(0.5, 2.0)
            if p_true[0] < 0:
                p_true = -p_true
            a = np.convolve(p_true, p_true[::-1])   # lags -4..4
            p, inverse = cepstral_factor(a, n)
            assert np.abs(p[:5] - p_true).max() <= 1e-8 * np.abs(p_true).max()
            assert np.abs(p[5:]).max() <= 1e-8 * np.abs(p_true).max()
            f = whittle_factor(a[4:, None, None])
            ref = inverse[:60]
            assert np.abs(padded(f.inverse, 60)[:, 0, 0] - ref).max() \
                <= 1e-8 * np.abs(ref).max()

    def test_roots_strictly_inside(self):
        rng = np.random.default_rng(13)
        roots = rng.uniform(-0.95, 0.95, size=5)
        p_true = np.poly(roots)
        a = np.convolve(p_true, p_true[::-1])
        f = whittle_factor(a[5:, None, None])
        # the poles of L are the roots of the autoregressive polynomial
        mods = np.abs(np.roots(f.inverse[:, 0, 0]))
        assert mods.max() < 1.0

    def test_negative_spectrum_rejected(self):
        # 0.5 + 2 cos(omega) goes negative
        with pytest.raises(PolymatError):
            whittle_factor(np.array([[[0.5]], [[1.0]]]))


class TestAssembleInvert:
    def test_white_constant_factor(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = whittle_factor(c[None])
        assert f.order == 0
        assert np.allclose(f.l_at_one @ f.l_at_one.T, c, atol=1e-12)
        assert np.allclose(f.inverse[0], np.linalg.inv(np.linalg.cholesky(c)),
                           atol=1e-12)
        assert f.residual < 1e-12

    def test_identity_inverse(self):
        f = whittle_factor(np.eye(2)[None])
        w = np.fft.fft(f.inverse, 64, axis=0)
        assert np.allclose(w, np.eye(2)[None], atol=1e-12)

    def test_geometric_inverse_series(self):
        # L = I + B z^{-1} has the inverse sum_k (-B)^k z^{-k}
        b = np.array([[0.3, 0.2], [-0.1, 0.4]])
        f = whittle_factor(spectrum_lags(np.stack([np.eye(2), b])))
        series = np.stack([np.linalg.matrix_power(-b, k) for k in range(30)])
        assert np.abs(padded(f.inverse, 30) - series).max() <= 1e-9
        assert np.allclose(f.l_at_one, np.eye(2) + b, atol=1e-9)

    def test_inverse_convolution_identity(self):
        # L = L0 (I + B1 z^{-1})(I + B2 z^{-1}): minimum phase, and L0 is
        # lower triangular with a positive diagonal, so L is the factor
        l0 = np.array([[1.2, 0.0], [0.3, 0.8]])
        b1 = np.array([[0.5, -0.4], [0.2, 0.3]])
        b2 = np.array([[-0.6, 0.1], [0.0, 0.7]])
        L = causal_product(causal_product(l0[None],
                                          np.stack([np.eye(2), b1])),
                           np.stack([np.eye(2), b2]))
        f = whittle_factor(spectrum_lags(L))
        n = 1024
        lw = np.fft.fft(L, n, axis=0)
        iw = np.fft.fft(f.inverse, n, axis=0)
        assert np.abs(lw @ iw - np.eye(2)).max() <= 1e-6
        assert np.allclose(f.l_at_one, L.sum(axis=0), atol=1e-6)
        assert f.residual <= 1e-9

    def test_pole_guard(self):
        # a factor zero at 0.9995 needs far more lags than the grid
        # holds: the order stops at half the grid and the residual says so
        p = np.array([1.0, -0.9995])
        a = np.convolve(p, p[::-1])
        f = whittle_factor(a[1:, None, None], n_grid=4096)
        assert f.order == 2048
        assert f.reflection_norm > 1e-10
        assert f.residual > 1e-4


class TestWhittleFactor:
    def test_recovers_constructed_factorization(self):
        # exact autocovariances of a VAR(2): the recursion stops at
        # order 2 with its coefficients and innovation covariance
        phi = np.array([[[0.5, 0.2], [-0.1, 0.3]], [[0.2, 0.0], [0.1, -0.2]]])
        v = np.array([[1.0, 0.3], [0.3, 0.5]])
        assert companion_radius(phi) < 0.9
        psi = [np.eye(2), phi[0]]
        for _ in range(600):
            psi.append(phi[0] @ psi[-1] + phi[1] @ psi[-2])
        psi = np.stack(psi)
        lags = np.stack([np.einsum("kab,bc,kdc->ad", psi[h:], v,
                                   psi[:len(psi) - h]) for h in range(200)])
        f = whittle_factor(lags)
        assert f.order == 2
        got_phi, c = autoregression(f.inverse)
        assert np.abs(got_phi - phi).max() <= 1e-10
        assert np.abs(np.linalg.inv(c) @ np.linalg.inv(c).T - v).max() <= 1e-10
        assert f.residual <= 1e-10

    def test_asymmetric_lag0_rejected(self):
        lags = np.zeros((2, 2, 2))
        lags[0] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(PolymatError):
            whittle_factor(lags)

    @pytest.mark.parametrize("instance", ["coupled", "consistent",
                                          "cos2w", "cos3w"])
    def test_matches_wilson_oracle(self, instance):
        # cos2w and cos3w, 1 + 0.6 cos 2w and 1 + 0.8 cos 3w, have zero
        # reflection coefficients at every order not divisible by 2 or 3
        if instance == "coupled":
            lags = synthetic.coupled_instance(tau_max=256)[2]
        elif instance == "consistent":
            lags = synthetic.consistent_instance(beta=0.02, branch=0.5,
                                                 tau_max=1600).obs.omega
        elif instance == "cos2w":
            lags = np.array([1.0, 0.0, 0.3])[:, None, None]
        else:
            lags = np.array([1.0, 0.0, 0.0, 0.4])[:, None, None]
        n = 4096
        f = whittle_factor(lags, n_grid=n)
        assert 0 < f.order < n // 2
        assert f.residual <= 1e-6
        ref, imag = wilson_inverse_factor(lags, n)
        got = padded(f.inverse, n // 2)
        scale = np.abs(ref).max()
        assert imag <= 1e-9 * scale
        assert np.abs(ref[n // 2:]).max() <= 1e-9 * scale   # causal
        assert np.abs(got - ref[:n // 2]).max() <= 1e-6 * scale
