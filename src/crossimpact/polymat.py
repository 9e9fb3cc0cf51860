"""Laurent polynomial matrix algebra and spectral factorization.

Matrix Laurent polynomials M(z) = sum_k C_k z^{-k} with real d x d
coefficients C_k, k in [-m, m], are stored as a (2m+1, d, d) array with
lag k at index m+k.  Evaluation on the unit circle uses z = e^{i omega},
so M(omega_j) = sum_k C_k e^{-i omega_j k} at omega_j = 2 pi j / n.

The spectral factor L of a para-Hermitian R (L L~ = R, L causal and
minimum phase) is never formed: the block Whittle-Levinson recursion
returns the causal coefficients of its inverse directly, as a
finite-order autoregression.
"""
from __future__ import annotations

import dataclasses

import numpy as np

DEFAULT_GRID = 4096
FACTOR_TOL = 1e-10


class PolymatError(ValueError):
    """Raised when an input violates a factorization precondition."""


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


@dataclasses.dataclass
class LaurentMatrix:
    """Matrix Laurent polynomial with coefficient lags -m..m."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[0] % 2 != 1:
            raise PolymatError("coefficients must have shape (2m+1, d, d)")
        if self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise PolymatError("coefficient matrices must be square")

    @property
    def order(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)
        return cls(mat[None, :, :].copy())

    @classmethod
    def from_causal(cls, causal):
        """Embed causal coefficients (lags 0..n-1) into symmetric storage."""
        causal = np.asarray(causal, dtype=float)
        n, d, _ = causal.shape
        m = n - 1
        out = np.zeros((2 * m + 1, d, d))
        out[m:] = causal
        return cls(out)

    @classmethod
    def from_lag_list(cls, lag0, positive_lags):
        """Build a para-Hermitian matrix from lag 0 and lags 1..m."""
        lag0 = np.asarray(lag0, dtype=float)
        d = lag0.shape[0]
        m = len(positive_lags)
        out = np.zeros((2 * m + 1, d, d))
        out[m] = 0.5 * (lag0 + lag0.T)
        for t, mat in enumerate(positive_lags, start=1):
            out[m + t] = mat
            out[m - t] = mat.T
        return cls(out)

    def causal_part(self) -> np.ndarray:
        return self.coeffs[self.order:]

    def para_conjugate(self) -> "LaurentMatrix":
        """M~(z) = M(1/z)^T for real coefficients: C_k -> C_{-k}^T."""
        return LaurentMatrix(self.coeffs[::-1].transpose(0, 2, 1).copy())

    def para_hermitian_residual(self) -> float:
        scale = np.abs(self.coeffs).max()
        if scale == 0.0:
            return 0.0
        diff = self.coeffs - self.coeffs[::-1].transpose(0, 2, 1)
        return np.abs(diff).max() / scale

    def __matmul__(self, other) -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        ma, mb = self.order, other.order
        d = self.dim
        out = np.zeros((2 * (ma + mb) + 1, d, d))
        for ka in range(a.shape[0]):
            out[ka:ka + b.shape[0]] += np.einsum("pq,kqr->kpr", a[ka], b)
        return LaurentMatrix(out)

    def eval_on_circle(self, n_grid, allow_wrap=False) -> np.ndarray:
        return eval_on_circle(self, n_grid, allow_wrap=allow_wrap)


def eval_on_circle(M: LaurentMatrix, n_grid: int,
                   allow_wrap: bool = False) -> np.ndarray:
    """Evaluate at omega_j = 2 pi j / n_grid, exact when n_grid >= 2m+1.

    Returns an (n_grid, d, d) complex array.  Lags are placed modulo the
    grid, which is exact for evaluation at grid frequencies; grids that
    cannot resolve the order are rejected unless wrapping is allowed.
    """
    m = M.order
    if n_grid < 2 * m + 1 and not allow_wrap:
        raise PolymatError(f"n_grid={n_grid} cannot resolve order {m}")
    d = M.dim
    x = np.zeros((n_grid, d, d), dtype=complex)
    idx = np.arange(-m, m + 1) % n_grid
    np.add.at(x, idx, M.coeffs.astype(complex))
    return np.fft.fft(x, axis=0)


# ---------------------------------------------------------------------------
# Block Whittle-Levinson factorization
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WhittleFactor:
    """Causal inverse of the minimum-phase spectral factor L of R.

    inverse[k] is the lag-k coefficient of L^{-1}(z) = chol(V)^{-1}
    (I - sum_k Phi_k z^{-k}), the whitening filter of the order-`order`
    autoregression with innovation covariance V; inverse[0] is lower
    triangular with a positive diagonal.  l_at_one is L(1), residual is
    |L L~ - R|_F / |R|_F on the `grid`-point circle grid, and
    reflection_norm is the norm of the last reflection coefficient
    computed, below the tolerance unless the order reached grid // 2.
    """

    inverse: np.ndarray        # (order+1, d, d)
    l_at_one: np.ndarray
    residual: float
    order: int
    reflection_norm: float
    grid: int


def _chol(mat, what):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise PolymatError(f"{what} is not positive definite") from exc


def whittle_factor(lags, tol: float = FACTOR_TOL,
                   n_grid: int = DEFAULT_GRID) -> WhittleFactor:
    """Inverse spectral factor of R(z) = sum_k lags[|k|] z^{-k} (lags[k]^T
    for k < 0) by the block Whittle (1963) recursion.

    lags[k] = E[x_{t+k} x_t^T] for k = 0..m are the causal coefficients of
    a para-Hermitian R, zero beyond m.  Forward and backward predictors
    grow one lag per step until the spectral norm of the normalised
    reflection coefficient falls below tol, or the order reaches
    n_grid // 2, so that L^{-1} never wraps the grid.  A forward or
    backward innovation covariance that is not positive definite means R
    is not positive on the circle, and raises PolymatError.
    """
    lags = np.asarray(lags, dtype=float)
    n_lags, d, _ = lags.shape
    if np.abs(lags[0] - lags[0].T).max() > 1e-8 * np.abs(lags).max():
        raise PolymatError("lag-0 coefficient is not symmetric")
    if n_grid < 2 * n_lags - 1:
        raise PolymatError(f"n_grid={n_grid} cannot resolve order "
                           f"{n_lags - 1}")
    cap = n_grid // 2
    gam = np.zeros((cap + 1, d, d))
    gam[:n_lags] = lags
    fwd = np.zeros((0, d, d))          # Phi_1..Phi_p
    bwd = np.zeros((0, d, d))          # backward predictor, same order
    v = u = 0.5 * (lags[0] + lags[0].T)
    cv = cu = _chol(v, "lag-0 covariance")
    refl = 0.0
    while fwd.shape[0] < cap:
        p = fwd.shape[0]
        delta = gam[p + 1] - np.einsum("jab,jbc->ac", fwd, gam[p:0:-1])
        refl = np.linalg.norm(
            np.linalg.solve(cv, np.linalg.solve(cu, delta.T).T), 2)
        if refl < tol:
            break
        a_new = np.linalg.solve(u.T, delta.T).T
        b_new = np.linalg.solve(v.T, delta).T
        fwd, bwd = (np.concatenate([fwd - a_new @ bwd[::-1], a_new[None]]),
                    np.concatenate([bwd - b_new @ fwd[::-1], b_new[None]]))
        v = v - a_new @ delta.T
        u = u - b_new @ delta
        v, u = 0.5 * (v + v.T), 0.5 * (u + u.T)
        cv = _chol(v, f"forward innovation covariance at order {p + 1}")
        cu = _chol(u, f"backward innovation covariance at order {p + 1}")
    cv_inv = np.linalg.inv(cv)
    inverse = np.concatenate([cv_inv[None], -cv_inv @ fwd])
    l_w = np.linalg.inv(np.fft.fft(inverse, n=n_grid, axis=0))
    target = LaurentMatrix.from_lag_list(lags[0], lags[1:]) \
        .eval_on_circle(n_grid)
    rec = l_w @ l_w.conj().transpose(0, 2, 1)
    residual = float(np.linalg.norm(rec - target) / np.linalg.norm(target))
    return WhittleFactor(inverse=inverse,
                         l_at_one=np.linalg.inv(inverse.sum(axis=0)),
                         residual=residual, order=fwd.shape[0],
                         reflection_norm=float(refl), grid=n_grid)
