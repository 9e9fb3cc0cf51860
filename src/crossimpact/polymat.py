"""Spectral factorization of a para-Hermitian matrix spectrum.

A spectrum R(z) = sum_k R_k z^{-k} with real d x d lags and
R_{-k} = R_k^T is stored as its causal lags R_0..R_m, a (m+1, d, d)
array.  Evaluation on the unit circle uses z = e^{i omega}, so
R(omega_j) = sum_k R_k e^{-i omega_j k} at omega_j = 2 pi j / n.

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
# a small reflection coefficient ends the recursion only when the factor
# already reproduces R on the grid to this relative residual: a spectrum
# in k omega has exactly zero reflections at orders not divisible by k
STOP_RESIDUAL = 1e-6


class PolymatError(ValueError):
    """Raised when an input violates a factorization precondition."""


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def spectrum_on_grid(lags, n_grid: int) -> np.ndarray:
    """R(omega_j) = sum_k R_k e^{-i omega_j k} at omega_j = 2 pi j / n_grid.

    lags[k] = R_k for k = 0..m are the causal lags of a para-Hermitian R,
    with R_{-k} = R_k^T; lag 0 is symmetrized.  Returns an (n_grid, d, d)
    complex array, exact when n_grid >= 2m+1; smaller grids are rejected.
    """
    lags = np.asarray(lags, dtype=float)
    m = lags.shape[0] - 1
    if n_grid < 2 * m + 1:
        raise PolymatError(f"n_grid={n_grid} cannot resolve order {m}")
    x = np.zeros((n_grid,) + lags.shape[1:])
    x[0] = 0.5 * (lags[0] + lags[0].T)
    x[1:m + 1] = lags[1:]
    x[n_grid - m:] = lags[:0:-1].transpose(0, 2, 1)
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
    reflection coefficient falls below tol while the grid residual is at
    most STOP_RESIDUAL, or the order reaches n_grid // 2, so that L^{-1}
    never wraps the grid.  A forward or backward innovation covariance
    that is not positive definite means R is not positive on the circle,
    and raises PolymatError.
    """
    lags = np.asarray(lags, dtype=float)
    n_lags, d, _ = lags.shape
    if np.abs(lags[0] - lags[0].T).max() > 1e-8 * np.abs(lags).max():
        raise PolymatError("lag-0 coefficient is not symmetric")
    target = spectrum_on_grid(lags, n_grid)
    cap = n_grid // 2
    gam = np.zeros((cap + 1, d, d))
    gam[:n_lags] = lags
    fwd = np.zeros((0, d, d))          # Phi_1..Phi_p
    bwd = np.zeros((0, d, d))          # backward predictor, same order
    v = u = 0.5 * (lags[0] + lags[0].T)
    cv = cu = _chol(v, "lag-0 covariance")
    refl = 0.0
    while True:
        p = fwd.shape[0]
        if p < cap:
            delta = gam[p + 1] - np.einsum("jab,jbc->ac", fwd, gam[p:0:-1])
            refl = np.linalg.norm(
                np.linalg.solve(cv, np.linalg.solve(cu, delta.T).T), 2)
        if p == cap or refl < tol:
            cv_inv = np.linalg.inv(cv)
            inverse = np.concatenate([cv_inv[None], -cv_inv @ fwd])
            l_w = np.linalg.inv(np.fft.fft(inverse, n=n_grid, axis=0))
            rec = l_w @ l_w.conj().transpose(0, 2, 1)
            residual = float(np.linalg.norm(rec - target)
                             / np.linalg.norm(target))
            if p == cap or residual <= STOP_RESIDUAL:
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
    return WhittleFactor(inverse=inverse,
                         l_at_one=np.linalg.inv(inverse.sum(axis=0)),
                         residual=residual, order=p,
                         reflection_norm=float(refl), grid=n_grid)
