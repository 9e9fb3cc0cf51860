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
# the factor order of lags estimated from a sample, as a share of their
# count m: a longer factor fits sampling noise.  tests/sweep.py chose it
# against the exact-lag stop and order criteria (SWEEP_order.json)
ORDER_SHARE = 0.5


class PolymatError(ValueError):
    """Raised when an input violates a factorization precondition."""


def spectrum_on_grid(lags, n_grid: int) -> np.ndarray:
    """R(omega_j) = sum_k R_k e^{-i omega_j k} at omega_j = 2 pi j / n_grid
    for j = 0..n_grid // 2; the other frequencies are their conjugates.

    lags[k] = R_k for k = 0..m are the causal lags of a para-Hermitian R,
    with R_{-k} = R_k^T, so R = F + F^H with F the transform of the causal
    lags, lag 0 halved.  At n_grid = 2m the last lag is the Nyquist lag,
    its own reflection, and is counted once (halved as well).  Returns an
    (n_grid // 2 + 1, d, d) array, Hermitian per frequency; grids below
    2m are rejected.
    """
    x = np.array(lags, dtype=float)
    m = x.shape[0] - 1
    if n_grid < max(2 * m, 1):
        raise PolymatError(f"n_grid={n_grid} cannot resolve order {m}")
    x[0] *= 0.5
    if 2 * m == n_grid:
        x[m] *= 0.5
    f = np.fft.rfft(x, n_grid, axis=0)
    return f + f.conj().transpose(0, 2, 1)


def circle_norm(z, n_grid: int) -> float:
    """Frobenius norm over all n_grid frequencies of a real sequence's
    transform z, given at its n_grid // 2 + 1 non-redundant ones: the
    interior frequencies count twice, DC and an even grid's Nyquist
    once."""
    sq = np.sum(np.abs(z) ** 2, axis=(1, 2))
    return float(np.sqrt(2.0 * sq.sum() - sq[0]
                         - (sq[-1] if n_grid % 2 == 0 else 0.0)))


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
    reflection_norm the spectral norm of the normalised reflection
    coefficient that reached `order` (0.0 at order 0).
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


def _chol_pair(cov, order):
    """Cholesky factors of the stacked forward and backward innovation
    covariances; a failure is named by side and order."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.stack([
            _chol(c, f"{side} innovation covariance at order {order}")
            for c, side in zip(cov, ("forward", "backward"))])


def whittle_factor(lags, n_grid: int = DEFAULT_GRID, *,
                   order: int) -> WhittleFactor:
    """Inverse spectral factor of R(z) = sum_k lags[|k|] z^{-k} (lags[k]^T
    for k < 0) by the block Whittle (1963) recursion, to the given order.

    lags[k] = E[x_{t+k} x_t^T], k = 0..m, are the finite causal
    coefficients, shaped (m+1, d, d), of a para-Hermitian R.  Forward and
    backward predictors grow one lag per step, as one stacked pair, until
    they reach `order`: lags estimated from a sample carry noise that a
    longer factor fits (ORDER_SHARE).  Malformed lags, an order outside
    0..n_grid // 2, where L^{-1} would wrap the grid, or an innovation
    covariance that is not positive definite (R is not positive on the
    circle), raise PolymatError.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 3 or not lags.size or lags.shape[1] != lags.shape[2] \
            or not np.isfinite(lags).all():
        raise PolymatError("lags must be finite and shaped (m+1, d, d)")
    n_lags, d, _ = lags.shape
    if np.abs(lags[0] - lags[0].T).max() > 1e-8 * np.abs(lags).max():
        raise PolymatError("lag-0 coefficient is not symmetric")
    target = spectrum_on_grid(lags, n_grid)
    cap = n_grid // 2
    if not 0 <= order <= cap:
        raise PolymatError(f"order {order} is outside 0..{cap}")
    # d columns a lag: R_k at block cap - k, Phi_1..Phi_p from the left,
    # the backward predictor B_p..B_1 from the right
    rev, (fwd, bwd) = np.zeros((cap * d, d)), np.zeros((2, d, cap * d))
    rev[(cap - n_lags + 1) * d:] = lags[:0:-1].reshape(-1, d)
    pair = np.empty((2, d, d))                          # delta, delta^T
    cov = np.stack([0.5 * (lags[0] + lags[0].T)] * 2)   # V, U
    chol = np.stack([_chol(cov[0], "lag-0 covariance")] * 2)
    refl = 0.0
    for p in range(order):
        chol_inv = np.linalg.inv(chol)
        lead, top = fwd[:, :p * d], (cap - p) * d
        delta = np.subtract(rev[top - d:top], lead @ rev[top:], out=pair[0])
        if p == order - 1:
            refl = np.linalg.norm(chol_inv[0] @ delta @ chol_inv[1].T, 2)
        pair[1] = delta.T
        # the new forward and backward lags, (delta U^{-1}, delta^T V^{-1})
        new = pair @ (chol_inv[::-1].transpose(0, 2, 1) @ chol_inv[::-1])
        cov -= new @ pair[::-1]
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        back = new[1] @ lead
        lead -= new[0] @ bwd[:, top:]
        bwd[:, top:] -= back
        fwd[:, p * d:(p + 1) * d], bwd[:, top - d:top] = new
        chol = _chol_pair(cov, p + 1)
    chol_inv = np.linalg.inv(chol)
    inverse = np.concatenate([chol_inv[:1], -(chol_inv[0] @ fwd[:, :order * d])
                              .reshape(d, order, d).swapaxes(0, 1)])
    l_w = np.linalg.inv(np.fft.rfft(inverse, n_grid, axis=0))
    rec = l_w @ l_w.conj().transpose(0, 2, 1)
    residual = circle_norm(rec - target, n_grid) / circle_norm(target, n_grid)
    return WhittleFactor(inverse=inverse,
                         l_at_one=np.linalg.inv(inverse.sum(axis=0)),
                         residual=residual, order=order,
                         reflection_norm=float(refl), grid=n_grid)
