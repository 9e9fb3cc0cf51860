"""Boundary impact matrices, the martingale kernel, and its no-arbitrage projection.

The immediate matrix K(0) and the permanent matrix Lambda both solve a
Kyle-type quadratic M c M^T = Sigma/2 for different flow-covariance
conditioners c.  The martingale kernel is reconstructed from a spectral
factor of the flow covariance; the no-arbitrage kernel clips the
negative eigenvalues of its symmetrized transform per frequency.

All frequency-domain checks share one transform convention: for a
kernel with permanent part Lambda, Zhat(omega) is the transform of the
two-sided extension of the transient K - Lambda with the lag-0 atom
counted once.  Zhat is Hermitian per frequency whenever K(0) is
symmetric, and clipping it is an exact projection that round-trips
through the stored lattice values.
"""
from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

from .observables import ObservableSet, load_artifact, save_artifact
from .polymat import DEFAULT_GRID, WhittleFactor, _next_pow2


class KernelError(ValueError):
    pass


@dataclasses.dataclass
class ImpactKernel:
    """Sampled matrix impact kernel on a uniform lag lattice.

    values[t] is the price move (currency per contract unit) at lag
    t * delta per unit of signed flow; values[0] is the immediate matrix
    k0 and the tail approaches the permanent matrix lam.
    """

    delta: float
    values: np.ndarray        # (n_lags+1, d, d)
    lam: np.ndarray
    provenance: str = "analytic"
    grid: int = DEFAULT_GRID
    tail_tol: float = 1e-3
    diagnostics: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)

    @property
    def k0(self):
        """The immediate matrix, stored once as the lattice's lag 0."""
        return self.values[0]

    @property
    def d(self):
        return self.values.shape[1]

    @property
    def n_lags(self):
        return self.values.shape[0] - 1

    @property
    def tau_max(self):
        return self.n_lags * self.delta

    def tail_error(self) -> float:
        denom = max(np.linalg.norm(self.lam), np.linalg.norm(self.k0))
        return np.linalg.norm(self.values[-1] - self.lam) / denom

    def value_at(self, tau) -> np.ndarray:
        """Kernel at a lag, or at an array of lags (shape tau.shape + (d, d)):
        linear interpolation on the lattice, plateau at lam beyond it,
        zero at negative lags."""
        tau = np.asarray(tau, dtype=float)
        x = tau / self.delta
        n = self.n_lags
        i = np.clip(np.floor(x), 0, n - 1).astype(int)
        w = (x - i)[..., None, None]
        inside = (1.0 - w) * self.values[i] + w * self.values[i + 1]
        out = np.where((x >= n)[..., None, None], self.lam, inside)
        return np.where((tau < 0)[..., None, None], 0.0, out)


def _sym(m):
    return 0.5 * (m + m.T)


def _psd_sqrt(m, neg_tol, what):
    m = _sym(np.asarray(m, dtype=float))
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 1e-300)
    if w.min() < -neg_tol * scale:
        raise KernelError(f"{what} is indefinite beyond tolerance "
                          f"(min eigenvalue {w.min():.3e})")
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T


def kyle_matrix(sigma, c, neg_tol: float = 1e-8) -> np.ndarray:
    """Unique symmetric PSD M with M c M^T = Sigma / 2.

    Uses a Cholesky factor L of the conditioner c; the result does not
    depend on the factorization choice.
    """
    sigma = np.asarray(sigma, dtype=float)
    c = _sym(np.asarray(c, dtype=float))
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise KernelError("flow conditioner is not positive definite") from exc
    inner = _psd_sqrt(chol.T @ sigma @ chol, neg_tol, "return covariance")
    li = np.linalg.inv(chol)
    m = li.T @ inner @ li / np.sqrt(2.0)
    return _sym(m)


def compute_K0(obs: ObservableSet) -> np.ndarray:
    """Immediate impact matrix from sigma and the flow atom omega(0)."""
    return kyle_matrix(obs.sigma, obs.omega_zero)


def compute_Lambda(obs: ObservableSet, neg_tol: float = 1e-8) -> np.ndarray:
    """Permanent impact matrix from sigma and the aggregate omega_inf.

    Small negative eigenvalues of omega_inf (estimation noise) are
    projected out before the Cholesky factorization; larger violations
    abort.
    """
    c = _sym(obs.omega_inf)
    w, v = np.linalg.eigh(c)
    tr = max(np.trace(c), 1e-300)
    if w.min() < -neg_tol * tr:
        raise KernelError("omega_inf indefinite beyond tolerance")
    if w.min() <= 0:
        floor = 1e-12 * tr
        c = v @ np.diag(np.maximum(w, floor)) @ v.T
        c = _sym(c)
    return kyle_matrix(obs.sigma, c)


# ---------------------------------------------------------------------------
# Martingale kernel
# ---------------------------------------------------------------------------

def build_K1(obs: ObservableSet, factor: WhittleFactor,
             tau_max: int | None = None, tail_tol: float = 1e-3,
             residual_bound: float = 1e-4) -> ImpactKernel:
    """Martingale-consistent kernel with no-arbitrage boundary matrices.

    On the factor's circle grid the derivative transform is
    M L(omega)^{-1} - K(0) with M = Lambda L(0), which pins both the
    flow-covariance identity and the zero-frequency boundary
    K(0) + Khat'(0) = Lambda.  The lag coefficients recovered by inverse
    FFT are treated as derivative densities at cell midpoints; the kernel
    is their half-cell-corrected cumulative sum.  The factor's order is
    at most half its grid, so its inverse never wraps the grid.
    """
    if factor.residual > residual_bound:
        raise KernelError(f"factor residual {factor.residual:.2e} exceeds "
                          f"{residual_bound:.0e}")
    k0 = compute_K0(obs)
    lam = compute_Lambda(obs)
    n = factor.grid
    if tau_max is None:
        tau_max = obs.tau_max
    if tau_max >= n // 2:
        raise KernelError("tau_max must be below half the grid size")
    l0 = factor.l_at_one
    try:
        l0_inv_check = np.linalg.cond(l0)
    except np.linalg.LinAlgError as exc:
        raise KernelError("L(0) is singular") from exc
    if not np.isfinite(l0_inv_check) or l0_inv_check > 1e12:
        raise KernelError("L(0) is numerically singular")
    m_mat = lam @ l0
    linv_w = np.fft.fft(factor.inverse, n, axis=0)
    fhat = m_mat[None] @ linv_w - k0[None]
    # the spectrum of a real filter: the imaginary part is roundoff
    g = np.fft.ifft(fhat, axis=0).real
    values = np.zeros((tau_max + 1, obs.d, obs.d))
    values[0] = k0
    csum = np.cumsum(g[:tau_max + 1], axis=0)
    values[1:] = k0 + csum[:tau_max] + 0.5 * g[1:tau_max + 1]
    diag = {"factor_residual": factor.residual, "factor_order": factor.order,
            "reflection_norm": factor.reflection_norm}
    kernel = ImpactKernel(delta=obs.delta, values=values, lam=lam,
                          provenance="k1", grid=n, tail_tol=tail_tol,
                          diagnostics=diag)
    diag["tail_error"] = kernel.tail_error()
    return kernel


# ---------------------------------------------------------------------------
# Symmetrized transform, clipping, admissibility
# ---------------------------------------------------------------------------

def symmetrized_transform(kernel: ImpactKernel,
                          n_grid: int | None = None) -> np.ndarray:
    """Zhat(omega_k) = Khat + Khat^* of the transient part K - Lambda.

    The transient sequence is reflected with its transpose to negative
    lags, the lag-0 atom counted once, and transformed on an FFT grid
    large enough to hold the full two-sided support, so the transform is
    exactly Hermitian and bijective with the stored lattice values.
    """
    n = n_grid or kernel.grid
    trans = kernel.values - kernel.lam[None]
    support = trans.shape[0] - 1
    if 2 * support > n:
        n = _next_pow2(2 * support)
    d = kernel.d
    x = np.zeros((n, d, d))
    x[0] = trans[0]
    x[1:support + 1] = trans[1:]
    x[n - support:][::-1] = trans[1:].transpose(0, 2, 1)
    half = n // 2
    if support == half:
        # the Nyquist lag is its own reflection
        x[half] = _sym(trans[half])
    return np.fft.fft(x, axis=0)


def regularize_K2(k1: ImpactKernel, n_grid: int | None = None) -> ImpactKernel:
    """Nearest kernel whose symmetrized transform is PSD per frequency.

    The Hermitian Zhat of the input is eigendecomposed at every grid
    frequency and its negative eigenvalues are clipped to zero; the
    anti-Hermitian (odd-reflection) content of the kernel is untouched
    by construction.  The result is stored on the extended lattice that
    exactly supports the clipped transform, making the operation
    idempotent and the post-clip grid check exact.
    """
    if k1.provenance not in ("k1", "analytic", "k2"):
        raise KernelError(f"unexpected provenance {k1.provenance!r}")
    zhat = symmetrized_transform(k1, n_grid)
    n = zhat.shape[0]
    herm = 0.5 * (zhat + zhat.conj().transpose(0, 2, 1))
    w, v = np.linalg.eigh(herm)
    clipped_mass = float(np.sqrt(np.sum(np.minimum(w, 0.0) ** 2)))
    wp = np.maximum(w, 0.0)
    zclip = v @ (wp[:, :, None] * v.conj().transpose(0, 2, 1))
    z = np.fft.ifft(zclip, axis=0)
    z = z.real
    d = k1.d
    half = n // 2
    lam_sym = _sym(k1.lam)
    lam_w, lam_v = np.linalg.eigh(lam_sym)
    if lam_w.min() >= 0.0:
        # keep bits stable when no projection is needed
        lam2 = k1.lam if np.array_equal(lam_sym, k1.lam) else lam_sym
    else:
        lam2 = _sym(lam_v @ np.diag(np.maximum(lam_w, 0.0)) @ lam_v.T)
    values = np.zeros((half + 1, d, d))
    values[0] = lam2 + z[0]
    values[1:half] = lam2[None] + z[1:half]
    values[half] = lam2 + z[half]
    diag = {
        "clipped_negative_mass": clipped_mass,
        "spectral_distance_to_input": float(
            np.linalg.norm(zclip - zhat) / max(np.linalg.norm(zhat), 1e-300)),
    }
    kernel = ImpactKernel(delta=k1.delta, values=values, lam=lam2,
                          provenance="k2", grid=n, tail_tol=k1.tail_tol,
                          diagnostics=diag)
    diag["tail_error"] = kernel.tail_error()
    return kernel


@dataclasses.dataclass
class AdmissibilityReport:
    """Grid-level necessary conditions for a no-arbitrage kernel.

    The verdict covers the symmetry of K(0), the spectral positivity of
    the symmetrized transform, and symmetry/positivity of the permanent
    matrix; these are necessary conditions only, so a pass reads
    "necessary conditions pass", never "admissible".  The slope
    antisymmetry residual at lag zero applies to twice-differentiable
    kernels and is reported as information, not folded into the verdict.
    """

    k0_symmetry: float
    kprime0_antisymmetry: float
    min_spectral_eig: float          # relative to the spectral scale
    lambda_symmetry: float
    lambda_min_eig: float            # relative to |lambda|
    tol: float
    verdict: bool
    notes: list

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["label"] = ("necessary conditions pass" if self.verdict
                        else "necessary conditions fail")
        return out


def nsa_check(kernel: ImpactKernel, tol: float = 1e-6,
              n_grid: int | None = None) -> AdmissibilityReport:
    """Check the grid-level no-statistical-arbitrage necessary conditions."""
    notes = []
    k0 = kernel.k0
    k0_scale = max(np.linalg.norm(k0), 1e-300)
    k0_sym = float(np.linalg.norm(k0 - k0.T) / k0_scale)
    # one-sided second-order slope at lag 0
    if kernel.values.shape[0] >= 3:
        dv = kernel.delta
        kp0 = (-3.0 * kernel.values[0] + 4.0 * kernel.values[1]
               - kernel.values[2]) / (2.0 * dv)
        kp_scale = max(np.linalg.norm(kp0), 1e-300)
        kp_anti = float(np.linalg.norm(kp0 + kp0.T) / kp_scale)
    else:
        kp_anti = float("nan")
        notes.append("kernel too short for a slope estimate")
    zhat = symmetrized_transform(kernel, n_grid)
    herm = 0.5 * (zhat + zhat.conj().transpose(0, 2, 1))
    asym = np.abs(zhat - herm).max()
    w = np.linalg.eigvalsh(herm)
    scale = max(np.abs(w).max(), 1e-300)
    if asym > 1e-9 * scale:
        notes.append("transform not Hermitian (asymmetric immediate matrix)")
    min_eig = float(w.min() / scale)
    lam = kernel.lam
    lam_scale = max(np.linalg.norm(lam), 1e-300)
    lam_sym = float(np.linalg.norm(lam - lam.T) / lam_scale)
    lam_eigs = np.linalg.eigvalsh(_sym(lam))
    lam_min = float(lam_eigs.min() / max(np.abs(lam_eigs).max(), 1e-300))
    verdict = (k0_sym <= tol and min_eig >= -tol and lam_sym <= tol
               and lam_min >= -tol)
    return AdmissibilityReport(k0_symmetry=k0_sym,
                               kprime0_antisymmetry=kp_anti,
                               min_spectral_eig=min_eig,
                               lambda_symmetry=lam_sym,
                               lambda_min_eig=lam_min,
                               tol=tol, verdict=verdict, notes=notes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_kernel(directory, kernel: ImpactKernel):
    save_artifact(directory, {"delta": kernel.delta, "grid": kernel.grid,
                              "provenance": kernel.provenance,
                              "tail_tol": kernel.tail_tol,
                              "diagnostics": kernel.diagnostics},
                  values=kernel.values, lam=kernel.lam)


def load_kernel(directory) -> ImpactKernel:
    """The kernel saved under directory; a k0 array, which an older
    artifact holds next to values, is ignored."""
    directory = pathlib.Path(directory)
    if not (directory / "meta.json").exists():
        raise KernelError(f"{directory} is not a kernel directory")
    meta, arrays = load_artifact(directory)
    return ImpactKernel(delta=meta["delta"], values=arrays["values"],
                        lam=arrays["lam"],
                        provenance=meta["provenance"], grid=meta["grid"],
                        tail_tol=meta["tail_tol"],
                        diagnostics=meta.get("diagnostics", {}))
