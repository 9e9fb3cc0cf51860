"""Boundary impact matrices, the martingale kernel, and its no-arbitrage projection.

The immediate matrix K(0) and the permanent matrix Lambda both solve a
Kyle-type quadratic M c M^T = Sigma/2 for different flow-covariance
conditioners c.  The martingale kernel is reconstructed from a spectral
factor of the flow covariance; the no-arbitrage kernel clips the
negative eigenvalues of its symmetrized transform per frequency.

All frequency-domain checks share one transform convention: for a
kernel with permanent part Lambda, Zhat(omega) is the transform of the
two-sided extension of the transient K - Lambda with the lag-0 atom
counted once, given at the non-redundant half of the grid
(polymat.spectrum_on_grid).  Zhat is Hermitian per frequency by
construction, and clipping it is an exact projection that round-trips
through the stored lattice values.
"""
from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

from .formats import load_artifact, save_artifact
from .observables import NEG_TOL, ObservableSet
from .polymat import DEFAULT_GRID, WhittleFactor, circle_norm, spectrum_on_grid


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
        """The lattice end's distance to lam, relative to the larger
        boundary matrix, or the flow correlation left at the lattice end
        (diagnostics["flow_tail"], set by build_K1), whichever is larger,
        and NaN if either is: a kernel that reaches lam by construction
        has converged only when the flow it was built from has."""
        denom = max(np.linalg.norm(self.lam), np.linalg.norm(self.k0))
        gap = np.linalg.norm(self.values[-1] - self.lam) / denom
        return float(np.maximum(gap, self.diagnostics.get("flow_tail", 0.0)))

    def tail_check(self) -> tuple[float, str | None]:
        """The tail error, and the fault when it is not within tail_tol
        (a NaN one is not), else None."""
        tail = self.tail_error()
        fault = f"tail error {tail:.2e} > tol {self.tail_tol:.2e}"
        return tail, None if tail <= self.tail_tol else fault

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


def _psd_sqrt(m, what):
    m = _sym(np.asarray(m, dtype=float))
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 1e-300)
    if w.min() < -NEG_TOL * scale:
        raise KernelError(f"{what} is indefinite beyond tolerance "
                          f"(min eigenvalue {w.min():.3e})")
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T


def kyle_matrix(sigma, c) -> np.ndarray:
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
    inner = _psd_sqrt(chol.T @ sigma @ chol, "return covariance")
    li = np.linalg.inv(chol)
    m = li.T @ inner @ li / np.sqrt(2.0)
    return _sym(m)


def compute_K0(obs: ObservableSet) -> np.ndarray:
    """Immediate impact matrix from sigma and the flow atom omega(0)."""
    return kyle_matrix(obs.sigma, obs.omega_zero)


def compute_Lambda(obs: ObservableSet) -> np.ndarray:
    """Permanent impact matrix from sigma and the aggregate omega_inf,
    which observables.omega_aggregates leaves positive definite."""
    return kyle_matrix(obs.sigma, obs.omega_inf)


# ---------------------------------------------------------------------------
# Martingale kernel
# ---------------------------------------------------------------------------

def build_K1(obs: ObservableSet, factor: WhittleFactor, tail_tol: float = 1e-3,
             residual_bound: float = 1e-4) -> ImpactKernel:
    """Martingale-consistent kernel with no-arbitrage boundary matrices.

    The derivative transform is M L(omega)^{-1} - K(0) with
    M = Lambda L(0), which pins both the flow-covariance identity and the
    zero-frequency boundary K(0) + Khat'(0) = Lambda.  Its lag
    coefficients, M inverse[k] less K(0) at lag 0 and zero past the
    factor's order, are treated as derivative densities at cell
    midpoints; the kernel is their half-cell-corrected cumulative sum,
    on obs's lags 0..tau_max, tau_max below half the factor's grid.
    A factor whose grid residual exceeds obs.residual_noise() (0 for
    exact lags) by more than residual_bound is refused: it misses the
    estimate by more than the estimate misses the flow.
    diagnostics["flow_tail"] is |omega(tau_max)| / |omega(0)|, the flow
    correlation left at the lattice end, which K1's tail error includes.
    """
    if factor.residual > obs.residual_noise() + residual_bound:
        raise KernelError(f"factor residual {factor.residual:.2e} exceeds "
                          f"the sampling noise {obs.residual_noise():.2e} "
                          f"by more than {residual_bound:.0e}")
    k0 = compute_K0(obs)
    lam = compute_Lambda(obs)
    n, tau_max = factor.grid, obs.tau_max
    if tau_max >= n // 2:
        raise KernelError("tau_max must be below half the grid size")
    l0 = factor.l_at_one
    try:
        l0_inv_check = np.linalg.cond(l0)
    except np.linalg.LinAlgError as exc:
        raise KernelError("L(0) is singular") from exc
    if not np.isfinite(l0_inv_check) or l0_inv_check > 1e12:
        raise KernelError("L(0) is numerically singular")
    g = np.zeros((tau_max + 1, obs.d, obs.d))
    p = min(factor.order, tau_max) + 1
    g[:p] = lam @ l0 @ factor.inverse[:p]
    g[0] -= k0
    values = np.zeros((tau_max + 1, obs.d, obs.d))
    values[0] = k0
    csum = np.cumsum(g, axis=0)
    values[1:] = k0 + csum[:tau_max] + 0.5 * g[1:]
    diag = {"factor_residual": factor.residual, "factor_order": factor.order,
            "reflection_norm": factor.reflection_norm,
            "flow_tail": float(np.linalg.norm(obs.omega[-1])
                               / np.linalg.norm(obs.omega[0]))}
    kernel = ImpactKernel(delta=obs.delta, values=values, lam=lam,
                          provenance="k1", grid=n, tail_tol=tail_tol,
                          diagnostics=diag)
    diag["tail_error"] = kernel.tail_error()
    return kernel


# ---------------------------------------------------------------------------
# Symmetrized transform, clipping, admissibility
# ---------------------------------------------------------------------------

def _transform_grid(kernel: ImpactKernel, n_grid: int | None) -> int:
    """n_grid, or the kernel's grid, grown to the next power of two that
    holds the two-sided support of its lags."""
    n, support = n_grid or kernel.grid, 2 * kernel.n_lags
    return n if support <= n else 1 << (support - 1).bit_length()


def symmetrized_transform(kernel: ImpactKernel,
                          n_grid: int | None = None) -> np.ndarray:
    """Zhat(omega_k) = Khat + Khat^* of the transient part K - Lambda at
    the n // 2 + 1 non-redundant frequencies of the transform grid n.

    The transient sequence is reflected with its transpose to negative
    lags, the lag-0 atom counted once, on a grid large enough to hold the
    full two-sided support, so the transform is exactly Hermitian and
    bijective with the stored lattice values.
    """
    return spectrum_on_grid(kernel.values - kernel.lam[None],
                            _transform_grid(kernel, n_grid))


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
    n = _transform_grid(k1, n_grid)
    zhat = symmetrized_transform(k1, n)
    w, v = np.linalg.eigh(zhat)
    zclip = v @ (np.maximum(w, 0.0)[:, :, None]
                 * v.conj().transpose(0, 2, 1))
    z = np.fft.irfft(zclip, n, axis=0)
    lam_sym = _sym(k1.lam)
    lam_w, lam_v = np.linalg.eigh(lam_sym)
    if lam_w.min() >= 0.0:
        # keep bits stable when no projection is needed
        lam2 = k1.lam if np.array_equal(lam_sym, k1.lam) else lam_sym
    else:
        lam2 = _sym(lam_v @ np.diag(np.maximum(lam_w, 0.0)) @ lam_v.T)
    diag = {"spectral_distance_to_input": circle_norm(zclip - zhat, n)
            / max(circle_norm(zhat, n), 1e-300)}
    kernel = ImpactKernel(delta=k1.delta, values=lam2 + z[:n // 2 + 1],
                          lam=lam2, provenance="k2", grid=n,
                          tail_tol=k1.tail_tol, diagnostics=diag)
    diag["tail_error"] = kernel.tail_error()
    return kernel


@dataclasses.dataclass
class AdmissibilityReport:
    """Grid-level necessary conditions for a no-arbitrage kernel.

    The verdict covers the symmetry of K(0), the spectral positivity of
    the symmetrized transform, and symmetry/positivity of the permanent
    matrix; these are necessary conditions only, so a pass reads
    "necessary conditions pass", never "admissible".
    """

    k0_symmetry: float
    min_spectral_eig: float          # relative to the spectral scale
    lambda_symmetry: float
    lambda_min_eig: float            # relative to |lambda|
    tol: float
    verdict: bool

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["label"] = ("necessary conditions pass" if self.verdict
                        else "necessary conditions fail")
        return out


def nsa_check(kernel: ImpactKernel, tol: float = 1e-6) -> AdmissibilityReport:
    """Check the grid-level no-statistical-arbitrage necessary conditions
    on the kernel's own grid."""
    k0 = kernel.k0
    k0_scale = max(np.linalg.norm(k0), 1e-300)
    k0_sym = float(np.linalg.norm(k0 - k0.T) / k0_scale)
    w = np.linalg.eigvalsh(symmetrized_transform(kernel))
    scale = max(np.abs(w).max(), 1e-300)
    min_eig = float(w.min() / scale)
    lam = kernel.lam
    lam_scale = max(np.linalg.norm(lam), 1e-300)
    lam_sym = float(np.linalg.norm(lam - lam.T) / lam_scale)
    lam_eigs = np.linalg.eigvalsh(_sym(lam))
    lam_min = float(lam_eigs.min() / max(np.abs(lam_eigs).max(), 1e-300))
    verdict = (k0_sym <= tol and min_eig >= -tol and lam_sym <= tol
               and lam_min >= -tol)
    return AdmissibilityReport(k0_symmetry=k0_sym,
                               min_spectral_eig=min_eig,
                               lambda_symmetry=lam_sym,
                               lambda_min_eig=lam_min,
                               tol=tol, verdict=verdict)


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
    artifact holds next to values, is ignored.  values must be
    (n+1, d, d) and lam (d, d), both finite, delta and tail_tol positive
    finite numbers, and grid an integer of at least 1; any other artifact
    is refused, naming the array or key at fault."""
    directory = pathlib.Path(directory)
    if not (directory / "meta.json").exists():
        raise KernelError(f"{directory} is not a kernel directory")
    meta, arrays = load_artifact(directory, ("delta", "tail_tol", "grid",
                                             "provenance"), ("values", "lam"))
    for key in ("delta", "tail_tol"):
        if type(meta[key]) not in (int, float) or not 0 < meta[key] < np.inf:
            raise KernelError(f"{directory}: {key} must be a positive finite "
                              f"number, not {meta[key]!r}")
    if type(meta["grid"]) is not int or meta["grid"] < 1:
        raise KernelError(f"{directory}: grid must be an integer of at least "
                          f"1, not {meta['grid']!r}")
    kernel = ImpactKernel(delta=meta["delta"], values=arrays["values"],
                          lam=arrays["lam"], provenance=meta["provenance"],
                          grid=meta["grid"], tail_tol=meta["tail_tol"],
                          diagnostics=meta.get("diagnostics", {}))
    values, lam = kernel.values, kernel.lam
    if values.ndim != 3 or 0 in values.shape or \
            values.shape[1] != values.shape[2]:
        raise KernelError(f"{directory}: values has shape {values.shape}, "
                          "not (n+1, d, d)")
    if lam.shape != values.shape[1:]:
        raise KernelError(f"{directory}: lam has shape {lam.shape}, not "
                          f"{values.shape[1:]} for values {values.shape}")
    for name, array in (("values", values), ("lam", lam)):
        if not np.all(np.isfinite(array)):
            raise KernelError(f"{directory}: {name} is not finite")
    return kernel
