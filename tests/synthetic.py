"""Closed-form synthetic market instances for calibration tests and demos.

Covers the single-decay-rate excitation family: buy-buy and sell-sell
blocks equal A exp(-beta t), cross blocks zero.  This family is always
balanced and martingale-compatible, the imbalance kernel is A exp(-beta t),
and the binned covariance of the signed volume flow has an exact
matrix-geometric form, so lattice pipelines can be validated without
Monte Carlo error.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import expm, solve_sylvester

from crossimpact.hawkes import HawkesSpec, stationary_intensity
from crossimpact.observables import ObservableSet


def single_rate_spec(A, beta, mu, sizes=None) -> HawkesSpec:
    """Spec with aa = bb = A exp(-beta t) and no cross-side excitation."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if sizes is None:
        sizes = np.ones(d)
    return HawkesSpec.from_matrices(mu=mu, sizes=sizes, beta=beta,
                                    aa=A, bb=A)


def flow_covariance_density(A, beta, theta):
    """Continuous covariance density of the signed count flow.

    For u > 0 the density is c(u) = 2 A exp(-G u) (Theta + M0 A^T) with
    G = beta I - A and M0 solving the Sylvester equation
    G M0 + M0 G^T = Theta; the atom at zero is 2 Theta and
    c(-u) = c(u)^T.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    G = beta * np.eye(d) - A
    theta_mat = np.diag(np.asarray(theta, dtype=float))
    m0 = solve_sylvester(G, G.T, theta_mat)
    right = theta_mat + m0 @ A.T
    return G, right


def lattice_flow_covariance(A, beta, theta, sizes, tau_max):
    """Exact binned covariance lags of the signed volume flow, delta = 1.

    Returns an array lags[tau] for tau = 0..tau_max; lag 0 carries the
    atom 2 diag(theta v^2) plus the smeared density, higher lags are
    matrix-geometric in exp(-G).
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    G, right = flow_covariance_density(A, beta, theta)
    E = expm(-G)
    Gi = np.linalg.inv(G)
    theta_mat = np.diag(np.asarray(theta, dtype=float))
    dv = np.diag(np.asarray(sizes, dtype=float))
    # int_0^1 int_0^1 exp(-G(tau + a - b)) da db = e^{-G tau} S1
    S1 = Gi @ Gi @ (expm(G) + E - 2.0 * np.eye(d))
    lags = np.zeros((tau_max + 1, d, d))
    Ek = np.eye(d)
    for tau in range(1, tau_max + 1):
        Ek = Ek @ E
        lags[tau] = 2.0 * A @ Ek @ S1 @ right
    X = 2.0 * A @ Gi @ Gi @ (G - np.eye(d) + E) @ right
    lags[0] = 2.0 * theta_mat + X + X.T
    for tau in range(tau_max + 1):
        lags[tau] = dv @ lags[tau] @ dv
    return lags


def zero_frequency_covariance(A, beta, theta, sizes):
    """Exact two-sided lattice spectrum at frequency zero (full lag sum)."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    f0 = A / beta
    m = np.linalg.inv(np.eye(d) - f0)
    dv = np.diag(np.asarray(sizes, dtype=float))
    return dv @ (2.0 * m @ np.diag(np.asarray(theta, dtype=float)) @ m.T) @ dv


@dataclasses.dataclass
class ConsistentInstance:
    """A market whose boundary matrices are exactly recoverable.

    Built so that the permanent matrix commutes with the integrated
    imbalance kernel, which keeps both Kyle solutions symmetric and
    makes the analytic decay law the unique martingale kernel with
    those boundaries.
    """

    spec: HawkesSpec
    A: np.ndarray
    beta: float
    theta: np.ndarray
    k0: np.ndarray
    lam: np.ndarray
    obs: ObservableSet

    def closed_form_kernel(self, tau):
        f0 = self.A / self.beta
        decay = 1.0 - np.exp(-self.beta * np.asarray(tau, dtype=float))
        d = self.spec.d
        out = np.zeros(np.shape(tau) + (d, d))
        flat = np.atleast_1d(decay)
        res = np.stack([self.k0 @ (np.eye(d) - f0 * w) for w in flat])
        return res.reshape(np.shape(tau) + (d, d))


def consistent_instance(beta=0.02, branch=0.5, theta_bar=1.0,
                        tau_max=1600, mix_angle=0.5, lam_shift=-0.35,
                        second_eig=0.55) -> ConsistentInstance:
    """Two-asset coupled instance with exactly recoverable boundaries.

    The excitation matrix is symmetric with a uniform stationary
    intensity, so every lag matrix shares one eigenbasis and the lattice
    spectrum diagonalizes under a constant rotation.
    """
    d = 2
    c, s = np.cos(mix_angle), np.sin(mix_angle)
    V = np.array([[c, s], [-s, c]])
    # ascending eigenvalues keep every excitation entry nonnegative
    A = V @ np.diag([second_eig * branch * beta, branch * beta]) @ V.T
    theta = np.full(d, theta_bar)
    mu = (np.eye(d) - A / beta) @ theta
    if np.any(mu < 0):
        raise ValueError("excitation too strong for a uniform intensity")
    spec = single_rate_spec(A, beta, mu)
    f0 = A / beta
    lam = np.eye(d) + lam_shift * f0
    k0 = lam @ np.linalg.inv(np.eye(d) - f0)
    atom = 2.0 * np.diag(theta)
    sigma = 2.0 * k0 @ atom @ k0.T
    omega_inf = zero_frequency_covariance(A, beta, theta, spec.sizes)
    lags = lattice_flow_covariance(A, beta, theta, spec.sizes, tau_max)
    obs = ObservableSet(sigma=sigma, omega=lags, omega_zero=atom,
                        omega_inf=omega_inf, delta=1.0, n_days=0,
                        n_bins=0, taper="none")
    return ConsistentInstance(spec=spec, A=A, beta=beta, theta=theta,
                              k0=k0, lam=lam, obs=obs)


def coupled_instance(beta=0.25, a11=0.06, a12=0.02, a21=0.035, a22=0.08,
                     mu=(1.0, 0.6), tau_max=256, sizes=None):
    """Asymmetrically coupled two-asset flow for factorization stress tests.

    Lead-lag excitation (a12 != a21) makes the spectrum genuinely
    non-commuting across lags.  At tau_max 128, with permanent matrix
    [[1, 0.25], [0.25, 1.1]], the martingale kernel of the default
    two-way coupling passes the no-arbitrage grid conditions (min
    relative spectral eigenvalue +0.0016), while one-way coupling
    (a12 = 0, a21 = 0.12) fails them (-0.10).
    """
    A = np.array([[a11, a12], [a21, a22]], dtype=float)
    spec = single_rate_spec(A, beta, np.asarray(mu, dtype=float), sizes)
    theta = stationary_intensity(spec)
    lags = lattice_flow_covariance(A, beta, theta, spec.sizes, tau_max)
    return spec, theta, lags


def observables_from_model(spec, lam, tau_max):
    """Analytic observable set for any single-rate balanced spec.

    Sigma is implied by the chosen permanent matrix through the
    zero-frequency identity; omega lags are the exact binned covariances.
    For non-commuting instances the Kyle recovery is approximate, which
    is the generic situation on data.
    """
    d = spec.d
    beta = spec.beta[-1]
    A = spec.full_l1()[:d, :d] * beta
    theta = stationary_intensity(spec)
    lags = lattice_flow_covariance(A, beta, theta, spec.sizes, tau_max)
    omega_inf = zero_frequency_covariance(A, beta, theta, spec.sizes)
    lam = np.asarray(lam, dtype=float)
    sigma = 2.0 * lam @ omega_inf @ lam.T
    atom = 2.0 * np.diag(theta * spec.sizes ** 2)
    return ObservableSet(sigma=sigma, omega=lags, omega_zero=atom,
                         omega_inf=omega_inf, delta=1.0, n_days=0,
                         n_bins=0, taper="none")


def liquidity_contrast_instance(ratio=10.0, correlation=0.9):
    """Two-asset market where asset 0 is `ratio` times more liquid and
    returns are strongly correlated; used for qualitative ordering checks."""
    theta = np.array([ratio, 1.0])
    beta = 0.2
    # weak symmetric coupling keeps the illiquid baseline positive
    A = beta * np.array([[0.45, 0.02], [0.02, 0.45]])
    d = 2
    mu = (np.eye(d) - A / beta) @ theta
    spec = single_rate_spec(A, beta, mu)
    vol = np.array([1.0, 1.3])
    sigma = np.array([[vol[0] ** 2, correlation * vol[0] * vol[1]],
                      [correlation * vol[0] * vol[1], vol[1] ** 2]])
    tau_max = 256
    lags = lattice_flow_covariance(A, beta, theta, spec.sizes, tau_max)
    omega_inf = zero_frequency_covariance(A, beta, theta, spec.sizes)
    atom = 2.0 * np.diag(theta * spec.sizes ** 2)
    obs = ObservableSet(sigma=sigma, omega=lags, omega_zero=atom,
                        omega_inf=omega_inf, delta=1.0, n_days=0,
                        n_bins=0, taper="none")
    return spec, obs
