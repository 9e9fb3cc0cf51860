"""Closed-form synthetic market instances and model oracles for tests.

The instances cover the single-decay-rate excitation family: buy-buy and
sell-sell blocks equal A exp(-beta t), cross blocks zero.  This family is
always balanced and martingale-compatible, the imbalance kernel is
A exp(-beta t), and the binned covariance of the signed volume flow has
an exact matrix-geometric form, so lattice pipelines can be validated
without Monte Carlo error.  The oracles (stationary intensity and flow
spectrum) hold for any stable spec.  reference_whittle is the spectral
factor recursion written order by order, the reference for
polymat.whittle_factor; it keeps the exact-lag stop, at whose order
exact_factor factors exact lags.  reference_simulate is the cluster
sampler with its term tables built per source and a stable sort, the
reference for hawkes.simulate.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import expm, solve_sylvester

from crossimpact.arbitrage import predict_prices
from crossimpact.formats import TIME_FORMAT
from crossimpact.hawkes import (BUY, SELL, EventStream, HawkesError,
                                HawkesSpec, imbalance_integral, imbalance_l1,
                                validate_spec)
from crossimpact.kernels import ImpactKernel
from crossimpact.observables import ObservableSet
from crossimpact.polymat import (DEFAULT_GRID, PolymatError, WhittleFactor,
                                 _chol, circle_norm, spectrum_on_grid,
                                 whittle_factor)

# the exact-lag stop: a reflection coefficient of spectral norm below
# FACTOR_TOL ends the recursion, but only when the factor already
# reproduces R on the grid to the relative residual STOP_RESIDUAL: a
# spectrum in k omega has exactly zero reflections at orders not
# divisible by k
FACTOR_TOL = 1e-10
STOP_RESIDUAL = 1e-6


def full_fourier(spec: HawkesSpec, omega) -> np.ndarray:
    """Closed-form transform of the 2d x 2d kernel at frequencies
    omega, shape (len(omega), 2d, 2d)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros((2 * spec.d, 2 * spec.d, len(omega)), dtype=complex)
    np.add.at(out, (spec.target, spec.source),
              spec.alpha[:, None] / (spec.beta[:, None] + 1j * omega[None, :]))
    return out.transpose(2, 0, 1)


def stationary_intensity(spec: HawkesSpec) -> np.ndarray:
    """Per-asset one-sided stationary intensity theta.

    Solves the 2d-dimensional mean fixed point and returns the buy half;
    under the balance condition the sell half is identical.
    """
    if not validate_spec(spec).stable:
        raise HawkesError("unstable model has no stationary intensity")
    d = spec.d
    mu_full = np.concatenate([spec.mu, spec.mu])
    try:
        theta_full = np.linalg.solve(np.eye(2 * d) - spec.full_l1(), mu_full)
    except np.linalg.LinAlgError as exc:
        raise HawkesError("singular mean equations") from exc
    return theta_full[:d]


def analytic_flow_spectrum(spec: HawkesSpec, omega) -> np.ndarray:
    """Spectral density of the signed volume flow at each frequency.

    Units are (contract units)^2 per unit time.  The output is Hermitian
    positive semi-definite at every frequency; with no excitation it is
    the flat white spectrum 2 diag(theta v^2).
    """
    d = spec.d
    theta = stationary_intensity(spec)
    theta_full = np.concatenate([theta, theta])
    resolvent = np.linalg.inv(np.eye(2 * d)[None] - full_fourier(spec, omega))
    counts = resolvent @ np.diag(theta_full)[None] @ \
        resolvent.conj().transpose(0, 2, 1)
    u = np.hstack([np.eye(d), -np.eye(d)])
    signed = u[None] @ counts @ u.T[None]
    dv = np.diag(spec.sizes)
    return dv[None] @ signed @ dv[None]


# price rows formatted at once by write_price_csv
CSV_CHUNK_ROWS = 256


def write_price_csv(path, times, assets, prices):
    """A data-path price file: CRLF-terminated rows time,asset,price, the
    bytes csv.writer gives for TIME_FORMAT times and %.17g prices.  Rows
    are formatted CSV_CHUNK_ROWS at a time, so no whole-file string is
    built."""
    columns = (np.asarray(times, dtype=float), np.asarray(assets, dtype=int),
               np.asarray(prices, dtype=float))
    row_format = TIME_FORMAT + ",%d,%.17g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("time,asset,price\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            rows = zip(*(c[start:start + CSV_CHUNK_ROWS].tolist()
                         for c in columns))
            fh.write("".join(row_format % row for row in rows))


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
                        omega_inf=omega_inf, delta=1.0, n_days=0, n_bins=0)
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
                         omega_inf=omega_inf, delta=1.0, n_days=0, n_bins=0)


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
                        omega_inf=omega_inf, delta=1.0, n_days=0, n_bins=0)
    return spec, obs


def holdout_score(kernel: ImpactKernel, series) -> float:
    """1 - R^2 of the returns the kernel predicts on days it did not see:
    sum |r - rhat|^2 / sum |r|^2 pooled over the days, assets and bins of
    series, rhat the first difference of predict_prices from p0 = 0."""
    miss = total = 0.0
    for s in series:
        rhat = np.diff(predict_prices(kernel, s, 0.0), axis=0, prepend=0.0)
        miss += np.sum((s.returns - rhat) ** 2)
        total += np.sum(s.returns ** 2)
    return float(miss / total)


def generator_kernel(spec: HawkesSpec, lam, tau_max, offset=0.5):
    """The generator's martingale kernel sampled at (n + offset) delta,
    delta = 1, n = 0..tau_max: hawkes.analytic_kernel's law, whose
    lattice kernel at offset 0.5 is the cell average that a bin's return
    sees."""
    lam = np.asarray(lam, dtype=float)
    dv, dv_inv = np.diag(spec.sizes), np.diag(1.0 / spec.sizes)
    k0 = lam @ dv @ np.linalg.inv(np.eye(spec.d) - imbalance_l1(spec)) \
        @ dv_inv
    psi = dv @ imbalance_integral(spec, offset + np.arange(tau_max + 1)) \
        @ dv_inv
    return ImpactKernel(delta=1.0, values=k0 @ (np.eye(spec.d) - psi),
                        lam=lam, provenance="analytic")


def reference_whittle(lags, tol: float = FACTOR_TOL,
                      n_grid: int = DEFAULT_GRID,
                      order: int | None = None) -> WhittleFactor:
    """The block Whittle recursion written order by order: one einsum for
    the reflection, solves for the coefficients and growing coefficient
    stacks.  Without an order it takes the exact-lag stop: the first
    reflection below tol with the grid residual at most STOP_RESIDUAL, or
    the order n_grid // 2, so that L^{-1} never wraps the grid.  The
    reference that polymat.whittle_factor's block-row recursion must
    match, at the same order, to roundoff in every field."""
    lags = np.asarray(lags, dtype=float)
    n_lags, d, _ = lags.shape
    if np.abs(lags[0] - lags[0].T).max() > 1e-8 * np.abs(lags).max():
        raise PolymatError("lag-0 coefficient is not symmetric")
    target = spectrum_on_grid(lags, n_grid)
    cap = n_grid // 2
    last = cap if order is None else order
    gam = np.zeros((cap + 1, d, d))
    gam[:n_lags] = lags
    fwd = np.zeros((0, d, d))          # Phi_1..Phi_p
    bwd = np.zeros((0, d, d))          # backward predictor, same order
    v = u = 0.5 * (lags[0] + lags[0].T)
    cv = cu = _chol(v, "lag-0 covariance")
    refl = 0.0
    while True:
        p = fwd.shape[0]
        if p < last:
            delta = gam[p + 1] - np.einsum("jab,jbc->ac", fwd, gam[p:0:-1])
            refl = np.linalg.norm(
                np.linalg.solve(cv, np.linalg.solve(cu, delta.T).T), 2)
        if p == last or order is None and refl < tol:
            cv_inv = np.linalg.inv(cv)
            inverse = np.concatenate([cv_inv[None], -cv_inv @ fwd])
            l_w = np.linalg.inv(np.fft.rfft(inverse, n_grid, axis=0))
            rec = l_w @ l_w.conj().transpose(0, 2, 1)
            residual = (circle_norm(rec - target, n_grid)
                        / circle_norm(target, n_grid))
            if p == last or residual <= STOP_RESIDUAL:
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


def exact_factor(lags, n_grid: int = DEFAULT_GRID) -> WhittleFactor:
    """polymat.whittle_factor at the order where reference_whittle's
    exact-lag stop ends: the factor of exact lags, which carry no
    sampling noise to stop short of."""
    return whittle_factor(lags, n_grid,
                          order=reference_whittle(lags, n_grid=n_grid).order)


def reference_simulate(spec: HawkesSpec, horizon: float,
                       seed: int) -> EventStream:
    """The cluster sampler with a loop over source components for its
    term tables and a stable sort of the union of generations.  The
    reference that hawkes.simulate must match stream for stream."""
    report = validate_spec(spec)
    if not report.stable:
        raise HawkesError("refusing to simulate an unstable model")
    if horizon < 0:
        raise HawkesError("horizon must be nonnegative")
    rng = np.random.default_rng(seed)
    d = spec.d
    n_comp = 2 * d
    live = spec.alpha != 0.0
    alphas, betas = spec.alpha[live], spec.beta[live]
    src, tgt = spec.source[live], spec.target[live]
    # per source component, its terms padded to a common width; a padded
    # slot has zero mean offspring
    by_src = [np.flatnonzero(src == c) for c in range(n_comp)]
    width = max(len(k) for k in by_src)
    mean_children = np.zeros((n_comp, width))
    decay = np.ones((n_comp, width))
    child_comp = np.zeros((n_comp, width), dtype=int)
    for c, k in enumerate(by_src):
        mean_children[c, :len(k)] = alphas[k] / betas[k]
        decay[c, :len(k)] = betas[k]
        child_comp[c, :len(k)] = tgt[k]
    mu_full = np.concatenate([spec.mu, spec.mu])
    comps = np.repeat(np.arange(n_comp), rng.poisson(mu_full * horizon))
    times = rng.uniform(0.0, horizon, len(comps))
    all_times, all_comps = [times], [comps]
    while len(times) and width:
        counts = rng.poisson(mean_children[comps])
        slot = np.repeat(np.arange(counts.size), counts.ravel())
        parent, slot = np.divmod(slot, width)
        pc = comps[parent]
        times = times[parent] + rng.exponential(size=len(slot)) \
            / decay[pc, slot]
        keep = times <= horizon
        times, comps = times[keep], child_comp[pc, slot][keep]
        all_times.append(times)
        all_comps.append(comps)
    times = np.concatenate(all_times)
    order = np.argsort(times, kind="stable")
    times = np.rint(times[order] * 1e9) / 1e9
    comps = np.concatenate(all_comps)[order]
    assets = comps % d
    return EventStream(times=times, assets=assets,
                       sides=np.where(comps < d, BUY, SELL),
                       sizes=spec.sizes[assets], horizon=horizon, d=d)
