import time
import warnings

import numpy as np
import pytest
from scipy import optimize

from crossimpact import observables, polymat
from crossimpact.arbitrage import Piece, Strategy, StrategyError, cost
from crossimpact.kernels import (ImpactKernel, KernelError, build_K1,
                                 compute_K0, compute_Lambda, kyle_matrix,
                                 load_kernel, nsa_check, regularize_K2,
                                 save_kernel, symmetrized_transform)
from crossimpact.observables import (BinnedSeries, ObservableSet,
                                     estimate_omega, omega_aggregates,
                                     tapered_lags)
import synthetic


def random_spd(rng, d, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=d))
    return q @ np.diag(eigs) @ q.T


def white_observables(sigma, c, tau_max=8):
    d = sigma.shape[0]
    omega = np.zeros((tau_max + 1, d, d))
    omega[0] = c
    return ObservableSet(sigma=sigma, omega=omega, omega_zero=c,
                         omega_inf=c, delta=1.0, n_days=0, n_bins=0)


class TestKyleMatrix:
    def test_identity_fixed_point(self):
        m = kyle_matrix(2.0 * np.eye(2), np.eye(2))
        assert np.allclose(m, np.eye(2), atol=1e-12)

    def test_scalar(self):
        m = kyle_matrix(np.array([[8.0]]), np.array([[1.0]]))
        assert m[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_quadratic_identity_and_invariance(self):
        rng = np.random.default_rng(123)
        for d in (1, 2, 3, 5):
            for _ in range(5):
                sigma = random_spd(rng, d)
                c = random_spd(rng, d)
                m = kyle_matrix(sigma, c)
                assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
                assert np.linalg.eigvalsh(m).min() >= -1e-10 * np.abs(m).max()
                resid = m @ c @ m.T - 0.5 * sigma
                assert np.abs(resid).max() <= 1e-10 * np.abs(sigma).max()
                # factorization choice: symmetric square root instead
                w, v = np.linalg.eigh(c)
                root = v @ np.diag(np.sqrt(w)) @ v.T
                inner = root.T @ sigma @ root
                wi, vi = np.linalg.eigh(0.5 * (inner + inner.T))
                sq = vi @ np.diag(np.sqrt(np.maximum(wi, 0))) @ vi.T
                ri = np.linalg.inv(root)
                m2 = ri.T @ sq @ ri / np.sqrt(2.0)
                assert np.abs(m - m2).max() <= 1e-10 * np.abs(m).max()

    def test_brute_force_2x2_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sigma = random_spd(rng, 2, 0.5, 4.0)
            c = random_spd(rng, 2, 0.5, 4.0)
            m = kyle_matrix(sigma, c)

            def eqs(p):
                x, y, z = p
                mm = np.array([[x, y], [y, z]])
                r = mm @ c @ mm.T - 0.5 * sigma
                return [r[0, 0], r[0, 1], r[1, 1]]

            start = np.array([np.sqrt(sigma[0, 0] / (2 * c[0, 0])), 0.0,
                              np.sqrt(sigma[1, 1] / (2 * c[1, 1]))])
            sol = optimize.fsolve(eqs, start, full_output=False, xtol=1e-13)
            mm = np.array([[sol[0], sol[1]], [sol[1], sol[2]]])
            if np.linalg.eigvalsh(mm).min() < 0:
                continue  # solver landed on a non-PSD branch
            assert np.abs(mm - m).max() <= 1e-8 * np.abs(m).max()

    def test_indefinite_conditioner_rejected(self):
        with pytest.raises(KernelError):
            kyle_matrix(np.eye(2), np.diag([1.0, -0.5]))

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(KernelError):
            kyle_matrix(np.diag([1.0, -1.0]), np.eye(2))


class TestBoundaryMatrices:
    def test_diagonal_decoupling(self):
        sigma = np.diag([2.0, 8.0])
        c = np.diag([1.0, 4.0])
        obs = white_observables(sigma, c)
        k0 = compute_K0(obs)
        expect = np.diag(np.sqrt(np.diag(sigma) / np.diag(c)) / np.sqrt(2))
        assert np.allclose(k0, expect, atol=1e-12)

    def test_white_flow_lambda_equals_k0(self):
        rng = np.random.default_rng(5)
        sigma = random_spd(rng, 2)
        c = random_spd(rng, 2)
        obs = white_observables(sigma, c)
        assert np.allclose(compute_K0(obs), compute_Lambda(obs), atol=1e-12)

    def test_persistent_flow_lowers_permanent_impact(self):
        sigma = np.diag([2.0, 3.0])
        c0 = np.diag([1.0, 1.5])
        cinf = np.diag([4.0, 6.0])   # persistent flow: larger aggregate
        obs = white_observables(sigma, c0)
        obs.omega_inf = cinf
        k0 = compute_K0(obs)
        lam = compute_Lambda(obs)
        assert np.all(np.diag(lam) < np.diag(k0))

    def test_scalar_lambda(self):
        obs = white_observables(np.array([[2.0]]), np.array([[1.0]]))
        obs.omega_inf = np.array([[4.0]])
        lam = compute_Lambda(obs)
        assert lam[0, 0] == pytest.approx(np.sqrt(2.0 / 4.0) / np.sqrt(2.0),
                                          rel=1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_near_singular_omega_inf_floored(self, seed):
        # an aggregate R diag(1, -eps) R^T within NEG_TOL of PSD, where the
        # sign of a roundoff can decide between a refusal and a Lambda of
        # 1e12: floored at 1e-12 of its trace, Lambda reads 1 / sqrt(2e-12)
        # on every rotation
        rng = np.random.default_rng(seed)
        eps = 10.0 ** rng.uniform(-16.0, -9.0)
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        _, inf = omega_aggregates((rot @ np.diag([1.0, -eps]) @ rot.T)[None])
        trace = np.trace(inf)
        # eigvalsh reads the floor to within a few roundoffs of the trace
        assert np.linalg.eigvalsh(inf).min() >= \
            (observables.OMEGA_FLOOR - 1e-15) * trace
        obs = ObservableSet(sigma=np.eye(2), omega=inf[None], omega_zero=inf,
                            omega_inf=inf, delta=1.0, n_days=1, n_bins=0)
        lam = compute_Lambda(obs)
        assert np.all(np.isfinite(lam))
        assert np.linalg.eigvalsh(lam).max() == pytest.approx(
            1.0 / np.sqrt(2.0 * observables.OMEGA_FLOOR * trace), rel=1e-2)


def build_white_k1(sigma, c):
    obs = white_observables(sigma, c)
    return build_K1(obs, synthetic.exact_factor(c[None])), obs


def build_k1_quietly(obs, factor, **kwargs):
    """build_K1 with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_K1(obs, factor, **kwargs)


def lead_lag_k1(tau_max, lam, n_grid=1024, **coupling):
    spec, theta, lags = synthetic.coupled_instance(tau_max=tau_max,
                                                   **coupling)
    obs = synthetic.observables_from_model(spec, np.array(lam), tau_max)
    factor = synthetic.exact_factor(lags, n_grid=n_grid)
    return build_k1_quietly(obs, factor)


class TestBuildK1:
    def test_white_flow_fixed_point(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(rng, 2)
        c = random_spd(rng, 2)
        k1, obs = build_white_k1(sigma, c)
        lam = compute_Lambda(obs)
        for t in range(k1.values.shape[0]):
            assert np.abs(k1.values[t] - lam).max() <= 1e-11 * np.abs(lam).max()

    def test_boundary_is_exact_kyle_solution(self):
        rng = np.random.default_rng(4)
        sigma = random_spd(rng, 2)
        c = random_spd(rng, 2)
        k1, obs = build_white_k1(sigma, c)
        assert np.array_equal(k1.k0, compute_K0(obs))
        assert np.array_equal(k1.lam, compute_Lambda(obs))
        # on long-memory flow with a tiny factor residual, L(0) L(0)^T is
        # omega_inf, so M = Lambda L(0) carries Lambda omega_inf Lambda^T
        inst = synthetic.consistent_instance(beta=0.05, branch=0.5,
                                             tau_max=600)
        factor = synthetic.exact_factor(inst.obs.omega)
        assert factor.residual <= 1e-6
        l0, winf = factor.l_at_one, inst.obs.omega_inf
        assert np.abs(l0 @ l0.T - winf).max() <= 1e-6 * np.abs(winf).max()

    def test_scalar_matches_independent_wiener_hopf(self):
        # one-asset pipeline against the exact rational factor of the
        # geometric-lag spectrum (closed-form pole/zero split), with
        # pointwise grid division instead of the autoregressive inverse
        A = np.array([[0.05]])
        beta = 0.1
        theta = np.array([1.0])
        tau_max = 400
        lags = synthetic.lattice_flow_covariance(A, beta, theta,
                                                 [1.0], tau_max)
        atom = 2.0 * np.diag(theta)
        f0 = A / beta
        lam = np.eye(1) - 0.35 * f0
        k0 = lam @ np.linalg.inv(np.eye(1) - f0)
        sigma = 2.0 * k0 @ atom @ k0.T
        winf = synthetic.zero_frequency_covariance(A, beta, theta, [1.0])
        obs = ObservableSet(sigma=sigma, omega=lags, omega_zero=atom,
                            omega_inf=winf, delta=1.0, n_days=0, n_bins=0)
        k1 = build_K1(obs, synthetic.exact_factor(lags))
        # oracle: S(z) = (O0 + C rho/(z - rho) terms) has the exact
        # minimum-phase factor (p0 + p1 z^{-1}) / (1 - rho z^{-1})
        rho = np.exp(-(beta - A[0, 0]))
        o0 = lags[0, 0, 0]
        c1 = lags[1, 0, 0] / rho
        n0 = o0 * (1 + rho ** 2) - 2 * c1 * rho ** 2
        n1 = rho * (c1 - o0)
        ratio = n0 / n1
        r = (ratio + np.sign(ratio) * np.sqrt(ratio ** 2 - 4)) / 2
        r = 1.0 / r if abs(r) > 1 else r   # zero inside the circle
        p0 = np.sqrt(n1 / r)
        p1 = r * p0
        n = 4096
        om = 2 * np.pi * np.arange(n) / n
        lw = (p0 + p1 * np.exp(-1j * om)) / (1 - rho * np.exp(-1j * om))
        k0s = compute_K0(obs)[0, 0]
        lams = compute_Lambda(obs)[0, 0]
        fhat = lams * lw[0].real / lw - k0s
        g = np.fft.ifft(fhat).real
        vals = np.zeros(tau_max + 1)
        vals[0] = k0s
        cs = np.cumsum(g[:tau_max + 1])
        vals[1:] = k0s + cs[:tau_max] + 0.5 * g[1:tau_max + 1]
        dev = np.abs(k1.values[:, 0, 0] - vals).max() / np.abs(vals).max()
        assert dev <= 1e-6

    def test_exact_lags_tail_reaches_lambda(self):
        # lead-lag flow with its exact lattice lags: the kernel settles on
        # the permanent matrix, which an aliased inverse factor misses
        for coupling in ({}, {"a12": 0.0, "a21": 0.12}):
            k1 = lead_lag_k1(256, [[1.0, 0.25], [0.25, 1.1]], n_grid=4096,
                             **coupling)
            assert k1.tail_error() <= 1e-8
            assert k1.diagnostics["factor_order"] < 4096 // 2

    @pytest.mark.parametrize("flow_tail, lam", [(np.nan, 1.0), (0.0, np.nan)],
                             ids=["flow-tail", "lattice-gap"])
    def test_nan_term_gives_nan_tail_error(self, flow_tail, lam):
        # max(0.0, nan) is 0.0: a NaN flow tail once read as converged
        k = ImpactKernel(delta=1.0, values=np.tile(np.eye(2), (5, 1, 1)),
                         lam=lam * np.eye(2), provenance="k1", grid=64,
                         tail_tol=2.0, diagnostics={"flow_tail": flow_tail})
        assert np.isnan(k.tail_error())
        assert k.tail_check()[1] == "tail error nan > tol 2.00e+00"

    def test_flow_tail_shows_memory_a_short_factor_cuts(self):
        # a factor at a quarter of tau_max reaches Lambda by construction;
        # the flow correlation left at tau_max still tells a flow whose
        # memory tau_max covers (decay 0.25) from one it does not (0.02),
        # and only the covered kernel may be costed past its lattice
        tau_max, lam = 64, [[1.0, 0.25], [0.25, 1.1]]
        spec, _, lags = synthetic.coupled_instance(tau_max=tau_max)
        short = synthetic.observables_from_model(spec, np.array(lam),
                                                 tau_max)
        long = synthetic.consistent_instance(tau_max=tau_max).obs
        strategy = Strategy(
            pieces=[[Piece(0.0, 10.0, 1.0)], [Piece(20.0, 100.0, -0.5)]],
            horizon=2 * tau_max)
        for obs, covered in ((short, True), (long, False)):
            factor = synthetic.reference_whittle(obs.omega, order=tau_max // 4)
            # exact lags, so the short factor's residual is no noise
            k1 = build_k1_quietly(obs, factor, residual_bound=1.0)
            gap = np.linalg.norm(k1.values[-1] - k1.lam)
            assert gap <= 1e-12 * np.linalg.norm(k1.lam)
            flow_tail = (np.linalg.norm(obs.omega[-1])
                         / np.linalg.norm(obs.omega[0]))
            assert k1.diagnostics["flow_tail"] == flow_tail
            assert k1.tail_error() == k1.diagnostics["tail_error"] \
                == flow_tail
            assert (k1.tail_error() <= k1.tail_tol) == covered
            if covered:
                assert np.isfinite(cost(strategy, k1).total)
            else:
                with pytest.raises(StrategyError, match="not converged"):
                    cost(strategy, k1)

    def test_residual_bound_refuses_a_real_misfit(self):
        # flow x_t = e_t + 0.9 e_{t-16} estimated from 50,000 bins at
        # tau_max 32: an order-8 factor cannot reach lag 16 and misses
        # the estimate by several times its sampling noise, while the
        # order-32 factor fits it within that noise
        rng = np.random.default_rng(11)
        e = rng.standard_normal((50_016, 1))
        series = [BinnedSeries(delta=1.0, flows=e[16:] + 0.9 * e[:-16])]
        omega = estimate_omega(series, 32)
        omega_zero, omega_inf = omega_aggregates(omega)
        obs = ObservableSet(sigma=np.eye(1), omega=omega,
                            omega_zero=omega_zero, omega_inf=omega_inf,
                            delta=1.0, n_days=1, n_bins=50_000)
        noise = obs.residual_noise()
        lags = tapered_lags(omega)
        short = synthetic.reference_whittle(lags, order=8)
        assert short.residual > 3 * noise
        with pytest.raises(KernelError, match="factor residual"):
            build_K1(obs, short)
        full = synthetic.reference_whittle(lags, order=32)
        assert full.residual < noise
        assert build_K1(obs, full).diagnostics[
            "factor_order"] == 32

    def test_singular_l0_rejected(self):
        sigma = np.eye(1)
        c = np.eye(1)
        obs = white_observables(sigma, c)
        factor = polymat.WhittleFactor(
            inverse=np.ones((2, 1, 1)), l_at_one=np.zeros((1, 1)),   # L(1) = 0
            residual=0.0, order=1, reflection_norm=0.0, grid=64)
        with pytest.raises((KernelError, polymat.PolymatError)):
            build_K1(obs, factor)


def decaying_kernel(tau_max=64, rate=0.15, lam_scale=0.0):
    tau = np.arange(tau_max + 1, dtype=float)
    vals = (np.exp(-rate * tau))[:, None, None] * np.eye(1)[None]
    lam = lam_scale * np.eye(1)
    vals = vals + lam[None]
    return ImpactKernel(delta=1.0, values=vals, lam=lam,
                        provenance="k1", grid=512)


def loop_symmetrized_transform(kernel, n_grid=None):
    """Reference reflection of the transient part, one lag at a time."""
    n = n_grid or kernel.grid
    trans = kernel.values - kernel.lam[None]
    support = trans.shape[0] - 1
    if 2 * support > n:
        n = 1 << (2 * support - 1).bit_length()
    x = np.zeros((n,) + trans.shape[1:])
    x[0] = trans[0]
    for t in range(1, support + 1):
        if 2 * t == n:
            x[t] += 0.5 * (trans[t] + trans[t].T)
        else:
            x[t] += trans[t]
            x[n - t] += trans[t].T
    return np.fft.fft(x, axis=0)


class TestValueAt:
    def test_matches_interp_per_entry(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(9, 2, 2))
        lam = rng.normal(size=(2, 2))
        k = ImpactKernel(delta=0.5, values=vals, lam=lam)
        tau = np.array([-0.3, 0.0, 0.25, 0.5, 1.7, 3.999, 4.0, 9.0])
        got = k.value_at(tau)
        assert got.shape == (tau.size, 2, 2)
        for i in range(2):
            for j in range(2):
                ref = np.interp(tau, 0.5 * np.arange(9), vals[:, i, j])
                ref[tau >= 4.0] = lam[i, j]     # plateau from the last lag
                ref[tau < 0] = 0.0
                assert np.allclose(got[:, i, j], ref, rtol=1e-14, atol=0)
        assert np.array_equal(k.value_at(1.7), got[4])


class TestSymmetrizedTransform:
    # (lags, kernel grid, n_grid): support below half the grid, at half,
    # at half after growing a too-small override, a larger override, and
    # an odd grid whose last lag is not the Nyquist lag
    @pytest.mark.parametrize("n_lags, grid, n_grid", [
        (64, 512, None), (256, 512, None), (64, 64, 64), (64, 512, 2048),
        (150, 301, None)])
    def test_matches_reflection_loop(self, n_lags, grid, n_grid):
        rng = np.random.default_rng(n_lags + grid)
        vals = rng.normal(size=(n_lags + 1, 2, 2))
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=rng.normal(size=(2, 2)), provenance="k1",
                         grid=grid)
        ref = loop_symmetrized_transform(k, n_grid)
        ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
        ref = ref[:ref.shape[0] // 2 + 1]
        got = symmetrized_transform(k, n_grid)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestRegularize:
    def test_fixed_point_when_already_admissible(self):
        k = decaying_kernel()
        rep = nsa_check(k)
        assert rep.verdict
        k2 = regularize_K2(k, n_grid=512)
        # values on the original support unchanged up to fft roundoff
        assert np.abs(k2.values[:65] - k.values).max() <= 1e-12
        assert np.abs(k2.values[65:] - k.lam[None]).max() <= 1e-12

    def test_idempotent(self):
        k1 = lead_lag_k1(128, [[1.0, 0.25], [0.25, 1.1]], a12=0.0, a21=0.12)
        k2 = regularize_K2(k1, n_grid=1024)
        k2b = regularize_K2(k2, n_grid=1024)
        scale = np.abs(k2.values).max()
        assert np.abs(k2b.values - k2.values).max() <= 1e-12 * scale
        assert np.array_equal(k2b.lam, k2.lam)

    def test_scalar_negative_dip_clips_pointwise(self):
        tau = np.arange(65, dtype=float)
        vals = (np.exp(-0.15 * tau)
                - 0.8 * np.exp(-0.5 * tau))[:, None, None]
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((1, 1)), provenance="k1", grid=512)
        z = symmetrized_transform(k, 512)[:, 0, 0].real
        assert z.min() < -1e-3    # the dip is real
        k2 = regularize_K2(k, n_grid=512)
        z2 = symmetrized_transform(k2, 512)[:, 0, 0].real
        assert np.abs(z2 - np.maximum(z, 0.0)).max() <= 1e-12
        # frobenius distance on the grid equals the clipped negative mass
        dist = np.sqrt(np.mean((z2 - z) ** 2))
        neg = np.sqrt(np.mean(np.minimum(z, 0.0) ** 2))
        assert dist == pytest.approx(neg, rel=1e-12)

    def test_post_clip_grid_positivity(self):
        k1 = lead_lag_k1(96, [[0.9, 0.2], [0.2, 1.0]], a12=0.0, a21=0.12)
        assert not nsa_check(k1).verdict    # the clip has work to do
        k2 = regularize_K2(k1, n_grid=1024)
        z = symmetrized_transform(k2, 1024)
        herm = 0.5 * (z + z.conj().transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(herm)
        scale = np.abs(eigs).max()
        assert eigs.min() >= -1e-10 * scale

    def test_diagnostics_are_k2s_own(self):
        # K1's diagnostics stay with K1; K2 reports its own tail error,
        # far below that of K1 cut at 16 lags (2.2e-2)
        k1 = lead_lag_k1(16, [[0.9, 0.2], [0.2, 1.0]], a12=0.0, a21=0.12)
        k2 = regularize_K2(k1, n_grid=1024)
        assert k2.diagnostics["tail_error"] == k2.tail_error()
        assert k2.tail_error() < 1e-3 * k1.diagnostics["tail_error"]
        assert set(k2.diagnostics) == {"spectral_distance_to_input",
                                       "tail_error"}

    def test_indefinite_lambda_projected_to_psd(self):
        # K1's Lambda is PSD by construction, so only a kernel given an
        # indefinite Lambda runs this branch: eigenvalues 1 and -0.5 in a
        # rotated basis become 1 and 0, not 1 and 0.5
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.array([[c, -s], [s, c]])
        lam = rot @ np.diag([1.0, -0.5]) @ rot.T
        k = ImpactKernel(delta=1.0, values=np.tile(lam, (9, 1, 1)),
                         lam=lam, provenance="analytic", grid=64)
        k2 = regularize_K2(k)
        want = rot @ np.diag([1.0, 0.0]) @ rot.T
        assert np.abs(k2.lam - want).max() <= 1e-14
        assert np.abs(k2.values - want).max() <= 1e-14
        assert nsa_check(k2).verdict

    def test_clip_is_frobenius_projection(self):
        # per-frequency convex oracle: no PSD candidate is closer
        rng = np.random.default_rng(17)
        for _ in range(4):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = 0.5 * (x + x.conj().T)
            w, v = np.linalg.eigh(h)
            clip = v @ np.diag(np.maximum(w, 0)) @ v.conj().T
            d_clip = np.linalg.norm(h - clip)

            def objective(p):
                l = np.array([[p[0], 0.0],
                               [p[1] + 1j * p[2], p[3]]])
                x_c = l @ l.conj().T
                return np.linalg.norm(h - x_c)

            best = np.inf
            for _ in range(8):
                res = optimize.minimize(objective, rng.normal(size=4),
                                        method="Nelder-Mead",
                                        options={"fatol": 1e-12,
                                                 "xatol": 1e-12,
                                                 "maxiter": 4000})
                best = min(best, res.fun)
            assert d_clip <= best + 1e-6


class TestNsaCheck:
    def test_bochner_positive_exponential_passes(self):
        k = decaying_kernel(rate=1.0)
        rep = nsa_check(k)
        assert rep.verdict
        assert rep.min_spectral_eig >= -1e-10

    def test_asymmetric_immediate_matrix_fails(self):
        tau = np.arange(17, dtype=float)
        base = np.exp(-0.3 * tau)
        vals = np.zeros((17, 2, 2))
        vals[:, 0, 0] = base
        vals[:, 1, 1] = base
        vals[:, 0, 1] = 0.5 * base
        vals[0, 0, 1] = 0.9    # asymmetric immediate matrix
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((2, 2)), provenance="k1", grid=256)
        rep = nsa_check(k)
        assert not rep.verdict
        assert rep.k0_symmetry > 1e-3

    def test_asymmetric_lambda_alone_fails(self):
        # K(0) symmetric, transient spectrum K(0) - sym(Lambda) positive
        # definite at every frequency, sym(Lambda) positive definite: only
        # Lambda's asymmetry fails the verdict
        lam = np.array([[1.0, 0.3], [-0.1, 1.0]])
        values = np.concatenate([[2.0 * np.eye(2)], np.tile(lam, (8, 1, 1))])
        rep = nsa_check(ImpactKernel(delta=1.0, values=values, lam=lam,
                                     provenance="k1", grid=64))
        assert rep.k0_symmetry == 0.0
        assert rep.min_spectral_eig > 0.0 and rep.lambda_min_eig > 0.0
        assert rep.lambda_symmetry > 0.1
        assert not rep.verdict
        sym = 0.5 * (lam + lam.T)
        values[1:] = sym
        assert nsa_check(ImpactKernel(delta=1.0, values=values, lam=sym,
                                      provenance="k1", grid=64)).verdict

    def test_martingale_kernel_fails_clipped_passes(self):
        # one-way lead-lag flow: min relative spectral eigenvalue -0.10
        k1 = lead_lag_k1(128, [[1.0, 0.25], [0.25, 1.1]], a12=0.0, a21=0.12)
        k2 = regularize_K2(k1, n_grid=1024)
        rep1 = nsa_check(k1)
        assert not rep1.verdict
        assert rep1.min_spectral_eig < -0.05
        assert nsa_check(k2).verdict


class TestSerialization:
    @pytest.mark.parametrize("provenance", ["k1", "k2"])
    def test_roundtrip(self, tmp_path, provenance):
        k = decaying_kernel(tau_max=16, lam_scale=0.3)
        if provenance == "k2":
            k = regularize_K2(k, n_grid=64)
        k.diagnostics["factor_residual"] = 1e-9
        k.diagnostics["nested"] = k.lam.tolist()
        save_kernel(tmp_path / "k", k)
        back = load_kernel(tmp_path / "k")
        assert np.array_equal(back.values, k.values)
        assert np.array_equal(back.k0, k.k0)
        assert np.array_equal(back.lam, k.lam)
        assert (back.delta, back.grid, back.provenance, back.tail_tol) == \
            (k.delta, k.grid, k.provenance, k.tail_tol)
        assert back.diagnostics == k.diagnostics
        assert back.diagnostics["factor_residual"] == 1e-9

    def test_npz_bytes_ignore_wall_clock(self, tmp_path, monkeypatch):
        k = regularize_K2(decaying_kernel(tau_max=16, lam_scale=0.3),
                          n_grid=64)
        save_kernel(tmp_path / "now", k)
        later = time.time() + 3 * 365 * 86400.0
        localtime = time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: localtime(
            later if secs is None else secs))
        save_kernel(tmp_path / "later", k)
        assert (tmp_path / "now" / "arrays.npz").read_bytes() == \
            (tmp_path / "later" / "arrays.npz").read_bytes()

    def test_npz_holds_values_and_lam(self, tmp_path):
        k = decaying_kernel(tau_max=16, lam_scale=0.3)
        save_kernel(tmp_path / "k", k)
        with np.load(tmp_path / "k" / "arrays.npz") as npz:
            assert sorted(npz.files) == ["lam", "values"]

    def test_k0_array_of_older_artifact_ignored(self, tmp_path):
        # an artifact that also stores k0 loads with k0 = values[0], even
        # where its stored k0 disagrees
        k = decaying_kernel(tau_max=16, lam_scale=0.3)
        save_kernel(tmp_path / "k", k)
        npz = tmp_path / "k" / "arrays.npz"
        np.savez(npz, values=k.values, k0=k.k0 + 1.0, lam=k.lam)
        back = load_kernel(tmp_path / "k")
        assert np.array_equal(back.k0, k.values[0])
        assert np.array_equal(back.values, k.values)

    def test_malformed_directory(self, tmp_path):
        with pytest.raises(KernelError):
            load_kernel(tmp_path)
