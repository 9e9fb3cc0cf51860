"""Acceptance suite: each test prints one PASS/FAIL line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are pinned here and match the package
configuration defaults where one exists.
"""
import time
import warnings

import numpy as np
import pytest
from scipy import optimize

from crossimpact import (arbitrage, cli, hawkes, kernels, observables,
                         polymat)

import synthetic


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def build_k1_quietly(obs, factor, **kwargs):
    """build_K1 with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernels.build_K1(obs, factor, **kwargs)


@pytest.fixture(scope="module")
def coupled_pipeline():
    """Lead-lag two-asset market, tau_max 256, Whittle factorization."""
    t0 = time.perf_counter()
    spec, theta, lags = synthetic.coupled_instance(tau_max=256)
    factor = synthetic.exact_factor(lags)
    elapsed = time.perf_counter() - t0
    obs = synthetic.observables_from_model(
        spec, np.array([[1.0, 0.25], [0.25, 1.1]]), 256)
    k1 = build_k1_quietly(obs, factor)
    k2 = kernels.regularize_K2(k1, n_grid=4096)
    return {"spec": spec, "lags": lags, "factor": factor,
            "elapsed": elapsed, "obs": obs, "k1": k1, "k2": k2}


@pytest.fixture(scope="module")
def consistent_pipeline():
    """Commuting coupled instance whose boundaries are exactly Kyle."""
    t0 = time.perf_counter()
    inst = synthetic.consistent_instance(beta=0.02, branch=0.5,
                                         tau_max=1600)
    factor = synthetic.exact_factor(inst.obs.omega)
    k1 = build_k1_quietly(inst.obs, factor)
    elapsed = time.perf_counter() - t0
    return {"inst": inst, "factor": factor, "k1": k1, "elapsed": elapsed}


def test_criterion_spectral_factorization_residual(coupled_pipeline):
    factor = coupled_pipeline["factor"]
    elapsed = coupled_pipeline["elapsed"]
    ok = factor.residual <= 1e-6 and elapsed < 60.0
    report("spectral factorization residual",
           ok, f"residual {factor.residual:.2e} (<= 1e-6), "
               f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_minimum_phase(coupled_pipeline):
    factor = coupled_pipeline["factor"]
    c = factor.inverse[0]
    phi = -np.linalg.solve(c[None], factor.inverse[1:])
    p, d, _ = phi.shape
    companion = np.zeros((p * d, p * d))
    companion[:d] = np.concatenate(list(phi), axis=1)
    companion[d:, :-d] = np.eye((p - 1) * d)
    radius = np.abs(np.linalg.eigvals(companion)).max()
    lower = np.array_equal(c, np.tril(c)) and np.all(np.diag(c) > 0)
    ok = p > 0 and radius < 1.0 and lower
    report("minimum phase of the factor",
           ok, f"AR order {p}, companion spectral radius {radius:.4f} "
               f"(< 1), lag-0 inverse lower triangular with a positive "
               f"diagonal: {lower}")


def test_criterion_diagonality_of_d(coupled_pipeline):
    # the factor whitens R: D = L^{-1} R L^{-H} is the identity on the grid
    n = 4096
    r = polymat.spectrum_on_grid(coupled_pipeline["lags"], n)
    inv = np.fft.rfft(coupled_pipeline["factor"].inverse, n, axis=0)
    d = inv @ r @ inv.conj().transpose(0, 2, 1)
    dia = np.einsum("wii->wi", d)
    off = d * (1.0 - np.eye(d.shape[1]))
    off_mass = np.linalg.norm(off) / np.linalg.norm(dia)
    unit = np.abs(dia - 1.0).max()
    ok = off_mass <= 1e-10 and unit <= 1e-9
    report("diagonality of the whitened spectrum D",
           ok, f"off-diagonal mass {off_mass:.2e} (<= 1e-10), "
               f"diagonal within {unit:.2e} of 1 (<= 1e-9)")


def test_criterion_kyle_identity():
    rng = np.random.default_rng(20240808)
    worst_resid, worst_inv = 0.0, 0.0
    count = 0
    for d in (1, 2, 3, 5):
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            sigma = q @ np.diag(np.exp(rng.uniform(-2.3, 2.3, d))) @ q.T
            q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
            c = q2 @ np.diag(np.exp(rng.uniform(-2.3, 2.3, d))) @ q2.T
            m = kernels.kyle_matrix(sigma, c)
            assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
            assert np.linalg.eigvalsh(m).min() >= -1e-10 * np.abs(m).max()
            resid = np.abs(m @ c @ m.T - 0.5 * sigma).max() \
                / np.abs(sigma).max()
            worst_resid = max(worst_resid, resid)
            w, v = np.linalg.eigh(c)
            root = v @ np.diag(np.sqrt(w)) @ v.T
            inner = root.T @ sigma @ root
            wi, vi = np.linalg.eigh(0.5 * (inner + inner.T))
            sq = vi @ np.diag(np.sqrt(np.maximum(wi, 0))) @ vi.T
            ri = np.linalg.inv(root)
            m2 = ri.T @ sq @ ri / np.sqrt(2.0)
            worst_inv = max(worst_inv,
                            np.abs(m - m2).max() / np.abs(m).max())
            count += 1
    # independent nonlinear-solve oracle at d = 2
    oracle_dev, solved = 0.0, 0
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        sigma = q @ np.diag(np.exp(rng.uniform(-1, 1, 2))) @ q.T
        q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        c = q2 @ np.diag(np.exp(rng.uniform(-1, 1, 2))) @ q2.T
        m = kernels.kyle_matrix(sigma, c)

        def eqs(p):
            mm = np.array([[p[0], p[1]], [p[1], p[2]]])
            r = mm @ c @ mm.T - 0.5 * sigma
            return [r[0, 0], r[0, 1], r[1, 1]]

        start = [np.sqrt(sigma[0, 0] / (2 * c[0, 0])), 0.0,
                 np.sqrt(sigma[1, 1] / (2 * c[1, 1]))]
        sol = optimize.fsolve(eqs, start, xtol=1e-13)
        mm = np.array([[sol[0], sol[1]], [sol[1], sol[2]]])
        if np.linalg.eigvalsh(mm).min() >= 0 and \
                np.abs(eqs(sol)).max() < 1e-10:
            solved += 1
            oracle_dev = max(oracle_dev,
                             np.abs(mm - m).max() / np.abs(m).max())
    ok = (count == 100 and worst_resid <= 1e-10 and worst_inv <= 1e-10
          and solved >= 7 and oracle_dev <= 1e-8)
    report("kyle matrix identity",
           ok, f"{count} instances, worst identity residual "
               f"{worst_resid:.2e} (<= 1e-10), factorization invariance "
               f"{worst_inv:.2e} (<= 1e-10), oracle deviation "
               f"{oracle_dev:.2e} on {solved} solves (<= 1e-8)")


def test_criterion_analytic_oracle(consistent_pipeline):
    inst = consistent_pipeline["inst"]
    k1 = consistent_pipeline["k1"]
    elapsed = consistent_pipeline["elapsed"]
    truth = inst.closed_form_kernel(np.arange(1601))
    dev = np.abs(k1.values - truth).max() / np.abs(truth).max()
    ok = dev <= 1e-4 and elapsed < 30.0
    report("end-to-end analytic oracle",
           ok, f"kernel deviation {dev:.2e} (<= 1e-4), "
               f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_martingale_desk_check(consistent_pipeline):
    inst = consistent_pipeline["inst"]
    k1 = consistent_pipeline["k1"]
    # four components at stationary intensity 1 expect 4 x horizon =
    # 1.04e6 events, about 23 standard deviations (1.7e3) above the 10**6
    # floor; a horizon of 250000 would put the floor at the mean
    horizon = 260000.0
    stream = hawkes.simulate(inst.spec, horizon, seed=2024)
    flows = observables.bin_events(stream, None, 1.0)
    path = arbitrage.predict_prices(k1, flows, np.zeros(2))
    r = np.diff(path, axis=0)
    n = r.shape[0]
    band = 4.0 / np.sqrt(n)
    worst = 0.0
    for i in range(2):
        x = r[:, i] - r[:, i].mean()
        denom = float(x @ x)
        for tau in range(1, 21):
            worst = max(worst, abs(float(x[tau:] @ x[:-tau]) / denom))
    ok = len(stream) >= 10 ** 6 and worst <= band
    report("martingale desk check",
           ok, f"{len(stream)} events, worst |autocorr| {worst:.4f} over "
               f"lags 1..20 within 4/sqrt(n) = {band:.4f}")


def test_criterion_arbitrage_detection(coupled_pipeline):
    m = np.array([[0.5, 0.35], [0.25, 0.5]])   # M_pq - M_qp = 0.1
    vals = np.tile(m, (9, 1, 1))
    const = kernels.ImpactKernel(delta=1.0, values=vals,
                                 lam=m.copy(), provenance="analytic",
                                 grid=256)
    vp, vq, T = 1.3, 0.7, 3.0
    strat = arbitrage.pair_trading_strategy(0, 1, vp, vq, T)
    got = arbitrage.cost(strat, const).total
    expect = T ** 2 / 18.0 * (m[0, 1] - m[1, 0]) * vp * vq
    pair_ok = abs(got - expect) <= 1e-8 * abs(expect)
    value, witness, info = arbitrage.min_roundtrip_cost(const, 9, T)
    cert_ok = value < 0 and witness.is_round_trip
    k2 = coupled_pipeline["k2"]
    worst_rel = 0.0
    for n in (4, 8, 16):
        for horizon in (1.0, 10.0):
            v, _, inf = arbitrage.min_roundtrip_cost(k2, n, horizon)
            rel = v / (inf["gram_norm"] * inf["step"] ** 2)
            worst_rel = min(worst_rel, rel)
    clip_ok = worst_rel >= -1e-8
    ok = pair_ok and cert_ok and clip_ok
    report("arbitrage detection",
           ok, f"pair cost {got:.6e} vs closed form {expect:.6e} (1e-8), "
               f"certificate {value:.3e} < 0, clipped-kernel worst "
               f"roundtrip {worst_rel:.2e} of gram scale (>= -1e-8)")


def test_criterion_clipping_correctness(coupled_pipeline):
    k1 = coupled_pipeline["k1"]
    k2 = coupled_pipeline["k2"]
    k2b = kernels.regularize_K2(k2, n_grid=4096)
    scale = np.abs(k2.values).max()
    idem = np.abs(k2b.values - k2.values).max() / scale
    z = kernels.symmetrized_transform(k2, 4096)
    herm = 0.5 * (z + z.conj().transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(herm)
    min_eig_rel = eigs.min() / np.abs(eigs).max()
    tau = np.arange(65, dtype=float)
    svals = (np.exp(-0.15 * tau) - 0.8 * np.exp(-0.5 * tau))[:, None, None]
    scal = kernels.ImpactKernel(delta=1.0, values=svals,
                                lam=np.zeros((1, 1)), provenance="k1",
                                grid=512)
    zs = kernels.symmetrized_transform(scal, 512)[:, 0, 0].real
    z2 = kernels.symmetrized_transform(
        kernels.regularize_K2(scal, n_grid=512), 512)[:, 0, 0].real
    dip_dev = np.abs(z2 - np.maximum(zs, 0.0)).max()
    ok = idem <= 1e-12 and min_eig_rel >= -1e-10 and dip_dev <= 1e-12
    report("clipping correctness",
           ok, f"idempotency {idem:.2e} (<= 1e-12), post-clip min "
               f"eigenvalue {min_eig_rel:.2e} of scale at 4096 "
               f"frequencies (>= -1e-10), scalar dip deviation "
               f"{dip_dev:.2e} (<= 1e-12)")


def test_criterion_estimator_consistency():
    spec, theta, lags_exact = synthetic.coupled_instance(tau_max=128)
    series = []
    for day in range(50):
        st = hawkes.simulate(spec, 4000.0, seed=5000 + day)
        series.append(observables.bin_events(st, None, 1.0))
    om = observables.estimate_omega(series, 128)
    est = polymat.spectrum_on_grid(
        observables.tapered_lags(om), 4096)
    grid = 2 * np.pi * np.arange(2049) / 4096
    target = synthetic.analytic_flow_spectrum(spec, grid)
    rel = np.linalg.norm(est - target, axis=(1, 2)) \
        / np.linalg.norm(target, axis=(1, 2))
    hawkes_ok = rel.max() <= 0.10
    # poisson flow: lagged covariances sit inside 4-sigma bands of zero
    spec_p = hawkes.HawkesSpec.from_matrices(mu=[1.0, 0.7],
                                             sizes=[1.0, 1.0], beta=1.0)
    series_p = []
    for day in range(20):
        st = hawkes.simulate(spec_p, 3000.0, seed=900 + day)
        series_p.append(observables.bin_events(st, None, 1.0))
    om_p = observables.estimate_omega(series_p, 32)
    nbins = 20 * 3000
    sd = np.sqrt(np.outer(np.diag(om_p[0]), np.diag(om_p[0])) / nbins)
    worst_z = max(np.abs(om_p[tau] / sd).max() for tau in range(1, 33))
    poisson_ok = worst_z < 4.0
    ok = hawkes_ok and poisson_ok
    report("estimator consistency",
           ok, f"max spectral relative error {rel.max():.3f} over all "
               f"frequencies (<= 0.10), poisson worst lag z-score "
               f"{worst_z:.2f} (< 4)")


def test_criterion_liquidity_ordering():
    spec, obs = synthetic.liquidity_contrast_instance(ratio=10.0,
                                                      correlation=0.9)
    corr = obs.sigma[0, 1] / np.sqrt(obs.sigma[0, 0] * obs.sigma[1, 1])
    k0 = kernels.compute_K0(obs)
    lam = kernels.compute_Lambda(obs)
    ok = (k0[0, 0] < k0[1, 1]
          and lam[0, 0] <= k0[0, 0] and lam[1, 1] <= k0[1, 1]
          and k0[0, 1] > 0 and k0[1, 0] > 0
          and lam[0, 1] > 0 and lam[1, 0] > 0)
    report("liquidity ordering",
           ok, f"corr {corr:.2f}, immediate diag ({k0[0, 0]:.3f}, "
               f"{k0[1, 1]:.3f}) ordered, permanent diag ({lam[0, 0]:.3f}, "
               f"{lam[1, 1]:.3f}) below immediate, off-diagonals positive")


def test_criterion_pipeline_reproducibility(tmp_path):
    def run(out):
        cfg = cli.demo_config(seed=7, output_dir=str(out))
        t0 = time.perf_counter()
        rc = cli.cmd_demo(cfg, out)
        return rc, time.perf_counter() - t0

    rc1, t1 = run(tmp_path / "demo_a")
    rc2, t2 = run(tmp_path / "demo_b")

    def kernel_bytes(base):
        out = {}
        for sub in ("k1", "k2"):
            for f in sorted((base / sub).rglob("*")):
                if f.is_file():
                    out[f"{sub}/{f.name}"] = f.read_bytes()
        return out

    b1 = kernel_bytes(tmp_path / "demo_a")
    b2 = kernel_bytes(tmp_path / "demo_b")
    identical = b1.keys() == b2.keys() and all(b1[k] == b2[k] for k in b1)
    ok = rc1 == 0 and rc2 == 0 and identical and max(t1, t2) < 300.0
    report("pipeline reproducibility",
           ok, f"two demo runs byte-identical over {len(b1)} kernel "
               f"files, runtimes {t1:.0f}s / {t2:.0f}s (< 300s)")


# the held-out score of the generator on the symmetric two-asset spec
# below: 0.0038-0.0048 at the 20 seeds of SWEEP_order.json's
# item1:2:80000 cell
GENERATOR_HOLDOUT_BOUND = 0.006


def test_criterion_holdout_generator():
    # on two days it never saw, the generating kernel sampled at the cell
    # midpoints (n + 1/2) leaves under 0.6 % of the return variance
    # unexplained, and less than the same kernel sampled at n
    a = np.array([[0.08, 0.04], [0.04, 0.08]])
    spec = synthetic.single_rate_spec(a, 0.25, np.full(2, 0.5))
    lam = hawkes.default_lambda(spec, 1.0)
    pricer = hawkes.event_pricer(spec, lam, 0.0)
    days = []
    for seed in (20_000, 20_001):
        stream = hawkes.simulate(spec, 2000.0, seed)
        days.append(observables.bin_events(stream, pricer(stream), 1.0))
    mid, edge = (synthetic.holdout_score(
        synthetic.generator_kernel(spec, lam, 128, offset), days)
        for offset in (0.5, 0.0))
    report("held-out score of the generator",
           mid < GENERATOR_HOLDOUT_BOUND and mid < edge,
           f"1 - R^2 {mid:.4f} at (n + 1/2), {edge:.4f} at n, bound "
           f"{GENERATOR_HOLDOUT_BOUND}")
