import csv
import warnings

import numpy as np
import pytest

from crossimpact.hawkes import EventStream, HawkesSpec, simulate
from crossimpact.observables import (BinnedSeries, ObservablesError,
                                     PricePath, bin_events,
                                     build_observables, estimate_omega,
                                     estimate_sigma, load_observables,
                                     omega_aggregates, save_artifact,
                                     save_observables, tapered_lags)
from crossimpact.polymat import spectrum_on_grid

import synthetic


def make_stream(times, assets, sides, sizes, horizon, d=2):
    return EventStream(times=np.asarray(times, dtype=float),
                       assets=np.asarray(assets), sides=np.asarray(sides),
                       sizes=np.asarray(sizes, dtype=float),
                       horizon=horizon, d=d)


def flat_prices(horizon, d=2, value=100.0):
    times = np.arange(0.0, horizon + 0.5, 0.5)
    t = np.repeat(times, d)
    a = np.tile(np.arange(d), len(times))
    return PricePath(times=t, assets=a, prices=np.full(len(t), value), d=d)


class TestBinning:
    def test_single_buy_lands_in_bin(self):
        stream = make_stream([3.5], [0], [1], [2.0], horizon=6.0)
        series = bin_events(stream, flat_prices(6.0), 1.0)
        assert np.allclose(series.flows[3], [2.0, 0.0])
        assert series.flows.sum() == 2.0

    def test_no_events(self):
        stream = make_stream([], [], [], [], horizon=5.0)
        series = bin_events(stream, flat_prices(5.0), 1.0)
        assert np.all(series.flows == 0.0)
        assert np.all(series.returns == 0.0)

    def test_conservation(self):
        rng = np.random.default_rng(0)
        n = 200
        times = np.sort(rng.uniform(0.01, 9.99, size=n))
        assets = rng.integers(0, 2, size=n)
        sides = rng.choice([-1, 1], size=n)
        sizes = rng.integers(1, 5, size=n).astype(float)
        stream = make_stream(times, assets, sides, sizes, horizon=10.0)
        series = bin_events(stream, None, 1.0)
        assert np.array_equal(series.flows.sum(axis=0), stream.net_volume())

    def test_empty_bins_carry_prices_forward(self):
        stream = make_stream([0.5], [0], [1], [1.0], horizon=4.0, d=1)
        prices = PricePath(times=np.array([0.0, 0.6]),
                           assets=np.array([0, 0]),
                           prices=np.array([10.0, 11.0]), d=1)
        series = bin_events(stream, prices, 1.0)
        # bins 1..3 have no quotes: open == close == last close
        assert np.allclose(series.open_prices[1:, 0], 11.0)
        assert np.allclose(series.close_prices[1:, 0], 11.0)
        assert np.allclose(series.returns[1:], 0.0)

    def test_short_price_path_rejected(self):
        stream = make_stream([3.5], [0], [1], [1.0], horizon=6.0, d=1)
        short = PricePath(times=np.array([2.0]), assets=np.array([0]),
                          prices=np.array([1.0]), d=1)
        with pytest.raises(ObservablesError):
            bin_events(stream, short, 1.0)

    def test_empty_window_rejected(self):
        stream = make_stream([], [], [], [], horizon=0.0)
        with pytest.raises(ObservablesError):
            bin_events(stream, None, 1.0)


class TestSigma:
    def test_constant_prices(self):
        # prices that never move give no impact to calibrate
        series = BinnedSeries(delta=1.0,
                              open_prices=np.full((10, 2), 5.0),
                              close_prices=np.full((10, 2), 5.0),
                              flows=np.zeros((10, 2)))
        with pytest.raises(ObservablesError, match="zero trace"):
            estimate_sigma([series])

    def test_iid_unit_returns(self):
        rng = np.random.default_rng(1)
        r = rng.choice([-1.0, 1.0], size=(20000, 1))
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((20000, 1)),
                              close_prices=r, flows=np.zeros((20000, 1)))
        sigma = estimate_sigma([series])
        assert sigma[0, 0] == pytest.approx(1.0, abs=0.05)

    def test_perfectly_correlated(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        r = np.stack([x, 2.0 * x], axis=1)
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((400, 2)),
                              close_prices=r, flows=np.zeros((400, 2)))
        sigma = estimate_sigma([series])
        corr = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        days = []
        for day in range(4):
            r = rng.normal(size=(300, 3))
            days.append(BinnedSeries(delta=1.0,
                                     open_prices=np.zeros((300, 3)),
                                     close_prices=r,
                                     flows=np.zeros((300, 3)), day=day))
        sigma = estimate_sigma(days)
        assert np.abs(sigma - sigma.T).max() <= 1e-12 * np.abs(sigma).max()
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-10 * np.trace(sigma)

    def test_too_short_rejected(self):
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((1, 1)),
                              close_prices=np.zeros((1, 1)),
                              flows=np.zeros((1, 1)))
        with pytest.raises(ObservablesError):
            estimate_sigma([series])


class TestOmega:
    def test_poisson_flow(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0)
        days = []
        for day in range(10):
            stream = simulate(spec, 3000.0, seed=50 + day)
            days.append(bin_events(stream, None, 1.0, day=day))
        om = estimate_omega(days, 6)
        n = 10 * 3000
        assert om[0][0, 0] == pytest.approx(2.0, abs=4 * np.sqrt(8.0 / n))
        for tau in range(1, 7):
            assert abs(om[tau][0, 0]) < 4 * 2.0 / np.sqrt(n)

    def test_alternating_sequence_exact(self):
        T = 64
        q = np.cumprod(np.full(T, -1.0))[:, None]   # -1, +1, -1, ...
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((T, 1)),
                              close_prices=np.zeros((T, 1)), flows=q)
        om = estimate_omega([series], 5)
        for tau in range(6):
            expect = (-1.0) ** tau * (T - tau) / T
            assert om[tau][0, 0] == pytest.approx(expect, abs=1e-14)

    def test_matches_exact_lattice_covariance(self):
        spec, theta, lags = synthetic.coupled_instance(tau_max=4)
        days = []
        for day in range(10):
            stream = simulate(spec, 4000.0, seed=700 + day)
            days.append(bin_events(stream, None, 1.0, day=day))
        om = estimate_omega(days, 4)
        scale = np.abs(lags[0]).max()
        for tau in range(5):
            assert np.abs(om[tau] - lags[tau]).max() < 0.05 * scale

    def test_lag_symmetry(self):
        # the backward estimator on one window is the exact transpose of
        # the forward one (identical product sums), so the structural
        # negative-lag identity holds exactly; convergence to the true
        # lag matrix improves with the sample on a fixed seed
        spec, _, lags = synthetic.coupled_instance(tau_max=4)

        def fwd_estimate(horizon, seed):
            stream = simulate(spec, horizon, seed=seed)
            q = bin_events(stream, None, 1.0).flows
            n = q.shape[0]
            fwd = q[1:].T @ q[:n - 1] / n               # omega(1)
            bwd = q[:n - 1].T @ q[1:] / n               # omega(-1)
            assert np.abs(fwd - bwd.T).max() == 0.0
            return fwd

        truth = lags[1]
        short = np.linalg.norm(fwd_estimate(1500.0, 11) - truth)
        long = np.linalg.norm(fwd_estimate(24000.0, 11) - truth)
        assert long < short

    def test_tau_max_too_large(self):
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((5, 1)),
                              close_prices=np.zeros((5, 1)),
                              flows=np.ones((5, 1)))
        with pytest.warns(UserWarning):
            with pytest.raises(ObservablesError):
                estimate_omega([series], 5)


class TestAggregatesAndSpectrum:
    def test_white_flow_equals_atom(self):
        om = np.zeros((5, 2, 2))
        om[0] = np.diag([2.0, 1.0])
        z, inf = omega_aggregates(om)
        assert np.allclose(z, om[0])
        assert np.allclose(inf, om[0])

    def test_scalar_hawkes_matches_analytic_zero_frequency(self):
        A = np.array([[0.15]])
        beta = 0.5
        theta = np.array([1.0 / (1 - 0.3)])
        lags = synthetic.lattice_flow_covariance(A, beta, theta, [1.0], 200)
        _, inf = omega_aggregates(lags, taper="none")
        expect = synthetic.zero_frequency_covariance(A, beta, theta, [1.0])
        assert inf[0, 0] == pytest.approx(expect[0, 0], rel=1e-6)

    def test_taper_off_vs_on_close_on_short_memory(self):
        A = np.array([[0.3]])
        beta = 1.5     # memory of about a bin
        theta = np.array([1.0])
        lags = synthetic.lattice_flow_covariance(A, beta, theta, [1.0], 128)
        _, raw = omega_aggregates(lags, taper="none")
        _, tapered = omega_aggregates(lags, taper="bartlett")
        assert abs(raw[0, 0] - tapered[0, 0]) / raw[0, 0] < 0.01

    def test_indefinite_aggregate_rejected(self):
        om = np.zeros((2, 1, 1))
        om[0] = 1.0
        om[1] = -2.0
        with pytest.raises(ObservablesError):
            omega_aggregates(om, taper="none")

    def test_tapered_spectrum_psd(self):
        spec, theta, lags = synthetic.coupled_instance(tau_max=16)
        days = []
        for day in range(4):
            stream = simulate(spec, 1500.0, seed=900 + day)
            days.append(bin_events(stream, None, 1.0, day=day))
        om = estimate_omega(days, 16)
        w = spectrum_on_grid(tapered_lags(om, taper="bartlett"), 256)
        herm = 0.5 * (w + w.conj().transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(herm)
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec, theta, lags = synthetic.coupled_instance(tau_max=6)
        days = []
        for day in range(3):
            stream = simulate(spec, 800.0, seed=40 + day)
            prices = flat_prices(800.0)
            prices.prices += np.sin(prices.times + day)
            days.append(bin_events(stream, prices, 1.0, day=day))
        obs = build_observables(days, 6)
        save_observables(tmp_path / "obs", obs)
        back = load_observables(tmp_path / "obs")
        assert np.array_equal(back.sigma, obs.sigma)
        assert np.array_equal(back.omega, obs.omega)
        assert np.array_equal(back.omega_zero, obs.omega_zero)
        assert np.array_equal(back.omega_inf, obs.omega_inf)
        assert back.delta == obs.delta
        assert back.taper == obs.taper
        assert back.n_days == obs.n_days == 3
        assert back.n_bins == obs.n_bins
        assert back.tau_max == obs.tau_max == 6

    def test_stale_files_removed(self, tmp_path):
        # a directory written by the older per-lag CSV format keeps
        # nothing of it once an artifact is saved there
        target = tmp_path / "k2"
        target.mkdir()
        (target / "kernel_lag_0000.csv").write_text("0.5,0.0\n0.0,0.5\n")
        (target / "lambda.csv").write_text("1.0,0.0\n0.0,1.0\n")
        save_artifact(target, {"delta": 1.0}, values=np.zeros((2, 1, 1)))
        assert {p.name for p in target.iterdir()} == \
            {"arrays.npz", "meta.json"}


class TestPriceCsv:
    @pytest.mark.parametrize("n", [0, 700])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        path = PricePath(times=np.repeat(np.cumsum(rng.exponential(size=n)),
                                         2),
                         assets=np.tile([0, 1], n),
                         prices=100.0 + rng.normal(size=2 * n), d=2)
        path.to_csv(tmp_path / "got.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "asset", "price"])
            for t, a, p in zip(path.times, path.assets, path.prices):
                writer.writerow([f"{t:.9f}", a, f"{p:.17g}"])
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        back = PricePath.from_csv(tmp_path / "got.csv", d=2)
        assert np.array_equal(back.prices, path.prices)
        assert np.array_equal(back.assets, path.assets)

    def test_columns_by_name(self, tmp_path):
        (tmp_path / "p.csv").write_text("price,asset,time\n"
                                        "101.5,2,0.5\n99,0,0.75\n")
        back = PricePath.from_csv(tmp_path / "p.csv")
        assert np.array_equal(back.times, [0.5, 0.75])
        assert np.array_equal(back.assets, [2, 0])
        assert np.array_equal(back.prices, [101.5, 99.0])
        assert back.d == 3

    def test_header_only(self, tmp_path):
        (tmp_path / "p.csv").write_text("time,asset,price\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = PricePath.from_csv(tmp_path / "p.csv")
        assert len(back) == 0 and back.d == 1
