import csv
import json
import warnings

import numpy as np
import pytest

from crossimpact.formats import save_artifact
from crossimpact.hawkes import (EventStream, HawkesSpec, default_lambda,
                                event_pricer, simulate)
from crossimpact.kernels import compute_Lambda
from crossimpact.observables import (OMEGA_FLOOR, BinnedSeries,
                                     ObservableSet, ObservablesError,
                                     PricePath, bin_events,
                                     build_observables, estimate_omega,
                                     estimate_sigma, load_observables,
                                     omega_aggregates, save_observables,
                                     tapered_lags, taper_weights)
from crossimpact.polymat import spectrum_on_grid

import synthetic


def make_stream(times, assets, sides, sizes, horizon, d=2):
    return EventStream(times=np.asarray(times, dtype=float),
                       assets=np.asarray(assets), sides=np.asarray(sides),
                       sizes=np.asarray(sizes, dtype=float),
                       horizon=horizon, d=d)


def flat_prices(horizon, d=2, value=100.0):
    times = np.arange(0.0, horizon + 0.5, 0.5)
    return PricePath(times=times, prices=np.full((len(times), d), value))


class TestBinning:
    def test_single_buy_lands_in_bin(self):
        stream = make_stream([3.5], [0], [1], [2.0], horizon=6.0)
        series = bin_events(stream, flat_prices(6.0), 1.0)
        assert np.allclose(series.flows[3], [2.0, 0.0])
        assert series.flows.sum() == 2.0

    def test_no_events(self):
        stream = make_stream([], [], [], [], horizon=5.0)
        series = bin_events(stream, flat_prices(5.0), 1.0)
        assert series.flows.dtype == float
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
        net = np.bincount(assets, weights=sides * sizes, minlength=2)
        assert np.array_equal(series.flows.sum(axis=0), net)
        assert series.returns is None

    def test_scatter_matches_add_at(self):
        # one bincount over (bin, asset) adds each slot's terms in event
        # order, as np.add.at does: the same bits
        rng = np.random.default_rng(5)
        n = 3000
        times = np.sort(rng.uniform(0.0, 40.0, size=n))
        assets = rng.integers(0, 3, size=n)
        sides = rng.choice([-1, 1], size=n)
        sizes = rng.uniform(0.1, 3.0, size=n)
        stream = make_stream(times, assets, sides, sizes, horizon=40.0, d=3)
        want = np.zeros((40, 3))
        idx = np.clip(np.ceil(times).astype(int) - 1, 0, 39)
        np.add.at(want, (idx, assets), sides * sizes)
        got = bin_events(stream, None, 1.0).flows
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_empty_bins_carry_prices_forward(self):
        stream = make_stream([0.5], [0], [1], [1.0], horizon=4.0, d=1)
        prices = PricePath(times=np.array([0.0, 0.6]),
                           prices=np.array([[10.0], [11.0]]))
        series = bin_events(stream, prices, 1.0)
        # bin 0 moves 10 -> 11; bins 1..3 have no quotes: open == close
        # == last close, so zero return
        assert series.returns[0, 0] == 1.0
        assert np.all(series.returns[1:] == 0.0)

    def test_short_price_path_rejected(self):
        stream = make_stream([3.5], [0], [1], [1.0], horizon=6.0, d=1)
        short = PricePath(times=np.array([2.0]), prices=np.array([[1.0]]))
        with pytest.raises(ObservablesError):
            bin_events(stream, short, 1.0)

    def test_empty_window_rejected(self):
        stream = make_stream([], [], [], [], horizon=0.0)
        with pytest.raises(ObservablesError):
            bin_events(stream, None, 1.0)


    def test_price_path_of_another_width_rejected(self):
        stream = make_stream([3.5], [0], [1], [1.0], horizon=6.0)
        with pytest.raises(ObservablesError,
                           match="price path has 3 assets, but the event "
                                 "stream has 2"):
            bin_events(stream, flat_prices(6.0, d=3), 1.0)


def reference_returns(rows, d, delta, t_start, n_bins):
    """Bin returns by the per-asset scan that bin_events replaced: the
    long rows (time, asset, price), stably sorted by time, are selected
    by a mask per asset, and each asset's last price at or before each
    edge (its first before its first row) opens and closes the bins."""
    order = np.argsort(rows[:, 0], kind="stable")
    times, assets, prices = rows[order].T
    edges = t_start + delta * np.arange(n_bins + 1)
    at_edges = np.empty((n_bins + 1, d))
    for a in range(d):
        sel = assets == a
        ta, va = times[sel], prices[sel]
        pos = np.searchsorted(ta, edges, side="right") - 1
        at_edges[:, a] = va[np.clip(pos, 0, len(ta) - 1)]
    return at_edges[1:] - at_edges[:-1]


def price_rows(case, rng):
    """(times, assets, prices, d, t_start) of a long price file."""
    if case == "unsorted":
        d, n = 3, 60
        times = np.concatenate([np.zeros(d), rng.uniform(0, 20, n)])
        assets = np.concatenate([np.arange(d), rng.integers(0, d, n)])
        order = rng.permutation(n + d)
        return (times[order], assets[order], 100 + rng.normal(size=n + d),
                d, 0.0)
    if case == "repeated":
        # each (asset, time) on a 0.5 grid is listed up to three times
        d = 2
        times = np.tile(0.5 * np.arange(41), d)
        assets = np.repeat(np.arange(d), 41)
        dup = rng.integers(0, len(times), 60)
        times, assets = np.concatenate([times, times[dup]]), \
            np.concatenate([assets, assets[dup]])
        order = rng.permutation(len(times))
        return (times[order], assets[order],
                100 + rng.normal(size=len(times)), d, 0.0)
    if case == "late-first-row":
        # no row at the window start; asset 1 starts at 3.7
        times = np.concatenate([0.3 + np.arange(20.0), 3.7 + np.arange(17.0)])
        assets = np.repeat([0, 1], [20, 17])
        return times, assets, 100 + rng.normal(size=37), 2, 0.0
    if case == "on-edges":
        # every edge is a price time
        times = np.tile(0.5 * np.arange(41), 2)
        assets = np.repeat([0, 1], 41)
        return times, assets, 100 + rng.normal(size=82), 2, 0.0
    if case == "trim":
        d, n = 2, 80
        times = np.concatenate([np.zeros(d), rng.uniform(0, 20, n)])
        assets = np.concatenate([np.arange(d), rng.integers(0, d, n)])
        return times, assets, 100 + rng.normal(size=n + d), d, 2.5
    raise ValueError(case)


class TestBinningReference:
    # bin_events on the table from_csv builds equals, bit for bit, the
    # per-asset scan of the long rows
    @pytest.mark.parametrize("case", ["unsorted", "repeated",
                                      "late-first-row", "on-edges", "trim"])
    def test_file_matches_per_asset_scan(self, tmp_path, case):
        times, assets, prices, d, t_start = price_rows(
            case, np.random.default_rng(7))
        synthetic.write_price_csv(tmp_path / "p.csv", times, assets, prices)
        stream = make_stream([1.5], [d - 1], [1], [1.0], horizon=20.0, d=d)
        got = bin_events(stream, PricePath.from_csv(tmp_path / "p.csv"),
                         1.0, t_start=t_start, t_end=20.0 - t_start)
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)
        ref = reference_returns(rows, d, 1.0, t_start, got.n_bins)
        assert got.n_bins == int(20.0 - 2 * t_start)
        assert np.array_equal(got.returns, ref)
        assert np.abs(ref).max() > 0

    def test_wide_spec_day_matches_per_asset_scan(self, tmp_path):
        # a d = 20 day priced by the decay law at every event, in memory
        # and read back from its long price file
        d = 20
        A = 0.05 * np.eye(d) + 0.04 / d * (np.ones((d, d)) - np.eye(d))
        spec = synthetic.single_rate_spec(A, 0.25, np.full(d, 0.3))
        stream = simulate(spec, 100.0, seed=4)
        lam = default_lambda(spec, 1.0)
        path = event_pricer(spec, lam, np.full(d, 100.0))(stream)
        rows = np.column_stack([np.repeat(path.times, d),
                                np.tile(np.arange(d), len(path)),
                                path.prices.ravel()])
        ref = reference_returns(rows, d, 1.0, 0.0, 100)
        assert np.array_equal(bin_events(stream, path, 1.0).returns, ref)
        synthetic.write_price_csv(tmp_path / "p.csv", *rows.T)
        back = PricePath.from_csv(tmp_path / "p.csv")
        assert np.array_equal(bin_events(stream, back, 1.0).returns, ref)


class TestSigma:
    def test_constant_prices(self):
        # prices that never move give no impact to calibrate
        series = BinnedSeries(delta=1.0, flows=np.zeros((10, 2)),
                              returns=np.zeros((10, 2)))
        with pytest.raises(ObservablesError, match="zero trace"):
            estimate_sigma([series])

    def test_iid_unit_returns(self):
        rng = np.random.default_rng(1)
        r = rng.choice([-1.0, 1.0], size=(20000, 1))
        series = BinnedSeries(delta=1.0, flows=np.zeros((20000, 1)),
                              returns=r)
        sigma = estimate_sigma([series])
        assert sigma[0, 0] == pytest.approx(1.0, abs=0.05)

    def test_perfectly_correlated(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        r = np.stack([x, 2.0 * x], axis=1)
        series = BinnedSeries(delta=1.0, flows=np.zeros((400, 2)),
                              returns=r)
        sigma = estimate_sigma([series])
        corr = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        days = []
        for day in range(4):
            r = rng.normal(size=(300, 3))
            days.append(BinnedSeries(delta=1.0, flows=np.zeros((300, 3)),
                                     returns=r))
        sigma = estimate_sigma(days)
        assert np.abs(sigma - sigma.T).max() <= 1e-12 * np.abs(sigma).max()
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-10 * np.trace(sigma)

    def test_unbiased_per_day_average_exact(self):
        # each day's r^T r / (T - 1), averaged over days: every step is
        # exact in binary, so any other normalization moves a bit
        days = [BinnedSeries(delta=1.0, flows=np.zeros((len(r), 2)),
                             returns=np.array(r, dtype=float))
                for r in ([[1, 0], [-1, 2], [0, -2]], [[1, 1], [-1, -1]])]
        np.testing.assert_array_equal(estimate_sigma(days[:1]),
                                      [[1.0, -1.0], [-1.0, 4.0]])
        np.testing.assert_array_equal(estimate_sigma(days),
                                      [[1.5, 0.5], [0.5, 3.0]])

    def test_too_short_rejected(self):
        series = BinnedSeries(delta=1.0, flows=np.zeros((1, 1)),
                              returns=np.zeros((1, 1)))
        with pytest.raises(ObservablesError, match="day 0: 1 bins < 2"):
            estimate_sigma([series])

    def test_day_without_prices_rejected(self):
        days = [moving_day(10, 1),
                BinnedSeries(delta=1.0, flows=np.zeros((10, 2)))]
        with pytest.raises(ObservablesError,
                           match="day 1: binned without prices"):
            estimate_sigma(days)


def moving_day(n_bins, seed):
    rng = np.random.default_rng(seed)
    return BinnedSeries(delta=1.0, returns=rng.normal(size=(n_bins, 2)),
                        flows=rng.normal(size=(n_bins, 2)))


class TestShortDay:
    # a day that an estimator cannot use is refused by its position, so
    # that every day counted in n_days and n_bins is in sigma and omega
    @pytest.mark.parametrize("n_bins, tau_max, message", [
        (10, 16, "tau_max too large for day 1: 10 bins < 18"),
        (1, 4, "day 1: 1 bins < 2"),
    ])
    def test_short_second_day_refused(self, n_bins, tau_max, message):
        days = [moving_day(40, 1), moving_day(n_bins, 2)]
        with pytest.raises(ObservablesError, match=message):
            build_observables(days, tau_max)
        assert build_observables(days[:1], tau_max).n_bins == 40

    def test_mixed_bin_widths_refused(self):
        # a lag is one bin of day 0's width: a day binned at another width
        # would be pooled at the wrong lags
        days = [moving_day(40, 1), moving_day(40, 2), moving_day(40, 3)]
        days[2].delta = 5.0
        with pytest.raises(ObservablesError,
                           match="day 2: bin width 5, but day 0 has 1"):
            build_observables(days, 4)
        assert build_observables(days[:2], 4).delta == 1.0


class TestOmega:
    def test_poisson_flow(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0)
        days = []
        for day in range(10):
            stream = simulate(spec, 3000.0, seed=50 + day)
            days.append(bin_events(stream, None, 1.0))
        om = estimate_omega(days, 6)
        n = 10 * 3000
        assert om[0][0, 0] == pytest.approx(2.0, abs=4 * np.sqrt(8.0 / n))
        for tau in range(1, 7):
            assert abs(om[tau][0, 0]) < 4 * 2.0 / np.sqrt(n)

    def test_alternating_sequence_exact(self):
        T = 64
        q = np.cumprod(np.full(T, -1.0))[:, None]   # -1, +1, -1, ...
        series = BinnedSeries(delta=1.0, flows=q)
        om = estimate_omega([series], 5)
        for tau in range(6):
            expect = (-1.0) ** tau * (T - tau) / T
            assert om[tau][0, 0] == pytest.approx(expect, abs=1e-14)

    def test_matches_exact_lattice_covariance(self):
        spec, theta, lags = synthetic.coupled_instance(tau_max=4)
        days = []
        for day in range(10):
            stream = simulate(spec, 4000.0, seed=700 + day)
            days.append(bin_events(stream, None, 1.0))
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
        # refused, not dropped with a warning (warnings are errors here)
        series = BinnedSeries(delta=1.0, flows=np.ones((5, 1)))
        with pytest.raises(ObservablesError,
                           match="tau_max too large for day 0: 5 bins < 7"):
            estimate_omega([series], 5)


def untapered_sum(lags):
    """omega(0) + sum_tau (omega(tau) + omega(tau)^T) over every lag given,
    each weighed 1: the flow's zero-frequency covariance when the lags
    reach its memory."""
    return lags[0] + np.sum(lags[1:] + lags[1:].transpose(0, 2, 1), axis=0)


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
        inf = untapered_sum(lags)
        expect = synthetic.zero_frequency_covariance(A, beta, theta, [1.0])
        assert inf[0, 0] == pytest.approx(expect[0, 0], rel=1e-6)

    def test_bartlett_weights_and_their_omega_inf(self):
        # w_tau = 1 - tau / (tau_max + 1), exact in binary at tau_max 3;
        # unit lags then aggregate to 1 + 2 (3/4 + 1/2 + 1/4) = 4
        assert np.array_equal(taper_weights(3), [1.0, 0.75, 0.5, 0.25])
        _, inf = omega_aggregates(np.ones((4, 1, 1)))
        assert inf[0, 0] == 4.0

    def test_taper_off_vs_on_close_on_short_memory(self):
        A = np.array([[0.3]])
        beta = 1.5     # memory of about a bin
        theta = np.array([1.0])
        lags = synthetic.lattice_flow_covariance(A, beta, theta, [1.0], 128)
        raw = untapered_sum(lags)
        _, tapered = omega_aggregates(lags)
        assert abs(raw[0, 0] - tapered[0, 0]) / raw[0, 0] < 0.01

    @pytest.mark.parametrize("tau_max, d", [(6, 2), (64, 4), (128, 2),
                                            (64, 20)])
    def test_aggregate_equals_lag_loop(self, tau_max, d):
        # one sum along the lag axis adds in lag order, as the loop does
        q = np.random.default_rng(tau_max + d).standard_normal((400, d))
        q[1:] += 0.5 * q[:-1]
        om = estimate_omega([BinnedSeries(delta=1.0, flows=q)], tau_max)
        w = taper_weights(tau_max)
        agg = 0.5 * (om[0] + om[0].T)
        for tau in range(1, tau_max + 1):
            agg += w[tau] * (om[tau] + om[tau].T)
        agg = 0.5 * (agg + agg.T)
        zero, inf = omega_aggregates(om)
        assert np.array_equal(zero, 0.5 * (om[0] + om[0].T))
        assert np.array_equal(inf, agg)

    def test_indefinite_aggregate_rejected(self):
        om = np.zeros((2, 1, 1))
        om[0] = 1.0
        om[1] = -2.0
        with pytest.raises(ObservablesError):
            omega_aggregates(om)

    def test_tapered_spectrum_psd(self):
        spec, theta, lags = synthetic.coupled_instance(tau_max=16)
        days = []
        for day in range(4):
            stream = simulate(spec, 1500.0, seed=900 + day)
            days.append(bin_events(stream, None, 1.0))
        om = estimate_omega(days, 16)
        w = spectrum_on_grid(tapered_lags(om), 256)
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
            prices.prices += np.sin(prices.times + day)[:, None]
            days.append(bin_events(stream, prices, 1.0))
        obs = build_observables(days, 6)
        save_observables(tmp_path / "obs", obs)
        back = load_observables(tmp_path / "obs")
        assert np.array_equal(back.sigma, obs.sigma)
        assert np.array_equal(back.omega, obs.omega)
        assert np.array_equal(back.omega_zero, obs.omega_zero)
        assert np.array_equal(back.omega_inf, obs.omega_inf)
        assert back.delta == obs.delta
        assert back.n_days == obs.n_days == 3
        assert back.n_bins == obs.n_bins
        assert back.tau_max == obs.tau_max == 6

    def test_taper_key_of_older_artifact_ignored(self, tmp_path):
        # an artifact that also names its taper policy loads as one
        # without it, whatever the policy it names
        omega = np.stack([np.eye(2), 0.3 * np.eye(2)])
        zero, inf = omega_aggregates(omega)
        obs = ObservableSet(sigma=np.eye(2), omega=omega, omega_zero=zero,
                            omega_inf=inf, delta=1.0, n_days=1, n_bins=50)
        save_observables(tmp_path / "obs", obs)
        meta = tmp_path / "obs" / "meta.json"
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()),
                                        taper="none")))
        back = load_observables(tmp_path / "obs")
        assert vars(back).keys() == vars(obs).keys()
        assert all(np.array_equal(getattr(back, k), getattr(obs, k))
                   for k in vars(obs))

    def test_loaded_omega_inf_floored(self, tmp_path):
        # an artifact whose omega_inf was clipped at 0, as omega_aggregates
        # once left it, loads positive definite and gives a finite Lambda
        omega = np.stack([np.eye(2), np.zeros((2, 2))])
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        obs = ObservableSet(sigma=np.eye(2), omega=omega, omega_zero=omega[0],
                            omega_inf=singular, delta=1.0, n_days=1, n_bins=50)
        save_observables(tmp_path / "obs", obs)
        back = load_observables(tmp_path / "obs")
        assert np.linalg.eigvalsh(back.omega_inf).min() >= \
            (OMEGA_FLOOR - 1e-15) * 2.0
        assert np.all(np.isfinite(compute_Lambda(back)))

    @pytest.mark.parametrize("drop, message", [
        ("omega", "arrays.npz lacks 'omega'"),
        ("n_bins", "meta.json lacks 'n_bins'"),
    ])
    def test_missing_entry_names_file(self, tmp_path, drop, message):
        # unnamed, a missing array was a bare KeyError: 'omega'
        meta = {"delta": 1.0, "n_days": 1, "n_bins": 9}
        arrays = {name: np.zeros((1, 1)) for name in
                  ("sigma", "omega", "omega_zero", "omega_inf")}
        meta.pop(drop, None)
        arrays.pop(drop, None)
        save_artifact(tmp_path / "obs", meta, **arrays)
        with pytest.raises(ValueError) as info:
            load_observables(tmp_path / "obs")
        assert str(info.value) == f"{tmp_path / 'obs'}/{message}"

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
        times = np.repeat(np.cumsum(rng.exponential(size=n)), 2)
        assets = np.tile([0, 1], n)
        prices = 100.0 + rng.normal(size=2 * n)
        synthetic.write_price_csv(tmp_path / "got.csv", times, assets,
                                  prices)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "asset", "price"])
            for t, a, p in zip(times, assets, prices):
                writer.writerow([f"{t:.9f}", a, f"{p:.17g}"])
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        if n:   # test_header_only reads a file without rows
            back = PricePath.from_csv(tmp_path / "got.csv", d=2)
            assert np.array_equal(back.prices, prices.reshape(n, 2))

    def test_columns_by_name(self, tmp_path):
        (tmp_path / "p.csv").write_text("price,asset,time\n"
                                        "101.5,2,0.5\n99,0,0.75\n"
                                        "42,1,0.5\n")
        back = PricePath.from_csv(tmp_path / "p.csv")
        assert np.array_equal(back.times, [0.5, 0.75])
        # asset 0's first price stands in before its first row
        assert np.array_equal(back.prices, [[99.0, 42.0, 101.5]] * 2)
        assert back.d == 3

    def test_header_only(self, tmp_path):
        (tmp_path / "p.csv").write_text("time,asset,price\r\n")
        # refused, without numpy's empty-file warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ObservablesError,
                               match="no prices for asset 0"):
                PricePath.from_csv(tmp_path / "p.csv")
