import csv
import warnings

import numpy as np
import pytest
from scipy import stats

from crossimpact import hawkes
from crossimpact.hawkes import (EventStream, HawkesError, HawkesSpec,
                                analytic_flow_spectrum, analytic_kernel,
                                imbalance_l1, simulate, stationary_intensity,
                                validate_spec)


def poisson_spec(mu=(1.0, 1.0), sizes=(1.0, 1.0)):
    return HawkesSpec.from_matrices(mu=list(mu), sizes=list(sizes), beta=1.0)


def scalar_hawkes(alpha=0.5, beta=1.0, mu=1.0, size=1.0):
    return HawkesSpec.from_matrices(mu=[mu], sizes=[size], beta=beta,
                                    aa=[[alpha * beta]], bb=[[alpha * beta]])


DEMO_A = [[0.06, 0.02], [0.035, 0.08]]
TAPE_A = 0.15 * np.eye(4) + 0.03 * (1.0 - np.eye(4))


FAST, SLOW = 2.0, 0.05
CROSS_SAME = [[[(0.3, FAST), (0.01, SLOW)], [(0.1, FAST)]],
              [[(0.02, SLOW)], [(0.4, FAST)]]]
CROSS_AB = [[[(0.4, FAST)], []], [[], []]]


def cross_spec():
    """Two assets, decay rates 2 and 0.05, and nonzero ab/ba blocks."""
    return HawkesSpec.from_blocks(
        mu=[0.5, 0.3], sizes=[1.0, 3.0],
        blocks={"aa": CROSS_SAME, "bb": CROSS_SAME,
                "ab": CROSS_AB, "ba": CROSS_AB})


MARKETS = {
    "demo": lambda: HawkesSpec.from_matrices(
        mu=[0.6, 0.45], sizes=[1.0, 2.0], beta=0.25, aa=DEMO_A, bb=DEMO_A),
    "tape": lambda: HawkesSpec.from_matrices(
        mu=[0.4] * 4, sizes=[1.0] * 4, beta=0.5, aa=TAPE_A, bb=TAPE_A),
    "cross": cross_spec,
}


def components(stream):
    return np.where(stream.sides > 0, 0, stream.d) + stream.assets


def rescaled_gaps(spec, stream):
    """Compensator increments between consecutive events of each component
    (from 0 to the first); under the true law they are iid Exp(1)."""
    alphas, betas, src, tgt = spec.alpha, spec.beta, spec.source, \
        spec.target
    mu = np.concatenate([spec.mu, spec.mu])
    state = np.zeros(len(alphas))      # sum alpha exp(-beta (t - t_m))
    comp_int = np.zeros(2 * spec.d)    # compensator of each component
    last = np.zeros(2 * spec.d)
    gaps, prev = [], 0.0
    for t, c in zip(stream.times, components(stream)):
        decay = np.exp(-betas * (t - prev))
        comp_int += mu * (t - prev)
        np.add.at(comp_int, tgt, state * (1.0 - decay) / betas)
        state *= decay
        gaps.append(comp_int[c] - last[c])
        last[c] = comp_int[c]
        state[src == c] += alphas[src == c]
        prev = t
    return np.asarray(gaps)


def thinning_simulate(spec, horizon, seed):
    """Components of the events drawn by Ogata thinning, in time order.

    One Python step per candidate; the exponential states make the
    dominating intensity exact between candidates, so this reference is
    exact in law too, by a different construction.
    """
    rng = np.random.default_rng(seed)
    d = spec.d
    alphas, betas, src, tgt = spec.alpha, spec.beta, spec.source, \
        spec.target
    mu = np.concatenate([spec.mu, spec.mu])
    state = np.zeros(len(alphas))
    t, comps = 0.0, []
    while True:
        bound = mu.sum() + state.sum()
        w = rng.exponential(1.0 / bound)
        if t + w > horizon:
            break
        t += w
        state *= np.exp(-betas * w)
        lam = mu.copy()
        np.add.at(lam, tgt, state)
        if rng.uniform() * bound <= lam.sum():
            c = min(int(np.searchsorted(np.cumsum(lam),
                                        rng.uniform() * lam.sum())),
                    2 * d - 1)
            comps.append(c)
            state[src == c] += alphas[src == c]
    return np.asarray(comps, dtype=int)


class TestValidate:
    def test_no_excitation_passes(self):
        rep = validate_spec(poisson_spec())
        assert rep.ok
        assert rep.spectral_radius == 0.0

    def test_unstable_branching(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.2]])
        rep = validate_spec(spec)
        assert not rep.stable

    def test_symmetric_self_excitation_radius(self):
        # brute force: eigenvalues of the 2x2 matrix of integrated kernels
        spec = scalar_hawkes(alpha=0.5)
        rep = validate_spec(spec)
        assert rep.ok
        full = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert rep.spectral_radius == pytest.approx(
            np.abs(np.linalg.eigvals(full)).max(), abs=1e-12)
        assert rep.spectral_radius == pytest.approx(0.5, abs=1e-12)

    def test_unbalanced_blocks_flagged(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[0.3]], bb=[[0.2]])
        rep = validate_spec(spec)
        assert not rep.balanced
        assert not rep.martingale_compatible

    def test_compatible_cross_terms(self):
        # aa - ba == bb - ab term by term
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=2.0,
                                        aa=[[0.6]], ba=[[0.2]],
                                        bb=[[0.7]], ab=[[0.3]])
        rep = validate_spec(spec)
        assert rep.martingale_compatible
        assert rep.balanced

    def test_bad_parameters_rejected(self):
        with pytest.raises(HawkesError):
            HawkesSpec(mu=np.array([-1.0]), sizes=np.array([1.0]))
        with pytest.raises(HawkesError):
            HawkesSpec.from_blocks(mu=[1.0], sizes=[1.0],
                                   blocks={"aa": [[[(0.1, -1.0)]]]})

    def test_compatibility_compares_each_rate(self):
        # equal integrals and equal alpha sums, at different decay rates:
        # balanced, but bb - ab and aa - ba differ as functions of time
        spec = HawkesSpec.from_blocks(mu=[1.0], sizes=[1.0], blocks={
            "aa": [[[(0.2, 1.0), (0.4, 4.0)]]], "bb": [[[(0.6, 2.0)]]]})
        rep = validate_spec(spec)
        assert rep.balanced
        assert not rep.martingale_compatible


class TestFromBlocks:
    def test_cross_spec_table(self):
        # (alpha, beta, target, source), components side * d + asset with
        # buys first: by block aa, ab, ba, bb, then row-major, then listed
        table = [(0.3, FAST, 0, 0), (0.01, SLOW, 0, 0), (0.1, FAST, 0, 1),
                 (0.02, SLOW, 1, 0), (0.4, FAST, 1, 1),
                 (0.4, FAST, 0, 2),
                 (0.4, FAST, 2, 0),
                 (0.3, FAST, 2, 2), (0.01, SLOW, 2, 2), (0.1, FAST, 2, 3),
                 (0.02, SLOW, 3, 2), (0.4, FAST, 3, 3)]
        spec = cross_spec()
        got = list(zip(spec.alpha.tolist(), spec.beta.tolist(),
                       spec.target.tolist(), spec.source.tolist()))
        assert got == table

    def test_cross_spec_imbalance_rows(self):
        # bb - ab per (i, j, beta): the ab term merges into bb's (0, 0, FAST)
        rows = [(0, 0, FAST, 0.3 - 0.4), (0, 0, SLOW, 0.01),
                (0, 1, FAST, 0.1), (1, 0, SLOW, 0.02), (1, 1, FAST, 0.4)]
        assert cross_spec().imbalance_terms().tolist() == \
            [list(map(float, r)) for r in rows]

    def test_from_matrices_table(self):
        # zero entries carry no term; the rest are tabled as by from_blocks
        aa = [[0.06, 0.0], [0.035, 0.08]]
        ab = [[0.0, 0.01], [0.0, 0.0]]
        spec = HawkesSpec.from_matrices(mu=[1.0, 1.0], sizes=[1.0, 2.0],
                                        beta=0.5, aa=aa, ab=ab, ba=ab, bb=aa)
        table = [(0.06, 0, 0), (0.035, 1, 0), (0.08, 1, 1), (0.01, 0, 3),
                 (0.01, 2, 1), (0.06, 2, 2), (0.035, 3, 2), (0.08, 3, 3)]
        got = list(zip(spec.alpha.tolist(), spec.target.tolist(),
                       spec.source.tolist()))
        assert got == table
        assert spec.beta.tolist() == [0.5] * len(table)

    @pytest.mark.parametrize("blocks", [
        {"aa": [[[(0.1, 1.0)]]]},                        # 1 x 1 of 2 x 2
        {"ab": [[[], []], [[]]]},                        # short row
        {"bb": [[[(0.1, 0.0)], []], [[], []]]},          # beta = 0
        {"ba": [[[(-0.1, 1.0)], []], [[], []]]},         # alpha < 0
        {"AB": [[[], []], [[], []]]},                    # unknown key
    ])
    def test_malformed_blocks_rejected(self, blocks):
        with pytest.raises(HawkesError):
            HawkesSpec.from_blocks(mu=[1.0, 1.0], sizes=[1.0, 1.0],
                                   blocks=blocks)

    def test_unequal_term_columns_rejected(self):
        with pytest.raises(HawkesError, match="equal length"):
            HawkesSpec(mu=[1.0], sizes=[1.0], alpha=[0.1, 0.2], beta=[1.0],
                       target=[0, 1], source=[0, 1])


class TestStationaryIntensity:
    def test_poisson(self):
        theta = stationary_intensity(poisson_spec(mu=(1.5, 0.7)))
        assert np.allclose(theta, [1.5, 0.7])

    def test_scalar_fixed_point(self):
        theta = stationary_intensity(scalar_hawkes(alpha=0.5, mu=1.0))
        assert theta[0] == pytest.approx(2.0, rel=1e-12)

    def test_unstable_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.2]])
        with pytest.raises(HawkesError):
            stationary_intensity(spec)

    def test_matches_simulated_rate(self):
        spec = scalar_hawkes(alpha=0.4, mu=0.8)
        theta = stationary_intensity(spec)[0]
        horizon = 20000.0
        stream = simulate(spec, horizon, seed=5)
        buys = (stream.sides > 0).sum()
        # Hawkes counts are overdispersed; allow 6 Poisson sigmas
        assert abs(buys / horizon - theta) < 6 * np.sqrt(theta / horizon)


class TestSimulate:
    def test_poisson_count(self):
        spec = HawkesSpec.from_matrices(mu=[2.0], sizes=[1.0], beta=1.0)
        stream = simulate(spec, 1000.0, seed=42)
        buys = (stream.sides > 0).sum()
        assert abs(buys - 2000.0) < 4 * np.sqrt(2000.0)

    def test_deterministic(self):
        spec = scalar_hawkes()
        s1 = simulate(spec, 500.0, seed=9)
        s2 = simulate(spec, 500.0, seed=9)
        assert np.array_equal(s1.times, s2.times)
        assert np.array_equal(s1.assets, s2.assets)
        assert np.array_equal(s1.sides, s2.sides)

    def test_zero_alpha_terms_draw_nothing(self):
        # a listed zero term is tabled but not sampled: same draws as
        # the spec without it
        padded = [[row + [(0.0, SLOW)] for row in block]
                  for block in CROSS_SAME]
        spec = HawkesSpec.from_blocks(
            mu=[0.5, 0.3], sizes=[1.0, 3.0],
            blocks={"aa": padded, "bb": CROSS_SAME, "ab": CROSS_AB,
                    "ba": CROSS_AB})
        assert len(spec.alpha) == len(cross_spec().alpha) + 4
        a = simulate(spec, 300.0, seed=4)
        b = simulate(cross_spec(), 300.0, seed=4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.assets, b.assets)
        assert np.array_equal(a.sides, b.sides)

    def test_unstable_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.5]])
        with pytest.raises(HawkesError):
            simulate(spec, 10.0, seed=0)

    def test_sizes_match_spec(self):
        spec = HawkesSpec.from_matrices(mu=[1.0, 1.0], sizes=[2.0, 5.0],
                                        beta=1.0)
        stream = simulate(spec, 200.0, seed=1)
        assert np.all(stream.sizes == spec.sizes[stream.assets])

    def test_buy_sell_balance(self):
        spec = scalar_hawkes(alpha=0.3, mu=1.0)
        stream = simulate(spec, 10000.0, seed=17)
        buys = (stream.sides > 0).sum()
        sells = (stream.sides < 0).sum()
        n = buys + sells
        # two-sided binomial test at 4 sigma
        assert abs(buys - sells) < 4 * np.sqrt(n)

    def test_zero_horizon(self):
        stream = simulate(poisson_spec(), 0.0, seed=0)
        assert len(stream) == 0

    def test_csv_roundtrip(self, tmp_path):
        spec = HawkesSpec.from_matrices(mu=[1.0, 0.5], sizes=[1.0, 3.0],
                                        beta=1.0)
        stream = simulate(spec, 100.0, seed=3)
        path = tmp_path / "events.csv"
        stream.to_csv(path)
        back = EventStream.from_csv(path, d=2, horizon=100.0)
        assert np.allclose(back.times, stream.times, atol=1e-9)
        assert np.array_equal(back.assets, stream.assets)
        assert np.array_equal(back.sides, stream.sides)
        assert np.allclose(back.sizes, stream.sizes)


class TestClusterLaw:
    """Oracles for the law of the cluster sampler."""

    @pytest.mark.parametrize("market,horizon", [("demo", 6000.0),
                                                ("tape", 3000.0),
                                                ("cross", 4000.0)])
    def test_time_rescaling(self, market, horizon):
        # Brown et al. (2002): compensator increments are iid Exp(1);
        # KS bound p >= 1e-3, fixed before running
        spec = MARKETS[market]()
        stream = simulate(spec, horizon, seed=11)
        gaps = rescaled_gaps(spec, stream)
        assert len(gaps) > 15000
        assert stats.kstest(gaps, "expon").pvalue >= 1e-3

    @pytest.mark.parametrize("market,horizon", [("demo", 600.0),
                                                ("tape", 300.0),
                                                ("cross", 400.0)])
    def test_counts_match_thinning(self, market, horizon):
        # mean and variance of the total count over 24 seeds; Welch t and
        # variance-ratio F tests at p >= 1e-3, fixed before running
        spec = MARKETS[market]()
        seeds = range(100, 124)
        ref = np.array([len(thinning_simulate(spec, horizon, s))
                        for s in seeds])
        got = np.array([len(simulate(spec, horizon, s)) for s in seeds])
        assert stats.ttest_ind(got, ref, equal_var=False).pvalue >= 1e-3
        ratio = got.var(ddof=1) / ref.var(ddof=1)
        tail = stats.f.cdf(ratio, len(got) - 1, len(ref) - 1)
        assert 2 * min(tail, 1 - tail) >= 1e-3


class TestEventCsv:
    @staticmethod
    def writer_bytes(stream, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "asset", "side", "size"])
            for t, a, s, v in zip(stream.times, stream.assets, stream.sides,
                                  stream.sizes):
                writer.writerow([f"{t:.9f}", a, "B" if s > 0 else "S",
                                 f"{v:.17g}"])
        return path.read_bytes()

    @pytest.mark.parametrize("horizon", [0.0, 300.0])
    def test_bytes_match_csv_writer(self, tmp_path, horizon):
        # 300 s gives a little over 1000 rows: several write chunks
        spec = HawkesSpec.from_matrices(mu=[1.5, 0.5], sizes=[1.0, 0.1],
                                        beta=1.0, aa=[[0.3, 0], [0, 0.2]],
                                        bb=[[0.3, 0], [0, 0.2]])
        stream = simulate(spec, horizon, seed=4)
        stream.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == \
            self.writer_bytes(stream, tmp_path / "ref.csv")

    def test_columns_by_name(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("size,note,side,asset,time\n"
                        "2.5,x, b,1,0.25\n1,y,s,0,0.75\n3,z,B ,1,1.5\n")
        s = EventStream.from_csv(path)
        assert np.array_equal(s.times, [0.25, 0.75, 1.5])
        assert np.array_equal(s.assets, [1, 0, 1])
        assert np.array_equal(s.sides, [1, -1, 1])
        assert np.array_equal(s.sizes, [2.5, 1.0, 3.0])
        assert s.d == 2 and s.horizon == 1.5

    def test_header_only(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,side,size\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = EventStream.from_csv(path)
        assert len(s) == 0 and s.d == 1 and s.horizon == 0.0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,size\n0.5,0,1\n")
        with pytest.raises(KeyError):
            EventStream.from_csv(path)

    def test_coincident_times_raise(self):
        with pytest.raises(HawkesError):
            EventStream(times=[1.0, 1.0], assets=[0, 1], sides=[1, 1],
                        sizes=[1.0, 1.0], horizon=2.0, d=2)

    @pytest.mark.parametrize("label", ["X", "BUY", "", "B" + " " * 7 + "X"])
    def test_unknown_side_label_rejected(self, tmp_path, label):
        # a label past SIDE_WIDTH characters is refused, not cut to "B"
        path = tmp_path / "events.csv"
        path.write_text(f"time,asset,side,size\n0.5,0,S,1\n1.5,0,{label},1\n")
        with pytest.raises(HawkesError, match="side label"):
            EventStream.from_csv(path)

    def test_side_labels_any_case_and_padding(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,side,size\n"
                        "1,0,b,1\n2,0, S,1\n3,0,s ,1\n4,0,  B  ,1\n")
        assert np.array_equal(EventStream.from_csv(path).sides,
                              [1, -1, -1, 1])


class TestAsWritten:
    def test_matches_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        times = np.sort(np.concatenate([
            rng.uniform(0.0, 5000.0, 2000),
            # t * 1e9 rounds to a half-integer: the exact product breaks
            # the tie; 3 ns apart so that no two read back equal
            5001.0 + (3 * np.arange(300) + 0.5) / 1e9,
            np.arange(300) * 3e-9 + 0.5e-9,
            # exact ties, rounded to even
            5002.0 + np.arange(1, 400, 2) / 1024.0,
            # past _EXACT_TIME_LIMIT: through the text
            [5e6 + 0.25, 1e7 + 1.0 / 1024.0 + 3e-10]]))
        n = len(times)
        stream = EventStream(times=times, assets=np.zeros(n, dtype=int),
                             sides=np.ones(n, dtype=int), sizes=np.ones(n),
                             horizon=2e7, d=1)
        stream.to_csv(tmp_path / "events.csv")
        back = EventStream.from_csv(tmp_path / "events.csv").times
        assert not np.array_equal(back, times)
        assert np.array_equal(hawkes._as_written(times), back)

    def test_signs_and_non_finite(self):
        times = np.array([-0.0, -1e-12, -1.0000000005, np.inf, -np.inf])
        got = hawkes._as_written(times)
        ref = np.array([float(hawkes.TIME_FORMAT % t) for t in times])
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestFlowSpectrum:
    def test_white_flow_flat(self):
        spec = poisson_spec(mu=(1.5, 0.5), sizes=(2.0, 1.0))
        om = np.linspace(0.0, 3.0, 7)
        s = analytic_flow_spectrum(spec, om)
        expect = 2.0 * np.diag([1.5 * 4.0, 0.5 * 1.0])
        for k in range(len(om)):
            assert np.allclose(s[k], expect, atol=1e-12)

    def test_scalar_closed_form(self):
        # textbook one-asset form derived by hand:
        # 2 theta |1 - phihat|^{-2} with phihat = alpha beta/(beta + i w)
        alpha, beta, mu = 0.5, 2.0, 1.0
        spec = scalar_hawkes(alpha=alpha, beta=beta, mu=mu)
        theta = mu / (1 - alpha)
        om = np.linspace(0.0, 10.0, 21)
        phihat = alpha * beta / (beta + 1j * om)
        expect = 2 * theta * np.abs(1 - phihat) ** -2
        s = analytic_flow_spectrum(spec, om)
        assert np.allclose(s[:, 0, 0].real, expect, rtol=1e-12)
        assert np.abs(s.imag).max() < 1e-12

    def test_hermitian_psd_on_grid(self):
        spec = HawkesSpec.from_matrices(
            mu=[0.6, 0.45], sizes=[1.0, 2.0], beta=0.25,
            aa=[[0.06, 0.02], [0.035, 0.08]],
            bb=[[0.06, 0.02], [0.035, 0.08]])
        om = np.linspace(-8.0, 8.0, 129)
        s = analytic_flow_spectrum(spec, om)
        herm = np.abs(s - s.conj().transpose(0, 2, 1)).max()
        assert herm < 1e-10 * np.abs(s).max()
        eigs = np.linalg.eigvalsh(0.5 * (s + s.conj().transpose(0, 2, 1)))
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_matches_periodogram(self):
        # long-run averaged periodogram of binned simulated flow
        spec = scalar_hawkes(alpha=0.4, beta=0.8, mu=1.0)
        n_days, t_day, delta = 20, 2000.0, 1.0
        n_bins = int(t_day / delta)
        acc = None
        for day in range(n_days):
            stream = simulate(spec, t_day, seed=300 + day)
            q = np.zeros(n_bins)
            idx = np.clip(np.ceil(stream.times / delta).astype(int) - 1,
                          0, n_bins - 1)
            np.add.at(q, idx, stream.sides * stream.sizes)
            pg = np.abs(np.fft.fft(q)) ** 2 / n_bins
            acc = pg if acc is None else acc + pg
        acc /= n_days
        # smooth the periodogram over neighboring frequencies
        k = 21
        kernel = np.ones(k) / k
        smooth = np.convolve(np.concatenate([acc, acc[:k]]), kernel,
                             mode="same")[:n_bins]
        om = 2 * np.pi * np.arange(n_bins) / n_bins
        om = np.where(om <= np.pi, om, om - 2 * np.pi)
        s = analytic_flow_spectrum(spec, om)[:, 0, 0].real
        sel = (np.abs(om) > 0.3) & (np.abs(om) < 2.8)
        rel = np.abs(smooth[sel] - s[sel]) / s[sel]
        assert np.median(rel) < 0.15


class TestAnalyticKernel:
    def test_no_imbalance_constant(self):
        spec = poisson_spec(mu=(1.0, 1.0), sizes=(2.0, 3.0))
        lam = np.array([[1.0, 0.2], [0.2, 0.8]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=5)
        for t in range(6):
            assert np.allclose(k.values[t], lam, atol=1e-14)

    def test_scalar_closed_form(self):
        alpha_over_beta, beta = 0.5, 0.7
        spec = scalar_hawkes(alpha=alpha_over_beta, beta=beta)
        lam = np.array([[1.3]])
        k = analytic_kernel(spec, lam, delta=0.5, tau_max=40)
        k0 = lam[0, 0] / (1 - alpha_over_beta)
        t = 0.5 * np.arange(41)
        expect = k0 * (1 - alpha_over_beta * (1 - np.exp(-beta * t)))
        assert np.allclose(k.values[:, 0, 0], expect, rtol=1e-12)

    def test_tail_reaches_permanent(self):
        spec = scalar_hawkes(alpha=0.5, beta=0.7)
        lam = np.array([[1.0]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=40)
        rel = abs(k.values[-1, 0, 0] - 1.0) / 1.0
        assert rel < 1e-6

    def test_boundary_recovery_invariant(self):
        # K(0) diag(v) (I - int phi) = Lambda diag(v) at 1e-10 relative
        spec = HawkesSpec.from_matrices(
            mu=[0.6, 0.45], sizes=[1.0, 2.5], beta=0.25,
            aa=[[0.06, 0.02], [0.035, 0.08]],
            bb=[[0.06, 0.02], [0.035, 0.08]])
        lam = np.array([[1.0, 0.2], [0.2, 1.1]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=10)
        dv = np.diag(spec.sizes)
        lhs = k.k0 @ dv @ (np.eye(2) - imbalance_l1(spec))
        rhs = lam @ dv
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_incompatible_spec_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[0.3]], bb=[[0.2]])
        with pytest.raises(HawkesError):
            analytic_kernel(spec, np.array([[1.0]]), 1.0, 5)
