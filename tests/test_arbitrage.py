import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact.arbitrage import (Piece, Strategy, StrategyError,
                                   buy_hold_sell, cost, min_roundtrip_cost,
                                   pair_trading_strategy, predict_prices,
                                   save_predicted_prices)
from crossimpact.kernels import ImpactKernel
from crossimpact.observables import BinnedSeries


def constant_kernel(mat, tau_max=8, delta=1.0):
    mat = np.asarray(mat, dtype=float)
    vals = np.tile(mat, (tau_max + 1, 1, 1))
    return ImpactKernel(delta=delta, values=vals,
                        lam=mat.copy(), provenance="analytic", grid=256)


def exponential_kernel(rate=1.0, tau_max=2000, delta=0.01, d=1):
    tau = delta * np.arange(tau_max + 1)
    vals = np.exp(-rate * tau)[:, None, None] * np.eye(d)[None]
    return ImpactKernel(delta=delta, values=vals,
                        lam=np.zeros((d, d)), provenance="analytic",
                        grid=4096, tail_tol=1e-6)


def riemann_cost(strategy, kernel, oversample=10):
    """Slow reference quadrature of the double integral."""
    base = kernel.delta / oversample
    n = int(np.ceil(strategy.horizon / base))
    dt = strategy.horizon / n
    t = (np.arange(n) + 0.5) * dt
    d = kernel.d
    f = np.zeros((n, d))
    for i, plist in enumerate(strategy.pieces):
        for p in plist:
            f[(t > p.start) & (t < p.end), i] = p.rate
        for p in plist:
            exact = (t >= p.start) & (t <= p.end)
            f[exact, i] = p.rate
    kmat = np.stack([kernel.value_at(m * dt) for m in range(n)])
    total = 0.0
    for a in range(n):
        lagged = kmat[:a + 1][::-1]
        inner = np.einsum("sij,sj->i", lagged, f[:a + 1])
        correction = 0.5 * kernel.value_at(0.0) @ f[a]
        total += f[a] @ (inner - correction) * dt * dt
    return total


class LoopIntegrals:
    """Reference second antiderivative V of every kernel entry at one
    scalar offset: the cubic of its lattice cell, the plateau beyond."""

    def __init__(self, kernel):
        dv = self.delta = kernel.delta
        k = self.values = kernel.values
        self.lam = kernel.lam
        self.n = k.shape[0] - 1
        zero = np.zeros((1,) + k.shape[1:])
        self.w_nodes = np.concatenate([
            zero, np.cumsum(0.5 * dv * (k[:-1] + k[1:]), axis=0)])
        v_inc = (self.w_nodes[:-1] * dv + 0.5 * k[:-1] * dv ** 2
                 + np.diff(k, axis=0) * dv ** 2 / 6.0)
        self.v_nodes = np.concatenate([zero, np.cumsum(v_inc, axis=0)])

    def v(self, x):
        if x <= 0.0:
            return np.zeros_like(self.lam)
        dv = self.delta
        span = self.n * dv
        if x >= span:
            u = x - span
            return (self.v_nodes[-1] + self.w_nodes[-1] * u
                    + 0.5 * self.lam * u * u)
        i = min(int(np.floor(x / dv)), self.n - 1)
        s = x - i * dv
        k0 = self.values[i]
        dk = self.values[i + 1] - k0
        return (self.v_nodes[i] + self.w_nodes[i] * s + 0.5 * k0 * s * s
                + dk * s ** 3 / (6.0 * dv))


class LoopConstant:
    """Reference V of a constant kernel."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)

    def v(self, x):
        if x <= 0.0:
            return np.zeros_like(self.mat)
        return 0.5 * self.mat * x * x


def loop_pairwise_cost(strategy, vfun):
    """Reference corner sums, one piece pair at a time; also returns the
    uncancelled scale sum |r_p r_q corner_pq|."""
    total = scale = 0.0
    for i, plist in enumerate(strategy.pieces):
        for p1 in plist:
            for j, qlist in enumerate(strategy.pieces):
                for p2 in qlist:
                    corners = (vfun.v(p1.end - p2.start)
                               - vfun.v(p1.start - p2.start)
                               - vfun.v(p1.end - p2.end)
                               + vfun.v(p1.start - p2.end))
                    term = p1.rate * p2.rate * corners[i, j]
                    total += term
                    scale += abs(term)
    return total, scale


@st.composite
def kernels_and_strategies(draw):
    """A random lattice kernel with a converged tail (values[-1] = lam)
    and random piece lists, some assets empty and some pieces running
    past the lattice onto the plateau."""
    d = draw(st.integers(1, 3))
    n_lags = draw(st.integers(1, 12))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.normal(size=(n_lags + 1, d, d))
    kernel = ImpactKernel(delta=delta, values=vals,
                          lam=vals[-1].copy(), provenance="analytic",
                          grid=64)
    horizon = draw(st.floats(0.2, 2.5)) * n_lags * delta
    on_lattice = draw(st.booleans())
    pieces = []
    for _ in range(d):
        n_pieces = draw(st.integers(0, 4))
        if on_lattice:
            # endpoints on quarter cells hit the lattice nodes exactly
            ticks = np.arange(int(horizon / (0.25 * delta)) + 1) \
                * (0.25 * delta)
            cuts = np.sort(rng.choice(ticks, min(2 * n_pieces, ticks.size),
                                      replace=False))
        else:
            cuts = np.sort(rng.uniform(0.0, horizon, 2 * n_pieces))
        pieces.append([Piece(float(a), float(b), float(rng.normal()))
                       for a, b in zip(cuts[::2], cuts[1::2]) if b > a])
    return kernel, Strategy(pieces=pieces, horizon=horizon)


class TestStrategy:
    def test_round_trip_flag_exact(self):
        s = pair_trading_strategy(0, 1, 1.3, 0.7, 3.0)
        assert s.is_round_trip
        assert s.net_position(0) == 0
        assert s.net_position(1) == 0

    def test_open_position_not_round_trip(self):
        s = Strategy(pieces=[[Piece(0.0, 1.0, 1.0)]], horizon=1.0)
        assert not s.is_round_trip

    def test_overlap_rejected(self):
        with pytest.raises(StrategyError):
            Strategy(pieces=[[Piece(0.0, 2.0, 1.0), Piece(1.0, 3.0, 1.0)]],
                     horizon=3.0)



class TestCost:
    def test_zero_strategy(self):
        k = constant_kernel([[1.0, 0.2], [0.2, 1.0]])
        s = Strategy(pieces=[[], []], horizon=4.0)
        assert cost(s, k).total == 0.0

    def test_constant_symmetric_round_trip_is_free(self):
        m = np.array([[1.0, 0.3], [0.3, 0.8]])
        k = constant_kernel(m)
        s = pair_trading_strategy(0, 1, 1.1, -0.6, 6.0)
        c = cost(s, k)
        assert abs(c.total) <= 1e-12
        assert abs(c.permanent) <= 1e-12

    def test_pair_strategy_asymmetric_closed_form(self):
        m = np.array([[0.5, 0.3], [0.2, 0.5]])
        vp, vq, T = 1.3, 0.7, 3.0
        k = constant_kernel(m)
        s = pair_trading_strategy(0, 1, vp, vq, T)
        c = cost(s, k)
        expect = T ** 2 / 18.0 * (m[0, 1] - m[1, 0]) * vp * vq
        assert c.total == pytest.approx(expect, rel=1e-12)

    def test_matches_riemann_oracle(self):
        tau = np.arange(41, dtype=float)
        vals = np.zeros((41, 2, 2))
        vals[:, 0, 0] = 1.0 + np.exp(-0.3 * tau)
        vals[:, 1, 1] = 0.8 + 0.5 * np.exp(-0.2 * tau)
        vals[:, 0, 1] = 0.3 * np.exp(-0.25 * tau) + 0.2
        vals[:, 1, 0] = 0.25 * np.exp(-0.35 * tau) + 0.2
        k = ImpactKernel(delta=1.0, values=vals, lam=vals[-1],
                         provenance="analytic", grid=256, tail_tol=0.2)
        s = Strategy(pieces=[[Piece(0.0, 5.0, 1.0), Piece(9.0, 14.0, -1.0)],
                             [Piece(2.0, 8.0, -0.5), Piece(10.0, 16.0, 0.5)]],
                     horizon=16.0)
        exact = cost(s, k).total
        approx = riemann_cost(s, k, oversample=40)
        assert exact == pytest.approx(approx, rel=2e-4)
        finer = riemann_cost(s, k, oversample=80)
        assert abs(finer - exact) < abs(approx - exact)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_scaling(self, alpha):
        m = np.array([[1.0, 0.4], [0.1, 0.9]])
        k = constant_kernel(m)
        base = pair_trading_strategy(0, 1, 1.0, 0.5, 3.0)
        scaled = Strategy(
            pieces=[[Piece(p.start, p.end, alpha * p.rate) for p in plist]
                    for plist in base.pieces], horizon=3.0)
        c0 = cost(base, k).total
        c1 = cost(scaled, k).total
        assert c1 == pytest.approx(alpha ** 2 * c0, rel=1e-10, abs=1e-12)

    @given(kernels_and_strategies())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle(self, case):
        kernel, s = case
        got = cost(s, kernel)
        for field, vfun in (("total", LoopIntegrals(kernel)),
                            ("permanent", LoopConstant(kernel.lam)),
                            ("immediate", LoopConstant(kernel.k0))):
            ref, scale = loop_pairwise_cost(s, vfun)
            assert abs(getattr(got, field) - ref) <= 1e-12 * scale, field

    def test_horizon_beyond_unconverged_tail_rejected(self):
        tau = np.arange(9, dtype=float)
        vals = np.exp(-0.05 * tau)[:, None, None]
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((1, 1)), provenance="k1", grid=64)
        s = Strategy(pieces=[[Piece(0.0, 20.0, 1.0)]], horizon=20.0)
        with pytest.raises(StrategyError):
            cost(s, k)


class TestConstructions:
    def test_pair_strategy_shape(self):
        s = pair_trading_strategy(0, 1, 2.0, 3.0, 9.0)
        assert s.pieces[0] == [Piece(0.0, 3.0, 2.0), Piece(6.0, 9.0, -2.0)]
        assert s.pieces[1] == [Piece(0.0, 3.0, 3.0), Piece(3.0, 6.0, -3.0)]

    def test_pair_strategy_degenerate_partner(self):
        s = pair_trading_strategy(0, 1, 2.0, 0.0, 3.0)
        assert s.pieces[1] == []
        assert s.is_round_trip

    def test_buy_hold_sell_zero_portfolio(self):
        s = buy_hold_sell(np.zeros(2), 5.0)
        k = constant_kernel(np.eye(2))
        assert cost(s, k).total == 0.0

    def test_buy_hold_sell_exponential_closed_form(self):
        # double integral of exp(-t) over narrow buy/sell pieces:
        # self terms 2 (w - 1 + e^{-w})/w^2, cross -e^{-tau}(e^w-1)(1-e^{-w})/w^2
        k = exponential_kernel(rate=1.0, tau_max=3000, delta=0.005)
        tau, w = 4.0, 0.25
        s = buy_hold_sell(np.array([1.0]), tau, width=w)
        got = cost(s, k).total
        self_term = 2.0 * (w - 1.0 + np.exp(-w)) / w ** 2
        cross = -np.exp(-tau) * (np.exp(w) - 1.0) * (1.0 - np.exp(-w)) / w ** 2
        assert got == pytest.approx(self_term + cross, rel=1e-4)

    def test_buy_hold_sell_cost_grows_with_holding_time(self):
        # unwinding later recaptures less of the transient push
        k = exponential_kernel(rate=1.0, tau_max=3000, delta=0.005)
        costs = [cost(buy_hold_sell(np.array([1.0]), tau, width=0.1), k).total
                 for tau in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(costs) > 0)
        # narrow-width limit approaches eta (K(0) - K(tau)) eta;
        # the finite-width deficit is about w/3
        tau = 2.0
        for w, tol in ((0.2, 0.08), (0.05, 0.02)):
            got = cost(buy_hold_sell(np.array([1.0]), tau, width=w), k).total
            assert got == pytest.approx(1.0 - np.exp(-tau), abs=tol)


class TestMinRoundtrip:
    def test_zero_kernel(self):
        k = constant_kernel(np.zeros((2, 2)))
        value, witness, info = min_roundtrip_cost(k, 6, 3.0)
        assert abs(value) <= 1e-12

    def test_asymmetric_constant_certificate(self):
        m = np.array([[0.5, 0.35], [0.25, 0.5]])
        k = constant_kernel(m)
        value, witness, info = min_roundtrip_cost(k, 9, 3.0)
        assert value < -1e-6
        assert witness.is_round_trip
        recomputed = cost(witness, k).total
        assert recomputed == pytest.approx(value, rel=1e-6, abs=1e-12)

    def test_refuses_horizon_beyond_unconverged_tail(self):
        # the plateau lam = 0 is far from the lattice's last value, so a
        # scan past the lattice would certify an arbitrage that cost()
        # refuses to price
        tau = np.arange(9, dtype=float)
        vals = np.exp(-0.05 * tau)[:, None, None]
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((1, 1)), provenance="k1", grid=64)
        assert k.tail_error() > k.tail_tol
        with pytest.raises(StrategyError, match="tail has not converged"):
            min_roundtrip_cost(k, 8, 20.0)
        # a lattice that covers the witness horizon needs no tail check
        k.tail_error = lambda: pytest.fail("tail evaluated")
        _, witness, _ = min_roundtrip_cost(k, 8, 8.0)
        assert witness.horizon == 8.0
        cost(witness, k)

    def test_admissible_kernel_nonnegative(self):
        k = exponential_kernel(rate=1.0, tau_max=40, delta=1.0)
        k.tail_tol = 1.0
        for n in (4, 8, 16):
            for T in (1.0, 10.0):
                value, _, info = min_roundtrip_cost(k, n, T)
                assert value >= -1e-8 * info["gram_norm"] * info["step"] ** 2


class TestPredict:
    def test_zero_kernel_flat_path(self):
        k = constant_kernel(np.zeros((2, 2)))
        flows = BinnedSeries(delta=1.0, open_prices=np.zeros((10, 2)),
                             close_prices=np.zeros((10, 2)),
                             flows=np.ones((10, 2)))
        path = predict_prices(k, flows, np.array([5.0, 7.0]))
        assert np.allclose(path, [5.0, 7.0])

    def test_impulse_response_columns(self):
        tau = np.arange(7, dtype=float)
        vals = np.zeros((7, 2, 2))
        vals[:, 0, 0] = np.exp(-0.5 * tau)
        vals[:, 1, 1] = np.exp(-0.2 * tau)
        vals[:, 1, 0] = 0.4 * np.exp(-0.3 * tau)
        lam = np.zeros((2, 2))
        k = ImpactKernel(delta=1.0, values=vals, lam=lam,
                         provenance="analytic", grid=64, tail_tol=0.5)
        n = 12
        flows = np.zeros((n, 2))
        flows[3, 0] = 1.0
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((n, 2)),
                              close_prices=np.zeros((n, 2)), flows=flows)
        path = predict_prices(k, series, np.zeros(2))
        for t in range(n):
            lag = t - 3
            expect = vals[lag, :, 0] if 0 <= lag <= 6 else \
                (np.zeros(2) if lag < 0 else lam[:, 0])
            assert np.allclose(path[t], expect, atol=1e-12)

    def test_superposition(self):
        rng = np.random.default_rng(2)
        tau = np.arange(9, dtype=float)
        vals = np.exp(-0.4 * tau)[:, None, None] * np.eye(2)[None] \
            + 0.1 * np.ones((2, 2))[None]
        k = ImpactKernel(delta=1.0, values=vals, lam=vals[-1],
                         provenance="analytic", grid=64, tail_tol=0.6)
        q1 = rng.normal(size=(30, 2))
        q2 = rng.normal(size=(30, 2))

        def series(q):
            return BinnedSeries(delta=1.0, open_prices=np.zeros((30, 2)),
                                close_prices=np.zeros((30, 2)), flows=q)

        p1 = predict_prices(k, series(q1), np.zeros(2))
        p2 = predict_prices(k, series(q2), np.zeros(2))
        p12 = predict_prices(k, series(q1 + q2), np.zeros(2))
        assert np.abs(p12 - (p1 + p2)).max() <= 1e-12 * np.abs(p12).max()

    @pytest.mark.parametrize("n", [5, 40, 333])
    def test_matches_direct_convolution(self, n):
        # the kernel has 13 lags; n = 40 and 333 run onto the plateau
        rng = np.random.default_rng(n)
        vals = rng.normal(size=(13, 3, 3))
        lam = rng.normal(size=(3, 3))
        k = ImpactKernel(delta=1.0, values=vals, lam=lam,
                         provenance="analytic", grid=64, tail_tol=10.0)
        q = rng.normal(size=(n, 3))
        series = BinnedSeries(delta=1.0, open_prices=np.zeros((n, 3)),
                              close_prices=np.zeros((n, 3)), flows=q)
        p0 = np.array([100.0, 50.0, 0.0])
        path = predict_prices(k, series, p0)
        ext = np.concatenate([vals, np.tile(lam, (max(n - 13, 0), 1, 1))])
        ref = np.tile(p0, (n, 1))
        for i in range(3):
            for j in range(3):
                ref[:, i] += np.convolve(q[:, j], ext[:, i, j])[:n]
        assert path.shape == (n, 3)
        assert np.abs(path - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_lattice_mismatch(self):
        k = constant_kernel(np.eye(1), delta=1.0)
        flows = BinnedSeries(delta=0.5, open_prices=np.zeros((4, 1)),
                             close_prices=np.zeros((4, 1)),
                             flows=np.ones((4, 1)))
        with pytest.raises(StrategyError):
            predict_prices(k, flows, np.zeros(1))


class TestPredictedPricesCsv:
    @pytest.mark.parametrize("n", [0, 300])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        # 300 steps of 3 assets span several 256-row chunks
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.exponential(size=n))
        prices = 100.0 + rng.normal(size=(n, 3))
        save_predicted_prices(tmp_path / "got.csv", times, prices)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "asset", "price_hat"])
            for t, row in zip(times, prices):
                for a, p in enumerate(row):
                    writer.writerow([f"{t:.9f}", a, f"{p:.17g}"])
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
