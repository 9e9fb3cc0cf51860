import csv
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact import formats
from crossimpact.arbitrage import (Piece, Strategy, StrategyError,
                                   _KernelIntegrals, _snap_zero_sum,
                                   _zero_sum_basis, buy_hold_sell, cost,
                                   min_roundtrip_cost, min_roundtrip_value,
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


def gram_oracle(kernel, n_steps, dt):
    """The round-trip Gram assembled one step pair at a time: K(lag) / 2
    below the diagonal, its transpose above, (K(0) + K(0)^T) / 4 on it."""
    d = kernel.d
    g = np.zeros((n_steps * d, n_steps * d))
    for t in range(n_steps):
        for s in range(n_steps):
            if t > s:
                block = 0.5 * kernel.value_at((t - s) * dt)
            elif t < s:
                block = 0.5 * kernel.value_at((s - t) * dt).T
            else:
                block = 0.25 * (kernel.k0 + kernel.k0.T)
            g[t * d:(t + 1) * d, s * d:(s + 1) * d] = block
    return g


def fraction_snap(rates):
    """Reference snap: rates rounded to multiples of 2**-40, each asset's
    last step set to minus the exact rational sum of its others."""
    scale = 2.0 ** 40
    q = np.round(rates * scale) / scale
    for i in range(q.shape[1]):
        q[-1, i] = float(-sum(Fraction(x) for x in q[:-1, i]))
    return q


@st.composite
def scan_cases(draw):
    """A random lattice kernel with a converged tail, a step count and a
    horizon that may run past the lattice onto the plateau."""
    d = draw(st.integers(1, 3))
    n_lags = draw(st.integers(1, 12))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.normal(size=(n_lags + 1, d, d))
    kernel = ImpactKernel(delta=delta, values=vals, lam=vals[-1].copy(),
                          provenance="analytic", grid=64)
    n_steps = draw(st.integers(2, 12))
    T = draw(st.floats(0.1, 3.0)) * n_lags * delta
    return kernel, n_steps, T


class TestStrategy:
    def test_round_trip_flag_exact(self):
        s = pair_trading_strategy(0, 1, 1.3, 0.7, 3.0)
        assert s.is_round_trip
        assert s.net_position(0) == 0
        assert s.net_position(1) == 0

    def test_open_position_not_round_trip(self):
        s = Strategy(pieces=[[Piece(0.0, 1.0, 1.0)]], horizon=1.0)
        assert not s.is_round_trip

    def test_callers_lists_unchanged(self):
        # the strategy sorts new lists; the caller's keep their order
        late, early = Piece(2.0, 3.0, 1.0), Piece(0.0, 1.0, -1.0)
        inner = [late, early]
        pieces = [inner]
        s = Strategy(pieces=pieces, horizon=3.0)
        assert pieces[0] is inner and inner == [late, early]
        assert s.pieces is not pieces and s.pieces == [[early, late]]

    def test_overlap_rejected(self):
        with pytest.raises(StrategyError):
            Strategy(pieces=[[Piece(0.0, 2.0, 1.0), Piece(1.0, 3.0, 1.0)]],
                     horizon=3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["start", "end", "rate", "horizon"])
    def test_non_finite_refused(self, field, bad):
        piece = {"start": 0.0, "end": 1.0, "rate": 1.0}
        horizon = 2.0
        if field == "horizon":
            horizon = bad
        else:
            piece[field] = bad
        with pytest.raises(StrategyError):
            Strategy(pieces=[[Piece(**piece)]], horizon=horizon)

    @pytest.mark.parametrize("piece, message", [
        pytest.param(Piece(1.0, 1.0, 1.0), "asset 0: empty piece "
                     "Piece(start=1.0, end=1.0, rate=1.0)", id="empty"),
        pytest.param(Piece(1.0, 3.0, 1.0), "asset 0: piece outside horizon",
                     id="past-horizon"),
        pytest.param(Piece(-1.0, 1.0, 1.0), "asset 0: piece outside horizon",
                     id="before-zero"),
    ])
    def test_bad_piece_refused(self, piece, message):
        with pytest.raises(StrategyError, match=f"^{re.escape(message)}$"):
            Strategy(pieces=[[piece]], horizon=2.0)

    def test_non_finite_horizon_refused_without_pieces(self):
        with pytest.raises(StrategyError):
            Strategy(pieces=[[]], horizon=np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_constructions_refuse_non_finite_inputs(self, bad):
        for eta in (np.ones(2), np.zeros(2)):
            with pytest.raises(StrategyError):
                buy_hold_sell(eta, bad)
        with pytest.raises(StrategyError):
            pair_trading_strategy(0, 1, 1.0, 1.0, bad)
        with pytest.raises(StrategyError):
            buy_hold_sell(np.array([bad, 1.0]), 2.0)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: pair_trading_strategy(1, 1, 1.0, 1.0, 3.0),
                     "pair strategy needs two distinct assets",
                     id="pair-one-asset"),
        pytest.param(lambda: buy_hold_sell([1.0], 2.0, width=3.0),
                     "piece width must lie in (0, tau]", id="width-past-tau"),
        pytest.param(lambda: buy_hold_sell([1.0], 2.0, width=0.0),
                     "piece width must lie in (0, tau]", id="width-zero"),
    ])
    def test_constructions_refuse_bad_shapes(self, build, message):
        with pytest.raises(StrategyError, match=f"^{re.escape(message)}$"):
            build()


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
                            ("permanent", LoopConstant(kernel.lam))):
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

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StrategyError, match="^strategy and kernel "
                                                "dimensions differ$"):
            cost(buy_hold_sell([1.0], 2.0), constant_kernel(np.eye(2)))

    def test_desk_size_matches_loop_oracle(self):
        # a 64-piece step witness, and 64 pieces at off-lattice times;
        # both run past the 40-lag lattice onto the plateau
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(41, 2, 2))
        kernel = ImpactKernel(delta=1.0, values=vals, lam=vals[-1].copy(),
                              provenance="analytic", grid=128)
        _, witness, _ = min_roundtrip_cost(kernel, 32, 64.0)
        assert sum(len(p) for p in witness.pieces) == 64
        cuts = np.sort(rng.uniform(0.0, 60.0, size=(2, 64)), axis=1)
        off_lattice = Strategy(
            pieces=[[Piece(float(a), float(b), float(rng.normal()))
                     for a, b in zip(row[::2], row[1::2])] for row in cuts],
            horizon=60.0)
        for s in (witness, off_lattice):
            got = cost(s, kernel)
            for field, vfun in (("total", LoopIntegrals(kernel)),
                                ("permanent", LoopConstant(kernel.lam))):
                ref, scale = loop_pairwise_cost(s, vfun)
                assert abs(getattr(got, field) - ref) <= 1e-12 * scale, field


def with_lags(kernel, extra, rng):
    """kernel with extra random lags appended to its lattice; lam kept."""
    values = np.concatenate(
        [kernel.values, rng.normal(size=(extra,) + kernel.lam.shape)])
    return ImpactKernel(delta=kernel.delta, values=values, lam=kernel.lam,
                        provenance="analytic", grid=kernel.grid)


class TestCostReach:
    """cost() reads no lag past the last piece end: appending lags past
    it changes no bit, and the table stops at that end's cell."""

    @given(kernels_and_strategies(), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_lags_past_horizon_change_no_bit(self, case, extra, seed):
        kernel, s = case
        rng = np.random.default_rng(seed)
        # a lattice that covers the horizon, then arbitrary lags past it
        covering = with_lags(
            kernel, int(np.ceil(s.horizon / kernel.delta)) + 1, rng)
        longer = with_lags(covering, extra, rng)
        assert cost(s, longer) == cost(s, covering)

    def test_desk_witness_reads_its_reach(self):
        # desk's shape: a 1,025-lag lattice and 2-wide steps to T = 64
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(1025, 2, 2))
        kernel = ImpactKernel(delta=1.0, values=vals, lam=vals[-1].copy(),
                              provenance="analytic", grid=2048)
        _, witness, _ = min_roundtrip_cost(kernel, 32, 64.0)
        short = ImpactKernel(delta=1.0, values=vals[:66], lam=kernel.lam,
                             provenance="analytic", grid=2048)
        assert cost(witness, kernel) == cost(witness, short)
        ends = [p.end for plist in witness.pieces for p in plist]
        # cells 0..64 and the plateau row, for each of the 4 entries
        assert _KernelIntegrals(kernel, ends).table.shape == (66 * 4, 4)


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

    def test_nan_flow_tail_refused_past_the_lattice(self):
        # the lattice sits on lam, but the flow it was built from left an
        # unknown correlation at its end: its tail has not converged, so
        # neither cost() nor check's scan runs past the 4 lags
        k = constant_kernel(np.eye(2), tau_max=4)
        k.diagnostics["flow_tail"] = float("nan")
        with pytest.raises(StrategyError, match="tail has not converged"):
            cost(buy_hold_sell([1.0, 0.0], 50.0), k)
        with pytest.raises(StrategyError, match="tail has not converged"):
            min_roundtrip_value(k, 4, 10.0)
        assert cost(buy_hold_sell([1.0, 0.0], 3.0), k).total > 0

    def test_admissible_kernel_nonnegative(self):
        k = exponential_kernel(rate=1.0, tau_max=40, delta=1.0)
        k.tail_tol = 1.0
        for n in (4, 8, 16):
            for T in (1.0, 10.0):
                value, _, info = min_roundtrip_cost(k, n, T)
                assert value >= -1e-8 * info["gram_norm"] * info["step"] ** 2

    @given(scan_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_gram_oracle(self, case):
        kernel, n_steps, T = case
        d = kernel.d
        value, witness, info = min_roundtrip_cost(kernel, n_steps, T)
        dt = info["step"]
        g = gram_oracle(kernel, n_steps, dt)
        # null space of the per-asset sums, from an SVD
        sums = np.kron(np.ones((1, n_steps)), np.eye(d))
        null = np.linalg.svd(sums)[2][d:].T
        lam_min = np.linalg.eigvalsh(null.T @ g @ null)[0]
        gram_norm = np.linalg.norm(g, 2)
        assert abs(info["gram_norm"] - gram_norm) <= 1e-12 * gram_norm
        assert abs(value - dt * dt * lam_min) <= 1e-12 * gram_norm * dt * dt
        assert witness.is_round_trip
        assert witness.horizon == n_steps * dt
        # the witness steps are the minimizing direction
        f = np.zeros((n_steps, d))
        for i, plist in enumerate(witness.pieces):
            for p in plist:
                assert p.end - p.start == dt
                f[round(p.start / dt), i] = p.rate
        f = f.ravel()
        assert abs(f @ g @ f / (f @ f) - lam_min) <= 1e-10 * gram_norm
        # sign convention: the lowest traded asset opens with a buy
        lowest = next(plist for plist in witness.pieces if plist)
        assert lowest[0].rate > 0.0

    @given(st.integers(2, 40), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_snap_is_exact(self, n, d, seed):
        # unit vectors in the zero-sum subspace, as the scan snaps them
        rates = np.random.default_rng(seed).normal(size=(n, d))
        rates -= rates.mean(axis=0)
        rates /= np.linalg.norm(rates)
        got = _snap_zero_sum(rates)
        for i in range(d):
            assert sum(Fraction(x) for x in got[:, i]) == 0
        # every step but the last is rounded once; the last carries the
        # other steps' rounding and the input's own residual sum
        assert np.abs(got[:-1] - rates[:-1]).max(initial=0.0) <= 2.0 ** -41
        assert np.all(np.abs(got[-1] - rates[-1])
                      <= (n - 1) * 2.0 ** -41 + np.abs(rates.sum(axis=0)))
        assert got.tobytes() == fraction_snap(rates).tobytes()

    @pytest.mark.parametrize("n_steps", [2.5, "4", None, 1])
    def test_refuses_bad_step_count(self, n_steps):
        k = constant_kernel(np.eye(2))
        with pytest.raises(StrategyError):
            min_roundtrip_cost(k, n_steps, 3.0)

    @pytest.mark.parametrize("T", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_horizon(self, T):
        k = constant_kernel(np.eye(2))
        with pytest.raises(StrategyError):
            min_roundtrip_cost(k, 4, T)

    def test_numpy_step_count(self):
        k = constant_kernel(np.eye(2))
        _, witness, info = min_roundtrip_cost(k, np.int64(4), 3.0)
        assert info["n_steps"] == 4 and witness.is_round_trip


def unconverged_kernel():
    """A one-asset lattice of 8 lags whose tail is far from lam = 0."""
    vals = np.exp(-0.05 * np.arange(9, dtype=float))[:, None, None]
    return ImpactKernel(delta=1.0, values=vals, lam=np.zeros((1, 1)),
                        provenance="k1", grid=64)


class TestMinRoundtripValue:
    """min_roundtrip_value is min_roundtrip_cost without the witness."""

    @staticmethod
    def assert_agrees(kernel, n_steps, T):
        value, info = min_roundtrip_value(kernel, n_steps, T)
        ref, _, ref_info = min_roundtrip_cost(kernel, n_steps, T)
        assert info == ref_info
        scale = info["gram_norm"] * info["step"] ** 2
        assert abs(value - ref) <= 1e-12 * scale
        return value

    @pytest.mark.parametrize("kernel, n_steps, T", [
        pytest.param(constant_kernel(np.zeros((2, 2))), 6, 3.0, id="zero"),
        pytest.param(constant_kernel(np.eye(2)), 4, 3.0, id="identity"),
        pytest.param(exponential_kernel(rate=1.0, tau_max=40, delta=1.0),
                     16, 10.0, id="exponential"),
        pytest.param(unconverged_kernel(), 8, 8.0, id="inside-lattice")])
    def test_agrees_with_min_roundtrip_cost(self, kernel, n_steps, T):
        self.assert_agrees(kernel, n_steps, T)

    def test_asymmetric_constant_certificate(self):
        m = np.array([[0.5, 0.35], [0.25, 0.5]])
        assert self.assert_agrees(constant_kernel(m), 9, 3.0) < -1e-6

    @given(scan_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_on_random_kernels(self, case):
        self.assert_agrees(*case)

    @pytest.mark.parametrize("kernel, n_steps, T, message", [
        pytest.param(constant_kernel(np.eye(2)), 2.5, 3.0,
                     "n_steps 2.5 is not an integer >= 2", id="n-2.5"),
        pytest.param(constant_kernel(np.eye(2)), 1, 3.0,
                     "n_steps 1 is not an integer >= 2", id="n-1"),
        pytest.param(constant_kernel(np.eye(2)), 4, np.nan,
                     "horizon nan is not finite", id="T-nan"),
        pytest.param(constant_kernel(np.eye(2)), 4, np.inf,
                     "horizon inf is not finite", id="T-inf"),
        pytest.param(unconverged_kernel(), 8, 20.0,
                     "horizon 20 exceeds the kernel lattice (8) and the "
                     "kernel tail has not converged to its permanent matrix",
                     id="past-tail"),
        pytest.param(constant_kernel(np.eye(2)), 4, 1e-7,
                     "horizon too short for the step grid",
                     id="under-step-grid")])
    def test_same_refusals(self, kernel, n_steps, T, message):
        with pytest.raises(StrategyError) as ref:
            min_roundtrip_cost(kernel, n_steps, T)
        with pytest.raises(StrategyError) as got:
            min_roundtrip_value(kernel, n_steps, T)
        assert str(got.value) == str(ref.value) == message

    def test_basis_cached_and_read_only(self):
        basis = _zero_sum_basis(8)
        assert _zero_sum_basis(8) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0
        # orthonormal columns, each summing to zero
        assert np.abs(basis.T @ basis - np.eye(7)).max() <= 1e-14
        assert np.abs(basis.sum(axis=0)).max() <= 1e-14


class TestPredict:
    def test_zero_kernel_flat_path(self):
        k = constant_kernel(np.zeros((2, 2)))
        flows = BinnedSeries(delta=1.0, flows=np.ones((10, 2)))
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
        series = BinnedSeries(delta=1.0, flows=flows)
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
            return BinnedSeries(delta=1.0, flows=q)

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
        series = BinnedSeries(delta=1.0, flows=q)
        p0 = np.array([100.0, 50.0, 0.0])
        path = predict_prices(k, series, p0)
        ext = np.concatenate([vals, np.tile(lam, (max(n - 13, 0), 1, 1))])
        ref = np.tile(p0, (n, 1))
        for i in range(3):
            for j in range(3):
                ref[:, i] += np.convolve(q[:, j], ext[:, i, j])[:n]
        assert path.shape == (n, 3)
        assert np.abs(path - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dimension_mismatch(self):
        flows = BinnedSeries(delta=1.0, flows=np.ones((4, 2)))
        with pytest.raises(StrategyError, match="^flow and kernel "
                                                "dimensions differ$"):
            predict_prices(constant_kernel(np.eye(1)), flows, np.zeros(1))

    def test_lattice_mismatch(self):
        k = constant_kernel(np.eye(1), delta=1.0)
        flows = BinnedSeries(delta=0.5, flows=np.ones((4, 1)))
        with pytest.raises(StrategyError):
            predict_prices(k, flows, np.zeros(1))


def writer_bytes(path, times, prices):
    """The bytes csv.writer gives for a predicted price path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "asset", "price_hat"])
        for t, row in zip(times, prices):
            for a, p in enumerate(row):
                writer.writerow([f"{t:.9f}", a, f"{p:.17g}"])
    return path.read_bytes()


class TestPredictedPricesCsv:
    @pytest.mark.parametrize("n", [0, 300])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.exponential(size=n))
        prices = 100.0 + rng.normal(size=(n, 3))
        save_predicted_prices(tmp_path / "got.csv", times, prices)
        assert (tmp_path / "got.csv").read_bytes() == \
            writer_bytes(tmp_path / "ref.csv", times, prices)

    @pytest.mark.parametrize("block", [1, 3, formats.EVENT_BLOCK_ROWS])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bytes_for_any_magnitude(self, tmp_path, block, d):
        # prices of both signs from 1e-7 to 1e19 with zeros, ties and
        # specials; times on the 1 ns grid and off it (steps of 0.3 s,
        # past 2**22 s); blocks of 1 and 3 rows hold one or more steps
        rng = np.random.default_rng(d)
        n = 40
        times = np.concatenate([0.3 * (1 + np.arange(n - 4)),
                                [2.0 ** 22, 2.0 ** 22 + 0.5, 1e9, 1e300]])
        prices = rng.choice([-1.0, 1.0], (n, d)) \
            * 10.0 ** rng.uniform(-7, 19, (n, d))
        prices.flat[:8] = [0.0, -0.0, np.nan, np.inf, 5e-324, 1e-4, 1e16,
                           1000000000000000.25]
        with mock.patch.object(formats, "EVENT_BLOCK_ROWS", block), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            save_predicted_prices(tmp_path / "got.csv", times, prices)
        assert (tmp_path / "got.csv").read_bytes() == \
            writer_bytes(tmp_path / "ref.csv", times, prices)

    @pytest.mark.parametrize("n_times,shape", [(3, (5, 2)), (8, (5, 2)),
                                               (5, (5,))],
                             ids=["short", "long", "1-D"])
    def test_misfit_path_refused_before_writing(self, tmp_path, n_times,
                                                shape):
        path = tmp_path / "prices.csv"
        with pytest.raises(StrategyError, match="one time per step"):
            save_predicted_prices(path, np.arange(1.0, n_times + 1),
                                  np.full(shape, 100.0))
        assert not path.exists()
