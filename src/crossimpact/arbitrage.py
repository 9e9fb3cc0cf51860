"""Trading-strategy costs, round-trip constructions, arbitrage search, price prediction.

Strategies are deterministic piecewise-constant trading rates.  The
expected impact cost of a strategy f under a kernel K is the double
integral of f(t)^T K(t-s) f(s) over s < t, which is evaluated in closed
form per piece pair through the second antiderivative of the lattice
kernel (linear interpolation between lags, permanent plateau beyond).
The four-corner sums of every piece pair are one array contraction.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .hawkes import TIME_FORMAT, _write_csv
from .kernels import ImpactKernel
from .observables import BinnedSeries


class StrategyError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Piece:
    start: float
    end: float
    rate: float


@dataclasses.dataclass
class Strategy:
    """Per-asset lists of non-overlapping constant-rate pieces."""

    pieces: list            # pieces[i] is the list for asset i
    horizon: float

    def __post_init__(self):
        for i, plist in enumerate(self.pieces):
            ordered = sorted(plist, key=lambda p: p.start)
            for p in ordered:
                if p.end <= p.start:
                    raise StrategyError(f"asset {i}: empty piece {p}")
                if p.start < 0 or p.end > self.horizon + 1e-12:
                    raise StrategyError(f"asset {i}: piece outside horizon")
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end - 1e-12:
                    raise StrategyError(f"asset {i}: overlapping pieces")
            self.pieces[i] = ordered

    @property
    def d(self):
        return len(self.pieces)

    def net_position(self, asset) -> Fraction:
        """Exact signed area of the rate profile, in binary rationals."""
        total = Fraction(0)
        for p in self.pieces[asset]:
            total += Fraction(p.rate) * (Fraction(p.end) - Fraction(p.start))
        return total

    @property
    def is_round_trip(self) -> bool:
        return all(self.net_position(i) == 0 for i in range(self.d))


@dataclasses.dataclass
class CostBreakdown:
    """Impact cost split: permanent is the cost under the constant
    permanent matrix alone, transient is the remainder."""

    total: float
    permanent: float
    transient: float


class _KernelIntegrals:
    """Second antiderivative V of each kernel entry, V'' = k, V(x<=0) = 0.

    V is exact for the piecewise-linear lattice kernel extended by its
    permanent plateau, so piece-pair costs are exact corner sums."""

    def __init__(self, values, delta, lam):
        self.delta = float(delta)
        self.values = np.asarray(values, dtype=float)
        self.lam = np.asarray(lam, dtype=float)
        self.n = self.values.shape[0] - 1
        dv = self.delta
        k = self.values
        dk = np.diff(k, axis=0)
        self.w_nodes = np.concatenate([
            np.zeros((1,) + k.shape[1:]),
            np.cumsum(0.5 * dv * (k[:-1] + k[1:]), axis=0)])
        v_inc = (self.w_nodes[:-1] * dv + 0.5 * k[:-1] * dv ** 2
                 + dk * dv ** 2 / 6.0)
        self.v_nodes = np.concatenate([
            np.zeros((1,) + k.shape[1:]), np.cumsum(v_inc, axis=0)])

    def v(self, x, a, b) -> np.ndarray:
        """V_ab at the offsets x; x, a and b broadcast together."""
        dv = self.delta
        span = self.n * dv
        i = np.clip(np.floor(x / dv), 0, self.n - 1).astype(int)
        s = x - i * dv
        k0 = self.values[i, a, b]
        dk = self.values[i + 1, a, b] - k0
        inside = (self.v_nodes[i, a, b] + self.w_nodes[i, a, b] * s
                  + 0.5 * k0 * s * s + dk * s ** 3 / (6.0 * dv))
        u = x - span
        plateau = (self.v_nodes[-1, a, b] + self.w_nodes[-1, a, b] * u
                   + 0.5 * self.lam[a, b] * u * u)
        return np.where(x <= 0.0, 0.0, np.where(x >= span, plateau, inside))


def _constant_v(mat):
    """V_ab of the constant kernel mat."""
    mat = np.asarray(mat, dtype=float)

    def v(x, a, b):
        xp = np.maximum(x, 0.0)
        return 0.5 * mat[a, b] * xp * xp
    return v


def _pairwise_cost(strategy, v):
    """Sum of r_p r_q times the corner sum of V over all ordered piece
    pairs (p, q), taken as one contraction over the flattened pieces."""
    flat = np.array([(i, p.start, p.end, p.rate)
                     for i, plist in enumerate(strategy.pieces)
                     for p in plist], dtype=float).reshape(-1, 4)
    asset = flat[:, 0].astype(int)
    start, end, rate = flat[:, 1], flat[:, 2], flat[:, 3]
    a, b = asset[:, None], asset[None, :]
    corners = (v(end[:, None] - start, a, b) - v(start[:, None] - start, a, b)
               - v(end[:, None] - end, a, b) + v(start[:, None] - end, a, b))
    return float(rate @ corners @ rate)


def _check_horizon(kernel: ImpactKernel, horizon: float):
    """Refuse a horizon past the kernel lattice unless the kernel tail has
    converged to its permanent matrix, where the plateau extension
    applies.  The horizon is compared first, so a lattice that covers it
    costs no tail evaluation."""
    if horizon > kernel.tau_max and kernel.tail_error() > kernel.tail_tol:
        raise StrategyError(
            f"horizon {horizon:g} exceeds the kernel lattice "
            f"({kernel.tau_max:g}) and the kernel tail has not converged "
            "to its permanent matrix")


def cost(strategy: Strategy, kernel: ImpactKernel) -> CostBreakdown:
    """Expected impact cost of a piecewise-constant strategy.

    Exact for the interpolated lattice kernel; the horizon may run past
    the lattice only when the kernel tail has converged to its permanent
    matrix, in which case the plateau extension applies.
    """
    d = kernel.d
    if strategy.d != d:
        raise StrategyError("strategy and kernel dimensions differ")
    _check_horizon(kernel, strategy.horizon)
    full = _KernelIntegrals(kernel.values, kernel.delta, kernel.lam)
    total = _pairwise_cost(strategy, full.v)
    permanent = _pairwise_cost(strategy, _constant_v(kernel.lam))
    return CostBreakdown(total=total, permanent=permanent,
                         transient=total - permanent)


def pair_trading_strategy(p: int, q: int, v_p: float, v_q: float, T: float,
                          d: int | None = None) -> Strategy:
    """Three-phase round trip trading assets p and q only.

    Asset p trades +v_p on [0, T/3] and -v_p on [2T/3, T]; asset q
    trades +v_q then -v_q on the first two phases.
    """
    if p == q:
        raise StrategyError("pair strategy needs two distinct assets")
    if T <= 0:
        raise StrategyError("horizon must be positive")
    if d is None:
        d = max(p, q) + 1
    pieces = [[] for _ in range(d)]
    t1, t2 = T / 3.0, 2.0 * T / 3.0
    pieces[p] = [Piece(0.0, t1, v_p), Piece(t2, T, -v_p)]
    if v_q != 0.0:
        pieces[q] = [Piece(0.0, t1, v_q), Piece(t1, t2, -v_q)]
    return Strategy(pieces=pieces, horizon=T)


def buy_hold_sell(eta, tau: float, width: float | None = None) -> Strategy:
    """Buy the portfolio eta, hold tau, sell it; narrow pieces of the
    given width approximate impulse trades."""
    eta = np.asarray(eta, dtype=float)
    if tau <= 0:
        raise StrategyError("holding time must be positive")
    if width is None:
        width = tau / 64.0
    if width <= 0 or width > tau:
        raise StrategyError("piece width must lie in (0, tau]")
    pieces = []
    for e in eta:
        if e == 0.0:
            pieces.append([])
        else:
            pieces.append([Piece(0.0, width, e / width),
                           Piece(tau, tau + width, -e / width)])
    return Strategy(pieces=pieces, horizon=tau + width)


def _snap_zero_sum(rates):
    """Quantize rates to binary rationals and zero each asset's sum exactly."""
    scale = 2.0 ** 40
    q = np.round(rates * scale) / scale
    for i in range(q.shape[1]):
        resid = -sum(Fraction(x) for x in q[:-1, i])
        q[-1, i] = float(resid)
    return q


def min_roundtrip_cost(kernel: ImpactKernel, n_steps: int, T: float):
    """Cheapest unit-energy round trip among per-asset step strategies.

    The cost of step rates f is the quadratic form Delta'^2 f^T G f with
    the symmetrized causal Gram G built from kernel samples (half weight
    on the lag-0 atom).  Minimization over the zero-net-position
    subspace is an eigenvalue problem; a negative minimum certifies a
    statistical arbitrage in this family and the witness strategy is
    returned, while a nonnegative minimum is evidence only.  A witness
    horizon that cost() would refuse raises StrategyError.
    """
    if n_steps < 2:
        raise StrategyError("need at least two steps")
    d = kernel.d
    # binary-exact step width keeps every witness piece width identical,
    # so the exact-rational round-trip flag holds by construction
    dt = round((T / n_steps) * (1 << 20)) / float(1 << 20)
    if dt <= 0:
        raise StrategyError("horizon too short for the step grid")
    # the witness spans n_steps * dt; refuse what cost() would refuse
    _check_horizon(kernel, n_steps * dt)
    blocks = np.zeros((n_steps, d, d))
    blocks[0] = 0.25 * (kernel.k0 + kernel.k0.T)
    blocks[1:] = 0.5 * kernel.value_at(np.arange(1, n_steps) * dt)
    # block (t, s) is the lag t - s of the two-sided sequence whose lag -m
    # is blocks[m]^T
    two_sided = np.concatenate([blocks[:0:-1].transpose(0, 2, 1), blocks])
    lag = np.arange(n_steps)[:, None] - np.arange(n_steps)[None, :]
    g = two_sided[lag + n_steps - 1].transpose(0, 2, 1, 3).reshape(
        n_steps * d, n_steps * d)
    g = 0.5 * (g + g.T)
    # remove the per-asset mean: u_i has 1/sqrt(n_steps) on asset i's rows
    asset = np.arange(n_steps * d) % d
    u = 1.0 / np.sqrt(n_steps)
    proj = np.eye(n_steps * d) - (asset[:, None] == asset[None, :]) * (u * u)
    m = proj @ g @ proj
    m = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(m)
    in_subspace = np.linalg.norm(proj @ eigvecs, axis=0) > 0.5
    idx = np.where(in_subspace)[0]
    best = idx[np.argmin(eigvals[idx])]
    value = float(eigvals[best]) * dt * dt
    rates = _snap_zero_sum(eigvecs[:, best].reshape(n_steps, d))
    pieces = [[] for _ in range(d)]
    for i in range(d):
        for t in range(n_steps):
            if rates[t, i] != 0.0:
                pieces[i].append(Piece(t * dt, (t + 1) * dt,
                                       float(rates[t, i])))
    witness = Strategy(pieces=pieces, horizon=n_steps * dt)
    info = {"gram_norm": float(np.linalg.norm(g, 2)),
            "step": dt, "n_steps": n_steps}
    return value, witness, info


def predict_prices(kernel: ImpactKernel, flows: BinnedSeries,
                   p0) -> np.ndarray:
    """Impact-implied price path: lattice convolution of the kernel with
    the signed flows, permanent plateau beyond the kernel support.

    The flow of bin t moves the close of bin t through the lag-0 value.
    Linear in the flows.
    """
    p0 = np.asarray(p0, dtype=float)
    d = kernel.d
    if flows.d != d:
        raise StrategyError("flow and kernel dimensions differ")
    if abs(flows.delta - kernel.delta) > 1e-9 * kernel.delta:
        raise StrategyError(
            f"flow lattice {flows.delta} does not match kernel lattice "
            f"{kernel.delta}")
    q = flows.flows
    n = q.shape[0]
    L = kernel.n_lags
    # one zero-padded transform of every (i, j) pair: no circular wrap
    n_fft = 1 << (n + L - 1).bit_length()
    spectrum = np.einsum("fij,fj->fi",
                         np.fft.rfft(kernel.values, n_fft, axis=0),
                         np.fft.rfft(q, n_fft, axis=0))
    out = p0 + np.fft.irfft(spectrum, n_fft, axis=0)[:n]
    if n > L + 1:
        lagged_cum = np.zeros((n, d))
        cum = np.cumsum(q, axis=0)
        lagged_cum[L + 1:] = cum[:n - L - 1]
        out += lagged_cum @ kernel.lam.T
    return out


def save_predicted_prices(path, times, prices):
    """Write a (n_steps, d) price path as time,asset,price_hat rows."""
    prices = np.asarray(prices, dtype=float)
    n, d = prices.shape
    _write_csv(path, ("time", "asset", "price_hat"),
               TIME_FORMAT + ",%d,%.17g",
               (np.repeat(np.asarray(times, dtype=float), d),
                np.tile(np.arange(d), n), prices.ravel()))
