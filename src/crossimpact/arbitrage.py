"""Trading-strategy costs, round-trip constructions, arbitrage search, price prediction.

Strategies are deterministic piecewise-constant trading rates.  The
expected impact cost of a strategy f under a kernel K is the double
integral of f(t)^T K(t-s) f(s) over s < t, which is evaluated in closed
form per piece pair through the second antiderivative of the lattice
kernel (linear interpolation between lags, permanent plateau beyond).
"""
from __future__ import annotations

import csv
import dataclasses
from fractions import Fraction

import numpy as np

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

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["asset", "start", "end", "rate"])
            for i, plist in enumerate(self.pieces):
                for p in plist:
                    writer.writerow([i, f"{p.start:.17g}", f"{p.end:.17g}",
                                     f"{p.rate:.17g}"])

    @classmethod
    def from_csv(cls, path, d=None, horizon=None):
        rows = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append((int(row["asset"]), float(row["start"]),
                             float(row["end"]), float(row["rate"])))
        if d is None:
            d = max(r[0] for r in rows) + 1 if rows else 1
        pieces = [[] for _ in range(d)]
        for a, s, e, r in rows:
            pieces[a].append(Piece(s, e, r))
        if horizon is None:
            horizon = max((r[2] for r in rows), default=0.0)
        return cls(pieces=pieces, horizon=horizon)


@dataclasses.dataclass
class CostBreakdown:
    """Impact cost split: permanent is the cost under the constant
    permanent matrix alone, transient is the remainder, and immediate is
    the cost under the constant immediate matrix (informational; the
    immediate and permanent splits overlap)."""

    total: float
    permanent: float
    transient: float
    immediate: float


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

    def v(self, x) -> np.ndarray:
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


def _constant_v(mat):
    mat = np.asarray(mat, dtype=float)

    class _V:
        def v(self, x):
            if x <= 0.0:
                return np.zeros_like(mat)
            return 0.5 * mat * x * x
    return _V()


def _pairwise_cost(strategy, vfun, d):
    total = 0.0
    for i in range(d):
        for p1 in strategy.pieces[i]:
            for j in range(d):
                for p2 in strategy.pieces[j]:
                    corners = (vfun.v(p1.end - p2.start)
                               - vfun.v(p1.start - p2.start)
                               - vfun.v(p1.end - p2.end)
                               + vfun.v(p1.start - p2.end))
                    total += p1.rate * p2.rate * corners[i, j]
    return total


def cost(strategy: Strategy, kernel: ImpactKernel) -> CostBreakdown:
    """Expected impact cost of a piecewise-constant strategy.

    Exact for the interpolated lattice kernel; the horizon may run past
    the lattice only when the kernel tail has converged to its permanent
    matrix, in which case the plateau extension applies.
    """
    d = kernel.d
    if strategy.d != d:
        raise StrategyError("strategy and kernel dimensions differ")
    if strategy.horizon > kernel.tau_max and \
            kernel.tail_error() > kernel.tail_tol:
        raise StrategyError(
            "strategy horizon exceeds the kernel lattice and the kernel "
            "tail has not converged to its permanent matrix")
    full = _KernelIntegrals(kernel.values, kernel.delta, kernel.lam)
    total = _pairwise_cost(strategy, full, d)
    permanent = _pairwise_cost(strategy, _constant_v(kernel.lam), d)
    immediate = _pairwise_cost(strategy, _constant_v(kernel.k0), d)
    return CostBreakdown(total=total, permanent=permanent,
                         transient=total - permanent, immediate=immediate)


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
    returned, while a nonnegative minimum is evidence only.
    """
    if n_steps < 2:
        raise StrategyError("need at least two steps")
    d = kernel.d
    # binary-exact step width keeps every witness piece width identical,
    # so the exact-rational round-trip flag holds by construction
    dt = round((T / n_steps) * (1 << 20)) / float(1 << 20)
    if dt <= 0:
        raise StrategyError("horizon too short for the step grid")
    k0s = 0.25 * (kernel.k0 + kernel.k0.T)
    blocks = np.zeros((n_steps, d, d))
    blocks[0] = k0s
    for m in range(1, n_steps):
        km = kernel.value_at(m * dt)
        blocks[m] = 0.5 * km
    g = np.zeros((n_steps * d, n_steps * d))
    for t in range(n_steps):
        for s in range(n_steps):
            if t >= s:
                b = blocks[t - s]
            else:
                b = blocks[s - t].T
            g[t * d:(t + 1) * d, s * d:(s + 1) * d] = b
    g = 0.5 * (g + g.T)
    proj = np.eye(n_steps * d)
    for i in range(d):
        u = np.zeros(n_steps * d)
        u[i::d] = 1.0 / np.sqrt(n_steps)
        proj -= np.outer(u, u)
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


def predict_prices(kernel: ImpactKernel, flows: BinnedSeries, p0,
                   resample: bool = False) -> np.ndarray:
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
        if not resample:
            raise StrategyError(
                f"flow lattice {flows.delta} does not match kernel lattice "
                f"{kernel.delta}; pass resample=True to interpolate")
        n_res = max(int(np.floor(kernel.tau_max / flows.delta)), 1)
        values = np.stack([kernel.value_at(m * flows.delta)
                           for m in range(n_res + 1)])
    else:
        values = kernel.values
    q = flows.flows
    n = q.shape[0]
    L = values.shape[0] - 1
    # one zero-padded transform of every (i, j) pair: no circular wrap
    n_fft = 1 << (n + L - 1).bit_length()
    spectrum = np.einsum("fij,fj->fi", np.fft.rfft(values, n_fft, axis=0),
                         np.fft.rfft(q, n_fft, axis=0))
    out = p0 + np.fft.irfft(spectrum, n_fft, axis=0)[:n]
    if n > L + 1:
        lagged_cum = np.zeros((n, d))
        cum = np.cumsum(q, axis=0)
        lagged_cum[L + 1:] = cum[:n - L - 1]
        out += lagged_cum @ kernel.lam.T
    return out


def save_predicted_prices(path, times, prices):
    prices = np.asarray(prices)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "asset", "price_hat"])
        for t, row in zip(times, prices):
            for a, p in enumerate(row):
                writer.writerow([f"{t:.9f}", a, f"{p:.17g}"])
