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
import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from . import formats
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
        if not math.isfinite(self.horizon):
            raise StrategyError(f"horizon {self.horizon} is not finite")
        # new lists: the caller's are left as they are
        self.pieces = [sorted(plist, key=lambda p: p.start)
                       for plist in self.pieces]
        for i, ordered in enumerate(self.pieces):
            for p in ordered:
                if not (math.isfinite(p.start) and math.isfinite(p.end)
                        and math.isfinite(p.rate)):
                    raise StrategyError(f"asset {i}: non-finite piece {p}")
                if p.end <= p.start:
                    raise StrategyError(f"asset {i}: empty piece {p}")
                if p.start < 0 or p.end > self.horizon + 1e-12:
                    raise StrategyError(f"asset {i}: piece outside horizon")
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end - 1e-12:
                    raise StrategyError(f"asset {i}: overlapping pieces")

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
    permanent plateau, so piece-pair costs are exact corner sums.  Table
    row (i * d + a) * d + b holds V, W = V', k / 2 at node i of entry
    (a, b) and the rise dk of cell i: V is a cubic in the offset from the
    node.  Rows stop at the cell of the last piece end, as no offset passes
    it; row cut, k = lam and dk = 0, is the plateau if cut = n_lags."""

    def __init__(self, kernel: ImpactKernel, ends):
        self.delta = dv = float(kernel.delta)
        self.n = n = kernel.n_lags
        self.cut = cut = min(n, math.floor(np.max(ends, initial=0.0) / dv) + 1)
        k = kernel.values[:cut + 1]
        self.entries = k.shape[1] * k.shape[2]
        table = np.zeros(k.shape + (4,))
        v, w, half_k, dk = np.moveaxis(table, -1, 0)
        dk[:-1] = np.diff(k, axis=0)
        half_k[:-1] = 0.5 * k[:-1]
        half_k[cut] = 0.5 * kernel.lam
        w[1:] = np.cumsum(0.5 * dv * (k[:-1] + k[1:]), axis=0)
        v[1:] = np.cumsum(w[:-1] * dv + half_k[:-1] * dv ** 2
                          + dk[:-1] * dv ** 2 / 6.0, axis=0)
        self.table = table.reshape(-1, 4)

    def v(self, x, entry) -> np.ndarray:
        """V at the offsets x of the flat entries a * d + b, which
        broadcast with x."""
        dv = self.delta
        i = np.maximum(np.minimum(np.floor(x / dv), self.n - 1), 0.0)
        i[x >= self.n * dv] = self.cut
        s = x - i * dv
        rows = np.take(self.table, i.astype(int) * self.entries + entry,
                       axis=0)
        v, w, half_k, dk = np.moveaxis(rows, -1, 0)
        inside = v + w * s + half_k * s * s + dk * (s * s * s) / (6.0 * dv)
        return np.where(x <= 0.0, 0.0, inside)


def _constant_v(mat):
    """V of the constant kernel mat, in the signature of _KernelIntegrals.v."""
    half = 0.5 * mat.ravel()

    def v(x, entry):
        xp = np.maximum(x, 0.0)
        return half[entry] * xp * xp
    return v


def _corner_cost(v, offsets, entry, rate):
    """Sum of r_p r_q times the corner sum of V over all ordered piece
    pairs (p, q), one (P, P) corner offset array at a time."""
    corners = (v(offsets[0], entry) - v(offsets[1], entry)
               - v(offsets[2], entry) + v(offsets[3], entry))
    return float(rate @ corners @ rate)


def _check_horizon(kernel: ImpactKernel, horizon: float):
    """Refuse a horizon past the kernel lattice unless the kernel tail has
    converged to its permanent matrix, where the plateau extension
    applies.  The horizon is compared first, so a lattice that covers it
    costs no tail evaluation."""
    if horizon > kernel.tau_max and kernel.tail_check()[1]:
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
    flat = np.array([(i, p.start, p.end, p.rate)
                     for i, plist in enumerate(strategy.pieces)
                     for p in plist], dtype=float).reshape(-1, 4)
    asset = flat[:, 0].astype(int)
    start, end, rate = flat[:, 1], flat[:, 2], flat[:, 3]
    entry = asset[:, None] * d + asset[None, :]
    offsets = (end[:, None] - start, start[:, None] - start,
               end[:, None] - end, start[:, None] - end)
    total = _corner_cost(_KernelIntegrals(kernel, end).v, offsets, entry, rate)
    permanent = _corner_cost(_constant_v(kernel.lam), offsets, entry, rate)
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
    if not (math.isfinite(T) and T > 0):
        raise StrategyError("horizon must be positive and finite")
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
    if not (math.isfinite(tau) and tau > 0):
        raise StrategyError("holding time must be positive and finite")
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
    """Round rates to multiples of 2**-40 and set each asset's last step
    to minus the sum of its others, so every asset's sum is exactly 0;
    the units sum in int64, which holds any n_steps * 2**40."""
    q = np.round(rates * 2.0 ** 40)
    q[-1] = -q[:-1].astype(np.int64).sum(axis=0)
    return q / 2.0 ** 40


@functools.cache
def _zero_sum_basis(n_steps):
    """Read-only DCT-II columns k = 1..n_steps - 1: the zero-sum steps."""
    dct = math.sqrt(2.0 / n_steps) * np.cos(np.pi / n_steps * np.outer(
        np.arange(0.5, n_steps), np.arange(1, n_steps)))
    dct.flags.writeable = False
    return dct


def _roundtrip_gram(kernel: ImpactKernel, n_steps: int, T: float):
    """(zero-sum projected Gram, its basis, info) of min_roundtrip_cost."""
    if not isinstance(n_steps, numbers.Integral) or n_steps < 2:
        raise StrategyError(f"n_steps {n_steps!r} is not an integer >= 2")
    if not math.isfinite(T):
        raise StrategyError(f"horizon {T} is not finite")
    d = kernel.d
    # binary-exact step width keeps every witness piece width identical,
    # so the exact-rational round-trip flag holds by construction
    dt = round((T / n_steps) * (1 << 20)) / float(1 << 20)
    if dt <= 0:
        raise StrategyError("horizon too short for the step grid")
    # the witness spans n_steps * dt; refuse what cost() would refuse
    _check_horizon(kernel, n_steps * dt)
    blocks = 0.5 * kernel.value_at(np.arange(n_steps) * dt)
    blocks[0] = 0.25 * (kernel.k0 + kernel.k0.T)
    # g[a, b, t, s] is entry (a, b) of block (t, s), the lag t - s of the
    # two-sided sequence whose lag -m is blocks[m]^T: symmetric bitwise
    two_sided = np.concatenate([blocks[:0:-1].transpose(0, 2, 1), blocks])
    lag = np.arange(n_steps)[:, None] - np.arange(n_steps) + (n_steps - 1)
    g = two_sided.transpose(1, 2, 0)[:, :, lag]
    dct = _zero_sum_basis(n_steps)
    m = (dct.T @ g @ dct).transpose(0, 2, 1, 3).reshape(
        d * (n_steps - 1), -1)
    gram = g.transpose(0, 2, 1, 3).reshape(d * n_steps, -1)
    info = {"gram_norm": float(np.abs(np.linalg.eigvalsh(gram)).max()),
            "step": dt, "n_steps": n_steps}
    return m, dct, info


def min_roundtrip_value(kernel: ImpactKernel, n_steps: int, T: float):
    """min_roundtrip_cost's value, to roundoff in the Gram's norm, and its
    info and refusals, from the eigenvalues alone: no witness is built."""
    m, _, info = _roundtrip_gram(kernel, n_steps, T)
    return float(np.linalg.eigvalsh(m)[0]) * info["step"] * info["step"], info


def min_roundtrip_cost(kernel: ImpactKernel, n_steps: int, T: float):
    """Cheapest unit-energy round trip among per-asset step strategies.

    The cost of step rates f is Delta'^2 f^T G f with the symmetric Gram
    G of kernel samples: block (t, s) is K((t - s) Delta') / 2 below the
    diagonal, (K(0) + K(0)^T) / 4 on it.  On the zero-net-position
    subspace, spanned by the DCT-II columns k = 1..n_steps - 1 of every
    asset, the minimum is one eigenvalue problem.  A negative minimum
    certifies a statistical arbitrage in this family; a nonnegative one
    is evidence only.  The witness's lowest traded asset opens with a
    buy; info["gram_norm"] is the spectral norm of G.  A witness horizon
    that cost() would refuse raises StrategyError.
    """
    m, dct, info = _roundtrip_gram(kernel, n_steps, T)
    dt = info["step"]
    eigvals, eigvecs = np.linalg.eigh(m)
    value = float(eigvals[0]) * dt * dt
    rates = _snap_zero_sum(dct @ eigvecs[:, 0].reshape(kernel.d, -1).T)
    # the first nonzero rate of the lowest traded asset is a buy
    if rates.T[rates.T != 0.0][0] < 0.0:
        rates = -rates
    edges = (np.arange(n_steps + 1) * dt).tolist()
    pieces = [[Piece(edges[t], edges[t + 1], rate)
               for t, rate in enumerate(column) if rate != 0.0]
              for column in rates.T.tolist()]
    witness = Strategy(pieces=pieces, horizon=n_steps * dt)
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
    """Write a (n_steps, d) price path as CRLF-terminated rows
    time,asset,price_hat, one per step and asset: see
    formats.write_prices.  A path that is not 2-D, or times that are not
    one per step, are refused before the file is opened.
    """
    times = np.asarray(times, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or times.shape != prices.shape[:1]:
        raise StrategyError(
            f"times of shape {times.shape} do not fit a price path of "
            f"shape {prices.shape}: need a 2-D path and one time per step")
    formats.write_prices(path, times, prices)
