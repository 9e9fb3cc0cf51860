"""Binning of event/price data and estimation of flow and return covariances.

Events and prices are aggregated on a uniform lattice of width delta.
Per-day estimates of the return covariance sigma and the signed-flow lag
covariances omega(tau) are averaged with equal weights across days.  The
bin width is the unit of time for everything downstream.
"""
from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .formats import load_artifact, read_csv, save_artifact

if TYPE_CHECKING:
    from .hawkes import EventStream

# a negative eigenvalue of an estimated covariance down to NEG_TOL of its
# scale is estimation noise and is clipped; a larger one is refused
NEG_TOL = 1e-8
# omega_inf's eigenvalues are at least OMEGA_FLOOR of its trace
OMEGA_FLOOR = 1e-12


class ObservablesError(ValueError):
    pass


@dataclasses.dataclass
class PricePath:
    """Mid prices: row k holds each asset's price in force at times[k]."""

    times: np.ndarray    # (m,), increasing
    prices: np.ndarray   # (m, d)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)

    @property
    def d(self):
        return self.prices.shape[1]

    def __len__(self):
        return len(self.times)

    @classmethod
    def from_csv(cls, path, d=None):
        """The table of rows time,asset,price in any order.  Of an asset's
        rows at one time the last listed counts, and its first before."""
        rows = read_csv(path, [("time", float), ("asset", int),
                               ("price", float)])
        if not (np.isfinite(rows["time"]).all()
                and np.isfinite(rows["price"]).all()):
            raise ObservablesError("price times and prices must be finite")
        rows = rows[np.lexsort((rows["time"], rows["asset"]))]
        times, assets, prices = rows["time"], rows["asset"], rows["price"]
        if d is None:
            d = int(assets[-1]) + 1 if len(assets) else 1
        if len(assets) and not 0 <= assets[0] <= assets[-1] < d:
            raise ObservablesError(f"assets {assets[0]}..{assets[-1]} are "
                                   f"not all in 0..{d - 1}")
        grid = np.unique(times)
        table = np.empty((len(grid), d))
        bounds = np.searchsorted(assets, np.arange(d + 1))
        for a, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo == hi:
                raise ObservablesError(f"no prices for asset {a}")
            pos = np.searchsorted(times[lo:hi], grid, side="right") - 1
            table[:, a] = prices[lo:hi][np.maximum(pos, 0)]
        return cls(times=grid, prices=table)


@dataclasses.dataclass
class BinnedSeries:
    """Net signed flow per bin and, for a priced day, each bin's return."""

    delta: float
    flows: np.ndarray                   # (n_bins, d), contract units
    returns: np.ndarray | None = None   # (n_bins, d)

    @property
    def n_bins(self):
        return self.flows.shape[0]

    @property
    def d(self):
        return self.flows.shape[1]


def bin_events(stream: EventStream, prices: PricePath | None, delta: float,
               t_start: float = 0.0,
               t_end: float | None = None) -> BinnedSeries:
    """Aggregate signed flow and price changes on bins of width delta.

    A bin's return is the change of the prices in force at its edges, so
    an empty bin has zero return.  A start/end pair trims session edges
    before binning.  prices may be None when only flows are needed.
    """
    if delta <= 0:
        raise ObservablesError("bin width must be positive")
    if t_end is None:
        t_end = stream.horizon
    if t_end <= t_start:
        raise ObservablesError("empty time window")
    if prices is not None and len(prices) == 0:
        raise ObservablesError("empty price path")
    if prices is not None and prices.times[-1] < min(
            t_end, stream.times[-1] if len(stream) else t_start):
        raise ObservablesError("price path is shorter than the event stream")
    if prices is not None and prices.d != stream.d:
        raise ObservablesError(f"price path has {prices.d} assets, but the "
                               f"event stream has {stream.d}")
    n_bins = int(np.floor((t_end - t_start) / delta + 1e-9))
    if n_bins < 1:
        raise ObservablesError("window shorter than one bin")
    mask = (stream.times > t_start) & (stream.times <= t_start + n_bins * delta)
    idx = np.ceil((stream.times[mask] - t_start) / delta).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # one scatter over the flattened (bin, asset) table, in event order;
    # numpy counts no events in int64
    flows = np.bincount(idx * stream.d + stream.assets[mask],
                        weights=stream.sides[mask] * stream.sizes[mask],
                        minlength=n_bins * stream.d).astype(float, copy=False)
    flows = flows.reshape(n_bins, stream.d)
    if prices is None:
        return BinnedSeries(delta=delta, flows=flows)
    edges = t_start + delta * np.arange(n_bins + 1)
    # the table row in force at each edge; its first row before it
    pos = np.maximum(np.searchsorted(prices.times, edges, "right") - 1, 0)
    return BinnedSeries(delta=delta, flows=flows,
                        returns=np.diff(prices.prices[pos], axis=0))


def estimate_sigma(series: list) -> np.ndarray:
    """Average of per-day return covariances (1/(T-1)) sum r_t r_t^T.

    A day binned without prices or of fewer than 2 bins has no return
    covariance and raises, naming the day by its position.  Prices that
    never move give no impact to calibrate: zero trace raises.
    """
    if not series:
        raise ObservablesError("no binned series")
    mats = []
    for day, s in enumerate(series):
        r = s.returns
        if r is None:
            raise ObservablesError(f"day {day}: binned without prices")
        if r.shape[0] < 2:
            raise ObservablesError(f"day {day}: {r.shape[0]} bins < 2, "
                                   "no return covariance")
        mats.append(r.T @ r / (r.shape[0] - 1))
    sigma = np.mean(mats, axis=0)
    if np.trace(sigma) == 0:
        raise ObservablesError("return covariance has zero trace: no "
                               "price moves in any day")
    return 0.5 * (sigma + sigma.T)


def estimate_omega(series: list, tau_max: int) -> np.ndarray:
    """Per-day lag covariances omega(tau) = (1/T) sum q_{t+tau} q_t^T.

    The biased 1/T normalization keeps Bartlett-tapered spectral
    estimates positive semi-definite.  A day shorter than tau_max + 2
    bins raises, naming the day by its position: every day counted is
    in both estimators.
    """
    if not series:
        raise ObservablesError("no binned series")
    d = series[0].d
    acc = np.zeros((tau_max + 1, d, d))
    for day, s in enumerate(series):
        q = s.flows
        n = q.shape[0]
        if n < tau_max + 2:
            raise ObservablesError(f"tau_max too large for day {day}: "
                                   f"{n} bins < {tau_max + 2}")
        lags = np.zeros_like(acc)
        for tau in range(tau_max + 1):
            lags[tau] = q[tau:].T @ q[:n - tau] / n
        acc += lags
    return acc / len(series)


def taper_weights(tau_max: int) -> np.ndarray:
    """Bartlett lag weights w_0..w_tau_max."""
    return 1.0 - np.arange(tau_max + 1) / (tau_max + 1.0)


def omega_aggregates(omega):
    """Aggregate lag covariances into (omega_zero, omega_inf).

    omega_inf is the lattice zero-frequency value omega(0) +
    sum_tau w_tau (omega(tau) + omega(tau)^T), symmetrized, then _definite.
    """
    omega = np.asarray(omega, dtype=float)
    tau_max = omega.shape[0] - 1
    w = taper_weights(tau_max)
    omega_zero = 0.5 * (omega[0] + omega[0].T)
    # the sum along the lag axis adds in lag order
    terms = np.empty_like(omega)
    terms[0] = omega_zero
    terms[1:] = w[1:, None, None] * (omega[1:] + omega[1:].transpose(0, 2, 1))
    agg = terms.sum(axis=0)
    return omega_zero, _definite(0.5 * (agg + agg.T))


def _definite(agg):
    """Symmetric agg with eigenvalues below OMEGA_FLOOR of its trace raised
    to it; one below -NEG_TOL of its scale raises (insufficient data)."""
    eigvals, eigvecs = np.linalg.eigh(agg)
    if eigvals.min() < -NEG_TOL * max(np.trace(agg), np.abs(eigvals).max()):
        raise ObservablesError(
            f"aggregate flow covariance strongly indefinite "
            f"(min eigenvalue {eigvals.min():.3e}); not enough data")
    floor = OMEGA_FLOOR * max(np.trace(agg), 1e-300)
    if eigvals.min() < floor:
        agg = eigvecs @ np.diag(np.maximum(eigvals, floor)) @ eigvecs.T
        agg = 0.5 * (agg + agg.T)
    return agg


@dataclasses.dataclass
class ObservableSet:
    """Estimated observables on the lag lattice plus sample metadata."""

    sigma: np.ndarray
    omega: np.ndarray          # (tau_max+1, d, d)
    omega_zero: np.ndarray
    omega_inf: np.ndarray
    delta: float
    n_days: int
    n_bins: int

    @property
    def d(self):
        return self.sigma.shape[0]

    @property
    def tau_max(self):
        return self.omega.shape[0] - 1

    def residual_noise(self) -> float:
        """Two standard errors of the relative grid distance between the
        tapered spectrum estimate and the flow's spectrum, from sampling
        alone: Var R_ij(w) is (R_ii R_jj + |R_ij|^2) sum w_tau^2 / n_bins
        for a lag-window estimate, |tau| <= tau_max, and the sum over i, j
        is at most (d + 1) |R|^2.  0 for exact lags (n_bins 0)."""
        if self.n_bins == 0:
            return 0.0
        weights = taper_weights(self.tau_max)
        window = 2.0 * np.sum(weights ** 2) - weights[0] ** 2
        return float(2.0 * np.sqrt((self.d + 1) * window / self.n_bins))


def build_observables(series: list, tau_max: int) -> ObservableSet:
    """Pooled observables of days; one binned at another width is refused."""
    for day, s in enumerate(series[1:], 1):
        if s.delta != series[0].delta:
            raise ObservablesError(f"day {day}: bin width {s.delta:g}, but "
                                   f"day 0 has {series[0].delta:g}")
    sigma = estimate_sigma(series)
    omega = estimate_omega(series, tau_max)
    omega_zero, omega_inf = omega_aggregates(omega)
    n_bins = sum(s.n_bins for s in series)
    return ObservableSet(sigma=sigma, omega=omega, omega_zero=omega_zero,
                         omega_inf=omega_inf, delta=series[0].delta,
                         n_days=len(series), n_bins=n_bins)


def tapered_lags(omega) -> np.ndarray:
    """Lag covariances weighted by the Bartlett taper: the causal lags of
    the tapered lattice spectral density."""
    omega = np.asarray(omega, dtype=float)
    return taper_weights(omega.shape[0] - 1)[:, None, None] * omega


def save_observables(directory, obs: ObservableSet):
    save_artifact(directory, {"delta": obs.delta, "n_days": obs.n_days,
                              "n_bins": obs.n_bins},
                  sigma=obs.sigma, omega=obs.omega, omega_zero=obs.omega_zero,
                  omega_inf=obs.omega_inf)


def load_observables(directory) -> ObservableSet:
    meta, arrays = load_artifact(
        directory, keys=("delta", "n_days", "n_bins"),
        names=("sigma", "omega", "omega_zero", "omega_inf"))
    return ObservableSet(sigma=arrays["sigma"], omega=arrays["omega"],
                         omega_zero=arrays["omega_zero"],
                         omega_inf=_definite(arrays["omega_inf"]),
                         delta=meta["delta"],
                         n_days=meta["n_days"], n_bins=meta["n_bins"])
