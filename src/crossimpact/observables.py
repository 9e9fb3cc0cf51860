"""Binning of event/price data and estimation of flow and return covariances.

Events and prices are aggregated on a uniform lattice of width delta.
Per-day estimates of the return covariance sigma and the signed-flow lag
covariances omega(tau) are averaged with equal weights across days.  The
bin width is the unit of time for everything downstream.
"""
from __future__ import annotations

import dataclasses
import json
import pathlib
import warnings

import numpy as np

from .hawkes import TIME_FORMAT, EventStream, _read_csv, _write_csv


class ObservablesError(ValueError):
    pass


@dataclasses.dataclass
class PricePath:
    """Sampled mid prices: parallel (time, asset, price) columns."""

    times: np.ndarray
    assets: np.ndarray
    prices: np.ndarray
    d: int

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.assets = np.asarray(self.assets, dtype=int)
        self.prices = np.asarray(self.prices, dtype=float)

    def __len__(self):
        return len(self.times)

    def to_csv(self, path):
        _write_csv(path, ("time", "asset", "price"),
                   TIME_FORMAT + ",%d,%.17g",
                   (self.times, self.assets, self.prices))

    @classmethod
    def from_csv(cls, path, d=None):
        rows = _read_csv(path, [("time", float), ("asset", int),
                               ("price", float)])
        assets = rows["asset"]
        if d is None:
            d = int(assets.max()) + 1 if len(assets) else 1
        return cls(times=rows["time"], assets=assets, prices=rows["price"],
                   d=d)


@dataclasses.dataclass
class BinnedSeries:
    """Per-bin open/close prices and net signed flow on a uniform lattice."""

    delta: float
    open_prices: np.ndarray   # (n_bins, d)
    close_prices: np.ndarray  # (n_bins, d)
    flows: np.ndarray         # (n_bins, d), contract units
    day: int = 0

    @property
    def n_bins(self):
        return self.flows.shape[0]

    @property
    def d(self):
        return self.flows.shape[1]

    @property
    def returns(self):
        return self.close_prices - self.open_prices


def bin_events(stream: EventStream, prices: PricePath | None, delta: float,
               t_start: float = 0.0, t_end: float | None = None,
               day: int = 0) -> BinnedSeries:
    """Aggregate signed flow and open/close prices on bins of width delta.

    Empty bins carry the last close forward as both open and close, so
    they contribute zero return.  Passing a start/end pair trims session
    edges before binning.  prices may be None when only flows are needed.
    """
    if delta <= 0:
        raise ObservablesError("bin width must be positive")
    if t_end is None:
        t_end = stream.horizon
    if t_end <= t_start:
        raise ObservablesError("empty time window")
    if prices is not None and len(prices) == 0:
        raise ObservablesError("empty price path")
    if prices is not None and len(prices) and \
            prices.times.max() < min(t_end, stream.times.max()
                                     if len(stream) else t_start):
        raise ObservablesError("price path is shorter than the event stream")
    n_bins = int(np.floor((t_end - t_start) / delta + 1e-9))
    if n_bins < 1:
        raise ObservablesError("window shorter than one bin")
    d = stream.d
    flows = np.zeros((n_bins, d))
    mask = (stream.times > t_start) & (stream.times <= t_start + n_bins * delta)
    idx = np.ceil((stream.times[mask] - t_start) / delta).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    np.add.at(flows, (idx, stream.assets[mask]),
              stream.sides[mask] * stream.sizes[mask])
    opens = np.zeros((n_bins, d))
    closes = np.zeros((n_bins, d))
    if prices is None:
        return BinnedSeries(delta=delta, open_prices=opens,
                            close_prices=closes, flows=flows, day=day)
    order = np.argsort(prices.times, kind="stable")
    pt, pa, pv = (prices.times[order], prices.assets[order],
                  prices.prices[order])
    for a in range(d):
        sel = pa == a
        ta, va = pt[sel], pv[sel]
        if len(ta) == 0:
            raise ObservablesError(f"no prices for asset {a}")
        edges = t_start + delta * np.arange(n_bins + 1)
        # last observation at or before each edge, first price before start
        pos = np.searchsorted(ta, edges, side="right") - 1
        pos = np.clip(pos, 0, len(ta) - 1)
        at_edges = va[pos]
        opens[:, a] = at_edges[:-1]
        closes[:, a] = at_edges[1:]
    return BinnedSeries(delta=delta, open_prices=opens, close_prices=closes,
                        flows=flows, day=day)


def estimate_sigma(series: list) -> np.ndarray:
    """Average of per-day return covariances (1/(T-1)) sum r_t r_t^T.

    Prices that never move give no impact to calibrate: a covariance of
    zero trace raises.
    """
    if not series:
        raise ObservablesError("no binned series")
    mats = []
    for s in series:
        r = s.returns
        if r.shape[0] < 2:
            continue
        mats.append(r.T @ r / (r.shape[0] - 1))
    if not mats:
        raise ObservablesError("need at least 2 bins in some day")
    sigma = np.mean(mats, axis=0)
    if np.trace(sigma) == 0:
        raise ObservablesError("return covariance has zero trace: no "
                               "price moves in any day")
    return 0.5 * (sigma + sigma.T)


def estimate_omega(series: list, tau_max: int) -> np.ndarray:
    """Per-day lag covariances omega(tau) = (1/T) sum q_{t+tau} q_t^T.

    The biased 1/T normalization keeps Bartlett-tapered spectral
    estimates positive semi-definite.  Days shorter than tau_max + 2
    bins are dropped with a warning.
    """
    if not series:
        raise ObservablesError("no binned series")
    d = series[0].d
    acc = np.zeros((tau_max + 1, d, d))
    used = 0
    for s in series:
        q = s.flows
        n = q.shape[0]
        if n < tau_max + 2:
            warnings.warn(f"day {s.day}: {n} bins < tau_max + 2, dropped")
            continue
        day = np.zeros_like(acc)
        for tau in range(tau_max + 1):
            day[tau] = q[tau:].T @ q[:n - tau] / n
        acc += day
        used += 1
    if used == 0:
        raise ObservablesError("tau_max too large for every day")
    return acc / used


def taper_weights(taper: str, tau_max: int) -> np.ndarray:
    """Lag weights w_0..w_tau_max of a taper policy ("bartlett" or "none")."""
    if taper == "bartlett":
        return 1.0 - np.arange(tau_max + 1) / (tau_max + 1.0)
    if taper == "none":
        return np.ones(tau_max + 1)
    raise ObservablesError(f"unknown taper policy {taper!r}")


def omega_aggregates(omega, taper: str = "bartlett",
                     neg_tol: float = 1e-8):
    """Aggregate lag covariances into (omega_zero, omega_inf).

    omega_inf is the lattice zero-frequency value omega(0) +
    sum_tau w_tau (omega(tau) + omega(tau)^T), symmetrized; small
    negative eigenvalues from estimation noise are clipped, larger
    violations raise (insufficient data).
    """
    omega = np.asarray(omega, dtype=float)
    tau_max = omega.shape[0] - 1
    w = taper_weights(taper, tau_max)
    omega_zero = 0.5 * (omega[0] + omega[0].T)
    agg = omega_zero.copy()
    for tau in range(1, tau_max + 1):
        agg += w[tau] * (omega[tau] + omega[tau].T)
    agg = 0.5 * (agg + agg.T)
    eigvals, eigvecs = np.linalg.eigh(agg)
    floor = -neg_tol * max(np.trace(agg), np.abs(eigvals).max())
    if eigvals.min() < floor:
        raise ObservablesError(
            f"aggregate flow covariance strongly indefinite "
            f"(min eigenvalue {eigvals.min():.3e}); not enough data")
    if eigvals.min() < 0:
        agg = eigvecs @ np.diag(np.maximum(eigvals, 0.0)) @ eigvecs.T
        agg = 0.5 * (agg + agg.T)
    return omega_zero, agg


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
    taper: str = "bartlett"

    @property
    def d(self):
        return self.sigma.shape[0]

    @property
    def tau_max(self):
        return self.omega.shape[0] - 1


def build_observables(series: list, tau_max: int,
                      taper: str = "bartlett") -> ObservableSet:
    sigma = estimate_sigma(series)
    omega = estimate_omega(series, tau_max)
    omega_zero, omega_inf = omega_aggregates(omega, taper=taper)
    n_bins = sum(s.n_bins for s in series)
    return ObservableSet(sigma=sigma, omega=omega, omega_zero=omega_zero,
                         omega_inf=omega_inf, delta=series[0].delta,
                         n_days=len(series), n_bins=n_bins, taper=taper)


def tapered_lags(omega, taper: str = "bartlett") -> np.ndarray:
    """Lag covariances weighted by the taper: the causal lags of the
    tapered lattice spectral density."""
    omega = np.asarray(omega, dtype=float)
    return taper_weights(taper, omega.shape[0] - 1)[:, None, None] * omega


# ---------------------------------------------------------------------------
# Serialization: an artifact is a directory holding arrays.npz (its arrays,
# by name) and meta.json (its scalars and diagnostics)
# ---------------------------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def save_artifact(directory, meta: dict, **arrays):
    """Write arrays to directory/arrays.npz and meta to directory/meta.json.

    The npz is uncompressed and its members carry zip's fixed default
    date, so equal inputs give equal bytes.  Every other file in the
    directory, such as one left by an earlier format, is deleted.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / "arrays.npz", **arrays)
    (directory / "meta.json").write_text(json.dumps(_json_safe(meta),
                                                    sort_keys=True, indent=1))
    for path in directory.iterdir():
        if path.is_file() and path.name not in ("arrays.npz", "meta.json"):
            path.unlink()


def load_artifact(directory):
    """(meta, arrays) of an artifact directory; object arrays are refused."""
    directory = pathlib.Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    with np.load(directory / "arrays.npz", allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return meta, arrays


def save_observables(directory, obs: ObservableSet):
    save_artifact(directory, {"delta": obs.delta, "taper": obs.taper,
                              "n_days": obs.n_days, "n_bins": obs.n_bins},
                  sigma=obs.sigma, omega=obs.omega, omega_zero=obs.omega_zero,
                  omega_inf=obs.omega_inf)


def load_observables(directory) -> ObservableSet:
    meta, arrays = load_artifact(directory)
    return ObservableSet(sigma=arrays["sigma"], omega=arrays["omega"],
                         omega_zero=arrays["omega_zero"],
                         omega_inf=arrays["omega_inf"], delta=meta["delta"],
                         n_days=meta["n_days"], n_bins=meta["n_bins"],
                         taper=meta["taper"])
