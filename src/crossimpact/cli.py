"""Batch front door: simulate -> estimate -> calibrate -> check -> predict.

Every run is driven by a JSON config with explicit tolerances, echoed
into the diagnostics report, and is deterministic given its seed.  Exit
codes: 0 success, 1 admissibility failure (check), 2 input error,
3 numerical stage failure.
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import pathlib
import sys

import numpy as np

from . import arbitrage, hawkes, kernels, observables, polymat

ENV_CONFIG = "CROSSIMPACT_CONFIG"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(ValueError):
    """A fault of the config or its data files (exit 2)."""


class StageError(RuntimeError):
    """A numerical failure of a calibration stage (exit 3)."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")


# the JSON values a RunConfig field of each annotated type takes; no
# field takes a bool
CONFIG_TYPES = {"int": (int, "an integer"),
                "float": ((int, float), "a number"),
                "str": (str, "a string"),
                "dict | None": ((dict, type(None)), "an object or null"),
                "list | None": ((list, type(None)), "a list or null")}


@dataclasses.dataclass
class RunConfig:
    spec: dict | None = None
    events: list | None = None
    prices: list | None = None
    delta: float = 1.0
    tau_max: int = 128
    grid: int = 4096
    seed: int = 0
    horizon: float = 2000.0
    n_days: int = 8
    taper: str = "bartlett"
    trim: float = 0.0
    p0: list | None = None
    impact_scale: float = 1.0
    lam: list | None = None
    factor_tol: float = polymat.FACTOR_TOL
    tail_tol: float = 1e-3
    nsa_tol: float = 1e-6
    factor_residual_bound: float = 1e-4
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path):
        raw = json.loads(pathlib.Path(path).read_text())
        if not isinstance(raw, dict) or \
                not isinstance(raw.get("tolerances", {}), dict):
            raise InputError("a config and its tolerances are JSON objects")
        raw.update(raw.pop("tolerances", {}))
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        types["lambda"] = types["lam"]
        unknown = set(raw) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            allowed, kind = CONFIG_TYPES[types[key]]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise InputError(f"config key {key!r} must be {kind}, "
                                 f"not {value!r}")
        if "lambda" in raw:
            raw["lam"] = raw.pop("lambda")
        cfg = cls(**raw)
        for tol_name in ("delta", "factor_tol", "tail_tol", "nsa_tol",
                         "factor_residual_bound"):
            if getattr(cfg, tol_name) <= 0:
                raise ValueError(f"{tol_name} must be positive")
        if cfg.n_days < 1:
            raise InputError(f"n_days must be at least 1, not {cfg.n_days}")
        if cfg.spec is not None and (cfg.events is not None
                                     or cfg.prices is not None):
            raise ValueError("config must carry either a spec or data "
                             "paths, not both")
        return cfg

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        return observables._json_safe(out)


def parse_spec(blob) -> hawkes.HawkesSpec:
    if "mu" not in blob:
        raise InputError("spec needs mu, one baseline intensity per asset")
    mu = np.asarray(blob["mu"], dtype=float)
    return hawkes.HawkesSpec.from_blocks(
        mu, blob.get("sizes", np.ones_like(mu)), blob.get("blocks", {}))


def _default_lambda(spec, cfg) -> np.ndarray:
    if cfg.lam is not None:
        return np.asarray(cfg.lam, dtype=float)
    d = spec.d
    dv = np.diag(spec.sizes)
    dv_inv = np.diag(1.0 / spec.sizes)
    mat = np.eye(d) - hawkes.imbalance_l1(spec)
    return cfg.impact_scale * dv @ mat @ dv_inv


# exp(600) is about 1e260: one scaled cumsum block cannot overflow
DECAY_BLOCK_EXPONENT = 600.0


def _decayed_counts(times, signed, beta):
    """Rows S_n = sum_{m <= n} signed_m exp(-beta (t_n - t_m)).

    Each block of events within DECAY_BLOCK_EXPONENT / beta of its first
    event is one cumsum scaled by exp(beta (t - t_first)); the sum at the
    end of a block decays into the next.
    """
    out = np.empty_like(signed)
    carry = np.zeros(signed.shape[1])
    start, n = 0, len(times)
    while start < n:
        t0 = times[start]
        stop = int(np.searchsorted(times, t0 + DECAY_BLOCK_EXPONENT / beta,
                                   side="right"))
        grow = np.exp(beta * (times[start:stop] - t0))[:, None]
        out[start:stop] = (np.cumsum(signed[start:stop] * grow, axis=0)
                           + carry) / grow
        if stop < n:
            carry = out[stop - 1] * np.exp(-beta * (times[stop]
                                                    - times[stop - 1]))
        start = stop
    return out


def _event_prices(spec, stream, lam, p0) -> observables.PricePath:
    """Exact event-time prices of the decay-law kernel along a stream.

    The kernel splits as lam plus exponential transients, so per decay
    rate the decayed signed counts of each source asset give the exact
    price at every jump.
    """
    d, n = spec.d, len(stream)
    k0 = hawkes.analytic_kernel(spec, lam, 1.0, 0).k0
    loading = k0 * spec.sizes   # price response to per-source decayed counts
    signs = np.zeros((n, d))
    signs[np.arange(n), stream.assets] = stream.sides
    prices = p0 + np.cumsum(signs * stream.sizes[:, None], axis=0) @ lam.T
    i, j, betas, alphas = spec.imbalance_terms().T
    rates = sorted(set(betas.tolist()))
    weights = np.zeros((len(rates), d, d))
    weights[np.searchsorted(rates, betas), i.astype(int), j.astype(int)] = \
        alphas / betas
    for beta, w in zip(rates, weights):
        prices += _decayed_counts(stream.times, signs, beta) \
            @ (loading @ w).T
    return observables.PricePath(times=np.repeat(stream.times, d),
                                 assets=np.tile(np.arange(d), n),
                                 prices=prices.ravel(), d=d)


def _valid_spec(cfg):
    """The config's spec and its validation report.  A spec that cannot
    be parsed, or that validate_spec does not pass, is an input error;
    so are a lambda or p0 that do not fit its assets."""
    if cfg.spec is None:
        raise InputError("simulate needs a hawkes spec in config")
    spec = parse_spec(cfg.spec)
    report = hawkes.validate_spec(spec)
    if not report.ok:
        raise InputError("invalid spec: " + "; ".join(report.messages))
    d = spec.d
    for key, value, shape in (("lambda", cfg.lam, (d, d)),
                              ("p0", cfg.p0, (d,))):
        if value is not None and np.shape(value) != shape:
            raise InputError(f"{key} has shape {np.shape(value)}, not "
                             f"{shape} for the spec's {d} assets")
    return spec, report


def _simulated_days(cfg, spec, report, out):
    """Simulate the config's days; write each day's event CSV under out,
    then yield its stream.  The manifest follows the last day."""
    if cfg.horizon == 0:
        print("warning: zero horizon, writing empty streams", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    for day in range(cfg.n_days):
        stream = hawkes.simulate(spec, cfg.horizon, cfg.seed + day)
        stream.to_csv(out / f"events_{day:03d}.csv")
        yield stream
    manifest = {"n_days": cfg.n_days, "config": cfg.echo(),
                "validation": dataclasses.asdict(report)}
    (out / "manifest.json").write_text(json.dumps(
        observables._json_safe(manifest), sort_keys=True, indent=1))


def _priced_days(cfg, spec, streams):
    """(stream, prices) of each simulated stream: the prices are
    _event_prices under the spec, lam from _default_lambda and p0, the
    config's or 100 per asset.  A spec-mode day's prices are derived
    this way, both as it is simulated and as it is read back."""
    lam = _default_lambda(spec, cfg)
    p0 = np.asarray(cfg.p0 if cfg.p0 is not None else [100.0] * spec.d,
                    dtype=float)
    for stream in streams:
        yield stream, _event_prices(spec, stream, lam, p0)


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    spec, report = _valid_spec(cfg)
    # drain without holding a finished day while the next is simulated
    collections.deque(_simulated_days(cfg, spec, report,
                                      pathlib.Path(out_dir)), maxlen=0)
    return EXIT_OK


def _event_files(data_dir):
    """Each events_NNN.csv under data_dir, in day order; none is an input
    error."""
    event_files = sorted(data_dir.glob("events_*.csv"))
    if not event_files:
        raise InputError(f"no events_*.csv under {data_dir}")
    return event_files


def _load_day_files(cfg, out_dir):
    """The (events, prices) file pair of each data-path day: the config's
    lists, or each events_NNN.csv under out_dir with its prices_NNN.csv.
    Lists without an event file, lists of unequal length and a day
    without its price file are input errors."""
    if cfg.events is not None or cfg.prices is not None:
        event_files = [pathlib.Path(p) for p in cfg.events or []]
        price_files = [pathlib.Path(p) for p in cfg.prices or []]
        if not event_files:
            raise InputError("config lists no event files")
        if len(price_files) != len(event_files):
            raise InputError(f"config lists {len(event_files)} event files "
                             f"but {len(price_files)} price files")
    else:
        data_dir = pathlib.Path(out_dir)
        event_files = _event_files(data_dir)
        price_files = [data_dir / ef.name.replace("events_", "prices_")
                       for ef in event_files]
    for f in event_files + price_files:
        if not f.exists():
            raise InputError(f"missing data file {f}")
    return list(zip(event_files, price_files))


# the config keys that, with a day's events, fix its simulated prices
PRICE_KEYS = ("spec", "lam", "impact_scale", "p0")


def _simulated_event_files(cfg, out_dir):
    """Each events_NNN.csv that simulate wrote under out_dir.  Their
    prices are derived from the config, so the directory's manifest must
    record the config's PRICE_KEYS; a missing manifest, or one that
    records other values, is an input error."""
    data_dir = pathlib.Path(out_dir)
    path = data_dir / "manifest.json"
    echo = cfg.echo()
    try:
        recorded = json.loads(path.read_text())["config"]
        differ = [key for key in PRICE_KEYS if recorded[key] != echo[key]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: no simulation manifest to derive the "
                         f"prices from ({exc})") from exc
    if differ:
        raise InputError(f"{path} records another {', '.join(differ)} than "
                         "the config; the simulated prices cannot be "
                         "derived")
    return _event_files(data_dir)


def _read(reader, path, **kwargs):
    """reader(path, **kwargs); a file that cannot be read is an input
    error."""
    try:
        return reader(path, **kwargs)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_day(ef, pf):
    """(stream, prices) of one data-path day.  An event CSV on its own
    ends at its last event."""
    stream = _read(hawkes.EventStream.from_csv, ef)
    return stream, _read(observables.PricePath.from_csv, pf, d=stream.d)


def _bin_one_day(cfg, day, stream, prices):
    """One day binned on the config's trimmed window; a window or price
    path that cannot be binned is an input error."""
    t_end = stream.horizon if stream.horizon > 0 else \
        (stream.times[-1] if len(stream) else cfg.delta)
    try:
        return observables.bin_events(stream, prices, cfg.delta,
                                      t_start=cfg.trim,
                                      t_end=t_end - cfg.trim, day=day)
    except observables.ObservablesError as exc:
        raise InputError(exc) from exc


def _read_days(cfg, out_dir):
    """(stream, prices) of each day, read as it is reached.  With a spec,
    the days are the event CSVs that simulate wrote under out_dir: each
    spans the horizon it was simulated on, and its prices are derived
    from its events as simulate derived them."""
    if cfg.spec is None:
        return (_read_day(ef, pf) for ef, pf in _load_day_files(cfg, out_dir))
    spec, _ = _valid_spec(cfg)
    return _priced_days(cfg, spec, (
        _read(hawkes.EventStream.from_csv, ef, d=spec.d, horizon=cfg.horizon)
        for ef in _simulated_event_files(cfg, out_dir)))


def _estimate(cfg, days, out):
    """Bin the (stream, prices) days, then build and save their
    observables under out; returns them with day 0's event stream.
    Days that build_observables cannot use fail stage estimate."""
    series = []
    for day, (stream, prices) in enumerate(days):
        series.append(_bin_one_day(cfg, day, stream, prices))
        if day == 0:
            day0 = stream
        # the next day is simulated or read without this one
        del stream, prices
    try:
        obs = observables.build_observables(series, cfg.tau_max,
                                            taper=cfg.taper)
    except observables.ObservablesError as exc:
        raise StageError("estimate", exc) from exc
    observables.save_observables(out / "observables", obs)
    return obs, day0


def cmd_estimate(cfg: RunConfig, out_dir) -> int:
    obs, _ = _estimate(cfg, _read_days(cfg, out_dir), pathlib.Path(out_dir))
    print(f"estimated observables from {obs.n_days} days, "
          f"{obs.n_bins} bins")
    return EXIT_OK


def _k1_health(k1, tail_tol):
    """K1's health block for diagnostics.json, and the faults that make
    its verdict "degraded" (none for "ok")."""
    tail = k1.diagnostics["tail_error"]
    faults = []
    if not tail <= tail_tol:       # a NaN tail error is a fault too
        faults.append(f"tail error {tail:.2e} > tol {tail_tol:.2e}")
    return {"tail_error": tail, "tail_tol": tail_tol,
            "verdict": "degraded" if faults else "ok"}, faults


def _calibrate(cfg: RunConfig, out_dir):
    """Run calibrate into out_dir; returns (K1, K2, day 0's event stream).

    Input faults are raised before anything is written.  With a spec,
    each day is binned as simulated, which is what its event CSV holds.
    """
    out = pathlib.Path(out_dir)
    if cfg.spec is not None:
        spec, report = _valid_spec(cfg)
        days = _priced_days(cfg, spec,
                            _simulated_days(cfg, spec, report, out))
        stage = "simulate"
    else:
        days = _read_days(cfg, out)
        stage = "estimate"
    out.mkdir(parents=True, exist_ok=True)
    diagnostics = {"config": cfg.echo()}
    try:
        obs, day0 = _estimate(cfg, days, out)
        stage = "factorize"
        factor = polymat.whittle_factor(
            observables.tapered_lags(obs.omega, obs.taper),
            tol=cfg.factor_tol, n_grid=cfg.grid)
        stage = "build_k1"
        k1 = kernels.build_K1(obs, factor, tau_max=cfg.tau_max,
                              tail_tol=cfg.tail_tol,
                              residual_bound=cfg.factor_residual_bound)
        kernels.save_kernel(out / "k1", k1)
        stage = "regularize_k2"
        k2 = kernels.regularize_K2(k1)
        kernels.save_kernel(out / "k2", k2)
        stage = "check"
        rep1 = kernels.nsa_check(k1, tol=cfg.nsa_tol)
        rep2 = kernels.nsa_check(k2, tol=cfg.nsa_tol)
        diagnostics["k1_boundaries"] = {"k0": k1.k0.tolist(),
                                        "lambda": k1.lam.tolist()}
        diagnostics["k1_diagnostics"] = observables._json_safe(k1.diagnostics)
        diagnostics["k2_diagnostics"] = observables._json_safe(k2.diagnostics)
        diagnostics["k1_admissibility"] = rep1.to_dict()
        diagnostics["k2_admissibility"] = rep2.to_dict()
        health, faults = _k1_health(k1, cfg.tail_tol)
        diagnostics["health"] = health
    except (InputError, StageError):
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    (out / "diagnostics.json").write_text(json.dumps(
        observables._json_safe(diagnostics), sort_keys=True, indent=1))
    print(f"calibrated kernels under {out}; factor residual "
          f"{factor.residual:.3e} at order {factor.order}")
    print(f"k1 degraded ({'; '.join(faults)})" if faults else
          f"k1 healthy (tail error {health['tail_error']:.2e} <= tol "
          f"{health['tail_tol']:.2e})")
    print(f"k1 {diagnostics['k1_admissibility']['label']}; "
          f"k2 {diagnostics['k2_admissibility']['label']}")
    return k1, k2, day0


def cmd_calibrate(cfg: RunConfig, out_dir) -> int:
    _calibrate(cfg, out_dir)
    return EXIT_OK


def _check(kernel, tol, bps=False) -> int:
    """Print the NSA report, the boundary matrices and the round-trip
    scans of a kernel; exit code from the NSA verdict.  A scan that
    min_roundtrip_cost refuses is printed as skipped and left out of
    the worst relative cost."""
    report = kernels.nsa_check(kernel, tol=tol)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    scale, unit = (1e4, "bps") if bps else (1.0, "price units")
    print(f"immediate matrix ({unit}):")
    print(np.array2string(scale * kernel.k0, precision=4))
    print(f"permanent matrix ({unit}):")
    print(np.array2string(scale * kernel.lam, precision=4))
    rels = []
    for n in (4, 8, 16):
        for T in (1.0, 10.0):
            try:
                value, _, info = arbitrage.min_roundtrip_cost(kernel, n, T)
            except arbitrage.StrategyError as exc:
                print(f"min roundtrip cost n={n} T={T}: skipped ({exc})")
                continue
            rel = value / max(info["gram_norm"] * info["step"] ** 2, 1e-300)
            rels.append(rel)
            print(f"min roundtrip cost n={n} T={T}: {value:.3e} "
                  f"({rel:.2e} of gram scale)")
    print(f"worst relative roundtrip cost: {min(rels):.3e}" if rels else
          "worst relative roundtrip cost: none (every scan skipped)")
    return EXIT_OK if report.verdict else EXIT_FAIL


def _predict(kernel, stream, p0, out_path) -> int:
    """Write the kernel's predicted prices along an event tape.  The tape
    is binned up to its last event, as a tape read from CSV carries no
    horizon; p0 is one price per asset, or one price for all."""
    last = stream.times[-1] if len(stream) else 0.0
    flows = observables.bin_events(stream, None, kernel.delta,
                                   t_end=last if last > 0 else kernel.delta)
    path = arbitrage.predict_prices(kernel, flows, p0)
    times = kernel.delta * (1 + np.arange(path.shape[0]))
    arbitrage.save_predicted_prices(out_path, times, path)
    print(f"wrote {out_path}")
    return EXIT_OK


def demo_config(seed=7, output_dir="demo_out") -> RunConfig:
    """Canonical two-asset walkthrough: lead-lag excitation, moderate decay."""
    beta = 0.25
    A = [[0.06, 0.02], [0.035, 0.08]]
    spec = {"mu": [0.6, 0.45], "sizes": [1.0, 2.0],
            "blocks": {"aa": [[[[A[0][0], beta]], [[A[0][1], beta]]],
                              [[[A[1][0], beta]], [[A[1][1], beta]]]],
                       "bb": [[[[A[0][0], beta]], [[A[0][1], beta]]],
                              [[[A[1][0], beta]], [[A[1][1], beta]]]]}}
    return RunConfig(spec=spec, delta=1.0, tau_max=64, grid=4096,
                     seed=seed, horizon=1200.0, n_days=5,
                     output_dir=output_dir)


def cmd_demo(cfg: RunConfig, out_dir) -> int:
    """calibrate, then check K2 and predict K1 along day 0's tape, on
    the kernels and the tape calibrate holds; p0 is the config's, or 100
    per asset."""
    k1, k2, day0 = _calibrate(cfg, out_dir)
    if _check(k2, cfg.nsa_tol) != EXIT_OK:
        print("warning: clipped kernel failed its own check",
              file=sys.stderr)
    return _predict(k1, day0, cfg.p0 if cfg.p0 is not None else 100.0,
                    pathlib.Path(out_dir) / "predicted_prices.csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossimpact",
        description="calibrate kernel cross-impact models from trade data")
    parser.add_argument("--config", help="JSON run config "
                        f"(or ${ENV_CONFIG})")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate")
    sub.add_parser("estimate")
    sub.add_parser("calibrate")
    check = sub.add_parser("check")
    check.add_argument("kernel_dir")
    check.add_argument("--tol", type=float, default=1e-6)
    check.add_argument("--bps", action="store_true",
                       help="display boundary matrices in basis points")
    predict = sub.add_parser("predict")
    predict.add_argument("kernel_dir")
    predict.add_argument("events_csv")
    predict.add_argument("--p0", type=float, default=100.0)
    predict.add_argument("--out", default="predicted_prices.csv")
    sub.add_parser("demo")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # check and predict read a kernel, never a config
        if args.command == "check":
            return _check(kernels.load_kernel(args.kernel_dir), args.tol,
                          bps=args.bps)
        if args.command == "predict":
            kernel = kernels.load_kernel(args.kernel_dir)
            return _predict(kernel, hawkes.EventStream.from_csv(
                args.events_csv, d=kernel.d), args.p0, args.out)
        cfg_path = args.config or os.environ.get(ENV_CONFIG)
        if cfg_path is not None:
            cfg = RunConfig.from_file(cfg_path)
        elif args.command == "demo":
            cfg = demo_config()
        else:
            raise InputError(f"this command needs --config or ${ENV_CONFIG}")
        if args.seed is not None:
            cfg.seed = args.seed
        command = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                   "calibrate": cmd_calibrate, "demo": cmd_demo}
        return command[args.command](cfg, args.output_dir or cfg.output_dir)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
