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
import functools
import json
import os
import pathlib
import sys

import numpy as np

from . import arbitrage, formats, hawkes, kernels, observables, polymat

ENV_CONFIG = "CROSSIMPACT_CONFIG"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
# each asset's price at time 0 when the config gives no p0
DEFAULT_P0 = 100.0


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
    trim: float = 0.0
    p0: list | None = None
    impact_scale: float = 1.0
    lam: list | None = None
    tail_tol: float = 1e-3
    nsa_tol: float = 1e-6
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path):
        try:
            raw = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not JSON: {exc}") from exc
        if not isinstance(raw, dict) or \
                not isinstance(raw.get("tolerances", {}), dict):
            raise InputError("a config and its tolerances are JSON objects")
        tolerances = raw.pop("tolerances", {})
        both = sorted(set(raw) & set(tolerances))
        if both:
            raise InputError(f"config gives {both[0]} both at top level and "
                             "under tolerances; give one")
        raw.update(tolerances)
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        types["lambda"] = types["lam"]
        unknown = set(raw) - set(types)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        if "lam" in raw and "lambda" in raw:
            raise InputError("config gives both lam and lambda; give one")
        for key, value in raw.items():
            allowed, kind = CONFIG_TYPES[types[key]]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise InputError(f"config key {key!r} must be {kind}, "
                                 f"not {value!r}")
        if "lambda" in raw:
            raw["lam"] = raw.pop("lambda")
        cfg = cls(**raw)
        for tol_name in ("delta", "tail_tol", "nsa_tol"):
            _finite_positive(tol_name, getattr(cfg, tol_name))
        if cfg.n_days < 1:
            raise InputError(f"n_days must be at least 1, not {cfg.n_days}")
        for key in ("horizon", "trim"):
            if not 0 <= getattr(cfg, key) < np.inf:
                raise InputError(f"{key} must be finite and at least 0, not "
                                 f"{getattr(cfg, key)!r}")
        for key, value in (("impact_scale", cfg.impact_scale),
                           ("p0", cfg.p0), ("lambda", cfg.lam)):
            if value is not None:
                _finite(key, value)
        if not 0 <= cfg.tau_max < cfg.grid // 2:
            raise InputError(f"tau_max must be at least 0 and below grid // 2,"
                             f" not {cfg.tau_max} with grid {cfg.grid}")
        if cfg.spec is not None and (cfg.events is not None
                                     or cfg.prices is not None):
            raise InputError("config must carry either a spec or data "
                             "paths, not both")
        return cfg

    def echo(self) -> dict:
        """The fields in a new dict, which dumps as asdict(self) does."""
        return dict(vars(self))


def _finite_positive(name, value):
    """Refuse a value that is not a finite number above zero."""
    if not 0 < value < np.inf:
        raise InputError(f"{name} must be positive and finite, not {value!r}")


def _finite(name, value):
    """Refuse a number, or a nested list of numbers, with an entry that is
    not finite."""
    try:
        finite = np.isfinite(np.asarray(value, dtype=float)).all()
    except (TypeError, ValueError):
        raise InputError(f"{name} must hold numbers, not {value!r}") from None
    if not finite:
        raise InputError(f"{name} must be finite, not {value!r}")


def _valid_spec(cfg):
    """The config's spec.  A spec that cannot be parsed, or that
    validate_spec does not pass, is an input error; so are a lambda or
    p0 that do not fit its assets."""
    if cfg.spec is None:
        raise InputError("simulate needs a hawkes spec in config")
    spec = hawkes.HawkesSpec.from_dict(cfg.spec)
    if not spec.validation.ok:
        raise InputError("invalid spec: "
                         + "; ".join(spec.validation.messages))
    d = spec.d
    for key, value, shape in (("lambda", cfg.lam, (d, d)),
                              ("p0", cfg.p0, (d,))):
        if value is not None and np.shape(value) != shape:
            raise InputError(f"{key} has shape {np.shape(value)}, not "
                             f"{shape} for the spec's {d} assets")
    return spec


def _simulated_days(cfg, spec, out):
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
                "validation": dataclasses.asdict(spec.validation)}
    (out / "manifest.json").write_text(formats.dumps(manifest))


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    # drain without holding a finished day while the next is simulated
    collections.deque(_simulated_days(cfg, _valid_spec(cfg),
                                      pathlib.Path(out_dir)), maxlen=0)
    return EXIT_OK


def _load_day_files(cfg, out_dir):
    """The (events, prices) file pair of each data-path day: the config's
    lists, or each events_NNN.csv under out_dir with its prices_NNN.csv.
    Lists or a directory without an event file, lists of unequal length
    and a day without its price file are input errors."""
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
        event_files = sorted(data_dir.glob("events_*.csv"))
        if not event_files:
            raise InputError(f"no events_*.csv under {data_dir}")
        price_files = [data_dir / ef.name.replace("events_", "prices_")
                       for ef in event_files]
    _existing(event_files + price_files)
    return list(zip(event_files, price_files))


def _existing(files):
    """files, each of which must exist; a missing one is an input error."""
    for f in files:
        if not f.exists():
            raise InputError(f"missing data file {f}")
    return files


# the config keys that, with a day's events, fix its simulated prices
PRICE_KEYS = ("spec", "lam", "impact_scale", "p0")
# the config keys that fix which days simulate wrote, and their span
DAY_KEYS = ("n_days", "horizon")


def _simulated_event_files(cfg, out_dir):
    """events_000.csv ... events_{n_days - 1}.csv, which simulate wrote
    under out_dir.  Their prices are derived from the config, so the
    directory's manifest must record the config's PRICE_KEYS, and its
    DAY_KEYS so that no stray day is read or binned on another horizon.
    A missing manifest, one that records other values, and a missing
    day file are input errors."""
    data_dir = pathlib.Path(out_dir)
    path = data_dir / "manifest.json"
    try:
        recorded = json.loads(path.read_text())["config"]
        differ = [key for key in PRICE_KEYS + DAY_KEYS
                  if recorded[key] != getattr(cfg, key)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: no simulation manifest to derive the "
                         f"prices from ({exc})") from exc
    if differ:
        raise InputError(f"{path} records another {', '.join(differ)} than "
                         "the config; the simulated days cannot be read "
                         "with it")
    return _existing([data_dir / f"events_{day:03d}.csv"
                      for day in range(cfg.n_days)])


def _read(reader, path, **kwargs):
    """reader(path, **kwargs); a file that cannot be read is an input
    error."""
    try:
        return reader(path, **kwargs)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_day(ef, pf):
    """(stream, prices) of one data-path day.  The price file lists every
    asset, so it fixes the day's width, and the events are read against
    it; an event CSV on its own ends at its last event."""
    prices = _read(observables.PricePath.from_csv, pf)
    return _read(hawkes.EventStream.from_csv, ef, d=prices.d), prices


def _days(cfg, out, simulate=False):
    """(stream, prices) of each day, as a generator that simulates the
    day into out (simulate=True) or reads it as it is reached.  Input
    faults are raised here, before anything is written: this is not a
    generator function, and a generator expression evaluates its
    outermost iterable (the file list) at once.  Without a spec
    the days are the data-path files.  With one, each day spans the
    config horizon, which must leave one bin between the trims, and its
    prices are those hawkes.event_pricer gives its events."""
    if cfg.spec is None:
        return (_read_day(ef, pf) for ef, pf in _load_day_files(cfg, out))
    spec = _valid_spec(cfg)
    if cfg.horizon - 2 * cfg.trim < cfg.delta:
        raise InputError(f"empty time window: horizon {cfg.horizon} less "
                         f"twice trim {cfg.trim} is shorter than one bin "
                         f"of {cfg.delta}")
    lam = np.asarray(cfg.lam, dtype=float) if cfg.lam is not None \
        else hawkes.default_lambda(spec, cfg.impact_scale)
    p0 = np.asarray(cfg.p0 if cfg.p0 is not None else DEFAULT_P0, dtype=float)
    streams = _simulated_days(cfg, spec, out) if simulate else (
        _read(hawkes.EventStream.from_csv, ef, d=spec.d, horizon=cfg.horizon)
        for ef in _simulated_event_files(cfg, out))
    event_prices = hawkes.event_pricer(spec, lam, p0)
    return ((stream, event_prices(stream)) for stream in streams)


def _estimate(cfg, days, out):
    """Bin the (stream, prices) days, each on [trim, horizon - trim],
    then build and save their observables under out; returns them with
    day 0's event stream.  A day whose width differs from day 0's, or
    that cannot be binned, is an input error that names it; a day that
    build_observables cannot use fails stage estimate."""
    series = []
    for day, (stream, prices) in enumerate(days):
        if day == 0:
            day0 = stream
        elif stream.d != day0.d:
            raise InputError(f"day {day} has {stream.d} assets, but day 0 "
                             f"has {day0.d}")
        try:
            series.append(observables.bin_events(
                stream, prices, cfg.delta, t_start=cfg.trim,
                t_end=stream.horizon - cfg.trim))
        except observables.ObservablesError as exc:
            raise InputError(f"day {day}: {exc}") from exc
        # the next day is simulated or read without this one
        del stream, prices
    try:
        obs = observables.build_observables(series, cfg.tau_max)
    except observables.ObservablesError as exc:
        raise StageError("estimate", exc) from exc
    observables.save_observables(out / "observables", obs)
    return obs, day0


def cmd_estimate(cfg: RunConfig, out_dir) -> int:
    out = pathlib.Path(out_dir)
    obs, _ = _estimate(cfg, _days(cfg, out), out)
    print(f"estimated observables from {obs.n_days} days, "
          f"{obs.n_bins} bins")
    return EXIT_OK


def _k1_health(k1):
    """K1's health block for diagnostics.json, and the faults that make
    its verdict "degraded" (none for "ok")."""
    tail, fault = k1.tail_check()
    return {"tail_error": tail, "tail_tol": k1.tail_tol,
            "verdict": "degraded" if fault else "ok"}, [fault] if fault else []


def _calibrate(cfg: RunConfig, out_dir):
    """Run calibrate into out_dir; returns (K1, K2, K2's NSA report,
    day 0's event stream).

    Input faults are raised before anything is written.  With a spec,
    each day is binned as simulated, which is what its event CSV holds.
    """
    out = pathlib.Path(out_dir)
    days = _days(cfg, out, simulate=True)
    stage = "simulate" if cfg.spec is not None else "estimate"
    diagnostics = {"config": cfg.echo()}
    try:
        obs, day0 = _estimate(cfg, days, out)
        stage = "factorize"
        factor = polymat.whittle_factor(
            observables.tapered_lags(obs.omega), n_grid=cfg.grid,
            order=int(polymat.ORDER_SHARE * obs.tau_max))
        stage = "build_k1"
        k1 = kernels.build_K1(obs, factor, tail_tol=cfg.tail_tol)
        kernels.save_kernel(out / "k1", k1)
        stage = "regularize_k2"
        k2 = kernels.regularize_K2(k1)
        kernels.save_kernel(out / "k2", k2)
        stage = "check"
        rep1 = kernels.nsa_check(k1, tol=cfg.nsa_tol)
        rep2 = kernels.nsa_check(k2, tol=cfg.nsa_tol)
        diagnostics["k1_boundaries"] = {"k0": k1.k0.tolist(),
                                        "lambda": k1.lam.tolist()}
        diagnostics["k1_diagnostics"] = k1.diagnostics
        diagnostics["k2_diagnostics"] = k2.diagnostics
        diagnostics["k1_admissibility"] = rep1.to_dict()
        diagnostics["k2_admissibility"] = rep2.to_dict()
        health, faults = _k1_health(k1)
        diagnostics["health"] = health
    except (InputError, StageError, OSError):
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    (out / "diagnostics.json").write_text(formats.dumps(diagnostics))
    print(f"calibrated kernels under {out}; factor residual "
          f"{factor.residual:.3e} at order {factor.order}")
    print(f"k1 degraded ({'; '.join(faults)})" if faults else
          f"k1 healthy (tail error {health['tail_error']:.2e} <= tol "
          f"{health['tail_tol']:.2e})")
    print(f"k1 {diagnostics['k1_admissibility']['label']}; "
          f"k2 {diagnostics['k2_admissibility']['label']}")
    return k1, k2, rep2, day0


def cmd_calibrate(cfg: RunConfig, out_dir) -> int:
    _calibrate(cfg, out_dir)
    return EXIT_OK


def _check(kernel, report, bps=False) -> int:
    """Print the kernel's NSA report, its boundary matrices and its
    round-trip scan values; exit code from the report's verdict.  A scan
    that min_roundtrip_value refuses is printed as skipped and left out
    of the worst relative cost."""
    print(formats.dumps(report.to_dict()))
    scale, unit = (1e4, "bps") if bps else (1.0, "price units")
    print(f"immediate matrix ({unit}):")
    print(np.array2string(scale * kernel.k0, precision=4))
    print(f"permanent matrix ({unit}):")
    print(np.array2string(scale * kernel.lam, precision=4))
    rels = []
    for n in (4, 8, 16):
        for T in (1.0, 10.0):
            try:
                value, info = arbitrage.min_roundtrip_value(kernel, n, T)
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
    block = [[[[a, beta]] for a in row] for row in A]
    spec = {"mu": [0.6, 0.45], "sizes": [1.0, 2.0],
            "blocks": {"aa": block, "bb": block}}
    return RunConfig(spec=spec, delta=1.0, tau_max=64, grid=4096,
                     seed=seed, horizon=1200.0, n_days=5,
                     output_dir=output_dir)


def cmd_demo(cfg: RunConfig, out_dir) -> int:
    """calibrate, then check K2 and predict K1 along day 0's tape, on
    the kernels, K2's NSA report and the tape calibrate holds; p0 is the
    config's, or DEFAULT_P0 per asset."""
    k1, k2, rep2, day0 = _calibrate(cfg, out_dir)
    if _check(k2, rep2) != EXIT_OK:
        print("warning: clipped kernel failed its own check",
              file=sys.stderr)
    return _predict(k1, day0, cfg.p0 if cfg.p0 is not None else DEFAULT_P0,
                    pathlib.Path(out_dir) / "predicted_prices.csv")


@functools.cache
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
    predict.add_argument("--p0", type=float, default=DEFAULT_P0)
    predict.add_argument("--out", default="predicted_prices.csv")
    sub.add_parser("demo")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # check and predict read a kernel, never a config
        if args.command == "check":
            _finite_positive("--tol", args.tol)
            kernel = kernels.load_kernel(args.kernel_dir)
            return _check(kernel, kernels.nsa_check(kernel, tol=args.tol),
                          bps=args.bps)
        if args.command == "predict":
            _finite("--p0", args.p0)
            kernel = kernels.load_kernel(args.kernel_dir)
            return _predict(kernel, _read(hawkes.EventStream.from_csv,
                                          args.events_csv, d=kernel.d),
                            args.p0, args.out)
        cfg_path = args.config or os.environ.get(ENV_CONFIG)
        if cfg_path is not None:
            cfg = RunConfig.from_file(cfg_path)
        elif args.command == "demo":
            cfg = demo_config()
        else:
            raise InputError(f"this command needs --config or ${ENV_CONFIG}")
        if args.seed is not None:
            cfg.seed = args.seed
        if cfg.seed < 0:
            raise InputError(f"seed must be at least 0, not {cfg.seed}")
        command = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                   "calibrate": cmd_calibrate, "demo": cmd_demo}
        return command[args.command](cfg, args.output_dir or cfg.output_dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
