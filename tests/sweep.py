"""Seed sweep of the factor's order rule: simulate -> calibrate in-process.

Not collected by pytest.  Each cell is a spec family, an asset count d,
a bin count and a lag count tau_max; each run of a cell simulates 5
training days of bins / 5 seconds at one seed, calibrates them as
`crossimpact calibrate` does (Bartlett taper, grid 4096) at each
tau_max in TAUS from the same days, and scores K1 built under each
order rule in RULES:

  today       the exact-lag stop (reflection below 1e-10), the stop
              every input took before orders were chosen;
  aic, hq,    the order p in 0..m that minimises log det V_p plus a
  bic         per-order penalty (Akaike, Hannan-Quinn, Schwarz), V_p
              the order-p forward innovation covariance;
  aicNN       AIC with no order below NN % of m;
  fixedNN     the order NN % of m, whatever the sample; fixed50 is the
              product's rule (polymat.ORDER_SHARE), run through
              polymat.whittle_factor as `calibrate` runs it.

Every other rule's factor is synthetic.reference_whittle: today's at its
exact-lag stop, the others' stopped at the rule's order.

For each rule and run it records

  order    the factor order the rule stops at;
  dist     max |K1 - K1_exact| / max |K1_exact(0)|, K1_exact built with
           the same Sigma from the exact lattice lags of the flow, so
           only the flow lags and the order differ;
  nsa      K1's minimum relative spectral eigenvalue (nsa_check);
  score    synthetic.holdout_score of K1 on 2 held-out days of 2,000 s
           at seeds 10,000 + 2 seed and 10,001 + 2 seed;
  score2   the same for sqrt(2) K1, the level the Kyle constant's Sigma/2
           would restore;
  tail     K1's tail error;
  residual the factor's grid residual over ObservableSet.residual_noise, the
           share of the refusal bound it uses.

The generator's own held-out score (the analytic kernel at
(n + 1/2) delta) is recorded per run as `generator`.  The gate a rule
must pass: in every cell, its seed medians of dist, score and score2 are
no higher, and of nsa no lower, than today's by more than today's
interquartile range.

    PYTHONPATH=src:tests python tests/sweep.py             # full sweep
    PYTHONPATH=src:tests python tests/sweep.py --check ladder:2:1000:32
    PYTHONPATH=src:tests python tests/sweep.py --gate

The first writes SWEEP_order.json at the repository root, one line per
cell: the commit, the numpy version, per-seed scalars (4 digits) and
their quantiles (6 digits), no arrays.  It takes about 25 minutes on one
core with one BLAS thread; `--cells FAMILY:D:BINS ...` makes only the
cells named, into the existing file, whose own commit stays that of its
first sweep: each cell made records the commit it was made at.  The
second re-derives one cell and exits 1 if a quantile of its orders,
gated fields or generator score moved by more than a quarter of its
recorded interquartile range across seeds: roundoff that moves the
exact-lag stop by an order passes, a changed rule does not.  The third prints each rule's verdict per cell.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import numpy as np

from crossimpact import cli, hawkes, kernels, observables, polymat

import synthetic

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "SWEEP_order.json"
TAUS = (32, 64, 128)
GRID = 4096
N_DAYS = 5
HOLDOUT_DAYS = 2
HOLDOUT_HORIZON = 2000.0
HOLDOUT_SEED = 10_000
BETA = 0.25
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)
# the simulations of the full sweep: (family, d, bins); 20 seeds each,
# each calibrated at every tau_max in TAUS
CELLS = [("ladder", d, bins) for d in (2, 5, 10, 20)
         for bins in (1_000, 10_000, 100_000)] + \
    [("ladder", 2, 1_000_000), ("item1", 2, 80_000)] + \
    [("demo", 2, bins) for bins in (6_000, 10_000, 100_000)]
N_SEEDS = 20
# --check's tolerance, as a share of a quantile's interquartile range
CHECK_SHARE = 0.25


def ladder_spec(d):
    """Symmetric commuting d-asset market: self-excitation 0.06 and a
    total cross-excitation of 0.06 spread evenly, decay 0.25, unit sizes;
    its imbalance kernel integrates to spectral radius 0.48."""
    off = 0.06 / (d - 1) if d > 1 else 0.0
    a = 0.06 * np.eye(d) + off * (1.0 - np.eye(d))
    return synthetic.single_rate_spec(a, BETA, np.full(d, 0.2))


def item1_spec(d=2):
    """A symmetric two-asset market (ROADMAP item 1's): excitation 0.08
    on the diagonal and 0.04 off it, decay 0.25, mu 0.5, unit sizes."""
    a = np.array([[0.08, 0.04], [0.04, 0.08]])
    return synthetic.single_rate_spec(a, BETA, np.full(2, 0.5))


def demo_spec(d=2):
    """The canonical demo's lead-lag market (cli.demo_config): excitation
    [[0.06, 0.02], [0.035, 0.08]], decay 0.25, mu [0.6, 0.45], sizes
    [1, 2]; 6,000 bins is the demo's own sample."""
    return hawkes.HawkesSpec.from_dict(cli.demo_config().spec)


FAMILIES = {"ladder": ladder_spec, "item1": item1_spec, "demo": demo_spec}


def aic(d, n):
    return 2.0 * d * d / n


def hq(d, n):
    return 2.0 * d * d * np.log(np.log(n)) / n


def bic(d, n):
    return d * d * np.log(n) / n


# each rule is (penalty, share): a penalty picks the criterion's order
# from share * m up, no penalty takes the order share * m; None is the
# exact-lag stop
RULES = {"today": None, "aic": (aic, 0.0), "hq": (hq, 0.0),
         "bic": (bic, 0.0), "aic12": (aic, 0.125), "aic25": (aic, 0.25),
         "aic50": (aic, 0.5), "fixed12": (None, 0.125),
         "fixed25": (None, 0.25), "fixed50": (None, polymat.ORDER_SHARE)}
PRODUCT = "fixed50"
# the per-seed scalars kept in the file
PER_SEED = ("order", "dist", "nsa", "score", "score2")
# the fields --check compares
CHECKED = ("order", "dist", "nsa", "score", "score2")


def simulated_days(spec, lam, horizon, seeds):
    pricer = hawkes.event_pricer(spec, lam, 0.0)
    for seed in seeds:
        stream = hawkes.simulate(spec, horizon, seed)
        yield observables.bin_events(stream, pricer(stream), 1.0)


def innovation_logdets(lags):
    """log det V_p for p = 0..m, V_p the forward innovation covariance of
    the order-p autoregression on lags, by the block Levinson recursion
    that synthetic.reference_whittle writes out."""
    n_lags, d, _ = lags.shape
    fwd = bwd = np.zeros((0, d, d))
    v = u = 0.5 * (lags[0] + lags[0].T)
    out = [np.linalg.slogdet(v)[1]]
    for p in range(n_lags - 1):
        delta = lags[p + 1] - np.einsum("jab,jbc->ac", fwd, lags[p:0:-1])
        a_new = np.linalg.solve(u.T, delta.T).T
        b_new = np.linalg.solve(v.T, delta).T
        fwd, bwd = (np.concatenate([fwd - a_new @ bwd[::-1], a_new[None]]),
                    np.concatenate([bwd - b_new @ fwd[::-1], b_new[None]]))
        v, u = v - a_new @ delta.T, u - b_new @ delta
        v, u = 0.5 * (v + v.T), 0.5 * (u + u.T)
        out.append(np.linalg.slogdet(v)[1])
    return np.array(out)


def rule_order(rule, lags, n_obs, logdets):
    """The order a (penalty, share) rule picks on m + 1 estimated lags."""
    penalty, share = rule
    m, d = lags.shape[0] - 1, lags.shape[1]
    floor = int(share * m)
    if penalty is None:
        return floor
    crit = logdets[floor:] + np.arange(floor, m + 1) * penalty(d, n_obs)
    return floor + int(np.argmin(crit))


def exact_observables(spec, sigma, tau_max):
    """The flow's exact lattice lags at tau_max, their full lag sum, and
    the given Sigma; the factor's lags reach 4 tau_max."""
    d = spec.d
    a = spec.full_l1()[:d, :d] * BETA
    theta = synthetic.stationary_intensity(spec)
    lags = synthetic.lattice_flow_covariance(a, BETA, theta, spec.sizes,
                                             4 * tau_max)
    omega_inf = synthetic.zero_frequency_covariance(a, BETA, theta,
                                                    spec.sizes)
    obs = observables.ObservableSet(
        sigma=sigma, omega=lags[:tau_max + 1],
        omega_zero=0.5 * (lags[0] + lags[0].T), omega_inf=omega_inf,
        delta=1.0, n_days=0, n_bins=0)
    return obs, lags


def run(family, d, bins, seed, taus=TAUS):
    """{tau_max: {"generator": score, rule: {field: value}}} of one seed."""
    spec = FAMILIES[family](d)
    if spec.d != d:    # item1 and demo are two-asset markets
        raise ValueError(f"family {family} has {spec.d} assets, not {d}")
    lam = hawkes.default_lambda(spec, 1.0)
    horizon = bins / N_DAYS
    train = list(simulated_days(spec, lam, horizon,
                                range(seed * N_DAYS, (seed + 1) * N_DAYS)))
    held = list(simulated_days(
        spec, lam, HOLDOUT_HORIZON,
        range(HOLDOUT_SEED + seed * HOLDOUT_DAYS,
              HOLDOUT_SEED + (seed + 1) * HOLDOUT_DAYS)))
    result = {}
    for tau_max in taus:
        obs = observables.build_observables(train, tau_max)
        lags = observables.tapered_lags(obs.omega)
        logdets = innovation_logdets(lags)
        noise = obs.residual_noise()
        exact_obs, exact_lags = exact_observables(spec, obs.sigma, tau_max)
        exact = kernels.build_K1(exact_obs, synthetic.exact_factor(
            exact_lags, n_grid=GRID))
        scale = np.abs(exact.k0).max()
        gen = synthetic.generator_kernel(spec, lam, tau_max)
        out = result[tau_max] = {
            "generator": synthetic.holdout_score(gen, held)}
        for name, rule in RULES.items():
            order = (None if rule is None
                     else rule_order(rule, lags, obs.n_bins, logdets))
            factor = (polymat.whittle_factor if name == PRODUCT
                      else synthetic.reference_whittle)(
                lags, n_grid=GRID, order=order)
            k1 = kernels.build_K1(obs, factor, residual_bound=np.inf)
            k1x2 = kernels.ImpactKernel(delta=1.0,
                                        values=np.sqrt(2) * k1.values,
                                        lam=np.sqrt(2) * k1.lam)
            out[name] = {
                "order": factor.order,
                "dist": float(np.abs(k1.values - exact.values).max()
                              / scale),
                "nsa": kernels.nsa_check(k1).min_spectral_eig,
                "score": synthetic.holdout_score(k1, held),
                "score2": synthetic.holdout_score(k1x2, held),
                "tail": float(k1.tail_error()),
                "residual": factor.residual / noise,
            }
    return result


def summarize(runs):
    """Per-seed scalars' quantiles at 6 digits, by rule and field."""
    def quant(values):
        return {f"q{int(100 * q)}": float(f"{x:.6g}") for q, x in
                zip(QUANTILES, np.quantile(values, QUANTILES))}
    summary = {"generator": quant([r["generator"] for r in runs])}
    for name in RULES:
        summary[name] = {key: quant([r[name][key] for r in runs])
                         for key in runs[0][name]}
    return summary


def cell_key(family, d, bins, tau_max):
    return f"{family}:{d}:{bins}:{tau_max}"


def cells(family, d, bins, taus=TAUS, n_seeds=N_SEEDS):
    """The sweep file's cells of one simulation family, one per tau_max."""
    runs = [run(family, d, bins, seed, taus) for seed in range(n_seeds)]
    out = {}
    for tau_max in taus:
        at = [r[tau_max] for r in runs]
        per_seed = {"generator": [float(f"{r['generator']:.4g}")
                                  for r in at]}
        for name in RULES:
            per_seed[name] = {key: [float(f"{r[name][key]:.4g}")
                                    for r in at] for key in PER_SEED}
        out[cell_key(family, d, bins, tau_max)] = {
            "family": family, "d": d, "bins": bins, "tau_max": tau_max,
            "seeds": n_seeds, "per_seed": per_seed,
            "quantiles": summarize(at)}
    return out


def commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check(key, path=OUT):
    """Re-derive one cell of the sweep file; the quantiles that moved by
    more than CHECK_SHARE of their recorded interquartile range."""
    recorded = json.loads(path.read_text())["cells"][key]
    family, d, bins, tau_max = key.split(":")
    fresh = cells(family, int(d), int(bins), (int(tau_max),),
                  recorded["seeds"])[key]["quantiles"]
    want = recorded["quantiles"]
    rows = [("generator", "", want["generator"], fresh["generator"])] + [
        (name, field, want[name][field], fresh[name][field])
        for name in RULES for field in CHECKED]
    bad = []
    for name, field, qs, got in rows:
        tol = CHECK_SHARE * (qs["q75"] - qs["q25"])
        for q, value in qs.items():
            if abs(got[q] - value) > tol + 1e-5 * abs(value):
                bad.append(f"{name}.{field}.{q}: {got[q]!r} != {value!r}")
    return bad


# the gate's direction per field: +1 where lower is better
GATE = {"dist": 1, "nsa": -1, "score": 1, "score2": 1}


def gate(path=OUT):
    """Per cell and rule, the fields whose seed median is worse than
    today's by more than today's interquartile range."""
    failed = {}
    for key, c in json.loads(path.read_text())["cells"].items():
        today = c["quantiles"]["today"]
        for name, q in c["quantiles"].items():
            if name in ("generator", "today"):
                continue
            failed[key, name] = [
                field for field, sign in GATE.items()
                if sign * (q[field]["q50"] - today[field]["q50"])
                > today[field]["q75"] - today[field]["q25"]]
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FAMILY:D:BINS:TAU_MAX")
    parser.add_argument("--gate", action="store_true",
                        help="print each rule's verdict per cell")
    parser.add_argument("--cells", nargs="*", metavar="FAMILY:D:BINS")
    parser.add_argument("--out", type=pathlib.Path, default=OUT)
    args = parser.parse_args(argv)
    if args.gate:
        for (key, name), fields in gate(args.out).items():
            print(f"{key:20s} {name:8s} "
                  + (f"fails {', '.join(fields)}" if fields else "passes"))
        return 0
    if args.check:
        bad = check(args.check, args.out)
        print("\n".join(bad) or f"{args.check}: quantiles match")
        return 1 if bad else 0
    todo = ([tuple(int(x) if x.isdigit() else x for x in c.split(":"))
             for c in args.cells] if args.cells else CELLS)
    made_at = commit()
    result = {"commit": made_at, "numpy": np.__version__, "grid": GRID,
              "rules": {name: ("exact-lag stop" if rule is None else
                               f"order {rule[1]} m" if rule[0] is None else
                               f"{rule[0].__name__} from {rule[1]} m")
                        for name, rule in RULES.items()},
              "cells": {}}
    if args.out.exists():
        # the file's commit stays that of the cells it was first made with
        old = json.loads(args.out.read_text())
        result.update(commit=old["commit"], cells=old["cells"])
    for family, d, bins in todo:
        made = cells(family, d, bins)
        for cell in made.values():
            cell["commit"] = made_at
        result["cells"].update(made)
        # one line per cell
        lines = [f"{json.dumps(k)}: {json.dumps(v)}"
                 for k, v in result["cells"].items()]
        head = json.dumps({k: v for k, v in result.items() if k != "cells"})
        args.out.write_text(head[:-1] + ', "cells": {\n' + ",\n".join(lines)
                            + "\n}}\n")
        print(f"{family}:{d}:{bins} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
