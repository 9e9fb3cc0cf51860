"""The three benchmark workloads: demo, tape and desk.

Each workload generates its configs and inputs from the benchmark seed in
``prepare`` (timed as set-up), runs one operation per ``run_op`` call
(timed), and checks every operation's outputs in ``check_op`` (untimed).
The program is driven only through ``cli.main`` argv and public
functions: hawkes.simulate/analytic_kernel, kernels.save_kernel/
load_kernel/regularize_K2/nsa_check, ImpactKernel.tail_error and
arbitrage.cost/min_roundtrip_cost/predict_prices.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import warnings

import numpy as np

from crossimpact import arbitrage, cli, hawkes, kernels, observables

# Canonical two-asset lead-lag market of ``crossimpact demo``.
DEMO_MU = [0.6, 0.45]
DEMO_SIZES = [1.0, 2.0]
DEMO_A = [[0.06, 0.02], [0.035, 0.08]]
DEMO_BETA = 0.25

# High-intensity symmetric four-asset market for the tape workload.
TAPE_MU = [0.4] * 4
TAPE_SIZES = [1.0] * 4
TAPE_A = (0.15 * np.eye(4) + 0.03 * (1.0 - np.eye(4))).tolist()
TAPE_BETA = 0.5

NSA_TOL = 1e-6
COUNT_Z_MAX = 4.0


def spec_json(mu, sizes, A, beta):
    """Config blob with aa = bb = A at one decay rate (balanced, no ab/ba)."""
    block = [[[[a, beta]] for a in row] for row in A]
    return {"mu": list(mu), "sizes": list(sizes),
            "blocks": {"aa": block, "bb": block}}


def spec_object(mu, sizes, A, beta):
    return hawkes.HawkesSpec.from_matrices(mu, sizes, beta, aa=A, bb=A)


def default_lambda(spec):
    """Permanent matrix diag(v) (I - int phi) diag(v)^-1, as the CLI uses."""
    dv = np.diag(spec.sizes)
    return dv @ (np.eye(spec.d) - hawkes.imbalance_l1(spec)) \
        @ np.diag(1.0 / spec.sizes)


def call_cli(argv):
    """Run ``cli.main`` in-process; returns (exit code, captured output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue() + err.getvalue()


def tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(d)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Workload:
    """Base: ``cycle`` is the fixed list of operation keys of one pass.

    A run repeats whole passes, at least ``min_cycles`` of them, so every
    key runs equally often.
    """

    cycle = (0,)
    min_cycles = 1

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.inputs = None
        self.attempt = 0

    def prepare(self):
        # a new directory per attempt: nothing is deleted during a run,
        # because file deletions can slow file creation for seconds after
        self.attempt += 1
        self.inputs = self.work / f"inputs_{self.attempt}"
        self.inputs.mkdir(parents=True)

    def sub_seed(self, key):
        # days use seed, seed + 1, ...: keep the sub-seeds of every key and
        # every benchmark seed apart
        return self.seed * 10000 + key * 100

    def write_config(self, key, blob):
        (self.inputs / f"config_{key}.json").write_text(
            json.dumps(blob, sort_keys=True))


class Demo(Workload):
    """``crossimpact demo`` (calibrate, check, predict) on the lead-lag market.

    tau_max 6, grid 256 and 2 days x 600 s, against the canonical 64, 4096
    and 5 x 1200 s, make one operation take about a second, not a minute;
    the chain and its stages are the same.
    """

    # The factor order, and so the file count and the time, varies by about
    # 20% from one config to the next; a pass averages sixteen of them.
    # Config 0 runs twice per pass, for the byte-identity check.
    cycle = tuple(range(16)) + (0,)
    TAU_MAX = 6
    GRID = 256
    N_DAYS = 2
    HORIZON = 600.0

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.digests = {}

    def prepare(self):
        super().prepare()
        for key in dict.fromkeys(self.cycle):
            self.write_config(key, {
                "spec": spec_json(DEMO_MU, DEMO_SIZES, DEMO_A, DEMO_BETA),
                "delta": 1.0, "tau_max": self.TAU_MAX, "grid": self.GRID,
                "seed": self.sub_seed(key), "horizon": self.HORIZON,
                "n_days": self.N_DAYS})

    def run_op(self, key, out):
        rc, log = call_cli(["--config", self.inputs / f"config_{key}.json",
                            "--output-dir", out, "demo"])
        return [("demo", rc, log)]

    def check_op(self, key, out, results):
        (_, rc, log), = results
        if rc != 0:
            return [f"demo exit code {rc}: {log[-500:]}"], {}
        k1 = kernels.load_kernel(out / "k1")
        k2 = kernels.load_kernel(out / "k2")
        failures = []
        if not kernels.nsa_check(k2, tol=NSA_TOL).verdict:
            failures.append("K2 fails nsa_check")
        digest = tree_digest(out / "k1", out / "k2")
        if self.digests.setdefault(key, digest) != digest:
            failures.append(f"K1/K2 differ between repeats of config {key}")
        accuracy = {
            "k1_tail_error": k1.tail_error(),
            "k2_clip_distance": k2.diagnostics["spectral_distance_to_input"],
        }
        return failures, accuracy


class Tape(Workload):
    """``simulate`` then ``estimate`` on a busy symmetric four-asset market."""

    cycle = (0, 1)
    N_DAYS = 2
    HORIZON = 750.0
    TAU_MAX = 64

    def prepare(self):
        super().prepare()
        self.spec = spec_object(TAPE_MU, TAPE_SIZES, TAPE_A, TAPE_BETA)
        for key in self.cycle:
            self.write_config(key, {
                "spec": spec_json(TAPE_MU, TAPE_SIZES, TAPE_A, TAPE_BETA),
                "delta": 1.0, "tau_max": self.TAU_MAX,
                "seed": self.sub_seed(key), "horizon": self.HORIZON,
                "n_days": self.N_DAYS})

    def run_op(self, key, out):
        cfg = self.inputs / f"config_{key}.json"
        rc, log = call_cli(["--config", cfg, "--output-dir", out,
                            "simulate"])
        results = [("simulate", rc, log)]
        rc, log = call_cli(["--config", cfg, "--output-dir", out,
                            "estimate"])
        results.append(("estimate", rc, log))
        return results

    def count_bands(self):
        """Mean and Hawkes standard deviation of each component's count.

        Components are ordered side * d + asset (buys first), as in
        ``spec.full_l1()``; the count covariance over a horizon T is
        T (I - Phi)^-1 diag(Theta) (I - Phi)^-T.
        """
        d = self.spec.d
        inv = np.linalg.inv(np.eye(2 * d) - self.spec.full_l1())
        theta = inv @ np.concatenate([self.spec.mu, self.spec.mu])
        total = self.N_DAYS * self.HORIZON
        cov = total * inv @ np.diag(theta) @ inv.T
        return total * theta, np.sqrt(np.diag(cov))

    def check_op(self, key, out, results):
        failures = [f"{name} exit code {rc}: {log[-500:]}"
                    for name, rc, log in results if rc != 0]
        if failures:
            return failures, {}
        d = self.spec.d
        counts = np.zeros(2 * d)
        files = sorted(out.glob("events_*.csv"))
        if len(files) != self.N_DAYS:
            failures.append(f"{len(files)} event files, "
                            f"expected {self.N_DAYS}")
        for path in files:
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    side = 0 if row["side"] == "B" else 1
                    counts[side * d + int(row["asset"])] += 1
        mean, sd = self.count_bands()
        total_bins = self.N_DAYS * int(self.HORIZON)
        z = (counts - mean) / sd
        if np.abs(z).max() > COUNT_Z_MAX:
            failures.append(f"event counts off the Hawkes band: z = "
                            f"{np.round(z, 2).tolist()}")
        # a day read back from CSV ends at its last event, not the horizon
        obs = observables.load_observables(out / "observables")
        if obs.n_days != self.N_DAYS or obs.tau_max != self.TAU_MAX or \
                not 0.99 * total_bins <= obs.n_bins <= total_bins:
            failures.append(f"observables: {obs.n_days} days, {obs.n_bins} "
                            f"bins, tau_max {obs.tau_max}")
        return failures, {"count_z_max": float(np.abs(z).max())}


class Desk(Workload):
    """Use built kernels: check, predict, round-trip scans and costs.

    Set-up builds the analytic decay-law kernel of the demo market (K1)
    and its clip (K2), saves both, and simulates one event tape per day.
    """

    N_DAYS = 2
    HORIZON = 1200.0
    TAU_MAX = 512
    GRID_HALF = 1024      # K2 lags
    STEPS = (8, 16, 32)
    ROUNDTRIP_T = 64.0
    min_cycles = 2

    def prepare(self):
        super().prepare()
        spec = spec_object(DEMO_MU, DEMO_SIZES, DEMO_A, DEMO_BETA)
        k1 = hawkes.analytic_kernel(spec, default_lambda(spec), 1.0,
                                    self.TAU_MAX)
        self.k2 = kernels.regularize_K2(k1, n_grid=2 * self.GRID_HALF)
        kernels.save_kernel(self.inputs / "k1", k1)
        kernels.save_kernel(self.inputs / "k2", self.k2)
        self.k1 = k1
        self.streams = []
        for day in range(self.N_DAYS):
            stream = hawkes.simulate(spec, self.HORIZON,
                                     self.sub_seed(0) + day)
            stream.to_csv(self.inputs / f"events_{day:03d}.csv")
            self.streams.append(stream)

    def run_op(self, key, out):
        out.mkdir(parents=True, exist_ok=True)
        results = []
        for day in range(self.N_DAYS):
            rc, log = call_cli(["check", self.inputs / "k2",
                                "--tol", NSA_TOL])
            results.append(("check", rc, log))
            rc, log = call_cli(["predict", self.inputs / "k1",
                                self.inputs / f"events_{day:03d}.csv",
                                "--out", out / f"pred_{day:03d}.csv"])
            results.append((f"predict:{day}", rc, log))
        for n in self.STEPS:
            found = arbitrage.min_roundtrip_cost(self.k2, n,
                                                 self.ROUNDTRIP_T)
            results.append((f"roundtrip:{n}", 0, found))
            results.append((f"cost:{n}", 0,
                            arbitrage.cost(found[1], self.k2)))
        return results

    def reference_prices(self, day):
        stream = self.streams[day]
        flows = observables.bin_events(stream, None, 1.0,
                                       t_end=stream.times[-1])
        return flows, arbitrage.predict_prices(self.k1, flows, [100.0] * 2)

    def check_op(self, key, out, results):
        failures = []
        for name, rc, payload in results:
            kind, _, arg = name.partition(":")
            if kind == "check" and rc != 0:
                failures.append(f"check K2 exit code {rc}")
            elif kind == "predict":
                failures += self.check_predict(int(arg), out, rc, payload)
            elif kind == "roundtrip":
                value, _, info = payload
                scale = info["gram_norm"] * info["step"] ** 2
                if not value >= -NSA_TOL * scale:
                    failures.append(f"K2 round trip n={arg} costs {value:.3e}"
                                    f" < -tol x Gram scale {scale:.3e}")
            elif kind == "cost" and not payload.total >= -NSA_TOL:
                failures.append(f"cost() of K2 witness n={arg} is "
                                f"{payload.total:.3e}")
        return failures, {}

    def check_predict(self, day, out, rc, log):
        if rc != 0:
            return [f"predict day {day} exit code {rc}: {log[-500:]}"]
        rows = np.loadtxt(out / f"pred_{day:03d}.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        got = rows[:, 2].reshape(-1, 2)
        flows, ref = self.reference_prices(day)
        failures = []
        if not np.all(np.isfinite(got)):
            failures.append(f"predict day {day}: non-finite prices")
        elif got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-12,
                                                       atol=1e-9):
            failures.append(f"predict day {day}: prices differ from "
                            "predict_prices on the same flows")
        # linear in the flow: P(2q) - p0 == 2 (P(q) - p0)
        flows.flows = 2.0 * flows.flows
        doubled = arbitrage.predict_prices(self.k1, flows, [100.0] * 2)
        if not np.allclose(doubled - 100.0, 2.0 * (ref - 100.0),
                           rtol=1e-9, atol=1e-9):
            failures.append(f"predict day {day}: not linear in the flow")
        return failures


WORKLOADS = {"demo": Demo, "tape": Tape, "desk": Desk}
