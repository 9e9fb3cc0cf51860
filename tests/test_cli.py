import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from crossimpact import cli, hawkes, kernels, observables
from crossimpact.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, RunConfig, main
from crossimpact.kernels import ImpactKernel, load_kernel, save_kernel
from crossimpact.observables import load_observables


def small_config(tmp_path, seed=3, **overrides):
    beta = 0.25
    A = [[0.06, 0.02], [0.035, 0.08]]
    blocks = {"aa": [[[[A[0][0], beta]], [[A[0][1], beta]]],
                     [[[A[1][0], beta]], [[A[1][1], beta]]]],
              "bb": [[[[A[0][0], beta]], [[A[0][1], beta]]],
                     [[[A[1][0], beta]], [[A[1][1], beta]]]]}
    payload = {"spec": {"mu": [0.6, 0.45], "sizes": [1.0, 2.0],
                        "blocks": blocks},
               "delta": 1.0, "tau_max": 32, "grid": 2048,
               "seed": seed, "horizon": 400.0, "n_days": 2,
               "tolerances": {"factor_tol": 1e-10, "tail_tol": 2.0}}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def assert_refused(cfg, tmp_path, capsys, message):
    """Each command that reads a spec exits 2 on cfg before writing
    anything, and prints the cause as one input error."""
    for command in ("simulate", "calibrate", "demo"):
        out = tmp_path / f"refused-{command}"
        rc = main(["--config", str(cfg), "--output-dir", str(out), command])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT, command
        assert err.startswith("input error: ") and message in err, command
        assert "stage" not in err, command
        assert not out.exists(), command


def dir_bytes(directory):
    directory = pathlib.Path(directory)
    out = {}
    for f in sorted(directory.rglob("*")):
        if f.is_file():
            out[str(f.relative_to(directory))] = f.read_bytes()
    return out


def event_prices_loop(spec, stream, lam, p0):
    """Reference for cli._event_prices: one decay step per event."""
    d = spec.d
    dv = np.diag(spec.sizes)
    k0 = lam @ dv @ np.linalg.inv(np.eye(d) - hawkes.imbalance_l1(spec)) \
        @ np.diag(1.0 / spec.sizes)
    terms = [(int(i), int(j), beta, alpha)
             for i, j, beta, alpha in spec.imbalance_terms()]
    state = np.zeros(len(terms))
    net = np.zeros(d)
    out, prev = [], 0.0
    for t, a, s, v in zip(stream.times, stream.assets, stream.sides,
                          stream.sizes):
        net[a] += s * v
        impact = np.zeros(d)
        for k, (i, j, beta, alpha) in enumerate(terms):
            state[k] = state[k] * np.exp(-beta * (t - prev)) \
                + (s if j == a else 0.0)
            impact[i] += alpha / beta * state[k]
        prev = t
        out.append(p0 + lam @ net + k0 @ dv @ impact)
    return np.asarray(out).ravel()


def write_price_tape(path, stream, prices):
    """A data-path price CSV: each asset's price at every event of stream."""
    d = stream.d
    observables.PricePath(times=np.repeat(stream.times, d),
                          assets=np.tile(np.arange(d), len(stream)),
                          prices=prices, d=d).to_csv(path)


def loop_price_tapes(cfg, sim):
    """Write prices_NNN.csv beside each events_NNN.csv that a spec-mode
    simulate on cfg wrote under sim, from event_prices_loop with the
    config's lambda (or the default) and p0 (or 100 per asset); returns
    the paths."""
    run = RunConfig.from_file(cfg)
    spec = cli.parse_spec(run.spec)
    lam = cli._default_lambda(spec, run)
    p0 = np.asarray(run.p0 if run.p0 is not None else [100.0] * spec.d)
    paths = []
    for ef in sorted(sim.glob("events_*.csv")):
        stream = hawkes.EventStream.from_csv(ef, d=spec.d)
        paths.append(ef.with_name(ef.name.replace("events_", "prices_")))
        write_price_tape(paths[-1], stream,
                         event_prices_loop(spec, stream, lam, p0))
    return paths


class TestEventPrices:
    def test_matches_per_event_loop(self):
        # decay rates 2 and 0.05 over 3000 s: the fast rate spans ten
        # blocks of the scaled cumsum
        blob = {"mu": [0.5, 0.3], "sizes": [1.0, 3.0], "blocks": {
            "aa": [[[[0.3, 2.0], [0.01, 0.05]], [[0.1, 2.0]]],
                   [[[0.02, 0.05]], [[0.4, 2.0]]]],
            "ab": [[[[0.4, 2.0]], []], [[], []]]}}
        blob["blocks"]["bb"] = blob["blocks"]["aa"]
        blob["blocks"]["ba"] = blob["blocks"]["ab"]
        spec = cli.parse_spec(blob)
        stream = hawkes.simulate(spec, 3000.0, seed=8)
        assert 2.0 * stream.times[-1] > 8 * cli.DECAY_BLOCK_EXPONENT
        lam = cli._default_lambda(spec, RunConfig())
        p0 = np.array([100.0, 50.0])
        got = cli._event_prices(spec, stream, lam, p0)
        ref = event_prices_loop(spec, stream, lam, p0)
        assert np.array_equal(got.times, np.repeat(stream.times, 2))
        assert np.array_equal(got.assets, np.tile([0, 1], len(stream)))
        assert np.abs(got.prices - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_empty_stream(self):
        spec = hawkes.HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0],
                                               beta=1.0, aa=[[0.5]],
                                               bb=[[0.5]])
        stream = hawkes.simulate(spec, 0.0, seed=0)
        got = cli._event_prices(spec, stream, np.eye(1), np.zeros(1))
        assert len(got) == 0


class TestConfig:
    def test_spec_and_data_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for data in ({"events": ["x.csv"]}, {"prices": ["x.csv"]}):
            path.write_text(json.dumps({"spec": {"mu": [1.0]}, **data}))
            with pytest.raises(ValueError, match="not both"):
                RunConfig.from_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"speled_wrong": 1}))
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("raw, message", [
        pytest.param({"delta": "1"}, "'delta' must be a number",
                     id="delta-str"),
        pytest.param({"tau_max": "8"}, "'tau_max' must be an integer",
                     id="tau_max-str"),
        pytest.param({"n_days": 1.5}, "'n_days' must be an integer",
                     id="n_days-float"),
        pytest.param({"n_days": True}, "'n_days' must be an integer",
                     id="n_days-bool"),
        pytest.param({"tolerances": {"tail_tol": False}},
                     "'tail_tol' must be a number", id="tail_tol-bool"),
        pytest.param({"lambda": 2.0}, "'lambda' must be a list or null",
                     id="lambda-float"),
        pytest.param({"taper": 3}, "'taper' must be a string",
                     id="taper-int"),
        pytest.param({"spec": [1.0]}, "'spec' must be an object or null",
                     id="spec-list"),
        pytest.param({"tolerances": 1e-3}, "tolerances are JSON objects",
                     id="tolerances-float"),
        pytest.param({"n_days": -1}, "n_days must be at least 1, not -1",
                     id="n_days-negative"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, raw, message):
        # refused for every config command before any directory is made
        cfg = small_config(tmp_path, **raw)
        for command in ("simulate", "estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            rc = main(["--config", str(cfg), "--output-dir", str(out),
                       command])
            err = capsys.readouterr().err
            assert rc == EXIT_INPUT, command
            assert err.startswith("input error: ") and message in err, \
                command
            assert not out.exists(), command

    def test_int_taken_for_float(self, tmp_path):
        cfg = RunConfig.from_file(small_config(tmp_path, delta=1, trim=0))
        assert (cfg.delta, cfg.trim) == (1, 0)

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"tolerances": {"factor_tol": 0.0}}))
        with pytest.raises(ValueError):
            RunConfig.from_file(path)


class TestSimulate:
    def test_writes_deterministic_files(self, tmp_path):
        cfg = small_config(tmp_path)
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "a"), "simulate"])
        assert rc == EXIT_OK
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "b"), "simulate"])
        assert rc == EXIT_OK
        a = dir_bytes(tmp_path / "a")
        b = dir_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)
        # a spec-mode day's prices are derived, never written
        assert set(a) == {"events_000.csv", "events_001.csv", "manifest.json"}

    def test_zero_horizon_warns_but_succeeds(self, tmp_path, capsys):
        cfg = small_config(tmp_path, horizon=0.0, n_days=1)
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "z"), "simulate"])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "zero horizon" in err
        lines = (tmp_path / "z" / "events_000.csv").read_text().splitlines()
        assert len(lines) == 1    # header only

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        # a spec that validate_spec does not pass: unstable, then stable
        # but with no imbalance kernel (bb - ab differs from aa - ba)
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["spec"]["blocks"]["aa"][0][0] = [[0.6, 0.25]]  # radius > 1
        cfg.write_text(json.dumps(raw))
        assert_refused(cfg, tmp_path, capsys, "spectral radius")
        cfg = small_config(tmp_path, spec={
            "mu": [1.0], "blocks": {"aa": [[[[0.3, 1.0]]]],
                                    "bb": [[[[0.2, 1.0]]]]}})
        assert_refused(cfg, tmp_path, capsys, "no imbalance kernel")

    # explicit ids: each case keeps its id as cases are added; a case
    # overrides keys of a spec with mu [0.6, 0.45] and no blocks
    @pytest.mark.parametrize("spec, message", [
        pytest.param({"blocks": {"aa": [[[[0.1, 0.25]]]]}},   # 1 x 1 of 2 x 2
                     "block aa is not 2x2", id="blocks0"),
        pytest.param({"blocks": {"bb": [[[[0.1, 0.0]], []], [[], []]]}},
                     "beta > 0", id="blocks1"),               # beta = 0
        pytest.param({"blocks": {"ab": [[[[-0.1, 0.25]], []], [[], []]]}},
                     "alpha >= 0", id="blocks2"),             # alpha < 0
        pytest.param({"blocks": {"ba": [[[[0.1, 0.25, 1.0]], []],
                                        [[], []]]}},
                     "block ba[0][0]: term [0.1, 0.25, 1.0] is not an "
                     "(alpha, beta) pair", id="blocks3"),
        pytest.param({"blocks": {"ba": [[[0.1], []], [[], []]]}},
                     "block ba[0][0]: term 0.1 is not", id="blocks4"),
        pytest.param({"blocks": {"ab": [[[], []], [[], [["x", 0.25]]]]}},
                     "block ab[1][1]: term ['x', 0.25] is not",
                     id="blocks5"),
        pytest.param({"blocks": {"aa": [0.1, 0.2]}},         # scalar row
                     "block aa[0]: row 0.1 is not", id="blocks6"),
        pytest.param({"blocks": {"bb": [[0.1, []], [[], []]]}},
                     "block bb[0][0]: entry 0.1 is not", id="blocks7"),
        pytest.param({"blocks": []}, "blocks [] is not a map", id="blocks8"),
        pytest.param({"sizes": [1.0]}, "sizes has 1 entries but mu has 2",
                     id="sizes0"),
        pytest.param({"mu": [[0.6, 0.45]], "sizes": [[1.0, 2.0]]},
                     "mu must be 1-D", id="mu0"),
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, spec, message):
        cfg = small_config(tmp_path, spec={"mu": [0.6, 0.45], **spec})
        assert_refused(cfg, tmp_path, capsys, message)

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("p0", [1.0, 2.0, 3.0], "p0 has shape (3,), not (2,)",
                     id="p0"),
        pytest.param("lambda", [[1.0]], "lambda has shape (1, 1), not (2, 2)",
                     id="lambda"),
    ])
    def test_price_law_of_another_shape_exits_2(self, tmp_path, capsys, key,
                                                 value, message):
        # simulate prices no day, so it refuses these before writing the
        # manifest that records them
        cfg = small_config(tmp_path, **{key: value})
        assert_refused(cfg, tmp_path, capsys, message)

    def test_spec_without_mu_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, spec={"sizes": [1.0, 2.0]})
        assert_refused(cfg, tmp_path, capsys, "spec needs mu")

    def test_missing_config_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        rc = main(["simulate"])
        assert rc == EXIT_INPUT

    def test_env_config(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, n_days=1, horizon=50.0)
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        rc = main(["--output-dir", str(tmp_path / "env"), "simulate"])
        assert rc == EXIT_OK


class TestCalibrate:
    def test_end_to_end_and_reproducible(self, tmp_path):
        cfg = small_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["--config", str(cfg), "--output-dir", str(out1),
                     "calibrate"]) == EXIT_OK
        assert main(["--config", str(cfg), "--output-dir", str(out2),
                     "calibrate"]) == EXIT_OK
        for sub in ("k1", "k2", "observables"):
            b1 = dir_bytes(out1 / sub)
            b2 = dir_bytes(out2 / sub)
            assert b1.keys() == b2.keys()
            assert all(b1[k] == b2[k] for k in b1)
        diag = json.loads((out1 / "diagnostics.json").read_text())
        # each number is recorded once: the factor's under k1_diagnostics
        assert set(diag) == {"config", "health", "k1_boundaries",
                             "k1_diagnostics", "k2_diagnostics",
                             "k1_admissibility", "k2_admissibility"}
        assert set(diag["k1_diagnostics"]) == {
            "factor_residual", "factor_order", "reflection_norm",
            "tail_error"}
        assert diag["k1_diagnostics"]["factor_residual"] < 1e-5
        # boundary files match the boundary operators applied to the
        # estimated observables
        from crossimpact.kernels import compute_K0, compute_Lambda
        obs = load_observables(out1 / "observables")
        k1 = load_kernel(out1 / "k1")
        assert np.allclose(k1.k0, compute_K0(obs), atol=0, rtol=0)
        assert np.allclose(k1.lam, compute_Lambda(obs), atol=0, rtol=0)

    def test_degraded_k1_reported(self, tmp_path, capsys):
        # the exit code stays 0; diagnostics and console name the fault
        for tail_tol, verdict in ((2.0, "ok"), (1e-12, "degraded")):
            cfg = small_config(tmp_path, tolerances={"tail_tol": tail_tol})
            out = tmp_path / verdict
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         "calibrate"]) == EXIT_OK
            health = json.loads(
                (out / "diagnostics.json").read_text())["health"]
            assert health["verdict"] == verdict
            assert health["tail_tol"] == tail_tol
            assert set(health) == {"tail_error", "tail_tol", "verdict"}
            tail = load_kernel(out / "k1").tail_error()
            assert health["tail_error"] == pytest.approx(tail, rel=1e-12)
            printed = capsys.readouterr().out
            if verdict == "ok":
                assert "k1 healthy (tail error" in printed
                assert "k1 degraded" not in printed
            else:
                assert f"k1 degraded (tail error {tail:.2e} > tol " \
                    f"{tail_tol:.2e})" in printed

    def test_nan_tail_error_degraded(self):
        # the tail error of an all-zero kernel is 0/0: NaN is no healthy
        # tail
        k1 = ImpactKernel(delta=1.0, values=np.zeros((9, 2, 2)),
                          lam=np.zeros((2, 2)), provenance="k1", grid=64)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "invalid value", RuntimeWarning)
            k1.diagnostics["tail_error"] = k1.tail_error()
        health, faults = cli._k1_health(k1, 2.0)
        assert np.isnan(health["tail_error"])
        assert health["verdict"] == "degraded"
        assert faults == ["tail error nan > tol 2.00e+00"]

    def test_constant_prices_exit_3(self, tmp_path, capsys):
        # one constant price per asset: a zero return covariance fails
        # stage estimate, where it once gave all-zero kernels and exit 0
        cfg = small_config(tmp_path, n_days=1)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "simulate"]) == EXIT_OK
        stream = hawkes.EventStream.from_csv(sim / "events_000.csv")
        const = tmp_path / "const.csv"
        write_price_tape(const, stream, np.full(2 * len(stream), 100.0))
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw.update(events=[str(sim / "events_000.csv")], prices=[str(const)],
                   tolerances={"tail_tol": 2.0})
        cfg.write_text(json.dumps(raw))
        for command in ("estimate", "calibrate"):
            out = tmp_path / f"flat-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == cli.EXIT_NUMERIC
            assert "numerical failure: stage 'estimate' failed: return " \
                "covariance has zero trace" in capsys.readouterr().err
            assert not (out / "observables").exists()
            assert not (out / "k1").exists()

    def test_check_exit_codes(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert main(["check", str(out / "k2")]) == EXIT_OK
        # the martingale kernel of a lead-lag market fails the check
        assert main(["check", str(out / "k1")]) == EXIT_FAIL
        assert main(["check", str(tmp_path)]) == EXIT_INPUT

    def test_check_and_predict_read_no_config(self, tmp_path, capsys,
                                              monkeypatch):
        # a broken config in the environment does not reach check or
        # predict: check's exit code follows the NSA verdict
        cfg = small_config(tmp_path, n_days=1, horizon=200.0)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"speled_wrong": 1}))
        monkeypatch.setenv(cli.ENV_CONFIG, str(broken))
        for name in ("k1", "k2"):
            verdict = kernels.nsa_check(load_kernel(out / name),
                                        tol=1e-6).verdict
            assert main(["check", str(out / name)]) == \
                (EXIT_OK if verdict else EXIT_FAIL)
        assert main(["predict", str(out / "k1"),
                     str(out / "events_000.csv"), "--out",
                     str(tmp_path / "p.csv")]) == EXIT_OK
        assert "speled_wrong" not in capsys.readouterr().err
        assert main(["--output-dir", str(tmp_path / "env"),
                     "calibrate"]) == EXIT_INPUT

    def test_check_detects_constructed_asymmetry(self, tmp_path):
        tau = np.arange(9, dtype=float)
        vals = np.zeros((9, 2, 2))
        vals[:, 0, 0] = np.exp(-tau)
        vals[:, 1, 1] = np.exp(-tau)
        vals[0, 0, 1] = 0.5
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((2, 2)), provenance="k1", grid=256)
        save_kernel(tmp_path / "bad", k)
        assert main(["check", str(tmp_path / "bad")]) == EXIT_FAIL

    @pytest.mark.parametrize("change, expected", [
        ("drop_values", EXIT_INPUT), ("object_values", EXIT_INPUT),
        ("extra_array", EXIT_FAIL)])
    def test_check_reads_arrays_by_name(self, tmp_path, capsys, change,
                                        expected):
        vals = np.zeros((9, 2, 2))
        vals[0, 0, 1] = 0.5
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((2, 2)), provenance="k1", grid=256)
        save_kernel(tmp_path / "k", k)
        npz = tmp_path / "k" / "arrays.npz"
        with np.load(npz) as stored:
            arrays = dict(stored)
        if change == "drop_values":
            del arrays["values"]
        elif change == "object_values":
            # readable as floats, so only allow_pickle=False refuses it
            arrays["values"] = vals.astype(object)
        else:
            arrays["spare"] = np.ones(3)
        np.savez(npz, **arrays)
        assert main(["check", str(tmp_path / "k")]) == expected
        if expected == EXIT_INPUT:
            assert "input error" in capsys.readouterr().err

    def test_predict_zero_flows_constant(self, tmp_path):
        cfg = small_config(tmp_path, n_days=1, horizon=120.0)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        empty = tmp_path / "empty.csv"
        empty.write_text("time,asset,side,size\n")
        dest = tmp_path / "pred.csv"
        rc = main(["predict", str(out / "k1"), str(empty),
                   "--p0", "50.0", "--out", str(dest)])
        assert rc == EXIT_OK
        rows = dest.read_text().splitlines()[1:]
        prices = {float(r.split(",")[2]) for r in rows}
        assert prices == {50.0}

    def test_estimate_stage_then_calibrate(self, tmp_path):
        cfg = small_config(tmp_path, n_days=2, horizon=400.0)
        out = tmp_path / "staged"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "simulate"]) == EXIT_OK
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "estimate"]) == EXIT_OK
        assert {p.name for p in (out / "observables").iterdir()} == \
            {"arrays.npz", "meta.json"}
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert not (out / "factor").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert 0 < diag["k1_diagnostics"]["factor_order"] <= 2048 // 2
        assert diag["k1_diagnostics"]["reflection_norm"] < 1e-10

    def test_simulated_days_span_the_horizon(self, tmp_path):
        # a sparse market's last event falls seconds before the horizon;
        # each simulated day is still binned up to the horizon
        cfg = small_config(tmp_path, n_days=3, horizon=400.0, tau_max=8,
                           spec={"mu": [0.02, 0.02]})
        out = tmp_path / "sparse"
        for command in ("simulate", "estimate"):
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_OK
        last = [hawkes.EventStream.from_csv(f).times[-1]
                for f in sorted(out.glob("events_*.csv"))]
        assert min(last) < 399.0
        assert load_observables(out / "observables").n_bins == 3 * 400

    def test_explicit_data_paths(self, tmp_path):
        cfg = small_config(tmp_path, n_days=2, horizon=400.0)
        sim_out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim_out),
                     "simulate"]) == EXIT_OK
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw["events"] = [str(sim_out / f"events_{d:03d}.csv")
                         for d in range(2)]
        raw["prices"] = [str(p) for p in loop_price_tapes(cfg, sim_out)]
        data_cfg = tmp_path / "data_config.json"
        data_cfg.write_text(json.dumps(raw))
        out = tmp_path / "from_data"
        assert main(["--config", str(data_cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert {p.name for p in (out / "k2").iterdir()} == \
            {"arrays.npz", "meta.json"}

    def test_numerical_stage_failure_exits_3(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_days=1, horizon=10.0, tau_max=32)
        out = tmp_path / "short"
        with pytest.warns(UserWarning, match="dropped"):
            rc = main(["--config", str(cfg), "--output-dir", str(out),
                       "calibrate"])
        assert rc == 3
        assert "stage" in capsys.readouterr().err

    def test_factor_residual_over_bound_exits_3(self, tmp_path, capsys):
        cfg = small_config(tmp_path, tolerances={
            "factor_residual_bound": 1e-14, "tail_tol": 2.0})
        out = tmp_path / "tight"
        rc = main(["--config", str(cfg), "--output-dir", str(out),
                   "calibrate"])
        assert rc == 3
        assert "factor residual" in capsys.readouterr().err
        assert not (out / "factor").exists()
        assert not (out / "k1").exists()

    @pytest.mark.parametrize("overrides, code, message", [
        ({"trim": 60.0, "horizon": 100.0}, EXIT_INPUT, "empty time window"),
        ({"horizon": 10.0, "tau_max": 32}, cli.EXIT_NUMERIC,
         "tau_max too large"),
    ])
    def test_estimate_and_calibrate_agree_on_exit_code(
            self, tmp_path, capsys, overrides, code, message):
        # a window that bin_events cannot bin is an input error; a day set
        # that build_observables cannot estimate from is a numerical one.
        # calibrate agrees on the spec and on the simulated files by path
        cfg = small_config(tmp_path, n_days=1, **overrides)
        staged = tmp_path / "staged"
        assert main(["--config", str(cfg), "--output-dir", str(staged),
                     "simulate"]) == EXIT_OK
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw["events"] = [str(staged / "events_000.csv")]
        raw["prices"] = [str(p) for p in loop_price_tapes(cfg, staged)]
        data_cfg = tmp_path / "data_config.json"
        data_cfg.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "day 0", UserWarning)
            assert main(["--config", str(cfg), "--output-dir", str(staged),
                         "estimate"]) == code
            assert main(["--config", str(cfg), "--output-dir",
                         str(tmp_path / "direct"), "calibrate"]) == code
            assert main(["--config", str(data_cfg), "--output-dir",
                         str(tmp_path / "data"), "calibrate"]) == code
        assert capsys.readouterr().err.count(message) == 3

    def test_missing_data_exits_2(self, tmp_path):
        raw = {"events": [str(tmp_path / "nowhere.csv")], "tau_max": 8}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "x"), "calibrate"])
        assert rc == EXIT_INPUT

    def test_day_without_price_file_exits_2(self, tmp_path, capsys):
        # a data-path day is never binned with zero returns in place of
        # its prices: a directory read without a spec needs each day's
        # price file
        cfg = small_config(tmp_path, n_days=2)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "simulate"]) == EXIT_OK
        loop_price_tapes(cfg, sim)
        (sim / "prices_001.csv").unlink()
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        cfg.write_text(json.dumps(raw))
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert f"missing data file {sim / 'prices_001.csv'}" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()
        raw["events"] = [str(sim / "events_000.csv")]
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "no-prices"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_INPUT
        assert "1 event files but 0 price files" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lists", [
        pytest.param({"prices": ["nowhere.csv"]}, id="prices-only"),
        pytest.param({"events": [], "prices": []}, id="empty-lists"),
    ])
    def test_config_lists_without_events_exit_2(self, tmp_path, capsys,
                                                lists):
        # a price list without events is never dropped for the days of
        # the output directory, and empty lists are refused before any
        # output directory is made
        cfg = small_config(tmp_path, n_days=1)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "simulate"]) == EXIT_OK
        loop_price_tapes(cfg, sim)
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        cfg.write_text(json.dumps({**raw, **lists}))
        for command, out in (("estimate", sim),
                             ("calibrate", tmp_path / "fresh")):
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_INPUT, command
            assert "input error: config lists no event files" in \
                capsys.readouterr().err
        assert not (sim / "observables").exists()
        assert not (tmp_path / "fresh").exists()


class TestDerivedPrices:
    def test_spec_estimate_matches_price_tapes(self, tmp_path):
        # the oracle: a spec-mode directory holds events and a manifest
        # only, and estimate derives the prices that a data-path estimate
        # reads from tapes of event_prices_loop.  At a price level of 1e8
        # a double resolves moves to about 1e-8, so the observables carry
        # the level's rounding: prices from another p0 move sigma by
        # about 4e-10.  Each day's last event falls in (400, 400.5], so
        # the data-path day, which ends at its last event, has the
        # spec-mode day's 400 bins
        lam = [[0.9, 0.05], [0.1, 0.7]]
        p0 = [1e8, 3e8]
        cfg = small_config(tmp_path, horizon=400.5, p0=p0, **{"lambda": lam})
        sim = tmp_path / "sim"
        for command in ("simulate", "estimate"):
            assert main(["--config", str(cfg), "--output-dir", str(sim),
                         command]) == EXIT_OK
        assert {p.name for p in sim.iterdir()} == {
            "events_000.csv", "events_001.csv", "manifest.json",
            "observables"}
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw["events"] = [str(sim / f"events_{d:03d}.csv") for d in range(2)]
        raw["prices"] = [str(p) for p in loop_price_tapes(cfg, sim)]
        for ef in raw["events"]:
            assert 400.0 < hawkes.EventStream.from_csv(ef).times[-1] <= 400.5
        data_cfg = tmp_path / "data_config.json"
        data_cfg.write_text(json.dumps(raw))
        data = tmp_path / "data"
        assert main(["--config", str(data_cfg), "--output-dir", str(data),
                     "estimate"]) == EXIT_OK
        got = load_observables(sim / "observables")
        ref = load_observables(data / "observables")
        assert (got.n_days, got.n_bins) == (ref.n_days, ref.n_bins) == \
            (2, 800)
        for name in ("sigma", "omega", "omega_zero", "omega_inf"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    @pytest.mark.parametrize("key, value", [
        pytest.param("spec", {"mu": [0.6, 0.4], "sizes": [1.0, 2.0]},
                     id="spec"),
        pytest.param("lambda", [[1.0, 0.0], [0.0, 1.0]], id="lambda"),
        pytest.param("impact_scale", 2.0, id="impact_scale"),
        pytest.param("p0", [50.0, 50.0], id="p0"),
    ])
    def test_manifest_of_another_price_law_exits_2(self, tmp_path, capsys,
                                                   key, value):
        # the prices derived from a config that is not the simulation's
        # would silently stop matching its events
        sim = tmp_path / "sim"
        assert main(["--config", str(small_config(tmp_path, n_days=1)),
                     "--output-dir", str(sim), "simulate"]) == EXIT_OK
        other = small_config(tmp_path, n_days=1, **{key: value})
        assert main(["--config", str(other), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        name = "lam" if key == "lambda" else key
        assert f"records another {name} than the config" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()

    def test_directory_without_manifest_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_days=1)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "simulate"]) == EXIT_OK
        (sim / "manifest.json").unlink()
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert f"{sim / 'manifest.json'}: no simulation manifest" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()


class TestInMemoryDays:
    def test_calibrate_bins_what_simulate_estimate_read(self, tmp_path,
                                                         monkeypatch):
        # each day's first immigrant is drawn 3e-10 s past a bin edge;
        # simulate puts it on the edge, which closes the bin before
        default_rng = np.random.default_rng

        class EdgeRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def uniform(self, low, high, size):
                times = self.rng.uniform(low, high, size)
                times[0] = np.floor(times[0]) + 3e-10
                return times

        monkeypatch.setattr(np.random, "default_rng", EdgeRng)
        cfg = small_config(tmp_path)
        for command in ("simulate", "estimate"):
            assert main(["--config", str(cfg), "--output-dir",
                         str(tmp_path / "files"), command]) == EXIT_OK
        assert main(["--config", str(cfg), "--output-dir",
                     str(tmp_path / "memory"), "calibrate"]) == EXIT_OK
        files = dir_bytes(tmp_path / "files")
        memory = dir_bytes(tmp_path / "memory")
        assert b".000000000," in files["events_000.csv"]
        # estimate derives the prices that calibrate binned; neither
        # writes a price tape
        assert set(files) == {"observables/arrays.npz",
                              "observables/meta.json", "events_000.csv",
                              "events_001.csv", "manifest.json"}
        for name in files:
            assert memory[name] == files[name], name


def three_asset_config(tmp_path, **overrides):
    beta = 0.3
    A = [[0.08, 0.02, 0.0], [0.03, 0.07, 0.01], [0.0, 0.02, 0.06]]
    block = [[[[a, beta]] if a else [] for a in row] for row in A]
    payload = {"spec": {"mu": [0.5, 0.4, 0.3], "sizes": [1.0, 1.0, 2.0],
                        "blocks": {"aa": block, "bb": block}},
               "delta": 1.0, "tau_max": 8, "grid": 256, "seed": 5,
               "horizon": 400.0, "n_days": 2,
               "tolerances": {"tail_tol": 2.0}}
    payload.update(overrides)
    path = tmp_path / "config3.json"
    path.write_text(json.dumps(payload))
    return path


def read_predicted(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1].astype(int), rows[:, 2]


class TestDemo:
    def test_three_assets(self, tmp_path):
        # p0 defaults to 100 per asset; a configured p0 shifts each asset's
        # path by its own constant
        runs = {}
        for name, extra in (("default", {}),
                            ("p0", {"p0": [10.0, 20.0, 30.0]})):
            cfg = three_asset_config(tmp_path, **extra)
            out = tmp_path / name
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         "demo"]) == EXIT_OK
            runs[name] = read_predicted(out / "predicted_prices.csv")
        assets, default = runs["default"]
        assert len(assets) > 0
        assert np.array_equal(assets, np.tile([0, 1, 2], len(assets) // 3))
        p0_assets, shifted = runs["p0"]
        assert np.array_equal(p0_assets, assets)
        p0 = np.array([10.0, 20.0, 30.0])[assets]
        assert np.allclose(shifted - p0, default - 100.0, rtol=0, atol=1e-9)


def check_output(kernel, capsys):
    save_kernel(pathlib.Path("kernel"), kernel)
    rc = main(["check", "kernel"])
    lines = capsys.readouterr().out.splitlines()
    scans = [line for line in lines if line.startswith("min roundtrip")]
    rels = [float(line.split("(")[1].split()[0])
            for line in scans if "skipped" not in line]
    worst, = [line for line in lines if line.startswith("worst")]
    return rc, scans, rels, worst


class TestCheckScans:
    def test_worst_is_smallest_scan(self, tmp_path, capsys, monkeypatch):
        # exp(-tau / 4) on both assets: every scan is positive
        monkeypatch.chdir(tmp_path)
        tau = np.arange(65, dtype=float)
        vals = np.exp(-tau / 4.0)[:, None, None] * np.eye(2)
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((2, 2)), provenance="k1", grid=256)
        rc, scans, rels, worst = check_output(k, capsys)
        assert rc == EXIT_OK
        assert len(rels) == len(scans) == 6 and min(rels) > 0
        assert float(worst.split()[-1]) == pytest.approx(min(rels),
                                                         rel=6e-3)

    def test_refused_scans_skipped(self, tmp_path, capsys, monkeypatch):
        # 8 lags with an unconverged tail: the T = 10 scans are refused
        monkeypatch.chdir(tmp_path)
        tau = np.arange(9, dtype=float)
        vals = np.exp(-0.05 * tau)[:, None, None]
        k = ImpactKernel(delta=1.0, values=vals,
                         lam=np.zeros((1, 1)), provenance="k1", grid=64)
        rc, scans, rels, worst = check_output(k, capsys)
        skipped = [line for line in scans if "skipped" in line]
        assert len(skipped) == 3 and all("T=10.0" in s for s in skipped)
        assert len(rels) == 3
        assert float(worst.split()[-1]) == pytest.approx(min(rels),
                                                         rel=6e-3)
        verdict = kernels.nsa_check(k, tol=1e-6).verdict
        assert rc == (EXIT_OK if verdict else EXIT_FAIL)


class TestSideLabels:
    def test_unknown_label_is_input_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_days=1, horizon=200.0)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "calibrate"]) == EXIT_OK
        bad = tmp_path / "bad.csv"
        text = (sim / "events_000.csv").read_text()
        bad.write_text(text.replace(",S,", ",Q,", 1))
        assert main(["predict", str(sim / "k1"), str(bad), "--out",
                     str(tmp_path / "p.csv")]) == EXIT_INPUT
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw["events"] = [str(bad)]
        cfg.write_text(json.dumps(raw))
        assert main(["--config", str(cfg), "--output-dir",
                     str(tmp_path / "data"), "calibrate"]) == EXIT_INPUT
        assert "unknown side label 'Q'" in capsys.readouterr().err


def test_import_loads_no_scipy_or_synthetic(tmp_path):
    # scipy is a test dependency: the synthetic instances live with the
    # tests, the package import loads no scipy, and the demo runs without it
    code = ("import sys, crossimpact; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy' "
            "or m == 'crossimpact.synthetic')))")
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
    code = ("import sys; sys.modules['scipy'] = None; "
            "from crossimpact import cli; "
            f"sys.exit(cli.main(['--output-dir', {str(tmp_path)!r}, "
            "'demo']))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "predicted_prices.csv").exists()
