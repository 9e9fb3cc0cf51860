import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from crossimpact import arbitrage, cli, formats, hawkes, kernels, observables
from crossimpact.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, RunConfig, main
from crossimpact.kernels import ImpactKernel, load_kernel, save_kernel
from crossimpact.observables import load_observables

import synthetic
from test_formats import edit_header
from test_hawkes import event_prices_loop


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
               "tolerances": {"nsa_tol": 1e-6, "tail_tol": 2.0}}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# config keys that calibrate no longer takes: the factor's exact-lag stop
# and the taper policy, whose one value in use is Bartlett's
RETIRED_KEYS = ["factor_tol", "factor_residual_bound", "taper"]


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


def write_price_tape(path, stream, prices):
    """A data-path price CSV: each asset's price at every event of stream."""
    d = stream.d
    synthetic.write_price_csv(path, np.repeat(stream.times, d),
                              np.tile(np.arange(d), len(stream)), prices)


def loop_price_tapes(cfg, sim):
    """Write prices_NNN.csv beside each events_NNN.csv that a spec-mode
    simulate on cfg wrote under sim, from event_prices_loop with the
    config's lambda (or the default) and p0 (or 100 per asset); returns
    the paths."""
    run = RunConfig.from_file(cfg)
    spec = hawkes.HawkesSpec.from_dict(run.spec)
    lam = np.asarray(run.lam, dtype=float) if run.lam is not None \
        else hawkes.default_lambda(spec, run.impact_scale)
    p0 = np.asarray(run.p0 if run.p0 is not None else [100.0] * spec.d)
    paths = []
    for ef in sorted(sim.glob("events_*.csv")):
        stream = hawkes.EventStream.from_csv(ef, d=spec.d)
        paths.append(ef.with_name(ef.name.replace("events_", "prices_")))
        write_price_tape(paths[-1], stream,
                         event_prices_loop(spec, stream, lam, p0))
    return paths


def data_path_days(tmp_path):
    """A two-day directory with loop price tapes, and its config
    without the spec, so that it is read as a data path."""
    cfg = small_config(tmp_path, n_days=2)
    sim = tmp_path / "sim"
    assert main(["--config", str(cfg), "--output-dir", str(sim),
                 "simulate"]) == EXIT_OK
    loop_price_tapes(cfg, sim)
    raw = json.loads(cfg.read_text())
    del raw["spec"]
    cfg.write_text(json.dumps(raw))
    return cfg, sim


class TestConfig:
    def test_not_json_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{")
        message = (f"input error: {cfg} is not JSON: Expecting property "
                   "name enclosed in double quotes: line 1 column 2 "
                   "(char 1)")
        assert_refused(cfg, tmp_path, capsys, message)
        out = tmp_path / "refused-estimate"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "estimate"]) == EXIT_INPUT
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_spec_and_data_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for data in ({"events": ["x.csv"]}, {"prices": ["x.csv"]}):
            path.write_text(json.dumps({"spec": {"mu": [1.0]}, **data}))
            with pytest.raises(cli.InputError, match="not both"):
                RunConfig.from_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"speled_wrong": 1}))
        with pytest.raises(cli.InputError, match="unknown config keys"):
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
        pytest.param({"taper": 3}, "unknown config keys: ['taper']",
                     id="taper-int"),
        pytest.param({"spec": [1.0]}, "'spec' must be an object or null",
                     id="spec-list"),
        pytest.param({"tolerances": 1e-3}, "tolerances are JSON objects",
                     id="tolerances-float"),
        pytest.param({"n_days": -1}, "n_days must be at least 1, not -1",
                     id="n_days-negative"),
        # unrefused, the simulate stage failed on it (exit 3 from calibrate
        # and demo, 2 from simulate) after making the output directory
        pytest.param({"seed": -1}, "seed must be at least 0, not -1",
                     id="seed-negative"),
        # build_K1's rule; unrefused, each wrote the events, the manifest
        # and observables/ before failing a later stage
        pytest.param({"tau_max": 64, "grid": 128},
                     "tau_max must be at least 0 and below grid // 2, not "
                     "64 with grid 128", id="tau_max-half-grid"),
        pytest.param({"tau_max": 64, "grid": 0}, "not 64 with grid 0",
                     id="grid-zero"),
        pytest.param({"tau_max": 64, "grid": -4096},
                     "not 64 with grid -4096", id="grid-negative"),
        pytest.param({"tau_max": -1}, "not -1 with grid 2048",
                     id="tau_max-negative"),
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

    @pytest.mark.parametrize("raw, message", [
        pytest.param({"horizon": float("nan")},
                     "horizon must be finite and at least 0, not nan",
                     id="horizon-nan"),
        pytest.param({"horizon": float("inf")}, "horizon must be finite",
                     id="horizon-inf"),
        pytest.param({"horizon": -5.0}, "horizon must be finite and at "
                     "least 0, not -5.0", id="horizon-negative"),
        pytest.param({"trim": float("nan")}, "trim must be finite",
                     id="trim-nan"),
        pytest.param({"trim": -1.0}, "trim must be finite and at least 0, "
                     "not -1.0", id="trim-negative"),
        pytest.param({"impact_scale": float("nan")},
                     "impact_scale must be finite, not nan",
                     id="impact_scale-nan"),
        pytest.param({"p0": [float("nan"), 100.0]},
                     "p0 must be finite, not [nan, 100.0]", id="p0-nan"),
        pytest.param({"p0": [float("-inf"), 100.0]}, "p0 must be finite",
                     id="p0-inf"),
        pytest.param({"lambda": [[1.0, 0.0], [0.0, float("nan")]]},
                     "lambda must be finite", id="lambda-nan"),
        pytest.param({"lambda": [[1.0, "x"], [0.0, 1.0]]},
                     "lambda must hold numbers", id="lambda-str"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, raw, message):
        # unrefused, a NaN horizon failed a later stage after making the
        # output directory, a horizon of -5 left an empty one, and the
        # others exited 0 (with NaN kernels where a value was NaN)
        assert_refused(small_config(tmp_path, **raw), tmp_path, capsys,
                       message)

    def test_lam_and_lambda_exit_2(self, tmp_path, capsys):
        # one of them would be dropped without a word
        cfg = small_config(tmp_path, lam=[[1.0, 0.0], [0.0, 1.0]],
                           **{"lambda": [[2.0, 0.0], [0.0, 2.0]]})
        for command in ("simulate", "estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_INPUT, command
            assert "input error: config gives both lam and lambda" in \
                capsys.readouterr().err, command
            assert not out.exists(), command

    @pytest.mark.parametrize("key", ["tail_tol", "nsa_tol"])
    def test_key_also_under_tolerances_exits_2(self, tmp_path, capsys, key):
        # unrefused, the value under tolerances won without a word
        cfg = small_config(tmp_path, **{key: 1e-3})
        for command in ("simulate", "estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_INPUT, command
            assert f"input error: config gives {key} both at top level " \
                "and under tolerances" in capsys.readouterr().err, command
            assert not out.exists(), command

    @pytest.mark.parametrize("under_tolerances", [False, True],
                             ids=["top", "tolerances"])
    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_factor_knob_exits_2(self, tmp_path, capsys, key,
                                         under_tolerances):
        # calibrate fixes the factor's order from tau_max and tapers every
        # estimate by Bartlett's weights, so no retired knob decides
        # anything: a config that sets one is refused, not ignored
        value = "none" if key == "taper" else 1e-10
        raw = {"tolerances": {"tail_tol": 2.0, key: value}} \
            if under_tolerances else {key: value}
        cfg = small_config(tmp_path, **raw)
        message = f"unknown config keys: ['{key}']"
        assert_refused(cfg, tmp_path, capsys, message)
        out = tmp_path / "refused-estimate"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "estimate"]) == EXIT_INPUT
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "tau_max", "lambda"])
    def test_field_under_tolerances_exits_2(self, tmp_path, capsys, key):
        # unrefused, every key under tolerances was merged into the
        # config, so a whole config nested there was accepted and run
        value = [[1.0, 0.0], [0.0, 1.0]] if key == "lambda" else 4
        cfg = small_config(tmp_path, tolerances={"tail_tol": 2.0, key: value})
        raw = json.loads(cfg.read_text())
        raw.pop(key, None)
        cfg.write_text(json.dumps(raw))
        message = f"config key '{key}' is not a tolerance"
        assert_refused(cfg, tmp_path, capsys, message)
        out = tmp_path / "refused-estimate"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "estimate"]) == EXIT_INPUT
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        for command in ("simulate", "estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            rc = main(["--config", str(cfg), "--output-dir", str(out),
                       "--seed", "-3", command])
            err = capsys.readouterr().err
            assert rc == EXIT_INPUT, command
            assert err == "input error: seed must be at least 0, not -3\n", \
                command
            assert not out.exists(), command

    def test_int_taken_for_float(self, tmp_path):
        cfg = RunConfig.from_file(small_config(tmp_path, delta=1, trim=0))
        assert (cfg.delta, cfg.trim) == (1, 0)

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"tolerances": {"tail_tol": 0.0}}))
        with pytest.raises(cli.InputError, match="tail_tol must be"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("key", ["--tol", "delta", "factor_tol",
                                     "tail_tol", "nsa_tol",
                                     "factor_residual_bound"])
    def test_tolerance_not_finite_positive_exits_2(self, tmp_path, capsys,
                                                   key, value):
        # with nsa_tol or --tol inf every kernel would pass; with a NaN
        # tail_tol every K1 would read degraded.  A retired factor knob
        # is still refused whatever its value, now by name
        message = f"input error: {key} must be positive and finite"
        if key in RETIRED_KEYS:
            message = f"input error: unknown config keys: ['{key}']"
        if key == "--tol":
            k = ImpactKernel(delta=1.0, values=np.ones((9, 1, 1)),
                             lam=np.ones((1, 1)), provenance="k1", grid=64)
            save_kernel(tmp_path / "k", k)
            assert main(["check", str(tmp_path / "k"),
                         f"--tol={value}"]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith(message)
            return
        raw = {"delta": value} if key == "delta" else \
            {"tolerances": {key: value}}
        cfg = small_config(tmp_path, **raw)
        for command in ("simulate", "estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_INPUT, command
            assert capsys.readouterr().err.startswith(message), command
            assert not out.exists(), command


class TestConfigEcho:
    def configs(self, tmp_path):
        """The demo's config, a data-path config, and a spec-mode config
        with lambda and p0."""
        data = json.loads(small_config(tmp_path).read_text())
        del data["spec"]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(dict(data, events=["e.csv"],
                                        prices=["p.csv"])))
        return [cli.demo_config(), RunConfig.from_file(path),
                RunConfig.from_file(small_config(
                    tmp_path, p0=[10.0, 20.0],
                    **{"lambda": [[1.0, 0.1], [0.2, 0.5]]}))]

    def test_new_dict_per_call(self, tmp_path):
        # a new top-level dict whose values are the config's own: no deep
        # copy of the spec per call
        for cfg in self.configs(tmp_path):
            first = cfg.echo()
            assert first is not cfg.echo() and first == cfg.echo()
            assert all(first[f.name] is getattr(cfg, f.name)
                       for f in dataclasses.fields(cfg))
            first["seed"] = -1
            assert cfg.seed != -1 and cfg.echo()["seed"] == cfg.seed

    def test_dumps_as_asdict(self, tmp_path):
        for cfg in self.configs(tmp_path):
            assert formats.dumps(cfg.echo()) == \
                formats.dumps(dataclasses.asdict(cfg))


@pytest.mark.parametrize("command", ["simulate", "estimate", "calibrate",
                                     "demo"])
def test_spec_validated_once_per_command(tmp_path, capsys, command):
    # the spec carries its report: the per-day simulate, the pricer and
    # the command's own check read it
    cfg, out = small_config(tmp_path, n_days=3), tmp_path / "out"
    if command == "estimate":
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "simulate"]) == EXIT_OK
    with mock.patch.object(hawkes, "validate_spec",
                           wraps=hawkes.validate_spec) as counted:
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     command]) == EXIT_OK
    assert counted.call_count == 1


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
        pytest.param({"sizes": [1.0, float("nan")]},
                     "order sizes must be positive and finite", id="sizes1"),
        pytest.param({"mu": [[0.6, 0.45]], "sizes": [[1.0, 2.0]]},
                     "mu must be 1-D", id="mu0"),
        # unrefused, a NaN alpha was numpy's "Array must not contain infs
        # or NaNs", an infinite mu left an empty output directory (exit 3
        # from calibrate), and an infinite beta exited 0
        pytest.param({"blocks": {"aa": [[[[float("nan"), 0.25]], []],
                                        [[], []]]}},
                     "alpha must be finite", id="alpha-nan"),
        pytest.param({"mu": [float("inf"), 0.45]}, "mu must be finite",
                     id="mu-inf"),
        pytest.param({"blocks": {"aa": [[[[0.1, float("inf")]], []],
                                        [[], []]]}},
                     "beta must be finite", id="beta-inf"),
        # a misspelt "blocks" once gave a Poisson market and exit 0
        pytest.param({"block": {"aa": [[[[0.1, 0.25]], []], [[], []]]}},
                     "unknown spec keys: ['block']", id="unknown-key"),
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

    @pytest.mark.parametrize("command, message", [
        pytest.param("simulate", "simulate needs a hawkes spec in config",
                     id="simulate-without-spec"),
        pytest.param("estimate", "no events_*.csv under {out}",
                     id="estimate-without-events"),
    ])
    def test_no_input_exits_2(self, tmp_path, capsys, command, message):
        # a config with neither a spec nor event files, on a directory
        # that holds no day
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"tau_max": 8}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     command]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"input error: {message.format(out=out)}\n"
        assert not out.exists()

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
            "flow_tail", "tail_error"}
        # a factor of estimated lags fits them within their sampling noise
        obs = load_observables(out1 / "observables")
        assert 0 < diag["k1_diagnostics"]["factor_residual"] \
            <= obs.residual_noise()
        # boundary files match the boundary operators applied to the
        # estimated observables
        from crossimpact.kernels import compute_K0, compute_Lambda
        k1 = load_kernel(out1 / "k1")
        assert np.allclose(k1.k0, compute_K0(obs), atol=0, rtol=0)
        assert np.allclose(k1.lam, compute_Lambda(obs), atol=0, rtol=0)

    def test_long_memory_k1_degraded_and_not_costed_past_its_lattice(
            self, tmp_path, capsys):
        # decay 0.02 and branching ratio 0.79: the flow still correlates
        # at lag 32 (0.029 of lag 0 on exact lags).  K1's factor reaches
        # Lambda within the lattice, yet the flow tail it keeps reads
        # degraded, and the saved kernel refuses a horizon past tau_max
        a = [[0.0096, 0.0032], [0.0056, 0.0128]]
        blocks = {"aa": [[[[a[0][0], 0.02]], [[a[0][1], 0.02]]],
                         [[[a[1][0], 0.02]], [[a[1][1], 0.02]]]]}
        blocks["bb"] = blocks["aa"]
        cfg = small_config(tmp_path, spec={"mu": [0.6, 0.45],
                                           "sizes": [1.0, 2.0],
                                           "blocks": blocks},
                           tolerances={"tail_tol": 1e-3})
        out = tmp_path / "long"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        flow_tail = diag["k1_diagnostics"]["flow_tail"]
        assert diag["health"]["verdict"] == "degraded"
        assert diag["health"]["tail_error"] == flow_tail > 1e-3
        k1 = load_kernel(out / "k1")
        assert np.linalg.norm(k1.values[-1] - k1.lam) \
            <= 1e-12 * np.linalg.norm(k1.lam)
        assert k1.tail_error() == flow_tail
        strategy = arbitrage.Strategy(
            pieces=[[arbitrage.Piece(0.0, 10.0, 1.0)], []], horizon=64.0)
        with pytest.raises(arbitrage.StrategyError, match="not converged"):
            arbitrage.cost(strategy, k1)
        assert "k1 degraded (tail error" in capsys.readouterr().out

    def test_odd_grid_k2_passes_its_check(self, tmp_path):
        # on an odd grid the last stored lag is not the Nyquist lag; taken
        # for one, this config's clipped kernel failed its own check with
        # a min spectral eigenvalue of -6.5e-6
        cfg = small_config(tmp_path, grid=301, tau_max=64, horizon=1200.0,
                           n_days=5)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        report = json.loads(
            (out / "diagnostics.json").read_text())["k2_admissibility"]
        assert report["verdict"]
        assert report["min_spectral_eig"] >= -1e-12
        k2 = load_kernel(out / "k2")
        assert (k2.grid, k2.n_lags) == (301, 150)

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
        # the tail error of an all-zero kernel is 0/0, and a lattice on lam
        # whose flow tail is unknown has an unknown tail: NaN is no
        # healthy tail, however loose the tolerance
        zero = ImpactKernel(delta=1.0, values=np.zeros((9, 2, 2)),
                            lam=np.zeros((2, 2)), provenance="k1", grid=64,
                            tail_tol=2.0)
        flat = ImpactKernel(delta=1.0, values=np.tile(np.eye(2), (5, 1, 1)),
                            lam=np.eye(2), provenance="k1", grid=64,
                            tail_tol=2.0, diagnostics={"flow_tail": np.nan})
        for k1 in (zero, flat):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "invalid value",
                                        RuntimeWarning)
                health, faults = cli._k1_health(k1)
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

    def test_zero_flow_exit_3(self, tmp_path, capsys):
        # a buy and a sell of size 1 on each asset every second, under
        # moving prices: the flow covariance is zero, which estimate once
        # wrote as observables with omega_inf = 1e-312 I and calibrate
        # then failed at stage factorize
        times = (np.arange(100)[:, None] + [0.1, 0.2, 0.3, 0.4]).ravel()
        events = tmp_path / "events.csv"
        events.write_text("time,asset,side,size\n" + "".join(
            f"{t:.1f},{a},{side},1\n" for t, (a, side) in
            zip(times, [(0, "B"), (0, "S"), (1, "B"), (1, "S")] * 100)))
        prices = 100.0 + np.cumsum(
            np.random.default_rng(5).normal(size=(100, 2)), axis=0)
        synthetic.write_price_csv(tmp_path / "prices.csv",
                                  np.repeat(np.arange(100) + 0.5, 2),
                                  np.tile([0, 1], 100), prices.ravel())
        cfg = tmp_path / "zero_flow.json"
        cfg.write_text(json.dumps({
            "events": [str(events)], "prices": [str(tmp_path / "prices.csv")],
            "tau_max": 4, "grid": 64}))
        for command in ("estimate", "calibrate"):
            out = tmp_path / f"zero-flow-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == cli.EXIT_NUMERIC
            assert "numerical failure: stage 'estimate' failed: flow " \
                "covariance has zero trace: no signed flow in any day" in \
                capsys.readouterr().err
            assert not (out / "observables").exists()

    def test_demo_without_config_is_canonical(self, tmp_path, capsys,
                                              monkeypatch):
        # the canonical demo: its K1 fails the necessary conditions and
        # its clip passes them
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        out = tmp_path / "demo"
        assert main(["--output-dir", str(out), "demo"]) == EXIT_OK
        assert "k1 necessary conditions fail; k2 necessary conditions " \
            "pass\n" in capsys.readouterr().out
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["config"] == json.loads(formats.dumps(
            cli.demo_config().echo()))
        assert not diag["k1_admissibility"]["verdict"]
        assert diag["k2_admissibility"]["verdict"]
        assert (out / "predicted_prices.csv").exists()

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
        meta, arrays = formats.load_artifact(tmp_path / "k")
        if change == "drop_values":
            del arrays["values"]
        elif change == "extra_array":
            arrays["spare"] = np.ones(3)
        formats.save_artifact(tmp_path / "k", meta, **arrays)
        if change == "object_values":
            # the payload holds float64 only: a values entry that
            # describes an object array is refused, not read as floats
            meta["arrays"]["values"] = {"dtype": "object",
                                        "shape": list(vals.shape)}
            edit_header(tmp_path / "k", lambda _: json.dumps(meta))
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

    @pytest.mark.parametrize("p0", ["nan", "inf", "-inf"])
    def test_predict_non_finite_p0_exits_2(self, tmp_path, capsys, p0):
        # unrefused, --p0 nan wrote nan prices and exited 0
        spec = hawkes.HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0],
                                               beta=0.5, aa=[[0.1]],
                                               bb=[[0.1]])
        save_kernel(tmp_path / "k", hawkes.analytic_kernel(spec, [[0.8]],
                                                           1.0, 8))
        events = tmp_path / "events.csv"
        events.write_text("time,asset,side,size\n0.5,0,B,1\n")
        dest = tmp_path / "pred.csv"
        assert main(["predict", str(tmp_path / "k"), str(events),
                     f"--p0={p0}", "--out", str(dest)]) == EXIT_INPUT
        assert "input error: --p0 must be finite" in capsys.readouterr().err
        assert not dest.exists()

    def test_estimate_stage_then_calibrate(self, tmp_path):
        cfg = small_config(tmp_path, n_days=2, horizon=400.0)
        out = tmp_path / "staged"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "simulate"]) == EXIT_OK
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "estimate"]) == EXIT_OK
        assert {p.name for p in (out / "observables").iterdir()} == \
            {"artifact.bin"}
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert not (out / "factor").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        # estimated lags stop at half of tau_max; the last reflection
        # computed is a normalised one's norm
        assert diag["k1_diagnostics"]["factor_order"] == 32 // 2
        assert 0 < diag["k1_diagnostics"]["reflection_norm"] < 1

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
            {"artifact.bin"}

    def test_numerical_stage_failure_exits_3(self, tmp_path, capsys):
        # a day too short for tau_max is refused, not dropped with a
        # warning (warnings are errors here)
        cfg = small_config(tmp_path, n_days=1, horizon=10.0, tau_max=32)
        out = tmp_path / "short"
        rc = main(["--config", str(cfg), "--output-dir", str(out),
                   "calibrate"])
        assert rc == 3
        assert "stage 'estimate' failed: tau_max too large for day 0: " \
            "10 bins < 34" in capsys.readouterr().err
        assert not (out / "observables").exists()

    def test_short_data_path_day_exits_3(self, tmp_path, capsys):
        # a 400 s day and a 12 s day by path: the short day is never
        # dropped from omega while it is counted in sigma, n_days and
        # n_bins; stage estimate fails on it by name
        events = []
        for name, horizon in (("long", 400.0), ("short", 12.0)):
            (tmp_path / name).mkdir()
            cfg = small_config(tmp_path / name, n_days=1, horizon=horizon)
            sim = tmp_path / name / "sim"
            assert main(["--config", str(cfg), "--output-dir", str(sim),
                         "simulate"]) == EXIT_OK
            loop_price_tapes(cfg, sim)
            events.append(str(sim / "events_000.csv"))
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw.update(tau_max=16, events=events,
                   prices=[e.replace("events_", "prices_") for e in events])
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == cli.EXIT_NUMERIC
        assert "stage 'estimate' failed: tau_max too large for day 1: " in \
            capsys.readouterr().err
        assert not (out / "observables").exists()

    def test_factor_residual_over_bound_exits_3(self, tmp_path, capsys):
        # the factor fits its estimated lags within their sampling noise,
        # not within build_K1's 1e-4: with that noise allowance set aside,
        # as for exact lags, the 1e-4 alone refuses it
        cfg = small_config(tmp_path)
        assert main(["--config", str(cfg), "--output-dir",
                     str(tmp_path / "fits"), "calibrate"]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "tight"
        with mock.patch.object(observables.ObservableSet, "residual_noise",
                               return_value=0.0):
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
        assert main(["--config", str(cfg), "--output-dir", str(staged),
                     "estimate"]) == code
        assert main(["--config", str(cfg), "--output-dir",
                     str(tmp_path / "direct"), "calibrate"]) == code
        assert main(["--config", str(data_cfg), "--output-dir",
                     str(tmp_path / "data"), "calibrate"]) == code
        assert capsys.readouterr().err.count(message) == 3
        assert not (staged / "observables").exists()
        assert not (tmp_path / "data").exists()
        # an input fault is raised before calibrate simulates a day
        assert (tmp_path / "direct").exists() == (code != EXIT_INPUT)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"horizon": 0.0}, id="zero-horizon"),
        pytest.param({"trim": 60.0, "horizon": 100.0}, id="trim-60"),
        pytest.param({"trim": 0.25, "horizon": 1.25}, id="under-one-bin"),
    ])
    def test_spec_window_fault_writes_nothing(self, tmp_path, capsys,
                                              overrides):
        # every spec-mode day spans the config horizon, so a window of
        # less than one bin is refused before a day is simulated or read
        cfg = small_config(tmp_path, n_days=1, **overrides)
        for command in ("estimate", "calibrate", "demo"):
            out = tmp_path / f"refused-{command}"
            assert main(["--config", str(cfg), "--output-dir", str(out),
                         command]) == EXIT_INPUT, command
            assert capsys.readouterr().err.startswith(
                "input error: empty time window: "), command
            assert not out.exists(), command

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
        cfg, sim = data_path_days(tmp_path)
        (sim / "prices_001.csv").unlink()
        raw = json.loads(cfg.read_text())
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

    def test_day_without_top_asset_takes_width_from_prices(self, tmp_path):
        # the price file lists every asset; the events of day 1 name only
        # asset 0
        cfg, sim = data_path_days(tmp_path)
        ef = sim / "events_001.csv"
        s = hawkes.EventStream.from_csv(ef)
        keep = s.assets == 0
        hawkes.EventStream(times=s.times[keep], assets=s.assets[keep],
                           sides=s.sides[keep], sizes=s.sizes[keep],
                           horizon=s.horizon, d=1).to_csv(ef)
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_OK
        assert load_observables(sim / "observables").d == 2

    def test_empty_event_file_exits_2(self, tmp_path, capsys):
        # an event file read by path ends at its last event, so a file
        # without events spans no window
        cfg, sim = data_path_days(tmp_path)
        (sim / "events_001.csv").write_text("time,asset,side,size\n")
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert "input error: day 1: empty time window" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()

    def test_days_of_unequal_width_exit_2(self, tmp_path, capsys):
        cfg, sim = data_path_days(tmp_path)
        with open(sim / "prices_001.csv", "ab") as fh:
            fh.write(b"0.000000000,2,100\r\n")
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert "day 1 has 3 assets, but day 0 has 2" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()
        # the same days listed by path: calibrate refuses them before it
        # creates its output directory
        raw = json.loads(cfg.read_text())
        raw["events"] = [str(f) for f in sorted(sim.glob("events_*.csv"))]
        raw["prices"] = [str(f) for f in sorted(sim.glob("prices_*.csv"))]
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_INPUT
        assert "day 1 has 3 assets" in capsys.readouterr().err
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

    def test_estimate_reads_the_manifest_days(self, tmp_path, capsys):
        # a 3-day simulate, then a 2-day one, leaves a stray day 2, which
        # must not be binned as a third day
        sim = tmp_path / "sim"
        for n_days in (3, 2):
            assert main(["--config", str(small_config(tmp_path,
                                                      n_days=n_days)),
                         "--output-dir", str(sim), "simulate"]) == EXIT_OK
        assert (sim / "events_002.csv").exists()
        cfg = small_config(tmp_path, n_days=2)
        capsys.readouterr()
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_OK
        assert "estimated observables from 2 days, 800 bins" in \
            capsys.readouterr().out
        assert main(["--config", str(cfg), "--output-dir",
                     str(tmp_path / "cal"), "calibrate"]) == EXIT_OK
        assert dir_bytes(sim / "observables") == \
            dir_bytes(tmp_path / "cal" / "observables")

    @pytest.mark.parametrize("key, value", [
        pytest.param("n_days", 3, id="n_days"),
        pytest.param("horizon", 600.0, id="horizon"),
    ])
    def test_manifest_of_other_days_exits_2(self, tmp_path, capsys, key,
                                            value):
        # unrefused, a horizon of 600 against days simulated over 400 s
        # binned each day's last 200 s as empty
        sim = tmp_path / "sim"
        assert main(["--config", str(small_config(tmp_path)),
                     "--output-dir", str(sim), "simulate"]) == EXIT_OK
        other = small_config(tmp_path, **{key: value})
        assert main(["--config", str(other), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert f"records another {key} than the config" in \
            capsys.readouterr().err
        assert not (sim / "observables").exists()

    def test_missing_day_file_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "simulate"]) == EXIT_OK
        (sim / "events_001.csv").unlink()
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_INPUT
        assert f"missing data file {sim / 'events_001.csv'}" in \
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
        assert set(files) == {"observables/artifact.bin", "events_000.csv",
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
    def test_each_kernel_checked_once(self, tmp_path, capsys, monkeypatch):
        # demo prints the K2 report that calibrate computed and recorded;
        # check computes one report, on the kernel it loads
        checked = []
        nsa_check = kernels.nsa_check

        def counted(kernel, **kwargs):
            checked.append(kernel.provenance)
            return nsa_check(kernel, **kwargs)
        monkeypatch.setattr(kernels, "nsa_check", counted)
        out = tmp_path / "demo"
        assert main(["--config", str(small_config(tmp_path)),
                     "--output-dir", str(out), "demo"]) == EXIT_OK
        assert checked == ["k1", "k2"]
        printed = capsys.readouterr().out
        report = json.loads(printed[printed.index("{\n"):
                                    printed.index("\n}\n") + 2])
        diag = json.loads((out / "diagnostics.json").read_text())
        assert report == diag["k2_admissibility"]
        checked.clear()
        assert main(["check", str(out / "k2")]) == EXIT_OK
        assert checked == ["k2"]

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


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """A calibrate run's output directory, with K1 and day 0's events."""
    root = tmp_path_factory.mktemp("calibrated")
    out = root / "run"
    assert main(["--config", str(small_config(root, n_days=1,
                                              horizon=200.0)),
                 "--output-dir", str(out), "calibrate"]) == EXIT_OK
    return out


def with_entry(index, value):
    """An edit that copies an array and sets one entry."""
    def edit(array):
        array = array.copy()
        array[index] = value
        return array
    return edit


class TestKernelArtifact:
    @pytest.mark.parametrize("name, edit", [
        pytest.param("values", lambda v: v[:, :, :1], id="values-d-by-1"),
        pytest.param("values", lambda v: v[:, 0], id="values-2d"),
        pytest.param("values", lambda v: v[:0], id="values-no-lag"),
        pytest.param("values", with_entry((3, 0, 0), np.nan),
                     id="values-nan"),
        pytest.param("lam", lambda lam: lam[:1], id="lam-1-by-2"),
        pytest.param("lam", with_entry((0, 1), np.inf), id="lam-inf"),
        pytest.param("delta", lambda _: 0.0, id="delta-zero"),
        pytest.param("delta", lambda _: float("nan"), id="delta-nan"),
        pytest.param("delta", lambda _: "1.0", id="delta-str"),
        pytest.param("tail_tol", lambda _: "abc", id="tail_tol-str"),
        pytest.param("tail_tol", lambda _: float("nan"), id="tail_tol-nan"),
        pytest.param("tail_tol", lambda _: 0, id="tail_tol-zero"),
        pytest.param("tail_tol", lambda _: -1.0, id="tail_tol-negative"),
        pytest.param("grid", lambda _: "x", id="grid-str"),
        pytest.param("grid", lambda _: 2.5, id="grid-float"),
        pytest.param("grid", lambda _: 0, id="grid-zero"),
        pytest.param("grid", lambda _: True, id="grid-bool"),
    ])
    def test_malformed_kernel_exits_2(self, tmp_path, capsys, calibrated,
                                      name, edit):
        # unrefused, a (n+1, 2, 1) K1 is checked and used, a NaN lag
        # predicts nan prices with exit 0, and a NaN tail_tol lets the
        # scans run past an unconverged lattice
        kernel_dir = tmp_path / "k1"
        meta, arrays = formats.load_artifact(calibrated / "k1")
        fields = arrays if name in arrays else meta
        fields[name] = edit(fields[name])
        formats.save_artifact(kernel_dir, meta, **arrays)
        pred = tmp_path / "pred.csv"
        for argv in (["check", str(kernel_dir)],
                     ["predict", str(kernel_dir),
                      str(calibrated / "events_000.csv"), "--out",
                      str(pred)]):
            assert main(argv) == EXIT_INPUT, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("input error: "), argv[0]
            assert f": {name} " in err, argv[0]
        assert not pred.exists()

    @pytest.mark.parametrize("name", ["values", "lam"])
    def test_missing_array_exits_2(self, tmp_path, capsys, calibrated,
                                   name):
        kernel_dir = tmp_path / "k1"
        meta, arrays = formats.load_artifact(calibrated / "k1")
        del arrays[name]
        formats.save_artifact(kernel_dir, meta, **arrays)
        pred = tmp_path / "pred.csv"
        for argv in (["check", str(kernel_dir)],
                     ["predict", str(kernel_dir),
                      str(calibrated / "events_000.csv"), "--out",
                      str(pred)]):
            assert main(argv) == EXIT_INPUT, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            assert captured.err == (
                f"input error: {kernel_dir / 'artifact.bin'} lacks "
                f"'{name}'\n"), argv[0]
        assert not pred.exists()

    @pytest.mark.parametrize("meta, message", [
        pytest.param(lambda meta: "{",
                     ": its header is not a JSON object: Expecting",
                     id="not-json"),
        pytest.param(lambda meta: json.dumps(
            {k: v for k, v in meta.items() if k != "delta"}),
            " lacks 'delta'", id="no-delta"),
        pytest.param(lambda meta: "[1, 2]", " lacks 'delta'",
                     id="not-an-object"),
        # its keys' names as substrings once passed the key check
        pytest.param(lambda meta: json.dumps(" ".join(meta)),
                     " lacks 'delta'", id="string-of-keys")])
    def test_bad_meta_json_exits_2(self, tmp_path, capsys, meta, message):
        # the input error names the file and its header's fault, not
        # only a key
        m = np.array([[0.5, 0.1], [0.1, 0.5]])
        kernel_dir = tmp_path / "k"
        save_kernel(kernel_dir, ImpactKernel(
            delta=1.0, values=np.tile(m, (9, 1, 1)), lam=m.copy()))
        edit_header(kernel_dir, meta)
        path = kernel_dir / "artifact.bin"
        assert main(["check", str(kernel_dir)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}{message}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("layout", ["arrays.bin", "arrays.npz"])
    def test_old_layout_exits_2(self, tmp_path, capsys, calibrated, layout):
        # a directory an earlier format wrote (meta.json with arrays.bin,
        # or with a zip archive of .npy members) is refused, naming the
        # file it lacks
        kernel_dir = tmp_path / "k1"
        kernel_dir.mkdir()
        meta, arrays = formats.load_artifact(calibrated / "k1")
        if layout == "arrays.bin":
            (kernel_dir / "arrays.bin").write_bytes(
                b"".join(arrays[name].tobytes() for name in sorted(arrays)))
        else:
            meta.pop("arrays")
            np.savez(kernel_dir / "arrays.npz", **arrays)
        (kernel_dir / "meta.json").write_text(json.dumps(meta, indent=1))
        pred = tmp_path / "pred.csv"
        for argv in (["check", str(kernel_dir)],
                     ["predict", str(kernel_dir),
                      str(calibrated / "events_000.csv"), "--out",
                      str(pred)]):
            assert main(argv) == EXIT_INPUT, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            assert captured.err == (
                f"input error: {kernel_dir} is not a kernel directory: no "
                f"{kernel_dir / 'artifact.bin'}\n"), argv[0]
        assert not pred.exists()


def tree_bytes(root):
    """Every path under root, with a file's bytes: unlike dir_bytes, an
    empty directory counts."""
    return {p: p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("case", [
    "check-truncated-npz", "predict-truncated-npz", "config-is-directory",
    "predict-out-is-directory", "simulate-output-dir-is-file",
    "estimate-output-dir-is-file", "calibrate-output-dir-is-file",
    "demo-output-dir-is-file", "simulate-output-dir-under-file"])
def test_unusable_path_exits_2(tmp_path, capsys, calibrated, case):
    # unrefused, estimate alone exited 2: the others raised a traceback
    # (exit 1, the code of a failed check) or, in calibrate and demo,
    # failed stage simulate (exit 3)
    kernel, events = tmp_path / "truncated", calibrated / "events_000.csv"
    kernel.mkdir()
    (kernel / "artifact.bin").write_bytes(
        (calibrated / "k2" / "artifact.bin").read_bytes()[:3000])
    a_file, cfg = tmp_path / "a_file", small_config(tmp_path)
    a_file.write_text("not a directory\n")
    spec_run = ["--config", cfg, "--output-dir", a_file]
    argv, path = {
        "check-truncated-npz": (["check", kernel],
                                kernel / "artifact.bin"),
        "predict-truncated-npz": (["predict", kernel, events, "--out",
                                   tmp_path / "pred.csv"],
                                  kernel / "artifact.bin"),
        "config-is-directory": (["--config", kernel, "--output-dir",
                                 tmp_path / "out", "calibrate"], kernel),
        "predict-out-is-directory": (["predict", calibrated / "k1", events,
                                      "--out", kernel], kernel),
        "simulate-output-dir-is-file": (spec_run + ["simulate"], a_file),
        "estimate-output-dir-is-file": (spec_run + ["estimate"], a_file),
        "calibrate-output-dir-is-file": (spec_run + ["calibrate"], a_file),
        "demo-output-dir-is-file": (spec_run + ["demo"], a_file),
        "simulate-output-dir-under-file": (["--config", cfg, "--output-dir",
                                            a_file / "sub", "simulate"],
                                           a_file / "sub"),
    }[case]
    before = tree_bytes(tmp_path)
    assert main([str(a) for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err, err
    assert "Traceback" not in err
    assert tree_bytes(tmp_path) == before


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


def set_field(path, row, column, value):
    """Rewrite one field of a data row of a CRLF-terminated CSV file."""
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[row + 1].split(b",")
    fields[column] = value
    lines[row + 1] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))


class TestDataRows:
    @pytest.mark.parametrize("kind, column, value, message", [
        pytest.param("events", 0, b"nan", "event times must be finite",
                     id="event-time-nan"),
        pytest.param("events", 0, b"0.000000001",
                     "event times must be non-decreasing",
                     id="event-time-falls"),
        pytest.param("events", 3, b"inf",
                     "event sizes must be positive and finite",
                     id="event-size-inf"),
        pytest.param("events", 3, b"0",
                     "event sizes must be positive and finite",
                     id="event-size-zero"),
        pytest.param("prices", 1, b"-1", "assets -1..1 are not all in 0..1",
                     id="price-asset-negative"),
        pytest.param("prices", 0, b"nan",
                     "price times and prices must be finite",
                     id="price-time-nan"),
        pytest.param("prices", 2, b"inf",
                     "price times and prices must be finite",
                     id="price-inf"),
    ])
    def test_bad_row_exits_2(self, tmp_path, capsys, calibrated, kind,
                             column, value, message):
        # unrefused, a NaN event time was dropped (exit 0, another K1), an
        # infinite size failed stage factorize (exit 3), and a price row
        # with asset -1 or a NaN time was ignored
        cfg, sim = data_path_days(tmp_path)
        bad = sim / f"{kind}_001.csv"
        set_field(bad, 5, column, value)
        raw = json.loads(cfg.read_text())
        raw["events"] = [str(f) for f in sorted(sim.glob("events_*.csv"))]
        raw["prices"] = [str(f) for f in sorted(sim.glob("prices_*.csv"))]
        listed = tmp_path / "listed.json"
        listed.write_text(json.dumps(raw))
        out, pred = tmp_path / "out", tmp_path / "pred.csv"
        runs = [(["--config", str(cfg), "--output-dir", str(sim),
                  "estimate"], sim / "observables"),
                (["--config", str(listed), "--output-dir", str(out),
                  "calibrate"], out)]
        if kind == "events":
            runs.append((["predict", str(calibrated / "k1"), str(bad),
                          "--out", str(pred)], pred))
        for argv, written in runs:
            assert main(argv) == EXIT_INPUT, argv[-1]
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {bad}: {message}"), err
            assert not written.exists(), argv[-1]

    def test_simultaneous_fills_accepted(self, tmp_path, calibrated):
        # a buy on asset 0 and a sell on asset 1 at one instant, as a trade
        # tape prints simultaneous fills: estimate bins both and predict
        # prices the tape
        cfg, sim = data_path_days(tmp_path)
        tape = sim / "events_001.csv"
        time = tape.read_bytes().split(b"\r\n")[5].split(b",")[0]
        for row, asset, side in ((4, b"0", b"B"), (5, b"1", b"S")):
            for column, value in ((0, time), (1, asset), (2, side)):
                set_field(tape, row, column, value)
        stream = hawkes.EventStream.from_csv(tape)
        assert stream.times[4] == stream.times[5]
        assert main(["--config", str(cfg), "--output-dir", str(sim),
                     "estimate"]) == EXIT_OK
        assert load_observables(sim / "observables").n_days == 2
        pred = tmp_path / "pred.csv"
        assert main(["predict", str(calibrated / "k1"), str(tape),
                     "--out", str(pred)]) == EXIT_OK
        assert pred.exists()


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


def test_star_import_resolves_all():
    # a name left in __all__ after its function moved breaks only the
    # star import; the simulator oracles live in tests/synthetic.py
    import crossimpact
    namespace = {}
    exec("from crossimpact import *", namespace)
    assert set(crossimpact.__all__) <= set(namespace)
    for name in ("analytic_flow_spectrum", "stationary_intensity"):
        assert name not in namespace and not hasattr(hawkes, name)
    assert not hasattr(hawkes.HawkesSpec, "full_fourier")
