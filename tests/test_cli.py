import json
import pathlib

import numpy as np
import pytest

from crossimpact import cli, kernels
from crossimpact.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, RunConfig, main
from crossimpact.kernels import ImpactKernel, load_kernel, save_kernel


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


def dir_bytes(directory):
    directory = pathlib.Path(directory)
    out = {}
    for f in sorted(directory.rglob("*")):
        if f.is_file():
            out[str(f.relative_to(directory))] = f.read_bytes()
    return out


class TestConfig:
    def test_spec_and_data_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"spec": {"mu": [1.0]},
                                    "events": ["x.csv"]}))
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"speled_wrong": 1}))
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

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
        assert "events_000.csv" in a
        assert "prices_001.csv" in a

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
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["spec"]["blocks"]["aa"][0][0] = [[0.6, 0.25]]  # radius > 1
        cfg.write_text(json.dumps(raw))
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "bad"), "simulate"])
        assert rc == EXIT_INPUT

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
        for sub in ("k1", "k2"):
            b1 = dir_bytes(out1 / sub)
            b2 = dir_bytes(out2 / sub)
            assert b1.keys() == b2.keys()
            assert all(b1[k] == b2[k] for k in b1)
        diag = json.loads((out1 / "diagnostics.json").read_text())
        assert diag["factor_residual"] < 1e-5
        assert "k1_admissibility" in diag
        # boundary files match the boundary operators applied to the
        # estimated observables
        from crossimpact.observables import load_observables
        from crossimpact.kernels import compute_K0, compute_Lambda
        obs = load_observables(out1 / "observables")
        k1 = load_kernel(out1 / "k1")
        assert np.allclose(k1.k0, compute_K0(obs), atol=0, rtol=0)
        assert np.allclose(k1.lam, compute_Lambda(obs), atol=0, rtol=0)

    def test_check_exit_codes(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert main(["check", str(out / "k2")]) == EXIT_OK
        # the martingale kernel of a lead-lag market fails the check
        assert main(["check", str(out / "k1")]) == EXIT_FAIL
        assert main(["check", str(tmp_path)]) == EXIT_INPUT

    def test_check_detects_constructed_asymmetry(self, tmp_path):
        tau = np.arange(9, dtype=float)
        vals = np.zeros((9, 2, 2))
        vals[:, 0, 0] = np.exp(-tau)
        vals[:, 1, 1] = np.exp(-tau)
        vals[0, 0, 1] = 0.5
        k = ImpactKernel(delta=1.0, values=vals, k0=vals[0],
                         lam=np.zeros((2, 2)), provenance="k1", grid=256)
        save_kernel(tmp_path / "bad", k)
        assert main(["check", str(tmp_path / "bad")]) == EXIT_FAIL

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
        assert (out / "observables" / "sigma.csv").exists()
        assert main(["--config", str(cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert not (out / "factor").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert 0 < diag["factor_order"] <= 2048 // 2
        assert diag["reflection_norm"] < 1e-10

    def test_explicit_data_paths(self, tmp_path):
        cfg = small_config(tmp_path, n_days=2, horizon=400.0)
        sim_out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--output-dir", str(sim_out),
                     "simulate"]) == EXIT_OK
        raw = json.loads(cfg.read_text())
        del raw["spec"]
        raw["events"] = [str(sim_out / f"events_{d:03d}.csv")
                         for d in range(2)]
        raw["prices"] = [str(sim_out / f"prices_{d:03d}.csv")
                         for d in range(2)]
        data_cfg = tmp_path / "data_config.json"
        data_cfg.write_text(json.dumps(raw))
        out = tmp_path / "from_data"
        assert main(["--config", str(data_cfg), "--output-dir", str(out),
                     "calibrate"]) == EXIT_OK
        assert (out / "k2" / "lambda.csv").exists()

    def test_numerical_stage_failure_exits_3(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_days=1, horizon=10.0, tau_max=32)
        out = tmp_path / "short"
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

    def test_missing_data_exits_2(self, tmp_path):
        raw = {"events": [str(tmp_path / "nowhere.csv")], "tau_max": 8}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["--config", str(cfg), "--output-dir",
                   str(tmp_path / "x"), "calibrate"])
        assert rc == EXIT_INPUT
