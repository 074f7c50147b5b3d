import json
import os
import subprocess
import sys

import pytest

import weaklab
from weaklab import cli


def weak_rate_cfg(tmp_path, **overrides):
    cfg = {
        "study": "weak-rate",
        "model": {"model": "gbm", "mu": 0.1, "sigma": 0.2},
        "f": "identity",
        "x": 1.0,
        "t": 1.0,
        "n_ladder": [8, 16, 32, 64],
        "deterministic": True,
        "seed": 7,
        "output_csv": str(tmp_path / "rows.csv"),
        "output_json": str(tmp_path / "summary.json"),
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_list_studies(capsys):
    assert cli.main(["list-studies"]) == 0
    out = capsys.readouterr().out.split()
    assert "weak-rate" in out and "greeks" in out and out == sorted(out)


def test_validate_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, weak_rate_cfg(tmp_path))
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_unknown_key_exits_3(tmp_path):
    path = write_cfg(tmp_path, weak_rate_cfg(tmp_path, typo_key=1))
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG


def test_validate_bad_model_exits_3(tmp_path):
    cfg = weak_rate_cfg(tmp_path)
    cfg["model"] = {"model": "gbm", "mu": 0.1}
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("model", [
    {"model": "ou", "theta": -1, "sigma": 1.0},
    {"model": "gbm", "mu": "x", "sigma": 0.2},
], ids=["ou-negative-theta", "gbm-non-numeric-mu"])
def test_bad_model_parameters_exit_3(tmp_path, capsys, command, model):
    # validate builds the model, so it rejects what run cannot build
    cfg = weak_rate_cfg(tmp_path, model=model)
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("n_ladder", [[], [8, 0], [8, 16.5], [8, "16"], 8],
                         ids=["empty", "zero", "float", "string", "scalar"])
def test_bad_n_ladder_exits_3(tmp_path, capsys, command, n_ladder):
    cfg = weak_rate_cfg(tmp_path, n_ladder=n_ladder)
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert "n_ladder" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(weaklab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, weaklab.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_missing_file_exits_3(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG


def test_run_weak_rate_deterministic(tmp_path, capsys):
    path = write_cfg(tmp_path, weak_rate_cfg(tmp_path))
    assert cli.main(["run", path]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert abs(summary["slope"] + 1.0) < 0.05
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert rows[0].startswith("study,model,f")
    assert len(rows) == 1 + 4  # header + one row per rung


def test_run_outputs_byte_identical(tmp_path):
    path = write_cfg(tmp_path, weak_rate_cfg(tmp_path))
    assert cli.main(["run", path]) == 0
    first = ((tmp_path / "rows.csv").read_bytes(),
             (tmp_path / "summary.json").read_bytes())
    assert cli.main(["run", path]) == 0
    second = ((tmp_path / "rows.csv").read_bytes(),
              (tmp_path / "summary.json").read_bytes())
    assert first == second


def test_run_gate_failure_exits_2(tmp_path):
    # demand an impossibly steep slope so the gate must fail
    cfg = weak_rate_cfg(tmp_path, slope_range=[-3.0, -2.9])
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_GATE
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "gate-failure"


def test_run_nonconvergence_exits_4(tmp_path):
    # three deterministic rungs carry real signal but are too few for a
    # rate fit, which the study reports as numerical non-convergence
    cfg = weak_rate_cfg(tmp_path, n_ladder=[8, 16, 32])
    rc = cli.main(["run", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_NONCONVERGED


def test_run_moments_study(tmp_path):
    cfg = {
        "study": "moments",
        "model": {"model": "ou", "theta": 1.0, "sigma": 1.0},
        "q": 4,
        "t_grid": [0.5, 1.0],
        "x_grid": [0.0, 1.0],
        "n_ladder": [8, 16],
        "N": 20_000,
        "seed": 11,
        "output_csv": str(tmp_path / "m.csv"),
        "output_json": str(tmp_path / "m.json"),
    }
    rc = cli.main(["run", write_cfg(tmp_path, cfg)])
    summary = json.loads((tmp_path / "m.json").read_text())
    assert rc in (0, 2)
    assert summary["status"] in ("pass", "gate-failure")


def test_validate_rejects_bad_study(tmp_path):
    cfg = weak_rate_cfg(tmp_path)
    cfg["study"] = "frobnicate"
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG


def test_validate_rejects_bad_f(tmp_path):
    cfg = weak_rate_cfg(tmp_path, f="cube")
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
