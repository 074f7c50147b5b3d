import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import weaklab
from weaklab import cli
from weaklab import error_expansion as ee
from weaklab.gaussian import AffineGaussianDensity
from weaklab.models import make_ou_model


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
    {"model": "ou", "theta": math.nan, "sigma": 1.0},
    {"model": "gbm", "mu": math.nan, "sigma": 0.2},
    {"model": "tanh_vol", "a0": 0.05, "b0": math.inf, "c0": 0.1},
    {"model": "constant", "b": [0.1], "s": [[math.nan]]},
    {"model": "ou", "theta": True, "sigma": 1.0},
    {"model": "ou", "theta": "2", "sigma": 1.0},
    {"model": "ou", "theta": 10**400, "sigma": 1.0},
], ids=["ou-negative-theta", "gbm-non-numeric-mu", "ou-nan-theta",
        "gbm-nan-mu", "tanh-vol-inf-b0", "constant-nan-s", "ou-bool-theta",
        "ou-string-theta", "ou-int-past-double-theta"])
def test_bad_model_parameters_exit_3(tmp_path, capsys, command, model):
    # validate builds the model, so it rejects what run cannot build; a
    # Monte Carlo study, which any model may run, so only the model block
    # can fail (JSON reads NaN and Infinity, and run used to start on them
    # and exit 4 at the first Euler step)
    cfg = weak_rate_cfg(tmp_path, model=model, f="square", N=4096, seed=1)
    del cfg["deterministic"]
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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("n_ladder", [[8, 12, 16], [8, 8, 16]],
                         ids=["not-dividing", "repeated"])
def test_bias_limit_ladder_that_does_not_double_exits_3(tmp_path, capsys,
                                                        command, n_ladder):
    # the Richardson limit needs rungs n, 2n, 4n, ...; run used to end in
    # a traceback (exit 1) from the Euler loop or from richardson_table
    cfg = weak_rate_cfg(tmp_path, study="bias-limit",
                        model={"model": "ou", "theta": 1.0, "sigma": 1.0},
                        f="square", n_ladder=n_ladder, N=4096, seed=1)
    del cfg["deterministic"]
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert "n_ladder" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("workers", ["abc", "2.5", " ", "0", "-2"])
def test_bad_worker_count_exits_3(tmp_path, capsys, monkeypatch, command,
                                  workers):
    # a Monte Carlo study, so run would read the worker count; neither
    # command may start it on a count that is not a positive integer
    monkeypatch.setenv("WEAKLAB_WORKERS", workers)
    cfg = weak_rate_cfg(tmp_path, N=256)
    del cfg["deterministic"]
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert "WEAKLAB_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


OU = {"model": "ou", "theta": 1.0, "sigma": 1.0}
GBM = {"model": "gbm", "mu": 0.1, "sigma": 0.2}
TANH = {"model": "tanh_vol", "a0": 0.05, "b0": 0.2, "c0": 0.1}
CONSTANT_2D = {"model": "constant", "b": [0.1, 0.2],
               "s": [[1.0, 0.0], [0.0, 1.0]]}
GRIDS = {"t_grid": [0.5], "x_grid": [0.0], "y_grid": [0.1]}
SAMPLELESS_RATE = {"f": "identity", "x": 1.0, "t": 1.0, "n_ladder": [2, 4]}
RATE = dict(SAMPLELESS_RATE, N=256)
GREEKS = {"study": "greeks", "model": OU, "payoff": "identity", "v": 2.0,
          "t": 1.0, "n_ladder": [1, 2], "N": 256}
UNSTARTABLE = {
    "density-gbm": dict(study="density", model=GBM, n=64, **GRIDS),
    "bias-limit-tanh": dict(study="bias-limit", model=TANH, **RATE),
    "tailbound-pi-tanh": dict(study="tailbound", model=TANH, kernel="pi",
                              l=0, **GRIDS),
    "weak-rate-deterministic-tanh": dict(study="weak-rate", model=TANH,
                                         deterministic=True,
                                         **SAMPLELESS_RATE),
    "tailbound-kernel-q": dict(study="tailbound", model=OU, kernel="q", l=0,
                               **GRIDS),
    "greeks-straddle": dict(GREEKS, payoff="straddle"),
    "greeks-call-no-strike": dict(GREEKS, payoff="call"),
    "greeks-t-2": dict(GREEKS, t=2.0),
    "moments-q-3": dict(study="moments", model=OU, q=3, t_grid=[0.5],
                        x_grid=[0.0], n_ladder=[2], N=256),
    # the studies take scalar x, grids and spots
    "romberg-2d": dict(study="romberg", model=CONSTANT_2D, **RATE),
    "tailbound-p-2d": dict(study="tailbound", model=CONSTANT_2D, kernel="p",
                           l=0, **GRIDS),
    "greeks-bump-0.5": dict(GREEKS, bump=0.5),
    # a fractional power used to be truncated: 2.5 priced u^2
    "greeks-power-2.5": dict(GREEKS, payoff="power", power=2.5),
    "weak-rate-x-string": dict(study="weak-rate", model=OU,
                               deterministic=True, **dict(RATE, x="a")),
    "density-n-0": dict(study="density", model=OU, n=0, **GRIDS),
    "density-string-grid": dict(study="density", model=OU, n=64,
                                **dict(GRIDS, t_grid="ab")),
    "weak-rate-negative-t": dict(study="weak-rate", model=OU,
                                 deterministic=True, **dict(RATE, t=-1.0)),
    "tailbound-t-0": dict(study="tailbound", model=OU, kernel="p", l=0,
                          **dict(GRIDS, t_grid=[0.0])),
    "moments-q-negative": dict(study="moments", model=OU, q=-2, t_grid=[0.5],
                               x_grid=[0.0], n_ladder=[2], N=256),
    # weak-rate takes exactly one sample mode: N, target_ci or deterministic
    "weak-rate-no-mode": dict(study="weak-rate", model=OU,
                              deterministic=False, **SAMPLELESS_RATE),
    "weak-rate-deterministic-string": dict(study="weak-rate", model=OU,
                                           deterministic="no",
                                           **SAMPLELESS_RATE),
    "weak-rate-N-and-target-ci": dict(study="weak-rate", model=OU,
                                      target_ci=0.01, **RATE),
    "weak-rate-N-and-deterministic": dict(study="weak-rate", model=OU,
                                          deterministic=True, **RATE),
    # a vacuous gate: every moment of order 0 is 1
    "moments-q-0": dict(study="moments", model=OU, q=0, t_grid=[0.5],
                        x_grid=[0.0], n_ladder=[2], N=256),
    "tailbound-n": dict(study="tailbound", model=OU, kernel="p", l=0, n=64,
                        **GRIDS),
    # the moments gate is spread <= stability^2 with spread = max/min >= 1:
    # a negative stability used to pass as its absolute value does, and one
    # below 1 can never pass
    **{f"moments-stability-{v}": dict(study="moments", model=OU, q=2,
                                      t_grid=[0.5], x_grid=[0.5],
                                      n_ladder=[2, 4], N=4096, stability=v)
       for v in (-1.2, 0.5)},
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", list(UNSTARTABLE))
def test_validate_rejects_what_run_cannot_start(tmp_path, capsys, command,
                                                name):
    cfg = dict(UNSTARTABLE[name], seed=1,
               output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key", ["output_csv", "output_json"])
@pytest.mark.parametrize("value", [123, "", ["out.csv"]],
                         ids=["number", "empty", "list"])
def test_outputs_must_be_paths(tmp_path, capsys, command, key, value):
    # open() reads a number as a file descriptor
    cfg = weak_rate_cfg(tmp_path, **{key: value})
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_fit_or_exact_needs_a_measurement():
    # no measurement is no evidence that the scheme is exact
    with pytest.raises(cli.NonConvergence):
        cli._fit_or_exact([], make_ou_model(1.0, 1.0))


def test_run_builds_the_model_once(tmp_path):
    calls = []
    build = cli.mdl.model_from_config

    def counting(block):
        calls.append(block)
        return build(block)

    path = write_cfg(tmp_path, weak_rate_cfg(tmp_path))
    with mock.patch.object(cli.mdl, "model_from_config", counting):
        assert cli.main(["run", path]) == 0
    assert len(calls) == 1


def test_greeks_csv_cells_are_numbers(tmp_path):
    cfg = dict(GREEKS, model={"model": "ou", "theta": 1.75, "sigma": 0.5},
               v=7.5, n_ladder=[1, 2, 4, 8], N=16384, seed=3,
               output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    with open(tmp_path / "rows.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    text = {"study", "model", "payoff", "oracle"}
    for row in rows:
        for key, cell in zip(header, row):
            if key not in text:
                float(cell)


def test_import_does_not_load_scipy_stats(tmp_path):
    # nor scipy at all, until the first normal draw: importing the CLI and
    # running the quadrature-only studies in-process leave it unloaded
    src = os.path.dirname(os.path.dirname(weaklab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    paths = [write_cfg(tmp_path, dict(
        SMALL[name], seed=1, output_csv=str(tmp_path / f"{name}.csv"),
        output_json=str(tmp_path / f"{name}-summary.json")), f"{name}.json")
             for name in ("density", "tailbound", "weak-rate")]
    code = ("import sys, weaklab.cli\n"
            "from weaklab.rng import RngStream, normals_from\n"
            "loaded = ['scipy' in sys.modules]\n"
            "for path in sys.argv[1:]:\n"
            "    assert weaklab.cli.main(['run', path]) == 0\n"
            "loaded.append('scipy' in sys.modules)\n"
            "normals_from(RngStream(1).generator(), 4)\n"
            "loaded.append('scipy.special' in sys.modules)\n"
            "print('loaded', *loaded)\n")
    out = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "loaded False False True"


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


def _run_gbm_bias_limit(tmp_path, capsys, sigma):
    """Run GBM(0.1, sigma) bias-limit, f identity at x = t = 1, and check
    that it exits 4 with no summary written."""
    cfg = {"study": "bias-limit",
           "model": {"model": "gbm", "mu": 0.1, "sigma": sigma},
           "f": "identity", "x": 1.0, "t": 1.0, "n_ladder": [4, 8, 16],
           "N": 4096, "seed": 3,
           "output_csv": str(tmp_path / "rows.csv"),
           "output_json": str(tmp_path / "summary.json")}
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == \
        cli.EXIT_NONCONVERGED
    assert "non-convergence" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_bias_limit_unconverged_quadrature_exits_4(tmp_path, capsys):
    # at sigma = 2 the time integral of C_t runs out of panels: quad_error
    # is about 8e3, though the value is right to 5e-15, and an error bar
    # that large passes the gate |limit - ct| <= ci + qerr + tol
    _run_gbm_bias_limit(tmp_path, capsys, 2.0)


def test_bias_limit_finite_error_past_the_tolerance_exits_4(tmp_path,
                                                            capsys):
    # at sigma = 1 quad_error is finite but far above the 1e-8 asked for
    # (about 1e-5); a finite error bar past the tolerance is no result
    _run_gbm_bias_limit(tmp_path, capsys, 1.0)


# GBM from x < 0: the lognormal oracle's truth is NaN, so is every bias,
# no point clears the noise gate, and each run used to pass (exit 0) as
# an exact scheme
NAN_BIAS = {
    "weak-rate-deterministic": dict(study="weak-rate", deterministic=True,
                                    n_ladder=[8, 16, 32, 64]),
    "weak-rate-mc": dict(study="weak-rate", N=20000,
                         n_ladder=[8, 16, 32, 64]),
    "romberg": dict(study="romberg", N=20000, n_ladder=[2, 4, 8, 16]),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered in log")
@pytest.mark.parametrize("name", list(NAN_BIAS))
def test_nan_bias_exits_4(tmp_path, capsys, name):
    cfg = dict(NAN_BIAS[name], model=GBM, f="identity", x=-1.0, t=1.0,
               seed=1, output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == \
        cli.EXIT_NONCONVERGED
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
@pytest.mark.parametrize("model, x, mode", [
    ({"model": "constant", "b": [0.2], "s": [[0.5]]}, 0.4, {"N": 4096}),
    ({"model": "constant", "b": [0.2], "s": [[0.5]]}, 0.4,
     {"deterministic": True}),
    (GBM, 0.0, {"deterministic": True})],
    ids=["constant-mc", "constant-deterministic", "gbm-x-0"])
def test_exact_scheme_stays_exact(tmp_path, model, x, mode):
    # an Euler law equal to the true law: no bias clears the noise gate,
    # and none is NaN
    cfg = dict(study="weak-rate", model=model, f="identity", x=x, t=1.0,
               n_ladder=[8, 16, 32, 64], seed=1, **mode,
               output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_PASS
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "exact-scheme"


def test_biases_inside_the_noise_are_no_exact_scheme(tmp_path, capsys):
    # tanh-vol is the model the theorem covers: at this N no bias clears
    # its noise gate, which used to pass (exit 0) as exact-scheme
    cfg = dict(study="weak-rate", model=dict(TANH, b0=0.3, c0=0.25),
               f="square", x=0.0, t=1.0, n_ladder=[1, 2, 3, 4], N=40000,
               seed=1, output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == \
        cli.EXIT_NONCONVERGED
    assert "noise gate" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_tailbound_past_the_float_range_fails_the_gate(tmp_path):
    # the kernel underflows to 0 and the c2 fit used to raise
    # OverflowError (exit 1); a zero kernel certifies nothing
    cfg = dict(study="tailbound", model=OU, kernel="p", l=0,
               t_grid=[0.001], x_grid=[0], y_grid=[2.5], seed=1,
               output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_GATE
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_violation_ratio"] == math.inf


# OU(5, 1) at t = 1: pi does not converge at four (tol 1e-7) or five
# (tol 1e-8) of these nine points
UNCONVERGED_PI_GRID = {"model": {"model": "ou", "theta": 5.0, "sigma": 1.0},
                       "t_grid": [1.0], "x_grid": [-2, 0, 3],
                       "y_grid": [-2, 0.5, 3]}


@pytest.mark.parametrize("study, extra, where", [
    ("density", {"n": 256}, "(t=1.0,x=-2,y=-2)"),
    ("tailbound", {"kernel": "pi", "l": 1}, "(t=1.0,x=-2,y=0.5)"),
])
def test_unconverged_pi_exits_4(tmp_path, capsys, study, extra, where):
    # tailbound with kernel pi used to pass on these values (status pass,
    # quad_error up to 10); density reports the first unconverged point in
    # grid order
    cfg = {"study": study, **UNCONVERGED_PI_GRID, **extra, "seed": 1,
           "output_csv": str(tmp_path / "rows.csv"),
           "output_json": str(tmp_path / "summary.json")}
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == \
        cli.EXIT_NONCONVERGED
    assert capsys.readouterr().err == \
        f"non-convergence: pi quadrature unconverged at {where}\n"
    assert not (tmp_path / "summary.json").exists()


def test_density_and_tailbound_grids_match_one_point_calls(tmp_path):
    # one pi_rows and one density_error_exact call per t give, cell for
    # cell, what one call per point gives
    grid = {"model": {"model": "ou", "theta": 1.0, "sigma": 1.0},
            "t_grid": [0.5, 1], "x_grid": [-1, 0.25], "y_grid": [0.0, 1.5],
            "seed": 1, "output_csv": str(tmp_path / "rows.csv"),
            "output_json": str(tmp_path / "summary.json")}
    m = make_ou_model(1.0, 1.0)
    points = [(t, x, y) for t in grid["t_grid"] for x in grid["x_grid"]
              for y in grid["y_grid"]]

    cfg = dict(grid, study="density", n=128)
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_PASS
    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points)
    for row, (t, x, y) in zip(rows, points):
        pe = ee.principal_density_pi(m, t, x, y, tol=1e-8)
        de = 128 * ee.density_error_exact(m, 128, t, x, y)
        assert (row["t"], row["x"], row["y"]) == (str(t), str(x), str(y))
        assert float(row["n_density_error"]) == de
        assert (float(row["pi"]), float(row["quad_error"])) == \
            (pe.value, pe.quad_error)
        assert float(row["difference"]) == de - pe.value

    cfg = dict(grid, study="tailbound", kernel="pi", l=1)
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_PASS
    summary = json.loads((tmp_path / "summary.json").read_text())
    fgrid = [tuple(map(float, p)) for p in points]
    spec = ee.fit_tail_bound(
        1, fgrid,
        [ee.principal_density_pi(m, *p, tol=1e-7).value for p in fgrid])
    assert (summary["c1"], summary["c2"]) == (spec.c1, spec.c2)


def test_tailbound_reads_each_density_value_once(tmp_path, monkeypatch):
    # fit and check read one list of values, so kernel p is evaluated once
    # per grid point, not once for the fit and again for the check
    calls = []
    density = AffineGaussianDensity.density

    def counted(self, t, x, y):
        calls.append((t, x, y))
        return density(self, t, x, y)

    monkeypatch.setattr(AffineGaussianDensity, "density", counted)
    cfg = {"study": "tailbound", "model": OU, "kernel": "p", "l": 0,
           "t_grid": [0.25, 0.5, 1.0], "x_grid": [-1.2, 0.3, 1.1],
           "y_grid": [-0.9, 0.0, 1.4], "seed": 1,
           "output_csv": str(tmp_path / "rows.csv"),
           "output_json": str(tmp_path / "summary.json")}
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == cli.EXIT_PASS
    assert len(calls) == 27 == len(set(calls))


# GBM from x = 0 stays at 0: every moment and density value is 0.  Both
# runs used to die on 0 / 0 (exit 1) after validate accepted them.
DEGENERATE = {
    "moments-gbm-x-0": dict(study="moments", model=GBM, q=2, t_grid=[0.5],
                            x_grid=[0.0], n_ladder=[2], N=256),
    "tailbound-p-gbm-x-0": dict(study="tailbound", model=GBM, kernel="p",
                                l=0, **GRIDS),
}


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_zero_kernel_or_moment_fails_the_gate(tmp_path, name):
    cfg = dict(DEGENERATE[name], seed=1,
               output_csv=str(tmp_path / "rows.csv"),
               output_json=str(tmp_path / "summary.json"))
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["validate", path]) == cli.EXIT_PASS
    assert cli.main(["run", path]) == cli.EXIT_GATE
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "gate-failure"


# one small valid config per study, cheap enough to run many times
SMALL = {
    "weak-rate": dict(study="weak-rate", model=OU, deterministic=True,
                      **dict(SAMPLELESS_RATE, n_ladder=[1, 2, 4, 8])),
    "weak-rate-N": dict(study="weak-rate", model=OU, **RATE),
    "romberg": dict(study="romberg", model=OU, **RATE),
    "bias-limit": dict(study="bias-limit", model=OU, **RATE),
    "density": dict(study="density", model=OU, n=16, **GRIDS),
    "tailbound": dict(study="tailbound", model=OU, kernel="p", l=0, **GRIDS),
    "greeks": GREEKS,
    "moments": dict(study="moments", model=OU, q=2, t_grid=[0.5],
                    x_grid=[0.0], n_ladder=[2], N=256),
}
# every key some study takes, and one no study takes
ANY_KEY = ("N", "bump", "deterministic", "f", "kernel", "l", "n", "n_ladder",
           "payoff", "power", "q", "slope_range", "stability", "strike", "t",
           "t_grid", "target_ci", "tolerance", "v", "x", "x_grid", "y_grid",
           "typo")
# small or malformed values for any key
VALUE_POOL = (0, 1, 2, -1, 0.5, -0.5, 1e-3, 2.5, True, False, None,
              float("nan"), float("inf"), "", "a", "p", "pi", "square",
              "call", [], [1], [0, 1], [-1, 1], [0.5, 2], ["a"], {}, OU, GBM,
              TANH, CONSTANT_2D, {"model": "ou", "theta": 0.0, "sigma": 1.0})


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_and_run_agree(tmp_path, monkeypatch, capsys, data):
    # one key of a valid config dropped, added or set: validate rejects
    # the config exactly when run does, and run otherwise ends in pass,
    # gate failure or non-convergence
    monkeypatch.chdir(tmp_path)   # pool strings may become output paths
    cfg = dict(SMALL[data.draw(st.sampled_from(sorted(SMALL)))], seed=1)
    out = tempfile.mkdtemp(dir=tmp_path)
    cfg.update(output_csv=os.path.join(out, "rows.csv"),
               output_json=os.path.join(out, "summary.json"))
    change = data.draw(st.sampled_from(["drop", "add", "set"]))
    if change == "drop":
        del cfg[data.draw(st.sampled_from(sorted(set(cfg) - {"study"})))]
    else:
        keys = sorted(set(ANY_KEY) - set(cfg)) if change == "add" \
            else sorted(set(cfg) - {"study"})
        cfg[data.draw(st.sampled_from(keys))] = \
            data.draw(st.sampled_from(VALUE_POOL))
    path = os.path.join(out, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    validated, ran = cli.main(["validate", path]), cli.main(["run", path])
    capsys.readouterr()
    assert (validated == cli.EXIT_CONFIG) == (ran == cli.EXIT_CONFIG), cfg
    assert ran in (cli.EXIT_PASS, cli.EXIT_GATE, cli.EXIT_CONFIG,
                   cli.EXIT_NONCONVERGED), cfg
