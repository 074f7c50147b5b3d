"""Batch front door: `weaklab run <config.json>` executes one named study
and writes a CSV of rows plus a JSON summary; `weaklab validate` checks a
config and builds its model without running the study; `weaklab
list-studies` enumerates studies.

Exit codes: 0 pass, 2 gate failure, 3 config error, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


from . import error_expansion as ee
from . import models as mdl
from . import montecarlo as mc
from . import pricing
from . import testfunctions as tf
from .euler import SimulationBlowup, empirical_moment, euler_density_1d, \
    gbm_euler_mean
from .models import semigroup_apply
from .quadrature import QuadratureError, expect_gaussian
from .reporting import write_csv, write_json
from .rng import RngStream

EXIT_PASS = 0
EXIT_GATE = 2
EXIT_CONFIG = 3
EXIT_NONCONVERGED = 4


class ConfigError(ValueError):
    pass


class GateFailure(RuntimeError):
    pass


class NonConvergence(RuntimeError):
    pass


_STUDY_KEYS = {
    "weak-rate": {"required": {"model", "f", "x", "t", "n_ladder", "seed",
                               "output_csv", "output_json"},
                  "optional": {"N", "target_ci", "deterministic",
                               "slope_range"}},
    "romberg": {"required": {"model", "f", "x", "t", "n_ladder", "N", "seed",
                             "output_csv", "output_json"},
                "optional": {"slope_range"}},
    "bias-limit": {"required": {"model", "f", "x", "t", "n_ladder", "N",
                                "seed", "output_csv", "output_json"},
                   "optional": {"tolerance"}},
    "density": {"required": {"model", "t_grid", "x_grid", "y_grid", "n",
                             "seed", "output_csv", "output_json"},
                "optional": {"tolerance"}},
    "tailbound": {"required": {"model", "kernel", "l", "t_grid", "x_grid",
                               "y_grid", "seed", "output_csv", "output_json"},
                  "optional": {"n"}},
    "greeks": {"required": {"model", "payoff", "v", "t", "n_ladder", "N",
                            "seed", "output_csv", "output_json"},
               "optional": {"strike", "power", "bump", "slope_range"}},
    "moments": {"required": {"model", "q", "t_grid", "x_grid", "n_ladder",
                             "N", "seed", "output_csv", "output_json"},
                "optional": {"stability"}},
}

_F_NAMES = {"identity": tf.identity, "square": tf.square}


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    study = cfg.get("study")
    if study not in _STUDY_KEYS:
        raise ConfigError(
            f"unknown or missing study {study!r}; see `weaklab list-studies`")
    keys = set(cfg) - {"study"}
    spec = _STUDY_KEYS[study]
    missing = spec["required"] - keys
    unknown = keys - spec["required"] - spec["optional"]
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    model = cfg["model"]
    if not isinstance(model, dict) or "model" not in model:
        raise ConfigError("model block must be an object with a 'model' kind")
    try:
        mdl.model_from_config(model)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if "n_ladder" in cfg and not (
            isinstance(cfg["n_ladder"], list) and cfg["n_ladder"]
            and all(type(n) is int and n > 0 for n in cfg["n_ladder"])):
        raise ConfigError("n_ladder must be a non-empty list of positive "
                          "integers")
    if "f" in cfg and cfg["f"] not in _F_NAMES:
        raise ConfigError(f"unknown test function {cfg['f']!r}; "
                          f"choose from {sorted(_F_NAMES)}")
    if study == "weak-rate" and not ({"N", "target_ci", "deterministic"}
                                     & set(cfg)):
        raise ConfigError("weak-rate needs N, target_ci, or deterministic")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")


_RATE_HEADER = ["study", "model", "f", "t", "x", "n", "N", "estimate",
                "truth", "bias", "ci_halfwidth", "oracle"]


def _rate_rows(cfg, estimates, truth, oracle):
    return [[cfg["study"], cfg["model"]["model"], cfg["f"], cfg["t"],
             cfg["x"], est.n_steps, est.n_samples, est.value, truth,
             est.value - truth, 3.0 * est.std_error, oracle]
            for est in estimates]


def _deterministic_bias(model, f, x, t, n):
    """Exact E[f(X^n)] - E[f(X)] where the Euler law is itself closed-form."""
    truth = semigroup_apply(model, t, f, [x])
    if model.affine is not None and model.dim_d == 1:
        dens = euler_density_1d(model, n)
        mean, std, push, _ = dens.gauss_coords(t, x)
        val, _ = expect_gaussian(f, mean, std, push=push)
        return val, truth, "exact-euler-law"
    if model.name == "gbm" and f.name == "identity":
        mu = model.coeffs1d.db(0.0)  # drift slope = mu for GBM
        return gbm_euler_mean(float(mu), x, n, t), truth, "gbm-mean-recursion"
    raise ConfigError("deterministic bias needs an affine model or GBM f=id")


def _fit_or_exact(measurements):
    try:
        return mc.fit_rate(measurements), "fit"
    except mc.InsufficientSignal:
        if all(abs(e) <= 3.0 * ci for _, e, ci in measurements):
            return None, "exact-scheme"
        raise NonConvergence(
            "rate fit: too few points above the noise gate") from None


def _gate_slope(fit, slope_range):
    if fit is None:
        return True
    if slope_range is None:
        return True
    lo, hi = slope_range
    return lo <= fit.slope <= hi


def _study_weak_rate(cfg):
    model = mdl.model_from_config(cfg["model"])
    f = _F_NAMES[cfg["f"]]()
    x, t = float(cfg["x"]), float(cfg["t"])
    ns = [int(n) for n in cfg["n_ladder"]]
    rng = RngStream(int(cfg["seed"]), 0)
    if cfg.get("deterministic"):
        rows, meas = [], []
        for n in ns:
            est, truth, oracle = _deterministic_bias(model, f, x, t, n)
            rows.append([cfg["study"], cfg["model"]["model"], cfg["f"], t, x,
                         n, 0, est, truth, est - truth, 0.0, oracle])
            meas.append((n, est - truth, 0.0))
    else:
        N = int(cfg["N"]) if "N" in cfg else None
        if N is None:
            N = mc.samples_for_ci(model, f, [x], max(ns), t,
                                  float(cfg["target_ci"]), rng.substream(999))
        truth, tse, oracle = mc.reference_value(model, f, [x], t,
                                                8 * max(ns), N,
                                                rng.substream(1000))
        ests = [mc.estimate_expectation(model, f, [x], n, t, N,
                                        rng.substream(i))
                for i, n in enumerate(ns)]
        rows = _rate_rows(cfg, ests, truth, oracle)
        meas = [(e.n_steps, e.value - truth,
                 3.0 * math.hypot(e.std_error, tse)) for e in ests]
    fit, status = _fit_or_exact(meas)
    ok = _gate_slope(fit, cfg.get("slope_range"))
    summary = {"study": cfg["study"], "status": status if fit is None
               else ("pass" if ok else "gate-failure"),
               "slope": None if fit is None else fit.slope,
               "r_squared": None if fit is None else fit.r_squared,
               "n_excluded": 0 if fit is None else len(fit.excluded),
               "seed": cfg["seed"]}
    return rows, _RATE_HEADER, summary, ok


def _study_romberg(cfg):
    model = mdl.model_from_config(cfg["model"])
    f = _F_NAMES[cfg["f"]]()
    x, t, N = float(cfg["x"]), float(cfg["t"]), int(cfg["N"])
    ns = [int(n) for n in cfg["n_ladder"]]
    rng = RngStream(int(cfg["seed"]), 0)
    truth, tse, oracle = mc.reference_value(model, f, [x], t, 8 * max(ns), N,
                                            rng.substream(1000))
    plain = [mc.estimate_expectation(model, f, [x], n, t, N, rng.substream(i))
             for i, n in enumerate(ns)]
    romb = [mc.romberg_estimate(model, f, [x], n, t, N,
                                rng.substream(100 + i))
            for i, n in enumerate(ns)]
    rows = _rate_rows(cfg, plain, truth, oracle) \
        + _rate_rows(dict(cfg, study="romberg-extrapolated"), romb, truth,
                     oracle)
    fit_b, status_b = _fit_or_exact(
        [(e.n_steps, e.value - truth, 3 * math.hypot(e.std_error, tse))
         for e in plain])
    fit_a, status_a = _fit_or_exact(
        [(e.n_steps, e.value - truth, 3 * math.hypot(e.std_error, tse))
         for e in romb])
    ok = _gate_slope(fit_a, cfg.get("slope_range"))
    summary = {"study": cfg["study"],
               "slope_before": None if fit_b is None else fit_b.slope,
               "slope_after": None if fit_a is None else fit_a.slope,
               "status_before": status_b, "status_after": status_a,
               "status": "pass" if ok else "gate-failure",
               "seed": cfg["seed"]}
    return rows, _RATE_HEADER, summary, ok


def _study_bias_limit(cfg):
    model = mdl.model_from_config(cfg["model"])
    f = _F_NAMES[cfg["f"]]()
    x, t, N = float(cfg["x"]), float(cfg["t"]), int(cfg["N"])
    ns = [int(n) for n in cfg["n_ladder"]]
    rng = RngStream(int(cfg["seed"]), 0)
    limit, ci = mc.bias_times_n_limit(model, f, [x], t, ns, N, rng)
    ct, qerr = ee.principal_term_Ct(model, f, t, x, tol=1e-8)
    tol = float(cfg.get("tolerance", 0.0))
    ok = abs(limit - ct) <= ci + qerr + tol
    header = ["study", "model", "f", "t", "x", "quantity", "value",
              "ci_halfwidth", "oracle"]
    rows = [[cfg["study"], cfg["model"]["model"], cfg["f"], t, x,
             "n_bias_limit", limit, ci, "richardson-mc-ladder"],
            [cfg["study"], cfg["model"]["model"], cfg["f"], t, x,
             "principal_term", ct, qerr, "semigroup-quadrature"]]
    summary = {"study": cfg["study"], "bias_limit": limit, "bias_ci": ci,
               "principal_term": ct, "quad_error": qerr,
               "difference": limit - ct,
               "status": "pass" if ok else "gate-failure",
               "seed": cfg["seed"]}
    return rows, header, summary, ok


def _study_density(cfg):
    model = mdl.model_from_config(cfg["model"])
    n = int(cfg["n"])
    tol_cfg = float(cfg.get("tolerance", 1e-3))
    tol = max(tol_cfg, 4.0 / n)
    header = ["study", "model", "t", "x", "y", "n", "n_density_error", "pi",
              "difference", "quad_error", "oracle"]
    rows, worst = [], 0.0
    for t in cfg["t_grid"]:
        for x in cfg["x_grid"]:
            for y in cfg["y_grid"]:
                de = n * ee.density_error_exact(model, n, t, x, y)
                pe = ee.principal_density_pi(model, t, x, y, tol=1e-8)
                diff = de - pe.value
                worst = max(worst, abs(diff))
                rows.append([cfg["study"], cfg["model"]["model"], t, x, y, n,
                             de, pe.value, diff, pe.quad_error,
                             "exact-gaussian-laws"])
                if not pe.converged:
                    raise NonConvergence(
                        f"pi quadrature unconverged at (t={t},x={x},y={y})")
    ok = worst <= tol
    summary = {"study": cfg["study"], "max_abs_difference": worst,
               "tolerance": tol, "n": n,
               "status": "pass" if ok else "gate-failure",
               "seed": cfg["seed"]}
    return rows, header, summary, ok


def _study_tailbound(cfg):
    model = mdl.model_from_config(cfg["model"])
    which = cfg["kernel"]
    if which not in ("p", "pi"):
        raise ConfigError("kernel must be 'p' or 'pi'")
    l = int(cfg["l"])
    grid = [(float(t), float(x), float(y)) for t in cfg["t_grid"]
            for x in cfg["x_grid"] for y in cfg["y_grid"]]
    if which == "p":
        dens = model.exact_density
        if dens is None:
            raise ConfigError("tailbound on p needs an exact density")
        kernel = lambda t, x, y: float(dens.density(t, x, y))
    else:
        kernel = lambda t, x, y: ee.principal_density_pi(
            model, t, x, y, tol=1e-7).value
    spec = ee.fit_tail_bound(kernel, l, grid)
    report = ee.check_tail_bound(kernel, spec, grid)
    ok = report["max_violation_ratio"] <= 1.0
    header = ["study", "model", "kernel", "l", "c1", "c2",
              "max_violation_ratio", "n_points", "oracle"]
    rows = [[cfg["study"], cfg["model"]["model"], which, l, spec.c1, spec.c2,
             report["max_violation_ratio"], report["n_points"],
             "grid-certificate"]]
    summary = {"study": cfg["study"], "kernel": which, "l": l,
               "c1": spec.c1, "c2": spec.c2,
               "max_violation_ratio": report["max_violation_ratio"],
               "status": "pass" if ok else "gate-failure",
               "seed": cfg["seed"]}
    return rows, header, summary, ok


def _study_greeks(cfg):
    model = mdl.model_from_config(cfg["model"])
    payoff = pricing.make_payoff(cfg["payoff"], strike=cfg.get("strike"),
                                 power=cfg.get("power"))
    opt = pricing.OptionSpec(payoff, t=float(cfg["t"]), v=float(cfg["v"]))
    ns = [int(n) for n in cfg["n_ladder"]]
    N = int(cfg["N"])
    bump = float(cfg.get("bump", 0.01))
    rng = RngStream(int(cfg["seed"]), 0)
    ref = pricing.price_romberg(model, opt, 16 * max(ns), N,
                                rng.substream(1000))
    header = ["study", "model", "payoff", "t", "v", "n", "N", "price",
              "price_se", "delta", "delta_se", "gamma", "gamma_se", "oracle"]
    rows, meas = [], []
    for i, n in enumerate(ns):
        g = pricing.greeks_euler(model, opt, n, N, rng.substream(i),
                                 bump=bump)
        rows.append([cfg["study"], cfg["model"]["model"], payoff.name, opt.t,
                     opt.v, n, N, g.price, g.price_se, g.delta, g.delta_se,
                     g.gamma, g.gamma_se,
                     f"romberg-reference(n={16 * max(ns)})"])
        meas.append((n, g.price - ref.value,
                     3 * math.hypot(g.price_se, ref.std_error)))
    fit, status = _fit_or_exact(meas)
    ok = _gate_slope(fit, cfg.get("slope_range"))
    summary = {"study": cfg["study"], "payoff": payoff.name,
               "reference_price": ref.value,
               "price_slope": None if fit is None else fit.slope,
               "status": status if fit is None
               else ("pass" if ok else "gate-failure"),
               "seed": cfg["seed"]}
    return rows, header, summary, ok


def _study_moments(cfg):
    model = mdl.model_from_config(cfg["model"])
    q, N = int(cfg["q"]), int(cfg["N"])
    ns = [int(n) for n in cfg["n_ladder"]]
    rng = RngStream(int(cfg["seed"]), 0)
    header = ["study", "model", "q", "t", "x", "n", "N", "moment", "se",
              "c_ratio", "oracle"]
    rows, all_cs, spreads = [], [], []
    i = 0
    for t in cfg["t_grid"]:
        for x in cfg["x_grid"]:
            cs = []
            for n in ns:
                m, se = empirical_moment(model, [float(x)], n, float(t), q,
                                         N, rng.substream(i))
                c = m / (1.0 + abs(float(x)) ** q)
                rows.append([cfg["study"], cfg["model"]["model"], q, t, x, n,
                             N, m, se, c, "mc-moment"])
                cs.append(c)
                i += 1
            # the bound constant must be uniform in the resolution n
            spreads.append(max(cs) / min(cs))
            all_cs.extend(cs)
    stability = float(cfg.get("stability", 1.2))
    spread = max(spreads)
    ok = spread <= stability ** 2  # +-20% around a central c
    summary = {"study": cfg["study"], "q": q, "c_fitted": max(all_cs),
               "worst_n_spread": spread,
               "status": "pass" if ok else "gate-failure",
               "seed": cfg["seed"]}
    return rows, header, summary, ok


_STUDIES = {
    "weak-rate": _study_weak_rate,
    "romberg": _study_romberg,
    "bias-limit": _study_bias_limit,
    "density": _study_density,
    "tailbound": _study_tailbound,
    "greeks": _study_greeks,
    "moments": _study_moments,
}


def run_study(cfg: dict) -> int:
    validate_config(cfg)
    try:
        rows, header, summary, ok = _STUDIES[cfg["study"]](cfg)
    except (ConfigError, mdl.AssumptionViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, QuadratureError, SimulationBlowup) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    write_csv(cfg["output_csv"], header, rows)
    write_json(cfg["output_json"], summary)
    print(f"{cfg['study']}: {summary['status']}")
    return EXIT_PASS if ok else EXIT_GATE


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description="Euler-scheme weak-error verification studies")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a study config")
    run_p.add_argument("config")
    val_p = sub.add_parser("validate", help="validate a config, no compute")
    val_p.add_argument("config")
    sub.add_parser("list-studies", help="list study names")
    args = parser.parse_args(argv)

    if args.command == "list-studies":
        for name in sorted(_STUDIES):
            print(name)
        return EXIT_PASS
    try:
        cfg = _load(args.config)
        if args.command == "validate":
            validate_config(cfg)
            print("ok")
            return EXIT_PASS
        return run_study(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
