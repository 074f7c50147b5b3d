"""Batch front door: `weaklab run <config.json>` executes one named study
and writes a CSV of rows plus a JSON summary; `weaklab validate` makes
every config check that `run` makes, the model build included, without
running the study; `weaklab list-studies` enumerates studies.

Exit codes: 0 pass, 2 gate failure, 3 config error, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import error_expansion as ee
from . import models as mdl
from . import montecarlo as mc
from . import pricing
from . import testfunctions as tf
from .euler import SimulationBlowup, empirical_moment, euler_density_1d, \
    gbm_euler_mean, worker_count
from .models import finite_number, pair_density, semigroup_apply
from .reporting import write_csv, write_json
from .rng import RngStream

EXIT_PASS = 0
EXIT_GATE = 2
EXIT_CONFIG = 3
EXIT_NONCONVERGED = 4


class ConfigError(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


_F_NAMES = {"identity": tf.identity, "square": tf.square}


def _positive(v) -> bool:
    return finite_number(v) and v > 0


def _count(v) -> bool:
    return type(v) is int and v > 0


def _list_of(ok):
    return lambda v: isinstance(v, list) and bool(v) and all(map(ok, v))


# config key: (what its value must be, test)
_VALUES = {
    **dict.fromkeys(("x", "v", "strike", "power", "tolerance"),
                    ("a finite number", finite_number)),
    # the moments gate compares a max/min spread, at least 1, to its square
    "stability": ("a number >= 1", lambda v: finite_number(v) and v >= 1),
    **dict.fromkeys(("t", "target_ci"), ("a positive number", _positive)),
    "bump": ("a number in (0, 0.1]",
             lambda v: finite_number(v) and 0 < v <= 0.1),
    **dict.fromkeys(("N", "n"), ("a positive integer", _count)),
    "l": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "q": ("an even integer in [2, 8]",
          lambda v: type(v) is int and v % 2 == 0 and 2 <= v <= 8),
    "deterministic": ("true or false", lambda v: type(v) is bool),
    **dict.fromkeys(("output_csv", "output_json"),
                    ("a non-empty string",
                     lambda v: isinstance(v, str) and bool(v))),
    "seed": ("an integer", lambda v: type(v) is int),
    "f": (f"one of {sorted(_F_NAMES)}",
          lambda v: isinstance(v, str) and v in _F_NAMES),
    "kernel": ("'p' or 'pi'", lambda v: v in ("p", "pi")),
    "slope_range": ("a list of two numbers [lo, hi]",
                    lambda v: isinstance(v, list) and len(v) == 2
                    and all(map(finite_number, v))),
    "n_ladder": ("a non-empty list of distinct positive integers",
                 lambda v: _list_of(_count)(v) and len(set(v)) == len(v)),
    "t_grid": ("a non-empty list of positive numbers", _list_of(_positive)),
    **dict.fromkeys(("x_grid", "y_grid"),
                    ("a non-empty list of finite numbers",
                     _list_of(finite_number))),
}

# what a study needs of its model beyond one dimension: (what, test)
_AFFINE = ("an affine model", lambda m, cfg: mdl.affine_triple(m) is not None)
_DENSITY = ("a model with an exact density",
            lambda model, cfg: model.exact_density is not None)
_EULER_LAW = ("an affine model, or GBM with f identity, when deterministic",
              lambda model, cfg: not cfg.get("deterministic")
              or _euler_mean(model, cfg["f"]) is not None)


def validate_config(cfg: dict) -> mdl.SdeModel:
    """Make every config check that `run` makes and return the model;
    anything `run` could not start raises ConfigError."""
    try:
        worker_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("study")
    if not isinstance(name, str) or name not in _STUDIES:
        raise ConfigError(
            f"unknown or missing study {name!r}; see `weaklab list-studies`")
    study = _STUDIES[name]
    keys = set(cfg) - {"study"}
    required = set(study.required.split()) | {"model", "seed", "output_csv",
                                              "output_json"}
    missing = required - keys
    unknown = keys - required - set(study.optional.split())
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    for key, (what, ok) in _VALUES.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigError(f"{key} must be {what}")
    if name == "weak-rate":
        modes = [k for k in ("N", "target_ci") if k in cfg]
        if cfg.get("deterministic"):
            modes.append("deterministic")
        if len(modes) != 1:
            raise ConfigError("weak-rate needs exactly one of N, target_ci "
                              f"or deterministic true; got {modes}")
    if name == "bias-limit":
        # its Richardson limit eliminates 1/n over rungs n, 2n, 4n, ...
        ns = sorted(cfg["n_ladder"])
        if any(hi != 2 * lo for lo, hi in zip(ns, ns[1:])):
            raise ConfigError("bias-limit's n_ladder must double from rung "
                              f"to rung, as n, 2n, 4n, ...; got {ns}")
    if not isinstance(cfg["model"], dict) or "model" not in cfg["model"]:
        raise ConfigError("model block must be an object with a 'model' kind")
    try:
        model = mdl.model_from_config(cfg["model"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if model.dim_d != 1:
        raise ConfigError("studies take scalar x, grids and spots, so the "
                          "model must be 1-D")
    if study.needs and not study.needs[1](model, cfg):
        raise ConfigError(f"{name} needs {study.needs[0]}; got the "
                          f"{model.name} model")
    if name == "greeks":
        try:
            _option(cfg)  # the payoff and OptionSpec check their arguments
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"option: {exc}") from exc
    return model


_RATE_HEADER = ["study", "model", "f", "t", "x", "n", "N", "estimate",
                "truth", "bias", "ci_halfwidth", "oracle"]


def _rate_rows(cfg, estimates, truth, oracle):
    return [[cfg["study"], cfg["model"]["model"], cfg["f"], cfg["t"],
             cfg["x"], est.n_steps, est.n_samples, est.value, truth,
             est.value - truth, 3.0 * est.std_error, oracle]
            for est in estimates]


def _rate_points(estimates, truth, truth_se):
    """(n, bias, 3-sigma halfwidth) per rung, for the rate fit."""
    return [(e.n_steps, e.value - truth,
             3.0 * math.hypot(e.std_error, truth_se)) for e in estimates]


def _reference_and_rungs(model, f, x, t, ns, N, rng):
    """The best available truth and the plain Euler estimate per rung."""
    truth, tse, oracle = mc.reference_value(model, f, [x], t, 8 * max(ns), N,
                                            rng.substream(1000))
    ests = [mc.estimate_expectation(model, f, [x], n, t, N, rng.substream(i))
            for i, n in enumerate(ns)]
    return truth, tse, oracle, ests


def _euler_mean(model, f_name):
    """(mean, oracle) with mean(n, f, x, t) the exact Euler mean
    E f(X_t^{n,x}) where the Euler law is itself closed-form: an affine
    model, or GBM with f identity; None for any other model."""
    if mdl.affine_triple(model) is not None:
        return (lambda n, f, x, t: pair_density(euler_density_1d(model, n),
                                                f, t, x)), "exact-euler-law"
    if model.name == "gbm" and f_name == "identity":
        mu = float(model.poly[0].coef[1])  # b = mu x
        return (lambda n, f, x, t: gbm_euler_mean(mu, x, n, t)), \
            "gbm-mean-recursion"
    return None


def _fit_or_exact(measurements, model):
    """The rate fit of [(n, bias, ci)], or None with "exact-scheme" when no
    bias clears its noise gate and the scheme is exact: the model has
    constant coefficients, or every bias is exactly 0."""
    if not all(math.isfinite(v) for _, e, ci in measurements for v in (e, ci)):
        # a NaN bias clears no noise gate, which would read as exact
        raise NonConvergence("rate fit: a bias or its CI is not finite")
    try:
        return mc.fit_rate(measurements), "fit"
    except mc.InsufficientSignal as exc:
        if measurements and exc.cleared == 0 and (
                mdl.is_constant(model)
                or all(e == 0 for _, e, _ in measurements)):
            return None, "exact-scheme"
        raise NonConvergence(
            "rate fit: too few points above the noise gate") from None


def _gate_slope(fit, slope_range):
    return fit is None or slope_range is None \
        or slope_range[0] <= fit.slope <= slope_range[1]


def _option(cfg) -> pricing.OptionSpec:
    payoff = pricing.make_payoff(cfg["payoff"], strike=cfg.get("strike"),
                                 power=cfg.get("power"))
    return pricing.OptionSpec(payoff, t=float(cfg["t"]), v=float(cfg["v"]))


# Each study takes the config, the model and the root stream, and returns
# (rows, header, summary, ok); run_study adds study, seed and the status
# (pass or gate-failure) to the summary unless the study set one.

def _study_weak_rate(cfg, model, rng):
    f = _F_NAMES[cfg["f"]]()
    x, t, ns = float(cfg["x"]), float(cfg["t"]), cfg["n_ladder"]
    if cfg.get("deterministic"):
        mean, oracle = _euler_mean(model, cfg["f"])
        truth, tse = semigroup_apply(model, t, f, [x]), 0.0
        ests = [mc.Estimate(mean(n, f, x, t), 0.0, 0, n) for n in ns]
    else:
        N = cfg["N"] if "N" in cfg else mc.samples_for_ci(
            model, f, [x], max(ns), t, float(cfg["target_ci"]),
            rng.substream(999))
        truth, tse, oracle, ests = _reference_and_rungs(model, f, x, t, ns, N,
                                                        rng)
    rows = _rate_rows(cfg, ests, truth, oracle)
    fit, status = _fit_or_exact(_rate_points(ests, truth, tse), model)
    summary = {"slope": None if fit is None else fit.slope,
               "r_squared": None if fit is None else fit.r_squared,
               "n_excluded": 0 if fit is None else len(fit.excluded)}
    if fit is None:
        summary["status"] = status
    return rows, _RATE_HEADER, summary, _gate_slope(fit,
                                                     cfg.get("slope_range"))


def _study_romberg(cfg, model, rng):
    f = _F_NAMES[cfg["f"]]()
    x, t, N, ns = float(cfg["x"]), float(cfg["t"]), cfg["N"], cfg["n_ladder"]
    truth, tse, oracle, plain = _reference_and_rungs(model, f, x, t, ns, N,
                                                     rng)
    romb = [mc.romberg_estimate(model, f, [x], n, t, N,
                                rng.substream(100 + i))
            for i, n in enumerate(ns)]
    rows = _rate_rows(cfg, plain, truth, oracle) \
        + _rate_rows(dict(cfg, study="romberg-extrapolated"), romb, truth,
                     oracle)
    fit_b, status_b = _fit_or_exact(_rate_points(plain, truth, tse), model)
    fit_a, status_a = _fit_or_exact(_rate_points(romb, truth, tse), model)
    summary = {"slope_before": None if fit_b is None else fit_b.slope,
               "slope_after": None if fit_a is None else fit_a.slope,
               "status_before": status_b, "status_after": status_a}
    return rows, _RATE_HEADER, summary, _gate_slope(fit_a,
                                                     cfg.get("slope_range"))


def _study_bias_limit(cfg, model, rng):
    f = _F_NAMES[cfg["f"]]()
    x, t, N = float(cfg["x"]), float(cfg["t"]), cfg["N"]
    limit, ci = mc.bias_times_n_limit(model, f, [x], t, cfg["n_ladder"], N,
                                      rng)
    ct, qerr = ee.principal_term_Ct(model, f, t, x, tol=1e-8)
    if not ee.pi_converged(qerr, 1e-8):
        # an error bar past the tolerance would pass almost any limit
        raise NonConvergence(f"principal-term quadrature unconverged "
                             f"(quad_error {qerr!r})")
    tol = float(cfg.get("tolerance", 0.0))
    ok = abs(limit - ct) <= ci + qerr + tol
    header = ["study", "model", "f", "t", "x", "quantity", "value",
              "ci_halfwidth", "oracle"]
    rows = [[cfg["study"], cfg["model"]["model"], cfg["f"], t, x,
             "n_bias_limit", limit, ci, "richardson-mc-ladder"],
            [cfg["study"], cfg["model"]["model"], cfg["f"], t, x,
             "principal_term", ct, qerr, "semigroup-quadrature"]]
    summary = {"bias_limit": limit, "bias_ci": ci, "principal_term": ct,
               "quad_error": qerr, "difference": limit - ct}
    return rows, header, summary, ok


def _pi_grid(cfg, model, t, tol):
    """pi at every (x, y) of the config's grid at time t, x-major, by one
    pi_rows call: (points, values, quad_errors).  The first point in that
    order whose value or error is non-finite, or whose quadrature did not
    converge, raises NonConvergence."""
    points = [(x, y) for x in cfg["x_grid"] for y in cfg["y_grid"]]
    xs, ys = np.array(points, dtype=float).T
    vals, errs = ee.pi_rows(model, t, xs, ys, tol=tol)
    bad = ~(np.isfinite(vals) & ee.pi_converged(errs, tol))
    if bad.any():
        x, y = points[int(np.argmax(bad))]
        raise NonConvergence(
            f"pi quadrature unconverged at (t={t},x={x},y={y})")
    return points, vals, errs


def _study_density(cfg, model, rng):
    n = cfg["n"]
    tol_cfg = float(cfg.get("tolerance", 1e-3))
    tol = max(tol_cfg, 4.0 / n)
    header = ["study", "model", "t", "x", "y", "n", "n_density_error", "pi",
              "difference", "quad_error", "oracle"]
    rows, worst = [], 0.0
    for t in cfg["t_grid"]:
        points, pis, errs = _pi_grid(cfg, model, t, 1e-8)
        des = n * ee.density_error_exact(model, n, t,
                                         *np.array(points, dtype=float).T)
        for (x, y), de, pi, qerr in zip(points, des.tolist(), pis.tolist(),
                                        errs.tolist()):
            diff = de - pi
            worst = max(worst, abs(diff))
            rows.append([cfg["study"], cfg["model"]["model"], t, x, y, n,
                         de, pi, diff, qerr, "exact-gaussian-laws"])
    summary = {"max_abs_difference": worst, "tolerance": tol, "n": n}
    return rows, header, summary, worst <= tol


def _study_tailbound(cfg, model, rng):
    which, l = cfg["kernel"], cfg["l"]
    # each point's kernel value once, in _pi_grid's x-major order: p by
    # scalar calls (array exp may round differently), pi by one pi_rows
    # call per t
    points = [(float(x), float(y)) for x in cfg["x_grid"]
              for y in cfg["y_grid"]]
    grid, values = [], []
    for t in map(float, cfg["t_grid"]):
        if which == "p":
            values += [float(model.exact_density.density(t, x, y))
                       for x, y in points]
        else:
            values += _pi_grid(cfg, model, t, 1e-7)[1].tolist()
        grid += [(t, x, y) for x, y in points]
    spec = ee.fit_tail_bound(l, grid, values)
    report = ee.check_tail_bound(spec, grid, values)
    header = ["study", "model", "kernel", "l", "c1", "c2",
              "max_violation_ratio", "n_points", "oracle"]
    rows = [[cfg["study"], cfg["model"]["model"], which, l, spec.c1, spec.c2,
             report["max_violation_ratio"], report["n_points"],
             "grid-certificate"]]
    summary = {"kernel": which, "l": l, "c1": spec.c1, "c2": spec.c2,
               "max_violation_ratio": report["max_violation_ratio"]}
    return rows, header, summary, report["max_violation_ratio"] <= 1.0


def _study_greeks(cfg, model, rng):
    opt = _option(cfg)
    ns, N = cfg["n_ladder"], cfg["N"]
    bump = float(cfg.get("bump", 0.01))
    ref = pricing.price_romberg(model, opt, 16 * max(ns), N,
                                rng.substream(1000))
    header = ["study", "model", "payoff", "t", "v", "n", "N", "price",
              "price_se", "delta", "delta_se", "gamma", "gamma_se", "oracle"]
    rows, meas = [], []
    for i, n in enumerate(ns):
        g = pricing.greeks_euler(model, opt, n, N, rng.substream(i),
                                 bump=bump)
        rows.append([cfg["study"], cfg["model"]["model"], opt.payoff.name,
                     opt.t, opt.v, n, N, g.price, g.price_se, g.delta,
                     g.delta_se, g.gamma, g.gamma_se,
                     f"romberg-reference(n={16 * max(ns)})"])
        meas.append((n, g.price - ref.value,
                     3 * math.hypot(g.price_se, ref.std_error)))
    fit, status = _fit_or_exact(meas, model)
    summary = {"payoff": opt.payoff.name, "reference_price": ref.value,
               "price_slope": None if fit is None else fit.slope}
    if fit is None:
        summary["status"] = status
    return rows, header, summary, _gate_slope(fit, cfg.get("slope_range"))


def _study_moments(cfg, model, rng):
    q, N, ns = cfg["q"], cfg["N"], cfg["n_ladder"]
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
            # the bound constant must be uniform in the resolution n; a
            # zero moment (GBM from x = 0) is no evidence that it is
            spreads.append(max(cs) / min(cs) if min(cs) > 0 else math.inf)
            all_cs.extend(cs)
    stability = float(cfg.get("stability", 1.2))
    spread = max(spreads)
    summary = {"q": q, "c_fitted": max(all_cs), "worst_n_spread": spread}
    return rows, header, summary, spread <= stability ** 2  # +-20% around c


@dataclass(frozen=True)
class _Study:
    fn: callable      # fn(cfg, model, rng) -> (rows, header, summary, ok)
    required: str     # config keys besides model, seed and the two outputs
    optional: str = ""
    needs: tuple | None = None   # model requirement: (what, test)


_STUDIES = {
    "weak-rate": _Study(_study_weak_rate, "f x t n_ladder",
                        "N target_ci deterministic slope_range", _EULER_LAW),
    "romberg": _Study(_study_romberg, "f x t n_ladder N", "slope_range"),
    "bias-limit": _Study(_study_bias_limit, "f x t n_ladder N", "tolerance",
                         _DENSITY),
    "density": _Study(_study_density, "t_grid x_grid y_grid n", "tolerance",
                      _AFFINE),
    "tailbound": _Study(_study_tailbound, "kernel l t_grid x_grid y_grid",
                        needs=_DENSITY),
    "greeks": _Study(_study_greeks, "payoff v t n_ladder N",
                     "strike power bump slope_range"),
    "moments": _Study(_study_moments, "q t_grid x_grid n_ladder N",
                      "stability"),
}


def run_study(cfg: dict) -> int:
    model = validate_config(cfg)
    try:
        rows, header, summary, ok = _STUDIES[cfg["study"]].fn(
            cfg, model, RngStream(cfg["seed"], 0))
    except (NonConvergence, SimulationBlowup) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    summary = {"study": cfg["study"], "seed": cfg["seed"],
               "status": "pass" if ok else "gate-failure", **summary}
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
