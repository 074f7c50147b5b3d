"""The benchmark's workloads: the tasks of one pass and their oracles.

Each workload is a closed loop: one caller runs the tasks of a pass one
after another, and the run repeats passes until its time is used.  The
inputs of pass i are drawn from the generator seeded with
(workload seed, salt, i), so one seed always gives the same sequence of
passes; the library only ever sees the generated inputs.

Each task returns its result; ``check`` compares it with an oracle that
does not share the code path under test and returns
``[(name, ok, detail), ...]``.  Statistical checks are stated in sigmas
of the estimator's own standard error, quadrature checks as absolute
tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import weaklab.cli as cli
import weaklab.error_expansion as ee
import weaklab.models as mdl
import weaklab.montecarlo as mc
import weaklab.pricing as pricing
import weaklab.quadrature as quad
import weaklab.testfunctions as tf
from weaklab.rng import RngStream

from tracer import euler_steps as _steps

SIGMAS = 5.0          # Monte Carlo checks: |estimate - truth| <= 5 se
RATE_GATE = 0.2       # acceptance criterion 8: |slope + 1| <= 0.2


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: float = 1.0   # work units, counted from the task's inputs


def _inputs(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, index])


def _stream_seed(g: np.random.Generator) -> int:
    return int(g.integers(1, 2**31))


def _finite(name, *values):
    vals = np.concatenate([np.ravel(np.asarray(v, dtype=float))
                           for v in values])
    return (name, bool(np.all(np.isfinite(vals))),
            f"{vals.size} values, all finite")


def _close(name, value, target, tol):
    ok = math.isfinite(value) and abs(value - target) <= tol
    return (name, ok, f"{value!r} vs {target!r}, tol {tol:.3g}")


def _rate_gate(name, rung_lists):
    """Pooled rate fit over the run's ladders, at criterion 8's gate.

    Rung i of the pooled ladder is the mean of rung i over the run's
    calls, with the standard error of that mean.
    """
    if not rung_lists:
        return (name, False, "no ladders in the run")
    k = len(rung_lists)
    pooled = [(n, sum(r[i][1] for r in rung_lists) / k,
               math.sqrt(sum(r[i][2] ** 2 for r in rung_lists)) / k)
              for i, (n, _, _) in enumerate(rung_lists[0])]
    try:
        fit = mc.fit_rate(pooled)
    except mc.InsufficientSignal as exc:
        return (name, False, f"{k} ladders pooled: {exc}")
    ok = abs(fit.slope + 1.0) <= RATE_GATE
    return (name, ok, f"slope {fit.slope:.4f} over {k} pooled ladders, "
            f"{len(fit.excluded)} rungs excluded, gate |slope+1| <= {RATE_GATE}")


def _bs_call(v: float, k: float, sigma: float, t: float):
    """Zero-rate Black-Scholes call (price, delta, gamma), from erf."""
    st = sigma * math.sqrt(t)
    d1 = (math.log(v / k) + 0.5 * st * st) / st
    cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return v * cdf(d1) - k * cdf(d1 - st), cdf(d1), pdf / (v * st)


class McLadder:
    """Coupled Monte Carlo estimators with N spanning several CHUNKs.

    rng, euler, models, montecarlo and pricing do nearly all the work;
    quadrature does none.
    """

    name = "mc-ladder"
    latency_groups = {"estimator": ("bias_ladder", "correction_delta",
                                    "bias_limit", "greeks")}
    headline = "estimator"
    work_name = "path_steps_per_s"
    min_passes = 1

    MARKET = (0.05, 0.6, 0.5)     # tanh-vol market of criterion 8
    BS_SIGMA = 0.2
    LADDER = dict(ns=[8, 16, 32, 64], ref=1, N=1 << 18)   # twice a pass
    DELTA = dict(ns=[4, 8, 16, 32], ref=1, N=1 << 18)
    LIMIT = dict(ns=[4, 8, 16], ref=4, N=1 << 18)
    GREEKS = dict(n=16, N=1 << 18, bump=0.01)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        g = _inputs(seed, 0, 0)
        self.mu = float(g.uniform(0.05, 0.15))
        self.market = mdl.make_bounded_vol_model(*self.MARKET)
        self.gbm = mdl.make_gbm_model(self.mu, float(g.uniform(0.15, 0.25)))
        self.bs = mdl.make_constant_model([-0.5 * self.BS_SIGMA ** 2],
                                          [[self.BS_SIGMA]])
        self.models = [self.market, self.gbm, self.bs]
        self.price_rungs, self.delta_rungs = [], []

    def warm_up(self):
        stream = RngStream(self.seed, 0)
        call = pricing.make_payoff("call", strike=1.0)
        mc.bias_ladder(self.market, pricing.log_payoff_function(call), [0.0],
                       1.0, [1, 2], 1024, stream)
        pricing.greeks_euler(self.bs, pricing.OptionSpec(call, 1.0, 1.0), 2,
                             1024, stream)

    def tasks(self, index: int) -> list:
        # five estimator calls, so the median call is a bias ladder
        g = _inputs(self.seed, 1, index)
        return [self._ladder(g), self._delta(g), self._ladder(g),
                self._limit(g), self._greeks(g)]

    def _near_atm(self, g):
        v = float(g.uniform(0.98, 1.02))
        return v, v * float(g.uniform(0.98, 1.02))

    def _ladder(self, g):
        v, k = self._near_atm(g)
        f = pricing.log_payoff_function(pricing.make_payoff("call", strike=k))
        p, seed = self.LADDER, _stream_seed(g)

        def run():
            return mc.bias_ladder(self.market, f, [math.log(v)], 1.0, p["ns"],
                                  p["N"], RngStream(seed, 0),
                                  ref_multiple=p["ref"])

        def check(rungs):
            self.price_rungs.append(rungs)
            return [_finite("rungs finite", [r[1:] for r in rungs])]

        return Task("bias_ladder", run, check,
                    p["N"] * _steps(2 * p["ref"] * max(p["ns"]), 1.0))

    def _delta(self, g):
        v, k = self._near_atm(g)
        opt = pricing.OptionSpec(pricing.make_payoff("call", strike=k), 1.0, v)
        p, seed = self.DELTA, _stream_seed(g)

        def run():
            return pricing.correction_estimate(
                self.market, opt, "delta", p["ns"], p["N"], RngStream(seed, 1),
                ref_multiple=p["ref"], full=True)

        def check(out):
            value, ci, rungs = out
            self.delta_rungs.append([(n, r / n, s / n) for n, r, s in rungs])
            return [_finite("value, ci and rungs finite", value, ci,
                            [r[1:] for r in rungs])]

        return Task("correction_delta", run, check,
                    3 * p["N"] * _steps(2 * p["ref"] * max(p["ns"]), 1.0))

    def _limit(self, g):
        x = float(g.uniform(0.8, 1.2))
        p, seed = self.LIMIT, _stream_seed(g)

        def run():
            return mc.bias_times_n_limit(self.gbm, tf.identity(), [x], 1.0,
                                         p["ns"], p["N"], RngStream(seed, 2),
                                         ref_multiple=p["ref"])

        def check(out):
            value, ci = out
            # E X^n = x (1 + mu/n)^n, so n (E X^n - E X) -> -x e^mu mu^2 / 2
            closed = -x * math.exp(self.mu) * self.mu ** 2 / 2.0
            return [_close("limit vs closed form", value, closed,
                           SIGMAS / 3.0 * ci)]

        return Task("bias_limit", run, check,
                    p["N"] * _steps(2 * p["ref"] * max(p["ns"]), 1.0))

    def _greeks(self, g):
        v, k = float(g.uniform(0.9, 1.1)), float(g.uniform(0.9, 1.1))
        opt = pricing.OptionSpec(pricing.make_payoff("call", strike=k), 1.0, v)
        p, seed = self.GREEKS, _stream_seed(g)

        def run():
            return pricing.greeks_euler(self.bs, opt, p["n"], p["N"],
                                        RngStream(seed, 3), bump=p["bump"])

        def check(rep):
            price, delta, gamma = _bs_call(v, k, self.BS_SIGMA, 1.0)
            return [_close("price vs Black-Scholes", rep.price, price,
                           SIGMAS * rep.price_se),
                    _close("delta vs Black-Scholes", rep.delta, delta,
                           SIGMAS * rep.delta_se),
                    _close("gamma vs Black-Scholes", rep.gamma, gamma,
                           SIGMAS * rep.gamma_se)]

        return Task("greeks", run, check, 3 * p["N"] * _steps(p["n"], 1.0))

    def finish(self) -> list:
        return [_rate_gate("pooled price rate", self.price_rungs),
                _rate_gate("pooled delta rate", self.delta_rungs)]


class QuadKernel:
    """Deterministic principal-term quadrature on OU and GBM.

    quadrature, gaussian and error_expansion do all the work; rng and
    euler do none.
    """

    name = "quad-kernel"
    latency_groups = {"pi": ("pi",), "ct": ("ct_ou", "ct_gbm"),
                      "pairing": ("pairing",)}
    headline = "pi"
    work_name = "evaluations_per_s"
    min_passes = 1

    OU = (1.0, 1.0)
    GBM = (0.1, 0.2)
    PI_PER_PASS = 16
    BETA1_EVERY = 4
    ORACLE_N = (512, 1024)   # Richardson pair; n t is an integer on the grid
    PI_TOL = 1e-5            # Richardson residual is below 1e-7 on the grid
    CT_TOL = 1e-5
    GBM_TOL = 1e-6           # criterion 4
    PAIR_TOL = 1e-4          # tolerance requested from pairing_with_pi

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ou = mdl.make_ou_model(*self.OU)
        self.gbm = mdl.make_gbm_model(*self.GBM)
        self.models = [self.ou, self.gbm]

    def warm_up(self):
        # fill the node caches every quadrature routine can reach
        for m in (32, 64, 128, 256):
            quad.hermite_rule(m)
        quad.legendre_rule(8)
        ee.principal_density_pi(self.ou, 0.5, 0.0, 0.0)
        self.gbm.exact_density.deriv(1, 1, 0.5, 1.0, np.ones(4))

    def tasks(self, index: int) -> list:
        g = _inputs(self.seed, 2, index)
        out = [self._pi(g, beta=1 if j % self.BETA1_EVERY == self.BETA1_EVERY - 1
                        else 0) for j in range(self.PI_PER_PASS)]
        return out + [self._ct_ou(g), self._ct_gbm(g), self._pairing(g)]

    def _richardson(self, fn):
        """Limit of d(n) = c + a/n + O(1/n^2) from d at n and 2n."""
        n1, n2 = self.ORACLE_N
        return 2.0 * fn(n2) - fn(n1)

    def _pi(self, g, beta):
        t = int(g.integers(8, 33)) / 32.0
        x = float(g.uniform(-1.0, 1.0))
        y = x + float(g.uniform(-1.0, 1.0)) * math.sqrt(t)

        def run():
            return ee.principal_density_pi(self.ou, t, x, y, 0, beta)

        def check(pe):
            limit = self._richardson(
                lambda n: n * ee.density_error_exact(self.ou, n, t, x, y, 0,
                                                     beta))
            return [("converged", bool(pe.converged), f"quad_error {pe.quad_error!r}"),
                    _finite("value and quad_error finite", pe.value,
                            pe.quad_error),
                    _close("pi vs Richardson of n(p_n - p)", pe.value, limit,
                           self.PI_TOL)]

        return Task("pi", run, check)

    def _pairing_limit(self, t, x):
        def d(n):
            approx, exact = ee.distribution_pairing(self.ou, tf.square(), n,
                                                    t, x)
            return n * (approx - exact)
        return self._richardson(d)

    def _ct_ou(self, g):
        t = int(g.integers(16, 33)) / 32.0
        x = float(g.uniform(-1.0, 1.0))

        def run():
            return ee.principal_term_Ct(self.ou, tf.square(), t, x)

        def check(out):
            value, qerr = out
            return [_finite("value and quad_error finite", value, qerr),
                    _close("C_t vs Richardson of n(E f(X^n) - E f(X))", value,
                           self._pairing_limit(t, x), self.CT_TOL)]

        return Task("ct_ou", run, check)

    def _ct_gbm(self, g):
        t = int(g.integers(16, 33)) / 32.0
        x = float(g.uniform(0.8, 1.2))
        mu = self.GBM[0]

        def run():
            return ee.principal_term_Ct(self.gbm, tf.identity(), t, x)

        def check(out):
            value, qerr = out
            closed = -x * math.exp(mu * t) * mu ** 2 * t / 2.0
            return [_finite("value and quad_error finite", value, qerr),
                    _close("C_t vs closed form", value, closed, self.GBM_TOL)]

        return Task("ct_gbm", run, check)

    def _pairing(self, g):
        t = int(g.integers(16, 33)) / 32.0
        x = float(g.uniform(-1.0, 1.0))

        def run():
            return ee.pairing_with_pi(self.ou, tf.square(), t, x,
                                      tol=self.PAIR_TOL)

        def check(out):
            value, qerr = out
            return [_finite("value and quad_error finite", value, qerr),
                    _close("<S, pi> vs Richardson of n<S, p_n - p>", value,
                           self._pairing_limit(t, x),
                           self.PAIR_TOL + self.CT_TOL)]

        return Task("pairing", run, check)

    def finish(self) -> list:
        return []


class CliMix:
    """In-process ``weaklab run`` on a fixed mix of small seeded studies.

    Per-call overhead dominates at these sizes; every study runs twice
    and its CSV and JSON must match byte for byte.
    """

    name = "cli-mix"
    STUDIES = ("weak-rate-det", "weak-rate-mc", "moments", "density",
               "greeks", "bias-limit", "tailbound")
    latency_groups = {"study": STUDIES}
    headline = "study"
    work_name = "studies_per_s"
    # An odd number of studies, each run twice, puts the median inside one
    # study's samples (moments); six passes put the tail, ten samples from
    # the top, inside the slowest study's (bias-limit).
    min_passes = 6
    models = ()    # the studies build their own, traced via model_from_config

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def warm_up(self):
        for m in (32, 64, 128, 256):
            quad.hermite_rule(m)
        quad.legendre_rule(8)
        cfg = {"study": "weak-rate", "model": {"model": "ou", "theta": 1.0,
                                               "sigma": 1.0},
               "f": "square", "x": 1.0, "t": 1.0, "n_ladder": [8, 16, 32, 64],
               "N": 4096, "seed": self.seed}
        self._study("warm-up", cfg)()
        ee.principal_density_pi(mdl.make_ou_model(1.0, 1.0), 0.5, 0.0, 0.0)

    def _configs(self, g) -> dict:
        ou = lambda theta, sigma: {"model": "ou", "theta": theta, "sigma": sigma}
        u = lambda lo, hi: round(float(g.uniform(lo, hi)), 6)
        t = int(g.integers(2, 9)) / 8.0
        return {
            "weak-rate-det": {
                "study": "weak-rate",
                "model": {"model": "gbm", "mu": u(0.05, 0.15),
                          "sigma": u(0.15, 0.25)},
                "f": "identity", "x": u(0.8, 1.2), "t": 1.0,
                "n_ladder": [8, 16, 32, 64], "deterministic": True},
            # N below one CHUNK; every bias is at least 40 sigma, well
            # above fit_rate's noise gate of 9 sigma
            "weak-rate-mc": {
                "study": "weak-rate", "model": ou(u(2.5, 3.0), 1.0),
                "f": "square", "x": u(0.5, 1.0), "t": 1.0,
                "n_ladder": [1, 2, 3, 4], "N": 40000},
            "moments": {
                "study": "moments",
                "model": {"model": "tanh_vol", "a0": 0.05, "b0": 0.2,
                          "c0": 0.1},
                "q": 4, "t_grid": [0.5, 1.0], "x_grid": [0.0, u(1.0, 2.0)],
                "n_ladder": [4, 16], "N": 20000},
            "density": {
                "study": "density", "model": ou(1.0, 1.0), "t_grid": [t],
                "x_grid": sorted(u(-1.0, 1.0) for _ in range(3)),
                "y_grid": sorted(u(-1.0, 1.0) for _ in range(3)), "n": 256},
            "greeks": {
                "study": "greeks", "model": ou(u(1.5, 2.0), 0.5),
                "payoff": "identity", "v": math.exp(u(1.8, 2.2)), "t": 1.0,
                "n_ladder": [1, 2, 4, 8], "N": 16384},
            # tolerance 0.02 on top of the 3-sigma ci (about 0.028) puts
            # the gate near 5 sigma
            "bias-limit": {
                "study": "bias-limit", "model": ou(1.0, 1.0), "f": "square",
                "x": u(0.5, 1.5), "t": 1.0, "n_ladder": [8, 16, 32],
                "N": 16384, "tolerance": 0.02},
            "tailbound": {
                "study": "tailbound", "model": ou(1.0, 1.0), "kernel": "p",
                "l": 0, "t_grid": [0.25, 0.5, 1.0],
                "x_grid": sorted(u(-1.5, 1.5) for _ in range(3)),
                "y_grid": sorted(u(-1.5, 1.5) for _ in range(3))},
        }

    def _study(self, kind, cfg):
        base = os.path.join(self.workdir, kind)
        cfg = dict(cfg, output_csv=base + ".csv", output_json=base + ".json")
        path = base + "-cfg.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

        def run():
            log = io.StringIO()
            for out in (cfg["output_csv"], cfg["output_json"]):
                if os.path.exists(out):
                    os.remove(out)
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(["run", path])
            if rc != 0:
                return rc, b"", b"", log.getvalue()
            with open(cfg["output_csv"], "rb") as a, \
                    open(cfg["output_json"], "rb") as b:
                return rc, a.read(), b.read(), log.getvalue()
        return run

    def tasks(self, index: int) -> list:
        g = _inputs(self.seed, 3, index)
        out = []
        for kind, cfg in self._configs(g).items():
            cfg["seed"] = _stream_seed(g)
            run = self._study(kind, cfg)
            first = {}

            def check_first(res, first=first):
                first["res"] = res
                return [("exit code 0", res[0] == 0,
                         f"exit {res[0]}: {res[3].strip()}")]

            def check_rerun(res, first=first):
                same = "res" in first and res[1:3] == first["res"][1:3]
                return [("exit code 0", res[0] == 0,
                         f"exit {res[0]}: {res[3].strip()}"),
                        ("rerun CSV and JSON byte-identical", same,
                         f"{len(res[1])} + {len(res[2])} bytes")]

            out += [Task(kind, run, check_first), Task(kind, run, check_rerun)]
        return out

    def finish(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (McLadder, QuadKernel, CliMix)}
