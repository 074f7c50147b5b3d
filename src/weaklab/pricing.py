"""Option prices, deltas and gammas under the Euler scheme on the
log-underlying, with common-random-number finite-difference greeks and
correction-coefficient estimates for the 1/n bias of each quantity.

Zero interest rate throughout; the market model lives in log
coordinates (drift mu - sigma^2/2, volatility sigma), and payoffs are
evaluated on the exponentiated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .euler import mc_reduce_multi, simulate_ladder
from .models import SdeModel
from .montecarlo import Estimate, estimate_expectation, richardson_table, \
    richardson_weights, romberg_estimate
from .rng import RngStream
from . import testfunctions as tf

PRICE, DELTA, GAMMA = "price", "delta", "gamma"


@dataclass(frozen=True)
class Payoff:
    """Measurable payoff on the positive underlying with a polynomial
    growth certificate |phi(u)| <= c (1 + u^q)."""

    fn: callable
    growth_c: float
    growth_q: int
    name: str = ""

    def __call__(self, u):
        return self.fn(np.asarray(u, dtype=float))

    def check_growth(self, probes, slack: float = 1.0 + 1e-9) -> bool:
        u = np.asarray(probes, dtype=float)
        bound = self.growth_c * (1.0 + u ** self.growth_q)
        return bool(np.all(np.abs(self(u)) <= bound * slack))


def make_payoff(name: str, strike: float | None = None,
                power: float | None = None) -> Payoff:
    if name == "call":
        k = float(strike)
        return Payoff(lambda u: np.maximum(u - k, 0.0), 1.0, 1, f"call(K={k})")
    if name == "put":
        k = float(strike)
        return Payoff(lambda u: np.maximum(k - u, 0.0), max(k, 1.0), 0,
                      f"put(K={k})")
    if name == "digital":
        k = float(strike)
        return Payoff(lambda u: (u > k).astype(float), 1.0, 0,
                      f"digital(K={k})")
    if name == "constant":
        return Payoff(lambda u: np.ones_like(u), 1.0, 0, "constant")
    if name == "identity":
        return Payoff(lambda u: u, 1.0, 1, "identity")
    if name == "power":
        q = int(power)
        return Payoff(lambda u: u ** q, 1.0, q, f"power({q})")
    raise ValueError(f"unknown payoff {name!r}")


@dataclass
class OptionSpec:
    payoff: Payoff
    t: float
    v: float

    def __post_init__(self):
        self.v = float(self.v)
        if self.v <= 0:
            raise ValueError("spot must be strictly positive")
        if not 0.0 < self.t <= 1.0:
            raise ValueError("maturity must lie in (0, 1]")


@dataclass
class GreeksReport:
    price: float
    price_se: float
    delta: float
    delta_se: float
    gamma: float
    gamma_se: float
    n_steps: int
    n_samples: int
    bump: float


def log_payoff_function(payoff: Payoff) -> tf.TestFunction:
    """phi composed with exp, as a test function on the log-underlying."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            x = x[:, 0]
        return payoff(np.exp(x))
    if payoff.growth_q == 0:
        return tf.bounded(fn, payoff.growth_c, name=f"log[{payoff.name}]")
    return tf.exp_growth(fn, mu=1.0, c1=2.0 * payoff.growth_c,
                         c2=float(payoff.growth_q), name=f"log[{payoff.name}]")


def price_euler(market: SdeModel, opt: OptionSpec, n: int, N: int,
                rng: RngStream) -> Estimate:
    """Monte-Carlo price E[phi(exp(X_t^{n, ln v}))]."""
    f = log_payoff_function(opt.payoff)
    return estimate_expectation(market, f, [math.log(opt.v)], n, opt.t, N, rng)


def price_romberg(market: SdeModel, opt: OptionSpec, n: int, N: int,
                  rng: RngStream) -> Estimate:
    f = log_payoff_function(opt.payoff)
    return romberg_estimate(market, f, [math.log(opt.v)], n, opt.t, N, rng)


def _bumped_payoffs(market: SdeModel, opt: OptionSpec, ns, h: float,
                    stream, size: int) -> dict:
    """Per-path payoffs at spots v(1-h), v, v(1+h) on shared noise.

    Returns {n: (size, 3) array} for each distinct n.  The three spots are
    the start points of one ladder, so path i from each spot sees the same
    Brownian increments, which is what makes the finite differences
    common-random-number.
    """
    spots = [opt.v * (1.0 - h), opt.v, opt.v * (1.0 + h)]
    lad = simulate_ladder(market, [[math.log(v)] for v in spots], ns, opt.t,
                          stream, size)
    return {n: opt.payoff(np.exp(pts[:, 0])).reshape(3, size).T
            for n, pts in lad.items()}


def _fd_columns(vals: np.ndarray, v: float, h: float) -> np.ndarray:
    """(price, delta, gamma) per path from the 3-point CRN stencil."""
    lo, mid, hi = vals[:, 0], vals[:, 1], vals[:, 2]
    dv = h * v
    return np.stack([mid, (hi - lo) / (2.0 * dv),
                     (hi - 2.0 * mid + lo) / (dv * dv)], axis=1)


def greeks_euler(market: SdeModel, opt: OptionSpec, n: int, N: int,
                 rng: RngStream, bump: float = 0.01) -> GreeksReport:
    """Price/delta/gamma by central differences with common random numbers."""
    if not 0.0 < bump <= 0.1:
        raise ValueError("relative bump must lie in (0, 0.1]")
    if market.dim_d != 1:
        raise ValueError("greeks are implemented for 1-D markets")

    def chunk(stream, size):
        vals = _bumped_payoffs(market, opt, [n], bump, stream, size)[n]
        return _fd_columns(vals, opt.v, bump)

    means, ses = mc_reduce_multi(chunk, N, rng, 3)
    return GreeksReport(price=means[0], price_se=ses[0],
                        delta=means[1], delta_se=ses[1],
                        gamma=means[2], gamma_se=ses[2],
                        n_steps=n, n_samples=N, bump=bump)


_WHICH_COLUMN = {PRICE: 0, DELTA: 1, GAMMA: 2}


def correction_estimate(market: SdeModel, opt: OptionSpec, which: str,
                        n_ladder, N: int, rng: RngStream, bump: float = 0.01,
                        ref_multiple: int = 16, full: bool = False):
    """Richardson limit of n (quantity^n - quantity^ref) for the 1/n bias.

    The reference is a per-path Romberg pair at ref_multiple x the top
    rung; every resolution shares one fine Brownian motion, so the bias
    differences are low-variance.  Returns (value, ci_halfwidth), or with
    full=True also the rung table [(n, n*bias, n*se), ...].
    """
    if which not in _WHICH_COLUMN:
        raise ValueError(f"unknown correction target {which!r}")
    col = _WHICH_COLUMN[which]
    ns = sorted(int(n) for n in n_ladder)
    n_ref = ref_multiple * ns[-1]
    levels = set(ns) | {n_ref, 2 * n_ref}

    def chunk(stream, size):
        vals = _bumped_payoffs(market, opt, levels, bump, stream, size)
        cols = {n: _fd_columns(v, opt.v, bump)[:, col]
                for n, v in vals.items()}
        ref = 2.0 * cols[2 * n_ref] - cols[n_ref]
        return np.stack([cols[n] - ref for n in ns], axis=1)

    means, ses = mc_reduce_multi(chunk, N, rng, len(ns))
    rungs = [(n, n * m, n * s) for n, m, s in zip(ns, means, ses)]
    order = min(2, len(ns))
    value = richardson_table([(n, v) for n, v, _ in rungs], order)
    w = richardson_weights(len(ns), order)
    ci = 3.0 * math.sqrt(sum((wi * s) ** 2 for wi, (_, _, s) in zip(w, rungs)))
    if full:
        return value, ci, rungs
    return value, ci


def black_scholes_call(v: float, k: float, sigma: float, t: float):
    """(price, delta, gamma) of a zero-rate Black-Scholes call."""
    st = sigma * math.sqrt(t)
    d1 = (math.log(v / k) + 0.5 * sigma * sigma * t) / st
    d2 = d1 - st
    price = v * ndtr(d1) - k * ndtr(d2)
    # the density on an array, as scipy.stats.norm.pdf evaluates it: the
    # scalar np.exp can differ from the array one in the last bit
    pdf = (np.exp(-np.atleast_1d(d1) ** 2 / 2.0) / np.sqrt(2 * np.pi))[0]
    return price, ndtr(d1), pdf / (v * st)


def black_scholes_put(v: float, k: float, sigma: float, t: float):
    """(price, delta, gamma) of a zero-rate Black-Scholes put."""
    price, delta, gamma = black_scholes_call(v, k, sigma, t)
    return price - v + k, delta - 1.0, gamma
