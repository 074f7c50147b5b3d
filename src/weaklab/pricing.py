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

from .euler import mc_reduce_multi, simulate_ladder
from .models import SdeModel
from .montecarlo import Estimate, coupled_rungs, estimate_expectation, \
    richardson_limit, romberg_estimate
from .rng import RngStream, scipy_special
from . import testfunctions as tf

PRICE, DELTA, GAMMA = "price", "delta", "gamma"


@dataclass(frozen=True)
class Payoff:
    """Measurable payoff on the positive underlying."""

    fn: callable
    name: str = ""

    def __call__(self, u):
        return self.fn(np.asarray(u, dtype=float))


def make_payoff(name: str, strike: float | None = None,
                power: float | None = None) -> Payoff:
    if name == "call":
        k = float(strike)
        return Payoff(lambda u: np.maximum(u - k, 0.0), f"call(K={k})")
    if name == "put":
        k = float(strike)
        return Payoff(lambda u: np.maximum(k - u, 0.0), f"put(K={k})")
    if name == "digital":
        k = float(strike)
        return Payoff(lambda u: (u > k).astype(float), f"digital(K={k})")
    if name == "constant":
        return Payoff(lambda u: np.ones_like(u), "constant")
    if name == "identity":
        return Payoff(lambda u: u, "identity")
    if name == "power":
        q = int(power)
        if q != power:
            raise ValueError(f"power must be an integer; got {power!r}")
        return Payoff(lambda u: u ** q, f"power({q})")
    raise ValueError(f"unknown payoff {name!r}")


@dataclass
class OptionSpec:
    payoff: Payoff
    t: float
    v: float

    def __post_init__(self):
        self.v = float(self.v)
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError("spot must be finite and strictly positive")
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


def log_payoff_function(payoff: Payoff) -> tf.TestFunction:
    """phi composed with exp, as a test function on the log-underlying."""
    return tf.TestFunction(lambda x: payoff(np.exp(tf.first_coordinate(x))),
                           name=f"log[{payoff.name}]")


def price_euler(market: SdeModel, opt: OptionSpec, n: int, N: int,
                rng: RngStream) -> Estimate:
    """Monte-Carlo price E[phi(exp(X_t^{n, ln v}))]."""
    f = log_payoff_function(opt.payoff)
    return estimate_expectation(market, f, [math.log(opt.v)], n, opt.t, N, rng)


def price_romberg(market: SdeModel, opt: OptionSpec, n: int, N: int,
                  rng: RngStream) -> Estimate:
    f = log_payoff_function(opt.payoff)
    return romberg_estimate(market, f, [math.log(opt.v)], n, opt.t, N, rng)


def _spots(opt: OptionSpec, h: float) -> list:
    """Log start points of the spots v(1-h), v, v(1+h).  As the start
    points of one ladder, path i from each spot sees the same Brownian
    increments, which is what makes the finite differences
    common-random-number.  The relative bump h must lie in (0, 0.1]."""
    if not 0.0 < h <= 0.1:
        raise ValueError("relative bump must lie in (0, 0.1]")
    return [[math.log(v)] for v in (opt.v * (1.0 - h), opt.v,
                                    opt.v * (1.0 + h))]


# each quantity's 3-point CRN stencil on the payoffs at the three spots
_STENCILS = {
    PRICE: lambda lo, mid, hi, dv: mid,
    DELTA: lambda lo, mid, hi, dv: (hi - lo) / (2.0 * dv),
    GAMMA: lambda lo, mid, hi, dv: (hi - 2.0 * mid + lo) / (dv * dv),
}


def _fd_columns(opt: OptionSpec, h: float, pts: np.ndarray,
                which=(PRICE, DELTA, GAMMA)) -> np.ndarray:
    """The quantities `which` per path, one column each, from the 3-point
    CRN stencil, given one level's endpoints from the three _spots,
    start-major."""
    lo, mid, hi = opt.payoff(np.exp(pts[:, 0])).reshape(3, -1)
    dv = h * opt.v
    return np.stack([_STENCILS[q](lo, mid, hi, dv) for q in which], axis=1)


def greeks_euler(market: SdeModel, opt: OptionSpec, n: int, N: int,
                 rng: RngStream, bump: float = 0.01) -> GreeksReport:
    """Price/delta/gamma by central differences with common random numbers."""
    spots = _spots(opt, bump)

    def chunk(stream, size):
        lad = simulate_ladder(market, spots, [n], opt.t, stream, size)
        return _fd_columns(opt, bump, lad[n])

    means, ses = mc_reduce_multi(chunk, N, rng)
    return GreeksReport(price=means[0], price_se=ses[0],
                        delta=means[1], delta_se=ses[1],
                        gamma=means[2], gamma_se=ses[2])


def correction_estimate(market: SdeModel, opt: OptionSpec, which: str,
                        n_ladder, N: int, rng: RngStream, bump: float = 0.01,
                        ref_multiple: int = 16, full: bool = False):
    """Richardson limit of n (quantity^n - quantity^ref) for the 1/n bias.

    The coupled ladder of bias_ladder started at the three spots of
    greeks_euler, with the quantity's stencil column as the per-path
    statistic: the reference is a per-path Romberg pair at ref_multiple x
    the top rung, and every resolution shares one fine Brownian motion.
    Returns (value, ci_halfwidth), or with full=True also the rung table
    [(n, n*bias, n*se), ...].
    """
    if which not in _STENCILS:
        raise ValueError(f"unknown correction target {which!r}")
    rungs = coupled_rungs(
        market, lambda pts: _fd_columns(opt, bump, pts, [which])[:, 0],
        _spots(opt, bump), opt.t, n_ladder, N, rng, ref_multiple)
    value, ci = richardson_limit(rungs)
    if full:
        return value, ci, [(n, n * m, n * s) for n, m, s in rungs]
    return value, ci


def black_scholes_call(v: float, k: float, sigma: float, t: float):
    """(price, delta, gamma) of a zero-rate Black-Scholes call."""
    st = sigma * math.sqrt(t)
    d1 = (math.log(v / k) + 0.5 * sigma * sigma * t) / st
    d2 = d1 - st
    ndtr = scipy_special("ndtr")
    price = v * ndtr(d1) - k * ndtr(d2)
    # the density on an array, as scipy.stats.norm.pdf evaluates it: the
    # scalar np.exp can differ from the array one in the last bit
    pdf = (np.exp(-np.atleast_1d(d1) ** 2 / 2.0) / np.sqrt(2 * np.pi))[0]
    return price, ndtr(d1), pdf / (v * st)


def black_scholes_put(v: float, k: float, sigma: float, t: float):
    """(price, delta, gamma) of a zero-rate Black-Scholes put."""
    price, delta, gamma = black_scholes_call(v, k, sigma, t)
    return price - v + k, delta - 1.0, gamma
