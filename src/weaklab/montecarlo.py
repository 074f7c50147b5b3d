"""Monte-Carlo estimation of E[f(X_t^{n,x})], Romberg extrapolation,
Richardson tables and log-log convergence-rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import testfunctions as tf
from .euler import mc_reduce, mc_reduce_multi, simulate_coupled, \
    simulate_euler, simulate_ladder
from .models import SdeModel, semigroup_apply
from .rng import RngStream


class InsufficientSignal(RuntimeError):
    """Too few measurements rise above their noise gate for a rate fit;
    ``cleared`` counts those that did."""

    def __init__(self, message: str, cleared: int):
        super().__init__(message)
        self.cleared = cleared


@dataclass
class Estimate:
    value: float
    std_error: float
    n_samples: int
    n_steps: int


@dataclass
class RateFit:
    excluded: list           # noise-dominated points, recorded not fitted
    slope: float
    r_squared: float


def estimate_expectation(model: SdeModel, f: tf.TestFunction, x, n: int,
                         t: float, N: int, rng: RngStream) -> Estimate:
    def chunk(stream, size):
        return f(simulate_euler(model, x, n, t, stream, size))

    mean, se = mc_reduce(chunk, N, rng)
    return Estimate(mean, se, N, n)


def romberg_estimate(model: SdeModel, f: tf.TestFunction, x, n: int,
                     t: float, N: int, rng: RngStream) -> Estimate:
    """Average of 2 f(X^{2n}) - f(X^n) over coupled pairs; bias O(1/n^2)."""

    def chunk(stream, size):
        coarse, fine = simulate_coupled(model, x, n, t, stream, size)
        return 2.0 * f(fine) - f(coarse)

    mean, se = mc_reduce(chunk, N, rng)
    return Estimate(mean, se, N, n)


def richardson_table(values, order: int) -> float:
    """Neville elimination of 1/n, ..., 1/n^(order-1) on a 2x ladder.

    `values` is a list of (n_i, v_i) with n_{i+1} = 2 n_i.
    """
    values = sorted(values)
    ns = [n for n, _ in values]
    for lo, hi in zip(ns[:-1], ns[1:]):
        if hi != 2 * lo:
            raise ValueError("resolutions must form a geometric ladder n, 2n, 4n, ...")
    if not 1 <= order <= len(values):
        raise ValueError("order must be between 1 and the ladder length")
    col = [v for _, v in values]
    for j in range(1, order):
        fac = 2.0 ** j
        col = [(fac * col[i + 1] - col[i]) / (fac - 1.0)
               for i in range(len(col) - 1)]
    return col[-1]


def richardson_weights(length: int, order: int) -> np.ndarray:
    """Weights w_i with extrapolation = sum_i w_i v_i (for CI propagation)."""
    out = np.zeros(length)
    for i in range(length):
        e = np.zeros(length)
        e[i] = 1.0
        out[i] = richardson_table([(2 ** k, e[k]) for k in range(length)], order)
    return out


def fit_rate(measurements, noise_gate: float = 3.0) -> RateFit:
    """Weighted least squares of log|error| on log n.

    Points with |error| <= noise_gate * ci are excluded (their log-error
    is meaningless); at least 4 usable points are required.
    """
    usable, excluded = [], []
    for n, err, ci in measurements:
        if abs(err) > noise_gate * ci:
            usable.append((n, err, ci))
        else:
            excluded.append((n, err, ci))
    if len(usable) < 4:
        raise InsufficientSignal(
            f"only {len(usable)} of {len(measurements)} points exceed the "
            f"{noise_gate}x CI noise gate; raise N or widen the n range",
            cleared=len(usable))
    ln = np.log([n for n, _, _ in usable])
    le = np.log([abs(e) for _, e, _ in usable])
    # delta method: var(log|e|) ~ (ci/|e|)^2, floored at 1e-6 so that a
    # zero or tiny CI gets one finite weight and the weights cannot overflow
    sig = np.array([max(ci / abs(e), 1e-6) for _, e, ci in usable])
    w = 1.0 / sig
    slope, intercept = np.polyfit(ln, le, 1, w=w)
    pred = slope * ln + intercept
    ss_res = float(np.sum((w * (le - pred)) ** 2))
    ss_tot = float(np.sum((w * (le - np.average(le, weights=w**2))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(excluded=excluded, slope=float(slope), r_squared=r2)


def reference_value(model: SdeModel, f: tf.TestFunction, x, t: float,
                    n_ref: int, N: int, rng: RngStream):
    """Best available truth: exact quadrature if the model has a density
    oracle, otherwise a fine-level Romberg estimate."""
    if model.exact_density is not None:
        return semigroup_apply(model, t, f, x), 0.0, "semigroup-quadrature"
    est = romberg_estimate(model, f, x, n_ref, t, N, rng)
    return est.value, est.std_error, f"romberg-reference(n={n_ref})"


def bias_ladder(model: SdeModel, f: tf.TestFunction, x, t: float, n_ladder,
                N: int, rng: RngStream, ref_multiple: int = 4):
    """Per-resolution weak bias measured against a coupled Romberg reference.

    All resolutions plus (n_ref, 2 n_ref) with n_ref = ref_multiple x the
    top rung share one Brownian motion per path; the bias of level n is
    the mean of f(X^n) - [2 f(X^{2 n_ref}) - f(X^{n_ref})].  The coupling
    makes the difference variance strong-error sized, which is what lets
    small biases clear the noise gate.  Returns [(n, bias, std_error)].
    """
    return coupled_rungs(model, f, x, t, n_ladder, N, rng, ref_multiple)


def romberg_ladder(model: SdeModel, f: tf.TestFunction, x, t: float,
                   n_ladder, N: int, rng: RngStream, ref_multiple: int = 4):
    """Residual bias of the extrapolated estimator 2 f(X^{2n}) - f(X^n).

    Same coupled construction as bias_ladder, but each rung's statistic
    is the per-path Romberg combination minus the per-path reference, so
    the second-order residuals are measured with strong-error-sized
    noise.  Returns [(n, residual, std_error)].
    """
    return coupled_rungs(model, f, x, t, n_ladder, N, rng, ref_multiple,
                         romberg=True)


def coupled_rungs(model, stat, x, t, n_ladder, N, rng, ref_multiple,
                  romberg=False):
    """[(n, mean, std_error)] of each rung's per-path statistic, stat(X^n)
    or with romberg 2 stat(X^{2n}) - stat(X^n), minus the per-path
    reference.  stat maps the endpoints of one level, every start point
    of x, to one value per path."""
    ns = sorted(int(n) for n in n_ladder)
    n_ref = ref_multiple * ns[-1]
    levels = set(ns) | {n_ref, 2 * n_ref}
    if romberg:
        levels |= {2 * n for n in ns}

    def chunk(stream, size):
        lad = simulate_ladder(model, x, levels, t, stream, size)
        vals = {n: stat(pts) for n, pts in lad.items()}
        ref = 2.0 * vals[2 * n_ref] - vals[n_ref]
        stats = [2.0 * vals[2 * n] - vals[n] if romberg else vals[n]
                 for n in ns]
        return np.stack([v - ref for v in stats], axis=1)

    means, ses = mc_reduce_multi(chunk, N, rng)
    return [(n, float(m), float(s)) for n, m, s in zip(ns, means, ses)]


def richardson_limit(rungs):
    """Richardson limit of n bias over coupled rungs [(n, bias, std_error)],
    eliminating the 1/n term (or none, from one rung), with a 3-sigma
    halfwidth propagated through the Richardson weights."""
    order = min(2, len(rungs))
    value = richardson_table([(n, n * b) for n, b, _ in rungs], order)
    w = richardson_weights(len(rungs), order)
    ci = 3.0 * math.sqrt(sum((wi * n * s) ** 2
                             for wi, (n, _, s) in zip(w, rungs)))
    return value, ci


def bias_times_n_limit(model: SdeModel, f: tf.TestFunction, x, t: float,
                       n_ladder, N: int, rng: RngStream,
                       ref_multiple: int = 4):
    """Richardson limit of n (E[f(X^{n})] - E[f(X)]) over the ladder.

    Returns (value, ci_halfwidth) with a 3-sigma halfwidth propagated
    through the Richardson weights.
    """
    return richardson_limit(bias_ladder(model, f, x, t, n_ladder, N, rng,
                                        ref_multiple))


def samples_for_ci(model: SdeModel, f: tf.TestFunction, x, n: int, t: float,
                   target_ci: float, rng: RngStream) -> int:
    """Sample count whose 3-sigma CI halfwidth is below target, from a
    pilot run; at least the pilot's size, at most 10^8."""
    pilot, cap = 10**4, 10**8
    est = estimate_expectation(model, f, x, n, t, pilot, rng)
    sd = est.std_error * math.sqrt(pilot)
    need = int(math.ceil((3.0 * sd / target_ci) ** 2))
    return min(max(need, pilot), cap)
