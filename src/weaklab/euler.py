"""Euler scheme simulation: single-resolution paths, coupled ladders sharing
one Brownian motion, the exact Gaussian law of a 1-D affine model's chain,
and moment estimation.

One Euler step evaluates the coefficients once: the model's
drift_diffusion writes its drift and diffusion into arrays the loop reuses
(tanh-vol from one tanh).  In every dimension the step forms b dt, then
sigma dB, in those arrays and adds b dt and the row sums of sigma dB in
place; every start point shares the increment, which is never copied.

Monte-Carlo reductions are chunked over fixed-size substreams and merged
in stream order with compensated summation, so results are bit-identical
regardless of how many workers run the chunks.  Chunks run on one thread
per CPU the process may use (WEAKLAB_WORKERS overrides the count), and on
no more threads than there are chunks; each running chunk holds its own
working set, so memory grows with the number of threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import AffineGaussianDensity
from .models import SdeModel, affine_triple
from .rng import RngStream, normals_from

CHUNK = 1 << 16


class SimulationBlowup(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


def _check_finite(x: np.ndarray, step: int):
    if not np.all(np.isfinite(x)):
        raise SimulationBlowup(step)


def _steps(n: int, t: float) -> tuple[int, float]:
    """Full step count floor(n t) and the trailing partial step length."""
    k = int(math.floor(n * t + 1e-12))
    return k, t - k / n


def simulate_euler(model: SdeModel, x, n: int, t: float, rng: RngStream,
                   size: int) -> np.ndarray:
    """Endpoints X_t^{n,x} for `size` independent paths, shape (size, d);
    k start points, shape (k, d), give (k size, d) as in simulate_ladder."""
    return _simulate(model, x, [n], t, rng, size)[n]


def simulate_ladder(model: SdeModel, x, ns, t: float, rng: RngStream,
                    size: int) -> dict[int, np.ndarray]:
    """Endpoints at every resolution in `ns`, driven by one Brownian motion.

    Every n must be a positive integer that divides max(ns); coarse
    increments are the exact sums of the fine increments they span.

    `x` is one start point, shape (d,), or k start points, shape (k, d).
    Path i from every start uses the same Brownian increments, so each
    result has shape (k size, d) with the rows of start j in the block
    [j size, (j + 1) size); that block is bit-identical to a run from
    start j alone on the same stream.
    """
    return _simulate(model, x, ns, t, rng, size)


def _simulate(model: SdeModel, x, ns, t: float, rng: RngStream,
              size: int) -> dict[int, np.ndarray]:
    """The Euler loop behind simulate_euler and simulate_ladder.

    Every resolution in `ns` must be a positive integer that divides the
    finest.
    Normals are drawn once per fine step for `size` paths and shared by
    every start.  The finest level steps on the raw increment; each coarser
    level sums the increments it spans in a buffer that is reset in place
    after its step.  A step adds b dt, then the row sums of sigma dB, in
    place to the level's state; no state array is ever rebound.
    """
    if any(n != int(n) or n < 1 for n in ns):
        raise ValueError(f"resolutions must be positive integers; got {ns}")
    ns = sorted(set(int(n) for n in ns))
    for n in ns:
        if ns[-1] % n:
            raise ValueError(f"resolution {n} does not divide finest {ns[-1]}")
    n_fine, coarse = ns[-1], ns[:-1]
    gen = rng.generator()
    d, r = model.dim_d, model.dim_r
    starts = np.atleast_2d(np.asarray(x, dtype=float))
    if starts.ndim != 2 or starts.shape[1] != d:
        raise ValueError(f"start points must have shape (d,) or (k, d), d={d}")
    k = starts.shape[0]
    x0 = np.repeat(starts, size, axis=0)  # start-major rows
    kf, dtp = _steps(n_fine, t)
    states = {n: x0.copy() for n in ns}
    buffers = {n: np.zeros((size, r)) for n in coarse}
    done = dict.fromkeys(ns, 0)  # steps taken at each level
    b, sig = np.empty((k * size, d)), np.empty((k * size, d, r))
    sdb = sig.reshape(k, size, d, r)  # a view: one block of paths per start

    def step(n, dt, dB):
        state = states[n]
        model.drift_diffusion(state, b, sig)
        np.multiply(b, dt, out=b)
        state += b
        for i in range(d):  # one call per entry of sigma: a broadcast call
            for j in range(r):  # would loop over only r numbers at a time
                sdb[:, :, i, j] *= dB[:, j]
        for j in range(1, r):  # row sums of sigma dB, into column 0
            sig[:, :, 0] += sig[:, :, j]
        state += sig[:, :, 0]
        _check_finite(state, done[n])
        done[n] += 1

    scale = math.sqrt(1.0 / n_fine)
    for j in range(1, kf + 1):
        dB = normals_from(gen, (size, r))
        dB *= scale
        for n in coarse:
            buffers[n] += dB
            if j % (n_fine // n) == 0:
                step(n, 1.0 / n, buffers[n])
                buffers[n].fill(0.0)
        step(n_fine, 1.0 / n_fine, dB)
    if dtp > 1e-14:
        dB = normals_from(gen, (size, r))
        dB *= math.sqrt(dtp)
        for n in coarse:
            buffers[n] += dB
        buffers[n_fine] = dB  # the finest level steps on the raw increment
    for n in ns:
        dt_last = t - done[n] / n
        if dt_last > 1e-14:
            step(n, dt_last, buffers[n])
    return states


def simulate_coupled(model: SdeModel, x, n: int, t: float, rng: RngStream,
                     size: int) -> tuple[np.ndarray, np.ndarray]:
    """(coarse X^{n}, fine X^{2n}) endpoints sharing one Brownian motion."""
    out = simulate_ladder(model, x, [n, 2 * n], t, rng, size)
    return out[n], out[2 * n]


def euler_affine_transport(model: SdeModel, n: int, t: float):
    """(A, c, V), three floats, with law of X_t^{n,x} = N(A x + c, V) for a
    1-D affine model; ValueError for any other model."""
    triple = affine_triple(model)
    if triple is None:
        raise ValueError("exact Euler law requires a 1-D affine model")
    m, b, a = triple
    if m == 0:  # exact in law; summing b dt step by step leaves residue
        return 1.0, b * t, a * t
    A, c, V = 1.0, 0.0, 0.0
    k, dt_last = _steps(n, t)
    for dt in [1.0 / n] * k + ([dt_last] if dt_last > 1e-14 else []):
        g = 1.0 + m * dt
        A = g * A
        c = g * c + b * dt
        V = g * V * g + a * dt
    return A, c, V


def gbm_euler_mean(mu: float, x: float, n: int, t: float) -> float:
    """Exact E[X_t^{n,x}] for geometric Brownian motion: the mean gains a
    factor (1 + mu dt) per Euler step."""
    k, dt_last = _steps(n, t)
    m = float(x) * (1.0 + mu / n) ** k
    if dt_last > 1e-14:
        m *= 1.0 + mu * dt_last
    return m


def euler_density_1d(model: SdeModel, n: int) -> AffineGaussianDensity:
    """Exact transition density of the 1-D Euler chain of an affine model;
    euler_affine_transport rejects any other model, here at once."""
    law = lru_cache(maxsize=None)(
        lambda t: euler_affine_transport(model, n, t))
    law(0.0)
    return AffineGaussianDensity(law)


@dataclass
class MeanAccumulator:
    """Deterministic streaming mean/variance over ordered chunks.  Each
    chunk's sum of squares about its own mean is merged in chunk order
    (Chan, Golub and LeVeque), so the variance keeps its accuracy at large
    means; the mean is the fsum of the chunk sums over the count."""

    total: int = 0
    parts_sum: list = None
    mean: float = 0.0   # running mean, used only by the merge
    m2: float = 0.0     # centred sum of squares of the chunks so far

    def __post_init__(self):
        self.parts_sum = []

    def add(self, values: np.ndarray):
        n, s = values.size, float(np.sum(values))
        dev = values - s / n
        delta = s / n - self.mean
        total = self.total + n
        self.m2 += float(np.sum(dev * dev)) \
            + delta * delta * self.total * n / total
        self.mean += delta * n / total
        self.total = total
        self.parts_sum.append(s)

    def result(self) -> tuple[float, float]:
        mean = math.fsum(self.parts_sum) / self.total
        var = self.m2 / self.total
        return mean, math.sqrt(var / self.total)


def worker_count() -> int:
    """WEAKLAB_WORKERS if set, else the number of CPUs this process may use;
    ValueError if WEAKLAB_WORKERS is set but not a positive integer."""
    env = os.environ.get("WEAKLAB_WORKERS")
    if env:
        if not (env.isdecimal() and int(env) > 0):
            raise ValueError("WEAKLAB_WORKERS must be a positive integer; "
                             f"got {env!r}")
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reduce(chunk_fn, N: int, rng: RngStream):
    """Columnwise (means, standard errors) of chunk_fn(stream, size), one
    value or row per sample, over N samples.  One MeanAccumulator per
    column of the first chunk merges the chunks in substream order; chunk
    boundaries are fixed by CHUNK, so the result is independent of the
    worker count.  At most one thread per chunk runs; a single chunk runs
    on the calling thread.  Once a chunk raises, no chunk starts after it
    and the exception reaches the caller."""
    if N < 1:
        raise ValueError("N >= 1 samples required")
    sizes = [CHUNK] * (N // CHUNK) + ([N % CHUNK] if N % CHUNK else [])
    streams = [rng.substream(i) for i in range(len(sizes))]
    workers = min(worker_count(), len(sizes))
    accs = []

    def absorb(vals):
        cols = np.reshape(vals, (len(vals), -1))
        if not accs:
            accs.extend(MeanAccumulator() for _ in range(cols.shape[1]))
        for j, acc in enumerate(accs):
            acc.add(cols[:, j])

    if workers > 1:
        failed = threading.Event()

        def run(stream, size):
            # a skipped chunk comes after the failed one, whose future
            # raises first, so None is never absorbed
            if failed.is_set():
                return None
            try:
                return chunk_fn(stream, size)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, s, z) for s, z in zip(streams, sizes)]
            try:
                for fut in futures:
                    absorb(fut.result())
            finally:
                for fut in futures:
                    fut.cancel()
    else:
        for vals in map(chunk_fn, streams, sizes):
            absorb(vals)
    out = [acc.result() for acc in accs]
    return np.array([m for m, _ in out]), np.array([s for _, s in out])


def mc_reduce(chunk_fn, N: int, rng: RngStream) -> tuple[float, float]:
    """Mean and standard error of chunk_fn(stream, size), one value per
    sample, over N samples: the one-column case of _reduce."""
    means, ses = _reduce(chunk_fn, N, rng)
    return float(means[0]), float(ses[0])


def mc_reduce_multi(chunk_fn, N: int, rng: RngStream):
    """Columnwise means and standard errors of chunk_fn(stream, size) ->
    (size, k); each column is bit-identical to a standalone mc_reduce on
    the same stream."""
    # a def, not an alias: perfbench's tracer rebinds every alias of this
    # function, and an alias would make it wrap _reduce as well
    return _reduce(chunk_fn, N, rng)


def empirical_moment(model: SdeModel, x, n: int, t: float, q: int, N: int,
                     rng: RngStream):
    """Monte-Carlo estimate of E ||X_t^{n,x}||^q with standard error."""
    if q % 2 or not 2 <= q <= 8:
        raise ValueError("q must be an even integer in [2, 8]")

    def chunk(stream, size):
        pts = simulate_euler(model, x, n, t, stream, size)
        return np.linalg.norm(pts, axis=1) ** q

    return mc_reduce(chunk, N, rng)
