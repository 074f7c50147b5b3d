"""Euler scheme simulation: single-resolution paths, coupled ladders sharing
one Brownian motion, the exact Gaussian law of a 1-D affine model's chain,
and moment estimation.

One Euler step evaluates the coefficients once: the model's
drift_diffusion writes its drift and diffusion into arrays the loop reuses
(tanh-vol from one tanh).  In every dimension the step forms b dt, then
sigma dB, in those arrays and adds b dt and the row sums of sigma dB in
place; every start point shares the increment, which is never copied.

Monte-Carlo reductions are chunked over fixed-size substreams, whose column
counts must agree, and merged in stream order, every column in one array
step, with compensated summation, so results are bit-identical
regardless of the worker count.  The worker count is the number of CPUs
the process may use (WEAKLAB_WORKERS overrides it).  Chunks run one after
another on the calling thread, and every simulation runs its paths as
min(workers, size) contiguous ranges, the first on the calling thread and
the rest on a persistent part pool; Philox is counter based, so each range
reads its slice of every draw from its place in the stream and the
endpoints are bit-identical to the unsplit loop's.  The ranges share no
state: each returns its endpoints or the step and exception it failed
with, a failing range does not stop the others, and the simulation raises
the failure the unsplit loop meets first.  Memory is one chunk's working
set, divided among its ranges, plus one assembled copy of the endpoints.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

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


def _seek(gen: np.random.Generator, used: int, at: int):
    """Move gen, which has produced `used` uniforms, on to uniform `at` >=
    used.  Philox makes uniforms in blocks of four, and advance skips
    whole blocks past the one in use."""
    blocks = -(-used // 4)
    if at >= 4 * blocks:
        gen.bit_generator.advance(at // 4 - blocks)
        used = at - at % 4
    gen.random(at - used)


_pool_lock = threading.Lock()
_pool = (0, None)  # (threads, executor) of the part pool


def _part_pool() -> ThreadPoolExecutor:
    """The executor of every range but the first: built on first use with
    worker_count() threads and rebuilt when that grows.  It runs nothing
    but ranges, which wait on nothing, so a simulation that waits on its
    ranges cannot starve them."""
    global _pool
    threads = worker_count()
    with _pool_lock:
        if _pool[0] < threads:  # the old pool's threads end once idle
            _pool = (threads, ThreadPoolExecutor(
                threads, thread_name_prefix="weaklab-part"))
        return _pool[1]


def _check_resolutions(ns):
    """ValueError unless ns is one or more positive integers (an integral
    float, such as 2.0, counts)."""
    try:
        ok = len(ns) and all(n == int(n) and n >= 1 for n in ns)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError("resolutions must be one or more positive integers;"
                         f" got {ns}")


def _steps(n: int, t: float) -> tuple[int, float]:
    """Full step count floor(n t) and the trailing partial step length;
    ValueError unless n is a positive integer and the horizon t is finite
    and >= 0."""
    _check_resolutions([n])
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"horizon t must be finite and >= 0; got {t}")
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
    finest.  The paths run as min(worker_count(), size) contiguous ranges
    [lo, hi) of the `size`; the first range runs on the calling thread,
    the others on the part pool, and their endpoints are joined into the
    start-major result.  A failing range does not stop the others; once
    all have returned, the failure the unsplit loop would meet first
    raises: the earliest step, then the lowest range.
    """
    _check_resolutions(ns)
    ns = sorted(set(int(n) for n in ns))
    for n in ns:
        if ns[-1] % n:
            raise ValueError(f"resolution {n} does not divide finest {ns[-1]}")
    starts = np.atleast_2d(np.asarray(x, dtype=float))
    if starts.ndim != 2 or starts.shape[1] != model.dim_d:
        raise ValueError("start points must have shape (d,) or (k, d), "
                         f"d={model.dim_d}")
    parts = max(1, min(worker_count(), size))
    bounds = [size * i // parts for i in range(parts + 1)]
    _steps(ns[-1], t)  # a bad horizon raises here, before any range starts
    run = partial(_euler_paths, model, starts, ns, t, rng, size)
    futures = [_part_pool().submit(run, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    ranges = [run(bounds[0], bounds[1])] + [f.result() for f in futures]
    failed = [(p[0], i, p[1]) for i, p in enumerate(ranges)
              if isinstance(p, tuple)]
    if failed:
        raise min(failed, key=lambda f: f[:2])[2]
    if parts == 1:
        return ranges[0]
    k, d = starts.shape
    return {n: np.concatenate([p[n].reshape(k, -1, d) for p in ranges],
                              axis=1).reshape(k * size, d) for n in ns}


def _euler_paths(model: SdeModel, starts: np.ndarray, ns: list, t: float,
                 rng: RngStream, size: int, lo: int, hi: int
                 ) -> dict[int, np.ndarray] | tuple[int, BaseException]:
    """Endpoints {n: (k (hi - lo), d)}, start-major, of paths [lo, hi) of
    the `size` from each of the k `starts`, or (step, exception) if the
    range fails: the steps it had taken at all levels and what it raised.
    The range reads no other range's state.

    Normals are drawn once per fine step for the range and shared by
    every start: draw j of the range is rows [lo, hi) of the unsplit
    loop's (size, r) draw j, read from its place in the stream.  The
    finest level steps on the raw increment; each coarser level sums the
    increments it spans in a buffer that is reset in place after its
    step.  A step adds b dt, then the row sums of sigma dB, in place to
    the level's state; no state array is ever rebound.
    """
    n_fine, coarse = ns[-1], ns[:-1]
    d, r = model.dim_d, model.dim_r
    k, m = starts.shape[0], hi - lo
    gen, used = rng.generator(), 0  # uniforms gen has produced
    x0 = np.repeat(starts, m, axis=0)  # start-major rows
    kf, dtp = _steps(n_fine, t)
    states = {n: x0.copy() for n in ns}
    buffers = {n: np.zeros((m, r)) for n in coarse}
    done = dict.fromkeys(ns, 0)  # steps taken at each level; their sum
    # orders the steps of all levels as the loop takes them
    b, sig = np.empty((k * m, d)), np.empty((k * m, d, r))
    sdb = sig.reshape(k, m, d, r)  # a view: one block of paths per start

    def draw(j, scale):
        nonlocal used
        at = (j * size + lo) * r
        _seek(gen, used, at)
        used = at + m * r
        dB = normals_from(gen, (m, r))
        dB *= scale
        return dB

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
    try:
        for j in range(1, kf + 1):
            dB = draw(j - 1, scale)
            for n in coarse:
                buffers[n] += dB
                if j % (n_fine // n) == 0:
                    step(n, 1.0 / n, buffers[n])
                    buffers[n].fill(0.0)
            step(n_fine, 1.0 / n_fine, dB)
        if dtp > 1e-14:
            dB = draw(kf, math.sqrt(dtp))
            for n in coarse:
                buffers[n] += dB
            buffers[n_fine] = dB  # the finest level steps on the raw increment
        for n in ns:
            dt_last = t - done[n] / n
            if dt_last > 1e-14:
                step(n, dt_last, buffers[n])
    except BaseException as exc:  # re-raised by _simulate
        return sum(done.values()), exc
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
    k, dt_last = _steps(n, t)
    if m == 0:  # exact in law; summing b dt step by step leaves residue
        return 1.0, b * t, a * t
    A, c, V = 1.0, 0.0, 0.0
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
    euler_affine_transport(model, n, 0.0)
    return AffineGaussianDensity(partial(euler_affine_transport, model, n))


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
    value or row per sample, over N samples.  Chunks run one after another
    on the calling thread, in substream order, with bounds fixed by CHUNK,
    so the result is independent of the worker count.  Each chunk joins
    every column at once (Chan, Golub and LeVeque: its sum of squares about
    its own mean, so the variance stays accurate at large means); a mean is
    the fsum of its chunk sums over the count.  A chunk whose column count
    is not the first chunk's raises ValueError."""
    if N < 1:
        raise ValueError("N >= 1 samples required")
    sizes = [CHUNK] * (N // CHUNK) + ([N % CHUNK] if N % CHUNK else [])
    count, sums = 0, []  # samples merged so far; each chunk's column sums
    for i, size in enumerate(sizes):
        vals = chunk_fn(rng.substream(i), size)
        cols = np.reshape(vals, (len(vals), -1))
        n, k = cols.shape
        if not sums:  # running mean and centred sum of squares
            mean, m2 = np.zeros(k), np.zeros(k)
        elif k != mean.size:
            raise ValueError(f"chunk {i} has {k} columns, not {mean.size}")
        # numpy's 1-D sums over each column's view of the chunk, no copy
        s = np.array([np.sum(c) for c in cols.T], dtype=float)
        ss = np.array([np.sum(np.square(c - m)) for c, m
                       in zip(cols.T, (s / n).tolist())], dtype=float)
        delta = s / n - mean
        m2 += ss + delta * delta * count * n / (count + n)
        mean += delta * n / (count + n)
        count += n
        sums.append(s)
    means = np.array([math.fsum(c) for c in zip(*sums)]) / count
    return means, np.sqrt(m2 / count / count)


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
