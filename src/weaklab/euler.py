"""Euler scheme simulation: single-resolution paths, coupled ladders sharing
one Brownian motion, exact Gaussian laws for affine models, and moment
estimation.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import AffineGaussianDensity, GaussianLaw
from .models import SdeModel
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
    if n < 1:
        raise ValueError("n >= 1 required")
    return _simulate(model, x, [n], t, rng, size)[n]


def simulate_ladder(model: SdeModel, x, ns, t: float, rng: RngStream,
                    size: int) -> dict[int, np.ndarray]:
    """Endpoints at every resolution in `ns`, driven by one Brownian motion.

    Every n must divide max(ns); coarse increments are the exact sums of
    the fine increments they span.

    `x` is one start point, shape (d,), or k start points, shape (k, d).
    Path i from every start uses the same Brownian increments, so each
    result has shape (k size, d) with the rows of start j in the block
    [j size, (j + 1) size); that block is bit-identical to a run from
    start j alone on the same stream.
    """
    ns = sorted(set(int(n) for n in ns))
    for n in ns:
        if ns[-1] % n:
            raise ValueError(f"resolution {n} does not divide finest {ns[-1]}")
    return _simulate(model, x, ns, t, rng, size)


def _simulate(model: SdeModel, x, ns: list, t: float, rng: RngStream,
              size: int) -> dict[int, np.ndarray]:
    """The Euler loop behind simulate_euler and simulate_ladder.

    `ns` is sorted and every entry divides the last.  Normals are drawn
    once per fine step for `size` paths and repeated for each start.  The
    finest level steps on the raw increment; each coarser level sums the
    increments it spans in a buffer that is reset in place after its step.
    """
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

    def step(n, dt, dB):
        if k > 1:
            dB = np.tile(dB, (k, 1))
        states[n] = states[n] + model.drift(states[n]) * dt + np.einsum(
            "nij,nj->ni", model.diffusion(states[n]), dB)
        _check_finite(states[n], done[n])
        done[n] += 1

    for j in range(1, kf + 1):
        dB = math.sqrt(1.0 / n_fine) * normals_from(gen, (size, r))
        for n in coarse:
            buffers[n] += dB
            if j % (n_fine // n) == 0:
                step(n, 1.0 / n, buffers[n])
                buffers[n].fill(0.0)
        step(n_fine, 1.0 / n_fine, dB)
    if dtp > 1e-14:
        dB = math.sqrt(dtp) * normals_from(gen, (size, r))
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
    """(A, c, V) with law of X_t^{n,x} = N(A x + c, V) for affine models."""
    if model.affine is None:
        raise ValueError(f"model {model.name!r} is not affine with constant diffusion")
    M, cvec, S = model.affine
    d = model.dim_d
    a = S @ S.T
    A = np.eye(d)
    cacc = np.zeros(d)
    V = np.zeros((d, d))
    k, dt_last = _steps(n, t)
    for dt in [1.0 / n] * k + ([dt_last] if dt_last > 1e-14 else []):
        G = np.eye(d) + M * dt
        A = G @ A
        cacc = G @ cacc + cvec * dt
        V = G @ V @ G.T + a * dt
    return A, cacc, V


def euler_exact_law_affine(model: SdeModel, x, n: int, t: float) -> GaussianLaw:
    A, c, V = euler_affine_transport(model, n, t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return GaussianLaw(A @ x + c, V)


def gbm_euler_mean(mu: float, x: float, n: int, t: float) -> float:
    """Exact E[X_t^{n,x}] for geometric Brownian motion: the mean gains a
    factor (1 + mu dt) per Euler step."""
    k, dt_last = _steps(n, t)
    m = float(x) * (1.0 + mu / n) ** k
    if dt_last > 1e-14:
        m *= 1.0 + mu * dt_last
    return m


def euler_density_1d(model: SdeModel, n: int) -> AffineGaussianDensity:
    """Exact transition density of the 1-D Euler chain of an affine model."""
    if model.affine is None or model.dim_d != 1:
        raise ValueError("exact Euler density requires a 1-D affine model")

    @lru_cache(maxsize=None)
    def coef(t: float) -> tuple[float, float, float]:
        A, c, V = euler_affine_transport(model, n, t)
        return float(A[0, 0]), float(c[0]), float(V[0, 0])

    return AffineGaussianDensity(lambda t: coef(t)[0], lambda t: coef(t)[1],
                                 lambda t: coef(t)[2])


@dataclass
class MeanAccumulator:
    """Deterministic streaming mean/variance over ordered chunks."""

    total: int = 0
    parts_sum: list = None
    parts_sq: list = None

    def __post_init__(self):
        self.parts_sum, self.parts_sq = [], []

    def add(self, values: np.ndarray):
        self.total += values.size
        self.parts_sum.append(float(np.sum(values)))
        self.parts_sq.append(float(np.sum(values * values)))

    def result(self) -> tuple[float, float]:
        s = math.fsum(self.parts_sum)
        sq = math.fsum(self.parts_sq)
        mean = s / self.total
        var = max(sq / self.total - mean * mean, 0.0)
        se = math.sqrt(var / self.total)
        return mean, se


def worker_count() -> int:
    """WEAKLAB_WORKERS if set, else the number of CPUs this process may use."""
    env = os.environ.get("WEAKLAB_WORKERS")
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reduce(chunk_fn, N: int, rng: RngStream, absorb) -> None:
    """Feed each chunk_fn(stream, size) result, N samples in all, to absorb
    in substream order.  Chunk boundaries are fixed by CHUNK, so what is
    absorbed is independent of the worker count.  At most one thread per
    chunk runs; a single chunk runs on the calling thread."""
    sizes = [CHUNK] * (N // CHUNK) + ([N % CHUNK] if N % CHUNK else [])
    streams = [rng.substream(i) for i in range(len(sizes))]
    workers = min(worker_count(), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for vals in pool.map(chunk_fn, streams, sizes):
                absorb(vals)
    else:
        for vals in map(chunk_fn, streams, sizes):
            absorb(vals)


def mc_reduce(chunk_fn, N: int, rng: RngStream) -> tuple[float, float]:
    """Mean and standard error of chunk_fn(stream, size) over N samples.

    Chunk boundaries are fixed by CHUNK, and partial results are merged in
    substream order, so the value is independent of the worker count.
    """
    acc = MeanAccumulator()
    _reduce(chunk_fn, N, rng, acc.add)
    return acc.result()


def mc_reduce_multi(chunk_fn, N: int, rng: RngStream, k: int):
    """Columnwise mean/standard error of chunk_fn(stream, size) -> (size, k).

    Same chunking and merge order as mc_reduce, so each column is
    bit-identical to a standalone run on the same stream.
    """
    accs = [MeanAccumulator() for _ in range(k)]

    def absorb(vals):
        for j, acc in enumerate(accs):
            acc.add(vals[:, j])

    _reduce(chunk_fn, N, rng, absorb)
    out = [a.result() for a in accs]
    return np.array([m for m, _ in out]), np.array([s for _, s in out])


def empirical_moment(model: SdeModel, x, n: int, t: float, q: int, N: int,
                     rng: RngStream):
    """Monte-Carlo estimate of E ||X_t^{n,x}||^q with standard error."""
    if q % 2 or q > 8:
        raise ValueError("q must be an even integer <= 8")

    def chunk(stream, size):
        pts = simulate_euler(model, x, n, t, stream, size)
        return np.linalg.norm(pts, axis=1) ** q

    return mc_reduce(chunk, N, rng)
