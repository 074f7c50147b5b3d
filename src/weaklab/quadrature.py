"""Gauss-Hermite and Gauss-Legendre quadrature helpers.

All routines return (value, err) where err is the node- or
panel-doubling disagreement, used downstream as the quadrature error
estimate.  The array forms (gauss_hermite_rows, adaptive_rows,
split_time_rows) integrate many rows in one broadcast block, each row
stopping on its own, and return arrays; the public scalar routines are
their one-row case and return floats.  Each row's weighted sum is its own
dot product (np.vecdot, not a matrix-vector product whose rounding
depends on the block), so a row's value does not depend on which rows
share its block.  No doubling stops after one rule, so its first two
rules share one integrand call, cut into a view per rule by one np.split
on the node axis.  gauss_hermite_rows takes many integrands per row;
expect_gaussian and expect_gaussian_nd share one raw-weight body.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np


@lru_cache(maxsize=None)
def hermgauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite nodes h_i and weights w_i for the weight
    e^{-h^2}, as numpy's hermgauss returns them; read-only, as every
    caller shares them."""
    h, w = np.polynomial.hermite.hermgauss(m)
    h.flags.writeable = w.flags.writeable = False
    return h, w


@lru_cache(maxsize=None)
def hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite nodes h_i and total weights w_i * e^{h_i^2}.

    With these, integral of fn over R is sum_i W_i * fn(mean + sqrt(2) * std * h_i)
    * sqrt(2) * std for integrands with Gaussian decay at (mean, std).
    Read-only, as every caller shares them.
    """
    h, w = hermgauss_rule(m)
    total = w * np.exp(h * h)
    total.flags.writeable = False
    return h, total


@lru_cache(maxsize=None)
def legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1), as numpy's leggauss
    returns them; read-only, as every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# rounding floor of the stop test: two rules whose values differ by less
# than this many ulps of sum_i |W_i f_i| agree as far as doubles can tell
_ROUNDING_ULPS = 16.0 * np.finfo(float).eps


def node_doubling(value_at, rtol: float, atol: float, start: int,
                  max_nodes: int, size: int = 1):
    """Evaluate the rules of m = start, 2 start, ... nodes until two
    successive values of each element agree to max(atol, rtol |value|) or
    to the rounding floor, or m reaches max_nodes.

    ``size`` elements are integrated at once and each stops on its own:
    value_at(ms, rows) evaluates the rule of every size in ms on the
    running elements, the index array rows, in one integrand call, and
    returns one (values, magnitudes sum_i |W_i f_i|) per size (scalars
    will do when size is 1); it is asked for (start, 2 start) first, or
    (start,) when start >= max_nodes, then for one size a call.  Returns
    arrays (value, err, converged), err being each element's last
    disagreement (inf when only one rule was evaluated); empty ones when
    size is 0, without a call to value_at.
    """
    rows = np.arange(size)
    val = np.empty(size)
    err = np.full(size, math.inf)
    converged = np.zeros(size, dtype=bool)
    if not size:
        return val, err, converged
    m = start
    sums = list(value_at((m, 2 * m) if m < max_nodes else (m,), rows))
    val[:] = sums.pop(0)[0]
    while m < max_nodes and rows.size:
        m *= 2
        new, mag = sums.pop() if sums else value_at((m,), rows)[0]
        diff = np.abs(new - val[rows])
        val[rows], err[rows] = new, diff
        done = diff <= np.maximum(np.maximum(atol, rtol * np.abs(new)),
                                  _ROUNDING_ULPS * mag)
        converged[rows[done]] = True
        rows = rows[~done]
    return val, err, converged


def _columns(vals, sizes, axis=-1):
    """vals cut along axis into views of the given sizes."""
    return np.split(vals, list(accumulate(sizes))[:-1], axis=axis)


# rows x nodes that gauss_hermite_rows hands fn at once: at M nodes (all
# rules of a call) the running rows go to fn in slices of BLOCK_ELEMENTS
# // M, which moves no bit, as every row's sum is its own.  It bounds the
# largest arrays a block builds; smaller slices cost more calls per block.
BLOCK_ELEMENTS = 6 * 1024


def gauss_hermite_rows(fn, mean, std, push=None, dpush=None,
                       rtol: float = 1e-10, atol: float = 1e-14,
                       start: int = 32, max_nodes: int = 256, shape=()):
    """Array form of integrate_gaussian: one integral per entry of ``mean``.

    Row k integrates fn over the real line with a Gauss-Hermite rule
    centred at mean[k] with scale std, one scale for every row or std[k].
    fn(pts, rows) gets the nodes of the running rows ``rows`` as an (R, M)
    array (M the nodes of one or two rules), in pushed coordinates when
    push is given, and returns shape + (R, M) values, one integrand per
    index of ``shape``; each (integrand, row) stops on its own, at its
    value when run alone, bit for bit.  Returns (value, err) arrays of
    shape shape + (K,).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    scale = np.broadcast_to(math.sqrt(2.0) * np.asarray(std, dtype=float),
                            mean.shape)
    k = mean.size

    def block(h, ws, rows):
        sc = scale[rows]
        pts = mean[rows, None] + sc[:, None] * h
        vals = fn(pts, rows) if push is None else \
            fn(push(pts), rows) * dpush(pts)
        vals = _columns(vals.reshape((-1,) + pts.shape), [w.size for w in ws])
        return [(sc * np.vecdot(v, w), sc * np.vecdot(np.abs(v), w))
                for v, w in zip(vals, ws)]

    def value_at(ms, elems):
        # element g k + i: integrand g of row i, entry (g, i) of (G, K)
        hs, ws = zip(*map(hermite_rule, ms))
        h = np.concatenate(hs)
        rows = np.flatnonzero(np.bincount(elems % k, minlength=k))
        step = max(1, BLOCK_ELEMENTS // h.size)
        out = np.empty((len(ms), 2, math.prod(shape), k))
        out[..., rows] = np.concatenate(
            [block(h, ws, rows[i:i + step])
             for i in range(0, rows.size, step)], axis=-1)
        return out.reshape(len(ms), 2, -1)[:, :, elems]

    val, err, _ = node_doubling(value_at, rtol, atol, start, max_nodes,
                                math.prod(shape) * k)
    return val.reshape(shape + (k,)), err.reshape(shape + (k,))


def integrate_gaussian(fn, mean: float, std: float, push=None, dpush=None,
                       rtol: float = 1e-10, atol: float = 1e-14,
                       start: int = 32, max_nodes: int = 256):
    """Integrate fn over the real line by Gauss-Hermite node doubling.

    The integrand is assumed to decay like a Gaussian centered at
    ``mean`` with scale ``std``.  When ``push`` is given the integration
    variable is w ~ (mean, std) and the integral computed is
    integral of fn(push(w)) * dpush(w) dw, i.e. fn lives in pushed
    coordinates (lognormal laws integrate in log space).  The one-row
    case of gauss_hermite_rows.
    """
    val, err = gauss_hermite_rows(lambda pts, rows: fn(pts[0]), [mean], std,
                                  push=push, dpush=dpush, rtol=rtol,
                                  atol=atol, start=start,
                                  max_nodes=max_nodes)
    return float(val[0]), float(err[0])


def _expect_raw(fn, rule, norm: float, rtol: float, atol: float,
                start: int, max_nodes: int):
    """(value, err) of sum_i w_i fn(p_i) / norm by node doubling; rule(m)
    gives the points p_i (first axis) and raw weights w_i of m nodes."""
    def value_at(ms, rows):
        pts, ws = zip(*map(rule, ms))
        vals = _columns(fn(np.concatenate(pts)), [w.size for w in ws], 0)
        return [(float(np.dot(w, v)) / norm,
                 float(np.dot(w, np.abs(v))) / norm) for v, w in zip(vals, ws)]

    val, err, _ = node_doubling(value_at, rtol, atol, start, max_nodes)
    return float(val[0]), float(err[0])


def expect_gaussian(fn, mean: float, std: float, push=None,
                    rtol: float = 1e-10, atol: float = 1e-14,
                    start: int = 32, max_nodes: int = 256):
    """E[fn(push(W))], W ~ N(mean, std^2), by Gauss-Hermite node doubling.

    Not a case of gauss_hermite_rows, on purpose: this sums w_i fn / sqrt(pi)
    with the raw weights, that sums w_i e^{h_i^2} (fn pdf) with the total
    ones, and the two round differently.  Folding one into the other moves
    the last bits of most expectations (56 of 72 OU and GBM ones in a
    probe), hence every semigroup_apply truth and the CLI's truth and bias
    columns.
    """
    def rule(m):
        h, w = hermgauss_rule(m)
        return mean + math.sqrt(2.0) * std * h, w

    return _expect_raw(fn if push is None else lambda p: fn(push(p)), rule,
                       math.sqrt(math.pi), rtol, atol, start, max_nodes)


def expect_gaussian_nd(fn, mean, cov):
    """E fn(Y), Y ~ N(mean, cov) in d <= 3 dimensions, fn taking (M, d)
    points: tensor Gauss-Hermite rules of 16 to 128 nodes a dimension, rtol
    1e-10, atol 1e-14.  A cov that is not positive definite, or d > 3,
    raises ValueError (numpy's LinAlgError is one)."""
    d = mean.shape[0]
    if d > 3:
        raise ValueError("density-level quadrature is capped at d <= 3")
    L = np.linalg.cholesky(cov + 1e-14 * np.eye(d))

    def rule(m):
        h, w = hermgauss_rule(m)
        grids = np.meshgrid(*([h] * d), indexing="ij")
        zeta = math.sqrt(2.0) * np.stack([g.ravel() for g in grids], axis=1)
        wt = np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0)
        return mean + zeta @ L.T, wt.ravel()

    return _expect_raw(fn, rule, math.pi ** (d / 2), 1e-10, 1e-14, 16, 128)


@lru_cache(maxsize=256)
def _gl_nodes(a: float, b: float, ms: tuple, order: int):
    """The nodes of the composite Gauss-Legendre rules over (a, b) with
    each panel count in ms, in one array, and each rule's half-widths."""
    edges = [np.linspace(a, b, panels + 1) for panels in ms]
    halves = [0.5 * np.diff(e) for e in edges]
    nodes = np.concatenate([(0.5 * (e[:-1] + e[1:])[:, None]
                             + half[:, None] * legendre_rule(order)[0]).ravel()
                            for e, half in zip(edges, halves)])
    for v in (nodes, *halves):
        v.flags.writeable = False
    return nodes, halves


def _composite_gl(fn, a: float, b: float, ms, order: int = 8):
    """Composite Gauss-Legendre sums of fn over (a, b) with every panel
    count in ms, all their nodes (read-only, built once by _gl_nodes) in
    one fn call; fn returns values with the nodes on the last axis.
    Returns one (value, magnitude) over the leading axes per panel count."""
    nodes, halves = _gl_nodes(a, b, tuple(ms), order)
    vals = fn(nodes)
    vals = vals.reshape(vals.shape[:-1] + (-1, order))
    w = legendre_rule(order)[1]
    return [(np.vecdot(np.vecdot(v, w), half),
             np.vecdot(np.vecdot(np.abs(v), w), half))
            for v, half in zip(_columns(vals, ms, axis=-2), halves)]


def adaptive_rows(fn, a: float, b: float, tol: float = 1e-9,
                  start_panels: int = 2, max_panels: int = 128,
                  size: int = 1):
    """Array form of adaptive_interval: ``size`` integrals over (a, b).

    fn(s, rows) gets the nodes s of every panel as one 1-D array and
    returns the (R, len(s)) integrand values of the running rows.  Each
    row stops on its own; a row that runs out of panels gets err = inf.
    """
    val, err, ok = node_doubling(
        lambda ms, rows: _composite_gl(lambda s: fn(s, rows), a, b, ms),
        1e-14, tol, start_panels, max_panels, size)
    return val, np.where(ok, err, math.inf)


def adaptive_interval(fn, a: float, b: float, tol: float = 1e-9,
                      start_panels: int = 2, max_panels: int = 128):
    """Composite Gauss-Legendre with panel doubling; fn vectorized.  The
    one-row case of adaptive_rows."""
    val, err = adaptive_rows(lambda s, rows: fn(s)[None], a, b, tol,
                             start_panels, max_panels)
    return float(val[0]), float(err[0])


def split_time_rows(fn, t: float, tol: float = 1e-9, split: float = 0.5,
                    size: int = 1):
    """Array form of split_time_integral: fn(s, rows) returns the
    (R, len(s)) integrand values of the running rows; returns (value, err)
    arrays of shape (size,)."""
    ts = split * t
    u_left = math.sqrt(ts)
    u_right = math.sqrt(t - ts)

    def left(u, rows):
        return fn(u * u, rows) * 2.0 * u

    def right(u, rows):
        return fn(t - u * u, rows) * 2.0 * u

    v1, e1 = adaptive_rows(left, 0.0, u_left, tol=0.5 * tol, size=size)
    v2, e2 = adaptive_rows(right, 0.0, u_right, tol=0.5 * tol, size=size)
    return v1 + v2, e1 + e2


def split_time_integral(fn, t: float, tol: float = 1e-9, split: float = 0.5):
    """Integrate fn(s) over (0, t) with sqrt substitutions at both endpoints.

    The interval is split at ``split * t``; on the left half s = u^2 and
    on the right half s = t - u^2, which removes the sqrt(s)-type
    behaviour of transition-density integrands near s = 0 and s = t.
    fn must accept a 1-D array of s values.  The one-row case of
    split_time_rows.
    """
    val, err = split_time_rows(lambda s, rows: fn(s)[None], t, tol, split)
    return float(val[0]), float(err[0])
