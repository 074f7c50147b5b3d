"""Gauss-Hermite and Gauss-Legendre quadrature helpers.

All routines return (value, err) where err is the node- or
panel-doubling disagreement, used downstream as the quadrature error
estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when node doubling fails to converge below tolerance."""


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
    """
    h, w = hermgauss_rule(m)
    return h, w * np.exp(h * h)


@lru_cache(maxsize=None)
def legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(m)


def node_doubling(value_at, rtol: float, atol: float, start: int,
                  max_nodes: int):
    """Evaluate value_at(m) for m = start, 2 start, ... until two successive
    values agree to max(atol, rtol |value|) or m reaches max_nodes.

    Returns (value, err), err being the last disagreement (inf when only
    one rule was evaluated).
    """
    m, val, err = start, value_at(start), math.inf
    while m < max_nodes:
        m, prev = 2 * m, val
        val = value_at(m)
        err = abs(val - prev)
        if err <= max(atol, rtol * abs(val)):
            break
    return val, err


def integrate_gaussian(fn, mean: float, std: float, push=None, dpush=None,
                       rtol: float = 1e-10, atol: float = 1e-14,
                       start: int = 32, max_nodes: int = 256):
    """Integrate fn over the real line by Gauss-Hermite node doubling.

    The integrand is assumed to decay like a Gaussian centered at
    ``mean`` with scale ``std``.  When ``push`` is given the integration
    variable is w ~ (mean, std) and the integral computed is
    integral of fn(push(w)) * dpush(w) dw, i.e. fn lives in pushed
    coordinates (lognormal laws integrate in log space).
    """
    def value_at(m):
        h, w = hermite_rule(m)
        pts = mean + math.sqrt(2.0) * std * h
        vals = fn(pts) if push is None else fn(push(pts)) * dpush(pts)
        return math.sqrt(2.0) * std * float(np.dot(w, vals))

    return node_doubling(value_at, rtol, atol, start, max_nodes)


def expect_gaussian(fn, mean: float, std: float, push=None,
                    rtol: float = 1e-10, atol: float = 1e-14,
                    start: int = 32, max_nodes: int = 256):
    """E[fn(push(W))], W ~ N(mean, std^2), by Gauss-Hermite node doubling."""
    def value_at(m):
        h, w = hermgauss_rule(m)
        pts = mean + math.sqrt(2.0) * std * h
        if push is not None:
            pts = push(pts)
        return float(np.dot(w, fn(pts))) / math.sqrt(math.pi)

    return node_doubling(value_at, rtol, atol, start, max_nodes)


def _composite_gl(fn, a: float, b: float, panels: int, order: int = 8) -> float:
    h, w = legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.dot(w, fn(mid + half * h)))
    return total


def adaptive_interval(fn, a: float, b: float, tol: float = 1e-9,
                      start_panels: int = 2, max_panels: int = 128):
    """Composite Gauss-Legendre with panel doubling; fn vectorized."""
    panels = start_panels
    prev = _composite_gl(fn, a, b, panels)
    while panels < max_panels:
        panels *= 2
        val = _composite_gl(fn, a, b, panels)
        err = abs(val - prev)
        if err <= max(tol, 1e-14 * abs(val)):
            return val, err
        prev = val
    return prev, math.inf


def split_time_integral(fn, t: float, tol: float = 1e-9, split: float = 0.5):
    """Integrate fn(s) over (0, t) with sqrt substitutions at both endpoints.

    The interval is split at ``split * t``; on the left half s = u^2 and
    on the right half s = t - u^2, which removes the sqrt(s)-type
    behaviour of transition-density integrands near s = 0 and s = t.
    fn must accept a 1-D array of s values.
    """
    ts = split * t
    u_left = math.sqrt(ts)
    u_right = math.sqrt(t - ts)

    def left(u):
        return fn(u * u) * 2.0 * u

    def right(u):
        return fn(t - u * u) * 2.0 * u

    v1, e1 = adaptive_interval(left, 0.0, u_left, tol=0.5 * tol)
    v2, e2 = adaptive_interval(right, 0.0, u_right, tol=0.5 * tol)
    return v1 + v2, e1 + e2
