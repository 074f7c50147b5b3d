"""Gaussian laws and closed-form transition-density kernels.

The 1-D affine-Gaussian kernel carries exact mixed derivatives of any
order via probabilists' Hermite polynomials: for a density
p(t, x, y) = phi(y; A(t) x + c(t), V(t)) one has

    d^a/dx^a d^b/dy^b p = (-A)^a * (d/dy)^(a+b) p,
    (d/dy)^k p = (-1)^k He_k(u) V^(-k/2) p,   u = (y - mean) / sqrt(V).

This covers the exact laws of the constant-coefficient and
Ornstein-Uhlenbeck models and the exact Gaussian law of the Euler chain
for affine models.

Both 1-D densities read every per-time float from one place.
time_table(t, kmax) holds every per-time float a derivative of total
order at most kmax needs, and the law's coordinates, computed once per
time entry; derivs(orders, table, x, y) returns any number of
(alpha, beta) orders from one table, one u and one exponential, and
gauss_coords(table, x) and center_on_target(table, y) read the law's
Gauss-Hermite coordinates from one.  deriv is derivs' one-order case at
a time t; time_table, deriv and density are written once, for both.  A
caller that asks for many orders, or for the same times in many blocks,
builds the table once and passes it, or its row slice table[:, r]; and
time_table builds the table of each time, scalar or array, once, in a
bounded memo, and serves it to every later request of no higher order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyfromroots

_SQRT2PI = math.sqrt(2.0 * math.pi)


def hermite_He(k: int, u: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k evaluated elementwise, equal
    to numpy's hermite_e.hermeval(u, e_k) bit for bit: its Clenshaw
    recurrence on the unit coefficient vector e_k, op for op, with the
    zero and unit coefficients written in."""
    if k == 0:
        return 1.0 + 0 * u
    c0, c1 = 0.0, 1.0
    for nd in range(k, 1, -1):
        c0, c1 = 0.0 - c1 * (nd - 1), c0 + c1 * u
    return c0 + c1 * u


def normal_pdf(y, mean, var):
    """The N(mean, var) density, normal_pdf_dy at order 0."""
    return normal_pdf_dy(0, y, mean, var)


def normal_pdf_dy(k: int, y, mean, var):
    """k-th derivative in y of the N(mean, var) density."""
    s = np.sqrt(var)
    return _pdf_dys((k,), y, mean, s, {k: s**k})[k]


def _pdf_dys(ks, y, mean, s, sk):
    """{k: normal_pdf_dy at order k} for every k in ks, from one u and one
    exponential, given s = sqrt(var) and sk[k] = s^k."""
    u = (np.asarray(y, dtype=float) - mean) / s
    base = np.exp(-0.5 * u * u) / (s * _SQRT2PI)
    return {k: base if k == 0 else
            ((-1.0) ** k) * hermite_He(k, u) * base / sk[k] for k in ks}


def _per_time(fn, t, *args):
    """At an array t, the array of shape (k,) + t.shape whose entry [:, i]
    is the k floats fn(t[i], *args), bit for bit: fn runs on floats, once
    per entry, and never on an array, whose exp and power may round
    otherwise."""
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        return np.empty((len(fn(1.0, *args)),) + t.shape)
    table = np.array([fn(v, *args) for v in t.ravel().tolist()], float).T
    return np.ascontiguousarray(table).reshape((-1,) + t.shape)


class _Density1d:
    """What both 1-D densities share, written once over a subclass's
    _scalars(t, kmax), the per-time floats at a float t of every
    derivative of total order at most kmax, and its derivs."""
    MEMO_TABLES = 128  # a 30 s quad-kernel run reaches 100 (OU), 52 (GBM)

    def time_table(self, t, kmax: int):
        """_per_time(self._scalars, t, k), read-only, for some k >= kmax:
        the tallest table built at t, from a memo of MEMO_TABLES times
        (a scalar t is one of shape ()), least recently used out first,
        keyed on t's shape and float64 bytes.  The memo takes no lock: a
        density serves one thread at a time."""
        memo = vars(self).setdefault("_tables", {})
        key = (np.shape(t), np.asarray(t, dtype=float).tobytes())
        built, table = memo.pop(key, (-1, None))
        if built < kmax:
            built, table = kmax, _per_time(self._scalars, t, kmax)
            table.flags.writeable = False
        memo[key] = built, table
        if len(memo) > self.MEMO_TABLES:
            del memo[next(iter(memo))]
        return table

    def density(self, t, x, y):
        return self.deriv(0, 0, t, x, y)

    def deriv(self, alpha: int, beta: int, t, x, y):
        """d^alpha/dx^alpha d^beta/dy^beta of the density, exact; at order
        0, the density itself.  The one-order case of derivs."""
        return self.derivs(((alpha, beta),),
                           self.time_table(t, alpha + beta), x, y)[0]


class AffineGaussianDensity(_Density1d):
    """1-D transition density p(t, x, y) = N(y; A(t) x + c(t), V(t)).

    law is one callable t -> (A, c, V).  All mixed spatial derivatives are
    exact.  time_table, density and deriv take a scalar t or an array t
    that broadcasts against x and y, one time per entry, and the other
    methods a table of either; an entry's result equals the scalar-t
    call's bit for bit.
    """

    def __init__(self, law):
        self._law = law

    def _scalars(self, t: float, kmax: int):
        """(A, c, V, sqrt(V), then (-A)^j and sqrt(V)^j in turn for
        j = 0..kmax)."""
        A, c, V = self._law(t)
        A, c, V = float(A), float(c), float(V)
        s = math.sqrt(V)
        out = [A, c, V, s]
        for j in range(kmax + 1):
            out += ((-A) ** j, s ** j)
        return tuple(out)

    def derivs(self, orders, table, x, y):
        """[deriv(alpha, beta, t, x, y) for (alpha, beta) in orders], bit
        for bit, read from table = time_table(t, kmax) or a slice of it,
        kmax at least every alpha + beta."""
        A, c, V, s = table[:4]
        mean = A * np.asarray(x, dtype=float) + c
        G = _pdf_dys({a + b for a, b in orders}, y, mean, s, table[5::2])
        return [table[4 + 2 * a] * G[a + b] for a, b in orders]

    def gauss_coords(self, table, x):
        """(mean, std, push, dpush) so the law at time t is
        push(N(mean, std^2)), read from table = time_table(t, kmax) or a
        slice of it; an array x gives one mean per entry."""
        A, c, _, s = table[:4]
        return A * np.asarray(x, dtype=float) + c, s, None, None

    def center_on_target(self, table, y):
        """(mean, std, push, dpush) in x for the kernel x |-> p(t, x, y),
        read from a time table as gauss_coords; an array y gives one mean
        per entry."""
        A, c, _, s = table[:4]
        return (np.asarray(y, dtype=float) - c) / A, s / np.abs(A), \
            None, None


# signed Stirling numbers of the first kind s(n, k), n <= 6, the
# coefficients of the falling factorial x (x - 1) ... (x - n + 1):
# d^n/dx^n = x^{-n} sum_k s(n, k) d^k/du^k with u = ln x
_STIRLING1 = [polyfromroots(range(n)) for n in range(7)]


class LognormalDensity(_Density1d):
    """1-D lognormal transition density of geometric Brownian motion.

    p(t, x, y) = phi((ln y - ln x - (mu - s^2/2) t) / (s sqrt(t))) / (y s sqrt(t))
    on x, y > 0.  Mixed spatial derivatives are exact, via the chain rule
    through log coordinates (Stirling numbers of the first kind) and
    Hermite derivatives of the Gaussian factor.  Its methods take a time
    or a time table, as AffineGaussianDensity's do; mu, sigma are read-only.
    """
    mu = property(lambda self: self._mu)
    sigma = property(lambda self: self._sigma)

    def __init__(self, mu: float, sigma: float):
        self._mu, self._sigma = mu, sigma

    def _scalars(self, t: float, kmax: int):
        """(drift, sigma sqrt(t), s, s^0, ..., s^kmax) with
        s = sqrt(sigma^2 t)."""
        s = math.sqrt(self.sigma**2 * t)
        return tuple([(self.mu - 0.5 * self.sigma**2) * t,
                      self.sigma * math.sqrt(t), s]
                     + [s**k for k in range(kmax + 1)])

    def derivs(self, orders, table, x, y):
        """[deriv(alpha, beta, t, x, y) for (alpha, beta) in orders], bit
        for bit, read from table = time_table(t, kmax) or a slice of it,
        kmax at least every alpha + beta.  Order (0, 0) is the density
        itself, scaled by sigma sqrt(t); the others differentiate the
        N(0, s^2) factor."""
        if any(a > 6 or b > 6 for a, b in orders):
            raise ValueError("lognormal derivatives implemented up to order 6")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        drift, sd, s = table[:3]
        delta = np.log(y) - np.log(x) - drift
        gmax = max(a + b for a, b in orders)
        # p = e^{-w} G(w - u - m), u = ln x, w = ln y; G = N(0, s^2) pdf
        G = _pdf_dys(range(gmax + 1), delta, 0.0, s, table[3:]) \
            if gmax else None
        out = []
        for alpha, beta in orders:
            if alpha == beta == 0:
                u = delta / sd
                out.append(np.exp(-0.5 * u * u) / (y * sd * _SQRT2PI))
                continue
            sa, sb = _STIRLING1[alpha], _STIRLING1[beta]
            acc = 0.0
            for k in range(0 if alpha == 0 else 1, alpha + 1):
                for l in range(0 if beta == 0 else 1, beta + 1):
                    inner = 0.0
                    for j in range(l + 1):
                        inner = inner + math.comb(l, j) \
                            * ((-1.0) ** (l - j)) * G[j + k]
                    acc = acc + sa[k] * sb[l] * ((-1.0) ** k) * inner
            out.append(acc / (x ** alpha * y ** (beta + 1)))
        return out

    def gauss_coords(self, table, x):
        drift, sd = table[:2]
        return np.log(np.asarray(x, dtype=float)) + drift, sd, np.exp, np.exp

    def center_on_target(self, table, y):
        drift, sd = table[:2]
        return np.log(np.asarray(y, dtype=float)) - drift, sd, np.exp, np.exp


@dataclass
class MultivariateGaussianDensity:
    """Exact Gaussian transition law of the d-dim constant model."""

    b0: np.ndarray
    a: np.ndarray  # sigma sigma^T

    def law(self, t: float, x) -> tuple[np.ndarray, np.ndarray]:
        """(mean, cov) of X_t from x: (x + b0 t, a t)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x + self.b0 * t, self.a * t
