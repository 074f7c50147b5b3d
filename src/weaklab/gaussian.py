"""Gaussian laws and closed-form transition-density kernels.

The 1-D affine-Gaussian kernel carries exact mixed derivatives of any
order via probabilists' Hermite polynomials: for a density
p(t, x, y) = phi(y; A(t) x + c(t), V(t)) one has

    d^a/dx^a d^b/dy^b p = (-A)^a * (d/dy)^(a+b) p,
    (d/dy)^k p = (-1)^k He_k(u) V^(-k/2) p,   u = (y - mean) / sqrt(V).

This covers the exact laws of the constant-coefficient and
Ornstein-Uhlenbeck models and the exact Gaussian law of the Euler chain
for affine models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass
class GaussianLaw:
    """Mean vector and symmetric PSD covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        w = np.linalg.eigvalsh(self.cov)
        if w.min() < -1e-10 * max(1.0, w.max()):
            raise ValueError("covariance must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def var(self) -> float:
        if self.dim != 1:
            raise ValueError("var is defined for 1-D laws only")
        return max(float(self.cov[0, 0]), 0.0)

    @property
    def mean1(self) -> float:
        if self.dim != 1:
            raise ValueError("mean1 is defined for 1-D laws only")
        return float(self.mean[0])


def hermite_He(k: int, u: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k evaluated elementwise."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return hermite_e.hermeval(u, coeffs)


def normal_pdf(y, mean, var):
    s = np.sqrt(var)
    u = (np.asarray(y, dtype=float) - mean) / s
    return np.exp(-0.5 * u * u) / (s * _SQRT2PI)


def normal_pdf_dy(k: int, y, mean, var):
    """k-th derivative in y of the N(mean, var) density."""
    s = np.sqrt(var)
    u = (np.asarray(y, dtype=float) - mean) / s
    base = np.exp(-0.5 * u * u) / (s * _SQRT2PI)
    if k == 0:
        return base
    return ((-1.0) ** k) * hermite_He(k, u) * base / s**k


# 4th-order central finite-difference stencils, offsets and coefficients,
# for derivative orders 1..4 (coefficient / h^order)
_FD_STENCILS = {
    1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
    3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8]),
    4: ([-3, -2, -1, 0, 1, 2, 3],
        [-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6]),
}


def fd_derivative(fn, x, order: int, h: float):
    """Central finite-difference derivative, 4th-order accurate, vectorized."""
    if order == 0:
        return fn(x)
    offsets, coeffs = _FD_STENCILS[order]
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for o, c in zip(offsets, coeffs):
        acc = acc + c * fn(x + o * h)
    return acc / h**order


class AffineGaussianDensity:
    """1-D transition density p(t, x, y) = N(y; A(t) x + c(t), V(t)).

    A, c, V are callables of t.  All mixed spatial derivatives are exact.
    """

    def __init__(self, A, c, V):
        self._A, self._c, self._V = A, c, V

    def coefficients(self, t: float) -> tuple[float, float, float]:
        return float(self._A(t)), float(self._c(t)), float(self._V(t))

    def law(self, t: float, x: float) -> GaussianLaw:
        A, c, V = self.coefficients(t)
        return GaussianLaw(np.array([A * float(x) + c]), np.array([[V]]))

    def density(self, t: float, x, y):
        A, c, V = self.coefficients(t)
        return normal_pdf(y, A * np.asarray(x, dtype=float) + c, V)

    def deriv(self, alpha: int, beta: int, t: float, x, y):
        """d^alpha/dx^alpha d^beta/dy^beta of the density, exact."""
        A, c, V = self.coefficients(t)
        mean = A * np.asarray(x, dtype=float) + c
        return ((-A) ** alpha) * normal_pdf_dy(alpha + beta, y, mean, V)

    def gauss_coords(self, t: float, x: float):
        """(mean, std, push, dpush) so the law is push(N(mean, std^2))."""
        A, c, V = self.coefficients(t)
        return A * float(x) + c, math.sqrt(V), None, None

    def center_on_target(self, t: float, y: float):
        """(mean, std, push, dpush) in x for the kernel x |-> p(t, x, y)."""
        A, c, V = self.coefficients(t)
        return (float(y) - c) / A, math.sqrt(V) / abs(A), None, None


# signed Stirling numbers of the first kind s(n, k), n <= 6:
# d^n/dx^n = x^{-n} sum_k s(n, k) d^k/du^k with u = ln x
_STIRLING1 = [[1.0]]
for _n in range(1, 7):
    prev = _STIRLING1[-1]
    cur = [0.0] * (_n + 1)
    for _k in range(_n + 1):
        left = prev[_k - 1] if 1 <= _k <= _n else 0.0
        right = prev[_k] if _k < _n else 0.0
        cur[_k] = left - (_n - 1) * right
    _STIRLING1.append(cur)


class LognormalDensity:
    """1-D lognormal transition density of geometric Brownian motion.

    p(t, x, y) = phi((ln y - ln x - (mu - s^2/2) t) / (s sqrt(t))) / (y s sqrt(t))
    on x, y > 0.  Mixed spatial derivatives are exact, via the chain rule
    through log coordinates (Stirling numbers of the first kind) and
    Hermite derivatives of the Gaussian factor.
    """

    def __init__(self, mu: float, sigma: float):
        self.mu, self.sigma = mu, sigma

    def _drift(self, t: float) -> float:
        return (self.mu - 0.5 * self.sigma**2) * t

    def density(self, t: float, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = self.sigma * math.sqrt(t)
        u = (np.log(y) - np.log(x) - self._drift(t)) / s
        return np.exp(-0.5 * u * u) / (y * s * _SQRT2PI)

    def deriv(self, alpha: int, beta: int, t: float, x, y):
        if alpha > 6 or beta > 6:
            raise ValueError("lognormal derivatives implemented up to order 6")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        V = self.sigma**2 * t
        delta = np.log(y) - np.log(x) - self._drift(t)
        # p = e^{-w} G(w - u - m), u = ln x, w = ln y; G = N(0, V) pdf
        gmax = alpha + beta
        G = [normal_pdf_dy(m, delta, 0.0, V) for m in range(gmax + 1)]
        sa, sb = _STIRLING1[alpha], _STIRLING1[beta]
        acc = 0.0
        for k in range(0 if alpha == 0 else 1, alpha + 1):
            if sa[k] == 0.0 and alpha > 0:
                continue
            for l in range(0 if beta == 0 else 1, beta + 1):
                if sb[l] == 0.0 and beta > 0:
                    continue
                inner = 0.0
                for j in range(l + 1):
                    inner = inner + math.comb(l, j) * ((-1.0) ** (l - j)) * G[j + k]
                acc = acc + sa[k] * sb[l] * ((-1.0) ** k) * inner
        return acc / (x ** alpha * y ** (beta + 1))

    def law(self, t: float, x: float) -> GaussianLaw:
        # law of ln(X_t); the density itself is lognormal
        m = math.log(float(x)) + self._drift(t)
        return GaussianLaw(np.array([m]), np.array([[self.sigma**2 * t]]))

    def mean_value(self, t: float, x: float) -> float:
        return float(x) * math.exp(self.mu * t)

    def gauss_coords(self, t: float, x: float):
        m = math.log(float(x)) + self._drift(t)
        return m, self.sigma * math.sqrt(t), np.exp, np.exp

    def center_on_target(self, t: float, y: float):
        m = math.log(float(y)) - self._drift(t)
        return m, self.sigma * math.sqrt(t), np.exp, np.exp


@dataclass
class MultivariateGaussianDensity:
    """Exact Gaussian transition density for the d-dim constant model."""

    b0: np.ndarray
    a: np.ndarray  # sigma sigma^T

    def law(self, t: float, x) -> GaussianLaw:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return GaussianLaw(x + self.b0 * t, self.a * t)

    def density(self, t: float, x, y):
        law = self.law(t, x)
        y = np.atleast_2d(np.asarray(y, dtype=float))
        d = law.dim
        diff = y - law.mean
        prec = np.linalg.inv(law.cov)
        quad = np.einsum("ni,ij,nj->n", diff, prec, diff)
        norm = math.sqrt((2 * math.pi) ** d * np.linalg.det(law.cov))
        out = np.exp(-0.5 * quad) / norm
        return out if out.size > 1 else float(out[0])
