"""Tagged test functionals: smooth/bounded/exponential functions and Dirac-type
distributions, with their growth certificates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SMOOTH_POLY = "smooth_poly"
BOUNDED = "bounded"
EXP_GROWTH = "exp_growth"
DIRAC = "dirac"
DIRAC_DERIV = "dirac_deriv"

_FUNCTION_KINDS = (SMOOTH_POLY, BOUNDED, EXP_GROWTH)


class UnsupportedFunctional(ValueError):
    """Raised when an operation cannot consume the given functional kind."""


@dataclass(frozen=True)
class TestFunction:
    kind: str
    fn: Optional[Callable] = None
    # polynomial growth certificate |f| <= c (1 + |y|^q)
    growth_c: float = 0.0
    growth_q: int = 0
    # exponential growth certificate |f| <= c1 exp(c2 |y|^mu)
    mu: float = 0.0
    exp_c1: float = 0.0
    exp_c2: float = 0.0
    # Dirac location / derivative multiindex (1-D order)
    y: float = 0.0
    beta: int = 0
    name: str = ""

    @property
    def pointwise(self) -> bool:
        return self.kind in _FUNCTION_KINDS

    def __call__(self, values):
        if not self.pointwise:
            raise UnsupportedFunctional(
                f"{self.kind} functionals cannot be evaluated pointwise")
        return self.fn(np.asarray(values, dtype=float))

    def check_growth(self, probes: np.ndarray) -> bool:
        """Verify the declared growth certificate on probe points, up to a
        relative rounding slack of 1e-9."""
        vals = np.abs(self(probes))
        r = np.abs(probes)
        if self.kind == SMOOTH_POLY:
            bound = self.growth_c * (1.0 + r ** self.growth_q)
        elif self.kind == EXP_GROWTH:
            bound = self.exp_c1 * np.exp(self.exp_c2 * r ** self.mu)
        elif self.kind == BOUNDED:
            bound = np.full_like(r, self.growth_c)
        else:
            return True
        return bool(np.all(vals <= bound * (1.0 + 1e-9)))


def smooth_poly(fn, c: float, q: int, name: str = "") -> TestFunction:
    return TestFunction(SMOOTH_POLY, fn=fn, growth_c=c, growth_q=q, name=name)


def bounded(fn, bound: float, name: str = "") -> TestFunction:
    return TestFunction(BOUNDED, fn=fn, growth_c=bound, name=name)


def exp_growth(fn, mu: float, c1: float, c2: float, name: str = "") -> TestFunction:
    if not 0.0 < mu < 2.0:
        raise ValueError("exponential-growth class requires mu in (0, 2)")
    return TestFunction(EXP_GROWTH, fn=fn, mu=mu, exp_c1=c1, exp_c2=c2, name=name)


def dirac(y: float) -> TestFunction:
    return TestFunction(DIRAC, y=float(y), name=f"dirac({y})")


def dirac_deriv(y: float, beta: int) -> TestFunction:
    if not 0 <= beta <= 2:
        raise ValueError("Dirac derivative order limited to |beta| <= 2")
    return TestFunction(DIRAC_DERIV, y=float(y), beta=int(beta),
                        name=f"dirac_deriv({y},{beta})")


def identity() -> TestFunction:
    return smooth_poly(lambda v: np.asarray(v, dtype=float).reshape(v.shape[0], -1)[:, 0]
                       if np.ndim(v) > 1 else np.asarray(v, dtype=float),
                       c=1.0, q=1, name="identity")


def square() -> TestFunction:
    def fn(v):
        v = np.asarray(v, dtype=float)
        if v.ndim > 1:
            v = v[:, 0]
        return v * v
    return smooth_poly(fn, c=1.0, q=2, name="square")
