"""Test functionals: a function evaluated pointwise, or the Dirac-type
distribution d^beta delta_y."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class UnsupportedFunctional(ValueError):
    """Raised when an operation cannot consume the given functional."""


@dataclass(frozen=True)
class TestFunction:
    """A function fn, or with fn None the distribution d^beta delta_y
    (1-D order beta)."""

    fn: Optional[Callable] = None
    y: float = 0.0
    beta: int = 0
    name: str = ""

    @property
    def pointwise(self) -> bool:
        return self.fn is not None

    def __call__(self, values):
        if not self.pointwise:
            raise UnsupportedFunctional(
                f"{self.name} is a distribution: it pairs with a density, "
                "not with paths; use the error-expansion operations")
        return self.fn(np.asarray(values, dtype=float))


def dirac(y: float, beta: int = 0) -> TestFunction:
    """d^beta delta_y, beta = 0 for delta_y."""
    if beta not in (0, 1, 2):
        raise ValueError("Dirac derivative order must be 0, 1 or 2")
    return TestFunction(y=float(y), beta=int(beta), name=f"dirac({y},{beta})")


def first_coordinate(v) -> np.ndarray:
    """v[:, 0] for (N, d) paths; v itself when v is 1-D."""
    v = np.asarray(v, dtype=float)
    return v[:, 0] if v.ndim > 1 else v


def identity() -> TestFunction:
    return TestFunction(first_coordinate, name="identity")


def square() -> TestFunction:
    def fn(v):
        v = first_coordinate(v)
        return v * v
    return TestFunction(fn, name="square")
