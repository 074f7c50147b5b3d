"""Counter-based random number streams with reproducible substreams.

Streams are backed by the Philox counter-based generator keyed on
(seed, stream_id), so identical keys reproduce identical draws
bit-for-bit regardless of how the work is scheduled across workers.
Gaussian variates are produced by inverse-CDF transform of the raw
uniforms rather than rejection sampling, so the draw count per variate
is fixed.  scipy, which provides the inverse CDF, is imported on the
first draw, not with the package: it is about half of weaklab's import
time, and quadrature-only runs draw nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1

# smallest uniform fed to the inverse CDF; random() yields multiples of
# 2^-53 in [0, 1) so only the exact-zero draw is nudged
_U_FLOOR = 2.0 ** -64


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RngStream":
        """Derive a child stream; children of distinct (stream_id, i) differ."""
        return RngStream(self.seed, splitmix64((self.stream_id ^ splitmix64(i)) & _MASK64))


@cache
def scipy_special(name: str):
    """scipy.special's function name, bound once, on its first use."""
    import scipy.special
    return getattr(scipy.special, name)


def normals_from(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via inverse CDF of the generator's uniforms,
    transformed in place in one fresh array the caller owns."""
    u = gen.random(shape)
    np.maximum(u, _U_FLOOR, out=u)
    return scipy_special("ndtri")(u, out=u)
