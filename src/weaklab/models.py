"""SDE model zoo: coefficients, assumption flags and exact-law/semigroup
oracles.

The verification family is: constant coefficients (Euler exact in law),
Ornstein-Uhlenbeck (Gaussian laws for both the diffusion and its Euler
chain), geometric Brownian motion (lognormal law; constant coefficients
after the log transform), and a bounded tanh-volatility model in log
coordinates (smooth bounded coefficients, uniformly elliptic, no closed
form).  Every model states its Euler drift b and diffusion sigma once,
as the writer drift_diffusion; those with an exact density also state b
and a = sigma sigma^T as polynomials, and the affine ones (constant, OU)
take the writer, the polynomials and the exact law from the three numbers
of their SDE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .gaussian import (AffineGaussianDensity, LognormalDensity,
                       MultivariateGaussianDensity)
from .quadrature import expect_gaussian, expect_gaussian_nd
from . import testfunctions as tf


class AssumptionViolation(ValueError):
    pass


@dataclass
class SdeModel:
    name: str
    dim_d: int
    dim_r: int
    # (x, b, sig) -> None: the model's Euler coefficients at the points x,
    # shape (N, d), from one evaluation: writes the drift into b, shape
    # (N, d), and the diffusion into sig, shape (N, d, r).  The Euler step
    # calls it on arrays it reuses every step.
    drift_diffusion: Callable
    flag_B: bool = False
    flag_C: bool = False
    ellipticity_eta: Optional[float] = None
    exact_density: Optional[object] = None
    # (b, a), two numpy Polynomials, of a 1-D model whose drift b and
    # a = sigma sigma^T are polynomials in x: what L2* is formed from
    poly: Optional[tuple] = None

    def drift(self, x) -> np.ndarray:
        """The drift at the points x, shape (N, d), on a fresh array."""
        return self._coefficients(x)[0]

    def diffusion(self, x) -> np.ndarray:
        """The diffusion at the points x, shape (N, d, r), likewise."""
        return self._coefficients(x)[1]

    def _coefficients(self, x):
        x = np.asarray(x, dtype=float)
        b = np.empty((x.shape[0], self.dim_d))
        sig = np.empty((x.shape[0], self.dim_d, self.dim_r))
        self.drift_diffusion(x, b, sig)
        return b, sig


def affine_triple(model: SdeModel) -> Optional[tuple]:
    """(m, c, a), three floats, of a 1-D affine model: drift m x + c and
    constant a = sigma sigma^T, read from its polynomials; None for any
    other model."""
    b, a = model.poly or (None, None)
    if b is None or b.degree() > 1 or a.degree() > 0:
        return None
    c, m = np.append(b.coef, 0.0)[:2]
    return float(m), float(c), float(a.coef[0])


def _affine_model_1d(name: str, m: float, c: float, s, **flags) -> SdeModel:
    """dX = (m X + c) dt + s dB, with s a number or the row of r
    diffusion coefficients: the writer, the polynomials b = m x + c and
    a = s s^T, and the exact Gaussian law p(t, x, .) = N(A x + c(t), V) all
    come from (m, c, s).  Both callers require a > 0, so (C) holds with
    eta = a."""
    S = np.array(s, dtype=float).reshape(1, -1)
    a = float((S @ S.T)[0, 0])

    def law(t):
        if m == 0:
            return 1.0, c * t, a * t
        e = math.exp(m * t)
        return e, c * (1.0 - e) / -m, \
            a * (1.0 - math.exp(2.0 * m * t)) / (-2.0 * m)

    def drift_diffusion(x, b, sig):
        np.multiply(m, x, out=b)
        b += c
        for j, s_j in enumerate(S[0]):  # a column at a time: a broadcast
            sig[..., j] = s_j           # copy of the row is slower at r > 1

    return SdeModel(name, 1, S.shape[1], drift_diffusion, flag_C=True,
                    ellipticity_eta=a,
                    exact_density=AffineGaussianDensity(law),
                    poly=(Polynomial([c, m]), Polynomial([a])), **flags)


def _require_finite(**params):
    """ValueError naming every parameter, a number or an array, that is
    not finite."""
    bad = [k for k, v in params.items() if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"model parameters {bad} must be finite")


def make_constant_model(b0, s0) -> SdeModel:
    """Constant coefficients: the Euler scheme is exact in law."""
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    _require_finite(b0=b0, s0=s0)
    d, r = s0.shape
    if b0.shape[0] != d:
        raise ValueError("drift/diffusion dimensions disagree")
    a = s0 @ s0.T
    eta = float(np.linalg.eigvalsh(a).min())
    if eta <= 1e-12:
        raise AssumptionViolation("s0 s0* is singular; ellipticity (C) fails")
    if d == 1:
        return _affine_model_1d("constant", 0.0, float(b0[0]), s0[0],
                                flag_B=True)

    def drift_diffusion(x, b, sig):
        for i in range(d):  # an entry at a time: a broadcast copy of b0
            b[:, i] = b0[i]  # or s0 is slower
            for j in range(r):
                sig[:, i, j] = s0[i, j]

    return SdeModel("constant", d, r, drift_diffusion, flag_B=True,
                    flag_C=True, ellipticity_eta=eta,
                    exact_density=MultivariateGaussianDensity(b0, a))


def is_constant(model: SdeModel) -> bool:
    """Whether the model has constant coefficients, in any dimension: its
    Euler scheme is exact in law, so every weak-error term is zero."""
    return model.name == "constant"


def make_ou_model(theta: float, sigma0: float) -> SdeModel:
    """dX = -theta X dt + sigma0 dB; Gaussian law with exact derivatives.

    Satisfies (A) and (C); the drift is unbounded so (B) fails formally,
    which is why OU-based bound checks are empirical rather than
    theorem-backed.
    """
    _require_finite(theta=theta, sigma0=sigma0)
    if theta <= 0 or sigma0 <= 0:
        raise ValueError("theta and sigma0 must be positive")
    return _affine_model_1d("ou", -theta, 0.0, sigma0, flag_B=False)


def make_gbm_model(mu: float, sigma0: float) -> SdeModel:
    """Geometric Brownian motion in natural coordinates on x > 0.

    (B)/(C) hold only after the log transform, which makes the
    coefficients the constants b = mu - sigma0^2/2 and sigma = sigma0.
    """
    _require_finite(mu=mu, sigma0=sigma0)
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    def drift_diffusion(x, b, sig):
        np.multiply(mu, x, out=b)
        np.multiply(sigma0, x[..., None], out=sig)

    return SdeModel("gbm", 1, 1, drift_diffusion, flag_B=False,
                    flag_C=False, exact_density=LognormalDensity(mu, sigma0),
                    poly=(Polynomial([0.0, mu]),
                          Polynomial([0.0, 0.0, sigma0**2])))


def make_bounded_vol_model(a0: float, b0: float, c0: float) -> SdeModel:
    """Log-coordinate model b(x) = a0 - sigma(x)^2/2, sigma(x) = b0 + c0 tanh x.

    Requires b0 > |c0| > 0 so sigma stays in [b0-|c0|, b0+|c0|]: (B) and
    (C) hold with eta = (b0 - |c0|)^2.  No closed-form density; reference
    oracles are fine-Euler runs.
    """
    _require_finite(a0=a0, b0=b0, c0=c0)
    if not b0 > abs(c0) > 0:
        raise AssumptionViolation("need b0 > |c0| > 0 for bounded elliptic volatility")

    def drift_diffusion(x, b, s):
        # sigma = b0 + c0 tanh x, then b = a0 - sigma^2/2 from it: one tanh
        np.tanh(x[..., None], out=s)
        s *= c0
        s += b0
        np.square(s[..., 0], out=b)
        b *= 0.5
        np.subtract(a0, b, out=b)

    return SdeModel("tanh_vol", 1, 1, drift_diffusion, flag_B=True,
                    flag_C=True, ellipticity_eta=(b0 - abs(c0)) ** 2)


class MissingDensity(RuntimeError):
    pass


def require_density(model: SdeModel):
    """The model's exact transition density; MissingDensity if it has
    none."""
    if model.exact_density is None:
        raise MissingDensity(
            f"model {model.name!r} has no exact density oracle")
    return model.exact_density


def pair_density(dens, f: tf.TestFunction, t: float, x: float,
                 start: int = 32, max_nodes: int = 256) -> float:
    """<f, p(t, x, .)> for a 1-D transition density dens.

    A Dirac functional is read as (-1)^beta d^beta_y p(t, x, y), beta = 0 for
    delta_y (pairing convention <d^b delta_y, phi> = (-1)^b phi^(b)(y));
    a function is expect_gaussian on dens.gauss_coords at time t, with the
    given rule sizes (start = max_nodes is one fixed rule).
    """
    if not f.pointwise:
        return float(((-1.0) ** f.beta) * dens.deriv(0, f.beta, t, x, f.y))
    mean, std, push, _ = dens.gauss_coords(dens.time_table(t, 0), x)
    return expect_gaussian(f, mean, std, push=push, start=start,
                           max_nodes=max_nodes)[0]


def semigroup_apply(model: SdeModel, t: float, f: tf.TestFunction,
                    x) -> float:
    """P_t f(x) = E[f(X_t^x)] via quadrature against the exact density:
    pair_density in 1-D, expect_gaussian_nd for d <= 3, where Dirac-type
    functionals raise UnsupportedFunctional.  A t that is negative or not
    finite raises ValueError; t = 0 is valid, P_0 f = f."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and non-negative, not {t!r}")
    dens = require_density(model)
    if model.dim_d == 1:
        return pair_density(dens, f, t, float(np.atleast_1d(x)[0]))
    return expect_gaussian_nd(f, *dens.law(t, x))[0]


def finite_number(v) -> bool:
    """Whether v is an int or float within the range of a finite double,
    and not a bool or a string (JSON reads NaN, Infinity and any integer)."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _finite_array(v) -> bool:
    """Whether v is a non-empty list of finite numbers, or of such lists."""
    return isinstance(v, list) and bool(v) and all(
        finite_number(e) or _finite_array(e) for e in v)


def model_from_config(cfg: dict) -> SdeModel:
    """Build a model from the CLI's JSON model block: every scalar field
    must be a finite number, and the constant model's b and s lists of
    finite numbers (s a list of rows); anything else raises ValueError."""
    cfg = dict(cfg)
    kind = cfg.pop("model", None)
    fields = {
        "constant": ("b", "s", make_constant_model),
        "ou": ("theta", "sigma", make_ou_model),
        "gbm": ("mu", "sigma", make_gbm_model),
        "tanh_vol": ("a0", "b0", "c0", make_bounded_vol_model),
    }
    if kind not in fields:
        raise ValueError(f"unknown model kind {kind!r}")
    *names, builder = fields[kind]
    missing = [k for k in names if k not in cfg]
    if missing:
        raise ValueError(f"model block missing fields: {missing}")
    args = [cfg.pop(k) for k in names]
    if cfg:
        raise ValueError(f"unknown model fields: {sorted(cfg)}")
    # the constant model takes a vector and a matrix
    ok = _finite_array if kind == "constant" else finite_number
    bad = [k for k, a in zip(names, args) if not ok(a)]
    if bad:
        raise ValueError(f"model fields {bad} must be finite numbers, in "
                         "lists for the constant model")
    if kind != "constant":
        args = [float(a) for a in args]
    return builder(*args)
