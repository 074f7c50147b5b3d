"""SDE model zoo: coefficients, derivative oracles, assumption flags and
exact-law/semigroup oracles.

The verification family is: constant coefficients (Euler exact in law),
Ornstein-Uhlenbeck (Gaussian laws for both the diffusion and its Euler
chain), geometric Brownian motion (lognormal law; constant coefficients
after the log transform), and a bounded tanh-volatility model in log
coordinates (smooth bounded coefficients, uniformly elliptic, no closed
form).  A 1-D model's Euler drift and diffusion are its coefficient
oracles b and sigma; the affine ones (constant, OU) take the oracles, the
affine triple and the exact law from the three numbers of their SDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import (AffineGaussianDensity, LognormalDensity,
                       MultivariateGaussianDensity)
from .quadrature import expect_gaussian, hermgauss_rule, node_doubling
from . import testfunctions as tf


class AssumptionViolation(ValueError):
    pass


@dataclass
class Coeffs1d:
    """Scalar coefficient functions and their derivatives, vectorized in x.

    a = sigma sigma^T; derivative oracles up to second order, which is what
    the principal error operator consumes.  sigma(x) has the shape of x,
    with a trailing axis of r entries for a model driven by r > 1 Brownian
    motions.
    """

    b: Callable
    db: Callable
    d2b: Callable
    sigma: Callable
    a: Callable
    da: Callable
    d2a: Callable


@dataclass
class SdeModel:
    name: str
    dim_d: int
    dim_r: int
    drift: Callable        # (N, d) -> (N, d)
    diffusion: Callable    # (N, d) -> (N, d, r)
    flag_B: bool = False
    flag_C: bool = False
    ellipticity_eta: Optional[float] = None
    exact_density: Optional[object] = None
    coeffs1d: Optional[Coeffs1d] = None
    # (m, c, a), three floats, of a 1-D affine model: drift m x + c and
    # constant diffusion with a = sigma sigma^T
    affine: Optional[tuple] = None
    # (x, b, sig) -> None for a model whose two coefficients share work:
    # writes drift(x) into b, shape (N, d), and diffusion(x) into sig,
    # shape (N, d, r), bit for bit, from one evaluation.  The Euler step
    # calls it in place of drift and diffusion, on arrays it reuses every
    # step.  Only tanh-vol sets it (one tanh per step); every other model
    # steps on drift and diffusion.
    drift_diffusion: Optional[Callable] = None


def _model_1d(name: str, coeffs: Coeffs1d, dim_r: int = 1,
              **fields) -> SdeModel:
    """A 1-D model whose Euler drift and diffusion are its b and sigma
    oracles, so the scheme and the error expansion read one set of
    coefficients."""
    return SdeModel(
        name=name, dim_d=1, dim_r=dim_r, drift=coeffs.b,
        diffusion=lambda x: coeffs.sigma(x).reshape(x.shape[0], 1, dim_r),
        coeffs1d=coeffs, **fields)


def _affine_model_1d(name: str, m: float, c: float, s, **flags) -> SdeModel:
    """dX = (m X + c) dt + s dB, with s a number or the row of r
    diffusion coefficients: the oracles, the affine triple (m, c, a) and
    the exact Gaussian law p(t, x, .) = N(A x + c(t), V) all come from
    (m, c, s).  Both callers require a = s s^T > 0, so (C) holds with
    eta = a."""
    S = np.array(s, dtype=float).reshape(1, -1)
    a = float((S @ S.T)[0, 0])
    row = S[0] if S.shape[1] > 1 else S[0, 0]

    def const(v):
        tail = np.shape(v)
        return lambda x: np.full(np.asarray(x).shape + tail, v)

    def law(t):
        if m == 0:
            return 1.0, c * t, a * t
        return (math.exp(m * t), c * (1.0 - math.exp(m * t)) / -m,
                a * (1.0 - math.exp(2.0 * m * t)) / (-2.0 * m))

    coeffs = Coeffs1d(b=lambda x: m * np.asarray(x, dtype=float) + c,
                      db=const(m), d2b=const(0.0), sigma=const(row),
                      a=const(a), da=const(0.0), d2a=const(0.0))
    return _model_1d(name, coeffs, dim_r=S.shape[1], flag_C=True,
                     ellipticity_eta=a,
                     exact_density=AffineGaussianDensity(law),
                     affine=(float(m), float(c), a), **flags)


def make_constant_model(b0, s0) -> SdeModel:
    """Constant coefficients: the Euler scheme is exact in law."""
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
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
    return SdeModel(
        name="constant", dim_d=d, dim_r=r,
        drift=lambda x: np.broadcast_to(b0, x.shape).copy(),
        diffusion=lambda x: np.broadcast_to(s0, (x.shape[0], d, r)).copy(),
        flag_B=True, flag_C=True, ellipticity_eta=eta,
        exact_density=MultivariateGaussianDensity(b0, a),
    )


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
    if theta <= 0 or sigma0 <= 0:
        raise ValueError("theta and sigma0 must be positive")
    return _affine_model_1d("ou", -theta, 0.0, sigma0, flag_B=False)


def make_gbm_model(mu: float, sigma0: float) -> SdeModel:
    """Geometric Brownian motion in natural coordinates on x > 0.

    (B)/(C) hold only after the log transform, which makes the
    coefficients the constants b = mu - sigma0^2/2 and sigma = sigma0.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    coeffs = Coeffs1d(
        b=lambda x: mu * np.asarray(x, dtype=float),
        db=lambda x: np.full_like(np.asarray(x, dtype=float), mu),
        d2b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda x: sigma0 * np.asarray(x, dtype=float),
        a=lambda x: sigma0**2 * np.asarray(x, dtype=float) ** 2,
        da=lambda x: 2.0 * sigma0**2 * np.asarray(x, dtype=float),
        d2a=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0 * sigma0**2),
    )
    return _model_1d("gbm", coeffs, flag_B=False, flag_C=False,
                     exact_density=LognormalDensity(mu, sigma0))


def make_bounded_vol_model(a0: float, b0: float, c0: float) -> SdeModel:
    """Log-coordinate model b(x) = a0 - sigma(x)^2/2, sigma(x) = b0 + c0 tanh x.

    Requires b0 > |c0| > 0 so sigma stays in [b0-|c0|, b0+|c0|]: (B) and
    (C) hold with eta = (b0 - |c0|)^2.  No closed-form density; reference
    oracles are fine-Euler runs.
    """
    if not b0 > abs(c0) > 0:
        raise AssumptionViolation("need b0 > |c0| > 0 for bounded elliptic volatility")

    def sig(x):
        return b0 + c0 * np.tanh(np.asarray(x, dtype=float))

    def dsig(x):
        th = np.tanh(np.asarray(x, dtype=float))
        return c0 * (1.0 - th * th)

    def d2sig(x):
        th = np.tanh(np.asarray(x, dtype=float))
        return -2.0 * c0 * th * (1.0 - th * th)

    def drift_diffusion(x, b, s):
        # sig, then a0 - 0.5 sig^2, in the operation order of sig and b
        np.tanh(x[..., None], out=s)
        s *= c0
        s += b0
        np.square(s[..., 0], out=b)
        b *= 0.5
        np.subtract(a0, b, out=b)

    coeffs = Coeffs1d(
        b=lambda x: a0 - 0.5 * sig(x) ** 2,
        db=lambda x: -sig(x) * dsig(x),
        d2b=lambda x: -(dsig(x) ** 2 + sig(x) * d2sig(x)),
        sigma=sig,
        a=lambda x: sig(x) ** 2,
        da=lambda x: 2.0 * sig(x) * dsig(x),
        d2a=lambda x: 2.0 * (dsig(x) ** 2 + sig(x) * d2sig(x)),
    )
    return _model_1d("tanh_vol", coeffs, flag_B=True, flag_C=True,
                     ellipticity_eta=(b0 - abs(c0)) ** 2,
                     drift_diffusion=drift_diffusion)


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
    a function is expect_gaussian on dens.gauss_coords(t, x), with the
    given rule sizes (start = max_nodes is one fixed rule).
    """
    if not f.pointwise:
        return float(((-1.0) ** f.beta) * dens.deriv(0, f.beta, t, x, f.y))
    mean, std, push, _ = dens.gauss_coords(t, x)
    return expect_gaussian(f, mean, std, push=push, start=start,
                           max_nodes=max_nodes)[0]


def semigroup_apply(model: SdeModel, t: float, f: tf.TestFunction,
                    x) -> float:
    """P_t f(x) = E[f(X_t^x)] via quadrature against the exact density:
    pair_density in 1-D, a tensor Gauss-Hermite rule for d <= 3, where
    Dirac-type functionals raise UnsupportedFunctional."""
    dens = require_density(model)
    if model.dim_d == 1:
        return pair_density(dens, f, t, float(np.atleast_1d(x)[0]))
    if model.dim_d > 3:
        raise ValueError("density-level quadrature is capped at d <= 3")
    return _tensor_semigroup(*dens.law(t, x), f)


def _tensor_semigroup(mean: np.ndarray, cov: np.ndarray,
                      f: tf.TestFunction) -> float:
    """E f(Y) for Y ~ N(mean, cov) by a tensor Gauss-Hermite rule; a cov
    that is not positive definite raises numpy's LinAlgError, a
    ValueError."""
    d = mean.shape[0]
    L = np.linalg.cholesky(cov + 1e-14 * np.eye(d))

    def value_at(m, rows):
        h, w = hermgauss_rule(m)
        grids = np.meshgrid(*([h] * d), indexing="ij")
        zeta = math.sqrt(2.0) * np.stack([g.ravel() for g in grids], axis=1)
        pts = mean + zeta @ L.T
        wt = np.ones(pts.shape[0])
        for g in np.meshgrid(*([w] * d), indexing="ij"):
            wt = wt * g.ravel()
        vals = f(pts)
        norm = math.pi ** (d / 2)
        return (float(np.dot(wt, vals)) / norm,
                float(np.dot(wt, np.abs(vals))) / norm)

    return float(node_doubling(value_at, 1e-10, 1e-14, 16, 128)[0][0])


def model_from_config(cfg: dict) -> SdeModel:
    """Build a model from the CLI's JSON model block."""
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
    if kind != "constant":  # the constant model takes a vector and a matrix
        args = [float(a) for a in args]
    return builder(*args)
