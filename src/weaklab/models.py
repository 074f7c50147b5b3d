"""SDE model zoo: coefficients, derivative oracles, assumption flags and
exact-law/semigroup oracles.

The verification family is: constant coefficients (Euler exact in law),
Ornstein-Uhlenbeck (Gaussian laws for both the diffusion and its Euler
chain), geometric Brownian motion (lognormal law; constant coefficients
after the log transform), and a bounded tanh-volatility model in log
coordinates (smooth bounded coefficients, uniformly elliptic, no closed
form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import (AffineGaussianDensity, GaussianLaw, LognormalDensity,
                       MultivariateGaussianDensity)
from .quadrature import expect_gaussian, hermgauss_rule, node_doubling
from . import testfunctions as tf


class AssumptionViolation(ValueError):
    pass


@dataclass
class Coeffs1d:
    """Scalar coefficient functions and their derivatives, vectorized in x.

    a = sigma^2; derivative oracles up to second order, which is what the
    principal error operator consumes.
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
    # (M, c, S): affine drift b(x) = M x + c with constant diffusion S
    affine: Optional[tuple] = None
    log_coefficients: Optional[tuple] = None  # (b, sigma) after log transform

    def cov(self, x):
        """a(x) = sigma(x) sigma(x)^T, shape (N, d, d)."""
        s = self.diffusion(np.atleast_2d(np.asarray(x, dtype=float)))
        return np.einsum("nij,nkj->nik", s, s)


def _tile_drift(b0):
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))

    def drift(x):
        return np.broadcast_to(b0, x.shape).copy()
    return drift


def _tile_diffusion(s0):
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))

    def diffusion(x):
        return np.broadcast_to(s0, (x.shape[0],) + s0.shape).copy()
    return diffusion


def make_constant_model(b0, s0, require_elliptic: bool = True) -> SdeModel:
    """Constant coefficients: the Euler scheme is exact in law."""
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    d, r = s0.shape
    if b0.shape[0] != d:
        raise ValueError("drift/diffusion dimensions disagree")
    a = s0 @ s0.T
    eta = float(np.linalg.eigvalsh(a).min())
    if require_elliptic and eta <= 1e-12:
        raise AssumptionViolation("s0 s0* is singular; ellipticity (C) fails")
    if d == 1:
        b, aa = float(b0[0]), float(a[0, 0])
        density = AffineGaussianDensity(lambda t: 1.0, lambda t: b * t,
                                        lambda t: aa * t)
        coeffs = Coeffs1d(
            b=lambda x: np.full_like(np.asarray(x, dtype=float), b),
            db=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            sigma=lambda x: np.full_like(np.asarray(x, dtype=float), float(s0[0, 0])),
            a=lambda x: np.full_like(np.asarray(x, dtype=float), aa),
            da=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2a=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
    else:
        density = MultivariateGaussianDensity(b0, a)
        coeffs = None
    return SdeModel(
        name="constant", dim_d=d, dim_r=r,
        drift=_tile_drift(b0), diffusion=_tile_diffusion(s0),
        flag_B=True, flag_C=require_elliptic and eta > 0,
        ellipticity_eta=eta if eta > 0 else None,
        exact_density=density, coeffs1d=coeffs,
        affine=(np.zeros((d, d)), b0.copy(), s0.copy()),
    )


def make_ou_model(theta: float, sigma0: float) -> SdeModel:
    """dX = -theta X dt + sigma0 dB; Gaussian law with exact derivatives.

    Satisfies (A) and (C); the drift is unbounded so (B) fails formally,
    which is why OU-based bound checks are empirical rather than
    theorem-backed.
    """
    if theta <= 0 or sigma0 <= 0:
        raise ValueError("theta and sigma0 must be positive")
    a0 = sigma0 * sigma0

    def V(t):
        return a0 * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)

    density = AffineGaussianDensity(lambda t: math.exp(-theta * t),
                                    lambda t: 0.0, V)
    coeffs = Coeffs1d(
        b=lambda x: -theta * np.asarray(x, dtype=float),
        db=lambda x: np.full_like(np.asarray(x, dtype=float), -theta),
        d2b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda x: np.full_like(np.asarray(x, dtype=float), sigma0),
        a=lambda x: np.full_like(np.asarray(x, dtype=float), a0),
        da=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        d2a=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    return SdeModel(
        name="ou", dim_d=1, dim_r=1,
        drift=lambda x: -theta * x,
        diffusion=lambda x: np.full((x.shape[0], 1, 1), sigma0),
        flag_B=False, flag_C=True, ellipticity_eta=a0,
        exact_density=density, coeffs1d=coeffs,
        affine=(np.array([[-theta]]), np.zeros(1), np.array([[sigma0]])),
    )


def make_gbm_model(mu: float, sigma0: float) -> SdeModel:
    """Geometric Brownian motion in natural coordinates on x > 0.

    (B)/(C) hold only after the log transform; log_coefficients records
    the transformed constants b = mu - sigma0^2/2, sigma = sigma0.
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
    return SdeModel(
        name="gbm", dim_d=1, dim_r=1,
        drift=lambda x: mu * x,
        diffusion=lambda x: (sigma0 * x)[:, :, None],
        flag_B=False, flag_C=False,
        exact_density=LognormalDensity(mu, sigma0), coeffs1d=coeffs,
        log_coefficients=(mu - 0.5 * sigma0**2, sigma0),
    )


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

    coeffs = Coeffs1d(
        b=lambda x: a0 - 0.5 * sig(x) ** 2,
        db=lambda x: -sig(x) * dsig(x),
        d2b=lambda x: -(dsig(x) ** 2 + sig(x) * d2sig(x)),
        sigma=sig,
        a=lambda x: sig(x) ** 2,
        da=lambda x: 2.0 * sig(x) * dsig(x),
        d2a=lambda x: 2.0 * (dsig(x) ** 2 + sig(x) * d2sig(x)),
    )
    return SdeModel(
        name="tanh_vol", dim_d=1, dim_r=1,
        drift=lambda x: a0 - 0.5 * sig(x) ** 2,
        diffusion=lambda x: sig(x)[:, :, None],
        flag_B=True, flag_C=True, ellipticity_eta=(b0 - abs(c0)) ** 2,
        coeffs1d=coeffs,
    )


class MissingDensity(RuntimeError):
    pass


def semigroup_apply(model: SdeModel, t: float, f: tf.TestFunction, x,
                    rtol: float = 1e-10) -> float:
    """P_t f(x) = E[f(X_t^x)] via quadrature against the exact density.

    Dirac-type functionals return the density (or its signed derivative,
    pairing convention <d^b delta_y, phi> = (-1)^b phi^(b)(y>) directly.
    """
    if model.exact_density is None:
        raise MissingDensity(f"model {model.name!r} has no exact density oracle")
    dens = model.exact_density
    if f.kind == tf.DIRAC:
        x0 = float(np.atleast_1d(x)[0])
        return float(np.asarray(dens.density(t, x0, f.y)))
    if f.kind == tf.DIRAC_DERIV:
        x0 = float(np.atleast_1d(x)[0])
        return float(((-1.0) ** f.beta)
                     * np.asarray(dens.deriv(0, f.beta, t, x0, f.y)))
    if model.dim_d == 1:
        mean, std, push, _ = dens.gauss_coords(t, float(np.atleast_1d(x)[0]))
        val, _ = expect_gaussian(f, mean, std, push=push, rtol=rtol)
        return val
    if model.dim_d > 3:
        raise ValueError("density-level quadrature is capped at d <= 3")
    return _tensor_semigroup(dens.law(t, x), f, rtol)


def _tensor_semigroup(law: GaussianLaw, f: tf.TestFunction, rtol: float) -> float:
    L = np.linalg.cholesky(law.cov + 1e-14 * np.eye(law.dim))

    def value_at(m):
        h, w = hermgauss_rule(m)
        grids = np.meshgrid(*([h] * law.dim), indexing="ij")
        zeta = math.sqrt(2.0) * np.stack([g.ravel() for g in grids], axis=1)
        pts = law.mean + zeta @ L.T
        wt = np.ones(pts.shape[0])
        for g in np.meshgrid(*([w] * law.dim), indexing="ij"):
            wt = wt * g.ravel()
        return float(np.dot(wt, f(pts))) / math.pi ** (law.dim / 2)

    return node_doubling(value_at, rtol, 1e-14, 16, 128)[0]


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
