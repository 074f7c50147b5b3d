"""Principal weak-error analysis: the third-order operator driving the 1/n
bias, its integral representations C_t f(x) and the kernel pi(t, x, y),
exact density-error comparisons for affine models, Gaussian-tail bound
certificates, and distribution pairings.

The kernel is evaluated as

    pi(t, x, y) = 1/2 sum_{1 <= g <= 3} int_0^t
                  int p(s, x, z) g*_g(z) d_z^g p(t-s, z, y) dz ds,

with the time integral split at s = t/2.  On the left half the spatial
derivatives stay on the larger-time factor p(t-s, z, .); on the right
half they are moved onto p(s, x, .) and the coefficient g*_g by
integration by parts (sign (-1)^g, Leibniz rule), so the differentiated
factor always has time bounded below by t/2 and the inner Gauss-Hermite
rule is centered on whichever factor concentrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euler import euler_density_1d
from .gaussian import fd_derivative
from .models import MissingDensity, SdeModel
from .quadrature import adaptive_interval, hermgauss_rule, \
    integrate_gaussian, split_time_integral
from . import testfunctions as tf

TestFunction = tf.TestFunction


@dataclass
class PiEvaluation:
    """One kernel (or kernel-derivative) value with its quadrature error."""

    value: float
    quad_error: float
    t: float
    x: float
    y: float
    alpha: int = 0
    beta: int = 0
    converged: bool = True


@dataclass
class TailBoundSpec:
    """Certificate constants for |k(t,x,y)| <= c1 t^{-e/2} exp(-c2 |x-y|^2/t)
    with e = deriv_total + d + l."""

    l: int
    c1: float
    c2: float
    d: int = 1
    deriv_total: int = 0

    def __post_init__(self):
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")

    @property
    def exponent(self) -> float:
        return 0.5 * (self.deriv_total + self.d + self.l)

    def envelope(self, t, x, y):
        r2 = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2
        return self.c1 * np.asarray(t, dtype=float) ** (-self.exponent) \
            * np.exp(-self.c2 * r2 / t)


def _is_constant(model: SdeModel) -> bool:
    return model.affine is not None and not np.any(model.affine[0])


def l2star_coefficients(model: SdeModel):
    """Coefficients (g1, g2, g3) with L2* g = g1 g' + g2 g'' + g3 g'''."""
    c = model.coeffs1d
    if c is None:
        raise ValueError(
            f"model {model.name!r} has no 1-D coefficient oracles")

    def g1(z):
        return -(c.b(z) * c.db(z) + 0.5 * c.a(z) * c.d2b(z))

    def g2(z):
        return -(0.5 * c.b(z) * c.da(z) + c.a(z) * c.db(z)
                 + 0.25 * c.a(z) * c.d2a(z))

    def g3(z):
        return -0.5 * c.a(z) * c.da(z)

    return g1, g2, g3


def _g_derivative(g, k: int, z, scale: float):
    if k == 0:
        return g(z)
    return fd_derivative(g, np.asarray(z, dtype=float), k,
                         4e-3 * max(1.0, scale))


def _resolve_target(g):
    """Derivative oracle dg(k, z) for a thrice-differentiable target."""
    if hasattr(g, "deriv"):
        return lambda k, z: g.deriv(k, z)
    if isinstance(g, (tuple, list)):
        return lambda k, z: g[k](np.asarray(z, dtype=float))
    return lambda k, z: _g_derivative(
        g, k, z, float(np.max(np.abs(np.atleast_1d(z)))))


def apply_L2star(model: SdeModel, g, z):
    """The principal error operator applied to a target g at z (1-D).

    g may expose .deriv(order, z), be a (g, g', g'', g''') tuple, or be a
    plain callable (finite-difference fallback).  Constant-coefficient
    models return 0 identically.
    """
    if _is_constant(model):
        return 0.0 if np.isscalar(z) else np.zeros_like(np.asarray(z, dtype=float))
    gs = l2star_coefficients(model)
    dg = _resolve_target(g)
    zz = np.asarray(z, dtype=float)
    out = sum(gs[k - 1](zz) * dg(k, zz) for k in (1, 2, 3))
    return float(out) if np.isscalar(z) else out


def _require_density(model: SdeModel):
    if model.exact_density is None:
        raise MissingDensity(
            f"model {model.name!r} has no exact density oracle")
    return model.exact_density


class _ErrTracker:
    def __init__(self):
        self.max_err = 0.0

    def track(self, pair):
        val, err = pair
        if math.isfinite(err):
            self.max_err = max(self.max_err, err)
        return val


def principal_term_Ct(model: SdeModel, f: tf.TestFunction, t: float, x,
                      tol: float = 1e-8) -> tuple[float, float]:
    """Principal 1/n coefficient of the weak error for the target f at x.

    Computed as 1/2 int_0^t P_s L2* P_{t-s} f (x) ds with the time
    integral split at t/2; for s > t/2 the derivatives produced by L2*
    are moved onto p(s, x, .) by integration by parts.  Returns
    (value, quad_error).  Dirac-type targets delegate to the kernel.
    """
    x0 = float(np.atleast_1d(x)[0])
    if f.kind == tf.DIRAC:
        pe = principal_density_pi(model, t, x0, f.y, 0, 0, tol=tol)
        return pe.value, pe.quad_error
    if f.kind == tf.DIRAC_DERIV:
        pe = principal_density_pi(model, t, x0, f.y, 0, f.beta, tol=tol)
        return ((-1.0) ** f.beta) * pe.value, pe.quad_error
    if _is_constant(model):
        return 0.0, 0.0
    dens = _require_density(model)
    gs = l2star_coefficients(model)
    tracker = _ErrTracker()

    def pf_deriv(gamma: int, tau: float, zs: np.ndarray) -> np.ndarray:
        """d^gamma/dz^gamma of P_tau f(z), vectorized over the nodes zs."""
        out = np.empty_like(zs)
        for i, zi in enumerate(zs):
            mean, std, push, dpush = dens.gauss_coords(tau, float(zi))
            out[i] = tracker.track(integrate_gaussian(
                lambda yy: f(yy) * dens.deriv(gamma, 0, tau, float(zi), yy),
                mean, std, push=push, dpush=dpush, rtol=1e-10))
        return out

    def integrand(s: float) -> float:
        tau = t - s
        mean, std, push, dpush = dens.gauss_coords(s, x0)

        if s <= 0.5 * t:
            def fn(z):
                acc = 0.0
                for g in (1, 2, 3):
                    acc = acc + gs[g - 1](z) * pf_deriv(g, tau, z)
                return dens.density(s, x0, z) * acc
        else:
            def fn(z):
                pf0 = pf_deriv(0, tau, z)
                acc = 0.0
                for g in (1, 2, 3):
                    sign = (-1.0) ** g
                    for k in range(g + 1):
                        acc = acc + sign * math.comb(g, k) \
                            * _g_derivative(gs[g - 1], k, z, abs(x0)) \
                            * dens.deriv(0, g - k, s, x0, z)
                return pf0 * acc

        return tracker.track(integrate_gaussian(
            fn, mean, std, push=push, dpush=dpush, rtol=1e-10))

    val, terr = split_time_integral(
        lambda ss: np.array([integrand(si) for si in ss]), t, tol=tol)
    return 0.5 * val, 0.5 * terr + t * tracker.max_err


def principal_density_pi(model: SdeModel, t: float, x: float, y: float,
                         alpha: int = 0, beta: int = 0, tol: float = 1e-8,
                         split: float = 0.5) -> PiEvaluation:
    """d^alpha_x d^beta_y of the principal density-error kernel pi(t,x,y)."""
    x0, y0 = float(x), float(y)
    if _is_constant(model):
        return PiEvaluation(0.0, 0.0, t, x0, y0, alpha, beta)
    dens = _require_density(model)
    gs = l2star_coefficients(model)
    tracker = _ErrTracker()

    def integrand(s: float) -> float:
        tau = t - s
        if s <= split * t:
            mean, std, push, dpush = dens.gauss_coords(s, x0)

            def fn(z):
                left = dens.deriv(alpha, 0, s, x0, z)
                acc = 0.0
                for g in (1, 2, 3):
                    acc = acc + gs[g - 1](z) * dens.deriv(g, beta, tau, z, y0)
                return left * acc
        else:
            mean, std, push, dpush = dens.center_on_target(tau, y0)

            def fn(z):
                right = dens.deriv(0, beta, tau, z, y0)
                acc = 0.0
                for g in (1, 2, 3):
                    sign = (-1.0) ** g
                    for k in range(g + 1):
                        acc = acc + sign * math.comb(g, k) \
                            * _g_derivative(gs[g - 1], k, z, abs(x0)) \
                            * dens.deriv(alpha, g - k, s, x0, z)
                return right * acc

        return tracker.track(integrate_gaussian(
            fn, mean, std, push=push, dpush=dpush, rtol=1e-10))

    val, terr = split_time_integral(
        lambda ss: np.array([integrand(si) for si in ss]), t,
        tol=tol, split=split)
    err = 0.5 * terr + t * tracker.max_err
    return PiEvaluation(0.5 * val, err, t, x0, y0, alpha, beta,
                        converged=err <= max(tol, 1e-12))


def density_error_exact(model: SdeModel, n: int, t: float, x: float,
                        y: float, alpha: int = 0, beta: int = 0) -> float:
    """d^alpha_x d^beta_y (p_n - p)(t, x, y) from the two Gaussian closed
    forms, for 1-D affine models."""
    if model.affine is None or model.dim_d != 1:
        raise ValueError("exact density error requires a 1-D affine model")
    dens = _require_density(model)
    pn = euler_density_1d(model, n)
    return float(pn.deriv(alpha, beta, t, x, y)
                 - dens.deriv(alpha, beta, t, x, y))


def check_tail_bound(kernel, spec: TailBoundSpec, grid) -> dict:
    """Max of |kernel| over the Gaussian envelope on a grid of (t, x, y).

    A max_violation_ratio <= 1 certifies the bound on the grid.
    """
    worst, argmax = 0.0, None
    for (t, x, y) in grid:
        ratio = abs(kernel(t, x, y)) / float(spec.envelope(t, x, y))
        if ratio > worst:
            worst, argmax = ratio, (t, x, y)
    return {"max_violation_ratio": worst, "argmax": argmax,
            "n_points": len(grid)}


def fit_tail_bound(kernel, l: int, grid, d: int = 1, deriv_total: int = 0,
                   c2_step: float = 0.05, c2_max: float = 3.0,
                   blowup_factor: float = 10.0) -> TailBoundSpec:
    """Fit certificate constants on a grid.

    c2 is grid-searched over {c2_step, 2 c2_step, ...}: the largest decay
    rate is kept for which the implied scale constant has not blown up
    (stays within blowup_factor of the scale at the smallest candidate),
    then c1 is set 5% above the observed maximum so the certificate holds
    on the fitting grid by construction.
    """
    e = 0.5 * (deriv_total + d + l)
    vals = [(t, (x - y) ** 2 / t, abs(kernel(t, x, y))) for (t, x, y) in grid]

    def scale(c2):
        return max(v * t ** e * math.exp(c2 * r2) for (t, r2, v) in vals)

    candidates = np.arange(c2_step, c2_max + 0.5 * c2_step, c2_step)
    base = scale(candidates[0])
    best = candidates[0]
    for c2 in candidates[1:]:
        if scale(c2) <= blowup_factor * base:
            best = c2
        else:
            break
    return TailBoundSpec(l=l, c1=1.05 * scale(best), c2=float(best),
                         d=d, deriv_total=deriv_total)


def seminorm_Nq(kernel_deriv, q: int, grid) -> float:
    """Grid approximation of N_q: max over |a|,|b| <= q of |y^a d^b k(y)|.

    kernel_deriv(order, y) must return the order-th derivative of the
    kernel slice, vectorized in y.
    """
    ys = np.asarray(grid, dtype=float)
    worst = 0.0
    for b in range(q + 1):
        dk = np.abs(np.asarray(kernel_deriv(b, ys), dtype=float))
        for a in range(q + 1):
            worst = max(worst, float(np.max(np.abs(ys) ** a * dk)))
    return worst


# largest rule whose total weights w_i e^{h_i^2} stay inside double range
_PAIRING_NODES = 256


def _pair_density(dens, S: tf.TestFunction, t: float, x: float) -> float:
    if S.kind == tf.DIRAC:
        return float(dens.density(t, x, S.y))
    if S.kind == tf.DIRAC_DERIV:
        return float(((-1.0) ** S.beta) * dens.deriv(0, S.beta, t, x, S.y))
    mean, std, push, dpush = dens.gauss_coords(t, x)
    if push is not None:
        raise tf.UnsupportedFunctional(
            "function pairings require a Gaussian law")
    h, w = hermgauss_rule(_PAIRING_NODES)
    pts = mean + math.sqrt(2.0) * std * h
    # fixed shared rule: quadrature error cancels to first order in the
    # difference of two nearby laws
    return float(np.dot(w, S(pts))) / math.sqrt(math.pi)


def distribution_pairing(model: SdeModel, S: tf.TestFunction, n: int,
                         t: float, x) -> tuple[float, float]:
    """(<S, p_n(t,x,.)>, <S, p(t,x,.)>) for a 1-D affine model.

    Dirac kinds evaluate the densities (or their signed derivatives,
    <d^b delta_y, phi> = (-1)^b phi^(b)(y)) directly; function kinds use
    one fixed Gauss-Hermite rule against each Gaussian law.
    """
    if model.affine is None or model.dim_d != 1:
        raise ValueError("distribution pairing requires a 1-D affine model")
    dens = _require_density(model)
    pn = euler_density_1d(model, n)
    x0 = float(np.atleast_1d(x)[0])
    return _pair_density(pn, S, t, x0), _pair_density(dens, S, t, x0)


def pairing_with_pi(model: SdeModel, S: tf.TestFunction, t: float, x,
                    tol: float = 1e-6) -> tuple[float, float]:
    """<S, pi(t, x, .)>, the predicted limit of n <S, p_n - p>.

    Returns (value, quad_error).  Function kinds integrate S(y) pi(t,x,y)
    over the Gaussian-decay support of the law, with a breakpoint at
    y = 0 so kinked integrands (|y|-type growth) stay panel-smooth.
    """
    x0 = float(np.atleast_1d(x)[0])
    if not S.pointwise:
        return principal_term_Ct(model, S, t, x0, tol=tol)
    dens = _require_density(model)
    mean, std, push, dpush = dens.gauss_coords(t, x0)
    if push is not None:
        raise tf.UnsupportedFunctional("function pairings require a Gaussian law")
    lo, hi = mean - 10.0 * std, mean + 10.0 * std
    pi_tol = max(0.1 * tol, 1e-8)
    pi_err = [0.0]

    def fn(ys):
        vals = np.empty_like(ys)
        for i, yi in enumerate(ys):
            pe = principal_density_pi(model, t, x0, float(yi), tol=pi_tol)
            pi_err[0] = max(pi_err[0], pe.quad_error)
            vals[i] = pe.value
        return vals * S(ys)

    pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    total, err = 0.0, 0.0
    for (a, b) in pieces:
        v, e = adaptive_interval(fn, a, b, tol=0.5 * tol)
        total, err = total + v, err + e
    return total, err + (hi - lo) * pi_err[0]
