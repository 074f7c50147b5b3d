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
rule is centered on whichever factor concentrates.  C_t f is the same
split quadrature with P_{t-s} f in place of p(t-s, ., y), both halves
centred on p(s, x, .).  Each rule runs over all of its nodes in one
broadcast block: the time nodes of one sweep of the time rule share one
Gauss-Hermite block whose rows are (time node, point) pairs, each
doubling its own nodes; d^gamma P_tau f runs over every z node of the
outer rule and every gamma at once, one integrand per gamma; and pi runs
over arrays of (x, y) points, one row each.  The first two rules of every
doubling, time or node, share one integrand call.  A row's value and
error do not depend on the rows beside it, nor on where
quadrature.BLOCK_ELEMENTS cuts a block.

Work that is fixed per model or per time is done once.  The derivatives
of g*_1..3 are coefficient arrays, built once per model's polynomials
and kept in a small bounded cache.  Each sweep builds one time table of
the density (gaussian.time_table) on its s nodes and one on its t - s
nodes, and these two are the only tables it builds: the Gauss-Hermite
coordinates, every block of the sweep and the kernel K read their rows
of them.  Each block asks the density for all the orders it needs in one
derivs call.

A term whose coefficient array is all zeros is never evaluated.  The
table records which arrays are nonzero (3 of the 12 for OU; for GBM, all
9 that the terms by parts read).  The sums of both halves add only those
terms, and derivs, the kernel and the time tables are asked only for the
orders they read: for OU, j = 0, 1, 2 by parts and gamma = 1, 2 on the
left half, so no third derivative.  Each sum starts at +0.0, which no
addition turns into -0.0, and a zero term at finite nodes and density
factors adds +-0 to it, so dropping the term moves no bit there (with
an infinite factor, the full sum's 0 * inf would be NaN).  The
coefficient polynomials are evaluated by _horner, which performs numpy
polyval's operations in its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from numpy.polynomial import Polynomial

from .euler import euler_density_1d
from .models import SdeModel, is_constant, pair_density, require_density
from .quadrature import adaptive_interval, gauss_hermite_rows, \
    split_time_rows
from . import testfunctions as tf


@dataclass
class PiEvaluation:
    """One kernel (or kernel-derivative) value with its quadrature error."""

    value: float
    quad_error: float
    converged: bool = True


@dataclass
class TailBoundSpec:
    """Certificate constants for |k(t,x,y)| <= c1 t^{-e} exp(-c2 |x-y|^2/t)
    with e = (1 + l) / 2 in one space dimension (l = 0 for p, 1 for pi)."""

    l: int
    c1: float
    c2: float

    def __post_init__(self):
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")

    @property
    def exponent(self) -> float:
        return 0.5 * (1 + self.l)

    def envelope(self, t, x, y):
        r2 = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2
        return self.c1 * np.asarray(t, dtype=float) ** (-self.exponent) \
            * np.exp(-self.c2 * r2 / t)


def l2star_coefficients(model: SdeModel):
    """Coefficients (g1, g2, g3) with L2* g = g1 g' + g2 g'' + g3 g''', as
    numpy Polynomials formed from the model's polynomial b and a,
        g1 = -(b b' + a b''/2),  g2 = -(b a'/2 + a b' + a a''/4),
        g3 = -a a'/2;
    ValueError for a model without polynomial coefficients."""
    return _l2star(*_poly(model))


def _poly(model: SdeModel):
    if model.poly is None:
        raise ValueError(
            f"model {model.name!r} has no polynomial coefficients")
    return model.poly


def _l2star(b, a):
    db, da = b.deriv(), a.deriv()
    return (-(b * db + 0.5 * a * db.deriv()),
            -(0.5 * b * da + a * db + 0.25 * a * da.deriv()),
            -0.5 * a * da)


class _L2StarTable(tuple):
    """l2star_table's tuple of coefficient arrays, with nonzero, the
    (g, k) of every array dgs[g - 1][k] that is not all zeros, in
    ascending order."""


def l2star_table(model: SdeModel):
    """dgs with dgs[g - 1][k] the coefficient array of the k-th derivative
    of g*_g, k = 0..3, read-only: polyval(z, dgs[g - 1][k]) is
    l2star_coefficients(model)[g - 1].deriv(k)(z) bit for bit (the model's
    polynomials live on numpy's default domain, which maps z to itself),
    and so is _horner(dgs[g - 1][k], z).  dgs.nonzero lists the (g, k) of
    the arrays that are not all zeros (a -0.0 entry counts as zero): 3
    for OU, 9 for GBM, none for the constant model.  Built once per pair
    of coefficient arrays; ValueError, and no cache entry, for a model
    without polynomial coefficients."""
    b, a = _poly(model)
    return _l2star_table(b.coef.tobytes(), a.coef.tobytes())


# keyed on the bytes of b's and a's coefficients, which tell -0.0 from
# 0.0; a few models at once is all a study or a test suite uses
@lru_cache(maxsize=8)
def _l2star_table(b: bytes, a: bytes):
    gs = _l2star(Polynomial(np.frombuffer(b)), Polynomial(np.frombuffer(a)))
    dgs = _L2StarTable(tuple(g.deriv(k).coef for k in range(4)) for g in gs)
    for c in chain.from_iterable(dgs):
        c.flags.writeable = False
    dgs.nonzero = tuple((g, k) for g in (1, 2, 3) for k in range(4)
                        if dgs[g - 1][k].any())
    return dgs


def _horner(c, z):
    """numpy's polyval(z, c) bit for bit: its Horner steps, op for op,
    from c[-1] + z * 0."""
    acc = c[-1] + z * 0
    for ci in c[-2::-1]:
        acc = ci + acc * z
    return acc


def _terms(dgs):
    """(by_parts, left) for dgs = l2star_table(model): the (g, k) of
    _by_parts' nonzero terms, and the g of the left half's, in the order
    of the full sums."""
    return ([(g, k) for g, k in dgs.nonzero if k <= g],
            [g for g, k in dgs.nonzero if k == 0])


def _by_parts(dens, dgs, table, x0: np.ndarray, alpha: int, z):
    """sum_g (-1)^g d^g/dz^g [g*_g(z) d^alpha_x p(s, x0, z)] at the nodes z:
    the derivatives L2* produced, moved onto p(s, x0, .) and the
    polynomial coefficients by the Leibniz rule, every one exact, with
    dgs = l2star_table(model) and table the density's time table at s,
    of order at least alpha plus every g - k it reads.  Only the nonzero
    terms are summed, and only their orders j = g - k asked of derivs.
    x0 broadcasts against z, one start point per row."""
    terms = _terms(dgs)[0]
    js = sorted({g - k for g, k in terms})
    dp = dict(zip(js, dens.derivs([(alpha, j) for j in js], table, x0, z)))
    acc = 0.0
    for g, k in terms:
        acc = acc + (-1.0) ** g * math.comb(g, k) \
            * _horner(dgs[g - 1][k], z) * dp[g - k]
    return acc


def _l2star_on(dgs, ks, z):
    """sum_g g*_g(z) d^g_z K at the nodes z, L2* K as the left half takes
    it, with ks the kernel's derivatives d^g_z K of the orders g of
    _terms(dgs)[1], in that order: only the nonzero terms are summed."""
    acc = 0.0
    for g, kz in zip(_terms(dgs)[1], ks):
        acc = acc + _horner(dgs[g - 1][0], z) * kz
    return acc


def _check_kernel_args(t, split: float = 0.5, alpha=0, beta=0):
    """ValueError unless t is finite and positive, split in (0, 1), and
    alpha and beta non-negative integers."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, not {t!r}")
    if not 0 < split < 1:
        raise ValueError(f"split must be in (0, 1), not {split!r}")
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                and v >= 0):
            raise ValueError(
                f"{name} must be a non-negative integer, not {v!r}")


def _principal_rows(dens, dgs, t: float, x0: np.ndarray, alpha: int,
                    kernel, tol: float, split: float = 0.5, target=None,
                    beta: int = 0):
    """1/2 int_0^t int d^alpha_x p(s, x0, z) L2*[K(t-s, .)](z) dz ds for
    every row k, starting at x0[k], with dgs = l2star_table(model).

    kernel(gammas, table, rows, z) returns the list of d^gamma_z K(tau, z)
    for gamma in gammas at the nodes z, row i of z belonging to row
    rows[i] at the time tau whose time table (of order beta plus the
    largest gamma) is table[:, i], and the error of each row of z.  On the
    left half the derivatives of L2* stay on K; on the right half they
    move onto p(s, x0, .) by parts.  Only the nonzero terms of L2* are
    summed, and the kernel, derivs and the time tables are asked only for
    the orders those read.  Both halves centre on p(s, x0, .), unless the
    target y of each row is given: then the right half centres one rule
    per row on p(t-s, ., y).  The inner rules of one sweep over time nodes
    are one Gauss-Hermite block whose rows are (time, row) pairs, each
    doubling its nodes on its own.  Each row's inner error is the worst of
    its Gauss-Hermite and kernel errors; non-finite errors are kept.
    Returns (values, quad_errors).
    """
    by_parts, gammas = _terms(dgs)
    jmax = max((g - k for g, k in by_parts), default=0)
    gmax = max(gammas, default=0)
    inner_err = np.zeros(x0.size)

    def integrand(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (R, len(s)) inner integrals of the given rows at the time
        nodes s, which split_time_rows passes one half at a time; the
        block is time-major, pair j len(rows) + k being (s[j], rows[k])."""
        left_half = s[0] <= split * t
        pr = np.tile(rows, s.size)
        s_order, tau_order = (alpha, gmax + beta) if left_half \
            else (alpha + jmax, beta)
        tab_s = np.repeat(dens.time_table(s, s_order), rows.size, axis=1)
        tab_tau = np.repeat(dens.time_table(t - s, tau_order), rows.size,
                            axis=1)
        if left_half or target is None:
            mean, std, push, dpush = dens.gauss_coords(tab_s, x0[pr])
        else:
            mean, std, push, dpush = dens.center_on_target(tab_tau,
                                                           target[pr])
        kernel_err = np.zeros(pr.size)

        def at_tau(gammas, z, r):
            ks, err = kernel(gammas, tab_tau[:, r], pr[r], z)
            kernel_err[r] = np.maximum(kernel_err[r], err)
            return ks

        if left_half:
            def fn(z, r):
                return dens.derivs(((alpha, 0),), tab_s[:, r, None],
                                   x0[pr[r], None], z)[0] \
                    * _l2star_on(dgs, at_tau(gammas, z, r), z)
        else:
            def fn(z, r):
                return at_tau((0,), z, r)[0] \
                    * _by_parts(dens, dgs, tab_s[:, r, None],
                                x0[pr[r], None], alpha, z)

        val, err = gauss_hermite_rows(fn, mean, std, push=push, dpush=dpush,
                                      rtol=1e-10)
        err = np.maximum(err, kernel_err).reshape(s.size, rows.size)
        inner_err[rows] = np.maximum(inner_err[rows], err.max(axis=0))
        # in C order: a transposed view reaches _composite_gl's sums
        # strided, and they round differently
        return np.ascontiguousarray(val.reshape(s.size, rows.size).T)

    val, terr = split_time_rows(integrand, t, tol=tol, split=split,
                                size=x0.size)
    return 0.5 * val, 0.5 * terr + t * inner_err


def principal_term_Ct(model: SdeModel, f: tf.TestFunction, t: float, x,
                      tol: float = 1e-8) -> tuple[float, float]:
    """Principal 1/n coefficient of the weak error for the target f at x.

    Computed as 1/2 int_0^t P_s L2* P_{t-s} f (x) ds, the one-row case of
    _principal_rows with K = P_{t-s} f.  Returns (value, quad_error); a
    non-finite inner error makes quad_error non-finite.  Dirac-type
    targets delegate to the kernel: d^beta delta_y pairs to
    (-1)^beta d^beta_y pi(t, x, y), beta = 0 for delta_y.  A t that is
    not finite and positive raises ValueError.
    """
    _check_kernel_args(t)
    x0 = float(np.atleast_1d(x)[0])
    if not f.pointwise:
        val, err = pi_rows(model, t, x0, f.y, 0, f.beta, tol)
        return ((-1.0) ** f.beta) * float(val[0]), float(err[0])
    if is_constant(model):
        return 0.0, 0.0
    dens = require_density(model)

    def pf_deriv(gammas, tau_table, rows, z: np.ndarray):
        """d^gamma/dz^gamma of P_tau f at every node of z, row i of z at the
        time of tau_table[:, i], for every gamma by one Gauss-Hermite block
        over all of them, and the worst Gauss-Hermite error of each row."""
        zs = z.ravel()
        table = np.repeat(tau_table, z.shape[1], axis=1)
        mean, std, push, dpush = dens.gauss_coords(table, zs)

        def fn(yy, q):
            # f reads a 2-D array as (N, d) paths, so it gets the block flat
            return f(yy.ravel()).reshape(yy.shape) * np.stack(dens.derivs(
                [(g, 0) for g in gammas], table[:, q, None], zs[q, None], yy))

        val, err = gauss_hermite_rows(fn, mean, std, push=push, dpush=dpush,
                                      rtol=1e-10, shape=(len(gammas),))
        return list(val.reshape((-1,) + z.shape)), err.reshape(
            (-1,) + z.shape).max(axis=(0, 2), initial=0.0)

    val, err = _principal_rows(dens, l2star_table(model), t,
                               np.array([x0]), 0, pf_deriv, tol)
    return float(val[0]), float(err[0])


def pi_rows(model: SdeModel, t: float, x, y, alpha: int = 0, beta: int = 0,
            tol: float = 1e-8, split: float = 0.5):
    """d^alpha_x d^beta_y pi(t, x_k, y_k) at every point of the 1-D arrays
    x and y, which broadcast against each other (a whole (x, y) grid,
    flattened, or one x with many y).

    _principal_rows with K = d^beta_y p(., ., y): every point is one row,
    running its own time and Gauss-Hermite node doubling, and equals the
    one-point call principal_density_pi bit for bit.  Returns
    (values, quad_errors); non-finite inner errors are kept, and
    pi_converged tells which points converged.  A t that is not finite
    and positive, a split outside (0, 1), or an alpha or beta that is not
    a non-negative integer raises ValueError.
    """
    _check_kernel_args(t, split, alpha, beta)
    xs, ys = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                 np.atleast_1d(np.asarray(y, dtype=float)))
    if xs.ndim != 1:
        raise ValueError("pi_rows takes 1-D arrays of x and y")
    if is_constant(model):
        return np.zeros(ys.size), np.zeros(ys.size)
    dens = require_density(model)

    def kernel(gammas, table, rows, z):
        return dens.derivs([(g, beta) for g in gammas], table[:, :, None],
                           z, ys[rows, None]), 0.0

    return _principal_rows(dens, l2star_table(model), t, xs, alpha, kernel,
                           tol, split, target=ys, beta=beta)


def pi_converged(quad_errors, tol: float = 1e-8):
    """Which pi values, by their quad_errors, met the tolerance tol they
    were computed at; a non-finite error never does."""
    return np.asarray(quad_errors) <= max(tol, 1e-12)


def principal_density_pi(model: SdeModel, t: float, x: float, y: float,
                         alpha: int = 0, beta: int = 0, tol: float = 1e-8,
                         split: float = 0.5) -> PiEvaluation:
    """d^alpha_x d^beta_y of the principal density-error kernel pi(t,x,y):
    the one-point case of pi_rows."""
    x0, y0 = float(x), float(y)
    val, err = pi_rows(model, t, x0, y0, alpha, beta, tol, split)
    val, err = float(val[0]), float(err[0])
    return PiEvaluation(val, err, converged=bool(pi_converged(err, tol)))


def density_error_exact(model: SdeModel, n: int, t: float, x, y,
                        alpha: int = 0, beta: int = 0):
    """d^alpha_x d^beta_y (p_n - p)(t, x, y) from the two Gaussian closed
    forms, for 1-D affine models (euler_density_1d rejects any other);
    x and y broadcast against each other, and scalar x and y give a
    float."""
    pn = euler_density_1d(model, n)
    out = pn.deriv(alpha, beta, t, x, y) \
        - model.exact_density.deriv(alpha, beta, t, x, y)
    return float(out) if np.ndim(out) == 0 else out


def check_tail_bound(spec: TailBoundSpec, grid, values) -> dict:
    """Max of |k| over the Gaussian envelope on a grid of (t, x, y), where
    values[i] is the kernel k at grid[i].

    A max_violation_ratio <= 1 certifies the bound on the grid.  A
    non-finite kernel value or ratio (a NaN kernel, say, or a NaN c1) is
    no certificate, nor is a zero or infinite envelope (c1 = 0 for a
    kernel that underflows to 0, c1 = inf from an overflowing fit): the
    first one makes the ratio inf, at that point.  An empty grid, or a
    values list whose length is not the grid's, raises ValueError.
    """
    if len(values) != len(grid) or not len(grid):
        raise ValueError("one kernel value per point of a non-empty grid "
                         "required")
    worst, argmax = 0.0, None
    for (t, x, y), v in zip(grid, values):
        env = float(spec.envelope(t, x, y))
        ratio = abs(v) / env if 0 < env < math.inf else math.inf
        if not math.isfinite(ratio):
            return {"max_violation_ratio": math.inf, "argmax": (t, x, y),
                    "n_points": len(grid)}
        if ratio > worst:
            worst, argmax = ratio, (t, x, y)
    return {"max_violation_ratio": worst, "argmax": argmax,
            "n_points": len(grid)}


def _exp_or_inf(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def fit_tail_bound(l: int, grid, values) -> TailBoundSpec:
    """Fit certificate constants to the kernel values values[i] at the
    points grid[i] of (t, x, y); an empty grid, or lengths that disagree,
    raise ValueError.

    c2 is grid-searched over {0.05, 0.10, ..., 3}: the largest decay rate
    is kept for which the implied scale constant has not blown up (stays
    within 10 times the scale at the smallest candidate), then c1 is set
    5% above the observed maximum so the certificate holds on the fitting
    grid by construction.  A scale past the float range is inf, so the
    search stops there (or c1 is inf, which check_tail_bound fails).
    """
    if len(values) != len(grid) or not len(grid):
        raise ValueError("one kernel value per point of a non-empty grid "
                         "required")
    e = 0.5 * (1 + l)
    vals = [(t, (x - y) ** 2 / t, abs(v))
            for (t, x, y), v in zip(grid, values)]

    def scale(c2):
        # a zero value scales to zero, not to 0 * inf = NaN
        return max(v * t ** e * _exp_or_inf(c2 * r2) if v else 0.0
                   for (t, r2, v) in vals)

    candidates = np.arange(0.05, 3.025, 0.05)
    base = scale(candidates[0])
    best = candidates[0]
    for c2 in candidates[1:]:
        if scale(c2) <= 10.0 * base:
            best = c2
        else:
            break
    return TailBoundSpec(l=l, c1=1.05 * scale(best), c2=float(best))


# one fixed Gauss-Hermite rule, pair_density's largest, shared by both laws
# of a pairing so that its error cancels to first order in the difference
_PAIRING_NODES = 256


def distribution_pairing(model: SdeModel, S: tf.TestFunction, n: int,
                         t: float, x) -> tuple[float, float]:
    """(<S, p_n(t,x,.)>, <S, p(t,x,.)>) for a 1-D affine model, each by
    pair_density; euler_density_1d rejects any other model.

    Functions use one fixed Gauss-Hermite rule, shared by both
    laws: its quadrature error cancels to first order in the difference
    of two nearby laws.
    """
    pn = euler_density_1d(model, n)
    x0 = float(np.atleast_1d(x)[0])
    return tuple(pair_density(d, S, t, x0, start=_PAIRING_NODES,
                              max_nodes=_PAIRING_NODES)
                 for d in (pn, model.exact_density))


def pairing_with_pi(model: SdeModel, S: tf.TestFunction, t: float, x,
                    tol: float = 1e-6) -> tuple[float, float]:
    """<S, pi(t, x, .)>, the predicted limit of n <S, p_n - p>.

    Returns (value, quad_error).  Functions integrate S(y) pi(t,x,y)
    over the Gaussian-decay support of the law, with a breakpoint at
    y = 0 so kinked integrands (|y|-type growth) stay panel-smooth.  A t
    that is not finite and positive raises ValueError.
    """
    _check_kernel_args(t)
    x0 = float(np.atleast_1d(x)[0])
    if not S.pointwise:
        return principal_term_Ct(model, S, t, x0, tol=tol)
    dens = require_density(model)
    mean, std, push, dpush = dens.gauss_coords(dens.time_table(t, 0), x0)
    if push is not None:
        raise tf.UnsupportedFunctional("function pairings require a Gaussian law")
    lo, hi = mean - 10.0 * std, mean + 10.0 * std
    pi_tol = max(0.1 * tol, 1e-8)
    pi_err = np.zeros(1)   # worst kernel error; NaN and inf kept

    def fn(ys):
        vals, errs = pi_rows(model, t, x0, ys, 0, 0, pi_tol, 0.5)
        pi_err[:] = np.maximum(pi_err, errs.max())
        return vals * S(ys)

    pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    total, err = 0.0, 0.0
    for (a, b) in pieces:
        v, e = adaptive_interval(fn, a, b, tol=0.5 * tol)
        total, err = total + v, err + e
    return total, err + (hi - lo) * float(pi_err[0])
