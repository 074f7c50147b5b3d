import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from weaklab import error_expansion as ee
from weaklab import quadrature as quad
from weaklab import testfunctions as tf
from weaklab.euler import euler_density_1d
from weaklab.gaussian import LognormalDensity, normal_pdf
from weaklab.models import SdeModel, make_bounded_vol_model, \
    make_constant_model, make_gbm_model, make_ou_model

# Frozen reference values, each computed by an independent route:
#   CT_OU:   closed form (1 - 3 e^{-2 theta^2 t}) sigma^2 ... reduced at
#            theta = sigma = t = x = 1 to (1 - 3 e^{-2}) / 4.
#   CT_GBM:  mean recursion E X_t^n = x (1 + mu/n)^n gives the exact bias;
#            n (bias) -> -e^{mu t} mu^2 t^2 / (2) x at t = x = 1.
#   PI_OU:   Richardson limit of n (p_n(1,1,1) - p(1,1,1)) over the exact
#            Euler Gaussian laws, agreeing to ~1e-7.
CT_OU_SQUARE = (1.0 - 3.0 * math.exp(-2.0)) / 4.0      # 0.14849853757...
CT_GBM_ID = -math.exp(0.1) * 0.1**2 / 2.0              # -0.00552585459...
PI_OU_111 = -0.1122990424222162
PAIR_EXPABS = 0.2312537172831669


def ou():
    return make_ou_model(1.0, 1.0)


def gbm():
    return make_gbm_model(0.1, 0.2)


# ---------------------------------------------------------------------------
# L2* operator


def _ou_hand(theta, sigma):
    # b = -theta z, a = sigma^2: g1 = -theta^2 z, g2 = theta sigma^2, g3 = 0
    return lambda z: [[-theta**2 * z, -theta**2, 0.0, 0.0],
                      [theta * sigma**2, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0]]


def _gbm_hand(mu, sigma):
    # b = mu z, a = sigma^2 z^2: g1 = -mu^2 z,
    # g2 = -(2 mu sigma^2 + sigma^4/2) z^2, g3 = -sigma^4 z^3
    k, s4 = -(2.0 * mu * sigma**2 + sigma**4 / 2.0), sigma**4
    return lambda z: [[-mu**2 * z, -mu**2, 0.0, 0.0],
                      [k * z * z, 2.0 * k * z, 2.0 * k, 0.0],
                      [-s4 * z**3, -3.0 * s4 * z * z, -6.0 * s4 * z,
                       -6.0 * s4]]


# dyadic parameters and points, so that every product is exact
@pytest.mark.parametrize("model, hand", [
    (make_ou_model(2.0, 0.5), _ou_hand(2.0, 0.5)),
    (make_gbm_model(0.5, 0.5), _gbm_hand(0.5, 0.5))], ids=["ou", "gbm"])
def test_l2star_closed_form(model, hand):
    gs = ee.l2star_coefficients(model)
    for z in (-1.25, 0.0, 0.75, 2.5):
        for g, want in zip(gs, hand(z)):
            assert [float(g.deriv(k)(z)) for k in range(4)] == want


def test_l2star_needs_polynomial_coefficients():
    with pytest.raises(ValueError):
        ee.l2star_coefficients(make_bounded_vol_model(0.05, 0.2, 0.1))


def test_l2star_constant_model_vanishes():
    g1, g2, g3 = ee.l2star_coefficients(make_constant_model([0.3], [[0.7]]))
    for z in (-2.0, 0.0, 1.5):
        assert abs(g1(z)) + abs(g2(z)) + abs(g3(z)) < 1e-12


TABLE_MODELS = {"ou": make_ou_model(1.0, 1.0), "ou-2": make_ou_model(0.3, 1.7),
                "gbm": make_gbm_model(0.1, 0.2),
                "gbm-2": make_gbm_model(0.5, 0.5),
                "constant-1d": make_constant_model([0.3], [[0.7]])}
# the (g, k) of the nonzero derivatives of g*_g, from _ou_hand and
# _gbm_hand: g*_3 = 0 for OU, and no g*_g of GBM has degree above g
NONZERO = {"ou": ((1, 0), (1, 1), (2, 0)),
           "gbm": ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                   (3, 0), (3, 1), (3, 2), (3, 3)),
           "constant-1d": ()}


def _labelled_terms(name):
    """[((g, k), dg)] for every array of l2star_terms, the terms by parts
    labelled by NONZERO (every (g, k) there has k <= g), then the left
    half's."""
    by_parts, left = ee.l2star_terms(TABLE_MODELS[name])
    return [(gk, dg) for gk, (_, dg, _) in
            zip(NONZERO[name.split("-2")[0]], by_parts)] + \
        [((g, 0), dg) for g, dg in left]


def test_l2star_table_is_one_per_model_polynomials():
    ee._l2star_terms.cache_clear()
    terms = ee.l2star_terms(make_ou_model(1.0, 1.0))
    assert ee.l2star_terms(make_ou_model(1.0, 1.0)) is terms
    assert ee.l2star_terms(make_ou_model(2.0, 1.0)) is not terms
    assert ee._l2star_terms.cache_info().currsize == 2
    with pytest.raises(ValueError):
        ee.l2star_terms(make_bounded_vol_model(0.05, 0.2, 0.1))
    assert ee._l2star_terms.cache_info().currsize == 2
    # bounded: more models than it holds leave it full, not larger
    size = ee._l2star_terms.cache_parameters()["maxsize"]
    assert size is not None
    for k in range(size + 3):
        ee.l2star_terms(make_ou_model(1.0 + k, 1.0))
    assert ee._l2star_terms.cache_info().currsize == size
    # shared, so read-only: tuples of tuples of read-only arrays
    by_parts, left = terms
    assert all(type(v) is tuple for v in (terms, by_parts, left)
               + by_parts + left)
    for dg in [dg for _, dg, _ in by_parts] + [dg for _, dg in left]:
        with pytest.raises(ValueError):
            dg[0] = 1.0


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_l2star_table_is_the_polynomials_bit_for_bit(name):
    # at the Gauss-Hermite nodes of every rule size, about the laws the
    # quadrature centres on, pushed for the lognormal
    model = TABLE_MODELS[name]
    dens, gs = model.exact_density, ee.l2star_coefficients(model)
    for m in (32, 64, 128, 256):
        h, _ = quad.hermite_rule(m)
        mean, std, push, _ = dens.gauss_coords(
            dens.time_table(np.array([0.1, 0.5, 1.0]), 0),
            np.array([0.4, 0.9, 1.3]))
        z = mean[:, None] + np.sqrt(2.0) * std[:, None] * h
        z = z if push is None else push(z)
        for (g, k), dg in _labelled_terms(name):
            assert polyval(z, dg).tobytes() == \
                gs[g - 1].deriv(k)(z).tobytes(), (m, g, k)


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_l2star_table_lists_its_nonzero_arrays(name):
    # the terms are the nonzero arrays in (g, k) order, each with its
    # sign, binomial and order j = g - k; every array left out is zero
    gs = ee.l2star_coefficients(TABLE_MODELS[name])
    nonzero = NONZERO[name.split("-2")[0]]
    by_parts, left = ee.l2star_terms(TABLE_MODELS[name])
    assert [(c, j) for c, _, j in by_parts] == \
        [((-1.0) ** g * math.comb(g, k), g - k) for g, k in nonzero]
    assert [g for g, _ in left] == [g for g, k in nonzero if k == 0]
    for (g, k), dg in _labelled_terms(name):
        assert dg.tobytes() == gs[g - 1].deriv(k).coef.tobytes()
    for g in (1, 2, 3):
        for k in range(4):
            assert bool(np.any(gs[g - 1].deriv(k).coef)) == \
                ((g, k) in nonzero)


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_horner_is_polyval_bit_for_bit(name):
    # signed zeros, |z| up to 1e300, the infinities and NaN; every
    # derivative array of g*_1..3, the zero ones too, and coefficient
    # arrays with -0.0 entries besides the model's own
    z = np.concatenate([[0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e150,
                         -1e150, 1e300, math.inf, -math.inf, math.nan],
                        np.linspace(-40.0, 40.0, 321)])
    arrays = [g.deriv(k).coef
              for g in ee.l2star_coefficients(TABLE_MODELS[name])
              for k in range(4)]
    arrays += [np.array([-0.0]), np.array([0.0, -0.0]),
               np.array([-0.0, 1.5, -0.0, -2.25])]
    with np.errstate(all="ignore"):
        for c in arrays:
            for v in (z, z.reshape(3, -1), np.asarray(-0.5), np.asarray(-0.0)):
                got, want = ee._horner(c, v), polyval(v, c)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == \
                    np.asarray(want).tobytes(), c


def _by_parts_full(dens, gs, table, x0, alpha, z):
    """The full sum of _by_parts: all 9 terms, every order j = 0..3, by
    numpy's polyval on the derivatives of gs = l2star_coefficients(model);
    the oracle of the zero-skipping one."""
    dp = dens.derivs([(alpha, j) for j in range(4)], table, x0, z)
    acc = 0.0
    for g in (1, 2, 3):
        sign = (-1.0) ** g
        for k in range(g + 1):
            acc = acc + sign * math.comb(g, k) \
                * polyval(z, gs[g - 1].deriv(k).coef) * dp[g - k]
    return acc


def _l2star_on_full(gs, ks, z):
    """The full left-half sum of g*_g(z) d^g_z K over g = 1, 2, 3."""
    acc = 0.0
    for g in (1, 2, 3):
        acc = acc + polyval(z, gs[g - 1].deriv(0).coef) * ks[g - 1]
    return acc


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["gbm", "gbm-2", "ou", "ou-2"]),
       s=st.floats(0.01, 1.0), tau=st.floats(0.01, 1.0),
       x0=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
       offsets=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6),
       alpha=st.integers(0, 2), beta=st.integers(0, 1))
def test_zero_terms_left_out_move_no_bit(name, s, tau, x0, offsets, alpha,
                                         beta):
    # rows of nodes about their start points at drawn offsets, in units
    # of the larger spread of the laws at s and tau, and at offsets of
    # +-60 where the density factors at s underflow; a last row has
    # only far offsets, so both of its sums are 0
    model = TABLE_MODELS[name]
    dens, gs = model.exact_density, ee.l2star_coefficients(model)
    lognormal = isinstance(dens, LognormalDensity)
    sd = max(float(dens.gauss_coords(dens.time_table(v, 0), 1.0)[1])
             for v in (s, tau))
    x0 = np.array(x0 + [x0[0]])[:, None]
    offs = np.tile(offsets + [-60.0, 60.0], (x0.size, 1))
    # OU's kernel sees z through e^(-theta tau) z, so it needs them farther
    far = 60.0 if lognormal else 400.0
    offs[-1] = np.resize([-far, far, -0.75 * far, 0.85 * far], offs.shape[1])
    if lognormal:
        x0 = np.exp(x0)
        z = x0 * np.exp(sd * offs)
    else:
        z = x0 + sd * offs
    by_parts, left = ee.l2star_terms(model)
    gammas = [g for g, _ in left]
    jmax = max(j for _, _, j in by_parts)
    full = _by_parts_full(dens, gs, dens.time_table(s, alpha + 3), x0,
                          alpha, z)
    got = ee._by_parts(dens, by_parts, dens.time_table(s, alpha + jmax), x0,
                       alpha, z)
    assert got.tobytes() == full.tobytes()
    assert not full[-1].any()
    # the left half's kernel, p(tau, z, y) with y the row's start point
    ks = dens.derivs([(g, beta) for g in (1, 2, 3)],
                     dens.time_table(tau, 3 + beta), z, x0)
    ks_read = dens.derivs([(g, beta) for g in gammas],
                          dens.time_table(tau, max(gammas) + beta), z, x0)
    full = _l2star_on_full(gs, ks, z)
    assert ee._l2star_on(left, ks_read, z).tobytes() == full.tobytes()
    assert not full[-1].any()


COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(b=st.lists(COEFFICIENT, min_size=4, max_size=4),
       a=st.lists(COEFFICIENT, min_size=3, max_size=3),
       s=st.floats(0.01, 1.0), x0=st.floats(-2.0, 2.0),
       offsets=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6),
       alpha=st.integers(0, 2))
def test_term_lists_sum_as_the_full_sums(b, a, s, x0, offsets, alpha):
    # any cubic b and quadratic a, signed zeros among their coefficients:
    # the sums over l2star_terms equal the full 9- and 3-term sums by
    # bytes, with OU's density factors; with no term, a +0.0 everywhere
    model = SdeModel("cubic", 1, 1, None,
                     poly=(Polynomial(b), Polynomial(a)))
    dens = make_ou_model(1.0, 1.0).exact_density
    gs = ee.l2star_coefficients(model)
    by_parts, left = ee.l2star_terms(model)
    x0 = np.array([[x0]])
    z = x0 + np.array([offsets])
    table = dens.time_table(s, alpha + 3)
    full = _by_parts_full(dens, gs, table, x0, alpha, z)
    got = ee._by_parts(dens, by_parts, table, x0, alpha, z)
    assert np.broadcast_to(got, full.shape).tobytes() == full.tobytes()
    ks = dens.derivs([(g, 0) for g in (1, 2, 3)], dens.time_table(s, 3), z,
                     x0)
    full = _l2star_on_full(gs, ks, z)
    got = ee._l2star_on(left, [ks[g - 1] for g, _ in left], z)
    assert np.broadcast_to(got, full.shape).tobytes() == full.tobytes()


# ---------------------------------------------------------------------------
# principal term C_t f


def test_ct_ou_square_oracle():
    val, err = ee.principal_term_Ct(ou(), tf.square(), 1.0, 1.0)
    assert abs(val - CT_OU_SQUARE) < 1e-7
    assert err < 1e-6


def test_ct_gbm_identity_oracle():
    val, err = ee.principal_term_Ct(gbm(), tf.identity(), 1.0, 1.0)
    assert abs(val - CT_GBM_ID) < 1e-7


def test_ct_constant_model_zero():
    val, _ = ee.principal_term_Ct(make_constant_model([0.1], [[0.4]]),
                                  tf.square(), 1.0, 0.0)
    assert abs(val) < 1e-10


def test_two_dim_constant_model_has_no_principal_term():
    # the Euler scheme is exact in law in any dimension; C_t f and pi are
    # zero without a 1-D density to integrate
    m = make_constant_model([0.1, -0.2], np.eye(2))
    assert ee.principal_term_Ct(m, tf.square(), 1.0, [0.0, 0.0]) == (0.0, 0.0)
    vals, errs = ee.pi_rows(m, 1.0, [0.0, 0.5], 0.2)
    assert not vals.any() and not errs.any()


def test_ct_dirac_matches_pi():
    m = ou()
    direct = ee.principal_density_pi(m, 1.0, 1.0, 0.5).value
    via_ct, _ = ee.principal_term_Ct(m, tf.dirac(0.5), 1.0, 1.0)
    assert abs(direct - via_ct) < 1e-9


@pytest.mark.parametrize("t, x", [(0.5, -0.4), (0.8125, 0.7)])
def test_ct_ou_square_matches_richardson_of_euler_bias(t, x):
    # f sees each (Z, M) node block flat: square() would read a 2-D block
    # as (N, d) paths and keep column 0
    m = ou()
    val, err = ee.principal_term_Ct(m, tf.square(), t, x)

    def d(n):
        approx, exact = ee.distribution_pairing(m, tf.square(), n, t, x)
        return n * (approx - exact)

    assert abs(val - (2.0 * d(1024) - d(512))) < 1e-5
    assert err < 1e-6


@pytest.mark.parametrize("t, x", [(0.5, 0.9), (0.75, 1.2)])
def test_ct_gbm_identity_closed_form(t, x):
    # E X^n_t = x (1 + mu/n)^{nt}, so n (E X^n_t - E X_t) -> -x e^{mu t} mu^2 t / 2
    mu = 0.1
    val, err = ee.principal_term_Ct(gbm(), tf.identity(), t, x)
    assert abs(val - (-x * math.exp(mu * t) * mu**2 * t / 2.0)) < 1e-7
    assert err < 1e-6


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_kernels_keep_nonfinite_inner_errors(monkeypatch, bad):
    real = ee.gauss_hermite_rows

    def lossy(*args, **kwargs):
        val, err = real(*args, **kwargs)
        return val, np.full_like(err, bad)

    monkeypatch.setattr(ee, "gauss_hermite_rows", lossy)
    _, qerr = ee.principal_term_Ct(ou(), tf.square(), 0.5, 0.2)
    assert not math.isfinite(qerr)
    pe = ee.principal_density_pi(ou(), 0.5, 0.2, 0.4)
    assert not math.isfinite(pe.quad_error) and not pe.converged


@pytest.mark.parametrize("f", [tf.dirac(0.3), tf.dirac(0.3, 1)],
                         ids=["dirac", "dirac-deriv"])
def test_ct_dirac_accepts_list_x(f):
    m = ou()
    assert ee.principal_term_Ct(m, f, 0.5, [0.1]) == \
        ee.principal_term_Ct(m, f, 0.5, 0.1)


@pytest.mark.parametrize("model", [ou(), gbm()], ids=["ou", "gbm"])
@pytest.mark.parametrize("route", ["pi", "ct"])
def test_a_sweep_builds_two_time_tables(monkeypatch, model, route):
    # one table on the sweep's s nodes and one on its t - s nodes, both
    # built by the sweep itself: the coordinates, the kernel and
    # d^gamma P_tau f read their rows and build none
    cls, callers, sweeps = type(model.exact_density), [], []
    time_table = cls.time_table

    def counted(self, t, kmax):
        callers.append(sys._getframe(1).f_code.co_name)
        return time_table(self, t, kmax)

    def split_time_rows(fn, *args, **kwargs):
        def sweep(s, rows):
            n = len(callers)
            out = fn(s, rows)
            sweeps.append(callers[n:])
            return out
        return quad.split_time_rows(sweep, *args, **kwargs)

    monkeypatch.setattr(cls, "time_table", counted)
    monkeypatch.setattr(ee, "split_time_rows", split_time_rows)
    if route == "pi":
        ee.pi_rows(model, 0.5, [0.8, 1.1], [1.0, 0.9], 0, 1, tol=1e-6)
    else:
        ee.principal_term_Ct(model, tf.square(), 0.5, 1.1, tol=1e-6)
    assert sweeps and len(callers) == 2 * len(sweeps)
    assert all(c == ["integrand", "integrand"] for c in sweeps)


@pytest.mark.parametrize("model, route", [
    (ou, "pi"), (gbm, "pi"), (ou, "ct"), (gbm, "ct"), (ou, "pairing")],
    ids=["pi-ou", "pi-gbm", "ct-ou", "ct-gbm", "pairing-ou"])
def test_a_repeated_t_builds_no_time_table(monkeypatch, model, route):
    # the density's memo serves a second call at the same t: it calls
    # _scalars at no time node, nor for pairing_with_pi's scalar-t table
    # of the law's coordinates; a new t builds its tables
    m = model()
    cls, calls = type(m.exact_density), []
    scalars = cls._scalars

    def counted(self, t, kmax):
        calls.append(t)
        return scalars(self, t, kmax)

    def run(t):
        if route == "pi":
            return ee.pi_rows(m, t, [0.8, 1.1], [1.0, 0.9], 0, 1, tol=1e-6)
        if route == "ct":
            return ee.principal_term_Ct(m, tf.square(), t, 1.1, tol=1e-6)
        return ee.pairing_with_pi(m, tf.square(), t, 0.3, tol=1e-4)

    monkeypatch.setattr(cls, "_scalars", counted)
    first = run(0.5)
    n = len(calls)
    assert n > 2
    second = run(0.5)
    assert calls[n:] == []
    assert np.asarray(second).tobytes() == np.asarray(first).tobytes()
    run(0.625)
    assert len(calls) > n + 2


# ---------------------------------------------------------------------------
# density kernel pi


def test_pi_ou_frozen_oracle():
    res = ee.principal_density_pi(ou(), 1.0, 1.0, 1.0)
    assert res.converged
    assert abs(res.value - PI_OU_111) < 1e-6


def test_pi_matches_richardson_of_euler_densities():
    m = ou()
    t, x, y = 0.5, -0.5, 0.8
    pi = ee.principal_density_pi(m, t, x, y).value
    exact = m.exact_density.density(t, x, y)
    ladder = []
    for n in (64, 128, 256):
        pn = euler_density_1d(m, n).density(t, x, y)
        ladder.append((n, n * (pn - exact)))
    from weaklab.montecarlo import richardson_table
    limit = richardson_table(ladder, 2)
    assert abs(pi - limit) < 1e-5


@pytest.mark.parametrize("model, t, x, ys", [
    (ou(), 0.75, 0.3, [-0.7, 0.1, 0.3, 0.9, 1.6]),
    (gbm(), 0.5, 1.1, [0.8, 1.0, 1.2, 1.5]),
], ids=["ou", "gbm"])
@pytest.mark.parametrize("beta", [0, 1])
def test_pi_rows_match_per_y_pi(model, t, x, ys, beta):
    vals, errs = ee.pi_rows(model, t, x, np.array(ys), 0, beta, 1e-8, 0.5)
    for y, v, e in zip(ys, vals, errs):
        pe = ee.principal_density_pi(model, t, x, y, beta=beta)
        assert (v, e) == (pe.value, pe.quad_error)
        assert e <= 1e-8


def _grid_matches_one_point_pi(model, t, xs, ys, alpha, beta, tol):
    x, y = (g.ravel() for g in np.meshgrid(xs, ys, indexing="ij"))
    vals, errs = ee.pi_rows(model, t, x, y, alpha, beta, tol)
    converged = ee.pi_converged(errs, tol)
    for k in range(x.size):
        pe = ee.principal_density_pi(model, t, x[k], y[k], alpha, beta, tol)
        assert (vals[k], errs[k]) == (pe.value, pe.quad_error)
        assert converged[k] == pe.converged
    return converged


@pytest.mark.parametrize("model, t, xs, ys", [
    (ou(), 0.75, [-1.0, -0.2, 0.4, 1.3], [-0.7, 0.1, 0.9]),
    (gbm(), 0.5, [0.9, 1.1, 1.6], [0.8, 1.0, 1.5]),
], ids=["ou", "gbm"])
@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 0), (0, 1)])
def test_pi_rows_on_a_grid_match_one_point_pi(model, t, xs, ys, alpha,
                                              beta):
    assert _grid_matches_one_point_pi(model, t, xs, ys, alpha, beta,
                                      1e-8).all()


def test_pi_rows_unconverged_grid_matches_one_point_pi():
    # the grid of the CLI density and tailbound non-convergence tests: its
    # unconverged rows run out of panels beside rows that converge
    converged = _grid_matches_one_point_pi(
        make_ou_model(5.0, 1.0), 1.0, [-2.0, 0.0, 3.0], [-2.0, 0.5, 3.0],
        0, 0, 1e-7)
    assert 0 < converged.sum() < converged.size


# each of these returned (nan, nan), or raised a math domain error, an
# IndexError or a TypeError from deep inside the quadrature
@pytest.mark.parametrize("bad", [
    dict(t=0.0), dict(t=-0.5), dict(t=math.inf), dict(t=math.nan),
    dict(split=0.0), dict(split=1.0), dict(split=1.5), dict(split=math.nan),
    dict(alpha=-1), dict(alpha=1.0), dict(beta=1.5), dict(beta=True)],
    ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_pi_rejects_invalid_arguments(bad):
    args = {**dict(t=0.5, split=0.5, alpha=0, beta=0), **bad}
    what = next(iter(bad))
    for model in (ou(), make_constant_model([0.3], [[0.7]])):
        with pytest.raises(ValueError, match=what):
            ee.pi_rows(model, args["t"], [0.1, 0.3], 0.2, args["alpha"],
                       args["beta"], 1e-6, args["split"])
        with pytest.raises(ValueError, match=what):
            ee.principal_density_pi(model, args["t"], 0.1, 0.2, args["alpha"],
                                    args["beta"], 1e-6, args["split"])


# at t = 0 or inf these had not returned after 20 s, at t < 0 they
# raised a math domain error; the constant model returned 0 at any t
@pytest.mark.parametrize("t", [0.0, -0.5, math.inf, math.nan])
def test_principal_term_and_pairing_reject_invalid_times(t):
    for model in (ou(), make_constant_model([0.3], [[0.7]])):
        for f in (tf.square(), tf.dirac(0.3, 1)):
            with pytest.raises(ValueError, match="t must be"):
                ee.principal_term_Ct(model, f, t, 0.3)
    with pytest.raises(ValueError, match="t must be"):
        ee.pairing_with_pi(ou(), tf.square(), t, 0.3, tol=1e-4)


@pytest.mark.parametrize("model", [ou(), gbm()], ids=["ou", "gbm"])
def test_empty_rows_give_empty_arrays(model):
    # node_doubling evaluated its first rule on no rows, and
    # gauss_hermite_rows returns an empty tuple for no blocks: IndexError
    vals, errs = ee.pi_rows(model, 0.5, [], [])
    assert vals.shape == errs.shape == (0,)
    vals, errs = quad.gauss_hermite_rows(lambda z, rows: z, [], 1.0)
    assert vals.shape == errs.shape == (0,)


def test_pi_is_one_element_case_of_pi_rows():
    m = ou()
    pe = ee.principal_density_pi(m, 0.6, -0.2, 0.5, 0, 1, tol=1e-7,
                                 split=0.4)
    vals, errs = ee.pi_rows(m, 0.6, -0.2, np.array([0.5]), 0, 1, 1e-7, 0.4)
    assert (pe.value, pe.quad_error) == (vals[0], errs[0])
    assert type(pe.value) is float and type(pe.quad_error) is float


def test_block_cap_moves_no_bit(monkeypatch):
    # one (time, row) pair per Gauss-Hermite block, at every level, against
    # the default blocks
    xs, ys = np.meshgrid([-0.5, 0.2, 0.7, 1.1], [0.3, -0.4, 1.0, 0.0])

    def results():
        out = list(np.concatenate(ee.pi_rows(ou(), 1.0, xs.ravel(),
                                             ys.ravel(), 1, 1)))
        out += ee.principal_term_Ct(ou(), tf.square(), 1.0, 0.5, tol=1e-4)
        out += ee.principal_term_Ct(gbm(), tf.identity(), 1.0, 1.0,
                                    tol=1e-4)
        out += ee.pairing_with_pi(ou(), tf.square(), 1.0, 1.0, tol=1e-2)
        return [float(v).hex() for v in out]

    monkeypatch.setattr(quad, "BLOCK_ELEMENTS", 1)
    one_pair = results()
    monkeypatch.undo()
    assert results() == one_pair


def test_pi_split_point_invariance():
    m = ou()
    a = ee.principal_density_pi(m, 1.0, 0.0, 1.0, split=0.5).value
    b = ee.principal_density_pi(m, 1.0, 0.0, 1.0, split=0.35).value
    assert abs(a - b) < 1e-8


def test_pi_derivative_consistent_with_fd_in_y():
    m = ou()
    h = 1e-3
    dpi = ee.principal_density_pi(m, 1.0, 0.0, 0.5, beta=1).value
    fd = (ee.principal_density_pi(m, 1.0, 0.0, 0.5 + h).value
          - ee.principal_density_pi(m, 1.0, 0.0, 0.5 - h).value) / (2 * h)
    assert abs(dpi - fd) < 1e-4


# ---------------------------------------------------------------------------
# exact density errors and remainder scaling


def test_density_error_exact_first_order():
    m = ou()
    pi = ee.principal_density_pi(m, 1.0, 1.0, 1.0).value
    for n in (128, 256):
        err = ee.density_error_exact(m, n, 1.0, 1.0, 1.0)
        assert abs(n * err - pi) < 4.0 / n


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_density_error_exact_checks_its_horizon(t):
    # at t = 0 it returned nan after divide-by-zero warnings; a negative
    # or NaN t failed later, in the Euler step count
    with pytest.raises(ValueError, match="finite and positive"):
        ee.density_error_exact(ou(), 8, t, 1.0, 1.0)


@pytest.mark.parametrize("orders", [{"alpha": 1.5}, {"beta": -1}])
def test_density_error_exact_checks_its_orders(orders):
    # these raised TypeError from inside the density's derivative table
    with pytest.raises(ValueError, match="non-negative integer"):
        ee.density_error_exact(ou(), 8, 1.0, 1.0, 1.0, **orders)


def test_remainder_is_second_order():
    # r_n = p_n - p - pi/n should scale like 1/n^2
    m = ou()
    pi = ee.principal_density_pi(m, 1.0, 0.0, 1.0).value
    r = {}
    for n in (128, 256):
        r[n] = ee.density_error_exact(m, n, 1.0, 0.0, 1.0) - pi / n
    ratio = (128**2 * r[128]) / (256**2 * r[256])
    assert 0.5 < ratio < 2.0


# ---------------------------------------------------------------------------
# tail bounds


def test_check_tail_bound_heat_kernel():
    heat = lambda t, x, y: normal_pdf(y, x, t)
    grid = [(t, x, y) for t in (0.25, 0.5, 1.0) for x in (-1.0, 0.0, 1.0)
            for y in (-2.0, 0.0, 2.0)]
    values = [heat(*p) for p in grid]
    ok = ee.TailBoundSpec(l=0, c1=0.5, c2=0.5)
    rep = ee.check_tail_bound(ok, grid, values)
    assert rep["max_violation_ratio"] <= 1.0
    too_sharp = ee.TailBoundSpec(l=0, c1=0.35, c2=0.5)
    rep2 = ee.check_tail_bound(too_sharp, grid, values)
    assert rep2["max_violation_ratio"] > 1.0


def test_fit_tail_bound_heat_kernel_recovers_sharp_rate():
    heat = lambda t, x, y: normal_pdf(y, x, t)
    grid = [(t, x, y) for t in (0.25, 0.5, 1.0) for x in (-1.0, 0.0, 1.0)
            for y in (-2.5, -1.0, 0.0, 1.0, 2.5)]
    values = [heat(*p) for p in grid]
    spec = ee.fit_tail_bound(0, grid, values)
    assert spec.c2 >= 0.45  # Gaussian admits the sharp rate 1/2
    rep = ee.check_tail_bound(spec, grid, values)
    assert rep["max_violation_ratio"] <= 1.0


def test_fit_tail_bound_pi_kernel():
    m = ou()
    kern = lambda t, x, y: ee.principal_density_pi(m, t, x, y).value
    grid = [(t, x, y) for t in (0.5, 1.0) for x in (-1.0, 1.0)
            for y in (-1.0, 0.0, 1.0)]
    values = [kern(*p) for p in grid]
    spec = ee.fit_tail_bound(1, grid, values)
    rep = ee.check_tail_bound(spec, grid, values)
    assert rep["max_violation_ratio"] <= 1.0
    assert spec.c2 > 0.0


# criterion 6's grid
TAIL_GRID = [(t, x, y) for t in (0.25, 0.5, 1.0) for x in (-1.5, 0.0, 1.5)
             for y in (-1.5, 0.0, 1.5)]


@pytest.mark.parametrize("nan_at", [None, TAIL_GRID[13]],
                         ids=["all-nan", "one-nan"])
def test_tail_bound_fails_on_nan_kernel(nan_at):
    # NaN > worst is false, so a NaN kernel used to report ratio 0 and pass
    dens = ou().exact_density

    def kernel(t, x, y):
        if nan_at is None or (t, x, y) == nan_at:
            return math.nan
        return float(dens.density(t, x, y))

    values = [kernel(*p) for p in TAIL_GRID]
    spec = ee.fit_tail_bound(0, TAIL_GRID, values)
    rep = ee.check_tail_bound(spec, TAIL_GRID, values)
    assert not rep["max_violation_ratio"] <= 1.0
    assert rep["argmax"] == (TAIL_GRID[0] if nan_at is None else nan_at)
    # with constants fitted on the finite kernel, the NaN still fails
    finite = [float(dens.density(*p)) for p in TAIL_GRID]
    rep = ee.check_tail_bound(ee.fit_tail_bound(0, TAIL_GRID, finite),
                              TAIL_GRID, values)
    assert not rep["max_violation_ratio"] <= 1.0


def test_tail_bound_fails_on_zero_envelope():
    # a kernel that is 0 on the whole grid (GBM's density from x = 0, say)
    # fits c1 = 0; the check used to divide 0 by the zero envelope and raise
    zero = [0.0] * len(TAIL_GRID)
    spec = ee.fit_tail_bound(0, TAIL_GRID, zero)
    assert spec.c1 == 0.0
    rep = ee.check_tail_bound(spec, TAIL_GRID, zero)
    assert rep["max_violation_ratio"] == math.inf
    assert rep["argmax"] == TAIL_GRID[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_fit_tail_bound_past_the_float_range():
    # OU's density at t = 0.001 and |x - y| = 2.5 underflows to 0, so no
    # blow-up stops the c2 search before c2 |x - y|^2 / t passes 709,
    # where math.exp used to raise OverflowError
    dens = ou().exact_density
    grid = [(0.001, 0.0, 2.5)]
    values = [float(dens.density(*p)) for p in grid]
    spec = ee.fit_tail_bound(0, grid, values)
    assert spec.c1 == 0.0
    assert ee.check_tail_bound(spec, grid, values)["max_violation_ratio"] \
        == math.inf
    # a non-zero value whose weight overflows at every candidate fits
    # c1 = inf; an infinite envelope bounds anything, |k| / inf = 0, and
    # used to pass the check
    far, tiny = [(0.001, 0.0, 4.0)], [1e-300]
    spec = ee.fit_tail_bound(0, far, tiny)
    assert spec.c1 == math.inf
    assert ee.check_tail_bound(spec, far, tiny)["max_violation_ratio"] \
        == math.inf


def test_tail_bound_rejects_an_empty_grid():
    # the check used to certify no points with ratio 0.0, and the fit to
    # fail on a bare max() of an empty sequence
    with pytest.raises(ValueError, match="non-empty grid"):
        ee.fit_tail_bound(0, [], [])
    with pytest.raises(ValueError, match="non-empty grid"):
        ee.check_tail_bound(ee.TailBoundSpec(l=0, c1=1.0, c2=0.5), [], [])


def test_tail_bound_rejects_values_one_short_of_the_grid():
    # check_tail_bound returns at the first non-finite ratio, so a short
    # list must be caught before any point is read
    short = [math.nan] * (len(TAIL_GRID) - 1)
    with pytest.raises(ValueError):
        ee.fit_tail_bound(0, TAIL_GRID, short)
    with pytest.raises(ValueError):
        ee.check_tail_bound(ee.TailBoundSpec(l=0, c1=1.0, c2=0.5), TAIL_GRID,
                            short)


@pytest.mark.parametrize("point", [
    (0.0, 0.0, 0.1), (-0.5, 0.0, 0.1), (math.nan, 0.0, 0.1),
    (math.inf, 0.0, 0.1), (1.0, math.inf, 0.1), (1.0, 0.0, math.nan)],
    ids=["t0", "t-neg", "t-nan", "t-inf", "x-inf", "y-nan"])
def test_tail_bound_rejects_a_point_off_the_domain(point):
    # at t = 0 the fit raised ZeroDivisionError and the check warned of a
    # division by zero; at t = -0.5 the fit compared complex scales; at a
    # NaN t or y the fit returned c1 = nan, and at an infinite x c1 = inf
    grid = [(1.0, 0.2, 0.3), point]
    with pytest.raises(ValueError, match="finite, with t > 0"):
        ee.fit_tail_bound(0, grid, [0.3, 0.2])
    with pytest.raises(ValueError, match="finite, with t > 0"):
        ee.check_tail_bound(ee.TailBoundSpec(l=0, c1=1.0, c2=0.5), grid,
                            [0.3, 0.2])


# ---------------------------------------------------------------------------
# distribution pairings


def test_pairing_dirac_identities():
    m = ou()
    approx, exact = ee.distribution_pairing(m, tf.dirac(0.5), 64, 1.0, 1.0)
    assert abs(approx - euler_density_1d(m, 64).density(1.0, 1.0, 0.5)) < 1e-12
    assert abs(exact - m.exact_density.density(1.0, 1.0, 0.5)) < 1e-12
    da, de = ee.distribution_pairing(m, tf.dirac(0.5, 1), 64, 1.0, 1.0)
    h = 1e-4
    fd = -(m.exact_density.density(1.0, 1.0, 0.5 + h) - m.exact_density.density(1.0, 1.0, 0.5 - h)) / (
        2 * h)
    assert abs(de - fd) < 1e-6


def test_pairing_with_pi_square():
    m = ou()
    val, err = ee.pairing_with_pi(m, tf.square(), 1.0, 1.0)
    direct, _ = ee.principal_term_Ct(m, tf.square(), 1.0, 1.0)
    assert abs(val - direct) < 1e-5


def test_pairing_with_pi_exp_abs_oracle():
    m = ou()
    exp_abs = tf.TestFunction(lambda v: np.exp(np.abs(v)), name="exp-abs")
    val, err = ee.pairing_with_pi(m, exp_abs, 1.0, 1.0, tol=1e-5)
    assert abs(val - PAIR_EXPABS) < 1e-4


def test_pairing_approaches_pi_like_one_over_n():
    m = ou()
    S = tf.square()
    limit, _ = ee.pairing_with_pi(m, S, 1.0, 1.0)
    for n in (64, 128):
        approx, exact = ee.distribution_pairing(m, S, n, 1.0, 1.0)
        assert abs(n * (approx - exact) - limit) < 4.0 / n


def test_distribution_pairing_rejects_unsupported_model():
    m = make_gbm_model(0.1, 0.2)
    with pytest.raises(ValueError):
        ee.distribution_pairing(m, tf.square(), 16, 1.0, 1.0)
