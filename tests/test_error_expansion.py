import math

import numpy as np
import pytest

from weaklab import error_expansion as ee
from weaklab import testfunctions as tf
from weaklab.euler import euler_density_1d
from weaklab.gaussian import normal_pdf, normal_pdf_dy
from weaklab.models import make_constant_model, make_gbm_model, make_ou_model

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


def test_l2star_ou_closed_form():
    g1, g2, g3 = ee.l2star_coefficients(ou())
    # b = -z, a = 1: g1 = -z, g2 = 1, g3 = 0 (times theta^2, sigma^2 = 1)
    for z in (-1.3, 0.0, 0.7, 2.1):
        assert abs(g1(z) - (-z)) < 1e-12
        assert abs(g2(z) - 1.0) < 1e-12
        assert abs(g3(z)) < 1e-12


def test_l2star_constant_model_vanishes():
    g1, g2, g3 = ee.l2star_coefficients(make_constant_model([0.3], [[0.7]]))
    for z in (-2.0, 0.0, 1.5):
        assert abs(g1(z)) + abs(g2(z)) + abs(g3(z)) < 1e-12


def test_apply_l2star_polynomial():
    # OU, g(z) = z^3: L2* g = -z * 3z^2 + 1 * 6z = -3 z^3 + 6 z
    out = ee.apply_L2star(ou(), lambda z: z**3, np.array([-1.0, 0.5, 2.0]))
    want = -3.0 * np.array([-1.0, 0.5, 2.0]) ** 3 + 6.0 * np.array(
        [-1.0, 0.5, 2.0])
    assert np.allclose(out, want, atol=1e-6)


def test_apply_l2star_linear_in_g():
    z = np.array([-0.4, 0.9])
    m = gbm()
    a = ee.apply_L2star(m, lambda y: y**2, z)
    b = ee.apply_L2star(m, lambda y: np.sin(y), z)
    both = ee.apply_L2star(m, lambda y: 2 * y**2 + 3 * np.sin(y), z)
    assert np.allclose(both, 2 * a + 3 * b, atol=1e-5)


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


def test_ct_dirac_matches_pi():
    m = ou()
    direct = ee.principal_density_pi(m, 1.0, 1.0, 0.5).value
    via_ct, _ = ee.principal_term_Ct(m, tf.dirac(0.5), 1.0, 1.0)
    assert abs(direct - via_ct) < 1e-9


@pytest.mark.parametrize("f", [tf.dirac(0.3), tf.dirac_deriv(0.3, 1)],
                         ids=["dirac", "dirac-deriv"])
def test_ct_dirac_accepts_list_x(f):
    m = ou()
    assert ee.principal_term_Ct(m, f, 0.5, [0.1]) == \
        ee.principal_term_Ct(m, f, 0.5, 0.1)


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
    ok = ee.TailBoundSpec(l=0, c1=0.5, c2=0.5)
    rep = ee.check_tail_bound(heat, ok, grid)
    assert rep["max_violation_ratio"] <= 1.0
    too_sharp = ee.TailBoundSpec(l=0, c1=0.35, c2=0.5)
    rep2 = ee.check_tail_bound(heat, too_sharp, grid)
    assert rep2["max_violation_ratio"] > 1.0


def test_fit_tail_bound_heat_kernel_recovers_sharp_rate():
    heat = lambda t, x, y: normal_pdf(y, x, t)
    grid = [(t, x, y) for t in (0.25, 0.5, 1.0) for x in (-1.0, 0.0, 1.0)
            for y in (-2.5, -1.0, 0.0, 1.0, 2.5)]
    spec = ee.fit_tail_bound(heat, 0, grid)
    assert spec.c2 >= 0.45  # Gaussian admits the sharp rate 1/2
    rep = ee.check_tail_bound(heat, spec, grid)
    assert rep["max_violation_ratio"] <= 1.0


def test_fit_tail_bound_pi_kernel():
    m = ou()
    kern = lambda t, x, y: ee.principal_density_pi(m, t, x, y).value
    grid = [(t, x, y) for t in (0.5, 1.0) for x in (-1.0, 1.0)
            for y in (-1.0, 0.0, 1.0)]
    spec = ee.fit_tail_bound(kern, 1, grid)
    rep = ee.check_tail_bound(kern, spec, grid)
    assert rep["max_violation_ratio"] <= 1.0
    assert spec.c2 > 0.0


def test_seminorm_gaussian():
    kern = lambda b, y: normal_pdf_dy(b, y, 0.0, 1.0)
    grid = np.linspace(-8.0, 8.0, 4001)
    val = ee.seminorm_Nq(kern, 0, grid)
    assert abs(val - 1.0 / math.sqrt(2 * math.pi)) < 1e-6


# ---------------------------------------------------------------------------
# distribution pairings


def test_pairing_dirac_identities():
    m = ou()
    approx, exact = ee.distribution_pairing(m, tf.dirac(0.5), 64, 1.0, 1.0)
    assert abs(approx - euler_density_1d(m, 64).density(1.0, 1.0, 0.5)) < 1e-12
    assert abs(exact - m.exact_density.density(1.0, 1.0, 0.5)) < 1e-12
    da, de = ee.distribution_pairing(m, tf.dirac_deriv(0.5, 1), 64, 1.0,
                                     1.0)
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
    val, err = ee.pairing_with_pi(m, tf.exp_growth(lambda v: np.exp(np.abs(v)), mu=1.0, c1=1.0, c2=1.0, name='exp-abs'), 1.0, 1.0, tol=1e-5)
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
