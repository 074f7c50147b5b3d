import math

import numpy as np
import pytest

from weaklab.euler import euler_density_1d
from weaklab.gaussian import (AffineGaussianDensity, LognormalDensity,
                              hermite_He, normal_pdf, normal_pdf_dy)
from weaklab.models import make_constant_model, make_gbm_model, make_ou_model

# 4th-order central finite-difference stencils, offsets and coefficients
# (over h^order), for derivative orders 1..4: the reference the exact
# density derivatives are checked against
_FD_STENCILS = {
    1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
    3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8]),
    4: ([-3, -2, -1, 0, 1, 2, 3],
        [-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6]),
}


def fd_derivative(fn, x, order: int, h: float):
    """Central finite-difference derivative of fn at x, 4th-order accurate."""
    if order == 0:
        return fn(x)
    offsets, coeffs = _FD_STENCILS[order]
    return sum(c * fn(x + o * h) for o, c in zip(offsets, coeffs)) / h**order


def test_hermite_values():
    u = np.array([0.0, 1.0, 2.0])
    assert np.allclose(hermite_He(0, u), 1.0)
    assert np.allclose(hermite_He(1, u), u)
    assert np.allclose(hermite_He(2, u), u * u - 1.0)
    assert np.allclose(hermite_He(3, u), u**3 - 3 * u)


def test_normal_pdf_dy_matches_fd():
    for k in range(1, 5):
        got = normal_pdf_dy(k, 0.7, 0.2, 0.9)
        want = fd_derivative(lambda y: normal_pdf(y, 0.2, 0.9), 0.7, k, 1e-2)
        assert abs(got - want) < 1e-6 * max(1.0, abs(got))


def test_fd_stencils_exact_on_polynomials():
    # 4th-order stencils differentiate low-degree polynomials exactly
    p = lambda x: 2 + 3 * x - x**2 + 0.5 * x**3
    assert abs(fd_derivative(p, 1.0, 1, 1e-2) - (3 - 2 + 1.5)) < 1e-10
    assert abs(fd_derivative(p, 1.0, 2, 1e-2) - (-2 + 3)) < 1e-8
    assert abs(fd_derivative(p, 1.0, 3, 1e-2) - 3.0) < 1e-6


def test_affine_density_derivatives_match_fd():
    dens = AffineGaussianDensity(lambda t: (math.exp(-t), 0.1 * t,
                                            0.5 * (1 - math.exp(-2 * t))))
    t, x, y = 0.7, 0.4, -0.3
    for a in range(3):
        for b in range(3):
            got = dens.deriv(a, b, t, x, y)
            want = fd_derivative(
                lambda xx: fd_derivative(
                    lambda yy: dens.density(t, xx, yy), y, b, 1e-2),
                x, a, 1e-2)
            assert abs(got - want) < 1e-6


def test_affine_center_on_target_inverts_law():
    dens = AffineGaussianDensity(lambda t: (2.0, 1.0, t))
    mean, std, push, dpush = dens.center_on_target(0.25, 3.0)
    assert push is None
    assert abs(mean - 1.0) < 1e-14          # (3 - 1) / 2
    assert abs(std - 0.25) < 1e-14          # sqrt(0.25) / 2


def test_lognormal_density_normalizes_and_means():
    dens = LognormalDensity(0.1, 0.2)
    y = np.linspace(1e-6, 8.0, 400001)
    p = dens.density(1.0, 1.0, y)
    assert abs(np.trapezoid(p, y) - 1.0) < 1e-6
    assert abs(np.trapezoid(y * p, y) - math.exp(0.1)) < 1e-5
    # the law is exp(N(m, s^2)), whose mean is exp(m + s^2 / 2)
    m, s, push, _ = dens.gauss_coords(1.0, 1.0)
    assert abs(push(m + 0.5 * s * s) - math.exp(0.1)) < 1e-15


def test_lognormal_derivatives_match_fd():
    dens = LognormalDensity(0.1, 0.25)
    t, x, y = 0.8, 1.1, 0.9
    for a in range(4):
        for b in range(4):
            got = float(dens.deriv(a, b, t, x, y))
            want = fd_derivative(
                lambda xx: fd_derivative(
                    lambda yy: dens.density(t, xx, yy), y, b, 2e-3),
                x, a, 2e-3)
            assert abs(got - want) < 2e-4 * max(1.0, abs(got)), (a, b)


def test_lognormal_deriv_order_zero_is_the_density():
    # one formula for the plain density, so a routine may call either name
    dens = LognormalDensity(0.05, 0.3)
    y = np.linspace(0.3, 2.5, 200)
    assert np.array_equal(dens.deriv(0, 0, 0.25, 0.8, y),
                          dens.density(0.25, 0.8, y))


def test_lognormal_deriv_order_cap():
    dens = LognormalDensity(0.1, 0.25)
    with pytest.raises(ValueError):
        dens.deriv(7, 0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("dens", [
    make_ou_model(1.0, 1.0).exact_density,
    make_constant_model([0.2], [[0.5]]).exact_density,
    euler_density_1d(make_ou_model(1.0, 1.0), 8),
    make_gbm_model(0.1, 0.2).exact_density],
    ids=["ou", "constant-1d", "euler-ou-8", "gbm"])
def test_array_times_equal_scalar_times(dens):
    # one time per row, a repeated one among them; every entry of an
    # array-t call must be the scalar-t call's, bit for bit
    t = np.array([0.05, 0.3, 0.3, 0.7, 1.0])
    x = np.array([0.8, 1.1, 0.9, 1.3, 1.0])
    y = np.linspace(0.6, 1.5, 6) + 0.1 * np.arange(5)[:, None]
    for a in range(3):
        for b in range(3):
            got = dens.deriv(a, b, t[:, None], x[:, None], y)
            for i in range(t.size):
                want = dens.deriv(a, b, float(t[i]), float(x[i]), y[i])
                assert got[i].tobytes() == want.tobytes()
    for coords in (dens.gauss_coords, dens.center_on_target):
        mean, std, *_ = coords(t, x)
        for i in range(t.size):
            m_i, s_i, *_ = coords(float(t[i]), float(x[i]))
            assert (mean[i].hex(), std[i].hex()) == \
                (float(m_i).hex(), float(s_i).hex())
