import hashlib
import math

import numpy as np
import pytest

from weaklab import testfunctions as tf
from weaklab.error_expansion import pi_rows
from weaklab.euler import simulate_ladder
from weaklab.gaussian import AffineGaussianDensity
from weaklab.models import (AssumptionViolation, MissingDensity,
                            make_bounded_vol_model, make_constant_model,
                            make_gbm_model, make_ou_model, model_from_config,
                            semigroup_apply)
from weaklab.rng import RngStream


def test_constant_model_exact_density():
    m = make_constant_model([0.5], [[0.8]])
    mean, std, push, _ = m.exact_density.gauss_coords(2.0, 0.3)
    A, c, V = m.exact_density.coefficients(2.0)
    assert push is None and std == math.sqrt(V)
    assert abs(mean - (0.3 + 1.0)) < 1e-14
    assert abs(V - 0.64 * 2.0) < 1e-14
    assert m.flag_B and m.flag_C


def test_constant_model_rejects_singular_diffusion():
    with pytest.raises(AssumptionViolation):
        make_constant_model([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])


def test_ou_law_matches_closed_form():
    m = make_ou_model(1.0, 1.0)
    mean, std, push, _ = m.exact_density.gauss_coords(1.0, 1.0)
    A, c, V = m.exact_density.coefficients(1.0)
    assert push is None and std == math.sqrt(V)
    assert abs(mean - math.exp(-1.0)) < 1e-14
    assert abs(V - 0.5 * (1 - math.exp(-2.0))) < 1e-14
    assert not m.flag_B  # unbounded drift


def test_gbm_is_not_elliptic():
    m = make_gbm_model(0.1, 0.2)
    assert not m.flag_C  # degenerate at the origin in natural coordinates


@pytest.mark.parametrize("theta, sigma", [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)])
def test_ou_law_is_the_closed_form_bit_for_bit(theta, sigma):
    # _affine_model_1d's law (A, c, V) = (e^{mt}, c(1 - e^{mt})/(-m),
    # a(1 - e^{2mt})/(-2m)) at m = -theta, c = 0, a = sigma^2 rounds
    # exactly as OU's own closed forms
    m = make_ou_model(theta, sigma)
    a0 = sigma * sigma
    for t in (1e-3, 0.1, 0.25, 0.5, 1.0, 2.0, 7.3):
        want = (math.exp(-theta * t), 0.0,
                a0 * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta))
        assert m.exact_density.coefficients(t) == want


@pytest.mark.parametrize("model", [
    make_ou_model(2.0, 0.5), make_constant_model([0.2], [[0.5]]),
    make_constant_model([0.1], [[0.3, 0.4]]), make_gbm_model(0.1, 0.2),
    make_bounded_vol_model(0.05, 0.2, 0.1)], ids=lambda m: m.name)
def test_euler_coefficients_are_the_oracles(model):
    c = model.coeffs1d
    x = np.linspace(0.1, 2.0, 7)[:, None]
    assert model.drift is c.b
    assert np.array_equal(model.diffusion(x),
                          np.reshape(c.sigma(x), (7, 1, model.dim_r)))


def test_tanh_vol_fused_coefficients_are_drift_and_diffusion():
    m = make_bounded_vol_model(0.05, 0.6, 0.5)
    x = np.concatenate([[-40.0, 40.0], np.linspace(-5.0, 5.0, 1001)])[:, None]
    b, sig = np.empty((1003, 1)), np.empty((1003, 1, 1))
    m.drift_diffusion(x, b, sig)
    assert b.tobytes() == m.drift(x).tobytes()
    assert sig.tobytes() == m.diffusion(x).tobytes()
    # the other models step on drift and diffusion
    assert make_ou_model(1.0, 1.0).drift_diffusion is None


def test_constant_model_with_two_noises_is_1d_affine():
    # d = 1 driven by r = 2 Brownian motions: a = s s^T = 0.25, and the
    # model keeps the 1-D law, oracles and pi = 0 of any 1-D constant model
    m = make_constant_model([0.1], [[0.3, 0.4]])
    assert (m.dim_d, m.dim_r) == (1, 2)
    assert isinstance(m.exact_density, AffineGaussianDensity)
    assert m.affine == (0.0, 0.1, 0.25)
    assert m.exact_density.coefficients(2.0) == (1.0, 0.2, 0.5)
    assert np.all(m.coeffs1d.a(np.linspace(-1, 1, 5)) == 0.25)
    assert m.ellipticity_eta == 0.25 and m.flag_B and m.flag_C
    vals, errs = pi_rows(m, 0.5, [0.0, 1.0], [0.2, 0.3])
    assert not vals.any() and not errs.any()
    # r normals per step: the seeded ladder endpoints, recorded with the
    # tile-based constant model that _affine_model_1d replaced
    lad = simulate_ladder(m, [[0.4], [1.1]], [4, 8, 16], 1.0,
                          RngStream(5, 0), 256)
    digest = hashlib.sha256(b"".join(lad[n].tobytes() for n in (4, 8, 16)))
    assert digest.hexdigest() == \
        "2e1149499da2ea7c1448d3753fb90e59f211f0f8dfe526bda81a1f4f310a46eb"


def test_tanh_vol_flags_and_bounds():
    m = make_bounded_vol_model(0.0, 0.25, 0.1)
    assert m.flag_B and m.flag_C
    assert abs(m.ellipticity_eta - 0.15**2) < 1e-15
    x = np.linspace(-10, 10, 101)
    sig = m.coeffs1d.sigma(x)
    assert np.all(sig >= 0.15 - 1e-12) and np.all(sig <= 0.35 + 1e-12)
    with pytest.raises(AssumptionViolation):
        make_bounded_vol_model(0.0, 0.1, 0.2)


def test_coefficient_derivative_oracles_consistent():
    m = make_bounded_vol_model(0.1, 0.3, 0.15)
    c = m.coeffs1d
    x = np.linspace(-2, 2, 9)
    h = 1e-5
    da_fd = (c.a(x + h) - c.a(x - h)) / (2 * h)
    assert np.allclose(c.da(x), da_fd, atol=1e-8)
    db_fd = (c.b(x + h) - c.b(x - h)) / (2 * h)
    assert np.allclose(c.db(x), db_fd, atol=1e-8)


def test_semigroup_ou_second_moment():
    m = make_ou_model(1.0, 1.0)
    got = semigroup_apply(m, 1.0, tf.square(), [1.0])
    want = math.exp(-2.0) + 0.5 * (1 - math.exp(-2.0))
    assert abs(got - want) < 1e-12


def test_semigroup_gbm_mean():
    m = make_gbm_model(0.1, 0.2)
    got = semigroup_apply(m, 1.0, tf.identity(), [1.0])
    assert abs(got - math.exp(0.1)) < 1e-12


def test_semigroup_dirac_kinds():
    for m, y in ((make_ou_model(1.0, 1.0), 0.2),
                 (make_gbm_model(0.1, 0.2), 1.2)):
        dens = m.exact_density
        got = semigroup_apply(m, 0.5, tf.dirac(y), [1.0])
        assert got == float(dens.density(0.5, 1.0, y)), m.name
        got = semigroup_apply(m, 0.5, tf.dirac(y, 1), [1.0])
        assert got == -float(dens.deriv(0, 1, 0.5, 1.0, y)), m.name
        got = semigroup_apply(m, 0.5, tf.dirac(y, 2), [1.0])
        assert got == float(dens.deriv(0, 2, 0.5, 1.0, y)), m.name


@pytest.mark.parametrize("f", [tf.dirac(0.2), tf.dirac(0.2, 1)],
                         ids=["dirac", "dirac_deriv"])
def test_semigroup_multivariate_rejects_dirac(f):
    # a d-dim Dirac pairing is not implemented: it must not read the
    # density from the first coordinate of x alone
    m = make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]])
    with pytest.raises(tf.UnsupportedFunctional):
        semigroup_apply(m, 1.0, f, [1.0, 2.0])


def test_semigroup_multivariate_constant():
    s0 = np.array([[0.5, 0.0], [0.1, 0.4]])
    m = make_constant_model([0.1, -0.2], s0)
    f = tf.TestFunction(lambda v: v[:, 0] + v[:, 1] ** 2, name="mix")
    got = semigroup_apply(m, 1.0, f, [0.0, 0.0])
    a = s0 @ s0.T
    want = 0.1 + (-0.2) ** 2 + a[1, 1]
    assert abs(got - want) < 1e-10


def test_semigroup_multivariate_rejects_negative_time():
    # a t < 0 gives a negative definite covariance a t
    m = make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]])
    f = tf.TestFunction(lambda v: v[:, 0], name="first")
    with pytest.raises(ValueError):
        semigroup_apply(m, -0.5, f, [0.0, 0.0])


def test_semigroup_requires_density():
    m = make_bounded_vol_model(0.0, 0.25, 0.1)
    with pytest.raises(MissingDensity):
        semigroup_apply(m, 1.0, tf.identity(), [0.0])


def test_model_from_config_roundtrip_and_rejection():
    m = model_from_config({"model": "ou", "theta": 2.0, "sigma": 0.5})
    assert m.name == "ou"
    with pytest.raises(ValueError):
        model_from_config({"model": "ou", "theta": 2.0})
    with pytest.raises(ValueError):
        model_from_config({"model": "ou", "theta": 2.0, "sigma": 0.5,
                           "extra": 1})
    with pytest.raises(ValueError):
        model_from_config({"model": "heston", "kappa": 1.0})
    with pytest.raises(ValueError):
        model_from_config({"model": "gbm", "mu": "x", "sigma": 0.2})
