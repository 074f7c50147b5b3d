import math

import numpy as np
import pytest

from weaklab import testfunctions as tf
from weaklab.models import (AssumptionViolation, MissingDensity,
                            make_bounded_vol_model, make_constant_model,
                            make_gbm_model, make_ou_model, model_from_config,
                            semigroup_apply)


def test_constant_model_exact_density():
    m = make_constant_model([0.5], [[0.8]])
    law = m.exact_density.law(2.0, 0.3)
    assert abs(law.mean1 - (0.3 + 1.0)) < 1e-14
    assert abs(law.var - 0.64 * 2.0) < 1e-14
    assert m.flag_B and m.flag_C


def test_constant_model_rejects_singular_diffusion():
    with pytest.raises(AssumptionViolation):
        make_constant_model([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])


def test_ou_law_matches_closed_form():
    m = make_ou_model(1.0, 1.0)
    law = m.exact_density.law(1.0, 1.0)
    assert abs(law.mean1 - math.exp(-1.0)) < 1e-14
    assert abs(law.var - 0.5 * (1 - math.exp(-2.0))) < 1e-14
    assert not m.flag_B  # unbounded drift


def test_gbm_log_coefficients():
    m = make_gbm_model(0.1, 0.2)
    b, s = m.log_coefficients
    assert abs(b - (0.1 - 0.02)) < 1e-15
    assert s == 0.2
    assert not m.flag_C  # degenerate at the origin in natural coordinates


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
    m = make_ou_model(1.0, 1.0)
    dens = m.exact_density
    got = semigroup_apply(m, 0.5, tf.dirac(0.2), [1.0])
    assert abs(got - float(dens.density(0.5, 1.0, 0.2))) < 1e-15
    got = semigroup_apply(m, 0.5, tf.dirac_deriv(0.2, 1), [1.0])
    assert abs(got + float(dens.deriv(0, 1, 0.5, 1.0, 0.2))) < 1e-15


def test_semigroup_multivariate_constant():
    m = make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]])
    f = tf.smooth_poly(lambda v: v[:, 0] + v[:, 1] ** 2, 1.0, 2, "mix")
    got = semigroup_apply(m, 1.0, f, [0.0, 0.0])
    a = m.cov([0.0, 0.0])[0]
    want = 0.1 + (-0.2) ** 2 + a[1, 1]
    assert abs(got - want) < 1e-10


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
