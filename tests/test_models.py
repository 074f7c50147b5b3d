import hashlib
import math

import numpy as np
import pytest

from weaklab import testfunctions as tf
from weaklab.error_expansion import pi_rows
from weaklab.euler import simulate_ladder
from weaklab.gaussian import AffineGaussianDensity
from weaklab.models import (AssumptionViolation, MissingDensity,
                            affine_triple, is_constant,
                            make_bounded_vol_model,
                            make_constant_model, make_gbm_model,
                            make_ou_model, model_from_config, semigroup_apply)
from weaklab.rng import RngStream


def test_constant_model_exact_density():
    m = make_constant_model([0.5], [[0.8]])
    table = m.exact_density.time_table(2.0, 0)
    mean, std, push, _ = m.exact_density.gauss_coords(table, 0.3)
    A, c, V = table[:3]
    assert push is None and std == math.sqrt(V)
    assert abs(mean - (0.3 + 1.0)) < 1e-14
    assert abs(V - 0.64 * 2.0) < 1e-14
    assert m.flag_B and m.flag_C


def test_constant_model_rejects_singular_diffusion():
    with pytest.raises(AssumptionViolation):
        make_constant_model([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])


def test_ou_law_matches_closed_form():
    m = make_ou_model(1.0, 1.0)
    table = m.exact_density.time_table(1.0, 0)
    mean, std, push, _ = m.exact_density.gauss_coords(table, 1.0)
    A, c, V = table[:3]
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
        assert tuple(m.exact_density.time_table(t, 0)[:3]) == want


@pytest.mark.parametrize("model", [
    make_ou_model(2.0, 0.5), make_constant_model([0.2], [[0.5]]),
    make_constant_model([0.1], [[0.3, 0.4]]), make_gbm_model(0.1, 0.2),
    make_bounded_vol_model(0.05, 0.2, 0.1)], ids=lambda m: m.name)
def test_euler_coefficients_are_the_oracles(model):
    # the Euler drift and diffusion are the polynomial b and
    # a = sigma sigma^T that the error expansion differentiates; tanh-vol
    # states none, and its drift is a0 - sigma^2/2 of its diffusion
    x = np.linspace(0.1, 2.0, 7)[:, None]
    b, sig = model.drift(x), model.diffusion(x)
    assert b.shape == (7, 1) and sig.shape == (7, 1, model.dim_r)
    if model.poly is None:
        assert model.name == "tanh_vol"
        assert np.array_equal(b[:, 0], 0.05 - 0.5 * sig[:, 0, 0] ** 2)
        return
    pb, pa = model.poly
    assert np.allclose(b[:, 0], pb(x[:, 0]), rtol=1e-14, atol=0.0)
    assert np.allclose((sig[:, 0] ** 2).sum(axis=1), pa(x[:, 0]),
                       rtol=1e-14, atol=0.0)


def test_affine_triple_reads_the_polynomials():
    # (m, c, a) of b = m x + c and a constant a; None for any other model
    assert affine_triple(make_ou_model(2.0, 0.5)) == (-2.0, 0.0, 0.25)
    assert affine_triple(make_constant_model([0.2], [[0.5]])) == \
        (0.0, 0.2, 0.25)
    for m in (make_gbm_model(0.1, 0.2), make_bounded_vol_model(0.05, 0.2, 0.1),
              make_constant_model([0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]])):
        assert affine_triple(m) is None


def _tanh_vol_reference(x):
    sig = 0.6 + 0.5 * np.tanh(x)
    return 0.05 - 0.5 * sig ** 2, sig[..., None]


# (model, reference): each model's drift and diffusion in closed form, the
# operations in the order the writer performs them, so they agree bit for bit
FUSED_CASES = [
    (make_ou_model(2.0, 0.5),
     lambda x: (-2.0 * x + 0.0, np.full(x.shape + (1,), 0.5))),
    (make_constant_model([0.2], [[0.5]]),
     lambda x: (0.0 * x + 0.2, np.full(x.shape + (1,), 0.5))),
    (make_constant_model([0.1], [[0.3, 0.4]]),
     lambda x: (0.0 * x + 0.1, np.broadcast_to([0.3, 0.4], x.shape + (2,)))),
    (make_gbm_model(0.1, 0.2), lambda x: (0.1 * x, 0.2 * x[..., None])),
    (make_bounded_vol_model(0.05, 0.6, 0.5), _tanh_vol_reference),
    (make_constant_model([0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]]),
     lambda x: (np.broadcast_to([0.1, -0.2], x.shape),
                np.broadcast_to([[0.3, 0.1], [0.0, 0.4]], x.shape + (2,)))),
]


@pytest.mark.parametrize("case", FUSED_CASES, ids=lambda c: c[0].name)
def test_fused_coefficients_are_drift_and_diffusion(case):
    model, reference = case
    x1 = np.concatenate([[-40.0, 40.0], np.linspace(-5.0, 5.0, 1001)])
    x = np.repeat(x1[:, None], model.dim_d, axis=1)
    b = np.empty((1003, model.dim_d))
    sig = np.empty((1003, model.dim_d, model.dim_r))
    model.drift_diffusion(x, b, sig)
    want_b, want_sig = reference(x)
    assert b.tobytes() == want_b.tobytes()
    assert sig.tobytes() == want_sig.tobytes()
    assert model.drift(x).tobytes() == b.tobytes()
    assert model.diffusion(x).tobytes() == sig.tobytes()


def test_constant_model_with_two_noises_is_1d_affine():
    # d = 1 driven by r = 2 Brownian motions: a = s s^T = 0.25, and the
    # model keeps the 1-D law, oracles and pi = 0 of any 1-D constant model
    m = make_constant_model([0.1], [[0.3, 0.4]])
    assert (m.dim_d, m.dim_r) == (1, 2)
    assert isinstance(m.exact_density, AffineGaussianDensity)
    assert affine_triple(m) == (0.0, 0.1, 0.25)
    assert tuple(m.exact_density.time_table(2.0, 0)[:3]) == (1.0, 0.2, 0.5)
    assert np.all(m.poly[1](np.linspace(-1, 1, 5)) == 0.25)
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
    assert m.poly is None
    x = np.linspace(-10, 10, 101)[:, None]
    sig = m.diffusion(x)
    assert np.all(sig >= 0.15 - 1e-12) and np.all(sig <= 0.35 + 1e-12)
    with pytest.raises(AssumptionViolation):
        make_bounded_vol_model(0.0, 0.1, 0.2)


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


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("model", [
    make_ou_model(1.0, 1.0), make_gbm_model(0.1, 0.2),
    make_constant_model([0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]])],
    ids=["ou", "gbm", "constant-2d"])
def test_semigroup_rejects_a_negative_or_non_finite_time(model, t):
    # a NaN t returned nan; t = -1 raised a math domain error in 1-D and
    # LinAlgError in 2-D; t = inf returned 0.5 on OU and warned on GBM
    with pytest.raises(ValueError, match="finite and non-negative"):
        semigroup_apply(model, t, tf.square(), [0.4] * model.dim_d)


def test_semigroup_at_time_zero_is_f():
    for m in (make_ou_model(1.0, 1.0), make_gbm_model(0.1, 0.2),
              make_constant_model([0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]])):
        got = semigroup_apply(m, 0.0, tf.square(), [0.4] * m.dim_d)
        assert abs(got - 0.16) < 1e-12, m.name


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
    # an int is a number; a bool, a numeric string, NaN, inf or an int past
    # the double range is not, nor is a constant model's b or s that is not
    # a list of finite numbers
    assert affine_triple(model_from_config(
        {"model": "ou", "theta": 2, "sigma": 1})) == \
        affine_triple(make_ou_model(2.0, 1.0))
    assert is_constant(model_from_config(
        {"model": "constant", "b": [0.1], "s": [[0.5, 0.0]]}))
    for bad in ({"model": "ou", "theta": math.nan, "sigma": 0.5},
                {"model": "gbm", "mu": math.nan, "sigma": 0.2},
                {"model": "tanh_vol", "a0": 0.05, "b0": math.inf, "c0": 0.1},
                {"model": "ou", "theta": True, "sigma": 0.5},
                {"model": "ou", "theta": "2", "sigma": 0.5},
                {"model": "ou", "theta": 10**400, "sigma": 0.5},
                {"model": "constant", "b": [0.1], "s": [[math.nan]]},
                {"model": "constant", "b": [math.inf], "s": [[0.5]]},
                {"model": "constant", "b": 0.1, "s": [[0.5]]},
                {"model": "constant", "b": [0.1], "s": [[True]]}):
        with pytest.raises(ValueError):
            model_from_config(bad)


_BUILDERS = {"ou": (make_ou_model, {"theta": 1.0, "sigma0": 1.0}),
             "gbm": (make_gbm_model, {"mu": 0.1, "sigma0": 0.2}),
             "tanh-vol": (make_bounded_vol_model,
                          {"a0": 0.05, "b0": 0.2, "c0": 0.1}),
             "constant": (make_constant_model, {"b0": [0.3], "s0": [[1.0]]})}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, name", [
    pytest.param(kind, name, id=f"{kind}-{name}")
    for kind, (_, params) in _BUILDERS.items() for name in params])
def test_builders_reject_nonfinite_parameters(kind, name, bad):
    # semigroup_apply used to return 0.0 for OU(inf, 1), inf for OU(1, inf)
    # and NaN for OU(nan, 1), GBM(nan, 0.2), GBM(0.1, inf) and
    # constant([nan], [[1]]); tanh-vol(nan, 0.2, 0.1) built
    build, params = _BUILDERS[kind]
    args = dict(params)
    args[name] = np.full(np.shape(args[name]), bad).tolist()
    with pytest.raises(ValueError, match="finite"):
        build(**args)
