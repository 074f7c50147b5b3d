import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaklab import montecarlo as mc
from weaklab import pricing as pr
from weaklab import testfunctions as tf
from weaklab.models import (make_bounded_vol_model, make_constant_model,
                            make_gbm_model, make_ou_model)
from weaklab.rng import RngStream


def test_estimate_rejects_dirac():
    m = make_ou_model(1.0, 1.0)
    with pytest.raises(tf.UnsupportedFunctional):
        mc.estimate_expectation(m, tf.dirac(0.0), [0.0], 4, 1.0, 100,
                                RngStream(0, 0))
    # a ladder's per-path statistic is the functional too
    with pytest.raises(tf.UnsupportedFunctional):
        mc.bias_ladder(m, tf.dirac(0.0), [0.0], 1.0, [2, 4], 100,
                       RngStream(0, 0))


def test_estimate_matches_exact_euler_mean():
    m = make_gbm_model(0.1, 0.2)
    est = mc.estimate_expectation(m, tf.identity(), [1.0], 8, 1.0, 200_000,
                                  RngStream(21, 0))
    exact = (1 + 0.1 / 8) ** 8
    assert abs(est.value - exact) < 4 * est.std_error


def test_romberg_kills_first_order_bias():
    m = make_gbm_model(0.1, 0.2)
    est = mc.romberg_estimate(m, tf.identity(), [1.0], 8, 1.0, 400_000,
                              RngStream(22, 0))
    truth = math.exp(0.1)
    plain_bias = (1 + 0.1 / 8) ** 8 - truth
    # extrapolated estimate should sit much nearer the truth than the
    # first-order bias, up to MC noise
    assert abs(est.value - truth) < abs(plain_bias) / 4 + 3 * est.std_error
    exact_romb = 2 * (1 + 0.1 / 16) ** 16 - (1 + 0.1 / 8) ** 8 - truth
    assert abs(exact_romb) < abs(plain_bias) / 50


def test_richardson_table_eliminates_orders():
    # v(n) = 1 + 3/n + 5/n^2 -> order-3 table recovers 1 exactly
    v = lambda n: 1.0 + 3.0 / n + 5.0 / n**2
    vals = [(n, v(n)) for n in (4, 8, 16)]
    assert abs(mc.richardson_table(vals, 3) - 1.0) < 1e-12
    assert abs(mc.richardson_table(vals, 1) - v(16)) < 1e-15
    with pytest.raises(ValueError):
        mc.richardson_table([(4, 1.0), (12, 1.0)], 1)
    with pytest.raises(ValueError):
        mc.richardson_table(vals, 4)


def test_richardson_limit_does_not_depend_on_rung_order():
    # the weights (-1, 2) pair with the rungs in n order: given in reverse,
    # the CI used to weight rung 8's error by -1 and rung 4's by 2
    rungs = [(4, 0.10, 0.01), (8, 0.05, 0.02)]
    value, ci = mc.richardson_limit(rungs)
    assert mc.richardson_limit(rungs[::-1]) == (value, ci)
    assert ci == pytest.approx(3.0 * math.hypot(-1 * 4 * 0.01, 2 * 8 * 0.02))


def test_richardson_weights_reproduce_table():
    vals = [2.0, 1.3, 1.05]
    w = mc.richardson_weights(3, 2)
    direct = mc.richardson_table([(2**k, vals[k]) for k in range(3)], 2)
    assert abs(float(np.dot(w, vals)) - direct) < 1e-14


def test_fit_rate_recovers_slope():
    meas = [(n, 2.5 / n, 1e-6) for n in (8, 16, 32, 64, 128)]
    fit = mc.fit_rate(meas)
    assert abs(fit.slope + 1.0) < 1e-6
    assert fit.r_squared > 0.999999
    assert not fit.excluded


def test_fit_rate_noise_gate_and_insufficient_signal():
    meas = [(n, 1e-9, 1.0) for n in (8, 16, 32, 64)]
    with pytest.raises(mc.InsufficientSignal) as exc:
        mc.fit_rate(meas)
    assert exc.value.cleared == 0
    with pytest.raises(mc.InsufficientSignal) as exc:
        mc.fit_rate(meas[:2] + [(32, 1.0, 1e-3), (64, 0.5, 1e-3)])
    assert exc.value.cleared == 2
    mixed = [(8, 1.0, 1e-3), (16, 0.5, 1e-3), (32, 0.25, 1e-3),
             (64, 0.125, 1e-3), (128, 1e-9, 1.0)]
    fit = mc.fit_rate(mixed)
    assert len(fit.excluded) == 1
    assert abs(fit.slope + 1.0) < 1e-3


def test_fit_rate_needs_four_distinct_resolutions():
    # every point clears the gate, but one repeated n is no ladder: polyfit
    # fitted four equal abscissae and returned a slope a gate could pass
    for ns in ([8, 8, 8, 8], [8, 16, 16, 32]):
        with pytest.raises(mc.InsufficientSignal, match="distinct n") as exc:
            mc.fit_rate([(n, 2.5 / n, 1e-6) for n in ns])
        assert exc.value.cleared == 4


def test_fit_rate_tiny_ci_does_not_overflow_weights():
    # weight |e| / ci would be ~4.5e307 here: polyfit raised LinAlgError.
    # The floor gives it the weight of a zero-CI point.
    meas = [(1, -1.0, 0.0), (2, -1.0, 0.0), (55, -1.0, 2.2e-308),
            (3, -1.0, 0.0)]
    fit = mc.fit_rate(meas, noise_gate=1.0)
    assert abs(fit.slope) < 1e-12 and not fit.excluded
    tiny = mc.fit_rate([(n, 2.5 / n, 1e-300) for n in (8, 16, 32, 64)])
    zero = mc.fit_rate([(n, 2.5 / n, 0.0) for n in (8, 16, 32, 64)])
    assert tiny.slope == zero.slope


def test_reference_value_prefers_quadrature():
    m = make_ou_model(1.0, 1.0)
    val, se, oracle = mc.reference_value(m, tf.square(), [1.0], 1.0, 64,
                                         10_000, RngStream(1, 1))
    assert oracle == "semigroup-quadrature"
    assert se == 0.0
    want = math.exp(-2.0) + 0.5 * (1 - math.exp(-2.0))
    assert abs(val - want) < 1e-10


def test_bias_ladder_constant_model_is_noise():
    m = make_constant_model([0.2], [[0.5]])
    rungs = mc.bias_ladder(m, tf.square(), [0.0], 1.0, [4, 8], 100_000,
                           RngStream(17, 0))
    for n, b, s in rungs:
        assert abs(b) < 4 * s + 1e-13  # exact scheme: bias is pure noise


def test_coupled_rungs_evaluate_each_level_once():
    # at ref_multiple=1 the top rung is also the reference: levels 4, 8, 16
    calls = []

    def fn(v):
        calls.append(len(v))
        return np.asarray(v, dtype=float)[:, 0] ** 2

    f = tf.TestFunction(fn, name="counting-square")
    rungs = mc.bias_ladder(make_ou_model(1.0, 1.0), f, [1.0], 1.0, [4, 8],
                           1000, RngStream(3, 0), ref_multiple=1)
    assert calls == [1000] * 3
    assert [n for n, _, _ in rungs] == [4, 8]


def test_bias_times_n_limit_gbm():
    m = make_gbm_model(0.1, 0.2)
    val, ci = mc.bias_times_n_limit(m, tf.identity(), [1.0], 1.0,
                                    [16, 32, 64], 400_000, RngStream(23, 0))
    want = -math.exp(0.1) * 0.1**2 / 2
    assert abs(val - want) < max(ci, 1e-4)


def test_samples_for_ci_scales():
    m = make_ou_model(1.0, 1.0)
    n_small = mc.samples_for_ci(m, tf.identity(), [1.0], 4, 1.0, 1e-2,
                                RngStream(2, 2))
    n_big = mc.samples_for_ci(m, tf.identity(), [1.0], 4, 1.0, 1e-3,
                              RngStream(2, 2))
    assert n_big > 50 * n_small


_COEF = st.floats(-100.0, 100.0)


@given(c=_COEF, a=st.lists(_COEF, max_size=4),
       n0=st.integers(1, 64), extra=st.integers(0, 2), data=st.data())
def test_richardson_table_is_exact_on_polynomials_in_1_over_n(c, a, n0,
                                                              extra, data):
    # v(n) = c + sum_{k=1}^{order-1} a_k n^-k on a 2x ladder: the table of
    # that order eliminates every a_k, leaving c up to rounding
    order = len(a) + 1
    ns = [n0 * 2 ** i for i in range(order + extra)]
    vals = [(n, c + sum(ak * n ** -(k + 1) for k, ak in enumerate(a)))
            for n in data.draw(st.permutations(ns))]
    # rounding: a few ulps of the largest term, or of the subnormal range
    scale = abs(c) + sum(map(abs, a))
    assert abs(mc.richardson_table(vals, order) - c) \
        <= 64 * np.finfo(float).eps * scale + np.finfo(float).tiny


@given(gate=st.floats(0.5, 10.0), cleared=st.integers(0, 3),
       noise=st.integers(0, 8), data=st.data())
def test_fit_rate_never_fits_fewer_than_four_points(gate, cleared, noise,
                                                    data):
    ci = st.floats(0.0, 1e3)
    meas = []
    for i in range(cleared + noise):
        n, c = data.draw(st.integers(1, 4096)), data.draw(ci)
        if i < cleared:     # above the gate: |err| > gate * ci
            err = data.draw(st.sampled_from([-1.0, 1.0])) \
                * (gate * c + data.draw(st.floats(1e-3, 1e3)))
        else:               # at or below it
            err = data.draw(st.floats(-1.0, 1.0)) * (gate * c)
        meas.append((n, err, c))
    with pytest.raises(mc.InsufficientSignal) as exc:
        mc.fit_rate(data.draw(st.permutations(meas)), noise_gate=gate)
    assert exc.value.cleared == cleared


def test_bias_limit_rejects_a_negative_horizon():
    # not a limit of (0.0, 0.0): a zero CI would pass any gate
    with pytest.raises(ValueError, match="horizon t"):
        mc.bias_times_n_limit(make_ou_model(1.0, 1.0), tf.square(), [1.0],
                              -1.0, [8, 16, 32], 4096, RngStream(0, 0))


def test_empty_ladder_is_rejected():
    with pytest.raises(ValueError, match="n_ladder"):
        mc.bias_ladder(make_ou_model(1.0, 1.0), tf.square(), [1.0], 1.0, [],
                       100, RngStream(0, 0))
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="n_ladder"):
        pr.correction_estimate(make_bounded_vol_model(0.05, 0.2, 0.1), opt,
                               "price", [], 100, RngStream(0, 0))
