import math
from unittest import mock

import numpy as np
import pytest
from scipy.stats import norm

from weaklab import pricing as pr
from weaklab.models import make_bounded_vol_model, make_constant_model
from weaklab.rng import RngStream


def bs_market(sigma=0.2):
    # log-underlying of zero-rate Black-Scholes: dX = -sigma^2/2 dt + sigma dW
    return make_constant_model([-0.5 * sigma**2], [[sigma]])


def test_make_payoff_values_and_growth():
    u = np.array([0.5, 1.0, 1.5, 4.0])
    call = pr.make_payoff("call", strike=1.0)
    assert np.allclose(call(u), [0.0, 0.0, 0.5, 3.0])
    assert call.check_growth(u)
    put = pr.make_payoff("put", strike=1.0)
    assert np.allclose(put(u), [0.5, 0.0, 0.0, 0.0])
    dig = pr.make_payoff("digital", strike=1.0)
    assert np.allclose(dig(u), [0.0, 0.0, 1.0, 1.0])
    assert np.allclose(pr.make_payoff("power", power=2)(u), u**2)
    with pytest.raises(ValueError):
        pr.make_payoff("lookback")


def test_option_spec_validation():
    call = pr.make_payoff("call", strike=1.0)
    with pytest.raises(ValueError):
        pr.OptionSpec(call, t=1.5, v=1.0)
    with pytest.raises(ValueError):
        pr.OptionSpec(call, t=0.5, v=-1.0)


def test_black_scholes_put_call_parity():
    p_c, d_c, g_c = pr.black_scholes_call(1.1, 1.0, 0.2, 0.75)
    p_p, d_p, g_p = pr.black_scholes_put(1.1, 1.0, 0.2, 0.75)
    assert abs((p_c - p_p) - (1.1 - 1.0)) < 1e-12
    assert abs((d_c - d_p) - 1.0) < 1e-12
    assert abs(g_c - g_p) < 1e-12


@pytest.mark.parametrize("v, k, sigma, t", [
    (1.0, 1.0, 0.2, 1.0), (1.3, 0.8, 0.35, 0.5), (0.6, 1.4, 0.1, 0.25)])
def test_black_scholes_call_matches_scipy_stats(v, k, sigma, t):
    st = sigma * math.sqrt(t)
    d1 = (math.log(v / k) + 0.5 * sigma * sigma * t) / st
    want = (v * norm.cdf(d1) - k * norm.cdf(d1 - st), norm.cdf(d1),
            norm.pdf(d1) / (v * st))
    assert pr.black_scholes_call(v, k, sigma, t) == want


def test_price_euler_matches_black_scholes():
    m = bs_market(0.2)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    est = pr.price_euler(m, opt, 64, 200_000, RngStream(31, 0))
    truth, _, _ = pr.black_scholes_call(1.0, 1.0, 0.2, 1.0)
    # constant log-coefficients: Euler law is exact, only MC noise remains
    assert abs(est.value - truth) < 4 * est.std_error


def test_greeks_euler_matches_black_scholes():
    m = bs_market(0.2)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    rep = pr.greeks_euler(m, opt, 64, 400_000, RngStream(32, 0), bump=0.02)
    price, delta, gamma = pr.black_scholes_call(1.0, 1.0, 0.2, 1.0)
    assert abs(rep.price - price) < 4 * rep.price_se
    assert abs(rep.delta - delta) < 4 * rep.delta_se + 1e-3
    assert abs(rep.gamma - gamma) < 4 * rep.gamma_se + 5e-2


def test_greeks_draw_one_ladder_per_chunk():
    # the three bumped spots share one simulation, so one set of normals
    m = make_bounded_vol_model(0.05, 0.2, 0.1)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    with mock.patch("weaklab.pricing.simulate_ladder",
                    wraps=pr.simulate_ladder) as lad:
        pr.greeks_euler(m, opt, 8, 1001, RngStream(3, 3))
    lad.assert_called_once()
    assert np.shape(lad.call_args.args[1]) == (3, 1)


def test_correction_builds_each_level_once():
    # at ref_multiple=1 the top rung is also the reference: levels 2, 4, 8
    m = bs_market(0.2)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    with mock.patch("weaklab.pricing._fd_columns",
                    wraps=pr._fd_columns) as fd:
        pr.correction_estimate(m, opt, "delta", [2, 4], 500, RngStream(3, 4),
                               ref_multiple=1)
    assert fd.call_count == 3


def test_greeks_validation():
    m = bs_market()
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        pr.greeks_euler(m, opt, 8, 100, RngStream(0, 0), bump=0.5)


def test_crn_reproducibility():
    m = make_bounded_vol_model(0.05, 0.2, 0.1)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    a = pr.greeks_euler(m, opt, 16, 20_000, RngStream(33, 0))
    b = pr.greeks_euler(m, opt, 16, 20_000, RngStream(33, 0))
    assert a == b  # bit-identical rerun under the same stream


def test_price_romberg_reduces_bias():
    m = make_bounded_vol_model(0.05, 0.2, 0.1)
    opt = pr.OptionSpec(pr.make_payoff("identity"), 1.0, 1.0)
    plain = pr.price_euler(m, opt, 4, 400_000, RngStream(34, 0))
    romb = pr.price_romberg(m, opt, 4, 400_000, RngStream(34, 1))
    ref = pr.price_romberg(m, opt, 256, 400_000, RngStream(34, 2))
    plain_err = abs(plain.value - ref.value)
    romb_err = abs(romb.value - ref.value)
    assert romb_err < plain_err / 2 + 3 * (romb.std_error + ref.std_error)


def test_correction_estimate_reproducible():
    m = make_bounded_vol_model(0.05, 0.2, 0.1)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    val, ci = pr.correction_estimate(m, opt, "price", [8, 16], 100_000,
                                     RngStream(35, 0))
    val2, ci2 = pr.correction_estimate(m, opt, "price", [8, 16], 100_000,
                                       RngStream(35, 0))
    assert val == val2 and ci == ci2
    assert math.isfinite(val) and ci > 0
    with pytest.raises(ValueError):
        pr.correction_estimate(m, opt, "vega", [8, 16], 100, RngStream(0, 0))


def test_correction_full_returns_rungs():
    m = bs_market(0.2)
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    val, ci, rungs = pr.correction_estimate(m, opt, "price", [8, 16], 50_000,
                                            RngStream(36, 0), full=True)
    assert [n for n, _, _ in rungs] == [8, 16]
    # constant-coefficient market: the scheme is exact, correction ~ 0
    assert abs(val) < ci + 1e-12
