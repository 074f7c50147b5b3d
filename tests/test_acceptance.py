"""End-to-end acceptance suite: ten verification gates, one per test.

Each test prints a single PASS/FAIL line (bypassing capture) before
asserting, so a full run yields a ten-line scoreboard.
"""
import json
import math
import sys

import numpy as np

import conftest
from weaklab import error_expansion as ee
from weaklab import pricing as pr
from weaklab import testfunctions as tf
from weaklab.cli import main as cli_main
from weaklab.euler import euler_density_1d, empirical_moment, gbm_euler_mean
from weaklab.gaussian import normal_pdf
from weaklab.models import (make_bounded_vol_model, make_constant_model,
                            make_gbm_model, make_ou_model, semigroup_apply)
from weaklab.montecarlo import (bias_ladder, bias_times_n_limit,
                                estimate_expectation, fit_rate,
                                richardson_table, romberg_ladder)
from weaklab.rng import RngStream

MU = 0.1
GBM_TRUTH = math.exp(MU)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {verdict} {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record(line)


def test_criterion_01_exact_scheme_null():
    m = make_constant_model([0.2], [[0.5]])
    # Euler law == exact law to machine precision, any (n, t)
    law_dev = 0.0
    for n in (3, 7, 16):
        dn = euler_density_1d(m, n)
        for t in (0.3, 0.75, 1.0):
            for y in (-1.0, 0.1, 1.3):
                law_dev = max(law_dev, abs(dn.density(t, 0.4, y)
                                           - m.exact_density.density(t, 0.4, y)))
    # Monte-Carlo bias below the noise gate at N = 1e6
    truth = semigroup_apply(m, 1.0, tf.square(), [0.4])
    est = estimate_expectation(m, tf.square(), [0.4], 8, 1.0, 1_000_000,
                               RngStream(101, 0))
    mc_ok = abs(est.value - truth) <= 3.0 * est.std_error
    # L2* coefficients and the kernel pi vanish identically
    g1, g2, g3 = ee.l2star_coefficients(m)
    z = np.linspace(-2.0, 2.0, 9)
    l2_dev = float(np.max(np.abs(g1(z))) + np.max(np.abs(g2(z)))
                   + np.max(np.abs(g3(z))))
    pi_dev = max(abs(ee.principal_density_pi(m, t, 0.4, y).value)
                 for t in (0.5, 1.0) for y in (-0.5, 1.0))
    ok = law_dev < 1e-13 and mc_ok and l2_dev < 1e-13 and pi_dev < 1e-10
    _report(1, "exact-scheme null (constant coefficients)", ok,
            f"law dev {law_dev:.1e}, mc bias {est.value - truth:.1e} "
            f"(3se {3 * est.std_error:.1e}), L2* {l2_dev:.1e}, pi {pi_dev:.1e}")
    assert ok


def test_criterion_02_first_order_weak_rate():
    m = make_gbm_model(MU, 0.2)
    ns = [8, 16, 32, 64, 128]
    det = [(n, gbm_euler_mean(MU, 1.0, n, 1.0) - GBM_TRUTH, 0.0) for n in ns]
    det_fit = fit_rate(det)
    rungs = bias_ladder(m, tf.identity(), [1.0], 1.0, ns, 1_000_000,
                        RngStream(102, 0))
    mc_fit = fit_rate([(n, b, s) for n, b, s in rungs])
    ok = (abs(det_fit.slope + 1.0) <= 0.05 and abs(mc_fit.slope + 1.0) <= 0.15
          and not mc_fit.excluded)
    _report(2, "first-order weak rate (GBM mean)", ok,
            f"deterministic slope {det_fit.slope:.4f}, "
            f"monte-carlo slope {mc_fit.slope:.4f}")
    assert ok


def test_criterion_03_romberg_order():
    mean = lambda n: gbm_euler_mean(MU, 1.0, n, 1.0)
    romb = [(n, 2.0 * mean(2 * n) - mean(n) - GBM_TRUTH, 0.0)
            for n in (8, 16, 32, 64, 128)]
    fit = fit_rate(romb)
    resid = richardson_table([(n, mean(n)) for n in (40, 80, 160)],
                             3) - GBM_TRUTH
    ok = abs(fit.slope + 2.0) <= 0.1 and abs(resid) <= 1e-6
    _report(3, "extrapolation orders (Romberg, Richardson j=3)", ok,
            f"romberg slope {fit.slope:.4f}, "
            f"order-3 residual at n=40 {resid:.2e}")
    assert ok


def test_criterion_04_principal_coefficient_consistency():
    gbm = make_gbm_model(MU, 0.2)
    ct_gbm, q_gbm = ee.principal_term_Ct(gbm, tf.identity(), 1.0, 1.0)
    # closed form for the first-order mean bias coefficient (the operator
    # route must agree in magnitude and carries a negative sign here)
    gbm_target = -GBM_TRUTH * MU**2 / 2.0
    gbm_dev = abs(ct_gbm - gbm_target)

    ou = make_ou_model(1.0, 1.0)
    ct_ou, q_ou = ee.principal_term_Ct(ou, tf.square(), 1.0, 1.0)
    limit, ci = bias_times_n_limit(ou, tf.square(), [1.0], 1.0,
                                   [32, 64, 128], 2_000_000,
                                   RngStream(104, 0))
    ou_dev = abs(ct_ou - limit)
    # an unconverged quad_error would widen the OU gate instead of failing
    converged = bool(ee.pi_converged([q_gbm, q_ou]).all())
    ok = gbm_dev <= 1e-6 and ou_dev <= ci + 10.0 * q_ou and converged
    _report(4, "principal coefficient C_t f (quadrature vs closed form/MC)",
            ok, f"GBM dev {gbm_dev:.2e} (tol 1e-06), "
            f"OU |Ct - n*bias limit| {ou_dev:.2e} (ci {ci:.2e})")
    assert ok


def test_criterion_05_density_expansion():
    m = make_ou_model(1.0, 1.0)
    d128, d256 = euler_density_1d(m, 128), euler_density_1d(m, 256)
    worst = 0.0
    ratios = []
    converged = True
    xs, ys = (g.ravel() for g in np.meshgrid([-1.0, 0.0, 1.0],
                                            [-1.0, 0.0, 1.0], indexing="ij"))
    for t in (0.25, 0.5, 1.0):
        # pi on the whole (x, y) grid at once; every value must converge
        pis, errs = ee.pi_rows(m, t, xs, ys)
        converged = converged and bool(ee.pi_converged(errs).all())
        for x, y, pi in zip(xs.tolist(), ys.tolist(), pis.tolist()):
            p = m.exact_density.density(t, x, y)
            e128 = d128.density(t, x, y) - p
            e256 = d256.density(t, x, y) - p
            worst = max(worst, abs(256 * e256 - pi))
            r128, r256 = e128 - pi / 128, e256 - pi / 256
            ratios.append((128**2 * r128) / (256**2 * r256))
    tol = max(1e-3, 4.0 / 256)
    ratio_ok = all(0.5 < r < 2.0 for r in ratios)
    ok = worst <= tol and ratio_ok and converged
    _report(5, "pointwise density expansion p_n = p + pi/n + O(1/n^2)", ok,
            f"max |n(p_n-p) - pi| {worst:.2e} (tol {tol:.2e}), "
            f"remainder ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")
    assert ok


def test_criterion_06_tail_bound_certificates():
    m = make_ou_model(1.0, 1.0)
    grid = [(t, x, y) for t in (0.25, 0.5, 1.0) for x in (-1.5, 0.0, 1.5)
            for y in (-1.5, 0.0, 1.5)]
    # pi on each t's (x, y) grid at once, in grid order; every value must
    # converge
    pi_vals, converged = [], True
    for t in (0.25, 0.5, 1.0):
        xs, ys = np.array([(x, y) for (s, x, y) in grid if s == t]).T
        pis, errs = ee.pi_rows(m, t, xs, ys)
        converged = converged and bool(ee.pi_converged(errs).all())
        pi_vals += pis.tolist()
    pi_spec = ee.fit_tail_bound(1, grid, pi_vals)
    pi_rep = ee.check_tail_bound(pi_spec, grid, pi_vals)
    p_vals = [m.exact_density.density(*p) for p in grid]
    p_spec = ee.fit_tail_bound(0, grid, p_vals)
    p_rep = ee.check_tail_bound(p_spec, grid, p_vals)
    ok = (pi_rep["max_violation_ratio"] <= 1.0
          and p_rep["max_violation_ratio"] <= 1.0
          and pi_spec.c2 > 0 and p_spec.c2 > 0 and converged)
    _report(6, "Gaussian tail-bound certificates for p and pi", ok,
            f"pi: (c1,c2)=({pi_spec.c1:.3f},{pi_spec.c2:.2f}) "
            f"margin {pi_rep['max_violation_ratio']:.3f}; "
            f"p: (c1,c2)=({p_spec.c1:.3f},{p_spec.c2:.2f}) "
            f"margin {p_rep['max_violation_ratio']:.3f}")
    assert ok


def test_criterion_07_distribution_pairings():
    m = make_ou_model(1.0, 1.0)
    t, x, y0 = 1.0, 1.0, 0.5
    functionals = [
        ("dirac", tf.dirac(y0)),
        ("dirac-deriv", tf.dirac(y0, 1)),
        ("square", tf.square()),
        ("exp-abs", tf.TestFunction(lambda v: np.exp(np.abs(v)),
                                    name="exp-abs")),
    ]
    details, ok = [], True
    for name, S in functionals:
        d = {}
        for n in (64, 128, 256):
            approx, exact = ee.distribution_pairing(m, S, n, t, x)
            d[n] = n * (approx - exact)
        cauchy = max(abs(d[128] - d[64]), abs(d[256] - d[128]) * 2)
        limit, _ = ee.pairing_with_pi(m, S, t, x, tol=1e-6)
        match = abs(d[256] - limit)
        this_ok = cauchy <= 4.0 / 64 and match <= 4.0 / 256
        ok = ok and this_ok
        details.append(f"{name}: cauchy {cauchy:.1e}, |d-pi| {match:.1e}")
    _report(7, "tempered-distribution pairings vs <S, pi>", ok,
            "; ".join(details))
    assert ok


def test_criterion_08_pricing_greeks_rates():
    market = make_bounded_vol_model(0.05, 0.6, 0.5)
    call = pr.make_payoff("call", strike=1.0)
    opt = pr.OptionSpec(call, 1.0, 1.0)
    f = pr.log_payoff_function(call)
    ns = [8, 16, 32, 64]  # reference sits at 8 x 64 = 512

    price = bias_ladder(market, f, [0.0], 1.0, ns, 1_000_000,
                        RngStream(108, 0), ref_multiple=8)
    price_fit = fit_rate([(n, b, s) for n, b, s in price])

    _, _, drungs = pr.correction_estimate(market, opt, "delta", ns, 400_000,
                                          RngStream(108, 1), ref_multiple=8,
                                          full=True)
    delta_fit = fit_rate([(n, r / n, s / n) for n, r, s in drungs])

    romb = romberg_ladder(market, f, [0.0], 1.0, [1, 2, 4, 8], 32_000_000,
                          RngStream(108, 2), ref_multiple=8)
    romb_fit = fit_rate([(n, b, s) for n, b, s in romb])

    bs = make_constant_model([-0.5 * 0.2**2], [[0.2]])
    rep = pr.greeks_euler(bs, pr.OptionSpec(call, 1.0, 1.0), 64, 1_000_000,
                          RngStream(108, 3), bump=0.01)
    bsp, bsd, bsg = pr.black_scholes_call(1.0, 1.0, 0.2, 1.0)
    bs_ok = (abs(rep.price - bsp) <= 3 * rep.price_se
             and abs(rep.delta - bsd) <= 3 * rep.delta_se
             and abs(rep.gamma - bsg) <= 3 * rep.gamma_se)

    ok = (abs(price_fit.slope + 1.0) <= 0.2
          and abs(delta_fit.slope + 1.0) <= 0.2
          and romb_fit.slope <= -1.7 and bs_ok)
    _report(8, "option price/delta rates, Romberg gain, BS closed form", ok,
            f"price slope {price_fit.slope:.3f}, delta slope "
            f"{delta_fit.slope:.3f}, romberg slope {romb_fit.slope:.3f}, "
            f"BS within 3se: {bs_ok}")
    assert ok


def test_criterion_09_moment_bounds():
    m = make_bounded_vol_model(0.05, 0.2, 0.1)
    rng = RngStream(109, 0)
    spreads, i = [], 0
    for t in (0.25, 1.0):
        for x in (0.0, 2.0):
            cs = []
            for n in (2, 8, 32, 128):
                mom, _ = empirical_moment(m, [x], n, t, 4, 100_000,
                                          rng.substream(i))
                cs.append(mom / (1.0 + x**4))
                i += 1
            spreads.append(max(cs) / min(cs))
    worst = max(spreads)
    ok = worst <= 1.2 / 0.8  # +-20% around a central constant
    _report(9, "fourth-moment bound constant uniform in n", ok,
            f"worst c-spread across n: {worst:.3f} (tol 1.5)")
    assert ok


def test_criterion_10_reproducibility(tmp_path):
    configs = [
        {"study": "weak-rate",
         "model": {"model": "gbm", "mu": 0.1, "sigma": 0.2},
         "f": "identity", "x": 1.0, "t": 1.0, "n_ladder": [8, 16, 32, 64],
         "deterministic": True, "seed": 7},
        {"study": "moments",
         "model": {"model": "ou", "theta": 1.0, "sigma": 1.0},
         "q": 4, "t_grid": [0.5, 1.0], "x_grid": [0.0, 1.0],
         "n_ladder": [4, 16], "N": 20_000, "seed": 11},
    ]
    ok = True
    for i, cfg in enumerate(configs):
        cfg["output_csv"] = str(tmp_path / f"{i}.csv")
        cfg["output_json"] = str(tmp_path / f"{i}.json")
        path = tmp_path / f"{i}-cfg.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for _ in range(2):
            rc = cli_main(["run", str(path)])
            outs.append(((tmp_path / f"{i}.csv").read_bytes(),
                         (tmp_path / f"{i}.json").read_bytes()))
            ok = ok and rc in (0, 2)
        ok = ok and outs[0] == outs[1]
    _report(10, "byte-identical study reruns (CSV and JSON)", ok,
            f"{len(configs)} studies rerun")
    assert ok
