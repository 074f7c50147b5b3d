"""Library results, pinned by the float.hex of every number.

Each case computes a few library results and must reproduce the hex
strings in PINS bit for bit: the kernel pi and its derivatives with their
quadrature errors, the principal term C_t f, the pairings with pi and
with the exact laws, the exact semigroup, the exact density error, and
the seeded Monte Carlo ladders, greeks and prices.  The Monte Carlo cases
run at one and at two workers against the same pins.  A change that moves
any of these numbers, in any bit, fails here; a change that moves them on
purpose re-records the pins and says which moved and why.

The pins were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64
Linux; other versions may round differently.
`PYTHONPATH=src python tests/test_pinned_library.py` prints the pins of
the code it imports, in the form of PINS.
"""

import numpy as np
import pytest

from weaklab import error_expansion as ee
from weaklab import montecarlo as mc
from weaklab import pricing as pr
from weaklab import testfunctions as tf
from weaklab.models import make_bounded_vol_model, make_constant_model, \
    make_gbm_model, make_ou_model, semigroup_apply
from weaklab.rng import RngStream

OU = make_ou_model(1.0, 1.0)
GBM = make_gbm_model(0.1, 0.2)
# a market in log coordinates, for the payoffs
TANH = make_bounded_vol_model(0.05, 0.6, 0.5)
CONST_2D = make_constant_model([0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]])
# 4-point (x, y) grids for pi, t = 1
GRIDS = {"ou": (OU, [-0.5, 0.2, 0.7, 1.1], [0.3, -0.4, 1.0, 0.0]),
         "gbm": (GBM, [0.8, 1.0, 1.2, 1.5], [1.1, 0.9, 1.3, 1.0])}
ORDERS = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]
# two chunks of the reduction, the second one partial
N_MC = 2 ** 16 + 123
RUNGS = [2, 4]


def exp_abs():
    return tf.TestFunction(lambda v: np.exp(np.abs(v)), name="exp-abs")


def dirac_prime(y):
    return tf.dirac(y, 1)


def _pi(model_name, alpha, beta):
    model, x, y = GRIDS[model_name]
    val, err = ee.pi_rows(model, 1.0, x, y, alpha, beta)
    return list(val) + list(err)


def _distribution_pairings():
    out = []
    for S in (tf.square(), exp_abs(), tf.dirac(0.5), dirac_prime(0.5)):
        out += ee.distribution_pairing(OU, S, 64, 1.0, 1.0)
    return out


QUADRATURE = {
    **{f"pi-{m}-{a}{b}": (lambda m=m, a=a, b=b: _pi(m, a, b))
       for m in GRIDS for a, b in ORDERS},
    "ct-ou-square": lambda: ee.principal_term_Ct(OU, tf.square(), 1.0, 0.5),
    "ct-gbm-identity": lambda: ee.principal_term_Ct(GBM, tf.identity(), 1.0,
                                                    1.0),
    "ct-ou-dirac-prime": lambda: ee.principal_term_Ct(OU, dirac_prime(0.3),
                                                      1.0, 1.0),
    "pairing-pi-square": lambda: ee.pairing_with_pi(OU, tf.square(), 1.0,
                                                    1.0),
    "pairing-pi-exp-abs": lambda: ee.pairing_with_pi(OU, exp_abs(), 1.0, 1.0,
                                                     tol=1e-5),
    "distribution-pairing": _distribution_pairings,
    "semigroup": lambda: [
        semigroup_apply(OU, 0.7, tf.square(), [0.4]),
        semigroup_apply(GBM, 0.7, tf.identity(), [1.2]),
        semigroup_apply(CONST_2D, 0.7, tf.square(), [0.4, -0.3])],
    "density-error-exact": lambda: list(ee.density_error_exact(
        OU, 16, 0.8, np.array([-0.3, 0.4, 1.0]), np.array([0.1, 0.6, -0.2]),
        1, 1)),
}


def _call_spec(name, **kw):
    return pr.OptionSpec(pr.make_payoff(name, **kw), 1.0, 1.1)


def _price_digital(rng):
    est = pr.price_euler(TANH, _call_spec("digital", strike=1.0), 4, N_MC, rng)
    return [est.value, est.std_error]


def _greeks(rng):
    g = pr.greeks_euler(TANH, _call_spec("call", strike=1.0), 4, N_MC, rng)
    return [g.price, g.price_se, g.delta, g.delta_se, g.gamma, g.gamma_se]


def _rungs(rows):
    return [v for row in rows for v in row[1:]]


MONTE_CARLO = {
    "bias-ladder": lambda rng: _rungs(mc.bias_ladder(
        OU, tf.square(), [0.5], 1.0, RUNGS, N_MC, rng)),
    "romberg-ladder": lambda rng: _rungs(mc.romberg_ladder(
        GBM, tf.identity(), [1.0], 1.0, RUNGS, N_MC, rng)),
    "bias-times-n-limit": lambda rng: mc.bias_times_n_limit(
        GBM, tf.square(), [1.0], 1.0, RUNGS, N_MC, rng),
    "correction-estimate": lambda rng: pr.correction_estimate(
        TANH, _call_spec("call", strike=1.0), "delta", RUNGS, N_MC, rng,
        ref_multiple=4),
    "greeks-euler": _greeks,
    "price-euler-digital": _price_digital,
}


def compute_quadrature(name):
    return [float(v).hex() for v in QUADRATURE[name]()]


def compute_monte_carlo(name):
    return [float(v).hex() for v in MONTE_CARLO[name](RngStream(7, 3))]


PINS = {
    "pi-ou-00": [
        "-0x1.6813ced8c945ep-6", "-0x1.c3440ab889006p-5",
        "-0x1.57ac1a66d68a6p-5", "-0x1.de4e79abd5d9ep-8",
        "0x1.e420880000000p-40", "0x1.1e1e100000000p-39",
        "0x1.30edc00000000p-39", "0x1.6e49d00000000p-39",
    ],
    "pi-ou-10": [
        "-0x1.10099e7045aacp-2", "0x1.052327ba5b87ep-2",
        "-0x1.ce3ce3edc08acp-3", "0x1.27d20f56f8ef6p-2",
        "0x1.7986800000000p-37", "0x1.3f72400000000p-37",
        "0x1.76de200000000p-37", "0x1.e896880000000p-35",
    ],
    "pi-ou-01": [
        "0x1.da3ff47881d30p-2", "-0x1.bf4dcdec51c25p-2",
        "0x1.5a3f38836596ep-2", "-0x1.19c28efafe867p-1",
        "0x1.4683800000000p-36", "0x1.01dd200000000p-36",
        "0x1.68e9500000000p-36", "0x1.8d88800000000p-37",
    ],
    "pi-ou-11": [
        "0x1.f7317ce2a2a20p-9", "-0x1.3950db710a238p-4",
        "0x1.a2a83cb13ac2dp-3", "-0x1.5e2290b7a70a5p-5",
        "0x1.b121540000000p-41", "0x1.64eb200000000p-37",
        "0x1.401d900000000p-35", "0x1.8d575a7000000p-37",
    ],
    "pi-ou-02": [
        "-0x1.05dae4c63d878p-2", "-0x1.aefbb63f9f12cp-5",
        "-0x1.d083fbf5a3ec2p-2", "-0x1.f4c956c823c27p-3",
        "0x1.1a1cc00000000p-35", "0x1.ab0a520000000p-36",
        "0x1.ea03500000000p-35", "0x1.bef7c00000000p-36",
    ],
    "pi-gbm-00": [
        "0x1.18fcda3741b26p-3", "-0x1.0ba1e73643f5bp-2",
        "0x1.3aa1b087eec98p-4", "0x1.9faee36e63b24p-5",
        "0x1.6d90000000000p-44", "0x1.6e20000000000p-44",
        "0x1.dd00000000000p-48", "0x1.28a0000000000p-46",
    ],
    "pi-gbm-10": [
        "0x1.39cbf9de01bb0p+1", "0x1.447604cc6dfc4p-2",
        "-0x1.d8f329ba62330p+0", "0x1.5c63d02c3f8c8p-6",
        "0x1.1330000000000p-37", "0x1.95fb800000000p-37",
        "0x1.4680000000000p-38", "0x1.0586b00000000p-38",
    ],
    "pi-gbm-01": [
        "-0x1.e85cb2c932b60p+0", "-0x1.f9249536cad92p-5",
        "0x1.a5714ccce551ap+0", "-0x1.527cdfc7c9ad7p-4",
        "0x1.c63a000000000p-36", "0x1.9970f80000000p-37",
        "0x1.2c24000000000p-38", "0x1.deb0000000000p-41",
    ],
    "pi-gbm-11": [
        "0x1.46123c303fb01p+0", "-0x1.cdc32626777e1p+4",
        "0x1.4781608a0ab06p+2", "0x1.fa1246d8b0cc8p+1",
        "0x1.c2d9100000000p-33", "0x1.cf0d000000000p-33",
        "0x1.c385000000000p-35", "0x1.6db5000000000p-36",
    ],
    "pi-gbm-02": [
        "0x1.4564e9bca29acp+1", "0x1.01a17eda0b7c6p+5",
        "-0x1.d067ecce3aa44p+2", "-0x1.70f9ce244656ap+2",
        "0x1.0ef4690000000p-27", "0x1.4f518c0000000p-26",
        "0x1.ba50c00000000p-31", "0x1.4c78e80000000p-27",
    ],
    "ct-ou-square": [
        "0x1.ffffffffffff9p-3", "0x1.3200000000000p-37",
    ],
    "ct-gbm-identity": [
        "-0x1.6a2474bf852dap-8", "0x1.14aaeced8a83fp-35",
    ],
    "ct-ou-dirac-prime": [
        "0x1.63581eb825832p-2", "0x1.04c1700000000p-35",
    ],
    "pairing-pi-square": [
        "0x1.3020005305351p-3", "0x1.2b13dfdb4f174p-28",
    ],
    "pairing-pi-exp-abs": [
        "0x1.d99b8c876a5cdp-3", "0x1.0227d35195a79p-19",
    ],
    "distribution-pairing": [
        "0x1.23d9ad5c5f651p-1", "0x1.22a555477f039p-1",
        "0x1.07aeeb70f523fp+1", "0x1.073a4c1774edfp+1",
        "0x1.2eac668229a81p-1", "0x1.3070fb984201dp-1",
        "0x1.7637a108f0a1ep-3", "0x1.74260433bec84p-3",
    ],
    "semigroup": [
        "0x1.aa2511ae39d84p-2", "0x1.497979b3d0ae5p+0",
        "0x1.29e1b089a032bp-2",
    ],
    "density-error-exact": [
        "-0x1.52d4764450d70p-5", "-0x1.5c2966bcbabe0p-6",
        "0x1.0fef2a0a96607p-5",
    ],
    "bias-ladder": [
        "0x1.5fe5bdb98cbcbp-3", "0x1.4d8cd550d35ecp-10",
        "0x1.2808d8cdcb611p-4", "0x1.230e128832dd9p-11",
    ],
    "romberg-ladder": [
        "-0x1.354dd382193b8p-13", "0x1.753b9d1e13631p-14",
        "-0x1.441a7a2ce974bp-14", "0x1.1ca7a77be1f8ap-14",
    ],
    "bias-times-n-limit": [
        "-0x1.89199f05b164ep-6", "0x1.494772e5b3abfp-8",
    ],
    "correction-estimate": [
        "0x1.4c97e11b47d53p-4", "0x1.ecff6fc1faecap-6",
    ],
    "greeks-euler": [
        "0x1.68c8db34c1c4cp-2", "0x1.e8d34fc193c4dp-9",
        "0x1.b19c070bd603ep-1", "0x1.d028bd4d35c32p-8",
        "0x1.9ce1fc779b7bfp-2", "0x1.e8a2e2821ecfep-7",
    ],
    "price-euler-digital": [
        "0x1.93463d4091f9ep-2", "0x1.f3da918742c01p-10",
    ],
}


@pytest.mark.parametrize("name", list(QUADRATURE))
def test_quadrature_results_match_their_pins(name):
    assert compute_quadrature(name) == PINS[name]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(MONTE_CARLO))
def test_monte_carlo_results_match_their_pins(monkeypatch, name, workers):
    monkeypatch.setenv("WEAKLAB_WORKERS", workers)
    assert compute_monte_carlo(name) == PINS[name]


def test_every_case_is_pinned():
    assert set(PINS) == set(QUADRATURE) | set(MONTE_CARLO)


def _print_pin(name, hexes):
    print(f'    "{name}": [')
    for i in range(0, len(hexes), 2):
        print("        " + " ".join(f'"{h}",' for h in hexes[i:i + 2]))
    print("    ],")


if __name__ == "__main__":
    print("PINS = {")
    for name in QUADRATURE:
        _print_pin(name, compute_quadrature(name))
    for name in MONTE_CARLO:
        _print_pin(name, compute_monte_carlo(name))
    print("}")
