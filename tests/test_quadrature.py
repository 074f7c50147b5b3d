import inspect
import math

import numpy as np
import pytest

from weaklab.gaussian import LognormalDensity, normal_pdf
from weaklab.quadrature import (adaptive_interval, adaptive_rows,
                                expect_gaussian, gauss_hermite_rows,
                                integrate_gaussian, split_time_integral,
                                split_time_rows)


def test_integrate_gaussian_recovers_density_mass():
    from weaklab.gaussian import normal_pdf
    val, err = integrate_gaussian(lambda y: normal_pdf(y, 0.3, 0.7), 0.3,
                                  math.sqrt(0.7))
    assert abs(val - 1.0) < 1e-12
    assert err < 1e-10


def test_integrate_gaussian_polynomial_moment():
    from weaklab.gaussian import normal_pdf
    # E[Y^4] for N(0,1) = 3
    val, _ = integrate_gaussian(lambda y: y**4 * normal_pdf(y, 0.0, 1.0),
                                0.0, 1.0)
    assert abs(val - 3.0) < 1e-11


def test_expect_gaussian_pushed_lognormal_mean():
    # E[exp(W)], W ~ N(m, s^2) = exp(m + s^2/2)
    m, s = 0.05, 0.2
    val, err = expect_gaussian(lambda u: u, m, s, push=np.exp)
    assert abs(val - math.exp(m + 0.5 * s * s)) < 1e-12


def test_adaptive_interval_smooth():
    val, err = adaptive_interval(np.sin, 0.0, math.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_split_time_integral_sqrt_singularity():
    # integral of 1/sqrt(s) over (0,1) = 2; plain panels would crawl
    val, err = split_time_integral(lambda s: 1.0 / np.sqrt(s), 1.0, tol=1e-10)
    assert abs(val - 2.0) < 1e-9


def test_split_time_integral_both_endpoints():
    # integral of 1/sqrt(s(t-s)) over (0,t) = pi, any t
    t = 0.7
    val, _ = split_time_integral(lambda s: 1.0 / np.sqrt(s * (t - s)), t,
                                 tol=1e-10)
    assert abs(val - math.pi) < 1e-9


def test_split_point_does_not_matter():
    fn = lambda s: np.exp(-s) / np.sqrt(s)
    v1, _ = split_time_integral(fn, 1.0, tol=1e-11, split=0.5)
    v2, _ = split_time_integral(fn, 1.0, tol=1e-11, split=1.0 / 3.0)
    assert abs(v1 - v2) < 1e-9


# ---------------------------------------------------------------------------
# rounding floor and array forms


@pytest.mark.parametrize("z", [0.8, 1.0, 1.1])
def test_rounding_floor_stops_exact_zero_integral(z):
    # d^2/dz^2 P_tau id(z) = 0 for GBM: successive rules differ only by
    # rounding, about 1e-14 against atol 1e-14, which used to run to 256
    dens = LognormalDensity(0.1, 0.2)
    tau, sizes = 0.25, []

    def fn(y):
        sizes.append(y.size)
        return y * dens.deriv(2, 0, tau, z, y)

    mean, std, push, dpush = dens.gauss_coords(dens.time_table(tau, 0), z)
    val, err = integrate_gaussian(fn, mean, std, push=push, dpush=dpush)
    assert max(sizes) < 256
    assert abs(val) < 1e-12 and err < 1e-12


def test_gauss_hermite_rows_stop_elementwise():
    # row 0, a cubic times a Gaussian, is exact from 32 nodes and stops at
    # 64; row 1, |y| times a Gaussian, has a kink and runs to 256
    seen = []

    def fn(y, rows):
        seen.append(rows.tolist())
        f = np.where(rows[:, None] == 0, y ** 3 + y * y, np.abs(y))
        return f * normal_pdf(y, 0.0, 1.0)

    val, err = gauss_hermite_rows(fn, [0.0, 0.0], 1.0)
    assert seen == [[0, 1], [0, 1], [1], [1]]
    assert abs(val[0] - 1.0) < 1e-14
    assert abs(val[1] - math.sqrt(2.0 / math.pi)) < 1e-2
    # per-component errors, each the scalar routine's
    for k, g in enumerate((lambda y: (y ** 3 + y * y) * normal_pdf(y, 0, 1),
                           lambda y: np.abs(y) * normal_pdf(y, 0, 1))):
        v, e = integrate_gaussian(g, 0.0, 1.0)
        assert abs(val[k] - v) <= 1e-15
        assert abs(err[k] - e) <= 1e-15
    assert err[0] < 1e-14 < 1e-6 < err[1]


def test_adaptive_rows_stop_elementwise():
    # sin converges; 1/sqrt(s) exhausts its panels and alone gets err = inf
    panels = []

    def fn(s, rows):
        panels.append((s.size // 8, rows.tolist()))
        return np.where(rows[:, None] == 0, np.sin(s), 1.0 / np.sqrt(s))

    val, err = adaptive_rows(fn, 0.0, math.pi, tol=1e-12, size=2)
    assert abs(val[0] - 2.0) < 1e-11 and err[0] <= 1e-12
    assert err[1] == math.inf
    assert panels[-1] == (128, [1])
    assert [p for p, rows in panels if 0 in rows][-1] < 128


def test_split_time_rows_match_scalar_routine():
    fns = [lambda s: np.exp(-s) / np.sqrt(s), lambda s: np.cos(s)]
    val, err = split_time_rows(
        lambda s, rows: np.stack([fns[r](s) for r in rows]), 0.7,
        tol=1e-11, size=2)
    for k, g in enumerate(fns):
        v, e = split_time_integral(g, 0.7, tol=1e-11)
        assert abs(val[k] - v) <= 1e-15 * max(1.0, abs(v))
        assert abs(err[k] - e) <= 1e-15


@pytest.mark.parametrize("routine, names, call", [
    (integrate_gaussian,
     "fn mean std push dpush rtol atol start max_nodes",
     lambda r: r(lambda y: np.exp(-y * y), 0.0, 1.0)),
    (expect_gaussian, "fn mean std push rtol atol start max_nodes",
     lambda r: r(np.cos, 0.0, 1.0)),
    (adaptive_interval, "fn a b tol start_panels max_panels",
     lambda r: r(np.sin, 0.0, 1.0)),
    (split_time_integral, "fn t tol split",
     lambda r: r(np.cos, 1.0)),
], ids=["integrate_gaussian", "expect_gaussian", "adaptive_interval",
        "split_time_integral"])
def test_public_scalar_routines_keep_signatures(routine, names, call):
    assert list(inspect.signature(routine).parameters) == names.split()
    val, err = call(routine)
    assert isinstance(val, float) and isinstance(err, float)
