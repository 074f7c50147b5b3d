import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite_e

from weaklab.euler import euler_density_1d
from weaklab.gaussian import (AffineGaussianDensity, LognormalDensity,
                              _per_time, hermite_He, normal_pdf,
                              normal_pdf_dy)
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


def _hexes(v):
    return [float(e).hex() for e in np.ravel(v)]


def test_hermite_He_is_hermeval_bit_for_bit():
    # signed zeros, negatives, |u| up to 40 (He_7 reaches 1.6e11 there),
    # the infinities and NaN, and a spread of ordinary points
    special = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 5e-324, -1e-300, 3.0,
               -7.25, 40.0, -40.0, 39.9, -31.3, math.inf, -math.inf,
               math.nan]
    u = np.concatenate([special, np.linspace(-40.0, 40.0, 801),
                        np.random.default_rng(3).normal(0.0, 6.0, 400)])
    with np.errstate(all="ignore"):
        for k in range(8):
            e_k = np.zeros(k + 1)
            e_k[k] = 1.0
            for v in (u, u.reshape(2, -1), np.asarray(-0.0),
                      np.asarray(-2.5)):
                got, want = hermite_He(k, v), hermite_e.hermeval(v, e_k)
                assert np.shape(got) == np.shape(want), k
                assert _hexes(got) == _hexes(want), k


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
    mean, std, push, dpush = dens.center_on_target(dens.time_table(0.25, 0),
                                                   3.0)
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
    m, s, push, _ = dens.gauss_coords(dens.time_table(1.0, 0), 1.0)
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


# every 1-D density, affine and lognormal
ONE_D_DENSITIES = pytest.mark.parametrize("dens", [
    make_ou_model(1.0, 1.0).exact_density,
    make_constant_model([0.2], [[0.5]]).exact_density,
    euler_density_1d(make_ou_model(1.0, 1.0), 8),
    make_gbm_model(0.1, 0.2).exact_density],
    ids=["ou", "constant-1d", "euler-ou-8", "gbm"])


@ONE_D_DENSITIES
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
    # coordinates from the array-t table, and from a row slice of it,
    # rows out of order, as a sweep's blocks read it
    table = dens.time_table(t, 0)
    r = np.array([3, 0, 2])
    for coords in (dens.gauss_coords, dens.center_on_target):
        for tab, rows in ((table, np.arange(t.size)), (table[:, r], r)):
            mean, std, *_ = coords(tab, x[rows])
            for i, k in enumerate(rows):
                m_k, s_k, *_ = coords(dens.time_table(float(t[k]), 0),
                                      float(x[k]))
                assert (mean[i].hex(), std[i].hex()) == \
                    (float(m_k).hex(), float(s_k).hex())


@ONE_D_DENSITIES
def test_time_table_rows_are_the_scalar_rows(dens):
    # times in descending runs whose repeats are not neighbours, as the
    # t - s nodes of a sweep's right half come; one table per entry
    t = np.array([1.0, 0.7, 0.3, 0.05, 1.0, 0.7, 0.3])
    for tt in (t, t.reshape(1, -1)):
        table = dens.time_table(tt, 4).reshape(-1, t.size)
        for i in range(t.size):
            want = np.array(dens.time_table(float(t[i]), 4))
            assert table[:, i].tobytes() == want.tobytes(), i


# ---------------------------------------------------------------------------
# the time-table memo: each time array's table is built once

_DENSITIES = {"ou": lambda: make_ou_model(1.0, 1.0).exact_density,
              "gbm": lambda: make_gbm_model(0.1, 0.2).exact_density}


def _counted_scalars(dens):
    """dens with its _scalars calls listed, as (t, kmax), in the list
    returned."""
    calls, scalars = [], dens._scalars

    def counted(t, kmax):
        calls.append((t, kmax))
        return scalars(t, kmax)

    dens._scalars = counted
    return calls


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_DENSITIES)),
       times=st.lists(st.lists(st.floats(1e-3, 2.0), min_size=1,
                               max_size=5), min_size=1, max_size=3),
       requests=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6),
                                   st.sampled_from(["vector", "row",
                                                    "scalar"])),
                         min_size=1, max_size=12))
def test_memo_serves_the_fresh_table(kind, times, requests):
    # any sequence of kmax over a few times, rising, falling and repeated,
    # and one array as a row, as a vector and by its first entry as a
    # scalar: every table served is the fresh one, bit for bit, with its
    # shape, at the largest kmax asked of the same times, in the same
    # shape, so far
    dens, tallest = _DENSITIES[kind](), {}
    for i, kmax, form in requests:
        t = np.array(times[i % len(times)])
        t = {"vector": t, "row": t.reshape(1, -1), "scalar": t[0]}[form]
        key = (np.shape(t), t.tobytes())
        tallest[key] = max(kmax, tallest.get(key, 0))
        got = dens.time_table(t, kmax)
        want = _per_time(dens._scalars, t, tallest[key])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(_DENSITIES))
def test_memo_builds_each_time_array_once(kind):
    # the tallest table is built once and served to every lower kmax
    dens = _DENSITIES[kind]()
    t = np.array([0.25, 0.5, 0.75])
    shape = _per_time(dens._scalars, t, 4).shape
    calls = _counted_scalars(dens)
    tall = dens.time_table(t, 3)
    assert len(calls) == 3
    for kmax in (3, 0, 2):
        assert dens.time_table(t, kmax) is tall
    assert len(calls) == 3
    assert dens.time_table(t, 4).shape == shape
    dens.time_table(t + 0.0625, 0)
    assert len(calls) == 9


@pytest.mark.parametrize("kind", sorted(_DENSITIES))
def test_memo_tables_are_read_only(kind):
    dens = _DENSITIES[kind]()
    for t in (np.array([0.2, 0.5]), 0.5):
        for kmax in (3, 1):  # the table built, then served again
            with pytest.raises(ValueError):
                dens.time_table(t, kmax)[(0,) * np.ndim(t) + (0,)] = 1.0


@pytest.mark.parametrize("kind", sorted(_DENSITIES))
def test_memo_holds_at_most_its_bound(kind):
    # least recently used out first: a time array asked for again stays,
    # one asked for once at the start is rebuilt; scalar times count
    dens = _DENSITIES[kind]()
    calls = _counted_scalars(dens)
    kept, dropped = np.array([0.5]), np.array([0.25])
    dens.time_table(dropped, 0)
    for i in range(3 * dens.MEMO_TABLES):
        dens.time_table(kept, 0)
        dens.time_table(np.array([1.0 + i]) if i % 2 else 1.0 + i, 0)
        assert len(dens._tables) <= dens.MEMO_TABLES
    n = len(calls)
    dens.time_table(kept, 0)
    assert len(calls) == n
    dens.time_table(dropped, 0)
    assert len(calls) == n + 1


def test_a_repeated_scalar_t_builds_no_table():
    # a scalar t is one memo entry, apart from the one-entry array of the
    # same time; its table is _scalars' floats
    for kind in sorted(_DENSITIES):
        dens = _DENSITIES[kind]()
        want = np.array(type(dens)._scalars(dens, 0.5, 2))
        calls = _counted_scalars(dens)
        table = dens.time_table(0.5, 2)
        assert dens.time_table(0.5, 1) is table
        assert dens.time_table(np.float64(0.5), 2) is table
        assert calls == [(0.5, 2)]
        assert table.shape == want.shape and table.tobytes() == want.tobytes()
        dens.time_table(np.array([0.5]), 2)
        assert len(calls) == 2


def test_lognormal_parameters_are_read_only():
    dens = LognormalDensity(0.1, 0.2)
    for name in ("mu", "sigma"):
        with pytest.raises(AttributeError):
            setattr(dens, name, 0.3)
    assert (dens.mu, dens.sigma) == (0.1, 0.2)


# ---------------------------------------------------------------------------
# derivs: many orders from one time table, each equal to its one-order call

AFFINE_ORDERS = [(a, b) for a in range(5) for b in range(4)]
LOGNORMAL_ORDERS = [(a, b) for a in range(7) for b in range(7)]


def _affine_closed_form(law, a, b, t, x, y):
    # the module docstring's (-A)^a (d/dy)^(a+b) N(y; A x + c, V)
    A, c, V = law(t)
    return (-A) ** a * normal_pdf_dy(a + b, y, A * x + c, V)


def _lognormal_closed_form(mu, sigma, t, x, y):
    # phi((ln y - ln x - (mu - sigma^2/2) t) / (sigma sqrt(t))) / (y sigma
    # sqrt(t)); complex x and y are welcome
    s = sigma * np.sqrt(t)
    u = (np.log(y) - np.log(x) - (mu - 0.5 * sigma**2) * t) / s
    return np.exp(-0.5 * u * u) / (y * s * math.sqrt(2.0 * math.pi))


def _cauchy_deriv(fn, a, b, x, y, r, n=128):
    """d^a_x d^b_y fn(x, y) by the Cauchy integral formula on circles of
    radius r about x and y, by the n-point trapezoid rule, which converges
    exponentially for a function analytic near both circles."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    vals = fn(x + r * w[:, None], y + r * w[None, :])
    c = np.mean(vals * w[:, None] ** (-a) * w[None, :] ** (-b))
    return (math.factorial(a) * math.factorial(b) * c / r ** (a + b)).real


def test_lognormal_deriv_is_its_closed_form():
    # order (0, 0) bit for bit, at a time where sigma sqrt(t) and
    # sqrt(sigma^2 t) round apart; every order up to 6 in x and in y
    # against contour integrals of the closed-form density, to 1e-10 of
    # the largest value of that order over the points
    mu, sigma, t = 0.1, 0.3, 0.8
    assert sigma * math.sqrt(t) != math.sqrt(sigma**2 * t)
    dens = LognormalDensity(mu, sigma)
    x, y = 1.1, np.array([0.6, 0.9, 1.3, 1.9])
    assert dens.deriv(0, 0, t, x, y).tobytes() == \
        _lognormal_closed_form(mu, sigma, t, x, y).tobytes()
    fn = lambda xx, yy: _lognormal_closed_form(mu, sigma, t, xx, yy)
    for a, b in LOGNORMAL_ORDERS:
        got = dens.deriv(a, b, t, x, y)
        want = [_cauchy_deriv(fn, a, b, x, yi, 0.2 * min(x, yi)) for yi in y]
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(got)), \
            (a, b)


def _derivs_cases():
    ou = make_ou_model(1.0, 1.0).exact_density
    euler = euler_density_1d(make_ou_model(1.0, 1.0), 8)
    gbm = make_gbm_model(0.1, 0.2).exact_density
    return [pytest.param(ou, AFFINE_ORDERS, id="ou"),
            pytest.param(euler, AFFINE_ORDERS, id="euler-ou-8"),
            pytest.param(gbm, LOGNORMAL_ORDERS, id="gbm")]


def _one_order(dens, a, b, t, x, y):
    """The reference of one order at one scalar time: the closed form for
    an affine density; for the lognormal, the one-order call, which
    test_lognormal_deriv_is_its_closed_form ties to the closed form."""
    if isinstance(dens, AffineGaussianDensity):
        want = _affine_closed_form(dens._law, a, b, t, x, y)
        assert dens.deriv(a, b, t, x, y).tobytes() == want.tobytes()
        return want
    return dens.deriv(a, b, t, x, y)


@pytest.mark.parametrize("dens, orders", _derivs_cases())
def test_derivs_is_deriv_at_a_scalar_time(dens, orders):
    kmax = max(a + b for a, b in orders)
    x, y = 1.1, np.linspace(0.5, 1.8, 7)
    got = dens.derivs(orders, dens.time_table(0.6, kmax), x, y)
    for (a, b), g in zip(orders, got):
        assert g.tobytes() == _one_order(dens, a, b, 0.6, x, y).tobytes()


@pytest.mark.parametrize("dens, orders", _derivs_cases())
def test_derivs_is_deriv_at_array_times_and_row_slices(dens, orders):
    # runs of equal times, as a sweep of the time rule has them; then a
    # row slice of the table, rows out of order, as a block reads it
    kmax = max(a + b for a, b in orders)
    t = np.array([0.3, 0.3, 0.3, 0.7, 0.7, 1.0])
    x = np.array([0.8, 1.1, 0.9, 1.3, 1.0, 1.2])
    y = np.linspace(0.6, 1.5, 5) + 0.1 * np.arange(t.size)[:, None]
    table = dens.time_table(t, kmax)
    r = np.array([4, 0, 5, 1])
    for tab, rows in ((table[:, :, None], np.arange(t.size)),
                      (table[:, r, None], r)):
        got = dens.derivs(orders, tab, x[rows, None], y[rows])
        for (a, b), g in zip(orders, got):
            assert g.shape == (rows.size, y.shape[1])
            for i, k in enumerate(rows):
                want = _one_order(dens, a, b, float(t[k]), float(x[k]), y[k])
                assert g[i].tobytes() == want.tobytes(), (a, b, k)


@pytest.mark.parametrize("dens, orders", _derivs_cases())
def test_derivs_at_no_time_are_empty(dens, orders):
    kmax = max(a + b for a, b in orders)
    t = np.empty((0, 1))
    got = dens.derivs(orders, dens.time_table(t, kmax), np.empty((0, 1)),
                      np.empty((0, 4)))
    assert len(got) == len(orders)
    for (a, b), g in zip(orders, got):
        assert g.shape == (0, 4)
        assert dens.deriv(a, b, t, np.empty((0, 1)),
                          np.empty((0, 4))).shape == (0, 4)
