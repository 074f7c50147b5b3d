import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weaklab import quadrature as quad
from weaklab.gaussian import LognormalDensity, normal_pdf
from weaklab.quadrature import (adaptive_interval, adaptive_rows,
                                expect_gaussian, expect_gaussian_nd,
                                gauss_hermite_rows,
                                hermite_rule, integrate_gaussian,
                                legendre_rule, split_time_integral,
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
    # 64; row 1, |y| times a Gaussian, has a kink and runs to 256.  The
    # first call evaluates the 32- and 64-node rules at once, on both rows
    seen = []

    def fn(y, rows):
        seen.append((y.shape[1], rows.tolist()))
        f = np.where(rows[:, None] == 0, y ** 3 + y * y, np.abs(y))
        return f * normal_pdf(y, 0.0, 1.0)

    val, err = gauss_hermite_rows(fn, [0.0, 0.0], 1.0)
    assert seen == [(96, [0, 1]), (128, [1]), (256, [1])]
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


# ---------------------------------------------------------------------------
# against one rule per integrand call


def _one_rule_per_call(rule_sums, rtol, atol, start, max_nodes, size):
    """Node doubling as it reads on paper: rule_sums(m, rows) evaluates
    the m-node rule alone on the running rows, one call per rule; returns
    (value, err, converged, the size of each row's last rule)."""
    rows = np.arange(size)
    val, err = np.empty(size), np.full(size, math.inf)
    ok, last = np.zeros(size, dtype=bool), np.full(size, start)
    if not size:
        return val, err, ok, last
    val[:] = rule_sums(start, rows)[0]
    m = start
    while m < max_nodes and rows.size:
        m *= 2
        new, mag = rule_sums(m, rows)
        diff = np.abs(new - val[rows])
        val[rows], err[rows], last[rows] = new, diff, m
        done = diff <= np.maximum(np.maximum(atol, rtol * np.abs(new)),
                                  16.0 * np.finfo(float).eps * mag)
        ok[rows[done]] = True
        rows = rows[~done]
    return val, err, ok, last


def _gh_reference(fn, mean, std, start, max_nodes):
    """gauss_hermite_rows' value, err, converged and last rule sizes,
    one rule per fn call."""
    mean = np.asarray(mean, dtype=float)
    scale = np.broadcast_to(math.sqrt(2.0) * np.asarray(std, dtype=float),
                            mean.shape)

    def rule_sums(m, rows):
        h, w = hermite_rule(m)
        sc = scale[rows]
        vals = fn(mean[rows, None] + sc[:, None] * h, rows)
        return sc * np.vecdot(vals, w), sc * np.vecdot(np.abs(vals), w)

    return _one_rule_per_call(rule_sums, 1e-10, 1e-14, start, max_nodes,
                              mean.size)


def _gl_reference(fn, a, b, tol, start, max_panels, size):
    """adaptive_rows' value and err, one panel count per fn call."""
    h, w = legendre_rule(8)

    def rule_sums(panels, rows):
        edges = np.linspace(a, b, panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        vals = fn((mid[:, None] + half[:, None] * h).ravel(), rows)
        vals = vals.reshape(vals.shape[:-1] + (panels, 8))
        return (np.vecdot(np.vecdot(vals, w), half),
                np.vecdot(np.vecdot(np.abs(vals), w), half))

    val, err, ok, _ = _one_rule_per_call(rule_sums, 1e-14, tol, start,
                                         max_panels, size)
    return val, np.where(ok, err, math.inf)


def _gh_row(kind, p, y):
    """A Gaussian-decay integrand: cos(p y) (stops at 64 nodes for p <= 4,
    at 128 for p in [5, 8]) or |y - p| (kinked: runs to 256), times the
    N(0, 1) density."""
    f = np.cos(p * y) if kind == "cos" else np.abs(y - p)
    return f * normal_pdf(y, 0.0, 1.0)


def _gh_rows(rows_spec):
    def fn(y, rows):
        return np.stack([_gh_row(*rows_spec[r], y[i])
                         for i, r in enumerate(rows)])
    return fn


def test_reference_rows_stop_at_every_rule():
    rows = [("cos", 1.0), ("cos", 6.0), ("abs", 0.2)]
    last = _gh_reference(_gh_rows(rows), [0.0] * 3, 1.0, 32, 256)[3]
    assert last.tolist() == [64, 128, 256]


_GH_ROW = st.one_of(st.tuples(st.just("cos"), st.floats(0.0, 8.0)),
                    st.tuples(st.just("abs"), st.floats(-1.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(_GH_ROW, max_size=5),
       means=st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
       sizes=st.sampled_from([(32, 256), (16, 64), (32, 32), (64, 64)]),
       block=st.sampled_from([1, 100, 6 * 1024]))
@example(rows=[("cos", 1.0), ("cos", 6.0), ("abs", 0.2)],
         means=[0.0] * 5, sizes=(32, 256), block=6 * 1024)
@example(rows=[], means=[0.0] * 5, sizes=(32, 256), block=6 * 1024)
def test_gauss_hermite_rows_match_one_rule_per_call(rows, means, sizes,
                                                    block):
    # the rows stop at 64, 128 and 256, or with start == max_nodes after
    # their one rule; no rows make no call
    start, max_nodes = sizes
    fn = _gh_rows(rows)
    calls = []

    def counted(y, r):
        calls.append(r.size)
        return fn(y, r)

    mean = means[:len(rows)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "BLOCK_ELEMENTS", block)
        val, err = gauss_hermite_rows(counted, mean, 0.9, start=start,
                                      max_nodes=max_nodes)
    ref_val, ref_err, _, _ = _gh_reference(fn, mean, 0.9, start,
                                           max_nodes)
    assert val.tobytes() == ref_val.tobytes()
    assert err.tobytes() == ref_err.tobytes()
    assert bool(calls) == bool(rows)


_GL_ROW = st.one_of(st.tuples(st.just("sin"), st.floats(1.0, 60.0)),
                    st.tuples(st.just("rsqrt"), st.floats(1e-3, 0.2)))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(_GL_ROW, max_size=4),
       panels=st.sampled_from([(2, 128), (4, 32), (8, 8)]))
@example(rows=[("sin", 1.0), ("sin", 20.0), ("sin", 40.0),
               ("rsqrt", 1e-3)], panels=(2, 128))
@example(rows=[], panels=(2, 128))
def test_adaptive_rows_match_one_rule_per_call(rows, panels):
    def fn(s, r):
        return np.stack([np.sin(p * s) if kind == "sin" else
                         1.0 / np.sqrt(s + p) for kind, p in
                         (rows[i] for i in r)]).reshape(len(r), s.size)

    calls = []

    def counted(s, r):
        calls.append(r.size)
        return fn(s, r)

    start, max_panels = panels
    val, err = adaptive_rows(counted, 0.0, 1.0, 1e-10, start, max_panels,
                             size=len(rows))
    ref_val, ref_err = _gl_reference(fn, 0.0, 1.0, 1e-10, start,
                                     max_panels, len(rows))
    assert val.tobytes() == ref_val.tobytes()
    assert err.tobytes() == ref_err.tobytes()
    assert bool(calls) == bool(rows)


def _both_ways(run):
    """The bytes of run() as it runs, its first integrand call asking for
    two rules, and of run() with node_doubling's value_at asked for one
    rule a call; and the number of rules in the first call, [] when none
    was made."""
    doubling, firsts = quad.node_doubling, []

    def combined(value_at, *args):
        def recorded(ms, rows):
            firsts.append(len(ms))
            return value_at(ms, rows)
        return doubling(recorded, *args)

    def one_rule_per_call(value_at, *args):
        return doubling(lambda ms, rows: [value_at((m,), rows)[0]
                                          for m in ms], *args)

    with mock.patch.object(quad, "node_doubling", combined):
        got = run()
    with mock.patch.object(quad, "node_doubling", one_rule_per_call):
        ref = run()
    return np.asarray(got).tobytes(), np.asarray(ref).tobytes(), firsts[:1]


_STARTS = st.sampled_from([(8, 256), (16, 64), (32, 256), (64, 64)])


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 1.5),
                               st.floats(0.0, 4.0)), max_size=6),
       sizes=_STARTS, G=st.sampled_from([None, 1, 3]),
       block=st.sampled_from([100, 6 * 1024]))
def test_gauss_hermite_rows_combined_call_is_one_rule_per_call(rows, sizes,
                                                               G, block):
    # integrand g of row r: cos((g + 1) p y) or |y - p| times the N(0, 1)
    # density, so that the elements stop at different rules
    mean, std, p = (np.array(c) for c in zip(*rows)) if rows else \
        (np.empty(0),) * 3
    shape = () if G is None else (G,)

    def fn(y, r):
        out = [[np.cos((g + 1) * p[k] * y[i]) if (g + k) % 2 == 0
                else np.abs(y[i] - p[k]) for i, k in enumerate(r)]
               for g in range(G or 1)]
        out = np.array(out).reshape((G or 1, len(r), y.shape[1]))
        return (out * normal_pdf(y, 0.0, 1.0)).reshape(shape + y.shape)

    def run():
        with mock.patch.object(quad, "BLOCK_ELEMENTS", block):
            return gauss_hermite_rows(fn, mean, std, start=sizes[0],
                                      max_nodes=sizes[1], shape=shape)

    got, ref, firsts = _both_ways(run)
    assert got == ref
    assert firsts == ([2 if sizes[0] < sizes[1] else 1] if rows else [])


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(st.booleans(), st.floats(1e-3, 40.0)),
                     max_size=5),
       panels=st.sampled_from([(1, 128), (2, 128), (4, 32), (8, 8)]))
def test_adaptive_rows_combined_call_is_one_rule_per_call(rows, panels):
    def fn(s, r):
        return np.stack([np.sin(p * s) if wave else 1.0 / np.sqrt(s + p)
                         for wave, p in (rows[i] for i in r)]
                        ).reshape(len(r), s.size)

    got, ref, firsts = _both_ways(lambda: adaptive_rows(
        fn, 0.0, 1.0, 1e-10, *panels, size=len(rows)))
    assert got == ref
    assert firsts == ([2 if panels[0] < panels[1] else 1] if rows else [])


@settings(max_examples=30, deadline=None)
@given(mean=st.floats(-1.0, 1.0), std=st.floats(0.05, 1.5),
       p=st.floats(0.0, 3.0), q=st.floats(-1.0, 1.0),
       push=st.sampled_from([None, np.exp]), sizes=_STARTS)
def test_expect_gaussian_combined_call_is_one_rule_per_call(mean, std, p, q,
                                                            push, sizes):
    def fn(y):
        return np.cos(p * y) + np.abs(y - q)

    got, ref, firsts = _both_ways(lambda: expect_gaussian(
        fn, mean, std, push=push, start=sizes[0], max_nodes=sizes[1]))
    assert got == ref
    assert firsts == [2 if sizes[0] < sizes[1] else 1]


@settings(max_examples=15, deadline=None)
@given(mean=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       s=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
       p=st.floats(0.0, 3.0), q=st.floats(-1.0, 1.0))
def test_expect_gaussian_nd_combined_call_is_one_rule_per_call(mean, s, p,
                                                               q):
    S = np.array([[s[0], 0.0], [s[1], s[2]]])

    def fn(v):
        return np.cos(p * v[:, 0]) * v[:, 1] ** 2 + np.abs(v[:, 0] - q)

    got, ref, firsts = _both_ways(lambda: expect_gaussian_nd(
        fn, np.array(mean), S @ S.T))
    assert got == ref
    assert firsts == [2]


def test_gauss_hermite_rows_integrands_stop_on_their_own():
    # a smooth and a kinked integrand share their row's nodes: the first
    # stops at 64 nodes and keeps that rule's value while the second runs
    # to 256; each equals its own single-integrand run bit for bit
    smooth = lambda y: (y ** 3 + y * y) * normal_pdf(y, 0.0, 1.0)
    kinked = lambda y: np.abs(y) * normal_pdf(y, 0.0, 1.0)
    seen = []

    def both(y, rows):
        seen.append(y.shape[1])
        return np.stack([smooth(y), kinked(y)])

    val, err = gauss_hermite_rows(both, [0.1, -0.2], [1.0, 0.8], shape=(2,))
    assert val.shape == err.shape == (2, 2)
    assert seen == [96, 128, 256]
    for g, integrand in enumerate((smooth, kinked)):
        v, e = gauss_hermite_rows(lambda y, rows: integrand(y), [0.1, -0.2],
                                  [1.0, 0.8])
        assert val[g].tobytes() == v.tobytes()
        assert err[g].tobytes() == e.tobytes()
    assert (err[0] < 1e-14).all() and (err[1] > 1e-6).all()


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


def test_time_rule_nodes_are_built_once_and_read_only():
    # one cached node array and one half-width array per panel count of
    # each (a, b, panel counts, order), as _gl_reference builds them
    h = legendre_rule(8)[0]
    nodes, halves = quad._gl_nodes(0.0, 0.7, (2, 4), 8)
    assert quad._gl_nodes(0.0, 0.7, (2, 4), 8)[0] is nodes
    want = []
    for panels, half in zip((2, 4), halves):
        edges = np.linspace(0.0, 0.7, panels + 1)
        assert half.tobytes() == (0.5 * np.diff(edges)).tobytes()
        want.append((0.5 * (edges[:-1] + edges[1:])[:, None]
                     + half[:, None] * h).ravel())
    assert nodes.tobytes() == np.concatenate(want).tobytes()
    for v in (nodes, *halves):
        with pytest.raises(ValueError):
            v[0] = 1.0
    seen = []
    adaptive_interval(lambda s: seen.append(s) or np.sin(s), 0.0, 0.7)
    assert seen[0] is nodes


def test_shared_rules_are_read_only():
    # cache entries every caller shares: a write to one would corrupt
    # every later quadrature in the process
    h, w = np.polynomial.hermite.hermgauss(8)
    want = {quad.hermgauss_rule: (h, w), hermite_rule: (h, w * np.exp(h * h)),
            legendre_rule: np.polynomial.legendre.leggauss(8)}
    for rule, arrays in want.items():
        for got, exact in zip(rule(8), arrays):
            assert got.tobytes() == exact.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0
