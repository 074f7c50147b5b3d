import json
import math
import os
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import cli, euler
from weaklab import pricing as pr
from weaklab.error_expansion import density_error_exact, distribution_pairing
from weaklab.euler import (CHUNK, SimulationBlowup, ThreadPoolExecutor,
                           euler_affine_transport, euler_density_1d,
                           empirical_moment,
                           gbm_euler_mean, mc_reduce, mc_reduce_multi,
                           simulate_coupled, simulate_euler, simulate_ladder,
                           worker_count)
from weaklab.models import (make_bounded_vol_model, make_constant_model,
                            make_gbm_model, make_ou_model)
from weaklab.montecarlo import bias_ladder, estimate_expectation
from weaklab.rng import RngStream, normals_from
from weaklab.testfunctions import (UnsupportedFunctional, dirac, identity,
                                   square)

TANH = make_bounded_vol_model(0.05, 0.6, 0.5)
TWO_NOISES = make_constant_model([0.1], [[0.3, 0.4]])  # d = 1, r = 2


def test_rng_streams_reproducible_and_distinct():
    a = normals_from(RngStream(7, 0).generator(), (1000,))
    b = normals_from(RngStream(7, 0).generator(), (1000,))
    c = normals_from(RngStream(7, 1).generator(), (1000,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    s = RngStream(7, 0)
    assert s.substream(3) != s.substream(4)


def test_ou_euler_law_n4_frozen_oracle():
    # four quarter-steps of dX = -X dt + dB from x=1:
    # mean (3/4)^4, variance via V <- (3/4)^2 V + 1/4
    m = make_ou_model(1.0, 1.0)
    A, c, V = euler_affine_transport(m, 4, 1.0)
    assert abs(A * 1.0 + c - 0.31640625) < 1e-15
    assert abs(V - 0.51422119140625) < 1e-15


def test_partial_last_step_transport():
    m = make_ou_model(1.0, 1.0)
    A, c, V = euler_affine_transport(m, 4, 0.9)  # 3 full steps + 0.15
    want_A = 0.75**3 * (1 - 0.15)
    want_V = ((0.25 * 0.75**2 + 0.25) * 0.75**2 + 0.25) * 0.85**2 + 0.15
    assert abs(A - want_A) < 1e-15
    assert abs(V - want_V) < 1e-15


def test_constant_model_euler_is_exact_in_law():
    m = make_constant_model([0.3], [[0.7]])
    A, c, V = euler_affine_transport(m, 5, 1.0)
    table = m.exact_density.time_table(1.0, 0)
    mean, _, _, _ = m.exact_density.gauss_coords(table, 0.0)
    assert abs(c - mean) < 1e-14
    assert abs(V - table[2]) < 1e-14


@pytest.mark.parametrize("model", [make_gbm_model(0.1, 0.2),
                                   make_constant_model([0.1, 0.2], np.eye(2))])
def test_euler_law_rejects_models_without_a_1d_affine_one(model):
    with pytest.raises(ValueError):
        euler_affine_transport(model, 4, 1.0)
    with pytest.raises(ValueError):
        euler_density_1d(model, 4)


def test_euler_endpoints_match_exact_law_moments():
    m = make_ou_model(1.0, 1.0)
    pts = simulate_euler(m, [1.0], 8, 1.0, RngStream(11, 0), 200_000)
    A, c, V = euler_affine_transport(m, 8, 1.0)
    mean, var = A * 1.0 + c, V
    se_mean = math.sqrt(var / pts.shape[0])
    assert abs(pts.mean() - mean) < 4 * se_mean
    assert abs(pts.var() - var) < 0.01


def test_ladder_shares_brownian_motion():
    m = make_gbm_model(0.1, 0.2)
    out = simulate_ladder(m, [1.0], [4, 8, 16], 1.0, RngStream(3, 5), 50_000)
    # coupled resolutions must be pathwise close (strong error), far closer
    # than independent draws would be
    d_coarse = np.abs(out[4][:, 0] - out[16][:, 0]).mean()
    d_fine = np.abs(out[8][:, 0] - out[16][:, 0]).mean()
    assert d_fine < d_coarse < 0.2
    # coupled pair is exactly the two-rung ladder on the same stream
    coarse, fine = simulate_coupled(m, [1.0], 4, 1.0, RngStream(3, 5), 50_000)
    out2 = simulate_ladder(m, [1.0], [4, 8], 1.0, RngStream(3, 5), 50_000)
    assert np.array_equal(coarse, out2[4])
    assert np.array_equal(fine, out2[8])


@pytest.mark.parametrize("model, x, n, t", [
    (make_ou_model(1.0, 1.0), [1.0], 4, 0.9),          # 3 full steps + 0.15
    (make_gbm_model(0.1, 0.2), [1.0], 7, 1.0),
    (make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]]),
     [0.0, 0.5], 5, 0.7),                               # 2-D, partial step
    (TANH, [0.2], 6, 0.9),                              # 5 full + 0.9 / 6
    (TWO_NOISES, [0.4], 4, 0.9),
], ids=["ou-partial", "gbm", "constant-2d-partial", "tanh-vol-partial",
        "constant-1d-r2-partial"])
def test_single_resolution_ladder_is_simulate_euler(model, x, n, t):
    pts = simulate_euler(model, x, n, t, RngStream(2, 7), 1000)
    lad = simulate_ladder(model, x, [n], t, RngStream(2, 7), 1000)
    assert pts.shape == (1000, model.dim_d)
    assert np.array_equal(pts, lad[n])


@pytest.mark.parametrize("model, starts, ns, t, size", [
    (make_ou_model(1.0, 1.0), [[1.0], [-0.5], [2.0]], [2, 4, 8], 0.9, 7),
    (make_gbm_model(0.1, 0.2), [[-0.1], [0.0], [0.1]], [3, 6], 1.0, 1001),
    (make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]]),
     [[0.0, 0.5], [1.0, -1.0], [0.3, 0.3]], [5, 10], 0.7, 13),
    (TANH, [[-0.3], [0.0], [0.3]], [2, 4, 8], 0.9, 11),
    (TWO_NOISES, [[0.4], [1.1], [-0.2]], [3, 6], 0.9, 9),
], ids=["ou-partial", "gbm-odd-size", "constant-2d-partial",
        "tanh-vol-partial", "constant-1d-r2-partial"])
def test_multi_start_blocks_match_single_starts(model, starts, ns, t, size):
    lad = simulate_ladder(model, starts, ns, t, RngStream(4, 1), size)
    for n in ns:
        assert lad[n].shape == (len(starts) * size, model.dim_d)
        for j, x in enumerate(starts):
            alone = simulate_ladder(model, x, ns, t, RngStream(4, 1), size)
            assert np.array_equal(lad[n][j * size:(j + 1) * size], alone[n])
    pts = simulate_euler(model, starts, ns[0], t, RngStream(4, 1), size)
    assert np.array_equal(
        pts[size:2 * size],
        simulate_euler(model, starts[1], ns[0], t, RngStream(4, 1), size))


def test_start_points_must_match_dimension():
    m = make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]])
    with pytest.raises(ValueError):
        simulate_euler(m, [[0.0, 0.1, 0.2]], 4, 1.0, RngStream(0, 0), 8)


def test_ladder_requires_divisibility():
    m = make_gbm_model(0.1, 0.2)
    with pytest.raises(ValueError):
        simulate_ladder(m, [1.0], [3, 8], 1.0, RngStream(0, 0), 16)


@pytest.mark.parametrize("ns", [[-2, 8], [0, 4]])
def test_rungs_must_be_positive(ns):
    # at [-2, 8] a rung at n = -2 was returned, at [0, 4] the divisibility
    # check divided by zero
    with pytest.raises(ValueError, match="positive"):
        bias_ladder(make_ou_model(1.0, 1.0), identity(), [1.0], 1.0, ns, 64,
                    RngStream(0, 0))


def test_resolutions_must_be_integers():
    # simulate_euler used to step at 1/4.5, simulate_ladder to run n = 4,
    # and the coupled ladders to return a rung at n = 4 for 4.5
    m = make_ou_model(1.0, 1.0)
    with pytest.raises(ValueError, match="integers"):
        simulate_euler(m, [0.0], 4.5, 1.0, RngStream(0, 0), 8)
    with pytest.raises(ValueError, match="integers"):
        simulate_ladder(m, [0.0], [4.5], 1.0, RngStream(0, 0), 8)
    with pytest.raises(ValueError, match="integers"):
        bias_ladder(m, identity(), [1.0], 1.0, [4.5, 8], 64, RngStream(0, 0))
    opt = pr.OptionSpec(pr.make_payoff("call", strike=1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="integers"):
        pr.correction_estimate(m, opt, "delta", [4.5, 8], 64, RngStream(0, 0))


def test_simulation_blowup_reported():
    m = make_constant_model([0.0], [[1.0]])

    def nan_drift(x, b, sig):
        b.fill(np.nan)
        sig.fill(1.0)

    m.drift_diffusion = nan_drift
    with pytest.raises(SimulationBlowup):
        simulate_euler(m, [0.0], 4, 1.0, RngStream(0, 0), 8)


def test_gbm_euler_mean_recursion():
    assert abs(gbm_euler_mean(0.1, 1.0, 8, 1.0) - (1 + 0.1 / 8) ** 8) < 1e-15
    # partial step: 3 full + 0.15 of drift
    want = (1 + 0.1 / 4) ** 3 * (1 + 0.1 * 0.15)
    assert abs(gbm_euler_mean(0.1, 1.0, 4, 0.9) - want) < 1e-15


def test_euler_density_matches_law():
    m = make_ou_model(1.0, 1.0)
    dens = euler_density_1d(m, 4)
    A, c, V = euler_affine_transport(m, 4, 1.0)
    table = dens.time_table(1.0, 0)
    mean, std, push, _ = dens.gauss_coords(table, 1.0)
    assert push is None and std == math.sqrt(table[2])
    assert abs(mean - (A * 1.0 + c)) < 1e-15
    assert abs(table[2] - V) < 1e-15


def test_mc_reduce_worker_count_invariance():
    m = make_ou_model(1.0, 1.0)
    N = 3 * CHUNK + 17

    def run(workers):
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers):
            return empirical_moment(m, [1.0], 4, 1.0, 4, N, RngStream(9, 2))

    assert run("1") == run("4")


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_mc_reduce_standard_error_at_large_means(offset):
    # E[x^2] - mean^2 cancels at a large mean: unit-sd samples at 1e8 read
    # an sd of 0 or 1.41 depending on the draws
    N, rng = 3 * CHUNK + 17, RngStream(3, 1)

    def chunk(stream, size):
        return offset + normals_from(stream.generator(), (size,))

    mean, se = mc_reduce(chunk, N, rng)
    z = np.concatenate([normals_from(rng.substream(i).generator(), (size,))
                        for i, size in enumerate([CHUNK] * 3 + [17])])
    assert se * math.sqrt(N) == pytest.approx(z.std(), rel=1e-9)
    assert mean - offset == pytest.approx(z.mean(), abs=1e-7)


@pytest.mark.parametrize("reduce", [mc_reduce, mc_reduce_multi])
def test_reduce_rejects_zero_samples(reduce):
    with pytest.raises(ValueError):
        reduce(lambda stream, size: np.zeros((size, 2)), 0, RngStream(1, 1))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_reduce_starts_no_chunk_after_one_raises(workers):
    # every chunk raises once simulated; pool.map used to run all four
    # chunks before the exception reached the caller
    calls = []

    def counted(*args):
        calls.append(1)
        return simulate_euler(*args)

    with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers), \
            mock.patch("weaklab.montecarlo.simulate_euler", counted):
        with pytest.raises(UnsupportedFunctional):
            estimate_expectation(make_ou_model(1.0, 1.0), dirac(0.3), [0.0],
                                 4, 1.0, 4 * CHUNK, RngStream(8, 8))
    # chunks run one at a time, so the first one's error ends the reduction
    assert len(calls) == 1


def test_worker_count_defaults_to_affinity():
    env = {k: v for k, v in os.environ.items() if k != "WEAKLAB_WORKERS"}
    with mock.patch.dict(os.environ, env, clear=True):
        assert worker_count() == len(os.sched_getaffinity(0))
    with mock.patch.dict(os.environ, WEAKLAB_WORKERS="3"):
        assert worker_count() == 3


QUARTERS = [(i * CHUNK // 4, (i + 1) * CHUNK // 4) for i in range(4)]


@pytest.mark.parametrize("N, ranges", [
    (CHUNK, {CHUNK: QUARTERS}),
    (CHUNK + 1, {CHUNK: QUARTERS, 1: [(0, 1)]}),
], ids=["lone-chunk", "two-chunks"])
def test_reduce_threads_and_parts_per_chunk(N, ranges):
    # every chunk on the calling thread, in substream order, and no
    # executor but the part pool; min(workers, size) path ranges per
    # simulation
    m, rng, seen, chunks = make_ou_model(1.0, 1.0), RngStream(1, 1), [], []

    def chunk(stream, size):
        chunks.append((threading.get_ident(), stream))
        return simulate_euler(m, [0.0], 1, 1.0, stream, size)[:, 0]

    def spy(*args):
        seen.append((args[5],) + args[-2:])  # size, lo, hi
        return euler_paths(*args)

    euler_paths = euler._euler_paths
    with mock.patch.dict(os.environ, WEAKLAB_WORKERS="4"), \
            mock.patch("weaklab.euler.ThreadPoolExecutor",
                       wraps=ThreadPoolExecutor) as pool, \
            mock.patch("weaklab.euler._euler_paths", spy):
        mc_reduce(chunk, N, rng)
    assert chunks == [(threading.get_ident(), rng.substream(i))
                      for i in range(len(ranges))]
    assert all(c.kwargs.get("thread_name_prefix") == "weaklab-part"
               for c in pool.call_args_list)
    got = {}
    for size, lo, hi in sorted(seen):
        got.setdefault(size, []).append((lo, hi))
    assert got == ranges


SPLIT_CASES = {
    "tanh-vol k=1": (TANH, [[0.2]]),
    "tanh-vol k=3": (TANH, [[-0.3], [0.0], [0.3]]),
    "gbm k=2": (make_gbm_model(0.1, 0.2), [[0.9], [1.1]]),
    "ou": (make_ou_model(1.0, 1.0), [[1.0]]),
    "constant-1d-r2": (TWO_NOISES, [[0.4]]),
    "constant-2d": (make_constant_model([0.1, -0.2], [[0.5, 0.0], [0.1, 0.4]]),
                    [[0.0, 0.5]]),
}


def _hex_levels(model, starts, size, workers):
    with mock.patch.dict(os.environ, WEAKLAB_WORKERS=str(workers)), \
            mock.patch("weaklab.euler._euler_paths",
                       wraps=euler._euler_paths) as ranges:
        lad = simulate_ladder(model, starts, [2, 4, 8], 0.77,
                              RngStream(6, 2), size)
    assert ranges.call_count == min(workers, size)
    return {n: [v.hex() for v in pts.ravel().tolist()]
            for n, pts in lad.items()}


@pytest.mark.parametrize("size", [1, 2, 1001, 16_384])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_paths_match_one_part(case, size):
    # a direct simulate_ladder call splits its paths over the workers;
    # t = 0.77 ends every level on a partial step, and at 1001 paths the
    # ranges start inside Philox's blocks of four uniforms
    model, starts = SPLIT_CASES[case]
    want = _hex_levels(model, starts, size, 1)
    assert _hex_levels(model, starts, size, 2) == want
    assert _hex_levels(model, starts, size, 3) == want


REDUCTIONS = {
    "bias-ladder": lambda N: bias_ladder(
        make_ou_model(1.0, 1.0), square(), [0.5], 1.0, [2, 4], N,
        RngStream(9, 4)),
    "greeks": lambda N: pr.greeks_euler(
        TANH, pr.OptionSpec(pr.make_payoff("call", strike=1.0), t=0.77, v=1.0),
        4, N, RngStream(9, 5)),
    "moment": lambda N: empirical_moment(
        make_gbm_model(0.1, 0.2), [1.0], 4, 0.77, 4, N, RngStream(9, 6)),
}


@pytest.mark.parametrize("N", [40_000, CHUNK + 17])
@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_split_reductions_match_across_worker_counts(name, N):
    # one chunk splits into 1 to 4 ranges, two chunks into 1 or 2 each
    def run(workers):
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers):
            return repr(REDUCTIONS[name](N))

    want = run("1")
    assert [run(w) for w in ("2", "3", "4")] == [want] * 3


def _late_blowup(size):
    """OU whose writer puts NaN into the drift of the second half of the
    `size` paths at step 2 and of the first half at step 3.  size is odd,
    so the two ranges of a split, [0, size // 2) and [size // 2, size),
    and the unsplit [0, size) have three lengths."""
    model = make_ou_model(1.0, 1.0)
    ou, half, calls = model.drift_diffusion, size // 2, Counter()

    def drift_diffusion(x, b, sig):
        ou(x, b, sig)
        step = calls[len(x)]
        calls[len(x)] += 1
        rows = np.arange(len(x)) + (half if len(x) == size - half else 0)
        if step == 2:
            b[rows >= half] = np.nan
        elif step == 3:
            b[rows < half] = np.nan

    model.drift_diffusion = drift_diffusion
    return model


@pytest.mark.parametrize("workers", ["1", "2"])
def test_split_blowup_reports_the_unsplit_step(workers):
    # at 2 workers the second range fails first; raising the first
    # range's error would report step 3.  A short switch interval
    # interleaves the ranges' steps differently from run to run.
    steps = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers):
            for _ in range(20):
                with pytest.raises(SimulationBlowup) as err:
                    empirical_moment(_late_blowup(9), [0.0], 8, 1.0, 2, 9,
                                     RngStream(2, 2))
                steps.append(err.value.step)
    finally:
        sys.setswitchinterval(interval)
    assert steps == [2] * 20


def test_split_blowup_cli_line_matches_one_part(tmp_path, capsys):
    cfg = {"study": "moments", "model": {"model": "ou", "theta": 1.0,
                                         "sigma": 1.0},
           "q": 2, "t_grid": [1.0], "x_grid": [0.0], "n_ladder": [8, 16],
           "N": 9, "seed": 3, "output_csv": str(tmp_path / "m.csv"),
           "output_json": str(tmp_path / "m.json")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    lines = []
    for workers in ("1", "2"):
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers), \
                mock.patch("weaklab.models.model_from_config",
                           return_value=_late_blowup(9)):
            assert cli.main(["run", str(path)]) == cli.EXIT_NONCONVERGED
        lines.append(capsys.readouterr().err)
    assert lines == ["non-convergence: non-finite state at step 2\n"] * 2


def _path_failures(above, below):
    """OU whose writer puts NaN into the drift of every path above `above`
    and, unless below is None, raises FloatingPointError once a path is
    below `below`: where a simulation fails depends on its paths alone,
    not on how they are split into ranges."""
    model = make_ou_model(1.0, 1.0)
    ou = model.drift_diffusion

    def drift_diffusion(x, b, sig):
        ou(x, b, sig)
        if below is not None and np.any(x[:, 0] < below):
            raise FloatingPointError(f"a path below {below}")
        b[x[:, 0] > above] = np.nan

    model.drift_diffusion = drift_diffusion
    return model


@pytest.mark.parametrize("above, below, seed, kinds", [
    (1.5, None, (7, 1), {SimulationBlowup}),
    # the error comes three steps before the first blowup, and at 3 and
    # 4 workers a range below the error's blows up
    (1.7, -1.5, (7, 2), {SimulationBlowup, FloatingPointError})])
def test_split_failure_is_the_unsplit_one_at_any_worker_count(above, below,
                                                              seed, kinds):
    def spy(*args):
        out = euler_paths(*args)
        if isinstance(out, tuple):
            failures.append((out[0], type(out[1])))
        return out

    euler_paths, raised = euler._euler_paths, []
    for workers in ("1", "2", "3", "4"):
        failures = []
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers), \
                mock.patch("weaklab.euler._euler_paths", spy), \
                pytest.raises(tuple(kinds)) as err:
            simulate_ladder(_path_failures(above, below), [0.0], [4, 8, 16],
                            0.9, RngStream(*seed), 1001)
        raised.append((type(err.value), str(err.value)))
        if workers in ("3", "4"):  # else the test could not see the order
            assert len({step for step, _ in failures}) >= 2
            assert {kind for _, kind in failures} == kinds
    first = FloatingPointError if below is not None else SimulationBlowup
    assert raised[0][0] is first
    assert raised == raised[:1] * 4


@pytest.mark.parametrize("t", [-0.5, -1.0, math.nan, math.inf, -math.inf])
def test_bad_horizon_is_rejected(t):
    ou = make_ou_model(1.0, 1.0)
    with mock.patch("weaklab.euler._euler_paths") as ranges, \
            pytest.raises(ValueError, match="horizon t"):
        simulate_euler(ou, [1.0], 4, t, RngStream(0, 0), 8)
    assert not ranges.called  # raised before any range started
    for model in (ou, make_constant_model([0.1], [[0.3]])):
        with pytest.raises(ValueError, match="horizon t"):
            euler_affine_transport(model, 4, t)
    with pytest.raises(ValueError, match="horizon t"):
        gbm_euler_mean(0.1, 1.0, 4, t)


def test_zero_horizon_returns_the_start_points():
    pts = simulate_euler(make_ou_model(1.0, 1.0), [1.0], 4, 0.0,
                         RngStream(0, 0), 8)
    assert np.array_equal(pts, np.ones((8, 1)))
    assert euler_affine_transport(make_ou_model(1.0, 1.0), 4, 0.0) == \
        (1.0, 0.0, 0.0)


def test_empty_ladder_is_rejected():
    with pytest.raises(ValueError, match="one or more"):
        simulate_ladder(make_ou_model(1.0, 1.0), [1.0], [], 1.0,
                        RngStream(0, 0), 8)


@pytest.mark.parametrize("n", [-4, 2.5, 0, math.inf])
def test_step_count_must_be_a_positive_integer(n):
    # at n = -4 the affine transport was the identity law, the density
    # error NaN, the pairing (0.0, 0.432...) and the GBM mean 1.1066; at
    # 2.5 the steps were 0.4, 0.4 and 0.2; at 0 a ZeroDivisionError
    ou = make_ou_model(1.0, 1.0)
    for call in (lambda: euler_affine_transport(ou, n, 1.0),
                 lambda: euler_density_1d(ou, n),
                 lambda: density_error_exact(ou, n, 1.0, 1.0, 1.0),
                 lambda: distribution_pairing(ou, square(), n, 1.0, 1.0),
                 lambda: gbm_euler_mean(0.1, 1.0, n, 1.0),
                 lambda: simulate_euler(ou, [1.0], n, 1.0, RngStream(0, 0),
                                        8)):
        with pytest.raises(ValueError, match="positive integers"):
            call()


@settings(max_examples=16, deadline=None)
@given(N=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]),
       workers=st.sampled_from(["1", "2"]))
def test_mc_reduce_multi_columns_match_scalar_runs(N, workers):
    rng = RngStream(5, 5)

    def chunk(stream, size):
        return normals_from(stream.generator(), (size,))

    def chunk2(stream, size):
        z = chunk(stream, size)
        return np.stack([z, z * z], axis=1)

    with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers):
        means, ses = mc_reduce_multi(chunk2, N, rng)
        m0, s0 = mc_reduce(chunk, N, rng)
    # Python floats: the CSV writer renders values with repr
    assert type(m0) is float and type(s0) is float
    assert means[0] == m0 and ses[0] == s0
    assert abs(means[1] - 1.0) < 4 * ses[1]


def test_empirical_moment_validates_order():
    m = make_ou_model(1.0, 1.0)
    with pytest.raises(ValueError):
        empirical_moment(m, [0.0], 4, 1.0, 3, 100, RngStream(0, 0))
    # E ||X||^0 is 1 at every n, so no bound can fail on it
    with pytest.raises(ValueError):
        empirical_moment(m, [0.0], 4, 1.0, 0, 100, RngStream(0, 0))
