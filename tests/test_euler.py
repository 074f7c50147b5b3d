import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab.euler import (CHUNK, SimulationBlowup, ThreadPoolExecutor,
                           euler_affine_transport, euler_density_1d,
                           euler_exact_law_affine, empirical_moment,
                           gbm_euler_mean, mc_reduce, mc_reduce_multi,
                           simulate_coupled, simulate_euler, simulate_ladder,
                           worker_count)
from weaklab.models import make_constant_model, make_gbm_model, make_ou_model
from weaklab.rng import RngStream, normals_from


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
    law = euler_exact_law_affine(m, [1.0], 4, 1.0)
    assert abs(law.mean1 - 0.31640625) < 1e-15
    assert abs(law.var - 0.51422119140625) < 1e-15


def test_partial_last_step_transport():
    m = make_ou_model(1.0, 1.0)
    A, c, V = euler_affine_transport(m, 4, 0.9)  # 3 full steps + 0.15
    want_A = 0.75**3 * (1 - 0.15)
    want_V = ((0.25 * 0.75**2 + 0.25) * 0.75**2 + 0.25) * 0.85**2 + 0.15
    assert abs(float(A[0, 0]) - want_A) < 1e-15
    assert abs(float(V[0, 0]) - want_V) < 1e-15


def test_constant_model_euler_is_exact_in_law():
    m = make_constant_model([0.3], [[0.7]])
    A, c, V = euler_affine_transport(m, 5, 1.0)
    law = m.exact_density.law(1.0, 0.0)
    assert abs(float(c[0]) - law.mean1) < 1e-14
    assert abs(float(V[0, 0]) - law.var) < 1e-14


def test_euler_endpoints_match_exact_law_moments():
    m = make_ou_model(1.0, 1.0)
    pts = simulate_euler(m, [1.0], 8, 1.0, RngStream(11, 0), 200_000)
    law = euler_exact_law_affine(m, [1.0], 8, 1.0)
    se_mean = math.sqrt(law.var / pts.shape[0])
    assert abs(pts.mean() - law.mean1) < 4 * se_mean
    assert abs(pts.var() - law.var) < 0.01


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
], ids=["ou-partial", "gbm", "constant-2d-partial"])
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
], ids=["ou-partial", "gbm-odd-size", "constant-2d-partial"])
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


def test_simulation_blowup_reported():
    m = make_constant_model([0.0], [[1.0]])
    m.drift = lambda x: np.full_like(x, np.nan)
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
    law = euler_exact_law_affine(m, [1.0], 4, 1.0)
    got = dens.law(1.0, 1.0)
    assert abs(got.mean1 - law.mean1) < 1e-15
    assert abs(got.var - law.var) < 1e-15


def test_mc_reduce_worker_count_invariance():
    m = make_ou_model(1.0, 1.0)
    N = 3 * CHUNK + 17

    def run(workers):
        with mock.patch.dict(os.environ, WEAKLAB_WORKERS=workers):
            return empirical_moment(m, [1.0], 4, 1.0, 4, N, RngStream(9, 2))

    assert run("1") == run("4")


def test_worker_count_defaults_to_affinity():
    env = {k: v for k, v in os.environ.items() if k != "WEAKLAB_WORKERS"}
    with mock.patch.dict(os.environ, env, clear=True):
        assert worker_count() == len(os.sched_getaffinity(0))
    with mock.patch.dict(os.environ, WEAKLAB_WORKERS="3"):
        assert worker_count() == 3


@pytest.mark.parametrize("N, threads", [(CHUNK, None), (CHUNK + 1, 2)])
def test_reduce_threads_at_most_one_per_chunk(N, threads):
    def chunk(stream, size):
        return normals_from(stream.generator(), (size,))

    with mock.patch.dict(os.environ, WEAKLAB_WORKERS="4"), \
            mock.patch("weaklab.euler.ThreadPoolExecutor",
                       wraps=ThreadPoolExecutor) as pool:
        mc_reduce(chunk, N, RngStream(1, 1))
    if threads is None:
        pool.assert_not_called()
    else:
        pool.assert_called_once_with(max_workers=threads)


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
        means, ses = mc_reduce_multi(chunk2, N, rng, 2)
        m0, s0 = mc_reduce(chunk, N, rng)
    # Python floats: the CSV writer renders values with repr
    assert type(m0) is float and type(s0) is float
    assert means[0] == m0 and ses[0] == s0
    assert abs(means[1] - 1.0) < 4 * ses[1]


def test_empirical_moment_validates_order():
    m = make_ou_model(1.0, 1.0)
    with pytest.raises(ValueError):
        empirical_moment(m, [0.0], 4, 1.0, 3, 100, RngStream(0, 0))
