"""Statistical and reproducibility tests for the noise generator."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqclab import (
    NoiseSpec,
    ResolutionError,
    ResourceLimitError,
    ensemble_autocorrelation,
    estimate_autocorrelation,
    make_noise_ensemble,
    make_noise_path,
    realization_rng,
    split_seed,
)
from gqclab import noise
from gqclab.errors import MAX_ELEMENTS
from gqclab.noise import (
    _CHUNK,
    _ensemble_normals,
    _noise_windows,
    _ou_from_normals,
    _segment_noise,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(variance=-1.0, correlation_time=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(variance=1.0, correlation_time=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(variance=1.0, correlation_time=1.0, dimension=2)


def test_kernel_normalized_at_zero_lag():
    spec = NoiseSpec(variance=3.0, correlation_time=0.2)
    assert spec.kernel_profile(0.0) == 1.0
    assert np.isclose(spec.kernel_profile(0.2), np.exp(-1.0))


def test_zero_variance_gives_zero_path():
    spec = NoiseSpec(variance=0.0, correlation_time=1.0)
    path = make_noise_path(spec, 1.0, 0.01, seed=42)
    assert path.shape == (101, 1)
    assert np.all(path == 0.0)


def test_reproducibility_bit_exact():
    spec = NoiseSpec(variance=2.0, correlation_time=0.3, dimension=3)
    a = make_noise_path(spec, 5.0, 0.01, seed=123)
    b = make_noise_path(spec, 5.0, 0.01, seed=123)
    assert np.array_equal(a, b)
    c = make_noise_path(spec, 5.0, 0.01, seed=124)
    assert not np.array_equal(a, c)


def test_resolution_error_names_bound():
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    with pytest.raises(ResolutionError, match="tau_c/10"):
        make_noise_path(spec, 1.0, 0.05, seed=0)
    with pytest.raises(ValueError):
        make_noise_path(spec, 1.0, -0.01, seed=0)
    with pytest.raises(ValueError):
        make_noise_path(spec, 0.001, 0.01, seed=0)


def test_autocovariance_lag_ratio_is_exp_minus_one():
    # >= 1e6 samples; ratio of autocovariance at lag tau_c to lag 0
    spec = NoiseSpec(variance=1.0, correlation_time=1.0)
    path = make_noise_path(spec, 110_000.0, 0.1, seed=7)
    assert path.size >= 10**6
    (lag0, var0, _), (lag1, cov1, _) = estimate_autocorrelation(
        path[None], 0.1, [0.0, 1.0]
    )
    ratio = cov1 / var0
    # standard error of the ratio over n effectively-independent blocks
    n_eff = 110_000.0 / (2 * spec.correlation_time)
    se = 1.0 / np.sqrt(n_eff)
    assert abs(ratio - np.exp(-1.0)) < 3 * se


def test_stationary_moments_vector_noise():
    spec = NoiseSpec(variance=2.5, correlation_time=0.05, dimension=3)
    x = make_noise_path(spec, 2_000.0, 0.005, seed=11)
    n_eff = 2_000.0 / (2 * spec.correlation_time)
    se_mean = np.sqrt(spec.variance / n_eff)
    assert np.all(np.abs(x.mean(axis=0)) < 3 * se_mean)
    # cross-component covariance -> 0
    se_cov = spec.variance / np.sqrt(n_eff)
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(np.mean(x[:, a] * x[:, b])) < 3 * se_cov
    # marginal variance -> sigma^2
    se_var = spec.variance * np.sqrt(2.0 / n_eff)
    assert np.all(np.abs(x.var(axis=0) - spec.variance) < 3 * se_var)


def test_stationarity_halves_agree():
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    path = make_noise_path(spec, 4_000.0, 0.01, seed=3)
    half = path.shape[0] // 2
    v1 = path[:half].var()
    v2 = path[half:].var()
    n_eff = (4_000.0 / 2) / (2 * spec.correlation_time)
    se = spec.variance * np.sqrt(2.0 / n_eff)
    assert abs(v1 - v2) < 4 * np.sqrt(2) * se


def test_mc_autocorrelation_matches_kernel():
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    samples = make_noise_ensemble(spec, 10.0, 0.01, 99, 200)
    results = estimate_autocorrelation(samples, 0.01, [0.0, 0.3])
    for (lag, est, se), expected in zip(results, [1.0, np.exp(-3.0)]):
        assert se > 0
        assert abs(est - expected) < 3 * se


def test_autocorrelation_zero_path_and_errors():
    spec = NoiseSpec(variance=0.0, correlation_time=1.0)
    path = make_noise_path(spec, 1.0, 0.01, seed=0)[None]
    for lag, est, se in estimate_autocorrelation(path, 0.01, [0.0, 0.5]):
        assert est == 0.0 and se == 0.0
    assert estimate_autocorrelation(path, 0.01, []) == []
    assert ensemble_autocorrelation(spec, 1.0, 0.01, 0, 1, []) == []
    with pytest.raises(ValueError):
        estimate_autocorrelation(path, 0.01, [0.005])  # not on the grid
    with pytest.raises(ValueError):
        estimate_autocorrelation(path, 0.01, [5.0])  # beyond duration
    with pytest.raises(ValueError):
        estimate_autocorrelation(path[:0], 0.01, [0.0])  # no paths


def test_lag0_estimate_equals_sample_moment():
    spec = NoiseSpec(variance=1.5, correlation_time=0.2)
    path = make_noise_path(spec, 20.0, 0.02, seed=5)
    [(_, est, _)] = estimate_autocorrelation(path[None], 0.02, [0.0])
    assert np.isclose(est, np.mean(path**2), rtol=0, atol=1e-14)


def test_autocorrelation_bits_do_not_depend_on_blas_threads():
    # lag slices of 20,000 elements, where OpenBLAS splits a dot product
    # over threads; each count runs in its own interpreter, since the pool
    # size is read at import
    code = (
        "import numpy as np; from gqclab import noise; "
        "x = np.random.default_rng(5).standard_normal((3, 10_001, 2)); "
        "print([e.hex() for _, e, s in "
        "noise.estimate_autocorrelation(x, 0.01, [0.0, 0.5, 1.0])])"
    )
    src = str(Path(noise.__file__).resolve().parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert len(outputs) == 1


def test_ensemble_rows_match_split_seeds():
    spec = NoiseSpec(variance=1.0, correlation_time=0.1, dimension=1)
    ens = make_noise_ensemble(spec, 2.0, 0.01, master_seed=17, realizations=5)
    assert ens.shape == (5, 201, 1)
    for i in range(5):
        xi = realization_rng(17, i).standard_normal((201, 1))
        assert np.array_equal(ens[i], _ou_from_normals(spec, xi, 0.01))


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("n_t", [2, 255, 256, 257, 513])
def test_ou_recursion_matches_lfilter_bit_for_bit(ou_reference, n_t, dimension):
    # n_t around the recursion's block length of 256 steps
    spec = NoiseSpec(variance=1.3, correlation_time=0.1, dimension=dimension)
    dt = 0.01
    xi = np.random.default_rng(n_t).standard_normal((4, n_t, dimension))
    batched = xi.copy()
    assert _ou_from_normals(spec, batched, dt) is batched  # in place
    assert np.array_equal(batched, ou_reference(spec, xi, dt))
    # one path, shaped (n_t, dim)
    single = _ou_from_normals(spec, xi[0].copy(), dt)
    assert np.array_equal(single, ou_reference(spec, xi[0], dt))

    duration = (n_t - 1) * dt
    ens = make_noise_ensemble(spec, duration, dt, master_seed=17, realizations=3)
    assert ens.shape == (3, n_t, dimension)
    for i in range(3):
        xi = realization_rng(17, i).standard_normal((n_t, dimension))
        assert np.array_equal(ens[i], ou_reference(spec, xi, dt))


def test_ou_block_is_bounded_in_bytes(peak_bytes, ou_reference):
    """At 8,192 scalar paths the recursion copies 16-step blocks of 1 MiB,
    not the whole 201-point ensemble of 12.6 MiB, and keeps its bits."""
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    xi = np.random.default_rng(2).standard_normal((8192, 201, 1))
    expected = ou_reference(spec, xi, 0.005)
    assert peak_bytes(_ou_from_normals, spec, xi, 0.005) <= 1.5 * 2**20
    assert np.array_equal(xi, expected)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("count", [1, 4])
def test_segment_windows_are_the_path_and_leave_the_normals(dimension, count):
    # 300 steps per segment: each window holds two blocks of the recursion
    spec = NoiseSpec(variance=2.0, correlation_time=0.1, dimension=dimension)
    n, dt, rows = 300, 0.01, 5
    path = make_noise_ensemble(spec, count * n * dt, dt, 8, rows)
    normals = _ensemble_normals(8, rows, path.shape[1:])
    drawn = normals.copy()
    window = np.empty((rows, n + 1, dimension))
    windows = _segment_noise(spec, normals, window, n, count, dt)
    for l, got in enumerate(windows):
        assert got is window
        assert np.array_equal(got, path[:, l * n : (l + 1) * n + 1])
    assert l == count - 1
    assert np.array_equal(normals, drawn)
    # sigma^2 = 0: one row of +0.0 samples per segment, without normals
    zero = NoiseSpec(variance=0.0, correlation_time=0.1, dimension=dimension)
    windows = list(_segment_noise(zero, None, None, n, count, dt))
    assert len(windows) == count
    for got in windows:
        assert got.shape == (1, n + 1, dimension)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))


@pytest.mark.parametrize("shape", [(300, 1), (4, 300, 1)])
def test_ou_zero_variance_keeps_positive_zero(ou_reference, shape):
    spec = NoiseSpec(variance=0.0, correlation_time=0.1)
    xi = -np.abs(np.random.default_rng(len(shape)).standard_normal(shape))
    out = _ou_from_normals(spec, xi.copy(), 0.01)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    assert np.array_equal(np.signbit(out), np.signbit(ou_reference(spec, xi, 0.01)))


@pytest.mark.parametrize("dimension", [1, 3])
def test_zero_variance_ensemble_is_the_recursion_without_a_draw(
    monkeypatch, dimension
):
    spec = NoiseSpec(variance=0.0, correlation_time=0.1, dimension=dimension)
    # 301 points: two blocks of the recursion, from the normals a draw would use
    expected = _ou_from_normals(spec, _ensemble_normals(5, 4, (301, dimension)), 0.01)
    calls = []
    monkeypatch.setattr(
        noise, "_ensemble_normals", lambda *a: calls.append(a) or _ensemble_normals(*a)
    )
    ens = make_noise_ensemble(spec, 3.0, 0.01, 5, 4)
    assert calls == []
    assert np.array_equal(ens, expected)
    assert np.array_equal(np.signbit(ens), np.signbit(expected))


@pytest.mark.parametrize("variance", [0.0, 1.0])
def test_ensemble_above_the_bound_is_refused_unallocated(
    refused_unallocated, variance
):
    # 4096 paths of 10^5 + 1 points
    assert 4096 * 100_001 > MAX_ELEMENTS
    spec = NoiseSpec(variance=variance, correlation_time=1.0)
    refused_unallocated(make_noise_ensemble, spec, 10_000.0, 0.1, 0, 4096)


@pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("realizations", [1, 2, 3, 7])
@pytest.mark.parametrize("dimension", [1, 3])
def test_rows_are_philox_streams_keyed_by_seed_and_index(
    ou_reference, dimension, realizations, master
):
    # the whole stream contract: row i draws Philox(key=m + 2**64 i) from 0
    spec = NoiseSpec(variance=1.3, correlation_time=0.1, dimension=dimension)
    xi = np.stack(
        [
            np.random.Generator(np.random.Philox(key=master + 2**64 * i))
            .standard_normal((21, dimension))
            for i in range(realizations)
        ]
    )
    ens = make_noise_ensemble(spec, 0.2, 0.01, master, realizations)
    assert np.array_equal(ens, ou_reference(spec, xi, 0.01))


def test_rows_do_not_depend_on_the_realization_count():
    spec = NoiseSpec(variance=1.0, correlation_time=0.1, dimension=3)
    seven = make_noise_ensemble(spec, 1.0, 0.01, 23, 7)
    assert np.array_equal(seven[:3], make_noise_ensemble(spec, 1.0, 0.01, 23, 3))


@pytest.mark.parametrize("dimension", [1, 3])
def test_noise_path_is_row_zero_of_the_ensemble(dimension):
    spec = NoiseSpec(variance=2.0, correlation_time=0.1, dimension=dimension)
    ens = make_noise_ensemble(spec, 3.0, 0.01, 41, 4)
    assert np.array_equal(make_noise_path(spec, 3.0, 0.01, 41), ens[0])


@pytest.mark.parametrize(
    "master", [2**64 + 5, 2**200 + 99], ids=["2**64+5", "2**200+99"]
)
@pytest.mark.parametrize("realizations", [1, 2, 3, 7])
def test_seeds_past_the_philox_key_are_refused(realizations, master):
    # a master seed must fit the key's low 64 bits; none is wrapped or hashed
    spec = NoiseSpec(variance=1.3, correlation_time=0.1, dimension=3)
    with pytest.raises(ValueError, match="master_seed"):
        make_noise_ensemble(spec, 0.2, 0.01, master, realizations)
    for i in range(realizations):
        with pytest.raises(ValueError, match="master_seed"):
            realization_rng(master, i)


@pytest.mark.parametrize("variance", [1.0, 0.0])
def test_seed_range_and_type_are_checked(variance):
    # also at sigma^2 = 0, where no seed is used
    spec = NoiseSpec(variance=variance, correlation_time=0.1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed"):
            make_noise_ensemble(spec, 0.01, 0.01, seed, 2)
        with pytest.raises(ValueError, match="master_seed"):
            make_noise_path(spec, 0.01, 0.01, seed)
        with pytest.raises(ValueError, match="master_seed"):
            split_seed(seed, 0)
    for seed in (1.7, np.float64(2.0)):
        with pytest.raises(TypeError):
            make_noise_ensemble(spec, 0.01, 0.01, seed, 2)
        with pytest.raises(TypeError):
            split_seed(seed, 0)
    for index in (-1, 2**64):
        with pytest.raises(ValueError, match="index"):
            split_seed(0, index)
    assert split_seed(2**64 - 1, 2**64 - 1) == 2**128 - 1


@given(
    master=st.integers(min_value=0, max_value=2**63 - 1),
    i=st.integers(min_value=0, max_value=10_000),
    j=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_split_seed_deterministic_and_distinct(master, i, j):
    a = split_seed(master, i)
    assert a == split_seed(master, i)
    assert 0 <= a < 2**128
    if i != j:
        assert a != split_seed(master, j)


# Streaming along time: ensemble_autocorrelation generates the ensemble in
# windows of _CHUNK steps plus the largest lag's history.

STREAM_CASES = [
    # dimension, variance, points, realizations, lag steps
    (1, 1.3, 2 * _CHUNK + 123, 3, [0, 1, 57]),  # not a multiple of the chunk
    (3, 1.3, _CHUNK + 77, 2, [0, 3, _CHUNK + 50]),  # a lag over one chunk
    (1, 1.3, _CHUNK + 1, 1, [0, 10]),  # one realization
    (3, 0.0, 2 * _CHUNK + 5, 2, [0, 7]),  # sigma^2 = 0
]
STREAM_IDS = ["dim-1-ragged", "dim-3-long-lag", "one-realization", "zero-variance"]


@pytest.mark.parametrize(
    "dimension, variance, n, realizations, steps", STREAM_CASES, ids=STREAM_IDS
)
@pytest.mark.parametrize("chunk", [noise._BLOCK, _CHUNK], ids=["block", "chunk"])
def test_streamed_windows_are_the_ensemble(
    monkeypatch, chunk, dimension, variance, n, realizations, steps
):
    spec = NoiseSpec(variance=variance, correlation_time=0.1, dimension=dimension)
    dt = 0.01
    expected = make_noise_ensemble(spec, (n - 1) * dt, dt, 19, realizations)
    calls = []
    monkeypatch.setattr(
        noise,
        "_ensemble_normals",
        lambda *a: calls.append(a[3]) or _ensemble_normals(*a),
    )
    history = max(steps)
    chunks, prefix = [], np.empty((realizations, 0, dimension))
    for h, window in _noise_windows(spec, n, dt, 19, realizations, chunk, history):
        # each window starts with the last h points of the ones before it
        assert h == min(history, prefix.shape[1])
        assert np.array_equal(window[:, :h], prefix[:, prefix.shape[1] - h :])
        chunks.append(window[:, h:].copy())
        prefix = np.concatenate(chunks, axis=1)
    assert len(chunks) == -(-n // chunk)
    assert np.array_equal(prefix, expected)
    assert np.array_equal(np.signbit(prefix), np.signbit(expected))
    if variance == 0.0:
        assert calls == [] and not np.any(np.signbit(prefix))
    else:
        # the rows carry their generators from one window to the next
        assert len(calls) == len(chunks) and len(calls[0]) == realizations


@pytest.mark.parametrize(
    "dimension, variance, n, realizations, steps", STREAM_CASES, ids=STREAM_IDS
)
def test_streamed_estimate_is_the_in_memory_one(
    dimension, variance, n, realizations, steps
):
    # bound 0: estimate_autocorrelation sums each path in the same chunks
    spec = NoiseSpec(variance=variance, correlation_time=0.1, dimension=dimension)
    dt, duration = 0.01, (n - 1) * 0.01
    lags = [m * dt for m in steps]
    samples = make_noise_ensemble(spec, duration, dt, 19, realizations)
    streamed = ensemble_autocorrelation(spec, duration, dt, 19, realizations, lags)
    assert streamed == estimate_autocorrelation(samples, dt, lags)
    if realizations == 1:
        assert [np.copysign(1.0, se) for _, _, se in streamed] == [1.0] * len(lags)
        assert all(se == 0.0 for _, _, se in streamed)
    if variance == 0.0:
        assert all(est == 0.0 and se == 0.0 for _, est, se in streamed)


def test_streamed_estimate_near_the_per_path_sums():
    # the per-path sums of whole paths, summed as single einsums, differ
    # from the chunked sums only in rounding
    spec = NoiseSpec(variance=1.0, correlation_time=0.1, dimension=3)
    samples = make_noise_ensemble(spec, 3 * _CHUNK * 0.01, 0.01, 4, 5)
    n = samples.shape[1]
    lags, steps = [0.0, 0.1], [0, 10]
    streamed = ensemble_autocorrelation(spec, (n - 1) * 0.01, 0.01, 4, 5, lags)
    x = samples.reshape(5, -1)
    for (_, est, se), m in zip(streamed, steps):
        per_path = [np.einsum("i,i->", r[: (n - m) * 3], r[m * 3 :]) for r in x]
        per_path = np.array(per_path) / (n - m)
        assert abs(est - np.mean(per_path)) <= 1e-13 * abs(est)
        assert abs(se - np.std(per_path, ddof=1) / np.sqrt(5)) <= 1e-12 * se


def test_philox_streams_continue_across_windows():
    bulk = _ensemble_normals(11, 3, (700, 3))
    rngs, pieces = [], []
    for length in (256, 1, 443):
        pieces.append(_ensemble_normals(11, 3, (length, 3), rngs))
        assert len(rngs) == 3
    assert np.array_equal(np.concatenate(pieces, axis=1), bulk)


def test_one_window_keeps_no_generators(monkeypatch):
    calls = []
    monkeypatch.setattr(
        noise,
        "_ensemble_normals",
        lambda *a: calls.append(a[3]) or _ensemble_normals(*a),
    )
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    make_noise_ensemble(spec, 2 * _CHUNK * 0.01, 0.01, 3, 2)
    ensemble_autocorrelation(spec, (_CHUNK - 1) * 0.01, 0.01, 3, 2, [0.0, 0.5])
    assert calls == [None, None]


def _stream_peak(points):
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    tracemalloc.start()
    try:
        ensemble_autocorrelation(spec, (points - 1) * 0.01, 0.01, 8, 8, [0.0, 0.3])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_peak_does_not_grow_with_the_duration():
    _stream_peak(_CHUNK)  # one-time allocations of the first call
    window = 8 * (30 + _CHUNK) * 8  # bytes of one window
    short, long = _stream_peak(2 * _CHUNK), _stream_peak(8 * _CHUNK)
    assert long < 1.1 * short
    # the 8-chunk ensemble alone would take 8 x 8 x _CHUNK x 8 bytes
    assert long < 2 * window < 8 * (8 * _CHUNK) * 8 / 2


def test_streamed_window_above_the_bound_is_refused_unallocated(refused_unallocated):
    # 4096 paths of a 70,000-step lag's history plus one chunk: 4096 x 74,096
    assert 4096 * (70_000 + _CHUNK) > MAX_ELEMENTS
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    refused_unallocated(
        ensemble_autocorrelation, spec, 400.0, 0.005, 0, 4096, [0.0, 350.0]
    )
    with pytest.raises(ResourceLimitError, match="noise window"):
        ensemble_autocorrelation(spec, 400.0, 0.005, 0, 4096, [0.0, 350.0])


def test_time_grid_above_the_bound_is_refused():
    """A step count above MAX_ELEMENTS is refused, not streamed for ever,
    and so is one that overflows to infinity."""
    for duration in (1e300, 1e308):
        with pytest.raises(ResourceLimitError, match="time grid"):
            noise._n_times(duration, 0.005)
    assert noise._n_times(MAX_ELEMENTS * 0.005, 0.005) == MAX_ELEMENTS + 1
