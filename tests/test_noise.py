"""Statistical and reproducibility tests for the noise generator."""

import atexit
import errno
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    ResolutionError,
    ResourceLimitError,
    ensemble_autocorrelation,
    estimate_autocorrelation,
    make_noise_ensemble,
    make_noise_path,
    realization_rng,
    split_seed,
)
from gqclab import ensemble, noise
from gqclab.adiabatic import stochastic_phase_batch
from gqclab.cli import main
from gqclab.ensemble import ENGINES
from gqclab.errors import MAX_ELEMENTS
from gqclab.noise import (
    _CHUNK,
    _ensemble_normals,
    _noise_windows,
    _ou_from_normals,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(variance=-1.0, correlation_time=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(variance=1.0, correlation_time=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(variance=1.0, correlation_time=1.0, dimension=2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spec_refuses_a_non_finite_variance(value):
    with pytest.raises(ValueError, match="variance must be finite"):
        NoiseSpec(variance=value, correlation_time=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spec_refuses_a_non_finite_correlation_time(value):
    with pytest.raises(ValueError, match="correlation_time must be finite"):
        NoiseSpec(variance=1.0, correlation_time=value)


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


@pytest.mark.parametrize(
    "duration, dt, error",
    [
        (np.nan, 0.005, ResolutionError),
        (1.0, np.nan, ValueError),
        (np.inf, 0.005, ResourceLimitError),  # exit code 4
    ],
    ids=["nan-duration", "nan-dt", "inf-duration"],
)
def test_a_grid_that_is_not_a_number_is_refused(duration, dt, error):
    """Every comparison with NaN is False: the grid checks are written so
    that NaN fails them, before a step count is converted to an integer."""
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    with pytest.raises(error, match="duration|dt|time grid"):
        make_noise_ensemble(spec, duration, dt, 1, 4)
    with pytest.raises(error, match="duration|dt|time grid"):
        ensemble_autocorrelation(spec, duration, dt, 1, 4, [0.0])


def test_autocovariance_lag_ratio_is_exp_minus_one(ou_reference):
    # >= 1e6 samples; ratio of autocovariance at lag tau_c to lag 0.  The
    # path is make_noise_path(spec, 110_000.0, 0.1, seed=7) to the bit, by
    # scipy's filter (test_ou_recursion_matches_lfilter_bit_for_bit)
    spec = NoiseSpec(variance=1.0, correlation_time=1.0)
    xi = realization_rng(7, 0).standard_normal((1_100_001, 1))
    path = ou_reference(spec, xi, 0.1)
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
    # n_t around two of the recursion's blocks of 128 steps
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


@pytest.mark.parametrize(
    "n_t, split", [(31, None), (32, None), (33, None), (65, None), (65, 20)]
)
def test_ou_recursion_in_place_is_lfilter_at_the_block_edges(ou_reference, n_t, split):
    """4,096 scalar paths in time-major memory run in place in blocks of
    32 steps (1 MiB): paths a step short of a block, of one block, a step
    past it and two blocks past it are lfilter's to the bit, and so is the
    longest path filtered as two windows, the second continuing from the
    first's last row with a first block that straddles step 32."""
    assert noise._BLOCK_BYTES // (4096 * 8) == 32 < noise._BLOCK
    spec = NoiseSpec(variance=1.3, correlation_time=0.1)
    dt = 0.01
    xi = np.random.default_rng(n_t).standard_normal((4096, n_t, 1))
    want = ou_reference(spec, xi, dt)
    memory = np.ascontiguousarray(xi.transpose(1, 0, 2))
    prev = None
    for window in (memory[:split], memory[split:]) if split else (memory,):
        paths = window.transpose(1, 0, 2)
        assert _ou_from_normals(spec, paths, dt, prev) is paths
        prev = paths[:, -1]
    assert np.array_equal(memory.transpose(1, 0, 2), want)


def test_ou_recursion_in_place_holds_one_block_of_rows(peak_bytes, ou_reference):
    """A time-major path of 20,000 steps x 4 paths is filtered in place,
    in blocks of 128 steps: row views or a temporary for the whole path
    (20,000 views, or 640 kB) would exceed the 64 KiB bound."""
    spec = NoiseSpec(variance=1.3, correlation_time=0.1)
    xi = np.random.default_rng(5).standard_normal((4, 20_000, 1))
    want = ou_reference(spec, xi, 0.01)
    paths = np.ascontiguousarray(xi.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert peak_bytes(_ou_from_normals, spec, paths, 0.01) <= 2**16
    assert np.array_equal(paths, want)


def _buffer(layout, rows, n_t, dim):
    """An empty (rows, n_t, dim) array, path-major or time-major in memory."""
    if layout == "time-major":
        return np.empty((n_t, rows, dim)).transpose(1, 0, 2)
    return np.empty((rows, n_t, dim))


def test_normals_fill_a_time_major_buffer_one_block_at_a_time(peak_bytes):
    """700 rows of 201 points: two blocks of rows (652 in 1 MiB), copied
    into time-major memory, with no full-size temporary."""
    want = _ensemble_normals(6, _buffer("path-major", 700, 201, 1))
    got = _buffer("time-major", 700, 201, 1)
    assert _ensemble_normals(6, got) is got
    assert np.array_equal(got, want)
    assert peak_bytes(_ensemble_normals, 6, got) <= 1.1 * 2**20


@pytest.mark.parametrize("dimension", [1, 3])
def test_ou_recursion_runs_in_place_on_time_major_windows(
    peak_bytes, ou_reference, dimension
):
    """A path filtered as two contiguous time-major windows, the second
    continuing from the first's last row, is lfilter's path to the bit;
    the recursion copies no block of the 1.2 MiB windows."""
    spec = NoiseSpec(variance=1.3, correlation_time=0.1, dimension=dimension)
    dt, rows, n = 0.01, 512, 300
    xi = np.random.default_rng(dimension).standard_normal((rows, 2 * n, dimension))
    want = ou_reference(spec, xi, dt)
    memory = np.ascontiguousarray(xi.transpose(1, 0, 2))
    first, rest = (part.transpose(1, 0, 2) for part in (memory[:n], memory[n:]))
    assert _ou_from_normals(spec, first, dt) is first
    assert peak_bytes(_ou_from_normals, spec, rest, dt, first[:, -1]) <= 2**16
    assert np.array_equal(memory.transpose(1, 0, 2), want)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("count", [1, 4])
def test_noise_at_sigma2_is_sigma_times_the_unit_path(
    monkeypatch, gamma_s_reference, dimension, count
):
    """One definition of the noise.  The unit-variance OU path u, filtered
    in place in either memory layout, is make_noise_ensemble's at
    sigma^2 = 1 to the bit.  The pipeline hands the exact engine the whole
    path with each row's sigma, one call per row for all segments; at
    sigma^2 = 0 the exact engine gets one row of +0.0 samples spanning the
    segments.  The analytic engine builds its weights once and contracts
    them with the normals, unfiltered: Gamma_s(u) of the segments' windows
    of 300 steps each (three blocks of the recursion) to 1e-13.
    sigma u is make_noise_ensemble's path at sigma^2 to 1e-14 sigma
    (1.9e-15 sigma measured), and sigma Gamma_s(u) its Gamma_s to 1e-14
    sigma (3.8e-16 sigma measured, |Gamma_s| up to 1.7 sigma)."""
    n, dt, rows, seed = 300, 0.01, 5, 8
    unit_spec = NoiseSpec(variance=1.0, correlation_time=0.1, dimension=dimension)
    unit = make_noise_ensemble(unit_spec, count * n * dt, dt, seed, rows)
    for layout in ("path-major", "time-major"):
        u = _buffer(layout, rows, unit.shape[1], dimension)
        _ensemble_normals(seed, u)
        assert _ou_from_normals(unit_spec, u, dt) is u
        assert np.array_equal(u, unit)
    views = [unit[:, l * n : (l + 1) * n + 1] for l in range(count)]

    # count segments of one period of n steps: two qubits compose any count
    schedule = ControlSchedule(magnitude=200.0, cone_angle=np.pi / 3, period=n * dt)
    h = QubitHamiltonian(1.0, schedule, qubit_count=1 if count == 1 else 2)
    c = np.full(h.n_levels, h.n_levels**-0.5)
    exact, normals, weights = [], [], []
    propagate, draw = ensemble.evolve_exact_batch, ensemble._ensemble_normals
    build = ensemble._normal_weights

    def propagated(h, t, samples, psi0, slices, sigma):
        exact.append((samples.copy(), sigma))
        return propagate(h, t, samples, psi0, slices, sigma)

    def drawn(key, out):
        normals.append(draw(key, out).copy())
        return out

    def built(*args):
        weights.append(build(*args))
        return weights[-1]

    monkeypatch.setattr(ensemble, "evolve_exact_batch", propagated)
    monkeypatch.setattr(ensemble, "_ensemble_normals", drawn)
    monkeypatch.setattr(ensemble, "_normal_weights", built)
    sigma2s = [0.5, 0.0, 50.0]
    segments = [(h, 0, 0)] * count
    for engine in ENGINES:
        normals.clear()  # keeps the analytic run's
        cfg = EnsembleConfig(h, unit_spec, c, rows, seed, engine)
        ensemble._run_segments(cfg, segments, sigma2s)
    assert len(exact) == 3 and len(weights) == len(normals) == 1
    # the blocks propagate the noisy rows, then the caller the sigma^2 = 0 row
    for (samples, sigma), sigma2 in zip(exact, [0.5, 50.0, 0.0]):
        assert sigma == np.sqrt(sigma2)
        if sigma:
            assert np.array_equal(samples, unit)
        else:  # one row of +0.0 samples spanning the segments
            assert samples.shape == (1, count * n + 1, dimension)
            assert np.all(samples == 0.0) and not np.any(np.signbit(samples))
    [z], [w] = normals, weights
    assert np.array_equal(z, _ensemble_normals(seed, np.empty(unit.shape)))
    t = np.linspace(0.0, n * dt, n + 1)
    want = gamma_s_reference(segments, t, unit, range(h.n_levels))
    got = np.einsum("ntc,tck->nk", z, w)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    t = np.arange(n + 1) * dt
    for sigma2 in (0.5, 50.0, 200.0):
        sigma = np.sqrt(sigma2)
        spec = replace(unit_spec, variance=sigma2)
        path = make_noise_ensemble(spec, count * n * dt, dt, seed, rows)
        assert np.max(np.abs(sigma * unit - path)) <= 1e-14 * sigma
        for l, view in enumerate(views):
            window = path[:, l * n : (l + 1) * n + 1]
            for k in range(h.n_levels):
                want = stochastic_phase_batch(h, t, window, k)
                got = sigma * stochastic_phase_batch(h, t, view, k)
                assert np.max(np.abs(got - want)) <= 1e-14 * sigma


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
    # 301 points: three blocks of the recursion, from the normals a draw would use
    normals = _ensemble_normals(5, np.empty((4, 301, dimension)))
    expected = _ou_from_normals(spec, normals, 0.01)
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


@pytest.mark.parametrize("variance", [1.0, 0.0])
@pytest.mark.parametrize("seed", [True, False])
def test_bool_seeds_are_refused(variance, seed):
    # operator.index takes a bool as 1 or 0; the seed, like a count, refuses it
    spec = NoiseSpec(variance=variance, correlation_time=0.1)
    with pytest.raises(TypeError, match="master_seed"):
        split_seed(seed, 0)
    with pytest.raises(TypeError, match="index"):
        split_seed(0, seed)
    with pytest.raises(TypeError, match="master_seed"):
        make_noise_ensemble(spec, 0.01, 0.01, seed, 2)
    with pytest.raises(TypeError, match="master_seed"):
        make_noise_path(spec, 0.01, 0.01, seed)
    with pytest.raises(TypeError, match="master_seed"):
        ensemble_autocorrelation(spec, 1.0, 0.01, seed, 4, [0.0, 0.5])
    config = replace(_count_config(realizations=2), noise=spec, master_seed=seed)
    with pytest.raises(TypeError, match="master_seed"):
        ensemble.run_ensemble(config)


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
        lambda *a: calls.append(a[2]) or _ensemble_normals(*a),
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


@pytest.mark.parametrize("dimension", [1, 3])
def test_estimate_has_the_same_bits_in_every_memory_layout(dimension):
    """C-order, time-major and Fortran-order copies of one ensemble give the
    streamed estimate to the bit.  At dimension 1 a time-major or Fortran
    path flattens to strided rows, which einsum would sum in another order."""
    spec = NoiseSpec(2.0, 0.05, dimension)
    samples = make_noise_ensemble(spec, 7.3, 0.003, 3, 16)
    lags = [0.0, 0.051, 0.102, 0.15]
    want = ensemble_autocorrelation(spec, 7.3, 0.003, 3, 16, lags)
    time_major = np.ascontiguousarray(samples.transpose(1, 0, 2)).transpose(1, 0, 2)
    for layout in (samples, time_major, np.asfortranarray(samples)):
        assert estimate_autocorrelation(layout, 0.003, lags) == want


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
    bulk = _ensemble_normals(11, np.empty((3, 700, 3)))
    rngs, pieces = [], []
    for length in (256, 1, 443):
        pieces.append(_ensemble_normals(11, np.empty((3, length, 3)), rngs))
        assert len(rngs) == 3
    assert np.array_equal(np.concatenate(pieces, axis=1), bulk)


def test_one_window_keeps_no_generators(monkeypatch):
    calls = []
    monkeypatch.setattr(
        noise,
        "_ensemble_normals",
        lambda *a: calls.append(a[2]) or _ensemble_normals(*a),
    )
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    make_noise_ensemble(spec, 2 * _CHUNK * 0.01, 0.01, 3, 2)
    ensemble_autocorrelation(spec, (_CHUNK - 1) * 0.01, 0.01, 3, 2, [0.0, 0.5])
    assert calls == [None, None]


# Worker processes: each contiguous block of paths draws, filters and
# reduces its own paths, and the caller reduces over all of them, so no bit
# depends on the worker count.


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize(
    "cpus, threads, realizations, workers",
    [
        (4, 1, 512, 1),
        (4, 3, 512, 3),
        (4, 100_000, 512, 4),  # the usable CPUs
        (2, 100_000, 7, 2),
        (64, 100_000, 7, 3),  # two paths or more per block
        (64, 2, 3, 1),
        (64, 4, 1, 1),  # at least one worker
    ],
)
def test_worker_count_caps_threads(monkeypatch, cpus, threads, realizations, workers):
    _usable_cpus(monkeypatch, cpus)
    assert noise._worker_count(threads, realizations, [1.0]) == workers


def test_worker_count_without_an_affinity_mask_uses_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert noise._worker_count(100_000, 512, [1.0]) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert noise._worker_count(100_000, 512, [1.0]) == 1


def test_worker_count_is_one_without_fork(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert noise._worker_count(4, 512, [1.0]) == 1


def test_worker_count_is_one_where_nothing_is_drawn(monkeypatch):
    """Without a nonzero variance no path is drawn: one worker, and no
    process is started, however many CPUs and threads there are."""
    _usable_cpus(monkeypatch, 64)

    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)
    assert noise._worker_count(8, 512, [0.0, 0.0, 0.0]) == 1
    assert noise._worker_count(8, 512, [0.0, 0.0, 0.5]) == 8
    spec = NoiseSpec(variance=0.0, correlation_time=0.1)
    estimate = ensemble_autocorrelation(spec, 5.0, 0.01, 3, 512, [0.0, 0.5], 8)
    assert [(e.hex(), se.hex()) for _, e, se in estimate] == [("0x0.0p+0",) * 2] * 2


@pytest.mark.parametrize("variance", [0.0, 1.0])
@pytest.mark.parametrize(
    "threads, error, message",
    [(2.5, TypeError, "an integer"), (0, ValueError, ">= 1"), (-1, ValueError, ">= 1")],
)
def test_threads_below_one_or_not_an_integer_are_refused(
    monkeypatch, variance, threads, error, message
):
    """EnsembleConfig and ensemble_autocorrelation refuse a threads that
    is not an integer >= 1 at any variance, on 4 usable CPUs, before any
    process is started."""
    _usable_cpus(monkeypatch, 4)

    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)
    spec = NoiseSpec(variance=variance, correlation_time=0.1)
    schedule = ControlSchedule(magnitude=200.0, cone_angle=np.pi / 3, period=1.0)
    h = QubitHamiltonian(1.0, schedule)
    with pytest.raises(error, match=f"threads must be {message}"):
        EnsembleConfig(h, spec, (1.0, 0.0), 64, threads=threads)
    with pytest.raises(error, match=f"threads must be {message}"):
        ensemble_autocorrelation(spec, 1.0, 0.01, 3, 64, [0.0, 0.5], threads)


COUNT_SPEC = NoiseSpec(variance=1.0, correlation_time=0.1)


def _count_config(**counts):
    schedule = ControlSchedule(magnitude=200.0, cone_angle=np.pi / 3, period=1.0)
    h = QubitHamiltonian(1.0, schedule)
    return EnsembleConfig(h, COUNT_SPEC, (1.0, 0.0), **counts)


#: each count a library entry point takes: (argument, minimum, call)
COUNTS = {
    "EnsembleConfig-realizations": (
        "realizations", 2, lambda v: _count_config(realizations=v)
    ),
    "EnsembleConfig-substeps": ("substeps", 1, lambda v: _count_config(substeps=v)),
    "EnsembleConfig-threads": ("threads", 1, lambda v: _count_config(threads=v)),
    "make_noise_ensemble-realizations": (
        "realizations", 1, lambda v: make_noise_ensemble(COUNT_SPEC, 1.0, 0.01, 3, v)
    ),
    "ensemble_autocorrelation-realizations": (
        "realizations",
        1,
        lambda v: ensemble_autocorrelation(COUNT_SPEC, 1.0, 0.01, 3, v, [0.0]),
    ),
    "ensemble_autocorrelation-threads": (
        "threads",
        1,
        lambda v: ensemble_autocorrelation(COUNT_SPEC, 1.0, 0.01, 3, 4, [0.0], v),
    ),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_at_least_its_minimum(entry):
    """A float, a whole float or a bool is refused with a TypeError, and an
    integer below the minimum with a ValueError, each naming the argument;
    the minimum itself, also as a numpy integer, is accepted."""
    argument, minimum, call = COUNTS[entry]
    for value in (minimum + 0.5, float(minimum), True):
        with pytest.raises(TypeError, match=f"^{argument} must be an integer, got"):
            call(value)
    below = f"^{argument} must be >= {minimum}, got {minimum - 1}$"
    with pytest.raises(ValueError, match=below):
        call(minimum - 1)
    call(minimum)
    call(np.int64(minimum))


def test_normals_have_the_same_bits_on_every_thread_count():
    """1,500 time-major rows of 201 points, in 652-row buffers, drawn in the
    blocks of two and of three workers, each keyed from its first row: two
    workers' blocks of 750 rows end in a part buffer, three workers' fit in
    one."""
    want = _ensemble_normals(6, _buffer("path-major", 1500, 201, 1))
    for workers in (2, 3):
        got = _buffer("time-major", 1500, 201, 1)
        for k in range(workers):
            lo, hi = 1500 * k // workers, 1500 * (k + 1) // workers
            _ensemble_normals(split_seed(6, lo), got[lo:hi])
        assert np.array_equal(got, want)


#: small sweeps whose per-path work runs in blocks: agp-dephase on both
#: engines, and the exact gate with its sigma^2 = 0 row between noisy ones
AGP_SWEEP = {
    "experiment": "agp-dephase",
    "coupling": 1.0,
    "magnitude": 200.0,
    "cone_angle": np.pi / 2,
    "period": 1.0,
    "cycles": 1,
    "correlation_time": 0.05,
    "sigma2": [0.0, 50.0, 200.0],
    "master_seed": 23,
}
SWEEPS = {
    "agp-exact": dict(AGP_SWEEP, engine="exact_propagation"),
    "agp-analytic": dict(AGP_SWEEP, engine="analytic_phase"),
    "gate-exact": {
        "experiment": "gate-fidelity",
        "engine": "exact_propagation",
        "coupling": 1.0,
        "magnitude": 400.0,
        "cone_angle": np.pi / 3,
        "period": 1.0,
        "correlation_time": 0.04,
        "sigma2": [5.0, 0.0, 20.0],
        "master_seed": 23,
    },
}


def _streamed_estimate(dimension, realizations, threads):
    """Three windows of 4,096 new steps after a 4,200-step lag's history:
    rows of 8,296 elements at dim 1 and 24,888 at dim 3.  At dim 3 the lag
    slices hold 12,288 elements, which a block of one row would sum in
    another order."""
    spec = NoiseSpec(variance=1.3, correlation_time=0.1, dimension=dimension)
    dt, n = 0.01, 3 * _CHUNK + 500
    lags = [0.0, 0.01, 0.57, 42.0]
    estimate = ensemble_autocorrelation(
        spec, (n - 1) * dt, dt, 23, realizations, lags, threads
    )
    return [[v.hex() for v in row] for row in estimate]


def _sweep_table(tmp_path, sweep, realizations, threads):
    """The CSV bytes of ``SWEEPS[sweep]`` over ``realizations`` paths."""
    config = dict(SWEEPS[sweep], realizations=realizations, threads=threads)
    path, out = tmp_path / f"{sweep}.json", tmp_path / f"{sweep}-{threads}.csv"
    path.write_text(json.dumps(config))
    assert main([config["experiment"], "--config", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "sweep, dimension, realizations",
    [
        pytest.param(None, d, r, id=f"{d}-{r}")
        for r in (1, 2, 3, 5, 7, 9)
        for d in (1, 3)
    ]
    + [pytest.param(s, 1, r, id=f"{s}-{r}") for s in SWEEPS for r in (5, 7)],
)
def test_streamed_estimate_has_the_same_bits_on_every_thread_count(
    monkeypatch, tmp_path, sweep, dimension, realizations
):
    """noise-validate's streamed estimate on 1 to 4 workers, and each
    sweep's table on 1 to 3, has the bits of one worker; each run forks
    one child per worker after the first and leaves none."""
    _usable_cpus(monkeypatch, 4)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for threads in (1, 2, 3) if sweep else (1, 2, 3, 4):
        forks.clear()
        if sweep:
            runs.append(_sweep_table(tmp_path, sweep, realizations, threads))
        else:
            runs.append(_streamed_estimate(dimension, realizations, threads))
        variances = SWEEPS[sweep]["sigma2"] if sweep else [1.3]
        workers = noise._worker_count(threads, realizations, variances)
        assert len(forks) == workers - 1
        # the smallest block holds realizations // workers paths
        assert realizations // workers >= min(2, realizations)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert all(run == runs[0] for run in runs)


class WorkerError(RuntimeError):
    """An exception type that a worker raises; importable, so it pickles."""


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    class Failing:
        def standard_normal(self, out):
            raise WorkerError(f"second block, in a child: {os.getpid() != caller}")

    real = noise.realization_rng
    monkeypatch.setattr(
        noise, "realization_rng", lambda m, i: real(m, i) if i < 2 else Failing()
    )
    spec = NoiseSpec(variance=1.0, correlation_time=0.1)
    with pytest.raises(WorkerError, match="second block, in a child: True"):
        ensemble_autocorrelation(spec, 2 * _CHUNK * 0.01, 0.01, 3, 4, [0.0], 2)
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)


def test_every_block_writes_its_rows_and_the_first_runs_here():
    def work(lo, hi):
        return np.stack([np.full(hi - lo, os.getpid()), np.arange(lo, hi)])

    got = np.concatenate(noise._run_blocks(work, 7, 3), axis=1)
    assert np.array_equal(got[1], np.arange(7))
    pids = got[0]
    assert list(pids[:2]) == [os.getpid()] * 2  # blocks of 2, 2 and 3 rows
    assert len(set(pids[2:4]) | set(pids[4:])) == 2 and os.getpid() not in pids[2:]


def test_a_worker_killed_by_a_signal_raises_in_the_caller():
    def work(lo, hi):
        if lo:
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="ended by signal 9"):
        noise._run_blocks(work, 4, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_an_exception_in_the_caller_kills_and_reaps_every_worker(error):
    def work(lo, hi):
        if lo:
            time.sleep(60)  # a worker that would outlive the caller's block
        raise error("the caller's block")

    started = time.monotonic()
    with pytest.raises(error, match="the caller's block"):
        noise._run_blocks(work, 6, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert time.monotonic() - started < 30


def test_an_exception_that_does_not_pickle_is_named_in_a_runtime_error():
    class Local(ValueError):  # not importable by name: pickling fails
        pass

    def work(lo, hi):
        if lo:
            raise Local("in a worker")

    with pytest.raises(RuntimeError, match="Local: in a worker"):
        noise._run_blocks(work, 4, 2)


def test_a_worker_runs_no_atexit_handler_and_flushes_no_inherited_buffer(tmp_path):
    marker = tmp_path / "atexit"

    def handler():
        marker.write_text(str(os.getpid()))

    atexit.register(handler)
    try:
        with open(tmp_path / "buffered", "w") as f:
            f.write("written once")  # still in this process's buffer at the fork
            noise._run_blocks(lambda lo, hi: None, 4, 2)
    finally:
        atexit.unregister(handler)
    assert (tmp_path / "buffered").read_text() == "written once"
    assert not marker.exists()


def test_results_larger_than_a_pipe_buffer_come_back_whole_and_in_order():
    """Three blocks of 2 MiB each, far above a pipe's 64 KiB buffer; a
    caller that waited on a child before reading its pipe to the end would
    deadlock, which the alarm turns into a failure."""
    size = 2**18  # float64 values per block

    def work(lo, hi):
        return np.arange(lo * size, hi * size, dtype=float)

    def deadlock(signum, frame):
        raise TimeoutError("the results did not come back")

    previous = signal.signal(signal.SIGALRM, deadlock)
    signal.alarm(30)
    try:
        got = noise._run_blocks(work, 3, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [len(block) for block in got] == [size] * 3
    assert np.array_equal(np.concatenate(got), np.arange(3 * size, dtype=float))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("started", [0, 1])
def test_a_failed_fork_raises_and_leaves_no_pipe_or_child(monkeypatch, started):
    """os.fork refused after ``started`` children: the error reaches the
    caller, each child is reaped, and no pipe end stays open."""
    fork, forks = os.fork, []

    def refused():
        if len(forks) == started:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", refused)
    descriptors = os.listdir("/proc/self/fd")
    for _ in range(5):
        forks.clear()
        with pytest.raises(OSError) as refusal:
            noise._run_blocks(lambda lo, hi: lo, 6, 3)
        assert refusal.value.errno == errno.EAGAIN
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert os.listdir("/proc/self/fd") == descriptors


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
