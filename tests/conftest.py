"""Oracles and probes shared by several test modules."""

import tracemalloc
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import fftconvolve, lfilter

from gqclab import ensemble
from gqclab.adiabatic import PAULI, SIGMA_Z, EigenFrame, eigenframe
from gqclab.errors import ResourceLimitError, _check_elements
from gqclab.gate import BELL_LEVELS, level_index_map
from gqclab.noise import NoiseSpec
from gqclab.shor import NoisyAmplitudeModel, ShorInstance, coprime_residues


def _two_qubit_slice_product(h, time_grid, path, slices):
    """Two-qubit propagator of one noise path from dense 4x4 matrix exponentials.

    Each slice uses the midpoint field b = B_a(t_mid) + noise(t_mid), with the
    noise interpolated by ``np.interp``, and H = -(gamma/2) b . (sigma x 1 +
    1 x sigma); the slice propagators expm(-i H eps) are multiplied in time
    order.  ``path`` has shape (n_times, dim).
    """
    t = np.asarray(time_grid, dtype=float)
    eps = (t[-1] - t[0]) / slices
    mids = t[0] + (np.arange(slices) + 0.5) * eps
    noise = np.stack(
        [np.interp(mids, t, path[:, c]) for c in range(path.shape[1])], axis=-1
    )
    if path.shape[1] == 1:
        noise = noise * np.asarray(h.noise_operator_axis)
    field = h.schedule.field(mids) + noise
    eye = np.eye(2)
    ops = np.stack([np.kron(s, eye) + np.kron(eye, s) for s in PAULI])
    u = np.eye(4, dtype=complex)
    for b in field:
        hamiltonian = -0.5 * h.coupling * np.tensordot(b, ops, axes=1)
        u = expm(-1j * eps * hamiltonian) @ u
    return u


@pytest.fixture
def two_qubit_slice_product():
    return _two_qubit_slice_product


def _noiseless_propagator(h, t: float) -> np.ndarray:
    """Exact propagator U(t) from 0 of a single qubit in the noiseless field.

    The field precesses at a constant magnitude and cone angle, so with
    R(t) = exp(-i phi(t) sigma_z / 2) the Hamiltonian is R(t) H(0) R(t)^dag,
    and in the co-rotating frame it is the constant H(0) - (phidot / 2)
    sigma_z:  U(t) = R(t) exp(-i [H(0) - (phidot / 2) sigma_z] t), the
    rotating-field solution with its non-adiabatic phase (Aharonov and
    Anandan, PRL 58, 1593 (1987)).  phidot carries the sign of the
    schedule's direction, so a gate segment passes its own schedule.
    """
    sched = h.schedule
    h0 = -0.5 * h.coupling * np.tensordot(sched.field(0.0), PAULI, axes=1)
    frame = expm(-1j * (h0 - 0.5 * sched.azimuth_rate * SIGMA_Z) * t)
    return expm(-0.5j * sched.azimuth(t) * SIGMA_Z) @ frame


@pytest.fixture
def noiseless_propagator():
    return _noiseless_propagator


def _su2_apply(b, coupling, eps, psi):
    """Apply exp(+i (gamma eps / 2) b . sigma) to a batch of spinors.

    ``b`` has shape (..., 3) and ``psi`` (..., 2); this is the exact
    propagator of H = -(gamma/2) b . sigma over a step ``eps``.
    """
    norm = np.linalg.norm(b, axis=-1)
    x = 0.5 * coupling * eps * norm
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(norm[..., None] > 0, b / norm[..., None], 0.0)
    cos_x = np.cos(x)[..., None]
    sin_x = np.sin(x)
    nx, ny, nz = unit[..., 0], unit[..., 1], unit[..., 2]
    # (n . sigma) psi
    rot0 = nz * psi[..., 0] + (nx - 1j * ny) * psi[..., 1]
    rot1 = (nx + 1j * ny) * psi[..., 0] - nz * psi[..., 1]
    return cos_x * psi + 1j * sin_x[..., None] * np.stack([rot0, rot1], axis=-1)


def _slice_loop_reference(h, time_grid, noise_samples, psi0, slices):
    """``evolve_exact_batch`` one slice at a time, from unit field vectors.

    Each slice applies the SU(2) exponential of the midpoint field, with the
    noise interpolated by np.interp's formula, to every realization.
    """
    t = np.asarray(time_grid, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    n_real = noise_samples.shape[0]
    eps = (t[-1] - t[0]) / slices
    mids = t[0] + (np.arange(slices) + 0.5) * eps
    b_det = h.schedule.field(mids)
    axis = np.asarray(h.noise_operator_axis)
    j = np.searchsorted(t, mids, side="right") - 1
    slope = np.diff(noise_samples, axis=1) / np.diff(t)[:, None]
    noise_mid = slope[:, j] * (mids - t[j])[:, None] + noise_samples[:, j]
    cols = psi0.reshape(2, -1).T  # spinor columns (m, 2)
    psi = np.broadcast_to(cols, (n_real,) + cols.shape).copy()
    for k in range(slices):
        mid = noise_mid[:, k]
        b = b_det[k] + (mid * axis if noise_samples.shape[-1] == 1 else mid)
        psi = _su2_apply(b[:, None], h.coupling, eps, psi)
    return psi.swapaxes(-1, -2).reshape((n_real,) + psi0.shape)


@pytest.fixture
def slice_loop_reference():
    return _slice_loop_reference


def _ou_reference(spec, xi, dt):
    """OU samples from the normals ``xi`` (..., n_t, dim) by scipy's IIR filter.

    The same scaling as ``noise._ou_from_normals``, then the AR(1) filter
    ``lfilter([1], [1, -a])`` along the time axis; ``xi`` is left as it is.
    """
    sigma = np.sqrt(spec.variance)
    a = np.exp(-dt / spec.correlation_time)
    x = np.array(xi)
    x[..., 1:, :] *= sigma * np.sqrt(1.0 - a * a)
    x[..., 0, :] *= sigma
    return lfilter([1.0], [1.0, -a], x, axis=-2)


@pytest.fixture
def ou_reference():
    return _ou_reference


def _double_time_integral(
    o_diff: np.ndarray, times: np.ndarray, kernel: Callable
) -> float:
    """sum_c int int o_c(t) o_c(t') f(t - t') dt dt' by trapezoid + FFT."""
    n = times.size
    dt = times[1] - times[0]
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2.0
    lags = np.arange(-(n - 1), n) * dt
    kern = np.asarray(kernel(lags), dtype=float)
    total = 0.0
    for comp in o_diff:
        g = fftconvolve(w * comp, kern)[n - 1 : 2 * n - 1]
        total += float(np.sum(w * comp * g))
    return total


def overlap_integral(
    frame: EigenFrame,
    operators: np.ndarray,
    kernel: Callable,
    levels: tuple,
    period: float,
    rtol: float = 1e-3,
) -> float:
    """Numerical I_kj for one control period.

    O_kj(t) = <E_k|O|E_k> - <E_j|O|E_j> is evaluated from the eigenframe
    (component-wise for vector operators), and the double time integral is
    done with trapezoid weights and an FFT convolution against the kernel.
    The result must agree with the half-resolution grid to ``rtol``
    relative, otherwise the frame grid is too coarse and a ValueError is
    raised.
    """
    k, j = levels
    if k == j:
        raise ValueError("levels k and j must differ (I_kk is trivially zero)")
    t = frame.times
    if t[-1] < period * (1 - 1e-9):
        raise ValueError("frame must cover the full period [0, T]")
    n_t = int(round(period / (t[1] - t[0])))
    t = t[: n_t + 1]
    exp = frame.operator_expectations(np.asarray(operators))
    o_diff = exp[k][:, : n_t + 1] - exp[j][:, : n_t + 1]
    # an integrand at the roundoff floor of the operator scale is exactly zero
    ref = float(np.max(np.abs(operators)))
    if float(np.max(np.abs(o_diff))) <= 1e-9 * ref:
        return 0.0

    full = _double_time_integral(o_diff, t, kernel)
    coarse = _double_time_integral(o_diff[:, ::2], t[::2], kernel)
    scale = max(abs(full), abs(coarse), 1e-300)
    if abs(full - coarse) > 10 * rtol * scale:
        raise ValueError(
            f"overlap integral not converged: {full:g} vs {coarse:g} on the "
            "half grid; use a finer eigenframe time grid"
        )
    return full


def _numeric_overlap(h, correlation_time, levels=(1, 0), dimension=1, steps=8192):
    """Oracle I_kj of ``h`` over one period, on a ``steps``-step eigenframe."""
    period = h.schedule.period
    frame = eigenframe(h, np.linspace(0.0, period, steps + 1))
    kernel = NoiseSpec(1.0, correlation_time).kernel_profile
    return overlap_integral(
        frame, h.noise_operators(dimension), kernel, levels, period
    )


def _numeric_gate_overlap(
    seq, h, correlation_time, levels=BELL_LEVELS, dimension=1, steps=8192
):
    """Oracle sum of the per-segment I_kj over the gate's four segments."""
    total = 0.0
    for l, (schedule, _) in enumerate(seq.segments):
        (k1, k2), (j1, j2) = (level_index_map(x, l) for x in levels)
        if (k1, k2) != (j1, j2):
            total += _numeric_overlap(
                replace(h, schedule=schedule),
                correlation_time,
                (2 * k1 + k2, 2 * j1 + j2),
                dimension,
                steps,
            )
    return total


@pytest.fixture
def numeric_overlap():
    return _numeric_overlap


@pytest.fixture
def numeric_gate_overlap():
    return _numeric_gate_overlap


def _constructive_outcomes(inst: ShorInstance):
    """Map each c to its nearest c' and keep the constructive, useful ones.

    Constructive interference needs |r c - c' q| <= r/2; the outcome is
    useful when that unique c' is less than and co-prime with r.
    """
    q, r = inst.register_size, inst.period
    c = np.arange(q)
    c_prime = np.floor_divide(2 * r * c + q, 2 * q)  # round(r c / q)
    constructive = np.abs(r * c - c_prime * q) * 2 <= r
    good = set(coprime_residues(r))
    useful = constructive & np.isin(c_prime, list(good) or [-1])
    return c[useful], c_prime[useful]


@pytest.fixture
def constructive_outcomes():
    return _constructive_outcomes


def _path_phases(model: NoisyAmplitudeModel, c) -> np.ndarray:
    """DFT phases 2 pi (j r + l) c / q of every path j, shape (..., paths)."""
    inst = model.instance
    j = np.arange(inst.path_count)
    return (
        2.0
        * np.pi
        / inst.register_size
        * (j * inst.period + inst.offset)
        * np.asarray(c)[..., None]
    )


def _amplitude_mc(
    model: NoisyAmplitudeModel,
    c_values,
    n_samples: int,
    master_seed: int,
    chunk: int = 4096,
):
    """Monte Carlo mean and standard error of |f(c)|^2 for many outcomes.

    The oracle for ``shor.prob_averaged``: each sample draws i.i.d.
    normal(0, v) phases for the paths and sums the DFT amplitude directly.
    Shares each realization's path phases across all requested c (one
    matrix product per chunk), so estimates at different c are correlated
    but individually unbiased.  The q/r paths make this O(N^2) wide for
    small r, so it refuses, before allocating, more than MAX_ELEMENTS.
    """
    inst = model.instance
    c_values = np.asarray(c_values, dtype=int)
    _check_elements((inst.path_count, c_values.size + chunk), "amplitude_mc")
    d = np.exp(1j * _path_phases(model, c_values)).T / np.sqrt(
        inst.path_count * inst.register_size
    )  # (paths, n_c)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    total = np.zeros(c_values.size)
    total_sq = np.zeros(c_values.size)
    done = 0
    sigma = np.sqrt(model.path_phase_variance)
    while done < n_samples:
        m = min(chunk, n_samples - done)
        gamma = rng.normal(0.0, sigma, size=(m, inst.path_count))
        f = np.exp(1j * gamma) @ d
        p = np.abs(f) ** 2
        total += p.sum(axis=0)
        total_sq += (p * p).sum(axis=0)
        done += m
    mean = total / n_samples
    var = (total_sq - n_samples * mean**2) / (n_samples - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_samples)


@pytest.fixture
def amplitude_mc():
    return _amplitude_mc


def _peak_bytes(fn, *args) -> int:
    """Peak bytes that tracemalloc saw while ``fn(*args)`` ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes


def _refused_unallocated(fn, *args):
    """Assert that ``fn(*args)`` raises ResourceLimitError having allocated
    under 1 MiB (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.fixture
def refused_unallocated():
    return _refused_unallocated


def _every_row(fn, config, *args):
    """``fn(config, *args)`` with the ensemble pipeline, which run_ensemble
    and bell_gate_run share, propagating every realization at sigma^2 = 0
    as well, as (config.realizations, n + 1, dim) zeros per segment: the
    computation that its one-row shortcut stands for."""
    one_row = ensemble._segment_noise

    def repeated(*args):
        for window in one_row(*args):
            yield np.repeat(window, config.realizations // window.shape[0], axis=0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "_segment_noise", repeated)
        return fn(config, *args)


@pytest.fixture
def every_row():
    return _every_row


@pytest.fixture
def propagated_rows(monkeypatch):
    """Row counts of the noise ensembles that the ensemble pipeline hands to
    the engines, one entry per completed call."""
    rows = []
    for name in ("evolve_exact_batch", "stochastic_phase_batch"):
        real = getattr(ensemble, name)

        def spy(h, frame_or_grid, samples, *args, real=real):
            result = real(h, frame_or_grid, samples, *args)
            rows.append(samples.shape[0])
            return result

        monkeypatch.setattr(ensemble, name, spy)
    return rows


@pytest.fixture
def normal_draws(monkeypatch):
    """(realizations, shape) of each draw of normals that the ensemble
    pipeline makes."""
    draws = []
    real = ensemble._ensemble_normals

    def spy(master_seed, realizations, shape):
        draws.append((realizations, shape))
        return real(master_seed, realizations, shape)

    monkeypatch.setattr(ensemble, "_ensemble_normals", spy)
    return draws


@pytest.fixture
def phase_grids(monkeypatch):
    """(frame times, noise points) of each window that the ensemble pipeline
    hands to stochastic_phase_batch: the grid a run integrates on."""
    grids = []
    real = ensemble.stochastic_phase_batch

    def spy(h, frame, samples, level):
        grids.append((frame.times, samples.shape[1]))
        return real(h, frame, samples, level)

    monkeypatch.setattr(ensemble, "stochastic_phase_batch", spy)
    return grids
