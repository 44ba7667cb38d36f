"""Oracles shared by several test modules."""

from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import fftconvolve

from gqclab.adiabatic import PAULI, EigenFrame, eigenframe
from gqclab.gate import BELL_LEVELS, level_index_map
from gqclab.noise import NoiseSpec


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
