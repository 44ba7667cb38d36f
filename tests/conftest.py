"""Oracles shared by several test modules."""

import numpy as np
import pytest
from scipy.linalg import expm

from gqclab.adiabatic import PAULI


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
