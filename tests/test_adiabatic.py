"""Eigenframe, Berry phase, exact propagation, and adiabatic phase tests."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gqclab import (
    AdiabaticityError,
    ControlSchedule,
    DegeneracyError,
    NoiseSpec,
    QubitHamiltonian,
    ResolutionError,
    calibrate_level_cone_angles,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
    make_noise_ensemble,
    make_noise_path,
)
from gqclab.adiabatic import _SLICE_ELEMENTS, stochastic_phase_batch


def _hamiltonian(theta, magnitude=200.0, period=1.0, cycles=1, **kw):
    sched = ControlSchedule(
        magnitude=magnitude, cone_angle=theta, period=period, cycles=cycles
    )
    return QubitHamiltonian(coupling=1.0, schedule=sched, **kw)


def _noise(duration, dt=0.005, variance=0.0, seed=0, tau_c=0.05):
    """Time grid and one noise path as a batch of one, shape (1, n_t, 1)."""
    spec = NoiseSpec(variance=variance, correlation_time=tau_c)
    samples = make_noise_path(spec, duration, dt, seed)[None]
    return np.arange(samples.shape[1]) * dt, samples


def _time_major(samples):
    """``samples`` (rows, n_t, dim) in time-major memory, the ensemble
    pipeline's layout, seen with the same shape."""
    return np.ascontiguousarray(samples.transpose(1, 0, 2)).transpose(1, 0, 2)


def loop_berry_phase(states):
    """Gauge-invariant discrete Berry phase: -Im log of the overlap product.

    Independent oracle for the connection integral; exact in the limit of a
    fine loop discretization.
    """
    overlaps = np.einsum("ti,ti->t", states[:-1].conj(), states[1:])
    closure = np.vdot(states[-1], states[0])
    return -float(np.angle(np.prod(overlaps) * closure))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_schedule_refuses_a_non_finite_magnitude(value):
    with pytest.raises(ValueError, match="magnitude must be finite"):
        ControlSchedule(magnitude=value, cone_angle=1.0, period=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_schedule_refuses_a_non_finite_period(value):
    with pytest.raises(ValueError, match="period must be finite"):
        ControlSchedule(magnitude=1.0, cone_angle=1.0, period=value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hamiltonian_refuses_a_non_finite_coupling(value):
    sched = _hamiltonian(1.0).schedule
    with pytest.raises(ValueError, match="coupling must be finite"):
        QubitHamiltonian(coupling=value, schedule=sched)


@pytest.mark.parametrize("value", [np.nan, 7.0, -1.0])
def test_hamiltonian_refuses_level_cone_angles_outside_zero_to_pi(value):
    with pytest.raises(ValueError, match=r"level_cone_angles must lie in \[0, pi\]"):
        _hamiltonian(1.0, qubit_count=2, level_cone_angles=(0.0, 0.0, 0.0, value))


def test_schedule_validation_and_periodicity():
    with pytest.raises(ValueError):
        ControlSchedule(magnitude=1.0, cone_angle=4.0, period=1.0)
    with pytest.raises(ValueError):
        ControlSchedule(magnitude=1.0, cone_angle=1.0, period=-1.0)
    sched = ControlSchedule(magnitude=2.0, cone_angle=0.7, period=0.5, cycles=3)
    t = np.linspace(0.0, 0.5, 64)
    assert np.allclose(sched.field(t), sched.field(t + 0.5), atol=1e-12)
    assert sched.duration == 1.5
    rev = sched.reversed()
    assert rev.azimuth_rate == -sched.azimuth_rate


def test_eigenframe_invariants():
    h = _hamiltonian(1.0)
    t = np.linspace(0.0, 1.0, 513)
    frame = eigenframe(h, t)
    # orthonormality at every sample
    gram = np.einsum("kti,lti->klt", frame.states.conj(), frame.states)
    eye = np.eye(2)[:, :, None]
    assert np.max(np.abs(gram - eye)) < 1e-12
    # the gap
    assert np.isclose(h.gap, 200.0)
    assert np.min(frame.energies[1] - frame.energies[0]) >= h.gap - 1e-9
    # smooth gauge: successive overlaps have positive real part
    ov = np.einsum("kti,kti->kt", frame.states[:, :-1].conj(), frame.states[:, 1:])
    assert np.all(ov.real > 0)
    # periodicity up to phase
    for k in range(2):
        overlap = abs(np.vdot(frame.states[k, 0], frame.states[k, -1]))
        assert abs(overlap - 1.0) < 1e-9


def test_eigenframe_theta_zero_trivial():
    h = _hamiltonian(0.0)
    frame = eigenframe(h, np.linspace(0.0, 1.0, 65))
    assert np.allclose(frame.energies[0], -100.0)
    assert np.allclose(frame.energies[1], +100.0)
    assert np.allclose(frame.berry_rates, 0.0)
    assert np.allclose(np.abs(frame.states[0, :, 0]), 1.0)


def test_eigenframe_equatorial_constant_gap():
    frame = eigenframe(_hamiltonian(np.pi / 2), np.linspace(0.0, 1.0, 65))
    assert np.allclose(frame.energies[1] - frame.energies[0], 200.0)


def test_eigenframe_errors():
    h = _hamiltonian(1.0, magnitude=0.0)
    with pytest.raises(DegeneracyError):
        eigenframe(h, np.linspace(0.0, 1.0, 16))
    h2 = _hamiltonian(1.0)
    with pytest.raises(ValueError):
        eigenframe(h2, np.array([0.0, 0.1, 0.5]))  # nonuniform


@pytest.mark.parametrize("theta", [0.3, np.pi / 6, 1.0, np.pi / 3, 2.2])
def test_berry_phase_loop_oracle(theta):
    """Connection integral vs the discrete-loop oracle vs the closed form."""
    h = _hamiltonian(theta)
    t = np.linspace(0.0, 1.0, 20_001)
    frame = eigenframe(h, t)
    expected = np.pi * (1.0 - np.cos(theta))
    for level, sign in ((0, -1.0), (1, +1.0)):
        integral = np.trapezoid(frame.berry_rates[level], t)
        oracle = loop_berry_phase(frame.states[level])
        assert abs(integral - sign * expected) < 1e-6
        # the overlap-product oracle is only defined modulo 2 pi
        wrap = (oracle - sign * expected + np.pi) % (2 * np.pi) - np.pi
        assert abs(wrap) < 1e-6


def test_berry_phase_gauge_invariance():
    """A smooth periodic gauge change leaves the loop phase unchanged."""
    h = _hamiltonian(1.3)
    t = np.linspace(0.0, 1.0, 20_001)
    frame = eigenframe(h, t)
    alpha = 0.7 * np.sin(2 * np.pi * t) + 0.2 * np.cos(4 * np.pi * t) - 0.2
    states = frame.states[0] * np.exp(1j * alpha)[:, None]
    assert abs(loop_berry_phase(states) - loop_berry_phase(frame.states[0])) < 1e-9


def test_two_qubit_eigenframe_product_structure():
    h = _hamiltonian(1.0, qubit_count=2)
    t = np.linspace(0.0, 1.0, 257)
    frame = eigenframe(h, t)
    assert frame.states.shape == (4, 257, 4)
    single = eigenframe(_hamiltonian(1.0), t)
    # level (0,1) = |0> x |1>
    prod = np.einsum("ta,tb->tab", single.states[0], single.states[1]).reshape(
        257, 4
    )
    assert np.max(np.abs(frame.states[1] - prod)) < 1e-12
    assert np.allclose(frame.energies[1], 0.0)
    assert np.allclose(frame.energies[0], 2 * single.energies[0])


@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize(
    "qubits, angles",
    [(1, None), (2, None), (2, calibrate_level_cone_angles(np.pi / 2, np.pi / 3))],
)
def test_level_coupling_matches_the_eigenstate_expectations(
    noise_operators, operator_expectations, qubits, angles, dimension, axis, direction
):
    """The closed form s_k n(theta_k, phi(t)) . f(t) against the einsum of the
    eigenframe's states and the Kronecker-summed Pauli operators: each of
    its ``dimension`` rows (x alone for scalar noise), and their sum
    weighted by the first ``dimension`` components of ``axis``, which is
    how the engines couple a noise path u(t) axis."""
    sched = ControlSchedule(200.0, 1.1, 0.8, cycles=2, direction=direction)
    h = QubitHamiltonian(1.0, sched, qubit_count=qubits, level_cone_angles=angles)
    t = np.linspace(0.0, sched.duration, 97)
    weights = np.array(axis[:dimension])
    operators = noise_operators(h, dimension)
    along = np.tensordot(weights, operators, axes=1)
    oracle = operator_expectations(eigenframe(h, t), np.vstack([operators, [along]]))
    wt = 2.0 * np.pi / sched.period * t
    harmonics = np.stack([np.ones_like(t), np.cos(wt), np.sin(wt)])
    for level in range(h.n_levels):
        coupling = h.level_coupling(level, dimension)
        assert coupling.shape == (dimension, 3)
        closed = np.vstack([coupling, weights @ coupling]) @ harmonics
        assert np.max(np.abs(closed - oracle[level])) <= 4e-15


def test_level_coupling_refuses_a_bad_level_dimension_or_crossing():
    h = _hamiltonian(1.0)
    for level in (-1, 2):
        with pytest.raises(ValueError, match=r"level must lie in \[0, 2\)"):
            h.level_coupling(level, 1)
    with pytest.raises(ValueError, match="unsupported noise dimension"):
        h.level_coupling(0, 2)
    with pytest.raises(DegeneracyError, match="level crossing"):
        _hamiltonian(1.0, magnitude=0.0).level_coupling(0, 1)


def test_evolve_exact_stationary_state():
    h = _hamiltonian(0.0)
    t, noise = _noise(1.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)  # ground state for theta = 0
    [[psi]] = evolve_exact_batch([h], t, noise, psi0, 400, 1.0)
    assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-10
    # pure dynamical phase: arg = -E_0 t = +gamma |B| t / 2
    assert abs(np.angle(np.vdot(psi0, psi)) - np.angle(np.exp(1j * 100.0))) < 1e-6


@pytest.mark.parametrize("direction", ["forward", "reversed"])
def test_noiseless_propagator_solves_the_schrodinger_equation(
    noiseless_propagator, noise_operators, direction
):
    """The oracle is unitary, starts at 1 and satisfies i dU/dt = H(t) U."""
    sched = ControlSchedule(40.0, 1.0, 1.0, direction=direction)
    h = QubitHamiltonian(coupling=1.0, schedule=sched)
    assert np.allclose(noiseless_propagator(h, 0.0), np.eye(2), rtol=0, atol=1e-15)
    step = 1e-6
    for t in (0.1, 0.37, 1.0):
        u = noiseless_propagator(h, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-13
        du = noiseless_propagator(h, t + step) - noiseless_propagator(h, t - step)
        field = np.tensordot(sched.field(t), noise_operators(h, 3), axes=1)
        residual = 1j * du / (2 * step) - (-0.5 * h.coupling * field) @ u
        assert np.max(np.abs(residual)) < 1e-8  # 2e-9, the difference's error


def test_evolve_exact_adiabatic_agreement(noiseless_propagator):
    """Exact propagation reproduces the analytic adiabatic phase.

    The closed-form propagator stands in for a many-slice run: it is
    adiabatic to 1e-7 in |overlap|, and the engine converges to it.
    """
    h = _hamiltonian(1.0, magnitude=20_000.0)
    assert h.gap * h.schedule.period >= 100
    t, noise = _noise(1.0, dt=0.005)
    frame = eigenframe(h, t)
    gamma_a = deterministic_phases(h, t[-1])[0]
    exact = noiseless_propagator(h, t[-1]) @ frame.states[0, 0]
    [[psi]] = evolve_exact_batch([h], t, noise, frame.states[0, 0], 8_000, 1.0)
    assert np.linalg.norm(psi - exact) < 3e-4  # 2.5e-4, falling as slices^-2
    for state, modulus_tol in ((exact, 1e-7), (psi, 1e-4)):
        overlap = np.vdot(frame.states[0, -1], state)
        assert abs(abs(overlap) - 1.0) < modulus_tol
        phase_diff = (np.angle(overlap) + gamma_a) % (2 * np.pi)
        phase_diff = min(phase_diff, 2 * np.pi - phase_diff)
        assert phase_diff < 1e-3


def test_evolve_exact_converges_to_the_noiseless_propagator(noiseless_propagator):
    """State error against the closed form at the agp-sweep configuration:
    4.4e-3 at 200 slices, falling fourfold per slice doubling."""
    h = _hamiltonian(np.pi / 2)
    t, noise = _noise(1.0)
    psi0 = eigenframe(h, t).states[0, 0]
    exact = noiseless_propagator(h, t[-1]) @ psi0
    errors = [
        np.linalg.norm(evolve_exact_batch([h], t, noise, psi0, 200 * n, 1.0) - exact)
        for n in (1, 2, 4, 8)
    ]
    assert errors[0] < 4.5e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 < coarse / fine < 4.2


def test_evolve_exact_slice_doubling_converges():
    h = _hamiltonian(0.8, magnitude=10.0)
    t, noise = _noise(1.0, variance=1.0, seed=4)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    [[a]] = evolve_exact_batch([h], t, noise, psi0, 51200, 1.0)
    [[b]] = evolve_exact_batch([h], t, noise, psi0, 102400, 1.0)
    assert np.linalg.norm(a - b) < 1e-8
    # norm preservation
    assert abs(np.linalg.norm(b) - 1.0) < 1e-10


def test_evolve_exact_errors():
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0)
    with pytest.raises(ValueError):  # unnormalized
        evolve_exact_batch([h], t, noise, np.array([1.0, 1.0]), 400, 1.0)
    with pytest.raises(ResolutionError):
        evolve_exact_batch([h], t, noise, np.array([1.0, 0.0]), 10, 1.0)
    with pytest.raises(TypeError):  # sigma is required
        evolve_exact_batch([h], t, noise, np.array([1.0, 0.0]), 400)


def test_evolve_exact_refuses_a_bare_hamiltonian():
    """A row is a sequence of segments, one segment included."""
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0)
    with pytest.raises(ValueError, match="sequence"):
        evolve_exact_batch(h, t, noise, np.array([1.0, 0.0]), 400, 1.0)
    with pytest.raises(ValueError, match="sequence"):
        evolve_exact_batch([], t, noise[:, :1], np.array([1.0, 0.0]), 400, 1.0)


def test_evolve_exact_refuses_column_spinors():
    """psi0 is one spinor: columns propagate in a call each."""
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0)
    for psi0 in (np.eye(2), np.eye(2)[:, :1], np.ones(4) / 2):
        with pytest.raises(ValueError, match="one spinor"):
            evolve_exact_batch([h], t, noise, psi0, 400, 1.0)


def test_evolve_exact_column_states_give_unitary_propagator():
    h = _hamiltonian(0.8, magnitude=10.0)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    t = np.arange(201) * 0.005
    samples = make_noise_ensemble(spec, 1.0, 0.005, 5, 4)
    columns = [evolve_exact_batch([h], t, samples, e, 400, 1.0) for e in np.eye(2)]
    [u] = np.stack(columns, axis=-1)
    assert u.shape == (4, 2, 2)
    defect = u.conj().swapaxes(-1, -2) @ u - np.eye(2)
    assert np.max(np.abs(defect)) < 1e-12


@pytest.mark.parametrize("dimension", [1, 3])
def test_second_eigenstate_column_is_j_times_the_conjugate_first(dimension):
    """v1 = J v0* at azimuth 0, J = [[0, -1], [1, 0]], and u J = J u* for
    every u in SU(2), so u v1 = J (u v0)*.  The ensemble's exact engine
    propagates only v0 and takes u v1 from this identity: on a noisy
    window the propagated columns must agree to the bit, which fails if
    complex multiplication stops rounding conjugates symmetrically."""
    h = _hamiltonian(np.pi / 3, magnitude=400.0)
    spec = NoiseSpec(variance=20.0, correlation_time=0.04, dimension=dimension)
    t = np.arange(251) * 0.004
    samples = make_noise_ensemble(spec, 1.0, 0.004, 5, 64)
    v = eigenframe(h, t).states[:, 0, :].T  # columns v0, v1
    assert np.array_equal(v[:, 1], [-v[1, 0].conj(), v[0, 0].conj()])
    [x], [y] = (evolve_exact_batch([h], t, samples, col, 250, 1.0) for col in v.T)
    assert np.array_equal(y, np.stack([-x[:, 1].conj(), x[:, 0].conj()], -1))


def test_evolve_exact_segments_must_span_the_path():
    """P segments of n steps read a path of P n + 1 points, no other."""
    h = _hamiltonian(1.0)
    t = np.linspace(0.0, 1.0, 11)
    for segments, points in (([h], 21), ([h, h], 11), ([h, h], 22)):
        samples = np.zeros((2, points, 1))
        with pytest.raises(ValueError, match="noise points"):
            evolve_exact_batch(segments, t, samples, [1.0, 0.0], 10, 1.0)


def _propagated_columns(h, t, samples, psi0, slices):
    """States (n_real,) + psi0.shape from one call per column of psi0."""
    columns = psi0.reshape(2, -1).T
    [u] = np.stack(
        [evolve_exact_batch([h], t, samples, c, slices, 1.0) for c in columns], -1
    )
    return u.reshape((len(u),) + psi0.shape)


_GRID_STEPS = 5  # below the kernel's block length, so every slice count fits
_PATHS = 512
_SLICE_BLOCK = _SLICE_ELEMENTS // _PATHS  # slices per kernel pass at _PATHS


@pytest.mark.parametrize(
    "psi0",
    [np.array([0.6, 0.8j]), np.array([[0.6, -0.8], [0.8, 0.6]])],
    ids=["spinor", "columns"],
)
@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize(
    "slices",
    [_GRID_STEPS, _SLICE_BLOCK - 1, _SLICE_BLOCK, _SLICE_BLOCK + 1, 4 * _GRID_STEPS],
)
def test_evolve_exact_matches_slice_loop(slice_loop_reference, slices, dimension, psi0):
    h = _hamiltonian(0.8, magnitude=10.0)
    spec = NoiseSpec(variance=30.0, correlation_time=2.0, dimension=dimension)
    dt = 1.0 / _GRID_STEPS
    t = np.arange(_GRID_STEPS + 1) * dt
    samples = make_noise_ensemble(spec, 1.0, dt, 3, _PATHS)
    got = _propagated_columns(h, t, samples, psi0, slices)
    assert got.shape == (_PATHS,) + psi0.shape
    want = slice_loop_reference(h, t, samples, psi0, slices)
    assert np.max(np.abs(got - want)) <= 1e-13
    # the same bits from the ensemble pipeline's time-major noise
    time_major = _propagated_columns(h, t, _time_major(samples), psi0, slices)
    assert np.array_equal(time_major, got)


_ORACLE_STEPS = 6


@pytest.mark.parametrize(
    "cone, magnitude, axis",
    [
        (0.0, 200.0, (0.0, 0.0, 1.0)),
        (0.0, 200.0, (0.0, 1.0, 0.0)),
        (np.pi / 3, 200.0, (0.6, 0.0, 0.8)),
        (np.pi / 2, 200.0, (1.0, 0.0, 0.0)),
        (np.pi, 200.0, (0.0, 1.0, 0.0)),
        (np.pi / 2, 0.0, (1.0, 0.0, 0.0)),
        (0.0, 0.0, (0.0, 0.0, 1.0)),
        (np.pi, 0.0, (0.6, 0.0, 0.8)),
    ],
)
@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize(
    "count, realizations, slices",
    [(1, 37, 120), (4, 37, 120), (1, 8192, 6), (4, 512, 12)],
    ids=["1x37", "4x37", "1x8192", "4x512"],
)
def test_evolve_exact_bits_equal_the_fresh_array_kernel(
    exact_batch_reference, cone, magnitude, axis, dimension, count, realizations, slices
):
    """Equal values and equal sign bits, zeros included, to the kernel that
    allocates every pass array afresh and leaves a component without noise
    at the control field.  At 37 realizations the last pass is short, at
    8,192 each pass holds one slice.  At cone angle 0 the control field's x
    and y components are -0.0 at some slices, which noise 0.0 (sigma = 0)
    can turn to +0.0; the columns of -i 1 carry that sign into the result.
    ``axis`` is the Bloch vector of one more initial state, |0> for z."""
    h = _hamiltonian(cone, magnitude=magnitude)
    reverse = replace(h, schedule=h.schedule.reversed())
    segments = [h] if count == 1 else [h, reverse] * 2
    t = np.linspace(0.0, 1.0, _ORACLE_STEPS + 1)
    shape = (realizations, count * _ORACLE_STEPS + 1, dimension)
    samples = _time_major(np.random.default_rng(3).normal(size=shape))
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    nx, ny, nz = axis
    bloch = np.array([np.sqrt((1 + nz) / 2), (nx + 1j * ny) / np.sqrt(2 * (1 + nz))])
    states = (np.array([0.6, 0.8j]), bloch, *rotation.T, *(-1j * np.eye(2)).T)
    for sigma in (0.0, 2.5):
        for psi0 in states:
            got = evolve_exact_batch(segments, t, samples, psi0, slices, sigma)
            want = exact_batch_reference(segments, t, samples, psi0, slices, sigma)
            got, want = (np.stack([z.real, z.imag]) for z in (got, want))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _exact_peak_bytes(peak_bytes, realizations, count, steps):
    h = _hamiltonian(np.pi / 2)
    reverse = replace(h, schedule=h.schedule.reversed())
    segments = [h] if count == 1 else [h, reverse] * 2
    spec = NoiseSpec(variance=50.0, correlation_time=0.05)
    samples = make_noise_ensemble(spec, float(count), 1.0 / steps, 0, realizations)
    t = np.linspace(0.0, 1.0, steps + 1)
    psi0 = np.array([0.6, 0.8j])
    return peak_bytes(evolve_exact_batch, segments, t, samples, psi0, steps, 1.0)


def test_evolve_exact_working_memory_is_bounded_in_bytes(peak_bytes):
    """One call's peak beyond its inputs at the agp row: 8,192 paths, one
    segment of 200 slices, one slice per pass.  Pass arrays allocated once
    per call hold 1.40 MiB, where arrays allocated afresh every pass took
    1.83 MiB, and 8-slice passes about 11 MiB."""
    assert _exact_peak_bytes(peak_bytes, 8192, 1, 200) <= 1.6 * 2**20


def test_evolve_exact_gate_row_working_memory_is_bounded_in_bytes(peak_bytes):
    """The same peak at the gate row: 512 paths, four segments of 250
    slices, two slices per pass.  Pass arrays allocated once per call hold
    0.60 MiB, where arrays allocated afresh every pass took 0.82 MiB."""
    assert _exact_peak_bytes(peak_bytes, 512, 4, 250) <= 0.7 * 2**20


def test_evolve_exact_zero_field_slice_is_identity(slice_loop_reference):
    # no control field; realization 0 has no noise, realization 1 none in
    # its first half, so their fields vanish in all or some slices
    h = _hamiltonian(0.8, magnitude=0.0)
    t = np.linspace(0.0, 1.0, 11)
    samples = np.zeros((3, t.size, 3))
    samples[1, 6:] = (3.0, -1.0, 2.0)
    samples[2] = np.linspace(-4.0, 5.0, t.size)[:, None]
    psi0 = np.array([0.6, 0.8j])
    [got] = evolve_exact_batch([h], t, samples, psi0, 20, 1.0)
    assert np.array_equal(got[0], psi0)
    assert not np.allclose(got[1], psi0)
    want = slice_loop_reference(h, t, samples, psi0, slices=20)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_evolve_exact_above_the_bound_is_refused_unallocated(refused_unallocated):
    # 2 paths x 10^9 slices: the slices' midpoints alone would take 8 GB
    t = np.linspace(0.0, 1.0, 3)
    samples = np.zeros((2, t.size, 1))
    h = _hamiltonian(0.8)
    refused_unallocated(evolve_exact_batch, [h], t, samples, [1.0, 0.0], 10**9, 1.0)


@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("calibrated", [False, True])
def test_deterministic_phases_match_trapezoid(direction, calibrated):
    """Closed-form Gamma_a equals the quadrature of E_k - gamma_dot_k."""
    sched = ControlSchedule(200.0, np.pi / 3, 1.0, cycles=2, direction=direction)
    angles = calibrate_level_cone_angles(1.0, np.pi / 3) if calibrated else None
    h = QubitHamiltonian(
        coupling=1.0,
        schedule=sched,
        qubit_count=2 if calibrated else 1,
        level_cone_angles=angles,
    )
    t = np.linspace(0.0, 1.999, 1001)  # a span short of the duration
    frame = eigenframe(h, t)
    expected = np.trapezoid(frame.energies - frame.berry_rates, t, axis=-1)
    assert np.allclose(deterministic_phases(h, t[-1]), expected, rtol=1e-13, atol=0)


def test_adiabatic_phases_zero_noise_and_geometry():
    h = _hamiltonian(np.pi / 3)
    t, noise = _noise(1.0)
    [gamma_s] = stochastic_phase_batch(h, t, noise, 0)
    assert gamma_s == 0.0
    # gamma_a = integral E_0 - berry rate: geometric part is +pi(1 - cos)
    dynamical = -0.5 * h.gap * 1.0
    geometric = -(-np.pi * (1.0 - np.cos(np.pi / 3)))
    assert abs(deterministic_phases(h, t[-1])[0] - (dynamical + geometric)) < 1e-8


def test_adiabatic_phases_transverse_noise_on_polar_state():
    # theta = 0 with O along x: diagonal noise element vanishes identically
    h = _hamiltonian(0.0)
    t, noise = _noise(1.0, variance=2.0, seed=9)
    [gamma_s] = stochastic_phase_batch(h, t, noise, 0)
    assert abs(gamma_s) < 1e-12


def test_gamma_s_linear_in_noise():
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0, variance=1.0, seed=10)
    [gs1] = stochastic_phase_batch(h, t, noise, 1)
    [gs3] = stochastic_phase_batch(h, t, 3.0 * noise, 1)
    assert np.isclose(gs3, 3.0 * gs1, rtol=1e-12)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("qubits", [1, 2])
def test_stochastic_phase_does_not_depend_on_the_noise_layout(qubits, dimension):
    """Gamma_s of every level from time-major noise agrees with the
    C-contiguous call to 1e-13 relative: einsum may add the two layouts'
    products in another order."""
    h = _hamiltonian(np.pi / 3, qubit_count=qubits)
    spec = NoiseSpec(variance=50.0, correlation_time=0.05, dimension=dimension)
    samples = make_noise_ensemble(spec, 1.0, 0.005, 4, 64)
    t = np.arange(samples.shape[1]) * 0.005
    for level in range(h.n_levels):
        want = stochastic_phase_batch(h, t, samples, level)
        got = stochastic_phase_batch(h, t, _time_major(samples), level)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_stochastic_phase_holds_its_temporaries_to_a_block(peak_bytes):
    """At 4,096 realizations of 201 points the integrand alone would take
    6.3 MiB: the one einsum with the weights keeps the scratch within
    1.5 MiB, and gives the whole-batch trapezoid to 1e-13 relative."""
    h = _hamiltonian(np.pi / 3)
    spec = NoiseSpec(variance=50.0, correlation_time=0.05)
    samples = make_noise_ensemble(spec, 1.0, 0.005, 4, 4096)
    t = np.arange(samples.shape[1]) * 0.005
    assert peak_bytes(stochastic_phase_batch, h, t, samples, 0) <= 1.5 * 2**20
    wt = 2.0 * np.pi / h.schedule.period * t
    okk = h.level_coupling(0, 1) @ np.stack([np.ones_like(t), np.cos(wt), np.sin(wt)])
    integrand = np.einsum("ntc,ct->nt", samples, okk) * (-0.5 * h.coupling)
    pairs = (integrand[:, 1:] + integrand[:, :-1]) * np.diff(t) / 2.0
    want = pairs.sum(axis=-1)
    got = stochastic_phase_batch(h, t, samples, 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_gamma_a_identical_across_realizations():
    # Gamma_a is one value per level, whatever the noise; Gamma_s is one
    # value per realization
    h = _hamiltonian(1.2)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    samples = np.stack([make_noise_path(spec, 1.0, 0.005, seed=s) for s in (1, 2, 3)])
    t = np.arange(samples.shape[1]) * 0.005
    assert deterministic_phases(h, t[-1]).shape == (2,)
    gamma_s = stochastic_phase_batch(h, t, samples, 0)
    assert len(set(gamma_s)) == 3


def test_adiabatic_ratios_state_the_limit_and_refuse_a_crossing():
    h = _hamiltonian(1.0, magnitude=4.0)  # gap 4, period 1
    assert h.adiabatic_ratios() == {"drive": 0.25}
    assert h.adiabatic_ratios(0.5) == {"drive": 0.25, "noise": 0.5}
    flat = _hamiltonian(1.0, magnitude=0.0)
    for check in (flat.adiabatic_ratios, flat.check_adiabatic):
        with pytest.raises(DegeneracyError, match="level crossing: gap 0"):
            check()


def test_adiabaticity_check_warns_or_raises():
    h = _hamiltonian(1.0, magnitude=1.0)  # gap 1, period 1: ratio 1 > 0.1
    with pytest.warns(UserWarning, match="adiabaticity"):
        h.check_adiabatic(correlation_time=0.05)
    with pytest.raises(AdiabaticityError):
        h.check_adiabatic(correlation_time=0.05, strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # gap 400: ratios 0.0025 and 0.05 are within the bound, no warning
        _hamiltonian(1.0, magnitude=400.0).check_adiabatic(correlation_time=0.05)
