"""Eigenframe, Berry phase, exact propagation, and adiabatic phase tests."""

import warnings

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
from gqclab.adiabatic import PAULI, _SLICE_ELEMENTS, stochastic_phase_batch


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


def loop_berry_phase(states):
    """Gauge-invariant discrete Berry phase: -Im log of the overlap product.

    Independent oracle for the connection integral; exact in the limit of a
    fine loop discretization.
    """
    overlaps = np.einsum("ti,ti->t", states[:-1].conj(), states[1:])
    closure = np.vdot(states[-1], states[0])
    return -float(np.angle(np.prod(overlaps) * closure))


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
    # recorded gap
    assert np.isclose(frame.gap, 200.0)
    assert np.min(frame.energies[1] - frame.energies[0]) >= frame.gap - 1e-9
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


def test_evolve_exact_stationary_state():
    h = _hamiltonian(0.0)
    t, noise = _noise(1.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)  # ground state for theta = 0
    [psi] = evolve_exact_batch(h, t, noise, psi0, slices=400)
    assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-10
    # pure dynamical phase: arg = -E_0 t = +gamma |B| t / 2
    assert abs(np.angle(np.vdot(psi0, psi)) - np.angle(np.exp(1j * 100.0))) < 1e-6


@pytest.mark.parametrize("direction", ["forward", "reversed"])
def test_noiseless_propagator_solves_the_schrodinger_equation(
    noiseless_propagator, direction
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
        field = np.tensordot(sched.field(t), PAULI, axes=1)
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
    [psi] = evolve_exact_batch(h, t, noise, frame.states[0, 0], slices=8_000)
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
        np.linalg.norm(evolve_exact_batch(h, t, noise, psi0, 200 * n)[0] - exact)
        for n in (1, 2, 4, 8)
    ]
    assert errors[0] < 4.5e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 < coarse / fine < 4.2


def test_evolve_exact_slice_doubling_converges():
    h = _hamiltonian(0.8, magnitude=10.0)
    t, noise = _noise(1.0, variance=1.0, seed=4)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    [a] = evolve_exact_batch(h, t, noise, psi0, slices=51200)
    [b] = evolve_exact_batch(h, t, noise, psi0, slices=102400)
    assert np.linalg.norm(a - b) < 1e-8
    # norm preservation
    assert abs(np.linalg.norm(b) - 1.0) < 1e-10


def test_evolve_exact_errors():
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0)
    with pytest.raises(ValueError):  # unnormalized
        evolve_exact_batch(h, t, noise, np.array([1.0, 1.0]), slices=400)
    with pytest.raises(ResolutionError):
        evolve_exact_batch(h, t, noise, np.array([1.0, 0.0]), slices=10)


def test_evolve_exact_column_states_give_unitary_propagator():
    h = _hamiltonian(0.8, magnitude=10.0)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    t = np.arange(201) * 0.005
    samples = make_noise_ensemble(spec, 1.0, 0.005, 5, 4)
    u = evolve_exact_batch(h, t, samples, np.eye(2), 400)
    assert u.shape == (4, 2, 2)
    defect = u.conj().swapaxes(-1, -2) @ u - np.eye(2)
    assert np.max(np.abs(defect)) < 1e-12
    for b in range(2):
        alone = evolve_exact_batch(h, t, samples, np.eye(2)[:, b], 400)
        assert np.array_equal(u[:, :, b], alone)


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
    got = evolve_exact_batch(h, t, samples, psi0, slices)
    assert got.shape == (_PATHS,) + psi0.shape
    want = slice_loop_reference(h, t, samples, psi0, slices)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_evolve_exact_working_memory_is_bounded_in_bytes(peak_bytes):
    """8,192 paths x 200 slices: one slice per Cayley-Klein pass, so the
    call allocates under 2 MiB beyond its inputs, where 8-slice passes
    took about 11 MiB."""
    h = _hamiltonian(np.pi / 2)
    spec = NoiseSpec(variance=50.0, correlation_time=0.05)
    samples = make_noise_ensemble(spec, 1.0, 0.005, 0, 8192)
    t = np.linspace(0.0, 1.0, 201)
    psi0 = np.array([0.6, 0.8j])
    assert peak_bytes(evolve_exact_batch, h, t, samples, psi0, 200) <= 2 * 2**20


def test_evolve_exact_zero_field_slice_is_identity(slice_loop_reference):
    # no control field; realization 0 has no noise, realization 1 none in
    # its first half, so their fields vanish in all or some slices
    h = _hamiltonian(0.8, magnitude=0.0)
    t = np.linspace(0.0, 1.0, 11)
    samples = np.zeros((3, t.size, 3))
    samples[1, 6:] = (3.0, -1.0, 2.0)
    samples[2] = np.linspace(-4.0, 5.0, t.size)[:, None]
    psi0 = np.array([0.6, 0.8j])
    got = evolve_exact_batch(h, t, samples, psi0, slices=20)
    assert np.array_equal(got[0], psi0)
    assert not np.allclose(got[1], psi0)
    want = slice_loop_reference(h, t, samples, psi0, slices=20)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_evolve_exact_above_the_bound_is_refused_unallocated(refused_unallocated):
    # 2 paths x 10^9 slices: the slices' midpoints alone would take 8 GB
    t = np.linspace(0.0, 1.0, 3)
    samples = np.zeros((2, t.size, 1))
    h = _hamiltonian(0.8)
    refused_unallocated(evolve_exact_batch, h, t, samples, [1.0, 0.0], 10**9)


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
    [gamma_s] = stochastic_phase_batch(h, eigenframe(h, t), noise, 0)
    assert gamma_s == 0.0
    # gamma_a = integral E_0 - berry rate: geometric part is +pi(1 - cos)
    dynamical = -0.5 * h.gap * 1.0
    geometric = -(-np.pi * (1.0 - np.cos(np.pi / 3)))
    assert abs(deterministic_phases(h, t[-1])[0] - (dynamical + geometric)) < 1e-8


def test_adiabatic_phases_transverse_noise_on_polar_state():
    # theta = 0 with O along x: diagonal noise element vanishes identically
    h = _hamiltonian(0.0)
    t, noise = _noise(1.0, variance=2.0, seed=9)
    [gamma_s] = stochastic_phase_batch(h, eigenframe(h, t), noise, 0)
    assert abs(gamma_s) < 1e-12


def test_gamma_s_linear_in_noise():
    h = _hamiltonian(1.0)
    t, noise = _noise(1.0, variance=1.0, seed=10)
    frame = eigenframe(h, t)
    [gs1] = stochastic_phase_batch(h, frame, noise, 1)
    [gs3] = stochastic_phase_batch(h, frame, 3.0 * noise, 1)
    assert np.isclose(gs3, 3.0 * gs1, rtol=1e-12)


def test_gamma_a_identical_across_realizations():
    # Gamma_a is one value per level, whatever the noise; Gamma_s is one
    # value per realization
    h = _hamiltonian(1.2)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    samples = np.stack([make_noise_path(spec, 1.0, 0.005, seed=s) for s in (1, 2, 3)])
    t = np.arange(samples.shape[1]) * 0.005
    assert deterministic_phases(h, t[-1]).shape == (2,)
    gamma_s = stochastic_phase_batch(h, eigenframe(h, t), samples, 0)
    assert len(set(gamma_s)) == 3


def test_adiabaticity_check_warns_or_raises():
    h = _hamiltonian(1.0, magnitude=1.0)  # gap 1, period 1: ratio 1 > 0.1
    with pytest.warns(UserWarning, match="adiabaticity"):
        h.check_adiabatic(correlation_time=0.05)
    with pytest.raises(AdiabaticityError):
        h.check_adiabatic(correlation_time=0.05, strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h.check_adiabatic(correlation_time=0.05, ratio_max=25.0)  # relaxed: no warning
