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
    adiabatic_phases,
    calibrate_level_cone_angles,
    deterministic_phases,
    eigenframe,
    evolve_exact,
    evolve_exact_batch,
    make_noise_ensemble,
    make_noise_path,
)


def _hamiltonian(theta, magnitude=200.0, period=1.0, cycles=1, **kw):
    sched = ControlSchedule(
        magnitude=magnitude, cone_angle=theta, period=period, cycles=cycles
    )
    return QubitHamiltonian(coupling=1.0, schedule=sched, **kw)


def _zero_noise(duration, dt=0.005, tau_c=0.05):
    spec = NoiseSpec(variance=0.0, correlation_time=tau_c)
    return make_noise_path(spec, duration, dt, seed=0)


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
    noise = _zero_noise(1.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)  # ground state for theta = 0
    psi = evolve_exact(h, noise, psi0, slices=400)
    assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-10
    # pure dynamical phase: arg = -E_0 t = +gamma |B| t / 2
    assert abs(np.angle(np.vdot(psi0, psi)) - np.angle(np.exp(1j * 100.0))) < 1e-6


def test_evolve_exact_adiabatic_agreement():
    """Exact propagation reproduces the analytic adiabatic phase."""
    h = _hamiltonian(1.0, magnitude=20_000.0)
    assert h.gap * h.schedule.period >= 100
    noise = _zero_noise(1.0, dt=0.005)
    frame = eigenframe(h, noise.time_grid)
    psi = evolve_exact(h, noise, frame.states[0, 0], slices=80_000)
    overlap = np.vdot(frame.states[0, -1], psi)
    assert abs(abs(overlap) - 1.0) < 1e-4
    rec = adiabatic_phases(h, noise, level=0)
    phase_diff = (np.angle(overlap) + rec.gamma_a) % (2 * np.pi)
    phase_diff = min(phase_diff, 2 * np.pi - phase_diff)
    assert phase_diff < 1e-3


def test_evolve_exact_slice_doubling_converges():
    h = _hamiltonian(0.8, magnitude=10.0)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    noise = make_noise_path(spec, 1.0, 0.005, seed=4)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    a = evolve_exact(h, noise, psi0, slices=51200)
    b = evolve_exact(h, noise, psi0, slices=102400)
    assert np.linalg.norm(a - b) < 1e-8
    # norm preservation
    assert abs(np.linalg.norm(b) - 1.0) < 1e-10


def test_evolve_exact_errors():
    h = _hamiltonian(1.0)
    noise = _zero_noise(1.0)
    with pytest.raises(ValueError):
        evolve_exact(h, noise, np.array([1.0, 1.0]), slices=400)  # unnormalized
    with pytest.raises(ResolutionError):
        evolve_exact(h, noise, np.array([1.0, 0.0]), slices=10)


@pytest.mark.parametrize("dimension", [1, 3])
def test_evolve_exact_two_qubits_matches_dense_expm(dimension, two_qubit_slice_product):
    """u x u propagation equals dense 4x4 slice products of the two-qubit H."""
    h = _hamiltonian(0.9, magnitude=30.0, qubit_count=2)
    spec = NoiseSpec(variance=4.0, correlation_time=0.05, dimension=dimension)
    t = np.arange(101) * 0.005
    samples = make_noise_ensemble(spec, 0.5, 0.005, 3, 3)
    psi0 = np.array([0.5, 0.5j, -0.1, np.sqrt(0.49)], dtype=complex)
    slices = 200  # two slices per noise step exercise the interpolation
    psi = evolve_exact_batch(h, t, samples, psi0, slices)
    for path, final in zip(samples, psi):
        reference = two_qubit_slice_product(h, t, path, slices) @ psi0
        assert np.max(np.abs(final - reference)) < 1e-12


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
    noise = _zero_noise(1.0)
    rec = adiabatic_phases(h, noise, level=0)
    assert rec.gamma_s == 0.0
    # gamma_a = integral E_0 - berry rate: geometric part is +pi(1 - cos)
    dynamical = -0.5 * h.gap * 1.0
    geometric = -(-np.pi * (1.0 - np.cos(np.pi / 3)))
    assert abs(rec.gamma_a - (dynamical + geometric)) < 1e-8


def test_adiabatic_phases_transverse_noise_on_polar_state():
    # theta = 0 with O along x: diagonal noise element vanishes identically
    h = _hamiltonian(0.0)
    spec = NoiseSpec(variance=2.0, correlation_time=0.05)
    noise = make_noise_path(spec, 1.0, 0.005, seed=9)
    rec = adiabatic_phases(h, noise, level=0)
    assert abs(rec.gamma_s) < 1e-12


def test_gamma_s_linear_in_noise():
    h = _hamiltonian(1.0)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    noise = make_noise_path(spec, 1.0, 0.005, seed=10)
    rec1 = adiabatic_phases(h, noise, level=1)
    rec3 = adiabatic_phases(h, noise.scaled(3.0), level=1)
    assert np.isclose(rec3.gamma_s, 3.0 * rec1.gamma_s, rtol=1e-12)
    assert np.isclose(rec3.gamma_a, rec1.gamma_a)


def test_gamma_a_identical_across_realizations():
    h = _hamiltonian(1.2)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    recs = [
        adiabatic_phases(h, make_noise_path(spec, 1.0, 0.005, seed=s), level=0)
        for s in (1, 2, 3)
    ]
    assert len({r.gamma_a for r in recs}) == 1
    assert len({r.gamma_s for r in recs}) == 3


def test_adiabaticity_check_warns_or_raises():
    h = _hamiltonian(1.0, magnitude=1.0)  # gap 1, period 1: ratio 1 > 0.1
    noise = _zero_noise(1.0)
    with pytest.warns(UserWarning, match="adiabaticity"):
        adiabatic_phases(h, noise, level=0)
    with pytest.raises(AdiabaticityError):
        adiabatic_phases(h, noise, level=0, strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adiabatic_phases(h, noise, level=0, ratio_max=25.0)  # relaxed: no warning
