"""Four-segment geometric controlled-phase gate tests."""

import numpy as np
import pytest

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    PulseSequence,
    ResourceLimitError,
    bell_gate_run,
    calibrate_level_cone_angles,
    eigenframe,
    gate_onset_ratio,
    gate_overlap_sum,
    gate_phases,
    level_index_map,
    level_path,
    make_noise_ensemble,
    make_noise_path,
)
from gqclab.gate import _bell_exact_amplitudes, realized_conditional_phase

BELL = (1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2))


def _setup(theta=np.pi / 3, magnitude=400.0, period=1.0, angles=None):
    sched = ControlSchedule(magnitude=magnitude, cone_angle=theta, period=period)
    h = QubitHamiltonian(
        coupling=1.0, schedule=sched, qubit_count=2, level_cone_angles=angles
    )
    return h, PulseSequence.standard(sched)


def _index_map_oracle(k, j):
    """Direct term-by-term evaluation of the published index-map formula."""
    i1, i2 = k
    f1 = sum(l % 2 for l in range(1, j + 1)) % 2
    f2 = sum(l % 2 for l in range(0, j)) % 2
    return ((i1 + f1) % 2, (i2 + f2) % 2)


def test_index_map_matches_oracle_everywhere():
    for i1 in (0, 1):
        for i2 in (0, 1):
            for j in range(5):
                assert level_index_map((i1, i2), j) == _index_map_oracle(
                    (i1, i2), j
                )


def test_index_map_known_paths_and_closure():
    assert level_path((0, 0)).path == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert level_path((1, 1)).path == ((1, 1), (0, 1), (0, 0), (1, 0), (1, 1))
    for k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        path = level_path(k).path
        assert path[4] == path[0]
        # each step flips exactly one qubit index
        for a, b in zip(path, path[1:]):
            assert (a[0] != b[0]) + (a[1] != b[1]) == 1
    with pytest.raises(ValueError):
        level_index_map((0, 0), 5)


def test_pulse_sequence_structure():
    h, seq = _setup()
    assert seq.duration == 4.0
    assert seq.windows() == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
    # broken structures are rejected
    fwd = seq.segments[0][0]
    with pytest.raises(ValueError):
        PulseSequence(segments=((fwd, 1), (fwd, 2), (fwd, 1), (fwd, 2)))
    with pytest.raises(ValueError):
        PulseSequence(
            segments=(seq.segments[0], seq.segments[1], seq.segments[0])
        )


def test_gate_phases_zero_noise_and_short_path():
    h, seq = _setup()
    spec = NoiseSpec(variance=0.0, correlation_time=0.04)
    noise = make_noise_path(spec, 4.0, 0.004, seed=0)
    rec = gate_phases(seq, h, noise, (0, 0))
    assert rec.gamma_s == 0.0
    short = make_noise_path(spec, 2.0, 0.004, seed=0)
    with pytest.raises(ValueError):
        gate_phases(seq, h, short, (0, 0))


def test_uniform_angles_give_zero_conditional_phase():
    h, seq = _setup()
    spec = NoiseSpec(variance=0.0, correlation_time=0.04)
    noise = make_noise_path(spec, 4.0, 0.004, seed=0)
    ga = {
        k: gate_phases(seq, h, noise, k).gamma_a
        for k in ((0, 0), (0, 1), (1, 0), (1, 1))
    }
    # spin echo: every level accumulates zero net deterministic phase
    for v in ga.values():
        assert abs(v) < 1e-9
    assert realized_conditional_phase(seq, h) < 1e-9


def test_gate_phases_solid_angle_oracle():
    """Per-segment phases reduce to solid-angle sums with calibrated angles."""
    angles = calibrate_level_cone_angles(1.0, np.pi / 3)
    h, seq = _setup(angles=angles)
    spec = NoiseSpec(variance=0.0, correlation_time=0.04)
    noise = make_noise_path(spec, 4.0, 0.004, seed=0)

    def solid_angle_gamma_a(level_bits):
        """Independent oracle: dynamical phases cancel over C/Cbar pairs;
        the geometric phase of product level (i1, i2) per forward cycle is
        -[s(i1) + s(i2)] pi (1 - cos theta_level) with s(0) = -1, s(1) = +1,
        and flips sign on the reversed contour."""
        total = 0.0
        for l in range(4):
            kl = level_index_map(level_bits, l)
            theta = angles[2 * kl[0] + kl[1]]
            orient = 1.0 if l % 2 == 0 else -1.0
            sign = (-1.0 if kl[0] == 0 else 1.0) + (-1.0 if kl[1] == 0 else 1.0)
            # gamma_a contribution = -geometric phase = +orient sign pi(1-cos)
            total += -orient * sign * np.pi * (1.0 - np.cos(theta))
        return total

    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rec = gate_phases(seq, h, noise, bits)
        assert abs(rec.gamma_a - solid_angle_gamma_a(bits)) < 1e-8


@pytest.mark.parametrize("phi", [0.5, 1.0, np.pi / 2, np.pi])
def test_calibration_realizes_requested_phase(phi):
    angles = calibrate_level_cone_angles(phi, np.pi / 3)
    h, seq = _setup(angles=angles)
    assert abs(realized_conditional_phase(seq, h) - phi) < 1e-9


def test_calibration_rejects_unreachable_phase():
    with pytest.raises(ValueError):
        calibrate_level_cone_angles(-0.5 % (2 * np.pi), np.pi)  # cos would exceed 1


def test_gate_is_diagonal_conditional_phase():
    """Noiseless gate acts as |xy> -> e^{-i Gamma_a(xy)}|xy> with the
    bilinear part equal to the calibrated phi."""
    phi = 1.3
    angles = calibrate_level_cone_angles(phi, np.pi / 3)
    h, seq = _setup(angles=angles)
    spec = NoiseSpec(variance=0.0, correlation_time=0.04)
    noise = make_noise_path(spec, 4.0, 0.004, seed=0)
    ga = np.array(
        [
            gate_phases(seq, h, noise, (x, y)).gamma_a
            for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
    )
    bilinear = -(ga[3] - ga[2] - ga[1] + ga[0])
    assert abs(bilinear % (2 * np.pi) - phi) < 1e-9


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2])
def test_bell_overlap_sum_closed_form(theta):
    h, seq = _setup(theta=theta)
    tau_c = 1.0 / 256.0
    total = gate_overlap_sum(seq, h, tau_c)
    expected = 32 * tau_c * seq.period * np.sin(theta) ** 2
    assert abs(total - expected) < 0.05 * expected


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("calibrated", [False, True])
def test_gate_overlap_sum_matches_numerical_oracle(
    numeric_gate_overlap, dimension, calibrated
):
    angles = calibrate_level_cone_angles(1.0, np.pi / 3) if calibrated else None
    h, seq = _setup(angles=angles)
    for levels in (((0, 0), (1, 1)), ((0, 1), (1, 1))):
        full = numeric_gate_overlap(seq, h, 0.04, levels, dimension, steps=8192)
        half = numeric_gate_overlap(seq, h, 0.04, levels, dimension, steps=4096)
        oracle = (4.0 * full - half) / 3.0
        exact = gate_overlap_sum(seq, h, 0.04, levels, dimension)
        assert abs(exact - oracle) < 1e-6 * oracle


def test_bell_gate_vector_noise_closed_form():
    """The closed form uses the configured noise dimension (3 components)."""
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=20.0, correlation_time=0.04, dimension=3),
        initial_amplitudes=BELL,
        realizations=4096,
        master_seed=31,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg, seq)
    assert res.overlap_sum == gate_overlap_sum(seq, h, 0.04, dimension=3)
    assert (
        abs(res.fidelity - res.fidelity_closed_form)
        < 3 * res.fidelity_standard_error
    )


def test_bell_gate_noiseless_perfect_fidelity():
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=8,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg, seq)
    assert abs(res.fidelity - 1.0) < 1e-9
    assert res.conditional_phase < 1e-9
    assert res.decoherence_factor == 1.0


def test_bell_gate_engines_agree_with_closed_form():
    h, seq = _setup()
    spec = NoiseSpec(variance=20.0, correlation_time=0.04)
    results = {}
    for engine, n in (("analytic_phase", 1024), ("exact_propagation", 256)):
        cfg = EnsembleConfig(
            hamiltonian=h,
            noise=spec,
            initial_amplitudes=BELL,
            realizations=n,
            master_seed=11,
            engine=engine,
        )
        res = bell_gate_run(cfg, seq)
        results[engine] = res
        assert (
            abs(res.fidelity - res.fidelity_closed_form)
            < 3 * res.fidelity_standard_error
        )
    a, e = results["analytic_phase"], results["exact_propagation"]
    combined = np.hypot(a.fidelity_standard_error, e.fidelity_standard_error)
    assert abs(a.fidelity - e.fidelity) < 3 * combined


def test_bell_exact_amplitudes_match_dense_expm(two_qubit_slice_product):
    """The u x u engine equals 4x4 slice products with 4x4 pi-pulses."""
    h, seq = _setup(magnitude=60.0)
    spec = NoiseSpec(variance=20.0, correlation_time=0.04)
    n_seg = 250
    t_local = np.arange(n_seg + 1) * (seq.period / n_seg)
    samples = make_noise_ensemble(spec, seq.duration, seq.period / n_seg, 3, 4)
    c = np.asarray(BELL, dtype=complex)
    amps = _bell_exact_amplitudes(seq, h, t_local, samples, c, substeps=1)

    # pi-pulse: swap the aligned and anti-aligned states at azimuth 0
    one_qubit = QubitHamiltonian(coupling=h.coupling, schedule=h.schedule)
    aligned, anti = eigenframe(one_qubit, t_local).states[:, 0, :]
    flip = np.outer(aligned, anti.conj()) + np.outer(anti, aligned.conj())
    pulses = {1: np.kron(flip, np.eye(2)), 2: np.kron(np.eye(2), flip)}
    basis = eigenframe(h, t_local).states[:, 0, :]  # rows: product levels at t = 0
    for path, got in zip(samples, amps):
        psi = basis.T @ c
        for l, (sched, target) in enumerate(seq.segments):
            window = path[l * n_seg : (l + 1) * n_seg + 1]
            h_seg = QubitHamiltonian(
                coupling=h.coupling, schedule=sched, qubit_count=2
            )
            u = two_qubit_slice_product(h_seg, t_local, window, n_seg)
            psi = pulses[target] @ u @ psi
        assert np.max(np.abs(basis.conj() @ psi - got)) < 1e-12


def test_bell_gate_resource_bound():
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=1.0, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=64,
        max_elements=1000,
    )
    with pytest.raises(ResourceLimitError):
        bell_gate_run(cfg, seq)


def test_bell_gate_strong_noise_half_fidelity():
    h, seq = _setup()
    tau_c = 0.04
    overlap = gate_overlap_sum(seq, h, tau_c)
    sigma2 = 4 * (4 * np.pi**2) / overlap  # variance exactly 4 pi^2
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
        initial_amplitudes=BELL,
        realizations=2048,
        master_seed=2,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg, seq)
    assert res.analytic_variance >= 4 * np.pi**2 - 1e-6
    assert abs(res.fidelity - 0.5) < 0.02
    assert abs(res.onset_ratio - 1.0) < 1e-9


def test_bell_gate_fidelity_monotone_in_sigma2():
    h, seq = _setup()
    fids = []
    for sigma2 in (0.0, 10.0, 40.0, 160.0):
        cfg = EnsembleConfig(
            hamiltonian=h,
            noise=NoiseSpec(variance=sigma2, correlation_time=0.04),
            initial_amplitudes=BELL,
            realizations=512,
            master_seed=21,
            engine="analytic_phase",
        )
        fids.append(bell_gate_run(cfg, seq).fidelity)
    assert all(a >= b - 0.01 for a, b in zip(fids, fids[1:]))
    assert fids[0] > 0.99 and fids[-1] < 0.6


def test_bell_gate_rejects_non_bell_input():
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.04),
        initial_amplitudes=(1.0, 0.0, 0.0, 0.0),
        realizations=8,
    )
    with pytest.raises(ValueError):
        bell_gate_run(cfg, seq)


def test_gate_onset_ratio_identity_and_linearity():
    gamma, tau_c, period, theta, bandwidth, eta = 1.4, 0.01, 2.0, 1.0, 3.0, 1
    # Bell variance = gamma^2 sigma^2 (32 tau_c T sin^2) / 4 = 4 pi^2
    sigma2 = 16 * np.pi**2 / (
        gamma**2 * 32 * tau_c * period * np.sin(theta) ** 2
    )
    ratio = gate_onset_ratio(
        sigma2 * bandwidth, bandwidth, gamma, eta, tau_c, period, theta
    )
    assert abs(ratio - 1.0) < 1e-12
    assert np.isclose(
        gate_onset_ratio(
            sigma2 * bandwidth, bandwidth, gamma, eta, 2 * tau_c, period, theta
        ),
        2 * ratio,
    )
    with pytest.raises(ValueError):
        gate_onset_ratio(1.0, 0.0, gamma, eta, tau_c, period, theta)
