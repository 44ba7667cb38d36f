"""Four-segment geometric controlled-phase gate tests."""

from dataclasses import replace

import numpy as np
import pytest

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    PulseSequence,
    bell_gate_run,
    bell_gate_sweep,
    calibrate_level_cone_angles,
    eigenframe,
    gate_onset_ratio,
    gate_overlap_sum,
    level_index_map,
    make_noise_ensemble,
)
from gqclab import ensemble, errors, gate
from gqclab.adiabatic import stochastic_phase_batch
from gqclab.ensemble import ENGINES, _exact_amplitudes, _gamma_a, _gamma_s, _grid_steps
from gqclab.gate import BELL_LEVELS, _FLIPS, _segments, realized_conditional_phase

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
    def path(k):
        return [level_index_map(k, j) for j in range(5)]

    assert path((0, 0)) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assert path((1, 1)) == [(1, 1), (0, 1), (0, 0), (1, 0), (1, 1)]
    for k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        steps = path(k)
        assert steps[4] == steps[0]
        # each step flips exactly one qubit index
        for a, b in zip(steps, steps[1:]):
            assert (a[0] != b[0]) + (a[1] != b[1]) == 1
    with pytest.raises(ValueError):
        level_index_map((0, 0), 5)


def test_pulse_sequence_structure():
    h, seq = _setup()
    assert seq.duration == 4.0
    # C pi_1, Cbar pi_2, C pi_1, Cbar pi_2, one cycle each, from any base contour
    for base in (h.schedule, replace(h.schedule, cycles=3).reversed()):
        segments = PulseSequence.standard(base).segments
        assert [s.direction for s, _ in segments] == ["forward", "reversed"] * 2
        assert [t for _, t in segments] == [1, 2, 1, 2]
        assert {(s.cycles, s.period) for s, _ in segments} == {(1, seq.period)}


def _grid(seq, dt):
    """The pipeline's segment grid for step ``dt``, and its step count."""
    n_seg = _grid_steps(seq.period, dt)
    return np.linspace(0.0, seq.period, n_seg + 1), n_seg


def _windows(samples, n_seg):
    """Each segment's window of a path of noise samples, n_seg steps each."""
    count = (samples.shape[1] - 1) // n_seg
    return [samples[:, l * n_seg : (l + 1) * n_seg + 1] for l in range(count)]


def test_gate_phases_zero_noise_and_short_path():
    h, seq = _setup()
    t_local, n_seg = _grid(seq, 0.004)
    noise = _windows(np.zeros((1, 4 * n_seg + 1, 1)), n_seg)
    [gamma_s] = _gamma_s(_segments(seq, h), t_local, noise, BELL_LEVELS)
    assert np.array_equal(gamma_s, np.zeros(4))


def test_analytic_gate_builds_one_eigenframe_per_contour_direction(monkeypatch):
    h, seq = _setup(angles=calibrate_level_cone_angles(np.pi / 2, np.pi / 3))
    spec = NoiseSpec(variance=20.0, correlation_time=0.04, dimension=3)
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=spec,
        initial_amplitudes=BELL,
        realizations=8,
        master_seed=3,
        engine="analytic_phase",
    )
    directions = []

    def counted(h_seg, t):
        if len(t) > 3:  # not the three-point frames of the overlap integrals
            directions.append(h_seg.schedule.direction)
        return eigenframe(h_seg, t)

    monkeypatch.setattr(ensemble, "eigenframe", counted)
    bell_gate_run(cfg, seq)
    assert directions == ["forward", "reversed"]

    # the shared frames give the bits of one frame per segment and level
    t_local, n_seg = _grid(seq, cfg.dt)
    samples = make_noise_ensemble(spec, seq.duration, seq.period / n_seg, 3, 8)
    windows = _windows(samples, n_seg)
    gamma_s = _gamma_s(_segments(seq, h), t_local, windows, BELL_LEVELS)
    for level in BELL_LEVELS:
        expected = np.zeros(8)
        for l, (sched, _) in enumerate(seq.segments):
            h_seg = replace(h, schedule=sched)
            window = samples[:, l * n_seg : (l + 1) * n_seg + 1]
            expected += stochastic_phase_batch(
                h_seg, eigenframe(h_seg, t_local), window, level ^ _FLIPS[l]
            )
        assert np.array_equal(gamma_s[:, level], expected)
    assert not gamma_s[:, [0b01, 0b10]].any()


def test_uniform_angles_give_zero_conditional_phase():
    h, seq = _setup()
    # spin echo: every level accumulates zero net deterministic phase
    for v in _gamma_a(_segments(seq, h), seq.period):
        assert abs(v) < 1e-9
    assert realized_conditional_phase(seq, h) < 1e-9


def test_gate_phases_solid_angle_oracle():
    """Per-segment phases reduce to solid-angle sums with calibrated angles."""
    angles = calibrate_level_cone_angles(1.0, np.pi / 3)
    h, seq = _setup(angles=angles)

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

    gamma_a = _gamma_a(_segments(seq, h), seq.period)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert abs(gamma_a[2 * bits[0] + bits[1]] - solid_angle_gamma_a(bits)) < 1e-8


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
    ga = _gamma_a(_segments(seq, h), seq.period)  # levels 00, 01, 10, 11
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


def test_bell_gate_grid_step_is_never_coarser_than_requested(phase_grids):
    # P / dt = 333.3: 333 steps would exceed tau_c / 10 and be refused
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.03),
        initial_amplitudes=BELL,
        realizations=8,
        engine="analytic_phase",
    )
    assert abs(bell_gate_run(cfg, seq).fidelity - 1.0) < 1e-9
    t_local, n_t = phase_grids[0]
    assert (t_local.size - 1, t_local[-1], n_t) == (334, 1.0, 335)


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


def _pi_pulses(h):
    """The 4 x 4 ideal pi-pulses by target qubit, and the product eigenbasis
    at azimuth 0 (rows: levels), where each pulse swaps the target qubit's
    aligned and anti-aligned states."""
    one_qubit = QubitHamiltonian(coupling=h.coupling, schedule=h.schedule)
    aligned, anti = eigenframe(one_qubit, [0.0, 1.0]).states[:, 0, :]
    flip = np.outer(aligned, anti.conj()) + np.outer(anti, aligned.conj())
    pulses = {1: np.kron(flip, np.eye(2)), 2: np.kron(np.eye(2), flip)}
    return pulses, eigenframe(h, [0.0, 1.0]).states[:, 0, :]


#: a two-qubit state that is neither a product nor a Bell state
GENERIC = (0.5, 0.5j, -0.1 + 0.5j, np.sqrt(0.24))


def test_bell_exact_amplitudes_match_dense_expm(two_qubit_slice_product):
    """The u x u engine equals 4x4 slice products with 4x4 pi-pulses, under
    scalar and vector noise: the gate's four segments on the Bell state, and
    a two-qubit run_ensemble's one segment, without a pulse, on GENERIC."""
    h, seq = _setup(magnitude=60.0)
    n_seg = 250
    t_local = np.arange(n_seg + 1) * (seq.period / n_seg)
    pulses, basis = _pi_pulses(h)
    pulses[0] = np.eye(4)
    for segments, c in ((_segments(seq, h), BELL), ([(h, 0, 0)], GENERIC)):
        c = np.asarray(c, dtype=complex)
        duration = len(segments) * seq.period
        for dimension in (1, 3):
            spec = NoiseSpec(variance=20.0, correlation_time=0.04, dimension=dimension)
            samples = make_noise_ensemble(spec, duration, seq.period / n_seg, 3, 4)
            windows = _windows(samples, n_seg)
            amps = _exact_amplitudes(segments, t_local, windows, c, slices=n_seg)
            for path, got in zip(samples, amps):
                psi = basis.T @ c
                for l, (h_seg, _, target) in enumerate(segments):
                    window = path[l * n_seg : (l + 1) * n_seg + 1]
                    u = two_qubit_slice_product(h_seg, t_local, window, n_seg)
                    psi = pulses[target] @ u @ psi
                assert np.max(np.abs(basis.conj() @ psi - got)) < 1e-12


def test_bell_gate_resource_bound(refused_unallocated):
    # 4096 paths of 4 x 10^6 + 1 points: far above MAX_ELEMENTS, refused
    # before the 10^6-step segment grid is built
    h, seq = _setup(magnitude=1e7)  # keeps 1/(tau_c Delta) adiabatic
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=1.0, correlation_time=1e-5),
        initial_amplitudes=BELL,
        realizations=4096,
    )
    refused_unallocated(bell_gate_run, cfg, seq)


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


def _gate_density(cfg, seq):
    """bell_gate_run's averaged density matrix and standard errors."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        real = gate._run_segments
        patch.setattr(
            gate, "_run_segments", lambda *a: seen.append(real(*a)) or seen[-1]
        )
        bell_gate_run(cfg, seq)
    [(_, [density])] = seen
    return density.matrix, density.standard_errors


def _gate_config(sigma2, engine, realizations=64, substeps=1):
    h, seq = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=sigma2, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=realizations,
        master_seed=5,
        engine=engine,
        substeps=substeps,
    )
    return cfg, seq


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("realizations", [3, 512])
def test_zero_noise_gate_equals_the_full_ensemble(every_row, engine, realizations):
    """As for run_ensemble: entries within max(R, 16) eps of all rows
    propagated, standard errors at their roundoff floor sqrt(R) eps."""
    cfg, seq = _gate_config(0.0, engine, realizations)
    matrix, se = _gate_density(cfg, seq)
    full_matrix, full_se = every_row(_gate_density, cfg, seq)
    eps = np.finfo(float).eps
    assert np.max(np.abs(matrix - full_matrix)) <= max(realizations, 16) * eps
    assert max(np.max(se), np.max(full_se)) <= np.sqrt(realizations) * eps


@pytest.mark.parametrize("engine", ENGINES)
def test_a_gate_sweep_draws_its_normals_once(normal_draws, engine):
    cfg, seq = _gate_config(0.0, engine, realizations=8)
    results = bell_gate_sweep(cfg, seq, [5.0, 0.0, 20.0])
    # one path of 4 segments of 250 steps (tau_c / 10 = 0.004)
    assert normal_draws == [(8, (1001, 1))]
    for sigma2, result in zip([5.0, 0.0, 20.0], results):
        assert result == bell_gate_run(*_gate_config(sigma2, engine, realizations=8))
    normal_draws.clear()
    assert len(bell_gate_sweep(cfg, seq, [0.0, 0.0])) == 2
    assert normal_draws == []


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_gate_is_propagated_once(propagated_rows, engine):
    """One noise row per segment and level: 4 exact propagations, or 8
    stochastic phases (4 segments x 2 Bell levels)."""
    calls = 4 if engine == "exact_propagation" else 8
    bell_gate_run(*_gate_config(0.0, engine))
    assert propagated_rows == [1] * calls
    propagated_rows.clear()
    bell_gate_run(*_gate_config(20.0, engine))
    assert propagated_rows == [64] * calls
    propagated_rows.clear()
    bell_gate_sweep(*_gate_config(0.0, engine), [20.0, 0.0])
    assert propagated_rows == [64] * calls + [1] * calls


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_gate_peak_memory_grows_only_with_the_density(peak_bytes, engine):
    """What grows with the realizations is the broadcast density
    reduction, a few 4 x 4 complex matrices per realization, not the
    1001-point noise path or the propagators."""
    peaks = {
        n: peak_bytes(bell_gate_run, *_gate_config(0.0, engine, n)) for n in (256, 4096)
    }
    per_realization = (peaks[4096] - peaks[256]) / (4096 - 256)
    assert per_realization < 3 * 16 * 16  # 375 bytes measured
    assert per_realization < 1001 * 8


def test_zero_noise_gate_matches_the_noiseless_propagator(noiseless_propagator):
    """The exact engine's sigma^2 = 0 Bell run against the closed form: each
    segment is u x u with u from its own contour direction, then its ideal
    pi-pulse.  The error falls as O(slices^-2)."""
    h, seq = _setup()
    pulses, basis = _pi_pulses(h)
    psi = basis.T @ np.asarray(BELL)
    for sched, target in seq.segments:
        u = noiseless_propagator(replace(h, schedule=sched, qubit_count=1), seq.period)
        psi = pulses[target] @ np.kron(u, u) @ psi
    amps = basis.conj() @ psi
    rho = np.outer(amps, amps.conj())
    bell = np.asarray(BELL)
    fidelity = float(np.real(bell @ rho @ bell))
    gamma_a = _gamma_a(_segments(seq, h), seq.period)
    d_exact = rho[0, 3] / (0.5 * np.exp(-1j * (gamma_a[0] - gamma_a[3])))
    assert 1.0 - fidelity < 1.2e-7
    residuals = []
    for substeps in (1, 2, 4, 8):
        res = bell_gate_run(*_gate_config(0.0, "exact_propagation", 8, substeps))
        assert abs(res.fidelity - fidelity) < 2e-8  # 1.9e-8 at 250 slices
        residuals.append(abs(res.mc_factor - d_exact))
    assert residuals[0] < 1e-6  # 8.1e-7, then 2.2e-7, 5.7e-8 and 1.4e-8
    ratios = [coarse / fine for coarse, fine in zip(residuals[1:], residuals[2:])]
    assert all(3.5 < r < 4.5 for r in ratios)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_gate_bounds_count_every_realization(
    monkeypatch, refused_unallocated, engine
):
    """Refused wherever the full ensemble would be.  With the bound at
    20,000 elements: 32 paths of 1,001 points, and for the exact engine 16
    realizations of 2,000 slices per segment, although one row fits; 16
    realizations of 1,000 slices fit and run."""
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 20_000)
    refused_unallocated(bell_gate_run, *_gate_config(0.0, engine, 32))
    if engine == "exact_propagation":
        refused_unallocated(bell_gate_run, *_gate_config(0.0, engine, 16, 8))
        bell_gate_run(*_gate_config(0.0, engine, 16, 4))
