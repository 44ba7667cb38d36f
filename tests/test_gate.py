"""Four-segment geometric controlled-phase gate tests."""

from dataclasses import replace

import numpy as np
import pytest

from gqclab import (
    AdiabaticityError,
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    bell_gate_run,
    bell_gate_sweep,
    calibrate_level_cone_angles,
    eigenframe,
    gate_onset_ratio,
    gate_overlap_sum,
    make_noise_ensemble,
    run_ensemble,
    variance_analytic,
)
from gqclab import ensemble, errors, gate
from gqclab.adiabatic import evolve_exact_batch
from gqclab.ensemble import (
    ENGINES,
    _exact_amplitudes,
    _exact_basis,
    _gamma_a,
    _grid_steps,
    _normal_weights,
)
from gqclab.gate import BELL_LEVELS, _FLIPS, _segments, realized_conditional_phase
from gqclab.noise import _ensemble_normals

BELL = (1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2))


def _setup(theta=np.pi / 3, magnitude=400.0, period=1.0, angles=None):
    sched = ControlSchedule(magnitude=magnitude, cone_angle=theta, period=period)
    h = QubitHamiltonian(
        coupling=1.0, schedule=sched, qubit_count=2, level_cone_angles=angles
    )
    return h


def _index_map_oracle(k, j):
    """Direct term-by-term evaluation of the published index-map formula."""
    i1, i2 = k
    f1 = sum(l % 2 for l in range(1, j + 1)) % 2
    f2 = sum(l % 2 for l in range(0, j)) % 2
    return ((i1 + f1) % 2, (i2 + f2) % 2)


def _segment_masks(segments):
    """XOR masks on the level index during each of the gate's four
    ``segments`` (from ``gate._segments``), then after the last pi-pulse,
    which flips its target qubit's bit of k = 2 i1 + i2."""
    _, last, target = segments[-1]
    return [flips for _, flips, _ in segments] + [last ^ (0b100 >> target)]


def test_index_map_matches_oracle_everywhere(level_index_map):
    masks = _segment_masks(_segments(_setup()))
    for i1 in (0, 1):
        for i2 in (0, 1):
            for j in range(5):
                level = (2 * i1 + i2) ^ masks[j]
                oracle = _index_map_oracle((i1, i2), j)
                assert divmod(level, 2) == oracle
                assert level_index_map((i1, i2), j) == oracle


def test_index_map_known_paths_and_closure(level_index_map):
    segments = _segments(_setup())
    masks = _segment_masks(segments)

    def path(k):
        return [divmod((2 * k[0] + k[1]) ^ mask, 2) for mask in masks]

    assert path((0, 0)) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assert path((1, 1)) == [(1, 1), (0, 1), (0, 0), (1, 0), (1, 1)]
    for k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        steps = path(k)
        assert steps[4] == steps[0]
        # each step flips exactly one qubit index, the pulse's target
        for a, b, (_, _, target) in zip(steps, steps[1:], segments):
            assert (a[0] != b[0]) + (a[1] != b[1]) == 1
            assert a[target - 1] != b[target - 1]
    with pytest.raises(ValueError):
        level_index_map((0, 0), 5)


def test_segments_are_one_cycle_of_the_contour_and_its_reverse_twice():
    # C pi_1, Cbar pi_2, C pi_1, Cbar pi_2 from any base cycles and direction
    h = _setup(angles=calibrate_level_cone_angles(1.0, np.pi / 3))
    base = replace(h.schedule, cycles=3, direction="reversed")
    segments = _segments(replace(h, schedule=base))
    schedules = [h_seg.schedule for h_seg, _, _ in segments]
    assert [s.direction for s in schedules] == ["forward", "reversed"] * 2
    assert [target for _, _, target in segments] == [1, 2, 1, 2]
    assert [flips for _, flips, _ in segments] == list(_FLIPS[:4])
    assert {(s.cycles, s.period) for s in schedules} == {(1, base.period)}
    # only the schedule differs from the gate's Hamiltonian
    assert {replace(h_seg, schedule=base) for h_seg, _, _ in segments} == {
        replace(h, schedule=base)
    }


def test_gate_functions_refuse_a_one_qubit_hamiltonian():
    h = QubitHamiltonian(coupling=1.0, schedule=_setup().schedule)
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.04),
        initial_amplitudes=(1 / np.sqrt(2), 1 / np.sqrt(2)),
        realizations=8,
    )
    calls = (
        lambda: gate_overlap_sum(h, 0.04),
        lambda: realized_conditional_phase(h),
        lambda: bell_gate_run(cfg),
        lambda: bell_gate_sweep(cfg, [0.0, 5.0]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="two-qubit Hamiltonian"):
            call()


@pytest.mark.parametrize("engine", ENGINES)
def test_strict_gate_checks_the_contour_it_runs(engine):
    """1/(T Delta) = 1/(0.02 x 400) = 0.125 exceeds the 0.1 bound."""
    cfg = EnsembleConfig(
        hamiltonian=_setup(magnitude=400.0, period=0.02),
        noise=NoiseSpec(variance=5.0, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=8,
        engine=engine,
        strict_adiabatic=True,
    )
    with pytest.raises(AdiabaticityError):
        bell_gate_run(cfg)


def _grid(h, dt):
    """The pipeline's segment grid for step ``dt``, and its step count."""
    period = h.schedule.period
    n_seg = _grid_steps(period, dt)
    return np.linspace(0.0, period, n_seg + 1), n_seg


def test_gate_phases_zero_noise_and_short_path():
    """Gamma_s weights span the four segments' one path, one column per
    level, and read 0 off a path of zero normals."""
    h = _setup()
    t_local, n_seg = _grid(h, 0.004)
    spec = NoiseSpec(variance=1.0, correlation_time=0.04)
    weights = _normal_weights(_segments(h), t_local, BELL_LEVELS, spec, 0.004)
    assert weights.shape == (4 * n_seg + 1, 1, 4)
    gamma_s = np.einsum("ntc,tck->nk", np.zeros((2, 4 * n_seg + 1, 1)), weights)
    assert np.array_equal(gamma_s, np.zeros((2, 4)))


def test_analytic_gate_builds_no_eigenframe(monkeypatch, gamma_s_reference):
    h = _setup(angles=calibrate_level_cone_angles(np.pi / 2, np.pi / 3))
    spec = NoiseSpec(variance=20.0, correlation_time=0.04, dimension=3)
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=spec,
        initial_amplitudes=BELL,
        realizations=8,
        master_seed=3,
        engine="analytic_phase",
    )
    built = []

    def counted(h_seg, t):
        built.append(len(t))
        return eigenframe(h_seg, t)

    # Gamma_s and the overlap read the closed-form level coupling
    monkeypatch.setattr(ensemble, "eigenframe", counted)
    bell_gate_run(cfg)
    assert built == []

    # Gamma_s off the normals: the trapezoid on each segment's window of
    # the filtered path, to 1e-13, and 0 for the levels the input leaves out
    t_local, n_seg = _grid(h, cfg.dt)
    period = h.schedule.period
    dt = period / n_seg
    samples = make_noise_ensemble(replace(spec, variance=1.0), 4 * period, dt, 3, 8)
    normals = _ensemble_normals(3, np.empty(samples.shape))
    weights = _normal_weights(_segments(h), t_local, BELL_LEVELS, spec, dt)
    gamma_s = np.einsum("ntc,tck->nk", normals, weights)
    expected = gamma_s_reference(_segments(h), t_local, samples, BELL_LEVELS)
    assert np.max(np.abs(gamma_s - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert not gamma_s[:, [0b01, 0b10]].any()


def test_uniform_angles_give_zero_conditional_phase():
    h = _setup()
    # spin echo: every level accumulates zero net deterministic phase
    for v in _gamma_a(_segments(h), h.schedule.period):
        assert abs(v) < 1e-9
    assert realized_conditional_phase(h) < 1e-9


def test_gate_phases_solid_angle_oracle():
    """Per-segment phases reduce to solid-angle sums with calibrated angles."""
    angles = calibrate_level_cone_angles(1.0, np.pi / 3)
    h = _setup(angles=angles)

    def solid_angle_gamma_a(level_bits):
        """Independent oracle: dynamical phases cancel over C/Cbar pairs;
        the geometric phase of product level (i1, i2) per forward cycle is
        -[s(i1) + s(i2)] pi (1 - cos theta_level) with s(0) = -1, s(1) = +1,
        and flips sign on the reversed contour."""
        total = 0.0
        for l in range(4):
            kl = _index_map_oracle(level_bits, l)
            theta = angles[2 * kl[0] + kl[1]]
            orient = 1.0 if l % 2 == 0 else -1.0
            sign = (-1.0 if kl[0] == 0 else 1.0) + (-1.0 if kl[1] == 0 else 1.0)
            # gamma_a contribution = -geometric phase = +orient sign pi(1-cos)
            total += -orient * sign * np.pi * (1.0 - np.cos(theta))
        return total

    gamma_a = _gamma_a(_segments(h), h.schedule.period)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert abs(gamma_a[2 * bits[0] + bits[1]] - solid_angle_gamma_a(bits)) < 1e-8


@pytest.mark.parametrize("phi", [0.5, 1.0, np.pi / 2, np.pi])
def test_calibration_realizes_requested_phase(phi):
    angles = calibrate_level_cone_angles(phi, np.pi / 3)
    h = _setup(angles=angles)
    assert abs(realized_conditional_phase(h) - phi) < 1e-9


def test_calibration_rejects_unreachable_phase():
    with pytest.raises(ValueError):
        calibrate_level_cone_angles(-0.5 % (2 * np.pi), np.pi)  # cos would exceed 1


def test_gate_is_diagonal_conditional_phase():
    """Noiseless gate acts as |xy> -> e^{-i Gamma_a(xy)}|xy> with the
    bilinear part equal to the calibrated phi."""
    phi = 1.3
    angles = calibrate_level_cone_angles(phi, np.pi / 3)
    h = _setup(angles=angles)
    ga = _gamma_a(_segments(h), h.schedule.period)  # levels 00, 01, 10, 11
    bilinear = -(ga[3] - ga[2] - ga[1] + ga[0])
    assert abs(bilinear % (2 * np.pi) - phi) < 1e-9


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2])
def test_bell_overlap_sum_closed_form(theta):
    h = _setup(theta=theta)
    tau_c = 1.0 / 256.0
    total = gate_overlap_sum(h, tau_c)
    expected = 32 * tau_c * h.schedule.period * np.sin(theta) ** 2
    assert abs(total - expected) < 0.05 * expected


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("calibrated", [False, True])
def test_gate_overlap_sum_matches_numerical_oracle(
    numeric_gate_overlap, dimension, calibrated
):
    angles = calibrate_level_cone_angles(1.0, np.pi / 3) if calibrated else None
    h = _setup(angles=angles)
    for levels in (((0, 0), (1, 1)), ((0, 1), (1, 1))):
        full = numeric_gate_overlap(h, 0.04, levels, dimension, steps=8192)
        half = numeric_gate_overlap(h, 0.04, levels, dimension, steps=4096)
        oracle = (4.0 * full - half) / 3.0
        exact = gate_overlap_sum(h, 0.04, levels, dimension)
        assert abs(exact - oracle) < 1e-6 * oracle


@pytest.mark.parametrize("dimension", [1, 3])
def test_bell_pair_coupling_is_exactly_zero_in_segments_one_and_three(dimension):
    """In segments 1 and 3 the Bell pair sits on levels 10 and 01, whose
    aligned and anti-aligned qubits cancel (s = 0): the pair's v is exactly
    zero, with no floor, and so is its overlap over either segment."""
    angles = calibrate_level_cone_angles(1.0, np.pi / 3)
    h = _setup(angles=angles)
    for l, segment in enumerate(_segments(h)):
        h_seg, flips, _ = segment
        k, j = (level ^ flips for level in BELL_LEVELS)
        v = h_seg.level_coupling(k, dimension) - h_seg.level_coupling(j, dimension)
        if l % 2:
            assert {k, j} == {0b10, 0b01}
            assert not v.any()
            overlap = ensemble._segment_overlap([segment], 0.04, BELL_LEVELS, dimension)
            assert overlap == 0.0
        else:
            assert v.any()


def test_exact_gate_builds_its_basis_on_the_two_end_points(monkeypatch):
    """One basis per sigma^2 row at t = 0 and T, with the bits of the end
    states of a frame on the whole 251-point grid."""
    cfg = EnsembleConfig(
        hamiltonian=_setup(),
        noise=NoiseSpec(variance=20.0, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=8,
        engine="exact_propagation",
    )
    built = []

    def whole_grid(h_seg, t):
        built.append(list(t))
        frame = eigenframe(h_seg, np.linspace(t[0], t[-1], 251))
        return replace(frame, states=frame.states[:, [0, -1]])

    reference = bell_gate_run(cfg)
    monkeypatch.setattr(ensemble, "eigenframe", whole_grid)
    assert bell_gate_run(cfg) == reference
    assert built == [[0.0, 1.0]]


def test_bell_gate_vector_noise_closed_form():
    """The closed form uses the configured noise dimension (3 components)."""
    h = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=20.0, correlation_time=0.04, dimension=3),
        initial_amplitudes=BELL,
        realizations=4096,
        master_seed=31,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg)
    overlap = gate_overlap_sum(h, 0.04, dimension=3)
    assert res.analytic_variance == variance_analytic(1, h.coupling, 20.0, overlap)
    assert (
        abs(res.fidelity - res.fidelity_closed_form)
        < 3 * res.fidelity_standard_error
    )


def test_bell_gate_noiseless_perfect_fidelity():
    h = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=8,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg)
    assert abs(res.fidelity - 1.0) < 1e-9
    assert res.conditional_phase < 1e-9
    assert res.decoherence_factor == 1.0


def test_bell_gate_grid_step_is_never_coarser_than_requested(phase_grids):
    # P / dt = 333.3: 333 steps would exceed tau_c / 10 and be refused
    h = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.03),
        initial_amplitudes=BELL,
        realizations=8,
        engine="analytic_phase",
    )
    assert abs(bell_gate_run(cfg).fidelity - 1.0) < 1e-9
    # sigma^2 = 0 integrates no Gamma_s: the grid is read from a noisy run
    bell_gate_run(replace(cfg, noise=replace(cfg.noise, variance=5.0)))
    t_local, n_t = phase_grids[0]
    assert (t_local.size - 1, t_local[-1], n_t) == (334, 1.0, 335)


def test_bell_gate_engines_agree_with_closed_form():
    h = _setup()
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
        res = bell_gate_run(cfg)
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
    h = _setup(magnitude=60.0)
    n_seg = 250
    period = h.schedule.period
    t_local = np.arange(n_seg + 1) * (period / n_seg)
    pulses, basis = _pi_pulses(h)
    pulses[0] = np.eye(4)
    sigma = np.sqrt(20.0)
    for segments, c in ((_segments(h), BELL), ([(h, 0, 0)], GENERIC)):
        c = np.asarray(c, dtype=complex)
        duration = len(segments) * period
        for dimension in (1, 3):
            # the engine takes the unit-variance path and sigma
            spec = NoiseSpec(variance=1.0, correlation_time=0.04, dimension=dimension)
            unit = make_noise_ensemble(spec, duration, period / n_seg, 3, 4)
            singles, states, spinor = _exact_basis(segments, t_local, c)
            x = evolve_exact_batch(singles, t_local, unit, spinor, n_seg, sigma)
            amps = _exact_amplitudes(segments, states, c, x)
            for path, got in zip(sigma * unit, amps):
                psi = basis.T @ c
                for l, (h_seg, _, target) in enumerate(segments):
                    window = path[l * n_seg : (l + 1) * n_seg + 1]
                    u = two_qubit_slice_product(h_seg, t_local, window, n_seg)
                    psi = pulses[target] @ u @ psi
                assert np.max(np.abs(basis.conj() @ psi - got)) < 1e-12


def test_bell_gate_resource_bound(refused_unallocated):
    # 4096 paths of 4 x 10^6 + 1 points: far above MAX_ELEMENTS, refused
    # before the 10^6-step segment grid is built
    h = _setup(magnitude=1e7)  # keeps 1/(tau_c Delta) adiabatic
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=1.0, correlation_time=1e-5),
        initial_amplitudes=BELL,
        realizations=4096,
    )
    refused_unallocated(bell_gate_run, cfg)


def test_bell_gate_strong_noise_half_fidelity():
    h = _setup()
    tau_c = 0.04
    overlap = gate_overlap_sum(h, tau_c)
    sigma2 = 4 * (4 * np.pi**2) / overlap  # variance exactly 4 pi^2
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
        initial_amplitudes=BELL,
        realizations=2048,
        master_seed=2,
        engine="analytic_phase",
    )
    res = bell_gate_run(cfg)
    assert res.analytic_variance >= 4 * np.pi**2 - 1e-6
    assert abs(res.fidelity - 0.5) < 0.02
    assert abs(res.onset_ratio - 1.0) < 1e-9


def test_bell_gate_fidelity_monotone_in_sigma2():
    h = _setup()
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
        fids.append(bell_gate_run(cfg).fidelity)
    assert all(a >= b - 0.01 for a, b in zip(fids, fids[1:]))
    assert fids[0] > 0.99 and fids[-1] < 0.6


def test_bell_gate_rejects_non_bell_input():
    h = _setup()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=0.04),
        initial_amplitudes=(1.0, 0.0, 0.0, 0.0),
        realizations=8,
    )
    message = (
        r"^initial_amplitudes must be the Bell state \(\|00> \+ \|11>\)/sqrt\(2\), "
        r"gate.BELL_STATE$"
    )
    for run in (bell_gate_run, lambda c: bell_gate_sweep(c, [0.0])):
        with pytest.raises(ValueError, match=message):
            run(cfg)


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


def _gate_density(cfg):
    """bell_gate_run's averaged density matrix and standard errors."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        real = gate._run_segments
        patch.setattr(
            gate, "_run_segments", lambda *a: seen.append(real(*a)) or seen[-1]
        )
        bell_gate_run(cfg)
    [(_, [density])] = seen
    return density.matrix, density.standard_errors


def _gate_config(sigma2, engine, realizations=64, substeps=1):
    return EnsembleConfig(
        hamiltonian=_setup(),
        noise=NoiseSpec(variance=sigma2, correlation_time=0.04),
        initial_amplitudes=BELL,
        realizations=realizations,
        master_seed=5,
        engine=engine,
        substeps=substeps,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("realizations", [3, 512])
def test_zero_noise_gate_equals_the_full_ensemble(every_row, engine, realizations):
    """As for run_ensemble: entries within max(R, 16) eps of all rows
    propagated, standard errors at their roundoff floor sqrt(R) eps."""
    cfg = _gate_config(0.0, engine, realizations)
    matrix, se = _gate_density(cfg)
    full_matrix, full_se, _ = every_row(cfg, _segments(cfg.hamiltonian))
    eps = np.finfo(float).eps
    assert np.max(np.abs(matrix - full_matrix)) <= max(realizations, 16) * eps
    assert max(np.max(se), np.max(full_se)) <= np.sqrt(realizations) * eps


@pytest.mark.parametrize("engine", ENGINES)
def test_a_gate_sweep_draws_its_normals_once(normal_draws, engine):
    cfg = _gate_config(0.0, engine, realizations=8)
    results = bell_gate_sweep(cfg, [5.0, 0.0, 20.0])
    # one path of 4 segments of 250 steps (tau_c / 10 = 0.004)
    assert normal_draws == [(8, (1001, 1))]
    for sigma2, result in zip([5.0, 0.0, 20.0], results):
        assert result == bell_gate_run(_gate_config(sigma2, engine, realizations=8))
    normal_draws.clear()
    assert len(bell_gate_sweep(cfg, [0.0, 0.0])) == 2
    assert normal_draws == []


def test_a_non_uniform_exact_run_is_refused_before_drawing(normal_draws):
    """Per-level cone angles define no one-qubit propagator u for the exact
    engine's u x u: EnsembleConfig refuses them, so that neither
    bell_gate_run nor run_ensemble has a config to draw normals for."""
    angles = calibrate_level_cone_angles(1.0, np.pi / 3)
    cfg = _gate_config(5.0, "exact_propagation", 4096)
    message = (
        "^the exact_propagation engine needs uniform level_cone_angles; "
        "use the analytic_phase engine$"
    )
    with pytest.raises(ValueError, match=message):
        replace(cfg, hamiltonian=_setup(angles=angles))
    assert normal_draws == []


def test_noisy_gate_sweep_holds_only_the_normals(peak_bytes):
    """At 512 realizations of a 1,001-point path, the exact engine's sweep
    peaks within 1.5 MiB of the normals (1.0 MiB measured), which it
    filters in place and reads as 251-point segment views: a full-size
    copy of the normals, 3.9 MiB, would not fit."""
    held = 512 * 1001 * 8
    cfg = _gate_config(5.0, "exact_propagation", 512)
    assert peak_bytes(bell_gate_sweep, cfg, [5.0, 20.0]) <= held + 1.5 * 2**20


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_gate_is_propagated_once(propagated_rows, engine):
    """The exact engine makes one propagation per row, all four segments
    on one path, of one noise row at sigma^2 = 0; the analytic engine reads
    Gamma_s of the unit path off each row's normals once per sweep, all
    four segments and both Bell levels at once, and none at sigma^2 = 0."""
    exact = engine == "exact_propagation"
    bell_gate_run(_gate_config(0.0, engine))
    assert propagated_rows == ([1] if exact else [])
    propagated_rows.clear()
    bell_gate_run(_gate_config(20.0, engine))
    assert propagated_rows == [64]
    propagated_rows.clear()
    bell_gate_sweep(_gate_config(0.0, engine), [20.0, 0.0])
    assert propagated_rows == ([64, 1] if exact else [64])


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("theta", [np.pi / 3, 1.1, 2.0])
def test_exact_gate_sweep_equals_the_per_segment_composition(
    monkeypatch, segment_amplitudes_reference, dimension, theta
):
    """One propagation of the aligned state across all four segments gives
    the bits of propagating both eigenstates segment by segment, noiseless
    and noisy, at 3 realizations and at 512: the amplitudes that the sweep
    averages are the reference's on the sweep's unit-variance path."""
    variances = [0.0, 5.0, 20.0]
    averaged = []
    real = ensemble._averaged_density
    monkeypatch.setattr(
        ensemble,
        "_averaged_density",
        lambda amps, rows: averaged.append(amps) or real(amps, rows),
    )
    for realizations in (3, 512):
        noise = NoiseSpec(variance=0.0, correlation_time=0.04, dimension=dimension)
        cfg = replace(
            _gate_config(0.0, "exact_propagation", realizations),
            hamiltonian=_setup(theta),
            noise=noise,
        )
        averaged.clear()
        bell_gate_sweep(cfg, variances)
        segments = _segments(cfg.hamiltonian)
        span = cfg.hamiltonian.schedule.duration
        n = _grid_steps(span, cfg.dt)
        grid = (4 * span, span / n, cfg.master_seed, realizations)
        unit = make_noise_ensemble(replace(noise, variance=1.0), *grid)
        t = np.linspace(0.0, span, n + 1)
        for amps, sigma2 in zip(averaged, variances, strict=True):
            path = unit if sigma2 else np.zeros((1, 4 * n + 1, dimension))
            want = segment_amplitudes_reference(
                segments, t, path, cfg.amplitudes, n, np.sqrt(sigma2)
            )
            assert np.array_equal(amps, want)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_gate_peak_memory_grows_only_with_the_density(peak_bytes, engine):
    """What grows with the realizations is the broadcast density
    reduction, a few 4 x 4 complex matrices per realization, not the
    1001-point noise path or the propagators."""
    peaks = {
        n: peak_bytes(bell_gate_run, _gate_config(0.0, engine, n)) for n in (256, 4096)
    }
    per_realization = (peaks[4096] - peaks[256]) / (4096 - 256)
    assert per_realization < 3 * 16 * 16  # 375 bytes measured
    assert per_realization < 1001 * 8


def test_zero_noise_gate_matches_the_noiseless_propagator(noiseless_propagator):
    """The exact engine's sigma^2 = 0 Bell run against the closed form: each
    segment is u x u with u from its own contour direction, then its ideal
    pi-pulse.  The error falls as O(slices^-2)."""
    h = _setup()
    pulses, basis = _pi_pulses(h)
    psi = basis.T @ np.asarray(BELL)
    for h_seg, _, target in _segments(h):
        u = noiseless_propagator(replace(h_seg, qubit_count=1), h.schedule.period)
        psi = pulses[target] @ np.kron(u, u) @ psi
    amps = basis.conj() @ psi
    rho = np.outer(amps, amps.conj())
    bell = np.asarray(BELL)
    fidelity = float(np.real(bell @ rho @ bell))
    gamma_a = _gamma_a(_segments(h), h.schedule.period)
    d_exact = rho[0, 3] / (0.5 * np.exp(-1j * (gamma_a[0] - gamma_a[3])))
    assert 1.0 - fidelity < 1.2e-7
    residuals = []
    for substeps in (1, 2, 4, 8):
        res = bell_gate_run(_gate_config(0.0, "exact_propagation", 8, substeps))
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
    refused_unallocated(bell_gate_run, _gate_config(0.0, engine, 32))
    if engine == "exact_propagation":
        refused_unallocated(bell_gate_run, _gate_config(0.0, engine, 16, 8))
        bell_gate_run(_gate_config(0.0, engine, 16, 4))
