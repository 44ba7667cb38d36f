"""Monte Carlo ensemble vs Gaussian closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gqclab import (
    AdiabaticityError,
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    ResourceLimitError,
    calibrate_level_cone_angles,
    decoherence_factor_analytic,
    decoherence_report,
    decoherence_sweep,
    deterministic_phases,
    make_noise_ensemble,
    onset_ratio,
    overlap_integral,
    run_ensemble,
    transverse_magnetization,
    variance_analytic,
)
from gqclab import ensemble, errors
from gqclab.adiabatic import eigenframe, stochastic_phase_batch
from gqclab.ensemble import ENGINES, _grid_steps, _normal_weights
from gqclab.gate import _segments
from gqclab.noise import _ensemble_normals, _ou_from_normals

EQUAL = (1 / np.sqrt(2), 1 / np.sqrt(2))


def _hamiltonian(theta=np.pi / 2, magnitude=200.0, period=1.0, cycles=1):
    sched = ControlSchedule(
        magnitude=magnitude, cone_angle=theta, period=period, cycles=cycles
    )
    return QubitHamiltonian(coupling=1.0, schedule=sched)


def _config(sigma2, tau_c=0.05, realizations=512, engine="analytic_phase", **kw):
    return EnsembleConfig(
        hamiltonian=kw.pop("hamiltonian", _hamiltonian()),
        noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
        initial_amplitudes=kw.pop("amplitudes", EQUAL),
        realizations=realizations,
        master_seed=kw.pop("master_seed", 0),
        engine=engine,
        **kw,
    )


def _sigma2_for_variance(h, tau_c, v_target):
    """sigma^2 that makes the exact phase variance equal v."""
    i_kj = overlap_integral(h, tau_c, (1, 0))
    return 4.0 * v_target / (h.schedule.cycles * h.coupling**2 * i_kj)


def _gamma_s(cfg):
    """Gamma_s (n_levels, n_real) along the noise paths run_ensemble draws."""
    h = cfg.hamiltonian
    duration = h.schedule.duration
    n = _grid_steps(duration, cfg.dt)
    samples = make_noise_ensemble(
        cfg.noise, duration, duration / n, cfg.master_seed, cfg.realizations
    )
    t = np.linspace(0.0, duration, n + 1)
    return np.stack(
        [stochastic_phase_batch(h, t, samples, k) for k in range(h.n_levels)]
    )


def test_config_validation():
    with pytest.raises(ValueError):
        _config(1.0, amplitudes=(1.0, 1.0))  # not normalized
    with pytest.raises(ValueError):
        _config(1.0, realizations=1)
    with pytest.raises(ValueError):
        _config(1.0, engine="magic")


def test_run_ensemble_pure_level_noiseless():
    density, _ = run_ensemble(_config(0.0, amplitudes=(1.0, 0.0), realizations=4))
    assert np.allclose(density.matrix, np.diag([1.0, 0.0]), atol=1e-15, rtol=0)
    assert density.matrix[0, 1] == 0.0 and density.matrix[1, 0] == 0.0


def test_run_ensemble_noiseless_superposition():
    cfg = _config(0.0, realizations=4)
    density, gamma_a = run_ensemble(cfg)
    assert abs(abs(density.matrix[0, 1]) - 0.5) < 1e-9
    gamma_a_kj = gamma_a[0] - gamma_a[1]
    # rho_01 = c0 c1* exp(-i (gamma_a(0) - gamma_a(1)))
    assert abs(np.angle(density.matrix[0, 1]) + gamma_a_kj) % (2 * np.pi) < 1e-9
    # density invariants
    assert abs(np.trace(density.matrix) - 1.0) < 1e-10
    assert np.max(np.abs(density.matrix - density.matrix.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(density.matrix)) > -1e-10


def test_engines_agree_at_variance_two():
    h = _hamiltonian()
    sigma2 = _sigma2_for_variance(h, 0.05, 2.0)
    rep_a = decoherence_report(_config(sigma2, realizations=1024))
    rep_e = decoherence_report(
        _config(sigma2, realizations=1024, engine="exact_propagation")
    )
    target = np.exp(-1.0) / 1.0  # e^{-v/2}, v = 2
    assert abs(rep_a.analytic_variance - 2.0) < 1e-6
    assert abs(abs(rep_a.mc_factor) - target) < 3 * rep_a.mc_standard_error
    assert abs(abs(rep_e.mc_factor) - target) < 3 * rep_e.mc_standard_error
    combined = np.hypot(rep_a.mc_standard_error, rep_e.mc_standard_error)
    assert abs(abs(rep_a.mc_factor) - abs(rep_e.mc_factor)) < 3 * combined


def test_rho_offdiagonal_matches_half_decoherence_factor():
    h = _hamiltonian()
    sigma2 = _sigma2_for_variance(h, 0.05, 2.0)
    density, _ = run_ensemble(_config(sigma2, realizations=1024))
    expected = 0.5 * np.exp(-1.0)
    assert (
        abs(abs(density.matrix[0, 1]) - expected)
        < 3 * density.standard_errors[0, 1]
    )
    # populations preserved: diagonal = |c_k|^2 within 3 SE
    for k in range(2):
        se = max(density.standard_errors[k, k], 1e-12)
        assert abs(density.matrix[k, k].real - 0.5) < 3 * se


def test_gamma_s_gaussian_and_mean_zero():
    cfg = _config(
        1.0,
        tau_c=0.002,
        realizations=4096,
        noise_dt=0.0002,
        hamiltonian=_hamiltonian(magnitude=5000.0),
    )
    h = cfg.hamiltonian
    assert h.schedule.duration / cfg.noise.correlation_time >= 100
    gs = _gamma_s(cfg)[1]
    assert gs.size == 4096
    n = gs.size
    se_mean = gs.std(ddof=1) / np.sqrt(n)
    assert abs(gs.mean()) < 3 * se_mean
    # skewness and excess kurtosis within 4 SE of 0
    se_skew = np.sqrt(6.0 / n)
    se_kurt = np.sqrt(24.0 / n)
    assert abs(stats.skew(gs)) < 4 * se_skew
    assert abs(stats.kurtosis(gs)) < 4 * se_kurt


def test_monotone_decoherence_in_sigma2():
    h = _hamiltonian()
    mags = []
    for sigma2 in (0.0, 5.0, 20.0, 80.0, 320.0):
        density, _ = run_ensemble(
            _config(sigma2, realizations=512, master_seed=42)
        )
        mags.append(abs(density.matrix[0, 1]))
    assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))


def test_determinism_bit_exact():
    cfg = _config(3.0, realizations=128, master_seed=7)
    d1, gamma_a1 = run_ensemble(cfg)
    d2, gamma_a2 = run_ensemble(cfg)
    assert np.array_equal(d1.matrix, d2.matrix)
    assert np.array_equal(gamma_a1, gamma_a2)
    assert np.array_equal(_gamma_s(cfg), _gamma_s(cfg))


def test_gamma_s_is_computed_only_by_the_analytic_engine(monkeypatch):
    """Only the analytic engine builds Gamma_s weights, once per run, for
    the levels of nonzero amplitude."""
    real = ensemble._normal_weights
    for engine, levels in (("exact_propagation", []), ("analytic_phase", [[0, 1]])):
        seen = []
        monkeypatch.setattr(
            ensemble,
            "_normal_weights",
            lambda *a: seen.append(list(a[2])) or real(*a),
        )
        run_ensemble(_config(3.0, realizations=8, engine=engine))
        assert seen == levels, engine


def test_analytic_engine_requires_adiabaticity():
    h = _hamiltonian(magnitude=1.0)  # gap 1: grossly non-adiabatic
    cfg = _config(1.0, hamiltonian=h, realizations=4)
    with pytest.raises(AdiabaticityError):
        run_ensemble(cfg)


@pytest.mark.parametrize("noise_dt", [0.0, np.inf, np.nan, -0.001])
def test_noise_dt_that_is_not_finite_and_positive_is_refused(noise_dt):
    """The step given is named and quoted, before any grid is derived."""
    message = f"noise_dt must be finite and > 0, got {noise_dt}$"
    with pytest.raises(ValueError, match=message):
        _config(1.0, noise_dt=noise_dt)


def test_resource_bound():
    # 2048 paths of 10^6 + 1 points: far above MAX_ELEMENTS, refused unallocated
    h = _hamiltonian(magnitude=1e7)  # keeps 1/(tau_c Delta) adiabatic
    cfg = _config(1.0, tau_c=1e-5, realizations=2048, hamiltonian=h)
    with pytest.raises(ResourceLimitError):
        run_ensemble(cfg)


def test_exact_engine_two_qubit_product_state_is_the_kronecker_square():
    """At sigma^2 = 0 a two-qubit run on a product state is the one-qubit
    run on each factor: rho = rho_1 x rho_1 and Gamma_a(i1 i2) =
    Gamma_a(i1) + Gamma_a(i2).  Per-level cone angles are refused."""
    a = np.array([0.6, 0.8j])
    one = _config(0.0, realizations=8, engine="exact_propagation", amplitudes=a)
    h = replace(one.hamiltonian, qubit_count=2)
    two = replace(one, hamiltonian=h, initial_amplitudes=np.kron(a, a))
    (rho_1, gamma_1), (rho_2, gamma_2) = run_ensemble(one), run_ensemble(two)
    assert np.max(np.abs(rho_2.matrix - np.kron(rho_1.matrix, rho_1.matrix))) < 1e-14
    assert np.allclose(gamma_2, np.add.outer(gamma_1, gamma_1).ravel(), atol=1e-12)
    angles = replace(h, level_cone_angles=(1.0, 1.0, 1.0, 1.2))
    with pytest.raises(ValueError, match="uniform level_cone_angles"):
        run_ensemble(replace(two, hamiltonian=angles))


def test_noise_grid_ends_at_the_schedule_duration(phase_grids):
    # T / dt = 333.3: the grid takes 334 steps of 1/334 and ends at T = 1
    h = _hamiltonian(magnitude=400.0)
    cfg = _config(1.0, tau_c=0.03, realizations=8, noise_dt=0.003, hamiltonian=h)
    _, gamma_a = run_ensemble(cfg)
    t, n_t = phase_grids[0]
    assert t[-1] == 1.0 and t.size == n_t == 335
    assert np.max(np.diff(t)) <= 0.003
    assert np.array_equal(gamma_a, deterministic_phases(h, 1.0))


def test_decoherence_factor_analytic_values():
    assert decoherence_factor_analytic(0.0) == 1.0
    assert np.isclose(decoherence_factor_analytic(2.0), np.exp(-1.0))
    val = decoherence_factor_analytic(4 * np.pi**2)
    assert np.isclose(val, np.exp(-2 * np.pi**2))
    assert abs(val - 2.675e-9) < 0.01e-9  # the "~3e-9" closed-form number
    with pytest.raises(ValueError):
        decoherence_factor_analytic(-1.0)


def test_variance_analytic_arithmetic():
    assert variance_analytic(1, 2.0, 1.0, 1.0) == 1.0
    # linearity in eta
    assert variance_analytic(4, 1.3, 0.7, 0.2) == 4 * variance_analytic(
        1, 1.3, 0.7, 0.2
    )
    # NMR closed form: I = 4 tau_c T sin^2 theta
    eta, gamma, sigma2, tau_c, T, theta = 3, 1.5, 0.8, 0.01, 2.0, np.pi / 3
    i_nmr = 4 * tau_c * T * np.sin(theta) ** 2
    assert np.isclose(
        variance_analytic(eta, gamma, sigma2, i_nmr),
        eta * gamma**2 * sigma2 * tau_c * T * np.sin(theta) ** 2,
    )
    with pytest.raises(ValueError):
        variance_analytic(0, 1.0, 1.0, 1.0)


def test_overlap_integral_separable_trivial(numeric_overlap):
    # theta = 0 under vector noise: the x and y rows vanish and the z row
    # O_kj is constant -2; the numerical oracle's kernel exp(-|tau|/tau_c)
    # is 1 to 1e-12 at tau_c = 1e12 T
    sched = ControlSchedule(magnitude=200.0, cone_angle=0.0, period=1.0)
    h = QubitHamiltonian(coupling=1.0, schedule=sched)
    val = numeric_overlap(h, 1e12, (0, 1), dimension=3, steps=1024)
    assert abs(val - 4.0) < 1e-9  # c^2 T^2 with c = 2, T = 1


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2])
def test_overlap_integral_nmr_closed_form(theta):
    h = _hamiltonian(theta=theta)
    tau_c = 1.0 / 1000.0
    val = overlap_integral(h, tau_c, (1, 0))
    expected = 4 * tau_c * 1.0 * np.sin(theta) ** 2
    assert abs(val - expected) < 0.05 * expected


#: (qubits, calibrated angles, direction, dimension, levels)
OVERLAP_CASES = {
    "1q": (1, False, "forward", 1, (1, 0)),
    "1q-reversed": (1, False, "reversed", 1, (0, 1)),
    "1q-vector": (1, False, "forward", 3, (1, 0)),
    "2q-bell": (2, False, "forward", 1, (0, 3)),
    "2q-calibrated": (2, True, "forward", 1, (3, 2)),
    "2q-calibrated-reversed": (2, True, "reversed", 1, (0, 3)),
    "2q-calibrated-vector": (2, True, "forward", 3, (1, 3)),
}


@pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2])
@pytest.mark.parametrize("tau_ratio", [0.005, 0.04, 0.1, 0.5])
def test_overlap_integral_matches_numerical_oracle(
    numeric_overlap, case, theta, tau_ratio
):
    """Exact finite-window I_kj vs the Richardson value of the trapezoid oracle."""
    qubits, calibrated, direction, dimension, levels = OVERLAP_CASES[case]
    period = 2.0
    sched = ControlSchedule(200.0, theta, period, direction=direction)
    angles = calibrate_level_cone_angles(1.0, theta) if calibrated else None
    h = QubitHamiltonian(1.0, sched, qubits, angles)
    tau_c = tau_ratio * period
    full = numeric_overlap(h, tau_c, levels, dimension, steps=8192)
    half = numeric_overlap(h, tau_c, levels, dimension, steps=4096)
    oracle = (4.0 * full - half) / 3.0  # the trapezoid error is O(dt^2)
    exact = ensemble._segment_overlap([(h, 0, 0)], tau_c, levels, dimension)
    assert abs(exact - oracle) < 1e-6 * oracle
    if dimension == 1:
        assert overlap_integral(h, tau_c, levels) == exact


def test_report_overlap_is_the_whole_window(
    numeric_overlap, averaged_density_analytic
):
    """At cycles 3 the closed form integrates the one noise path over
    [0, 3T]: the oracle on that window, not 3 I of one period."""
    h = _hamiltonian(cycles=3)
    cfg = _config(10.0, realizations=2, hamiltonian=h)
    report = decoherence_report(cfg)
    full = numeric_overlap(h, 0.05, steps=8192)
    half = numeric_overlap(h, 0.05, steps=4096)
    oracle = (4.0 * full - half) / 3.0
    assert abs(report.overlap - oracle) < 1e-6 * oracle
    assert report.analytic_variance == 10.0 * report.overlap / 4.0
    rho_10 = averaged_density_analytic(cfg).matrix[1, 0]
    assert abs(rho_10) == pytest.approx(0.5 * report.analytic_factor, rel=1e-14)


def test_monte_carlo_at_three_cycles_follows_the_whole_window():
    """65,536 realizations over cycles 3, pooled from four master seeds to
    keep the ensemble small, sit within 3 SE of the whole-window closed
    form; the eta I closed form lies about 7 SE away."""
    h = _hamiltonian(cycles=3)
    reports = [
        decoherence_report(
            _config(10.0, realizations=16384, hamiltonian=h, master_seed=seed)
        )
        for seed in range(4)
    ]
    mc = np.mean([abs(r.mc_factor) for r in reports])
    se = np.sqrt(np.sum([r.mc_standard_error**2 for r in reports])) / 4.0
    assert abs(mc - reports[0].analytic_factor) < 3.0 * se


def test_overlap_integral_zero_angle_and_errors():
    h = _hamiltonian(theta=0.0)
    assert overlap_integral(h, 0.01, (0, 1)) == 0.0
    with pytest.raises(ValueError):
        overlap_integral(h, 0.01, (1, 1))
    with pytest.raises(ValueError):
        overlap_integral(h, 0.0, (0, 1))


def test_overlap_integral_refuses_a_level_outside_the_register():
    # -1 would index the last level, with the bit count of another
    h = _hamiltonian()
    for levels in ((-1, 0), (2, 0)):
        with pytest.raises(ValueError, match=r"level must lie in \[0, 2\)"):
            overlap_integral(h, 0.05, levels)


def test_exact_engine_builds_its_basis_on_the_two_end_points(monkeypatch):
    """The exact engine reads the eigenstates at t = 0 and T only, with the
    bits of the end states of a frame on the whole 201-point grid."""
    cfg = _config(50.0, realizations=8, engine="exact_propagation")
    built = []

    def whole_grid(h, t):
        built.append(list(t))
        frame = eigenframe(h, np.linspace(t[0], t[-1], 201))
        return replace(frame, states=frame.states[:, [0, -1]])

    reference = decoherence_sweep(cfg, [0.0, 50.0])
    monkeypatch.setattr(ensemble, "eigenframe", whole_grid)
    assert decoherence_sweep(cfg, [0.0, 50.0]) == reference
    assert built == [[0.0, 1.0]]  # one basis per sweep


def test_onset_ratio_identity_and_linearity():
    # ratio = 1 exactly when variance_analytic = 4 pi^2
    eta, gamma, overlap, bandwidth = 3, 1.7, 0.42, 2.5
    sigma2 = 16 * np.pi**2 / (eta * gamma**2 * overlap)
    assert np.isclose(variance_analytic(eta, gamma, sigma2, overlap), 4 * np.pi**2)
    ratio = onset_ratio(sigma2 * bandwidth, bandwidth, gamma, eta, overlap)
    assert abs(ratio - 1.0) < 1e-12
    assert np.isclose(
        onset_ratio(2 * sigma2 * bandwidth, bandwidth, gamma, eta, overlap),
        2 * ratio,
    )
    with pytest.raises(ValueError):
        onset_ratio(1.0, 0.0, gamma, eta, overlap)


def test_transverse_magnetization():
    density, gamma_a = run_ensemble(_config(0.0, realizations=4))
    mx, my = transverse_magnetization(density)
    assert abs(np.hypot(mx, my) - 1.0) < 1e-9
    gamma_a_kj = gamma_a[1] - gamma_a[0]
    angle_diff = (np.angle(mx + 1j * my) + gamma_a_kj) % (2 * np.pi)
    assert min(angle_diff, 2 * np.pi - angle_diff) < 1e-9
    # fully dephased
    from gqclab import AveragedDensity

    flat = AveragedDensity(
        matrix=np.diag([0.5, 0.5]).astype(complex),
        standard_errors=np.zeros((2, 2)),
    )
    assert transverse_magnetization(flat) == (0.0, 0.0)
    two_qubit = AveragedDensity(
        matrix=np.eye(4, dtype=complex) / 4,
        standard_errors=np.zeros((4, 4)),
    )
    with pytest.raises(ValueError):
        transverse_magnetization(two_qubit)


def test_averaged_density_analytic_matches_monte_carlo(averaged_density_analytic):
    h = _hamiltonian()
    sigma2 = _sigma2_for_variance(h, 0.05, 2.0)
    cfg = _config(sigma2, realizations=2048)
    analytic = averaged_density_analytic(cfg)
    mc, _ = run_ensemble(cfg)
    assert (
        abs(mc.matrix[0, 1] - analytic.matrix[0, 1])
        < 3 * mc.standard_errors[0, 1]
    )
    assert abs(abs(analytic.matrix[0, 1]) - 0.5 * np.exp(-1.0)) < 1e-6


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("realizations", [3, 4096])
def test_zero_noise_row_equals_the_full_ensemble(every_row, engine, realizations):
    """One propagated row, broadcast, against all rows propagated: the
    entries agree to max(R, 16) eps (a mean of R equal rows has roundoff up
    to ~R eps), and the standard errors stay at their roundoff floor."""
    cfg = _config(0.0, realizations=realizations, engine=engine, amplitudes=(0.6, 0.8j))
    one, gamma_a = run_ensemble(cfg)
    full, full_se, full_gamma_a = every_row(cfg, [(cfg.hamiltonian, 0, 0)])
    eps = np.finfo(float).eps
    assert np.max(np.abs(one.matrix - full)) <= max(realizations, 16) * eps
    for se in (one.standard_errors, full_se):
        assert np.max(se) <= np.sqrt(realizations) * eps
    assert np.array_equal(gamma_a, full_gamma_a)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_row_is_propagated_once(propagated_rows, engine):
    """The exact engine propagates each row, one noise row at sigma^2 = 0;
    the analytic engine reads Gamma_s of the unit path off each row's
    normals once per sweep, and not at all for sigma^2 = 0."""
    exact = engine == "exact_propagation"
    run_ensemble(_config(0.0, realizations=64, engine=engine))
    assert propagated_rows == ([1] if exact else [])
    propagated_rows.clear()
    run_ensemble(_config(3.0, realizations=64, engine=engine))
    assert propagated_rows == [64]
    propagated_rows.clear()
    decoherence_sweep(_config(0.0, realizations=64, engine=engine), [3.0, 0.0, 5.0])
    # the blocks propagate the noisy rows, then the caller the sigma^2 = 0 row
    assert propagated_rows == ([64, 64, 1] if exact else [64])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_sweep_draws_its_normals_once(normal_draws, engine):
    cfg = _config(0.0, realizations=16, master_seed=4, engine=engine)
    reports = decoherence_sweep(cfg, [0.0, 5.0, 20.0])
    assert normal_draws == [(16, (201, 1))]
    # each row is the report of its variance alone, which draws the same
    for sigma2, report in zip([0.0, 5.0, 20.0], reports):
        noise = replace(cfg.noise, variance=sigma2)
        assert report == decoherence_report(replace(cfg, noise=noise))
    assert normal_draws == [(16, (201, 1))] * 3
    normal_draws.clear()
    assert len(decoherence_sweep(cfg, [0.0, 0.0])) == 2
    assert normal_draws == []


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cycles", [1, 4])
def test_a_noisy_report_holds_only_the_normals(peak_bytes, cycles, engine):
    """At the agp geometry and 4,096 realizations, decoherence_report peaks
    within 2 MiB of the normals that MAX_ELEMENTS bounds (1.0-1.7 MiB
    measured): a second path-sized buffer, 6.3 MiB at one cycle and 25 MiB
    at four, would not fit."""
    realizations = 4096
    cfg = _config(
        50.0,
        realizations=realizations,
        engine=engine,
        hamiltonian=_hamiltonian(cycles=cycles),
    )
    normals = realizations * (200 * cycles + 1) * 8
    assert peak_bytes(decoherence_report, cfg) <= normals + 2 * 2**20


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_peak_memory_grows_only_with_the_density(peak_bytes, engine):
    """At sigma^2 = 0 the noise and the engine's state are one row; what
    grows with the realizations is the broadcast density reduction, a few
    2 x 2 complex matrices per realization, below one 201-point noise row."""
    peaks = {
        n: peak_bytes(run_ensemble, _config(0.0, realizations=n, engine=engine))
        for n in (256, 4096)
    }
    per_realization = (peaks[4096] - peaks[256]) / (4096 - 256)
    assert per_realization < 3 * 4 * 16  # 104 bytes measured
    assert per_realization < 201 * 8


def test_zero_noise_row_matches_the_noiseless_propagator(noiseless_propagator):
    """The exact engine's sigma^2 = 0 density against the closed form, at
    the agp-sweep configuration: 4.2e-3 at 200 slices, then O(slices^-2).
    The closed form's 1 - |D| is 9.07e-5; the engine reads 7.85e-5 there."""
    h = _hamiltonian()
    frame = eigenframe(h, [0.0, 1.0])
    c = np.asarray(EQUAL)
    psi0 = frame.states[:, 0].T @ c
    amps = frame.states[:, -1].conj() @ noiseless_propagator(h, 1.0) @ psi0
    rho = np.outer(amps, amps.conj())
    gamma_a = deterministic_phases(h, 1.0)
    reference = c[1] * c[0] * np.exp(-1j * (gamma_a[1] - gamma_a[0]))
    residuals = []
    for substeps in (1, 2, 4):
        cfg = _config(0.0, engine="exact_propagation", substeps=substeps)
        matrix = run_ensemble(cfg)[0].matrix
        residuals.append(np.max(np.abs(matrix - rho)))
        if substeps == 1:
            assert abs(1.0 - abs(matrix[1, 0] / reference) - 7.85e-5) < 1e-7
    assert residuals[0] < 4.5e-3
    ratios = [coarse / fine for coarse, fine in zip(residuals, residuals[1:])]
    assert all(3.8 < r < 4.2 for r in ratios)
    assert abs(1.0 - abs(rho[1, 0] / reference) - 9.07e-5) < 1e-7


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_noise_bounds_count_every_realization(
    monkeypatch, refused_unallocated, engine
):
    """The one-row shortcut is refused wherever the full ensemble would be.
    With the bound at 20,000 elements: 128 paths of 201 points, and for the
    exact engine 64 realizations of 800 slices, although one row fits; 16
    realizations of 800 slices fit and run."""
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 20_000)
    refused_unallocated(run_ensemble, _config(0.0, realizations=128, engine=engine))
    if engine == "exact_propagation":
        cfg = _config(0.0, realizations=64, engine=engine, substeps=4)
        refused_unallocated(run_ensemble, cfg)
        run_ensemble(_config(0.0, realizations=16, engine=engine, substeps=4))


def _weights_case(count, dimension, n):
    """(segments, grid, spec, dt) of one segment or the gate's four, n steps
    each, on the agp geometry at sigma^2 = 1."""
    h = replace(_hamiltonian(), qubit_count=1 if count == 1 else 2)
    segments = [(h, 0, 0)] if count == 1 else _segments(h)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05, dimension=dimension)
    return segments, np.linspace(0.0, 1.0, n + 1), spec, 1.0 / n


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("count", [1, 4])
def test_gamma_s_off_the_normals_is_the_trapezoid_of_the_filtered_path(
    gamma_s_reference, count, dimension
):
    """z . W~ is the trapezoid Gamma_s of every level on the OU path that
    the normals z filter into, over one segment or the gate's four, to
    1e-13 relative."""
    segments, t, spec, dt = _weights_case(count, dimension, 200)
    levels = range(segments[0][0].n_levels)
    z = _ensemble_normals(5, np.empty((16, count * 200 + 1, dimension)))
    want = gamma_s_reference(segments, t, _ou_from_normals(spec, z.copy(), dt), levels)
    got = np.einsum("ntc,tck->nk", z, _normal_weights(segments, t, levels, spec, dt))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("count", [1, 4])
def test_weights_carry_the_ou_covariance(gamma_s_reference, count, dimension):
    """||W~_k - W~_j||^2, the variance of Gamma_s(k) - Gamma_s(j) on
    independent unit normals, is the dense (W_k - W_j)^T C (W_k - W_j) of
    the trapezoid weights W on the path, read off the oracle at each unit
    path, and its covariance C_ij = a^|i-j| per component, to 1e-13."""
    segments, t, spec, dt = _weights_case(count, dimension, 20)
    n_levels = segments[0][0].n_levels
    n_t = count * 20 + 1
    basis = np.eye(n_t * dimension).reshape(-1, n_t, dimension)
    w = gamma_s_reference(segments, t, basis, range(n_levels))  # (n_t dim, levels)
    steps = np.arange(n_t)
    a = np.exp(-dt / spec.correlation_time)
    c = np.kron(a ** np.abs(steps[:, None] - steps[None, :]), np.eye(dimension))
    w_tilde = _normal_weights(segments, t, range(n_levels), spec, dt)
    for k in range(n_levels):
        for j in range(k):
            d = w[:, k] - w[:, j]
            dense = d @ c @ d
            assert dense > 0
            got = np.sum((w_tilde[..., k] - w_tilde[..., j]) ** 2)
            assert abs(got - dense) <= 1e-13 * dense


@pytest.mark.parametrize("n", [200, 400, 800])
def test_the_simulated_variance_exceeds_the_continuum_one(n):
    """The Gamma_s that the analytic engine simulates has variance
    sigma^2 ||W~_1 - W~_0||^2, above the continuum closed form
    gamma^2 sigma^2 I / 4 by about (dt / tau_c)^2 / 12 relative: 8.24e-4,
    2.06e-4 and 5.15e-5 measured at n = 200, 400 and 800 steps, against
    8.33e-4, 2.08e-4 and 5.21e-5."""
    segments, t, spec, dt = _weights_case(1, 1, n)
    w = _normal_weights(segments, t, [0, 1], spec, dt)
    discrete = np.sum((w[..., 1] - w[..., 0]) ** 2)
    overlap = ensemble._segment_overlap(segments, spec.correlation_time, (1, 0), 1)
    excess = discrete / variance_analytic(1, 1.0, 1.0, overlap) - 1.0
    assert excess == pytest.approx((dt / spec.correlation_time) ** 2 / 12, rel=0.02)


def test_the_weights_are_refused_before_a_draw(monkeypatch, normal_draws):
    """A two-qubit analytic run at R = 2 with four nonzero amplitudes
    holds 2 x 201 normals but 201 x 4 weights: with the bound between the
    two, the weights are refused, unallocated, before any normal is drawn."""
    h = replace(_hamiltonian(), qubit_count=2)
    cfg = _config(3.0, realizations=2, hamiltonian=h, amplitudes=(0.5,) * 4)
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2 * 201)
    with pytest.raises(ResourceLimitError, match="stochastic phase weights"):
        run_ensemble(cfg)
    assert normal_draws == []
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 4 * 201)
    run_ensemble(cfg)
    assert normal_draws == [(2, (201, 1))]


@pytest.mark.parametrize("engine", ENGINES)
def test_only_the_exact_engine_filters_the_normals(monkeypatch, engine):
    """Over three blocks of rows, run in this process, the exact engine
    filters each block's normals once and the analytic engine never; the
    reports have the bits of the one-block run."""
    cfg = _config(0.0, realizations=16, engine=engine)
    sweep = [3.0, 0.0, 5.0]
    one_block = decoherence_sweep(cfg, sweep)
    filtered, real = [], ensemble._ou_from_normals

    def serial(work, rows, workers):
        bounds = [rows * k // 3 for k in range(4)]
        return [work(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    monkeypatch.setattr(ensemble, "_run_blocks", serial)
    monkeypatch.setattr(
        ensemble, "_ou_from_normals", lambda *a: filtered.append(len(a[1])) or real(*a)
    )
    assert decoherence_sweep(cfg, sweep) == one_block
    assert filtered == ([5, 5, 6] if engine == "exact_propagation" else [])
