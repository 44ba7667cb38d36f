"""Acceptance gate: one test per top-level acceptance criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-v``
via the test name) and asserts the criterion at its stated tolerance.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    NoisyAmplitudeModel,
    QubitHamiltonian,
    ShorInstance,
    bell_gate_run,
    decoherence_factor_analytic,
    decoherence_report,
    dft_phase_variance,
    eigenframe,
    euler_phi,
    gate_onset_ratio,
    gate_overlap_sum,
    gqc_onset,
    onset_ratio,
    overlap_integral,
    prob_averaged,
    run_ensemble,
    runtime_scaling,
    success_probability,
    transverse_magnetization,
    variance_analytic,
)
from gqclab.cli import main

ONSET_V = 4 * np.pi**2
EQUAL = (1 / np.sqrt(2), 1 / np.sqrt(2))
BELL = (1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2))


def _qubit(theta=np.pi / 2, magnitude=200.0, period=1.0, cycles=1, **kw):
    sched = ControlSchedule(
        magnitude=magnitude, cone_angle=theta, period=period, cycles=cycles
    )
    return QubitHamiltonian(coupling=1.0, schedule=sched, **kw)


def test_criterion_01_decoherence_factor_law():
    """MC |D| from 4096 exact-propagation realizations matches exp(-v/2)."""
    h = _qubit()
    tau_c = 0.05
    i_kj = overlap_integral(h, tau_c, (1, 0))
    for v in (0.5, 2.0, 8.0):
        sigma2 = 4.0 * v / i_kj
        cfg = EnsembleConfig(
            hamiltonian=h,
            noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
            initial_amplitudes=EQUAL,
            realizations=4096,
            master_seed=12,
            engine="exact_propagation",
        )
        rep = decoherence_report(cfg)
        assert abs(rep.analytic_variance - v) < 1e-9
        assert abs(abs(rep.mc_factor) - np.exp(-v / 2)) < 3 * rep.mc_standard_error
    at_onset = decoherence_factor_analytic(ONSET_V)
    assert abs(at_onset - 2.67e-9) < 0.01e-9  # the paper-scale ~3e-9 number
    print("PASS criterion 1: MC decoherence factor matches exp(-v/2) at "
          "v in {0.5, 2, 8} within 3 SE; analytic factor at 4 pi^2 is 2.67e-9")


def test_criterion_02_overlap_integrals(numeric_overlap, numeric_gate_overlap):
    """Exact and numerical overlap integrals reproduce the rf-noise limits."""
    period = 1.0
    tau_c = period / 200.0
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2):
        h = _qubit(theta=theta)
        expected = 4 * tau_c * period * np.sin(theta) ** 2
        for val in (
            overlap_integral(h, tau_c, (1, 0)),
            numeric_overlap(h, tau_c, steps=32_768),
        ):
            assert abs(val - expected) < 0.05 * expected
        # Bell-state four-segment sum
        h2 = _qubit(theta=theta, qubit_count=2)
        bell_expected = 32 * tau_c * period * np.sin(theta) ** 2
        for total in (
            gate_overlap_sum(h2, tau_c),
            numeric_gate_overlap(h2, tau_c),
        ):
            assert abs(total - bell_expected) < 0.05 * bell_expected
    print("PASS criterion 2: I_{+-} within 5% of 4 tau_c T sin^2(theta) and "
          "Bell sum within 5% of 32 tau_c T sin^2(theta) at tau_c = T/200")


def test_criterion_03_agp_dephasing(averaged_density_analytic):
    """Transverse magnetization: full signal noiselessly, none at onset."""
    h = _qubit()
    tau_c = 0.05
    noiseless = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=tau_c),
        initial_amplitudes=EQUAL,
        realizations=2,
    )
    rho0 = averaged_density_analytic(noiseless)
    mx, my = transverse_magnetization(rho0)
    assert abs(np.hypot(mx, my) - 1.0) < 1e-3
    # the signal phase carries -Gamma_a(+,-)
    frame = eigenframe(h, np.linspace(0.0, 1.0, 8193))
    gamma_a = np.trapezoid(frame.energies - frame.berry_rates, frame.times, axis=-1)
    wrap = (np.angle(mx + 1j * my) + (gamma_a[1] - gamma_a[0])) % (2 * np.pi)
    assert min(wrap, 2 * np.pi - wrap) < 1e-6
    # at onset_ratio >= 1 the magnetization is unobservable
    i_kj = overlap_integral(h, tau_c, (1, 0))
    sigma2 = 4.0 * ONSET_V / i_kj
    assert (
        onset_ratio(sigma2 * 1.0, 1.0, h.coupling, 1, i_kj) >= 1.0 - 1e-9
    )
    dephased = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
        initial_amplitudes=EQUAL,
        realizations=2,
    )
    mx1, my1 = transverse_magnetization(averaged_density_analytic(dephased))
    assert np.hypot(mx1, my1) <= 1e-6
    print("PASS criterion 3: noiseless transverse magnetization = 1 carrying "
          "-Gamma_a; magnitude <= 1e-6 at onset ratio >= 1")


def test_criterion_04_geometric_phase():
    """Loop-integrated Berry phase equals +/- pi (1 - cos theta) to 1e-6."""
    t = np.linspace(0.0, 1.0, 20_001)
    for theta in (0.3, np.pi / 6, 1.0, np.pi / 3, 2.2):
        frame = eigenframe(_qubit(theta=theta), t)
        expected = np.pi * (1.0 - np.cos(theta))
        for level, sign in ((0, -1.0), (1, +1.0)):
            # finite-difference loop oracle: overlap-product phase
            ov = np.einsum(
                "ti,ti->t",
                frame.states[level, :-1].conj(),
                frame.states[level, 1:],
            )
            loop = -np.angle(np.prod(ov) * np.vdot(frame.states[level, -1],
                                                   frame.states[level, 0]))
            wrap = (loop - sign * expected + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrap) < 1e-6
            integral = np.trapezoid(frame.berry_rates[level], t)
            assert abs(integral - sign * expected) < 1e-6
    print("PASS criterion 4: loop Berry phase matches +/- pi (1 - cos theta) "
          "to 1e-6 for five cone angles")


def test_criterion_05_gate_fidelity():
    """Bell fidelity: density-matrix estimate vs closed form across a sweep."""
    h = _qubit(theta=np.pi / 3, magnitude=400.0, qubit_count=2)
    tau_c = 0.04

    def config(sigma2, realizations, engine):
        return EnsembleConfig(
            hamiltonian=h,
            noise=NoiseSpec(variance=sigma2, correlation_time=tau_c),
            initial_amplitudes=BELL,
            realizations=realizations,
            master_seed=31,
            engine=engine,
        )

    for sigma2 in (5.0, 20.0, 80.0):
        res = bell_gate_run(config(sigma2, 4096, "analytic_phase"))
        assert (
            abs(res.fidelity - res.fidelity_closed_form)
            < 3 * res.fidelity_standard_error
        )
    # exact propagation agrees too (density-matrix route)
    res_e = bell_gate_run(config(20.0, 512, "exact_propagation"))
    assert (
        abs(res_e.fidelity - res_e.fidelity_closed_form)
        < 3 * res_e.fidelity_standard_error
    )
    # strong noise: F -> 1/2 within 0.02 at variance >= 4 pi^2
    overlap = gate_overlap_sum(h, tau_c)
    sigma2 = 4.0 * ONSET_V / overlap
    res_s = bell_gate_run(config(sigma2, 4096, "analytic_phase"))
    assert res_s.analytic_variance >= ONSET_V - 1e-6
    assert abs(res_s.fidelity - 0.5) < 0.02
    print("PASS criterion 5: Bell fidelity matches 1/2 + cos(Gamma_a) D/2 "
          "within 3 SE across the sweep; F = 1/2 +- 0.02 at variance >= 4 pi^2")


def test_criterion_06_noisy_shor_exact():
    """v = 0 probabilities equal the exhaustive DFT oracle; normalization."""
    for n, y in ((15, 7), (21, 2)):
        inst = ShorInstance.build(n, y)
        q, r = inst.register_size, inst.period
        psi = np.zeros(q, dtype=complex)
        psi[np.arange(inst.path_count) * r + inst.offset] = (
            1.0 / np.sqrt(inst.path_count)
        )
        oracle = np.abs(np.fft.fft(psi) / np.sqrt(q)) ** 2
        model0 = NoisyAmplitudeModel(instance=inst, path_phase_variance=0.0)
        p0 = prob_averaged(model0, np.arange(q))
        assert np.max(np.abs(p0 - oracle)) < 1e-12
        report = success_probability(model0)
        oracle_suc = sum(oracle[c] for c in report.success_outcomes)
        assert abs(report.success_probability - oracle_suc) < 1e-12
        for v in (0.0, 0.5, 2.0, 8.0, ONSET_V):
            model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
            assert abs(prob_averaged(model, np.arange(q)).sum() - 1.0) < 1e-9
    print("PASS criterion 6: N = 15 and N = 21 noiseless distributions match "
          "the exhaustive DFT oracle to 1e-12; sum_c P(c) = 1 within 1e-9")


def test_criterion_07_noisy_shor_mc(amplitude_mc):
    """Mean |f(c)|^2 over 1e5 samples matches the closed form per c."""
    inst = ShorInstance.build(15, 7)
    c_values = np.arange(inst.register_size)
    for v in (0.5, 2.0):
        model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
        mean, se = amplitude_mc(model, c_values, n_samples=100_000, master_seed=6)
        p = prob_averaged(model, c_values)
        assert np.all(se > 0)
        assert np.all(np.abs(mean - p) < 3 * se)
    print("PASS criterion 7: 1e5-sample MC mean |f(c)|^2 matches the "
          "noise-averaged closed form within 3 SE for every c at v in {0.5, 2}")


def test_criterion_08_efficiency_destruction():
    """Decohered success probability collapses to phi(r)/q per instance."""
    pairs = [(15, 7), (21, 2), (33, 2), (51, 2)]
    instances = [ShorInstance.build(n, y) for n, y in pairs]
    rows = runtime_scaling(instances, [ONSET_V] * len(instances))
    for row, inst in zip(rows, instances):
        target = euler_phi(inst.period) / inst.register_size
        assert abs(row["success_probability"] - target) < 0.10 * target
        assert abs(row["runs_needed"] * target - 1.0) < 0.10
        assert row["regime"] == "decohered"
    # runs_needed ~ q / phi(r) = O(N^2 / phi(r)): exponential in log N
    runs = [row["runs_needed"] for row in rows]
    assert runs[-1] > runs[0]
    print("PASS criterion 8: decohered P_suc within 10% of phi(r)/q and "
          "runs_needed * phi(r)/q = 1 +- 10% for N in {15, 21, 33, 51}")


def test_criterion_09_onset_identities():
    """All three onset conditions equal 1 exactly at variance 4 pi^2."""
    # single-qubit condition
    eta, gamma, overlap, bw = 5, 1.7, 0.42, 2.5
    sigma2 = 4.0 * ONSET_V / (eta * gamma**2 * overlap)
    assert abs(variance_analytic(eta, gamma, sigma2, overlap) - ONSET_V) < 1e-12
    assert abs(onset_ratio(sigma2 * bw, bw, gamma, eta, overlap) - 1.0) < 1e-12
    # gate condition with the Bell overlap sum 32 tau_c T sin^2
    tau_c, period, theta = 0.01, 2.0, 1.0
    i_bell = 32 * tau_c * period * np.sin(theta) ** 2
    sigma2 = 4.0 * ONSET_V / (gamma**2 * i_bell)
    assert (
        abs(gate_onset_ratio(sigma2 * bw, bw, gamma, 1, tau_c, period, theta) - 1.0)
        < 1e-12
    )
    # full-DFT condition
    bits = 8
    v = dft_phase_variance(bits, gamma, sigma2, tau_c, period, theta)
    scale = ONSET_V / v
    assert (
        abs(
            gqc_onset(
                sigma2 * scale * bw, bw, tau_c, period, bits, gamma, theta
            )
            - 1.0
        )
        < 1e-12
    )
    print("PASS criterion 9: single-qubit, gate, and DFT onset ratios all "
          "equal 1 to 1e-12 when the matching variance is 4 pi^2")


def test_criterion_10_determinism(tmp_path):
    """Re-running from a manifest reproduces outputs bit-exactly."""
    raw = {
        "experiment": "gate-fidelity",
        "coupling": 1.0,
        "magnitude": 400.0,
        "cone_angle": np.pi / 3,
        "period": 1.0,
        "correlation_time": 0.04,
        "sigma2": [0.0, 30.0],
        "realizations": 256,
        "master_seed": 5,
    }
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(raw))
    out1 = str(tmp_path / "run1.csv")
    assert main(["gate-fidelity", "--config", str(cfg_path), "--out", out1]) == 0
    # rerun from the manifest with a different thread setting
    out2 = str(tmp_path / "run2.csv")
    assert main(
        [
            "gate-fidelity",
            "--config",
            out1 + ".manifest.json",
            "--out",
            out2,
            "--threads",
            "7",
        ]
    ) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    # the library path is bit-deterministic as well
    h = _qubit()
    cfg = EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=3.0, correlation_time=0.05),
        initial_amplitudes=EQUAL,
        realizations=256,
        master_seed=8,
    )
    d1, _ = run_ensemble(cfg)
    d2, _ = run_ensemble(cfg)
    assert np.array_equal(d1.matrix, d2.matrix)
    print("PASS criterion 10: manifest re-run reproduces the output table "
          "bit-exactly, independent of thread count")
