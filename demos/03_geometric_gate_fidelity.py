"""Fidelity of a geometric conditional-phase gate under control noise.

The gate drives both qubits of a Bell pair around a four-segment
conical contour (forward, reversed, forward, reversed) with a pi-pulse
between segments; the segments come from the gate Hamiltonian's
schedule, so the gate functions take only the Hamiltonian or the
ensemble config that holds it. The spin echo cancels all deterministic dynamical
phase; with per-level cone angles it leaves a pure conditional
geometric phase. Longitudinal field noise does not echo away: the
Bell-state fidelity decays as

    F = 1/2 + cos(Gamma_a) D / 2,   D = exp(-variance / 2),

with variance -> gamma^2 sigma^2 (32 tau_c T_seg sin^2 theta) / 4 in
the limit tau_c << T_seg. The gate is useless (F -> 1/2) once the variance reaches
4 pi^2.
"""

import numpy as np

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    NoiseSpec,
    QubitHamiltonian,
    bell_gate_run,
    calibrate_level_cone_angles,
    gate_overlap_sum,
)
from gqclab.gate import realized_conditional_phase

THETA = np.pi / 3
TAU_C = 0.04
BELL = (1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2))


def main():
    sched = ControlSchedule(magnitude=400.0, cone_angle=THETA, period=1.0)
    h = QubitHamiltonian(coupling=1.0, schedule=sched, qubit_count=2)

    # calibration: choose per-level cone angles realizing a CZ-like phase
    angles = calibrate_level_cone_angles(np.pi / 2, THETA)
    h_cal = QubitHamiltonian(
        coupling=1.0, schedule=sched, qubit_count=2, level_cone_angles=angles
    )
    print(f"calibrated level cone angles: {np.round(angles, 4)}")
    print(f"realized conditional phase:   "
          f"{realized_conditional_phase(h_cal):.6f} (target pi/2)")
    print()

    overlap = gate_overlap_sum(h, TAU_C)
    print(f"Bell overlap sum = {overlap:.5f} "
          f"(tau_c << T limit = {32 * TAU_C * np.sin(THETA)**2:.5f})")
    sigma2_onset = 4 * (4 * np.pi**2) / overlap

    print(f"{'sigma^2':>10} {'variance':>10} {'F MC':>8} {'F exact':>8} "
          f"{'onset':>7}")
    for frac in (0.0, 0.02, 0.1, 0.3, 1.0):
        sigma2 = frac * sigma2_onset
        cfg = EnsembleConfig(
            hamiltonian=h,
            noise=NoiseSpec(variance=sigma2, correlation_time=TAU_C),
            initial_amplitudes=BELL,
            realizations=1024,
            master_seed=3,
            engine="analytic_phase",
        )
        res = bell_gate_run(cfg)
        print(
            f"{sigma2:>10.2f} {res.analytic_variance:>10.3f} "
            f"{res.fidelity:>8.4f} {res.fidelity_closed_form:>8.4f} "
            f"{res.onset_ratio:>7.3f}"
        )
    print()
    print("F drops from 1 to the incoherent floor 1/2 as onset -> 1.")
    print("shell equivalent: gqclab gate-fidelity --config <json> --out t.csv")


if __name__ == "__main__":
    main()
