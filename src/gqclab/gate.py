"""Geometric controlled-phase gate driven by a four-segment pulse sequence.

The conditional phase is encoded with the sequence P = P0 P1 P2 P3,
P0 = C pi_1, P1 = Cbar pi_2, P2 = P0, P3 = P1: one full precession cycle
(forward contour C, or its time-reverse Cbar), followed by an instantaneous
ideal pi-pulse on the indicated qubit.  Segment l covers the window
(t0 + l T, t0 + (l+1) T).  The pi-pulses advance the two-qubit level
through the index map

    k_l = (i1 xor sum_{m=1..l} m mod 2,  i2 xor sum_{m=0..l-1} m mod 2),

which returns every level to itself after the four segments (k_4 = k_0)
while cancelling all dynamical phases (spin-echo style).  What survives is
the geometric part; with level-dependent effective cone angles the four
computational levels acquire different geometric phases, realizing
B(phi)|xy> = e^{i x y phi}|xy> up to single-qubit z-phases and a global
phase.

Accumulated phases per level are sums of per-segment integrals; the
stochastic phase difference of a level pair has variance
(gamma^2 sigma^2 / 4) sum_l I^l_kj with per-segment overlap integrals,
each in exact closed form.  For the Bell pair (00), (11) under rf power
noise the sum tends to 32 tau_c T sin^2(theta_0) in the limit tau_c << T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adiabatic import (
    ControlSchedule,
    PhaseRecord,
    QubitHamiltonian,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
    stochastic_phase_batch,
)
from .ensemble import (
    EnsembleConfig,
    _complex_mean_se,
    _ensemble_noise,
    decoherence_factor_analytic,
    overlap_integral,
    variance_analytic,
)
from .noise import NoisePath

__all__ = [
    "PulseSequence",
    "LevelPath",
    "GateResult",
    "level_index_map",
    "level_path",
    "gate_phases",
    "bell_gate_run",
    "gate_onset_ratio",
    "gate_overlap_sum",
    "calibrate_level_cone_angles",
]

BELL_LEVELS = ((0, 0), (1, 1))


def _as_bits(level) -> tuple:
    if isinstance(level, (int, np.integer)):
        if not 0 <= level < 4:
            raise ValueError(f"level index must be in [0, 4), got {level}")
        return (level >> 1, level & 1)
    i1, i2 = level
    if i1 not in (0, 1) or i2 not in (0, 1):
        raise ValueError(f"level bits must be 0 or 1, got {level}")
    return (int(i1), int(i2))


def _as_index(level) -> int:
    i1, i2 = _as_bits(level)
    return 2 * i1 + i2


def level_index_map(k, j: int) -> tuple:
    """Level occupied after the first j segments of the pulse sequence."""
    if not 0 <= j <= 4:
        raise ValueError(f"segment step must be in 0..4, got {j}")
    i1, i2 = _as_bits(k)
    flip1 = sum(range(1, j + 1)) % 2
    flip2 = sum(range(0, j)) % 2
    return (i1 ^ flip1, i2 ^ flip2)


@dataclass(frozen=True)
class LevelPath:
    """Trajectory of a computational level through the four segments."""

    start_level: tuple
    path: tuple

    def __post_init__(self):
        if self.path[-1] != self.path[0]:
            raise ValueError("pulse sequence must return the level to itself")


def level_path(k) -> LevelPath:
    k = _as_bits(k)
    return LevelPath(start_level=k, path=tuple(level_index_map(k, j) for j in range(5)))


@dataclass(frozen=True)
class PulseSequence:
    """The four (schedule, pi-pulse target) segments of the gate.

    ``segments[l]`` is a (ControlSchedule, target) pair; the schedule runs
    one period and the ideal pi-pulse flips the target qubit (1 or 2) at
    the segment boundary.  Structure is fixed to P0 = C pi_1, P1 = Cbar
    pi_2, P2 = P0, P3 = P1.
    """

    segments: tuple

    def __post_init__(self):
        if len(self.segments) != 4:
            raise ValueError("pulse sequence must have exactly 4 segments")
        directions = [s.direction for s, _ in self.segments]
        targets = [t for _, t in self.segments]
        if directions != ["forward", "reversed", "forward", "reversed"]:
            raise ValueError("segments must alternate contour C, Cbar, C, Cbar")
        if targets != [1, 2, 1, 2]:
            raise ValueError("pi-pulse targets must be qubit 1, 2, 1, 2")
        periods = {s.period for s, _ in self.segments}
        if len(periods) != 1 or any(s.cycles != 1 for s, _ in self.segments):
            raise ValueError("all segments must run one cycle of the same period")

    @classmethod
    def standard(cls, schedule: ControlSchedule) -> "PulseSequence":
        """Build C pi_1, Cbar pi_2, C pi_1, Cbar pi_2 from a base contour."""
        forward = replace(schedule, cycles=1, direction="forward")
        backward = forward.reversed()
        return cls(segments=((forward, 1), (backward, 2), (forward, 1), (backward, 2)))

    @property
    def period(self) -> float:
        return self.segments[0][0].period

    @property
    def duration(self) -> float:
        return 4.0 * self.period

    def windows(self, t0: float = 0.0):
        """Segment windows (t_0 + l T, t_0 + (l+1) T)."""
        T = self.period
        return [(t0 + l * T, t0 + (l + 1) * T) for l in range(4)]


@dataclass(frozen=True)
class GateResult:
    """Outcome of a noisy Bell-state gate run."""

    conditional_phase: float
    fidelity: float
    fidelity_standard_error: float
    fidelity_closed_form: float
    decoherence_factor: float
    mc_factor: complex
    onset_ratio: float
    analytic_variance: float
    overlap_sum: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity out of [0, 1]: {self.fidelity}")
        if not 0.0 < self.decoherence_factor <= 1.0:
            raise ValueError(
                f"decoherence factor out of (0, 1]: {self.decoherence_factor}"
            )


def _segment_hamiltonians(seq: PulseSequence, h: QubitHamiltonian):
    return [replace(h, schedule=sched) for sched, _ in seq.segments]


def _segment_grid(seq: PulseSequence, dt: float) -> tuple[np.ndarray, int]:
    n_seg = int(round(seq.period / dt))
    t_local = np.arange(n_seg + 1) * (seq.period / n_seg)
    return t_local, n_seg


def gate_phases(
    seq: PulseSequence,
    h: QubitHamiltonian,
    noise: NoisePath,
    level,
) -> PhaseRecord:
    """Gamma_a(k) and Gamma_s(k) summed over the four segments.

    Segment l integrates over its own window with its own contour
    direction, with the level advanced by the index map.  The noise path
    must span all four windows.
    """
    if h.qubit_count != 2:
        raise ValueError("the controlled-phase gate needs a two-qubit Hamiltonian")
    if noise.duration < seq.duration * (1 - 1e-9):
        raise ValueError(
            f"noise path covers {noise.duration:g}, need {seq.duration:g}"
        )
    t_local, _ = _segment_grid(seq, noise.dt)
    gamma_s = _gate_gamma_s(seq, h, t_local, noise.samples[None], level)
    gamma_a = _gate_gamma_a(seq, h, t_local[-1] - t_local[0])
    return PhaseRecord(
        gamma_a=float(gamma_a[_as_index(level)]),
        gamma_s=float(gamma_s[0]),
        level_index=_as_index(level),
        realization_seed=noise.seed,
    )


def _gate_gamma_a(seq: PulseSequence, h: QubitHamiltonian, span: float) -> np.ndarray:
    """Deterministic Gamma_a(k) of the four levels, summed over the segments.

    ``span`` is the length of each segment's time grid.
    """
    gamma_a = np.zeros(4)
    for l, h_seg in enumerate(_segment_hamiltonians(seq, h)):
        phases = deterministic_phases(h_seg, span)
        for level in range(4):
            gamma_a[level] += phases[_as_index(level_index_map(level, l))]
    return gamma_a


def _gate_gamma_s(
    seq: PulseSequence,
    h: QubitHamiltonian,
    t_local: np.ndarray,
    samples: np.ndarray,
    level,
) -> np.ndarray:
    """Per-realization Gamma_s for one level over a noise batch spanning 4T."""
    n_seg = t_local.size - 1
    gamma_s = np.zeros(samples.shape[0])
    for l, h_seg in enumerate(_segment_hamiltonians(seq, h)):
        k_l = _as_index(level_index_map(level, l))
        frame = eigenframe(h_seg, t_local)
        window = samples[:, l * n_seg : (l + 1) * n_seg + 1, :]
        gamma_s += stochastic_phase_batch(h_seg, frame, window, k_l)
    return gamma_s


def gate_overlap_sum(
    seq: PulseSequence,
    h: QubitHamiltonian,
    correlation_time: float,
    levels=BELL_LEVELS,
    dimension: int = 1,
) -> float:
    """sum_l I^l_kj with O^l_kj(t) = O_{k_l k_l}(t) - O_{j_l j_l}(t).

    Each segment integral is the exact single-period overlap integral of
    the segment's own Hamiltonian (contour direction and level map).
    """
    k, j = levels
    total = 0.0
    for l, h_seg in enumerate(_segment_hamiltonians(seq, h)):
        k_l = _as_index(level_index_map(k, l))
        j_l = _as_index(level_index_map(j, l))
        if k_l != j_l:
            total += overlap_integral(
                h_seg, correlation_time, (k_l, j_l), dimension
            )
    return total


def realized_conditional_phase(seq: PulseSequence, h: QubitHamiltonian) -> float:
    """Conditional phase phi of the noiseless gate, in [0, 2 pi).

    The gate acts as exp(-i Gamma_a(k)) on level k; phi is the part of that
    phase bilinear in the two qubit indices:
    phi = -[Gamma_a(11) - Gamma_a(10) - Gamma_a(01) + Gamma_a(00)].
    """
    gamma_a = _gate_gamma_a(seq, h, seq.period)
    phi = -(gamma_a[3] - gamma_a[2] - gamma_a[1] + gamma_a[0])
    return float(np.mod(phi, 2.0 * np.pi))


def calibrate_level_cone_angles(phi: float, base_angle: float) -> tuple:
    """Effective cone angles realizing conditional phase ``phi``.

    The realized phase is phi = 8 pi (cos theta_00 - cos theta_11); the
    (0,1) and (1,0) levels never contribute (their two qubits' geometric
    phases cancel), so their angles stay at the base value.  Solves for
    theta_11 keeping theta_00 = base_angle.
    """
    phi = float(np.mod(phi, 2.0 * np.pi))
    target = np.cos(base_angle) - phi / (8.0 * np.pi)
    if not -1.0 <= target <= 1.0:
        raise ValueError(
            f"cannot realize phi = {phi:g} from base angle {base_angle:g}; "
            "cos(theta_11) would leave [-1, 1]"
        )
    theta_11 = float(np.arccos(target))
    return (base_angle, base_angle, base_angle, theta_11)


def gate_onset_ratio(
    power_density: float,
    bandwidth: float,
    coupling: float,
    eta: int,
    correlation_time: float,
    period: float,
    cone_angle: float,
) -> float:
    """Bell-pair onset ratio (2 eta / pi^2)(gamma^2/d_omega)(P/V)(tau_c T sin^2 theta_0).

    Equals the Bell-state phase variance over (2 pi)^2 when the overlap sum
    takes its rf-noise limit 32 tau_c T sin^2(theta_0), valid for
    tau_c << T; >= 1 flags loss of entanglement.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if power_density < 0 or correlation_time <= 0 or period <= 0 or eta < 1:
        raise ValueError("invalid gate onset parameters")
    return (
        2.0
        * eta
        / np.pi**2
        * coupling**2
        / bandwidth
        * power_density
        * correlation_time
        * period
        * np.sin(cone_angle) ** 2
    )


def _bell_exact_amplitudes(
    seq: PulseSequence,
    h: QubitHamiltonian,
    t_local: np.ndarray,
    samples: np.ndarray,
    c: np.ndarray,
    substeps: int,
) -> np.ndarray:
    """Exact segment-by-segment propagation with ideal pi-pulses.

    Both qubits see the same field and noise, so a segment's two-qubit
    propagator is u x u and the amplitude matrix Psi[i1, i2] evolves as
    u Psi u^T.  Psi is kept in the eigenbasis at the segment boundaries
    (azimuth 0), where the ideal pi-pulse swaps the target qubit's aligned
    and anti-aligned levels.  Supported for uniform cone angles only (the
    per-level angles do not define a single Hamiltonian).  Returns
    eigenbasis amplitudes at t_f, shape (n_real, 4).
    """
    if not h.uniform_cone_angles():
        raise ValueError(
            "exact propagation of the gate requires uniform level_cone_angles"
        )
    n_seg = t_local.size - 1
    # columns: the aligned and anti-aligned single-qubit states at azimuth 0
    half = h.schedule.cone_angle / 2.0
    v = np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]])
    psi = np.broadcast_to(c.reshape(2, 2), (samples.shape[0], 2, 2))
    for l, (sched, target) in enumerate(seq.segments):
        one_qubit = replace(h, schedule=sched, qubit_count=1, level_cone_angles=None)
        window = samples[:, l * n_seg : (l + 1) * n_seg + 1, :]
        u = v.T @ evolve_exact_batch(one_qubit, t_local, window, v, n_seg * substeps)
        psi = np.flip(u @ psi @ u.swapaxes(-1, -2), axis=target)
    return psi.reshape(-1, 4)


def bell_gate_run(config: EnsembleConfig, seq: PulseSequence) -> GateResult:
    """Run the gate on the Bell state (|00> + |11>)/sqrt(2) under noise.

    The entanglement fidelity is computed two ways: from the Monte Carlo
    averaged density matrix, F = <psi0| rho_avg |psi0>, and from the closed
    form F = 1/2 + (1/2) cos(Gamma_a(k,j)) exp(-Var/2) with the variance
    built from the per-segment overlap sum.  The four segment noise
    increments come from one continuous path spanning 4T.
    """
    h = config.hamiltonian
    if h.qubit_count != 2:
        raise ValueError("bell_gate_run needs a two-qubit Hamiltonian")
    c = config.amplitudes
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    if not np.allclose(c, bell, atol=1e-12):
        raise ValueError(
            "bell_gate_run is specific to (|00> + |11>)/sqrt(2); use "
            "run_ensemble for general states"
        )
    h.check_adiabatic(
        correlation_time=config.noise.correlation_time,
        ratio_max=config.ratio_max,
        strict=config.strict_adiabatic or config.engine == "analytic_phase",
    )
    t_local, n_seg = _segment_grid(seq, config.dt)
    _, samples = _ensemble_noise(config, seq.duration, seq.period / n_seg)
    gamma_a = _gate_gamma_a(seq, h, t_local[-1] - t_local[0])

    k_idx, j_idx = 0, 3
    gamma_a_kj = gamma_a[k_idx] - gamma_a[j_idx]
    if config.engine == "analytic_phase":
        gs_k = _gate_gamma_s(seq, h, t_local, samples, BELL_LEVELS[0])
        gs_j = _gate_gamma_s(seq, h, t_local, samples, BELL_LEVELS[1])
        phasors = np.exp(-1j * (gamma_a_kj + gs_k - gs_j))
        mc_factor, mc_se = _complex_mean_se(phasors)
        rho_kj = 0.5 * mc_factor
        fidelity = 0.5 + float(rho_kj.real)
        fid_se = 0.5 * float(mc_se)
        mc_factor = complex(mc_factor * np.exp(1j * gamma_a_kj))
        mc_se = float(mc_se)
    else:
        amps = _bell_exact_amplitudes(seq, h, t_local, samples, c, config.substeps)
        outer = amps[:, :, None] * amps[:, None, :].conj()
        matrix, se = _complex_mean_se(outer, axis=0)
        fidelity = float(np.real(bell.conj() @ matrix @ bell))
        fid_se = float(se[k_idx, j_idx])
        reference = 0.5 * np.exp(-1j * gamma_a_kj)
        mc_factor = complex(matrix[k_idx, j_idx] / reference)
        mc_se = float(se[k_idx, j_idx] / abs(reference))

    noise = config.noise
    overlap_sum = gate_overlap_sum(
        seq, h, noise.correlation_time, dimension=noise.dimension
    )
    variance = variance_analytic(1, h.coupling, noise.variance, overlap_sum)
    # keep the reported factor strictly positive even when exp underflows
    d_analytic = max(decoherence_factor_analytic(variance), np.finfo(float).tiny)
    fid_closed = 0.5 + 0.5 * float(np.cos(gamma_a_kj)) * d_analytic
    ratio = variance / (4.0 * np.pi**2)
    return GateResult(
        conditional_phase=realized_conditional_phase(seq, h),
        fidelity=min(max(fidelity, 0.0), 1.0),
        fidelity_standard_error=fid_se,
        fidelity_closed_form=fid_closed,
        decoherence_factor=d_analytic,
        mc_factor=mc_factor,
        onset_ratio=ratio,
        analytic_variance=variance,
        overlap_sum=overlap_sum,
    )
