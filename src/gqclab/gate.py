"""Geometric controlled-phase gate driven by a four-segment pulse sequence.

The conditional phase is encoded with the sequence P = P0 P1 P2 P3,
P0 = C pi_1, P1 = Cbar pi_2, P2 = P0, P3 = P1: one full precession cycle
(forward contour C, or its time-reverse Cbar), followed by an instantaneous
ideal pi-pulse on the indicated qubit.  Segment l covers the window
(t0 + l T, t0 + (l+1) T).  The pi-pulses advance the two-qubit level
k = 2 i1 + i2 through the index map

    k_l = k xor _FLIPS[l],   _FLIPS = (00, 10, 11, 01, 00) in binary,

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

from .adiabatic import ControlSchedule, QubitHamiltonian
from .ensemble import (
    EnsembleConfig,
    ONSET_VARIANCE,
    _gamma_a,
    _run_segments,
    decoherence_factor_analytic,
    onset_ratio,
    overlap_integral,
    variance_analytic,
)

__all__ = [
    "PulseSequence",
    "GateResult",
    "level_index_map",
    "bell_gate_run",
    "bell_gate_sweep",
    "gate_onset_ratio",
    "gate_overlap_sum",
    "calibrate_level_cone_angles",
]

#: level indices 2 i1 + i2 of |00> and |11>
BELL_LEVELS = (0b00, 0b11)

#: XOR mask on the level index after the first j segments (pi_1, pi_2, pi_1, pi_2)
_FLIPS = (0b00, 0b10, 0b11, 0b01, 0b00)


def _as_index(level) -> int:
    """Index 2 i1 + i2 of a level given as that index or as bits (i1, i2)."""
    if isinstance(level, (int, np.integer)):
        if 0 <= level < 4:
            return int(level)
    elif len(level) == 2 and all(bit in (0, 1) for bit in level):
        return 2 * int(level[0]) + int(level[1])
    raise ValueError(f"level must be an index in [0, 4) or bits (i1, i2): {level!r}")


def level_index_map(k, j: int) -> tuple:
    """Level (i1, i2) occupied after the first j segments of the pulse sequence."""
    if not 0 <= j <= 4:
        raise ValueError(f"segment step must be in 0..4, got {j}")
    index = _as_index(k) ^ _FLIPS[j]
    return (index >> 1, index & 1)


@dataclass(frozen=True)
class PulseSequence:
    """The gate's segments C pi_1, Cbar pi_2, C pi_1, Cbar pi_2.

    Built from one base contour, kept as one forward cycle.
    ``segments[l]`` is a (ControlSchedule, target) pair: the schedule runs
    one period and the ideal pi-pulse flips the target qubit (1 or 2) at
    the segment boundary.
    """

    contour: ControlSchedule

    def __post_init__(self):
        forward = replace(self.contour, cycles=1, direction="forward")
        object.__setattr__(self, "contour", forward)

    @classmethod
    def standard(cls, schedule: ControlSchedule) -> "PulseSequence":
        """Build C pi_1, Cbar pi_2, C pi_1, Cbar pi_2 from a base contour."""
        return cls(schedule)

    @property
    def segments(self) -> tuple:
        backward = self.contour.reversed()
        return ((self.contour, 1), (backward, 2), (self.contour, 1), (backward, 2))

    @property
    def period(self) -> float:
        return self.contour.period

    @property
    def duration(self) -> float:
        return 4.0 * self.period


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


def _segments(seq: PulseSequence, h: QubitHamiltonian) -> list:
    """The gate's (Hamiltonian, flips, target) segments: each runs its own
    schedule, with the level map's XOR mask, then pulses its target qubit."""
    return [
        (replace(h, schedule=sched), flips, target)
        for (sched, target), flips in zip(seq.segments, _FLIPS)
    ]


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
    ``levels`` are level indices or bit pairs (i1, i2).  The map is one
    XOR per segment, so k_l and j_l differ in every segment unless k = j.
    """
    k, j = (_as_index(level) for level in levels)
    if k == j:
        return 0.0
    return sum(
        overlap_integral(h_seg, correlation_time, (k ^ flips, j ^ flips), dimension)
        for h_seg, flips, _ in _segments(seq, h)
    )


def realized_conditional_phase(seq: PulseSequence, h: QubitHamiltonian) -> float:
    """Conditional phase phi of the noiseless gate, in [0, 2 pi).

    The gate acts as exp(-i Gamma_a(k)) on level k; phi is the part of that
    phase bilinear in the two qubit indices:
    phi = -[Gamma_a(11) - Gamma_a(10) - Gamma_a(01) + Gamma_a(00)].
    """
    gamma_a = _gamma_a(_segments(seq, h), seq.period)
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


def _bell_overlap_limit(
    correlation_time: float, period: float, cone_angle: float
) -> float:
    """Bell-pair overlap sum under rf power noise for tau_c << T:
    32 tau_c T sin^2(theta_0)."""
    if correlation_time <= 0 or period <= 0:
        raise ValueError("correlation_time and period must be > 0")
    return 32.0 * correlation_time * period * np.sin(cone_angle) ** 2


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

    ``onset_ratio`` with the overlap sum at its rf-noise limit
    32 tau_c T sin^2(theta_0), valid for tau_c << T; >= 1 flags loss of
    entanglement.
    """
    overlap = _bell_overlap_limit(correlation_time, period, cone_angle)
    return onset_ratio(power_density, bandwidth, coupling, eta, overlap)


def bell_gate_run(config: EnsembleConfig, seq: PulseSequence) -> GateResult:
    """Run the gate on the Bell state (|00> + |11>)/sqrt(2) under noise.

    The entanglement fidelity is computed two ways: from the Monte Carlo
    averaged density matrix, F = <psi0| rho_avg |psi0>, and from the closed
    form F = 1/2 + (1/2) cos(Gamma_a(k,j)) exp(-Var/2) with the variance
    built from the per-segment overlap sum.  The four segment noise
    increments come from one continuous path spanning 4T.
    """
    return bell_gate_sweep(config, seq, [config.noise.variance])[0]


def bell_gate_sweep(config: EnsembleConfig, seq: PulseSequence, variances) -> list:
    """``bell_gate_run`` of ``config`` at each noise variance of
    ``variances``, one result each, from one draw of the normals; as in
    ``decoherence_sweep``, the rows' Monte Carlo errors are correlated."""
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
    gamma_a, densities = _run_segments(config, _segments(seq, h), variances)
    k, j = BELL_LEVELS
    gamma_a_kj = gamma_a[k] - gamma_a[j]
    reference = 0.5 * np.exp(-1j * gamma_a_kj)
    noise = config.noise
    overlap_sum = gate_overlap_sum(
        seq, h, noise.correlation_time, dimension=noise.dimension
    )
    phi = realized_conditional_phase(seq, h)
    results = []
    for sigma2, density in zip(variances, densities):
        fidelity = float(np.real(bell.conj() @ density.matrix @ bell))
        variance = variance_analytic(1, h.coupling, sigma2, overlap_sum)
        # keep the reported factor strictly positive even when exp underflows
        d_analytic = max(decoherence_factor_analytic(variance), np.finfo(float).tiny)
        fid_closed = 0.5 + 0.5 * float(np.cos(gamma_a_kj)) * d_analytic
        results.append(
            GateResult(
                conditional_phase=phi,
                fidelity=min(max(fidelity, 0.0), 1.0),
                fidelity_standard_error=float(density.standard_errors[k, j]),
                fidelity_closed_form=fid_closed,
                decoherence_factor=d_analytic,
                mc_factor=complex(density.matrix[k, j] / reference),
                onset_ratio=variance / ONSET_VARIANCE,
                analytic_variance=variance,
                overlap_sum=overlap_sum,
            )
        )
    return results
