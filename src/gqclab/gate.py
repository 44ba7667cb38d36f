"""Geometric controlled-phase gate driven by a four-segment pulse sequence.

The conditional phase is encoded with the sequence P = P0 P1 P2 P3,
P0 = C pi_1, P1 = Cbar pi_2, P2 = P0, P3 = P1: one cycle of the gate
Hamiltonian's contour (forward C, or its time-reverse Cbar), followed by
an instantaneous ideal pi-pulse on the indicated qubit.  Segment l covers
the window (t0 + l T, t0 + (l+1) T).  The pi-pulses advance the two-qubit
level k = 2 i1 + i2 through the index map

    k_l = k xor _FLIPS[l],   _FLIPS = (00, 10, 11, 01, 00) in binary,

which returns every level to itself after the four segments (k_4 = k_0)
while cancelling all dynamical phases (spin-echo style).  What survives is
the geometric part; with level-dependent effective cone angles the four
computational levels acquire different geometric phases, realizing
B(phi)|xy> = e^{i x y phi}|xy> up to single-qubit z-phases and a global
phase.

Accumulated phases per level are sums of per-segment integrals; one noise
path spans the four segments, so a level pair's stochastic phase variance
is (gamma^2 sigma^2 / 4) I_kj, I_kj exact over the whole window 4T with the
covariance between segments.  The gate's one pair is the Bell pair (00),
(11) (``gate_overlap_sum``); under rf power noise its I tends to
32 tau_c T sin^2(theta_0) in the limit tau_c << T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adiabatic import QubitHamiltonian
from .ensemble import (
    EnsembleConfig,
    ONSET_VARIANCE,
    _gamma_a,
    _run_segments,
    _segment_overlap,
    decoherence_factor_analytic,
    onset_ratio,
    variance_analytic,
)
from .errors import _check_real

__all__ = [
    "GateResult",
    "bell_gate_run",
    "bell_gate_sweep",
    "gate_onset_ratio",
    "gate_overlap_sum",
    "calibrate_level_cone_angles",
]

#: level indices 2 i1 + i2 of |00> and |11>
BELL_LEVELS = (0b00, 0b11)

#: the gate's one input state (|00> + |11>)/sqrt(2), amplitudes c_k by level
BELL_STATE = (1.0 / np.sqrt(2.0), 0.0, 0.0, 1.0 / np.sqrt(2.0))

#: XOR mask on the level index after the first j segments (pi_1, pi_2, pi_1, pi_2)
_FLIPS = (0b00, 0b10, 0b11, 0b01, 0b00)


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

    def __post_init__(self):
        _check_real(self.fidelity, "fidelity", 0, 1 + 1e-9)
        _check_real(self.decoherence_factor, "decoherence_factor", 0, 1, strict=True)


def _segments(h: QubitHamiltonian) -> list:
    """The gate's (Hamiltonian, flips, target) segments C pi_1, Cbar pi_2,
    C pi_1, Cbar pi_2: one forward cycle of ``h``'s contour, then its
    reverse, twice, each with the level map's XOR mask and its pulse's
    target qubit.  ``h``'s own cycles and direction do not matter."""
    if h.qubit_count != 2:
        raise ValueError("the gate needs a two-qubit Hamiltonian")
    contour = replace(h.schedule, cycles=1, direction="forward")
    c, c_bar = replace(h, schedule=contour), replace(h, schedule=contour.reversed())
    return list(zip((c, c_bar) * 2, _FLIPS[:4], (1, 2, 1, 2)))


def gate_overlap_sum(
    h: QubitHamiltonian, correlation_time: float, dimension: int = 1
) -> float:
    """Exact Bell-pair I_kj over the gate's window 4T, (k, j) = BELL_LEVELS,
    O^l_kj = O_{k_l k_l} - O_{j_l j_l} in segment l: ``_segment_overlap``
    of its four segments, covariance between them included.  The map is one
    XOR per segment, so k_l and j_l differ in every segment.
    """
    return _segment_overlap(_segments(h), correlation_time, BELL_LEVELS, dimension)


def realized_conditional_phase(h: QubitHamiltonian) -> float:
    """Conditional phase phi of the noiseless gate, in [0, 2 pi).

    The gate acts as exp(-i Gamma_a(k)) on level k; phi is the part of that
    phase bilinear in the two qubit indices:
    phi = -[Gamma_a(11) - Gamma_a(10) - Gamma_a(01) + Gamma_a(00)].
    """
    gamma_a = _gamma_a(_segments(h), h.schedule.period)
    phi = -(gamma_a[3] - gamma_a[2] - gamma_a[1] + gamma_a[0])
    return float(np.mod(phi, 2.0 * np.pi))


def calibrate_level_cone_angles(phi: float, base_angle: float) -> tuple:
    """Effective cone angles realizing conditional phase ``phi``.

    The realized phase is phi = 8 pi (cos theta_00 - cos theta_11); the
    (0,1) and (1,0) levels never contribute (their two qubits' geometric
    phases cancel), so their angles stay at the base value.  Solves for
    theta_11 keeping theta_00 = base_angle.
    """
    _check_real(phi, "phi")
    _check_real(base_angle, "base_angle", 0, np.pi)
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
    _check_real(correlation_time, "correlation_time", 0, strict=True)
    _check_real(period, "period", 0, strict=True)
    _check_real(cone_angle, "cone_angle", 0, np.pi)
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


def bell_gate_run(config: EnsembleConfig) -> GateResult:
    """Run the gate on the Bell state (|00> + |11>)/sqrt(2) under noise.

    The four segments are those of ``config.hamiltonian`` (``_segments``),
    so the adiabaticity check, the grid and the segments read one schedule.
    The entanglement fidelity is computed two ways: from the Monte Carlo
    averaged density matrix, F = <psi0| rho_avg |psi0>, and from the closed
    form F = 1/2 + (1/2) cos(Gamma_a(k,j)) exp(-Var/2) with the variance
    built from ``gate_overlap_sum``.  The four segment noise increments
    come from one continuous path spanning 4T.
    """
    return bell_gate_sweep(config, [config.noise.variance])[0]


def bell_gate_sweep(config: EnsembleConfig, variances) -> list:
    """``bell_gate_run`` of ``config`` at each noise variance of
    ``variances``, one result each, from one draw of the normals; as in
    ``decoherence_sweep``, the rows' Monte Carlo errors are correlated."""
    h = config.hamiltonian
    segments = _segments(h)
    c = config.amplitudes
    bell = np.asarray(BELL_STATE, dtype=complex)
    if not np.allclose(c, bell, atol=1e-12):
        raise ValueError(
            "initial_amplitudes must be the Bell state (|00> + |11>)/sqrt(2), "
            "gate.BELL_STATE"
        )
    gamma_a, densities = _run_segments(config, segments, variances)
    k, j = BELL_LEVELS
    gamma_a_kj = gamma_a[k] - gamma_a[j]
    reference = 0.5 * np.exp(-1j * gamma_a_kj)
    noise = config.noise
    overlap_sum = gate_overlap_sum(h, noise.correlation_time, dimension=noise.dimension)
    phi = realized_conditional_phase(h)
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
            )
        )
    return results
