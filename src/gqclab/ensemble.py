"""Monte Carlo ensembles over noise realizations and their closed forms.

The noise-averaged density matrix of a driven qubit register is

    rho_kj(t_f) = c_k c_j* exp[-i Gamma_a(k,j)] D(k,j),

with Gamma_a(k,j) = Gamma_a(k) - Gamma_a(j) and decoherence factor
D(k,j) = < exp[-i (Gamma_s(k) - Gamma_s(j))] >.  For Gaussian stationary
noise the accumulated stochastic phase difference is Gaussian with zero
mean and variance

    Var = (eta gamma^2 sigma^2 / 4) I_kj,
    I_kj = int_0^T int_0^T O_kj(t) . O_kj(t') f(t - t') dt dt',

so D(k,j) = exp(-Var / 2).  This module estimates D by brute-force Monte
Carlo (either exact propagation or the analytic adiabatic phases) and
evaluates the closed forms, including the onset-of-decoherence ratio
(phase spread ~ 2 pi) expressed through the absorbed noise power
P/V = sigma^2 * d_omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adiabatic import (
    QubitHamiltonian,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
    stochastic_phase_batch,
)
from .errors import _check_elements
from .noise import (
    RESOLUTION_FACTOR,
    NoiseSpec,
    _ensemble_normals,
    _noise_grid,
    _segment_noise,
)

__all__ = [
    "EnsembleConfig",
    "AveragedDensity",
    "DecoherenceReport",
    "run_ensemble",
    "averaged_density_analytic",
    "decoherence_factor_analytic",
    "variance_analytic",
    "overlap_integral",
    "onset_ratio",
    "transverse_magnetization",
    "decoherence_report",
    "decoherence_sweep",
]

ENGINES = ("exact_propagation", "analytic_phase")

#: phase variance (2 pi)^2 at which decoherence sets in, for every onset test
ONSET_VARIANCE = 4.0 * np.pi**2


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything needed to reproduce one Monte Carlo ensemble bit-exactly.

    initial_amplitudes  complex c_k per level (must be normalized)
    engine              'exact_propagation' multiplies exact per-slice
                        propagators; 'analytic_phase' uses the adiabatic
                        closed-form phases along each noise path
    noise_dt            noise grid step (default tau_c / 10)
    substeps            propagation slices per noise step (exact engine)
    """

    hamiltonian: QubitHamiltonian
    noise: NoiseSpec
    initial_amplitudes: Sequence[complex]
    realizations: int = 4096
    master_seed: int = 0
    engine: str = "exact_propagation"
    noise_dt: Optional[float] = None
    substeps: int = 1
    strict_adiabatic: bool = False

    def __post_init__(self):
        c = np.asarray(self.initial_amplitudes, dtype=complex)
        if c.shape != (self.hamiltonian.n_levels,):
            raise ValueError(
                f"initial_amplitudes must have {self.hamiltonian.n_levels} entries"
            )
        if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-12:
            raise ValueError("initial_amplitudes must satisfy sum |c_k|^2 = 1")
        if self.realizations < 2:
            raise ValueError("realizations must be >= 2")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        object.__setattr__(self, "initial_amplitudes", tuple(c.tolist()))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.asarray(self.initial_amplitudes, dtype=complex)

    @property
    def dt(self) -> float:
        if self.noise_dt is not None:
            return self.noise_dt
        return self.noise.correlation_time / RESOLUTION_FACTOR

    def check_adiabatic(self) -> dict:
        """Check the Hamiltonian against the adiabaticity bound.

        Strict when ``strict_adiabatic`` is set, and always strict for the
        analytic engine, whose phases hold only in the adiabatic limit.
        """
        return self.hamiltonian.check_adiabatic(
            correlation_time=self.noise.correlation_time,
            strict=self.strict_adiabatic or self.engine == "analytic_phase",
        )


@dataclass(frozen=True)
class AveragedDensity:
    """Noise-averaged density matrix in the instantaneous eigenbasis at t_f.

    ``standard_errors[k, j]`` is the Monte Carlo standard error of the
    complex entry (real and imaginary scatter combined in quadrature).
    """

    matrix: np.ndarray
    standard_errors: np.ndarray
    realizations_used: int


@dataclass(frozen=True)
class DecoherenceReport:
    """Monte Carlo estimate vs closed form for one level pair."""

    levels: tuple
    mc_factor: complex
    mc_standard_error: float
    analytic_variance: float
    analytic_factor: float
    onset_ratio: float
    overlap: float


def _grid_steps(duration: float, dt: float) -> int:
    """Steps of a grid ending at ``duration``, none coarser than ``dt``; a
    count above MAX_ELEMENTS, or an infinite one, is refused."""
    steps = duration / dt * (1.0 - 1e-12)  # T / dt = n + ulp stays n
    _check_elements((steps,), "time grid")
    return math.ceil(steps)


def _averaged_density(amps: np.ndarray, realizations: int):
    """Mean of the outer products of amps (rows, n) broadcast to ``realizations``
    rows, and its standard error, real and imaginary scatter in quadrature."""
    amps = np.broadcast_to(amps, (realizations, amps.shape[1]))
    rho = amps[:, :, None] * amps[:, None, :].conj()
    se = np.sqrt(
        np.var(rho.real, axis=0, ddof=1) + np.var(rho.imag, axis=0, ddof=1)
    ) / np.sqrt(rho.shape[0])
    return np.mean(rho, axis=0), se


def _gamma_a(segments, span: float) -> np.ndarray:
    """Deterministic Gamma_a(k) of every level, summed over the segments,
    each ``span`` long; level k sits on level k ^ flips during a segment."""
    levels = np.arange(segments[0][0].n_levels)
    gamma_a = np.zeros(levels.size)
    for h, flips, _ in segments:
        gamma_a += deterministic_phases(h, span)[levels ^ flips]
    return gamma_a


def _gamma_s(segments, t: np.ndarray, windows, levels) -> np.ndarray:
    """Gamma_s (rows, n_levels) of ``levels`` along the noise ``windows``,
    one per segment on the grid ``t``; one eigenframe per distinct segment
    Hamiltonian.  The other columns stay 0."""
    frames = {}
    gamma_s = 0.0
    for (h, flips, _), window in zip(segments, windows):
        if h not in frames:
            frames[h] = eigenframe(h, t)
        phases = np.zeros((window.shape[0], h.n_levels))
        for k in levels:
            phases[:, k] = stochastic_phase_batch(h, frames[h], window, k ^ flips)
        gamma_s = gamma_s + phases
    return gamma_s


def _exact_amplitudes(segments, t, windows, c, slices: int) -> np.ndarray:
    """Eigenbasis amplitudes (rows, n_levels) at t_f by exact propagation
    through the noise ``windows``, one per segment, in ``slices`` slices
    per segment.

    One qubit (one segment) propagates its lab-frame state, entering and
    leaving through the eigenframe's first and last states.  Two qubits see
    the same field and noise, so a segment's propagator is u x u and the
    amplitude matrix Psi[i1, i2] evolves as u Psi u^T.  Psi is kept in the
    eigenbasis at the segment boundaries (azimuth 0), where the ideal
    pi-pulse swaps the target qubit's aligned and anti-aligned levels.  Two
    qubits need uniform cone angles: per-level angles do not define a
    single Hamiltonian.
    """
    h = segments[0][0]
    if h.qubit_count == 1:
        frame = eigenframe(h, t)
        psi0 = frame.states[:, 0, :].T @ c  # lab-frame initial state
        [samples] = windows
        psi_f = evolve_exact_batch(h, t, samples, psi0, slices)
        return psi_f @ frame.states[:, -1, :].conj().T
    if not h.uniform_cone_angles():
        raise ValueError(
            "exact two-qubit propagation requires uniform level_cone_angles"
        )
    # columns: the aligned and anti-aligned single-qubit states at azimuth 0
    half = h.schedule.cone_angle / 2.0
    v = np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]])
    psi = c.reshape(2, 2)
    for (h_seg, _, target), window in zip(segments, windows):
        one_qubit = replace(h_seg, qubit_count=1, level_cone_angles=None)
        u = v.T @ evolve_exact_batch(one_qubit, t, window, v, slices)
        psi = u @ psi @ u.swapaxes(-1, -2)
        if target:
            psi = np.flip(psi, axis=target)
    return psi.reshape(-1, 4)


def _run_segments(config: EnsembleConfig, segments, variances):
    """``run_ensemble`` over ``segments`` run back to back, at each noise
    variance of ``variances`` in place of the configured one.

    Returns (gamma_a, densities), one density per variance.  Each segment
    is (Hamiltonian, flips, target): level k sits on level k ^ flips during
    it, and an ideal pi-pulse flips qubit ``target`` at its end (0: no
    pulse).  Every segment lasts its schedule's duration on one grid of
    steps no coarser than ``config.dt``, and one noise path spans them all.
    The variances, the seed, the grid and both element bounds are checked
    for every configured realization before anything is allocated.  The
    path's normals are drawn once, if any variance is nonzero, and every
    noisy variance filters its path from them one segment at a time into
    one window: the rows share their realizations' normals, as rows of one
    master seed always do.
    """
    specs = [replace(config.noise, variance=v) for v in variances]
    config.check_adiabatic()
    span = segments[0][0].schedule.duration
    n = _grid_steps(span, config.dt)
    rows, dim, count = config.realizations, config.noise.dimension, len(segments)
    dt = span / n
    n_t = _noise_grid(config.noise, count * span, dt, config.master_seed, rows)
    _check_elements((rows, n_t, dim), "noise ensemble")
    slices = n * config.substeps
    exact = config.engine == "exact_propagation"
    if exact:
        _check_elements((rows, slices, dim), "exact propagation")
    t = np.linspace(0.0, span, n + 1)
    normals = window = None
    if any(spec.variance for spec in specs):
        normals = _ensemble_normals(config.master_seed, rows, (n_t, dim))
        window = np.empty((rows, n + 1, dim))
    gamma_a = _gamma_a(segments, span)
    c = config.amplitudes
    densities = []
    for spec in specs:
        windows = _segment_noise(spec, normals, window, n, count, dt)
        if exact:
            amps = _exact_amplitudes(segments, t, windows, c, slices)
        else:
            gamma_s = _gamma_s(segments, t, windows, np.flatnonzero(c))
            amps = c * np.exp(-1j * (gamma_a + gamma_s))
        matrix, se = _averaged_density(amps, rows)
        densities.append(AveragedDensity(matrix, se, realizations_used=rows))
    return gamma_a, densities


def run_ensemble(config: EnsembleConfig):
    """Average rho(t_f; k) over noise realizations.

    Returns ``(AveragedDensity, gamma_a)``: the averaged density matrix
    with its standard errors, and the deterministic phases Gamma_a of shape
    (n_levels,).  Results depend only on the configuration: realization i
    always draws from ``noise.realization_rng(master_seed, i)``, and the
    density is a plain ``np.mean`` of the per-realization outer products
    along axis 0.
    """
    segment = (config.hamiltonian, 0, 0)
    gamma_a, [density] = _run_segments(config, [segment], [config.noise.variance])
    return density, gamma_a


def decoherence_factor_analytic(variance: float) -> float:
    """Gaussian decoherence factor exp(-variance / 2)."""
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    return float(np.exp(-variance / 2.0))


def variance_analytic(
    eta: int, coupling: float, sigma2: float, overlap: float
) -> float:
    """Phase variance after eta control cycles: eta gamma^2 sigma^2 I / 4."""
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if coupling < 0 or sigma2 < 0 or overlap < 0:
        raise ValueError("coupling, sigma2 and overlap must be >= 0")
    return eta * coupling**2 * sigma2 * overlap / 4.0


def _window_integral(s: np.ndarray, period: float) -> np.ndarray:
    """E(s) = int_0^T e^{s t} dt = (e^{sT} - 1) / s, and T at s = 0."""
    nonzero = np.where(s == 0, 1.0, s)
    return np.where(s == 0, period, np.expm1(s * period) / nonzero)


def _kernel_gram(correlation_time: float, period: float) -> np.ndarray:
    """int_0^T int_0^T f_p(t) f_q(t') exp(-|t - t'|/tau_c) dt dt'.

    f = (1, cos wt, sin wt) with w = 2 pi / T.  With the exponentials
    e^{i a t}, a in (-w, 0, w), the double integral is
    K(a, b) = [E(i(a+b)) - E(ia - lam)]/(lam + ib)
            + [E(i(a+b)) - E(ib - lam)]/(lam + ia),   lam = 1/tau_c,
    from splitting the square at t = t'; the rows of ``w`` write
    (1, cos, sin) in that exponential basis.
    """
    lam = 1.0 / correlation_time
    alpha = 2j * np.pi / period * np.array([-1.0, 0.0, 1.0])
    a, b = alpha[:, None], alpha[None, :]
    both = _window_integral(a + b, period)
    k = (both - _window_integral(a - lam, period)) / (lam + b) + (
        both - _window_integral(b - lam, period)
    ) / (lam + a)
    w = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5j, 0.0, -0.5j]])
    return np.real(w @ k @ w.T)


def overlap_integral(
    h: QubitHamiltonian,
    correlation_time: float,
    levels: tuple,
    dimension: int = 1,
) -> float:
    """Exact I_kj over one control period T for the kernel exp(-|tau|/tau_c).

    On a precessing schedule every noise component of
    O_kj(t) = <E_k|O|E_k> - <E_j|O|E_j> is a + b cos(wt) + c sin(wt),
    read off the eigenframe at t = 0, T/4 and T/2, so
    I_kj = sum_c v_c^T G v_c with v_c = (a, b, c) and G the kernel's Gram
    matrix of (1, cos, sin) on [0, T] (Kubo's line-shape integral with a
    modulated integrand).  The finite-window terms in exp(-T/tau_c) are
    kept: this is not the tau_c << T limit.
    """
    k, j = levels
    if k == j:
        raise ValueError("levels k and j must differ (I_kk is trivially zero)")
    if correlation_time <= 0:
        raise ValueError(f"correlation_time must be > 0, got {correlation_time}")
    period = h.schedule.period
    ops = h.noise_operators(dimension)
    exp = eigenframe(h, period * np.array([0.0, 0.25, 0.5])).operator_expectations(ops)
    g0, g1, g2 = np.moveaxis(exp[k] - exp[j], -1, 0)
    mean = 0.5 * (g0 + g2)
    v = np.stack([mean, 0.5 * (g0 - g2), g1 - mean], axis=-1)  # (n_comp, 3)
    # an integrand at the roundoff floor of the operator scale is exactly zero
    if float(np.max(np.abs(v))) <= 1e-9 * float(np.max(np.abs(ops))):
        return 0.0
    gram = _kernel_gram(correlation_time, period)
    return float(np.einsum("cp,pq,cq->", v, gram, v))


def onset_ratio(
    power_density: float,
    bandwidth: float,
    coupling: float,
    eta: int,
    overlap: float,
) -> float:
    """Onset-of-decoherence ratio (eta/16 pi^2)(gamma^2/d_omega)(P/V) I_kj.

    ``variance_analytic`` at sigma^2 = (P/V) / d_omega over
    ONSET_VARIANCE = (2 pi)^2; values >= 1 mean the accumulated phase
    spread reaches ~2 pi and coherence is destroyed.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    variance = variance_analytic(eta, coupling, power_density / bandwidth, overlap)
    return variance / ONSET_VARIANCE


def transverse_magnetization(rho: AveragedDensity):
    """(<sigma_x>, <sigma_y>) of a single qubit in the eigenbasis at t_f.

    The magnitude is 2 |rho_{+-}| = 2 |c_+ c_-| |D| and the polar angle of
    (mx, my) equals -Gamma_a(+,-): this is the NMR observable that carries
    the geometric-phase signal.
    """
    if rho.matrix.shape != (2, 2):
        raise ValueError("transverse magnetization is a single-qubit observable")
    upper = rho.matrix[0, 1]  # rho_{-+} = conj(rho_{+-})
    mx = 2.0 * float(upper.real)
    my = -2.0 * float(upper.imag)
    return mx, my


def averaged_density_analytic(config: EnsembleConfig) -> AveragedDensity:
    """Closed-form noise-averaged density matrix (no Monte Carlo).

    Entries follow rho_kj = c_k c_j* exp(-i Gamma_a(k,j)) exp(-Var_kj/2)
    with Var_kj from the exact overlap integral for each level pair.
    Standard errors are zero: this is the analytic limit the Monte Carlo
    estimators converge to.
    """
    h = config.hamiltonian
    sched = h.schedule
    noise = config.noise
    gamma_a = deterministic_phases(h, sched.duration)
    c = config.amplitudes
    n = h.n_levels
    matrix = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for j in range(n):
            if k == j:
                matrix[k, k] = abs(c[k]) ** 2
                continue
            i_kj = overlap_integral(
                h, noise.correlation_time, (k, j), noise.dimension
            )
            var = variance_analytic(sched.cycles, h.coupling, noise.variance, i_kj)
            matrix[k, j] = (
                c[k]
                * np.conj(c[j])
                * np.exp(-1j * (gamma_a[k] - gamma_a[j]))
                * decoherence_factor_analytic(var)
            )
    return AveragedDensity(
        matrix=matrix,
        standard_errors=np.zeros((n, n)),
        realizations_used=0,
    )


def decoherence_sweep(
    config: EnsembleConfig, variances, levels: tuple = (1, 0)
) -> list:
    """``decoherence_report`` of ``config`` at each noise variance of
    ``variances``, one report each, from one draw of the normals.

    The rows share their realizations' normals, as the rows of one master
    seed always do: each row's standard error is its own, but the rows'
    Monte Carlo errors are correlated, so a difference between rows is
    more precise than their standard errors suggest.
    """
    h = config.hamiltonian
    k, j = levels
    c = config.amplitudes
    if c[k] == 0 or c[j] == 0:
        raise ValueError("levels must have nonzero initial amplitudes")
    gamma_a, densities = _run_segments(config, [(h, 0, 0)], variances)
    reference = c[k] * np.conj(c[j]) * np.exp(-1j * (gamma_a[k] - gamma_a[j]))
    noise = config.noise
    i_kj = overlap_integral(h, noise.correlation_time, (k, j), noise.dimension)
    reports = []
    for sigma2, density in zip(variances, densities):
        var = variance_analytic(h.schedule.cycles, h.coupling, sigma2, i_kj)
        mc_factor = complex(density.matrix[k, j] / reference)
        mc_se = float(density.standard_errors[k, j] / abs(reference))
        d = decoherence_factor_analytic(var)
        onset = var / ONSET_VARIANCE
        reports.append(DecoherenceReport((k, j), mc_factor, mc_se, var, d, onset, i_kj))
    return reports


def decoherence_report(
    config: EnsembleConfig, levels: tuple = (1, 0)
) -> DecoherenceReport:
    """Monte Carlo decoherence factor vs the Gaussian closed form.

    Runs the configured ensemble, extracts D(k,j) from the averaged
    off-diagonal, and compares with exp(-Var/2) built from the exact
    overlap integral.  The onset ratio is that variance over (2 pi)^2.
    """
    return decoherence_sweep(config, [config.noise.variance], levels)[0]
