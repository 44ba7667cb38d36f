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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adiabatic import (
    QubitHamiltonian,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
    stochastic_phase_batch,
)
from .errors import ResourceLimitError
from .noise import NoiseSpec, make_noise_ensemble

__all__ = [
    "EnsembleConfig",
    "AveragedDensity",
    "EnsemblePhases",
    "DecoherenceReport",
    "run_ensemble",
    "averaged_density_analytic",
    "decoherence_factor_analytic",
    "variance_analytic",
    "overlap_integral",
    "onset_ratio",
    "transverse_magnetization",
    "decoherence_report",
]

ENGINES = ("exact_propagation", "analytic_phase")

#: default cap on realizations x time steps x components
MAX_ELEMENTS = 2**28


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
    ratio_max: float = 0.1
    strict_adiabatic: bool = False
    max_elements: int = MAX_ELEMENTS

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
        return self.noise.correlation_time / 10.0


@dataclass(frozen=True)
class AveragedDensity:
    """Noise-averaged density matrix in the instantaneous eigenbasis at t_f.

    ``standard_errors[k, j]`` is the Monte Carlo standard error of the
    complex entry (real and imaginary scatter combined in quadrature).
    """

    matrix: np.ndarray
    standard_errors: np.ndarray
    realizations_used: int

    @property
    def n_levels(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EnsemblePhases:
    """Adiabatic phases of every level along every noise path of a run.

    gamma_a  (n_levels,) deterministic phase, identical across realizations
    gamma_s  (n_levels, n_real) stochastic phase per level and realization
    """

    gamma_a: np.ndarray
    gamma_s: np.ndarray


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


def _check_noise_elements(
    realizations: int, n_t: int, dimension: int, max_elements: int = MAX_ELEMENTS
) -> None:
    """Refuse, before allocating, a noise ensemble above ``max_elements``."""
    elements = realizations * n_t * dimension
    if elements > max_elements:
        raise ResourceLimitError(
            f"ensemble needs {elements} noise samples, above the bound "
            f"{max_elements}; reduce realizations or coarsen the noise step"
        )


def _ensemble_noise(
    config: EnsembleConfig, duration: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Time grid and noise samples (realizations, n_t, dim) for the run."""
    n_steps = int(round(duration / dt))
    _check_noise_elements(
        config.realizations, n_steps + 1, config.noise.dimension, config.max_elements
    )
    t = np.arange(n_steps + 1) * dt
    if config.noise.variance == 0.0:
        samples = np.zeros((config.realizations, t.size, config.noise.dimension))
    else:
        samples = make_noise_ensemble(
            config.noise, duration, dt, config.master_seed, config.realizations
        )
    return t, samples


def _complex_mean_se(values: np.ndarray, axis=0):
    """Mean and combined real/imag standard error along ``axis``."""
    n = values.shape[axis]
    mean = np.mean(values, axis=axis)
    if n < 2:
        return mean, np.zeros_like(mean, dtype=float)
    se = np.sqrt(
        np.var(values.real, axis=axis, ddof=1)
        + np.var(values.imag, axis=axis, ddof=1)
    ) / np.sqrt(n)
    return mean, se


def run_ensemble(config: EnsembleConfig):
    """Average rho(t_f; k) over noise realizations.

    Returns ``(AveragedDensity, EnsemblePhases)``: the averaged density
    matrix with its standard errors, and the arrays Gamma_a of shape
    (n_levels,) and Gamma_s of shape (n_levels, n_real).  Results depend
    only on the configuration: realization i always uses the i-th child of
    ``master_seed``, and the density is a plain ``np.mean`` of the
    per-realization outer products along axis 0.
    """
    h = config.hamiltonian
    strict = config.strict_adiabatic or config.engine == "analytic_phase"
    h.check_adiabatic(
        correlation_time=config.noise.correlation_time,
        ratio_max=config.ratio_max,
        strict=strict,
    )
    t, samples = _ensemble_noise(config, h.schedule.duration, config.dt)
    frame = eigenframe(h, t)
    c = config.amplitudes

    gamma_a = deterministic_phases(h, t[-1] - t[0])
    gamma_s = np.stack(
        [
            stochastic_phase_batch(h, frame, samples, level)
            for level in range(h.n_levels)
        ]
    )  # (n_levels, n_real)

    if config.engine == "analytic_phase":
        amps = c[None, :] * np.exp(
            -1j * (gamma_a[None, :] + gamma_s.T)
        )  # (n_real, n_levels)
    else:
        psi0 = frame.states[:, 0, :].T @ c  # lab-frame initial state
        slices = (t.size - 1) * config.substeps
        psi_f = evolve_exact_batch(h, t, samples, psi0, slices)
        amps = psi_f @ frame.states[:, -1, :].conj().T

    outer = amps[:, :, None] * amps[:, None, :].conj()
    matrix, se = _complex_mean_se(outer, axis=0)

    density = AveragedDensity(
        matrix=matrix, standard_errors=se, realizations_used=config.realizations
    )
    return density, EnsemblePhases(gamma_a=gamma_a, gamma_s=gamma_s)


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

    Uses P/V = sigma^2 d_omega, so the ratio equals the analytic phase
    variance divided by (2 pi)^2; values >= 1 mean the accumulated phase
    spread reaches ~2 pi and coherence is destroyed.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if power_density < 0 or overlap < 0 or eta < 1:
        raise ValueError("power_density, overlap must be >= 0 and eta >= 1")
    return (
        eta
        / (16.0 * np.pi**2)
        * coupling**2
        / bandwidth
        * power_density
        * overlap
    )


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


def decoherence_report(
    config: EnsembleConfig,
    levels: tuple = (1, 0),
    bandwidth: float = 1.0,
) -> DecoherenceReport:
    """Monte Carlo decoherence factor vs the Gaussian closed form.

    Runs the configured ensemble, extracts D(k,j) from the averaged
    off-diagonal, and compares with exp(-Var/2) built from the exact
    overlap integral.  ``bandwidth`` fixes the power bookkeeping via
    P/V = sigma^2 * bandwidth (it cancels in the onset ratio).
    """
    h = config.hamiltonian
    k, j = levels
    c = config.amplitudes
    if c[k] == 0 or c[j] == 0:
        raise ValueError("levels must have nonzero initial amplitudes")
    density, phases = run_ensemble(config)
    gamma_a_kj = phases.gamma_a[k] - phases.gamma_a[j]
    reference = c[k] * np.conj(c[j]) * np.exp(-1j * gamma_a_kj)
    mc_factor = complex(density.matrix[k, j] / reference)
    mc_se = float(density.standard_errors[k, j] / abs(reference))

    sched = h.schedule
    noise = config.noise
    i_kj = overlap_integral(h, noise.correlation_time, (k, j), noise.dimension)
    var = variance_analytic(sched.cycles, h.coupling, noise.variance, i_kj)
    ratio = onset_ratio(
        noise.variance * bandwidth, bandwidth, h.coupling, sched.cycles, i_kj
    )
    return DecoherenceReport(
        levels=(k, j),
        mc_factor=mc_factor,
        mc_standard_error=mc_se,
        analytic_variance=var,
        analytic_factor=decoherence_factor_analytic(var),
        onset_ratio=ratio,
        overlap=i_kj,
    )
