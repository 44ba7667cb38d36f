"""Monte Carlo ensembles over noise realizations and their closed forms.

The noise-averaged density matrix of a driven qubit register is

    rho_kj(t_f) = c_k c_j* exp[-i Gamma_a(k,j)] D(k,j),

with Gamma_a(k,j) = Gamma_a(k) - Gamma_a(j) and decoherence factor
D(k,j) = < exp[-i (Gamma_s(k) - Gamma_s(j))] >.  For Gaussian stationary
noise the accumulated stochastic phase difference is Gaussian with zero
mean and variance

    Var = (gamma^2 sigma^2 / 4) I_kj,
    I_kj = int int O_kj(t) . O_kj(t') f(t - t') dt dt' over the whole run,

so D(k,j) = exp(-Var / 2); the paper's eta I_kj of one period is its
tau_c << T limit.  This module estimates D by brute-force Monte Carlo
(exact propagation or the analytic adiabatic phases) and evaluates the
closed forms, including the onset-of-decoherence ratio (phase spread
~ 2 pi) expressed through the absorbed noise power P/V = sigma^2 d_omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adiabatic import (
    QubitHamiltonian,
    _phase_weights,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
)
from .errors import _check_count, _check_elements, _check_real
from .noise import (
    RESOLUTION_FACTOR,
    NoiseSpec,
    _ensemble_normals,
    _noise_grid,
    _ou_from_normals,
    _run_blocks,
    _worker_count,
    split_seed,
)

__all__ = [
    "EnsembleConfig",
    "AveragedDensity",
    "DecoherenceReport",
    "run_ensemble",
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
                        propagators, at uniform level cone angles only;
                        'analytic_phase' uses the adiabatic closed-form
                        phases along each noise path
    noise_dt            noise grid step (default tau_c / 10)
    substeps            propagation slices per noise step (exact engine)
    threads             worker processes asked for the per-path work, an
                        integer >= 1 (``noise._worker_count``); no result
                        bit depends on them
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
    threads: int = 1

    def __post_init__(self):
        c = np.asarray(self.initial_amplitudes, dtype=complex)
        if c.shape != (self.hamiltonian.n_levels,):
            raise ValueError(
                f"initial_amplitudes must have {self.hamiltonian.n_levels} entries"
            )
        if not abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12:  # NaN fails
            raise ValueError("initial_amplitudes must satisfy sum |c_k|^2 = 1")
        _check_count(self.realizations, "realizations", 2)
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        # per-level angles define no one-qubit Hamiltonian to compose as u x u
        exact = self.engine == "exact_propagation"
        if exact and not self.hamiltonian.uniform_cone_angles():
            raise ValueError(
                "the exact_propagation engine needs uniform level_cone_angles; "
                "use the analytic_phase engine"
            )
        _check_count(self.substeps, "substeps", 1)
        _check_count(self.threads, "threads", 1)
        if self.noise_dt is not None:
            _check_real(self.noise_dt, "noise_dt", 0, strict=True)
        object.__setattr__(self, "initial_amplitudes", tuple(c.tolist()))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.asarray(self.initial_amplitudes, dtype=complex)

    @property
    def dt(self) -> float:
        if self.noise_dt is not None:
            return self.noise_dt
        return self.noise.correlation_time / RESOLUTION_FACTOR


@dataclass(frozen=True)
class AveragedDensity:
    """Noise-averaged density matrix in the instantaneous eigenbasis at t_f.

    ``standard_errors[k, j]`` is the Monte Carlo standard error of the
    complex entry (real and imaginary scatter combined in quadrature).
    """

    matrix: np.ndarray
    standard_errors: np.ndarray


@dataclass(frozen=True)
class DecoherenceReport:
    """Monte Carlo estimate vs closed form for one level pair."""

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
    """Mean of the outer products of amps (rows, n) or (n,) broadcast to
    ``realizations`` rows, and its standard error, real and imaginary
    scatter in quadrature."""
    amps = np.broadcast_to(amps, (realizations, amps.shape[-1]))
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


def _normal_weights(segments, t: np.ndarray, levels, noise: NoiseSpec, dt: float):
    """Weights W~ (n_t, dim, n_levels) that give the Gamma_s of ``levels``
    on the unit-variance OU path u over ``segments`` (grid ``t`` each)
    straight from its normals z: Gamma_s = z . W~; other columns stay 0.

    On u, Gamma_s = u . W, where segment l adds level k ^ flips's
    ``_phase_weights`` to points l n ... (l + 1) n, so a shared boundary
    point takes both halves.  As u_0 = z_0, u_i = a u_{i-1} + sqrt(1 - a^2)
    z_i (``_ou_from_normals`` at sigma^2 = 1), the adjoint turns W into W~:
    acc_i = W_i + a acc_{i+1}, then rows i >= 1 times sqrt(1 - a^2)."""
    n, dim = t.size - 1, noise.dimension
    weights = np.zeros((len(segments) * n + 1, dim, segments[0][0].n_levels))
    for l, (h, flips, _) in enumerate(segments):
        for k in levels:
            w = _phase_weights(h, t, k ^ flips, dim)
            weights[l * n : (l + 1) * n + 1, :, k] += w
    a = np.exp(-dt / noise.correlation_time)
    for i in range(len(weights) - 2, -1, -1):
        weights[i] += a * weights[i + 1]
    weights[1:] *= np.sqrt(1.0 - a * a)
    return weights


def _exact_basis(segments, t, c):
    """(singles, states, spinor) of the exact engine: the segments'
    one-qubit Hamiltonians, the one-qubit eigenstates (level, end,
    component) at t[0] and t[-1], and the one spinor that
    ``evolve_exact_batch`` propagates through every segment (see
    ``_exact_amplitudes``)."""
    singles = [replace(h, qubit_count=1, level_cone_angles=None) for h, *_ in segments]
    states = eigenframe(singles[0], t[[0, -1]]).states
    if segments[0][0].qubit_count == 1:
        return singles, states, states[:, 0, :].T @ c  # lab-frame initial state
    return singles, states, states[0, 0, :]


def _exact_amplitudes(segments, states, c, x) -> np.ndarray:
    """Eigenbasis amplitudes (rows, n_levels) at t_f from the final states
    x (P, rows, 2) of ``_exact_basis``'s spinor, which spans the segments
    back to back, and its eigenstates ``states``.

    One qubit (one segment) propagates its lab-frame state, entering and
    leaving through the eigenframe's first and last states.  Two qubits see
    the same field and noise, so a segment's propagator is u x u and the
    amplitude matrix Psi[i1, i2] evolves as u Psi u^T.  Psi is kept in the
    one-qubit eigenbasis at the segment boundaries (azimuth 0), where the
    ideal pi-pulse swaps the target qubit's aligned and anti-aligned levels.
    Only the aligned state v0 is propagated: the anti-aligned one is
    v1 = J v0* with J = [[0, -1], [1, 0]], and every u in SU(2) has
    u J = J u*, so u v1 = J (u v0)*, the bits that propagating v1 gives.
    """
    if segments[0][0].qubit_count == 1:
        return x[0] @ states[:, -1, :].conj().T
    v = states[:, 0, :]  # rows: the eigenstates at azimuth 0
    jx = np.stack([-x[..., 1].conj(), x[..., 0].conj()], axis=-1)  # J x*
    psi = c.reshape(2, 2)
    for u, (_, _, target) in zip(v @ np.stack([x, jx], axis=-1), segments):
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
    The variances, the seed, the grid and the element bounds (with the exact
    engine's slices x segments x 3, or the analytic engine's weights) are
    checked for every configured realization before anything is allocated.
    If any variance is nonzero, the normals are drawn once, time-major in
    memory, seen as (rows, n_t, dim), and MAX_ELEMENTS, checked on them,
    bounds all the noise a sweep holds.  The OU recursion is linear in
    sigma, so each row's noise is sigma u, u the unit-variance path of
    ``make_noise_ensemble``: the exact engine filters the normals into u in
    place and propagates every segment of a row in one call per nonzero
    sigma, and the analytic engine scales Gamma_s of u, read off the normals
    (``_normal_weights``).  That per-path work runs in ``_worker_count``
    contiguous blocks of realizations (``_run_blocks``), each re-keyed from
    its first row.
    Then the exact engine propagates here the one row of +0.0 noise of
    sigma = 0 (the analytic engine integrates nothing for it), and every
    reduction over the realizations runs here, so no bit depends on the
    blocks.
    """
    # each variance is checked as a NoiseSpec's
    sigmas = [math.sqrt(replace(config.noise, variance=v).variance) for v in variances]
    h = config.hamiltonian
    # the analytic engine's phases hold only in the adiabatic limit
    strict = config.strict_adiabatic or config.engine == "analytic_phase"
    h.check_adiabatic(config.noise.correlation_time, strict=strict)
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
        _check_elements((slices, count, 3), "exact propagation slices")
    else:
        _check_elements((n_t, dim, h.n_levels), "stochastic phase weights")
    t = np.linspace(0.0, span, n + 1)
    gamma_a = _gamma_a(segments, span)
    c = config.amplitudes
    noisy = [sigma for sigma in sigmas if sigma]
    if exact:
        singles, states, spinor = _exact_basis(segments, t, c)
    elif noisy:
        weights = _normal_weights(segments, t, np.flatnonzero(c), config.noise, dt)

    def block(lo, hi):
        """Final states of rows lo ... hi - 1 per nonzero sigma, or unit Gamma_s."""
        u = np.empty((n_t, hi - lo, dim)).transpose(1, 0, 2)
        _ensemble_normals(split_seed(config.master_seed, lo), u)
        if not exact:
            return np.einsum("ntc,tck->nk", u, weights)
        _ou_from_normals(replace(config.noise, variance=1.0), u, dt)
        return [evolve_exact_batch(singles, t, u, spinor, slices, s) for s in noisy]

    out = []
    if noisy:
        blocks = _run_blocks(block, rows, _worker_count(config.threads, rows, sigmas))
        out = np.concatenate(blocks, axis=-2 if exact else 0)
    if exact and not all(sigmas):  # sigma = 0 propagates one row of +0.0 noise
        path = np.zeros((1, n_t, dim))
        zero = evolve_exact_batch(singles, t, path, spinor, slices, 0.0)
    finals = iter(out)
    densities = []
    for sigma in sigmas:
        if exact:
            x = next(finals) if sigma else zero
            amps = _exact_amplitudes(segments, states, c, x)
        else:
            gamma_s = sigma * out if sigma else 0.0
            amps = c * np.exp(-1j * (gamma_a + gamma_s))
        matrix, se = _averaged_density(amps, rows)
        densities.append(AveragedDensity(matrix, se))
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
    _check_real(variance, "variance", 0)
    return float(np.exp(-variance / 2.0))


def variance_analytic(
    eta: int, coupling: float, sigma2: float, overlap: float
) -> float:
    """Phase variance after eta control cycles: eta gamma^2 sigma^2 I / 4,
    the paper's law for I of one period, exact only for tau_c << T."""
    _check_count(eta, "eta", 1)
    _check_real(coupling, "coupling", 0)
    _check_real(sigma2, "sigma2", 0)
    _check_real(overlap, "overlap", 0)
    return eta * coupling**2 * sigma2 * overlap / 4.0


def _window_integral(s: np.ndarray, span: float) -> np.ndarray:
    """E(s) = int_0^S e^{s t} dt = (e^{sS} - 1) / s, and S at s = 0."""
    nonzero = np.where(s == 0, 1.0, s)
    return np.where(s == 0, span, np.expm1(s * span) / nonzero)


def _kernel_gram(correlation_time: float, period: float, span: float):
    """(G, h) with G_pq = int int f_p(t) f_q(t') exp(-|t - t'|/tau_c) dt dt'
    and h_p = int f_p(t) exp(-t/tau_c) dt on [0, S], f = (1, cos wt, sin wt)
    and w = 2 pi / T.  With the exponentials e^{i a t}, a in (-w, 0, w),
    the double integral is
    K(a, b) = [E(i(a+b)) - E(ia - lam)]/(lam + ib)
            + [E(i(a+b)) - E(ib - lam)]/(lam + ia),   lam = 1/tau_c,
    from splitting the square at t = t', and h = E(ia - lam); the rows of
    ``w`` write (1, cos, sin) in that exponential basis.
    """
    lam = 1.0 / correlation_time
    alpha = 2j * np.pi / period * np.array([-1.0, 0.0, 1.0])
    a, b = alpha[:, None], alpha[None, :]
    both = _window_integral(a + b, span)
    edge = _window_integral(alpha - lam, span)
    k = (both - edge[:, None]) / (lam + b) + (both - edge[None, :]) / (lam + a)
    w = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5j, 0.0, -0.5j]])
    return np.real(w @ k @ w.T), np.real(w @ edge)


def _segment_overlap(segments, correlation_time: float, levels, dimension) -> float:
    """Exact I_kj for the kernel exp(-|tau|/tau_c) over the whole window of
    ``segments`` on one noise path, as ``_run_segments`` runs them.

    In segment l, (k, j) sits on (k ^ flips, j ^ flips); each noise
    component of O_kj is v_l . f(t), v_l the difference of the two levels'
    closed-form ``level_coupling``, and adds v_l^T G v_l over its span S
    (Kubo's line-shape integral with a modulated integrand).  A pair l < m
    adds 2 e^{-(m-l-1) S/tau_c} (v_l . h~)(v_m . h), h~ being h with its sin
    entry negated as S is whole periods.  Nothing assumes tau_c << T."""
    k, j = levels
    if k == j:
        raise ValueError("levels k and j must differ (I_kk is trivially zero)")
    _check_real(correlation_time, "correlation_time", 0, strict=True)
    schedule = segments[0][0].schedule
    gram, edge = _kernel_gram(correlation_time, schedule.period, schedule.duration)
    decay = math.exp(-schedule.duration / correlation_time)
    total, tail = 0, 0.0  # tail: sum_{l<m} e^{-(m-l-1) S/tau_c} v_l . h~
    for h, flips, _ in segments:
        ck, cj = (h.level_coupling(x ^ flips, dimension) for x in (k, j))
        v = ck - cj  # (n_comp, 3)
        cross = 2.0 * float(np.sum(tail * (v @ edge)))
        total += float(np.einsum("cp,pq,cq->", v, gram, v)) + cross
        tail = decay * tail + v @ (edge * [1.0, 1.0, -1.0])
    return total


def overlap_integral(
    h: QubitHamiltonian, correlation_time: float, levels: tuple
) -> float:
    """Exact I_kj over one control period T for the kernel exp(-|tau|/tau_c)
    under scalar noise, the paper's per-period I: ``_segment_overlap`` of
    one cycle of ``h``.  The finite-window terms in exp(-T/tau_c) are kept;
    the whole run's I, at any noise dimension, is ``DecoherenceReport.overlap``.
    """
    one_cycle = replace(h, schedule=replace(h.schedule, cycles=1))
    return _segment_overlap([(one_cycle, 0, 0)], correlation_time, levels, 1)


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
    _check_real(power_density, "power_density", 0)
    _check_real(bandwidth, "bandwidth", 0, strict=True)
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
    if k == j or not (0 <= k < h.n_levels and 0 <= j < h.n_levels):
        raise ValueError(f"levels must be two distinct indices in [0, {h.n_levels})")
    c = config.amplitudes
    if c[k] == 0 or c[j] == 0:
        raise ValueError("levels must have nonzero initial amplitudes")
    gamma_a, densities = _run_segments(config, [(h, 0, 0)], variances)
    reference = c[k] * np.conj(c[j]) * np.exp(-1j * (gamma_a[k] - gamma_a[j]))
    i_kj = _segment_overlap(
        [(h, 0, 0)], config.noise.correlation_time, (k, j), config.noise.dimension
    )
    reports = []
    for sigma2, density in zip(variances, densities):
        var = variance_analytic(1, h.coupling, sigma2, i_kj)
        mc_factor = complex(density.matrix[k, j] / reference)
        mc_se = float(density.standard_errors[k, j] / abs(reference))
        d = decoherence_factor_analytic(var)
        onset = var / ONSET_VARIANCE
        reports.append(DecoherenceReport(mc_factor, mc_se, var, d, onset, i_kj))
    return reports


def decoherence_report(config: EnsembleConfig) -> DecoherenceReport:
    """Monte Carlo decoherence factor D(1,0) vs the Gaussian closed form.

    Runs the configured ensemble, extracts D(1,0) from the averaged
    off-diagonal, and compares with exp(-Var/2) built from the exact
    overlap integral.  The onset ratio is that variance over (2 pi)^2.
    """
    return decoherence_sweep(config, [config.noise.variance])[0]
